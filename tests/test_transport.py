"""Tests for the lossy-link harness and PTO retransmission."""

import pytest

from repro.util.rng import SeededRng
from repro.quic.connection import ClientConnection, ServerConnection
from tests.reference.transport import (
    INITIAL_PTO,
    MAX_PTO_COUNT,
    ConnectionRunner,
    LossyLink,
)


def _runner(seed, loss=0.0, retry=False, delay=0.05):
    rng = SeededRng(seed)
    return ConnectionRunner(
        ClientConnection(rng.child("client")),
        ServerConnection(rng.child("server"), retry_enabled=retry),
        rng.child("link"),
        loss=loss,
        delay=delay,
    )


# -- link ------------------------------------------------------------


def test_link_lossless_delivers_with_delay():
    link = LossyLink(SeededRng(1), loss=0.0, delay=0.1, jitter=0.05)
    for _ in range(100):
        latency = link.transit()
        assert latency is not None
        assert 0.1 <= latency <= 0.15


def test_link_loss_rate_approximate():
    link = LossyLink(SeededRng(2), loss=0.4, delay=0.0, jitter=0.0)
    lost = sum(1 for _ in range(2000) if link.transit() is None)
    assert abs(lost / 2000 - 0.4) < 0.05


def test_link_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LossyLink(SeededRng(3), loss=1.0)
    with pytest.raises(ValueError):
        LossyLink(SeededRng(3), delay=-1.0)


# -- runner ------------------------------------------------------------


def test_lossless_handshake_completes_without_retransmission():
    runner = _runner(10)
    stats = runner.run()
    assert runner.client.state == "connected"
    assert stats.retransmissions == 0
    assert stats.pto_count == 0
    assert stats.completed_at is not None
    # ~2 one-way delays for the first RT plus the client's finish
    assert stats.completed_at < 4 * 0.06 + INITIAL_PTO


def test_handshake_survives_moderate_loss():
    completed = 0
    for seed in range(20):
        runner = _runner(100 + seed, loss=0.2)
        runner.run()
        if runner.client.state == "connected":
            completed += 1
    assert completed >= 18


def test_loss_triggers_pto_retransmissions():
    retransmitted = 0
    for seed in range(20):
        runner = _runner(200 + seed, loss=0.35)
        stats = runner.run()
        retransmitted += stats.retransmissions
    assert retransmitted > 0


def test_total_blackout_gives_up_after_max_pto():
    runner = _runner(11, loss=0.0)
    runner.uplink.loss = 0.999999  # effectively everything lost upstream
    runner.uplink.rng = SeededRng(999)  # fresh stream for determinism

    class AlwaysLossy(LossyLink):
        def transit(self):
            return None

    runner.uplink = AlwaysLossy(SeededRng(1))
    stats = runner.run(timeout=10_000.0)
    assert runner.client.state != "connected"
    assert stats.pto_count == MAX_PTO_COUNT
    assert stats.completed_at is None


def test_retry_handshake_over_lossy_link():
    completed = 0
    for seed in range(15):
        runner = _runner(300 + seed, loss=0.15, retry=True)
        runner.run()
        if runner.client.state == "connected":
            completed += 1
    assert completed >= 13


def test_stats_account_for_losses():
    runner = _runner(12, loss=0.3)
    stats = runner.run()
    assert stats.datagrams_sent > 0
    assert 0 <= stats.datagrams_lost <= stats.datagrams_sent


def test_runner_deterministic():
    a = _runner(13, loss=0.25)
    b = _runner(13, loss=0.25)
    stats_a, stats_b = a.run(), b.run()
    assert (stats_a.datagrams_sent, stats_a.pto_count, stats_a.completed_at) == (
        stats_b.datagrams_sent,
        stats_b.pto_count,
        stats_b.completed_at,
    )


def test_duplicate_flight_restarts_cleanly():
    """A retransmitted client flight makes the server issue a second
    flight with a new SCID; the client must discard the stale partial
    flight and still complete (the _hs_chunks reset path)."""
    rng = SeededRng(14)
    client = ClientConnection(rng.child("c"))
    server = ServerConnection(rng.child("s"))
    initial = client.initial_datagram()
    first_flight = server.handle_datagram(initial, 1, 2, now=0.0)
    second_flight = server.handle_datagram(initial, 1, 2, now=1.0)
    # deliver only datagram 1 of flight A, then all of flight B
    client.handle_datagram(first_flight[0].data)
    out = []
    for response in second_flight:
        out.extend(client.handle_datagram(response.data))
    assert client.state == "connected"
    assert out  # the finish datagram was produced
