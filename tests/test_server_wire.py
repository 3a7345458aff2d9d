"""Cross-validation: the abstract NGINX DES vs real wire termination.

Same workload, two servers — the fast packet-rate model used by the
Table 1 harness and the wire-level pool terminating real QUIC
datagrams.  Their availability must agree, which is what justifies the
fast model's numbers.
"""

import pytest

from repro.util.rng import SeededRng
from repro.quic.connection import ClientConnection
from repro.quic.header import PacketType, RetryPacket
from repro.quic.packet import split_datagram
from repro.server.nginx import NginxConfig, NginxQuicServer
from tests.reference.wire import WireNginxServer


def _clients(rng, count):
    return [
        ClientConnection(rng.child(f"client:{i}"), server_name="pool.example")
        for i in range(count)
    ]


def _replay(server, clients, rate, start=0.0):
    """Send each client's Initial once at fixed rate; count answered."""
    answered = 0
    for i, client in enumerate(clients):
        now = start + i / rate
        responses = server.handle_datagram(
            client.initial_datagram(), 0x0A000000 + i, 40000 + i, now
        )
        if responses:
            answered += 1
    return answered


def test_wire_low_rate_all_served():
    rng = SeededRng(61)
    config = NginxConfig(workers=2, connections_per_worker=64)
    server = WireNginxServer(config, rng.child("server"))
    clients = _clients(rng, 40)
    assert _replay(server, clients, rate=10.0) == 40
    assert server.stats["handshakes"] == 40
    assert server.open_states == 40


def test_wire_response_train_is_four_datagrams():
    rng = SeededRng(62)
    server = WireNginxServer(NginxConfig(workers=1), rng.child("server"), keepalive_pings=2)
    client = ClientConnection(rng.child("client"))
    responses = server.handle_datagram(client.initial_datagram(), 1, 2, now=0.0)
    # the DES's responses_per_handshake=4 assumption, verified on wire
    assert len(responses) == NginxConfig().responses_per_handshake


def test_wire_table_overflow_drops():
    rng = SeededRng(63)
    config = NginxConfig(workers=1, connections_per_worker=8)
    server = WireNginxServer(config, rng.child("server"))
    clients = _clients(rng, 20)
    answered = _replay(server, clients, rate=100.0)
    assert answered == 8
    assert server.stats["dropped_table_full"] == 12


def test_wire_sweep_recovers_capacity():
    rng = SeededRng(64)
    config = NginxConfig(
        workers=1, connections_per_worker=4, cleanup_interval=60.0, min_idle=10.0
    )
    server = WireNginxServer(config, rng.child("server"))
    first = _clients(rng, 6)
    assert _replay(server, first, rate=10.0) == 4
    # after the sweep at t=60, new handshakes are accepted again
    late_client = ClientConnection(rng.child("late"))
    responses = server.handle_datagram(late_client.initial_datagram(), 99, 99, now=61.0)
    assert responses


def test_wire_retry_is_stateless_and_mitigates():
    rng = SeededRng(65)
    config = NginxConfig(workers=1, connections_per_worker=4, retry_enabled=True)
    server = WireNginxServer(config, rng.child("server"))
    clients = _clients(rng, 30)
    # a spoofed replay only ever earns Retry packets: no state consumed
    for i, client in enumerate(clients):
        responses = server.handle_datagram(
            client.initial_datagram(), 500 + i, 600 + i, now=i * 0.01
        )
        assert len(responses) == 1
        assert isinstance(split_datagram(responses[0].data)[0], RetryPacket)
    assert server.open_states == 0
    # while a genuine client completes via the token
    genuine = ClientConnection(rng.child("genuine"))
    first = server.handle_datagram(genuine.initial_datagram(), 7777, 8888, now=1.0)
    retry_reply = genuine.handle_datagram(first[0].data)
    second = server.handle_datagram(retry_reply[0].data, 7777, 8888, now=1.1)
    assert any(
        isinstance(v.packet_type, type(PacketType.INITIAL)) for r in second for v in split_datagram(r.data)
    )
    assert server.open_states == 1


@pytest.mark.parametrize("capacity,count", [(16, 40), (32, 32)])
def test_wire_matches_abstract_model(capacity, count):
    """The cross-validation: same workload, same availability."""
    rng = SeededRng(66)
    config = NginxConfig(workers=2, connections_per_worker=capacity)
    wire = WireNginxServer(config, rng.child("wire"))
    abstract = NginxQuicServer(config)

    clients = _clients(rng, count)
    wire_answered = 0
    abstract_answered = 0
    for i, client in enumerate(clients):
        now = i / 50.0
        ip, port = 0x0B000000 + i, 50000 + i
        if wire.handle_datagram(client.initial_datagram(), ip, port, now):
            wire_answered += 1
        if abstract.handle_initial(now, (ip * 31 + port)):
            abstract_answered += 1
    assert wire_answered == abstract_answered
    assert wire.open_states == sum(len(w.slots) for w in abstract._workers)
