"""Tests for the NGINX DES: event loop, server model, clients, Table 1."""

import pytest

from repro.util.rng import SeededRng
from repro.server.benchmark import TABLE1_SETUPS, run_attack, run_table1, table1_rows
from repro.server.client import LegitimateClient, ReplayClient
from repro.server.nginx import AUTO_WORKERS, NginxConfig, NginxQuicServer
from tests.reference.simulation import EventLoop


def open_states(server: NginxQuicServer) -> int:
    return sum(len(worker.slots) for worker in server._workers)


# -- event loop -----------------------------------------------------------


def test_event_loop_ordering():
    loop = EventLoop()
    order = []
    loop.schedule(2.0, lambda: order.append("b"))
    loop.schedule(1.0, lambda: order.append("a"))
    loop.schedule(3.0, lambda: order.append("c"))
    loop.run()
    assert order == ["a", "b", "c"]
    assert loop.now == 3.0


def test_event_loop_fifo_ties():
    loop = EventLoop()
    order = []
    loop.schedule_at(1.0, lambda: order.append(1))
    loop.schedule_at(1.0, lambda: order.append(2))
    loop.run()
    assert order == [1, 2]


def test_event_loop_run_until():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(5.0, lambda: fired.append(5))
    loop.run_until(2.0)
    assert fired == [1]
    assert loop.now == 2.0
    assert loop.pending == 1


def test_event_loop_rejects_past():
    loop = EventLoop(start=10.0)
    with pytest.raises(ValueError):
        loop.schedule_at(5.0, lambda: None)


def test_event_loop_periodic():
    loop = EventLoop()
    ticks = []
    loop.schedule_every(1.0, lambda: ticks.append(loop.now), until=5.0)
    loop.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        loop.schedule_every(0, lambda: None)


# -- server model -----------------------------------------------------------


def test_low_rate_all_served():
    server = NginxQuicServer(NginxConfig(workers=4))
    for i in range(100):
        assert server.handle_initial(i * 0.1, i) == 4
    assert server.stats.handshakes_served == 100
    assert server.stats.responses_sent == 400


def test_table_fills_and_drops():
    config = NginxConfig(workers=1, connections_per_worker=10)
    server = NginxQuicServer(config)
    served = sum(
        1 for i in range(20) if server.handle_initial(i * 0.001, 0) > 0
    )
    assert served == 10
    assert server.stats.dropped_table_full == 10
    assert open_states(server) == 10


def test_cleanup_sweep_frees_slots():
    config = NginxConfig(workers=1, connections_per_worker=10, cleanup_interval=60, min_idle=10)
    server = NginxQuicServer(config)
    for i in range(10):
        server.handle_initial(float(i), 0)
    assert server.handle_initial(11.0, 0) == 0  # table full
    # after the 60 s sweep the early states (idle > 10 s) are gone
    assert server.handle_initial(61.0, 0) > 0


def test_completed_handshake_releases_slot():
    config = NginxConfig(workers=1, connections_per_worker=1)
    server = NginxQuicServer(config)
    assert server.handle_initial(0.0, 0) > 0
    assert server.handle_initial(0.1, 0) == 0
    server.complete_handshake(0.2, 0)
    assert server.handle_initial(0.3, 0) > 0


def test_retry_mode_stateless():
    server = NginxQuicServer(NginxConfig(workers=1, connections_per_worker=5, retry_enabled=True))
    for i in range(100):
        assert server.handle_initial(i * 0.001, i) == 1
    assert open_states(server) == 0
    assert server.stats.retries_sent == 100


def test_retry_mode_token_earns_handshake():
    server = NginxQuicServer(NginxConfig(workers=1, retry_enabled=True))
    assert server.handle_initial(0.0, 7) == 1  # retry
    assert server.handle_initial(0.1, 7, has_valid_token=True) == 4
    assert server.stats.handshakes_served == 1


def test_cpu_backlog_drops():
    config = NginxConfig(workers=1, crypto_cost=0.1, max_cpu_backlog=0.5, connections_per_worker=10**6)
    server = NginxQuicServer(config)
    served = sum(1 for i in range(100) if server.handle_initial(i * 0.001, 0) > 0)
    assert served < 100
    assert server.stats.dropped_cpu > 0


def test_auto_config():
    config = NginxConfig.auto()
    assert config.workers == AUTO_WORKERS
    assert config.table_capacity == AUTO_WORKERS * 1024


# -- clients ------------------------------------------------------------


def test_replay_client_rate_and_order():
    replay = ReplayClient(SeededRng(1), recorded_flows=100)
    initials = list(replay.replay(10.0, 50))
    assert len(initials) == 50
    assert initials[1].timestamp - initials[0].timestamp == pytest.approx(0.1)
    with pytest.raises(ValueError):
        list(replay.replay(0, 10))
    with pytest.raises(ValueError):
        ReplayClient(SeededRng(1), recorded_flows=0)


def test_legit_client_retry_pays_extra_rtt():
    server = NginxQuicServer(NginxConfig(workers=4, retry_enabled=True))
    outcome = LegitimateClient(SeededRng(2)).probe(server, 0.0)
    assert outcome.served
    assert outcome.round_trips == 2


def test_legit_client_no_retry_single_rtt():
    server = NginxQuicServer(NginxConfig(workers=4))
    outcome = LegitimateClient(SeededRng(2)).probe(server, 0.0)
    assert outcome.served
    assert outcome.round_trips == 1


# -- table 1 ------------------------------------------------------------


def test_run_attack_low_volume_full_availability():
    server = NginxQuicServer(NginxConfig(workers=4))
    row = run_attack(server, rate_pps=10, total_requests=3001)
    assert row.availability == 1.0
    assert row.server_responses >= 4 * 3001
    assert not row.extra_rtt


def test_run_attack_4workers_collapse_at_1000pps():
    server = NginxQuicServer(NginxConfig(workers=4))
    row = run_attack(server, rate_pps=1000, total_requests=300_001)
    assert 0.05 < row.availability < 0.10  # paper: 7%
    assert row.legit_availability < 0.3


def test_run_attack_retry_keeps_service_up():
    server = NginxQuicServer(NginxConfig(workers=4, retry_enabled=True))
    row = run_attack(server, rate_pps=10_000, total_requests=100_000)
    assert row.availability == 1.0
    assert row.legit_availability == 1.0
    assert row.extra_rtt


def test_table1_shape():
    rows = run_table1(scale=1.0)
    assert len(rows) == len(TABLE1_SETUPS)
    by_key = {(r.volume_pps, r.retry, r.workers): r for r in rows}
    # paper: 100%, 68%, 7%, 100%, 26%, 26%, then retry rows all 100%
    assert by_key[(10, False, 4)].availability == 1.0
    assert 0.6 < by_key[(100, False, 4)].availability < 0.8
    assert by_key[(1_000, False, 4)].availability < 0.1
    assert by_key[(1_000, False, AUTO_WORKERS)].availability == 1.0
    assert 0.2 < by_key[(10_000, False, AUTO_WORKERS)].availability < 0.35
    assert 0.2 < by_key[(100_000, False, AUTO_WORKERS)].availability < 0.35
    for volume in (1_000, 10_000, 100_000):
        assert by_key[(volume, True, 4)].availability == 1.0
        assert by_key[(volume, True, 4)].legit_availability == 1.0


def test_table1_rows_renderable():
    headers, table = table1_rows(run_table1(scale=0.01))
    assert len(headers) == 8
    assert len(table) == len(TABLE1_SETUPS)
