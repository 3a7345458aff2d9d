"""The fast lane classifies in two places and updates state in one.

``BatchLane.observe_packets`` / ``observe_records`` are the only runs
of the scalar classification ladder (one per input representation: a
measured −12 % keeps them apart, see docs/ARCHITECTURE.md), and
``PartialState.apply`` is the only fast-lane state update; the sketch
tier is a second sink of the same observations.  Equivalence suites can
only compare walkers that exist — this guard keeps a new one from being
written, by pinning *where* the calls that make a walker may appear
under ``src/repro``:

- ``.add_run`` (sessions from lane entries) — ``PartialState._apply_run``,
  and ``.apply_run`` (a piece landing in a session) —
  ``Sessionizer.add_run``: the one route from a lane observation to a
  session, the monitor's flood detector included (it listens on
  ``on_run``).  No per-entry walk is left to come back: no name under
  ``src/repro`` is ``add_entry``, ``apply_entry``, ``on_update``,
  ``observe_update``, or the detector's ``release`` / ``_live``;
- calls of ``entry_for`` (the dissection memo) — the two adapters;
- ``Sessionizer.add`` (sessions from rich objects, recognised by a
  receiver spelled ``…sessionizer….add``) — ``PartialState.consume``,
  the reference implementation the lane suites compare against.

The lane is not a knob either: ``PartialState.consume`` is the only
``classify_batch`` caller and itself has no caller under ``src/repro``
(the suites drive it through ``tests/oracle.py``), nothing is named
``fast_lane``/``gen_lane``, and ``core/parallel.py`` has one worker
function.  That worker (a ``--workers`` part) and the fused report run
one loop, ``run_record_batches``, and ``run_parts`` is the one way into
the process pool: no second partitioned runner (the deleted
``repro.federate``) is left to hold equal to it.

Generation has the same shape: ``Scenario.records()`` is the one
generator production runs and ``Scenario.packets()`` a view of it; it
passes one tap (``Telescope.capture_records``) and a capture is written
by one function (``write_records``).  Backscatter has one writer per
vector: ``QuicVictimResponder`` is the only responder class, and
``AttackTrafficModel.flood_records`` writes the TCP/ICMP answers itself.
The reference generator is not in the package at all
(``tests/reference/generator.py``); ``tests/test_reachability.py`` keeps
code only tests call from coming back.

The packet layer sits below QUIC: nothing under ``src/repro/net``
imports ``repro.quic``.  It has one packet record: ``CapturedPacket``
is flat scalars, parsed by ``from_bytes``.  No IPv4/UDP/TCP/ICMP header
class, Internet checksum or packet serializer is left under
``src/repro`` to hold equal to the wire stamper; those codecs are the
tests' reference (``tests/reference/headers.py``).

No environment variable is a hidden knob either: options and config
fields set every behaviour, and nothing under ``src/repro`` reads the
environment.
"""

import ast
import pathlib
from importlib.util import find_spec

from repro import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class _Sites(ast.NodeVisitor):
    """``Class.function`` of every ``<receiver>.<attr>`` reference."""

    def __init__(self, attr: str, receiver: str) -> None:
        self.attr = attr
        self.receiver = receiver
        self.scope: list = []
        self.found: set = set()

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == self.attr and self.receiver in ast.unparse(node.value).lower():
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


class _Calls(_Sites):
    """``Class.function`` of every *call* of ``<attr>`` or ``<any>.<attr>``."""

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.attr in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def sites(attr: str, receiver: str = "", kind=_Sites) -> set:
    found = set()
    for _path, tree in trees():
        visitor = kind(attr, receiver)
        visitor.visit(tree)
        found |= visitor.found
    return found


def names_in(node: ast.AST) -> set:
    """Every identifier under ``node``: names, attributes, definitions,
    imported names."""
    return {
        value
        for child in ast.walk(node)
        for value in (getattr(child, f, None) for f in ("id", "attr", "name"))
        if isinstance(value, str)
    }


def function(module: str, qualname: str) -> ast.FunctionDef:
    body = ast.parse((SRC / module).read_text()).body
    for name in qualname.split("."):
        node = next(
            n
            for n in body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
        )
        body = node.body
    return node


def calls(node: ast.AST) -> list:
    """The callee expression of every call under ``node``, as source."""
    return [ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_one_fast_lane_state_update():
    assert sites("add_run") == {"PartialState._apply_run"}
    assert sites("apply_run") == {"Sessionizer.add_run"}


def test_no_per_entry_session_walk_is_left():
    walk = {"add_entry", "apply_entry", "on_update", "observe_update", "release", "_live"}
    for path, tree in trees():
        for node in ast.walk(tree):
            named = {getattr(node, f, None) for f in ("attr", "arg", "id", "name")}
            assert not walk & named, (path, getattr(node, "lineno", None))


def test_one_classification_ladder_per_input_representation():
    # ``BatchLane.__init__`` binds the memo and its tally properties
    # read it; only the two adapters call it
    assert sites("entry_for", kind=_Calls) == {
        "BatchLane.observe_packets",
        "BatchLane.observe_records",
    }


def test_rich_sessionizer_feed_is_the_reference_walker_only():
    assert sites("add", receiver="sessionizer") == {"PartialState.consume"}


def test_sinks_know_nothing_of_packet_layout():
    """No classification in a sink: neither module imports ``repro.net``."""
    for module in ("core/pipeline.py", "stream/sketch/tier.py"):
        tree = ast.parse((SRC / module).read_text())
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert not {name for name in imported if name.startswith("repro.net")}, module


def test_packet_layer_knows_nothing_of_quic():
    """``repro.net`` sits below ``repro.quic``: the bound the parsed-payload
    memo shares with the QUIC memos (``MEMO_ENTRIES``) lives in
    ``repro.util``, and no module under ``src/repro/net`` imports QUIC."""
    for path in sorted((SRC / "net").rglob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        quic = {name for name in imported if (name + ".").startswith("repro.quic.")}
        assert not quic, (path.name, quic)


def test_one_packet_record():
    header_codecs = {"IPv4Header", "UdpHeader", "TcpHeader", "IcmpHeader"}
    checksums = {"internet_checksum", "pseudo_header"}
    records = []
    for path, tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assert node.name not in header_codecs, (path.name, node.name)
                if node.name == "CapturedPacket":
                    records.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in checksums, (path.name, node.name)
    (record,) = records
    methods = {node.name for node in record.body if isinstance(node, ast.FunctionDef)}
    assert not methods & {"ip", "transport", "to_bytes"}, methods


def test_rich_walker_is_an_oracle_not_a_path():
    assert sites("classify_batch") == {"PartialState.consume"}
    assert sites("consume") == set()


def test_no_lane_selection_is_left():
    knobs = {"fast_lane", "gen_lane"}
    for path, tree in trees():
        for node in ast.walk(tree):
            named = {
                getattr(node, "attr", None),  # config.fast_lane
                getattr(node, "arg", None),  # f(fast_lane=…), def f(fast_lane)
                getattr(node, "id", None),  # a name: variable, dataclass field
            }
            assert not knobs & named, (path, node.lineno)


def test_no_environment_variable_is_read():
    banned = {"environ", "getenv"}
    for path, tree in trees():
        for node in ast.walk(tree):
            named = {
                getattr(node, "attr", None),  # os.environ.get(…), os.getenv(…)
                getattr(node, "id", None),  # environ / getenv imported by name
            }
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                named |= {alias.name for alias in node.names}
            assert not banned & named, (path, node.lineno)


def test_one_shard_worker_function():
    tree = ast.parse((SRC / "core" / "parallel.py").read_text())
    submitted = [
        ast.unparse(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".submit")
    ]
    assert submitted == ["_run_part"]
    assert "run_record_batches" in calls(function("core/parallel.py", "_run_part"))


def test_scenario_packets_is_a_view_of_records():
    packets = function("telescope/workload.py", "Scenario.packets")
    called = calls(packets)
    assert "self.records" in called
    assert not [callee for callee in called if callee.endswith(".packets")]


def test_both_report_arms_draw_from_the_sharded_generator():
    """The fused arm hands the scenario to ``process_scenario`` (which
    partitions its units for ``--workers``), the fault arm takes its
    packet view; neither has a generation knob of its own."""
    (fork,) = [
        node
        for node in function("cli.py", "cmd_report").body
        if isinstance(node, ast.If) and node.orelse
    ]
    assert "process_scenario" in set().union(*map(names_in, fork.body))
    assert "packets" in set().union(*map(names_in, fork.orelse))
    for arm in (fork.body, fork.orelse):
        assert not any("gen_workers" in names_in(statement) for statement in arm)


def test_one_partitioned_runner():
    """``process_scenario`` reaches the pool only through ``run_parts``,
    which is the one place a pool is made; no federation package or
    command is left beside it."""
    assert find_spec("repro.federate") is None
    assert "federate" not in cli._COMMANDS
    assert "run_parts" in calls(function("core/pipeline.py", "QuicsandPipeline.process_scenario"))
    assert sites("ProcessPoolExecutor", kind=_Calls) == {"run_parts"}
    parallel = ast.parse((SRC / "core" / "parallel.py").read_text())
    defined = {node.name for node in parallel.body if isinstance(node, ast.FunctionDef)}
    assert defined == {"_run_part", "run_parts"}


def test_vantage_has_one_loop_body():
    """A vantage is a ``--workers`` part (``run_parts`` submits only
    ``_run_part``); the part and the fused report run the one loop,
    ``run_record_batches``, and the pool runs none of its own."""
    submitted = [
        node.args[0]
        for node in ast.walk(function("core/parallel.py", "run_parts"))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "pool.submit"
    ]
    assert [ast.unparse(arg) for arg in submitted] == ["_run_part"]
    part = calls(function("core/parallel.py", "_run_part"))
    assert "run_record_batches" in part
    for called in (part, calls(function("core/parallel.py", "run_parts"))):
        assert not [callee for callee in called if callee.endswith((".apply", ".observe_records"))]
        assert not [callee for callee in called if callee.startswith("state.consume")]
    fused = calls(function("core/pipeline.py", "QuicsandPipeline.process_record_batches"))
    assert "run_record_batches" in fused


def test_vantage_states_stay_in_memory():
    """A part hands its closed state back through the pool and nowhere
    else: ``core/parallel.py`` serializes nothing itself, touches no
    files and checksums nothing."""
    banned = {"pickle", "os", "tempfile", "zlib"}
    path = SRC / "core" / "parallel.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported = {(node.module or "").split(".")[0]}
        else:
            continue
        assert not imported & banned, (path.name, node.lineno)


def test_one_pcap_writer_and_one_tap():
    """A capture is written one way (``write_records``, what ``simulate``
    runs) and tapped one way (``Telescope.capture_records``): no
    per-packet writer or second tap is left to hold equal to them."""
    for path, tree in trees():
        assert not {"PcapWriter", "write_pcap", "capture_to_pcap"} & names_in(tree), path
    telescope = function("telescope/telescope.py", "Telescope")
    methods = [node.name for node in telescope.body if isinstance(node, ast.FunctionDef)]
    assert [name for name in methods if name.startswith("capture")] == ["capture_records"]
    pcap = ast.parse((SRC / "net" / "pcap.py").read_text())
    writers = {
        definition.name
        for definition in ast.walk(pcap)
        if isinstance(definition, ast.FunctionDef)
        for call in ast.walk(definition)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "open"
        and set(open_mode(call)) & set("wax+")
    }
    assert writers == {"write_records"}


def test_one_backscatter_writer():
    """Only the QUIC victim has a responder class; the one-record TCP and
    ICMP answers are written by ``flood_records`` alone, so no second copy
    of them is left to hold equal to it."""
    writers = [
        node.name
        for path in sorted((SRC / "telescope").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(method, ast.FunctionDef) and method.name == "respond_records"
            for method in node.body
        )
    ]
    assert writers == ["QuicVictimResponder"]


def open_mode(call: ast.Call) -> str:
    """The mode string of an ``open(...)`` call (``"r"`` when omitted)."""
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    return "r" if mode is None else ast.literal_eval(mode)
