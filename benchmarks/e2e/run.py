"""End-to-end benchmark driver: four workloads, per-layer attribution.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--reps R | --seconds S] [--trace [0|1]]
                                 [--quick] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --selftest

Prints every metric ``BENCHMARK.json`` declares, by name and with its unit,
checks the outputs and exits non-zero when a check fails.  Without
``--trace`` the end-to-end metrics are measured (tracing off); with it the
traced pass of ``layers.py`` reports the per-layer ones.  With
``--workload`` the last line of stdout is the one-object JSON result.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = 1
DEFAULT_SEED = 20210401
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: interpreter starts per run: a quarter of a second each and, for
#: ``report-day``, nearly all of ``setup_s``
STARTS = 5
PAPER_PACKETS = 92e6
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs from a checkout of the repo")

import workloads  # noqa: E402  (puts src/ on sys.path)
from workloads import WORKLOADS, quartiles  # noqa: E402


def declared() -> dict:
    """BENCHMARK.json is the one list of workloads, metrics, units, bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


class Capture:
    """The shared capture and the cross-path references, each built on
    first use in a temp dir inside the checkout, removed on exit."""

    def __init__(self, seed: int, hours: float) -> None:
        self.hours = hours
        self.config = workloads.scenario_config(seed, hours)
        self.parent = ROOT / ".e2e_tmp"
        self.parent.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.parent))
        self.path = str(self.dir / "capture.pcap")
        self.packets = None
        self.build_s: list = []
        self._references: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.parent.rmdir()
        except OSError:
            pass  # another run's temp dir is still in there

    def build(self, times: int) -> None:
        """Generate, stamp and write the capture, ``times`` times in all."""
        while len(self.build_s) < times:
            start = time.perf_counter()
            self.packets = workloads.build_pcap(self.path, self.config)
            self.build_s.append(time.perf_counter() - start)

    def reference(self, name: str) -> dict:
        """What the workload's output must equal, from another path over
        the same scenario: the fused lane for ``pcap-6h``, the exact-mode
        monitor for the two watch workloads."""
        mode = WORKLOADS[name].mode
        key = "alerts" if mode else "fused"
        if key not in self._references:
            scenario = workloads.Scenario(self.config)
            if mode:
                feed = workloads.read_pcap_batches(self.path, workloads.BATCH)
                exact = workloads.watch(scenario, feed, "exact")
                reference = {k: exact[k] for k in ("alerts", "alerts_digest")}
            else:
                reference = {"fused_digest": workloads.report_fused(scenario)["digest"]}
            self._references[key] = reference
        return self._references[key]


def run_child(spec: dict) -> dict:
    spec["spawned_at"] = time.time()
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child"],
        input=json.dumps(spec),
        stdout=subprocess.PIPE,
        text=True,
    )
    if child.returncode != 0:
        raise RuntimeError(f"{spec['workload']}: child exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def start_up_s() -> float:
    """Interpreter start and imports of a child that does nothing else."""
    return run_child({"workload": None})["import_s"]


def metric(unit: str, samples: list) -> dict:
    q1, median, q3 = quartiles(samples)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "samples": samples}


def measure(name: str, args, capture: Capture, bench: dict, host: dict) -> dict:
    """One workload in one fresh child: a result row."""
    reads_capture, _, cold = WORKLOADS[name]
    traced = bool(args.trace)
    # a traced pass reports no setup_s: set up once
    setups = 1 if traced else SETUPS
    spec = {
        "workload": name,
        "seed": args.seed,
        "hours": 1.0 if args.quick else 24.0,
        "capture_hours": capture.hours,
        "setups": setups,
        "trace": traced,
        "seconds": args.seconds,
        # sub-second repetitions: at least six warm ones after the cold one
        "reps": None if args.seconds else (max(args.reps, 7) if cold else args.reps),
    }
    if reads_capture or traced:
        capture.build(setups)
        spec.update(pcap=capture.path, pcap_packets=capture.packets)
    if reads_capture:
        spec["reference"] = capture.reference(name)
    result = run_child(spec)
    import_s = [result["import_s"]]
    if not traced:
        import_s += [start_up_s() for _ in range(STARTS - 1)]

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    row = {
        "schema": SCHEMA,
        "workload": name,
        "seed": args.seed,
        "quick": args.quick,
        "traced": traced,
        "reps": len(result["wall_s"]),
        "packets": result["packets"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"],
        **host,
    }
    wall = metric("s", result["wall_s"])
    row["detail"] = {
        "digest": result["digest"],
        "import_s": import_s,
        "child_setup_s": result["setup_s"],
        "pcap_build_s": capture.build_s if reads_capture else None,
        "batch_ms": result.get("batch_ms"),
        "wall_s": wall,
        "paper_month_hours": PAPER_PACKETS / (result["packets"] / wall["value"]) / 3600,
    }
    if traced:
        row["per_layer"] = {
            key: {"value": value, "unit": units[key]}
            for key, value in result["per_layer"].items()
        }
        row["detail"].update(
            traced_wall_s=result["traced_wall_s"],
            in_situ_self_s=result["in_situ_self_s"],
            accounted_share=result["accounted_share"],
        )
        row["spans"] = result["spans"]
        return row
    setup_s = statistics.median(import_s) + statistics.median(result["setup_s"])
    if reads_capture:
        setup_s += statistics.median(capture.build_s)
    row["end_to_end"] = {
        "setup_s": metric(units["setup_s"], [setup_s]),
        "throughput_pps": metric(
            units["throughput_pps"], [result["packets"] / wall for wall in result["wall_s"]]
        ),
        "peak_rss_mb": metric(units["peak_rss_mb"], [result["peak_rss_mb"]]),
    }
    return row


def metrics_of(row: dict) -> dict:
    return row["per_layer"] if row["traced"] else row["end_to_end"]


def show(row: dict) -> None:
    print(
        f"\n== {row['workload']}  seed={row['seed']}  packets={row['packets']:,}  "
        f"reps={row['reps']}  checks={row['attempted'] - row['failed']}/{row['attempted']}"
        f"{'  [quick]' if row['quick'] else ''}{'  [traced]' if row['traced'] else ''}"
    )
    for name, metric in metrics_of(row).items():
        spread = ""
        if len(metric.get("samples", ())) > 1:
            spread = f"   q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n={len(metric['samples'])}"
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}{spread}")
    if row["traced"]:
        detail = row["detail"]
        in_situ = ", ".join(f"{k} {v:.3f}" for k, v in detail["in_situ_self_s"].items())
        print(
            f"  (untraced wall_s {detail['wall_s']['value']:.4f}, traced {detail['traced_wall_s']:.4f}; "
            f"self seconds in the traced repetition: {in_situ}; the layers on its path, each "
            f"run alone, add up to {detail['accounted_share']:.1%} of the untraced wall_s)"
        )
    else:
        wall = row["detail"]["wall_s"]
        print(
            f"  (wall_s median {wall['value']:.4f}, q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}; "
            f"a paper month, 92M packets, in {row['detail']['paper_month_hours']:.2f} h at this rate)"
        )
        batch_ms = row["detail"]["batch_ms"]
        if batch_ms:
            print(
                f"  (process_batch p50 {batch_ms['p50']:.3f} ms, p95 {batch_ms['p95']:.3f} ms "
                f"over {batch_ms['n']} calls)"
            )
    for failure in row["failures"]:
        print(f"  FAILED {failure}")


def run(args) -> list:
    """Measure the requested workloads; returns the result rows."""
    bench, host = declared(), fingerprint()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    rows = []
    with Capture(args.seed, 0.25 if args.quick else 6.0) as capture:
        for name in names:
            row = measure(name, args, capture, bench, host)
            show(row)
            rows.append(row)
    if args.out:
        spans = {row["workload"]: row.pop("spans") for row in rows if "spans" in row}
        with open(args.out, "w") as handle:
            json.dump({"schema": SCHEMA, "rows": rows}, handle, indent=1)
        if spans:
            with open(Path(args.out).with_suffix(".spans.json"), "w") as handle:
                json.dump(spans, handle)
    return rows


def result_line(rows: list) -> str:
    """The one-object result a caller parses from the last line."""
    metrics = {}
    if len(rows) == 1:
        metrics = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics_of(rows[0]).items()
        }
    failed = sum(row["failed"] for row in rows)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(row["attempted"] for row in rows),
            "failed": failed,
            "metrics": metrics,
        }
    )


# -- compare ------------------------------------------------------------------


def load_rows(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema {document.get('schema')}, this tool reads {SCHEMA}")
    by_workload: dict = {}
    for row in document["rows"]:
        if not row["traced"]:
            by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def samples_of(rows: list, metric: str) -> list:
    """One value per run when the file holds several runs of a workload,
    else that run's own repetitions."""
    if len(rows) > 1:
        return [row["end_to_end"][metric]["value"] for row in rows]
    return rows[0]["end_to_end"][metric]["samples"]


def compare(path_a: str, path_b: str) -> int:
    """B against A per (workload, end-to-end metric): ``ok`` within the
    bound, ``worse`` beyond it, ``unresolved`` when either side's spread is
    wider than the bound (unless every B sample beats every A sample)."""
    a, b = load_rows(path_a), load_rows(path_b)
    quick = {row["quick"] for rows in (*a.values(), *b.values()) for row in rows}
    if len(quick) > 1:
        raise SystemExit("refusing to compare quick rows with full rows")
    verdicts = set()
    metrics = declared()["end_to_end"]
    print(f"{'workload':<18} {'metric':<15} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            sign = 1 if spec["better"] == "lower" else -1
            side_a, side_b = samples_of(a[workload], name), samples_of(b[workload], name)
            (a1, am, a3), (b1, bm, b3) = quartiles(side_a), quartiles(side_b)
            worse_by = sign * (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = max(sign * v for v in side_b) < min(sign * v for v in side_a)
            if spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > bound else "ok"
            verdicts.add(verdict)
            print(
                f"{workload:<18} {name:<15} {am:>12.6g} {bm:>12.6g} "
                f"{worse_by:>+9.1%} {bound:>6.0%}  {verdict}"
            )
    if not verdicts:
        raise SystemExit("the two files share no workload")
    return 1 if "worse" in verdicts else 2 if "unresolved" in verdicts else 0


# -- selftest -----------------------------------------------------------------


def tree() -> dict:
    """Every file of the checkout outside .git and bytecode caches, with its
    size and mtime."""
    found = {}
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in (".git", "__pycache__")]
        for name in files:
            path = os.path.join(directory, name)
            stat = os.stat(path)
            found[path] = (stat.st_size, stat.st_mtime_ns)
    return found


def selftest(args) -> int:
    """Quick untraced and traced runs on two seeds; asserts the output has
    exactly the declared metrics and leaves nothing behind but ``--out``."""
    bench = declared()
    expected = {
        False: sorted(m["name"] for m in bench["end_to_end"]),
        True: sorted(m["name"] for m in bench["per_layer"]),
    }
    for names in expected.values():
        assert all(NAME.match(name) for name in names), "metric name outside [A-Za-z0-9_.-]+"
        assert len(set(names)) == len(names), "metric declared twice"
    before = tree()
    outdir = ROOT / ".e2e_selftest"
    outdir.mkdir()
    try:
        for seed in (DEFAULT_SEED, 7):
            for trace in (0, 1):
                out = outdir / f"{seed}-{trace}.json"
                args = argparse.Namespace(
                    workload=None, seed=seed, reps=1, seconds=None,
                    trace=trace, quick=True, out=str(out),
                )  # fmt: skip
                for row in run(args):
                    where = f"{row['workload']} seed={seed} trace={trace}"
                    assert sorted(metrics_of(row)) == expected[bool(trace)], f"{where}: metric names"
                    assert row["failed"] == 0 and row["attempted"] > 0, f"{where}: {row['failures']}"
                    assert row["quick"] is True
                assert out.exists()
        assert not (ROOT / ".e2e_tmp").exists(), "temp capture not deleted"
    finally:
        shutil.rmtree(outdir)
    after = tree()
    assert after == before, f"files changed: {sorted(set(after.items()) ^ set(before.items()))}"
    print("\nselftest ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=5, help="timed repetitions per workload")
    parser.add_argument("--seconds", type=float, help="repeat for this long instead of --reps")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="1 h / 15 min inputs, one repetition")
    parser.add_argument("--out", help="write the result rows here (spans beside it)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return workloads.child_main()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args)
    if args.quick:
        args.reps = 1
    rows = run(args)
    print()
    print(result_line(rows))
    return 1 if any(row["failed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
