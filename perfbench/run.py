#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics, or a traced layer report.

Run from the repository root:

  python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): verify-serial, verify-parallel, census,
analyze-mix.  Each runs as a closed loop with one caller: operations run
back to back until the next one would end after ``--seconds`` (at least one
runs).  A sweep or census operation is one call; an analyze-mix operation is
one cycle of the seeded stream.

--trace 0 prints the end-to-end metrics, measured with tracing off and in
reference-machine units: on a shared host the same code runs up to twice as
slow from one phase to the next, so ``speed.py`` probes the machine every
20 ms on the workload's own thread (for verify-parallel on each core in
turn), and each call's wall time is divided by the slowdown the probes saw
during that call.  The raw figures are printed above the result line.
  throughput_per_s  algebras (sweeps, census) or analyses per second
  latency_p50_ms    median and p99 over calls (linear interpolation between
  latency_p99_ms    ranks); a sweep or census call is the whole operation
  setup_s           median of 9 fresh interpreters running ``import
                    nakayama.cli``, each scaled by its own probe
  peak_rss_mb       peak resident memory of the process doing the work (for
                    verify-parallel the largest process, pool workers included)
--trace 1 prints the per-layer metrics, in raw seconds: the layer probes of
``layers.py`` (the same on every workload) and, for the workload itself,
counters per algebra, the core and homology self times from a serial traced
pass of one operation, and the tracing overhead against an untraced pass of
the same work.  The full
per-module breakdown is printed above the result line and written, with
every span and counter, to ``.perfbench/trace-<workload>-<seed>.json``.

Every output is checked against ``reference.json``; a mismatch, a nonzero
exit or an exception counts as a failed operation (``failed`` and
``failed_frac``).  The last line of stdout is the JSON result.  Without
``src/nakayama`` next to this directory the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_PROBES = 40  # speed probe samples each fresh interpreter takes
TRACE_DIR = ROOT / ".perfbench"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``quantiles(method='inclusive')``)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def load_record(stage: str, record: dict) -> None:
    load = os.getloadavg()
    record[f"loadavg_{stage}"] = load
    if load[0] > record["nproc"]:
        print(f"warning: 1-minute load {load[0]:.2f} exceeds nproc {record['nproc']}"
              f" {stage} the run; timings are unreliable", file=sys.stderr)


# A fresh interpreter imports the package, then times the speed probe on its
# own core and reports how long it spent after the import, so that time can be
# taken off its wall time.
SETUP_CHILD = f"""
import nakayama.cli
import sys, time
start = time.perf_counter()
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import speed
factor = speed.factor([speed.sample() for _ in range({SETUP_PROBES})])
print(time.perf_counter() - start, factor)
"""


def measure_setup() -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import nakayama.cli, raw and in
    reference-machine seconds (each run scaled by its own speed factor)."""
    command = [sys.executable, "-c", SETUP_CHILD]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(command, env=env, cwd=ROOT, check=True,
                               capture_output=True, text=True)
        wall = time.perf_counter() - start
        tail, slow = map(float, child.stdout.split())
        raw.append(wall - tail)
        scaled.append((wall - tail) / slow)
    return statistics.median(raw), statistics.median(scaled)


class Tally:
    """Calls attempted and failed; prints the first failure's cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, expect):
        """Run fn() -> (code, output); count it failed unless expect(output) on exit 0."""
        self.attempted += 1
        try:
            code, out = fn()
            ok = code == 0 and expect(out)
        except Exception:  # the benchmark keeps going and reports the failure
            traceback.print_exc()
            ok = False
        if not ok:
            if not self.failed:
                print("error: an operation failed or differs from its reference",
                      file=sys.stderr)
            self.failed += 1
        return ok


def closed_loop(op, seconds: float) -> list:
    """Run op() back to back until the next run would end past ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        op()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + durations[-1] > seconds:
            return durations


class Workload:
    """One workload's operations, bound to the reference and a failure tally."""

    def __init__(self, name, seed, reference, tally, jobs):
        import workloads

        self.w = workloads
        self.name = name
        self.reference = reference
        self.tally = tally
        self.jobs = jobs if name == "verify-parallel" else 1
        self.latencies = []
        self.speed_samples = []  # filled by a speed.Sampler around the calls
        self.probe_spans = []  # speed_samples index range during each latency
        self.units = 0
        self.replay = []  # analyze-mix calls made, for the traced pass
        if name == "analyze-mix":
            self.cycles = workloads.analyze_stream(reference["analyze"], seed)

    def _timed_call(self, fn, expect):
        first = len(self.speed_samples)
        start = time.perf_counter()
        self.tally.call(fn, expect)
        self.latencies.append(time.perf_counter() - start)
        self.probe_spans.append((first, len(self.speed_samples)))

    def scaled_latencies(self) -> list:
        """Each latency divided by the speed factor of the probes taken during
        the call, or of the last probe before a call shorter than the period."""
        probes = self.speed_samples
        return [
            seconds / speed.factor(probes[first:last] or probes[first - 1:first])
            for seconds, (first, last) in zip(self.latencies, self.probe_spans)
        ]

    def op(self):
        w = self.w
        if self.name.startswith("verify"):
            expected = self.reference["verify"]["digest"]
            self._timed_call(lambda: w.call_cli(w.verify_argv(self.jobs)),
                             lambda out: w.digest(out) == expected)
            self.units += self.reference["verify"]["algebras"]
        elif self.name == "census":
            self._timed_call(self.census_call, self.census_expected)
            self.units += self.reference["census"]["algebras"]
        else:
            cycle = next(self.cycles)
            self.replay.extend(cycle)
            for entry in cycle:
                self.analyze_call(entry, timed=True)
            self.units += len(cycle)

    def census_call(self):
        return 0, self.w.census_outputs()

    def census_expected(self, outputs):
        ref = self.reference["census"]
        csv, js = map(self.w.digest, outputs)
        return (csv, js) == (ref["csv_digest"], ref["json_digest"])

    def analyze_call(self, entry, timed):
        argv = self.w.analyze_argv(entry["kind"], entry["c"])
        fn = lambda: self.w.call_cli(argv)  # noqa: E731
        expect = lambda out: self.w.digest(out) == entry["digest"]  # noqa: E731
        if timed:
            self._timed_call(fn, expect)
        else:
            self.tally.call(fn, expect)

    def traced_pass(self):
        """Repeat the work of the one operation run so far; the caller installs the recorder."""
        if self.name == "census":
            self.tally.call(self.census_call, self.census_expected)
        else:
            for entry in self.replay:
                self.analyze_call(entry, timed=False)


def end_to_end(args, reference, tally, record) -> dict:
    raw_setup_s, setup_s = measure_setup()
    workload = Workload(args.workload, args.seed, reference, tally, record["nproc"])
    cpus = os.sched_getaffinity(0) if workload.jobs > 1 else None
    with speed.Sampler(workload.speed_samples, cpus):
        durations = closed_loop(workload.op, args.seconds)
    raw = workload.latencies
    scaled = workload.scaled_latencies()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.jobs > 1 else resource.RUSAGE_SELF
    )
    if args.workload == "analyze-mix":
        record["kind_shares"] = workload.w.kind_shares()
    record["operations"] = len(durations)
    record["calls"] = len(raw)
    record["speed_factor"] = speed.factor(workload.speed_samples)
    record["speed_samples"] = len(workload.speed_samples)
    record["raw_throughput_per_s"] = workload.units / sum(durations)
    record["raw_p50_ms"] = 1000 * percentile(raw, 0.50)
    record["raw_p99_ms"] = 1000 * percentile(raw, 0.99)
    record["raw_setup_s"] = raw_setup_s
    return {
        "throughput_per_s": (workload.units / sum(scaled), "1/s"),
        "latency_p50_ms": (1000 * percentile(scaled, 0.50), "ms"),
        "latency_p99_ms": (1000 * percentile(scaled, 0.99), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),  # ru_maxrss is in KiB on Linux
    }


def per_layer(args, reference, tally, record) -> dict:
    import layers
    from layers import timed
    from tracing import MODULES, Recorder

    checks = []
    metrics = {}
    jobs = record["nproc"]
    probe = layers.verify_probe(reference, jobs, checks)
    spans = probe["recorder"].spans
    for name in layers.verify.SUITES:
        key = "verify.suite_" + name.replace("-", "_")
        metrics[f"verify.suite.{name}.self_s"] = (spans[key][2], "s")
    metrics["verify.pool.efficiency"] = (probe["efficiency"], "ratio")
    metrics["verify.pool.critical_path_s"] = (probe["critical_path_s"], "s")
    metrics["verify.pool.imbalance"] = (probe["imbalance"], "ratio")
    metrics["verify.pool.schedule_s"] = (probe["schedule_s"], "s")
    for name, seconds in layers.stage_probe(checks).items():
        metrics[name] = (seconds, "s")
    metrics["cli.self_s"] = (layers.cli_probe(checks).module_self()["cli"], "s")

    if args.workload.startswith("verify"):
        recorder, untraced_s, traced_s = probe["recorder"], probe["serial_s"], probe["traced_s"]
        units = reference["verify"]["algebras"]
    else:
        workload = Workload(args.workload, args.seed, reference, tally, 1)
        untraced_s = timed(workload.op)[0]
        with Recorder() as recorder:
            traced_s = timed(workload.traced_pass)[0]
        units = workload.units
    counts = recorder.counts
    metrics["homology.homology_report.calls_per_algebra"] = (
        recorder.spans.get("homology.homology_report", [0])[0] / units, "count")
    metrics["core.check_module.calls_per_algebra"] = (
        counts["core.check_module"] / units, "count")
    metrics["core.KupischSeries.constructions_per_algebra"] = (
        counts["core.KupischSeries.__post_init__"] / units, "count")
    metrics["tracing_overhead"] = (traced_s / untraced_s - 1, "ratio")
    module_self = recorder.module_self()
    for module in ("core", "homology"):
        metrics[f"{module}.self_s"] = (module_self[module], "s")
        metrics[f"{module}.share"] = (module_self[module] / traced_s, "ratio")

    print(f"# module self time, serial traced pass of {args.workload}"
          f" ({traced_s:.3f} s traced, {untraced_s:.3f} s untraced)")
    for module in MODULES:
        print(f"#   {module:<12} {module_self[module]:10.4f} s"
              f"  share {module_self[module] / traced_s:7.2%}")
    outside = traced_s - sum(module_self.values())
    print(f"#   {'(benchmark)':<12} {outside:10.4f} s  share {outside / traced_s:7.2%}")
    for name in ("core.check_module", "core.syzygy", "core.KupischSeries.__post_init__"):
        print(f"#   counter {name}: {counts[name]} ({counts[name] / units:.2f} per algebra)")

    failed_checks = [c for c in checks if c.startswith("FAIL")]
    tally.attempted += len(checks)
    tally.failed += len(failed_checks)
    for message in failed_checks:
        print(f"error: {message}", file=sys.stderr)
    record["units"] = units
    record["pool_tasks_s"] = {f"{name} n={n}": s for (name, n), s in probe["tasks"].items()}
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps({
        "record": record,
        "workload": recorder.to_dict(),
        "verify_probe": probe["recorder"].to_dict(),
    }, indent=1, sort_keys=True) + "\n")
    print(f"# trace written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-serial", "verify-parallel", "census", "analyze-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nakayama" / "__init__.py").is_file():
        print(f"error: no nakayama package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nakayama
    import workloads

    if Path(nakayama.__file__).resolve().parent != SRC / "nakayama":
        print(f"error: imported nakayama from {nakayama.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    load_record("before", record)
    reference = workloads.load_reference()
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, reference, tally, record)
    load_record("after", record)

    for key, value in record.items():
        if key != "pool_tasks_s":
            print(f"# {key}: {value}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6f} (of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
