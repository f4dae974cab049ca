"""Tests of the benchmark itself.  Run from the repository root:

  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

import nakayama  # noqa: E402
from nakayama import CYCLIC, LINEAR, homology, validate, verify  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _copy_bench(target: Path):
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(BENCH, target / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_reference_digest_counts_as_failure(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["analyze"]["large-cyclic"][0]["digest"] = "0" * 16
    path.write_text(json.dumps(reference))

    result = _bench(tmp_path, "--workload", "analyze-mix", "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    # every cycle of the stream calls each large-entry series exactly once
    assert last["correct"] is False
    assert last["failed"] >= 1 and last["failed"] / last["attempted"] > 0
    assert "failed_frac 0.000000" not in result.stdout


def test_directory_without_the_program_exits_nonzero(tmp_path):
    _copy_bench(tmp_path)
    result = _bench(tmp_path, "--workload", "census", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert "{" not in result.stdout


def test_census_csv_is_the_census_script_table():
    csv, _ = workloads.census_outputs(((CYCLIC, range(2, 4)), (LINEAR, range(2, 7))))
    script = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fibonacci_census.py"), "--n-max", "3"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert script.stdout == csv


def test_recorder_sees_internal_calls_and_restores_bindings():
    series = validate(CYCLIC, (3, 4, 4))
    original = homology.homology_report
    post_init = nakayama.KupischSeries.__post_init__
    suite_table = dict(verify._SUITE_FUNCTIONS)
    classes = sum(1 for _ in nakayama.enumerate_cyclic(4))
    with Recorder() as recorder:
        homology.check_inequalities(series)  # calls homology_report inside the module
        verify.run_suites(["chain"], 3)  # reaches the suite through the dispatch table
        assert sum(1 for _ in nakayama.enumerate_cyclic(4)) == classes
    spans = recorder.spans
    assert spans["homology.check_inequalities"][0] == 1
    assert spans["homology.homology_report"][0] > 1
    assert spans["verify.suite_chain"][0] == 2
    assert spans["enumeration.enumerate_cyclic"][0] >= 1
    assert recorder.counts["core.KupischSeries.__post_init__"] > 0
    assert ("verify.suite_chain", "homology.homology_report") in recorder.edges
    for calls, total, own in spans.values():
        assert calls >= 1 and 0 <= own <= total + 1e-9
    assert homology.homology_report is original
    assert verify._SUITE_FUNCTIONS == suite_table
    assert nakayama.KupischSeries.__post_init__ is post_init


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert abs(run.percentile(values, 0.50) - cuts[49]) < 1e-12
    assert abs(run.percentile(values, 0.99) - cuts[98]) < 1e-12
    assert run.percentile([2.5], 0.99) == 2.5


def test_pool_schedule_hands_tasks_to_the_first_free_worker():
    assert layers.pool_schedule([1, 1, 1, 1], 2) == 2
    assert layers.pool_schedule([1, 1, 4], 2) == 5
    assert layers.pool_schedule([4, 1, 1], 2) == 4


def test_speed_sampler_probes_while_in_use_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    samples = []
    with speed.Sampler(samples, cpus=os.sched_getaffinity(0)):
        end = time.perf_counter() + 10 * speed.PERIOD
        while time.perf_counter() < end:
            pass
    taken = len(samples)
    time.sleep(2 * speed.PERIOD)
    assert taken >= 3 and len(samples) == taken
    assert all(s > 0 for s in samples) and speed.factor(samples) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
