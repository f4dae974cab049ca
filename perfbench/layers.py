"""Layer probes for the traced benchmark run.

stage_probe      each ROADMAP aim-1 stage timed alone over the fixed n = 8
                 cyclic set (8,845 classes), plus linear enumeration at n = 10
                 and the census chain route; gives the ``*.busy_s`` metrics.
verify_probe     the verify sweep at n <= 8 three ways: every (suite, n) task
                 timed untraced through the public ``suite_*`` functions, the
                 pooled sweep with ``--jobs`` = nproc, and the serial sweep
                 through the CLI under the recorder; gives the suite self
                 times and the pool decomposition.  Tasks are (suite, n)
                 pairs in ``run_suites`` order.
cli_probe        a fixed slice of the n = 8 cyclic set analyzed through the
                 CLI under the recorder; gives ``cli.self_s``.

Every probe checks what it computes and appends a message to ``checks``
for each check made; a failed check's message starts with "FAIL".
"""

from __future__ import annotations

import time

from nakayama import (
    CYCLIC,
    UniserialModule,
    base_set,
    check_madsen,
    count_closed_form,
    delta_filtration,
    enumerate_chains,
    enumerate_cyclic,
    enumerate_linear,
    epsilon_tower,
    homology_report,
    is_chain,
    kupisch_to_relations,
    projective_dimension,
    syzygy,
    verify,
)
from nakayama.homology import all_modules

import workloads
from tracing import Recorder

PROBE_N = 8
PROBE_CLASSES = 8845
PROBE_LINEAR_N = 10
PROBE_LINEAR_SERIES = 4862  # Catalan(9)
CLI_PROBE_STRIDE = 20  # every 20th class of the n = 8 set goes through the CLI


def check(checks: list, ok: bool, what: str) -> None:
    checks.append(what if ok else f"FAIL {what}")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _pd_all(algebras):
    for series in algebras:
        memo = {}
        for m in all_modules(series):
            projective_dimension(series, m, memo)


def _tile_second_syzygies(algebras):
    for series in algebras:
        basis = base_set(series)
        for v in range(1, series.n + 1):
            for length in range(1, series.c[v - 1] + 1):
                first = syzygy(series, UniserialModule(v, length))
                second = first and syzygy(series, first)
                if second is not None:
                    delta_filtration(series, second, basis)


def _chain_route():
    return sum(
        1
        for kind, ns in workloads.CENSUS_RANGES
        for n in ns
        for r in range(1, n)
        for chain in enumerate_chains(n, r, kind)
        if chain.to_kupisch()
    )


def stage_probe(checks: list) -> dict:
    """Seconds busy per stage, each stage run alone over the fixed input set."""
    busy = {}
    busy["enumeration.enumerate_cyclic.busy_s"], algebras = timed(
        lambda: list(enumerate_cyclic(PROBE_N))
    )
    check(checks, len(algebras) == PROBE_CLASSES, f"enumerate_cyclic({PROBE_N}) class count")
    busy["enumeration.enumerate_linear.busy_s"], linear = timed(
        lambda: sum(1 for _ in enumerate_linear(PROBE_LINEAR_N))
    )
    check(checks, linear == PROBE_LINEAR_SERIES, f"enumerate_linear({PROBE_LINEAR_N}) count")
    busy["homology.pd_all_modules.busy_s"], _ = timed(lambda: _pd_all(algebras))
    busy["homology.homology_report.busy_s"], _ = timed(
        lambda: [homology_report(s) for s in algebras]
    )
    busy["homology.check_madsen.busy_s"], bad = timed(
        lambda: [m for s in algebras for m in check_madsen(s)]
    )
    check(checks, not bad, "check_madsen finds no violation")
    busy["core.kupisch_to_relations.busy_s"], systems = timed(
        lambda: [kupisch_to_relations(s) for s in algebras]
    )
    busy["enumeration.is_chain.busy_s"], _ = timed(lambda: [is_chain(r) for r in systems])
    reducible = [s for s in algebras if not s.is_selfinjective]
    busy["filtration.epsilon_tower.busy_s"], _ = timed(
        lambda: [epsilon_tower(s) for s in reducible]
    )
    busy["filtration.delta_filtration.busy_s"], _ = timed(
        lambda: _tile_second_syzygies(reducible)
    )
    busy["enumeration.chain_route.busy_s"], chains = timed(_chain_route)
    expected = sum(
        count_closed_form(n, r, kind)
        for kind, ns in workloads.CENSUS_RANGES
        for n in ns
        for r in range(1, n)
    )
    check(checks, chains == expected, "chain route count equals the closed forms")
    return busy


def pool_schedule(durations, jobs: int) -> float:
    """Makespan when tasks go, in order, to the first free of ``jobs`` workers.

    This is how ``Pool.map`` with ``chunksize=1`` hands out the verify tasks,
    so it predicts the pooled wall time from the serial task times alone.
    """
    free = [0.0] * jobs
    for duration in durations:
        free[free.index(min(free))] += duration
    return max(free)


def verify_probe(reference: dict, jobs: int, checks: list) -> dict:
    """Suite self times and the pool decomposition of the n <= 8 sweep."""
    expected = reference["verify"]["digest"]
    tasks = {}
    results = {name: ([], []) for name in verify.SUITES}
    serial_start = time.perf_counter()
    for name in verify.SUITES:
        suite = getattr(verify, "suite_" + name.replace("-", "_"))
        for n in range(2, workloads.VERIFY_N_MAX + 1):
            tasks[(name, n)], (detail, violations) = timed(lambda: suite(n))
            results[name][0].append(f"n={n}: {detail}")
            results[name][1].extend(violations)
    serial_s = time.perf_counter() - serial_start
    check(checks, workloads.digest(workloads.verify_json(results)) == expected,
          "suite_* tasks reproduce the reference verify output")

    parallel_s, (code, out) = timed(lambda: workloads.call_cli(workloads.verify_argv(jobs)))
    check(checks, code == 0 and workloads.digest(out) == expected,
          f"verify --jobs {jobs} output")

    with Recorder() as recorder:
        traced_s, (code, out) = timed(lambda: workloads.call_cli(workloads.verify_argv(1)))
    check(checks, code == 0 and workloads.digest(out) == expected, "traced verify output")

    longest = max(tasks.values())
    return {
        "tasks": tasks,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "traced_s": traced_s,
        "recorder": recorder,
        "critical_path_s": longest,
        "schedule_s": pool_schedule(tasks.values(), jobs),
        "imbalance": longest / (sum(tasks.values()) / jobs),
        "efficiency": serial_s / (jobs * parallel_s),
    }


def cli_probe(checks: list) -> Recorder:
    """Recorder of a fixed slice of n = 8 cyclic analyses through the CLI."""
    picks = list(enumerate_cyclic(PROBE_N))[::CLI_PROBE_STRIDE]
    with Recorder() as recorder:
        codes = [workloads.call_cli(workloads.analyze_argv(CYCLIC, s.c))[0] for s in picks]
    check(checks, not any(codes), "cli probe analyses exit 0")
    return recorder
