import hashlib
import multiprocessing
import os
import time
from collections import Counter
from functools import cached_property, partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nakayama.filtration
import nakayama.homology
import nakayama.verify
from nakayama import (
    CYCLIC,
    INFINITE,
    LINEAR,
    HomologyReport,
    KupischSeries,
    RelationSystem,
    census,
    enumerate_cyclic,
    enumerate_linear,
    epsilon,
    epsilon_tower,
    homology_report,
    is_chain,
    kupisch_to_relations,
    validate,
)
from nakayama.core import _relation_pairs
from nakayama.enumeration import _cyclic_with_first, _is_chain_c, _linear_series
from nakayama.errors import InternalError, NakayamaError
from nakayama.filtration import TERMINAL_LINEAR, TERMINAL_SELFINJECTIVE, _reduce
from nakayama.homology import _module_table, _quasi_hereditary, pd_simples
from nakayama.verify import (SUITES, run_suites, _SUITES, _lazy, _Profile, _shards, _sweep_shard,
                             _SUITE_FUNCTIONS)

from conftest import cyclic_series, enumerated_series, stand_in
from oracles import oracle_is_chain, oracle_relations


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_is_a_documented_module_function(name):
    attribute = "suite_" + name.replace("-", "_")
    suite = getattr(nakayama.verify, attribute)
    assert suite is _SUITE_FUNCTIONS[name]
    assert suite.__name__ == attribute and suite.__module__ == "nakayama.verify"
    assert suite.__doc__


def test_the_inequality_suite_states_every_bound_it_checks():
    # check_inequalities reports the interval bound, the sink bound and Gustafson's bound;
    # the statement in _SUITES is also the suite function's docstring
    statement = _SUITES["generalized-inequality"][0]
    assert all(bound in statement for bound in ("lambda_c", "n - 1", "2n - 2")), statement


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_clean_on_small_range(name):
    detail, violations = _SUITE_FUNCTIONS[name](4)
    assert violations == []
    assert detail


def test_run_suites_merges_in_order():
    results = run_suites(["fibonacci", "chain"], 4)
    assert list(results) == ["fibonacci", "chain"]
    details, violations = results["fibonacci"]
    assert [d.split(":")[0] for d in details] == ["n=2", "n=3", "n=4"]
    assert violations == []


def test_run_suites_parallel_equals_serial():
    serial = run_suites(["fibonacci", "epsilon"], 4, jobs=1)
    parallel = run_suites(["fibonacci", "epsilon"], 4, jobs=3)
    assert serial == parallel


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(["bogus"], 3)


def test_run_suites_rejects_an_empty_list_and_jobs_below_one():
    with pytest.raises(ValueError, match="no theorems selected"):
        run_suites([], 3)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_suites(["chain"], 3, jobs=0)


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_function_rejects_n_below_two(name):
    # below n = 2 there is no algebra to sweep, which would read as a clean pass
    for n in (1, 0):
        with pytest.raises(NakayamaError, match=rf"^vertex count must be in 2\.\.64, got {n}$"):
            _SUITE_FUNCTIONS[name](n)


def test_run_suites_rejects_n_max_below_two_before_the_names():
    # below n = 2 there is no algebra to sweep, which would read as a clean pass
    for names in (SUITES, [], ["bogus"]):
        with pytest.raises(NakayamaError, match=r"vertex count must be in 2\.\.64, got 1"):
            run_suites(names, 1)


@pytest.mark.parametrize("call", [
    *(pytest.param(partial(_SUITE_FUNCTIONS[name], 65), id=f"{name}-65") for name in SUITES),
    pytest.param(partial(census, range(2, 10**20), CYCLIC), id="census-n-beyond-any-list"),
    pytest.param(partial(run_suites, ["chain"], 3, cap=10**15), id="run_suites-cap"),
    pytest.param(partial(census, [3], CYCLIC, cap=10**15), id="census-cap"),
])
def test_each_oversized_sweep_is_refused_within_a_second(call):
    # past the limits the work grows without bound; the refusal comes before any of it
    start = time.process_time()
    with pytest.raises(NakayamaError, match=r"^(vertex count must be in 2\.\.64, got 65|"
                                             r"cap must be at most 127, got 10{15})$"):
        call()
    assert time.process_time() - start < 1


@pytest.mark.parametrize("call, cap", [
    (lambda cap: next(enumerate_cyclic(3, cap)), 1),  # a generator: it checks on the first next
    (lambda cap: _shards(3, cap), 0),
    (lambda cap: run_suites(["chain"], 3, cap=cap), -5),
    (lambda cap: census([3], CYCLIC, cap), 1),
], ids=["enumerate_cyclic", "_shards", "run_suites", "census"])
def test_a_cap_below_two_is_refused(call, cap):
    # no entry fits it; raised to 2, as it once was, it lists entries above the cap given
    with pytest.raises(NakayamaError, match=rf"^cap must be at least 2, got {cap}$"):
        call(cap)


@pytest.mark.parametrize("ns, kind", [(range(2, 2), CYCLIC), ([], LINEAR)])
def test_census_refuses_an_empty_range_of_n(ns, kind):
    # an empty table, with no rows and no violations, would read as a clean census
    with pytest.raises(NakayamaError, match="^no vertex count to census$"):
        census(ns, kind)


@pytest.mark.parametrize("n", range(2, 8))
def test_shards_concatenate_to_the_enumeration(n):
    for cap in (None, 2, 3, n, 2 * n + 2):
        shards = _shards(n, cap)
        cyclic = [first for kind, first in shards if kind == CYCLIC]
        assert [kind for kind, _ in shards] == [CYCLIC] * len(cyclic) + [LINEAR]
        concatenated = [c for first in cyclic for c in _cyclic_with_first(n, first)]
        assert concatenated == [s.c for s in enumerate_cyclic(n, cap)]


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces multiprocessing.Pool; returns the pool sizes and the shard keys run."""
    sizes, ran = [], []

    class RecordingPool:
        """Stands in for multiprocessing.Pool and runs the tasks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize=1):
            ran.append([task[1:] for task in tasks])
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes, ran


def test_pool_runs_each_shard_once(recording_pool, monkeypatch):
    sizes, ran = recording_pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    shards = [(n, *shard) for n in range(2, 5) for shard in _shards(n)]
    expected = run_suites(SUITES, 4)
    assert run_suites(SUITES, 4, jobs=64) == expected
    assert run_suites(SUITES, 4, jobs=2) == expected
    assert sizes == [len(shards), 2]
    for tasks in ran:
        assert sorted(tasks) == sorted(shards)  # every shard exactly once
        # largest n first, and within an n the largest first entry first
        assert tasks == sorted(tasks, key=lambda key: (key[0], key[2]), reverse=True)


@pytest.mark.parametrize("affinity, cpu_count, jobs, size", [
    ({0, 1}, 64, 64, 2),  # the CPUs this process may run on, not those of the host
    ({3}, 64, 64, None),  # one usable CPU: no pool at all
    (None, 3, 64, 3),  # no affinity call on this platform: the CPU count
    (None, None, 64, None),  # and when that is unknown, one worker
])
def test_pool_is_capped_at_the_usable_cpus(recording_pool, monkeypatch,
                                           affinity, cpu_count, jobs, size):
    sizes, _ = recording_pool
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert run_suites(["chain"], 4, jobs=jobs) == run_suites(["chain"], 4)
    assert sizes == ([] if size is None else [size])


def test_pooled_violations_keep_enumeration_order(recording_pool, monkeypatch):
    # every algebra violates, so the merged list spells out the sweep order
    monkeypatch.setitem(nakayama.verify._SUITES, "chain",
                        (*_SUITES["chain"][:2], lambda p: [str(p)]))
    swept = [str(s) for n in range(2, 6) for s in (*enumerate_cyclic(n), *enumerate_linear(n))]
    for jobs in (1, 2):
        _, violations = run_suites(["chain"], 5, jobs=jobs)["chain"]
        assert violations == swept
    assert len(recording_pool[1]) == 1


@pytest.mark.parametrize("cap, jobs", [(None, 2), (4, 3)])
def test_real_pool_equals_serial(cap, jobs):
    assert run_suites(SUITES, 6, cap=cap, jobs=jobs) == run_suites(SUITES, 6, cap=cap)


@pytest.fixture(scope="module")
def all_suites_to_5():
    return run_suites(SUITES, 5)


@pytest.mark.parametrize("name", SUITES)
def test_suite_alone_equals_its_share_of_the_full_run(name, all_suites_to_5):
    assert run_suites([name], 5) == {name: all_suites_to_5[name]}


def test_one_homology_report_per_algebra(monkeypatch):
    ns = range(2, 6)
    swept = sum(1 for n in ns for _ in enumerate_cyclic(n)) + sum(
        1 for n in ns for _ in enumerate_linear(n)
    )
    # the epsilon suite also reports each component of a finite-gldim reduction
    components = sum(
        len(epsilon_tower(s).steps[0].components)
        for n in ns
        for s in enumerate_cyclic(n)
        if not s.is_selfinjective and homology_report(s).gldim != INFINITE
    )
    calls = []

    def counted(series, memo=None):
        calls.append(series)
        return homology_report(series, memo)

    for module in (nakayama.verify, nakayama.homology):
        monkeypatch.setattr(module, "homology_report", counted)
    run_suites(SUITES, 5)
    assert 0 < len(calls) <= swept + components


def test_census_digests():
    # CensusTable.to_json has no CLI route, so these bytes are pinned here and not in
    # pinned_outputs.txt: sha256 prefixes recorded before the verify suites, the census and the
    # syzygy, Brown-bound and interval arithmetic were consolidated
    tables = [census(range(2, 7), CYCLIC), census(range(2, 8), LINEAR)]
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest("".join(t.to_csv() for t in tables)) == "672ef6806c0cc567"
    assert digest("".join(t.to_json() for t in tables)) == "7655897e70b3c097"


@pytest.mark.parametrize("kind", [CYCLIC, LINEAR])
def test_census_reports_exactly_the_maximal_algebras(monkeypatch, kind):
    # an algebra whose gldim stays below Brown's bound is not maximal: no report for it
    calls = []

    def counted(series, pds=None):
        calls.append(series)
        return homology_report(series, pds)

    monkeypatch.setattr(nakayama.verify, "homology_report", counted)
    table = census(range(2, 7), kind)
    swept = [s for n in range(2, 7)
             for s in (enumerate_cyclic(n) if kind == CYCLIC else enumerate_linear(n))]
    reported = [(s.kind, s.c) for s in swept if homology_report(s).is_maximal]
    assert [(p.kind, p.c) for p in calls] == reported
    assert len(reported) == sum(table.counts().values())
    assert 0 < len(reported) < len(swept)


@pytest.mark.parametrize("kind", [CYCLIC, LINEAR])
def test_maximal_builds_a_report_iff_maximal(kind):
    # every enumerated series of the kind with n <= 8, cyclic ones also up to entries 3n + 1
    maximal = swept = 0
    for series in enumerated_series():
        if series.kind == kind and series.n <= 8:
            profile, report = _Profile(kind, series.c), homology_report(series)
            assert profile.maximal == report.is_maximal, series
            assert ("report" in profile.__dict__) == report.is_maximal, series
            maximal, swept = maximal + report.is_maximal, swept + 1
    assert 0 < maximal < swept


@pytest.mark.parametrize("kind", [CYCLIC, LINEAR])
def test_the_census_catches_a_gate_one_past_brown_bound(monkeypatch, kind):
    assert census(range(2, 7), kind).violations == []
    one_more = lambda kind, lambda_one: lambda_one + (kind == CYCLIC) + 1
    # the census gate's bound, the report's, and both: each is read from the one function
    for modules in ((nakayama.verify,), (nakayama.homology,), (nakayama.verify, nakayama.homology)):
        with monkeypatch.context() as patch:
            for module in modules:
                patch.setattr(module, "_brown_bound", one_more)
            assert census(range(2, 7), kind).violations, modules


def _with_a_gap(pds):
    """The pds of a line with gldim g, its pd g - 1 moved to g: a gap, or no 0 when g = 1."""
    return tuple(max(pds) if p == max(pds) - 1 else p for p in pds)


def test_the_census_checks_each_line_it_walks_for_gaps(monkeypatch):
    monkeypatch.setattr(nakayama.verify, "pd_simples", lambda s: _with_a_gap(pd_simples(s)))
    with pytest.raises(InternalError, match="has simple pds"):
        census(range(2, 5), LINEAR)


def test_the_census_checks_lines_it_builds_no_report_for(monkeypatch):
    def gapped(series):  # only a line below Brown's bound gets a gap; its gldim is unchanged
        pds = pd_simples(series)
        return pds if homology_report(series).is_maximal else _with_a_gap(pds)

    monkeypatch.setattr(nakayama.verify, "pd_simples", gapped)
    assert census(range(2, 5), LINEAR).violations == []  # every line with n <= 4 is maximal
    with pytest.raises(InternalError, match="has simple pds"):
        census([5], LINEAR)


def _swept(n_max):
    """The (kind, c) of every algebra that a sweep up to n_max checks."""
    return [(s.kind, s.c) for n in range(2, n_max + 1)
            for s in (*enumerate_cyclic(n), *enumerate_linear(n))]


def test_the_chain_predicate_runs_once_per_algebra(monkeypatch):
    calls, compute = [], _Profile.chain_violations.func
    counted = _lazy(lambda p: calls.append((p.kind, p.c)) or compute(p))
    counted.__set_name__(_Profile, "chain_violations")
    monkeypatch.setattr(_Profile, "chain_violations", counted)
    run_suites(SUITES, 6)  # chain and fibonacci both read it
    assert sorted(calls) == sorted(_swept(6)) and len(calls) == len(set(calls))


def test_lambda_counts_are_computed_once_per_swept_algebra_of_finite_gldim(monkeypatch):
    swept = _swept(6)
    finite = [(kind, c) for kind, c in swept
              if homology_report(KupischSeries(kind, c)).gldim != INFINITE]
    calls, compute = [], HomologyReport.lam.func
    counted = _lazy(lambda report: calls.append((report.kind, report.c)) or compute(report))
    counted.__set_name__(HomologyReport, "lam")
    monkeypatch.setattr(HomologyReport, "lam", counted)
    run_suites(SUITES, 6)
    assert sorted(calls) == sorted(finite) and len(calls) == len(set(calls))
    assert 0 < len(finite) < len(swept)  # and none for the algebras of infinite gldim


def test_one_report_per_swept_algebra_and_none_for_a_reduced_one(monkeypatch):
    calls = []

    def counted(series, pds=None):
        calls.append((series.kind, series.c))
        return homology_report(series, pds)

    monkeypatch.setattr(nakayama.verify, "homology_report", counted)
    run_suites(SUITES, 6)  # epsilon reads the gldim of every reduced algebra
    assert sorted(calls) == sorted(_swept(6)) and len(calls) == len(set(calls))


def test_maximal_reads_a_built_report(monkeypatch):
    calls = []
    monkeypatch.setattr(nakayama.verify, "_quasi_hereditary", calls.append)
    for c in ((3, 4, 4), (3, 2, 2)):  # not quasi-hereditary; maximal
        profile = _Profile(CYCLIC, c)
        report = profile.report
        assert profile.maximal == report.is_maximal == (c == (3, 2, 2))
    assert calls == []


def test_a_full_sweep_reads_no_quasi_heredity_from_c(monkeypatch):
    calls = []

    def counted(series):
        calls.append(series)
        return _quasi_hereditary(series)

    monkeypatch.setattr(nakayama.verify, "_quasi_hereditary", counted)
    run_suites(SUITES, 6)
    assert calls == []  # sconnected-qh runs first and builds every report
    run_suites(["fibonacci"], 6)
    assert len(calls) > 0


def test_census_checks_every_n_before_it_sweeps_any(monkeypatch):
    calls = []

    def counted(*task):
        calls.append(task)
        return _sweep_shard(*task)

    monkeypatch.setattr(nakayama.verify, "_sweep_shard", counted)
    with pytest.raises(NakayamaError, match=r"vertex count must be in 2\.\.64, got 1"):
        census([7, 1], CYCLIC)
    start = time.process_time()
    with pytest.raises(NakayamaError, match=r"vertex count must be in 2\.\.64, got 65"):
        census([7, 65], CYCLIC)
    assert time.process_time() - start < 1
    assert calls == []


def test_maximal_but_not_chain_is_reported_once_by_each_route(monkeypatch):
    flipped = (3, 2, 2)  # maximal at n = 3
    monkeypatch.setattr(nakayama.verify, "_is_chain_c", lambda kind, c: _is_chain_c(kind, c) != (
        c == flipped))
    text = "[3,2,2]: maximal=True but chain=False"
    results = run_suites(["chain", "fibonacci"], 3)
    assert results["chain"][1].count(text) == 1
    assert results["fibonacci"][1].count(text) == 1
    assert census([3], CYCLIC).violations.count(text) == 1


def test_the_census_builds_relation_pairs_only_for_its_maximal_classes(monkeypatch):
    # the chain flag reads c and the gate reads lambda_1 from the pds, so only the tally of the
    # maximal classes, which records their r, lists relations: F_12 = 144 of 2,272 classes
    calls = []
    monkeypatch.setattr(nakayama.verify, "_relation_pairs",
                        lambda c: calls.append(c) or _relation_pairs(c))
    table = census([7], CYCLIC)
    assert table.violations == [] and table.counts() == {7: 144}
    assert len(calls) == len(set(calls)) == 144
    assert len(list(enumerate_cyclic(7))) == 2272


_PROFILE_FIELDS = ("is_selfinjective", "table", "pds", "report", "maximal", "relations", "r",
                   "chain_violations", "step", "terminal")


def test_lazy_fields_read_on_the_class_are_their_descriptors():
    for name in _PROFILE_FIELDS:
        assert isinstance(getattr(_Profile, name), _lazy)


def test_each_profile_field_is_computed_once(monkeypatch):
    calls = []  # (profile, field); keeps every profile alive, so ids are not reused
    for name in _PROFILE_FIELDS:
        counted = _lazy(lambda p, name=name, compute=getattr(_Profile, name).func:
                        calls.append((p, name)) or compute(p))
        counted.__set_name__(_Profile, name)
        monkeypatch.setattr(_Profile, name, counted)
    profile = _Profile(CYCLIC, (4, 4, 3), tabled=True)  # reduces to [2,3]
    first = [getattr(profile, name) for name in _PROFILE_FIELDS]
    assert all(getattr(profile, name) is value for name, value in zip(_PROFILE_FIELDS, first))
    assert [name for p, name in calls if p is profile] == list(_PROFILE_FIELDS)
    assert len(profile.reduced) >= 1 and max(Counter(calls).values()) == 1


def test_a_sweep_runs_once_however_often_it_is_read(monkeypatch):
    unpatched, calls = run_suites(SUITES, 4), []

    def counted(*task):
        calls.append(task[1:])  # (n, kind, first entry)
        return _sweep_shard(*task)

    monkeypatch.setattr(nakayama.verify, "_sweep_shard", counted)
    for name, suite in list(_SUITE_FUNCTIONS.items()):
        monkeypatch.setitem(_SUITE_FUNCTIONS, name, lambda n, *rest, name=name, suite=suite:
                            calls.append((name, n)) or suite(n, *rest))
    assert run_suites(SUITES, 4) == unpatched
    # each n's shards are swept once, inside its first suite call and not before it
    assert calls == [event for n in range(2, 5) for event in (
        (SUITES[0], n), *((n, *shard) for shard in _shards(n)), *((s, n) for s in SUITES[1:]))]


def test_one_module_table_per_algebra_and_none_unread(monkeypatch):
    calls = []

    def counted(series):
        calls.append(series)
        return _module_table(series)

    monkeypatch.setattr(nakayama.verify, "_module_table", counted)
    run_suites(["sconnected-qh", "brown", "generalized-inequality", "parity", "chain",
                "fibonacci", "epsilon"], 5)
    assert calls == []  # only madsen reads the table
    run_suites(SUITES, 5)
    swept = sum(1 for n in range(2, 6) for _ in (*enumerate_cyclic(n), *enumerate_linear(n)))
    assert len(calls) == len(set(map(id, calls))) == swept


def _cyclic_shards(n_max):
    """(n, first entry, non-selfinjective series) of every cyclic shard up to n_max."""
    for n in range(2, n_max + 1):  # n = 1 has only the selfinjective (2,)
        for kind, first in _shards(n):
            if kind == CYCLIC:
                swept = (KupischSeries(CYCLIC, c) for c in _cyclic_with_first(n, first))
                yield n, first, [s for s in swept if not s.is_selfinjective]


def test_shard_profiles_give_the_tower_terminal_and_the_reduced_gldim():
    for _, _, swept in _cyclic_shards(7):
        reduced = {}  # one shard's reduced profiles
        for series in swept:
            profile = _Profile(series.kind, series.c, reduced=reduced)
            assert profile.terminal == epsilon_tower(series).terminal, series
            shared = [profile.of(k).report.gldim for k in profile.step]
            assert max(shared) == max(homology_report(k).gldim for k in epsilon(series).components)


def test_a_wrong_reduced_terminal_is_reported_for_every_algebra_reaching_it(monkeypatch):
    target = KupischSeries(CYCLIC, (2, 3))
    flip = {TERMINAL_LINEAR: TERMINAL_SELFINJECTIVE, TERMINAL_SELFINJECTIVE: TERMINAL_LINEAR}
    true_terminal = _Profile.terminal.func
    wrong = cached_property(
        lambda p: flip[true_terminal(p)] if (p.kind, p.c) == (target.kind, target.c)
        else true_terminal(p))
    wrong.__set_name__(_Profile, "terminal")
    monkeypatch.setattr(_Profile, "terminal", wrong)
    expected = []
    for _, _, swept in _cyclic_shards(6):
        for series in swept:
            tower = epsilon_tower(series)
            if any(step.is_cyclic and step.algebra == target for step in tower.steps):
                gldim = homology_report(series).gldim
                expected.append(f"{series}: terminal {flip[tower.terminal]} but gldim {gldim}")
    # far more algebras than shards reach it, so most read the stored terminal
    assert len(expected) > 2 * sum(1 for _ in _cyclic_shards(6))
    assert run_suites(["epsilon"], 6)["epsilon"][1] == expected


@pytest.fixture
def reductions(monkeypatch):
    """The (kind, c) of each algebra that ``verify`` reduces, in call order."""
    calls = []

    def counted(series):
        calls.append((series.kind, series.c))
        return _reduce(series)

    monkeypatch.setattr(nakayama.verify, "_reduce", counted)
    return calls


def test_each_reduced_algebra_is_reduced_and_reported_once_per_shard(monkeypatch, reductions):
    reports = []

    def counted(series, pds=None):
        reports.append((series.kind, series.c))
        return homology_report(series, pds)

    monkeypatch.setattr(nakayama.verify, "homology_report", counted)
    saved = 0
    for n, first, swept in _cyclic_shards(6):
        del reductions[:], reports[:]
        _sweep_shard(SUITES, n, CYCLIC, first)
        assert max(Counter(reductions).values(), default=1) == 1
        assert max(Counter(reports).values()) == 1
        saved += sum(epsilon_tower(s).depth for s in swept) - len(reductions)
    assert saved > 0  # the towers share their tails


def test_a_shard_swept_again_does_the_same_work(reductions):
    once = _sweep_shard(SUITES, 6, CYCLIC, 5)
    work = len(reductions)
    _sweep_shard(SUITES, 6, CYCLIC, 7)
    del reductions[:]
    again = _sweep_shard(SUITES, 6, CYCLIC, 5)
    assert len(reductions) == work  # nothing reduced before is remembered
    assert once == again


def test_one_epsilon_per_swept_algebra_and_per_reduced_class_in_a_shard(reductions):
    for n, first, swept in _cyclic_shards(6):
        del reductions[:]
        _sweep_shard(SUITES, n, CYCLIC, first)
        # one each, in sweep order
        assert [r for r in reductions if len(r[1]) == n] == [(s.kind, s.c) for s in swept]
        reduced = [(kind, c) for kind, c in reductions if len(c) < n]  # fewer vertices
        assert all(kind == CYCLIC for kind, _ in reduced) and len(set(reduced)) == len(reduced)
    for n in range(2, 7):
        del reductions[:]
        _sweep_shard(SUITES, n, LINEAR, 0)
        assert reductions == []


def test_sweep_relations_are_valid_by_construction():
    # the sweep reads the relation starts from c without building a RelationSystem; the
    # one-vertex line, which no enumeration reaches, has c_1 = 1 and no stored relation
    for series in [validate(LINEAR, (1,)), *enumerated_series()]:
        profile = _Profile(series.kind, series.c)
        pairs = tuple(profile.relations)
        assert pairs == oracle_relations(series) == kupisch_to_relations(series).relations
        system = RelationSystem(series.kind, series.n, pairs)  # validates
        assert profile.r == system.r, series
        assert is_chain(profile) == is_chain(system) == oracle_is_chain(system), series


@pytest.mark.parametrize("n", range(2, 9))
def test_shard_generators_yield_valid_series_that_enumerate_wraps(n):
    # the sweep reads these tuples unvalidated: their validity is checked here, not assumed
    for cap in (None, 2, 2 * n + 2) if n <= 6 else (None,):
        yielded = [(kind, c) for kind, first in _shards(n, cap) for c in
                   (_cyclic_with_first(n, first) if kind == CYCLIC else _linear_series(n))]
        for kind, c in yielded:
            KupischSeries(kind, c)  # raises unless c is valid as its kind
        wrapped = [*enumerate_cyclic(n, cap), *enumerate_linear(n)]
        assert yielded == [(s.kind, s.c) for s in wrapped]


def _check_reductions(series):
    """Each (kind, c) the sweep's ``_reduce`` gives down the tower of ``series`` is valid as
    its kind and is ``epsilon``'s component; returns how many were checked."""
    checked = 0
    while not series.is_selfinjective:
        components = _reduce(series)
        for kind, c in components:
            KupischSeries(kind, c)  # raises unless c is valid as its kind
        assert [(k.kind, k.c) for k in epsilon(series).components] == list(components), series
        checked += len(components)
        if components[0][0] != CYCLIC:
            break
        series = KupischSeries(*components[0])
    return checked


def test_reduced_components_are_valid_series():
    swept = [s for n in range(1, 9) for s in enumerate_cyclic(n) if not s.is_selfinjective]
    assert sum(map(_check_reductions, swept)) > len(swept)


@given(st.integers(min_value=2, max_value=12).flatmap(
    lambda n: cyclic_series(min_n=n, max_n=n, max_entry=3 * n + 1)))
@settings(max_examples=200)
def test_reduced_components_of_drawn_series_are_valid_series(series):
    assume(not series.is_selfinjective)
    assert _check_reductions(series) > 0


def test_a_sweep_builds_no_kupisch_series(monkeypatch):
    built = []
    post_init = KupischSeries.__post_init__
    monkeypatch.setattr(KupischSeries, "__post_init__",
                        lambda series: built.append(series.c) or post_init(series))
    KupischSeries(CYCLIC, (3, 2, 2))
    assert built == [(3, 2, 2)]  # the counter is live
    built.clear()
    run_suites(SUITES, 6)
    for kind in (CYCLIC, LINEAR):
        census(range(2, 7), kind)  # the chain route included
    assert built == []


# Each violation text, driven once through its suite's predicate on a profile
# whose report, table or relations were changed to break the theorem.

@pytest.mark.parametrize("name, series, changes, expected", [
    ("sconnected-qh", validate(CYCLIC, (2, 2, 2)), {"quasi_hereditary": True},
     ["[2,2,2]: infinite gldim but quasi-hereditary"]),
    ("sconnected-qh", validate(LINEAR, (2, 2, 1)), {"quasi_hereditary": False},
     ["[2,2,1]: s_connected=True != quasi_hereditary=False"]),
    ("brown", validate(LINEAR, (2, 2, 1)), {"gldim": 3}, ["[2,2,1]: gldim 3 > 2"]),
    ("generalized-inequality", validate(LINEAR, (3, 2, 1)), {"gldim": 3}, [
        "[3,2,1]: gldim 3 > 0 + lambda_0 = 2",
        "[3,2,1]: gldim 3 > 0 + lambda_1 = 1",
        "[3,2,1]: gldim 3 > n - 1 = 2",  # and no Brown line: that bound is brown's alone
    ]),
    ("parity", validate(LINEAR, (2, 2, 2, 1)),
     {"pd_simple": (0, 4, 1, 0), "gldim": 4, "o_set": (0, 1, 4)}, [
        "[2,2,2,1]: odd value 3 <= gldim 4 not attained",
        "[2,2,2,1]: even value 2 not interpolated",
    ]),
    ("epsilon", validate(CYCLIC, (3, 2, 2)), {"gldim": 5},
     ["[3,2,2]: gldim 5 but reduced gldim 1"]),
    ("epsilon", validate(CYCLIC, (3, 2, 2)), {"quasi_hereditary": False},
     ["[3,2,2]: quasi-heredity disagrees with reduction shape"]),
])
def test_each_report_check_words_its_violation(name, series, changes, expected):
    profile = _Profile(series.kind, series.c)
    profile.report = stand_in(profile.report, **changes)
    assert _SUITES[name][2](profile) == expected


def test_madsen_words_its_violation():
    profile = _Profile(LINEAR, (3, 2, 1))
    profile.table[0][1] = 5  # pd M(1,2) = 5, above its factors' pds
    assert _SUITES["madsen"][2](profile) == ["[3,2,1]: fails at M(1,2)"]


def test_madsen_words_a_violation_below_its_factors():
    profile = _Profile(LINEAR, (3, 2, 2, 1))  # pd S_1 = 1, pd S_2 = 2
    profile.table[0][1] = 1  # pd M(1,2) = 1, below the largest of its factors' pds
    assert _SUITES["madsen"][2](profile) == ["[3,2,2,1]: fails at M(1,2)"]


def test_epsilon_words_a_reduction_of_the_wrong_size():
    profile = _Profile(CYCLIC, (3, 2, 2))  # reduces to 2 vertices
    profile.r = 3
    assert _SUITES["epsilon"][2](profile) == [
        "[3,2,2]: reduced algebra has 2 vertices, expected the relation count"]
