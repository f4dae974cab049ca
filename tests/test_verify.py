import multiprocessing

import pytest

import nakayama.enumeration
import nakayama.homology
import nakayama.verify
from nakayama import INFINITE, enumerate_cyclic, enumerate_linear, epsilon_tower, homology_report
from nakayama.verify import SUITES, run_suites, _SUITE_FUNCTIONS


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


def test_pool_has_at_most_one_worker_per_n(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool and runs the tasks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    expected = run_suites(["chain"], 4)
    assert run_suites(["chain"], 4, jobs=64) == expected
    assert run_suites(["chain"], 4, jobs=2) == expected
    assert sizes == [3, 2]  # n = 2, 3, 4


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

    for module in (nakayama.verify, nakayama.homology, nakayama.enumeration):
        monkeypatch.setattr(module, "homology_report", counted)
    run_suites(SUITES, 5)
    assert 0 < len(calls) <= swept + components
