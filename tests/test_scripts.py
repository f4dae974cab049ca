import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from conftest import stand_in

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tower_survey(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tower_survey.py", "--n-max", "4"])
    return load_script("tower_survey")


def test_tower_survey_exits_0_when_towers_match(tower_survey, capsys):
    assert tower_survey.main() == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4
    assert "MISMATCHES" not in out


def test_tower_survey_exits_2_on_a_mismatch(tower_survey, monkeypatch, capsys):
    real = tower_survey.epsilon_tower

    def wrong_terminal(series):
        tower = real(series)
        if series.c == (3, 2, 2):  # finite gldim, so its true terminal is linear
            return stand_in(tower, terminal="selfinjective")
        return tower

    monkeypatch.setattr(tower_survey, "epsilon_tower", wrong_terminal)
    assert tower_survey.main() == 2
    lines = capsys.readouterr().out.splitlines()
    assert [("MISMATCHES 1" in line) for line in lines] == [False, False, True, False]


def test_tower_survey_cap_adds_only_infinite_global_dimension(tower_survey, monkeypatch, capsys):
    def survey(*cap):
        monkeypatch.setattr(sys, "argv", ["tower_survey.py", "--n-max", "4", *cap])
        assert tower_survey.main() == 0
        lines = capsys.readouterr().out.splitlines()[1:]  # n = 1 has only selfinjective classes
        assert not any("MISMATCHES" in line for line in lines)
        return ([int(line.split()[1]) for line in lines],
                [int(re.search(r"linear:(\d+)", line).group(1)) for line in lines])

    assert survey() == ([1, 8, 39], [1, 4, 15])
    assert survey("--cap", "12") == ([10, 29, 84], [1, 4, 15])


@pytest.mark.parametrize("name, n_max, message", [  # n_max: --n-max's value, then any more args
    pytest.param("fibonacci_census", "x", "invalid int value: 'x'", id="fibonacci_census"),
    pytest.param("tower_survey", "x", "invalid int value: 'x'", id="tower_survey"),
    # a range that sweeps nothing would read as a clean table
    ("fibonacci_census", "1", "--n-max must be at least 2, got 1"),
    ("fibonacci_census", "-4", "--n-max must be at least 2, got -4"),
    ("tower_survey", "0", "--n-max must be at least 1, got 0"),
    # a size past the library's limits, refused before any sweep
    ("fibonacci_census", "65", "vertex count must be in 2..64, got 65"),
    ("fibonacci_census", "99999999999999999999",
     "vertex count must be in 2..64, got 65"),  # the range stops at its first n past 64
    ("fibonacci_census", "7 --cap 1000000000000000",
     "cap must be at most 127, got 1000000000000000"),
    ("tower_survey", "6 --cap 1000000000000000", "cap must be at most 127, got 1000000000000000"),
])
def test_scripts_exit_1_on_a_usage_error(name, n_max, message, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--n-max", *n_max.split()])
    with pytest.raises(SystemExit) as exc:
        load_script(name).main()
    assert exc.value.code == 1  # 2 would read as a counterexample
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_fibonacci_census_exits_2_on_a_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fibonacci_census.py", "--n-max", "3"])
    script = load_script("fibonacci_census")
    real = script.census

    def disagreeing(ns, kind, cap=None):
        table = real(ns, kind, cap)
        last = dataclasses.replace(table.rows[-1], violations=("n=3 cyclic: planted",))
        return dataclasses.replace(table, rows=table.rows[:-1] + (last,))

    monkeypatch.setattr(script, "census", disagreeing)
    assert script.main() == 2
    captured = capsys.readouterr()
    assert "!! n=3 cyclic: planted" in captured.err and captured.out == ""


def test_fibonacci_census_out_writes_the_bytes_stdout_would_get(monkeypatch, capsys, tmp_path):
    script = load_script("fibonacci_census")
    monkeypatch.setattr(sys, "argv", ["fibonacci_census.py", "--n-max", "3"])
    assert script.main() == 0
    printed = capsys.readouterr().out
    out = tmp_path / "census.csv"
    monkeypatch.setattr(sys, "argv", ["fibonacci_census.py", "--n-max", "3", "--out", str(out)])
    assert script.main() == 0
    captured = capsys.readouterr()
    assert printed and out.read_bytes() == printed.encode()
    assert captured.out == ""
    assert f"wrote {out}" in captured.err.splitlines()
