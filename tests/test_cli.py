import json

import pytest

import nakayama.cli as cli_mod
import nakayama.verify as verify_mod
from nakayama.cli import main
from nakayama.errors import InternalError, NakayamaError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_worked_example(capsys):
    code, out, _ = run(capsys, "analyze", "--cyclic", "3,4,4")
    assert code == 0
    assert "gldim         4" in out
    assert "pd set        {1,3,4}" in out
    assert "s-connected   no" in out
    assert "quasi-hered.  no" in out
    assert "terminal linear" in out


def test_analyze_linear_example(capsys):
    code, out, _ = run(capsys, "analyze", "--linear", "2,2,2,1")
    assert code == 0
    assert "gldim         3" in out
    assert "lambda_1 = 3" in out
    assert "tower" not in out


def test_analyze_selfinjective(capsys):
    code, out, _ = run(capsys, "analyze", "--cyclic", "2,2")
    assert code == 0
    assert "gldim         inf" in out
    assert "selfinjective yes" in out


def test_analyze_bad_series_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "--cyclic", "2,3,1")
    assert code == 1
    assert "c_3" in err  # diagnostic names the violated constraint


def test_analyze_bad_flags_exit_1(capsys):
    assert run(capsys, "analyze", "3,4,4")[0] == 1  # kind flag missing
    assert run(capsys, "analyze", "--cyclic", "--linear", "2,1")[0] == 1


def test_analyze_json_deterministic(capsys):
    code, out1, _ = run(capsys, "analyze", "--cyclic", "3,4,4", "--format", "json")
    assert code == 0
    _, out2, _ = run(capsys, "analyze", "--cyclic", "3,4,4", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["report"]["gldim"] == 4
    assert payload["report"]["quasi_hereditary"] is False
    assert payload["canonical"] == [4, 4, 3]
    assert payload["tower"]["terminal"] == "linear"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_maximal_count(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "4", "--cyclic", "--filter", "maximal")
    assert code == 0
    assert out.strip() == "8"


def test_enumerate_maximal_list(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-n", "3", "--cyclic", "--filter", "maximal", "--list"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3"
    assert set(lines[1:]) == {"4,3,2", "5,4,3", "3,2,2"}


def test_enumerate_linear_maximal_list(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-n", "2", "--linear", "--filter", "maximal", "--list"
    )
    assert code == 0
    assert out.strip().splitlines() == ["1", "2,1"]


def test_enumerate_json(capsys):
    from nakayama import enumerate_cyclic, homology_report

    code, out, _ = run(
        capsys, "enumerate", "-n", "4", "--cyclic", "--filter", "qh", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    expected = sum(1 for s in enumerate_cyclic(4) if homology_report(s).quasi_hereditary)
    assert payload["count"] == expected
    assert payload["kind"] == "cyclic"


def test_enumerate_bad_n_exits_1(capsys):
    assert run(capsys, "enumerate", "-n", "1", "--cyclic")[0] == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fibonacci(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "fibonacci", "--n-max", "5")
    assert code == 0
    assert "fibonacci: ok" in out
    assert "cyclic 21 (F=21)" in out
    assert "linear 13 (F=13)" in out


def test_verify_sconnected_qh(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "sconnected-qh", "--n-max", "5")
    assert code == 0
    assert "sconnected-qh: ok" in out


def test_verify_brown_trivial_range(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "brown", "--n-max", "2")
    assert code == 0
    assert "brown: ok" in out


def test_verify_unknown_theorem_exits_1(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "nonsense", "--n-max", "3")
    assert code == 1
    assert "unknown suite" in err


def test_verify_violation_exits_2(capsys, monkeypatch):
    def broken(profile):
        return ["fake counterexample [9,9]"]

    monkeypatch.setitem(verify_mod._SUITES, "brown", (*verify_mod._SUITES["brown"][:2], broken))
    code, out, _ = run(capsys, "verify", "--theorems", "brown", "--n-max", "3")
    assert code == 2
    assert "fake counterexample [9,9]" in out


def test_verify_fibonacci_below_the_default_cap_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "fibonacci", "--n-max", "5",
                       "--cap", "4")
    assert code == 0
    assert "n=5: cyclic 7 (F=21); linear 13 (F=13)" in out


@pytest.mark.parametrize("theorems", [",", ""])
def test_verify_empty_theorem_list_exits_1(capsys, theorems):
    code, out, err = run(capsys, "verify", "--theorems", theorems, "--n-max", "3")
    assert code == 1
    assert out == ""
    assert "error: no theorems selected" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--theorems", "chain", "--n-max", "3", "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert "jobs must be at least 1" in err


def test_verify_jobs_do_not_change_output(capsys):
    _, seq, _ = run(capsys, "verify", "--theorems", "chain,fibonacci", "--n-max", "4",
                    "--jobs", "1")
    _, par, _ = run(capsys, "verify", "--theorems", "chain,fibonacci", "--n-max", "4",
                    "--jobs", "2")
    assert seq == par


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "fibonacci", "--n-max", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "suite,n_max,violations"
    assert "fibonacci,3,0" in out


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(series):
        raise InternalError("invariant broken")

    monkeypatch.setattr(cli_mod, "homology_report", broken)
    code, out, err = run(capsys, "analyze", "--cyclic", "3,4,4")
    assert code == 3
    assert out == ""
    assert "internal error: invariant broken" in err


def test_internal_errors_are_not_input_errors():
    assert not issubclass(InternalError, (NakayamaError, ValueError))


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_relations_to_kupisch(capsys):
    code, out, _ = run(capsys, "convert", "--relations", "1:2;2:3", "-n", "4", "--cyclic")
    assert code == 0
    assert out.strip() == "4,3,2,2"


def test_convert_kupisch_to_relations(capsys):
    code, out, _ = run(capsys, "convert", "--kupisch", "3,2,2", "--cyclic")
    assert code == 0
    assert out.strip() == "1:2;2:3"


def test_convert_path_algebra_empty_relations(capsys):
    code, out, _ = run(capsys, "convert", "--kupisch", "4,3,2,1", "--linear")
    assert code == 0
    assert out.strip() == ""


def test_convert_redundant_exits_1(capsys):
    code, _, err = run(capsys, "convert", "--relations", "1:3;2:3", "-n", "4", "--cyclic")
    assert code == 1
    assert "contains" in err


def test_convert_requires_exactly_one_input(capsys):
    assert run(capsys, "convert", "--cyclic")[0] == 1
    assert run(capsys, "convert", "--cyclic", "--kupisch", "3,2,2",
               "--relations", "1:2", "-n", "3")[0] == 1
