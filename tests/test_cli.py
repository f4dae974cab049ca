import json
import os
import subprocess
import sys
import time

import pytest

import nakayama.cli as cli_mod
import nakayama.verify as verify_mod
from conftest import run_child, run_with_stdout_closed
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


def test_enumerate_json_lists_the_kept_series(capsys):
    from nakayama import enumerate_cyclic, homology_report

    code, out, _ = run(capsys, "enumerate", "-n", "4", "--cyclic", "--filter", "qh",
                       "--format", "json", "--list")
    kept = [list(s.c) for s in enumerate_cyclic(4) if homology_report(s).quasi_hereditary]
    assert code == 0 and 0 < len(kept)
    assert json.loads(out) == {"count": len(kept), "filter": "qh", "kind": "cyclic", "n": 4,
                               "series": kept}


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


@pytest.mark.parametrize("error", [InternalError, ValueError, KeyError])
def test_internal_error_exits_3(capsys, monkeypatch, error):
    # any exception but an input error is a bug: its traceback, then one last line, on stderr
    def broken(series):
        raise error("invariant broken")

    monkeypatch.setattr(cli_mod, "homology_report", broken)
    code, out, err = run(capsys, "analyze", "--cyclic", "3,4,4")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):") and "in broken" in err
    assert err.splitlines()[-1] == f"internal error: {error('invariant broken')}"


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


@pytest.mark.parametrize("argv, message", [
    (("verify", "--n-max", "1"), "vertex count must be in 2..64, got 1"),
    (("convert", "--relations", "1:2", "--cyclic"), "--relations needs the vertex count -n"),
    (("convert", "--cyclic", "--relations", "1:2", "-n", "99999999999999999999"),
     "vertex count 99999999999999999999 exceeds the limit 10000000"),
    # a vertex count that fits a list's length but not memory
    (("convert", "--cyclic", "--relations", "1:2", "-n", "9223372036854775806"),
     "vertex count 9223372036854775806 exceeds the limit 10000000"),
    # sweeps past the limit are refused before anything is enumerated or any task is built
    (("enumerate", "--linear", "-n", "99999999999999999999"),
     "vertex count must be in 2..64, got 99999999999999999999"),
    (("enumerate", "--cyclic", "-n", "1500"), "vertex count must be in 2..64, got 1500"),
    (("verify", "--n-max", "99999999999999999999"),
     "vertex count must be in 2..64, got 99999999999999999999"),
    # a cap past the limit is refused before any shard list of its length is built
    (("verify", "--n-max", "3", "--cap", "1000000000000000"),
     "cap must be at most 127, got 1000000000000000"),
    (("enumerate", "--cyclic", "-n", "3", "--cap", "1000000000000000"),
     "cap must be at most 127, got 1000000000000000"),
    # a cap below 2 fits no entry; raised to 2, it would list entries above the cap given
    (("enumerate", "--cyclic", "-n", "3", "--cap", "1", "--list"), "cap must be at least 2, got 1"),
    (("verify", "--n-max", "3", "--cap", "-5"), "cap must be at least 2, got -5"),
])
def test_each_usage_error_exits_1_with_its_message(capsys, argv, message):
    start = time.process_time()
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert time.process_time() - start < 1


def test_convert_answers_in_time_linear_in_n(capsys):
    # one relation (1, 2) leaves c_2 = n + 1 down to c_1 = 2; the greatest rotation starts at
    # vertex 2, found by a linear scan where the n rotations' max was quadratic
    n = 100_000
    start = time.process_time()
    code, out, _ = run(capsys, "convert", "--cyclic", "--relations", "1:2", "-n", str(n))
    assert time.process_time() - start < 2
    assert (code, out) == (0, ",".join(map(str, range(n + 1, 1, -1))) + "\n")


def test_convert_requires_exactly_one_input(capsys):
    assert run(capsys, "convert", "--cyclic")[0] == 1
    assert run(capsys, "convert", "--cyclic", "--kupisch", "3,2,2",
               "--relations", "1:2", "-n", "3")[0] == 1


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

# for the top level and each subcommand: --help, a missing required argument and an invalid
# choice (convert has no choices, so an invalid int there)
@pytest.mark.parametrize("argv", [
    ["--help"], [], ["frobnicate"],
    ["analyze", "--help"], ["analyze", "--cyclic"],
    ["analyze", "--cyclic", "3,4,4", "--format", "xml"],
    ["enumerate", "--help"], ["enumerate", "--cyclic"],
    ["enumerate", "--cyclic", "-n", "4", "--filter", "odd"],
    ["verify", "--help"], ["verify"], ["verify", "--n-max", "3", "--format", "xml"],
    ["convert", "--help"], ["convert"], ["convert", "--cyclic", "-n", "four"],
])
def test_main_prints_the_full_parsers_help_and_usage_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli_mod.build_parser().parse_args(argv)
    expected = (exit_.value.code, *capsys.readouterr())
    built, build = [], cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser",
                        lambda command: built.append(command) or build(command))
    assert run(capsys, *argv) == expected
    assert built == [argv[0] if argv and argv[0] != "--help" else None]


@pytest.mark.parametrize("argv", [
    ["analyze", "--linear", "2,2,2,1", "--format", "json"],
    ["enumerate", "--linear", "-n", "5", "--cap", "6", "--filter", "qh", "--list"],
    ["verify", "--theorems", "fibonacci,chain", "--n-max", "5", "--cap", "4"],
    ["convert", "--linear", "--kupisch", "3,2,1"],
    # the four CLI runs of CI's stdlib-only step
    ["verify", "--n-max", "5", "--jobs", "2", "--format", "csv"],
    ["analyze", "--cyclic", "3,4,4"],
    ["enumerate", "--cyclic", "-n", "5", "--filter", "maximal", "--list"],
    ["convert", "--cyclic", "--relations", "1:2;2:3", "-n", "3"],
])
def test_one_subcommands_parser_reads_its_argv_as_the_full_parser_does(argv):
    parsed = cli_mod.build_parser(argv[0]).parse_args(argv)
    assert vars(parsed) == vars(cli_mod.build_parser().parse_args(argv))


def test_the_console_entry_reads_sys_argv_and_builds_one_subcommand(capsys, monkeypatch):
    argv = ["analyze", "--cyclic", "3,4,4"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["nakayama", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli_mod.console()  # sys.exit(main()): main with argv None
    assert (exit_.value.code, *capsys.readouterr()) == expected
    subparsers = cli_mod.build_parser("analyze")._subparsers._group_actions[0].choices
    options = {name: [a.option_strings for a in p._actions] for name, p in subparsers.items()}
    assert len(options.pop("analyze")) > 1
    assert options == dict.fromkeys(("enumerate", "verify", "convert"), [["-h", "--help"]])


# ---------------------------------------------------------------------------
# the process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["enumerate", "--cyclic", "-n", "3"],  # one short line, first written by main's flush
    ["enumerate", "--linear", "-n", "9", "--filter", "maximal", "--list"],  # 11 kB, by print
])
def test_a_closed_stdout_exits_141_without_a_word(argv):
    child = run_with_stdout_closed("-m", "nakayama.cli", *argv)
    assert (child.returncode, child.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_1_with_one_line():
    # an output that cannot be written is not a bug: exit 1, not 3, and no traceback
    with open("/dev/full", "wb") as full:
        child = run_child("-m", "nakayama.cli", "enumerate", "--cyclic", "-n", "3",
                          stdout=full, stderr=subprocess.PIPE)
    assert (child.returncode, child.stderr) == (1, b"error: [Errno 28] No space left on device\n")


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a pooled verify run imports it
    code = "import sys, nakayama.cli; print('multiprocessing' in sys.modules)"
    assert run_child("-c", code, capture_output=True, text=True, check=True).stdout == "False\n"


def test_a_run_without_a_bug_leaves_traceback_unimported():
    # only main's handler of a bug imports it, to print the bug's traceback
    code = ("import sys, nakayama.cli as cli; codes = [cli.main(['convert', '--cyclic', *argv])"
            " for argv in (['--kupisch', '3,2,2'], ['--kupisch', '3,1'])];"
            " print(codes, 'traceback' in sys.modules)")
    child = run_child("-c", code, capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[-1] == "[0, 1] False"
