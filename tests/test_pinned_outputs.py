"""Outputs that must not change: every row of ``pinned_outputs.txt``, run and checked.

A row is ``name md5 python-arguments``; it holds when ``python arguments``,
run from the repository root with the checkout's ``src`` on PYTHONPATH,
exits 0 and writes stdout of that md5.  A changed digest is a changed
output somewhere: explain it, never regenerate the digest to pass.
"""

import hashlib
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import run_child

TABLE = Path(__file__).with_name("pinned_outputs.txt")
ROOT = TABLE.parent.parent


def read_table(text):
    """The rows of a table, each ``(name, md5, arguments)``; a malformed row, a name used twice
    or a table without rows raises ValueError."""
    rows = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) != 3 or not re.fullmatch("[0-9a-f]{32}", fields[1]):
            raise ValueError(f"line {number} is not `name md5 python-arguments`: {line!r}")
        if fields[0] in rows:
            raise ValueError(f"line {number} repeats the name {fields[0]!r}")
        rows[fields[0]] = tuple(fields)
    if not rows:
        raise ValueError("the table has no rows")
    return list(rows.values())


def run_rows(rows):
    """Each row's name -> its finished run, with at most as many runs at a time as usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(cpus or 1) as pool:
        runs = pool.map(lambda row: run_child(*row[2].split(), cwd=ROOT, capture_output=True), rows)
        return {row[0]: run for row, run in zip(rows, runs)}


def check(row, run):
    """Raise AssertionError unless ``run`` exited 0 with stdout of the row's md5."""
    name, digest, args = row
    assert run.returncode == 0, f"{name}: python {args} exited {run.returncode}\n{run.stderr.decode()}"
    assert hashlib.md5(run.stdout).hexdigest() == digest, f"{name}: python {args} changed its stdout"


ROWS = read_table(TABLE.read_text())


@pytest.fixture(scope="module")
def runs():
    return run_rows(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_pinned_output(runs, row):
    check(row, runs[row[0]])


@pytest.mark.parametrize("alone, suites", [
    ("verify9-census", "fibonacci,chain"),
    ("verify9-headline", "sconnected-qh,brown,generalized-inequality,parity,chain,fibonacci"),
])
def test_suites_run_alone_give_their_entries_of_the_full_sweep(runs, alone, suites):
    full = json.loads(runs["verify9"].stdout)
    entries = json.loads(runs[alone].stdout)
    assert sorted(entries) == sorted(suites.split(","))
    assert entries == {name: full[name] for name in entries}


KUPISCH = "-m nakayama.cli convert --kupisch 3,2,2 --cyclic"


@pytest.mark.parametrize("table, message", [
    ("# only a reason\n\n", "the table has no rows"),
    ("convert e9cafa155a32b85e892aa845a9f7897f\n", "line 1 is not"),
    ("convert e9cafa155a32b85e892aa845a9f7897 " + KUPISCH, "line 1 is not"),
    ("convert E9CAFA155A32B85E892AA845A9F7897F " + KUPISCH, "line 1 is not"),
    (f"convert e9cafa155a32b85e892aa845a9f7897f {KUPISCH}\n# a reason\n"
     f"convert e9cafa155a32b85e892aa845a9f7897f {KUPISCH}", "line 3 repeats the name 'convert'"),
])
def test_the_table_reader_refuses_a_table_it_cannot_check_whole(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read_table(table)


def test_the_checker_fails_a_wrong_digest_and_a_failed_run():
    rows = read_table(f"""
        # one row that holds, then a digest off by one bit, then a refused n whose stdout is empty
        convert e9cafa155a32b85e892aa845a9f7897f {KUPISCH}
        wrong-md5 e9cafa155a32b85e892aa845a9f7897e {KUPISCH}
        exits-1 d41d8cd98f00b204e9800998ecf8427e -m nakayama.cli enumerate --cyclic -n 1
    """)
    runs = run_rows(rows)
    check(rows[0], runs["convert"])
    with pytest.raises(AssertionError, match="^wrong-md5: .* changed its stdout"):
        check(rows[1], runs["wrong-md5"])
    with pytest.raises(AssertionError, match="^exits-1: .* exited 1\n.*vertex count must be in 2..64"):
        check(rows[2], runs["exits-1"])
