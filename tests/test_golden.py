"""Outputs that refactors must leave byte-identical.

The digests are sha256 prefixes of outputs recorded before the verify
suites, the census and the syzygy, Brown-bound and interval arithmetic
were consolidated; a changed digest means a changed count, detail or
violation text somewhere in the sweep.  The ``analyze`` and ``convert``
digests were recorded before the library names that only tests called
were removed from the classes these commands print.
"""

import hashlib

import pytest

from nakayama import CYCLIC, LINEAR, census
from nakayama.cli import main


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_json_digest(capsys, jobs):
    code = main(["verify", "--n-max", "5", "--format", "json", "--jobs", jobs])
    assert code == 0
    assert digest(capsys.readouterr().out) == "fa9bd0ef9e1e61f7"


_ANALYZE = {  # series -> (table digest, --format json digest)
    ("--cyclic", "3,4,4"): ("1f9471733d49b4fc", "9e7d1798c9c58bd0"),
    ("--cyclic", "2,2"): ("90049b630e4d2ccc", "da9dcbb79fcdffe9"),
    ("--cyclic", "6,6,5,4,4"): ("c7962a8cf99907cb", "a1afb06ca85768bd"),
    ("--cyclic", "5,4,3,2"): ("7370cb117a18f309", "b55d12d1e88e9b67"),
    ("--cyclic", "1000000000,1000000000,999999999"): ("c0404ce9df72eb54", "3104327564d1bb14"),
    ("--linear", "1"): ("0d733f224cebd752", "26954f4cf324b034"),
    ("--linear", "2,2,2,1"): ("830b89a154574a31", "0cae92c8799af3a1"),
}


@pytest.mark.parametrize("series", _ANALYZE, ids=" ".join)
def test_analyze_digests(capsys, series):
    outputs = []
    for fmt in ([], ["--format", "json"]):
        assert main(["analyze", *series, *fmt]) == 0
        outputs.append(digest(capsys.readouterr().out))
    assert tuple(outputs) == _ANALYZE[series]


@pytest.mark.parametrize("argv, expected", [
    (["--kupisch", "3,2,2", "--cyclic"], "68dff9a4616a3a31"),
    (["--relations", "1:4", "-n", "3", "--cyclic"], "c9a65cfa0a2ec7f8"),
])
def test_convert_digests(capsys, argv, expected):
    assert main(["convert", *argv]) == 0
    assert digest(capsys.readouterr().out) == expected


def test_census_digests():
    tables = [census(range(2, 7), CYCLIC), census(range(2, 8), LINEAR)]
    assert digest("".join(t.to_csv() for t in tables)) == "672ef6806c0cc567"
    assert digest("".join(t.to_json() for t in tables)) == "7655897e70b3c097"
