"""Outputs that refactors must leave byte-identical.

The digests are sha256 prefixes of outputs recorded before the verify
suites, the census and the syzygy, Brown-bound and interval arithmetic
were consolidated; a changed digest means a changed count, detail or
violation text somewhere in the sweep.
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


def test_census_digests():
    tables = [census(range(2, 7), CYCLIC), census(range(2, 8), LINEAR)]
    assert digest("".join(t.to_csv() for t in tables)) == "672ef6806c0cc567"
    assert digest("".join(t.to_json() for t in tables)) == "7655897e70b3c097"
