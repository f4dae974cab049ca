"""The benchmark's workloads, their inputs and their reference checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation fails when it exits
nonzero, raises, or prints output whose digest differs from the reference
recorded from the seed program in ``reference.json``.

verify-serial    ``nakayama verify --n-max 8 --format json --jobs 1``;
                 one operation is one sweep over 12,568 algebras.
verify-parallel  the same sweep with ``--jobs`` = nproc, the only workload
                 that goes through the verify process pool.
census           ``census(range(2, 9), CYCLIC)`` and
                 ``census(range(2, 11), LINEAR)`` with checkers, rendered as
                 the CSV of ``scripts/fibonacci_census.py --n-max 8`` and as
                 JSON.  Never calls ``filtration``.
analyze-mix      a seeded stream of in-process ``nakayama analyze ... --format
                 json`` calls mixing small cyclic, linear and large-entry
                 cyclic series drawn from the committed corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import nakayama
from nakayama import CYCLIC, LINEAR, cli

REFERENCE = Path(__file__).with_name("reference.json")

VERIFY_N_MAX = 8
CENSUS_RANGES = ((CYCLIC, range(2, 9)), (LINEAR, range(2, 11)))

# analyze-mix block: the calls of each kind in one block of the stream.  One
# cycle of the stream is one block per large-entry corpus series, so every
# cycle holds each large-entry series exactly once and the latency
# percentiles do not depend on which large series a seed happens to draw.
BLOCK = (("small-cyclic", 16), ("linear", 8), ("large-cyclic", 1))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with REFERENCE.open() as handle:
        return json.load(handle)


def call_cli(argv) -> tuple[int, str]:
    """Run ``nakayama <argv>`` in-process; return exit code and captured stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def verify_argv(jobs: int) -> list[str]:
    return ["verify", "--n-max", str(VERIFY_N_MAX), "--format", "json", "--jobs", str(jobs)]


def verify_json(results) -> str:
    """The stdout of ``nakayama verify --format json`` for run_suites-shaped results."""
    payload = {
        name: {"details": details, "violations": violations}
        for name, (details, violations) in results.items()
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def census_outputs(ranges=CENSUS_RANGES) -> tuple[str, str]:
    """(CSV, JSON) of the census tables, the CSV merged as the census script does."""
    # looked up on the package at call time so the traced pass sees its wrapper
    tables = [nakayama.census(ns, kind) for kind, ns in ranges]
    chunks = [table.to_csv() for table in tables]
    csv = chunks[0] + "".join(
        "\n".join(chunk.splitlines()[1:]) + "\n" for chunk in chunks[1:]
    )
    return csv, "".join(table.to_json() + "\n" for table in tables)


def analyze_argv(kind: str, series) -> list[str]:
    flag = "--linear" if kind == LINEAR else "--cyclic"
    return ["analyze", flag, ",".join(map(str, series)), "--format", "json"]


def analyze_stream(corpus: dict, seed: int):
    """Endless seeded stream of cycles; each cycle is a list of corpus entries.

    A cycle has one block per large-entry series, in a seeded order; each
    block mixes the kinds in the proportions of ``BLOCK``, the small and
    linear series drawn with replacement, and is shuffled.
    """
    rng = random.Random(seed)
    large = corpus["large-cyclic"]
    while True:
        cycle = []
        for big in rng.sample(large, len(large)):
            block = [big]
            for kind, count in BLOCK:
                if kind != "large-cyclic":
                    block.extend(rng.choice(corpus[kind]) for _ in range(count))
            rng.shuffle(block)
            cycle.extend(block)
        yield cycle


def kind_shares() -> dict:
    total = sum(count for _, count in BLOCK)
    return {kind: count / total for kind, count in BLOCK}
