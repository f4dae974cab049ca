#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks every run against.

Writes ``perfbench/reference.json``: the digests of the verify JSON and of
the census CSV and JSON, the algebra counts of the sweeps, and the
analyze-mix corpus with the digest of each series' ``analyze --format json``
output.  Run it from the repository root on the commit whose outputs are the
reference (outputs are meant to stay byte-identical across later commits):

  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nakayama import CYCLIC, LINEAR, enumerate_cyclic, enumerate_linear  # noqa: E402

import workloads  # noqa: E402

CORPUS_SEED = 20211
SMALL_CYCLIC = 100
LINEAR_COUNT = 50
LARGE_CYCLIC = 11


def random_cyclic(rng, n, cap):
    """A valid cyclic series with n entries in [2, cap] (rejection sampling)."""
    while True:
        c = [rng.randint(2, cap)]
        for _ in range(n - 1):
            c.append(rng.randint(max(2, c[-1] - 1), cap))
        if c[0] >= c[-1] - 1:
            return c


def random_linear(rng, n):
    c = [1]
    for i in range(n - 1, 0, -1):
        c.insert(0, rng.randint(2, min(c[0] + 1, n - i + 1)))
    return c


def make_corpus(rng):
    """Small cyclic (n 2..12, entries <= 2n), linear (n 2..40), and large-entry
    cyclic series (n 3..12, entries 10^3..10^6, sizes spread evenly in log)."""
    small = []
    for _ in range(SMALL_CYCLIC):
        n = rng.randint(2, 12)
        small.append((CYCLIC, random_cyclic(rng, n, 2 * n)))
    linear = [(LINEAR, random_linear(rng, rng.randint(2, 40))) for _ in range(LINEAR_COUNT)]
    large = []
    for i in range(LARGE_CYCLIC):
        n = rng.randint(3, 12)
        pattern = random_cyclic(rng, n, 2 * n)
        while len(set(pattern)) == 1:  # keep the reduction tower in play
            pattern = random_cyclic(rng, n, 2 * n)
        spread = max(pattern) - min(pattern)
        base = min(round(10 ** (3 + 3 * (i + 0.5) / LARGE_CYCLIC)), 10**6 - spread)
        large.append((CYCLIC, [base + x - min(pattern) for x in pattern]))
    return {"small-cyclic": small, "linear": linear, "large-cyclic": large}


def reference_entry(kind, c):
    code, out = workloads.call_cli(workloads.analyze_argv(kind, c))
    if code != 0:
        raise SystemExit(f"analyze {kind} {c} exited {code}")
    return {"kind": kind, "c": c, "digest": workloads.digest(out)}


def dump(reference) -> str:
    """JSON with one analyze corpus entry per line."""
    groups = ",\n".join(
        f"  {json.dumps(group)}: [\n"
        + ",\n".join("   " + json.dumps(entry, sort_keys=True) for entry in entries)
        + "\n  ]"
        for group, entries in sorted(reference["analyze"].items())
    )
    rest = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(reference.items())
        if key != "analyze"
    )
    return "{\n" + f' "analyze": {{\n{groups}\n }},\n' + rest + "\n}\n"


def main() -> int:
    reference = {}

    code, out = workloads.call_cli(workloads.verify_argv(1))
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    code_par, out_par = workloads.call_cli(workloads.verify_argv(2))
    if (code_par, out_par) != (code, out):
        raise SystemExit("verify --jobs 2 differs from --jobs 1")
    n_range = range(2, workloads.VERIFY_N_MAX + 1)
    reference["verify"] = {
        "digest": workloads.digest(out),
        "algebras": sum(
            sum(1 for _ in enumerate_cyclic(n)) + sum(1 for _ in enumerate_linear(n))
            for n in n_range
        ),
    }

    csv, js = workloads.census_outputs()
    script = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fibonacci_census.py"), "--n-max", "8"],
        capture_output=True, text=True, cwd=ROOT, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    if script.stdout != csv:
        raise SystemExit("census CSV differs from scripts/fibonacci_census.py --n-max 8")
    algebras = 0
    for kind, ns in workloads.CENSUS_RANGES:
        for n in ns:
            stream = enumerate_cyclic(n) if kind == CYCLIC else enumerate_linear(n)
            algebras += sum(1 for _ in stream)
    reference["census"] = {
        "csv_digest": workloads.digest(csv),
        "json_digest": workloads.digest(js),
        "algebras": algebras,
    }

    corpus = make_corpus(random.Random(CORPUS_SEED))
    reference["analyze"] = {
        group: [reference_entry(kind, c) for kind, c in entries]
        for group, entries in corpus.items()
    }

    workloads.REFERENCE.write_text(dump(reference))
    print(f"wrote {workloads.REFERENCE.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
