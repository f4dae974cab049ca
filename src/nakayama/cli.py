"""Command-line front end.

Subcommands
-----------
analyze
    Homological report (and, for cyclic algebras, the reduction tower) of
    one algebra given by its Kupisch series.

enumerate
    Count or list isomorphism classes, optionally filtered to the
    quasi-hereditary or maximal-global-dimension ones.

verify
    Run theorem suites over the full enumeration; exits 2 when any
    verified statement has a counterexample.

convert
    Translate between Kupisch series and relation systems.

Usage examples
--------------
  nakayama analyze --cyclic 3,4,4
  nakayama enumerate -n 4 --cyclic --filter maximal --list
  nakayama verify --theorems fibonacci,chain --n-max 5
  nakayama convert --relations "1:2;2:3" -n 4 --cyclic

Exit codes: 0 success, 1 usage or input error, or an output that cannot be written (a missing
``--out`` directory, a full disk), 2 theorem violation found, 3 internal error (any exception
but an input error, so a bug in this package; traceback on stderr), 141 (128 + SIGPIPE) when
the reader closes stdout before it is written, as in ``| head -1``.
``_run`` is this contract's one home: ``main`` and each experiment script end in it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    CYCLIC,
    LINEAR,
    canonical_form,
    format_kupisch,
    format_relations,
    kupisch_to_relations,
    normalize_relation_labels,
    parse_kupisch,
    parse_relations,
    relations_to_kupisch,
    validate,
)
from .enumeration import _cyclic_with_first, _linear_series
from .errors import NakayamaError
from .filtration import epsilon_tower
from .homology import _quasi_hereditary, homology_report
from .verify import SUITES, _Profile, _shards, run_suites


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 (2 is reserved for theorem violations)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_kind_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--cyclic", action="store_true", help="cyclic quiver")
    group.add_argument("--linear", action="store_true", help="linear (acyclic) quiver")


def _kind(args) -> str:
    return CYCLIC if args.cyclic else LINEAR


def build_parser(command=None) -> argparse.ArgumentParser:
    parser = _Parser(prog="nakayama", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="homological report for one algebra")
    if command in (None, "analyze"):
        _add_kind_flags(p)
        p.add_argument("kupisch", help='Kupisch series, e.g. "3,4,4"')
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="count or list isomorphism classes")
    if command in (None, "enumerate"):
        _add_kind_flags(p)
        p.add_argument("-n", type=int, required=True, help="number of vertices")
        p.add_argument("--cap", type=int, default=None,
                       help="cyclic entry cap (default 2n-1; a higher cap adds only infinite gldim)")
        p.add_argument("--filter", choices=("all", "qh", "maximal"), default="all")
        p.add_argument("--list", action="store_true", help="print canonical series")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="machine-verify the theorems")
    if command in (None, "verify"):
        p.add_argument("--theorems", default="all",
                       help=f"comma-separated subset of: {','.join(SUITES)} (or 'all')")
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--cap", type=int, default=None,
                       help="cyclic entry cap (default 2n-1; a higher cap adds only infinite gldim)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most the usable CPUs (default 1)")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="translate between representations")
    if command in (None, "convert"):
        _add_kind_flags(p)
        p.add_argument("--kupisch", help='Kupisch series, e.g. "3,2,2"')
        p.add_argument("--relations", help='relation system, e.g. "1:2;2:3"')
        p.add_argument("-n", type=int, default=None,
                       help="vertex count (required with --relations)")
        p.set_defaults(func=cmd_convert)
    return parser


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    series = validate(_kind(args), parse_kupisch(args.kupisch))
    report = homology_report(series)
    system = kupisch_to_relations(series)
    tower = epsilon_tower(series) if series.kind == CYCLIC else None
    encoded = report.to_dict()  # infinite pds read "inf"
    if args.format == "json":
        payload = {
            "canonical": list(canonical_form(series).c),
            "relations": [list(pair) for pair in system.relations],
            "report": encoded,
            "selfinjective": series.is_selfinjective,
            "tower": tower.to_dict() if tower is not None else None,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"kupisch       {format_kupisch(series)} ({series.kind})")
    print(f"canonical     {format_kupisch(canonical_form(series))}")
    if series.kind == CYCLIC:
        print(f"selfinjective {'yes' if series.is_selfinjective else 'no'}")
    print(f"relations     {format_relations(system) or '(none)'}  [r = {system.r}]")
    print(f"pd simples    {' '.join(map(str, encoded['pd_simple']))}")
    print(f"gldim         {encoded['gldim']}")
    print(f"pd set        {{{','.join(map(str, report.o_set))}}}")
    for cc in report.o_set:
        print(f"  lambda_{cc} = {report.lam[cc]}")
    s_conn = {True: "yes", False: "no", None: "undefined (infinite gldim)"}
    print(f"s-connected   {s_conn[report.s_connected]}")
    print(f"quasi-hered.  {'yes' if report.quasi_hereditary else 'no'}")
    if report.brown_slack is not None:
        print(f"bound slack   {report.brown_slack}")
    if tower is not None:
        shapes = [" + ".join(str(k) for k in step.components) for step in tower.steps]
        chain = " -> ".join([str(series)] + shapes) if shapes else str(series)
        print(f"tower         {chain}  [terminal {tower.terminal}, depth {tower.depth}]")
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    """Stream the sweep's own tuples, filtered as the sweep reads them; kept only for ``--list``."""
    kind, n = _kind(args), args.n
    wanted = {"all": None, "qh": _quasi_hereditary, "maximal": lambda p: p.maximal}[args.filter]
    kept = (c for shard, first in _shards(n, args.cap) if shard == kind  # n and cap checked here
            for c in (_cyclic_with_first(n, first) if kind == CYCLIC else _linear_series(n))
            if wanted is None or wanted(_Profile(kind, c)))
    kept = list(kept) if args.list else kept
    count = len(kept) if args.list else sum(1 for _ in kept)
    if args.format == "json":
        payload = {"count": count, "filter": args.filter, "kind": kind, "n": n}
        if args.list:
            payload["series"] = [list(c) for c in kept]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(count)
    if args.list:
        for c in kept:
            print(",".join(map(str, c)))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = list(SUITES) if args.theorems == "all" else [
        t.strip() for t in args.theorems.split(",") if t.strip()]
    results = run_suites(names, args.n_max, cap=args.cap, jobs=args.jobs)
    total = sum(len(v) for _, v in results.values())
    if args.format == "json":
        payload = {
            name: {"details": details, "violations": violations}
            for name, (details, violations) in results.items()
        }
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print("suite,n_max,violations")
        for name, (_, violations) in results.items():
            print(f"{name},{args.n_max},{len(violations)}")
    else:
        for name, (details, violations) in results.items():
            status = "ok" if not violations else f"{len(violations)} VIOLATIONS"
            print(f"{name}: {status}")
            for line in details:
                print(f"  {line}")
            for v in violations:
                print(f"  !! {v}")
    return 2 if total else 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def cmd_convert(args) -> int:
    if (args.kupisch is None) == (args.relations is None):
        raise NakayamaError("provide exactly one of --kupisch or --relations")
    if args.kupisch is not None:
        series = validate(_kind(args), parse_kupisch(args.kupisch))
        system = normalize_relation_labels(kupisch_to_relations(series))
        print(format_relations(system))
        return 0
    if args.n is None:
        raise NakayamaError("--relations needs the vertex count -n")
    system = parse_relations(args.relations, _kind(args), args.n)
    series = canonical_form(relations_to_kupisch(system))
    print(format_kupisch(series))
    return 0


def main(argv=None) -> int:
    """Run ``nakayama <argv>`` (``sys.argv[1:]`` when None) and return its exit code.

    A call parses one subcommand, so it builds the arguments of ``argv[0]`` only; all four
    subcommands stay registered, which keeps ``--help`` and an unknown command's error intact.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return _run(args.func, args)


def _run(func, *args) -> int:  # func(*args)'s exit code, under the contract above
    try:
        code = func(*args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught below
        return code
    except (NakayamaError, OSError) as exc:  # a refused input, or an output that cannot be written
        if isinstance(exc, OSError) and exc.filename is None:  # no file named, so stdout failed:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush too
        if isinstance(exc, BrokenPipeError):  # a closed pipe, as in | head -1: not a word
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: InternalError or any builtin exception
        import traceback  # only a run that hits a bug pays for the import
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
