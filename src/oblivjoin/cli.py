"""Command-line interface.

    oblivjoin join INPUT [--out PATH] [--trace none|log|hash]
    oblivjoin verify [--n1 N] [--n2 N] [--shapes CSV] [--instances K]
    oblivjoin bench [--sizes CSV] [--reps R] [--csv PATH]
    oblivjoin cost --n N

Every command runs the vector engine; the scalar reference engine is a
library setting for tests, not a command-line choice.  `join` writes its
m rows `d1 d2` in fixed-size chunks, never as one string of all of them.

Exit codes: 0 success, 1 malformed input file, 2 usage error or I/O
failure, 3 trace verification divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .trace import HashSink, LogSink, NullSink
from .pipeline import oblivious_join
from .tablefile import TableFileError, parse_table_file
from .harness import (SHAPES, InfeasibleShapeError, bench, bench_csv,
                      cost_report, gen_test_class, verify_trace_class)

_DEFAULT_SHAPES = ",".join(SHAPES)
_OUT_CHUNK = 1 << 16


def _at_least(minimum: int):
    """argparse type for an integer >= minimum; anything else is a usage
    error (exit 2), never a traceback from deep inside the harness."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


_size = _at_least(0)
_positive = _at_least(1)


def _entries(text: str) -> list[str]:
    """The non-blank entries of a comma-separated list; at least one."""
    entries = [s.strip() for s in text.split(",") if s.strip()]
    if not entries:
        raise argparse.ArgumentTypeError(f"no entries in {text!r}")
    return entries


def _sizes(text: str) -> list[int]:
    return [_size(s) for s in _entries(text)]


def _shapes(text: str) -> list[str]:
    shapes = _entries(text)
    for shape in shapes:
        if shape not in SHAPES:
            raise argparse.ArgumentTypeError(
                f"unknown shape {shape!r}; known: {', '.join(SHAPES)}")
    return shapes


def _cmd_join(args) -> int:
    try:
        t1, t2 = parse_table_file(args.input)
    except TableFileError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sink = {"none": NullSink, "log": LogSink, "hash": HashSink}[args.trace]()
    try:
        # opened before the join, so an unopenable path costs no join
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            res = oblivious_join(t1, t2, sink)
            for lo in range(0, res.m, _OUT_CHUNK):
                chunk = res.pairs[lo:lo + _OUT_CHUNK].tolist()
                fh.write("".join(f"{d1} {d2}\n" for d1, d2 in chunk))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace == "hash":
        print(f"trace sha256: {sink.hexdigest()}", file=sys.stderr)
    elif args.trace == "log":
        for line in sink.lines():
            sys.stderr.write(line + "\n")
    print(f"n1={res.n1} n2={res.n2} m={res.m}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    rc = 0
    for shape in args.shapes:
        try:
            tc = gen_test_class(args.n1, args.n2, shape, seed=args.seed,
                                instances=args.instances)
        except InfeasibleShapeError as exc:
            print(f"{shape}: infeasible ({exc})")
            continue
        verdict = verify_trace_class(tc)
        if verdict.passed:
            print(f"{shape}: OK n1={tc.n1} n2={tc.n2} m={tc.m} "
                  f"instances={len(tc.instances)} "
                  f"digest={verdict.digests[0]}")
        else:
            i, k = verdict.first_divergence
            print(f"{shape}: DIVERGENT n1={tc.n1} n2={tc.n2} m={tc.m} — "
                  f"instances {i} and {k} produced different traces")
            rc = 3
    return rc


def _cmd_bench(args) -> int:
    try:
        # opened before the bench, so an unopenable path costs no timing
        with (open(args.csv, "w") if args.csv
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(bench_csv(bench(args.sizes, reps=args.reps)))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_cost(args) -> int:
    report = cost_report(args.n)
    for line in report.summary_lines():
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oblivjoin",
        description="Data-oblivious equi-join engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("join", help="join the two tables of a table file")
    p.add_argument("input", help="table file: T1 rows, ---, T2 rows")
    p.add_argument("--out", help="write result rows here (default stdout)")
    p.add_argument("--trace", choices=("none", "log", "hash"),
                   default="none",
                   help="emit the access trace (log) or its digest (hash) "
                        "on stderr")
    p.set_defaults(fn=_cmd_join)

    p = sub.add_parser("verify",
                       help="check trace equality across generated "
                            "instance classes")
    p.add_argument("--n1", type=_size, default=64)
    p.add_argument("--n2", type=_size, default=64)
    p.add_argument("--shapes", type=_shapes, default=_DEFAULT_SHAPES)
    p.add_argument("--instances", type=_positive, default=20)
    p.add_argument("--seed", type=_size, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench",
                       help="time the join against the sort-merge baseline")
    p.add_argument("--sizes", type=_sizes, default="1024,4096,16384")
    p.add_argument("--reps", type=_positive, default=3)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("cost", help="per-phase cost breakdown of one join")
    p.add_argument("--n", type=_size, required=True,
                   help="per-table size (n1 = n2 = m = n)")
    p.set_defaults(fn=_cmd_cost)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
