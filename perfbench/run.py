"""The repository benchmark: one workload per process.

    python3 perfbench/run.py --workload fk --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each in turn

Run from the repository root.  The engine is imported from ./src, never
from an installed copy.  A closed loop: one caller runs joins back to
back, no extra threads.  A run (bench.py)

  1. joins two seed streams' inputs through SpanSink (the traced pass)
     and checks that every trace count and digest repeats;
  2. for --seconds, times warm untraced joins (at least two) and, spread
     evenly between them, eight fresh interpreters that each import the
     engine, generate the inputs and run one cold join; a reference
     kernel (hostspeed.py) is timed around every join;
  3. reports setup_s, the median child time from spawn to inputs ready;
     first_join_s, the median cold join; join_s, the median warm join;
     each time scaled to a host where the kernel takes a fixed time;
     peak_rss_mib, the median child peak RSS;
  4. checks every join's output against sort_merge_join, its peak entries
     against the closed form and, on verify, cli.main's exit code, sizes
     and digest.

Human-readable lines go first; the last stdout line is one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The run's environment,
every sample, the metrics and (with --trace 1) the spans are also
written to perfbench/out/<workload>-seed<seed>-trace<t>.json.  Exit code
0 when every check passed, 1 when one failed, 2 when the engine cannot
be imported from ./src or the workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_engine() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import oblivjoin
    except ImportError as exc:
        print(f"error: cannot import oblivjoin from {SRC}: {exc}",
              file=sys.stderr)
        return False
    if not Path(oblivjoin.__file__).resolve().is_relative_to(SRC):
        print(f"error: oblivjoin resolved to {oblivjoin.__file__}, "
              f"not under {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold-child", metavar="DIR",
                   help=argparse.SUPPRESS)  # one set-up and cold join
    args = p.parse_args(argv)
    if not _import_engine():
        return 2
    if args.workload == "all":
        return _run_all(args)
    import bench
    return bench.main(args)


def _run_all(args) -> int:
    """Every workload in a fresh process, one after another.  Relays
    their reports, then prints one JSON line with the metrics keyed
    <workload>.<metric>."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        rc = max(rc, out.returncode)
        try:
            res = json.loads(lines[-1])
        except ValueError:
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
