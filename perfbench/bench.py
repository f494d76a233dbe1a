"""One benchmark run: set-up and cold joins in child processes, the traced
pass, warm joins, the checks, and the report.  run.py puts ./src on the
import path before importing this module.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from oblivjoin import (HashSink, NullSink, cli, format_table_text,
                       oblivious_join, parse_table_text, sort_merge_join,
                       sorted_pairs)
from oblivjoin._schedule import sort_levels

from hostspeed import KERNELS
from spans import SpanLog, SpanSink, summarize
from workloads import PHASES, SORT_PHASES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COLD_CHILDREN = 8
MIN_WARM_JOINS = 2
# Kernel runs per gauge: one run (about 50 ms) varies by about 15% on
# its own, more than the join it scales.
WARM_KERNEL_RUNS = 2
CHILD_KERNEL_RUNS = 3
SCHEDULE_WALKS = 2
CHILD_TIMEOUT_S = 150


def main(args) -> int:
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.cold_child:
        return _cold_child(w, args.seed, Path(args.cold_child))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        return Bench(w, args.seed, Path(tmp), streams=(0, 1)).run(args)


def _cold_child(w, seed: int, tmp: Path) -> int:
    """Set up, then one cold join, with the workload's kernel timed
    between the two and after the join; reports all on stdout as JSON.
    The kernel's inputs (up to 2 MiB) are dropped for the join and its
    peak RSS reading."""
    bench = Bench(w, seed, tmp, streams=(0,))
    ready = time.monotonic()
    kernel_before = bench.kernel.measure(CHILD_KERNEL_RUNS)
    bench.kernel.release()
    cold = bench.timed_join("cold join")
    rss_mib = _peak_rss_mib()
    kernel_after = bench.kernel.measure(CHILD_KERNEL_RUNS)
    print(json.dumps({"ready": ready, "cold_s": cold,
                      "kernel_before_s": kernel_before,
                      "kernel_after_s": kernel_after,
                      "rss_mib": rss_mib, "digest": bench.digest,
                      "failures": bench.failures}))
    return 0


def _peak_rss_mib() -> float:
    """This process's peak resident set since exec (VmHWM).

    ru_maxrss would not do for a child: it keeps the high-water mark of
    the parent's address space the child was spawned from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    # A digest of the engine's sources identifies the code where the
    # checkout carries no git metadata.
    src_hash = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src_hash.update(str(f.relative_to(SRC)).encode() + b"\0")
        src_hash.update(f.read_bytes())
    try:
        from oblivjoin._sha256 import HAVE_NUMBA
        sha_path = "numba" if HAVE_NUMBA else "hashlib"
    except ImportError:
        sha_path = "unknown"
    return {"commit": commit, "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "sha_path": sha_path}


class Bench:
    """Inputs, oracles and checked joins of one workload and seed.

    Stream 0 (input A) feeds every timed join; stream 1 (input B), an
    independent draw with the same public sizes, backs the trace-count
    checks.  Oracles are computed on first use, after the join they check.
    """

    def __init__(self, w, seed: int, tmp: Path, streams) -> None:
        self.w = w
        self.seed = seed
        self.tmp = tmp
        self.kernel = KERNELS[w.kernel]
        self.inputs = [w.tables(seed, s) for s in streams]
        self._oracles: dict[int, np.ndarray] = {}
        self.input_path = tmp / "input.txt"
        self.out_path = tmp / "out.txt"
        if w.via_cli:
            self.input_path.write_text(format_table_text(*self.inputs[0]))
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._join_ok = True  # cleared by a failed check in _attempt
        self.digest = None  # the first trace digest seen, on verify

    # -- checks ----------------------------------------------------------

    def _oracle(self, which: int) -> np.ndarray:
        if which not in self._oracles:
            ref = sorted_pairs(sort_merge_join(*self.inputs[which]))
            if len(ref) != self.w.m:
                raise RuntimeError(
                    f"generator missed m: {len(ref)} != {self.w.m}")
            self._oracles[which] = ref
        return self._oracles[which]

    def _check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
            self._join_ok = False
            print(f"FAIL: {what}", file=sys.stderr)
        return ok

    def _check_digest(self, label: str, digest: str) -> None:
        if self.digest is None:
            self.digest = digest
        self._check(digest == self.digest,
                    f"{label}: digest {digest} != {self.digest}")

    def _check_join(self, label: str, pairs, which: int, peak=None,
                    digest=None) -> None:
        self._check(np.array_equal(sorted_pairs(pairs), self._oracle(which)),
                    f"{label}: output differs from sort_merge_join")
        if peak is not None:
            want = self.w.peak_entries
            self._check(peak == want,
                        f"{label}: peak entries {peak} != {want}")
        if digest is not None:
            self._check_digest(label, digest)

    def _attempt(self, label: str, fn):
        """Run one join and its checks; a join fails if any check fails
        or it raises."""
        self.attempted += 1
        self._join_ok = True
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            self._check(False, f"{label}: raised")
            result = None
        self.failed += not self._join_ok
        return result

    # -- joins -----------------------------------------------------------

    def timed_join(self, label: str) -> float | None:
        """One untraced join of input A; returns its wall time."""
        if self.w.via_cli:
            return self._attempt(label, lambda: self._cli_join(label))
        t1, t2 = self.inputs[0]

        def run():
            sink = NullSink()
            t0 = time.perf_counter()
            res = oblivious_join(t1, t2, sink)
            dt = time.perf_counter() - t0
            self._check_join(label, res.pairs, 0, peak=sink.peak_entries)
            return dt
        return self._attempt(label, run)

    def _cli_join(self, label: str) -> float:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["join", str(self.input_path), "--trace", "hash",
                           "--out", str(self.out_path)])
        dt = time.perf_counter() - t0
        if self._check(rc == 0, f"{label}: cli.main returned {rc}"):
            lines = err.getvalue().splitlines()
            w = self.w
            self._check(f"n1={w.n1} n2={w.n2} m={w.m}" in lines,
                        f"{label}: cli reported other sizes: {lines}")
            digest = next((ln.split()[-1] for ln in lines
                           if ln.startswith("trace sha256:")), "missing")
            nums = [int(x) for x in self.out_path.read_text().split()]
            pairs = np.array(nums, np.uint64).reshape(-1, 2)
            self._check_join(label, pairs, 0, digest=digest)
        return dt

    def _traced_join(self, label: str, which: int, log: SpanLog, ref=None):
        """One join of input `which` through SpanSink; returns (root span
        id, sink).  On verify the inputs come from parsing the table text
        and the inner sink is HashSink, as on the auditor's path.  With
        ref, the traced join of the other stream, every trace count must
        match it."""
        t1, t2 = self.inputs[which]
        if self.w.via_cli:
            t1, t2 = parse_table_text(format_table_text(t1, t2))
        sink = SpanSink(HashSink() if self.w.via_cli else NullSink(), log)

        def run():
            with log.span("join") as root:
                res = oblivious_join(t1, t2, sink)
            digest = sink.inner.hexdigest() if self.w.via_cli else None
            self._check_join(label, res.pairs, which,
                             peak=sink.peak_entries, digest=digest)
            if ref is not None:
                self._check(dict(sink.events) == dict(ref.events),
                            f"{label}: per-phase events {dict(sink.events)} "
                            f"!= {dict(ref.events)} of the other stream")
                self._check(sink.emit_calls == ref.emit_calls,
                            f"{label}: emit calls differ across streams")
            return root, sink
        return self._attempt(label, run)

    def _child_join(self, k: int, samples: dict) -> None:
        """Child process k: a fresh interpreter sets up and runs one join."""
        label = f"cold join {k} (child process)"
        d = self.tmp / f"child{k}"
        d.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", self.w.name, "--seed", str(self.seed),
               "--cold-child", str(d)]

        def run():
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(out.stderr)
            if not self._check(out.returncode == 0,
                               f"{label}: exit code {out.returncode}"):
                return
            rep = json.loads(out.stdout.splitlines()[-1])
            for what in rep["failures"]:
                self._check(False, f"{label}: {what}")
            if rep["digest"] is not None:
                self._check_digest(label, rep["digest"])
            # Set-up is scaled by the kernel run right after it, the
            # cold join by the mean of the runs before and after it.
            setup_s = rep["ready"] - t0
            before, after = rep["kernel_before_s"], rep["kernel_after_s"]
            samples["setup_s"].append(setup_s)
            samples["child_kernel_s"].append([before, after])
            samples["setup_scaled_s"].append(
                self.kernel.scale(setup_s, before))
            samples["child_rss_mib"].append(rep["rss_mib"])
            if rep["cold_s"] is not None:
                samples["cold_join_s"].append(rep["cold_s"])
                samples["cold_scaled_s"].append(
                    self.kernel.scale(rep["cold_s"], (before + after) / 2))
        self._attempt(label, run)

    # -- the run ---------------------------------------------------------

    def run(self, args) -> int:
        env = _environment()
        samples = {key: [] for key in (
            "setup_s", "cold_join_s", "child_kernel_s", "child_rss_mib",
            "warm_join_s", "warm_kernel_s", "setup_scaled_s",
            "cold_scaled_s", "warm_scaled_s")}
        log = SpanLog()
        traced = [self._traced_join("traced join A", 0, log)]
        if traced[0]:
            traced.append(self._traced_join("traced join B", 1, log,
                                            ref=traced[0][1]))
        # The children are spread evenly over the measured window, between
        # warm joins, so cold and warm samples come from the same stretch
        # of host time.  Each warm join is scaled by the mean of the
        # kernel times just before and just after it (hostspeed.py).
        warm = samples["warm_join_s"]
        children = 0
        kernel_before = None
        t_begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_begin
            if (children < COLD_CHILDREN
                    and elapsed >= children * args.seconds / COLD_CHILDREN):
                self._child_join(children, samples)
                children += 1
                kernel_before = None
            elif len(warm) < MIN_WARM_JOINS or elapsed < args.seconds:
                if kernel_before is None:
                    kernel_before = self.kernel.measure(WARM_KERNEL_RUNS)
                gc.collect()  # every join starts from the same heap
                dt = self.timed_join(f"warm join {len(warm)}")
                if dt is None:
                    break
                kernel_after = self.kernel.measure(WARM_KERNEL_RUNS)
                kernel_s = (kernel_before + kernel_after) / 2
                warm.append(dt)
                samples["warm_kernel_s"].append(kernel_s)
                samples["warm_scaled_s"].append(
                    self.kernel.scale(dt, kernel_s))
                kernel_before = kernel_after
            else:
                break
        # The parent also holds the traced pass, the second input and the
        # oracles, so peak_rss_mib comes from the one-join children; the
        # parent's is kept as a note.
        samples["parent_rss_mib"] = [_peak_rss_mib()]

        def median(key):
            return statistics.median(samples[key]) if samples[key] else None

        # A metric that could not be measured reads null; its run has a
        # failed join and reports correct: false.
        e2e = {
            "setup_s": (median("setup_scaled_s"), "s"),
            "first_join_s": (median("cold_scaled_s"), "s"),
            "join_s": (median("warm_scaled_s"), "s"),
            "peak_rss_mib": (median("child_rss_mib"), "MiB"),
            "ok_ratio": (1 - self.failed / self.attempted, "ratio"),
        }
        layers = {}
        if args.trace:
            if all(traced) and warm:
                layers = self._per_layer(log, traced, min(warm))
            else:
                self._check(False, "no per-layer metrics: a join failed")
        return self._report(args, env, e2e, layers, samples, log)

    def _per_layer(self, log: SpanLog, traced, join_s: float) -> dict:
        sums = [summarize(log, root) for root, _ in traced]
        sink = traced[0][1]

        def fastest(get):
            return min(get(s) for s in sums)

        out = {}
        for ph in PHASES:
            out[f"pipeline.{ph}.s"] = (
                fastest(lambda s: s["phase_s"].get(ph, 0.0)), "s")
            out[f"pipeline.{ph}.events"] = (sink.events.get(ph, 0), "count")
        walks = []
        for _ in range(SCHEDULE_WALKS):
            comparators = levels = 0
            t0 = time.perf_counter()
            for n in self.w.sort_lengths:
                for lo, _, _ in sort_levels(n):
                    comparators += len(lo)
                    levels += 1
            walks.append(time.perf_counter() - t0)
        schedule_s = min(walks)
        sort_events = sum(sink.events.get(ph, 0) for ph in SORT_PHASES)
        self._check(sort_events == 4 * comparators,
                    f"sort-phase events {sort_events} != 4 x {comparators} "
                    f"comparators of the schedule")
        ce_s = fastest(lambda s: sum(s["phase_s"].get(ph, 0.0)
                                     - s["phase_sink_s"].get(ph, 0.0)
                                     for ph in SORT_PHASES)) - schedule_s
        sink_s = fastest(lambda s: s["sink_s"])
        events = sum(sink.events.values())
        out.update({
            "schedule.s": (schedule_s, "s"),
            "schedule.comparators": (comparators, "count"),
            "schedule.levels": (levels, "count"),
            "primitives.ce.s": (ce_s, "s"),
            "primitives.ce_per_s": (comparators / ce_s, "1/s"),
            "trace.sink.s": (sink_s, "s"),
            "trace.events": (events, "count"),
            "trace.events_per_s": (events / sink_s, "1/s"),
            "trace.emit_calls": (sink.emit_calls, "count"),
            "trace.peak_entries": (sink.peak_entries, "count"),
        })
        text = format_table_text(*self.inputs[0])
        t0 = time.perf_counter()
        t1, t2 = parse_table_text(text)
        out["tablefile.parse.s"] = (time.perf_counter() - t0, "s")
        self._check(np.array_equal(t1, self.inputs[0][0])
                    and np.array_equal(t2, self.inputs[0][1]),
                    "parse_table_text did not round-trip the inputs")
        out["bench.trace_overhead"] = (
            fastest(lambda s: s["join_s"]) / join_s, "ratio")
        return out

    def _report(self, args, env, e2e, layers, samples, log) -> int:
        w = self.w
        correct = not self.failures
        print(f"# workload {w.name}: n1={w.n1} n2={w.n2} m={w.m} "
              f"seed={self.seed} joins={self.attempted}")
        print(f"# env {json.dumps(env, sort_keys=True)}")
        print(f"# samples {json.dumps(samples)}")
        shown = dict(e2e, fail_ratio=(self.failed / self.attempted, "ratio"),
                     **layers)
        for name, (value, unit) in shown.items():
            text = (str(value) if value is None or isinstance(value, int)
                    else format(value, ".6g"))
            print(f"{name:32s} {text:>20} {unit}")
        metrics = layers if args.trace else e2e
        result = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        record = dict(result, workload=w.name, seed=self.seed, env=env,
                      failures=self.failures, samples=samples,
                      end_to_end={k: v for k, (v, _) in e2e.items()},
                      per_layer={k: v for k, (v, _) in layers.items()})
        if args.trace:
            record["spans"] = log.rows()
        name = f"{w.name}-seed{self.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record))
        print(json.dumps(result), flush=True)
        return 0 if correct else 1
