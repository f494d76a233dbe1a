"""Acceptance gate: the engine's advertised guarantees, end to end.

Eight checks, one per guarantee.  Each records a PASS/FAIL line (printed
as a terminal section after the run) before asserting, so a red run still
reports the status of every criterion it reached.

    1. join output equals the brute-force oracle on >= 1000 instances
    2. distribution places every entry at slot f(x)-1; swaps only ever
       displace null entries (all n <= m <= 64, 100 instances each)
    3. >= 14 trace classes spanning n = 10..10,000, >= 20 instances each:
       digests identical within a class, distinct across classes; and one
       class of 3 instances at the native kernels' sizes
    4. compare-exchanges always emit 2 reads + 2 writes; per-class event
       totals are a pure function of (n1, n2, m)
    5. network phase costs: exact comparator counts at powers of two,
       within 10% of the closed-form model for n = 2^10..2^14, and the
       expected phase ordering
    6. runtime scaling consistent with n log^2 n (t(2n)/t(n) bounded)
    7. randomized distribution: output identical to the deterministic
       network; placement positions uniform (chi-square)
    8. CLI joins the fixture corpus to its expected outputs and rejects
       malformed files with line-numbered errors
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oblivjoin.cli as cli
from oblivjoin.baseline import nested_loop_join, sorted_pairs
from oblivjoin.harness import (
    NETWORK_PHASES,
    SHAPES,
    bench,
    cost_report,
    gen_test_class,
    make_distribute_input,
    verify_trace_class,
)
from oblivjoin.pipeline import oblivious_join
from oblivjoin.primitives import oblivious_distribute
from oblivjoin.prp import prp_distribute
from oblivjoin.trace import HashSink, LogSink, NullSink, READ, WRITE

from conftest import record

FIXTURES = Path(__file__).parent / "fixtures"


def _sort_ce_count(n: int) -> int:
    """Comparators of the classical power-of-two network."""
    k = n.bit_length() - 1
    assert 1 << k == n
    return n * k * (k + 1) // 4


# -- 1: oracle equivalence ---------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(np.random.SeedSequence([1]))
    total = bad = 0
    target_classes = 34  # x 6 shapes x 5 instances = 1020 instances
    for shape in SHAPES:
        for c in range(target_classes):
            n1 = int(rng.integers(3, 201))
            n2 = int(rng.integers(3, 201))
            tc = gen_test_class(n1, n2, shape, seed=1000 + c, instances=5)
            for t1, t2 in tc.instances:
                res = oblivious_join(t1, t2)
                got = sorted_pairs(res.pairs)
                want = sorted_pairs(nested_loop_join(t1, t2))
                total += 1
                if not np.array_equal(got, want):
                    bad += 1
    ok = bad == 0 and total >= 1000
    record(f"criterion 1 (oracle equivalence): {'PASS' if ok else 'FAIL'} — "
           f"{total} instances across {len(SHAPES)} shapes, n <= 200, "
           f"{bad} mismatches")
    assert ok, f"{bad} of {total} instances disagreed with the oracle"


# -- 2: distribution places exactly, swaps displace only nulls ---------------

def test_criterion_2_distribute_placement():
    rng = np.random.default_rng(np.random.SeedSequence([2]))
    B = 100
    pairs = instances = 0
    for m in range(1, 65):
        for n in range(1, m + 1):
            f = np.argsort(rng.random((B, m)), axis=1)[:, :n] + 1
            x = make_distribute_input(NullSink(), f.astype(np.uint64), batch=B)
            # the routing check raises if a swap displaces a non-null entry
            # or an entry misses its slot
            out = oblivious_distribute(x, m)
            dest = (f - 1).astype(np.int64)
            exp_f = np.zeros((B, m), np.uint64)
            exp_d = np.zeros((B, m), np.uint64)
            exp_nul = np.ones((B, m), np.uint8)
            np.put_along_axis(exp_f, dest, f.astype(np.uint64), axis=1)
            np.put_along_axis(
                exp_d, dest,
                np.broadcast_to(np.arange(n, dtype=np.uint64), (B, n)), axis=1)
            np.put_along_axis(exp_nul, dest, np.uint8(0), axis=1)
            assert np.array_equal(out.debug_col("f"), exp_f), (n, m)
            assert np.array_equal(out.debug_col("d"), exp_d), (n, m)
            assert np.array_equal(out.debug_col("is_null"), exp_nul), (n, m)
            pairs += 1
            instances += B
    ok = pairs == 64 * 65 // 2
    record(f"criterion 2 (exact placement, null-only swaps): "
           f"{'PASS' if ok else 'FAIL'} — all {pairs} (n, m) pairs with "
           f"n <= m <= 64, {instances} instances, collision check armed")
    assert ok


# -- 3: trace-class invariance ------------------------------------------------

LADDER = [
    (5, 5, "all-1x1"),
    (6, 6, "power-law"),
    (10, 8, "mixed"),
    (16, 16, "power-law"),
    (25, 40, "single-1xn"),
    (50, 30, "single-nx1"),
    (64, 64, "all-1x1"),
    (100, 100, "power-law"),
    (150, 250, "mixed"),
    (320, 320, "disjoint"),
    (500, 500, "power-law"),
    (800, 1200, "mixed"),
    (1600, 1600, "all-1x1"),
    (5000, 5000, "mixed"),
]


def test_criterion_3_trace_class_invariance():
    digests = []
    failed = []
    for n1, n2, shape in LADDER:
        tc = gen_test_class(n1, n2, shape, seed=17, instances=20)
        verdict = verify_trace_class(tc)
        if not verdict.passed:
            failed.append((n1, n2, shape, verdict.first_divergence))
        digests.append(verdict.digests[0])
    distinct = len(set(digests)) == len(LADDER)
    ok = not failed and distinct
    record(f"criterion 3 (trace-class invariance): {'PASS' if ok else 'FAIL'}"
           f" — {len(LADDER)} classes, n = 10..10,000, 20 instances each; "
           f"{len(digests) - len(set(digests))} cross-class collisions")
    assert not failed, f"divergent classes: {failed}"
    assert distinct


def test_criterion_3_trace_class_at_kernel_sizes():
    # one class at n1 = 60,000, n2 = 40,001: every sort is ragged and
    # emits its events in many blocks of the native pair expander
    tc = gen_test_class(60_000, 40_001, "mixed", seed=17, instances=3)
    t1s = [t1[:, 0].tolist() for t1, _ in tc.instances]
    assert len({tuple(keys) for keys in t1s}) == 3
    verdict = verify_trace_class(tc)
    record(f"criterion 3 at kernel sizes: "
           f"{'PASS' if verdict.passed else 'FAIL'} — n1 = 60,000, "
           f"n2 = 40,001, m = {tc.m:,}, {len(tc.instances)} instances")
    assert verdict.passed, verdict.first_divergence


# -- 4: dummy-write regularity -------------------------------------------------

def _ce_pattern_ok(sink: LogSink) -> bool:
    for phase in NETWORK_PHASES:
        _, ops, idxs = sink.event_arrays(phase)
        if len(ops) % 4:
            return False
        o = ops.reshape(-1, 4)
        ix = idxs.reshape(-1, 4)
        if not ((o[:, 0] == READ).all() and (o[:, 1] == READ).all()
                and (o[:, 2] == WRITE).all() and (o[:, 3] == WRITE).all()):
            return False
        if not ((ix[:, 0] == ix[:, 2]).all() and (ix[:, 1] == ix[:, 3]).all()
                and (ix[:, 0] != ix[:, 1]).all()):
            return False
    return True


def test_criterion_4_dummy_write_regularity():
    # (a) swap-free vs swap-heavy inputs of one class: identical traces,
    # and every network operation is exactly R,R,W,W on its two slots
    key = np.arange(8, dtype=np.uint64)
    quiet = (np.stack([key, key], 1), np.stack([key, key], 1))        # sorted
    noisy = (np.stack([key[::-1], key], 1), np.stack([key[::-1], key], 1))
    traces = []
    for t1, t2 in (quiet, noisy):
        s = LogSink()
        res = oblivious_join(t1, t2, s)
        assert res.m == 8
        assert _ce_pattern_ok(s)
        traces.append(list(s.events_tagged()))
    pattern_ok = traces[0] == traces[1]

    # (b) per-class totals are a pure function of (n1, n2, m): same class
    # reached through different generators and inputs gives one total
    totals = set()
    for shape in ("all-1x1", "single-1xn", "single-nx1"):
        tc = gen_test_class(8, 8, shape, seed=4, instances=4)
        assert tc.m == 8
        for t1, t2 in tc.instances:
            s = NullSink()
            oblivious_join(t1, t2, s)
            totals.add(sum(s.counts.values()))
    totals_ok = len(totals) == 1
    ok = pattern_ok and totals_ok
    record(f"criterion 4 (dummy-write regularity): {'PASS' if ok else 'FAIL'}"
           f" — 2R+2W per compare-exchange, swap-free == swap-heavy traces, "
           f"single event total across 3 generators of class (8, 8, 8)")
    assert pattern_ok, "trace depends on swap outcomes"
    assert totals_ok, f"event totals differ within a class: {totals}"


# -- 5: cost model --------------------------------------------------------------

def test_criterion_5_cost_model():
    worst = Fraction(0)
    lines = []
    for k in range(10, 15):
        nt = 1 << k
        cb = cost_report(nt)  # n1 = n2 = m = 2^k
        # exact comparator counts at powers of two
        assert cb.ops("initial_sorts") == 2 * _sort_ce_count(2 * nt)
        assert cb.ops("distribute_sort") == 2 * _sort_ce_count(nt)
        assert cb.ops("align_sort") == _sort_ce_count(nt)
        assert cb.ops("distribute_route") == 2 * sum(
            nt - j for j in (1 << t for t in range(k)))
        # closed-form model within 10%, boundary-exact arithmetic
        for ph in NETWORK_PHASES:
            dev = cb.deviation(ph)
            assert isinstance(dev, Fraction)
            assert dev <= Fraction(1, 10), (k, ph, dev)
            worst = max(worst, dev)
        # phase ordering
        o = [cb.ops(ph) for ph in ("initial_sorts", "distribute_sort",
                                   "align_sort", "distribute_route")]
        assert o[0] > o[1] > o[2] > o[3], (k, o)
        lines.append(f"2^{k}")
    record(f"criterion 5 (cost model): PASS — exact pow2 comparator counts, "
           f"max |measured/model - 1| = {worst} <= 1/10, ordering "
           f"initial_sorts > distribute_sort > align_sort > distribute_route "
           f"for n_t in {{{', '.join(lines)}}}")


# -- 6: runtime scaling ---------------------------------------------------------

def test_criterion_6_scaling():
    sizes = [1 << k for k in range(10, 18)]
    # Each size's median over rounds of the whole ladder, not over
    # back-to-back runs: a burst of host load then slows one sample of
    # several sizes rather than every sample of one size.
    rounds = [bench(sizes, reps=1) for _ in range(5)]
    times = np.median([[r.oblivious_s for r in rows] for rows in rounds],
                      axis=0)
    ratios = []
    ok = True
    for n, t_n, t_2n in zip(sizes, times, times[1:]):
        k = n.bit_length() - 1
        bound = 2 * ((k + 1) / k) ** 2 * 1.5
        r = t_2n / t_n
        ratios.append(f"{r:.2f}<={bound:.2f}")
        if r > bound:
            ok = False
    record(f"criterion 6 (n log^2 n scaling): {'PASS' if ok else 'FAIL'} — "
           f"t(2n)/t(n) over n = 2^10..2^17: {', '.join(ratios)}")
    assert ok, f"scaling ratios out of bounds: {ratios}"


def test_criterion_6_soft_million_rows():
    # a million-row join should complete in commodity-hardware time (the
    # engine's headline scale)
    rows = bench([1_000_000], reps=1)
    t = rows[0].oblivious_s
    ok = t < 60.0
    record(f"criterion 6 soft check (n = 10^6): {'PASS' if ok else 'FAIL'} — "
           f"{t:.1f} s")
    assert ok, f"million-row join took {t:.1f} s"


# -- 7: randomized distribution --------------------------------------------------

def test_criterion_7_prp_distribute(criterion_7_placement):
    rng = np.random.default_rng(np.random.SeedSequence([7]))
    runs = 0
    for trial in range(110):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, m + 1))
        f = rng.permutation(m)[:n] + 1
        engine = "scalar" if trial % 9 == 0 else "vector"
        det = oblivious_distribute(
            make_distribute_input(NullSink(), f), m, engine)
        ran = prp_distribute(
            make_distribute_input(NullSink(), f), m, seed=trial)
        a = [(e.f, e.d, e.is_null) for e in det.debug_entries()]
        b = [(e.f, e.d, e.is_null) for e in ran.debug_entries()]
        assert a == b, (n, m, trial)
        runs += 1
    counts, p = criterion_7_placement
    ok = runs >= 100 and p > 0.01
    record(f"criterion 7 (randomized distribution): {'PASS' if ok else 'FAIL'}"
           f" — {runs} seeded runs equal the deterministic output; placement "
           f"chi-square p = {p:.3f} > 0.01 (n=16, m=64, 10^4 seeds)")
    assert ok, f"p = {p}"


# -- 8: CLI round-trip -------------------------------------------------------------

def test_criterion_8_cli_round_trip(capsys):
    valid = sorted(FIXTURES.glob("valid_*.txt"))
    manifest = {
        name: int(line) for name, line in (
            ln.split() for ln in
            (FIXTURES / "malformed_manifest.txt").read_text().splitlines())
    }
    assert len(valid) >= 10
    joined = 0
    for path in valid:
        rc = cli.main(["join", str(path)])
        out = capsys.readouterr().out
        assert rc == 0, path.name
        got = sorted(tuple(map(int, ln.split()))
                     for ln in out.splitlines() if ln)
        want = sorted(tuple(map(int, ln.split()))
                      for ln in path.with_suffix(".expected").read_text()
                      .splitlines() if ln)
        assert got == want, path.name
        joined += 1
    rejected = 0
    for name, line in manifest.items():
        rc = cli.main(["join", str(FIXTURES / name)])
        err = capsys.readouterr().err
        assert rc == 1, name
        assert f"line {line}:" in err, name
        rejected += 1
    record(f"criterion 8 (CLI round-trip): PASS — {joined} fixtures joined "
           f"to expected outputs, {rejected} malformed files rejected with "
           f"line-numbered errors")
