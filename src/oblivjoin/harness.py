"""Verification harness: test classes, trace verification, cost accounting,
benchmarks, and the randomized-distribution uniformity check.

A *test class* fixes the public parameters (n1, n2, m) and carries many
instances that agree on them while differing in everything else: group
structure, key values, payloads, row order.  The engine's contract is that
every instance of a class produces the identical access trace;
verify_trace_class holds it to that by digest comparison.

Shapes name the canonical generator for a class's match structure:

  all-1x1      min(n1,n2) singleton matches               m = min(n1, n2)
  single-1xn   one T1 key matching every T2 row           m = n2
  single-nx1   one T2 key matching every T1 row           m = n1
  power-law    heavy-tailed group dimensions (Zipf theta) m varies
  mixed        a wide group, a tall group, singletons     m varies
  disjoint     no matches at all                          m = 0

Instances beyond the canonical one are derived by m-preserving structure
rewrites (e.g. {a x b1, a x b2}  <->  {a x (b1+b2)} plus a unmatched T1
rows), fresh key relabelings, fresh payloads and row shuffles.  Every
instance's oracle output size is validated at generation time.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .trace import HashSink, LogSink, NullSink, WRITE, alloc
from .pipeline import oblivious_join
from .baseline import sort_merge_join
from .prp import prp_distribute

__all__ = [
    "SHAPES", "InfeasibleShapeError", "TestClass", "gen_test_class",
    "ClassVerdict", "verify_trace_class",
    "CostBreakdown", "cost_report", "NETWORK_PHASES",
    "BenchRow", "bench", "bench_csv",
    "make_distribute_input", "placement_uniformity",
]

SHAPES = ("all-1x1", "single-1xn", "single-nx1", "power-law", "mixed",
          "disjoint")

_ZIPF_THETA = 1.5        # power-law group dimensions
_BENCH_SEED = 0          # row shuffles of bench inputs
_UNIFORMITY_SEED0 = 0    # first PRP seed of placement_uniformity


class InfeasibleShapeError(ValueError):
    """The requested shape cannot be realized at the given sizes."""


@dataclass
class TestClass:
    """Instances sharing the public parameters (n1, n2, m)."""

    n1: int
    n2: int
    m: int
    shape: str
    seed: int
    instances: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Class generation
# --------------------------------------------------------------------------

def _canonical_structure(n1, n2, shape, rng):
    """Group dimension list [(a, b), ...] plus unmatched row counts."""
    if shape == "all-1x1":
        k = min(n1, n2)
        return [(1, 1)] * k, n1 - k, n2 - k
    if shape == "single-1xn":
        if n1 < 1 or n2 < 1:
            raise InfeasibleShapeError(
                f"single-1xn needs a row on each side, got n1={n1} n2={n2}")
        return [(1, n2)], n1 - 1, 0
    if shape == "single-nx1":
        if n1 < 1 or n2 < 1:
            raise InfeasibleShapeError(
                f"single-nx1 needs a row on each side, got n1={n1} n2={n2}")
        return [(n1, 1)], 0, n2 - 1
    if shape == "disjoint":
        return [], n1, n2
    if shape == "power-law":
        if n1 < 1 or n2 < 1:
            raise InfeasibleShapeError(
                f"power-law needs a row on each side, got n1={n1} n2={n2}")
        groups = []
        r1, r2 = n1, n2
        while r1 > 0 and r2 > 0:
            a = min(int(rng.zipf(_ZIPF_THETA)), r1, 64)
            b = min(int(rng.zipf(_ZIPF_THETA)), r2, 64)
            groups.append((a, b))
            r1 -= a
            r2 -= b
            if rng.random() < 0.05:
                break  # leave a tail of unmatched rows now and then
        return groups, r1, r2
    # mixed
    if n1 < 3 or n2 < 3:
        raise InfeasibleShapeError(
            f"mixed needs n1, n2 >= 3, got n1={n1} n2={n2}")
    k1 = max(1, n2 // 3)   # one wide group 1 x k1
    k2 = max(1, n1 // 3)   # one tall group k2 x 1
    groups = [(1, k1), (k2, 1)]
    r1 = n1 - 1 - k2
    r2 = n2 - k1 - 1
    ones = min(r1, r2)
    groups += [(1, 1)] * ones
    return groups, r1 - ones, r2 - ones


def _try_rewrite(groups, u1, u2, rng):
    """One random m-preserving structure rewrite; no-op when the chosen
    rewrite has no candidates.  Rewrites 2 and 3 are rewrites 0 and 1 with
    the two tables' roles swapped."""
    op = int(rng.integers(0, 4))
    if op >= 2:
        groups, u1, u2 = [(b, a) for a, b in groups], u2, u1
    if op % 2 == 0 and len(groups) >= 2:
        # merge two groups sharing a: {(a,b1),(a,b2)} -> (a, b1+b2), frees
        # a T1 rows into the unmatched pool
        by_a = {}
        for idx, (a, _) in enumerate(groups):
            by_a.setdefault(a, []).append(idx)
        pools = [v for v in by_a.values() if len(v) >= 2]
        if pools:
            pool = pools[int(rng.integers(0, len(pools)))]
            pick = rng.choice(len(pool), 2, replace=False)
            i, k = pool[int(pick[0])], pool[int(pick[1])]
            a, b1 = groups[i]
            _, b2 = groups[k]
            groups = [g for t, g in enumerate(groups) if t not in (i, k)]
            groups.append((a, b1 + b2))
            u1 += a
    elif op % 2 == 1:
        # split on b: (a, b) -> (a, b'), (a, b-b'), consumes a unmatched
        # T1 rows
        cands = [t for t, (a, b) in enumerate(groups) if b >= 2 and a <= u1]
        if cands:
            t = cands[int(rng.integers(0, len(cands)))]
            a, b = groups[t]
            cut = int(rng.integers(1, b))
            groups = groups[:t] + groups[t + 1:] + [(a, cut), (a, b - cut)]
            u1 -= a
    if op >= 2:
        groups, u1, u2 = [(b, a) for a, b in groups], u2, u1
    return groups, u1, u2


def _distinct_keys(k, rng):
    while True:
        keys = rng.integers(1, 1 << 48, size=k, dtype=np.uint64)
        if len(np.unique(keys)) == k:
            return keys


def _materialize(groups, u1, u2, rng):
    """Concrete (T1, T2) row arrays for a structure: fresh keys, fresh
    payloads, shuffled row order."""
    ng = len(groups)
    keys = _distinct_keys(ng + u1 + u2, rng)
    a_arr = np.array([a for a, _ in groups], np.int64)
    b_arr = np.array([b for _, b in groups], np.int64)
    gkeys = keys[:ng]
    j1 = np.concatenate([np.repeat(gkeys, a_arr),
                         keys[ng:ng + u1]]).astype(np.uint64)
    j2 = np.concatenate([np.repeat(gkeys, b_arr),
                         keys[ng + u1:]]).astype(np.uint64)
    t1 = np.empty((len(j1), 2), np.uint64)
    t2 = np.empty((len(j2), 2), np.uint64)
    t1[:, 0] = j1[rng.permutation(len(j1))] if len(j1) else j1
    t2[:, 0] = j2[rng.permutation(len(j2))] if len(j2) else j2
    t1[:, 1] = rng.integers(0, 1000, len(j1))
    t2[:, 1] = rng.integers(0, 1000, len(j2))
    return t1, t2


def _oracle_m(t1, t2) -> int:
    c1 = Counter(t1[:, 0].tolist())
    c2 = Counter(t2[:, 0].tolist())
    return sum(v * c2[k] for k, v in c1.items() if k in c2)


def gen_test_class(n1, n2, shape, seed=0, instances=20) -> TestClass:
    """Generate a test class: `instances` structurally diverse inputs all
    agreeing on (n1, n2, m).

    Deterministic in (n1, n2, shape, seed).  Raises InfeasibleShapeError
    when the shape cannot be realized at these sizes.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; known: {SHAPES}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, n1, n2, SHAPES.index(shape)]))
    groups0, u1_0, u2_0 = _canonical_structure(n1, n2, shape, rng)
    m = sum(a * b for a, b in groups0)
    tc = TestClass(n1=n1, n2=n2, m=m, shape=shape, seed=seed)
    for t in range(instances):
        groups, u1, u2 = list(groups0), u1_0, u2_0
        if t > 0:
            for _ in range(int(rng.integers(1, 5))):
                groups, u1, u2 = _try_rewrite(groups, u1, u2, rng)
        t1, t2 = _materialize(groups, u1, u2, rng)
        if len(t1) != n1 or len(t2) != n2 or _oracle_m(t1, t2) != m:
            raise RuntimeError("instance generator broke the class invariant")
        tc.instances.append((t1, t2))
    return tc


# --------------------------------------------------------------------------
# Trace verification
# --------------------------------------------------------------------------

@dataclass
class ClassVerdict:
    passed: bool
    digests: list
    first_divergence: tuple | None  # (i, k) instance indices, or None


def verify_trace_class(tclass: TestClass) -> ClassVerdict:
    """Join every instance of the class and compare trace digests.

    Passes iff all digests agree (a single-instance class passes
    trivially); on failure names the first instance pair that diverges.
    """
    digests = []
    for t1, t2 in tclass.instances:
        sink = HashSink()
        oblivious_join(t1, t2, sink)
        digests.append(sink.hexdigest())
    for i, dg in enumerate(digests):
        if dg != digests[0]:
            return ClassVerdict(False, digests, (0, i))
    return ClassVerdict(True, digests, None)


# --------------------------------------------------------------------------
# Cost accounting
# --------------------------------------------------------------------------

NETWORK_PHASES = ("initial_sorts", "distribute_sort", "distribute_route",
                  "align_sort")


def _closed_form(t: int, coef: Fraction, power: int):
    """coef * t * log2(t)^power (0 for t <= 1), exact when t is a power
    of two."""
    if t <= 1:
        return Fraction(0)
    k = t.bit_length() - 1
    if 1 << k == t:
        return coef * t * k ** power
    return float(coef) * t * math.log2(t) ** power


@dataclass
class CostBreakdown:
    """Per-phase event counts of one join, with model predictions.

    The four network phases emit exactly 4 events per comparator (or per
    routing step), so ops(phase) = events/4 counts network operations.
    Predictions are the cost model's closed forms:

        initial_sorts     n log2(n)^2 / 2          (n = n1 + n2)
        distribute_sort   sum_t n_t log2(n_t)^2 / 4
        distribute_route  2 m log2(m)
        align_sort        m log2(m)^2 / 4
    """

    n1: int
    n2: int
    m: int
    events_by_phase: dict

    @property
    def total_events(self) -> int:
        return sum(self.events_by_phase.values())

    def ops(self, phase: str) -> int:
        ev = self.events_by_phase.get(phase, 0)
        assert ev % 4 == 0, f"phase {phase} is not all 4-event operations"
        return ev // 4

    def predicted(self, phase: str):
        """The phase's closed form: an exact Fraction when every size it
        reads is a power of two, else a float."""
        n1, n2, m = self.n1, self.n2, self.m
        if phase == "initial_sorts":
            return _closed_form(n1 + n2, Fraction(1, 2), 2)
        if phase == "distribute_sort":
            return (_closed_form(n1, Fraction(1, 4), 2)
                    + _closed_form(n2, Fraction(1, 4), 2))
        if phase == "distribute_route":
            return _closed_form(m, Fraction(2), 1)
        if phase == "align_sort":
            return _closed_form(m, Fraction(1, 4), 2)
        raise ValueError(f"no model prediction for phase {phase!r}")

    def deviation(self, phase: str):
        """|measured/model - 1|, exact when the model value is."""
        pred = self.predicted(phase)
        return abs(self.ops(phase) / pred - 1) if pred else float("inf")

    def shares(self) -> dict:
        tot = self.total_events
        if tot == 0:
            return {}
        return {ph: ev / tot
                for ph, ev in sorted(self.events_by_phase.items(),
                                     key=lambda kv: -kv[1])}

    def summary_lines(self) -> list:
        lines = [f"n1={self.n1} n2={self.n2} m={self.m} "
                 f"total events={self.total_events}"]
        for ph in NETWORK_PHASES:
            ops = self.ops(ph)
            pred = float(self.predicted(ph))
            dev = float(self.deviation(ph)) if pred else float("nan")
            lines.append(f"  {ph:17s} ops={ops:<12d} model={pred:<14.1f} "
                         f"deviation={dev:.4f}")
        lines.append("  event shares: " + ", ".join(
            f"{ph}={fr:.1%}" for ph, fr in self.shares().items()))
        return lines


def _cost_instance(n1: int, n2: int, m: int):
    """Deterministic instance with m singleton matches (needs
    m <= min(n1, n2)); the remaining rows are unmatched."""
    if m > min(n1, n2):
        raise InfeasibleShapeError(
            f"cost instance needs m <= min(n1, n2), got {m} > "
            f"{min(n1, n2)}")
    t1 = np.empty((n1, 2), np.uint64)
    t2 = np.empty((n2, 2), np.uint64)
    t1[:, 0] = np.arange(1, n1 + 1)
    t2[:, 0] = np.concatenate([np.arange(1, m + 1),
                               np.arange(n1 + 1, n1 + 1 + (n2 - m))])
    t1[:, 1] = np.arange(n1)
    t2[:, 1] = np.arange(n2)
    return t1, t2


def cost_report(n1: int, n2: int | None = None,
                m: int | None = None) -> CostBreakdown:
    """Run one join on a deterministic instance and break its trace down
    by phase.  Defaults: n2 = n1, m = min(n1, n2)."""
    n2 = n1 if n2 is None else n2
    m = min(n1, n2) if m is None else m
    t1, t2 = _cost_instance(n1, n2, m)
    sink = NullSink()
    res = oblivious_join(t1, t2, sink)
    assert res.m == m
    return CostBreakdown(n1, n2, m, dict(sink.counts))


# --------------------------------------------------------------------------
# Benchmark
# --------------------------------------------------------------------------

@dataclass
class BenchRow:
    n: int
    m: int
    oblivious_s: float
    sortmerge_s: float
    events: int


def bench(sizes, reps: int = 3) -> list:
    """Time the oblivious join against the sort-merge baseline.

    For each total size n: n1 = n2 = n/2 with m = n/2 matches.  Times are
    medians of `reps` runs against a null sink; `events` is the total
    trace length, counted by the last of those sinks.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rng = np.random.default_rng(_BENCH_SEED)
    rows = []
    for n in sizes:
        n1 = n // 2
        n2 = n - n1
        m = n // 2
        t1, t2 = _cost_instance(n1, n2, m)
        t1 = t1[rng.permutation(n1)]
        t2 = t2[rng.permutation(n2)]
        obl = []
        for _ in range(reps):
            sink = NullSink()
            tic = time.perf_counter()
            oblivious_join(t1, t2, sink)
            obl.append(time.perf_counter() - tic)
        sm = []
        for _ in range(reps):
            tic = time.perf_counter()
            sort_merge_join(t1, t2)
            sm.append(time.perf_counter() - tic)
        rows.append(BenchRow(n=n, m=m,
                             oblivious_s=float(np.median(obl)),
                             sortmerge_s=float(np.median(sm)),
                             events=sum(sink.counts.values())))
    return rows


def bench_csv(rows) -> str:
    out = ["n,m,oblivious_s,sortmerge_s,events"]
    for r in rows:
        out.append(f"{r.n},{r.m},{r.oblivious_s:.6f},{r.sortmerge_s:.6f},"
                   f"{r.events}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Randomized-distribution support
# --------------------------------------------------------------------------

def make_distribute_input(sink, f_values):
    """Public input array for the distribution primitives.

    f_values, of shape (n,), are 1-based destinations; payload d is the
    entry's input position.  Setting up inputs is not part of any
    algorithm's trace, so this writes the columns directly.  ValueError
    if f_values is not one-dimensional.
    """
    f = np.asarray(f_values, np.uint64)
    if f.ndim != 1:
        raise ValueError(f"f_values must be one-dimensional, got shape "
                         f"{f.shape}")
    n = len(f)
    x = alloc(n, sink)
    x.col("f")[:] = f
    x.col("d")[:] = np.arange(n, dtype=np.uint64)
    x.col("j")[:] = np.arange(n, dtype=np.uint64)
    x.col("is_null")[:] = 0
    return x


def placement_uniformity(n: int, m: int, n_seeds: int) -> tuple:
    """Chi-square uniformity test of the randomized placement positions.

    Runs prp_distribute on one fixed input under n_seeds different seeds,
    tallies where the placement writes land, and tests the histogram
    against uniform.  Returns (counts, p_value).
    """
    if m < 2 or n < 1 or n_seeds < 1:
        raise ValueError(f"placement_uniformity needs m >= 2, n >= 1 and "
                         f"n_seeds >= 1, got m={m} n={n} n_seeds={n_seeds}")
    f_values = np.arange(1, n + 1, dtype=np.uint64)
    counts = np.zeros(m, np.int64)
    for s in range(n_seeds):
        sink = LogSink()
        x = make_distribute_input(sink, f_values)
        out = prp_distribute(x, m, seed=_UNIFORMITY_SEED0 + s)
        aids, ops, idxs = sink.event_arrays("prp_place")
        hits = idxs[(ops == WRITE) & (aids == out.array_id)]
        counts += np.bincount(hits.astype(np.int64), minlength=m)
    expected = n * n_seeds / m
    stat = float(((counts - expected) ** 2).sum() / expected)
    return counts, _chi2_sf(stat, m - 1)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with dof degrees of freedom.

    This is Q(dof/2, x/2), the regularized upper incomplete gamma
    function, in closed form: with h = x/2 it is the sum of
    h^i e^-h / Gamma(i+1) over i = 0, 1, ..., dof/2 - 1 for an even dof,
    and erfc(sqrt(h)) plus the same sum over i = 1/2, 3/2, ..., dof/2 - 1
    for an odd one.  Each term is taken as one exp of its logarithm, so
    neither h^i nor e^-h overflows or underflows on its own.
    """
    h = x / 2
    if h <= 0:
        return 1.0
    i0 = dof % 2 / 2
    log_h = math.log(h)
    terms = [math.exp((i0 + k) * log_h - h - math.lgamma(i0 + k + 1))
             for k in range(dof // 2)]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))  # rounded terms can sum past 1
