"""Verification harness: class generation, trace verdicts, cost model."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oblivjoin
from oblivjoin.baseline import nested_loop_join
from oblivjoin.harness import (
    SHAPES,
    _chi2_sf,
    CostBreakdown,
    InfeasibleShapeError,
    bench,
    bench_csv,
    cost_report,
    gen_test_class,
    make_distribute_input,
    placement_uniformity,
    verify_trace_class,
)
from oblivjoin.trace import LogSink


@pytest.mark.parametrize("shape", SHAPES)
def test_gen_class_invariants(shape):
    tc = gen_test_class(12, 15, shape, seed=3, instances=6)
    assert tc.shape == shape
    assert len(tc.instances) == 6
    for t1, t2 in tc.instances:
        assert t1.shape == (12, 2)
        assert t2.shape == (15, 2)
        # every instance realizes the class's public m
        assert len(nested_loop_join(t1, t2)) == tc.m


def test_gen_class_is_reproducible():
    a = gen_test_class(10, 10, "power-law", seed=7, instances=3)
    b = gen_test_class(10, 10, "power-law", seed=7, instances=3)
    for (x1, x2), (y1, y2) in zip(a.instances, b.instances):
        assert np.array_equal(x1, y1)
        assert np.array_equal(x2, y2)
    c = gen_test_class(10, 10, "power-law", seed=8, instances=3)
    assert not all(np.array_equal(x[0], y[0])
                   for x, y in zip(a.instances, c.instances))


def test_gen_class_instances_differ_but_share_m():
    tc = gen_test_class(20, 20, "mixed", seed=1, instances=8)
    ms = {len(nested_loop_join(t1, t2)) for t1, t2 in tc.instances}
    assert ms == {tc.m}
    firsts = {t1.tobytes() for t1, _ in tc.instances}
    assert len(firsts) > 1


def test_infeasible_shape_raises():
    with pytest.raises(InfeasibleShapeError):
        gen_test_class(0, 5, "single-1xn", seed=0, instances=2)
    with pytest.raises(InfeasibleShapeError):
        gen_test_class(2, 2, "mixed", seed=0, instances=2)
    with pytest.raises(InfeasibleShapeError, match="single-nx1"):
        gen_test_class(0, 5, "single-nx1", seed=0, instances=2)
    with pytest.raises(InfeasibleShapeError, match="power-law"):
        gen_test_class(0, 5, "power-law", seed=0, instances=2)


def test_unknown_shape_raises():
    with pytest.raises(ValueError, match="unknown shape 'square'"):
        gen_test_class(4, 4, "square", seed=0, instances=2)


@pytest.mark.parametrize("shape", SHAPES)
def test_verify_trace_class_passes(shape):
    tc = gen_test_class(9, 11, shape, seed=5, instances=5)
    v = verify_trace_class(tc)
    assert v.passed
    assert v.first_divergence is None
    assert len(set(v.digests)) == 1


def test_verify_trace_class_catches_divergence():
    # splice an instance with a different m into the class: its trace must
    # diverge and be reported
    tc = gen_test_class(6, 6, "all-1x1", seed=2, instances=3)
    rogue = gen_test_class(6, 6, "disjoint", seed=2, instances=1)
    tc.instances[2] = rogue.instances[0]
    v = verify_trace_class(tc)
    assert not v.passed
    assert v.first_divergence == (0, 2)


# -- cost model ---------------------------------------------------------------

def test_cost_report_structure():
    cb = cost_report(32, 32, 32)
    assert isinstance(cb, CostBreakdown)
    assert cb.total_events > 0
    # network phases decompose into 4-event operations
    for ph in ("initial_sorts", "distribute_sort", "distribute_route",
               "align_sort"):
        assert cb.ops(ph) > 0


def test_cost_exact_counts_at_powers_of_two():
    # comparator counts are the classical closed forms at powers of two
    cb = cost_report(32, 32, 32)
    # initial sorts: two sorts of n = 64 -> 2 * 64*6*7/4, model n lg^2 n / 2
    assert cb.ops("initial_sorts") == 2 * (64 * 6 * 7) // 4
    # distribute sorts: one length-32 sort per table
    assert cb.ops("distribute_sort") == 2 * (32 * 5 * 6) // 4
    # route: two length-32 routings, sum over hops of (m - j)
    assert cb.ops("distribute_route") == 2 * sum(32 - j for j in (16, 8, 4, 2, 1))
    # align: one length-32 sort
    assert cb.ops("align_sort") == (32 * 5 * 6) // 4


def test_cost_deviation_is_exact_fraction_at_pow2():
    cb = cost_report(32, 32, 32)
    dev = cb.deviation("align_sort")
    assert isinstance(dev, Fraction)
    # measured 32*5*6/4 vs model 32*25/4: |6/5 - 1| = 1/5
    assert dev == Fraction(1, 5)


def test_cost_model_is_float_off_powers_of_two():
    cb = cost_report(16, 12, 8)
    # n = 28 and n2 = 12 are not powers of two; m = 8 is
    assert cb.predicted("initial_sorts") == pytest.approx(
        28 * math.log2(28) ** 2 / 2)
    assert isinstance(cb.predicted("distribute_sort"), float)
    assert cb.predicted("distribute_sort") == pytest.approx(
        16 * 4 ** 2 / 4 + 12 * math.log2(12) ** 2 / 4)
    assert cb.predicted("align_sort") == Fraction(8 * 9, 4)
    assert isinstance(cb.deviation("initial_sorts"), float)
    assert isinstance(cb.deviation("align_sort"), Fraction)


def test_cost_report_needs_m_within_the_smaller_table():
    with pytest.raises(InfeasibleShapeError, match="m <= min"):
        cost_report(4, 4, 5)


def test_cost_model_has_no_prediction_for_a_linear_phase():
    with pytest.raises(ValueError, match="'zip'"):
        cost_report(8).predicted("zip")


def test_cost_report_defaults():
    cb = cost_report(16)
    assert (cb.n1, cb.n2, cb.m) == (16, 16, 16)


def test_cost_summary_lines_render():
    lines = cost_report(8).summary_lines()
    assert any("initial_sorts" in ln for ln in lines)
    assert lines[0].startswith("n1=8")


def test_cost_shares_sum_to_one():
    cb = cost_report(16, 16, 8)
    assert abs(sum(cb.shares().values()) - 1.0) < 1e-9


# -- bench --------------------------------------------------------------------

def test_bench_rows_and_csv():
    rows = bench([64, 128], reps=1)
    assert [r.n for r in rows] == [64, 128]
    assert all(r.oblivious_s > 0 and r.sortmerge_s > 0 for r in rows)
    # the event total is a function of (n1, n2, m) alone
    assert [r.events for r in rows] == [
        cost_report(n // 2, n - n // 2, n // 2).total_events
        for n in (64, 128)]
    csv = bench_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,m,oblivious_s,sortmerge_s,events"
    assert len(lines) == 3


def test_bench_needs_a_rep():
    with pytest.raises(ValueError, match="reps"):
        bench([64], reps=0)


# -- randomized placement -----------------------------------------------------

def test_distribute_input_is_one_dimensional():
    # a public array is one row of slots, so a 2-D f is refused before
    # anything is allocated
    s = LogSink()
    for f in ([[1, 2], [2, 1]], np.ones((1, 3), np.uint64), 3):
        with pytest.raises(ValueError, match="one-dimensional"):
            make_distribute_input(s, f)
    assert (s.peak_entries, len(s)) == (0, 0)
    x = make_distribute_input(s, [2, 1])
    assert x.debug_col("f").tolist() == [2, 1]
    assert x.debug_col("d").tolist() == [0, 1]


def test_placement_uniformity_returns_counts_and_pvalue():
    counts, p = placement_uniformity(4, 16, n_seeds=40)
    assert counts.sum() == 4 * 40
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("n, m, n_seeds", [(1, 1, 10), (0, 16, 10),
                                           (4, 16, 0)])
def test_placement_uniformity_rejects_inputs_with_no_test(n, m, n_seeds):
    # one bin, or no placement at all, leaves nothing to test
    with pytest.raises(ValueError):
        placement_uniformity(n, m, n_seeds)


def test_import_leaves_scipy_out():
    src = Path(oblivjoin.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import oblivjoin, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, check=True)


CHI2_DOFS = [1, 2, 3, 4, 5, 15, 16, 63, 64, 255, 1000, 1023, 3000, 4095]


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in CHI2_DOFS:
        xs = np.linspace(0, 5 * dof + 200, 201)
        want = stats.chi2.sf(xs, dof)
        got = [_chi2_sf(float(x), dof) for x in xs]
        # below the smallest normal float scipy returns 0 where the sum
        # still holds a subnormal
        assert got == pytest.approx(want, rel=1e-9,
                                    abs=sys.float_info.min), dof


def test_placement_pvalue_matches_scipy(criterion_7_placement):
    stats = pytest.importorskip("scipy.stats")
    counts, p = criterion_7_placement
    assert p == pytest.approx(stats.chisquare(counts).pvalue, rel=1e-9)


# SHA-256 over (m, T1, T2) of every instance of every shape at these sizes
# and seeds; infeasible classes are skipped.  A rewrite of the instance
# generator must leave it unchanged.  It depends on numpy's Generator
# streams, which a numpy feature release may change.
INSTANCE_SIZES = [(1, 1), (3, 3), (5, 8), (12, 15), (20, 20), (33, 17)]
GOLDEN_INSTANCES = \
    "e1ef968babc48414bc083c9689b0c6fd24659039adfcd1cd1194390900d76c2d"


def test_gen_class_instances_digest():
    h = hashlib.sha256()
    for shape in SHAPES:
        for n1, n2 in INSTANCE_SIZES:
            for seed in range(5):
                try:
                    tc = gen_test_class(n1, n2, shape, seed, instances=12)
                except InfeasibleShapeError:
                    continue
                h.update(tc.m.to_bytes(8, "little"))
                for t1, t2 in tc.instances:
                    h.update(t1.tobytes() + t2.tobytes())
    assert h.hexdigest() == GOLDEN_INSTANCES
