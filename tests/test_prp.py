"""Keyed small-domain permutation and the randomized distribution."""

import numpy as np
import pytest

from oblivjoin.harness import make_distribute_input
from oblivjoin.prp import SmallDomainPrp, prp_distribute
from oblivjoin.primitives import oblivious_distribute
from oblivjoin.trace import HashSink, LogSink, NullSink


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100, 1000])
def test_forward_is_a_bijection(m):
    prp = SmallDomainPrp(m, seed=5)
    img = {prp.forward(v) for v in range(m)}
    assert img == set(range(m))


@pytest.mark.parametrize("m", [1, 2, 5, 64, 257])
def test_inverse_inverts(m):
    prp = SmallDomainPrp(m, seed=9)
    for v in range(m):
        assert prp.inverse(prp.forward(v)) == v
        assert prp.forward(prp.inverse(v)) == v


def test_seed_changes_the_permutation():
    m = 50
    perms = {tuple(SmallDomainPrp(m, s).forward(v) for v in range(m))
             for s in range(12)}
    assert len(perms) > 1
    # and the same seed reproduces it
    a = [SmallDomainPrp(m, 3).forward(v) for v in range(m)]
    b = [SmallDomainPrp(m, 3).forward(v) for v in range(m)]
    assert a == b


def test_domain_checks():
    prp = SmallDomainPrp(4, 0)
    with pytest.raises(ValueError):
        prp.forward(4)
    with pytest.raises(ValueError):
        prp.inverse(-1)
    with pytest.raises(ValueError):
        SmallDomainPrp(0, 0)


def test_seed_checks():
    # the seed is hashed as 8 bytes, so it must fit in [0, 2^64)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            SmallDomainPrp(4, seed)
    prp = SmallDomainPrp(4, (1 << 64) - 1)
    assert sorted(prp.forward(v) for v in range(4)) == [0, 1, 2, 3]
    # prp_distribute checks it before any access, also when m = 0 leaves
    # no domain to permute
    for seed in (-1, 1 << 64):
        for f, m in (([], 0), ([1], 1)):
            s = LogSink()
            with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
                prp_distribute(make_distribute_input(s, f), m, seed=seed)
            assert len(s) == 0


def out_state(a):
    return [(e.f, e.d, e.is_null) for e in a.debug_entries()]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_randomized_equals_deterministic_output(engine, rng):
    cases = []
    for _ in range(25):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, m + 1))
        cases.append((rng.permutation(m)[:n] + 1, m))
    # n = 0, which the draws never give, at m = 0 and at m > 0
    cases += [(np.zeros(0, np.uint64), m) for m in (0, 1, 7)]
    for trial, (f, m) in enumerate(cases):
        det = oblivious_distribute(make_distribute_input(NullSink(), f), m,
                                   engine)
        ran = prp_distribute(make_distribute_input(NullSink(), f), m,
                             seed=trial)
        assert out_state(ran) == out_state(det)


def test_seed_varies_placement_but_not_result(rng):
    f = np.arange(1, 9)
    placements, results = set(), set()
    for seed in range(10):
        s = LogSink()
        x = make_distribute_input(s, f)
        out = prp_distribute(x, 12, seed=seed)
        _, ops, idxs = s.event_arrays("prp_place")
        placements.add(tuple(idxs[ops == 1].tolist()))
        results.add(tuple(out_state(out)))
    assert len(results) == 1
    assert len(placements) > 1  # the data-dependent part moves with the seed


def test_post_placement_trace_is_fixed(rng):
    # everything after the placement phase is a deterministic pattern of m
    tails = set()
    for seed in range(6):
        s = LogSink()
        x = make_distribute_input(s, np.arange(1, 6))
        prp_distribute(x, 9, seed=seed)
        tail = [(ph, ev.op, ev.index) for ph, ev in s.events_tagged()
                if ph not in ("prp_place",)]
        tails.add(tuple(tail))
    assert len(tails) == 1


def test_rejects_more_entries_than_slots():
    x = make_distribute_input(NullSink(), [1, 2, 3])
    with pytest.raises(ValueError, match="n <= m"):
        prp_distribute(x, 2, seed=0)


def test_rejects_a_null_entry_before_any_access():
    # oblivious_distribute skips a null entry, leaving its slot clean;
    # prp_distribute would place it, so it takes none
    s = LogSink()
    x = make_distribute_input(s, [3, 1, 2])
    x.col("is_null")[1] = 1
    with pytest.raises(ValueError, match="null"):
        prp_distribute(x, 3, seed=0)
    assert len(s) == 0
