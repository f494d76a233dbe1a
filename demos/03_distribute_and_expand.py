"""The two data movers under the join: distribution and expansion.

Distribution scatters the non-null entries of an n-entry array into m
slots so entry x lands exactly at slot f(x)-1, touching a fixed sequence
of slot pairs that depends only on (n, m).  Null entries are skipped, so
n may exceed m.  Expansion replaces each entry with alpha copies
(alpha public per run only in total: sum(alpha) = m), again with a fixed
access pattern.  A seeded variant routes through a random permutation
first; the output is identical, only the internal placement moves.
"""

import numpy as np

from oblivjoin import (
    LogSink,
    NullSink,
    make_distribute_input,
    oblivious_distribute,
    oblivious_expand,
    prp_distribute,
)

# -- distribution: place entries 1..4 at slots 5,1,8,4 of an 8-slot array
f = np.array([5, 1, 8, 4], np.uint64)
out = oblivious_distribute(make_distribute_input(NullSink(), f), m=8)
slots = ["." if e.is_null else str(e.f) for e in out.debug_entries()]
print("destinations f =", f.tolist())
print("slots after distribute:", " ".join(slots))
for x, dest in enumerate(f):
    e = out.debug_entries()[int(dest) - 1]
    assert not e.is_null and e.d == x, "A[f(x)-1] must hold entry x"

# the access pattern is a pure function of (n, m): log the slot pairs
sink = LogSink()
oblivious_distribute(make_distribute_input(sink, f), m=8)
routed = sink.event_arrays("distribute_route")[2]
print(f"route phase touches {len(routed)} fixed positions "
      f"(same for every f with n=4, m=8)")

# -- null entries are skipped, so n may exceed m: of five inputs only
#    the two non-null ones (destinations 3 and 1) count against m = 3
f_nulls = np.array([3, 0, 0, 1, 0], np.uint64)
x = make_distribute_input(NullSink(), f_nulls)
x.col("is_null")[:] = f_nulls == 0
out = oblivious_distribute(x, m=3)
got = [None if e.is_null else (e.f, e.d) for e in out.debug_entries()]
print("n=5 inputs, 3 of them null, into m=3 slots:", got)
assert out.length == 3
assert got == [(1, 3), None, (3, 0)], "nulls skipped, live entries at f-1"

# -- seeded distribution: same result through a random permutation
det = oblivious_distribute(make_distribute_input(NullSink(), f), m=8)
for seed in (1, 2, 3):
    ran = prp_distribute(make_distribute_input(NullSink(), f), m=8, seed=seed)
    assert ([ (e.f, e.d, e.is_null) for e in ran.debug_entries() ]
            == [ (e.f, e.d, e.is_null) for e in det.debug_entries() ])
print("prp_distribute(seed=1..3) all equal the deterministic placement")

# -- expansion: copy counts (3, 0, 1) over 3 entries -> m=4 slots
counts = np.array([3, 0, 1], np.uint64)
src = make_distribute_input(NullSink(), np.zeros_like(counts))
src.col("alpha1")[:] = counts
expanded = oblivious_expand(src, "alpha1")
d = [e.d for e in expanded.debug_entries()]
print("copy counts", counts.tolist(), "->  source positions", d)
assert d == [0, 0, 0, 2], "entry 0 three times, entry 1 dropped, entry 2 once"
print("expansion matches np.repeat semantics with an oblivious trace")
