"""The oblivious equi-join pipeline.

Stages, in trace order:

  load            write both input tables into one augmented array T_C
  initial_sorts   sort T_C by (j, tid); later by (tid, j, d)
  fill_dimensions one forward and one backward linear pass computing each
                  key group's dimensions (alpha1 x alpha2) and the output
                  size m = sum over groups of alpha1*alpha2
  expansion       each table region is expanded obliviously: T1 rows to
                  alpha2 copies (-> S1), T2 rows to alpha1 copies (-> S2)
  align           S2's copies are re-indexed (ii) and sorted so that row i
                  of S2 is the partner of row i of S1
  zip/output      d2 is zipped into S1's ii attribute and the m output
                  pairs are read back out

The public size m is revealed only by the expansion's distribute step,
whose first m-dependent access comes after an allocation of m slots has
been made; everything before that point is a pure function of (n1, n2).
Peak live public entries are exactly (n1+n2) + max(n1,m) + max(n2,m): the
output is zipped into S1 rather than a separate table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entries import (AugEntry, KEY_J_II, KEY_J_TID, KEY_TID_J_D, ct_eq,
                      ct_select)
from .trace import (NullSink, PublicArray, READ, TraceSink, WRITE, alloc,
                    emit_steps)
from .primitives import _check_engine, bitonic_sort, oblivious_expand
from .tablefile import as_rows

__all__ = ["JoinResult", "augment_tables", "fill_dimensions", "align_table",
           "oblivious_join"]


@dataclass(frozen=True)
class JoinResult:
    """Join output: m payload pairs (d1, d2) plus the public sizes."""

    n1: int
    n2: int
    m: int
    pairs: np.ndarray  # shape (m, 2), uint64

    def rows(self) -> list[tuple[int, int]]:
        return [(int(a), int(b)) for a, b in self.pairs]


# --------------------------------------------------------------------------
# Stage 1: combined table and group dimensions
# --------------------------------------------------------------------------

def _load(tc: PublicArray, t1: np.ndarray, t2: np.ndarray, engine: str) -> None:
    n1, n2 = len(t1), len(t2)
    if engine == "scalar":
        for i in range(n1):
            tc.write(i, AugEntry(j=int(t1[i, 0]), d=int(t1[i, 1]), tid=1))
        for i in range(n2):
            tc.write(n1 + i, AugEntry(j=int(t2[i, 0]), d=int(t2[i, 1]), tid=2))
        return
    tc.col("j")[:n1] = t1[:, 0]
    tc.col("d")[:n1] = t1[:, 1]
    tc.col("tid")[:n1] = 1
    tc.col("j")[n1:] = t2[:, 0]
    tc.col("d")[n1:] = t2[:, 1]
    tc.col("tid")[n1:] = 2
    tc.col("is_null")[:] = 0
    emit_steps((tc, WRITE, np.arange(n1 + n2, dtype=np.int64)))


def fill_dimensions(tc: PublicArray, engine: str = "vector") -> int:
    """Annotate every entry with its key group's (alpha1, alpha2).

    Expects tc sorted by (j, tid).  One forward pass accumulates the
    running per-group counts and the output size m; one backward pass
    propagates each group's final dimensions to all its entries.  Both
    passes read and write every slot unconditionally.  Returns m.
    """
    _check_engine(engine)
    sink = tc.sink
    n = tc.length
    with sink.phase_scope("fill_dimensions"):
        if engine == "scalar":
            return _fill_dimensions_scalar(tc, n)
        return _fill_dimensions_vector(tc, n)


def _fill_dimensions_scalar(tc: PublicArray, n: int) -> int:
    m_acc = 0
    a1 = 0
    a2 = 0
    pj = 0
    for i in range(n):
        e = tc.read(i)
        same = ct_eq(e.j, pj) if i > 0 else 0
        m_acc += (1 - same) * (a1 * a2)
        a1 = same * a1
        a2 = same * a2
        is2 = e.tid - 1
        a1 += 1 - is2
        a2 += is2
        e.alpha1 = a1
        e.alpha2 = a2
        tc.write(i, e)
        pj = e.j
    m_acc += a1 * a2
    na1 = 0
    na2 = 0
    pj = 0
    for i in range(n - 1, -1, -1):
        e = tc.read(i)
        last = 1 - (ct_eq(e.j, pj) if i < n - 1 else 0)
        na1 = ct_select(last, e.alpha1, na1)
        na2 = ct_select(last, e.alpha2, na2)
        e.alpha1 = na1
        e.alpha2 = na2
        tc.write(i, e)
        pj = e.j
    return m_acc


def _key_groups(j: np.ndarray):
    """(new, start, arange(n)) for a key column of n > 0 slots: new marks
    the first slot of each run of equal keys, start is the first slot of
    each slot's run."""
    new = np.ones(len(j), bool)
    new[1:] = j[1:] != j[:-1]
    ar = np.arange(len(j), dtype=np.int64)
    return new, np.maximum.accumulate(np.where(new, ar, 0)), ar


def _fill_dimensions_vector(tc: PublicArray, n: int) -> int:
    if n == 0:
        return 0
    tid = tc.col("tid")
    new, start, ar = _key_groups(tc.col("j"))
    is1 = (tid == 1).astype(np.uint64)
    is2 = (tid == 2).astype(np.uint64)
    c1 = np.cumsum(is1, dtype=np.uint64)
    c2 = np.cumsum(is2, dtype=np.uint64)
    g1 = c1 - (c1[start] - is1[start])  # running alpha1 in the group
    g2 = c2 - (c2[start] - is2[start])
    is_last = np.empty_like(new)
    is_last[:-1] = new[1:]
    is_last[-1] = True
    m = int((g1 * g2 * is_last.astype(np.uint64)).sum())
    # index of each entry's group-final slot, for the backward propagation
    lidx = np.minimum.accumulate(np.where(is_last, ar, n)[::-1])[::-1]
    tc.col("alpha1")[:] = g1[lidx]
    tc.col("alpha2")[:] = g2[lidx]
    emit_steps((tc, READ, ar), (tc, WRITE, ar))
    emit_steps((tc, READ, ar[::-1]), (tc, WRITE, ar[::-1]))
    return m


def augment_tables(t1_rows, t2_rows, sink: TraceSink,
                   engine: str = "vector"):
    """Build and annotate the combined table.

    Returns (tc, t1_region, t2_region, m): tc holds both tables sorted by
    (tid, j, d), the regions are views of its two halves, and m is the
    join output size.
    """
    _check_engine(engine)
    t1 = as_rows(t1_rows)
    t2 = as_rows(t2_rows)
    n1, n2 = len(t1), len(t2)
    tc = alloc(n1 + n2, sink)
    with sink.phase_scope("load"):
        _load(tc, t1, t2, engine)
    with sink.phase_scope("initial_sorts"):
        bitonic_sort(tc, KEY_J_TID, engine)
    m = fill_dimensions(tc, engine)
    with sink.phase_scope("initial_sorts"):
        bitonic_sort(tc, KEY_TID_J_D, engine)
    return tc, tc.view(0, n1), tc.view(n1, n2), m


# --------------------------------------------------------------------------
# Stage 2: expansion and alignment
# --------------------------------------------------------------------------

def align_table(s2: PublicArray, engine: str = "vector") -> None:
    """Reorder S2 in place so its row i partners S1's row i.

    Within each key group of size alpha1 x alpha2, the q-th copy (0-based)
    is sent to slot floor(q/alpha1) + (q mod alpha1)*alpha2: S1 repeats
    each of its alpha1 rows alpha2 times in a row, so S2 must cycle
    through its alpha2 distinct rows alpha1 times.
    """
    _check_engine(engine)
    sink = s2.sink
    with sink.phase_scope("align_pass"):
        if engine == "scalar":
            _align_pass_scalar(s2)
        else:
            _align_pass_vector(s2)
    with sink.phase_scope("align_sort"):
        bitonic_sort(s2, KEY_J_II, engine)


def _align_pass_scalar(s2: PublicArray) -> None:
    q = 0
    pj = 0
    for i in range(s2.length):
        e = s2.read(i)
        same = ct_eq(e.j, pj) if i > 0 else 0
        q = ct_select(same, q + 1, 0)
        e.ii = q // e.alpha1 + (q % e.alpha1) * e.alpha2
        s2.write(i, e)
        pj = e.j


def _align_pass_vector(s2: PublicArray) -> None:
    m = s2.length
    if m == 0:
        return
    _, start, ar = _key_groups(s2.col("j"))
    q = (ar - start).astype(np.uint64)
    c = s2.col("alpha1")
    b = s2.col("alpha2")
    if not (c > 0).all():
        raise ValueError("align requires alpha1 >= 1 on every entry")
    s2.col("ii")[:] = q // c + (q % c) * b
    emit_steps((s2, READ, ar), (s2, WRITE, ar))


# --------------------------------------------------------------------------
# Stage 3: zip and output
# --------------------------------------------------------------------------

def _zip_pass(s1: PublicArray, s2: PublicArray, engine: str) -> None:
    m = s1.length
    if engine == "scalar":
        for i in range(m):
            e1 = s1.read(i)
            e2 = s2.read(i)
            e1.ii = e2.d
            s1.write(i, e1)
        return
    s1.col("ii")[:] = s2.col("d")
    ar = np.arange(m, dtype=np.int64)
    emit_steps((s1, READ, ar), (s2, READ, ar), (s1, WRITE, ar))


def _extract(s1: PublicArray, engine: str) -> np.ndarray:
    m = s1.length
    out = np.empty((m, 2), np.uint64)
    if engine == "scalar":
        for i in range(m):
            e = s1.read(i)
            out[i, 0] = e.d
            out[i, 1] = e.ii
        return out
    out[:, 0] = s1.col("d")
    out[:, 1] = s1.col("ii")
    emit_steps((s1, READ, np.arange(m, dtype=np.int64)))
    return out


# --------------------------------------------------------------------------
# The whole pipeline
# --------------------------------------------------------------------------

def oblivious_join(t1_rows, t2_rows, sink: TraceSink | None = None,
                   engine: str = "vector") -> JoinResult:
    """Equi-join two (j, d) tables obliviously.

    Returns the m matching payload pairs (d1, d2).  Every public-memory
    access of the run goes to `sink`; for fixed (n1, n2, m) the emitted
    sequence is identical across all inputs, which is the engine's
    security contract (and what the verification harness checks).

    T1 rows are expanded to alpha2 copies each and T2 rows to alpha1
    copies, so both expansions have length m.  Their distributions check
    the routing as every distribution does.  engine="scalar" runs the
    one-entry-at-a-time reference the tests hold the vector engine to.
    """
    if sink is None:
        sink = NullSink()
    tc, t1v, t2v, m = augment_tables(t1_rows, t2_rows, sink, engine)
    s1 = oblivious_expand(t1v, "alpha2", engine)
    s2 = oblivious_expand(t2v, "alpha1", engine)
    tc.release()
    if not (s1.length == s2.length == m):
        raise AssertionError("expansion lengths disagree with m")
    align_table(s2, engine)
    with sink.phase_scope("zip"):
        _zip_pass(s1, s2, engine)
    with sink.phase_scope("output"):
        pairs = _extract(s1, engine)
    s1.release()
    s2.release()
    return JoinResult(n1=t1v.length, n2=t2v.length, m=m, pairs=pairs)
