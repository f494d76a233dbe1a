"""Oblivious building blocks: compare-exchange, sorting network,
distribution, expansion.

Every routine here touches public memory in a pattern that is a pure
function of its public sizes — never of entry contents.  Two engines share
each schedule: "scalar" is the literal one-entry-at-a-time reference
(every write goes through ct_select, every comparator performs its two
reads and two writes unconditionally), "vector" applies whole schedule
levels across the batch axis.  Both emit identical traces; the tests hold
them to that.

The vector sort runs each compare-exchange level as one call of the C
level kernel of the native module (_native) where it can be built, and
as numpy gathers and scatters (_ce_level_vector) otherwise; the two give
the same permutation.  The vector distribution likewise runs its whole
routing network in one call of the C route kernel, or one numpy hop at a
time (_route_hop_vector), on copies of f and the null flag plus a slot
permutation; the two give the same arrays.

The sort, the routing network and the expansion's fill pass each end in
one slot permutation, and _gather moves every column of the array
through it.  A permutation entry of -1 (_VACATED) marks a slot that
becomes a null entry.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _native
from .entries import (U64_FIELDS, KEY_NONNULL_F, ct_eq, ct_select,
                      ct_select_entry, lex_compare, null_entry)
from .trace import READ, WRITE, PublicArray, alloc, emit_steps
from ._schedule import route_hops, sort_levels

__all__ = [
    "compare_exchange", "bitonic_sort",
    "oblivious_distribute", "oblivious_expand",
    "DistributeCollisionError",
]

_ALL_COLS = U64_FIELDS + ("is_null",)


class DistributeCollisionError(RuntimeError):
    """The destinations f of a distribution are not injective into 1..m.

    Every distribution checks this: a routing swap that hits a non-null
    partner, or an entry that does not end at slot f-1, raises instead of
    returning a wrong placement.  A valid map never trips it.
    """


def _check_engine(engine: str) -> None:
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")


def _check_key(key) -> None:
    if not set(key).issubset(_ALL_COLS):
        raise ValueError(f"sort key {key!r} is not a tuple of entry column "
                         f"names {_ALL_COLS}")


# --------------------------------------------------------------------------
# Compare-exchange and sorting
# --------------------------------------------------------------------------

def compare_exchange(a: PublicArray, i: int, k: int, key,
                     ascending: bool = True) -> None:
    """Order slots i and k of a by key, ascending or descending.

    Unconditionally two reads then two writes — an already-ordered or
    equal pair gets dummy writes — so the event pattern never reveals the
    outcome.  ValueError, before any access, if key names no column.
    """
    _check_key(key)
    e1 = a.read(i)
    e2 = a.read(k)
    c = lex_compare(e1, e2, key)
    swap = int(c > 0) if ascending else int(c < 0)
    a.write(i, ct_select_entry(swap, e2, e1))
    a.write(k, ct_select_entry(swap, e1, e2))


def _ce_level_vector(keys, perm: np.ndarray, lo, hi, asc) -> None:
    # Lexicographic strict greater/less masks for the pairs (lo, hi).
    shape = (perm.shape[0], len(lo))
    gt = np.zeros(shape, bool)
    lt = np.zeros(shape, bool)
    eq = np.ones(shape, bool)
    for col in keys:
        av = np.take(col, lo, 1)
        bv = np.take(col, hi, 1)
        g = av > bv
        l = av < bv
        gt |= eq & g
        lt |= eq & l
        eq &= ~(g | l)
    swap = (gt & asc) | (lt & ~asc)
    # Select by mask arithmetic, like ct_select: each side of a pair XORs
    # in the pair's difference masked by the swap bit.
    mask = -swap.astype(np.int64)
    for col in [perm, *keys]:
        vl = np.take(col, lo, 1)
        vh = np.take(col, hi, 1)
        diff = vl ^ vh
        diff &= mask.view(col.dtype)
        vl ^= diff
        vh ^= diff
        col[:, lo] = vl
        col[:, hi] = vh


def bitonic_sort(a: PublicArray, key, engine: str = "vector") -> None:
    """In-place oblivious sort of a under a KeySpec, a tuple of entry
    column names compared ascending; ValueError if one names no column.

    The comparator sequence (and hence the trace) is a pure function of
    len(a); works for any length, in place.  The vector engine runs every
    comparator on copies of the key columns and a slot permutation only
    (a swap depends on nothing else), then gathers every column of a
    through the permutation once with _gather (the permutation has no -1
    entries).  Each level is one call of the native level kernel, or of
    _ce_level_vector when the kernel is unavailable.
    """
    _check_engine(engine)
    _check_key(key)
    if engine == "scalar":
        for lo, hi, asc in sort_levels(a.length):
            for t in range(len(lo)):
                compare_exchange(a, int(lo[t]), int(hi[t]), key, bool(asc[t]))
        return
    # uint64 copies, so that the 8-byte XOR mask fits the uint8 null flag too
    keys = [a.col(name).astype(np.uint64, order="C") for name in key]
    perm = np.tile(np.arange(a.length, dtype=np.int64), (a.batch, 1))
    native = _native.kernel()
    level = (functools.partial(_ce_level_vector, keys, perm) if native is None
             else native.levels(keys, perm))
    for lo, hi, asc in sort_levels(a.length):
        level(lo, hi, asc)
        emit_steps((a, READ, lo), (a, READ, hi), (a, WRITE, lo), (a, WRITE, hi))
    del keys, level  # freed first, or the gather raises the join's peak memory
    _gather(a, perm)


# the permutation entry of a slot that becomes a null entry: one an entry
# moved out of in routing, or one before the first live entry in the fill
_VACATED = -1


def _gather(a: PublicArray, perm: np.ndarray) -> None:
    """Move every column of a through perm, a (batch, len(a)) int64 slot
    permutation, which is consumed: slot i of a row takes the entry at
    slot perm[i] of that row, and a slot whose perm is _VACATED becomes a
    null entry (u64 fields 0, null flag 1)."""
    # Flat index (row offset + perm, in place); a vacated slot gathers its
    # row's slot 0 and is then masked, like ct_select.
    keep = -(perm != _VACATED).astype(np.uint64)
    perm &= keep.view(np.int64)
    perm += a.length * np.arange(a.batch, dtype=np.int64)[:, None]
    for name in _ALL_COLS:
        col = a.col(name)
        vals = np.take(col, perm)
        if name == "is_null":
            vals |= keep == 0
        else:
            vals &= keep
        col[:] = vals


# --------------------------------------------------------------------------
# Copies
# --------------------------------------------------------------------------

def _copy_into(x: PublicArray, a: PublicArray, n: int, engine: str) -> None:
    """Copy x[0..n) into a[0..n) (read source, write destination)."""
    if engine == "scalar":
        for i in range(n):
            a.write(i, x.read(i))
        return
    for name in _ALL_COLS:
        a.col(name)[:, :n] = x.col(name)[:, :n]
    ar = np.arange(n, dtype=np.int64)
    emit_steps((x, READ, ar), (a, WRITE, ar))


# --------------------------------------------------------------------------
# Oblivious distribution (routing network)
# --------------------------------------------------------------------------

def _route_hop_scalar(a: PublicArray, m: int, j: int) -> None:
    for i in range(m - j - 1, -1, -1):
        y = a.read(i)
        y2 = a.read(i + j)
        # y's 0-based destination is f-1; it still needs to advance past
        # this hop iff f-1 >= i+j.  Null entries have f = 0.
        cond = int(y.f > i + j)
        if cond and not y2.is_null:
            raise DistributeCollisionError(
                f"swap at ({i}, {i + j}) hit a non-null partner")
        a.write(i, ct_select_entry(cond, y2, y))
        a.write(i + j, ct_select_entry(cond, y, y2))


def _route_hop_vector(f: np.ndarray, nul: np.ndarray, perm: np.ndarray,
                      j: int) -> None:
    cnt = f.shape[1] - j
    # Live entries at p < m-j whose destination lies at or beyond p+j move
    # forward by j; their slots become null.  Sequential execution of the
    # descending loop does exactly this when every swap partner is null;
    # a non-null partner is overwritten and lost, which _check_placement
    # detects.
    thresh = np.arange(j, j + cnt, dtype=np.uint64)
    mover = (nul[:, :cnt] == 0) & (f[:, :cnt] > thresh)
    for col, vacated in ((f, 0), (nul, 1), (perm, _VACATED)):
        src = col[:, :cnt].copy()
        col[:, :cnt] = np.where(mover, vacated, src)
        col[:, j:] = np.where(mover, src, col[:, j:])


def _route_vector(a: PublicArray, hops: list[int]) -> None:
    """Route on uint64 copies of f and the null flag plus a slot
    permutation (one call of the native route kernel, or _route_hop_vector
    per hop when it is unavailable), emit each hop's steps, then move every
    column of a, f and the null flag included, through the permutation
    with _gather: a slot an entry moved out of holds -1 and becomes a null
    entry."""
    m = a.length
    f = a.col("f").astype(np.uint64, order="C")
    nul = a.col("is_null").astype(np.uint64, order="C")
    perm = np.tile(np.arange(m, dtype=np.int64), (a.batch, 1))
    native = _native.kernel()
    if native is None:
        for j in hops:
            _route_hop_vector(f, nul, perm, j)
    else:
        native.route(f, nul, perm, np.array(hops, np.int64))
    # hop j steps (i, i+j) for i from m-j-1 down to 0: both index vectors
    # are slices of one descending range
    down = np.arange(m - 1, -1, -1, dtype=np.int64)
    for j in hops:
        lo, hi = down[j:], down[:m - j]
        emit_steps((a, READ, lo), (a, READ, hi), (a, WRITE, lo), (a, WRITE, hi))
    # the routed copies are freed before the gather, which would otherwise
    # raise the join's peak memory
    del f, nul
    _gather(a, perm)


def _check_placement(a: PublicArray, x: PublicArray) -> None:
    """Raise DistributeCollisionError unless, in each batch row, as many
    entries of a sit at their slot f-1 as x holds non-null entries.

    That holds iff f is injective into 1..len(a); an entry lost to a
    collision or left short of its slot fails it.  The count reads the
    columns untraced.
    """
    m = a.length
    live = (x.col("is_null") == 0).sum(axis=1)
    slot = np.arange(1, m + 1, dtype=np.uint64)
    placed = ((a.col("is_null") == 0) & (a.col("f") == slot)).sum(axis=1)
    if (placed != live).any():
        b = int(np.argmax(placed != live))
        raise DistributeCollisionError(
            f"destinations are not injective into 1..{m}: "
            f"{placed[b]} of {live[b]} entries reached slot f-1")


def _route_region(a: PublicArray, x: PublicArray, engine: str) -> None:
    """Route the non-null entries of a, copied from x, to slots f-1."""
    m = a.length
    hops = route_hops(m)
    if engine == "scalar":
        for j in hops:
            _route_hop_scalar(a, m, j)
    else:
        _route_vector(a, hops)
    _check_placement(a, x)


def oblivious_distribute(x: PublicArray, m: int,
                         engine: str = "vector") -> PublicArray:
    """Scatter the non-null entries of x to slots f-1 of a length-m array.

    Null entries (f = 0) are skipped, and n may exceed m as long as at
    most m entries are non-null.  f must be injective into 1..m on the
    non-null entries; DistributeCollisionError is raised when it is not.
    Unfilled slots are null.  Returns a fresh array of length m, or a
    view of its first m slots when n > m: the sort parks nulls behind
    them and routing never consults the rest.  The access sequence
    depends only on (n, m).
    """
    _check_engine(engine)
    n = x.length
    sink = x.sink
    a = alloc(max(n, m), sink, x.batch)
    with sink.phase_scope("distribute_copy"):
        _copy_into(x, a, n, engine)
    with sink.phase_scope("distribute_sort"):
        bitonic_sort(a.view(0, n), KEY_NONNULL_F, engine)
    with sink.phase_scope("distribute_route"):
        _route_region(a.view(0, m), x, engine)
    return a if a.length == m else a.view(0, m)


# --------------------------------------------------------------------------
# Oblivious expansion
# --------------------------------------------------------------------------

def _expand_prefix(x: PublicArray, g_attr: str, engine: str) -> int:
    """First expansion pass: f <- 1 + exclusive prefix sum of g, zero-g
    entries become null with f = 0.  Returns m = sum of g."""
    n = x.length
    if engine == "scalar":
        s = 1
        for i in range(n):
            e = x.read(i)
            g = getattr(e, g_attr)
            z = ct_eq(g, 0)
            e.f = ct_select(z, 0, s)
            e.is_null = ct_select(z, 1, e.is_null)
            x.write(i, e)
            s += g
        return s - 1
    g = x.col(g_attr)
    z = g == 0
    before = np.cumsum(g, axis=1, dtype=np.uint64) - g
    fcol = x.col("f")
    ncol = x.col("is_null")
    fcol[:] = np.where(z, 0, np.uint64(1) + before)
    ncol[:] = np.where(z, 1, ncol)
    ar = np.arange(n, dtype=np.int64)
    emit_steps((x, READ, ar), (x, WRITE, ar))
    totals = g.sum(axis=1, dtype=np.uint64)
    m = int(totals[0]) if n else 0
    if n and not (totals == totals[0]).all():
        raise ValueError("batched expand requires a uniform output size")
    return m


def _forward_fill(a: PublicArray, engine: str) -> None:
    """Second expansion pass: each null slot takes the last value written."""
    m = a.length
    if engine == "scalar":
        px = null_entry()
        for i in range(m):
            e = a.read(i)
            e = ct_select_entry(e.is_null, px, e)
            px = e
            a.write(i, e)
        return
    ar = np.arange(m, dtype=np.int64)
    # each slot's source is the last live slot at or before it; slots
    # before the first live one are _VACATED and stay null
    src = np.maximum.accumulate(
        np.where(a.col("is_null") == 0, ar, _VACATED), axis=1)
    _gather(a, src)
    emit_steps((a, READ, ar), (a, WRITE, ar))


def oblivious_expand(x: PublicArray, g_attr: str,
                     engine: str = "vector") -> PublicArray:
    """Replace each entry of x by g copies of itself (g = its g_attr
    value), preserving order; entries with g = 0 vanish.

    Returns a fresh array of length m = sum of g.  x itself is consumed
    (its f and null flags are overwritten by the prefix pass).  The trace
    depends only on (n, m).
    """
    _check_engine(engine)
    sink = x.sink
    with sink.phase_scope("expand_prefix"):
        m = _expand_prefix(x, g_attr, engine)
    a = oblivious_distribute(x, m, engine)
    with sink.phase_scope("expand_fill"):
        _forward_fill(a, engine)
    return a
