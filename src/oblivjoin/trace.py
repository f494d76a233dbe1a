"""Traced public memory.

PublicArray is the only storage the oblivious algorithms touch, and every
read or write of an entry emits a TraceEvent (array id, read/write, index)
to the run's sink.  Allocation assigns ids in order and emits nothing, so
two runs agree on ids whenever they allocate in the same order.

Sinks consume the event stream three ways: NullSink discards it (timing
runs), LogSink keeps it (inspection, file dumps), HashSink digests it
(trace-equality verification).  Every sink also tallies its events per
phase label (cost accounting).  The digest is SHA-256 over the
concatenation of the events' 17-byte REC_DTYPE records.  The records are
fixed-width and SHA-256's padding encodes the message length, so equal
digests mean equal traces under SHA-256's collision resistance.

Every access, a scalar read or write or an engine's bulk access pattern,
reaches the sink through emit_steps, the one place that counts events and
knows how a block of them is laid out.

alloc and release are the only places public storage is made and freed.
release keeps the columns of the last SPARE_SETS root arrays, refilled
with null entries, and alloc takes the most recently released set of its
exact length before it allocates fresh columns: a join's m-sized arrays
stay resident for the next join of the same shape, where freed columns
would go back to the kernel and fault in again.  Neither emits an event,
so the trace and the accounting do not depend on which storage is reused.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .entries import AugEntry, U64_FIELDS

__all__ = [
    "READ", "WRITE", "TraceEvent", "REC_DTYPE",
    "TraceSink", "NullSink", "LogSink", "HashSink",
    "PublicArray", "alloc", "emit_steps", "OutOfBoundsError",
    "ReleasedArrayError",
]

READ = 0
WRITE = 1

# One event record: u64 array id, u8 op, u64 index, all big-endian, 17
# bytes total.  The trace digest hashes these records back to back.
REC_DTYPE = np.dtype([("aid", ">u8"), ("op", "u1"), ("idx", ">u8")])
assert REC_DTYPE.itemsize == 17


@dataclass(frozen=True, slots=True)
class TraceEvent:
    array_id: int
    op: int  # READ or WRITE
    index: int

    def __str__(self) -> str:
        return f"{'RW'[self.op]} {self.array_id} {self.index}"


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------

class TraceSink:
    """Receives every public-memory event of a run.

    The sink also owns array-id assignment and live-entry accounting, so
    ids and peak-space measurements are well defined per run.  `phase` is
    a label attached to subsequent events (LogSink tags events with it;
    the digest does not include it), and `counts` holds the number of
    events emitted under each label.  emit_steps keeps `counts` and is
    the only caller of emit_block, the one method a sink implements; it
    passes fresh ops/idxs arrays (and a fresh aid vector, or an int aid)
    on every call, so a sink may keep them without copying.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.counts: Counter[str] = Counter()
        self._next_id = 0
        self.live_entries = 0
        self.peak_entries = 0

    def register_array(self, length: int) -> int:
        aid = self._next_id
        self._next_id += 1
        self.live_entries += length
        if self.live_entries > self.peak_entries:
            self.peak_entries = self.live_entries
        return aid

    def unregister_array(self, length: int) -> None:
        self.live_entries -= length

    @contextmanager
    def phase_scope(self, label: str):
        prev = self.phase
        self.phase = label
        try:
            yield
        finally:
            self.phase = prev

    # events in order; aid may be an int or a per-event uint64 array
    def emit_block(self, aid, ops: np.ndarray, idxs: np.ndarray) -> None:
        raise NotImplementedError


class NullSink(TraceSink):
    """Discards events (for timing runs)."""

    def emit_block(self, aid, ops, idxs):
        pass


def consumes_events(sink: TraceSink) -> bool:
    """Whether sink is given event blocks: every sink but a plain
    NullSink, which keeps only its counts (a subclass of it is given
    every block)."""
    return type(sink) is not NullSink


class LogSink(TraceSink):
    """Keeps the full event stream, tagged with the phase it came from."""

    def __init__(self) -> None:
        super().__init__()
        self._blocks: list[tuple[str, object, np.ndarray, np.ndarray]] = []

    def emit_block(self, aid, ops, idxs):
        self._blocks.append((self.phase, aid, ops, idxs))

    def __len__(self) -> int:
        return sum(len(ops) for _, _, ops, _ in self._blocks)

    def event_arrays(self, phase: str | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(aids, ops, idxs) of the stream in order, or of just the events
        emitted under one phase."""
        aids = [np.zeros(0, np.uint64)]
        ops_all = [np.zeros(0, np.uint8)]
        idx_all = [np.zeros(0, np.uint64)]
        for ph, aid, ops, idxs in self._blocks:
            if phase is None or ph == phase:
                aids.append(np.full(len(ops), aid, np.uint64))
                ops_all.append(ops)
                idx_all.append(idxs)
        return (np.concatenate(aids), np.concatenate(ops_all),
                np.concatenate(idx_all))

    def events(self) -> Iterator[TraceEvent]:
        aids, ops, idxs = self.event_arrays()
        for a, o, i in zip(aids.tolist(), ops.tolist(), idxs.tolist()):
            yield TraceEvent(a, o, i)

    def events_tagged(self) -> Iterator[tuple[str, TraceEvent]]:
        """Events paired with the phase label they were emitted under."""
        return zip(self.phase_labels(), self.events())

    def phase_labels(self) -> list[str]:
        """Per-event phase labels, aligned with events()."""
        out: list[str] = []
        for phase, _, ops, _ in self._blocks:
            out.extend([phase] * len(ops))
        return out

    def lines(self) -> Iterator[str]:
        """Text form, one event per line: 'R <array_id> <index>', as
        str(TraceEvent) writes it."""
        aids, ops, idxs = self.event_arrays()
        for a, o, i in zip(aids.tolist(), ops.tolist(), idxs.tolist()):
            yield f"{'RW'[o]} {a} {i}"


class HashSink(TraceSink):
    """SHA-256 over the concatenated REC_DTYPE records of the event stream.

    Local state is one SHA-256 context, independent of trace length.
    digest and hexdigest() read the digest of the events so far without
    finalizing it, so the stream may go on.
    """

    def __init__(self) -> None:
        super().__init__()
        self._h = hashlib.sha256()

    def emit_block(self, aid, ops, idxs):
        rec = np.empty(len(ops), REC_DTYPE)
        rec["aid"] = aid
        rec["op"] = ops
        rec["idx"] = idxs
        self._h.update(rec)

    @property
    def digest(self) -> bytes:
        return self._h.digest()

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# --------------------------------------------------------------------------
# Public memory
# --------------------------------------------------------------------------

class OutOfBoundsError(IndexError):
    """Access outside an array's bounds: the engine aborts, never clamps."""


class ReleasedArrayError(ValueError):
    """Access to a released array, whose storage a later alloc may hold."""


class PublicArray:
    """Fixed-length array of entry slots in traced public memory.

    Storage is struct-of-arrays: one uint64 column per entry attribute
    and uint8 null flags, each of shape (length,).

    A PublicArray is either a root allocation or a view produced by
    view(): views share storage and array id and translate indices by
    their offset, which is how subrange sorts and region handles are
    expressed without copying.  After release(), the root and all its
    views raise ReleasedArrayError on every access.
    """

    __slots__ = ("sink", "array_id", "offset", "length", "_cols", "_root")

    def __init__(self, sink, array_id, cols, offset, length, root):
        self.sink = sink
        self.array_id = array_id
        self._cols = cols
        self.offset = offset
        self.length = length
        # None on a root allocation: a reference to itself would be a
        # cycle, leaving the columns to the cyclic GC instead of refcounting
        self._root = root

    def _storage(self) -> dict[str, np.ndarray]:
        """The columns; ReleasedArrayError once the root is released, when
        release() has emptied the dict the root and its views share."""
        if not self._cols:
            raise ReleasedArrayError(
                f"array {self.array_id} was released")
        return self._cols

    # -- traced scalar access ------------------------------------------

    def _emit(self, op: int, i: int) -> int:
        """Check and emit one scalar access; returns its slot."""
        self._storage()
        if not 0 <= i < self.length:
            raise OutOfBoundsError(
                f"index {i} out of bounds for array {self.array_id} "
                f"of length {self.length}")
        emit_steps((self, op, np.array([i], np.int64)))
        return self.offset + i

    def read(self, i: int) -> AugEntry:
        """Read one entry (emits a read event)."""
        p = self._emit(READ, i)
        c = self._cols
        return AugEntry(int(c["j"][p]), int(c["d"][p]), int(c["tid"][p]),
                        int(c["alpha1"][p]), int(c["alpha2"][p]),
                        int(c["f"][p]), int(c["ii"][p]),
                        int(c["is_null"][p]))

    def write(self, i: int, e: AugEntry) -> None:
        """Write one entry (emits a write event)."""
        p = self._emit(WRITE, i)
        c = self._cols
        c["j"][p] = e.j
        c["d"][p] = e.d
        c["tid"][p] = e.tid
        c["alpha1"][p] = e.alpha1
        c["alpha2"][p] = e.alpha2
        c["f"][p] = e.f
        c["ii"][p] = e.ii
        c["is_null"][p] = e.is_null & 1

    # -- structure -------------------------------------------------------

    def view(self, offset: int, length: int) -> "PublicArray":
        """Subrange handle sharing storage, id and trace with this array."""
        self._storage()
        if offset < 0 or length < 0 or offset + length > self.length:
            raise OutOfBoundsError(
                f"view [{offset}, {offset + length}) out of bounds for "
                f"length {self.length}")
        return PublicArray(self.sink, self.array_id, self._cols,
                           self.offset + offset, length,
                           self._root if self._root is not None else self)

    def release(self) -> None:
        """Return this allocation's slots to the sink's live counter and
        its storage to alloc.

        Releasing a view releases its root allocation, and releasing again
        does nothing.  The columns are refilled with null entries and kept
        for the next alloc of the same length.
        """
        root = self._root if self._root is not None else self
        with _spare_lock:
            cols = dict(root._cols)
            root._cols.clear()
        if cols:
            root.sink.unregister_array(root.length)
            _keep(cols, root.length)

    def __len__(self) -> int:
        return self.length

    # -- engine internals (traced bulk access) ---------------------------

    def col(self, name: str) -> np.ndarray:
        """Storage column restricted to this view: shape (length,).

        Engines pair every column access with an explicit emit; this
        accessor does not emit by itself.
        """
        return self._storage()[name][self.offset:self.offset + self.length]

    # -- diagnostics (untraced, never used by the algorithms) ------------

    def debug_entries(self) -> list[AugEntry]:
        """Snapshot of the entries for inspection in tests and demos.

        Bypasses the trace deliberately; the algorithms never call it.
        """
        lo, hi = self.offset, self.offset + self.length
        c = self._storage()
        return [AugEntry(*(int(c[name][p]) for name in U64_FIELDS),
                         int(c["is_null"][p]))
                for p in range(lo, hi)]

    def debug_col(self, name: str) -> np.ndarray:
        """Untraced copy of one column (diagnostics only)."""
        return self.col(name).copy()


def emit_steps(*accesses) -> None:
    """Emit the events of a sequence of steps as one block.

    Each access is an (array, op, idx) triple with view-local indices
    idx.  Step t makes the accesses in argument order, each at idx[t] of
    its own array; a compare-exchange level over pairs (lo, hi) is
    emit_steps((a, READ, lo), (a, READ, hi), (a, WRITE, lo), (a, WRITE, hi)).
    The first array's sink counts the events under its phase and
    receives one emit_block call, with a scalar array id when every
    access is on one array and a per-event id vector otherwise.  An idx
    may be a range, which is built into an array only for a sink that
    consumes events: a sink that does not (a plain NullSink) gets no call
    and no block is built, and only len() of the first idx is read.  A
    scalar read or write of a PublicArray is a one-step emit_steps call.
    """
    first = accesses[0][0]
    sink = first.sink
    k = len(accesses)
    n = k * len(accesses[0][2])
    sink.counts[sink.phase] += n
    if not consumes_events(sink):
        return
    ops = np.empty(n, np.uint8)
    idxs = np.empty(n, np.uint64)
    aid = first.array_id
    if any(a.array_id != aid for a, _, _ in accesses):
        aid = np.empty(n, np.uint64)
        for s, (a, _, _) in enumerate(accesses):
            aid[s::k] = a.array_id
    for s, (a, op, idx) in enumerate(accesses):
        if isinstance(idx, range):
            idx = np.arange(idx.start, idx.stop, idx.step, dtype=np.int64)
        ops[s::k] = op
        idxs[s::k] = idx + a.offset if a.offset else idx
    sink.emit_block(aid, ops, idxs)


# The column sets of the last SPARE_SETS released root arrays, oldest
# first.  Three are the ones oblivious_join releases (T_C, S1 and S2), so
# after a join exactly its peak entries stay allocated.
SPARE_SETS = 3
_spare: list[dict[str, np.ndarray]] = []
_spare_lock = threading.Lock()


def _keep(cols: dict[str, np.ndarray], length: int) -> None:
    """Refill a released column set with null entries and keep it, freeing
    the oldest kept set past SPARE_SETS."""
    if not length:
        return
    for name in U64_FIELDS:
        cols[name].fill(0)
    cols["is_null"].fill(1)
    with _spare_lock:
        _spare.append(cols)
        if len(_spare) > SPARE_SETS:
            del _spare[0]


def _take(length: int) -> dict[str, np.ndarray] | None:
    """The most recently kept column set of this length, or None."""
    with _spare_lock:
        for k in range(len(_spare) - 1, -1, -1):
            if len(_spare[k]["is_null"]) == length:
                return _spare.pop(k)
    return None


def alloc(length: int, sink: TraceSink) -> PublicArray:
    """Allocate a public array of null entries.

    Assigns the sink's next array id and accounts length slots against its
    live/peak counters.  Allocation emits no events; only accesses do.
    The columns are a released array's of the same length where one is
    kept, else fresh.
    """
    if length < 0:
        raise ValueError("negative length")
    aid = sink.register_array(length)
    cols = _take(length)
    if cols is None:
        cols = {name: np.zeros(length, np.uint64) for name in U64_FIELDS}
        cols["is_null"] = np.ones(length, np.uint8)
    return PublicArray(sink, aid, cols, 0, length, None)
