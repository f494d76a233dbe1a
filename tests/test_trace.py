"""Trace events, the trace digest, sinks, the native module's build, and
public-array accounting."""

import functools
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oblivjoin
from oblivjoin import _native, primitives
from oblivjoin._schedule import sort_program
from oblivjoin.entries import KEY_J_TID, U64_FIELDS, AugEntry
from oblivjoin.harness import make_distribute_input
from oblivjoin.trace import (
    READ,
    REC_DTYPE,
    WRITE,
    HashSink,
    LogSink,
    NullSink,
    OutOfBoundsError,
    PublicArray,
    TraceEvent,
    alloc,
    emit_steps,
)

U64_MAX = 2**64 - 1


def test_event_encoding_layout():
    rec = np.array([(3, WRITE, 17), (U64_MAX, READ, U64_MAX - 1)],
                   REC_DTYPE).tobytes()
    assert len(rec) == 34
    assert rec[:17] == (3).to_bytes(8, "big") + b"\x01" + \
        (17).to_bytes(8, "big")
    assert rec[17:] == b"\xff" * 8 + b"\x00" + b"\xff" * 7 + b"\xfe"


def test_event_str_form():
    assert str(TraceEvent(0, READ, 5)) == "R 0 5"
    assert str(TraceEvent(2, WRITE, 0)) == "W 2 0"


# -- the trace digest: SHA-256 over the concatenated records ----------------

def _stream_sha256(log):
    """Reference: hashlib.sha256 over a LogSink's REC_DTYPE records."""
    aids, ops, idxs = log.event_arrays()
    rec = np.empty(len(ops), REC_DTYPE)
    rec["aid"], rec["op"], rec["idx"] = aids, ops, idxs
    return hashlib.sha256(rec.tobytes()).digest()


def _block(rng):
    """(aids, ops, idxs) of 257 events with a per-event aid vector, and
    U64_MAX among the aids and the indices."""
    n = 257
    ops = rng.integers(0, 2, n, dtype=np.uint8)
    aids = np.where(ops == 1, U64_MAX, rng.integers(0, 5, n)).astype(np.uint64)
    idxs = rng.integers(0, 1000, n, dtype=np.uint64)
    idxs[::3] = U64_MAX
    return aids, ops, idxs


def test_hash_sink_digest_is_sha256_of_the_records(rng):
    hs, ls = HashSink(), LogSink()
    block = _block(rng)
    for s in (hs, ls):
        s.emit_block(*block)
        s.emit_block(7, *block[1:])
    assert hs.digest == _stream_sha256(ls)
    assert hs.hexdigest() == hs.digest.hex()


def test_hash_sink_digest_of_an_empty_trace():
    hs, ls = HashSink(), LogSink()
    assert hs.digest == _stream_sha256(ls) == hashlib.sha256(b"").digest()
    for s in (hs, ls):
        s.emit_block(3, np.zeros(0, np.uint8), np.zeros(0, np.uint64))
    assert hs.digest == _stream_sha256(ls) == hashlib.sha256(b"").digest()


def test_hash_sink_digest_ignores_block_boundaries(rng):
    # one block, one-event blocks, and random splits give one digest; a
    # digest read between blocks does not end the stream
    aids, ops, idxs = _block(rng)
    n = len(ops)
    cuts = np.sort(rng.choice(np.arange(1, n), 9, replace=False)).tolist()
    digests = set()
    for bounds in ([0, n], range(n + 1), [0, *cuts, n]):
        hs = HashSink()
        for lo, hi in zip(bounds, bounds[1:]):
            hs.emit_block(aids[lo:hi], ops[lo:hi], idxs[lo:hi])
            hs.hexdigest()
        digests.add(hs.digest)
    assert len(digests) == 1


def test_unwritable_cache_falls_back(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("a file where the cache directory would go")
    assert _native.load(cache_dir=blocker / "oblivjoin") is None


def _can_build_kernel() -> bool:
    return shutil.which("cc") is not None


@pytest.mark.skipif(not _can_build_kernel(), reason="no cc")
def test_native_module_loads_where_it_can_be_built(monkeypatch):
    # a broken build must not quietly hand every sort and every routing
    # network to the slow path
    assert _native.kernel() is not None

    def numpy_fallback(*args):
        raise AssertionError("a numpy fallback ran beside a live kernel")
    monkeypatch.setattr(primitives, "_ce_level_vector", numpy_fallback)
    monkeypatch.setattr(primitives, "_route_hop_vector", numpy_fallback)
    a = alloc(6, NullSink())
    a.col("j")[:] = [5, 0, 3, 2, 4, 1]
    a.col("is_null")[:] = 0
    primitives.bitonic_sort(a, KEY_J_TID)
    assert a.debug_col("j").tolist() == [0, 1, 2, 3, 4, 5]
    x = make_distribute_input(NullSink(), [3, 1])
    out = primitives.oblivious_distribute(x, 4)
    assert out.debug_col("f").tolist() == [1, 0, 3, 0]


@pytest.mark.skipif(not _can_build_kernel(), reason="no cc")
def test_native_source_compiles_without_warnings(tmp_path):
    # the kernels' C source stays clean under -Wall -Wextra -Werror
    src = tmp_path / "native.c"
    src.write_text(_native.SOURCE)
    proc = subprocess.run([shutil.which("cc"), "-Wall", "-Wextra", "-Werror",
                           *_native._FLAGS, "-o", str(tmp_path / "native.so"),
                           str(src)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Run in a subprocess on an object built with -fsanitize=undefined: the
# sort on ragged lengths with each key count (and one refused program),
# the pair expander over the same lengths in ranges of 8,192 (and one
# refused range) and one route; any undefined behaviour aborts it.
UBSAN_RUN = """
import ctypes, sys
import numpy as np
from oblivjoin import _native
from oblivjoin._schedule import route_hops, sort_levels, sort_program
kernel = _native.Kernels(ctypes.CDLL(sys.argv[1]))
rng = np.random.default_rng(5)
top = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)
for n in (2, 3, 7, 100, 257, 1000, 5400):
    for nkeys in (1, 2, 3):
        keys = [top[rng.integers(0, 4, n)] for _ in range(nkeys)]
        perm = np.arange(n, dtype=np.int64)
        kernel.sort([col.copy() for col in keys], perm, sort_program(n)[0])
        rows = list(zip(*(col[perm].tolist() for col in keys)))
        assert rows == sorted(rows), (n, nkeys)
    prog, ncomp = sort_program(n)
    lo, hi = np.empty(8192, np.int64), np.empty(8192, np.int64)
    got_lo, got_hi = [], []
    for start in range(0, ncomp, 8192):
        count = min(8192, ncomp - start)
        kernel.pairs(prog, n, start, count, lo, hi)
        got_lo += lo[:count].tolist()
        got_hi += hi[:count].tolist()
    levels = list(sort_levels(n))
    assert got_lo == np.concatenate([l for l, _, _ in levels]).tolist(), n
    assert got_hi == np.concatenate([h for _, h, _ in levels]).tolist(), n
try:  # one pair past the end of the network
    kernel.pairs(prog, n, ncomp - 1, 2, lo, hi)
    raise AssertionError("a range past the network ran")
except ValueError:
    pass
try:  # j = 3 is no power of two, and lo0 = -1
    kernel.sort(keys, perm, np.array([1, 3, 6, 0, 1, -1, 1, 1], np.int64))
    raise AssertionError("a bad program ran")
except ValueError:
    pass
f = np.array([1, 3, 0, 0], np.uint64)
nul = np.array([0, 0, 1, 1], np.uint64)
perm = np.arange(4, dtype=np.int64)
kernel.route(f, nul, perm, np.array(route_hops(4), np.int64))
assert (f.tolist(), perm.tolist()) == ([1, 0, 3, 0], [0, -1, 1, 3])
"""
UBSAN_FLAGS = ("-O1", "-g", "-fsanitize=undefined",
               "-fno-sanitize-recover=all", "-shared", "-fPIC")


def _can_build_ubsan(tmp_path) -> bool:
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x << 1; }\n")
    return _can_build_kernel() and subprocess.run(
        [shutil.which("cc"), *UBSAN_FLAGS, "-o", str(tmp_path / "probe.so"),
         str(probe)], capture_output=True).returncode == 0


def test_native_source_runs_clean_under_ubsan(tmp_path):
    # the kernels on an -fsanitize=undefined build, loaded by ctypes
    if not _can_build_ubsan(tmp_path):
        pytest.skip("no cc or libubsan")
    src, lib = tmp_path / "native.c", tmp_path / "native.so"
    src.write_text(_native.SOURCE)
    subprocess.run([shutil.which("cc"), *UBSAN_FLAGS, "-o", str(lib),
                    str(src)], check=True, timeout=300)
    env = dict(os.environ,
               PYTHONPATH=str(Path(oblivjoin.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", UBSAN_RUN, str(lib)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("symbol", ["oblivjoin_sort", "oblivjoin_sort_pairs",
                                    "oblivjoin_route"])
def test_cached_object_without_a_kernel_falls_back(symbol, tmp_path,
                                                   monkeypatch):
    # an object at the cache path that exports only one of the three
    # kernels loads as a failure, and the failure is kept like any other
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc to build the stand-in object")
    cache = tmp_path / "cache"
    cache.mkdir()
    stub = tmp_path / "stub.c"
    stub.write_text(f"void {symbol}(void) {{}}\n")
    subprocess.run([cc, "-shared", "-fPIC", "-o",
                    str(_native._library_path("cc", cache)), str(stub)],
                   check=True, capture_output=True)
    assert _native.load(cache_dir=cache) is None
    monkeypatch.setattr(_native, "kernel", functools.cache(
        lambda: _native.load(cache_dir=cache)))
    for _ in range(2):
        a = alloc(6, NullSink())
        a.col("j")[:] = [5, 0, 3, 2, 4, 1]
        a.col("is_null")[:] = 0
        primitives.bitonic_sort(a, KEY_J_TID)
        assert a.debug_col("j").tolist() == [0, 1, 2, 3, 4, 5]
    assert _native.kernel() is None


def test_warm_cache_load_runs_no_compiler(tmp_path, monkeypatch):
    if _native.load(cache_dir=tmp_path) is None:
        pytest.skip("the native module cannot be built here")

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler invoked on a warm cache")
    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    kernel = _native.load(cache_dir=tmp_path)
    assert kernel is not None
    keys = [np.array([2, 1], np.uint64)]
    perm = np.array([0, 1], np.int64)
    kernel.sort(keys, perm, sort_program(2)[0])
    assert perm.tolist() == [1, 0]
    f, nul = np.array([2, 0], np.uint64), np.array([0, 1], np.uint64)
    kernel.route(f, nul, perm, np.array([1]))
    assert (f.tolist(), perm.tolist()) == ([0, 2], [-1, 1])


# each first use in a fresh interpreter, and whether it needs the native
# module: a hashed block does not, a sort and a distribution do
FIRST_USES = [
    (False, ["s = oblivjoin.HashSink()",
             "oblivjoin.trace.alloc(3, s).read(1)",
             "assert s.hexdigest() != hashlib.sha256().hexdigest()"]),
    (True, ["from oblivjoin.entries import KEY_J_TID",
            "a = oblivjoin.trace.alloc(3, oblivjoin.NullSink())",
            "oblivjoin.bitonic_sort(a, KEY_J_TID)"]),
    (True, ["from oblivjoin.harness import make_distribute_input",
            "x = make_distribute_input(oblivjoin.NullSink(), [3, 1])",
            "assert oblivjoin.oblivious_distribute(x, 4).debug_col('f')[2] == 3"]),
]


def test_kernel_is_built_on_first_sort_not_at_import(tmp_path):
    # a fresh interpreter with its own cache: importing the package
    # leaves the cache untouched, and so does hashing a trace; the first
    # sort or distribution builds the native module
    src = Path(oblivjoin.__file__).parents[1]
    for k, (needs_native, first_use) in enumerate(FIRST_USES):
        cache = tmp_path / str(k)
        script = "\n".join([
            "import glob, hashlib, os, sys",
            "import oblivjoin",
            "from oblivjoin import _native",
            "assert not os.path.exists(os.path.join(sys.argv[1], 'oblivjoin'))",
            "objects = os.path.join(sys.argv[1], 'oblivjoin', 'native-*.so')",
            *first_use,
            "print(len(glob.glob(objects)), _native.kernel() is not None)",
        ])
        env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script, str(cache)],
                             env=env, capture_output=True, text=True,
                             check=True)
        built, loads = out.stdout.split()
        if needs_native:
            assert int(built) == (loads == "True")
        else:
            assert built == "0"


def test_hash_sink_equals_log_sink_digest(rng):
    hs, ls = HashSink(), LogSink()
    for s in (hs, ls):
        a = alloc(8, s)
        e = AugEntry(j=1)
        for i in range(8):
            a.write(i, e)
            a.read(i)
    assert hs.digest == _stream_sha256(ls)


def test_log_sink_records_phases():
    s = LogSink()
    a = alloc(4, s)
    with s.phase_scope("alpha"):
        a.write(0, AugEntry())
    with s.phase_scope("beta"):
        a.read(0)
        a.write(1, AugEntry())
    assert s.phase_labels() == ["alpha", "beta", "beta"]
    tagged = list(s.events_tagged())
    assert [t[0] for t in tagged] == ["alpha", "beta", "beta"]
    _, ops, idxs = s.event_arrays("beta")
    assert list(ops) == [READ, WRITE]
    assert list(idxs) == [0, 1]


def test_log_sink_lines():
    s = LogSink()
    a = alloc(2, s)
    a.write(1, AugEntry())
    a.read(0)
    assert list(s.lines()) == [f"W {a.array_id} 1", f"R {a.array_id} 0"]


@pytest.mark.parametrize("sink_cls", [NullSink, LogSink, HashSink])
def test_sink_counts_per_phase(sink_cls):
    # scalar accesses and emit_steps blocks, on a view and on two arrays
    s = sink_cls()
    a, b = alloc(4, s), alloc(4, s)
    with s.phase_scope("p"):
        a.read(0)
        a.view(1, 3).read(1)
    with s.phase_scope("q"):
        a.write(0, AugEntry())
        emit_steps((a, READ, np.arange(3)), (b, WRITE, np.arange(3)))
    assert s.counts == {"p": 2, "q": 7}


def test_array_ids_are_sequential_per_sink():
    s = NullSink()
    a = alloc(3, s)
    b = alloc(3, s)
    assert b.array_id == a.array_id + 1


def test_out_of_bounds_read_and_write():
    s = NullSink()
    a = alloc(4, s)
    with pytest.raises(OutOfBoundsError):
        a.read(4)
    with pytest.raises(OutOfBoundsError):
        a.write(-1, AugEntry())
    v = a.view(1, 2)
    with pytest.raises(OutOfBoundsError):
        v.read(2)


def test_view_past_the_end_is_out_of_bounds():
    a = alloc(4, NullSink())
    for offset, length in ((3, 2), (5, 0), (-1, 1), (0, -1)):
        with pytest.raises(OutOfBoundsError):
            a.view(offset, length)
    assert a.view(4, 0).length == 0


def test_view_shares_storage_and_translates_indices():
    s = LogSink()
    a = alloc(6, s)
    v = a.view(2, 3)
    assert isinstance(v, PublicArray)
    v.write(0, AugEntry(j=42))
    assert a.read(2).j == 42
    # the view's event carries the parent array id and absolute index
    ev = list(s.events())[-2]  # last two: view write, parent read
    assert ev.array_id == a.array_id
    assert ev.index == 2


def test_read_write_round_trip():
    s = NullSink()
    a = alloc(2, s)
    e = AugEntry(j=7, d=6, tid=2, alpha1=5, alpha2=4, f=3, ii=2, is_null=1)
    a.write(0, e)
    got = a.read(0)
    assert got == e
    # mutation of the returned entry must not write through
    got.j = 0
    assert a.read(0).j == 7


def test_live_and_peak_accounting():
    s = NullSink()
    a = alloc(10, s)
    assert (s.live_entries, s.peak_entries) == (10, 10)
    b = alloc(5, s)
    assert (s.live_entries, s.peak_entries) == (15, 15)
    a.release()
    assert (s.live_entries, s.peak_entries) == (5, 15)
    c = alloc(7, s)
    assert (s.live_entries, s.peak_entries) == (12, 15)
    b.release()
    c.release()
    assert s.live_entries == 0


def test_release_is_idempotent_across_views():
    s = NullSink()
    a = alloc(4, s)
    v = a.view(0, 2)
    a.release()
    assert s.live_entries == 0
    # releasing again (directly or via a view) must not double-count
    a.release()
    v.release()
    assert s.live_entries == 0


def test_fresh_allocation_is_null():
    s = NullSink()
    a = alloc(3, s)
    assert all(a.read(i).is_null == 1 for i in range(3))
    # one row of slots per column
    assert all(a.debug_col(name).shape == (3,)
               for name in U64_FIELDS + ("is_null",))


def test_allocation_needs_a_length():
    s = NullSink()
    with pytest.raises(ValueError, match="negative length"):
        alloc(-1, s)
    assert (s.live_entries, s.peak_entries) == (0, 0)
