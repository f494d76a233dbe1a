"""Trace events, hash chaining, sinks, and public-array accounting."""

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
from oblivjoin.entries import KEY_J_TID, AugEntry
from oblivjoin.harness import make_distribute_input
from oblivjoin.trace import (
    READ,
    WRITE,
    HashSink,
    LogSink,
    NullSink,
    OutOfBoundsError,
    PublicArray,
    TraceEvent,
    alloc,
    chain_digest,
    chain_kernel,
    emit_steps,
    encode_event,
    hash_step,
)

ZERO32 = b"\x00" * 32
U64_MAX = 2**64 - 1


def test_event_encoding_layout():
    rec = encode_event(3, WRITE, 17)
    assert len(rec) == 17
    assert rec == (3).to_bytes(8, "big") + b"\x01" + (17).to_bytes(8, "big")


def test_event_str_form():
    assert str(TraceEvent(0, READ, 5)) == "R 0 5"
    assert str(TraceEvent(2, WRITE, 0)) == "W 2 0"


def test_hash_step_is_chained_sha256():
    ev = TraceEvent(1, READ, 9)
    want = hashlib.sha256(ZERO32 + encode_event(1, READ, 9)).digest()
    assert hash_step(ZERO32, ev) == want
    # second step chains on the first digest
    ev2 = TraceEvent(1, WRITE, 9)
    want2 = hashlib.sha256(want + encode_event(1, WRITE, 9)).digest()
    assert hash_step(hash_step(ZERO32, ev), ev2) == want2


# -- the chain over a block: C kernel and hashlib fallback ------------------

def _fold(h, aids, ops, idxs):
    """Reference: hash_step folded over the events one by one."""
    aids = np.broadcast_to(np.asarray(aids, np.uint64), len(ops))
    for a, o, i in zip(aids.tolist(), ops.tolist(), idxs.tolist()):
        h = hash_step(h, TraceEvent(a, o, i))
    return h


def _case(name, rng):
    """(h, aids, ops, idxs) of one named chain test case."""
    n = 257  # not a multiple of anything convenient
    ops = rng.integers(0, 2, n, dtype=np.uint8)
    idxs = rng.integers(0, 1000, n, dtype=np.uint64)
    if name == "aid_vector":
        return ZERO32, rng.integers(0, 5, n, dtype=np.uint64), ops, idxs
    if name == "empty":
        return ZERO32, 3, ops[:0], idxs[:0]
    if name == "scalar_aid":
        return ZERO32, 7, ops, idxs
    if name == "nonzero_start":
        return hashlib.sha256(b"start").digest(), 2, ops, idxs
    if name == "u64_max":
        aids = np.where(ops == 1, U64_MAX, 0).astype(np.uint64)
        idxs[::3] = U64_MAX
        return ZERO32, aids, ops, idxs
    raise ValueError(name)


@pytest.fixture(params=["openssl", "hashlib"])
def chain_path(request, native_loads, monkeypatch):
    """Runs chain_digest on one path for the test's duration."""
    kernel = native_loads["native" if request.param == "openssl"
                          else "fallback"]
    if request.param == "openssl" and kernel is None:
        pytest.skip("the native module cannot be built here")
    monkeypatch.setattr(_native, "kernel", lambda: kernel)
    assert chain_kernel() == request.param
    return request.param


@pytest.mark.parametrize("case", ["aid_vector", "empty", "scalar_aid",
                                  "nonzero_start", "u64_max"])
def test_chain_digest_matches_stepwise(chain_path, case, rng):
    h, aids, ops, idxs = _case(case, rng)
    assert chain_digest(h, aids, ops, idxs) == _fold(h, aids, ops, idxs)


@pytest.fixture(scope="module")
def long_block():
    rng = np.random.default_rng(0x5EED)
    n = 100_003
    block = (rng.integers(0, 1 << 40, n, dtype=np.uint64),
             rng.integers(0, 2, n, dtype=np.uint8),
             rng.integers(0, 1 << 63, n, dtype=np.uint64))
    return block, _fold(ZERO32, *block)


def test_chain_digest_matches_stepwise_on_a_long_block(chain_path, long_block):
    block, want = long_block
    assert chain_digest(ZERO32, *block) == want


def test_chain_digest_rejects_a_short_state(chain_path):
    with pytest.raises(ValueError):
        chain_digest(ZERO32[:31], 0, np.zeros(1, np.uint8),
                     np.zeros(1, np.uint64))


def test_unwritable_cache_falls_back_to_hashlib(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("a file where the cache directory would go")
    assert _native.load(cache_dir=blocker / "oblivjoin") is None


def _can_build_kernel() -> bool:
    cc = shutil.which("cc")
    if cc is None:
        return False
    probe = subprocess.run([cc, "-E", "-x", "c", "-", "-o", os.devnull],
                           input=b"#include <openssl/sha.h>\n",
                           capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no cc or no openssl/sha.h")
def test_chain_kernel_is_openssl_where_it_can_be_built(monkeypatch):
    # a broken build must not quietly hand every hash, every
    # compare-exchange level and every routing network to the slow path
    assert chain_kernel() == "openssl"

    def numpy_fallback(*args):
        raise AssertionError("a numpy fallback ran beside a live kernel")
    monkeypatch.setattr(primitives, "_ce_level_vector", numpy_fallback)
    monkeypatch.setattr(primitives, "_route_hop_vector", numpy_fallback)
    a = alloc(6, NullSink())
    a.col("j")[:] = [5, 0, 3, 2, 4, 1]
    a.col("is_null")[:] = 0
    primitives.bitonic_sort(a, KEY_J_TID)
    assert a.debug_col("j").tolist() == [[0, 1, 2, 3, 4, 5]]
    x = make_distribute_input(NullSink(), [3, 1])
    out = primitives.oblivious_distribute(x, 4)
    assert out.debug_col("f").tolist() == [[1, 0, 3, 0]]


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no cc or no openssl/sha.h")
def test_native_source_compiles_without_warnings(tmp_path):
    # the kernels' C source stays clean under -Wall -Wextra -Werror
    src = tmp_path / "native.c"
    src.write_text(_native.SOURCE)
    proc = subprocess.run([shutil.which("cc"), "-Wall", "-Wextra", "-Werror",
                           *_native._FLAGS, "-o", str(tmp_path / "native.so"),
                           str(src), *_native._LIBS],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("symbol", ["oblivjoin_chain", "oblivjoin_ce_level",
                                    "oblivjoin_route"])
def test_cached_object_without_a_kernel_falls_back(symbol, tmp_path,
                                                   monkeypatch, rng):
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
    h, aids, ops, idxs = _case("aid_vector", rng)
    for _ in range(2):
        assert chain_digest(h, aids, ops, idxs) == _fold(h, aids, ops, idxs)
    assert chain_kernel() == "hashlib"


def test_warm_cache_load_runs_no_compiler(tmp_path, monkeypatch):
    if _native.load(cache_dir=tmp_path) is None:
        pytest.skip("the native module cannot be built here")

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler invoked on a warm cache")
    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    kernel = _native.load(cache_dir=tmp_path)
    assert kernel is not None
    assert kernel.chain(ZERO32, 0, 0) == ZERO32
    keys = [np.array([[2, 1]], np.uint64)]
    perm = np.array([[0, 1]], np.int64)
    kernel.levels(keys, perm)(np.array([0]), np.array([1]),
                              np.array([True]))
    assert perm.tolist() == [[1, 0]]
    f, nul = np.array([[2, 0]], np.uint64), np.array([[0, 1]], np.uint64)
    kernel.route(f, nul, perm, np.array([1]))
    assert (f.tolist(), perm.tolist()) == ([[0, 2]], [[-1, 1]])


# each first use in a fresh interpreter: one hashed block, one sort, one
# distribution
FIRST_USES = [
    ["oblivjoin.chain_digest(bytes(32), 0, np.zeros(1, np.uint8),",
     "                       np.zeros(1, np.uint64))"],
    ["from oblivjoin.entries import KEY_J_TID",
     "a = oblivjoin.trace.alloc(3, oblivjoin.NullSink())",
     "oblivjoin.bitonic_sort(a, KEY_J_TID)"],
    ["from oblivjoin.harness import make_distribute_input",
     "x = make_distribute_input(oblivjoin.NullSink(), [3, 1])",
     "assert oblivjoin.oblivious_distribute(x, 4).debug_col('f')[0, 2] == 3"],
]


def test_kernel_is_built_on_first_chain_not_at_import(tmp_path):
    # a fresh interpreter with its own cache: importing the package
    # leaves the cache untouched; the first digest, sort or distribution
    # builds the native module
    src = Path(oblivjoin.__file__).parents[1]
    for k, first_use in enumerate(FIRST_USES):
        cache = tmp_path / str(k)
        script = "\n".join([
            "import os, sys",
            "import numpy as np",
            "import oblivjoin",
            "assert not os.path.exists(os.path.join(sys.argv[1], 'oblivjoin'))",
            *first_use,
            "print(oblivjoin.chain_kernel())",
        ])
        env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script, str(cache)],
                             env=env, capture_output=True, text=True,
                             check=True)
        built = list((cache / "oblivjoin").glob("native-*.so"))
        assert (out.stdout.strip() == "openssl") == (len(built) == 1)


def test_hash_sink_equals_log_sink_digest(rng):
    hs, ls = HashSink(), LogSink()
    for s in (hs, ls):
        a = alloc(8, s)
        e = AugEntry(j=1)
        for i in range(8):
            a.write(i, e)
            a.read(i)
    assert hs.digest == chain_digest(ZERO32, *ls.event_arrays())


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


def test_scalar_access_needs_batch_one():
    a = alloc(3, NullSink(), batch=2)
    with pytest.raises(ValueError, match="batch size 1"):
        a.read(0)
    with pytest.raises(ValueError, match="batch size 1"):
        a.write(0, AugEntry())


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


def test_allocation_needs_a_batch():
    # rejected at allocation, not later as an IndexError in
    # oblivious_expand
    for batch in (0, -1):
        with pytest.raises(ValueError, match="batch"):
            alloc(3, NullSink(), batch=batch)


def test_allocation_needs_a_length():
    s = NullSink()
    with pytest.raises(ValueError, match="negative length"):
        alloc(-1, s)
    assert (s.live_entries, s.peak_entries) == (0, 0)
