"""Trace events, the trace digest, sinks, the native module's build, and
public-array accounting."""

import ctypes
import functools
import hashlib
import inspect
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oblivjoin
from oblivjoin import _native, pipeline, primitives
from oblivjoin._schedule import sort_levels
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
    assert _native.load(cache_dir=blocker / "oblivjoin") is _native.NUMPY


def test_default_cache_ignores_a_relative_xdg_cache_home(monkeypatch,
                                                         tmp_path):
    # the XDG spec says to ignore a relative path, which would name a
    # different cache in every working directory
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native._default_cache() == tmp_path / "oblivjoin"
    for relative in ("cache", "./cache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", relative)
        assert _native._default_cache() == \
            Path.home() / ".cache" / "oblivjoin"


def test_library_path_names_the_machine(monkeypatch, tmp_path):
    # an object built for one architecture in a cache that another one
    # shares, such as an NFS home, is never loaded on the other
    here = _native._library_path("cc", tmp_path)
    monkeypatch.setattr(_native.platform, "machine", lambda: "other-arch")
    there = _native._library_path("cc", tmp_path)
    assert here.parent == there.parent == tmp_path
    assert here != there


def _can_build_kernel() -> bool:
    return shutil.which("cc") is not None


def _public_methods(cls) -> dict[str, list[str]]:
    """name -> parameter names of each public method of cls."""
    return {name: list(inspect.signature(fn).parameters)
            for name, fn in vars(cls).items()
            if callable(fn) and not name.startswith("_")}


def test_both_kernel_sets_have_one_interface():
    # a caller never asks which kernel set it got, so both take the same
    # calls
    methods = _public_methods(_native.Kernels)
    assert methods == _public_methods(_native.NumpyKernels)
    assert sorted(methods) == ["align", "fill_dimensions", "fold", "gather",
                               "prefix", "route", "sort"]
    # each network is the one of its length: neither set takes a schedule,
    # and a sort's emit is keyword-only
    for cls in (_native.Kernels, _native.NumpyKernels):
        assert _parameters(cls.sort) == "(self, keys, perm, *, emit=None)"
        assert _parameters(cls.route) == "(self, g, perm)"


def _parameters(fn) -> str:
    """fn's signature without its annotations."""
    sig = inspect.signature(fn)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty)
                    for p in sig.parameters.values()],
        return_annotation=sig.empty))


@pytest.mark.skipif(not _can_build_kernel(), reason="no cc")
def test_native_module_loads_where_it_can_be_built(monkeypatch):
    # a broken build must not quietly hand every sort and every routing
    # network to the slow path
    assert isinstance(_native.kernel(), _native.Kernels)

    def numpy_fallback(*args):
        raise AssertionError("a numpy fallback ran beside a live kernel")
    for name in _public_methods(_native.NumpyKernels):
        monkeypatch.setattr(_native.NumpyKernels, name, numpy_fallback)
    a = alloc(6, NullSink())
    a.col("j")[:] = [5, 0, 3, 2, 4, 1]
    a.col("is_null")[:] = 0
    primitives.bitonic_sort(a, KEY_J_TID)
    assert a.debug_col("j").tolist() == [0, 1, 2, 3, 4, 5]
    x = make_distribute_input(NullSink(), [3, 1])
    out = primitives.oblivious_distribute(x, 4)
    assert out.debug_col("f").tolist() == [1, 0, 3, 0]
    res = pipeline.oblivious_join([(1, 7), (2, 8)], [(1, 9), (1, 6)])
    assert sorted(res.rows()) == [(7, 6), (7, 9)]


@pytest.mark.skipif(not _can_build_kernel(), reason="no cc")
def test_native_source_compiles_without_warnings(tmp_path):
    # the kernels' C source stays clean under -Wall -Wextra -Werror, with
    # the dispatch and as the plain body, built without AVX, where a
    # helper that took or returned a 32-byte vector would draw -Wpsabi
    src = tmp_path / "native.c"
    for source in (_native.SOURCE, _plain_source()):
        src.write_text(source)
        proc = subprocess.run([shutil.which("cc"), "-Wall", "-Wextra",
                               "-Werror", *_native._FLAGS, "-o",
                               str(tmp_path / "native.so"), str(src)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


# Run in a subprocess on an object built with -fsanitize=undefined: the
# sort on ragged lengths with each key count (and one refused program),
# the pair expander over the same lengths in ranges of 8,192 (and one
# refused range), two routes (one of a length that is not a power of
# two), gathers with -1 entries (and one refused permutation), and the
# four scans on wild columns against their numpy bodies (align on columns
# it accepts and on ones it refuses, and a refused prefix); any undefined
# behaviour aborts it.
UBSAN_RUN = """
import ctypes, sys
import numpy as np
from oblivjoin import _native
from oblivjoin._schedule import sort_levels, sort_program
kernel = _native.Kernels(ctypes.CDLL(sys.argv[1]))
rng = np.random.default_rng(5)
top = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)
for n in (2, 3, 7, 100, 257, 1000, 5400):
    for nkeys in (1, 2, 3):
        keys = [top[rng.integers(0, 4, n)] for _ in range(nkeys)]
        perm = np.arange(n, dtype=np.int64)
        kernel.sort([col.copy() for col in keys], perm)
        rows = list(zip(*(col[perm].tolist() for col in keys)))
        assert rows == sorted(rows), (n, nkeys)
    prog, ncomp = sort_program(n)
    lo, hi = np.empty(8192, np.int64), np.empty(8192, np.int64)
    got_lo, got_hi = [], []
    for start in range(0, ncomp, 8192):
        count = min(8192, ncomp - start)
        kernel._pairs(prog, n, start, count, lo, hi)
        got_lo += lo[:count].tolist()
        got_hi += hi[:count].tolist()
    levels = list(sort_levels(n))
    assert got_lo == np.concatenate([l for l, _, _ in levels]).tolist(), n
    assert got_hi == np.concatenate([h for _, h, _ in levels]).tolist(), n
try:  # one pair past the end of the network
    kernel._pairs(prog, n, ncomp - 1, 2, lo, hi)
    raise AssertionError("a range past the network ran")
except ValueError:
    pass
try:  # j = 3 is no power of two, and lo0 = -1
    kernel._sort(keys, perm, np.array([1, 3, 6, 0, 1, -1, 1, 1], np.int64))
    raise AssertionError("a bad program ran")
except ValueError:
    pass
g = np.array([1, 3, 0, 0], np.uint64)
perm = np.arange(4, dtype=np.int64)
kernel.route(g, perm)
assert (g.tolist(), perm.tolist()) == ([1, 0, 3, 0], [0, -1, 1, 3])
g = np.array([2, 4, 7, 0, 0, 0, 0], np.uint64)
perm = np.arange(7, dtype=np.int64)
kernel.route(g, perm)
assert (g.tolist(), perm.tolist()) == ([0, 2, 0, 4, 0, 0, 7],
                                       [-1, 0, -1, 1, 4, 5, 2])
for n in (0, 1, 7, 1000):
    cols = [rng.integers(0, 2**64, n, dtype=np.uint64) for _ in range(7)]
    nul = rng.integers(0, 2, n).astype(np.uint8)
    perm = rng.integers(-1, n, n)
    want = [np.where(perm < 0, 0, col[perm]) for col in cols]
    want_nul = np.where(perm < 0, 1, nul[perm])
    kernel.gather(cols, nul, perm)
    assert all(np.array_equal(c, w) for c, w in zip(cols, want)), n
    assert np.array_equal(nul, want_nul), n
try:  # an entry past the end
    kernel.gather(cols, nul, np.full(n, n, np.int64))
    raise AssertionError("a gather past the end ran")
except ValueError:
    pass
for n in (1, 2, 7, 1000, 5400):
    j = top[rng.integers(0, 4, n)]
    tid = rng.integers(0, 4, n).astype(np.uint64)
    wild = [rng.integers(0, 2**64, n, dtype=np.uint64) for _ in range(5)]
    got, want = ([c.copy() for c in (j, tid, *wild[:3])] for _ in range(2))
    assert kernel.fill_dimensions(*got) == \
        _native.NUMPY.fill_dimensions(*want), n
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), n
    a1 = wild[2] | np.uint64(1)
    for cols in ((np.sort(j), a1, np.ones(n, np.uint64)),  # ii = q
                 (j, a1, wild[2])):
        got, want = ([c.copy() for c in (*cols, *wild[3:])] for _ in range(2))
        assert kernel.align(*got) == _native.NUMPY.align(*want), n
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), n
    g = j % np.uint64(5)
    nul = rng.integers(0, 256, n).astype(np.uint8)
    got, want = ([c.copy() for c in (g, wild[0], nul)] for _ in range(2))
    assert kernel.prefix(*got) == _native.NUMPY.prefix(*want), n
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), n
    assert kernel.prefix(got[0], got[0], got[2]) is not None  # g is f
    perm = rng.integers(-1, n, n)
    got, want = ([c.copy() for c in (g, perm)] for _ in range(2))
    kernel.fold(*got)
    _native.NUMPY.fold(*want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), n
assert kernel.prefix(top, wild[0][:4], np.zeros(4, np.uint8)) is None  # wraps
assert not kernel.align(j, j.copy(), j.copy(), wild[0], wild[1])  # alpha1 0
"""
UBSAN_FLAGS = ("-O1", "-g", "-fsanitize=undefined",
               "-fno-sanitize-recover=all", "-shared", "-fPIC")


def _can_build_ubsan(tmp_path) -> bool:
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x << 1; }\n")
    return _can_build_kernel() and subprocess.run(
        [shutil.which("cc"), *UBSAN_FLAGS, "-o", str(tmp_path / "probe.so"),
         str(probe)], capture_output=True).returncode == 0


# oblivjoin_sort's dispatch on x86-64 glibc: an AVX2 body and the x86-64
# baseline body, picked by the CPU when the object loads, and the same
# test of the CPU, which turns on the fused hops
CLONES = '__attribute__((target_clones("avx2", "default")))'
FUSE = '#define FUSE __builtin_cpu_supports("avx2")'


def _plain_source() -> str:
    """SOURCE without the dispatch and with the fused hops off: the plain
    body, which is the "default" clone that an x86-64 CPU without AVX2
    runs, and what other targets build."""
    assert _native.SOURCE.count(CLONES) == _native.SOURCE.count(FUSE) == 1
    return _native.SOURCE.replace(CLONES, "").replace(FUSE, "#define FUSE 0")


def _cpu_has_avx2() -> bool:
    """Whether this CPU runs the AVX2 body, by its /proc/cpuinfo flags."""
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def _run_under_ubsan(source: str, tmp_path) -> None:
    """Build source with UBSAN_FLAGS and run UBSAN_RUN on it."""
    if not _can_build_ubsan(tmp_path):
        pytest.skip("no cc or libubsan")
    src, lib = tmp_path / "native.c", tmp_path / "native.so"
    src.write_text(source)
    subprocess.run([shutil.which("cc"), *UBSAN_FLAGS, "-o", str(lib),
                    str(src)], check=True, timeout=300)
    env = dict(os.environ,
               PYTHONPATH=str(Path(oblivjoin.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", UBSAN_RUN, str(lib)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_native_source_runs_clean_under_ubsan(tmp_path):
    # the kernels on an -fsanitize=undefined build, loaded by ctypes; the
    # sort runs the clone this CPU picks
    _run_under_ubsan(_native.SOURCE, tmp_path)


def test_plain_source_runs_clean_under_ubsan(tmp_path):
    # the same without the clone dispatch: the default clone's body
    _run_under_ubsan(_plain_source(), tmp_path)


# GCC's and Clang's -fsanitize-coverage=trace-pc call
# __sanitizer_cov_trace_pc at every basic block.  This hook, built
# without the flag and hidden, so that the object's calls bind to it,
# folds each caller's address into a hash of the block sequence.
COV_FLAG = "-fsanitize-coverage=trace-pc"
COV_HOOK = r"""
#include <stdint.h>
static uint64_t h, count;
__attribute__((visibility("hidden"))) void __sanitizer_cov_trace_pc(void)
{
    h = (h ^ (uint64_t)(uintptr_t)__builtin_return_address(0)) *
        1099511628211u;
    count++;
}
void cov_reset(void) { h = 14695981039346656037u; count = 0; }
uint64_t cov_hash(void) { return h; }
uint64_t cov_count(void) { return count; }
"""


def _build_traced(source: str, tmp_path, name: str):
    """(kernels, hook) of source built as the module is, with COV_FLAG,
    and linked with COV_HOOK; None where cc cannot build with the flag."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    hook, src = tmp_path / "hook.o", tmp_path / f"{name}.c"
    lib = tmp_path / f"{name}.so"
    (tmp_path / "hook.c").write_text(COV_HOOK)
    src.write_text(source)
    for cmd in ([cc, "-O2", "-fPIC", "-c", "-o", str(hook),
                 str(tmp_path / "hook.c")],
                [cc, *_native._FLAGS, COV_FLAG, "-o", str(lib), str(src),
                 str(hook)]):
        if subprocess.run(cmd, capture_output=True,
                          timeout=300).returncode != 0:
            return None
    dll = ctypes.CDLL(str(lib))
    dll.cov_hash.restype = dll.cov_count.restype = ctypes.c_uint64
    return _native.Kernels(dll), dll


def _key_sets(rng, n):
    """Four uint64 key columns of n slots: all equal, tie-heavy, distinct
    and uniform."""
    return [np.zeros(n, np.uint64),
            rng.integers(0, 3, n).astype(np.uint64),
            rng.permutation(n).astype(np.uint64),
            rng.integers(0, 2**64, n, dtype=np.uint64)]


def _kernel_runs(kernel, n, keys):
    """name -> a call of each checked kernel on n slots built from the
    key column keys: the sort on two keys, the route, and the four
    scans, each on the columns its phase gives it, so that align accepts
    them (with alpha2 1, ii = q // alpha1 + q % alpha1 <= q)."""
    j = np.sort(keys)
    tid = keys % np.uint64(4)
    g = keys % np.uint64(n + 2)
    counts = keys % np.uint64(5)
    alpha1 = keys % np.uint64(7) + np.uint64(1)
    zeros = functools.partial(np.zeros, n, np.uint64)
    return {
        "sort": lambda: kernel.sort([keys.copy(), keys[::-1].copy()],
                                    np.arange(n)),
        "route": lambda: kernel.route(g.copy(), np.arange(n)),
        "fill": lambda: kernel.fill_dimensions(j, tid, zeros(), zeros(),
                                               zeros()),
        "prefix": lambda: kernel.prefix(counts, zeros(),
                                        np.zeros(n, np.uint8)),
        "fold": lambda: kernel.fold(counts, np.arange(n)),
        "align": lambda: kernel.align(j, alpha1, np.ones(n, np.uint64),
                                      zeros(), zeros()),
    }


def _block_sequences(traced, n):
    """name -> the set of (hash, count) block sequences each kernel of
    _kernel_runs runs over the four key sets of _key_sets at n slots."""
    kernel, hook = traced
    seqs = {}
    for keys in _key_sets(np.random.default_rng(n), n):
        for name, run in _kernel_runs(kernel, n, keys).items():
            hook.cov_reset()
            run()
            seqs.setdefault(name, set()).add((hook.cov_hash(),
                                              hook.cov_count()))
    return seqs


def test_kernels_run_one_block_sequence_per_length(tmp_path):
    # the sort, the route and the four scans take no branch on the data:
    # for each length, every key set runs the same basic blocks in the
    # same order
    traced = _build_traced(_native.SOURCE, tmp_path, "native")
    if traced is None:
        pytest.skip(f"cc cannot build with {COV_FLAG}")
    for n in (1, 7, 1000, 5400):
        seqs = _block_sequences(traced, n)
        assert {name: len(s) for name, s in seqs.items()} == \
            dict.fromkeys(seqs, 1), n


# one `if` on a key in the sort's span loop, in the AVX2 body's fused
# compare-exchange, in the fold, and around the sort key writes of the
# fill and the align scans: each keeps the kernel's output on the checked
# columns but branches on the data
SPAN_MASK = "        uint64_t mask = -((up & gt) | ((up ^ 1) & lt));\n"
LANE_MASK = "    v4 mask = (gt & -up) | (lt & (up - 1));\n"
FOLD_CARRY = "        carry = (pr[i] & live) | (carry & ~live);\n"
FILL_KEY = "        key[i] = (t - 1) << 63 | r;\n"
ALIGN_KEY = "        key[i] = i - q + w;\n"
COV_MUTANTS = {
    "sort": (SPAN_MASK, SPAN_MASK + "        if (gt)\n"
                                    "            mask = -up;\n"),
    "fused": (LANE_MASK, LANE_MASK + "    if (gt[0])\n"
                                     "        mask[0] = -up;\n"),
    "fold": (FOLD_CARRY, "        if (live)\n            carry = pr[i];\n"),
    "fill": (FILL_KEY, "        key[i] = r;\n        if ((t - 1) & 1)\n"
                       "            key[i] |= (uint64_t)1 << 63;\n"),
    "align": (ALIGN_KEY, "        key[i] = i + w;\n        if (q)\n"
                         "            key[i] -= q;\n"),
}


@pytest.mark.parametrize("name", sorted(COV_MUTANTS))
def test_block_sequence_check_sees_a_branch_on_a_key(name, tmp_path):
    line, branch = COV_MUTANTS[name]
    assert _native.SOURCE.count(line) == 1
    if name == "fused" and not _cpu_has_avx2():
        pytest.skip("this CPU does not run the AVX2 body")
    traced = _build_traced(_native.SOURCE.replace(line, branch), tmp_path,
                           name)
    if traced is None:
        pytest.skip(f"cc cannot build with {COV_FLAG}")
    kernel = "sort" if name == "fused" else name
    assert len(_block_sequences(traced, 1000)[kernel]) > 1


@pytest.mark.skipif(not _can_build_kernel(), reason="no cc")
def test_default_clone_matches_numpy_levels(tmp_path):
    # the plain body, and the dispatched build (the fused hops on a CPU
    # with AVX2), each built as the module is, leave the permutation and
    # keys of the numpy level walk on tie-heavy keys, at every length to
    # 300 and at three join lengths whose tail parts end mid-run, for both
    # the unit-stride spans and the stride-2 spans of j = 1
    kernels = []
    for name, source in (("plain", _plain_source()),
                         ("native", _native.SOURCE)):
        src, lib = tmp_path / f"{name}.c", tmp_path / f"{name}.so"
        src.write_text(source)
        subprocess.run([shutil.which("cc"), *_native._FLAGS, "-o", str(lib),
                        str(src)], check=True, timeout=300)
        kernels.append(_native.Kernels(ctypes.CDLL(str(lib))))
    rng = np.random.default_rng(11)
    top = np.array([0, 1, 2**63, 2**64 - 1], np.uint64)
    for n in (*range(2, 301), 5400, 6000, 8193):
        for nkeys in (1, 2, 3):
            keys = [top[rng.integers(0, 4, n)] for _ in range(nkeys)]
            nk = [col.copy() for col in keys]
            nperm = np.arange(n, dtype=np.int64)
            for lo, hi, asc in sort_levels(n):
                _native._ce_level_vector(nk, nperm, lo, hi, asc)
            for kernel in kernels:
                ck = [col.copy() for col in keys]
                cperm = np.arange(n, dtype=np.int64)
                kernel.sort(ck, cperm)
                assert np.array_equal(cperm, nperm), (n, nkeys)
                for c, v in zip(ck, nk):
                    assert np.array_equal(c, v), (n, nkeys)


@pytest.mark.skipif(not (_can_build_kernel() and shutil.which("nm")
                         and platform.machine() == "x86_64"
                         and platform.libc_ver()[0] == "glibc"),
                    reason="no cc or nm, or not x86-64 glibc")
def test_sort_kernel_is_dispatched_on_x86_64_glibc(tmp_path):
    # the built object holds both clones behind an ifunc: a compiler that
    # silently dropped the attribute would leave one plain body
    assert isinstance(_native.load(cache_dir=tmp_path), _native.Kernels)
    out = subprocess.run(["nm", str(_native._library_path("cc", tmp_path))],
                         capture_output=True, text=True, check=True).stdout
    symbols = {line.split()[-1]: line.split()[-2]
               for line in out.splitlines()}
    assert symbols["oblivjoin_sort"] == "i"
    for body in ("oblivjoin_sort.avx2", "oblivjoin_sort.default"):
        assert any(name.startswith(body) for name in symbols), body


@pytest.mark.parametrize("symbol", ["oblivjoin_sort", "oblivjoin_sort_pairs",
                                    "oblivjoin_route", "oblivjoin_gather",
                                    "oblivjoin_fill", "oblivjoin_prefix",
                                    "oblivjoin_fold", "oblivjoin_align"])
def test_cached_object_without_a_kernel_falls_back(symbol, tmp_path,
                                                   monkeypatch):
    # an object at the cache path that exports only one of the eight
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
    assert _native.load(cache_dir=cache) is _native.NUMPY
    monkeypatch.setattr(_native, "kernel", functools.cache(
        lambda: _native.load(cache_dir=cache)))
    for _ in range(2):
        a = alloc(6, NullSink())
        a.col("j")[:] = [5, 0, 3, 2, 4, 1]
        a.col("is_null")[:] = 0
        primitives.bitonic_sort(a, KEY_J_TID)
        assert a.debug_col("j").tolist() == [0, 1, 2, 3, 4, 5]
    assert _native.kernel() is _native.NUMPY


def test_warm_cache_load_runs_no_compiler(tmp_path, monkeypatch):
    if _native.load(cache_dir=tmp_path) is _native.NUMPY:
        pytest.skip("the native module cannot be built here")

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler invoked on a warm cache")
    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    kernel = _native.load(cache_dir=tmp_path)
    assert isinstance(kernel, _native.Kernels)
    keys = [np.array([2, 1], np.uint64)]
    perm = np.array([0, 1], np.int64)
    kernel.sort(keys, perm)
    assert perm.tolist() == [1, 0]
    g = np.array([2, 0], np.uint64)
    kernel.route(g, perm)
    assert (g.tolist(), perm.tolist()) == ([0, 2], [-1, 1])


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
            "print(len(glob.glob(objects)),",
            "      isinstance(_native.kernel(), _native.Kernels))",
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
    # a view's events carry its offset; a block over two arrays carries a
    # per-event id vector
    b = alloc(3, s)
    a.view(1, 1).read(0)
    emit_steps((a, READ, np.arange(2)), (b.view(1, 2), WRITE, np.arange(2)))
    lines = list(s.lines())
    assert lines == [str(ev) for ev in s.events()]
    assert lines[2:] == [f"R {a.array_id} 1",
                         f"R {a.array_id} 0", f"W {b.array_id} 1",
                         f"R {a.array_id} 1", f"W {b.array_id} 2"]


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
