"""The native module: the trace hash chain, the compare-exchange level and
the routing network in one C source, compiled into one shared object.

oblivjoin_chain extends the trace hash chain.  One chain link hashes the
32-byte digest followed by a 17-byte record.  Those 49 bytes plus SHA-256
padding fill exactly one 64-byte block, so a link is one SHA256_Transform
from the IV, with the padding written once.

oblivjoin_ce_level applies one level of the sorting network (sort_levels)
to the uint64 key copies and the int64 slot permutation of the vector
bitonic_sort: a lexicographic compare over the keys, each ascending or
descending, then an XOR-masked swap of the keys and the permutation, like
ct_select, for every pair of the level in every batch row.

oblivjoin_route runs the whole routing network of oblivious_distribute
(route_hops, largest first) in every batch row, on uint64 copies of f and
the null flag and an int64 slot permutation: at hop j, for i from m-j-1
down to 0, a live entry at i with f > i+j moves to i+j and slot i becomes
null, its permutation entry -1.  The moves are masked selects, like
ct_select.

The object is compiled on first use into the user's cache directory and
loaded with ctypes; nothing is built at import.  load() returns None when
it cannot build or load the object, and then every caller keeps its
fallback: trace.chain_digest a hashlib loop, primitives.bitonic_sort the
numpy level, primitives.oblivious_distribute the numpy hop.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = r"""
#define OPENSSL_SUPPRESS_DEPRECATED
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <openssl/sha.h>

static const SHA_LONG IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/* h: 32-byte chain state, updated in place; rec: n records of 17 bytes */
void oblivjoin_chain(unsigned char *h, const unsigned char *rec, size_t n)
{
    unsigned char block[64] = {0};
    SHA256_CTX ctx;
    memcpy(block, h, 32);
    block[49] = 0x80;
    block[62] = 392 >> 8;
    block[63] = 392 & 0xff;
    for (size_t i = 0; i < n; i++) {
        memcpy(block + 32, rec + 17 * i, 17);
        memcpy(ctx.h, IV, sizeof IV);
        SHA256_Transform(&ctx, block);
        for (int w = 0; w < 8; w++) {
            block[4 * w] = (unsigned char)(ctx.h[w] >> 24);
            block[4 * w + 1] = (unsigned char)(ctx.h[w] >> 16);
            block[4 * w + 2] = (unsigned char)(ctx.h[w] >> 8);
            block[4 * w + 3] = (unsigned char)ctx.h[w];
        }
    }
    memcpy(h, block, 32);
}

/* keys: nkeys arrays of batch rows by len slots, compared in order, key c
   descending where desc[c]; perm: the slot permutation, same shape.  Pair
   t orders slots (lo[t], hi[t]) of every row, ascending where asc[t].
   Returns -1, having written nothing, if an index lies outside [0, len). */
int oblivjoin_ce_level(uint64_t *const *keys, const unsigned char *desc,
                       size_t nkeys, uint64_t *perm, size_t batch,
                       size_t len, const int64_t *lo, const int64_t *hi,
                       const unsigned char *asc, size_t npairs)
{
    for (size_t t = 0; t < npairs; t++)
        if ((uint64_t)lo[t] >= len || (uint64_t)hi[t] >= len)
            return -1;
    for (size_t b = 0; b < batch; b++) {
        size_t row = b * len;
        for (size_t t = 0; t < npairs; t++) {
            size_t i = row + (size_t)lo[t], k = row + (size_t)hi[t];
            uint64_t gt = 0, lt = 0, eq = 1;
            for (size_t c = 0; c < nkeys; c++) {
                uint64_t x = keys[c][i], y = keys[c][k];
                uint64_t g = x > y, l = x < y;
                if (desc[c]) {
                    uint64_t s = g;
                    g = l;
                    l = s;
                }
                gt |= eq & g;
                lt |= eq & l;
                eq &= ~(g | l);
            }
            uint64_t mask = -(asc[t] ? gt : lt);
            for (size_t c = 0; c < nkeys; c++) {
                uint64_t d = (keys[c][i] ^ keys[c][k]) & mask;
                keys[c][i] ^= d;
                keys[c][k] ^= d;
            }
            uint64_t d = (perm[i] ^ perm[k]) & mask;
            perm[i] ^= d;
            perm[k] ^= d;
        }
    }
    return 0;
}

/* f, nul: uint64 copies of the destinations and null flags, batch rows by
   len slots; perm: the slot permutation, same shape.  Runs the hops
   hops[0..nhops) in order in every row: at hop j, for i from len-j-1 down
   to 0, a live entry at i with f > i+j moves to i+j and slot i becomes
   null, its perm -1 (all ones).  Returns -1, having written nothing, if a
   hop lies outside [1, len). */
int oblivjoin_route(uint64_t *f, uint64_t *nul, int64_t *perm, size_t batch,
                    size_t len, const int64_t *hops, size_t nhops)
{
    for (size_t h = 0; h < nhops; h++)
        if (hops[h] < 1 || (uint64_t)hops[h] >= len)
            return -1;
    for (size_t b = 0; b < batch; b++) {
        uint64_t *fr = f + b * len, *nr = nul + b * len;
        uint64_t *pr = (uint64_t *)perm + b * len;
        for (size_t h = 0; h < nhops; h++) {
            size_t j = (size_t)hops[h];
            for (size_t i = len - j; i-- > 0;) {
                size_t k = i + j;
                uint64_t fi = fr[i], ni = nr[i], pi = pr[i];
                uint64_t fk = fr[k], nk = nr[k], pk = pr[k];
                uint64_t mask = -(uint64_t)((ni == 0) & (fi > k));
                fr[k] = fk ^ ((fk ^ fi) & mask);
                nr[k] = nk ^ ((nk ^ ni) & mask);
                pr[k] = pk ^ ((pk ^ pi) & mask);
                fr[i] = fi & ~mask;
                nr[i] = ni | (mask & 1);
                pr[i] = pi | mask;
            }
        }
    }
    return 0;
}
"""

_FLAGS = ("-O2", "-shared", "-fPIC")
_LIBS = ("-lcrypto",)
# one type for the chain state: a fresh c_char array type per call would
# leave a reference cycle for the cyclic GC on every digest
_State = ctypes.c_char * 32
_P, _N = ctypes.c_void_p, ctypes.c_size_t


def _default_cache() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "oblivjoin"


def _addr(arr: np.ndarray, dtype) -> int:
    """Address of arr's data, once it is known to be C-contiguous dtype."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"the native kernels need a C-contiguous {dtype} "
                         f"array, got {arr.dtype}")
    return arr.ctypes.data


class _Levels:
    """level(lo, hi, asc) over one sort's key copies and permutation.

    The key pointers and directions are laid out once per sort; each call
    runs one level of sort_levels in one kernel call, which checks every
    index against len before it writes.
    """

    def __init__(self, fn, keys, perm: np.ndarray) -> None:
        for col, _ in keys:
            if col.shape != perm.shape:
                raise ValueError("key and permutation shapes differ")
        self._fn = fn
        self._arrays = (keys, perm)  # the addresses below point into these
        self._ptrs = np.array([_addr(col, np.uint64) for col, _ in keys],
                              np.uintp)
        self._desc = np.array([not up for _, up in keys], np.uint8)
        self._args = (self._ptrs.ctypes.data, self._desc.ctypes.data,
                      len(keys), _addr(perm, np.int64), *perm.shape)

    def __call__(self, lo: np.ndarray, hi: np.ndarray,
                 asc: np.ndarray) -> None:
        n = len(lo)
        if len(hi) != n or len(asc) != n:
            raise ValueError("lo, hi and asc differ in length")
        if self._fn(*self._args, _addr(lo, np.int64), _addr(hi, np.int64),
                    _addr(asc, np.bool_), n):
            raise ValueError("a level index lies outside the sorted rows")


class Kernels:
    """The three kernels of one loaded shared object."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # each lookup raises AttributeError on an object that lacks it
        self._chain = lib.oblivjoin_chain
        self._level = lib.oblivjoin_ce_level
        self._route = lib.oblivjoin_route
        self._chain.argtypes = (ctypes.POINTER(_State), _P, _N)
        self._chain.restype = None
        self._level.argtypes = (_P, _P, _N, _P, _N, _N, _P, _P, _P, _N)
        self._level.restype = ctypes.c_int
        self._route.argtypes = (_P, _P, _P, _N, _N, _P, _N)
        self._route.restype = ctypes.c_int

    def chain(self, h: bytes, rec_addr: int, n: int) -> bytes:
        """Extend the 32-byte state h by the n 17-byte records stored
        contiguously at address rec_addr."""
        state = _State.from_buffer_copy(h)
        self._chain(state, rec_addr, n)
        return bytes(state)

    def levels(self, keys, perm: np.ndarray) -> _Levels:
        """level(lo, hi, asc) that compare-exchanges in place the
        C-contiguous (batch, len) uint64 key copies keys, a list of
        (column, ascending), and the int64 permutation perm."""
        return _Levels(self._level, keys, perm)

    def route(self, f: np.ndarray, nul: np.ndarray, perm: np.ndarray,
              hops: np.ndarray) -> None:
        """Run the routing hops, an int64 array, in order and in place on
        the C-contiguous (batch, len) uint64 copies f and nul and the int64
        permutation perm; a slot an entry moves out of gets perm -1."""
        if perm.ndim != 2 or not f.shape == nul.shape == perm.shape:
            raise ValueError("f, null flag and permutation shapes differ")
        if hops.ndim != 1:
            raise ValueError("hops must be one-dimensional")
        if self._route(_addr(f, np.uint64), _addr(nul, np.uint64),
                       _addr(perm, np.int64), *perm.shape,
                       _addr(hops, np.int64), len(hops)):
            raise ValueError("a hop lies outside the routed rows")


def _library_path(cc: str, cache: Path) -> Path:
    """Where the shared object lives: named by the SHA-256 of the source
    and the compile command."""
    key = hashlib.sha256(" ".join((SOURCE, cc, *_FLAGS, *_LIBS)).encode())
    return cache / f"native-{key.hexdigest()[:16]}.so"


def load(cc: str = "cc", cache_dir: Path | None = None) -> Kernels | None:
    """The kernels of the shared object, or None if it cannot be built or
    loaded, or lacks a kernel.  It is compiled only when the cache lacks
    it."""
    cache = cache_dir or _default_cache()
    lib = _library_path(cc, cache)
    try:
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src, out = Path(tmp, "native.c"), Path(tmp, "native.so")
                src.write_text(SOURCE)
                subprocess.run([cc, *_FLAGS, "-o", str(out), str(src), *_LIBS],
                               check=True, capture_output=True, timeout=300)
                os.replace(out, lib)
        return Kernels(ctypes.CDLL(str(lib)))
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


@functools.cache
def kernel() -> Kernels | None:
    """load() with the defaults, once per process; a failure is kept too."""
    return load()
