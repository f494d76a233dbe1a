"""The native module: the whole sorting network, its pairs and the routing
network in one C source, compiled into one shared object with `cc` alone.

oblivjoin_sort runs every level of one sort's network in every batch row,
on the uint64 key copies and the int64 slot permutation of the vector
bitonic_sort.  It reads the network as a sort program
(_schedule.sort_program), a few int64 entries per level, and expands
each level's pairs itself, the same pairs sort_levels yields.  Each pair
is a lexicographic compare over the keys, each ascending, then an
XOR-masked swap of the keys and the permutation, like ct_select; the
comparator body is compiled once per key count, one to three.  The whole
program is validated before the first write, by the check that
oblivjoin_sort_pairs shares.

oblivjoin_sort_pairs writes a range of a sort program's pairs, start to
start+count-1 in network order, as int64 lo and hi arrays: the pairs
sort_levels yields, level after level, without walking its levels.  It
skips the levels and parts before start by their pair counts, so each
chunk of a sort costs one pass over the program's entries, not over the
pairs before it.

oblivjoin_route runs the whole routing network of oblivious_distribute
(route_hops, largest first) in every batch row, on uint64 copies of f and
the null flag and an int64 slot permutation: at hop j, for i from m-j-1
down to 0, a live entry at i with f > i+j moves to i+j and slot i becomes
null, its permutation entry -1.  The moves are masked selects, like
ct_select.

The object is compiled on first use into the user's cache directory and
loaded with ctypes; nothing is built at import.  load() returns None when
it cannot build or load the object, or the object lacks one of the three
kernels, and then both callers keep their fallbacks:
primitives.bitonic_sort the numpy level per level of sort_levels, each
level emitted as one block, and primitives.oblivious_distribute the
numpy hop.
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
#include <stddef.h>
#include <stdint.h>

/* Orders slots i and k of one row: a lexicographic compare over the
   nkeys key rows, each ascending, then an XOR-masked swap of the keys and
   the permutation, ascending where up (1) and descending where not (0).
   Inlined with a constant nkeys, so each key count gets its own body. */
static inline __attribute__((always_inline)) void
ce(uint64_t *const *key, int nkeys, uint64_t *perm, size_t i, size_t k,
   uint64_t up)
{
    uint64_t gt = 0, lt = 0, eq = 1;
    for (int c = 0; c < nkeys; c++) {
        uint64_t x = key[c][i], y = key[c][k];
        uint64_t g = x > y, l = x < y;
        gt |= eq & g;
        lt |= eq & l;
        eq &= ~(g | l);
    }
    uint64_t mask = -((up & gt) | ((up ^ 1) & lt));
    for (int c = 0; c < nkeys; c++) {
        uint64_t d = (key[c][i] ^ key[c][k]) & mask;
        key[c][i] ^= d;
        key[c][k] ^= d;
    }
    uint64_t d = (perm[i] ^ perm[k]) & mask;
    perm[i] ^= d;
    perm[k] ^= d;
}

/* Runs every level of the validated program prog in every row. */
static inline __attribute__((always_inline)) void
run_sort(uint64_t *const *keys, int nkeys, uint64_t *perm, size_t batch,
         size_t len, const int64_t *prog)
{
    for (size_t b = 0; b < batch; b++) {
        uint64_t *key[3], *pr = perm + b * len;
        for (int c = 0; c < nkeys; c++)
            key[c] = keys[c] + b * len;
        const int64_t *p = prog + 1;
        for (int64_t level = 0; level < prog[0]; level++) {
            size_t j = (size_t)p[0], k = (size_t)p[1];
            size_t half = (size_t)p[2] >> 1, nparts = (size_t)p[3];
            p += 4;
            for (size_t t = 0; t < half; t++) {
                size_t lo = t + (t & -j);
                ce(key, nkeys, pr, lo, lo + j, (lo & k) == 0);
            }
            for (size_t q = 0; q < nparts; q++, p += 3) {
                size_t lo0 = (size_t)p[0], cnt = (size_t)p[1];
                uint64_t up = p[2] != 0;
                for (size_t t = 0; t < cnt; t++) {
                    size_t lo = lo0 + t + (t & -j);
                    ce(key, nkeys, pr, lo, lo + j, up);
                }
            }
        }
    }
}

/* Whether pairs lo0 + t + (t & -j), hi = lo + j, for t < cnt all lie in
   [0, len); j is a power of two, so the last pair is the highest. */
static int pairs_fit(int64_t lo0, int64_t cnt, size_t j, size_t len)
{
    if (lo0 < 0 || cnt < 0)
        return 0;
    if (cnt == 0)
        return 1;
    if ((uint64_t)lo0 >= len || (uint64_t)cnt > len || j >= len)
        return 0;
    size_t t = (size_t)cnt - 1;
    return (size_t)lo0 + t + (t & -j) + j < len;
}

/* The comparator count of prog, plen int64 entries, a sort program
   (_schedule.sort_program): the level count, then per level j, k, nfull,
   nparts and nparts triples (lo0, cnt, up).  Each level orders the pairs
   of the complete blocks, lo = t + (t & -j) for t < nfull / 2, ascending
   iff (lo & k) == 0, and of each part, lo = lo0 + t + (t & -j) for
   t < cnt, ascending iff up; each pair's high slot is lo + j.  -1 unless
   the whole program lies in plen entries, has each j a power of two,
   keeps every pair inside [0, len) and has fewer than 2^63 pairs. */
static int64_t check_program(size_t len, const int64_t *prog, size_t plen)
{
    if (plen < 1 || prog[0] < 0)
        return -1;
    size_t at = 1;
    int64_t ncomp = 0;
    for (int64_t level = 0; level < prog[0]; level++) {
        if (plen - at < 4)
            return -1;
        const int64_t *p = prog + at;
        if (p[0] < 1 || (p[0] & (p[0] - 1)) || p[2] < 0 || p[3] < 0 ||
            (uint64_t)p[2] > len || (uint64_t)p[3] > (plen - at - 4) / 3)
            return -1;
        size_t j = (size_t)p[0];
        int64_t half = p[2] >> 1;
        if (!pairs_fit(0, half, j, len) || half > INT64_MAX - ncomp)
            return -1;
        ncomp += half;
        at += 4;
        for (int64_t q = 0; q < p[3]; q++, at += 3) {
            if (!pairs_fit(prog[at], prog[at + 1], j, len) ||
                prog[at + 1] > INT64_MAX - ncomp)
                return -1;
            ncomp += prog[at + 1];
        }
    }
    return ncomp;
}

/* keys: nkeys (1 to 3) arrays of batch rows by len slots, compared in
   order, each ascending; perm: the slot permutation, same shape.  Runs
   the sort program prog, plen int64 entries (check_program), in every
   row.  Returns -1, having written nothing, unless nkeys is 1 to 3 and
   check_program accepts prog for rows of len slots. */
int oblivjoin_sort(uint64_t *const *keys, size_t nkeys, uint64_t *perm,
                   size_t batch, size_t len, const int64_t *prog,
                   size_t plen)
{
    if (nkeys < 1 || nkeys > 3 || check_program(len, prog, plen) < 0)
        return -1;
    switch (nkeys) {
    case 1:
        run_sort(keys, 1, perm, batch, len, prog);
        break;
    case 2:
        run_sort(keys, 2, perm, batch, len, prog);
        break;
    default:
        run_sort(keys, 3, perm, batch, len, prog);
    }
    return 0;
}

/* Writes the pairs lo0 + t + (t & -j), lo + j of one level's complete
   blocks or part, t < cnt, at *lo and *hi, advancing both: the first
   *skip of them are skipped and at most *left written, and both counts
   go down by what was skipped and written. */
static void put_pairs(int64_t **lo, int64_t **hi, size_t lo0, size_t cnt,
                      size_t j, size_t *skip, size_t *left)
{
    if (*skip >= cnt) {
        *skip -= cnt;
        return;
    }
    size_t t = *skip, end = cnt - t > *left ? t + *left : cnt;
    *skip = 0;
    *left -= end - t;
    int64_t *l = *lo, *h = *hi;
    for (; t < end; t++) {
        size_t a = lo0 + t + (t & -j);
        *l++ = (int64_t)a;
        *h++ = (int64_t)(a + j);
    }
    *lo = l;
    *hi = h;
}

/* lo, hi: count int64 slots each.  Writes pairs start .. start+count-1 of
   the sort program prog, plen int64 entries, in network order: level by
   level, the complete blocks' pairs, then each part's, the pairs
   sort_levels yields.  Levels and parts before start are skipped by
   their counts.  Returns -1, having written nothing, unless
   check_program accepts prog for rows of len slots and
   0 <= start <= start + count <= its comparator count. */
int oblivjoin_sort_pairs(int64_t *lo, int64_t *hi, size_t len,
                         const int64_t *prog, size_t plen, int64_t start,
                         int64_t count)
{
    int64_t ncomp = check_program(len, prog, plen);
    if (ncomp < 0 || start < 0 || count < 0 || start > ncomp ||
        count > ncomp - start)
        return -1;
    size_t skip = (size_t)start, left = (size_t)count;
    const int64_t *p = prog + 1;
    for (int64_t level = 0; level < prog[0] && left; level++) {
        size_t j = (size_t)p[0], nparts = (size_t)p[3];
        put_pairs(&lo, &hi, 0, (size_t)p[2] >> 1, j, &skip, &left);
        p += 4;
        for (size_t q = 0; q < nparts; q++, p += 3)
            put_pairs(&lo, &hi, (size_t)p[0], (size_t)p[1], j, &skip, &left);
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


class Kernels:
    """The three kernels of one loaded shared object."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        # each lookup raises AttributeError on an object that lacks it
        self._sort = lib.oblivjoin_sort
        self._pairs = lib.oblivjoin_sort_pairs
        self._route = lib.oblivjoin_route
        self._sort.argtypes = (_P, _N, _P, _N, _N, _P, _N)
        self._sort.restype = ctypes.c_int
        self._pairs.argtypes = (_P, _P, _N, _P, _N, ctypes.c_int64,
                                ctypes.c_int64)
        self._pairs.restype = ctypes.c_int
        self._route.argtypes = (_P, _P, _P, _N, _N, _P, _N)
        self._route.restype = ctypes.c_int

    def sort(self, keys, perm: np.ndarray, prog: np.ndarray) -> None:
        """Run the sort program prog (_schedule.sort_program, an int64
        array) in place on the C-contiguous (batch, len) uint64 key copies
        keys, a list of one to three compared in order, each ascending,
        and the int64 permutation perm.  ValueError, before any write, if
        the arrays or the program do not fit."""
        if perm.ndim != 2 or any(col.shape != perm.shape for col in keys):
            raise ValueError("key and permutation shapes differ")
        if prog.ndim != 1:
            raise ValueError("the sort program must be one-dimensional")
        ptrs = np.array([_addr(col, np.uint64) for col in keys], np.uintp)
        if self._sort(ptrs.ctypes.data, len(keys), _addr(perm, np.int64),
                      *perm.shape, _addr(prog, np.int64), len(prog)):
            raise ValueError("the sort program or its key count does not "
                             "fit the sorted rows")

    def pairs(self, prog: np.ndarray, length: int, start: int, count: int,
              lo: np.ndarray, hi: np.ndarray) -> None:
        """Write pairs start .. start+count-1 of the sort program prog for
        rows of length slots into the first count slots of the
        C-contiguous one-dimensional int64 arrays lo and hi: the low and
        high slots, in the order sort_levels(length) yields them.
        ValueError, before any write, if the arrays are shorter, the
        program does not fit length, or the range lies outside the
        program's comparators."""
        if prog.ndim != 1 or lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("the program and the pair arrays must be "
                             "one-dimensional, lo and hi of one length")
        if count > len(lo):
            raise ValueError(f"{count} pairs do not fit {len(lo)} slots")
        if self._pairs(_addr(lo, np.int64), _addr(hi, np.int64), length,
                       _addr(prog, np.int64), len(prog), start, count):
            raise ValueError("the sort program does not fit the rows, or "
                             "the pairs lie outside it")

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
    key = hashlib.sha256(" ".join((SOURCE, cc, *_FLAGS)).encode())
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
                subprocess.run([cc, *_FLAGS, "-o", str(out), str(src)],
                               check=True, capture_output=True, timeout=300)
                os.replace(out, lib)
        return Kernels(ctypes.CDLL(str(lib)))
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


@functools.cache
def kernel() -> Kernels | None:
    """load() with the defaults, once per process; a failure is kept too."""
    return load()
