"""The vector engine's kernel sets: the sorting network, its pairs, the
routing network, the column gather and the linear scans, as C kernels in
one source compiled with `cc` alone (Kernels), or as their numpy bodies
(NUMPY).  kernel() returns the C set where it can be built and loaded,
else NUMPY, once per process; no caller asks which.  Both sets have the
methods sort, route, gather, fill_dimensions, prefix, fold and align,
with the same parameters and results.  sort(keys, perm) runs the network
sort_program(len(perm)), route(g, perm) the hops route_hops(len(perm)),
and the tests hand the C kernels other programs and hops through
Kernels._sort and Kernels._route.  A sort hands its pairs to an emit
callback in network order: the C set in blocks of _EMIT_CHUNK
comparators from the pair expander, NUMPY one level of sort_levels at a
time from the walk that runs it.  NUMPY's reads and writes follow the
data; the C kernels' follow it only in the gather.

oblivjoin_sort runs every level of one sort's network on the uint64 key
copies and the int64 slot permutation of the vector bitonic_sort and
oblivious_distribute, and returns its comparator count.  It reads the
network as a sort program (_schedule.sort_program), a few int64 entries
per level, and runs each level as spans.  The complete blocks and each
tail part at hop j are runs of j consecutive low slots, 2j apart, the
last cut at the part's count, and each run has one direction, so a run
is one loop over i of pairs (i, i+j) on restrict-qualified key and
permutation pointers, which the compiler vectorizes.  At j = 1 a run is
one pair, so the pairs of one direction run as one loop of stride 2
instead.  These are the pairs sort_levels yields; the pairs of a level
are disjoint, so their order within it changes nothing.  Each pair is a
lexicographic compare over the keys, each ascending, then an XOR-masked
swap of the keys and the permutation, like ct_select; the loop body is
compiled once per key count, one to three.  In the AVX2 body (below),
hops 4, 2 and 1 of a stage k >= 8 run their complete blocks in one pass
instead, an 8-slot block at a time in registers: two four-lane vectors
per key copy and for the permutation, compared lane by lane at hop 4,
shuffled to slots {0,1,4,5} and {2,3,6,7} for hop 2 and to {0,2,4,6}
and {1,3,5,7} for hop 1, and shuffled back to be stored; the three
levels' tail parts, past the complete blocks, then run as spans.  The
baseline body and other targets run every level as spans.  The whole
program is validated before the first write, by the check that
oblivjoin_sort_pairs shares, the one check of a sort program.  The keys
and the permutation must not overlap (Kernels.sort refuses arrays that
share memory).

The sort stays data-oblivious: its loop bounds and addresses come from
the program alone, a function of the public length; every select is a
mask, with no branch on a key; and which compiled body runs (below)
depends on the host CPU only.

oblivjoin_sort_pairs writes a range of a sort program's pairs, start to
start+count-1 in network order, as int64 lo and hi arrays: the pairs
sort_levels yields, level after level, without walking its levels.  It
skips the levels and parts before start by their pair counts, so each
chunk of a sort costs one pass over the program's entries, not over the
pairs before it.

oblivjoin_route runs the whole routing network of oblivious_distribute
(route_hops, largest first) on two arrays: the uint64 destinations
g = f & (nul - 1), f on a live entry and 0 on a null one, and an int64
slot permutation.  At hop j, for i from m-j-1 down to 0, an entry at i
with g > i+j moves to i+j and slot i becomes null, its g 0 and its
permutation entry -1 (_VACATED).  The moves are masked selects, like
ct_select.

oblivjoin_gather moves every column of an array, the uint64 fields and
the uint8 null flags, through an int64 slot permutation in place, one
column at a time through a scratch column: slot i takes slot perm[i],
and a slot whose entry is -1 becomes a null entry, by a mask.  It
refuses an entry outside [-1, len) before its first write.  Its reads
follow the permutation, so unlike the networks its addresses depend on
the data.

Four scans run the vector engine's linear passes, each one sequential
pass over its columns, as the scalar engine does: the carried values
are selected by masks, with no branch or address that depends on a
value.  oblivjoin_fill is fill_dimensions: forward, it carries each run
of equal keys' counts of tid 1 and tid 2 (alpha1, alpha2) and the sum m
of the runs' final alpha1 * alpha2; backward, it carries each run's
final counts over the run.  oblivjoin_prefix is the expansion's prefix
pass, a running sum of the counts, a null entry's masked to 0; it
refuses a sum that wraps past 2^64 - 1 in a read-only first pass, before
any write.  oblivjoin_fold is the
expansion's forward fill folded into the routed permutation: it carries
the permutation entry of the last live slot.  oblivjoin_align is the
align pass: it carries each slot's index q in its key run and writes
ii = q / alpha1 + (q % alpha1) * alpha2 and the align sort's key
i - q + ii; a read-only first pass refuses, before any write, an alpha1
of 0, a key below the one before it and an ii not below its run's
length, the columns that key would not order as (j, ii).  Each equals
its numpy body on every input, valid join or not, empty included.  The
hardware divide of the align scan may take a time that depends on its
operands.

The object is compiled on first use into the user's cache directory and
loaded with ctypes; nothing is built at import.  It is built with -O3,
because GCC 12's -O2 does not vectorize the span loops.  On x86-64 with
glibc, oblivjoin_sort carries target_clones("avx2", "default"): one body
for AVX2 and one for the x86-64 baseline, and the loader picks one by
the CPU; the sort runs the fused hops on the same test of the CPU.
Without AVX, GCC lowers the four-lane compares to scalar code, slower
than the spans, so the baseline body keeps the spans.  Other targets and
C libraries build the plain body, which runs spans only.  There is no
-march=native: the cache key names the machine's architecture, not its
CPU, so an object in a shared cache must run on any CPU of it.  load()
returns NUMPY when it cannot build or load the object, or the object
lacks one of the eight kernels.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ._schedule import route_hops, sort_levels, sort_program

SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Folds one key's compare of x and y into gt, lt and eq. */
#define CMP(x, y)                                                       \
    do {                                                                \
        uint64_t g = (x) > (y), l = (x) < (y);                          \
        gt |= eq & g;                                                   \
        lt |= eq & l;                                                   \
        eq &= ~(g | l);                                                 \
    } while (0)

/* Swaps x and y where mask is all ones, by an XOR, like ct_select. */
#define SWAP(x, y)                                                      \
    do {                                                                \
        uint64_t d = ((x) ^ (y)) & mask;                                \
        (x) ^= d;                                                       \
        (y) ^= d;                                                       \
    } while (0)

/* Orders n pairs of slots in one direction, the i-th pair at s*i of each
   low array a* and high array b*: a lexicographic compare over the nkeys
   key arrays, each ascending, then an XOR-masked swap of the keys and the
   permutation, ascending where up (1) and descending where not (0).  No
   low slot is a high slot, so every pointer is restrict.  Inlined with a
   constant nkeys and s, so each key count gets its own loop, and the loop
   vectorizes. */
static inline __attribute__((always_inline)) void
span(uint64_t *restrict a0, uint64_t *restrict b0, uint64_t *restrict a1,
     uint64_t *restrict b1, uint64_t *restrict a2, uint64_t *restrict b2,
     uint64_t *restrict ap, uint64_t *restrict bp, int nkeys, size_t n,
     size_t s, uint64_t up)
{
    for (size_t i = 0; i < n * s; i += s) {
        uint64_t gt = 0, lt = 0, eq = 1;
        CMP(a0[i], b0[i]);
        if (nkeys > 1)
            CMP(a1[i], b1[i]);
        if (nkeys > 2)
            CMP(a2[i], b2[i]);
        uint64_t mask = -((up & gt) | ((up ^ 1) & lt));
        SWAP(a0[i], b0[i]);
        if (nkeys > 1)
            SWAP(a1[i], b1[i]);
        if (nkeys > 2)
            SWAP(a2[i], b2[i]);
        SWAP(ap[i], bp[i]);
    }
}

/* Orders n pairs (b + s*i, b + s*i + j), i < n, in one direction. */
static inline __attribute__((always_inline)) void
pairs_at(uint64_t *const *key, int nkeys, uint64_t *perm, size_t b,
         size_t j, size_t n, size_t s, uint64_t up)
{
    span(key[0] + b, key[0] + b + j, key[1] + b, key[1] + b + j,
         key[2] + b, key[2] + b + j, perm + b, perm + b + j, nkeys, n, s, up);
}

/* Orders the pairs lo = lo0 + t + (t & -j), hi = lo + j, for t < cnt:
   runs of j consecutive low slots, 2j apart, the last cut at cnt, each
   ascending where (lo & k) == 0 if k is not 0 (the complete blocks of
   stage k; a run lies in one block), else where up (a tail part).  At
   j = 1 a run is one pair, so the pairs of one direction, a block of k
   slots or the whole part, run as one span of stride 2 instead. */
static inline __attribute__((always_inline)) void
run_part(uint64_t *const *key, int nkeys, uint64_t *perm, size_t lo0,
         size_t cnt, size_t j, size_t k, uint64_t up)
{
    size_t run = j > 1 ? j : k ? k >> 1 : cnt;
    for (size_t t = 0; t < cnt; t += run) {
        size_t b = lo0 + 2 * t, n = cnt - t < run ? cnt - t : run;
        uint64_t dir = k ? (b & k) == 0 : up;
        if (j > 1)
            pairs_at(key, nkeys, perm, b, j, n, 1, dir);
        else
            pairs_at(key, nkeys, perm, b, 1, n, 2, dir);
    }
}

/* Four 64-bit lanes: one 256-bit register in the AVX2 body. */
typedef uint64_t v4 __attribute__((vector_size(32)));

/* Orders the four lane pairs of the low vectors a[0..nkeys] and high
   vectors b[0..nkeys], the keys and then the permutation, in one
   direction: the compare and the masked swap of span, lane by lane. */
static inline __attribute__((always_inline)) void
lanes(v4 *a, v4 *b, int nkeys, uint64_t up)
{
    v4 gt = {0}, lt = {0}, eq = ~gt;
    for (int q = 0; q < nkeys; q++) {
        v4 g = (v4)(a[q] > b[q]), l = (v4)(a[q] < b[q]);
        gt |= eq & g;
        lt |= eq & l;
        eq &= ~(g | l);
    }
    v4 mask = (gt & -up) | (lt & (up - 1));
    for (int q = 0; q <= nkeys; q++) {
        v4 d = (a[q] ^ b[q]) & mask;
        a[q] ^= d;
        b[q] ^= d;
    }
}

/* Runs hops 4, 2 and 1 of stage k (k >= 8) on the complete blocks, slots
   [0, nfull), nfull a multiple of 8, in one pass of 8-slot blocks, each
   in one direction, ascending where (b & k) == 0.  Each key copy and the
   permutation are loaded as slots {0,1,2,3} and {4,5,6,7} of the block
   for hop 4, shuffled to {0,1,4,5} and {2,3,6,7} for hop 2 and to
   {0,2,4,6} and {1,3,5,7} for hop 1, and shuffled back to be stored. */
static inline __attribute__((always_inline)) void
run_eights(uint64_t *const *key, int nkeys, uint64_t *perm, size_t nfull,
           size_t k)
{
    for (size_t b = 0; b < nfull; b += 8) {
        uint64_t up = (b & k) == 0;
        v4 lo[4], hi[4];
        /* unrolled, so that no pointer or vector goes through memory */
#pragma GCC unroll 4
        for (int q = 0; q <= nkeys; q++) {
            const uint64_t *x = (q < nkeys ? key[q] : perm) + b;
            memcpy(&lo[q], x, sizeof lo[q]);
            memcpy(&hi[q], x + 4, sizeof hi[q]);
        }
        lanes(lo, hi, nkeys, up);
        for (int q = 0; q <= nkeys; q++) {
            v4 x = lo[q], y = hi[q];
            lo[q] = __builtin_shufflevector(x, y, 0, 1, 4, 5);
            hi[q] = __builtin_shufflevector(x, y, 2, 3, 6, 7);
        }
        lanes(lo, hi, nkeys, up);
        for (int q = 0; q <= nkeys; q++) {
            v4 x = lo[q], y = hi[q];
            lo[q] = __builtin_shufflevector(x, y, 0, 4, 2, 6);
            hi[q] = __builtin_shufflevector(x, y, 1, 5, 3, 7);
        }
        lanes(lo, hi, nkeys, up);
#pragma GCC unroll 4
        for (int q = 0; q <= nkeys; q++) {
            uint64_t *x = (q < nkeys ? key[q] : perm) + b;
            v4 y = __builtin_shufflevector(lo[q], hi[q], 0, 4, 1, 5);
            v4 z = __builtin_shufflevector(lo[q], hi[q], 2, 6, 3, 7);
            memcpy(x, &y, sizeof y);
            memcpy(x + 4, &z, sizeof z);
        }
    }
}

/* Whether the level at p and the two after it, of left levels, are hops
   4, 2 and 1 of one stage k >= 8 whose complete blocks are whole 8-slot
   blocks: the levels run_eights runs. */
static int fusable(const int64_t *p, int64_t left)
{
    if (left < 3 || p[0] != 4 || p[1] < 8 || p[2] % 8)
        return 0;
    const int64_t *q = p + 4 + 3 * p[3];
    const int64_t *r = q + 4 + 3 * q[3];
    return q[0] == 2 && q[1] == p[1] && q[2] == p[2] && r[0] == 1 &&
           r[1] == p[1] && r[2] == p[2];
}

/* Runs every level of the validated program prog: its complete blocks,
   then each part.  The pairs of a level are disjoint, so their order
   within it does not change the result.  Where fuse, hops 4, 2 and 1 of
   a stage run their complete blocks in one run_eights pass, then each
   level's parts: the parts lie past the complete blocks, so this leaves
   what the three levels leave one after another. */
static inline __attribute__((always_inline)) void
run_sort(uint64_t *const *key, int nkeys, uint64_t *perm,
         const int64_t *prog, int fuse)
{
    const int64_t *p = prog + 1;
    for (int64_t level = 0; level < prog[0]; level++) {
        size_t j = (size_t)p[0], k = (size_t)p[1], nfull = (size_t)p[2];
        int hops = fuse && fusable(p, prog[0] - level) ? 3 : 1;
        if (hops == 3)
            run_eights(key, nkeys, perm, nfull, k);
        else
            run_part(key, nkeys, perm, 0, nfull >> 1, j, k, 0);
        for (int h = 0; h < hops; h++, j >>= 1) {
            size_t nparts = (size_t)p[3];
            for (p += 4; nparts > 0; nparts--, p += 3)
                run_part(key, nkeys, perm, (size_t)p[0], (size_t)p[1], j, 0,
                         p[2] != 0);
        }
        level += hops - 1;
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
   the whole program lies in plen entries, has each j and k a power of
   two with k >= 2j, keeps every pair inside [0, len) and has fewer than
   2^63 pairs. */
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
        if (p[0] < 1 || (p[0] & (p[0] - 1)) || p[1] < 2 ||
            (p[1] & (p[1] - 1)) || p[1] / 2 < p[0] || p[2] < 0 || p[3] < 0 ||
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

/* keys: nkeys (1 to 3) arrays of len slots, compared in order, each
   ascending; perm: the slot permutation, len slots; no two of them
   overlap.  Runs the sort program prog, plen int64 entries
   (check_program), and returns its comparator count; returns -1, having
   written nothing, unless nkeys is 1 to 3 and check_program accepts prog
   for len slots.  On x86-64 glibc it
   is built twice, for AVX2 and for the baseline, and the loader picks one
   by the CPU alone; the AVX2 body, on the same test of the CPU, runs the
   fused hops of run_eights.  The baseline body and other targets run
   spans only: without AVX, GCC lowers the 64-bit lane compares to scalar
   code, which is slower than the spans. */
#if defined(__x86_64__) && defined(__GLIBC__)
#define FUSE __builtin_cpu_supports("avx2")
__attribute__((target_clones("avx2", "default")))
#else
#define FUSE 0
#endif
int64_t oblivjoin_sort(uint64_t *const *keys, size_t nkeys, uint64_t *perm,
                       size_t len, const int64_t *prog, size_t plen)
{
    int64_t ncomp = check_program(len, prog, plen);
    if (nkeys < 1 || nkeys > 3 || ncomp < 0)
        return -1;
    /* a key past nkeys repeats one before it and is never read */
    uint64_t *key[3] = {keys[0], keys[nkeys > 1], keys[nkeys - 1]};
    int fuse = FUSE;
    switch (nkeys) {
    case 1:
        run_sort(key, 1, perm, prog, fuse);
        break;
    case 2:
        run_sort(key, 2, perm, prog, fuse);
        break;
    default:
        run_sort(key, 3, perm, prog, fuse);
    }
    return ncomp;
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
   check_program accepts prog for len slots and
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

/* g: the uint64 destinations, f on a live entry and 0 on a null one;
   perm: the slot permutation; len slots each.  Runs the hops
   hops[0..nhops) in order: at hop j, for i from len-j-1 down to 0, an
   entry at i with g > i+j moves to i+j and slot i becomes null, its g 0
   and its perm -1 (all ones).  Returns -1, having written nothing, if a
   hop lies outside [1, len). */
int oblivjoin_route(uint64_t *g, int64_t *perm, size_t len,
                    const int64_t *hops, size_t nhops)
{
    uint64_t *pr = (uint64_t *)perm;
    for (size_t h = 0; h < nhops; h++)
        if (hops[h] < 1 || (uint64_t)hops[h] >= len)
            return -1;
    for (size_t h = 0; h < nhops; h++) {
        size_t j = (size_t)hops[h];
        for (size_t i = len - j; i-- > 0;) {
            size_t k = i + j;
            uint64_t gi = g[i], pi = pr[i], gk = g[k], pk = pr[k];
            uint64_t mask = -(uint64_t)(gi > k);
            g[k] = gk ^ ((gk ^ gi) & mask);
            pr[k] = pk ^ ((pk ^ pi) & mask);
            g[i] = gi & ~mask;
            pr[i] = pi | mask;
        }
    }
    return 0;
}

/* cols: ncols uint64 columns; nul: the uint8 null flags; perm: the slot
   permutation; len slots each, no two overlapping.  Moves every column
   through perm in place: slot i takes slot perm[i], and a slot whose perm
   is -1 takes u64 fields 0 and null flag 1, by a mask, like ct_select.
   Returns -1, having written nothing, if an entry of perm lies outside
   [-1, len), and -2 if the scratch column cannot be allocated. */
int oblivjoin_gather(uint64_t *const *cols, size_t ncols, uint8_t *nul,
                     const int64_t *perm, size_t len)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < len; i++)
        bad |= (uint64_t)perm[i] + 1 > len;
    if (bad)
        return -1;
    if (len == 0)
        return 0;
    uint64_t *tmp = malloc(len * sizeof *tmp);
    if (tmp == NULL)
        return -2;
    for (size_t c = 0; c < ncols; c++) {
        const uint64_t *col = cols[c];
        for (size_t i = 0; i < len; i++) {
            uint64_t vac = -(uint64_t)(perm[i] < 0);
            tmp[i] = col[(uint64_t)perm[i] & ~vac] & ~vac;
        }
        memcpy(cols[c], tmp, len * sizeof *tmp);
    }
    uint8_t *flag = (uint8_t *)tmp;
    for (size_t i = 0; i < len; i++) {
        uint64_t vac = -(uint64_t)(perm[i] < 0);
        flag[i] = nul[(uint64_t)perm[i] & ~vac] | (uint8_t)(vac & 1);
    }
    memcpy(nul, flag, len);
    free(tmp);
    return 0;
}

/* All ones where x is not 0, else 0. */
#define ONES(x) (-(uint64_t)((x) != 0))

/* j, tid: the key and table id columns; a1, a2: the alpha1 and alpha2
   columns; key: the uint64 sort keys it writes; len slots each, no two
   overlapping.  The forward pass carries each run of equal keys' running
   counts of tid 1 and tid 2 into a1 and a2, the sum m of each run's final
   a1 * a2, and the run's dense rank r, the number of runs before it, and
   writes key = (tid - 1) << 63 | r; the backward pass carries each run's
   final counts back over it.  Returns m, modulo 2^64. */
uint64_t oblivjoin_fill(const uint64_t *restrict j,
                        const uint64_t *restrict tid, uint64_t *restrict a1,
                        uint64_t *restrict a2, uint64_t *restrict key,
                        size_t len)
{
    uint64_t c1 = 0, c2 = 0, m = 0, pj = 0, r = (uint64_t)-1;
    for (size_t i = 0; i < len; i++) {
        uint64_t same = ONES(i) & -(uint64_t)(j[i] == pj), t = tid[i];
        m += (c1 * c2) & ~same;
        r += ~same & 1;
        c1 = (c1 & same) + (t == 1);
        c2 = (c2 & same) + (t == 2);
        a1[i] = c1;
        a2[i] = c2;
        key[i] = (t - 1) << 63 | r;
        pj = j[i];
    }
    m += c1 * c2;
    for (size_t i = len; i-- > 0;) {
        uint64_t last = ONES(i + 1 == len) | ONES(j[i] != pj);
        c1 = (a1[i] & last) | (c1 & ~last);
        c2 = (a2[i] & last) | (c2 & ~last);
        a1[i] = c1;
        a2[i] = c2;
        pj = j[i];
    }
    return m;
}

/* g: the uint64 counts; f: the uint64 destinations; nul: the uint8 null
   flags; len slots each.  g may be f itself (each slot is read before it
   is written); nul overlaps neither.  A slot's count is g, or 0 where its
   null flag is set, by a mask.  Writes f = 1 + the sum of the counts
   before the slot, or 0 where its count is 0, and the null flag 1 where
   its count is 0, else 0, and the sum of the counts at *sum.  Returns -1,
   having written nothing, if a running sum wraps past 2^64 - 1. */
int oblivjoin_prefix(const uint64_t *g, uint64_t *f, uint8_t *restrict nul,
                     size_t len, uint64_t *restrict sum)
{
    uint64_t s = 0, bad = 0;
    for (size_t i = 0; i < len; i++)
        bad |= __builtin_add_overflow(s, g[i] & ~ONES(nul[i]), &s);
    if (bad)
        return -1;
    *sum = s;
    s = 0;
    for (size_t i = 0; i < len; i++) {
        uint64_t gi = g[i] & ~ONES(nul[i]);
        uint8_t dead = gi == 0;
        f[i] = (s + 1) & ((uint64_t)dead - 1);
        nul[i] = dead;
        s += gi;
    }
    return 0;
}

/* g: the uint64 destinations, 0 on a null slot; perm: the slot
   permutation; len slots each, not overlapping.  Each slot takes the perm
   entry of the last live slot at or before it, or -1 where there is
   none. */
void oblivjoin_fold(const uint64_t *restrict g, int64_t *restrict perm,
                    size_t len)
{
    uint64_t *pr = (uint64_t *)perm, carry = (uint64_t)-1;
    for (size_t i = 0; i < len; i++) {
        uint64_t live = ONES(g[i]);
        carry = (pr[i] & live) | (carry & ~live);
        pr[i] = carry;
    }
}

/* j: the keys; a1, a2: the alpha1 and alpha2 columns; ii, key: the
   uint64 slots and sort keys it writes; len slots each, no two
   overlapping.  For the q-th slot of each run of equal keys, from 0,
   writes ii = q / a1 + (q % a1) * a2 and key = i - q + ii, the run's
   first slot plus ii.  Returns -1, having written nothing, if an a1 is 0,
   a key is below the one before it, or an ii is not below its run's
   length: key orders the slots it accepts as (j, ii) does.  The
   read-only first pass that checks this carries the largest ii of the
   run so far, top, and a run of q + 1 slots needs top <= q. */
int oblivjoin_align(const uint64_t *restrict j, const uint64_t *restrict a1,
                    const uint64_t *restrict a2, uint64_t *restrict ii,
                    uint64_t *restrict key, size_t len)
{
    uint64_t bad = 0, q = 0, pj = 0, top = 0;
    for (size_t i = 0; i < len; i++) {
        uint64_t c = a1[i], same = ONES(i) & -(uint64_t)(j[i] == pj);
        bad |= (c == 0) | (j[i] < pj) | (~same & (top > q));
        q = (q + 1) & same;
        c |= c == 0; /* a refused 0 divides by 1 */
        uint64_t w = q / c + (q % c) * a2[i], t = top & same;
        top = t ^ ((t ^ w) & -(uint64_t)(w > t));
        pj = j[i];
    }
    if (bad | (top > q))
        return -1;
    q = 0;
    pj = 0;
    for (size_t i = 0; i < len; i++) {
        uint64_t c = a1[i];
        q = (q + 1) & ONES(i) & -(uint64_t)(j[i] == pj);
        uint64_t w = q / c + (q % c) * a2[i];
        ii[i] = w;
        key[i] = i - q + w;
        pj = j[i];
    }
    return 0;
}
"""

_FLAGS = ("-O3", "-shared", "-fPIC")
_P, _N = ctypes.c_void_p, ctypes.c_size_t

# the most comparators in one block that Kernels.sort hands to emit, one
# oblivjoin_sort_pairs call each: enough that a block's fixed Python cost
# is small beside hashing it, few enough that its index and record arrays
# stay under 1 MiB
_EMIT_CHUNK = 1 << 13

# the most key copies a sort takes: the C sort kernel has one body per key
# count, one to three
_MAX_KEYS = 3

# the permutation entry of a slot that becomes a null entry: one an entry
# moved out of in routing, or one before the first live entry in the fold
_VACATED = -1


def _default_cache() -> Path:
    # the XDG spec says to ignore a relative XDG_CACHE_HOME
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base)
            else Path.home() / ".cache") / "oblivjoin"


def _addr(arr: np.ndarray, dtype) -> int:
    """Address of arr's data, once it is known to be C-contiguous dtype."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"the native kernels need a C-contiguous {dtype} "
                         f"array, got {arr.dtype}")
    return arr.ctypes.data


def _row_addresses(arrays, dtypes, what: str) -> list[int]:
    """Addresses of arrays, each checked to be one-dimensional and
    C-contiguous, of its dtype in dtypes, all of one length, and no two
    sharing memory (each kernel takes them as distinct arrays)."""
    if any(arr.ndim != 1 or arr.shape != arrays[0].shape for arr in arrays):
        raise ValueError(f"{what} must be one-dimensional, of one length")
    addrs = [_addr(arr, dtype) for arr, dtype in zip(arrays, dtypes)]
    # contiguous, so each array spans [address, address + nbytes)
    spans = sorted(zip(addrs, (arr.nbytes for arr in arrays)))
    if any(a + n > b for (a, n), (b, _) in zip(spans, spans[1:])):
        raise ValueError(f"{what} must not share memory")
    return addrs


# The argument checks of the kernels, one per kernel, which both kernel sets
# make before any write, so that both refuse the same calls with the same
# ValueError.  Each returns the addresses of the arrays it checks, in
# argument order.  The values (a gather's permutation entries, a prefix's
# running sum, align's columns) are each body's own check.

def _sort_args(keys, perm: np.ndarray) -> list[int]:
    if not 1 <= len(keys) <= _MAX_KEYS:
        raise ValueError(f"a sort takes 1 to {_MAX_KEYS} keys, got "
                         f"{len(keys)}")
    return _row_addresses([*keys, perm],
                          [np.uint64] * len(keys) + [np.int64],
                          "the keys and the permutation")


def _g_perm_args(g: np.ndarray, perm: np.ndarray) -> list[int]:
    return _row_addresses([g, perm], [np.uint64, np.int64],
                          "g and the permutation")


def _gather_args(cols, nul: np.ndarray, perm: np.ndarray) -> list[int]:
    return _row_addresses([*cols, nul, perm],
                          [np.uint64] * len(cols) + [np.uint8, np.int64],
                          "the columns and the permutation")


def _fill_args(*cols) -> list[int]:
    return _row_addresses(cols, [np.uint64] * 5,
                          "the key, table id, alpha and sort key columns")


def _prefix_args(g: np.ndarray, f: np.ndarray, nul: np.ndarray) -> list[int]:
    pf, pn = _row_addresses([f, nul], [np.uint64, np.uint8],
                            "f and the null flags")
    if g.shape == f.shape and _addr(g, np.uint64) == pf:
        return [pf, pf, pn]  # g is f itself
    return _row_addresses([g, f, nul], [np.uint64, np.uint64, np.uint8],
                          "g, f and the null flags")


def _align_args(*cols) -> list[int]:
    return _row_addresses(cols, [np.uint64] * 5,
                          "the key, alpha, ii and sort key columns")


_BAD_PROGRAM = "the sort program does not fit the sorted arrays"
_BAD_HOP = "a hop lies outside the routed arrays"


def _outside(length: int) -> ValueError:
    """The refusal of a gather whose permutation has an entry outside
    [-1, length)."""
    return ValueError(f"a permutation entry lies outside [-1, {length})")


# each exported kernel, oblivjoin_<name>: its return and argument types
_SIGNATURES = {
    "sort": (ctypes.c_int64, (_P, _N, _P, _N, _P, _N)),
    "sort_pairs": (ctypes.c_int, (_P, _P, _N, _P, _N, ctypes.c_int64,
                                  ctypes.c_int64)),
    "route": (ctypes.c_int, (_P, _P, _N, _P, _N)),
    "gather": (ctypes.c_int, (_P, _N, _P, _P, _N)),
    "fill": (ctypes.c_uint64, (_P, _P, _P, _P, _P, _N)),
    "prefix": (ctypes.c_int, (_P, _P, _P, _N, _P)),
    "fold": (None, (_P, _P, _N)),
    "align": (ctypes.c_int, (_P, _P, _P, _P, _P, _N)),
}


class Kernels:
    """The C kernels of one loaded shared object."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._c = {}
        for name, (restype, argtypes) in _SIGNATURES.items():
            # raises AttributeError on an object that lacks the kernel
            fn = self._c[name] = getattr(lib, f"oblivjoin_{name}")
            fn.restype, fn.argtypes = restype, argtypes

    def sort(self, keys, perm: np.ndarray, *, emit=None) -> int:
        """Run the sorting network of len(perm) slots in place on the
        C-contiguous one-dimensional uint64 key copies keys, a list of one
        to three compared in order, each ascending, and the int64
        permutation perm, and return its comparator count.  Where emit is
        given, hand it the pairs of the network in order, as emit(lo, hi)
        with int64 index arrays, in blocks of _EMIT_CHUNK comparators.
        ValueError, before any write, if the arrays do not fit, or two of
        them share memory (the kernel takes them as restrict)."""
        prog = sort_program(len(perm))[0]
        ncomp = self._sort(keys, perm, prog)
        if emit is not None:
            lo = np.empty(min(ncomp, _EMIT_CHUNK), np.int64)
            hi = np.empty_like(lo)
            for start in range(0, ncomp, _EMIT_CHUNK):
                count = min(_EMIT_CHUNK, ncomp - start)
                self._pairs(prog, len(perm), start, count, lo, hi)
                emit(lo[:count], hi[:count])
        return ncomp

    def _sort(self, keys, perm: np.ndarray, prog: np.ndarray) -> int:
        """sort without emit, on the sort program prog
        (_schedule.sort_program, an int64 array) instead of the network
        of len(perm).  ValueError, before any write, also if the program
        does not fit the arrays."""
        if prog.ndim != 1:
            raise ValueError("the sort program must be one-dimensional")
        *ptrs, pp = _sort_args(keys, perm)
        ptrs = np.array(ptrs, np.uintp)
        ncomp = self._c["sort"](ptrs.ctypes.data, len(keys), pp, len(perm),
                                _addr(prog, np.int64), len(prog))
        if ncomp < 0:
            raise ValueError(_BAD_PROGRAM)
        return ncomp

    def _pairs(self, prog: np.ndarray, length: int, start: int, count: int,
               lo: np.ndarray, hi: np.ndarray) -> None:
        """Write pairs start .. start+count-1 of the sort program prog for
        length slots into the first count slots of the
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
        if self._c["sort_pairs"](_addr(lo, np.int64), _addr(hi, np.int64),
                                 length, _addr(prog, np.int64), len(prog),
                                 start, count):
            raise ValueError("the sort program does not fit length slots, or "
                             "the pairs lie outside it")

    def route(self, g: np.ndarray, perm: np.ndarray) -> None:
        """Run the routing network of len(perm) slots, route_hops(len(perm))
        in order, in place on the C-contiguous one-dimensional uint64
        destinations g (0 on a null entry) and int64 permutation perm; a
        slot an entry moves out of gets g 0 and perm _VACATED.
        ValueError, before any write, if the arrays do not fit or share
        memory."""
        self._route(g, perm, np.array(route_hops(len(perm)), np.int64))

    def _route(self, g: np.ndarray, perm: np.ndarray,
               hops: np.ndarray) -> None:
        """route on the routing hops, an int64 array, instead of the
        network of len(perm).  ValueError, before any write, also if a hop
        lies outside [1, len(perm))."""
        if hops.ndim != 1:
            raise ValueError("hops must be one-dimensional")
        pg, pp = _g_perm_args(g, perm)
        if self._c["route"](pg, pp, len(perm), _addr(hops, np.int64),
                            len(hops)):
            raise ValueError(_BAD_HOP)

    def gather(self, cols, nul: np.ndarray, perm: np.ndarray) -> None:
        """Move the C-contiguous one-dimensional uint64 columns cols and
        uint8 null flags nul through the int64 slot permutation perm, in
        place: slot i takes slot perm[i], and a slot whose perm is
        _VACATED becomes a null entry (u64 fields 0, null flag 1).
        ValueError, before any write, if the arrays do not fit or share
        memory, or an entry of perm lies outside [-1, len(perm))."""
        *ptrs, pn, pp = _gather_args(cols, nul, perm)
        ptrs = np.array(ptrs, np.uintp)
        rc = self._c["gather"](ptrs.ctypes.data, len(cols), pn, pp, len(perm))
        if rc == -2:
            raise MemoryError("no memory for the gather's scratch column")
        if rc:
            raise _outside(len(perm))

    def fill_dimensions(self, j: np.ndarray, tid: np.ndarray,
                        alpha1: np.ndarray, alpha2: np.ndarray,
                        key: np.ndarray) -> int:
        """Write each slot's key run dimensions into the C-contiguous
        one-dimensional uint64 columns alpha1 and alpha2: the counts of
        tid 1 and of tid 2 in its run of equal keys j.  Write
        key = (tid - 1) << 63 | r, r the run's dense rank (the number of
        runs before it), which orders the slots of a j-sorted table as
        (tid, j) does.  Returns the sum, modulo 2^64, of alpha1 * alpha2
        over the runs.  ValueError, before any write, if the arrays do not
        fit or share memory."""
        return self._c["fill"](*_fill_args(j, tid, alpha1, alpha2, key),
                               len(j))

    def prefix(self, g: np.ndarray, f: np.ndarray,
               nul: np.ndarray) -> int | None:
        """Write f = 1 + the sum of the counts before each slot, or 0
        where its count is 0, and the null flag 1 where its count is 0,
        else 0, into the C-contiguous one-dimensional uint64 f and uint8
        nul; a slot's count is g, or 0 where nul is set, and g is uint64
        and may be f itself.  Returns the sum of the counts, or None,
        having written nothing, if a running sum wraps past 2^64 - 1.
        ValueError, before any write, if the arrays do not fit or share
        memory otherwise."""
        total = ctypes.c_uint64()
        if self._c["prefix"](*_prefix_args(g, f, nul), len(f),
                             ctypes.addressof(total)):
            return None
        return total.value

    def fold(self, g: np.ndarray, perm: np.ndarray) -> None:
        """Give each slot of the C-contiguous one-dimensional int64
        permutation perm, in place, the entry of the last slot at or
        before it whose uint64 g is not 0, or _VACATED where there is
        none.  ValueError, before any write, if the arrays do not fit or
        share memory."""
        self._c["fold"](*_g_perm_args(g, perm), len(g))

    def align(self, j: np.ndarray, alpha1: np.ndarray, alpha2: np.ndarray,
              ii: np.ndarray, key: np.ndarray) -> bool:
        """Write ii = q // alpha1 + (q % alpha1) * alpha2 and
        key = (the run's first slot) + ii into the C-contiguous
        one-dimensional uint64 ii and key, for the q-th slot, from 0, of
        each run of equal keys j; key then orders the slots as (j, ii)
        does.  Returns False, having written nothing, if an alpha1 is 0,
        a key is below the one before it, or an ii is not below its run's
        length (_align_slots).  ValueError, before any write, if the
        arrays do not fit or share memory."""
        return self._c["align"](*_align_args(j, alpha1, alpha2, ii, key),
                                len(j)) == 0


def _ce_level_vector(keys, perm: np.ndarray, lo, hi, asc) -> None:
    """One level of the sorting network, the pairs (lo, hi) ascending
    where asc, on the key copies keys and the permutation perm."""
    # Lexicographic strict greater/less masks for the pairs (lo, hi).
    gt = np.zeros(len(lo), bool)
    lt = np.zeros(len(lo), bool)
    eq = np.ones(len(lo), bool)
    for col in keys:
        av = col[lo]
        bv = col[hi]
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
        vl = col[lo]
        vh = col[hi]
        diff = vl ^ vh
        diff &= mask.view(col.dtype)
        vl ^= diff
        vh ^= diff
        col[lo] = vl
        col[hi] = vh


def _route_hop_vector(g: np.ndarray, perm: np.ndarray, j: int) -> None:
    """One hop j of the routing network on g and perm."""
    cnt = len(g) - j
    # Entries at p < m-j whose destination lies at or beyond p+j move
    # forward by j; their slots become null.  Null entries have g = 0 and
    # never move.  Sequential execution of the descending loop does
    # exactly this when every swap partner is null; a non-null partner is
    # overwritten and lost, which the distribution's placement check
    # detects.
    thresh = np.arange(j, j + cnt, dtype=np.uint64)
    mover = g[:cnt] > thresh
    for col, vacated in ((g, 0), (perm, _VACATED)):
        src = col[:cnt].copy()
        col[:cnt] = np.where(mover, vacated, src)
        col[j:] = np.where(mover, src, col[j:])


def _key_groups(j: np.ndarray):
    """(start, last, arange(n)) for a key column of n slots: the first
    and the last slot of each slot's run of equal keys."""
    n = len(j)
    ar = np.arange(n, dtype=np.int64)
    new = np.ones(n, bool)
    new[1:] = j[1:] != j[:-1]
    is_last = np.ones(n, bool)
    is_last[:-1] = new[1:]
    start = np.maximum.accumulate(np.where(new, ar, 0))
    last = np.minimum.accumulate(np.where(is_last, ar, n)[::-1])[::-1]
    return start, last, ar


def _counts(g: np.ndarray, nul: np.ndarray) -> np.ndarray:
    """The expansion's counts: g, or 0 on a null entry."""
    return np.where(nul == 0, g, np.uint64(0))


def _sum_wraps(g: np.ndarray) -> bool:
    """Whether a uint64 running sum of g wraps, by an untraced read: a sum
    that wraps drops below its term."""
    return bool((np.cumsum(g, dtype=np.uint64) < g).any())


def _align_slots(j: np.ndarray, alpha1: np.ndarray, alpha2: np.ndarray):
    """(start, ii) of the align pass on the uint64 keys j and alpha
    columns, by an untraced read: each slot's run start, as uint64, and
    the ii it gets; or None where the pass refuses the columns.  It
    refuses an alpha1 of 0, a key below the one before it, and an ii not
    below its run's length, so that start + ii, the sort key of align,
    orders the slots it accepts as (j, ii) does."""
    if not (alpha1 > 0).all() or (j[1:] < j[:-1]).any():
        return None
    start, last, ar = _key_groups(j)
    q = (ar - start).astype(np.uint64)
    ii = q // alpha1 + (q % alpha1) * alpha2
    if (ii > (last - start).astype(np.uint64)).any():
        return None
    return start.astype(np.uint64), ii


class NumpyKernels:
    """The numpy bodies of the kernels: Kernels' methods, with the same
    results on every input they both accept, and the same argument
    checks.  Their reads and writes follow the data where the C kernels'
    do not."""

    def sort(self, keys, perm: np.ndarray, *, emit=None) -> int:
        """Kernels.sort, one level of sort_levels(len(perm)) at a time;
        emit gets each level as one block, from the one walk that runs
        it."""
        _sort_args(keys, perm)
        ncomp = 0
        for lo, hi, asc in sort_levels(len(perm)):
            _ce_level_vector(keys, perm, lo, hi, asc)
            if emit is not None:
                emit(lo, hi)
            ncomp += len(lo)
        return ncomp

    def route(self, g: np.ndarray, perm: np.ndarray) -> None:
        """Kernels.route, one hop of route_hops(len(perm)) at a time."""
        _g_perm_args(g, perm)
        for j in route_hops(len(perm)):
            _route_hop_vector(g, perm, j)

    def gather(self, cols, nul: np.ndarray, perm: np.ndarray) -> None:
        """Kernels.gather, one column at a time; perm is overwritten."""
        _gather_args(cols, nul, perm)
        if ((perm < _VACATED) | (perm >= len(perm))).any():
            raise _outside(len(perm))
        # a vacated slot gathers slot 0 and is then masked, like ct_select
        keep = -(perm != _VACATED).astype(np.uint64)
        perm &= keep.view(np.int64)
        for col in cols:
            vals = col[perm]
            vals &= keep
            col[:] = vals
        vals = nul[perm]
        vals |= keep == 0
        nul[:] = vals

    def fill_dimensions(self, j: np.ndarray, tid: np.ndarray,
                        alpha1: np.ndarray, alpha2: np.ndarray,
                        key: np.ndarray) -> int:
        """Kernels.fill_dimensions, by running sums over each key run."""
        _fill_args(j, tid, alpha1, alpha2, key)
        start, last, ar = _key_groups(j)
        is1 = (tid == 1).astype(np.uint64)
        is2 = (tid == 2).astype(np.uint64)
        c1 = np.cumsum(is1, dtype=np.uint64)
        c2 = np.cumsum(is2, dtype=np.uint64)
        g1 = c1 - (c1[start] - is1[start])  # running alpha1 in the group
        g2 = c2 - (c2[start] - is2[start])
        m = int((g1 * g2 * (last == ar).astype(np.uint64)).sum())
        rank = np.cumsum(start == ar, dtype=np.uint64) - np.uint64(1)
        key[:] = (tid - np.uint64(1)) << np.uint64(63) | rank
        alpha1[:] = g1[last]
        alpha2[:] = g2[last]
        return m

    def prefix(self, g: np.ndarray, f: np.ndarray,
               nul: np.ndarray) -> int | None:
        """Kernels.prefix, by a cumulative sum."""
        _prefix_args(g, f, nul)
        g = _counts(g, nul)  # a copy, so writing f leaves it as it is
        if _sum_wraps(g):
            return None
        m = int(g.sum(dtype=np.uint64))
        z = g == 0
        before = np.cumsum(g, dtype=np.uint64) - g
        f[:] = np.where(z, 0, np.uint64(1) + before)
        nul[:] = z
        return m

    def fold(self, g: np.ndarray, perm: np.ndarray) -> None:
        """Kernels.fold, by a running maximum of the live slots."""
        _g_perm_args(g, perm)
        ar = np.arange(len(g), dtype=np.int64)
        src = np.maximum.accumulate(np.where(g != 0, ar, _VACATED))
        # a _VACATED src reads perm[-1], which the where discards
        perm[:] = np.where(src == _VACATED, _VACATED, perm[src])

    def align(self, j: np.ndarray, alpha1: np.ndarray, alpha2: np.ndarray,
              ii: np.ndarray, key: np.ndarray) -> bool:
        """Kernels.align, by each slot's offset in its key run."""
        _align_args(j, alpha1, alpha2, ii, key)
        slots = _align_slots(j, alpha1, alpha2)
        if slots is None:
            return False
        start, slot = slots
        ii[:] = slot
        np.add(start, slot, out=key)
        return True


NUMPY = NumpyKernels()


def _library_path(cc: str, cache: Path) -> Path:
    """Where the shared object lives: named by the SHA-256 of the source,
    the compile command and the machine it runs on."""
    key = hashlib.sha256(" ".join((SOURCE, cc, *_FLAGS,
                                   platform.machine())).encode())
    return cache / f"native-{key.hexdigest()[:16]}.so"


def load(cc: str = "cc",
         cache_dir: Path | None = None) -> Kernels | NumpyKernels:
    """The C kernels of the shared object, or NUMPY if it cannot be built
    or loaded, or lacks a kernel.  It is compiled only when the cache
    lacks it."""
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
        return NUMPY


@functools.cache
def kernel() -> Kernels | NumpyKernels:
    """load() with the defaults, once per process; NUMPY is kept too."""
    return load()
