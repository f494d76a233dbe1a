"""Seeded inputs for the benchmark's workloads.

Each workload fixes the public sizes (n1, n2, m) exactly.  The seed varies
only keys, payloads and row order, so by the engine's contract every trace
count (events per phase, comparators, peak entries) and, under HashSink,
the trace digest must repeat across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PHASES", "SORT_PHASES", "Workload", "WORKLOADS"]

# The phase labels the pipeline puts on its events, in trace order.
PHASES = ("load", "initial_sorts", "fill_dimensions", "expand_prefix",
          "distribute_copy", "distribute_sort", "distribute_route",
          "expand_fill", "align_pass", "align_sort", "zip", "output")
SORT_PHASES = ("initial_sorts", "distribute_sort", "align_sort")

_KEY_SPACE = 1 << 62
_U64_MAX = np.iinfo(np.uint64).max


def _rows(rng: np.random.Generator, keys: np.ndarray) -> np.ndarray:
    pay = rng.integers(0, _U64_MAX, len(keys), dtype=np.uint64, endpoint=True)
    return np.stack([keys.astype(np.uint64), pay], axis=1)


def _foreign_key(rng, n1: int, n2: int, m: int):
    """n2 dimension rows with distinct keys; m of the n1 fact rows take a
    dimension key (so each matches exactly once), the rest dangle."""
    keys = rng.choice(_KEY_SPACE, size=n2 + n1 - m, replace=False)
    dim, dangling = keys[:n2], keys[n2:]
    fact = np.concatenate([rng.choice(dim, size=m), dangling])
    return _rows(rng, rng.permutation(fact)), _rows(rng, dim)


def _many_to_many(rng, n1: int, n2: int, m: int):
    """k hot keys, n1/k rows per key on T1 and n2/k on T2, k = n1*n2/m."""
    k = n1 * n2 // m
    if n1 % k or n2 % k or (n1 // k) * (n2 // k) * k != m:
        raise ValueError(f"no uniform many-to-many shape for {(n1, n2, m)}")
    keys = rng.choice(_KEY_SPACE, size=k, replace=False)
    return (_rows(rng, rng.permutation(np.repeat(keys, n1 // k))),
            _rows(rng, rng.permutation(np.repeat(keys, n2 // k))))


@dataclass(frozen=True)
class Workload:
    name: str
    n1: int
    n2: int
    m: int
    many_to_many: bool  # else foreign-key shaped
    via_cli: bool       # else a library call with NullSink
    kernel: str         # the hostspeed kernel that gauges the host for it

    def tables(self, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
        """(T1, T2) for one seed; stream picks an independent draw."""
        rng = np.random.default_rng([seed, stream])
        make = _many_to_many if self.many_to_many else _foreign_key
        return make(rng, self.n1, self.n2, self.m)

    @property
    def peak_entries(self) -> int:
        """Closed-form peak live entries of one join."""
        n1, n2, m = self.n1, self.n2, self.m
        return (n1 + n2) + max(n1, m) + max(n2, m)

    @property
    def sort_lengths(self) -> tuple[int, ...]:
        """Lengths of the sorts one join runs: two initial sorts of T_C,
        one distribute sort per table, the align sort."""
        n = self.n1 + self.n2
        return (n, n, self.n1, self.n2, self.m)


# Why each workload, with its measured phase shares, is in README.md and
# BENCHMARK.json.  fk: the common foreign-key join, where the n-term sorts
# dominate and no sort length is a power of two (ragged-tail schedules).
# fanout: many-to-many on 8 hot keys, 64 rows per key a side, where the
# m-term (align sort, routing) dominates and every length is a power of
# two.  verify: the auditor's table-file path with --trace hash, where the
# SHA-256 chain dominates.
WORKLOADS = {w.name: w for w in (
    Workload("fk", 6_000, 2_000, 5_400, many_to_many=False, via_cli=False,
             kernel="sort"),
    Workload("fanout", 512, 512, 1 << 15, many_to_many=True, via_cli=False,
             kernel="merge"),
    Workload("verify", 600, 200, 540, many_to_many=False, via_cli=True,
             kernel="hash"),
)}
