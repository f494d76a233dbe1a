"""Regenerate the CLI fixture corpus.

Writes valid_NN.txt (table files) with valid_NN.expected (the join's
payload pairs, canonically sorted, one 'd1 d2' per line — computed with
the brute-force oracle, not the engine under test) and a handful of
malformed_NN.txt inputs whose first bad line is recorded in
malformed_manifest.txt.

Run from the repository root:  python3 tests/fixtures/gen_fixtures.py
"""

from pathlib import Path

import numpy as np

from oblivjoin.baseline import nested_loop_join, sorted_pairs
from oblivjoin.tablefile import format_table_text

HERE = Path(__file__).parent
U64_MAX = (1 << 64) - 1


def table(js, ds):
    return np.stack([np.asarray(js, np.uint64),
                     np.asarray(ds, np.uint64)], axis=1)


def rand_table(rng, n, keys):
    return table(rng.integers(0, keys, n), rng.integers(0, 1000, n))


def build_valid(rng):
    cases = [
        # hand-picked edges
        (table([1, 2, 2], [10, 11, 12]), table([2, 3], [20, 21])),
        (table([], []), table([5], [1])),                     # empty T1
        (table([5], [1]), table([], [])),                     # empty T2
        (table([7], [U64_MAX]), table([7], [U64_MAX])),       # u64 extremes
        (table([1, 2, 3], [1, 2, 3]), table([4, 5], [9, 9])), # no matches
        (table([4, 4], [9, 9]), table([4, 4, 4], [9, 8, 9])), # dup payloads
        (table([0], [0]), table([0], [0])),                   # key 0
    ]
    # randomized bulk
    for n1, n2, keys in [(8, 8, 3), (20, 5, 4), (5, 20, 4), (30, 30, 10),
                         (13, 17, 2)]:
        cases.append((rand_table(rng, n1, keys), rand_table(rng, n2, keys)))
    return cases


MALFORMED = [
    ("1 2 3\n---\n1 1\n", 1),           # three fields
    ("1 1\n-2 4\n---\n", 2),            # negative value
    ("1 1\n2 2\nx 3\n---\n", 3),        # not a number
    ("1 1\n---\n2 2\n---\n3 3\n", 4),   # second separator
    ("1 1\n2 2\n", 2),                  # separator missing entirely
    (f"1 1\n---\n{1 << 64} 0\n", 3),    # value too wide for u64
    ("1 1\n---\n+3 4\n", 3),            # explicit plus sign
    (b"1 2\n---\n\xff\xfe 3\n", 3),       # not UTF-8
]


def main():
    rng = np.random.default_rng(20240817)
    for i, (t1, t2) in enumerate(build_valid(rng)):
        (HERE / f"valid_{i:02d}.txt").write_text(format_table_text(t1, t2))
        pairs = sorted_pairs(nested_loop_join(t1, t2))
        expected = "".join(f"{d1} {d2}\n" for d1, d2 in pairs.tolist())
        (HERE / f"valid_{i:02d}.expected").write_text(expected)
    manifest = []
    for i, (text, line) in enumerate(MALFORMED):
        name = f"malformed_{i:02d}.txt"
        if isinstance(text, bytes):
            (HERE / name).write_bytes(text)
        else:
            (HERE / name).write_text(text)
        manifest.append(f"{name} {line}")
    (HERE / "malformed_manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {i + 1} malformed and "
          f"{len(build_valid(rng))} valid fixtures to {HERE}")


if __name__ == "__main__":
    main()
