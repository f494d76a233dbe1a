"""Golden digests: the trace and output of fixed instances, pinned.

Other tests compare digests within one run (scalar against vector, one
instance against another of the same class).  These pin them across
commits: a refactor of the engine or of the trace layer must leave every
value below byte-identical.  Inputs come from closed-form integer
arithmetic, never from an RNG, so a numpy release cannot move them.

Each join pins (m, peak_entries, chain digest, SHA-256 of
pairs.tobytes()) and its per-phase event counts on both engines.  The
primitives pin their chain digest and, on the native path and on the
numpy fallback, one SHA-256 over every column of every output slot.  The
chain digest is the trace digest of an earlier release: from 32 zero
bytes, each event's 17-byte REC_DTYPE record extends the digest h to
SHA-256(h || record).  The tests fold it over a LogSink's events, so the
old pins keep checking the trace.  Joins and primitives also pin the
HashSink digest of their trace, SHA-256 over the concatenation of its
records.
The sort schedule pins one SHA-256 over every level's lo, hi and asc
bytes for a ladder of lengths with and without ragged tails, and one
SHA-256 over the flat sort program of every length up to 8,192 and six
larger ones, with their summed comparator count.  Instances at the sizes
the native kernels run, a join of about 2 * 10^5 rows and three sorts of
100,003 slots, are also checked against an oracle: sort_merge_join, and
each sorted slot's columns against the input slot its payload names.

Two pins were taken on a three-row instance when public arrays had a
batch axis: batch_oblivious_distribute and GOLDEN_KERNEL_SORT.  Each row
is now its own run.  A batch shared one trace, so each row's trace
equals the trace pin, and the output pin hashes the rows stacked per
column.
"""

import hashlib
from collections import Counter
from functools import partial

import numpy as np
import pytest

from oblivjoin import _native
from oblivjoin._schedule import sort_levels, sort_program
from oblivjoin.baseline import sort_merge_join, sorted_pairs
from oblivjoin.entries import KEY_J_TID, U64_FIELDS
from oblivjoin.harness import make_distribute_input
from oblivjoin.pipeline import oblivious_join
from oblivjoin.primitives import (bitonic_sort, oblivious_distribute,
                                  oblivious_expand)
from oblivjoin.prp import prp_distribute
from oblivjoin.trace import REC_DTYPE, HashSink, LogSink, NullSink, alloc

U64_MAX = (1 << 64) - 1


def table(n, key, payload):
    return np.array([(key(i), payload(i)) for i in range(n)],
                    np.uint64).reshape(n, 2)


def mixed():
    # key 0: 1x1, key 1: 1x3, key 2: 3x1, key 3: 2x2, keys 4/5 unmatched,
    # key U64_MAX: 1x1 with extreme payloads
    t1 = [(0, 10), (1, 11), (2, 12), (2, 13), (2, 14), (3, 15), (3, 16),
          (4, 17), (U64_MAX, U64_MAX)]
    t2 = [(3, 20), (1, 21), (5, 22), (1, 23), (0, 24), (3, 25), (2, 26),
          (1, 27), (U64_MAX, 0)]
    return np.array(t1, np.uint64), np.array(t2, np.uint64)


JOINS = {
    "empty_both": lambda: (table(0, int, int), table(0, int, int)),
    "empty_t1": lambda: (table(0, int, int), table(5, lambda i: i, lambda i: 3 * i)),
    "empty_t2": lambda: (table(7, lambda i: i % 3, lambda i: i), table(0, int, int)),
    "m_zero": lambda: (table(6, lambda i: 2 * i, lambda i: i + 100),
                       table(4, lambda i: 2 * i + 1, lambda i: i + 200)),
    "odd_13_9": lambda: (table(13, lambda i: i % 5, lambda i: 1000 + i),
                         table(9, lambda i: (2 * i) % 7, lambda i: 2000 + i)),
    "odd_300_211": lambda: (table(300, lambda i: (7 * i) % 97, lambda i: i * i),
                            table(211, lambda i: (11 * i + 3) % 89,
                                  lambda i: U64_MAX - i)),
    "pow2_128": lambda: (table(128, lambda i: i % 32, lambda i: i),
                         table(128, lambda i: (5 * i) % 32, lambda i: 7 * i)),
    "one_to_many": lambda: (table(1, lambda i: 4, lambda i: 9),
                            table(9, lambda i: 4, lambda i: 50 + i)),
    "many_to_one": lambda: (table(10, lambda i: 3, lambda i: 60 + i),
                            table(1, lambda i: 3, lambda i: 8)),
    "mixed": mixed,
}

GOLDEN_JOINS = {
    # name: (m, peak_entries, trace hexdigest, sha256 of pairs.tobytes())
    "empty_both": (0, 0,
        "0000000000000000000000000000000000000000000000000000000000000000",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "empty_t1": (0, 10,
        "feaa05a066a9b63833d595ddad4ee9b986492103f1a2d5d304b2d5b0bb6c00ea",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "empty_t2": (0, 14,
        "2155e2b26e7de777d11c432c55a92da23bee83ee234b09a81462bc0447cf1fe4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "m_zero": (0, 20,
        "505f75621eaf84a95395de2cbd3ed1ea3d0d6368601ce3bcf1bc9bb846b8f69c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "many_to_one": (10, 31,
        "4f305319eed74e44d11ea3bb6a0e2cf1be2727118e24a7861a222f734d8a274d",
        "8af5c801ae9fef2b0fafec74abadfcb533539838bb2d9d216ae7b5e3510fb46a"),
    "mixed": (12, 42,
        "d00dbf1c08b854fe0c56dbf0cf7c64b3130c8320985b1f1e15598d42b8ae9739",
        "8378b4ce3f473aa6c1b263bf32688987ff8ce2deb10d55b354cf68dfc6225166"),
    "odd_13_9": (19, 60,
        "782caf2cdda1af3bfd6c1c170aeaf92ac9a4be474dbeacf67219a78f71fa0bb5",
        "0a57a2efda7583f77bf66ae5b2514659e8f6b196a1f7b291b54fd59b7646e2e3"),
    "odd_300_211": (655, 1821,
        "d009d149e1327925f4bba77ec0f1b57f6f04dca01f4af1469db66569ab349864",
        "346305ebc95afce1f33f59cb78ee5118f4b4f52e480e1d276dadaa1bf4c73359"),
    "one_to_many": (9, 28,
        "74f214dfc476da7bcc4fef5979868cf12c408ce5a280098cbda4b2005882f465",
        "511b3699e3a5cd40c07fbcd871f4048676814e0ad0a185618f510aec24c4a959"),
    "pow2_128": (512, 1280,
        "5699142a5d4261a11d77d3055053e807a1c517888bd80c1d4a9655d4c5a4e2a3",
        "aa58757cb90e923857555b8c0ae6e60290783f2226ea333dad4d3697c9419bc7"),
}


# name: HashSink hexdigest, SHA-256 over the concatenated 17-byte
# REC_DTYPE records of the join's trace
GOLDEN_JOIN_STREAMS = {
    "empty_both":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "empty_t1":
        "6f9e3bc9a54820a3d5c07af74389fc7c49afba32fa72541602f20600399f1229",
    "empty_t2":
        "2e6e6e893c0f39f5e7dbf319e401d3c06f58cdbb0cbeee7c74654ddf28280037",
    "m_zero":
        "44cd4511d347e3edcced033867b7e0a9fddc6651fb3b658e3e6eb0033d6e64d2",
    "many_to_one":
        "e64cda8e7e3ab5e8a75b3275e271ba7cd20ec194de30bd290e4a02056deccb28",
    "mixed":
        "c54b660d0fab7cdf1eb1f18d43da12088f31c87848f7ee1d2de88df392a4d37e",
    "odd_13_9":
        "508fa7d00a154ebfabfc2bd700cfdc5acc9e3fe4d2694c50bc30c56c1c6fb8c6",
    "odd_300_211":
        "e78ab14ccfc5052c7024c6b29b56e59b9dd0942f5b064ac10b6ad13c1a0dd9c2",
    "one_to_many":
        "9704008ce6669db8fe71dec21a81219f1b5743f69350ed112d5f48bb039c72f6",
    "pow2_128":
        "48d6c107e21af0f64aa9f82bbcf23be709b36bdfd39868275a82db2e48b1871d",
}


def _chain_hexdigest(log):
    """The retired per-event chain folded over a LogSink's records."""
    aids, ops, idxs = log.event_arrays()
    rec = np.empty(len(ops), REC_DTYPE)
    rec["aid"], rec["op"], rec["idx"] = aids, ops, idxs
    buf = rec.tobytes()
    h = bytes(32)
    for i in range(0, len(buf), 17):
        h = hashlib.sha256(h + buf[i:i + 17]).digest()
    return h.hex()


@pytest.mark.parametrize("name", sorted(JOINS))
def test_join_golden(name):
    t1, t2 = JOINS[name]()
    sink = LogSink()
    res = oblivious_join(t1, t2, sink)
    got = (res.m, sink.peak_entries, _chain_hexdigest(sink),
           hashlib.sha256(res.pairs.tobytes()).hexdigest())
    assert got == GOLDEN_JOINS[name]


@pytest.mark.parametrize("name", sorted(JOINS))
def test_join_stream_golden(name):
    t1, t2 = JOINS[name]()
    sink = HashSink()
    oblivious_join(t1, t2, sink)
    assert sink.hexdigest() == GOLDEN_JOIN_STREAMS[name]


@pytest.mark.parametrize("kernels", ["native", "numpy"], indirect=True)
@pytest.mark.parametrize("name", sorted(JOINS))
def test_join_pins_hold_on_both_paths(name, kernels):
    # the native kernels and their numpy fallbacks each give the pinned
    # output size, peak entries, pairs, trace digest and per-phase counts
    t1, t2 = JOINS[name]()
    sink = HashSink()
    res = oblivious_join(t1, t2, sink)
    m, peak, _, pairs = GOLDEN_JOINS[name]
    assert (res.m, sink.peak_entries,
            hashlib.sha256(res.pairs.tobytes()).hexdigest()) == (m, peak, pairs)
    assert sink.hexdigest() == GOLDEN_JOIN_STREAMS[name]
    assert sink.counts == Counter(GOLDEN_COUNTS[name])


# name: events emitted under each phase label.  The digest pins above
# cannot catch a miscount: counting does not change the event stream.
GOLDEN_COUNTS = {
    "empty_both": {},
    "empty_t1": {"load": 5, "initial_sorts": 88, "fill_dimensions": 20,
                 "expand_prefix": 10, "distribute_copy": 10,
                 "distribute_sort": 44},
    "empty_t2": {"load": 7, "initial_sorts": 144, "fill_dimensions": 28,
                 "expand_prefix": 14, "distribute_copy": 14,
                 "distribute_sort": 72},
    "m_zero": {"load": 10, "initial_sorts": 336, "fill_dimensions": 40,
               "expand_prefix": 20, "distribute_copy": 20,
               "distribute_sort": 84},
    "many_to_one": {"load": 11, "initial_sorts": 368, "fill_dimensions": 44,
                    "expand_prefix": 22, "distribute_copy": 22,
                    "distribute_sort": 168, "distribute_route": 200,
                    "expand_fill": 40, "align_pass": 20, "align_sort": 168,
                    "zip": 30, "output": 10},
    "mixed": {"load": 18, "initial_sorts": 952, "fill_dimensions": 72,
              "expand_prefix": 36, "distribute_copy": 36,
              "distribute_sort": 296, "distribute_route": 264,
              "expand_fill": 48, "align_pass": 24, "align_sort": 216,
              "zip": 36, "output": 12},
    "odd_13_9": {"load": 22, "initial_sorts": 1176, "fill_dimensions": 88,
                 "expand_prefix": 44, "distribute_copy": 44,
                 "distribute_sort": 376, "distribute_route": 512,
                 "expand_fill": 76, "align_pass": 38, "align_sort": 496,
                 "zip": 57, "output": 19},
    "odd_300_211": {"load": 511, "initial_sorts": 91800,
                    "fill_dimensions": 2044, "expand_prefix": 1022,
                    "distribute_copy": 1022, "distribute_sort": 40360,
                    "distribute_route": 44216, "expand_fill": 2620,
                    "align_pass": 1310, "align_sort": 69544, "zip": 1965,
                    "output": 655},
    "one_to_many": {"load": 10, "initial_sorts": 336, "fill_dimensions": 40,
                    "expand_prefix": 20, "distribute_copy": 20,
                    "distribute_sort": 148, "distribute_route": 168,
                    "expand_fill": 36, "align_pass": 18, "align_sort": 148,
                    "zip": 27, "output": 9},
    "pow2_128": {"load": 256, "initial_sorts": 36864, "fill_dimensions": 1024,
                 "expand_prefix": 512, "distribute_copy": 512,
                 "distribute_sort": 14336, "distribute_route": 32776,
                 "expand_fill": 2048, "align_pass": 1024,
                 "align_sort": 46080, "zip": 1536, "output": 512},
}

# the scalar engine only on the cases under 300 rows, to bound its time
COUNT_CASES = [(name, "vector") for name in sorted(JOINS)] + [
    (name, "scalar") for name in sorted(JOINS)
    if sum(map(len, JOINS[name]())) < 300]


@pytest.mark.parametrize("name,engine", COUNT_CASES)
def test_join_counts_golden(name, engine):
    t1, t2 = JOINS[name]()
    sink = LogSink()
    oblivious_join(t1, t2, sink, engine=engine)
    assert Counter(sink.phase_labels()) == GOLDEN_COUNTS[name]
    # every sink counts the events it is given
    assert sink.counts == Counter(GOLDEN_COUNTS[name])
    hashed = HashSink()
    for other in (NullSink(), hashed):
        oblivious_join(t1, t2, other, engine=engine)
        assert other.counts == sink.counts
    # the same digest whether the engine sends one-event blocks (scalar)
    # or whole levels (vector)
    assert hashed.hexdigest() == GOLDEN_JOIN_STREAMS[name]


SORT_PHASES = ("initial_sorts", "distribute_sort", "align_sort")


class _SortBlockBound(LogSink):
    """A LogSink that refuses a sort-phase block of more than 8,192
    comparators' events."""

    def emit_block(self, aid, ops, idxs):
        assert self.phase not in SORT_PHASES or len(ops) <= 4 * 8192
        super().emit_block(aid, ops, idxs)


@pytest.mark.parametrize("name", sorted(JOINS))
def test_null_sink_join_builds_no_schedule(name, native, monkeypatch):
    # on the native path no sink's sorts walk sort_levels: a plain
    # NullSink's count every event, and a HashSink's and a LogSink's take
    # their pairs from the kernel, in blocks of at most 8,192 comparators,
    # yet the join, its counts and its trace are the pinned ones
    def no_walk(n):
        raise AssertionError("sort_levels walked on the native path")
    monkeypatch.setattr(_native, "kernel", lambda: native)
    monkeypatch.setattr(_native, "sort_levels", no_walk)
    t1, t2 = JOINS[name]()
    logged = _SortBlockBound()
    for sink in (NullSink(), HashSink(), logged):
        res = oblivious_join(t1, t2, sink)
        assert sink.counts == Counter(GOLDEN_COUNTS[name])
        assert (res.m, hashlib.sha256(res.pairs.tobytes()).hexdigest()) == \
            (GOLDEN_JOINS[name][0], GOLDEN_JOINS[name][3])
        if isinstance(sink, HashSink):
            assert sink.hexdigest() == GOLDEN_JOIN_STREAMS[name]
    # the events are those of the numpy fallback, which walks sort_levels
    monkeypatch.setattr(_native, "kernel", lambda: _native.NUMPY)
    monkeypatch.setattr(_native, "sort_levels", sort_levels)
    fallback = LogSink()
    oblivious_join(t1, t2, fallback)
    assert Counter(logged.phase_labels()) == GOLDEN_COUNTS[name]
    for c, f in zip(logged.event_arrays(), fallback.event_arrays(),
                    strict=True):
        assert np.array_equal(c, f)
    assert logged.phase_labels() == fallback.phase_labels()


def _distribute(sink):
    f = [(5 * i) % 23 + 1 for i in range(17)]
    return oblivious_distribute(make_distribute_input(sink, f), 23)


def _ext_distribute(sink):
    # 11 inputs, 4 of them null (f = 0), into 9 slots: n > m
    f = [0, 9, 2, 0, 7, 1, 0, 5, 3, 0, 8]
    x = make_distribute_input(sink, f)
    x.col("is_null")[:] = np.array(f, np.uint64) == 0
    return oblivious_distribute(x, 9)


def _row_distribute(b, sink):
    # row b of 3 rows of 13 inputs into 16 slots, each row its own
    # injective map; row 1 has 3 nulls, and every column holds values
    f = [((5 + 2 * b) * i + b) % 16 + 1 for i in range(13)]
    x = make_distribute_input(sink, f)
    if b == 1:
        x.col("is_null")[:] = [i % 4 == 1 for i in range(13)]
    for k, name in enumerate(("tid", "alpha1", "alpha2", "ii")):
        x.col(name)[:] = np.arange(13 * b, 13 * b + 13,
                                   dtype=np.uint64) * (k + 3)
    return oblivious_distribute(x, 16)


def _expand(sink):
    g = [i % 4 for i in range(19)]
    x = make_distribute_input(sink, [0] * len(g))
    x.col("alpha1")[:] = g
    return oblivious_expand(x, "alpha1")


def _prp_distribute(sink):
    f = [(3 * i) % 20 + 1 for i in range(13)]
    return prp_distribute(make_distribute_input(sink, f), 20, seed=12345)


def _sort_ragged(sink):
    # 23 slots (a ragged tail), 5 values of j and 2 of tid, so (j, tid)
    # ties; every other column, nulls included, carries the slot's index
    a = alloc(23, sink)
    ar = np.arange(23, dtype=np.uint64)
    a.col("j")[:] = (7 * ar) % 5
    a.col("tid")[:] = ar % 2 + 1
    for k, name in enumerate(("d", "alpha1", "alpha2", "f", "ii")):
        a.col(name)[:] = ar * (k + 2) + U64_MAX - 100
    a.col("is_null")[:] = ar % 3 == 0
    bitonic_sort(a, KEY_J_TID)
    return a


# name: its runs, each given a sink and returning its output array
PRIMITIVES = {
    "oblivious_distribute": [_distribute],
    "ext_oblivious_distribute": [_ext_distribute],
    "batch_oblivious_distribute": [partial(_row_distribute, b)
                                   for b in range(3)],
    "oblivious_expand": [_expand],
    "prp_distribute": [_prp_distribute],
    "bitonic_sort_ragged": [_sort_ragged],
}

GOLDEN_PRIMITIVES = {
    "batch_oblivious_distribute":
        "64afef8dd4583c43476c9378b31eea848ba5bc276bcc99f97b08f2e6c3a97fee",
    "bitonic_sort_ragged":
        "2d1889d300155cdd6ecba1ee57e641b4e8606b87df226ccadac5915c6fe1968e",
    "ext_oblivious_distribute":
        "04dd252ca4a328d1568da3b76a0739f4f2905f58c9b7a329092871090dcc2904",
    "oblivious_distribute":
        "f4ce2995d53ccc174f8ad61be29d53b3166b5a5a7da80c184b6ac952f5360e29",
    "oblivious_expand":
        "65947adf3b3c5cb06e3953165f9735500fc42ebc7fe277d98bdc3fc75c6c73e0",
    "prp_distribute":
        "1a6f22449de39f2111b222edd899a47f4c74c2e79d86bde91adaab98493cbd73",
}

# name: HashSink hexdigest
GOLDEN_PRIMITIVE_STREAMS = {
    "batch_oblivious_distribute":
        "e6ac59d2650789ea5057145b6aa297d9ab8667a30c6066c21c90ee5f35a6a685",
    "bitonic_sort_ragged":
        "e9d87d5d2058a03a144b53aa30fdcb43794e110b8123441e28c46f658e632053",
    "ext_oblivious_distribute":
        "737c24b66c06bee3877cf1ccb69485fd3965b85e1a67e1c9a4dbbfe899b71b83",
    "oblivious_distribute":
        "5e0d8ada12df0c05391c132ec8ce9ed9afef5dba533c89d30ee46b35cf1c2c9a",
    "oblivious_expand":
        "7d2ccd6e931faf32e4bd7dde014109ee932bdb5ec65683e8952124f7ea3ffc9e",
    "prp_distribute":
        "3f652e56e3f74438b94bc15aa00b9444c926b28790ff9c5909481bfb1a6aaee0",
}

# SHA-256 over every column of every output slot, the runs' slots stacked
# per column; the null slots count too, whatever they hold
GOLDEN_OUTPUTS = {
    "batch_oblivious_distribute":
        "bbc316d9008a7db3ca591ebfbd682438205afd5724a6c3bb3aa960d25884f1c6",
    "bitonic_sort_ragged":
        "6ed05ac91fce572c29cdcc34d6741c9b6c553abf2d0e94aa78e4f7fb055fa333",
    "ext_oblivious_distribute":
        "f26257cde6f259a58bbc495657e39d70be6e692af3e8a09349287e5754599574",
    "oblivious_distribute":
        "0fb0873d1f460b2c0acc16207f0fd17b4987a8b1bc8b4872bfe735ad690fc8dc",
    "oblivious_expand":
        "8dac4a4951207fb26dcfcf4101db48cb5ab6738073a32c78d21c3b6e50e72b1d",
    "prp_distribute":
        "0a818602c40770f28804a5b6b9488fe2de26ea082e816cb6b31da3807e04bd35",
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_golden(name):
    for run in PRIMITIVES[name]:
        sink = LogSink()
        run(sink)
        assert _chain_hexdigest(sink) == GOLDEN_PRIMITIVES[name]


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_stream_golden(name):
    for run in PRIMITIVES[name]:
        sink = HashSink()
        run(sink)
        assert sink.hexdigest() == GOLDEN_PRIMITIVE_STREAMS[name]


def _columns_digest(*arrays):
    """SHA-256 over each column in turn, the arrays' slots stacked."""
    h = hashlib.sha256()
    for name in U64_FIELDS + ("is_null",):
        for a in arrays:
            h.update(a.debug_col(name).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kernels", ["native", "numpy"], indirect=True)
@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_output_golden(name, kernels):
    # the native kernels and their numpy fallbacks, each against the pin
    outs = [run(HashSink()) for run in PRIMITIVES[name]]
    assert _columns_digest(*outs) == GOLDEN_OUTPUTS[name]


SCHEDULE_LENGTHS = [*range(130), 255, 257, 1000, 5400, 6000, 8000, 100003]
GOLDEN_SORT_LEVELS = \
    "1eb714963b73034e98c8ea50204b506eb9ebf668bf965ef7f0c490fe694def9d"


def test_sort_levels_digest():
    h = hashlib.sha256()
    for n in SCHEDULE_LENGTHS:
        for lo, hi, asc in sort_levels(n):
            h.update(lo.tobytes() + hi.tobytes() + asc.tobytes())
    assert h.hexdigest() == GOLDEN_SORT_LEVELS


PROGRAM_LENGTHS = [*range(8193), 2**17 - 1, 2**17, 2**17 + 1, 209_605,
                   10**6, 2**20 + 1]
# (sha256 of every sort_program(n)[0].tobytes(), summed comparator count)
GOLDEN_SORT_PROGRAM = (
    "7708866aed4e1fe90605c052313662c09f0eeea5330c6db0c39791b14bc0dc87",
    1707917185)


def test_sort_program_digest():
    h, total = hashlib.sha256(), 0
    for n in PROGRAM_LENGTHS:
        prog, ncomp = sort_program(n)
        h.update(prog.tobytes())
        total += ncomp
    assert (h.hexdigest(), total) == GOLDEN_SORT_PROGRAM


def _kernel_join():
    # ragged lengths; keys repeat (about two rows per key per side), and
    # key U64_MAX joins about 100 x 100 rows whose payloads include U64_MAX
    i1 = np.arange(100_003, dtype=np.uint64)
    i2 = np.arange(99_991, dtype=np.uint64)
    t1 = np.stack([(7 * i1) % 50_021, U64_MAX - i1 % 4], axis=1)
    t2 = np.stack([(11 * i2 + 3) % 50_021,
                   np.where(i2 % 2 == 1, np.uint64(U64_MAX), i2)], axis=1)
    t1[i1 % 997 == 0, 0] = U64_MAX
    t2[i2 % 1009 == 0, 0] = U64_MAX
    return t1, t2


# (m, peak_entries, sha256 of pairs.tobytes())
GOLDEN_KERNEL_JOIN = (209605, 619204,
    "cfbf3ef7c8783443fda3bc61c20ebf187a96b54486b46b553483011566135329")


def test_kernel_size_join_matches_oracle():
    t1, t2 = _kernel_join()
    sink = NullSink()
    res = oblivious_join(t1, t2, sink)
    assert np.array_equal(sorted_pairs(res.pairs),
                          sorted_pairs(sort_merge_join(t1, t2)))
    got = (res.m, sink.peak_entries,
           hashlib.sha256(res.pairs.tobytes()).hexdigest())
    assert got == GOLDEN_KERNEL_JOIN


def _kernel_sort_input(r):
    """The columns of sort pattern r, by name: j ties (100, 1000 or 1900
    values, plus U64_MAX), two tids, nulls, and every other column a
    distinct function of the slot."""
    ar = np.arange(100_003, dtype=np.uint64)
    j = (ar * (2 * r + 3)) % (100 + 900 * r)
    j[ar % 1001 == 0] = U64_MAX
    cols = {"j": j, "tid": ar % 2 + 1, "is_null": ar % (3 + r) == 0}
    for k, name in enumerate(("d", "alpha1", "alpha2", "f", "ii")):
        cols[name] = ar * (k + 2) + (U64_MAX - 100 - r)
    return cols


def _kernel_sort(r):
    cols = _kernel_sort_input(r)
    a = alloc(len(cols["j"]), NullSink())
    for name, col in cols.items():
        a.col(name)[:] = col
    bitonic_sort(a, KEY_J_TID)
    return a


GOLDEN_KERNEL_SORT = \
    "286392d991df01864c2ba6ca19745455a79e85e0f5ebde1ab50d8393ac3260c7"


def test_kernel_size_batch_sort_matches_rows():
    # the three patterns, once one batched sort, each sorted on its own;
    # d names each slot's input slot, so every column is checked
    sorts = [_kernel_sort(r) for r in range(3)]
    for r, a in enumerate(sorts):
        cols = _kernel_sort_input(r)
        d = a.debug_col("d")
        src = ((d - cols["d"][0]) // np.uint64(2)).astype(np.int64)
        assert np.array_equal(np.sort(src), np.arange(len(src)))
        for name, col in cols.items():
            assert np.array_equal(a.debug_col(name), col[src]), (r, name)
        j, tid = a.debug_col("j"), a.debug_col("tid")
        assert ((j[1:] > j[:-1])
                | ((j[1:] == j[:-1]) & (tid[1:] >= tid[:-1]))).all(), r
    assert _columns_digest(*sorts) == GOLDEN_KERNEL_SORT
