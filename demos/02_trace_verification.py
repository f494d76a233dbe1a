"""Show that the access trace depends only on the public sizes.

Every public-memory read and write the engine performs can be hashed by
HashSink: SHA-256 over the concatenation of the events' 17-byte records
(big-endian u64 array id, u8 op, big-endian u64 index).  Two inputs
with the same (n1, n2, m) must produce byte-identical access sequences —
same digest — no matter how different their keys, payloads, or match
structure are.  Inputs with a different size triple produce a different
digest.
"""

import numpy as np

from oblivjoin import HashSink, gen_test_class, oblivious_join, verify_trace_class

# two structurally different instances of the same class (n1=6, n2=6, m=6)
a1 = np.array([(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)], np.uint64)
a2 = np.array([(6, 61), (5, 51), (4, 41), (3, 31), (2, 21), (1, 11)], np.uint64)

# key 9 forms a 3x2 group (6 pairs); every other key is unmatched
b1 = np.array([(9, 90), (9, 91), (9, 92), (1, 13), (2, 23), (3, 33)], np.uint64)
b2 = np.array([(9, 95), (9, 96), (11, 14), (12, 24), (13, 34), (8, 80)], np.uint64)

digests = []
for t1, t2 in ((a1, a2), (b1, b2)):
    sink = HashSink()
    res = oblivious_join(t1, t2, sink)
    digests.append(sink.digest)
    print(f"m={res.m}  trace sha256: {sink.digest.hex()}")

assert digests[0] == digests[1], "same (n1, n2, m) must give the same trace"
print("identical digests: the trace leaks nothing beyond (n1, n2, m)")

# a different m lands in a different trace class
c2 = np.array([(1, 12), (2, 22), (3, 32), (4, 42), (5, 52), (99, 0)], np.uint64)
sink = HashSink()
res = oblivious_join(a1, c2, sink)
print(f"m={res.m}  trace sha256: {sink.digest.hex()}")
assert sink.digest != digests[0]

# the harness automates this over generated instance families
tc = gen_test_class(24, 17, "mixed", seed=3, instances=12)
verdict = verify_trace_class(tc)
print(f"class (n1=24, n2=17, m={tc.m}): "
      f"{len(verdict.digests)} instances, all digests equal: {verdict.passed}")
assert verdict.passed
