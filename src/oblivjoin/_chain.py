"""The trace hash chain as a C kernel over OpenSSL's SHA-256 block function.

One chain link hashes the 32-byte digest followed by a 17-byte record.
Those 49 bytes plus SHA-256 padding fill exactly one 64-byte block, so a
link is one SHA256_Transform from the IV, with the padding written once.

The kernel is compiled on first use into the user's cache directory and
loaded with ctypes; nothing is built at import.  load() returns None when
it cannot build or load the kernel, and the caller keeps its hashlib loop.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

SOURCE = r"""
#define OPENSSL_SUPPRESS_DEPRECATED
#include <stddef.h>
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
"""

_FLAGS = ("-O2", "-shared", "-fPIC")
_LIBS = ("-lcrypto",)
# one type for the chain state: a fresh c_char array type per call would
# leave a reference cycle for the cyclic GC on every digest
_State = ctypes.c_char * 32


def _default_cache() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "oblivjoin"


def load(cc: str = "cc", cache_dir: Path | None = None):
    """chain(h, rec_addr, n) -> bytes over the kernel, or None if the
    kernel cannot be built or loaded.

    chain extends the 32-byte state h by the n 17-byte records stored
    contiguously at address rec_addr.  The shared object is named by the
    SHA-256 of the source and the compile command, and is compiled only
    when the cache lacks it.
    """
    cache = cache_dir or _default_cache()
    key = hashlib.sha256(" ".join((SOURCE, cc, *_FLAGS, *_LIBS)).encode())
    lib = cache / f"chain-{key.hexdigest()[:16]}.so"
    try:
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src, out = Path(tmp, "chain.c"), Path(tmp, "chain.so")
                src.write_text(SOURCE)
                subprocess.run([cc, *_FLAGS, "-o", str(out), str(src), *_LIBS],
                               check=True, capture_output=True, timeout=300)
                os.replace(out, lib)
        fn = ctypes.CDLL(str(lib)).oblivjoin_chain
    except (OSError, subprocess.SubprocessError):
        return None
    fn.argtypes = (ctypes.POINTER(_State), ctypes.c_void_p, ctypes.c_size_t)
    fn.restype = None

    def chain(h: bytes, rec_addr: int, n: int) -> bytes:
        state = _State.from_buffer_copy(h)
        fn(state, rec_addr, n)
        return bytes(state)
    return chain


@functools.cache
def kernel():
    """load() with the defaults, once per process; a failure is kept too."""
    return load()
