"""AES known-answer tests and pinned CBC outputs.

Known answers: FIPS-197 Appendix C (AES-128/192/256 single block) and
NIST SP 800-38A F.2.1 (CBC-AES128, first block).  The sweep digest and
the R6 hashes were computed with the byte-oriented AES this engine
shipped before the T-table rewrite; they pin every `aes_cbc_*` entry
point (both padding modes, all key sizes, short, truncated and
odd-length inputs) and the ISO 32000-2 Algorithm 2.B hash.
"""
import hashlib
import random

import pytest

from pdf_extract_ray.engine.aes import (aes_cbc_decrypt, aes_cbc_encrypt,
                                        aes_cbc_no_pad_decrypt,
                                        aes_cbc_no_pad_encrypt)
from pdf_extract_ray.engine.crypt import _hash_r6

_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_ZERO_IV = bytes(16)

FIPS197_C = [
    (bytes(range(16)), "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (bytes(range(24)), "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (bytes(range(32)), "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key,cipher", FIPS197_C,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_appendix_c(key, cipher):
    # one block with a zero IV is ECB: C = E_K(P)
    ct = bytes.fromhex(cipher)
    assert aes_cbc_no_pad_encrypt(key, _ZERO_IV, _PLAIN) == ct
    assert aes_cbc_no_pad_decrypt(key, _ZERO_IV, ct) == _PLAIN
    assert aes_cbc_encrypt(key, _ZERO_IV, _PLAIN, add_padding=False) \
        == _ZERO_IV + ct
    assert aes_cbc_decrypt(key, _ZERO_IV + ct, strip_padding=False) \
        == _PLAIN


def test_sp800_38a_cbc_aes128_block1():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes(range(16))
    plain = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    ct = bytes.fromhex("7649abac8119b246cee98e9b12e9197d")
    assert aes_cbc_no_pad_encrypt(key, iv, plain) == ct
    assert aes_cbc_no_pad_decrypt(key, iv, ct) == plain
    assert aes_cbc_decrypt(key, iv + ct, strip_padding=False) == plain


def _sweep_records():
    """Seeded outputs of the four CBC entry points (exceptions recorded
    by type name)."""
    rng = random.Random(20261017)

    def rb(n):
        return bytes(rng.randrange(256) for _ in range(n))

    def call(fn, *args, **kw):
        try:
            return fn(*args, **kw)
        except Exception as e:  # recorded, not raised
            return ("raised", type(e).__name__)

    for ksize in (16, 24, 32):
        key, iv = rb(ksize), rb(16)
        for n in range(301):
            data = rb(n)
            yield call(aes_cbc_decrypt, key, data)
            yield call(aes_cbc_decrypt, key, data, strip_padding=False)
            yield call(aes_cbc_no_pad_decrypt, key, iv, data)
            yield call(aes_cbc_encrypt, key, iv, data)
            if n % 16 == 0:
                yield call(aes_cbc_encrypt, key, iv, data, add_padding=False)
                yield call(aes_cbc_no_pad_encrypt, key, iv, data)
        # real ciphertexts, then truncated, with a dropped tail byte and
        # with a flipped padding byte
        for n in (0, 1, 15, 16, 17, 31, 32, 100):
            plain = rb(n)
            ct = aes_cbc_encrypt(key, iv, plain)
            yield call(aes_cbc_decrypt, key, ct)
            yield call(aes_cbc_decrypt, key, ct[:-16])
            yield call(aes_cbc_decrypt, key, ct[:-1])
            yield call(aes_cbc_decrypt, key, ct[:17])
            bad = bytearray(ct)
            bad[-1] ^= 0x5A
            yield call(aes_cbc_decrypt, key, bytes(bad))
            yield call(aes_cbc_decrypt, key, bytes(bad), strip_padding=False)


# sha256 of repr() of every record, computed with the byte-oriented AES
SWEEP_SHA256 = \
    "937752fae1b707c6e759f885948b10cb98e63417f7ea2e32f4c39835fdd3ab7b"


def test_cbc_sweep_digest():
    h = hashlib.sha256()
    for rec in _sweep_records():
        h.update(repr(rec).encode())
    assert h.hexdigest() == SWEEP_SHA256


HASH_R6 = [
    (b"", bytes(range(8)),
     "1403c04eb647d2e60452dfc4eb0a5e0cf322e8a83a759eabbd17d498a93ba041"),
    (b"owner secret \xc3\xa9", bytes.fromhex("a1b2c3d4e5f60718"),
     "02b746993d74e611abffe8cdaa49c518ae6b6270db3b8ccce836da448cbf33ae"),
]


@pytest.mark.parametrize("password,salt,expected", HASH_R6,
                         ids=["empty", "utf8"])
def test_hash_r6_pinned(password, salt, expected):
    assert _hash_r6(password, salt).hex() == expected
