"""Minimal pure-Python AES (128/192/256) + CBC, for PDF standard-security
decryption (AESV2/AESV3).  Implements FIPS-197 directly: the engine
takes no crypto-library dependency, by choice, so it runs wherever
Python does.  Throughput is modest (~100 KB/s/core) — encrypted PDFs are
a tiny corpus fraction and rows are totalized to errors on failure
anyway."""
from __future__ import annotations

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")
_INV_SBOX = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_INV_SBOX = bytes(_INV_SBOX)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


_MUL = [[0] * 256 for _ in range(16)]
for _x in range(256):
    _MUL[1][_x] = _x
    _MUL[2][_x] = _xtime(_x)
    _MUL[3][_x] = _MUL[2][_x] ^ _x
for _x in range(256):
    _MUL[4][_x] = _MUL[2][_MUL[2][_x]]
    _MUL[8][_x] = _MUL[2][_MUL[4][_x]]
    _MUL[9][_x] = _MUL[8][_x] ^ _x
    _MUL[11][_x] = _MUL[8][_x] ^ _MUL[2][_x] ^ _x
    _MUL[13][_x] = _MUL[8][_x] ^ _MUL[4][_x] ^ _x
    _MUL[14][_x] = _MUL[8][_x] ^ _MUL[4][_x] ^ _MUL[2][_x]


def _expand_key(key: bytes):
    nk = len(key) // 4
    nr = nk + 6
    w = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        t = list(w[i - 1])
        if i % nk == 0:
            t = t[1:] + t[:1]
            t = [_SBOX[b] for b in t]
            t[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            t = [_SBOX[b] for b in t]
        w.append([w[i - nk][j] ^ t[j] for j in range(4)])
    return w, nr


def _encrypt_block(w, nr, block: bytes) -> bytes:
    s = [block[i] ^ w[i // 4][i % 4] for i in range(16)]
    for rnd in range(1, nr):
        s = [_SBOX[b] for b in s]
        # ShiftRows on column-major state: byte index = 4*col + row
        s = [s[(i + 4 * (i % 4)) % 16] for i in range(16)]
        ns = [0] * 16
        for c in range(4):
            col = s[4 * c:4 * c + 4]
            ns[4 * c + 0] = _MUL[2][col[0]] ^ _MUL[3][col[1]] ^ col[2] ^ col[3]
            ns[4 * c + 1] = col[0] ^ _MUL[2][col[1]] ^ _MUL[3][col[2]] ^ col[3]
            ns[4 * c + 2] = col[0] ^ col[1] ^ _MUL[2][col[2]] ^ _MUL[3][col[3]]
            ns[4 * c + 3] = _MUL[3][col[0]] ^ col[1] ^ col[2] ^ _MUL[2][col[3]]
        s = [ns[i] ^ w[nr_round_index(rnd, i)][i % 4] for i in range(16)]
    s = [_SBOX[b] for b in s]
    s = [s[(i + 4 * (i % 4)) % 16] for i in range(16)]
    s = [s[i] ^ w[nr_round_index(nr, i)][i % 4] for i in range(16)]
    return bytes(s)


def nr_round_index(rnd: int, i: int) -> int:
    return 4 * rnd + i // 4


def _decrypt_block(w, nr, block: bytes) -> bytes:
    s = [block[i] ^ w[nr_round_index(nr, i)][i % 4] for i in range(16)]
    for rnd in range(nr - 1, 0, -1):
        # InvShiftRows then InvSubBytes
        s = [s[(i - 4 * (i % 4)) % 16] for i in range(16)]
        s = [_INV_SBOX[b] for b in s]
        s = [s[i] ^ w[nr_round_index(rnd, i)][i % 4] for i in range(16)]
        ns = [0] * 16
        for c in range(4):
            col = s[4 * c:4 * c + 4]
            ns[4 * c + 0] = _MUL[14][col[0]] ^ _MUL[11][col[1]] ^ _MUL[13][col[2]] ^ _MUL[9][col[3]]
            ns[4 * c + 1] = _MUL[9][col[0]] ^ _MUL[14][col[1]] ^ _MUL[11][col[2]] ^ _MUL[13][col[3]]
            ns[4 * c + 2] = _MUL[13][col[0]] ^ _MUL[9][col[1]] ^ _MUL[14][col[2]] ^ _MUL[11][col[3]]
            ns[4 * c + 3] = _MUL[11][col[0]] ^ _MUL[13][col[1]] ^ _MUL[9][col[2]] ^ _MUL[14][col[3]]
        s = ns
    s = [s[(i - 4 * (i % 4)) % 16] for i in range(16)]
    s = [_INV_SBOX[b] for b in s]
    s = [s[i] ^ w[i // 4][i % 4] for i in range(16)]
    return bytes(s)


def aes_cbc_decrypt(key: bytes, data: bytes, strip_padding: bool = True) -> bytes:
    """data = IV || ciphertext (PDF AESV2/AESV3 layout)."""
    if len(data) < 16:
        return b""
    w, nr = _expand_key(key)
    iv = data[:16]
    out = bytearray()
    prev = iv
    for off in range(16, len(data) - 15, 16):
        block = data[off:off + 16]
        plain = _decrypt_block(w, nr, block)
        out += bytes(p ^ v for p, v in zip(plain, prev))
        prev = block
    if strip_padding and out:
        pad = out[-1]
        if 1 <= pad <= 16 and len(out) >= pad:
            out = out[:-pad]
    return bytes(out)


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes,
                    add_padding: bool = True) -> bytes:
    """-> IV || ciphertext, PKCS#5-padded (for test fixtures)."""
    w, nr = _expand_key(key)
    if add_padding:
        pad = 16 - len(data) % 16
        data = data + bytes([pad]) * pad
    out = bytearray(iv)
    prev = iv
    for off in range(0, len(data), 16):
        block = bytes(p ^ v for p, v in zip(data[off:off + 16], prev))
        enc = _encrypt_block(w, nr, block)
        out += enc
        prev = enc
    return bytes(out)


def aes_cbc_no_pad_decrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC with explicit IV, no padding (PDF R6 UE/OE file-key unwrap)."""
    w, nr = _expand_key(key)
    out = bytearray()
    prev = iv
    for off in range(0, len(data) - 15, 16):
        block = data[off:off + 16]
        plain = _decrypt_block(w, nr, block)
        out += bytes(p ^ v for p, v in zip(plain, prev))
        prev = block
    return bytes(out)


def aes_ecb_encrypt_block(key: bytes, block: bytes) -> bytes:
    w, nr = _expand_key(key)
    return _encrypt_block(w, nr, block)


def aes_cbc_no_pad_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC with explicit IV, no padding, ciphertext only (R6 UE/OE wrap)."""
    w, nr = _expand_key(key)
    out = bytearray()
    prev = iv
    for off in range(0, len(data), 16):
        block = bytes(p ^ v for p, v in zip(data[off:off + 16], prev))
        prev = _encrypt_block(w, nr, block)
        out += prev
    return bytes(out)
