"""Standard security handler (PDF 32000-1:2008 §7.6 + ISO 32000-2 R6):
RC4 (V1/V2/V4-V2), AES-128-CBC (V4 AESV2) and AES-256-CBC (V5 R5/R6
AESV3), all pure Python (engine/aes.py).

The reference attempts an empty-password decrypt automatically
(`maybe_decrypt`, src/lib.rs:2230-2244); same default here.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Optional

from .aes import (aes_cbc_decrypt, aes_cbc_no_pad_decrypt,
                  aes_cbc_no_pad_encrypt)
from .objects import Name, PdfError, PdfString, Ref, Stream, maybe_deref

PAD = bytes([
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41, 0x64, 0x00, 0x4E, 0x56,
    0xFF, 0xFA, 0x01, 0x08, 0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A])


def rc4(key: bytes, data: bytes) -> bytes:
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, b in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = b ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


def _hash_r6(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithm 2.B hardened hash."""
    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    while True:
        e = aes_cbc_no_pad_encrypt(k[0:16], k[16:32],
                                   (password + k + udata) * 64)
        mod = sum(e[:16]) % 3
        if mod == 0:
            k = hashlib.sha256(e).digest()
        elif mod == 1:
            k = hashlib.sha384(e).digest()
        else:
            k = hashlib.sha512(e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


_PW_CHECK_CACHE: dict = {}


class StandardSecurityHandler:
    def __init__(self, doc, password: str = ""):
        enc_ref = doc.trailer.get(b"Encrypt")
        enc = maybe_deref(doc, enc_ref)
        if not isinstance(enc, dict):
            raise PdfError("bad Encrypt dict")
        filt = enc.get(b"Filter")
        if not (isinstance(filt, Name) and bytes(filt) == b"Standard"):
            raise PdfError(f"unsupported security handler {filt!r}")
        self.v = enc.get(b"V", 0)
        self.r = enc.get(b"R", 2)
        length = enc.get(b"Length", 40)
        self.key_len = (length if isinstance(length, int) else 40) // 8
        o = enc.get(b"O")
        u = enc.get(b"U")
        p = enc.get(b"P", -1)
        if not isinstance(o, PdfString) or not isinstance(u, PdfString):
            raise PdfError("missing O/U")
        ids = maybe_deref(doc, doc.trailer.get(b"ID"))
        id0 = bytes(ids[0]) if isinstance(ids, list) and ids and isinstance(ids[0], PdfString) else b""

        # ciphers from crypt filters (V4/V5); V1/V2 => RC4 for everything.
        # StmF and StrF may name different filters (e.g. streams AES,
        # strings Identity); track them separately.
        self.cipher = "rc4"          # stream cipher
        self.str_cipher = None       # None => same as stream cipher
        if self.v in (4, 5):
            cf = maybe_deref(doc, enc.get(b"CF")) or {}

            def filter_cipher(key: bytes):
                fname = enc.get(key)
                fname_b = bytes(fname) if isinstance(fname, Name) else b"Identity"
                if fname_b == b"Identity":
                    return "identity"
                cfd = maybe_deref(doc, cf.get(fname_b)) if isinstance(cf, dict) else None
                cfm = cfd.get(b"CFM") if isinstance(cfd, dict) else None
                cfm_b = bytes(cfm) if isinstance(cfm, Name) else b""
                if cfm_b == b"AESV2":
                    return "aes128"
                if cfm_b == b"AESV3":
                    return "aes256"
                if cfm_b == b"V2":
                    return "rc4"
                return "aes256" if self.v == 5 else "rc4"

            self.cipher = filter_cipher(b"StmF")
            self.str_cipher = filter_cipher(b"StrF")
            if "aes128" in (self.cipher, self.str_cipher):
                self.key_len = 16

        if self.v == 5:
            self._init_v5(bytes(o), bytes(u), enc, password)
            return
        if self.v not in (1, 2, 4):
            raise PdfError(f"unsupported encryption V={self.v}")

        # Algorithm 2: compute the RC4/AES-128 encryption key
        pw = password.encode("latin-1", "replace")
        padded = (pw + PAD)[:32]
        h = hashlib.md5()
        h.update(padded)
        h.update(bytes(o)[:32])
        h.update(struct.pack("<i", p if isinstance(p, int) else -1))
        h.update(id0)
        if self.r >= 4 and enc.get(b"EncryptMetadata") is False:
            h.update(b"\xff\xff\xff\xff")
        key = h.digest()
        n = self.key_len if self.r >= 3 else 5
        if self.r >= 3:
            for _ in range(50):
                key = hashlib.md5(key[:n]).digest()
        self.key = key[:n]

        if not self._check_user_password(bytes(u), id0):
            raise PdfError("IncorrectPassword")

    def _init_v5(self, o: bytes, u: bytes, enc: dict, password: str) -> None:
        """R5 (deprecated Adobe ext.) / R6 (ISO 32000-2) AES-256."""
        pw = password.encode("utf-8")[:127]
        ue = enc.get(b"UE")
        if not isinstance(ue, PdfString):
            raise PdfError("missing UE")
        vsalt, ksalt = u[32:40], u[40:48]
        if self.r >= 6:
            if _hash_r6(pw, vsalt)[:32] != u[:32]:
                raise PdfError("IncorrectPassword")
            ikey = _hash_r6(pw, ksalt)
        else:  # R5
            if hashlib.sha256(pw + vsalt).digest() != u[:32]:
                raise PdfError("IncorrectPassword")
            ikey = hashlib.sha256(pw + ksalt).digest()
        self.key = aes_cbc_no_pad_decrypt(ikey, bytes(16), bytes(ue))[:32]
        self.cipher = "aes256"

    def _check_user_password(self, u: bytes, id0: bytes) -> bool:
        # bounded memo: the 20-round RC4 verification is pure in
        # (key, r, U, ID); crawls contain runs of docs from one producer
        # with identical security records, and re-verifying costs ~100us
        # of sequential RC4 per doc.  Distinct docs miss harmlessly.
        ck = (self.key, self.r, u[:32], id0)
        hit = _PW_CHECK_CACHE.get(ck)
        if hit is not None:
            return hit
        if self.r == 2:
            res = rc4(self.key, PAD) == u[:32]
        else:
            h = hashlib.md5()
            h.update(PAD)
            h.update(id0)
            step = rc4(self.key, h.digest())
            for i in range(1, 20):
                k = bytes(b ^ i for b in self.key)
                step = rc4(k, step)
            res = step == u[:16]
        if len(_PW_CHECK_CACHE) < 10_000:
            _PW_CHECK_CACHE[ck] = res
        return res

    def object_key(self, num: int, gen: int, aes: bool) -> bytes:
        h = hashlib.md5()
        h.update(self.key)
        h.update(struct.pack("<i", num)[:3])
        h.update(struct.pack("<i", gen)[:2])
        if aes:
            h.update(b"sAlT")
        n = min(len(self.key) + 5, 16)
        return h.digest()[:n]

    def _apply(self, cipher: str, data: bytes, num: int, gen: int) -> bytes:
        if cipher == "identity":
            return data
        if cipher == "aes256":
            return aes_cbc_decrypt(self.key, data)
        if cipher == "aes128":
            return aes_cbc_decrypt(self.object_key(num, gen, True), data)
        return rc4(self.object_key(num, gen, False), data)

    def decrypt_bytes(self, data: bytes, num: int, gen: int) -> bytes:
        """Stream payload decryption (StmF)."""
        return self._apply(self.cipher, data, num, gen)

    def decrypt_string(self, data: bytes, num: int, gen: int) -> bytes:
        """String decryption (StrF; falls back to the stream cipher)."""
        cipher = self.str_cipher if self.str_cipher is not None else self.cipher
        return self._apply(cipher, data, num, gen)


def decrypt_document(doc, password: str = "") -> None:
    """Install a decryptor on the document; objects are decrypted lazily at
    load time (strings and stream bytes of top-level objects)."""
    handler = StandardSecurityHandler(doc, password)
    doc._crypt = handler
    doc._cache.clear()
    doc._objstm_cache.clear()
    del doc.trailer[b"Encrypt"]
    if getattr(doc, "_recovered", False):
        # recovery ran BEFORE the file key existed, so encrypted ObjStms
        # could not be expanded then — index their inner objects now
        doc._index_objstms()


def decrypt_object(handler: StandardSecurityHandler, obj, num: int, gen: int):
    """Recursively decrypt strings (and stream payloads) in an object."""
    if isinstance(obj, PdfString):
        return PdfString(handler.decrypt_string(bytes(obj), num, gen))
    if isinstance(obj, list):
        return [decrypt_object(handler, x, num, gen) for x in obj]
    if isinstance(obj, dict):
        return {k: decrypt_object(handler, v, num, gen) for k, v in obj.items()}
    if isinstance(obj, Stream):
        d = decrypt_object(handler, obj.dict, num, gen)
        t = d.get(b"Type")
        if isinstance(t, Name) and bytes(t) == b"XRef":
            return Stream(d, obj.raw)  # xref streams are never encrypted
        return Stream(d, handler.decrypt_bytes(obj.raw, num, gen))
    return obj
