"""PDF stream filters (PDF 32000-1:2008 §7.4).

FlateDecode (+PNG/TIFF predictors), LZWDecode, ASCIIHexDecode,
ASCII85Decode, RunLengthDecode.  Image-only filters (DCT/JPX/CCITT/JBIG2)
are passed through untouched — the reference's `get_contents`
(src/lib.rs:1255-1261) likewise falls back to raw content when the filter
chain can't be applied.
"""
from __future__ import annotations

import zlib

from .objects import Name, PdfError, Stream, maybe_deref

_PASSTHROUGH = {b"DCTDecode", b"DCT", b"JPXDecode", b"CCITTFaxDecode",
                b"CCF", b"JBIG2Decode", b"Crypt"}


def _get_filters(stream: Stream, doc=None):
    d = stream.dict
    flt = d.get(b"Filter")
    if doc is not None:
        flt = maybe_deref(doc, flt) if flt is not None else None
    if flt is None:
        return [], []
    parms = d.get(b"DecodeParms", d.get(b"DP"))
    if doc is not None and parms is not None:
        parms = maybe_deref(doc, parms)
    if isinstance(flt, Name):
        flt_list = [bytes(flt)]
        parms_list = [parms]
    elif isinstance(flt, list):
        flt_list = []
        for f in flt:
            f = maybe_deref(doc, f) if doc is not None else f
            if not isinstance(f, Name):
                raise PdfError(f"bad filter entry {f!r}")
            flt_list.append(bytes(f))
        if isinstance(parms, list):
            parms_list = list(parms) + [None] * (len(flt_list) - len(parms))
        else:
            parms_list = [parms] + [None] * (len(flt_list) - 1)
    else:
        raise PdfError(f"bad Filter {flt!r}")
    out_parms = []
    for p in parms_list:
        p = maybe_deref(doc, p) if (doc is not None and p is not None) else p
        out_parms.append(p if isinstance(p, dict) else None)
    return flt_list, out_parms


def decode_stream(stream: Stream, doc=None) -> bytes:
    data = stream.raw
    filters, parms = _get_filters(stream, doc)
    for name, parm in zip(filters, parms):
        if name in (b"FlateDecode", b"Fl"):
            data = _apply_predictor(zlib.decompress(data), parm, doc)
        elif name in (b"LZWDecode", b"LZW"):
            data = _apply_predictor(_lzw_decode(data), parm, doc)
        elif name in (b"ASCIIHexDecode", b"AHx"):
            data = _ascii_hex_decode(data)
        elif name in (b"ASCII85Decode", b"A85"):
            data = _ascii85_decode(data)
        elif name in (b"RunLengthDecode", b"RL"):
            data = _rle_decode(data)
        elif name in _PASSTHROUGH:
            pass
        else:
            raise PdfError(f"unknown filter {name!r}")
    return data


def _parm_int(parm, doc, key: bytes, default: int) -> int:
    if not parm:
        return default
    v = parm.get(key)
    if doc is not None and v is not None:
        v = maybe_deref(doc, v)
    return v if isinstance(v, int) else default


def _apply_predictor(data: bytes, parm, doc) -> bytes:
    predictor = _parm_int(parm, doc, b"Predictor", 1)
    if predictor <= 1:
        return data
    colors = _parm_int(parm, doc, b"Colors", 1)
    bpc = _parm_int(parm, doc, b"BitsPerComponent", 8)
    columns = _parm_int(parm, doc, b"Columns", 1)
    bpp = max(1, (colors * bpc + 7) // 8)          # bytes per pixel
    rowlen = (columns * colors * bpc + 7) // 8     # bytes per row
    if predictor == 2:  # TIFF predictor
        if bpc != 8:
            raise PdfError("TIFF predictor requires 8 bpc")
        out = bytearray(data)
        for r in range(0, len(out), rowlen):
            row_end = min(r + rowlen, len(out))
            for i in range(r + bpp, row_end):
                out[i] = (out[i] + out[i - bpp]) & 0xFF
        return bytes(out)
    # PNG predictors: each row prefixed with a filter-type byte
    out = bytearray()
    prev = bytearray(rowlen)
    pos = 0
    n = len(data)
    while pos < n:
        ft = data[pos]
        pos += 1
        row = bytearray(data[pos:pos + rowlen])
        pos += rowlen
        if ft == 0:
            pass
        elif ft == 1:  # Sub
            for i in range(bpp, len(row)):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:  # Up
            for i in range(len(row)):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:  # Average
            for i in range(len(row)):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[i] = (row[i] + pred) & 0xFF
        else:
            raise PdfError(f"bad PNG filter type {ft}")
        out += row
        prev = row
    return bytes(out)


def _ascii_hex_decode(data: bytes) -> bytes:
    out = bytearray()
    hi = None
    for c in data:
        if c in b"\x00\t\n\x0c\r ":
            continue
        if c == 0x3E:  # '>'
            break
        v = int(chr(c), 16)
        if hi is None:
            hi = v
        else:
            out.append(hi * 16 + v)
            hi = None
    if hi is not None:
        out.append(hi * 16)
    return bytes(out)


def _ascii85_decode(data: bytes) -> bytes:
    import base64
    s = bytes(c for c in data if c not in b"\x00\t\n\x0c\r ")
    if s.startswith(b"<~"):
        s = s[2:]
    if s.endswith(b"~>"):
        s = s[:-2]
    return base64.a85decode(s)


def _rle_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        l = data[i]
        i += 1
        if l == 128:
            break
        if l < 128:
            out += data[i:i + l + 1]
            i += l + 1
        else:
            if i < n:
                out += bytes([data[i]]) * (257 - l)
                i += 1
    return bytes(out)


# the LZW table after a clear: the 256 single bytes, then placeholders
# for the clear (256) and end-of-data (257) codes
_LZW_INITIAL_TABLE = [bytes([i]) for i in range(256)] + [b"", b""]


def _lzw_decode(data: bytes) -> bytes:
    """LZW per PDF spec §7.4.4 (early-change variant)."""
    out = bytearray()
    table = _LZW_INITIAL_TABLE.copy()  # copied: the decode appends to it
    bitbuf = 0
    bits = 0
    width = 9
    prev = None
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        bits += 8
        while bits >= width:
            code = (bitbuf >> (bits - width)) & ((1 << width) - 1)
            bits -= width
            bitbuf &= (1 << bits) - 1  # keep only the unread bits
            if code == 256:  # clear
                table = _LZW_INITIAL_TABLE.copy()
                width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            if len(table) + 1 >= (1 << width) and width < 12:
                width += 1
    return bytes(out)
