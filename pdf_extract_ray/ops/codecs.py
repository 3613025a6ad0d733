"""Pure-stdlib media decoders for the multimodal stages.

The container ships no PIL/pyav, but PNG (zlib is stdlib), uncompressed
BMP (struct) and PCM WAV (stdlib `wave`) are decodable from first
principles — so the image/audio stages run a REAL decode for those
formats and fall back to the declared deterministic fake only for
formats that genuinely need an external codec (JPEG, MP4, ...).

Implemented from the public format specs:
- PNG: RFC 2083 / W3C PNG spec (IHDR/IDAT chunks, filters 0-4,
  8-bit gray/RGB/RGBA/gray+alpha, non-interlaced).
- BMP: BITMAPFILEHEADER + BITMAPINFOHEADER, 24/32-bit uncompressed.
- WAV: RIFF PCM via the stdlib `wave` module.
"""
from __future__ import annotations

import io
import struct
import zlib
from typing import Tuple

import numpy as np

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
BMP_MAGIC = b"BM"
WAV_MAGIC = b"RIFF"

# color type -> defilter channels; type 3 (palette) defilters as one
# index byte per pixel, then maps through PLTE (+optional tRNS alpha)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def sniff_media(payload: bytes) -> str:
    if payload.startswith(PNG_MAGIC):
        return "png"
    if payload.startswith(BMP_MAGIC):
        return "bmp"
    if payload[:4] == WAV_MAGIC and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:4] == WAV_MAGIC and payload[8:12] == b"AVI ":
        return "avi"
    if payload.startswith(b"\xff\xd8\xff"):
        return "jpeg"
    if len(payload) >= 12 and payload[4:8] == b"ftyp":
        return "mp4"
    return "unknown"


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb and pa_ <= pc_:
        return a
    return b if pb <= pc_ else c


def decode_png(data: bytes) -> np.ndarray:
    """-> uint8 array (h, w, channels).  8-bit, non-interlaced only.
    Raises ValueError on ANY malformed input (structural damage
    included) — the multimodal fake-decode fallback catches exactly
    ValueError."""
    try:
        return _decode_png(data)
    except (IndexError, KeyError, struct.error, zlib.error, EOFError,
            OverflowError, MemoryError, ZeroDivisionError) as e:
        raise ValueError(f"malformed PNG structure: {e!r}") from e


# Adam7 interlace pass origins/strides (x0, y0, dx, dy)
_ADAM7 = [(0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2)]


def _png_defilter(raw: bytes, pos: int, height: int, stride: int,
                  bpp: int):
    """Defilter one (sub-)image of `height` scanlines of `stride`
    bytes starting at `pos` -> (uint8 (height, stride) array, new
    pos).  `bpp` = BYTES per pixel (channels x sample bytes) — the
    left-neighbour distance the Sub/Average/Paeth filters use.  Each
    Adam7 pass filters independently (fresh zero prev row), so the
    same kernel serves both layouts."""
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        ftype = raw[pos]
        line = np.frombuffer(raw, dtype=np.uint8,
                             count=stride, offset=pos + 1).copy()
        pos += stride + 1
        if ftype == 0:
            pass
        elif ftype == 2:  # Up
            line += prev
        elif ftype == 1:  # Sub: a running sum mod 256 in each byte lane
            line = np.cumsum(line.reshape(-1, bpp), axis=0,
                             dtype=np.uint8).reshape(-1)
        elif ftype == 3:  # Average
            for i in range(stride):
                left = int(line[i - bpp]) if i >= bpp else 0
                line[i] = (int(line[i])
                           + ((left + int(prev[i])) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = int(line[i - bpp]) if i >= bpp else 0
                ul = int(prev[i - bpp]) if i >= bpp else 0
                line[i] = (int(line[i])
                           + _paeth(left, int(prev[i]), ul)) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {ftype}")
        out[y] = line
        prev = out[y]
    return out, pos


def _decode_png(data: bytes) -> np.ndarray:
    if not data.startswith(PNG_MAGIC):
        raise ValueError("not a PNG")
    pos = 8
    width = height = None
    bit_depth = color_type = None
    idat = bytearray()
    plte = None
    trns = None
    while pos + 8 <= len(data):
        (length,), ctype = struct.unpack(">I", data[pos:pos + 4]), data[pos + 4:pos + 8]
        chunk = data[pos + 8:pos + 8 + length]
        if ctype == b"PLTE":
            if len(chunk) % 3 or not chunk:
                raise ValueError("bad PLTE length")
            plte = np.frombuffer(chunk, np.uint8).reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = np.frombuffer(chunk, np.uint8)
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _comp, _filt, interlace = \
                struct.unpack(">IIBBBBB", chunk)
            if bit_depth not in (8, 16) or \
                    (bit_depth == 16 and color_type == 3):
                raise ValueError(f"unsupported bit depth {bit_depth}")
            if color_type not in _PNG_CHANNELS:
                raise ValueError(f"unsupported color type {color_type}")
            if interlace not in (0, 1):
                raise ValueError(f"bad interlace method {interlace}")
        elif ctype == b"IDAT":
            idat += chunk
        elif ctype == b"IEND":
            break
        pos += 12 + length  # len + type + data + crc
    if width is None or not idat:
        raise ValueError("missing IHDR/IDAT")
    ch = _PNG_CHANNELS[color_type]
    sb = bit_depth // 8  # sample bytes (1 or 2)
    bpp = ch * sb
    if interlace == 0:
        passes = [(0, 0, 1, 1)]
    else:
        passes = _ADAM7
    dims = []
    need = 0
    for x0, y0, dx, dy in passes:
        wp = (width - x0 + dx - 1) // dx if width > x0 else 0
        hp = (height - y0 + dy - 1) // dy if height > y0 else 0
        dims.append((wp, hp))
        if wp > 0 and hp > 0:
            need += hp * (wp * bpp + 1)
    if need > (1 << 26):
        raise ValueError("implausible PNG dimensions")
    # decompress AT MOST what the raster needs: a crafted deflate bomb
    # must not expand unbounded (found by tools/media_fuzz.py hardening)
    d = zlib.decompressobj()
    raw = d.decompress(bytes(idat), need)
    if len(raw) < need:
        raise ValueError("truncated PNG data")
    out3 = np.zeros((height, width, ch), dtype=np.uint8)
    pos = 0
    for (x0, y0, dx, dy), (wp, hp) in zip(passes, dims):
        if wp <= 0 or hp <= 0:
            continue
        sub, pos = _png_defilter(raw, pos, hp, wp * bpp, bpp)
        if sb == 2:
            # 16-bit samples: keep the high byte (the standard 8-bit
            # downconversion — big-endian sample order)
            sub = sub.reshape(hp, wp, ch, 2)[:, :, :, 0]
        out3[y0::dy, x0::dx] = sub.reshape(hp, wp, ch)
    if color_type == 3:
        if plte is None:
            raise ValueError("palette PNG without PLTE")
        idx = out3[:, :, 0]
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("palette index out of range")
        rgb = plte[idx]
        if trns is None:
            return rgb
        alpha = np.full(idx.shape, 255, np.uint8)
        has = idx < len(trns)
        alpha[has] = trns[idx[has]]
        return np.concatenate([rgb, alpha[:, :, None]], axis=2)
    return out3


def decode_bmp(data: bytes) -> np.ndarray:
    """-> uint8 array (h, w, 3).  24/32-bit uncompressed BI_RGB only.
    Raises ValueError on ANY malformed input."""
    try:
        return _decode_bmp(data)
    except (IndexError, KeyError, struct.error, OverflowError,
            MemoryError, ZeroDivisionError) as e:
        raise ValueError(f"malformed BMP structure: {e!r}") from e


def _decode_bmp(data: bytes) -> np.ndarray:
    if not data.startswith(BMP_MAGIC) or len(data) < 54:
        raise ValueError("not a BMP")
    pixel_off, = struct.unpack("<I", data[10:14])
    hdr_size, = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise ValueError("unsupported BMP header")
    width, height = struct.unpack("<ii", data[18:26])
    planes, bpp = struct.unpack("<HH", data[26:30])
    compression, = struct.unpack("<I", data[30:34])
    if compression != 0 or bpp not in (24, 32):
        raise ValueError(f"unsupported BMP (bpp={bpp}, comp={compression})")
    flip = height > 0
    height = abs(height)
    bytes_pp = bpp // 8
    stride = ((width * bytes_pp + 3) // 4) * 4
    need = pixel_off + stride * height
    if len(data) < need:
        raise ValueError("truncated BMP data")
    rows = np.frombuffer(data, dtype=np.uint8, count=stride * height,
                         offset=pixel_off).reshape(height, stride)
    px = rows[:, :width * bytes_pp].reshape(height, width, bytes_pp)
    if flip:
        px = px[::-1]
    # BGR(A) -> RGB
    return px[:, :, 2::-1].copy()


def decode_wav(data: bytes) -> Tuple[np.ndarray, int, int]:
    """-> (samples float64 in [-1, 1] shaped (n, channels), rate,
    width).  Raises ValueError on ANY malformed input."""
    import wave
    try:
        return _decode_wav(data)
    except (wave.Error, IndexError, KeyError, struct.error, EOFError,
            OverflowError, MemoryError, ZeroDivisionError,
            RuntimeError) as e:
        # RuntimeError: stdlib wave's Chunk.skip raises a BARE
        # RuntimeError on unseekable/short chunk tails (wave.py:155)
        raise ValueError(f"malformed WAV structure: {e!r}") from e


def _decode_wav(data: bytes) -> Tuple[np.ndarray, int, int]:
    with wave_open(data) as w:
        n = w.getnframes()
        rate = w.getframerate()
        ch = w.getnchannels()
        sw = w.getsampwidth()
        raw = w.readframes(n)
    if sw == 2:
        arr = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif sw == 1:
        arr = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported sample width {sw}")
    return arr.reshape(-1, ch), rate, sw


def wave_open(data: bytes):
    import wave
    return wave.open(io.BytesIO(data), "rb")


# -- encoders (fixture-side: deterministic test payload construction) -------


def encode_png(img: np.ndarray, *, interlace: bool = False) -> bytes:
    """uint8 (h, w, c) -> PNG bytes (filter 0 scanlines; optional
    Adam7 interlaced layout for decoder-coverage fixtures)."""
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    if interlace:
        parts = []
        for x0, y0, dx, dy in _ADAM7:
            sub = img[y0::dy, x0::dx]
            for y in range(sub.shape[0]):
                if sub.shape[1]:
                    parts.append(b"\x00" + sub[y].tobytes())
        raw = b"".join(parts)
    else:
        raw = b"".join(b"\x00" + img[y].tobytes() for y in range(h))

    def chunk(ctype: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + ctype + payload \
            + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0,
                       1 if interlace else 0)
    return (PNG_MAGIC + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b""))


def encode_png_palette(indices: np.ndarray, palette: np.ndarray, *,
                       trns: bytes | None = None,
                       interlace: bool = False) -> bytes:
    """uint8 (h, w) palette indices + (n, 3) palette -> indexed
    (color type 3) PNG bytes, optional tRNS alpha table and Adam7."""
    h, w = indices.shape
    if interlace:
        parts = []
        for x0, y0, dx, dy in _ADAM7:
            sub = indices[y0::dy, x0::dx]
            for y in range(sub.shape[0]):
                if sub.shape[1]:
                    parts.append(b"\x00" + sub[y].tobytes())
        raw = b"".join(parts)
    else:
        raw = b"".join(b"\x00" + indices[y].tobytes()
                       for y in range(h))

    def chunk(ctype: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + ctype + payload \
            + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0,
                       1 if interlace else 0)
    out = PNG_MAGIC + chunk(b"IHDR", ihdr) \
        + chunk(b"PLTE", palette.astype(np.uint8).tobytes())
    if trns is not None:
        out += chunk(b"tRNS", bytes(trns))
    return out + chunk(b"IDAT", zlib.compress(raw)) \
        + chunk(b"IEND", b"")


def encode_bmp(img: np.ndarray) -> bytes:
    """uint8 (h, w, 3) -> 24-bit bottom-up BMP bytes."""
    h, w, _ = img.shape
    stride = ((w * 3 + 3) // 4) * 4
    body = bytearray()
    for y in range(h - 1, -1, -1):
        row = img[y, :, ::-1].tobytes()  # RGB -> BGR
        body += row + b"\x00" * (stride - len(row))
    off = 54
    return (b"BM" + struct.pack("<IHHI", off + len(body), 0, 0, off)
            + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                          2835, 2835, 0, 0)
            + bytes(body))


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """float64 (n, ch) in [-1, 1] -> 16-bit PCM WAV bytes."""
    import wave
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(samples.shape[1])
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes((np.clip(samples, -1, 1) * 32767.0)
                      .astype("<i2").tobytes())
    return buf.getvalue()


# -- JPEG (ITU-T T.81 baseline sequential and progressive) ------------------
#
# Pure-numpy JPEG codec (VERDICT r3 item 3): huffman-coded DCT with
# 8-bit samples — the format that dominates crawl images.  Supported:
# SOF0/SOF1 sequential and SOF2 progressive frames (spectral selection
# and successive approximation), interleaved or single-component scans,
# arbitrary h/v sampling factors (4:4:4, 4:2:0, 4:2:2, grayscale),
# restart intervals, 8/16-bit quant tables.  Lossless, hierarchical and
# arithmetic-coded frames and 12-bit samples raise ValueError and fall
# back to the declared fake in ops/multimodal.py.

JPEG_MAGIC = b"\xff\xd8\xff"

_ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64)

# Annex K.1/K.2 reference quantization tables (raster order)
_JPEG_QT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int32)
_JPEG_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int32)


def _idct_basis() -> np.ndarray:
    """8x8 orthonormal DCT-III basis A with spatial = A @ coef @ A.T
    (and, A being orthogonal, coef = A.T @ spatial @ A)."""
    x, u = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    a = 0.5 * np.cos((2 * x + 1) * u * np.pi / 16.0)
    a[:, 0] *= 1.0 / np.sqrt(2.0)
    return a


_IDCT_A = _idct_basis()


class _HuffTable:
    """Canonical JPEG Huffman table (F.2.2.3 DECODE procedure)."""
    __slots__ = ("mincode", "maxcode", "valptr", "values")

    def __init__(self, bits, values):
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code = 0
        k = 0
        for ln in range(1, 17):
            cnt = bits[ln - 1]
            if cnt:
                self.valptr[ln] = k
                self.mincode[ln] = code
                code += cnt
                k += cnt
                self.maxcode[ln] = code - 1
            code <<= 1
        self.values = list(values)


class _BitReader:
    """MSB-first bit reader over unstuffed entropy bytes."""
    __slots__ = ("data", "pos", "acc", "n")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def _fill(self):
        if self.pos >= len(self.data):
            raise ValueError("truncated JPEG entropy data")
        self.acc = (self.acc << 8) | self.data[self.pos]
        self.pos += 1
        self.n += 8

    def bit(self) -> int:
        if self.n == 0:
            self._fill()
        self.n -= 1
        return (self.acc >> self.n) & 1

    def bits(self, k: int) -> int:
        while self.n < k:
            self._fill()
        self.n -= k
        v = (self.acc >> self.n) & ((1 << k) - 1)
        return v

    def huffdecode(self, t: _HuffTable) -> int:
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | self.bit()
            if code <= t.maxcode[ln]:
                return t.values[t.valptr[ln] + code - t.mincode[ln]]
        raise ValueError("invalid huffman code")

    def receive_extend(self, s: int) -> int:
        if s == 0:
            return 0
        v = self.bits(s)
        if v < (1 << (s - 1)):
            v -= (1 << s) - 1
        return v


def _split_entropy(data: bytes, pos: int):
    """Entropy-coded bytes from `pos`: unstuff FF00, split at restart
    markers; stops before the first real marker.  -> (segments, pos)."""
    segs = []
    cur = bytearray()
    n = len(data)
    i = pos
    while i < n:
        b = data[i]
        if b == 0xFF:
            nxt = data[i + 1] if i + 1 < n else 0xD9
            if nxt == 0x00:
                cur.append(0xFF)
                i += 2
                continue
            if 0xD0 <= nxt <= 0xD7:
                segs.append(bytes(cur))
                cur = bytearray()
                i += 2
                continue
            break
        cur.append(b)
        i += 1
    segs.append(bytes(cur))
    return segs, i


def decode_jpeg(data: bytes) -> np.ndarray:
    """-> uint8 (h, w, 3) RGB (JFIF YCbCr) or (h, w, 1) grayscale.
    Raises ValueError on any unsupported or malformed stream —
    structural damage (truncated SOF/SOS, undeclared scan components)
    included, so callers' single `except ValueError` fake-decode
    fallback always catches damaged inputs."""
    try:
        return _decode_jpeg(data)
    except (IndexError, KeyError, struct.error, OverflowError,
            MemoryError, ZeroDivisionError) as e:
        raise ValueError(f"malformed JPEG structure: {e!r}") from e


def _decode_block_baseline(r, coef, c, preds, dct, act):
    """Sequential DC+AC decode of one block into zigzag-order coef."""
    s = r.huffdecode(dct)
    preds[c["id"]] += r.receive_extend(s)
    coef[0] = preds[c["id"]]
    k = 1
    while k < 64:
        rs = r.huffdecode(act)
        run, size = rs >> 4, rs & 15
        if size == 0:
            if run == 15:
                k += 16
                continue
            break
        k += run
        if k > 63:
            raise ValueError("AC index overflow")
        coef[k] = r.receive_extend(size)
        k += 1


def _decode_block_ac_first(r, coef, act, Ss, Se, Al, eob):
    """Progressive AC first pass (Ah=0): EOB runs + coefficients<<Al."""
    if eob[0] > 0:
        eob[0] -= 1
        return
    k = Ss
    while k <= Se:
        rs = r.huffdecode(act)
        run, size = rs >> 4, rs & 15
        if size == 0:
            if run != 15:
                eob[0] = (1 << run) - 1
                if run:
                    eob[0] += r.bits(run)
                return
            k += 16
        else:
            k += run
            if k > Se:
                raise ValueError("AC index overflow")
            coef[k] = r.receive_extend(size) << Al
            k += 1


def _decode_block_ac_refine(r, coef, act, Ss, Se, Al, eob):
    """Progressive AC refinement (Ah=Al+1 -> Al): newly-significant
    coefficients as +-1<<Al plus correction bits on known-nonzero
    history coefficients (libjpeg decode_mcu_AC_refine semantics)."""
    p1 = 1 << Al
    m1 = -p1
    k = Ss
    if eob[0] == 0:
        while k <= Se:
            rs = r.huffdecode(act)
            run, size = rs >> 4, rs & 15
            if size == 0:
                if run != 15:
                    eob[0] = 1 << run
                    if run:
                        eob[0] += r.bits(run)
                    break
                val = 0
            else:
                if size != 1:
                    raise ValueError("bad AC refinement size")
                val = p1 if r.bit() else m1
            while k <= Se:
                cv = int(coef[k])
                if cv != 0:
                    if r.bit() and (cv & p1) == 0:
                        coef[k] = cv + (p1 if cv >= 0 else m1)
                else:
                    if run == 0:
                        break
                    run -= 1
                k += 1
            if val != 0:
                if k > Se:
                    raise ValueError("AC refinement overflow")
                coef[k] = val
            k += 1
    if eob[0] > 0:
        while k <= Se:
            cv = int(coef[k])
            if cv != 0:
                if r.bit() and (cv & p1) == 0:
                    coef[k] = cv + (p1 if cv >= 0 else m1)
            k += 1
        eob[0] -= 1


def _decode_scan(comps, byid, huff, segs, scomp, Ss, Se, Ah, Al,
                 progressive, ri, hmax, vmax, mcux, mcuy, width, height):
    """Decode one entropy-coded scan into the per-component coefficient
    arrays.  Interleaved (ns>1: MCU order) and non-interleaved (ns=1:
    the component's own ceil-block grid) orders both supported, for
    baseline AND progressive scans; restart segments reset DC
    predictors and the EOB run."""
    ns = len(scomp)
    order = []
    for cs, td, ta in scomp:
        if cs not in byid:
            raise ValueError("scan component not declared in SOF")
        c = byid[cs]
        c["td"], c["ta"] = td, ta
        order.append(c)
    if ns == 1:
        c0 = order[0]
        nbx = -(-(-(-width * c0["h"] // hmax)) // 8)
        nby = -(-(-(-height * c0["v"] // vmax)) // 8)
        total = nbx * nby
    else:
        nbx = nby = 0
        total = mcux * mcuy
    need_dc = (not progressive) or (Ss == 0 and Ah == 0)
    need_ac = (not progressive) or Ss > 0
    if progressive:
        if Ss == 0 and Se != 0:
            raise ValueError("progressive DC scan requires Se=0")
        if Se > 63 or Ss > Se:
            raise ValueError("bad spectral band")
        if Ah not in (0, Al + 1):
            raise ValueError("bad successive-approximation step")
        if Ss > 0 and ns != 1:
            raise ValueError("progressive AC scan must be non-interleaved")
    for c in order:
        if need_dc and huff.get((0, c["td"])) is None:
            raise ValueError("missing huffman table")
        if need_ac and huff.get((1, c["ta"])) is None:
            raise ValueError("missing huffman table")
    unit = 0
    for segdata in segs:
        if unit >= total:
            break
        r = _BitReader(segdata)
        preds = {c["id"]: 0 for c in comps}
        eob = [0]
        count = min(ri, total - unit) if ri else total - unit
        for _ in range(count):
            if ns == 1:
                by, bx = divmod(unit, nbx)
                blocks = [(order[0], by, bx)]
            else:
                my, mx = divmod(unit, mcux)
                blocks = [(c, my * c["v"] + vi, mx * c["h"] + hi)
                          for c in order
                          for vi in range(c["v"]) for hi in range(c["h"])]
            for c, by, bx in blocks:
                coef = c["coef"][by * c["bw"] + bx]
                if not progressive:
                    _decode_block_baseline(
                        r, coef, c, preds,
                        huff[(0, c["td"])], huff[(1, c["ta"])])
                elif Ss == 0:
                    if Ah == 0:
                        s = r.huffdecode(huff[(0, c["td"])])
                        preds[c["id"]] += r.receive_extend(s)
                        coef[0] = preds[c["id"]] << Al
                    elif r.bit():
                        coef[0] = int(coef[0]) | (1 << Al)
                else:
                    if Ah == 0:
                        _decode_block_ac_first(
                            r, coef, huff[(1, c["ta"])], Ss, Se, Al, eob)
                    else:
                        _decode_block_ac_refine(
                            r, coef, huff[(1, c["ta"])], Ss, Se, Al, eob)
            unit += 1
    if unit < total:
        raise ValueError("truncated scan")


def _decode_jpeg(data: bytes) -> np.ndarray:
    if not data.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG")
    qt = {}
    huff = {}
    comps = None
    width = height = None
    ri = 0
    progressive = False
    hmax = vmax = mcux = mcuy = 0
    saw_scan = False
    i = 2
    n = len(data)
    while i + 1 < n:
        if data[i] != 0xFF:
            raise ValueError("marker desync")
        m = data[i + 1]
        i += 2
        if m == 0xFF:
            i -= 1
            continue
        if m in (0xD8, 0x01) or 0xD0 <= m <= 0xD7:
            continue
        if m == 0xD9:
            break
        if i + 2 > n:
            raise ValueError("truncated segment header")
        seg_len = (data[i] << 8) | data[i + 1]
        seg = data[i + 2:i + seg_len]
        i += seg_len
        if m == 0xDB:
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 15
                j += 1
                if pq:
                    qt[tq] = np.frombuffer(
                        seg[j:j + 128], dtype=">u2").astype(np.int64)
                    j += 128
                else:
                    qt[tq] = np.frombuffer(
                        seg[j:j + 64], dtype=np.uint8).astype(np.int64)
                    j += 64
        elif m in (0xC0, 0xC1, 0xC2):
            progressive = (m == 0xC2)
            if seg[0] != 8:
                raise ValueError("unsupported sample precision")
            height = (seg[1] << 8) | seg[2]
            width = (seg[3] << 8) | seg[4]
            comps = []
            for c in range(seg[5]):
                hh, vv = seg[7 + 3 * c] >> 4, seg[7 + 3 * c] & 15
                if not (1 <= hh <= 4 and 1 <= vv <= 4):
                    raise ValueError("bad sampling factors")
                comps.append({"id": seg[6 + 3 * c], "h": hh, "v": vv,
                              "tq": seg[8 + 3 * c]})
            if width * height > (1 << 25):
                # a 200-byte header must not allocate GBs of
                # coefficient arrays (crafted-SOF OOM guard; 33 MP
                # covers effectively all real web images)
                raise ValueError("implausible JPEG dimensions")
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcux = -(-width // (8 * hmax))
            mcuy = -(-height // (8 * vmax))
            for c in comps:
                c["bw"] = mcux * c["h"]
                c["bh"] = mcuy * c["v"]
                # zigzag-order int64 coefficients, shared across scans
                # (progressive accumulates bit-planes into them; int64
                # so corrupt-stream DC accumulation can't overflow the
                # numpy store, which would raise OverflowError instead
                # of the totality-contracted ValueError)
                c["coef"] = np.zeros((c["bh"] * c["bw"], 64), np.int64)
        elif m in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCD, 0xCE, 0xCF):
            raise ValueError(
                "unsupported JPEG mode (not baseline/progressive)")
        elif m == 0xC4:
            j = 0
            while j < len(seg):
                tc, th = seg[j] >> 4, seg[j] & 15
                j += 1
                bits = list(seg[j:j + 16])
                j += 16
                cnt = sum(bits)
                huff[(tc, th)] = _HuffTable(bits, seg[j:j + cnt])
                j += cnt
        elif m == 0xDD:
            ri = (seg[0] << 8) | seg[1]
        elif m == 0xDA:
            if comps is None:
                raise ValueError("SOS before SOF")
            ns = seg[0]
            scomp = [(seg[1 + 2 * c], seg[2 + 2 * c] >> 4,
                      seg[2 + 2 * c] & 15) for c in range(ns)]
            Ss, Se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            Ah, Al = seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 15
            segs, i = _split_entropy(data, i)
            _decode_scan(comps, {c["id"]: c for c in comps}, huff, segs,
                         scomp, Ss, Se, Ah, Al, progressive, ri,
                         hmax, vmax, mcux, mcuy, width, height)
            saw_scan = True
    if comps is None or not saw_scan or width is None:
        raise ValueError("missing SOF/SOS")
    planes = []
    for c in comps:
        if c["tq"] not in qt:
            raise ValueError("missing quant table")
        deq = c["coef"] * qt[c["tq"]][None, :].astype(np.float64)
        raster = np.zeros_like(deq)
        raster[:, _ZIGZAG] = deq
        b8 = raster.reshape(-1, 8, 8)
        spatial = np.einsum("xu,nuv,yv->nxy", _IDCT_A, b8, _IDCT_A) \
            + 128.0
        plane = spatial.reshape(c["bh"], c["bw"], 8, 8) \
            .transpose(0, 2, 1, 3).reshape(c["bh"] * 8, c["bw"] * 8)
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1:
            plane = plane.repeat(ry, axis=0)
        if rx > 1:
            plane = plane.repeat(rx, axis=1)
        planes.append(plane[:height, :width])
    out = np.stack(planes, axis=2)
    if out.shape[2] == 3:
        y = out[:, :, 0]
        cb = out[:, :, 1] - 128.0
        cr = out[:, :, 2] - 128.0
        out = np.stack([y + 1.402 * cr,
                        y - 0.344136 * cb - 0.714136 * cr,
                        y + 1.772 * cb], axis=2)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


# fixture-side JPEG encoder: VALID baseline streams, not size-optimal
# (flat canonical Huffman tables: 12 DC symbols at 4 bits, the 162
# standard AC symbols at 8 bits — every code is well-formed and none
# is all-ones, so any conformant decoder accepts the output)
_ENC_DC_SYMBOLS = list(range(12))
_ENC_AC_SYMBOLS = [0x00, 0xF0] + [(r << 4) | s for r in range(16)
                                  for s in range(1, 11)]


def _enc_tables():
    dc_bits = [0, 0, 0, 12] + [0] * 12
    ac_bits = [0] * 7 + [162] + [0] * 8
    dc_codes = {sym: (i, 4) for i, sym in enumerate(_ENC_DC_SYMBOLS)}
    ac_codes = {sym: (i, 8) for i, sym in enumerate(_ENC_AC_SYMBOLS)}
    return dc_bits, ac_bits, dc_codes, ac_codes


class _BitWriter:
    __slots__ = ("out", "acc", "n")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, value: int, nbits: int):
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.n += nbits
        while self.n >= 8:
            self.n -= 8
            b = (self.acc >> self.n) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)

    def pad(self):
        if self.n:
            self.write((1 << (8 - self.n)) - 1, 8 - self.n)


def _enc_block(w: _BitWriter, zig: np.ndarray, pred: int,
               dc_codes, ac_codes) -> int:
    dc = int(zig[0])
    diff = dc - pred
    mag = abs(diff)
    s = mag.bit_length()
    code, ln = dc_codes[s]
    w.write(code, ln)
    if s:
        w.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
    last_nz = int(np.nonzero(zig[1:])[0][-1]) + 1 if np.any(zig[1:]) \
        else 0
    run = 0
    for k in range(1, last_nz + 1):
        v = int(zig[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]
            w.write(code, ln)
            run -= 16
        s = abs(v).bit_length()
        code, ln = ac_codes[(run << 4) | s]
        w.write(code, ln)
        w.write(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if last_nz < 63:
        code, ln = ac_codes[0x00]
        w.write(code, ln)
    return dc


def encode_jpeg(img: np.ndarray, *, subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """uint8 (h, w, 1|3) -> baseline JFIF bytes (Annex K quant tables;
    4:2:0 when `subsample` else 4:4:4; optional restart markers)."""
    h, w = img.shape[:2]
    nch = img.shape[2] if img.ndim == 3 else 1
    px = img.reshape(h, w, nch).astype(np.float64)
    if nch == 3:
        r, g, b = px[:, :, 0], px[:, :, 1], px[:, :, 2]
        planes = [0.299 * r + 0.587 * g + 0.114 * b,
                  -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
                  0.5 * r - 0.418688 * g - 0.081312 * b + 128.0]
        sampling = [(2, 2), (1, 1), (1, 1)] if subsample \
            else [(1, 1), (1, 1), (1, 1)]
        tqs = [0, 1, 1]
    elif nch == 1:
        planes = [px[:, :, 0]]
        sampling = [(1, 1)]
        tqs = [0]
    else:
        raise ValueError(f"unsupported channel count {nch}")
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    qts = {0: _JPEG_QT_LUM, 1: _JPEG_QT_CHROMA}
    dc_bits, ac_bits, dc_codes, ac_codes = _enc_tables()

    # per-component quantized zigzag blocks in MCU order
    comp_blocks = []
    for plane, (sh, sv), tq in zip(planes, sampling, tqs):
        if (sh, sv) != (hmax, vmax):
            # box-filter downsample by the sampling ratio
            fy, fx = vmax // sv, hmax // sh
            py, pxw = plane.shape
            ey = -(-py // fy) * fy
            ex = -(-pxw // fx) * fx
            pad = np.pad(plane, ((0, ey - py), (0, ex - pxw)),
                         mode="edge")
            plane = pad.reshape(ey // fy, fy, ex // fx, fx) \
                .mean(axis=(1, 3))
        bw, bh = mcux * sh, mcuy * sv
        py, pxw = plane.shape
        pad = np.pad(plane, ((0, bh * 8 - py), (0, bw * 8 - pxw)),
                     mode="edge")
        blocks = pad.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3) \
            .reshape(-1, 8, 8) - 128.0
        coef = np.einsum("ux,nxy,vy->nuv", _IDCT_A.T, blocks,
                         _IDCT_A.T)
        qz = np.round(coef.reshape(-1, 64)
                      / qts[tq][None, :].astype(np.float64))
        zig = qz[:, _ZIGZAG].astype(np.int64)
        comp_blocks.append((zig, bw, sh, sv))

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01" \
        + b"\x00" + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for tq in sorted(set(tqs)):
        zz = qts[tq][_ZIGZAG].astype(np.uint8).tobytes()
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + zz
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * len(planes), 8,
                                     h, w, len(planes))
    for ci, ((sh, sv), tq) in enumerate(zip(sampling, tqs)):
        out += bytes([ci + 1, (sh << 4) | sv, tq])
    for tc_th, bits, values in (
            ((0 << 4) | 0, dc_bits, _ENC_DC_SYMBOLS),
            ((1 << 4) | 0, ac_bits, _ENC_AC_SYMBOLS),
            ((0 << 4) | 1, dc_bits, _ENC_DC_SYMBOLS),
            ((1 << 4) | 1, ac_bits, _ENC_AC_SYMBOLS)):
        out += b"\xff\xc4" + struct.pack(">H", 19 + len(values)) \
            + bytes([tc_th]) + bytes(bits) + bytes(values)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * len(planes),
                                     len(planes))
    for ci in range(len(planes)):
        out += bytes([ci + 1, 0x00])
    out += b"\x00\x3f\x00"

    wtr = _BitWriter()
    preds = [0] * len(planes)
    rst = 0
    for mcu in range(mcux * mcuy):
        if restart_interval and mcu and mcu % restart_interval == 0:
            wtr.pad()
            out += bytes(wtr.out)
            wtr = _BitWriter()
            out += bytes([0xFF, 0xD0 + (rst % 8)])
            rst += 1
            preds = [0] * len(planes)
        my, mx = divmod(mcu, mcux)
        for ci, (zig, bw, sh, sv) in enumerate(comp_blocks):
            for vi in range(sv):
                for hi in range(sh):
                    by = my * sv + vi
                    bx = mx * sh + hi
                    preds[ci] = _enc_block(
                        wtr, zig[by * bw + bx], preds[ci],
                        dc_codes, ac_codes)
    wtr.pad()
    out += bytes(wtr.out)
    out += b"\xff\xd9"
    return bytes(out)


# fixture-side PROGRESSIVE encoder: same quantized coefficients as
# encode_jpeg (so baseline and progressive decodes of one image are
# pixel-identical), emitted as a multi-scan SOF2 stream.  The AC table
# adds the EOBn symbols (r<<4)|0 for r=0..14 so real EOB runs are
# exercised, not just EOB0.
_ENC_PROG_AC_SYMBOLS = [(r << 4) | 0 for r in range(15)] + [0xF0] + \
    [(r << 4) | s for r in range(16) for s in range(1, 11)]


def _enc_prog_tables():
    dc_bits = [0, 0, 0, 12] + [0] * 12
    ac_bits = [0] * 7 + [len(_ENC_PROG_AC_SYMBOLS)] + [0] * 8
    dc_codes = {sym: (i, 4) for i, sym in enumerate(_ENC_DC_SYMBOLS)}
    ac_codes = {sym: (i, 8)
                for i, sym in enumerate(_ENC_PROG_AC_SYMBOLS)}
    return dc_bits, ac_bits, dc_codes, ac_codes


def _prep_jpeg_blocks(img: np.ndarray, subsample: bool):
    """Shared encoder front half: color transform + subsample +
    quantized zigzag coefficient blocks in padded MCU-grid layout.
    -> (h, w, comp_blocks, sampling, tqs)."""
    h, w = img.shape[:2]
    nch = img.shape[2] if img.ndim == 3 else 1
    px = img.reshape(h, w, nch).astype(np.float64)
    if nch == 3:
        r, g, b = px[:, :, 0], px[:, :, 1], px[:, :, 2]
        planes = [0.299 * r + 0.587 * g + 0.114 * b,
                  -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
                  0.5 * r - 0.418688 * g - 0.081312 * b + 128.0]
        sampling = [(2, 2), (1, 1), (1, 1)] if subsample \
            else [(1, 1), (1, 1), (1, 1)]
        tqs = [0, 1, 1]
    elif nch == 1:
        planes = [px[:, :, 0]]
        sampling = [(1, 1)]
        tqs = [0]
    else:
        raise ValueError(f"unsupported channel count {nch}")
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    qts = {0: _JPEG_QT_LUM, 1: _JPEG_QT_CHROMA}
    comp_blocks = []
    for plane, (sh, sv), tq in zip(planes, sampling, tqs):
        if (sh, sv) != (hmax, vmax):
            fy, fx = vmax // sv, hmax // sh
            py, pxw = plane.shape
            ey = -(-py // fy) * fy
            ex = -(-pxw // fx) * fx
            pad = np.pad(plane, ((0, ey - py), (0, ex - pxw)),
                         mode="edge")
            plane = pad.reshape(ey // fy, fy, ex // fx, fx) \
                .mean(axis=(1, 3))
        bw, bh = mcux * sh, mcuy * sv
        py, pxw = plane.shape
        pad = np.pad(plane, ((0, bh * 8 - py), (0, bw * 8 - pxw)),
                     mode="edge")
        blocks = pad.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3) \
            .reshape(-1, 8, 8) - 128.0
        coef = np.einsum("ux,nxy,vy->nuv", _IDCT_A.T, blocks,
                         _IDCT_A.T)
        qz = np.round(coef.reshape(-1, 64)
                      / qts[tq][None, :].astype(np.float64))
        zig = qz[:, _ZIGZAG].astype(np.int64)
        comp_blocks.append((zig, bw, sh, sv))
    return h, w, comp_blocks, sampling, tqs


class _ProgScanWriter:
    """One progressive scan's entropy encoder (EOB-run + buffered
    correction-bit bookkeeping, libjpeg emit_* semantics)."""

    def __init__(self, ac_codes):
        self.w = _BitWriter()
        self.ac_codes = ac_codes
        self.eobrun = 0
        self.be = []   # correction bits attached to the pending EOBRUN
        self.br = []   # correction bits of the block being encoded

    def emit_eobrun(self):
        if self.eobrun > 0:
            nbits = self.eobrun.bit_length() - 1
            code, ln = self.ac_codes[nbits << 4]
            self.w.write(code, ln)
            if nbits:
                self.w.write(self.eobrun - (1 << nbits), nbits)
            self.eobrun = 0
        for b in self.be:
            self.w.write(b, 1)
        self.be = []

    def flush_br(self):
        for b in self.br:
            self.w.write(b, 1)
        self.br = []

    def ac_first_block(self, zig, Ss, Se, Al):
        r = 0
        for k in range(Ss, Se + 1):
            t = int(zig[k])
            v = (abs(t) >> Al) * (1 if t >= 0 else -1)
            if v == 0:
                r += 1
                continue
            self.emit_eobrun()
            while r > 15:
                code, ln = self.ac_codes[0xF0]
                self.w.write(code, ln)
                r -= 16
            s = abs(v).bit_length()
            code, ln = self.ac_codes[(r << 4) | s]
            self.w.write(code, ln)
            self.w.write(v if v >= 0 else v + (1 << s) - 1, s)
            r = 0
        if r > 0:
            self.eobrun += 1
            if self.eobrun == 0x7FFF:
                self.emit_eobrun()

    def ac_refine_block(self, zig, Ss, Se, Al):
        absv = [abs(int(zig[k])) >> Al for k in range(Ss, Se + 1)]
        eobpos = -1
        for rel, t in enumerate(absv):
            if t == 1:
                eobpos = rel
        r = 0
        for rel in range(len(absv)):
            t = absv[rel]
            if t == 0:
                r += 1
                continue
            while r > 15 and rel <= eobpos:
                self.emit_eobrun()
                code, ln = self.ac_codes[0xF0]
                self.w.write(code, ln)
                r -= 16
                self.flush_br()
            if t > 1:
                self.br.append(t & 1)
                continue
            self.emit_eobrun()
            code, ln = self.ac_codes[(r << 4) | 1]
            self.w.write(code, ln)
            self.w.write(1 if int(zig[Ss + rel]) >= 0 else 0, 1)
            self.flush_br()
            r = 0
        if r > 0 or self.br:
            self.eobrun += 1
            self.be.extend(self.br)
            self.br = []
            if self.eobrun == 0x7FFF:
                self.emit_eobrun()

    def finish(self) -> bytes:
        self.emit_eobrun()
        self.w.pad()
        return bytes(self.w.out)


def encode_jpeg_progressive(img: np.ndarray, *, subsample: bool = False,
                            successive: bool = False) -> bytes:
    """uint8 (h, w, 1|3) -> PROGRESSIVE (SOF2) JFIF bytes with the same
    quantized coefficients as encode_jpeg, so decode_jpeg output is
    pixel-identical between the two encodings of one image.

    successive=False: spectral-selection-only script (interleaved DC
    scan, then one full-band AC scan per component).  successive=True:
    adds successive approximation (DC first at Al=1 + DC refine; split
    AC bands 1-31/32-63 first at Al=1 + both refines) — exercises the
    decoder's EOB-run, newly-significant and correction-bit paths."""
    h, w, comp_blocks, sampling, tqs = _prep_jpeg_blocks(img, subsample)
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    qts = {0: _JPEG_QT_LUM, 1: _JPEG_QT_CHROMA}
    dc_bits, ac_bits, dc_codes, ac_codes = _enc_prog_tables()

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01" \
        + b"\x00" + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for tq in sorted(set(tqs)):
        zz = qts[tq][_ZIGZAG].astype(np.uint8).tobytes()
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + zz
    out += b"\xff\xc2" + struct.pack(">HBHHB", 8 + 3 * len(sampling), 8,
                                     h, w, len(sampling))
    for ci, ((sh, sv), tq) in enumerate(zip(sampling, tqs)):
        out += bytes([ci + 1, (sh << 4) | sv, tq])
    for tc_th, bits, values in (
            ((0 << 4) | 0, dc_bits, _ENC_DC_SYMBOLS),
            ((1 << 4) | 0, ac_bits, _ENC_PROG_AC_SYMBOLS),
            ((0 << 4) | 1, dc_bits, _ENC_DC_SYMBOLS),
            ((1 << 4) | 1, ac_bits, _ENC_PROG_AC_SYMBOLS)):
        out += b"\xff\xc4" + struct.pack(">H", 19 + len(values)) \
            + bytes([tc_th]) + bytes(bits) + bytes(values)

    def sos_header(comp_ids, Ss, Se, Ah, Al):
        hdr = bytearray(b"\xff\xda")
        hdr += struct.pack(">HB", 6 + 2 * len(comp_ids), len(comp_ids))
        for ci in comp_ids:
            td = ta = 0 if ci == 0 else 1
            hdr += bytes([ci + 1, (td << 4) | ta])
        hdr += bytes([Ss, Se, (Ah << 4) | Al])
        return bytes(hdr)

    def dc_scan(Ah, Al):
        scan = _ProgScanWriter(ac_codes)
        wtr = scan.w
        preds = [0] * len(comp_blocks)
        for mcu in range(mcux * mcuy):
            my, mx = divmod(mcu, mcux)
            for ci, (zig, bw, sh, sv) in enumerate(comp_blocks):
                for vi in range(sv):
                    for hi in range(sh):
                        dc = int(zig[(my * sv + vi) * bw
                                     + mx * sh + hi][0])
                        if Ah == 0:
                            diff = (dc >> Al) - preds[ci]
                            preds[ci] = dc >> Al
                            mag = abs(diff)
                            s = mag.bit_length()
                            code, ln = dc_codes[s]
                            wtr.write(code, ln)
                            if s:
                                wtr.write(diff if diff >= 0
                                          else diff + (1 << s) - 1, s)
                        else:
                            wtr.write((dc >> Al) & 1, 1)
        return scan.finish()

    def ac_scan(ci, Ss, Se, Ah, Al):
        zig, bw, sh, sv = comp_blocks[ci]
        nbx = -(-(-(-w * sh // hmax)) // 8)
        nby = -(-(-(-h * sv // vmax)) // 8)
        scan = _ProgScanWriter(ac_codes)
        for bi in range(nbx * nby):
            by, bx = divmod(bi, nbx)
            blk = zig[by * bw + bx]
            if Ah == 0:
                scan.ac_first_block(blk, Ss, Se, Al)
            else:
                scan.ac_refine_block(blk, Ss, Se, Al)
        return scan.finish()

    all_ids = list(range(len(comp_blocks)))
    if not successive:
        out += sos_header(all_ids, 0, 0, 0, 0) + dc_scan(0, 0)
        for ci in all_ids:
            out += sos_header([ci], 1, 63, 0, 0) + ac_scan(ci, 1, 63, 0, 0)
    else:
        out += sos_header(all_ids, 0, 0, 0, 1) + dc_scan(0, 1)
        for ci in all_ids:
            out += sos_header([ci], 1, 31, 0, 1) + ac_scan(ci, 1, 31, 0, 1)
            out += sos_header([ci], 32, 63, 0, 1) \
                + ac_scan(ci, 32, 63, 0, 1)
        out += sos_header(all_ids, 0, 0, 1, 0) + dc_scan(1, 0)
        for ci in all_ids:
            out += sos_header([ci], 1, 31, 1, 0) + ac_scan(ci, 1, 31, 1, 0)
            out += sos_header([ci], 32, 63, 1, 0) \
                + ac_scan(ci, 32, 63, 1, 0)
    out += b"\xff\xd9"
    return bytes(out)


# -- AVI / MJPEG (RIFF container; frames are baseline JPEGs) -----------------
#
# Motion-JPEG in AVI is the one video format the pure-python stack can
# decode END TO END (container = RIFF chunk walk, frames = decode_jpeg),
# so video frame sampling gets a real path; other containers (MP4...)
# still fall back to the declared fake in ops/multimodal.py.


def parse_avi_mjpeg(data: bytes):
    """-> list of JPEG frame payloads from an AVI 'movi' list ('00dc'/
    '00db' chunks).  Raises ValueError on non-AVI/damaged input
    (struct damage included)."""
    try:
        return _parse_avi_mjpeg(data)
    except (IndexError, KeyError, struct.error, OverflowError,
            MemoryError, RecursionError) as e:
        raise ValueError(f"malformed AVI structure: {e!r}") from e


def _parse_avi_mjpeg(data: bytes):
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise ValueError("not an AVI")
    frames = []

    def walk(pos: int, end: int):
        while pos + 8 <= end:
            cid = data[pos:pos + 4]
            (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
            body_start = pos + 8
            body_end = min(body_start + size, len(data))
            if cid == b"LIST":
                walk(body_start + 4, body_end)
            elif cid[2:4] in (b"dc", b"db"):
                frames.append(data[body_start:body_end])
            pos = body_start + size + (size & 1)

    walk(12, len(data))
    if not frames:
        raise ValueError("no MJPEG frames")
    return frames


def encode_avi_mjpeg(frames, fps: int = 10) -> bytes:
    """list of uint8 (h, w, 3) arrays -> minimal MJPEG AVI bytes
    (fixture-side; hdrl with avih/strh/strf + movi list)."""
    jpegs = [encode_jpeg(f) for f in frames]
    h, w = frames[0].shape[:2]

    def chunk(cid: bytes, body: bytes) -> bytes:
        return cid + struct.pack("<I", len(body)) + body \
            + (b"\x00" if len(body) & 1 else b"")

    def lst(kind: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", kind + body)

    avih = struct.pack("<14I", 1_000_000 // fps, 0, 0, 0x10,
                       len(jpegs), 0, 1, 0, w, h, 0, 0, 0, 0)
    strh = (b"vids" + b"MJPG" + struct.pack("<IHHIIIIIIIII", 0, 0, 0,
                                            0, 1, fps, 0, len(jpegs),
                                            0, 0, 0, 0))
    strf = struct.pack("<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG",
                       w * h * 3, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh)
                     + chunk(b"strf", strf)))
    movi = lst(b"movi", b"".join(chunk(b"00dc", j) for j in jpegs))
    body = b"AVI " + hdrl + movi
    return b"RIFF" + struct.pack("<I", len(body)) + body

# -- MP4 / ISO BMFF (container walk ONLY: box tree + stbl sample tables
#    -> REAL per-frame byte ranges and sync flags; H.264 pixel decode is
#    out of scope for the pure-python stack, so frame sigs hash the
#    actual coded sample payloads, not pixels) -------------------------------


def _mp4_boxes(data: bytes, pos: int, end: int):
    """Iterate (fourcc, body_start, box_end) over ISO-BMFF boxes in
    [pos, end).  Raises ValueError on malformed sizes (never loops:
    size >= 8 guarantees progress)."""
    while pos + 8 <= end:
        (size,) = struct.unpack(">I", data[pos:pos + 4])
        fourcc = data[pos + 4:pos + 8]
        body = pos + 8
        if size == 1:
            if pos + 16 > end:
                raise ValueError("truncated largesize box")
            (size,) = struct.unpack(">Q", data[pos + 8:pos + 16])
            body = pos + 16
        elif size == 0:  # box extends to end of enclosing container
            size = end - pos
        if size < body - pos or pos + size > end:
            raise ValueError("bad box size")
        yield fourcc, body, pos + size
        pos += size


def _mp4_child(data: bytes, pos: int, end: int, fourcc: bytes):
    for fc, body, bend in _mp4_boxes(data, pos, end):
        if fc == fourcc:
            return body, bend
    return None


def _u32s(data: bytes, pos: int, count: int) -> np.ndarray:
    buf = data[pos:pos + 4 * count]
    if len(buf) < 4 * count:
        raise ValueError("truncated table")
    return np.frombuffer(buf, dtype=">u4").astype(np.int64)


def parse_mp4_samples(data: bytes) -> dict:
    """REAL ISO-BMFF container walk for the first VIDEO track:
    ftyp/moov/trak/mdia/minf/stbl with stsd (codec fourcc), stsz
    (sample sizes), stsc (sample-to-chunk runs), stco/co64 (chunk
    offsets) and stss (sync samples; absent = all sync) resolved into
    absolute per-sample byte ranges.

    -> {"codec": str, "timescale": int, "duration": int,
        "samples": [(offset, size, is_sync), ...]}
    Raises ValueError on non-MP4 or damaged boxes/tables (samples must
    lie inside the file)."""
    if sniff_media(data) != "mp4":
        raise ValueError("not an MP4")
    try:
        return _parse_mp4_samples(data)
    except (IndexError, KeyError, struct.error) as e:
        raise ValueError(f"malformed MP4 structure: {e!r}") from e


def _parse_mp4_samples(data: bytes) -> dict:
    moov = _mp4_child(data, 0, len(data), b"moov")
    if moov is None:
        raise ValueError("no moov box")
    for fc, tbody, tend in _mp4_boxes(data, moov[0], moov[1]):
        if fc != b"trak":
            continue
        mdia = _mp4_child(data, tbody, tend, b"mdia")
        if mdia is None:
            continue
        hdlr = _mp4_child(data, mdia[0], mdia[1], b"hdlr")
        if hdlr is None or data[hdlr[0] + 8:hdlr[0] + 12] != b"vide":
            continue
        mdhd = _mp4_child(data, mdia[0], mdia[1], b"mdhd")
        if mdhd is None:
            raise ValueError("video trak without mdhd")
        ver = data[mdhd[0]]
        if ver == 1:
            timescale = int(_u32s(data, mdhd[0] + 20, 1)[0])
            (duration,) = struct.unpack(
                ">Q", data[mdhd[0] + 24:mdhd[0] + 32])
        else:
            timescale = int(_u32s(data, mdhd[0] + 12, 1)[0])
            duration = int(_u32s(data, mdhd[0] + 16, 1)[0])
        minf = _mp4_child(data, mdia[0], mdia[1], b"minf")
        if minf is None:
            raise ValueError("video trak without minf")
        stbl = _mp4_child(data, minf[0], minf[1], b"stbl")
        if stbl is None:
            raise ValueError("video trak without stbl")
        boxes = {fc: (b, e)
                 for fc, b, e in _mp4_boxes(data, stbl[0], stbl[1])}
        if b"stsd" not in boxes:
            raise ValueError("missing stsd")
        sb = boxes[b"stsd"][0]
        codec = data[sb + 12:sb + 16].decode("latin-1") \
            if int(_u32s(data, sb + 4, 1)[0]) >= 1 else ""
        if b"stsz" not in boxes:
            raise ValueError("missing stsz")
        sb = boxes[b"stsz"][0]
        uniform = int(_u32s(data, sb + 4, 1)[0])
        n_samples = int(_u32s(data, sb + 8, 1)[0])
        if n_samples > len(data):  # a table bigger than the file is lies
            raise ValueError("implausible sample count")
        sizes = np.full(n_samples, uniform, np.int64) if uniform \
            else _u32s(data, sb + 12, n_samples)
        co = boxes.get(b"stco")
        if co is not None:
            n_chunks = int(_u32s(data, co[0] + 4, 1)[0])
            offsets = _u32s(data, co[0] + 8, n_chunks)
        else:
            co = boxes.get(b"co64")
            if co is None:
                raise ValueError("missing stco/co64")
            n_chunks = int(_u32s(data, co[0] + 4, 1)[0])
            buf = data[co[0] + 8:co[0] + 8 + 8 * n_chunks]
            if len(buf) < 8 * n_chunks:
                raise ValueError("truncated co64")
            offsets = np.frombuffer(buf, dtype=">u8").astype(np.int64)
        if b"stsc" not in boxes:
            raise ValueError("missing stsc")
        sb = boxes[b"stsc"][0]
        n_runs = int(_u32s(data, sb + 4, 1)[0])
        runs = _u32s(data, sb + 8, 3 * n_runs).reshape(n_runs, 3)
        # expand stsc runs -> samples-per-chunk for every chunk
        spc = np.zeros(n_chunks, np.int64)
        for ri in range(n_runs):
            first = int(runs[ri, 0]) - 1
            last = int(runs[ri + 1, 0]) - 1 if ri + 1 < n_runs \
                else n_chunks
            if not (0 <= first <= last <= n_chunks):
                raise ValueError("bad stsc run")
            spc[first:last] = runs[ri, 1]
        if spc.sum() < n_samples:
            raise ValueError("stsc covers fewer samples than stsz")
        sync = np.zeros(n_samples, bool)
        if b"stss" in boxes:
            sb = boxes[b"stss"][0]
            n_sync = int(_u32s(data, sb + 4, 1)[0])
            nums = _u32s(data, sb + 8, n_sync) - 1  # 1-based
            if ((nums < 0) | (nums >= n_samples)).any():
                raise ValueError("stss sample number out of range")
            sync[nums] = True
        else:
            sync[:] = True
        samples = []
        si = 0
        for ci in range(n_chunks):
            pos = int(offsets[ci])
            for _ in range(int(spc[ci])):
                if si >= n_samples:
                    break
                size = int(sizes[si])
                if pos < 0 or pos + size > len(data):
                    raise ValueError("sample outside file")
                samples.append((pos, size, bool(sync[si])))
                pos += size
                si += 1
        if si < n_samples:
            raise ValueError("chunks cover fewer samples than stsz")
        return {"codec": codec, "timescale": timescale,
                "duration": duration, "samples": samples}
    raise ValueError("no video track")


def build_mp4(frames, *, fps: int = 30, sync_every: int = 10,
              samples_per_chunk: int = 5, codec: bytes = b"avc1") -> bytes:
    """Fixture-side minimal MP4: ftyp + mdat holding the given coded
    sample payloads (opaque bytes — stand-ins for H.264 AUs) + a moov
    whose stbl tables (stsd/stts/stsc/stsz/stco/stss) describe them.
    Every `sync_every`-th sample is marked sync in stss."""
    def box(fc: bytes, body: bytes) -> bytes:
        return struct.pack(">I", 8 + len(body)) + fc + body

    def full(fc: bytes, body: bytes, version: int = 0) -> bytes:
        return box(fc, struct.pack(">I", version << 24) + body)

    n = len(frames)
    if n == 0:
        raise ValueError("no samples")
    ftyp = box(b"ftyp", b"isom" + struct.pack(">I", 512)
               + b"isomiso2avc1mp41")
    mdat_payload = b"".join(frames)
    mdat_body_off = len(ftyp) + 8
    # chunk layout: groups of samples_per_chunk
    chunk_offs, chunk_first = [], []
    pos = mdat_body_off
    for si, f in enumerate(frames):
        if si % samples_per_chunk == 0:
            chunk_offs.append(pos)
            chunk_first.append(si)
        pos += len(f)
    timescale = 600
    delta = timescale // fps
    duration = n * delta

    stsd_entry = (struct.pack(">I", 86 + 8) + codec + b"\x00" * 6
                  + struct.pack(">H", 1) + b"\x00" * 16
                  + struct.pack(">HH", 64, 48)
                  + struct.pack(">II", 0x00480000, 0x00480000)
                  + struct.pack(">I", 0) + struct.pack(">H", 1)
                  + b"\x00" * 32 + struct.pack(">Hh", 24, -1))
    stsd = full(b"stsd", struct.pack(">I", 1) + stsd_entry)
    stts = full(b"stts", struct.pack(">III", 1, n, delta))
    last_run = n - chunk_first[-1]
    runs = []
    if len(chunk_offs) > 1:
        runs.append((1, samples_per_chunk))
    if last_run != samples_per_chunk or len(chunk_offs) == 1:
        runs.append((len(chunk_offs), last_run))
    stsc = full(b"stsc", struct.pack(">I", len(runs)) + b"".join(
        struct.pack(">III", first, cnt, 1) for first, cnt in runs))
    stsz = full(b"stsz", struct.pack(">II", 0, n) + b"".join(
        struct.pack(">I", len(f)) for f in frames))
    stco = full(b"stco", struct.pack(">I", len(chunk_offs)) + b"".join(
        struct.pack(">I", o) for o in chunk_offs))
    syncs = list(range(1, n + 1, sync_every))
    stss = full(b"stss", struct.pack(">I", len(syncs)) + b"".join(
        struct.pack(">I", s) for s in syncs))
    stbl = box(b"stbl", stsd + stts + stsc + stsz + stco + stss)
    vmhd = box(b"vmhd", struct.pack(">I", 1) + b"\x00" * 8)
    dinf = box(b"dinf", full(b"dref", struct.pack(">I", 1)
                             + struct.pack(">I", 12) + b"url "
                             + struct.pack(">I", 1)))
    minf = box(b"minf", vmhd + dinf + stbl)
    hdlr = full(b"hdlr", struct.pack(">I", 0) + b"vide"
                + b"\x00" * 12 + b"VideoHandler\x00")
    mdhd = full(b"mdhd", struct.pack(">IIIIHH", 0, 0, timescale,
                                     duration, 0x55C4, 0))
    mdia = box(b"mdia", mdhd + hdlr + minf)
    tkhd = full(b"tkhd", struct.pack(">IIIII", 0, 0, 1, 0, duration)
                + b"\x00" * 8 + struct.pack(">hhhh", 0, 0, 0, 0)
                + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0,
                              0, 0, 0x40000000)
                + struct.pack(">II", 64 << 16, 48 << 16), 0)
    trak = box(b"trak", tkhd + mdia)
    mvhd = full(b"mvhd", struct.pack(">IIII", 0, 0, timescale, duration)
                + struct.pack(">IHH", 0x00010000, 0x0100, 0)
                + b"\x00" * 8
                + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0,
                              0, 0, 0x40000000)
                + b"\x00" * 24 + struct.pack(">I", 2))
    moov = box(b"moov", mvhd + trak)
    return ftyp + box(b"mdat", mdat_payload) + moov
