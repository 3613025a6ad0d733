"""Font objects: PdfSimpleFont / PdfType3Font / PdfCIDFont.

Faithful re-derivation of the reference's font layer
(/root/reference/src/lib.rs:302-1097), including its observable quirks:

- width fallback: simple -> MissingWidth (default 0), Type3 -> error,
  CID -> DW (default 1000)                    (src/lib.rs:806-817,860-867,1041-1049)
- the CID `W` range form reads w[i] three times, so range entries insert
  nothing and consume 3 tokens               (src/lib.rs:1026-1032)
- non-core fonts without Widths end up with an EMPTY width map (the
  Helvetica "substitution" compares against base_name, src/lib.rs:586-608)
- CID decode_char: unknown glyph -> empty string (src/lib.rs:1081-1089)
- word spacing applies only to single-byte code 32 (`PdfFont.glyphs`)
- ToUnicode lone-surrogate single-unit entries are skipped
  (src/lib.rs:942-948)
"""
from __future__ import annotations

import logging
import struct
from codecs import charmap_decode
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..tables.core_fonts import CORE_FONT_METRICS
from ..tables.encodings import (MAC_EXPERT_ENCODING, MAC_ROMAN_ENCODING,
                                WIN_ANSI_ENCODING)
from ..tables.glyphnames import GLYPH_NAME_TO_UNICODE
from ..tables.pdfdoc import PDFDOC_ENCODING
from ..tables.zapf import ZAPF_NAME_TO_UNICODE
from .cmap import ByteMapping, CIDRange, CodeRange, get_byte_mapping, get_unicode_map_raw
from .objects import (Name, PdfError, PdfString, Stream, get_int, get_num,
                      get_name_string, get_num_array, maybe_deref,
                      maybe_get_array, maybe_get_name, maybe_get_obj,
                      pdf_to_utf8, to_utf8)
from .type1 import parse_type1_encoding

log = logging.getLogger(__name__)

# (width / 1000, decoded char, is_word_space): one shown glyph
Glyph = Tuple[float, str, bool]

# a code charmap_decode treats as undefined (U+FFFE is a noncharacter)
_UNDEFINED = "\ufffe"


class AdvanceTable(list):
    """One text state's advances `h * (w0 * font_size + spacing)` by
    1-byte code (`_Simple256Font.advance_table`): 256 floats, of which
    the codes of the font's glyph table are filled, in the order they
    were added to it, up to `filled` of them."""

    __slots__ = ("filled",)


_NO_ADVANCES = [0.0] * 256


# key of a per-font advance table: the bits of (horizontal scaling, font
# size, char spacing, word-space spacing), so -0.0 and 0.0 never share one
_advance_key = struct.Struct("4d").pack
# distinct text states a font keeps advance tables for before starting over
_MAX_ADVANCE_TABLES = 64

_BASE_ENCODINGS = {
    b"MacRomanEncoding": MAC_ROMAN_ENCODING,
    b"MacExpertEncoding": MAC_EXPERT_ENCODING,
    b"WinAnsiEncoding": WIN_ANSI_ENCODING,
}

_ENC_TABLE_CACHE: Dict[bytes, tuple] = {}


def encoding_to_unicode_table(name: bytes) -> List[int]:
    """256-entry glyph-name encoding -> unicode table (src/lib.rs:354-365).
    Unknown encoding names raise, like the reference's panic."""
    cached = _ENC_TABLE_CACHE.get(name)
    if cached is None:
        enc = _BASE_ENCODINGS.get(bytes(name))
        if enc is None:
            raise PdfError(f"unexpected encoding {pdf_to_utf8(name)!r}")
        cached = tuple(GLYPH_NAME_TO_UNICODE[g] if g is not None else 0 for g in enc)
        _ENC_TABLE_CACHE[name] = cached
    return list(cached)


# Cross-document warm caches keyed by content hash (SURVEY.md §2.3 F2):
# identical ToUnicode CMaps / CID encoding streams recur across a corpus
# (same producer, same font subsetter), so parse each distinct stream once
# per worker process.  Bounded LRU.
_UNICODE_MAP_CACHE: "OrderedDict[bytes, Dict[int, str]]" = __import__(
    "collections").OrderedDict()
_BYTE_MAPPING_CACHE: "OrderedDict[bytes, ByteMapping]" = __import__(
    "collections").OrderedDict()
_CORE_WIDTHS_CACHE: "OrderedDict[tuple, tuple]" = __import__(
    "collections").OrderedDict()
_CACHE_MAX = 256


def _cache_get(cache, key):
    v = cache.get(key)
    if v is not None:
        cache.move_to_end(key)
    return v


def _cache_put(cache, key, value):
    cache[key] = value
    if len(cache) > _CACHE_MAX:
        cache.popitem(last=False)


def _parse_unicode_map_contents(contents: bytes) -> Dict[int, str]:
    raw = get_unicode_map_raw(contents)
    unicode: Dict[int, str] = {}
    for k, v in raw.items():
        if len(v) % 2 != 0:
            raise PdfError("odd-length bfchar destination")
        if len(v) == 2:
            unit = (v[0] << 8) | v[1]
            if 0xD800 <= unit <= 0xDFFF:
                # single lone-surrogate unit: skipped (src/lib.rs:942-948)
                continue
        unicode[k] = v.decode("utf-16-be")  # strict; invalid raises
    return unicode


def get_unicode_map(doc, font: dict) -> Optional[Dict[int, str]]:
    """ToUnicode CMap stream -> {code: unicode str} (src/lib.rs:920-968)."""
    import hashlib
    to_unicode = maybe_get_obj(doc, font, b"ToUnicode")
    if to_unicode is None:
        return None
    if isinstance(to_unicode, Name):
        if pdf_to_utf8(bytes(to_unicode)) != "Identity-H":
            raise PdfError(f"unsupported ToUnicode name {to_unicode!r}")
        return None
    if not isinstance(to_unicode, Stream):
        raise PdfError(f"unsupported cmap {to_unicode!r}")
    contents = _get_contents(to_unicode, doc)
    key = hashlib.blake2b(contents, digest_size=16).digest()
    cached = _cache_get(_UNICODE_MAP_CACHE, key)
    if cached is None:
        cached = _parse_unicode_map_contents(contents)
        _cache_put(_UNICODE_MAP_CACHE, key, cached)
    # copy: callers (Differences merging) mutate the map
    return dict(cached)


def get_byte_mapping_cached(contents: bytes) -> ByteMapping:
    import hashlib
    key = hashlib.blake2b(contents, digest_size=16).digest()
    cached = _cache_get(_BYTE_MAPPING_CACHE, key)
    if cached is None:
        cached = get_byte_mapping(contents)
        _cache_put(_BYTE_MAPPING_CACHE, key, cached)
    return cached


def _get_contents(stm: Stream, doc) -> bytes:
    from .document import _contents_bytes
    return _contents_bytes(stm, doc)


class PdfFont:
    """Abstract font (src/lib.rs:782-803)."""

    # 1-byte fonts: code -> Glyph of every code shown so far, in the
    # order shown (`run_text` and `glyphs` fill it); None for CID fonts
    glyph_table: Optional[Dict[int, Glyph]] = None

    def get_width(self, code: int) -> float:
        raise NotImplementedError

    def next_char(self, data: bytes, pos: int) -> Optional[Tuple[int, int, int]]:
        """-> (code, byte_length, new_pos) or None."""
        raise NotImplementedError

    def decode_char(self, code: int) -> str:
        raise NotImplementedError

    def char_codes(self, data: bytes) -> Iterator[Tuple[int, int]]:
        pos = 0
        n = len(data)
        while pos < n:
            nxt = self.next_char(data, pos)
            if nxt is None:
                return
            code, length, pos = nxt
            yield code, length

    def glyphs(self, data: bytes) -> List[Glyph]:
        """-> one `(width / 1000, char, is_word_space)` per glyph of a text
        string.  The width is looked up before the char, glyph by glyph in
        string order, so the first failing glyph names the error.  Word
        spacing applies only to single-byte code 32 (src/lib.rs:1307-1312).
        """
        get_width = self.get_width
        decode_char = self.decode_char
        return [(get_width(code) / 1000.0, decode_char(code),
                 code == 32 and length == 1)
                for code, length in self.char_codes(data)]

    def run_text(self, data: bytes) -> Optional[str]:
        """-> the text of a non-empty string in one decode call when each
        of its glyphs decodes to one char; else None, and `glyphs(data)`
        gives them (always None for a font without 1-byte codes)."""
        return None


class _Simple256Font(PdfFont):
    """Shared decode for 1-byte-code fonts (Simple + Type3)."""

    encoding: Optional[List[int]]
    unicode_map: Optional[Dict[int, str]]
    widths: Dict[int, float]
    # the glyph table's chars by code: _UNDEFINED for codes not in it
    # and for codes that decode to no char or to several
    _chars: List[str]
    # "".join(_chars), the table `run_text` decodes with
    _charmap: str = _UNDEFINED * 256
    # advance key -> AdvanceTable
    _advance_tables: Optional[Dict[bytes, AdvanceTable]] = None

    def next_char(self, data, pos):
        return (data[pos], 1, pos + 1)

    def decode_char(self, code: int) -> str:
        # (src/lib.rs:826-848): unicode-map hit, else encoding (required if
        # a unicode map exists), else encoding-or-PDFDocEncoding.  The
        # single-byte to_utf8 is inlined as chr(table[code]) (a one-byte
        # input can never carry the len>2 UTF-16BE BOM branch).
        um = self.unicode_map
        if um is not None:
            s = um.get(code)
            if s is None:
                if self.encoding is None:
                    raise PdfError("missing unicode map and encoding")
                s = chr(self.encoding[code & 0xFF])
            return s
        enc = self.encoding if self.encoding is not None else PDFDOC_ENCODING
        return chr(enc[code & 0xFF])

    def _add_codes(self, data: bytes) -> None:
        """Add `data`'s codes the glyph table does not have yet, in string
        order, each width first and then char, so the first failing glyph
        names the error (filling codes a document never shows would raise
        errors it never hits, e.g. a Type3 code outside
        FirstChar..LastChar); the charmap is rebuilt if a code that
        decodes to one char joined."""
        table = self.glyph_table
        if table is None:
            table = self.glyph_table = {}
            self._chars = [_UNDEFINED] * 256
        chars = self._chars
        joined = False
        for code in data:
            if code not in table:
                glyph = table[code] = (self.get_width(code) / 1000.0,
                                       self.decode_char(code), code == 32)
                if len(glyph[1]) == 1:
                    chars[code] = glyph[1]
                    joined = True
        if joined:
            self._charmap = "".join(chars)

    def glyphs(self, data: bytes) -> List[Glyph]:
        self._add_codes(data)
        return list(map(self.glyph_table.__getitem__, data))

    def run_text(self, data):
        # one C call decodes the string; on a code the charmap does not
        # have, add the string's new codes and, if one of them joined
        # the charmap, decode once more
        charmap = self._charmap
        try:
            return charmap_decode(data, "strict", charmap)[0]
        except UnicodeDecodeError:
            self._add_codes(data)
        if self._charmap is not charmap:
            try:
                return charmap_decode(data, "strict", self._charmap)[0]
            except UnicodeDecodeError:
                pass
        return None

    def advance_table(self, h, font_size, char_spacing,
                      space_spacing) -> AdvanceTable:
        """-> the advances by code of this text state, filled for every
        code of the glyph table, with the same float ops as `show_text`
        uses for a font without one (one table per text state, shared by
        the pages and text objects of the document that use it)."""
        key = _advance_key(h, font_size, char_spacing, space_spacing)
        tables = self._advance_tables
        if tables is None:
            tables = self._advance_tables = {}
        table = tables.get(key)
        if table is None:
            if len(tables) >= _MAX_ADVANCE_TABLES:
                tables.clear()
            table = tables[key] = AdvanceTable(_NO_ADVANCES)
            table.filled = 0
        glyph_table = self.glyph_table
        if table.filled < len(glyph_table):
            # the glyph table only grows, in insertion order
            for code, (w0, _char, word_space) in islice(
                    glyph_table.items(), table.filled, None):
                table[code] = h * (w0 * font_size + (
                    space_spacing if word_space else char_spacing))
            table.filled = len(glyph_table)
        return table


class PdfSimpleFont(_Simple256Font):
    """Type1/TrueType/other 1-byte fonts (src/lib.rs:373-659)."""

    def __init__(self, doc, font: dict):
        base_name = get_name_string(doc, font, b"BaseFont")
        subtype = get_name_string(doc, font, b"Subtype")
        encoding_obj = maybe_get_obj(doc, font, b"Encoding")
        descriptor = maybe_get_obj(doc, font, b"FontDescriptor")
        if not isinstance(descriptor, dict):
            descriptor = None

        type1_encoding = None
        unicode_map: Optional[Dict[int, str]] = None
        if descriptor is not None:
            if subtype == "Type1":
                file = maybe_get_obj(doc, descriptor, b"FontFile")
                if isinstance(file, Stream):
                    s = _get_contents(file, doc)
                    type1_encoding = parse_type1_encoding(s)  # raises on parse error
            font_file3 = maybe_get_obj(doc, descriptor, b"FontFile3")
            if isinstance(font_file3, Stream):
                ff3_subtype = get_name_string(doc, font_file3.dict, b"Subtype")
                if ff3_subtype == "Type1C":
                    # embedded CFF charset/encoding -> unicode map
                    # (src/lib.rs:406-442): skip .notdef, glyph-name ->
                    # unicode with Zapf fallback, warn+skip unknown names
                    from .cff import cff_code_to_names
                    code_names = cff_code_to_names(_get_contents(font_file3, doc))
                    mapping: Dict[int, str] = {}
                    for code, nm in code_names.items():
                        if nm == ".notdef":
                            continue
                        u = GLYPH_NAME_TO_UNICODE.get(nm)
                        if u is None:
                            u = ZAPF_NAME_TO_UNICODE.get(nm)
                        if u is None:
                            log.warning("Couldn't find unicode for %s", nm)
                            continue
                        mapping[code] = chr(u)
                    unicode_map = mapping

        tounicode = get_unicode_map(doc, font)
        if unicode_map is not None:
            if tounicode:
                unicode_map.update(tounicode)
        else:
            unicode_map = tounicode

        encoding_table: Optional[List[int]] = None
        if isinstance(encoding_obj, Name):
            encoding_table = encoding_to_unicode_table(bytes(encoding_obj))
        elif isinstance(encoding_obj, dict):
            base_encoding = maybe_get_name(doc, encoding_obj, b"BaseEncoding")
            if base_encoding is not None:
                table = encoding_to_unicode_table(base_encoding)
            else:
                table = list(PDFDOC_ENCODING)
            differences = maybe_get_array(doc, encoding_obj, b"Differences")
            if differences is not None:
                code = 0
                for o in differences:
                    o = maybe_deref(doc, o)
                    if isinstance(o, bool):
                        raise PdfError(f"wrong type in Differences: {o!r}")
                    if isinstance(o, int):
                        code = o
                    elif isinstance(o, Name):
                        name = pdf_to_utf8(bytes(o))
                        unicode = GLYPH_NAME_TO_UNICODE.get(name)
                        if unicode is not None:
                            table[code] = unicode
                            if unicode_map is not None:
                                existing = unicode_map.get(code)
                                if existing is None:
                                    unicode_map[code] = chr(unicode)
                                # mismatch -> warn only (src/lib.rs:497-503)
                        else:
                            if unicode_map is not None and "FontAwesome" in base_name:
                                # glyph names with no codepoint -> "" (issue
                                # #76, src/lib.rs:508-518); occupied -> panic
                                if code in unicode_map:
                                    raise PdfError("unexpected entry in unicode map")
                                unicode_map[code] = ""
                            else:
                                log.warning("unknown glyph name '%s' for font %s", name, base_name)
                        code += 1
                    else:
                        raise PdfError(f"wrong type in Differences: {o!r}")
            encoding_table = table
        elif encoding_obj is None:
            if type1_encoding is not None:
                table = list(PDFDOC_ENCODING)
                for code, gname in type1_encoding:
                    unicode = GLYPH_NAME_TO_UNICODE.get(pdf_to_utf8(gname))
                    if unicode is not None and 0 <= code < 256:
                        table[code] = unicode
                encoding_table = table
            elif subtype == "TrueType":
                encoding_table = encoding_to_unicode_table(b"WinAnsiEncoding")
        else:
            raise PdfError(f"unexpected Encoding {encoding_obj!r}")

        width_map: Dict[int, float] = {}
        first_char = get_int(doc, font, b"FirstChar")
        last_char = get_int(doc, font, b"LastChar")
        widths = get_num_array(doc, font, b"Widths")
        if first_char is not None and last_char is not None and widths is not None:
            # explicit widths win over core metrics (src/lib.rs:574-584)
            i = 0
            for w in widths:
                width_map[first_char + i] = w
                i += 1
            if first_char + i - 1 != last_char:
                raise PdfError("Widths length does not match FirstChar..LastChar")
        else:
            # Core-font AFM metrics.  NOTE: the reference "substitutes
            # Helvetica" for non-core fonts but then compares metrics
            # against base_name, so non-core fonts get an empty width map
            # (every width = missing_width).  Replicated. (src/lib.rs:586-655)
            # Cross-document cache: core fonts repeat constantly across a
            # corpus; the (base_name, resolved encoding) pair fully
            # determines the width map.
            cache_key = (base_name,
                         tuple(encoding_table) if encoding_table is not None else None)
            cached = _cache_get(_CORE_WIDTHS_CACHE, cache_key)
            if cached is not None:
                width_map, enc_result = cached
                width_map = dict(width_map)
                if enc_result is not None:
                    encoding_table = list(enc_result)
            else:
                for m_name, _m_enc, m_glyphs in CORE_FONT_METRICS:
                    if m_name == base_name:
                        if encoding_table is not None:
                            # reverse map (unicode -> codes); semantics
                            # identical to the reference's linear scan
                            rev: Dict[int, list] = {}
                            for i in range(256):
                                rev.setdefault(encoding_table[i], []).append(i)
                            for g_code, g_width, g_name in m_glyphs:
                                c = GLYPH_NAME_TO_UNICODE[g_name]  # KeyError == panic
                                for i in rev.get(c, ()):
                                    width_map[i] = g_width
                        else:
                            table = [0] * 256
                            for g_code, g_width, g_name in m_glyphs:
                                if g_code != -1:
                                    if base_name == "ZapfDingbats":
                                        u = ZAPF_NAME_TO_UNICODE.get(g_name)
                                        if u is None:
                                            raise PdfError(f"bad name {g_name!r}")
                                        table[g_code] = u
                                    else:
                                        table[g_code] = GLYPH_NAME_TO_UNICODE[g_name]
                            for g_code, g_width, g_name in m_glyphs:
                                width_map[g_code & 0xFFFFFFFF] = g_width
                            encoding_table = table
                _cache_put(_CORE_WIDTHS_CACHE, cache_key,
                           (dict(width_map),
                            tuple(encoding_table) if encoding_table is not None else None))

        self.missing_width = get_num(doc, font, b"MissingWidth") or 0.0
        self.widths = width_map
        self.encoding = encoding_table
        self.unicode_map = unicode_map
        self.base_name = base_name

    def get_width(self, code: int) -> float:
        w = self.widths.get(code)
        return w if w is not None else self.missing_width


class PdfType3Font(_Simple256Font):
    """Type3 font (src/lib.rs:692-765); Widths are mandatory, and a
    missing width at draw time is an error (src/lib.rs:860-867)."""

    def __init__(self, doc, font: dict):
        self.unicode_map = get_unicode_map(doc, font)
        encoding_obj = maybe_get_obj(doc, font, b"Encoding")
        if isinstance(encoding_obj, Name):
            encoding_table = encoding_to_unicode_table(bytes(encoding_obj))
        elif isinstance(encoding_obj, dict):
            base_encoding = maybe_get_name(doc, encoding_obj, b"BaseEncoding")
            if base_encoding is not None:
                table = encoding_to_unicode_table(base_encoding)
            else:
                table = list(PDFDOC_ENCODING)
            differences = maybe_get_array(doc, encoding_obj, b"Differences")
            if differences is not None:
                code = 0
                for o in differences:
                    if isinstance(o, bool):
                        raise PdfError("wrong type")
                    if isinstance(o, int):
                        code = o
                    elif isinstance(o, Name):
                        unicode = GLYPH_NAME_TO_UNICODE.get(pdf_to_utf8(bytes(o)))
                        if unicode is not None:
                            table[code] = unicode
                        code += 1
                    else:
                        raise PdfError("wrong type")
            encoding_table = table
        else:
            raise PdfError("Type3 font requires an Encoding")
        self.encoding = encoding_table

        first_char = get_int(doc, font, b"FirstChar")
        last_char = get_int(doc, font, b"LastChar")
        widths = get_num_array(doc, font, b"Widths")
        if first_char is None or last_char is None or widths is None:
            raise PdfError("Type3 font requires FirstChar/LastChar/Widths")
        width_map: Dict[int, float] = {}
        i = 0
        for w in widths:
            width_map[first_char + i] = w
            i += 1
        if first_char + i - 1 != last_char:
            raise PdfError("Widths length does not match FirstChar..LastChar")
        self.widths = width_map

    def get_width(self, code: int) -> float:
        w = self.widths.get(code)
        if w is None:
            raise PdfError(f"missing Type3 width for {code}")
        return w


class PdfCIDFont(PdfFont):
    """Type0/CID font (src/lib.rs:971-1089)."""

    def __init__(self, doc, font: dict):
        get_name_string(doc, font, b"BaseFont")  # required (expect)
        descendants = maybe_get_array(doc, font, b"DescendantFonts")
        if descendants is None:
            raise PdfError("Descendant fonts required")
        ciddict = maybe_deref(doc, descendants[0])
        if not isinstance(ciddict, dict):
            raise PdfError("should be CID dict")
        encoding_obj = maybe_get_obj(doc, font, b"Encoding")
        if encoding_obj is None:
            raise PdfError("Encoding required in type0 fonts")
        if isinstance(encoding_obj, Name):
            name = pdf_to_utf8(bytes(encoding_obj))
            if name in ("Identity-H", "Identity-V"):
                self.encoding = ByteMapping(
                    codespace=[CodeRange(width=2, start=0, end=0xFFFF)],
                    cid=[CIDRange(0, 0xFFFF, 0)])
            else:
                raise PdfError(f"unsupported encoding {name}")
        elif isinstance(encoding_obj, Stream):
            self.encoding = get_byte_mapping_cached(_get_contents(encoding_obj, doc))
        else:
            raise PdfError(f"unsupported encoding {encoding_obj!r}")

        self.to_unicode = get_unicode_map(doc, font)

        font_desc = maybe_get_obj(doc, ciddict, b"FontDescriptor")
        if font_desc is None:
            raise PdfError("FontDescriptor required")
        if not isinstance(font_desc, dict):
            raise PdfError("must be dict")
        dw = get_int(doc, ciddict, b"DW")
        self.default_width = float(dw if dw is not None else 1000)

        widths: Dict[int, float] = {}
        w = maybe_get_array(doc, ciddict, b"W")
        if w is not None:
            w = [maybe_deref(doc, x) for x in w]
            i = 0
            while i < len(w):
                nxt = w[i + 1]  # IndexError == the reference's OOB panic
                if isinstance(nxt, list):
                    cid = w[i]
                    if isinstance(cid, bool) or not isinstance(cid, int):
                        raise PdfError("id should be num")
                    for j, wv in enumerate(nxt):
                        wv = maybe_deref(doc, wv)
                        if isinstance(wv, bool) or not isinstance(wv, (int, float)):
                            raise PdfError("not a number")
                        widths[cid + j] = float(wv)
                    i += 2
                else:
                    # QUIRK (src/lib.rs:1026-1032): the range form reads
                    # w[i] for first, last AND width, so `first..last` is
                    # empty and nothing is inserted; 3 tokens consumed.
                    c_first = w[i]
                    if isinstance(c_first, bool) or not isinstance(c_first, int):
                        raise PdfError("first should be num")
                    # c_last == c_first; for id in range(c_first, c_last): pass
                    i += 3
        self.widths = widths

    def get_width(self, code: int) -> float:
        w = self.widths.get(code)
        return w if w is not None else self.default_width

    def next_char(self, data, pos):
        # greedy 1..4-byte codespace match (src/lib.rs:1060-1080)
        if pos >= len(data):
            return None
        c = data[pos]
        pos += 1
        code = None
        for width in range(1, 5):
            for r in self.encoding.codespace:
                if r.start <= c <= r.end and r.width == width:
                    code = (c, width)
                    break
            if code is not None:
                break
            if pos >= len(data):
                return None
            c = (c << 8) | data[pos]
            pos += 1
        if code is None:
            return None
        for r in self.encoding.cid:
            if r.src_code_lo <= code[0] <= r.src_code_hi:
                # NOTE: the reference adds dst lo to the code (not the
                # offset within the range) — replicated (src/lib.rs:1076)
                return (code[0] + r.dst_cid_lo, code[1], pos)
        return None

    def decode_char(self, code: int) -> str:
        if self.to_unicode is not None:
            s = self.to_unicode.get(code)
            if s is not None:
                return s
        return ""  # unknown glyph -> silent drop (src/lib.rs:1081-1089)


def make_font(doc, font: dict) -> PdfFont:
    """Dispatch on Subtype (src/lib.rs:322-332)."""
    subtype = get_name_string(doc, font, b"Subtype")
    if subtype == "Type0":
        return PdfCIDFont(doc, font)
    if subtype == "Type3":
        return PdfType3Font(doc, font)
    return PdfSimpleFont(doc, font)
