"""Content-stream tokenizer: bytes -> [(operator, [operands])].

Equivalent of lopdf's `Content::decode` used at reference src/lib.rs:1582.
Operands are parsed with the shared object lexer (numbers/strings/names/
arrays/dicts); inline images (BI ... ID <binary> EI) are skipped as a unit.

`parse_content` is a token scanner: one `findall` of `_CONTENT` per
window of the stream yields one tuple per token, and the loop turns each
into an operand or an operator.  The pattern takes whitespace and `%`
comments, int and real numbers (converted as `parse_number` converts
them), names without `#`, non-empty escape-free `(...)` strings and
whole-byte `<hex>` strings, arrays of those one level deep,
`true`/`false`/`null` and operators.

A window (`_window_end`) ends at a whitespace byte at least `_WINDOW`
bytes on, and never inside a comment, so a token the scanner takes
whole is delimited the same in the window as in the stream; the list
of tuples `findall` builds stays that short, and a stream of tokens
costs no more memory than the operations it yields.

Fallback contract: at any token the pattern does not take (`BI`, `<<`
property lists, nested arrays, escapes, empty strings and names, stray
delimiters, `1.2.3`, a string the window end cuts, ...) its last
alternative takes the rest of the window and ends the `findall`.
`_CONTENT_RUN` re-matches the tokens before it to find its offset, one
step of the byte loop (`_content_step`) parses it from the whole
stream, and the scanner resumes after it.  So ops, operand values and
error texts are those of the byte loop, `_parse_content_bytes`, which
the tests hold the scanner to (tools/lexer_diff.py).

Every quantifier in the patterns must be possessive (`*+`, `++`): a
backtracking run can end a token early and let its tail be read as a
token of its own.
"""
from __future__ import annotations

import re
from binascii import unhexlify
from typing import List, Tuple

from .lexer import _DELIMITED, _IS_REG, _REGULAR, Lexer, parse_number
from .objects import NULL, Name, PdfError, PdfString, f32

Operation = Tuple[str, list]

_WS = rb"[\x00\t\n\x0c\r ]*+"
_SKIP = _WS + rb"(?:%[^\r\n]*+" + _WS + rb")*+"  # whitespace and comments


def _values(group) -> bytes:
    """The operand tokens: int, real, string, name, hex string, keyword;
    `group(p)` wraps the part of each that is its value."""
    return (
        # int() refuses more digits than sys.get_int_max_str_digits()
        # (>= 640); longer integers take the byte loop's parse_number
        group(rb"[+-]?+\d{1,600}+") + _DELIMITED
        + rb"|" + group(rb"[+-]?+(?:\d++\.\d*+|\.\d++)") + _DELIMITED
        + rb"|\(" + group(rb"[^()\\]++") + rb"\)"
        + rb"|/" + group(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%#]++") + _DELIMITED
        + rb"|<" + group(rb"(?:[0-9A-Fa-f]{2})++") + rb">"
        + rb"|" + group(rb"true|false|null") + _DELIMITED)


def _capture(p: bytes) -> bytes:
    return rb"(" + p + rb")"


def _plain(p: bytes) -> bytes:
    return rb"(?:" + p + rb")"


_OPERATOR = (rb"(?!BI" + _DELIMITED + rb")[^\x00\t\n\x0c\r ()<>\[\]{}/%+\-.0-9]"
             + _REGULAR + rb"*+")
# `[` and its items; the separator and `]` after them close the array
_ARRAY_ITEMS = rb"\[(?:" + _SKIP + _plain(_values(_plain)) + rb")*+"
_ARRAY_END = _SKIP + rb"\]"
# one tuple per array item: (int, real, string, name, hex, keyword)
_ARRAY_ITEM = re.compile(_SKIP + _plain(_values(_capture)))
# one tuple per token: (int, real, string, name, hex, keyword, operator,
# `[` and its items, first byte of an unknown token), all empty at the
# end of the window
_CONTENT = re.compile(
    _SKIP + rb"(?:" + _values(_capture) + rb"|" + _capture(_OPERATOR)
    + rb"|" + _capture(_ARRAY_ITEMS) + _ARRAY_END
    + rb"|\Z|(?s:(.).*+))")
# the tokens `_CONTENT` takes from a position on, and the separator after
# them: the match ends where the first token it does not take starts
_CONTENT_RUN = re.compile(
    rb"(?:" + _SKIP + rb"(?:" + _values(_plain) + rb"|" + _OPERATOR + rb"|"
    + _ARRAY_ITEMS + _ARRAY_END + rb"))*+" + _SKIP)
# the fewest bytes one findall scans, unless the stream ends first
_WINDOW = 1 << 14
_WS_BYTE = re.compile(rb"[\x00\t\n\x0c\r ]")
_EOL = re.compile(rb"[\r\n]")

_KEYWORDS = {b"true": True, b"false": False, b"null": NULL}


def parse_content(data: bytes) -> List[Operation]:
    """The stream's operations, in order: each operator with the operands
    read since the previous one (see the module docstring)."""
    ops: List[Operation] = []
    operands: list = []
    pos = 0
    while True:
        end = _window_end(data, pos)
        for (i, r, s, name, hexs, kw, op, arr,
             unknown) in _CONTENT.findall(data, pos, end):
            if i:
                operands.append(int(i))
            elif r:
                operands.append(f32(float(r)))
            elif op:
                ops.append((op.decode("latin-1"), operands))
                operands = []
            elif s:
                operands.append(PdfString(s))
            elif name:
                operands.append(Name(name))
            elif arr:
                operands.append(_array(arr))
            elif hexs:
                operands.append(PdfString(unhexlify(hexs)))
            elif kw:
                operands.append(_KEYWORDS[kw])
            elif unknown:
                lx = Lexer(data, _CONTENT_RUN.match(data, pos, end).end())
                operands = _content_step(lx, ops, operands)
                pos = lx.pos
                break
        else:
            if end == len(data):
                return ops
            pos = end


def _window_end(data: bytes, pos: int) -> int:
    """Where the window from `pos` ends: the stream's end, or the first
    whitespace byte `_WINDOW` bytes on that no comment runs through (a
    `%` with no line break after it moves the end to the next one)."""
    end = pos + _WINDOW
    if end >= len(data):
        return len(data)
    m = _WS_BYTE.search(data, end)
    if m is None:
        return len(data)
    end = m.start()
    pct = data.rfind(b"%", pos, end)
    if (pct >= 0 and data.find(b"\n", pct, end) < 0
            and data.find(b"\r", pct, end) < 0):
        m = _EOL.search(data, end)
        return len(data) if m is None else m.start()
    return end


def _array(arr: bytes) -> list:
    """The items of a `_CONTENT` array match (`[` and its items)."""
    out = []
    for i, r, s, name, hexs, kw in _ARRAY_ITEM.findall(arr, 1):
        if i:
            out.append(int(i))
        elif r:
            out.append(f32(float(r)))
        elif s:
            out.append(PdfString(s))
        elif name:
            out.append(Name(name))
        elif hexs:
            out.append(PdfString(unhexlify(hexs)))
        else:
            out.append(_KEYWORDS[kw])
    return out


def _parse_content_bytes(data: bytes) -> List[Operation]:
    """The byte loop: the fallback of `parse_content`, one step at a
    time, and the reference the scanner is tested against."""
    lx = Lexer(data)
    ops: List[Operation] = []
    operands: list = []
    while True:
        lx.skip_ws()
        if lx.pos >= lx.end:
            return ops
        operands = _content_step(lx, ops, operands)


def _content_step(lx: Lexer, ops: List[Operation], operands: list) -> list:
    """Read the token at `lx.pos` (not whitespace, not the end): append
    an operand to `operands` or an operation to `ops`, and return the
    operands list the next token adds to."""
    buf = lx.buf
    c = buf[lx.pos]
    if c in b"/(<[":
        operands.append(lx.parse_object(allow_ref=False))
        return operands
    if c in b"+-.0123456789":
        tok = lx.read_regular_token()
        try:
            operands.append(parse_number(tok))
        except PdfError:
            return []
        return operands
    if c == 0x5D or c == 0x7B or c == 0x7D or c == 0x29 or c == 0x3E:
        # stray delimiter: skip (lenient, like lopdf's tolerant parse)
        lx.pos += 1
        return operands
    tok = lx.read_regular_token()
    if not tok:
        lx.pos += 1
        return operands
    if tok == b"BI":
        _skip_inline_image(lx)
        return []
    if tok == b"true":
        operands.append(True)
    elif tok == b"false":
        operands.append(False)
    elif tok == b"null":
        operands.append(NULL)
    else:
        ops.append((tok.decode("latin-1"), operands))
        return []
    return operands


_INLINE_NCOMP = {b"G": 1, b"DeviceGray": 1, b"RGB": 3, b"DeviceRGB": 3,
                 b"CMYK": 4, b"DeviceCMYK": 4}


def _inline_data_length(params: dict):
    """Exact byte length of UNCOMPRESSED inline-image data from the dict
    (spec 8.9.7: rows are byte-aligned); None when a filter is present or
    the geometry is incomplete — the caller then falls back to the EI
    scan."""
    if b"F" in params or b"Filter" in params:
        return None
    w = params.get(b"W", params.get(b"Width"))
    h = params.get(b"H", params.get(b"Height"))
    if not isinstance(w, int) or not isinstance(h, int) or w < 0 or h < 0:
        return None
    if params.get(b"IM", params.get(b"ImageMask")) is True:
        bpc, ncomp = 1, 1
    else:
        bpc = params.get(b"BPC", params.get(b"BitsPerComponent"))
        cs = params.get(b"CS", params.get(b"ColorSpace"))
        cs_key = bytes(cs) if isinstance(cs, (bytes, bytearray)) or \
            type(cs).__name__ == "Name" else None
        ncomp = _INLINE_NCOMP.get(cs_key)
        if not isinstance(bpc, int) or ncomp is None:
            return None
    return h * ((w * bpc * ncomp + 7) // 8)


def _skip_inline_image(lx: Lexer) -> None:
    """Skip `BI <dict entries> ID <binary data> EI`.

    The dict is parsed (not discarded): for uncompressed images the data
    length is computed exactly from W/H/BPC/CS, so binary bytes that
    happen to spell ` EI ` cannot truncate the skip; filtered images fall
    back to the delimited-EI scan."""
    params: dict = {}
    pending_key = None
    while True:
        lx.skip_ws()
        if lx.pos >= lx.end:
            return
        save = lx.pos
        if _IS_REG[lx.buf[lx.pos]]:
            tok = lx.read_regular_token()
            if tok == b"ID":
                break
            if not tok:
                lx.pos = save + 1
                continue
            # numbers / booleans arrive as regular tokens here
            val = None
            if tok == b"true":
                val = True
            elif tok == b"false":
                val = False
            else:
                try:
                    val = parse_number(tok)
                except PdfError:
                    val = None
            if pending_key is not None and val is not None:
                params[pending_key] = val
                pending_key = None
            continue
        try:
            obj = lx.parse_object(allow_ref=False)
            nm = type(obj).__name__ == "Name"
            if pending_key is None and nm:
                pending_key = bytes(obj)
            elif pending_key is not None:
                params[pending_key] = obj
                pending_key = None
        except PdfError:
            lx.pos = save + 1
    # one whitespace byte after ID, then binary data until EI
    if lx.pos < lx.end and lx.buf[lx.pos] in b"\x00\t\n\x0c\r ":
        lx.pos += 1
    start = lx.pos

    n = _inline_data_length(params)
    if n is not None and start + n <= lx.end:
        probe = Lexer(lx.buf, start + n, lx.end)
        probe.skip_ws()
        # mirror the fallback scan's delimiter check: `EI` must be
        # followed by a non-regular byte, else a token like `EIX` just
        # past the computed geometry would be consumed here but not there
        if lx.buf[probe.pos:probe.pos + 2] == b"EI" and (
                probe.pos + 2 >= lx.end or not _IS_REG[lx.buf[probe.pos + 2]]):
            lx.pos = probe.pos + 2
            return
        # geometry didn't line up with an EI: fall through to the scan
    buf, end = lx.buf, lx.end
    # prefer a whitespace-delimited EI (the normal spec shape); fall back to
    # any EI followed by a non-regular char (binary data may abut it)
    for require_ws_before in (True, False):
        pos = start
        while True:
            idx = buf.find(b"EI", pos, end)
            if idx < 0:
                break
            before_ok = (not require_ws_before) or idx == 0 \
                or buf[idx - 1] in b"\x00\t\n\x0c\r "
            after_ok = idx + 2 >= end or not _IS_REG[buf[idx + 2]]
            if before_ok and after_ok:
                lx.pos = idx + 2
                return
            pos = idx + 2
    lx.pos = end
