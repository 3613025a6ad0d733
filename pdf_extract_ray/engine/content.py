"""Content-stream tokenizer: bytes -> [(operator, [operands])].

Equivalent of lopdf's `Content::decode` used at reference src/lib.rs:1582.
Operands are parsed with the shared object lexer (numbers/strings/names/
arrays/dicts); inline images (BI ... ID <binary> EI) are skipped as a unit.

The scanner is one `findall` of `_CONTENT` per window of the stream.
Its first alternatives take a whole operation in one match, operator
and operands, in one of four shapes:

- numbers (none, one or several) and an operator: `72 700 Td`, `BT`,
  `1 0 0 1 0 0 cm`, `q`, `0 0 m`, ... (`nums`, `op`);
- one plain `(...)` string and an operator: `(Hi) Tj` (`s`, `sop`);
- a name, numbers and an operator: `/F1 12 Tf`, `/Im0 Do` (`name`,
  `nnums`, `nop`);
- an array and an operator: `[(A) -120 (B)] TJ` (`arr`, `aop`).

Inside such a match the separators are plain whitespace (no comments,
no NUL), ints have at most 38 digits and reals at most 38 digits
before the point, so converting its operands never raises (`_numbers`
gives ints and f32 reals; the float of each, as `as_num` would give
it, is `_num`).  A run of numbers with no operator after it is one
match too (`run`), so a long run costs one scan.  The token
alternatives after them take one operand each, as `parse_number`
converts them: int and real numbers, names without `#`, non-empty
escape-free `(...)` strings and whole-byte `<hex>` strings, arrays of
those one level deep, `true`/`false`/`null`.  Each operation
match is made of tokens the token alternatives would take one at a
time, so the two kinds split the stream at the same places.

`parse_content` builds the list of operations from these matches
(`_operations`); `interpreter.Processor` consumes the same matches
window by window without building it.  The operands read before an
operation match (token matches, byte-loop steps) belong to its
operation too: the consumer puts them first.

A window (`_window_end`) ends at a whitespace byte at least `_WINDOW`
bytes on, and never inside a comment, so a token the scanner takes
whole is delimited the same in the window as in the stream; the list
of tuples `findall` builds stays that short, and a stream of tokens
costs no more memory than the operations it yields.

Fallback contract: at any token the pattern does not take (`BI`, `<<`
property lists, nested arrays, escapes, empty strings and names, stray
delimiters, `1.2.3`, a string the window end cuts, ...) its last
alternative (`unknown`) takes the rest of the window and ends the
`findall`.  `_CONTENT_RUN` re-matches the tokens before it to find its
offset, one step of the byte loop (`_content_step`) parses it from the
whole stream (`_step`), and the scanner resumes after it.  So ops,
operand values and error texts are those of the byte loop,
`_parse_content_bytes`, which the tests hold the scanner to
(tools/lexer_diff.py).

Every quantifier in the patterns must be possessive (`*+`, `++`): a
backtracking run can end a token early and let its tail be read as a
token of its own.
"""
from __future__ import annotations

import re
from binascii import unhexlify
from typing import Iterator, List, Tuple

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


_OPERATOR = (rb"(?!(?:BI|true|false|null)" + _DELIMITED
             + rb")[^\x00\t\n\x0c\r ()<>\[\]{}/%+\-.0-9]" + _REGULAR + rb"*+")
# `[` and its items; the separator and `]` after them close the array
_ARRAY_ITEMS = rb"\[(?:" + _SKIP + _plain(_values(_plain)) + rb")*+"
_ARRAY_END = _SKIP + rb"\]"
# one tuple per array item: (int, real, string, name, hex, keyword)
_ARRAY_ITEM = re.compile(_SKIP + _plain(_values(_capture)))
# inside an operation match: a number whose conversion cannot raise
# (float() of a 38-digit int is finite, f32() of a real below 1e38
# too), then whitespace that `bytes.split` splits at
_SP = rb"[\t\n\x0c\r ]"
_NUMS = rb"(?:[+-]?+(?:\d{1,38}+(?:\.\d*+)?+|\.\d++)" + _SP + rb"++)"
# one tuple per match, all empty at the end of the window:
#   nums, op          numbers and an operator
#   run               numbers and no operator
#   s, sop            a string and an operator
#   name, nnums, nop  a name, numbers and an operator
#   arr, aop          `[` and its items, and an operator
#   i, r, ts, tname, hexs, kw, tarr
#                     one operand token: int, real, string, name, hex
#                     string, keyword, `[` and its items
#   unknown           the first byte of a token the pattern does not take
_CONTENT = re.compile(
    _SKIP + rb"(?:"
    + _capture(_NUMS + rb"*+") + _capture(_OPERATOR)
    + rb"|" + _capture(_NUMS + rb"++")
    + rb"|\(([^()\\]++)\)" + _SP + rb"*+" + _capture(_OPERATOR)
    + rb"|/([^\x00\t\n\x0c\r ()<>\[\]{}/%#]++)" + _SP + rb"++"
    + _capture(_NUMS + rb"*+") + _capture(_OPERATOR)
    + rb"|" + _capture(_ARRAY_ITEMS) + _ARRAY_END + _SP + rb"*+"
    + _capture(_OPERATOR)
    + rb"|" + _values(_capture) + rb"|" + _capture(_ARRAY_ITEMS) + _ARRAY_END
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


def _numbers(nums: bytes) -> list:
    """The operands of a `nums`/`run`/`nnums` group: ints and f32 reals."""
    return [f32(float(t)) if b"." in t else int(t) for t in nums.split()]


def _num(t: bytes) -> float:
    """A number of such a group, as `as_num` gives it (`float(-0)` is
    0.0, the float of the string `-0` is -0.0)."""
    return f32(float(t)) if b"." in t else float(t) + 0.0


def parse_content(data: bytes) -> List[Operation]:
    """The stream's operations, in order: each operator with the operands
    read since the previous one (see the module docstring)."""
    return list(_operations(data, 0))


def _operations(data: bytes, pos: int) -> Iterator[Operation]:
    """The operations of `data[pos:]`, as `parse_content` lists them."""
    operands: list = []
    while True:
        end = _window_end(data, pos)
        for (nums, op, run, s, sop, name, nnums, nop, arr, aop,
             i, r, ts, tname, hexs, kw, tarr,
             unknown) in _CONTENT.findall(data, pos, end):
            if op:
                if nums:
                    operands += _numbers(nums)
                yield op.decode("latin-1"), operands
                operands = []
            elif run:
                operands += _numbers(run)
            elif sop:
                operands.append(PdfString(s))
                yield sop.decode("latin-1"), operands
                operands = []
            elif nop:
                operands.append(Name(name))
                if nnums:
                    operands += _numbers(nnums)
                yield nop.decode("latin-1"), operands
                operands = []
            elif aop:
                operands.append(_array(arr))
                yield aop.decode("latin-1"), operands
                operands = []
            elif i:
                operands.append(int(i))
            elif r:
                operands.append(f32(float(r)))
            elif ts:
                operands.append(PdfString(ts))
            elif tname:
                operands.append(Name(tname))
            elif tarr:
                operands.append(_array(tarr))
            elif hexs:
                operands.append(PdfString(unhexlify(hexs)))
            elif kw:
                operands.append(_KEYWORDS[kw])
            elif unknown:
                ops, operands, pos = _step(data, pos, end, operands)
                yield from ops
                break
        else:
            if end == len(data):
                return
            pos = end


def _step(data: bytes, pos: int, end: int, operands: list):
    """The fallback at the `unknown` match of the window `data[pos:end]`:
    one byte-loop step at the first token from `pos` that `_CONTENT`
    does not take.  -> (the 0 or 1 operations it ends, the operands
    after it, the position after it)."""
    lx = Lexer(data, _CONTENT_RUN.match(data, pos, end).end())
    ops: List[Operation] = []
    operands = _content_step(lx, ops, operands)
    return ops, operands, lx.pos


def check_rest(data: bytes, pos: int) -> None:
    """Scan `data[pos:]`, dropping its operations: raises what
    `parse_content` would raise there.  A consumer that runs each
    operation as it is scanned calls this when one fails, so that a
    later parse error wins, as it does when the whole list is built
    first."""
    for _ in _operations(data, pos):
        pass


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
