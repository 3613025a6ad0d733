"""PDF object lexer/parser, written from the PDF 32000-1:2008 spec §7.

Shared by the document body parser (engine/document.py), the content-stream
tokenizer (engine/content.py) and the CMap parser (engine/cmap.py).  The
reference outsourced this layer to the lopdf crate; we rebuild it
(SURVEY.md §7 step 1).

Objects are read by a token scanner: `Lexer.parse_object` matches one
compiled pattern per token (names, `N G R`, numbers, `<<`, `>>`, `[`,
`]`, `true`/`false`/`null`, plain strings) and builds dicts and arrays
on an explicit stack; `parse_indirect_object` frames `N G obj` and the
`stream`/`endobj` keyword with one pattern each.  Fallback contract:
whatever the patterns do not take -- a name with a `#` escape, a comment
inside `N G R`, a key that is not a name, nesting past `_MAX_DEPTH`,
any malformed input -- re-parses from the object's first byte on the
byte-level path (`_parse_object_bytes`, `_parse_indirect_object_bytes`),
so values, end positions and error texts are those of the byte-level
parser, which the tests hold the scanner to (tools/lexer_diff.py).
Every quantifier in those patterns must be possessive (`*+`, `++`): a
backtracking comment or name can end early and let its tail be read as
a token.

The byte-level object parser (`_parse_object_bytes` and the methods it
calls) is the plain spec loop, not a fast path: the pdfgen fixtures and
the perfbench workloads never reach it.  Every separator goes through
`skip_ws`, arrays and dicts recurse through `_parse_object_bytes` (a
container nested past `_MAX_NESTING` levels raises PdfError, the same
at any stack depth of the caller), and `N G R` is one recognizer that
reads the G and `R` tokens ahead and rewinds when they are not there.
tests/test_lexer_reference.py pins its outcomes, error positions
included (`cmap._tokens` resumes one byte past a `PdfError`).
"""
from __future__ import annotations

import re
from typing import Optional, Tuple

from .objects import NULL, Name, PdfError, PdfString, Ref, Stream, f32

# C-speed scanners for the hot paths (profiled: skip_ws/read_regular_token
# dominate parse time when done byte-by-byte in Python)
_WS_RUN = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\r\n]*)+")
_REG_RUN = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]*")
_LIT_SPECIAL = re.compile(rb"[()\\]")

WHITESPACE = b"\x00\t\n\x0c\r "
_IS_REG = bytearray(c not in WHITESPACE + b"()<>[]{}/%" for c in range(256))
_IS_WS_OR_PCT = bytearray(c in WHITESPACE + b"%" for c in range(256))
_NAME_ESCAPE = re.compile(rb"#([0-9A-Fa-f]{2})")

# Object-body tokens for Lexer.parse_object: one match per token, the
# lastindex naming the kind.  Quantifiers stay possessive (see above).
_REGULAR = rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]"
_DELIMITED = rb"(?!" + _REGULAR + rb")"  # the token ends here
_SEP = rb"(?:[\x00\t\n\x0c\r ]++|%[^\r\n]*+)"  # whitespace or a comment


def _token_pattern(ref: bytes) -> "re.Pattern":
    return re.compile(
        _SEP + rb"*+(?:"
        rb"/([^\x00\t\n\x0c\r ()<>\[\]{}/%#]*+)" + _DELIMITED  # 1 name
        + rb"|" + ref                                        # 2, 3 N G R
        + rb"|([+-]?+(?:\d++\.?+\d*+|\.\d++))" + _DELIMITED  # 4 number
        + rb"|(<<)|(>>)|(\[)|(\])"                            # 5-8
        + rb"|(true)" + _DELIMITED + rb"|(false)" + _DELIMITED  # 9, 10
        + rb"|(null)" + _DELIMITED                            # 11
        + rb"|\(([^()\\]*+)\)"          # 12 literal string, no escapes
        + rb"|<((?:[0-9A-Fa-f]{2})*+)>"  # 13 hex string, whole bytes
        + rb"|([(<]))")                  # 14 any other string


_TOKEN_REF = _token_pattern(
    rb"([+-]?+\d++)" + _SEP + rb"++(\d++)" + _SEP + rb"++R" + _DELIMITED)
_TOKEN = _token_pattern(rb"(?!)()()")  # content streams: no references
# containers nested deeper than this take the byte-level path
_MAX_DEPTH = 64
# containers nested deeper than this raise PdfError on the byte-level
# path: it recurses twice per level, so the cap keeps it far below
# Python's recursion limit (1000) even under Processor.MAX_DO_DEPTH
# nested form XObjects, and the error is the same at any caller depth
_MAX_NESTING = 200

_HEX = {c: int(chr(c), 16) for c in b"0123456789abcdefABCDEF"}


def _unescape(m) -> bytes:  # `#xx` in a name
    return bytes((int(m[1], 16),))


class Lexer:
    """Cursor over a bytes buffer with PDF token/object parsing."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, pos: int = 0, end: Optional[int] = None):
        self.buf = buf
        self.pos = pos
        self.end = len(buf) if end is None else end

    # -- low-level ---------------------------------------------------------

    def skip_ws(self) -> None:
        # fast paths (profiled ~2x): no whitespace at all, or exactly one
        # non-comment ws byte; the regex handles runs and %-comments
        pos = self.pos
        buf = self.buf
        if pos >= self.end or not _IS_WS_OR_PCT[buf[pos]]:
            return
        if buf[pos] != 0x25:
            pos += 1
            if pos >= self.end or not _IS_WS_OR_PCT[buf[pos]]:
                self.pos = pos
                return
        m = _WS_RUN.match(buf, self.pos, self.end)
        if m is not None:
            self.pos = m.end()

    def peek(self) -> int:
        return self.buf[self.pos] if self.pos < self.end else -1

    def read_regular_token(self) -> bytes:
        """Read a run of regular (non-delimiter, non-ws) characters."""
        m = _REG_RUN.match(self.buf, self.pos, self.end)
        self.pos = m.end()
        return m.group()

    def expect_keyword(self, kw: bytes) -> None:
        self.skip_ws()
        tok = self.read_regular_token()
        if tok != kw:
            raise PdfError(f"expected {kw!r}, got {tok!r} at {self.pos}")

    # -- object parsing ----------------------------------------------------

    def parse_object(self, allow_ref: bool = True):
        """Parse one object. `allow_ref=False` for content streams/CMaps
        where `R` is not a thing and bare numbers stay numbers.

        One `_TOKEN`/`_TOKEN_REF` match per token; dicts and arrays are
        built on an explicit stack.  Input the pattern does not take
        (see the module docstring) re-parses from the object's first
        byte on the byte-level path, `_parse_object_bytes`."""
        buf, end = self.buf, self.end
        start = self.pos
        if start < end and buf[start] == 0x28:
            # a content stream's string operand: no scanner to set up
            return self._parse_literal_string()
        pattern = _TOKEN_REF if allow_ref else _TOKEN
        match = pattern.scanner(buf, start, end).match
        stack = []
        cur = None      # innermost open container
        key = None      # key awaiting its value when cur is a dict
        want_key = False
        try:
            while True:
                m = match()
                if m is None:
                    break
                g = m.lastindex
                if g == 1:  # name
                    if want_key:
                        key = m.group(1)
                        want_key = False
                        continue
                    val = Name(m.group(1))
                elif want_key:  # only `>>` may stand where a key goes
                    if g != 6:
                        break
                    val = cur
                    cur, key = stack.pop()
                    want_key = False
                elif g == 3:  # N G R
                    val = int(m.group(2))
                    if val < 0:
                        break
                    val = Ref(val, int(m.group(3)))
                elif g == 4:  # number
                    val = m.group(4)
                    val = f32(float(val)) if b"." in val else int(val)
                elif g == 5 or g == 7:  # `<<` or `[`
                    if len(stack) >= _MAX_DEPTH:
                        break
                    stack.append((cur, key))
                    key = None
                    if g == 5:
                        cur = {}
                        want_key = True
                    else:
                        cur = []
                    continue
                elif g == 8:  # `]`
                    if type(cur) is not list:
                        break
                    val = cur
                    cur, key = stack.pop()
                elif g == 9:
                    val = True
                elif g == 10:
                    val = False
                elif g == 11:
                    val = NULL
                elif g == 12:
                    val = PdfString(m.group(12))
                elif g == 13:
                    val = PdfString(bytes.fromhex(m.group(13).decode()))
                elif g == 14:  # other strings: the byte-level readers,
                    # then a new scanner from where they stopped
                    self.pos = m.start(14)
                    val = (self._parse_literal_string() if buf[self.pos] == 0x28
                           else self._parse_hex_string())
                    match = pattern.scanner(buf, self.pos, end).match
                    if cur is None:
                        return val
                else:  # `>>` in a value position
                    break
                if key is not None:
                    cur[key] = val
                    key = None
                    want_key = True
                elif cur is None:
                    self.pos = m.end()
                    return val
                else:
                    cur.append(val)
        except (PdfError, ValueError, OverflowError):
            pass
        self.pos = start
        return self._parse_object_bytes(allow_ref)

    def _parse_object_bytes(self, allow_ref: bool = True, depth: int = 0):
        """The byte-level parse: the fallback of `parse_object`, and the
        reference the scanner is tested against.  `depth` counts the
        containers around the object; past _MAX_NESTING it raises."""
        self.skip_ws()
        buf, pos = self.buf, self.pos
        if pos >= self.end:
            raise PdfError("EOF while parsing object")
        c = buf[pos]
        if c == 0x2F:  # '/'
            return self._parse_name()
        if c == 0x28:  # '('
            return self._parse_literal_string()
        if c == 0x3C:  # '<'
            if pos + 1 < self.end and buf[pos + 1] == 0x3C:
                return self._parse_dict(depth)
            return self._parse_hex_string()
        if c == 0x5B:  # '['
            return self._parse_array(allow_ref, depth)
        if c == 0x5D:  # ']'
            raise PdfError("unexpected ]")
        if c in b"+-.0123456789":
            return self._parse_number_or_ref(allow_ref)
        tok = self.read_regular_token()
        if tok == b"true":
            return True
        if tok == b"false":
            return False
        if tok == b"null":
            return NULL
        raise PdfError(f"unexpected token {tok!r} at {pos}")

    def _parse_name(self) -> Name:
        m = _REG_RUN.match(self.buf, self.pos + 1, self.end)
        self.pos = m.end()
        return Name(_NAME_ESCAPE.sub(_unescape, m.group()))

    def _parse_literal_string(self) -> PdfString:
        buf, end = self.buf, self.end
        pos = self.pos + 1  # skip '('
        out = bytearray()
        depth = 1
        while True:
            # the bytes up to the next paren or backslash copy as they are
            m = _LIT_SPECIAL.search(buf, pos, end)
            if m is None:
                break
            i = m.start()
            c = buf[i]
            if c == 0x29 and depth == 1:
                self.pos = i + 1
                return PdfString(out + buf[pos:i] if out else buf[pos:i])
            out += buf[pos:i]
            pos = i + 1
            if c == 0x5C:  # backslash
                if pos >= end:
                    break
                e = buf[pos]
                if e == 0x6E:
                    out.append(0x0A)
                elif e == 0x72:
                    out.append(0x0D)
                elif e == 0x74:
                    out.append(0x09)
                elif e == 0x62:
                    out.append(0x08)
                elif e == 0x66:
                    out.append(0x0C)
                elif e in b"01234567":  # octal, up to 3 digits
                    val = e - 0x30
                    n = 1
                    while n < 3 and pos + 1 < end and buf[pos + 1] in b"01234567":
                        pos += 1
                        val = val * 8 + (buf[pos] - 0x30)
                        n += 1
                    out.append(val & 0xFF)
                elif e == 0x0D:  # line continuation \<CR>[<LF>]
                    if pos + 1 < end and buf[pos + 1] == 0x0A:
                        pos += 1
                elif e == 0x0A:
                    pass
                else:  # \( \) \\ and any other char -> itself
                    out.append(e)
                pos += 1
            else:  # a nested paren is kept
                depth += 1 if c == 0x28 else -1
                out.append(c)
        raise PdfError("unterminated literal string")

    def _parse_hex_string(self) -> PdfString:
        buf, end = self.buf, self.end
        pos = self.pos + 1  # skip '<'
        out = bytearray()
        hi = None
        while pos < end:
            c = buf[pos]
            if c == 0x3E:  # '>'; an odd last digit is followed by 0
                if hi is not None:
                    out.append(hi * 16)
                self.pos = pos + 1
                return PdfString(bytes(out))
            v = _HEX.get(c)  # bytes that are not hex digits are skipped
            if v is not None:
                if hi is None:
                    hi = v
                else:
                    out.append(hi * 16 + v)
                    hi = None
            pos += 1
        raise PdfError("unterminated hex string")

    def _next_item(self, mark: int, close: bytes, what: str) -> bool:
        """Skip to a container's next item; True (past it) at `close`.
        At the end of the input the cursor goes back to `mark` (the
        container's start, or the end of its last item) unless a
        comment was skipped, then raises."""
        self.skip_ws()
        if self.buf.startswith(close, self.pos, self.end):
            self.pos += len(close)
            return True
        if self.pos >= self.end:
            if self.buf.find(b"%", mark, self.end) < 0:
                self.pos = mark
            raise PdfError(f"unterminated {what}")
        return False

    def _nest(self, depth: int) -> int:
        if depth >= _MAX_NESTING:
            raise PdfError(f"objects nested deeper than {_MAX_NESTING} "
                           f"at {self.pos}")
        return depth + 1

    def _parse_array(self, allow_ref: bool, depth: int) -> list:
        depth = self._nest(depth)
        out = []
        mark = self.pos
        self.pos += 1  # skip '['
        while not self._next_item(mark, b"]", "array"):
            out.append(self._parse_object_bytes(allow_ref, depth))
            mark = self.pos
        return out

    def _parse_dict(self, depth: int) -> dict:
        depth = self._nest(depth)
        out = {}
        mark = self.pos
        self.pos += 2  # skip '<<'
        while not self._next_item(mark, b">>", "dict"):
            key = self._parse_object_bytes(True, depth)
            if not isinstance(key, Name):
                raise PdfError(f"dict key not a name: {key!r}")
            out[bytes(key)] = self._parse_object_bytes(True, depth)
            mark = self.pos
        return out

    def _parse_number_or_ref(self, allow_ref: bool):
        start = self.pos
        tok = self.read_regular_token()
        after = self.pos
        ref = False
        if allow_ref:  # `N G R`: a digits-only G, then an `R` token
            self.skip_ws()
            gen = self.read_regular_token()
            self.skip_ws()
            ref = gen.isdigit() and self.read_regular_token() == b"R"
            # a digits-only N with no comment up to the R takes int(),
            # which raises past 4,300 digits (parse_number makes it real)
            if ref and tok.isdigit() and self.buf.find(b"%", start,
                                                       self.pos) < 0:
                return Ref(int(tok), int(gen))
        end = self.pos
        self.pos = after
        num = parse_number(tok)
        if ref and type(num) is int and num >= 0:
            self.pos = end
            return Ref(num, int(gen))
        return num


def parse_number(tok: bytes):
    """Integer -> int; real -> float rounded through f32 (lopdf parity)."""
    if not tok:
        raise PdfError("empty number token")
    if b"." in tok:
        # real fast path: skip the int() attempt (exception churn — reals
        # dominate content-stream operands)
        try:
            return f32(float(tok))
        except ValueError:
            raise PdfError(f"bad number {tok!r}") from None
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return f32(float(tok))
    except ValueError:
        raise PdfError(f"bad number {tok!r}") from None


_OBJ_HEADER = re.compile(_SEP + rb"*+(\d++)" + _SEP + rb"++(\d++)" + _SEP
                         + rb"++obj" + _DELIMITED)
_AFTER_BODY = re.compile(_SEP + rb"*+(?:(stream)|(endobj))" + _DELIMITED)
_AFTER_STREAM = re.compile(_SEP + rb"*+endobj" + _DELIMITED)
_SKIP = re.compile(_SEP + rb"*+")


def parse_indirect_object(lx: Lexer, doc=None) -> Tuple[Tuple[int, int], object]:
    """Parse `num gen obj ... endobj` at the lexer position.

    Returns ((num, gen), object).  If the object is a stream, its /Length is
    resolved through `doc` when indirect; a missing/bogus Length falls back
    to scanning for `endstream`.  A header the `_OBJ_HEADER` pattern does
    not take runs the byte-level framing (`_parse_indirect_object_bytes`),
    which raises the error texts.
    """
    buf = lx.buf
    head = _OBJ_HEADER.match(buf, lx.pos, lx.end)
    if head is None:
        return _parse_indirect_object_bytes(lx, doc)
    lx.pos = head.end()
    obj = lx.parse_object()
    m = _AFTER_BODY.match(buf, lx.pos, lx.end)
    if m is not None and m.lastindex == 1:
        lx.pos = m.end()
        obj = _read_stream(lx, obj, doc)
        m = _AFTER_STREAM.match(buf, lx.pos, lx.end)
    if m is not None:
        lx.pos = m.end()
    else:  # tolerate a missing endobj: stop before the following token
        lx.skip_ws()
    return (int(head.group(1)), int(head.group(2))), obj


def _parse_indirect_object_bytes(lx: Lexer, doc=None):
    """Token-by-token framing: the fallback of `parse_indirect_object`
    and the reference it is tested against."""
    lx.skip_ws()
    num_tok = lx.read_regular_token()
    lx.skip_ws()
    gen_tok = lx.read_regular_token()
    lx.expect_keyword(b"obj")
    if not num_tok.isdigit() or not gen_tok.isdigit():
        raise PdfError(f"bad object header {num_tok!r} {gen_tok!r}")
    obj = lx._parse_object_bytes()
    lx.skip_ws()
    save = lx.pos
    kw = lx.read_regular_token()
    if kw == b"stream":
        obj = _read_stream(lx, obj, doc)
        lx.skip_ws()
        save = lx.pos
        kw = lx.read_regular_token()
    if kw != b"endobj":
        # tolerate missing endobj; rewind so caller sees following bytes
        lx.pos = save
    return (int(num_tok), int(gen_tok)), obj


def _read_stream(lx: Lexer, obj, doc) -> Stream:
    """The stream payload after the `stream` keyword; leaves the lexer
    just past `endstream`."""
    if not isinstance(obj, dict):
        raise PdfError("stream without dict")
    buf, end = lx.buf, lx.end
    # EOL after `stream`: CRLF or LF
    if lx.peek() == 0x0D:
        lx.pos += 1
    if lx.peek() == 0x0A:
        lx.pos += 1
    start = lx.pos
    length = obj.get(b"Length")
    if isinstance(length, Ref) and doc is not None:
        try:
            length = doc.get_object(length)
        except Exception:
            length = None
    if isinstance(length, int) and 0 <= length <= end - start:
        # validate that `endstream` actually follows
        p = _SKIP.match(buf, start + length, end).end()
        if buf[p:p + 9] == b"endstream":
            lx.pos = p + 9
            return Stream(obj, bytes(buf[start:start + length]))
    # scan for endstream
    idx = buf.find(b"endstream", start, end)
    if idx < 0:
        raise PdfError("unterminated stream")
    raw_end = idx
    # strip the single EOL that precedes endstream, if present
    if raw_end > start and buf[raw_end - 1] == 0x0A:
        raw_end -= 1
        if raw_end > start and buf[raw_end - 1] == 0x0D:
            raw_end -= 1
    elif raw_end > start and buf[raw_end - 1] == 0x0D:
        raw_end -= 1
    lx.pos = idx + 9
    return Stream(obj, bytes(buf[start:raw_end]))
