#!/usr/bin/env python
"""Differential check of the token scanners against the byte-level parsers.

`Lexer.parse_object` (one token-pattern match per token) must agree with
`Lexer._parse_object_bytes`, and `parse_indirect_object` with
`_parse_indirect_object_bytes`, on every input: same value (types and
reprs, recursively), same `lx.pos`, same exception type and message.
Likewise the content-stream scanner `content.parse_content` with the
byte loop `content._parse_content_bytes`: same operator names, same
operand values and types, same exception type and message.
This module holds the corpus (every object body of the pdfgen fixtures,
object-stream members included, framed streams whose /Length is
direct, indirect or bogus, and every page content stream), the seeded
mutations and the comparison.  tests/test_lexer_scanner.py,
tests/test_content_scanner.py and tools/fuzz_sweep.py use it; from the
command line it sweeps N mutated bodies, N mutated framings and N
mutated content streams:

    python tools/lexer_diff.py [n=100000] [seed=1]

and exits 1 on any divergence.
"""
import os
import random
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pdf_extract_ray.engine import content
from pdf_extract_ray.engine.content import (_parse_content_bytes,
                                            parse_content)
from pdf_extract_ray.engine.lexer import (Lexer, _parse_indirect_object_bytes,
                                          parse_indirect_object)
from pdf_extract_ray.engine.objects import (Name, PdfError, PdfNull,
                                            PdfString, Ref, Stream)

_HEADER = re.compile(rb"\d+[\x00\t\n\x0c\r ]+\d+[\x00\t\n\x0c\r ]+obj")
_BODY_END = re.compile(rb"endobj|stream")
# bytes a mutation inserts: the ones that end a fast-path token early or
# send it to the fallback, plus plain token material
_INSERTS = (b"#", b"%", b"(", b"\\", b"R", b">>", b"<<", b"[", b"]", b"/",
            b" ", b"\n", b"\r", b"0", b"-", b".", b"%x\n", b"#4", b"obj",
            b"endobj", b"stream", b"endstream", b"<", b">", b")", b"e")
# and in content streams: what sends a token to the byte loop (escapes,
# nested parens, `#` names, inline images, property lists, nested
# arrays, stray delimiters, bad numbers, odd-nibble hex, empty tokens)
# and the operand shapes the scanner takes itself
_CONTENT_INSERTS = _INSERTS + (
    b"\\(", b"\\n", b"\\053", b"(a(b)c)", b"(x\\)y)", b"/A#20B",
    b" BI /W 2 /H 1 /CS /G /BPC 8 ID \x00EI\n EI ", b" BI /F /AHx ID 0a> EI ",
    b" ID ", b" EI ", b"<< /MCID 3 >> BDC ", b"/P <</K [1 2]>> BDC",
    b"[1 [2 (x)] /N]", b"[(a) -250 (b)]", b"[", b"]", b"}", b"{", b"1.2.3",
    b"--5", b"+", b"+.5", b"-3.", b"7", b"<4>", b"<414>", b"<41 42>", b"()",
    b"<>", b"/ ", b"true", b"null", b"falsey", b"Tj", b" TJ ", b"%c\r",
    b"1" * 700, b"1e50", b"3" * 50 + b".0")


def canon(v):
    """A type-exact, order-exact description of a parsed value."""
    t = type(v)
    if t is dict:
        return ("dict", [(type(k).__name__, k, canon(x)) for k, x in v.items()])
    if t is list:
        return ("list", [canon(x) for x in v])
    if t is Ref:
        return ("Ref", v.num, v.gen)
    if t is Stream:
        return ("Stream", canon(v.dict), v.raw)
    if t in (Name, PdfString, bytes):
        return (t.__name__, bytes(v))
    if t is PdfNull:
        return ("null",)
    return (t.__name__, repr(v))


def _outcome(fn, lx):
    try:
        v = fn(lx)
    except Exception as e:  # the outcome being compared
        return ("raised", type(e).__name__, str(e), lx.pos)
    return ("ok", canon(v), lx.pos)


def content_outcome(fn, buf: bytes):
    """A content parser's result, as operator names and canonical
    operands, or the exception it raised."""
    try:
        ops = fn(buf)
    except Exception as e:  # the outcome being compared
        return ("raised", type(e).__name__, str(e))
    return ("ok", [(type(op).__name__, op, [canon(x) for x in operands])
                   for op, operands in ops])


def content_divergence(buf: bytes):
    """None if the content scanner and the byte loop agree on `buf`,
    else (scanner outcome, byte-loop outcome)."""
    fast = content_outcome(parse_content, buf)
    ref = content_outcome(_parse_content_bytes, buf)
    return None if fast == ref else (fast, ref)


def body_divergence(buf: bytes, pos: int = 0):
    """None if both parsers agree at `pos` (with and without references),
    else (allow_ref, scanner outcome, byte-level outcome)."""
    for allow_ref in (True, False):
        fast = _outcome(lambda lx: lx.parse_object(allow_ref), Lexer(buf, pos))
        ref = _outcome(lambda lx: lx._parse_object_bytes(allow_ref),
                       Lexer(buf, pos))
        if fast != ref:
            return allow_ref, fast, ref
    return None


class Lengths:
    """A document stand-in resolving indirect /Length values; a number
    it does not know raises, like a broken xref entry."""

    def __init__(self, table=None):
        self.table = table or {}

    def get_object(self, ref):
        if ref.num not in self.table:
            raise PdfError(f"no object {ref.num}")
        return self.table[ref.num]


def frame_divergence(buf: bytes, pos: int = 0, doc=None):
    """None if both framings agree at `pos`, else (fast, byte-level)."""
    fast = _outcome(lambda lx: parse_indirect_object(lx, doc), Lexer(buf, pos))
    ref = _outcome(lambda lx: _parse_indirect_object_bytes(lx, doc),
                   Lexer(buf, pos))
    return None if fast == ref else (fast, ref)


def fixture_pdfs():
    """Every argument-free `pdf_*` generator of pdfgen (the
    PDF_GENERATORS table and the damaged/encrypted fixtures)."""
    import pdf_extract_ray.data.pdfgen as g
    out = []
    for name in sorted(dir(g)):
        fn = getattr(g, name)
        if name.startswith("pdf_") and callable(fn):
            try:
                out.append(fn())
            except TypeError:  # needs arguments
                pass
    return out


def fixture_bodies():
    """Every object body of every pdfgen fixture: top-level objects (up
    to their `endobj`/`stream` keyword) and object-stream members."""
    from pdf_extract_ray.engine.document import Document
    from pdf_extract_ray.engine.filters import decode_stream
    out = []
    for buf in fixture_pdfs():
        for m in _HEADER.finditer(buf):
            end = _BODY_END.search(buf, m.end())
            out.append(buf[m.end():end.start() if end else len(buf)])
        try:
            doc = Document(buf)
        except PdfError:
            continue
        for num, entry in list(doc._xref.items()):
            if entry[0] != "n":
                continue
            try:  # damaged and encrypted fixtures may not decode
                obj = doc.get_object(Ref(num, 0))
                if not (isinstance(obj, Stream)
                        and obj.dict.get(b"Type") == b"ObjStm"):
                    continue
                data = decode_stream(obj, doc)
                first = obj.dict.get(b"First", 0)
                offs = [int(x) for x in data[:first].split()[1::2]]
            except Exception:
                continue
            for a, b in zip(offs, offs[1:] + [len(data) - first]):
                out.append(data[first + a:first + b])
    return out


def fixture_framings():
    """Every `N G obj ... endobj` of every pdfgen fixture, stream
    payloads included, as (bytes, Lengths) pairs."""
    out = []
    for buf in fixture_pdfs():
        starts = [m.start() for m in _HEADER.finditer(buf)]
        for a, b in zip(starts, starts[1:] + [len(buf)]):
            out.append((buf[a:b], Lengths()))
    return out


def fixture_content_streams():
    """Every page content stream of every pdfgen fixture that loads
    (encrypted ones with the empty password)."""
    from pdf_extract_ray.engine.document import load_document
    out = []
    for buf in fixture_pdfs():
        try:
            doc = load_document(buf)
            if doc.is_encrypted():
                doc.decrypt("")
            pages = doc.get_pages()
        except Exception:  # damaged fixtures
            continue
        for ref in pages.values():
            try:
                out.append(doc.get_page_content(ref))
            except Exception:
                pass
    return out


def framed_streams(rng: random.Random):
    """Streams whose /Length is right, short, long, negative, indirect
    (resolving right, wrong, or not at all), missing or not a number."""
    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
    n = len(payload)
    eol = rng.choice([b"\n", b"\r\n", b"\r", b"", b" \n"])
    tail = rng.choice([b"\nendstream\nendobj", b"\r\nendstream endobj",
                       b"endstream", b"\nendstream\n%c\nendobj\n1 0 obj",
                       b"\nendstream\nxref", b""])
    lengths = [b"%d" % n, b"%d" % (n + 1), b"%d" % max(n - 1, 0), b"-3",
               b"9 0 R", b"/Name", b"true", b"", b"99999"]
    length = rng.choice(lengths)
    body = b"<< /Filter /None " + (b"/Length " + length if length else b"") \
        + b" >>"
    doc = rng.choice([Lengths({9: n}), Lengths({9: n + 2}),
                      Lengths({9: Name(b"x")}), Lengths(), None])
    return (b"7 0 obj\n" + body + b"\nstream" + eol + payload + tail, doc)


def mutate(rng: random.Random, data: bytes, inserts=_INSERTS) -> bytes:
    """Insert one of `inserts`, flip a byte, or truncate."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.7 or not buf:
            i = rng.randrange(len(buf) + 1)
            buf[i:i] = rng.choice(inserts)
        elif r < 0.85:
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        else:
            del buf[rng.randrange(len(buf)):]
    return bytes(buf)


def content_sweep(n: int, seed: int):
    """n mutated page content streams -> the ones the scanners disagree
    on.  One in eight joins up to 150 fixture streams and scans them
    in windows (`content._WINDOW`) of 1 byte to 4 KB, so that window
    ends fall next to and inside every kind of token."""
    rng = random.Random(seed)
    streams = fixture_content_streams()
    window = content._WINDOW
    bad = []
    try:
        for _ in range(n):
            if rng.random() < 0.125:
                buf = b"\n".join(rng.choice(streams)
                                 for _ in range(rng.randint(2, 150)))
                content._WINDOW = rng.randint(1, 4096)
            else:
                buf = rng.choice(streams)
                content._WINDOW = window
            buf = mutate(rng, buf, _CONTENT_INSERTS)
            if content_divergence(buf) is not None:
                bad.append(buf)
    finally:
        content._WINDOW = window
    return bad


def sweep(n: int, seed: int):
    """n mutated bodies and n mutated framings -> the divergences, as
    (kind, input) pairs."""
    rng = random.Random(seed)
    bodies = fixture_bodies()
    framings = fixture_framings()
    bad = []
    for _ in range(n):
        buf = mutate(rng, rng.choice(bodies))
        if body_divergence(buf) is not None:
            bad.append(("body", buf))
        if rng.random() < 0.5:
            buf, doc = rng.choice(framings)
        else:
            buf, doc = framed_streams(rng)
        buf = mutate(rng, buf)
        if frame_divergence(buf, 0, doc) is not None:
            bad.append(("frame", buf))
    return bad


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    t0 = time.time()
    bad = sweep(n, seed) + [("content", b) for b in content_sweep(n, seed)]
    for kind, buf in bad[:20]:
        print(kind, buf)
    print(f"bodies={n} framings={n} content={n} divergences={len(bad)} "
          f"in {time.time() - t0:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
