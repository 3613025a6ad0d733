#!/usr/bin/env python
"""Differential check of the content-stream interpreter.

`interpreter.Processor.process_stream` runs a stream's operations as the
scanner matches them, with the text operators handled inline from the
match.  The reference here lists the stream first
(`content.parse_content`) and feeds each operation through the same
handlers (`Processor.apply`), as the interpreter did before it consumed
the matches itself.  Both run on one page of `glyph_reference.page_pdf`
(fonts F1..F5) into a device that records every call it gets: each text
run's fields and folded end, `end_line`, `stroke` and `fill`.  They must
raise the same exception type and text, and, when neither raises, record
the same calls (reprs, so -0.0 and NaN compare as themselves), also
before an exception.  A stream that does not parse raises before the
reference runs any operation; there only the exceptions are compared
(a caller drops the device of a stream that raises).

The streams are `glyph_reference` soups (every text-state and show
operator; one in four a `translation_soup`) with seeded mutations: the
hot operators with wrong operand counts and types, comments and NULs
between operands, property lists before `BDC`, inline images, numbers
the operation matches leave to the token path, and windows
(`content._WINDOW`) of 1 byte to 4 KB so that tokens and operations
straddle window ends.  tests/test_content_scanner.py and
tools/fuzz_sweep.py use it; from the command line:

    python tools/interp_diff.py [n=20000] [seed=1]

exits 1 on any divergence.
"""
import logging
import os
import random
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, HERE)

import glyph_reference  # tools/glyph_reference.py, next to this script
from lexer_diff import mutate  # tools/lexer_diff.py, next to this script
from pdf_extract_ray.engine import content
from pdf_extract_ray.engine.content import parse_content
from pdf_extract_ray.engine.devices import OutputDev
from pdf_extract_ray.engine.interpreter import (Processor, StreamState,
                                                fold_run)
from pdf_extract_ray.engine.objects import maybe_deref

# what a mutation inserts: operators with too few, too many or wrong
# operands, separators the operation matches do not take, operands that
# reach an operator through the token path or the byte loop
INSERTS = (
    b" 1 Td ", b" 1 2 3 Td ", b" (x) Td ", b" Td ", b" /F1 Td ", b" 1 Tm ",
    b" 1 2 3 4 5 6 7 Tm ", b" Tj ", b" 1 Tj ", b" [(a)] Tj ", b" (a) TJ ",
    b" 5 TJ ", b" [(a) [1] (b)] TJ ", b" [(a) true null /N <41> 1.5] TJ ",
    b" Tf ", b" /F1 Tf ", b" 12 Tf ", b" /F9 12 Tf ", b" /F1 1 2 Tf ",
    b" (F1) 12 Tf ", b" /F2 -0 Tf ", b" q ", b" Q ", b" Q Q ", b" BT ",
    b" ET ", b" T* ", b" 1 2 TD ", b" 1 TD ", b" 1 0 0 1 0 0 cm ",
    b" 1 cm ", b" 2 Tc ", b" Tc ", b" (a) Tc ", b" 50 Tz ", b" -0 Tz ",
    b" 3 TL ", b" 4 Ts ", b" (a) ' ", b" 1 2 (a) \" ", b" %c\n", b"%",
    b"\x00", b" \x00 ", b"\r", b"/P <</MCID 0>> BDC ", b" /Span BMC ",
    b" EMC ", b" /P << /K [1 2] >> BDC ",
    b" BI /W 2 /H 1 /CS /G /BPC 8 ID \x00\x01 EI ", b" BI /F /AHx ID 0a> EI ",
    b" 0 0 m 1 1 l 2 2 3 3 4 4 c h S ", b" 0 0 5 5 re f ", b" 1 1 v ",
    b" n ", b" /G0 gs ", b" /Cs cs ", b" 1 sc ", b" /Im Do ",
    b" -0 -0 Td ", b" 1 0 0 1 -0.0 -0.0 Tm -0 -0 Td (a) Tj ",
    b" 1 0 0 1 -0.0 -0.0 Tm -0 -0 Tm (a) Tj ", b" +.5 -.5 Td ", b" 5. 007 Td ", b" 1e5 2 Td ",
    b" " + b"3" * 40 + b" 1 Td ", b" " + b"3" * 50 + b".0 1 Td ",
    b" " + b"9" * 400 + b" 1 Td ", b" 1 " + b"4" * 39 + b".5 Td ",
    b" true 1 Td ", b" 1 null Td ", b"(", b")", b"[", b"]", b"<", b">",
    b"\\", b"1.2.3 ", b"--5 ", b"Tj", b"Td", b"TJ", b" ", b"\n")


class Recorder(OutputDev):
    """Records each call; `fold` makes `output_run` return the end tm
    (as `PlainTextOutput` does), else the run stays pending."""

    def __init__(self, fold: bool):
        self.fold = fold
        self.calls = []

    def output_run(self, run):
        end = fold_run(run)
        (text, state, t4, t5, w_last, n, codes, _advances, char_lens,
         _glyphs) = run
        self.calls.append(("run", text, repr((
            state, t4, t5, w_last, n, codes, char_lens, end))))
        return end[2:] if self.fold else None

    def end_line(self):
        self.calls.append(("end_line",))

    def stroke(self, ctm, colorspace, color, path):
        self.calls.append(("stroke", repr((ctm, colorspace, color, path))))

    def fill(self, ctm, colorspace, color, path):
        self.calls.append(("fill", repr((ctm, colorspace, color, path))))


_PAGE = []


def page():
    """(doc, resources, media box) of the fonts page, built once."""
    if not _PAGE:
        from pdf_extract_ray.engine.document import load_document
        doc = load_document(glyph_reference.page_pdf(b""))
        page_dict = doc.get_object(doc.get_pages()[1])
        resources = maybe_deref(doc, page_dict[b"Resources"])
        _PAGE.append((doc, resources, (0.0, 0.0, 612.0, 792.0)))
    return _PAGE[0]


def fused(buf: bytes, device) -> None:
    doc, resources, media_box = page()
    Processor().process_stream(doc, buf, resources, media_box, device, 1)


def reference(buf: bytes, device) -> None:
    """The list of operations first, then each through the handlers."""
    doc, resources, media_box = page()
    p = Processor()
    st = StreamState(doc, resources, media_box, device, 1)
    for op, operands in parse_content(buf):
        p.apply(st, op, operands)


def outcome(run, buf: bytes, fold: bool):
    """("ok", calls) or ("raised", type, text, calls before it)."""
    dev = Recorder(fold)
    try:
        run(buf, dev)
    except Exception as e:  # the outcome being compared
        return ("raised", type(e).__name__, str(e), dev.calls)
    return ("ok", dev.calls)


def interpreter_divergence(buf: bytes):
    """None if the interpreter and the reference agree on `buf` (with
    and without the device folding runs), else both outcomes.  When the
    stream does not parse, the reference runs no operation, so only the
    exceptions are compared."""
    try:
        parse_content(buf)
        parsed = True
    except Exception:  # the reference raises it before any operation
        parsed = False
    for fold in (False, True):
        got, want = outcome(fused, buf, fold), outcome(reference, buf, fold)
        if not parsed:
            got, want = got[:3], want[:3]
        if got != want:
            return got, want
    return None


def soup_stream(rng: random.Random) -> bytes:
    """A mutated text-state soup (the module docstring)."""
    make = (glyph_reference.translation_soup if rng.random() < 0.25
            else glyph_reference.soup)
    buf = glyph_reference.serialize(make(rng))
    if rng.random() < 0.2:
        buf = b"\n".join([buf] * rng.randint(2, 40))
    return mutate(rng, buf, INSERTS) if rng.random() < 0.9 else buf


def sweep_one(rng: random.Random):
    """One soup, in a seeded window size: None or (stream, outcomes)."""
    buf = soup_stream(rng)
    window = content._WINDOW
    if rng.random() < 0.5:
        content._WINDOW = rng.randint(1, 4096)
    try:
        diff = interpreter_divergence(buf)
    finally:
        content._WINDOW = window
    return None if diff is None else (buf, diff)


def sweep(n: int, seed: int):
    """n soups -> the (stream, outcomes) pairs that diverge."""
    rng = random.Random(seed)
    return [d for d in (sweep_one(rng) for _ in range(n)) if d is not None]


def seeded_divergence(data: bytes):
    """One soup seeded by `data`'s CRC-32 (tools/fuzz_sweep.py)."""
    return sweep_one(random.Random(zlib.crc32(data)))


def main() -> int:
    # `Q` with no saved state logs a warning on both sides
    logging.getLogger("pdf_extract_ray.engine.interpreter").setLevel(
        logging.ERROR)
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    t0 = time.time()
    bad = sweep(n, seed)
    for buf, diff in bad[:10]:
        print(f"{buf!r:.300}\n  {diff!r:.600}")
    print(f"streams={n} divergences={len(bad)} in {time.time() - t0:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
