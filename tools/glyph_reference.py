#!/usr/bin/env python
"""Glyph positions by an independent per-glyph chain, and a text-state fuzz.

`reference_spans(ops)` rebuilds every glyph's (x, y, font_size) the way
the reference does it (src/lib.rs:1276-1327): for each glyph
`trm = tsm * (tm * ctm)`, then `tm = T(tx, 0) * tm`, and the device maps
`trm` through the flip ctm.  Every product is the full euclid product
written out here, not the engine's `mul`; `q`/`Q` save and restore the
ctm and the text state (tm included), as the engine's graphics state
does.  `page_pdf(content)` is one page whose fonts the chain knows:

    F1  Type1 /GeoSans, widths WIDTHS for codes 32..126, else 0
    F2  Type0 Identity-H (2-byte codes), /W CID_WIDTHS, /DW CID_DW
    F3  Type1 /LigSans, F1's widths, ToUnicode `A` -> no char, `B` -> "ff"
    F4  Type3, widths 750 512.5 333 250 for codes 97..100
    F5  Type1 /HugeSans, widths 1e308, -1e308, 500 for codes 97..99,
        else 0 (advances overflow to +-inf)

`soup(rng)` draws a seeded content stream of BT/ET blocks with
Tj/TJ/Tc/Tw/Tz/Ts/Tm/Td/Tf/cm/q/Q over those fonts (among the numbers:
signed zeros, zero translations, matrices of signed zeros, and now and
then ints whose products overflow to +-inf or reals past float32's
range, which raise OverflowError in the lexer and here alike), and
`soup_divergence(rng)` compares the span columns the engine resolves
(`devices.place_text`) with the chain, the text each glyph's span
covers with its decoded char, and the text `place_text` joins with
`PlainTextOutput`'s (`extract_text_from_mem`).  tests/
test_glyph_geometry.py and tools/fuzz_sweep.py use this module; from the
command line it sweeps N soups, one in four a `translation_soup`:

    python tools/glyph_reference.py [n=2000] [seed=1]

and exits 1 on any divergence.
"""
import os
import random
import struct
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page

MEDIA_HEIGHT = 792.0
FIRST_CHAR = 32
# widths of codes 32..126: uneven integers and reals (parsed via float32)
WIDTHS = [(c * 37) % 611 + 190 if c % 3 else (c * 53) % 587 + 133.7
          for c in range(FIRST_CHAR, 127)]
CID_WIDTHS = {0x41: 500, 0x42: 733.3, 0x43: 612}
CID_DW = 1000
TYPE3_WIDTHS = {97: 750, 98: 512.5, 99: 333, 100: 250}
HUGE_WIDTHS = {97: 10 ** 308, 98: -10 ** 308, 99: 500}
IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _f32(v):
    """A content-stream number as the lexer reads it (a real past
    float32's range raises OverflowError, as `objects.f32` does)."""
    if isinstance(v, float):
        return struct.unpack("<f", struct.pack("<f", v))[0]
    return float(v)


def _mul(a, b):
    """euclid Transform2D::post_transform, every term kept."""
    return (a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
            a[4] * b[0] + a[5] * b[2] + b[4],
            a[4] * b[1] + a[5] * b[3] + b[5])


def _translation(tx, ty):
    return (1.0, 0.0, 0.0, 1.0, tx, ty)


def _num(v):
    """A number as content-stream syntax (no exponent)."""
    if isinstance(v, float):
        return f"{v:.1f}" if abs(v) >= 1e16 else repr(v)
    return str(v)


def _string(s):
    """str: a literal string of its (ASCII) chars; bytes: a hex string."""
    if isinstance(s, bytes):
        return "<" + s.hex() + ">"
    return "(" + s.replace("\\", "\\\\").replace("(", "\\(").replace(
        ")", "\\)") + ")"


def _array(items):
    return "[" + " ".join(_string(e) if isinstance(e, (str, bytes))
                          else _num(e) for e in items) + "]"


def serialize(ops) -> bytes:
    """Ops as `(op, *operands)` tuples -> a content stream."""
    out = []
    for op, *args in ops:
        if op == "Tf":
            out.append(f"/{args[0]} {_num(args[1])} Tf")
        elif op == "Tj":
            out.append(f"{_string(args[0])} Tj")
        elif op == "TJ":
            out.append(f"{_array(args[0])} TJ")
        else:
            out.append(" ".join([*map(_num, args), op]))
    return " ".join(out).encode()


def page_pdf(content: bytes) -> bytes:
    """One page showing `content` with the fonts F1..F5 (module doc)."""
    b = PdfBuilder()
    widths = " ".join(_num(w) for w in WIDTHS)
    f1 = b.add((f"<< /Type /Font /Subtype /Type1 /BaseFont /GeoSans "
                f"/FirstChar {FIRST_CHAR} /LastChar 126 /Widths [{widths}] "
                f">>").encode())
    cmap = (b"1 begincodespacerange <0000> <ffff> endcodespacerange\n"
            b"2 beginbfchar <0041> <0041> <0043> <2603> endbfchar\n")
    desc = b.add(b"<< /Type /FontDescriptor /FontName /GeoCID /Flags 4 "
                 b"/FontBBox [0 0 1000 1000] /ItalicAngle 0 /Ascent 800 "
                 b"/Descent -200 /CapHeight 700 /StemV 80 >>")
    w = " ".join(f"{c} [{_num(v)}]" for c, v in sorted(CID_WIDTHS.items()))
    cid = b.add(f"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /GeoCID "
                f"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) "
                f"/Supplement 0 >> /FontDescriptor {desc} 0 R "
                f"/DW {CID_DW} /W [{w}] >>".encode())
    f2 = b.add(f"<< /Type /Font /Subtype /Type0 /BaseFont /GeoCID "
               f"/Encoding /Identity-H /DescendantFonts [{cid} 0 R] "
               f"/ToUnicode {b.stream('<< >>', cmap)} 0 R >>".encode())
    lig = (b"1 begincodespacerange <00> <ff> endcodespacerange\n"
           b"2 beginbfchar <41> <> <42> <00660066> endbfchar\n")
    f3 = b.add(f"<< /Type /Font /Subtype /Type1 /BaseFont /LigSans "
               f"/Encoding /WinAnsiEncoding /FirstChar {FIRST_CHAR} "
               f"/LastChar 126 /Widths [{widths}] "
               f"/ToUnicode {b.stream('<< >>', lig)} 0 R >>".encode())
    glyph = b.stream("<< >>", b"0 0 750 750 re f")
    enc = b.add(b"<< /Type /Encoding /Differences [97 /a /b /c /space] >>")
    f4 = b.add((f"<< /Type /Font /Subtype /Type3 /FontBBox [0 0 750 750] "
                f"/FontMatrix [0.001 0 0 0.001 0 0] /CharProcs << /a {glyph} "
                f"0 R /b {glyph} 0 R /c {glyph} 0 R >> /Encoding {enc} 0 R "
                f"/FirstChar 97 /LastChar 100 /Widths ["
                + " ".join(map(_num, TYPE3_WIDTHS.values())) + "] >>")
               .encode())
    f5 = b.add((f"<< /Type /Font /Subtype /Type1 /BaseFont /HugeSans "
                f"/FirstChar 97 /LastChar 99 /Widths ["
                + " ".join(map(str, HUGE_WIDTHS.values())) + "] >>")
               .encode())
    root = _single_page(b, {"F1": f1, "F2": f2, "F3": f3, "F4": f4,
                            "F5": f5}, content,
                        media_box=f"[0 0 612 {int(MEDIA_HEIGHT)}]")
    return b.build(root)


def _width(font: str, code: int) -> float:
    """The width of `code` in `font`, as the engine reads it."""
    if font in ("F1", "F3"):
        return _f32(WIDTHS[code - FIRST_CHAR]) if 32 <= code <= 126 else 0.0
    if font == "F2":
        return _f32(CID_WIDTHS.get(code, CID_DW))
    if font == "F4":
        return _f32(TYPE3_WIDTHS[code])
    return float(HUGE_WIDTHS.get(code, 0))


def _codes(font: str, s):
    """-> [(code, byte length)] of a shown string."""
    raw = s if isinstance(s, bytes) else s.encode("latin-1")
    if font == "F2":  # a trailing odd byte is no code
        return [(raw[i] << 8 | raw[i + 1], 2)
                for i in range(0, len(raw) - 1, 2)]
    return [(c, 1) for c in raw]


def reference_spans(ops):
    """(x, y, font_size) of every glyph, in order, by the reference's
    chain."""
    flip = (1.0, 0.0, 0.0, -1.0, 0.0, MEDIA_HEIGHT)
    ctm, stack = IDENTITY, []
    tm = tlm = IDENTITY
    h, tc, tw, rise, fs, font = 1.0, 0.0, 0.0, 0.0, float("nan"), None
    out = []

    def show(s):
        nonlocal tm
        for code, length in _codes(font, s):
            tsm = (h, 0.0, 0.0, 1.0, 0.0, rise)
            trm = _mul(tsm, _mul(tm, ctm))
            pos = _mul(trm, flip)
            tvx, tvy = fs * trm[0] + fs * trm[2], fs * trm[1] + fs * trm[3]
            area = tvx * tvy
            out.append((pos[4], pos[5],
                        area ** 0.5 if area >= 0.0 else float("nan")))
            w0 = _width(font, code) / 1000.0
            spacing = tc + tw if (code == 32 and length == 1) else tc
            tx = h * ((w0 - 0.0 / 1000.0) * fs + spacing)
            tm = _mul(_translation(tx, 0.0), tm)

    for op, *args in ops:
        nums = [_f32(a) for a in args if isinstance(a, (int, float))]
        if op == "q":
            stack.append((ctm, tm, h, tc, tw, rise, fs, font))
        elif op == "Q":
            if stack:
                ctm, tm, h, tc, tw, rise, fs, font = stack.pop()
        elif op == "cm":
            ctm = _mul(tuple(nums), ctm)
        elif op in ("BT", "ET"):
            tm = tlm = IDENTITY
        elif op == "Tm":
            tm = tlm = tuple(nums)
        elif op == "Td":
            tm = tlm = _mul(_translation(*nums), tlm)
        elif op == "Tf":
            font, fs = args[0], _f32(args[1])
        elif op == "Tz":
            h = nums[0] / 100.0
        elif op == "Tc":
            tc = nums[0]
        elif op == "Tw":
            tw = nums[0]
        elif op == "Ts":
            rise = nums[0]
        elif op == "Tj":
            show(args[0])
        elif op == "TJ":
            for e in args[0]:
                if isinstance(e, (str, bytes)):
                    show(e)
                else:
                    tx = h * ((0.0 - _f32(e) / 1000.0) * fs)
                    tm = _mul(_translation(tx, 0.0), tm)
    return out


def engine_spans(pdf: bytes):
    """(x, y, font_size) of every glyph from the span columns the
    pipeline resolves, the text each glyph's (start, end) covers, and
    the document's text as the pipeline places it."""
    from pdf_extract_ray.engine.api import extract_text_and_span_columns_from_mem
    from pdf_extract_ray.engine.devices import place_text
    (text,), cols = place_text([extract_text_and_span_columns_from_mem(pdf)])
    return (list(zip(cols[3].tolist(), cols[4].tolist(), cols[5].tolist())),
            [text[s:e] for s, e in zip(cols[1].tolist(), cols[2].tolist())],
            text)


def glyph_chars(pdf: bytes):
    """Every glyph's decoded text, from per-glyph `output_character`
    events (`OutputDev`'s own expansion of each text run)."""
    from pdf_extract_ray.engine.api import load_document, output_doc
    from pdf_extract_ray.engine.devices import OutputDev

    class Chars(OutputDev):
        def __init__(self):
            self.chars = []

        def output_character(self, trm, width, spacing, font_size, char):
            self.chars.append(char)

    dev = Chars()
    output_doc(load_document(pdf), dev)
    return dev.chars


# -- text-state soups --------------------------------------------------------

_NUMS = (0, 1, -1, 2, 12, 0.5, -0.0, 0.0, 3.25, -2.5, 100, 0.001, 1e-5,
         250.75, -1000.5)
# ints whose products overflow to +-inf (non-finite ctm, run states and
# advances), and reals past float32's range (the lexer raises on them)
_HUGE = (10 ** 200, -10 ** 200, 1e39, -1e39)
_ZEROS = (0, 0.0, -0.0)
# shown codes per font (F4 raises on a code without a width)
_CODES = {"F1": b" !AaBbz~.,'-", "F3": b"xyzAB ab", "F4": b"abcd",
          "F5": b"abcz "}
_CID_CODES = (0x0041, 0x0042, 0x0043, 0x0020, 0x00FF, 0x2603, 0x0000)


def _number(rng):
    k = rng.random()
    if k < 0.003:
        return rng.choice(_HUGE)
    if k < 0.5:
        return rng.choice(_NUMS)
    return round(rng.uniform(-60, 60), rng.randint(0, 4))


def _translation_number(rng):
    """A Td operand or TJ number: a signed zero one time in four."""
    return rng.choice(_ZEROS) if rng.random() < 0.25 else _number(rng)


def _shown(rng, font):
    n = rng.choice((0, 1, 2, 3, 5, 8, 13, 40, 120))
    if font == "F2":
        return b"".join(rng.choice(_CID_CODES).to_bytes(2, "big")
                        for _ in range(n)) + (b"\x41" if rng.random() < 0.1
                                              else b"")
    raw = bytes(rng.choice(_CODES[font]) for _ in range(n))
    return raw if rng.random() < 0.3 else raw.decode("latin-1")


def _matrix(rng):
    kind = rng.random()
    if kind < 0.1:
        # signed zeros, where a translation may change the bits of the
        # linear part (1.0 * -0.0 + 0.0 * t2 is 0.0 unless t2 < 0), and
        # now and then a huge entry
        return tuple(rng.choice(_ZEROS) if rng.random() < 0.6
                     else rng.choice(_HUGE) if rng.random() < 0.05
                     else rng.choice((1, -1, 0.5, 2)) for _ in range(6))
    if kind < 0.3:
        a, d = _number(rng), _number(rng)
        return (a, 0, 0, d, _number(rng), _number(rng))
    if kind < 0.6:
        c, s = rng.choice(((0.8, 0.6), (0, 1), (-1, 0), (0.6, -0.8)))
        k = rng.choice((1, 2, 0.5, 11))
        return (c * k, s * k, -s * k, c * k, _number(rng), _number(rng))
    return tuple(_number(rng) for _ in range(6))


def soup(rng):
    """A seeded list of ops: BT/ET blocks of text-state and show ops."""
    font = rng.choice(("F1", "F2", "F3", "F4", "F5"))
    ops, fonts = [("Tf", font, 12)], []  # q/Q save and restore the font
    for _block in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            ops.append(("q",))
            fonts.append(font)
        if rng.random() < 0.3:
            ops.append(("cm", *_matrix(rng)))
        font = rng.choice(("F1", "F2", "F3", "F4", "F5"))
        ops += [("BT",), ("Tf", font, rng.choice((12, 1, 9.5, 0.5, -7, 20000)
                                                 if font == "F5" else
                                                 (12, 1, 9.5, 0.5, -7)))]
        for _op in range(rng.randint(1, 14)):
            k = rng.random()
            if k < 0.3:
                ops.append(("Tj", _shown(rng, font)))
            elif k < 0.45:
                ops.append(("TJ", [_shown(rng, font) if rng.random() < 0.6
                                   else _translation_number(rng)
                                   for _ in range(rng.randint(0, 6))]))
            elif k < 0.5:
                ops.append(("Tc", _number(rng)))
            elif k < 0.55:
                ops.append(("Tw", _number(rng)))
            elif k < 0.6:
                ops.append(("Tz", rng.choice((100, 50, 0, -100, 80.5))))
            elif k < 0.65:
                ops.append(("Ts", _number(rng)))
            elif k < 0.72:
                ops.append(("Tm", *_matrix(rng)))
            elif k < 0.78:
                ops.append(("Td", _translation_number(rng),
                            _translation_number(rng)))
            elif k < 0.84:
                font = rng.choice(("F1", "F2", "F3", "F4", "F5"))
                ops.append(("Tf", font, rng.choice((12, 1, 9.5, -7))))
            elif k < 0.88:
                ops.append(("cm", *_matrix(rng)))
            elif k < 0.94:
                ops.append(("q",))
                fonts.append(font)
            elif fonts:
                ops.append(("Q",))
                font = fonts.pop()
        ops.append(("ET",))
    return ops


def translation_soup(rng):
    """A seeded list of ops that translates tm where a translation may
    change its linear part or where tlm is not tm: strings under Tm and
    cm matrices of signed zeros (now and then with a huge entry), Td and
    TJ numbers (zeros among them), and `q Tm .. Q` between a string and
    a Td (Q restores tm, not tlm)."""
    font = rng.choice(("F1", "F2", "F3", "F4", "F5"))
    ops = [("BT",), ("Tf", font, rng.choice((12, 9.5, -7)))]
    for _block in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            ops.append(("cm", *_matrix(rng)))
        if rng.random() < 0.2:
            ops.append(("Ts", rng.choice(_ZEROS + (2, -1.5))))
        ops += [("Tm", *_matrix(rng)), ("Tj", _shown(rng, font))]
        if rng.random() < 0.6:
            ops += [("q",), ("Tm", *_matrix(rng))]
            if rng.random() < 0.5:
                ops.append(("Tj", _shown(rng, font)))
            ops.append(("Q",))
        for _op in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                ops.append(("Td", _translation_number(rng),
                            _translation_number(rng)))
            else:
                ops.append(("TJ", [_shown(rng, font),
                                   _translation_number(rng),
                                   _shown(rng, font)]))
            ops.append(("Tj", _shown(rng, font)))
    return ops + [("ET",)]


def soup_divergence(rng, make=soup):
    """None, or what differs between the engine's span columns and the
    reference chain on one soup (`make(rng)`), or between its placed
    text and `PlainTextOutput`'s."""
    ops = make(rng)
    try:
        want = reference_spans(ops)
    except OverflowError:  # a real past float32's range
        want = None
    pdf = page_pdf(serialize(ops))
    try:
        got, covered, text = engine_spans(pdf)
    except OverflowError as e:
        if want is None:
            return None
        return f"engine raised {e!r}, the chain did not, in {ops!r}"
    if want is None:
        return f"the chain overflows float32, the engine did not, in {ops!r}"
    # repr: -0.0 and 0.0 differ, NaN equals NaN
    if repr(got) != repr(want):
        for i, (a, b) in enumerate(zip(got, want)):
            if repr(a) != repr(b):
                return f"glyph {i}: engine {a!r} != reference {b!r} in {ops!r}"
        return f"{len(got)} glyphs != {len(want)} in {ops!r}"
    chars = glyph_chars(pdf)
    if covered != chars:
        return f"glyph spans cover {covered!r}, not {chars!r} in {ops!r}"
    from pdf_extract_ray.engine.api import extract_text_from_mem
    plain = extract_text_from_mem(pdf)
    if text != plain:
        return f"placed text {text!r} != PlainTextOutput's {plain!r} in {ops!r}"
    return None


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    rng = random.Random(int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    t0, bad = time.time(), 0
    for i in range(n):
        # one soup in four a translation soup
        diff = soup_divergence(rng, translation_soup if i % 4 == 3
                               else soup)
        if diff:
            bad += 1
            print(diff[:2000])
    print(f"soups={n} divergent={bad} ({time.time() - t0:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
