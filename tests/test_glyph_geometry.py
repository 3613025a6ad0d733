"""Glyph positions against an independent per-glyph reference.

`show_text` folds a string's advances into t4/t5 sequences and the span
columns are resolved later in numpy (`devices.resolve_span_columns`).
These tests rebuild every glyph's (x, y) the way the reference does it
(src/lib.rs:1276-1327): for each glyph `trm = tsm * (tm * ctm)`, then
`tm = T(tx, 0) * tm`, and the device maps `trm` through the flip ctm.
Every product is the full euclid product written out here, not the
engine's `mul`.  The fixtures cover each branch the fast paths take:
scaled and rotated `Tm`, a rotating `cm`, `Tz`/`Tc`/`Tw`/`Ts`, baselines
at y = 0 and -0, TJ kerns of both signs and a 2-byte Identity-H font.
"""
import struct

import pyarrow as pa
import pytest

from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page
from pdf_extract_ray.engine.api import extract_text_and_spans_from_mem
from pdf_extract_ray.pipelines.extract import ExtractBatch

MEDIA_HEIGHT = 792.0
FIRST_CHAR = 32
# widths of codes 32..126: uneven integers and reals (parsed via float32)
WIDTHS = [(c * 37) % 611 + 190 if c % 3 else (c * 53) % 587 + 133.7
          for c in range(FIRST_CHAR, 127)]
CID_WIDTHS = {0x41: 500, 0x42: 733.3, 0x43: 612}
CID_DW = 1000


def _f32(v):
    """A content-stream number as the lexer reads it."""
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


IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _num(v):
    return repr(v) if isinstance(v, float) else str(v)


def _serialize(ops):
    out = []
    for op, *args in ops:
        if op == "Tf":
            out.append(f"/{args[0]} {_num(args[1])} Tf")
        elif op in ("Tj", "TJ"):
            out.append(f"{_array(args[0]) if op == 'TJ' else _string(args[0])} "
                       f"{op}")
        else:
            out.append(" ".join([*map(_num, args), op]))
    return " ".join(out).encode()


def _string(s):
    if isinstance(s, bytes):  # 2-byte codes
        return "<" + s.hex() + ">"
    return "(" + s.replace("\\", "\\\\").replace("(", "\\(").replace(
        ")", "\\)") + ")"


def _array(items):
    return "[" + " ".join(_string(e) if isinstance(e, (str, bytes))
                          else _num(e) for e in items) + "]"


def _reference_positions(ops):
    """(x, y) of every glyph, in order, by the reference's chain."""
    flip = (1.0, 0.0, 0.0, -1.0, 0.0, MEDIA_HEIGHT)
    ctm, stack = IDENTITY, []
    tm = tlm = IDENTITY
    h, tc, tw, rise, fs, font = 1.0, 0.0, 0.0, 0.0, float("nan"), None
    out = []

    def show(s):
        nonlocal tm
        if isinstance(s, bytes):
            codes = [(s[i] << 8 | s[i + 1], 2) for i in range(0, len(s), 2)]
        else:
            codes = [(ord(c), 1) for c in s]
        for code, length in codes:
            tsm = (h, 0.0, 0.0, 1.0, 0.0, rise)
            trm = _mul(tsm, _mul(tm, ctm))
            pos = _mul(trm, flip)
            out.append((pos[4], pos[5]))
            if font == "F1":
                w0 = _f32(WIDTHS[code - FIRST_CHAR]) / 1000.0
            else:
                w0 = float(CID_WIDTHS.get(code, CID_DW))
                w0 = _f32(w0) / 1000.0
            spacing = tc + tw if (code == 32 and length == 1) else tc
            tx = h * ((w0 - 0.0 / 1000.0) * fs + spacing)
            tm = _mul(_translation(tx, 0.0), tm)

    for op, *args in ops:
        nums = [_f32(a) for a in args if isinstance(a, (int, float))]
        if op == "q":
            stack.append(ctm)
        elif op == "Q":
            ctm = stack.pop()
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


def _pdf(ops):
    b = PdfBuilder()
    f1 = b.add(("<< /Type /Font /Subtype /Type1 /BaseFont /GeoSans "
                f"/FirstChar {FIRST_CHAR} /LastChar 126 /Widths ["
                + " ".join(_num(w) for w in WIDTHS) + "] >>").encode())
    cmap = (b"1 begincodespacerange <0000> <ffff> endcodespacerange\n"
            b"2 beginbfchar <0041> <0041> <0043> <2603> endbfchar\n")
    cm = b.stream("<< >>", cmap)
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
               f"/ToUnicode {cm} 0 R >>".encode())
    root = _single_page(b, {"F1": f1, "F2": f2}, _serialize(ops),
                        media_box=f"[0 0 612 {int(MEDIA_HEIGHT)}]")
    return b.build(root)


CASES = {
    # t0 = 10 (the advance multiply is not skipped), t1 = 0, t5 != 0
    "scaled_tm": [("BT",), ("Tf", "F1", 1), ("Tm", 10, 0, 0, 10, 72, 700),
                  ("Tj", "Scaled text"), ("ET",)],
    # t1 != 0: t5 moves with every glyph
    "rotated_tm": [("BT",), ("Tf", "F1", 12),
                   ("Tm", 0.8, 0.6, -0.6, 0.8, 100.5, 300.25),
                   ("Tj", "tilted line"), ("Td", 0, -14.5),
                   ("Tj", "next one"), ("ET",)],
    "quarter_turn_tm": [("BT",), ("Tf", "F1", 9),
                        ("Tm", 0, 1, -1, 0, 300, 200), ("Tj", "upward"),
                        ("ET",)],
    "rotating_cm": [("q",), ("cm", 0.8, 0.6, -0.6, 0.8, 100, 50), ("BT",),
                    ("Tf", "F1", 11), ("Td", 72, 600), ("Tj", "in a cm"),
                    ("ET",), ("Q",), ("BT",), ("Tf", "F1", 11),
                    ("Td", 72, 100), ("Tj", "after Q"), ("ET",)],
    "tz_tc_tw_ts": [("BT",), ("Tf", "F1", 14), ("Td", 50, 500),
                    ("Tz", 50), ("Tj", "half wide"), ("Tz", 100),
                    ("Tc", 1.5), ("Tw", 3.25), ("Tj", "a b  c"),
                    ("Ts", 5), ("Tj", "up"), ("Ts", -2.5), ("Tc", -0.3),
                    ("Tj", "down low"), ("ET",)],
    # t5 == 0 and t5 == -0.0 take the full t5 fold
    "baseline_zero": [("BT",), ("Tf", "F1", 12),
                      ("Tm", 1, 0, 0, 1, 72, 0), ("Tj", "on zero"),
                      ("Tm", 1, 0, 0, 1, 72, -0.0), ("Tj", "on minus zero"),
                      ("Tm", 1, 0, 0, 1, -0.0, -0.0), ("Tj", "corner"),
                      ("ET",)],
    "tj_kerns": [("BT",), ("Tf", "F1", 12), ("Td", 72, 650),
                 ("TJ", ["Ke", -250, "rn", 120, "ed", -1000.5, "wide", 333,
                         " ", 0, "zero"]),
                 ("Tm", 2, 0, 0, 2, 72, 400),
                 ("TJ", ["big", 500, "Kern", -77.7, "s"]), ("ET",)],
    "identity_h": [("BT",), ("Tf", "F2", 12), ("Td", 72, 700),
                   ("Tw", 40), ("Tj", bytes.fromhex("004100420020004300ff")),
                   ("Tf", "F1", 12), ("TJ", ["then ", -50, "simple"]),
                   ("Tf", "F2", 7), ("Tz", 80),
                   ("TJ", [bytes.fromhex("0043"), 90,
                           bytes.fromhex("00410042")]),
                   ("ET",)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_span_positions_match_reference_chain(name):
    ops = CASES[name]
    pdf = _pdf(ops)
    want = _reference_positions(ops)
    _text, spans = extract_text_and_spans_from_mem(pdf)
    # repr: -0.0 and 0.0 differ, NaN equals NaN
    assert repr([(x, y) for (_p, _s, _e, x, y, _fs) in spans]) == repr(want)
    # the batch path: the UDF's Arrow spans column, with a second
    # document in the same batch
    batch = pa.table({"url": ["a", "b"],
                      "html": pa.array([_pdf(CASES["scaled_tm"]), pdf],
                                       pa.binary())})
    col = ExtractBatch(with_spans=True)(batch).column("spans").to_pylist()
    assert repr([(s["x"], s["y"]) for s in col[1]]) == repr(want)
    assert repr([tuple(s.values()) for s in col[1]]) == repr(spans)


# -- text runs -------------------------------------------------------------
#
# A 1-byte font whose shown codes each decode to one char hands the span
# device a `GlyphRun` (`PdfFont.glyph_run`): the text comes from one
# decode call and no per-glyph tuple or char list is built.  Its text and
# SpanGeometry buffers must equal the per-glyph path's bit for bit.

def _runs_pdf(content: bytes) -> bytes:
    """One page with the fonts the run cases use:
    F1 the widths font above; F2 Identity-H (2-byte codes);
    F3 a ToUnicode mapping `A` to no char and `B` to two;
    F4 Type3; F5 widths of +-1e308, whose advances overflow to +-inf."""
    b = PdfBuilder()
    widths = " ".join(_num(w) for w in WIDTHS)
    f1 = b.add((f"<< /Type /Font /Subtype /Type1 /BaseFont /GeoSans "
                f"/FirstChar {FIRST_CHAR} /LastChar 126 /Widths [{widths}] "
                f">>").encode())
    cmap = (b"1 begincodespacerange <0000> <ffff> endcodespacerange\n"
            b"1 beginbfchar <0041> <0041> endbfchar\n")
    desc = b.add(b"<< /Type /FontDescriptor /FontName /GeoCID /Flags 4 "
                 b"/FontBBox [0 0 1000 1000] /ItalicAngle 0 /Ascent 800 "
                 b"/Descent -200 /CapHeight 700 /StemV 80 >>")
    cid = b.add(f"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /GeoCID "
                f"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) "
                f"/Supplement 0 >> /FontDescriptor {desc} 0 R /DW 600 >>"
                .encode())
    f2 = b.add(f"<< /Type /Font /Subtype /Type0 /BaseFont /GeoCID "
               f"/Encoding /Identity-H /DescendantFonts [{cid} 0 R] "
               f"/ToUnicode {b.stream('<< >>', cmap)} 0 R >>".encode())
    lig = (b"1 begincodespacerange <00> <ff> endcodespacerange\n"
           b"2 beginbfchar <41> <> <42> <00660066> endbfchar\n")
    f3 = b.add(f"<< /Type /Font /Subtype /Type1 /BaseFont /LigSans "
               f"/Encoding /WinAnsiEncoding /FirstChar {FIRST_CHAR} /LastChar 126 /Widths [{widths}] "
               f"/ToUnicode {b.stream('<< >>', lig)} 0 R >>".encode())
    glyph = b.stream("<< >>", b"0 0 750 750 re f")
    enc = b.add(b"<< /Type /Encoding /Differences [97 /a /b /c /space] >>")
    f4 = b.add(f"<< /Type /Font /Subtype /Type3 /FontBBox [0 0 750 750] "
               f"/FontMatrix [0.001 0 0 0.001 0 0] /CharProcs << /a {glyph} "
               f"0 R /b {glyph} 0 R /c {glyph} 0 R >> /Encoding {enc} 0 R "
               f"/FirstChar 97 /LastChar 100 /Widths [750 512.5 333 250] >>"
               .encode())
    huge = 10 ** 308
    f5 = b.add(f"<< /Type /Font /Subtype /Type1 /BaseFont /HugeSans "
               f"/FirstChar 97 /LastChar 99 /Widths [{huge} {-huge} 500] >>"
               .encode())
    root = _single_page(b, {"F1": f1, "F2": f2, "F3": f3, "F4": f4,
                            "F5": f5}, content,
                        media_box=f"[0 0 612 {int(MEDIA_HEIGHT)}]")
    return b.build(root)


def _warm(font: str, chars: str) -> bytes:
    """Show `chars` twice: the first string adds its codes to the glyph
    table, the second, all known codes, sets up the run path."""
    return f"BT /{font} 12 Tf ({chars}) Tj ({chars}) Tj ET ".encode()


RUN_CASES = {
    # t0 != 1, then t0 == 1; `z` and `Q` first show up after the run
    # path is set up, which it is again after `(Qz)`
    "first_seen_late": _warm("F1", "abc")
    + b"BT /F1 12 Tf 2 0 0 2 72 700 Tm (cab) Tj 1 0 0 1 72 600 Tm (abc) Tj "
      b"(abzc) Tj (zQ) Tj (Qz) Tj (zQa) Tj ET",
    "rotated_t1": _warm("F1", "tiledupwar")
    + b"BT /F1 11 Tf 0.8 0.6 -0.6 0.8 100 300 Tm (tilted) Tj "
      b"0 1 -1 0 300 200 Tm (upward) Tj ET",
    "t5_zero": _warm("F1", "on zer")
    + b"BT /F1 12 Tf 1 0 0 1 72 0 Tm (on zero) Tj "
      b"1 0 0 1 72 -0.0 Tm (zero) Tj 1 0 0 1 -0.0 -0.0 Tm (one) Tj ET",
    "rise_spacing": _warm("F1", "upabc ")
    + b"BT /F1 14 Tf 50 500 Td 5 Ts (up) Tj -2.5 Ts 1.5 Tc 3.25 Tw 80 Tz "
      b"(a b  c) Tj ET",
    "tj_kerning": _warm("F1", "Kernd zo")
    + b"BT /F1 12 Tf 72 650 Td [(Ke) -250 (rn) 120 (ed) -1000.5 ( ) 0 "
      b"(zero)] TJ 2 0 0 2 72 400 Tm [(Kerned) 500 ( zero) -77.7 (eKe)] TJ "
      b"ET",
    "scaled_cm": _warm("F1", "in acm")
    + b"q 0.8 0.6 -0.6 0.8 100 50 cm BT /F1 11 Tf 72 600 Td (in a cm) Tj "
      b"ET Q",
    # `A` (no char) and `B` (two) stay out of the decode table: the
    # strings that show them take `glyphs()`, the others the run path
    "tounicode_0_2": _warm("F3", "xyz")
    + b"BT /F3 12 Tf 72 700 Td (zyx) Tj (yA) Tj (xyz) Tj (B) Tj (zy) Tj "
      b"(zy) Tj (xB) Tj (yx) Tj ET",
    "type3": _warm("F4", "abc")
    + b"BT /F4 12 Tf 72 700 Td (abc) Tj [(ab) -50 (dc)] TJ (cab) Tj "
      b"(bad) Tj ET",
    "type0": _warm("F1", "ab")
    + b"BT /F2 12 Tf 72 700 Td <00410042> Tj <0041> Tj (hi) Tj (hi) Tj "
      b"/F1 12 Tf (ab) Tj (ba) Tj ET",
    # +-inf advances: t1 == 0 with an infinite sum takes the full t5 fold
    # (inf * 0.0 is NaN), and inf - inf is NaN in t4
    "inf_nan": _warm("F5", "abc")
    + b"BT /F5 20000 Tf 1 0 0 1 72 700 Tm (cac) Tj (ab) Tj (cc) Tj "
      b"0.8 0.6 -0.6 0.8 10 10 Tm (ccb) Tj ET",
}

# the strings after the warm-up that take the run path: every code was
# in the glyph table, a string of known codes has come by since the
# last code was added, and each of its codes decodes to one char (the
# others take `glyphs()`)
RUN_STRINGS = {
    "first_seen_late": [b"cab", b"abc", b"zQa"],
    "rotated_t1": [b"tilted", b"upward"],
    "t5_zero": [b"on zero", b"zero", b"one"],
    "rise_spacing": [b"up", b"a b  c"],
    "tj_kerning": [b"Ke", b"rn", b"ed", b" ", b"zero", b"Kerned", b" zero",
                   b"eKe"],
    "scaled_cm": [b"in a cm"],
    "tounicode_0_2": [b"zyx", b"zy", b"yx"],
    "type3": [b"abc", b"ab", b"bad"],
    "type0": [b"ab", b"ba"],
    "inf_nan": [b"cac", b"ab", b"cc", b"ccb"],
}


def _extract_runs(pdf, monkeypatch, runs: bool):
    """(text, SpanGeometry buffers as bytes, strings the run path took),
    with the run path on or off."""
    from pdf_extract_ray.engine import fonts
    from pdf_extract_ray.engine.api import extract_text_and_span_columns_from_mem
    taken = []
    glyph_run = fonts._Simple256Font.glyph_run

    def spy(self, data):
        run = glyph_run(self, data) if runs else None
        if run is not None:
            taken.append(bytes(data))
        return run

    monkeypatch.setattr(fonts._Simple256Font, "glyph_run", spy)
    text, geometry = extract_text_and_span_columns_from_mem(pdf)
    return text, tuple(buf.tobytes() for buf in geometry), taken


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_text_runs_match_per_glyph_path(name, monkeypatch):
    pdf = _runs_pdf(RUN_CASES[name])
    text, geometry, taken = _extract_runs(pdf, monkeypatch, runs=True)
    want_text, want_geometry, none = _extract_runs(pdf, monkeypatch,
                                                   runs=False)
    assert none == []
    assert text == want_text
    assert geometry == want_geometry
    assert taken == RUN_STRINGS[name]


def test_text_run_fixture_values():
    """What two run cases show: a no-char and a two-char code in the
    text, and the NaN positions an infinite advance leaves."""
    text, spans = extract_text_and_spans_from_mem(
        _runs_pdf(RUN_CASES["tounicode_0_2"]))
    assert text == "\n\nxyzxyz\n zyxyxyzffzyzyxffyx"
    _text, spans = extract_text_and_spans_from_mem(
        _runs_pdf(RUN_CASES["inf_nan"]))
    # an infinite advance turns the next glyphs' x and y to NaN (the six
    # warm-up glyphs at font size 12 stay finite)
    assert [(x != x, y != y) for (_p, _s, _e, x, y, _fs) in spans] == [
        (False, False)] * 8 + [(True, True)] * 5 + [(False, False)] * 3


def test_html_and_svg_output_unchanged():
    """cli.py's HTML and SVG devices, which read every glyph, over every
    pdfgen fixture: pinned to the output of the per-glyph path before
    text runs existed."""
    import hashlib

    from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
    from pdf_extract_ray.engine import (HTMLOutput, SVGOutput, load_document,
                                        output_doc)
    from pdf_extract_ray.engine.api import maybe_decrypt
    h = hashlib.sha256()
    for name in sorted(PDF_GENERATORS):
        for dev in (HTMLOutput(), SVGOutput()):
            try:
                doc = load_document(PDF_GENERATORS[name]())
                maybe_decrypt(doc)
                output_doc(doc, dev)
                out = (dev.get_html() if isinstance(dev, HTMLOutput)
                       else dev.get_svg())
            except Exception as e:  # the damaged fixtures' error texts
                out = f"{type(e).__name__}: {e}"
            h.update(repr((name, out)).encode())
    assert h.hexdigest() == (
        "9a05e9600a4d9069ed0666e44a94b17c906e72c3e36a8a964162efbc38e64a77")
