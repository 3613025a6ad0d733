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
