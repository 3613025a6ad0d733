"""Glyph positions against an independent per-glyph reference.

`show_text` hands a device one record per text string, and the span
columns are resolved later in numpy (`devices.resolve_span_columns`),
which folds each run's advances into its glyphs' tm translations.
These tests rebuild every glyph's (x, y, font size) the way the
reference does it, glyph by glyph with full euclid products
(tools/glyph_reference.py, which tools/fuzz_sweep.py also sweeps with
seeded text-state soups).  The fixtures cover each branch the fast
paths take: scaled and rotated `Tm`, a rotating `cm`, `Tz`/`Tc`/`Tw`/
`Ts`, text-state changes between the strings of one text object and
inside `q`/`Q`, baselines at y = 0 and -0 (with and without a rotated
tm), TJ kerns of both signs, empty strings, a string longer than a span
chunk, more text states than the span device keeps advance tables for,
glyphs that decode to no char or to two, and a 2-byte Identity-H font.
Each glyph's (start, end) must cover its decoded char in the text.
"""
import importlib.util
import pathlib

import pyarrow as pa
import pytest

from pdf_extract_ray.engine.api import extract_text_and_spans_from_mem
from pdf_extract_ray.pipelines.extract import ExtractBatch

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "glyph_reference", REPO / "tools" / "glyph_reference.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


G = _tool()


def _pdf(ops):
    return G.page_pdf(G.serialize(ops))


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
    # each change drops the text state's advance table; the last one
    # goes back to the first state's table
    "tc_tw_tz_between_strings": [
        ("BT",), ("Tf", "F1", 12), ("Td", 40, 600), ("Tj", "ab c"),
        ("Tc", 1.5), ("Tj", "ab c"), ("Tw", 3), ("Tj", "ab c"),
        ("Tz", 50), ("Tj", "ab c"), ("Tf", "F1", 7), ("Tj", "ab c"),
        ("Tc", 0), ("Tw", 0), ("Tz", 100), ("Tf", "F1", 12),
        ("Tj", "ab c"), ("ET",)],
    # q/Q save and restore the font, size, spacing and tm
    "q_tf_tc_q": [("BT",), ("Tf", "F1", 12), ("Td", 72, 500),
                  ("Tj", "abc "), ("q",), ("Tf", "F1", 20), ("Tc", 2),
                  ("Tw", 5), ("Tj", "abc "), ("Q",), ("Tj", "abc "),
                  ("q",), ("Tf", "F2", 9), ("Tj", bytes.fromhex("00410020")),
                  ("Q",), ("Tj", "abc "), ("ET",)],
    "empty_strings": [("BT",), ("Tf", "F1", 12), ("Td", 72, 700),
                      ("Tj", ""), ("TJ", ["", -100, "a", "", 50, ""]),
                      ("Tj", "b"), ("Tf", "F2", 12), ("Tj", b""),
                      ("Tj", bytes.fromhex("0041")), ("ET",)],
    # t5 == +-0 with t1 != 0: the t5 fold cannot be skipped
    "t5_zero_rotated": [("BT",), ("Tf", "F1", 12),
                        ("Tm", 0.8, 0.6, -0.6, 0.8, 72, 0),
                        ("Tj", "slope up"),
                        ("Tm", 0, 1, -1, 0, -0.0, -0.0), ("Tj", "upright"),
                        ("Tm", 0.8, -0.6, 0.6, 0.8, 10, -0.0),
                        ("Tj", "slope down"), ("ET",)],
    # one string longer than a span chunk (devices.SPAN_CHUNK glyphs)
    "long_run": [("BT",), ("Tf", "F1", 0.5), ("Tm", 1, 0, 0, 1, 0, 700),
                 ("Tj", "ab cd" * 6600), ("Tj", "after"), ("ET",)],
    # F3 decodes `A` to no char and `B` to "ff": glyph spans of 0 and
    # 2 chars
    "ligatures": [("BT",), ("Tf", "F3", 12), ("Td", 72, 700),
                  ("Tj", "xAyBz"), ("TJ", ["BB", -120, "Ax"]),
                  ("Tf", "F1", 12), ("Tj", "ab"), ("Tf", "F3", 12),
                  ("Tj", "zAB "), ("ET",)],
    # justified lines, a Tw each: more advance tables than the span
    # device keeps (devices._MAX_TABLES), the first one shown again last
    "tw_per_line": [("BT",), ("Tf", "F1", 10), ("Td", 72, 760)]
    + [op for i in range(80) for op in (("Tw", i * 0.125), ("Td", 0, -9),
                                        ("Tj", "a b c"))]
    + [("Tw", 0), ("Tj", "a b c"), ("ET",)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_span_positions_match_reference_chain(name):
    ops = CASES[name]
    pdf = _pdf(ops)
    want = G.reference_spans(ops)
    text, spans = extract_text_and_spans_from_mem(pdf)
    # repr: -0.0 and 0.0 differ, NaN equals NaN
    assert repr([(x, y, fs) for (_p, _s, _e, x, y, fs) in spans]) \
        == repr(want)
    assert [text[s:e] for (_p, s, e, _x, _y, _fs) in spans] \
        == G.glyph_chars(pdf)
    # the batch path: the UDF's Arrow spans column, with a second
    # document in the same batch
    batch = pa.table({"url": ["a", "b"],
                      "html": pa.array([_pdf(CASES["scaled_tm"]), pdf],
                                       pa.binary())})
    col = ExtractBatch(with_spans=True)(batch).column("spans").to_pylist()
    assert repr([(s["x"], s["y"], s["font_size"]) for s in col[1]]) \
        == repr(want)
    assert repr([tuple(s.values()) for s in col[1]]) == repr(spans)


def test_long_run_spans_more_than_a_chunk():
    from pdf_extract_ray.engine.devices import SPAN_CHUNK
    assert len(G.reference_spans(CASES["long_run"])) > SPAN_CHUNK + 5


def test_span_device_keeps_at_most_max_tables():
    from pdf_extract_ray.engine.api import (
        extract_text_and_span_columns_from_mem)
    from pdf_extract_ray.engine.devices import _MAX_TABLES, _TABLE
    _text, geom = extract_text_and_span_columns_from_mem(
        _pdf(CASES["tw_per_line"]))
    assert len(geom.tables) == _MAX_TABLES * _TABLE
    # the runs past the cap record their advances, one per glyph
    assert len(geom.advances) == (81 - _MAX_TABLES) * 5


def test_text_state_soups_match_reference_chain():
    """tools/glyph_reference.py's seeded soups of text-state and show
    ops over its five fonts (fuzz_sweep.py runs the same comparison)."""
    import random
    rng = random.Random(20261018)
    assert [d for d in (G.soup_divergence(rng) for _ in range(150))
            if d] == []


# -- text runs -------------------------------------------------------------
#
# A 1-byte font whose shown codes each decode to one char gives a
# string's text in one decode call (`PdfFont.run_text`): no per-glyph
# tuple or char list is built, and the span device records the codes.
# Its text and resolved span columns must equal the per-glyph path's
# bit for bit.  The fonts are tools/glyph_reference.py's `page_pdf`.

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
    """(text, resolved span columns as bytes, strings the run path
    took), with the run path on or off."""
    from pdf_extract_ray.engine import fonts
    from pdf_extract_ray.engine.api import extract_text_and_span_columns_from_mem
    from pdf_extract_ray.engine.devices import resolve_span_columns
    taken = []
    run_text = fonts._Simple256Font.run_text

    def spy(self, data):
        text = run_text(self, data) if runs else None
        if text is not None:
            taken.append(bytes(data))
        return text

    monkeypatch.setattr(fonts._Simple256Font, "run_text", spy)
    text, geometry = extract_text_and_span_columns_from_mem(pdf)
    columns = tuple((col.dtype.str, col.tobytes())
                    for col in resolve_span_columns([geometry]))
    return text, columns, taken


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_text_runs_match_per_glyph_path(name, monkeypatch):
    pdf = G.page_pdf(RUN_CASES[name])
    text, columns, taken = _extract_runs(pdf, monkeypatch, runs=True)
    want_text, want_columns, none = _extract_runs(pdf, monkeypatch,
                                                  runs=False)
    assert none == []
    assert text == want_text
    assert columns == want_columns
    assert taken == RUN_STRINGS[name]


def test_text_run_fixture_values():
    """What two run cases show: a no-char and a two-char code in the
    text, and the NaN positions an infinite advance leaves."""
    text, spans = extract_text_and_spans_from_mem(
        G.page_pdf(RUN_CASES["tounicode_0_2"]))
    assert text == "\n\nxyzxyz\n zyxyxyzffzyzyxffyx"
    _text, spans = extract_text_and_spans_from_mem(
        G.page_pdf(RUN_CASES["inf_nan"]))
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
