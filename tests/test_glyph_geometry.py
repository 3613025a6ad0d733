"""Glyph positions against an independent per-glyph reference.

`show_text` hands a device one record per text string, and the span
columns are resolved later in numpy (`devices.place_text`),
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
glyphs that decode to no char or to two, a 2-byte Identity-H font,
signed zeros in ctm, tm and the translations, an infinite ctm, and a Td
after `q Tm .. Q` (a run state that must not be kept).
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
    # Q restores tm and its run state, not tlm: the Td after it
    # translates the Tm inside q..Q, so the run state must be rebuilt
    "td_after_q": [("BT",), ("Tf", "F1", 12), ("Td", 72, 700),
                   ("Tj", "ab"), ("q",), ("Tm", 2, 0, 0, 2, 100, 100),
                   ("Tj", "cd"), ("Q",), ("Td", 0, -14), ("Tj", "ef"),
                   ("TJ", ["g", 0, "h"]), ("ET",)],
    # signed zeros in ctm, rise and tm, translated by zeros
    "signed_zero_tm": [("cm", 1, 0, -0.0, 1, -0.0, -0.0), ("BT",),
                       ("Tf", "F1", 12), ("Ts", -0.0),
                       ("Tm", -0.0, 0, -0.0, 1, -0.0, -0.0), ("Tj", "ab"),
                       ("Td", -0.0, 0), ("Tj", "cd"),
                       ("TJ", ["e", -0.0, "f", 0]), ("Td", 0, 0),
                       ("Tj", "g"), ("Tm", 1, -0.0, -0.0, -1, 0, 700),
                       ("Tj", "hi"), ("Td", -0.0, -0.0), ("Tj", "j"),
                       ("ET",)],
    # ints whose products overflow: an infinite ctm, so a run state of
    # inf and NaN (0.0 * inf in trm = tsm * tm * ctm is NaN)
    "infinite_ctm": [("cm", 10 ** 200, 0, 0, 1, 0, 0),
                     ("cm", 10 ** 200, 0, 0, 1, 0, 0), ("BT",),
                     ("Tf", "F1", 12), ("Tm", 1, 0, 1, 1, 72, 700),
                     ("Tj", "ab"), ("Td", 0, -14), ("Tj", "cd"), ("ET",)],
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
    _texts, geom = extract_text_and_span_columns_from_mem(
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


def test_translation_soups_match_reference_chain():
    """Seeded `translation_soup`s: strings under matrices of signed
    zeros, Td and TJ numbers (zeros among them) and a Td after
    `q Tm .. Q`.  A translation keeps the run state only when it keeps
    tm's linear part bit for bit and tlm's is tm's; an interpreter that
    keeps it across every translation diverges on most of them."""
    import random
    rng = random.Random(20261021)
    assert [d for d in (G.soup_divergence(rng, G.translation_soup)
                        for _ in range(200)) if d] == []


# -- text runs -------------------------------------------------------------
#
# A 1-byte font gives the text of each string whose codes each decode to
# one char in one decode call (`PdfFont.run_text`), the font's first
# string included: no per-glyph tuple or char list is built, and the
# span device records the codes.  Its text and resolved span columns
# must equal the per-glyph path's bit for bit.  The fonts are
# tools/glyph_reference.py's `page_pdf`.

RUN_CASES = {
    # t0 != 1, then t0 == 1; `z` and `Q` first show up in later strings
    "first_seen_late":
    b"BT /F1 12 Tf 2 0 0 2 72 700 Tm (cab) Tj 1 0 0 1 72 600 Tm (abc) Tj "
    b"(abzc) Tj (zQ) Tj (Qz) Tj (zQa) Tj ET",
    "rotated_t1":
    b"BT /F1 11 Tf 0.8 0.6 -0.6 0.8 100 300 Tm (tilted) Tj "
    b"0 1 -1 0 300 200 Tm (upward) Tj ET",
    "t5_zero":
    b"BT /F1 12 Tf 1 0 0 1 72 0 Tm (on zero) Tj "
    b"1 0 0 1 72 -0.0 Tm (zero) Tj 1 0 0 1 -0.0 -0.0 Tm (one) Tj ET",
    "rise_spacing":
    b"BT /F1 14 Tf 50 500 Td 5 Ts (up) Tj -2.5 Ts 1.5 Tc 3.25 Tw 80 Tz "
    b"(a b  c) Tj ET",
    "tj_kerning":
    b"BT /F1 12 Tf 72 650 Td [(Ke) -250 (rn) 120 (ed) -1000.5 ( ) 0 "
    b"(zero)] TJ 2 0 0 2 72 400 Tm [(Kerned) 500 ( zero) -77.7 (eKe)] TJ "
    b"ET",
    "scaled_cm":
    b"q 0.8 0.6 -0.6 0.8 100 50 cm BT /F1 11 Tf 72 600 Td (in a cm) Tj "
    b"ET Q",
    # `A` (no char) and `B` (two) stay out of the decode table: the
    # strings that show them take `glyphs()`, the others the run path
    "tounicode_0_2":
    b"BT /F3 12 Tf 72 700 Td (zyx) Tj (yA) Tj (xyz) Tj (B) Tj (zy) Tj "
    b"(zy) Tj (xB) Tj (yx) Tj ET",
    "type3":
    b"BT /F4 12 Tf 72 700 Td (abc) Tj [(ab) -50 (dc)] TJ (cab) Tj "
    b"(bad) Tj ET",
    "type0":
    b"BT /F2 12 Tf 72 700 Td <00410042> Tj <0041> Tj (hi) Tj (hi) Tj "
    b"/F1 12 Tf (ab) Tj (ba) Tj ET",
    # +-inf advances: t1 == 0 with an infinite sum takes the full t5 fold
    # (inf * 0.0 is NaN), and inf - inf is NaN in t4
    "inf_nan":
    b"BT /F5 20000 Tf 1 0 0 1 72 700 Tm (cac) Tj (ab) Tj (cc) Tj "
    b"0.8 0.6 -0.6 0.8 10 10 Tm (ccb) Tj ET",
}


def _one_char(font, data: bytes) -> bool:
    return all(len(font.decode_char(code)) == 1 for code in data)


def _extract_runs(pdf, monkeypatch, runs: bool):
    """(text, resolved span columns as bytes, strings the run path took,
    strings a 1-byte font showed whose codes each decode to one char),
    with the run path on or off."""
    from pdf_extract_ray.engine import fonts
    from pdf_extract_ray.engine.api import extract_text_and_span_columns_from_mem
    from pdf_extract_ray.engine.devices import place_text
    taken, shown = [], []
    run_text = fonts._Simple256Font.run_text

    def spy(self, data):
        text = run_text(self, data) if runs else None
        if text is not None:
            taken.append(bytes(data))
        shown.append((self, bytes(data)))
        return text

    monkeypatch.setattr(fonts._Simple256Font, "run_text", spy)
    (text,), columns = place_text(
        [extract_text_and_span_columns_from_mem(pdf)])
    columns = tuple((col.dtype.str, col.tobytes()) for col in columns)
    return text, columns, taken, [data for font, data in shown
                                  if _one_char(font, data)]


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_text_runs_match_per_glyph_path(name, monkeypatch):
    pdf = G.page_pdf(RUN_CASES[name])
    text, columns, taken, _ = _extract_runs(pdf, monkeypatch, runs=True)
    want_text, want_columns, none, one_char = _extract_runs(
        pdf, monkeypatch, runs=False)
    assert none == []
    assert text == want_text
    assert columns == want_columns
    assert taken == one_char and taken


def test_one_char_strings_never_take_glyphs(monkeypatch):
    """A 1-byte font's first string, and any string that brings new
    codes, takes the run path when its codes each decode to one char:
    over every pdfgen fixture and a crawl_mix workload, no such string
    reaches `_Simple256Font.glyphs`."""
    import sys

    from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
    from pdf_extract_ray.engine import fonts
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    glyphs, runs, slow = fonts._Simple256Font.glyphs, [0], []

    def spy(self, data):
        if _one_char(self, data):
            slow.append(bytes(data))
        return glyphs(self, data)

    def count(self, data):
        runs[0] += 1
        return run_text(self, data)

    run_text = fonts._Simple256Font.run_text
    monkeypatch.setattr(fonts._Simple256Font, "glyphs", spy)
    monkeypatch.setattr(fonts._Simple256Font, "run_text", count)
    names = sorted(PDF_GENERATORS)
    table = pa.concat_tables([
        pa.table({"url": names, "html": pa.array(
            [PDF_GENERATORS[n]() for n in names], pa.binary())}),
        gen.pages_table(gen.make_rows("crawl_mix", 3), 3).select(
            ["url", "html"])])
    udf = ExtractBatch(with_spans=True)
    for off in range(0, table.num_rows, 64):
        udf(table.slice(off, 64))
    assert runs[0] > 2000 and slow == []


def test_text_run_fixture_values():
    """What two run cases show: a no-char and a two-char code in the
    text, and the NaN positions an infinite advance leaves."""
    text, spans = extract_text_and_spans_from_mem(
        G.page_pdf(RUN_CASES["tounicode_0_2"]))
    assert text == "\n\nzyxyxyzffzyzyxffyx"
    _text, spans = extract_text_and_spans_from_mem(
        G.page_pdf(RUN_CASES["inf_nan"]))
    # an infinite advance turns the next glyphs' x and y to NaN, until
    # a Tm sets a finite translation again
    assert [(x != x, y != y) for (_p, _s, _e, x, y, _fs) in spans] == [
        (False, False)] * 2 + [(True, True)] * 5 + [(False, False)] * 3


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


# -- text placed in the batch resolve ---------------------------------------
#
# The pipeline records each text string and places the text of a whole
# batch in numpy (`devices.place_text`); the API's `PlainTextOutput`
# places it string by string.  The texts must be equal, one document per
# resolve and all documents in one (the line/word state restarts at each
# document's first run), and the interpreter folds a string's advances
# in Python only when something reads its end tm.

def _parity_pdfs():
    import random

    from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
    rng = random.Random(20261019)
    return ([PDF_GENERATORS[n]() for n in sorted(PDF_GENERATORS)]
            + [G.page_pdf(c) for _n, c in sorted(RUN_CASES.items())]
            + [_pdf(G.soup(rng)) for _ in range(240)])


def test_batch_placed_text_matches_plain_text():
    from pdf_extract_ray.engine.api import (
        extract_text_and_span_columns_from_mem, extract_text_from_mem)
    from pdf_extract_ray.engine.devices import place_text
    recorded, want = [], []
    for pdf in _parity_pdfs():
        try:
            text = extract_text_from_mem(pdf)
        except Exception:  # a damaged fixture or a soup that raises
            continue
        recorded.append(extract_text_and_span_columns_from_mem(pdf))
        want.append(text)
    assert len(want) > 250 and sum(map(bool, want)) > 200
    alone = [place_text([r])[0][0] for r in recorded]
    assert alone == want
    assert [place_text([r], spans=False)[0][0] for r in recorded] == want
    together, columns = place_text(recorded)
    assert together == want
    assert place_text(recorded, spans=False) == (want, None)
    # span starts count the separators of their own document only
    starts = columns[1].tolist()
    at = 0
    for r in recorded:
        n = len(r[1].codes)
        assert starts[at:at + n] == place_text([r])[1][1].tolist()
        at += n


def test_udf_without_spans_equals_with_spans():
    """ExtractBatch(with_spans=False) rows are the with_spans=True rows
    with a null spans column."""
    import sys

    from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    names = sorted(PDF_GENERATORS)
    table = pa.concat_tables([
        pa.table({"url": names, "html": pa.array(
            [PDF_GENERATORS[n]() for n in names], pa.binary())}),
        gen.pages_table(gen.make_rows("crawl_mix", 5), 5).select(
            ["url", "html"]).slice(0, 256)])
    for off in range(0, table.num_rows, 64):
        batch = table.slice(off, 64)
        spans = ExtractBatch(with_spans=True)(batch)
        bare = ExtractBatch(with_spans=False)(batch)
        assert bare.column("spans").null_count == batch.num_rows
        assert repr(bare.drop(["spans"]).to_pylist()) \
            == repr(spans.drop(["spans"]).to_pylist())


def _fold_spy(monkeypatch):
    """Count (and keep) the runs `fold_run` folds, through both names
    it is called by; and the tm reads that find a run pending."""
    from pdf_extract_ray.engine import devices, interpreter
    folded, reads = [], [0]
    fold = interpreter.fold_run
    settled_tm = interpreter.TextState.settled_tm

    def spy(run):
        folded.append(run)
        return fold(run)

    def read(ts):
        reads[0] += ts.pending is not None
        return settled_tm(ts)

    monkeypatch.setattr(interpreter, "fold_run", spy)
    monkeypatch.setattr(devices, "fold_run", spy)
    monkeypatch.setattr(interpreter.TextState, "settled_tm", read)
    return folded, reads


def _strings(monkeypatch, cls):
    """Count the runs a device class is handed."""
    shown = [0]
    output_run = cls.output_run

    def count(self, run):
        shown[0] += 1
        return output_run(self, run)

    monkeypatch.setattr(cls, "output_run", count)
    return shown


def _workload(name, seed):
    import sys
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return gen.pages_table(gen.make_rows(name, seed), seed).select(
        ["url", "html"])


@pytest.mark.parametrize("workload,seed,strings,folds", [
    # every string's end tm is overwritten by a Td/Tm before a read
    ("large_pdfs", 1, 11173, 0),
    # a TJ number or the next string of a text object reads some
    ("crawl_mix", 3, 2254, 296)])
def test_udf_folds_only_read_end_tms(workload, seed, strings, folds,
                                     monkeypatch):
    from pdf_extract_ray.engine.devices import SpanTextOutput
    folded, reads = _fold_spy(monkeypatch)
    shown = _strings(monkeypatch, SpanTextOutput)
    table = _workload(workload, seed)
    udf = ExtractBatch(with_spans=True)
    for off in range(0, table.num_rows, 64):
        udf(table.slice(off, 64))
    assert shown[0] == strings
    assert len(folded) == reads[0] == folds


def test_plain_text_folds_each_string_once(monkeypatch):
    """The API's PlainTextOutput folds each run in `output_run` and hands
    the end tm back: one fold per string, none on a later read."""
    from pdf_extract_ray.engine.api import extract_text_from_mem
    from pdf_extract_ray.engine.devices import PlainTextOutput
    folded, reads = _fold_spy(monkeypatch)
    shown = _strings(monkeypatch, PlainTextOutput)
    for pdf in _workload("crawl_mix", 3).column("html").to_pylist():
        try:
            extract_text_from_mem(pdf)
        except Exception:
            pass
    assert shown[0] > 2000
    assert len(folded) == shown[0] and reads[0] == 0
    assert len(set(map(id, folded))) == len(folded)
