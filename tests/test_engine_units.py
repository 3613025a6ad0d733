"""Unit tests for the engine sub-operators (SURVEY.md §5 plan, item 1)."""
import importlib.util
import math
import pathlib

import pytest

from pdf_extract_ray.engine.cmap import get_byte_mapping, get_unicode_map_raw
from pdf_extract_ray.engine.content import parse_content
from pdf_extract_ray.engine.api import (extract_text_and_span_columns_from_mem,
                                        extract_text_from_mem)
from pdf_extract_ray.engine.devices import (OutputDev, PlainTextOutput,
                                            SpanTextOutput, place_text)
from pdf_extract_ray.engine.interpreter import (IDENTITY, RunState, TextRun,
                                                mul, transform_vector,
                                                translation)
from pdf_extract_ray.engine.lexer import Lexer
from pdf_extract_ray.engine.objects import (Name, PdfError, PdfString, Ref,
                                            f32, pdf_to_utf8, to_utf8)
from pdf_extract_ray.tables.encodings import (MAC_ROMAN_ENCODING,
                                              WIN_ANSI_ENCODING)
from pdf_extract_ray.tables.glyphnames import GLYPH_NAME_TO_UNICODE
from pdf_extract_ray.tables.pdfdoc import PDFDOC_ENCODING
from pdf_extract_ray.tables.zapf import ZAPF_NAME_TO_UNICODE


class TestTables:
    def test_encoding_spot_checks(self):
        # FIXTURES.md §F5 anchors
        assert WIN_ANSI_ENCODING[0x93] == "quotedblleft"
        assert GLYPH_NAME_TO_UNICODE["quotedblleft"] == 0x201C
        assert MAC_ROMAN_ENCODING[0xA5] == "bullet"
        assert GLYPH_NAME_TO_UNICODE["fi"] == 0xFB01
        assert ZAPF_NAME_TO_UNICODE["a10"] == 0x2721
        assert PDFDOC_ENCODING[0x18] == 0x02D8  # breve
        assert PDFDOC_ENCODING[ord("A")] == ord("A")

    def test_pdfdoc_decode(self):
        assert pdf_to_utf8(b"Hello") == "Hello"
        # UTF-16BE BOM path
        assert pdf_to_utf8(b"\xfe\xff\x00H\x00i") == "Hi"
        # len > 2 check is strict: a bare BOM is table-decoded
        assert to_utf8(PDFDOC_ENCODING, b"\xfe\xff") == "þÿ"


class TestLexer:
    def parse(self, data, **kw):
        return Lexer(data).parse_object(**kw)

    def test_numbers(self):
        assert self.parse(b"42") == 42
        assert self.parse(b"-17") == -17
        assert self.parse(b"+3") == 3
        assert self.parse(b"3.14") == f32(3.14)
        assert self.parse(b".5") == 0.5
        assert self.parse(b"-.25") == -0.25

    def test_real_is_f32(self):
        # lopdf parses reals as f32; 0.1 is not representable
        v = self.parse(b"0.1")
        assert v != 0.1 and abs(v - 0.1) < 1e-8

    def test_strings(self):
        assert self.parse(rb"(simple)") == b"simple"
        assert self.parse(rb"(with (nested) parens)") == b"with (nested) parens"
        assert self.parse(rb"(esc \n\t\\\(\))") == b"esc \n\t\\()"
        assert self.parse(rb"(octal \101\12\1)") == b"octal A\n\x01"
        assert self.parse(b"(line\\\ncont)") == b"linecont"
        assert self.parse(b"(line\\\r\ncont)") == b"linecont"
        assert self.parse(b"(raw\rcr)") == b"raw\rcr"  # no EOL normalizing
        assert self.parse(rb"(ends in octal \101)") == b"ends in octal A"
        assert self.parse(rb"(\7)") == b"\x07"
        for unterminated in (b"(never closed", rb"(nested (one)", b"(escape\\"):
            with pytest.raises(PdfError):
                self.parse(unterminated)

    def test_hex_strings(self):
        assert self.parse(b"<48656C6C6F>") == b"Hello"
        assert self.parse(b"<4 86 56C6C 6F>") == b"Hello"
        assert self.parse(b"<484>") == b"H@"  # odd digit pads 0

    def test_names(self):
        assert self.parse(b"/Name") == b"Name"
        assert isinstance(self.parse(b"/Name"), Name)
        assert self.parse(b"/A#20B") == b"A B"
        assert self.parse(b"/Lime#20Green") == b"Lime Green"

    def test_arrays_dicts_refs(self):
        assert self.parse(b"[1 2 /X (s)]") == [1, 2, b"X", b"s"]
        d = self.parse(b"<< /A 1 /B [2 3] /C << /D 4 >> >>")
        assert d == {b"A": 1, b"B": [2, 3], b"C": {b"D": 4}}
        assert self.parse(b"12 0 R") == Ref(12, 0)
        assert self.parse(b"12 0 R", allow_ref=False) == 12
        # number followed by non-R token stays a number
        lx = Lexer(b"12 0 obj")
        assert lx.parse_object() == 12

    def test_comments_and_ws(self):
        assert self.parse(b"% comment\n  42") == 42


class TestContent:
    def test_basic_ops(self):
        ops = parse_content(b"BT /F1 12 Tf 72 720 Td (Hi) Tj ET")
        assert [o[0] for o in ops] == ["BT", "Tf", "Td", "Tj", "ET"]
        assert ops[1][1] == [b"F1", 12]
        assert ops[3][1] == [b"Hi"]
        assert isinstance(ops[3][1][0], PdfString)

    def test_tj_array(self):
        ops = parse_content(b"[(A) -120 (B) 250.5 (C)] TJ")
        arr = ops[0][1][0]
        assert arr[0] == b"A" and arr[1] == -120
        assert arr[3] == f32(250.5)

    def test_inline_image_skipped(self):
        data = (b"q BI /W 2 /H 2 /CS /RGB /BPC 8 ID \x00\x01\x02EI Q "
                b"BT (x) Tj ET")
        ops = parse_content(data)
        names = [o[0] for o in ops]
        assert "BI" not in names and "Tj" in names

    def test_unknown_ops_kept(self):
        ops = parse_content(b"1 0 0 1 0 0 cm 0.5 g")
        assert [o[0] for o in ops] == ["cm", "g"]


class TestCMap:
    def test_bfchar_bfrange(self):
        data = (b"1 begincodespacerange <00> <FF> endcodespacerange\n"
                b"2 beginbfchar <41> <0041> <43> <2603> endbfchar\n"
                b"1 beginbfrange <50> <52> <0061> endbfrange\n")
        m = get_unicode_map_raw(data)
        assert m[0x41] == b"\x00\x41"
        assert m[0x43] == b"\x26\x03"
        assert m[0x50] == b"\x00\x61"
        assert m[0x51] == b"\x00\x62"
        assert m[0x52] == b"\x00\x63"

    def test_bfrange_array_dst(self):
        data = b"1 beginbfrange <01> <02> [<0058> <0059>] endbfrange"
        m = get_unicode_map_raw(data)
        assert m[1] == b"\x00X" and m[2] == b"\x00Y"

    def test_byte_mapping(self):
        data = (b"2 begincodespacerange <00> <80> <8140> <9FFC> "
                b"endcodespacerange\n"
                b"1 begincidrange <8140> <9FFC> 633 endcidrange\n")
        bm = get_byte_mapping(data)
        widths = sorted({r.width for r in bm.codespace})
        assert widths == [1, 2]
        assert bm.cid[0].src_code_lo == 0x8140
        assert bm.cid[0].dst_cid_lo == 633


class TestTransforms:
    def test_mul_order(self):
        t = mul(translation(10, 20), (2.0, 0.0, 0.0, 2.0, 0.0, 0.0))
        # translate then scale: (0,0) -> (20, 40)
        assert t[4] == 20 and t[5] == 40

    def test_vector_ignores_translation(self):
        m = (1.0, 0.0, 0.0, 1.0, 100.0, 200.0)
        assert transform_vector(m, 12, 12) == (12.0, 12.0)


def _glyph_reference():
    path = (pathlib.Path(__file__).resolve().parent.parent / "tools"
            / "glyph_reference.py")
    spec = importlib.util.spec_from_file_location("glyph_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(x, y, width, fs, text):
    """A literal one-glyph text string at page (x, y) of a 792-high
    page: tm translation (x, 792 - y) in an identity ctm, font size 1
    in a text matrix scaled by fs (so tfs = fs)."""
    state = RunState(fs, (fs, 0.0, 0.0, fs), (1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                     0.0, 0.0, 1.0, 0.0, 1.0, (0.0, 0.0))
    return TextRun(text, state, float(x), 792.0 - y, width, 1, None,
                   [width * fs], None, [(width, text, False)])


def _placed(recorded):
    """`place_text`'s text of one document, with and without spans."""
    (text,), _columns = place_text([recorded])
    assert place_text([recorded], spans=False)[0] == [text]
    return text


class TestPlainTextHeuristics:
    """The three thresholds at reference src/lib.rs:2169-2182, driven by
    literal text runs and by content streams (FIXTURES.md §F5).  The
    text PlainTextOutput gives must equal the text `place_text` places
    from SpanTextOutput's records."""

    def emit(self, runs, media_box=(0, 0, 612, 792)):
        plain, span = PlainTextOutput(), SpanTextOutput()
        for dev in (plain, span):
            dev.begin_page(1, media_box, None)
            for run in runs:
                dev.output_run(run)
            dev.end_page()
        assert _placed(span.recorded()) == plain.get_text()
        return plain.get_text()

    def test_same_line_no_separator(self):
        out = self.emit([_run(72, 72, 0.5, 12, "A"),
                         _run(78, 72, 0.5, 12, "B")])
        # gap 0 -> no space (78 == last_end 72+6)
        assert out.endswith("AB")

    def test_space_on_gap(self):
        out = self.emit([_run(72, 72, 0.5, 12, "A"),
                         _run(81, 72, 0.5, 12, "B")])
        # 81 > 78 + 1.2 -> space
        assert out.endswith("A B")

    def test_newline_on_large_y_jump(self):
        out = self.emit([_run(72, 72, 0.5, 12, "A"),
                         _run(72, 110, 0.5, 12, "B")])
        assert out.endswith("A\n\nB")  # both y-rules fire (left + >1.5x)

    def test_small_y_jump_same_column_no_newline(self):
        out = self.emit([_run(72, 72, 0.5, 12, "A"),
                         _run(90, 75, 0.5, 12, "B")])
        # dy=3 < 18, moved right -> space only (x > last_end + 1.2)
        assert out.endswith("A B")

    def test_first_char_only_at_word_start(self):
        # Tc 500 puts each glyph far right of the one before: inside a
        # string no separator is ever inserted, before the next string
        # the same gap gives a space
        pdf = _glyph_reference().page_pdf(
            b"BT /F1 12 Tf 72 720 Td 500 Tc (AB) Tj (C) Tj ET")
        out = extract_text_from_mem(pdf)
        assert _placed(extract_text_and_span_columns_from_mem(pdf)) == out
        assert out == "\n\nAB C"


class TestSqrtNan:
    def test_negative_area_is_nan_not_crash(self):
        # mirrored text matrix -> tx*ty < 0 -> Rust sqrt gives NaN, and
        # every spacing rule compares false
        pdf = _glyph_reference().page_pdf(
            b"BT /F1 12 Tf -1 0 0 1 72 720 Tm (A) Tj ET")
        recorded = extract_text_and_span_columns_from_mem(pdf)
        assert math.isnan(place_text([recorded])[1][5][0])
        assert extract_text_from_mem(pdf) == _placed(recorded) == "A"


class TestSpanResolve:
    """`place_text` places glyphs in steps of SPAN_CHUNK glyphs,
    for one document or several at once, without changing its input,
    and the UDF places a batch's rows in one `place_text` call.  None
    of that may show in the result; non-finite geometry must not raise
    (the UDF places text outside its per-row try); and a row whose text
    is too long for int32 span offsets is an error row on its own."""

    def recorded(self):
        from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
        from pdf_extract_ray.engine.api import (load_document, maybe_decrypt,
                                                output_doc)
        recorded = []
        for name in sorted(PDF_GENERATORS):
            doc = load_document(PDF_GENERATORS[name]())
            maybe_decrypt(doc)
            dev = SpanTextOutput()
            output_doc(doc, dev)
            recorded.append(dev.recorded())
        return recorded

    @staticmethod
    def copy(geom):
        """`geom`'s buffers, copied; each resolve must leave its input
        as it is (`unchanged`)."""
        import array

        from pdf_extract_ray.engine.devices import SpanGeometry
        return SpanGeometry(*(array.array(b.typecode, b) for b in geom))

    @staticmethod
    def unchanged(geoms, copies):
        return [tuple(map(bytes, g)) for g in geoms] == \
            [tuple(map(bytes, g)) for g in copies]

    @pytest.mark.parametrize("budget", [1, 2, 5, 64])
    def test_steps_and_grouping_are_invisible(self, budget, monkeypatch):
        import numpy as np

        from pdf_extract_ray.engine import devices
        recorded = self.recorded()
        geoms = [geom for _texts, geom in recorded]
        copies = [self.copy(g) for g in geoms]
        texts, whole = place_text(recorded)
        assert len(whole[0]) == sum(len(g.codes) for g in geoms) > 100
        monkeypatch.setattr(devices, "SPAN_CHUNK", budget)
        assert place_text(recorded, spans=False) == (texts, None)
        stepped = place_text(recorded)
        assert stepped[0] == texts
        # one document at a time
        alone = [place_text([r]) for r in recorded]
        assert [t for (t,), _cols in alone] == texts
        alone = [np.concatenate(cols) for cols in zip(
            *(cols for _texts, cols in alone))]
        assert self.unchanged(geoms, copies)
        for a, b, c in zip(whole, stepped[1], alone):
            assert a.dtype == b.dtype == c.dtype
            assert repr(a.tolist()) == repr(b.tolist()) == repr(c.tolist())

    def test_udf_span_chunks_are_invisible(self, monkeypatch):
        """The UDF places a batch's rows in one call, into one chunk:
        each row equals its document placed alone, whatever the step
        (the default SPAN_CHUNK, 1 and 7 glyphs)."""
        import pyarrow as pa

        from pdf_extract_ray.engine import devices
        from pdf_extract_ray.engine.devices import place_text
        from pdf_extract_ray.pipelines.extract import (_SPAN_FIELDS,
                                                       SPAN_TYPE,
                                                       _build_spans_array)
        recorded = self.recorded()
        rows = [None] + recorded[:8] + [None] + recorded[8:]
        geoms = [r[1] for r in rows if r is not None]
        copies = [self.copy(g) for g in geoms]
        names = [name for name, _typ in _SPAN_FIELDS]
        alone = [r and [dict(zip(names, span)) for span in zip(
            *(c.tolist() for c in place_text([r])[1]))]
            for r in rows]
        alone_texts = [r and place_text([r])[0][0] for r in rows]
        for budget in (devices.SPAN_CHUNK, 1, 7):
            monkeypatch.setattr(devices, "SPAN_CHUNK", budget)
            texts, spans = _build_spans_array(rows)
            assert isinstance(spans, pa.ListArray)
            assert spans.type == SPAN_TYPE
            assert self.unchanged(geoms, copies)
            assert spans[0].as_py() is None and spans[9].as_py() is None
            assert repr(spans.to_pylist()) == repr(alone), budget
            assert texts == alone_texts
            texts, spans = _build_spans_array(rows, with_spans=False)
            assert spans.type == SPAN_TYPE
            assert spans.to_pylist() == [None] * len(rows)
            assert texts == alone_texts

    def test_non_finite_geometry_propagates_without_raising(self):
        """Literal two-glyph runs at +-inf/NaN positions, with an inf
        linear part and an inf first advance (glyph 1 at t4 + inf * t0,
        t5 + inf * t1 with t1 = 0: NaN): the span columns hold the
        positions `OutputDev`'s per-glyph expansion gives, and the text
        PlainTextOutput's."""
        import numpy as np

        from pdf_extract_ray.engine.interpreter import _sqrt_or_nan
        inf, nan = float("inf"), float("nan")
        trms = [(1.0, 0.0, 0.0, 1.0, inf, 5.0),
                (inf, 0.0, 0.0, -inf, nan, 1.0),
                (1.0, 0.0, 0.0, 1.0, -inf, inf),
                (1.0, 0.0, 0.0, 1.0, 3.0, nan),
                (1.0, 0.0, 0.0, 1.0, 3.0, 4.0)]
        runs = []
        for trm in trms:
            tvx, tvy = transform_vector(trm, 12.0, 12.0)
            state = RunState(_sqrt_or_nan(tvx * tvy), trm[:4],
                             (1.0, 0.0, 0.0, 1.0, 0.0, 0.0), 0.0, 0.0, 1.0,
                             0.0, 12.0, (0.0, 0.0))
            runs.append(TextRun(
                "xy", state, trm[4], trm[5], inf, 2, None, [inf, 6.0], None,
                [(0.5, "x", False), (inf, "y", False)]))
        flip = (1.0, 0.0, 0.0, -1.0, 0.0, 792.0)

        class Positions(OutputDev):
            def __init__(self):
                self.xy = []

            def output_character(self, trm, width, spacing, font_size,
                                 char):
                self.xy.append(mul(trm, flip)[4:])

        devs = (SpanTextOutput(), PlainTextOutput(), Positions())
        for dev in devs:
            dev.begin_page(1, (0.0, 0.0, 612.0, 792.0), None)
            for run in runs:
                dev.output_run(run)
        old = np.seterr(all="raise")
        try:
            texts, columns = place_text([devs[0].recorded()])
            bare, none = place_text([devs[0].recorded()], spans=False)
        finally:
            np.seterr(**old)
        assert repr(list(zip(columns[3].tolist(), columns[4].tolist()))) \
            == repr(devs[2].xy)
        assert any(math.isnan(x) for x, _y in devs[2].xy[1::2])
        assert texts == bare == [devs[1].get_text()]
        assert none is None and len(columns[0]) == 2 * len(trms)

    def test_row_over_int32_is_an_error_row(self, monkeypatch):
        """With the int32 bound lowered below the longest text, that row
        alone becomes an error row; the batch's other rows stay as an
        unpatched run gives them."""
        import pyarrow as pa

        from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
        from pdf_extract_ray.engine import devices
        from pdf_extract_ray.pipelines.extract import ExtractBatch
        names = sorted(PDF_GENERATORS)
        batch = pa.table({"url": names, "html": pa.array(
            [PDF_GENERATORS[n]() for n in names], pa.binary())})
        lengths = ExtractBatch(with_spans=True)(batch).column(
            "n_chars").to_pylist()
        # one longest row: drop the others as long as it
        longest = max(lengths)
        batch = batch.filter(pa.array(
            [n < longest or i == lengths.index(longest)
             for i, n in enumerate(lengths)]))
        want = ExtractBatch(with_spans=True)(batch).to_pylist()
        lengths = [row["n_chars"] for row in want]
        assert lengths.count(longest) == 1 and longest > 10
        monkeypatch.setattr(devices, "_INT32_MAX", longest - 1)
        got = ExtractBatch(with_spans=True)(batch).to_pylist()
        at = lengths.index(longest)
        assert want[at]["status"] == "ok"
        assert {k: got[at][k] for k in ("extracted_text", "spans", "status",
                                         "error", "n_chars")} == {
            "extracted_text": "", "spans": None, "status": "error",
            "error": "OverflowError: span offsets exceed int32",
            "n_chars": 0}
        assert repr(got[:at] + got[at + 1:]) == repr(want[:at] + want[at + 1:])
        # the API path raises
        with pytest.raises(OverflowError, match="span offsets exceed int32"):
            from pdf_extract_ray.engine.api import (
                extract_text_and_spans_from_mem)
            extract_text_and_spans_from_mem(batch.column("html")[at].as_py())


class TestFunctions:
    def test_type2_exponential(self):
        from pdf_extract_ray.engine.functions import make_function
        d = {b"FunctionType": 2, b"C0": [0.0], b"C1": [1.0], b"N": 1}
        f = make_function(None, d)
        assert f.eval([0.5]) == [0.5]
        d2 = {b"FunctionType": 2, b"N": 2}
        assert make_function(None, d2).eval([0.5]) == [0.25]

    def test_type0_sampled(self):
        from pdf_extract_ray.engine.functions import make_function
        from pdf_extract_ray.engine.objects import Stream
        s = Stream({b"FunctionType": 0, b"Domain": [0, 1], b"Range": [0, 1],
                    b"Size": [2], b"BitsPerSample": 8, b"Length": 2},
                   bytes([0, 255]))
        f = make_function(None, s)
        assert f.eval([0.0]) == [0.0]
        assert f.eval([1.0]) == [1.0]

    def test_missing_keys_raise(self):
        import pytest as _pytest
        from pdf_extract_ray.engine.functions import make_function
        from pdf_extract_ray.engine.objects import PdfError
        with _pytest.raises(PdfError):
            make_function(None, {b"FunctionType": 2})  # no N
        with _pytest.raises(PdfError):
            make_function(None, {b"FunctionType": 0})  # type0 not a stream
        with _pytest.raises(PdfError):
            make_function(None, {b"FunctionType": 9})

    def test_separation_colorspace_builds_function(self):
        from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page
        from pdf_extract_ray.engine import extract_text_from_mem
        b = PdfBuilder()
        f1 = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
        content = (b"/Sep1 cs 1 scn BT /F1 12 Tf 72 700 Td (sep) Tj ET")
        content_num = b.stream("<< >>", content)
        tint = b.add(b"<< /FunctionType 2 /Domain [0 1] /C0 [0 0 0] "
                     b"/C1 [1 1 1] /N 1 >>")
        page = b.add(f"<< /Type /Page /Parent {{P}} /MediaBox [0 0 612 792] "
                     f"/Resources << /Font << /F1 {f1} 0 R >> "
                     f"/ColorSpace << /Sep1 [/Separation /Spot1 /DeviceRGB "
                     f"{tint} 0 R] >> >> /Contents {content_num} 0 R >>".encode())
        pages = b.add(f"<< /Type /Pages /Kids [{page} 0 R] /Count 1 >>".encode())
        b.bodies[page - 1] = b.bodies[page - 1].replace(b"{P}", f"{pages} 0 R".encode())
        root = b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
        assert extract_text_from_mem(b.build(root)) == "\n\nsep"
