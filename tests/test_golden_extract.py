"""Golden end-to-end extraction tests (SURVEY.md §5 plan, item 2).

Each synthetic fixture class (FIXTURES.md §F2) has a committed golden
string; `extract_text_from_mem` must reproduce it byte-identically.  The
goldens were hand-derived from the reference's algorithm (the leading
"\\n\\n" comes from both y-delta rules firing on the first glyph of a page:
last_y starts at 0 and last_end at 100000, reference src/lib.rs:2139-2148,
2169-2182).
"""
import pytest

from pdf_extract_ray.data import pdfgen
from pdf_extract_ray.engine import (OutputDev, PdfError, extract_text_from_mem,
                                    extract_text_from_mem_by_pages,
                                    extract_text_from_mem_encrypted,
                                    get_metadata, load_document, output_doc)
from pdf_extract_ray.engine.api import maybe_decrypt
from pdf_extract_ray.engine.interpreter import mul, transform_vector

GOLDEN = {
    "pdf_simple_helvetica": "\n\nHello World",
    "pdf_winansi_differences": "\n\ncafé “quoted”",
    "pdf_macroman": "\n\nrésumé café",
    "pdf_tounicode_bfchar": "\n\nAB☃",
    "pdf_identity_h": "\n\nUnicode 你好!",
    "pdf_type3": "\n\nabc",
    "pdf_tj_array": "\n\nKer ned wordshere",
    "pdf_multiline_layout": "\n\nFirst line\n\nfar below\nleft and down gap",
    "pdf_multipage": "\n\nPage 1 of 3\nPage 2 of 3\nPage 3 of 3",
    "pdf_xobject_form": "\n\nouter\n\nfrom xobject",
    "pdf_q_q_cm": "\n\nbase\n scaled\n\nafter",
    "pdf_flate_xrefstream": "\n\nxref stream doc",
    "pdf_zapf_symbol": "\n\nαβγ\n\n❁❂❃",
    # writer profiles (VERDICT r3 item 1): realistic operator/structure
    # mixes — derived from the reference's algorithm over the profile
    # shapes (Differences+ligatures / builtin Type1 encoding; WinAnsi
    # C1 region + surrogate-pair ToUnicode; A85+Flate chain + LZW
    # XObject + predictor xref stream)
    "pdf_latex_style": "\n\nﬁnds and ﬂies\n“kerned” — dash\nαβ∑",
    "pdf_word_style": "\n\nHello “Word” – styleABCDE😀",
    "pdf_ghostscript_style":
        "\n\nghostscript maın lßne\n\nfrom lzw xobject",
    # writer profiles wave 2 (VERDICT r4 item 7)
    "pdf_scanned_image": "",       # image-only page: EMPTY, not error
    "pdf_acroform_fields": "\n\nVisible body text only",  # field /V and
    # /AP appearance text must NOT leak into extraction
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(name):
    pdf = pdfgen.PDF_GENERATORS[name]()
    assert extract_text_from_mem(pdf) == GOLDEN[name]


def test_compressed_content_same_text():
    plain = pdfgen.pdf_simple_helvetica("Flate parity", compress=False)
    flate = pdfgen.pdf_simple_helvetica("Flate parity", compress=True)
    assert extract_text_from_mem(plain) == extract_text_from_mem(flate)


def test_by_pages_fresh_state():
    """Per-page extraction uses a fresh interpreter per page
    (reference src/lib.rs:2295-2307): page texts are independent."""
    pdf = pdfgen.pdf_multipage(3)
    pages = extract_text_from_mem_by_pages(pdf)
    assert len(pages) == 3
    for i, p in enumerate(pages, start=1):
        assert f"Page {i} of 3" in p
        # every page starts fresh: the page-start newlines appear each time
        assert p.startswith("\n\n")


def test_by_pages_concat_differs_from_whole_doc():
    """Whole-doc extraction shares PlainText state across pages, so the
    concatenation relationship is heuristic-dependent, not equality."""
    pdf = pdfgen.pdf_multipage(2)
    whole = extract_text_from_mem(pdf)
    pages = extract_text_from_mem_by_pages(pdf)
    assert "Page 1 of 2" in whole and "Page 2 of 2" in whole
    assert whole != "".join(pages)


def test_rc4_encrypted_auto_empty_password():
    pdf = pdfgen.pdf_rc4_encrypted("secret text")
    assert extract_text_from_mem(pdf) == "\n\nsecret text"
    assert extract_text_from_mem_encrypted(pdf, "") == "\n\nsecret text"


def test_metadata():
    pdf = pdfgen.pdf_multipage(3)
    m = get_metadata(pdf)
    assert m["page_count"] == "3"


@pytest.mark.parametrize("junk", [
    b"",
    b"not a pdf at all",
    b"%PDF-1.4\ntruncated",
    b"%PDF-1.4\n" + b"\x00" * 64,
])
def test_junk_raises_pdferror(junk):
    with pytest.raises(Exception):
        extract_text_from_mem(junk)


def test_deterministic_bytes():
    a = pdfgen.pdf_identity_h()
    b = pdfgen.pdf_identity_h()
    assert a == b


def test_aes128_encrypted_auto_empty_password():
    """V4/R4 AESV2 (AES-128-CBC) with empty password."""
    pdf = pdfgen.pdf_aes128_encrypted("aes secret")
    assert extract_text_from_mem(pdf) == "\n\naes secret"


def test_aes256_encrypted_auto_empty_password():
    """V5/R6 AESV3 (AES-256-CBC, ISO 32000-2) with empty password."""
    pdf = pdfgen.pdf_aes256_encrypted("aes256 secret")
    assert extract_text_from_mem(pdf) == "\n\naes256 secret"


def test_svg_device_paths():
    from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page
    from pdf_extract_ray.engine import SVGOutput, load_document, output_doc
    b = PdfBuilder()
    f1 = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    content = b"10 20 m 100 20 l 100 120 l h f 50 50 30 40 re f"
    root = _single_page(b, {"F1": f1}, content)
    dev = SVGOutput()
    output_doc(load_document(b.build(root)), dev)
    svg = dev.get_svg()
    assert svg.startswith('<?xml version="1.0"')
    assert "viewBox='0 0 612 792'" in svg
    assert "M10 20 L100 20 L100 120 Z" in svg
    assert "M50 50 L80 50 L80 90 L50 90 Z" in svg  # re -> 4 lines + close
    assert svg.endswith("</g>\n</svg>")


def test_cff_type1c_unicode_map():
    """Embedded Type1C charset drives decode: custom string-index glyph
    (SID>=391) and standard-string SID both resolve."""
    pdf = pdfgen.pdf_cff_type1c("AB")
    assert extract_text_from_mem(pdf) == "\n\néA"


def test_cff_tounicode_overrides_cff_map():
    """ToUnicode entries extend/override the CFF-derived map
    (ref src/lib.rs:452-460)."""
    import re
    pdf = pdfgen.pdf_cff_type1c("AB")
    # splice a ToUnicode CMap mapping 0x41 -> U+2603 into the font dict
    cmap = (b"1 begincodespacerange <00> <FF> endcodespacerange\n"
            b"1 beginbfchar <41> <2603> endbfchar\n")
    from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page, _esc
    b = PdfBuilder()
    from pdf_extract_ray.data.pdfgen import _cff_minimal
    cff = b.stream("<< /Subtype /Type1C >>", _cff_minimal())
    cm = b.stream("<< >>", cmap)
    desc = b.add(f"<< /Type /FontDescriptor /FontName /TestCFF /Flags 4 "
                 f"/FontBBox [0 0 1000 1000] /ItalicAngle 0 /Ascent 800 "
                 f"/Descent -200 /CapHeight 700 /StemV 80 "
                 f"/FontFile3 {cff} 0 R >>".encode())
    f1 = b.add(f"<< /Type /Font /Subtype /Type1 /BaseFont /TestCFF "
               f"/FirstChar 65 /LastChar 66 /Widths [500 500] "
               f"/ToUnicode {cm} 0 R "
               f"/FontDescriptor {desc} 0 R >>".encode())
    content = b"BT /F1 12 Tf 72 700 Td (AB) Tj ET"
    root = _single_page(b, {"F1": f1}, content)
    out = extract_text_from_mem(b.build(root))
    assert out == "\n\n☃A"  # ToUnicode wins for A; CFF map for B


def test_html_output_device():
    """HTMLOutput mirrors the reference sink (src/lib.rs:1891-1993):
    page div + per-char debug divs + accumulated run divs with nbsp."""
    from pdf_extract_ray.engine import HTMLOutput, load_document, output_doc
    dev = HTMLOutput()
    output_doc(load_document(pdfgen.pdf_simple_helvetica("Hi there")), dev)
    html = dev.get_html()
    assert html.startswith("<meta charset='utf-8' /> <!-- page 1 -->")
    assert "border: 1px black solid" in html
    assert "color: red; left: 72px" in html       # per-char debug div
    assert ">Hi there</div>" in html              # one accumulated run
    assert html.endswith("</div>")


def test_insert_nbsp_rules():
    from pdf_extract_ray.engine.devices import insert_nbsp
    assert insert_nbsp(" lead") == "&nbsp;lead"
    assert insert_nbsp("trail ") == "trail&nbsp;"
    assert insert_nbsp("a b") == "a b"
    assert insert_nbsp("a  b") == "a&nbsp;&nbsp;b"
    assert insert_nbsp("  ") == "&nbsp;&nbsp;"


def test_aes128_with_identity_string_filter():
    """StrF=Identity + StmF=AES: streams decrypt, strings pass through."""
    pdf = pdfgen.pdf_aes128_encrypted("split filters")
    pdf = pdf.replace(b"/StmF /StdCF /StrF /StdCF",
                      b"/StmF /StdCF /StrF /Identity")
    assert extract_text_from_mem(pdf) == "\n\nsplit filters"


class _GlyphRecorder(OutputDev):
    """Implements only `output_character`, so `show_text` reaches it
    through OutputDev's default per-glyph `output_run`.  Records each
    glyph's (page, x, y, transformed font size, char) with the same
    formulas the span device documents."""

    def __init__(self):
        self.glyphs = []
        self.page = 0
        self.flip = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def begin_page(self, page_num, media_box, art_box):
        self.page = page_num
        self.flip = (1.0, 0.0, 0.0, -1.0, 0.0, media_box[3] - media_box[1])

    def output_character(self, trm, width, spacing, font_size, char):
        position = mul(trm, self.flip)
        tvx, tvy = transform_vector(trm, font_size, font_size)
        area = tvx * tvy
        tfs = area ** 0.5 if area >= 0.0 else float("nan")
        self.glyphs.append((self.page, position[4], position[5], tfs, char))


def _recorded_glyphs(pdf: bytes):
    doc = load_document(pdf)
    maybe_decrypt(doc)
    rec = _GlyphRecorder()
    output_doc(doc, rec)
    return rec.glyphs


def test_spans_text_identical():
    """SpanTextOutput's text is byte-identical to PlainTextOutput's for
    every fixture class; its span slices, in order, are exactly the
    decoded glyphs, and every character no span covers is an inserted
    separator."""
    from pdf_extract_ray.engine.api import extract_text_and_spans_from_mem
    for name, gen in pdfgen.PDF_GENERATORS.items():
        pdf = gen()
        text, spans = extract_text_and_spans_from_mem(pdf)
        assert text == extract_text_from_mem(pdf), name
        assert [text[start:end] for (_p, start, end, _x, _y, _fs) in spans] \
            == [g[-1] for g in _recorded_glyphs(pdf)], name
        covered = 0
        for (_p, start, end, _x, _y, _fs) in spans:
            assert covered <= start <= end, name
            assert set(text[covered:start]) <= {"\n", " "}, name
            covered = end
        assert set(text[covered:]) <= {"\n", " "}, name


def test_default_output_run_matches_span_columns():
    """A device with only `output_character` sees, glyph by glyph, the
    same (page, x, y, font size, char) as SpanTextOutput's columns."""
    from pdf_extract_ray.engine.api import extract_text_and_spans_from_mem
    for name, gen in pdfgen.PDF_GENERATORS.items():
        pdf = gen()
        text, spans = extract_text_and_spans_from_mem(pdf)
        want = [(page, x, y, fs, text[start:end])
                for (page, start, end, x, y, fs) in spans]
        # repr: NaN font sizes compare equal, -0.0 and 0.0 do not
        assert repr(_recorded_glyphs(pdf)) == repr(want), name


def test_glyph_decode_error_strings():
    """The UDF's `error` column for glyphs that cannot be decoded: the
    first failing glyph in string order names the error."""
    import pyarrow as pa

    from pdf_extract_ray.pipelines.extract import ExtractBatch
    # 'z' (122) and 'y' (121) are both outside FirstChar..LastChar 97..99
    type3 = pdfgen.pdf_type3("azy")
    # a non-core font with ToUnicode and no Encoding: 'Z' has no mapping
    no_encoding = pdfgen.pdf_tounicode_bfchar("AZ").replace(
        b"/BaseFont /Helvetica", b"/BaseFont /CustomSans")
    batch = pa.table({"url": ["type3", "no_encoding"],
                      "html": pa.array([type3, no_encoding], pa.binary())})
    out = ExtractBatch(with_spans=True)(batch).to_pydict()
    assert out["status"] == ["error", "error"]
    assert out["error"] == ["PdfError: missing Type3 width for 122",
                            "PdfError: missing unicode map and encoding"]
    assert out["extracted_text"] == ["", ""]
    assert out["spans"] == [None, None]


def test_textstate_ops_golden():
    """Tz/Ts/Tc/Tw/gs coverage (ref src/lib.rs:1697-1729, 1792-1797)."""
    out = extract_text_from_mem(pdfgen.pdf_textstate_ops())
    assert out == "\n\nsqueezed text\n\nraised base\n\nw i d e"


def test_cid_word_spacing_quirk_positions():
    """Word spacing applies only to single-byte code 32: with Tw=1000 a
    2-byte CID code 0x0020 must NOT advance, while a simple-font space
    must (ref src/lib.rs:1307-1312).  Observable in span x positions."""
    from pdf_extract_ray.engine.api import extract_text_and_spans_from_mem
    cid_text, cid_spans = extract_text_and_spans_from_mem(
        pdfgen.pdf_cid_word_spacing_quirk())
    assert cid_text == "\n\na b"
    # third glyph ('b') sits right after the space glyph: no Tw advance
    assert cid_spans[2][3] < 100

    from pdf_extract_ray.data.pdfgen import PdfBuilder, _single_page
    b = PdfBuilder()
    f1 = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    root = _single_page(b, {"F1": f1},
                        b"BT /F1 12 Tf 1000 Tw 72 700 Td (a b) Tj ET")
    simple_text, simple_spans = extract_text_and_spans_from_mem(b.build(root))
    assert simple_text == "\n\na b"
    assert simple_spans[2][3] > 1000  # Tw pushed 'b' ~1000pt right


def test_word_style_metadata_and_pages():
    """Word-profile fixture: Info dict lives INSIDE the object stream
    (PDF 1.5+), ToUnicode surrogate pair decodes to the emoji, pages
    split cleanly."""
    pdf = pdfgen.pdf_word_style()
    meta = get_metadata(pdf)
    assert meta.get("Title") == "Quarterly Report"
    assert meta.get("Author") == "A. Writer"
    pages = extract_text_from_mem_by_pages(pdf)
    assert pages == ["\n\nHello “Word” – style", "\n\nABCDE😀"]


def test_lzw_and_a85_chain_roundtrip():
    """The ghostscript fixture's filter chain decodes through the
    engine's LZW (early-change) + ASCII85 + Flate paths."""
    from pdf_extract_ray.data.pdfgen import _a85_encode, _lzw_encode
    from pdf_extract_ray.engine.filters import (_ascii85_decode,
                                                _lzw_decode)
    payload = bytes(range(256)) * 3 + b"tail"
    assert _lzw_decode(_lzw_encode(payload)) == payload
    assert _ascii85_decode(_a85_encode(payload)) == payload
