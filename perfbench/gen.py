"""Seeded workload inputs and their expected outputs.

Every row is drawn from independent hashes of ``(seed, i)``: one hash picks
the payload kind (PDF, HTML, junk), another the class within it, a third
seeds the class's variant and parameters (html_checkpoint deals its kinds,
HTML classes and page sizes from fixed counts in a seeded order instead).
Each row carries the ``(status, extracted_text)`` the pipeline
must produce, derived from the generator alone and never from the engine
under test:

- fixed fixtures use the golden strings committed with the engine's tests;
- parametric PDFs (``pdf_simple_helvetica(text)``, ``pdf_multipage(n)``, the
  large multi-page documents built here, ...) derive their text from the
  parameters and the layout rules the generator controls;
- HTML pages are composed so that every block is unambiguously content
  (one long run of plain words, no links) or boilerplate (nav/header/
  footer/aside tags, link farms), and the expected text is the content
  blocks in order, whitespace-normalised, joined by blank lines.
"""
from __future__ import annotations

import datetime
import functools
import hashlib
import html as _html
import random
from typing import Callable, Dict, List, NamedTuple, Tuple

import pyarrow as pa

from pdf_extract_ray.data import htmlgen, pdfgen
from pdf_extract_ray.data.pages import PAGES_SCHEMA

WORKLOADS = ("crawl_mix", "large_pdfs", "html_checkpoint")

# rows per workload; see README.md for the sizing
CRAWL_MIX_ROWS = 2000
CRAWL_MIX_FILES = 2
HTML_CHECKPOINT_ROWS = 600
HTML_CHECKPOINT_FILES = 3
# large_pdfs: one document per rung, so every seed carries the same work
LARGE_PDF_LADDER_KB = (100, 160, 250)
WARM_ROWS = 64


class Row(NamedTuple):
    url: str
    payload: bytes
    status: str
    text: str
    cls: str


def _u64(seed: int, i: int, salt: str) -> int:
    d = hashlib.blake2b(f"{seed}:{i}:{salt}".encode(), digest_size=8).digest()
    return int.from_bytes(d, "big")


def _unit(seed: int, i: int, salt: str) -> float:
    return _u64(seed, i, salt) / 2.0 ** 64


def _pick(u: float, weighted: List[Tuple[float, object]]):
    total = sum(w for w, _ in weighted)
    acc = 0.0
    for w, item in weighted:
        acc += w / total
        if u < acc:
            return item
    return weighted[-1][1]


# -- words ------------------------------------------------------------------

_LOREM = ("data stream page crawl extract parse glyph text block shard byte "
          "token font table index batch actor arrow block queue").split()
# a larger pseudo-word vocabulary for the big documents, so their content
# streams compress like prose (~2x) instead of like a 20-word loop
_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]
_VOCAB = tuple(sorted({
    "".join(_SYLLABLES[(k * 7919 + j * 104729) % len(_SYLLABLES)]
            for j in range(1 + k % 3))
    for k in range(2000)}))


def _words(rng: random.Random, n: int, vocab=_LOREM) -> str:
    return " ".join(rng.choice(vocab) for _ in range(n))


def _prose(rng: random.Random, n: int) -> str:
    """At least 120 characters of plain words: the length rule alone keeps
    such a block, whatever its stopword ratio."""
    s = _words(rng, max(n, 24))
    while len(s) < 130:
        s += " " + _words(rng, 4)
    return s


# -- PDF classes ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fixed_pdf(name: str) -> bytes:
    gen = pdfgen.PDF_GENERATORS.get(name) or getattr(pdfgen, name)
    return gen()


# golden strings committed with the engine's tests for the fixed fixtures
_FIXED_GOLDEN = {
    "pdf_tj_array": "\n\nKer ned wordshere",
    "pdf_multiline_layout": "\n\nFirst line\n\nfar below\nleft and down gap",
    "pdf_xobject_form": "\n\nouter\n\nfrom xobject",
    "pdf_q_q_cm": "\n\nbase\n scaled\n\nafter",
    "pdf_zapf_symbol": "\n\nαβγ\n\n❁❂❃",
    "pdf_cff_type1c": "\n\néA",
    "pdf_latex_style": "\n\nﬁnds and ﬂies\n“kerned” — dash\nαβ∑",
    "pdf_word_style": "\n\nHello “Word” – styleABCDE😀",
    "pdf_ghostscript_style": "\n\nghostscript maın lßne\n\nfrom lzw xobject",
    "pdf_scanned_image": "",
    "pdf_acroform_fields": "\n\nVisible body text only",
    "pdf_textstate_ops": "\n\nsqueezed text\n\nraised base\n\nw i d e",
    "pdf_embedded_cmap_multibyte": "\n\nMixed",
    "pdf_subset_partial_widths": "\n\nABCD",
    "pdf_multigen_shadowing": "\n\ngeneration three",
    "pdf_pagetree_cycle": "\n\ncycle survivor",
    "pdf_pagetree_inherited": "\n\ninherited resources",
}


def _fixed(name: str):
    def make(rng, i):
        return _fixed_pdf(name), _FIXED_GOLDEN[name]
    return make


def _text_param(gen: Callable[[str], bytes], prefix: str, n_lo: int, n_hi: int):
    """Generators whose whole text is one Tj of their `text` argument:
    the expected extraction is the page-start "\\n\\n" plus that text."""
    def make(rng, i):
        text = f"{prefix} {i} " + _words(rng, rng.randint(n_lo, n_hi))
        return gen(text), "\n\n" + text
    return make


def _helvetica(rng, i):
    text = f"Document {i}: " + _words(rng, rng.randint(8, 40))
    return (pdfgen.pdf_simple_helvetica(text, compress=rng.random() < 0.5),
            "\n\n" + text)


def _winansi(rng, i):
    text = _words(rng, rng.randint(2, 8)) + " café “quoted”"
    return pdfgen.pdf_winansi_differences(text), "\n\n" + text


def _macroman(rng, i):
    text = "résumé " + _words(rng, rng.randint(2, 8)) + " café"
    return pdfgen.pdf_macroman(text), "\n\n" + text


def _tounicode(rng, i):
    text = "".join(rng.choice("AB☃") for _ in range(rng.randint(3, 12)))
    return pdfgen.pdf_tounicode_bfchar(text), "\n\n" + text


def _identity_h(rng, i):
    text = f"CID {i} " + _words(rng, rng.randint(2, 8)) + " 你好!"
    return pdfgen.pdf_identity_h(text), "\n\n" + text


def _type3(rng, i):
    text = "".join(rng.choice("abc") for _ in range(rng.randint(3, 12)))
    return pdfgen.pdf_type3(text), "\n\n" + text


def _multipage(rng, i):
    n = rng.randint(2, 5)
    pages = "\n".join(f"Page {k} of {n}" for k in range(1, n + 1))
    return (pdfgen.pdf_multipage(n_pages=n, compress=rng.random() < 0.5),
            "\n\n" + pages)


def _incremental(rng, i):
    new = f"updated {i} " + _words(rng, rng.randint(2, 6))
    return pdfgen.pdf_incremental_update(new_text=new), "\n\n" + new


# (weight, class name, maker).  Every F2 generator class appears, plus the
# encrypted, xref-stream/object-stream and damaged-xref variants a crawl
# carries.  pdf_aes256_encrypted is left out: its pure-Python R6 key
# derivation takes ~2.5 s per document, so a handful would dominate a run.
PDF_CLASSES: List[Tuple[float, str, Callable]] = [
    (14, "pdf_simple_helvetica", _helvetica),
    (4, "pdf_winansi_differences", _winansi),
    (4, "pdf_macroman", _macroman),
    (3, "pdf_tounicode_bfchar", _tounicode),
    (6, "pdf_identity_h", _identity_h),
    (3, "pdf_type3", _type3),
    (6, "pdf_multipage", _multipage),
    (6, "pdf_flate_xrefstream",
     _text_param(pdfgen.pdf_flate_xrefstream, "xref stream doc", 2, 12)),
    (4, "pdf_rc4_encrypted",
     _text_param(pdfgen.pdf_rc4_encrypted, "rc4", 2, 10)),
    (4, "pdf_aes128_encrypted",
     _text_param(pdfgen.pdf_aes128_encrypted, "aes", 2, 10)),
    (3, "pdf_aes128_objstm",
     _text_param(pdfgen.pdf_aes128_objstm, "objstm aes", 2, 10)),
    (2, "pdf_hybrid_xref",
     _text_param(pdfgen.pdf_hybrid_xref, "hybrid", 2, 10)),
    (2, "pdf_corrupt_startxref",
     _text_param(pdfgen.pdf_corrupt_startxref, "recovered", 2, 10)),
    (2, "pdf_truncated_xref",
     _text_param(pdfgen.pdf_truncated_xref, "truncated", 2, 10)),
    (2, "pdf_incremental_update", _incremental),
] + [(w, name, _fixed(name)) for w, name in [
    (2, "pdf_tj_array"), (2, "pdf_multiline_layout"), (2, "pdf_xobject_form"),
    (2, "pdf_q_q_cm"), (2, "pdf_zapf_symbol"), (2, "pdf_cff_type1c"),
    (2, "pdf_latex_style"), (2, "pdf_word_style"),
    (2, "pdf_ghostscript_style"), (1, "pdf_scanned_image"),
    (1, "pdf_acroform_fields"), (1, "pdf_textstate_ops"),
    (1, "pdf_embedded_cmap_multibyte"), (1, "pdf_subset_partial_widths"),
    (1, "pdf_multigen_shadowing"), (1, "pdf_pagetree_cycle"),
    (1, "pdf_pagetree_inherited"),
]]


def _small_pdf(seed: int, i: int):
    name, make = _pick(_unit(seed, i, "pdf_class"),
                       [(w, (n, m)) for w, n, m in PDF_CLASSES])
    payload, text = make(random.Random(_u64(seed, i, "pdf_params")), i)
    return name, payload, text


# -- HTML classes -----------------------------------------------------------

def _html_article(rng, n_words):
    main = _prose(rng, n_words)
    return htmlgen.html_article(main, title=_words(rng, 3)), main


def _html_nested(rng, n_words):
    paras = [_prose(rng, 24 + rng.randint(0, 16))
             for _ in range(max(2, n_words // 32))]
    return htmlgen.html_nested(paras), "\n\n".join(paras)


def _html_table(rng, n_words):
    cell = _prose(rng, 24)
    n_rows = max(2, n_words // 28)
    kept = "\n\n".join(f"{cell} row {r}" for r in range(n_rows))
    return htmlgen.html_table(cell, n_rows=n_rows), kept


def _html_malformed(rng, n_words):
    text = _prose(rng, n_words // 2)
    return (htmlgen.html_malformed(text),
            f"{text} & some unclosed markup\n\nmore {text}")


def _html_comments(rng, n_words):
    text = _prose(rng, n_words // 2)
    return htmlgen.html_comments_cdata(text), f"{text}\n\n{text} second"


def _html_inline_links(rng, n_words):
    text = _words(rng, max(4, n_words // 2))
    page = htmlgen.html_inline_links(text)
    para = page.decode().split("<p>", 1)[1].split("</p>", 1)[0]
    return page, " ".join(para.replace("<a href='/x'>", "")
                          .replace("</a>", "").split())


def _html_entities(rng, n_words):
    page = htmlgen.html_entities()
    para = page.decode().split("<p>", 1)[1].split("</p>", 1)[0]
    return page, " ".join(_html.unescape(para).split())


def _html_linkfarm(rng, n_words):
    return htmlgen.html_linkfarm(), ""


SMALL_HTML_CLASSES = [
    (5, "html_article", _html_article), (3, "html_nested", _html_nested),
    (2, "html_table", _html_table), (2, "html_malformed", _html_malformed),
    (2, "html_linkfarm", _html_linkfarm),
    (2, "html_comments_cdata", _html_comments),
    (1, "html_entities", _html_entities),
    (2, "html_inline_links", _html_inline_links),
]
# the article/nested/table/link-farm shapes of an HTML-heavy crawl
LARGE_HTML_CLASSES = [
    (4, "html_article", _html_article), (3, "html_nested", _html_nested),
    (2, "html_table", _html_table), (1, "html_linkfarm", _html_linkfarm),
]


def _html_row(seed: int, i: int, classes, n_words: int):
    name, make = _pick(_unit(seed, i, "html_class"),
                       [(w, (n, m)) for w, n, m in classes])
    page, text = make(random.Random(_u64(seed, i, "html_params")), n_words)
    return name, page, text


# -- junk -------------------------------------------------------------------

def _junk(seed: int, i: int):
    rng = random.Random(_u64(seed, i, "junk_params"))
    kind = _pick(_unit(seed, i, "junk_class"),
                 [(1, "empty"), (1, "truncated_pdf"), (1, "binary_noise"),
                  (1, "plain_text")])
    if kind == "empty":
        return "junk_empty", b"", "empty"
    if kind == "truncated_pdf":
        return ("junk_truncated_pdf",
                f"%PDF-1.{rng.randint(0, 7)}\n".encode() +
                _words(rng, rng.randint(1, 12)).encode(), "error")
    if kind == "binary_noise":
        # bytes >= 0x80 only: no "%PDF-" or "<html" marker can appear
        n = rng.randint(64, 1024)
        return ("junk_binary_noise",
                bytes(0x80 | rng.getrandbits(7) for _ in range(n)), "skipped")
    return ("junk_plain_text",
            b"plain text, neither pdf nor html: " +
            _words(rng, rng.randint(4, 40)).encode(), "skipped")


def _status(text: str) -> str:
    return "ok" if text else "empty"


# -- large multi-page PDFs --------------------------------------------------

def large_pdf(rng: random.Random, target_bytes: int):
    """Multi-page, Flate-compressed document of about `target_bytes`.

    Every page is one BT block at 10 pt: lines of words, each a Tj moved
    down 12 pt by Td.  A 12 pt drop is more than half the font size with
    the pen moved left, so lines join with one "\\n"; the next page starts
    at least 24 pt higher (>= 3 lines), which adds the 1.5x-size rule's
    "\\n" too, so pages join with "\\n\\n".
    """
    b = pdfgen.PdfBuilder()
    font = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Roman >>")
    contents, page_texts, size = [], [], 0
    while size < target_bytes:
        lines = [_words(rng, rng.randint(8, 12), _VOCAB)
                 for _ in range(rng.randint(6, 14))]
        ops = ["BT", "/F1 10 Tf", "72 760 Td", f"({lines[0]}) Tj"]
        for line in lines[1:]:
            ops += ["0 -12 Td", f"({line}) Tj"]
        ops.append("ET")
        contents.append(b.stream("<< >>", "\n".join(ops).encode(),
                                 compress=True))
        page_texts.append("\n".join(lines))
        size += len(b.bodies[-1]) + 80
    kids = [b.add(f"<< /Type /Page /Parent {{PARENT}} /Contents {c} 0 R >>"
                  .encode()) for c in contents]
    pages = b.add(f"<< /Type /Pages /Kids [{' '.join(f'{k} 0 R' for k in kids)}]"
                  f" /Count {len(kids)} /MediaBox [0 0 612 792] "
                  f"/Resources << /Font << /F1 {font} 0 R >> >> >>".encode())
    for k in kids:
        b.bodies[k - 1] = b.bodies[k - 1].replace(b"{PARENT}",
                                                  f"{pages} 0 R".encode())
    root = b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
    return b.build(root), "\n\n" + "\n\n".join(page_texts)


# -- workloads --------------------------------------------------------------

def _crawl_mix_row(seed: int, i: int):
    kind = _pick(_unit(seed, i, "kind"), [(70, "pdf"), (20, "html"),
                                          (10, "junk")])
    if kind == "pdf":
        name, payload, text = _small_pdf(seed, i)
        return name, payload, _status(text), text
    if kind == "html":
        n_words = 24 + int(_unit(seed, i, "html_size") * 40)  # ~1 KB pages
        name, payload, text = _html_row(seed, i, SMALL_HTML_CLASSES, n_words)
        return name, payload, _status(text), text
    name, payload, status = _junk(seed, i)
    return name, payload, status, ""


def _quota(seed: int, salt: str, n: int, weighted) -> list:
    """`n` items in the proportions of `weighted`, in a seeded order: every
    seed gets the same counts, so the same work, in another arrangement."""
    total = sum(w for w, _ in weighted)
    out, acc = [], 0.0
    for w, item in weighted:
        acc += w * n / total
        out += [item] * (round(acc) - len(out))
    random.Random(_u64(seed, 0, salt)).shuffle(out)
    return out


def _html_checkpoint_row(seed: int, i: int, kind: str, html_cls,
                         size_q: float):
    if kind == "pdf":
        name, payload, text = _small_pdf(seed, i)
        return name, payload, _status(text), text
    # 2-40 KB pages, log-uniform; ~6.3 bytes of page per word
    kb = 2 * 20 ** size_q
    name, make = html_cls
    page, text = make(random.Random(_u64(seed, i, "html_params")),
                      int(kb * 1024 / 6.3))
    return name, page, _status(text), text


def _large_pdfs_rows(seed: int):
    for k, kb in enumerate(LARGE_PDF_LADDER_KB):
        payload, text = large_pdf(random.Random(_u64(seed, k, "doc")),
                                  kb * 1024)
        yield f"large_pdf_{kb}kb", payload, "ok", text


def make_rows(workload: str, seed: int) -> List[Row]:
    if workload == "crawl_mix":
        raw = (_crawl_mix_row(seed, i) for i in range(CRAWL_MIX_ROWS))
    elif workload == "large_pdfs":
        raw = _large_pdfs_rows(seed)
    elif workload == "html_checkpoint":
        # the PDF share, the HTML classes and the page sizes (evenly spaced
        # quantiles) come in fixed counts, in a seeded order, so every seed
        # carries about the same work
        n = HTML_CHECKPOINT_ROWS
        kinds = _quota(seed, "kind", n, [(1, "pdf"), (9, "html")])
        classes = _quota(seed, "html_class", n,
                         [(w, (c, m)) for w, c, m in LARGE_HTML_CLASSES])
        order = _quota(seed, "html_sizes", n, [(1, k) for k in range(n)])
        raw = (_html_checkpoint_row(seed, i, kinds[i], classes[i],
                                    (order[i] + 0.5) / n)
               for i in range(n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Row(f"https://example.org/{workload}/{seed}/{i:06d}",
                payload, status, text, cls)
            for i, (cls, payload, status, text) in enumerate(raw)]


def n_files(workload: str) -> int:
    return {"crawl_mix": CRAWL_MIX_FILES, "large_pdfs": 1,
            "html_checkpoint": HTML_CHECKPOINT_FILES}[workload]


_EPOCH = datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)
_LANGS = ("en", "de", "hu", "fr", "")


def pages_table(rows: List[Row], seed: int) -> pa.Table:
    """Rows -> the pages table in the input_hint schema."""
    rng = random.Random(_u64(seed, 0, "crawl_text"))
    return pa.Table.from_arrays(
        [pa.array([r.url for r in rows], pa.string()),
         pa.array([_EPOCH + datetime.timedelta(seconds=137 * i)
                   for i in range(len(rows))], pa.timestamp("us")),
         pa.array([r.payload for r in rows], pa.binary()),
         pa.array([_words(rng, 8) for _ in rows], pa.string()),
         pa.array([_LANGS[i % len(_LANGS)] for i in range(len(rows))],
                  pa.string())],
        schema=PAGES_SCHEMA)


def expect_table(rows: List[Row]) -> pa.Table:
    return pa.table({"url": [r.url for r in rows],
                     "status": [r.status for r in rows],
                     "text": [r.text for r in rows]})


def class_counts(rows: List[Row]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in rows:
        out[r.cls] = out.get(r.cls, 0) + 1
    return dict(sorted(out.items()))

