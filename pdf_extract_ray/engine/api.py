"""Public extraction API, mirroring the reference's entry points
(/root/reference/src/lib.rs:2219-2416):

extract_text / extract_text_from_mem (+ _encrypted variants),
extract_text_by_pages family, output_doc, output_doc_page, get_metadata.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .devices import (SPAN_OVERFLOW, OutputDev, PlainTextOutput,
                      SpanGeometry, SpanTextOutput, place_text)
from .document import Document, load_document
from .interpreter import Processor
from .objects import (Name, PdfError, PdfString, Ref, maybe_deref,
                      maybe_get_obj, pdf_to_utf8)


def _get_inherited(doc: Document, d: dict, key: bytes):
    """Resolve an attribute up the page tree via Parent links
    (src/lib.rs:2352-2362)."""
    seen = 0
    while d is not None and seen < 64:
        v = maybe_get_obj(doc, d, key)
        if v is not None:
            return v
        parent = d.get(b"Parent")
        if not isinstance(parent, Ref):
            return None
        p = doc.get_object(parent)
        d = p if isinstance(p, dict) else None
        seen += 1
    return None


def _num_array(doc, v) -> Optional[List[float]]:
    if not isinstance(v, list):
        return None
    out = []
    for x in v:
        x = maybe_deref(doc, x)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise PdfError("wrong type in number array")
        out.append(float(x))
    return out


def output_doc_inner(page_num: int, page_ref: Ref, doc: Document,
                     p: Processor, output: OutputDev,
                     empty_resources: dict) -> None:
    """(src/lib.rs:2401-2416)"""
    page_dict = doc.get_object(page_ref)
    if not isinstance(page_dict, dict):
        raise PdfError("bad page object")
    resources = _get_inherited(doc, page_dict, b"Resources")
    if not isinstance(resources, dict):
        resources = empty_resources
    media_box = _num_array(doc, _get_inherited(doc, page_dict, b"MediaBox"))
    if media_box is None or len(media_box) < 4:
        raise PdfError("MediaBox")
    media_box = (media_box[0], media_box[1], media_box[2], media_box[3])
    art_box_v = _num_array(doc, maybe_get_obj(doc, page_dict, b"ArtBox"))
    art_box = (art_box_v[0], art_box_v[1], art_box_v[2], art_box_v[3]) if art_box_v else None
    output.begin_page(page_num, media_box, art_box)
    p.process_stream(doc, doc.get_page_content(page_ref), resources,
                     media_box, output, page_num)
    output.end_page()


def output_doc_encrypted(doc: Document, output: OutputDev,
                         password: str) -> None:
    """Decrypt with `password`, then run the device over every page
    (src/lib.rs:2364-2372)."""
    doc.decrypt(password)
    output_doc(doc, output)


def output_doc(doc: Document, output: OutputDev) -> None:
    """One shared Processor across pages — the font cache spans pages
    (src/lib.rs:2374-2387)."""
    empty_resources: dict = {}
    pages = doc.get_pages()
    p = Processor()
    for page_num in sorted(pages):
        output_doc_inner(page_num, pages[page_num], doc, p, output, empty_resources)


def output_doc_page(doc: Document, output: OutputDev, page_num: int) -> None:
    """Fresh Processor for the single page (src/lib.rs:2389-2399)."""
    pages = doc.get_pages()
    ref = pages.get(page_num)
    if ref is None:
        raise PdfError(f"page number {page_num} not found")
    p = Processor()
    output_doc_inner(page_num, ref, doc, p, output, {})


def maybe_decrypt(doc: Document) -> None:
    """Empty-password auto-decrypt (src/lib.rs:2230-2244)."""
    if doc.is_encrypted():
        doc.decrypt("")


def extract_text_from_mem(buffer: bytes) -> str:
    doc = load_document(buffer)
    maybe_decrypt(doc)
    out = PlainTextOutput()
    output_doc(doc, out)
    return out.get_text()


def extract_text_from_mem_encrypted(buffer: bytes, password: str) -> str:
    doc = load_document(buffer)
    doc.decrypt(password)
    out = PlainTextOutput()
    output_doc(doc, out)
    return out.get_text()


def extract_text(path) -> str:
    with open(path, "rb") as f:
        return extract_text_from_mem(f.read())


def extract_text_encrypted(path, password: str) -> str:
    with open(path, "rb") as f:
        return extract_text_from_mem_encrypted(f.read(), password)


def _extract_by_pages(doc: Document) -> List[str]:
    """Page loop with a FRESH Processor per page, stopping at the first
    failing page lookup (src/lib.rs:2295-2307)."""
    out: List[str] = []
    page_num = 1
    while True:
        try:
            dev = PlainTextOutput()
            output_doc_page(doc, dev, page_num)
        except Exception:
            break
        out.append(dev.get_text())
        page_num += 1
    return out


def extract_text_from_mem_by_pages(buffer: bytes) -> List[str]:
    doc = load_document(buffer)
    maybe_decrypt(doc)
    return _extract_by_pages(doc)


def extract_text_from_mem_by_pages_encrypted(buffer: bytes, password: str) -> List[str]:
    doc = load_document(buffer)
    doc.decrypt(password)
    return _extract_by_pages(doc)


def extract_text_by_pages(path) -> List[str]:
    with open(path, "rb") as f:
        return extract_text_from_mem_by_pages(f.read())


def extract_text_by_pages_encrypted(path, password: str) -> List[str]:
    with open(path, "rb") as f:
        return extract_text_from_mem_by_pages_encrypted(f.read(), password)


def extract_text_and_spans_from_mem(buffer: bytes
                                    ) -> Tuple[str, List[Tuple[int, int, int, float, float, float]]]:
    """Text (byte-identical to extract_text_from_mem) + per-char spans."""
    doc = load_document(buffer)
    maybe_decrypt(doc)
    out = SpanTextOutput()
    output_doc(doc, out)
    (text,), columns = place_text([out.recorded()])
    if text is None:
        raise OverflowError(SPAN_OVERFLOW)
    return text, list(zip(*(c.tolist() for c in columns)))


def extract_text_and_span_columns_from_mem(buffer: bytes
                                           ) -> Tuple[List[str], SpanGeometry]:
    """Pipeline fast path: the document's unplaced text runs -- each
    text string's text, and the glyph geometry (`SpanGeometry`, one
    entry of `codes` per glyph) -- which `devices.place_text` turns into
    the text and the span columns (pages, starts, ends, xs, ys,
    font_sizes); place many documents' runs in one call."""
    doc = load_document(buffer)
    maybe_decrypt(doc)
    out = SpanTextOutput()
    output_doc(doc, out)
    return out.recorded()


def get_metadata(buffer_or_doc) -> Dict[str, str]:
    """Trailer Info dict (literal strings) + page count
    (print_metadata, src/lib.rs:2203-2216) as a dict.

    When called with raw bytes, empty-password decryption is attempted
    on the freshly-created Document so the page tree inside encrypted
    object streams is countable.  A caller-passed Document is NEVER
    mutated (the reference's print_metadata does not decrypt either) —
    decrypt it yourself first if you want page_count on encrypted
    input."""
    if isinstance(buffer_or_doc, Document):
        doc = buffer_or_doc
    else:
        doc = load_document(buffer_or_doc)
        try:
            maybe_decrypt(doc)  # empty-password docs: page tree may
        except Exception:       # live in encrypted object streams
            pass
    meta: Dict[str, str] = {"version": doc.version}
    info = maybe_get_obj(doc, doc.trailer, b"Info")
    if isinstance(info, dict):
        for k, v in info.items():
            if isinstance(v, PdfString):
                try:
                    meta[pdf_to_utf8(k)] = pdf_to_utf8(bytes(v))
                except Exception:
                    pass
    try:
        meta["page_count"] = str(len(doc.get_pages()))
    except Exception:
        pass
    return meta
