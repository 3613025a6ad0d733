"""Output devices: consumers of the text and path event stream.

`OutputDev` is the user-extension surface (reference src/lib.rs:1879-1888).
Text arrives one text string (a "run") at a time through `output_run`,
which carries the run's geometry rather than per-glyph matrices (see
`interpreter.show_text`); a device evaluates only the glyph positions it
needs.  `OutputDev`'s default `output_run` feeds `output_character` once
per glyph with the full text-rendering matrix, which is what `HTMLOutput`
and devices that override only `output_character` see.

`PlainTextOutput` is the byte-parity-critical word/line reconstruction
(src/lib.rs:2131-2200); it places only a run's first and last glyph.
`SpanTextOutput` produces identical text and records each run's geometry
in flat buffers (`SpanGeometry`); `resolve_span_columns` turns one or
many of them into the (page, start, end, x, y, font_size) span columns
in numpy.

A single-char run: when `glyphs` is a `fonts.GlyphRun` (every glyph
decodes to one char), these two devices take its `text` and never read
the glyphs but the last one's width; the run's char lengths are all 1.
"""
from __future__ import annotations

import array
from operator import itemgetter
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .fonts import Glyph, GlyphRun
from .interpreter import Transform, mul, transform_vector, translation

_glyph_char = itemgetter(1)


class OutputDev:
    """Protocol for event consumers; all hooks default to no-ops.

    Text arrives one text string at a time: `show_text` calls
    `begin_word`, then `output_run` with the string's geometry (if it has
    any glyphs), then `end_word`.  A device overrides either
    `output_character`, which the default `output_run` calls once per
    glyph with the glyph's full text-rendering matrix, or `output_run`
    itself to handle the whole string in one call.
    """

    def begin_page(self, page_num: int, media_box, art_box) -> None:
        pass

    def end_page(self) -> None:
        pass

    def output_character(self, trm: Transform, width: float, spacing: float,
                         font_size: float, char: str) -> None:
        pass

    def output_run(self, linear_part: Sequence[float], font_size: float,
                   rise: Tuple[float, float], ctm: Transform,
                   t4s: Sequence[float], t5s: Sequence[float],
                   glyphs: Sequence[Glyph],
                   spacing: Tuple[float, float]) -> None:
        """One text string's glyphs, in order.  Glyph i has the
        text-rendering matrix `(*linear_part, e4, e5)` with
        `e4 = r4 + (t4s[i] * c0 + t5s[i] * c2 + c4)` and
        `e5 = r5 + (t4s[i] * c1 + t5s[i] * c3 + c5)`, where
        `(r4, r5) = rise` and `(c0, ..., c5) = ctm`; the
        `(width / 1000, char, is_word_space)` of `glyphs[i]`; and the
        advance spacing `spacing[1]` if it is a word space, else
        `spacing[0]`.  Everything but t4s/t5s/glyphs is shared by the
        whole run.  t4s, t5s and glyphs are sequences of the same
        length; glyphs may be a `GlyphRun`, which also carries the
        run's text."""
        a, b, c, d = linear_part
        r4, r5 = rise
        c0, c1, c2, c3, c4, c5 = ctm
        char_spacing, space_spacing = spacing
        out = self.output_character
        for t4, t5, (width, char, word_space) in zip(t4s, t5s, glyphs):
            out((a, b, c, d, r4 + (t4 * c0 + t5 * c2 + c4),
                 r5 + (t4 * c1 + t5 * c3 + c5)), width,
                space_spacing if word_space else char_spacing, font_size,
                char)

    def begin_word(self) -> None:
        pass

    def end_word(self) -> None:
        pass

    def end_line(self) -> None:
        pass

    def stroke(self, ctm, colorspace, color, path) -> None:
        pass

    def fill(self, ctm, colorspace, color, path) -> None:
        pass


def _sqrt_or_nan(v: float) -> float:
    # Rust f64::sqrt(negative) == NaN; Python math.sqrt raises, so guard.
    return v ** 0.5 if v >= 0.0 else float("nan")


class PlainTextOutput(OutputDev):
    """Char events -> text, with the three spacing heuristics
    (src/lib.rs:2161-2190):
      newline if |y - last_y| > 1.5 * tfs
      newline if x < last_end and |y - last_y| > 0.5 * tfs  (left+down)
      space   if x > last_end + 0.1 * tfs
    where tfs = sqrt(tx*ty) of the trm-transformed (fs, fs) vector.
    The rules apply only to a word's first glyph, and tfs depends only
    on the linear part of trm and the font size, so a run is placed by
    its first and last glyph alone.  Line breaks come ONLY from these
    y-delta rules; end_line is a no-op (src/lib.rs:2196-2199).
    """

    def __init__(self):
        self.parts: List[str] = []
        self.last_end = 100000.0
        self.last_y = 0.0
        self.first_char = False
        self.flip_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def get_text(self) -> str:
        return "".join(self.parts)

    def begin_page(self, page_num, media_box, art_box) -> None:
        # flip page space vertically (src/lib.rs:2154-2156)
        self.flip_ctm = (1.0, 0.0, 0.0, -1.0, 0.0, media_box[3] - media_box[1])

    def begin_word(self) -> None:
        self.first_char = True

    def output_character(self, trm, width, spacing, font_size, char) -> None:
        # a one-glyph run with t4 = t5 = -0.0, rise -0.0 and a ctm with a
        # zero linear part and translation trm[4:]: e4 = -0.0 + ((-0.0 *
        # 0.0 + -0.0 * 0.0) + trm[4]) == trm[4] bit for bit (x + -0.0 == x
        # for every float x), and likewise e5 == trm[5]
        self.output_run(trm[:4], font_size, (-0.0, -0.0),
                        (0.0, 0.0, 0.0, 0.0, trm[4], trm[5]), [-0.0], [-0.0],
                        [(width, char, False)], (spacing, spacing))

    def output_run(self, linear_part, font_size, rise, ctm, t4s, t5s, glyphs,
                   spacing) -> None:
        _tfs, sep = self._place_run(linear_part, font_size, rise, ctm, t4s,
                                    t5s, glyphs)
        self.parts.append(sep + (glyphs.text if type(glyphs) is GlyphRun
                                 else "".join(map(_glyph_char, glyphs))))

    def _place_run(self, linear_part, font_size, rise, ctm, t4s, t5s,
                   glyphs) -> Tuple[float, str]:
        """-> (tfs, separator to put before the run), and move the
        line/word state past the run's last glyph."""
        tvx, tvy = transform_vector(linear_part, font_size, font_size)
        tfs = _sqrt_or_nan(tvx * tvy)
        r4, r5 = rise
        c0, c1, c2, c3, c4, c5 = ctm
        # translation row of mul(trm, flip_ctm), inlined (only 4,5 used)
        f0, f1, f2, f3, f4, f5 = self.flip_ctm
        sep = ""
        if self.first_char:
            t4, t5 = t4s[0], t5s[0]
            e4 = r4 + (t4 * c0 + t5 * c2 + c4)
            e5 = r5 + (t4 * c1 + t5 * c3 + c5)
            x = e4 * f0 + e5 * f2 + f4
            dy = abs(e4 * f1 + e5 * f3 + f5 - self.last_y)
            if dy > tfs * 1.5:
                sep = "\n"
            # we've moved to the left and down
            if x < self.last_end and dy > tfs * 0.5:
                sep += "\n"
            if x > self.last_end + tfs * 0.1:
                sep += " "
            self.first_char = False
        t4, t5 = t4s[-1], t5s[-1]
        e4 = r4 + (t4 * c0 + t5 * c2 + c4)
        e5 = r5 + (t4 * c1 + t5 * c3 + c5)
        self.last_y = e4 * f1 + e5 * f3 + f5
        self.last_end = e4 * f0 + e5 * f2 + f4 + glyphs[-1][0] * tfs
        return tfs, sep


# SpanTextOutput's per-run record: RUN_WIDTH doubles, in this order
_RUN_FIELDS = ("page", "start", "n", "tfs", "c0", "c1", "c2", "c3", "c4",
               "c5", "r4", "r5", "f0", "f1", "f2", "f3", "f4", "f5")
RUN_WIDTH = len(_RUN_FIELDS)
(_PAGE, _START, _N, _TFS, _C0, _C1, _C2, _C3, _C4, _C5, _R4, _R5,
 _F0, _F1, _F2, _F3, _F4, _F5) = range(RUN_WIDTH)
_INT32_MAX = 2 ** 31 - 1
_ONE = array.array("i", (1,))


class SpanGeometry(NamedTuple):
    """A document's glyph geometry as SpanTextOutput recorded it: per
    glyph the tm translation (t4, t5) and the length of its decoded
    string, and per run one RUN_WIDTH-double record (page, text offset of
    the run's first glyph, glyph count, transformed font size, ctm, rise
    terms, flip ctm).  `len(t4)` is the glyph count."""
    t4: array.array
    t5: array.array
    char_len: array.array
    runs: array.array


class SpanTextOutput(PlainTextOutput):
    """PlainTextOutput + per-character span records:
    (page, start, end, x, y, font_size) with start/end as offsets into the
    final extracted text.  Text output is byte-identical to PlainTextOutput
    by construction (it IS PlainTextOutput's logic).

    A run appends its glyphs' t4/t5 and decoded-string lengths to flat
    buffers and one fixed-width record to `runs`; no glyph is placed
    here.  `geometry()` hands the buffers over, and
    `resolve_span_columns` places the glyphs of one or many documents in
    numpy.  The tuple-list `spans` property remains for direct API
    users."""

    def __init__(self):
        super().__init__()
        self._geometry = SpanGeometry(array.array("d"), array.array("d"),
                                      array.array("i"), array.array("d"))
        self._page = 0
        self._len = 0

    @property
    def spans(self) -> List[Tuple[int, int, int, float, float, float]]:
        # resolve a copy: the resolve consumes the buffers it is given
        copy = SpanGeometry(*(array.array(b.typecode, b)
                              for b in self._geometry))
        return list(zip(*(c.tolist() for c in resolve_span_columns([copy]))))

    def geometry(self) -> SpanGeometry:
        """The recorded buffers, for `resolve_span_columns` (once)."""
        return self._geometry

    def begin_page(self, page_num, media_box, art_box) -> None:
        super().begin_page(page_num, media_box, art_box)
        self._page = page_num

    def output_run(self, linear_part, font_size, rise, ctm, t4s, t5s, glyphs,
                   spacing) -> None:
        # show_text builds t4s as a list, so `fromlist` copies it without
        # the iterator protocol; t5s is a list or an array('d')
        tfs, sep = self._place_run(linear_part, font_size, rise, ctm, t4s,
                                   t5s, glyphs)
        if type(glyphs) is GlyphRun:
            text = glyphs.text
            n = len(text)
            one_char = True
        else:
            chars = list(map(_glyph_char, glyphs))
            text = "".join(chars)
            n = len(chars)
            one_char = len(text) == n and "" not in chars
        self.parts.append(sep + text)
        start = self._len + len(sep)
        self._len = start + len(text)
        if self._len > _INT32_MAX:
            raise OverflowError("span offsets exceed int32")
        geom = self._geometry
        geom.t4.fromlist(t4s)
        geom.t5.extend(t5s)
        if one_char:
            geom.char_len.extend(_ONE * n)  # one char per glyph
        else:
            geom.char_len.fromlist(list(map(len, chars)))
        geom.runs.fromlist([self._page, start, n, tfs, *ctm, *rise,
                            *self.flip_ctm])


# glyphs per resolve step: bounds the temporaries of resolve_span_columns
# (and, in the pipeline, how many small documents share one span chunk)
SPAN_CHUNK = 1 << 15


def resolve_span_columns(geometries: Sequence[SpanGeometry]):
    """Place every glyph of `geometries`, in order, and return the span
    columns: page, start, end (int32) and x, y, font_size (float64).

    The columns x, y and end are written over the per-glyph t4, t5 and
    char_len buffers: with one geometry they ARE its buffers, so the
    call consumes it and the glyphs take no memory beyond the columns;
    with several, they are a concatenation of them.  Runs are placed in
    steps of about SPAN_CHUNK glyphs, so temporaries stay bounded however
    large the input.  Each float is the same IEEE operation on the same
    operands, in the same order, as `OutputDev.output_run`'s trm followed
    by the translation row of `mul(trm, flip_ctm)`.  It cannot raise on
    buffers a SpanTextOutput recorded: NaN and inf propagate as they do
    in Python."""
    dtypes = (np.float64, np.float64, np.int32, np.float64)
    if len(geometries) == 1:
        xs, ys, ends, runs = (np.frombuffer(buf, dt)
                              for buf, dt in zip(geometries[0], dtypes))
    else:
        xs, ys, ends, runs = (
            np.concatenate([g[k] for g in geometries] or [np.empty(0, dt)])
            for k, dt in enumerate(dtypes))
    runs = runs.reshape(-1, RUN_WIDTH)
    counts = runs[:, _N].astype(np.int64)
    run_ends = np.cumsum(counts)
    n = len(xs)
    pages = np.empty(n, np.int32)
    starts = np.empty(n, np.int32)
    fss = np.empty(n, np.float64)
    r = g = 0
    with np.errstate(all="ignore"):
        while r < len(runs):
            # the next runs of about SPAN_CHUNK glyphs (at least one run)
            r_end = max(r + 1, int(np.searchsorted(run_ends, g + SPAN_CHUNK,
                                                   side="right")))
            g_end = int(run_ends[r_end - 1])
            step, c = runs[r:r_end], counts[r:r_end]

            def per_glyph(field):
                return np.repeat(step[:, field], c)

            t4, t5 = xs[g:g_end], ys[g:g_end]
            e4 = per_glyph(_R4) + (t4 * per_glyph(_C0) + t5 * per_glyph(_C2)
                                   + per_glyph(_C4))
            e5 = per_glyph(_R5) + (t4 * per_glyph(_C1) + t5 * per_glyph(_C3)
                                   + per_glyph(_C5))
            t4[:] = e4 * per_glyph(_F0) + e5 * per_glyph(_F2) + per_glyph(_F4)
            t5[:] = e4 * per_glyph(_F1) + e5 * per_glyph(_F3) + per_glyph(_F5)
            fss[g:g_end] = per_glyph(_TFS)
            pages[g:g_end] = per_glyph(_PAGE)
            # a glyph starts at its run's text offset plus the decoded
            # lengths of the run's earlier glyphs
            lens = ends[g:g_end]
            before = np.cumsum(lens, dtype=np.int64) - lens
            start = (per_glyph(_START).astype(np.int64) + before
                     - np.repeat(before[np.cumsum(c) - c], c))
            starts[g:g_end] = start
            lens[:] = start + lens
            r, g = r_end, g_end
    return pages, starts, ends, xs, ys, fss


class PageTextOutput(PlainTextOutput):
    """Collects per-page text (extract_text_by_pages helper for the
    single-Processor path; the reference uses a fresh Processor per page —
    see api.extract_text_from_mem_by_pages for that behavior)."""

    def __init__(self):
        super().__init__()
        self.pages: List[str] = []

    def end_page(self) -> None:
        self.pages.append(self.get_text())
        self.parts = []


def insert_nbsp(text: str) -> str:
    """Leading/run-final/solo spaces -> &nbsp; (reference insert_nbsp,
    src/lib.rs:1900-1918): a space becomes &nbsp; when it does not follow
    a word character, or when only spaces (or nothing) follow it."""
    result: List[str] = []
    word_end = False
    n = len(text)
    for i, c in enumerate(text):
        if c == " ":
            nxt = text[i + 1] if i + 1 < n else None
            if not word_end or nxt is None or nxt == " ":
                result.append("&nbsp;")
            else:
                result.append(" ")
            word_end = False
        else:
            word_end = True
            result.append(c)
    return "".join(result)


def _approx_eq(a: Transform, b: Transform, eps: float = 1e-6) -> bool:
    return all(abs(x - y) <= eps for x, y in zip(a, b))


class HTMLOutput(OutputDev):
    """HTML sink mirroring the reference's HTMLOutput
    (src/lib.rs:1891-1993): a per-char red debug div for every glyph, plus
    text runs accumulated while the glyph transform continues from the
    previous advance (approx-equal ctm), flushed as positioned divs."""

    def __init__(self):
        self.parts: List[str] = []
        self.flip_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        self.last_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        self.buf_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        self.buf_font_size = 0.0
        self.buf = ""

    def get_html(self) -> str:
        return "".join(self.parts)

    def _flush_string(self) -> None:
        if self.buf:
            position = mul(self.buf_ctm, self.flip_ctm)
            tvx, tvy = transform_vector(self.buf_ctm, self.buf_font_size,
                                        self.buf_font_size)
            tfs = _sqrt_or_nan(tvx * tvy)
            x, y = position[4], position[5]
            self.parts.append(
                f"<div style='position: absolute; left: {_fmt(x)}px; "
                f"top: {_fmt(y)}px; font-size: {_fmt(tfs)}px'>"
                f"{insert_nbsp(self.buf)}</div>\n")

    def begin_page(self, page_num, media_box, art_box) -> None:
        h = media_box[3] - media_box[1]
        w = media_box[2] - media_box[0]
        self.parts.append("<meta charset='utf-8' /> ")
        self.parts.append(f"<!-- page {page_num} -->")
        self.parts.append(
            f"<div id='page{page_num}' style='position: relative; "
            f"height: {_fmt(h)}px; width: {_fmt(w)}px; "
            f"border: 1px black solid'>")
        self.flip_ctm = (1.0, 0.0, 0.0, -1.0, 0.0, media_box[3] - media_box[1])

    def end_page(self) -> None:
        self._flush_string()
        self.buf = ""
        self.last_ctm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        self.parts.append("</div>")

    def output_character(self, trm, width, spacing, font_size, char) -> None:
        if _approx_eq(trm, self.last_ctm):
            self.buf += char
        else:
            self._flush_string()
            self.buf = char
            self.buf_font_size = font_size
            self.buf_ctm = trm
        position = mul(trm, self.flip_ctm)
        tvx, tvy = transform_vector(trm, font_size, font_size)
        tfs = _sqrt_or_nan(tvx * tvy)
        x, y = position[4], position[5]
        self.parts.append(
            f"<div style='position: absolute; color: red; left: {_fmt(x)}px; "
            f"top: {_fmt(y)}px; font-size: {_fmt(tfs)}px'>{char}</div>")
        self.last_ctm = mul(translation(width * font_size + spacing, 0.0), trm)


def _fmt(v: float) -> str:
    """Float formatting like Rust's `{}` Display: shortest round-trip
    repr, integral values without a trailing '.0'."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class SVGOutput(OutputDev):
    """Page -> SVG; emits fill paths, no text (reference SVGOutput,
    src/lib.rs:1995-2087): svg header with viewBox from art-box or
    media-box, a flip-y group, one <g><path> per fill event."""

    def __init__(self):
        self.parts: List[str] = []

    def get_svg(self) -> str:
        return "".join(self.parts)

    def begin_page(self, page_num, media_box, art_box) -> None:
        self.parts.append('<?xml version="1.0" encoding="UTF-8" ?>\n')
        self.parts.append('<!DOCTYPE svg PUBLIC "-//W3C//DTD SVG 1.1//EN" '
                          '"http://www.w3.org/Graphics/SVG/1.1/DTD/svg11.dtd">')
        if art_box is not None:
            width = art_box[2] - art_box[0]
            height = art_box[3] - art_box[1]
            y = media_box[3] - art_box[1] - height
            vb = (art_box[0], y, width, height)
        else:
            width = media_box[2] - media_box[0]
            height = media_box[3] - media_box[1]
            vb = (media_box[0], media_box[1], width, height)
        self.parts.append(
            f'<svg width="{_fmt(width)}" height="{_fmt(height)}" '
            f'xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f"viewBox='{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}'>")
        self.parts.append("\n")
        # scale(1,-1) then translate(0, ury): flip page space
        self.parts.append(
            f"<g transform='matrix(1, 0, 0, -1, 0, {_fmt(media_box[3])})'>\n")

    def end_page(self) -> None:
        self.parts.append("</g>\n</svg>")

    def fill(self, ctm, colorspace, color, path) -> None:
        m = ctm
        self.parts.append(
            f"<g transform='matrix({_fmt(m[0])}, {_fmt(m[1])}, {_fmt(m[2])}, "
            f"{_fmt(m[3])}, {_fmt(m[4])}, {_fmt(m[5])})'>")
        d = []
        for op in path:
            if op[0] == "m":
                d.append(f"M{_fmt(op[1])} {_fmt(op[2])}")
            elif op[0] == "l":
                d.append(f"L{_fmt(op[1])} {_fmt(op[2])}")
            elif op[0] == "c":
                d.append("C" + " ".join(_fmt(v) for v in op[1:7]))
            elif op[0] == "h":
                d.append("Z")
            elif op[0] == "re":
                x, y, w, h = op[1], op[2], op[3], op[4]
                d.append(f"M{_fmt(x)} {_fmt(y)}")
                d.append(f"L{_fmt(x + w)} {_fmt(y)}")
                d.append(f"L{_fmt(x + w)} {_fmt(y + h)}")
                d.append(f"L{_fmt(x)} {_fmt(y + h)}")
                d.append("Z")
        self.parts.append(f"<path d='{' '.join(d)}' /></g>\n")
