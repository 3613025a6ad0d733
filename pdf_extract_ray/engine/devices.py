"""Output devices: consumers of the per-character event stream.

`OutputDev` is the user-extension surface (reference src/lib.rs:1879-1888).
`PlainTextOutput` is the byte-parity-critical word/line reconstruction
(src/lib.rs:2131-2200); `SpanTextOutput` produces identical text plus a
span record per character for the `spans` output column.
"""
from __future__ import annotations

import array
from itertools import accumulate
from operator import itemgetter
from typing import List, Sequence, Tuple

from .fonts import Glyph
from .interpreter import Transform, mul, transform_vector, translation

_glyph_char = itemgetter(1)


class OutputDev:
    """Protocol for event consumers; all hooks default to no-ops.

    Text arrives one text string at a time: `show_text` calls
    `begin_word`, then `output_run` with the string's glyphs (if it has
    any), then `end_word`.  A device overrides either `output_character`,
    which the default `output_run` calls once per glyph with the glyph's
    full text-rendering matrix, or `output_run` itself to handle the
    whole string in one call.
    """

    def begin_page(self, page_num: int, media_box, art_box) -> None:
        pass

    def end_page(self) -> None:
        pass

    def output_character(self, trm: Transform, width: float, spacing: float,
                         font_size: float, char: str) -> None:
        pass

    def output_run(self, linear_part: Sequence[float], font_size: float,
                   e4s: Sequence[float], e5s: Sequence[float],
                   glyphs: Sequence[Glyph],
                   spacings: Sequence[float]) -> None:
        """One text string's glyphs, in order.  Glyph i has the
        text-rendering matrix `(*linear_part, e4s[i], e5s[i])`, the
        `(width / 1000, char, is_word_space)` of `glyphs[i]` and the
        advance spacing `spacings[i]`; the linear part and font size are
        shared by the whole run."""
        a, b, c, d = linear_part
        out = self.output_character
        for e4, e5, glyph, spacing in zip(e4s, e5s, glyphs, spacings):
            out((a, b, c, d, e4, e5), glyph[0], spacing, font_size, glyph[1])

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
    on the linear part of trm and the font size, so both are worked out
    once per run.  Line breaks come ONLY from these y-delta rules;
    end_line is a no-op (src/lib.rs:2196-2199).
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
        self.output_run(trm[:4], font_size, (trm[4],), (trm[5],),
                        ((width, char, False),), (spacing,))

    def output_run(self, linear_part, font_size, e4s, e5s, glyphs,
                   spacings) -> None:
        _tfs, sep = self._place_run(linear_part, font_size, e4s, e5s, glyphs)
        self.parts.append(sep + "".join(map(_glyph_char, glyphs)))

    def _place_run(self, linear_part, font_size, e4s, e5s,
                   glyphs) -> Tuple[float, str]:
        """-> (tfs, separator to put before the run), and move the
        line/word state past the run's last glyph."""
        tvx, tvy = transform_vector(linear_part, font_size, font_size)
        tfs = _sqrt_or_nan(tvx * tvy)
        # translation row of mul(trm, flip_ctm), inlined (only 4,5 used)
        f0, f1, f2, f3, f4, f5 = self.flip_ctm
        sep = ""
        if self.first_char:
            e4, e5 = e4s[0], e5s[0]
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
        e4, e5 = e4s[-1], e5s[-1]
        self.last_y = e4 * f1 + e5 * f3 + f5
        self.last_end = e4 * f0 + e5 * f2 + f4 + glyphs[-1][0] * tfs
        return tfs, sep


class SpanTextOutput(PlainTextOutput):
    """PlainTextOutput + per-character span records:
    (page, start, end, x, y, font_size) with start/end as offsets into the
    final extracted text.  Text output is byte-identical to PlainTextOutput
    by construction (it IS PlainTextOutput's logic).

    Spans are collected as flat columnar buffers (`span_columns`) so the
    Arrow list<struct> column can be built zero-inference; the tuple-list
    `spans` property remains for direct API users."""

    def __init__(self):
        super().__init__()
        self._pages = array.array("i")
        self._starts = array.array("i")
        self._ends = array.array("i")
        self._xs = array.array("d")
        self._ys = array.array("d")
        self._fss = array.array("d")
        self._page = 0
        self._len = 0

    @property
    def spans(self) -> List[Tuple[int, int, int, float, float, float]]:
        return list(zip(self._pages, self._starts, self._ends,
                        self._xs, self._ys, self._fss))

    def span_columns(self):
        """-> (pages, starts, ends, xs, ys, font_sizes) flat arrays."""
        return (self._pages, self._starts, self._ends,
                self._xs, self._ys, self._fss)

    def begin_page(self, page_num, media_box, art_box) -> None:
        super().begin_page(page_num, media_box, art_box)
        self._page = page_num

    def output_run(self, linear_part, font_size, e4s, e5s, glyphs,
                   spacings) -> None:
        tfs, sep = self._place_run(linear_part, font_size, e4s, e5s, glyphs)
        chars = list(map(_glyph_char, glyphs))
        self.parts.append(sep + "".join(chars))
        # each glyph's span covers its own (possibly empty or multi-char)
        # decoded string
        offsets = array.array("i", accumulate(map(len, chars),
                                              initial=self._len + len(sep)))
        self._len = offsets[-1]
        self._starts += offsets[:-1]
        self._ends += offsets[1:]
        f0, f1, f2, f3, f4, f5 = self.flip_ctm
        self._xs.extend([e4 * f0 + e5 * f2 + f4 for e4, e5 in zip(e4s, e5s)])
        self._ys.extend([e4 * f1 + e5 * f3 + f5 for e4, e5 in zip(e4s, e5s)])
        n = len(chars)
        self._pages += array.array("i", (self._page,)) * n
        self._fss += array.array("d", (tfs,)) * n


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
