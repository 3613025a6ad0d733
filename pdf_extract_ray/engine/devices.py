"""Output devices: consumers of the text and path event stream.

`OutputDev` is the user-extension surface (reference src/lib.rs:1879-1888).
Text arrives one text string (a "run") at a time, as one
`output_run(run)` call with a `interpreter.TextRun` record: the string's
text, the scalars every device needs (transformed font size, the first
and last glyph's tm translation, the last glyph's width) and what the
other glyphs are placed from (the tm advance of each glyph, by 1-byte
code or one per glyph).  No per-glyph matrix is built unless a device
asks for it: `OutputDev`'s default `output_run` expands the record into
`begin_word`, one `output_character` per glyph with its full
text-rendering matrix, and `end_word`, which is what `HTMLOutput` and
devices that override only `output_character` see.

`PlainTextOutput` is the byte-parity-critical word/line reconstruction
(src/lib.rs:2131-2200); it places a run from its scalars alone.
`SpanTextOutput` produces identical text and records each run as one
fixed-width record plus, per glyph, its code (`SpanGeometry`);
`resolve_span_columns` turns one or many of them into the (page, start,
end, x, y, font_size) span columns in numpy.
"""
from __future__ import annotations

import array
from itertools import accumulate, repeat
from operator import mul as _fmul
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .interpreter import (TextRun, Transform, _sqrt_or_nan, mul,
                          transform_vector, translation)


class OutputDev:
    """Protocol for event consumers; all hooks default to no-ops.

    Text arrives one text string at a time, as one `output_run` call
    per string with glyphs.  A device overrides either
    `output_character`, which the default `output_run` calls once per
    glyph with the glyph's full text-rendering matrix (between
    `begin_word` and `end_word`), or `output_run` itself to handle the
    whole string in one call.
    """

    def begin_page(self, page_num: int, media_box, art_box) -> None:
        pass

    def end_page(self) -> None:
        pass

    def output_character(self, trm: Transform, width: float, spacing: float,
                         font_size: float, char: str) -> None:
        pass

    def output_run(self, run: TextRun) -> None:
        """One text string's glyphs, in order (`interpreter.TextRun`
        says how glyph i is placed).  This default expands the record:
        glyph i gets the text-rendering matrix `(*run.linear, e4, e5)`
        with `e4 = r4 + (t4_i * c0 + t5_i * c2 + c4)` and
        `e5 = r5 + (t4_i * c1 + t5_i * c3 + c5)`, its width and char,
        and the spacing `spacing[1]` if it is a word space, else
        `spacing[0]`."""
        codes, advances, glyphs = run.codes, run.advances, run.glyphs
        if codes is not None:
            glyphs = list(map(glyphs.__getitem__, codes))
            advances = list(map(advances.__getitem__, codes))
        t4s = accumulate(map(_fmul, advances, repeat(run.t0)),
                         initial=run.t4)
        t5s = accumulate(map(_fmul, advances, repeat(run.t1)),
                         initial=run.t5)
        a, b, c, d = run.linear
        r4, r5 = run.r4, run.r5
        c0, c1, c2, c3, c4, c5 = run.ctm
        char_spacing, space_spacing = run.spacing
        font_size = run.font_size
        out = self.output_character
        self.begin_word()
        for t4, t5, (width, char, word_space) in zip(t4s, t5s, glyphs):
            out((a, b, c, d, r4 + (t4 * c0 + t5 * c2 + c4),
                 r5 + (t4 * c1 + t5 * c3 + c5)), width,
                space_spacing if word_space else char_spacing, font_size,
                char)
        self.end_word()

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


def _glyph_run(trm: Transform, width: float, spacing: float,
               font_size: float, char: str) -> TextRun:
    """An `output_character` event as a one-glyph run.  t4 = t5 = -0.0,
    rise -0.0 and a ctm with a zero linear part and translation trm[4:]
    give e4 = -0.0 + ((-0.0 * 0.0 + -0.0 * 0.0) + trm[4]) == trm[4] bit
    for bit (x + -0.0 == x for every float x), and likewise
    e5 == trm[5]."""
    tvx, tvy = transform_vector(trm, font_size, font_size)
    return TextRun(char, _sqrt_or_nan(tvx * tvy), -0.0, -0.0, -0.0, -0.0,
                   width, (0.0, 0.0, 0.0, 0.0, trm[4], trm[5]), -0.0, -0.0,
                   1, None, [0.0], None if len(char) == 1 else [len(char)],
                   1.0, 0.0, [(width, char, False)], trm[:4], font_size,
                   (spacing, spacing))


class PlainTextOutput(OutputDev):
    """Runs -> text, with the three spacing heuristics
    (src/lib.rs:2161-2190):
      newline if |y - last_y| > 1.5 * tfs
      newline if x < last_end and |y - last_y| > 0.5 * tfs  (left+down)
      space   if x > last_end + 0.1 * tfs
    where tfs = sqrt(tx*ty) of the trm-transformed (fs, fs) vector.
    The rules apply only to a word's first glyph, and tfs depends only
    on the linear part of trm and the font size, so a run is placed by
    its first and last glyph alone.  Each text string is a word; with
    the per-glyph protocol (`begin_word`, `output_character`...,
    `end_word`) only the word's first glyph is placed.  Line breaks come
    ONLY from these y-delta rules; end_line is a no-op
    (src/lib.rs:2196-2199).
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
        self.output_run(_glyph_run(trm, width, spacing, font_size, char),
                        self.first_char)
        self.first_char = False

    def output_run(self, run, first: bool = True) -> None:
        """Append the run's text, after the separator the spacing rules
        give its first glyph when `first`, and move the line/word state
        past its last glyph."""
        (text, tfs, t4, t5, t4_last, t5_last, w_last,
         (c0, c1, c2, c3, c4, c5), r4, r5) = run[:10]
        # translation row of mul(trm, flip_ctm), inlined (only 4,5 used)
        f0, f1, f2, f3, f4, f5 = self.flip_ctm
        sep = ""
        if first:
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
        e4 = r4 + (t4_last * c0 + t5_last * c2 + c4)
        e5 = r5 + (t4_last * c1 + t5_last * c3 + c5)
        self.last_y = e4 * f1 + e5 * f3 + f5
        self.last_end = e4 * f0 + e5 * f2 + f4 + w_last * tfs
        self.parts.append(sep + text if sep else text)


# SpanTextOutput's per-run record: RUN_WIDTH doubles, in this order.
# ADV >= 0: the run's glyphs are 1-byte codes into advance table ADV of
# `SpanGeometry.tables`; ADV < 0: its advances are
# `advances[-1 - ADV:][:n]`.  LENS: offset of the run's decoded lengths
# in `char_len`, or -1 when each glyph decodes to one char.
_RUN_FIELDS = ("page", "start", "n", "tfs", "c0", "c1", "c2", "c3", "c4",
               "c5", "r4", "r5", "f0", "f1", "f2", "f3", "f4", "f5", "t0",
               "t1", "t4", "t5", "adv", "lens")
RUN_WIDTH = len(_RUN_FIELDS)
(_PAGE, _START, _N, _TFS, _C0, _C1, _C2, _C3, _C4, _C5, _R4, _R5,
 _F0, _F1, _F2, _F3, _F4, _F5, _T0, _T1, _T4, _T5, _ADV,
 _LENS) = range(RUN_WIDTH)
_INT32_MAX = 2 ** 31 - 1
# advances per table in SpanGeometry.tables (one per 1-byte code)
_TABLE = 256
# advance tables one SpanTextOutput keeps (2 KB each in the geometry);
# the runs of a text state past them record their advances per glyph
# (e.g. a document that sets Tw for every justified line)
_MAX_TABLES = 64


class SpanGeometry(NamedTuple):
    """A document's glyph geometry as SpanTextOutput recorded it: per
    glyph its 1-byte code (0 for a glyph of a font without 1-byte
    codes), so `len(codes)` is the glyph count; the advances of the
    runs that index no table, one per glyph; the advance tables the
    other 1-byte runs index, `_TABLE` doubles each (at most
    `_MAX_TABLES`); the decoded lengths of the runs whose glyphs are
    not all one char; and per run one RUN_WIDTH-double
    record (`_RUN_FIELDS`: page, text offset of the first glyph, glyph
    count, transformed font size, ctm, rise terms, flip ctm, tm's
    (t0, t1, t4, t5) at the first glyph, advance source, lengths)."""
    codes: array.array
    advances: array.array
    tables: array.array
    char_len: array.array
    runs: array.array


class SpanTextOutput(PlainTextOutput):
    """PlainTextOutput + per-character span records:
    (page, start, end, x, y, font_size) with start/end as offsets into the
    final extracted text.  Text output is byte-identical to PlainTextOutput
    by construction (it IS PlainTextOutput's logic).

    A run appends one fixed-width record to `runs` and its codes to
    `codes` (a font without 1-byte codes: zeros there; it and a 1-byte
    run whose advance table would be one past `_MAX_TABLES` append
    their advances to `advances`), plus its decoded lengths if they are
    not all 1; no glyph is placed here.  `geometry()` hands the buffers
    over, and `resolve_span_columns` places the glyphs of one or many
    documents in numpy.  The tuple-list `spans` property remains for
    direct API users."""

    def __init__(self):
        super().__init__()
        self._codes = array.array("B")
        self._advances = array.array("d")
        self._char_len = array.array("i")
        self._runs = array.array("d")
        # the advance tables runs index, and the index of each by id
        self._tables: List[list] = []
        self._table_index: Dict[int, int] = {}
        self._page = 0
        self._len = 0

    @property
    def spans(self) -> List[Tuple[int, int, int, float, float, float]]:
        return list(zip(*(c.tolist() for c in
                          resolve_span_columns([self.geometry()]))))

    def geometry(self) -> SpanGeometry:
        """The recorded buffers, for `resolve_span_columns`, which
        leaves them as they are."""
        tables = array.array("d")
        for table in self._tables:
            tables.fromlist(table)
        return SpanGeometry(self._codes, self._advances, tables,
                            self._char_len, self._runs)

    def begin_page(self, page_num, media_box, art_box) -> None:
        super().begin_page(page_num, media_box, art_box)
        self._page = page_num

    def output_run(self, run, first: bool = True) -> None:
        PlainTextOutput.output_run(self, run, first)
        (text, tfs, t4, t5, _t4_last, _t5_last, _w_last, ctm, r4, r5, n,
         codes, advances, char_lens, t0, t1, _glyphs, _linear, _font_size,
         _spacing) = run
        end = self._len + len(self.parts[-1])
        if end > _INT32_MAX:
            raise OverflowError("span offsets exceed int32")
        self._len = end
        if codes is None:
            self._codes.frombytes(bytes(n))
            adv = None
        else:
            self._codes.frombytes(codes)
            adv = self._table_index.get(id(advances))
            if adv is None and len(self._tables) < _MAX_TABLES:
                adv = self._table_index[id(advances)] = len(self._tables)
                self._tables.append(advances)
            elif adv is None:
                advances = list(map(advances.__getitem__, codes))
        if adv is None:
            adv = -1 - len(self._advances)
            self._advances.fromlist(advances)
        if char_lens is None:
            lens = -1
        else:
            lens = len(self._char_len)
            self._char_len.fromlist(char_lens)
        self._runs.fromlist([self._page, end - len(text), n, tfs, *ctm, r4,
                             r5, *self.flip_ctm, t0, t1, t4, t5, adv, lens])


# glyphs per resolve step, and padded cells per group of runs folded
# together: bounds the temporaries of resolve_span_columns
SPAN_CHUNK = 1 << 15
# padded cells `_fold_runs` may waste beyond one per value, in one array
_FOLD_SLACK = 1 << 16


def _concat(geometries: Sequence[SpanGeometry]):
    """`geometries` as one: -> (codes, advance pool, char_len, runs, and
    per run: the pool offset of its advances, whether they are a table
    indexed by code, the char_len offset of its lengths or -1).  The
    pool is the advance tables followed by the per-glyph advances."""
    codes, advances, tables, char_len, runs = (
        np.frombuffer(b"".join(bufs), dt) for bufs, dt in zip(
            list(zip(*geometries)) or [()] * 5,
            (np.uint8, np.float64, np.float64, np.int32, np.float64)))
    runs = runs.reshape(-1, RUN_WIDTH)
    adv = runs[:, _ADV].astype(np.int64)
    lens = runs[:, _LENS].astype(np.int64)
    is_code = adv >= 0
    if len(geometries) > 1:
        # per run, where its document's advances, tables and lengths
        # start in the joined buffers
        sizes = np.array([(len(g.advances), len(g.tables) // _TABLE,
                           len(g.char_len), len(g.runs) // RUN_WIDTH)
                          for g in geometries])
        at = np.repeat((np.cumsum(sizes, axis=0) - sizes)[:, :3],
                       sizes[:, 3], axis=0)
        adv += np.where(is_code, at[:, 1], -at[:, 0])
        lens += np.where(lens >= 0, at[:, 2], 0)
    base = np.where(is_code, adv * _TABLE, len(tables) - 1 - adv)
    return (codes, np.concatenate([tables, advances]), char_len, runs,
            base, is_code, lens)


def _fold_runs(vals: np.ndarray, counts: np.ndarray) -> None:
    """In place, for runs of `counts` values that cover `vals` in order:
    each run becomes its running sum, added left to right one value at
    a time, as `itertools.accumulate` adds (a cumsum over all runs minus
    each run's offset would round differently).  The runs are the rows
    of a 2-D array, padded at the end, and one cumsum along the rows
    folds them all: one array for all runs when that wastes at most as
    many cells as it holds values (plus `_FOLD_SLACK`), else one per
    group of runs of similar length (sorted by length, at most
    SPAN_CHUNK cells each, or one run).  Both stay: the groups bound the
    padding a few long runs among many short ones would cost, and
    grouping every step instead took 1.13x (crawl_mix) and 1.18x
    (large_pdfs) the span-build CPU of the single array (0/30 and 2/30
    wins; `tools/inproc_ab.py --layer spans`, one shared core)."""
    if len(counts) * int(counts.max()) <= 2 * len(vals) + _FOLD_SLACK:
        valid = np.arange(int(counts.max())) < counts[:, None]
        grid = np.empty(valid.shape)  # pads are never read
        grid[valid] = vals
        np.cumsum(grid, axis=1, out=grid)
        vals[:] = grid[valid]
        return
    first = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    cs = counts[order]
    lo = 0
    while lo < len(cs):
        # at most SPAN_CHUNK // cs[lo] rows fit, fewer if longer runs follow
        end = lo + max(1, SPAN_CHUNK // int(cs[lo]))
        fits = np.flatnonzero(np.arange(1, len(cs[lo:end]) + 1)
                              * cs[lo:end] <= SPAN_CHUNK)
        hi = lo + (int(fits[-1]) + 1 if len(fits) else 1)
        c = cs[lo:hi]
        cols = np.arange(int(c[-1]))
        # each cell's value (pads repeat a real one; they are never read)
        cell = np.minimum(first[order[lo:hi], None] + cols, len(vals) - 1)
        grid = vals[cell]
        np.cumsum(grid, axis=1, out=grid)
        valid = cols < c[:, None]
        vals[cell[valid]] = grid[valid]
        lo = hi


def resolve_span_columns(geometries: Sequence[SpanGeometry]):
    """Place every glyph of `geometries`, in order, and return the span
    columns: page, start, end (int32) and x, y, font_size (float64).

    A run's glyphs' tm translations (t4, t5) are rebuilt from its first
    glyph's and the glyphs' advances: glyph j + 1's is glyph j's plus
    its advance times (t0, t1), one add at a time, left to right
    (`_fold_runs`), as `interpreter.show_text` folds them.  Then each
    float is the same IEEE operation on the same operands, in the same
    order, as `OutputDev.output_run`'s trm followed by the translation
    row of `mul(trm, flip_ctm)`.  Two shortcuts give the same bits as
    the general path and each save 10-30% of this function's time on
    the benchmark's documents: a run field with the same bits in every
    run of a step enters as a scalar, and t5 stays put in a run with
    t1 == 0, t5 != 0 and finite advances (the fold would add only
    zeros, and t5 + (+-0.0) == t5), as in `show_text`.  Runs are
    placed in steps of about SPAN_CHUNK glyphs, so temporaries stay
    bounded however large the input.  The input buffers are left as
    they are.  It cannot raise on buffers a SpanTextOutput recorded:
    NaN and inf propagate as they do in Python."""
    codes, pool, char_len, runs, base, is_code, lens_at = _concat(
        geometries)
    counts = runs[:, _N].astype(np.int64)
    run_ends = np.cumsum(counts)
    n = len(codes)
    pages = np.empty(n, np.int32)
    starts = np.empty(n, np.int32)
    ends = np.empty(n, np.int32)
    xs = np.empty(n, np.float64)
    ys = np.empty(n, np.float64)
    fss = np.empty(n, np.float64)
    bits = runs.view(np.int64)
    r = g = 0
    with np.errstate(all="ignore"):
        while r < len(runs):
            # the next runs of about SPAN_CHUNK glyphs (at least one run)
            r_end = max(r + 1, int(np.searchsorted(run_ends, g + SPAN_CHUNK,
                                                   side="right")))
            g_end = int(run_ends[r_end - 1])
            step, c = runs[r:r_end], counts[r:r_end]
            first = run_ends[r:r_end] - c - g  # in the step
            same = (bits[r:r_end] == bits[r]).all(axis=0)

            def field(f):
                return step[0, f] if same[f] else np.repeat(step[:, f], c)

            # glyph j of a run: its position in the run
            j = np.arange(g_end - g) - np.repeat(first, c)
            # each glyph's advance: by code into its run's table, or the
            # run's own advances in order
            tx = pool[np.repeat(base[r:r_end], c) + np.where(
                np.repeat(is_code[r:r_end], c), codes[g:g_end], j)]
            # the tm translation: a run's first glyph's, then the fold
            t4, t5 = xs[g:g_end], ys[g:g_end]
            t4[1:] = (tx * field(_T0))[:-1]
            t4[first] = step[:, _T4]
            _fold_runs(t4, c)
            fold5 = (step[:, _T1] != 0.0) | (step[:, _T5] == 0.0)
            if not np.isfinite(tx).all():
                fold5 |= np.logical_or.reduceat(~np.isfinite(tx), first)
            if fold5.any():
                t5[1:] = (tx * field(_T1))[:-1]
                t5[first] = step[:, _T5]
                _fold_runs(t5, c)
                if not fold5.all():
                    t5[:] = np.where(np.repeat(fold5, c), t5, field(_T5))
            else:
                t5[:] = field(_T5)
            # x/y over t4/t5: e4 = r4 + ((t4 * c0 + t5 * c2) + c4), e5
            # likewise, x = (e4 * f0 + e5 * f2) + f4, y likewise (the
            # in-place adds swap operands, which IEEE addition allows)
            e4, e5 = t4 * field(_C0), t4 * field(_C1)
            e4 += t5 * field(_C2)
            e5 += t5 * field(_C3)
            e4 += field(_C4)
            e5 += field(_C5)
            e4 += field(_R4)
            e5 += field(_R5)
            np.multiply(e4, field(_F0), out=t4)
            t4 += e5 * field(_F2)
            t4 += field(_F4)
            np.multiply(e4, field(_F1), out=t5)
            t5 += e5 * field(_F3)
            t5 += field(_F5)
            fss[g:g_end] = field(_TFS)
            pages[g:g_end] = field(_PAGE)
            # a glyph starts at its run's text offset plus the decoded
            # lengths of the run's earlier glyphs (1 each in a run
            # without lengths)
            lens = np.ones(g_end - g, np.int64)
            sel = np.repeat(lens_at[r:r_end] >= 0, c)
            lens[sel] = char_len[(np.repeat(lens_at[r:r_end], c) + j)[sel]]
            before = np.cumsum(lens) - lens
            starts[g:g_end] = start = before + np.repeat(
                step[:, _START].astype(np.int64) - before[first], c)
            ends[g:g_end] = start + lens
            r, g = r_end, g_end
    return pages, starts, ends, xs, ys, fss


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
