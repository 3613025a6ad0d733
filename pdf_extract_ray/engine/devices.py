"""Output devices: consumers of the text and path event stream.

`OutputDev` is the user-extension surface (reference src/lib.rs:1879-1888).
Text arrives one text string (a "run") at a time, as one
`output_run(run)` call with a `interpreter.TextRun` record: the string's
text, its text state's `interpreter.RunState` (transformed font size,
linear part, ctm, ...: one object shared by the strings of a text
state), the first glyph's tm translation, the last glyph's width, and
what the other glyphs are placed from (the tm advance of each glyph,
by 1-byte code or one per glyph).  No per-glyph matrix is built unless
a device asks for it: `OutputDev`'s default `output_run` expands the
record into the reference's per-glyph protocol, `begin_word`, one
`output_character` per glyph with its full text-rendering matrix, and
`end_word`, for `HTMLOutput` and user devices that override only
`output_character`.

The text devices take whole runs.  `PlainTextOutput` is the
byte-parity-critical word/line reconstruction (src/lib.rs:2131-2200);
it places a run from its scalars and one fold of its advances
(`interpreter.fold_run`), and returns the end tm.  `SpanTextOutput`
places nothing: it records each text state once, each run's text and
one short record and, per glyph, its code (`SpanGeometry`), and
`place_text` places the runs of one or many documents in numpy: the
same text as `PlainTextOutput`, and the (page, start, end, x, y,
font_size) span columns.
"""
from __future__ import annotations

import array
from itertools import accumulate, repeat
from operator import mul as _fmul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .interpreter import (TextRun, Transform, _sqrt_or_nan, fold_run, mul,
                          transform_vector, translation)


class OutputDev:
    """Protocol for event consumers; all hooks default to no-ops.

    Text arrives one text string at a time, as one `output_run` call
    per string with glyphs.  The text devices override `output_run` to
    take the whole string; this default is the reference's per-glyph
    protocol, for `HTMLOutput` and user devices that override
    `output_character`: one call per glyph with its full text-rendering
    matrix, between `begin_word` and `end_word`.  `output_run` may
    return the tm translation after the run's last glyph
    (`interpreter.fold_run`'s end pair), which saves the interpreter
    folding the run's advances again when it reads tm; None leaves that
    to the interpreter.
    """

    def begin_page(self, page_num: int, media_box, art_box) -> None:
        pass

    def end_page(self) -> None:
        pass

    def output_character(self, trm: Transform, width: float, spacing: float,
                         font_size: float, char: str) -> None:
        pass

    def output_run(self, run: TextRun) -> Optional[Tuple[float, float]]:
        """One text string's glyphs, in order (`interpreter.TextRun`
        says how glyph i is placed).  This default expands the record:
        with the run's `state`, glyph i gets the text-rendering matrix
        `(*linear, e4, e5)` with `e4 = r4 + (t4_i * c0 + t5_i * c2 + c4)`
        and `e5 = r5 + (t4_i * c1 + t5_i * c3 + c5)`, its width and
        char, and the spacing `spacing[1]` if it is a word space, else
        `spacing[0]`."""
        (_text, state, t4, t5, _w_last, _n, codes, advances, _char_lens,
         glyphs) = run
        ((a, b, c, d), (c0, c1, c2, c3, c4, c5), r4, r5, t0, t1, font_size,
         (char_spacing, space_spacing)) = state[1:]
        if codes is not None:
            glyphs = list(map(glyphs.__getitem__, codes))
            advances = list(map(advances.__getitem__, codes))
        t4s = accumulate(map(_fmul, advances, repeat(t0)), initial=t4)
        t5s = accumulate(map(_fmul, advances, repeat(t1)), initial=t5)
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


class PlainTextOutput(OutputDev):
    """Runs -> text, with the three spacing heuristics
    (src/lib.rs:2161-2190):
      newline if |y - last_y| > 1.5 * tfs
      newline if x < last_end and |y - last_y| > 0.5 * tfs  (left+down)
      space   if x > last_end + 0.1 * tfs
    where tfs = sqrt(tx*ty) of the trm-transformed (fs, fs) vector.
    Each text string is a word, and the rules apply only to a word's
    first glyph; tfs depends only on the linear part of trm and the font
    size, so a run is placed by its first and last glyph alone.  Line
    breaks come ONLY from these y-delta rules; end_line is a no-op
    (src/lib.rs:2196-2199).
    `place_text` applies the same rules to recorded runs in numpy.
    """

    def __init__(self):
        self.parts: List[str] = []
        self.last_end = 100000.0
        self.last_y = 0.0
        self.flip_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def get_text(self) -> str:
        return "".join(self.parts)

    def begin_page(self, page_num, media_box, art_box) -> None:
        # flip page space vertically (src/lib.rs:2154-2156)
        self.flip_ctm = (1.0, 0.0, 0.0, -1.0, 0.0, media_box[3] - media_box[1])

    def output_run(self, run) -> Tuple[float, float]:
        """Append the run's text, after the separator the spacing rules
        give its first glyph, and move the line/word state past its last
        glyph.  -> the end tm translation, from the one fold of the
        run's advances (`interpreter.fold_run`)."""
        text, state, t4, t5, w_last = run[:5]
        tfs, _linear, (c0, c1, c2, c3, c4, c5), r4, r5 = state[:5]
        t4_last, t5_last, t4_end, t5_end = fold_run(run)
        # translation row of mul(trm, flip_ctm), inlined (only 4,5 used)
        f0, f1, f2, f3, f4, f5 = self.flip_ctm
        e4 = r4 + (t4 * c0 + t5 * c2 + c4)
        e5 = r5 + (t4 * c1 + t5 * c3 + c5)
        x = e4 * f0 + e5 * f2 + f4
        dy = abs(e4 * f1 + e5 * f3 + f5 - self.last_y)
        sep = "\n" if dy > tfs * 1.5 else ""
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
        return t4_end, t5_end


# SpanTextOutput's records, in doubles.  A state record
# (_STATE_FIELDS) holds what the runs of one text state on one page
# share: the page, the transformed font size, ctm, the rise terms, the
# flip ctm and tm's (t0, t1).  A run record (_RUN_FIELDS) holds STATE,
# the index of its state record; TLEN, the length of the run's text;
# N, its glyph count; tm's (t4, t5) at its first glyph; ADV >= 0: its
# glyphs are 1-byte codes into advance table ADV of
# `SpanGeometry.tables`, ADV < 0: its advances are
# `advances[-1 - ADV:][:n]`; LENS, the offset of its decoded lengths
# in `char_len`, or -1 when each glyph decodes to one char; W, the last
# glyph's width / 1000.
_STATE_FIELDS = ("page", "tfs", "c0", "c1", "c2", "c3", "c4", "c5", "r4",
                 "r5", "f0", "f1", "f2", "f3", "f4", "f5", "t0", "t1")
_RUN_FIELDS = ("state", "tlen", "n", "t4", "t5", "adv", "lens", "w")
STATE_WIDTH = len(_STATE_FIELDS)
RUN_WIDTH = len(_RUN_FIELDS)
# the columns `_place` reads per run: its state's fields, then its own
# past STATE (`_concat` joins them)
(_PAGE, _TFS, _C0, _C1, _C2, _C3, _C4, _C5, _R4, _R5, _F0, _F1, _F2, _F3,
 _F4, _F5, _T0, _T1, _TLEN, _N, _T4, _T5, _ADV, _LENS,
 _W) = range(STATE_WIDTH + RUN_WIDTH - 1)
_INT32_MAX = 2 ** 31 - 1
SPAN_OVERFLOW = "span offsets exceed int32"
# the separators the spacing rules put before a run, by
# 2 * newlines + space
_SEPS = ("", " ", "\n", "\n ", "\n\n", "\n\n ")
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
    not all one char; per run one RUN_WIDTH-double record
    (`_RUN_FIELDS`: state record, text length, glyph count, tm's
    (t4, t5) at the first glyph, advance source, lengths, last width);
    and per text state and page one STATE_WIDTH-double record
    (`_STATE_FIELDS`: page, transformed font size, ctm, rise terms,
    flip ctm, tm's (t0, t1))."""
    codes: array.array
    advances: array.array
    tables: array.array
    char_len: array.array
    runs: array.array
    states: array.array


class SpanTextOutput(OutputDev):
    """Records runs for `place_text`, which gives PlainTextOutput's text
    and per-character span records (page, start, end, x, y, font_size)
    with start/end as offsets into that text.

    It takes whole runs only.  A run appends its text to `texts`, one
    short record to `runs` and its codes to `codes` (a font without
    1-byte codes: zeros there; it and a 1-byte run whose advance table
    would be one past `_MAX_TABLES` append their advances to
    `advances`), plus its decoded lengths if they are not all 1.  The
    run's `RunState` is recorded once, as one record in `states`, when
    it is not the state recorded last or the page changed.  A run finds
    its advance table by identity with the last run's; only a table
    change looks it up by `id()`, which, like `array.array()`, costs
    ~0.5 us under an audit hook (`import ray` installs one), so no
    string pays for either.  Nothing is placed here, and the
    interpreter folds the run's advances only if it reads the end tm.
    `recorded()` hands the texts and buffers over."""

    def __init__(self):
        self.texts: List[str] = []
        self._codes = array.array("B")
        self._advances = array.array("d")
        self._char_len = array.array("i")
        self._runs = array.array("d")
        self._states = array.array("d")
        # the advance tables runs index, and the index of each by id
        self._tables: List[list] = []
        self._table_index: Dict[int, int] = {}
        # the last advance table a run indexed and its index, and the
        # last state recorded and its index
        self._table = None
        self._adv = -1
        self._state = None
        self._state_at = -1
        self._page = 0
        self.flip_ctm: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def recorded(self) -> Tuple[List[str], SpanGeometry]:
        """(each run's text, the geometry), for `place_text`, which
        leaves the buffers as they are."""
        tables = array.array("d")
        for table in self._tables:
            tables.fromlist(table)
        return self.texts, SpanGeometry(self._codes, self._advances, tables,
                                        self._char_len, self._runs,
                                        self._states)

    def begin_page(self, page_num, media_box, art_box) -> None:
        # the flip PlainTextOutput applies (src/lib.rs:2154-2156)
        self.flip_ctm = (1.0, 0.0, 0.0, -1.0, 0.0, media_box[3] - media_box[1])
        self._page = page_num
        self._state = None

    def output_run(self, run) -> None:
        (text, state, t4, t5, w_last, n, codes, advances, char_lens,
         _glyphs) = run
        self.texts.append(text)
        if state is not self._state:
            self._state = state
            self._state_at += 1
            tfs, _linear, ctm, r4, r5, t0, t1 = state[:7]
            self._states.fromlist([self._page, tfs, *ctm, r4, r5,
                                   *self.flip_ctm, t0, t1])
        if codes is None:
            self._codes.frombytes(bytes(n))
            adv = -1 - len(self._advances)
            self._advances.fromlist(advances)
        else:
            self._codes.frombytes(codes)
            if advances is self._table:
                adv = self._adv
            else:
                adv = self._table_index.get(id(advances))
                if adv is None and len(self._tables) < _MAX_TABLES:
                    adv = self._table_index[id(advances)] = len(self._tables)
                    self._tables.append(advances)
                if adv is not None:
                    self._table, self._adv = advances, adv
                else:
                    adv = -1 - len(self._advances)
                    self._advances.fromlist(
                        list(map(advances.__getitem__, codes)))
        if char_lens is None:
            lens = -1
        else:
            lens = len(self._char_len)
            self._char_len.fromlist(char_lens)
        self._runs.fromlist([self._state_at, len(text), n, t4, t5, adv, lens,
                             w_last])


# glyphs per resolve step, and padded cells per group of runs folded
# together: bounds the temporaries of _place
SPAN_CHUNK = 1 << 15
# padded cells `_fold_runs` may waste beyond one per value, in one array
_FOLD_SLACK = 1 << 16


def _concat(geometries: Sequence[SpanGeometry]):
    """`geometries` as one: -> (codes, advance pool, char_len, and per
    run: its fields -- its state record's, then its own past STATE, as
    `_PAGE`.. `_W` index them --, the pool offset of its advances,
    whether they are a table indexed by code, the char_len offset of its
    lengths or -1; per document, its number of runs).  The pool is the advance tables followed by the
    per-glyph advances; the state records are gathered once here."""
    bufs = list(zip(*geometries)) or [()] * 6
    codes, advances, tables, char_len, runs, states = (
        np.frombuffer(b"".join(b), dt) for b, dt in zip(
            bufs, (np.uint8, np.float64, np.float64, np.int32, np.float64,
                   np.float64)))
    runs = runs.reshape(-1, RUN_WIDTH)
    at_state = runs[:, 0].astype(np.int64)
    fields = np.empty((len(runs), _W + 1))
    fields[:, STATE_WIDTH:] = runs[:, 1:]
    adv = fields[:, _ADV].astype(np.int64)
    lens = fields[:, _LENS].astype(np.int64)
    is_code = adv >= 0
    doc_runs = np.array([len(runs)])
    if len(geometries) > 1:
        # per document, its numbers of advances, tables, lengths, runs
        # and states; per run, where its document's advances, tables,
        # lengths and states start in the joined buffers
        sizes = np.array([list(map(len, b)) for b in bufs[1:]], np.int64)
        sizes //= np.array([1, _TABLE, 1, RUN_WIDTH, STATE_WIDTH])[:, None]
        doc_runs = sizes[3]
        at = np.repeat(np.cumsum(sizes, axis=1) - sizes, sizes[3], axis=1)
        adv += np.where(is_code, at[1], -at[0])
        lens += np.where(lens >= 0, at[2], 0)
        at_state += at[4]
    fields[:, :STATE_WIDTH] = states.reshape(-1, STATE_WIDTH)[at_state]
    base = np.where(is_code, adv * _TABLE, len(tables) - 1 - adv)
    return (codes, np.concatenate([tables, advances]), char_len, fields,
            base, is_code, lens, doc_runs)


def _fold_runs(vals: np.ndarray, counts: np.ndarray, j: np.ndarray) -> None:
    """In place, for runs of `counts` values that cover `vals` in order
    (`j`: each value's position in its run): each run becomes its
    running sum, added left to right one value at a time, as
    `itertools.accumulate` adds (a cumsum over all runs minus each
    run's offset would round differently).  The runs are the rows of a
    2-D array, padded at the end, and one cumsum along the rows folds
    them all: one array for all runs when that wastes at most as many
    cells as it holds values (plus `_FOLD_SLACK`; filled by each
    value's flat cell, which beats a boolean mask of the grid by
    5-20% on the benchmark's steps), else one per group of runs of
    similar length (sorted by length, at most SPAN_CHUNK cells each, or
    one run).  Both stay: the groups bound the
    padding a few long runs among many short ones would cost, and
    grouping every step instead took 1.13x (crawl_mix) and 1.18x
    (large_pdfs) the span-build CPU of the single array (0/30 and 2/30
    wins; `tools/inproc_ab.py --layer spans`, one shared core)."""
    width = int(counts.max())
    if len(counts) * width <= 2 * len(vals) + _FOLD_SLACK:
        cell = np.repeat(np.arange(0, len(counts) * width, width), counts)
        cell += j
        grid = np.empty((len(counts), width))  # pads are never read
        flat = grid.reshape(-1)
        flat[cell] = vals
        np.cumsum(grid, axis=1, out=grid)
        vals[:] = flat[cell]
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


def _xy(t4, t5, field):
    """Glyphs' tm translations -> their (x, y), in place in (t4, t5),
    which it returns.  `field(f)` is run field f per glyph (or one
    scalar).  Each float is the same IEEE operation on the same
    operands, in the same order, as `OutputDev.output_run`'s trm
    followed by the translation row of `mul(trm, flip_ctm)`:
    e4 = r4 + ((t4 * c0 + t5 * c2) + c4), e5 likewise,
    x = (e4 * f0 + e5 * f2) + f4, y likewise (the in-place adds swap
    operands, which IEEE addition allows)."""
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
    return t4, t5


def _place(geometries: Sequence[SpanGeometry], spans: bool):
    """Place every run of `geometries`, in order: -> (each run's
    separator, as an index into `_SEPS`; each document's text length;
    the span columns page, start, end (int32) and x, y, font_size
    (float64) when `spans`, else None).

    `_concat` joins the documents and gathers each run's state record
    once.  A run's glyphs' tm translations (t4, t5) are rebuilt from its
    first glyph's and the glyphs' advances: glyph j + 1's is glyph j's
    plus its advance times (t0, t1), one add at a time, left to right
    (`_fold_runs`), as `interpreter.fold_run` folds them; `_xy` maps
    them to (x, y).  Without `spans`, only each run's first and last
    glyph are mapped.  Two shortcuts give the same bits as the general
    path and each save 10-30% of the span resolve on the benchmark's
    documents: a run field with the same bits in every run of a step
    enters as a scalar, and t5 stays put in a run with t1 == 0,
    t5 != 0 and finite advances (the fold would add only zeros, and
    t5 + (+-0.0) == t5), as in `fold_run`.  A step skips the passes it
    does not need: when every run indexes an advance table, the
    per-glyph selection between code and position; when no run has
    decoded lengths, the length sums (a glyph then starts at its
    position j in the run and ends at j + 1); together 22.2 -> 18.4 ms
    on large_pdfs seed 1 (548,453 glyphs).  Runs are folded in steps of
    about SPAN_CHUNK glyphs, so temporaries stay bounded however large
    the input.

    Then PlainTextOutput's spacing rules place each run by its first
    glyph against the previous run's last, all runs at once, from
    `last_end = 100000.0` and `last_y = 0.0` at a document's first
    run.  The input buffers are left as they are.  It cannot raise on
    buffers a SpanTextOutput recorded: NaN and inf propagate as they
    do in Python, and compare false."""
    codes, pool, char_len, runs, base, is_code, lens_at, doc_runs = _concat(
        geometries)
    counts = runs[:, _N].astype(np.int64)
    run_ends = np.cumsum(counts)
    n, n_runs = len(codes), len(runs)
    # (x, y) of each run's first glyph and of its last
    x0, y0, x1, y1 = np.empty((4, n_runs))
    if spans:
        # the six columns in one allocation, not six: glibc returns
        # blocks of a few MB to the OS when a batch frees them and the
        # next batch faults them in again (~6,000 minor faults per
        # large_pdfs pass in a Ray worker); one block of their total
        # size stays in the heap and is reused
        block = np.empty(36 * n, np.uint8)
        xs, ys, fss = block[:24 * n].view(np.float64).reshape(3, n)
        pages, starts, ends = block[24 * n:].view(np.int32).reshape(3, n)
    bits = runs.view(np.int64)
    r = g = 0
    with np.errstate(all="ignore"):
        while r < n_runs:
            # the next runs of about SPAN_CHUNK glyphs (at least one run)
            r_end = max(r + 1, int(np.searchsorted(run_ends, g + SPAN_CHUNK,
                                                   side="right")))
            g_end = int(run_ends[r_end - 1])
            step, c = runs[r:r_end], counts[r:r_end]
            first = run_ends[r:r_end] - c - g  # in the step
            last = first + c - 1
            same = (bits[r:r_end] == bits[r]).all(axis=0)

            def field(f):
                return step[0, f] if same[f] else np.repeat(step[:, f], c)

            # glyph j of a run: its position in the run
            j = np.arange(g_end - g) - np.repeat(first, c)
            # each glyph's advance: by code into its run's table, or the
            # run's own advances in order
            at = np.repeat(base[r:r_end], c)
            at += (codes[g:g_end] if is_code[r:r_end].all() else np.where(
                np.repeat(is_code[r:r_end], c), codes[g:g_end], j))
            tx = pool[at]
            # the tm translation: a run's first glyph's, then the fold
            t4, t5 = ((xs[g:g_end], ys[g:g_end]) if spans
                      else np.empty((2, g_end - g)))
            t4[1:] = (tx * field(_T0))[:-1]
            t4[first] = step[:, _T4]
            _fold_runs(t4, c, j)
            fold5 = (step[:, _T1] != 0.0) | (step[:, _T5] == 0.0)
            if not np.isfinite(tx).all():
                fold5 |= np.logical_or.reduceat(~np.isfinite(tx), first)
            if fold5.any():
                t5[1:] = (tx * field(_T1))[:-1]
                t5[first] = step[:, _T5]
                _fold_runs(t5, c, j)
                if not fold5.all():
                    t5[:] = np.where(np.repeat(fold5, c), t5, field(_T5))
            else:
                t5[:] = field(_T5)
            if not spans:
                def run_field(f):
                    return step[:, f]
                x0[r:r_end], y0[r:r_end] = _xy(t4[first], t5[first],
                                               run_field)
                x1[r:r_end], y1[r:r_end] = _xy(t4[last], t5[last],
                                               run_field)
                r, g = r_end, g_end
                continue
            _xy(t4, t5, field)
            x0[r:r_end], y0[r:r_end] = t4[first], t5[first]
            x1[r:r_end], y1[r:r_end] = t4[last], t5[last]
            fss[g:g_end] = field(_TFS)
            pages[g:g_end] = field(_PAGE)
            # a glyph starts at the decoded lengths of its run's earlier
            # glyphs (1 each in a run without lengths: at j) past the
            # run's text offset, which the placement below adds
            has_lens = lens_at[r:r_end] >= 0
            if not has_lens.any():
                starts[g:g_end] = j
                ends[g:g_end] = j + 1
            else:
                lens = np.ones(g_end - g, np.int64)
                sel = np.repeat(has_lens, c)
                lens[sel] = char_len[(np.repeat(lens_at[r:r_end], c)
                                      + j)[sel]]
                before = np.cumsum(lens) - lens
                starts[g:g_end] = start = before - np.repeat(before[first], c)
                ends[g:g_end] = start + lens
            r, g = r_end, g_end
        # the line/word state each run meets: the previous run's last
        # glyph's, or the device's first at a document's first run
        tfs = runs[:, _TFS]
        doc_first = np.cumsum(doc_runs) - doc_runs
        last_y, last_end = np.empty((2, n_runs))
        last_y[1:] = y1[:-1]
        last_end[1:] = (x1 + runs[:, _W] * tfs)[:-1]
        heads = doc_first[doc_runs > 0]
        last_y[heads] = 0.0
        last_end[heads] = 100000.0
        dy = np.abs(y0 - last_y)
        newlines = (dy > tfs * 1.5).astype(np.int64)
        newlines += (x0 < last_end) & (dy > tfs * 0.5)
        space = x0 > last_end + tfs * 0.1
    sep_len = newlines + space
    # each run's text offset in its document's text
    run_end = np.cumsum(sep_len + runs[:, _TLEN].astype(np.int64))
    doc_at = np.concatenate([[0], run_end])[
        np.append(doc_first, n_runs)]
    doc_len = np.diff(doc_at)
    columns = None
    if spans:
        run_start = (run_end - runs[:, _TLEN].astype(np.int64)
                     - np.repeat(doc_at[:-1], doc_runs))
        shift = np.repeat(run_start.astype(np.int32), counts)
        starts += shift
        ends += shift
        columns = (pages, starts, ends, xs, ys, fss)
    return 2 * newlines + space, doc_len, columns


def place_text(docs: Sequence[Tuple[List[str], SpanGeometry]],
               spans: bool = True):
    """Place the recorded runs of one or many documents (each a pair of
    its runs' texts and its `SpanGeometry`, as `SpanTextOutput.recorded`
    and `api.extract_text_and_span_columns_from_mem` return them) in
    one `_place` call: -> (each document's text, byte-identical to
    `PlainTextOutput`'s; the span columns of all documents' glyphs in
    order, when `spans`, else None).

    With `spans`, a document whose text is longer than an int32 offset
    reaches gets None for its text and no spans (`SPAN_OVERFLOW`); the
    other documents are unaffected."""
    geometries = [geom for _texts, geom in docs]
    sep, doc_len, columns = _place(geometries, spans)
    seps = list(map(_SEPS.__getitem__, sep.tolist()))
    over = (doc_len > _INT32_MAX).tolist() if spans else [False] * len(docs)
    texts, at = [], 0
    for (run_texts, _geom), too_long in zip(docs, over):
        k = len(run_texts)
        if too_long:
            texts.append(None)
        else:
            parts = [""] * (2 * k)
            parts[::2] = seps[at:at + k]
            parts[1::2] = run_texts
            texts.append("".join(parts))
        at += k
    if any(over):
        keep = np.repeat(~np.array(over),
                         [len(geom.codes) for geom in geometries])
        columns = tuple(col[keep] for col in columns)
    return texts, columns


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
