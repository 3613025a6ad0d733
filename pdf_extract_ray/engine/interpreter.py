"""Content-stream interpreter: the Tm/Td/TJ text-positioning state machine.

Reproduces the reference's `Processor::process_stream` op dispatch
(/root/reference/src/lib.rs:1581-1876) and `show_text`
(src/lib.rs:1276-1327) with float64 math in the same operation order as
euclid's Transform2D (row-major, row-vector convention), so positions are
bit-identical.

`Processor.process_stream` runs a stream's operations as the content
scanner matches them (`content._CONTENT`, one window at a time), so
memory follows the window, not the stream.  An operation match with no
operands read before it is handled from the match: Td, Tm, BT, ET, Tj
and TJ inline (numbers converted as `as_num` would, through
`content._num`); any other operator, and these with other operand
counts or with operands from token matches or byte-loop steps before
them, get their operand list built and go through `Processor.apply`,
the one handler chain.  When an operation raises, the rest of the
stream is scanned (`content.check_rest`): a later parse error is what
raises then, as when the whole list was parsed first.  `parse_content`
(the list form) stays the reference: tools/interp_diff.py feeds it
through `apply` and compares device calls and exceptions.
"""
from __future__ import annotations

import logging
from binascii import unhexlify
from functools import reduce
from itertools import repeat
from math import copysign, isfinite
from operator import add, itemgetter, mul as _fmul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .content import (_CONTENT, _KEYWORDS, _array, _num, _numbers, _step,
                      _window_end, check_rest)
from .content import parse_content  # noqa: F401  (the list form, by name)
from .fonts import Glyph, PdfFont, make_font
from .objects import (Name, PdfError, PdfString, Stream, as_num, f32,
                      maybe_get_obj, require_dict)

log = logging.getLogger(__name__)

NAN = float("nan")

# Transform = (m11, m12, m21, m22, m31, m32), row-major; point maps as
# (x, y) -> (x*m11 + y*m21 + m31, x*m12 + y*m22 + m32), like euclid.
Transform = Tuple[float, float, float, float, float, float]

IDENTITY: Transform = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def mul(a: Transform, b: Transform) -> Transform:
    """Apply `a` then `b` (euclid `a.post_transform(&b)`), with euclid's
    exact product/sum ordering for float parity."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
        a[4] * b[0] + a[5] * b[2] + b[4],
        a[4] * b[1] + a[5] * b[3] + b[5],
    )


def translation(tx: float, ty: float) -> Transform:
    return (1.0, 0.0, 0.0, 1.0, tx, ty)


def transform_vector(m: Transform, vx: float, vy: float) -> Tuple[float, float]:
    return (vx * m[0] + vy * m[2], vx * m[1] + vy * m[3])


def _sqrt_or_nan(v: float) -> float:
    # Rust f64::sqrt(negative) == NaN; Python math.sqrt raises, so guard.
    return v ** 0.5 if v >= 0.0 else NAN


class TextState:
    # `advances`: the font's `AdvanceTable` for this font, size, Tc, Tw
    # and Tz, set by `show_text` and dropped by Tf, Tc, Tw and Tz.
    # `state`: the `RunState` of the strings shown in this text state,
    # built by `show_text` from the first one and dropped by every op
    # that changes one of its inputs (Tf, Tc, Tw, Tz, Ts, Tm, BT, ET,
    # cm, and a translation that does not keep tm's linear part bit for
    # bit, `_keeps_state`); while it is set, tm's t0..t3 are the very
    # float objects it was built from.  `stable`: whether those are all
    # finite and none is -0.0, or None until a translation asks.
    # `pending`: the last shown `TextRun` whose advances `tm` does not
    # include yet (tm is still the one at its first glyph), or None;
    # `settled_tm` folds it in, and an op that sets tm drops it
    __slots__ = ("font", "font_size", "character_spacing", "word_spacing",
                 "horizontal_scaling", "leading", "rise", "tm", "advances",
                 "state", "stable", "pending")

    def __init__(self):
        self.font: Optional[PdfFont] = None
        self.font_size = NAN
        self.character_spacing = 0.0
        self.word_spacing = 0.0
        self.horizontal_scaling = 1.0
        self.leading = 0.0
        self.rise = 0.0
        self.tm: Transform = IDENTITY
        self.advances = None
        self.state: Optional[RunState] = None
        self.stable: Optional[bool] = None
        self.pending: Optional[TextRun] = None

    def settled_tm(self) -> Transform:
        """tm, with the pending run's advances folded in (`fold_run`);
        its t0..t3 stay the same objects."""
        run = self.pending
        if run is not None:
            self.pending = None
            self.tm = self.tm[:4] + fold_run(run)[2:]
        return self.tm

    def clone(self) -> "TextState":
        c = TextState.__new__(TextState)
        for s in TextState.__slots__:
            setattr(c, s, getattr(self, s))
        return c


def _keeps_state(ts: TextState, tlm: Transform) -> bool:
    """Whether translating `tlm` (Td, TD, T*; tm itself for a TJ
    number) into the new tm keeps `ts.state`, which must be set.

    `mul(translation(tx, ty), tlm)` gives t0' = 1.0 * t0 + 0.0 * t2,
    which is t0 bit for bit unless t0 is -0.0 or t2 is not finite
    (0.0 * inf is NaN), and likewise t1..t3.  So the state holds when
    tlm's t0..t3 are tm's (the objects the state was built from; after
    `Q` or a TJ number that changed them they may differ) and they are
    all finite and none is -0.0 (`ts.stable`, computed once per
    state)."""
    tm = ts.tm
    if tlm is not tm and not (tlm[0] is tm[0] and tlm[1] is tm[1]
                              and tlm[2] is tm[2] and tlm[3] is tm[3]):
        return False
    stable = ts.stable
    if stable is None:
        t0, t1, t2, t3 = tm[:4]
        # a sum of finite values that overflows only says no more often
        stable = ts.stable = isfinite(t0 + t1 + t2 + t3) and all(
            t or copysign(1.0, t) > 0.0 for t in (t0, t1, t2, t3))
    return stable


def _translate(st: "StreamState", tx: float, ty: float) -> None:
    """Td, TD and T*: tm = tlm = T(tx, ty) * tlm, pending run dropped;
    the run state stays when the translation keeps tm's linear part
    (`_keeps_state`), and the new tm reuses its float objects."""
    ts = st.gs.ts
    tlm = st.tlm
    if ts.state is not None and _keeps_state(ts, tlm):
        t0, t1, t2, t3, t4, t5 = tlm
        tlm = (t0, t1, t2, t3, tx * t0 + ty * t2 + t4, tx * t1 + ty * t3 + t5)
    else:
        ts.state = None
        tlm = mul(translation(tx, ty), tlm)
    st.tlm = ts.tm = tlm
    ts.pending = None
    st.output.end_line()


# Td's operands by the bytes of their match, converted as `as_num` would
# (`content._num`): most documents repeat a few line offsets
_TD_OPERANDS: Dict[bytes, Tuple[float, float]] = {}
_TD_OPERANDS_MAX = 4096


def _td_operands(nums: bytes) -> Optional[Tuple[float, float]]:
    """-> Td's (tx, ty) from an operation match's numbers, cached in
    `_TD_OPERANDS`, or None when they are not two."""
    xy = nums.split()
    if len(xy) != 2:
        return None
    if len(_TD_OPERANDS) >= _TD_OPERANDS_MAX:
        _TD_OPERANDS.clear()
    xy = _TD_OPERANDS[nums] = (_num(xy[0]), _num(xy[1]))
    return xy


def _set_tm(st: "StreamState", tm: Transform) -> None:
    """Tm, BT and ET: tm = tlm = `tm`; pending run and run state dropped."""
    st.tlm = tm
    ts = st.gs.ts
    ts.tm = tm
    ts.state = ts.pending = None


class GraphicsState:
    __slots__ = ("ctm", "ts", "smask", "fill_colorspace", "fill_color",
                 "stroke_colorspace", "stroke_color", "line_width")

    def __init__(self):
        self.ctm: Transform = IDENTITY
        self.ts = TextState()
        self.smask = None
        self.fill_colorspace = "DeviceGray"
        self.fill_color: List[float] = []
        self.stroke_colorspace = "DeviceGray"
        self.stroke_color: List[float] = []
        self.line_width = 1.0

    def clone(self) -> "GraphicsState":
        c = GraphicsState.__new__(GraphicsState)
        c.ctm = self.ctm
        c.ts = self.ts.clone()
        c.smask = self.smask
        c.fill_colorspace = self.fill_colorspace
        c.fill_color = list(self.fill_color)
        c.stroke_colorspace = self.stroke_colorspace
        c.stroke_color = list(self.stroke_color)
        c.line_width = self.line_width
        return c


class RunState(NamedTuple):
    """What the strings of one text state share, computed once per text
    state by `show_text` (`TextState.state`): with
    `(t0, t1, t2, t3) = tm[:4]`, `(c0, ..., c5) = ctm`, `h` the
    horizontal scaling and `(m0, m1, m2, m3)` the linear part of
    tm * ctm, the linear part of trm = tsm * tm * ctm,
    `linear = (h * m0 + 0.0 * m2, h * m1 + 0.0 * m3, 0.0 * m0 + m2,
    0.0 * m1 + m3)`; the rise terms `(r4, r5) = (0.0 * m0 + rise * m2,
    0.0 * m1 + rise * m3)`; the transformed font size `tfs`,
    `sqrt(tvx * tvy)` (NaN when negative) of
    `(tvx, tvy) = transform_vector(linear, font_size, font_size)`; tm's
    t0 and t1, which a glyph's advance moves its tm translation by; and
    the (char, word-space) `spacing` pair a glyph's `is_word_space`
    picks from."""
    tfs: float
    linear: Tuple[float, float, float, float]
    ctm: Transform
    r4: float
    r5: float
    t0: float
    t1: float
    font_size: float
    spacing: Tuple[float, float]


class TextRun(NamedTuple):
    """One text string's glyphs, as `show_text` hands them to a device.

    Glyph i (of `n`) has the text-rendering matrix
    `(*linear, r4 + (t4_i * c0 + t5_i * c2 + c4),
    r5 + (t4_i * c1 + t5_i * c3 + c5))`, the fields other than t4_i and
    t5_i being the run's `state` (`RunState`, shared by the strings of
    one text state), where `(t4_0, t5_0) = (t4, t5)` and, with glyph
    i's advance `tx_i`, `t4_{i+1} = t4_i + tx_i * t0` and
    `t5_{i+1} = t5_i + tx_i * t1` (one add after the other, in glyph
    order; `fold_run` gives the last glyph's and the end tm's).
    `w_last` is the last glyph's width / 1000.

    With a 1-byte font, `codes` are the string's codes, and glyph i is
    `glyphs[codes[i]]` with advance `advances[codes[i]]` (the font's
    glyph table and the text state's `fonts.AdvanceTable`); otherwise
    `codes` is None and `glyphs`/`advances` hold one entry per glyph.
    A glyph is `(width / 1000, char, is_word_space)`.  `char_lens` is
    each glyph's decoded length, or None when all are 1.

    `show_text` hands devices a plain tuple in this field order (a
    NamedTuple instance costs ~0.2 us more per string to build and
    free), so a device reads a run by position or unpacks it; a
    TextRun built by hand is the same record.
    """
    text: str
    state: RunState
    t4: float
    t5: float
    w_last: float
    n: int
    codes: Optional[bytes]
    advances: Sequence[float]
    char_lens: Optional[List[int]]
    glyphs: Union[Dict[int, Glyph], Sequence[Glyph]]


_new_tuple = tuple.__new__  # a NamedTuple from a tuple, no keyword pass
_glyph_char = itemgetter(1)
# a run's t4, t5, codes, advances
_fold_fields = itemgetter(2, 3, 6, 7)


def fold_run(run: TextRun) -> Tuple[float, float, float, float]:
    """-> (t4, t5) of the run's last glyph, then of the tm after it.

    The reference's `tm = T(tx, 0) * tm` per glyph: t4 += tx * t0 and
    t5 += tx * t1, one add at a time, left to right (`reduce`; `sum`
    compensates rounding from Python 3.12 on).  Only the run's own
    fields are read, so a text-state change after the run was shown
    cannot move the result.  tx * 1.0 == tx for every float, so an
    unscaled tm skips the multiply; a finite t4 fold had finite
    advances, so with t1 == 0 every tx * t1 is a zero, and
    t5 + (+-0.0) == t5 when t5 != 0."""
    t4, t5, codes, advances = _fold_fields(run)
    state = run[1]
    t0, t1 = state.t0, state.t1
    if codes is not None:
        head, last = codes[:-1], codes[-1]
        get = advances.__getitem__
        txs = map(get, head)
    else:
        txs = head = advances[:-1]
        last = -1
    tx = advances[last]
    t4_last = reduce(add, txs if t0 == 1.0 else map(_fmul, txs, repeat(t0)),
                     t4)
    t4_end = t4_last + tx * t0
    if t1 == 0.0 and t5 != 0.0 and isfinite(t4_end):
        return t4_last, t5, t4_end, t5
    if codes is not None:
        head = map(get, head)
    t5_last = reduce(add, map(_fmul, head, repeat(t1)), t5)
    return t4_last, t5_last, t4_end, t5_last + tx * t1


def show_text(gs: GraphicsState, s: bytes, output) -> None:
    """Show one text string (src/lib.rs:1276-1327): one
    `output.output_run(TextRun)` if it has glyphs, which leaves the
    string's advances pending in tm.

    The reference builds each glyph's text-rendering matrix
    `trm = tsm * tm * ctm` and advances `tm` by `T(tx, 0)`.  Inside one
    string only tm's translation (t4, t5) moves, and across the strings
    of one text state only that translation differs, so the run record
    carries geometry instead of matrices (see `TextRun`): the text
    state's `RunState` is computed once, by the first string shown in
    it (`TextState.state`), and each string adds only its text, the
    first glyph's t4/t5 and the last glyph's width, leaving the other
    glyphs to the device.  The state's products are euclid's, every
    term kept; the advance translation's zero terms are left out:
    tm's t0..t3 are always finite (a real past float32's range raises
    in the lexer, an int is a finite float, and a translation keeps
    them finite), so such a term only ever changes the sign of a zero,
    which no downstream comparison can observe.  The advance of a
    glyph is `h * (w0 * font_size + spacing)` (the reference's
    `w0 - 0.0 / 1000.0` is `w0` bit for bit, NaN and -0.0 included); a
    1-byte font's come from the text state's cached `AdvanceTable`.

    The end tm is folded only when it is read: `output_run` may return
    it (`PlainTextOutput` folds each run once anyway), else the run
    stays `ts.pending` until the next string or a TJ number reads tm
    (`TextState.settled_tm`); Td, TD, T*, Tm, BT and ET overwrite it
    unread.

    The text comes from `PdfFont.run_text` when the font decodes the
    string in one call, one char per glyph, else from `PdfFont.glyphs`.
    """
    ts = gs.ts
    font = ts.font
    if font is None:
        raise PdfError("show text with no font set")
    if not s:
        return
    text = font.run_text(s)
    char_lens = None
    if text is None:
        glyphs = font.glyphs(s)
        if not glyphs:
            return
        chars = list(map(_glyph_char, glyphs))
        text = "".join(chars)
        if len(text) != len(chars) or "" in chars:
            char_lens = list(map(len, chars))
    tm = ts.tm if ts.pending is None else ts.settled_tm()
    state = ts.state
    if state is None:
        t0, t1, t2, t3, _t4, _t5 = tm
        ctm = gs.ctm
        c0, c1, c2, c3, _c4, _c5 = ctm
        h = ts.horizontal_scaling
        font_size = ts.font_size
        char_spacing = ts.character_spacing
        rise = ts.rise
        # linear part of m = tm * ctm, then of trm = tsm * m with
        # tsm = (h, 0, 0, 1, 0, rise), every term kept (0.0 * inf is NaN)
        m0 = t0 * c0 + t1 * c2
        m1 = t0 * c1 + t1 * c3
        m2 = t2 * c0 + t3 * c2
        m3 = t2 * c1 + t3 * c3
        a = h * m0 + 0.0 * m2
        b = h * m1 + 0.0 * m3
        c = 0.0 * m0 + m2
        d = 0.0 * m1 + m3
        ts.state = state = _new_tuple(RunState, (
            # tfs from transform_vector((a, b, c, d), font_size, font_size)
            _sqrt_or_nan((font_size * a + font_size * c)
                         * (font_size * b + font_size * d)),
            (a, b, c, d), ctm, 0.0 * m0 + rise * m2, 0.0 * m1 + rise * m3,
            t0, t1, font_size, (char_spacing, char_spacing + ts.word_spacing)))
        ts.stable = None
    table = font.glyph_table
    if table is not None:  # 1-byte codes
        codes, n, glyphs = s, len(s), table
        advances = ts.advances
        if advances is None or advances.filled < len(table):
            char_spacing, space_spacing = state.spacing
            advances = ts.advances = font.advance_table(
                ts.horizontal_scaling, state.font_size, char_spacing,
                space_spacing)
        w_last = table[s[-1]][0]
    else:
        codes, n = None, len(glyphs)
        h = ts.horizontal_scaling
        font_size = state.font_size
        char_spacing, space_spacing = state.spacing
        advances = [h * (w0 * font_size + (space_spacing if word_space
                                           else char_spacing))
                    for w0, _char, word_space in glyphs]
        w_last = glyphs[-1][0]
    run = (text, state, tm[4], tm[5], w_last, n, codes, advances, char_lens,
           glyphs)
    end = output.output_run(run)
    if end is None:
        ts.pending = run
    else:
        ts.tm = tm[:4] + end


def apply_state(doc, gs: GraphicsState, state: dict) -> None:
    """ExtGState application: SMask only (src/lib.rs:1337-1364)."""
    from .objects import maybe_deref
    for k, v in state.items():
        if k == b"SMask":
            v = maybe_deref(doc, v)
            if isinstance(v, Name):
                if bytes(v) == b"None":
                    gs.smask = None
                else:
                    raise PdfError("unexpected smask name")
            elif isinstance(v, dict):
                gs.smask = v
            else:
                raise PdfError(f"unexpected smask type {v!r}")
        elif k == b"Type":
            if not (isinstance(v, Name) and bytes(v) == b"ExtGState"):
                raise PdfError("unexpected type")
        # everything else: logged-and-ignored in the reference


def make_colorspace(doc, name: bytes, resources: dict) -> str:
    """Colorspace resolution (src/lib.rs:1449-1569).  Only the Pattern-ness
    matters downstream (SC/SCN drop components for Pattern); we resolve to a
    string tag but keep the reference's failure modes for unknown spaces."""
    if name in (b"DeviceGray", b"DeviceRGB", b"DeviceCMYK", b"Pattern"):
        return name.decode()
    colorspaces = require_dict(doc, resources, b"ColorSpace")
    cs = maybe_get_obj(doc, colorspaces, name)
    if cs is None:
        raise PdfError(f"missing colorspace {name!r}")
    if isinstance(cs, list):
        first = cs[0]
        if not isinstance(first, Name):
            raise PdfError("first arg must be a name")
        cs_name = bytes(first).decode("latin-1")
        if cs_name == "Separation":
            # validate like the reference (src/lib.rs:1461-1514): name,
            # alternate space, tint-transform Function construction
            from .objects import maybe_deref as _deref
            if not isinstance(cs[1], Name):
                raise PdfError("second arg must be a name")
            alt = _deref(doc, cs[2])
            if isinstance(alt, Name):
                if bytes(alt) not in (b"DeviceGray", b"DeviceRGB", b"DeviceCMYK"):
                    raise PdfError("unexpected color space name")
            elif isinstance(alt, list):
                a0 = alt[0]
                if not isinstance(a0, Name):
                    raise PdfError("first arg must be a name")
                if bytes(a0) not in (b"ICCBased", b"CalGray", b"CalRGB", b"Lab"):
                    raise PdfError("Unexpected color space name")
            else:
                raise PdfError("Alternate space should be name or array")
            from .functions import make_function
            make_function(doc, cs[3])  # constructed for parity of failures
            return cs_name
        if cs_name in ("ICCBased", "CalGray", "CalRGB", "Lab",
                       "Pattern", "DeviceGray", "DeviceRGB", "DeviceCMYK", "DeviceN"):
            return cs_name
        raise PdfError(f"color_space {name!r} {cs_name!r}")
    if isinstance(cs, Name):
        csn = bytes(cs)
        if csn in (b"DeviceRGB", b"DeviceGray"):
            return csn.decode()
        raise PdfError(f"unexpected colorspace name {csn!r}")
    raise PdfError("bad colorspace object")


class Processor:
    """Per-document interpreter state: font cache keyed by resource name
    (shared across pages AND across differing Resources dicts, exactly like
    the reference's Processor.font_table, src/lib.rs:1571-1579)."""

    # `Do` recursion bound: the reference recurses unboundedly (a
    # self-referencing Form XObject would overflow its stack); our UDF
    # must totalize instead of crashing, so cap the nesting depth.
    MAX_DO_DEPTH = 64

    def __init__(self):
        self.font_table = {}
        self._depth = 0

    def process_stream(self, doc, content: bytes, resources: dict,
                       media_box, output, page_num: int) -> None:
        if self._depth >= self.MAX_DO_DEPTH:
            raise PdfError("XObject recursion too deep")
        self._depth += 1
        try:
            self._process_stream_inner(doc, content, resources, media_box,
                                       output, page_num)
        finally:
            self._depth -= 1

    def _process_stream_inner(self, doc, content: bytes, resources: dict,
                              media_box, output, page_num: int) -> None:
        """Run the stream's operations as the scanner matches them, one
        window at a time (see the module docstring)."""
        st = StreamState(doc, resources, media_box, output, page_num)
        apply = self.apply
        operands: list = []
        pos = 0
        size = len(content)
        try:
            while True:
                end = _window_end(content, pos)
                for (nums, op, run, s, sop, name, nnums, nop, arr, aop,
                     i, r, tstr, tname, hexs, kw, tarr,
                     unknown) in _CONTENT.findall(content, pos, end):
                    if op:
                        if operands:
                            if nums:
                                operands += _numbers(nums)
                            apply(st, op.decode("latin-1"), operands)
                            operands = []
                        elif op == b"Td":
                            xy = _TD_OPERANDS.get(nums) or _td_operands(nums)
                            if xy:
                                x, y = xy
                                # _translate, inline
                                ts = st.gs.ts
                                tlm = st.tlm
                                if ts.state is not None and (
                                        ts.stable and tlm is ts.tm
                                        or _keeps_state(ts, tlm)):
                                    t0, t1, t2, t3, t4, t5 = tlm
                                    tlm = (t0, t1, t2, t3,
                                           x * t0 + y * t2 + t4,
                                           x * t1 + y * t3 + t5)
                                else:
                                    ts.state = None
                                    tlm = mul((1.0, 0.0, 0.0, 1.0, x, y),
                                              tlm)
                                st.tlm = ts.tm = tlm
                                ts.pending = None
                                output.end_line()
                            else:
                                apply(st, "Td", _numbers(nums))
                        elif op == b"BT" or op == b"ET":
                            _set_tm(st, IDENTITY)
                        elif op == b"Tm":
                            m = nums.split()
                            if len(m) == 6:
                                _set_tm(st, tuple(map(_num, m)))
                                output.end_line()
                            else:
                                apply(st, "Tm", _numbers(nums))
                        else:
                            apply(st, op.decode("latin-1"), _numbers(nums))
                    elif sop:
                        if operands or sop != b"Tj":
                            operands.append(PdfString(s))
                            apply(st, sop.decode("latin-1"), operands)
                            operands = []
                        else:
                            show_text(st.gs, s, output)
                    elif nop:
                        operands.append(Name(name))
                        if nnums:
                            operands += _numbers(nnums)
                        apply(st, nop.decode("latin-1"), operands)
                        operands = []
                    elif aop:
                        if operands or aop != b"TJ":
                            operands.append(_array(arr))
                            apply(st, aop.decode("latin-1"), operands)
                            operands = []
                        else:
                            _show_array(st.gs, _array(arr), output)
                    elif run:
                        operands += _numbers(run)
                    elif i:
                        operands.append(int(i))
                    elif r:
                        operands.append(f32(float(r)))
                    elif tstr:
                        operands.append(PdfString(tstr))
                    elif tname:
                        operands.append(Name(tname))
                    elif tarr:
                        operands.append(_array(tarr))
                    elif hexs:
                        operands.append(PdfString(unhexlify(hexs)))
                    elif kw:
                        operands.append(_KEYWORDS[kw])
                    elif unknown:
                        ops, operands, pos = _step(content, pos, end,
                                                   operands)
                        if ops:
                            apply(st, *ops[0])
                        break
                else:
                    if end == size:
                        return
                    pos = end
        except Exception:
            # the whole-list form parses the stream before it runs any
            # operation: a parse error after this one is what it raises
            check_rest(content, pos)
            raise

    def apply(self, st: "StreamState", op: str, operands: list) -> None:
        """Run one operation (src/lib.rs:1581-1876) on the stream state."""
        gs = st.gs
        if op == "TJ":
            arr = operands[0] if operands else None
            if isinstance(arr, list):
                _show_array(gs, arr, st.output)
        elif op == "Tj":
            o = operands[0]
            if not isinstance(o, PdfString):
                raise PdfError(f"unexpected Tj operand {o!r}")
            show_text(gs, bytes(o), st.output)
        elif op == "Td":
            if len(operands) != 2:
                raise PdfError("Td needs 2 operands")
            _translate(st, as_num(operands[0]), as_num(operands[1]))
        elif op == "TD":
            if len(operands) != 2:
                raise PdfError("TD needs 2 operands")
            tx, ty = as_num(operands[0]), as_num(operands[1])
            gs.ts.leading = -ty
            _translate(st, tx, ty)
        elif op == "T*":
            _translate(st, 0.0, -gs.ts.leading)
        elif op == "Tm":
            if len(operands) != 6:
                raise PdfError("Tm needs 6 operands")
            _set_tm(st, (as_num(operands[0]), as_num(operands[1]),
                         as_num(operands[2]), as_num(operands[3]),
                         as_num(operands[4]), as_num(operands[5])))
            st.output.end_line()
        elif op == "BT" or op == "ET":
            _set_tm(st, IDENTITY)
        elif op == "cm":
            if len(operands) != 6:
                raise PdfError("cm needs 6 operands")
            m = (as_num(operands[0]), as_num(operands[1]),
                 as_num(operands[2]), as_num(operands[3]),
                 as_num(operands[4]), as_num(operands[5]))
            gs.ctm = mul(m, gs.ctm)
            gs.ts.state = None
        elif op == "Tf":
            doc = st.doc
            fonts = require_dict(doc, st.resources, b"Font")
            name = operands[0]
            if not isinstance(name, Name):
                raise PdfError("Tf operand not a name")
            key = bytes(name)
            font = self.font_table.get(key)
            if font is None:
                font = make_font(doc, require_dict(doc, fonts, key))
                self.font_table[key] = font
            gs.ts.font = font
            gs.ts.font_size = as_num(operands[1])
            gs.ts.advances = gs.ts.state = None
        elif op == "Tc":
            gs.ts.character_spacing = as_num(operands[0])
            gs.ts.advances = gs.ts.state = None
        elif op == "Tw":
            gs.ts.word_spacing = as_num(operands[0])
            gs.ts.advances = gs.ts.state = None
        elif op == "Tz":
            gs.ts.horizontal_scaling = as_num(operands[0]) / 100.0
            gs.ts.advances = gs.ts.state = None
        elif op == "TL":
            gs.ts.leading = as_num(operands[0])
        elif op == "Ts":
            gs.ts.rise = as_num(operands[0])
            gs.ts.state = None
        elif op == "q":
            st.gs_stack.append(gs.clone())
        elif op == "Q":
            if st.gs_stack:
                st.gs = st.gs_stack.pop()
            else:
                log.warning("No state to pop")
        elif op == "gs":
            ext_gstate = require_dict(st.doc, st.resources, b"ExtGState")
            name = operands[0]
            if not isinstance(name, Name):
                raise PdfError("gs operand not a name")
            apply_state(st.doc, gs,
                        require_dict(st.doc, ext_gstate, bytes(name)))
        elif op == "CS":
            name = operands[0]
            if not isinstance(name, Name):
                raise PdfError("CS operand not a name")
            gs.stroke_colorspace = make_colorspace(st.doc, bytes(name),
                                                   st.resources)
        elif op == "cs":
            name = operands[0]
            if not isinstance(name, Name):
                raise PdfError("cs operand not a name")
            gs.fill_colorspace = make_colorspace(st.doc, bytes(name),
                                                 st.resources)
        elif op in ("SC", "SCN"):
            if gs.stroke_colorspace == "Pattern":
                gs.stroke_color = []
            else:
                gs.stroke_color = [as_num(x) for x in operands]
        elif op in ("sc", "scn"):
            if gs.fill_colorspace == "Pattern":
                gs.fill_color = []
            else:
                gs.fill_color = [as_num(x) for x in operands]
        elif op == "w":
            gs.line_width = as_num(operands[0])
        elif op == "m":
            st.path.append(("m", as_num(operands[0]), as_num(operands[1])))
        elif op == "l":
            st.path.append(("l", as_num(operands[0]), as_num(operands[1])))
        elif op == "c":
            st.path.append(("c",) + tuple(as_num(x) for x in operands[:6]))
        elif op == "v":
            x, y = _current_point(st.path)
            st.path.append(("c", x, y, as_num(operands[0]),
                            as_num(operands[1]), as_num(operands[2]),
                            as_num(operands[3])))
        elif op == "y":
            st.path.append(("c", as_num(operands[0]), as_num(operands[1]),
                            as_num(operands[2]), as_num(operands[3]),
                            as_num(operands[2]), as_num(operands[3])))
        elif op == "h":
            st.path.append(("h",))
        elif op == "re":
            st.path.append(("re",) + tuple(as_num(x) for x in operands[:4]))
        elif op == "S":
            st.output.stroke(gs.ctm, gs.stroke_colorspace, gs.stroke_color,
                             st.path)
            st.path = []
        elif op in ("F", "f"):
            st.output.fill(gs.ctm, gs.fill_colorspace, gs.fill_color,
                           st.path)
            st.path = []
        elif op == "n":
            st.path = []
        elif op in ("BMC", "BDC"):
            st.mc_depth += 1
        elif op == "EMC":
            st.mc_depth = max(0, st.mc_depth - 1)
        elif op == "Do":
            # recursive subdocument processing (src/lib.rs:1860-1869)
            doc, resources = st.doc, st.resources
            xobjects = require_dict(doc, resources, b"XObject")
            name = operands[0]
            if not isinstance(name, Name):
                raise PdfError("Do operand not a name")
            xf = maybe_get_obj(doc, xobjects, bytes(name))
            if not isinstance(xf, Stream):
                raise PdfError(f"missing XObject {bytes(name)!r}")
            if xf.dict.get(b"Subtype") == b"Image":
                # DELIBERATE divergence: the reference recurses into
                # EVERY XObject (src/lib.rs:1860-1869) and panics
                # when the image entropy bytes fail Content::decode
                # (lib.rs:1582 .unwrap()) — i.e. every scanned PDF
                # crashes it.  Totalization trumps crash parity
                # (same policy as the Do depth cap): images carry
                # no text, skip them.
                return
            sub_res = xf.dict.get(b"Resources")
            if sub_res is not None:
                from .objects import maybe_deref
                sub_res = maybe_deref(doc, sub_res)
            sub_res = sub_res if isinstance(sub_res, dict) else resources
            from .document import _contents_bytes
            self.process_stream(doc, _contents_bytes(xf, doc), sub_res,
                                st.media_box, st.output, st.page_num)
        # everything else is logged-and-ignored in the reference:
        # i J j M d ri s f* B B* b W w* G g RG rg K k and unknowns


class StreamState:
    """The state of one content stream's run: the graphics state and
    its stack, the text line matrix, the path and the marked-content
    depth (locals of the reference's process_stream), and the arguments
    the operations read."""
    __slots__ = ("doc", "resources", "media_box", "output", "page_num",
                 "gs", "gs_stack", "tlm", "path", "mc_depth")

    def __init__(self, doc, resources: dict, media_box, output,
                 page_num: int):
        self.doc = doc
        self.resources = resources
        self.media_box = media_box
        self.output = output
        self.page_num = page_num
        self.gs = GraphicsState()
        self.gs_stack: List[GraphicsState] = []
        self.tlm: Transform = IDENTITY
        self.path: List[tuple] = []
        self.mc_depth = 0


def _show_array(gs: GraphicsState, arr: list, output) -> None:
    """TJ: show each string, move tm by each number (/1000 of a text
    space unit, against the writing direction)."""
    ts = gs.ts
    for e in arr:
        if isinstance(e, PdfString):
            show_text(gs, bytes(e), output)
        elif isinstance(e, bool):
            pass
        elif isinstance(e, (int, float)):
            tj = float(e)
            tx = ts.horizontal_scaling * ((0.0 - tj / 1000.0) * ts.font_size)
            tm = ts.settled_tm()
            if ts.state is not None and (ts.stable or _keeps_state(ts, tm)):
                t0, t1, t2, t3, t4, t5 = tm
                ts.tm = (t0, t1, t2, t3, tx * t0 + 0.0 * t2 + t4,
                         tx * t1 + 0.0 * t3 + t5)
            else:
                ts.state = None
                ts.tm = mul(translation(tx, 0.0), tm)


def _current_point(path: List[tuple]) -> Tuple[float, float]:
    if not path:
        raise PdfError("current point on empty path")
    last = path[-1]
    if last[0] == "m" or last[0] == "l":
        return last[1], last[2]
    if last[0] == "c":
        return last[5], last[6]
    raise PdfError("no current point")
