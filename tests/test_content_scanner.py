"""The content-stream scanner (`content.parse_content`) against the byte
loop it falls back to (`content._parse_content_bytes`): same operator
names, same operand values and types, same exception types and
messages, on every pdfgen page stream, on edge tokens, on token soups
and on seeded mutations (tools/lexer_diff.py holds the corpus and the
comparison), also with a window end at every whitespace byte.  Also:
how often the perfbench workloads fall back, whitespace floods on both
paths, and peak memory on token-dense streams."""
import importlib.util
import pathlib
import sys
import time
import tracemalloc

import pytest

from pdf_extract_ray.engine import content, interpreter
from pdf_extract_ray.engine.content import _parse_content_bytes, parse_content
from pdf_extract_ray.engine.objects import Name, PdfString

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lexer_diff", REPO / "tools" / "lexer_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


L = _tool()


def test_fixture_streams_agree():
    streams = L.fixture_content_streams()
    assert len(streams) > 30
    assert [s for s in streams if L.content_divergence(s)] == []


def test_seeded_mutations_agree():
    assert L.content_sweep(3000, seed=20261017) == []


_EDGES = [
    # escapes and nested parens (the byte loop's string reader)
    b"(a\\)b) Tj", b"(a\\\\) Tj", b"(\\053\\n\\r\\t\\b\\f\\q) Tj",
    b"(a(b)c) Tj", b"(a(b) Tj", b"(line\\\r\nnext) Tj", b"(abc",
    b"() Tj", b"[()] TJ",
    # names: `#` escapes, empty, followed by a delimiter
    b"/A#20B Tf", b"/#41 1 Tf", b"/ 12 Tf", b"/F1/F2 Tf", b"/F1(x)Tj",
    # inline images, with and without geometry, truncated
    b"q BI /W 2 /H 1 /CS /G /BPC 8 ID \x00\x01 EI Q (x) Tj",
    b"BI /F /AHx ID 00ff> EI 1 g", b"BI /W 1 ID", b"BI", b"1 2 BI",
    b"q BI /IM true /W 8 /H 1 ID \xff EI Q",
    # property lists and nested arrays
    b"/P << /MCID 3 >> BDC (x) Tj EMC", b"/Span <</ActualText (a\\)b)>> BDC",
    b"[1 [2 3] 4] TJ", b"[[]] d", b"[] 0 d", b"[ ] 0 d", b"[1 << >> ] x",
    b"[(a) -250 (b) 1.5 /N true null <41>] TJ", b"[1 Tj] x", b"[1 2",
    b"[1 %c] x", b"[1 %]\n2] TJ", b"[(a)%(b)]\n(c)] TJ",
    # stray delimiters
    b") ] } > { Tj", b"(a)) Tj", b"1 ] 2 Td", b">> BT", b"{1} x",
    # numbers the pattern leaves to the byte loop
    b"1.2.3 Tc", b"--5 Tc", b"+ Tc", b". Tc", b"- 5 Tc", b"1e5 Tc",
    b"1_0 Tc", b"9" * 700 + b" Tc", b"[" + b"9" * 700 + b"] TJ",
    b"3" * 50 + b".0 Tc", b"[1" + b"0" * 45 + b".5] TJ", b"0x10 Tc",
    b"+.5 -.5 5. -0 -0.0 007 Tc",
    # hex strings: odd nibbles, spaces, junk, empty, unterminated
    b"<4> Tj", b"<414> Tj", b"<41 42> Tj", b"<4g> Tj", b"<> Tj", b"<41",
    b"<<41>> Tj",
    # keywords and operators
    b"true false null x", b"truex nul falsey", b"T* ' \" d0 d1 BX EX",
    b"\x80\xff Tj", b"\x0b x",
    # comments, whitespace, truncation
    b"%c", b"1 %c\r2 %d\n3 x", b"", b"   ", b"% only", b"BT %\n ET",
    b"1 2 3", b"(x) Tj (y", b"(x) T",
]


@pytest.mark.parametrize("data", _EDGES)
def test_edge_streams_agree(data):
    for cut in range(len(data) + 1):
        assert L.content_divergence(data[:cut]) is None, data[:cut]


@pytest.mark.parametrize("unit", [
    b"(a\\)b) Tj\n", b"BT /F1 1 Tf [(x) -5 (y\\053)] TJ ET\n",
    b"/P << /MCID 0 >> BDC (z) Tj EMC 1.2.3 Tc\n",
    b"q BI /W 1 /H 1 /CS /G /BPC 8 ID \x00 EI Q () Tj\n",
    b"1 0 0 1 72 700 Tm (a b %c) Tj % (x y\n[1 2 3] TJ <41 42> Tj\n"])
def test_long_streams_agree(unit):
    """Streams of many scanner windows (`content._WINDOW`), with
    fallbacks and window ends all through them."""
    data = unit * (3 * content._WINDOW // len(unit))
    assert len(data) > 2 * content._WINDOW
    assert L.content_divergence(data) is None
    assert L.content_divergence(b"1 2 Td " * 6000 + unit) is None


@pytest.mark.parametrize("window", range(1, 24))
def test_every_window_end_agrees(window, monkeypatch):
    """Tiny windows put a window end at every whitespace byte: inside
    strings, arrays, hex strings and comments, next to every token."""
    monkeypatch.setattr(content, "_WINDOW", window)
    streams = _EDGES + [
        b"1 %c c c\n2 Td (a b c) Tj [1 2 3] TJ <41 42> Tj %x\r(q)Tj",
        b"(50% x) Tj % a b\n1 2 Td %\x00 z\r\n3 4 Td",
        b"/F1 12 Tf\x00(x\x00y) Tj [(a) -5 (b)]\tTJ % end"]
    for data in streams + L.fixture_content_streams()[:12]:
        assert L.content_divergence(data) is None, data


def _peak_mb(parse, data) -> float:
    tracemalloc.start()
    try:
        parse(data)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("unit", [b"1 ", b"0 0 m\n",
                                  b"1 0 0 1 72 700 Tm (abc) Tj\n"])
def test_token_dense_streams_peak_memory(unit):
    """The scanner's tuples cost one window's worth on top of the
    operations: a 1 MB stream of tokens peaks within 2 MB of the byte
    loop (one findall over the whole stream peaked 16x higher on
    `1 1 1 ...`)."""
    data = unit * ((1 << 20) // len(unit))
    scanner, byte_loop = (_peak_mb(parse_content, data),
                          _peak_mb(_parse_content_bytes, data))
    assert scanner < byte_loop + 2, (scanner, byte_loop)


def test_scanner_values():
    """The scanner's own output on the common shapes (not only agreement
    with the byte loop)."""
    ops = parse_content(b"BT /F1 12 Tf 72.5 -0 Td (Hi) Tj "
                        b"[(A) -120 <42> true null] TJ ET")
    assert [op for op, _ in ops] == ["BT", "Tf", "Td", "Tj", "TJ", "ET"]
    assert all(type(op) is str for op, _ in ops)
    name, size = ops[1][1]
    assert type(name) is Name and name == b"F1" and size == 12
    assert ops[2][1] == [72.5, 0] and type(ops[2][1][1]) is int
    assert type(ops[3][1][0]) is PdfString
    arr = ops[4][1][0]
    assert arr[:3] == [b"A", -120, b"B"] and arr[3] is True
    assert [type(x).__name__ for x in arr] == [
        "PdfString", "int", "PdfString", "bool", "PdfNull"]


def test_whitespace_floods_parse_fast():
    """A 20 MB whitespace run costs C-speed scans on both paths, also
    when a trailing inline image sends the stream to the byte loop."""
    flood = b" \n" * (10 << 20)
    shapes = [
        (b"BT " + flood + b"ET", [("BT", []), ("ET", [])]),
        (b"BT (x) Tj " + flood + b"ET BI /W 1 /H 1 /CS /G /BPC 8 ID \x00 EI Q",
         [("BT", []), ("Tj", [b"x"]), ("ET", []), ("Q", [])]),
    ]
    for data, want in shapes:
        for parse in (parse_content, _parse_content_bytes):
            best = float("inf")
            for _ in range(3):
                t0 = time.process_time()
                ops = parse(data)
                best = min(best, time.process_time() - t0)
            assert ops == want
            assert best < 0.1, (parse.__name__, best)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None

if st is not None:
    _TOKENS = [b"BT", b"ET", b"Tj", b"TJ", b"Tf", b"'", b"T*", b"1", b"-2",
               b"+3", b"0.5", b"-.5", b"1.", b".", b"007", b"1.2.3", b"--5",
               b"/F1", b"/", b"/A#20B", b"(s)", b"()", b"(a\\)b)", b"(a(b)c)",
               b"(", b")", b"<41>", b"<4>", b"<>", b"<4 1>", b"<", b">", b"<<",
               b">>", b"[", b"]", b"{", b"}", b"true", b"false", b"null",
               b"BI", b"ID", b"EI", b"\\", b"#", b"%", b"\x0b", b"\xff"]
    _SEPS = [b"", b" ", b"\n", b"\r\n", b"\x00", b"%c\n", b"%c\r", b"%",
             b"  \t"]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SEPS),
                              st.sampled_from(_TOKENS) | st.binary(max_size=3)),
                    max_size=24))
    def test_token_soup_agrees(parts):
        buf = b"".join(sep + tok for sep, tok in parts)
        assert L.content_divergence(buf) is None, buf


def _fallback_counts(workload: str, seed: int, monkeypatch):
    """(content streams, streams with a byte-loop step) over the
    pipeline UDF's pass of a perfbench workload (a `Do` stream's steps
    count for it, not for the stream that runs it)."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    from pdf_extract_ray.pipelines.extract import ExtractBatch

    active = []  # byte-loop steps of each stream being run, innermost last
    streams = []
    step = content._content_step
    process = interpreter.Processor.process_stream

    def counting_step(*args):
        active[-1] += 1
        return step(*args)

    def counting_process(self, *args):
        active.append(0)
        try:
            return process(self, *args)
        finally:
            streams.append(active.pop())

    monkeypatch.setattr(content, "_content_step", counting_step)
    monkeypatch.setattr(interpreter.Processor, "process_stream",
                        counting_process)
    table = gen.pages_table(gen.make_rows(workload, seed), seed)
    udf = ExtractBatch(with_spans=False)
    for off in range(0, table.num_rows, 64):
        udf(table.slice(off, 64).select(["url", "html"]))
    return len(streams), sum(1 for n in streams if n)


def test_fallback_rate_per_workload(monkeypatch):
    """The generated page text never leaves the scanner; crawl_mix falls
    back on the fixtures that carry escapes, empty strings, `BI` and the
    like (96 of 1,702 streams at seed 1)."""
    n, fell_back = _fallback_counts("large_pdfs", 1, monkeypatch)
    assert n > 1000 and fell_back == 0
    n, fell_back = _fallback_counts("crawl_mix", 1, monkeypatch)
    assert n > 1500 and fell_back / n < 0.06, (fell_back, n)


def _interp_tool():
    spec = importlib.util.spec_from_file_location(
        "interp_diff", REPO / "tools" / "interp_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def interp_diff():
    return _interp_tool()


def test_interpreter_matches_list_reference(interp_diff, caplog):
    """`Processor.process_stream`, which runs the scanner's matches as
    they come, against `parse_content`'s list fed through the same
    handlers (tools/interp_diff.py): same device calls, same exception
    type and text, on seeded soups with mutated operands, separators,
    property lists, inline images and window ends."""
    caplog.set_level("ERROR")
    assert interp_diff.sweep(1500, seed=20261020) == []


@pytest.mark.parametrize("data", [
    # a handler error first, a parse error later: the parse error wins
    b"BT /F1 12 Tf 1 Td (x) Tj (abc", b"(x) Tj [1 2",
    b"BT /F1 12 Tf 1 2 3 Tm " + b"1 2 Td " * 3000 + b"<41",
    b"BT /F1 12 Tf 1 Td 1 " + b"7" * 45 + b".0 Td",
    # operands the token path or the byte loop reads, then an operation
    b"BT /F1 12 Tf /P <</MCID 0>> 1 2 Td (x) Tj ET",
    b"BT /F1 12 Tf 1 %c\n2 Td (a) Tj 1\x002 Td (b) Tj ET",
    b"BT /F1 12 Tf [(a) 5 (b)] 1 TJ ET", b"BT /F1 12 Tf 1 2 (a) Tj ET",
    b"BT /F1 12 Tf 1 0 0 1 -0.0 -0.0 Tm -0 -0 Td (a) Tj ET",
    b"BT /F1 12 Tf 1 0 -0.0 1 -0.0 -0.0 Tm -0 -0 Td (a) Tj ET",
    b"BT /F1 12 Tf " + b"3" * 40 + b" 1 Td (a) Tj ET",
    b"BT /F1 12 Tf " + b"9" * 400 + b" 1 Td (a) Tj ET",
    b"BT /F1 12 Tf 1 " + b"4" * 39 + b".5 Td (a) Tj ET",
    b"BT /F1 12 Tf 1 2 BI /W 1 ID \x00 EI Td (a) Tj ET"])
def test_interpreter_edge_streams(interp_diff, data):
    for window in (1, 5, content._WINDOW):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(content, "_WINDOW", window)
            assert interp_diff.interpreter_divergence(data) is None, window


def _process_peak(data: bytes) -> int:
    from pdf_extract_ray.engine.devices import OutputDev
    tracemalloc.start()
    try:
        interpreter.Processor().process_stream(None, data, {}, None,
                                               OutputDev(), 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_operator_flood_memory_follows_the_window():
    """A stream of 400k `n` operators peaks within 2x of one of 40k:
    the interpreter holds one window's matches, not the stream's
    operations (a list of them grows ~140 B per operation)."""
    small, large = (_process_peak(b"n\n" * 40_000),
                    _process_peak(b"n\n" * 400_000))
    assert large < 2 * small, (small, large)
