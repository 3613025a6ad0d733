"""The object scanner (`Lexer.parse_object`, `parse_indirect_object`)
against the byte-level parser it falls back to: same values (types and
reprs), same `lx.pos`, same exception types and messages, on every
pdfgen fixture, on token soups, and on seeded mutations
(tools/lexer_diff.py holds the corpus and the comparison)."""
import importlib.util
import pathlib
import random

import pytest

from pdf_extract_ray.engine.lexer import Lexer
from pdf_extract_ray.engine.objects import Name, Ref

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lexer_diff", REPO / "tools" / "lexer_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


L = _tool()


def test_fixture_bodies_agree():
    bodies = L.fixture_bodies()
    assert len(bodies) > 200
    bad = [b for b in bodies if L.body_divergence(b) is not None]
    assert bad == []


def test_fixture_framings_agree():
    framings = L.fixture_framings()
    assert len(framings) > 200
    bad = [b for b, doc in framings if L.frame_divergence(b, 0, doc)]
    assert bad == []


def test_stream_lengths_agree():
    """Direct, indirect (resolving right, wrong or not at all), bogus and
    missing /Length values, with every EOL and trailer variant."""
    rng = random.Random(7)
    for _ in range(3000):
        buf, doc = L.framed_streams(rng)
        assert L.frame_divergence(buf, 0, doc) is None, buf


def test_seeded_mutations_agree():
    assert L.sweep(3000, seed=20261017) == []


@pytest.mark.parametrize("body", [
    # a comment swallowing what would otherwise close the dict
    b"<< /A 1 %>>\n/B 2 >>", b"<< /A 1 %>>", b"[1 %]", b"[1 0 %R",
    b"<< /A 1 % c >> \r>>",
    b"[1 2 %]\n3]",
    # names with # escapes (the fallback decodes them)
    b"<< /A#20B 1 /C /D#2fE >>",
    b"/A#", b"/#41", b"<< /K#41 /V >>",
    # references split by comments, and near-references
    b"[1 %c\n 0 %d\r R 3]", b"[1 0 R1]", b"[-1 0 R]", b"[-0 0 R]",
    b"[+4 0 R]", b"[1 0 %\nR]", b"[1 0(R)]", b"12 0 obj",
    # numbers the pattern leaves to the byte-level path
    b"1_0", b"1e5", b"--5", b"1.2.3", b".", b"-", b"1\x0b", b"9" * 5000,
    b"1" * 60 + b".5", b"[1" + b"9" * 5000 + b" 0 R]",
    # non-name keys and misplaced closers
    b"<< 1 2 >>", b"<< (k) 2 >>", b"<< /A >>", b"<< /A ] >>", b"[ >> ]",
    b"]", b">>", b"<< /A 1", b"[1 2", b"", b"   %only a comment",
    # strings inside containers, unterminated ones
    b"[(a(b)c) <41 42> <4>]", b"<< /S (x\\)y) /H <zz> >>", b"[(abc",
    b"<< /S <41", b"<<>>", b"[]", b"<</A<</B[]>>>>",
    # keywords
    b"[true false null truex nul]", b"true", b"null%\n", b"endobj",
    # deep nesting: beyond the scanner's depth the byte-level path runs
    b"[" * 70 + b"]" * 70, b"<< /A " * 70 + b">> " * 70,
])
def test_edge_bodies_agree(body):
    for pos in range(min(len(body), 8) + 1):
        assert L.body_divergence(body, pos) is None, (body, pos)


def test_fast_path_values():
    """The scanner's own output on the common shapes (not only agreement
    with the fallback): dict keys are plain bytes, names are Name."""
    lx = Lexer(b"1 0 obj << /Type /Page /Kids [3 0 R 4 0 R] /N -2 "
               b"/R 0.5 /T (t) /H <41> /B true /Z null >> endobj", 8)
    d = lx.parse_object()
    assert list(d) == [b"Type", b"Kids", b"N", b"R", b"T", b"H", b"B", b"Z"]
    assert all(type(k) is bytes for k in d)
    assert type(d[b"Type"]) is Name and d[b"Type"] == b"Page"
    assert d[b"Kids"] == [Ref(3, 0), Ref(4, 0)]
    assert (d[b"N"], d[b"R"], d[b"B"]) == (-2, 0.5, True)
    assert lx.buf[lx.pos:] == b" endobj"


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None

if st is not None:
    _TOKENS = [b"<<", b">>", b"[", b"]", b"/Name", b"/", b"/A#20B", b"/#",
               b"1", b"-2", b"+3", b"0.5", b"-.5", b"1.", b".", b"007",
               b"12 0 R", b"R", b"obj", b"endobj", b"stream", b"true",
               b"false", b"null", b"(s)", b"(a\\)b(c))", b"(", b")",
               b"<41>", b"<4 1>", b"<", b">", b"1e5", b"1_0", b"{", b"}",
               b"\\", b"#", b"%", b"\x0b"]
    _SEPS = [b"", b" ", b"\n", b"\r\n", b"\x00", b"%c\n", b"%c\r", b"%",
             b"  \t"]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SEPS),
                              st.sampled_from(_TOKENS) | st.binary(max_size=3)),
                    max_size=24))
    def test_token_soup_agrees(parts):
        buf = b"".join(sep + tok for sep, tok in parts)
        assert L.body_divergence(buf) is None, buf
        assert L.frame_divergence(b"5 0 obj " + buf, 0, L.Lengths()) is None
