"""A pin on the byte-level object parser itself.

`Lexer._parse_object_bytes` and `_parse_indirect_object_bytes` are the
reference the token scanners are held to (tests/test_lexer_scanner.py),
and the scanners fall back to them, so a change to the reference does
not show in a scanner-vs-bytes comparison.  This test hashes their
outcomes -- value and type reprs, end position, exception type, text
and position at the raise (tools/lexer_diff.py `_outcome`) -- over every
pdfgen object body and framing and a seeded set of mutations that reach
the byte-level corners: `#` names, comments between the parts of
`N G R`, signed and over-long reference numbers, odd-nibble hex,
unterminated containers and nesting past the recursion limit.

The digests were computed with the byte-level parser that kept
hand-inlined fast paths (a one-shot `N G R` regex, a byte lookahead,
`bytes.fromhex` for hex strings), then re-pinned when nesting past
`lexer._MAX_NESTING` became a PdfError (before, it ran into Python's
recursion limit, at a level that moved with the caller's stack depth);
an old-vs-new diff of the records showed that only the 600-deep
`_EDGES` records changed.  The records are computed in a fresh thread
under a recursion limit of 1000.
"""
import hashlib
import importlib.util
import pathlib
import random
import sys
import threading

from pdf_extract_ray.engine.lexer import Lexer, _parse_indirect_object_bytes

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "lexer_diff", REPO / "tools" / "lexer_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


L = _tool()

_LONG = b"1" * 4400
_INSERTS = (
    b"/A#20B", b"/#41", b"/K#4", b"#", b"/x#2f#", b" 1 %c\n0 %c\nR ",
    b" 2 0 %c\rR", b" 3 %c\n0 R", b"+3 0 R", b" -0 0 R", b"<41 4>",
    b"<4 1>", b"<41\n42>", b"<zz>", b"[", b"<<", b" [ ", b" << ",
    b" " + _LONG + b" 0 R", b" 1 " + _LONG + b" R", b" " + _LONG + b" %c\n0 R",
    b" " + _LONG + b" ", b" 1_0 0 R", b" 1e5 ", b" 1.5 0 R", b"%",
    b"   ", b"]", b">>")
_EDGES = [
    _LONG + b" 0 R", b"[" + _LONG + b" 0 R]", b"1 " + _LONG + b" R",
    _LONG + b" %c\n0 R", b"1 %c\n" + _LONG + b" R", b"+3 " + _LONG + b" R",
    _LONG, b"0" * 4400 + b" 0 R", b"+3 0 R", b"[+3 0 R -1 0 R 1 0 R1]",
    b"<41 4>", b"<4>", b"<41", b"[", b"<<", b"[1 2  ", b"[1 2 %c",
    b"<< /A 1  ", b"<< /A 1 %c", b"[ ", b"<< ", b"<< /A", b"<< /A 1 >",
    b"[" * 600, b"<<" * 600, b"[" * 600 + b"]" * 600,
]
# nesting past the cap with tokens or separators between the openers
_DEEP = [b"<< /A " * 600, b"[ " * 600, b"[%c\n" * 600, b"[1 " * 600,
         b"\n[" * 600, b"[/N " * 600, b"<< /A 1 /B " * 600]


def _records():
    rng = random.Random(20261017)
    bodies = L.fixture_bodies()
    framings = L.fixture_framings()
    cases = list(bodies) + list(_EDGES)
    cases += [L.mutate(rng, rng.choice(bodies), _INSERTS) for _ in range(3000)]
    for buf in cases:
        for allow_ref in (True, False):
            yield L._outcome(lambda lx: lx._parse_object_bytes(allow_ref),
                             Lexer(buf))
    frames = list(framings)
    frames += [(L.mutate(rng, buf, _INSERTS), doc)
               for buf, doc in (rng.choice(framings) for _ in range(1000))]
    frames += [(b"5 0 obj " + buf, L.Lengths()) for buf in _EDGES]
    for buf, doc in frames:
        yield L._outcome(lambda lx: _parse_indirect_object_bytes(lx, doc),
                         Lexer(buf))


def _digest() -> str:
    out = {}

    def run():
        h = hashlib.sha256()
        for rec in _records():
            h.update(repr(rec).encode())
        out["digest"] = h.hexdigest()

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=600)
        assert not t.is_alive()
    finally:
        sys.setrecursionlimit(limit)
    return out["digest"]


REFERENCE_SHA256 = \
    "ccad238443185e00dc25078442bca1690349bc95a7ef86cc73c71f6355c099d3"


def test_reference_outcomes_pinned():
    assert _digest() == REFERENCE_SHA256


def _under_frames(frames: int, fn):
    """fn() called `frames` Python frames deeper, in a fresh thread under
    a recursion limit of 1000."""
    out = {}

    def nest(k):
        return nest(k - 1) if k else fn()

    def run():
        out["result"] = nest(frames)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
    finally:
        sys.setrecursionlimit(limit)
    return out["result"]


def test_deep_nesting_raises_pdf_error_at_any_caller_depth():
    """Nesting past `_MAX_NESTING` raises one PdfError -- same text, same
    position -- whatever the caller's stack depth, up to a caller as
    deep as `Processor.MAX_DO_DEPTH` nested form XObjects put it."""
    from pdf_extract_ray.engine.interpreter import Processor
    from pdf_extract_ray.engine.lexer import _MAX_NESTING
    depths = list(range(12)) + [3 * Processor.MAX_DO_DEPTH + 100]
    for buf in _DEEP + [b"[" * 600, b"<<" * 600, b"[" * 600 + b"]" * 600]:
        for allow_ref in (True, False):
            for parse in (Lexer.parse_object, Lexer._parse_object_bytes):
                outcomes = {_under_frames(k, lambda: L._outcome(
                    lambda lx: parse(lx, allow_ref), Lexer(buf)))
                    for k in depths}
                assert len(outcomes) == 1, (buf[:12], outcomes)
                (kind, exc, text, _pos), = outcomes
                assert (kind, exc) == ("raised", "PdfError")
                assert text.startswith(
                    f"objects nested deeper than {_MAX_NESTING} at ")
