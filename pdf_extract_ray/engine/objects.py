"""PDF object model + typed accessors.

Semantics mirror the reference engine's dynamic object layer
(/root/reference/src/lib.rs:175-300): values may be indirect references that
deref through the document; field fetches coerce int->float; names are raw
byte strings.  Representation is idiomatic Python, not a translation:

- numbers      -> int / float  (reals are rounded through float32, matching
                  lopdf 0.39's `Object::Real(f32)` widened to f64)
- booleans     -> bool, null -> PdfNull (distinct from "missing")
- string       -> PdfString (bytes subclass)
- name         -> Name (bytes subclass)
- array        -> list
- dictionary   -> dict[bytes, obj]
- stream       -> Stream (dict + raw, still-encoded bytes)
- reference    -> Ref(num, gen)
"""
from __future__ import annotations

import struct
from typing import Optional

_F32 = struct.Struct("<f")


def f32(x: float) -> float:
    """Round a float through IEEE-754 binary32, like lopdf's f32 reals."""
    return _F32.unpack(_F32.pack(x))[0]


class PdfError(Exception):
    pass


class Name(bytes):
    """A PDF name (/Foo) as its raw bytes (escapes already resolved)."""
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "/" + self.decode("latin-1")


class PdfString(bytes):
    """A PDF string's raw bytes (literal escapes / hex already resolved)."""
    __slots__ = ()


class PdfNull:
    """The PDF `null` object (distinct from a missing key)."""
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self) -> str:  # pragma: no cover
        return "null"


NULL = PdfNull()


class Ref:
    """Indirect object reference `num gen R`."""
    __slots__ = ("num", "gen")

    def __init__(self, num: int, gen: int):
        self.num = num
        self.gen = gen

    def __eq__(self, other):
        return isinstance(other, Ref) and self.num == other.num and self.gen == other.gen

    def __hash__(self):
        return hash((self.num, self.gen))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.num} {self.gen} R"


class Stream:
    """A PDF stream: its dictionary plus raw (still-encoded) bytes."""
    __slots__ = ("dict", "raw")

    def __init__(self, d: dict, raw: bytes):
        self.dict = d
        self.raw = raw

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream({self.dict!r}, {len(self.raw)} bytes)"


# ---------------------------------------------------------------------------
# Text decoding helpers (reference src/lib.rs:152-172)
# ---------------------------------------------------------------------------

from ..tables.pdfdoc import PDFDOC_ENCODING  # noqa: E402


def to_utf8(encoding, s: bytes) -> str:
    """Decode bytes through a 256-entry u16 table (src/lib.rs:163-172).

    A UTF-16BE BOM (when len > 2) switches to UTF-16BE for the remainder.
    Invalid UTF-16 raises (the reference unwraps -> panic -> error row).
    """
    if len(s) > 2 and s[0] == 0xFE and s[1] == 0xFF:
        return s[2:].decode("utf-16-be")  # strict: invalid input raises
    return "".join(chr(encoding[b]) for b in s)


def pdf_to_utf8(s: bytes) -> str:
    """PDFDocEncoding-or-UTF16BE(BOM) bytes -> str (src/lib.rs:152-161)."""
    return to_utf8(PDFDOC_ENCODING, s)


# ---------------------------------------------------------------------------
# Typed accessors over the object graph (reference src/lib.rs:175-300)
# ---------------------------------------------------------------------------

def maybe_deref(doc, o):
    if isinstance(o, Ref):
        v = doc.get_object(o)
        if v is None:
            raise PdfError(f"missing object reference {o!r}")
        return v
    return o


def maybe_get_obj(doc, d: dict, key: bytes):
    o = d.get(key)
    return maybe_deref(doc, o) if o is not None else None


def as_num(o) -> float:
    if isinstance(o, bool) or not isinstance(o, (int, float)):
        raise PdfError(f"not a number: {o!r}")
    return float(o)


def get_num(doc, d: dict, key: bytes) -> Optional[float]:
    """Int-or-real coerced to float, None if absent/wrong type."""
    o = maybe_get_obj(doc, d, key)
    if isinstance(o, bool) or not isinstance(o, (int, float)):
        return None
    return float(o)


def get_int(doc, d: dict, key: bytes) -> Optional[int]:
    o = maybe_get_obj(doc, d, key)
    if isinstance(o, bool) or not isinstance(o, int):
        return None
    return o


def get_num_array(doc, d: dict, key: bytes) -> Optional[list]:
    o = maybe_get_obj(doc, d, key)
    if not isinstance(o, list):
        return None
    out = []
    for x in o:
        x = maybe_deref(doc, x)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise PdfError("wrong type in number array")
        out.append(float(x))
    return out


def get_dict(doc, d: dict, key: bytes) -> Optional[dict]:
    o = maybe_get_obj(doc, d, key)
    return o if isinstance(o, dict) else None


def require_dict(doc, d: dict, key: bytes) -> dict:
    o = get_dict(doc, d, key)
    if o is None:
        raise PdfError(f"missing dict {key!r}")
    return o


def maybe_get_name(doc, d: dict, key: bytes) -> Optional[bytes]:
    o = maybe_get_obj(doc, d, key)
    return bytes(o) if isinstance(o, Name) else None


def maybe_get_array(doc, d: dict, key: bytes) -> Optional[list]:
    o = maybe_get_obj(doc, d, key)
    return o if isinstance(o, list) else None


def get_name_string(doc, d: dict, key: bytes) -> str:
    """Name value decoded via PDFDocEncoding (src/lib.rs:285-287); raises
    if missing or not a name, like the reference's expect()."""
    o = d.get(key)
    if o is None:
        raise PdfError(f"missing name {key!r}")
    o = maybe_deref(doc, o)
    if not isinstance(o, Name):
        raise PdfError(f"not a name: {o!r}")
    return pdf_to_utf8(bytes(o))
