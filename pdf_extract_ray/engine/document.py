"""PDF document parser: header, xref tables & xref streams, object streams,
trailer, page tree.

Rebuilds the layer the reference delegated to lopdf (`Document::load`,
`get_pages`, `get_page_content`; see SURVEY.md §1.1 / §7 step 1).  Written
from the PDF 32000-1:2008 spec §7.5.  Includes a brute-force recovery scan
for documents with broken xref, like lopdf's repair path.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .filters import decode_stream
from .lexer import Lexer, parse_indirect_object
from .objects import (NULL, Name, PdfError, PdfNull, Ref, Stream, get_dict,
                      get_int, maybe_deref, maybe_get_obj)

ObjectId = Tuple[int, int]

# one spec-layout xref entry: 10-digit offset, 5-digit gen, n/f, 2-byte
# EOL drawn from (SP CR, SP LF, CR LF) — PDF 32000-1 §7.5.4
_XREF_ENT20 = re.compile(rb"(\d{10}) (\d{5}) ([nf])[ \r\n]{2}")


class Document:
    """Parsed PDF: object store with lazy object-stream expansion.

    API mirrors what the extraction layer needs from lopdf:
    `get_object`, `trailer`, `get_pages`, `get_page_content`,
    `is_encrypted`, `decrypt`.
    """

    def __init__(self, buf: bytes):
        if not isinstance(buf, (bytes, bytearray, memoryview)):
            raise PdfError("document buffer must be bytes")
        self.buf = bytes(buf)
        self.trailer: dict = {}
        # obj num -> ("n", offset, gen) | ("c", objstm_num, index)
        self._xref: Dict[int, tuple] = {}
        self._cache: Dict[int, object] = {}
        self._objstm_cache: Dict[int, Dict[int, object]] = {}
        self._crypt = None
        self._recovered = False
        self.version = "1.4"
        self._parse()

    # -- loading -----------------------------------------------------------

    def _parse(self) -> None:
        buf = self.buf
        if not buf.startswith(b"%PDF-"):
            idx = buf.find(b"%PDF-")
            if idx < 0 or idx > 1024:
                raise PdfError("not a PDF: missing %PDF- header")
            buf = buf[idx:]
            self.buf = buf
        eol = buf.find(b"\n", 0, 32)
        if eol > 5:
            self.version = buf[5:eol].strip(b"\r ").decode("latin-1", "replace")
        try:
            self._parse_xref_chain()
            if b"Root" not in self.trailer:
                raise PdfError("no Root in trailer")
        except Exception:
            self._recover_scan()
        if b"Root" not in self.trailer:
            raise PdfError("no document catalog")

    def _parse_xref_chain(self) -> None:
        buf = self.buf
        idx = buf.rfind(b"startxref")
        if idx < 0:
            raise PdfError("no startxref")
        lx = Lexer(buf, idx + len(b"startxref"))
        lx.skip_ws()
        tok = lx.read_regular_token()
        if not tok.isdigit():
            raise PdfError("bad startxref offset")
        offset = int(tok)
        seen = set()
        while offset and offset not in seen:
            seen.add(offset)
            offset = self._parse_xref_section(offset, seen)

    def _parse_xref_section(self, offset: int, seen: set) -> Optional[int]:
        """Parse one xref section (table or stream) at `offset`.
        Returns the /Prev offset, or None."""
        if offset < 0 or offset >= len(self.buf):
            raise PdfError("xref offset out of range")
        lx = Lexer(self.buf, offset)
        lx.skip_ws()
        save = lx.pos
        tok = lx.read_regular_token()
        if tok == b"xref":
            trailer = self._parse_xref_table(lx)
        else:
            lx.pos = save
            (_num, _gen), obj = parse_indirect_object(lx, self)
            if not isinstance(obj, Stream):
                raise PdfError("xref section is neither table nor stream")
            trailer = obj.dict
            self._parse_xref_stream(obj)
        for k, v in trailer.items():
            self.trailer.setdefault(k, v)
        # hybrid-reference file: the xref stream offset lives in /XRefStm
        xrefstm = trailer.get(b"XRefStm")
        if isinstance(xrefstm, int) and xrefstm not in seen:
            seen.add(xrefstm)
            try:
                self._parse_xref_section(xrefstm, seen)
            except PdfError:
                pass
        prev = trailer.get(b"Prev")
        return prev if isinstance(prev, int) else None

    def _parse_xref_table(self, lx: Lexer) -> dict:
        while True:
            lx.skip_ws()
            tok = lx.read_regular_token()
            if tok == b"trailer":
                trailer = lx.parse_object()
                if not isinstance(trailer, dict):
                    raise PdfError("bad trailer")
                return trailer
            if not tok.isdigit():
                raise PdfError(f"bad xref subsection header {tok!r}")
            start = int(tok)
            lx.skip_ws()
            count_tok = lx.read_regular_token()
            if not count_tok.isdigit():
                raise PdfError("bad xref count")
            count = int(count_tok)
            lx.skip_ws()
            # strict 20-byte-record fast path (the spec layout virtually
            # every writer emits): one C regex pass over the subsection
            # instead of 3 token reads per entry
            block = lx.buf[lx.pos:lx.pos + 20 * count]
            ents: list = []
            if len(block) == 20 * count:
                mt = _XREF_ENT20.match
                for i in range(count):
                    m = mt(block, 20 * i)
                    if m is None:  # misaligned record: token fallback
                        ents = []
                        break
                    ents.append(m.groups())
            if count and len(ents) == count:
                xref = self._xref
                for i, (off_tok, gen_tok, kind) in enumerate(ents):
                    num = start + i
                    if kind == b"n" and num not in xref:
                        xref[num] = ("n", int(off_tok), int(gen_tok))
                lx.pos += 20 * count
                continue
            for i in range(count):
                # lenient fallback: token-by-token.  A corrupt count (a
                # flipped digit can claim 10^15 entries) must not spin
                # here: empty tokens mean the lexer stopped advancing
                # (EOF or a delimiter), so the table is truncated — bail.
                lx.skip_ws()
                off_tok = lx.read_regular_token()
                lx.skip_ws()
                gen_tok = lx.read_regular_token()
                lx.skip_ws()
                kind = lx.read_regular_token()
                if not kind:
                    raise PdfError("truncated xref subsection")
                num = start + i
                if kind == b"n" and num not in self._xref:
                    self._xref[num] = ("n", int(off_tok), int(gen_tok))

    def _parse_xref_stream(self, stm: Stream) -> None:
        d = stm.dict
        data = decode_stream(stm, self)
        w = [maybe_deref(self, x) for x in d.get(b"W", [])]
        if len(w) < 3 or not all(isinstance(x, int) for x in w):
            raise PdfError("bad W in xref stream")
        w1, w2, w3 = w[0], w[1], w[2]
        # all-zero/negative widths would make the entry cursor never
        # advance below — a corrupt count then spins forever (same
        # pattern as the xref-table fallback bail)
        if w1 < 0 or w2 < 0 or w3 < 0 or w1 + w2 + w3 <= 0:
            raise PdfError("bad W widths in xref stream")
        size = get_int(self, d, b"Size")
        index = d.get(b"Index")
        if isinstance(index, list) and len(index) % 2 == 0:
            pairs = [(int(index[i]), int(index[i + 1])) for i in range(0, len(index), 2)]
        else:
            pairs = [(0, size or 0)]
        esize = w1 + w2 + w3
        pos = 0
        for start, count in pairs:
            for i in range(count):
                if pos + esize > len(data):
                    return
                e = data[pos:pos + esize]
                pos += esize
                f1 = int.from_bytes(e[:w1], "big") if w1 else 1
                f2 = int.from_bytes(e[w1:w1 + w2], "big")
                f3 = int.from_bytes(e[w1 + w2:esize], "big")
                num = start + i
                if num in self._xref:
                    continue
                if f1 == 1:
                    self._xref[num] = ("n", f2, f3)
                elif f1 == 2:
                    self._xref[num] = ("c", f2, f3)
                # type 0 = free: skip

    def _recover_scan(self) -> None:
        """Brute-force: scan the body for `N G obj` headers; rebuild xref.
        Later occurrences win (approximating incremental updates)."""
        import re
        self._xref.clear()
        for m in re.finditer(rb"(?m)(\d+)[\x00\t\x0c ]+(\d+)[\x00\t\x0c ]+obj\b", self.buf):
            num, gen = int(m.group(1)), int(m.group(2))
            self._xref[num] = ("n", m.start(), gen)
        trailer_idx = self.buf.rfind(b"trailer")
        if trailer_idx >= 0:
            lx = Lexer(self.buf, trailer_idx + len(b"trailer"))
            try:
                t = lx.parse_object()
                if isinstance(t, dict):
                    for k, v in t.items():
                        self.trailer.setdefault(k, v)
            except PdfError:
                pass
        # xref-stream layouts have no `trailer` keyword: harvest the
        # trailer fields (Root/Info/Encrypt/ID/Size) from any /Type /XRef
        # stream found in the scan — later (newer) occurrences win among
        # the streams, but keys the literal trailer already provided are
        # NOT clobbered (it may be the newest appended revision).  Only
        # type-'n' entries carry byte offsets; 'c' entries (objstm ids)
        # must not enter the offset sort.
        harvest: dict = {}
        for num in sorted(
                (n for n in self._xref if self._xref[n][0] == "n"),
                key=lambda n: self._xref[n][1]):
            try:
                obj = self.get_object(Ref(num, 0))
            except Exception:
                continue
            if isinstance(obj, Stream) and obj.dict.get(b"Type") == b"XRef":
                for k in (b"Root", b"Info", b"Encrypt", b"ID", b"Size"):
                    if k in obj.dict:
                        harvest[k] = obj.dict[k]
        for k, v in harvest.items():
            self.trailer.setdefault(k, v)
        if b"Root" not in self.trailer:
            # look for an object with /Type /Catalog
            for num in list(self._xref):
                try:
                    obj = self.get_object(Ref(num, 0))
                except PdfError:
                    continue
                if isinstance(obj, dict) and obj.get(b"Type") == b"Catalog":
                    self.trailer[b"Root"] = Ref(num, 0)
                    break
        # also index objects hidden in object streams
        self._recovered = True
        self._index_objstms()

    def _index_objstms(self) -> None:
        """Add ("c", objstm, idx) xref entries for every object found
        inside an ObjStm.  Runs at recovery time and AGAIN after
        decryption (an encrypted ObjStm cannot be expanded before the
        file key exists, so the first pass silently skips it)."""
        for num in list(self._xref):
            if self._xref[num][0] != "n":
                continue
            try:
                obj = self.get_object(Ref(num, 0))
            except PdfError:
                continue
            if isinstance(obj, Stream) and obj.dict.get(b"Type") == b"ObjStm":
                try:
                    objs = self._load_objstm(num)
                except Exception:
                    continue
                for i, inner_num in enumerate(objs):
                    self._xref.setdefault(inner_num, ("c", num, i))

    # -- object access -----------------------------------------------------

    def get_object(self, ref) -> object:
        """Resolve an object by Ref or (num, gen) tuple.  Returns None
        when the xref has no entry for it, or when the object at its
        offset does not parse or carries another number; raises
        PdfError for an argument that is not a reference, and when the
        object stream holding a compressed object cannot be read."""
        if isinstance(ref, Ref):
            num = ref.num
        elif isinstance(ref, tuple):
            num = ref[0]
        else:
            raise PdfError(f"bad reference {ref!r}")
        if num in self._cache:
            return self._cache[num]
        entry = self._xref.get(num)
        if entry is None:
            return None
        if entry[0] == "n":
            lx = Lexer(self.buf, entry[1])
            try:
                (pnum, _pgen), obj = parse_indirect_object(lx, self)
            except PdfError:
                return None
            if pnum != num:
                # stale offset; try recovery by scanning
                return None
            if self._crypt is not None:
                from .crypt import decrypt_object
                obj = decrypt_object(self._crypt, obj, pnum, _pgen)
            self._cache[num] = obj
            return obj
        # compressed object
        objstm_num, idx = entry[1], entry[2]
        objs = self._load_objstm(objstm_num)
        obj = objs.get(num, None)
        self._cache[num] = obj
        return obj

    def _load_objstm(self, objstm_num: int) -> Dict[int, object]:
        cached = self._objstm_cache.get(objstm_num)
        if cached is not None:
            return cached
        entry = self._xref.get(objstm_num)
        if entry is None or entry[0] != "n":
            raise PdfError(f"missing object stream {objstm_num}")
        lx = Lexer(self.buf, entry[1])
        (pnum, pgen), stm = parse_indirect_object(lx, self)
        if not isinstance(stm, Stream):
            raise PdfError("ObjStm is not a stream")
        if self._crypt is not None:
            # the ObjStm container is encrypted like any stream; objects
            # INSIDE it are not separately encrypted (PDF spec 7.5.7 —
            # strings in object streams get no per-object crypt), so the
            # plain parse below is correct
            from .crypt import decrypt_object
            stm = decrypt_object(self._crypt, stm, pnum, pgen)
        data = decode_stream(stm, self)
        n = get_int(self, stm.dict, b"N") or 0
        first = get_int(self, stm.dict, b"First") or 0
        head = Lexer(data, 0, first)
        pairs: List[Tuple[int, int]] = []
        for _ in range(n):
            head.skip_ws()
            num_tok = head.read_regular_token()
            head.skip_ws()
            off_tok = head.read_regular_token()
            if not num_tok.isdigit() or not off_tok.isdigit():
                break
            pairs.append((int(num_tok), int(off_tok)))
        out: Dict[int, object] = {}
        for num, off in pairs:
            try:
                out[num] = Lexer(data, first + off).parse_object()
            except PdfError:
                out[num] = NULL
        self._objstm_cache[objstm_num] = out
        return out

    # -- encryption --------------------------------------------------------

    def is_encrypted(self) -> bool:
        return b"Encrypt" in self.trailer

    def decrypt(self, password: str = "") -> None:
        from .crypt import decrypt_document
        decrypt_document(self, password)

    # -- page tree ---------------------------------------------------------

    def get_root(self) -> dict:
        root = maybe_get_obj(self, self.trailer, b"Root")
        if not isinstance(root, dict):
            raise PdfError("bad catalog")
        return root

    def get_pages(self) -> Dict[int, Ref]:
        """page_num (1-based) -> page object Ref, in page-tree order
        (lopdf `Document::get_pages` equivalent)."""
        out: Dict[int, Ref] = {}
        counter = 0
        seen = set()
        # explicit DFS stack (preorder): a pathological 100k-deep tree
        # must not blow the Python recursion limit
        stack = [self.get_root().get(b"Pages")]
        while stack:
            node_ref = stack.pop()
            if isinstance(node_ref, Ref):
                if node_ref.num in seen:
                    continue
                seen.add(node_ref.num)
                node = self.get_object(node_ref)
            else:
                node = node_ref
            if not isinstance(node, dict):
                continue
            t = node.get(b"Type")
            kids = maybe_get_obj(self, node, b"Kids")
            if (t == b"Pages" or (t is None and isinstance(kids, list))) \
                    and isinstance(kids, list):
                stack.extend(reversed(kids))
            elif t == b"Page" or t is None:
                counter += 1
                if isinstance(node_ref, Ref):
                    out[counter] = node_ref
        return out

    def get_page_content(self, page_ref: Ref) -> bytes:
        """Concatenated decoded content streams of a page (lopdf
        `get_page_content`: multiple streams joined; we join with a
        newline per the spec's implied whitespace between them)."""
        page = self.get_object(page_ref)
        if not isinstance(page, dict):
            raise PdfError("bad page object")
        contents = maybe_get_obj(self, page, b"Contents")
        if contents is None:
            return b""
        if isinstance(contents, Stream):
            return _contents_bytes(contents, self)
        if isinstance(contents, list):
            parts = []
            for c in contents:
                c = maybe_deref(self, c)
                if isinstance(c, Stream):
                    parts.append(_contents_bytes(c, self))
            return b"\n".join(parts)
        return b""


def _contents_bytes(stm: Stream, doc) -> bytes:
    """get_contents semantics (reference src/lib.rs:1255-1261): decoded if
    the filter chain parses, raw on decode failure."""
    try:
        return decode_stream(stm, doc)
    except Exception:
        return stm.raw


def load_document(buf: bytes) -> Document:
    return Document(buf)
