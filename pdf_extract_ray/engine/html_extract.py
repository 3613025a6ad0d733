"""HTML main-content extraction: DOM-block text-density boilerplate strip.

The graft-mandated fallback branch (SURVEY.md §2.2 P10) for rows whose
payload is HTML rather than PDF.  Method follows the public literature
(jusText / Boilerpipe): segment the DOM into blocks at block-level tags,
score each block by text length, link density and stopword-ish ratio, keep
blocks classified as content, join with blank lines.  Deterministic, pure
stdlib (html.parser), no network.
"""
from __future__ import annotations

import re
from html.parser import HTMLParser
from typing import List, Optional

BLOCK_TAGS = frozenset([
    "p", "div", "section", "article", "main", "td", "li", "blockquote",
    "pre", "h1", "h2", "h3", "h4", "h5", "h6", "body",
])
SKIP_TAGS = frozenset(["script", "style", "noscript", "template", "svg", "head"])
BOILERPLATE_TAGS = frozenset(["nav", "header", "footer", "aside", "form", "menu"])
_VOID_TAGS = frozenset(["br", "hr", "img", "input", "meta", "link", "area",
                        "base", "col", "embed", "source", "track", "wbr"])

_WS_RE = re.compile(r"\s+")

# a tiny function-word list; enough signal for the density heuristic without
# shipping a per-language stopword corpus
_STOPWORDS = frozenset("""
the a an and or of to in is are was were for with on at by from as it this
that be not have has had but they you we he she i his her its their our your
der die das und ist ein eine im mit von zu den des le la les et de un une
est en du au pour que el los las y es se del por un una lo em que nem az és
""".split())


class _Block:
    __slots__ = ("text_parts", "link_chars", "boiler")

    def __init__(self, boiler: bool):
        self.text_parts: List[str] = []
        self.link_chars = 0
        self.boiler = boiler

    @property
    def text(self) -> str:
        return _WS_RE.sub(" ", "".join(self.text_parts)).strip()


class _Segmenter(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: List[_Block] = []
        self._cur: Optional[_Block] = None
        self._skip_depth = 0
        self._boiler_depth = 0
        self._link_depth = 0
        self._title_parts: List[str] = []
        self._in_title = False

    def _flush(self) -> None:
        if self._cur is not None and self._cur.text_parts:
            self.blocks.append(self._cur)
        self._cur = None

    def _ensure(self) -> _Block:
        if self._cur is None:
            self._cur = _Block(self._boiler_depth > 0)
        return self._cur

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag in _VOID_TAGS:
            return
        if tag == "title":
            self._in_title = True
            return
        if tag in SKIP_TAGS:
            self._skip_depth += 1
            return
        if tag in BOILERPLATE_TAGS:
            self._flush()
            self._boiler_depth += 1
            return
        if tag == "a":
            self._link_depth += 1
            return
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag == "title":
            self._in_title = False
            return
        if tag in SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag in BOILERPLATE_TAGS:
            self._flush()
            self._boiler_depth = max(0, self._boiler_depth - 1)
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
            return
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self._title_parts.append(data)
            return
        if not data or data.isspace():
            if self._cur is not None:
                self._cur.text_parts.append(" ")
            return
        blk = self._ensure()
        blk.text_parts.append(data)
        if self._link_depth:
            blk.link_chars += len(data)


def _score_block(b: _Block, text: str) -> bool:
    """Content / boilerplate decision for one block (text passed in so
    the _WS_RE normalization runs once per block, not per use)."""
    n = len(text)
    if n == 0:
        return False
    if b.boiler:
        return False
    link_density = b.link_chars / n
    if link_density > 0.5:
        return False
    words = text.split()
    n_words = len(words)
    if n_words < 3:
        return False
    if n >= 120 and link_density < 0.33:
        return True
    # short blocks need linguistic signal: stopwords present, plausible
    # words (the stopword scan is skipped for long blocks above — pure
    # evaluation reordering, the decision is unchanged)
    stop_ratio = sum(1 for w in words
                     if w.lower().strip(".,;:!?\"'()") in _STOPWORDS) / n_words
    avg_word = n / n_words
    return stop_ratio >= 0.15 and avg_word < 12 and link_density < 0.33


class _FastBail(Exception):
    """Input left the fast tokenizer's verified-identical subset."""


# Fast-path token regexes.  Every string _FAST_START matches is parsed
# with the SAME boundaries and events by html.parser's tolerant regexes
# (tagfind/attrfind/locatestarttagend_tolerant): the tag-name charset is
# a subset of the tolerant one, each attribute requires the whitespace
# separation the tolerant lookbehind demands, quoted values are the
# identical "[^"]*" forms, and the unquoted value form is exactly the
# tolerant (?!['"])[^>\s]+ consumption.  Anything outside the subset
# (junk before '>', slash separators, exotic names, marked sections,
# unterminated constructs) raises _FastBail and the document re-parses
# from scratch with the stdlib parser — so outputs can never diverge on
# inputs the fast path does not provably share.  Differential tests
# compare event streams against HTMLParser across the generator + fuzz
# corpora.
_FAST_START = re.compile(
    r'<([a-zA-Z][a-zA-Z0-9:._-]*)'
    r'((?:\s+[^\s/>][^\s/=>]*(?:\s*=+\s*'
    r'(?:"[^"]*"|\'[^\']*\'|(?!["\'])[^>\s]+))?)*)'
    r'\s*(/?)>')
_FAST_END = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')
_COMMENT_CLOSE = re.compile(r'--\s*>')
_DOCTYPE_RE = re.compile(r'<!doctype[^>\[]*>', re.I)
_CDATA_CLOSE = {
    "script": re.compile(r'</\s*script\s*>', re.I),
    "style": re.compile(r'</\s*style\s*>', re.I),
}


def _fast_feed(seg: _Segmenter, s: str) -> None:
    """Emit html.parser's event stream (convert_charrefs=True, whole
    input + EOF) into `seg` ~3x faster than HTMLParser.feed; raises
    _FastBail on any construct outside the verified subset."""
    from html import unescape
    i, n = 0, len(s)
    cdata: Optional[str] = None
    hd = seg.handle_data
    while i < n:
        if cdata is not None:
            m = _CDATA_CLOSE[cdata].search(s, i)
            if m is None:
                return  # unterminated script/style: stdlib drops the tail
            if i < m.start():
                hd(s[i:m.start()])
            seg.handle_endtag(cdata)
            cdata = None
            i = m.end()
            continue
        j = s.find('<', i)
        if j < 0:
            hd(unescape(s[i:n]))
            return
        if i < j:
            hd(unescape(s[i:j]))
        i = j
        c = s[i + 1] if i + 1 < n else ''
        if ('a' <= c <= 'z') or ('A' <= c <= 'Z'):
            m = _FAST_START.match(s, i)
            if m is None:
                raise _FastBail
            tag = m.group(1).lower()
            if m.group(3):
                seg.handle_starttag(tag, [])
                seg.handle_endtag(tag)
            else:
                seg.handle_starttag(tag, [])
                if tag in _CDATA_CLOSE:
                    cdata = tag
            i = m.end()
        elif c == '/':
            m = _FAST_END.match(s, i)
            if m is None:
                raise _FastBail
            seg.handle_endtag(m.group(1).lower())
            i = m.end()
        elif c == '!':
            if s.startswith('<!--', i):
                m = _COMMENT_CLOSE.search(s, i + 4)
                if m is None:
                    raise _FastBail  # unterminated comment: odd fallback
                i = m.end()
            elif s.startswith('<![', i):
                raise _FastBail  # marked section: ]]>-scanning rules
            else:
                m = _DOCTYPE_RE.match(s, i)
                if m is not None:
                    i = m.end()
                else:
                    if s[i:i + 9].lower() == '<!doctype':
                        raise _FastBail  # doctype with internal subset
                    p = s.find('>', i + 2)  # bogus comment: skip to '>'
                    if p < 0:
                        raise _FastBail
                    i = p + 1
        elif c == '?':
            p = s.find('>', i + 2)  # processing instruction
            if p < 0:
                raise _FastBail
            i = p + 1
        else:
            if i + 1 < n:
                hd('<')  # lone '<': literal data (raw, not unescaped)
                i += 1
            else:
                # goahead's EOF flush emits the trailing '<' as data
                hd(unescape(s[i:n]))
                return


# <meta charset="X"> or <meta http-equiv=... content="...;charset=X">,
# case-insensitive, scanned in the head region only (WHATWG prescan)
_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([A-Za-z0-9_.:-]+)""",
    re.IGNORECASE)


def _decode_html(payload: bytes) -> str:
    """WHATWG-style decode: honor a declared <meta charset> from the
    first 2 KiB when Python knows the codec (errors='replace' — a lying
    declaration must not crash the crawl); else UTF-8 when valid; else
    latin-1 with replacement (total, never raises)."""
    m = _CHARSET_RE.search(payload[:2048])
    if m:
        name = m.group(1).decode("ascii", "replace").lower()
        if name not in ("utf-8", "utf8"):
            try:
                return payload.decode(name, "replace")
            except LookupError:
                pass
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1", "replace")


def extract_html_text(payload: bytes) -> str:
    """bytes (HTML) -> main-content text. Never raises on malformed input."""
    text = _decode_html(payload)
    seg = _Segmenter()
    try:
        _fast_feed(seg, text)
    except Exception:  # _FastBail or anything else: full stdlib reparse
        seg = _Segmenter()
        try:
            seg.feed(text)
            seg.close()
        except Exception:
            pass  # html.parser is tolerant; belt and braces
    seg._flush()
    kept = []
    for b in seg.blocks:
        text = b.text
        if _score_block(b, text):
            kept.append(text)
    return "\n\n".join(kept)


_PDF_MAGIC = b"%PDF-"


def sniff_payload(payload: bytes) -> str:
    """Classify a raw payload: 'pdf' | 'html' | 'empty' | 'other'."""
    if not payload:
        return "empty"
    head = payload[:1024]
    if _PDF_MAGIC in head:
        return "pdf"
    low = head.lstrip()[:256].lower()
    if (low.startswith(b"<!doctype html") or low.startswith(b"<html")
            or b"<html" in head.lower() or b"<body" in head.lower()
            or low.startswith(b"<head") or low.startswith(b"<?xml")):
        return "html"
    return "other"


_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title", re.IGNORECASE | re.DOTALL)


def extract_title(payload: bytes) -> str:
    """First <title> text (entity-unescaped, whitespace-collapsed), ""
    when absent — the crawl-metadata companion to extract_html_text.
    Total on malformed input."""
    from html import unescape
    text = _decode_html(payload)
    m = _TITLE_RE.search(text)
    if not m:
        return ""
    return _WS_RE.sub(" ", unescape(m.group(1))).strip()
