"""The text path makes no audited builtin call per string.

`import ray` imports filelock, which installs an audit hook
(`sys.addaudithook`); from then on every audited builtin call in the
process runs the hook: `id()` costs ~0.5 us instead of ~0.05 us, and so
does `array.array()`.  `SpanTextOutput` finds a run's advance table by
identity with the last run's and calls `id()` only when the table
changes, and allocates its buffers once per document.  A subprocess
(an audit hook cannot be removed) counts the `builtins.id` and
`array.__new__` events of extracting and placing one page of 100
strings and of 200 strings: the counts must not grow with the strings.
"""
import ast
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = r"""
import collections, sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/tools"]
import glyph_reference as G
from pdf_extract_ray.engine.api import extract_text_and_span_columns_from_mem
from pdf_extract_ray.engine.devices import place_text

def page(n, fonts):
    lines = " ".join(f"/{fonts[i % len(fonts)]} 10 Tf 0 -12 Td <{i:04x}> Tj"
                     for i in range(n))
    return G.page_pdf(f"BT 72 760 Td {lines} ET".encode())

counts = collections.Counter()

def hook(event, args):
    if event in ("builtins.id", "array.__new__"):
        counts[event] += 1

pdfs = [(fonts, n, page(n, fonts)) for fonts in (("F1",), ("F1", "F2"))
        for n in (100, 200)]
for _fonts, _n, pdf in pdfs:  # warm: imports, font tables
    place_text([extract_text_and_span_columns_from_mem(pdf)])
sys.addaudithook(hook)
out = []
for fonts, n, pdf in pdfs:
    counts.clear()
    place_text([extract_text_and_span_columns_from_mem(pdf)])
    out.append((fonts, n, dict(counts)))
print(out)
"""


def test_audited_calls_do_not_grow_with_strings():
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(REPO)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = ast.literal_eval(res.stdout.strip().splitlines()[-1])
    by_page = {}
    for fonts, n, counts in out:
        by_page.setdefault(fonts, {})[n] = counts
    for fonts, runs in by_page.items():
        # one text state for all strings, or a Tf before each one
        assert runs[100] == runs[200], (fonts, runs)
        assert runs[200].get("array.__new__", 0) < 20, (fonts, runs)
