"""tools/parity_digest.py: the output-parity digest an engine change is
checked with (one sha256 over the UDF's url/text/spans/status/error rows).
"""
import importlib.util
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

# The digest of every pdfgen.PDF_GENERATORS fixture.  It pins the text
# AND every span (page, offsets, float bits of x/y/font_size): a change
# that moves it changes the pipeline's output.
FIXTURES_DIGEST = ("2b53ffab2b2b3a6dca5103ab934d8792"
                   "861c60bda05e51757a6124ea3844f383")


def _tool():
    spec = importlib.util.spec_from_file_location(
        "parity_digest", REPO / "tools" / "parity_digest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# The digests of the benchmark's workloads (perfbench/gen.py rows, seed
# 1): 2,000 crawl_mix rows and the large_pdfs documents (~9 s together).
WORKLOAD_DIGESTS = {
    "crawl_mix": ("fefccd24246fd936720ca2b9097934d8"
                  "21163031b1bbf2bfa767b6ce572e2f98"),
    "large_pdfs": ("d229e86420807479cf0f618b30347671"
                   "6583bda24e1b301c51826c314c9f171f"),
}


def test_fixtures_digest(capsys):
    assert _tool().main(["--fixtures"]) == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"[0-9a-f]{64}", out), out
    assert out == FIXTURES_DIGEST


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_workload_digest(workload, capsys):
    assert _tool().main(["--workload", workload, "--seed", "1"]) == 0
    assert capsys.readouterr().out.strip() == WORKLOAD_DIGESTS[workload]


def test_digest_sees_a_moved_span():
    """Moving a line by half a point keeps the text and changes the
    digest: the spans' float bits are part of it."""
    import pyarrow as pa

    from pdf_extract_ray.data.pdfgen import pdf_simple_helvetica
    from pdf_extract_ray.engine import extract_text_from_mem
    pdf = pdf_simple_helvetica()
    moved = pdf.replace(b"72 720 Td", b"72 720.5 Td")
    assert moved != pdf
    assert extract_text_from_mem(moved) == extract_text_from_mem(pdf)
    tool = _tool()
    digests = [tool.digest(pa.table({"url": ["a"],
                                     "html": pa.array([p], pa.binary())}))
               for p in (pdf, moved)]
    assert digests[0] != digests[1]
