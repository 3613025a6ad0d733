#!/usr/bin/env python
"""Output-parity digest of the extraction UDF.

Runs `ExtractBatch(with_spans=True)` in 64-row batches over a perfbench
workload's generated rows, or over every `pdfgen.PDF_GENERATORS` fixture,
and prints one sha256 over `repr(to_pylist())` of the output columns
(url, extracted_text, spans, status, error).  Two checkouts that print the
same digest for the same input produced the same rows, float bits of the
span x/y/font_size included (`repr` tells -0.0 from 0.0; NaN payloads
are not compared).

Usage:
    python tools/parity_digest.py --workload large_pdfs --seed 2
    python tools/parity_digest.py --fixtures

The workload rows come from `perfbench/gen.py` (`make_rows`, `pages_table`),
which this tool imports and never modifies.
"""
import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

COLUMNS = ("url", "extracted_text", "spans", "status", "error")
BATCH_ROWS = 64


def _workload_table(workload: str, seed: int):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    return gen.pages_table(gen.make_rows(workload, seed), seed)


def _fixtures_table():
    import pyarrow as pa

    from pdf_extract_ray.data.pdfgen import PDF_GENERATORS
    names = sorted(PDF_GENERATORS)
    return pa.table({"url": names,
                     "html": pa.array([PDF_GENERATORS[n]() for n in names],
                                      pa.binary())})


def digest(table) -> str:
    """sha256 of the UDF's output rows over `table` (url, html, ...)."""
    from pdf_extract_ray.pipelines.extract import ExtractBatch
    udf = ExtractBatch(with_spans=True)
    h = hashlib.sha256()
    for off in range(0, table.num_rows, BATCH_ROWS):
        out = udf(table.slice(off, BATCH_ROWS).select(["url", "html"]))
        h.update(repr(out.select(list(COLUMNS)).to_pylist()).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--workload", help="perfbench workload name")
    src.add_argument("--fixtures", action="store_true",
                     help="every pdfgen.PDF_GENERATORS fixture")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    table = (_fixtures_table() if args.fixtures
             else _workload_table(args.workload, args.seed))
    print(digest(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
