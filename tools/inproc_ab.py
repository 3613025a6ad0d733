#!/usr/bin/env python
"""Same-process CPU A/B of the extraction UDF or the text API against
another checkout.

Imports this checkout's `pdf_extract_ray` and OTHER_CHECKOUT's in one
process, as two packages (`pep_this`, `pep_other`: symlinks in a temp
dir, which works because the imports inside the package are relative;
no bytecode is written, so neither checkout changes).  Both run
`ExtractBatch(with_spans=True)` (`--no-spans`: `with_spans=False`, the
textprep/ccprep/crawlprep path) in 64-row batches over a perfbench
workload's generated rows (`perfbench/gen.py`), and their output rows
must be equal.  Then the two sides take turns, warm, which one goes
first alternating by round, and the tool prints each side's median CPU
seconds per pass, the this/other ratio and how many rounds this side
won.  Alternated passes in one process see the same host phase, which
separate benchmark processes do not.

Usage:
    python tools/inproc_ab.py ../parent --workload crawl_mix --seed 3 \\
        --rounds 30 [--layer spans|api] [--no-spans]

`--layer udf` (the default) times whole UDF passes; `--layer spans`
times `pipelines.extract._build_spans_array` alone, called as the UDF
called it in the check pass (the batch resolve: text placement and the
span columns; a checkout from before text placement moved there only
builds the span columns in it).  `--layer api` times the public API
instead: `engine.api.extract_text_from_mem` and
`extract_text_from_mem_by_pages` over the workload's PDF rows (its
`PlainTextOutput` path, which the pipeline does not run); the texts,
and the exceptions of rows that raise, must be equal.

The host moves a ratio by a few percent either way: an A/A run (this
checkout on both sides) and a run with the sides swapped belong next to
any claim that rests on this tool.
"""
import argparse
import gc
import os
import statistics
import sys
import tempfile
import time
from importlib import import_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH_ROWS = 64


def _load(pkg_dir: str, name: str, tmp: str):
    """`pkg_dir` imported as package `name` -> its pipelines.extract."""
    os.symlink(os.path.abspath(pkg_dir), os.path.join(tmp, name))
    return import_module(f"{name}.pipelines.extract")


def _api_side(pkg: str, table):
    """(each PDF row's API outputs, a pass over them) for package `pkg`:
    the text of `extract_text_from_mem` and the page texts of
    `extract_text_from_mem_by_pages`, or the exception each raises."""
    api = import_module(f"{pkg}.engine.api")
    sniff = import_module(f"{pkg}.engine.html_extract").sniff_payload
    pdfs = [p for p in table.column("html").to_pylist()
            if sniff(p or b"") == "pdf"]

    def run():
        out = []
        for pdf in pdfs:
            row = []
            for fn in (api.extract_text_from_mem,
                       api.extract_text_from_mem_by_pages):
                try:
                    row.append(fn(pdf))
                except Exception as e:
                    row.append(f"{type(e).__name__}: {e}")
            out.append(repr(row))
        return out
    return run(), run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="the other checkout's root")
    ap.add_argument("--workload", required=True,
                    help="perfbench workload name")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--layer", choices=("udf", "spans", "api"),
                    default="udf")
    ap.add_argument("--no-spans", action="store_true",
                    help="run ExtractBatch(with_spans=False)")
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]
    import gen
    table = gen.pages_table(gen.make_rows(args.workload, args.seed),
                            args.seed).select(["url", "html"])
    batches = [table.slice(off, BATCH_ROWS)
               for off in range(0, table.num_rows, BATCH_ROWS)]

    sides = {}
    with tempfile.TemporaryDirectory(prefix="inproc_ab_") as tmp:
        sys.path.insert(0, tmp)
        for name, root in (("this", ROOT), ("other", args.other)):
            extract = _load(os.path.join(root, "pdf_extract_ray"),
                            f"pep_{name}", tmp)
            if args.layer == "api":
                sides[name] = _api_side(f"pep_{name}", table)
                continue
            udf = extract.ExtractBatch(with_spans=not args.no_spans)
            build, calls = extract._build_spans_array, []
            # the check pass records each batch's resolve call
            extract._build_spans_array = (
                lambda *a, build=build, seen=calls, **kw:
                seen.append((a, kw)) or build(*a, **kw))
            rows = [repr(udf(b).to_pylist()) for b in batches]
            extract._build_spans_array = build
            if args.layer == "udf":
                def run(udf=udf):
                    for b in batches:
                        udf(b)
            else:
                def run(build=build, calls=calls):
                    for a, kw in calls:
                        build(*a, **kw)
            sides[name] = (rows, run)
    if sides["this"][0] != sides["other"][0]:
        print("output rows differ", file=sys.stderr)
        return 1
    print(f"rows equal: {table.num_rows} rows in {len(batches)} batches")

    cpu = {"this": [], "other": []}
    for r in range(args.rounds):
        for name in (("this", "other") if r % 2 == 0 else ("other", "this")):
            gc.collect()
            t0 = time.process_time()
            sides[name][1]()
            cpu[name].append(time.process_time() - t0)
    wins = sum(a < b for a, b in zip(cpu["this"], cpu["other"]))
    this, other = statistics.median(cpu["this"]), statistics.median(cpu["other"])
    print(f"layer={args.layer} spans={not args.no_spans} "
          f"workload={args.workload} seed={args.seed} "
          f"rounds={args.rounds}: this {this:.4f} s, other {other:.4f} s "
          f"(median CPU per pass), ratio {this / other:.3f}, "
          f"wins {wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
