#!/usr/bin/env python
"""Same-process CPU A/B of the extraction UDF against another checkout.

Imports this checkout's `pdf_extract_ray` and OTHER_CHECKOUT's in one
process, as two packages (`pep_this`, `pep_other`: symlinks in a temp
dir, which works because the imports inside the package are relative;
no bytecode is written, so neither checkout changes).  Both run
`ExtractBatch(with_spans=True)` in 64-row batches over a perfbench
workload's generated rows (`perfbench/gen.py`), and their output rows
must be equal.  Then the two sides take turns, warm, which one goes
first alternating by round, and the tool prints each side's median CPU
seconds per pass, the this/other ratio and how many rounds this side
won.  Alternated passes in one process see the same host phase, which
separate benchmark processes do not.

Usage:
    python tools/inproc_ab.py ../parent --workload crawl_mix --seed 3 \\
        --rounds 30 [--layer spans]

`--layer udf` (the default) times whole UDF passes; `--layer spans`
times `pipelines.extract._build_spans_array` alone, over the
geometries each side built in the check pass.
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="the other checkout's root")
    ap.add_argument("--workload", required=True,
                    help="perfbench workload name")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--layer", choices=("udf", "spans"), default="udf")
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
            udf, build, geometries = (extract.ExtractBatch(with_spans=True),
                                      extract._build_spans_array, [])
            # the check pass records each batch's geometries
            extract._build_spans_array = (
                lambda g, build=build, seen=geometries:
                seen.append(g) or build(g))
            rows = [repr(udf(b).to_pylist()) for b in batches]
            extract._build_spans_array = build
            if args.layer == "udf":
                def run(udf=udf):
                    for b in batches:
                        udf(b)
            else:
                def run(build=build, geometries=geometries):
                    for g in geometries:
                        build(g)
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
    print(f"layer={args.layer} workload={args.workload} seed={args.seed} "
          f"rounds={args.rounds}: this {this:.4f} s, other {other:.4f} s "
          f"(median CPU per pass), ratio {this / other:.3f}, "
          f"wins {wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
