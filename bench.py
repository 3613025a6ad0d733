#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and print ONE JSON line:
    {"metric": ..., "value": secs, "unit": "sec", "queries": {...},
     "sf": ..., "num_cpus": N}

--scaling: run the headline extraction in FRESH processes at N and 4N
CPUs (default 3 and 12 — both inside the shared host's real capacity;
override with GRAFT_SCALING_N / GRAFT_SCALING_4N, e.g. 8/32 on a quiet
host) on the same input and report both throughputs + scaling
efficiency (the sandbox stand-in for the N->4N-node criterion;
BASELINE.md records the results and the capacity analysis).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _num_cpus() -> int:
    return int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _sf_of(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return base[2:] if base.startswith("sf") else "0.1"


def _init_ray(num_cpus: int):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


def run_headline(sf_dir: str):
    """Flagship extraction over the synthetic pages table; consumed by an
    aggregate so the pipeline streams end-to-end.

    A warmup pass over one input shard spins up the Ray worker pool first
    (workers pay module imports once per process); the timed number is
    steady-state throughput, which is what the 100 TB scenario runs at.
    """
    import glob as _glob
    import __ray_entry__ as entrymod
    from pdf_extract_ray.pipelines.extract import extract_dataset, read_pages
    pages_dir = os.environ.get("GRAFT_PAGES_DIR_OVERRIDE") or entrymod._pages_dir(sf_dir)
    import pyarrow.compute as pc_

    def _consume(path):
        """Stream the full pipeline; tiny projected columns come back to
        the driver (a write_parquet stand-in without IO variance —
        Dataset.sum() itself costs seconds and would pollute the metric)."""
        result = extract_dataset(read_pages(path))
        proj = result.map_batches(
            lambda b: b.select(["payload_bytes", "n_chars"]),
            batch_format="pyarrow")
        rows = payload = chars = 0
        for b in proj.iter_batches(batch_format="pyarrow"):
            rows += b.num_rows
            payload += pc_.sum(b.column("payload_bytes")).as_py() or 0
            chars += pc_.sum(b.column("n_chars")).as_py() or 0
        return rows, payload, chars

    warm_file = sorted(_glob.glob(os.path.join(pages_dir, "*.parquet")))[0]
    for _ in range(2):  # warm the worker pool + code/object caches
        _consume(warm_file)
    t0 = time.perf_counter()
    rows, payload, _chars = _consume(pages_dir)
    dt = time.perf_counter() - t0
    payload_mb = payload / 1e6
    return {"secs": dt, "rows": rows, "docs_per_s": rows / dt,
            "payload_mb": payload_mb, "mb_per_s": payload_mb / dt}


def run_ops(sf_dir: str):
    """Secondary pipelines: the training-data operators.  Best-of-2 per
    op (two full interleaved passes) — the shared host has 2-5x wall-time
    swings and a single pass regularly records a load spike, not the
    engine."""
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    # extract_pages is the headline, which main_bench measures itself
    names = [n for n in qs if n != "extract_pages"]
    out = {}
    # soft wall budget: the first pass ALWAYS completes (every op gets a
    # measurement); the second best-of-2 pass stops when the budget is
    # spent so a growing op suite can't blow an external time limit
    budget = float(os.environ.get("GRAFT_BENCH_BUDGET", "900"))
    t_start = time.perf_counter()
    for _pass in range(2):
        for name in names:
            if _pass > 0 and time.perf_counter() - t_start > budget:
                print("bench: budget reached; keeping first-pass walls "
                      "for the remaining ops", file=sys.stderr)
                return out
            t0 = time.perf_counter()
            try:
                res = qs[name](sf_dir)
                # consume: Dataset -> full execution; Table is done
                if hasattr(res, "to_pandas") and hasattr(res, "iter_batches"):
                    n = 0
                    for b in res.iter_batches(batch_format="pyarrow"):
                        n += b.num_rows
            except Exception as e:  # record, don't lose the whole bench
                print(f"bench: {name} FAILED: {type(e).__name__}: "
                      f"{str(e)[:200]}", file=sys.stderr)
                out.setdefault(name, -1.0)
                continue
            dt = round(time.perf_counter() - t0, 3)
            if name not in out or out[name] < 0 or dt < out[name]:
                out[name] = dt
    return out


def main_bench(sf_dir: str, headline_only: bool = False) -> dict:
    num_cpus = _num_cpus()
    _init_ray(num_cpus)
    head = run_headline(sf_dir)
    head2 = run_headline(sf_dir)  # best-of-2: shared-host noise defense
    if head2["secs"] < head["secs"]:
        head = head2
    queries = {"extract_pages": round(head["secs"], 3)}
    if not headline_only:
        queries.update(run_ops(sf_dir))
    result = {
        "metric": "docs_per_sec_extracted",
        "value": round(head["secs"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": float(_sf_of(sf_dir)),
        "num_cpus": num_cpus,
        "extra": {
            "headline_rows": head["rows"],
            "docs_per_s": round(head["docs_per_s"], 1),
            "payload_mb": round(head["payload_mb"], 2),
            "mb_per_s": round(head["mb_per_s"], 2),
        },
    }
    return result


#  N and 4N CPUs, chosen to fit INSIDE the host's actually-available
#  capacity (~22 effective cores shared with other tenants; asking for
#  more than is free measures the neighbors, not the engine).  Override
#  via GRAFT_SCALING_N / GRAFT_SCALING_4N for quiet-host 8->32 runs.
SCALING_N = int(os.environ.get("GRAFT_SCALING_N", "3"))
SCALING_4N = int(os.environ.get("GRAFT_SCALING_4N", "12"))
SCALING_ROWS = 160000    # ~3 min of CPU: large enough to amortize fixed
                         # per-run overhead, the regime a real job runs in


def main_scaling(sf_dir: str) -> dict:
    """Same job, fresh processes, N and 4N CPUs on the same input
    (sandbox stand-in for the N->4N-node criterion).  Best of 2 runs per
    level defends against shared-host noise."""
    from pdf_extract_ray.data.pages import pages_parquet_path
    pages_dir = pages_parquet_path(SCALING_ROWS, n_giants=5,
                                   n_shards=SCALING_ROWS // 2000)
    runs = {}
    # interleave the levels so shared-host load drift hits both levels
    # symmetrically; keep the best run per level (the host time-slices
    # against other tenants with 2-5x swings)
    for cpus in (SCALING_N, SCALING_4N, SCALING_N, SCALING_4N,
                 SCALING_N, SCALING_4N):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                   GRAFT_SF_DIR=sf_dir,
                   GRAFT_PAGES_DIR_OVERRIDE=pages_dir)
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline-only"],
            env=env, capture_output=True, text=True, timeout=3600)
        line = [l for l in p.stdout.splitlines() if l.startswith("{")][-1]
        r = json.loads(line)
        if cpus not in runs or r["value"] < runs[cpus]["value"]:
            runs[cpus] = r
    t_n = runs[SCALING_N]["value"]
    t_4n = runs[SCALING_4N]["value"]
    eff = t_n / (4.0 * t_4n)
    return {
        "metric": f"scaling_efficiency_{SCALING_N}_to_{SCALING_4N}_cpus",
        "value": round(eff, 3),
        "unit": "ratio",
        "queries": {
            f"extract_pages_{SCALING_N}cpu": t_n,
            f"extract_pages_{SCALING_4N}cpu": t_4n,
        },
        "sf": float(_sf_of(sf_dir)),
        "num_cpus": SCALING_4N,
        "extra": {
            "scaling_rows": SCALING_ROWS,
            f"docs_per_s_{SCALING_N}cpu": runs[SCALING_N]["extra"]["docs_per_s"],
            f"docs_per_s_{SCALING_4N}cpu": runs[SCALING_4N]["extra"]["docs_per_s"],
            "ideal_speedup": 4.0,
            "measured_speedup": round(t_n / t_4n, 3),
        },
    }


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--headline-only", action="store_true")
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    args = ap.parse_args()
    if args.scaling:
        out = main_scaling(args.sf_dir)
    else:
        out = main_bench(args.sf_dir, headline_only=args.headline_only)
    print(json.dumps(out))
    import ray
    if ray.is_initialized():
        ray.shutdown()
