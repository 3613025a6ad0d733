"""The flagship Ray Data pipeline: Common-Crawl-style pages -> extracted text.

    read_parquet(columns=[url, html])
      -> map_batches(extract UDF, batch_format="pyarrow")
      -> write_parquet(out/part=K/) + per-partition manifest (lineage+metrics)

Design notes (scale):
- Column pruning at the read: only `url` and `html` leave storage.
- The extraction stage runs as task-compute map_batches on Ray's warm,
  reused worker processes (static tables + font/CMap caches are
  per-process module state; no per-execution actor spin-up); an explicit
  actor-pool mode exists for heavier per-actor state.  The per-row cost is
  wildly variable (a 40-page PDF vs a 2 KB HTML page): the streaming
  executor load-balances batches across workers, which absorbs moderate
  skew without a keyed shuffle, and `extract_dataset_bucketed` routes
  giant payloads into their own tiny batches for heavy-tailed corpora.
- Checkpoint/resume: input files are hash-grouped into partitions; each
  partition streams independently and finishes by writing
  `manifest/part-K.json` with lineage (input files, row counts) and
  metrics (status histogram, bytes, wall time).  A restarted job skips
  partitions whose manifest exists — a driver-side set difference, no
  data-plane join (SURVEY.md §2.5).
- Output is partitioned parquet (`out/part=K/`), never one giant file.
"""
from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# (name, Arrow type, dtype of the engine's flat span buffer)
_SPAN_FIELDS = [
    ("page", pa.int32(), np.int32),
    ("start", pa.int32(), np.int32),
    ("end", pa.int32(), np.int32),
    ("x", pa.float64(), np.float64),
    ("y", pa.float64(), np.float64),
    ("font_size", pa.float64(), np.float64),
]
SPAN_TYPE = pa.list_(pa.struct(
    [pa.field(name, typ) for name, typ, _dtype in _SPAN_FIELDS]))

RESULT_SCHEMA = pa.schema([
    pa.field("url", pa.string()),
    pa.field("extracted_text", pa.string()),
    pa.field("spans", SPAN_TYPE),
    pa.field("status", pa.string()),
    pa.field("error", pa.string()),
    pa.field("kind", pa.string()),
    pa.field("payload_bytes", pa.int64()),
    pa.field("n_chars", pa.int64()),
])


def _build_spans_array(span_cols) -> pa.Array:
    """Rows of flat span buffers -> Arrow list<struct> with no Python-object
    inference: each column is the rows' buffers joined and viewed with
    `np.frombuffer`, wrapped in a StructArray inside a ListArray.  None
    rows become null lists."""
    rows = [sc for sc in span_cols if sc is not None]
    offsets = np.zeros(len(span_cols) + 1, np.int32)
    np.cumsum([len(sc[0]) if sc is not None else 0 for sc in span_cols],
              out=offsets[1:])
    # pyarrow convention: a null at offsets[i] makes list element i null
    null = np.array([sc is None for sc in span_cols] + [False])
    struct = pa.StructArray.from_arrays(
        [pa.array(np.frombuffer(b"".join([sc[j] for sc in rows]), dtype),
                  typ)
         for j, (_name, typ, dtype) in enumerate(_SPAN_FIELDS)],
        names=[name for name, _typ, _dtype in _SPAN_FIELDS])
    return pa.ListArray.from_arrays(pa.array(offsets, mask=null), struct)


class ExtractBatch:
    """Actor-pool batch UDF: (url, html) -> RESULT_SCHEMA.

    Stateful per-actor setup happens once in __init__ (table imports via
    module load); the per-row engine call is total — every exception is
    captured into status='error' so one bad PDF never kills a task
    (SURVEY.md §4: the reference panics, we must not).
    """

    def __init__(self, with_spans: bool = True):
        # Touching the engine here forces the static tables (encodings,
        # glyph names, AFM metrics) to load once per actor process.
        from ..engine import api  # noqa: F401
        from ..engine import html_extract  # noqa: F401
        self.with_spans = with_spans

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..engine.api import (extract_text_and_span_columns_from_mem,
                                  extract_text_from_mem)
        from ..engine.html_extract import extract_html_text, sniff_payload

        payloads = batch.column("html").to_pylist()
        texts: List[str] = []
        # spans as flat columnar buffers (no per-char Python tuples)
        span_cols: List[Optional[tuple]] = []
        statuses: List[str] = []
        errors: List[Optional[str]] = []
        kinds: List[str] = []
        sizes: List[int] = []
        for payload in payloads:
            payload = payload or b""
            kind = sniff_payload(payload)
            text, spans, err = "", None, None
            try:
                if kind == "pdf":
                    if self.with_spans:
                        text, spans = extract_text_and_span_columns_from_mem(payload)
                    else:
                        text = extract_text_from_mem(payload)
                    status = "ok" if text else "empty"
                elif kind == "html":
                    text = extract_html_text(payload)
                    status = "ok" if text else "empty"
                elif kind == "empty":
                    status = "empty"
                else:
                    status = "skipped"
            except Exception as e:  # total UDF: error rows, never task death
                text, spans = "", None
                status = "error"
                err = f"{type(e).__name__}: {e}"[:500]
            sizes.append(len(payload))
            kinds.append(kind)
            texts.append(text)
            span_cols.append(spans)
            statuses.append(status)
            errors.append(err)
        return pa.Table.from_arrays(
            [batch.column("url"),
             pa.array(texts, pa.string()),
             _build_spans_array(span_cols),
             pa.array(statuses, pa.string()),
             pa.array(errors, pa.string()),
             pa.array(kinds, pa.string()),
             pa.array(sizes, pa.int64()),
             pa.array([len(t) for t in texts], pa.int64())],
            schema=RESULT_SCHEMA)


_TASK_UDFS = {}


def _task_udf(with_spans: bool):
    """Module-level singleton UDF: Ray reuses warm worker processes across
    task-based map_batches executions, so the engine's static tables and
    the cross-document CMap caches load once per worker and stay hot."""
    eb = _TASK_UDFS.get(with_spans)
    if eb is None:
        eb = _TASK_UDFS[with_spans] = ExtractBatch(with_spans=with_spans)
    return eb


def extract_batch_fn(batch: pa.Table) -> pa.Table:
    return _task_udf(True)(batch)


def extract_batch_fn_nospans(batch: pa.Table) -> pa.Table:
    return _task_udf(False)(batch)


def extract_dataset(ds, *, batch_size: int = 64, compute: str = "tasks",
                    concurrency=None, with_spans: bool = True):
    """Attach the extraction stage to a Dataset of (url, html, ...) rows.

    Returns a lazy Dataset with RESULT_SCHEMA.

    compute="tasks" (default): plain-function map_batches on Ray's warm,
    reused worker processes — static tables and the font/CMap caches are
    per-process module state, so there is no per-execution actor spin-up
    cost and scheduling is fully elastic.  compute="actors": explicit
    actor pool (`concurrency=(min,max)`), the right choice when the stage
    grows heavier per-actor state (e.g. a layout model); semantics are
    identical.
    """
    if compute == "actors":
        import ray  # local import: library code must not own a Ray session
        if concurrency is None:
            n = int(ray.cluster_resources().get("CPU", 8))
            concurrency = (1, max(1, n))
        return ds.map_batches(
            ExtractBatch,
            fn_constructor_kwargs={"with_spans": with_spans},
            batch_size=batch_size,
            batch_format="pyarrow",
            concurrency=concurrency,
            num_cpus=1,
        )
    fn = extract_batch_fn if with_spans else extract_batch_fn_nospans
    return ds.map_batches(fn, batch_size=batch_size, batch_format="pyarrow")


def extract_dataset_bucketed(ds_factory, *, threshold_bytes: int = 256 * 1024,
                             small_batch: int = 64, giant_batch: int = 2,
                             with_spans: bool = True):
    """Skew-defused extraction: giant payloads get their own tiny batches.

    `ds_factory()` must return a fresh (url, html) Dataset; two filtered
    branches are built from it (small rows -> batch_size=`small_batch`,
    rows >= threshold -> batch_size=`giant_batch`) and unioned.  Design
    choice: the filter re-scans the column-pruned input once per branch —
    for a 2-column projection this is far cheaper than the alternative
    (an all-to-all repartition keyed on payload size, which would move
    EVERY payload byte through the object store).  The small batch bound
    keeps worker heap at ~giant_batch x max_payload regardless of skew.
    """
    import pyarrow.compute as pc_

    def small_only(b: pa.Table) -> pa.Table:
        return b.filter(pc_.less(pc_.binary_length(b.column("html")),
                                 threshold_bytes))

    def giant_only(b: pa.Table) -> pa.Table:
        return b.filter(pc_.greater_equal(pc_.binary_length(b.column("html")),
                                          threshold_bytes))

    small = extract_dataset(
        ds_factory().map_batches(small_only, batch_format="pyarrow"),
        batch_size=small_batch, with_spans=with_spans)
    giant = extract_dataset(
        ds_factory().map_batches(giant_only, batch_format="pyarrow"),
        batch_size=giant_batch, with_spans=with_spans)
    return small.union(giant)


def read_pages(input_path, *, columns=("url", "html")):
    """Column-pruned read of the pages table."""
    import ray
    return ray.data.read_parquet(input_path, columns=list(columns))


def _partition_files(files: List[str], num_partitions: int) -> Dict[int, List[str]]:
    """Deterministic file -> partition assignment (hash of basename)."""
    import hashlib
    out: Dict[int, List[str]] = {i: [] for i in range(num_partitions)}
    for f in sorted(files):
        pid = int(hashlib.sha1(os.path.basename(f).encode()).hexdigest(), 16) % num_partitions
        out[pid].append(f)
    return {k: v for k, v in out.items() if v}


def _list_parquet_files(input_dir: str) -> List[str]:
    out = []
    for root, _dirs, files in os.walk(input_dir):
        for f in files:
            if f.endswith(".parquet"):
                out.append(os.path.join(root, f))
    return sorted(out)


def run_extract(input_dir: str, output_dir: str, *, num_partitions: Optional[int] = None,
                batch_size: int = 64, concurrency=None, with_spans: bool = True,
                resume: bool = True, size_buckets: bool = False,
                size_threshold_bytes: int = 256 * 1024,
                max_concurrent_partitions: int = 1) -> Dict:
    """Checkpointed flagship run.  Returns the job-level metrics dict.

    Each partition = a group of input files; completed partitions are
    skipped on restart (manifest present).  Partition manifests carry
    lineage + per-stage metrics; job metrics are their merge.
    `max_concurrent_partitions` > 1 overlaps partition pipelines via a
    thread pool (manifests stay per-partition-atomic); on this shared
    host it shows no benefit, so the default stays sequential.
    """
    files = _list_parquet_files(input_dir) if os.path.isdir(input_dir) else [input_dir]
    if not files:
        raise FileNotFoundError(f"no parquet under {input_dir}")
    if num_partitions is None:
        num_partitions = len(files)
    parts = _partition_files(files, num_partitions)
    manifest_dir = os.path.join(output_dir, "manifest")
    os.makedirs(manifest_dir, exist_ok=True)

    job = {"partitions": 0, "skipped_partitions": 0, "rows": 0,
           "payload_bytes": 0, "extracted_chars": 0, "statuses": {},
           "wall_s": 0.0}
    t_job = time.perf_counter()

    def do_partition(pid, group):
        mpath = os.path.join(manifest_dir, f"part-{pid:05d}.json")
        if resume and os.path.exists(mpath):
            return None
        metrics = _run_partition(pid, group, output_dir, batch_size=batch_size,
                                 concurrency=concurrency, with_spans=with_spans,
                                 size_buckets=size_buckets,
                                 size_threshold_bytes=size_threshold_bytes)
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            json.dump(metrics, f, indent=1)
        os.replace(tmp, mpath)  # atomic: manifest presence == partition done
        return metrics

    from concurrent.futures import ThreadPoolExecutor
    _stabilize_lazy_imports()
    ordered = sorted(parts.items())
    n_threads = max(1, min(max_concurrent_partitions, len(ordered)))
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        results = list(pool.map(lambda kv: do_partition(*kv), ordered))
    for metrics in results:
        if metrics is None:
            job["skipped_partitions"] += 1
            continue
        job["partitions"] += 1
        job["rows"] += metrics["rows"]
        job["payload_bytes"] += metrics["payload_bytes"]
        job["extracted_chars"] += metrics["extracted_chars"]
        for k, v in metrics["statuses"].items():
            job["statuses"][k] = job["statuses"].get(k, 0) + v
    job["wall_s"] = time.perf_counter() - t_job
    return job


def _stabilize_lazy_imports() -> None:
    """Ray's path resolution lazily does `from fsspec.implementations.http
    import HTTPFileSystem` on EVERY read/write call; in this environment
    that import always fails (no aiohttp), and a failed import is never
    cached — so two pool threads re-importing concurrently can observe a
    partially-initialized module and die on a spurious ImportError.
    Install a sentinel module (only used via isinstance) so the import
    deterministically succeeds and gets cached."""
    import sys
    import types
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except Exception:
        pass
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel: never instantiated, isinstance-only
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def _run_partition(pid: int, files: List[str], output_dir: str, *,
                   batch_size: int, concurrency, with_spans: bool,
                   size_buckets: bool = False,
                   size_threshold_bytes: int = 256 * 1024) -> Dict:
    import ray
    part_dir = os.path.join(output_dir, f"part={pid:05d}")
    # a partition without a manifest is incomplete: wipe any partial files
    # from a previous crashed/preempted attempt before rewriting, so the
    # manifest remains the single source of completion truth
    if os.path.isdir(part_dir):
        import shutil
        shutil.rmtree(part_dir)
    t0 = time.perf_counter()
    if size_buckets:
        result = extract_dataset_bucketed(
            lambda: read_pages(files), threshold_bytes=size_threshold_bytes,
            small_batch=batch_size, with_spans=with_spans)
    else:
        ds = read_pages(files)
        result = extract_dataset(ds, batch_size=batch_size, concurrency=concurrency,
                                 with_spans=with_spans)
    result.write_parquet(part_dir)
    t1 = time.perf_counter()
    # cheap metrics pass: column-pruned read of the partition output,
    # ONE aggregation job (count + both sums per status) — each extra
    # dataset execution costs fixed scheduling seconds x n_partitions
    from ray.data.aggregate import Count, Sum
    out = ray.data.read_parquet(part_dir, columns=["status", "payload_bytes", "n_chars"])
    agg = out.groupby("status").aggregate(
        Count(), Sum("payload_bytes"), Sum("n_chars")).take_all()
    statuses = {r["status"]: r["count()"] for r in agg}
    rows = sum(statuses.values())
    sums = {"sum(payload_bytes)": sum(r["sum(payload_bytes)"] or 0
                                      for r in agg),
            "sum(n_chars)": sum(r["sum(n_chars)"] or 0 for r in agg)}
    return {
        "partition": pid,
        "lineage": {"input_files": files},
        "rows": rows,
        "statuses": statuses,
        "payload_bytes": int(sums["sum(payload_bytes)"] or 0),
        "extracted_chars": int(sums["sum(n_chars)"] or 0),
        "extract_wall_s": t1 - t0,
        "docs_per_s": rows / (t1 - t0) if t1 > t0 else None,
        "mb_per_s": (int(sums["sum(payload_bytes)"] or 0) / 1e6) / (t1 - t0)
                    if t1 > t0 else None,
    }
