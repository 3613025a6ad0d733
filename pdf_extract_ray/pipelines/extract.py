"""The flagship Ray Data pipeline: Common-Crawl-style pages -> extracted text.

    read_parquet(columns=[url, html])
      -> map_batches(extract UDF, batch_format="pyarrow")
      -> write_parquet(out/part=K/) + per-partition manifest (lineage+metrics)

Design notes (scale):
- Column pruning at the read: only `url` and `html` leave storage.
- The extraction stage runs as task-compute map_batches on Ray's warm,
  reused worker processes (static tables + font/CMap caches are
  per-process module state; no per-execution actor spin-up).  The per-row
  cost is wildly variable (a 40-page PDF vs a 2 KB HTML page): the
  streaming executor load-balances batches across workers, which absorbs
  moderate skew without a keyed shuffle.
- Checkpoint/resume: input files are hash-grouped into partitions; each
  partition streams independently and finishes by writing
  `manifest/part-K.json` with lineage (input files, row counts) and
  metrics (status histogram, bytes, wall time).  A restarted job skips
  partitions whose manifest exists — a driver-side set difference, no
  data-plane join (SURVEY.md §2.5).  The same commit rule (`_committed`,
  `_commit`, `_rewrite_parquet`) marks the phases of the composed
  textprep/ccprep/crawlprep/release runners done.
- Output is partitioned parquet (`out/part=K/`), never one giant file.
"""
from __future__ import annotations

import json
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# span struct fields, in the column order of resolve_span_columns
_SPAN_FIELDS = [
    ("page", pa.int32()),
    ("start", pa.int32()),
    ("end", pa.int32()),
    ("x", pa.float64()),
    ("y", pa.float64()),
    ("font_size", pa.float64()),
]
SPAN_TYPE = pa.list_(pa.struct(
    [pa.field(name, typ) for name, typ in _SPAN_FIELDS]))

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


def _build_spans_array(rows, with_spans: bool = True):
    """Rows' recorded text runs (`(run texts, SpanGeometry)` from
    `extract_text_and_span_columns_from_mem`, or None) -> (each row's
    text; one Arrow list<struct> spans array).

    One `devices.place_text` call places the runs of all the rows (it
    folds their glyphs about SPAN_CHUNK at a time) and joins each row's
    text; its numpy columns become the struct's children without a
    copy.  A None row, and with `with_spans` a row whose text is too
    long for int32 span offsets, gets None for its text.  Those rows,
    and every row without `with_spans`, get null lists.  A row's glyph
    count is `len(geometry.codes)`."""
    from ..engine.devices import place_text
    recorded = [row for row in rows if row is not None]
    placed, columns = place_text(recorded, with_spans)
    placed = iter(placed)
    texts = [None if row is None else next(placed) for row in rows]
    null = [text is None or not with_spans for text in texts]
    if not with_spans:
        columns = [np.empty(0, typ.to_pandas_dtype())
                   for _name, typ in _SPAN_FIELDS]
    offsets = np.zeros(len(rows) + 1, np.int32)
    np.cumsum([0 if skip else len(row[1].codes)
               for row, skip in zip(rows, null)], out=offsets[1:])
    struct = pa.StructArray.from_arrays(
        [pa.array(col, typ) for col, (_name, typ)
         in zip(columns, _SPAN_FIELDS)],
        names=[name for name, _typ in _SPAN_FIELDS])
    # pyarrow convention: a null at offsets[i] makes list element i null
    return texts, pa.ListArray.from_arrays(
        pa.array(offsets, mask=np.array(null + [False])), struct)


def _error_text(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"[:500]


class ExtractBatch:
    """Batch UDF: (url, html) -> RESULT_SCHEMA.

    Setup happens once per worker process in __init__ (table imports via
    module load; `extract_dataset` keeps one instance per worker through
    `util.task_udf`); the per-row engine call is total — every exception
    is captured into status='error' so one bad PDF never kills a task
    (SURVEY.md §4: the reference panics, we must not).  A PDF row's
    text runs are recorded per row and placed for the whole batch in
    `_build_spans_array`, with or without the spans column.
    """

    def __init__(self, with_spans: bool = True):
        # Touching the engine here forces the static tables (encodings,
        # glyph names, AFM metrics) to load once per worker process.
        from ..engine import api  # noqa: F401
        from ..engine import html_extract  # noqa: F401
        self.with_spans = with_spans

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..engine.api import extract_text_and_span_columns_from_mem
        from ..engine.devices import SPAN_OVERFLOW
        from ..engine.html_extract import extract_html_text, sniff_payload

        payloads = batch.column("html").to_pylist()
        texts: List[str] = []
        # per PDF row: its recorded text runs, placed after the loop
        recorded: List[Optional[tuple]] = []
        statuses: List[str] = []
        errors: List[Optional[str]] = []
        kinds: List[str] = []
        sizes: List[int] = []
        for payload in payloads:
            payload = payload or b""
            kind = sniff_payload(payload)
            text, runs, err = "", None, None
            try:
                if kind == "pdf":
                    runs = extract_text_and_span_columns_from_mem(payload)
                    status = "ok"  # or "empty", once placed
                elif kind == "html":
                    text = extract_html_text(payload)
                    status = "ok" if text else "empty"
                elif kind == "empty":
                    status = "empty"
                else:
                    status = "skipped"
            except Exception as e:  # total UDF: error rows, never task death
                text, runs = "", None
                status = "error"
                err = _error_text(e)
            sizes.append(len(payload))
            kinds.append(kind)
            texts.append(text)
            recorded.append(runs)
            statuses.append(status)
            errors.append(err)
        placed, spans = _build_spans_array(recorded, self.with_spans)
        for i, runs in enumerate(recorded):
            if runs is None:
                continue
            text = placed[i]
            if text is None:
                texts[i], statuses[i] = "", "error"
                errors[i] = _error_text(OverflowError(SPAN_OVERFLOW))
            else:
                texts[i] = text
                statuses[i] = "ok" if text else "empty"
        return pa.Table.from_arrays(
            [batch.column("url"),
             pa.array(texts, pa.string()),
             spans,
             pa.array(statuses, pa.string()),
             pa.array(errors, pa.string()),
             pa.array(kinds, pa.string()),
             pa.array(sizes, pa.int64()),
             pa.array([len(t) for t in texts], pa.int64())],
            schema=RESULT_SCHEMA)


def _extract_batch(batch: pa.Table, *, with_spans: bool) -> pa.Table:
    from ..util import task_udf
    return task_udf(ExtractBatch, with_spans=with_spans)(batch)


def extract_dataset(ds, *, batch_size: int = 64, with_spans: bool = True):
    """Attach the extraction stage to a Dataset of (url, html, ...) rows.

    Returns a lazy Dataset with RESULT_SCHEMA.  Plain-function
    map_batches on Ray's warm, reused worker processes: static tables and
    the font/CMap caches are per-process module state, so there is no
    per-execution actor spin-up cost and scheduling is fully elastic.
    """
    return ds.map_batches(_extract_batch, fn_kwargs={"with_spans": with_spans},
                          batch_size=batch_size, batch_format="pyarrow")


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


def _input_files(input_path: str) -> List[str]:
    """The parquet files under a (possibly hive-nested) dir, or the one
    file a file path names."""
    files = (_list_parquet_files(input_path) if os.path.isdir(input_path)
             else [input_path])
    if not files:
        raise FileNotFoundError(f"no parquet under {input_path}")
    return files


# -- the commit rule ----------------------------------------------------------
# A unit of work (an extract partition, a whole pipeline phase) writes its
# data first and its JSON marker last, by atomic rename: marker presence ==
# unit done.  A unit without a marker is redone from scratch.

def _committed(marker: str, resume: bool) -> Optional[Dict]:
    """The marker's JSON if the unit is done and `resume` is on, else None."""
    if resume and os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)
    return None


def _commit(marker: str, metrics: Dict) -> Dict:
    """Write `<marker>.tmp`, then rename it over `marker` (atomic)."""
    os.makedirs(os.path.dirname(marker), exist_ok=True)
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(metrics, f, indent=1)
    os.replace(tmp, marker)
    return metrics


def _rewrite_parquet(ds, out_dir: str, **write_kw) -> int:
    """Replace `out_dir` with `ds` written as parquet and return its row
    count.  Files of an earlier uncommitted attempt are wiped first, so
    the marker stays the single source of completion truth; a zero-row
    `ds` leaves no directory (Ray writes no file for it)."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    ds.write_parquet(out_dir, **write_kw)
    return sum(pq.read_metadata(f).num_rows
               for f in _list_parquet_files(out_dir))


def run_extract(input_dir: str, output_dir: str, *, num_partitions: Optional[int] = None,
                batch_size: int = 64, with_spans: bool = True,
                resume: bool = True) -> Dict:
    """Checkpointed flagship run.  Returns the job-level metrics dict.

    `input_dir` is a parquet dir (searched recursively) or one parquet
    file.  Each partition = a group of input files, run one after another
    as one Ray job each; completed partitions are skipped on restart
    (manifest present).  Partition manifests carry lineage + per-stage
    metrics; job metrics are their merge.
    """
    files = _input_files(input_dir)
    parts = _partition_files(files, num_partitions or len(files))
    manifest_dir = os.path.join(output_dir, "manifest")

    job = {"partitions": 0, "skipped_partitions": 0, "rows": 0,
           "payload_bytes": 0, "extracted_chars": 0, "statuses": {},
           "wall_s": 0.0}
    t_job = time.perf_counter()
    for pid, group in sorted(parts.items()):
        mpath = os.path.join(manifest_dir, f"part-{pid:05d}.json")
        if _committed(mpath, resume) is not None:
            job["skipped_partitions"] += 1
            continue
        metrics = _commit(mpath, _run_partition(
            pid, group, output_dir, batch_size=batch_size,
            with_spans=with_spans))
        job["partitions"] += 1
        job["rows"] += metrics["rows"]
        job["payload_bytes"] += metrics["payload_bytes"]
        job["extracted_chars"] += metrics["extracted_chars"]
        for k, v in metrics["statuses"].items():
            job["statuses"][k] = job["statuses"].get(k, 0) + v
    job["wall_s"] = time.perf_counter() - t_job
    return job


def _run_partition(pid: int, files: List[str], output_dir: str, *,
                   batch_size: int, with_spans: bool) -> Dict:
    """Extract + write one partition (one Ray job) and return its
    manifest; the caller commits it."""
    part_dir = os.path.join(output_dir, f"part={pid:05d}")
    t0 = time.perf_counter()
    rows = _rewrite_parquet(extract_dataset(read_pages(files),
                                            batch_size=batch_size,
                                            with_spans=with_spans), part_dir)
    t1 = time.perf_counter()
    # metrics from the written footers + three columns, read on the driver
    cols = ["status", "payload_bytes", "n_chars"]
    out = pa.concat_tables(
        [RESULT_SCHEMA.empty_table().select(cols)]
        + [pq.read_table(f, columns=cols)
           for f in _list_parquet_files(part_dir)])
    statuses = {v["values"]: v["counts"]
                for v in pc.value_counts(out.column("status")).to_pylist()}
    payload_bytes = pc.sum(out.column("payload_bytes")).as_py() or 0
    wall = t1 - t0
    return {
        "partition": pid,
        "lineage": {"input_files": files},
        "rows": rows,
        "statuses": dict(sorted(statuses.items())),
        "payload_bytes": payload_bytes,
        "extracted_chars": pc.sum(out.column("n_chars")).as_py() or 0,
        "extract_wall_s": wall,
        "docs_per_s": rows / wall if wall > 0 else None,
        "mb_per_s": (payload_bytes / 1e6) / wall if wall > 0 else None,
    }
