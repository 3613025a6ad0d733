"""The flagship Ray Data pipeline: Common-Crawl-style pages -> extracted text.

    read_pages(columns=[url, html])       one read task per input file
      -> map_batches(extract UDF, batch_size=None, batch_format="pyarrow")
      -> write_parquet(out/part=K/) + per-partition manifest (lineage+metrics)

Design notes (scale):
- Column pruning at the read: only `url` and `html` leave storage.
- Ray runs the read and the extraction as one fused operator,
  `ReadPages->MapBatches(_extract_batch)`, one task per input file: the
  task reads the file row group by row group and extracts each block
  in `BATCH_SIZE`-row slices, so no read output goes through the object
  store.  Ray 2.49 fuses a read into a map only when the map takes
  whole blocks, hence `batch_size=None`; `read_parquet` would also run
  sampling tasks that read the input again on every call.
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
  data-plane join (SURVEY.md §2.5); a resume over input files that no
  longer match the manifests raises before any work (`_check_lineage`).
  The same commit rule (`_committed`, `_commit`, `_rewrite_parquet`)
  marks the phases of the composed textprep/ccprep/crawlprep/release
  runners done.
- Output is partitioned parquet (`out/part=K/`), never one giant file.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

# rows per extraction UDF batch
BATCH_SIZE = 64

# span struct fields, in the column order of devices.place_text
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


def _extract_batch(block: pa.Table, *, with_spans: bool,
                   batch_size: int):
    """The extraction of one block, `batch_size` rows at a time; a
    zero-row block gives one empty RESULT_SCHEMA table (an empty block
    would lose its schema)."""
    from ..util import task_udf
    if not block.num_rows:
        yield RESULT_SCHEMA.empty_table()
        return
    udf = task_udf(ExtractBatch, with_spans=with_spans)
    for off in range(0, block.num_rows, batch_size):
        yield udf(block.slice(off, batch_size))


def extract_dataset(ds, *, with_spans: bool = True):
    """Attach the extraction stage to a Dataset of (url, html, ...) rows.

    Returns a lazy Dataset with RESULT_SCHEMA.  Plain-function
    map_batches on Ray's warm, reused worker processes: static tables and
    the font/CMap caches are per-process module state, so there is no
    per-execution actor spin-up cost and scheduling is fully elastic.
    The map takes whole blocks (`batch_size=None`, which lets Ray fuse
    it into the read) and runs the UDF on `BATCH_SIZE`-row slices of
    each; BATCH_SIZE is read here, when the plan is built.
    """
    return ds.map_batches(_extract_batch,
                          fn_kwargs={"with_spans": with_spans,
                                     "batch_size": BATCH_SIZE},
                          batch_size=None, batch_format="pyarrow")


def _read_file(path: str, columns: List[str]):
    """One pages file's `columns`, one table per row group; a file with
    no rows gives one empty table with those columns."""
    f = pq.ParquetFile(path)
    n = 0
    for i in range(f.num_row_groups):
        table = f.read_row_group(i, columns=columns)
        n += table.num_rows
        yield table
    if not n:
        yield pa.schema([f.schema_arrow.field(c) for c in columns]
                        ).empty_table()


class PagesDatasource(Datasource):
    """Parquet pages files, one read task per file, with the row count
    and size its footer gives (Ray names the operator `ReadPages`)."""

    def __init__(self, files: List[str], columns: List[str]):
        self._files = files
        self._columns = columns
        self._meta = [pq.read_metadata(f) for f in files]

    def _size(self, meta) -> int:
        """The uncompressed bytes of the file's `columns`."""
        return sum(chunk.total_uncompressed_size
                   for rg in map(meta.row_group, range(meta.num_row_groups))
                   for chunk in map(rg.column, range(rg.num_columns))
                   if chunk.path_in_schema in self._columns)

    def estimate_inmemory_data_size(self) -> int:
        return sum(map(self._size, self._meta))

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        return [ReadTask(functools.partial(_read_file, f, self._columns),
                         BlockMetadata(num_rows=meta.num_rows,
                                       size_bytes=self._size(meta),
                                       input_files=[f], exec_stats=None))
                for f, meta in zip(self._files, self._meta)]


def read_pages(input_path, *, columns=("url", "html")):
    """Column-pruned read of the pages table: a parquet dir (searched
    recursively), one parquet file, or a list of either.  One read task
    per file, which reads it row group by row group; the row counts
    come from the footers, so `count()` reads no data."""
    import ray
    files = _input_files(input_path)
    return ray.data.read_datasource(PagesDatasource(files, list(columns)),
        override_num_blocks=len(files))


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


def _input_files(input_path) -> List[str]:
    """The parquet files under a (possibly hive-nested) dir, or the one
    file a file path names, or those of each entry of a list."""
    paths = ([input_path] if isinstance(input_path, (str, os.PathLike))
             else list(input_path))
    files = []
    for path in paths:
        files += (_list_parquet_files(path) if os.path.isdir(path)
                  else [os.fspath(path)])
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


def _check_lineage(manifest_dir: str, parts: Dict[int, List[str]]) -> None:
    """Raise ValueError if a committed manifest names other input files
    (by basename, the key `_partition_files` hashes) than its partition
    gets now, or its partition is gone: a changed input remaps the
    files, and resuming over it would lose and duplicate rows."""
    for path in sorted(glob.glob(os.path.join(manifest_dir, "part-*.json"))):
        with open(path) as f:
            had = sorted(map(os.path.basename,
                             json.load(f)["lineage"]["input_files"]))
        now = sorted(map(os.path.basename,
                         parts.get(int(os.path.basename(path)[5:-5]), [])))
        if had != now:
            raise ValueError(f"{path} lists input files {had}, but its "
                             f"partition now gets {now}: the input "
                             f"changed since that run")


def run_extract(input_dir: str, output_dir: str, *, with_spans: bool = True,
                resume: bool = True) -> Dict:
    """Checkpointed flagship run.  Returns the job-level metrics dict.

    `input_dir` is a parquet dir (searched recursively) or one parquet
    file.  Each partition = a group of input files (one partition per
    file, by hash), run one after another as one Ray job each; completed
    partitions are skipped on restart (manifest present).  A resume
    over a changed set of input files raises ValueError before any
    partition runs (`_check_lineage`); a fresh run (`resume=False`)
    first removes every manifest and `part=*` directory.  Partition manifests carry
    lineage + per-stage metrics; job metrics are their merge.
    """
    files = _input_files(input_dir)
    parts = _partition_files(files, len(files))
    manifest_dir = os.path.join(output_dir, "manifest")
    if resume:
        _check_lineage(manifest_dir, parts)
    else:
        # a fresh run owns the whole output: a partition the input no
        # longer has must not keep its rows
        for stale in [manifest_dir] + glob.glob(
                os.path.join(output_dir, "part=*")):
            shutil.rmtree(stale, ignore_errors=True)

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
            pid, group, output_dir, with_spans=with_spans))
        job["partitions"] += 1
        job["rows"] += metrics["rows"]
        job["payload_bytes"] += metrics["payload_bytes"]
        job["extracted_chars"] += metrics["extracted_chars"]
        for k, v in metrics["statuses"].items():
            job["statuses"][k] = job["statuses"].get(k, 0) + v
    job["wall_s"] = time.perf_counter() - t_job
    return job


def _run_partition(pid: int, files: List[str], output_dir: str, *,
                   with_spans: bool) -> Dict:
    """Extract + write one partition (one Ray job) and return its
    manifest; the caller commits it."""
    part_dir = os.path.join(output_dir, f"part={pid:05d}")
    t0 = time.perf_counter()
    rows = _rewrite_parquet(extract_dataset(read_pages(files),
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
