"""End-to-end training-data prep: the composed flagship a corpus team
actually runs.

    pages (url, html)
      -> extract (PDF parity engine / HTML boilerplate strip)
      -> keep status == 'ok'
      -> exact near-corpus dedup (md5 of extracted text, keep first url)
      -> enrich: token count, quality score, language id
      -> (optionally) quality filter
      -> partitioned parquet

Shuffle discipline: exact dedup is ONE hash shuffle partitioned by
text_md5 with a map-side combine (each block pre-drops its own dups, so
hot duplicate groups stay bounded); each partition keeps the min-url row
per md5.  Every other stage is a shuffle-free map.
"""
from __future__ import annotations

import hashlib
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .extract import extract_dataset


def _keep_ok(batch: pa.Table) -> pa.Table:
    # spans dropped: text-prep output is text-oriented, and Arrow's hash
    # join cannot carry list<struct> payload columns
    out = batch.filter(pc.equal(batch.column("status"), "ok"))
    return out.drop_columns(["spans", "error"])


def _read_extracted_ok(extract_dir: str):
    """The ok rows of a run_extract checkpoint, as `_keep_ok` shapes them.
    `partitioning=None`: the `part=K` dirs must not add a `part` column."""
    import ray

    from .extract import _list_parquet_files
    return ray.data.read_parquet(_list_parquet_files(extract_dir),
                                 partitioning=None) \
        .map_batches(_keep_ok, batch_format="pyarrow")


def _enrich(batch: pa.Table) -> pa.Table:
    """Token count, quality score, lang id over extracted_text (reuses the
    ops kernels on a renamed view)."""
    from ..ops.textstats import LangIdBatch, quality_batch
    from ..util import task_udf
    view = pa.Table.from_arrays(
        [pa.array(range(batch.num_rows), pa.int64()),
         batch.column("extracted_text")],
        names=["doc_id", "text"])
    q = quality_batch(view)
    lang = task_udf(LangIdBatch)(view)
    out = batch
    for name, col in (("n_tokens", q.column("n_tokens")),
                      ("quality_score", q.column("quality_score")),
                      ("pred_lang", lang.column("pred_lang"))):
        out = out.append_column(name, col)
    return out


def textprep_dataset(pages_ds, *, num_partitions: int = 32,
                     min_quality: Optional[float] = None):
    """Composed pipeline over a (url, html) Dataset.

    The extracted/ok dataset feeds BOTH join inputs (full rows + the
    (md5,url) dedup decision).  Ray Data re-executes shared lazy lineage
    once per consumer, so the expensive extraction stage MUST be pinned
    before the lineage forks: it is materialized into the object store
    (fine while extracted text × replication fits cluster memory), and
    extraction runs exactly once.  `run_textprep` is the 100-TB path: it
    pins it as run_extract's partitioned parquet (resumable, object
    store stays small).
    """
    ok = extract_dataset(pages_ds, with_spans=False).map_batches(
        _keep_ok, batch_format="pyarrow").materialize()
    return _dedup_enrich(ok, num_partitions=num_partitions,
                         min_quality=min_quality)


def _min_url_per_md5(batch: pa.Table) -> pa.Table:
    """Map-side exact-dedup combine: md5 the text, keep this batch's
    min-url row per md5 (text_md5 kept for the partition resolve).  The
    combine bounds hot duplicate groups — a boilerplate text duplicated
    millions of times ships at most one row per upstream block."""
    import pandas as pd
    texts = batch.column("extracted_text").to_pylist()
    md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    batch = batch.append_column("text_md5", pa.array(md5s, pa.string()))
    keep = pd.DataFrame({"m": md5s,
                         "u": batch.column("url").to_pandas()}) \
        .groupby("m", sort=False)["u"].idxmin().to_numpy()
    keep.sort()
    return batch.take(pa.array(keep))


def _dedup_enrich(ok_ds, *, num_partitions: int,
                  min_quality: Optional[float]):
    """Global exact dedup + enrichment over an already-extracted ok
    dataset (the post-checkpoint phase of the composed pipeline).

    Dedup is ONE hash shuffle: rows partition by text_md5 after a
    map-side combine (each block pre-drops its own dups), and each
    partition keeps the min-url row per md5 — the same survivor set as
    the round-2 groupby-Min + hash-join-back pair, with one less
    all-to-all and no join aggregator actors (A/B at sf0.1, 32 CPUs:
    3.8 s -> 0.44 s for the dedup stage)."""
    import numpy as np

    from ..ops.dedup import _grouped_by_partition

    hashed = ok_ds.map_batches(_min_url_per_md5, batch_format="pyarrow")

    def pick(df):
        if len(df) == 0:
            return df.drop(columns=["text_md5"])
        idx = df.groupby("text_md5", sort=False)["url"].idxmin()
        return df.loc[np.sort(idx.to_numpy())].drop(columns=["text_md5"])

    deduped = _grouped_by_partition(hashed, ["text_md5"], pick,
                                    n_parts=num_partitions)

    enriched = deduped.map_batches(_enrich, batch_format="pyarrow")
    if min_quality is not None:
        enriched = enriched.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("quality_score"),
                                                min_quality)),
            batch_format="pyarrow")
    return enriched


def run_textprep(input_dir: str, output_dir: str, *,
                 num_partitions: int = 32,
                 min_quality: Optional[float] = None,
                 resume: bool = True):
    """Checkpointed composed run, resumable at two granularities:

    Phase 1 (per-partition): extraction through run_extract's manifest
    machinery — a preempted job skips finished partitions on restart.
    Phase 2 (global): dedup shuffle + enrichment read the phase-1 parquet
    (never re-extract) and write the final output; its completion marker
    is `manifest/textprep.json` (atomic rename).

    Returns the job metrics dict ({"extract": ..., "rows_out": ...}).
    """
    import os

    from .extract import _commit, _committed, _rewrite_parquet, run_extract

    extract_dir = os.path.join(output_dir, "extracted")
    final_dir = os.path.join(output_dir, "textprep")
    marker = os.path.join(output_dir, "manifest", "textprep.json")
    done = _committed(marker, resume)
    if done is not None:
        return done  # whole job already finished

    job = run_extract(input_dir, extract_dir, with_spans=False,
                      resume=resume)
    result = _dedup_enrich(_read_extracted_ok(extract_dir), num_partitions=num_partitions,
                           min_quality=min_quality)
    n_out = _rewrite_parquet(result, final_dir)
    return _commit(marker, {"extract": job, "rows_out": n_out,
                            "output": final_dir})
