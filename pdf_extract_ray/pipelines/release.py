"""Training-data RELEASE pipeline — the full Dolma/CC-Net-style chain
from raw pages to packed, sharded training sequences:

    pages (url, html)
      -> ccprep (extract -> enrich -> exact dedup -> quality gate
                 -> MinHash near-dup removal)                  [phase 1-2]
      -> benchmark decontamination (eval-gram broadcast probe)  [phase 3]
      -> Gopher repetition gate (map-side, keeps text columns)  [phase 4]
      -> greedy sequence packing (deterministic, budgeted)      [phase 5]
      -> deterministic training shards (md5 permutation + rank) [phase 6]

Scale shape: phases 3-4 are map-only over the near-dup survivors (the
eval gram set broadcasts once; the Gopher stats are per-row); packing is
the one deliberately layout-pinned stage (explicit hash partition — see
ops/corpus.pack_sequences); the shard step is the single full-row
exchange of the chain, and it IS the final "write the training mix"
shuffle every release pipeline pays exactly once.  Every stage key is
derived from content hashes, so re-runs are bit-identical
(determinism-tested).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _gopher_keep(b: pa.Table, *, min_words: int, max_words: int,
                 max_dup_2gram_frac: float,
                 max_top_2gram_frac: float) -> pa.Table:
    """Gopher gate that KEEPS the full row (ops/corpus.gopher_filter
    computes the identical statistics but projects to stats columns;
    this variant filters in place so text flows on to packing)."""
    from ..ops.corpus import _distinct_runs, _gram_hashes, _word_hashes

    texts = b.column("text").to_pylist()
    nrows = b.num_rows
    row_of, wh, counts = _word_hashes(texts)
    grow, gh = _gram_hashes(row_of, wh, 2)
    n_g = np.bincount(grow, minlength=nrows).astype(np.int64) \
        if len(grow) else np.zeros(nrows, np.int64)
    run_rows, run_len = _distinct_runs(grow, gh)
    n_dg = np.bincount(run_rows, minlength=nrows).astype(np.int64)
    top = np.zeros(nrows, np.int64)
    if len(run_rows):
        first = np.flatnonzero(np.r_[True, run_rows[1:] != run_rows[:-1]])
        top[run_rows[first]] = np.maximum.reduceat(run_len, first)
    n2f = n_g.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        dup = np.where(n_g > 0, 1.0 - n_dg / n2f, 0.0)
        topf = np.where(n_g > 0, top / n2f, 0.0)
    keep = ((counts >= min_words) & (counts <= max_words)
            & (dup <= max_dup_2gram_frac) & (topf <= max_top_2gram_frac))
    return b.filter(pa.array(keep))


def release_dataset(pages_ds, *, langs=None,
                    min_quality: float = 0.1,
                    neardup_threshold: float = 0.95,
                    eval_mod: int = 97, decontam_n: int = 13,
                    min_words: int = 5, max_words: int = 10_000,
                    max_dup_2gram_frac: float = 0.5,
                    max_top_2gram_frac: float = 0.5,
                    max_tokens: int = 256, n_shards: int = 8,
                    num_partitions: int = 8, timings=None):
    """(url, html) pages -> packed, sharded training sequences:
    (seq_id, text, n_docs, n_tokens, shard, pos).  Deterministic end to
    end; `timings` receives per-phase wall seconds."""
    import time as _time

    from ..ops.corpus import pack_sequences
    from ..ops.dedup import drop_rows_by_id
    from .ccprep import ccprep_dataset

    t0 = _time.perf_counter()
    survivors = ccprep_dataset(
        pages_ds, langs=langs, min_quality=min_quality,
        neardup_threshold=neardup_threshold,
        num_partitions=num_partitions)
    docs = survivors.map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "url": b.column("url"),
            "text": b.column("extracted_text")}),
        batch_format="pyarrow").materialize()
    if timings is not None:
        timings["ccprep"] = round(_time.perf_counter() - t0, 3)

    # phase 3: decontamination.  The held-out slice (doc_id % eval_mod
    # == 0) stands in for the benchmark; its grams broadcast once, the
    # probe is map-only, and the contaminated id set (small by
    # definition — eval overlap is rare) applies via the broadcast /
    # left_anti machinery.  Drop rule is FRACTION-based (integer-exact
    # 2*n_overlaps >= n_grams, i.e. half the doc's distinct grams are
    # benchmark grams) rather than any-overlap: template-heavy corpora
    # share incidental n-grams corpus-wide, and any-overlap would
    # evacuate the release (measured: 219/220 flagged on the synthetic
    # pages at n=5; the defaults — 13-grams, 1% eval slice, >=50%
    # fraction — drop 35/239 there, the verbatim-copy tail).
    t0 = _time.perf_counter()
    from ..ops.corpus import decontaminate
    flags = decontaminate(docs, n=decontam_n, bench_mod=eval_mod,
                          with_totals=True)

    def _hard_hits(b: pa.Table) -> pa.Table:
        no = b.column("n_overlaps").to_numpy(zero_copy_only=False)
        ng = b.column("n_grams").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ng > 0) & (2 * no >= ng))) \
                .select(["doc_id"])

    bad = flags.map_batches(_hard_hits, batch_format="pyarrow")
    train = docs.map_batches(
        lambda b: b.filter(pa.array(
            b.column("doc_id").to_numpy(zero_copy_only=False)
            % eval_mod != 0)), batch_format="pyarrow")
    clean = drop_rows_by_id(train, bad, id_col="doc_id")
    if timings is not None:
        timings["decontaminate"] = round(_time.perf_counter() - t0, 3)

    # phase 4: Gopher repetition gate, map-side, text kept
    t0 = _time.perf_counter()
    gated = clean.map_batches(
        lambda b: _gopher_keep(
            b, min_words=min_words, max_words=max_words,
            max_dup_2gram_frac=max_dup_2gram_frac,
            max_top_2gram_frac=max_top_2gram_frac),
        batch_format="pyarrow")
    if timings is not None:
        timings["gopher_gate"] = round(_time.perf_counter() - t0, 3)

    # phase 5: deterministic greedy packing (layout-pinned op)
    t0 = _time.perf_counter()
    packed = pack_sequences(
        gated.map_batches(lambda b: b.select(["doc_id", "text"]),
                          batch_format="pyarrow"),
        max_tokens=max_tokens, n_parts=num_partitions).materialize()
    if timings is not None:
        timings["pack"] = round(_time.perf_counter() - t0, 3)

    # phase 6: deterministic shard + in-shard rank, carrying the packed
    # rows — the chain's single full-row exchange (the final "write the
    # training mix" shuffle; at 100 TB n_shards ~ corpus /
    # target_shard_bytes and each shard maps onto one parquet file)
    t0 = _time.perf_counter()
    import hashlib

    from ..ops.dedup import _grouped_by_partition

    def add_shard(b: pa.Table) -> pa.Table:
        ids = b.column("seq_id").to_pylist()
        hx = [hashlib.md5(str(i).encode("ascii")).hexdigest()
              for i in ids]
        shard = np.array([int(h[:8], 16) % n_shards for h in hx],
                         np.int64)
        return b.append_column("shard", pa.array(shard)) \
                .append_column("hx", pa.array(hx, pa.string()))

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["seq_id", "text", "n_docs", "n_tokens", "shard", "pos"]
        if len(df) == 0:
            df = df.assign(pos=pd.Series(dtype="int64"))
            return df[[c for c in cols if c in df.columns]]
        df = df.sort_values(["shard", "hx", "seq_id"], kind="mergesort")
        df["pos"] = df.groupby("shard", sort=False).cumcount() + 1
        return df[cols]

    out = _grouped_by_partition(
        packed.map_batches(add_shard, batch_format="pyarrow"),
        ["shard"], rank, n_parts=min(n_shards, 64))
    if timings is not None:
        timings["shard"] = round(_time.perf_counter() - t0, 3)
    return out


def run_release(input_dir: str, output_dir: str, *,
                resume: bool = True, **kwargs):
    """Checkpointed release run: writes one parquet directory per shard
    (`release/shard=K/`) plus a manifest with per-phase wall times; a
    finished run short-circuits on resume (the ccprep extraction layer
    underneath keeps its own per-partition resume)."""
    import os
    import time as _time

    from .extract import _commit, _committed, _rewrite_parquet, read_pages

    final_dir = os.path.join(output_dir, "release")
    marker = os.path.join(output_dir, "manifest", "release.json")
    done = _committed(marker, resume)
    if done is not None:
        return done

    timings: dict = {}
    t0 = _time.perf_counter()
    pages = read_pages(input_dir)
    ds = release_dataset(pages, timings=timings, **kwargs)
    n_out = _rewrite_parquet(ds, final_dir, partition_cols=["shard"])
    timings["total"] = round(_time.perf_counter() - t0, 3)
    return _commit(marker, {"rows_out": n_out, "output": final_dir,
                            "phases": timings})
