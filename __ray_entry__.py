"""Driver contract: entry() smoke, queries() per-operator callables, and
oracle_sql() DuckDB equivalents for the SQL-expressible ones.

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in the library) calls ray.init()/ray.shutdown().

Extraction pipelines run over the deterministic synthetic `pages` table
(FIXTURES.md §F1; generated/cached under /tmp) because the driver's
pre-registered views do not include a raw-payload table; those entries are
rows-only checks, with byte-parity covered by tests/.  Everything over the
`documents`/`embeddings` views carries a DuckDB oracle.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# rows per synthetic pages table, keyed by the sf encoded in the dir name
_PAGES_ROWS = {"0.001": 100, "0.01": 2000, "0.1": 20000}


def _sf_of(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return base[2:] if base.startswith("sf") else "0.01"


def _pages_dir(sf_dir: str) -> str:
    from pdf_extract_ray.data.pages import pages_parquet_path
    n = _PAGES_ROWS.get(_sf_of(sf_dir), 2000)
    giants = 5 if n >= 20000 else 0
    shards = max(1, n // 500)
    return pages_parquet_path(n, n_giants=giants, n_shards=shards)


def _read(sf_dir: str, table: str, columns=None):
    import ray
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                                 columns=columns)


def _df_from_rows(rows, columns):
    """take_all() rows -> DataFrame that keeps its COLUMNS when empty
    (pd.DataFrame([]) loses them, and every downstream driver-side
    reshape then KeyErrors — empty inputs/partitions are routine at
    scale, so the reshape queries must stay total)."""
    import pandas as pd
    df = pd.DataFrame(rows)
    if df.empty:
        df = pd.DataFrame({c: [] for c in columns})
    return df


# ---------------------------------------------------------------------------
# entry: flagship smoke pipeline
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: synthetic sf0.001-scale pages -> extraction Dataset."""
    return _q_extract_pages("/root/testdata/sf0.001")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _q_extract_pages(sf_dir: str):
    import ray
    from pdf_extract_ray.pipelines.extract import extract_dataset
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    result = extract_dataset(ds)

    # The parquet write path keeps typed list<struct> spans; for the
    # driver's pandas conversion, JSON-encode them (tensor-extension
    # casting can't represent list-of-struct).
    def spans_to_json(b: pa.Table) -> pa.Table:
        import json
        spans = [None if s is None else json.dumps(s, separators=(",", ":"))
                 for s in b.column("spans").to_pylist()]
        i = b.schema.get_field_index("spans")
        return b.set_column(i, "spans", pa.array(spans, pa.string()))

    return result.map_batches(spans_to_json, batch_format="pyarrow")


def _q_extract_status_histogram(sf_dir: str):
    res = _q_extract_pages(sf_dir)
    out = res.groupby("status").count()
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("status"), pc.cast(b.column("count()"), pa.int64())],
            names=["status", "n_rows"]),
        batch_format="pyarrow")


def _q_extract_by_pages(sf_dir: str):
    """One row per (url, page_num): the extract_text_by_pages surface
    (fresh interpreter per page, reference src/lib.rs:2295-2307)."""
    import ray
    from pdf_extract_ray.engine.api import extract_text_from_mem_by_pages
    from pdf_extract_ray.engine.html_extract import sniff_payload

    def per_page(batch: pa.Table) -> pa.Table:
        urls, nums, texts = [], [], []
        for url, payload in zip(batch.column("url").to_pylist(),
                                batch.column("html").to_pylist()):
            if sniff_payload(payload or b"") != "pdf":
                continue
            try:
                pages = extract_text_from_mem_by_pages(payload)
            except Exception:
                continue
            for i, t in enumerate(pages, start=1):
                urls.append(url)
                nums.append(i)
                texts.append(t)
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()), pa.array(nums, pa.int32()),
             pa.array(texts, pa.string())],
            names=["url", "page_num", "page_text"])

    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return ds.map_batches(per_page, batch_format="pyarrow", batch_size=16)


def _q_extract_metadata(sf_dir: str):
    import ray
    from pdf_extract_ray.engine.api import get_metadata
    from pdf_extract_ray.engine.html_extract import sniff_payload

    def meta(batch: pa.Table) -> pa.Table:
        urls, versions, counts = [], [], []
        for url, payload in zip(batch.column("url").to_pylist(),
                                batch.column("html").to_pylist()):
            if sniff_payload(payload or b"") != "pdf":
                continue
            try:
                m = get_metadata(payload)
            except Exception:
                continue
            urls.append(url)
            versions.append(m.get("version", ""))
            counts.append(int(m.get("page_count", "0")))
        return pa.Table.from_arrays(
            [pa.array(urls, pa.string()), pa.array(versions, pa.string()),
             pa.array(counts, pa.int64())],
            names=["url", "pdf_version", "page_count"])

    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return ds.map_batches(meta, batch_format="pyarrow", batch_size=32)


def _q_textprep(sf_dir: str):
    """Composed flagship: extract -> filter ok -> exact dedup (join) ->
    token/quality/lang enrichment (pipelines/textprep.py)."""
    import ray
    from pdf_extract_ray.pipelines.textprep import textprep_dataset
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return textprep_dataset(ds, num_partitions=8)


def _q_ccprep(sf_dir: str):
    """Full Common-Crawl-style chain: extract -> enrich -> exact dedup ->
    quality filter -> MinHash near-dup removal (pipelines/ccprep.py)."""
    import ray
    from pdf_extract_ray.pipelines.ccprep import ccprep_dataset
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return ccprep_dataset(ds, min_quality=0.1, neardup_threshold=0.95)


def _q_doc_stats_by_source(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    agg = ds.groupby("source").aggregate(_sum("n_chars"), _count())

    def finish(b: pa.Table) -> pa.Table:
        total = pc.cast(b.column("sum(n_chars)"), pa.int64())
        n = pc.cast(b.column("count()"), pa.int64())
        avg = pc.divide(pc.cast(total, pa.float64()), pc.cast(n, pa.float64()))
        return pa.Table.from_arrays([b.column("source"), n, total, avg],
                                    names=["source", "n_docs", "total_chars", "avg_chars"])
    return agg.map_batches(finish, batch_format="pyarrow")


def _sum(col):
    from ray.data.aggregate import Sum
    return Sum(col)


def _count():
    from ray.data.aggregate import Count
    return Count()


def _q_lang_histogram(sf_dir: str):
    """Null lang counts as 'und' (COALESCE policy — crawl metadata is
    never complete; the native groupby cannot sort None keys)."""
    ds = _read(sf_dir, "documents", columns=["lang"])
    ds = ds.map_batches(
        lambda b: pa.table({"lang": pc.coalesce(b.column("lang"),
                                                pa.scalar("und"))}),
        batch_format="pyarrow")
    out = ds.groupby("lang").count()
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("lang"), pc.cast(b.column("count()"), pa.int64())],
            names=["lang", "n_docs"]),
        batch_format="pyarrow")


def _q_doc_size_buckets(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["n_chars"])

    def bucketize(b: pa.Table) -> pa.Table:
        n = b.column("n_chars")
        bucket = pc.if_else(pc.less(n, 100), pa.scalar("small"),
                            pc.if_else(pc.less(n, 300), pa.scalar("medium"),
                                       pa.scalar("large")))
        return pa.Table.from_arrays([bucket], names=["bucket"])

    out = ds.map_batches(bucketize, batch_format="pyarrow").groupby("bucket").count()
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("bucket"), pc.cast(b.column("count()"), pa.int64())],
            names=["bucket", "n_docs"]),
        batch_format="pyarrow")


def _q_token_counts(sf_dir: str):
    from pdf_extract_ray.ops.textstats import token_counts
    return token_counts(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_bpe_token_counts(sf_dir: str):
    from pdf_extract_ray.ops.textstats import bpe_token_counts
    return bpe_token_counts(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_quality_scores(sf_dir: str):
    from pdf_extract_ray.ops.textstats import quality_scores
    return quality_scores(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_exact_dedup(sf_dir: str):
    from pdf_extract_ray.ops.dedup import exact_dedup_groups
    return exact_dedup_groups(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    ).select_columns(["doc_id", "n_dups"])


def _q_dataset_splits(sf_dir: str):
    """Deterministic train/val/test assignment (~80/10/10) by key hash —
    any shard of any size re-derives the same membership, no RNG state."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids * np.int64(2654435761)) % np.int64(10)
        split = np.where(bucket < 8, "train",
                         np.where(bucket == 8, "val", "test"))
        return pa.table({"doc_id": b.column("doc_id"),
                         "split": pa.array(split.tolist(), pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow")


def _q_deterministic_sample(sf_dir: str):
    """Reproducible ~10% corpus sample by hashing the key (no RNG state:
    any shard of any size re-derives the same membership)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def keep(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids * np.int64(2654435761)) % np.int64(100)
        return b.filter(pa.array(bucket < 10))

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_stratified_sample(sf_dir: str):
    """First 5 doc_ids per language: stratified eval-set carving.

    Scale shape (ops/analytics.topk_per_group pattern): every BATCH
    emits its local 5 smallest doc_ids per language (map-side combine),
    so the groupby shuffle carries at most n_blocks x n_langs x 5 rows —
    never a whole language's corpus into one worker."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(["lang", "doc_id"])
        return pa.Table.from_pandas(
            df.groupby("lang", sort=False).head(5), preserve_index=False)

    cands = ds.map_batches(partial, batch_format="pyarrow")

    def final(df):
        return df.sort_values("doc_id").head(5)

    return cands.groupby("lang").map_groups(final, batch_format="pandas")


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag train docs sharing any word
    5-gram with the held-out benchmark slice (doc_id % 11 == 0).  The
    benchmark gram set is broadcast once (eval sets are small by
    definition); the train side never shuffles (ops/corpus.py)."""
    from pdf_extract_ray.ops.corpus import decontaminate
    return decontaminate(_read(sf_dir, "documents",
                               columns=["doc_id", "text"]))


def _q_repetition_scores(sf_dir: str):
    """Gopher-style repetition statistics — zero-shuffle map-side
    word/2-gram duplication counts per document (ops/corpus.py)."""
    from pdf_extract_ray.ops.corpus import repetition_scores
    return repetition_scores(_read(sf_dir, "documents",
                                   columns=["doc_id", "text"]))


def _q_gopher_filter(sf_dir: str):
    """Composite Gopher-style quality gate (word-count window + 2-gram
    duplication/dominance thresholds) — one map-side pass, zero
    shuffles (ops/corpus.py)."""
    from pdf_extract_ray.ops.corpus import gopher_filter
    return gopher_filter(_read(sf_dir, "documents",
                               columns=["doc_id", "text"]))


def _q_chunk_dedup(sf_dir: str):
    """C4-style first-occurrence span dedup: 8-word chunks, global
    keep-first election over 16 B (hash, position) rows, text rebuilt
    from surviving chunks (ops/corpus.py)."""
    from pdf_extract_ray.ops.corpus import chunk_dedup
    return chunk_dedup(_read(sf_dir, "documents",
                             columns=["doc_id", "text"]))


def _q_tfidf_top_terms(sf_dir: str):
    """Most corpus-distinctive term per doc by tf/df rarity — df joined
    on term (vocabulary never broadcast), map-side tf, partial top-1
    before the final per-doc groupby (ops/corpus.py)."""
    from pdf_extract_ray.ops.corpus import tfidf_top_terms
    return tfidf_top_terms(_read(sf_dir, "documents",
                                 columns=["doc_id", "text"]))


def _q_bm25_top_docs(sf_dir: str):
    """Top-3 BM25-relevant docs per term, ranked by the log-free
    algebraic reduction (W + 3*N*dl)/tf — the integer-derived key makes
    the ranking bit-identical to DuckDB with no float score column
    (ops/corpus.bm25_top_docs)."""
    from pdf_extract_ray.ops.corpus import bm25_top_docs
    return bm25_top_docs(_read(sf_dir, "documents",
                               columns=["doc_id", "text"]), k=3)


def _q_range_window_sums(sf_dir: str):
    """RANGE-frame trailing 60-min per-user window sum over integer
    cents — peers included per RANGE semantics, resolved as prefix
    differences over a composite-key searchsorted, no per-user loop
    (ops/events.range_window_sums)."""
    from pdf_extract_ray.ops.events import range_window_sums
    return range_window_sums(_read(sf_dir, "events",
                                   columns=["event_id", "user_id", "ts",
                                            "value"]))


def _q_triangle_counts(sf_dir: str):
    """Distributed triangle counting (Suri-Vassilvitskii degree-ordered
    wedge join) over the banded doc-similarity graph: same (source,
    lang), |n_chars| diff <= 60.  Orientation by (degree, id) bounds
    every node's wedge fanout; membership resolves as ONE tagged-union
    shuffle on (v, w) — no hash-join actor pool
    (ops/graph.triangle_counts)."""
    from pdf_extract_ray.ops.graph import interval_self_join, \
        triangle_counts
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = interval_self_join(docs, ["source", "lang"], "n_chars",
                               "doc_id", tol=60, keep_group=True)
    return triangle_counts(edges, group_cols=["source", "lang"])


def _q_dup_span_stats(sf_dir: str):
    """Exact duplicated 5-gram position counts per doc (the Lee et al.
    2022 substring-dedup signal): one gram-hash shuffle, duplicate
    flags resolved inside the partition, zero joins
    (ops/corpus.dup_span_stats)."""
    from pdf_extract_ray.ops.corpus import dup_span_stats
    return dup_span_stats(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]), n=5)


def _q_cross_source_overlap(sf_dir: str):
    """Cross-source contamination matrix: distinct shared 8-gram spans
    per source pair — one distinct-(gram,source) exchange, vectorized
    within-partition self-join (ops/corpus.cross_source_overlap)."""
    from pdf_extract_ray.ops.corpus import cross_source_overlap
    return cross_source_overlap(_read(sf_dir, "documents",
                                      columns=["source", "text"]), n=8)


def _q_vocab_jaccard(sf_dir: str):
    """Pairwise source vocabulary Jaccard from ONE exchange: diagonal
    partials give |A|, off-diagonal give |A∩B|, union by
    inclusion-exclusion (ops/corpus.vocab_jaccard)."""
    from pdf_extract_ray.ops.corpus import vocab_jaccard
    return vocab_jaccard(_read(sf_dir, "documents",
                               columns=["source", "text"]))


def _q_chars_iqr_outliers(sf_dir: str):
    """Tukey-fence outlier counts per source over n_chars, resolved
    from the same bounded (group,value) histogram as the percentile
    family — doubled-integer fence test, no float boundary
    (ops/analytics.grouped_iqr_outliers)."""
    from pdf_extract_ray.ops.analytics import grouped_iqr_outliers
    return grouped_iqr_outliers(_read(sf_dir, "documents",
                                      columns=["source", "n_chars"]),
                                "source", "n_chars")


def _q_dup_clusters(sf_dir: str):
    """Dup-graph cluster resolution as distributed connected components
    (the CC-Net/RefinedWeb shape: near-dup PAIRS -> cluster ids).  The
    candidate-pair rule here is SQL-expressible (same (source, lang) and
    |n_chars| within 5 — a banded interval self-join) so the WHOLE chain
    — pair generation, min-label propagation with pointer jumping, and
    isolated-doc fill — is DuckDB-oracled via a recursive CTE.  The
    production near-dup graph goes through the same operator in
    _q_neardup_clusters."""
    from pdf_extract_ray.ops.corpus import _coalesce_nonempty, _default_parts
    from pdf_extract_ray.ops.graph import (connected_components,
                                           interval_self_join)
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = interval_self_join(docs, ["source", "lang"], "n_chars",
                               "doc_id", tol=5)
    comp = connected_components(edges, "id_a", "id_b").map_batches(
        lambda t: pa.table({"doc_id": t.column("node"),
                            "component": t.column("component")}),
        batch_format="pyarrow")
    ids = docs.select_columns(["doc_id"])

    def own(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "component": b.column("doc_id")})

    if comp.count() == 0:
        return ids.map_batches(own, batch_format="pyarrow")
    parts = _default_parts()
    comp = _coalesce_nonempty(comp, parts).materialize()
    # isolated docs keep their own id: adaptive drop (bounded broadcast
    # of clustered ids when small, left_anti hash join at scale)
    from pdf_extract_ray.ops.dedup import drop_rows_by_id
    isolated = drop_rows_by_id(ids, comp.select_columns(["doc_id"])) \
        .map_batches(own, batch_format="pyarrow")
    return comp.union(isolated)


def _q_dup_clusters_salted(sf_dir: str):
    """dup_clusters through the VALUE-BUCKET-SALTED banded join
    (ops/graph.interval_self_join_salted): identical semantics and the
    SAME DuckDB oracle, but no partition ever holds a whole
    (source, lang) group — the asof_join_salted pattern applied to the
    pair-generation stage."""
    from pdf_extract_ray.ops.corpus import _coalesce_nonempty, _default_parts
    from pdf_extract_ray.ops.graph import (connected_components,
                                           interval_self_join_salted)
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = interval_self_join_salted(docs, ["source", "lang"], "n_chars",
                                      "doc_id", tol=5)
    comp = connected_components(edges, "id_a", "id_b").map_batches(
        lambda t: pa.table({"doc_id": t.column("node"),
                            "component": t.column("component")}),
        batch_format="pyarrow")
    ids = docs.select_columns(["doc_id"])

    def own(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "component": b.column("doc_id")})

    if comp.count() == 0:
        return ids.map_batches(own, batch_format="pyarrow")
    parts = _default_parts()
    comp = _coalesce_nonempty(comp, parts).materialize()
    from pdf_extract_ray.ops.dedup import drop_rows_by_id
    isolated = drop_rows_by_id(ids, comp.select_columns(["doc_id"])) \
        .map_batches(own, batch_format="pyarrow")
    return comp.union(isolated)


def _q_neardup_clusters(sf_dir: str):
    """Production dup clustering: MinHash-LSH candidates -> exact
    Jaccard verify -> distributed connected components over the verified
    pair graph (ops/graph.py).  Every planted perturbed copy must land
    in its original's cluster.  No SQL oracle (MinHash banding is not
    SQL-expressible); rows-only plus the planted-cluster pytest."""
    from pdf_extract_ray.ops.dedup import (minhash_lsh_pairs,
                                           verify_pairs_jaccard)
    from pdf_extract_ray.ops.graph import connected_components
    ds = _with_neardup_copies(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))
    pairs = minhash_lsh_pairs(ds, threshold=0.4)
    verified = verify_pairs_jaccard(pairs, ds, threshold=0.6)
    return connected_components(
        verified.select_columns(["doc_id_a", "doc_id_b"]),
        "doc_id_a", "doc_id_b")


def _q_neardup_cluster_dedup(sf_dir: str):
    """Cluster-canonical near-dup DEDUP (the CC-Net keep-one policy,
    complementing neardup_dedup's greedy-MIS policy): LSH candidates ->
    Jaccard verify -> connected components -> keep the MIN doc id per
    cluster -> survivors = cluster canonicals + all never-paired docs.
    The canonical election is one groupby-min over (component, node)
    pairs; non-clustered docs are recovered with a left_anti join (no
    corpus broadcast).  Every planted perturbed copy (doc_id + 1M) must
    drop; all originals survive."""
    from pdf_extract_ray.ops.corpus import _coalesce_nonempty, _default_parts
    from pdf_extract_ray.ops.dedup import (minhash_lsh_pairs,
                                           verify_pairs_jaccard)
    from pdf_extract_ray.ops.graph import connected_components
    ds = _with_neardup_copies(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))
    pairs = minhash_lsh_pairs(ds, threshold=0.4)
    verified = verify_pairs_jaccard(pairs, ds, threshold=0.6)
    comp = connected_components(
        verified.select_columns(["doc_id_a", "doc_id_b"]),
        "doc_id_a", "doc_id_b")
    parts = _default_parts()
    ids = ds.map_batches(lambda t: t.select(["doc_id"]),
                         batch_format="pyarrow")
    if comp.count() == 0:
        return ids
    comp = _coalesce_nonempty(
        comp.map_batches(
            lambda t: pa.table({"doc_id": t.column("node"),
                                "component": t.column("component")}),
            batch_format="pyarrow").materialize(), parts).materialize()
    canon = comp.groupby("component").min("doc_id").map_batches(
        lambda t: pa.table({"doc_id": t.column("min(doc_id)")})
        if t.num_rows else pa.table({"doc_id": pa.array([], pa.int64())}),
        batch_format="pyarrow").materialize()
    canon = _coalesce_nonempty(canon, parts)
    # never-paired docs: not in any component (adaptive drop — bounded
    # broadcast when the clustered-id set is small, left_anti at scale)
    from pdf_extract_ray.ops.dedup import drop_rows_by_id
    unpaired = drop_rows_by_id(ids, comp.select_columns(["doc_id"]))
    return unpaired.union(canon)


def _q_weighted_sample(sf_dir: str):
    """Deterministic weighted Bernoulli sample (data-mixing primitive):
    P(doc) ~ k*w/sum(W) with w = n_chars, k = 50 expected rows.  The
    inclusion test is INTEGER-EXACT and shared verbatim with the SQL
    oracle — ((doc_id*2654435761) mod 2^32) * sum(W) < k * w * 2^32 —
    so no float boundary can flip membership between engines.  sum(W) is
    one scalar aggregate closed over by the map filter; everything else
    is map-side, shard-independent and resumable.  int64 products stay
    exact while sum(W) < 2^31; beyond that (real corpus) promote the
    comparison to per-batch Python ints or rescale both sides."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    total = int(ds.sum("n_chars") or 0)  # None on an empty corpus
    k = 50

    def keep(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        w = b.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = (ids * np.int64(2654435761)) % np.int64(1 << 32)
        return b.filter(pa.array(h * total < k * w * np.int64(1 << 32)))

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_mixture_sample(sf_dir: str):
    """Source-rebalancing mixture sample (the data-mixing primitive):
    downsample every source to the smallest source's total weight so the
    output mixture is ~uniform across sources.  Per-source totals are ONE
    tiny aggregate (n_sources rows — the mixture config is small by
    definition) collected to a dict and closed over by the map filter;
    the inclusion test is integer-exact and shared verbatim with the SQL
    oracle: ((doc_id*2654435761) mod 2^32) * total_src < min_total *
    2^32.  Everything after the scalar aggregate is map-side,
    shard-independent and resumable."""
    import pandas as pd
    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    tot = {r["source"]: int(r["sum(n_chars)"])
           for r in ds.groupby("source").sum("n_chars").take_all()}
    if not tot:  # empty corpus: nothing to rebalance
        return ds
    min_total = min(tot.values())

    def keep(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        h = (df["doc_id"].to_numpy(np.int64) * np.int64(2654435761)) \
            % np.int64(1 << 32)
        ts = df["source"].map(tot).to_numpy(np.int64)
        m = h * ts < min_total * np.int64(1 << 32)
        return pa.Table.from_pandas(df[m], preserve_index=False)

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_inverted_index(sf_dir: str):
    """Posting-list construction (search / dedup-support index): term ->
    comma-joined sorted doc_id list, for terms with document frequency
    in [2, 80% of corpus] (integer-exact: df*10 <= n_docs*8).  Scale
    discipline: hot terms (stopwords) are the hazard, so the df GATE
    runs before any list collection — (term, doc) pairs are map-side
    deduped (globally unique: one doc per batch), df is one native
    combine-able count aggregation (no single-worker hotspot even for
    'the'), and only gated terms (bounded postings) reach the broadcast
    filter / left_semi join + the per-term list build."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import _coalesce_nonempty, _default_parts
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def explode(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "doc_id": b.column("doc_id").to_numpy(zero_copy_only=False),
            "term": b.column("text").to_pandas().str.split(" ").values,
        }).explode("term")
        df = df[df["term"].ne("") & df["term"].notna()] \
            .drop_duplicates(["doc_id", "term"])
        return pa.table({
            "term": pa.array(df["term"].tolist(), pa.string()),
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64))})

    # (term, doc) pairs are GLOBALLY unique already: each doc lives in
    # exactly one batch and explode set-dedups within the doc — so df is
    # one direct combine-able count, no (term, doc) distinct pass needed
    pairs = ds.map_batches(explode, batch_format="pyarrow").materialize()
    parts = _default_parts()
    df_tbl = pairs.map_batches(
        lambda t: t.select(["term"]), batch_format="pyarrow") \
        .groupby("term").count()
    gated = df_tbl.filter(
        lambda r: r["count()"] >= 2 and r["count()"] * 10 <= n_docs * 8) \
        .materialize()
    n_gated = gated.count()
    if n_gated == 0:  # empty gate -> schema-less join crash
        import ray
        return ray.data.from_arrow(
            pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "postings": pa.array([], pa.string())}))
    pairs_sel = pairs
    if n_gated <= 200_000:
        # bounded-broadcast fast path (verify_pairs_jaccard pattern):
        # the gated vocabulary rides the task closure; pairs stream
        # through a map-side membership filter, no join shuffle
        gkeys = pa.array(sorted({r["term"] for r in gated.take_all()}),
                         pa.string())
        kept = pairs_sel.map_batches(
            lambda t: t.filter(pc.is_in(t.column("term"), gkeys)),
            batch_format="pyarrow")
    else:
        kept = pairs_sel.join(
            _coalesce_nonempty(gated, parts).select_columns(["term"]),
            join_type="left_semi", num_partitions=parts, on=("term",))

    def build(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(df["doc_id"].to_numpy(np.int64))
        return pd.DataFrame({
            "term": [df["term"].iloc[0]],
            "df": np.array([len(ids)], np.int64),
            "postings": [",".join(str(i) for i in ids)],
        })

    return kept.groupby("term").map_groups(build, batch_format="pandas")


def _q_quality_classifier(sf_dir: str):
    """Model-based quality filtering (FineWeb/DCLM shape): train a tiny
    logistic regression BY DISTRIBUTED IRLS to imitate a rule gate
    (word-count window), then score every doc map-side.  Each Newton
    iteration is one map_batches pass emitting O(d^2) partials per
    block; no corpus row reaches the driver.  Rows-only (iterative
    Newton is not SQL-expressible); separation/parity pinned in
    tests/test_classifier_ops.py."""
    from pdf_extract_ray.ops.classifier import (logreg_fit_irls,
                                                logreg_score,
                                                text_gate_features)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .materialize()

    def label_fn(b: pa.Table) -> np.ndarray:
        import pandas as pd
        texts = b.column("text").to_pandas().reset_index(drop=True)
        ex = texts.str.split(" ").explode()
        ex = ex[(ex != "") & ex.notna()]
        k = ex.groupby(level=0).size() \
            .reindex(pd.RangeIndex(len(texts)), fill_value=0).to_numpy()
        return ((k >= 15) & (k <= 90)).astype(np.float64)

    beta = logreg_fit_irls(ds, text_gate_features(label_fn=label_fn),
                           dim=4, iters=6)
    return logreg_score(ds, text_gate_features(), beta)


def _q_zscore_by_source(sf_dir: str):
    """Per-group z-score normalization (feature standardization): two
    passes — one tiny per-source aggregate of INTEGER sums (count, sum,
    sum of squares: exact, so no float summation-order skew vs the
    oracle), then a map-side transform with the same IEEE op sequence
    the SQL uses (mean = s1/n; var = (s2 - s1*s1/n)/n; z =
    (x-mean)/sqrt(var)), making the float output bit-identical across
    engines."""
    import pandas as pd
    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def sq(b: pa.Table) -> pa.Table:
        x = b.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"source": b.column("source"),
                         "x": pa.array(x), "xx": pa.array(x * x)})

    from ray.data.aggregate import Count, Sum
    stats = {r["source"]: (int(r["count()"]), int(r["sum(x)"]),
                           int(r["sum(xx)"]))
             for r in ds.map_batches(sq, batch_format="pyarrow")
             .groupby("source")
             .aggregate(Count(), Sum("x"), Sum("xx")).take_all()}
    params = {}
    for s, (n, s1, s2) in stats.items():
        mean = s1 / n
        var = (float(s2) - float(s1) * s1 / n) / n
        if var > 0:
            params[s] = (mean, np.sqrt(var))

    def z(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["source"].isin(params)]
        ms = df["source"].map(lambda s: params[s][0]).to_numpy(np.float64)
        sd = df["source"].map(lambda s: params[s][1]).to_numpy(np.float64)
        x = df["n_chars"].to_numpy(np.float64)
        return pa.table({"doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                         "z": pa.array((x - ms) / sd, pa.float64())})

    return ds.map_batches(z, batch_format="pyarrow")


def _q_doc_rollup(sf_dir: str):
    """ROLLUP-style multi-level aggregate over (source, lang): per-pair,
    per-source subtotal, and grand total in one result (NULL marks the
    rolled-up level, like SQL GROUP BY ROLLUP).  The fine level is ONE
    combine-able aggregation; the coarser levels re-aggregate its TINY
    output (|sources| x |langs| rows) — the corpus is scanned once."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])
    fine = ds.groupby(["source", "lang"]) \
        .aggregate(Count(), Sum("n_chars")).take_all()
    df = _df_from_rows(fine, ["source", "lang", "count()",
                              "sum(n_chars)"]).rename(
        columns={"count()": "n_docs", "sum(n_chars)": "total_chars"})
    levels = [df]
    src = df.groupby("source", as_index=False)[
        ["n_docs", "total_chars"]].sum()
    src["lang"] = None
    levels.append(src)
    grand = pd.DataFrame({"source": [None], "lang": [None],
                          "n_docs": [df["n_docs"].sum()],
                          "total_chars": [df["total_chars"].sum()]})
    levels.append(grand)
    out = pd.concat(levels, ignore_index=True)[
        ["source", "lang", "n_docs", "total_chars"]]
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_chars"] = out["total_chars"].astype(np.int64)
    return out


def _q_lang_pivot(sf_dir: str):
    """Cross-tab / pivot: per-source doc counts with one column per
    language (the reporting shape).  ONE combine-able (source, lang)
    aggregation scans the corpus; the pivot itself reshapes the tiny
    |sources| x |langs| output on the driver.  Language columns are the
    corpus's closed lang domain (de/en/es/fr/zh)."""
    import pandas as pd
    ds = _read(sf_dir, "documents", columns=["source", "lang"])
    fine = ds.groupby(["source", "lang"]).count().take_all()
    df = _df_from_rows(fine, ["source", "lang", "count()"])
    piv = df.pivot_table(index="source", columns="lang",
                         values="count()", aggfunc="sum",
                         fill_value=0)
    out = pd.DataFrame({"source": piv.index})
    for lang in ["de", "en", "es", "fr", "zh"]:
        out[f"n_{lang}"] = (piv[lang].to_numpy(np.int64)
                            if lang in piv.columns
                            else np.zeros(len(piv), np.int64))
    return out.reset_index(drop=True)


def _q_lang_id(sf_dir: str):
    from pdf_extract_ray.ops.textstats import lang_id
    return lang_id(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_incremental_dedup(sf_dir: str):
    """Bloom-filter membership against an existing corpus (the
    incremental-crawl 'seen before?' gate): build over the documents
    texts, probe the corpus plus unseen perturbed docs -> (doc_id,
    maybe_seen).  No false negatives; FP rate set by sizing."""
    from pdf_extract_ray.ops.sketch import bloom_build, bloom_contains
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bloom = bloom_build(docs, "text")
    probe = _with_neardup_copies(docs)  # copies have CHANGED last word
    return bloom_contains(probe, "text", bloom).select_columns(
        ["doc_id", "maybe_seen"])


def _q_lm_scores(sf_dir: str):
    """CCNet-style unigram LM bits/token (model built corpus-side; no
    SQL oracle — two-pass model + float scoring)."""
    from pdf_extract_ray.ops.textstats import lm_perplexity_scores
    return lm_perplexity_scores(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_normalize_text(sf_dir: str):
    from pdf_extract_ray.ops.textstats import normalize_text
    return normalize_text(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]))


def _q_fingerprints(sf_dir: str):
    from pdf_extract_ray.ops.textstats import fingerprints
    return fingerprints(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _with_neardup_copies(ds, every: int = 7):
    """documents + perturbed copies (doc_id + 1_000_000, last word changed)
    so the near-dup operators have true positives to find."""

    def perturb(batch: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % every == 0:
                words = (t or "").split()
                words[-1:] = ["perturbed"]
                ids.append(d + 1_000_000)
                texts.append(" ".join(words))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(texts, pa.string())],
            names=["doc_id", "text"])

    copies = ds.map_batches(perturb, batch_format="pyarrow")
    return ds.union(copies)


def _q_minhash_neardup(sf_dir: str):
    from pdf_extract_ray.ops.dedup import minhash_lsh_pairs
    ds = _with_neardup_copies(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    return minhash_lsh_pairs(ds, threshold=0.5).select_columns(
        ["doc_id_a", "doc_id_b"])


def _q_simhash_neardup(sf_dir: str):
    from pdf_extract_ray.ops.dedup import simhash_pairs
    ds = _with_neardup_copies(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    return simhash_pairs(ds, max_hamming=3).select_columns(
        ["doc_id_a", "doc_id_b", "hamming"])


def _q_ngram_neardup(sf_dir: str):
    from pdf_extract_ray.ops.dedup import minhash_lsh_pairs, verify_pairs_jaccard
    ds = _with_neardup_copies(_read(sf_dir, "documents", columns=["doc_id", "text"]))
    pairs = minhash_lsh_pairs(ds, threshold=0.4)
    return verify_pairs_jaccard(pairs, ds, threshold=0.6).select_columns(
        ["doc_id_a", "doc_id_b"])


def _q_neardup_dedup_survivors(sf_dir: str):
    """Full near-dup DEDUP (not just pair listing): LSH candidates ->
    exact Jaccard verify -> distributed keep-smallest greedy
    (ops/dedup.greedy_drop_ids, the lex-first maximal-independent-set
    peeling) -> drop via broadcast/left_anti.  Every planted perturbed
    copy (doc_id + 1M) must drop; originals survive.  Deterministic
    row count; no SQL oracle (the greedy is a recursive fixpoint)."""
    from pdf_extract_ray.ops.dedup import (drop_rows_by_id, greedy_drop_ids,
                                           minhash_lsh_pairs,
                                           verify_pairs_jaccard)
    ds = _with_neardup_copies(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))
    pairs = minhash_lsh_pairs(ds, threshold=0.4)
    verified = verify_pairs_jaccard(pairs, ds, threshold=0.6)
    drop = greedy_drop_ids(verified.select_columns(["doc_id_a", "doc_id_b"]))
    return drop_rows_by_id(ds, drop).select_columns(["doc_id"])


def _ann_queries(ds, k: int = 10):
    """Query rows = the k smallest vec_ids, selected with a per-batch
    partial min-k + tiny driver merge (no all-to-all sort)."""
    from pdf_extract_ray.ops.similarity import min_k_rows
    head = min_k_rows(ds, "vec_id", k)
    from pdf_extract_ray.ops.similarity import _stack
    qids = head.column("vec_id").to_pylist()
    qvecs = _stack(head.column("embedding"))  # null-embedding safe
    return qids, qvecs


def _q_ann_topk(sf_dir: str):
    from pdf_extract_ray.ops.similarity import brute_force_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    return brute_force_topk(ds, qids, qvecs, k=10)


def _q_ann_topk_lsh(sf_dir: str):
    from pdf_extract_ray.ops.similarity import lsh_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    return lsh_topk(ds, qids, qvecs, dim=64, k=10, n_bits=8, probe_hamming=1)


def _q_ann_topk_ivf(sf_dir: str):
    from pdf_extract_ray.ops.similarity import ivf_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    # n_probe=8/16 scans ~half the lists; on these near-random synthetic
    # embeddings that yields ~0.77 recall@10 (clustered data does better)
    return ivf_topk(ds, qids, qvecs, dim=64, k=10, n_clusters=16, n_probe=8)


def _q_ann_topk_ivfpq(sf_dir: str):
    """IVFADC (ops/similarity.ivfpq_topk): IVF coarse lists + PQ
    residual codes + ADC scan over probed lists — the billion-vector
    index layout.  Rows-only (approximate by design); recall vs the
    exact baseline is graded in ann_recall_report and pinned in
    tests/test_similarity_ops.py on the clustered fixture."""
    from pdf_extract_ray.ops.similarity import ivfpq_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    return ivfpq_topk(ds, qids, qvecs, dim=64, k=10, n_clusters=16,
                      n_probe=8, m=8, pq_k=16, rerank=100)


def _q_ann_recall_report(sf_dir: str):
    """Self-evaluating ANN quality report: recall@10 of the IVF and
    LSH paths against the exact brute-force neighbors, one row per
    method.  Ground truth and approximations are the same distributed
    ops the standalone queries run; the comparison joins three tiny
    (n_queries x k) results on the driver."""
    import pandas as pd
    from pdf_extract_ray.ops.similarity import (brute_force_topk,
                                                ivf_topk, ivfpq_topk,
                                                lsh_topk)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    k = 10
    exact = brute_force_topk(ds, qids, qvecs, k=k).to_pandas()
    truth = exact.groupby("query_id")["neighbor_id"].apply(set)
    rows = []
    for method, res in (
            ("ivf", ivf_topk(ds, qids, qvecs, dim=64, k=k,
                             n_clusters=16, n_probe=8)),
            ("ivfpq", ivfpq_topk(ds, qids, qvecs, dim=64, k=k,
                                 n_clusters=16, n_probe=8,
                                 rerank=100)),
            ("lsh", lsh_topk(ds, qids, qvecs, dim=64, k=k, n_bits=8,
                             probe_hamming=1))):
        got = res.to_pandas().groupby("query_id")["neighbor_id"] \
            .apply(set)
        hits = sum(len(truth[q] & got.get(q, set())) for q in truth.index)
        rows.append({"method": method,
                     "n_queries": np.int64(len(truth)),
                     "recall_at_10": (hits / (k * len(truth))
                                      if len(truth) else 0.0)})
    return pd.DataFrame(rows)


def _q_embedding_neardup(sf_dir: str):
    from pdf_extract_ray.ops.similarity import cosine_neardup_pairs
    import ray
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def perturb(batch: pa.Table) -> pa.Table:
        ids, vecs, labels = [], [], []
        for vid, v, lab in zip(batch.column("vec_id").to_pylist(),
                               batch.column("embedding").to_pylist(),
                               batch.column("label").to_pylist()):
            if vid % 9 == 0:
                if v is None:  # null embeddings have no perturbed twin
                    continue
                vv = np.asarray(v, dtype=np.float32)
                vv[0] += np.float32(0.01)
                ids.append(vid + 1_000_000)
                vecs.append(vv.tolist())
                labels.append(lab)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()),
             pa.array(vecs, pa.list_(pa.float32())),
             pa.array(labels, pa.int32())],
            names=["vec_id", "embedding", "label"])

    full = ds.union(ds.map_batches(perturb, batch_format="pyarrow"))
    return cosine_neardup_pairs(full, dim=64, threshold=0.99).select_columns(
        ["vec_id_a", "vec_id_b"])


def _q_embedding_pca(sf_dir: str):
    """Embedding preprocessing: distributed PCA (per-block moment
    partials -> driver d x d eigh -> broadcast projection; ops/
    similarity.pca_fit/pca_project).  Rows-only (eigendecomposition is
    not SQL-expressible); subspace parity vs local numpy PCA pinned in
    tests."""
    from pdf_extract_ray.ops.similarity import pca_fit, pca_project
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]) \
        .materialize()
    mean, comps = pca_fit(ds, k=8)
    if mean is None:  # empty corpus
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "proj": pa.array([], pa.list_(pa.float64()))})
    return pca_project(ds, mean, comps)


def _q_embedding_label_histogram(sf_dir: str):
    ds = _read(sf_dir, "embeddings", columns=["label"])
    out = ds.groupby("label").count()
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("label"), pa.int32()),
             pc.cast(b.column("count()"), pa.int64())],
            names=["label", "n_vecs"]),
        batch_format="pyarrow")


def _q_image_features(sf_dir: str):
    """Multimodal stage over mixed payloads: every 5th doc gets a REAL
    deterministic image — rotating PNG / baseline JPEG / PROGRESSIVE
    JPEG (SOF2, successive approximation) containers, all decoded for
    real by ops/codecs.py — the rest raw text bytes (declared
    fake-decode fallback)."""
    from pdf_extract_ray.ops.codecs import (encode_jpeg,
                                            encode_jpeg_progressive,
                                            encode_png)
    from pdf_extract_ray.ops.multimodal import image_features

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads = []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 5 == 0:
                side = 4 + d % 8
                img = (np.arange(side * side * 3, dtype=np.int64)
                       * (d + 7)) % 256
                if d % 20 == 0:
                    enc = (lambda im: encode_jpeg_progressive(
                        im, successive=True))
                elif d % 10 == 0:
                    enc = encode_jpeg
                else:
                    enc = encode_png
                payloads.append(enc(
                    img.astype(np.uint8).reshape(side, side, 3)))
            else:
                payloads.append(t.encode("utf-8"))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(payloads, pa.binary())],
            names=["item_id", "payload"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return image_features(ds.map_batches(to_payload, batch_format="pyarrow"))


def _q_image_dedup(sf_dir: str):
    """Perceptual image dedup over mixed payloads: docs with the same
    d % 40 render IDENTICAL pixels but alternate between PNG and BMP
    containers, so byte-level dedup cannot group them — the dHash
    stage (real stdlib decode) + one 16 B/image aggregation shuffle
    does (ops/multimodal.image_dhash_groups).  Rows-only: image
    decode is not SQL-expressible; planted-duplicate recovery is
    pytest-pinned."""
    from pdf_extract_ray.ops.codecs import encode_bmp, encode_png
    from pdf_extract_ray.ops.multimodal import image_dhash_groups

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads, ids = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 5 == 0:
                k = d % 40
                side = 6 + k % 6
                img = ((np.arange(side * side * 3, dtype=np.int64)
                        * (k + 7)) % 256).astype(np.uint8) \
                    .reshape(side, side, 3)
                enc = encode_png if (d // 5) % 2 == 0 else encode_bmp
                payloads.append(enc(img))
            else:
                payloads.append(t.encode("utf-8"))
            ids.append(d)
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary())],
            names=["item_id", "payload"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return image_dhash_groups(
        ds.map_batches(to_payload, batch_format="pyarrow"))


def _q_image_resize(sf_dir: str):
    """Multimodal resize stage: decode (real for the PNG subset),
    nearest-neighbor resample to 16x16, raw uint8 pixels out
    (ops/multimodal.resize_images; declared-fake pseudo-image for
    non-stdlib formats keeps the stage total)."""
    from pdf_extract_ray.ops.codecs import encode_png
    from pdf_extract_ray.ops.multimodal import resize_images

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads = []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 5 == 0:
                side = 4 + d % 8
                img = (np.arange(side * side * 3, dtype=np.int64)
                       * (d + 7)) % 256
                payloads.append(encode_png(
                    img.astype(np.uint8).reshape(side, side, 3)))
            else:
                payloads.append(t.encode("utf-8"))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(payloads, pa.binary())],
            names=["item_id", "payload"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return resize_images(ds.map_batches(to_payload,
                                        batch_format="pyarrow"),
                         width=16, height=16)


def _q_audio_features(sf_dir: str):
    """Audio stage over REAL deterministic WAV payloads (stdlib decode):
    per-doc sine tones, true duration/rate + RMS envelope features."""
    from pdf_extract_ray.ops.codecs import encode_wav
    from pdf_extract_ray.ops.multimodal import audio_features

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads = []
        for d in batch.column("doc_id").to_pylist():
            n = 800 + (d % 5) * 400
            t = np.arange(n, dtype=np.float64)
            wave = 0.4 * np.sin(2 * np.pi * (110 + d % 440) * t / 8000.0)
            payloads.append(encode_wav(wave.reshape(-1, 1), 8000))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(payloads, pa.binary())],
            names=["item_id", "payload"])

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return audio_features(ds.map_batches(to_payload, batch_format="pyarrow"))


def _q_frame_samples(sf_dir: str):
    """Every 7th doc gets a REAL MJPEG AVI (deterministic frames;
    container walk + per-frame JPEG decode, sigs over decoded RGB);
    every 7th+3 doc gets a REAL MP4 container (moov/stbl sample tables
    -> actual frame byte ranges, stss keyframe seeks, sigs over the
    coded sample payloads, status='container'); the rest raw text
    bytes (declared fake path)."""
    from pdf_extract_ray.ops.codecs import build_mp4, encode_avi_mjpeg
    from pdf_extract_ray.ops.multimodal import sample_frames

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads = []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 7 == 0:
                side = 8 + d % 8
                frames = [((np.arange(side * side * 3, dtype=np.int64)
                            * (d + fi + 3)) % 256).astype(np.uint8)
                          .reshape(side, side, 3)
                          for fi in range(1 + d % 4)]
                payloads.append(encode_avi_mjpeg(frames))
            elif d % 7 == 3:
                aus = [bytes([(d + fi) % 256]) * (40 + (d + fi) % 64)
                       for fi in range(4 + d % 9)]
                payloads.append(build_mp4(aus, sync_every=3,
                                          samples_per_chunk=4))
            else:
                payloads.append((t * 50).encode("utf-8"))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(payloads, pa.binary())],
            names=["item_id", "payload"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return sample_frames(ds.map_batches(to_payload, batch_format="pyarrow"),
                         every_n=2)


def _q_events_hourly(sf_dir: str):
    from pdf_extract_ray.ops.events import hourly_event_stats
    return hourly_event_stats(
        _read(sf_dir, "events", columns=["ts", "event_type", "value"]))


def _q_sessionize(sf_dir: str):
    from pdf_extract_ray.ops.events import sessionize
    return sessionize(_read(sf_dir, "events", columns=["user_id", "ts"]),
                      gap_minutes=30)


def _q_sessionize_salted(sf_dir: str):
    from pdf_extract_ray.ops.events import sessionize_salted
    return sessionize_salted(
        _read(sf_dir, "events", columns=["user_id", "ts"]), gap_minutes=30)


def _q_top_customers(sf_dir: str):
    from pdf_extract_ray.ops.events import top_customers_by_spend
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    return top_customers_by_spend(orders, cust, k=10)


def _q_tpch_q1(sf_dir: str):
    from pdf_extract_ray.ops.relational import pricing_summary
    return pricing_summary(
        _read(sf_dir, "lineitem",
              columns=["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice", "l_discount", "l_tax",
                       "l_shipdate"]))


def _q_revenue_by_nation(sf_dir: str):
    from pdf_extract_ray.ops.relational import revenue_by_nation
    return revenue_by_nation(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]))


def _q_asof_join(sf_dir: str):
    from pdf_extract_ray.ops.relational import asof_join_orders
    return asof_join_orders(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]))


def _q_asof_join_left(sf_dir: str):
    """Left as-of join against big orders only: users with no qualifying
    order keep their events with the (-1, epoch) sentinel."""
    from pdf_extract_ray.ops.relational import asof_join_orders
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_totalprice"])
    big = orders.map_batches(
        lambda b: b.filter(pc.greater(b.column("o_totalprice"),
                                      pa.scalar(300000.0)))
        .drop_columns(["o_totalprice"]),
        batch_format="pyarrow")
    return asof_join_orders(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]),
        big, how="left")


def _q_asof_join_salted(sf_dir: str):
    """Same as-of semantics through the hot-key-salted path (the big
    shuffle keys on (user, 90-day bucket), never a whole user) — same
    oracle as asof_join."""
    from pdf_extract_ray.ops.relational import asof_join_orders_salted
    return asof_join_orders_salted(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        salt_days=90)


def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: lineitem x part conditional revenue over a
    shipdate year.  The part dim is ~0.3% of lineitem rows, so the
    promo-partkey SET is collected once and rides the task closure
    (broadcast) — the fact table never shuffles at all; per-batch
    partial (promo, total) sums reduce to one row.  With a dim too big
    to broadcast, fall back to the revenue_by_nation hash-join path."""
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    promo = part.filter(lambda r: r["p_type"] == "PROMO") \
        .select_columns(["p_partkey"]).take_all()
    promo_keys = np.sort(np.array([r["p_partkey"] for r in promo],
                                  dtype=np.int64))
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])
    lo = np.datetime64("1998-01-01")
    hi = np.datetime64("1999-01-01")

    def partial(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate").to_numpy(zero_copy_only=False)
        m = (ship >= lo) & (ship < hi)
        pk = b.column("l_partkey").to_numpy(zero_copy_only=False)[m]
        rev = (b.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
               * (1.0 - b.column("l_discount")
                  .to_numpy(zero_copy_only=False)[m]))
        idx = np.searchsorted(promo_keys, pk)
        idx[idx >= len(promo_keys)] = 0
        is_promo = promo_keys[idx] == pk if len(promo_keys) else \
            np.zeros(len(pk), bool)
        return pa.table({
            "promo": pa.array([float(rev[is_promo].sum())], pa.float64()),
            "total": pa.array([float(rev.sum())], pa.float64()),
            "n": pa.array([int(m.sum())], pa.int64())})

    parts = li.map_batches(partial, batch_format="pyarrow").take_all()
    promo_sum = sum(r["promo"] for r in parts)
    total_sum = sum(r["total"] for r in parts)
    n = sum(r["n"] for r in parts)
    return pa.table({
        "promo_revenue_cents": pa.array([int(round(promo_sum * 100))],
                                        pa.int64()),
        "total_revenue_cents": pa.array([int(round(total_sum * 100))],
                                        pa.int64()),
        "n_rows": pa.array([n], pa.int64())})


def _q_revenue_by_region(sf_dir: str):
    """Snowflake rollup: lineitem revenue by supplier REGION through the
    supplier -> nation -> region dim chain.  All three dims are tiny by
    construction (supplier 0.2% of lineitem; nation 25; region 5) and
    compose into ONE suppkey->region_name lookup on the driver,
    broadcast via the task closure; the fact scan emits per-batch
    partial sums per region (<= 5 x n_blocks rows) into a final tiny
    groupby."""
    import pandas as pd
    sup = {r["s_suppkey"]: r["s_nationkey"]
           for r in _read(sf_dir, "supplier",
                          columns=["s_suppkey", "s_nationkey"]).take_all()}
    nat = {r["n_nationkey"]: r["n_regionkey"]
           for r in _read(sf_dir, "nation",
                          columns=["n_nationkey", "n_regionkey"]).take_all()}
    reg = {r["r_regionkey"]: r["r_name"]
           for r in _read(sf_dir, "region",
                          columns=["r_regionkey", "r_name"]).take_all()}
    # inner-join semantics: suppliers whose nation/region rows are
    # missing (filtered or degenerate dims) simply contribute nothing
    lookup = {sk: reg[nat[nk]] for sk, nk in sup.items()
              if nk in nat and nat[nk] in reg}
    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        rev = df["l_extendedprice"].to_numpy() \
            * (1.0 - df["l_discount"].to_numpy())
        names = df["l_suppkey"].map(lookup)
        g = pd.DataFrame({"r_name": names, "rev": rev, "one": 1}) \
            .groupby("r_name", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum
    agg = li.map_batches(partial, batch_format="pyarrow") \
        .groupby("r_name").aggregate(Sum("rev"), Sum("one"))

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"r_name": pa.array([], pa.string()),
                             "revenue_cents": pa.array([], pa.int64()),
                             "n_items": pa.array([], pa.int64())})
        rev = t.column("sum(rev)").to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": t.column("r_name"),
            "revenue_cents": pa.array(
                [int(round(v * 100)) for v in rev], pa.int64()),
            "n_items": pc.cast(t.column("sum(one)"), pa.int64())})

    return agg.map_batches(final, batch_format="pyarrow")


def _q_redact_pii(sf_dir: str):
    """PII scrub (emails/IPv4/US phones -> placeholders): zero-shuffle
    vectorized RE2 over Arrow string columns (ops/textstats.redact_pii).
    The DuckDB oracle runs the SAME RE2 patterns via regexp_replace —
    engine agreement on planted PII is pinned in tests (the synthetic
    corpus itself is match-free, so the oracle here verifies
    pass-through fidelity)."""
    from pdf_extract_ray.ops.textstats import redact_pii
    return redact_pii(_read(sf_dir, "documents",
                            columns=["doc_id", "text"]))


def _q_props_k_stats(sf_dir: str):
    """Nested/JSON payload extraction: pull the integer `k` field out of
    the events.props JSON string with ONE vectorized RE2 extract (no
    per-row json.loads), then a native per-type aggregate.  The oracle
    uses the same RE2 via DuckDB regexp_extract, so both engines parse
    identically."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b.column("props"), r'"k": (?P<k>-?[0-9]+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": b.column("event_type"), "k": k})

    from ray.data.aggregate import Count, Max, Sum
    agg = ds.map_batches(extract, batch_format="pyarrow") \
        .groupby("event_type").aggregate(Sum("k"), Max("k"), Count())

    def rename(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "total_k": pa.array([], pa.int64()),
                             "max_k": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64())})
        return pa.table({
            "event_type": t.column("event_type"),
            "total_k": pc.cast(t.column("sum(k)"), pa.int64()),
            "max_k": pc.cast(t.column("max(k)"), pa.int64()),
            "n_events": pc.cast(t.column("count()"), pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow")


def _q_customer_order_coverage(sf_dir: str):
    """FULL OUTER coverage report: every customer (with or without
    orders) and every order-side custkey (known or orphaned) ->
    (custkey, n_orders, known_customer).  ONE custkey-partitioned
    shuffle (the revenue_by_nation shape): orders partial-count per
    custkey map-side, union with tagged customer keys, and each
    partition emits its keys' merged coverage rows — full-outer
    semantics with no join actors (was groupby + native full_outer:
    two exchanges + spin-up)."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def opart(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"key": b.column("o_custkey").to_numpy(
            zero_copy_only=False).astype(np.int64)})
        g = df.groupby("key", sort=False).size()
        return pa.table({
            "key": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g.to_numpy(np.int64)),
            "known": pa.array(np.zeros(len(g), bool))})

    def cpart(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "key": pc.cast(b.column("c_custkey"), pa.int64()),
            "n": pa.array(np.zeros(n, np.int64)),
            "known": pa.array(np.ones(n, bool))})

    both = orders.map_batches(opart, batch_format="pyarrow").union(
        cust.map_batches(cpart, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"custkey": "int64", "n_orders": "int64",
                "known_customer": "bool"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = df.groupby("key", sort=False).agg(
            n_orders=("n", "sum"), known_customer=("known", "max"))
        return pd.DataFrame({
            "custkey": g.index.to_numpy(np.int64),
            "n_orders": g["n_orders"].to_numpy(np.int64),
            "known_customer": g["known_customer"].to_numpy(bool)})

    return _grouped_by_partition(both, ["key"], resolve,
                                 n_parts=_default_parts())


def _q_heavy_hitters(sf_dir: str):
    """Exact heavy-hitter words (count*30 >= corpus words) via two-pass
    Misra-Gries — candidate summaries are O(blocks x 60) rows, the exact
    recount is candidate-filtered map-side, and NO vocabulary-sized
    shuffle ever happens (ops/sketch.heavy_hitter_words)."""
    from pdf_extract_ray.ops.sketch import heavy_hitter_words
    return heavy_hitter_words(
        _read(sf_dir, "documents", columns=["text"]), ratio=30)


def _q_running_totals(sf_dir: str):
    """Per-user running-sum window (ROWS UNBOUNDED PRECEDING) — the
    prefix-aggregation shape (ops/events.running_totals): one
    partition-level shuffle, in-partition lexsort + grouped sequential
    cumsum, accumulation order pinned to (ts, event_id) on both
    engines."""
    from pdf_extract_ray.ops.events import running_totals
    return running_totals(_read(sf_dir, "events",
                                columns=["event_id", "user_id", "ts",
                                         "value"]))


def _q_big_spender_customers(sf_dir: str):
    from pdf_extract_ray.ops.relational import customers_with_big_orders
    return customers_with_big_orders(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        min_total=400000.0)


def _q_quiet_customers(sf_dir: str):
    from pdf_extract_ray.ops.relational import customers_without_big_orders
    return customers_without_big_orders(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        min_total=400000.0)


def _q_word_frequencies(sf_dir: str):
    from pdf_extract_ray.ops.analytics import word_frequencies
    return word_frequencies(_read(sf_dir, "documents", columns=["text"]),
                            k=100)


def _q_distinct_users(sf_dir: str):
    from pdf_extract_ray.ops.analytics import distinct_count
    return distinct_count(
        _read(sf_dir, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id")


def _q_top_docs_per_lang(sf_dir: str):
    from pdf_extract_ray.ops.analytics import topk_per_group
    return topk_per_group(
        _read(sf_dir, "documents", columns=["lang", "doc_id", "n_chars"]),
        "lang", "n_chars", "doc_id", k=3)


def _q_sliding_window_counts(sf_dir: str):
    from pdf_extract_ray.ops.events import sliding_window_counts
    return sliding_window_counts(
        _read(sf_dir, "events", columns=["ts", "event_type"]),
        window_minutes=60, slide_minutes=15)


def _q_label_centroids(sf_dir: str):
    from pdf_extract_ray.ops.similarity import label_centroids
    return label_centroids(
        _read(sf_dir, "embeddings", columns=["label", "embedding"]), dim=64)


def _q_approx_value_quantiles(sf_dir: str):
    """Mergeable centroid quantile sketch (approximate by design — no SQL
    oracle; tests bound rank error at 1%)."""
    from pdf_extract_ray.ops.sketch import approx_quantiles
    return approx_quantiles(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        "event_type", "value", (0.5, 0.95, 0.99))


def _q_approx_distinct_users(sf_dir: str):
    """HLL sketch counterpart of distinct_users (approximate by design —
    no SQL oracle; tests verify <5% error vs the exact operator)."""
    from pdf_extract_ray.ops.sketch import approx_distinct_count
    return approx_distinct_count(
        _read(sf_dir, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id")


def _q_cms_word_counts(sf_dir: str):
    """Count-Min sketch word counts (Cormode-Muthukrishnan): mergeable
    (depth x width) partials per block, broadcast query pass.
    Approximate by design — no SQL oracle; tests pin the one-sided CM
    guarantee (approx >= exact, always) against word_frequencies
    (ops/sketch.cms_word_counts)."""
    from pdf_extract_ray.ops.sketch import cms_word_counts
    return cms_word_counts(_read(sf_dir, "documents", columns=["text"]))


def _q_chars_width_histogram(sf_dir: str):
    """Equal-width n_chars histogram per source (floor-division
    bucketing, map-side partial counts — shuffle payload is groups x
    buckets, never rows; ops/analytics.grouped_histogram)."""
    from pdf_extract_ray.ops.analytics import grouped_histogram
    return grouped_histogram(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars", bucket_width=100)


def _q_median_chars_by_source(sf_dir: str):
    from pdf_extract_ray.ops.analytics import grouped_median
    return grouped_median(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3: top-10 open BUILDING-segment orders by revenue —
    segment semi-join + map-side int-cent revenue pre-agg + partial
    top-k (no global sort)."""
    from pdf_extract_ray.ops.relational import shipping_priority
    return shipping_priority(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_extendedprice", "l_discount",
                       "l_shipdate"]))


def _q_order_priority_counts(sf_dir: str):
    """TPC-H Q4: correlated EXISTS decorrelated into a per-order max +
    one hash join."""
    from pdf_extract_ray.ops.relational import order_priority_counts
    return order_priority_counts(
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_orderdate", "o_orderpriority"]),
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"]))


def _q_large_volume_customers(sf_dir: str):
    """TPC-H Q18: HAVING sum(qty) > 250, then join back to orders +
    customer (sequenced hash joins over the qualifying few)."""
    from pdf_extract_ray.ops.relational import large_volume_customers
    return large_volume_customers(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate",
                       "o_totalprice"]),
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"]))


def _q_orders_above_avg(sf_dir: str):
    """Correlated scalar subquery (price > customer's avg) decorrelated
    to groupby + join-back; integer cross-multiplication inclusion test
    so no float boundary can flip a row."""
    from pdf_extract_ray.ops.relational import orders_above_customer_avg
    return orders_above_customer_avg(
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_totalprice"]))


def _q_chars_percentiles_by_source(sf_dir: str):
    """Exact discrete p25/p50/p75/p95 per source from ONE histogram
    aggregate (integer-exact index arithmetic, no global sort)."""
    from pdf_extract_ray.ops.analytics import grouped_percentiles
    return grouped_percentiles(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_chars_mode_by_source(sf_dir: str):
    """Most frequent n_chars per source (ties -> smallest value), one
    histogram aggregate + per-group argmax."""
    from pdf_extract_ray.ops.analytics import grouped_mode
    return grouped_mode(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_doc_cube(sf_dir: str):
    """CUBE-style aggregate over (source, lang): all four grouping sets
    from ONE corpus scan — the coarser three re-aggregate the tiny fine
    output (the doc_rollup shape plus the lang-only set)."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])
    fine = ds.groupby(["source", "lang"]) \
        .aggregate(Count(), Sum("n_chars")).take_all()
    df = _df_from_rows(fine, ["source", "lang", "count()",
                              "sum(n_chars)"]).rename(
        columns={"count()": "n_docs", "sum(n_chars)": "total_chars"})
    levels = [df]
    for keep in ("source", "lang"):
        sub = df.groupby(keep, as_index=False)[
            ["n_docs", "total_chars"]].sum()
        sub["lang" if keep == "source" else "source"] = None
        levels.append(sub)
    grand = pd.DataFrame({"source": [None], "lang": [None],
                          "n_docs": [df["n_docs"].sum()],
                          "total_chars": [df["total_chars"].sum()]})
    levels.append(grand)
    out = pd.concat(levels, ignore_index=True)[
        ["source", "lang", "n_docs", "total_chars"]]
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_chars"] = out["total_chars"].astype(np.int64)
    return out


def _q_shared_user_ids(sf_dir: str):
    """INTERSECT set op across two tables: ids present in BOTH events
    and orders.  Map-side per-batch key dedup tags each side; ONE
    id-partitioned pass takes Min/Max of the tag per id — no join, the
    exchange carries distinct (id, tag) pairs only."""
    ev = _read(sf_dir, "events", columns=["user_id"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def tag(col, side):
        def fn(b: pa.Table) -> pa.Table:
            keys = pc.unique(pc.cast(b.column(col), pa.int64()))
            return pa.table({
                "user_id": keys,
                "side": pa.array(
                    np.full(len(keys), side, np.int8), pa.int8())})
        return fn

    both = ev.map_batches(tag("user_id", 1), batch_format="pyarrow") \
        .union(orders.map_batches(tag("o_custkey", 2),
                                  batch_format="pyarrow"))

    import pandas as pd
    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series([],
                                                      dtype=np.int64)})
        g = df.groupby("user_id", sort=False)["side"].agg(["min", "max"])
        keep = g[(g["min"] == 1) & (g["max"] == 2)]
        return pd.DataFrame({"user_id": keep.index.to_numpy(np.int64)})

    return _grouped_by_partition(both, ["user_id"], resolve,
                                 n_parts=_default_parts())


def _q_event_transitions(sf_dir: str):
    """Markov transition counts per (prev_type -> type) within each
    user's ordered stream (LAG over strings + two-level count merge)."""
    from pdf_extract_ray.ops.events import event_transitions
    return event_transitions(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_latest_event_per_user(sf_dir: str):
    """Combinable ARGMAX: per-batch partial argmax per user + one
    id-partitioned global pick (no sort, no join)."""
    from pdf_extract_ray.ops.events import latest_event_per_user
    return latest_event_per_user(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_fuzzy_decontaminate(sf_dir: str):
    """Per-pair exact n-gram Jaccard vs the benchmark slice (broadcast
    postings, map-only train side, integer inclusion test)."""
    from pdf_extract_ray.ops.corpus import fuzzy_decontaminate
    return fuzzy_decontaminate(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_chars_rank_by_source(sf_dir: str):
    """Per-row RANK/DENSE_RANK window with NO row shuffle: value-based
    ranks come from a broadcast (source, n_chars) histogram."""
    from pdf_extract_ray.ops.analytics import grouped_value_ranks
    return grouped_value_ranks(
        _read(sf_dir, "documents", columns=["doc_id", "source",
                                            "n_chars"]),
        "source", "n_chars", "doc_id")


def _q_event_gaps(sf_dir: str):
    """LAG window: per-user previous-event gap in exact integer
    microseconds (-1 sentinel on each user's first event)."""
    from pdf_extract_ray.ops.events import event_gaps
    return event_gaps(_read(sf_dir, "events",
                            columns=["event_id", "user_id", "ts"]))


def _q_event_next_gaps(sf_dir: str):
    """LEAD window: per-user NEXT-event gap in exact integer
    microseconds (-1 sentinel on each user's last event) — the
    event_gaps kernel mirrored forward."""
    from pdf_extract_ray.ops.events import event_next_gaps
    return event_next_gaps(_read(sf_dir, "events",
                                 columns=["event_id", "user_id", "ts"]))


def _q_value_share(sf_dir: str):
    """Ratio-to-report window (share of the event_type total) with NO
    row shuffle: the |types|-sized denominator table is a map-side
    partial sum merged on the driver and broadcast back.  Integer-exact
    (cents rows, floor-ppm shares)."""
    from pdf_extract_ray.ops.events import value_share
    return value_share(_read(sf_dir, "events",
                             columns=["event_id", "event_type", "value"]))


def _q_doc_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((source),(lang)) — disjoint grouping
    sets (neither a rollup nor a cube): ONE combine-able (source, lang)
    corpus scan; both sets re-aggregate its tiny |sources| x |langs|
    output on the driver (the doc_rollup shape)."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])
    fine = ds.groupby(["source", "lang"]) \
        .aggregate(Count(), Sum("n_chars")).take_all()
    df = _df_from_rows(fine, ["source", "lang", "count()",
                              "sum(n_chars)"]).rename(
        columns={"count()": "n_docs", "sum(n_chars)": "total_chars"})
    by_src = df.groupby("source", as_index=False)[
        ["n_docs", "total_chars"]].sum()
    by_src["lang"] = None
    by_lang = df.groupby("lang", as_index=False)[
        ["n_docs", "total_chars"]].sum()
    by_lang["source"] = None
    out = pd.concat([by_src, by_lang], ignore_index=True)[
        ["source", "lang", "n_docs", "total_chars"]]
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["total_chars"] = out["total_chars"].astype(np.int64)
    return out


def _q_bpe_encode_stats(sf_dir: str):
    """BPE tokenization applied at corpus scale: learn merge rules on
    the bounded word-frequency table (bpe_merges), then a MAP-ONLY
    encode pass (per-actor memoized unique-word encoding) emitting only
    per-source partial sums.  Iterative merge application -> rows-only;
    greedy-vs-replay parity is pytest-frozen
    (ops/textstats.bpe_encode_stats)."""
    from pdf_extract_ray.ops.textstats import bpe_learn, bpe_encode_stats
    merges = bpe_learn(_read(sf_dir, "documents", columns=["text"]),
                       n_merges=30, vocab_k=10_000)
    return bpe_encode_stats(
        _read(sf_dir, "documents", columns=["source", "text"]), merges)


def _q_bloom_semi_revenue(sf_dir: str):
    """Bloom-pushdown semi-join: the dim side's Bloom filter (fixed
    m/8 bytes however many keys) is pushed into the fact scan so the
    map-side prefilter drops non-matching rows BEFORE the one keyed
    exchange; the partition pass re-checks membership exactly, so FPs
    never reach the result (ops/relational.bloom_semi_revenue)."""
    from pdf_extract_ray.ops.relational import bloom_semi_revenue
    return bloom_semi_revenue(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand",
                                       "p_size"]),
        max_size=10)


def _q_training_shards(sf_dir: str):
    """Deterministic global shuffle into training shards (the 'write
    the training mix' primitive): shard = md5(id) high-32 mod 16, pos =
    rank within shard by md5 hex — reproducible shard-independently,
    ONE shard-keyed partition pass (ops/corpus.training_shards)."""
    from pdf_extract_ray.ops.corpus import training_shards
    return training_shards(_read(sf_dir, "documents",
                                 columns=["doc_id"]), n_shards=16)


def _q_all_user_ids(sf_dir: str):
    """UNION (distinct) set op across two tables — the third of the
    set-op family (INTERSECT = shared_user_ids, EXCEPT = except_users).
    Map-side per-batch key dedup on each side; ONE id-partitioned
    distinct pass — no join, the exchange carries distinct ids only."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ev = _read(sf_dir, "events", columns=["user_id"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def dedup(col):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({"user_id": pc.unique(
                pc.cast(b.column(col), pa.int64()))})
        return fn

    both = ev.map_batches(dedup("user_id"), batch_format="pyarrow") \
        .union(orders.map_batches(dedup("o_custkey"),
                                  batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": np.unique(
            df["user_id"].to_numpy(np.int64))})

    return _grouped_by_partition(both, ["user_id"], resolve,
                                 n_parts=_default_parts())


def _q_chars_token_regression(sf_dir: str):
    """REGR_SLOPE/REGR_INTERCEPT per source (token count ~ n_chars)
    from exact integer moment partials; one double divide per group in
    the oracle's own IEEE op order -> bit-identical floats
    (ops/analytics.grouped_regression)."""
    from pdf_extract_ray.ops.analytics import grouped_regression
    ds = _read(sf_dir, "documents", columns=["source", "n_chars",
                                             "text"])

    def add_tokens(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pandas()
        nsp = texts.str.count(" ").to_numpy(np.int64)
        nlen = texts.str.len().to_numpy(np.int64)
        y = np.where(nlen > 0, nsp + 1, 0)
        return pa.table({"source": b.column("source"),
                         "x": pc.cast(b.column("n_chars"), pa.int64()),
                         "y": pa.array(y, pa.int64())})

    return grouped_regression(
        ds.map_batches(add_tokens, batch_format="pyarrow"),
        "source", "x", "y")


def _q_winsorized_chars(sf_dir: str):
    """Percentile winsorization (feature clipping): clamp n_chars to
    each source's [p10, p90].  Pass 1 is the bounded (group, value)
    histogram percentile aggregate (grouped_percentiles — shuffles
    carry value counts, never rows); the tiny per-source bounds
    broadcast via ray.put and pass 2 is a MAP-ONLY clamp.
    Integer-exact (quantile_disc index math), zero row shuffles."""
    import ray
    from pdf_extract_ray.ops.analytics import grouped_percentiles
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])
    q = grouped_percentiles(ds, "source", "n_chars",
                            percents=(10, 90)).take_all()
    bounds = {r["source"]: (int(r["p10"]), int(r["p90"])) for r in q}
    ref = ray.put(bounds)

    def clamp(b: pa.Table) -> pa.Table:
        bd = ray.get(ref)
        src = b.column("source").to_pandas()
        lo = src.map(lambda s: bd[s][0]).to_numpy(np.int64)
        hi = src.map(lambda s: bd[s][1]).to_numpy(np.int64)
        x = b.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "source": b.column("source"),
            "n_chars": pa.array(x, pa.int64()),
            "clamped": pa.array(np.minimum(np.maximum(x, lo), hi),
                                pa.int64())})

    return ds.map_batches(clamp, batch_format="pyarrow")


def _q_except_users(sf_dir: str):
    """EXCEPT set op: order custkeys that never appear as an event
    user.  Same tagged-union shape as shared_user_ids (INTERSECT) —
    map-side per-batch key dedup, ONE id-partitioned Max-of-tag pass,
    no join."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ev = _read(sf_dir, "events", columns=["user_id"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def tag(col, side):
        def fn(b: pa.Table) -> pa.Table:
            keys = pc.unique(pc.cast(b.column(col), pa.int64()))
            return pa.table({
                "user_id": keys,
                "side": pa.array(
                    np.full(len(keys), side, np.int8), pa.int8())})
        return fn

    both = orders.map_batches(tag("o_custkey", 1),
                              batch_format="pyarrow") \
        .union(ev.map_batches(tag("user_id", 2),
                              batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series([],
                                                      dtype=np.int64)})
        g = df.groupby("user_id", sort=False)["side"].max()
        keep = g[g == 1]
        return pd.DataFrame({"user_id": keep.index.to_numpy(np.int64)})

    return _grouped_by_partition(both, ["user_id"], resolve,
                                 n_parts=_default_parts())


def _q_cust_order_distribution(sf_dir: str):
    """TPC-H Q13 shape: orders-per-customer histogram including
    zero-order customers — one custkey shuffle emitting per-partition
    partial histograms (ops/relational.customer_order_distribution)."""
    from pdf_extract_ray.ops.relational import customer_order_distribution
    return customer_order_distribution(
        _read(sf_dir, "customer", columns=["c_custkey"]),
        _read(sf_dir, "orders", columns=["o_custkey"]))


def _q_brand_suppliers(sf_dir: str):
    """TPC-H Q16 shape: distinct suppliers per part brand — partkey
    shuffle attaches the dim attribute with no join actors and no
    fact-sized broadcast (ops/relational.brand_supplier_distinct)."""
    from pdf_extract_ray.ops.relational import brand_supplier_distinct
    return brand_supplier_distinct(
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand"]))


def _q_rich_quiet_customers(sf_dir: str):
    """TPC-H Q22 shape: above-average-balance customers with no big
    order, per nation.  Integer cross-multiplication inclusion test +
    one anti-semantics id pass (ops/relational.rich_quiet_customers)."""
    from pdf_extract_ray.ops.relational import rich_quiet_customers
    return rich_quiet_customers(
        _read(sf_dir, "customer",
              columns=["c_custkey", "c_nationkey", "c_acctbal"]),
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        big_order_total=300000.0)


def _q_window3_sums(sf_dir: str):
    """Bounded-frame window (ROWS BETWEEN 2 PRECEDING AND CURRENT):
    per-user 3-event cent sums via one shuffle + vectorized
    prefix-difference (ops/events.window3_sums)."""
    from pdf_extract_ray.ops.events import window3_sums
    return window3_sums(_read(sf_dir, "events",
                              columns=["event_id", "user_id", "ts",
                                       "value"]))


def _q_rolling_median(sf_dir: str):
    """Rolling 5-event discrete median per user (windowed
    quantile_disc): one user-keyed pass, per-width sorted sliding
    windows, integer cents (ops/events.rolling_median)."""
    from pdf_extract_ray.ops.events import rolling_median
    return rolling_median(_read(sf_dir, "events",
                                columns=["event_id", "user_id", "ts",
                                         "value"]), window=5)


def _q_attributed_purchases(sf_dir: str):
    """Last-touch attribution (purchase -> latest preceding click/view
    within 24h, -1 sentinel): one user-keyed pass over the shared
    segmented as-of kernel (ops/events.attribute_purchases)."""
    from pdf_extract_ray.ops.events import attribute_purchases
    return attribute_purchases(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_retention_cohorts_cal(sf_dir: str):
    """Weekly retention triangle (cohort = Monday week of first event;
    distinct active users per (cohort, offset) cell): map-side
    (user, week) dedup + one user-keyed partition pass with exact
    partial counts (ops/events.retention_cohorts_cal)."""
    from pdf_extract_ray.ops.events import retention_cohorts_cal
    return retention_cohorts_cal(_read(sf_dir, "events",
                                       columns=["user_id", "ts"]))


def _q_user_paths(sf_dir: str):
    """First-3 event-type path per user, counted across users: one
    user-keyed pass, segmented head-k + column-wise path assembly
    (ops/events.user_paths)."""
    from pdf_extract_ray.ops.events import user_paths
    return user_paths(_read(sf_dir, "events",
                            columns=["event_id", "user_id", "ts",
                                     "event_type"]), k=3)


def _q_gram_edit_pairs(sf_dir: str):
    """Edit-distance-1 pairs over distinct char 4-grams (SymSpell
    positional-deletion buckets; exactly-once emission, no verify/
    dedup pass needed for fixed-length grams)
    (ops/corpus.gram_edit_pairs)."""
    from pdf_extract_ray.ops.corpus import gram_edit_pairs
    return gram_edit_pairs(_read(sf_dir, "documents",
                                 columns=["doc_id", "text"]), n=4)


def _q_remove_dup_spans(sf_dir: str):
    """Exact duplicate-span REMOVAL (Lee et al. 2022 action): words
    covered by any corpus-duplicated 5-gram dropped, text rebuilt.
    Two bounded exchanges, zero joins (ops/corpus.remove_dup_spans)."""
    from pdf_extract_ray.ops.corpus import remove_dup_spans
    return remove_dup_spans(_read(sf_dir, "documents",
                                  columns=["doc_id", "text"]), n=5)


def _q_ssjoin_jaccard(sf_dir: str):
    """EXACT-threshold Jaccard self-join (prefix filtering, Chaudhuri/
    Vernica shape): all doc pairs whose distinct word-3-gram sets have
    Jaccard >= 1/2, all-integer gate (ops/dedup.ssjoin_jaccard).  The
    deterministic complement to the MinHash-LSH near-dup path."""
    from pdf_extract_ray.ops.dedup import ssjoin_jaccard
    # pin once: the op scans its input 3x (hot-token sample, prefix
    # postings, candidate fetch) — at 100 TB pass a checkpointed path
    return ssjoin_jaccard(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]).materialize(),
                          n=3, t_num=1, t_den=2)


def _q_part_skyline(sf_dir: str):
    """2-D Pareto skyline over parts (cheapest price / largest size
    frontier): map-side local-skyline reduction, one tiny merge task
    (ops/analytics.skyline_2d)."""
    from pdf_extract_ray.ops.analytics import skyline_2d
    return skyline_2d(
        _read(sf_dir, "part",
              columns=["p_partkey", "p_retailprice", "p_size"]),
        id_col="p_partkey", min_col="p_retailprice", max_col="p_size")


def _q_doc_bfs_hops(sf_dir: str):
    """Multi-source BFS hop distances (<= 6 hops) from the doc_id%97==0
    seed set over the per-(source,lang) n_chars-order CHAIN graph (a
    path graph, so distances genuinely span 0..6 — the banded clique
    graph saturates at hop 1).  Frontier iteration: two keyed exchanges
    per round, early exit on drained frontier (ops/graph.bfs_hops);
    oracled with a recursive-CTE shortest-hop query."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    from pdf_extract_ray.ops.graph import bfs_hops, chain_edges
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = chain_edges(docs, ["source", "lang"], "n_chars", "doc_id")

    def seeds(b: "_pa.Table") -> "_pa.Table":
        import numpy as _np
        ids = _pc.cast(b.column("doc_id"), _pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return _pa.table({"doc_id": _pa.array(ids[ids % 97 == 0],
                                              _pa.int64())})

    return bfs_hops(edges, docs.map_batches(seeds, batch_format="pyarrow"),
                    src="id_a", dst="id_b", node_col="doc_id", max_hops=6)


def _q_chars_quartiles_by_source(sf_dir: str):
    """Interpolated (continuous) quartiles per source, x4 so every
    value is integer-exact (ops/analytics.grouped_quartiles_cont)."""
    from pdf_extract_ray.ops.analytics import grouped_quartiles_cont
    return grouped_quartiles_cont(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_source_chars_token_corr(sf_dir: str):
    """Pearson corr(n_chars, n_tokens) per source from exact integer
    moment partials; the float output is computed with the same IEEE
    op order as the SQL (ops/analytics.grouped_corr)."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import grouped_corr
    ds = _read(sf_dir, "documents", columns=["source", "text",
                                             "n_chars"])

    def derive(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pandas()
        nsp = texts.str.count(" ").to_numpy(np.int64)
        nlen = texts.str.len().to_numpy(np.int64)
        y = np.where(nlen > 0, nsp + 1, 0)
        return pa.table({
            "source": b.column("source"),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
            "n_tokens": pa.array(y, pa.int64())})

    return grouped_corr(ds.map_batches(derive, batch_format="pyarrow"),
                        "source", "n_chars", "n_tokens")


def _q_top_supplier_revenue(sf_dir: str):
    """TPC-H Q15 shape: max-revenue supplier(s) for a quarter — one
    bounded groupby + tiny Max + is_in name fetch, no sort
    (ops/relational.top_supplier_revenue)."""
    from pdf_extract_ray.ops.relational import top_supplier_revenue
    return top_supplier_revenue(
        _read(sf_dir, "lineitem",
              columns=["l_suppkey", "l_extendedprice", "l_discount",
                       "l_shipdate"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"]))


def _q_top_return_customers(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by returned revenue — one
    orderkey shuffle fusing the fact-fact join, partial top-k merge
    (ops/relational.top_return_customers)."""
    from pdf_extract_ray.ops.relational import top_return_customers
    return top_return_customers(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                       "l_discount"]))


def _q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape: per shipped part, its cheapest-balance supplier
    (deterministic tie-break) — three keyed passes, no join actors
    (ops/relational.min_cost_supplier_per_part)."""
    from pdf_extract_ray.ops.relational import min_cost_supplier_per_part
    return min_cost_supplier_per_part(
        _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"]))


def _q_disjunctive_part_revenue(sf_dir: str):
    """TPC-H Q19 shape: disjunctive part+lineitem predicate revenue —
    one partkey pass attaches dim attrs, two-int global sum
    (ops/relational.disjunctive_part_revenue)."""
    from pdf_extract_ray.ops.relational import disjunctive_part_revenue
    return disjunctive_part_revenue(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity", "l_extendedprice",
                       "l_discount"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"]))


def _q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: revenue where customer and supplier share a
    nation — a 4-hop join fused into three keyed partition passes
    (ops/relational.local_supplier_volume)."""
    from pdf_extract_ray.ops.relational import local_supplier_volume
    return local_supplier_volume(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                       "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]))


def _q_chars_mad_by_source(sf_dir: str):
    """Robust spread statistic: median absolute deviation per source,
    x4 integer-exact via two bounded value-histogram passes
    (ops/analytics.grouped_mad)."""
    from pdf_extract_ray.ops.analytics import grouped_mad
    return grouped_mad(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_nation_pair_volume(sf_dir: str):
    """TPC-H Q7 shape: cross-nation trade volume per (customer nation,
    supplier nation) ordered pair — same fused three-pass chain as Q5
    with the != relation (ops/relational.local_supplier_volume)."""
    from pdf_extract_ray.ops.relational import local_supplier_volume
    return local_supplier_volume(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                       "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]),
        relation="cross")


def _q_orders_by_month(sf_dir: str):
    """Calendar bucketing (SQL date_trunc parity): per-month order
    count + exact cent revenue.  Truncation is vectorized
    datetime64[M] casting map-side; ONE bounded groupby (|months|
    keys) merges."""
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def part(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype("datetime64[us]")
        cents = pc.cast(pc.round(pc.multiply(
            b.column("o_totalprice"), pa.scalar(100.0))), pa.int64())
        return pa.table({"month": pa.array(d, pa.timestamp("us")),
                         "cents": cents})

    out = ds.map_batches(part, batch_format="pyarrow") \
        .groupby("month").aggregate(Count(), Sum("cents"))
    return out.map_batches(
        lambda b: pa.table({
            "month": pc.cast(b.column("month"), pa.timestamp("us")),
            "n_orders": pc.cast(b.column("count()"), pa.int64()),
            "revenue_cents": pc.cast(b.column("sum(cents)"),
                                     pa.int64())}),
        batch_format="pyarrow")


def _q_doc_pagerank(sf_dir: str):
    """Distributed PageRank (power iteration: broadcast rank vector,
    per-block pre-summed contributions, one bounded groupby per round)
    over the banded doc-similarity graph, symmetrized.  Not
    SQL-oracled (float accumulation order); numpy-reference parity is
    pytest-pinned (ops/graph.pagerank)."""
    import ray
    from pdf_extract_ray.ops.graph import interval_self_join, pagerank
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = interval_self_join(docs, ["source", "lang"], "n_chars",
                               "doc_id", tol=5)

    def sym(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([
                pc.cast(b.column("id_a"), pa.int64()).combine_chunks(),
                pc.cast(b.column("id_b"), pa.int64()).combine_chunks()]),
            "dst": pa.concat_arrays([
                pc.cast(b.column("id_b"), pa.int64()).combine_chunks(),
                pc.cast(b.column("id_a"), pa.int64()).combine_chunks()])})

    return pagerank(edges.map_batches(sym, batch_format="pyarrow"),
                    damping=0.85, iters=8)


def _q_order_event_range_counts(sf_dir: str):
    """Range (band) join: per order, same-user events within 24 h of
    the order date (zero-count orders kept).  One user shuffle +
    segmented probe-rank scan — no per-order slicing
    (ops/relational.range_join_counts)."""
    from pdf_extract_ray.ops.relational import range_join_counts
    return range_join_counts(
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "events", columns=["user_id", "ts"]),
        window_hours=24)


def _q_langs_per_source(sf_dir: str):
    """Set-valued aggregate (SQL string_agg of DISTINCT values in
    order): per source, the sorted comma-joined language set plus its
    cardinality.  Map-side per-batch distinct (source, lang) pairs ->
    one bounded groupby over |sources| x |langs| rows -> per-group
    sorted join; the corpus text never shuffles."""
    import pandas as pd
    ds = _read(sf_dir, "documents", columns=["source", "lang"])

    def dedup(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["lang"] = df["lang"].fillna("und")  # COALESCE policy
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ds.map_batches(dedup, batch_format="pyarrow") \
        .groupby(["source", "lang"]).count()

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        langs = sorted(df["lang"].tolist())
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "langs": [",".join(langs)],
            "n_langs": np.array([len(langs)], np.int64)})

    return pairs.groupby("source").map_groups(agg, batch_format="pandas")


def _q_pack_sequences(sf_dir: str):
    """LM-training sequence packing: deterministic greedy concat of
    docs into <=512-token rows, hash-partitioned by doc_id (not
    SQL-expressible — the bin assignment depends on the partition
    function; invariants are pytest-covered: ops/corpus.pack_sequences)."""
    from pdf_extract_ray.ops.corpus import pack_sequences
    return pack_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_tokens=512)


def _q_funnel_counts(sf_dir: str):
    """Ordered funnel (view -> click -> purchase, 6 h windows): one
    user-partitioned shuffle, vectorized grouped-min chaining in exact
    integer microseconds (ops/events.funnel_counts)."""
    from pdf_extract_ray.ops.events import funnel_counts
    return funnel_counts(
        _read(sf_dir, "events",
              columns=["user_id", "ts", "event_type"]),
        steps=("view", "click", "purchase"), window_hours=6)


def _q_discount_revenue(sf_dir: str):
    """TPC-H Q6 shape: map-only filtered global aggregate — every batch
    folds to one exact-int partial row, no shuffle at all
    (ops/relational.forecast_revenue)."""
    from pdf_extract_ray.ops.relational import forecast_revenue
    return forecast_revenue(
        _read(sf_dir, "lineitem",
              columns=["l_shipdate", "l_quantity", "l_discount",
                       "l_extendedprice"]))


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: correlated per-part average gate resolved inside
    ONE partkey-hash pass, brand partkey set broadcast to prune the
    fact before the shuffle (ops/relational.small_qty_revenue)."""
    from pdf_extract_ray.ops.relational import small_qty_revenue
    return small_qty_revenue(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity", "l_extendedprice"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand"]))


def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: target nation's revenue share per order year for
    one part type in one region — part set + supplier map broadcast,
    fact through two keyed partition passes
    (ops/relational.market_share)."""
    from pdf_extract_ray.ops.relational import market_share
    return market_share(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_partkey", "l_suppkey",
                       "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation",
              columns=["n_nationkey", "n_name", "n_regionkey"]),
        _read(sf_dir, "region", columns=["r_regionkey", "r_name"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_type"]))


def _q_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape (adapted: supply cost = 50% of p_retailprice; no
    partsupp table exists): profit by supplier nation x order year,
    exact 1e-4-dollar ints (ops/relational.profit_by_nation_year)."""
    from pdf_extract_ray.ops.relational import profit_by_nation_year
    return profit_by_nation_year(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_partkey", "l_suppkey",
                       "l_quantity", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]),
        _read(sf_dir, "part",
              columns=["p_partkey", "p_name", "p_retailprice"]))


def _q_chars_ntile_by_source(sf_dir: str):
    """NTILE(4) window over a deterministic (n_chars, doc_id) total
    order per source: histogram base ranks broadcast, row shuffle BY
    (source, n_chars) only (ops/analytics.grouped_ntile)."""
    from pdf_extract_ray.ops.analytics import grouped_ntile
    return grouped_ntile(
        _read(sf_dir, "documents",
              columns=["doc_id", "source", "n_chars"]),
        "source", "n_chars", "doc_id", k=4)


def _q_distinct_users_per_type(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type: map-side pair
    dedup, two-level aggregate (ops/analytics.distinct_count)."""
    from pdf_extract_ray.ops.analytics import distinct_count
    return distinct_count(
        _read(sf_dir, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id")


def _q_late_priority_counts(sf_dir: str):
    """TPC-H Q12 shape (adapted: late = shipped >60 days after order
    date; grouped by returnflag): one orderkey partition pass over the
    lineitem+orders union (ops/relational.late_priority_counts)."""
    from pdf_extract_ray.ops.relational import late_priority_counts
    return late_priority_counts(
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_returnflag", "l_shipdate"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_orderdate", "o_orderpriority"]))


def _q_sole_late_supplier(sf_dir: str):
    """TPC-H Q21 shape (adapted: late = shipped >90 days after order
    date, finished orders only): per-order EXISTS/NOT-EXISTS set logic
    resolved inside one orderkey partition pass
    (ops/relational.sole_late_supplier)."""
    from pdf_extract_ray.ops.relational import sole_late_supplier
    return sole_late_supplier(
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey", "l_shipdate"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_orderstatus", "o_orderdate"]))


def _q_chars_pct_rank(sf_dir: str):
    """PERCENT_RANK + CUME_DIST windows per source over n_chars:
    histogram broadcast, zero row shuffle; doubles are single int/int
    divisions so they hash bit-identical vs the SQL engine
    (ops/analytics.grouped_pct_ranks)."""
    from pdf_extract_ray.ops.analytics import grouped_pct_ranks
    return grouped_pct_ranks(
        _read(sf_dir, "documents",
              columns=["doc_id", "source", "n_chars"]),
        "source", "n_chars", "doc_id")


def _q_user_first_last(sf_dir: str):
    """FIRST_VALUE/LAST_VALUE per user over (ts, event_id): arg_min/
    arg_max combiner — each batch folds to <=2 rows per user, the
    shuffle carries partials only (ops/events.user_first_last)."""
    from pdf_extract_ray.ops.events import user_first_last
    return user_first_last(
        _read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "event_type"]))


def _q_chars_skew_by_source(sf_dir: str):
    """Population skewness per source from exact integer moments; the
    oracle SQL spells out the identical HUGEINT->double op sequence so
    floats hash bit-identical (ops/analytics.grouped_skew)."""
    from pdf_extract_ray.ops.analytics import grouped_skew
    return grouped_skew(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_embedding_clusters(sf_dir: str):
    """Distributed k-means (hash-sampled fit, partial-sum Lloyd) + pure
    map-side assignment -> (vec_id, cluster).  Not SQL-expressible
    (iterative); determinism + nearest-centroid invariants in tests
    (ops/similarity.kmeans_fit/kmeans_assign)."""
    from pdf_extract_ray.ops.similarity import kmeans_assign, kmeans_fit
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = kmeans_fit(ds, k=8, iters=5)
    if cent is None:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64())})
    return kmeans_assign(ds, cent)


def _q_lm_buckets(sf_dir: str):
    """CCNet head/middle/tail tiers: per-language NTILE(3) over the
    unigram-LM bits-per-token score (broadcast model + broadcast tile
    histogram; the only row shuffle hashes (lang, score)).  Iterative
    model fit -> rows-only; NTILE balance + ordering in tests
    (ops/textstats.lm_buckets)."""
    from pdf_extract_ray.ops.textstats import lm_buckets
    return lm_buckets(
        _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]))


def _q_top_bigrams(sf_dir: str):
    """Corpus top-100 word bigrams: vectorized per-batch partial counts,
    one bounded gram groupby, partial top-k, tiny driver merge — the
    word_frequencies shape one n up (ops/analytics.ngram_frequencies)."""
    from pdf_extract_ray.ops.analytics import ngram_frequencies
    return ngram_frequencies(
        _read(sf_dir, "documents", columns=["text"]), "text", k=100)


def _q_bpe_merges(sf_dir: str):
    """BPE merge-rule learning: the corpus-sized pass is the distributed
    word-frequency aggregate; the merge loop runs on that BOUNDED
    (word, count) table (the standard Sennrich formulation).  Iterative
    -> rows-only; known-corpus merge-sequence tests
    (ops/textstats.bpe_learn)."""
    from pdf_extract_ray.ops.textstats import bpe_learn
    return bpe_learn(_read(sf_dir, "documents", columns=["text"]),
                     n_merges=30, vocab_k=10_000)


def _q_significant_parts(sf_dir: str):
    """TPC-H Q11 shape (adapted: value = one nation's suppliers'
    lineitem revenue per part; scale-free gate: parts above 2x the
    mean part value): broadcast supplier set, one partkey groupby,
    integer cross-multiplied HAVING gate
    (ops/relational.significant_parts)."""
    from pdf_extract_ray.ops.relational import significant_parts
    return significant_parts(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_suppkey", "l_extendedprice",
                       "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        nation_key=3, mean_mult=2)


def _q_dominant_suppliers(sf_dir: str):
    """TPC-H Q20 shape (adapted: supplier dominates a part when it
    shipped >1/5 of its total quantity): one partkey pass computes both
    per-(part,supp) and per-part totals locally
    (ops/relational.dominant_suppliers)."""
    from pdf_extract_ray.ops.relational import dominant_suppliers
    return dominant_suppliers(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_suppkey", "l_quantity"]))


def _q_source_vocab_stats(sf_dir: str):
    """Type-token ratio per source: map-side (source, word) pair dedup
    before the shuffle, one bounded vocab groupby, bit-identical
    int/int ttr double (ops/analytics.source_vocab_stats)."""
    from pdf_extract_ray.ops.analytics import source_vocab_stats
    return source_vocab_stats(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_ann_topk_pq(sf_dir: str):
    """Product-quantization ANN (Jegou et al. 2011): distributed PQ
    codebook fit (per-batch partial sums over a hash sample), map-side
    uint8 encoding (8x compression at dim 64 / m 8), ADC lookup-table
    top-k — the memory-bound billion-vector scale path
    (ops/similarity.pq_fit/pq_encode/pq_topk)."""
    from pdf_extract_ray.ops.similarity import pq_fit, pq_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qvecs = _ann_queries(ds)
    books = pq_fit(ds, m=8, k=16, iters=6)
    if books is None:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    return pq_topk(ds, qids, qvecs, books, k=10)


def _q_audio_resample(sf_dir: str):
    """Audio resample stage over REAL deterministic WAV payloads:
    stdlib decode, mono downmix, linear-interp resample 8 kHz -> 4 kHz,
    raw int16 PCM out (ops/multimodal.resample_audio; deterministic
    fake for non-WAV keeps the stage total)."""
    from pdf_extract_ray.ops.codecs import encode_wav
    from pdf_extract_ray.ops.multimodal import resample_audio

    def to_payload(batch: pa.Table) -> pa.Table:
        payloads = []
        for d in batch.column("doc_id").to_pylist():
            n = 800 + (d % 5) * 400
            t = np.arange(n, dtype=np.float64)
            wave = 0.4 * np.sin(2 * np.pi * (110 + d % 440) * t / 8000.0)
            payloads.append(encode_wav(wave.reshape(-1, 1), 8000))
        return pa.table({
            "item_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "payload": pa.array(payloads, pa.binary())})

    items = _read(sf_dir, "documents", columns=["doc_id"]) \
        .map_batches(to_payload, batch_format="pyarrow")
    return resample_audio(items, target_rate=4000)


def _q_lang_gini_by_source(sf_dir: str):
    """Gini impurity of the language mix per source, exact-integer ppm
    (one histogram aggregate + combinable (t, ssq) partials;
    ops/analytics.grouped_gini)."""
    from pdf_extract_ray.ops.analytics import grouped_gini
    return grouped_gini(_read(sf_dir, "documents",
                              columns=["source", "lang"]),
                        "source", "lang")


def _q_nth_event_per_user(sf_dir: str):
    """NTH_VALUE window: each user's 3rd event by (ts, event_id) —
    map-side bounded top-n candidates + one user-keyed resolve
    (ops/events.nth_event_per_user)."""
    from pdf_extract_ray.ops.events import nth_event_per_user
    return nth_event_per_user(_read(sf_dir, "events",
                                    columns=["event_id", "ts",
                                             "user_id", "event_type"]),
                              n=3)


def _q_brand_copurchase(sf_dir: str):
    """Market-basket co-occurrence: unordered brand pairs sharing an
    order — broadcast partkey->brand dim, one orderkey partition pass
    with size-class vectorized pair formation, 300-key merge
    (ops/relational.copurchase_pairs)."""
    from pdf_extract_ray.ops.relational import copurchase_pairs
    return copurchase_pairs(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand"]))


def _q_pmi_pairs(sf_dir: str):
    """Top word pairs by document-level PMI over a df-selected bounded
    vocabulary; the ranking statistic is the exact integer ppm rational
    (no libm) so Ray and DuckDB order identically
    (ops/corpus.pmi_pairs)."""
    from pdf_extract_ray.ops.corpus import pmi_pairs
    return pmi_pairs(_read(sf_dir, "documents",
                           columns=["doc_id", "text"]),
                     vocab_k=64, k=50)


def _q_asof_join_forward(sf_dir: str):
    """FORWARD as-of (time-to-conversion): each 'view' event matches
    the same user's next 'purchase' at/after it — the backward as-of
    kernel run on the negated time axis, zero new shuffle shapes
    (ops/relational.asof_join_orders_forward).  The build side is the
    purchase stream renamed into the order-probe schema."""
    from pdf_extract_ray.ops.relational import asof_join_orders_forward
    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    views = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "view"))
                   .select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")
    buys = ev.map_batches(
        lambda b: (lambda f: pa.table({
            "o_orderkey": pc.cast(f.column("event_id"), pa.int64()),
            "o_custkey": pc.cast(f.column("user_id"), pa.int64()),
            "o_orderdate": pc.cast(f.column("ts"), pa.timestamp("us")),
        }))(b.filter(pc.equal(b.column("event_type"), "purchase"))),
        batch_format="pyarrow")
    return asof_join_orders_forward(views, buys)


def _q_record_high_events(sf_dir: str):
    """Running-max high-watermark window per user — one keyed partition
    pass, grouped cummax, comparisons only
    (ops/events.record_high_events)."""
    from pdf_extract_ray.ops.events import record_high_events
    return record_high_events(
        _read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "value"]))


def _q_prefix_dedup_best(sf_dir: str):
    """Keep-best fuzzy-key dedup: same first-8-words prefix keeps the
    longest doc (combinable argmax; ops/dedup.prefix_dedup_best)."""
    from pdf_extract_ray.ops.dedup import prefix_dedup_best
    return prefix_dedup_best(
        _read(sf_dir, "documents",
              columns=["doc_id", "text", "n_chars"]), k_words=8)


def _q_doc_stats_long(sf_dir: str):
    """UNPIVOT / melt shape: the per-source integer stats emitted as
    (source, metric, value) long-form rows from ONE aggregate."""
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    agg = ds.groupby("source").aggregate(_sum("n_chars"), _count())

    def melt(b: pa.Table) -> pa.Table:
        src = b.column("source").to_pylist()
        tot = pc.cast(b.column("sum(n_chars)"), pa.int64()).to_pylist()
        n = pc.cast(b.column("count()"), pa.int64()).to_pylist()
        return pa.table({
            "source": pa.array(src + src, pa.string()),
            "metric": pa.array(["n_docs"] * len(src)
                               + ["total_chars"] * len(src), pa.string()),
            "value": pa.array(n + tot, pa.int64())})

    return agg.map_batches(melt, batch_format="pyarrow")


def _q_chars_kurtosis_by_source(sf_dir: str):
    """Population excess kurtosis per source from exact integer moments
    (4th-moment extension of the skew kernel;
    ops/analytics.grouped_kurtosis)."""
    from pdf_extract_ray.ops.analytics import grouped_kurtosis
    return grouped_kurtosis(_read(sf_dir, "documents",
                                  columns=["source", "n_chars"]),
                            "source", "n_chars")


def _q_orders_by_dow(sf_dir: str):
    """Day-of-week histogram (0=Sunday, DuckDB dayofweek parity) with
    exact-cent revenue — map-side 7-bin bincount partials, one tiny
    sum."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        ts = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").view(np.int64)
        dow = (ts + 4) % 7  # epoch day 0 = Thursday = dayofweek 4
        praw = b.column("o_totalprice").to_numpy(zero_copy_only=False)
        cents = np.rint(np.nan_to_num(praw) * 100).astype(np.int64)
        # null price sums as 0 — exactly SQL SUM's null-skip
        n = np.bincount(dow, minlength=7)
        rev = np.bincount(dow, weights=cents, minlength=7) \
            .astype(np.int64)
        return pa.table({"dow": pa.array(np.arange(7, dtype=np.int64)),
                         "n": pa.array(n.astype(np.int64)),
                         "rev": pa.array(rev)})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("dow").aggregate(Sum("n"), Sum("rev"))
    return agg.map_batches(
        lambda b: pa.table({
            "dow": b.column("dow"),
            "n_orders": pc.cast(b.column("sum(n)"), pa.int64()),
            "revenue_cents": pc.cast(b.column("sum(rev)"), pa.int64())}),
        batch_format="pyarrow")


def _q_ann_topk_filtered(sf_dir: str):
    """Filtered vector search: brute-force cosine top-k restricted to a
    label predicate pushed down BEFORE the matmul — the standard
    attribute-filtered ANN shape (ops/similarity.brute_force_topk over
    the pre-filtered stream)."""
    from pdf_extract_ray.ops.similarity import brute_force_topk
    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding", "label"])
    qids, qvecs = _ann_queries(ds)
    flt = ds.map_batches(
        lambda b: b.filter(pc.equal(pc.cast(b.column("label"),
                                            pa.int64()), 1))
                   .select(["vec_id", "embedding"]),
        batch_format="pyarrow")
    return brute_force_topk(flt, qids, qvecs, k=10)


def _q_monthly_revenue_delta(sf_dir: str):
    """Month-over-month revenue change: the orders_by_month aggregate
    (bounded to ~#months rows) + ONE final task running the LAG window
    over the tiny series — exact integer cents, first month delta 0."""
    ds = _q_orders_by_month(sf_dir)

    def delta(df):
        df = df.sort_values("month").reset_index(drop=True)
        prev = df["revenue_cents"].shift(1)
        df["delta_cents"] = (df["revenue_cents"] - prev).fillna(0) \
            .astype(np.int64)
        return df[["month", "revenue_cents", "delta_cents"]]

    return ds.repartition(1).map_batches(delta, batch_format="pandas",
                                         batch_size=None)


def _q_weighted_avg_discount(sf_dir: str):
    """Quantity-weighted average discount per returnflag in EXACT
    integers: (num, den) partial sums combine map-side, the ratio ships
    as integer ppm floor — no float summation anywhere."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "flag": b.column("l_returnflag").to_pandas(),
            "qty": b.column("l_quantity").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "disc_c2": np.rint(b.column("l_discount").to_numpy(
                zero_copy_only=False) * 100).astype(np.int64)})
        df["num"] = df["disc_c2"] * df["qty"]
        g = df.groupby("flag", sort=False, as_index=False) \
            .agg(num=("num", "sum"), den=("qty", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("flag").aggregate(Sum("num"), Sum("den"))

    def finish(b: pa.Table) -> pa.Table:
        num = pc.cast(b.column("sum(num)"), pa.int64()).to_numpy()
        den = pc.cast(b.column("sum(den)"), pa.int64()).to_numpy()
        ppm = np.array([int(a) * 1_000_000 // int(d)
                        for a, d in zip(num, den)], np.int64)
        return pa.table({
            "l_returnflag": b.column("flag"),
            "num_c2_qty": pa.array(num), "den_qty": pa.array(den),
            "wavg_disc_ppm_c2": pa.array(ppm)})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_word_length_histogram(sf_dir: str):
    """Distribution of word lengths over the corpus — per-batch flat
    bincount partials (explode stays inside the task; the exchange
    carries <=64 (length, count) rows per block)."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pandas()
        lens = texts.str.split(" ").explode().str.len()
        lens = lens[lens > 0].to_numpy(np.int64)
        c = np.bincount(lens, minlength=1)
        nz = np.flatnonzero(c)
        return pa.table({"wlen": pa.array(nz.astype(np.int64)),
                         "n": pa.array(c[nz].astype(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("wlen").aggregate(Sum("n"))
    return agg.map_batches(
        lambda b: pa.table({"wlen": b.column("wlen"),
                            "n_words": pc.cast(b.column("sum(n)"),
                                               pa.int64())}),
        batch_format="pyarrow")


def _q_mannwhitney_chars(sf_dir: str):
    """Mann-Whitney U between src0 and src1 doc lengths — exact doubled
    midranks from one bounded (value, group) histogram
    (ops/analytics.mannwhitney_u)."""
    from pdf_extract_ray.ops.analytics import mannwhitney_u
    return mannwhitney_u(_read(sf_dir, "documents",
                               columns=["source", "n_chars"]),
                         "source", "n_chars", "src0", "src1")


def _q_lang_source_contingency(sf_dir: str):
    """Contingency table with margins (lang x source observed counts +
    row/col/grand totals) — one bounded histogram aggregate, margins
    resolved in a single tiny task; all integers (the chi-squared
    inputs without any float summation)."""
    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    hist = ds.groupby(["lang", "source"]).count()

    def margins(df):
        df = df.rename(columns={"count()": "n"})
        df["n"] = df["n"].astype(np.int64)
        df["lang_tot"] = df.groupby("lang")["n"].transform("sum")
        df["src_tot"] = df.groupby("source")["n"].transform("sum")
        df["n_total"] = np.int64(df["n"].sum())
        return df[["lang", "source", "n", "lang_tot", "src_tot",
                   "n_total"]]

    return hist.repartition(1).map_batches(margins,
                                           batch_format="pandas",
                                           batch_size=None)


def _q_ks_chars(sf_dir: str):
    """Two-sample KS statistic between src0/src1 doc lengths — exact
    cross-multiplied integer CDFs (ops/analytics.ks_statistic)."""
    from pdf_extract_ray.ops.analytics import ks_statistic
    return ks_statistic(_read(sf_dir, "documents",
                              columns=["source", "n_chars"]),
                        "source", "n_chars", "src0", "src1")


def _q_benford_digits(sf_dir: str):
    """Benford first-digit distribution over order totals — digit
    extracted through the decimal STRING in both engines (no float
    log), 9-bin bincount partials."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        raw = b.column("o_totalprice").to_numpy(zero_copy_only=False)
        raw = raw[~np.isnan(raw)]  # null measures have no first digit
        v = np.floor(raw).astype(np.int64)
        digits = pd.Series(v).astype(str).str[0].astype(np.int64)
        c = np.bincount(digits.to_numpy(), minlength=10)
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "n": pa.array(c[1:10].astype(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("digit").aggregate(Sum("n"))
    return agg.map_batches(
        lambda b: pa.table({"digit": b.column("digit"),
                            "n_orders": pc.cast(b.column("sum(n)"),
                                                pa.int64())}),
        batch_format="pyarrow")


def _q_weighted_median_price(sf_dir: str):
    """Quantity-weighted lower median of extendedprice cents per
    returnflag — exact integer histogram + cumsum walk
    (ops/analytics.grouped_weighted_median)."""
    from pdf_extract_ray.ops.analytics import grouped_weighted_median
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "price_c2": pa.array(np.rint(
                b.column("l_extendedprice").to_numpy(
                    zero_copy_only=False) * 100).astype(np.int64)),
            "qty": pa.array(b.column("l_quantity").to_numpy(
                zero_copy_only=False).astype(np.int64))})

    out = grouped_weighted_median(
        ds.map_batches(prep, batch_format="pyarrow"),
        "l_returnflag", "price_c2", "qty")
    return out.map_batches(
        lambda b: pa.table({"l_returnflag": b.column("l_returnflag"),
                            "wmedian_c2": pc.cast(b.column("wmedian"),
                                                  pa.int64())}),
        batch_format="pyarrow")


def _q_user_value_integral(sf_dir: str):
    """Time-weighted value per user (LEAD window x integer cents x
    whole-second gaps; ops/events.user_value_integral)."""
    from pdf_extract_ray.ops.events import user_value_integral
    return user_value_integral(
        _read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "value"]))


def _q_release_prep(sf_dir: str):
    """Full training-data RELEASE chain: pages -> ccprep (extract,
    dedup, near-dup) -> decontaminate -> Gopher gate -> deterministic
    packing -> deterministic shards (pipelines/release.py).  Rows-only
    by nature (the chain composes approximate near-dup banding); every
    component op is individually oracled or property-tested."""
    import ray
    from pdf_extract_ray.pipelines.release import release_dataset
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return release_dataset(ds, min_quality=0.1, neardup_threshold=0.95)


def _q_chars_gmd_by_source(sf_dir: str):
    """Gini mean difference of doc lengths per source — the exact
    order-statistic identity over one bounded histogram
    (ops/analytics.gini_mean_difference)."""
    from pdf_extract_ray.ops.analytics import gini_mean_difference
    return gini_mean_difference(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars", "doc_id")


def _q_order_total_audit(sf_dir: str):
    """Cross-table header-vs-lines reconciliation in exact 1e-6-dollar
    integers (ops/relational.order_total_audit)."""
    from pdf_extract_ray.ops.relational import order_total_audit
    return order_total_audit(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_extendedprice", "l_discount",
                       "l_tax"]))


def _q_shortest_docs_with_ties(sf_dir: str):
    """Top-k WITH TIES (the SQL `QUALIFY rank() <= k` semantics, unlike
    topk_per_group's row_number cut): the 2 shortest length VALUES per
    source keep EVERY doc at those lengths — composed from the
    broadcast-histogram rank kernel, zero row shuffles."""
    from pdf_extract_ray.ops.analytics import grouped_value_ranks
    ranks = grouped_value_ranks(
        _read(sf_dir, "documents",
              columns=["doc_id", "source", "n_chars"]),
        "source", "n_chars", "doc_id")
    return ranks.map_batches(
        lambda b: b.filter(pc.less_equal(b.column("rnk"), 2)),
        batch_format="pyarrow")


def _q_conversion_latency(sf_dir: str):
    """First-view -> first-purchase latency per user in exact integer
    microseconds (signed; users missing either event drop).  ONE native
    (user, type) Min aggregate — map-side combinable — then a keyed
    pivot pass over the two-row-per-user partials."""
    from ray.data.aggregate import Min
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "ts"])

    def keep(b: pa.Table) -> pa.Table:
        m = pc.or_(pc.equal(b.column("event_type"), "view"),
                   pc.equal(b.column("event_type"), "purchase"))
        return b.filter(m)

    mins = ds.map_batches(keep, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]).aggregate(Min("ts"))

    def pivot(df):
        import pandas as pd
        cols = {"user_id": "int64", "latency_us": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        p = df.pivot_table(index="user_id", columns="event_type",
                           values="min(ts)", aggfunc="min")
        if "view" not in p.columns or "purchase" not in p.columns:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        both = p[p["view"].notna() & p["purchase"].notna()]
        lat = (both["purchase"].to_numpy().astype("datetime64[us]")
               .view(np.int64)
               - both["view"].to_numpy().astype("datetime64[us]")
               .view(np.int64))
        return pd.DataFrame({"user_id": both.index.to_numpy(np.int64),
                             "latency_us": lat})

    return _grouped_by_partition(mins, ["user_id"], pivot, n_parts=32)


def _q_cdc_compaction(sf_dir: str):
    """CDC / upsert compaction: base snapshot (version 0) unioned with
    a deterministic delta stream (docs with doc_id % 7 == 0 get a
    version-1 update whose text is truncated to its first 3 words),
    keep the LATEST version per key.  The combinable argmax shape
    (latest_event_per_user): every block folds to one candidate per
    doc_id present, one keyed pass picks the winner — the standard
    incremental-ingest compaction, no sort."""
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    base = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def with_versions(b: pa.Table) -> pa.Table:
        import pandas as pd
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = b.column("text").to_pandas()
        out_id = [ids]
        out_v = [np.zeros(len(ids), np.int64)]
        out_t = [texts]
        upd = ids % 7 == 0
        if upd.any():
            out_id.append(ids[upd])
            out_v.append(np.ones(int(upd.sum()), np.int64))
            out_t.append(texts[upd].str.split(" ").str[:3].str.join(" "))
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_id)),
            "version": pa.array(np.concatenate(out_v)),
            "text": pa.array(pd.concat(out_t).tolist(), pa.string())})

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df.sort_values(["doc_id", "version"], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("doc_id", sort=False, as_index=False).last(),
            preserve_index=False)

    def resolve(df):
        import pandas as pd
        cols = {"doc_id": "int64", "version": "int64", "text": "object"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"doc_id": "int64", "version": "int64"})
        df = df.sort_values(["doc_id", "version"], kind="mergesort")
        return df.groupby("doc_id", sort=False, as_index=False).last()

    versions = base.map_batches(with_versions, batch_format="pyarrow")
    cands = versions.map_batches(partial, batch_format="pyarrow")
    return _grouped_by_partition(cands, ["doc_id"], resolve, n_parts=32)


def _q_sa_dup_spans(sf_dir: str):
    """Exact duplicated-substring spans >= 13 tokens (Lee et al. 2022
    ExactSubstr semantics) via DISTRIBUTED PREFIX DOUBLING
    (ops/dedup.sa_dup_spans): suffix equivalence classes built in
    2*log2(L)+3 hash-partitioned passes with exact group-min-position
    representatives — no hashing in any decision, no global sort.  The
    true-suffix-array completion of the n-gram-approximate
    chunk_dedup/remove_dup_spans family (VERDICT r3 item 5).  Oracle:
    naive window-string self-grouping + island merge in DuckDB."""
    from pdf_extract_ray.ops.dedup import sa_dup_spans
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return sa_dup_spans(ds, min_len=13)


def _day_counts(sf_dir: str):
    """Shared: exact per-day event counts (tiny day domain)."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        us = pc.drop_null(pc.cast(ts_col, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        day, cnt = np.unique(us // 86_400_000_000, return_counts=True)
        return pa.table({"day": pa.array(day),
                         "c": pa.array(cnt.astype(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("day").aggregate(Sum("c")).take_all()
    return {int(r["day"]): int(r["sum(c)"]) for r in rows}


def _q_daily_ewma_counts(sf_dir: str):
    """Exponentially-decayed daily activity (EXACT integers, the
    engagement-trend feature): ewma_d = sum over j in 0..10 of
    count(day-j) >> j (bit-shift halving per day of age, missing days
    contribute 0) -> (day, cnt, ewma).

    Scale shape: map-side per-day partial counts -> tiny day-domain
    groupby; the 11-term window closes on the driver's day table."""
    import pandas as pd
    counts = _day_counts(sf_dir)
    out_cols = {"day": "int64", "cnt": "int64", "ewma": "int64"}
    if not counts:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    out = [{"day": d, "cnt": c,
            "ewma": sum(counts.get(d - j, 0) >> j for j in range(11))}
           for d, c in sorted(counts.items())]
    return pd.DataFrame(out).astype(out_cols)


def _q_spike_days(sf_dir: str):
    """Anomaly days: day count exceeds mean + 2 sigma over the
    observed-day distribution, decided by the EXACT integer
    inequality (N*c - T) > 0 AND (N*c - T)^2 > 4*(N*Q - T^2)
    (cross-multiplied z > 2; N days, T total, Q sum of squares) ->
    (day, cnt).  Python ints are arbitrary-precision; the oracle
    casts to HUGEINT."""
    import pandas as pd
    counts = _day_counts(sf_dir)
    out_cols = {"day": "int64", "cnt": "int64"}
    if not counts:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    n = len(counts)
    t = sum(counts.values())
    q = sum(c * c for c in counts.values())
    out = [{"day": d, "cnt": c} for d, c in sorted(counts.items())
           if n * c - t > 0 and (n * c - t) ** 2 > 4 * (n * q - t * t)]
    return pd.DataFrame(out).astype(out_cols) if out else \
        pd.DataFrame(columns=list(out_cols)).astype(out_cols)


def _q_nation_revenue_trend(sf_dir: str):
    """Per-nation OLS revenue trend (closed-form slope of cents vs
    order epoch-day): slope_micro = (n*Sxy - Sx*Sy)*1e6 //
    (n*Sxx - Sx^2), all moments exact integers -> (nation, n_orders,
    slope_micro).  The grouped-regression feature for trend reports.

    Scale shape: ONE custkey-hash partition pass co-locating order
    partials with customer rows (the revenue_by_nation envelope);
    nation names resolve from the broadcast nation dim; the driver
    combines 25 rows of int64 partials with arbitrary-precision
    Python ints (n*Sxy overflows int64 at sf >= 0.1)."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    nat = {int(r["n_nationkey"]): r["n_name"] for r in _read(
        sf_dir, "nation", columns=["n_nationkey", "n_name"])
        .take_all()}
    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderdate", "o_totalprice"])
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey"])

    def o_prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(pc.cast(b.column("o_orderdate"),
                                       pa.date32()), pa.int32()),
                       pa.int64())
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(b.column("o_totalprice"), pa.float64()), 100.0)),
            pa.int64())
        return pa.table({
            "key": pc.fill_null(pc.cast(b.column("o_custkey"),
                                        pa.int64()), -1),
            "x": days, "y": cents,
            "nk": pa.array(np.full(b.num_rows, -1, np.int64))})

    def c_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.fill_null(pc.cast(b.column("c_custkey"),
                                        pa.int64()), -1),
            "x": pa.array(np.zeros(b.num_rows, np.int64)),
            "y": pa.array(np.zeros(b.num_rows, np.int64)),
            "nk": pc.fill_null(pc.cast(b.column("c_nationkey"),
                                       pa.int64()), -1)})

    both = orders.map_batches(o_prep, batch_format="pyarrow").union(
        cust.map_batches(c_prep, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"nk": "int64", "n": "int64", "sx": "int64",
                "sy": "int64", "sxy": "int64", "sxx": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        cmap = df[df["nk"] >= 0]
        omap = df[df["nk"] < 0]
        if len(cmap) == 0 or len(omap) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        nk = omap["key"].map(
            cmap.drop_duplicates("key").set_index("key")["nk"])
        omap = omap.assign(nk2=nk.fillna(-1).astype(np.int64))
        omap = omap[omap["nk2"] >= 0]
        if len(omap) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        x = omap["x"].to_numpy(np.int64)
        y = omap["y"].to_numpy(np.int64)
        g = pd.DataFrame({
            "nk": omap["nk2"].to_numpy(np.int64), "n": 1, "sx": x,
            "sy": y, "sxy": x * y, "sxx": x * x}) \
            .groupby("nk", as_index=False).sum()
        return g.astype(cols)

    parts = _grouped_by_partition(both, ["key"], resolve) \
        .to_pandas()
    out_cols = {"nation": "object", "n_orders": "int64",
                "slope_micro": "int64"}
    num = {"n_orders": "int64", "slope_micro": "int64"}
    if len(parts) == 0 or "nk" not in parts.columns:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = []
    for nk, g in parts.groupby("nk"):
        n = int(g["n"].sum())
        sx = int(g["sx"].sum())
        sy = int(g["sy"].sum())
        sxy = int(g["sxy"].sum())
        sxx = int(g["sxx"].sum())
        den = n * sxx - sx * sx
        numer = (n * sxy - sx * sy) * 1_000_000
        # DuckDB // truncates toward zero on negatives; mirror it
        slope = (abs(numer) // den) * (1 if numer >= 0 else -1) \
            if den else 0
        out.append({"nation": nat.get(int(nk), ""), "n_orders": n,
                    "slope_micro": slope})
    return pd.DataFrame(out).astype(num) \
        .sort_values("nation").reset_index(drop=True)


def _q_goodturing_counts(sf_dir: str):
    """Good-Turing frequency-of-frequencies table N_r (the smoothing
    input: how many distinct terms occur exactly r times), r capped at
    50 -> (freq, n_terms).

    Scale shape: per-batch term value_counts partials -> term-domain
    partition pass -> the count-of-counts closes on the vocab-sized
    table."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].fillna("").str.split(" ").explode()
        s = s[s != ""]
        vc = s.value_counts()
        return pd.DataFrame({
            "term": vc.index.to_numpy(object),
            "c": vc.to_numpy(np.int64)})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"freq": "int64", "n_terms": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        tot = df.groupby("term", sort=False)["c"].sum()
        ff = tot[tot <= 50].value_counts()
        return pd.DataFrame({
            "freq": ff.index.to_numpy(np.int64),
            "n_terms": ff.to_numpy(np.int64)}).astype(cols)

    from ray.data.aggregate import Sum
    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pandas"), ["term"],
        resolve).groupby("freq").aggregate(Sum("n_terms")).take_all()
    out_cols = {"freq": "int64", "n_terms": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{"freq": int(r["freq"]),
                          "n_terms": int(r["sum(n_terms)"])}
                         for r in rows]).astype(out_cols) \
        .sort_values("freq").reset_index(drop=True)


def _q_ip_topk_exact(sf_dir: str):
    """FULLY ORACLED exact maximum-inner-product search: top-10
    neighbors of the 10 smallest vec_ids under the INTEGER dot of
    floor(x*1000)-quantized vectors (ties by neighbor id asc; self
    excluded) -> (query_id, neighbor_id, rank, dot).  Integer dots
    < 2^53 equal DuckDB's double list_dot_product EXACTLY
    (the embedding_pair_dot precedent), so this is the one ANN-family
    result a SQL engine reproduces hash-identically — the recall
    ground truth for the approximate paths.

    Scale shape: query matrix broadcast once; per-batch integer
    matmul + partial top-k; tiny driver merge (brute_force_topk
    envelope with an exact integer metric)."""
    import heapq

    import pandas as pd
    import ray

    from pdf_extract_ray.ops.similarity import _stack, min_k_rows

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    k = 10
    head = min_k_rows(ds, "vec_id", k)
    qids = head.column("vec_id").to_pylist()
    out_cols = {"query_id": "int64", "neighbor_id": "int64",
                "rank": "int64", "dot": "int64"}
    if not qids:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    qm = np.floor(_stack(head.column("embedding")) * 1000.0) \
        .astype(np.int64)
    q_ref = ray.put(qm)
    qid_ref = ray.put(np.asarray(qids, np.int64))

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"qi": pa.array([], pa.int32()),
                             "nid": pa.array([], pa.int64()),
                             "dot": pa.array([], pa.int64())})
        qm_ = ray.get(q_ref)
        ids = np.asarray(b.column("vec_id").to_pylist(), np.int64)
        v = np.floor(_stack(b.column("embedding")) * 1000.0) \
            .astype(np.int64)
        dots = qm_ @ v.T  # exact int64 (|q|,|v| <= 1000, d = 64)
        out_q, out_n, out_d = [], [], []
        kk = min(k + 1, dots.shape[1])
        for qi in range(dots.shape[0]):
            idx = np.argpartition(-dots[qi], kk - 1)[:kk]
            out_q.extend([qi] * len(idx))
            out_n.extend(ids[idx].tolist())
            out_d.extend(dots[qi][idx].tolist())
        return pa.table({"qi": pa.array(out_q, pa.int32()),
                         "nid": pa.array(out_n, pa.int64()),
                         "dot": pa.array(out_d, pa.int64())})

    best: list = [[] for _ in qids]
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for qi, nid, dot in zip(b.column("qi").to_pylist(),
                                b.column("nid").to_pylist(),
                                b.column("dot").to_pylist()):
            if qids[qi] == nid:
                continue
            heapq.heappush(best[qi], (dot, -nid))
            if len(best[qi]) > k:
                heapq.heappop(best[qi])
    out = []
    for qi, qid in enumerate(qids):
        cands = sorted(((d, -negn) for d, negn in best[qi]),
                       key=lambda t: (-t[0], t[1]))[:k]
        for r, (d, nid) in enumerate(cands, 1):
            out.append({"query_id": int(qid), "neighbor_id": int(nid),
                        "rank": r, "dot": int(d)})
    if not out:  # single-row corpus: self excluded, nothing to rank
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame(out).astype(out_cols)


def _q_label_centroid_shift(sf_dir: str):
    """Per-label embedding drift vs the corpus: cosine between each
    label's centroid direction and the GLOBAL centroid direction, all
    numerators/norms from exact floor(x*1000) integer dim sums (one
    division + two sqrts in pinned IEEE order — the Wilson-CI
    bit-identical precedent) -> (label, n_vecs, dot, cosine).

    Scale shape: the label_dispersion partials reused — map-side
    (label, dim-sum) partials, tiny label-domain merge; global sums =
    sum of label sums."""
    import pandas as pd

    from pdf_extract_ray.ops.similarity import _stack

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def prep(b: pa.Table) -> pa.Table:
        labels = pc.fill_null(pc.cast(b.column("label"), pa.int64()),
                              -1).to_numpy(zero_copy_only=False)
        v = _stack(b.column("embedding"))
        if v.shape[0] == 0:
            return pa.table({
                "label": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.int64()))})
        q = np.floor(v * 1000.0).astype(np.int64)
        out_l, out_n, out_s = [], [], []
        for lab in np.unique(labels):
            sel = q[labels == lab]
            out_l.append(int(lab))
            out_n.append(int(sel.shape[0]))
            out_s.append(sel.sum(axis=0).tolist())
        return pa.table({
            "label": pa.array(out_l, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "s": pa.array(out_s, pa.list_(pa.int64()))})

    rows = ds.map_batches(prep, batch_format="pyarrow").take_all()
    out_cols = {"label": "int64", "n_vecs": "int64", "dot": "int64",
                "cosine": "float64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    acc: dict = {}
    for r in rows:
        lab = int(r["label"])
        n, s = acc.get(lab, (0, None))
        sv = np.asarray(r["s"], dtype=np.int64)
        acc[lab] = (n + int(r["n"]), sv if s is None else s + sv)
    g = None
    for _, (_, s) in sorted(acc.items()):
        g = s.copy() if g is None else g + s
    g2 = int(sum(int(x) * int(x) for x in g))
    import math
    out = []
    for lab in sorted(acc):
        n, s = acc[lab]
        dot = int(sum(int(a) * int(b) for a, b in zip(s, g)))
        s2 = int(sum(int(x) * int(x) for x in s))
        cos = (float(dot) / (math.sqrt(float(s2))
                             * math.sqrt(float(g2)))
               if s2 > 0 and g2 > 0 else 0.0)
        out.append({"label": lab, "n_vecs": n, "dot": dot,
                    "cosine": cos})
    return pd.DataFrame(out).astype(out_cols)


def _q_label_dispersion(sf_dir: str):
    """Per-label embedding dispersion WITHOUT any pairwise pass: mean
    pairwise dot of the floor(x*1000)-quantized vectors via the exact
    centroid identity sum_pairs(q_i . q_j) * 2 = ||S||^2 - sum||q||^2
    (S = per-dim integer sum) -> (label, n_vecs, pair_dot_num,
    pair_dot_den, mean_pair_cos_ppm).  All integers exact; num/den
    carry the undivided values, the ppm mirrors DuckDB's
    truncate-toward-zero division.

    Scale shape: map-side (label, dim-sum, norm-sum, count) partials
    -> tiny label-domain merge; O(n*d) total work where a naive
    pairwise pass is O(n^2*d)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.similarity import _stack

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])

    def prep(b: pa.Table) -> pa.Table:
        labels = pc.fill_null(pc.cast(b.column("label"), pa.int64()),
                              -1).to_numpy(zero_copy_only=False)
        v = _stack(b.column("embedding"))
        if v.shape[0] == 0:
            return pa.table({
                "label": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "ssq": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.int64()))})
        q = np.floor(v * 1000.0).astype(np.int64)
        out_l, out_n, out_ssq, out_s = [], [], [], []
        for lab in np.unique(labels):
            sel = q[labels == lab]
            out_l.append(int(lab))
            out_n.append(int(sel.shape[0]))
            out_ssq.append(int((sel.astype(object) ** 2).sum()))
            out_s.append(sel.sum(axis=0).tolist())
        return pa.table({
            "label": pa.array(out_l, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "ssq": pa.array(out_ssq, pa.int64()),
            "s": pa.array(out_s, pa.list_(pa.int64()))})

    rows = ds.map_batches(prep, batch_format="pyarrow").take_all()
    out_cols = {"label": "int64", "n_vecs": "int64",
                "pair_dot_num": "int64", "pair_dot_den": "int64",
                "mean_pair_cos_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    acc: dict = {}
    for r in rows:
        lab = int(r["label"])
        n, ssq, s = acc.get(lab, (0, 0, None))
        sv = np.asarray(r["s"], dtype=np.int64)
        acc[lab] = (n + int(r["n"]), ssq + int(r["ssq"]),
                    sv if s is None else s + sv)
    out = []
    for lab in sorted(acc):
        n, ssq, s = acc[lab]
        num = int(sum(int(x) * int(x) for x in s)) - ssq
        den = n * (n - 1)
        ppm = (abs(num) // den) * (1 if num >= 0 else -1) \
            if den else 0
        out.append({"label": lab, "n_vecs": n, "pair_dot_num": num,
                    "pair_dot_den": den, "mean_pair_cos_ppm": ppm})
    return pd.DataFrame(out).astype(out_cols)


def _q_alias_sampling_table(sf_dir: str):
    """Walker/Vose alias table for O(1) source sampling (the mixture-
    sampling accelerator): exact integer construction over per-source
    doc masses scaled to ppm-of-uniform -> (slot, source, prob_ppm,
    alias_source).  Rows-only (the stack construction is inherently
    sequential), but the EXACT integer invariant — every source's
    total mass across its own slot plus its alias contributions equals
    its scaled mass — is pinned in tests/test_wave43_ops.py.

    Scale shape: one bounded source-domain count groupby; the
    S-row table builds on the driver (S = #sources)."""
    import pandas as pd
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["source"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "source": pc.fill_null(pc.cast(b.column("source"),
                                           pa.string()), "")})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Count()).take_all()
    out_cols = {"slot": "int64", "source": "object",
                "prob_ppm": "int64", "alias_source": "object"}
    num = {"slot": "int64", "prob_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    counts = sorted((r["source"], int(r["count()"])) for r in rows)
    total = sum(c for _, c in counts)
    n = len(counts)
    # scaled mass: m_i = count_i * n * 1e6 // total, remainder to the
    # lexicographically first sources so sum(m) == n * 1e6 exactly
    base = [(c * n * 1_000_000) // total for _, c in counts]
    rem = n * 1_000_000 - sum(base)
    mass = [b + (1 if i < rem else 0) for i, b in enumerate(base)]
    UNIT = 1_000_000
    small = [i for i in range(n) if mass[i] < UNIT]
    large = [i for i in range(n) if mass[i] >= UNIT]
    prob = [0] * n
    alias = [-1] * n
    work = list(mass)
    # deterministic Vose: stacks pop from the END, indexes ascending
    while small and large:
        s_i = small.pop()
        l_i = large.pop()
        prob[s_i] = work[s_i]
        alias[s_i] = l_i
        work[l_i] = work[l_i] - (UNIT - work[s_i])
        if work[l_i] < UNIT:
            small.append(l_i)
        else:
            large.append(l_i)
    for i in small + large:
        prob[i] = UNIT
        alias[i] = -1
    srcs = [s for s, _ in counts]
    return pd.DataFrame([{
        "slot": i, "source": srcs[i], "prob_ppm": prob[i],
        "alias_source": srcs[alias[i]] if alias[i] >= 0 else ""}
        for i in range(n)]).astype(num)


def _q_bloom_fpr_audit(sf_dir: str):
    """Bloom-filter false-positive audit with a FULLY DETERMINISTIC
    sketch: purchase users populate a 1024-bit / 4-hash filter
    (positions = md5(user_id) hex windows % 1024); 10 000 synthetic
    out-of-set ids (max_user+1 ..) probe it; report the measured FPR
    in exact ppm -> one row (n_members, n_probes, n_bits_set,
    n_false_pos, fpr_ppm).  The sketch-quality companion to the
    KMV/HLL/CMS family — every bit is md5-derived, so the ORACLE
    rebuilds the identical filter in SQL (synthetic probes make the
    audit non-vacuous: every observed user purchases in this corpus).

    Scale shape: one bounded user-domain groupby (member flag per
    user); positions and probes are map-side md5 over bounded id
    lists; the 1024-bit array lives on the driver."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    M, K, NPROBE = 1024, 4, 10_000

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "p": pc.cast(pc.equal(pc.fill_null(pc.cast(
                b.column("event_type"), pa.string()), ""),
                "purchase"), pa.int8())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("u").aggregate(Max("p")).take_all()
    out_cols = {"n_members": "int64", "n_probes": "int64",
                "n_bits_set": "int64", "n_false_pos": "int64",
                "fpr_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)

    def positions(u: int):
        h = hashlib.md5(str(u).encode()).hexdigest()
        return [int(h[8 * i:8 * i + 8], 16) % M for i in range(K)]

    members = [int(r["u"]) for r in rows if int(r["max(p)"]) == 1]
    max_u = max(int(r["u"]) for r in rows)
    probes = list(range(max_u + 1, max_u + 1 + NPROBE))
    bits = set()
    for u in members:
        bits.update(positions(u))
    fp = sum(1 for u in probes if all(pos in bits
                                      for pos in positions(u)))
    n_probes = len(probes)
    return pd.DataFrame([{
        "n_members": len(members), "n_probes": n_probes,
        "n_bits_set": len(bits), "n_false_pos": fp,
        "fpr_ppm": (fp * 1_000_000) // n_probes if n_probes else 0}]) \
        .astype(out_cols)


def _q_unseen_vocab_estimate(sf_dir: str):
    """Chao1 unseen-species estimate of the BIGRAM vocabulary (how
    many more unique bigrams a bigger crawl would surface — the
    corpus-coverage planning number): est_milli = V*1000 +
    (N1^2*1000)//(2*N2) (bias-corrected N1*(N1-1)//2 form when N2=0)
    from exact singleton/doubleton counts -> one row (v_obs, n1, n2,
    chao1_milli).

    Scale shape: vectorized within-doc bigram explode (row-aligned
    shift, no per-row Python) -> bigram-keyed partition totals ->
    three counters."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"bg": "object", "c": "int64"}
        s = df["text"].fillna("").str.split(" ").explode()
        s = s[s != ""]
        if len(s) < 2:
            return pd.DataFrame(columns=list(cols)).astype(
                {"c": "int64"})
        vals = s.to_numpy(object)
        rows = s.index.to_numpy()
        m = rows[1:] == rows[:-1]
        if not m.any():
            return pd.DataFrame(columns=list(cols)).astype(
                {"c": "int64"})
        bg = np.char.add(np.char.add(
            vals[:-1][m].astype(str), " "), vals[1:][m].astype(str))
        vc = pd.Series(bg).value_counts()
        return pd.DataFrame({"bg": vc.index.to_numpy(object),
                             "c": vc.to_numpy(np.int64)}).astype(cols)

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"v": "int64", "n1": "int64", "n2": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        tot = df.groupby("bg", sort=False)["c"].sum()
        return pd.DataFrame([{
            "v": len(tot), "n1": int((tot == 1).sum()),
            "n2": int((tot == 2).sum())}]).astype(cols)

    parts = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pandas"), ["bg"], resolve) \
        .to_pandas()
    out_cols = {"v_obs": "int64", "n1": "int64", "n2": "int64",
                "chao1_milli": "int64"}
    if len(parts) == 0 or "v" not in parts.columns:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    v = int(parts["v"].sum())
    n1 = int(parts["n1"].sum())
    n2 = int(parts["n2"].sum())
    if n2 > 0:
        est = v * 1000 + (n1 * n1 * 1000) // (2 * n2)
    else:
        est = v * 1000 + (n1 * (n1 - 1) * 1000) // 2
    return pd.DataFrame([{
        "v_obs": v, "n1": n1, "n2": n2, "chao1_milli": est}]) \
        .astype(out_cols)


def _q_ipf_raking(sf_dir: str):
    """Iterative proportional fitting (raking) of the (source, lang)
    contingency table to UNIFORM target margins — the survey-weighting
    / dataset-rebalancing primitive: 4 unrolled row+column scaling
    rounds in exact ppm-mass integers (w' = w * target_mass //
    axis_sum, fixed order — the Markov-stationary unrolled-iteration
    precedent) -> (source, lang, n_docs, raked_mass_ppm).

    Scale shape: ONE bounded (source x lang) count groupby; the tiny
    table rakes on the driver with Python ints; the oracle unrolls
    the identical rounds as CTEs."""
    import pandas as pd
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["source", "lang"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "source": pc.fill_null(pc.cast(b.column("source"),
                                           pa.string()), ""),
            "lang": pc.fill_null(pc.cast(b.column("lang"),
                                         pa.string()), "und")})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["source", "lang"]).aggregate(Count()).take_all()
    out_cols = {"source": "object", "lang": "object",
                "n_docs": "int64", "raked_mass_ppm": "int64"}
    num = {"n_docs": "int64", "raked_mass_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    cells = {(r["source"], r["lang"]): int(r["count()"])
             for r in rows}
    total = sum(cells.values())
    srcs = sorted({s for s, _ in cells})
    langs = sorted({l for _, l in cells})
    ns, nl = len(srcs), len(langs)
    # uniform targets with remainder to the lexicographically first
    row_t = {s: (total // ns + (1 if i < total % ns else 0))
             * 1_000_000 for i, s in enumerate(srcs)}
    col_t = {l: (total // nl + (1 if i < total % nl else 0))
             * 1_000_000 for i, l in enumerate(langs)}
    w = {k: v * 1_000_000 for k, v in cells.items()}
    for _ in range(4):
        rs = {s: sum(w[(s2, l)] for (s2, l) in w if s2 == s)
              for s in srcs}
        w = {(s, l): (w[(s, l)] * row_t[s]) // rs[s]
             for (s, l) in w if rs[s] > 0}
        cs = {l: sum(w[(s, l2)] for (s, l2) in w if l2 == l)
              for l in langs}
        w = {(s, l): (w[(s, l)] * col_t[l]) // cs[l]
             for (s, l) in w if cs[l] > 0}
    out = [{"source": s2, "lang": l2, "n_docs": cells[(s2, l2)],
            "raked_mass_ppm": w.get((s2, l2), 0)}
           for (s2, l2) in sorted(cells)]
    return pd.DataFrame(out).astype(num)


def _q_chunk_for_training(sf_dir: str):
    """Training-prep chunking plan: every doc splits into 128-token
    windows with 16-token overlap (stride 112; n_chunks =
    (n_tokens + 95) // 112, last chunk always > overlap long) ->
    (doc_id, chunk_idx, start_tok, n_tokens).  The
    long-document-to-context-window layout step before packing.

    Scale shape: PURE map-side — vectorized token counts + numpy
    explode (repeat/arange), zero shuffles; output is corpus-sized by
    design (a transform, not an aggregate)."""
    import pandas as pd

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    W, STEP = 128, 112

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "chunk_idx": "int64",
                "start_tok": "int64", "n_tokens": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        n = df["text"].fillna("").str.count("[^ ]+") \
            .to_numpy(np.int64)
        doc = df["doc_id"].fillna(-1).astype("int64") \
            .to_numpy(np.int64)
        n_chunks = np.where(n > 0, (n + 95) // STEP, 0)
        total = int(n_chunks.sum())
        if total == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        doc_rep = np.repeat(doc, n_chunks)
        n_rep = np.repeat(n, n_chunks)
        offs = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        idx = np.arange(total, dtype=np.int64) - offs
        start = idx * STEP
        length = np.minimum(W, n_rep - start)
        return pd.DataFrame({
            "doc_id": doc_rep, "chunk_idx": idx,
            "start_tok": start, "n_tokens": length}).astype(cols)

    return ds.map_batches(prep, batch_format="pandas")


def _q_logrank_lifetimes(sf_dir: str):
    """Two-sample log-rank test on user lifetimes (cohorts = user_id
    parity, all uncensored): observed deaths O1 in cohort A plus the
    exact floor-ppm expected/variance sums E1 = sum d*n1//n and V =
    sum d*n1*n2*(n-d) // (n^2*(n-1)) over distinct death days -> one
    row (n_users_a, n_users_b, o1, e1_ppm, v_ppm).  The survival
    A/B-test statistic, exact integers end to end (the KM per-step
    quantization precedent).

    Scale shape: user-keyed lifetime pass -> bounded day-domain
    groupby -> driver walks the sorted day table with Python
    arbitrary-precision ints (the products overflow int64)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        t = pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64())})
        return t.filter(pc.is_valid(b.column("ts")))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"d": "int64", "d1": "int64", "dd": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = df.groupby("u")["ts_us"].agg(["min", "max"])
        life = (g["max"].to_numpy(np.int64)
                - g["min"].to_numpy(np.int64)) // DAY
        grp = np.abs(g.index.to_numpy(np.int64)) % 2
        t = pd.DataFrame({"d": life, "a": (grp == 0).astype(np.int64),
                          "n": 1}).groupby("d", as_index=False).sum()
        return pd.DataFrame({"d": t["d"].to_numpy(np.int64),
                             "d1": t["a"].to_numpy(np.int64),
                             "dd": t["n"].to_numpy(np.int64)}) \
            .astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["u"], resolve) \
        .groupby("d").aggregate(Sum("d1"), Sum("dd")).take_all()
    out_cols = {"n_users_a": "int64", "n_users_b": "int64",
                "o1": "int64", "e1_ppm": "int64", "v_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    recs = sorted((int(r["d"]), int(r["sum(d1)"]), int(r["sum(dd)"]))
                  for r in rows)
    t1 = sum(d1 for _, d1, _ in recs)
    tt = sum(dd for _, _, dd in recs)
    n1 = t1
    n = tt
    o1 = t1
    e1 = 0
    v = 0
    for _, d1, dd in recs:
        e1 += (dd * n1 * 1_000_000) // n
        if n > 1:
            v += (dd * n1 * (n - n1) * (n - dd) * 1_000_000) \
                // (n * n * (n - 1))
        n1 -= d1
        n -= dd
    return pd.DataFrame([{
        "n_users_a": t1, "n_users_b": tt - t1, "o1": o1,
        "e1_ppm": e1, "v_ppm": v}]).astype(out_cols)


def _q_heaps_curve(sf_dir: str):
    """Heaps'-law vocabulary growth curve: distinct-term count after
    each doc_id decile of the corpus (docs ordered by doc_id) ->
    (decile, boundary_doc_id, vocab_size).  The tokenizer-budget /
    OOV-planning curve.

    Scale shape: boundaries from the sorted distinct doc_id list
    (driver holds #docs ids — the gains_table bound; swap for the
    distributed quantile_disc kernel beyond that); vocabulary counts
    from a term-keyed partition pass emitting each term's FIRST
    doc_id binned against the broadcast boundaries — V(k) closes as a
    10-cell cumsum."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def id_prep(b: pa.Table) -> pa.Table:
        ids = pc.drop_null(pc.cast(b.column("doc_id"), pa.int64())) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(np.unique(ids))})

    ids = np.unique(np.concatenate(
        [b.column("doc_id").to_numpy(zero_copy_only=False)
         for b in ds.map_batches(id_prep, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow")]
        or [np.empty(0, np.int64)]))
    out_cols = {"decile": "int64", "boundary_doc_id": "int64",
                "vocab_size": "int64"}
    if len(ids) < 10:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    n = len(ids)
    bounds = np.array([ids[(n * k) // 10 - 1] for k in range(1, 11)],
                      np.int64)
    import ray
    b_ref = ray.put(bounds)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].fillna("").str.split(" ").explode()
        s = s[s != ""]
        fd = pd.DataFrame({
            "term": s.to_numpy(object),
            "fd": df["doc_id"].fillna(-1).astype("int64")
            .reindex(s.index).to_numpy(np.int64)}) \
            .groupby("term", as_index=False)["fd"].min()
        return fd

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"bin": "int64", "n": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        import ray as _ray
        bnds = _ray.get(b_ref)
        fd = df.groupby("term", sort=False)["fd"].min() \
            .to_numpy(np.int64)
        j = np.searchsorted(bnds, fd, side="left")
        vc = pd.Series(j).value_counts()
        return pd.DataFrame({
            "bin": vc.index.to_numpy(np.int64),
            "n": vc.to_numpy(np.int64)}).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pandas"), ["term"],
        resolve).groupby("bin").aggregate(Sum("n")).take_all()
    hist = np.zeros(11, np.int64)
    for r in rows:
        b = int(r["bin"])
        if 0 <= b <= 10:
            hist[b] += int(r["sum(n)"])
    cum = np.cumsum(hist)
    return pd.DataFrame([{
        "decile": k, "boundary_doc_id": int(bounds[k - 1]),
        "vocab_size": int(cum[k - 1])} for k in range(1, 11)]) \
        .astype(out_cols)


def _q_sessionize_sweep(sf_dir: str):
    """Idle-timeout sensitivity sweep: session counts for THREE
    timeouts (5 min / 30 min / 2 h) from ONE user-keyed pass — the
    parameter-tuning companion to sessionize (per user, n_sessions(T)
    = 1 + #gaps > T; a gap histogram computed once serves every
    threshold) -> (timeout_s, n_users, n_sessions)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
    TIMEOUTS = (300, 1800, 7200)

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        t = pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1)})
        return t.filter(pc.is_valid(b.column("ts")))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"timeout_s": "int64", "nu": "int64", "ns": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["u", "ts_us", "eid"], kind="stable")
        u = df["u"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        gaps = (ts[1:] - ts[:-1])[same]
        n_users = len(np.unique(u))
        out = [{"timeout_s": t_s,
                "nu": n_users,
                "ns": n_users + int((gaps > t_s * 1_000_000).sum())}
               for t_s in TIMEOUTS]
        return pd.DataFrame(out).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["u"], resolve) \
        .groupby("timeout_s").aggregate(Sum("nu"), Sum("ns")) \
        .take_all()
    out_cols = {"timeout_s": "int64", "n_users": "int64",
                "n_sessions": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "timeout_s": int(r["timeout_s"]),
        "n_users": int(r["sum(nu)"]),
        "n_sessions": int(r["sum(ns)"])} for r in rows]) \
        .astype(out_cols).sort_values("timeout_s") \
        .reset_index(drop=True)


def _q_dup_span_coverage(sf_dir: str):
    """Per-source duplication pressure from the EXACT substring dedup:
    share of tokens covered by sa_dup_spans' >= 13-token duplicated
    spans -> (source, n_docs, total_tokens, dup_tokens,
    coverage_ppm).  The release-report metric the ExactSubstr paper
    motivates, composed on the prefix-doubling kernel's output.

    Scale shape: the span table joins docs on a doc_id-keyed
    partition pass (spans are a small fraction of docs); totals close
    in a source-domain groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import (_grouped_by_partition,
                                           sa_dup_spans)

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "text"])
    spans = sa_dup_spans(docs.select_columns(["doc_id", "text"]),
                         min_len=13)

    def doc_prep(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        return pd.DataFrame({
            "doc": df["doc_id"].fillna(-1).astype("int64"),
            "source": df["source"].fillna("").astype(object),
            "ntok": t.str.count("[^ ]+").astype("int64"),
            "dup": np.zeros(len(df), np.int64),
            "is_doc": np.ones(len(df), np.int64)})

    def span_prep(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc": "int64", "source": "object", "ntok": "int64",
                "dup": "int64", "is_doc": "int64"}
        if len(df) == 0 or "doc_id" not in df.columns:
            return pd.DataFrame(columns=list(cols)).astype(
                {k: v for k, v in cols.items() if k != "source"})
        return pd.DataFrame({
            "doc": df["doc_id"].to_numpy(np.int64),
            "source": np.full(len(df), "", object),
            "ntok": np.zeros(len(df), np.int64),
            "dup": df["n_tokens"].to_numpy(np.int64),
            "is_doc": np.zeros(len(df), np.int64)})

    doc_rows = docs.map_batches(doc_prep, batch_format="pandas")
    if hasattr(spans, "map_batches"):
        span_rows = spans.map_batches(span_prep, batch_format="pandas")
        both = doc_rows.union(span_rows)
    else:  # typed-empty pandas frame (no dup spans at all)
        both = doc_rows

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"source": "object", "n_docs": "int64",
                "total_tokens": "int64", "dup_tokens": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {k: v for k, v in cols.items() if k != "source"})
        dup_per_doc = df[df["is_doc"] == 0].groupby("doc")["dup"] \
            .sum()
        d = df[df["is_doc"] == 1].copy()
        d["dup"] = d["doc"].map(dup_per_doc).fillna(0) \
            .astype(np.int64)
        g = d.groupby("source", as_index=False).agg(
            n_docs=("doc", "size"), total_tokens=("ntok", "sum"),
            dup_tokens=("dup", "sum"))
        return g.astype(cols)

    rows = _grouped_by_partition(both, ["doc"], resolve) \
        .groupby("source").aggregate(Sum("n_docs"),
                                     Sum("total_tokens"),
                                     Sum("dup_tokens")).take_all()
    out_cols = {"source": "object", "n_docs": "int64",
                "total_tokens": "int64", "dup_tokens": "int64",
                "coverage_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = []
    for r in rows:
        tot = int(r["sum(total_tokens)"])
        dup = int(r["sum(dup_tokens)"])
        out.append({"source": r["source"],
                    "n_docs": int(r["sum(n_docs)"]),
                    "total_tokens": tot, "dup_tokens": dup,
                    "coverage_ppm": (dup * 1_000_000) // tot
                    if tot else 0})
    return pd.DataFrame(out).astype(num) \
        .sort_values("source").reset_index(drop=True)


def _q_event_order_audit(sf_dir: str):
    """Out-of-order ingestion audit (the stream-quality check): per
    user, count adjacent pairs in (ts, event_id) order whose event_id
    DECREASES — late-arriving or re-sequenced rows; report per-user
    totals for users with at least one inversion -> (user_id, n_events,
    n_inversions).

    Scale shape: ONE user-keyed partition pass; the lexsorted
    shifted-compare is fully vectorized."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        t = pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1)})
        return t.filter(pc.is_valid(b.column("ts")))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": "int64", "n_events": "int64",
                "n_inversions": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["u", "ts_us", "eid"], kind="stable")
        u = df["u"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        inv = same & (eid[1:] < eid[:-1])
        g = pd.DataFrame({"u": u, "n": 1}) \
            .groupby("u", as_index=False).sum()
        gi = pd.DataFrame({"u": u[:-1][inv], "i": 1}) \
            .groupby("u", as_index=False).sum() if inv.any() else \
            pd.DataFrame({"u": [], "i": []})
        m = g.merge(gi, on="u", how="left").fillna(0)
        m = m[m["i"] > 0]
        return pd.DataFrame({
            "user_id": m["u"].to_numpy(np.int64),
            "n_events": m["n"].to_numpy(np.int64),
            "n_inversions": m["i"].to_numpy(np.int64)}).astype(cols)

    out = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["u"], resolve)
    import pandas as _pd
    df = out.to_pandas()
    cols = {"user_id": "int64", "n_events": "int64",
            "n_inversions": "int64"}
    if len(df) == 0 or "user_id" not in df.columns:
        return _pd.DataFrame(columns=list(cols)).astype(cols)
    return df.sort_values("user_id").reset_index(drop=True)


def _q_dow_hour_heatmap(sf_dir: str):
    """Activity heatmap cells: events bucketed by (day-of-week, hour)
    in UTC -> (dow, hour, n_events) with dow 0=Thursday epoch
    convention mapped to ISO-ish 0=Monday via (days+3)%7.

    Scale shape: pure map-side (dow,hour) partial counts -> 168-cell
    groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        us = pc.drop_null(pc.cast(ts_col, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        dow = (day + 3) % 7
        hour = (us // 3_600_000_000) % 24
        g = pd.DataFrame({"dow": dow, "hour": hour, "n": 1}) \
            .groupby(["dow", "hour"], as_index=False).sum()
        return pa.table({
            "dow": pa.array(g["dow"].to_numpy(np.int64)),
            "hour": pa.array(g["hour"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["dow", "hour"]).aggregate(Sum("n")).take_all()
    out_cols = {"dow": "int64", "hour": "int64", "n_events": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "dow": int(r["dow"]), "hour": int(r["hour"]),
        "n_events": int(r["sum(n)"])} for r in rows]) \
        .astype(out_cols).sort_values(["dow", "hour"]) \
        .reset_index(drop=True)


def _q_interarrival_buckets(sf_dir: str):
    """Per-user inter-event gap distribution in log2 seconds buckets
    (bucket = floor(log2(gap_s+1)) via bit_length) -> (bucket,
    n_gaps).  The traffic-model / burstiness fingerprint.

    Scale shape: ONE user-keyed partition pass emits bounded bucket
    partials; a ~40-cell groupby merges."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        t = pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1)})
        return t.filter(pc.is_valid(b.column("ts")))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"bucket": "int64", "n": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["u", "ts_us", "eid"], kind="stable")
        u = df["u"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        gaps_s = (ts[1:] - ts[:-1])[same] // 1_000_000
        if len(gaps_s) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        # floor(log2(gap_s + 1)) == bit_length(gap_s + 1) - 1, exact
        b2 = np.frompyfunc(lambda g: int(g + 1).bit_length() - 1,
                           1, 1)(gaps_s).astype(np.int64)
        vc = pd.Series(b2).value_counts()
        return pd.DataFrame({
            "bucket": vc.index.to_numpy(np.int64),
            "n": vc.to_numpy(np.int64)}).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["u"], resolve) \
        .groupby("bucket").aggregate(Sum("n")).take_all()
    out_cols = {"bucket": "int64", "n_gaps": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "bucket": int(r["bucket"]), "n_gaps": int(r["sum(n)"])}
        for r in rows]).astype(out_cols).sort_values("bucket") \
        .reset_index(drop=True)


def _q_cohort_retention(sf_dir: str):
    """Weekly cohort-retention triangle (the product-analytics
    staple): cohort = a user's first active week, one row per
    (cohort_week, offset_weeks) with the count of cohort users active
    that week -> (cohort_week, offset_weeks, n_users).

    Scale shape: ONE user-keyed partition pass computes each user's
    distinct active weeks + cohort locally (users never straddle
    partitions) and emits (cohort, offset) partials; a small
    (cohort x offset)-domain groupby merges counts."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    WEEK = 604_800_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        t = pa.table({
            "u": pc.fill_null(pc.cast(b.column("user_id"),
                                      pa.int64()), -1),
            "w": pc.cast(ts_col, pa.int64())})
        mask = pc.is_valid(b.column("ts"))
        t = t.filter(mask)
        return pa.table({
            "u": t.column("u"),
            "w": pc.divide(t.column("w"), WEEK)})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"cohort": "int64", "off": "int64", "n": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        uw = df.drop_duplicates(["u", "w"])
        cw = uw.groupby("u", sort=False)["w"].transform("min")
        g = pd.DataFrame({"cohort": cw.to_numpy(np.int64),
                          "off": uw["w"].to_numpy(np.int64)
                          - cw.to_numpy(np.int64)}) \
            .groupby(["cohort", "off"], as_index=False).size() \
            .rename(columns={"size": "n"})
        return g.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["u"],
        resolve).groupby(["cohort", "off"]).aggregate(Sum("n")) \
        .take_all()
    out_cols = {"cohort_week": "int64", "offset_weeks": "int64",
                "n_users": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "cohort_week": int(r["cohort"]),
        "offset_weeks": int(r["off"]),
        "n_users": int(r["sum(n)"])} for r in rows]) \
        .astype(out_cols).sort_values(["cohort_week", "offset_weeks"]) \
        .reset_index(drop=True)


def _q_revenue_drawdown(sf_dir: str):
    """Max drawdown of the CUMULATIVE DEVIATION of daily revenue from
    its mean (cents, exact ints: flow_d = N*rev_d - T keeps everything
    integer): the worst peak-to-trough slump of the demeaned revenue
    path -> one row (max_drawdown_units, at_day).  Ties take the
    earliest day; raw revenue is all-positive so the demeaned series
    is the meaningful drawdown axis.

    Scale shape: day-domain partial sums -> the tiny day table closes
    on the driver."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(pc.cast(b.column("o_orderdate"),
                                       pa.date32()), pa.int32()),
                       pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(b.column("o_totalprice"), pa.float64()), 100.0)),
            pa.int64()).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"day": days, "c": cents}) \
            .groupby("day", as_index=False).sum()
        return pa.table({"day": pa.array(g["day"].to_numpy(np.int64)),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("day").aggregate(Sum("c")).take_all()
    out_cols = {"max_drawdown_units": "int64", "at_day": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    recs = sorted((int(r["day"]), int(r["sum(c)"])) for r in rows)
    n = len(recs)
    t = sum(c for _, c in recs)
    cum = 0
    peak = 0
    best = 0
    best_day = recs[0][0]
    for d, c in recs:
        cum += n * c - t
        if cum > peak:
            peak = cum
        dd = peak - cum
        if dd > best:
            best = dd
            best_day = d
    return pd.DataFrame([{"max_drawdown_units": best,
                          "at_day": best_day}]).astype(out_cols)


def _q_revenue_lorenz(sf_dir: str):
    """Customer-revenue Lorenz deciles (the inequality panel): rank
    customers with orders by (total cents asc, custkey asc), split
    into 10 integer deciles (first r deciles take the remainder),
    report each decile's revenue and cumulative share in exact ppm ->
    (decile, n_customers, revenue_cents, cum_share_ppm).

    Scale shape: custkey-domain partial sums (bounded by #customers)
    -> the driver walks the sorted per-customer totals once (the
    gains_table value-table pattern)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        key = pc.fill_null(pc.cast(b.column("o_custkey"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            pc.cast(b.column("o_totalprice"), pa.float64()), 100.0)),
            pa.int64()).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"k": key, "c": cents}) \
            .groupby("k", as_index=False).sum()
        return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("c")).take_all()
    out_cols = {"decile": "int64", "n_customers": "int64",
                "revenue_cents": "int64", "cum_share_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    recs = sorted((int(r["sum(c)"]), int(r["k"])) for r in rows)
    n = len(recs)
    if n < 10:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    total = sum(c for c, _ in recs)
    base, rem = n // 10, n % 10
    sizes = [base + (1 if i < rem else 0) for i in range(10)]
    out = []
    i = 0
    cum = 0
    for dec, sz in enumerate(sizes, start=1):
        cents = sum(c for c, _ in recs[i:i + sz])
        cum += cents
        out.append({"decile": dec, "n_customers": sz,
                    "revenue_cents": cents,
                    "cum_share_ppm": (cum * 1_000_000) // total
                    if total else 0})
        i += sz
    return pd.DataFrame(out).astype(out_cols)


def _q_html_extract_eval(sf_dir: str):
    """Extraction-quality eval for the HTML boilerplate strip (the P10
    graft-mandated path): labeled synthetic pages
    (data/htmlgen.labeled_page — graded classes including deliberate
    hard cases: stopword-free short content that the linguistic rule
    misses, cookie-banner prose that is structurally content) ->
    per-class keep rates plus corpus precision/recall/F1 in exact ppm
    integers.  Rows-only (engine-side extraction is not
    SQL-expressible); thresholds pinned in tests/test_html_eval.py.
    The HTML-side analogue of neardup_eval_report.

    Scale shape: map-side per-batch class counters -> tiny
    class-domain groupby; pages never leave the workers."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def score(b: pa.Table) -> pa.Table:
        from collections import Counter

        from pdf_extract_ray.data.htmlgen import labeled_page
        from pdf_extract_ray.engine.html_extract import extract_html_text
        n: Counter = Counter()
        k: Counter = Counter()
        for d in b.column("doc_id").to_pylist():
            if d is None:
                continue
            html, parts = labeled_page(int(d))
            try:
                text = extract_html_text(html)
            except Exception:
                text = ""
            for cls, m in parts:
                n[cls] += 1
                if m in text:
                    k[cls] += 1
        keys = sorted(n)
        return pa.table({
            "cls": pa.array(keys, pa.string()),
            "n": pa.array([n[c] for c in keys], pa.int64()),
            "k": pa.array([k[c] for c in keys], pa.int64())})

    rows = ds.map_batches(score, batch_format="pyarrow") \
        .groupby("cls").aggregate(Sum("n"), Sum("k")).take_all()
    out_cols = {"name": "object", "n_parts": "int64",
                "n_kept": "int64", "ppm": "int64"}
    num = {c: "int64" for c in ("n_parts", "n_kept", "ppm")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    M = 1_000_000
    stats = {r["cls"]: (int(r["sum(n)"]), int(r["sum(k)"]))
             for r in rows}
    out = [{"name": c, "n_parts": nn, "n_kept": kk,
            "ppm": (kk * M) // nn if nn else 0}
           for c, (nn, kk) in sorted(stats.items())]
    tp = sum(kk for c, (nn, kk) in stats.items()
             if c.startswith("content"))
    fn = sum(nn - kk for c, (nn, kk) in stats.items()
             if c.startswith("content"))
    fp = sum(kk for c, (nn, kk) in stats.items()
             if c.startswith("boiler"))
    prec = (tp * M) // (tp + fp) if tp + fp else 0
    rec = (tp * M) // (tp + fn) if tp + fn else 0
    f1 = (2 * prec * rec) // (prec + rec) if prec + rec else 0
    out.append({"name": "precision", "n_parts": tp + fp,
                "n_kept": tp, "ppm": prec})
    out.append({"name": "recall", "n_parts": tp + fn, "n_kept": tp,
                "ppm": rec})
    out.append({"name": "f1", "n_parts": 0, "n_kept": 0, "ppm": f1})
    return pd.DataFrame(out).astype(num)


def _q_neardup_eval_report(sf_dir: str):
    """Self-evaluating dedup quality report (the ann_recall_report
    analog for the near-dup stack): MinHash-LSH candidate pairs at
    threshold 0.5 scored against the EXACT word-3-gram Jaccard >= 1/2
    self-join (ops/dedup.ssjoin_jaccard — no probabilistic misses) on
    the planted-near-dup corpus -> one row (n_truth, n_pred, precision,
    recall, f1).  Both pair sets are bounded (near-dup rates, not the
    corpus), so the driver compare is tiny."""
    import pandas as pd
    from pdf_extract_ray.ops.dedup import minhash_lsh_pairs, ssjoin_jaccard

    # graded-mutation corpus: copies at deterministic word-replacement
    # strides produce pair similarities ON BOTH SIDES of the 0.5
    # threshold (stride 2 ~ heavy mutation, far below; stride 8 ~ light,
    # far above; strides 3-5 land near the boundary), so precision and
    # recall are informative rather than trivially 1.0
    def graded(batch: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 4 == 0:
                stride = 2 + (d // 4) % 7  # 2..8
                words = t.split(" ")
                for i in range(0, len(words), stride):
                    words[i] = f"mut{i}"
                ids.append(d + 1_000_000)
                texts.append(" ".join(words))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(texts, pa.string())],
            names=["doc_id", "text"])

    base = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = base.union(base.map_batches(graded, batch_format="pyarrow")) \
        .materialize()
    tru = ssjoin_jaccard(ds, n=3, t_num=1, t_den=2).to_pandas()
    truth = {(min(a, b), max(a, b))
             for a, b in zip(tru["doc_id_a"], tru["doc_id_b"])}
    pr = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    pred = {(min(a, b), max(a, b))
            for a, b in zip(pr["doc_id_a"], pr["doc_id_b"])}
    tp = len(truth & pred)
    prec = tp / len(pred) if pred else 0.0
    rec = tp / len(truth) if truth else 0.0
    f1 = (2 * prec * rec / (prec + rec)) if (prec + rec) else 0.0
    return pd.DataFrame({
        "n_truth": [np.int64(len(truth))],
        "n_pred": [np.int64(len(pred))],
        "precision": [prec], "recall": [rec], "f1": [f1]})


def _q_above_avg_sources(sf_dir: str):
    """HAVING-above-group-average: sources whose total chars exceed the
    mean source total — one tiny per-source aggregate, integer
    cross-multiplied gate (total*k > grand), no float boundary."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    agg = ds.groupby("source").aggregate(Sum("n_chars")).materialize()
    rows = agg.take_all()
    k = len(rows)
    grand = sum(int(r["sum(n_chars)"]) for r in rows)

    def gate(b: pa.Table) -> pa.Table:
        tot = pc.cast(b.column("sum(n_chars)"), pa.int64()).to_numpy()
        keep = tot * k > grand
        return pa.table({
            "source": b.column("source").filter(pa.array(keep)),
            "total_chars": pa.array(tot[keep])})

    return agg.map_batches(gate, batch_format="pyarrow")


def _q_order_streaks(sf_dir: str):
    """Gaps-and-islands: each customer's LONGEST strictly-increasing
    run of order totals in (date, key) order -> (o_custkey,
    max_streak).  One custkey partition pass; runs found with a
    vectorized break-flag cumsum + bincount — exact cents comparisons,
    no float arithmetic."""
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate",
                        "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "cust": pc.cast(b.column("o_custkey"), pa.int64()),
            "okey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "od": pc.cast(b.column("o_orderdate"), pa.timestamp("us")),
            "p": pa.array(np.rint(b.column("o_totalprice").to_numpy(
                zero_copy_only=False) * 100).astype(np.int64))})

    def streaks(df):
        import pandas as pd
        cols = {"o_custkey": "int64", "max_streak": "int64"}
        n = len(df)
        if n == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        cust = df["cust"].to_numpy(np.int64)
        od = df["od"].to_numpy().astype("datetime64[us]").view(np.int64)
        okey = df["okey"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64)
        order = np.lexsort((okey, od, cust))
        c, v = cust[order], p[order]
        first = np.r_[True, c[1:] != c[:-1]]
        inc = np.r_[False, v[1:] > v[:-1]]
        brk = first | ~inc
        runid = np.cumsum(brk) - 1
        lens = np.bincount(runid)
        run_cust = c[brk]
        g = pd.DataFrame({"o_custkey": run_cust, "len": lens}) \
            .groupby("o_custkey", sort=False, as_index=False).max()
        return pd.DataFrame({
            "o_custkey": g["o_custkey"].to_numpy(np.int64),
            "max_streak": g["len"].to_numpy(np.int64)})

    rows = ds.map_batches(prep, batch_format="pyarrow")
    return _grouped_by_partition(rows, ["cust"], streaks, n_parts=32)


def _q_order_gap_stats(sf_dir: str):
    """Inter-order cadence per customer: number of gaps and their exact
    integer-microsecond sum (mean = sum/n as an exact pair, no float
    division) over (date, key)-ordered orders; single-order customers
    drop.  One custkey partition pass, lexsort + masked diff."""
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate"])

    def gaps(df):
        import pandas as pd
        cols = {"o_custkey": "int64", "n_gaps": "int64",
                "sum_gap_us": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        cust = df["o_custkey"].to_numpy(np.int64)
        od = df["o_orderdate"].to_numpy().astype("datetime64[us]") \
            .view(np.int64)
        okey = df["o_orderkey"].to_numpy(np.int64)
        order = np.lexsort((okey, od, cust))
        c, t = cust[order], od[order]
        same = np.r_[False, c[1:] == c[:-1]]
        gap = np.r_[0, t[1:] - t[:-1]]
        g = pd.DataFrame({"o_custkey": c[same], "gap": gap[same]}) \
            .groupby("o_custkey", sort=False, as_index=False) \
            .agg(n_gaps=("gap", "size"), sum_gap_us=("gap", "sum"))
        g["n_gaps"] = g["n_gaps"].astype(np.int64)
        g["sum_gap_us"] = g["sum_gap_us"].astype(np.int64)
        return g

    return _grouped_by_partition(ds, ["o_custkey"], gaps, n_parts=32)


def _q_ssjoin_containment(sf_dir: str):
    """EXACT directional containment self-join (|A&B|/|A| >= 3/4 over
    word-3-gram sets): finds quoted/subset duplicates symmetric
    Jaccard misses (ops/dedup.ssjoin_containment)."""
    from pdf_extract_ray.ops.dedup import ssjoin_containment
    # pin once: the op scans its input 3x (see _q_ssjoin_jaccard)
    return ssjoin_containment(
        _read(sf_dir, "documents",
              columns=["doc_id", "text"]).materialize(),
        n=3, t_num=3, t_den=4)


def _q_corpus_datacard(sf_dir: str):
    """Data-card summary (the release-documentation numbers) as one
    (metric, value) long-form table — each figure from the cheapest
    distributed kernel that computes it exactly: native counts/sums,
    two-stage distincts, the md5 dedup aggregate, the histogram-walk
    median.  Everything integer, fully oracled."""
    from concurrent.futures import ThreadPoolExecutor

    import pandas as pd
    from pdf_extract_ray.ops.dedup import _md5_batch
    # pin once; the six aggregates below are independent chains over
    # the pinned blocks, so they execute CONCURRENTLY (thread pool —
    # the key_skew_report pattern; plans are built serially here)
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source", "n_chars"]) \
        .materialize()
    n_docs = ds.count()

    def _chars():
        return int(ds.sum("n_chars") or 0)

    def _sources():
        return ds.select_columns(["source"]).groupby("source") \
            .count().count()

    def _langs():
        return ds.select_columns(["lang"]).map_batches(
            lambda b: pa.table({"lang": pc.coalesce(
                b.column("lang"), pa.scalar("und"))}),
            batch_format="pyarrow").groupby("lang").count().to_pandas()

    def _distinct_texts():
        # dup docs = rows - distinct texts, via the md5 aggregate (the
        # shuffle carries digests, not text)
        return ds.map_batches(_md5_batch, batch_format="pyarrow") \
            .groupby("text_md5").count().count()

    def _hist():
        return ds.select_columns(["n_chars"]).groupby("n_chars") \
            .count().to_pandas().sort_values("n_chars")

    with ThreadPoolExecutor(max_workers=5) as pool:
        f_chars = pool.submit(_chars)
        f_sources = pool.submit(_sources)
        f_langs = pool.submit(_langs)
        f_groups = pool.submit(_distinct_texts)
        f_hist = pool.submit(_hist)
        total_chars = f_chars.result()
        n_sources = f_sources.result()
        lang_counts = f_langs.result()
        groups = f_groups.result()
        hist = f_hist.result()
    n_langs = len(lang_counts)
    top_lang_count = int(lang_counts["count()"].max()) if n_langs else 0
    n_dup_docs = n_docs - groups
    # discrete p50 with DuckDB quantile_disc index math:
    # target = ceil(50*n/100) (the grouped_percentiles kernel)
    cum = hist["count()"].cumsum().to_numpy()
    vals = hist["n_chars"].to_numpy(np.int64)
    p50 = int(vals[np.searchsorted(cum, (50 * n_docs + 99) // 100,
                                   side="left")]) if n_docs else 0
    rows = [("n_docs", n_docs), ("n_sources", n_sources),
            ("n_langs", n_langs), ("total_chars", total_chars),
            ("p50_chars", p50), ("n_dup_docs", n_dup_docs),
            ("top_lang_count", top_lang_count)]
    return pd.DataFrame({"metric": [r[0] for r in rows],
                         "value": np.array([r[1] for r in rows],
                                           np.int64)})


def _q_full_coverage_customers(sf_dir: str):
    """RELATIONAL DIVISION: customers with orders in EVERY distinct
    order-priority class — map-side (cust, prio) dedupe, one bounded
    distinct-count aggregate, integer equality against the global
    class count (itself a tiny distinct)."""
    from ray.data.aggregate import Count
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def dedup(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "c": b.column("o_custkey").to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "p": b.column("o_orderpriority").to_pandas()})
        return pa.Table.from_pandas(df.drop_duplicates(),
                                    preserve_index=False)

    pairs = ds.map_batches(dedup, batch_format="pyarrow").materialize()
    n_classes = pairs.map_batches(
        lambda b: b.select(["p"]), batch_format="pyarrow") \
        .groupby("p").count().count()
    per_cust = pairs.groupby(["c", "p"]).count() \
        .map_batches(lambda b: b.select(["c"]), batch_format="pyarrow") \
        .groupby("c").count()
    return per_cust.map_batches(
        lambda b: pa.table({
            "o_custkey": b.column("c").filter(
                pc.equal(pc.cast(b.column("count()"), pa.int64()),
                         n_classes))}),
        batch_format="pyarrow")


def _q_target_mixture_sample(sf_dir: str):
    """Target-WEIGHTED mixture sampling (the general data-mixing
    primitive; mixture_sample's uniform case generalized): source s
    with target weight w_s keeps docs at rate
    min(1, w_s*grand / (W*total_s)) — rebalancing chars toward the
    target shares.  Weights derive from the source NAME (even-index
    sources get 2x the share of odd) so both engines compute them
    without a side table.  The per-source keep THRESHOLD
    floor(2^32 * w_s * grand / (W * total_s)) is computed in exact
    python ints on the tiny per-source aggregate and broadcast; the
    map-side test is a single int64 compare h < thr — identical to the
    HUGEINT floor the oracle computes, so membership can never differ."""
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])
    tot = {r["source"]: int(r["sum(n_chars)"])
           for r in ds.groupby("source").sum("n_chars").take_all()}
    if not tot:
        return ds
    w = {s: 2 if int(s[3:]) % 2 == 0 else 1 for s in tot}
    grand = sum(tot.values())
    big_w = sum(w.values())
    thr = {s: min(1 << 32,
                  ((1 << 32) * w[s] * grand) // (big_w * tot[s]))
           for s in tot}

    def keep(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = b.to_pandas()
        h = (df["doc_id"].to_numpy(np.int64) * np.int64(2654435761)) \
            % np.int64(1 << 32)
        t = df["source"].map(thr).to_numpy(np.int64)
        return pa.Table.from_pandas(df[h < t], preserve_index=False)

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_late_event_counts(sf_dir: str):
    """Streaming watermark semantics: an event is LATE if its timestamp
    is more than 1 hour behind the user's watermark (the running max ts
    over ARRIVAL order) at arrival -> (user_id, n_events, n_late).
    Arrival order is the deterministic hash permutation
    (event_id * 2654435761) mod 2^32 — the synthetic ids are already
    time-ordered, so a pseudo-random arrival shuffle (identical in both
    engines) is what makes out-of-order ingest actually occur.  One
    user-keyed pass, grouped cummax shifted in-run, integer-us
    comparisons only — the out-of-order-ingest audit every event
    pipeline needs."""
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id"])
    wm_us = 3_600_000_000  # 1 hour

    def per_part(df):
        import pandas as pd
        cols = {"user_id": "int64", "n_events": "int64",
                "n_late": "int64"}
        n = len(df)
        if n == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        user = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        akey = (eid * np.int64(2654435761)) % np.int64(1 << 32)
        order = np.lexsort((eid, akey, user))  # arrival order in user
        u, t = user[order], ts[order]
        first = np.r_[True, u[1:] != u[:-1]]
        gid = np.cumsum(first) - 1
        cmax = pd.Series(t).groupby(gid).cummax().to_numpy()
        prev = np.r_[np.int64(-2 ** 62), cmax[:-1]]
        prev[first] = -2 ** 62  # a user's first arrival is never late
        late = t < prev - wm_us
        g = pd.DataFrame({"user_id": u, "late": late.astype(np.int64)}) \
            .groupby("user_id", sort=False, as_index=False) \
            .agg(n_events=("late", "size"), n_late=("late", "sum"))
        g["n_events"] = g["n_events"].astype(np.int64)
        g["n_late"] = g["n_late"].astype(np.int64)
        return g

    return _grouped_by_partition(ds, ["user_id"], per_part, n_parts=32)


def _q_snapshot_diff(sf_dir: str):
    """Snapshot diff audit (crawl-over-crawl change detection): OLD =
    docs with doc_id % 5 != 0; NEW = all docs, with doc_id % 7 == 0
    texts truncated to their first 3 words (the cdc_compaction delta) ->
    ONE row (n_added, n_removed, n_changed, n_same).  Texts never
    shuffle: both sides fold to (doc_id, md5) map-side, one id-keyed
    partition pass classifies, a scalar aggregate sums."""
    from ray.data.aggregate import Sum
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    import hashlib
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .materialize()

    def old_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = ids % 5 != 0
        texts = b.column("text").to_pandas()[keep]
        return pa.table({
            "doc_id": pa.array(ids[keep]),
            "h": pa.array([hashlib.md5((t or "").encode()).hexdigest()
                           for t in texts], pa.string()),
            "side": pa.array(np.zeros(int(keep.sum()), np.int8),
                             pa.int8())})

    def new_rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = b.column("text").to_pandas().fillna("")
        mod = ids % 7 == 0
        texts = texts.where(
            ~mod, texts.str.split(" ").str[:3].str.join(" "))
        return pa.table({
            "doc_id": pa.array(ids),
            "h": pa.array([hashlib.md5((t or "").encode()).hexdigest()
                           for t in texts], pa.string()),
            "side": pa.array(np.ones(len(ids), np.int8), pa.int8())})

    both = ds.map_batches(old_rows, batch_format="pyarrow") \
        .union(ds.map_batches(new_rows, batch_format="pyarrow"))

    def classify(df):
        import pandas as pd
        cols = {"n_added": "int64", "n_removed": "int64",
                "n_changed": "int64", "n_same": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        p = df.pivot_table(index="doc_id", columns="side", values="h",
                           aggfunc="first")
        old = p[0] if 0 in p.columns else pd.Series(dtype=object)
        new = p[1] if 1 in p.columns else pd.Series(dtype=object)
        has_o = p[0].notna() if 0 in p.columns \
            else pd.Series(False, index=p.index)
        has_n = p[1].notna() if 1 in p.columns \
            else pd.Series(False, index=p.index)
        added = int((~has_o & has_n).sum())
        removed = int((has_o & ~has_n).sum())
        both_m = has_o & has_n
        changed = int((both_m & (p[0] != p[1])).sum()) \
            if 0 in p.columns and 1 in p.columns else 0
        same = int(both_m.sum()) - changed
        return pd.DataFrame({"n_added": [added], "n_removed": [removed],
                             "n_changed": [changed], "n_same": [same]})

    parts = _grouped_by_partition(both, ["doc_id"], classify,
                                  n_parts=32)
    agg = parts.groupby(None).aggregate(
        Sum("n_added"), Sum("n_removed"), Sum("n_changed"),
        Sum("n_same"))
    return agg.map_batches(
        lambda b: pa.table({
            "n_added": pc.cast(b.column("sum(n_added)"), pa.int64()),
            "n_removed": pc.cast(b.column("sum(n_removed)"),
                                 pa.int64()),
            "n_changed": pc.cast(b.column("sum(n_changed)"),
                                 pa.int64()),
            "n_same": pc.cast(b.column("sum(n_same)"), pa.int64())}),
        batch_format="pyarrow")


def _q_catalog_rowcounts(sf_dir: str):
    """Catalog / information-schema analog: row count per registered
    table (Ray side reads parquet metadata — no data scan)."""
    import pandas as pd
    tables = ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"]
    counts = [_read(sf_dir, t).count() for t in tables]
    return pd.DataFrame({"table_name": tables,
                         "n_rows": np.array(counts, np.int64)})


def _q_order_size_distribution(sf_dir: str):
    """Two-level aggregate: distribution of lineitem counts per order
    -> (n_items, n_orders).  Map-side per-batch orderkey combine (the
    parquet is order-clustered, so ~1 row per order per block), ONE
    adaptive hash-partition pass (single-task below 1M rows — skips
    the native sort-exchange's fixed seconds), per-partition bincount,
    tiny driver merge.  A/B at sf0.1: 4.3 s -> see BASELINE.md."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def combine(b: pa.Table) -> pa.Table:
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        keys, cnt = np.unique(k, return_counts=True)
        return pa.table({"l_orderkey": pa.array(keys.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(combine, batch_format="pyarrow")

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"n_items": pd.Series([], np.int64),
                                 "n": pd.Series([], np.int64)})
        g = df.groupby("l_orderkey", sort=False)["n"].sum()
        h = np.bincount(g.to_numpy(np.int64))
        nz = np.flatnonzero(h)
        return pd.DataFrame({"n_items": nz.astype(np.int64),
                             "n": h[nz].astype(np.int64)})

    hist = _grouped_by_partition(partials, ["l_orderkey"], resolve,
                                 n_parts=16).take_all()
    df = _df_from_rows(hist, ["n_items", "n"])
    out = df.groupby("n_items", as_index=False)["n"].sum() \
        .rename(columns={"n": "n_orders"})
    out["n_items"] = out["n_items"].astype(np.int64)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out


def _q_stratified_hash_sample(sf_dir: str):
    """EXACT-k-per-stratum pseudo-random sample: each source keeps its
    5 docs with the smallest id-hash (deterministic, shard-independent,
    integer-exact — no float boundary, no RNG state).  Combinable
    bounded top-k: every block folds to <=5 candidates per source, one
    keyed pass picks the winners (the nth_event shape)."""
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    k = 5

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = pd.DataFrame({
            "doc_id": b.column("doc_id").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "source": b.column("source").to_pandas()})
        df["h"] = (df["doc_id"].to_numpy(np.int64)
                   * np.int64(2654435761)) % np.int64(1 << 32)
        df = df.sort_values(["source", "h", "doc_id"],
                            kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("source", sort=False).head(k),
            preserve_index=False)

    def resolve(df):
        import pandas as pd
        cols = {"doc_id": "int64", "source": "object"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"doc_id": "int64"})
        df = df.sort_values(["source", "h", "doc_id"],
                            kind="mergesort")
        out = df.groupby("source", sort=False).head(k)
        return out[["doc_id", "source"]]

    cands = ds.map_batches(partial, batch_format="pyarrow")
    return _grouped_by_partition(cands, ["source"], resolve, n_parts=16)


def _q_orders_time_rollup(sf_dir: str):
    """Time-dimension ROLLUP (year -> quarter -> grand total) over
    order revenue in exact cents — ONE (year, quarter) combinable
    aggregate scans the facts; the coarser levels re-aggregate its
    ~#quarters-row output (the doc_rollup shape on a derived time
    hierarchy).  NULL marks rolled-up levels."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]")
        yr = d.astype("datetime64[Y]").astype(np.int64) + 1970
        mo = d.astype(np.int64) % 12  # 0-based month
        q = mo // 3 + 1
        cents = np.rint(np.nan_to_num(
            b.column("o_totalprice").to_numpy(zero_copy_only=False))
            * 100).astype(np.int64)
        return pa.table({"yr": pa.array(yr), "q": pa.array(q),
                         "c": pa.array(cents)})

    fine = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["yr", "q"]).aggregate(Count(), Sum("c")).take_all()
    df = _df_from_rows(fine, ["yr", "q", "count()", "sum(c)"]).rename(
        columns={"count()": "n_orders", "sum(c)": "revenue_cents"})
    levels = [df]
    yr = df.groupby("yr", as_index=False)[
        ["n_orders", "revenue_cents"]].sum()
    yr["q"] = None
    levels.append(yr)
    grand = pd.DataFrame({"yr": [None], "q": [None],
                          "n_orders": [df["n_orders"].sum()],
                          "revenue_cents": [df["revenue_cents"].sum()]})
    levels.append(grand)
    out = pd.concat(levels, ignore_index=True)[
        ["yr", "q", "n_orders", "revenue_cents"]]
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["revenue_cents"] = out["revenue_cents"].astype(np.int64)
    return out


def _q_quarter_share(sf_dir: str):
    """Percent-of-parent in the time hierarchy: each quarter's share of
    its year's revenue as integer ppm floor — one (year, quarter)
    combinable aggregate, parent totals re-derived from the tiny
    output, exact-cent arithmetic throughout."""
    import pandas as pd
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]")
        yr = d.astype("datetime64[Y]").astype(np.int64) + 1970
        q = d.astype(np.int64) % 12 // 3 + 1
        cents = np.rint(np.nan_to_num(
            b.column("o_totalprice").to_numpy(zero_copy_only=False))
            * 100).astype(np.int64)
        return pa.table({"yr": pa.array(yr), "q": pa.array(q),
                         "c": pa.array(cents)})

    fine = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["yr", "q"]).aggregate(Sum("c")).take_all()
    df = _df_from_rows(fine, ["yr", "q", "sum(c)"]).rename(
        columns={"sum(c)": "revenue_cents"})
    df["revenue_cents"] = df["revenue_cents"].astype(np.int64)
    ytot = df.groupby("yr")["revenue_cents"].transform("sum")
    df["yr_cents"] = ytot.astype(np.int64)
    df["share_ppm"] = np.array(
        [int(c) * 1_000_000 // int(t) if t else 0
         for c, t in zip(df["revenue_cents"], df["yr_cents"])],
        np.int64)
    return df[["yr", "q", "revenue_cents", "yr_cents", "share_ppm"]]


def _q_lineitem_integrity(sf_dir: str):
    """Key-integrity audit: per-order line numbers should be a
    contiguous 1..k run with no duplicate (orderkey, linenumber) —
    the ingest-validation pass.  ONE native orderkey aggregate carries
    (count, max, distinct-pairs-proxy); map-side pair dedup bounds the
    duplicate check.  Output: single row (n_orders, n_gapped,
    n_dup_keys)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber"])

    def pair_dedup(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": b.column("l_orderkey").to_numpy(zero_copy_only=False),
            "ln": b.column("l_linenumber")
            .to_numpy(zero_copy_only=False).astype(np.int64)})
        g = df.groupby(["k", "ln"], as_index=False) \
              .agg(c=("ln", "size"))
        return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                         "ln": pa.array(g["ln"].to_numpy(np.int64)),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    partials = ds.map_batches(pair_dedup, batch_format="pyarrow")

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        # all partials of an orderkey land here: finish the (k, ln)
        # combine, then the per-order contiguity/duplicate checks
        cols = {"n_orders": "int64", "n_gapped": "int64",
                "n_dup_keys": "int64"}
        if not len(df):
            return pd.DataFrame(columns=list(cols)).astype(cols)
        p = df.groupby(["k", "ln"], as_index=False)["c"].sum()
        p["isdup"] = (p["c"] > 1).astype(np.int64)
        # named native aggregations only — a python lambda here costs
        # one interpreter call PER ORDER (150k groups: 16 s -> ~1 s)
        g = p.groupby("k", as_index=False).agg(
            n=("ln", "size"), mx=("ln", "max"), dups=("isdup", "sum"))
        return pd.DataFrame([{
            "n_orders": len(g),
            "n_gapped": int((g["mx"].to_numpy(np.int64)
                             != g["n"].to_numpy(np.int64)).sum()),
            "n_dup_keys": int(g["dups"].sum())}]).astype(cols)

    parts = _grouped_by_partition(partials, ["k"], resolve, n_parts=16)
    agg = parts.aggregate(Sum("n_orders"), Sum("n_gapped"),
                          Sum("n_dup_keys"))
    return pd.DataFrame([{
        "n_orders": int(agg.get("sum(n_orders)") or 0),
        "n_gapped": int(agg.get("sum(n_gapped)") or 0),
        "n_dup_keys": int(agg.get("sum(n_dup_keys)") or 0),
    }]).astype(np.int64)


def _q_boilerplate_stats(sf_dir: str):
    """HTML-extraction introspection over the pages corpus: per page,
    how many DOM blocks the segmenter saw, how many the density
    classifier kept, and the char/link-char totals — the tuning view
    for the boilerplate strip.  Map-only over html payloads (non-HTML
    payloads report zeros); engine semantics -> rows-only."""
    import ray

    from pdf_extract_ray.engine.html_extract import (_score_block,
                                                     _Segmenter,
                                                     sniff_payload)
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])

    def batch(b: pa.Table) -> pa.Table:
        urls = b.column("url")
        out = {"n_blocks": [], "n_kept": [], "total_chars": [],
               "kept_chars": [], "link_chars": []}
        for payload in b.column("html").to_pylist():
            payload = payload or b""
            if sniff_payload(payload) != "html":
                for v in out.values():
                    v.append(0)
                continue
            try:
                text = payload.decode("utf-8")
            except UnicodeDecodeError:
                text = payload.decode("latin-1", "replace")
            seg = _Segmenter()
            try:
                seg.feed(text)
                seg.close()
            except Exception:
                pass
            seg._flush()
            nb = nk = tc = kc = lc = 0
            for blk in seg.blocks:
                t = blk.text
                nb += 1
                tc += len(t)
                lc += blk.link_chars
                if _score_block(blk, t):
                    nk += 1
                    kc += len(t)
            out["n_blocks"].append(nb)
            out["n_kept"].append(nk)
            out["total_chars"].append(tc)
            out["kept_chars"].append(kc)
            out["link_chars"].append(lc)
        cols = [urls] + [pa.array(np.array(v, np.int64))
                         for v in out.values()]
        return pa.Table.from_arrays(cols, names=["url"] + list(out))

    return ds.map_batches(batch, batch_format="pyarrow")


def _q_parquet_layout_audit(sf_dir: str):
    """Storage-layout audit of the input tables: files, row groups,
    rows, compressed bytes per table from parquet FOOTERS only (no
    data read) — the partitioning-sanity check a 100 TB ingest runs
    before touching payload bytes.  Driver-side metadata walk (footer
    reads are O(tables), not O(rows)) -> rows-only."""
    import glob as _glob

    import pandas as pd
    import pyarrow.parquet as pq

    rows = []
    for path in sorted(_glob.glob(os.path.join(sf_dir, "*.parquet"))):
        name = os.path.splitext(os.path.basename(path))[0]
        md = pq.ParquetFile(path).metadata
        comp = sum(md.row_group(i).total_byte_size
                   for i in range(md.num_row_groups))
        rows.append({"table_name": name, "n_files": 1,
                     "n_row_groups": md.num_row_groups,
                     "n_rows": md.num_rows, "data_bytes": comp})
    df = pd.DataFrame(rows, columns=["table_name", "n_files",
                                     "n_row_groups", "n_rows",
                                     "data_bytes"])
    for c in ("n_files", "n_row_groups", "n_rows", "data_bytes"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_supplier_fill_rate(sf_dir: str):
    """Per-supplier fulfilment: fraction of line items shipped within
    30 days of their order date, ppm.  ONE orderkey partition pass
    joins order dates to items (the order_total_audit union shape) and
    folds (suppkey, on_time, n) partials; a tiny suppkey groupby
    finishes — order rows never broadcast, item rows exchange once."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    items = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def o_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").view(np.int64)
        z = np.zeros(len(b), np.int64)
        return pa.table({"k": b.column("o_orderkey"), "supp": pa.array(z),
                         "d": pa.array(d),
                         "side": pa.array(z)})

    def l_prep(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").view(np.int64)
        return pa.table({"k": b.column("l_orderkey"),
                         "supp": b.column("l_suppkey"),
                         "d": pa.array(d),
                         "side": pa.array(np.ones(len(b), np.int64))})

    u = orders.map_batches(o_prep, batch_format="pyarrow").union(
        items.map_batches(l_prep, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"l_suppkey": "int64", "on_time": "int64", "n": "int64"}
        o = df[df["side"] == 0][["k", "d"]].rename(columns={"d": "od"})
        l = df[df["side"] == 1]
        if not len(o) or not len(l):
            return pd.DataFrame(columns=list(cols)).astype(cols)
        m = l.merge(o, on="k", how="inner")
        ontime = ((m["d"].to_numpy(np.int64)
                   - m["od"].to_numpy(np.int64)) <= 30).astype(np.int64)
        g = pd.DataFrame({"l_suppkey": m["supp"].to_numpy(np.int64),
                          "on_time": ontime,
                          "n": np.ones(len(m), np.int64)}) \
            .groupby("l_suppkey", as_index=False).sum()
        return g.astype(cols)

    parts = _grouped_by_partition(u, ["k"], resolve, n_parts=16)
    # partials are bounded by (#suppliers x n_parts) rows — merge them
    # driver-side instead of paying a second all-to-all's fixed cost
    rows = parts.take_all()
    df = _df_from_rows(rows, ["l_suppkey", "on_time", "n"])
    df = df.groupby("l_suppkey", as_index=False).sum() \
        .rename(columns={"n": "n_items"})
    df["fill_ppm"] = np.array(
        [int(o) * 1_000_000 // int(n) if n else 0
         for o, n in zip(df["on_time"], df["n_items"])], np.int64)
    for c in ("l_suppkey", "on_time", "n_items", "fill_ppm"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_revenue_concentration(sf_dir: str):
    """Revenue concentration: share of total order revenue held by the
    top 1% of customers (ceil(n/100), spend-desc custkey-asc ties) in
    exact-cent ppm.  One custkey aggregate; the top-k election uses
    per-block partial top-k (k x blocks rows to the driver, never the
    customer table)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        cents = np.rint(np.nan_to_num(
            b.column("o_totalprice").to_numpy(zero_copy_only=False))
            * 100).astype(np.int64)
        return pa.table({"c": b.column("o_custkey"),
                         "cents": pa.array(cents)})

    per_cust = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("c").aggregate(Sum("cents")).materialize()

    # scalar totals (tiny aggregates over the per-customer table)
    tot = per_cust.aggregate(Sum("sum(cents)"))
    total_cents = int(tot.get("sum(sum(cents))") or 0)
    n_cust = per_cust.count()
    cols = {"n_customers": np.int64, "top_k": np.int64,
            "top_cents": np.int64, "total_cents": np.int64,
            "share_ppm": np.int64}
    if n_cust == 0 or total_cents == 0:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    k = (n_cust + 99) // 100  # ceil with positive-only operands
    # (DuckDB's // truncates toward zero on negatives — the -(-n//100)
    # ceil idiom is NOT portable)

    def partial_topk(b: pa.Table) -> pa.Table:
        cust = pc.cast(b.column("c"), pa.int64()).to_numpy()
        cents = pc.cast(b.column("sum(cents)"), pa.int64()).to_numpy()
        idx = np.lexsort((cust, -cents))[:k]
        return pa.table({"c": pa.array(cust[idx]),
                         "cents": pa.array(cents[idx])})

    cands = []
    for b in per_cust.map_batches(partial_topk, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        cands.extend(zip(b.column("cents").to_pylist(),
                         b.column("c").to_pylist()))
    cands.sort(key=lambda t: (-t[0], t[1]))
    top_cents = sum(c for c, _ in cands[:k])
    return pd.DataFrame([{
        "n_customers": np.int64(n_cust), "top_k": np.int64(k),
        "top_cents": np.int64(top_cents),
        "total_cents": np.int64(total_cents),
        "share_ppm": np.int64(top_cents * 1_000_000 // total_cents)}])


def _q_sliding_distinct_users(sf_dir: str):
    """Trailing-3h DISTINCT active users per hour — the sliding window
    where plain count partials can't combine (a user active twice in
    the window counts once).  Shape: map-side (hour, user) pair dedup,
    one pair groupby, x3 window fanout of the deduped pairs, second
    pair dedup, tiny per-window count; windows reported only for hours
    that exist."""
    import pandas as pd
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])

    def pairs(b: pa.Table) -> pa.Table:
        t = b.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        hr = t // 3_600_000_000
        u = b.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        df = pd.DataFrame({"hr": hr, "u": u}).drop_duplicates()
        return pa.table({"hr": pa.array(df["hr"].to_numpy(np.int64)),
                         "u": pa.array(df["u"].to_numpy(np.int64))})

    import ray

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    # one pinned pass of the deduped (hr, u) pairs: the hour domain is
    # read off it, then ONE user-keyed partition pass counts each user
    # once per window (all of a user's pairs share a partition)
    par = ds.map_batches(pairs, batch_format="pyarrow").materialize()
    hours = set()
    for b in par.map_batches(
            lambda t: pa.table({"hr": pc.unique(t.column("hr"))}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        hours.update(b.column("hr").to_pylist())
    hours_ref = ray.put(np.array(sorted(hours), np.int64))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"win": pd.Series([], np.int64),
                                 "n": pd.Series([], np.int64)})
        valid = ray.get(hours_ref)
        df = df.drop_duplicates(["hr", "u"])
        hr = df["hr"].to_numpy(np.int64)
        u = df["u"].to_numpy(np.int64)
        win = np.concatenate([hr, hr + 1, hr + 2])
        uu = np.concatenate([u, u, u])
        keep = np.isin(win, valid)
        w = pd.DataFrame({"win": win[keep],
                          "u": uu[keep]}).drop_duplicates()
        g = w.groupby("win", as_index=False).agg(n=("u", "size"))
        return g.astype({"win": np.int64, "n": np.int64})

    rows = _grouped_by_partition(par, ["u"], resolve,
                                 n_parts=16).take_all()
    df = _df_from_rows(rows, ["win", "n"])
    out = df.groupby("win", as_index=False)["n"].sum().rename(
        columns={"win": "hr", "n": "n_users_3h"})
    out["hr"] = out["hr"].astype(np.int64)
    out["n_users_3h"] = out["n_users_3h"].astype(np.int64)
    return out


def _q_welch_t_value(sf_dir: str):
    """Welch's t for event value between hash-assigned A/B variants
    (user_id % 2): EXACT integer micro-unit moment sums (n, s1, s2)
    per variant from one combinable aggregate, then the t statistic in
    the same IEEE op order both engines — the grouped_corr float
    discipline applied to the two-sample parametric test."""
    import math

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def partial(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # milli units: x^2 partial sums stay far inside int64 at the
        # test scales (x ~ 1e6 -> sum x^2 ~ 6e17 at sf0.1); HUGEINT on
        # the oracle side
        v = np.rint(np.nan_to_num(
            b.column("value").to_numpy(zero_copy_only=False))
            * 1000).astype(np.int64)
        g = (u % 2).astype(np.int64)
        df = pd.DataFrame({"variant": g, "n": np.ones(len(g), np.int64),
                           "s1": v, "s2": v * v})
        agg = df.groupby("variant", as_index=False).sum()
        return pa.table({"variant": pa.array(agg["variant"]
                                             .to_numpy(np.int64)),
                         "n": pa.array(agg["n"].to_numpy(np.int64)),
                         "s1": pa.array(agg["s1"].to_numpy(np.int64)),
                         "s2": pa.array(agg["s2"].to_numpy(np.int64))})

    rows = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("variant").aggregate(Sum("n"), Sum("s1"), Sum("s2")) \
        .take_all()
    cols = {"n_a": np.int64, "n_b": np.int64, "t_micro": np.int64}
    by = {int(r["variant"]): r for r in rows}
    if 0 not in by or 1 not in by:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    def stats(r):
        n = int(r["sum(n)"])
        s1 = int(r["sum(s1)"])
        s2 = int(r["sum(s2)"])
        # float conversions FIRST (CAST ... AS DOUBLE parity), then the
        # same IEEE op order as the SQL expression
        mean = float(s1) / n
        var = (float(s2) / n - mean * mean) * n / (n - 1)
        return n, mean, var
    na, ma, va = stats(by[0])
    nb, mb, vb = stats(by[1])
    if na < 2 or nb < 2:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    t = (ma - mb) / math.sqrt(va / na + vb / nb)
    return pd.DataFrame([{
        "n_a": np.int64(na), "n_b": np.int64(nb),
        "t_micro": np.int64(math.floor(t * 1_000_000 + 0.5))}])


def _q_effective_langs(sf_dir: str):
    """Inverse-Simpson 'effective number of languages' per source:
    t^2 / sum(c^2) in integer ppm from the same exact (t, ssq)
    partials grouped_gini uses — 1.0 = monolingual, k = k perfectly
    balanced languages."""
    import pandas as pd

    from pdf_extract_ray.ops.analytics import grouped_gini
    out = grouped_gini(_read(sf_dir, "documents",
                             columns=["source", "lang"]),
                       "source", "lang").take_all()
    rows = []
    for r in out:
        t = int(r["n_rows"])
        ssq = int(r["ssq"])
        rows.append({"source": r["source"], "n_docs": t,
                     "effective_langs_ppm":
                         t * t * 1_000_000 // ssq if ssq else 0})
    df = pd.DataFrame(rows, columns=["source", "n_docs",
                                     "effective_langs_ppm"])
    df["n_docs"] = df["n_docs"].astype(np.int64)
    df["effective_langs_ppm"] = df["effective_langs_ppm"] \
        .astype(np.int64)
    return df


def _q_page_titles(sf_dir: str):
    """Crawl-metadata enrichment: per-page <title> extraction over the
    pages corpus (html payloads; PDFs/others title to "") -> (url,
    title, has_title).  Map-only; extraction semantics are engine
    code, so this is a rows-only row."""
    import ray

    from pdf_extract_ray.engine.html_extract import extract_title
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])

    def batch(b: pa.Table) -> pa.Table:
        payloads = b.column("html").to_pylist()
        titles = [extract_title(p or b"") for p in payloads]
        return pa.table({
            "url": b.column("url"),
            "title": pa.array(titles, pa.string()),
            "has_title": pa.array(
                np.array([1 if t else 0 for t in titles], np.int64))})

    return ds.map_batches(batch, batch_format="pyarrow")


def _q_lang_confusion(sf_dir: str):
    """Language-ID confusion matrix: declared lang vs the oracle-tested
    stopword classifier's prediction, cell counts — the labeling-QA
    view.  The LangIdBatch kernel runs row-aligned inside the map (warm
    task singleton), cells combine map-side, one tiny groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.textstats import LangIdBatch
    from pdf_extract_ray.util import task_udf

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def cells(b: pa.Table) -> pa.Table:
        pred = task_udf(LangIdBatch)(b.select(["doc_id", "text"]))
        df = pd.DataFrame({
            "declared": pc.fill_null(pc.cast(b.column("lang"),
                                             pa.string()), "und")
            .to_numpy(zero_copy_only=False),
            "predicted": pred.column("pred_lang")
            .to_numpy(zero_copy_only=False)})
        g = df.groupby(["declared", "predicted"], as_index=False) \
              .agg(n=("predicted", "size"))
        return pa.table({"declared": pa.array(g["declared"]),
                         "predicted": pa.array(g["predicted"]),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    rows = ds.map_batches(cells, batch_format="pyarrow") \
        .groupby(["declared", "predicted"]).aggregate(Sum("n")) \
        .take_all()
    df = _df_from_rows(rows, ["declared", "predicted", "sum(n)"]) \
        .rename(columns={"sum(n)": "n_docs"})
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df


def _q_url_templates(sf_dir: str):
    """URL template mining: digit runs in parsed paths collapse to 'N'
    ('/p7/x3.html' -> '/pN/xN.html'), count per (host, template) —
    the crawl-structure fingerprint.  Map-side parse + template
    combine, one bounded groupby (template space is tiny by
    construction of real sites)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops import weburl
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "source"])

    def build(df):
        did = df["doc_id"].fillna(0).astype(np.int64)
        lang = df["lang"].fillna("und").astype(str)
        src = df["source"].fillna("").astype(str).str.lower()
        return pd.DataFrame({
            "url": "https://" + src + ".example.com/" + lang + "/a"
                   + (did % 7).astype(str) + "/item" + did.astype(str)
                   + ".html"})

    def templ(df):
        parts = weburl.parse_url_frame(df["url"])
        host = parts["host"].fillna("")
        tpl = parts["path"].fillna("").str.replace(
            r"[0-9]+", "N", regex=True)
        g = pd.DataFrame({"host": host.to_numpy(),
                          "template": tpl.to_numpy()})
        return g.groupby(["host", "template"], as_index=False) \
                .agg(n=("template", "size"))

    rows = ds.map_batches(build, batch_format="pandas") \
        .map_batches(templ, batch_format="pandas") \
        .groupby(["host", "template"]).aggregate(Sum("n")).take_all()
    df = _df_from_rows(rows, ["host", "template", "sum(n)"]).rename(
        columns={"sum(n)": "n_urls"})
    df["n_urls"] = df["n_urls"].astype(np.int64)
    return df


def _q_rfm_segments(sf_dir: str):
    """RFM customer segmentation (recency <= 90 days of the corpus
    max date / frequency >= 10 orders / monetary >= $100k), customer
    counts per 2x2x2 cell: ONE custkey aggregate carrying (max date,
    count, exact cents), a scalar max-date pass, tier mapping + tiny
    cell count."""
    import pandas as pd
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").view(np.int64)
        cents = np.rint(np.nan_to_num(
            b.column("o_totalprice").to_numpy(zero_copy_only=False))
            * 100).astype(np.int64)
        return pa.table({"c": b.column("o_custkey"),
                         "d": pa.array(d), "cents": pa.array(cents)})

    # ONE scan of orders: the custkey aggregate is pinned, so the
    # global max date reads the (already tiny) per-customer table and
    # the tier cells fold per block — no second orders pass, no second
    # all-to-all for an 8-cell finish
    per_cust = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("c").aggregate(Max("d"), Count(), Sum("cents")) \
        .materialize()

    cols = {"recent": np.int64, "frequent": np.int64, "big": np.int64,
            "n_customers": np.int64}
    gagg = per_cust.aggregate(Max("max(d)"))
    gmax = gagg.get("max(max(d))") if gagg else None
    if gmax is None:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    gmax = int(gmax)

    def tier_cells(b: pa.Table) -> pa.Table:
        d = pc.cast(b.column("max(d)"), pa.int64()).to_numpy()
        n = pc.cast(b.column("count()"), pa.int64()).to_numpy()
        cents = pc.cast(b.column("sum(cents)"), pa.int64()).to_numpy()
        cell = ((gmax - d <= 90).astype(np.int64) * 4
                + (n >= 10).astype(np.int64) * 2
                + (cents >= 10_000_000).astype(np.int64))
        counts = np.bincount(cell, minlength=8)
        return pa.table({"cell": pa.array(np.arange(8, dtype=np.int64)),
                         "n": pa.array(counts.astype(np.int64))})

    rows = per_cust.map_batches(tier_cells,
                                batch_format="pyarrow").take_all()
    df = _df_from_rows(rows, ["cell", "n"]) \
        .groupby("cell", as_index=False).sum()
    df = df[df["n"] > 0]
    cell = df["cell"].to_numpy(np.int64)
    out = pd.DataFrame({"recent": (cell >> 2) & 1,
                        "frequent": (cell >> 1) & 1,
                        "big": cell & 1,
                        "n_customers": df["n"].to_numpy(np.int64)})
    return out.astype(cols)


def _q_events_dow_hour(sf_dir: str):
    """Traffic heatmap: event counts per (day-of-week, hour-of-day) —
    168-bin bincount partials per batch, one tiny sum (the
    orders_by_dow discipline in two dimensions)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        hours = t // 3_600_000_000
        days = hours // 24
        dow = (days + 4) % 7  # epoch day 0 = Thursday = dayofweek 4
        hr = hours % 24
        h = np.bincount(dow * 24 + hr, minlength=168).astype(np.int64)
        cells = np.arange(168, dtype=np.int64)
        return pa.table({"dow": pa.array(cells // 24),
                         "hr": pa.array(cells % 24),
                         "n": pa.array(h)})

    rows = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["dow", "hr"]).aggregate(Sum("n")).take_all()
    df = _df_from_rows(rows, ["dow", "hr", "sum(n)"]).rename(
        columns={"sum(n)": "n_events"})
    df = df[df["n_events"] > 0].reset_index(drop=True)
    for c in ("dow", "hr", "n_events"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_order_sla_breach(sf_dir: str):
    """Fulfilment-SLA audit: orders whose FIRST shipment left more
    than 30 days after the order date, breach rate per month in ppm —
    per-batch min-shipdate combine, ONE orderkey partition pass over
    the orders+lineitem union, tiny month rollup."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    items = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def o_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").view(np.int64)
        return pa.table({"k": b.column("o_orderkey"),
                         "d": pa.array(d), "side": pa.array(
                             np.zeros(len(b), np.int64))})

    def l_prep(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": b.column("l_orderkey").to_numpy(zero_copy_only=False),
            "d": b.column("l_shipdate").to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").view(np.int64)})
        g = df.groupby("k", as_index=False)["d"].min()
        return pa.table({"k": pa.array(g["k"].to_numpy(np.int64)),
                         "d": pa.array(g["d"].to_numpy(np.int64)),
                         "side": pa.array(np.ones(len(g), np.int64))})

    u = orders.map_batches(o_prep, batch_format="pyarrow").union(
        items.map_batches(l_prep, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"month": "int64", "n_orders": "int64", "n_breach": "int64"}
        if not len(df):
            return pd.DataFrame(columns=list(cols)).astype(cols)
        o = df[df["side"] == 0]
        l = df[df["side"] == 1].groupby("k", as_index=False)["d"].min()
        m = o.merge(l, on="k", how="inner", suffixes=("_o", "_s"))
        if not len(m):
            return pd.DataFrame(columns=list(cols)).astype(cols)
        month = m["d_o"].to_numpy(np.int64) \
            .view("datetime64[D]").astype("datetime64[M]") \
            .astype(np.int64)
        breach = (m["d_s"].to_numpy(np.int64)
                  - m["d_o"].to_numpy(np.int64)) > 30
        out = pd.DataFrame({"month": month,
                            "breach": breach.astype(np.int64)})
        g = out.groupby("month", as_index=False).agg(
            n_orders=("breach", "size"), n_breach=("breach", "sum"))
        return g.astype(cols)

    rows = _grouped_by_partition(u, ["k"], resolve, n_parts=16).take_all()
    df = _df_from_rows(rows, ["month", "n_orders", "n_breach"])
    g = df.groupby("month", as_index=False).sum()
    g["breach_ppm"] = np.array(
        [int(b) * 1_000_000 // int(n) if n else 0
         for b, n in zip(g["n_breach"], g["n_orders"])], np.int64)
    for c in ("month", "n_orders", "n_breach", "breach_ppm"):
        g[c] = g[c].astype(np.int64)
    return g


def _q_zipf_slope(sf_dir: str):
    """Zipf fit over the top-100 vocabulary: OLS slope of ln(freq) on
    ln(rank).  Counts are exact integers from word_frequencies; the
    regression runs on the 100-row table in rank order with the same
    IEEE op sequence as the SQL (n*sxy - sx*sy over n*sxx - sx^2),
    reported micro-rounded."""
    import math

    import pandas as pd

    from pdf_extract_ray.ops.analytics import word_frequencies
    tbl = word_frequencies(_read(sf_dir, "documents", columns=["text"]),
                           k=100)
    n = tbl.num_rows
    cols = {"n_words": np.int64, "slope_micro": np.int64}
    if n < 2:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    freqs = tbl.column("n").to_pylist()
    sx = sy = sxy = sxx = 0.0
    for i, f in enumerate(freqs):
        x = math.log(float(i + 1))
        y = math.log(float(f))
        sx += x
        sy += y
        sxy += x * y
        sxx += x * x
    den = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / den
    return pd.DataFrame([{
        "n_words": np.int64(n),
        "slope_micro": np.int64(math.floor(slope * 1_000_000 + 0.5))}])


def _q_char_class_mix(sf_dir: str):
    """Character-class composition per source (alpha / digit / space /
    other, integer ppm of total chars): one map pass with vectorized
    regex-class counts, integer partials, tiny groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        total = text.str.len().to_numpy(np.int64)
        alpha = text.str.count(r"[A-Za-z]").to_numpy(np.int64)
        digit = text.str.count(r"[0-9]").to_numpy(np.int64)
        space = text.str.count(r" ").to_numpy(np.int64)
        out = pd.DataFrame({
            "source": df["source"].fillna("").to_numpy(),
            "n_chars_total": total, "n_alpha": alpha,
            "n_digit": digit, "n_space": space})
        return out.groupby("source", as_index=False).sum()

    rows = ds.map_batches(prep, batch_format="pandas") \
        .groupby("source") \
        .aggregate(Sum("n_chars_total"), Sum("n_alpha"),
                   Sum("n_digit"), Sum("n_space")).take_all()
    df = _df_from_rows(rows, ["source", "sum(n_chars_total)",
                              "sum(n_alpha)", "sum(n_digit)",
                              "sum(n_space)"])
    df.columns = ["source", "n_chars_total", "n_alpha", "n_digit",
                  "n_space"]
    for c in ("n_chars_total", "n_alpha", "n_digit", "n_space"):
        df[c] = df[c].astype(np.int64)
    t = df["n_chars_total"].to_numpy()
    for c in ("alpha", "digit", "space"):
        df[f"{c}_ppm"] = np.array(
            [int(x) * 1_000_000 // int(k) if k else 0
             for x, k in zip(df[f"n_{c}"], t)], np.int64)
    return df[["source", "n_chars_total", "alpha_ppm", "digit_ppm",
               "space_ppm"]]


def _q_host_lorenz(sf_dir: str):
    """Lorenz curve of the docs-per-host distribution (the curve behind
    host_balance_gini): at each host decile (hosts sorted by count
    asc), the cumulative share of docs in integer ppm.  Exact: decile
    cut i covers the first i*k//10 hosts of the tiny sorted host
    table."""
    import pandas as pd
    rows = _read(sf_dir, "documents", columns=["source"]) \
        .groupby("source").count().take_all()
    cols = {"decile": np.int64, "n_hosts_cum": np.int64,
            "docs_cum": np.int64, "share_ppm": np.int64}
    if not rows:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    counts = sorted(int(r["count()"]) for r in rows)
    k, total = len(counts), sum(counts)
    cum = np.cumsum([0] + counts)
    out = []
    for d in range(1, 11):
        nh = d * k // 10
        dc = int(cum[nh])
        out.append({"decile": d, "n_hosts_cum": nh, "docs_cum": dc,
                    "share_ppm": dc * 1_000_000 // total if total else 0})
    return pd.DataFrame(out).astype(cols)


def _q_split_leakage_report(sf_dir: str):
    """Train/eval contamination audit over the dataset_splits
    assignment: eval docs whose exact text also appears in train,
    distinct leaked texts, and train x eval duplicate pairs.  Map-side
    (md5, n_train, n_eval) combine -> one digest-keyed groupby -> a
    3-number scalar aggregate; text bytes never shuffle."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _md5_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def combine(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        is_train = (ids * np.int64(2654435761)) % np.int64(10) < 8
        h = _md5_batch(b).column("text_md5") \
            .to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"h": h,
                           "n_train": is_train.astype(np.int64),
                           "n_eval": (~is_train).astype(np.int64)})
        g = df.groupby("h", as_index=False).sum()
        return pa.table({"h": pa.array(g["h"]),
                         "n_train": pa.array(g["n_train"]
                                             .to_numpy(np.int64)),
                         "n_eval": pa.array(g["n_eval"]
                                            .to_numpy(np.int64))})

    per_text = ds.map_batches(combine, batch_format="pyarrow") \
        .groupby("h").aggregate(Sum("n_train"), Sum("n_eval"))

    def finish(b: pa.Table) -> pa.Table:
        tr = pc.cast(b.column("sum(n_train)"), pa.int64()).to_numpy()
        ev = pc.cast(b.column("sum(n_eval)"), pa.int64()).to_numpy()
        leaky = tr > 0
        return pa.table({
            "eval_docs_leaked": pa.array(
                [int(ev[leaky].sum())], pa.int64()),
            "texts_leaked": pa.array(
                [int((leaky & (ev > 0)).sum())], pa.int64()),
            "leak_pairs": pa.array([int((tr * ev).sum())], pa.int64())})

    parts = per_text.map_batches(finish, batch_format="pyarrow")
    agg = parts.aggregate(Sum("eval_docs_leaked"), Sum("texts_leaked"),
                          Sum("leak_pairs"))
    return pd.DataFrame([{
        "eval_docs_leaked": int(agg.get("sum(eval_docs_leaked)") or 0),
        "texts_leaked": int(agg.get("sum(texts_leaked)") or 0),
        "leak_pairs": int(agg.get("sum(leak_pairs)") or 0),
    }]).astype(np.int64)


def _q_harmonic_mean_chars(sf_dir: str):
    """Harmonic mean document length per source (the third Pythagorean
    mean beside mean/geomean): distributed (sum 1/x, n) partials, milli
    round-half-up — the grouped_geomean float discipline."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()), "") \
            .to_numpy(zero_copy_only=False)
        v = b.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mask = np.isfinite(v) & (v > 0)
        df = pd.DataFrame({
            "source": src,
            "inv": np.where(mask, 1.0 / np.where(mask, v, 1.0), 0.0),
            "n": mask.astype(np.int64)})
        g = df.groupby("source", sort=False, as_index=False).sum()
        return pa.table({"source": pa.array(g["source"]),
                         "invsum": pa.array(g["inv"].to_numpy(np.float64)),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("invsum"), Sum("n"))

    def finish(b: pa.Table) -> pa.Table:
        import math
        s = pc.cast(b.column("sum(invsum)"), pa.float64()).to_numpy()
        n = pc.cast(b.column("sum(n)"), pa.int64()).to_numpy()
        keep = n > 0
        hm = [math.floor(k / x * 1000 + 0.5)
              for x, k in zip(s[keep], n[keep])]
        return pa.table({"source": b.column("source").filter(
                             pa.array(keep)),
                         "n_pos": pa.array(n[keep]),
                         "harmonic_mean_milli": pa.array(
                             np.array(hm, np.int64))})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_host_balance_gini(sf_dir: str):
    """Gini COEFFICIENT of the docs-per-host distribution (crawl-skew
    headline: 0 = perfectly balanced hosts, ->1 = one host dominates).
    EXACT integers end to end: per-host counts (bounded groupby), then
    the order-statistic identity sum_i (2i-n+1) x_(i) for the Gini
    mean difference on the tiny host table, gini_ppm =
    gmd_num * 1e6 // (n_pairs * 2 * mean) with mean folded in as
    integer cross-multiplication."""
    import pandas as pd
    rows = _read(sf_dir, "documents", columns=["source"]) \
        .groupby("source").count().take_all()
    cols = {"n_hosts": np.int64, "n_docs": np.int64, "gini_ppm": np.int64}
    if not rows:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    counts = sorted(int(r["count()"]) for r in rows)
    n = len(counts)
    total = sum(counts)
    if n < 2 or total == 0:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    gmd_num = sum((2 * i - n + 1) * x for i, x in enumerate(counts))
    n_pairs = n * (n - 1) // 2
    # gini = (gmd_num / n_pairs) / (2 * total / n)
    gini_ppm = gmd_num * n * 1_000_000 // (n_pairs * 2 * total)
    return pd.DataFrame([{"n_hosts": np.int64(n),
                          "n_docs": np.int64(total),
                          "gini_ppm": np.int64(gini_ppm)}])


def _q_crawl_budget(sf_dir: str):
    """Largest-remainder (Hamilton) apportionment of a 10k-page crawl
    budget across sources proportional to doc counts — EXACT integers:
    base = B*c // T, the B - sum(base) leftover units go to the largest
    remainders (ties: source asc).  One tiny per-source count; the
    apportionment itself runs on the |sources|-row table."""
    import pandas as pd
    B = 10_000
    rows = _read(sf_dir, "documents", columns=["source"]) \
        .groupby("source").count().take_all()
    cols = {"source": object, "n_docs": np.int64, "quota": np.int64}
    if not rows:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in cols.items()})
    df = pd.DataFrame([{"source": r["source"] if r["source"] is not None
                        else "", "n": int(r["count()"])} for r in rows])
    T = int(df["n"].sum())
    df["base"] = [B * int(c) // T for c in df["n"]]
    df["rem"] = [B * int(c) % T for c in df["n"]]
    extra = B - int(df["base"].sum())
    order = df.sort_values(["rem", "source"],
                           ascending=[False, True]).index.to_numpy()
    quota = df["base"].to_numpy().copy()
    quota[order[:extra]] += 1
    out = pd.DataFrame({"source": df["source"],
                        "n_docs": df["n"].astype(np.int64),
                        "quota": quota.astype(np.int64)})
    return out.reset_index(drop=True)


def _q_event_bigram_perplexity(sf_dir: str):
    """Markov bigram perplexity of the event-type streams: transition
    cells from the oracle-tested event_transitions op (|types|^2 rows),
    then exp(-sum(c*ln(c/row_tot))/N) on the tiny cell table in sorted
    cell order, reported as round-half-up micro units."""
    import math

    import pandas as pd

    from pdf_extract_ray.ops.events import event_transitions
    cells = event_transitions(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"])) \
        .take_all()
    out_cols = {"n_transitions": np.int64, "perplexity_micro": np.int64}
    if not cells:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in out_cols.items()})
    df = pd.DataFrame(cells).sort_values(
        ["prev_type", "event_type"]).reset_index(drop=True)
    tot = df.groupby("prev_type")["n_transitions"].transform("sum")
    n = int(df["n_transitions"].sum())
    ll = 0.0
    for c, t in zip(df["n_transitions"], tot):
        ll += int(c) * math.log(int(c) / int(t))
    ppx = math.floor(math.exp(-ll / n) * 1_000_000 + 0.5)
    return pd.DataFrame([{"n_transitions": np.int64(n),
                          "perplexity_micro": np.int64(ppx)}])


def _q_dup_rate_by_source(sf_dir: str):
    """Per-source exact-duplicate rate (corpus-hygiene headline
    number): map-side (source, md5) combine -> one bounded groupby ->
    per-source rollup; dup_ppm = (docs - unique) * 1e6 // docs.  The
    shuffle carries one digest row per distinct text per block."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _md5_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def combine(b: pa.Table) -> pa.Table:
        h = _md5_batch(b)
        df = pd.DataFrame({
            "source": pc.fill_null(pc.cast(b.column("source"),
                                           pa.string()), "")
            .to_numpy(zero_copy_only=False),
            "h": h.column("text_md5").to_numpy(zero_copy_only=False)})
        g = df.groupby(["source", "h"], as_index=False) \
              .agg(c=("h", "size"))
        return pa.table({"source": pa.array(g["source"]),
                         "h": pa.array(g["h"]),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    per_hash = ds.map_batches(combine, batch_format="pyarrow") \
        .groupby(["source", "h"]).aggregate(Sum("c"))

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("source", as_index=False).agg(
            n_docs=("sum(c)", "sum"), n_unique=("sum(c)", "size"))
        out["dup_ppm"] = [
            (int(d) - int(u)) * 1_000_000 // int(d) if d else 0
            for d, u in zip(out["n_docs"], out["n_unique"])]
        return out.astype({"n_docs": np.int64, "n_unique": np.int64,
                           "dup_ppm": np.int64})

    rows = per_hash.groupby("source").map_groups(
        roll, batch_format="pandas").take_all()
    df = _df_from_rows(rows, ["source", "n_docs", "n_unique", "dup_ppm"])
    for c in ("n_docs", "n_unique", "dup_ppm"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_hourly_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the hourly event-count series: one
    bounded hour-keyed count (the events_hourly exchange), then the
    tiny series resolves on the driver with EXACT integer moment sums
    and the same IEEE float op order as the SQL — bit-identical
    double.  Degenerate series (no adjacent-hour pairs or zero
    variance) emit no row, matching the SQL WHERE gate."""
    import math

    import pandas as pd

    ds = _read(sf_dir, "events", columns=["ts"])

    def prep(b: pa.Table) -> pa.Table:
        t = b.column("ts").to_numpy(zero_copy_only=False) \
            .astype("datetime64[h]").astype(np.int64)
        return pa.table({"hr": pa.array(t)})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("hr").count().take_all()
    counts = {int(r["hr"]): int(r["count()"]) for r in rows}
    xs = [(c, counts[h + 1]) for h, c in counts.items()
          if h + 1 in counts]
    out_cols = {"n_pairs": np.int64, "lag1_corr": np.float64}
    if not xs:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in out_cols.items()})
    n = len(xs)
    sx = sum(x for x, _ in xs)
    sy = sum(y for _, y in xs)
    sxy = sum(x * y for x, y in xs)
    sxx = sum(x * x for x, _ in xs)
    syy = sum(y * y for _, y in xs)
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    if n <= 1 or vx <= 0 or vy <= 0:
        return pd.DataFrame({k: pd.Series([], dtype=v)
                             for k, v in out_cols.items()})
    corr = float(n * sxy - sx * sy) / (math.sqrt(float(vx))
                                       * math.sqrt(float(vy)))
    return pd.DataFrame([{"n_pairs": np.int64(n),
                          "lag1_corr": np.float64(corr)}])


def _q_tld_rollup(sf_dir: str):
    """Top-level-domain rollup: parse hosts out of built URLs (tld
    varies by doc_id%4), then hosts-and-docs per TLD — the standard
    two-level (tld, host) pre-aggregate so the exchange carries one
    row per host, and the TLD suffix comes from a genuine regex
    extract over the parsed host."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops import weburl
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    tlds = np.array(["com", "org", "net", "io"], dtype=object)

    def build(df):
        did = df["doc_id"].fillna(0).astype(np.int64)
        src = df["source"].fillna("").astype(str).str.lower()
        return pd.DataFrame({
            "url": "https://" + src + ".example."
                   + pd.Series(tlds[(did % 4).to_numpy()],
                               index=df.index) + "/"})

    def per_host(df):
        parts = weburl.parse_url_frame(df["url"])
        host = parts["host"].fillna("")
        g = pd.DataFrame({
            "tld": host.str.extract(r"\.([^.]+)$", expand=False)
                       .fillna("").to_numpy(),
            "host": host.to_numpy()})
        return g.groupby(["tld", "host"], as_index=False) \
                .agg(n=("host", "size"))

    hosts = ds.map_batches(build, batch_format="pandas") \
        .map_batches(per_host, batch_format="pandas") \
        .groupby(["tld", "host"]).aggregate(Sum("n"))

    def roll(df):
        return df.groupby("tld", as_index=False).agg(
            n_hosts=("host", "size"), n_docs=("sum(n)", "sum"))

    rows = hosts.groupby("tld").map_groups(roll, batch_format="pandas") \
        .take_all()
    df = _df_from_rows(rows, ["tld", "n_hosts", "n_docs"])
    df["n_hosts"] = df["n_hosts"].astype(np.int64)
    df["n_docs"] = df["n_docs"].astype(np.int64)
    return df


def _q_orders_profile_long(sf_dir: str):
    """Data-profiling pass (pandas-describe analog, long format): one
    scan of orders emits per-column (n_nonnull, min, max) partial rows
    per batch; a groupby over the 3-row column dimension combines —
    nothing but 9 numbers per block ever moves.  Money profiled in
    exact cents."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        cols, nn, mn, mx = [], [], [], []
        for name in ("o_orderkey", "o_custkey"):
            v = b.column(name).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            ok = v[np.isfinite(v)].astype(np.int64)
            if len(ok):
                cols.append(name)
                nn.append(len(ok))
                mn.append(int(ok.min()))
                mx.append(int(ok.max()))
        p = b.column("o_totalprice").to_numpy(zero_copy_only=False)
        pc_ok = p[np.isfinite(p)]
        if len(pc_ok):
            cents = np.rint(pc_ok * 100).astype(np.int64)
            cols.append("o_totalprice_cents")
            nn.append(len(cents))
            mn.append(int(cents.min()))
            mx.append(int(cents.max()))
        return pa.table({"column": pa.array(cols, pa.string()),
                         "n_nonnull": pa.array(nn, pa.int64()),
                         "min_v": pa.array(mn, pa.int64()),
                         "max_v": pa.array(mx, pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("column") \
        .aggregate(Sum("n_nonnull"), Min("min_v"), Max("max_v")) \
        .take_all()
    df = _df_from_rows(rows, ["column", "sum(n_nonnull)", "min(min_v)",
                              "max(max_v)"]).rename(
        columns={"sum(n_nonnull)": "n_nonnull", "min(min_v)": "min_v",
                 "max(max_v)": "max_v"})
    for c in ("n_nonnull", "min_v", "max_v"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_sentence_stats(sf_dir: str):
    """Sentence-count aggregates per source ('. '-delimited sentence
    rule = string_split parity, empty text counts 1 like SQL's
    ['']-split): map-side combine, one tiny groupby."""
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def prep(b: pa.Table) -> pa.Table:
        text = pc.fill_null(b.column("text"), "")
        n_sent = pc.cast(pc.add(pc.count_substring(text, ". "), 1),
                         pa.int64())
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()), "")
        return pa.table({"source": src, "n_sent": n_sent})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source") \
        .aggregate(Count(), Sum("n_sent"), Max("n_sent")).take_all()
    df = _df_from_rows(rows, ["source", "count()", "sum(n_sent)",
                              "max(n_sent)"]).rename(
        columns={"count()": "n_docs", "sum(n_sent)": "total_sentences",
                 "max(n_sent)": "max_sentences"})
    for c in ("n_docs", "total_sentences", "max_sentences"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_session_stats(sf_dir: str):
    """Session-level rollup of the 30-minute gap sessionization:
    bounce rate, max/mean session length (ops/events.session_stats;
    4-number partial per partition)."""
    from pdf_extract_ray.ops.events import session_stats
    return session_stats(_read(sf_dir, "events",
                               columns=["user_id", "ts"]))


def _q_crawlprep(sf_dir: str):
    """Crawl-prep composed chain over the pages corpus: canonical-URL
    normalize -> robots disallow (block the first ten /doc/00000x
    pages) -> canonical-url dedup (one hash pass) -> extraction on the
    survivors only (pipelines/crawlprep.py).  Extraction semantics are
    test-frozen, not SQL-expressible -> rows-only check."""
    import ray
    from pdf_extract_ray.pipelines.crawlprep import crawlprep_dataset
    ds = ray.data.read_parquet(_pages_dir(sf_dir), columns=["url", "html"])
    return crawlprep_dataset(
        ds, rules=[("example.org", "/doc/00000")], num_partitions=8)


def _q_robots_audit(sf_dir: str):
    """robots.txt-style disallow filtering: hosts whose source name has
    even length disallow path prefixes /p0/ /p1/ /p2/; per-host
    allowed/blocked counts.  The rule table is tiny by nature — built
    from the distinct sources (one combinable count) and broadcast via
    ray.put; the URL pass is map-only (ops/weburl.robots_filter), the
    final count one (host) groupby."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    from pdf_extract_ray.ops import weburl

    srcs = [r["source"] or ""
            for r in _read(sf_dir, "documents", columns=["source"])
            .groupby("source").count().take_all()]
    rules = [(s.lower() + ".example.com", f"/p{d}/")
             for s in sorted(srcs) if len(s) % 2 == 0 for d in range(3)]

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def build(df):
        did = df["doc_id"].fillna(0).astype(np.int64)
        src = df["source"].fillna("").astype(str).str.lower()
        return pd.DataFrame({
            "url": "https://" + src + ".example.com/p"
                   + (did % 13).astype(str) + "/x.html"})

    flagged = weburl.robots_filter(
        ds.map_batches(build, batch_format="pandas"), rules)
    rows = flagged.groupby("host") \
        .aggregate(Count(), Sum("blocked")).take_all()
    df = _df_from_rows(rows, ["host", "count()", "sum(blocked)"]) \
        .rename(columns={"count()": "n_urls", "sum(blocked)": "n_blocked"})
    df["n_urls"] = df["n_urls"].astype(np.int64)
    df["n_blocked"] = df["n_blocked"].astype(np.int64)
    df["n_allowed"] = (df["n_urls"] - df["n_blocked"]).astype(np.int64)
    return df[["host", "n_urls", "n_allowed", "n_blocked"]]


def _q_snapshot_schema_union(sf_dir: str):
    """Schema-drift ingestion: two crawl snapshots with different
    column sets union BY NAME (missing columns -> typed nulls,
    metadata-only Dataset.union) and a one-pass per-column
    completeness audit (ops/relational.union_by_name +
    column_completeness)."""
    from pdf_extract_ray.ops.relational import (column_completeness,
                                                union_by_name)
    def half(parity):
        def _f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % 2 == parity))
        return _f

    a = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"]) \
        .map_batches(half(0), batch_format="pyarrow")
    b = _read(sf_dir, "documents",
              columns=["doc_id", "text", "source", "n_chars"]) \
        .map_batches(half(1), batch_format="pyarrow")
    u = union_by_name(a, b)
    return column_completeness(
        u, ["text", "lang", "source", "n_chars"])


def _q_trimmed_mean_chars(sf_dir: str):
    """10%-trimmed mean document length per source, exact integers
    (ops/analytics.grouped_trimmed_mean; bounded histogram shuffle,
    segmented cumulative trim)."""
    from pdf_extract_ray.ops.analytics import grouped_trimmed_mean
    return grouped_trimmed_mean(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_oov_rate_report(sf_dir: str):
    """Tokenizer-coverage: per-source OOV rate against the global
    top-1000 vocabulary, integer ppm (ops/corpus.oov_rate; vocab
    broadcast once, apply pass map-only)."""
    from pdf_extract_ray.ops.corpus import oov_rate
    return oov_rate(_read(sf_dir, "documents",
                          columns=["text", "source"]), k=1000)


def _q_lang_chi2_cells(sf_dir: str):
    """Chi-square contingency cells for source x lang, exact-integer
    ppm (ops/analytics.grouped_chi2_cells; one (source, lang) count
    shuffle, driver-side margins over the tiny cross-tab)."""
    from pdf_extract_ray.ops.analytics import grouped_chi2_cells
    return grouped_chi2_cells(
        _read(sf_dir, "documents", columns=["source", "lang"]),
        "source", "lang")


def _q_lang_entropy_by_source(sf_dir: str):
    """Shannon entropy (nats, floor-ppm) of the language mix per
    source (ops/analytics.grouped_entropy; same one-count shape)."""
    from pdf_extract_ray.ops.analytics import grouped_entropy
    return grouped_entropy(
        _read(sf_dir, "documents", columns=["source", "lang"]),
        "source", "lang")


def _q_geomean_chars_by_source(sf_dir: str):
    """Geometric mean document length per source, floor-milli units
    (ops/analytics.grouped_geomean; distributed (sum ln, n) partials,
    combinable, one tiny groupby)."""
    from pdf_extract_ray.ops.analytics import grouped_geomean
    return grouped_geomean(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_url_host_stats(sf_dir: str):
    """Per-host crawl stats over a URL column (the web-scale grouping
    key): docs, total path depth, query-string count, distinct langs.
    URLs derive deterministically from (source, lang, doc_id) so the
    DuckDB oracle can reproduce the expected values; the Ray side
    genuinely PARSES the built strings with ops.weburl's vectorized
    kernel (one compiled-regex pass per batch, map-side (host, lang)
    combine, exchange carries one row per (host, lang))."""
    import pandas as pd  # noqa: F401 (vectorized string build below)
    from pdf_extract_ray.ops import weburl
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "source"])

    def build(df):
        did = df["doc_id"].fillna(0).astype(np.int64)
        lang = df["lang"].fillna("und").astype(str)
        src = df["source"].fillna("").astype(str).str.lower()
        tail = ("/" + lang + "/d" + (did % 17).astype(str)
                + "/p" + did.astype(str) + ".html")
        tail = tail.where(did % 5 != 0, "/")
        q = "?utm_source=x&ref=r" + (did % 7).astype(str)
        q = q.where(did % 4 == 0, "")
        df = df.copy()
        df["url"] = "https://" + src + ".example.com" + tail + q
        df["lang"] = lang
        return df[["url", "lang"]]

    built = ds.map_batches(build, batch_format="pandas")
    rows = weburl.host_stats(built).take_all()
    df = _df_from_rows(
        rows, ["host", "n_docs", "depth_sum", "with_query", "n_langs"])
    for c in ("n_docs", "depth_sum", "with_query", "n_langs"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_url_normalize_dedup(sf_dir: str):
    """Crawl-dedup canonicalization: noisy URL variants (mixed-case
    host, :443 default port, utm_* tracking params, #fragments,
    duplicate path slashes) must normalize to one canonical form.  The
    Ray side builds the NOISY urls and runs ops.weburl.normalize_urls'
    generic canonicalizer; the oracle derives the canonical form
    directly — per-host distinct counts and min() pin the exact
    normalized bytes."""
    import pandas as pd
    from pdf_extract_ray.ops import weburl
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def build(df):
        did = df["doc_id"].fillna(0).astype(np.int64)
        src = df["source"].fillna("").astype(str).str.lower()
        host = src + ".example.com"
        host = host.where(did % 3 != 0, host.str.upper())
        port = pd.Series(np.where(did % 5 == 0, ":443", ""),
                         index=df.index)
        slash = pd.Series(np.where(did % 11 == 0, "//", "/"),
                          index=df.index)
        path = "/p" + (did % 13).astype(str) + slash + "x.html"
        utm = pd.Series(np.where(did % 2 == 0, "utm_campaign=c&", ""),
                        index=df.index)
        frag = pd.Series(np.where(did % 7 == 0, "#sec", ""),
                         index=df.index)
        out = pd.DataFrame({
            "url": "https://" + host + port + path + "?" + utm
                   + "id=" + (did % 3).astype(str) + frag})
        return out

    built = ds.map_batches(build, batch_format="pandas")
    rows = weburl.normalized_dedup_stats(built).take_all()
    df = _df_from_rows(rows, ["host", "n_urls", "n_distinct", "first_url"])
    for c in ("n_urls", "n_distinct"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL wire-format fidelity, oracled: documents -> gzip JSONL
    shards (sources/jsonl.write_jsonl_gz, cached per sf_dir) -> C++
    vectorized read back (sources/jsonl.read_jsonl) -> per-source
    (count, recomputed char total, min md5) — the md5/length are
    recomputed FROM THE ROUNDTRIPPED TEXT, so any JSON escaping loss
    would hash-mismatch the parquet-side oracle."""
    import glob as _glob
    import hashlib
    import os
    from ray.data.aggregate import Count, Min, Sum
    from pdf_extract_ray.sources.jsonl import read_jsonl, write_jsonl_gz

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/pdf_extract_ray_cache/jsonl_v1_{tag}"
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        ds = _read(sf_dir, "documents",
                   columns=["doc_id", "text", "lang", "source",
                            "n_chars"])
        write_jsonl_gz(ds, out_dir)
        with open(done, "w") as f:
            f.write("ok")
    files = sorted(_glob.glob(os.path.join(out_dir, "*.jsonl.gz")))
    back = read_jsonl(files, columns=["text", "source"])

    def derive(b: pa.Table) -> pa.Table:
        if "text" not in b.column_names:  # all-empty shards lose schema
            return pa.table({"source": pa.array([], pa.string()),
                             "len": pa.array([], pa.int64()),
                             "md5": pa.array([], pa.string())})
        texts = b.column("text").to_pylist()
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        lens = pc.cast(pc.utf8_length(pc.fill_null(b.column("text"),
                                                   "")), pa.int64())
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()), "")
        return pa.table({"source": src, "len": lens,
                         "md5": pa.array(md5s, pa.string())})

    rows = back.map_batches(derive, batch_format="pyarrow") \
        .groupby("source").aggregate(Count(), Sum("len"), Min("md5")) \
        .take_all()
    df = _df_from_rows(rows, ["source", "count()", "sum(len)",
                              "min(md5)"]).rename(
        columns={"count()": "n_docs", "sum(len)": "total_chars",
                 "min(md5)": "min_md5"})
    for c in ("n_docs", "total_chars"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_csv_roundtrip(sf_dir: str):
    """CSV wire-format fidelity, oracled like jsonl_roundtrip:
    documents -> quoted CSV shards (pandas C writer, cached per
    sf_dir) -> ray.data.read_csv (Arrow C++ parser,
    newlines_in_values for embedded linebreaks, explicit string
    column_types so numeric-looking text can't be re-typed) ->
    per-source (count, char total, min md5) recomputed from the
    roundtripped text."""
    import glob as _glob
    import hashlib
    import os
    from ray.data.aggregate import Count, Min, Sum

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/pdf_extract_ray_cache/csv_v1_{tag}"
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        os.makedirs(out_dir, exist_ok=True)
        ds = _read(sf_dir, "documents",
                   columns=["doc_id", "text", "source"])

        def dump(df):
            import uuid
            name = os.path.join(out_dir,
                                f"part-{uuid.uuid4().hex[:12]}.csv")
            df.to_csv(name + ".tmp", index=False)
            os.rename(name + ".tmp", name)
            import pandas as _pd
            return _pd.DataFrame({"path": [name], "n": [len(df)]})

        ds.map_batches(dump, batch_format="pandas").materialize()
        with open(done, "w") as f:
            f.write("ok")
    import ray
    import pyarrow.csv as pacsv
    files = sorted(_glob.glob(os.path.join(out_dir, "*.csv")))
    back = ray.data.read_csv(
        files,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            column_types={"doc_id": pa.int64(), "text": pa.string(),
                          "source": pa.string()}))

    def derive(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        lens = pc.cast(pc.utf8_length(pc.fill_null(b.column("text"),
                                                   "")), pa.int64())
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()), "")
        return pa.table({"source": src, "len": lens,
                         "md5": pa.array(md5s, pa.string())})

    rows = back.map_batches(derive, batch_format="pyarrow") \
        .groupby("source").aggregate(Count(), Sum("len"), Min("md5")) \
        .take_all()
    df = _df_from_rows(rows, ["source", "count()", "sum(len)",
                              "min(md5)"]).rename(
        columns={"count()": "n_docs", "sum(len)": "total_chars",
                 "min(md5)": "min_md5"})
    for c in ("n_docs", "total_chars"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_kcore_graph(sf_dir: str):
    """k-core decomposition (k=8) of the bipartite purchase graph
    (order-bucket <-> part-bucket, 257 buckets a side): the maximal
    subgraph where every node keeps >= 8 distinct neighbors, plus each
    survivor's in-core degree.  Link-farm / boilerplate-hub detection
    shape on web graphs.  Ray side: ops/graph.kcore_nodes (per-round
    keyed degree pass + adaptive endpoint drop, bounded single-task
    peel for block-sized graphs).  Oracle: recursive-CTE peeling
    fixpoint with a shrink guard (emit next round only while the
    survivor set is strictly smaller AND nonempty; final degree filter
    handles the empty-core stop)."""
    from pdf_extract_ray.ops.graph import kcore_nodes

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def edges(b: pa.Table) -> pa.Table:
        o = pc.cast(b.column("l_orderkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        p = pc.cast(b.column("l_partkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"src": o % 257, "dst": 257 + (p % 257)})

    return kcore_nodes(li.map_batches(edges, batch_format="pyarrow"), k=8)


def _q_price_band_orders(sf_dir: str):
    """Point-in-range dim lookup (IP-to-geo shape): orders bucketed
    into 25 IRREGULAR price bands derived from nation (band k =
    [k^2, (k+1)^2) x $1000 in cents) via ONE broadcast searchsorted —
    zero fact shuffle, vs. a BETWEEN theta-join
    (ops/relational.range_lookup_join)."""
    from ray.data.aggregate import Count, Sum
    from pdf_extract_ray.ops.relational import range_lookup_join

    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"])

    def mkdim(b: pa.Table) -> pa.Table:
        k = b.column("n_nationkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"band": b.column("n_name"),
                         "lo": pa.array(k * k * 100000),
                         "hi": pa.array((k + 1) * (k + 1) * 100000)})

    dim = nation.map_batches(mkdim, batch_format="pyarrow").to_pandas()
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        v = b.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({"cents": pa.array(
            np.rint(v * 100.0).astype(np.int64))})

    fact = orders.map_batches(cents, batch_format="pyarrow")
    joined = range_lookup_join(fact, dim, value_col="cents",
                               lo_col="lo", hi_col="hi",
                               label_col="band")
    rows = joined.groupby("band").aggregate(Count(), Sum("cents")) \
        .take_all()
    df = _df_from_rows(rows, ["band", "count()", "sum(cents)"]).rename(
        columns={"count()": "n_orders", "sum(cents)": "total_cents"})
    for c in ("n_orders", "total_cents"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_global_doc_rank(sf_dir: str):
    """Global ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) without a
    global sort: broadcast key-histogram offsets + one key-partitioned
    within-key rank pass (ops/analytics.global_row_number)."""
    from pdf_extract_ray.ops.analytics import global_row_number
    return global_row_number(
        _read(sf_dir, "documents", columns=["doc_id", "n_chars"]),
        "n_chars", "doc_id")


def _q_quantity_woe(sf_dir: str):
    """Weight-of-evidence / information-value of quantity buckets vs
    the 'returned' flag: one bounded (bucket, flag) count shuffle,
    exact integer counts, ppm/ppb-floored floats with identical op
    order both engines (ops/analytics.woe_iv)."""
    from pdf_extract_ray.ops.analytics import woe_iv
    ds = _read(sf_dir, "lineitem", columns=["l_quantity", "l_returnflag"])

    def derive(b: pa.Table) -> pa.Table:
        q = b.column("l_quantity").to_numpy(zero_copy_only=False)
        flag = pc.equal(pc.fill_null(b.column("l_returnflag"), ""), "R")
        return pa.table({"qty_bucket": pa.array(
            np.rint(q).astype(np.int64)), "is_return": flag})

    return woe_iv(ds.map_batches(derive, batch_format="pyarrow"),
                  "qty_bucket", "is_return")


def _q_lang_target_encoding(sf_dir: str):
    """Smoothed target (mean) encoding of lang -> n_chars with m=20
    pseudo-observations of the global prior: exact integer (sum, count)
    partials, identical float op order both engines
    (ops/analytics.smoothed_target_mean)."""
    from pdf_extract_ray.ops.analytics import smoothed_target_mean
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def derive(b: pa.Table) -> pa.Table:
        return pa.table({
            "lang": pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                                 "und"),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64())})

    return smoothed_target_mean(
        ds.map_batches(derive, batch_format="pyarrow"),
        "lang", "n_chars", m=20, scale=1000)


def _q_user_value_kendall(sf_dir: str):
    """Exact Kendall tau-b pair counts per user over (ts, value cents)
    — monotonic-trend detection with an ALL-INTEGER oracle (no float
    boundary anywhere); one user-keyed partition pass, vectorized pair
    enumeration (ops/analytics.grouped_kendall).  Bounded-group
    assumption documented at the op."""
    from pdf_extract_ray.ops.analytics import grouped_kendall
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def derive(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(b.column("user_id"), pa.int64()),
            "x": pc.cast(b.column("ts"), pa.int64()),
            "y": pa.array(np.rint(np.nan_to_num(v) * 100.0)
                          .astype(np.int64))})

    return grouped_kendall(ds.map_batches(derive, batch_format="pyarrow"),
                           "user_id", "x", "y")


def _q_user_value_ewma(sf_dir: str):
    """Dyadic windowed EWMA (alpha=1/2, 16-row window) per user in
    EXACT scaled integers — weights are powers of two over floored
    cents, so Ray and DuckDB agree bit-for-bit
    (ops/events.user_value_ewma: one user-keyed partition pass, 16
    masked shifted adds, no per-user loop)."""
    from pdf_extract_ray.ops.events import user_value_ewma
    return user_value_ewma(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                         "value"]))


def _q_rolling_spikes(sf_dir: str):
    """Rolling 2-sigma anomaly counter per user with an ALL-INTEGER
    spike test ((n*c-s)^2 > 4*(n*q-s^2) over trailing-16-row cents
    sums) — no float variance exists on either engine
    (ops/events.rolling_spikes: one partition pass, cumulative-sum
    windows clamped at user starts)."""
    from pdf_extract_ray.ops.events import rolling_spikes
    return rolling_spikes(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                         "value"]))


def _q_transition_entropy(sf_dir: str):
    """Per-state Markov out-transition entropy (ppm-floored nats) from
    the oracle-tested event_transitions counts; sorted-order driver
    finish over the tiny |types|^2 cross-tab
    (ops/events.transition_entropy)."""
    from pdf_extract_ray.ops.events import transition_entropy
    return transition_entropy(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                         "event_type"]))


def _q_degree_histogram(sf_dir: str):
    """Degree-distribution histogram (power-law first look) of the
    hashed bipartite purchase graph kcore_graph uses — symmetrized,
    self-loops dropped, parallel edges deduped
    (ops/graph.degree_histogram: map-side dedupe + one distinct-edge
    exchange + bounded histogram groupby)."""
    from pdf_extract_ray.ops.graph import degree_histogram

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def edges(b: pa.Table) -> pa.Table:
        o = pc.cast(b.column("l_orderkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        p = pc.cast(b.column("l_partkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"src": o % 257, "dst": 257 + (p % 257)})

    return degree_histogram(li.map_batches(edges, batch_format="pyarrow"))


def _q_lang_source_mi(sf_dir: str):
    """Mutual information lang<->source (+ the three entropies), ppm
    nats from exact integer counts — the split-leakage / feature-
    redundancy screen (ops/analytics.mutual_information: one bounded
    contingency aggregate, tiny driver finish)."""
    from pdf_extract_ray.ops.analytics import mutual_information
    return mutual_information(
        _read(sf_dir, "documents", columns=["lang", "source"]),
        "lang", "source")


def _q_key_skew_report(sf_dir: str):
    """Partitioning-key skew audit across the big tables: for each
    candidate shuffle key, distinct keys, the hottest key's row count
    and its ppm share -> (table_name, key_col, n_rows, n_keys,
    top_count, top_share_ppm).  The pick-ONE-partitioning-key /
    salt-hot-keys decision input.  Shape per table: one keyed count
    (bounded by key cardinality) + a tiny all-reduce max; results
    union driver-side (4 single rows)."""
    from concurrent.futures import ThreadPoolExecutor

    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    specs = [("orders", "o_custkey"), ("lineitem", "l_partkey"),
             ("events", "user_id"), ("documents", "lang")]

    # plan construction (read_parquet filesystem resolution) is NOT
    # thread-safe under lazy fsspec imports — build serially, execute
    # concurrently
    plans = []
    for table, col in specs:
        ds = _read(sf_dir, table, columns=[col])
        if col == "lang":  # string key: null-tolerant, COALESCE parity
            ds = ds.map_batches(
                lambda b: pa.table({"lang": pc.fill_null(
                    pc.cast(b.column("lang"), pa.string()), "und")}),
                batch_format="pyarrow")
        plans.append((ds, table, col))

    def audit(ds, table: str, col: str) -> dict:
        def partial(b: pa.Table) -> pa.Table:
            # per-block fold: the exchange carries (key, count)
            # partials bounded by distinct keys per block
            g = b.group_by(col).aggregate([(col, "count")])
            return pa.table({col: g.column(col),
                             "c": pc.cast(g.column(f"{col}_count"),
                                          pa.int64())})

        def summarize(df: pd.DataFrame) -> pd.DataFrame:
            cols = {"n_keys": "int64", "top": "int64", "n": "int64"}
            if len(df) == 0:
                return pd.DataFrame(columns=list(cols)).astype(cols)
            s = df.groupby(col, sort=False)["c"].sum()
            return pd.DataFrame({"n_keys": [len(s)],
                                 "top": [int(s.max())],
                                 "n": [int(s.sum())]}).astype(cols)

        # keys hash-partition, so per-partition distincts/max/sum fold
        # exactly; <= n_parts summary rows reach the driver
        rows = _grouped_by_partition(
            ds.map_batches(partial, batch_format="pyarrow"),
            [col], summarize).take_all()
        nk = sum(int(r["n_keys"]) for r in rows)
        top = max((int(r["top"]) for r in rows), default=0)
        nr = sum(int(r["n"]) for r in rows)
        return {"table_name": table, "key_col": col, "n_rows": nr,
                "n_keys": nk, "top_count": top,
                "top_share_ppm": top * 1_000_000 // nr if nr else 0}

    with ThreadPoolExecutor(max_workers=4) as pool:
        out = list(pool.map(lambda p: audit(*p), plans))
    df = pd.DataFrame(out)
    for c in ("n_rows", "n_keys", "top_count", "top_share_ppm"):
        df[c] = df[c].astype(np.int64)
    return df


def _q_readability_scores(sf_dir: str):
    """Flesch reading-ease per source from exact integer word /
    sentence / vowel-run counts (milli-floored float with identical op
    order both engines; ASCII character classes spelled out so Python
    and RE2 regex semantics cannot diverge)
    (ops/corpus.readability_scores: map-side counting, one bounded
    groupby)."""
    from pdf_extract_ray.ops.corpus import readability_scores
    return readability_scores(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_events_hourly_gapfill(sf_dir: str):
    """Gap-filled hourly event counts (zero rows for empty hours
    between the stream's min and max hour) — the densify step before
    time-series modeling (ops/events.hourly_gapfill: map-side hour
    partials, one bounded groupby, driver reindex of the tiny
    hour table)."""
    from pdf_extract_ray.ops.events import hourly_gapfill
    return hourly_gapfill(_read(sf_dir, "events", columns=["ts"]))


def _q_asof_join_nearest(sf_dir: str):
    """NEAREST-neighbor as-of join (closest order either direction,
    backward wins ties; backward tie-dedup max okey, forward min okey)
    — both directions resolve in ONE user-keyed partition pass via the
    negated-axis identity (ops/relational.asof_join_orders_nearest)."""
    from pdf_extract_ray.ops.relational import asof_join_orders_nearest
    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    od = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return asof_join_orders_nearest(ev, od)


def _q_emd_chars(sf_dir: str):
    """1-D earth mover's distance between src0/src1 doc-length
    distributions — exact integer CDF-area identity beside ks_chars'
    sup norm (ops/analytics.emd_1d: one bounded histogram, one tiny
    sorted-walk task)."""
    from pdf_extract_ray.ops.analytics import emd_1d
    return emd_1d(_read(sf_dir, "documents",
                        columns=["source", "n_chars"]),
                  "source", "n_chars", "src0", "src1")


def _q_score_auc(sf_dir: str):
    """ROC AUC of doc length predicting lang='en' via the rank-sum
    identity AUC = U / (n_pos*n_neg) — exact integers end to end
    (doubled midranks, ppm floor division), the standard classifier
    screen over a candidate feature.  Reuses the mannwhitney_u bounded
    histogram kernel on a derived label column."""
    from pdf_extract_ray.ops.analytics import mannwhitney_u
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def label(b: pa.Table) -> pa.Table:
        en = pc.fill_null(pc.equal(b.column("lang"), "en"), False)
        return pa.table({
            "g": pc.if_else(en, "pos", "neg"),
            "n_chars": b.column("n_chars")})

    mw = mannwhitney_u(ds.map_batches(label, batch_format="pyarrow"),
                       "g", "n_chars", "pos", "neg")

    def finish(b: pa.Table) -> pa.Table:
        n_pos = pc.cast(b.column("n_a"), pa.int64()).to_numpy()
        n_neg = pc.cast(b.column("n_b"), pa.int64()).to_numpy()
        num = pc.cast(b.column("two_u_a"), pa.int64()).to_numpy()
        den = 2 * n_pos * n_neg
        ppm = np.where(den > 0, num * 1_000_000 // np.maximum(den, 1),
                       -1)
        return pa.table({"n_pos": pa.array(n_pos),
                         "n_neg": pa.array(n_neg),
                         "auc_num": pa.array(num),
                         "auc_den": pa.array(den),
                         "auc_ppm": pa.array(ppm.astype(np.int64))})

    return mw.map_batches(finish, batch_format="pyarrow")


def _q_scd2_intervals(sf_dir: str):
    """SCD-2 history build: each user's event_type runs collapse into
    validity intervals closed by the next interval's start (-1 = open)
    — gaps-and-islands emitting LEAD-closed intervals, one user-keyed
    partition pass (ops/events.scd2_intervals)."""
    from pdf_extract_ray.ops.events import scd2_intervals
    return scd2_intervals(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_user_active_time(sf_dir: str):
    """Per-user activity coverage: union of [ts, ts+5min) windows in
    exact integer microseconds via the telescoping LEAD+clamp identity
    (ops/events.user_active_time)."""
    from pdf_extract_ray.ops.events import user_active_time
    return user_active_time(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]))


def _q_link_common_neighbors(sf_dir: str):
    """Link prediction on the hashed bipartite purchase graph (the
    kcore/degree_histogram graph): node pairs sharing >= 2 distinct
    neighbors with exact common-neighbor counts + neighborhood-Jaccard
    ppm (ops/graph.common_neighbor_pairs: one neighbor-keyed partition
    pass emits deduped vectorized triu pairs AND exact degrees; one
    bounded keyed Sum; degrees broadcast into the finish — no join on
    the pair stream)."""
    from pdf_extract_ray.ops.graph import common_neighbor_pairs

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def edges(b: pa.Table) -> pa.Table:
        o = pc.cast(b.column("l_orderkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        p = pc.cast(b.column("l_partkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"src": o % 257, "dst": 257 + (p % 257)})

    return common_neighbor_pairs(
        li.map_batches(edges, batch_format="pyarrow"), min_common=2)


def _q_hits_scores(sf_dir: str):
    """HITS hubs & authorities on the directed bipartite purchase graph
    (order-bucket -> part-bucket) — L1-normalized power iteration,
    edges pinned once, vectors broadcast per half-step; block-sized
    graphs resolve in one bounded task (ops/graph.hits).  Not
    SQL-oracled (iterative float); numpy-parity + loop-vs-finish
    agreement in tests/test_wave5_ops.py."""
    from pdf_extract_ray.ops.graph import hits

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def edges(b: pa.Table) -> pa.Table:
        o = pc.cast(b.column("l_orderkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        p = pc.cast(b.column("l_partkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"src": o % 257, "dst": 257 + (p % 257)})

    return hits(li.map_batches(edges, batch_format="pyarrow"), iters=20)


def _q_peer_window_sums(sf_dir: str):
    """GROUPS-frame window (peer group +/- 1 distinct ts per user) over
    event value cents — the third SQL frame type beside ROWS/RANGE
    (ops/events.peer_group_sums; DuckDB 1.0 lacks GROUPS mode, so the
    oracle states identical semantics as a per-group ROWS window
    joined back to events)."""
    from pdf_extract_ray.ops.events import peer_group_sums
    return peer_group_sums(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_isotonic_calibration(sf_dir: str):
    """PAVA isotonic calibration of lang='en' against doc length —
    maximal pooled blocks with exact integer pooling decisions
    (cross-multiplied means) and ppm rates
    (ops/classifier.isotonic_calibration).  Not SQL-oracled (PAVA is
    iterative); brute-force parity in tests."""
    from pdf_extract_ray.ops.classifier import isotonic_calibration
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def lab(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_chars": b.column("n_chars"),
            "is_en": pc.fill_null(pc.equal(b.column("lang"), "en"),
                                  False)})

    return isotonic_calibration(
        ds.map_batches(lab, batch_format="pyarrow"), "n_chars", "is_en")


def _q_source_jsd(sf_dir: str):
    """Jensen-Shannon divergence between src0/src1 unigram
    distributions over the shared top-64 vocabulary — the corpus-drift
    screen, ppm-floored nats from exact integer counts
    (ops/corpus.source_jsd)."""
    from pdf_extract_ray.ops.corpus import source_jsd
    return source_jsd(_read(sf_dir, "documents",
                            columns=["source", "text"]),
                      "src0", "src1", vocab_k=64)


def _q_lang_share_ci(sf_dir: str):
    """Wilson 95% confidence interval for each language's corpus share
    -> (lang, k, n, share_ppm, lo_ppm, hi_ppm).  The data-card
    uncertainty row.  Bounds use only +,*,/,sqrt on exact integer
    counts — sqrt is IEEE-correctly-rounded, so both engines compute
    bit-identical doubles before the ppm floor (unlike ln-based
    statistics, which rely on the floor's slack).  One bounded lang
    histogram + tiny driver finish; null lang -> 'und'."""
    import pandas as pd
    ds = _read(sf_dir, "documents", columns=["lang"])
    hist = ds.map_batches(
        lambda b: pa.table({"lang": pc.fill_null(
            pc.cast(b.column("lang"), pa.string()), "und")}),
        batch_format="pyarrow").groupby("lang").count().take_all()
    cols = {"k": "int64", "n": "int64", "share_ppm": "int64",
            "lo_ppm": "int64", "hi_ppm": "int64"}
    if not hist:
        out = pd.DataFrame(columns=["lang"] + list(cols))
        out["lang"] = out["lang"].astype(object)
        return out.astype(cols)
    df = pd.DataFrame(hist).rename(columns={"count()": "k"})
    n = int(df["k"].sum())
    z = 1.96
    ks = df["k"].to_numpy(np.int64)
    p = ks / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z * np.sqrt(p * (1.0 - p) / n
                        + z * z / (4.0 * n * n))) / denom
    out = pd.DataFrame({
        "lang": df["lang"], "k": ks, "n": np.int64(n),
        "share_ppm": ks * 1_000_000 // n,
        "lo_ppm": np.floor((center - half) * 1_000_000).astype(np.int64),
        "hi_ppm": np.floor((center + half) * 1_000_000).astype(np.int64),
    })
    return out.astype(cols)


def _q_user_value_locf(sf_dir: str):
    """Hourly LOCF resample per user (gap hours carry the last
    observed value forward, exact integer cents) — the time-series
    feature-fill shape (ops/events.user_value_locf: ragged grid +
    one global maximum.accumulate, no per-user loop)."""
    from pdf_extract_ray.ops.events import user_value_locf
    return user_value_locf(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_user_burstiness(sf_dir: str):
    """Fano factor of hourly event counts per user (zero hours in the
    span included) — ONE exact integer rational per user, no gapfill
    rows materialized (ops/events.user_burstiness)."""
    from pdf_extract_ray.ops.events import user_burstiness
    return user_burstiness(
        _read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_asof_join_tolerance(sf_dir: str):
    """As-of join with a max-gap tolerance (sensor-fusion / staleness
    gate): each 'view' matches the same user's most recent 'purchase'
    at/before it ONLY if it is <= 7 days old — the backward as-of
    kernel plus one vectorized gap filter; any older purchase is even
    staler, so post-filtering the nearest match IS the tolerance
    semantics.  Both streams share the events time axis (orders'
    TPC-H dates sit ~8000 days before events, which would make any
    realistic tolerance vacuous)."""
    from pdf_extract_ray.ops.relational import asof_join_orders
    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    views = ev.map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "view"))
                   .select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")
    buys = ev.map_batches(
        lambda b: (lambda f: pa.table({
            "o_orderkey": pc.cast(f.column("event_id"), pa.int64()),
            "o_custkey": pc.cast(f.column("user_id"), pa.int64()),
            "o_orderdate": pc.cast(f.column("ts"), pa.timestamp("us")),
        }))(b.filter(pc.equal(b.column("event_type"), "purchase"))),
        batch_format="pyarrow")
    out = asof_join_orders(views, buys, how="inner")
    tol_us = np.int64(7) * 86_400_000_000

    def gap_filter(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64())
        od_ = pc.cast(b.column("o_orderdate"), pa.int64())
        return b.filter(pc.less_equal(pc.subtract(ts, od_), tol_us))

    return out.map_batches(gap_filter, batch_format="pyarrow")


_MOTIFS = ["vp", "v[cv]*p", "pp", "se", "p.*p.*p"]


def _q_running_balance(sf_dir: str):
    """Zero-clamped running balance per user (credits minus purchase/
    error debits) — the nonlinear max(0, .) recurrence resolved
    closed-form by the reflection identity, two plain windows on both
    engines (ops/events.capped_running_balance)."""
    from pdf_extract_ray.ops.events import capped_running_balance
    return capped_running_balance(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type",
                       "value"]))


def _q_sequence_motifs(sf_dir: str):
    """Behavioral regex motifs over per-user event-type strings
    (view-then-purchase, triple purchase, ...) -> users containing
    each motif (ops/events.sequence_motifs; RE2/Python-re common
    subset only)."""
    from pdf_extract_ray.ops.events import sequence_motifs
    return sequence_motifs(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]),
        _MOTIFS)


def _q_quantile_map_sources(sf_dir: str):
    """Quantile normalization of src0 doc lengths onto src1's empirical
    distribution — exact cross-multiplied-CDF mapping, the cross-cohort
    feature-alignment shape (ops/analytics.quantile_map_1d)."""
    from pdf_extract_ray.ops.analytics import quantile_map_1d
    out = quantile_map_1d(_read(sf_dir, "documents",
                                columns=["source", "n_chars"]),
                          "source", "n_chars", "src0", "src1")
    return out.map_batches(
        lambda b: pa.table({"n_chars": b.column("value"),
                            "n_src0_le": b.column("n_a_le"),
                            "mapped_chars": b.column("mapped")}),
        batch_format="pyarrow")


def _q_k_anonymity_audit(sf_dir: str):
    """k-anonymity audit over the quasi-identifier tuple (lang, source,
    size-KB bucket): groups below k=5 and rows at risk — the
    data-release privacy screen.  One bounded 3-key histogram (per-
    block fold first), tiny driver finish."""
    import pandas as pd
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents",
               columns=["lang", "source", "n_chars"])

    def part(b: pa.Table) -> pa.Table:
        lang = pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                            "und")
        t = pa.table({
            "lang": lang,
            "source": b.column("source"),
            "size_kb": pc.divide(pc.cast(b.column("n_chars"),
                                         pa.int64()), 1000)})
        g = t.group_by(["lang", "source", "size_kb"]).aggregate(
            [("size_kb", "count")])
        return pa.table({"lang": g.column("lang"),
                         "source": g.column("source"),
                         "size_kb": g.column("size_kb"),
                         "c": pc.cast(g.column("size_kb_count"),
                                      pa.int64())})

    rows = ds.map_batches(part, batch_format="pyarrow") \
        .groupby(["lang", "source", "size_kb"]).aggregate(Sum("c")) \
        .take_all()
    cols = {"k": "int64", "groups_below": "int64",
            "rows_at_risk": "int64", "n_groups": "int64",
            "n_rows": "int64"}
    c = np.array([int(r["sum(c)"]) for r in rows], np.int64)
    below = c < 5
    return pd.DataFrame([{
        "k": 5, "groups_below": int(below.sum()),
        "rows_at_risk": int(c[below].sum()),
        "n_groups": len(c), "n_rows": int(c.sum())}]).astype(cols)


def _q_salting_plan(sf_dir: str):
    """Hot-key salting plan (the actionable output of the skew audit):
    event users whose row count exceeds the per-task target T=100 get
    ceil(count / T) salts -> (user_id, n_rows, n_salts), plus the brief
    discipline 'salt hot keys' becomes a computed artifact.  One
    bounded keyed count; the hot set is by construction <= n_rows/T
    keys, so the plan itself never becomes the skew problem."""
    import pandas as pd
    from ray.data.aggregate import Sum
    target = 60
    ds = _read(sf_dir, "events", columns=["user_id"])

    def part(b: pa.Table) -> pa.Table:
        g = b.group_by("user_id").aggregate([("user_id", "count")])
        return pa.table({"user_id": g.column("user_id"),
                         "c": pc.cast(g.column("user_id_count"),
                                      pa.int64())})

    agg = ds.map_batches(part, batch_format="pyarrow") \
        .groupby("user_id").aggregate(Sum("c"))

    def finish(b: pa.Table) -> pa.Table:
        c = pc.cast(b.column("sum(c)"), pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = c > target
        u = pc.cast(b.column("user_id"), pa.int64()).to_numpy(
            zero_copy_only=False)[keep]
        c = c[keep]
        return pa.table({
            "user_id": pa.array(u),
            "n_rows": pa.array(c),
            # ceil via (n + T-1) // T: positive operands only, where
            # numpy floor-div and DuckDB truncating // agree
            "n_salts": pa.array((c + target - 1) // target)})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_kmv_distinct_users(sf_dir: str):
    """KMV (k-minimum-values) distinct-count sketch with an EXACT
    cross-engine oracle: hash = first 15 md5 hex chars of the id (60
    bits, same digest both engines), keep the k=64 smallest distinct
    hashes, estimate = (k-1) * 2^60 // kth — unlike HLL, every number
    here is deterministic, so the sketch itself is DuckDB-verified.
    -> ONE row (k, kth_hash, est_distinct).  Mergeable at scale: each
    batch ships only its k smallest hashes (the driver merges
    <= k x blocks values); distinct-under-k inputs return the exact
    count (standard KMV convention)."""
    import hashlib
    import pandas as pd
    K = 64
    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        ids = np.unique(b.column("user_id").to_numpy(
            zero_copy_only=False).astype(np.int64))
        hv = np.unique(np.array(
            [int(hashlib.md5(str(int(i)).encode()).hexdigest()[:15], 16)
             for i in ids], np.int64))[:K]
        return pa.table({"hv": pa.array(hv)})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    hv = np.unique(np.array([r["hv"] for r in rows], np.int64))[:K]
    kk = len(hv)
    cols = {"k": "int64", "kth_hash": "int64", "est_distinct": "int64"}
    if kk == 0:
        return pd.DataFrame(columns=list(cols)).astype(cols)
    kth = int(hv[-1])
    est = kk if kk < K else (K - 1) * (1 << 60) // kth
    return pd.DataFrame([{"k": kk, "kth_hash": kth,
                          "est_distinct": est}]).astype(cols)


def _q_bucket_merkle_diff(sf_dir: str):
    """Anti-entropy bucket diff (Merkle-style drill-down, level 1):
    fingerprint both snapshots (the snapshot_diff OLD/NEW derivation)
    into 64 id-hash buckets as (count, XOR of 60-bit row digests) and
    report per bucket whether the sides differ -> (bucket, n_old,
    n_new, xor_old, xor_new, differs).  The replication-repair shape:
    at 100 TB you diff 64 fingerprints first and re-scan only the
    differing buckets, never the whole table.  XOR is commutative/
    associative, so per-block partials fold map-side and ONE bounded
    64-key pass merges; row digests are md5 (exact in both engines)."""
    import hashlib
    import pandas as pd
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .materialize()

    def _digests(ids: np.ndarray, texts) -> np.ndarray:
        return np.array(
            [int(hashlib.md5(f"{int(i)}:{t}".encode()).hexdigest()[:15],
                 16) for i, t in zip(ids, texts)], np.int64)

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = b.column("text").to_pandas().fillna("")
        old_keep = ids % 5 != 0
        trunc = texts.str.split(" ").str[:3].str.join(" ")
        new_texts = texts.where(ids % 7 != 0, trunc)
        rows = []
        for side, (mids, mtexts) in enumerate(
                [(ids[old_keep], texts[old_keep].to_numpy(object)),
                 (ids, new_texts.to_numpy(object))]):
            hv = _digests(mids, mtexts)
            bkt = mids % 64
            df = pd.DataFrame({"bucket": bkt, "hv": hv})
            g = df.groupby("bucket", sort=False)["hv"].agg(
                x=lambda s: int(np.bitwise_xor.reduce(
                    s.to_numpy(np.int64))), c="size").reset_index()
            g["side"] = np.int8(side)
            rows.append(g)
        out = pd.concat(rows, ignore_index=True)
        return pa.table({
            "bucket": pa.array(out["bucket"].to_numpy(np.int64)),
            "side": pa.array(out["side"].to_numpy(np.int8), pa.int8()),
            "x": pa.array(out["x"].to_numpy(np.int64)),
            "c": pa.array(out["c"].to_numpy(np.int64))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"bucket": "int64", "n_old": "int64", "n_new": "int64",
                "xor_old": "int64", "xor_new": "int64",
                "differs": "bool"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = df.groupby(["bucket", "side"], sort=False).agg(
            x=("x", lambda s: int(np.bitwise_xor.reduce(
                s.to_numpy(np.int64)))),
            c=("c", "sum")).reset_index()
        piv_x = g.pivot_table(index="bucket", columns="side", values="x",
                              aggfunc="first", fill_value=0)
        piv_c = g.pivot_table(index="bucket", columns="side", values="c",
                              aggfunc="first", fill_value=0)
        out = pd.DataFrame({
            "bucket": piv_x.index.to_numpy(np.int64),
            "n_old": piv_c.get(0, pd.Series(0, index=piv_c.index))
            .to_numpy(np.int64),
            "n_new": piv_c.get(1, pd.Series(0, index=piv_c.index))
            .to_numpy(np.int64),
            "xor_old": piv_x.get(0, pd.Series(0, index=piv_x.index))
            .to_numpy(np.int64),
            "xor_new": piv_x.get(1, pd.Series(0, index=piv_x.index))
            .to_numpy(np.int64)})
        out["differs"] = (out["xor_old"] != out["xor_new"]) \
            | (out["n_old"] != out["n_new"])
        return out.astype(cols)

    return _grouped_by_partition(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bucket"], resolve)


def _q_wet_roundtrip(sf_dir: str):
    """WET wire-format fidelity, oracled: documents -> sharded WET
    files (Common Crawl conversion records; one shard per input block,
    written worker-side) -> sources/warc.read_wet back -> ONE row
    (n_docs, total_chars, md5_min, url_min, url_max) recomputed FROM
    THE ROUNDTRIPPED TEXT — any framing/Content-Length/encoding loss
    hash-mismatches the parquet-side oracle.  Completes the wire-format
    family beside jsonl_roundtrip and csv_roundtrip."""
    import glob as _glob
    import hashlib
    import os
    import pandas as pd
    from pdf_extract_ray.sources.warc import read_wet, write_wet

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/pdf_extract_ray_cache/wet_v1_{tag}"
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        os.makedirs(out_dir, exist_ok=True)
        ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def write_shard(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table({"path": pa.array([], pa.string())})
            ids = b.column("doc_id").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            texts = b.column("text").to_pandas().fillna("") \
                .to_numpy(object)
            rows = [(f"http://doc/{int(i)}", 0, t)
                    for i, t in zip(ids, texts)]
            path = os.path.join(out_dir,
                                f"part-{int(ids.min())}.wet.gz")
            write_wet(rows, path, gzip_members=True)
            return pa.table({"path": pa.array([path], pa.string())})

        ds.map_batches(write_shard, batch_format="pyarrow").count()
        with open(done, "w") as f:
            f.write("ok")

    files = sorted(_glob.glob(os.path.join(out_dir, "*.wet.gz")))
    cols = {"n_docs": "int64", "total_chars": "int64",
            "md5_min": "object", "url_min": "object",
            "url_max": "object"}
    if not files:
        return pd.DataFrame(columns=list(cols)).astype(cols)
    back = read_wet(files)

    def derive(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        lens = pc.cast(pc.utf8_length(pc.fill_null(b.column("text"),
                                                   "")), pa.int64())
        return pa.table({"url": b.column("url"), "len": lens,
                         "md5": pa.array(md5s, pa.string())})

    from ray.data.aggregate import Count, Max, Min, Sum
    agg = back.map_batches(derive, batch_format="pyarrow").aggregate(
        Count(), Sum("len"), Min("md5"), Min("url"), Max("url"))
    return pd.DataFrame([{
        "n_docs": int(agg.get("count()") or 0),
        "total_chars": int(agg.get("sum(len)") or 0),
        "md5_min": agg.get("min(md5)"),
        "url_min": agg.get("min(url)"),
        "url_max": agg.get("max(url)")}]).astype(cols)


def _q_psi_chars_drift(sf_dir: str):
    """Population Stability Index between src0/src1 doc-length
    distributions over combined-decile bins — the standard ML drift
    metric in ppm nats, exact integer binning + one mirrored float
    expression (ops/analytics.psi_drift)."""
    from pdf_extract_ray.ops.analytics import psi_drift
    return psi_drift(_read(sf_dir, "documents",
                           columns=["source", "n_chars"]),
                     "source", "n_chars", "src0", "src1")


def _q_nfc_audit(sf_dir: str):
    """Unicode-normalization audit per source: docs whose text is not
    NFC-normal (mixed-crawl mojibake screen; Python unicodedata and
    DuckDB nfc_normalize both implement UAX #15, so the count is
    exact) plus a non-ASCII count via the bytes!=chars identity ->
    (source, n_docs, n_not_nfc, n_nonascii)."""
    import unicodedata
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def part(b: pa.Table) -> pa.Table:
        import pandas as pd
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_pandas()
        texts = b.column("text").to_pandas().fillna("")
        not_nfc = np.array(
            [t != unicodedata.normalize("NFC", t) for t in texts],
            np.int64)
        nonascii = (texts.str.len()
                    != texts.str.encode("utf-8").str.len()) \
            .to_numpy().astype(np.int64)
        g = pd.DataFrame({"source": src, "nn": not_nfc,
                          "na": nonascii}).groupby(
            "source", as_index=False).agg(
            n=("nn", "size"), nn=("nn", "sum"), na=("na", "sum"))
        return pa.table({
            "source": pa.array(g["source"], pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "nn": pa.array(g["nn"].to_numpy(np.int64)),
            "na": pa.array(g["na"].to_numpy(np.int64))})

    agg = ds.map_batches(part, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n"), Sum("nn"), Sum("na"))
    return agg.map_batches(
        lambda b: pa.table({
            "source": b.column("source"),
            "n_docs": pc.cast(b.column("sum(n)"), pa.int64()),
            "n_not_nfc": pc.cast(b.column("sum(nn)"), pa.int64()),
            "n_nonascii": pc.cast(b.column("sum(na)"), pa.int64())}),
        batch_format="pyarrow")


def _q_orders_by_isoweek(sf_dir: str):
    """ISO-8601 week bucketing (the fiscal-calendar parity shape
    beside date_trunc): orders per (iso_year, iso_week) with exact
    cent revenue — pandas isocalendar and DuckDB isoyear/weekofyear
    both implement ISO 8601, so buckets match exactly."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def part(b: pa.Table) -> pa.Table:
        import pandas as pd
        d = b.column("o_orderdate").to_pandas()
        iso = d.dt.isocalendar()
        cents = np.rint(np.nan_to_num(
            b.column("o_totalprice").to_numpy(zero_copy_only=False))
            * 100).astype(np.int64)
        g = pd.DataFrame({
            "iso_year": iso["year"].to_numpy(np.int64),
            "iso_week": iso["week"].to_numpy(np.int64),
            "cents": cents}).groupby(
            ["iso_year", "iso_week"], as_index=False).agg(
            n=("cents", "size"), cents=("cents", "sum"))
        return pa.table({
            "iso_year": pa.array(g["iso_year"].to_numpy(np.int64)),
            "iso_week": pa.array(g["iso_week"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "cents": pa.array(g["cents"].to_numpy(np.int64))})

    agg = ds.map_batches(part, batch_format="pyarrow") \
        .groupby(["iso_year", "iso_week"]) \
        .aggregate(Sum("n"), Sum("cents"))
    return agg.map_batches(
        lambda b: pa.table({
            "iso_year": pc.cast(b.column("iso_year"), pa.int64()),
            "iso_week": pc.cast(b.column("iso_week"), pa.int64()),
            "n_orders": pc.cast(b.column("sum(n)"), pa.int64()),
            "revenue_cents": pc.cast(b.column("sum(cents)"),
                                     pa.int64())}),
        batch_format="pyarrow")


def _q_ols2_by_source(sf_dir: str):
    """Two-feature OLS per source (chars ~ tokens + sentences, with
    intercept) in EXACT integers end to end: all moment sums are
    integer partials, and the normal-equation solve is Cramer's rule,
    so each beta is an integer-determinant rational.  Output ppm betas
    use a truncation-safe signed division (both engines truncate
    toward zero) -> (source, n, b_tok_ppm, b_sent_ppm, b0_ppm); a
    singular system (det = 0) yields -1 sentinels.  Determinant math
    runs in Python ints (the int64 moments multiply past 2^63; the
    oracle uses HUGEINT)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents",
               columns=["source", "text", "n_chars"])

    def part(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_pandas()
        texts = b.column("text").to_pandas().fillna("")
        z = np.nan_to_num(b.column("n_chars").to_numpy(
            zero_copy_only=False).astype(np.float64)).astype(np.int64)
        ln = texts.str.len().to_numpy(np.int64)
        x = np.where(ln == 0, 0,
                     ln - texts.str.replace(" ", "", regex=False)
                     .str.len().to_numpy(np.int64) + 1)
        y = (ln - texts.str.replace(". ", "", regex=False)
             .str.len().to_numpy(np.int64)) // 2
        g = pd.DataFrame({
            "source": src, "n": np.int64(1), "sx": x, "sy": y,
            "sz": z, "sxx": x * x, "syy": y * y, "sxy": x * y,
            "sxz": x * z, "syz": y * z}).groupby(
            "source", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    cols_out = {"n": "int64", "b_tok_ppm": "int64",
                "b_sent_ppm": "int64", "b0_ppm": "int64"}
    rows = ds.map_batches(part, batch_format="pyarrow") \
        .groupby("source").aggregate(
            Sum("n"), Sum("sx"), Sum("sy"), Sum("sz"), Sum("sxx"),
            Sum("syy"), Sum("sxy"), Sum("sxz"), Sum("syz")).take_all()
    if not rows:
        out = pd.DataFrame(columns=["source"] + list(cols_out))
        return out.astype(cols_out)

    def sdiv(num: int, den: int) -> int:
        # truncation-safe signed ppm division (den > 0)
        return (num * 1_000_000 // den if num >= 0
                else -((-num) * 1_000_000 // den))

    out = []
    for r in rows:
        n = int(r["sum(n)"])
        sx, sy, sz = int(r["sum(sx)"]), int(r["sum(sy)"]), int(r["sum(sz)"])
        sxx, syy, sxy = int(r["sum(sxx)"]), int(r["sum(syy)"]), int(r["sum(sxy)"])
        sxz, syz = int(r["sum(sxz)"]), int(r["sum(syz)"])
        # normal equations [[n sx sy][sx sxx sxy][sy sxy syy]] b =
        # [sz sxz syz]; Cramer determinants in exact Python ints
        det = (n * (sxx * syy - sxy * sxy)
               - sx * (sx * syy - sxy * sy)
               + sy * (sx * sxy - sxx * sy))
        if det == 0:
            out.append({"source": r["source"], "n": n,
                        "b_tok_ppm": -1, "b_sent_ppm": -1,
                        "b0_ppm": -1})
            continue
        d0 = (sz * (sxx * syy - sxy * sxy)
              - sx * (sxz * syy - sxy * syz)
              + sy * (sxz * sxy - sxx * syz))
        d1 = (n * (sxz * syy - sxy * syz)
              - sz * (sx * syy - sxy * sy)
              + sy * (sx * syz - sxz * sy))
        d2 = (n * (sxx * syz - sxz * sxy)
              - sx * (sx * syz - sxz * sy)
              + sz * (sx * sxy - sxx * sy))
        if det < 0:
            det, d0, d1, d2 = -det, -d0, -d1, -d2
        out.append({"source": r["source"], "n": n,
                    "b_tok_ppm": sdiv(d1, det),
                    "b_sent_ppm": sdiv(d2, det),
                    "b0_ppm": sdiv(d0, det)})
    return pd.DataFrame(out).astype(cols_out)


def _q_changepoint_by_user(sf_dir: str):
    """Single change-point screen per user: the split maximizing the
    exact integer scaled mean-shift |s1*n2 - s2*n1| over the cents
    series (binary-segmentation step 1; ties -> earliest split)
    (ops/events.changepoint_by_user)."""
    from pdf_extract_ray.ops.events import changepoint_by_user
    return changepoint_by_user(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_max_drawdown_by_user(sf_dir: str):
    """Maximum drawdown per user over the cents series in (ts,
    event_id) order (peak-to-trough risk classic): max(running_max -
    value), exact integer cents -> (user_id, max_drawdown_cents,
    n_events).  One user-keyed partition pass; grouped cummax is a
    pandas C kernel."""
    import pandas as pd
    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": "int64", "max_drawdown_cents": "int64",
                "n_events": "int64"}
        n = len(df)
        if n == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        user = df["user_id"].to_numpy(dtype=np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(dtype=np.int64)
        cents = np.rint(np.nan_to_num(
            df["value"].to_numpy(np.float64)) * 100).astype(np.int64)
        order = np.lexsort((eid, ts, user))
        u, c = user[order], cents[order]
        g = pd.DataFrame({"u": u, "c": c})
        runmax = g.groupby("u", sort=False)["c"].cummax() \
            .to_numpy(np.int64)
        g["dd"] = runmax - c
        out = g.groupby("u", as_index=False).agg(
            max_drawdown_cents=("dd", "max"), n_events=("dd", "size"))
        return out.rename(columns={"u": "user_id"}).astype(cols)

    return _grouped_by_partition(ds, ["user_id"], per_user)


def _q_chars_token_spearman(sf_dir: str):
    """Spearman rho(n_chars, n_tokens) per source via doubled midranks
    (integer) + exact integer moments; float formed with the
    grouped_corr IEEE op order -> bit-identical vs SQL
    (ops/analytics.grouped_spearman)."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import grouped_spearman
    ds = _read(sf_dir, "documents", columns=["source", "text",
                                             "n_chars"])

    def derive(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pandas()
        nsp = texts.str.count(" ").to_numpy(np.int64)
        nlen = texts.str.len().to_numpy(np.int64)
        y = np.where(nlen > 0, nsp + 1, 0)
        return pa.table({
            "source": b.column("source"),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
            "n_tokens": pa.array(y, pa.int64())})

    return grouped_spearman(ds.map_batches(derive,
                                           batch_format="pyarrow"),
                            "source", "n_chars", "n_tokens")


def _q_runs_test_by_user(sf_dir: str):
    """Wald-Wolfowitz runs counts per user vs the discrete median of
    the cents series (ops/events.runs_test_by_user)."""
    from pdf_extract_ray.ops.events import runs_test_by_user
    return runs_test_by_user(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_peak_hour_by_user(sf_dir: str):
    """Mode hour-of-day per user, tie -> smallest hour; map-side
    (user, hour) pre-count bounds the shuffle at 24 rows/user/block
    (ops/events.peak_hour_by_user)."""
    from pdf_extract_ray.ops.events import peak_hour_by_user
    return peak_hour_by_user(
        _read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_type_switch_rate(sf_dir: str):
    """Per-user event-type switching rate in truncated integer ppm
    over the (ts, event_id)-ordered stream
    (ops/events.type_switch_rate)."""
    from pdf_extract_ray.ops.events import type_switch_rate
    return type_switch_rate(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_event_gap_quantiles(sf_dir: str):
    """Per-user inter-event-gap distribution (min / discrete-median /
    max microseconds, exact int64)
    (ops/events.event_gap_quantiles)."""
    from pdf_extract_ray.ops.events import event_gap_quantiles
    return event_gap_quantiles(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts"]))


def _q_hapax_rate_by_source(sf_dir: str):
    """Hapax-legomena share of each source's vocabulary, truncated
    integer ppm (ops/analytics.hapax_stats)."""
    from pdf_extract_ray.ops.analytics import hapax_stats
    return hapax_stats(_read(sf_dir, "documents",
                             columns=["source", "text"]))


def _q_source_bow_gram(sf_dir: str):
    """Exact integer bag-of-words Gram matrix over source term-count
    vectors (diagonal = squared norms)
    (ops/analytics.source_bow_gram)."""
    from pdf_extract_ray.ops.analytics import source_bow_gram
    return source_bow_gram(_read(sf_dir, "documents",
                                 columns=["source", "text"]))


def _q_levene_absdev_chars(sf_dir: str):
    """Brown-Forsythe partials: exact integer sum |n_chars - median|
    per source (ops/analytics.grouped_absdev)."""
    from pdf_extract_ray.ops.analytics import grouped_absdev
    return grouped_absdev(_read(sf_dir, "documents",
                                columns=["source", "n_chars"]),
                          "source", "n_chars")


def _q_user_type_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type mix, floor-ppm from
    exact integer counts (ops/events.user_type_entropy)."""
    from pdf_extract_ray.ops.events import user_type_entropy
    return user_type_entropy(
        _read(sf_dir, "events", columns=["user_id", "event_type"]))


def _q_reorder_rate(sf_dir: str):
    """Quick-reorder (<= 7 days) propensity per customer, truncated
    integer ppm (ops/relational.reorder_rate)."""
    from pdf_extract_ray.ops.relational import reorder_rate
    return reorder_rate(
        _read(sf_dir, "orders",
              columns=["o_custkey", "o_orderkey", "o_orderdate"]))


def _q_spend_activity_corr(sf_dir: str):
    """Cross-table Pearson corr of per-user order spend vs event
    value (floor-integer units, exact moments, tagged-union shuffle
    instead of a hash join) (ops/relational.spend_activity_corr)."""
    from pdf_extract_ray.ops.relational import spend_activity_corr
    return spend_activity_corr(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "events", columns=["user_id", "value"]))


def _q_top_word_per_source(sf_dir: str):
    """Most frequent word per source, tie -> smallest word
    (ops/analytics.top_word_per_source)."""
    from pdf_extract_ray.ops.analytics import top_word_per_source
    return top_word_per_source(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_first_event_type_counts(sf_dir: str):
    """Distribution of each user's FIRST event type: the
    user_first_last arg-min combiner feeding one bounded count
    (ops/events.user_first_last)."""
    import pandas as pd
    from pdf_extract_ray.ops.events import user_first_last
    ufl = user_first_last(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))
    cols = {"first_type": "object", "n_users": "int64"}
    if ufl.count() == 0:
        return pd.DataFrame(columns=list(cols)).astype(cols)

    def fold(b: pa.Table) -> pa.Table:
        ft = pc.fill_null(pc.cast(b.column("first_type"),
                                  pa.string()), "")
        g = pd.Series(ft.to_pandas()).value_counts()
        return pa.table({"first_type": pa.array(g.index, pa.string()),
                         "n_users": pa.array(g.to_numpy(np.int64))})

    from ray.data.aggregate import Sum
    agg = ufl.map_batches(fold, batch_format="pyarrow") \
        .groupby("first_type").aggregate(Sum("n_users"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "first_type": pc.cast(b.column("first_type"), pa.string()),
            "n_users": pc.cast(b.column("sum(n_users)"), pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_user_value_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of each user's cents series — exact
    int64 moments over consecutive pairs, grouped_corr IEEE float
    order (ops/events.user_value_autocorr)."""
    from pdf_extract_ray.ops.events import user_value_autocorr
    return user_value_autocorr(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_type_transitions(sf_dir: str):
    """Event-type Markov transition counts over per-user ordered
    streams (ops/events.type_transitions)."""
    from pdf_extract_ray.ops.events import type_transitions
    return type_transitions(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "event_type"]))


def _q_source_vocab_jaccard(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources, truncated integer
    ppm (ops/analytics.source_vocab_jaccard)."""
    from pdf_extract_ray.ops.analytics import source_vocab_jaccard
    return source_vocab_jaccard(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_nation_revenue_hhi(sf_dir: str):
    """Herfindahl revenue-concentration ppm per nation from exact
    big-int customer-spend moments
    (ops/relational.nation_revenue_hhi)."""
    from pdf_extract_ray.ops.relational import nation_revenue_hhi
    return nation_revenue_hhi(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]))


def _q_adjacent_edit_distance(sf_dir: str):
    """Exact byte-Levenshtein over consecutive-id doc pairs under the
    400-byte cap — the near-dup verify kernel, oracled against
    DuckDB's levenshtein() (ops/dedup.adjacent_edit_distance)."""
    from pdf_extract_ray.ops.dedup import adjacent_edit_distance
    return adjacent_edit_distance(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_dau_stickiness(sf_dir: str):
    """Monthly MAU / summed DAU / stickiness ppm from exact distinct
    user-day counts (ops/events.dau_stickiness)."""
    from pdf_extract_ray.ops.events import dau_stickiness
    return dau_stickiness(
        _read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_retention_cohorts(sf_dir: str):
    """Weekly retention triangle: distinct active users per
    (first-week cohort, week offset)
    (ops/events.retention_cohorts)."""
    from pdf_extract_ray.ops.events import retention_cohorts
    return retention_cohorts(
        _read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_nation_pareto80(sf_dir: str):
    """Minimum customers covering 80% of nation revenue (exact
    integer 5*cum<4*total test)
    (ops/relational.nation_pareto80)."""
    from pdf_extract_ray.ops.relational import nation_pareto80
    return nation_pareto80(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]))


def _q_source_dup_rate(sf_dir: str):
    """Per-source exact-duplicate pressure in truncated ppm
    (ops/dedup.source_dup_rate)."""
    from pdf_extract_ray.ops.dedup import source_dup_rate
    return source_dup_rate(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_chars_histogram(sf_dir: str):
    """10-bin equi-width histogram of n_chars with exact integer bin
    bounds (ops/analytics.equiwidth_histogram)."""
    from pdf_extract_ray.ops.analytics import equiwidth_histogram
    return equiwidth_histogram(
        _read(sf_dir, "documents", columns=["n_chars"]), "n_chars")


def _q_orders_profile(sf_dir: str):
    """Column profiler over orders: nulls, exact distincts, VARCHAR
    min/max parity (ops/analytics.table_profile)."""
    from pdf_extract_ray.ops.analytics import table_profile
    return table_profile(
        _read(sf_dir, "orders"),
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
         "o_orderdate", "o_orderpriority"])


def _q_orders_topk_offset(sf_dir: str):
    """Paginated global top-k (rank 101..120 by cents DESC, orderkey
    ASC) (ops/analytics.global_topk_offset)."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import global_topk_offset
    out = global_topk_offset(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]),
        "o_orderkey", "o_totalprice", k=20, offset=100)
    return out.rename(columns={"key": "o_orderkey"})


def _q_copurchase_lift(sf_dir: str):
    """Association-rule lift over brand co-occurrence, big-int exact
    truncated ppm (ops/relational.copurchase_lift)."""
    from pdf_extract_ray.ops.relational import copurchase_lift
    return copurchase_lift(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"]),
        _read(sf_dir, "part", columns=["p_partkey", "p_brand"]))


def _q_char_class_profile(sf_dir: str):
    """Character-class composition per source
    (ops/textstats.char_class_profile)."""
    from pdf_extract_ray.ops.textstats import char_class_profile
    return char_class_profile(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_embedding_quant_stats(sf_dir: str):
    """Per-label quantized embedding energy — the integer-exact
    embedding-column audit (ops/analytics.embedding_quant_stats)."""
    from pdf_extract_ray.ops.analytics import embedding_quant_stats
    return embedding_quant_stats(
        _read(sf_dir, "embeddings", columns=["embedding", "label"]))


def _q_source_lcp(sf_dir: str):
    """Longest common prefix per source via LCP(lexmin, lexmax)
    (ops/analytics.source_lcp)."""
    from pdf_extract_ray.ops.analytics import source_lcp
    return source_lcp(_read(sf_dir, "documents",
                            columns=["source", "text"]))


def _q_user_lifespan_hist(sf_dir: str):
    """Histogram of user lifespans in whole days
    (ops/events.user_lifespan_hist)."""
    from pdf_extract_ray.ops.events import user_lifespan_hist
    return user_lifespan_hist(
        _read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_anova_f_chars(sf_dir: str):
    """One-way ANOVA F of document length across languages — the
    parametric k-group counterpart to welch_t_value, in an exact
    floor-quantized integer decomposition
    (ops/analytics.grouped_anova_f)."""
    from pdf_extract_ray.ops.analytics import grouped_anova_f
    return grouped_anova_f(
        _read(sf_dir, "documents", columns=["lang", "n_chars"]),
        "lang", "n_chars")


def _q_cramers_v(sf_dir: str):
    """Cramer's V association strength for the source x lang
    contingency: reuses grouped_chi2_cells' exact ppm terms; the only
    floats are one division chain and one sqrt in pinned IEEE order
    (the Wilson-CI sqrt-only discipline)."""
    import math

    import pandas as pd
    from pdf_extract_ray.ops.analytics import grouped_chi2_cells
    cells = grouped_chi2_cells(
        _read(sf_dir, "documents", columns=["source", "lang"]),
        "source", "lang")
    out_cols = {"n_rows": "int64", "n_sources": "int64",
                "n_langs": "int64", "chi2_ppm": "int64",
                "cramers_v": "float64"}
    if len(cells) == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    n = int(cells["observed"].sum())
    r = int(cells["source"].nunique())
    c = int(cells["lang"].nunique())
    chi2_ppm = int(cells["chi2_term_ppm"].astype(object).map(int).sum())
    m = min(r - 1, c - 1)
    if m <= 0 or n <= 0:
        v = 0.0
    else:
        # pinned op order: ppm -> chi2 double, then / n, / m, sqrt
        v = math.sqrt(float(chi2_ppm) / 1_000_000.0 / float(n)
                      / float(m))
    return pd.DataFrame([{"n_rows": n, "n_sources": r, "n_langs": c,
                          "chi2_ppm": chi2_ppm, "cramers_v": v}]) \
        .astype(out_cols)


def _q_nation_theil(sf_dir: str):
    """Theil-T spend inequality per nation
    (ops/relational.nation_theil)."""
    from pdf_extract_ray.ops.relational import nation_theil
    return nation_theil(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]))


def _q_class_weight_plan(sf_dir: str):
    """Inverse-frequency training class weights per language —
    w_ppm = (N * 1e6) // (k * n_g), the standard imbalance-correction
    plan emitted as exact integers.  One bounded count groupby."""
    import pandas as pd

    ds = _read(sf_dir, "documents", columns=["lang"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"lang": pc.fill_null(
            pc.cast(b.column("lang"), pa.string()), "und")})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("lang").count().take_all()
    out_cols = {"lang": "object", "n_docs": "int64",
                "weight_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {k: v for k, v in out_cols.items() if k != "lang"})
    k = len(rows)
    total = sum(int(r["count()"]) for r in rows)
    out = [{"lang": r["lang"], "n_docs": int(r["count()"]),
            "weight_ppm": (total * 1_000_000) // (k * int(r["count()"]))}
           for r in rows]
    df = pd.DataFrame(out, columns=list(out_cols))
    df["n_docs"] = df["n_docs"].astype(np.int64)
    df["weight_ppm"] = df["weight_ppm"].astype(np.int64)
    return df


def _q_user_daily_ohlc(sf_dir: str):
    """Per (user, epoch-day) OHLC bars over event value
    (ops/events.user_daily_ohlc)."""
    from pdf_extract_ray.ops.events import user_daily_ohlc
    return user_daily_ohlc(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_systematic_sample(sf_dir: str):
    """Systematic 1-in-97 sample by global (n_chars DESC, doc_id)
    rank — rank-spaced sampling preserves the length distribution
    exactly (unlike a hash sample, which only preserves it in
    expectation).  Reuses the sortless zipWithIndex kernel
    (ops/analytics.global_row_number) on the negated key; the filter
    is map-only."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import global_row_number

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def neg(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "neg_chars": pc.multiply(
                pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()),
                             0), pa.scalar(-1, pa.int64()))})

    ranked = global_row_number(
        ds.map_batches(neg, batch_format="pyarrow"),
        "neg_chars", "doc_id")

    def pick(b: pa.Table) -> pa.Table:
        rk = b.column("global_rank").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = (rk % 97) == 1
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64())
            .filter(pa.array(keep)),
            "n_chars": pc.multiply(
                pc.cast(b.column("neg_chars"), pa.int64()),
                pa.scalar(-1, pa.int64())).filter(pa.array(keep)),
            "global_rank": pa.array(rk[keep])})

    rows = ranked.map_batches(pick, batch_format="pyarrow").take_all()
    df = _df_from_rows(rows, ["doc_id", "n_chars", "global_rank"])
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return df


def _q_label_centroid_cosine(sf_dir: str):
    """Pairwise cosine between per-label embedding centroids
    (ops/analytics.label_centroid_cosine)."""
    from pdf_extract_ray.ops.analytics import label_centroid_cosine
    return label_centroid_cosine(
        _read(sf_dir, "embeddings", columns=["embedding", "label"]))


def _q_fk_orphans(sf_dir: str):
    """Referential-integrity audit over two FK edges — lineitem ->
    orders and orders -> customer (ops/relational.fk_orphans); the
    load-gate companion to lineitem_integrity's contiguity check."""
    import pandas as pd
    from pdf_extract_ray.ops.relational import fk_orphans

    a = fk_orphans(
        _read(sf_dir, "lineitem", columns=["l_orderkey"]), "l_orderkey",
        _read(sf_dir, "orders", columns=["o_orderkey"]), "o_orderkey",
        "lineitem->orders")
    b = fk_orphans(
        _read(sf_dir, "orders", columns=["o_custkey"]), "o_custkey",
        _read(sf_dir, "customer", columns=["c_custkey"]), "c_custkey",
        "orders->customer")
    return pd.concat([a, b], ignore_index=True)


def _q_user_survival_km(sf_dir: str):
    """Kaplan-Meier survival curve over user lifetimes with 6-hour
    right-censoring (ops/events.user_survival_km; the synthetic events
    axis spans ~30 days with most users active to the end, so a short
    censor window is what yields a real at-risk decay)."""
    from pdf_extract_ray.ops.events import user_survival_km
    return user_survival_km(
        _read(sf_dir, "events", columns=["user_id", "ts"]),
        censor_us=21_600_000_000)


def _q_kmv_type_overlap(sf_dir: str):
    """KMV sketch set-operation estimates of user-audience overlap
    between event types (ops/sketch.kmv_group_overlap) — the
    deterministic-sketch counterpart to an exact distinct-pair
    join."""
    from pdf_extract_ray.ops.sketch import kmv_group_overlap
    return kmv_group_overlap(
        _read(sf_dir, "events", columns=["event_type", "user_id"]),
        "event_type", "user_id")


def _q_langid_calibration(sf_dir: str):
    """Reliability (calibration) bins for the language-ID classifier:
    confidence decile vs actual accuracy -> (bin, n_docs, n_correct,
    accuracy_ppm).  The model-audit op every classifier-gated corpus
    filter needs; reuses the fully-oracled LangIdBatch kernel, so the
    whole audit is SQL-checkable.  Map-side (bin, n, correct) partials
    + one 11-key groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.textstats import LangIdBatch
    from pdf_extract_ray.util import task_udf

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def fn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        pred = task_udf(LangIdBatch)(b.select(["doc_id", "text"]))
        conf = pred.column("lang_confidence") \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        bins = np.floor(conf * 10.0).astype(np.int64)
        actual = pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                              "und").to_pandas().to_numpy(object)
        p = pred.column("pred_lang").to_pandas().to_numpy(object)
        correct = (p == actual).astype(np.int64)
        g = pd.DataFrame({"bin": bins, "n": 1, "c": correct}) \
            .groupby("bin", sort=False, as_index=False).sum()
        return pa.table({"bin": pa.array(g["bin"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    rows = ds.map_batches(fn, batch_format="pyarrow") \
        .groupby("bin").aggregate(Sum("n"), Sum("c")).take_all()
    out_cols = {"bin": "int64", "n_docs": "int64", "n_correct": "int64",
                "accuracy_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    out = [{"bin": int(r["bin"]), "n_docs": int(r["sum(n)"]),
            "n_correct": int(r["sum(c)"]),
            "accuracy_ppm": (int(r["sum(c)"]) * 1_000_000)
            // int(r["sum(n)"])} for r in rows]
    return pd.DataFrame(out).astype(out_cols)


def _q_user_value_interp(sf_dir: str):
    """Hourly linear-interpolation resample per user, exact scaled
    integers (ops/events.user_value_interp) — the gap-filling
    counterpart to user_value_locf."""
    from pdf_extract_ray.ops.events import user_value_interp
    return user_value_interp(
        _read(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]))


def _q_zorder_layout(sf_dir: str):
    """Z-order (Morton) layout keys over (length-bucket, id-bucket) —
    the lakehouse multi-dimensional clustering primitive (Delta/
    Iceberg Z-ORDER): interleave 4 bits of each dimension into an
    8-bit curve position, then audit the layout (docs + chars range
    per z-bucket).  Pure integer bit algebra both engines; map-side
    partials -> ONE bounded 256-key groupby."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"z": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        x = np.minimum(ch // 64, 15)
        y = did % 16
        z = np.zeros(len(x), np.int64)
        for bit in range(4):
            z |= (((x >> bit) & 1) << (2 * bit + 1))
            z |= (((y >> bit) & 1) << (2 * bit))
        g = pd.DataFrame({"z": z, "n": 1, "mn": ch, "mx": ch}) \
            .groupby("z", sort=False, as_index=False) \
            .agg(n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
        return pa.table({"z": pa.array(g["z"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "mn": pa.array(g["mn"].to_numpy(np.int64)),
                         "mx": pa.array(g["mx"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("z").aggregate(Sum("n"), Min("mn"), Max("mx")) \
        .take_all()
    df = _df_from_rows(rows, ["z", "sum(n)", "min(mn)", "max(mx)"]) \
        .rename(columns={"sum(n)": "n_docs", "min(mn)": "min_chars",
                         "max(mx)": "max_chars"})
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return df


def _q_best_split_chars(sf_dir: str):
    """Decision-stump split finder: the length threshold that
    minimizes weighted Gini impurity for predicting lang = 'en' —
    the CART/GBDT inner loop as a distributed primitive.  EXACT
    integers end to end: per-side impurity terms are floored to ppm
    of the corpus ((n_s^2 - e_s^2 - (n_s - e_s)^2) * 1e6 //
    (n_s * N), positive operands only), summed, arg-minned with
    smallest-threshold ties.

    Scale shape: ONE bounded (chars, is_en) count exchange (value
    domain, not rows — the grouped_median assumption), cumulative
    scan over the sorted distinct values on the driver."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        en = pc.equal(pc.fill_null(pc.cast(b.column("lang"),
                                           pa.string()), "und"), "en") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"v": ch, "n": 1, "e": en}) \
            .groupby("v", sort=False, as_index=False).sum()
        return pa.table({"v": pa.array(g["v"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "e": pa.array(g["e"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("v").aggregate(Sum("n"), Sum("e")).take_all()
    out_cols = {"threshold": "int64", "n_left": "int64",
                "n_right": "int64", "gini_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    hist = sorted((int(r["v"]), int(r["sum(n)"]), int(r["sum(e)"]))
                  for r in rows)
    N = sum(n for _, n, _ in hist)
    E = sum(e for _, _, e in hist)
    M = 1_000_000
    best = None
    nl = el = 0
    for v, n, e in hist[:-1]:
        nl += n
        el += e
        nr, er = N - nl, E - el

        def side(ns, es):
            return ((ns * ns - es * es - (ns - es) * (ns - es)) * M) \
                // (ns * N) if ns > 0 else 0
        g = side(nl, el) + side(nr, er)
        if best is None or g < best[3]:
            best = (v, nl, nr, g)
    if best is None:  # single distinct value: no split possible
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([dict(zip(
        ("threshold", "n_left", "n_right", "gini_ppm"), best))]) \
        .astype(out_cols)


def _q_nb_lang_confusion(sf_dir: str):
    """Trained multinomial Naive Bayes lang classifier, exact log-ppm
    model both engines (ops/classifier.nb_lang_confusion)."""
    from pdf_extract_ray.ops.classifier import nb_lang_confusion
    return nb_lang_confusion(
        _read(sf_dir, "documents", columns=["lang", "text"]))


def _q_event_type_stationary(sf_dir: str):
    """Markov stationary distribution of event types: 8 exact
    integer-ppm power iterations over the oracled type_transitions
    matrix (ops/events.event_type_stationary)."""
    from pdf_extract_ray.ops.events import event_type_stationary
    return event_type_stationary(
        _read(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "event_type"]))


def _q_ams_f2_users(sf_dir: str):
    """AMS second-frequency-moment sketch of per-user event counts,
    deterministic md5-nibble signs so the sketch itself is oracled
    (ops/sketch.ams_f2)."""
    from pdf_extract_ray.ops.sketch import ams_f2
    return ams_f2(_read(sf_dir, "events", columns=["user_id"]),
                  "user_id")


def _q_zonemap_prune(sf_dir: str):
    """Zone-map (page min/max) pruning effectiveness audit — the
    lakehouse data-skipping primitive: docs page on doc_id // 64;
    a clustered predicate (doc_id range) prunes almost every page, an
    unclustered one (n_chars range) scans nearly all.  Per predicate:
    (pages_total, pages_scanned, rows_matched, prune_ppm).

    Scale shape: per-batch per-page partials -> ONE page-keyed
    groupby (metadata-scale: rows/64 keys) -> map-side 2-predicate
    fold -> tiny 2-key Sum groupby; the driver never sees per-page
    rows."""
    import pandas as pd
    from ray.data.aggregate import Sum

    D_LO, D_HI = 1000, 2000
    C_LO, C_HI = 100, 160
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def per_page(b: pa.Table) -> pa.Table:
        empty = {"pg": pa.array([], pa.int64())}
        for c in ("d0", "d1", "c0", "c1", "n", "m1", "m2"):
            empty[c] = pa.array([], pa.int64())
        if b.num_rows == 0:
            return pa.table(empty)
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({
            "pg": did // 64, "d0": did, "d1": did, "c0": ch, "c1": ch,
            "n": 1,
            "m1": ((did >= D_LO) & (did <= D_HI)).astype(np.int64),
            "m2": ((ch >= C_LO) & (ch <= C_HI)).astype(np.int64)}) \
            .groupby("pg", sort=False, as_index=False) \
            .agg(d0=("d0", "min"), d1=("d1", "max"), c0=("c0", "min"),
                 c1=("c1", "max"), n=("n", "sum"), m1=("m1", "sum"),
                 m2=("m2", "sum"))
        return pa.table({c: pa.array(g[c].to_numpy(np.int64))
                         for c in ("pg", "d0", "d1", "c0", "c1", "n",
                                   "m1", "m2")})

    from ray.data.aggregate import Max, Min
    pages = ds.map_batches(per_page, batch_format="pyarrow") \
        .groupby("pg").aggregate(Min("d0"), Max("d1"), Min("c0"),
                                 Max("c1"), Sum("m1"), Sum("m2"))

    def fold(b: pa.Table) -> pa.Table:
        preds = {"pred": pa.array([], pa.string()),
                 "pt": pa.array([], pa.int64()),
                 "ps": pa.array([], pa.int64()),
                 "rm": pa.array([], pa.int64())}
        if b.num_rows == 0:
            return pa.table(preds)
        d0 = b.column("min(d0)").to_numpy(zero_copy_only=False)
        d1 = b.column("max(d1)").to_numpy(zero_copy_only=False)
        c0 = b.column("min(c0)").to_numpy(zero_copy_only=False)
        c1 = b.column("max(c1)").to_numpy(zero_copy_only=False)
        m1 = b.column("sum(m1)").to_numpy(zero_copy_only=False)
        m2 = b.column("sum(m2)").to_numpy(zero_copy_only=False)
        n = len(d0)
        s1 = int(((d1 >= D_LO) & (d0 <= D_HI)).sum())
        s2 = int(((c1 >= C_LO) & (c0 <= C_HI)).sum())
        return pa.table({
            "pred": pa.array(["doc_id_range", "n_chars_range"],
                             pa.string()),
            "pt": pa.array([n, n], pa.int64()),
            "ps": pa.array([s1, s2], pa.int64()),
            "rm": pa.array([int(m1.sum()), int(m2.sum())],
                           pa.int64())})

    rows = pages.map_batches(fold, batch_format="pyarrow") \
        .groupby("pred").aggregate(Sum("pt"), Sum("ps"), Sum("rm")) \
        .take_all()
    out_cols = {"predicate": "object", "pages_total": "int64",
                "pages_scanned": "int64", "rows_matched": "int64",
                "prune_ppm": "int64"}
    num = {k: v for k, v in out_cols.items() if v == "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = []
    for r in rows:
        pt, ps_, rm = int(r["sum(pt)"]), int(r["sum(ps)"]), \
            int(r["sum(rm)"])
        out.append({"predicate": r["pred"], "pages_total": pt,
                    "pages_scanned": ps_, "rows_matched": rm,
                    "prune_ppm": ((pt - ps_) * 1_000_000) // pt
                    if pt > 0 else 0})
    return pd.DataFrame(out).astype(num)


def _q_jackknife_mean_chars(sf_dir: str):
    """Delete-one-group (16-fold by doc_id % 16) jackknife standard
    error of mean n_chars — the deterministic distributed resampling
    primitive: fold sums come from map-side partials + a 16-key
    groupby; replicate means m_g = (S - S_g)*1e6 // (N - n_g) and the
    jackknife variance (G-1)/G * sum (m_g - mbar)^2 are exact
    integers; only the final sqrt is float (bit-identical, the
    wilson-CI precedent)."""
    import math

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"g": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"g": did % 16, "n": 1, "s": ch}) \
            .groupby("g", sort=False, as_index=False) \
            .agg(n=("n", "sum"), s=("s", "sum"))
        return pa.table({"g": pa.array(g["g"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "s": pa.array(g["s"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("g").aggregate(Sum("n"), Sum("s")).take_all()
    out_cols = {"n_rows": "int64", "mean_ppm": "int64",
                "jk_se_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    folds = {int(r["g"]): (int(r["sum(n)"]), int(r["sum(s)"]))
             for r in rows}
    N = sum(n for n, _ in folds.values())
    S = sum(s for _, s in folds.values())
    if N == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    M = 1_000_000
    G = 16
    m = [((S - folds.get(g, (0, 0))[1]) * M
          // (N - folds.get(g, (0, 0))[0]))
         if N - folds.get(g, (0, 0))[0] > 0 else 0 for g in range(G)]
    mbar = sum(m) // G
    ss = sum((x - mbar) * (x - mbar) for x in m)
    jk_var = ((G - 1) * ss) // G
    return pd.DataFrame([{
        "n_rows": N, "mean_ppm": (S * M) // N,
        "jk_se_ppm": math.floor(math.sqrt(jk_var))}]).astype(out_cols)



def _q_business_days_latency(sf_dir: str):
    """Order->ship business-day latency per returnflag
    (ops/relational.business_days_latency, closed-form weekday rank)."""
    from pdf_extract_ray.ops.relational import business_days_latency
    return business_days_latency(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_shipdate", "l_returnflag"]))


def _q_customer_feature_table(sf_dir: str):
    """Feature-store wide build: customer dims + exact-cent order
    aggregates (ops/relational.customer_feature_table)."""
    from pdf_extract_ray.ops.relational import customer_feature_table
    return customer_feature_table(
        _read(sf_dir, "customer",
              columns=["c_custkey", "c_nationkey", "c_mktsegment",
                       "c_acctbal"]),
        _read(sf_dir, "orders",
              columns=["o_custkey", "o_totalprice", "o_orderdate"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]))


def _q_mmr_select(sf_dir: str):
    """Maximal-Marginal-Relevance diverse top-16 against the corpus
    mean embedding (ops/similarity.mmr_select; greedy selection is
    order-pinned by design — rows-only, brute-parity tested)."""
    from pdf_extract_ray.ops.similarity import mmr_select
    return mmr_select(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        dim=64, k=16, m=64)


def _q_hash_permutation_test(sf_dir: str):
    """Deterministic permutation test for mean n_chars difference,
    lang='en' vs rest: the 16 null replicates re-split the corpus by
    the 16 nibbles of md5(doc_id) (the AMS-sketch signing trick), so
    the whole test — observed diff, null diffs, extreme count, p —
    is exact integers and fully oracled.

    Scale shape: ONE map pass emits 18 keyed partials per batch
    (16 replicates + en split + totals); a tiny 18-key groupby
    finishes; no row ever leaves its block."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    R = 16

    def prep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"r": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        en = pc.equal(pc.fill_null(pc.cast(b.column("lang"),
                                           pa.string()), "und"),
                      "en").to_numpy(zero_copy_only=False)
        digs = np.frombuffer(
            b"".join(hashlib.md5(str(int(x)).encode()).hexdigest()
                     [:R].encode() for x in did),
            dtype=np.uint8).reshape(len(did), R)
        in_a = digs < ord('8')
        rs, ns, ss = [], [], []
        for r in range(R):
            rs.append(r)
            ns.append(int(in_a[:, r].sum()))
            ss.append(int(ch[in_a[:, r]].sum()))
        rs += [R, R + 1]
        ns += [int(en.sum()), len(ch)]
        ss += [int(ch[en].sum()), int(ch.sum())]
        return pa.table({"r": pa.array(rs, pa.int64()),
                         "n": pa.array(ns, pa.int64()),
                         "s": pa.array(ss, pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("r").aggregate(Sum("n"), Sum("s")).take_all()
    out_cols = {"d_obs_ppm": "int64", "n_extreme": "int64",
                "p_ppm": "int64"}
    got = {int(r["r"]): (int(r["sum(n)"]), int(r["sum(s)"]))
           for r in rows}
    if not got:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    N, S = got.get(R + 1, (0, 0))
    ne, se = got.get(R, (0, 0))
    if ne == 0 or N - ne == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    M = 1_000_000
    d_obs = (se * M) // ne - ((S - se) * M) // (N - ne)
    dr = []
    for r in range(R):
        na, sa = got.get(r, (0, 0))
        if na > 0 and N - na > 0:
            dr.append((sa * M) // na - ((S - sa) * M) // (N - na))
        else:
            dr.append(0)
    n_ext = sum(1 for d in dr if abs(d) >= abs(d_obs))
    return pd.DataFrame([{"d_obs_ppm": d_obs, "n_extreme": n_ext,
                          "p_ppm": (n_ext * M) // R}]) \
        .astype(out_cols)


def _q_gdpr_erasure_audit(sf_dir: str):
    """Right-to-be-forgotten blast-radius audit: deterministic subject
    set (key % 1000 == 7) counted across the three subject-keyed
    tables in pure map-side passes (no shuffle at all) ->
    (table_name, n_rows, n_erased, erased_ppm)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    specs = [("events", "user_id", -1), ("orders", "o_custkey", 0),
             ("customer", "c_custkey", 0)]
    out = []
    for table, key, null_sent in specs:
        ds = _read(sf_dir, table, columns=[key])

        def prep(b: pa.Table, _k=key, _s=null_sent) -> pa.Table:
            k = pc.fill_null(pc.cast(b.column(_k), pa.int64()), _s) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({
                "n": pa.array([len(k)], pa.int64()),
                "e": pa.array([int((k % 1000 == 7).sum())],
                              pa.int64())})

        rows = ds.map_batches(prep, batch_format="pyarrow") \
            .groupby(None).aggregate(Sum("n"), Sum("e")).take_all()
        n = sum(int(r["sum(n)"] or 0) for r in rows)
        e = sum(int(r["sum(e)"] or 0) for r in rows)
        if n > 0:
            out.append({"table_name": table, "n_rows": n,
                        "n_erased": e,
                        "erased_ppm": (e * 1_000_000) // n})
    cols = {"table_name": "object", "n_rows": "int64",
            "n_erased": "int64", "erased_ppm": "int64"}
    if not out:
        return pd.DataFrame(columns=list(cols)).astype(
            {k: v for k, v in cols.items() if v == "int64"})
    return pd.DataFrame(out).astype(
        {k: "int64" for k in ("n_rows", "n_erased", "erased_ppm")})


def _q_ivm_delta_merge(sf_dir: str):
    """Incremental-view-maintenance shape: the monthly revenue view is
    maintained as BASE (orderkey % 10 != 0) plus DELTA (% 10 == 0)
    partial aggregates merged BY KEY — the mergeable-aggregate
    property a 100 TB snapshot+delta lakehouse pipeline relies on ->
    (month, n_base, n_delta, revenue_cents).  The oracle recomputes
    from scratch, proving merge == full recompute."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(b: pa.Table, *, want_delta: bool) -> pa.Table:
        okey = pc.fill_null(pc.cast(b.column("o_orderkey"),
                                    pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (okey % 10 == 0) if want_delta else (okey % 10 != 0)
        d = pc.cast(pc.cast(b.column("o_orderdate"), pa.date32()),
                    pa.int32()).to_numpy(zero_copy_only=False)
        dt = pd.to_datetime(
            pd.Series(d.astype("datetime64[D]")[keep]))
        month = ((dt.dt.year - 1970) * 12 + dt.dt.month - 1) \
            .to_numpy(np.int64)
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)[keep]
        g = pd.DataFrame({"month": month, "nb": 0, "nd": 0,
                          "rev": cents})
        col = "nd" if want_delta else "nb"
        g[col] = 1
        g = g.groupby("month", sort=False, as_index=False).sum()
        return pa.table({
            "month": pa.array(g["month"].to_numpy(np.int64)),
            "nb": pa.array(g["nb"].to_numpy(np.int64)),
            "nd": pa.array(g["nd"].to_numpy(np.int64)),
            "rev": pa.array(g["rev"].to_numpy(np.int64))})

    import functools
    base = ds.map_batches(functools.partial(prep, want_delta=False),
                          batch_format="pyarrow")
    delta = ds.map_batches(functools.partial(prep, want_delta=True),
                           batch_format="pyarrow")
    merged = base.union(delta).groupby("month").aggregate(
        Sum("nb"), Sum("nd"), Sum("rev"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.cast(b.column("month"), pa.int64()),
            "n_base": pc.cast(b.column("sum(nb)"), pa.int64()),
            "n_delta": pc.cast(b.column("sum(nd)"), pa.int64()),
            "revenue_cents": pc.cast(b.column("sum(rev)"),
                                     pa.int64())})

    return merged.map_batches(finish, batch_format="pyarrow")



def _q_trade_distance(sf_dir: str):
    """Weighted single-source shortest path over the nation trade
    graph: edges are the oracled Q7 cross-nation pair volumes (both
    directions, weight 1 + 1e12 // (revenue_c4 + 1) — heavier trade =
    shorter hop), source = lexicographically smallest nation, 6
    Bellman-Ford min-plus rounds in exact integers (the unrolled-CTE
    pattern of event_type_stationary) -> (nation, dist_cost);
    unreachable -> -1.

    Scale shape: the distributed work is the Q7 pair-volume chain
    (ops/relational.local_supplier_volume); the graph itself is
    |nations|^2 rows, so relaxation is driver-side tiny."""
    import pandas as pd
    from pdf_extract_ray.ops.relational import local_supplier_volume

    pairs = local_supplier_volume(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                       "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]),
        relation="cross").take_all()
    out_cols = {"nation": "object", "dist_cost": "int64"}
    if not pairs:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {"dist_cost": "int64"})
    INF = 10 ** 15
    edges = []
    nodes = set()
    for r in pairs:
        a, b_, rev = r["cust_nation"], r["supp_nation"], \
            int(r["revenue_c4"])
        w = 1 + 10 ** 12 // (rev + 1)
        edges.append((a, b_, w))
        edges.append((b_, a, w))
        nodes.update((a, b_))
    nodes = sorted(nodes)
    dist = {v: INF for v in nodes}
    dist[nodes[0]] = 0
    for _ in range(6):
        nxt = dict(dist)
        for u, v, w in edges:
            cand = dist[u] + w
            if cand < nxt[v]:
                nxt[v] = cand
        dist = nxt
    return pd.DataFrame({
        "nation": nodes,
        "dist_cost": [dist[v] if dist[v] < INF else -1
                      for v in nodes]}).astype({"dist_cost": "int64"})


def _q_quota_allocation(sf_dir: str):
    """Largest-remainder (Hamilton) apportionment of 1000 sampling
    slots across sources proportional to doc counts — the quota-
    sampling design primitive, EXACT integers: base = (1000*n) // N,
    the L = 1000 - sum(base) leftover slots go to the L largest
    remainders (ties -> source asc) -> (source, n_docs, base_slots,
    slots).

    Scale shape: ONE source-domain groupby (bounded by the source
    alphabet); apportionment is driver-side tiny."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source"])

    def prep(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_pandas()
        g = src.value_counts()
        return pa.table({"source": pa.array(g.index.to_list(),
                                            pa.string()),
                         "n": pa.array(g.to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n")).take_all()
    out_cols = {"source": "object", "n_docs": "int64",
                "base_slots": "int64", "slots": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {k: "int64" for k in ("n_docs", "base_slots", "slots")})
    g = sorted((r["source"], int(r["sum(n)"])) for r in rows)
    N = sum(n for _, n in g)
    if N == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {k: "int64" for k in ("n_docs", "base_slots", "slots")})
    base = {src: (1000 * n) // N for src, n in g}
    rem = sorted(((1000 * n) % N, src) for src, n in g)
    left = 1000 - sum(base.values())
    bonus = {src for _, src in sorted(
        rem, key=lambda t: (-t[0], t[1]))[:left]}
    return pd.DataFrame([{
        "source": src, "n_docs": n, "base_slots": base[src],
        "slots": base[src] + (1 if src in bonus else 0)}
        for src, n in g]).astype(
        {k: "int64" for k in ("n_docs", "base_slots", "slots")})


def _q_hierarchy_share(sf_dir: str):
    """Percent-of-parent rollup down the region -> nation hierarchy:
    per customer nation, exact-cent revenue plus its ppm share of the
    region and the region's ppm share of the corpus ->
    (region, nation, revenue_cents, nation_in_region_ppm,
    region_share_ppm).  Cents quantize PER ORDER (round(price*100))
    so both engines sum identical integers.

    Scale shape: the revenue_by_nation union pattern — orders partial-
    sum per custkey map-side, one custkey-keyed partition pass maps
    customers to nations, a 25-key groupby merges; region/nation dims
    broadcast; share math on 25 driver rows."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    nat = {int(r["n_nationkey"]): (r["n_name"], int(r["n_regionkey"]))
           for r in _read(sf_dir, "nation").take_all()}
    reg = {int(r["r_regionkey"]): r["r_name"]
           for r in _read(sf_dir, "region").take_all()}
    nat_ref = ray.put(nat)

    def opart(b: pa.Table) -> pa.Table:
        ck = pc.cast(b.column("o_custkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pd.DataFrame({"ckey": ck, "cents": cents}) \
            .groupby("ckey", sort=False, as_index=False).sum()
        m = len(g)
        return pa.table({
            "ckey": pa.array(g["ckey"].to_numpy(np.int64)),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
            "v": pa.array(g["cents"].to_numpy(np.int64))})

    def cpart(b: pa.Table) -> pa.Table:
        return pa.table({
            "ckey": pc.cast(b.column("c_custkey"), pa.int64()),
            "side": pa.array(np.zeros(b.num_rows, np.int8), pa.int8()),
            "v": pc.cast(b.column("c_nationkey"), pa.int64())})

    both = _read(sf_dir, "orders",
                 columns=["o_custkey", "o_totalprice"]) \
        .map_batches(opart, batch_format="pyarrow") \
        .union(_read(sf_dir, "customer",
                     columns=["c_custkey", "c_nationkey"])
               .map_batches(cpart, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"nkey": "int64", "cents": "int64"}
        cust = df[df["side"] == 0]
        o = df[df["side"] == 1]
        if len(cust) == 0 or len(o) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        spend = o.groupby("ckey", sort=False)["v"].sum()
        j = cust[["ckey", "v"]].rename(columns={"v": "nkey"}) \
            .merge(spend.rename("cents"), left_on="ckey",
                   right_index=True, how="inner")
        g = j.groupby("nkey", sort=False, as_index=False)["cents"] \
            .sum()
        return g[["nkey", "cents"]].astype(cols)

    parts = _grouped_by_partition(both, ["ckey"], resolve, n_parts=16)
    rows = parts.groupby("nkey").aggregate(Sum("cents")).take_all()
    out_cols = {"region": "object", "nation": "object",
                "revenue_cents": "int64",
                "nation_in_region_ppm": "int64",
                "region_share_ppm": "int64"}
    num = {k: "int64" for k in ("revenue_cents",
                                "nation_in_region_ppm",
                                "region_share_ppm")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    per_nation = {}
    for r in rows:
        nk = int(r["nkey"])
        name, rk = nat.get(nk, (str(nk), -1))
        per_nation[nk] = (reg.get(rk, ""), name, int(r["sum(cents)"]))
    reg_tot = {}
    for rname, _, c in per_nation.values():
        reg_tot[rname] = reg_tot.get(rname, 0) + c
    total = sum(reg_tot.values())
    M = 1_000_000
    out = [{"region": rname, "nation": nname, "revenue_cents": c,
            "nation_in_region_ppm": (c * M) // reg_tot[rname]
            if reg_tot[rname] > 0 else 0,
            "region_share_ppm": (reg_tot[rname] * M) // total
            if total > 0 else 0}
           for rname, nname, c in per_nation.values()]
    return pd.DataFrame(out).astype(num)



def _q_expectations_audit(sf_dir: str):
    """Declarative data-quality expectations (the dbt-test / Great-
    Expectations shape) evaluated in ONE documents scan plus one
    key-domain exchange for the uniqueness check ->
    (check_name, n_rows, n_violations, passed).

    Checks: doc_id unique; lang not null; lang in the accepted set
    {de,en,es,fr,zh}; n_chars >= 0; n_chars == length(text)
    (codepoint semantics in both engines).

    Scale shape: the four map-expressible checks fold per batch into
    counter partials (zero shuffle); uniqueness pays the unavoidable
    key exchange but ships (key, n) partials, not rows."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "text", "n_chars"])
    ACCEPTED = {"de", "en", "es", "fr", "zh"}

    def prep(b: pa.Table) -> pa.Table:
        n = b.num_rows
        lang = b.column("lang")
        nn_lang = int(pc.sum(pc.cast(pc.is_null(lang), pa.int64()))
                      .as_py() or 0)
        bad_set = int(pc.sum(pc.cast(pc.invert(pc.is_in(
            pc.fill_null(pc.cast(lang, pa.string()), ""),
            value_set=pa.array(sorted(ACCEPTED)))), pa.int64()))
            .as_py() or 0)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), -1)
        neg = int(pc.sum(pc.cast(pc.less(ch, 0), pa.int64()))
                  .as_py() or 0)
        tlen = pc.utf8_length(pc.fill_null(
            pc.cast(b.column("text"), pa.string()), ""))
        mismatch = int(pc.sum(pc.cast(pc.not_equal(
            pc.cast(ch, pa.int64()), pc.cast(tlen, pa.int64())),
            pa.int64())).as_py() or 0)
        return pa.table({
            "check_name": pa.array(
                ["lang_not_null", "lang_accepted", "n_chars_nonneg",
                 "n_chars_matches_text"], pa.string()),
            "n": pa.array([n] * 4, pa.int64()),
            "viol": pa.array([nn_lang, bad_set, neg, mismatch],
                             pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("check_name").aggregate(Sum("n"), Sum("viol")) \
        .take_all()

    # uniqueness: (doc_id, n) partials -> key groupby -> count keys
    def key_partial(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False)
        g = pd.Series(1, index=did).groupby(level=0, sort=False).sum()
        return pa.table({"k": pa.array(g.index.to_numpy(np.int64)),
                         "n": pa.array(g.to_numpy(np.int64))})

    def key_fold(b: pa.Table) -> pa.Table:
        n = b.column("sum(n)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"keys": pa.array([len(n)], pa.int64()),
                         "rows": pa.array([int(n.sum())], pa.int64())})

    urows = ds.map_batches(key_partial, batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("n")) \
        .map_batches(key_fold, batch_format="pyarrow").take_all()
    n_rows = sum(int(r["rows"]) for r in urows)
    n_keys = sum(int(r["keys"]) for r in urows)

    out_cols = {"check_name": "object", "n_rows": "int64",
                "n_violations": "int64", "passed": "int64"}
    num = {k: "int64" for k in ("n_rows", "n_violations", "passed")}
    out = [{"check_name": "doc_id_unique", "n_rows": n_rows,
            "n_violations": n_rows - n_keys,
            "passed": 1 if n_rows == n_keys else 0}] if n_rows else []
    for r in rows:
        v = int(r["sum(viol)"])
        out.append({"check_name": r["check_name"],
                    "n_rows": int(r["sum(n)"]), "n_violations": v,
                    "passed": 1 if v == 0 else 0})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_hypothetical_rank(sf_dir: str):
    """Hypothetical-set rank (SQL's RANK() WITHIN GROUP family): for
    probe lengths (100, 500, 1000), the rank a new doc of that length
    would take per source (1 + #shorter) and its ppm position over
    n+1 -> (source, probe, rank, pct_ppm).

    Scale shape: pure map-side counter partials (3 probes x sources
    per batch) -> one source-domain groupby; no row leaves its
    block."""
    import pandas as pd
    from ray.data.aggregate import Sum

    PROBES = (100, 500, 1000)
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"source": src, "n": 1})
        for p_ in PROBES:
            df[f"lt{p_}"] = (ch < p_).astype(np.int64)
        g = df.groupby("source", sort=False, as_index=False).sum()
        cols = {"source": pa.array(g["source"].to_numpy(object),
                                   pa.string()),
                "n": pa.array(g["n"].to_numpy(np.int64))}
        for p_ in PROBES:
            cols[f"lt{p_}"] = pa.array(g[f"lt{p_}"]
                                       .to_numpy(np.int64))
        return pa.table(cols)

    aggs = [Sum("n")] + [Sum(f"lt{p_}") for p_ in PROBES]
    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(*aggs).take_all()
    out_cols = {"source": "object", "probe": "int64", "rank": "int64",
                "pct_ppm": "int64"}
    num = {k: "int64" for k in ("probe", "rank", "pct_ppm")}
    out = []
    for r in rows:
        n = int(r["sum(n)"])
        for p_ in PROBES:
            rk = 1 + int(r[f"sum(lt{p_})"])
            out.append({"source": r["source"], "probe": p_,
                        "rank": rk,
                        "pct_ppm": (rk * 1_000_000) // (n + 1)})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_embedding_pair_dot(sf_dir: str):
    """Fully-ORACLED embedding arithmetic: deterministic pairing
    (vec_id 2k with 2k+1), dot product of milli-quantized vectors
    (floor(x*1000) per dim) -> (vec_a, vec_b, dot_q).  Quantized
    products stay < 2^53, so DuckDB's double list_dot_product and
    numpy's int64 dot agree EXACTLY regardless of summation order —
    the trick that makes a float-vector op hash-comparable.

    Scale shape: one pair-keyed (vec_id // 2) partition pass; inside
    a partition the dot is one vectorized row-wise multiply."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    from pdf_extract_ray.ops.similarity import _stack

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prep(b: pa.Table) -> pa.Table:
        ids = pc.fill_null(pc.cast(b.column("vec_id"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = _stack(b.column("embedding"))
        q = np.floor(v * 1000.0).astype(np.int64)
        return pa.table({
            "pair": pa.array(ids // 2),
            "vid": pa.array(ids),
            "q": pa.array(q.tolist(),
                          pa.list_(pa.int64()))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"vec_a": "int64", "vec_b": "int64", "dot_q": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["pair", "vid"], kind="stable")
        pair = df["pair"].to_numpy(np.int64)
        vid = df["vid"].to_numpy(np.int64)
        ok = np.zeros(len(df), bool)
        ok[:-1] = (pair[:-1] == pair[1:]) & (vid[:-1] + 1 == vid[1:]) \
            & (vid[:-1] % 2 == 0)
        if not ok.any():
            return pd.DataFrame(columns=list(cols)).astype(cols)
        qa = np.stack(df["q"].to_numpy()[np.flatnonzero(ok)])
        qb = np.stack(df["q"].to_numpy()[np.flatnonzero(ok) + 1])
        return pd.DataFrame({
            "vec_a": vid[ok], "vec_b": vid[ok] + 1,
            "dot_q": (qa * qb).sum(axis=1)}).astype(cols)

    partials = ds.map_batches(prep, batch_format="pyarrow")
    return _grouped_by_partition(partials, ["pair"], resolve,
                                 n_parts=32)



def _q_type_lag_xcorr(sf_dir: str):
    """Cross-correlation lag scan between the daily count series of
    the two lexicographically-first event types: for each lag in
    [-7, 7], xcorr = sum_d na(d) * nb(d + lag), exact integers; the
    argmax row is flagged (ties -> smallest lag) ->
    (lag, xcorr, is_best).  The "does B trail A by k days" probe.

    Scale shape: ONE bounded (day, type) count exchange (day x alphabet
    domain); the 15-lag scan runs on the tiny day-count table."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        et = pc.fill_null(pc.cast(b.column("event_type"),
                                  pa.string()), "") \
            .to_numpy(zero_copy_only=False)
        day = (np.where(ok, ts, 0) // DAY)[ok]
        g = pd.DataFrame({"day": day, "et": et[ok], "n": 1}) \
            .groupby(["day", "et"], sort=False, as_index=False).sum()
        return pa.table({
            "day": pa.array(g["day"].to_numpy(np.int64)),
            "et": pa.array(g["et"].to_numpy(object), pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["day", "et"]).aggregate(Sum("n")).take_all()
    out_cols = {"lag": "int64", "xcorr": "int64", "is_best": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    types = sorted({r["et"] for r in rows})
    if len(types) < 2:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    ta, tb = types[0], types[1]
    na = {int(r["day"]): int(r["sum(n)"]) for r in rows
          if r["et"] == ta}
    nb_ = {int(r["day"]): int(r["sum(n)"]) for r in rows
           if r["et"] == tb}
    out = []
    for lag in range(-7, 8):
        out.append({"lag": lag,
                    "xcorr": sum(v * nb_.get(d + lag, 0)
                                 for d, v in na.items())})
    best = max(out, key=lambda r: (r["xcorr"], -r["lag"]))
    for r in out:
        r["is_best"] = 1 if (r["xcorr"] == best["xcorr"]
                             and r["lag"] == best["lag"]) else 0
    return pd.DataFrame(out).astype(out_cols)


def _q_analyze_table_sketch(sf_dir: str):
    """ANALYZE-style optimizer statistics for the orders fact: per
    column (orderkey, custkey, order epoch day, total cents) the exact
    n/nulls/min/max plus a KMV-128 distinct estimate whose md5 sketch
    is itself deterministic and oracled -> (column_name, n_rows,
    n_nulls, min_v, max_v, ndv_est).

    Scale shape: ONE scan; per batch each column folds to (min, max,
    nulls, 128 smallest hashes); the driver merges n_blocks tiny
    sketches.  No exchange at all — the NDV sketch replaces the
    key-domain groupby an exact ANALYZE would pay."""
    import hashlib

    import pandas as pd

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate",
                        "o_totalprice"])
    K = 128
    M60 = 1 << 60

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("o_totalprice").to_numpy(
            zero_copy_only=False).astype(np.float64)
        cents = pa.array(
            np.where(np.isnan(price), 0,
                     np.rint(price * 100)).astype(np.int64),
            pa.int64(), mask=np.isnan(price))
        cols = {
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "o_custkey": pc.cast(b.column("o_custkey"), pa.int64()),
            "order_day": pc.cast(pc.cast(
                pc.cast(b.column("o_orderdate"), pa.date32()),
                pa.int32()), pa.int64()),
            "total_cents": cents,
        }
        names, ns, nulls, mins, maxs, hs = [], [], [], [], [], []
        for name, col in cols.items():
            nn = int(pc.sum(pc.cast(pc.is_null(col), pa.int64()))
                     .as_py() or 0)
            v = pc.drop_null(col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            names.append(name)
            ns.append(b.num_rows)
            nulls.append(nn)
            mins.append(int(v.min()) if len(v) else 0)
            maxs.append(int(v.max()) if len(v) else 0)
            uniq = np.unique(v)
            hv = np.sort(np.asarray(
                [int(hashlib.md5(str(int(x)).encode())
                     .hexdigest()[:15], 16) for x in uniq]
                or [0], np.int64))
            hs.append(hv[:K].tolist() if len(uniq) else [])
        return pa.table({
            "column_name": pa.array(names, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "nulls": pa.array(nulls, pa.int64()),
            "mn": pa.array(mins, pa.int64()),
            "mx": pa.array(maxs, pa.int64()),
            "kmv": pa.array(hs, pa.list_(pa.int64()))})

    agg: dict = {}
    for r in ds.map_batches(prep, batch_format="pyarrow") \
            .iter_rows():
        name = r["column_name"]
        vals = int(r["n"]) - int(r["nulls"])
        cur = agg.get(name)
        if cur is None:
            agg[name] = {"n": int(r["n"]), "nulls": int(r["nulls"]),
                         "mn": int(r["mn"]), "mx": int(r["mx"]),
                         "kmv": set(r["kmv"]), "vals": vals}
        else:
            cur["n"] += int(r["n"])
            cur["nulls"] += int(r["nulls"])
            if vals > 0:
                if cur["vals"] == 0:
                    cur["mn"], cur["mx"] = int(r["mn"]), int(r["mx"])
                else:
                    cur["mn"] = min(cur["mn"], int(r["mn"]))
                    cur["mx"] = max(cur["mx"], int(r["mx"]))
                cur["vals"] += vals
            cur["kmv"] |= set(r["kmv"])
    out_cols = {"column_name": "object", "n_rows": "int64",
                "n_nulls": "int64", "min_v": "int64",
                "max_v": "int64", "ndv_est": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not agg:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = []
    for name in ("o_orderkey", "o_custkey", "order_day",
                 "total_cents"):
        if name not in agg:
            continue
        c = agg[name]
        kmv = sorted(c["kmv"])[:K]
        est = len(kmv) if len(kmv) < K else (K - 1) * M60 // kmv[-1]
        out.append({"column_name": name, "n_rows": c["n"],
                    "n_nulls": c["nulls"], "min_v": c["mn"],
                    "max_v": c["mx"], "ndv_est": est})
    return pd.DataFrame(out).astype(num)


def _q_sequence_gaps(sf_dir: str):
    """Dense-key integrity audit over o_orderkey: distinct count,
    range, missing-key count and the largest missing RUN (max
    consecutive-key diff minus 1) -> one row (n_keys, min_key,
    max_key, n_missing, largest_run).  TPC-H orderkeys are sparse by
    construction, so the audit has real gaps to find.

    Scale shape: per-batch dedup -> ONE value-bucket (key // 4096)
    partition pass computes each bucket's local sorted diffs exactly
    once; the driver stitches only per-bucket (min, max) boundaries
    — runs never straddle a bucket unseen because buckets tile the
    key space."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "orders", columns=["o_orderkey"])
    B = 4096

    def prep(b: pa.Table) -> pa.Table:
        k = pc.drop_null(pc.cast(b.column("o_orderkey"), pa.int64())) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.unique(k)
        return pa.table({"bucket": pa.array(k // B),
                         "k": pa.array(k)})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"bucket": "int64", "n": "int64", "mn": "int64",
                "mx": "int64", "run": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        out = []
        for bkt, sub in df.groupby("bucket", sort=False):
            k = np.unique(sub["k"].to_numpy(np.int64))
            run = int((np.diff(k) - 1).max()) if len(k) > 1 else 0
            out.append({"bucket": int(bkt), "n": len(k),
                        "mn": int(k[0]), "mx": int(k[-1]),
                        "run": run})
        return pd.DataFrame(out).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["bucket"],
        resolve, n_parts=32).take_all()
    out_cols = {"n_keys": "int64", "min_key": "int64",
                "max_key": "int64", "n_missing": "int64",
                "largest_run": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    rows = sorted(rows, key=lambda r: int(r["bucket"]))
    n = sum(int(r["n"]) for r in rows)
    mn, mx = int(rows[0]["mn"]), int(rows[-1]["mx"])
    run = max(int(r["run"]) for r in rows)
    for a, b_ in zip(rows, rows[1:]):
        run = max(run, int(b_["mn"]) - int(a["mx"]) - 1)
    return pd.DataFrame([{
        "n_keys": n, "min_key": mn, "max_key": mx,
        "n_missing": (mx - mn + 1) - n, "largest_run": run}]) \
        .astype(out_cols)



def _q_type_dwell_time(sf_dir: str):
    """State-machine dwell time: each event "holds the state" until
    the user's next event; total/average microseconds grouped by the
    LEADING event's type -> (event_type, n_segments, total_dwell_us,
    avg_dwell_us).  The session-behavior "time spent per state"
    primitive.

    Scale shape: ONE user-keyed partition pass; inside a partition the
    lexsort + shifted-diff is fully vectorized (same kernel family as
    type_transitions); a type-alphabet groupby merges partials."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"event_type": "object", "n": "int64", "s": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        order = np.lexsort((eid, ts, u))
        u, ts, et = u[order], ts[order], et[order]
        same = u[:-1] == u[1:]
        if not same.any():
            return pd.DataFrame(columns=list(cols)).astype(cols)
        dwell = (ts[1:] - ts[:-1])[same]
        lead = et[:-1][same]
        g = pd.DataFrame({"event_type": lead, "n": 1, "s": dwell}) \
            .groupby("event_type", sort=False, as_index=False).sum()
        return g.astype(cols)

    partials = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32)
    rows = partials.groupby("event_type").aggregate(
        Sum("n"), Sum("s")).take_all()
    out_cols = {"event_type": "object", "n_segments": "int64",
                "total_dwell_us": "int64", "avg_dwell_us": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = [{"event_type": r["event_type"],
            "n_segments": int(r["sum(n)"]),
            "total_dwell_us": int(r["sum(s)"]),
            "avg_dwell_us": int(r["sum(s)"]) // int(r["sum(n)"])}
           for r in rows]
    return pd.DataFrame(out).astype(num)


def _q_yoy_revenue(sf_dir: str):
    """Year-over-year monthly revenue deltas: each month joined to the
    month 12 back; yoy change in truncated ppm (DuckDB // semantics
    on the possibly-negative numerator, mirrored explicitly) ->
    (month, revenue_cents, prev_year_cents, yoy_ppm).

    Scale shape: ONE bounded month-domain groupby; the self-join runs
    on the tiny month table driver-side."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.cast(b.column("o_orderdate"), pa.date32()),
                    pa.int32()).to_numpy(zero_copy_only=False)
        dt = pd.Series(d.astype("datetime64[D]"))
        month = ((dt.dt.year - 1970) * 12 + dt.dt.month - 1) \
            .to_numpy(np.int64)
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pd.DataFrame({"month": month, "cents": cents}) \
            .groupby("month", sort=False, as_index=False).sum()
        return pa.table({
            "month": pa.array(g["month"].to_numpy(np.int64)),
            "cents": pa.array(g["cents"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("month").aggregate(Sum("cents")).take_all()
    out_cols = {"month": "int64", "revenue_cents": "int64",
                "prev_year_cents": "int64", "yoy_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    rev = {int(r["month"]): int(r["sum(cents)"]) for r in rows}
    M = 1_000_000
    out = []
    for m_, c in sorted(rev.items()):
        prev = rev.get(m_ - 12, 0)
        if prev > 0:
            num = (c - prev) * M
            yoy = (abs(num) // prev) * (1 if num >= 0 else -1)
        else:
            yoy = 0
        out.append({"month": m_, "revenue_cents": c,
                    "prev_year_cents": prev, "yoy_ppm": yoy})
    return pd.DataFrame(out).astype(out_cols)


def _q_embedding_dim_profile(sf_dir: str):
    """Per-dimension vector profile in milli-quantized EXACT integers
    (floor(x*1000)): n / sum / min / max per embedding dimension ->
    (dim, n, sum_q, min_q, max_q).  The feature-drift monitor for an
    embedding column; NULL embeddings are excluded in both engines.

    Scale shape: per-batch numpy column fold -> 64 partial rows per
    block -> ONE 64-key groupby.  No row-level data moves."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    DIM = 64
    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def prep(b: pa.Table) -> pa.Table:
        rows = [r for r in b.column("embedding").to_pylist()
                if r is not None]
        empty = {"dim": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64()),
                 "s": pa.array([], pa.int64()),
                 "mn": pa.array([], pa.int64()),
                 "mx": pa.array([], pa.int64())}
        if not rows:
            return pa.table(empty)
        q = np.floor(np.asarray(rows, np.float64) * 1000.0) \
            .astype(np.int64)
        return pa.table({
            "dim": pa.array(np.arange(q.shape[1], dtype=np.int64)),
            "n": pa.array(np.full(q.shape[1], q.shape[0], np.int64)),
            "s": pa.array(q.sum(axis=0)),
            "mn": pa.array(q.min(axis=0)),
            "mx": pa.array(q.max(axis=0))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("dim").aggregate(Sum("n"), Sum("s"), Min("mn"),
                                  Max("mx")).take_all()
    out_cols = {"dim": "int64", "n": "int64", "sum_q": "int64",
                "min_q": "int64", "max_q": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    out = [{"dim": int(r["dim"]), "n": int(r["sum(n)"]),
            "sum_q": int(r["sum(s)"]), "min_q": int(r["min(mn)"]),
            "max_q": int(r["max(mx)"])} for r in rows]
    return pd.DataFrame(out).astype(out_cols) \
        .sort_values("dim").reset_index(drop=True)



def _BUCKET_ADJ(ds, cols, B=4096):
    """Shared kernel: bucket every row by doc_id // B (NO ghost
    copies).  Globally-adjacent pairs = per-bucket interior pairs
    emitted in the partition pass (same-bucket consecutive mask) plus
    a driver stitch of per-bucket boundary rows (_BUCKET_BOUNDS, the
    sequence_gaps pattern).  The earlier one-bucket-back ghost scheme
    dropped the pair spanning an entirely-empty interior bucket and
    could pair a bucket's last row with an unrelated co-hashed
    bucket's next row; the boundary stitch is exact for any doc_id
    distribution and halves the shuffle volume."""
    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out = {"bucket": pa.array(did // B), "did": pa.array(did)}
        for c in cols:
            out[c] = pc.fill_null(pc.cast(b.column(c), pa.string()),
                                  "")
        return pa.table(out)

    return ds.map_batches(prep, batch_format="pyarrow"), B


def _BUCKET_BOUNDS(partials, cols, sort_cols=("did",),
                   dtypes=None):
    """Global first/last row of every non-empty bucket in `sort_cols`
    order: batch-local head/tail per bucket -> driver finish.  The
    driver holds O(#non-empty buckets) rows (the sequence_gaps stitch
    bound).  Returns (firsts, lasts) pandas frames aligned row-for-row
    on ascending bucket — lasts.iloc[i] is globally adjacent to
    firsts.iloc[i+1]."""
    import pandas as pd

    keep = ["bucket"] + [c for c in sort_cols if c != "bucket"] + \
        [c for c in cols if c not in sort_cols and c != "bucket"]
    dt = {"bucket": "int64", "did": "int64"}
    dt.update(dtypes or {})
    empty = pd.DataFrame({c: pd.Series(dtype=dt.get(c, "object"))
                          for c in keep})

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "bucket" not in df.columns:
            return empty.copy()
        df = df.sort_values(list(sort_cols))
        g = df.groupby("bucket", sort=False)
        return pd.concat([g.head(1), g.tail(1)])[keep]

    small = partials.map_batches(
        local, batch_format="pandas").to_pandas()
    if len(small) == 0 or "bucket" not in small.columns:
        return empty.copy(), empty.copy()
    small = small.sort_values(list(sort_cols)).reset_index(drop=True)
    g = small.groupby("bucket", sort=False)
    firsts = g.head(1).sort_values("bucket").reset_index(drop=True)
    lasts = g.tail(1).sort_values("bucket").reset_index(drop=True)
    return firsts, lasts


def _q_contrastive_pairs(sf_dir: str):
    """Weak-supervision contrastive pair labeling: globally
    consecutive doc_ids form a pair, label 1 when both docs share a
    source (positive) else 0 -> (id_a, id_b, label).  The
    training-pair builder for a contrastive encoder.

    Scale shape: ONE doc_id-bucket partition pass emits each bucket's
    interior pairs (same-bucket consecutive mask — co-hashed foreign
    buckets in the partition frame never pair); the driver stitches
    only per-bucket boundary rows, so pairs spanning empty interior
    buckets are emitted exactly once."""
    import pandas as pd
    import ray

    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    partials, B = _BUCKET_ADJ(ds, ["source"])
    partials = partials.materialize()
    cols = {"id_a": "int64", "id_b": "int64", "label": "int64"}

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.drop_duplicates("did").sort_values("did")
        did = df["did"].to_numpy(np.int64)
        src = df["source"].to_numpy(object)
        bkt = df["bucket"].to_numpy(np.int64)
        if len(did) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        same = bkt[:-1] == bkt[1:]
        return pd.DataFrame({
            "id_a": did[:-1][same], "id_b": did[1:][same],
            "label": (src[:-1][same] == src[1:][same])
            .astype(np.int64)}).astype(cols)

    pairs = _grouped_by_partition(partials, ["bucket"], resolve,
                                  n_parts=_default_parts())
    firsts, lasts = _BUCKET_BOUNDS(partials, ["source"])
    if len(firsts) < 2:
        return pairs
    la = lasts.iloc[:-1].reset_index(drop=True)
    fb = firsts.iloc[1:].reset_index(drop=True)
    stitch = pd.DataFrame({
        "id_a": la["did"].to_numpy(np.int64),
        "id_b": fb["did"].to_numpy(np.int64),
        "label": (la["source"].to_numpy(object)
                  == fb["source"].to_numpy(object))
        .astype(np.int64)}).astype(cols)
    return pairs.union(ray.data.from_pandas(stitch))


def _q_encoding_advisor(sf_dir: str):
    """Storage-encoding advisor (the lakehouse column-layout call):
    run-length run counts for the lang and source columns in doc_id
    order -> (column_name, n_rows, n_runs, rle_ratio_ppm).  Few runs
    = RLE wins; ratio = runs * 1e6 // rows.

    Scale shape: the partition pass counts in-bucket transitions
    (same-bucket consecutive mask); the driver adds the cross-bucket
    transitions from per-bucket boundary rows (_BUCKET_BOUNDS), so
    empty interior buckets cannot drop a transition.  runs =
    transitions + 1.  No global sort."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "source"])
    partials, B = _BUCKET_ADJ(ds, ["lang", "source"])
    partials = partials.materialize()

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"column_name": "object", "trans": "int64",
                "n": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.drop_duplicates("did").sort_values("did")
        bkt = df["bucket"].to_numpy(np.int64)
        same = bkt[:-1] == bkt[1:] if len(df) >= 2 else None
        out = []
        for c in ("lang", "source"):
            v = df[c].to_numpy(object)
            tr = int((v[:-1][same] != v[1:][same]).sum()) \
                if same is not None else 0
            out.append({"column_name": c, "trans": tr,
                        "n": len(df)})
        return pd.DataFrame(out).astype(cols)

    rows = _grouped_by_partition(partials, ["bucket"], resolve,
                                 n_parts=_default_parts()) \
        .groupby("column_name").aggregate(Sum("trans"), Sum("n")) \
        .take_all()
    firsts, lasts = _BUCKET_BOUNDS(partials, ["lang", "source"])
    cross = {"lang": 0, "source": 0}
    if len(firsts) >= 2:
        la = lasts.iloc[:-1].reset_index(drop=True)
        fb = firsts.iloc[1:].reset_index(drop=True)
        for c in ("lang", "source"):
            cross[c] = int((la[c].to_numpy(object)
                            != fb[c].to_numpy(object)).sum())
    out_cols = {"column_name": "object", "n_rows": "int64",
                "n_runs": "int64", "rle_ratio_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = []
    for r in rows:
        n = int(r["sum(n)"])
        runs = int(r["sum(trans)"]) + cross[r["column_name"]] \
            + (1 if n > 0 else 0)
        out.append({"column_name": r["column_name"], "n_rows": n,
                    "n_runs": runs,
                    "rle_ratio_ppm": (runs * 1_000_000) // n
                    if n > 0 else 0})
    return pd.DataFrame(out).astype(num)


def _q_decay_score(sf_dir: str):
    """Exponential time-decay engagement score, EXACT integers: each
    event contributes 2^20 halved per week of age (bit shift, capped
    at 20 weeks -> contribution 1), age measured from the corpus max
    timestamp -> (user_id, n_events, decay_score).  The
    recency-weighted activity feature behind churn/engagement models.

    Scale shape: pass 1 = global max ts (tiny all-reduce); pass 2 =
    map-side per-user fold -> one user-domain groupby."""
    import pandas as pd
    from ray.data.aggregate import Max, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    WEEK = 604_800_000_000

    def ts_max(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        m = pc.max(pc.cast(ts_col, pa.int64()))
        return pa.table({"m": pa.array(
            [m.as_py() if m.as_py() is not None else -1], pa.int64())})

    mrows = ds.map_batches(ts_max, batch_format="pyarrow") \
        .groupby(None).aggregate(Max("m")).take_all()
    out_cols = {"user_id": "int64", "n_events": "int64",
                "decay_score": "int64"}
    mt = max((int(r["max(m)"]) for r in mrows
              if r["max(m)"] is not None), default=-1)
    if mt < 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        w = np.minimum((mt - np.where(ok, ts, 0)[ok]) // WEEK, 20) \
            .astype(np.int64)
        sc = (1 << 20) >> w
        g = pd.DataFrame({"user_id": u, "n": 1, "s": sc}) \
            .groupby("user_id", sort=False, as_index=False).sum()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("user_id").aggregate(Sum("n"), Sum("s"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(b.column("user_id"), pa.int64()),
            "n_events": pc.cast(b.column("sum(n)"), pa.int64()),
            "decay_score": pc.cast(b.column("sum(s)"), pa.int64())})

    return rows.map_batches(finish, batch_format="pyarrow")



def _q_feature_hashing_stats(sf_dir: str):
    """Hashing-trick collision audit: every vocabulary term maps to
    one of 256 feature buckets via md5; per bucket the distinct-term
    (collision) count and total term frequency ->
    (bucket, n_terms, total_tf).  The dimensionality/quality tradeoff
    readout before committing to hashed features.

    Scale shape: per-batch token counts -> ONE vocab-domain groupby
    (the tfidf envelope) -> map-side bucket fold -> 256-key groupby."""
    import collections
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["text"])

    def tf_partial(b: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for t in b.column("text").to_pylist():
            c.update(w for w in (t or "").split(" ") if w)
        ks = list(c.keys())
        return pa.table({"term": pa.array(ks, pa.string()),
                         "n": pa.array([c[k] for k in ks],
                                       pa.int64())})

    terms = ds.map_batches(tf_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("n"))

    def bucket_fold(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64()),
                             "f": pa.array([], pa.int64())})
        terms_ = b.column("term").to_pylist()
        tf = b.column("sum(n)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bk = np.asarray(
            [int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % 256
             for t in terms_], np.int64)
        g = pd.DataFrame({"bucket": bk, "t": 1, "f": tf}) \
            .groupby("bucket", sort=False, as_index=False).sum()
        return pa.table({
            "bucket": pa.array(g["bucket"].to_numpy(np.int64)),
            "t": pa.array(g["t"].to_numpy(np.int64)),
            "f": pa.array(g["f"].to_numpy(np.int64))})

    rows = terms.map_batches(bucket_fold, batch_format="pyarrow") \
        .groupby("bucket").aggregate(Sum("t"), Sum("f")).take_all()
    out_cols = {"bucket": "int64", "n_terms": "int64",
                "total_tf": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "bucket": int(r["bucket"]), "n_terms": int(r["sum(t)"]),
        "total_tf": int(r["sum(f)"])} for r in rows]) \
        .astype(out_cols)


def _q_snm_dup_candidates(sf_dir: str):
    """Sorted-neighborhood (SNM) duplicate detection — the classic
    blocking alternative to LSH: docs sorted by (n_chars, doc_id),
    window-1 neighbors with identical text md5 are duplicate pairs ->
    (id_a, id_b).

    Emits EVERY window-1 candidate with its length gap and an exact
    text-md5 verdict -> (id_a, id_b, len_diff, is_dup) — the
    candidate stream IS the SNM contract (this synthetic corpus has
    no exact dups, so is_dup stays 0 while the blocking math is
    fully exercised).

    Scale shape: value-bucket partition on n_chars // 64 (the
    _BUCKET_ADJ idea on the LENGTH axis — equal lengths always
    co-locate, so tie runs never split); each bucket emits its
    interior window-1 pairs (same-bucket consecutive mask) and the
    driver stitches per-bucket boundary rows, so gappy n_chars
    distributions with empty interior length-buckets still emit the
    globally-adjacent pair exactly once."""
    import hashlib

    import pandas as pd
    import ray

    from pdf_extract_ray.ops.corpus import _default_parts
    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "n_chars", "text"])
    B = 64
    cols = {"id_a": "int64", "id_b": "int64",
            "len_diff": "int64", "is_dup": "int64"}

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        h = [hashlib.md5((t or "").encode()).hexdigest()
             for t in b.column("text").to_pylist()]
        return pa.table({
            "bucket": pa.array(ch // B), "did": pa.array(did),
            "ch": pa.array(ch), "h": pa.array(h, pa.string())})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.drop_duplicates("did").sort_values(["ch", "did"])
        did = df["did"].to_numpy(np.int64)
        ch = df["ch"].to_numpy(np.int64)
        bkt = df["bucket"].to_numpy(np.int64)
        h = df["h"].to_numpy(object)
        if len(did) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        same = bkt[:-1] == bkt[1:]
        return pd.DataFrame({
            "id_a": did[:-1][same], "id_b": did[1:][same],
            "len_diff": (ch[1:] - ch[:-1])[same],
            "is_dup": (h[:-1] == h[1:])[same].astype(np.int64)}) \
            .astype(cols)

    partials = ds.map_batches(prep, batch_format="pyarrow") \
        .materialize()
    pairs = _grouped_by_partition(partials, ["bucket"], resolve,
                                  n_parts=_default_parts())
    firsts, lasts = _BUCKET_BOUNDS(
        partials, ["ch", "h"], sort_cols=("ch", "did"),
        dtypes={"ch": "int64", "h": "object"})
    if len(firsts) < 2:
        return pairs
    la = lasts.iloc[:-1].reset_index(drop=True)
    fb = firsts.iloc[1:].reset_index(drop=True)
    stitch = pd.DataFrame({
        "id_a": la["did"].to_numpy(np.int64),
        "id_b": fb["did"].to_numpy(np.int64),
        "len_diff": fb["ch"].to_numpy(np.int64)
        - la["ch"].to_numpy(np.int64),
        "is_dup": (la["h"].to_numpy(object)
                   == fb["h"].to_numpy(object))
        .astype(np.int64)}).astype(cols)
    return pairs.union(ray.data.from_pandas(stitch))


def _q_label_propagation_langs(sf_dir: str):
    """Self-training label cleanup over shared-template clusters:
    docs whose first 64 chars hash alike (this template-heavy corpus
    has no EXACT dups, but prefixes cluster) vote on the cluster lang
    (count desc, lang asc ties); clusters of >= 2 report how many
    members disagree with the majority -> (text_hash, n_docs,
    majority_lang, n_relabel).  The weak-supervision "propagate
    labels through near-duplicates" primitive.

    Scale shape: ONE text-hash-keyed partition pass (the exact-dedup
    envelope); votes resolve inside the partition."""
    import hashlib

    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["text", "lang"])

    def prep(b: pa.Table) -> pa.Table:
        h = [hashlib.md5((t or "")[:64].encode()).hexdigest()
             for t in b.column("text").to_pylist()]
        return pa.table({
            "h": pa.array(h, pa.string()),
            "lang": pc.fill_null(pc.cast(b.column("lang"),
                                         pa.string()), "und")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"text_hash": "object", "n_docs": "int64",
                "majority_lang": "object", "n_relabel": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"n_docs": "int64", "n_relabel": "int64"})
        g = df.groupby(["h", "lang"], sort=False).size() \
            .rename("c").reset_index()
        g = g.sort_values(["h", "c", "lang"],
                          ascending=[True, False, True])
        tot = g.groupby("h", sort=False)["c"].transform("sum")
        g["tot"] = tot
        win = g.drop_duplicates("h")
        win = win[win["tot"] >= 2]
        return pd.DataFrame({
            "text_hash": win["h"].to_numpy(object),
            "n_docs": win["tot"].to_numpy(np.int64),
            "majority_lang": win["lang"].to_numpy(object),
            "n_relabel": (win["tot"] - win["c"])
            .to_numpy(np.int64)}).astype(cols)

    return _grouped_by_partition(ds.map_batches(
        prep, batch_format="pyarrow"), ["h"], resolve, n_parts=32)



def _q_lang_kappa(sf_dir: str):
    """Cohen's kappa between the oracled LangIdBatch predictions and
    the labeled lang — inter-rater agreement corrected for chance, in
    EXACT cross-multiplied integers: kappa = (agree*N - sum_l r_l*c_l)
    / (N^2 - sum_l r_l*c_l), truncated to ppm -> one row (n_docs,
    n_agree, po_ppm, pe_ppm, kappa_ppm).

    Scale shape: one map pass (LangIdBatch inside the task) emits
    per-batch (true, pred) confusion partials -> a label-alphabet
    groupby -> driver closes the 5x6 matrix."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.textstats import LangIdBatch
    from pdf_extract_ray.util import task_udf

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def fn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"t": pa.array([], pa.string()),
                             "p": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        pred = task_udf(LangIdBatch)(b.select(["doc_id", "text"]))
        t = pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                         "und").to_pandas().to_numpy(object)
        p_ = pred.column("pred_lang").to_pandas().to_numpy(object)
        g = pd.DataFrame({"t": t, "p": p_, "n": 1}) \
            .groupby(["t", "p"], sort=False, as_index=False).sum()
        return pa.table({"t": pa.array(g["t"].to_numpy(object),
                                       pa.string()),
                         "p": pa.array(g["p"].to_numpy(object),
                                       pa.string()),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    rows = ds.map_batches(fn, batch_format="pyarrow") \
        .groupby(["t", "p"]).aggregate(Sum("n")).take_all()
    out_cols = {"n_docs": "int64", "n_agree": "int64",
                "po_ppm": "int64", "pe_ppm": "int64",
                "kappa_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    cm = {(r["t"], r["p"]): int(r["sum(n)"]) for r in rows}
    N = sum(cm.values())
    if N == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    agree = sum(v for (t, p_), v in cm.items() if t == p_)
    rt: dict = {}
    ct: dict = {}
    for (t, p_), v in cm.items():
        rt[t] = rt.get(t, 0) + v
        ct[p_] = ct.get(p_, 0) + v
    rc = sum(rt[l] * ct.get(l, 0) for l in rt)
    M = 1_000_000
    den = N * N - rc
    if den != 0:
        num = (agree * N - rc) * M
        kappa = (abs(num) // abs(den)) * (1 if num * den >= 0 else -1)
    else:
        kappa = 0
    return pd.DataFrame([{
        "n_docs": N, "n_agree": agree, "po_ppm": (agree * M) // N,
        "pe_ppm": (rc * M) // (N * N), "kappa_ppm": kappa}]) \
        .astype(out_cols)


def _q_consistent_hash_balance(sf_dir: str):
    """Consistent-hashing ring audit — the shard-rebalancing
    primitive: 8 shards x 4 vnodes place md5 ring points; every user
    hashes onto the ring and walks clockwise to the first point (with
    wraparound); per shard the assigned-user count and ppm share ->
    (shard, n_users, share_ppm).  Fully deterministic md5 math, so
    the whole ring is oracle-checkable.

    Scale shape: ONE user-domain dedup exchange, then a vectorized
    searchsorted against the 32-point broadcast ring; 8-key groupby
    finishes."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["user_id"])
    ring = sorted(
        (int(hashlib.md5(f"shard{i}:v{j}".encode()).hexdigest()[:15],
             16), i)
        for i in range(8) for j in range(4))
    pts = np.asarray([p for p, _ in ring], np.int64)
    sh = np.asarray([s_ for _, s_ in ring], np.int64)

    def dedup(b: pa.Table) -> pa.Table:
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"u": pa.array(np.unique(u))})

    users = ds.map_batches(dedup, batch_format="pyarrow") \
        .groupby("u").aggregate(Count())

    def assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        u = b.column("u").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = np.asarray(
            [int(hashlib.md5(str(int(x)).encode()).hexdigest()[:15],
                 16) for x in u], np.int64)
        idx = np.searchsorted(pts, h, side="left")
        idx = np.where(idx == len(pts), 0, idx)  # wraparound
        g = pd.Series(1, index=sh[idx]).groupby(level=0,
                                                sort=False).sum()
        return pa.table({
            "shard": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g.to_numpy(np.int64))})

    rows = users.map_batches(assign, batch_format="pyarrow") \
        .groupby("shard").aggregate(Sum("n")).take_all()
    out_cols = {"shard": "int64", "n_users": "int64",
                "share_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    tot = sum(int(r["sum(n)"]) for r in rows)
    return pd.DataFrame([{
        "shard": int(r["shard"]), "n_users": int(r["sum(n)"]),
        "share_ppm": (int(r["sum(n)"]) * 1_000_000) // tot}
        for r in rows]).astype(out_cols)


def _q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion (Cormack et al.) of two ANN rankings —
    the IR ensembling primitive: brute-force cosine and LSH top-20
    lists fuse via score = sum(1e6 // (60 + rank)); fused top-10 per
    query with (score desc, neighbor asc) ties -> (query_id,
    neighbor_id, rrf_score, fused_rank).  Rows-only (cosine rankings
    aren't SQL-expressible); hand-parity tested.

    Scale shape: both rankings are existing distributed ops; fusion
    itself touches only (n_queries x 40) rows on the driver."""
    import pandas as pd

    from pdf_extract_ray.ops.similarity import (brute_force_topk,
                                                lsh_topk, min_k_rows)

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = min_k_rows(ds, "vec_id", 8)
    if q.num_rows == 0:
        return pd.DataFrame(columns=["query_id", "neighbor_id",
                                     "rrf_score", "fused_rank"]) \
            .astype({"query_id": "int64", "neighbor_id": "int64",
                     "rrf_score": "int64", "fused_rank": "int64"})
    qids = [int(x) for x in q.column("vec_id").to_pylist()]
    qv = np.asarray(q.column("embedding").to_pylist(), np.float64)
    a = brute_force_topk(ds, qids, qv, k=20)
    b = lsh_topk(ds, qids, qv, dim=qv.shape[1], k=20)
    score: dict = {}
    for tbl in (a, b):
        for r in tbl.to_pylist():
            key = (int(r["query_id"]), int(r["neighbor_id"]))
            score[key] = score.get(key, 0) \
                + 1_000_000 // (60 + int(r["rank"]))
    rows = sorted(((qid, nid, sc) for (qid, nid), sc in score.items()),
                  key=lambda t: (t[0], -t[2], t[1]))
    out = []
    cur, rank = None, 0
    for qid, nid, sc in rows:
        if qid != cur:
            cur, rank = qid, 0
        rank += 1
        if rank <= 10:
            out.append({"query_id": qid, "neighbor_id": nid,
                        "rrf_score": sc, "fused_rank": rank})
    cols = {"query_id": "int64", "neighbor_id": "int64",
            "rrf_score": "int64", "fused_rank": "int64"}
    if not out:
        return pd.DataFrame(columns=list(cols)).astype(cols)
    return pd.DataFrame(out).astype(cols)



def _q_dau_churn_jaccard(sf_dir: str):
    """Day-over-day active-user stability: Jaccard of each day's
    active-user set against the previous day's, EXACT integers
    (|A∩B| counted per user, |A∪B| = a + b - both) -> (day, n_active,
    n_prev, n_both, jaccard_ppm); only days whose previous day has
    activity report.

    Scale shape: ONE user-keyed partition pass emits per-day (active,
    consecutive-pair) partials per user — bounded by user-days, never
    by events; a day-domain groupby merges; the day table is tiny
    driver-side."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        d = (np.where(ok, ts, 0) // DAY)[ok]
        g = pd.DataFrame({"u": u, "d": d}).drop_duplicates()
        return pa.table({"user_id": pa.array(g["u"]
                                             .to_numpy(np.int64)),
                         "d": pa.array(g["d"].to_numpy(np.int64))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"d": "int64", "act": "int64", "both": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.drop_duplicates().sort_values(["user_id", "d"])
        u = df["user_id"].to_numpy(np.int64)
        d = df["d"].to_numpy(np.int64)
        both = np.zeros(len(d), bool)
        both[1:] = (u[1:] == u[:-1]) & (d[1:] == d[:-1] + 1)
        g = pd.DataFrame({"d": d, "act": 1,
                          "both": both.astype(np.int64)}) \
            .groupby("d", sort=False, as_index=False).sum()
        return g.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby("d").aggregate(Sum("act"), Sum("both")).take_all()
    out_cols = {"day": "int64", "n_active": "int64", "n_prev": "int64",
                "n_both": "int64", "jaccard_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    act = {int(r["d"]): int(r["sum(act)"]) for r in rows}
    both = {int(r["d"]): int(r["sum(both)"]) for r in rows}
    out = []
    for d in sorted(act):
        prev = act.get(d - 1, 0)
        if prev == 0:
            continue
        bt = both.get(d, 0)
        union = act[d] + prev - bt
        out.append({"day": d, "n_active": act[d], "n_prev": prev,
                    "n_both": bt,
                    "jaccard_ppm": (bt * 1_000_000) // union
                    if union > 0 else 0})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame(out).astype(out_cols)


def _q_user_growth_curve(sf_dir: str):
    """Cumulative-adoption curve: per day, newly-seen users (first
    activity) and the running total -> (day, new_users, cum_users).

    Scale shape: user-domain groupby (min day per user) -> day-domain
    count -> the cumulative sum runs over the tiny day table."""
    import pandas as pd
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        d = (np.where(ok, ts, 0) // DAY)[ok]
        g = pd.DataFrame({"u": u, "d": d}) \
            .groupby("u", sort=False, as_index=False).min()
        return pa.table({"u": pa.array(g["u"].to_numpy(np.int64)),
                         "d": pa.array(g["d"].to_numpy(np.int64))})

    first = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("u").aggregate(Min("d"))

    def day_fold(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"d": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        d = b.column("min(d)").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.Series(1, index=d).groupby(level=0, sort=False).sum()
        return pa.table({"d": pa.array(g.index.to_numpy(np.int64)),
                         "n": pa.array(g.to_numpy(np.int64))})

    rows = first.map_batches(day_fold, batch_format="pyarrow") \
        .groupby("d").aggregate(Sum("n")).take_all()
    out_cols = {"day": "int64", "new_users": "int64",
                "cum_users": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    out, cum = [], 0
    for d, n in sorted((int(r["d"]), int(r["sum(n)"])) for r in rows):
        cum += n
        out.append({"day": d, "new_users": n, "cum_users": cum})
    return pd.DataFrame(out).astype(out_cols)


def _q_compress_ratio_by_source(sf_dir: str):
    """Compressibility audit (the Gopher/CCNet repetitiveness
    signal): zlib-level-6 deflate size over raw UTF-8 size per
    source -> (source, n_docs, raw_bytes, comp_bytes, ratio_ppm).
    Deterministic for a fixed zlib, but not SQL-expressible —
    rows-only with property tests (repetitive text must compress
    harder).

    Scale shape: pure map-side fold (compression runs where the text
    lives) -> one source-domain groupby."""
    import zlib

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def prep(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        raw, comp = [], []
        for t in b.column("text").to_pylist():
            enc = (t or "").encode("utf-8")
            raw.append(len(enc))
            comp.append(len(zlib.compress(enc, 6)))
        g = pd.DataFrame({"source": src, "n": 1,
                          "raw": np.asarray(raw, np.int64),
                          "comp": np.asarray(comp, np.int64)}) \
            .groupby("source", sort=False, as_index=False).sum()
        return pa.table({
            "source": pa.array(g["source"].to_numpy(object),
                               pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "raw": pa.array(g["raw"].to_numpy(np.int64)),
            "comp": pa.array(g["comp"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n"), Sum("raw"),
                                     Sum("comp")).take_all()
    out_cols = {"source": "object", "n_docs": "int64",
                "raw_bytes": "int64", "comp_bytes": "int64",
                "ratio_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame([{
        "source": r["source"], "n_docs": int(r["sum(n)"]),
        "raw_bytes": int(r["sum(raw)"]),
        "comp_bytes": int(r["sum(comp)"]),
        "ratio_ppm": (int(r["sum(comp)"]) * 1_000_000)
        // max(int(r["sum(raw)"]), 1)} for r in rows]).astype(num)



def _q_join_size_estimate(sf_dir: str):
    """Join-cardinality estimation (the optimizer's bread and
    butter): |orders JOIN customer ON custkey| computed exactly
    (sum over shared keys of a_k * b_k) AND estimated from a
    deterministic 1-in-16 md5 key sample, so the estimator itself is
    oracled -> one row (exact_rows, est_rows, err_ppm).

    Scale shape: ONE custkey-keyed co-partition pass (union of
    per-batch side counts); both the exact and sampled sums fold
    inside the partition — only two counters per partition reach the
    driver."""
    import hashlib

    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    def o_rows(b: pa.Table) -> pa.Table:
        k = pc.fill_null(pc.cast(b.column("o_custkey"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.Series(1, index=k).groupby(level=0, sort=False).sum()
        return pa.table({
            "k": pa.array(g.index.to_numpy(np.int64)),
            "side": pa.array(np.zeros(len(g), np.int8), pa.int8()),
            "n": pa.array(g.to_numpy(np.int64))})

    def c_rows(b: pa.Table) -> pa.Table:
        k = pc.fill_null(pc.cast(b.column("c_custkey"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.Series(1, index=k).groupby(level=0, sort=False).sum()
        return pa.table({
            "k": pa.array(g.index.to_numpy(np.int64)),
            "side": pa.array(np.ones(len(g), np.int8), pa.int8()),
            "n": pa.array(g.to_numpy(np.int64))})

    both = _read(sf_dir, "orders", columns=["o_custkey"]) \
        .map_batches(o_rows, batch_format="pyarrow") \
        .union(_read(sf_dir, "customer", columns=["c_custkey"])
               .map_batches(c_rows, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"exact": "int64", "sampled": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = df.pivot_table(index="k", columns="side", values="n",
                           aggfunc="sum")
        a = g.get(0)
        b_ = g.get(1)
        if a is None or b_ is None:
            return pd.DataFrame({"exact": [0], "sampled": [0]})
        m = a.notna() & b_.notna()
        prod = (a[m] * b_[m]).astype(np.int64)
        keys = prod.index.to_numpy(np.int64)
        samp = np.asarray(
            [hashlib.md5(str(int(k)).encode()).hexdigest()[0] == "0"
             for k in keys], bool)
        return pd.DataFrame({"exact": [int(prod.sum())],
                             "sampled": [int(prod[samp].sum())]})

    rows = _grouped_by_partition(both, ["k"], resolve,
                                 n_parts=16).take_all()
    out_cols = {"exact_rows": "int64", "est_rows": "int64",
                "err_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    exact = sum(int(r["exact"]) for r in rows)
    est = 16 * sum(int(r["sampled"]) for r in rows)
    if exact == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "exact_rows": exact, "est_rows": est,
        "err_ppm": (abs(est - exact) * 1_000_000) // exact}]) \
        .astype(out_cols)


def _q_conformal_chars_interval(sf_dir: str):
    """Split-conformal prediction interval for doc length per source:
    the TRAIN split fixes the per-source mean (floor ppm); the
    CALIBRATION split's absolute residuals give the 90th-percentile
    halfwidth via explicit order-statistic selection (rank
    (n-1)*90//100, 0-based) -> (source, n_train, n_cal, mean_ppm,
    q90_resid_ppm).  The split is md5(doc_id) nibble < '4' (~25%
    calibration) — doc_id % k would alias with this corpus's
    source = doc_id % 20 assignment and starve whole sources of one
    split.  Distribution-free uncertainty machinery, exact in both
    engines.

    Scale shape: pass 1 = source-domain train sums; pass 2 = ONE
    source-keyed partition pass sorts each source's calibration
    residuals exactly once."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])
    M = 1_000_000

    import hashlib

    def _is_cal(did: np.ndarray) -> np.ndarray:
        return np.asarray(
            [hashlib.md5(str(int(x)).encode()).hexdigest()[0] < "4"
             for x in did], bool)

    def train_prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        tr = ~_is_cal(did)
        g = pd.DataFrame({"source": src[tr], "n": 1, "s": ch[tr]}) \
            .groupby("source", sort=False, as_index=False).sum()
        return pa.table({
            "source": pa.array(g["source"].to_numpy(object),
                               pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64))})

    trows = ds.map_batches(train_prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n"), Sum("s")).take_all()
    out_cols = {"source": "object", "n_train": "int64",
                "n_cal": "int64", "mean_ppm": "int64",
                "q90_resid_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    means = {r["source"]: ((int(r["sum(s)"]) * M) // int(r["sum(n)"]),
                           int(r["sum(n)"]))
             for r in trows if int(r["sum(n)"]) > 0}
    if not means:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    mean_ref = ray.put(means)

    def cal_prep(b: pa.Table) -> pa.Table:
        mm = ray.get(mean_ref)
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cal = _is_cal(did)
        keep = cal & np.asarray([s_ in mm for s_ in src], bool)
        src, ch = src[keep], ch[keep]
        mu = np.asarray([mm[s_][0] for s_ in src], np.int64)
        return pa.table({
            "source": pa.array(src.tolist(), pa.string()),
            "r": pa.array(np.abs(ch * M - mu))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"source": "object", "n_cal": "int64", "q": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"n_cal": "int64", "q": "int64"})
        out = []
        for s_, sub in df.groupby("source", sort=False):
            r = np.sort(sub["r"].to_numpy(np.int64))
            out.append({"source": s_, "n_cal": len(r),
                        "q": int(r[(len(r) - 1) * 90 // 100])})
        return pd.DataFrame(out).astype(cols)

    crows = _grouped_by_partition(
        ds.map_batches(cal_prep, batch_format="pyarrow"), ["source"],
        resolve, n_parts=16).take_all()
    cal = {r["source"]: (int(r["n_cal"]), int(r["q"]))
           for r in crows}
    out = [{"source": s_, "n_train": means[s_][1],
            "n_cal": cal.get(s_, (0, 0))[0],
            "mean_ppm": means[s_][0],
            "q90_resid_ppm": cal.get(s_, (0, 0))[1]}
           for s_ in sorted(means) if s_ in cal]
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_markov_next_accuracy(sf_dir: str):
    """Backtest of the transition-matrix next-event predictor: argmax
    row of the oracled type_transitions matrix (count desc, dst asc
    ties) predicts each consecutive pair's next type; exact hit
    counts -> one row (n_transitions, n_correct, accuracy_ppm).

    Scale shape: the matrix is alphabet^2 (tiny, broadcast in the
    closure); scoring is a SECOND user-keyed pass with the same
    vectorized pair kernel as type_transitions."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition
    from pdf_extract_ray.ops.events import type_transitions

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    tr = type_transitions(ds).take_all()
    out_cols = {"n_transitions": "int64", "n_correct": "int64",
                "accuracy_ppm": "int64"}
    if not tr:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    best: dict = {}
    for r in tr:
        key = r["from_type"]
        cand = (-int(r["n_pairs"]), r["to_type"])
        if key not in best or cand < best[key]:
            best[key] = cand
    pred = {k: v[1] for k, v in best.items()}

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"n": "int64", "c": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        same = u[:-1] == u[1:]
        if not same.any():
            return pd.DataFrame(columns=list(cols)).astype(cols)
        frm = et[:-1][same]
        nxt = et[1:][same]
        hit = np.asarray([pred.get(f) == t
                          for f, t in zip(frm, nxt)], bool)
        return pd.DataFrame({"n": [int(same.sum())],
                             "c": [int(hit.sum())]})

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby(None).aggregate(Sum("n"), Sum("c")).take_all()
    n = sum(int(r["sum(n)"] or 0) for r in rows)
    c = sum(int(r["sum(c)"] or 0) for r in rows)
    if n == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "n_transitions": n, "n_correct": c,
        "accuracy_ppm": (c * 1_000_000) // n}]).astype(out_cols)



def _q_linear_attribution(sf_dir: str):
    """Linear multi-touch attribution (the marketing counterpart to
    the last-touch attributed_purchases op): every click/view in the
    7 days before a purchase shares the purchase's credit equally,
    floor(1e6 / k) ppm per touch -> (touch_type, n_touches,
    total_credit_ppm).

    Scale shape: ONE user-keyed partition pass; per user the window
    counts come from two searchsorted probes per purchase (no
    pairwise join materializes outside the partition)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    WIN = 7 * 86_400_000_000
    M = 1_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"touch_type": "object", "n": "int64",
                "credit": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        out: dict = {}
        for et in ("click", "view"):
            out[et] = [0, 0]
        df = df.sort_values(["user_id", "ts_us"], kind="stable")
        for _, sub in df.groupby("user_id", sort=False):
            ts = sub["ts_us"].to_numpy(np.int64)
            et = sub["et"].to_numpy(object)
            p_ts = ts[et == "purchase"]
            if len(p_ts) == 0:
                continue
            cl = ts[et == "click"]
            vw = ts[et == "view"]
            k_cl = np.searchsorted(cl, p_ts, "left") \
                - np.searchsorted(cl, p_ts - WIN, "left")
            k_vw = np.searchsorted(vw, p_ts, "left") \
                - np.searchsorted(vw, p_ts - WIN, "left")
            k = k_cl + k_vw
            ok = k > 0
            if not ok.any():
                continue
            unit = M // k[ok]
            out["click"][0] += int(k_cl[ok].sum())
            out["click"][1] += int((unit * k_cl[ok]).sum())
            out["view"][0] += int(k_vw[ok].sum())
            out["view"][1] += int((unit * k_vw[ok]).sum())
        rows = [{"touch_type": t, "n": v[0], "credit": v[1]}
                for t, v in out.items() if v[0] > 0]
        if not rows:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return pd.DataFrame(rows).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby("touch_type").aggregate(Sum("n"), Sum("credit")) \
        .take_all()
    out_cols = {"touch_type": "object", "n_touches": "int64",
                "total_credit_ppm": "int64"}
    num = {k: "int64" for k in ("n_touches", "total_credit_ppm")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame([{
        "touch_type": r["touch_type"], "n_touches": int(r["sum(n)"]),
        "total_credit_ppm": int(r["sum(credit)"])} for r in rows]) \
        .astype(num)


def _q_diff_in_diff(sf_dir: str):
    """Difference-in-differences estimator on order revenue: cohorts
    by custkey parity, periods split at 1995-01-01; DiD =
    (treat_after - treat_before) - (ctrl_after - ctrl_before), exact
    cents -> one row.  The canonical before/after causal probe, pure
    map-side (four counters, zero shuffle)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"])
    CUT = (pd.Timestamp("1995-01-01")
           - pd.Timestamp("1970-01-01")).days

    def prep(b: pa.Table) -> pa.Table:
        ck = pc.fill_null(pc.cast(b.column("o_custkey"), pa.int64()),
                          0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = pc.cast(pc.cast(b.column("o_orderdate"), pa.date32()),
                      pa.int32()).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        treat = ck % 2 == 1
        after = day >= CUT
        vals = [int(cents[t & a_].sum())
                for t in (treat, ~treat) for a_ in (~after, after)]
        return pa.table({
            "a1": pa.array([vals[0]], pa.int64()),
            "a2": pa.array([vals[1]], pa.int64()),
            "b1": pa.array([vals[2]], pa.int64()),
            "b2": pa.array([vals[3]], pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(None).aggregate(Sum("a1"), Sum("a2"), Sum("b1"),
                                 Sum("b2")).take_all()
    out_cols = {"treat_before_cents": "int64",
                "treat_after_cents": "int64",
                "ctrl_before_cents": "int64",
                "ctrl_after_cents": "int64", "did_cents": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    a1 = sum(int(r["sum(a1)"] or 0) for r in rows)
    a2 = sum(int(r["sum(a2)"] or 0) for r in rows)
    b1 = sum(int(r["sum(b1)"] or 0) for r in rows)
    b2 = sum(int(r["sum(b2)"] or 0) for r in rows)
    if a1 + a2 + b1 + b2 == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "treat_before_cents": a1, "treat_after_cents": a2,
        "ctrl_before_cents": b1, "ctrl_after_cents": b2,
        "did_cents": (a2 - a1) - (b2 - b1)}]).astype(out_cols)


def _q_rbo_rankings(sf_dir: str):
    """Rank-Biased Overlap (Webber et al.) between the brute-force
    and LSH ANN rankings per query, p = 0.9 truncated at depth 20,
    computed in EXACT rationals (fractions.Fraction) then floored to
    ppm -> (query_id, overlap_at_20, rbo_ppm).  The IR-grade ranking
    agreement metric beside rrf_fusion; rows-only (ANN isn't
    SQL-expressible), reference-parity tested."""
    from fractions import Fraction

    import pandas as pd

    from pdf_extract_ray.ops.similarity import (brute_force_topk,
                                                lsh_topk, min_k_rows)

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = min_k_rows(ds, "vec_id", 8)
    out_cols = {"query_id": "int64", "overlap_at_20": "int64",
                "rbo_ppm": "int64"}
    if q.num_rows == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    qids = [int(x) for x in q.column("vec_id").to_pylist()]
    qv = np.asarray(q.column("embedding").to_pylist(), np.float64)
    a = brute_force_topk(ds, qids, qv, k=20).to_pylist()
    b = lsh_topk(ds, qids, qv, dim=qv.shape[1], k=20).to_pylist()
    ra: dict = {}
    rb: dict = {}
    for r in a:
        ra.setdefault(int(r["query_id"]), []).append(
            (int(r["rank"]), int(r["neighbor_id"])))
    for r in b:
        rb.setdefault(int(r["query_id"]), []).append(
            (int(r["rank"]), int(r["neighbor_id"])))
    p_ = Fraction(9, 10)
    out = []
    for qid in sorted(set(ra) | set(rb)):
        la = [n for _, n in sorted(ra.get(qid, []))]
        lb = [n for _, n in sorted(rb.get(qid, []))]
        rbo = Fraction(0)
        sa: set = set()
        sb: set = set()
        depth = max(len(la), len(lb), 1)
        for d in range(1, depth + 1):
            if d <= len(la):
                sa.add(la[d - 1])
            if d <= len(lb):
                sb.add(lb[d - 1])
            rbo += (p_ ** (d - 1)) * Fraction(len(sa & sb), d)
        rbo *= (1 - p_)
        out.append({"query_id": qid,
                    "overlap_at_20": len(sa & sb),
                    "rbo_ppm": int(rbo * 1_000_000)})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame(out).astype(out_cols)



def _q_curriculum_order(sf_dir: str):
    """Curriculum training order: docs bucket by difficulty proxy
    (length, 64 fixed-width buckets) and interleave round-robin —
    epoch_pos = (rank_within_bucket - 1) * 64 + bucket, rank by
    doc_id within bucket -> (doc_id, bucket, epoch_pos).  Every epoch
    sees difficulties uniformly early instead of length-sorted.

    Scale shape: ONE bucket-keyed partition pass; rank-within-bucket
    is a sort inside the owning partition (64 buckets — the
    partition count IS the bucket count; stride interleave needs no
    global pass)."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()),
                           -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"bucket": pa.array(np.minimum(ch // 16, 63)),
                         "did": pa.array(did)})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "bucket": "int64",
                "epoch_pos": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        out = []
        for bkt, sub in df.groupby("bucket", sort=False):
            did = np.sort(sub["did"].to_numpy(np.int64))
            out.append(pd.DataFrame({
                "doc_id": did, "bucket": int(bkt),
                "epoch_pos": np.arange(len(did), dtype=np.int64)
                * 64 + int(bkt)}))
        return pd.concat(out, ignore_index=True).astype(cols)

    return _grouped_by_partition(ds.map_batches(
        prep, batch_format="pyarrow"), ["bucket"], resolve,
        n_parts=32)


def _q_negative_sampling_table(sf_dir: str):
    """word2vec-style negative-sampling table with sublinear damping:
    per vocabulary term, weight = floor(sqrt(tf)) (exact — tf is far
    below the double-precision sqrt exactness bound) and the
    cumulative weight in lexicographic term order (the inverse-CDF
    lookup a sampler binary-searches) -> (term, tf, weight,
    cum_weight).

    Scale shape: vocab-domain groupby (the tfidf envelope); the
    cumulative scan runs over the tiny sorted vocab driver-side."""
    import collections
    import math

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["text"])

    def tf_partial(b: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for t in b.column("text").to_pylist():
            c.update(w for w in (t or "").split(" ") if w)
        ks = list(c.keys())
        return pa.table({"term": pa.array(ks, pa.string()),
                         "n": pa.array([c[k] for k in ks],
                                       pa.int64())})

    rows = ds.map_batches(tf_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("n")).take_all()
    out_cols = {"term": "object", "tf": "int64", "weight": "int64",
                "cum_weight": "int64"}
    num = {k: "int64" for k in ("tf", "weight", "cum_weight")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    vocab = sorted((r["term"], int(r["sum(n)"])) for r in rows)
    out, cum = [], 0
    for term, tf in vocab:
        w = math.isqrt(tf)
        cum += w
        out.append({"term": term, "tf": tf, "weight": w,
                    "cum_weight": cum})
    return pd.DataFrame(out).astype(num)


def _q_user_last3_types(sf_dir: str):
    """Bounded per-key state snapshot (the feature-store "last K
    actions" pattern): each user's 3 most recent event types joined
    newest-first with '>' -> (user_id, n_events, last3).

    Scale shape: ONE user-keyed partition pass; the tail-3 selection
    is a vectorized per-user slice, and only 3 types per user ever
    leave the partition."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": "int64", "n_events": "int64",
                "last3": "object"}
        df = df[df["ts_us"].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"user_id": "int64", "n_events": "int64"})
        df = df.sort_values(["user_id", "ts_us", "eid"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        # per-user tail-3 newest-first, fully vectorized: position
        # from the END of each user's run
        n = len(u)
        idx = np.arange(n)
        last_of_user = np.ones(n, bool)
        last_of_user[:-1] = u[:-1] != u[1:]
        end_idx = np.minimum.accumulate(
            np.where(last_of_user, idx, n)[::-1])[::-1]
        from_end = end_idx - idx
        counts = pd.Series(1, index=u).groupby(level=0,
                                               sort=False).sum()
        keep = from_end < 3
        sub = pd.DataFrame({"u": u[keep], "fe": from_end[keep],
                            "et": et[keep]}) \
            .sort_values(["u", "fe"], kind="stable")
        agg = sub.groupby("u", sort=False)["et"] \
            .agg(lambda x: ">".join(x))
        return pd.DataFrame({
            "user_id": agg.index.to_numpy(np.int64),
            "n_events": counts.reindex(agg.index)
            .to_numpy(np.int64),
            "last3": agg.to_numpy(object)}).astype(cols)

    return _grouped_by_partition(ds.map_batches(
        prep, batch_format="pyarrow"), ["user_id"], resolve,
        n_parts=32)



def _q_theil_sen_slope(sf_dir: str):
    """Theil-Sen robust slope of token count vs n_chars over a
    deterministic md5 doc sample (nibble '0'-'3', ~25%): median of
    pairwise slopes, slope_milli = trunc((dy*1000)/dx) so the median
    is an integer order statistic both engines agree on (index
    (n-1)//2 in (slope, i, j) order) -> one row (n_sample, n_pairs,
    slope_milli).

    Scale shape: the sample gate is map-side; the O(sample^2) pair
    enumeration is the documented bounded-pair kernel (sample size
    is fixed by the hash gate, independent of corpus size)."""
    import hashlib

    import pandas as pd

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.asarray(
            [hashlib.md5(str(int(x)).encode()).hexdigest()[0] < "4"
             for x in did], bool)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        toks = np.asarray(
            [len([w for w in (t or "").split(" ") if w])
             for t, k in zip(b.column("text").to_pylist(), keep)
             if k], np.int64)
        return pa.table({"did": pa.array(did[keep]),
                         "ch": pa.array(ch), "tok": pa.array(toks)})

    rows = sorted(ds.map_batches(prep, batch_format="pyarrow")
                  .take_all(), key=lambda r: int(r["did"]))
    out_cols = {"n_sample": "int64", "n_pairs": "int64",
                "slope_milli": "int64"}
    n = len(rows)
    if n < 2:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    ch = np.asarray([int(r["ch"]) for r in rows], np.int64)
    tok = np.asarray([int(r["tok"]) for r in rows], np.int64)
    ii, jj = np.triu_indices(n, k=1)
    dx = ch[jj] - ch[ii]
    ok = dx != 0
    ii, jj, dx = ii[ok], jj[ok], dx[ok]
    dy = tok[jj] - tok[ii]
    num = dy * 1000
    slope = np.sign(num) * np.sign(dx) * (np.abs(num) // np.abs(dx))
    order = np.lexsort((jj, ii, slope))
    k = (len(slope) - 1) // 2
    return pd.DataFrame([{
        "n_sample": n, "n_pairs": int(len(slope)),
        "slope_milli": int(slope[order[k]])}]).astype(out_cols)


def _q_candidate_key_audit(sf_dir: str):
    """Candidate-key discovery (the schema-profiling primitive): for
    every non-empty subset of {lang, source, n_chars}, does the
    combination uniquely identify a document? -> (key_set,
    n_distinct, n_rows, is_key).

    Scale shape: ONE scan emits per-batch DISTINCT combos per subset
    (all three domains are bounded, so partials are combo-domain
    sized); one (subset, combo) groupby counts each combo once."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents",
               columns=["lang", "source", "n_chars"])
    SUBS = ("lang", "source", "n_chars", "lang+source",
            "lang+n_chars", "source+n_chars", "lang+source+n_chars")

    def prep(b: pa.Table) -> pa.Table:
        lang = pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                            "").to_numpy(zero_copy_only=False)
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64) \
            .astype(str)
        parts = {"lang": lang, "source": src, "n_chars": ch}
        ks, combos, ns = [], [], []
        df = pd.DataFrame(parts)
        df["n"] = 1
        for sub in SUBS:
            cols = sub.split("+")
            combo = df[cols[0]].astype(str)
            for c in cols[1:]:
                combo = combo + "|" + df[c].astype(str)
            g = pd.DataFrame({"c": combo, "n": 1}) \
                .groupby("c", sort=False, as_index=False).sum()
            ks.extend([sub] * len(g))
            combos.extend(g["c"].tolist())
            ns.extend(g["n"].tolist())
        return pa.table({"key_set": pa.array(ks, pa.string()),
                         "combo": pa.array(combos, pa.string()),
                         "n": pa.array(np.asarray(ns, np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["key_set", "combo"]).aggregate(Sum("n")) \
        .take_all()
    out_cols = {"key_set": "object", "n_distinct": "int64",
                "n_rows": "int64", "is_key": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    agg: dict = {}
    for r in rows:
        d, n = agg.get(r["key_set"], (0, 0))
        agg[r["key_set"]] = (d + 1, n + int(r["sum(n)"]))
    out = [{"key_set": ks, "n_distinct": d, "n_rows": n,
            "is_key": 1 if d == n else 0}
           for ks, (d, n) in sorted(agg.items())]
    return pd.DataFrame(out).astype(num)


def _q_source_cover_greedy(sf_dir: str):
    """Greedy set cover: pick sources in order of marginal new-vocab
    gain until 90% of the corpus vocabulary is covered (ties ->
    source asc) -> (pick_order, source, gained_terms, cum_terms).
    The data-sourcing decision "which feeds buy the most vocabulary"
    — greedy is the canonical 1-1/e approximation.  Rows-only (the
    iterative greedy isn't SQL-expressible); reference-parity
    tested.

    Scale shape: ONE (source, term) distinct groupby bounds the
    exchange at vocab x sources; the greedy loop runs on that small
    table driver-side."""
    import collections

    import pandas as pd
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def prep(b: pa.Table) -> pa.Table:
        pairs = set()
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        for s_, t in zip(src, b.column("text").to_pylist()):
            for w in (t or "").split(" "):
                if w:
                    pairs.add((s_, w))
        return pa.table({
            "source": pa.array([p[0] for p in pairs], pa.string()),
            "term": pa.array([p[1] for p in pairs], pa.string())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["source", "term"]).aggregate(Count()).take_all()
    out_cols = {"pick_order": "int64", "source": "object",
                "gained_terms": "int64", "cum_terms": "int64"}
    num = {k: "int64" for k in ("pick_order", "gained_terms",
                                "cum_terms")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    vocab_of: dict = collections.defaultdict(set)
    all_terms = set()
    for r in rows:
        vocab_of[r["source"]].add(r["term"])
        all_terms.add(r["term"])
    target = (len(all_terms) * 90 + 99) // 100
    covered: set = set()
    out = []
    remaining = dict(vocab_of)
    order = 0
    while len(covered) < target and remaining:
        pick = max(sorted(remaining),
                   key=lambda s_: (len(remaining[s_] - covered),))
        gain = len(remaining[pick] - covered)
        if gain == 0:
            break
        order += 1
        covered |= remaining.pop(pick)
        out.append({"pick_order": order, "source": pick,
                    "gained_terms": gain, "cum_terms": len(covered)})
    return pd.DataFrame(out).astype(num)



def _q_markov_entropy_rate(sf_dir: str):
    """Entropy rate of the event stream, H(next | current), from the
    oracled transition matrix — per-(src,dst) contribution
    floor(1e6 * (c/T) * ln(tot_src/c)) in ppm (every term
    non-negative; the nation_theil double->floor construction) ->
    one row (n_transitions, n_states, entropy_rate_ppm).  The
    sequence-predictability ceiling that markov_next_accuracy is
    benchmarked against.

    Scale shape: the distributed work is type_transitions; the ppm
    fold runs on the alphabet^2 matrix driver-side."""
    import math

    import pandas as pd

    from pdf_extract_ray.ops.events import type_transitions

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    tr = type_transitions(ds).take_all()
    out_cols = {"n_transitions": "int64", "n_states": "int64",
                "entropy_rate_ppm": "int64"}
    if not tr:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    tot: dict = {}
    for r in tr:
        tot[r["from_type"]] = tot.get(r["from_type"], 0) \
            + int(r["n_pairs"])
    T = sum(tot.values())
    h = sum(math.floor(1_000_000 * (int(r["n_pairs"]) / T)
                       * math.log(tot[r["from_type"]]
                                  / int(r["n_pairs"])))
            for r in tr)
    states = {r["from_type"] for r in tr} | {r["to_type"] for r in tr}
    return pd.DataFrame([{
        "n_transitions": T, "n_states": len(states),
        "entropy_rate_ppm": h}]).astype(out_cols)


def _q_simpson_flip_report(sf_dir: str):
    """Simpson's-paradox detector for the chars-tokens relation: the
    covariance-numerator SIGN (n*sxy - sx*sy, EXACT integers — no
    sqrt needed for a sign) overall and per source, with a flip flag
    where a source's sign opposes the pooled sign ->
    (scope, n, cov_sign, flips_overall).

    Scale shape: ONE scan, per-batch (source + overall) moment
    partials, one bounded groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "text",
                                             "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        x = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.asarray(
            [0 if not (t or "") else (t.count(" ") + 1)
             for t in b.column("text").to_pylist()], np.int64)
        df = pd.DataFrame({"scope": src, "n": 1, "sx": x, "sy": y,
                           "sxy": x * y})
        g = df.groupby("scope", sort=False, as_index=False).sum()
        o = pd.DataFrame([{"scope": "", "n": len(x),
                           "sx": int(x.sum()), "sy": int(y.sum()),
                           "sxy": int((x * y).sum())}])
        g = pd.concat([g, o], ignore_index=True)
        return pa.table({
            "scope": pa.array(g["scope"].to_numpy(object),
                              pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "sx": pa.array(g["sx"].to_numpy(np.int64)),
            "sy": pa.array(g["sy"].to_numpy(np.int64)),
            "sxy": pa.array(g["sxy"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("scope").aggregate(Sum("n"), Sum("sx"), Sum("sy"),
                                    Sum("sxy")).take_all()
    out_cols = {"scope": "object", "n": "int64", "cov_sign": "int64",
                "flips_overall": "int64"}
    num = {k: "int64" for k in ("n", "cov_sign", "flips_overall")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    stats = {}
    for r in rows:
        n = int(r["sum(n)"])
        num_ = n * int(r["sum(sxy)"]) \
            - int(r["sum(sx)"]) * int(r["sum(sy)"])
        stats[r["scope"]] = (n, 0 if num_ == 0
                             else (1 if num_ > 0 else -1))
    overall = stats.get("", (0, 0))[1]
    out = [{"scope": "overall" if sc == "" else sc, "n": st[0],
            "cov_sign": st[1],
            "flips_overall": 1 if sc != "" and st[1] != 0
            and overall != 0 and st[1] != overall else 0}
           for sc, st in sorted(stats.items())]
    return pd.DataFrame(out).astype(num)


def _q_churn_training_set(sf_dir: str):
    """Labeled churn dataset builder — the feature+label join every
    supervised pipeline starts from: per user (n_events, first_day,
    last_day, active_days) with label churned = 1 when the user's
    last activity is >= 14 days before the corpus's last day ->
    (user_id, n_events, first_day, last_day, churned).

    Scale shape: pass 1 = global max day (tiny all-reduce); pass 2 =
    user-domain groupby of per-batch fold partials."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        d = (np.where(ok, ts, 0) // DAY)[ok]
        g = pd.DataFrame({"u": u, "n": 1, "f": d, "l": d}) \
            .groupby("u", sort=False, as_index=False) \
            .agg(n=("n", "sum"), f=("f", "min"), l=("l", "max"))
        return pa.table({"u": pa.array(g["u"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "f": pa.array(g["f"].to_numpy(np.int64)),
                         "l": pa.array(g["l"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("u").aggregate(Sum("n"), Min("f"), Max("l")) \
        .take_all()
    out_cols = {"user_id": "int64", "n_events": "int64",
                "first_day": "int64", "last_day": "int64",
                "churned": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    max_day = max(int(r["max(l)"]) for r in rows)
    out = [{"user_id": int(r["u"]), "n_events": int(r["sum(n)"]),
            "first_day": int(r["min(f)"]),
            "last_day": int(r["max(l)"]),
            "churned": 1 if max_day - int(r["max(l)"]) >= 14 else 0}
           for r in rows]
    return pd.DataFrame(out).astype(out_cols)



def _q_source_weighted_jaccard(sf_dir: str):
    """Weighted (min/max) Jaccard between source term-frequency
    vectors — the multiset refinement of source_vocab_jaccard:
    J_w = sum(min(a_t, b_t)) / sum(max(a_t, b_t)) over the joint
    vocabulary, EXACT integers -> (source_a, source_b, min_sum,
    max_sum, wj_ppm) for every unordered pair.

    Scale shape: ONE vocab-domain (source, term) groupby; the
    pairwise fold runs on the tiny sources x vocab matrix
    driver-side (sources are an alphabet, not a row domain)."""
    import collections

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def prep(b: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        for s_, t in zip(src, b.column("text").to_pylist()):
            for w in (t or "").split(" "):
                if w:
                    c[(s_, w)] += 1
        ks = list(c.keys())
        return pa.table({
            "source": pa.array([k[0] for k in ks], pa.string()),
            "term": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([c[k] for k in ks], pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["source", "term"]).aggregate(Sum("n")).take_all()
    out_cols = {"source_a": "object", "source_b": "object",
                "min_sum": "int64", "max_sum": "int64",
                "wj_ppm": "int64"}
    num = {k: "int64" for k in ("min_sum", "max_sum", "wj_ppm")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    vocab = sorted({r["term"] for r in rows})
    widx = {w: i for i, w in enumerate(vocab)}
    sources = sorted({r["source"] for r in rows})
    mat = np.zeros((len(sources), len(vocab)), np.int64)
    sidx = {s_: i for i, s_ in enumerate(sources)}
    for r in rows:
        mat[sidx[r["source"]], widx[r["term"]]] = int(r["sum(n)"])
    out = []
    for i, a in enumerate(sources):
        for j in range(i + 1, len(sources)):
            mn = int(np.minimum(mat[i], mat[j]).sum())
            mx = int(np.maximum(mat[i], mat[j]).sum())
            out.append({"source_a": a, "source_b": sources[j],
                        "min_sum": mn, "max_sum": mx,
                        "wj_ppm": (mn * 1_000_000) // mx
                        if mx > 0 else 0})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_seasonal_index(sf_dir: str):
    """Month-of-year seasonality index: each calendar month's revenue
    against a uniform-month baseline, index_ppm = rev_m * 12 * 1e6 //
    total -> (month_of_year, n_orders, revenue_cents, index_ppm).
    1e6 = perfectly average month.

    Scale shape: pure map-side 12-bucket fold, one bounded groupby."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.cast(b.column("o_orderdate"), pa.date32()),
                    pa.int32()).to_numpy(zero_copy_only=False)
        moy = pd.Series(d.astype("datetime64[D]")).dt.month \
            .to_numpy(np.int64)
        cents = np.rint(b.column("o_totalprice")
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pd.DataFrame({"m": moy, "n": 1, "c": cents}) \
            .groupby("m", sort=False, as_index=False).sum()
        return pa.table({"m": pa.array(g["m"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("m").aggregate(Sum("n"), Sum("c")).take_all()
    out_cols = {"month_of_year": "int64", "n_orders": "int64",
                "revenue_cents": "int64", "index_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    total = sum(int(r["sum(c)"]) for r in rows)
    out = [{"month_of_year": int(r["m"]),
            "n_orders": int(r["sum(n)"]),
            "revenue_cents": int(r["sum(c)"]),
            "index_ppm": (int(r["sum(c)"]) * 12 * 1_000_000) // total
            if total > 0 else 0} for r in rows]
    return pd.DataFrame(out).astype(out_cols)


def _q_fold_balance_report(sf_dir: str):
    """Cross-validation fold balance audit: docs hash into 5 md5
    folds; per (fold, lang) the fold-local share vs the corpus share
    and the absolute deviation -> (fold, lang, n_docs,
    fold_share_ppm, global_share_ppm, dev_ppm).  The stratification
    sanity check before trusting CV estimates.

    Scale shape: ONE (fold, lang) bounded groupby of map-side
    partials; shares resolve on the 5 x |langs| table."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lang = pc.fill_null(pc.cast(b.column("lang"), pa.string()),
                            "und").to_numpy(zero_copy_only=False)
        fold = np.asarray(
            [int(hashlib.md5(str(int(x)).encode()).hexdigest()[:8],
                 16) % 5 for x in did], np.int64)
        g = pd.DataFrame({"fold": fold, "lang": lang, "n": 1}) \
            .groupby(["fold", "lang"], sort=False,
                     as_index=False).sum()
        return pa.table({
            "fold": pa.array(g["fold"].to_numpy(np.int64)),
            "lang": pa.array(g["lang"].to_numpy(object),
                             pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["fold", "lang"]).aggregate(Sum("n")).take_all()
    out_cols = {"fold": "int64", "lang": "object", "n_docs": "int64",
                "fold_share_ppm": "int64", "global_share_ppm": "int64",
                "dev_ppm": "int64"}
    num = {k: "int64" for k in out_cols if k != "lang"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    M = 1_000_000
    fold_tot: dict = {}
    lang_tot: dict = {}
    for r in rows:
        fold_tot[int(r["fold"])] = fold_tot.get(int(r["fold"]), 0) \
            + int(r["sum(n)"])
        lang_tot[r["lang"]] = lang_tot.get(r["lang"], 0) \
            + int(r["sum(n)"])
    N = sum(fold_tot.values())
    out = []
    for r in rows:
        f, l_, n = int(r["fold"]), r["lang"], int(r["sum(n)"])
        fs = (n * M) // fold_tot[f]
        gs = (lang_tot[l_] * M) // N
        out.append({"fold": f, "lang": l_, "n_docs": n,
                    "fold_share_ppm": fs, "global_share_ppm": gs,
                    "dev_ppm": abs(fs - gs)})
    return pd.DataFrame(out).astype(num)



def _q_daily_acf(sf_dir: str):
    """Autocorrelation function of the daily event-count series at
    lags 1..7, EXACT integer cross-products: acf_ppm(k) =
    trunc(1e6 * n_k*sum(xy) - sums... computed as the centered
    cross-product ratio with truncating signed division ->
    (lag, n_pairs, acf_ppm).  The seasonality probe feeding the lag
    scan (type_lag_xcorr) and burstiness ops.

    Scale shape: ONE bounded day-domain groupby; the 7-lag fold runs
    on the tiny day table."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.drop_null(pc.cast(ts_col, pa.int64())) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.Series(1, index=ts // DAY).groupby(level=0,
                                                  sort=False).sum()
        return pa.table({"d": pa.array(g.index.to_numpy(np.int64)),
                         "n": pa.array(g.to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("d").aggregate(Sum("n")).take_all()
    out_cols = {"lag": "int64", "n_pairs": "int64",
                "acf_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    cnt = {int(r["d"]): int(r["sum(n)"]) for r in rows}
    days = range(min(cnt), max(cnt) + 1)
    x = np.asarray([cnt.get(d, 0) for d in days], np.int64)
    M = 1_000_000
    out = []
    for k in range(1, 8):
        if len(x) <= k:
            break
        a, b_ = x[:-k], x[k:]
        n = len(a)
        num = n * int((a * b_).sum()) - int(a.sum()) * int(b_.sum())
        va = n * int((a * a).sum()) - int(a.sum()) ** 2
        vb = n * int((b_ * b_).sum()) - int(b_.sum()) ** 2
        den2 = va * vb
        if den2 <= 0:
            acf = 0
        else:
            import math
            den = math.floor(math.sqrt(den2))
            acf = (abs(num) * M // den) * (1 if num >= 0 else -1) \
                if den > 0 else 0
        out.append({"lag": k, "n_pairs": n, "acf_ppm": acf})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame(out).astype(out_cols)


def _q_daily_peaks(sf_dir: str):
    """Peak detection on the gap-filled daily event-count series:
    days strictly above both neighbors -> one row (n_days, n_peaks,
    top_day, top_count); top breaks ties to the earliest day.

    Scale shape: day-domain groupby; peak scan on the tiny series."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.drop_null(pc.cast(ts_col, pa.int64())) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.Series(1, index=ts // DAY).groupby(level=0,
                                                  sort=False).sum()
        return pa.table({"d": pa.array(g.index.to_numpy(np.int64)),
                         "n": pa.array(g.to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("d").aggregate(Sum("n")).take_all()
    out_cols = {"n_days": "int64", "n_peaks": "int64",
                "top_day": "int64", "top_count": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    cnt = {int(r["d"]): int(r["sum(n)"]) for r in rows}
    days = list(range(min(cnt), max(cnt) + 1))
    x = np.asarray([cnt.get(d, 0) for d in days], np.int64)
    if len(x) >= 3:
        peaks = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
        n_peaks = int(peaks.sum())
    else:
        n_peaks = 0
    top_i = int(np.argmax(x))  # first max = earliest day
    return pd.DataFrame([{
        "n_days": len(x), "n_peaks": n_peaks,
        "top_day": days[top_i], "top_count": int(x[top_i])}]) \
        .astype(out_cols)


def _q_elasticity_by_brand(sf_dir: str):
    """Discount-quantity response by brand (price-elasticity proxy):
    Pearson correlation of (discount_c2, quantity) per p_brand from
    EXACT integer moments — the double division and sqrt are the only
    float steps (bit-identical cross-engine, the
    source_chars_token_corr construction) -> (brand, n_items,
    corr_dq).

    Scale shape: the part dim broadcasts (ray.put); lineitem folds
    map-side per brand; one brand-domain groupby."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    brand_of = {int(r["p_partkey"]): r["p_brand"]
                for r in _read(sf_dir, "part",
                               columns=["p_partkey", "p_brand"])
                .take_all()}
    brand_ref = ray.put(brand_of)
    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_discount", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        bo = ray.get(brand_ref)
        pk = pc.fill_null(pc.cast(b.column("l_partkey"), pa.int64()),
                          -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = np.rint(np.nan_to_num(
            b.column("l_discount").to_numpy(zero_copy_only=False)
            .astype(np.float64)) * 100).astype(np.int64)
        q = pc.fill_null(pc.cast(pc.round(
            pc.cast(b.column("l_quantity"), pa.float64())),
            pa.int64()), 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        brands = np.asarray([bo.get(int(k), "") for k in pk], object)
        df = pd.DataFrame({"brand": brands, "n": 1, "sx": d, "sy": q,
                           "sxx": d * d, "syy": q * q, "sxy": d * q})
        g = df.groupby("brand", sort=False, as_index=False).sum()
        cols = {"brand": pa.array(g["brand"].to_numpy(object),
                                  pa.string())}
        for c in ("n", "sx", "sy", "sxx", "syy", "sxy"):
            cols[c] = pa.array(g[c].to_numpy(np.int64))
        return pa.table(cols)

    aggs = [Sum(c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]
    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("brand").aggregate(*aggs).take_all()
    out_cols = {"brand": "object", "n_items": "int64",
                "corr_dq": "float64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {"n_items": "int64", "corr_dq": "float64"})
    import math
    out = []
    for r in rows:
        n = int(r["sum(n)"])
        sx, sy = int(r["sum(sx)"]), int(r["sum(sy)"])
        sxx, syy = int(r["sum(sxx)"]), int(r["sum(syy)"])
        sxy = int(r["sum(sxy)"])
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        if vx <= 0 or vy <= 0:
            continue
        out.append({"brand": r["brand"], "n_items": n,
                    "corr_dq": (n * sxy - sx * sy)
                    / (math.sqrt(vx) * math.sqrt(vy))})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {"n_items": "int64", "corr_dq": "float64"})
    return pd.DataFrame(out).astype(
        {"n_items": "int64", "corr_dq": "float64"})



def _q_session_type_lift(sf_dir: str):
    """Market-basket lift over SESSIONS (30-min inactivity islands):
    for each unordered event-type pair, the co-occurrence lift
    lift_ppm = N_sessions * n_ab * 1e6 // (n_a * n_b), exact
    integers -> (type_a, type_b, n_ab, lift_ppm).

    Scale shape: ONE user-keyed partition pass builds islands
    (vectorized gap cumsum) and emits LOCAL pair/type/session
    partials bounded by the type alphabet, never rows; one tiny
    keyed groupby merges; lift closes on the alphabet^2 table."""
    import itertools

    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    GAP = 1_800_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"kind": "int64", "a": "object", "b": "object",
                "n": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["user_id", "ts_us", "eid"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        brk = np.ones(len(u), np.int64)
        brk[1:] = ((u[1:] != u[:-1])
                   | (ts[1:] - ts[:-1] > GAP)).astype(np.int64)
        sid = np.cumsum(brk)
        st = pd.DataFrame({"sid": sid, "et": et}).drop_duplicates()
        out: dict = {}
        n_sess = int(st["sid"].nunique())
        out[(2, "", "")] = n_sess
        for e, c in st["et"].value_counts().items():
            out[(1, e, "")] = int(c)
        for _, grp in st.groupby("sid", sort=False):
            tys = sorted(grp["et"])
            for a, b_ in itertools.combinations(tys, 2):
                out[(0, a, b_)] = out.get((0, a, b_), 0) + 1
        rows = [{"kind": k[0], "a": k[1], "b": k[2], "n": v}
                for k, v in out.items()]
        return pd.DataFrame(rows).astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby(["kind", "a", "b"]).aggregate(Sum("n")).take_all()
    out_cols = {"type_a": "object", "type_b": "object",
                "n_ab": "int64", "lift_ppm": "int64"}
    num = {k: "int64" for k in ("n_ab", "lift_ppm")}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    N = sum(int(r["sum(n)"]) for r in rows if int(r["kind"]) == 2)
    ta = {r["a"]: int(r["sum(n)"]) for r in rows
          if int(r["kind"]) == 1}
    out = []
    for r in rows:
        if int(r["kind"]) != 0:
            continue
        a, b_, nab = r["a"], r["b"], int(r["sum(n)"])
        den = ta.get(a, 0) * ta.get(b_, 0)
        out.append({"type_a": a, "type_b": b_, "n_ab": nab,
                    "lift_ppm": (N * nab * 1_000_000) // den
                    if den > 0 else 0})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_decay_ess(sf_dir: str):
    """Effective sample size under the time-decay weights (Kish's
    formula): ESS = (sum w)^2 / sum w^2 over per-user decay scores,
    reported x100 with floor -> one row (n_users, sum_w, sum_w2,
    ess_x100).  "How many uniform users is this recency-weighted
    panel worth" — the weighting-scheme health check.

    Scale shape: reuses the decay_score fold (global-max anchor +
    user groupby); the Kish ratio closes on three counters."""
    import pandas as pd

    scores = _q_decay_score(sf_dir)
    if hasattr(scores, "to_pandas"):
        scores = scores.to_pandas()
    out_cols = {"n_users": "int64", "sum_w": "int64",
                "sum_w2": "int64", "ess_x100": "int64"}
    if len(scores) == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    w = scores["decay_score"].to_numpy(np.int64)
    sw = int(w.sum())
    sw2 = int((w * w).sum())
    if sw2 == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "n_users": len(w), "sum_w": sw, "sum_w2": sw2,
        "ess_x100": (sw * sw * 100) // sw2}]).astype(out_cols)


def _q_loso_mean_chars(sf_dir: str):
    """Leave-one-source-out sensitivity of mean doc length: for each
    source, the corpus mean in floor ppm WITHOUT that source and the
    signed delta vs the overall mean (truncating division mirrored)
    -> (source, n_excluded, mean_wo_ppm, delta_ppm).  "Which feed is
    dragging the average" — the per-source counterpart to the
    jackknife.

    Scale shape: ONE source-domain groupby of (n, sum) partials; the
    LOSO fold runs on the |sources| table."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"source": src, "n": 1, "s": ch}) \
            .groupby("source", sort=False, as_index=False).sum()
        return pa.table({
            "source": pa.array(g["source"].to_numpy(object),
                               pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n"), Sum("s")).take_all()
    out_cols = {"source": "object", "n_excluded": "int64",
                "mean_wo_ppm": "int64", "delta_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    N = sum(int(r["sum(n)"]) for r in rows)
    S = sum(int(r["sum(s)"]) for r in rows)
    if N == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    M = 1_000_000
    overall = (S * M) // N
    out = []
    for r in rows:
        n, s_ = int(r["sum(n)"]), int(r["sum(s)"])
        if N - n <= 0:
            continue
        mw = ((S - s_) * M) // (N - n)
        out.append({"source": r["source"], "n_excluded": n,
                    "mean_wo_ppm": mw, "delta_ppm": mw - overall})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)



def _q_gains_table_chars(sf_dir: str):
    """Cumulative-gains table (the model-eval lift curve): docs rank
    by score (n_chars desc, doc_id asc ties), split into 10 equal
    integer deciles (first r deciles get the remainder docs), label =
    lang == 'en' -> (decile, n, n_pos, cum_pos_ppm) where
    cum_pos_ppm is the share of ALL positives captured through that
    decile.

    Scale shape: rank comes from the value-domain histogram trick
    (no row sort): per-batch (chars, is_en) counts -> bounded
    groupby; decile boundaries + gains close on the value table —
    EXCEPT ties across a boundary, which the (value, doc_id) order
    resolves deterministically via per-value doc_id rank counts, so
    a second value-keyed pass is avoided by assigning each value run
    its doc-count split arithmetically."""
    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        en = pc.equal(pc.fill_null(pc.cast(b.column("lang"),
                                           pa.string()), "und"),
                      "en").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"v": ch, "d": did, "n": 1, "e": en}) \
            .groupby(["v", "d"], sort=False, as_index=False) \
            .agg(n=("n", "sum"), e=("e", "sum"))
        return pa.table({"v": pa.array(g["v"].to_numpy(np.int64)),
                         "d": pa.array(g["d"].to_numpy(np.int64)),
                         "n": pa.array(g["n"].to_numpy(np.int64)),
                         "e": pa.array(g["e"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["v", "d"]).aggregate(Sum("n"), Sum("e")).take_all()
    out_cols = {"decile": "int64", "n": "int64", "n_pos": "int64",
                "cum_pos_ppm": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    recs = sorted(((-int(r["v"]), int(r["d"]), int(r["sum(n)"]),
                    int(r["sum(e)"])) for r in rows))
    N = sum(n for _, _, n, _ in recs)
    # the oracle's WHERE nn >= 10 gate: deciles are undefined for
    # fewer than 10 docs — both engines emit the typed-empty frame
    if N < 10:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    P = sum(e for _, _, _, e in recs)
    base, rem = N // 10, N % 10
    sizes = [base + (1 if i < rem else 0) for i in range(10)]
    out, cum_pos, i_dec, left = [], 0, 0, sizes[0] if N else 0
    dn = dp = 0
    M = 1_000_000
    for _, _, n, e in recs:
        while n > 0:
            take = min(n, left)
            # positives split pro-rata is ill-defined for a (v, d)
            # unit of n > 1... but n is per (value, doc_id) = 1 doc
            dn += take
            dp += e if take == n else 0
            n -= take
            left -= take
            if left == 0 and i_dec < 9:
                cum_pos += dp
                out.append({"decile": i_dec + 1, "n": dn,
                            "n_pos": dp,
                            "cum_pos_ppm": (cum_pos * M) // P
                            if P > 0 else 0})
                i_dec += 1
                left = sizes[i_dec]
                dn = dp = 0
    if dn > 0 or (N > 0 and i_dec == 9):
        cum_pos += dp
        out.append({"decile": i_dec + 1, "n": dn, "n_pos": dp,
                    "cum_pos_ppm": (cum_pos * M) // P
                    if P > 0 else 0})
    return pd.DataFrame(out).astype(out_cols)


def _q_kmv_containment(sf_dir: str):
    """Asymmetric containment estimate from KMV sketches: how much of
    each event type's user set lies inside another's, estimated as
    (est_a + est_b - est_union) * 1e6 // est_a with the
    deterministic md5 bottom-64 sketches (the kmv_type_overlap
    machinery pointed at the DIRECTIONAL question) ->
    (type_a, type_b, est_a, est_containment_ppm) for every ordered
    pair.

    Scale shape: per-type bottom-k fold (map-side) -> driver merges
    k-sized sketches; no exact set ever materializes."""
    import hashlib

    import pandas as pd

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    K = 64
    M60 = 1 << 60

    def prep(b: pa.Table) -> pa.Table:
        et = pc.fill_null(pc.cast(b.column("event_type"),
                                  pa.string()), "") \
            .to_numpy(zero_copy_only=False)
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out_t, out_h = [], []
        df = pd.DataFrame({"t": et, "u": u}).drop_duplicates()
        for t, sub in df.groupby("t", sort=False):
            hv = np.sort(np.unique(np.asarray(
                [int(hashlib.md5(str(int(x)).encode())
                     .hexdigest()[:15], 16)
                 for x in sub["u"]], np.int64)))[:K]
            out_t.extend([t] * len(hv))
            out_h.extend(hv.tolist())
        return pa.table({"t": pa.array(out_t, pa.string()),
                         "h": pa.array(out_h, pa.int64())})

    sk: dict = {}
    for r in ds.map_batches(prep, batch_format="pyarrow") \
            .iter_rows():
        sk.setdefault(r["t"], set()).add(int(r["h"]))
    out_cols = {"type_a": "object", "type_b": "object",
                "est_a": "int64", "est_containment_ppm": "int64"}
    num = {k: "int64" for k in ("est_a", "est_containment_ppm")}
    if not sk:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    bott = {t: sorted(v)[:K] for t, v in sk.items()}

    def est(hv):
        return len(hv) if len(hv) < K else (K - 1) * M60 // hv[-1]

    out = []
    for a in sorted(bott):
        for b_ in sorted(bott):
            if a == b_:
                continue
            ea = est(bott[a])
            eb = est(bott[b_])
            u = sorted(set(bott[a]) | set(bott[b_]))[:K]
            eu = est(u)
            inter = max(ea + eb - eu, 0)
            out.append({"type_a": a, "type_b": b_, "est_a": ea,
                        "est_containment_ppm":
                        min((inter * 1_000_000) // ea, 1_000_000)
                        if ea > 0 else 0})
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_session_entry_exit(sf_dir: str):
    """Session entry->exit flow: each 30-min-inactivity session's
    first and last event type (ties by event_id), counted over all
    sessions -> (entry_type, exit_type, n_sessions).  The landing/
    bounce flow matrix of web analytics.

    Scale shape: ONE user-keyed partition pass (vectorized island
    cumsum + first/last selection); alphabet^2 groupby merges."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    GAP = 1_800_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"entry_type": "object", "exit_type": "object",
                "n": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["user_id", "ts_us", "eid"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        n = len(u)
        brk = np.ones(n, bool)
        brk[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > GAP)
        ends = np.zeros(n, bool)
        ends[:-1] = brk[1:]
        ends[-1] = True
        entry = et[brk]
        exit_ = et[ends]
        g = pd.DataFrame({"entry_type": entry, "exit_type": exit_,
                          "n": 1}) \
            .groupby(["entry_type", "exit_type"], sort=False,
                     as_index=False).sum()
        return g.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby(["entry_type", "exit_type"]).aggregate(Sum("n")) \
        .take_all()
    out_cols = {"entry_type": "object", "exit_type": "object",
                "n_sessions": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(
            {"n_sessions": "int64"})
    return pd.DataFrame([{
        "entry_type": r["entry_type"], "exit_type": r["exit_type"],
        "n_sessions": int(r["sum(n)"])} for r in rows]) \
        .astype({"n_sessions": "int64"})



def _q_conformal_coverage(sf_dir: str):
    """Coverage check closing the conformal story: with the
    per-source mean and q90 halfwidth from the calibration split
    (the conformal_chars_interval construction), what fraction of
    TRAIN docs fall inside mean +/- q90? -> (source, n_train,
    n_inside, coverage_ppm).  A well-calibrated interval reports
    near 900000.

    Scale shape: the interval table is |sources| rows (broadcast in
    the closure); coverage is one map-side count pass."""
    import pandas as pd
    from ray.data.aggregate import Sum

    iv = _q_conformal_chars_interval(sf_dir)
    out_cols = {"source": "object", "n_train": "int64",
                "n_inside": "int64", "coverage_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if len(iv) == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    bands = {r["source"]: (int(r["mean_ppm"]),
                           int(r["q90_resid_ppm"]))
             for _, r in iv.iterrows()}

    import hashlib

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])
    M = 1_000_000

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        src = pc.fill_null(pc.cast(b.column("source"), pa.string()),
                           "").to_numpy(zero_copy_only=False)
        ch = pc.fill_null(pc.cast(b.column("n_chars"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        train = np.asarray(
            [hashlib.md5(str(int(x)).encode()).hexdigest()[0] >= "4"
             for x in did], bool)
        keep = train & np.asarray([s_ in bands for s_ in src], bool)
        src, ch = src[keep], ch[keep]
        mu = np.asarray([bands[s_][0] for s_ in src], np.int64)
        q = np.asarray([bands[s_][1] for s_ in src], np.int64)
        inside = (np.abs(ch * M - mu) <= q).astype(np.int64)
        g = pd.DataFrame({"source": src, "n": 1, "i": inside}) \
            .groupby("source", sort=False, as_index=False).sum()
        return pa.table({
            "source": pa.array(g["source"].to_numpy(object),
                               pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "i": pa.array(g["i"].to_numpy(np.int64))})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("n"), Sum("i")).take_all()
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = [{"source": r["source"], "n_train": int(r["sum(n)"]),
            "n_inside": int(r["sum(i)"]),
            "coverage_ppm": (int(r["sum(i)"]) * M)
            // int(r["sum(n)"])} for r in rows
           if int(r["sum(n)"]) > 0]
    return pd.DataFrame(out).astype(num)


def _q_stable_top_words(sf_dir: str):
    """Cross-fold vocabulary stability: the words present in EVERY
    md5 fold's top-20 by term frequency (ties word asc) ->
    (word, n_folds, min_rank, max_rank).  Feature-selection
    robustness — a word that tops only one fold is noise.

    Scale shape: (fold, term) counts are one vocab-domain groupby;
    per-fold top-20 and the intersection run on the tiny fold x
    vocab table."""
    import collections
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(b: pa.Table) -> pa.Table:
        did = pc.fill_null(pc.cast(b.column("doc_id"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        c: collections.Counter = collections.Counter()
        for i, t in zip(did, b.column("text").to_pylist()):
            fold = int(hashlib.md5(str(int(i)).encode())
                       .hexdigest()[:8], 16) % 5
            for w in (t or "").split(" "):
                if w:
                    c[(fold, w)] += 1
        ks = list(c.keys())
        return pa.table({
            "fold": pa.array([k[0] for k in ks], pa.int64()),
            "term": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([c[k] for k in ks], pa.int64())})

    rows = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["fold", "term"]).aggregate(Sum("n")).take_all()
    out_cols = {"word": "object", "n_folds": "int64",
                "min_rank": "int64", "max_rank": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    per_fold: dict = {}
    for r in rows:
        per_fold.setdefault(int(r["fold"]), []).append(
            (-int(r["sum(n)"]), r["term"]))
    n_folds = len(per_fold)
    ranks: dict = {}
    for f, lst in per_fold.items():
        for rank, (_, w) in enumerate(sorted(lst)[:20], 1):
            ranks.setdefault(w, {})[f] = rank
    out = [{"word": w, "n_folds": len(fr),
            "min_rank": min(fr.values()),
            "max_rank": max(fr.values())}
           for w, fr in sorted(ranks.items())
           if len(fr) == n_folds]
    if not out:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    return pd.DataFrame(out).astype(num)


def _q_session_conversion_by_entry(sf_dir: str):
    """Funnel economics by landing action: of sessions ENTERING with
    each type, how many contain a purchase -> (entry_type,
    n_sessions, n_converted, conversion_ppm).

    Scale shape: the session_entry_exit island pass, extended with a
    per-session any-purchase flag (segmented maximum, no per-session
    loop)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    GAP = 1_800_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        return pa.table({
            "user_id": pc.fill_null(pc.cast(b.column("user_id"),
                                            pa.int64()), -1),
            "ts_us": pc.cast(ts_col, pa.int64()),
            "eid": pc.fill_null(pc.cast(b.column("event_id"),
                                        pa.int64()), -1),
            "et": pc.fill_null(pc.cast(b.column("event_type"),
                                       pa.string()), "")})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"entry_type": "object", "n": "int64", "c": "int64"}
        df = df[df["ts_us"].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["user_id", "ts_us", "eid"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        et = df["et"].to_numpy(object)
        n = len(u)
        brk = np.ones(n, bool)
        brk[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > GAP)
        sid = np.cumsum(brk)
        is_p = (et == "purchase").astype(np.int64)
        conv = pd.Series(is_p).groupby(sid, sort=False).max() \
            .to_numpy(np.int64)
        entry = et[brk]
        g = pd.DataFrame({"entry_type": entry, "n": 1, "c": conv}) \
            .groupby("entry_type", sort=False, as_index=False).sum()
        return g.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby("entry_type").aggregate(Sum("n"), Sum("c")) \
        .take_all()
    out_cols = {"entry_type": "object", "n_sessions": "int64",
                "n_converted": "int64", "conversion_ppm": "int64"}
    num = {k: "int64" for k in list(out_cols)[1:]}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(num)
    out = [{"entry_type": r["entry_type"],
            "n_sessions": int(r["sum(n)"]),
            "n_converted": int(r["sum(c)"]),
            "conversion_ppm": (int(r["sum(c)"]) * 1_000_000)
            // int(r["sum(n)"])} for r in rows]
    return pd.DataFrame(out).astype(num)





def _q_dau_new_returning(sf_dir: str):
    """New-vs-returning split of daily active users: a user is NEW on
    their first active day, RETURNING on every later active day ->
    (day, n_new, n_returning).  The growth-mix readout beside
    user_growth_curve.

    Scale shape: ONE user-keyed partition pass (each user's min day
    is local to its partition) emits per-day partials; a day-domain
    groupby merges."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    DAY = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        d = (np.where(ok, ts, 0) // DAY)[ok]
        g = pd.DataFrame({"user_id": u, "d": d}).drop_duplicates()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "d": pa.array(g["d"].to_numpy(np.int64))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"d": "int64", "nn": "int64", "nr": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.drop_duplicates()
        first = df.groupby("user_id", sort=False)["d"] \
            .transform("min")
        new = (df["d"] == first).astype(np.int64)
        g = pd.DataFrame({"d": df["d"].to_numpy(np.int64),
                          "nn": new.to_numpy(np.int64),
                          "nr": 1 - new.to_numpy(np.int64)}) \
            .groupby("d", sort=False, as_index=False).sum()
        return g.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32) \
        .groupby("d").aggregate(Sum("nn"), Sum("nr")).take_all()
    out_cols = {"day": "int64", "n_new": "int64",
                "n_returning": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame([{
        "day": int(r["d"]), "n_new": int(r["sum(nn)"]),
        "n_returning": int(r["sum(nr)"])} for r in rows]) \
        .astype(out_cols)


def _q_user_hour_entropy(sf_dir: str):
    """Routine-ness: Shannon entropy of each user's hour-of-day
    histogram, per-TERM floor-ppm (order-independent, unlike the
    float-sum-then-floor family) -> (user_id, n_events, n_hours,
    entropy_ppm).  Low entropy = a user who always shows up at the
    same hours.

    Scale shape: ONE user-keyed partition pass; terms vectorize over
    the whole (user, hour) count frame — no per-user loop."""
    import pandas as pd

    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    H = 3_600_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts_col = b.column("ts")
        if pa.types.is_timestamp(ts_col.type):
            ts_col = pc.cast(ts_col, pa.timestamp("us"))
        ts = pc.cast(ts_col, pa.int64()).to_numpy(
            zero_copy_only=False)
        ok = ~pd.isna(b.column("ts").to_pandas()).to_numpy()
        u = pc.fill_null(pc.cast(b.column("user_id"), pa.int64()),
                         -1).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[ok]
        hod = ((np.where(ok, ts, 0) // H) % 24)[ok]
        g = pd.DataFrame({"user_id": u, "h": hod, "n": 1}) \
            .groupby(["user_id", "h"], sort=False,
                     as_index=False).sum()
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(np.int64)),
            "h": pa.array(g["h"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": "int64", "n_events": "int64",
                "n_hours": "int64", "entropy_ppm": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = df.groupby(["user_id", "h"], sort=False,
                       as_index=False)["n"].sum()
        tot = g.groupby("user_id", sort=False)["n"] \
            .transform("sum").to_numpy(np.int64)
        o = g["n"].to_numpy(np.int64)
        p_ = o / tot
        term = np.floor(1_000_000 * (-p_ * np.log(p_))) \
            .astype(np.int64)
        out = pd.DataFrame({"user_id": g["user_id"], "n_events": o,
                            "n_hours": 1, "entropy_ppm": term}) \
            .groupby("user_id", sort=False, as_index=False).sum()
        return out.astype(cols)

    rows = _grouped_by_partition(
        ds.map_batches(prep, batch_format="pyarrow"), ["user_id"],
        resolve, n_parts=32)
    return rows


# --- round-5 wave A ---------------------------------------------------------


def _q_c4_line_filter(sf_dir: str):
    """C4 line-level cleaning (terminal punctuation + min words +
    banned terms, doc dropped under min kept lines) over documents
    line-ized deterministically: words grouped 5-per-line, every
    (doc_id+i)%11==0 line suffixed ' javascript.' (banned), else
    (doc_id+i)%3==0 suffixed '.' (the only terminal lines) — the same
    derivation the oracle performs with list lambdas
    (ops/corpus.c4_line_filter)."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import c4_line_filter

    def to_lines(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for d, t in zip(df["doc_id"].fillna(-1).astype(np.int64),
                        df["text"].fillna("")):
            words = [w for w in t.split(" ") if w]
            lines = []
            for i in range((len(words) + 4) // 5):
                line = " ".join(words[5 * i:5 * i + 5])
                if (d + i) % 11 == 0:
                    line += " javascript."
                elif (d + i) % 3 == 0:
                    line += "."
                lines.append(line)
            outs.append("\n".join(lines))
        return pd.DataFrame({"doc_id": df["doc_id"], "text": outs})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return c4_line_filter(ds.map_batches(to_lines,
                                         batch_format="pandas"))


def _q_probe_positions(sf_dir: str):
    """Contamination-probe locator: first byte offset + occurrence
    count per (doc, probe) for four fixed word-bigram probes
    (ops/corpus.probe_positions)."""
    from pdf_extract_ray.ops.corpus import probe_positions
    return probe_positions(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        ["table part", "fast merge", "key agg", "row scan"])


def _q_mojibake_audit(sf_dir: str):
    """Per-source encoding-damage audit over documents with planted
    mojibake (doc_id%17==0 -> 'a'->'Ã¡' substitution, %17==1 ->
    ' â€œq' suffix; same derivation in the oracle)
    (ops/textstats.mojibake_audit)."""
    import pandas as pd
    from pdf_extract_ray.ops.textstats import mojibake_audit

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        d = df["doc_id"].fillna(-1).astype(np.int64)
        txt = txt.where(d % 17 != 0,
                        txt.str.replace("a", "Ã¡", regex=False))
        txt = txt.where(d % 17 != 1, txt + " â€œq")
        return pd.DataFrame({"source": df["source"], "text": txt})

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "text"])
    return mojibake_audit(ds.map_batches(plant, batch_format="pandas"))


def _q_l_diversity_audit(sf_dir: str):
    """l-diversity privacy audit: QI groups = (source, n_chars//64),
    sensitive = lang; flags groups whose members all share one lang
    (ops/analytics.l_diversity_audit)."""
    from pdf_extract_ray.ops.analytics import l_diversity_audit
    return l_diversity_audit(
        _read(sf_dir, "documents",
              columns=["source", "n_chars", "lang"]))


def _q_effect_size_chars(sf_dir: str):
    """Cohen's d of each source's n_chars against the rest of the
    corpus, exact HUGEINT moments -> bit-identical doubles
    (ops/analytics.effect_size_by_group)."""
    from pdf_extract_ray.ops.analytics import effect_size_by_group
    return effect_size_by_group(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_partial_corr_chars(sf_dir: str):
    """First-order partial correlation of (n_chars, word count) given
    'a'-occurrence count, exact integer moments + mirrored float
    formula tree (ops/analytics.partial_corr_three)."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import partial_corr_three

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        return pd.DataFrame({
            "x": df["n_chars"].fillna(0).astype(np.int64),
            "y": txt.str.count(r"[^ ]+").astype(np.int64),
            "z": txt.str.count("a").astype(np.int64)})

    ds = _read(sf_dir, "documents", columns=["n_chars", "text"])
    return partial_corr_three(
        ds.map_batches(derive, batch_format="pandas"), "x", "y", "z")


def _q_line_df_removal(sf_dir: str):
    """CC-Net-style boilerplate-line removal: lines in >= 5 distinct
    docs removed everywhere — documents line-ized deterministically
    (4 words per line, same derivation in the oracle); pre-deduped
    (line, doc) exchange + bounded boilerplate broadcast
    (ops/corpus.line_df_removal)."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import line_df_removal

    def to_lines(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for t in df["text"].fillna(""):
            words = [w for w in t.split(" ") if w]
            outs.append("\n".join(
                " ".join(words[4 * i:4 * i + 4])
                for i in range((len(words) + 3) // 4)))
        return pd.DataFrame({"doc_id": df["doc_id"], "text": outs})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # the op scans its input twice; pin the python-derived corpus so
    # the to_lines prep runs once (measured 13.6 -> ~5 s at sf0.1)
    return line_df_removal(ds.map_batches(
        to_lines, batch_format="pandas").materialize())


def _q_skipgram_counts(sf_dir: str):
    """Top-30 window-2 skip-gram pairs over the corpus (ordered pairs,
    within-doc, shifted-array map partials, one pair groupby)
    (ops/corpus.skipgram_counts)."""
    from pdf_extract_ray.ops.corpus import skipgram_counts
    return skipgram_counts(
        _read(sf_dir, "documents", columns=["text"]))


def _q_mad_anomalies(sf_dir: str):
    """Global top-50 robust-z outlier docs by n_chars within source
    (integer ppm score from exact histogram-derived median + MAD)
    (ops/analytics.mad_anomalies)."""
    from pdf_extract_ray.ops.analytics import mad_anomalies
    return mad_anomalies(
        _read(sf_dir, "documents",
              columns=["doc_id", "source", "n_chars"]),
        "source", "n_chars")


def _q_kn_discount_counts(sf_dir: str):
    """Kneser-Ney count tables (unigram count + distinct left/right
    context fan) for the top-40 corpus words
    (ops/corpus.kn_discount_counts)."""
    from pdf_extract_ray.ops.corpus import kn_discount_counts
    return kn_discount_counts(
        _read(sf_dir, "documents", columns=["text"]))


def _q_cms_oracle_table(sf_dir: str):
    """FULLY-ORACLED count-min sketch (md5 hash rows, deterministic
    cells): top-40 true words with exact count, CMS estimate and
    overcount — est >= true always (ops/sketch.cms_oracle_table)."""
    from pdf_extract_ray.ops.sketch import cms_oracle_table
    return cms_oracle_table(
        _read(sf_dir, "documents", columns=["text"]),
        depth=4, width=512)


def _q_c4prep(sf_dir: str):
    """Composed C4-style prep chain, oracled END TO END: line-ize
    (same derivation as c4_line_filter's oracle) -> line-quality
    filter -> boilerplate-line df removal -> exact keep-min dedup
    (ops/corpus.c4prep_docs)."""
    import pandas as pd
    from pdf_extract_ray.ops.corpus import c4prep_docs

    def to_lines(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for d, t in zip(df["doc_id"].fillna(-1).astype(np.int64),
                        df["text"].fillna("")):
            words = [w for w in t.split(" ") if w]
            lines = []
            for i in range((len(words) + 4) // 5):
                line = " ".join(words[5 * i:5 * i + 5])
                if (d + i) % 11 == 0:
                    line += " javascript."
                elif (d + i) % 3 == 0:
                    line += "."
                lines.append(line)
            outs.append("\n".join(lines))
        return pd.DataFrame({"doc_id": df["doc_id"], "text": outs})

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return c4prep_docs(ds.map_batches(to_lines, batch_format="pandas"))


def _q_huber_mean_chars(sf_dir: str):
    """MAD-winsorized (Huber-style) robust mean of n_chars per source
    — ONE histogram exchange yields median, MAD and the clamped sum,
    integer-exact (ops/analytics.winsorized_mean_mad)."""
    from pdf_extract_ray.ops.analytics import winsorized_mean_mad
    return winsorized_mean_mad(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars")


def _q_quality_pr_curve(sf_dir: str):
    """Precision/recall curve of the quality score against a
    length-derived label (n_chars >= 150) at 5 milli thresholds —
    exact confusion counts (ops/classifier.pr_curve over
    ops/textstats.quality_scores)."""
    import pandas as pd
    from pdf_extract_ray.ops.classifier import pr_curve
    from pdf_extract_ray.ops.textstats import quality_scores

    scored = quality_scores(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "score_milli": np.floor(
                df["quality_score"].fillna(0.0).astype(np.float64)
                * 1000).astype(np.int64),
            "label": df["n_chars_calc"].fillna(0).astype(np.int64)
            >= 150})

    return pr_curve(scored.map_batches(derive, batch_format="pandas"))


def _q_bias_model_biases(sf_dir: str):
    """Two-round additive bias model (mu + b_u + b_i) over event
    values, truncating-integer parity — per-item biases + round-2
    residual mass (ops/classifier.bias_model)."""
    from pdf_extract_ray.ops.classifier import bias_model
    return bias_model(
        _read(sf_dir, "events",
              columns=["user_id", "event_type", "value"]))


def _q_embedding_exact_dedup(sf_dir: str):
    """Exact duplicate-vector groups under floor(x*1000) quantization
    with PLANTED duplicates: vec_id%10==7 rows get a synthetic vector
    keyed by vec_id//50 (five members per 50-block), the rest keep
    their real embedding — same derivation in the oracle
    (ops/similarity.embedding_exact_dedup)."""
    import pandas as pd
    from pdf_extract_ray.ops.similarity import embedding_exact_dedup

    def plant(b: pa.Table) -> pa.Table:
        ids = np.asarray(pc.fill_null(b.column("vec_id"), -1)
                         .to_pylist(), np.int64)
        embs = b.column("embedding").to_pylist()
        out = []
        for i, e in zip(ids, embs):
            if i % 10 == 7:
                g = i // 50
                out.append([((int(g) * 13 + d) % 7) / 7.0
                            for d in range(64)])
            else:
                out.append([0.0] * 64 if e is None
                           else [float(x) for x in e])
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(out, pa.list_(pa.float64()))})

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_exact_dedup(
        ds.map_batches(plant, batch_format="pyarrow"))


def _q_knn_label_eval(sf_dir: str):
    """FULLY-ORACLED 5-NN label prediction for the 20 smallest
    vec_ids: exact integer dots, deterministic neighbor and vote ties
    (ops/similarity.knn_label_eval)."""
    from pdf_extract_ray.ops.similarity import knn_label_eval
    return knn_label_eval(
        _read(sf_dir, "embeddings",
              columns=["vec_id", "embedding", "label"]))


def _q_l1_line_fit(sf_dir: str):
    """Integer-exact L1 regression n_chars ~ m*words + b over slope
    grid 0..10 (per-m lower-median intercept + absolute loss from ONE
    (m, resid) histogram exchange) (ops/analytics.l1_line_fit)."""
    import pandas as pd
    from pdf_extract_ray.ops.analytics import l1_line_fit

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        return pd.DataFrame({
            "y": df["n_chars"].fillna(0).astype(np.int64),
            "x": txt.str.count(r"[^ ]+").astype(np.int64)})

    ds = _read(sf_dir, "documents", columns=["n_chars", "text"])
    return l1_line_fit(ds.map_batches(derive, batch_format="pandas"),
                       "x", "y")


def _q_crawl_schedule(sf_dir: str):
    """Politeness crawl schedule: per-host FIFO slots x host-derived
    crawl delay over the deterministic URL derivation (same build as
    url_host_stats, mirrored in SQL) — ONE host-keyed pass, no global
    sort (ops/weburl.crawl_schedule)."""
    import pandas as pd
    from pdf_extract_ray.ops.weburl import crawl_schedule

    def build(df: pd.DataFrame) -> pd.DataFrame:
        did = df["doc_id"].fillna(0).astype(np.int64)
        lang = df["lang"].fillna("und").astype(str)
        src = df["source"].fillna("").astype(str).str.lower()
        tail = ("/" + lang + "/d" + (did % 17).astype(str)
                + "/p" + did.astype(str) + ".html")
        tail = tail.where(did % 5 != 0, "/")
        return pd.DataFrame(
            {"url": "https://" + src + ".example.com" + tail})

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "source"])
    return crawl_schedule(ds.map_batches(build, batch_format="pandas"))


def _q_bucketed_join(sf_dir: str):
    """Hive-style bucketed-storage join: customer and events written
    partitioned by key%16, joined BUCKET-LOCALLY (no join-time
    shuffle); per-bucket counts must equal the oracle's global join
    (ops/relational.bucketed_join_counts).  The bucketed copies live in
    a temp dir, so the 16 count rows are materialized before it is
    removed."""
    import shutil
    import tempfile

    from pdf_extract_ray.ops.relational import bucketed_join_counts
    out_root = tempfile.mkdtemp(prefix="bucketed_join_")
    try:
        return bucketed_join_counts(
            _read(sf_dir, "customer", columns=["c_custkey"]),
            _read(sf_dir, "events", columns=["user_id"]),
            out_root, left_key="c_custkey", right_key="user_id").materialize()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def _q_dup_cluster_size_hist(sf_dir: str):
    """Cluster-size distribution of the dup graph (the release-doc
    dedup metric: how much mass sits in big boilerplate clusters) —
    the dup_clusters CC chain + one component-keyed size pass + a tiny
    size histogram -> (cluster_size, n_clusters)."""
    import pandas as pd
    from pdf_extract_ray.ops.dedup import _grouped_by_partition

    comp = _q_dup_clusters(sf_dir)

    def sizes(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"sz": "int64", "n_part": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        vc = df.groupby("component").size().value_counts()
        return pd.DataFrame(
            {"sz": vc.index.to_numpy(np.int64),
             "n_part": vc.to_numpy(np.int64)}).astype(cols)

    part = _grouped_by_partition(comp, ["component"], sizes,
                                 n_parts=16)
    from ray.data.aggregate import Sum
    rows = part.groupby("sz").aggregate(Sum("n_part")).take_all()
    out_cols = {"cluster_size": "int64", "n_clusters": "int64"}
    if not rows:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    return pd.DataFrame(
        {"cluster_size": [int(r["sz"]) for r in rows],
         "n_clusters": [int(r["sum(n_part)"]) for r in rows]}) \
        .sort_values("cluster_size").reset_index(drop=True) \
        .astype(out_cols)


def _q_bloom_anti_audit(sf_dir: str):
    """Bloom-prefiltered anti join (events.user_id NOT IN customer):
    md5-deterministic 1024-bit/4-hash filter, exact re-check of bloom
    positives, anti count = negatives + false positives — the oracle
    rebuilds the identical filter in SQL
    (ops/sketch.bloom_anti_audit)."""
    from pdf_extract_ray.ops.sketch import bloom_anti_audit
    return bloom_anti_audit(
        _read(sf_dir, "customer", columns=["c_custkey"]),
        _read(sf_dir, "events", columns=["user_id"]),
        dim_key="c_custkey", fact_key="user_id")


def _q_eta_squared_chars(sf_dir: str):
    """ANOVA variance-explained eta^2 of n_chars across langs in the
    exact floor-quantized integer decomposition (the anova_f_chars
    companion) (ops/analytics.eta_squared)."""
    from pdf_extract_ray.ops.analytics import eta_squared
    return eta_squared(
        _read(sf_dir, "documents", columns=["lang", "n_chars"]),
        "lang", "n_chars")


def _q_rank_biserial_chars(sf_dir: str):
    """Rank-biserial effect size (src0 vs src1 doc lengths) from the
    exact doubled Mann-Whitney U, truncating ppm
    (ops/analytics.rank_biserial)."""
    from pdf_extract_ray.ops.analytics import rank_biserial
    return rank_biserial(
        _read(sf_dir, "documents", columns=["source", "n_chars"]),
        "source", "n_chars", "src0", "src1")


def _q_degree_assortativity(sf_dir: str):
    """Newman degree assortativity of the dup graph (banded pairs):
    Pearson r over (deg(src), deg(dst)) of the directed orientation
    set — degrees attached via two tagged-union keyed passes, no
    degree-table broadcast (ops/graph.degree_assortativity)."""
    from pdf_extract_ray.ops.graph import (degree_assortativity,
                                           interval_self_join)
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "source", "lang", "n_chars"])
    edges = interval_self_join(docs, ["source", "lang"], "n_chars",
                               "doc_id", tol=5)
    return degree_assortativity(edges)


def _q_char_bigram_entropy(sf_dir: str):
    """Per-source character-bigram entropy (pair, left-char and
    conditional, order-free per-term floor-ppm sums)
    (ops/textstats.char_bigram_entropy)."""
    from pdf_extract_ray.ops.textstats import char_bigram_entropy
    return char_bigram_entropy(
        _read(sf_dir, "documents", columns=["source", "text"]))


def _q_vocab_coverage_curve(sf_dir: str):
    """Token-occurrence coverage of the top-k vocabulary for
    k in {10,20,40,80} (ops/corpus.vocab_coverage_curve)."""
    from pdf_extract_ray.ops.corpus import vocab_coverage_curve
    return vocab_coverage_curve(
        _read(sf_dir, "documents", columns=["text"]))


def _q_mann_kendall_daily(sf_dir: str):
    """Mann-Kendall monotone-trend S over the daily event-count
    series, exact integer pair signs
    (ops/events.mann_kendall_daily)."""
    from pdf_extract_ray.ops.events import mann_kendall_daily
    return mann_kendall_daily(
        _read(sf_dir, "events", columns=["ts"]))


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # extraction surface (rows-only; byte parity covered in tests/)
        "extract_pages": _q_extract_pages,
        "extract_status_histogram": _q_extract_status_histogram,
        "extract_by_pages": _q_extract_by_pages,
        "extract_metadata": _q_extract_metadata,
        "textprep": _q_textprep,
        "ccprep": _q_ccprep,
        # SQL-oracled corpus operators
        "doc_stats_by_source": _q_doc_stats_by_source,
        "lang_histogram": _q_lang_histogram,
        "doc_size_buckets": _q_doc_size_buckets,
        "token_counts": _q_token_counts,
        "bpe_token_counts": _q_bpe_token_counts,
        "quality_scores": _q_quality_scores,
        "exact_dedup": _q_exact_dedup,
        "normalize_text": _q_normalize_text,
        "ann_topk": _q_ann_topk,
        "embedding_label_histogram": _q_embedding_label_histogram,
        "events_hourly": _q_events_hourly,
        "sessionize": _q_sessionize,
        "sessionize_salted": _q_sessionize_salted,
        "top_customers": _q_top_customers,
        "deterministic_sample": _q_deterministic_sample,
        "stratified_sample": _q_stratified_sample,
        "dataset_splits": _q_dataset_splits,
        "tpch_q1": _q_tpch_q1,
        "revenue_by_nation": _q_revenue_by_nation,
        "promo_revenue": _q_promo_revenue,
        "revenue_by_region": _q_revenue_by_region,
        "running_totals": _q_running_totals,
        "shipping_priority": _q_shipping_priority,
        "order_priority_counts": _q_order_priority_counts,
        "large_volume_customers": _q_large_volume_customers,
        "orders_above_avg": _q_orders_above_avg,
        "event_gaps": _q_event_gaps,
        "event_next_gaps": _q_event_next_gaps,
        "value_share": _q_value_share,
        "doc_grouping_sets": _q_doc_grouping_sets,
        "bpe_encode_stats": _q_bpe_encode_stats,
        "all_user_ids": _q_all_user_ids,
        "training_shards": _q_training_shards,
        "bloom_semi_revenue": _q_bloom_semi_revenue,
        "chars_token_regression": _q_chars_token_regression,
        "winsorized_chars": _q_winsorized_chars,
        "chars_rank_by_source": _q_chars_rank_by_source,
        "fuzzy_decontaminate": _q_fuzzy_decontaminate,
        "event_transitions": _q_event_transitions,
        "latest_event_per_user": _q_latest_event_per_user,
        "chars_percentiles_by_source": _q_chars_percentiles_by_source,
        "chars_mode_by_source": _q_chars_mode_by_source,
        "doc_cube": _q_doc_cube,
        "shared_user_ids": _q_shared_user_ids,
        "except_users": _q_except_users,
        "cust_order_distribution": _q_cust_order_distribution,
        "brand_suppliers": _q_brand_suppliers,
        "rich_quiet_customers": _q_rich_quiet_customers,
        "window3_sums": _q_window3_sums,
        "rolling_median": _q_rolling_median,
        "attributed_purchases": _q_attributed_purchases,
        "retention_cohorts_cal": _q_retention_cohorts_cal,
        "user_paths": _q_user_paths,
        "gram_edit_pairs": _q_gram_edit_pairs,
        "remove_dup_spans": _q_remove_dup_spans,
        "ssjoin_jaccard": _q_ssjoin_jaccard,
        "part_skyline": _q_part_skyline,
        "doc_bfs_hops": _q_doc_bfs_hops,
        "lang_gini_by_source": _q_lang_gini_by_source,
        "nth_event_per_user": _q_nth_event_per_user,
        "brand_copurchase": _q_brand_copurchase,
        "pmi_pairs": _q_pmi_pairs,
        "asof_join_forward": _q_asof_join_forward,
        "record_high_events": _q_record_high_events,
        "prefix_dedup_best": _q_prefix_dedup_best,
        "doc_stats_long": _q_doc_stats_long,
        "chars_kurtosis_by_source": _q_chars_kurtosis_by_source,
        "orders_by_dow": _q_orders_by_dow,
        "ann_topk_filtered": _q_ann_topk_filtered,
        "monthly_revenue_delta": _q_monthly_revenue_delta,
        "weighted_avg_discount": _q_weighted_avg_discount,
        "word_length_histogram": _q_word_length_histogram,
        "mannwhitney_chars": _q_mannwhitney_chars,
        "lang_source_contingency": _q_lang_source_contingency,
        "ks_chars": _q_ks_chars,
        "emd_chars": _q_emd_chars,
        "score_auc": _q_score_auc,
        "scd2_intervals": _q_scd2_intervals,
        "user_active_time": _q_user_active_time,
        "link_common_neighbors": _q_link_common_neighbors,
        "hits_scores": _q_hits_scores,
        "peer_window_sums": _q_peer_window_sums,
        "isotonic_calibration": _q_isotonic_calibration,
        "source_jsd": _q_source_jsd,
        "lang_share_ci": _q_lang_share_ci,
        "user_value_locf": _q_user_value_locf,
        "user_burstiness": _q_user_burstiness,
        "asof_join_tolerance": _q_asof_join_tolerance,
        "running_balance": _q_running_balance,
        "sequence_motifs": _q_sequence_motifs,
        "quantile_map_sources": _q_quantile_map_sources,
        "k_anonymity_audit": _q_k_anonymity_audit,
        "salting_plan": _q_salting_plan,
        "kmv_distinct_users": _q_kmv_distinct_users,
        "bucket_merkle_diff": _q_bucket_merkle_diff,
        "wet_roundtrip": _q_wet_roundtrip,
        "psi_chars_drift": _q_psi_chars_drift,
        "nfc_audit": _q_nfc_audit,
        "orders_by_isoweek": _q_orders_by_isoweek,
        "ols2_by_source": _q_ols2_by_source,
        "changepoint_by_user": _q_changepoint_by_user,
        "max_drawdown_by_user": _q_max_drawdown_by_user,
        "benford_digits": _q_benford_digits,
        "weighted_median_price": _q_weighted_median_price,
        "user_value_integral": _q_user_value_integral,
        "release_prep": _q_release_prep,
        "chars_gmd_by_source": _q_chars_gmd_by_source,
        "order_total_audit": _q_order_total_audit,
        "shortest_docs_with_ties": _q_shortest_docs_with_ties,
        "conversion_latency": _q_conversion_latency,
        "cdc_compaction": _q_cdc_compaction,
        "neardup_eval_report": _q_neardup_eval_report,
        "html_extract_eval": _q_html_extract_eval,
        "sa_dup_spans": _q_sa_dup_spans,
        "ip_topk_exact": _q_ip_topk_exact,
        "label_centroid_shift": _q_label_centroid_shift,
        "label_dispersion": _q_label_dispersion,
        "alias_sampling_table": _q_alias_sampling_table,
        "bloom_fpr_audit": _q_bloom_fpr_audit,
        "unseen_vocab_estimate": _q_unseen_vocab_estimate,
        "ipf_raking": _q_ipf_raking,
        "chunk_for_training": _q_chunk_for_training,
        "logrank_lifetimes": _q_logrank_lifetimes,
        "heaps_curve": _q_heaps_curve,
        "sessionize_sweep": _q_sessionize_sweep,
        "dup_span_coverage": _q_dup_span_coverage,
        "event_order_audit": _q_event_order_audit,
        "dow_hour_heatmap": _q_dow_hour_heatmap,
        "interarrival_buckets": _q_interarrival_buckets,
        "cohort_retention": _q_cohort_retention,
        "revenue_drawdown": _q_revenue_drawdown,
        "revenue_lorenz": _q_revenue_lorenz,
        "daily_ewma_counts": _q_daily_ewma_counts,
        "spike_days": _q_spike_days,
        "nation_revenue_trend": _q_nation_revenue_trend,
        "goodturing_counts": _q_goodturing_counts,
        "above_avg_sources": _q_above_avg_sources,
        "order_streaks": _q_order_streaks,
        "order_gap_stats": _q_order_gap_stats,
        "ssjoin_containment": _q_ssjoin_containment,
        "corpus_datacard": _q_corpus_datacard,
        "full_coverage_customers": _q_full_coverage_customers,
        "target_mixture_sample": _q_target_mixture_sample,
        "late_event_counts": _q_late_event_counts,
        "snapshot_diff": _q_snapshot_diff,
        "catalog_rowcounts": _q_catalog_rowcounts,
        "order_size_distribution": _q_order_size_distribution,
        "stratified_hash_sample": _q_stratified_hash_sample,
        "orders_time_rollup": _q_orders_time_rollup,
        "quarter_share": _q_quarter_share,
        "lineitem_integrity": _q_lineitem_integrity,
        "boilerplate_stats": _q_boilerplate_stats,
        "parquet_layout_audit": _q_parquet_layout_audit,
        "supplier_fill_rate": _q_supplier_fill_rate,
        "revenue_concentration": _q_revenue_concentration,
        "sliding_distinct_users": _q_sliding_distinct_users,
        "welch_t_value": _q_welch_t_value,
        "effective_langs": _q_effective_langs,
        "page_titles": _q_page_titles,
        "lang_confusion": _q_lang_confusion,
        "url_templates": _q_url_templates,
        "rfm_segments": _q_rfm_segments,
        "events_dow_hour": _q_events_dow_hour,
        "order_sla_breach": _q_order_sla_breach,
        "zipf_slope": _q_zipf_slope,
        "char_class_mix": _q_char_class_mix,
        "host_lorenz": _q_host_lorenz,
        "split_leakage_report": _q_split_leakage_report,
        "harmonic_mean_chars": _q_harmonic_mean_chars,
        "host_balance_gini": _q_host_balance_gini,
        "crawl_budget": _q_crawl_budget,
        "event_bigram_perplexity": _q_event_bigram_perplexity,
        "dup_rate_by_source": _q_dup_rate_by_source,
        "hourly_autocorr": _q_hourly_autocorr,
        "tld_rollup": _q_tld_rollup,
        "orders_profile_long": _q_orders_profile_long,
        "sentence_stats": _q_sentence_stats,
        "session_stats": _q_session_stats,
        "crawlprep": _q_crawlprep,
        "robots_audit": _q_robots_audit,
        "snapshot_schema_union": _q_snapshot_schema_union,
        "trimmed_mean_chars": _q_trimmed_mean_chars,
        "oov_rate_report": _q_oov_rate_report,
        "lang_chi2_cells": _q_lang_chi2_cells,
        "lang_entropy_by_source": _q_lang_entropy_by_source,
        "geomean_chars_by_source": _q_geomean_chars_by_source,
        "url_host_stats": _q_url_host_stats,
        "url_normalize_dedup": _q_url_normalize_dedup,
        "top_supplier_revenue": _q_top_supplier_revenue,
        "top_return_customers": _q_top_return_customers,
        "min_cost_supplier": _q_min_cost_supplier,
        "disjunctive_part_revenue": _q_disjunctive_part_revenue,
        "funnel_counts": _q_funnel_counts,
        "langs_per_source": _q_langs_per_source,
        "order_event_range_counts": _q_order_event_range_counts,
        "doc_pagerank": _q_doc_pagerank,
        "orders_by_month": _q_orders_by_month,
        "local_supplier_volume": _q_local_supplier_volume,
        "nation_pair_volume": _q_nation_pair_volume,
        "discount_revenue": _q_discount_revenue,
        "small_qty_revenue": _q_small_qty_revenue,
        "market_share": _q_market_share,
        "profit_by_nation": _q_profit_by_nation,
        "chars_ntile_by_source": _q_chars_ntile_by_source,
        "distinct_users_per_type": _q_distinct_users_per_type,
        "late_priority_counts": _q_late_priority_counts,
        "sole_late_supplier": _q_sole_late_supplier,
        "chars_pct_rank": _q_chars_pct_rank,
        "user_first_last": _q_user_first_last,
        "chars_skew_by_source": _q_chars_skew_by_source,
        "embedding_clusters": _q_embedding_clusters,
        "lm_buckets": _q_lm_buckets,
        "top_bigrams": _q_top_bigrams,
        "bpe_merges": _q_bpe_merges,
        "significant_parts": _q_significant_parts,
        "dominant_suppliers": _q_dominant_suppliers,
        "source_vocab_stats": _q_source_vocab_stats,
        "chars_mad_by_source": _q_chars_mad_by_source,
        "pack_sequences": _q_pack_sequences,
        "chars_quartiles_by_source": _q_chars_quartiles_by_source,
        "source_chars_token_corr": _q_source_chars_token_corr,
        "heavy_hitters": _q_heavy_hitters,
        "redact_pii": _q_redact_pii,
        "props_k_stats": _q_props_k_stats,
        "customer_order_coverage": _q_customer_order_coverage,
        "asof_join": _q_asof_join,
        "asof_join_left": _q_asof_join_left,
        "asof_join_salted": _q_asof_join_salted,
        "big_spender_customers": _q_big_spender_customers,
        "quiet_customers": _q_quiet_customers,
        "word_frequencies": _q_word_frequencies,
        "distinct_users": _q_distinct_users,
        "top_docs_per_lang": _q_top_docs_per_lang,
        "median_chars_by_source": _q_median_chars_by_source,
        "sliding_window_counts": _q_sliding_window_counts,
        "label_centroids": _q_label_centroids,
        # heuristic / non-SQL operators (rows-only)
        "approx_distinct_users": _q_approx_distinct_users,
        "cms_word_counts": _q_cms_word_counts,
        "chars_width_histogram": _q_chars_width_histogram,
        "approx_value_quantiles": _q_approx_value_quantiles,
        "lang_id": _q_lang_id,
        "lm_scores": _q_lm_scores,
        "incremental_dedup": _q_incremental_dedup,
        "fingerprints": _q_fingerprints,
        "ann_topk_lsh": _q_ann_topk_lsh,
        "embedding_pca": _q_embedding_pca,
        "ann_topk_ivf": _q_ann_topk_ivf,
        "ann_topk_ivfpq": _q_ann_topk_ivfpq,
        "minhash_neardup": _q_minhash_neardup,
        "simhash_neardup": _q_simhash_neardup,
        "ngram_neardup": _q_ngram_neardup,
        "decontaminate": _q_decontaminate,
        "repetition_scores": _q_repetition_scores,
        "gopher_filter": _q_gopher_filter,
        "chunk_dedup": _q_chunk_dedup,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "bm25_top_docs": _q_bm25_top_docs,
        "dup_span_stats": _q_dup_span_stats,
        "cross_source_overlap": _q_cross_source_overlap,
        "vocab_jaccard": _q_vocab_jaccard,
        "chars_iqr_outliers": _q_chars_iqr_outliers,
        "triangle_counts": _q_triangle_counts,
        "range_window_sums": _q_range_window_sums,
        "dup_clusters": _q_dup_clusters,
        "dup_clusters_salted": _q_dup_clusters_salted,
        "neardup_clusters": _q_neardup_clusters,
        "neardup_cluster_dedup": _q_neardup_cluster_dedup,
        "weighted_sample": _q_weighted_sample,
        "mixture_sample": _q_mixture_sample,
        "inverted_index": _q_inverted_index,
        "zscore_by_source": _q_zscore_by_source,
        "doc_rollup": _q_doc_rollup,
        "lang_pivot": _q_lang_pivot,
        "quality_classifier": _q_quality_classifier,
        "neardup_dedup": _q_neardup_dedup_survivors,
        "embedding_neardup": _q_embedding_neardup,
        "image_features": _q_image_features,
        "image_resize": _q_image_resize,
        "image_dedup": _q_image_dedup,
        "ann_recall_report": _q_ann_recall_report,
        "audio_features": _q_audio_features,
        "audio_resample": _q_audio_resample,
        "ann_topk_pq": _q_ann_topk_pq,
        "frame_samples": _q_frame_samples,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "csv_roundtrip": _q_csv_roundtrip,
        "kcore_graph": _q_kcore_graph,
        "user_value_ewma": _q_user_value_ewma,
        "rolling_spikes": _q_rolling_spikes,
        "transition_entropy": _q_transition_entropy,
        "degree_histogram": _q_degree_histogram,
        "asof_join_nearest": _q_asof_join_nearest,
        "readability_scores": _q_readability_scores,
        "events_hourly_gapfill": _q_events_hourly_gapfill,
        "lang_source_mi": _q_lang_source_mi,
        "key_skew_report": _q_key_skew_report,
        "price_band_orders": _q_price_band_orders,
        "global_doc_rank": _q_global_doc_rank,
        "quantity_woe": _q_quantity_woe,
        "lang_target_encoding": _q_lang_target_encoding,
        "user_value_kendall": _q_user_value_kendall,
        "chars_token_spearman": _q_chars_token_spearman,
        "runs_test_by_user": _q_runs_test_by_user,
        "peak_hour_by_user": _q_peak_hour_by_user,
        "type_switch_rate": _q_type_switch_rate,
        "event_gap_quantiles": _q_event_gap_quantiles,
        "hapax_rate_by_source": _q_hapax_rate_by_source,
        "source_bow_gram": _q_source_bow_gram,
        "levene_absdev_chars": _q_levene_absdev_chars,
        "user_type_entropy": _q_user_type_entropy,
        "reorder_rate": _q_reorder_rate,
        "spend_activity_corr": _q_spend_activity_corr,
        "top_word_per_source": _q_top_word_per_source,
        "first_event_type_counts": _q_first_event_type_counts,
        "user_value_autocorr": _q_user_value_autocorr,
        "type_transitions": _q_type_transitions,
        "source_vocab_jaccard": _q_source_vocab_jaccard,
        "nation_revenue_hhi": _q_nation_revenue_hhi,
        "adjacent_edit_distance": _q_adjacent_edit_distance,
        "dau_stickiness": _q_dau_stickiness,
        "retention_cohorts": _q_retention_cohorts,
        "nation_pareto80": _q_nation_pareto80,
        "source_dup_rate": _q_source_dup_rate,
        "chars_histogram": _q_chars_histogram,
        "orders_profile": _q_orders_profile,
        "orders_topk_offset": _q_orders_topk_offset,
        "copurchase_lift": _q_copurchase_lift,
        "char_class_profile": _q_char_class_profile,
        "embedding_quant_stats": _q_embedding_quant_stats,
        "source_lcp": _q_source_lcp,
        "user_lifespan_hist": _q_user_lifespan_hist,
        "anova_f_chars": _q_anova_f_chars,
        "cramers_v": _q_cramers_v,
        "nation_theil": _q_nation_theil,
        "class_weight_plan": _q_class_weight_plan,
        "user_daily_ohlc": _q_user_daily_ohlc,
        "systematic_sample": _q_systematic_sample,
        "label_centroid_cosine": _q_label_centroid_cosine,
        "fk_orphans": _q_fk_orphans,
        "user_survival_km": _q_user_survival_km,
        "kmv_type_overlap": _q_kmv_type_overlap,
        "langid_calibration": _q_langid_calibration,
        "user_value_interp": _q_user_value_interp,
        "zorder_layout": _q_zorder_layout,
        "best_split_chars": _q_best_split_chars,
        "nb_lang_confusion": _q_nb_lang_confusion,
        "event_type_stationary": _q_event_type_stationary,
        "ams_f2_users": _q_ams_f2_users,
        "zonemap_prune": _q_zonemap_prune,
        "jackknife_mean_chars": _q_jackknife_mean_chars,
        "business_days_latency": _q_business_days_latency,
        "customer_feature_table": _q_customer_feature_table,
        "mmr_select": _q_mmr_select,
        "hash_permutation_test": _q_hash_permutation_test,
        "gdpr_erasure_audit": _q_gdpr_erasure_audit,
        "ivm_delta_merge": _q_ivm_delta_merge,
        "trade_distance": _q_trade_distance,
        "quota_allocation": _q_quota_allocation,
        "hierarchy_share": _q_hierarchy_share,
        "expectations_audit": _q_expectations_audit,
        "hypothetical_rank": _q_hypothetical_rank,
        "embedding_pair_dot": _q_embedding_pair_dot,
        "type_lag_xcorr": _q_type_lag_xcorr,
        "analyze_table_sketch": _q_analyze_table_sketch,
        "sequence_gaps": _q_sequence_gaps,
        "type_dwell_time": _q_type_dwell_time,
        "yoy_revenue": _q_yoy_revenue,
        "embedding_dim_profile": _q_embedding_dim_profile,
        "contrastive_pairs": _q_contrastive_pairs,
        "encoding_advisor": _q_encoding_advisor,
        "decay_score": _q_decay_score,
        "feature_hashing_stats": _q_feature_hashing_stats,
        "snm_dup_candidates": _q_snm_dup_candidates,
        "label_propagation_langs": _q_label_propagation_langs,
        "lang_kappa": _q_lang_kappa,
        "consistent_hash_balance": _q_consistent_hash_balance,
        "rrf_fusion": _q_rrf_fusion,
        "dau_churn_jaccard": _q_dau_churn_jaccard,
        "user_growth_curve": _q_user_growth_curve,
        "compress_ratio_by_source": _q_compress_ratio_by_source,
        "join_size_estimate": _q_join_size_estimate,
        "conformal_chars_interval": _q_conformal_chars_interval,
        "markov_next_accuracy": _q_markov_next_accuracy,
        "linear_attribution": _q_linear_attribution,
        "diff_in_diff": _q_diff_in_diff,
        "rbo_rankings": _q_rbo_rankings,
        "curriculum_order": _q_curriculum_order,
        "negative_sampling_table": _q_negative_sampling_table,
        "user_last3_types": _q_user_last3_types,
        "theil_sen_slope": _q_theil_sen_slope,
        "candidate_key_audit": _q_candidate_key_audit,
        "source_cover_greedy": _q_source_cover_greedy,
        "markov_entropy_rate": _q_markov_entropy_rate,
        "simpson_flip_report": _q_simpson_flip_report,
        "churn_training_set": _q_churn_training_set,
        "source_weighted_jaccard": _q_source_weighted_jaccard,
        "seasonal_index": _q_seasonal_index,
        "fold_balance_report": _q_fold_balance_report,
        "daily_acf": _q_daily_acf,
        "daily_peaks": _q_daily_peaks,
        "elasticity_by_brand": _q_elasticity_by_brand,
        "session_type_lift": _q_session_type_lift,
        "decay_ess": _q_decay_ess,
        "loso_mean_chars": _q_loso_mean_chars,
        "gains_table_chars": _q_gains_table_chars,
        "kmv_containment": _q_kmv_containment,
        "session_entry_exit": _q_session_entry_exit,
        "conformal_coverage": _q_conformal_coverage,
        "stable_top_words": _q_stable_top_words,
        "session_conversion_by_entry": _q_session_conversion_by_entry,
        "dau_new_returning": _q_dau_new_returning,
        "user_hour_entropy": _q_user_hour_entropy,
        "c4_line_filter": _q_c4_line_filter,
        "probe_positions": _q_probe_positions,
        "mojibake_audit": _q_mojibake_audit,
        "l_diversity_audit": _q_l_diversity_audit,
        "effect_size_chars": _q_effect_size_chars,
        "partial_corr_chars": _q_partial_corr_chars,
        "line_df_removal": _q_line_df_removal,
        "skipgram_counts": _q_skipgram_counts,
        "mad_anomalies": _q_mad_anomalies,
        "kn_discount_counts": _q_kn_discount_counts,
        "cms_oracle_table": _q_cms_oracle_table,
        "c4prep": _q_c4prep,
        "huber_mean_chars": _q_huber_mean_chars,
        "quality_pr_curve": _q_quality_pr_curve,
        "bias_model_biases": _q_bias_model_biases,
        "embedding_exact_dedup": _q_embedding_exact_dedup,
        "knn_label_eval": _q_knn_label_eval,
        "l1_line_fit": _q_l1_line_fit,
        "crawl_schedule": _q_crawl_schedule,
        "bucketed_join": _q_bucketed_join,
        "bloom_anti_audit": _q_bloom_anti_audit,
        "dup_cluster_size_hist": _q_dup_cluster_size_hist,
        "eta_squared_chars": _q_eta_squared_chars,
        "rank_biserial_chars": _q_rank_biserial_chars,
        "degree_assortativity": _q_degree_assortativity,
        "char_bigram_entropy": _q_char_bigram_entropy,
        "vocab_coverage_curve": _q_vocab_coverage_curve,
        "mann_kendall_daily": _q_mann_kendall_daily,
    }


_LANG_ID_SQL = """
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(
                         string_split_regex(lower(text), '\\s+'),
                         x -> x <> '')) AS w
              FROM documents),
            h AS (SELECT doc_id,
                   sum(CASE WHEN w IN ('auch', 'das', 'den', 'der', 'die', 'ein', 'eine', 'im', 'ist', 'mit', 'nicht', 'und', 'von', 'zu')
                            THEN 1 ELSE 0 END) AS de,
                   sum(CASE WHEN w IN ('a', 'and', 'are', 'at', 'for', 'in', 'is', 'it', 'of', 'on', 'that', 'the', 'this', 'to', 'was', 'with')
                            THEN 1 ELSE 0 END) AS en,
                   sum(CASE WHEN w IN ('con', 'de', 'del', 'el', 'en', 'es', 'las', 'los', 'para', 'por', 'se', 'un', 'una', 'y')
                            THEN 1 ELSE 0 END) AS es,
                   sum(CASE WHEN w IN ('au', 'dans', 'de', 'du', 'en', 'est', 'et', 'la', 'le', 'les', 'pour', 'que', 'un', 'une')
                            THEN 1 ELSE 0 END) AS fr,
                   sum(CASE WHEN w IN ('a', 'az', 'de', 'egy', 'el', 'ez', 'hogy', 'is', 'meg', 'nem', 'van', 'és')
                            THEN 1 ELSE 0 END) AS hu,
                   count(*) AS n_words
                  FROM w GROUP BY doc_id),
            j AS (SELECT d.doc_id,
                         COALESCE(h.de,0) AS de, COALESCE(h.en,0) AS en,
                         COALESCE(h.es,0) AS es, COALESCE(h.fr,0) AS fr,
                         COALESCE(h.hu,0) AS hu,
                         COALESCE(h.n_words,0) AS n_words
                  FROM documents d LEFT JOIN h USING (doc_id)),
            u AS (SELECT doc_id, 'de' AS lang, de AS hits FROM j
                  UNION ALL SELECT doc_id, 'en' AS lang, en AS hits FROM j
                  UNION ALL SELECT doc_id, 'es' AS lang, es AS hits FROM j
                  UNION ALL SELECT doc_id, 'fr' AS lang, fr AS hits FROM j
                  UNION ALL SELECT doc_id, 'hu' AS lang, hu AS hits FROM j),
            b AS (SELECT doc_id, lang, hits,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY hits DESC, lang)
                             AS rn
                  FROM u)
            SELECT j.doc_id,
                   CASE WHEN b.hits > 0 THEN b.lang
                        ELSE 'und' END AS pred_lang,
                   CASE WHEN j.n_words > 0
                        THEN CAST(b.hits AS DOUBLE)
                             / CAST(j.n_words AS DOUBLE)
                        ELSE 0.0 END AS lang_confidence
            FROM b JOIN j USING (doc_id) WHERE b.rn = 1
        """


def oracle_sql() -> dict[str, str]:
    return {
        "decontaminate": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            gj AS (SELECT doc_id, ws, unnest(range(1, len(ws)-3)) AS i
                   FROM w),
            g AS (SELECT doc_id,
                         array_to_string(list_slice(ws, i, i+4), ' ') AS gram
                  FROM gj),
            bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 11 = 0),
            train AS (SELECT DISTINCT doc_id, gram FROM g
                      WHERE doc_id % 11 <> 0),
            overl AS (SELECT t.doc_id, CAST(count(*) AS BIGINT) n_overlaps
                      FROM train t JOIN bench b USING (gram)
                      GROUP BY t.doc_id)
            SELECT d.doc_id, COALESCE(o.n_overlaps, 0) AS n_overlaps,
                   COALESCE(o.n_overlaps, 0) > 0 AS contaminated
            FROM (SELECT doc_id FROM documents WHERE doc_id % 11 <> 0) d
            LEFT JOIN overl o USING (doc_id)
        """,
        "dup_clusters": """
            WITH RECURSIVE e AS (
              SELECT a.doc_id ua, b.doc_id ub FROM documents a
              JOIN documents b
                ON a.source = b.source AND a.lang = b.lang
               AND abs(a.n_chars - b.n_chars) <= 5
               AND a.doc_id < b.doc_id),
            sym AS (SELECT ua, ub FROM e UNION SELECT ub, ua FROM e),
            reach(x, y) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT r.x, s.ub FROM reach r JOIN sym s ON r.y = s.ua)
            SELECT x AS doc_id, MIN(y) AS component
            FROM reach GROUP BY x
        """,
        "dup_clusters_salted": """
            WITH RECURSIVE e AS (
              SELECT a.doc_id ua, b.doc_id ub FROM documents a
              JOIN documents b
                ON a.source = b.source AND a.lang = b.lang
               AND abs(a.n_chars - b.n_chars) <= 5
               AND a.doc_id < b.doc_id),
            sym AS (SELECT ua, ub FROM e UNION SELECT ub, ua FROM e),
            reach(x, y) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT r.x, s.ub FROM reach r JOIN sym s ON r.y = s.ua)
            SELECT x AS doc_id, MIN(y) AS component
            FROM reach GROUP BY x
        """,
        "weighted_sample": """
            WITH tot AS (SELECT CAST(SUM(n_chars) AS BIGINT) w
                         FROM documents)
            SELECT doc_id, n_chars FROM documents, tot
            WHERE ((doc_id * 2654435761) % 4294967296) * tot.w
                  < 50 * n_chars * 4294967296
        """,
        "lang_pivot": """
            SELECT source,
                   CAST(sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_de,
                   CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_en,
                   CAST(sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_es,
                   CAST(sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_fr,
                   CAST(sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_zh
            FROM documents GROUP BY source
        """,
        "doc_rollup": """
            SELECT source, lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY ROLLUP (source, lang)
        """,
        "zscore_by_source": """
            WITH s AS (SELECT source, CAST(count(*) AS BIGINT) n,
                              CAST(sum(n_chars) AS BIGINT) s1,
                              CAST(sum(n_chars * n_chars) AS BIGINT) s2
                       FROM documents GROUP BY source)
            SELECT d.doc_id,
                   (d.n_chars - CAST(s1 AS DOUBLE) / n)
                   / sqrt((CAST(s2 AS DOUBLE)
                           - CAST(s1 AS DOUBLE) * s1 / n) / n) AS z
            FROM documents d JOIN s USING (source)
            WHERE (CAST(s2 AS DOUBLE)
                   - CAST(s1 AS DOUBLE) * s1 / n) / n > 0
        """,
        "mixture_sample": """
            WITH t AS (SELECT source, CAST(SUM(n_chars) AS BIGINT) ts
                       FROM documents GROUP BY source),
            m AS (SELECT MIN(ts) mt FROM t)
            SELECT d.doc_id, d.source, d.n_chars
            FROM documents d, t, m
            WHERE d.source = t.source
              AND ((d.doc_id * 2654435761) % 4294967296) * t.ts
                  < m.mt * 4294967296
        """,
        "inverted_index": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            p AS (SELECT DISTINCT doc_id, unnest(ws) AS term FROM w
                  WHERE len(ws) > 0),
            pp AS (SELECT term, doc_id FROM p WHERE term <> ''),
            d AS (SELECT term, CAST(count(*) AS BIGINT) df FROM pp
                  GROUP BY term)
            SELECT pp.term, d.df,
                   string_agg(CAST(pp.doc_id AS VARCHAR), ','
                              ORDER BY pp.doc_id) AS postings
            FROM pp JOIN d USING (term)
            WHERE d.df >= 2
              AND d.df * 10 <= 8 * (SELECT count(*) FROM documents)
            GROUP BY pp.term, d.df
        """,
        "repetition_scores": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            ws_stats AS (SELECT doc_id, CAST(len(ws) AS BIGINT) n_words,
                                CAST(len(list_distinct(ws)) AS BIGINT)
                                    n_distinct_words
                         FROM w),
            gj AS (SELECT doc_id, ws, unnest(range(1, len(ws))) AS i
                   FROM w),
            g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g2 FROM gj),
            gc AS (SELECT doc_id, g2, count(*) c FROM g
                   GROUP BY doc_id, g2),
            gs AS (SELECT doc_id, CAST(sum(c) AS BIGINT) n_2grams,
                          CAST(count(*) AS BIGINT) n_distinct_2grams,
                          CAST(max(c) AS BIGINT) top_2gram_count
                   FROM gc GROUP BY doc_id)
            SELECT s.doc_id, s.n_words, s.n_distinct_words,
                   COALESCE(g.n_2grams, 0) AS n_2grams,
                   COALESCE(g.n_distinct_2grams, 0) AS n_distinct_2grams,
                   COALESCE(g.top_2gram_count, 0) AS top_2gram_count
            FROM ws_stats s LEFT JOIN gs g USING (doc_id)
        """,
        "gopher_filter": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            ws_stats AS (SELECT doc_id, CAST(len(ws) AS BIGINT) n_words
                         FROM w),
            gj AS (SELECT doc_id, ws, unnest(range(1, len(ws))) AS i
                   FROM w),
            g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS g2 FROM gj),
            gc AS (SELECT doc_id, g2, count(*) c FROM g
                   GROUP BY doc_id, g2),
            gs AS (SELECT doc_id, CAST(sum(c) AS BIGINT) n2,
                          CAST(count(*) AS BIGINT) nd2,
                          CAST(max(c) AS BIGINT) top2
                   FROM gc GROUP BY doc_id),
            fr AS (SELECT s.doc_id, s.n_words,
                          CASE WHEN COALESCE(g.n2, 0) = 0 THEN 0.0
                               ELSE 1.0 - g.nd2 / CAST(g.n2 AS DOUBLE)
                          END AS dup_2gram_frac,
                          CASE WHEN COALESCE(g.n2, 0) = 0 THEN 0.0
                               ELSE g.top2 / CAST(g.n2 AS DOUBLE)
                          END AS top_2gram_frac
                   FROM ws_stats s LEFT JOIN gs g USING (doc_id))
            SELECT doc_id, n_words, dup_2gram_frac, top_2gram_frac
            FROM fr
            WHERE n_words >= 15 AND n_words <= 90
              AND dup_2gram_frac <= 0.06 AND top_2gram_frac <= 0.06
        """,
        "chunk_dedup": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            cj AS (SELECT doc_id, ws,
                          unnest(range(0, CAST(ceil(len(ws)/8.0) AS BIGINT)))
                              AS idx
                   FROM w),
            c AS (SELECT doc_id, idx,
                         array_to_string(list_slice(ws, 8*idx+1,
                                         LEAST(8*idx+8, len(ws))), ' ')
                             AS chunk
                  FROM cj),
            firsts AS (SELECT chunk, min(doc_id*1048576 + idx) AS pk
                       FROM c GROUP BY chunk),
            kept AS (SELECT c.doc_id, c.idx, c.chunk
                     FROM c JOIN firsts f
                     ON c.chunk = f.chunk
                        AND c.doc_id*1048576 + c.idx = f.pk)
            SELECT doc_id, string_agg(chunk, ' ' ORDER BY idx) AS text,
                   CAST(count(*) AS BIGINT) AS n_chunks_kept
            FROM kept GROUP BY doc_id
        """,
        "tfidf_top_terms": """
            WITH w AS (SELECT doc_id, unnest(string_split(text,' ')) AS term
                       FROM documents),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) tf
                   FROM w GROUP BY doc_id, term),
            df AS (SELECT term, CAST(count(*) AS BIGINT) df
                   FROM tf GROUP BY term),
            scored AS (SELECT t.doc_id, t.term, t.tf, d.df,
                              row_number() OVER (
                                  PARTITION BY t.doc_id
                                  ORDER BY CAST(t.tf AS DOUBLE)/d.df DESC,
                                           t.term ASC) rn
                       FROM tf t JOIN df d USING (term))
            SELECT doc_id, term, tf, df FROM scored WHERE rn = 1
        """,
        "bm25_top_docs": """
            WITH w AS (SELECT doc_id, unnest(string_split(text,' ')) AS term
                       FROM documents),
            dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl
                   FROM w GROUP BY doc_id),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                           CAST(sum(dl) AS BIGINT) AS w_total FROM dl),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                   FROM w GROUP BY doc_id, term),
            dft AS (SELECT term, CAST(count(*) AS BIGINT) AS df
                    FROM tf GROUP BY term),
            ranked AS (SELECT t.term, t.doc_id, t.tf, f.df, d.dl,
                              row_number() OVER (
                                  PARTITION BY t.term
                                  ORDER BY CAST(tot.w_total
                                                + 3*tot.n_docs*d.dl
                                                AS DOUBLE)
                                           / CAST(t.tf AS DOUBLE) ASC,
                                           t.doc_id ASC) AS rank
                       FROM tf t
                       JOIN dl d ON t.doc_id = d.doc_id
                       JOIN dft f ON t.term = f.term
                       CROSS JOIN tot)
            SELECT term, doc_id, tf, df, dl, rank
            FROM ranked WHERE rank <= 3
        """,
        "triangle_counts": """
            WITH e AS (
              SELECT d1.source, d1.lang,
                     d1.doc_id AS id_a, d2.doc_id AS id_b
              FROM documents d1 JOIN documents d2
                ON d1.source = d2.source AND d1.lang = d2.lang
               AND d1.doc_id < d2.doc_id
               AND abs(d1.n_chars - d2.n_chars) <= 60)
            SELECT e1.source, e1.lang,
                   CAST(count(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.source = e1.source AND e2.lang = e1.lang
                     AND e2.id_a = e1.id_a AND e2.id_b > e1.id_b
            JOIN e e3 ON e3.source = e1.source AND e3.lang = e1.lang
                     AND e3.id_a = e1.id_b AND e3.id_b = e2.id_b
            GROUP BY e1.source, e1.lang
        """,
        "chars_width_histogram": """
            SELECT source,
                   CAST(n_chars // 100 AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM documents
            GROUP BY source, n_chars // 100
        """,
        "dup_span_stats": """
            WITH ws AS (SELECT doc_id, string_split(text, ' ') AS w
                        FROM documents),
            pos AS (SELECT doc_id, w,
                           unnest(generate_series(1, len(w) - 4)) AS i
                    FROM ws),
            grams AS (SELECT doc_id,
                             array_to_string(w[i:i+4], ' ') AS gram
                      FROM pos),
            gc AS (SELECT gram, count(*) AS cnt FROM grams GROUP BY gram)
            SELECT g.doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(sum(CASE WHEN c.cnt > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup_grams
            FROM grams g JOIN gc c ON g.gram = c.gram
            GROUP BY g.doc_id
        """,
        "cross_source_overlap": """
            WITH ws AS (SELECT source, string_split(text, ' ') AS w
                        FROM documents),
            pos AS (SELECT source, w,
                           unnest(generate_series(1, len(w) - 7)) AS i
                    FROM ws),
            g AS (SELECT DISTINCT source,
                         array_to_string(w[i:i+7], ' ') AS gram
                  FROM pos)
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(count(*) AS BIGINT) AS shared_ngrams
            FROM g a JOIN g b
              ON a.gram = b.gram AND a.source < b.source
            GROUP BY 1, 2
        """,
        "vocab_jaccard": """
            WITH ws AS (SELECT DISTINCT source,
                               unnest(string_split(text, ' ')) AS w
                        FROM documents),
            cnt AS (SELECT source, CAST(count(*) AS BIGINT) AS c
                    FROM ws GROUP BY source),
            inter AS (SELECT a.source AS sa, b.source AS sb,
                             CAST(count(*) AS BIGINT) AS i
                      FROM ws a JOIN ws b
                        ON a.w = b.w AND a.source < b.source
                      GROUP BY 1, 2)
            SELECT sa AS source_a, sb AS source_b,
                   i AS inter_words,
                   ca.c + cb.c - i AS union_words,
                   CAST(i AS DOUBLE) / CAST(ca.c + cb.c - i AS DOUBLE)
                       AS jaccard
            FROM inter
            JOIN cnt ca ON ca.source = sa
            JOIN cnt cb ON cb.source = sb
        """,
        "chars_iqr_outliers": """
            WITH q AS (SELECT source,
                              CAST(quantile_disc(n_chars, 0.25)
                                   AS BIGINT) AS q1,
                              CAST(quantile_disc(n_chars, 0.75)
                                   AS BIGINT) AS q3
                       FROM documents GROUP BY source)
            SELECT d.source, q.q1, q.q3,
                   CAST(count(*) FILTER (
                       WHERE 2 * d.n_chars < 2 * q.q1 - 3 * (q.q3 - q.q1)
                          OR 2 * d.n_chars > 2 * q.q3 + 3 * (q.q3 - q.q1))
                        AS BIGINT) AS n_outliers,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM documents d JOIN q ON d.source = q.source
            GROUP BY 1, 2, 3
        """,
        "range_window_sums": """
            SELECT event_id, user_id,
                   CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING
                             AND CURRENT ROW) AS BIGINT) AS win_cents
            FROM events
        """,
        "doc_stats_by_source": """
            SELECT source,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   sum(n_chars) * 1.0 / count(*) AS avg_chars
            FROM documents GROUP BY source
        """,
        "lang_histogram": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
        """,
        "doc_size_buckets": """
            SELECT CASE WHEN n_chars < 100 THEN 'small'
                        WHEN n_chars < 300 THEN 'medium'
                        ELSE 'large' END AS bucket,
                   count(*) AS n_docs
            FROM documents GROUP BY 1
        """,
        "token_counts": """
            SELECT doc_id,
                   CASE WHEN length(text) = 0 THEN 0
                        ELSE length(text) - length(replace(text, ' ', '')) + 1
                   END AS n_tokens
            FROM documents
        """,
        "bpe_token_counts": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                       '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s'']+|''|\s+')) AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "quality_scores": """
            WITH t AS (
              SELECT doc_id,
                     length(text) AS n_chars_calc,
                     CASE WHEN length(text) = 0 THEN 0
                          ELSE length(text) - length(replace(text, ' ', '')) + 1
                     END AS n_tokens,
                     length(replace(text, ' ', '')) AS nonspace
              FROM documents)
            SELECT doc_id, n_chars_calc, n_tokens,
                   CASE WHEN n_tokens > 0 THEN nonspace * 1.0 / n_tokens
                        ELSE 0.0 END AS avg_token_len,
                   least(1.0, n_tokens / 100.0) *
                   (CASE WHEN (CASE WHEN n_tokens > 0
                               THEN nonspace * 1.0 / n_tokens ELSE 0.0 END)
                              BETWEEN 2.0 AND 10.0
                         THEN 1.0 ELSE 0.5 END) AS quality_score
            FROM t
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY text
        """,
        "normalize_text": r"""
            SELECT doc_id,
                   trim(regexp_replace(regexp_replace(
                       nfc_normalize(text),
                       '[\x00-\x08\x0b-\x1f\x7f]', '', 'g'),
                       '\s+', ' ', 'g')) AS norm_text,
                   CAST(length(trim(regexp_replace(regexp_replace(
                       nfc_normalize(text),
                       '[\x00-\x08\x0b-\x1f\x7f]', '', 'g'),
                       '\s+', ' ', 'g'))) AS BIGINT) AS n_chars_norm
            FROM documents
        """,
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe
              FROM embeddings ORDER BY vec_id LIMIT 10)
            SELECT query_id, vec_id AS neighbor_id,
                   CAST(row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY list_cosine_similarity(qe, embedding) DESC,
                                vec_id ASC) AS BIGINT) AS rank
            FROM embeddings CROSS JOIN q
            WHERE vec_id <> query_id
            QUALIFY rank <= 10
        """,
        "embedding_label_histogram": """
            SELECT label, count(*) AS n_vecs FROM embeddings GROUP BY label
        """,
        "dataset_splits": """
            SELECT doc_id,
                   CASE WHEN (doc_id * 2654435761) % 10 < 8 THEN 'train'
                        WHEN (doc_id * 2654435761) % 10 = 8 THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "deterministic_sample": """
            SELECT doc_id, lang FROM documents
            WHERE (doc_id * 2654435761) % 100 < 10
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM (
              SELECT doc_id, lang,
                     row_number() OVER (PARTITION BY lang ORDER BY doc_id)
                         AS rn
              FROM documents) WHERE rn <= 5
        """,
        "events_hourly": """
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 100, 0) AS BIGINT)
                       AS total_value_cents
            FROM events GROUP BY 1, 2
        """,
        "sessionize": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                                  ORDER BY ts)
                               > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events)
            SELECT user_id,
                   CAST(1 + sum(new_sess) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM d GROUP BY user_id
        """,
        "sessionize_salted": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                                  ORDER BY ts)
                               > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events)
            SELECT user_id,
                   CAST(1 + sum(new_sess) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM d GROUP BY user_id
        """,
        "tpch_q1": """
            SELECT l_returnflag, l_linestatus,
                   CAST(round(sum(l_quantity) * 100, 0) AS BIGINT)
                       AS sum_qty_cents,
                   CAST(round(sum(l_extendedprice) * 100, 0) AS BIGINT)
                       AS sum_base_price_cents,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100,
                              0) AS BIGINT) AS sum_disc_price_cents,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)
                                  * (1 + l_tax)) * 100, 0) AS BIGINT)
                       AS sum_charge_cents,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '2000-01-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "props_k_stats": """
            SELECT event_type,
                   CAST(sum(CAST(regexp_extract(props,
                       '"k": (-?[0-9]+)', 1) AS BIGINT)) AS BIGINT)
                       AS total_k,
                   CAST(max(CAST(regexp_extract(props,
                       '"k": (-?[0-9]+)', 1) AS BIGINT)) AS BIGINT)
                       AS max_k,
                   count(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "customer_order_coverage": """
            WITH oc AS (SELECT o_custkey, CAST(count(*) AS BIGINT)
                            n_orders
                        FROM orders GROUP BY o_custkey)
            SELECT COALESCE(c.c_custkey, oc.o_custkey) AS custkey,
                   COALESCE(oc.n_orders, 0) AS n_orders,
                   c.c_custkey IS NOT NULL AS known_customer
            FROM customer c FULL OUTER JOIN oc
                 ON c.c_custkey = oc.o_custkey
        """,
        "redact_pii": """
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}',
                       '[EMAIL]', 'g'),
                       '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b',
                       '[IP]', 'g'),
                       '(?:\\+?1[ .\\-]?)?(?:\\([0-9]{3}\\)[ .\\-]?|[0-9]{3}[ .\\-])[0-9]{3}[ .\\-][0-9]{4}',
                       '[PHONE]', 'g') AS text
            FROM documents
        """,
        "heavy_hitters": """
            WITH w AS (SELECT unnest(string_split(text, ' ')) AS word
                       FROM documents),
            ww AS (SELECT word FROM w WHERE word <> ''),
            t AS (SELECT count(*) n FROM ww)
            SELECT word, CAST(count(*) AS BIGINT) AS n_occurrences
            FROM ww, t GROUP BY word, t.n
            HAVING count(*) * 30 >= t.n
        """,
        "running_totals": """
            SELECT event_id, user_id,
                   CAST(round(sum(value) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) * 100, 0) AS BIGINT)
                       AS running_cents
            FROM events
        """,
        "shipping_priority": """
            WITH rev AS (
              SELECT l_orderkey,
                     CAST(sum(CAST(round(l_extendedprice * 100, 0)
                                   AS BIGINT)
                              * (100 - CAST(round(l_discount * 100, 0)
                                            AS BIGINT))) AS BIGINT)
                         AS revenue_c4
              FROM lineitem
              WHERE l_shipdate > TIMESTAMP '1998-06-01'
              GROUP BY l_orderkey)
            SELECT o.o_orderkey, r.revenue_c4, o.o_orderdate
            FROM orders o
            JOIN rev r ON r.l_orderkey = o.o_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-06-01'
            ORDER BY r.revenue_c4 DESC, o.o_orderkey
            LIMIT 10
        """,
        "order_priority_counts": """
            SELECT o_orderpriority, count(*) AS n_orders
            FROM orders o
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
              AND EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_shipdate > o.o_orderdate)
            GROUP BY o_orderpriority
        """,
        "large_volume_customers": """
            WITH q AS (
              SELECT l_orderkey,
                     CAST(sum(CAST(round(l_quantity, 0) AS BIGINT))
                          AS BIGINT) AS sum_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(round(l_quantity, 0) AS BIGINT)) > 250)
            SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
                   CAST(round(o.o_totalprice * 100, 0) AS BIGINT)
                       AS totalprice_cents,
                   q.sum_qty
            FROM q
            JOIN orders o ON o.o_orderkey = q.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
        """,
        "orders_above_avg": """
            WITH s AS (
              SELECT o_custkey,
                     CAST(sum(CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT)) AS BIGINT) AS total_cents,
                     count(*) AS n
              FROM orders GROUP BY o_custkey)
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(round(o.o_totalprice * 100, 0) AS BIGINT)
                       AS totalprice_cents
            FROM orders o JOIN s ON s.o_custkey = o.o_custkey
            WHERE CAST(round(o.o_totalprice * 100, 0) AS BIGINT) * s.n
                  > s.total_cents
        """,
        "event_transitions": """
            WITH x AS (SELECT user_id, event_type,
                              lag(event_type) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS prev_type
                       FROM events)
            SELECT prev_type, event_type, count(*) AS n_transitions
            FROM x WHERE prev_type IS NOT NULL
            GROUP BY prev_type, event_type
        """,
        "latest_event_per_user": """
            SELECT user_id, event_id, ts, event_type
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id
                ORDER BY ts DESC, event_id DESC) = 1
        """,
        "chars_percentiles_by_source": """
            SELECT source,
                   CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS p25,
                   CAST(quantile_disc(n_chars, 0.50) AS BIGINT) AS p50,
                   CAST(quantile_disc(n_chars, 0.75) AS BIGINT) AS p75,
                   CAST(quantile_disc(n_chars, 0.95) AS BIGINT) AS p95
            FROM documents GROUP BY source
        """,
        "chars_mode_by_source": """
            WITH h AS (SELECT source, n_chars,
                              CAST(count(*) AS BIGINT) c,
                              max(count(*)) OVER (PARTITION BY source)
                                  AS mx
                       FROM documents GROUP BY source, n_chars)
            SELECT source, CAST(min(n_chars) AS BIGINT) AS mode_value,
                   CAST(min(c) AS BIGINT) AS n_occurrences
            FROM h WHERE c = mx GROUP BY source
        """,
        "doc_cube": """
            SELECT source, lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY CUBE (source, lang)
        """,
        "shared_user_ids": """
            SELECT user_id FROM events
            INTERSECT
            SELECT o_custkey AS user_id FROM orders
        """,
        "except_users": """
            SELECT o_custkey AS user_id FROM orders
            EXCEPT
            SELECT user_id FROM events
        """,
        "cust_order_distribution": """
            WITH c AS (
              SELECT c.c_custkey,
                     CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
              FROM customer c
              LEFT JOIN orders o ON o.o_custkey = c.c_custkey
              GROUP BY c.c_custkey)
            SELECT n_orders, CAST(count(*) AS BIGINT) AS n_customers
            FROM c GROUP BY n_orders
        """,
        "brand_suppliers": """
            SELECT p.p_brand,
                   CAST(count(DISTINCT l.l_suppkey) AS BIGINT)
                       AS n_suppliers
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            GROUP BY p.p_brand
        """,
        "rich_quiet_customers": """
            WITH cc AS (
              SELECT c_custkey,
                     CAST(c_nationkey AS BIGINT) AS nationkey,
                     CAST(round(c_acctbal * 100, 0) AS BIGINT) AS cents
              FROM customer),
            s AS (SELECT CAST(sum(cents) AS BIGINT) AS total_cents,
                         CAST(count(*) AS BIGINT) AS n
                  FROM cc WHERE cents > 0),
            rich AS (SELECT cc.* FROM cc, s
                     WHERE cc.cents * s.n > s.total_cents),
            quiet AS (SELECT r.* FROM rich r
                      WHERE NOT EXISTS (
                          SELECT 1 FROM orders o
                          WHERE o.o_custkey = r.c_custkey
                            AND o.o_totalprice > 300000))
            SELECT nationkey, CAST(count(*) AS BIGINT) AS n_customers,
                   CAST(sum(cents) AS BIGINT) AS total_acctbal_cents
            FROM quiet GROUP BY nationkey
        """,
        "window3_sums": """
            SELECT event_id, user_id,
                   CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                       AS BIGINT) AS w_sum_cents
            FROM events
        """,
        "retention_cohorts_cal": """
            WITH uw AS (SELECT DISTINCT user_id,
                               date_trunc('week', ts) AS wk
                        FROM events),
            c AS (SELECT user_id, wk,
                         min(wk) OVER (PARTITION BY user_id) AS cw
                  FROM uw)
            SELECT CAST(cw AS TIMESTAMP) AS cohort_week,
                   CAST(date_diff('day', cw, wk) // 7 AS BIGINT)
                       AS offset_weeks,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM c GROUP BY 1, 2
        """,
        "user_paths": """
            WITH r AS (SELECT user_id, event_type,
                              row_number() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
                       FROM events),
            p AS (SELECT user_id,
                         string_agg(event_type, '>' ORDER BY rn) AS path
                  FROM r WHERE rn <= 3 GROUP BY user_id)
            SELECT path, CAST(count(*) AS BIGINT) AS n_users
            FROM p GROUP BY path
        """,
        "gram_edit_pairs": """
            WITH g AS (SELECT DISTINCT
                              substr(text, CAST(i AS INT), 4) AS gram
                       FROM documents
                       CROSS JOIN unnest(range(1, len(text)-2)) AS t(i)),
            p AS (
              SELECT a.gram AS ga, b.gram AS gb FROM g a JOIN g b
                ON substr(a.gram,1,2) = substr(b.gram,1,2)
               AND a.gram < b.gram
              UNION
              SELECT a.gram, b.gram FROM g a JOIN g b
                ON substr(a.gram,3,2) = substr(b.gram,3,2)
               AND a.gram < b.gram)
            SELECT ga AS gram_a, gb AS gram_b FROM p
            WHERE levenshtein(ga, gb) = 1
        """,
        "remove_dup_spans": """
            WITH w AS (SELECT doc_id, string_split(text,' ') AS ws
                       FROM documents),
            g AS (SELECT doc_id, CAST(i AS BIGINT) AS i,
                         array_to_string(
                             list_slice(ws, CAST(i AS INT),
                                        CAST(i AS INT)+4), ' ') AS gram
                  FROM w CROSS JOIN unnest(range(1, len(ws)-3)) t(i)),
            c AS (SELECT gram FROM g GROUP BY gram HAVING count(*) > 1),
            cov AS (SELECT DISTINCT doc_id, i + CAST(o AS BIGINT) AS pos
                    FROM g JOIN c USING (gram)
                    CROSS JOIN unnest(range(0, 5)) t2(o)),
            words AS (SELECT doc_id, CAST(i AS BIGINT) AS p,
                             ws[CAST(i AS INT)] AS word
                      FROM w CROSS JOIN unnest(range(1, len(ws)+1)) t(i)),
            kept AS (SELECT wo.doc_id, wo.p, wo.word
                     FROM words wo LEFT JOIN cov
                       ON wo.doc_id = cov.doc_id AND wo.p = cov.pos
                     WHERE cov.pos IS NULL),
            agg AS (SELECT doc_id,
                           string_agg(word, ' ' ORDER BY p) AS ct,
                           CAST(count(*) AS BIGINT) AS n_kept
                    FROM kept GROUP BY doc_id)
            SELECT w.doc_id,
                   coalesce(a.ct, '') AS clean_text,
                   CAST(len(w.ws) - coalesce(a.n_kept, 0) AS BIGINT)
                       AS n_removed
            FROM w LEFT JOIN agg a USING (doc_id)
        """,
        "doc_bfs_hops": """
            WITH RECURSIVE e AS (
              SELECT doc_id AS ua,
                     lead(doc_id) OVER (PARTITION BY source, lang
                                        ORDER BY n_chars, doc_id) AS ub
              FROM documents QUALIFY ub IS NOT NULL),
            sym AS (SELECT ua, ub FROM e UNION SELECT ub, ua FROM e),
            bfs(node, h) AS (
              SELECT doc_id, 0 FROM documents WHERE doc_id % 97 = 0
              UNION
              SELECT s.ub, bfs.h + 1 FROM bfs JOIN sym s
                ON s.ua = bfs.node
              WHERE bfs.h < 6)
            SELECT node AS doc_id, CAST(min(h) AS BIGINT) AS hop
            FROM bfs GROUP BY node
        """,
        "lang_id": _LANG_ID_SQL,
        "lineitem_integrity": """
            WITH p AS (
              SELECT l_orderkey AS k, l_linenumber AS ln, count(*) AS c
              FROM lineitem GROUP BY 1, 2),
            g AS (
              SELECT k, count(*) AS n, max(ln) AS mx,
                     sum(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS dups
              FROM p GROUP BY k)
            SELECT CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CASE WHEN mx <> n THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_gapped,
                   CAST(sum(dups) AS BIGINT) AS n_dup_keys
            FROM g
        """,
        "supplier_fill_rate": """
            WITH m AS (
              SELECT l.l_suppkey,
                     CASE WHEN datediff('day', o.o_orderdate,
                                        l.l_shipdate) <= 30
                          THEN 1 ELSE 0 END AS ontime
              FROM lineitem l JOIN orders o
                ON o.o_orderkey = l.l_orderkey)
            SELECT l_suppkey,
                   CAST(sum(ontime) AS BIGINT) AS on_time,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(ontime) * 1000000 // count(*) AS BIGINT)
                       AS fill_ppm
            FROM m GROUP BY l_suppkey
        """,
        "revenue_concentration": """
            WITH pc AS (
              SELECT o_custkey,
                     CAST(sum(CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY o_custkey),
            s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(cents) AS BIGINT) AS total,
                         CAST((count(*) + 99) // 100 AS BIGINT) AS k
                  FROM pc),
            r AS (SELECT cents, row_number() OVER (
                      ORDER BY cents DESC, o_custkey ASC) AS rk
                  FROM pc)
            SELECT s.n AS n_customers, s.k AS top_k,
                   CAST((SELECT sum(cents) FROM r WHERE rk <= s.k)
                        AS BIGINT) AS top_cents,
                   s.total AS total_cents,
                   CAST((SELECT sum(cents) FROM r WHERE rk <= s.k)
                        * 1000000 // s.total AS BIGINT) AS share_ppm
            FROM s WHERE s.n > 0 AND s.total > 0
        """,
        "sliding_distinct_users": """
            WITH hu AS (
              SELECT DISTINCT
                     CAST(epoch(date_trunc('hour', ts)) // 3600
                          AS BIGINT) AS hr,
                     user_id
              FROM events),
            w AS (
              SELECT hu.hr + k.k AS win, hu.user_id
              FROM hu CROSS JOIN (SELECT unnest([0, 1, 2]) AS k) k)
            SELECT win AS hr,
                   CAST(count(DISTINCT user_id) AS BIGINT)
                       AS n_users_3h
            FROM w WHERE win IN (SELECT hr FROM hu)
            GROUP BY win
        """,
        "welch_t_value": """
            WITH v AS (
              SELECT user_id % 2 AS variant,
                     CAST(round(value * 1000, 0) AS BIGINT) AS x
              FROM events),
            s AS (
              SELECT variant, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(x) AS BIGINT) AS s1,
                     sum(CAST(x AS HUGEINT) * x) AS s2
              FROM v GROUP BY variant),
            p AS (
              SELECT max(CASE WHEN variant = 0 THEN n END) AS na,
                     max(CASE WHEN variant = 0 THEN s1 END) AS s1a,
                     max(CASE WHEN variant = 0 THEN s2 END) AS s2a,
                     max(CASE WHEN variant = 1 THEN n END) AS nb,
                     max(CASE WHEN variant = 1 THEN s1 END) AS s1b,
                     max(CASE WHEN variant = 1 THEN s2 END) AS s2b
              FROM s),
            f AS (
              SELECT na, nb,
                     CAST(s1a AS DOUBLE) / na AS ma,
                     CAST(s1b AS DOUBLE) / nb AS mb,
                     (CAST(s2a AS DOUBLE) / na
                      - (CAST(s1a AS DOUBLE) / na)
                        * (CAST(s1a AS DOUBLE) / na)) * na / (na - 1)
                         AS va,
                     (CAST(s2b AS DOUBLE) / nb
                      - (CAST(s1b AS DOUBLE) / nb)
                        * (CAST(s1b AS DOUBLE) / nb)) * nb / (nb - 1)
                         AS vb
              FROM p WHERE na >= 2 AND nb >= 2)
            SELECT na AS n_a, nb AS n_b,
                   CAST(floor((ma - mb) / sqrt(va / na + vb / nb)
                              * 1000000 + 0.5) AS BIGINT) AS t_micro
            FROM f
        """,
        "effective_langs": """
            WITH c AS (SELECT source, lang, count(*) AS n
                       FROM documents GROUP BY source, lang),
            s AS (SELECT source, SUM(n) AS t, SUM(n * n) AS ssq
                  FROM c GROUP BY source)
            SELECT source, CAST(t AS BIGINT) AS n_docs,
                   CAST(t * t * 1000000 // ssq AS BIGINT)
                       AS effective_langs_ppm
            FROM s
        """,
        "lang_confusion": """
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(
                         string_split_regex(lower(text), '\\s+'),
                         x -> x <> '')) AS w
              FROM documents),
            h AS (SELECT doc_id,
                   sum(CASE WHEN w IN ('auch', 'das', 'den', 'der', 'die', 'ein', 'eine', 'im', 'ist', 'mit', 'nicht', 'und', 'von', 'zu')
                            THEN 1 ELSE 0 END) AS de,
                   sum(CASE WHEN w IN ('a', 'and', 'are', 'at', 'for', 'in', 'is', 'it', 'of', 'on', 'that', 'the', 'this', 'to', 'was', 'with')
                            THEN 1 ELSE 0 END) AS en,
                   sum(CASE WHEN w IN ('con', 'de', 'del', 'el', 'en', 'es', 'las', 'los', 'para', 'por', 'se', 'un', 'una', 'y')
                            THEN 1 ELSE 0 END) AS es,
                   sum(CASE WHEN w IN ('au', 'dans', 'de', 'du', 'en', 'est', 'et', 'la', 'le', 'les', 'pour', 'que', 'un', 'une')
                            THEN 1 ELSE 0 END) AS fr,
                   sum(CASE WHEN w IN ('a', 'az', 'de', 'egy', 'el', 'ez', 'hogy', 'is', 'meg', 'nem', 'van', 'és')
                            THEN 1 ELSE 0 END) AS hu
                  FROM w GROUP BY doc_id),
            j AS (SELECT d.doc_id,
                         COALESCE(d.lang, 'und') AS declared,
                         COALESCE(h.de,0) AS de, COALESCE(h.en,0) AS en,
                         COALESCE(h.es,0) AS es, COALESCE(h.fr,0) AS fr,
                         COALESCE(h.hu,0) AS hu
                  FROM documents d LEFT JOIN h USING (doc_id)),
            u AS (SELECT doc_id, 'de' AS lang, de AS hits FROM j
                  UNION ALL SELECT doc_id, 'en', en FROM j
                  UNION ALL SELECT doc_id, 'es', es FROM j
                  UNION ALL SELECT doc_id, 'fr', fr FROM j
                  UNION ALL SELECT doc_id, 'hu', hu FROM j),
            b AS (SELECT doc_id, lang, hits,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY hits DESC, lang)
                             AS rn
                  FROM u)
            SELECT j.declared,
                   CASE WHEN b.hits > 0 THEN b.lang ELSE 'und' END
                       AS predicted,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM b JOIN j USING (doc_id) WHERE b.rn = 1
            GROUP BY 1, 2
        """,
        "url_templates": """
            WITH u AS (
              SELECT lower(COALESCE(source, '')) || '.example.com'
                         AS host,
                     regexp_replace('/' || COALESCE(lang, 'und')
                         || '/a' || CAST(doc_id % 7 AS VARCHAR)
                         || '/item' || CAST(doc_id AS VARCHAR)
                         || '.html', '[0-9]+', 'N', 'g') AS template
              FROM documents)
            SELECT host, template,
                   CAST(count(*) AS BIGINT) AS n_urls
            FROM u GROUP BY host, template
        """,
        "rfm_segments": """
            WITH pc AS (
              SELECT o_custkey, max(o_orderdate) AS last_d,
                     count(*) AS n,
                     CAST(sum(CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY o_custkey),
            g AS (SELECT max(o_orderdate) AS gmax FROM orders)
            SELECT CAST(CASE WHEN datediff('day', last_d, gmax) <= 90
                             THEN 1 ELSE 0 END AS BIGINT) AS recent,
                   CAST(CASE WHEN n >= 10 THEN 1 ELSE 0 END AS BIGINT)
                       AS frequent,
                   CAST(CASE WHEN cents >= 10000000 THEN 1 ELSE 0 END
                        AS BIGINT) AS big,
                   CAST(count(*) AS BIGINT) AS n_customers
            FROM pc CROSS JOIN g
            GROUP BY 1, 2, 3
        """,
        "events_dow_hour": """
            SELECT CAST(dayofweek(ts) AS BIGINT) AS dow,
                   CAST(hour(ts) AS BIGINT) AS hr,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "order_sla_breach": """
            WITH f AS (SELECT l_orderkey, min(l_shipdate) AS first_ship
                       FROM lineitem GROUP BY 1),
            j AS (SELECT o.o_orderdate, f.first_ship
                  FROM orders o JOIN f ON f.l_orderkey = o.o_orderkey)
            SELECT CAST((year(o_orderdate) - 1970) * 12
                        + month(o_orderdate) - 1 AS BIGINT) AS month,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CASE WHEN datediff('day', o_orderdate,
                                               first_ship) > 30
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_breach,
                   CAST(sum(CASE WHEN datediff('day', o_orderdate,
                                               first_ship) > 30
                                 THEN 1 ELSE 0 END) * 1000000
                        // count(*) AS BIGINT) AS breach_ppm
            FROM j GROUP BY 1
        """,
        "zipf_slope": """
            WITH w AS (
              SELECT word, count(*) AS n FROM (
                SELECT unnest(string_split(COALESCE(text, ''), ' '))
                    AS word FROM documents)
              WHERE word <> '' GROUP BY word),
            top AS (
              SELECT n, row_number() OVER (ORDER BY n DESC, word ASC)
                         AS rk
              FROM w ORDER BY n DESC, word ASC LIMIT 100),
            s AS (
              SELECT CAST(count(*) AS BIGINT) AS k,
                     sum(ln(CAST(rk AS DOUBLE))) AS sx,
                     sum(ln(CAST(n AS DOUBLE))) AS sy,
                     sum(ln(CAST(rk AS DOUBLE))
                         * ln(CAST(n AS DOUBLE))) AS sxy,
                     sum(ln(CAST(rk AS DOUBLE))
                         * ln(CAST(rk AS DOUBLE))) AS sxx
              FROM top)
            SELECT k AS n_words,
                   CAST(floor((k * sxy - sx * sy) / (k * sxx - sx * sx)
                              * 1000000 + 0.5) AS BIGINT)
                       AS slope_micro
            FROM s WHERE k >= 2
        """,
        "char_class_mix": """
            WITH s AS (SELECT COALESCE(source, '') AS source,
                              COALESCE(text, '') AS t FROM documents),
            g AS (SELECT source,
                         CAST(sum(length(t)) AS BIGINT) AS total,
                         CAST(sum(length(regexp_replace(
                             t, '[^A-Za-z]', '', 'g'))) AS BIGINT) AS a,
                         CAST(sum(length(regexp_replace(
                             t, '[^0-9]', '', 'g'))) AS BIGINT) AS d,
                         CAST(sum(length(t)
                              - length(replace(t, ' ', '')))
                              AS BIGINT) AS sp
                  FROM s GROUP BY source)
            SELECT source, total AS n_chars_total,
                   CAST(CASE WHEN total > 0 THEN a * 1000000 // total
                             ELSE 0 END AS BIGINT) AS alpha_ppm,
                   CAST(CASE WHEN total > 0 THEN d * 1000000 // total
                             ELSE 0 END AS BIGINT) AS digit_ppm,
                   CAST(CASE WHEN total > 0 THEN sp * 1000000 // total
                             ELSE 0 END AS BIGINT) AS space_ppm
            FROM g
        """,
        "host_lorenz": """
            WITH c AS (SELECT count(*) AS n FROM documents
                       GROUP BY source),
            s AS (SELECT CAST(count(*) AS BIGINT) AS k,
                         CAST(sum(n) AS BIGINT) AS tot FROM c),
            o AS (SELECT n, row_number() OVER (ORDER BY n) AS rn
                  FROM c),
            d AS (SELECT unnest(range(1, 11)) AS decile),
            j AS (SELECT d.decile, s.k, s.tot,
                         (SELECT COALESCE(sum(o.n), 0) FROM o
                          WHERE o.rn <= d.decile * s.k // 10) AS dc
                  FROM d CROSS JOIN s)
            SELECT CAST(decile AS BIGINT) AS decile,
                   CAST(decile * k // 10 AS BIGINT) AS n_hosts_cum,
                   CAST(dc AS BIGINT) AS docs_cum,
                   CAST(CASE WHEN tot > 0 THEN dc * 1000000 // tot
                             ELSE 0 END AS BIGINT) AS share_ppm
            FROM j
        """,
        "split_leakage_report": """
            WITH s AS (
              SELECT COALESCE(text, '') AS t,
                     CASE WHEN (doc_id * 2654435761) % 10 < 8
                          THEN 1 ELSE 0 END AS is_train
              FROM documents),
            g AS (
              SELECT t, CAST(sum(is_train) AS BIGINT) AS n_train,
                     CAST(sum(1 - is_train) AS BIGINT) AS n_eval
              FROM s GROUP BY t)
            SELECT CAST(sum(CASE WHEN n_train > 0 THEN n_eval
                                 ELSE 0 END) AS BIGINT)
                       AS eval_docs_leaked,
                   CAST(sum(CASE WHEN n_train > 0 AND n_eval > 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS texts_leaked,
                   CAST(sum(n_train * n_eval) AS BIGINT) AS leak_pairs
            FROM g
        """,
        "harmonic_mean_chars": """
            WITH v AS (SELECT COALESCE(source, '') AS source, n_chars
                       FROM documents WHERE n_chars > 0)
            SELECT source, CAST(count(*) AS BIGINT) AS n_pos,
                   CAST(floor(count(*) / sum(1.0 / n_chars) * 1000
                              + 0.5) AS BIGINT)
                       AS harmonic_mean_milli
            FROM v GROUP BY source
        """,
        "host_balance_gini": """
            WITH c AS (SELECT count(*) AS n FROM documents
                       GROUP BY source),
            o AS (SELECT n,
                         row_number() OVER (ORDER BY n) - 1 AS i,
                         count(*) OVER () AS k,
                         sum(n) OVER () AS tot
                  FROM c),
            s AS (SELECT CAST(sum((2 * i - k + 1) * n) AS BIGINT)
                             AS gmd_num,
                         CAST(max(k) AS BIGINT) AS k,
                         CAST(max(tot) AS BIGINT) AS tot
                  FROM o)
            SELECT k AS n_hosts, tot AS n_docs,
                   CAST(gmd_num * k * 1000000
                        // ((k * (k - 1) // 2) * 2 * tot) AS BIGINT)
                       AS gini_ppm
            FROM s WHERE k >= 2 AND tot > 0
        """,
        "crawl_budget": """
            WITH c AS (SELECT COALESCE(source, '') AS source,
                              CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY 1),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS tot,
                         CAST(10000 AS BIGINT) AS b FROM c),
            a AS (SELECT source, n,
                         CAST(b * n // tot AS BIGINT) AS base,
                         CAST(b * n % tot AS BIGINT) AS rem
                  FROM c CROSS JOIN t),
            r AS (SELECT *, row_number() OVER (
                      ORDER BY rem DESC, source ASC) AS rk FROM a),
            e AS (SELECT CAST((SELECT b FROM t)
                              - (SELECT sum(base) FROM a) AS BIGINT)
                             AS extra)
            SELECT source, n AS n_docs,
                   CAST(base + CASE WHEN rk <= extra THEN 1 ELSE 0 END
                        AS BIGINT) AS quota
            FROM r CROSS JOIN e
        """,
        "event_bigram_perplexity": """
            WITH x AS (SELECT user_id, event_type,
                              lag(event_type) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS prev_type
                       FROM events),
            cnt AS (SELECT prev_type, event_type,
                           CAST(count(*) AS BIGINT) AS c
                    FROM x WHERE prev_type IS NOT NULL
                    GROUP BY prev_type, event_type),
            tot AS (SELECT prev_type, CAST(sum(c) AS BIGINT) AS tp
                    FROM cnt GROUP BY prev_type),
            s AS (SELECT CAST(sum(c) AS BIGINT) AS n,
                         sum(c * ln(CAST(c AS DOUBLE) / tp)) AS ll
                  FROM cnt JOIN tot USING (prev_type))
            SELECT n AS n_transitions,
                   CAST(floor(exp(-ll / n) * 1000000 + 0.5) AS BIGINT)
                       AS perplexity_micro
            FROM s WHERE n > 0
        """,
        "dup_rate_by_source": """
            WITH g AS (
              SELECT COALESCE(source, '') AS source,
                     COALESCE(text, '') AS t, count(*) AS c
              FROM documents GROUP BY 1, 2)
            SELECT source, CAST(sum(c) AS BIGINT) AS n_docs,
                   CAST(count(*) AS BIGINT) AS n_unique,
                   CAST((sum(c) - count(*)) * 1000000 // sum(c)
                        AS BIGINT) AS dup_ppm
            FROM g GROUP BY source
        """,
        "hourly_autocorr": """
            WITH h AS (
              SELECT date_trunc('hour', ts) AS hr,
                     CAST(count(*) AS BIGINT) AS c
              FROM events GROUP BY hr),
            p AS (
              SELECT a.c AS x, b.c AS y
              FROM h a JOIN h b ON b.hr = a.hr + INTERVAL 1 HOUR),
            s AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(x) AS BIGINT) AS sx,
                     CAST(sum(y) AS BIGINT) AS sy,
                     CAST(sum(x * y) AS BIGINT) AS sxy,
                     CAST(sum(x * x) AS BIGINT) AS sxx,
                     CAST(sum(y * y) AS BIGINT) AS syy
              FROM p)
            SELECT n AS n_pairs,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                     / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                        * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS lag1_corr
            FROM s
            WHERE n > 1 AND n * sxx - sx * sx > 0
              AND n * syy - sy * sy > 0
        """,
        "tld_rollup": """
            WITH u AS (
              SELECT lower(COALESCE(source, '')) || '.example.' ||
                     CASE doc_id % 4 WHEN 0 THEN 'com'
                                     WHEN 1 THEN 'org'
                                     WHEN 2 THEN 'net'
                                     ELSE 'io' END AS host
              FROM documents),
            h AS (SELECT host, count(*) AS n FROM u GROUP BY host)
            SELECT regexp_extract(host, '\\.([^.]+)$', 1) AS tld,
                   CAST(count(*) AS BIGINT) AS n_hosts,
                   CAST(sum(n) AS BIGINT) AS n_docs
            FROM h GROUP BY tld
        """,
        "orders_profile_long": """
            SELECT 'o_orderkey' AS column,
                   CAST(count(o_orderkey) AS BIGINT) AS n_nonnull,
                   CAST(min(o_orderkey) AS BIGINT) AS min_v,
                   CAST(max(o_orderkey) AS BIGINT) AS max_v
            FROM orders
            UNION ALL
            SELECT 'o_custkey',
                   CAST(count(o_custkey) AS BIGINT),
                   CAST(min(o_custkey) AS BIGINT),
                   CAST(max(o_custkey) AS BIGINT)
            FROM orders
            UNION ALL
            SELECT 'o_totalprice_cents',
                   CAST(count(o_totalprice) AS BIGINT),
                   CAST(min(CAST(round(o_totalprice * 100, 0) AS BIGINT))
                        AS BIGINT),
                   CAST(max(CAST(round(o_totalprice * 100, 0) AS BIGINT))
                        AS BIGINT)
            FROM orders
        """,
        "sentence_stats": """
            WITH s AS (
              SELECT COALESCE(source, '') AS source,
                     CAST(len(string_split(COALESCE(text, ''), '. '))
                          AS BIGINT) AS n_sent
              FROM documents)
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_sent) AS BIGINT) AS total_sentences,
                   CAST(max(n_sent) AS BIGINT) AS max_sentences
            FROM s GROUP BY source
        """,
        "session_stats": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                                  ORDER BY ts)
                               > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events),
            s AS (
              SELECT user_id,
                     sum(new_sess) OVER (PARTITION BY user_id
                                         ORDER BY ts
                                         ROWS UNBOUNDED PRECEDING)
                         AS sess_id
              FROM d),
            sess AS (
              SELECT user_id, sess_id, count(*) AS len
              FROM s GROUP BY user_id, sess_id)
            SELECT CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(CASE WHEN len = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_bounce,
                   CAST(sum(CASE WHEN len = 1 THEN 1 ELSE 0 END)
                        * 1000000 // count(*) AS BIGINT) AS bounce_ppm,
                   CAST(max(len) AS BIGINT) AS max_session_events,
                   CAST(sum(len) * 1000 // count(*) AS BIGINT)
                       AS avg_session_events_milli
            FROM sess
        """,
        "robots_audit": """
            WITH m AS (
              SELECT lower(COALESCE(source, '')) || '.example.com'
                         AS host,
                     CASE WHEN length(COALESCE(source, '')) % 2 = 0
                               AND doc_id % 13 IN (0, 1, 2)
                          THEN 1 ELSE 0 END AS blocked
              FROM documents)
            SELECT host, CAST(count(*) AS BIGINT) AS n_urls,
                   CAST(count(*) - sum(blocked) AS BIGINT) AS n_allowed,
                   CAST(sum(blocked) AS BIGINT) AS n_blocked
            FROM m GROUP BY host
        """,
        "snapshot_schema_union": """
            WITH a AS (SELECT doc_id, text, lang FROM documents
                       WHERE doc_id % 2 = 0),
            b AS (SELECT doc_id, text, source, n_chars FROM documents
                  WHERE doc_id % 2 = 1),
            u AS (SELECT * FROM a UNION ALL BY NAME FROM b)
            SELECT CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(text) AS BIGINT) AS text_nonnull,
                   CAST(count(lang) AS BIGINT) AS lang_nonnull,
                   CAST(count(source) AS BIGINT) AS source_nonnull,
                   CAST(count(n_chars) AS BIGINT) AS n_chars_nonnull
            FROM u
        """,
        "trimmed_mean_chars": """
            WITH r AS (
              SELECT source, n_chars,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY source) AS n
              FROM documents)
            SELECT source, CAST(max(n) AS BIGINT) AS n_rows,
                   CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(sum(n_chars) * 1000 // count(*) AS BIGINT)
                       AS trimmed_mean_milli
            FROM r
            WHERE rn > n // 10 AND rn <= n - n // 10
            GROUP BY source
        """,
        "oov_rate_report": """
            WITH ww AS (
              SELECT COALESCE(source, '') AS source, word
              FROM (SELECT source,
                           unnest(string_split(COALESCE(text, ''), ' '))
                               AS word
                    FROM documents)
              WHERE word <> ''),
            vocab AS (
              SELECT word FROM (
                SELECT word, count(*) AS c FROM ww GROUP BY word
                ORDER BY c DESC, word ASC LIMIT 1000)),
            per AS (
              SELECT source, count(*) AS n_tokens,
                     sum(CASE WHEN word IN (SELECT word FROM vocab)
                              THEN 0 ELSE 1 END) AS oov_tokens
              FROM ww GROUP BY source)
            SELECT source, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(oov_tokens AS BIGINT) AS oov_tokens,
                   CAST(oov_tokens * 1000000 // n_tokens AS BIGINT)
                       AS oov_ppm
            FROM per
        """,
        "lang_chi2_cells": """
            WITH c AS (SELECT COALESCE(source, 'und') AS source,
                              COALESCE(lang, 'und') AS lang,
                              CAST(count(*) AS HUGEINT) AS o
                       FROM documents GROUP BY 1, 2),
            t AS (SELECT CAST(sum(o) AS HUGEINT) AS n FROM c),
            r AS (SELECT source, CAST(sum(o) AS HUGEINT) AS rs
                  FROM c GROUP BY source),
            l AS (SELECT lang, CAST(sum(o) AS HUGEINT) AS cl
                  FROM c GROUP BY lang)
            SELECT c.source, c.lang, CAST(o AS BIGINT) AS observed,
                   CAST(rs * cl * 1000000 // n AS BIGINT)
                       AS expected_ppm,
                   CAST((o * n - rs * cl) * (o * n - rs * cl) * 1000000
                        // (rs * cl * n) AS BIGINT) AS chi2_term_ppm
            FROM c CROSS JOIN t
            JOIN r ON r.source = c.source
            JOIN l ON l.lang = c.lang
        """,
        "lang_entropy_by_source": """
            WITH c AS (SELECT COALESCE(source, 'und') AS source,
                              COALESCE(lang, 'und') AS lang,
                              count(*) AS o
                       FROM documents GROUP BY 1, 2),
            s AS (SELECT source, sum(o) AS t FROM c GROUP BY source)
            SELECT c.source, CAST(t AS BIGINT) AS n_rows,
                   CAST(floor(sum(-(o * 1.0 / t) * ln(o * 1.0 / t))
                              * 1000000) AS BIGINT) AS entropy_ppm
            FROM c JOIN s USING (source)
            GROUP BY c.source, t
        """,
        "geomean_chars_by_source": """
            WITH v AS (SELECT COALESCE(source, '') AS source, n_chars
                       FROM documents WHERE n_chars > 0)
            SELECT source, CAST(count(*) AS BIGINT) AS n_pos,
                   CAST(floor(exp(sum(ln(n_chars * 1.0)) / count(*))
                              * 1000 + 0.5) AS BIGINT) AS geomean_milli
            FROM v GROUP BY source
        """,
        "url_host_stats": """
            WITH u AS (
              SELECT lower(source) || '.example.com' AS host,
                     COALESCE(lang, 'und') AS lang,
                     CASE WHEN doc_id % 5 = 0 THEN 0 ELSE 3 END AS depth,
                     CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END AS wq
              FROM documents)
            SELECT host,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(depth) AS BIGINT) AS depth_sum,
                   CAST(sum(wq) AS BIGINT) AS with_query,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
            FROM u GROUP BY host
        """,
        "url_normalize_dedup": """
            WITH c AS (
              SELECT lower(source) || '.example.com' AS host,
                     'https://' || lower(source) || '.example.com/p'
                       || CAST(doc_id % 13 AS VARCHAR) || '/x.html?id='
                       || CAST(doc_id % 3 AS VARCHAR) AS norm_url
              FROM documents)
            SELECT host,
                   CAST(count(*) AS BIGINT) AS n_urls,
                   CAST(count(DISTINCT norm_url) AS BIGINT) AS n_distinct,
                   min(norm_url) AS first_url
            FROM c GROUP BY host
        """,
        "quarter_share": """
            WITH f AS (
              SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
                     CAST(quarter(o_orderdate) AS BIGINT) AS q,
                     CAST(sum(CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT)) AS BIGINT)
                         AS revenue_cents
              FROM orders GROUP BY yr, q)
            SELECT yr, q, revenue_cents,
                   CAST(sum(revenue_cents) OVER (PARTITION BY yr)
                        AS BIGINT) AS yr_cents,
                   CAST(CAST(revenue_cents AS HUGEINT) * 1000000
                        // sum(revenue_cents) OVER (PARTITION BY yr)
                        AS BIGINT) AS share_ppm
            FROM f
        """,
        "orders_time_rollup": """
            SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
                   CAST(quarter(o_orderdate) AS BIGINT) AS q,
                   count(*) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100, 0)
                                 AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders
            GROUP BY ROLLUP (yr, q)
        """,
        "stratified_hash_sample": """
            SELECT doc_id, source FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY source
                ORDER BY (doc_id * 2654435761) % 4294967296,
                         doc_id) <= 5
        """,
        "order_size_distribution": """
            WITH c AS (SELECT l_orderkey, count(*) AS n_items
                       FROM lineitem GROUP BY l_orderkey)
            SELECT CAST(n_items AS BIGINT) AS n_items,
                   count(*) AS n_orders
            FROM c GROUP BY n_items
        """,
        "catalog_rowcounts": """
            SELECT 'region' AS table_name, count(*) AS n_rows FROM region
            UNION ALL SELECT 'nation', count(*) FROM nation
            UNION ALL SELECT 'customer', count(*) FROM customer
            UNION ALL SELECT 'supplier', count(*) FROM supplier
            UNION ALL SELECT 'part', count(*) FROM part
            UNION ALL SELECT 'orders', count(*) FROM orders
            UNION ALL SELECT 'lineitem', count(*) FROM lineitem
            UNION ALL SELECT 'events', count(*) FROM events
            UNION ALL SELECT 'documents', count(*) FROM documents
            UNION ALL SELECT 'embeddings', count(*) FROM embeddings
        """,
        "snapshot_diff": """
            WITH oldt AS (SELECT doc_id, text FROM documents
                          WHERE doc_id % 5 <> 0),
            newt AS (SELECT doc_id,
                            CASE WHEN doc_id % 7 = 0
                                 THEN array_to_string(
                                     list_slice(
                                         string_split(text, ' '),
                                         1, 3), ' ')
                                 ELSE text END AS text
                     FROM documents),
            j AS (SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                         o.text AS ot, n.text AS nt
                  FROM oldt o FULL OUTER JOIN newt n
                    ON o.doc_id = n.doc_id)
            SELECT
                CAST(sum(CASE WHEN ot IS NULL THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_added,
                CAST(sum(CASE WHEN nt IS NULL THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_removed,
                CAST(sum(CASE WHEN ot IS NOT NULL AND nt IS NOT NULL
                               AND ot <> nt THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_changed,
                CAST(sum(CASE WHEN ot IS NOT NULL AND nt IS NOT NULL
                               AND ot = nt THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_same
            FROM j
        """,
        "late_event_counts": """
            WITH w AS (
              SELECT user_id,
                     CAST(epoch_us(ts) AS BIGINT) AS t,
                     CAST(epoch_us(max(ts) OVER (
                         PARTITION BY user_id
                         ORDER BY (event_id * 2654435761) % 4294967296,
                                  event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING)) AS BIGINT) AS wm
              FROM events)
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(CASE WHEN wm IS NOT NULL
                                  AND t < wm - 3600000000
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_late
            FROM w GROUP BY user_id
        """,
        "target_mixture_sample": """
            WITH t AS (SELECT source,
                              CAST(sum(n_chars) AS HUGEINT) AS total,
                              CASE WHEN CAST(substr(source, 4) AS INT)
                                        % 2 = 0
                                   THEN 2 ELSE 1 END AS w
                       FROM documents GROUP BY source),
            g AS (SELECT CAST(sum(total) AS HUGEINT) AS grand,
                         CAST(sum(w) AS HUGEINT) AS big_w FROM t),
            thr AS (SELECT source,
                           least(CAST(4294967296 AS HUGEINT),
                                 (CAST(4294967296 AS HUGEINT) * w
                                  * grand) // (big_w * total)) AS thr
                    FROM t, g)
            SELECT d.doc_id, d.source, d.n_chars
            FROM documents d JOIN thr USING (source)
            WHERE (d.doc_id * 2654435761) % 4294967296 < thr.thr
        """,
        "full_coverage_customers": """
            SELECT o_custkey FROM orders
            GROUP BY o_custkey
            HAVING count(DISTINCT o_orderpriority) =
                   (SELECT count(DISTINCT o_orderpriority) FROM orders)
        """,
        "corpus_datacard": """
            SELECT 'n_docs' AS metric, count(*) AS value FROM documents
            UNION ALL SELECT 'n_sources',
                   CAST(count(DISTINCT source) AS BIGINT) FROM documents
            UNION ALL SELECT 'n_langs',
                   CAST(count(DISTINCT lang) AS BIGINT) FROM documents
            UNION ALL SELECT 'total_chars',
                   CAST(sum(n_chars) AS BIGINT) FROM documents
            UNION ALL SELECT 'p50_chars',
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT)
                   FROM documents
            UNION ALL SELECT 'n_dup_docs',
                   CAST(count(*) - count(DISTINCT text) AS BIGINT)
                   FROM documents
            UNION ALL SELECT 'top_lang_count', CAST(max(c) AS BIGINT)
                   FROM (SELECT count(*) AS c FROM documents
                         GROUP BY lang)
        """,
        "ssjoin_containment": """
            WITH w AS (SELECT doc_id, string_split(text,' ') AS ws
                       FROM documents),
            tok AS (SELECT DISTINCT doc_id, g FROM (
                    SELECT doc_id,
                           array_to_string(
                               list_slice(ws, CAST(i AS INT),
                                          CAST(i AS INT)+2), ' ') AS g
                    FROM w CROSS JOIN unnest(range(1, len(ws)-1)) t(i))),
            sz AS (SELECT doc_id, count(*) AS s FROM tok GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS da, b.doc_id AS db,
                             count(*) AS i
                      FROM tok a JOIN tok b
                        ON a.g = b.g AND a.doc_id <> b.doc_id
                      GROUP BY da, db)
            SELECT da AS doc_id_a, db AS doc_id_b,
                   CAST(i AS BIGINT) AS n_inter,
                   CAST(sa.s AS BIGINT) AS n_a
            FROM inter
            JOIN sz sa ON sa.doc_id = da
            WHERE i * 4 >= 3 * sa.s
        """,
        "order_gap_stats": """
            WITH g AS (
              SELECT o_custkey,
                     CAST(epoch_us(o_orderdate) AS BIGINT)
                     - CAST(epoch_us(lag(o_orderdate) OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_orderdate, o_orderkey))
                           AS BIGINT) AS gap_us
              FROM orders)
            SELECT o_custkey, count(*) AS n_gaps,
                   CAST(sum(gap_us) AS BIGINT) AS sum_gap_us
            FROM g WHERE gap_us IS NOT NULL
            GROUP BY o_custkey
        """,
        "above_avg_sources": """
            WITH s AS (SELECT source, CAST(sum(n_chars) AS BIGINT)
                           AS total
                       FROM documents GROUP BY source),
            g AS (SELECT count(*) AS k, CAST(sum(total) AS BIGINT)
                      AS grand FROM s)
            SELECT source, total AS total_chars FROM s, g
            WHERE total * k > grand
        """,
        "order_streaks": """
            WITH o AS (
              SELECT o_custkey,
                     CAST(round(o_totalprice * 100, 0) AS BIGINT) AS p,
                     row_number() OVER w AS rn,
                     CASE WHEN CAST(round(o_totalprice * 100, 0)
                               AS BIGINT)
                             > lag(CAST(round(o_totalprice * 100, 0)
                                        AS BIGINT)) OVER w
                          THEN 0 ELSE 1 END AS brk
              FROM orders
              WINDOW w AS (PARTITION BY o_custkey
                           ORDER BY o_orderdate, o_orderkey)),
            r AS (SELECT o_custkey, rn,
                         sum(brk) OVER (PARTITION BY o_custkey
                                        ORDER BY rn) AS runid
                  FROM o),
            l AS (SELECT o_custkey, runid, count(*) AS len
                  FROM r GROUP BY o_custkey, runid)
            SELECT o_custkey, CAST(max(len) AS BIGINT) AS max_streak
            FROM l GROUP BY o_custkey
        """,
        "cdc_compaction": """
            WITH delta AS (
              SELECT doc_id, 1 AS version,
                     array_to_string(
                         list_slice(string_split(text, ' '), 1, 3),
                         ' ') AS text
              FROM documents WHERE doc_id % 7 = 0),
            allv AS (
              SELECT doc_id, 0 AS version, text FROM documents
              UNION ALL SELECT * FROM delta)
            SELECT doc_id, CAST(version AS BIGINT) AS version, text
            FROM allv
            QUALIFY row_number() OVER (
                PARTITION BY doc_id ORDER BY version DESC) = 1
        """,
        "conversion_latency": """
            WITH m AS (
              SELECT user_id,
                     min(CASE WHEN event_type = 'view' THEN ts END)
                         AS v,
                     min(CASE WHEN event_type = 'purchase' THEN ts END)
                         AS p
              FROM events GROUP BY user_id)
            SELECT user_id,
                   CAST(epoch_us(p) - epoch_us(v) AS BIGINT)
                       AS latency_us
            FROM m WHERE v IS NOT NULL AND p IS NOT NULL
        """,
        "shortest_docs_with_ties": """
            SELECT doc_id, source, n_chars,
                   CAST(rank() OVER (PARTITION BY source
                                     ORDER BY n_chars) AS BIGINT)
                       AS rnk,
                   CAST(dense_rank() OVER (PARTITION BY source
                                           ORDER BY n_chars) AS BIGINT)
                       AS dense_rnk
            FROM documents
            QUALIFY rnk <= 2
        """,
        "order_total_audit": """
            WITH l AS (
              SELECT l_orderkey AS okey,
                     CAST(sum(CAST(round(l_extendedprice*100,0) AS BIGINT)
                          * (100 - CAST(round(l_discount*100,0) AS BIGINT))
                          * (100 + CAST(round(l_tax*100,0) AS BIGINT)))
                          AS BIGINT) AS line_c6
              FROM lineitem GROUP BY l_orderkey),
            o AS (SELECT o_orderkey AS okey,
                         CAST(round(o_totalprice*100,0) AS BIGINT)
                             * 10000 AS hdr_c6
                  FROM orders),
            j AS (SELECT o.okey, hdr_c6, line_c6
                  FROM o LEFT JOIN l USING (okey))
            SELECT count(*) AS n_orders,
                   CAST(count(line_c6) AS BIGINT) AS n_with_lines,
                   CAST(sum(CASE WHEN line_c6 IS NOT NULL
                                  AND hdr_c6 <> line_c6
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_mismatched,
                   CAST(COALESCE(max(abs(hdr_c6 - line_c6)), 0)
                        AS BIGINT) AS max_abs_diff_c6
            FROM j
        """,
        "chars_gmd_by_source": """
            WITH r AS (
              SELECT source, n_chars AS v,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY source) AS n
              FROM documents)
            SELECT source,
                   CAST(sum((2*rn - n - 1) * v) AS BIGINT) AS gmd_num,
                   CAST(max(n) * (max(n) - 1) // 2 AS BIGINT)
                       AS n_pairs
            FROM r GROUP BY source
        """,
        "user_value_integral": """
            WITH w AS (
              SELECT user_id,
                     CAST(round(value * 100, 0) AS BIGINT) AS vc2,
                     (CAST(epoch_us(lead(ts) OVER (
                          PARTITION BY user_id ORDER BY ts, event_id))
                          AS BIGINT)
                      - CAST(epoch_us(ts) AS BIGINT)) // 1000000
                         AS gap_s
              FROM events)
            SELECT user_id,
                   CAST(sum(vc2 * gap_s) AS BIGINT) AS integral_c2s
            FROM w WHERE gap_s IS NOT NULL GROUP BY user_id
        """,
        "weighted_median_price": """
            WITH h AS (
              SELECT l_returnflag,
                     CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                         AS c,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                         AS w
              FROM lineitem GROUP BY l_returnflag, c),
            t AS (SELECT l_returnflag, c, w,
                         sum(w) OVER (PARTITION BY l_returnflag
                                      ORDER BY c) AS cw,
                         sum(w) OVER (PARTITION BY l_returnflag) AS tw
                  FROM h)
            SELECT l_returnflag, CAST(min(c) AS BIGINT) AS wmedian_c2
            FROM t WHERE 2 * cw >= tw GROUP BY l_returnflag
        """,
        "ks_chars": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            h AS (SELECT v,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0
                             END) AS ca,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0
                             END) AS cb
                  FROM t GROUP BY v),
            c AS (SELECT v, sum(ca) OVER (ORDER BY v) AS cuma,
                         sum(cb) OVER (ORDER BY v) AS cumb
                  FROM h),
            n AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM h)
            SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   CAST(max(abs(cuma * nb - cumb * na)) AS BIGINT)
                       AS d_num,
                   CAST(na * nb AS BIGINT) AS d_den
            FROM c, n GROUP BY na, nb
        """,
        "max_drawdown_by_user": """
            WITH e AS (SELECT user_id, ts, event_id,
                              CAST(round(value * 100, 0) AS BIGINT)
                                  AS cents
                       FROM events),
            p AS (SELECT user_id,
                max(cents) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS runmax,
                cents
                FROM e)
            SELECT user_id,
                   CAST(max(runmax - cents) AS BIGINT)
                       AS max_drawdown_cents,
                   count(*) AS n_events
            FROM p GROUP BY user_id
        """,
        "changepoint_by_user": """
            WITH e AS (SELECT user_id, ts, event_id,
                              CAST(round(value * 100, 0) AS BIGINT)
                                  AS cents
                       FROM events WHERE ts IS NOT NULL),
            p AS (SELECT user_id, ts, event_id,
                sum(cents) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS s1,
                row_number() OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS k,
                count(*) OVER (PARTITION BY user_id) AS n,
                sum(cents) OVER (PARTITION BY user_id) AS tot
                FROM e)
            SELECT user_id, CAST(n AS BIGINT) AS n_events,
                   CAST(k AS BIGINT) AS split_k,
                   CAST(abs(s1 * (n - k) - (tot - s1) * k) AS BIGINT)
                       AS gap_num,
                   CAST(k AS BIGINT) AS n1,
                   CAST(n - k AS BIGINT) AS n2
            FROM p WHERE k < n AND n >= 2
            QUALIFY row_number() OVER (PARTITION BY user_id
                ORDER BY abs(s1 * (n - k) - (tot - s1) * k) DESC,
                         k ASC) = 1
        """,
        "ols2_by_source": """
            WITH t AS (SELECT COALESCE(source, '') AS source,
                CASE WHEN length(COALESCE(text, '')) = 0 THEN 0
                     ELSE length(COALESCE(text, ''))
                          - length(replace(COALESCE(text, ''),
                                           ' ', '')) + 1 END AS x,
                (length(COALESCE(text, ''))
                 - length(replace(COALESCE(text, ''), '. ', '')))
                    // 2 AS y,
                COALESCE(n_chars, 0) AS z
                FROM documents),
            m AS (SELECT source, CAST(count(*) AS HUGEINT) AS n,
                CAST(sum(x) AS HUGEINT) AS sx,
                CAST(sum(y) AS HUGEINT) AS sy,
                CAST(sum(z) AS HUGEINT) AS sz,
                CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
                CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy,
                CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
                CAST(sum(CAST(x AS HUGEINT) * z) AS HUGEINT) AS sxz,
                CAST(sum(CAST(y AS HUGEINT) * z) AS HUGEINT) AS syz
                FROM t GROUP BY source),
            d AS (SELECT source, n,
                n*(sxx*syy - sxy*sxy) - sx*(sx*syy - sxy*sy)
                    + sy*(sx*sxy - sxx*sy) AS det,
                sz*(sxx*syy - sxy*sxy) - sx*(sxz*syy - sxy*syz)
                    + sy*(sxz*sxy - sxx*syz) AS d0,
                n*(sxz*syy - sxy*syz) - sz*(sx*syy - sxy*sy)
                    + sy*(sx*syz - sxz*sy) AS d1,
                n*(sxx*syz - sxz*sxy) - sx*(sx*syz - sxz*sy)
                    + sz*(sx*sxy - sxx*sy) AS d2
                FROM m),
            s AS (SELECT source, n,
                CASE WHEN det < 0 THEN -det ELSE det END AS det,
                CASE WHEN det < 0 THEN -d0 ELSE d0 END AS d0,
                CASE WHEN det < 0 THEN -d1 ELSE d1 END AS d1,
                CASE WHEN det < 0 THEN -d2 ELSE d2 END AS d2
                FROM d)
            SELECT source, CAST(n AS BIGINT) AS n,
                CAST(CASE WHEN det = 0 THEN -1
                     WHEN d1 >= 0 THEN d1 * 1000000 // det
                     ELSE -((-d1) * 1000000 // det) END AS BIGINT)
                    AS b_tok_ppm,
                CAST(CASE WHEN det = 0 THEN -1
                     WHEN d2 >= 0 THEN d2 * 1000000 // det
                     ELSE -((-d2) * 1000000 // det) END AS BIGINT)
                    AS b_sent_ppm,
                CAST(CASE WHEN det = 0 THEN -1
                     WHEN d0 >= 0 THEN d0 * 1000000 // det
                     ELSE -((-d0) * 1000000 // det) END AS BIGINT)
                    AS b0_ppm
            FROM s
        """,
        "nfc_audit": """
            SELECT COALESCE(source, '') AS source,
                   count(*) AS n_docs,
                   CAST(sum(CASE WHEN COALESCE(text, '')
                            <> nfc_normalize(COALESCE(text, ''))
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_not_nfc,
                   CAST(sum(CASE WHEN strlen(COALESCE(text, ''))
                            <> length(COALESCE(text, ''))
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_nonascii
            FROM documents GROUP BY 1
        """,
        "orders_by_isoweek": """
            SELECT CAST(isoyear(o_orderdate) AS BIGINT) AS iso_year,
                   CAST(weekofyear(o_orderdate) AS BIGINT) AS iso_week,
                   count(*) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100, 0)
                                 AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders GROUP BY 1, 2
        """,
        "psi_chars_drift": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            b AS (SELECT quantile_disc(v, 0.1) AS b1,
                         quantile_disc(v, 0.2) AS b2,
                         quantile_disc(v, 0.3) AS b3,
                         quantile_disc(v, 0.4) AS b4,
                         quantile_disc(v, 0.5) AS b5,
                         quantile_disc(v, 0.6) AS b6,
                         quantile_disc(v, 0.7) AS b7,
                         quantile_disc(v, 0.8) AS b8,
                         quantile_disc(v, 0.9) AS b9
                  FROM t),
            x AS (SELECT source,
                         (CASE WHEN v > b1 THEN 1 ELSE 0 END
                          + CASE WHEN v > b2 THEN 1 ELSE 0 END
                          + CASE WHEN v > b3 THEN 1 ELSE 0 END
                          + CASE WHEN v > b4 THEN 1 ELSE 0 END
                          + CASE WHEN v > b5 THEN 1 ELSE 0 END
                          + CASE WHEN v > b6 THEN 1 ELSE 0 END
                          + CASE WHEN v > b7 THEN 1 ELSE 0 END
                          + CASE WHEN v > b8 THEN 1 ELSE 0 END
                          + CASE WHEN v > b9 THEN 1 ELSE 0 END) AS bin
                  FROM t, b),
            c AS (SELECT bin,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0
                             END) AS n0,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0
                             END) AS n1
                  FROM x GROUP BY bin),
            n AS (SELECT sum(n0) AS na, sum(n1) AS nb FROM c)
            SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   CAST(count(*) FILTER (n0 > 0 AND n1 > 0) AS BIGINT)
                       AS n_bins_used,
                   CAST(count(*) FILTER ((n0 = 0) <> (n1 = 0))
                        AS BIGINT) AS n_bins_skipped,
                   CAST(floor(COALESCE(sum(
                       CASE WHEN n0 > 0 AND n1 > 0
                            THEN (n0/na - n1/nb) * ln((n0/na) / (n1/nb))
                            ELSE 0 END), 0) * 1000000) AS BIGINT)
                       AS psi_ppm
            FROM c, n GROUP BY na, nb
        """,
        "wet_roundtrip": """
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(COALESCE(text, ''))) AS BIGINT)
                       AS total_chars,
                   min(md5(COALESCE(text, ''))) AS md5_min,
                   min('http://doc/' || CAST(doc_id AS VARCHAR))
                       AS url_min,
                   max('http://doc/' || CAST(doc_id AS VARCHAR))
                       AS url_max
            FROM documents
        """,
        "bucket_merkle_diff": """
            WITH oldt AS (SELECT doc_id, text FROM documents
                          WHERE doc_id % 5 <> 0),
            newt AS (SELECT doc_id,
                            CASE WHEN doc_id % 7 = 0
                                 THEN array_to_string(
                                     list_slice(
                                         string_split(text, ' '),
                                         1, 3), ' ')
                                 ELSE text END AS text
                     FROM documents),
            u AS (SELECT 0 AS side, doc_id, text FROM oldt
                  UNION ALL SELECT 1, doc_id, text FROM newt),
            h AS (SELECT side, doc_id % 64 AS bucket,
                         CAST(concat('0x', substr(md5(concat(
                             CAST(doc_id AS VARCHAR), ':',
                             COALESCE(text, ''))), 1, 15)) AS BIGINT)
                             AS hv
                  FROM u),
            g AS (SELECT bucket, side, bit_xor(hv) AS x, count(*) AS c
                  FROM h GROUP BY bucket, side)
            SELECT bucket,
                   CAST(COALESCE(max(CASE WHEN side = 0 THEN c END), 0)
                        AS BIGINT) AS n_old,
                   CAST(COALESCE(max(CASE WHEN side = 1 THEN c END), 0)
                        AS BIGINT) AS n_new,
                   CAST(COALESCE(max(CASE WHEN side = 0 THEN x END), 0)
                        AS BIGINT) AS xor_old,
                   CAST(COALESCE(max(CASE WHEN side = 1 THEN x END), 0)
                        AS BIGINT) AS xor_new,
                   (COALESCE(max(CASE WHEN side = 0 THEN x END), 0)
                    <> COALESCE(max(CASE WHEN side = 1 THEN x END), 0)
                    OR COALESCE(max(CASE WHEN side = 0 THEN c END), 0)
                    <> COALESCE(max(CASE WHEN side = 1 THEN c END), 0))
                       AS differs
            FROM g GROUP BY bucket
        """,
        "kmv_distinct_users": """
            WITH h AS (SELECT DISTINCT
                           CAST(concat('0x', substr(md5(
                               CAST(user_id AS VARCHAR)), 1, 15))
                                AS BIGINT) AS hv
                       FROM events),
            k AS (SELECT hv FROM h ORDER BY hv LIMIT 64),
            agg AS (SELECT count(*) AS kk, max(hv) AS kth FROM k)
            SELECT CAST(kk AS BIGINT) AS k,
                   CAST(kth AS BIGINT) AS kth_hash,
                   CAST(CASE WHEN kk < 64 THEN kk
                        ELSE (CAST(63 AS HUGEINT)
                              * 1152921504606846976) // kth
                        END AS BIGINT) AS est_distinct
            FROM agg
        """,
        "salting_plan": """
            WITH c AS (SELECT user_id, count(*) AS n_rows
                       FROM events GROUP BY user_id)
            SELECT user_id, CAST(n_rows AS BIGINT) AS n_rows,
                   CAST((n_rows + 59) // 60 AS BIGINT) AS n_salts
            FROM c WHERE n_rows > 60
        """,
        "quantile_map_sources": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            c0 AS (SELECT v, count(*) AS c FROM t
                   WHERE source = 'src0' GROUP BY v),
            c0c AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum0 FROM c0),
            c1 AS (SELECT v, count(*) AS c FROM t
                   WHERE source = 'src1' GROUP BY v),
            c1c AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum1 FROM c1),
            n AS (SELECT (SELECT sum(c) FROM c0) AS n0,
                         (SELECT sum(c) FROM c1) AS n1)
            SELECT c0c.v AS n_chars, CAST(cum0 AS BIGINT) AS n_src0_le,
                   CAST(min(c1c.v) AS BIGINT) AS mapped_chars
            FROM c0c, c1c, n
            WHERE c1c.cum1 * n0 >= c0c.cum0 * n1
            GROUP BY c0c.v, cum0
        """,
        "k_anonymity_audit": """
            WITH g AS (SELECT COALESCE(lang, 'und') AS lang, source,
                              n_chars // 1000 AS size_kb,
                              count(*) AS c
                       FROM documents GROUP BY 1, 2, 3)
            SELECT CAST(5 AS BIGINT) AS k,
                   CAST(count(*) FILTER (c < 5) AS BIGINT)
                       AS groups_below,
                   CAST(COALESCE(sum(c) FILTER (c < 5), 0) AS BIGINT)
                       AS rows_at_risk,
                   CAST(count(*) AS BIGINT) AS n_groups,
                   CAST(COALESCE(sum(c), 0) AS BIGINT) AS n_rows
            FROM g
        """,
        "running_balance": """
            WITH d AS (SELECT event_id, user_id, ts,
                CASE WHEN event_type IN ('purchase', 'error')
                     THEN -CAST(round(value * 100, 0) AS BIGINT)
                     ELSE CAST(round(value * 100, 0) AS BIGINT)
                END AS delta
                FROM events),
            p AS (SELECT event_id, user_id, ts,
                sum(delta) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS pre
                FROM d),
            q AS (SELECT event_id, user_id, pre,
                min(pre) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS runmin
                FROM p)
            SELECT event_id, user_id,
                   CAST(pre - least(runmin, 0) AS BIGINT)
                       AS balance_cents
            FROM q
        """,
        "sequence_motifs": """
            WITH l AS (SELECT user_id, ts, event_id,
                CASE event_type WHEN 'view' THEN 'v'
                     WHEN 'purchase' THEN 'p' WHEN 'click' THEN 'c'
                     WHEN 'signup' THEN 's' WHEN 'error' THEN 'e'
                     ELSE 'x' END AS ch
                FROM events),
            s AS (SELECT user_id,
                         string_agg(ch, '' ORDER BY ts, event_id) AS seq
                  FROM l GROUP BY user_id)
            SELECT m.motif,
                   CAST(count(*) FILTER (
                       regexp_matches(s.seq, m.motif)) AS BIGINT)
                       AS n_users
            FROM (VALUES ('vp'), ('v[cv]*p'), ('pp'), ('se'),
                         ('p.*p.*p')) AS m(motif), s
            GROUP BY m.motif
        """,
        "user_value_locf": """
            WITH e AS (SELECT user_id, date_trunc('hour', ts) AS h, ts,
                              event_id,
                              CAST(round(value * 100, 0) AS BIGINT)
                                  AS cents
                       FROM events
                       WHERE value IS NOT NULL AND ts IS NOT NULL),
            lastv AS (SELECT user_id, h, cents FROM e
                      QUALIFY row_number() OVER (
                          PARTITION BY user_id, h
                          ORDER BY ts DESC, event_id DESC) = 1),
            bounds AS (SELECT user_id, min(h) AS h0, max(h) AS h1
                       FROM e GROUP BY user_id),
            grid AS (SELECT user_id,
                            unnest(generate_series(
                                h0, h1, INTERVAL 1 HOUR)) AS h
                     FROM bounds),
            j AS (SELECT g.user_id, g.h, l.cents
                  FROM grid g LEFT JOIN lastv l
                    ON g.user_id = l.user_id AND g.h = l.h)
            SELECT user_id, h AS hour,
                   CAST(last_value(cents IGNORE NULLS) OVER (
                       PARTITION BY user_id ORDER BY h) AS BIGINT)
                       AS cents_locf
            FROM j
        """,
        "user_burstiness": """
            WITH e AS (SELECT user_id, date_trunc('hour', ts) AS h
                       FROM events WHERE ts IS NOT NULL),
            c AS (SELECT user_id, h, count(*) AS x
                  FROM e GROUP BY user_id, h),
            s AS (SELECT user_id,
                         CAST(date_diff('hour', min(h), max(h)) + 1
                              AS BIGINT) AS n_hours,
                         sum(x) AS s, sum(x * x) AS ssq
                  FROM c GROUP BY user_id)
            SELECT user_id, n_hours, CAST(s AS BIGINT) AS n_events,
                   CAST((n_hours * ssq - s * s) * 1000000
                        // (n_hours * s) AS BIGINT) AS fano_ppm
            FROM s
        """,
        "asof_join_tolerance": """
            WITH v AS (SELECT event_id, user_id, ts FROM events
                       WHERE event_type = 'view'),
            p AS (SELECT user_id AS o_custkey, ts AS o_orderdate,
                         max(event_id) AS o_orderkey
                  FROM events WHERE event_type = 'purchase'
                  GROUP BY user_id, ts)
            SELECT event_id, user_id, ts, o_orderkey, o_orderdate
            FROM (
              SELECT v.event_id, v.user_id, v.ts,
                     p.o_orderkey, p.o_orderdate,
                     row_number() OVER (PARTITION BY v.event_id
                         ORDER BY p.o_orderdate DESC) AS rn
              FROM v JOIN p
                ON v.user_id = p.o_custkey AND v.ts >= p.o_orderdate
                   AND v.ts <= p.o_orderdate + INTERVAL 7 DAY)
            WHERE rn = 1
        """,
        "lang_share_ci": """
            WITH c AS (SELECT COALESCE(lang, 'und') AS lang,
                              count(*) AS k
                       FROM documents GROUP BY 1),
            t AS (SELECT sum(k) AS n FROM c)
            SELECT lang, CAST(k AS BIGINT) AS k, CAST(n AS BIGINT) AS n,
                   CAST(k * 1000000 // n AS BIGINT) AS share_ppm,
                   CAST(floor(((k/n + 1.96*1.96/(2*n))
                               / (1.0 + 1.96*1.96/n)
                               - (1.96 * sqrt(k/n*(1.0 - k/n)/n
                                      + 1.96*1.96/(4.0*n*n)))
                                 / (1.0 + 1.96*1.96/n))
                              * 1000000) AS BIGINT) AS lo_ppm,
                   CAST(floor(((k/n + 1.96*1.96/(2*n))
                               / (1.0 + 1.96*1.96/n)
                               + (1.96 * sqrt(k/n*(1.0 - k/n)/n
                                      + 1.96*1.96/(4.0*n*n)))
                                 / (1.0 + 1.96*1.96/n))
                              * 1000000) AS BIGINT) AS hi_ppm
            FROM c, t
        """,
        "peer_window_sums": """
            WITH e AS (SELECT event_id, user_id, ts,
                              CAST(round(value * 100, 0) AS BIGINT)
                                  AS cents
                       FROM events),
            g AS (SELECT user_id, ts, sum(cents) AS gsum
                  FROM e GROUP BY user_id, ts),
            w AS (SELECT user_id, ts,
                         sum(gsum) OVER (PARTITION BY user_id
                                         ORDER BY ts
                                         ROWS BETWEEN 1 PRECEDING
                                         AND 1 FOLLOWING) AS fsum
                  FROM g)
            SELECT e.event_id, e.user_id,
                   CAST(w.fsum AS BIGINT) AS frame_cents
            FROM e JOIN w ON e.user_id = w.user_id AND e.ts = w.ts
        """,
        "source_jsd": """
            WITH x AS (SELECT source,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents
                       WHERE source IN ('src0', 'src1')),
            c AS (SELECT word,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0
                             END) AS ca,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0
                             END) AS cb
                  FROM x WHERE word <> '' GROUP BY word),
            v AS (SELECT * FROM c ORDER BY ca + cb DESC, word LIMIT 64),
            n AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM v)
            SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   CAST(count(*) AS BIGINT) AS vocab_n,
                   CAST(floor(sum(
                       CASE WHEN ca > 0 THEN
                           0.5 * (ca / na)
                               * ln((ca / na)
                                    / ((ca / na + cb / nb) / 2))
                       ELSE 0 END
                       + CASE WHEN cb > 0 THEN
                           0.5 * (cb / nb)
                               * ln((cb / nb)
                                    / ((ca / na + cb / nb) / 2))
                       ELSE 0 END) * 1000000) AS BIGINT) AS jsd_ppm
            FROM v, n GROUP BY na, nb
        """,
        "emd_chars": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            h AS (SELECT v,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0
                             END) AS ca,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0
                             END) AS cb
                  FROM t GROUP BY v),
            c AS (SELECT v, sum(ca) OVER (ORDER BY v) AS cuma,
                         sum(cb) OVER (ORDER BY v) AS cumb,
                         lead(v) OVER (ORDER BY v) AS nv
                  FROM h),
            n AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM h)
            SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
                   CAST(COALESCE(sum(CASE WHEN nv IS NULL THEN 0
                                     ELSE abs(cuma * nb - cumb * na)
                                          * (nv - v) END), 0) AS BIGINT)
                       AS emd_num,
                   CAST(na * nb AS BIGINT) AS emd_den
            FROM c, n GROUP BY na, nb
        """,
        "score_auc": """
            WITH t AS (SELECT CASE WHEN lang = 'en' THEN 'pos'
                              ELSE 'neg' END AS g, n_chars AS v
                       FROM documents),
            r AS (SELECT g,
                         2 * rank() OVER (ORDER BY v)
                         + count(*) OVER (PARTITION BY v) - 1 AS dr
                  FROM t),
            agg AS (SELECT
                CAST(sum(CASE WHEN g = 'pos' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_pos,
                CAST(sum(CASE WHEN g = 'neg' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_neg,
                CAST(sum(CASE WHEN g = 'pos' THEN dr ELSE 0 END)
                     AS BIGINT) AS two_r
                FROM r)
            SELECT n_pos, n_neg,
                   CAST(two_r - n_pos * (n_pos + 1) AS BIGINT)
                       AS auc_num,
                   CAST(2 * n_pos * n_neg AS BIGINT) AS auc_den,
                   CAST(CASE WHEN n_pos * n_neg > 0
                        THEN (two_r - n_pos * (n_pos + 1)) * 1000000
                             // (2 * n_pos * n_neg)
                        ELSE -1 END AS BIGINT) AS auc_ppm
            FROM agg
        """,
        "scd2_intervals": """
            WITH o AS (SELECT user_id, event_type, ts, event_id,
                CASE WHEN lag(event_type) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id)
                     IS DISTINCT FROM event_type THEN 1 ELSE 0 END
                    AS brk
                FROM events),
            i AS (SELECT user_id, event_type, ts,
                sum(brk) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS island
                FROM o),
            g AS (SELECT user_id, island,
                         min(event_type) AS event_type,
                         min(ts) AS valid_from,
                         count(*) AS n_events
                  FROM i GROUP BY user_id, island)
            SELECT user_id, event_type, valid_from,
                   CAST(COALESCE(epoch_us(lead(valid_from) OVER (
                            PARTITION BY user_id ORDER BY island)), -1)
                        AS BIGINT) AS valid_to_us,
                   CAST(n_events AS BIGINT) AS n_events
            FROM g
        """,
        "user_active_time": """
            WITH g AS (SELECT user_id, ts,
                lead(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS nxt
                FROM events WHERE ts IS NOT NULL)
            SELECT user_id,
                   CAST(sum(CASE WHEN nxt IS NULL THEN 300000000
                            ELSE least(epoch_us(nxt) - epoch_us(ts),
                                       300000000) END) AS BIGINT)
                       AS active_us,
                   count(*) AS n_events
            FROM g GROUP BY user_id
        """,
        "link_common_neighbors": """
            WITH e0 AS (SELECT l_orderkey % 257 AS s,
                               257 + (l_partkey % 257) AS d
                        FROM lineitem),
            e AS (SELECT DISTINCT x, y FROM (
                      SELECT s AS x, d AS y FROM e0
                      UNION ALL SELECT d AS x, s AS y FROM e0)
                  WHERE x <> y),
            deg AS (SELECT x AS node, count(*) AS dg FROM e GROUP BY x),
            cn AS (SELECT e1.y AS a, e2.y AS b,
                          CAST(count(*) AS BIGINT) AS common
                   FROM e e1 JOIN e e2
                     ON e1.x = e2.x AND e1.y < e2.y
                   GROUP BY e1.y, e2.y
                   HAVING count(*) >= 2)
            SELECT a, b, common,
                   CAST(common * 1000000
                        // (da.dg + db.dg - common) AS BIGINT)
                       AS jaccard_ppm
            FROM cn
            JOIN deg da ON da.node = cn.a
            JOIN deg db ON db.node = cn.b
        """,
        "benford_digits": """
            SELECT CAST(substr(CAST(CAST(floor(o_totalprice) AS BIGINT)
                                    AS VARCHAR), 1, 1) AS BIGINT)
                       AS digit,
                   count(*) AS n_orders
            FROM orders GROUP BY digit
        """,
        "mannwhitney_chars": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            r AS (SELECT source,
                         2 * rank() OVER (ORDER BY v)
                         + count(*) OVER (PARTITION BY v) - 1 AS dr
                  FROM t),
            agg AS (SELECT
                CAST(sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_a,
                CAST(sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_b,
                CAST(sum(CASE WHEN source = 'src0' THEN dr ELSE 0 END)
                     AS BIGINT) AS two_r_a
                FROM r)
            SELECT n_a, n_b, two_r_a,
                   CAST(two_r_a - n_a * (n_a + 1) AS BIGINT) AS two_u_a
            FROM agg
        """,
        "lang_source_contingency": """
            WITH c AS (SELECT lang, source, count(*) AS n
                       FROM documents GROUP BY lang, source)
            SELECT lang, source, CAST(n AS BIGINT) AS n,
                   CAST(sum(n) OVER (PARTITION BY lang) AS BIGINT)
                       AS lang_tot,
                   CAST(sum(n) OVER (PARTITION BY source) AS BIGINT)
                       AS src_tot,
                   CAST(sum(n) OVER () AS BIGINT) AS n_total
            FROM c
        """,
        "monthly_revenue_delta": """
            WITH m AS (
              SELECT date_trunc('month', o_orderdate) AS month,
                     CAST(sum(CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT)) AS BIGINT)
                         AS revenue_cents
              FROM orders GROUP BY month)
            SELECT month, revenue_cents,
                   CAST(COALESCE(revenue_cents - lag(revenue_cents)
                                 OVER (ORDER BY month), 0) AS BIGINT)
                       AS delta_cents
            FROM m
        """,
        "weighted_avg_discount": """
            WITH p AS (
              SELECT l_returnflag,
                     CAST(sum(CAST(round(l_discount * 100, 0) AS BIGINT)
                              * CAST(l_quantity AS BIGINT)) AS BIGINT)
                         AS num_c2_qty,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                         AS den_qty
              FROM lineitem GROUP BY l_returnflag)
            SELECT l_returnflag, num_c2_qty, den_qty,
                   CAST(CAST(num_c2_qty AS HUGEINT) * 1000000
                        // den_qty AS BIGINT) AS wavg_disc_ppm_c2
            FROM p
        """,
        "word_length_histogram": """
            SELECT CAST(length(w) AS BIGINT) AS wlen,
                   count(*) AS n_words
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents)
            WHERE length(w) > 0
            GROUP BY wlen
        """,
        "chars_kurtosis_by_source": """
            WITH m AS (
              SELECT source,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s1,
                     CAST(sum(CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s2,
                     CAST(sum(CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s3,
                     CAST(sum(CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s4
              FROM documents GROUP BY source),
            d AS (SELECT source, n, s1, s2, s3, s4,
                         n * s2 - s1 * s1 AS dd FROM m)
            SELECT source,
                   CAST(n*n*n*s4 - 4*n*n*s1*s3 + 6*n*s1*s1*s2
                        - 3*s1*s1*s1*s1 AS DOUBLE)
                   / (CAST(dd AS DOUBLE) * CAST(dd AS DOUBLE)) - 3.0
                       AS kurt
            FROM d WHERE dd > 0
        """,
        "orders_by_dow": """
            SELECT CAST(dayofweek(o_orderdate) AS BIGINT) AS dow,
                   count(*) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders GROUP BY dow
        """,
        "ann_topk_filtered": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe
              FROM embeddings ORDER BY vec_id LIMIT 10)
            SELECT query_id, vec_id AS neighbor_id,
                   CAST(row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY list_cosine_similarity(qe, embedding) DESC,
                                vec_id ASC) AS BIGINT) AS rank
            FROM embeddings CROSS JOIN q
            WHERE vec_id <> query_id AND label = 1
            QUALIFY rank <= 10
        """,
        "asof_join_forward": """
            WITH p AS (
              SELECT user_id AS o_custkey, ts AS o_orderdate,
                     min(event_id) AS o_orderkey
              FROM events WHERE event_type = 'purchase'
              GROUP BY user_id, ts)
            SELECT e.event_id, e.user_id, e.ts, p.o_orderkey, p.o_orderdate
            FROM events e ASOF JOIN p
              ON e.user_id = p.o_custkey AND e.ts <= p.o_orderdate
            WHERE e.event_type = 'view'
        """,
        "record_high_events": """
            SELECT event_id, user_id,
                   CAST(CASE WHEN prev_max IS NULL OR value > prev_max
                             THEN 1 ELSE 0 END AS BIGINT) AS is_record
            FROM (
              SELECT event_id, user_id, value,
                     max(value) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS prev_max
              FROM events)
        """,
        "prefix_dedup_best": """
            WITH p AS (SELECT doc_id, n_chars,
                              array_to_string(
                                  list_slice(string_split(text, ' '),
                                             1, 8), ' ') AS pfx
                       FROM documents)
            SELECT doc_id, n_chars FROM p
            QUALIFY row_number() OVER (
                PARTITION BY pfx ORDER BY n_chars DESC, doc_id) = 1
        """,
        "doc_stats_long": """
            SELECT source, 'n_docs' AS metric, count(*) AS value
            FROM documents GROUP BY source
            UNION ALL
            SELECT source, 'total_chars' AS metric,
                   CAST(sum(n_chars) AS BIGINT) AS value
            FROM documents GROUP BY source
        """,
        "lang_gini_by_source": """
            WITH c AS (SELECT source, lang, count(*) AS n
                       FROM documents GROUP BY source, lang),
            s AS (SELECT source, SUM(n) AS t, SUM(n*n) AS ssq
                  FROM c GROUP BY source)
            SELECT source, CAST(t AS BIGINT) AS n_rows,
                   CAST(ssq AS BIGINT) AS ssq,
                   CAST((t*t - ssq) * 1000000 // (t*t) AS BIGINT)
                       AS gini_ppm
            FROM s
        """,
        "nth_event_per_user": """
            SELECT user_id, event_id, ts, event_type
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id ORDER BY ts, event_id) = 3
        """,
        "brand_copurchase": """
            WITH ob AS (SELECT DISTINCT l_orderkey, p_brand
                        FROM lineitem JOIN part
                          ON p_partkey = l_partkey)
            SELECT a.p_brand AS brand_a, b.p_brand AS brand_b,
                   count(*) AS n_orders
            FROM ob a JOIN ob b
              ON a.l_orderkey = b.l_orderkey
             AND a.p_brand < b.p_brand
            GROUP BY a.p_brand, b.p_brand
        """,
        "pmi_pairs": """
            WITH w AS (SELECT doc_id,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            dw0 AS (SELECT DISTINCT doc_id, word FROM w
                    WHERE word <> ''),
            d AS (SELECT word, count(*) AS df FROM dw0 GROUP BY word),
            v AS (SELECT word, df FROM d
                  ORDER BY df DESC, word LIMIT 64),
            nd AS (SELECT count(*) AS n FROM documents),
            dw AS (SELECT doc_id, word FROM dw0
                   WHERE word IN (SELECT word FROM v)),
            p AS (SELECT a.word AS word_a, b.word AS word_b,
                         count(*) AS c_xy
                  FROM dw a JOIN dw b
                    ON a.doc_id = b.doc_id AND a.word < b.word
                  GROUP BY a.word, b.word)
            SELECT word_a, word_b, CAST(c_xy AS BIGINT) AS n_pair,
                   CAST(c_xy * nd.n * 1000000
                        // (va.df * vb.df) AS BIGINT) AS pmi_ppm
            FROM p
            JOIN v va ON va.word = p.word_a
            JOIN v vb ON vb.word = p.word_b
            CROSS JOIN nd
            ORDER BY pmi_ppm DESC, word_a, word_b
            LIMIT 50
        """,
        "part_skyline": """
            SELECT p_partkey, p_retailprice, p_size FROM part p
            WHERE NOT EXISTS (
                SELECT 1 FROM part q
                WHERE q.p_retailprice <= p.p_retailprice
                  AND q.p_size >= p.p_size
                  AND (q.p_retailprice < p.p_retailprice
                       OR q.p_size > p.p_size))
        """,
        "ssjoin_jaccard": """
            WITH w AS (SELECT doc_id, string_split(text,' ') AS ws
                       FROM documents),
            tok AS (SELECT DISTINCT doc_id, g FROM (
                    SELECT doc_id,
                           array_to_string(
                               list_slice(ws, CAST(i AS INT),
                                          CAST(i AS INT)+2), ' ') AS g
                    FROM w CROSS JOIN unnest(range(1, len(ws)-1)) t(i))),
            sz AS (SELECT doc_id, count(*) AS s FROM tok GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS da, b.doc_id AS db,
                             count(*) AS i
                      FROM tok a JOIN tok b
                        ON a.g = b.g AND a.doc_id < b.doc_id
                      GROUP BY da, db)
            SELECT da AS doc_id_a, db AS doc_id_b,
                   CAST(i AS BIGINT) AS n_inter,
                   CAST(sa.s + sb.s - i AS BIGINT) AS n_union
            FROM inter
            JOIN sz sa ON sa.doc_id = da
            JOIN sz sb ON sb.doc_id = db
            WHERE i * 2 >= 1 * (sa.s + sb.s - i)
        """,
        "rolling_median": """
            SELECT event_id, user_id,
                   CAST(quantile_disc(
                       CAST(round(value * 100, 0) AS BIGINT), 0.5) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                       AS BIGINT) AS med_cents
            FROM events
        """,
        "attributed_purchases": """
            WITH seq AS (
              SELECT user_id, ts, event_id, event_type,
                     CASE WHEN event_type IN ('click','view')
                          THEN event_id END AS tid,
                     CASE WHEN event_type IN ('click','view')
                          THEN ts END AS tts
              FROM events),
            attr AS (
              SELECT event_id, user_id, event_type, ts,
                 last_value(tid IGNORE NULLS) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS t_id,
                 last_value(tts IGNORE NULLS) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS t_ts
              FROM seq)
            SELECT event_id, user_id,
                   CAST(CASE WHEN t_ts IS NOT NULL
                             AND ts - t_ts <= INTERVAL 24 HOURS
                        THEN t_id ELSE -1 END AS BIGINT)
                       AS touch_event_id
            FROM attr WHERE event_type = 'purchase'
        """,
        "top_supplier_revenue": """
            WITH rev AS (
              SELECT l_suppkey AS suppkey,
                     CAST(sum(CAST(round(l_extendedprice * 100, 0)
                                   AS BIGINT)
                              * (100 - CAST(round(l_discount * 100, 0)
                                            AS BIGINT))) AS BIGINT)
                         AS total_revenue_c4
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate < TIMESTAMP '1996-04-01'
              GROUP BY l_suppkey)
            SELECT s.s_suppkey, s.s_name, r.total_revenue_c4
            FROM supplier s JOIN rev r ON s.s_suppkey = r.suppkey
            WHERE r.total_revenue_c4 = (SELECT max(total_revenue_c4)
                                        FROM rev)
        """,
        "top_return_customers": """
            WITH rev AS (
              SELECT o.o_custkey AS c_custkey,
                     CAST(sum(CAST(round(l.l_extendedprice * 100, 0)
                                   AS BIGINT)
                              * (100 - CAST(round(l.l_discount * 100, 0)
                                            AS BIGINT))) AS BIGINT)
                         AS revenue_c4
              FROM lineitem l
              JOIN orders o ON o.o_orderkey = l.l_orderkey
              WHERE l.l_returnflag = 'R'
                AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                AND o.o_orderdate < TIMESTAMP '1996-04-01'
              GROUP BY o.o_custkey)
            SELECT r.c_custkey, c.c_name, r.revenue_c4
            FROM rev r JOIN customer c ON c.c_custkey = r.c_custkey
            ORDER BY r.revenue_c4 DESC, r.c_custkey
            LIMIT 20
        """,
        "min_cost_supplier": """
            WITH ps AS (SELECT DISTINCT l_partkey AS partkey,
                                        l_suppkey AS suppkey
                        FROM lineitem),
            j AS (SELECT ps.partkey, ps.suppkey,
                         CAST(round(s.s_acctbal * 100, 0) AS BIGINT)
                             AS acctbal_cents
                  FROM ps JOIN supplier s ON s.s_suppkey = ps.suppkey)
            SELECT partkey, suppkey, acctbal_cents FROM j
            QUALIFY row_number() OVER (
                PARTITION BY partkey
                ORDER BY acctbal_cents, suppkey) = 1
        """,
        "disjunctive_part_revenue": """
            SELECT
              CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                       * (100 - CAST(round(l.l_discount * 100, 0)
                                     AS BIGINT))) AS BIGINT)
                  AS revenue_c4,
              CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE (p.p_brand = 'Brand#1' AND p.p_size <= 10
                   AND l.l_quantity <= 20)
               OR (p.p_brand = 'Brand#2' AND p.p_size <= 25
                   AND l.l_quantity <= 30)
        """,
        "local_supplier_volume": """
            SELECT n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100, 0)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100, 0)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_c4
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            WHERE s.s_nationkey = c.c_nationkey
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY n.n_name
        """,
        "chars_mad_by_source": """
            WITH m AS (SELECT source,
                              CAST(round(median(n_chars) * 2, 0)
                                   AS BIGINT) AS m2
                       FROM documents GROUP BY source)
            SELECT d.source,
                   CAST(round(median(abs(2 * d.n_chars - m.m2)) * 2, 0)
                        AS BIGINT) AS mad_x4
            FROM documents d JOIN m USING (source)
            GROUP BY d.source
        """,
        "nation_pair_volume": """
            SELECT nc.n_name AS cust_nation, ns.n_name AS supp_nation,
                   CAST(sum(CAST(round(l.l_extendedprice * 100, 0)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100, 0)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_c4
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation nc ON nc.n_nationkey = c.c_nationkey
            JOIN nation ns ON ns.n_nationkey = s.s_nationkey
            WHERE s.s_nationkey <> c.c_nationkey
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY nc.n_name, ns.n_name
        """,
        "discount_revenue": """
            SELECT CAST(COALESCE(sum(
                       CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                       * CAST(round(l_discount * 100, 0) AS BIGINT)), 0)
                       AS BIGINT) AS revenue_c4,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND CAST(round(l_discount * 100, 0) AS BIGINT)
                  BETWEEN 5 AND 7
              AND l_quantity < 24
        """,
        "small_qty_revenue": """
            WITH li AS (
              SELECT l_partkey,
                     CAST(l_quantity AS BIGINT) AS q,
                     CAST(round(l_extendedprice * 100, 0) AS BIGINT)
                         AS p_c2
              FROM lineitem JOIN part ON p_partkey = l_partkey
              WHERE p_brand = 'Brand#13'),
            w AS (
              SELECT q, p_c2,
                     sum(q) OVER (PARTITION BY l_partkey) AS sq,
                     count(*) OVER (PARTITION BY l_partkey) AS n
              FROM li)
            SELECT CAST(COALESCE(sum(CASE WHEN 5 * q * n < sq
                                          THEN p_c2 END), 0) AS BIGINT)
                       AS revenue_cents,
                   CAST(count(CASE WHEN 5 * q * n < sq THEN 1 END)
                        AS BIGINT) AS n_small
            FROM w
        """,
        "market_share": """
            WITH tk AS (SELECT n_nationkey FROM nation
                        WHERE n_name = 'NATION_3'),
            rn AS (SELECT n_nationkey FROM nation
                   JOIN region ON r_regionkey = n_regionkey
                   WHERE r_name = 'EUROPE'),
            f AS (
              SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                         AS o_year,
                     CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                     * (100 - CAST(round(l.l_discount * 100, 0)
                                   AS BIGINT)) AS c4,
                     s.s_nationkey AS snat
              FROM lineitem l
              JOIN part p ON p.p_partkey = l.l_partkey
              JOIN orders o ON o.o_orderkey = l.l_orderkey
              JOIN customer c ON c.c_custkey = o.o_custkey
              JOIN supplier s ON s.s_suppkey = l.l_suppkey
              WHERE p.p_type = 'ECONOMY'
                AND c.c_nationkey IN (SELECT n_nationkey FROM rn)
                AND o.o_orderdate >= TIMESTAMP '1995-01-01'
                AND o.o_orderdate < TIMESTAMP '1997-01-01')
            SELECT o_year,
                   CAST(COALESCE(sum(CASE WHEN snat IN
                       (SELECT n_nationkey FROM tk) THEN c4 END), 0)
                       AS BIGINT) AS target_c4,
                   CAST(sum(c4) AS BIGINT) AS total_c4
            FROM f GROUP BY o_year
        """,
        "profit_by_nation": """
            SELECT n.n_name AS nation,
                   CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                       AS o_year,
                   CAST(sum(
                       CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                       * (100 - CAST(round(l.l_discount * 100, 0)
                                     AS BIGINT))
                       - CAST(l.l_quantity AS BIGINT)
                         * CAST(round(p.p_retailprice * 100, 0)
                                AS BIGINT) * 50) AS BIGINT)
                       AS profit_c4
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE p.p_name LIKE '%widget%'
            GROUP BY n.n_name, o_year
        """,
        "chars_ntile_by_source": """
            SELECT doc_id, source, n_chars,
                   CAST(NTILE(4) OVER (PARTITION BY source
                                       ORDER BY n_chars, doc_id)
                        AS BIGINT) AS tile
            FROM documents
        """,
        "distinct_users_per_type": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type
        """,
        "late_priority_counts": """
            SELECT l_returnflag,
                   CAST(count(CASE WHEN o_orderpriority IN
                       ('1-URGENT', '2-HIGH') THEN 1 END) AS BIGINT)
                       AS n_high_late,
                   CAST(count(CASE WHEN o_orderpriority NOT IN
                       ('1-URGENT', '2-HIGH') THEN 1 END) AS BIGINT)
                       AS n_low_late
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY
            GROUP BY l_returnflag
        """,
        "sole_late_supplier": """
            WITH f AS (
              SELECT l_orderkey AS k, l_suppkey AS s,
                     (l_shipdate > o_orderdate + INTERVAL 90 DAY)
                         AS late
              FROM lineitem JOIN orders ON o_orderkey = l_orderkey
              WHERE o_orderstatus = 'F'),
            per_order AS (
              SELECT k, count(DISTINCT s) AS ns,
                     count(DISTINCT CASE WHEN late THEN s END) AS nl,
                     min(CASE WHEN late THEN s END) AS ls
              FROM f GROUP BY k)
            SELECT CAST(ls AS BIGINT) AS s_suppkey,
                   CAST(count(*) AS BIGINT) AS numwait
            FROM per_order WHERE ns >= 2 AND nl = 1
            GROUP BY ls
        """,
        "chars_pct_rank": """
            SELECT doc_id, source, n_chars,
                   PERCENT_RANK() OVER (PARTITION BY source
                                        ORDER BY n_chars) AS pct_rank,
                   CUME_DIST() OVER (PARTITION BY source
                                     ORDER BY n_chars) AS cume_dist
            FROM documents
        """,
        "user_first_last": """
            SELECT DISTINCT user_id,
                   first_value(event_type) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS first_type,
                   last_value(event_type) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND UNBOUNDED FOLLOWING)
                       AS last_type
            FROM events
        """,
        "source_vocab_stats": """
            WITH t AS (SELECT source, string_split(text, ' ') AS ws
                       FROM documents),
            u AS (SELECT source, unnest(ws) AS word FROM t),
            w AS (SELECT source, word FROM u WHERE word <> '')
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_words,
                   CAST(count(DISTINCT word) AS BIGINT) AS n_distinct,
                   CAST(count(DISTINCT word) AS DOUBLE)
                   / CAST(count(*) AS DOUBLE) AS ttr
            FROM w GROUP BY source
        """,
        "significant_parts": """
            WITH v AS (
              SELECT l_partkey AS p_partkey,
                     CAST(sum(CAST(round(l_extendedprice * 100, 0)
                                   AS BIGINT)
                              * (100 - CAST(round(l_discount * 100, 0)
                                            AS BIGINT))) AS BIGINT)
                         AS value_c4
              FROM lineitem JOIN supplier ON s_suppkey = l_suppkey
              WHERE s_nationkey = 3
              GROUP BY l_partkey),
            t AS (SELECT sum(CAST(value_c4 AS HUGEINT)) AS total,
                         count(*) AS n_parts FROM v)
            SELECT p_partkey, value_c4
            FROM v, t
            WHERE n_parts * CAST(value_c4 AS HUGEINT) > 2 * total
        """,
        "dominant_suppliers": """
            WITH pq AS (
              SELECT l_partkey AS k, l_suppkey AS s,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                         AS q
              FROM lineitem GROUP BY l_partkey, l_suppkey),
            tot AS (SELECT k, sum(q) AS tq FROM pq GROUP BY k)
            SELECT CAST(pq.s AS BIGINT) AS s_suppkey,
                   CAST(count(*) AS BIGINT) AS n_parts_dominated
            FROM pq JOIN tot ON tot.k = pq.k
            WHERE 5 * pq.q > tot.tq
            GROUP BY pq.s
        """,
        "top_bigrams": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            u AS (SELECT doc_id, unnest(ws) AS word,
                         generate_subscripts(ws, 1) AS pos FROM t),
            w AS (SELECT doc_id, word,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY pos) AS rn
                  FROM u WHERE word <> ''),
            g AS (SELECT a.word || ' ' || b.word AS gram
                  FROM w a JOIN w b
                    ON b.doc_id = a.doc_id AND b.rn = a.rn + 1)
            SELECT gram, CAST(count(*) AS BIGINT) AS n
            FROM g GROUP BY gram
            ORDER BY n DESC, gram ASC LIMIT 100
        """,
        "chars_skew_by_source": """
            WITH m AS (
              SELECT source,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s1,
                     CAST(sum(CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s2,
                     CAST(sum(CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)
                              * CAST(n_chars AS HUGEINT)) AS HUGEINT)
                         AS s3
              FROM documents GROUP BY source),
            d AS (SELECT source, n, s1, s2, s3,
                         n * s2 - s1 * s1 AS dd FROM m)
            SELECT source,
                   CAST(n*n*s3 - 3*n*s1*s2 + 2*s1*s1*s1 AS DOUBLE)
                   / (sqrt(CAST(dd AS DOUBLE)) * sqrt(CAST(dd AS DOUBLE))
                      * sqrt(CAST(dd AS DOUBLE))) AS skew
            FROM d WHERE dd > 0
        """,
        "orders_by_month": """
            SELECT date_trunc('month', o_orderdate) AS month,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))
                        AS BIGINT) AS revenue_cents
            FROM orders GROUP BY month
        """,
        "order_event_range_counts": """
            SELECT o.o_orderkey,
                   CAST(count(e.user_id) AS BIGINT) AS n_events
            FROM orders o
            LEFT JOIN events e
              ON e.user_id = o.o_custkey
             AND e.ts >= o.o_orderdate
             AND e.ts < o.o_orderdate + INTERVAL '24 hours'
            GROUP BY o.o_orderkey
        """,
        "langs_per_source": """
            SELECT source,
                   string_agg(DISTINCT lang, ',' ORDER BY lang) AS langs,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
            FROM documents GROUP BY source
        """,
        "funnel_counts": """
            WITH a AS (SELECT user_id, min(ts) t FROM events
                       WHERE event_type = 'view' GROUP BY user_id),
            b AS (SELECT e.user_id, min(e.ts) t FROM events e
                  JOIN a ON a.user_id = e.user_id
                  WHERE e.event_type = 'click' AND e.ts > a.t
                    AND e.ts <= a.t + INTERVAL '6 hours'
                  GROUP BY e.user_id),
            c AS (SELECT e.user_id, min(e.ts) t FROM events e
                  JOIN b ON b.user_id = e.user_id
                  WHERE e.event_type = 'purchase' AND e.ts > b.t
                    AND e.ts <= b.t + INTERVAL '6 hours'
                  GROUP BY e.user_id)
            SELECT CAST(1 AS BIGINT) AS step,
                   (SELECT CAST(count(*) AS BIGINT) FROM a) AS n_users
            UNION ALL
            SELECT 2, (SELECT count(*) FROM b)
            UNION ALL
            SELECT 3, (SELECT count(*) FROM c)
        """,
        "chars_quartiles_by_source": """
            SELECT source,
                   CAST(round(quantile_cont(n_chars, 0.25) * 4, 0)
                        AS BIGINT) AS q1_x4,
                   CAST(round(quantile_cont(n_chars, 0.50) * 4, 0)
                        AS BIGINT) AS q2_x4,
                   CAST(round(quantile_cont(n_chars, 0.75) * 4, 0)
                        AS BIGINT) AS q3_x4
            FROM documents GROUP BY source
        """,
        "source_chars_token_corr": """
            WITH t AS (
              SELECT source, CAST(n_chars AS BIGINT) AS x,
                     CAST(CASE WHEN length(text) = 0 THEN 0
                          ELSE length(text)
                               - length(replace(text, ' ', '')) + 1
                          END AS BIGINT) AS y
              FROM documents),
            s AS (SELECT source, CAST(count(*) AS BIGINT) n,
                         CAST(sum(x) AS BIGINT) sx,
                         CAST(sum(y) AS BIGINT) sy,
                         CAST(sum(x * x) AS BIGINT) sxx,
                         CAST(sum(y * y) AS BIGINT) syy,
                         CAST(sum(x * y) AS BIGINT) sxy
                  FROM t GROUP BY source)
            SELECT source,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS corr_xy
            FROM s
            WHERE n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
        """,
        "fuzzy_decontaminate": """
            WITH w AS (SELECT doc_id, string_split(text,' ') ws
                       FROM documents),
            gj AS (SELECT doc_id, ws, unnest(range(1, len(ws)-3)) AS i
                   FROM w),
            g AS (SELECT DISTINCT doc_id,
                         array_to_string(list_slice(ws, i, i+4), ' ')
                             AS gram
                  FROM gj),
            sizes AS (SELECT doc_id, CAST(count(*) AS BIGINT) ng
                      FROM g GROUP BY doc_id),
            bench AS (SELECT doc_id AS bid, gram FROM g
                      WHERE doc_id % 11 = 0),
            train AS (SELECT doc_id AS tid, gram FROM g
                      WHERE doc_id % 11 <> 0),
            shared AS (SELECT tid, bid, CAST(count(*) AS BIGINT) s
                       FROM train JOIN bench USING (gram)
                       GROUP BY tid, bid),
            hits AS (SELECT s.tid,
                            CAST(count(*) AS BIGINT) AS n_contaminating
                     FROM shared s
                     JOIN sizes st ON st.doc_id = s.tid
                     JOIN sizes sb ON sb.doc_id = s.bid
                     WHERE 100 * s.s >= 50 * (st.ng + sb.ng - s.s)
                     GROUP BY s.tid)
            SELECT d.doc_id,
                   COALESCE(h.n_contaminating, 0) AS n_contaminating,
                   COALESCE(h.n_contaminating, 0) > 0 AS contaminated
            FROM (SELECT doc_id FROM documents WHERE doc_id % 11 <> 0) d
            LEFT JOIN hits h ON h.tid = d.doc_id
        """,
        "chars_rank_by_source": """
            SELECT doc_id, source, n_chars,
                   CAST(rank() OVER (PARTITION BY source
                                     ORDER BY n_chars) AS BIGINT) AS rnk,
                   CAST(dense_rank() OVER (PARTITION BY source
                                           ORDER BY n_chars) AS BIGINT)
                       AS dense_rnk
            FROM documents
        """,
        "event_gaps": """
            SELECT event_id, user_id,
                   CAST(COALESCE(date_diff('microsecond',
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id),
                       ts), -1) AS BIGINT) AS gap_us
            FROM events
        """,
        "event_next_gaps": """
            SELECT event_id, user_id,
                   CAST(COALESCE(date_diff('microsecond', ts,
                       lead(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id)),
                       -1) AS BIGINT) AS next_gap_us
            FROM events
        """,
        "value_share": """
            WITH cents AS (
                SELECT event_id, event_type,
                       CAST(round(value * 100, 0) AS BIGINT) AS value_cents
                FROM events
            )
            SELECT event_id, event_type, value_cents,
                   CAST((value_cents * 1000000)
                        // sum(value_cents) OVER (PARTITION BY event_type)
                        AS BIGINT) AS share_ppm
            FROM cents
        """,
        "doc_grouping_sets": """
            SELECT source, lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents
            GROUP BY GROUPING SETS ((source), (lang))
        """,
        "all_user_ids": """
            SELECT user_id FROM events
            UNION
            SELECT o_custkey AS user_id FROM orders
        """,
        "bloom_semi_revenue": """
            SELECT p.p_brand,
                   CAST(sum(CAST(round(l.l_extendedprice * 100, 0)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100, 0)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_c4,
                   count(*) AS n_items
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            WHERE p.p_size <= 10
            GROUP BY p.p_brand
        """,
        "training_shards": """
            WITH h AS (
              SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS hx
              FROM documents)
            SELECT doc_id,
                   CAST(CAST(('0x' || substr(hx, 1, 8)) AS UBIGINT) % 16
                        AS BIGINT) AS shard,
                   CAST(row_number() OVER (
                       PARTITION BY CAST(('0x' || substr(hx, 1, 8))
                                         AS UBIGINT) % 16
                       ORDER BY hx, doc_id) AS BIGINT) AS pos
            FROM h
        """,
        "chars_token_regression": """
            WITH t AS (
              SELECT source, CAST(n_chars AS BIGINT) AS x,
                     CAST(CASE WHEN length(text) = 0 THEN 0
                          ELSE length(text)
                               - length(replace(text, ' ', '')) + 1
                          END AS BIGINT) AS y
              FROM documents),
            s AS (SELECT source, CAST(count(*) AS BIGINT) n,
                         CAST(sum(x) AS BIGINT) sx,
                         CAST(sum(y) AS BIGINT) sy,
                         CAST(sum(x * x) AS BIGINT) sxx,
                         CAST(sum(x * y) AS BIGINT) sxy
                  FROM t GROUP BY source)
            SELECT source,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE) AS slope,
                   (CAST(sy AS DOUBLE)
                    - (CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE))
                      * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
                       AS intercept
            FROM s WHERE n * sxx - sx * sx > 0
        """,
        "winsorized_chars": """
            WITH q AS (
              SELECT source,
                     CAST(quantile_disc(n_chars, 0.10) AS BIGINT) AS lo,
                     CAST(quantile_disc(n_chars, 0.90) AS BIGINT) AS hi
              FROM documents GROUP BY source)
            SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars,
                   CAST(least(greatest(d.n_chars, q.lo), q.hi) AS BIGINT)
                       AS clamped
            FROM documents d JOIN q USING (source)
        """,
        "promo_revenue": """
            SELECT CAST(round(sum(CASE WHEN p.p_type = 'PROMO'
                                  THEN l.l_extendedprice
                                       * (1 - l.l_discount)
                                  ELSE 0 END) * 100, 0) AS BIGINT)
                       AS promo_revenue_cents,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount))
                              * 100, 0) AS BIGINT)
                       AS total_revenue_cents,
                   count(*) AS n_rows
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE l.l_shipdate >= TIMESTAMP '1998-01-01'
              AND l.l_shipdate < TIMESTAMP '1999-01-01'
        """,
        "revenue_by_region": """
            SELECT r.r_name,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount))
                              * 100, 0) AS BIGINT) AS revenue_cents,
                   count(*) AS n_items
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        "revenue_by_nation": """
            WITH per_cust AS (
              SELECT o_custkey, sum(o_totalprice) AS spend
              FROM orders GROUP BY o_custkey)
            SELECT n_name,
                   CAST(round(sum(spend) * 100, 0) AS BIGINT)
                       AS revenue_cents,
                   count(*) AS n_customers
            FROM per_cust
            JOIN customer ON c_custkey = o_custkey
            JOIN nation ON n_nationkey = c_nationkey
            GROUP BY n_name
        """,
        "asof_join": """
            WITH o AS (
              SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
              FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate
            FROM events e ASOF JOIN o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "asof_join_salted": """
            WITH o AS (
              SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
              FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate
            FROM events e ASOF JOIN o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "asof_join_left": """
            WITH o AS (
              SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
              FROM orders WHERE o_totalprice > 300000
              GROUP BY o_custkey, o_orderdate)
            SELECT e.event_id, e.user_id, e.ts,
                   COALESCE(o.o_orderkey, -1) AS o_orderkey,
                   COALESCE(o.o_orderdate, TIMESTAMP '1970-01-01')
                       AS o_orderdate
            FROM events e ASOF LEFT JOIN o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "big_spender_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders
                                WHERE o_totalprice > 400000)
        """,
        "quiet_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_totalprice > 400000)
        """,
        "word_frequencies": """
            SELECT word, count(*) AS n FROM (
              SELECT unnest(string_split(text, ' ')) AS word
              FROM documents)
            WHERE word <> ''
            GROUP BY word ORDER BY n DESC, word LIMIT 100
        """,
        "distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type
        """,
        "top_docs_per_lang": """
            SELECT lang, doc_id, n_chars, rank FROM (
              SELECT lang, doc_id, n_chars,
                     CAST(row_number() OVER (
                         PARTITION BY lang
                         ORDER BY n_chars DESC, doc_id ASC) AS BIGINT)
                         AS rank
              FROM documents) WHERE rank <= 3
        """,
        "median_chars_by_source": """
            SELECT source, CAST(median(n_chars) AS DOUBLE) AS median
            FROM documents GROUP BY source
        """,
        "sliding_window_counts": """
            SELECT make_timestamp(
                       (CAST(floor(epoch(ts) / 900) AS BIGINT) * 900
                        - k * 900) * 1000000) AS window_start,
                   event_type, count(*) AS n_events
            FROM events CROSS JOIN (VALUES (0), (1), (2), (3)) AS t(k)
            GROUP BY 1, 2
        """,
        "label_centroids": """
            SELECT label, d AS dim_idx,
                   CAST(round(avg(list_extract(embedding, d + 1))
                              * 1000000, 0) AS BIGINT) AS mean_e6
            FROM embeddings
            CROSS JOIN (SELECT unnest(range(64)) AS d) dims
            GROUP BY label, d
        """,
        "top_customers": """
            WITH agg AS (
              SELECT o_custkey,
                     CAST(round(sum(o_totalprice) * 100, 0) AS BIGINT)
                         AS total_spend_cents,
                     sum(o_totalprice) AS raw_spend,
                     count(*) AS n_orders
              FROM orders GROUP BY o_custkey)
            SELECT CAST(row_number() OVER (
                       ORDER BY raw_spend DESC, o_custkey ASC) AS BIGINT)
                       AS rank,
                   agg.o_custkey AS c_custkey, c.c_name AS c_name,
                   total_spend_cents, n_orders
            FROM agg JOIN customer c ON c.c_custkey = agg.o_custkey
            ORDER BY rank LIMIT 10
        """,
        "jsonl_roundtrip": """
            SELECT COALESCE(source, '') AS source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   min(md5(text)) AS min_md5
            FROM documents GROUP BY COALESCE(source, '')
        """,
        "csv_roundtrip": """
            SELECT COALESCE(source, '') AS source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   min(md5(text)) AS min_md5
            FROM documents GROUP BY COALESCE(source, '')
        """,
        "kcore_graph": """
            WITH RECURSIVE g AS (
              SELECT l_orderkey % 257 AS src,
                     257 + (l_partkey % 257) AS dst
              FROM lineitem
            ),
            e0 AS (
              SELECT DISTINCT key, nbr FROM (
                SELECT src AS key, dst AS nbr FROM g
                UNION ALL SELECT dst, src FROM g)
              WHERE key <> nbr
            ),
            peel AS (
              SELECT 0 AS r, key, nbr FROM e0
              UNION ALL
              SELECT r + 1, key, nbr FROM (
                SELECT r, key, nbr, dk, dn,
                       count(*) OVER () AS total,
                       sum(CASE WHEN dk >= 8 AND dn >= 8
                                THEN 1 ELSE 0 END) OVER () AS surv
                FROM (
                  SELECT r, key, nbr,
                         count(*) OVER (PARTITION BY key) AS dk,
                         count(*) OVER (PARTITION BY nbr) AS dn
                  FROM peel))
              WHERE dk >= 8 AND dn >= 8 AND surv < total AND surv > 0
            ),
            lastr AS (
              SELECT key, nbr FROM peel
              WHERE r = (SELECT max(r) FROM peel)
            ),
            core AS (
              SELECT key, nbr FROM (
                SELECT key, nbr,
                       count(*) OVER (PARTITION BY key) AS dk,
                       count(*) OVER (PARTITION BY nbr) AS dn
                FROM lastr)
              WHERE dk >= 8 AND dn >= 8
            )
            SELECT CAST(key AS BIGINT) AS node,
                   CAST(count(*) AS BIGINT) AS core_deg
            FROM core GROUP BY key
        """,
        "user_value_ewma": """
            WITH r AS (
              SELECT event_id, user_id,
                     CAST(floor(coalesce(value, 0) * 100) AS BIGINT)
                       AS cents,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events)
            SELECT a.event_id, a.user_id,
                   CAST(sum(b.cents *
                            (CAST(1 AS BIGINT)
                             << (15 - (a.rn - b.rn)))) AS BIGINT)
                     AS ewma_scaled
            FROM r a JOIN r b
              ON a.user_id = b.user_id
             AND b.rn BETWEEN a.rn - 15 AND a.rn
            GROUP BY a.event_id, a.user_id
        """,
        "rolling_spikes": """
            WITH r AS (
              SELECT user_id, ts, event_id,
                     CAST(floor(coalesce(value, 0) * 100) AS BIGINT) AS c
              FROM events),
            w AS (
              SELECT user_id, c,
                     sum(c) OVER win AS s,
                     sum(c * c) OVER win AS q,
                     count(*) OVER win AS n
              FROM r
              WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN 15 PRECEDING AND CURRENT ROW))
            SELECT user_id,
                   CAST(count(*) FILTER (WHERE n >= 8) AS BIGINT)
                     AS n_eval,
                   CAST(count(*) FILTER (
                     WHERE n >= 8
                       AND (n * c - s) * (n * c - s)
                           > 4 * (n * q - s * s)) AS BIGINT) AS n_spikes
            FROM w GROUP BY user_id
        """,
        "transition_entropy": """
            WITH p AS (
              SELECT event_type,
                     lag(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                       AS prev_type
              FROM events),
            c AS (SELECT prev_type, event_type, count(*) AS o
                  FROM p WHERE prev_type IS NOT NULL GROUP BY 1, 2),
            s AS (SELECT prev_type, sum(o) AS t FROM c GROUP BY prev_type)
            SELECT c.prev_type, CAST(t AS BIGINT) AS n_trans,
                   CAST(floor(sum(-(o * 1.0 / t) * ln(o * 1.0 / t))
                              * 1000000) AS BIGINT) AS entropy_ppm
            FROM c JOIN s USING (prev_type)
            GROUP BY c.prev_type, t
        """,
        "degree_histogram": """
            WITH g AS (
              SELECT l_orderkey % 257 AS src,
                     257 + (l_partkey % 257) AS dst
              FROM lineitem),
            e0 AS (
              SELECT DISTINCT key, nbr FROM (
                SELECT src AS key, dst AS nbr FROM g
                UNION ALL SELECT dst, src FROM g)
              WHERE key <> nbr),
            d AS (SELECT key, count(*) AS degree FROM e0 GROUP BY key)
            SELECT CAST(degree AS BIGINT) AS degree,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM d GROUP BY degree ORDER BY degree
        """,
        "asof_join_nearest": """
            WITH ob AS (
              SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
              FROM orders GROUP BY o_custkey, o_orderdate),
            ofw AS (
              SELECT o_custkey, o_orderdate, min(o_orderkey) AS o_orderkey
              FROM orders GROUP BY o_custkey, o_orderdate),
            b AS (
              SELECT e.event_id, o.o_orderkey, o.o_orderdate
              FROM events e ASOF JOIN ob o
                ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate),
            f AS (
              SELECT e.event_id, o.o_orderkey, o.o_orderdate
              FROM events e ASOF JOIN ofw o
                ON e.user_id = o.o_custkey AND e.ts < o.o_orderdate)
            SELECT e.event_id, e.user_id, e.ts,
                   CASE WHEN b.o_orderkey IS NOT NULL
                         AND (f.o_orderkey IS NULL OR
                              epoch_us(e.ts) - epoch_us(b.o_orderdate)
                                <= epoch_us(f.o_orderdate) - epoch_us(e.ts))
                        THEN b.o_orderkey ELSE f.o_orderkey END
                     AS o_orderkey,
                   CASE WHEN b.o_orderkey IS NOT NULL
                         AND (f.o_orderkey IS NULL OR
                              epoch_us(e.ts) - epoch_us(b.o_orderdate)
                                <= epoch_us(f.o_orderdate) - epoch_us(e.ts))
                        THEN b.o_orderdate ELSE f.o_orderdate END
                     AS o_orderdate
            FROM events e
            LEFT JOIN b ON e.event_id = b.event_id
            LEFT JOIN f ON e.event_id = f.event_id
            WHERE b.o_orderkey IS NOT NULL OR f.o_orderkey IS NOT NULL
        """,
        "readability_scores": """
            WITH c AS (
              SELECT COALESCE(source, 'und') AS source,
                     len(regexp_extract_all(COALESCE(text, ''),
                         '[^ \t\n\r\f\v]+')) AS w,
                     len(regexp_extract_all(COALESCE(text, ''),
                         '[.!?]+')) AS s,
                     len(regexp_extract_all(COALESCE(text, ''),
                         '[aeiouAEIOU]+')) AS y
              FROM documents),
            t AS (SELECT source, count(*) AS n_docs, sum(w) AS w,
                         sum(s) AS s, sum(y) AS y
                  FROM c GROUP BY source)
            SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
                   CAST(w AS BIGINT) AS words,
                   CAST(s AS BIGINT) AS sentences,
                   CAST(y AS BIGINT) AS syllables,
                   CAST(floor((206.835
                               - 1.015 * (w * 1.0 / greatest(s, 1))
                               - 84.6 * (y * 1.0 / greatest(w, 1)))
                              * 1000) AS BIGINT) AS flesch_milli
            FROM t
        """,
        "lang_source_mi": """
            WITH c AS (
              SELECT COALESCE(lang, 'und') AS a,
                     COALESCE(source, 'und') AS b, count(*) AS o
              FROM documents GROUP BY 1, 2),
            tot AS (SELECT sum(o) AS t FROM c),
            ha AS (SELECT sum(-(o * 1.0 / t) * ln(o * 1.0 / t)) AS h
                   FROM (SELECT a, sum(o) AS o FROM c GROUP BY a), tot),
            hb AS (SELECT sum(-(o * 1.0 / t) * ln(o * 1.0 / t)) AS h
                   FROM (SELECT b, sum(o) AS o FROM c GROUP BY b), tot),
            hj AS (SELECT sum(-(o * 1.0 / t) * ln(o * 1.0 / t)) AS h
                   FROM c, tot)
            SELECT CAST(t AS BIGINT) AS n_rows,
                   CAST(floor(ha.h * 1000000) AS BIGINT) AS h_a_ppm,
                   CAST(floor(hb.h * 1000000) AS BIGINT) AS h_b_ppm,
                   CAST(floor(hj.h * 1000000) AS BIGINT) AS h_joint_ppm,
                   CAST(floor((ha.h + hb.h - hj.h) * 1000000) AS BIGINT)
                     AS mi_ppm
            FROM tot, ha, hb, hj
        """,
        "key_skew_report": """
            WITH u AS (
              SELECT 'orders' AS table_name, 'o_custkey' AS key_col,
                     count(*) AS c
              FROM orders GROUP BY o_custkey
              UNION ALL
              SELECT 'lineitem', 'l_partkey', count(*)
              FROM lineitem GROUP BY l_partkey
              UNION ALL
              SELECT 'events', 'user_id', count(*)
              FROM events GROUP BY user_id
              UNION ALL
              SELECT 'documents', 'lang', count(*)
              FROM documents GROUP BY COALESCE(lang, 'und'))
            SELECT table_name, key_col,
                   CAST(sum(c) AS BIGINT) AS n_rows,
                   CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(max(c) AS BIGINT) AS top_count,
                   CAST(max(c) * 1000000 // sum(c) AS BIGINT)
                     AS top_share_ppm
            FROM u GROUP BY table_name, key_col
        """,
        "events_hourly_gapfill": """
            WITH h AS (
              SELECT date_trunc('hour', ts) AS hour, count(*) AS n
              FROM events GROUP BY 1),
            b AS (SELECT min(hour) AS mn, max(hour) AS mx FROM h),
            g AS (SELECT unnest(generate_series(mn, mx,
                                INTERVAL 1 HOUR)) AS hour FROM b)
            SELECT g.hour, CAST(COALESCE(h.n, 0) AS BIGINT) AS n_events
            FROM g LEFT JOIN h USING (hour)
            ORDER BY g.hour
        """,
        "price_band_orders": """
            WITH o AS (SELECT CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT) AS cents FROM orders),
            d AS (SELECT n_name AS band,
                         CAST(n_nationkey AS BIGINT)
                           * CAST(n_nationkey AS BIGINT) * 100000 AS lo,
                         (CAST(n_nationkey AS BIGINT) + 1)
                           * (CAST(n_nationkey AS BIGINT) + 1) * 100000
                           AS hi
                  FROM nation)
            SELECT d.band, CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(o.cents) AS BIGINT) AS total_cents
            FROM o JOIN d ON o.cents >= d.lo AND o.cents < d.hi
            GROUP BY d.band
        """,
        "global_doc_rank": """
            SELECT doc_id, n_chars,
                   CAST(ROW_NUMBER() OVER (ORDER BY n_chars, doc_id)
                        AS BIGINT) AS global_rank
            FROM documents
        """,
        "quantity_woe": """
            WITH f AS (SELECT CAST(round(l_quantity, 0) AS BIGINT)
                                  AS qty_bucket,
                              CASE WHEN l_returnflag = 'R' THEN 1
                                   ELSE 0 END AS bad
                       FROM lineitem),
            h AS (SELECT qty_bucket,
                         CAST(sum(bad) AS BIGINT) AS n_bad,
                         CAST(count(*) - sum(bad) AS BIGINT) AS n_good
                  FROM f GROUP BY qty_bucket),
            t AS (SELECT CAST(sum(n_bad) AS BIGINT) AS B,
                         CAST(sum(n_good) AS BIGINT) AS G FROM h)
            SELECT qty_bucket, n_bad, n_good,
                   CAST(floor(ln((CAST(n_bad AS DOUBLE) / B)
                                 / (CAST(n_good AS DOUBLE) / G))
                              * 1000000) AS BIGINT) AS woe_ppm,
                   CAST(floor((CAST(n_bad AS DOUBLE) / B
                               - CAST(n_good AS DOUBLE) / G)
                              * ln((CAST(n_bad AS DOUBLE) / B)
                                   / (CAST(n_good AS DOUBLE) / G))
                              * 1000000000) AS BIGINT) AS iv_ppb
            FROM h, t WHERE n_bad > 0 AND n_good > 0
        """,
        "lang_target_encoding": """
            WITH a AS (SELECT COALESCE(lang, 'und') AS lang,
                              CAST(sum(n_chars) AS BIGINT) AS s,
                              CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY COALESCE(lang, 'und')),
            t AS (SELECT CAST(sum(s) AS BIGINT) AS tot_s,
                         CAST(sum(n) AS BIGINT) AS tot_n FROM a)
            SELECT lang, n AS n_rows,
                   CAST(floor((CAST(s AS DOUBLE)
                               + 20.0 * (CAST(tot_s AS DOUBLE)
                                         / CAST(tot_n AS DOUBLE)))
                              / CAST(n + 20 AS DOUBLE) * 1000)
                        AS BIGINT) AS enc_milli
            FROM a, t
        """,
        "user_value_kendall": """
            WITH e AS (SELECT user_id, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS x,
                              CAST(round(value * 100, 0) AS BIGINT) AS y
                       FROM events),
            p AS (SELECT a.user_id,
                         CASE WHEN a.x < b.x THEN -1
                              WHEN a.x > b.x THEN 1 ELSE 0 END AS dx,
                         CASE WHEN a.y < b.y THEN -1
                              WHEN a.y > b.y THEN 1 ELSE 0 END AS dy
                  FROM e a JOIN e b
                    ON a.user_id = b.user_id
                   AND a.event_id < b.event_id)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_pairs,
                   CAST(sum(CASE WHEN dx * dy > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_concordant,
                   CAST(sum(CASE WHEN dx * dy < 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_discordant,
                   CAST(sum(CASE WHEN dx = 0 AND dy <> 0 THEN 1
                            ELSE 0 END) AS BIGINT) AS n_tie_x,
                   CAST(sum(CASE WHEN dx <> 0 AND dy = 0 THEN 1
                            ELSE 0 END) AS BIGINT) AS n_tie_y,
                   CAST(sum(CASE WHEN dx = 0 AND dy = 0 THEN 1
                            ELSE 0 END) AS BIGINT) AS n_tie_both
            FROM p GROUP BY user_id
        """,
        "chars_token_spearman": """
            WITH t AS (
              SELECT source, CAST(n_chars AS BIGINT) AS x,
                     CAST(CASE WHEN length(text) = 0 THEN 0
                          ELSE length(text)
                               - length(replace(text, ' ', '')) + 1
                          END AS BIGINT) AS y
              FROM documents),
            r AS (
              SELECT source,
                     2 * rank() OVER (PARTITION BY source ORDER BY x)
                       + count(*) OVER (PARTITION BY source, x) - 1
                         AS dx,
                     2 * rank() OVER (PARTITION BY source ORDER BY y)
                       + count(*) OVER (PARTITION BY source, y) - 1
                         AS dy
              FROM t),
            s AS (SELECT source, CAST(count(*) AS BIGINT) n,
                         CAST(sum(dx) AS BIGINT) sx,
                         CAST(sum(dy) AS BIGINT) sy,
                         CAST(sum(dx * dx) AS BIGINT) sxx,
                         CAST(sum(dy * dy) AS BIGINT) syy,
                         CAST(sum(dx * dy) AS BIGINT) sxy
                  FROM r GROUP BY source)
            SELECT source, n,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) AS rho
            FROM s
            WHERE n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
        """,
        "runs_test_by_user": """
            WITH e AS (SELECT user_id, ts, event_id,
                              CAST(round(COALESCE(value, 0) * 100, 0)
                                   AS BIGINT) AS c
                       FROM events WHERE ts IS NOT NULL),
            m AS (SELECT user_id, quantile_disc(c, 0.5) AS med
                  FROM e GROUP BY user_id),
            f AS (SELECT e.user_id, ts, event_id,
                         CASE WHEN c > med THEN 1 ELSE -1 END AS s
                  FROM e JOIN m USING (user_id) WHERE c <> med),
            r AS (SELECT user_id, s,
                         lag(s) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS p
                  FROM f),
            a AS (SELECT user_id,
                         CAST(count(CASE WHEN s = 1 THEN 1 END)
                              AS BIGINT) AS n_pos,
                         CAST(count(CASE WHEN s = -1 THEN 1 END)
                              AS BIGINT) AS n_neg,
                         CAST(1 + count(CASE WHEN p IS NOT NULL
                                        AND s <> p THEN 1 END)
                              AS BIGINT) AS n_runs
                  FROM r GROUP BY user_id)
            SELECT u.user_id,
                   COALESCE(a.n_pos, 0) AS n_pos,
                   COALESCE(a.n_neg, 0) AS n_neg,
                   COALESCE(a.n_runs, 0) AS n_runs
            FROM (SELECT DISTINCT user_id FROM e) u
            LEFT JOIN a USING (user_id)
        """,
        "peak_hour_by_user": """
            WITH h AS (SELECT user_id,
                              CAST(hour(ts) AS BIGINT) AS hr,
                              CAST(count(*) AS BIGINT) AS c,
                              max(count(*)) OVER (PARTITION BY user_id)
                                  AS mx
                       FROM events WHERE ts IS NOT NULL
                       GROUP BY user_id, hour(ts))
            SELECT user_id, CAST(min(hr) AS BIGINT) AS peak_hour,
                   CAST(min(c) AS BIGINT) AS n_at_peak
            FROM h WHERE c = mx GROUP BY user_id
        """,
        "type_switch_rate": """
            WITH r AS (SELECT user_id,
                              COALESCE(event_type, '') AS et,
                              lag(COALESCE(event_type, '')) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS p,
                              row_number() OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
                       FROM events WHERE ts IS NOT NULL)
            SELECT user_id,
                   CAST(count(*) - 1 AS BIGINT) AS n_pairs,
                   CAST(sum(CASE WHEN rn > 1 AND et <> p
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_switches,
                   CAST(sum(CASE WHEN rn > 1 AND et <> p
                            THEN 1 ELSE 0 END) * 1000000
                        // (count(*) - 1) AS BIGINT) AS switch_ppm
            FROM r GROUP BY user_id HAVING count(*) >= 2
        """,
        "event_gap_quantiles": """
            WITH g AS (SELECT user_id,
                              epoch_us(ts) - epoch_us(
                                  lag(ts) OVER (PARTITION BY user_id
                                                ORDER BY ts, event_id))
                                  AS gap
                       FROM events WHERE ts IS NOT NULL)
            SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(quantile_disc(gap, 0.5) AS BIGINT)
                       AS med_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us
            FROM g GROUP BY user_id HAVING count(gap) > 0
        """,
        "hapax_rate_by_source": """
            WITH c AS (SELECT source, word,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> '' GROUP BY source, word)
            SELECT source, CAST(sum(cnt) AS BIGINT) AS n_words,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(count(CASE WHEN cnt = 1 THEN 1 END) AS BIGINT)
                       AS n_hapax,
                   CAST(count(CASE WHEN cnt = 1 THEN 1 END) * 1000000
                        // count(*) AS BIGINT) AS hapax_ppm
            FROM c GROUP BY source
        """,
        "source_bow_gram": """
            WITH c AS (SELECT source, word,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> '' GROUP BY source, word)
            SELECT a.source AS src_a, b.source AS src_b,
                   CAST(sum(a.cnt * b.cnt) AS BIGINT) AS dot
            FROM c a JOIN c b
              ON a.word = b.word AND a.source <= b.source
            GROUP BY a.source, b.source
        """,
        "levene_absdev_chars": """
            WITH m AS (SELECT source, quantile_disc(n_chars, 0.5) med
                       FROM documents GROUP BY source)
            SELECT d.source, CAST(count(*) AS BIGINT) AS n,
                   CAST(min(med) AS BIGINT) AS median,
                   CAST(sum(abs(n_chars - med)) AS BIGINT)
                       AS sum_absdev
            FROM documents d JOIN m USING (source)
            GROUP BY d.source
        """,
        "user_type_entropy": """
            WITH c AS (SELECT user_id,
                              COALESCE(event_type, '') AS et,
                              count(*) AS o
                       FROM events GROUP BY 1, 2),
            s AS (SELECT user_id, sum(o) AS t, count(*) AS k
                  FROM c GROUP BY user_id)
            SELECT c.user_id, CAST(t AS BIGINT) AS n_events,
                   CAST(k AS BIGINT) AS n_types,
                   CAST(floor(sum(-(o * 1.0 / t) * ln(o * 1.0 / t))
                              * 1000000) AS BIGINT) AS entropy_ppm
            FROM c JOIN s USING (user_id)
            GROUP BY c.user_id, t, k
        """,
        "reorder_rate": """
            WITH r AS (SELECT o_custkey,
                              epoch_us(o_orderdate) - epoch_us(
                                  lag(o_orderdate) OVER (
                                      PARTITION BY o_custkey
                                      ORDER BY o_orderdate,
                                               o_orderkey)) AS gap
                       FROM orders WHERE o_orderdate IS NOT NULL)
            SELECT o_custkey,
                   CAST(count(gap) AS BIGINT) AS n_pairs,
                   CAST(sum(CASE WHEN gap <= 604800000000
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_quick,
                   CAST(sum(CASE WHEN gap <= 604800000000
                            THEN 1 ELSE 0 END) * 1000000
                        // count(gap) AS BIGINT) AS quick_ppm
            FROM r WHERE gap IS NOT NULL GROUP BY o_custkey
        """,
        "spend_activity_corr": """
            WITH o AS (SELECT o_custkey AS u,
                              CAST(sum(CAST(floor(o_totalprice)
                                       AS BIGINT)) AS BIGINT) AS x
                       FROM orders GROUP BY 1),
            e AS (SELECT user_id AS u,
                         CAST(sum(CAST(floor(COALESCE(value, 0))
                                  AS BIGINT)) AS BIGINT) AS y
                  FROM events GROUP BY 1),
            j AS (SELECT x, y FROM o JOIN e USING (u)),
            -- HUGEINT moments: n * sxy overflows BIGINT at sf >= 0.1
            -- (found by the round-5 full sf0.1 sweep)
            s AS (SELECT CAST(count(*) AS HUGEINT) n,
                         CAST(sum(CAST(x AS HUGEINT)) AS HUGEINT) sx,
                         CAST(sum(CAST(y AS HUGEINT)) AS HUGEINT) sy,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) sxx,
                         CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) syy,
                         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) sxy
                  FROM j)
            SELECT 'all' AS scope, CAST(n AS BIGINT) AS n,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS corr_xy
            FROM s
            WHERE n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
        """,
        "top_word_per_source": """
            WITH c AS (SELECT source, word,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> '' GROUP BY source, word),
            m AS (SELECT source, max(cnt) AS mx FROM c
                  GROUP BY source)
            SELECT c.source, min(c.word) AS top_word,
                   CAST(min(c.cnt) AS BIGINT) AS cnt
            FROM c JOIN m ON c.source = m.source AND c.cnt = m.mx
            GROUP BY c.source
        """,
        "first_event_type_counts": """
            WITH f AS (SELECT user_id,
                              COALESCE(event_type, '') AS et,
                              row_number() OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
                       FROM events)
            SELECT et AS first_type,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM f WHERE rn = 1 GROUP BY et
        """,
        "user_value_autocorr": """
            WITH e AS (SELECT user_id, ts, event_id,
                              CAST(round(COALESCE(value, 0) * 100, 0)
                                   AS BIGINT) AS c
                       FROM events WHERE ts IS NOT NULL),
            p AS (SELECT user_id, c AS y,
                         lag(c) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS x
                  FROM e),
            s AS (SELECT user_id, CAST(count(*) AS BIGINT) n,
                         CAST(sum(x) AS BIGINT) sx,
                         CAST(sum(y) AS BIGINT) sy,
                         CAST(sum(x * x) AS BIGINT) sxx,
                         CAST(sum(y * y) AS BIGINT) syy,
                         CAST(sum(x * y) AS BIGINT) sxy
                  FROM p WHERE x IS NOT NULL GROUP BY user_id)
            SELECT user_id, n AS n_pairs,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS acf1
            FROM s
            WHERE n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
        """,
        "type_transitions": """
            WITH r AS (SELECT user_id,
                              COALESCE(event_type, '') AS et,
                              lag(COALESCE(event_type, '')) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS p
                       FROM events WHERE ts IS NOT NULL)
            SELECT p AS from_type, et AS to_type,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM r WHERE p IS NOT NULL GROUP BY p, et
        """,
        "source_vocab_jaccard": """
            WITH w AS (SELECT DISTINCT source, word
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> ''),
            s AS (SELECT source, CAST(count(*) AS BIGINT) AS nd
                  FROM w GROUP BY source),
            i AS (SELECT a.source AS sa, b.source AS sb,
                         CAST(count(*) AS BIGINT) AS inter
                  FROM w a JOIN w b
                    ON a.word = b.word AND a.source < b.source
                  GROUP BY 1, 2)
            SELECT sa AS src_a, sb AS src_b, s1.nd AS n_a,
                   s2.nd AS n_b, inter AS n_inter,
                   CAST(inter * 1000000
                        // (s1.nd + s2.nd - inter) AS BIGINT)
                       AS jaccard_ppm
            FROM i JOIN s s1 ON s1.source = sa
                   JOIN s s2 ON s2.source = sb
        """,
        "nation_revenue_hhi": """
            WITH x AS (SELECT o_custkey,
                              CAST(sum(CAST(floor(COALESCE(
                                       o_totalprice, 0)) AS BIGINT))
                                   AS BIGINT) AS x
                       FROM orders GROUP BY o_custkey),
            j AS (SELECT CAST(c_nationkey AS BIGINT) AS nation, x
                  FROM x JOIN customer ON o_custkey = c_custkey
                  WHERE x > 0)
            SELECT nation, CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(x) AS BIGINT) AS sum_x,
                   CAST(sum(CAST(x AS HUGEINT) * x) * 1000000
                        // (CAST(sum(x) AS HUGEINT) * sum(x))
                        AS BIGINT) AS hhi_ppm
            FROM j GROUP BY nation
        """,
        "adjacent_edit_distance": """
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                   CAST(strlen(COALESCE(a.text, '')) AS BIGINT)
                       AS len_a,
                   CAST(strlen(COALESCE(b.text, '')) AS BIGINT)
                       AS len_b,
                   CAST(levenshtein(COALESCE(a.text, ''),
                                    COALESCE(b.text, '')) AS BIGINT)
                       AS dist
            FROM documents a JOIN documents b
              ON b.doc_id = a.doc_id + 1
            WHERE strlen(COALESCE(a.text, '')) <= 400
              AND strlen(COALESCE(b.text, '')) <= 400
        """,
        "dau_stickiness": """
            WITH d AS (SELECT DISTINCT user_id,
                              epoch_us(ts) // 86400000000 AS day,
                              year(ts) * 12 + month(ts) - 1 AS mo
                       FROM events WHERE ts IS NOT NULL),
            dau AS (SELECT day, mo,
                           CAST(count(DISTINCT user_id) AS BIGINT)
                               AS dau
                    FROM d GROUP BY day, mo),
            mau AS (SELECT mo,
                           CAST(count(DISTINCT user_id) AS BIGINT)
                               AS mau
                    FROM d GROUP BY mo)
            SELECT CAST(m.mo AS BIGINT) AS month, m.mau AS mau,
                   CAST(count(*) AS BIGINT) AS n_days,
                   CAST(sum(dau) AS BIGINT) AS sum_dau,
                   CAST(sum(dau) * 1000000 // (count(*) * m.mau)
                        AS BIGINT) AS stickiness_ppm
            FROM dau a JOIN mau m ON a.mo = m.mo
            GROUP BY m.mo, m.mau
        """,
        "retention_cohorts": """
            WITH w AS (SELECT DISTINCT user_id,
                              epoch_us(ts) // 604800000000 AS week
                       FROM events WHERE ts IS NOT NULL),
            f AS (SELECT user_id, min(week) AS cohort
                  FROM w GROUP BY user_id)
            SELECT CAST(cohort AS BIGINT) AS cohort_week,
                   CAST(week - cohort AS BIGINT) AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM w JOIN f USING (user_id)
            GROUP BY cohort, week - cohort
        """,
        "nation_pareto80": """
            WITH x AS (SELECT o_custkey,
                              CAST(sum(CAST(floor(COALESCE(
                                       o_totalprice, 0)) AS BIGINT))
                                   AS BIGINT) AS x
                       FROM orders GROUP BY o_custkey),
            j AS (SELECT CAST(c_nationkey AS BIGINT) AS nation, x
                  FROM x JOIN customer ON o_custkey = c_custkey
                  WHERE x > 0),
            c AS (SELECT nation, x,
                         sum(x) OVER (PARTITION BY nation
                                      ORDER BY x DESC
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS cum,
                         sum(x) OVER (PARTITION BY nation) AS total
                  FROM j)
            SELECT nation, CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(CASE WHEN 5 * (cum - x) < 4 * total
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_top80,
                   CAST(sum(CASE WHEN 5 * (cum - x) < 4 * total
                            THEN 1 ELSE 0 END) * 1000000
                        // count(*) AS BIGINT) AS top80_ppm
            FROM c GROUP BY nation
        """,
        "source_dup_rate": """
            WITH c AS (SELECT source, md5(COALESCE(text, '')) AS h,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM documents GROUP BY source, h)
            SELECT source, CAST(sum(cnt) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN cnt > 1 THEN cnt ELSE 0 END)
                        AS BIGINT) AS n_dup_docs,
                   CAST(sum(CASE WHEN cnt > 1 THEN cnt ELSE 0 END)
                        * 1000000 // sum(cnt) AS BIGINT) AS dup_ppm
            FROM c GROUP BY source
        """,
        "chars_histogram": """
            WITH mm AS (SELECT CAST(min(n_chars) AS BIGINT) AS glo,
                               CAST(max(n_chars) AS BIGINT) AS ghi
                        FROM documents WHERE n_chars IS NOT NULL),
            b AS (SELECT (n_chars - glo) * 10 // (ghi - glo + 1)
                             AS bin, glo, ghi
                  FROM documents, mm WHERE n_chars IS NOT NULL)
            SELECT CAST(bin AS BIGINT) AS bin,
                   CAST(glo + (bin * (ghi - glo + 1) + 9) // 10
                        AS BIGINT) AS lo,
                   CAST(least(glo + ((bin + 1) * (ghi - glo + 1) + 9)
                              // 10 - 1, ghi) AS BIGINT) AS hi,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM b GROUP BY bin, glo, ghi
        """,
        "orders_profile": """
            SELECT 'o_orderkey' AS "column",
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count(o_orderkey) AS BIGINT)
                       AS n_null,
                   CAST(count(DISTINCT o_orderkey) AS BIGINT)
                       AS n_distinct,
                   CAST(min(o_orderkey) AS VARCHAR) AS min_v,
                   CAST(max(o_orderkey) AS VARCHAR) AS max_v
            FROM orders
            UNION ALL
            SELECT 'o_custkey', count(*), count(*) - count(o_custkey),
                   count(DISTINCT o_custkey),
                   CAST(min(o_custkey) AS VARCHAR),
                   CAST(max(o_custkey) AS VARCHAR) FROM orders
            UNION ALL
            SELECT 'o_orderstatus', count(*),
                   count(*) - count(o_orderstatus),
                   count(DISTINCT o_orderstatus),
                   CAST(min(o_orderstatus) AS VARCHAR),
                   CAST(max(o_orderstatus) AS VARCHAR) FROM orders
            UNION ALL
            SELECT 'o_totalprice', count(*),
                   count(*) - count(o_totalprice),
                   count(DISTINCT o_totalprice),
                   CAST(min(o_totalprice) AS VARCHAR),
                   CAST(max(o_totalprice) AS VARCHAR) FROM orders
            UNION ALL
            SELECT 'o_orderdate', count(*),
                   count(*) - count(o_orderdate),
                   count(DISTINCT o_orderdate),
                   CAST(min(o_orderdate) AS VARCHAR),
                   CAST(max(o_orderdate) AS VARCHAR) FROM orders
            UNION ALL
            SELECT 'o_orderpriority', count(*),
                   count(*) - count(o_orderpriority),
                   count(DISTINCT o_orderpriority),
                   CAST(min(o_orderpriority) AS VARCHAR),
                   CAST(max(o_orderpriority) AS VARCHAR) FROM orders
        """,
        "orders_topk_offset": """
            WITH r AS (SELECT o_orderkey,
                              CAST(round(COALESCE(o_totalprice, 0)
                                         * 100, 0) AS BIGINT)
                                  AS cents
                       FROM orders),
            w AS (SELECT o_orderkey, cents,
                         row_number() OVER (ORDER BY cents DESC,
                                            o_orderkey) AS rank
                  FROM r)
            SELECT CAST(rank AS BIGINT) AS rank, o_orderkey, cents
            FROM w WHERE rank > 100 AND rank <= 120
        """,
        "copurchase_lift": """
            WITH ob AS (SELECT DISTINCT l_orderkey AS o, p_brand AS b
                        FROM lineitem JOIN part
                          ON l_partkey = p_partkey),
            n AS (SELECT CAST(count(DISTINCT o) AS HUGEINT)
                             AS n_orders FROM ob),
            ba AS (SELECT b, CAST(count(*) AS BIGINT) AS nb
                   FROM ob GROUP BY b),
            pr AS (SELECT x.b AS brand_a, y.b AS brand_b,
                          CAST(count(*) AS BIGINT) AS n_ab
                   FROM ob x JOIN ob y
                     ON x.o = y.o AND x.b < y.b
                   GROUP BY 1, 2)
            SELECT brand_a, brand_b, n_ab, a.nb AS n_a, c.nb AS n_b,
                   CAST(CAST(n_ab AS HUGEINT) * n_orders * 1000000
                        // (CAST(a.nb AS HUGEINT) * c.nb) AS BIGINT)
                       AS lift_ppm
            FROM pr JOIN ba a ON brand_a = a.b
                    JOIN ba c ON brand_b = c.b, n
        """,
        "char_class_profile": """
            WITH t AS (SELECT source, COALESCE(text, '') AS s
                       FROM documents),
            p AS (SELECT source,
                         CAST(length(s) AS BIGINT) AS nc,
                         CAST(length(s) - length(regexp_replace(
                              s, '[a-zA-Z]', '', 'g')) AS BIGINT)
                             AS na,
                         CAST(length(s) - length(replace(s, ' ', ''))
                              AS BIGINT) AS ns,
                         CAST(length(s) - length(regexp_replace(
                              s, '[0-9]', '', 'g')) AS BIGINT) AS nd
                  FROM t)
            SELECT source, CAST(sum(nc) AS BIGINT) AS n_chars,
                   CAST(sum(na) AS BIGINT) AS n_alpha,
                   CAST(sum(ns) AS BIGINT) AS n_space,
                   CAST(sum(nd) AS BIGINT) AS n_digit,
                   CAST(sum(nc - na - ns - nd) AS BIGINT) AS n_other,
                   CAST(sum(na) * 1000000
                        // greatest(sum(nc), 1) AS BIGINT)
                       AS alpha_ppm
            FROM p GROUP BY source
        """,
        "embedding_quant_stats": """
            SELECT CAST(COALESCE(label, -1) AS BIGINT) AS label,
                   CAST(count(*) AS BIGINT) AS n_vecs,
                   CAST(sum(COALESCE(list_aggregate(
                        list_transform(embedding,
                            x -> CAST(floor(CAST(x AS DOUBLE) * 1000)
                                 AS BIGINT)),
                        'sum'), 0)) AS BIGINT) AS sum_q
            FROM embeddings GROUP BY 1
        """,
        "source_lcp": """
            WITH mm AS (SELECT source, CAST(count(*) AS BIGINT)
                               AS n_docs,
                               min(COALESCE(text, '')) AS lo,
                               max(COALESCE(text, '')) AS hi
                        FROM documents GROUP BY source),
            k AS (SELECT source, n_docs, lo,
                         CAST(COALESCE(
                             (SELECT min(r.range)
                              FROM range(1, 100001) r
                              WHERE r.range <= least(length(lo),
                                                     length(hi))
                                AND substr(lo, CAST(r.range AS INT), 1)
                                    <> substr(hi, CAST(r.range AS INT),
                                              1)) - 1,
                             least(length(lo), length(hi))) AS BIGINT)
                             AS lcp_len
                  FROM mm)
            SELECT source, n_docs, lcp_len,
                   substr(lo, 1, CAST(lcp_len AS INT)) AS lcp
            FROM k
        """,
        "user_lifespan_hist": """
            WITH u AS (SELECT user_id,
                              (epoch_us(max(ts)) - epoch_us(min(ts)))
                              // 86400000000 AS d
                       FROM events WHERE ts IS NOT NULL
                       GROUP BY user_id)
            SELECT CAST(d AS BIGINT) AS lifespan_days,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM u GROUP BY d
        """,
        "anova_f_chars": """
            WITH g AS (SELECT COALESCE(lang, 'und') AS lang,
                              CAST(COUNT(*) AS HUGEINT) AS n,
                              CAST(SUM(COALESCE(n_chars, 0)) AS HUGEINT)
                                  AS s1,
                              SUM(CAST(COALESCE(n_chars, 0) AS HUGEINT)
                                  * COALESCE(n_chars, 0)) AS s2
                       FROM documents GROUP BY 1),
            t AS (SELECT SUM(n) AS nn, SUM(s1) AS t1, SUM(s2) AS t2,
                         CAST(COUNT(*) AS HUGEINT) AS k,
                         SUM((s1 * s1 * 1000000) // n) AS sb
                  FROM g)
            SELECT CAST(nn AS BIGINT) AS n_rows,
                   CAST(k AS BIGINT) AS n_groups,
                   CAST(sb - (t1 * t1 * 1000000) // nn AS BIGINT)
                       AS ssb_micro,
                   CAST(t2 * 1000000 - sb AS BIGINT) AS ssw_micro,
                   CAST(CASE WHEN k > 1 AND nn > k
                                  AND sb - (t1*t1*1000000)//nn > 0
                                  AND t2*1000000 - sb > 0
                        THEN ((sb - (t1*t1*1000000)//nn) * (nn-k)
                              * 1000000) // ((t2*1000000 - sb) * (k-1))
                        ELSE 0 END AS BIGINT) AS f_micro
            FROM t
        """,
        "cramers_v": """
            WITH c AS (SELECT COALESCE(source, 'und') AS s,
                              COALESCE(lang, 'und') AS l,
                              CAST(COUNT(*) AS HUGEINT) AS o
                       FROM documents GROUP BY 1, 2),
            mr AS (SELECT s, SUM(o) AS r FROM c GROUP BY s),
            mc AS (SELECT l, SUM(o) AS cc FROM c GROUP BY l),
            tot AS (SELECT SUM(o) AS n,
                           CAST(COUNT(DISTINCT s) AS BIGINT) AS nr,
                           CAST(COUNT(DISTINCT l) AS BIGINT) AS nc
                    FROM c),
            agg AS (SELECT SUM(((c.o * tot.n - mr.r * mc.cc)
                                * (c.o * tot.n - mr.r * mc.cc)
                                * 1000000)
                               // (mr.r * mc.cc * tot.n)) AS chi2
                    FROM c JOIN mr ON c.s = mr.s
                           JOIN mc ON c.l = mc.l CROSS JOIN tot)
            SELECT CAST(tot.n AS BIGINT) AS n_rows, tot.nr AS n_sources,
                   tot.nc AS n_langs, CAST(agg.chi2 AS BIGINT)
                       AS chi2_ppm,
                   CASE WHEN LEAST(tot.nr - 1, tot.nc - 1) > 0
                             AND tot.n > 0
                        THEN sqrt(CAST(agg.chi2 AS DOUBLE) / 1000000.0
                                  / CAST(tot.n AS DOUBLE)
                                  / CAST(LEAST(tot.nr - 1, tot.nc - 1)
                                         AS DOUBLE))
                        ELSE 0.0 END AS cramers_v
            FROM tot CROSS JOIN agg
        """,
        "nation_theil": """
            WITH cust AS (
                SELECT c.c_nationkey AS nation, o.o_custkey AS k,
                       CAST(SUM(CAST(FLOOR(o.o_totalprice) AS HUGEINT))
                            AS HUGEINT) AS x
                FROM orders o JOIN customer c
                     ON o.o_custkey = c.c_custkey
                GROUP BY 1, 2
                HAVING SUM(CAST(FLOOR(o.o_totalprice) AS HUGEINT)) > 0),
            tot AS (SELECT nation, CAST(COUNT(*) AS HUGEINT) AS n,
                           SUM(x) AS xt
                    FROM cust GROUP BY 1),
            terms AS (SELECT cust.nation,
                             CAST(FLOOR(1000000.0
                                  * (CAST(cust.x AS DOUBLE)
                                     / CAST(tot.xt AS DOUBLE))
                                  * LN((CAST(cust.x AS DOUBLE)
                                        / CAST(tot.xt AS DOUBLE))
                                       * CAST(tot.n AS DOUBLE)))
                                  AS HUGEINT) AS t
                      FROM cust JOIN tot ON cust.nation = tot.nation),
            s AS (SELECT nation, SUM(t) AS st FROM terms GROUP BY 1)
            SELECT CAST(tot.nation AS BIGINT) AS nation,
                   CAST(tot.n AS BIGINT) AS n_cust,
                   CAST(tot.xt AS BIGINT) AS total_x,
                   CAST(GREATEST(COALESCE(s.st, 0), 0) // tot.n
                        AS BIGINT) AS theil_ppm
            FROM tot LEFT JOIN s ON tot.nation = s.nation
        """,
        "class_weight_plan": """
            WITH g AS (SELECT COALESCE(lang, 'und') AS lang,
                              CAST(COUNT(*) AS HUGEINT) AS n
                       FROM documents GROUP BY 1),
            t AS (SELECT SUM(n) AS total,
                         CAST(COUNT(*) AS HUGEINT) AS k FROM g)
            SELECT g.lang, CAST(g.n AS BIGINT) AS n_docs,
                   CAST((t.total * 1000000) // (t.k * g.n) AS BIGINT)
                       AS weight_ppm
            FROM g CROSS JOIN t
        """,
        "user_daily_ohlc": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                   FIRST(value ORDER BY ts, event_id) AS open,
                   MAX(value) AS high, MIN(value) AS low,
                   LAST(value ORDER BY ts, event_id) AS close,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "systematic_sample": """
            SELECT * FROM (
                SELECT CAST(doc_id AS BIGINT) AS doc_id,
                       CAST(n_chars AS BIGINT) AS n_chars,
                       row_number() OVER (ORDER BY n_chars DESC, doc_id)
                           AS global_rank
                FROM documents)
            WHERE global_rank % 97 = 1
        """,
        "label_centroid_cosine": """
            WITH e AS (SELECT label, unnest(embedding) AS x,
                              unnest(range(1, len(embedding) + 1)) AS i
                       FROM embeddings),
            q AS (SELECT CAST(label AS BIGINT) AS label, i,
                         CAST(SUM(CAST(FLOOR(CAST(x AS DOUBLE) * 1000)
                                       AS HUGEINT)) AS HUGEINT) AS s
                  FROM e GROUP BY 1, 2),
            nrm AS (SELECT label, SUM(s * s) AS nn FROM q GROUP BY 1),
            p AS (SELECT a.label AS la, b.label AS lb,
                         SUM(a.s * b.s) AS dot
                  FROM q a JOIN q b ON a.i = b.i AND a.label < b.label
                  GROUP BY 1, 2)
            SELECT p.la AS label_a, p.lb AS label_b,
                   CAST(p.dot AS BIGINT) AS dot,
                   CASE WHEN na.nn > 0 AND nb.nn > 0
                        THEN CAST(p.dot AS DOUBLE)
                             / (sqrt(CAST(na.nn AS DOUBLE))
                                * sqrt(CAST(nb.nn AS DOUBLE)))
                        ELSE 0.0 END AS cosine
            FROM p JOIN nrm na ON p.la = na.label
                   JOIN nrm nb ON p.lb = nb.label
        """,
        "fk_orphans": """
            SELECT 'lineitem->orders' AS relationship,
                   CAST(COUNT(*) AS BIGINT) AS n_child_rows,
                   CAST(SUM(CASE WHEN o.o_orderkey IS NULL THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_orphan_rows,
                   CAST(COUNT(DISTINCT CASE WHEN o.o_orderkey IS NULL
                                       THEN l.l_orderkey END) AS BIGINT)
                       AS n_orphan_keys
            FROM lineitem l LEFT JOIN
                 (SELECT DISTINCT o_orderkey FROM orders) o
                 ON l.l_orderkey = o.o_orderkey
            UNION ALL
            SELECT 'orders->customer',
                   CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN c.c_custkey IS NULL THEN 1
                                 ELSE 0 END) AS BIGINT),
                   CAST(COUNT(DISTINCT CASE WHEN c.c_custkey IS NULL
                                       THEN o2.o_custkey END) AS BIGINT)
            FROM orders o2 LEFT JOIN
                 (SELECT DISTINCT c_custkey FROM customer) c
                 ON o2.o_custkey = c.c_custkey
        """,
        "user_survival_km": """
            WITH u AS (SELECT user_id, min(epoch_us(ts)) AS f,
                              max(epoch_us(ts)) AS l
                       FROM events GROUP BY 1),
            g AS (SELECT max(l) AS gmax FROM u),
            d AS (SELECT (l - f) // 86400000000 AS day,
                         CASE WHEN l <= g.gmax - 21600000000
                              THEN 1 ELSE 0 END AS observed
                  FROM u, g),
            ev AS (SELECT day, SUM(observed) AS d_events,
                          COUNT(*) AS leaving
                   FROM d GROUP BY 1),
            tot AS (SELECT COUNT(*) AS n FROM d),
            r AS (SELECT day, d_events,
                         tot.n - COALESCE(SUM(leaving) OVER (
                             ORDER BY day ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING), 0) AS n_risk
                  FROM ev, tot),
            t AS (SELECT day, n_risk, d_events,
                         CASE WHEN d_events < n_risk
                              THEN CAST(FLOOR(1000000.0 * LN(1.0
                                   - CAST(d_events AS DOUBLE)
                                   / CAST(n_risk AS DOUBLE)))
                                   AS BIGINT)
                              ELSE -1000000000000000 END AS term
                  FROM r WHERE d_events > 0)
            SELECT CAST(day AS BIGINT) AS day,
                   CAST(n_risk AS BIGINT) AS n_risk,
                   CAST(d_events AS BIGINT) AS n_events,
                   CAST(SUM(term) OVER (ORDER BY day ROWS BETWEEN
                        UNBOUNDED PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS log_surv_ppm
            FROM t
        """,
        "kmv_type_overlap": """
            WITH h AS (SELECT DISTINCT COALESCE(event_type, 'und') AS t,
                           CAST(concat('0x', substr(md5(
                               CAST(user_id AS VARCHAR)), 1, 15))
                                AS BIGINT) AS hv
                       FROM events),
            k AS (SELECT t, hv FROM (
                      SELECT t, hv, row_number() OVER (
                          PARTITION BY t ORDER BY hv) AS rn FROM h)
                  WHERE rn <= 64),
            e AS (SELECT t, count(*) AS kk, max(hv) AS kth
                  FROM k GROUP BY 1),
            pr AS (SELECT a.t AS ta, a.kk AS ka, a.kth AS kha,
                          b.t AS tb, b.kk AS kb, b.kth AS khb
                   FROM e a JOIN e b ON a.t < b.t),
            uh AS (SELECT DISTINCT pr.ta, pr.tb, k.hv
                   FROM pr JOIN k ON k.t = pr.ta OR k.t = pr.tb),
            ur AS (SELECT ta, tb, hv, row_number() OVER (
                       PARTITION BY ta, tb ORDER BY hv) AS rn
                   FROM uh),
            ue AS (SELECT ta, tb, count(*) AS kk, max(hv) AS kth
                   FROM ur WHERE rn <= 64 GROUP BY 1, 2),
            f AS (SELECT pr.ta, pr.tb,
                      CASE WHEN pr.ka < 64 THEN CAST(pr.ka AS HUGEINT)
                           ELSE (CAST(63 AS HUGEINT)
                                 * 1152921504606846976) // pr.kha
                           END AS ea,
                      CASE WHEN pr.kb < 64 THEN CAST(pr.kb AS HUGEINT)
                           ELSE (CAST(63 AS HUGEINT)
                                 * 1152921504606846976) // pr.khb
                           END AS eb,
                      CASE WHEN ue.kk < 64 THEN CAST(ue.kk AS HUGEINT)
                           ELSE (CAST(63 AS HUGEINT)
                                 * 1152921504606846976) // ue.kth
                           END AS eu
                  FROM pr JOIN ue ON pr.ta = ue.ta AND pr.tb = ue.tb)
            SELECT ta AS group_a, tb AS group_b,
                   CAST(ea AS BIGINT) AS est_a,
                   CAST(eb AS BIGINT) AS est_b,
                   CAST(eu AS BIGINT) AS est_union,
                   CAST(GREATEST(ea + eb - eu, 0) AS BIGINT)
                       AS est_intersection
            FROM f
        """,
        "langid_calibration": """
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(
                         string_split_regex(lower(text), '\\s+'),
                         x -> x <> '')) AS w
              FROM documents),
            h AS (SELECT doc_id,
                   sum(CASE WHEN w IN ('auch', 'das', 'den', 'der', 'die', 'ein', 'eine', 'im', 'ist', 'mit', 'nicht', 'und', 'von', 'zu')
                            THEN 1 ELSE 0 END) AS de,
                   sum(CASE WHEN w IN ('a', 'and', 'are', 'at', 'for', 'in', 'is', 'it', 'of', 'on', 'that', 'the', 'this', 'to', 'was', 'with')
                            THEN 1 ELSE 0 END) AS en,
                   sum(CASE WHEN w IN ('con', 'de', 'del', 'el', 'en', 'es', 'las', 'los', 'para', 'por', 'se', 'un', 'una', 'y')
                            THEN 1 ELSE 0 END) AS es,
                   sum(CASE WHEN w IN ('au', 'dans', 'de', 'du', 'en', 'est', 'et', 'la', 'le', 'les', 'pour', 'que', 'un', 'une')
                            THEN 1 ELSE 0 END) AS fr,
                   sum(CASE WHEN w IN ('a', 'az', 'de', 'egy', 'el', 'ez', 'hogy', 'is', 'meg', 'nem', 'van', 'és')
                            THEN 1 ELSE 0 END) AS hu,
                   count(*) AS n_words
                  FROM w GROUP BY doc_id),
            j AS (SELECT d.doc_id,
                         COALESCE(h.de,0) AS de, COALESCE(h.en,0) AS en,
                         COALESCE(h.es,0) AS es, COALESCE(h.fr,0) AS fr,
                         COALESCE(h.hu,0) AS hu,
                         COALESCE(h.n_words,0) AS n_words
                  FROM documents d LEFT JOIN h USING (doc_id)),
            u AS (SELECT doc_id, 'de' AS lang, de AS hits FROM j
                  UNION ALL SELECT doc_id, 'en' AS lang, en AS hits FROM j
                  UNION ALL SELECT doc_id, 'es' AS lang, es AS hits FROM j
                  UNION ALL SELECT doc_id, 'fr' AS lang, fr AS hits FROM j
                  UNION ALL SELECT doc_id, 'hu' AS lang, hu AS hits FROM j),
            b AS (SELECT doc_id, lang, hits,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY hits DESC, lang)
                             AS rn
                  FROM u),
            p AS (SELECT j.doc_id,
                         CASE WHEN b.hits > 0 THEN b.lang
                              ELSE 'und' END AS pred_lang,
                         CASE WHEN j.n_words > 0
                              THEN CAST(b.hits AS DOUBLE)
                                   / CAST(j.n_words AS DOUBLE)
                              ELSE 0.0 END AS conf
                  FROM b JOIN j USING (doc_id) WHERE b.rn = 1)
            SELECT CAST(FLOOR(conf * 10.0) AS BIGINT) AS bin,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN p.pred_lang
                                      = COALESCE(d.lang, 'und')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_correct,
                   CAST((CAST(SUM(CASE WHEN p.pred_lang
                                       = COALESCE(d.lang, 'und')
                                  THEN 1 ELSE 0 END) AS HUGEINT)
                         * 1000000) // COUNT(*) AS BIGINT)
                       AS accuracy_ppm
            FROM p JOIN documents d USING (doc_id)
            GROUP BY 1
        """,
        "user_value_interp": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) AS t,
                     CAST(FLOOR(COALESCE(value, 0) * 1000)
                          AS BIGINT) AS vm,
                     row_number() OVER (PARTITION BY user_id, ts
                                        ORDER BY event_id DESC) AS rn
              FROM events),
            dd AS (SELECT user_id, t, vm FROM d WHERE rn = 1),
            seg AS (SELECT user_id, t AS t0, vm AS v0,
                           LEAD(t) OVER w AS t1, LEAD(vm) OVER w AS v1
                    FROM dd
                    WINDOW w AS (PARTITION BY user_id ORDER BY t)),
            g AS (SELECT user_id, v0, v1, t0, t1,
                         unnest(range((t0 + 3599999999) // 3600000000,
                                      ((t1 - 1) // 3600000000) + 1))
                             AS hour
                  FROM seg WHERE t1 IS NOT NULL),
            pts AS (
              SELECT user_id, hour,
                     v0 + ((v1 - v0) * (hour * 3600000000 - t0))
                          // (t1 - t0) AS value_milli
              FROM g
              UNION ALL
              SELECT user_id, t0 // 3600000000, v0
              FROM seg WHERE t1 IS NULL AND t0 % 3600000000 = 0)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(hour AS BIGINT) AS hour,
                   CAST(value_milli AS BIGINT) AS value_milli
            FROM pts
        """,
        "zorder_layout": """
            WITH b AS (
              SELECT LEAST(COALESCE(n_chars, 0) // 64, 15) AS x,
                     COALESCE(doc_id, 0) % 16 AS y,
                     COALESCE(n_chars, 0) AS ch
              FROM documents),
            z AS (SELECT ((x & 1) * 2) + (((x >> 1) & 1) * 8)
                         + (((x >> 2) & 1) * 32)
                         + (((x >> 3) & 1) * 128)
                         + (y & 1) + (((y >> 1) & 1) * 4)
                         + (((y >> 2) & 1) * 16)
                         + (((y >> 3) & 1) * 64) AS z, ch
                  FROM b)
            SELECT CAST(z AS BIGINT) AS z,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(MIN(ch) AS BIGINT) AS min_chars,
                   CAST(MAX(ch) AS BIGINT) AS max_chars
            FROM z GROUP BY 1
        """,
        "best_split_chars": """
            WITH h AS (SELECT COALESCE(n_chars, 0) AS v,
                              CAST(COUNT(*) AS HUGEINT) AS n,
                              CAST(SUM(CASE WHEN COALESCE(lang, 'und')
                                                 = 'en' THEN 1 ELSE 0
                                       END) AS HUGEINT) AS e
                       FROM documents GROUP BY 1),
            t AS (SELECT SUM(n) AS nn, SUM(e) AS ee, MAX(v) AS vmax
                  FROM h),
            c AS (SELECT v, SUM(n) OVER (ORDER BY v) AS nl,
                         SUM(e) OVER (ORDER BY v) AS el
                  FROM h),
            cand AS (SELECT c.v, c.nl, c.el, t.nn - c.nl AS nr,
                            t.ee - c.el AS er, t.nn
                     FROM c, t WHERE c.v < t.vmax),
            g AS (SELECT v, nl, nr,
                     (CASE WHEN nl > 0
                           THEN ((nl*nl - el*el - (nl-el)*(nl-el))
                                 * 1000000) // (nl * nn) ELSE 0 END
                      + CASE WHEN nr > 0
                             THEN ((nr*nr - er*er - (nr-er)*(nr-er))
                                   * 1000000) // (nr * nn) ELSE 0 END)
                         AS gini
                  FROM cand)
            SELECT CAST(v AS BIGINT) AS threshold,
                   CAST(nl AS BIGINT) AS n_left,
                   CAST(nr AS BIGINT) AS n_right,
                   CAST(gini AS BIGINT) AS gini_ppm
            FROM g ORDER BY gini, v LIMIT 1
        """,
        "nb_lang_confusion": """
            WITH docs AS (SELECT doc_id, COALESCE(lang, 'und') AS lang,
                                 COALESCE(text, '') AS text
                          FROM documents),
            w AS (SELECT doc_id, lang,
                         unnest(string_split(text, ' ')) AS term
                  FROM docs),
            wf AS (SELECT doc_id, lang, term FROM w WHERE term <> ''),
            cnt AS (SELECT lang, term, CAST(count(*) AS BIGINT) AS c
                    FROM wf GROUP BY 1, 2),
            vocab AS (SELECT DISTINCT term FROM wf),
            vv AS (SELECT CAST(count(*) AS BIGINT) AS v FROM vocab),
            lg AS (SELECT lang, CAST(count(*) AS BIGINT) AS nd
                   FROM docs GROUP BY 1),
            nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM docs),
            tot AS (SELECT lang, CAST(sum(c) AS BIGINT) AS t
                    FROM cnt GROUP BY 1),
            logp AS (SELECT l.lang, v.term,
                            CAST(FLOOR(1000000 * LN(
                                (COALESCE(cnt.c, 0) + 1.0)
                                / (COALESCE(tot.t, 0) + vv.v)))
                                 AS BIGINT) AS lp
                     FROM lg l CROSS JOIN vocab v CROSS JOIN vv
                     LEFT JOIN tot ON tot.lang = l.lang
                     LEFT JOIN cnt ON cnt.lang = l.lang
                                  AND cnt.term = v.term),
            prior AS (SELECT l.lang,
                             CAST(FLOOR(1000000 * LN(
                                 CAST(l.nd AS DOUBLE) / nn.n))
                                  AS BIGINT) AS pr
                      FROM lg l CROSS JOIN nn),
            tfd AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                    FROM wf GROUP BY 1, 2),
            sc AS (SELECT d.doc_id, d.lang AS true_lang,
                          p.lang AS cand,
                          p.pr + COALESCE(SUM(t.tf * logp.lp), 0)
                              AS score
                   FROM docs d CROSS JOIN prior p
                   LEFT JOIN tfd t ON t.doc_id = d.doc_id
                   LEFT JOIN logp ON logp.lang = p.lang
                                 AND logp.term = t.term
                   GROUP BY d.doc_id, d.lang, p.lang, p.pr),
            pred AS (SELECT doc_id, true_lang, cand,
                            row_number() OVER (
                                PARTITION BY doc_id
                                ORDER BY score DESC, cand ASC) AS rn
                     FROM sc)
            SELECT true_lang, cand AS pred_lang,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM pred WHERE rn = 1 GROUP BY 1, 2
        """,
        "event_type_stationary": """
            WITH r AS (SELECT user_id, COALESCE(event_type, '') AS et,
                              lag(COALESCE(event_type, '')) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS p
                       FROM events WHERE ts IS NOT NULL),
            tr AS (SELECT p AS src, et AS dst,
                          CAST(count(*) AS HUGEINT) AS c
                   FROM r WHERE p IS NOT NULL GROUP BY 1, 2),
            states AS (SELECT src AS s FROM tr
                       UNION SELECT dst FROM tr),
            tot AS (SELECT src, SUM(c) AS t FROM tr GROUP BY 1),
            m AS (SELECT tr.src, tr.dst, tr.c, tot.t
                  FROM tr JOIN tot USING (src)
                  UNION ALL
                  SELECT s, s, CAST(1 AS HUGEINT), CAST(1 AS HUGEINT)
                  FROM states WHERE s NOT IN (SELECT src FROM tr)),
            t0 AS (SELECT s AS ty,
                          CASE WHEN s = (SELECT MIN(s) FROM states)
                               THEN CAST(1000000 AS HUGEINT)
                               ELSE CAST(0 AS HUGEINT) END AS v
                   FROM states),
            t1 AS (SELECT m.dst AS ty, SUM((t0.v * m.c) // m.t) AS v
                   FROM t0 JOIN m ON m.src = t0.ty GROUP BY 1),
            t2 AS (SELECT m.dst AS ty, SUM((t1.v * m.c) // m.t) AS v
                   FROM t1 JOIN m ON m.src = t1.ty GROUP BY 1),
            t3 AS (SELECT m.dst AS ty, SUM((t2.v * m.c) // m.t) AS v
                   FROM t2 JOIN m ON m.src = t2.ty GROUP BY 1),
            t4 AS (SELECT m.dst AS ty, SUM((t3.v * m.c) // m.t) AS v
                   FROM t3 JOIN m ON m.src = t3.ty GROUP BY 1),
            t5 AS (SELECT m.dst AS ty, SUM((t4.v * m.c) // m.t) AS v
                   FROM t4 JOIN m ON m.src = t4.ty GROUP BY 1),
            t6 AS (SELECT m.dst AS ty, SUM((t5.v * m.c) // m.t) AS v
                   FROM t5 JOIN m ON m.src = t5.ty GROUP BY 1),
            t7 AS (SELECT m.dst AS ty, SUM((t6.v * m.c) // m.t) AS v
                   FROM t6 JOIN m ON m.src = t6.ty GROUP BY 1),
            t8 AS (SELECT m.dst AS ty, SUM((t7.v * m.c) // m.t) AS v
                   FROM t7 JOIN m ON m.src = t7.ty GROUP BY 1)
            SELECT CAST(states.s AS VARCHAR) AS event_type,
                   CAST(COALESCE(t8.v, 0) AS BIGINT) AS v_ppm
            FROM states LEFT JOIN t8 ON t8.ty = states.s
        """,
        "ams_f2_users": """
            WITH cu AS (SELECT COALESCE(user_id, -1) AS u,
                               CAST(count(*) AS BIGINT) AS c
                        FROM events GROUP BY 1),
            h AS (SELECT u, c, md5(CAST(u AS VARCHAR)) AS m FROM cu),
            rr AS (SELECT unnest(range(16)) AS r),
            s AS (SELECT rr.r,
                         SUM(CASE WHEN substr(h.m,
                                       CAST(rr.r + 1 AS INT), 1)
                                  IN ('0','1','2','3','4','5','6','7')
                                  THEN CAST(h.c AS HUGEINT)
                                  ELSE -CAST(h.c AS HUGEINT) END)
                             AS sr
                  FROM h CROSS JOIN rr GROUP BY 1),
            est AS (SELECT SUM(sr * sr) // 16 AS e FROM s),
            ex AS (SELECT CAST(COALESCE(SUM(
                       CAST(c AS HUGEINT) * c), 0) AS HUGEINT) AS x
                   FROM cu)
            SELECT CAST(ex.x AS BIGINT) AS exact_f2,
                   CAST(est.e AS BIGINT) AS est_f2,
                   CAST((est.e * 1000000) // ex.x AS BIGINT)
                       AS ratio_ppm
            FROM ex CROSS JOIN est WHERE ex.x > 0
        """,
        "zonemap_prune": """
            WITH p AS (SELECT COALESCE(doc_id, 0) AS did,
                              COALESCE(n_chars, 0) AS ch
                       FROM documents),
            z AS (SELECT did // 64 AS pg, MIN(did) AS d0,
                         MAX(did) AS d1, MIN(ch) AS c0, MAX(ch) AS c1,
                         SUM(CASE WHEN did BETWEEN 1000 AND 2000
                                  THEN 1 ELSE 0 END) AS m1,
                         SUM(CASE WHEN ch BETWEEN 100 AND 160
                                  THEN 1 ELSE 0 END) AS m2
                  FROM p GROUP BY 1),
            a AS (SELECT 'doc_id_range' AS predicate,
                         CAST(COUNT(*) AS BIGINT) AS pages_total,
                         CAST(COALESCE(SUM(CASE WHEN d1 >= 1000
                                            AND d0 <= 2000 THEN 1
                                            ELSE 0 END), 0) AS BIGINT)
                             AS pages_scanned,
                         CAST(COALESCE(SUM(m1), 0) AS BIGINT)
                             AS rows_matched
                  FROM z
                  UNION ALL
                  SELECT 'n_chars_range', CAST(COUNT(*) AS BIGINT),
                         CAST(COALESCE(SUM(CASE WHEN c1 >= 100
                                            AND c0 <= 160 THEN 1
                                            ELSE 0 END), 0) AS BIGINT),
                         CAST(COALESCE(SUM(m2), 0) AS BIGINT)
                  FROM z)
            SELECT predicate, pages_total, pages_scanned, rows_matched,
                   CAST(((pages_total - pages_scanned) * 1000000)
                        // pages_total AS BIGINT) AS prune_ppm
            FROM a WHERE pages_total > 0
        """,
        "jackknife_mean_chars": """
            WITH d AS (SELECT COALESCE(doc_id, 0) % 16 AS g,
                              COALESCE(n_chars, 0) AS ch
                       FROM documents),
            f AS (SELECT g, CAST(COUNT(*) AS HUGEINT) AS n,
                         CAST(SUM(ch) AS HUGEINT) AS s
                  FROM d GROUP BY 1),
            tot AS (SELECT CAST(COALESCE(SUM(n), 0) AS HUGEINT) AS nn,
                           CAST(COALESCE(SUM(s), 0) AS HUGEINT) AS ss
                    FROM f),
            folds AS (SELECT unnest(range(16)) AS g),
            m AS (SELECT folds.g,
                         CASE WHEN tot.nn - COALESCE(f.n, 0) > 0
                              THEN ((tot.ss - COALESCE(f.s, 0))
                                    * 1000000)
                                   // (tot.nn - COALESCE(f.n, 0))
                              ELSE CAST(0 AS HUGEINT) END AS mg
                  FROM folds CROSS JOIN tot
                  LEFT JOIN f ON f.g = folds.g),
            mb AS (SELECT SUM(mg) // 16 AS mbar FROM m),
            v AS (SELECT (15 * SUM((mg - mbar) * (mg - mbar))) // 16
                             AS jv
                  FROM m CROSS JOIN mb)
            SELECT CAST(tot.nn AS BIGINT) AS n_rows,
                   CAST((tot.ss * 1000000) // tot.nn AS BIGINT)
                       AS mean_ppm,
                   CAST(FLOOR(SQRT(CAST(v.jv AS DOUBLE))) AS BIGINT)
                       AS jk_se_ppm
            FROM tot CROSS JOIN v WHERE tot.nn > 0
        """,
        "business_days_latency": """
            WITH o AS (SELECT o_orderkey,
                              datediff('day', DATE '1970-01-01',
                                       o_orderdate) + 1 AS od
                       FROM orders),
            l AS (SELECT l_orderkey,
                         COALESCE(l_returnflag, '') AS returnflag,
                         datediff('day', DATE '1970-01-01',
                                  l_shipdate) + 1 AS sd
                  FROM lineitem),
            j AS (SELECT l.returnflag,
                         (5 * (l.sd // 7)
                          + CASE l.sd % 7 WHEN 1 THEN 1 WHEN 2 THEN 2
                                WHEN 3 THEN 2 WHEN 4 THEN 2
                                WHEN 5 THEN 3 WHEN 6 THEN 4
                                ELSE 0 END)
                         - (5 * (o.od // 7)
                            + CASE o.od % 7 WHEN 1 THEN 1 WHEN 2 THEN 2
                                  WHEN 3 THEN 2 WHEN 4 THEN 2
                                  WHEN 5 THEN 3 WHEN 6 THEN 4
                                  ELSE 0 END) AS bus
                  FROM l JOIN o ON o.o_orderkey = l.l_orderkey)
            SELECT returnflag, CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(bus) AS BIGINT) AS sum_busdays,
                   CAST((sum(bus) * 1000000) // count(*) AS BIGINT)
                       AS avg_busdays_ppm,
                   CAST(max(bus) AS BIGINT) AS max_busdays
            FROM j GROUP BY 1
        """,
        "customer_feature_table": """
            WITH o AS (SELECT o_custkey,
                              CAST(count(*) AS BIGINT) AS n_orders,
                              CAST(sum(CAST(round(o_totalprice * 100,
                                                  0) AS BIGINT))
                                   AS BIGINT) AS total_cents,
                              CAST(min(datediff('day',
                                       DATE '1970-01-01',
                                       o_orderdate)) AS BIGINT) AS f,
                              CAST(max(datediff('day',
                                       DATE '1970-01-01',
                                       o_orderdate)) AS BIGINT) AS l
                       FROM orders GROUP BY 1)
            SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey,
                   COALESCE(c.c_mktsegment, '') AS mktsegment,
                   COALESCE(n.n_name, '') AS nation,
                   CAST(round(c.c_acctbal * 100, 0) AS BIGINT)
                       AS acctbal_cents,
                   CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders,
                   CAST(COALESCE(o.total_cents, 0) AS BIGINT)
                       AS total_cents,
                   CAST(CASE WHEN COALESCE(o.n_orders, 0) > 0
                             THEN o.total_cents // o.n_orders
                             ELSE 0 END AS BIGINT) AS avg_order_cents,
                   CAST(COALESCE(o.f, -1) AS BIGINT) AS first_day,
                   CAST(COALESCE(o.l, -1) AS BIGINT) AS last_day,
                   CAST(CASE WHEN o.n_orders IS NOT NULL
                             THEN o.l - o.f ELSE 0 END AS BIGINT)
                       AS span_days
            FROM customer c
            LEFT JOIN nation n ON n.n_nationkey = c.c_nationkey
            LEFT JOIN o ON o.o_custkey = c.c_custkey
        """,
        "hash_permutation_test": """
            WITH d AS (SELECT COALESCE(n_chars, 0) AS ch,
                              COALESCE(lang, 'und') AS lang,
                              md5(CAST(COALESCE(doc_id, 0) AS VARCHAR))
                                  AS m
                       FROM documents),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(COALESCE(sum(ch), 0) AS BIGINT) AS s,
                           CAST(count(*) FILTER (WHERE lang = 'en')
                                AS BIGINT) AS ne,
                           CAST(COALESCE(sum(ch) FILTER (
                                WHERE lang = 'en'), 0) AS BIGINT) AS se
                    FROM d),
            rr AS (SELECT unnest(range(16)) AS r),
            ra AS (SELECT rr.r,
                          CAST(count(*) FILTER (WHERE substr(d.m,
                               CAST(rr.r + 1 AS INT), 1) IN
                               ('0','1','2','3','4','5','6','7'))
                               AS BIGINT) AS na,
                          CAST(COALESCE(sum(d.ch) FILTER (
                               WHERE substr(d.m,
                               CAST(rr.r + 1 AS INT), 1) IN
                               ('0','1','2','3','4','5','6','7')), 0)
                               AS BIGINT) AS sa
                   FROM rr CROSS JOIN d GROUP BY 1),
            st AS (SELECT n, s, ne, se,
                          (se * 1000000) // ne
                          - ((s - se) * 1000000) // (n - ne) AS dobs
                   FROM tot WHERE ne > 0 AND n - ne > 0),
            dr AS (SELECT ra.r,
                          CASE WHEN ra.na > 0 AND tot.n - ra.na > 0
                               THEN (ra.sa * 1000000) // ra.na
                                    - ((tot.s - ra.sa) * 1000000)
                                      // (tot.n - ra.na)
                               ELSE 0 END AS dv
                   FROM ra CROSS JOIN tot),
            ext AS (SELECT CAST(count(*) AS BIGINT) AS c
                    FROM dr CROSS JOIN st
                    WHERE abs(dr.dv) >= abs(st.dobs))
            SELECT CAST(st.dobs AS BIGINT) AS d_obs_ppm,
                   CAST(ext.c AS BIGINT) AS n_extreme,
                   CAST((ext.c * 1000000) // 16 AS BIGINT) AS p_ppm
            FROM st CROSS JOIN ext
        """,
        "gdpr_erasure_audit": """
            WITH a AS (
              SELECT 'events' AS table_name,
                     CAST(count(*) AS BIGINT) AS n_rows,
                     CAST(count(*) FILTER (
                         WHERE COALESCE(user_id, -1) % 1000 = 7)
                         AS BIGINT) AS n_erased
              FROM events
              UNION ALL
              SELECT 'orders', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (
                         WHERE COALESCE(o_custkey, 0) % 1000 = 7)
                         AS BIGINT)
              FROM orders
              UNION ALL
              SELECT 'customer', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (
                         WHERE COALESCE(c_custkey, 0) % 1000 = 7)
                         AS BIGINT)
              FROM customer)
            SELECT table_name, n_rows, n_erased,
                   CAST((n_erased * 1000000) // n_rows AS BIGINT)
                       AS erased_ppm
            FROM a WHERE n_rows > 0
        """,
        "ivm_delta_merge": """
            SELECT CAST((year(o_orderdate) - 1970) * 12
                        + month(o_orderdate) - 1 AS BIGINT) AS month,
                   CAST(count(*) FILTER (
                       WHERE COALESCE(o_orderkey, 0) % 10 <> 0)
                       AS BIGINT) AS n_base,
                   CAST(count(*) FILTER (
                       WHERE COALESCE(o_orderkey, 0) % 10 = 0)
                       AS BIGINT) AS n_delta,
                   CAST(sum(CAST(round(o_totalprice * 100, 0)
                                 AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders GROUP BY 1
        """,
        "trade_distance": """
            WITH e AS (SELECT nc.n_name AS cust_nation, ns.n_name AS supp_nation,
                   CAST(sum(CAST(round(l.l_extendedprice * 100, 0)
                                 AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100, 0)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_c4
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation nc ON nc.n_nationkey = c.c_nationkey
            JOIN nation ns ON ns.n_nationkey = s.s_nationkey
            WHERE s.s_nationkey <> c.c_nationkey
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY nc.n_name, ns.n_name),
            w AS (SELECT cust_nation AS src, supp_nation AS dst,
                         1 + 1000000000000 // (revenue_c4 + 1) AS w
                  FROM e
                  UNION ALL
                  SELECT supp_nation, cust_nation,
                         1 + 1000000000000 // (revenue_c4 + 1)
                  FROM e),
            nodes AS (SELECT DISTINCT src AS v FROM w
                      UNION SELECT DISTINCT dst FROM w),
            d0 AS (SELECT v,
                          CASE WHEN v = (SELECT MIN(v) FROM nodes)
                               THEN 0
                               ELSE 1000000000000000 END AS d
                   FROM nodes),
            d1 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d0
                UNION ALL
                SELECT w.dst AS v, d0.d + w.w AS d
                FROM d0 JOIN w ON w.src = d0.v) GROUP BY 1),
            d2 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d1
                UNION ALL
                SELECT w.dst AS v, d1.d + w.w AS d
                FROM d1 JOIN w ON w.src = d1.v) GROUP BY 1),
            d3 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d2
                UNION ALL
                SELECT w.dst AS v, d2.d + w.w AS d
                FROM d2 JOIN w ON w.src = d2.v) GROUP BY 1),
            d4 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d3
                UNION ALL
                SELECT w.dst AS v, d3.d + w.w AS d
                FROM d3 JOIN w ON w.src = d3.v) GROUP BY 1),
            d5 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d4
                UNION ALL
                SELECT w.dst AS v, d4.d + w.w AS d
                FROM d4 JOIN w ON w.src = d4.v) GROUP BY 1),
            d6 AS (SELECT v, MIN(d) AS d FROM (
                SELECT v, d FROM d5
                UNION ALL
                SELECT w.dst AS v, d5.d + w.w AS d
                FROM d5 JOIN w ON w.src = d5.v) GROUP BY 1),
            x AS (SELECT v, d FROM d6)
            SELECT nodes.v AS nation,
                   CAST(CASE WHEN x.d >= 1000000000000000 THEN -1
                             ELSE x.d END AS BIGINT) AS dist_cost
            FROM nodes JOIN x ON x.v = nodes.v
        """,
        "quota_allocation": """
            WITH g AS (SELECT COALESCE(source, '') AS source,
                              CAST(count(*) AS HUGEINT) AS n
                       FROM documents GROUP BY 1),
            t AS (SELECT SUM(n) AS nn FROM g),
            b AS (SELECT g.source, g.n, (1000 * g.n) // t.nn AS base,
                         (1000 * g.n) % t.nn AS rem
                  FROM g CROSS JOIN t),
            l AS (SELECT 1000 - SUM(base) AS lf FROM b),
            r AS (SELECT b.source, b.n, b.base,
                         row_number() OVER (
                             ORDER BY b.rem DESC, b.source ASC) AS rk
                  FROM b)
            SELECT r.source, CAST(r.n AS BIGINT) AS n_docs,
                   CAST(r.base AS BIGINT) AS base_slots,
                   CAST(r.base + CASE WHEN r.rk <= l.lf THEN 1
                                      ELSE 0 END AS BIGINT) AS slots
            FROM r CROSS JOIN l
        """,
        "hierarchy_share": """
            WITH rev AS (SELECT c.c_nationkey AS nk,
                                CAST(SUM(CAST(round(o.o_totalprice
                                                    * 100, 0)
                                              AS BIGINT)) AS BIGINT)
                                    AS cents
                         FROM orders o
                         JOIN customer c ON c.c_custkey = o.o_custkey
                         GROUP BY 1),
            nr AS (SELECT n.n_name AS nation, r.r_name AS region,
                          rev.cents
                   FROM rev JOIN nation n ON n.n_nationkey = rev.nk
                   JOIN region r ON r.r_regionkey = n.n_regionkey),
            rt AS (SELECT region, SUM(cents) AS rc FROM nr GROUP BY 1),
            tt AS (SELECT SUM(cents) AS tot FROM nr)
            SELECT nr.region, nr.nation, nr.cents AS revenue_cents,
                   CAST((nr.cents * 1000000) // rt.rc AS BIGINT)
                       AS nation_in_region_ppm,
                   CAST((rt.rc * 1000000) // tt.tot AS BIGINT)
                       AS region_share_ppm
            FROM nr JOIN rt USING (region) CROSS JOIN tt
        """,
        "expectations_audit": """
            WITH checks AS (
              SELECT 'doc_id_unique' AS check_name,
                     CAST(count(*) AS BIGINT) AS n_rows,
                     CAST(count(*) - count(DISTINCT COALESCE(doc_id,
                          -1)) AS BIGINT) AS n_violations
              FROM documents
              UNION ALL
              SELECT 'lang_not_null', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (WHERE lang IS NULL)
                          AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'lang_accepted', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (WHERE COALESCE(lang, '')
                          NOT IN ('de','en','es','fr','zh'))
                          AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'n_chars_nonneg', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (
                          WHERE COALESCE(n_chars, -1) < 0) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'n_chars_matches_text', CAST(count(*) AS BIGINT),
                     CAST(count(*) FILTER (
                          WHERE COALESCE(n_chars, -1)
                                <> length(COALESCE(text, '')))
                          AS BIGINT)
              FROM documents)
            SELECT check_name, n_rows, n_violations,
                   CAST(CASE WHEN n_violations = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS passed
            FROM checks WHERE n_rows > 0
        """,
        "hypothetical_rank": """
            WITH probes AS (SELECT unnest([100, 500, 1000]) AS probe),
            g AS (SELECT COALESCE(source, '') AS source,
                         CAST(count(*) AS BIGINT) AS n
                  FROM documents GROUP BY 1),
            c AS (SELECT COALESCE(d.source, '') AS source, p.probe,
                         CAST(count(*) FILTER (
                             WHERE COALESCE(d.n_chars, 0) < p.probe)
                             AS BIGINT) AS lt
                  FROM documents d CROSS JOIN probes p
                  GROUP BY 1, 2)
            SELECT c.source, CAST(c.probe AS BIGINT) AS probe,
                   CAST(1 + c.lt AS BIGINT) AS rank,
                   CAST(((1 + c.lt) * 1000000) // (g.n + 1)
                        AS BIGINT) AS pct_ppm
            FROM c JOIN g USING (source)
        """,
        "embedding_pair_dot": """
            WITH q AS (SELECT COALESCE(vec_id, -1) AS vid,
                              list_transform(embedding,
                                             x -> floor(x * 1000))
                                  AS qv
                       FROM embeddings)
            SELECT CAST(a.vid AS BIGINT) AS vec_a,
                   CAST(b.vid AS BIGINT) AS vec_b,
                   CAST(list_dot_product(a.qv, b.qv) AS BIGINT)
                       AS dot_q
            FROM q a JOIN q b ON b.vid = a.vid + 1
            WHERE a.vid % 2 = 0
        """,
        "type_lag_xcorr": """
            WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                              COALESCE(event_type, '') AS et
                       FROM events WHERE ts IS NOT NULL),
            types AS (SELECT DISTINCT et FROM e),
            ta AS (SELECT MIN(et) AS t FROM types),
            tb AS (SELECT MIN(et) AS t FROM types
                   WHERE et > (SELECT t FROM ta)),
            cnt AS (SELECT day, et, CAST(count(*) AS BIGINT) AS n
                    FROM e GROUP BY 1, 2),
            a AS (SELECT day, n FROM cnt
                  WHERE et = (SELECT t FROM ta)),
            b AS (SELECT day, n FROM cnt
                  WHERE et = (SELECT t FROM tb)),
            lags AS (SELECT unnest(range(-7, 8)) AS lag),
            x AS (SELECT lags.lag,
                         CAST(COALESCE((SELECT SUM(a.n * b.n)
                                        FROM a JOIN b
                                          ON b.day = a.day + lags.lag),
                                       0) AS BIGINT) AS xcorr
                  FROM lags),
            bm AS (SELECT MAX(xcorr) AS mx FROM x),
            bl AS (SELECT MIN(lag) AS ml FROM x CROSS JOIN bm
                   WHERE x.xcorr = bm.mx)
            SELECT CAST(x.lag AS BIGINT) AS lag, x.xcorr,
                   CAST(CASE WHEN x.lag = bl.ml THEN 1 ELSE 0 END
                        AS BIGINT) AS is_best
            FROM x CROSS JOIN bl
            WHERE (SELECT t FROM tb) IS NOT NULL
        """,
        "analyze_table_sketch": """
            WITH cols AS (
              SELECT CAST(o_orderkey AS BIGINT) AS v,
                     'o_orderkey' AS c FROM orders
              UNION ALL
              SELECT CAST(o_custkey AS BIGINT), 'o_custkey'
              FROM orders
              UNION ALL
              SELECT CAST(datediff('day', DATE '1970-01-01',
                                   o_orderdate) AS BIGINT),
                     'order_day'
              FROM orders
              UNION ALL
              SELECT CAST(round(o_totalprice * 100, 0) AS BIGINT),
                     'total_cents'
              FROM orders),
            base AS (SELECT c AS column_name,
                            CAST(count(*) AS BIGINT) AS n_rows,
                            CAST(count(*) - count(v) AS BIGINT)
                                AS n_nulls,
                            CAST(COALESCE(min(v), 0) AS BIGINT)
                                AS min_v,
                            CAST(COALESCE(max(v), 0) AS BIGINT)
                                AS max_v
                     FROM cols GROUP BY 1),
            h AS (SELECT DISTINCT c,
                         CAST(concat('0x', substr(md5(
                             CAST(v AS VARCHAR)), 1, 15)) AS BIGINT)
                             AS hv
                  FROM cols WHERE v IS NOT NULL),
            k AS (SELECT c, hv, row_number() OVER (
                      PARTITION BY c ORDER BY hv) AS rn FROM h),
            e AS (SELECT c, count(*) AS kk, max(hv) AS kth
                  FROM k WHERE rn <= 128 GROUP BY 1)
            SELECT base.column_name, base.n_rows, base.n_nulls,
                   base.min_v, base.max_v,
                   CAST(CASE WHEN COALESCE(e.kk, 0) < 128
                             THEN COALESCE(e.kk, 0)
                             ELSE (CAST(127 AS HUGEINT)
                                   * 1152921504606846976) // e.kth
                        END AS BIGINT) AS ndv_est
            FROM base LEFT JOIN e ON e.c = base.column_name
        """,
        "sequence_gaps": """
            WITH k AS (SELECT DISTINCT o_orderkey AS k FROM orders
                       WHERE o_orderkey IS NOT NULL),
            d AS (SELECT k - lag(k) OVER (ORDER BY k) - 1 AS run
                  FROM k),
            s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(min(k) AS BIGINT) AS mn,
                         CAST(max(k) AS BIGINT) AS mx
                  FROM k),
            r AS (SELECT CAST(COALESCE(MAX(run), 0) AS BIGINT) AS lr
                  FROM d)
            SELECT s.n AS n_keys, s.mn AS min_key, s.mx AS max_key,
                   CAST((s.mx - s.mn + 1) - s.n AS BIGINT)
                       AS n_missing,
                   r.lr AS largest_run
            FROM s CROSS JOIN r WHERE s.n > 0
        """,
        "type_dwell_time": """
            WITH r AS (SELECT user_id, COALESCE(event_type, '') AS et,
                              epoch_us(ts) AS t,
                              LEAD(epoch_us(ts)) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
                       FROM events WHERE ts IS NOT NULL)
            SELECT et AS event_type,
                   CAST(count(*) AS BIGINT) AS n_segments,
                   CAST(sum(nxt - t) AS BIGINT) AS total_dwell_us,
                   CAST(sum(nxt - t) // count(*) AS BIGINT)
                       AS avg_dwell_us
            FROM r WHERE nxt IS NOT NULL GROUP BY 1
        """,
        "yoy_revenue": """
            WITH m AS (SELECT (year(o_orderdate) - 1970) * 12
                              + month(o_orderdate) - 1 AS month,
                              CAST(sum(CAST(round(o_totalprice * 100,
                                                  0) AS BIGINT))
                                   AS BIGINT) AS cents
                       FROM orders GROUP BY 1)
            SELECT CAST(cur.month AS BIGINT) AS month,
                   cur.cents AS revenue_cents,
                   CAST(COALESCE(prev.cents, 0) AS BIGINT)
                       AS prev_year_cents,
                   CAST(CASE WHEN COALESCE(prev.cents, 0) > 0
                             THEN ((cur.cents - prev.cents)
                                   * 1000000) // prev.cents
                             ELSE 0 END AS BIGINT) AS yoy_ppm
            FROM m cur LEFT JOIN m prev ON prev.month = cur.month - 12
        """,
        "embedding_dim_profile": """
            WITH e AS (SELECT embedding FROM embeddings
                       WHERE embedding IS NOT NULL),
            x AS (SELECT t.i AS dim,
                         CAST(floor(list_extract(e.embedding,
                              CAST(t.i + 1 AS INT)) * 1000)
                              AS BIGINT) AS q
                  FROM e CROSS JOIN range(64) t(i))
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(count(q) AS BIGINT) AS n,
                   CAST(COALESCE(sum(q), 0) AS BIGINT) AS sum_q,
                   CAST(COALESCE(min(q), 0) AS BIGINT) AS min_q,
                   CAST(COALESCE(max(q), 0) AS BIGINT) AS max_q
            FROM x GROUP BY 1 HAVING count(q) > 0
        """,
        "contrastive_pairs": """
            WITH d AS (SELECT doc_id,
                              COALESCE(source, '') AS source
                       FROM documents WHERE doc_id IS NOT NULL),
            w AS (SELECT doc_id AS id_a,
                         LEAD(doc_id) OVER (ORDER BY doc_id) AS id_b,
                         source,
                         LEAD(source) OVER (ORDER BY doc_id) AS nsrc
                  FROM d)
            SELECT CAST(id_a AS BIGINT) AS id_a,
                   CAST(id_b AS BIGINT) AS id_b,
                   CAST(CASE WHEN source = nsrc THEN 1 ELSE 0 END
                        AS BIGINT) AS label
            FROM w WHERE id_b IS NOT NULL
        """,
        "encoding_advisor": """
            WITH d AS (SELECT doc_id,
                              COALESCE(lang, '') AS lang,
                              COALESCE(source, '') AS source
                       FROM documents WHERE doc_id IS NOT NULL),
            w AS (SELECT lang, source,
                         LAG(lang) OVER (ORDER BY doc_id) AS prev_lang,
                         LAG(source) OVER (ORDER BY doc_id) AS psrc
                  FROM d),
            a AS (SELECT 'lang' AS column_name,
                         CAST(count(*) AS BIGINT) AS n_rows,
                         CAST(1 + count(*) FILTER (
                             WHERE prev_lang IS NOT NULL
                               AND lang <> prev_lang) AS BIGINT) AS n_runs
                  FROM w
                  UNION ALL
                  SELECT 'source', CAST(count(*) AS BIGINT),
                         CAST(1 + count(*) FILTER (
                             WHERE psrc IS NOT NULL
                               AND source <> psrc) AS BIGINT)
                  FROM w)
            SELECT column_name, n_rows, n_runs,
                   CAST((n_runs * 1000000) // n_rows AS BIGINT)
                       AS rle_ratio_ppm
            FROM a WHERE n_rows > 0
        """,
        "decay_score": """
            WITH t AS (SELECT max(epoch_us(ts)) AS mt FROM events
                       WHERE ts IS NOT NULL),
            e AS (SELECT COALESCE(user_id, -1) AS user_id,
                         LEAST((t.mt - epoch_us(ts))
                               // 604800000000, 20) AS w
                  FROM events CROSS JOIN t WHERE ts IS NOT NULL)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(1048576 >> CAST(w AS INT)) AS BIGINT)
                       AS decay_score
            FROM e GROUP BY 1
        """,
        "feature_hashing_stats": """
            WITH w AS (SELECT unnest(string_split(COALESCE(text, ''),
                              ' ')) AS term
                       FROM documents),
            tf AS (SELECT term, CAST(count(*) AS BIGINT) AS n
                   FROM w WHERE term <> '' GROUP BY 1),
            b AS (SELECT CAST(concat('0x', substr(md5(term), 1, 8))
                              AS BIGINT) % 256 AS bucket, n
                  FROM tf)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_terms,
                   CAST(sum(n) AS BIGINT) AS total_tf
            FROM b GROUP BY 1
        """,
        "snm_dup_candidates": """
            WITH d AS (SELECT doc_id, COALESCE(n_chars, 0) AS ch,
                              md5(COALESCE(text, '')) AS h
                       FROM documents WHERE doc_id IS NOT NULL),
            w AS (SELECT doc_id AS id_a,
                         LEAD(doc_id) OVER win AS id_b,
                         ch, LEAD(ch) OVER win AS nch,
                         h, LEAD(h) OVER win AS nh
                  FROM d WINDOW win AS (ORDER BY ch, doc_id))
            SELECT CAST(id_a AS BIGINT) AS id_a,
                   CAST(id_b AS BIGINT) AS id_b,
                   CAST(nch - ch AS BIGINT) AS len_diff,
                   CAST(CASE WHEN h = nh THEN 1 ELSE 0 END
                        AS BIGINT) AS is_dup
            FROM w WHERE id_b IS NOT NULL
        """,
        "ip_topk_exact": """
            WITH e AS (SELECT COALESCE(vec_id, -1) AS vec_id,
                              list_transform(embedding,
                                  x -> FLOOR(CAST(x AS DOUBLE)
                                             * 1000)) AS q
                       FROM embeddings),
            qs AS (SELECT vec_id, q FROM e ORDER BY vec_id LIMIT 10),
            d AS (SELECT qs.vec_id AS query_id,
                         e.vec_id AS neighbor_id,
                         CAST(list_dot_product(qs.q, e.q) AS BIGINT)
                             AS dot
                  FROM qs CROSS JOIN e
                  WHERE e.vec_id <> qs.vec_id),
            r AS (SELECT query_id, neighbor_id, dot,
                         row_number() OVER (PARTITION BY query_id
                             ORDER BY dot DESC, neighbor_id ASC)
                             AS rank
                  FROM d)
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(neighbor_id AS BIGINT) AS neighbor_id,
                   CAST(rank AS BIGINT) AS rank, dot
            FROM r WHERE rank <= 10
        """,
        "label_centroid_shift": """
            WITH base AS (SELECT COALESCE(label, -1) AS label,
                                 embedding
                          FROM embeddings),
            cnt AS (SELECT CAST(label AS BIGINT) AS label,
                           CAST(count(*) AS BIGINT) AS n
                    FROM base GROUP BY 1),
            e AS (SELECT label, unnest(embedding) AS x,
                         unnest(range(1, len(embedding) + 1)) AS i
                  FROM base),
            qd AS (SELECT CAST(label AS BIGINT) AS label, i,
                          CAST(SUM(CAST(FLOOR(CAST(x AS DOUBLE)
                               * 1000) AS HUGEINT)) AS HUGEINT) AS s
                   FROM e GROUP BY 1, 2),
            gl AS (SELECT i, SUM(s) AS gs FROM qd GROUP BY 1),
            dt AS (SELECT qd.label,
                          SUM(qd.s * gl.gs) AS dot,
                          SUM(qd.s * qd.s) AS s2
                   FROM qd JOIN gl ON gl.i = qd.i GROUP BY 1),
            g2 AS (SELECT SUM(gs * gs) AS v FROM gl)
            SELECT cnt.label, cnt.n AS n_vecs,
                   CAST(COALESCE(dt.dot, 0) AS BIGINT) AS dot,
                   CASE WHEN COALESCE(dt.s2, 0) > 0 AND g2.v > 0
                        THEN CAST(dt.dot AS DOUBLE)
                             / (sqrt(CAST(dt.s2 AS DOUBLE))
                                * sqrt(CAST(g2.v AS DOUBLE)))
                        ELSE 0.0 END AS cosine
            FROM cnt LEFT JOIN dt ON dt.label = cnt.label
            CROSS JOIN g2
        """,
        "label_dispersion": """
            WITH base AS (SELECT COALESCE(label, -1) AS label,
                                 embedding
                          FROM embeddings),
            cnt AS (SELECT CAST(label AS BIGINT) AS label,
                           CAST(count(*) AS BIGINT) AS n
                    FROM base GROUP BY 1),
            e AS (SELECT label, unnest(embedding) AS x,
                         unnest(range(1, len(embedding) + 1)) AS i
                  FROM base),
            qd AS (SELECT CAST(label AS BIGINT) AS label, i,
                          CAST(SUM(CAST(FLOOR(CAST(x AS DOUBLE)
                               * 1000) AS HUGEINT)) AS HUGEINT) AS s,
                          CAST(SUM(CAST(FLOOR(CAST(x AS DOUBLE)
                               * 1000) AS HUGEINT)
                               * CAST(FLOOR(CAST(x AS DOUBLE)
                               * 1000) AS HUGEINT)) AS HUGEINT)
                              AS sq
                   FROM e GROUP BY 1, 2),
            ag AS (SELECT label, SUM(s * s) AS s2, SUM(sq) AS ssq
                   FROM qd GROUP BY 1)
            SELECT cnt.label, cnt.n AS n_vecs,
                   CAST(COALESCE(ag.s2 - ag.ssq, 0) AS BIGINT)
                       AS pair_dot_num,
                   CAST(cnt.n * (cnt.n - 1) AS BIGINT)
                       AS pair_dot_den,
                   CAST(CASE WHEN cnt.n > 1
                        THEN COALESCE(ag.s2 - ag.ssq, 0)
                             // (cnt.n * (cnt.n - 1))
                        ELSE 0 END AS BIGINT) AS mean_pair_cos_ppm
            FROM cnt LEFT JOIN ag ON ag.label = cnt.label
        """,
        "bloom_fpr_audit": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              COALESCE(event_type, '') AS et
                       FROM events),
            users AS (SELECT u, max(CASE WHEN et = 'purchase'
                                    THEN 1 ELSE 0 END) AS p
                      FROM e GROUP BY 1),
            mx AS (SELECT max(u) AS mu FROM users),
            probes AS (SELECT mx.mu + 1
                              + unnest(range(10000)) AS u
                       FROM mx),
            mpos AS (SELECT u, unnest(range(4)) AS i FROM users
                     WHERE p = 1),
            mh AS (SELECT CAST(('0x' || substr(
                              md5(CAST(u AS VARCHAR)),
                              CAST(8 * i + 1 AS INT), 8)) AS BIGINT)
                              % 1024 AS b
                   FROM mpos),
            bits AS (SELECT DISTINCT b FROM mh),
            ppos AS (SELECT u, unnest(range(4)) AS i FROM probes),
            ph AS (SELECT u,
                          CAST(('0x' || substr(
                              md5(CAST(u AS VARCHAR)),
                              CAST(8 * i + 1 AS INT), 8)) AS BIGINT)
                              % 1024 AS b
                   FROM ppos),
            hit AS (SELECT ph.u,
                           CAST(count(bits.b) AS BIGINT) AS k_in
                    FROM ph LEFT JOIN bits ON bits.b = ph.b
                    GROUP BY 1),
            fp AS (SELECT CAST(count(*) AS BIGINT) AS n FROM hit
                   WHERE k_in = 4),
            mem AS (SELECT CAST(count(*) AS BIGINT) AS n FROM users
                    WHERE p = 1)
            SELECT mem.n AS n_members,
                   CAST(10000 AS BIGINT) AS n_probes,
                   (SELECT CAST(count(*) AS BIGINT) FROM bits)
                       AS n_bits_set,
                   fp.n AS n_false_pos,
                   CAST((fp.n * 1000000) // 10000 AS BIGINT)
                       AS fpr_ppm
            FROM mem CROSS JOIN fp
        """,
        "unseen_vocab_estimate": """
            WITH d AS (SELECT list_filter(
                           string_split(COALESCE(text, ''), ' '),
                           x -> x <> '') AS toks
                       FROM documents),
            t AS (SELECT toks, unnest(range(len(toks) - 1)) AS p
                  FROM d WHERE len(toks) >= 2),
            b AS (SELECT toks[CAST(p + 1 AS BIGINT)] || ' ' ||
                         toks[CAST(p + 2 AS BIGINT)] AS bg
                  FROM t),
            tf AS (SELECT bg, CAST(count(*) AS BIGINT) AS c
                   FROM b GROUP BY 1),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS v,
                           CAST(count(*) FILTER (WHERE c = 1)
                                AS BIGINT) AS n1,
                           CAST(count(*) FILTER (WHERE c = 2)
                                AS BIGINT) AS n2
                    FROM tf)
            SELECT v AS v_obs, n1, n2,
                   CAST(CASE WHEN n2 > 0
                        THEN v * 1000 + (n1 * n1 * 1000) // (2 * n2)
                        ELSE v * 1000 + (n1 * (n1 - 1) * 1000) // 2
                        END AS BIGINT) AS chao1_milli
            FROM agg WHERE v > 0
        """,
        "ipf_raking": """
            WITH d AS (SELECT COALESCE(source, '') AS s,
                              COALESCE(lang, 'und') AS l
                       FROM documents),
            c AS (SELECT s, l, CAST(count(*) AS HUGEINT) AS n
                  FROM d GROUP BY 1, 2),
            tot AS (SELECT CAST(sum(n) AS HUGEINT) AS t FROM c),
            sr AS (SELECT s, row_number() OVER (ORDER BY s) - 1 AS i
                   FROM (SELECT DISTINCT s FROM c)),
            lr AS (SELECT l, row_number() OVER (ORDER BY l) - 1 AS j
                   FROM (SELECT DISTINCT l FROM c)),
            ns AS (SELECT CAST(count(*) AS HUGEINT) AS k FROM sr),
            nl AS (SELECT CAST(count(*) AS HUGEINT) AS k FROM lr),
            rt AS (SELECT sr.s, (tot.t // ns.k + CASE WHEN sr.i <
                          tot.t % ns.k THEN 1 ELSE 0 END) * 1000000
                          AS m
                   FROM sr CROSS JOIN tot CROSS JOIN ns),
            ct AS (SELECT lr.l, (tot.t // nl.k + CASE WHEN lr.j <
                          tot.t % nl.k THEN 1 ELSE 0 END) * 1000000
                          AS m
                   FROM lr CROSS JOIN tot CROSS JOIN nl),
            w0 AS (SELECT s, l, n, n * 1000000 AS w FROM c),
            r1 AS (SELECT w0.s, w0.l, n, (w * rt.m) //
                          SUM(w) OVER (PARTITION BY w0.s) AS w
                   FROM w0 JOIN rt ON rt.s = w0.s),
            c1 AS (SELECT r1.s, r1.l, n, (w * ct.m) //
                          SUM(w) OVER (PARTITION BY r1.l) AS w
                   FROM r1 JOIN ct ON ct.l = r1.l),
            r2 AS (SELECT c1.s, c1.l, n, (w * rt.m) //
                          SUM(w) OVER (PARTITION BY c1.s) AS w
                   FROM c1 JOIN rt ON rt.s = c1.s),
            c2 AS (SELECT r2.s, r2.l, n, (w * ct.m) //
                          SUM(w) OVER (PARTITION BY r2.l) AS w
                   FROM r2 JOIN ct ON ct.l = r2.l),
            r3 AS (SELECT c2.s, c2.l, n, (w * rt.m) //
                          SUM(w) OVER (PARTITION BY c2.s) AS w
                   FROM c2 JOIN rt ON rt.s = c2.s),
            c3 AS (SELECT r3.s, r3.l, n, (w * ct.m) //
                          SUM(w) OVER (PARTITION BY r3.l) AS w
                   FROM r3 JOIN ct ON ct.l = r3.l),
            r4 AS (SELECT c3.s, c3.l, n, (w * rt.m) //
                          SUM(w) OVER (PARTITION BY c3.s) AS w
                   FROM c3 JOIN rt ON rt.s = c3.s),
            c4 AS (SELECT r4.s, r4.l, n, (w * ct.m) //
                          SUM(w) OVER (PARTITION BY r4.l) AS w
                   FROM r4 JOIN ct ON ct.l = r4.l)
            SELECT s AS source, l AS lang,
                   CAST(n AS BIGINT) AS n_docs,
                   CAST(w AS BIGINT) AS raked_mass_ppm
            FROM c4
        """,
        "chunk_for_training": """
            WITH d AS (SELECT COALESCE(doc_id, -1) AS doc_id,
                              len(list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '')) AS n
                       FROM documents),
            c AS (SELECT doc_id, n,
                         unnest(range((n + 95) // 112)) AS i
                  FROM d WHERE n > 0)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(i AS BIGINT) AS chunk_idx,
                   CAST(i * 112 AS BIGINT) AS start_tok,
                   CAST(LEAST(128, n - i * 112) AS BIGINT)
                       AS n_tokens
            FROM c
        """,
        "logrank_lifetimes": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t
                       FROM events WHERE ts IS NOT NULL),
            lt AS (SELECT u, (max(t) - min(t)) // 86400000000 AS d,
                          abs(u) % 2 AS g
                   FROM e GROUP BY u),
            dt AS (SELECT d,
                          CAST(count(*) FILTER (WHERE g = 0)
                               AS HUGEINT) AS d1,
                          CAST(count(*) AS HUGEINT) AS dd
                   FROM lt GROUP BY d),
            tot AS (SELECT CAST(count(*) FILTER (WHERE g = 0)
                                AS HUGEINT) AS t1,
                           CAST(count(*) AS HUGEINT) AS tt
                    FROM lt),
            w AS (SELECT d, d1, dd,
                         tot.t1 - COALESCE(SUM(d1) OVER (
                             ORDER BY d ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING), 0) AS n1,
                         tot.tt - COALESCE(SUM(dd) OVER (
                             ORDER BY d ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING), 0) AS n
                  FROM dt CROSS JOIN tot)
            SELECT CAST(ANY_VALUE(tot.t1) AS BIGINT) AS n_users_a,
                   CAST(ANY_VALUE(tot.tt - tot.t1) AS BIGINT)
                       AS n_users_b,
                   CAST(SUM(w.d1) AS BIGINT) AS o1,
                   CAST(SUM((w.dd * w.n1 * 1000000) // w.n)
                        AS BIGINT) AS e1_ppm,
                   CAST(SUM(CASE WHEN w.n > 1 THEN
                        (w.dd * w.n1 * (w.n - w.n1) * (w.n - w.dd)
                         * 1000000) // (w.n * w.n * (w.n - 1))
                        ELSE 0 END) AS BIGINT) AS v_ppm
            FROM w CROSS JOIN tot
        """,
        "heaps_curve": """
            WITH d AS (SELECT doc_id, COALESCE(text, '') AS t
                       FROM documents WHERE doc_id IS NOT NULL),
            ids AS (SELECT DISTINCT doc_id FROM d),
            nn AS (SELECT CAST(count(*) AS BIGINT) AS c FROM ids),
            r AS (SELECT doc_id,
                         row_number() OVER (ORDER BY doc_id) AS rn
                  FROM ids),
            b AS (SELECT k.k, r.doc_id AS boundary
                  FROM (SELECT unnest(range(1, 11)) AS k) k
                  JOIN nn ON TRUE
                  JOIN r ON r.rn = (nn.c * k.k) // 10),
            w AS (SELECT doc_id, unnest(string_split(t, ' ')) AS term
                  FROM d),
            fo AS (SELECT term, min(doc_id) AS fd FROM w
                   WHERE term <> '' GROUP BY 1)
            SELECT CAST(b.k AS BIGINT) AS decile,
                   CAST(b.boundary AS BIGINT) AS boundary_doc_id,
                   CAST(count(fo.term) AS BIGINT) AS vocab_size
            FROM b LEFT JOIN fo ON fo.fd <= b.boundary
            GROUP BY 1, 2
        """,
        "sessionize_sweep": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t,
                              COALESCE(event_id, -1) AS eid
                       FROM events WHERE ts IS NOT NULL),
            w AS (SELECT u, t - LAG(t) OVER (PARTITION BY u
                                             ORDER BY t, eid) AS gap
                  FROM e),
            a AS (SELECT CAST(count(DISTINCT u) AS BIGINT) AS nu
                  FROM e),
            ts3 AS (SELECT unnest([300, 1800, 7200]) AS timeout_s),
            g AS (SELECT ts3.timeout_s,
                         CAST(count(*) FILTER (WHERE w.gap >
                              CAST(ts3.timeout_s AS BIGINT)
                              * 1000000) AS BIGINT)
                             AS extra
                  FROM ts3 CROSS JOIN w GROUP BY 1)
            SELECT CAST(g.timeout_s AS BIGINT) AS timeout_s,
                   a.nu AS n_users,
                   CAST(a.nu + g.extra AS BIGINT) AS n_sessions
            FROM g CROSS JOIN a
        """,
        "dup_span_coverage": """
            WITH d AS (SELECT doc_id, COALESCE(source, '') AS source,
                              list_filter(
                                  string_split(COALESCE(text, ''),
                                               ' '),
                                  x -> x <> '') AS toks
                       FROM documents WHERE doc_id IS NOT NULL),
            t AS (SELECT doc_id, len(toks) AS n, toks,
                         unnest(range(len(toks))) AS p
                  FROM d),
            w AS (SELECT doc_id, p,
                         array_to_string(
                             list_slice(toks,
                                        CAST(p + 1 AS BIGINT),
                                        CAST(p + 13 AS BIGINT)),
                             ' ') AS win
                  FROM t WHERE p + 13 <= n),
            g AS (SELECT win FROM w GROUP BY win
                  HAVING count(*) >= 2),
            f AS (SELECT w.doc_id, w.p FROM w JOIN g USING (win)),
            i AS (SELECT doc_id, p,
                         CASE WHEN p - lag(p) OVER (
                                  PARTITION BY doc_id ORDER BY p)
                                  <= 13
                              THEN 0 ELSE 1 END AS brk
                  FROM f),
            s AS (SELECT doc_id, p,
                         SUM(brk) OVER (PARTITION BY doc_id
                                        ORDER BY p
                                        ROWS UNBOUNDED PRECEDING)
                             AS isl
                  FROM i),
            sp AS (SELECT doc_id,
                          MAX(p) + 13 - MIN(p) AS n_tokens
                   FROM s GROUP BY doc_id, isl),
            spd AS (SELECT doc_id,
                           CAST(sum(n_tokens) AS BIGINT) AS dup
                    FROM sp GROUP BY 1),
            j AS (SELECT d.source, d.doc_id, len(d.toks) AS ntok,
                         COALESCE(spd.dup, 0) AS dup
                  FROM d LEFT JOIN spd USING (doc_id))
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(ntok) AS BIGINT) AS total_tokens,
                   CAST(sum(dup) AS BIGINT) AS dup_tokens,
                   CAST(CASE WHEN sum(ntok) > 0
                        THEN (sum(dup) * 1000000) // sum(ntok)
                        ELSE 0 END AS BIGINT) AS coverage_ppm
            FROM j GROUP BY 1
        """,
        "event_order_audit": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t,
                              COALESCE(event_id, -1) AS eid
                       FROM events WHERE ts IS NOT NULL),
            w AS (SELECT u, eid,
                         LAG(eid) OVER (PARTITION BY u
                                        ORDER BY t, eid) AS peid
                  FROM e),
            g AS (SELECT u, CAST(count(*) AS BIGINT) AS n_events,
                         CAST(count(*) FILTER (
                             WHERE peid IS NOT NULL AND eid < peid)
                             AS BIGINT) AS n_inv
                  FROM w GROUP BY 1)
            SELECT CAST(u AS BIGINT) AS user_id, n_events,
                   n_inv AS n_inversions
            FROM g WHERE n_inv > 0
        """,
        "dow_hour_heatmap": """
            WITH e AS (SELECT epoch_us(ts) AS us FROM events
                       WHERE ts IS NOT NULL)
            SELECT CAST((us // 86400000000 + 3) % 7 AS BIGINT) AS dow,
                   CAST((us // 3600000000) % 24 AS BIGINT) AS hour,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM e GROUP BY 1, 2
        """,
        "interarrival_buckets": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t,
                              COALESCE(event_id, -1) AS eid
                       FROM events WHERE ts IS NOT NULL),
            w AS (SELECT u, t,
                         LAG(t) OVER (PARTITION BY u
                                      ORDER BY t, eid) AS pt
                  FROM e),
            g AS (SELECT (t - pt) // 1000000 AS gap_s FROM w
                  WHERE pt IS NOT NULL)
            SELECT CAST(floor(log2(gap_s + 1)) AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_gaps
            FROM g GROUP BY 1
        """,
        "cohort_retention": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) // 604800000000 AS w
                       FROM events WHERE ts IS NOT NULL),
            uw AS (SELECT DISTINCT u, w FROM e),
            c AS (SELECT u, min(w) AS cw FROM uw GROUP BY 1)
            SELECT CAST(c.cw AS BIGINT) AS cohort_week,
                   CAST(uw.w - c.cw AS BIGINT) AS offset_weeks,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM uw JOIN c ON c.u = uw.u GROUP BY 1, 2
        """,
        "revenue_drawdown": """
            WITH o AS (SELECT CAST(datediff('day', DATE '1970-01-01',
                                   o_orderdate) AS BIGINT) AS day,
                              CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT) AS c
                       FROM orders),
            d AS (SELECT day, CAST(sum(c) AS BIGINT) AS rev
                  FROM o GROUP BY 1),
            t AS (SELECT CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(rev) AS HUGEINT) AS tt FROM d),
            s AS (SELECT day,
                         SUM(t.n * rev - t.tt)
                             OVER (ORDER BY day) AS cum
                  FROM d CROSS JOIN t),
            m AS (SELECT day, cum,
                         GREATEST(MAX(cum) OVER (ORDER BY day),
                                  0) AS peak
                  FROM s),
            dd AS (SELECT day, peak - cum AS v FROM m)
            SELECT CAST(v AS BIGINT) AS max_drawdown_units,
                   CAST(day AS BIGINT) AS at_day
            FROM dd ORDER BY v DESC, day ASC LIMIT 1
        """,
        "revenue_lorenz": """
            WITH o AS (SELECT COALESCE(o_custkey, -1) AS k,
                              CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT) AS c
                       FROM orders),
            g AS (SELECT k, CAST(sum(c) AS BIGINT) AS c
                  FROM o GROUP BY 1),
            r AS (SELECT c, row_number() OVER (ORDER BY c, k) AS rn,
                         count(*) OVER () AS n,
                         sum(c) OVER () AS total
                  FROM g),
            d AS (SELECT c, n, total,
                         CASE WHEN rn <= (n % 10) * (n // 10 + 1)
                              THEN (rn - 1) // (n // 10 + 1) + 1
                              ELSE n % 10 + (rn - 1 - (n % 10)
                                   * (n // 10 + 1)) // (n // 10) + 1
                         END AS decile
                  FROM r WHERE n >= 10),
            a AS (SELECT decile,
                         CAST(count(*) AS BIGINT) AS n_customers,
                         CAST(sum(c) AS BIGINT) AS revenue_cents,
                         ANY_VALUE(total) AS total
                  FROM d GROUP BY 1)
            SELECT CAST(decile AS BIGINT) AS decile, n_customers,
                   revenue_cents,
                   CAST((SUM(revenue_cents) OVER (ORDER BY decile)
                         * 1000000) // total AS BIGINT)
                       AS cum_share_ppm
            FROM a
        """,
        "daily_ewma_counts": """
            WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day
                       FROM events WHERE ts IS NOT NULL),
            c AS (SELECT day, CAST(count(*) AS BIGINT) AS cnt
                  FROM e GROUP BY 1)
            SELECT CAST(a.day AS BIGINT) AS day, a.cnt,
                   CAST(SUM(b.cnt >> CAST(a.day - b.day AS INT))
                        AS BIGINT) AS ewma
            FROM c a JOIN c b ON b.day BETWEEN a.day - 10 AND a.day
            GROUP BY a.day, a.cnt
        """,
        "spike_days": """
            WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day
                       FROM events WHERE ts IS NOT NULL),
            c AS (SELECT day, CAST(count(*) AS BIGINT) AS cnt
                  FROM e GROUP BY 1),
            t AS (SELECT CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(cnt) AS HUGEINT) AS tt,
                         CAST(sum(CAST(cnt AS HUGEINT) * cnt)
                              AS HUGEINT) AS q
                  FROM c)
            SELECT CAST(c.day AS BIGINT) AS day, c.cnt
            FROM c CROSS JOIN t
            WHERE t.n * c.cnt - t.tt > 0
              AND (t.n * c.cnt - t.tt) * (t.n * c.cnt - t.tt)
                  > 4 * (t.n * t.q - t.tt * t.tt)
        """,
        "nation_revenue_trend": """
            WITH o AS (SELECT o_custkey,
                              CAST(datediff('day', DATE '1970-01-01',
                                            o_orderdate) AS BIGINT)
                                  AS x,
                              CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT) AS y
                       FROM orders),
            j AS (SELECT n.n_name AS nation, o.x, o.y
                  FROM o JOIN customer c ON c.c_custkey = o.o_custkey
                  JOIN nation n ON n.n_nationkey = c.c_nationkey),
            g AS (SELECT nation,
                         CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(x) AS HUGEINT) AS sx,
                         CAST(sum(y) AS HUGEINT) AS sy,
                         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT)
                             AS sxy,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT)
                             AS sxx
                  FROM j GROUP BY 1)
            SELECT nation, CAST(n AS BIGINT) AS n_orders,
                   CAST(CASE WHEN n * sxx - sx * sx = 0 THEN 0
                        ELSE ((n * sxy - sx * sy) * 1000000)
                             // (n * sxx - sx * sx) END AS BIGINT)
                       AS slope_micro
            FROM g
        """,
        "goodturing_counts": """
            WITH w AS (SELECT unnest(string_split(COALESCE(text, ''),
                              ' ')) AS term
                       FROM documents),
            tf AS (SELECT term, CAST(count(*) AS BIGINT) AS c
                   FROM w WHERE term <> '' GROUP BY 1)
            SELECT CAST(c AS BIGINT) AS freq,
                   CAST(count(*) AS BIGINT) AS n_terms
            FROM tf WHERE c <= 50 GROUP BY 1
        """,
        "sa_dup_spans": """
            WITH d AS (SELECT doc_id,
                              list_filter(
                                  string_split(COALESCE(text, ''),
                                               ' '),
                                  x -> x <> '') AS toks
                       FROM documents WHERE doc_id IS NOT NULL),
            t AS (SELECT doc_id, len(toks) AS n, toks,
                         unnest(range(len(toks))) AS p
                  FROM d),
            w AS (SELECT doc_id, p,
                         array_to_string(
                             list_slice(toks,
                                        CAST(p + 1 AS BIGINT),
                                        CAST(p + 13 AS BIGINT)),
                             ' ') AS win
                  FROM t WHERE p + 13 <= n),
            g AS (SELECT win FROM w GROUP BY win
                  HAVING count(*) >= 2),
            f AS (SELECT w.doc_id, w.p FROM w JOIN g USING (win)),
            i AS (SELECT doc_id, p,
                         CASE WHEN p - lag(p) OVER (
                                  PARTITION BY doc_id ORDER BY p)
                                  <= 13
                              THEN 0 ELSE 1 END AS brk
                  FROM f),
            s AS (SELECT doc_id, p,
                         SUM(brk) OVER (PARTITION BY doc_id
                                        ORDER BY p
                                        ROWS UNBOUNDED PRECEDING)
                             AS isl
                  FROM i)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(MIN(p) AS BIGINT) AS start_tok,
                   CAST(MAX(p) + 12 AS BIGINT) AS end_tok,
                   CAST(MAX(p) + 13 - MIN(p) AS BIGINT) AS n_tokens
            FROM s GROUP BY doc_id, isl
        """,
        "label_propagation_langs": """
            WITH d AS (SELECT md5(substr(COALESCE(text, ''), 1,
                                         64)) AS h,
                              COALESCE(lang, 'und') AS lang
                       FROM documents),
            g AS (SELECT h, lang, CAST(count(*) AS BIGINT) AS c
                  FROM d GROUP BY 1, 2),
            t AS (SELECT h, CAST(sum(c) AS BIGINT) AS tot
                  FROM g GROUP BY 1),
            r AS (SELECT g.h, g.lang, g.c, t.tot,
                         row_number() OVER (PARTITION BY g.h
                             ORDER BY g.c DESC, g.lang ASC) AS rn
                  FROM g JOIN t USING (h))
            SELECT h AS text_hash, tot AS n_docs,
                   lang AS majority_lang,
                   CAST(tot - c AS BIGINT) AS n_relabel
            FROM r WHERE rn = 1 AND tot >= 2
        """,
        "lang_kappa": "WITH pred AS (" + _LANG_ID_SQL + """),
            j AS (SELECT COALESCE(d.lang, 'und') AS t, p.pred_lang
                             AS p
                  FROM documents d JOIN pred p USING (doc_id)),
            tot AS (SELECT CAST(count(*) AS HUGEINT) AS n,
                           CAST(count(*) FILTER (WHERE t = p)
                                AS HUGEINT) AS agree
                    FROM j),
            rt AS (SELECT t AS l, CAST(count(*) AS HUGEINT) AS c
                   FROM j GROUP BY 1),
            ct AS (SELECT p AS l, CAST(count(*) AS HUGEINT) AS c
                   FROM j GROUP BY 1),
            rc AS (SELECT CAST(COALESCE(SUM(rt.c * ct.c), 0)
                               AS HUGEINT) AS v
                   FROM rt JOIN ct USING (l))
            SELECT CAST(tot.n AS BIGINT) AS n_docs,
                   CAST(tot.agree AS BIGINT) AS n_agree,
                   CAST((tot.agree * 1000000) // tot.n AS BIGINT)
                       AS po_ppm,
                   CAST((rc.v * 1000000) // (tot.n * tot.n)
                        AS BIGINT) AS pe_ppm,
                   CAST(CASE WHEN tot.n * tot.n - rc.v <> 0
                             THEN ((tot.agree * tot.n - rc.v)
                                   * 1000000)
                                  // (tot.n * tot.n - rc.v)
                             ELSE 0 END AS BIGINT) AS kappa_ppm
            FROM tot CROSS JOIN rc WHERE tot.n > 0
        """,
        "consistent_hash_balance": """
            WITH ring AS (
              SELECT t.i AS shard,
                     CAST(concat('0x', substr(md5('shard' || t.i
                          || ':v' || s.j), 1, 15)) AS BIGINT) AS p
              FROM range(8) t(i) CROSS JOIN range(4) s(j)),
            u AS (SELECT DISTINCT COALESCE(user_id, -1) AS uid
                  FROM events),
            h AS (SELECT uid,
                         CAST(concat('0x', substr(md5(
                             CAST(uid AS VARCHAR)), 1, 15)) AS BIGINT)
                             AS hv
                  FROM u),
            a AS (SELECT h.uid,
                         COALESCE((SELECT r.shard FROM ring r
                                   WHERE r.p >= h.hv
                                   ORDER BY r.p LIMIT 1),
                                  (SELECT r.shard FROM ring r
                                   ORDER BY r.p LIMIT 1)) AS shard
                  FROM h),
            g AS (SELECT shard, CAST(count(*) AS BIGINT) AS n_users
                  FROM a GROUP BY 1),
            t2 AS (SELECT CAST(SUM(n_users) AS BIGINT) AS tot FROM g)
            SELECT CAST(g.shard AS BIGINT) AS shard, g.n_users,
                   CAST((g.n_users * 1000000) // t2.tot AS BIGINT)
                       AS share_ppm
            FROM g CROSS JOIN t2
        """,
        "dau_churn_jaccard": """
            WITH ad AS (SELECT DISTINCT COALESCE(user_id, -1) AS u,
                               epoch_us(ts) // 86400000000 AS d
                        FROM events WHERE ts IS NOT NULL),
            act AS (SELECT d, CAST(count(*) AS BIGINT) AS a
                    FROM ad GROUP BY 1),
            bt AS (SELECT a1.d, CAST(count(*) AS BIGINT) AS b
                   FROM ad a1 JOIN ad a2
                     ON a2.u = a1.u AND a2.d = a1.d - 1
                   GROUP BY 1)
            SELECT CAST(cur.d AS BIGINT) AS day, cur.a AS n_active,
                   prev.a AS n_prev,
                   CAST(COALESCE(bt.b, 0) AS BIGINT) AS n_both,
                   CAST((COALESCE(bt.b, 0) * 1000000)
                        // (cur.a + prev.a - COALESCE(bt.b, 0))
                        AS BIGINT) AS jaccard_ppm
            FROM act cur
            JOIN act prev ON prev.d = cur.d - 1
            LEFT JOIN bt ON bt.d = cur.d
        """,
        "user_growth_curve": """
            WITH f AS (SELECT COALESCE(user_id, -1) AS u,
                              min(epoch_us(ts) // 86400000000) AS d
                       FROM events WHERE ts IS NOT NULL GROUP BY 1),
            g AS (SELECT d, CAST(count(*) AS BIGINT) AS n
                  FROM f GROUP BY 1)
            SELECT CAST(d AS BIGINT) AS day, n AS new_users,
                   CAST(sum(n) OVER (ORDER BY d) AS BIGINT)
                       AS cum_users
            FROM g
        """,
        "join_size_estimate": """
            WITH a AS (SELECT COALESCE(o_custkey, -1) AS k,
                              CAST(count(*) AS HUGEINT) AS n
                       FROM orders GROUP BY 1),
            b AS (SELECT COALESCE(c_custkey, -1) AS k,
                         CAST(count(*) AS HUGEINT) AS n
                  FROM customer GROUP BY 1),
            j AS (SELECT a.k, a.n * b.n AS p,
                         substr(md5(CAST(a.k AS VARCHAR)), 1, 1)
                             AS h0
                  FROM a JOIN b USING (k)),
            t AS (SELECT CAST(COALESCE(SUM(p), 0) AS BIGINT)
                             AS exact_rows,
                         CAST(16 * COALESCE(SUM(p) FILTER (
                             WHERE h0 = '0'), 0) AS BIGINT)
                             AS est_rows
                  FROM j)
            SELECT exact_rows, est_rows,
                   CAST((abs(est_rows - exact_rows) * 1000000)
                        // exact_rows AS BIGINT) AS err_ppm
            FROM t WHERE exact_rows > 0
        """,
        "conformal_chars_interval": """
            WITH d AS (SELECT COALESCE(doc_id, 0) AS did,
                              COALESCE(source, '') AS source,
                              COALESCE(n_chars, 0) AS ch
                       FROM documents),
            tr AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(ch) AS HUGEINT) AS s
                   FROM d WHERE substr(md5(CAST(did AS VARCHAR)),
                                       1, 1) >= '4'
                   GROUP BY 1),
            mu AS (SELECT source, n AS n_train,
                          CAST((s * 1000000) // n AS BIGINT)
                              AS mean_ppm
                   FROM tr WHERE n > 0),
            cal AS (SELECT d.source,
                           abs(d.ch * 1000000 - mu.mean_ppm) AS r
                    FROM d JOIN mu USING (source)
                    WHERE substr(md5(CAST(d.did AS VARCHAR)),
                                 1, 1) < '4'),
            rk AS (SELECT source, r,
                          row_number() OVER (PARTITION BY source
                                             ORDER BY r) AS rn,
                          count(*) OVER (PARTITION BY source) AS n
                   FROM cal)
            SELECT mu.source, mu.n_train,
                   CAST(rk.n AS BIGINT) AS n_cal, mu.mean_ppm,
                   CAST(rk.r AS BIGINT) AS q90_resid_ppm
            FROM rk JOIN mu USING (source)
            WHERE rk.rn = ((rk.n - 1) * 90) // 100 + 1
        """,
        "markov_next_accuracy": """
            WITH r AS (SELECT user_id,
                              COALESCE(event_type, '') AS et,
                              lag(COALESCE(event_type, '')) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS p
                       FROM events WHERE ts IS NOT NULL),
            tr AS (SELECT p AS src, et AS dst,
                          CAST(count(*) AS BIGINT) AS c
                   FROM r WHERE p IS NOT NULL GROUP BY 1, 2),
            pr AS (SELECT src, dst,
                          row_number() OVER (PARTITION BY src
                              ORDER BY c DESC, dst ASC) AS rn
                   FROM tr),
            pred AS (SELECT src, dst AS best FROM pr WHERE rn = 1),
            sc AS (SELECT CAST(count(*) AS BIGINT) AS n,
                          CAST(count(*) FILTER (
                              WHERE r.et = pred.best) AS BIGINT)
                              AS c
                   FROM r JOIN pred ON pred.src = r.p
                   WHERE r.p IS NOT NULL)
            SELECT n AS n_transitions, c AS n_correct,
                   CAST((c * 1000000) // n AS BIGINT)
                       AS accuracy_ppm
            FROM sc WHERE n > 0
        """,
        "linear_attribution": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t, event_type AS et,
                              event_id AS eid
                       FROM events WHERE ts IS NOT NULL),
            pur AS (SELECT u, t, eid FROM e WHERE et = 'purchase'),
            tch AS (SELECT u, t, et FROM e
                    WHERE et IN ('click', 'view')),
            j AS (SELECT pur.u, pur.t AS pt, pur.eid AS pid, tch.et
                  FROM pur JOIN tch ON tch.u = pur.u
                   AND tch.t < pur.t
                   AND tch.t >= pur.t - 604800000000),
            k AS (SELECT u, pid, CAST(count(*) AS BIGINT) AS kk
                  FROM j GROUP BY 1, 2),
            c AS (SELECT j.et, 1000000 // k.kk AS credit
                  FROM j JOIN k ON k.u = j.u AND k.pid = j.pid)
            SELECT et AS touch_type,
                   CAST(count(*) AS BIGINT) AS n_touches,
                   CAST(sum(credit) AS BIGINT) AS total_credit_ppm
            FROM c GROUP BY 1
        """,
        "diff_in_diff": """
            WITH x AS (SELECT COALESCE(o_custkey, 0) % 2 AS treat,
                              CASE WHEN o_orderdate
                                   >= DATE '1995-01-01'
                                   THEN 1 ELSE 0 END AS after,
                              CAST(round(o_totalprice * 100, 0)
                                   AS BIGINT) AS cents
                       FROM orders),
            s AS (SELECT
                CAST(COALESCE(sum(cents) FILTER (
                    WHERE treat = 1 AND after = 0), 0) AS BIGINT) a1,
                CAST(COALESCE(sum(cents) FILTER (
                    WHERE treat = 1 AND after = 1), 0) AS BIGINT) a2,
                CAST(COALESCE(sum(cents) FILTER (
                    WHERE treat = 0 AND after = 0), 0) AS BIGINT) b1,
                CAST(COALESCE(sum(cents) FILTER (
                    WHERE treat = 0 AND after = 1), 0) AS BIGINT) b2
                  FROM x)
            SELECT a1 AS treat_before_cents, a2 AS treat_after_cents,
                   b1 AS ctrl_before_cents, b2 AS ctrl_after_cents,
                   CAST((a2 - a1) - (b2 - b1) AS BIGINT) AS did_cents
            FROM s WHERE a1 + a2 + b1 + b2 <> 0
        """,
        "curriculum_order": """
            WITH d AS (SELECT COALESCE(doc_id, -1) AS doc_id,
                              LEAST(COALESCE(n_chars, 0) // 16, 63)
                                  AS bucket
                       FROM documents),
            r AS (SELECT doc_id, bucket,
                         row_number() OVER (PARTITION BY bucket
                                            ORDER BY doc_id) AS rn
                  FROM d)
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(bucket AS BIGINT) AS bucket,
                   CAST((rn - 1) * 64 + bucket AS BIGINT)
                       AS epoch_pos
            FROM r
        """,
        "negative_sampling_table": """
            WITH w AS (SELECT unnest(string_split(COALESCE(text, ''),
                              ' ')) AS term
                       FROM documents),
            tf AS (SELECT term, CAST(count(*) AS BIGINT) AS tf
                   FROM w WHERE term <> '' GROUP BY 1),
            x AS (SELECT term, tf,
                         CAST(FLOOR(SQRT(CAST(tf AS DOUBLE)))
                              AS BIGINT) AS weight
                  FROM tf)
            SELECT term, tf, weight,
                   CAST(sum(weight) OVER (ORDER BY term) AS BIGINT)
                       AS cum_weight
            FROM x
        """,
        "user_last3_types": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS user_id,
                              COALESCE(event_type, '') AS et, ts,
                              event_id
                       FROM events WHERE ts IS NOT NULL),
            r AS (SELECT user_id, et,
                         row_number() OVER (PARTITION BY user_id
                             ORDER BY ts DESC, event_id DESC) AS rn,
                         count(*) OVER (PARTITION BY user_id) AS n
                  FROM e)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(any_value(n) AS BIGINT) AS n_events,
                   string_agg(et, '>' ORDER BY rn) AS last3
            FROM r WHERE rn <= 3 GROUP BY user_id
        """,
        "theil_sen_slope": """
            WITH d AS (SELECT COALESCE(doc_id, 0) AS did,
                              COALESCE(n_chars, 0) AS ch,
                              CAST(len(list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '')) AS BIGINT) AS tok
                       FROM documents
                       WHERE substr(md5(CAST(COALESCE(doc_id, 0)
                             AS VARCHAR)), 1, 1) < '4'),
            p AS (SELECT a.did AS i, b.did AS j,
                         (b.tok - a.tok) * 1000 AS num,
                         b.ch - a.ch AS dx
                  FROM d a JOIN d b ON b.did > a.did
                  WHERE b.ch <> a.ch),
            sl AS (SELECT i, j, (num // dx) AS slope FROM p),
            r AS (SELECT slope,
                         row_number() OVER (ORDER BY slope, i, j)
                             AS rn,
                         count(*) OVER () AS np
                  FROM sl),
            st AS (SELECT CAST(count(*) AS BIGINT) AS ns FROM d)
            SELECT st.ns AS n_sample, CAST(r.np AS BIGINT) AS n_pairs,
                   CAST(r.slope AS BIGINT) AS slope_milli
            FROM r CROSS JOIN st
            WHERE r.rn = (r.np - 1) // 2 + 1
        """,
        "candidate_key_audit": """
            WITH d AS (SELECT COALESCE(lang, '') AS lang,
                              COALESCE(source, '') AS source,
                              CAST(COALESCE(n_chars, 0) AS VARCHAR)
                                  AS ch
                       FROM documents),
            u AS (
              SELECT 'lang' AS key_set,
                     CAST(count(DISTINCT lang) AS BIGINT) AS nd,
                     CAST(count(*) AS BIGINT) AS n FROM d
              UNION ALL SELECT 'source',
                     CAST(count(DISTINCT source) AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d
              UNION ALL SELECT 'n_chars',
                     CAST(count(DISTINCT ch) AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d
              UNION ALL SELECT 'lang+source',
                     CAST(count(DISTINCT lang || '|' || source)
                          AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d
              UNION ALL SELECT 'lang+n_chars',
                     CAST(count(DISTINCT lang || '|' || ch)
                          AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d
              UNION ALL SELECT 'source+n_chars',
                     CAST(count(DISTINCT source || '|' || ch)
                          AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d
              UNION ALL SELECT 'lang+source+n_chars',
                     CAST(count(DISTINCT lang || '|' || source
                          || '|' || ch) AS BIGINT),
                     CAST(count(*) AS BIGINT) FROM d)
            SELECT key_set, nd AS n_distinct, n AS n_rows,
                   CAST(CASE WHEN nd = n THEN 1 ELSE 0 END AS BIGINT)
                       AS is_key
            FROM u WHERE n > 0
        """,
        "markov_entropy_rate": """
            WITH r AS (SELECT user_id, COALESCE(event_type, '') AS et,
                              lag(COALESCE(event_type, '')) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS p
                       FROM events WHERE ts IS NOT NULL),
            tr AS (SELECT p AS src, et AS dst,
                          CAST(count(*) AS BIGINT) AS c
                   FROM r WHERE p IS NOT NULL GROUP BY 1, 2),
            tt AS (SELECT src, SUM(c) AS tot FROM tr GROUP BY 1),
            g AS (SELECT CAST(SUM(c) AS BIGINT) AS t FROM tr),
            terms AS (SELECT CAST(FLOOR(1000000
                          * (CAST(tr.c AS DOUBLE) / g.t)
                          * LN(CAST(tt.tot AS DOUBLE) / tr.c))
                          AS BIGINT) AS v
                      FROM tr JOIN tt USING (src) CROSS JOIN g),
            st AS (SELECT CAST(count(*) AS BIGINT) AS ns FROM (
                       SELECT src AS s FROM tr
                       UNION SELECT dst FROM tr))
            SELECT g.t AS n_transitions, st.ns AS n_states,
                   CAST((SELECT SUM(v) FROM terms) AS BIGINT)
                       AS entropy_rate_ppm
            FROM g CROSS JOIN st WHERE g.t > 0
        """,
        "simpson_flip_report": """
            WITH t AS (SELECT COALESCE(source, '') AS source,
                              CAST(COALESCE(n_chars, 0) AS BIGINT)
                                  AS x,
                              CAST(CASE WHEN length(COALESCE(text,
                                        '')) = 0 THEN 0
                                   ELSE length(text)
                                        - length(replace(text, ' ',
                                                         '')) + 1
                                   END AS BIGINT) AS y
                       FROM documents),
            g AS (SELECT source AS scope,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * y) AS BIGINT) AS sxy
                  FROM t GROUP BY 1
                  UNION ALL
                  SELECT 'overall', CAST(count(*) AS BIGINT),
                         CAST(sum(x) AS BIGINT),
                         CAST(sum(y) AS BIGINT),
                         CAST(sum(x * y) AS BIGINT)
                  FROM t),
            sg AS (SELECT scope, n,
                          CASE WHEN n * sxy - sx * sy > 0 THEN 1
                               WHEN n * sxy - sx * sy < 0 THEN -1
                               ELSE 0 END AS cov_sign
                   FROM g WHERE n > 0),
            ov AS (SELECT cov_sign AS o FROM sg
                   WHERE scope = 'overall')
            SELECT sg.scope, sg.n, CAST(sg.cov_sign AS BIGINT)
                       AS cov_sign,
                   CAST(CASE WHEN sg.scope <> 'overall'
                             AND sg.cov_sign <> 0 AND ov.o <> 0
                             AND sg.cov_sign <> ov.o
                             THEN 1 ELSE 0 END AS BIGINT)
                       AS flips_overall
            FROM sg CROSS JOIN ov
        """,
        "churn_training_set": """
            WITH f AS (SELECT COALESCE(user_id, -1) AS user_id,
                              CAST(count(*) AS BIGINT) AS n_events,
                              CAST(min(epoch_us(ts) // 86400000000)
                                   AS BIGINT) AS first_day,
                              CAST(max(epoch_us(ts) // 86400000000)
                                   AS BIGINT) AS last_day
                       FROM events WHERE ts IS NOT NULL GROUP BY 1),
            m AS (SELECT max(last_day) AS md FROM f)
            SELECT f.user_id, f.n_events, f.first_day, f.last_day,
                   CAST(CASE WHEN m.md - f.last_day >= 14 THEN 1
                             ELSE 0 END AS BIGINT) AS churned
            FROM f CROSS JOIN m
        """,
        "source_weighted_jaccard": """
            WITH w AS (SELECT COALESCE(source, '') AS source,
                              unnest(string_split(COALESCE(text, ''),
                                     ' ')) AS term
                       FROM documents),
            tf AS (SELECT source, term, CAST(count(*) AS BIGINT) AS n
                   FROM w WHERE term <> '' GROUP BY 1, 2),
            srcs AS (SELECT DISTINCT source FROM tf),
            vocab AS (SELECT DISTINCT term FROM tf),
            p AS (SELECT a.source AS sa, b.source AS sb
                  FROM srcs a JOIN srcs b ON b.source > a.source),
            j AS (SELECT p.sa, p.sb,
                         COALESCE(ta.n, 0) AS na,
                         COALESCE(tb.n, 0) AS nb
                  FROM p CROSS JOIN vocab v
                  LEFT JOIN tf ta ON ta.source = p.sa
                                 AND ta.term = v.term
                  LEFT JOIN tf tb ON tb.source = p.sb
                                 AND tb.term = v.term)
            SELECT sa AS source_a, sb AS source_b,
                   CAST(sum(LEAST(na, nb)) AS BIGINT) AS min_sum,
                   CAST(sum(GREATEST(na, nb)) AS BIGINT) AS max_sum,
                   CAST(CASE WHEN sum(GREATEST(na, nb)) > 0
                             THEN (sum(LEAST(na, nb)) * 1000000)
                                  // sum(GREATEST(na, nb))
                             ELSE 0 END AS BIGINT) AS wj_ppm
            FROM j GROUP BY 1, 2
        """,
        "seasonal_index": """
            WITH m AS (SELECT month(o_orderdate) AS moy,
                              CAST(count(*) AS BIGINT) AS n,
                              CAST(sum(CAST(round(o_totalprice * 100,
                                                  0) AS BIGINT))
                                   AS BIGINT) AS c
                       FROM orders GROUP BY 1),
            t AS (SELECT CAST(SUM(c) AS BIGINT) AS tot FROM m)
            SELECT CAST(m.moy AS BIGINT) AS month_of_year,
                   m.n AS n_orders, m.c AS revenue_cents,
                   CAST(CASE WHEN t.tot > 0
                             THEN (m.c * 12 * 1000000) // t.tot
                             ELSE 0 END AS BIGINT) AS index_ppm
            FROM m CROSS JOIN t
        """,
        "fold_balance_report": """
            WITH d AS (SELECT CAST(concat('0x', substr(md5(
                              CAST(COALESCE(doc_id, 0) AS VARCHAR)),
                              1, 8)) AS BIGINT) % 5 AS fold,
                              COALESCE(lang, 'und') AS lang
                       FROM documents),
            g AS (SELECT fold, lang, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY 1, 2),
            ft AS (SELECT fold, CAST(SUM(n) AS BIGINT) AS t
                   FROM g GROUP BY 1),
            lt AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS t
                   FROM g GROUP BY 1),
            nn AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM g)
            SELECT CAST(g.fold AS BIGINT) AS fold, g.lang,
                   g.n AS n_docs,
                   CAST((g.n * 1000000) // ft.t AS BIGINT)
                       AS fold_share_ppm,
                   CAST((lt.t * 1000000) // nn.t AS BIGINT)
                       AS global_share_ppm,
                   CAST(abs((g.n * 1000000) // ft.t
                            - (lt.t * 1000000) // nn.t) AS BIGINT)
                       AS dev_ppm
            FROM g JOIN ft USING (fold) JOIN lt USING (lang)
            CROSS JOIN nn
        """,
        "daily_acf": """
            WITH e AS (SELECT epoch_us(ts) // 86400000000 AS d
                       FROM events WHERE ts IS NOT NULL),
            lim AS (SELECT min(d) AS lo, max(d) AS hi FROM e),
            days AS (SELECT unnest(range(lim.lo, lim.hi + 1)) AS d
                     FROM lim),
            cnt AS (SELECT days.d,
                           CAST(COALESCE(c.n, 0) AS BIGINT) AS n
                    FROM days LEFT JOIN (
                        SELECT d, CAST(count(*) AS BIGINT) AS n
                        FROM e GROUP BY 1) c ON c.d = days.d),
            lags AS (SELECT unnest(range(1, 8)) AS k),
            p AS (SELECT lags.k, a.n AS x, b.n AS y
                  FROM lags
                  JOIN cnt a ON TRUE
                  JOIN cnt b ON b.d = a.d + lags.k),
            m AS (SELECT k, CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(x) AS HUGEINT) AS sx,
                         CAST(sum(y) AS HUGEINT) AS sy,
                         CAST(sum(x * x) AS HUGEINT) AS sxx,
                         CAST(sum(y * y) AS HUGEINT) AS syy,
                         CAST(sum(x * y) AS HUGEINT) AS sxy
                  FROM p GROUP BY 1),
            r AS (SELECT k, n,
                         n * sxy - sx * sy AS num,
                         (n * sxx - sx * sx)
                         * (n * syy - sy * sy) AS den2
                  FROM m)
            SELECT CAST(k AS BIGINT) AS lag,
                   CAST(n AS BIGINT) AS n_pairs,
                   CAST(CASE WHEN den2 > 0 AND FLOOR(SQRT(
                                 CAST(den2 AS DOUBLE))) > 0
                             THEN (abs(num) * 1000000)
                                  // CAST(FLOOR(SQRT(CAST(den2
                                          AS DOUBLE))) AS HUGEINT)
                                  * (CASE WHEN num >= 0 THEN 1
                                          ELSE -1 END)
                             ELSE 0 END AS BIGINT) AS acf_ppm
            FROM r ORDER BY k
        """,
        "daily_peaks": """
            WITH e AS (SELECT epoch_us(ts) // 86400000000 AS d
                       FROM events WHERE ts IS NOT NULL),
            lim AS (SELECT min(d) AS lo, max(d) AS hi FROM e),
            days AS (SELECT unnest(range(lim.lo, lim.hi + 1)) AS d
                     FROM lim),
            cnt AS (SELECT days.d,
                           CAST(COALESCE(c.n, 0) AS BIGINT) AS n
                    FROM days LEFT JOIN (
                        SELECT d, CAST(count(*) AS BIGINT) AS n
                        FROM e GROUP BY 1) c ON c.d = days.d),
            w AS (SELECT d, n, lag(n) OVER (ORDER BY d) AS p,
                         lead(n) OVER (ORDER BY d) AS f
                  FROM cnt),
            pk AS (SELECT CAST(count(*) FILTER (
                       WHERE p IS NOT NULL AND f IS NOT NULL
                         AND n > p AND n > f) AS BIGINT) AS np
                   FROM w),
            top AS (SELECT d, n FROM cnt
                    ORDER BY n DESC, d ASC LIMIT 1),
            nd AS (SELECT CAST(count(*) AS BIGINT) AS c FROM cnt)
            SELECT nd.c AS n_days, pk.np AS n_peaks,
                   CAST(top.d AS BIGINT) AS top_day,
                   top.n AS top_count
            FROM nd CROSS JOIN pk CROSS JOIN top
        """,
        "elasticity_by_brand": """
            WITH t AS (SELECT p.p_brand AS brand,
                              CAST(round(l.l_discount * 100, 0)
                                   AS BIGINT) AS x,
                              CAST(round(l.l_quantity, 0) AS BIGINT)
                                  AS y
                       FROM lineitem l
                       JOIN part p ON p.p_partkey = l.l_partkey),
            s AS (SELECT brand, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * x) AS BIGINT) AS sxx,
                         CAST(sum(y * y) AS BIGINT) AS syy,
                         CAST(sum(x * y) AS BIGINT) AS sxy
                  FROM t GROUP BY 1)
            SELECT brand, n AS n_items,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS corr_dq
            FROM s
            WHERE n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
        """,
        "session_type_lift": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t, event_id,
                              COALESCE(event_type, '') AS et
                       FROM events WHERE ts IS NOT NULL),
            s AS (SELECT u, t, event_id, et,
                         CASE WHEN lag(t) OVER w IS NULL
                              OR t - lag(t) OVER w > 1800000000
                              THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY u
                                      ORDER BY t, event_id)),
            i AS (SELECT u, et,
                         SUM(brk) OVER (PARTITION BY u
                             ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
                  FROM s),
            st AS (SELECT DISTINCT u, sid, et FROM i),
            ns AS (SELECT CAST(count(*) AS BIGINT) AS n FROM (
                       SELECT DISTINCT u, sid FROM st)),
            ta AS (SELECT et, CAST(count(*) AS BIGINT) AS c
                   FROM st GROUP BY 1),
            pr AS (SELECT a.et AS ta_, b.et AS tb_,
                          CAST(count(*) AS BIGINT) AS nab
                   FROM st a JOIN st b
                     ON b.u = a.u AND b.sid = a.sid
                    AND b.et > a.et
                   GROUP BY 1, 2)
            SELECT pr.ta_ AS type_a, pr.tb_ AS type_b, pr.nab AS n_ab,
                   CAST((ns.n * pr.nab * 1000000)
                        // (ca.c * cb.c) AS BIGINT) AS lift_ppm
            FROM pr
            JOIN ta ca ON ca.et = pr.ta_
            JOIN ta cb ON cb.et = pr.tb_
            CROSS JOIN ns
        """,
        "decay_ess": """
            WITH t AS (SELECT max(epoch_us(ts)) AS mt FROM events
                       WHERE ts IS NOT NULL),
            e AS (SELECT COALESCE(user_id, -1) AS user_id,
                         LEAST((t.mt - epoch_us(ts))
                               // 604800000000, 20) AS w
                  FROM events CROSS JOIN t WHERE ts IS NOT NULL),
            u AS (SELECT user_id,
                         CAST(sum(1048576 >> CAST(w AS INT))
                              AS BIGINT) AS sc
                  FROM e GROUP BY 1),
            k AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(sc) AS HUGEINT) AS sw,
                         CAST(sum(sc * sc) AS HUGEINT) AS sw2
                  FROM u)
            SELECT n AS n_users, CAST(sw AS BIGINT) AS sum_w,
                   CAST(sw2 AS BIGINT) AS sum_w2,
                   CAST((sw * sw * 100) // sw2 AS BIGINT)
                       AS ess_x100
            FROM k WHERE sw2 > 0
        """,
        "loso_mean_chars": """
            WITH g AS (SELECT COALESCE(source, '') AS source,
                              CAST(count(*) AS BIGINT) AS n,
                              CAST(sum(COALESCE(n_chars, 0))
                                   AS HUGEINT) AS s
                       FROM documents GROUP BY 1),
            t AS (SELECT CAST(SUM(n) AS HUGEINT) AS nn,
                         CAST(SUM(s) AS HUGEINT) AS ss
                  FROM g)
            SELECT g.source, g.n AS n_excluded,
                   CAST(((t.ss - g.s) * 1000000) // (t.nn - g.n)
                        AS BIGINT) AS mean_wo_ppm,
                   CAST(((t.ss - g.s) * 1000000) // (t.nn - g.n)
                        - (t.ss * 1000000) // t.nn AS BIGINT)
                       AS delta_ppm
            FROM g CROSS JOIN t WHERE t.nn - g.n > 0
        """,
        "gains_table_chars": """
            WITH d AS (SELECT COALESCE(doc_id, 0) AS did,
                              COALESCE(n_chars, 0) AS ch,
                              CASE WHEN COALESCE(lang, 'und') = 'en'
                                   THEN 1 ELSE 0 END AS pos
                       FROM documents),
            r AS (SELECT pos,
                         row_number() OVER (ORDER BY ch DESC,
                                            did ASC) AS rn,
                         count(*) OVER () AS nn
                  FROM d),
            x AS (SELECT pos, nn,
                         CASE WHEN rn <= (nn % 10)
                                   * (nn // 10 + 1)
                              THEN (rn - 1) // (nn // 10 + 1) + 1
                              ELSE (nn % 10)
                                   + (rn - 1 - (nn % 10)
                                      * (nn // 10 + 1))
                                     // GREATEST(nn // 10, 1) + 1
                         END AS decile
                  FROM r WHERE nn >= 10),
            g AS (SELECT decile, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(pos) AS BIGINT) AS n_pos
                  FROM x GROUP BY 1),
            t AS (SELECT CAST(COALESCE(SUM(n_pos), 0) AS BIGINT)
                             AS p
                  FROM g)
            SELECT CAST(g.decile AS BIGINT) AS decile, g.n, g.n_pos,
                   CAST(CASE WHEN t.p > 0
                             THEN (CAST(sum(g.n_pos) OVER (
                                       ORDER BY g.decile) AS BIGINT)
                                   * 1000000) // t.p
                             ELSE 0 END AS BIGINT) AS cum_pos_ppm
            FROM g CROSS JOIN t
        """,
        "session_entry_exit": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t, event_id,
                              COALESCE(event_type, '') AS et
                       FROM events WHERE ts IS NOT NULL),
            s AS (SELECT u, t, event_id, et,
                         CASE WHEN lag(t) OVER w IS NULL
                              OR t - lag(t) OVER w > 1800000000
                              THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY u
                                      ORDER BY t, event_id)),
            i AS (SELECT u, t, event_id, et,
                         SUM(brk) OVER (PARTITION BY u
                             ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
                  FROM s),
            fx AS (SELECT u, sid,
                          first(et ORDER BY t, event_id) AS entry,
                          last(et ORDER BY t, event_id) AS ex
                   FROM i GROUP BY 1, 2)
            SELECT entry AS entry_type, ex AS exit_type,
                   CAST(count(*) AS BIGINT) AS n_sessions
            FROM fx GROUP BY 1, 2
        """,
        "kmv_containment": """
            WITH du AS (SELECT DISTINCT
                            COALESCE(event_type, '') AS t,
                            COALESCE(user_id, -1) AS u
                        FROM events),
            hd AS (SELECT DISTINCT t,
                          CAST(concat('0x', substr(md5(
                              CAST(u AS VARCHAR)), 1, 15)) AS BIGINT)
                              AS hv
                   FROM du),
            k AS (SELECT t, hv, row_number() OVER (
                      PARTITION BY t ORDER BY hv) AS rn FROM hd),
            bot AS (SELECT t, hv FROM k WHERE rn <= 64),
            ea AS (SELECT t, CAST(count(*) AS BIGINT) AS kk,
                          max(hv) AS kth
                   FROM bot GROUP BY 1),
            e1 AS (SELECT t, CAST(CASE WHEN kk < 64 THEN kk
                               ELSE (CAST(63 AS HUGEINT)
                                     * 1152921504606846976) // kth
                               END AS BIGINT) AS est
                   FROM ea),
            tys AS (SELECT DISTINCT t FROM bot),
            pud AS (SELECT DISTINCT a.t AS ta, b.t AS tb, bu.hv
                    FROM tys a JOIN tys b ON b.t <> a.t
                    JOIN bot bu ON bu.t = a.t OR bu.t = b.t),
            ku AS (SELECT ta, tb, hv, row_number() OVER (
                       PARTITION BY ta, tb ORDER BY hv) AS rn
                   FROM pud),
            eu AS (SELECT ta, tb, CAST(count(*) AS BIGINT) AS kk,
                          max(hv) AS kth
                   FROM ku WHERE rn <= 64 GROUP BY 1, 2),
            e2 AS (SELECT ta, tb,
                          CAST(CASE WHEN kk < 64 THEN kk
                               ELSE (CAST(63 AS HUGEINT)
                                     * 1152921504606846976) // kth
                               END AS BIGINT) AS estu
                   FROM eu)
            SELECT e2.ta AS type_a, e2.tb AS type_b,
                   a.est AS est_a,
                   CAST(LEAST(GREATEST(a.est + b.est - e2.estu, 0)
                              * 1000000 // a.est, 1000000)
                        AS BIGINT) AS est_containment_ppm
            FROM e2
            JOIN e1 a ON a.t = e2.ta
            JOIN e1 b ON b.t = e2.tb
            WHERE a.est > 0
        """,
        "conformal_coverage": """
            WITH d AS (SELECT COALESCE(doc_id, 0) AS did,
                              COALESCE(source, '') AS source,
                              COALESCE(n_chars, 0) AS ch
                       FROM documents),
            tr AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(ch) AS HUGEINT) AS s
                   FROM d WHERE substr(md5(CAST(did AS VARCHAR)),
                                       1, 1) >= '4'
                   GROUP BY 1),
            mu AS (SELECT source, CAST((s * 1000000) // n AS BIGINT)
                              AS mean_ppm
                   FROM tr WHERE n > 0),
            cal AS (SELECT d.source,
                           abs(d.ch * 1000000 - mu.mean_ppm) AS r
                    FROM d JOIN mu USING (source)
                    WHERE substr(md5(CAST(d.did AS VARCHAR)),
                                 1, 1) < '4'),
            rk AS (SELECT source, r,
                          row_number() OVER (PARTITION BY source
                                             ORDER BY r) AS rn,
                          count(*) OVER (PARTITION BY source) AS n
                   FROM cal),
            q AS (SELECT source, CAST(r AS BIGINT) AS q90
                  FROM rk WHERE rn = ((n - 1) * 90) // 100 + 1),
            cov AS (SELECT d.source,
                           CAST(count(*) AS BIGINT) AS n_train,
                           CAST(count(*) FILTER (
                               WHERE abs(d.ch * 1000000 - mu.mean_ppm)
                                     <= q.q90) AS BIGINT)
                               AS n_inside
                    FROM d
                    JOIN mu USING (source) JOIN q USING (source)
                    WHERE substr(md5(CAST(d.did AS VARCHAR)),
                                 1, 1) >= '4'
                    GROUP BY 1)
            SELECT source, n_train, n_inside,
                   CAST((n_inside * 1000000) // n_train AS BIGINT)
                       AS coverage_ppm
            FROM cov WHERE n_train > 0
        """,
        "stable_top_words": """
            WITH w AS (SELECT CAST(concat('0x', substr(md5(
                              CAST(COALESCE(doc_id, 0) AS VARCHAR)),
                              1, 8)) AS BIGINT) % 5 AS fold,
                              unnest(string_split(COALESCE(text, ''),
                                     ' ')) AS term
                       FROM documents),
            tf AS (SELECT fold, term, CAST(count(*) AS BIGINT) AS n
                   FROM w WHERE term <> '' GROUP BY 1, 2),
            r AS (SELECT fold, term,
                         row_number() OVER (PARTITION BY fold
                             ORDER BY n DESC, term ASC) AS rk
                  FROM tf),
            top AS (SELECT fold, term, rk FROM r WHERE rk <= 20),
            nf AS (SELECT CAST(count(DISTINCT fold) AS BIGINT) AS k
                   FROM tf)
            SELECT top.term AS word,
                   CAST(count(*) AS BIGINT) AS n_folds,
                   CAST(min(rk) AS BIGINT) AS min_rank,
                   CAST(max(rk) AS BIGINT) AS max_rank
            FROM top CROSS JOIN nf
            GROUP BY top.term, nf.k
            HAVING count(*) = nf.k
        """,
        "session_conversion_by_entry": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              epoch_us(ts) AS t, event_id,
                              COALESCE(event_type, '') AS et
                       FROM events WHERE ts IS NOT NULL),
            s AS (SELECT u, t, event_id, et,
                         CASE WHEN lag(t) OVER w IS NULL
                              OR t - lag(t) OVER w > 1800000000
                              THEN 1 ELSE 0 END AS brk
                  FROM e WINDOW w AS (PARTITION BY u
                                      ORDER BY t, event_id)),
            i AS (SELECT u, t, event_id, et,
                         SUM(brk) OVER (PARTITION BY u
                             ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS sid
                  FROM s),
            fx AS (SELECT u, sid,
                          first(et ORDER BY t, event_id) AS entry,
                          CAST(max(CASE WHEN et = 'purchase' THEN 1
                                        ELSE 0 END) AS BIGINT)
                              AS conv
                   FROM i GROUP BY 1, 2)
            SELECT entry AS entry_type,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(conv) AS BIGINT) AS n_converted,
                   CAST((sum(conv) * 1000000) // count(*) AS BIGINT)
                       AS conversion_ppm
            FROM fx GROUP BY 1
        """,
        "dau_new_returning": """
            WITH ad AS (SELECT DISTINCT COALESCE(user_id, -1) AS u,
                               epoch_us(ts) // 86400000000 AS d
                        FROM events WHERE ts IS NOT NULL),
            f AS (SELECT u, min(d) AS fd FROM ad GROUP BY 1)
            SELECT CAST(ad.d AS BIGINT) AS day,
                   CAST(count(*) FILTER (WHERE ad.d = f.fd)
                        AS BIGINT) AS n_new,
                   CAST(count(*) FILTER (WHERE ad.d > f.fd)
                        AS BIGINT) AS n_returning
            FROM ad JOIN f ON f.u = ad.u
            GROUP BY 1
        """,
        "user_hour_entropy": """
            WITH c AS (SELECT COALESCE(user_id, -1) AS user_id,
                              (epoch_us(ts) // 3600000000) % 24
                                  AS h,
                              CAST(count(*) AS BIGINT) AS o
                       FROM events WHERE ts IS NOT NULL
                       GROUP BY 1, 2),
            s AS (SELECT user_id, CAST(sum(o) AS BIGINT) AS t,
                         CAST(count(*) AS BIGINT) AS k
                  FROM c GROUP BY 1)
            SELECT c.user_id, s.t AS n_events, s.k AS n_hours,
                   CAST(sum(CAST(FLOOR(1000000
                        * (-(c.o * 1.0 / s.t)
                           * ln(c.o * 1.0 / s.t))) AS BIGINT))
                        AS BIGINT) AS entropy_ppm
            FROM c JOIN s USING (user_id)
            GROUP BY c.user_id, s.t, s.k
        """,
        "c4_line_filter": """
            WITH w AS (SELECT doc_id,
                              list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '') AS ws
                       FROM documents WHERE doc_id IS NOT NULL),
            l AS (SELECT doc_id, i,
                         array_to_string(ws[(5*i+1):(5*i+5)], ' ')
                         || CASE WHEN (doc_id + i) % 11 = 0
                                     THEN ' javascript.'
                                 WHEN (doc_id + i) % 3 = 0 THEN '.'
                                 ELSE '' END AS line
                  FROM w, LATERAL (
                      SELECT unnest(range(CAST(ceil(len(ws) / 5.0)
                                               AS BIGINT))) AS i)),
            k AS (SELECT doc_id, i, line,
                         (line LIKE '%.' OR line LIKE '%!'
                          OR line LIKE '%?' OR line LIKE '%"'
                          OR line LIKE '%”')
                         AND len(list_filter(string_split(line, ' '),
                                             x -> x <> '')) >= 3
                         AND lower(line) NOT LIKE '%lorem ipsum%'
                         AND lower(line) NOT LIKE '%javascript%'
                         AND lower(line) NOT LIKE '%{%' AS keep
                  FROM l)
            SELECT doc_id,
                   string_agg(line, chr(10) ORDER BY i)
                       FILTER (WHERE keep) AS text,
                   CAST(count(*) AS BIGINT) AS n_lines_total,
                   CAST(count(*) FILTER (WHERE keep) AS BIGINT)
                       AS n_lines_kept
            FROM k GROUP BY doc_id
            HAVING count(*) FILTER (WHERE keep) >= 2
        """,
        "probe_positions": """
            WITH p AS (SELECT unnest(['table part', 'fast merge',
                                      'key agg', 'row scan']) AS probe),
            d AS (SELECT doc_id, COALESCE(text, '') AS t
                  FROM documents WHERE doc_id IS NOT NULL)
            SELECT doc_id, probe,
                   CAST(strpos(t, probe) - 1 AS BIGINT) AS first_pos,
                   CAST((length(t) - length(replace(t, probe, '')))
                        / length(probe) AS BIGINT) AS n_hits
            FROM d, p WHERE strpos(t, probe) > 0
        """,
        "mojibake_audit": """
            WITH planted AS (
                SELECT source,
                       CASE WHEN doc_id % 17 = 0
                                THEN replace(COALESCE(text, ''),
                                             'a', 'Ã¡')
                            WHEN doc_id % 17 = 1
                                THEN COALESCE(text, '') || ' â€œq'
                            ELSE COALESCE(text, '') END AS t
                FROM documents),
            f AS (SELECT COALESCE(source, '') AS source,
                         (t LIKE '%Ã%' OR t LIKE '%â€%'
                          OR t LIKE '%�%') AS moji,
                         regexp_matches(t, '[^[:ascii:]]') AS nonascii
                  FROM planted)
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (WHERE moji) AS BIGINT)
                       AS n_mojibake_docs,
                   CAST(count(*) FILTER (WHERE nonascii) AS BIGINT)
                       AS n_nonascii_docs,
                   CAST(count(*) FILTER (WHERE moji) * 1000000
                        // count(*) AS BIGINT) AS mojibake_ppm
            FROM f GROUP BY source
        """,
        "l_diversity_audit": """
            SELECT COALESCE(source, '') AS source,
                   CAST(floor(COALESCE(n_chars, 0) / 64.0) AS BIGINT)
                       AS size_class,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(DISTINCT COALESCE(lang, 'und'))
                        AS BIGINT) AS l_distinct,
                   count(DISTINCT COALESCE(lang, 'und')) >= 2 AS l_ok
            FROM documents GROUP BY 1, 2
        """,
        "effect_size_chars": """
            WITH g AS (SELECT COALESCE(source, '') AS source,
                              CAST(count(*) AS HUGEINT) n,
                              CAST(sum(CAST(COALESCE(n_chars, 0)
                                       AS HUGEINT)) AS HUGEINT) sx,
                              CAST(sum(CAST(COALESCE(n_chars, 0)
                                       AS HUGEINT)
                                       * COALESCE(n_chars, 0))
                                   AS HUGEINT) sxx
                       FROM documents GROUP BY 1),
            t AS (SELECT sum(n) tn, sum(sx) tsx, sum(sxx) tsxx FROM g),
            v AS (SELECT source, n, sx, sxx,
                         tn - n AS nr, tsx - sx AS sxr,
                         tsxx - sxx AS sxxr
                  FROM g, t WHERE n >= 2 AND tn - n >= 2),
            e AS (SELECT source, n,
                         CAST(n * sxx - sx * sx AS DOUBLE)
                         / CAST(n * (n - 1) AS DOUBLE) AS var_s,
                         CAST(nr * sxxr - sxr * sxr AS DOUBLE)
                         / CAST(nr * (nr - 1) AS DOUBLE) AS var_r,
                         CAST(sx AS DOUBLE) / CAST(n AS DOUBLE)
                         - CAST(sxr AS DOUBLE) / CAST(nr AS DOUBLE)
                             AS mean_diff,
                         n, nr FROM v),
            p AS (SELECT source, n,
                         mean_diff,
                         (CAST(n - 1 AS DOUBLE) * var_s
                          + CAST(nr - 1 AS DOUBLE) * var_r)
                         / CAST(n + nr - 2 AS DOUBLE) AS pooled
                  FROM e)
            SELECT source, CAST(n AS BIGINT) AS n,
                   mean_diff / sqrt(pooled) AS d
            FROM p WHERE pooled > 0
        """,
        "partial_corr_chars": """
            WITH b AS (SELECT
                CAST(COALESCE(n_chars, 0) AS HUGEINT) x,
                CAST(len(list_filter(string_split(
                    COALESCE(text, ''), ' '), w -> w <> ''))
                    AS HUGEINT) y,
                CAST(length(COALESCE(text, ''))
                     - length(replace(COALESCE(text, ''), 'a', ''))
                     AS HUGEINT) z
                FROM documents),
            m AS (SELECT CAST(count(*) AS HUGEINT) n,
                         sum(x) sx, sum(y) sy, sum(z) sz,
                         sum(x * x) sxx, sum(y * y) syy,
                         sum(z * z) szz, sum(x * y) sxy,
                         sum(x * z) sxz, sum(y * z) syz
                  FROM b),
            r AS (SELECT CAST(n AS BIGINT) AS n,
                CAST(n * sxy - sx * sy AS DOUBLE)
                / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                   * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) r_xy,
                CAST(n * sxz - sx * sz AS DOUBLE)
                / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                   * sqrt(CAST(n * szz - sz * sz AS DOUBLE))) r_xz,
                CAST(n * syz - sy * sz AS DOUBLE)
                / (sqrt(CAST(n * syy - sy * sy AS DOUBLE))
                   * sqrt(CAST(n * szz - sz * sz AS DOUBLE))) r_yz
                FROM m
                WHERE n >= 3 AND n * sxx - sx * sx > 0
                  AND n * syy - sy * sy > 0 AND n * szz - sz * sz > 0)
            SELECT n, r_xy, r_xz, r_yz,
                   (r_xy - r_xz * r_yz)
                   / sqrt((1.0 - r_xz * r_xz)
                          * (1.0 - r_yz * r_yz)) AS partial_r
            FROM r
            WHERE (1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz) > 0
        """,
        "line_df_removal": """
            WITH w AS (SELECT doc_id,
                              list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '') AS ws
                       FROM documents WHERE doc_id IS NOT NULL),
            l AS (SELECT doc_id, i,
                         array_to_string(ws[(4*i+1):(4*i+4)], ' ')
                             AS line
                  FROM w, LATERAL (
                      SELECT unnest(range(CAST(ceil(len(ws) / 4.0)
                                               AS BIGINT))) AS i)),
            df AS (SELECT line,
                          count(DISTINCT doc_id) AS n_docs
                   FROM l GROUP BY line),
            b AS (SELECT line FROM df WHERE n_docs >= 5)
            SELECT doc_id,
                   COALESCE(string_agg(line, chr(10) ORDER BY i)
                            FILTER (WHERE line NOT IN
                                    (SELECT line FROM b)), '')
                       AS text,
                   CAST(count(*) AS BIGINT) AS n_lines_total,
                   CAST(count(*) FILTER (WHERE line IN
                                         (SELECT line FROM b))
                        AS BIGINT) AS n_lines_removed
            FROM l GROUP BY doc_id
        """,
        "skipgram_counts": """
            WITH w AS (SELECT doc_id,
                              list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '') AS ws
                       FROM documents),
            t AS (SELECT doc_id, unnest(ws) AS tok,
                         generate_subscripts(ws, 1) AS p
                  FROM w)
            SELECT a.tok AS w1, b.tok AS w2,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM t a JOIN t b
              ON a.doc_id = b.doc_id AND b.p - a.p BETWEEN 1 AND 2
            GROUP BY a.tok, b.tok
            ORDER BY cnt DESC, w1, w2 LIMIT 30
        """,
        "mad_anomalies": """
            WITH m AS (SELECT source,
                              CAST(round(median(n_chars) * 2, 0)
                                   AS BIGINT) AS m2
                       FROM documents GROUP BY source),
            s AS (SELECT d.source, m.m2,
                         CAST(round(median(abs(2 * d.n_chars - m.m2))
                                    * 2, 0) AS BIGINT) AS mad_x4
                  FROM documents d JOIN m USING (source)
                  GROUP BY d.source, m.m2)
            SELECT d.doc_id, d.source,
                   CAST(abs(2 * d.n_chars - s.m2) AS BIGINT)
                       AS dev_x2,
                   CAST(abs(2 * d.n_chars - s.m2) * 2000000
                        // greatest(s.mad_x4, 1) AS BIGINT)
                       AS score_ppm
            FROM documents d JOIN s USING (source)
            ORDER BY score_ppm DESC, d.source, d.doc_id LIMIT 50
        """,
        "kn_discount_counts": """
            WITH w AS (SELECT doc_id,
                              list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '') AS ws
                       FROM documents),
            t AS (SELECT doc_id, unnest(ws) AS tok,
                         generate_subscripts(ws, 1) AS p
                  FROM w),
            uni AS (SELECT tok AS word,
                           CAST(count(*) AS BIGINT) AS cnt
                    FROM t GROUP BY tok),
            pr AS (SELECT a.tok AS w1, b.tok AS w2
                   FROM t a JOIN t b
                     ON a.doc_id = b.doc_id AND b.p = a.p + 1),
            lf AS (SELECT w2 AS word,
                          CAST(count(DISTINCT w1) AS BIGINT)
                              AS n_left
                   FROM pr GROUP BY w2),
            rf AS (SELECT w1 AS word,
                          CAST(count(DISTINCT w2) AS BIGINT)
                              AS n_right
                   FROM pr GROUP BY w1)
            SELECT uni.word, uni.cnt,
                   COALESCE(lf.n_left, 0) AS n_left,
                   COALESCE(rf.n_right, 0) AS n_right
            FROM uni LEFT JOIN lf USING (word)
                     LEFT JOIN rf USING (word)
            ORDER BY uni.cnt DESC, uni.word LIMIT 40
        """,
        "cms_oracle_table": """
            WITH w AS (SELECT unnest(list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '')) AS tok
                       FROM documents),
            uni AS (SELECT tok, CAST(count(*) AS BIGINT) AS true_cnt
                    FROM w GROUP BY tok),
            cells AS (SELECT tok, true_cnt, i,
                             CAST(('0x' || substr(
                                 md5(tok || ':' || i), 1, 15))
                                 AS BIGINT) % 512 AS cell
                      FROM uni, LATERAL (SELECT unnest([0, 1, 2, 3])
                                         AS i)),
            counter AS (SELECT i, cell,
                               CAST(sum(true_cnt) AS BIGINT) AS c
                        FROM cells GROUP BY i, cell),
            est AS (SELECT cells.tok,
                           CAST(min(counter.c) AS BIGINT) AS est_cnt
                    FROM cells JOIN counter USING (i, cell)
                    GROUP BY cells.tok)
            SELECT uni.tok AS word, uni.true_cnt,
                   est.est_cnt,
                   est.est_cnt - uni.true_cnt AS overcount
            FROM uni JOIN est USING (tok)
            ORDER BY uni.true_cnt DESC, uni.tok LIMIT 40
        """,
        "c4prep": """
            WITH w AS (SELECT doc_id,
                              list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '') AS ws
                       FROM documents WHERE doc_id IS NOT NULL),
            l AS (SELECT doc_id, i,
                         array_to_string(ws[(5*i+1):(5*i+5)], ' ')
                         || CASE WHEN (doc_id + i) % 11 = 0
                                     THEN ' javascript.'
                                 WHEN (doc_id + i) % 3 = 0 THEN '.'
                                 ELSE '' END AS line
                  FROM w, LATERAL (
                      SELECT unnest(range(CAST(ceil(len(ws) / 5.0)
                                               AS BIGINT))) AS i)),
            k AS (SELECT doc_id, i, line,
                         (line LIKE '%.' OR line LIKE '%!'
                          OR line LIKE '%?' OR line LIKE '%"'
                          OR line LIKE '%”')
                         AND len(list_filter(string_split(line, ' '),
                                             x -> x <> '')) >= 3
                         AND lower(line) NOT LIKE '%lorem ipsum%'
                         AND lower(line) NOT LIKE '%javascript%'
                         AND lower(line) NOT LIKE '%{%' AS keep
                  FROM l),
            d AS (SELECT doc_id FROM k GROUP BY doc_id
                  HAVING count(*) FILTER (WHERE keep) >= 2),
            kl AS (SELECT k.doc_id, k.i, k.line
                   FROM k JOIN d USING (doc_id) WHERE k.keep),
            df AS (SELECT line, count(DISTINCT doc_id) AS nd
                   FROM kl GROUP BY line),
            b AS (SELECT line FROM df WHERE nd >= 5),
            sv AS (SELECT doc_id, i, line FROM kl
                   WHERE line NOT IN (SELECT line FROM b)),
            doc AS (SELECT doc_id,
                           string_agg(line, chr(10) ORDER BY i)
                               AS text,
                           CAST(count(*) AS BIGINT) AS n_lines
                    FROM sv GROUP BY doc_id)
            SELECT doc_id, text, n_lines FROM (
                SELECT doc_id, text, n_lines,
                       min(doc_id) OVER (PARTITION BY text) AS keeper
                FROM doc)
            WHERE doc_id = keeper
        """,
        "huber_mean_chars": """
            WITH m AS (SELECT source,
                              CAST(round(median(n_chars) * 2, 0)
                                   AS BIGINT) AS m2
                       FROM documents GROUP BY source),
            s AS (SELECT d.source, m.m2,
                         CAST(round(median(abs(2 * d.n_chars - m.m2))
                                    * 2, 0) AS BIGINT) AS mad4
                  FROM documents d JOIN m USING (source)
                  GROUP BY d.source, m.m2),
            c AS (SELECT d.source, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(least(greatest(
                             4 * d.n_chars, 2 * s.m2 - 3 * s.mad4),
                             2 * s.m2 + 3 * s.mad4)) AS BIGINT)
                             AS sum_clamped4
                  FROM documents d JOIN s USING (source)
                  GROUP BY d.source)
            SELECT source, n, sum_clamped4,
                   CAST(sum_clamped4 * 1000 // (4 * n) AS BIGINT)
                       AS wmean_milli
            FROM c
        """,
        "quality_pr_curve": """
            WITH t AS (
              SELECT doc_id,
                     length(text) AS nc,
                     CASE WHEN length(text) = 0 THEN 0
                          ELSE length(text)
                               - length(replace(text, ' ', '')) + 1
                     END AS n_tokens,
                     length(replace(text, ' ', '')) AS nonspace
              FROM documents),
            q AS (SELECT CAST(floor(
                      least(1.0, n_tokens / 100.0) *
                      (CASE WHEN (CASE WHEN n_tokens > 0
                                  THEN nonspace * 1.0 / n_tokens
                                  ELSE 0.0 END) BETWEEN 2.0 AND 10.0
                            THEN 1.0 ELSE 0.5 END) * 1000)
                      AS BIGINT) AS sm,
                         (nc >= 150) AS y
                  FROM t),
            th AS (SELECT unnest([100, 250, 500, 750, 900])
                       AS threshold),
            c AS (SELECT threshold,
                         CAST(count(*) FILTER (WHERE sm >= threshold
                                               AND y) AS BIGINT) tp,
                         CAST(count(*) FILTER (WHERE sm >= threshold
                                               AND NOT y) AS BIGINT)
                             fp,
                         CAST(count(*) FILTER (WHERE sm < threshold
                                               AND y) AS BIGINT) fn,
                         CAST(count(*) FILTER (WHERE sm < threshold
                                               AND NOT y) AS BIGINT)
                             tn
                  FROM th, q GROUP BY threshold)
            SELECT CAST(threshold AS BIGINT) AS threshold,
                   tp, fp, fn, tn,
                   CASE WHEN tp + fp > 0
                        THEN CAST(tp * 1000000 // (tp + fp) AS BIGINT)
                        ELSE -1 END AS precision_ppm,
                   CASE WHEN tp + fn > 0
                        THEN CAST(tp * 1000000 // (tp + fn) AS BIGINT)
                        ELSE -1 END AS recall_ppm
            FROM c
        """,
        "bias_model_biases": """
            WITH e AS (SELECT COALESCE(user_id, -1) AS u,
                              COALESCE(event_type, '') AS it,
                              CAST(floor(COALESCE(value, 0))
                                   AS BIGINT) AS r
                       FROM events),
            mu AS (SELECT CAST(sum(r) // count(*) AS BIGINT) AS mu
                   FROM e),
            bu1 AS (SELECT e.u,
                           CAST(sum(e.r - mu.mu) // count(*)
                                AS BIGINT) AS bu
                    FROM e CROSS JOIN mu GROUP BY e.u),
            bi1 AS (SELECT e.it,
                           CAST(sum(e.r - mu.mu - bu1.bu) // count(*)
                                AS BIGINT) AS bi
                    FROM e JOIN bu1 USING (u) CROSS JOIN mu
                    GROUP BY e.it),
            bu2 AS (SELECT e.u,
                           CAST(sum(e.r - mu.mu - bi1.bi) // count(*)
                                AS BIGINT) AS bu
                    FROM e JOIN bi1 USING (it) CROSS JOIN mu
                    GROUP BY e.u)
            SELECT e.it, CAST(count(*) AS BIGINT) AS n,
                   bi1.bi + CAST(sum(e.r - mu.mu - bu2.bu - bi1.bi)
                                 // count(*) AS BIGINT) AS b_i,
                   CAST(sum(abs(e.r - mu.mu - bu2.bu - bi1.bi))
                        AS BIGINT) AS resid_abs_sum
            FROM e JOIN bu2 USING (u) JOIN bi1 USING (it)
                 CROSS JOIN mu
            GROUP BY e.it, bi1.bi
        """,
        "embedding_exact_dedup": """
            WITH p AS (SELECT COALESCE(vec_id, -1) AS vec_id,
                              CASE WHEN COALESCE(vec_id, -1) % 10 = 7
                                   THEN list_transform(range(64),
                                        d -> (((vec_id // 50) * 13 + d)
                                              % 7) / 7.0)
                                   ELSE list_transform(
                                        COALESCE(embedding,
                                            list_transform(range(64),
                                                           d -> 0.0)),
                                        x -> CAST(x AS DOUBLE)) END
                                  AS emb
                       FROM embeddings),
            k AS (SELECT vec_id,
                         array_to_string(list_transform(emb,
                             x -> CAST(FLOOR(x * 1000) AS BIGINT)),
                             ',') AS key
                  FROM p)
            SELECT CAST(min(vec_id) AS BIGINT) AS vec_id,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM k GROUP BY key
        """,
        "knn_label_eval": """
            WITH e AS (SELECT COALESCE(vec_id, -1) AS vec_id,
                              COALESCE(label, -1) AS label,
                              list_transform(
                                  COALESCE(embedding,
                                      list_transform(range(64),
                                                     d -> 0.0)),
                                  x -> FLOOR(CAST(x AS DOUBLE)
                                             * 1000)) AS q
                       FROM embeddings),
            qs AS (SELECT vec_id, label, q FROM e
                   ORDER BY vec_id LIMIT 20),
            d AS (SELECT qs.vec_id AS query_id,
                         qs.label AS true_label,
                         e.vec_id AS neighbor_id,
                         e.label AS nlab,
                         CAST(list_dot_product(qs.q, e.q) AS BIGINT)
                             AS dot
                  FROM qs CROSS JOIN e
                  WHERE e.vec_id <> qs.vec_id),
            r AS (SELECT query_id, true_label, nlab,
                         row_number() OVER (PARTITION BY query_id
                             ORDER BY dot DESC, neighbor_id ASC)
                             AS rank
                  FROM d),
            v AS (SELECT query_id, true_label, nlab,
                         count(*) AS c
                  FROM r WHERE rank <= 5
                  GROUP BY query_id, true_label, nlab),
            p AS (SELECT query_id, true_label, nlab AS pred_label,
                         row_number() OVER (PARTITION BY query_id
                             ORDER BY c DESC, nlab ASC) AS rn
                  FROM v)
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(true_label AS BIGINT) AS true_label,
                   CAST(pred_label AS BIGINT) AS pred_label,
                   pred_label = true_label AS correct
            FROM p WHERE rn = 1
        """,
        "l1_line_fit": """
            WITH b AS (SELECT CAST(COALESCE(n_chars, 0) AS BIGINT) y,
                              CAST(len(list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  w -> w <> '')) AS BIGINT) x
                       FROM documents),
            g AS (SELECT unnest(range(11)) AS m),
            r AS (SELECT g.m, b.y - g.m * b.x AS resid FROM b, g),
            med AS (SELECT m, CAST(quantile_disc(resid, 0.5)
                                   AS BIGINT) AS b0
                    FROM r GROUP BY m),
            loss AS (SELECT r.m,
                            CAST(sum(abs(r.resid - med.b0))
                                 AS BIGINT) AS l1,
                            CAST(min(med.b0) AS BIGINT) AS b0
                     FROM r JOIN med USING (m) GROUP BY r.m)
            SELECT CAST(m AS BIGINT) AS slope, b0 AS intercept,
                   l1 AS l1_loss
            FROM loss ORDER BY l1, m LIMIT 1
        """,
        "crawl_schedule": """
            WITH u AS (SELECT
                'https://' || lower(COALESCE(source, ''))
                || '.example.com'
                || CASE WHEN COALESCE(doc_id, 0) % 5 = 0 THEN '/'
                        ELSE '/' || COALESCE(lang, 'und') || '/d'
                             || CAST(COALESCE(doc_id, 0) % 17
                                     AS VARCHAR)
                             || '/p' || CAST(COALESCE(doc_id, 0)
                                             AS VARCHAR) || '.html'
                   END AS url,
                lower(COALESCE(source, '')) || '.example.com' AS host
                FROM documents),
            r AS (SELECT url, host,
                         row_number() OVER (PARTITION BY host
                                            ORDER BY url) - 1 AS slot
                  FROM u)
            SELECT url, host, CAST(slot AS BIGINT) AS slot,
                   CAST(slot * ((length(host) % 4 + 1) * 500)
                        AS BIGINT) AS fetch_at_ms
            FROM r
        """,
        "bucketed_join": """
            WITH l AS (SELECT c_custkey, c_custkey % 16 AS bucket
                       FROM customer WHERE c_custkey IS NOT NULL),
            r AS (SELECT user_id, user_id % 16 AS bucket
                  FROM events WHERE user_id IS NOT NULL),
            b AS (SELECT unnest(range(16)) AS bucket),
            lc AS (SELECT bucket, count(*) AS n FROM l
                   GROUP BY bucket),
            rc AS (SELECT bucket, count(*) AS n FROM r
                   GROUP BY bucket),
            jc AS (SELECT l.bucket, count(*) AS n
                   FROM l JOIN r ON l.c_custkey = r.user_id
                   GROUP BY l.bucket)
            SELECT CAST(b.bucket AS BIGINT) AS bucket,
                   CAST(COALESCE(lc.n, 0) AS BIGINT) AS n_left,
                   CAST(COALESCE(rc.n, 0) AS BIGINT) AS n_right,
                   CAST(COALESCE(jc.n, 0) AS BIGINT) AS n_joined
            FROM b LEFT JOIN lc USING (bucket)
                   LEFT JOIN rc USING (bucket)
                   LEFT JOIN jc USING (bucket)
        """,
        "bloom_anti_audit": """
            WITH mk AS (SELECT DISTINCT c_custkey AS u FROM customer
                        WHERE c_custkey IS NOT NULL),
            mpos AS (SELECT DISTINCT
                         CAST(('0x' || substr(md5(CAST(u AS VARCHAR)),
                               1 + 8 * i, 8)) AS BIGINT) % 1024 AS p
                     FROM mk, LATERAL (SELECT unnest([0, 1, 2, 3])
                                       AS i)),
            f AS (SELECT user_id AS u FROM events
                  WHERE user_id IS NOT NULL),
            fpos AS (SELECT f.rowid AS rid, f.u,
                         CAST(('0x' || substr(md5(CAST(f.u AS VARCHAR)),
                               1 + 8 * i, 8)) AS BIGINT) % 1024 AS p
                     FROM (SELECT row_number() OVER () AS rowid, u
                           FROM f) f,
                          LATERAL (SELECT unnest([0, 1, 2, 3]) AS i)),
            cls AS (SELECT rid, min(u) AS u,
                           count(*) FILTER (WHERE p IN
                               (SELECT p FROM mpos)) = 4 AS pos
                    FROM fpos GROUP BY rid),
            agg AS (SELECT
                count(*) AS n_probes,
                count(*) FILTER (WHERE NOT pos) AS n_neg,
                count(*) FILTER (WHERE pos) AS n_pos,
                count(*) FILTER (WHERE pos AND u NOT IN
                    (SELECT u FROM mk)) AS n_fp
                FROM cls)
            SELECT CAST((SELECT count(*) FROM mk) AS BIGINT)
                       AS n_members,
                   CAST((SELECT count(*) FROM mpos) AS BIGINT)
                       AS n_bits_set,
                   CAST(n_probes AS BIGINT) AS n_probes,
                   CAST(n_neg AS BIGINT) AS n_bloom_negative,
                   CAST(n_pos AS BIGINT) AS n_bloom_positive,
                   CAST(n_fp AS BIGINT) AS n_false_pos,
                   CAST(n_neg + n_fp AS BIGINT) AS anti_join_n
            FROM agg
        """,
        "dup_cluster_size_hist": """
            WITH RECURSIVE e AS (
              SELECT a.doc_id ua, b.doc_id ub FROM documents a
              JOIN documents b
                ON a.source = b.source AND a.lang = b.lang
               AND abs(a.n_chars - b.n_chars) <= 5
               AND a.doc_id < b.doc_id),
            sym AS (SELECT ua, ub FROM e UNION SELECT ub, ua FROM e),
            reach(x, y) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT r.x, s.ub FROM reach r JOIN sym s ON r.y = s.ua),
            comp AS (SELECT x AS doc_id, MIN(y) AS component
                     FROM reach GROUP BY x),
            sizes AS (SELECT component, count(*) AS sz FROM comp
                      GROUP BY component)
            SELECT CAST(sz AS BIGINT) AS cluster_size,
                   CAST(count(*) AS BIGINT) AS n_clusters
            FROM sizes GROUP BY sz
        """,
        "eta_squared_chars": """
            WITH g AS (SELECT COALESCE(lang, 'und') AS lang,
                              CAST(COUNT(*) AS HUGEINT) AS n,
                              CAST(SUM(COALESCE(n_chars, 0))
                                   AS HUGEINT) AS s1,
                              SUM(CAST(COALESCE(n_chars, 0) AS HUGEINT)
                                  * COALESCE(n_chars, 0)) AS s2
                       FROM documents GROUP BY 1),
            t AS (SELECT SUM(n) AS nn, SUM(s1) AS t1, SUM(s2) AS t2,
                         CAST(COUNT(*) AS HUGEINT) AS k,
                         SUM((s1 * s1 * 1000000) // n) AS sb
                  FROM g)
            SELECT CAST(nn AS BIGINT) AS n_rows,
                   CAST(k AS BIGINT) AS n_groups,
                   CAST(sb - (t1 * t1 * 1000000) // nn AS BIGINT)
                       AS ssb_micro,
                   CAST(t2 * 1000000 - (t1 * t1 * 1000000) // nn
                        AS BIGINT) AS sst_micro,
                   CAST(CASE WHEN t2 * 1000000
                                  - (t1*t1*1000000)//nn > 0
                                  AND sb - (t1*t1*1000000)//nn > 0
                        THEN ((sb - (t1*t1*1000000)//nn) * 1000000)
                             // (t2*1000000 - (t1*t1*1000000)//nn)
                        ELSE 0 END AS BIGINT) AS eta2_ppm
            FROM t
        """,
        "rank_biserial_chars": """
            WITH t AS (SELECT source, n_chars AS v FROM documents
                       WHERE source IN ('src0', 'src1')),
            r AS (SELECT source,
                         2 * rank() OVER (ORDER BY v)
                         + count(*) OVER (PARTITION BY v) - 1 AS dr
                  FROM t),
            agg AS (SELECT
                CAST(sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_a,
                CAST(sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_b,
                CAST(sum(CASE WHEN source = 'src0' THEN dr ELSE 0 END)
                     AS BIGINT) AS two_r_a
                FROM r),
            u AS (SELECT n_a, n_b,
                         CAST(two_r_a - n_a * (n_a + 1) AS BIGINT)
                             AS two_u_a
                  FROM agg)
            SELECT n_a, n_b, two_u_a,
                   CAST((n_a * n_b * 1000000 - two_u_a * 1000000)
                        // (n_a * n_b) AS BIGINT)
                       AS rank_biserial_ppm
            FROM u WHERE n_a > 0 AND n_b > 0
        """,
        "degree_assortativity": """
            WITH e AS (
              SELECT a.doc_id ua, b.doc_id ub FROM documents a
              JOIN documents b
                ON a.source = b.source AND a.lang = b.lang
               AND abs(a.n_chars - b.n_chars) <= 5
               AND a.doc_id < b.doc_id),
            sym AS (SELECT ua, ub FROM e UNION ALL
                    SELECT ub, ua FROM e),
            deg AS (SELECT ua AS x, CAST(count(*) AS HUGEINT) AS d
                    FROM sym GROUP BY ua),
            m AS (SELECT da.d AS dx, db.d AS dy
                  FROM sym s JOIN deg da ON s.ua = da.x
                             JOIN deg db ON s.ub = db.x),
            t AS (SELECT CAST(count(*) AS HUGEINT) n,
                         sum(dx) sx, sum(dy) sy, sum(dx * dx) sxx,
                         sum(dy * dy) syy, sum(dx * dy) sxy
                  FROM m)
            SELECT CAST(n AS BIGINT) AS n_directed,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) AS r
            FROM t
            WHERE n >= 2 AND n * sxx - sx * sx > 0
              AND n * syy - sy * sy > 0
        """,
        "char_bigram_entropy": """
            WITH d AS (SELECT COALESCE(source, '') AS g,
                              COALESCE(text, '') AS t
                       FROM documents),
            p AS (SELECT g, substr(t, i, 1) AS c1,
                         substr(t, i + 1, 1) AS c2
                  FROM d, LATERAL (
                      SELECT unnest(range(1, length(t))) AS i)
                  WHERE length(t) >= 2),
            pc AS (SELECT g, c1, c2, count(*) AS o
                   FROM p GROUP BY g, c1, c2),
            tt AS (SELECT g, sum(o) AS t FROM pc GROUP BY g),
            hp AS (SELECT pc.g,
                          CAST(sum(CAST(FLOOR(1000000
                              * (-(o * 1.0 / t) * ln(o * 1.0 / t)))
                              AS BIGINT)) AS BIGINT) AS h_pair_ppm
                   FROM pc JOIN tt USING (g) GROUP BY pc.g),
            lc AS (SELECT g, c1, sum(o) AS o FROM pc
                   GROUP BY g, c1),
            hl AS (SELECT lc.g,
                          CAST(sum(CAST(FLOOR(1000000
                              * (-(o * 1.0 / t) * ln(o * 1.0 / t)))
                              AS BIGINT)) AS BIGINT) AS h_left_ppm
                   FROM lc JOIN tt USING (g) GROUP BY lc.g)
            SELECT tt.g AS "group", CAST(tt.t AS BIGINT) AS n_pairs,
                   hp.h_pair_ppm, hl.h_left_ppm,
                   hp.h_pair_ppm - hl.h_left_ppm AS h_cond_ppm
            FROM tt JOIN hp USING (g) JOIN hl USING (g)
        """,
        "vocab_coverage_curve": """
            WITH w AS (SELECT unnest(list_filter(string_split(
                                  COALESCE(text, ''), ' '),
                                  x -> x <> '')) AS word
                       FROM documents),
            c AS (SELECT word, CAST(count(*) AS BIGINT) AS cnt
                  FROM w GROUP BY word),
            r AS (SELECT word, cnt,
                         row_number() OVER (ORDER BY cnt DESC, word)
                             AS rn
                  FROM c),
            t AS (SELECT CAST(sum(cnt) AS BIGINT) AS total FROM c),
            k AS (SELECT unnest([10, 20, 40, 80]) AS k)
            SELECT CAST(k.k AS BIGINT) AS k,
                   CAST(COALESCE(sum(r.cnt) FILTER (
                       WHERE r.rn <= k.k), 0) AS BIGINT)
                       AS covered_tokens,
                   CAST(min(t.total) AS BIGINT) AS total_tokens,
                   CAST(COALESCE(sum(r.cnt) FILTER (
                       WHERE r.rn <= k.k), 0) * 1000000
                        // min(t.total) AS BIGINT) AS covered_ppm
            FROM k, r, t GROUP BY k.k
        """,
        "mann_kendall_daily": """
            WITH d AS (SELECT CAST(ts AS DATE) AS day,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events WHERE ts IS NOT NULL
                       GROUP BY 1),
            p AS (SELECT CASE WHEN b.c > a.c THEN 1
                              WHEN b.c < a.c THEN -1 ELSE 0 END AS sg
                  FROM d a JOIN d b ON a.day < b.day)
            SELECT CAST((SELECT count(*) FROM d) AS BIGINT) AS n_days,
                   CAST(COALESCE(sum(sg), 0) AS BIGINT) AS s_stat,
                   CAST(count(*) FILTER (WHERE sg > 0) AS BIGINT)
                       AS n_concordant,
                   CAST(count(*) FILTER (WHERE sg < 0) AS BIGINT)
                       AS n_discordant
            FROM p
        """,
    }
