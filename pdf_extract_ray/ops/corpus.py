"""Corpus-level training-data operators over word-stream documents:
benchmark decontamination, Gopher-style repetition statistics, C4-style
first-occurrence span (chunk) dedup, and rarity-ranked term extraction.

These are the "beyond the reference" LLM-data operators (the reference,
jrmuizel/pdf-extract, stops at text extraction — lib.rs's public surface
ends at extract_text/print_metadata); everything here is downstream
corpus hygiene a crawl-scale training pipeline needs.

Shared kernel: every operator tokenizes by single-space split (the
synthetic documents table is a single-space word stream; swap the split
for a regex at ingestion time for real text) and works on uint64 word /
n-gram hashes (pd.util.hash_array — stable across processes, vectorized)
instead of strings, so shuffles carry 8-16 B per token group rather than
text.  String identity is preserved w.h.p. (64-bit collisions ~ n^2/2^64;
the DuckDB oracles compare against true string semantics and stay green).

Scale notes per operator:
- decontaminate: the benchmark/eval side is SMALL BY DEFINITION (an eval
  suite, not a second corpus) -> its distinct-gram set is collected once,
  np.unique'd and broadcast via ray.put; the train side never shuffles at
  all (membership is a map-side searchsorted).  If the "benchmark" were
  corpus-sized, use the chunk_dedup join shape instead.
- repetition_scores: pure map-side, zero shuffles — every statistic is
  per-document.
- chunk_dedup: one hash-keyed groupby over (chunk_hash, packed_position)
  16 B rows to elect first occurrences, one left_semi join to keep the
  winning chunk instances, one per-doc groupby to reconstruct text.  The
  explode is recomputed for the winner branch instead of materializing
  corpus text mid-pipeline (the winner branch projects to 16 B/chunk
  before its shuffle).
- tfidf_top_terms: document frequency is joined on term, NOT broadcast —
  a web corpus vocabulary is unbounded; per-doc tf is computed map-side
  (document rows are atomic), and the final per-doc top-1 uses the
  map-side-partial + tiny-groupby shape (ops/analytics.topk_per_group).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_GRAM_P = np.uint64(0x9E3779B97F4A7C15)

# packed chunk position = doc_id * _POS_BASE + chunk_idx: lexicographic
# (doc_id, idx) order == numeric order.  Assumes doc_id < 2**43 and at
# most _POS_BASE chunks per document (1M chunks x chunk_words words is a
# ~8M-word document — far beyond any web page).
_POS_BASE = 1 << 20


def _default_parts():
    """Join/groupby partition count: half the session CPUs (A/B at 32
    CPUs: 16 partitions beat 32 by ~2x — hash-join aggregator actors
    otherwise starve the map tasks), capped for the local sandbox.  On a
    real multi-node cluster size this to total cluster CPUs."""
    import ray
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(2, min(32, cpus // 2))


def _coalesce_nonempty(ds, num_partitions: int):
    """Repartition a MATERIALIZED aggregate output so no block is empty:
    a groupby with more partitions than distinct keys emits empty,
    schema-less blocks that crash a downstream join's key resolution
    (Ray 2.49; bench-reproduced with a 30-term vocab on 32 CPUs).
    Block count scales with rows (~64k rows/block, capped at
    num_partitions) so the guard costs one tiny shuffle, never a
    single-block bottleneck at corpus scale."""
    n = ds.count()
    return ds.repartition(max(1, min(num_partitions,
                                     (n + 65535) // 65536)))


def _word_hashes(texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each text on ' ' and hash every word -> (row_of, wh, counts):
    row index per word, uint64 word hashes, and words-per-row.  All
    pandas/numpy C paths — no per-row Python loop."""
    # null text == empty text (the COALESCE(text, '') policy: crawl
    # data carries nulls; every downstream stat then sees one "" word,
    # exactly like a present-but-empty document)
    s = pd.Series(texts, dtype=object).fillna("")
    sp = s.str.split(" ")
    counts = sp.str.len().fillna(0).to_numpy(np.int64)
    if counts.sum() == 0:
        return (np.empty(0, np.int64), np.empty(0, np.uint64), counts)
    flat = sp.explode().to_numpy(dtype=object)
    wh = pd.util.hash_array(flat).astype(np.uint64)
    row_of = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    return row_of, wh, counts


def _gram_hashes(row_of: np.ndarray, wh: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Word n-gram hashes that do not cross row boundaries ->
    (gram_row_of, gram_hashes).  Polynomial combine in uint64 wraparound
    arithmetic over a sliding window (ops/dedup._hashed_ngrams shape)."""
    if len(wh) < n:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(wh, n)
    p = int(_GRAM_P)
    pows = np.array([pow(p, n - 1 - j, 1 << 64) for j in range(n)],
                    np.uint64)
    gh = win @ pows  # uint64 matmul wraps mod 2**64 — intended
    grow = row_of[: len(wh) - n + 1]
    valid = grow == row_of[n - 1:]
    return grow[valid], gh[valid]


def _distinct_runs(row_of: np.ndarray, h: np.ndarray):
    """Sort (row, hash) pairs and collapse duplicates -> (run_rows,
    run_lengths): one entry per DISTINCT hash per row, with its
    multiplicity.  Grouped by row (rows ascending)."""
    if len(h) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.lexsort((h, row_of))
    hs, rs = h[order], row_of[order]
    new = np.empty(len(hs), bool)
    new[0] = True
    np.logical_or(hs[1:] != hs[:-1], rs[1:] != rs[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, len(hs)))
    return rs[starts], lengths.astype(np.int64)


# ---------------------------------------------------------------------------
# decontamination
# ---------------------------------------------------------------------------

def decontaminate(docs_ds, *, n: int = 5, bench_mod: int = 11,
                  id_col: str = "doc_id", text_col: str = "text",
                  with_totals: bool = False):
    """GPT-3-style benchmark decontamination: flag training documents
    sharing any word n-gram with the held-out benchmark slice
    (doc_id % bench_mod == 0) -> (doc_id, n_overlaps, contaminated),
    n_overlaps = DISTINCT overlapping n-grams.  Train docs with fewer
    than n words report 0.

    `with_totals=True` appends n_grams (the doc's DISTINCT gram count)
    so callers can apply fraction-based drop rules
    (release pipeline: drop iff 2*n_overlaps >= n_grams); the default
    output schema is unchanged (it is oracle-pinned).

    The benchmark gram set is collected + broadcast once (eval sets are
    small by definition); the train side is map-only."""
    import ray

    def bench_grams(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        mask = pa.array(ids % bench_mod == 0)
        texts = b.filter(mask).column(text_col).to_pylist()
        row_of, wh, _ = _word_hashes(texts)
        _, gh = _gram_hashes(row_of, wh, n)
        return pa.table({"g": pa.array(np.unique(gh).view(np.int64),
                                       pa.int64())})

    parts = [b.column("g").to_numpy(zero_copy_only=False)
             for b in docs_ds.map_batches(bench_grams,
                                          batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    bench = (np.unique(np.concatenate(parts)) if parts
             else np.empty(0, np.int64)).astype(np.uint64)
    bench_ref = ray.put(np.sort(bench.view(np.uint64)))

    def score(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % bench_mod != 0))
        texts = b.column(text_col).to_pylist()
        row_of, wh, _ = _word_hashes(texts)
        grow, gh = _gram_hashes(row_of, wh, n)
        # distinct grams per row, sorted for membership probing
        order = np.lexsort((gh, grow))
        hs, rs = gh[order], grow[order]
        if len(hs):
            keep = np.empty(len(hs), bool)
            keep[0] = True
            np.logical_or(hs[1:] != hs[:-1], rs[1:] != rs[:-1],
                          out=keep[1:])
            hs, rs = hs[keep], rs[keep]
        bench_arr = ray.get(bench_ref)
        if len(hs) and len(bench_arr):
            idx = np.searchsorted(bench_arr, hs)
            idx[idx == len(bench_arr)] = 0
            hit = bench_arr[idx] == hs
            n_over = np.bincount(rs[hit], minlength=b.num_rows) \
                .astype(np.int64)
        else:
            n_over = np.zeros(b.num_rows, np.int64)
        cols = {
            id_col: b.column(id_col),
            "n_overlaps": pa.array(n_over, pa.int64()),
            "contaminated": pa.array(n_over > 0, pa.bool_()),
        }
        if with_totals:
            n_grams = np.bincount(rs, minlength=b.num_rows) \
                .astype(np.int64) if len(hs) \
                else np.zeros(b.num_rows, np.int64)
            cols["n_grams"] = pa.array(n_grams, pa.int64())
        return pa.table(cols)

    return docs_ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# repetition statistics (Gopher-style quality signals)
# ---------------------------------------------------------------------------

def repetition_scores(docs_ds, *, n: int = 2,
                      id_col: str = "doc_id", text_col: str = "text"):
    """Per-document repetition statistics (Gopher repetition-filter
    family, adapted to word streams): word and n-gram duplication counts
    plus the most-frequent-n-gram multiplicity -> (doc_id, n_words,
    n_distinct_words, n_2grams, n_distinct_2grams, top_2gram_count).
    Pure map-side — every statistic is per-row."""

    def stats(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        nrows = b.num_rows
        row_of, wh, counts = _word_hashes(texts)
        w_rows, _ = _distinct_runs(row_of, wh)
        n_dw = np.bincount(w_rows, minlength=nrows).astype(np.int64)

        grow, gh = _gram_hashes(row_of, wh, n)
        n_g = np.bincount(grow, minlength=nrows).astype(np.int64) \
            if len(grow) else np.zeros(nrows, np.int64)
        run_rows, run_len = _distinct_runs(grow, gh)
        n_dg = np.bincount(run_rows, minlength=nrows).astype(np.int64)
        top = np.zeros(nrows, np.int64)
        if len(run_rows):
            first = np.flatnonzero(np.r_[True,
                                         run_rows[1:] != run_rows[:-1]])
            top[run_rows[first]] = np.maximum.reduceat(run_len, first)
        return pa.table({
            id_col: b.column(id_col),
            "n_words": pa.array(counts, pa.int64()),
            "n_distinct_words": pa.array(n_dw, pa.int64()),
            "n_2grams": pa.array(n_g, pa.int64()),
            "n_distinct_2grams": pa.array(n_dg, pa.int64()),
            "top_2gram_count": pa.array(top, pa.int64()),
        })

    return docs_ds.map_batches(stats, batch_format="pyarrow")


def gopher_filter(docs_ds, *, min_words: int = 15, max_words: int = 90,
                  max_dup_2gram_frac: float = 0.06,
                  max_top_2gram_frac: float = 0.06,
                  id_col: str = "doc_id", text_col: str = "text"):
    """Composite Gopher-style quality gate: keep documents whose word
    count is within [min_words, max_words] and whose 2-gram duplication
    and top-2-gram-dominance fractions stay under the thresholds ->
    (doc_id, n_words, dup_2gram_frac, top_2gram_frac) for survivors.

    Composes repetition_scores (still one map-side pass, zero shuffles).
    Fractions are IEEE-exact (one int64->float64 division + subtraction,
    mirrored in the SQL oracle), so the gate is bit-deterministic."""
    stats = repetition_scores(docs_ds, id_col=id_col, text_col=text_col)

    def gate(b: pa.Table) -> pa.Table:
        nw = b.column("n_words").to_numpy(zero_copy_only=False)
        n2 = b.column("n_2grams").to_numpy(zero_copy_only=False)
        nd2 = b.column("n_distinct_2grams").to_numpy(zero_copy_only=False)
        top = b.column("top_2gram_count").to_numpy(zero_copy_only=False)
        n2f = n2.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            dup = np.where(n2 > 0, 1.0 - nd2 / n2f, 0.0)
            topf = np.where(n2 > 0, top / n2f, 0.0)
        keep = ((nw >= min_words) & (nw <= max_words)
                & (dup <= max_dup_2gram_frac)
                & (topf <= max_top_2gram_frac))
        return pa.table({
            id_col: b.column(id_col).filter(pa.array(keep)),
            "n_words": pa.array(nw[keep], pa.int64()),
            "dup_2gram_frac": pa.array(dup[keep], pa.float64()),
            "top_2gram_frac": pa.array(topf[keep], pa.float64()),
        })

    return stats.map_batches(gate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# C4-style first-occurrence chunk dedup
# ---------------------------------------------------------------------------

def chunk_dedup(docs_ds, *, chunk_words: int = 8, num_partitions=None,
                id_col: str = "doc_id", text_col: str = "text"):
    """Split every document into consecutive chunk_words-word spans, keep
    each distinct span's FIRST occurrence (lexicographic (doc_id, idx)),
    and rebuild documents from their surviving spans -> (doc_id, text,
    n_chunks_kept).  Documents whose every span occurred earlier vanish
    (the C4 duplicated-span rule at chunk granularity).

    Shape (round-3 rewrite; the former elect-then-left_semi-join plan
    cost three exchanges plus join actors and re-ran the explode for
    each lazy consumer — A/B at sf0.1, 32 CPUs: ~22 s -> ~3.5 s,
    byte-identical output): explode once -> ONE hash shuffle partitioned
    by chunk hash, where each partition keeps the rows equal to their
    group's min packed position (election and filtering fused, no join)
    -> one doc_id-partitioned pass rebuilds text.  Deterministic
    regardless of block order (min over a commutative key)."""
    if num_partitions is None:
        num_partitions = _default_parts()

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        texts = b.column(text_col).to_pylist()
        out_id, out_idx, out_chunk = [], [], []
        for did, t in zip(ids, texts):
            words = (t or "").split(" ")
            for j in range(0, len(words), chunk_words):
                out_id.append(did)
                out_idx.append(j // chunk_words)
                out_chunk.append(" ".join(words[j:j + chunk_words]))
        h = pd.util.hash_array(np.asarray(out_chunk, object)) \
            .astype(np.uint64).view(np.int64)
        ids_a = np.asarray(out_id, np.int64)
        idx_a = np.asarray(out_idx, np.int64)
        return pa.table({
            id_col: pa.array(ids_a, pa.int64()),
            "idx": pa.array(idx_a, pa.int64()),
            "packed": pa.array(ids_a * _POS_BASE + idx_a, pa.int64()),
            "h": pa.array(h, pa.int64()),
            "chunk": pa.array(out_chunk, pa.string()),
        })

    exploded = docs_ds.map_batches(explode, batch_format="pyarrow")

    from .dedup import _grouped_by_partition

    def keep_winners(df: pd.DataFrame) -> pd.DataFrame:
        # all instances of a chunk hash co-locate; keep exactly the rows
        # that ARE their group's minimum packed position (first
        # occurrence), fusing election and semi-join filtering
        if len(df) == 0:
            return df
        mn = df.groupby("h", sort=False)["packed"].transform("min")
        return df[df["packed"] == mn]

    kept = _grouped_by_partition(exploded, ["h"], keep_winners,
                                 n_parts=num_partitions)

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized multi-group rebuild (one partition holds all of a
        # doc's surviving chunks)
        if len(df) == 0:
            return pd.DataFrame({
                id_col: pd.Series([], dtype=np.int64),
                "text": pd.Series([], dtype=object),
                "n_chunks_kept": pd.Series([], dtype=np.int64)})
        df = df.sort_values([id_col, "idx"])
        g = df.groupby(id_col, sort=False)
        texts = g["chunk"].agg(" ".join)
        n = g.size()
        return pd.DataFrame({
            id_col: texts.index.to_numpy(np.int64),
            "text": texts.to_numpy(object),
            "n_chunks_kept": n.to_numpy(np.int64)})

    return _grouped_by_partition(kept, [id_col], rebuild,
                                 n_parts=num_partitions)


# ---------------------------------------------------------------------------
# rarity-ranked term extraction (tf-idf family)
# ---------------------------------------------------------------------------

def tfidf_top_terms(docs_ds, *, num_partitions=None,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Most corpus-distinctive term per document -> (doc_id, term, tf,
    df), ranked by tf/df descending (term ascending tie-break).

    tf/df replaces tf*log(N/df) deliberately: the ordering statistic must
    be bit-identical between numpy and the DuckDB oracle, and IEEE
    division is exactly reproducible where libm log is not; the ranking
    it induces is the same rarity ordering for fixed tf.

    df comes from a term-keyed groupby and is JOINED back on term when
    the vocabulary is big (a web vocabulary is unbounded); vocabularies
    up to ~200k terms instead ride the task closure as a map-side df
    lookup (the verify_pairs_jaccard bounded-broadcast pattern — saves
    the join's fixed all-to-all cost).  tf is map-side because document
    rows are atomic."""
    if num_partitions is None:
        num_partitions = _default_parts()

    def term_freqs(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            id_col: b.column(id_col).to_numpy(zero_copy_only=False),
            "term": b.column(text_col).to_pandas().str.split(" "),
        }).explode("term")
        tf = df.groupby([id_col, "term"], sort=False).size() \
            .reset_index(name="tf")
        return pa.table({
            id_col: pa.array(tf[id_col].to_numpy(np.int64), pa.int64()),
            "term": pa.array(tf["term"], pa.string()),
            "tf": pa.array(tf["tf"].to_numpy(np.int64), pa.int64()),
        })

    # materialize: tf feeds BOTH the df aggregate and the score stage
    # (lazy would re-explode the corpus twice)
    tf_ds = docs_ds.map_batches(term_freqs,
                                batch_format="pyarrow").materialize()

    # (doc, term) rows are already distinct -> df = row count per term,
    # PRE-COMBINED per batch so the groupby shuffle carries O(terms x
    # blocks) partial counts, never one row per (doc, term);
    # materialize sequences the shuffle before the join
    def df_partial(b: pa.Table) -> pa.Table:
        g = pd.DataFrame({"term": b.column("term").to_pandas()}) \
            .groupby("term", sort=False).size().reset_index(name="k")
        return pa.table({"term": pa.array(g["term"], pa.string()),
                         "k": pa.array(g["k"].to_numpy(np.int64))})

    from ray.data.aggregate import Sum as _Sum
    df_ds = tf_ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(_Sum("k"))
    df_ds = df_ds.map_batches(
        lambda b: pa.table({"term": b.column("term"),
                            "df": pc.cast(b.column("sum(k)"),
                                          pa.int64())}),
        batch_format="pyarrow").materialize()

    if df_ds.count() <= 200_000:
        dfmap = {r["term"]: r["df"] for r in df_ds.take_all()}

        def attach(b: pa.Table) -> pa.Table:
            t = b.to_pandas()
            t["df"] = t["term"].map(dfmap).astype(np.int64)
            return pa.Table.from_pandas(t, preserve_index=False)

        joined = tf_ds.map_batches(attach, batch_format="pyarrow")
    else:
        df_ds = _coalesce_nonempty(df_ds, num_partitions)
        joined = tf_ds.join(df_ds, join_type="inner",
                            num_partitions=num_partitions, on=("term",))

    def partial_best(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["score"] = df["tf"].to_numpy(np.float64) / df["df"].to_numpy(
            np.float64)
        df = df.sort_values([id_col, "score", "term"],
                            ascending=[True, False, True])
        out = df.groupby(id_col, sort=False).head(1)
        return pa.Table.from_pandas(
            out[[id_col, "term", "tf", "df", "score"]],
            preserve_index=False)

    cands = joined.map_batches(partial_best, batch_format="pyarrow")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["score", "term"], ascending=[False, True])
        return df.head(1)[[id_col, "term", "tf", "df"]]

    return cands.groupby(id_col).map_groups(final, batch_format="pandas")


def fuzzy_decontaminate(docs_ds, *, n: int = 5, bench_mod: int = 11,
                        threshold_pct: int = 50,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Fuzzy benchmark decontamination: flag training documents whose
    word-n-gram JACCARD similarity against ANY individual benchmark doc
    (doc_id % bench_mod == 0) reaches threshold_pct/100
    -> (doc_id, n_contaminating, contaminated).

    Unlike `decontaminate` (any single shared gram), this is the
    near-duplicate eval-overlap test training pipelines actually want —
    exact per-(train, bench)-pair Jaccard, not MinHash.  Shape: the
    bench side collects (gram_hash, bench_id) pairs + per-bench gram
    counts ONCE and broadcasts (eval sets are small by definition); the
    train side is map-only — per batch, distinct gram hashes merge
    against the broadcast postings, one grouped size() gives shared
    counts per pair, and the inclusion test is the integer
    cross-multiplication  100*shared >= pct*(na + nb - shared)  so no
    float ratio can flip a row at the boundary."""
    import ray

    def bench_pairs(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        mask = ids % bench_mod == 0
        bids = ids[mask]
        texts = b.filter(pa.array(mask)).column(text_col).to_pylist()
        row_of, wh, _ = _word_hashes(texts)
        grow, gh = _gram_hashes(row_of, wh, n)
        if len(gh) == 0:
            return pa.table({"g": pa.array([], pa.int64()),
                             "bid": pa.array([], pa.int64())})
        order = np.lexsort((gh, grow))
        hs, rs = gh[order], grow[order]
        keep = np.empty(len(hs), bool)
        keep[0] = True
        np.logical_or(hs[1:] != hs[:-1], rs[1:] != rs[:-1], out=keep[1:])
        return pa.table({"g": pa.array(hs[keep].view(np.int64)),
                         "bid": pa.array(bids[rs[keep]].astype(np.int64))})

    parts = [b.to_pandas() for b in docs_ds
             .map_batches(bench_pairs, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    bench = (pd.concat(parts, ignore_index=True) if parts
             else pd.DataFrame({"g": pd.Series([], dtype=np.int64),
                                "bid": pd.Series([], dtype=np.int64)}))
    nb = bench.groupby("bid", sort=False).size()
    bench_sizes = dict(zip(nb.index.to_numpy(np.int64),
                           nb.to_numpy(np.int64)))
    bench_ref = ray.put(bench)
    sizes_ref = ray.put(bench_sizes)

    def score(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % bench_mod != 0))
        ids = b.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out_n = np.zeros(len(ids), np.int64)
        texts = b.column(text_col).to_pylist()
        row_of, wh, _ = _word_hashes(texts)
        grow, gh = _gram_hashes(row_of, wh, n)
        if len(gh):
            order = np.lexsort((gh, grow))
            hs, rs = gh[order], grow[order]
            keep = np.empty(len(hs), bool)
            keep[0] = True
            np.logical_or(hs[1:] != hs[:-1], rs[1:] != rs[:-1],
                          out=keep[1:])
            hs, rs = hs[keep], rs[keep]
            na = np.bincount(rs, minlength=len(ids)).astype(np.int64)
            bdf = ray.get(bench_ref)
            sizes = ray.get(sizes_ref)
            m = pd.DataFrame({"g": hs.view(np.int64), "row": rs}) \
                .merge(bdf, on="g", how="inner")
            if len(m):
                shared = m.groupby(["row", "bid"], sort=False).size()
                pr = shared.index.get_level_values(0).to_numpy(np.int64)
                pb = shared.index.get_level_values(1).to_numpy(np.int64)
                s = shared.to_numpy(np.int64)
                nbv = np.array([sizes[x] for x in pb], np.int64)
                hit = 100 * s >= threshold_pct * (na[pr] + nbv - s)
                out_n += np.bincount(pr[hit], minlength=len(ids)) \
                    .astype(np.int64)
        return pa.table({
            id_col: pa.array(ids),
            "n_contaminating": pa.array(out_n),
            "contaminated": pa.array(out_n > 0)})

    return docs_ds.map_batches(score, batch_format="pyarrow")


def pack_sequences(ds, *, max_tokens: int = 512, n_parts: int = 32):
    """Greedy sequence packing for LM training: concatenate documents
    into fixed-budget training rows -> (seq_id, text, n_docs,
    n_tokens).

    Docs are hash-partitioned by doc_id and packed in doc_id order
    within each partition, so the output is DETERMINISTIC regardless
    of block arrival order (re-runs and resumes produce identical
    sequences).  Unlike the aggregate ops, packing is
    LAYOUT-DEPENDENT by nature (which docs share a sequence depends on
    which partition they land in), so this op always takes the
    explicit hash-partition path — never the adaptive single-task
    fast path — keeping output a pure function of (doc_ids, n_parts).
    A document longer than `max_tokens` gets its own sequence — never
    split, never dropped.  seq_id is the first member's doc_id (unique
    because membership is a partition of the corpus).  The greedy scan
    is a per-partition O(docs) loop over an int array; join/concat
    stay vectorized."""
    cap = int(max_tokens)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"seq_id": "int64", "text": "object", "n_docs": "int64",
                "n_tokens": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"seq_id": "int64", "n_docs": "int64",
                 "n_tokens": "int64"})
        df = df.sort_values("doc_id")
        texts = df["text"].astype(str)
        ntok = texts.str.count(" ").to_numpy(np.int64) + 1
        ntok[texts.str.len().to_numpy(np.int64) == 0] = 0
        ids = df["doc_id"].to_numpy(np.int64)
        # greedy bin assignment (sequential by construction)
        bins = np.empty(len(df), np.int64)
        b = -1
        run = cap + 1  # force a new bin at the first doc
        for i, t in enumerate(ntok):
            if run + t > cap and run > 0:
                b += 1
                run = 0
            bins[i] = b
            run += t
        starts = np.flatnonzero(np.diff(bins, prepend=-1))
        seq_ids = ids[starts]
        tx = texts.to_numpy()
        out_text = ["\n\n".join(tx[s:e]) for s, e in
                    zip(starts, np.append(starts[1:], len(df)))]
        g = pd.DataFrame({"bins": bins, "ntok": ntok}) \
            .groupby("bins", sort=True).agg(n_docs=("ntok", "size"),
                                            n_tokens=("ntok", "sum"))
        return pd.DataFrame({
            "seq_id": seq_ids,
            "text": out_text,
            "n_docs": g["n_docs"].to_numpy(np.int64),
            "n_tokens": g["n_tokens"].to_numpy(np.int64)})

    def add_part(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pandas()
        h = pd.util.hash_array(np.asarray(ids)).astype(np.uint64)
        return batch.append_column("_part", pa.array(
            (h % np.uint64(n_parts)).astype(np.int64), pa.int64()))

    withpart = ds.map_batches(add_part, batch_format="pyarrow")
    return withpart.groupby("_part").map_groups(
        lambda df: per_partition(df.drop(columns=["_part"])),
        batch_format="pandas")


# ---------------------------------------------------------------------------
# BM25 relevance ranking (log-free exact-ordering variant)
# ---------------------------------------------------------------------------

def bm25_top_docs(docs_ds, *, k: int = 3, num_partitions=None,
                  id_col: str = "doc_id", text_col: str = "text"):
    """Top-k most BM25-relevant documents per corpus term
    -> (term, doc_id, tf, df, dl, rank).

    With Robertson's k1=1.2, b=3/4 and a log-free rational idf
    ((N-df+.5)/(df+.5), positive for every df<=N), BM25's WITHIN-TERM
    ordering collapses algebraically to the single per-doc key
        (W + 3*N*dl) / tf   ascending
    (W = corpus words, N = docs, dl = doc words, tf = term count):
    score1 > score2  <=>  tf1*(W+3N*dl2) > tf2*(W+3N*dl1), divide by
    tf1*tf2.  The key's numerator is an exact small integer, so the
    IEEE division — and therefore the rank — is bit-identical between
    numpy and the DuckDB oracle; no float score is ever emitted and
    doc_id breaks exact-key ties.

    Shape mirrors tfidf_top_terms: map-side (tf, dl) explode (document
    rows are atomic), tiny driver-merged (N, W) scalar partials, df
    joined on term (bounded-broadcast fast path under 200k terms),
    per-batch partial top-k per term, final per-term merge over <=
    batches*k candidate rows."""
    import ray  # noqa: F401  (Dataset ops only)

    if num_partitions is None:
        num_partitions = _default_parts()

    def term_freqs(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas()
        words = texts.str.split(" ")
        dl_per_doc = words.str.len().to_numpy(np.int64)
        df = pd.DataFrame({
            id_col: b.column(id_col).to_numpy(zero_copy_only=False),
            "dl": dl_per_doc,
            "term": words,
        }).explode("term")
        tf = df.groupby([id_col, "dl", "term"], sort=False).size() \
            .reset_index(name="tf")
        return pa.table({
            id_col: pa.array(tf[id_col].to_numpy(np.int64), pa.int64()),
            "term": pa.array(tf["term"], pa.string()),
            "tf": pa.array(tf["tf"].to_numpy(np.int64), pa.int64()),
            "dl": pa.array(tf["dl"].to_numpy(np.int64), pa.int64()),
        })

    # materialize: tf feeds the (N, W) scalars, the df aggregate AND the
    # score stage (lazy would re-explode the corpus three times)
    tf_ds = docs_ds.map_batches(term_freqs,
                                batch_format="pyarrow").materialize()

    def nw_partial(b: pa.Table) -> pa.Table:
        # (doc, term) rows carry dl per row; one row per doc per batch
        # suffices for the scalars (docs are atomic per batch)
        d = pd.DataFrame({
            id_col: b.column(id_col).to_numpy(zero_copy_only=False),
            "dl": b.column("dl").to_numpy(zero_copy_only=False),
        }).drop_duplicates(id_col)
        return pa.table({
            "n": pa.array([len(d)], pa.int64()),
            "w": pa.array([int(d["dl"].sum())], pa.int64())})

    n_docs, w_total = 0, 0
    for r in tf_ds.map_batches(nw_partial,
                               batch_format="pyarrow").take_all():
        n_docs += r["n"]
        w_total += r["w"]
    if n_docs == 0:
        return ray.data.from_arrow(pa.table({
            "term": pa.array([], pa.string()),
            id_col: pa.array([], pa.int64()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "dl": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))

    def df_partial(b: pa.Table) -> pa.Table:
        # distinct (doc, term) rows -> per-batch partial df counts; the
        # shuffle carries O(terms x blocks) rows, never (doc, term)
        g = pd.DataFrame({"term": b.column("term").to_pandas()}) \
            .groupby("term", sort=False).size().reset_index(name="k")
        return pa.table({"term": pa.array(g["term"], pa.string()),
                         "k": pa.array(g["k"].to_numpy(np.int64))})

    from ray.data.aggregate import Sum as _Sum
    df_ds = tf_ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(_Sum("k"))
    df_ds = df_ds.map_batches(
        lambda b: pa.table({"term": b.column("term"),
                            "df": pc.cast(b.column("sum(k)"),
                                          pa.int64())}),
        batch_format="pyarrow").materialize()

    if df_ds.count() <= 200_000:
        dfmap = {r["term"]: r["df"] for r in df_ds.take_all()}

        def attach(b: pa.Table) -> pa.Table:
            t = b.to_pandas()
            t["df"] = t["term"].map(dfmap).astype(np.int64)
            return pa.Table.from_pandas(t, preserve_index=False)

        joined = tf_ds.map_batches(attach, batch_format="pyarrow")
    else:
        df_ds = _coalesce_nonempty(df_ds, num_partitions)
        joined = tf_ds.join(df_ds, join_type="inner",
                            num_partitions=num_partitions, on=("term",))

    def partial_best(b: pa.Table) -> pa.Table:
        t = b.to_pandas()
        # exact integer numerator (< 2^53 by construction), one IEEE
        # division -> the bit-identical within-term BM25 ordering key
        t["key"] = (w_total + 3 * n_docs * t["dl"].to_numpy(np.int64)) \
            .astype(np.float64) / t["tf"].to_numpy(np.float64)
        t = t.sort_values(["term", "key", id_col],
                          ascending=[True, True, True])
        out = t.groupby("term", sort=False).head(k)
        return pa.Table.from_pandas(
            out[["term", id_col, "tf", "df", "dl", "key"]],
            preserve_index=False)

    cands = joined.map_batches(partial_best, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", id_col]).head(k)
        g = g.drop(columns=["key"]).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return cands.groupby("term").map_groups(final, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact duplicated-span statistics (substring-dedup signal, Lee et al. 2022)
# ---------------------------------------------------------------------------

def dup_span_stats(docs_ds, *, n: int = 5,
                   id_col: str = "doc_id", text_col: str = "text"):
    """Exact duplicated-substring signal per document: of a doc's word
    n-gram POSITIONS, how many carry a gram that occurs more than once
    anywhere in the corpus (including within the same doc)
    -> (doc_id, n_grams, n_dup_grams).  Docs shorter than n words have
    no gram positions and emit no row (matching the SQL oracle).

    This is the per-doc statistic behind suffix-style exact substring
    dedup ("Deduplicating Training Data Makes Language Models Better",
    Lee et al. 2022): a high n_dup_grams/n_grams ratio marks template/
    mirror text for span removal.

    Shape: ONE gram-hash shuffle, zero joins.  The map side emits
    (gram_hash, doc_id, k) with within-batch combine; each hash
    partition then holds EVERY occurrence of its grams, so duplicate
    flags resolve locally and collapse to one (doc, n_grams, n_dup)
    partial per doc per partition before a trivially small final doc
    groupby.  Gram identity is the shared uint64 polynomial kernel
    (collision odds ~(corpus grams)^2 / 2^64)."""

    def gram_doc_counts(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        texts = b.column(text_col).to_pylist()
        row_of, wh, _ = _word_hashes(texts)
        grow, gh = _gram_hashes(row_of, wh, n)
        if len(gh) == 0:
            return pa.table({
                "gh": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "k": pa.array([], pa.int64())})
        t = pd.DataFrame({"gh": gh.view(np.int64),
                          id_col: ids[grow].astype(np.int64)})
        g = t.groupby(["gh", id_col], sort=False).size() \
            .reset_index(name="k")
        return pa.table({
            "gh": pa.array(g["gh"].to_numpy(np.int64)),
            id_col: pa.array(g[id_col].to_numpy(np.int64)),
            "k": pa.array(g["k"].to_numpy(np.int64))})

    pairs = docs_ds.map_batches(gram_doc_counts, batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: "int64", "n_grams": "int64",
                "n_dup_grams": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        total = df.groupby("gh")["k"].transform("sum")
        dup_k = np.where(total.to_numpy() > 1,
                         df["k"].to_numpy(np.int64), 0)
        out = pd.DataFrame({id_col: df[id_col].to_numpy(np.int64),
                            "n_grams": df["k"].to_numpy(np.int64),
                            "n_dup_grams": dup_k})
        out = out.groupby(id_col, sort=False, as_index=False).sum()
        return out.astype(cols)

    from .dedup import _grouped_by_partition
    partials = _grouped_by_partition(pairs, ["gh"], per_partition)

    # final per-doc merge: partials carry at most one row per doc per
    # gh-partition, so this input is tiny relative to the corpus — the
    # adaptive helper resolves it in one task when small and falls back
    # to the same hash-partitioned shuffle at scale.  (A Ray-native
    # groupby().aggregate() here costs ~20 s of aggregate-actor fixed
    # cost on a small session for a 5k-row input — bench-measured.)
    def merge_docs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: "int64", "n_grams": "int64",
                "n_dup_grams": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        out = df.groupby(id_col, sort=False, as_index=False)[
            ["n_grams", "n_dup_grams"]].sum()
        return out.astype(cols)

    return _grouped_by_partition(partials, [id_col], merge_docs)


def training_shards(ds, *, id_col: str = "doc_id", n_shards: int = 16):
    """Deterministic global shuffle into training shards -> (doc_id,
    shard, pos): shard = md5(id) high-32 mod n_shards, pos = the row's
    1-based rank within its shard by (md5 hex, id).

    This is the "write the training mix" primitive: a seeded
    pseudo-random permutation that is reproducible shard-independently
    (any worker can recompute any row's placement from the id alone —
    no global sort, no RNG state).  The only exchange is ONE
    shard-keyed partition pass; within a partition one vectorized
    argsort ranks the shard.  Scale note: n_shards is chosen so a
    shard fits a worker (at 100 TB that means n_shards ~ corpus /
    target_shard_bytes, e.g. 25k shards of 4 GB) — the per-shard rank
    is then bounded by design, and the output maps 1:1 onto
    partitioned parquet files for resumable writes."""
    import hashlib

    from .dedup import _grouped_by_partition

    def hash_batch(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_pylist()
        hx = [hashlib.md5(str(i).encode("ascii")).hexdigest()
              for i in ids]
        shard = np.array([int(h[:8], 16) % n_shards for h in hx],
                         np.int64)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "shard": pa.array(shard, pa.int64()),
            "hx": pa.array(hx, pa.string())})

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        # one partition may hold SEVERAL shards: one lexsort by
        # (shard, hx, id), then per-shard positions via run offsets —
        # no per-shard loop
        cols = {id_col: "int64", "shard": "int64", "pos": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        order = np.lexsort((df[id_col].to_numpy(np.int64),
                            df["hx"].to_numpy(object),
                            df["shard"].to_numpy(np.int64)))
        out = df.iloc[order]
        shard = out["shard"].to_numpy(np.int64)
        n = len(out)
        new_run = np.r_[True, shard[1:] != shard[:-1]]
        starts = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run) - 1
        pos = np.arange(n, dtype=np.int64) - starts[run_id] + 1
        return pd.DataFrame({
            id_col: out[id_col].to_numpy(np.int64),
            "shard": shard,
            "pos": pos})

    hashed = ds.map_batches(hash_batch, batch_format="pyarrow")
    return _grouped_by_partition(hashed, ["shard"], rank,
                                 n_parts=min(n_shards, _default_parts()))


# ---------------------------------------------------------------------------
# cross-source overlap / contamination matrix
# ---------------------------------------------------------------------------


def _pair_partials(ds, gram_rows_fn, n_parts: int):
    """Shared shape for source-pair co-occurrence counting: map docs ->
    batch-distinct (gh, source) rows, ONE gram-hash-keyed partition
    pass that (a) exactly dedups (gh, source), (b) counts per-source
    distinct grams, (c) self-joins within the partition to count pairs.
    Every gram hash lives in exactly one partition, so per-partition
    partials sum to exact global counts.  Returns the partial rows
    Dataset with columns (source_a, source_b, n): diagonal rows
    (s, s, n) carry per-source distinct totals, off-diagonal rows
    (a < b) carry intersection counts.

    Scale: the shuffle carries 8 B hashes + a dictionary-encodable
    source string per distinct (gram, source); the self-join inside a
    partition emits k^2 rows per gram where k = #sources containing
    the gram (k is bounded by the source-dimension cardinality —
    crawls/snapshots/shards, not documents — and in real corpora most
    grams live in 1-2 sources).  The partial output is bounded by
    n_parts * n_sources^2 rows, so the final sum is a tiny exchange."""
    from .dedup import _grouped_by_partition

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"source_a": "object", "source_b": "object", "n": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {"n": "int64"})
        df = df.drop_duplicates(["gh", "source"])
        diag = df.groupby("source", sort=False).size()
        m = df.merge(df, on="gh")
        m = m[m["source_x"] < m["source_y"]]
        inter = m.groupby(["source_x", "source_y"], sort=False).size()
        out = {
            "source_a": list(diag.index) + [a for a, _ in inter.index],
            "source_b": list(diag.index) + [b for _, b in inter.index],
            "n": np.concatenate([diag.to_numpy(np.int64),
                                 inter.to_numpy(np.int64)])
            if len(inter) or len(diag) else np.empty(0, np.int64),
        }
        return pd.DataFrame(out)

    gram_rows = ds.map_batches(gram_rows_fn, batch_format="pyarrow")
    return _grouped_by_partition(gram_rows, ["gh"], pairs,
                                 n_parts=n_parts)


def _sum_pair_partials(partials_ds) -> pd.DataFrame:
    """Driver-side exact sum of the bounded pair partials (<= n_parts *
    n_sources^2 rows — an aggregate result, not corpus data)."""
    df = partials_ds.to_pandas()
    if len(df) == 0:
        return pd.DataFrame({"source_a": pd.Series(dtype=object),
                             "source_b": pd.Series(dtype=object),
                             "n": pd.Series(dtype=np.int64)})
    return (df.groupby(["source_a", "source_b"], sort=True, as_index=False)
              .agg(n=("n", "sum")))


def cross_source_overlap(docs_ds, *, n: int = 8, num_partitions=None):
    """Cross-source contamination matrix: for every pair of sources,
    the number of DISTINCT word n-grams (default 8 — chunk_dedup's
    span size) that appear in BOTH -> (source_a, source_b,
    shared_ngrams), source_a < source_b, zero-overlap pairs omitted.

    This is the "did snapshot A leak into snapshot B" primitive of a
    crawl pipeline; exact-duplicate sharing is its degenerate form
    (the synthetic corpus has no full-text cross-source dups, but
    1125 shared 8-gram spans at sf0.01).  One map pass + one
    hash-partitioned exchange of distinct (gram-hash, source) rows;
    pair counting is a vectorized within-partition self-join (see
    _pair_partials)."""
    parts = num_partitions or _default_parts()

    def grams(b: pa.Table) -> pa.Table:
        row_of, wh, _ = _word_hashes(b.column("text").to_pylist())
        grow, gh = _gram_hashes(row_of, wh, n)
        if len(gh) == 0:
            return pa.table({"gh": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        src = b.column("source").to_pandas().to_numpy(object)
        df = pd.DataFrame({"gh": gh.view(np.int64),
                           "source": src[grow]}).drop_duplicates()
        return pa.table({"gh": pa.array(df["gh"].to_numpy(np.int64)),
                         "source": pa.array(df["source"], pa.string())})

    partials = _pair_partials(docs_ds, grams, parts)
    tot = _sum_pair_partials(partials)
    tot = tot[tot["source_a"] < tot["source_b"]]
    return pa.table({
        "source_a": pa.array(tot["source_a"], pa.string()),
        "source_b": pa.array(tot["source_b"], pa.string()),
        "shared_ngrams": pa.array(tot["n"].to_numpy(np.int64))})


def vocab_jaccard(docs_ds, *, num_partitions=None):
    """Vocabulary similarity between every pair of sources ->
    (source_a, source_b, inter_words, union_words, jaccard), a < b,
    pairs with empty intersection omitted.

    Distinct-word sets per source are never materialized anywhere:
    the same one-exchange _pair_partials pass yields per-source
    distinct counts (diagonal) and pairwise intersections
    (off-diagonal); union = |A| + |B| - |A∩B| by
    inclusion-exclusion, so jaccard is one float division of exact
    integers (bit-identical to the SQL oracle's)."""
    parts = num_partitions or _default_parts()

    def words(b: pa.Table) -> pa.Table:
        row_of, wh, _ = _word_hashes(b.column("text").to_pylist())
        if len(wh) == 0:
            return pa.table({"gh": pa.array([], pa.int64()),
                             "source": pa.array([], pa.string())})
        src = b.column("source").to_pandas().to_numpy(object)
        df = pd.DataFrame({"gh": wh.view(np.int64),
                           "source": src[row_of]}).drop_duplicates()
        return pa.table({"gh": pa.array(df["gh"].to_numpy(np.int64)),
                         "source": pa.array(df["source"], pa.string())})

    partials = _pair_partials(docs_ds, words, parts)
    tot = _sum_pair_partials(partials)
    diag = (tot[tot["source_a"] == tot["source_b"]]
            .set_index("source_a")["n"])
    pairs = tot[tot["source_a"] < tot["source_b"]]
    inter = pairs["n"].to_numpy(np.int64)
    ca = diag.reindex(pairs["source_a"]).to_numpy(np.int64)
    cb = diag.reindex(pairs["source_b"]).to_numpy(np.int64)
    union = ca + cb - inter
    return pa.table({
        "source_a": pa.array(pairs["source_a"], pa.string()),
        "source_b": pa.array(pairs["source_b"], pa.string()),
        "inter_words": pa.array(inter),
        "union_words": pa.array(union),
        "jaccard": pa.array(inter.astype(np.float64)
                            / union.astype(np.float64))})


def gram_edit_pairs(docs_ds, *, n: int = 4, text_col: str = "text",
                    n_parts=None):
    """Edit-distance-1 pairs over the corpus's distinct character
    n-grams (SymSpell-style deletion neighbourhoods) ->
    (gram_a, gram_b), gram_a < gram_b.

    For FIXED-length grams, Levenshtein distance 1 is exactly one
    substitution, so two distinct grams are at distance 1 iff they
    agree on all but one position — i.e. they share the bucket
    (i, gram-with-position-i-removed) for exactly ONE i.  That gives
    exactly-once pair emission with NO candidate verification and NO
    global pair dedup: a pair differing at position i shares no other
    positional deletion key.

    Scale shape: per-batch gram extraction is one UTF-32 sliding
    window over the '\\x00'-joined batch text (windows crossing doc
    boundaries masked) + a per-batch void-view np.unique, so the
    exchange to the distinct-gram groupby carries per-batch-distinct
    grams only; the deletion-key stage emits n rows per distinct gram
    (bounded by n x |gram vocab|), and buckets hold at most
    |alphabet| grams, so the within-bucket pandas self-merge is
    bounded work.  No per-row Python anywhere."""
    from .dedup import _grouped_by_partition
    if n_parts is None:
        n_parts = _default_parts()

    def extract(b: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.string())})
        if b.num_rows == 0:
            return empty
        texts = b.column(text_col).to_pylist()
        s = "\x00".join(t if t is not None else "" for t in texts)
        if len(s) < n:
            return empty
        code = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        win = np.lib.stride_tricks.sliding_window_view(code, n)
        win = win[~(win == 0).any(axis=1)]
        if len(win) == 0:
            return empty
        win = np.ascontiguousarray(win)
        void = win.view(np.dtype((np.void, win.dtype.itemsize * n)))
        uniq = np.unique(void).view(np.uint32).reshape(-1, n)
        big = uniq.tobytes().decode("utf-32-le")
        grams = [big[i * n:(i + 1) * n] for i in range(len(uniq))]
        return pa.table({"gram": pa.array(grams, pa.string())})

    distinct = docs_ds.map_batches(extract, batch_format="pyarrow") \
        .groupby("gram").count()

    def keys(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"pos": pa.array([], pa.int64()),
                             "rest": pa.array([], pa.string()),
                             "gram": pa.array([], pa.string())})
        grams = b.column("gram").to_pylist()
        mat = np.frombuffer("".join(grams).encode("utf-32-le"),
                            dtype=np.uint32).reshape(-1, n)
        out_pos, out_rest, out_gram = [], [], []
        cols = np.arange(n)
        for i in range(n):
            rest_mat = np.ascontiguousarray(mat[:, cols != i])
            big = rest_mat.tobytes().decode("utf-32-le")
            m = n - 1
            out_rest.extend(big[j * m:(j + 1) * m]
                            for j in range(len(grams)))
            out_pos.append(np.full(len(grams), i, np.int64))
            out_gram.extend(grams)
        return pa.table({"pos": pa.array(np.concatenate(out_pos)),
                         "rest": pa.array(out_rest, pa.string()),
                         "gram": pa.array(out_gram, pa.string())})

    keyed = distinct.map_batches(keys, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"gram_a": "object", "gram_b": "object"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols))
        m = df.merge(df, on=["pos", "rest"], suffixes=("_a", "_b"))
        m = m[m["gram_a"] < m["gram_b"]]
        return m[["gram_a", "gram_b"]].reset_index(drop=True)

    return _grouped_by_partition(keyed, ["pos", "rest"], bucket_pairs,
                                 n_parts=n_parts)


def remove_dup_spans(docs_ds, *, n: int = 5, id_col: str = "doc_id",
                     text_col: str = "text"):
    """Exact duplicated-substring REMOVAL (the action behind
    dup_span_stats's signal, after Lee et al. 2022): drop every word
    position covered by a word n-gram whose gram value occurs more
    than once corpus-wide, and rebuild the surviving text ->
    (doc_id, clean_text, n_removed).  Every input doc emits a row
    (clean_text = '' when fully covered; docs shorter than n words
    keep their text verbatim).

    Shape: TWO bounded exchanges, zero joins.
      1. gram-occurrence shuffle (gh, doc, pos) — each hash partition
         holds every occurrence of its grams, so "occurs > 1" resolves
         locally and only the FLAGGED (doc, pos) rows (16 B each)
         leave the partition;
      2. one doc-keyed pass over the tagged union of docs + flags —
         per partition the covered-word mask for ALL docs at once is
         one scatter into a flat word array (gram starts always have
         the full gram in range, so no clipping), and the rebuild is
         one grouped ' '.join over surviving words.
    Gram identity is the shared uint64 polynomial kernel, exactly the
    dup_span_stats contract."""
    from .dedup import _grouped_by_partition

    def occurrences(b: pa.Table) -> pa.Table:
        empty = pa.table({"gh": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        ids = b.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = b.column(text_col).to_pylist()
        row_of, wh, counts = _word_hashes(texts)
        if len(wh) < n:
            return empty
        win = np.lib.stride_tricks.sliding_window_view(wh, n)
        p = int(_GRAM_P)
        pows = np.array([pow(p, n - 1 - j, 1 << 64) for j in range(n)],
                        np.uint64)
        gh = win @ pows
        g_idx = np.arange(len(wh) - n + 1)
        grow = row_of[:len(wh) - n + 1]
        valid = grow == row_of[n - 1:]
        row_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
        pos = g_idx[valid] - row_start[grow[valid]]
        return pa.table({
            "gh": pa.array(gh[valid].view(np.int64)),
            id_col: pa.array(ids[grow[valid]]),
            "pos": pa.array(pos.astype(np.int64))})

    occ = docs_ds.map_batches(occurrences, batch_format="pyarrow")

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: "int64", "pos": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        total = df.groupby("gh")["gh"].transform("size")
        dup = total.to_numpy() > 1
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[dup],
            "pos": df["pos"].to_numpy(np.int64)[dup]})

    flags = _grouped_by_partition(occ, ["gh"], flag_dups)

    def doc_side(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(b.column(id_col), pa.int64()),
            "side": pa.array(np.zeros(b.num_rows, np.int8), pa.int8()),
            "text": pc.cast(b.column(text_col), pa.string()),
            "pos": pa.array(np.full(b.num_rows, -1, np.int64))})

    def flag_side(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(b.column(id_col), pa.int64()),
            "side": pa.array(np.ones(b.num_rows, np.int8), pa.int8()),
            "text": pa.array([""] * b.num_rows, pa.string()),
            "pos": pc.cast(b.column("pos"), pa.int64())})

    tagged = docs_ds.map_batches(doc_side, batch_format="pyarrow") \
        .union(flags.map_batches(flag_side, batch_format="pyarrow"))

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: "int64", "clean_text": "object",
                "n_removed": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(
                {id_col: "int64", "n_removed": "int64"})
        docs = df[df["side"] == 0]
        fl = df[df["side"] == 1]
        ids = docs[id_col].to_numpy(np.int64)
        texts = docs["text"].tolist()
        # null text == "" (the _word_hashes COALESCE policy): explode of
        # NaN would emit one spurious element and misalign the offsets
        sp = pd.Series(texts, dtype=object).fillna("").str.split(" ")
        counts = sp.str.len().fillna(0).to_numpy(np.int64)
        off = np.concatenate(([0], np.cumsum(counts)))
        total = int(off[-1])
        covered = np.zeros(total, bool)
        if len(fl):
            di = pd.Series(np.arange(len(ids)), index=ids)
            fdi = di.reindex(fl[id_col].to_numpy(np.int64)) \
                .to_numpy(np.int64)
            starts = off[fdi] + fl["pos"].to_numpy(np.int64)
            idx = (starts[:, None] + np.arange(n)).ravel()
            covered[idx] = True
        words = sp.explode().to_numpy(dtype=object) \
            if total else np.empty(0, object)
        docix = np.repeat(np.arange(len(ids)), counts)
        keep = ~covered
        joined = pd.Series(words[keep], dtype=object) \
            .groupby(docix[keep], sort=False).agg(" ".join) \
            .reindex(np.arange(len(ids))).fillna("")
        n_rm = np.bincount(docix[covered], minlength=len(ids)) \
            .astype(np.int64)
        return pd.DataFrame({id_col: ids,
                             "clean_text": joined.to_numpy(object),
                             "n_removed": n_rm}).astype(cols)

    return _grouped_by_partition(tagged, [id_col], rebuild)


def pmi_pairs(docs_ds, *, vocab_k: int = 64, k: int = 50,
              id_col: str = "doc_id", text_col: str = "text"):
    """Top-k word pairs by pointwise mutual information over DOCUMENT
    co-occurrence -> (word_a, word_b, n_pair, pmi_ppm), word_a < word_b.

    PMI = log(N * c_xy / (c_x * c_y)) is monotone in the exact rational
    N*c_xy / (c_x*c_y), so the ranking statistic is computed as the
    INTEGER parts-per-million floor  (c_xy * N * 1e6) // (c_x * c_y)
    — bit-identical to the HUGEINT oracle, no libm anywhere.

    Scale shape: pass 1 builds per-word document frequencies map-side
    (per-doc distinct words, per-batch partial counts -> one bounded
    groupby -> partial top-vocab_k per block -> tiny driver merge);
    pass 2 broadcasts the <=vocab_k vocabulary into the scan, forms
    each doc's present-word pairs fully vectorized (size-class reshape
    + triu gather — docs are atomic rows, so no cross-block state), and
    folds every batch to a <=C(vocab_k,2)-key partial count.  The only
    exchanges carry word-count partials, never text."""
    assert vocab_k <= 128
    from ray.data.aggregate import Sum

    def df_partial(b: pa.Table) -> pa.Table:
        d = pd.DataFrame({
            "w": b.column(text_col).to_pandas().str.split(" "),
            "i": np.arange(b.num_rows)}).explode("w")
        d = d[d["w"].notna() & (d["w"] != "")].drop_duplicates()
        g = d.groupby("w", sort=False).size().reset_index(name="c")
        return pa.table({"word": pa.array(g["w"], pa.string()),
                         "c": pa.array(g["c"].to_numpy(np.int64))})

    summed = docs_ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("c"))

    def partial_top(b: pa.Table) -> pa.Table:
        w = np.asarray(b.column("word").to_pylist(), object)
        c = pc.cast(b.column("sum(c)"), pa.int64()).to_numpy()
        idx = np.lexsort((w, -c))[:vocab_k]
        return pa.table({"word": pa.array(w[idx].tolist(), pa.string()),
                         "df": pa.array(c[idx])})

    cands: list[tuple] = []
    for b in summed.map_batches(partial_top, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        cands.extend(zip(b.column("word").to_pylist(),
                         b.column("df").to_pylist()))
    cands.sort(key=lambda t: (-t[1], t[0]))
    vocab = cands[:vocab_k]
    n_docs = docs_ds.count()
    # ids in LEXICOGRAPHIC order so id-order pairs == the SQL word_a <
    # word_b ordering (vocab membership is still by df rank)
    words = sorted(w for w, _ in vocab)
    dfs = {w: int(c) for w, c in vocab}
    wid = {w: i for i, w in enumerate(words)}
    nv = len(words)

    def pair_partial(b: pa.Table) -> pa.Table:
        cols = {"a": "int64", "b": "int64", "n": "int64"}
        d = pd.DataFrame({
            "w": b.column(text_col).to_pandas().str.split(" "),
            "i": np.arange(b.num_rows)}).explode("w")
        d = d[d["w"].isin(wid)].drop_duplicates()
        if len(d) == 0:
            e = pd.DataFrame(columns=list(cols)).astype(cols)
            return pa.Table.from_pandas(e, preserve_index=False)
        key = (d["i"].to_numpy(np.int64) * 128
               + d["w"].map(wid).to_numpy(np.int64))
        u = np.unique(key)
        w_of = u % 128
        doc = u >> 7
        starts = np.flatnonzero(np.r_[True, doc[1:] != doc[:-1]])
        sizes = np.diff(np.r_[starts, u.size])
        counts = np.zeros(nv * nv, np.int64)
        for kk in np.unique(sizes):
            if kk < 2:
                continue
            grp = w_of[starts[sizes == kk][:, None] + np.arange(kk)]
            ii, jj = np.triu_indices(int(kk), 1)
            np.add.at(counts, grp[:, ii].ravel() * nv
                      + grp[:, jj].ravel(), 1)
        nz = np.flatnonzero(counts)
        return pa.table({"a": pa.array(nz // nv), "b": pa.array(nz % nv),
                         "n": pa.array(counts[nz])})

    agg = docs_ds.map_batches(pair_partial, batch_format="pyarrow") \
        .groupby(["a", "b"]).aggregate(Sum("n"))

    rows = []
    for b in agg.iter_batches(batch_format="pyarrow"):
        a = pc.cast(b.column("a"), pa.int64()).to_numpy()
        c = pc.cast(b.column("b"), pa.int64()).to_numpy()
        n = pc.cast(b.column("sum(n)"), pa.int64()).to_numpy()
        for ai, bi, ni in zip(a, c, n):
            wa, wb = words[ai], words[bi]
            ppm = (int(ni) * n_docs * 1_000_000) // (dfs[wa] * dfs[wb])
            rows.append((wa, wb, int(ni), ppm))
    rows.sort(key=lambda t: (-t[3], t[0], t[1]))
    top = rows[:k]
    return pa.table({
        "word_a": pa.array([r[0] for r in top], pa.string()),
        "word_b": pa.array([r[1] for r in top], pa.string()),
        "n_pair": pa.array([r[2] for r in top], pa.int64()),
        "pmi_ppm": pa.array([r[3] for r in top], pa.int64())})


def oov_rate(docs_ds, *, k: int = 1000, text_col: str = "text",
             group_col: str = "source"):
    """Tokenizer-coverage report: per group, the fraction of tokens NOT
    in the global top-k vocabulary (count desc, word asc ties) as
    integer ppm -> (group, n_tokens, oov_tokens, oov_ppm).  Groups with
    zero tokens emit no row (the SQL's exploded view has nothing to
    group).

    Scale shape: vocab fit is word_frequencies' one word-keyed count
    (exchange bounded by the vocabulary, not the corpus); the top-k
    array broadcasts once via ray.put and the apply pass is map-only
    with exact string membership (np-backed isin, no hashing-collision
    risk against the oracle) + per-batch (group) combine, so the final
    groupby exchanges one row per (block, group)."""
    import ray
    from ray.data.aggregate import Sum

    from .analytics import word_frequencies

    vocab_tbl = word_frequencies(docs_ds, text_col=text_col, k=k)
    vocab_ref = ray.put(np.asarray(vocab_tbl.column("word").to_pylist(),
                                   dtype=object))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vocab = ray.get(vocab_ref)
        s = pd.DataFrame({
            "source": df[group_col].fillna("").astype(str),
            "w": df[text_col].fillna("").str.split(" ")})
        ex = s.explode("w")
        ex = ex[ex["w"].notna() & (ex["w"] != "")]
        if not len(ex):
            return pd.DataFrame({"source": pd.Series([], dtype=object),
                                 "n_tokens": pd.Series([], dtype=np.int64),
                                 "oov_tokens": pd.Series([], dtype=np.int64)})
        ex["oov"] = (~ex["w"].isin(vocab)).to_numpy().astype(np.int64)
        return ex.groupby("source", as_index=False).agg(
            n_tokens=("w", "size"), oov_tokens=("oov", "sum"))

    agg = docs_ds.map_batches(partial, batch_format="pandas") \
        .groupby("source").aggregate(Sum("n_tokens"), Sum("oov_tokens"))

    def finish(b: pa.Table) -> pa.Table:
        n = pc.cast(b.column("sum(n_tokens)"), pa.int64()).to_numpy()
        o = pc.cast(b.column("sum(oov_tokens)"), pa.int64()).to_numpy()
        ppm = np.array([int(x) * 1_000_000 // int(t) if t else 0
                        for x, t in zip(o, n)], np.int64)
        return pa.table({"source": b.column("source"),
                         "n_tokens": pa.array(n),
                         "oov_tokens": pa.array(o),
                         "oov_ppm": pa.array(ppm)})

    return agg.map_batches(finish, batch_format="pyarrow")


def readability_scores(docs_ds, *, text_col: str = "text",
                       group_col: str = "source",
                       null_group: str = "und"):
    """Flesch reading-ease per group from EXACT integer counts ->
    (group, n_docs, words, sentences, syllables, flesch_milli).
    Words = non-space runs, sentences = [.!?]+ runs, syllables ~=
    vowel-group runs (the classic cheap proxy); the Flesch float
    206.835 - 1.015*(W/S) - 84.6*(Y/W) derives from the summed integer
    totals with IDENTICAL op order on both engines and is floored to
    milli units (zero denominators clamp to 1, matching the SQL's
    greatest(x, 1)).

    Character classes are spelled as explicit ASCII sets in BOTH
    engines — Python's unicode-aware \\S and RE2's ASCII \\s diverge on
    unicode whitespace, so neither shorthand appears anywhere.  Counting
    runs on Arrow's count_substring_regex (RE2, the same engine DuckDB
    uses) — zero-copy from the object store, no Python regex.

    Scale shape: pure map-side per-batch counting (three C++ regex
    passes) -> per-batch (group, partials) combine -> one bounded
    groupby Sum; the exchange carries one row per (group, block)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = pc.fill_null(pc.cast(b.column(group_col), pa.string()),
                         null_group)
        t = pc.fill_null(pc.cast(b.column(text_col), pa.string()), "")
        part = pa.table({
            group_col: g,
            "w": pc.cast(pc.count_substring_regex(
                t, "[^ \t\n\r\f\v]+"), pa.int64()),
            "s": pc.cast(pc.count_substring_regex(t, "[.!?]+"),
                         pa.int64()),
            "y": pc.cast(pc.count_substring_regex(t, "[aeiouAEIOU]+"),
                         pa.int64()),
            "n": pa.array(np.ones(b.num_rows, np.int64))})
        agg = part.group_by(group_col).aggregate(
            [("w", "sum"), ("s", "sum"), ("y", "sum"), ("n", "sum")])
        return agg.rename_columns([group_col, "w", "s", "y", "n"])

    agg = docs_ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(group_col).aggregate(Sum("n"), Sum("w"), Sum("s"),
                                      Sum("y"))

    def finish(b: pa.Table) -> pa.Table:
        nd = pc.cast(b.column("sum(n)"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        w = pc.cast(b.column("sum(w)"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        s = pc.cast(b.column("sum(s)"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        y = pc.cast(b.column("sum(y)"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        fl = np.floor((206.835 - 1.015 * (w / np.maximum(s, 1))
                       - 84.6 * (y / np.maximum(w, 1))) * 1000.0) \
            .astype(np.int64)
        return pa.table({group_col: b.column(group_col),
                         "n_docs": pa.array(nd),
                         "words": pa.array(w),
                         "sentences": pa.array(s),
                         "syllables": pa.array(y),
                         "flesch_milli": pa.array(fl)})

    return agg.map_batches(finish, batch_format="pyarrow")


def source_jsd(docs_ds, source_a: str, source_b: str, *,
               vocab_k: int = 64, text_col: str = "text",
               source_col: str = "source"):
    """Jensen-Shannon divergence between two sources' unigram
    distributions over the shared top-`vocab_k` vocabulary -> ONE row
    (n_a, n_b, vocab_n, jsd_ppm), ppm-floored nats.  The corpus-drift /
    domain-shift screen: JSD near 0 means the sources speak the same
    language mix; near ln 2 means disjoint vocabularies.

    Distributions are restricted to the shared vocabulary (top-k words
    by combined occurrence count, ties broken lexicographically) and
    renormalized over it, so the statistic is well-defined however
    long the tail is.  All counts are exact integers; the single float
    expression (p ln(p/m) terms, summed in sorted word order) mirrors
    the SQL text exactly — the mutual_information discipline.

    Scale shape: one word-keyed count aggregate (two per-source Sum
    columns, map-side exploded partials — the pmi_pairs discipline),
    per-block partial top-k, tiny driver merge + finish.  Only word
    partials cross the wire, never text."""
    import math

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        src = b.column(source_col).to_pandas()
        keep = src.isin([source_a, source_b]).to_numpy()
        texts = pd.Series(
            b.column(text_col).to_pandas().to_numpy(object)[keep])
        d = pd.DataFrame({
            "w": texts.str.split(" "),
            "s": src.to_numpy(object)[keep]}).explode("w")
        d = d[d["w"].notna() & (d["w"] != "")]
        d["a"] = (d["s"] == source_a).astype(np.int64)
        g = d.groupby("w", sort=False).agg(
            ca=("a", "sum"), n=("a", "size"))
        return pa.table({
            "word": pa.array(g.index.to_numpy(object).tolist(),
                             pa.string()),
            "ca": pa.array(g["ca"].to_numpy(np.int64)),
            "cb": pa.array((g["n"] - g["ca"]).to_numpy(np.int64))})

    summed = docs_ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("ca"), Sum("cb"))

    def partial_top(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "ca": pa.array([], pa.int64()),
                             "cb": pa.array([], pa.int64())})
        w = np.asarray(b.column("word").to_pylist(), object)
        ca = pc.cast(b.column("sum(ca)"), pa.int64()).to_numpy()
        cb = pc.cast(b.column("sum(cb)"), pa.int64()).to_numpy()
        idx = np.lexsort((w, -(ca + cb)))[:vocab_k]
        return pa.table({"word": pa.array(w[idx].tolist(), pa.string()),
                         "ca": pa.array(ca[idx]), "cb": pa.array(cb[idx])})

    cands: list[tuple] = []
    for b in summed.map_batches(partial_top, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
        cands.extend(zip(b.column("word").to_pylist(),
                         b.column("ca").to_pylist(),
                         b.column("cb").to_pylist()))
    cands.sort(key=lambda t: (-(t[1] + t[2]), t[0]))
    vocab = sorted(cands[:vocab_k])  # sorted word order = SQL term order
    cols = {"n_a": "int64", "n_b": "int64", "vocab_n": "int64",
            "jsd_ppm": "int64"}
    if not vocab:
        return pd.DataFrame(columns=list(cols)).astype(cols)
    na = sum(c[1] for c in vocab)
    nb = sum(c[2] for c in vocab)
    if na == 0 or nb == 0:
        return pd.DataFrame([{"n_a": na, "n_b": nb,
                              "vocab_n": len(vocab), "jsd_ppm": -1}]) \
            .astype(cols)
    acc = 0.0
    for _, ca, cb in vocab:
        p = ca / na
        q = cb / nb
        m = (p + q) / 2
        if ca > 0:
            acc += 0.5 * p * math.log(p / m)
        if cb > 0:
            acc += 0.5 * q * math.log(q / m)
    return pd.DataFrame([{"n_a": na, "n_b": nb, "vocab_n": len(vocab),
                          "jsd_ppm": math.floor(acc * 1_000_000)}]) \
        .astype(cols)


# ---------------------------------------------------------------------------
# Round-5 wave A: C4 line-level cleaning + contamination probe locator
# ---------------------------------------------------------------------------

_C4_TERMINALS = ('.', '!', '?', '"', '”')
_C4_BANNED = ("lorem ipsum", "javascript", "{")


def c4_line_filter(ds, *, min_words: int = 3, min_lines: int = 2,
                   id_col: str = "doc_id", text_col: str = "text"):
    """C4-style LINE-level cleaning (Raffel et al. 2020 §2.2 rules —
    distinct from chunk_dedup's duplicated-span rule): keep a line iff
    it (a) ends in a terminal punctuation mark ('.', '!', '?', '\"' or
    a right curly quote), (b) has >= min_words non-empty words, and
    (c) its lowercase form contains none of {'lorem ipsum',
    'javascript', '{'}.  Documents keeping < min_lines lines are
    dropped entirely.

    -> (doc_id, text [kept lines re-joined with newline],
        n_lines_total, n_lines_kept).  Map-only (embarrassingly
    parallel, no shuffle): split/explode + vectorized predicates +
    one per-batch groupby rebuild — no per-line Python."""

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "text": "object",
                "n_lines_total": "int64", "n_lines_kept": "int64"}
        df = df[df[id_col].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        txt = df[text_col].fillna("")
        lines = txt.str.split("\n").explode()
        lo = lines.str.lower()
        words = lines.str.count(r"[^ ]+")
        keep = (lines.str.endswith(_C4_TERMINALS)
                & (words >= min_words))
        for pat in _C4_BANNED:
            keep &= ~lo.str.contains(pat, regex=False)
        tot = lines.groupby(level=0).size()
        kept_lines = lines[keep]
        out = pd.DataFrame({
            "doc_id": df[id_col].astype(np.int64),
            "n_lines_total": tot.reindex(df.index).fillna(0)
            .astype(np.int64)})
        if len(kept_lines):
            joined = kept_lines.groupby(level=0).agg("\n".join)
            n_kept = kept_lines.groupby(level=0).size()
        else:
            joined = pd.Series(dtype=object)
            n_kept = pd.Series(dtype=np.int64)
        out["text"] = joined.reindex(df.index).fillna("")
        out["n_lines_kept"] = n_kept.reindex(df.index).fillna(0) \
            .astype(np.int64)
        out = out[out["n_lines_kept"] >= min_lines]
        return out[["doc_id", "text", "n_lines_total",
                    "n_lines_kept"]].astype(cols)

    return ds.map_batches(clean, batch_format="pandas")


def probe_positions(ds, probes, *, id_col: str = "doc_id",
                    text_col: str = "text"):
    """Contamination-probe locator: for a small broadcast list of probe
    strings, report every document containing each probe with its
    FIRST byte offset and its non-overlapping occurrence count (exact
    python-str.find / replace-difference semantics, mirrored by the
    oracle's strpos + replace trick).

    -> (doc_id, probe, first_pos, n_hits), hits only.  Map-only; the
    probe list rides the UDF closure (decontaminate's broadcast-eval
    pattern at O(10) probes)."""
    probes = list(probes)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "probe": "object",
                "first_pos": "int64", "n_hits": "int64"}
        df = df[df[id_col].notna()]
        parts = []
        if len(df):
            txt = df[text_col].fillna("")
            ids = df[id_col].astype(np.int64)
            import re
            for p in probes:
                pos = txt.str.find(p)
                hit = pos >= 0
                if not hit.any():
                    continue
                cnt = txt[hit].str.count(re.escape(p))
                parts.append(pd.DataFrame({
                    "doc_id": ids[hit], "probe": p,
                    "first_pos": pos[hit].astype(np.int64),
                    "n_hits": cnt.astype(np.int64)}))
        if not parts:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return pd.concat(parts, ignore_index=True).astype(cols)

    return ds.map_batches(scan, batch_format="pandas")


def line_df_removal(ds, *, df_threshold: int = 5,
                    id_col: str = "doc_id", text_col: str = "text",
                    broadcast_limit: int = 2_000_000):
    """Boilerplate-LINE removal by corpus document frequency (the
    CC-Net dedup-lines shape, distinct from chunk_dedup's keep-first
    rule): any non-empty line appearing in >= df_threshold DISTINCT
    documents is boilerplate and removed from EVERY document.

    -> (doc_id, text [surviving lines re-joined], n_lines_total,
        n_lines_removed); docs with zero non-empty lines are absent.

    Scale shape: explode -> per-batch per-doc DISTINCT pre-dedup (the
    exchange carries (line, doc) pairs deduped within batch, never raw
    repetition) -> ONE groupby count = df -> the >=threshold survivors
    are the SMALL boilerplate set (bounded by distinct boilerplate
    lines, asserted under `broadcast_limit`) -> ray.put broadcast ->
    map-side filter + per-batch rebuild.  Two scans of the text, one
    tiny exchange, no joins.

    NOTE: the input is scanned TWICE (df pass + removal pass).  A
    plain read_parquet input re-reads cheaply; an input with an
    expensive lineage should be materialized / checkpointed by the
    caller first, or it recomputes per scan."""
    import ray
    from ray.data.aggregate import Sum

    def line_doc_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[id_col].notna()]
        if len(df) == 0:
            return pd.DataFrame({"line": pd.Series(dtype=object),
                                 "n_docs_part": pd.Series(
                                     dtype=np.int64)})
        lines = df[text_col].fillna("").str.split("\n").explode()
        lines = lines[lines.str.len() > 0]
        ids = df[id_col].astype(np.int64).reindex(lines.index)
        g = pd.DataFrame({"line": lines.to_numpy(),
                          "doc": ids.to_numpy()}) \
            .drop_duplicates()
        return g.groupby("line", as_index=False) \
            .agg(n_docs_part=("doc", "size"))

    # hash-partitioned pandas sum, NOT the native groupby: the partial
    # stream has 10k-100k+ DISTINCT STRING keys and Ray 2.49's native
    # sort-aggregate on such streams is the known single-block
    # pathology (weighted_median / link_common_neighbors class —
    # measured 13.8 s vs 2 s at sf0.1 here)
    from .dedup import _grouped_by_partition

    def sum_df(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"line": "object", "n_docs": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return df.groupby("line", as_index=False) \
            .agg(n_docs=("n_docs_part", "sum")).astype(cols)

    df_counts = _grouped_by_partition(
        ds.map_batches(line_doc_pairs, batch_format="pandas"),
        ["line"], sum_df, n_parts=16)
    boiler = set()
    n_seen = 0
    for b in df_counts.iter_batches(batch_format="pandas"):
        hot = b[b["n_docs"] >= df_threshold]["line"]
        n_seen += len(hot)
        if n_seen > broadcast_limit:
            raise ValueError(
                "boilerplate set exceeds broadcast_limit — raise "
                "df_threshold or shard the removal join")
        boiler.update(hot.tolist())
    ref = ray.put(boiler)

    def remove(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "text": "object",
                "n_lines_total": "int64", "n_lines_removed": "int64"}
        df = df[df[id_col].notna()]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        bset = ray.get(ref)
        lines = df[text_col].fillna("").str.split("\n").explode()
        lines = lines[lines.str.len() > 0]
        if len(lines) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        bad = lines.isin(bset)
        tot = lines.groupby(level=0).size()
        kept = lines[~bad]
        joined = kept.groupby(level=0).agg("\n".join) if len(kept) \
            else pd.Series(dtype=object)
        removed = bad.groupby(level=0).sum()
        idx = tot.index
        out = pd.DataFrame({
            "doc_id": df[id_col].astype(np.int64).reindex(idx),
            "text": joined.reindex(idx).fillna(""),
            "n_lines_total": tot.astype(np.int64),
            "n_lines_removed": removed.reindex(idx).fillna(0)
            .astype(np.int64)})
        return out.reset_index(drop=True).astype(cols)

    return ds.map_batches(remove, batch_format="pandas")


def skipgram_counts(ds, *, window: int = 2, top_k: int = 30,
                    text_col: str = "text"):
    """Window-w co-occurrence (skip-gram) pair counts: for each token
    position p, the ORDERED pairs (w[p], w[p+d]) for d = 1..window,
    within-document — the word2vec context statistic, a strict
    superset of adjacent bigrams.  -> global top_k pairs by count
    (ties: lexicographic pair), (w1, w2, cnt).

    Map-side pair-count partials from SHIFTED numpy views of the
    exploded token array (zero per-token python), one (w1, w2) groupby
    sum, per-block exact top-k candidates + bounded driver merge."""
    from ray.data.aggregate import Sum

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": "object", "w2": "object", "cnt_part": "int64"}
        txt = df[text_col].fillna("")
        s = txt.str.split(" ").explode()
        s = s[s.str.len() > 0]
        if len(s) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        idx = s.index.to_numpy()
        tok = s.to_numpy()
        frames = []
        for d in range(1, window + 1):
            if len(tok) <= d:
                break
            same = idx[d:] == idx[:-d]
            if same.any():
                frames.append(pd.DataFrame(
                    {"w1": tok[:-d][same], "w2": tok[d:][same]}))
        if not frames:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = pd.concat(frames, ignore_index=True) \
            .groupby(["w1", "w2"], as_index=False).size() \
            .rename(columns={"size": "cnt_part"})
        return g.astype(cols)

    # hash-partitioned pandas sum over the pair keys — real-text pair
    # vocabularies exceed 10k keys, the native sort-aggregate pathology
    # threshold (see line_df_removal)
    from .dedup import _grouped_by_partition

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": "object", "w2": "object", "cnt": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return df.groupby(["w1", "w2"], as_index=False) \
            .agg(cnt=("cnt_part", "sum")).astype(cols)

    summed = _grouped_by_partition(
        ds.map_batches(pairs, batch_format="pandas"),
        ["w1", "w2"], sum_pairs, n_parts=16)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": "object", "w2": "object", "cnt": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.sort_values(["cnt", "w1", "w2"],
                            ascending=[False, True, True]).head(top_k)
        return df[["w1", "w2", "cnt"]].astype(cols)

    cand = summed.map_batches(local_topk, batch_format="pandas") \
        .take_all()  # bounded: top_k x n_blocks rows
    cols = {"w1": "object", "w2": "object", "cnt": "int64"}
    if not cand:
        return pd.DataFrame(columns=list(cols)).astype(cols)
    out = pd.DataFrame(cand).sort_values(
        ["cnt", "w1", "w2"], ascending=[False, True, True]) \
        .head(top_k).reset_index(drop=True)
    return out.astype(cols)


def kn_discount_counts(ds, *, top_k: int = 40, text_col: str = "text"):
    """Kneser-Ney count tables for the corpus's top-k words: unigram
    count c(w), continuation fan-in N1+(.w) = number of DISTINCT
    left-context words, and fan-out N1+(w.) = distinct right-context
    words (adjacent within-doc pairs) — the statistics KN smoothing
    interpolates with.  -> (word, cnt, n_left, n_right), top_k by
    (cnt desc, word asc).

    Scale shape: shifted-array adjacent pairs, per-batch DISTINCT
    pre-dedup, ONE pair groupby establishing the global distinct pair
    set, then two bounded per-word fan counts off that deduped stream;
    unigram counts ride a separate word groupby.  No joins: the three
    count tables merge on the driver over only the top-k words."""
    from ray.data.aggregate import Count, Sum

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": "object", "w2": "object"}
        s = df[text_col].fillna("").str.split(" ").explode()
        s = s[s.str.len() > 0]
        if len(s) < 2:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        idx = s.index.to_numpy()
        tok = s.to_numpy()
        same = idx[1:] == idx[:-1]
        if not same.any():
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return pd.DataFrame({"w1": tok[:-1][same],
                             "w2": tok[1:][same]}).drop_duplicates() \
            .astype(cols)

    # hash-partitioned pandas distinct over the pair keys (not the
    # native sort-aggregate — see skipgram_counts' pathology note)
    from .dedup import _grouped_by_partition

    def distinct_df(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": "object", "w2": "object"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return df[["w1", "w2"]].drop_duplicates().astype(cols)

    distinct_pairs = _grouped_by_partition(
        ds.map_batches(pairs, batch_format="pandas"),
        ["w1", "w2"], distinct_df, n_parts=16).materialize()

    def fans(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "n_left_part": "int64",
                "n_right_part": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        left = df.groupby("w2", as_index=False).size() \
            .rename(columns={"w2": "word", "size": "n_left_part"})
        right = df.groupby("w1", as_index=False).size() \
            .rename(columns={"w1": "word", "size": "n_right_part"})
        out = left.merge(right, on="word", how="outer").fillna(0)
        return out.astype(cols)

    fan_agg = distinct_pairs.map_batches(fans, batch_format="pandas") \
        .groupby("word").aggregate(Sum("n_left_part"),
                                   Sum("n_right_part"))

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "cnt_part": "int64"}
        s = df[text_col].fillna("").str.split(" ").explode()
        s = s[s.str.len() > 0]
        if len(s) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        g = s.value_counts().rename_axis("word") \
            .reset_index(name="cnt_part")
        return g.astype(cols)

    cnt_agg = ds.map_batches(counts, batch_format="pandas") \
        .groupby("word").aggregate(Sum("cnt_part"))

    def cnt_topk(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "cnt": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        df = df.rename(columns={"sum(cnt_part)": "cnt"})
        return df.sort_values(["cnt", "word"],
                              ascending=[False, True]) \
            .head(top_k)[["word", "cnt"]].astype(cols)

    cand = cnt_agg.map_batches(cnt_topk, batch_format="pandas") \
        .take_all()
    out_cols = {"word": "object", "cnt": "int64", "n_left": "int64",
                "n_right": "int64"}
    if not cand:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    top = pd.DataFrame(cand).sort_values(
        ["cnt", "word"], ascending=[False, True]).head(top_k)
    want = set(top["word"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["word"].isin(want)]

    fan_rows = fan_agg.map_batches(pick, batch_format="pandas") \
        .take_all()  # bounded: <= top_k rows
    fan = {r["word"]: (int(r["sum(n_left_part)"]),
                       int(r["sum(n_right_part)"]))
           for r in fan_rows}
    top = top.reset_index(drop=True)
    top["n_left"] = top["word"].map(
        lambda w: fan.get(w, (0, 0))[0]).astype(np.int64)
    top["n_right"] = top["word"].map(
        lambda w: fan.get(w, (0, 0))[1]).astype(np.int64)
    return top.astype(out_cols)


def c4prep_docs(ds, *, min_words: int = 3, min_lines: int = 2,
                df_threshold: int = 5, n_parts: int = 16):
    """Composed C4-style document prep, fully SQL-reproducible:
    c4_line_filter (line quality) -> line_df_removal (corpus
    boilerplate lines) -> drop emptied docs -> EXACT dedup (keep the
    smallest doc_id per identical surviving text — textprep's
    one-md5-shuffle keep-min pattern).  -> (doc_id, text, n_lines).

    Every stage is deterministic and oracled end to end — the whole
    chain has a single DuckDB mirror, which is the strongest
    correctness statement a composed pipeline can make.

    The c4-filtered intermediate is pinned (materialize) because the
    downstream df-removal + dedup stages scan it three times — without
    the pin the whole upstream lineage re-executes per scan (measured
    3x wall at sf0.1).  At 100-TB scale swap the pin for a parquet
    checkpoint (the run_textprep pattern)."""
    import hashlib

    filtered = c4_line_filter(ds, min_words=min_words,
                              min_lines=min_lines).materialize()
    cleaned = line_df_removal(filtered, df_threshold=df_threshold)

    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"text_md5": "object", "doc_id": "int64",
                "text": "object", "n_lines": "int64"}
        df = df[df["text"].str.len() > 0]
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        out = pd.DataFrame({
            "text_md5": [hashlib.md5(t.encode("utf-8")).hexdigest()
                         for t in df["text"]],
            "doc_id": df["doc_id"].astype(np.int64),
            "text": df["text"],
            "n_lines": (df["text"].str.count("\n") + 1)
            .astype(np.int64)})
        idx = out.groupby("text_md5")["doc_id"].idxmin()
        return out.loc[idx].astype(cols)

    pre = cleaned.map_batches(keep_min, batch_format="pandas")

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "text": "object",
                "n_lines": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        idx = df.groupby("text_md5")["doc_id"].idxmin()
        return df.loc[idx, ["doc_id", "text", "n_lines"]].astype(cols)

    from .dedup import _grouped_by_partition
    return _grouped_by_partition(pre, ["text_md5"], resolve,
                                 n_parts=n_parts)


def vocab_coverage_curve(ds, *, ks=(10, 20, 40, 80),
                         text_col: str = "text"):
    """Tokenizer-design curve: what fraction of all token occurrences
    the top-k vocabulary covers, for a grid of k (the oov_rate single
    point generalized).  Vocabulary order = (count desc, word asc) —
    deterministic ties.  -> (k, covered_tokens, total_tokens,
    covered_ppm [truncating]).

    Scale shape: the word_frequencies pattern — per-batch value_counts
    partials, ONE word groupby via the hash-partitioned pandas pass,
    exact per-block top-max(k) candidates + total-count partial, tiny
    driver merge."""
    from ray.data.aggregate import Sum
    kmax = max(ks)

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "cnt_part": "int64"}
        s = df[text_col].fillna("").str.split(" ").explode()
        s = s[s.str.len() > 0]
        if len(s) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return s.value_counts().rename_axis("word") \
            .reset_index(name="cnt_part").astype(cols)

    from .dedup import _grouped_by_partition

    def sum_words(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "cnt": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        return df.groupby("word", as_index=False) \
            .agg(cnt=("cnt_part", "sum")).astype(cols)

    summed = _grouped_by_partition(
        ds.map_batches(counts, batch_format="pandas"), ["word"],
        sum_words, n_parts=16).materialize()

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"word": "object", "cnt": "int64", "tot_part": "int64"}
        if len(df) == 0:
            return pd.DataFrame(columns=list(cols)).astype(cols)
        top = df.sort_values(["cnt", "word"],
                             ascending=[False, True]).head(kmax)
        top = top[["word", "cnt"]].copy()
        top["tot_part"] = np.int64(0)
        total_row = pd.DataFrame({"word": [""], "cnt": [np.int64(0)],
                                  "tot_part": [df["cnt"].sum()]})
        return pd.concat([top, total_row], ignore_index=True) \
            .astype(cols)

    cand = summed.map_batches(local_top, batch_format="pandas") \
        .take_all()
    out_cols = {"k": "int64", "covered_tokens": "int64",
                "total_tokens": "int64", "covered_ppm": "int64"}
    if not cand:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    cdf = pd.DataFrame(cand)
    total = int(cdf["tot_part"].sum())
    if total == 0:
        return pd.DataFrame(columns=list(out_cols)).astype(out_cols)
    top = cdf[cdf["tot_part"] == 0].sort_values(
        ["cnt", "word"], ascending=[False, True]).head(kmax)
    cum = top["cnt"].cumsum().to_numpy(np.int64)
    out = []
    for k in ks:
        cov = int(cum[min(k, len(cum)) - 1]) if len(cum) else 0
        out.append({"k": k, "covered_tokens": cov,
                    "total_tokens": total,
                    "covered_ppm": cov * 1_000_000 // total})
    return pd.DataFrame(out).astype(out_cols)
