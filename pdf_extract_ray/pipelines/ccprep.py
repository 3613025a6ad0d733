"""Common-Crawl-style training-data prep — the full composed chain:

    pages (url, html)
      -> extract (PDF parity engine / HTML boilerplate strip)   [phase 1]
      -> enrich (tokens, quality, language id) + exact dedup
      -> language filter -> quality filter                      [phase 2]
      -> MinHash-LSH near-dup removal (bands-only candidates,
         exact n-gram Jaccard verification, drop the newer twin)
      -> partitioned parquet

Scale shape: phase 1 is the checkpointed per-partition extract
(manifests, resume); phase 2 reads the checkpoint, so a preempted job
never re-extracts.  Exact dedup is one md5-partitioned shuffle with a
map-side combine (textprep._dedup_enrich); the near-dup stage ships
~24 B/doc/band through its only shuffle
(MinHashBandsOnly) and verifies only the candidate pairs via the
semi-join path in verify_pairs_jaccard.  The keep-smallest drop set is
computed DISTRIBUTED (ops/dedup.greedy_drop_ids — round-based peeling
over hash-partitioned int64 pair rows, no driver-side pair iteration)
and applied via drop_rows_by_id (bounded broadcast fast path, left_anti
hash join at crawl-scale dup rates).
"""
from __future__ import annotations

import hashlib
import pyarrow as pa
import pyarrow.compute as pc


def _hash_doc_id(urls) -> pa.Array:
    """Deterministic int64 doc id from the url (minhash/jaccard ops key
    on int64 ids)."""
    ids = [int.from_bytes(hashlib.blake2b(u.encode("utf-8"),
                                          digest_size=8).digest(),
                          "big") >> 1
           for u in urls]
    return pa.array(ids, pa.int64())


def _post_extract_chain(ok_ds, *, langs, min_quality, neardup_threshold,
                        num_partitions, timings=None,
                        drop_policy: str = "mis"):
    """enrich -> exact dedup -> lang/quality filter -> near-dup removal
    over an already-extracted ok dataset.  `timings`: optional dict that
    receives per-phase wall seconds (the natural materialize boundaries
    double as phase marks — no extra execution is forced beyond them).

    drop_policy selects the near-dup resolution:
    - "mis" (default): distributed lex-first maximal-independent-set
      peeling (ops/dedup.greedy_drop_ids) — keeps the most docs.
    - "cluster": CC-Net style — connected components over the verified
      pair graph (ops/graph.connected_components), keep ONE canonical
      (min id) per cluster.  Same oracle-tested CC machinery as
      dup_clusters/neardup_clusters."""
    import time as _time

    from ..ops.dedup import (drop_rows_by_id, greedy_drop_ids,
                             minhash_lsh_candidates, verify_pairs_jaccard)
    from .textprep import _dedup_enrich

    def mark(key, t0):
        if timings is not None:
            timings[key] = round(_time.perf_counter() - t0, 3)
        return _time.perf_counter()

    t = _time.perf_counter()
    enriched = _dedup_enrich(ok_ds, num_partitions=num_partitions,
                             min_quality=None)

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.greater_equal(batch.column("quality_score"),
                             pa.scalar(min_quality))
        if langs is not None:
            m = pc.and_(m, pc.is_in(
                batch.column("pred_lang"),
                value_set=pa.array(list(langs), pa.string())))
        out = batch.filter(m)
        return out.append_column("doc_id",
                                 _hash_doc_id(out.column("url").to_pylist()))

    # pinned: feeds BOTH the near-dup candidate generation and the final
    # filter (shared lineage must execute once)
    filtered = enriched.map_batches(keep, batch_format="pyarrow").materialize()
    if filtered.num_blocks() < num_partitions:
        # the exact-dedup small path resolves in ONE task and so emits
        # one block; re-split so the minhash/verify stage parallelizes
        # (measured 15 s -> 7 s at sf0.1).  At scale the dedup shuffle
        # already yields >= num_partitions blocks and this is a no-op.
        filtered = filtered.repartition(num_partitions).materialize()
    t = mark("enrich_dedup_filter", t)

    docs = filtered.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "text": b.column("extracted_text")}),
        batch_format="pyarrow")
    # Band count is matched to the verify threshold (fewest bands whose
    # catch probability at J == threshold stays >= 0.9) so a high
    # threshold doesn't flood the verifier with false positives.
    # Buckets above star_bucket emit star pairs (O(bucket) rows) — a
    # boilerplate cluster stays connected and resolves as keep-one
    # downstream without the O(bucket^2) pair explosion the old
    # skip-guard dodged by missing the cluster entirely.
    from ..ops.dedup import bands_for_threshold
    candidates = minhash_lsh_candidates(
        docs, bands=bands_for_threshold(64, neardup_threshold),
        star_bucket=64)
    # pinned: the pair set is tiny (LSH survivors) and feeds the greedy's
    # normalize pass — pinning it here also marks the verify phase
    verified = verify_pairs_jaccard(candidates, docs,
                                    threshold=neardup_threshold).materialize()
    t = mark("lsh_verify", t)

    if drop_policy == "cluster":
        # CC-Net policy: one canonical per near-dup cluster; drops are
        # exactly the non-min members of each component
        from ..ops.graph import connected_components
        comp = connected_components(
            verified.select_columns(["doc_id_a", "doc_id_b"]),
            "doc_id_a", "doc_id_b")

        def noncanon(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"doc_id": pa.array([], pa.int64())})
            kept = t.filter(pc.not_equal(t.column("node"),
                                         t.column("component")))
            return pa.table({"doc_id": kept.column("node")})

        drop_ids = comp.map_batches(noncanon, batch_format="pyarrow")
        out = drop_rows_by_id(filtered, drop_ids)
        mark("cluster_drop", t)
        return out
    # the greedy keep-smallest policy is ORDER-FREE by construction
    # (distributed peeling = the lexicographically-first maximal
    # independent set of the near-dup graph), so the drop set is
    # deterministic regardless of block arrival order; no pair ever
    # reaches the driver — see ops/dedup.greedy_drop_ids
    drop_ids = greedy_drop_ids(
        verified.select_columns(["doc_id_a", "doc_id_b"]))
    out = drop_rows_by_id(filtered, drop_ids)
    mark("greedy_drop", t)
    return out


def ccprep_dataset(pages_ds, *, langs=None,
                   min_quality: float = 0.3,
                   neardup_threshold: float = 0.85,
                   num_partitions: int = 8,
                   drop_policy: str = "mis"):
    """Lazy composed pipeline over a (url, html) Dataset -> surviving
    enriched rows (url, extracted_text, ..., n_tokens, quality_score,
    pred_lang, doc_id).  `langs=None` skips the language filter (the
    synthetic lorem corpus IDs mostly as 'und'); pass e.g.
    ("en", "und") to gate on language."""
    from .extract import extract_dataset
    from .textprep import _keep_ok

    extracted = extract_dataset(pages_ds, with_spans=False)
    ok = extracted.map_batches(_keep_ok, batch_format="pyarrow").materialize()
    return _post_extract_chain(ok, langs=langs, min_quality=min_quality,
                               neardup_threshold=neardup_threshold,
                               num_partitions=num_partitions,
                               drop_policy=drop_policy)


def run_ccprep(input_dir: str, output_dir: str, *,
               langs=None,
               min_quality: float = 0.3,
               neardup_threshold: float = 0.85,
               num_partitions: int = 8,
               resume: bool = True):
    """Checkpointed run: phase 1 = per-partition extraction manifests
    (resume skips finished partitions), phase 2 = the filter/dedup chain
    from the checkpoint with an atomic completion marker."""
    import os
    import time as _time

    from .extract import _commit, _committed, _rewrite_parquet, run_extract
    from .textprep import _read_extracted_ok

    extract_dir = os.path.join(output_dir, "extracted")
    final_dir = os.path.join(output_dir, "ccprep")
    marker = os.path.join(output_dir, "manifest", "ccprep.json")
    done = _committed(marker, resume)
    if done is not None:
        return done

    phases: dict = {}
    t0 = _time.perf_counter()
    job = run_extract(input_dir, extract_dir, with_spans=False,
                      resume=resume)
    phases["extract"] = round(_time.perf_counter() - t0, 3)

    t0 = _time.perf_counter()
    ok = _read_extracted_ok(extract_dir).materialize()
    phases["read_checkpoint"] = round(_time.perf_counter() - t0, 3)

    result = _post_extract_chain(ok, langs=langs, min_quality=min_quality,
                                 neardup_threshold=neardup_threshold,
                                 num_partitions=num_partitions,
                                 timings=phases)
    t0 = _time.perf_counter()
    n_out = _rewrite_parquet(result, final_dir)
    phases["apply_write"] = round(_time.perf_counter() - t0, 3)
    return _commit(marker, {"extract": job, "rows_out": n_out,
                            "output": final_dir, "phases": phases})
