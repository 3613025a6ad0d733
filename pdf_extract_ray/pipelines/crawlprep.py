"""Crawl-side preparation BEFORE extraction: canonicalize URLs, apply
robots.txt-style disallow rules, deduplicate by canonical URL, THEN
extract.  At 100 TB the ordering is the whole point — disallowed and
duplicate pages drop while they are still one url string + one binary
payload, before anyone pays content extraction for them.

Stage shape:
  1. normalize_urls        map-only (ops/weburl canonicalizer)
  2. robots_filter + drop  map-only (tiny rule table broadcast once)
  3. canonical-URL dedup   map-side keep-min combine, then ONE
                           norm_url-hash partition pass (the textprep
                           exact-dedup discipline — no groupby+join
                           pair, no second all-to-all)
  4. extract_dataset       the engine stage, on survivors only

Reference parity note: the reference engine (jrmuizel/pdf-extract) has
no crawl frontier — this pipeline is part of the training-data surface
this repo adds on top of the extraction semantics.
"""
from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np
import pandas as pd

from ..ops import weburl
from ..ops.dedup import _grouped_by_partition
from .extract import extract_dataset


def _allowed(pages_ds, rules):
    """Map-only prefix of the chain: canonicalize + robots filter.
    Cheap regex work — safe to re-execute when the lineage forks."""
    normed = weburl.normalize_urls(pages_ds, "url", "norm_url")
    rules = list(rules)
    if not rules:
        return normed
    flagged = weburl.robots_filter(normed, rules, url_col="norm_url")

    def _drop_blocked(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["blocked"] == 0].drop(columns=["blocked", "host"])
    return flagged.map_batches(_drop_blocked, batch_format="pandas")


def _dropped_urls(allowed, num_partitions):
    """The canonical-URL dedup DECISION on key pairs only — payloads
    never enter any exchange.  Per batch, everything but the local
    min-url per canonical url is a certain global drop (a smaller url
    exists); the surviving one candidate per (batch, norm_url) goes
    through ONE key-pair hash exchange where the global non-min
    candidates join the drop set.  Returns a Dataset with a single
    `doc_id` column of dropped urls (the drop_rows_by_id contract)."""
    def local_split(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["url", "norm_url"]].copy()
        if not len(out):
            out["keep"] = pd.Series([], dtype=np.int64)
            return out
        idx = out.groupby("norm_url", sort=False)["url"].idxmin()
        out["keep"] = 0
        out.loc[idx, "keep"] = 1
        return out

    import pyarrow as pa

    tagged = allowed.map_batches(local_split, batch_format="pandas")
    local_drops = tagged.map_batches(
        lambda df: pa.table({"doc_id": pa.array(
            df.loc[df["keep"] == 0, "url"].tolist(), pa.string())}),
        batch_format="pandas")
    cands = tagged.map_batches(
        lambda df: df.loc[df["keep"] == 1, ["url", "norm_url"]],
        batch_format="pandas")

    def resolve_drops(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        if not len(df):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=str)})
        keep = df.groupby("norm_url", sort=False)["url"].idxmin()
        mask = np.ones(len(df), dtype=bool)
        mask[keep.to_numpy()] = False
        return pd.DataFrame({"doc_id": df.loc[mask, "url"].astype(str)
                            .to_numpy()})

    global_drops = _grouped_by_partition(
        cands.map_batches(lambda df: df.reset_index(drop=True),
                          batch_format="pandas"),
        ["norm_url"], resolve_drops, n_parts=num_partitions)
    return local_drops.union(global_drops)


def _survivors(pages_ds, rules, num_partitions):
    """The pages that pass the robots rules and win canonical-URL dedup,
    with their input columns (norm_url dropped again)."""
    from ..ops.dedup import drop_rows_by_id

    allowed = _allowed(pages_ds, rules)
    dropped = _dropped_urls(allowed, num_partitions)
    return drop_rows_by_id(
        allowed, dropped, id_col="url",
        num_partitions=num_partitions).map_batches(
            lambda df: df.drop(columns=["norm_url"]), batch_format="pandas")


def crawlprep_dataset(pages_ds, *,
                      rules: Iterable[Tuple[str, str]] = (),
                      num_partitions: int = 32):
    """Composed crawl-prep chain over a (url, html, ...) Dataset.

    Returns the lazy extraction Dataset (RESULT_SCHEMA, null spans) over
    the pages that survive robots filtering and canonical-URL dedup.
    Unparseable urls canonicalize to "" and form one dedup group —
    exactly one survives, matching the "never throw away data silently"
    policy (the extractor will then record its own status for that row).

    Scale shape: the PAYLOAD path is map-only end to end — robots
    drops are a batch filter, and dedup applies as a broadcast /
    left_anti of the (small) dropped-url set via drop_rows_by_id.
    Only url/norm_url key pairs ever enter an exchange (the ccprep
    greedy-drop discipline).  Cost: the cheap map prefix re-executes
    once for the key pass; at crawl scale re-reading pruned parquet
    beats shuffling payload bytes by orders of magnitude (A/B at
    sf0.1: 9.2 s -> see BASELINE.md)."""
    return extract_dataset(_survivors(pages_ds, rules, num_partitions),
                           with_spans=False)


def run_crawlprep(input_dir: str, output_dir: str, *,
                  rules: Iterable[Tuple[str, str]] = (),
                  num_partitions: int = 32,
                  resume: bool = True):
    """Checkpointed crawl-prep run, resumable at two granularities.

    Phase 1 "urlprep" (global, cheap): canonicalize + robots + dedup
    the (url, html) pages and write the survivor parquet; completion
    marker `manifest/urlprep.json` carries in/survivor counts and the
    phase wall.  Phase 2 "extract" (expensive, per-partition): the
    survivors feed run_extract's manifest machinery — a preempted job
    re-skips finished partitions on restart and never re-pays phase 1.

    Returns {"urlprep": {...}, "extract": {...}}.
    """
    import os
    import time

    from .extract import (_commit, _committed, _input_files,
                          _rewrite_parquet, read_pages, run_extract)

    surv_dir = os.path.join(output_dir, "survivors")
    marker = os.path.join(output_dir, "manifest", "urlprep.json")
    phase1 = _committed(marker, resume)
    if phase1 is None:
        t0 = time.perf_counter()
        pages = read_pages(_input_files(input_dir))
        n_in = pages.count()
        n_out = _rewrite_parquet(_survivors(pages, rules, num_partitions),
                                 surv_dir)
        phase1 = _commit(marker, {
            "rows_in": n_in, "survivors": n_out, "dropped": n_in - n_out,
            "wall_s": round(time.perf_counter() - t0, 3),
            "output": surv_dir})

    job = run_extract(surv_dir, os.path.join(output_dir, "extracted"),
                      with_spans=False, resume=resume)
    return {"urlprep": phase1, "extract": job}
