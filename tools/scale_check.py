"""N-doc streaming scale check (VERDICT r3 item 6): generate a cached
N-row pages corpus IN PARALLEL (ray tasks, one per shard), then run the
extraction pipeline and the composed textprep/ccprep chains end-to-end,
reporting wall, docs/s, MB/s and driver peak RSS.

Usage: python tools/scale_check.py [n_rows] [which]
  n_rows  default 10_000_000
  which   comma list of {extract,textprep,ccprep}, default all
The corpus caches under /tmp/pdf_extract_ray_cache (same key scheme as
data/pages.pages_parquet_path) so re-runs skip generation."""
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _gen_parallel(n_rows: int, n_giants: int, n_shards: int) -> str:
    import ray
    cache_dir = "/tmp/pdf_extract_ray_cache"
    key = f"pages_v2_n{n_rows}_g{n_giants}_s{n_shards}"
    out_dir = os.path.join(cache_dir, key)
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)

    @ray.remote(num_cpus=1)
    def write_shard(s: int, offset: int, rows: int, giants: int) -> int:
        import pyarrow.parquet as pq

        from pdf_extract_ray.data.pages import make_pages_table
        tbl = make_pages_table(rows, n_giants=giants, offset=offset)
        pq.write_table(tbl, os.path.join(out_dir, f"part-{s:04d}.parquet"))
        return rows

    per = (n_rows + n_shards - 1) // n_shards
    refs = []
    made = 0
    for s in range(n_shards):
        rows = min(per, n_rows - made)
        if rows <= 0:
            break
        giants = n_giants if s == n_shards - 1 else 0
        refs.append(write_shard.remote(s, made, rows, giants))
        made += rows
    total = sum(ray.get(refs))
    assert total == n_rows, (total, n_rows)
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    import ray
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    which = (sys.argv[2].split(",") if len(sys.argv) > 2
             else ["extract", "textprep", "ccprep"])
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    n_shards = max(32, n_rows // 10_000)
    t0 = time.time()
    pages_dir = _gen_parallel(n_rows, n_giants=50, n_shards=n_shards)
    print(f"corpus: {pages_dir} (gen/cached in {time.time()-t0:.1f}s)",
          flush=True)

    from pdf_extract_ray.pipelines.extract import extract_dataset, read_pages

    def read():
        return read_pages(pages_dir)

    from ray.data.aggregate import Sum

    def consume(ds, text_col=None):
        """Worker-side row/byte tally — the driver never touches the
        data plane (matches the real write_parquet consumption; an
        iter_batches loop here would map every block into driver RSS
        and misreport streaming memory)."""
        import pyarrow as pa

        def stat(b: pa.Table) -> pa.Table:
            nb = b.column(text_col).nbytes if text_col else 0
            return pa.table({"rows": pa.array([b.num_rows]),
                             "nbytes": pa.array([nb])})

        agg = ds.map_batches(stat, batch_format="pyarrow")             .aggregate(Sum("rows"), Sum("nbytes"))
        return int(agg["sum(rows)"] or 0), int(agg["sum(nbytes)"] or 0)

    if "extract" in which:
        t0 = time.time()
        out = extract_dataset(read(), with_spans=False)
        rows, nbytes = consume(out, "extracted_text")
        wall = time.time() - t0
        print(f"extract: {rows} rows {wall:.1f}s "
              f"{rows/wall:,.0f} docs/s {nbytes/wall/1e6:.1f} MB/s "
              f"driver_rss={_rss_mb():.0f}MB", flush=True)

    if "textprep" in which:
        from pdf_extract_ray.pipelines.textprep import textprep_dataset
        t0 = time.time()
        out = textprep_dataset(read())
        rows, _ = consume(out)
        wall = time.time() - t0
        print(f"textprep: {rows} rows {wall:.1f}s "
              f"{n_rows/wall:,.0f} docs/s driver_rss={_rss_mb():.0f}MB",
              flush=True)

    if "ccprep" in which:
        from pdf_extract_ray.pipelines.ccprep import ccprep_dataset
        t0 = time.time()
        out = ccprep_dataset(read())
        rows, _ = consume(out)
        wall = time.time() - t0
        print(f"ccprep: {rows} rows {wall:.1f}s "
              f"{n_rows/wall:,.0f} docs/s driver_rss={_rss_mb():.0f}MB",
              flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
