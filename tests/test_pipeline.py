"""Pipeline-level tests (SURVEY.md §5 plan, item 3): the Ray Data pipeline
must produce byte-identical per-url text to the single-process engine, and
resume from its checkpoint manifest."""
import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from pdf_extract_ray.data.pages import make_pages_table, pages_parquet_path
from pdf_extract_ray.engine.api import extract_text_from_mem
from pdf_extract_ray.engine.html_extract import extract_html_text, sniff_payload
from pdf_extract_ray.pipelines import extract
from pdf_extract_ray.pipelines.extract import run_extract

N_ROWS = 120


def reference_rows():
    """Single-process ground truth over the same synthetic table."""
    tbl = make_pages_table(N_ROWS)
    out = {}
    for url, payload in zip(tbl.column("url").to_pylist(),
                            tbl.column("html").to_pylist()):
        kind = sniff_payload(payload or b"")
        try:
            if kind == "pdf":
                out[url] = ("ok", extract_text_from_mem(payload))
            elif kind == "html":
                out[url] = ("ok", extract_html_text(payload))
            else:
                out[url] = (kind if kind == "empty" else "skipped", "")
        except Exception:
            out[url] = ("error", "")
    return out


@pytest.fixture(scope="module")
def small_batches():
    """8-row UDF batches: several batches per partition."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract, "BATCH_SIZE", 8)
        yield


@pytest.fixture(scope="module")
def extract_run(ray_session, small_batches, tmp_path_factory):
    in_dir = pages_parquet_path(N_ROWS, n_shards=4,
                                cache_dir="/tmp/pdf_extract_ray_test_cache")
    out_dir = str(tmp_path_factory.mktemp("extract_out"))
    job = run_extract(in_dir, out_dir)
    return in_dir, out_dir, job


def load_results(out_dir):
    rows = {}
    for f in glob.glob(os.path.join(out_dir, "part=*", "*.parquet")):
        t = pq.read_table(f)
        for r in t.to_pylist():
            rows[r["url"]] = r
    return rows


def test_byte_identical_per_url(extract_run):
    _in, out_dir, job = extract_run
    got = load_results(out_dir)
    want = reference_rows()
    assert len(got) == N_ROWS == len(want)
    for url, (w_status, w_text) in want.items():
        r = got[url]
        assert r["status"] == ("empty" if w_status == "ok" and not w_text
                               else w_status), url
        if w_status == "ok":
            assert r["extracted_text"] == w_text, url  # byte-identical


def test_spans_consistent(extract_run):
    _in, out_dir, _job = extract_run
    for r in load_results(out_dir).values():
        if r["status"] == "ok" and r["spans"]:
            text = r["extracted_text"]
            for s in r["spans"]:
                assert 0 <= s["start"] <= s["end"] <= len(text)
            # spans cover the non-separator characters in order
            assert all(a["start"] <= b["start"]
                       for a, b in zip(r["spans"], r["spans"][1:])
                       if a["page"] == b["page"])


def test_manifest_lineage_and_metrics(extract_run):
    _in, out_dir, job = extract_run
    manifests = sorted(glob.glob(os.path.join(out_dir, "manifest", "*.json")))
    assert manifests
    total = 0
    for m in manifests:
        d = json.load(open(m))
        assert d["lineage"]["input_files"], m
        assert d["rows"] > 0 and d["extract_wall_s"] > 0
        assert "statuses" in d and d["docs_per_s"] > 0
        total += d["rows"]
    assert total == N_ROWS
    assert job["rows"] == N_ROWS


def test_resume_skips_completed(extract_run):
    in_dir, out_dir, _job = extract_run
    n_parts = len(glob.glob(os.path.join(out_dir, "manifest", "*.json")))
    # everything done -> full skip
    job2 = run_extract(in_dir, out_dir)
    assert job2["skipped_partitions"] == n_parts
    assert job2["partitions"] == 0
    # drop one manifest -> exactly that partition reruns
    victim = sorted(glob.glob(os.path.join(out_dir, "manifest", "*.json")))[0]
    os.remove(victim)
    job3 = run_extract(in_dir, out_dir)
    assert job3["partitions"] == 1
    assert job3["skipped_partitions"] == n_parts - 1
    assert os.path.exists(victim)
    # rerun must REPLACE the partition dir, not append: no duplicate rows
    assert len(load_results(out_dir)) == N_ROWS
    total_rows = sum(pq.ParquetFile(f).metadata.num_rows
                     for f in glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    assert total_rows == N_ROWS


def test_output_partitioned(extract_run):
    _in, out_dir, _job = extract_run
    parts = glob.glob(os.path.join(out_dir, "part=*"))
    assert len(parts) > 1  # never one giant file


def test_zero_row_partition_commits_empty_manifest(ray_session, small_batches,
                                                   tmp_path):
    """A partition whose input files hold no rows gets no parquet output
    (Ray writes no file for it) but still commits a manifest with
    rows 0, and a restart skips it like any other finished partition."""
    from pdf_extract_ray.pipelines.extract import _partition_files
    # one file name per partition of 2
    names = {}
    for i in range(32):
        (pid,) = _partition_files([f"pages-{i}.parquet"], 2)
        names.setdefault(pid, f"pages-{i}.parquet")
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    tbl = make_pages_table(8)
    pq.write_table(tbl, str(in_dir / names[0]))
    pq.write_table(tbl.slice(0, 0), str(in_dir / names[1]))
    out_dir = str(tmp_path / "out")

    job = run_extract(str(in_dir), out_dir)
    assert job["partitions"] == 2 and job["rows"] == 8
    with open(os.path.join(out_dir, "manifest", "part-00001.json")) as f:
        empty = json.load(f)
    assert empty["lineage"]["input_files"] == [str(in_dir / names[1])]
    assert empty["rows"] == 0 and empty["statuses"] == {}
    assert empty["payload_bytes"] == 0 and empty["extracted_chars"] == 0
    assert len(load_results(out_dir)) == 8

    job2 = run_extract(str(in_dir), out_dir)
    assert job2["skipped_partitions"] == 2 and job2["partitions"] == 0


def _html_file(in_dir, name, n=5):
    """`name`.parquet with `n` small HTML rows."""
    import pyarrow as pa
    pq.write_table(pa.table({
        "url": [f"https://example.org/{name}/{i}" for i in range(n)],
        "html": pa.array([f"<html><body><p>{name} row {i}</p></body></html>"
                          .encode() for i in range(n)], pa.binary())}),
        str(in_dir / f"{name}.parquet"))


def _tree(out_dir):
    """Every file under `out_dir` with its size and mtime."""
    return {os.path.relpath(os.path.join(root, f), out_dir):
            (os.stat(os.path.join(root, f)).st_size,
             os.stat(os.path.join(root, f)).st_mtime_ns)
            for root, _dirs, files in os.walk(out_dir) for f in files}


@pytest.mark.parametrize("before,after", [
    # a third file remaps the partitions: resuming skipped a partition
    # whose files had moved (pages-2's rows were lost) and reran one
    # into its old files' output (pages-0's and pages-1's rows twice)
    (["pages-0", "pages-1"], ["pages-0", "pages-1", "pages-2"]),
    (["pages-0", "pages-1", "pages-2"], ["pages-0", "pages-2"])])
def test_resume_over_changed_input_raises(ray_session, tmp_path, before,
                                          after):
    """A resume whose input files no longer match the committed
    manifests raises ValueError before any partition runs and leaves
    the output as it was; the first input resumes as before."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name in before:
        _html_file(in_dir, name)
    out_dir = str(tmp_path / "out")
    first = run_extract(str(in_dir), out_dir)
    assert first["rows"] == 5 * len(before)
    tree = _tree(out_dir)

    for name in set(after) - set(before):
        _html_file(in_dir, name)
    for name in set(before) - set(after):
        os.remove(in_dir / f"{name}.parquet")
    with pytest.raises(ValueError, match=r"part-\d{5}\.json lists input "
                       r"files \['pages-"):
        run_extract(str(in_dir), out_dir)
    assert _tree(out_dir) == tree

    for name in set(before) - set(after):
        _html_file(in_dir, name)
    for name in set(after) - set(before):
        os.remove(in_dir / f"{name}.parquet")
    job = run_extract(str(in_dir), out_dir)
    assert job["skipped_partitions"] == first["partitions"]
    assert job["partitions"] == 0
    assert len(load_results(out_dir)) == 5 * len(before)


def test_fresh_run_drops_partitions_the_input_lost(ray_session, tmp_path):
    """`resume=False` over an input that lost a file leaves only the
    current files' rows: the lost file's partition and manifest go."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name in ("pages-0", "pages-1", "pages-2"):
        _html_file(in_dir, name)
    out_dir = str(tmp_path / "out")
    assert run_extract(str(in_dir), out_dir)["rows"] == 15
    os.remove(in_dir / "pages-1.parquet")
    job = run_extract(str(in_dir), out_dir, resume=False)
    assert job["rows"] == 10 and job["skipped_partitions"] == 0
    rows = [r["url"] for f in glob.glob(os.path.join(out_dir, "part=*",
                                                     "*.parquet"))
            for r in pq.read_table(f, columns=["url"]).to_pylist()]
    assert len(rows) == 10 and not [u for u in rows if "/pages-1/" in u]
    manifests = glob.glob(os.path.join(out_dir, "manifest", "part-*.json"))
    assert len(manifests) == 2
    for path in manifests:
        with open(path) as f:
            assert "pages-1.parquet" not in str(json.load(f)["lineage"])


def _pages_inputs(tmp_path):
    """Input shapes of `read_pages`, each with the files it covers: a
    zero-row file, a file of 3 row groups, a hive-nested directory, a
    list of files, a file with an extra column."""
    import pyarrow as pa

    def table(tag, n, extra=False):
        cols = {"url": pa.array([f"https://example.org/{tag}/{i}"
                                 for i in range(n)], pa.string()),
                "html": pa.array([f"<p>{tag} {i}</p>".encode()
                                  for i in range(n)], pa.binary())}
        if extra:
            cols["lang"] = ["en"] * n
        return pa.table(cols)

    zero = str(tmp_path / "zero.parquet")
    pq.write_table(table("zero", 0), zero)
    groups = str(tmp_path / "groups.parquet")
    pq.write_table(table("groups", 7), groups, row_group_size=3)
    assert pq.ParquetFile(groups).num_row_groups == 3
    hive = tmp_path / "hive"
    nested = []
    for k in range(2):
        d = hive / f"crawl=c{k}" / "lang=en"
        d.mkdir(parents=True)
        nested.append(str(d / "pages.parquet"))
        pq.write_table(table(f"hive{k}", 4 + k), nested[-1])
    extra = str(tmp_path / "extra.parquet")
    pq.write_table(table("extra", 5, extra=True), extra)
    return [(zero, [zero]), (groups, [groups]), (str(hive), sorted(nested)),
            ([groups, zero, extra], [groups, zero, extra]),
            (extra, [extra])]


def test_read_pages_rows_and_count(ray_session, tmp_path):
    """`read_pages` gives the rows `pq.read_table(columns=[url, html])`
    gives, in file order, and `count()` is the footers' row count."""
    import pyarrow as pa
    for path, files in _pages_inputs(tmp_path):
        want = pa.concat_tables(pq.read_table(f, columns=["url", "html"])
                                for f in files)
        ds = extract.read_pages(path)
        assert ds.count() == want.num_rows == sum(
            pq.read_metadata(f).num_rows for f in files)
        got = ds.take_all()
        assert [(r["url"], r["html"]) for r in got] == list(zip(
            want.column("url").to_pylist(), want.column("html").to_pylist()))
        assert all(set(r) == {"url", "html"} for r in got)


def test_read_and_extract_fuse_one_task_per_file(ray_session, small_batches,
                                                  tmp_path):
    """The read and the extraction run as one fused operator, one task
    per input file, and give the UDF's rows."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name, n in (("pages-0", 5), ("pages-1", 19), ("pages-2", 0)):
        _html_file(in_dir, name, n)
    ds = extract.extract_dataset(extract.read_pages(str(in_dir)))
    rows = ds.take_all()
    udf = extract.ExtractBatch(with_spans=True)
    want = [r for name in ("pages-0", "pages-1")
            for r in udf(pq.read_table(str(in_dir / f"{name}.parquet")))
            .to_pylist()]
    assert len(rows) == 24 and rows == want
    (op,) = [line for line in ds.stats().splitlines()
             if line.startswith("Operator ")]
    assert "ReadPages->MapBatches(_extract_batch): 3 tasks executed" in op


def test_zero_row_block_keeps_result_schema(ray_session, tmp_path):
    """A zero-row block gives one empty RESULT_SCHEMA table (an empty
    block has no schema to pass on), and a zero-row input extracts to
    nothing without error."""
    import pyarrow as pa
    (out,) = extract._extract_batch(
        pa.table({"url": pa.array([], pa.string()),
                  "html": pa.array([], pa.binary())}),
        with_spans=True, batch_size=8)
    assert out.schema == extract.RESULT_SCHEMA and out.num_rows == 0
    zero = tmp_path / "zero.parquet"
    _html_file(tmp_path, "zero", 0)
    ds = extract.extract_dataset(extract.read_pages(str(zero)))
    assert ds.count() == 0 and ds.take_all() == []


def test_extract_checkpoint_reads_as_keep_ok(extract_run):
    """textprep/ccprep read the extract checkpoint with `_keep_ok`'s
    columns only: the hive-style `part=K` dirs add no `part` column."""
    from pdf_extract_ray.pipelines.textprep import _read_extracted_ok
    _in, out_dir, _job = extract_run
    ok = _read_extracted_ok(out_dir)
    assert ok.schema().names == ["url", "extracted_text", "status", "kind",
                                 "payload_bytes", "n_chars"]
    assert set(ok.unique("status")) == {"ok"}


def test_textprep_composed(ray_session):
    """Composed prep pipeline: dedup + enrichment over a corpus with
    deliberate duplicate payloads."""
    import ray
    from pdf_extract_ray.pipelines.textprep import textprep_dataset
    in_dir = pages_parquet_path(N_ROWS, n_shards=4,
                                cache_dir="/tmp/pdf_extract_ray_test_cache")
    ds = ray.data.read_parquet(in_dir, columns=["url", "html"])
    df = textprep_dataset(ds, num_partitions=4).to_pandas()
    assert len(df) > 0
    # dedup contract: one row per distinct extracted text
    assert df["extracted_text"].nunique() == len(df)
    # enrichment present and sane
    assert (df["n_tokens"] >= 1).all()
    assert df["quality_score"].between(0, 1).all()
    assert set(df["pred_lang"]).issubset({"en", "de", "fr", "es", "hu", "und"})
    # survivors are the minimum url per text group
    full = {}
    tbl = make_pages_table(N_ROWS)
    from pdf_extract_ray.engine.html_extract import extract_html_text, sniff_payload
    from pdf_extract_ray.engine.api import extract_text_from_mem
    for url, payload in zip(tbl.column("url").to_pylist(),
                            tbl.column("html").to_pylist()):
        kind = sniff_payload(payload or b"")
        try:
            text = (extract_text_from_mem(payload) if kind == "pdf"
                    else extract_html_text(payload) if kind == "html" else "")
        except Exception:
            text = ""
        if text:
            full.setdefault(text, []).append(url)
    expect = {min(urls) for urls in full.values()}
    assert set(df["url"]) == expect


def test_textprep_checkpointed_resume(ray_session, tmp_path):
    """Two-phase resumable textprep: phase 1 reuses the extract manifest
    machinery (per-partition skip), phase 2 has an atomic completion
    marker; a partially-wiped job redoes only the missing pieces."""
    import os

    from pdf_extract_ray.data.pages import pages_parquet_path
    from pdf_extract_ray.pipelines.textprep import run_textprep
    src = pages_parquet_path(200, n_giants=0, n_shards=2)
    out = str(tmp_path / "tp")

    m1 = run_textprep(src, out, num_partitions=4)
    assert m1["rows_out"] > 0
    assert m1["extract"]["partitions"] == 2

    # full resume: marker short-circuits everything
    m2 = run_textprep(src, out, num_partitions=4)
    assert m2 == m1

    # partial resume: wipe the phase-2 marker + ONE extract manifest
    os.remove(os.path.join(out, "manifest", "textprep.json"))
    mans = sorted(os.listdir(os.path.join(out, "extracted", "manifest")))
    os.remove(os.path.join(out, "extracted", "manifest", mans[0]))
    m3 = run_textprep(src, out, num_partitions=4)
    assert m3["rows_out"] == m1["rows_out"]
    assert m3["extract"]["partitions"] == 1      # only the wiped one reran
    assert m3["extract"]["skipped_partitions"] == 1


def test_ccprep_composed_and_resume(ray_session, tmp_path):
    """Full CC-style chain: extract -> enrich -> exact dedup -> quality
    filter -> near-dup removal, with two-phase checkpoint resume."""
    import os

    import ray

    from pdf_extract_ray.data.pages import pages_parquet_path
    from pdf_extract_ray.pipelines.ccprep import ccprep_dataset, run_ccprep
    src = pages_parquet_path(200, n_giants=0, n_shards=2)

    ds = ray.data.read_parquet(src, columns=["url", "html"])
    df = ccprep_dataset(ds, min_quality=0.1, neardup_threshold=0.95) \
        .to_pandas()
    assert len(df) > 0
    assert (df.quality_score >= 0.1).all()
    assert df.doc_id.is_unique

    out = str(tmp_path / "cc")
    m1 = run_ccprep(src, out, min_quality=0.1, neardup_threshold=0.95)
    assert m1["rows_out"] == len(df)  # file path == lazy path
    m2 = run_ccprep(src, out, min_quality=0.1, neardup_threshold=0.95)
    assert m2 == m1  # marker short-circuit
    assert os.path.exists(os.path.join(out, "manifest", "ccprep.json"))


class TestReleasePipeline:
    SF = "/root/testdata/sf0.001"

    def _pages(self):
        import importlib.util
        import os

        import ray
        spec = importlib.util.spec_from_file_location(
            "entry_rel", os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "__ray_entry__.py"))
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        return ray.data.read_parquet(m._pages_dir(self.SF),
                                     columns=["url", "html"])

    def _run(self):
        from pdf_extract_ray.pipelines.release import release_dataset
        return release_dataset(
            self._pages(), min_quality=0.1, neardup_threshold=0.95) \
            .to_pandas().sort_values("seq_id").reset_index(drop=True)

    def test_deterministic_and_budgeted(self):
        import pandas as pd
        a, b = self._run(), self._run()
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0
        # budget: multi-doc sequences stay within max_tokens (256);
        # only single-doc sequences may exceed it
        multi = a[a["n_docs"] > 1]
        assert (multi["n_tokens"] <= 256).all()
        # shards bounded, ranks contiguous per shard
        assert a["shard"].between(0, 7).all()
        for _, sub in a.groupby("shard"):
            assert sorted(sub["pos"]) == list(range(1, len(sub) + 1))

    def test_eval_slice_and_contaminated_absent(self):
        import numpy as np
        from pdf_extract_ray.ops.corpus import decontaminate
        from pdf_extract_ray.pipelines.ccprep import ccprep_dataset
        import pyarrow as pa
        import ray
        surv = ccprep_dataset(self._pages(), min_quality=0.1,
                              neardup_threshold=0.95)
        docs = surv.map_batches(
            lambda b: pa.table({"doc_id": b.column("doc_id"),
                                "text": b.column("extracted_text")}),
            batch_format="pyarrow").materialize()
        flags = decontaminate(docs, n=13, bench_mod=97,
                              with_totals=True).to_pandas()
        hard = flags[(flags["n_grams"] > 0)
                     & (2 * flags["n_overlaps"] >= flags["n_grams"])]
        bad = set(hard["doc_id"])
        out = self._run()
        # no packed sequence may contain a bench-slice or contaminated
        # doc: seq_id is the first member id; verify via the member
        # count proxy — rebuild the clean set and repack must match
        clean = docs.to_pandas()
        clean = clean[(clean["doc_id"] % 97 != 0)
                      & ~clean["doc_id"].isin(bad)]
        total_clean_ids = set(clean["doc_id"])
        # every seq_id must be a clean doc id (seq_id = first member)
        assert set(out["seq_id"]).issubset(total_clean_ids)

    def test_run_release_checkpoint_and_resume(self, tmp_path):
        import importlib.util
        import json
        import os

        from pdf_extract_ray.pipelines.release import run_release
        spec = importlib.util.spec_from_file_location(
            "entry_rel2", os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "__ray_entry__.py"))
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        pages = m._pages_dir(self.SF)
        out = str(tmp_path / "rel")
        met = run_release(pages, out)
        assert met["rows_out"] > 0
        assert set(met["phases"]) >= {"ccprep", "decontaminate",
                                      "gopher_gate", "pack", "shard",
                                      "total"}
        # shard-partitioned layout on disk
        shards = [d for d in os.listdir(os.path.join(out, "release"))
                  if d.startswith("shard=")]
        assert len(shards) >= 1
        # resume returns the SAME manifest without recomputation
        met2 = run_release(pages, out)
        assert met2 == met
