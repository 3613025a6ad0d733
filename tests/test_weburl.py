"""URL parse/normalize kernels (ops/weburl.py): unit semantics on
tricky URLs, null/garbage totality, DuckDB differential for the two
oracled queries at sf0.001, and a real-URL pass over the synthetic
pages corpus (the input_hint (url, warc_ts, html, text, lang) shape)."""
import duckdb
import pandas as pd
import pytest

from pdf_extract_ray.ops import weburl


def parse_one(url):
    return weburl.parse_url_frame(pd.Series([url])).iloc[0]


def norm_one(url):
    return weburl.normalize_url_series(pd.Series([url])).iloc[0]


class TestParse:
    def test_basic(self):
        p = parse_one("https://WWW.Example.COM:8080/a/b/c.html?x=1#top")
        assert p["scheme"] == "https"
        assert p["host"] == "www.example.com"
        assert p["port"] == "8080"
        assert p["path"] == "/a/b/c.html"
        assert p["query"] == "x=1"
        assert p["fragment"] == "top"
        assert p["path_depth"] == 3
        assert p["has_query"]

    def test_root_and_empty_path_depth(self):
        assert parse_one("http://h/")["path_depth"] == 0
        assert parse_one("http://h")["path_depth"] == 0
        assert parse_one("http://h//a///b/")["path_depth"] == 2

    def test_userinfo(self):
        p = parse_one("ftp://user:pw@files.example.org/pub/x")
        assert p["userinfo"] == "user:pw"
        assert p["host"] == "files.example.org"

    def test_unparseable_is_total(self):
        for bad in ["", "not a url", "://nohost", "http://", None,
                    "mailto:someone@example.com"]:
            p = weburl.parse_url_frame(pd.Series([bad])).iloc[0]
            assert pd.isna(p["host"])
            assert p["path_depth"] == 0
            assert not p["has_query"]

    def test_query_without_value(self):
        p = parse_one("https://h/p?")
        assert not p["has_query"]


class TestNormalize:
    def test_canonical_fixture(self):
        noisy = ("HTTPS://News.Example.COM:443//world//story.html"
                 "?utm_source=tw&id=7&utm_medium=x#para-3")
        # scheme/host lowered, :443 stripped, slashes collapsed,
        # utm_* dropped (order of survivors kept), fragment dropped
        assert (norm_one(noisy)
                == "https://news.example.com/world/story.html?id=7")

    def test_non_default_port_kept(self):
        assert norm_one("http://h:8080/a") == "http://h:8080/a"
        assert norm_one("http://h:80/a") == "http://h/a"

    def test_empty_path_becomes_root(self):
        assert norm_one("https://h?a=1") == "https://h/?a=1"

    def test_all_utm_query_drops_question_mark(self):
        assert norm_one("https://h/p?utm_a=1&utm_b=2") == "https://h/p"

    def test_userinfo_dropped(self):
        assert norm_one("https://bob@h/p") == "https://h/p"

    def test_unparseable_normalizes_empty(self):
        assert norm_one("garbage") == ""
        assert norm_one(None) == ""


class TestQueriesDifferential:
    SF = "/root/testdata/sf0.001"

    @pytest.mark.parametrize("name", ["url_host_stats",
                                      "url_normalize_dedup"])
    def test_matches_duckdb(self, ray_session, name):
        import __ray_entry__ as entry
        got = entry.queries()[name](self.SF)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{self.SF}/documents.parquet')")
        want = con.execute(entry.oracle_sql()[name]).fetchdf()
        g = got.sort_values("host").reset_index(drop=True)
        w = want.sort_values("host").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            g[sorted(g.columns)], w[sorted(w.columns)], check_dtype=False)


class TestPagesCorpus:
    def test_parse_real_pages_urls(self, ray_session):
        import ray
        from pdf_extract_ray.data.pages import pages_parquet_path
        path = pages_parquet_path(60)
        ds = ray.data.read_parquet(path, columns=["url", "lang"])
        out = weburl.host_stats(ds).take_all()
        assert len(out) == 1  # single synthetic host
        row = out[0]
        assert row["host"] == "example.org"
        assert row["n_docs"] == 60
        assert row["depth_sum"] == 120  # /doc/NNNNNN -> depth 2 each


class TestRobotsFilter:
    def test_prefix_and_host_scoping(self, ray_session):
        import ray
        rules = [("a.com", "/private/"), ("a.com", "/tmp/")]
        ds = ray.data.from_pandas(pd.DataFrame({"url": [
            "https://a.com/private/x.html",   # blocked
            "https://a.com/privateer/x.html", # prefix has trailing /
            "https://b.com/private/x.html",   # other host: allowed
            "https://a.com/tmp/y",            # blocked
            "https://a.com/pub/z",            # allowed
        ]}))
        out = weburl.robots_filter(ds, rules).take_all()
        got = {r["url"]: r["blocked"] for r in out}
        assert got["https://a.com/private/x.html"] == 1
        assert got["https://a.com/privateer/x.html"] == 0
        assert got["https://b.com/private/x.html"] == 0
        assert got["https://a.com/tmp/y"] == 1
        assert got["https://a.com/pub/z"] == 0

    def test_empty_rules_allows_all(self, ray_session):
        import ray
        ds = ray.data.from_pandas(pd.DataFrame(
            {"url": ["https://a.com/x"]}))
        out = weburl.robots_filter(ds, []).take_all()
        assert out[0]["blocked"] == 0


class TestCrawlprep:
    def test_robots_dedup_then_extract(self, ray_session):
        """Planted noisy corpus: duplicates by canonical url keep
        exactly one survivor; robots-disallowed pages never reach the
        extractor; survivor extraction matches direct extraction."""
        import ray
        from pdf_extract_ray.data.pages import make_payload
        from pdf_extract_ray.pipelines.crawlprep import crawlprep_dataset

        payload = make_payload(3)
        rows = pd.DataFrame({
            "url": [
                "https://A.site.com:443/a/x.html?utm_s=1",  # dup of next
                "https://a.site.com/a/x.html",
                "https://a.site.com/private/secret.html",   # blocked
                "https://b.site.com/ok.html",
            ],
            "html": [payload] * 4,
        })
        out = crawlprep_dataset(
            ray.data.from_pandas(rows),
            rules=[("a.site.com", "/private/")],
            num_partitions=2).take_all()
        urls = sorted(r["url"] for r in out)
        # canonical dup: min original url survives ("https://A..." <
        # "https://a..." bytewise)
        assert urls == ["https://A.site.com:443/a/x.html?utm_s=1",
                        "https://b.site.com/ok.html"]
        assert all(r["status"] == "ok" for r in out)

    def test_no_rules_pass_through_counts(self, ray_session):
        import ray
        from pdf_extract_ray.data.pages import pages_parquet_path
        from pdf_extract_ray.pipelines.crawlprep import crawlprep_dataset
        path = pages_parquet_path(40)
        ds = ray.data.read_parquet(path, columns=["url", "html"])
        out = crawlprep_dataset(ds, num_partitions=2)
        assert out.count() == 40  # unique urls, nothing dropped


def test_crawlprep_checkpointed_resume(ray_session, tmp_path):
    """Two-phase resumable crawl-prep: urlprep writes survivors + an
    atomic marker; extraction reuses the per-partition manifest
    machinery.  Resume must re-pay NEITHER phase."""
    import os

    from pdf_extract_ray.data.pages import pages_parquet_path
    from pdf_extract_ray.pipelines.crawlprep import run_crawlprep
    src = pages_parquet_path(120, n_giants=0, n_shards=2)
    out = str(tmp_path / "cp")

    m1 = run_crawlprep(src, out,
                       rules=[("example.org", "/doc/00000")],
                       num_partitions=4)
    assert m1["urlprep"]["rows_in"] == 120
    assert m1["urlprep"]["dropped"] == 10     # /doc/00000x blocked
    assert m1["urlprep"]["survivors"] == 110
    assert m1["urlprep"]["wall_s"] > 0
    assert m1["extract"]["partitions"] >= 1

    # full resume: both markers short-circuit
    m2 = run_crawlprep(src, out,
                       rules=[("example.org", "/doc/00000")],
                       num_partitions=4)
    assert m2["urlprep"] == m1["urlprep"]
    assert m2["extract"]["skipped_partitions"] \
        == m1["extract"]["partitions"] + m1["extract"].get(
            "skipped_partitions", 0)


def test_crawlprep_nested_and_single_file_input(ray_session, tmp_path):
    """run_crawlprep takes its input the way run_extract does: every
    parquet file under a hive-style nested dir, or the one file a file
    path names."""
    import os

    import pyarrow.parquet as pq

    from pdf_extract_ray.data.pages import make_pages_table
    from pdf_extract_ray.pipelines.crawlprep import run_crawlprep
    tbl = make_pages_table(20)
    for k, day in enumerate(("2024-01-01", "2024-01-02")):
        part = tmp_path / "in" / f"day={day}"
        part.mkdir(parents=True)
        pq.write_table(tbl.slice(10 * k, 10), str(part / "pages.parquet"))

    nested = run_crawlprep(str(tmp_path / "in"), str(tmp_path / "nested"),
                           num_partitions=2)
    assert nested["urlprep"]["rows_in"] == 20
    assert nested["urlprep"]["survivors"] == 20
    assert nested["extract"]["rows"] == 20

    one = os.path.join(str(tmp_path / "in"), "day=2024-01-02",
                       "pages.parquet")
    single = run_crawlprep(one, str(tmp_path / "single"), num_partitions=2)
    assert single["urlprep"]["rows_in"] == 10
    assert single["extract"]["rows"] == 10


class TestNormalizerProperties:
    def test_idempotence_over_fuzz_corpus(self):
        """normalize(normalize(x)) == normalize(x): canonical forms
        must be fixed points, else crawl dedup depends on how many
        times a URL passed through the pipeline."""
        import random
        rng = random.Random(7)
        schemes = ["http", "https", "ftp", "ws"]
        hosts = ["A.B.com", "x.io", "EXAMPLE.org", "h", ""]
        ports = ["", ":80", ":443", ":8080", ":"]
        paths = ["", "/", "//a//b", "/x/y.html", "/%20z", "/" * 20]
        queries = ["", "?a=1", "?utm_a=1", "?utm_a=1&b=2&utm_c=3",
                   "?a=1&a=2", "?"]
        frags = ["", "#f", "##", "#a#b"]
        urls = []
        for _ in range(500):
            urls.append(rng.choice(schemes) + "://" + rng.choice(hosts)
                        + rng.choice(ports) + rng.choice(paths)
                        + rng.choice(queries) + rng.choice(frags))
        s = pd.Series(urls)
        once = weburl.normalize_url_series(s)
        twice = weburl.normalize_url_series(pd.Series(once.to_numpy()))
        pd.testing.assert_series_equal(once.reset_index(drop=True),
                                       twice.reset_index(drop=True))

    def test_total_on_garbage_bytes(self):
        """Random byte noise must parse to nulls, never raise."""
        import random
        rng = random.Random(13)
        junk = ["".join(chr(rng.randrange(1, 0x300))
                        for _ in range(rng.randrange(0, 60)))
                for _ in range(300)]
        parts = weburl.parse_url_frame(pd.Series(junk))
        assert len(parts) == 300
        norm = weburl.normalize_url_series(pd.Series(junk))
        assert len(norm) == 300


class TestRobotsParser:
    def test_groups_and_agent_fallback(self):
        txt = b"""# comment
User-agent: GoodBot
Disallow: /private/
Disallow: /tmp/

User-agent: OtherBot
User-agent: ThirdBot
Disallow: /shared/

User-agent: *
Disallow: /all/
Disallow:
"""
        from pdf_extract_ray.ops.weburl import parse_robots_txt
        assert parse_robots_txt(txt, "GoodBot") == ["/private/", "/tmp/"]
        # consecutive User-agent lines share the rule block
        assert parse_robots_txt(txt, "otherbot") == ["/shared/"]
        assert parse_robots_txt(txt, "thirdbot") == ["/shared/"]
        # unknown agent falls back to *; empty Disallow dropped
        assert parse_robots_txt(txt, "NobodyBot") == ["/all/"]

    def test_total_on_garbage(self):
        from pdf_extract_ray.ops.weburl import parse_robots_txt
        assert parse_robots_txt(b"\xff\xfe junk\nDisallow /oops") == []
        assert parse_robots_txt(b"") == []


class TestTitleExtraction:
    def test_title_unescaped_collapsed(self):
        from pdf_extract_ray.engine.html_extract import extract_title
        html = b"<html><head><title>\n  Tom &amp; Jerry \t Show " \
               b"</title></head><body>x</body></html>"
        assert extract_title(html) == "Tom & Jerry Show"

    def test_missing_and_garbage(self):
        from pdf_extract_ray.engine.html_extract import extract_title
        assert extract_title(b"<p>no title</p>") == ""
        assert extract_title(b"\x00\xff\x12garbage") == ""

    def test_page_titles_query(self, ray_session):
        import __ray_entry__ as entry
        out = entry.queries()["page_titles"]("/root/testdata/sf0.001")
        rows = out.take_all()
        assert len(rows) > 0
        titled = [r for r in rows if r["has_title"]]
        assert titled  # article pages carry <title>
        assert all(r["title"] for r in titled)


class TestIntrospectionOps:
    def test_boilerplate_stats_counts(self, ray_session):
        import __ray_entry__ as entry
        rows = entry.queries()["boilerplate_stats"](
            "/root/testdata/sf0.001").take_all()
        assert rows
        html_rows = [r for r in rows if r["n_blocks"] > 0]
        assert html_rows  # corpus contains html pages
        for r in html_rows:
            assert 0 <= r["n_kept"] <= r["n_blocks"]
            assert 0 <= r["kept_chars"] <= r["total_chars"]

    def test_parquet_layout_audit(self, ray_session):
        import __ray_entry__ as entry
        df = entry.queries()["parquet_layout_audit"](
            "/root/testdata/sf0.001")
        assert set(df["table_name"]) >= {"documents", "orders",
                                         "lineitem", "events"}
        assert (df["n_rows"] > 0).all()
        assert (df["data_bytes"] > 0).all()
