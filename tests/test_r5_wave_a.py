"""Round-5 wave A op kernels: hand-computed expectations independent
of the DuckDB oracle (C4 line filter, probe locator, mojibake audit,
l-diversity, Cohen's d, partial correlation)."""
import math
import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df):
    import ray
    return ray.data.from_pandas(df)


@pytest.mark.usefixtures("ray_session")
class TestC4LineFilter:
    def test_rules_on_handcrafted_lines(self):
        from pdf_extract_ray.ops.corpus import c4_line_filter
        text = "\n".join([
            "a good long sentence here.",     # kept
            "short.",                         # < 3 words
            "no terminal punctuation at all",  # no terminal
            "uses javascript code today.",    # banned term
            "ends with a bang!",              # kept
            "Lorem Ipsum dolor sit amet.",    # banned (case-insensitive)
            "brace { in the line.",           # banned
            'quoted line stays in."',         # kept (quote terminal)
        ])
        out = c4_line_filter(_ds(pd.DataFrame(
            {"doc_id": [1], "text": [text]}))).to_pandas()
        assert len(out) == 1
        r = out.iloc[0]
        assert r["n_lines_total"] == 8
        assert r["n_lines_kept"] == 3
        assert r["text"] == ("a good long sentence here.\n"
                             "ends with a bang!\n"
                             'quoted line stays in."')

    def test_min_lines_drops_doc(self):
        from pdf_extract_ray.ops.corpus import c4_line_filter
        out = c4_line_filter(_ds(pd.DataFrame({
            "doc_id": [1, 2],
            "text": ["only one good line here.\nbad",
                     "first good line here.\nsecond good line here."],
        }))).to_pandas()
        assert out["doc_id"].tolist() == [2]

    def test_empty_and_null(self):
        from pdf_extract_ray.ops.corpus import c4_line_filter
        out = c4_line_filter(_ds(pd.DataFrame({
            "doc_id": pd.array([1, None], dtype="Int64"),
            "text": [None, "x."]}))).to_pandas()
        # all rows filtered: empty result (Ray 2.49 empty Datasets drop
        # block schema at to_pandas — rows, not columns, are the contract)
        assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
class TestProbePositions:
    def test_offsets_and_counts(self):
        from pdf_extract_ray.ops.corpus import probe_positions
        out = probe_positions(_ds(pd.DataFrame({
            "doc_id": [1, 2],
            "text": ["xx ab yy ab zz", "no hits here"]})),
            ["ab", "zz"]).to_pandas()
        out = out.sort_values(["doc_id", "probe"]).reset_index(drop=True)
        assert out[["doc_id", "probe", "first_pos", "n_hits"]] \
            .values.tolist() == [[1, "ab", 3, 2], [1, "zz", 12, 1]]

    def test_nonoverlapping_count_semantics(self):
        from pdf_extract_ray.ops.corpus import probe_positions
        out = probe_positions(_ds(pd.DataFrame(
            {"doc_id": [1], "text": ["aaa"]})), ["aa"]).to_pandas()
        # python str semantics: 'aaa'.count('aa') == 1 (non-overlap),
        # matching the oracle's replace-length trick
        assert out["n_hits"].tolist() == [1]
        assert out["first_pos"].tolist() == [0]

    def test_regex_metachars_are_literal(self):
        from pdf_extract_ray.ops.corpus import probe_positions
        out = probe_positions(_ds(pd.DataFrame(
            {"doc_id": [1], "text": ["price (a+b) here"]})),
            ["(a+b)"]).to_pandas()
        assert out["n_hits"].tolist() == [1]
        assert out["first_pos"].tolist() == [6]


@pytest.mark.usefixtures("ray_session")
class TestMojibakeAudit:
    def test_detects_planted_markers(self):
        from pdf_extract_ray.ops.textstats import mojibake_audit
        out = mojibake_audit(_ds(pd.DataFrame({
            "source": ["s1", "s1", "s1", "s2"],
            "text": ["clean ascii", "cafÃ© damage", "smart â€œquote",
                     "naïve but genuine"]}))).to_pandas()
        out = out.set_index("source")
        assert out.loc["s1", "n_docs"] == 3
        assert out.loc["s1", "n_mojibake_docs"] == 2
        assert out.loc["s1", "n_nonascii_docs"] == 2
        assert out.loc["s1", "mojibake_ppm"] == 666_666
        # genuine non-ASCII is NOT mojibake
        assert out.loc["s2", "n_mojibake_docs"] == 0
        assert out.loc["s2", "n_nonascii_docs"] == 1

    def test_replacement_char(self):
        from pdf_extract_ray.ops.textstats import mojibake_audit
        out = mojibake_audit(_ds(pd.DataFrame({
            "source": ["s"], "text": ["bad � byte"]}))).to_pandas()
        assert out["n_mojibake_docs"].tolist() == [1]


@pytest.mark.usefixtures("ray_session")
class TestLDiversity:
    def test_flags_single_lang_groups(self):
        from pdf_extract_ray.ops.analytics import l_diversity_audit
        df = pd.DataFrame({
            "source": ["a"] * 3 + ["b"] * 2,
            "n_chars": [10, 20, 70, 10, 20],   # buckets 0,0,1 | 0,0
            "lang": ["en", "de", "en", "fr", "fr"]})
        out = l_diversity_audit(_ds(df))
        out = (out.to_pandas() if not isinstance(out, pd.DataFrame)
               else out)
        out = out.set_index(["source", "size_class"]).sort_index()
        assert out.loc[("a", 0), "l_distinct"] == 2
        assert bool(out.loc[("a", 0), "l_ok"])
        assert out.loc[("a", 1), "l_distinct"] == 1
        assert not bool(out.loc[("a", 1), "l_ok"])
        assert out.loc[("b", 0), "l_distinct"] == 1
        assert not bool(out.loc[("b", 0), "l_ok"])

    def test_null_lang_counts_as_und(self):
        from pdf_extract_ray.ops.analytics import l_diversity_audit
        df = pd.DataFrame({"source": ["a", "a"], "n_chars": [1, 2],
                           "lang": [None, "en"]})
        out = l_diversity_audit(_ds(df))
        out = (out.to_pandas() if not isinstance(out, pd.DataFrame)
               else out)
        assert out["l_distinct"].tolist() == [2]


@pytest.mark.usefixtures("ray_session")
class TestEffectSize:
    def test_matches_textbook_formula(self):
        from pdf_extract_ray.ops.analytics import effect_size_by_group
        rng = np.random.RandomState(4)
        df = pd.DataFrame({
            "g": ["a"] * 30 + ["b"] * 50,
            "v": np.r_[rng.randint(50, 100, 30),
                       rng.randint(80, 160, 50)].astype(np.int64)})
        out = effect_size_by_group(_ds(df), "g", "v").set_index("g")
        for g in ("a", "b"):
            s = df[df.g == g]["v"].to_numpy(float)
            r = df[df.g != g]["v"].to_numpy(float)
            pooled = ((len(s) - 1) * s.var(ddof=1)
                      + (len(r) - 1) * r.var(ddof=1)) \
                / (len(s) + len(r) - 2)
            want = (s.mean() - r.mean()) / math.sqrt(pooled)
            assert out.loc[g, "d"] == pytest.approx(want, rel=1e-12)

    def test_degenerate_single_group(self):
        from pdf_extract_ray.ops.analytics import effect_size_by_group
        out = effect_size_by_group(_ds(pd.DataFrame(
            {"g": ["a"] * 5, "v": [1, 2, 3, 4, 5]})), "g", "v")
        assert len(out) == 0  # no rest to compare against


@pytest.mark.usefixtures("ray_session")
class TestPartialCorr:
    def test_matches_numpy(self):
        from pdf_extract_ray.ops.analytics import partial_corr_three
        rng = np.random.RandomState(11)
        z = rng.randint(0, 50, 200)
        x = z * 3 + rng.randint(0, 30, 200)
        y = z * 2 + rng.randint(0, 30, 200)
        df = pd.DataFrame({"x": x, "y": y, "z": z}).astype(np.int64)
        out = partial_corr_three(_ds(df), "x", "y", "z")
        c = np.corrcoef(np.stack([x, y, z]))
        want = (c[0, 1] - c[0, 2] * c[1, 2]) \
            / math.sqrt((1 - c[0, 2] ** 2) * (1 - c[1, 2] ** 2))
        assert out["partial_r"].iloc[0] == pytest.approx(want, rel=1e-9)
        # partialling out the common driver must shrink the correlation
        assert abs(out["partial_r"].iloc[0]) < abs(out["r_xy"].iloc[0])

    def test_constant_column_empty(self):
        from pdf_extract_ray.ops.analytics import partial_corr_three
        df = pd.DataFrame({"x": [1, 2, 3], "y": [4, 5, 6],
                           "z": [7, 7, 7]}).astype(np.int64)
        out = partial_corr_three(_ds(df), "x", "y", "z")
        assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
class TestLineDfRemoval:
    def test_boilerplate_removed_everywhere(self):
        from pdf_extract_ray.ops.corpus import line_df_removal
        boiler = "all rights reserved"
        docs = pd.DataFrame({
            "doc_id": range(6),
            "text": [f"unique line {i}\n{boiler}" for i in range(5)]
            + ["only unique content"]})
        out = line_df_removal(_ds(docs), df_threshold=5).to_pandas() \
            .set_index("doc_id").sort_index()
        for i in range(5):
            assert out.loc[i, "text"] == f"unique line {i}"
            assert out.loc[i, "n_lines_removed"] == 1
        assert out.loc[5, "text"] == "only unique content"
        assert out.loc[5, "n_lines_removed"] == 0

    def test_threshold_not_met_keeps_lines(self):
        from pdf_extract_ray.ops.corpus import line_df_removal
        docs = pd.DataFrame({
            "doc_id": [1, 2], "text": ["shared line", "shared line"]})
        out = line_df_removal(_ds(docs), df_threshold=3).to_pandas()
        assert (out["n_lines_removed"] == 0).all()

    def test_within_doc_repeats_count_once(self):
        from pdf_extract_ray.ops.corpus import line_df_removal
        # the same line 10x within ONE doc is df=1, not df=10
        docs = pd.DataFrame({
            "doc_id": [1], "text": ["\n".join(["rep"] * 10)]})
        out = line_df_removal(_ds(docs), df_threshold=2).to_pandas()
        assert out["n_lines_removed"].tolist() == [0]
        assert out["n_lines_total"].tolist() == [10]

    def test_fully_removed_doc_stays_with_empty_text(self):
        from pdf_extract_ray.ops.corpus import line_df_removal
        docs = pd.DataFrame({
            "doc_id": [1, 2, 3], "text": ["b", "b", "b"]})
        out = line_df_removal(_ds(docs), df_threshold=3).to_pandas()
        assert len(out) == 3
        assert (out["text"] == "").all()


@pytest.mark.usefixtures("ray_session")
class TestSkipgramCounts:
    def test_window2_pairs(self):
        from pdf_extract_ray.ops.corpus import skipgram_counts
        out = skipgram_counts(_ds(pd.DataFrame(
            {"text": ["a b c"]})), window=2, top_k=10)
        got = {(r.w1, r.w2): r.cnt for r in out.itertuples()}
        assert got == {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}

    def test_no_cross_document_pairs(self):
        from pdf_extract_ray.ops.corpus import skipgram_counts
        out = skipgram_counts(_ds(pd.DataFrame(
            {"text": ["x y", "y z"]})), window=2, top_k=10)
        got = {(r.w1, r.w2) for r in out.itertuples()}
        assert ("y", "z") in got and ("x", "z") not in got

    def test_topk_tie_order(self):
        from pdf_extract_ray.ops.corpus import skipgram_counts
        out = skipgram_counts(_ds(pd.DataFrame(
            {"text": ["a b", "c d"]})), window=1, top_k=1)
        # equal counts -> lexicographically smallest pair wins
        assert out[["w1", "w2"]].values.tolist() == [["a", "b"]]


@pytest.mark.usefixtures("ray_session")
class TestMadAnomalies:
    def test_outlier_scores(self):
        from pdf_extract_ray.ops.analytics import mad_anomalies
        # group a: values 10,10,10,10,100 -> med 10, mad 0 -> clamp 1
        df = pd.DataFrame({
            "doc_id": range(5),
            "source": ["a"] * 5,
            "n_chars": [10, 10, 10, 10, 100]})
        out = mad_anomalies(_ds(df), "source", "n_chars", top_k=2)
        assert out["doc_id"].tolist()[0] == 4
        # dev_x2 = |200-20| = 180; mad_x4 clamped to 1
        assert out["dev_x2"].iloc[0] == 180
        assert out["score_ppm"].iloc[0] == 180 * 2_000_000

    def test_even_count_median_units(self):
        from pdf_extract_ray.ops.analytics import mad_anomalies
        df = pd.DataFrame({
            "doc_id": range(4), "source": ["s"] * 4,
            "n_chars": [1, 3, 5, 7]})  # m2 = 3+5 = 8
        out = mad_anomalies(_ds(df), "source", "n_chars", top_k=10)
        # devs_x2 of 2v-8: |2-8|=6,|6-8|=2,|10-8|=2,|14-8|=6
        # mad_x4 = 2+6 = 8 (middle two of 2,2,6,6)
        assert sorted(out["dev_x2"].tolist()) == [2, 2, 6, 6]
        top = out.iloc[0]
        assert top["score_ppm"] == 6 * 2_000_000 // 8


@pytest.mark.usefixtures("ray_session")
class TestKnDiscountCounts:
    def test_counts_and_fans(self):
        from pdf_extract_ray.ops.corpus import kn_discount_counts
        # 'b' follows a and c; 'b' precedes c and a
        out = kn_discount_counts(_ds(pd.DataFrame({
            "text": ["a b c", "c b a", "a b"]})), top_k=10) \
            .set_index("word")
        assert out.loc["b", "cnt"] == 3
        assert out.loc["b", "n_left"] == 2   # {a, c}
        assert out.loc["b", "n_right"] == 2  # {c, a}
        assert out.loc["a", "n_left"] == 1   # only b precedes a
        # first word of a doc has no left context from that doc
        assert out.loc["c", "n_right"] == 1  # only b follows c

    def test_no_cross_doc_contexts(self):
        from pdf_extract_ray.ops.corpus import kn_discount_counts
        out = kn_discount_counts(_ds(pd.DataFrame({
            "text": ["x", "y"]})), top_k=10).set_index("word")
        assert (out["n_left"] == 0).all()
        assert (out["n_right"] == 0).all()


@pytest.mark.usefixtures("ray_session")
class TestCmsOracleTable:
    def test_one_sided_and_exact_when_no_collisions(self):
        from pdf_extract_ray.ops.sketch import cms_oracle_table
        out = cms_oracle_table(_ds(pd.DataFrame({
            "text": ["a a a b b c"]})), depth=4, width=512, top_k=10)
        out = out.set_index("word")
        assert (out["overcount"] >= 0).all()
        # 3 words in 512 cells x 4 rows: collisions in ALL rows are
        # overwhelmingly unlikely -> estimates exact
        assert out.loc["a", "est_cnt"] == 3
        assert out.loc["b", "true_cnt"] == 2

    def test_forced_collision_overcounts(self):
        from pdf_extract_ray.ops.sketch import cms_oracle_table
        # width=1: every word shares the single cell per row
        docs = pd.DataFrame({"text": ["a a a b"]})
        out = cms_oracle_table(_ds(docs), depth=2, width=1, top_k=10) \
            .set_index("word")
        assert out.loc["a", "est_cnt"] == 4
        assert out.loc["b", "est_cnt"] == 4
        assert out.loc["b", "overcount"] == 3

    def test_md5_cell_matches_duckdb(self):
        import duckdb
        from pdf_extract_ray.ops.sketch import _md5_cell
        con = duckdb.connect()
        for w, i in [("hello", 0), ("world", 3), ("Ã¡", 1)]:
            want = con.execute(
                "SELECT CAST(('0x' || substr(md5(? || ':' || ?), 1, "
                "15)) AS BIGINT) % 512", [w, i]).fetchone()[0]
            assert int(_md5_cell([w], i, 512)[0]) == want


@pytest.mark.usefixtures("ray_session")
class TestC4Prep:
    def test_chain_and_dedup(self):
        from pdf_extract_ray.ops.corpus import c4prep_docs
        good = "one good line here.\nanother good line here."
        docs = pd.DataFrame({
            "doc_id": [5, 3, 9],
            "text": [good, good, "unkept"]})
        out = c4prep_docs(_ds(docs), df_threshold=5)
        out = out.to_pandas() if not isinstance(out, pd.DataFrame) \
            else out
        # doc 9 fails line quality; 5 and 3 identical -> keep min (3)
        assert out["doc_id"].tolist() == [3]
        assert out["n_lines"].tolist() == [2]
        assert out["text"].iloc[0] == good

    def test_boilerplate_removed_then_dedup(self):
        from pdf_extract_ray.ops.corpus import c4prep_docs
        boiler = "all rights reserved to us."
        docs = pd.DataFrame({
            "doc_id": range(6),
            "text": [f"unique useful line {i} stays.\n"
                     f"second useful line {i} stays.\n" + boiler
                     for i in range(6)]})
        out = c4prep_docs(_ds(docs), df_threshold=5)
        out = out.to_pandas() if not isinstance(out, pd.DataFrame) \
            else out
        assert len(out) == 6
        assert not out["text"].str.contains("rights reserved").any()
        assert (out["n_lines"] == 2).all()


@pytest.mark.usefixtures("ray_session")
class TestWinsorizedMean:
    def test_clamps_outlier(self):
        from pdf_extract_ray.ops.analytics import winsorized_mean_mad
        # values 10,12,14,1000: m2=26, mad4=... devs_x2 of 2v-26:
        # |20-26|=6,|24-26|=2,|28-26|=2,|2000-26|=1974
        # sorted 2,2,6,1974 -> mad4 = 6+2 = 8; k=3 -> clamp to
        # [2*26-24, 2*26+24] = [28, 76] in x4 units
        df = pd.DataFrame({"g": ["s"] * 4,
                           "v": [10, 12, 14, 1000]})
        out = winsorized_mean_mad(_ds(df), "g", "v").to_pandas()
        # 4v = 40,48,56,4000 -> clip to 28..76 -> 40,48,56,76
        assert out["sum_clamped4"].tolist() == [40 + 48 + 56 + 76]
        assert out["wmean_milli"].tolist() == [220 * 1000 // 16]

    def test_no_outliers_equals_mean(self):
        from pdf_extract_ray.ops.analytics import winsorized_mean_mad
        df = pd.DataFrame({"g": ["s"] * 5, "v": [10, 11, 12, 13, 14]})
        out = winsorized_mean_mad(_ds(df), "g", "v").to_pandas()
        assert out["wmean_milli"].tolist() == [12 * 1000]


@pytest.mark.usefixtures("ray_session")
class TestPrCurve:
    def test_confusion_counts(self):
        from pdf_extract_ray.ops.classifier import pr_curve
        df = pd.DataFrame({
            "score_milli": [950, 800, 600, 400, 100],
            "label": [True, True, False, True, False]})
        out = pr_curve(_ds(df), thresholds=(500,)).to_pandas()
        r = out.iloc[0]
        assert (r["tp"], r["fp"], r["fn"], r["tn"]) == (2, 1, 1, 1)
        assert r["precision_ppm"] == 2 * 1_000_000 // 3
        assert r["recall_ppm"] == 2 * 1_000_000 // 3

    def test_zero_denominator_sentinel(self):
        from pdf_extract_ray.ops.classifier import pr_curve
        df = pd.DataFrame({"score_milli": [100], "label": [False]})
        out = pr_curve(_ds(df), thresholds=(500,)).to_pandas()
        assert out["precision_ppm"].tolist() == [-1]
        assert out["recall_ppm"].tolist() == [-1]


@pytest.mark.usefixtures("ray_session")
class TestBiasModel:
    def test_single_user_single_item_fits_exactly(self):
        from pdf_extract_ray.ops.classifier import bias_model
        df = pd.DataFrame({"user_id": [1, 1, 1],
                           "event_type": ["a", "a", "a"],
                           "value": [10.0, 10.0, 10.0]})
        out = bias_model(_ds(df))
        # mu=10, all residuals 0 at every stage
        assert out["resid_abs_sum"].tolist() == [0]
        assert out["b_i"].tolist() == [0]

    def test_item_offsets_recovered(self):
        from pdf_extract_ray.ops.classifier import bias_model
        # two users with personal levels, item b always +6 over item a
        rows = []
        for u, lvl in [(1, 20), (2, 40)]:
            for it, off in [("a", 0), ("b", 6)]:
                rows.append({"user_id": u, "event_type": it,
                             "value": float(lvl + off)})
        out = bias_model(_ds(pd.DataFrame(rows))).set_index("it")
        # model separates item offsets around their mean (+-3)
        assert out.loc["b", "b_i"] - out.loc["a", "b_i"] == 6
        assert out["resid_abs_sum"].sum() == 0

    def test_truncating_division_parity(self):
        import duckdb
        from pdf_extract_ray.ops.classifier import bias_model
        # negative residual means exercise the sign*(|s|//n) form;
        # compare against DuckDB running the same unrolled SQL
        rng = np.random.RandomState(7)
        df = pd.DataFrame({
            "user_id": rng.randint(0, 5, 40),
            "event_type": rng.choice(["x", "y", "z"], 40),
            "value": rng.randint(-50, 50, 40).astype(float)})
        got = bias_model(_ds(df)).set_index("it")
        con = duckdb.connect()
        con.register("events", df)
        import importlib.util, os
        spec = importlib.util.spec_from_file_location(
            "m_bias", os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "__ray_entry__.py"))
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        want = con.execute(m.oracle_sql()["bias_model_biases"]) \
            .fetchdf().set_index("it")
        for it in want.index:
            assert got.loc[it, "b_i"] == want.loc[it, "b_i"], it
            assert got.loc[it, "resid_abs_sum"] \
                == want.loc[it, "resid_abs_sum"], it


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingExactDedup:
    def test_planted_duplicates_collapse(self):
        from pdf_extract_ray.ops.similarity import embedding_exact_dedup
        v = [0.5] * 4
        df = pd.DataFrame({
            "vec_id": [3, 1, 2, 9],
            "embedding": [v, v, [0.1] * 4, v]})
        out = embedding_exact_dedup(_ds(df)).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)
        assert out["vec_id"].tolist() == [1, 2]
        assert out.set_index("vec_id")["n_dups"].to_dict() \
            == {1: 3, 2: 1}

    def test_quantization_boundary(self):
        from pdf_extract_ray.ops.similarity import embedding_exact_dedup
        # 0.0011 and 0.0019 both floor to 1 at scale 1000 -> dup;
        # 0.0021 floors to 2 -> distinct
        df = pd.DataFrame({
            "vec_id": [1, 2, 3],
            "embedding": [[0.0011], [0.0019], [0.0021]]})
        out = embedding_exact_dedup(_ds(df)).to_pandas()
        assert sorted(out["n_dups"].tolist()) == [1, 2]


@pytest.mark.usefixtures("ray_session")
class TestKnnLabelEval:
    def test_majority_vote_and_ties(self):
        from pdf_extract_ray.ops.similarity import knn_label_eval
        # query 0 at origin-ish; 3 close label-1 vecs, 2 close label-2
        rows = [
            {"vec_id": 0, "embedding": [1.0, 0.0], "label": 1},
            {"vec_id": 1, "embedding": [0.9, 0.1], "label": 1},
            {"vec_id": 2, "embedding": [0.9, 0.0], "label": 1},
            {"vec_id": 3, "embedding": [0.8, 0.1], "label": 1},
            {"vec_id": 4, "embedding": [0.8, 0.0], "label": 2},
            {"vec_id": 5, "embedding": [0.7, 0.1], "label": 2},
        ]
        out = knn_label_eval(_ds(pd.DataFrame(rows)), n_queries=1, k=5)
        assert out["query_id"].tolist() == [0]
        assert out["pred_label"].tolist() == [1]
        assert out["correct"].tolist() == [True]

    def test_vote_tie_smallest_label(self):
        from pdf_extract_ray.ops.similarity import knn_label_eval
        rows = [
            {"vec_id": 0, "embedding": [1.0], "label": 9},
            {"vec_id": 1, "embedding": [0.9], "label": 5},
            {"vec_id": 2, "embedding": [0.8], "label": 3},
        ]
        out = knn_label_eval(_ds(pd.DataFrame(rows)), n_queries=1, k=2)
        # one vote each for 5 and 3 -> smallest label wins
        assert out["pred_label"].tolist() == [3]

    def test_null_embedding_matches_duckdb(self):
        """A NULL embedding is a zero vector on both sides: with
        components of both signs its zero dot beats the negative dots
        and lands inside queries' top 5, where its label (the smallest,
        every other label distinct) wins the vote tie."""
        import importlib.util

        import duckdb
        from pdf_extract_ray.ops.similarity import knn_label_eval
        rng = np.random.RandomState(5)
        embs = [rng.uniform(-1.0, 1.0, 64).tolist() for _ in range(8)]
        embs[3] = None
        df = pd.DataFrame({"vec_id": range(8), "embedding": embs,
                           "label": [0 if i == 3 else 10 + i
                                     for i in range(8)]})
        got = knn_label_eval(_ds(df)).sort_values("query_id") \
            .reset_index(drop=True)
        assert (got["pred_label"] == 0).any()
        spec = importlib.util.spec_from_file_location(
            "m_knn", os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "__ray_entry__.py"))
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        con = duckdb.connect()
        con.register("embeddings", df)
        want = con.execute(m.oracle_sql()["knn_label_eval"]).fetchdf() \
            .sort_values("query_id").reset_index(drop=True)
        assert got.to_dict("list") == want.to_dict("list")


@pytest.mark.usefixtures("ray_session")
class TestL1LineFit:
    def test_recovers_exact_line(self):
        from pdf_extract_ray.ops.analytics import l1_line_fit
        x = np.arange(1, 30, dtype=np.int64)
        df = pd.DataFrame({"x": x, "y": 4 * x + 7})
        out = l1_line_fit(_ds(df), "x", "y")
        assert out.iloc[0].tolist() == [4, 7, 0]

    def test_robust_to_outliers(self):
        from pdf_extract_ray.ops.analytics import l1_line_fit
        x = np.arange(1, 40, dtype=np.int64)
        y = 3 * x + 2
        y[:3] = 10_000  # gross outliers OLS would chase
        out = l1_line_fit(_ds(pd.DataFrame({"x": x, "y": y})), "x", "y")
        assert out["slope"].tolist() == [3]
        assert out["intercept"].tolist() == [2]

    def test_lower_median_even_count(self):
        from pdf_extract_ray.ops.analytics import l1_line_fit
        # slope 0 only: residuals = y; even count -> LOWER median
        df = pd.DataFrame({"x": [0, 0, 0, 0], "y": [1, 3, 5, 7]})
        out = l1_line_fit(_ds(df), "x", "y", slopes=(0,))
        assert out["intercept"].tolist() == [3]
        assert out["l1_loss"].tolist() == [2 + 0 + 2 + 4]


@pytest.mark.usefixtures("ray_session")
class TestCrawlSchedule:
    def test_slots_and_delays(self):
        from pdf_extract_ray.ops.weburl import crawl_schedule
        urls = ["https://aa.com/1", "https://aa.com/0",
                "https://bbb.com/x", "not a url"]
        out = crawl_schedule(_ds(pd.DataFrame({"url": urls}))) \
            .to_pandas().sort_values(["host", "slot"]) \
            .reset_index(drop=True)
        # unparseable url absent; aa.com FIFO by url asc
        assert len(out) == 3
        a = out[out.host == "aa.com"]
        assert a["url"].tolist() == ["https://aa.com/0",
                                     "https://aa.com/1"]
        assert a["slot"].tolist() == [0, 1]
        # delay = (len('aa.com') % 4 + 1) * 500 = (6%4+1)*500 = 1500
        assert a["fetch_at_ms"].tolist() == [0, 1500]

    def test_hosts_independent(self):
        from pdf_extract_ray.ops.weburl import crawl_schedule
        urls = [f"https://h{i}.com/p" for i in range(5)]
        out = crawl_schedule(_ds(pd.DataFrame({"url": urls}))) \
            .to_pandas()
        assert (out["slot"] == 0).all()
        assert (out["fetch_at_ms"] == 0).all()


@pytest.mark.usefixtures("ray_session")
class TestBucketedJoin:
    def test_bucket_local_equals_global(self, tmp_path):
        from pdf_extract_ray.ops.relational import bucketed_join_counts
        left = pd.DataFrame({"k": np.arange(40, dtype=np.int64)})
        rng = np.random.RandomState(3)
        right = pd.DataFrame(
            {"k2": rng.randint(0, 60, 200).astype(np.int64)})
        out = bucketed_join_counts(
            _ds(left), _ds(right), str(tmp_path / "bj"),
            left_key="k", right_key="k2", n_buckets=8).to_pandas()
        assert len(out) == 8
        assert out["n_left"].sum() == 40
        assert out["n_right"].sum() == 200
        want = int(pd.Series(right["k2"])
                   .isin(set(left["k"])).sum())
        assert out["n_joined"].sum() == want
        # bucket locality: every row's keys share bucket residue
        for _, r in out.iterrows():
            assert r["n_left"] == ((left["k"] % 8)
                                   == r["bucket"]).sum()

    def test_query_removes_its_temp_dir(self, tmp_path):
        """The `bucketed_join` query writes its bucketed copies to a temp
        dir and must delete it, without changing its rows."""
        import glob
        import importlib.util

        import pyarrow.parquet as pq
        spec = importlib.util.spec_from_file_location(
            "entry_mod_bucketed", os.path.join(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))),
                "__ray_entry__.py"))
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        rng = np.random.RandomState(3)
        users = rng.randint(0, 60, 200).astype(np.int64)
        pq.write_table(pa.table({"c_custkey": np.arange(40, dtype=np.int64)}),
                       str(tmp_path / "customer.parquet"))
        pq.write_table(pa.table({"user_id": users}),
                       str(tmp_path / "events.parquet"))
        pattern = os.path.join(tempfile.gettempdir(), "bucketed_join_*")
        before = set(glob.glob(pattern))
        out = m._q_bucketed_join(str(tmp_path)).to_pandas()
        assert set(glob.glob(pattern)) <= before
        assert sorted(out["bucket"]) == list(range(16))
        assert out["n_left"].sum() == 40
        assert out["n_right"].sum() == 200
        assert out["n_joined"].sum() == int((users < 40).sum())


@pytest.mark.usefixtures("ray_session")
class TestBloomAntiAudit:
    def test_counts_reconcile(self):
        from pdf_extract_ray.ops.sketch import bloom_anti_audit
        dim = pd.DataFrame({"k": np.arange(50, dtype=np.int64)})
        rng = np.random.RandomState(5)
        fact = pd.DataFrame(
            {"u": rng.randint(0, 200, 500).astype(np.int64)})
        out = bloom_anti_audit(_ds(dim), _ds(fact),
                               dim_key="k", fact_key="u")
        r = out.iloc[0]
        true_anti = int((~fact["u"].isin(set(range(50)))).sum())
        assert r["anti_join_n"] == true_anti
        assert r["n_bloom_negative"] + r["n_bloom_positive"] \
            == r["n_probes"] == 500
        # members always pass the filter (no false negatives)
        members = int(fact["u"].isin(set(range(50))).sum())
        assert r["n_bloom_positive"] - r["n_false_pos"] == members

    def test_tiny_filter_forces_false_positives(self):
        from pdf_extract_ray.ops.sketch import bloom_anti_audit
        dim = pd.DataFrame({"k": np.arange(30, dtype=np.int64)})
        fact = pd.DataFrame(
            {"u": np.arange(30, 200, dtype=np.int64)})
        out = bloom_anti_audit(_ds(dim), _ds(fact), dim_key="k",
                               fact_key="u", m_bits=64, k=2)
        r = out.iloc[0]
        assert r["n_false_pos"] > 0  # saturated filter must FP
        assert r["anti_join_n"] == 170  # exact anti count still right


@pytest.mark.usefixtures("ray_session")
class TestEtaSquaredAndRankBiserial:
    def test_eta_zero_when_groups_identical(self):
        from pdf_extract_ray.ops.analytics import eta_squared
        df = pd.DataFrame({"g": ["a", "a", "b", "b"],
                           "v": [5, 7, 5, 7]})
        out = eta_squared(_ds(df), "g", "v")
        assert out["eta2_ppm"].tolist() == [0]

    def test_eta_one_when_groups_separated(self):
        from pdf_extract_ray.ops.analytics import eta_squared
        df = pd.DataFrame({"g": ["a"] * 3 + ["b"] * 3,
                           "v": [10, 10, 10, 90, 90, 90]})
        out = eta_squared(_ds(df), "g", "v")
        # all variance between groups -> eta2 ~ 1 (floor-quantized)
        assert out["eta2_ppm"].iloc[0] >= 999_000

    def test_rank_biserial_extremes(self):
        from pdf_extract_ray.ops.analytics import rank_biserial
        # all of A below all of B -> U_A = 0 -> r = 1
        df = pd.DataFrame({"g": ["A"] * 3 + ["B"] * 3,
                           "v": [1, 2, 3, 10, 11, 12]})
        out = rank_biserial(_ds(df), "g", "v", "A", "B")
        assert out["rank_biserial_ppm"].tolist() == [1_000_000]
        # reversed -> r = -1
        out2 = rank_biserial(_ds(df), "g", "v", "B", "A")
        assert out2["rank_biserial_ppm"].tolist() == [-1_000_000]

    def test_rank_biserial_balanced(self):
        from pdf_extract_ray.ops.analytics import rank_biserial
        df = pd.DataFrame({"g": ["A", "B", "A", "B"],
                           "v": [1, 2, 4, 3]})
        # U_A: a=1 beats none... pairs (A>B): (4>2),(4>3) = 2 of 4
        # -> r = 1 - 2*2/4 = 0
        out = rank_biserial(_ds(df), "g", "v", "A", "B")
        assert out["rank_biserial_ppm"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
class TestDegreeAssortativity:
    def test_matches_numpy_newman_r(self):
        from pdf_extract_ray.ops.graph import degree_assortativity
        rng = np.random.RandomState(8)
        edges = pd.DataFrame({
            "id_a": rng.randint(0, 30, 60).astype(np.int64),
            "id_b": rng.randint(30, 60, 60).astype(np.int64)})
        out = degree_assortativity(_ds(edges))
        # independent numpy computation over the directed orientation
        a = edges["id_a"].to_numpy()
        b = edges["id_b"].to_numpy()
        src = np.r_[a, b]
        dst = np.r_[b, a]
        deg = pd.Series(src).value_counts()
        x = pd.Series(src).map(deg).to_numpy(float)
        y = pd.Series(dst).map(deg).to_numpy(float)
        want = np.corrcoef(x, y)[0, 1]
        assert out["r"].iloc[0] == pytest.approx(want, rel=1e-9)
        assert out["n_directed"].iloc[0] == 120

    def test_star_graph_is_disassortative(self):
        from pdf_extract_ray.ops.graph import degree_assortativity
        edges = pd.DataFrame({"id_a": [0, 0, 0, 0],
                              "id_b": [1, 2, 3, 4]})
        out = degree_assortativity(_ds(edges))
        assert out["r"].iloc[0] == pytest.approx(-1.0)


@pytest.mark.usefixtures("ray_session")
class TestCharBigramEntropy:
    def test_uniform_pairs(self):
        from pdf_extract_ray.ops.textstats import char_bigram_entropy
        out = char_bigram_entropy(_ds(pd.DataFrame({
            "source": ["a", "a"], "text": ["abab", "ba"]}))).to_pandas()
        r = out.iloc[0]
        # pairs {ab:2, ba:2} -> H = ln 2; left {a:2, b:2} -> ln 2
        assert r["n_pairs"] == 4
        assert r["h_pair_ppm"] == 693146  # floor(1e6*ln2/2)*2
        assert r["h_cond_ppm"] == 0  # next char fully determined

    def test_no_cross_document_pairs(self):
        from pdf_extract_ray.ops.textstats import char_bigram_entropy
        out = char_bigram_entropy(_ds(pd.DataFrame({
            "source": ["s", "s"], "text": ["ab", "cd"]}))).to_pandas()
        # only 'ab' and 'cd' — never 'bc' across the boundary
        assert out["n_pairs"].tolist() == [2]


@pytest.mark.usefixtures("ray_session")
class TestVocabCoverageCurve:
    def test_curve_monotone_and_exact(self):
        from pdf_extract_ray.ops.corpus import vocab_coverage_curve
        docs = pd.DataFrame({"text": ["a a a b b c", "a b d"]})
        out = vocab_coverage_curve(_ds(docs), ks=(1, 2, 4))
        out = out.set_index("k")
        assert out.loc[1, "covered_tokens"] == 4   # 'a' x4
        assert out.loc[2, "covered_tokens"] == 7   # + 'b' x3
        assert out.loc[4, "covered_tokens"] == 9   # everything
        assert out.loc[4, "covered_ppm"] == 1_000_000
        assert (out["total_tokens"] == 9).all()

    def test_tie_order_lexicographic(self):
        from pdf_extract_ray.ops.corpus import vocab_coverage_curve
        docs = pd.DataFrame({"text": ["z y x"]})
        out = vocab_coverage_curve(_ds(docs), ks=(1,))
        # equal counts -> 'x' first lexicographically
        assert out["covered_tokens"].tolist() == [1]


@pytest.mark.usefixtures("ray_session")
class TestMannKendall:
    def test_monotone_up(self):
        from pdf_extract_ray.ops.events import mann_kendall_daily
        ts = []
        for d in range(5):          # day d gets d+1 events
            ts += [f"2024-01-0{d+1} 10:00:00"] * (d + 1)
        out = mann_kendall_daily(_ds(pd.DataFrame(
            {"ts": pd.to_datetime(ts)})))
        r = out.iloc[0]
        assert r["n_days"] == 5
        assert r["s_stat"] == 10    # all C(5,2) pairs concordant
        assert r["n_discordant"] == 0

    def test_flat_series_zero(self):
        from pdf_extract_ray.ops.events import mann_kendall_daily
        ts = [f"2024-01-0{d+1} 09:00:00" for d in range(4)] * 3
        out = mann_kendall_daily(_ds(pd.DataFrame(
            {"ts": pd.to_datetime(ts)})))
        assert out["s_stat"].tolist() == [0]
        assert out["n_concordant"].tolist() == [0]
