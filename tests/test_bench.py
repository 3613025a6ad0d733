"""bench.py's report: the headline wall is `value` and also
`queries["extract_pages"]`; the other ops are every other `queries()`
entry, in its order, each run once per pass."""
import bench


def test_headline_not_overwritten_by_ops(monkeypatch):
    import __ray_entry__ as entry

    calls = []

    def op(name):
        def run(sf_dir):
            calls.append(name)
            return None
        return run

    monkeypatch.setattr(bench, "_init_ray", lambda num_cpus: None)
    monkeypatch.setattr(bench, "run_headline", lambda sf_dir: {
        "secs": 1.25, "rows": 10, "docs_per_s": 8.0, "payload_mb": 1.0,
        "mb_per_s": 0.8})
    monkeypatch.setattr(entry, "queries", lambda: {
        "b_op": op("b_op"), "extract_pages": op("extract_pages"),
        "a_op": op("a_op")})
    out = bench.main_bench("sf0.001")
    assert out["value"] == 1.25
    assert out["queries"]["extract_pages"] == out["value"]
    assert set(out["queries"]) == {"extract_pages", "b_op", "a_op"}
    assert calls == ["b_op", "a_op"] * 2
