"""One benchmark process: set up Ray, run a workload, write a JSON result.

    python3 perfbench/session.py CONFIG_JSON

`run.py` starts this in a fresh process per set-up sample.  Mode "e2e"
measures the workload's flagship path with tracing off; mode "trace"
replays the same inputs in-process with layer spans, then through Ray
(streaming and checkpointed) for the Ray-stage and checkpoint numbers.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (HERE, ROOT):
    if p not in sys.path:
        sys.path.insert(0, p)

_perf = time.perf_counter


def _setup(cfg: Dict):
    """Imports, ray.init, engine table import; returns the extract module."""
    import ray
    import pdf_extract_ray.engine.api  # noqa: F401  (static tables)
    import pdf_extract_ray.engine.html_extract  # noqa: F401
    from pdf_extract_ray.pipelines import extract
    ray.init(address="local", num_cpus=cfg["num_cpus"],
             object_store_memory=cfg["object_store_mb"] * 1024 * 1024,
             include_dashboard=False, log_to_driver=False,
             _temp_dir=cfg["ray_tmp"])
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return extract


# -- checking ---------------------------------------------------------------

class Checker:
    """Compares output rows with the generator's expectations."""

    def __init__(self, expect_path: str):
        import pyarrow.parquet as pq
        t = pq.read_table(expect_path)
        self.expect = {u: (s, x) for u, s, x in zip(
            t.column("url").to_pylist(), t.column("status").to_pylist(),
            t.column("text").to_pylist())}
        self.statuses: Dict[str, int] = {}
        for s, _ in self.expect.values():
            self.statuses[s] = self.statuses.get(s, 0) + 1
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def rows(self, tables) -> Dict[str, tuple]:
        """Check one run's output tables against the expectation for every
        input row.  Missing, duplicated, unknown and mismatching rows are
        failures.  Returns url -> (status, text)."""
        want = self.expect
        seen: Dict[str, tuple] = {}
        bad = 0
        for t in tables:
            for u, s, x in zip(t.column("url").to_pylist(),
                               t.column("status").to_pylist(),
                               t.column("extracted_text").to_pylist()):
                if u in seen or u not in want:
                    bad += 1
                    self._note(f"duplicate or unknown url {u}")
                    continue
                seen[u] = (s, x)
                if (s, x) != want[u]:
                    bad += 1
                    self._note(f"{u}: got {(s, (x or '')[:60])!r} "
                               f"want {(want[u][0], want[u][1][:60])!r}")
        missing = len(want) - sum(1 for u in want if u in seen)
        if missing:
            self._note(f"{missing} rows missing")
        self.attempted += len(want)
        self.failed += min(len(want), bad + missing)
        return seen

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self._note(what)

    def _note(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)


def _read_output(out_dir: str):
    import pyarrow.parquet as pq
    tables = []
    for root, _dirs, files in os.walk(out_dir):
        for f in sorted(files):
            if f.endswith(".parquet"):
                tables.append(pq.read_table(
                    os.path.join(root, f),
                    columns=["url", "status", "extracted_text"]))
    return tables


def _manifests(out_dir: str) -> List[str]:
    mdir = os.path.join(out_dir, "manifest")
    return sorted(os.path.join(mdir, f) for f in os.listdir(mdir)
                  if f.endswith(".json"))


# -- the workload paths -----------------------------------------------------

def streaming_pass(extract, input_dir: str):
    """read_parquet -> extract_dataset(with_spans=True) -> iterate to the
    driver.  Returns (output tables, the executed Dataset)."""
    ds = extract.extract_dataset(extract.read_pages(input_dir),
                                 with_spans=True)
    tables = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return tables, ds


def checkpoint_pass(extract, cfg: Dict, check: Checker, iteration: int,
                    cpu_snapshot=None, resume: bool = True):
    """run_extract, check rows and manifests; with `resume`, drop a
    seed-chosen half of the manifests, restart, and check the resumed rows
    equal the first run's.  Returns {first_s, first_cpu_s, job, manifests,
    resume_s, resumed_job} with the first run's manifests in partition
    order."""
    import pyarrow.parquet as pq

    import procstat
    out_dir = os.path.join(cfg["work"], "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    cpu0 = cpu_snapshot() if cpu_snapshot else {}
    t0 = _perf()
    job = extract.run_extract(cfg["input"], out_dir)
    first_s = _perf() - t0
    first_cpu_s = (procstat.cpu_delta(cpu0, cpu_snapshot())
                   if cpu_snapshot else 0.0)

    first = check.rows(_read_output(out_dir))
    paths = _manifests(out_dir)
    manifests = []
    for path in paths:
        with open(path) as f:
            manifests.append(json.load(f))
    statuses: Dict[str, int] = {}
    for man in manifests:
        for k, v in man["statuses"].items():
            statuses[k] = statuses.get(k, 0) + v
    rows = sum(man["rows"] for man in manifests)
    check.require(rows == len(check.expect),
                  f"manifest rows {rows} != input rows {len(check.expect)}")
    check.require(statuses == check.statuses,
                  f"manifest statuses {statuses} != {check.statuses}")
    out = {"first_s": first_s, "first_cpu_s": first_cpu_s, "job": job,
           "manifests": manifests}
    if not resume:
        return out

    rng = random.Random(f"{cfg['seed']}:{iteration}:resume")
    dropped = rng.sample(range(len(paths)), max(1, len(paths) // 2))
    redo = 0
    for k in dropped:
        redo += sum(pq.read_metadata(fp).num_rows
                    for fp in manifests[k]["lineage"]["input_files"])
        os.remove(paths[k])
    t0 = _perf()
    resumed_job = extract.run_extract(cfg["input"], out_dir)
    resume_s = _perf() - t0
    check.require(resumed_job["partitions"] == len(dropped) and
                  resumed_job["skipped_partitions"] ==
                  len(paths) - len(dropped),
                  f"resume ran {resumed_job['partitions']} partitions, "
                  f"expected {len(dropped)}")
    check.require(resumed_job["rows"] == redo,
                  f"resume redid {resumed_job['rows']} rows, expected {redo}")
    resumed = check.rows(_read_output(out_dir))
    check.require(resumed == first, "resumed output differs from first run")
    return dict(out, resume_s=resume_s, resumed_job=resumed_job)


# -- modes ------------------------------------------------------------------

def run_e2e(cfg: Dict) -> Dict:
    import procstat
    extract = _setup(cfg)
    check = Checker(cfg["expect"])
    warm = Checker(cfg["warm_expect"])
    me = os.getpid()
    # one warm-up batch through the same path
    if cfg["workload"] == "html_checkpoint":
        out = os.path.join(cfg["work"], "warm_out")
        shutil.rmtree(out, ignore_errors=True)
        extract.run_extract(cfg["warm"], out)
        warm.rows(_read_output(out))
    else:
        warm.rows(streaming_pass(extract, cfg["warm"])[0])
    setup_s = time.monotonic() - cfg["t_spawn"]

    deadline = time.monotonic() + cfg["seconds"]
    iters = []

    def snapshot():
        return procstat.job_cpu(me)

    while True:
        if cfg["workload"] == "html_checkpoint":
            # the restart is checked once per run, after the first timed
            # pass of the first session: the timed first runs stay frequent
            cp = checkpoint_pass(extract, cfg, check, len(iters), snapshot,
                                 resume=cfg["check_resume"] and not iters)
            it = {"wall_s": cp["first_s"], "cpu_s": cp["first_cpu_s"]}
            if "resume_s" in cp:
                it["resume_s"] = cp["resume_s"]
        else:
            cpu0 = snapshot()
            t0 = _perf()
            tables, _ = streaming_pass(extract, cfg["input"])
            wall = _perf() - t0
            it = {"wall_s": wall,
                  "cpu_s": procstat.cpu_delta(cpu0, snapshot())}
            check.rows(tables)
            del tables
        iters.append(it)
        if time.monotonic() >= deadline:
            break
    workers = procstat.ray_workers(me)
    result = {
        "setup_s": setup_s,
        "iterations": iters,
        "driver_peak_rss_mb": procstat.vm_hwm_mb(me),
        "worker_peak_rss_mb": max([procstat.vm_hwm_mb(p) for p in workers]
                                  or [0.0]),
        "n_workers": len(workers),
        "attempted": check.attempted + warm.attempted,
        "failed": check.failed + warm.failed,
        "problems": warm.problems + check.problems,
    }
    import ray
    ray.shutdown()
    return result


def _slices(table, batch_size: int = 64):
    return [table.slice(off, batch_size)
            for off in range(0, table.num_rows, batch_size)]


def _inproc_pass(extract, batches) -> tuple:
    eb = extract.ExtractBatch(with_spans=True)
    t0 = _perf()
    outs = [eb(b) for b in batches]
    return _perf() - t0, outs


def _pct(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))]


def run_trace(cfg: Dict) -> Dict:
    import pyarrow.parquet as pq

    import tracer as tr
    check = Checker(cfg["expect"])
    from pdf_extract_ray.pipelines import extract
    table = pq.read_table(cfg["input"], columns=["url", "html"])
    batches = _slices(table)
    n_docs = table.num_rows

    # in-process replay: one warm-up pass, then untraced and traced passes
    # alternate; the layer numbers come from the last traced pass
    _inproc_pass(extract, batches)
    plain, traced = [], []
    tracer = None
    for k in range(4):
        if k % 2:
            tracer = tr.Tracer()
            tracer.install()
            try:
                wall, outs = _inproc_pass(extract, batches)
            finally:
                tracer.uninstall()
            traced.append(wall)
        else:
            wall, outs = _inproc_pass(extract, batches)
            plain.append(wall)
        check.rows(outs)
    inproc_dps = n_docs / statistics.median(plain)
    traced_dps = n_docs / statistics.median(traced)
    m: Dict[str, float] = {}
    L = tracer.layers
    C = tracer.counters

    def lay(name):
        return L.get(name) or tr.Layer(True)

    def us(values, q):
        return _pct(values, q) * 1e6

    for name in ("document", "filters", "fonts", "content", "interpreter",
                 "show_text", "html", "api"):
        m[f"{name}.calls"] = lay(name).calls
        m[f"{name}.self_s"] = lay(name).self_s
    for key in ("filters.bytes_out", "content.bytes_in", "content.ops_out",
                "show_text.chars_out", "html.bytes_in"):
        name, counter = key.split(".")
        m[key] = lay(name).counters.get(counter, 0)
    d = lay("document")
    m["document.us_p50"] = us(d.durations, 0.5)
    m["document.us_p99"] = us(d.durations, 0.99)
    m["document.errors"] = d.errors
    lookups = C.get("fonts.cmap_lookups", 0)
    m["fonts.cmap_lookups"] = lookups
    m["fonts.cmap_cache_hit_ratio"] = (C.get("fonts.cmap_hits", 0) / lookups
                                       if lookups else 0.0)
    feeds = C.get("html.fast_feed_calls", 0)
    m["html.fast_path_ratio"] = ((feeds - C.get("html.fast_feed_bails", 0))
                                 / feeds if feeds else 0.0)
    u = lay("udf")
    doc_s = lay("api").durations + lay("html").durations
    m["udf.batches"] = u.counters.get("batches", 0)
    m["udf.rows"] = u.counters.get("rows", 0)
    m["udf.self_s"] = u.self_s
    m["udf.spans_build_s"] = lay("spans_build").self_s
    m["udf.doc_samples"] = len(doc_s)
    m["udf.doc_us_p50"] = us(doc_s, 0.5)
    m["udf.doc_us_p99"] = us(doc_s, 0.99)
    for st in ("ok", "empty", "error", "skipped"):
        m[f"udf.status.{st}"] = u.counters.get("status." + st, 0)
    m["udf.inproc_docs_per_s"] = inproc_dps
    m["trace.overhead_frac"] = 1.0 - traced_dps / inproc_dps
    self_total = sum(x.self_s for x in L.values())
    m["trace.coverage"] = self_total / traced[-1]
    missing = list(tracer.missing)

    # Ray: the streaming path once warm, for Dataset.stats()
    extract = _setup(cfg)
    streaming_pass(extract, cfg["warm"])
    t0 = _perf()
    tables, ds = streaming_pass(extract, cfg["input"])
    ray_wall = _perf() - t0
    check.rows(tables)
    del tables
    ops = tr.parse_stats(ds.stats())
    read, mp = tr.stage(ops, "Read"), tr.stage(ops, "MapBatches")
    m["ray.read.wall_s"] = read["wall_s"]
    m["ray.read.cpu_s"] = read["cpu_s"]
    m["ray.map.wall_s"] = mp["wall_s"]
    m["ray.map.cpu_s"] = mp["cpu_s"]
    m["ray.blocks"] = mp["blocks"]
    m["ray.docs_per_s"] = n_docs / ray_wall
    m["ray.overhead_frac"] = 1.0 - m["ray.docs_per_s"] / inproc_dps

    # Ray: the checkpointed runner, first run and resume
    probe = tr.CheckpointProbe()
    probe.install()
    try:
        cp = checkpoint_pass(extract, cfg, check, 0)
    finally:
        probe.uninstall()
    missing += probe.missing
    n_first = cp["job"]["partitions"]
    first_parts = probe.partition_s[:n_first]
    stats = [tr.parse_stats(d.stats()) for d in probe.datasets[:n_first]]
    udf_s = [tr.stage(o, "MapBatches")["udf_s"] for o in stats]
    # a partition's wall time = extract+write (its manifest's
    # extract_wall_s) + the metrics pass (the second read+groupby job)
    metrics_pass = [w - man.get("extract_wall_s", 0.0)
                    for w, man in zip(first_parts, cp["manifests"])]
    m["checkpoint.partitions"] = n_first
    m["checkpoint.skipped"] = cp["resumed_job"]["skipped_partitions"]
    m["checkpoint.first_run_s"] = cp["first_s"]
    m["checkpoint.resume_s"] = cp["resume_s"]
    m["checkpoint.partition_s_p50"] = _pct(first_parts, 0.5)
    m["checkpoint.metrics_pass_s"] = _pct(metrics_pass, 0.5)
    m["checkpoint.fixed_s_per_partition"] = _pct(
        [w - u_ for w, u_ in zip(first_parts, udf_s)], 0.5)
    # Write runs fused behind MapBatches: its share is the fused
    # operator's wall time minus the UDF's
    writes = [tr.stage(o, "Write") for o in stats]
    m["ray.write.wall_s"] = sum(w["wall_s"] - w["udf_s"] for w in writes)

    import ray
    ray.shutdown()
    return {"metrics": m, "attempted": check.attempted,
            "failed": check.failed, "problems": check.problems,
            "missing_hooks": missing}


def main() -> int:
    with open(sys.argv[1]) as f:
        cfg = json.load(f)
    result = run_trace(cfg) if cfg["mode"] == "trace" else run_e2e(cfg)
    tmp = cfg["result"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, cfg["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
