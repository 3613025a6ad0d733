"""Benchmark of the flagship extraction path (Parquet pages -> text).

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are generated from --seed
(see gen.py) and written as Parquet in the pages schema under .pb/; the
program runs in fresh processes (session.py) under
ray.init(num_cpus=nproc), and every output row is
checked against the generator's expectation.

--trace 0 sets up N_SETUPS times, each in a fresh process that then
measures for --seconds / N_SETUPS, and prints the end-to-end metrics:
set-up and memory as medians over the sessions, throughput and CPU from
the lower quartile of all timed iterations.
--trace 1 prints the per-layer metrics of one traced replay.  The last
line of stdout is the JSON result; the line before it holds the details
(load average, class counts, every iteration).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

N_SETUPS = 3
OBJECT_STORE_MB = 384
# a run must end within 180 s, whatever hangs
RUN_DEADLINE_S = 165
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~64 to its
# temp dir ("/session_<date>_<time>_<pid>/sockets/plasma_store")
MAX_RAY_TMP = 42

END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "mb_per_s": "MB/s",
    "cpu_s_per_kdoc": "s",
    "driver_peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}

PER_LAYER = {
    "document.calls": "count", "document.self_s": "s",
    "document.us_p50": "us", "document.us_p99": "us",
    "document.errors": "count",
    "filters.calls": "count", "filters.bytes_out": "B",
    "filters.self_s": "s",
    "fonts.calls": "count", "fonts.self_s": "s",
    "fonts.cmap_lookups": "count", "fonts.cmap_cache_hit_ratio": "ratio",
    "content.calls": "count", "content.bytes_in": "B",
    "content.ops_out": "count", "content.self_s": "s",
    "interpreter.calls": "count", "interpreter.self_s": "s",
    "show_text.calls": "count", "show_text.chars_out": "count",
    "show_text.self_s": "s",
    "html.calls": "count", "html.bytes_in": "B", "html.self_s": "s",
    "html.fast_path_ratio": "ratio",
    "api.calls": "count", "api.self_s": "s",
    "udf.batches": "count", "udf.rows": "count", "udf.self_s": "s",
    "udf.spans_build_s": "s", "udf.doc_samples": "count",
    "udf.doc_us_p50": "us", "udf.doc_us_p99": "us",
    "udf.status.ok": "count", "udf.status.empty": "count",
    "udf.status.error": "count", "udf.status.skipped": "count",
    "udf.inproc_docs_per_s": "1/s",
    "ray.read.wall_s": "s", "ray.read.cpu_s": "s",
    "ray.map.wall_s": "s", "ray.map.cpu_s": "s",
    "ray.write.wall_s": "s", "ray.blocks": "count",
    "ray.docs_per_s": "1/s", "ray.overhead_frac": "frac",
    "checkpoint.partitions": "count", "checkpoint.skipped": "count",
    "checkpoint.first_run_s": "s", "checkpoint.resume_s": "s",
    "checkpoint.partition_s_p50": "s", "checkpoint.metrics_pass_s": "s",
    "checkpoint.fixed_s_per_partition": "s",
    "trace.overhead_frac": "frac", "trace.coverage": "frac",
}


def nproc() -> int:
    """What coreutils' nproc prints: OMP_NUM_THREADS (capped by
    OMP_THREAD_LIMIT) when set, else the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    try:
        n = int(os.environ["OMP_NUM_THREADS"].split(",")[0])
    except (KeyError, ValueError):
        pass
    try:
        n = min(n, int(os.environ["OMP_THREAD_LIMIT"]))
    except (KeyError, ValueError):
        pass
    return max(1, n)


def _write_inputs(gen, workload: str, seed: int, work: str):
    import pyarrow.parquet as pq
    rows = gen.make_rows(workload, seed)
    n_files = gen.n_files(workload)
    per = -(-len(rows) // n_files)
    for k in range(n_files):
        chunk = rows[k * per:(k + 1) * per]
        path = os.path.join(work, "input", f"part-{k:04d}.parquet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(gen.pages_table(chunk, seed), path)
    warm = rows[:gen.WARM_ROWS] if len(rows) > gen.WARM_ROWS else rows[:1]
    os.makedirs(os.path.join(work, "warm"))
    pq.write_table(gen.pages_table(warm, seed),
                   os.path.join(work, "warm", "part-0000.parquet"))
    pq.write_table(gen.expect_table(rows), os.path.join(work, "expect.parquet"))
    pq.write_table(gen.expect_table(warm),
                   os.path.join(work, "warm_expect.parquet"))
    return rows


def _stop_all(marker: str, timeout: float = 8.0) -> None:
    """Stop every process that carries this run's environment marker and
    wait until none is left."""
    import procstat
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while True:
        pids = procstat.pids_with_env(marker)
        if not pids:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} outlived the run")
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        sig = signal.SIGKILL
        time.sleep(0.2)


def _session(cfg: dict, work: str, tag: str, deadline: float) -> dict:
    """Run session.py in a fresh process; returns its result dict."""
    marker_value = uuid.uuid4().hex
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["TMPDIR"] = cfg["tmp"]
    env["PERFBENCH_RUN"] = marker_value
    cfg = dict(cfg, result=os.path.join(work, f"result-{tag}.json"))
    cfg_path = os.path.join(work, f"config-{tag}.json")
    log_path = os.path.join(work, f"session-{tag}.log")
    with open(log_path, "w") as log:
        cfg["t_spawn"] = time.monotonic()
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), cfg_path],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            _stop_all(f"PERFBENCH_RUN={marker_value}")
            proc.wait()
    if rc != 0 or not os.path.exists(cfg["result"]):
        with open(log_path, errors="replace") as f:
            tail = f.read()[-4000:]
        raise RuntimeError(f"session {tag} failed ({rc}):\n{tail}")
    with open(cfg["result"]) as f:
        return json.load(f)


def _host_probe_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs
    Python right now, recorded beside the load average (which does not see
    contention from other machines' tenants)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(100_000):
            d[i & 1023] = d.get(i & 1023, 0) + len(str(i))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median(values):
    return statistics.median(values) if values else 0.0


def _lower_quartile(values):
    """The lower quartile of per-iteration costs.  On a shared host the
    same loop runs in a fast and a slow mode (up to ~1.7x apart) whose mix
    drifts over minutes; the lower quartile leans to the fast mode, where
    the median follows the mix."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "pdf_extract_ray", "__init__.py")):
        print(f"perfbench: no pdf_extract_ray package under {ROOT}; run it "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    for p in (HERE, ROOT):
        if p not in sys.path:
            sys.path.insert(0, p)
    import gen
    import procstat
    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".pb")
    work = os.path.join(base, "work", f"{args.workload}-{args.seed}-"
                                      f"{args.trace}-{os.getpid()}")
    ray_tmp = os.path.join(base, "r")
    if len(ray_tmp) > MAX_RAY_TMP:
        print(f"perfbench: {ray_tmp} is too long for Ray's socket paths; "
              f"Ray falls back to its default temp dir", file=sys.stderr)
        ray_tmp = None
    tmp = os.path.join(base, "tmp")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(work)

    rows = _write_inputs(gen, args.workload, args.seed, work)
    n_docs = len(rows)
    payload_mb = sum(len(r.payload) for r in rows) / 1e6
    ncpu = nproc()
    cfg = {"workload": args.workload, "seed": args.seed, "work": work,
           "input": os.path.join(work, "input"),
           "warm": os.path.join(work, "warm"),
           "expect": os.path.join(work, "expect.parquet"),
           "warm_expect": os.path.join(work, "warm_expect.parquet"),
           "num_cpus": ncpu, "object_store_mb": OBJECT_STORE_MB,
           "ray_tmp": ray_tmp, "tmp": tmp}
    load_before = procstat.loadavg()
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "nproc": ncpu, "ray_num_cpus": ncpu,
              "scaling_efficiency": "not reported: one Ray node sized "
                                    "from nproc",
              "ops_attempted": n_docs, "payload_mb": payload_mb,
              "class_counts": gen.class_counts(rows),
              "loadavg_before": load_before,
              "host_probe_s_before": _host_probe_s()}
    try:
        if args.trace:
            res = _session(dict(cfg, mode="trace", seconds=args.seconds),
                           work, "trace", deadline)
            metrics = {k: {"value": res["metrics"][k], "unit": u}
                       for k, u in PER_LAYER.items()}
            detail["missing_hooks"] = res["missing_hooks"]
            results = [res]
        else:
            results = [_session(dict(cfg, mode="e2e",
                                     seconds=args.seconds / N_SETUPS,
                                     check_resume=k == 0),
                                work, f"e2e{k}", deadline)
                       for k in range(N_SETUPS)]
            iters = [it for r in results for it in r["iterations"]]
            wall = _lower_quartile([it["wall_s"] for it in iters])
            value = {
                "setup_s": _median([r["setup_s"] for r in results]),
                "docs_per_s": n_docs / wall,
                "mb_per_s": payload_mb / wall,
                "cpu_s_per_kdoc": _lower_quartile(
                    [it["cpu_s"] for it in iters]) * 1000 / n_docs,
                "driver_peak_rss_mb": _median(
                    [r["driver_peak_rss_mb"] for r in results]),
                "worker_peak_rss_mb": _median(
                    [r["worker_peak_rss_mb"] for r in results]),
            }
            metrics = {k: {"value": value[k], "unit": u}
                       for k, u in END_TO_END.items()}
            detail["setups_s"] = [r["setup_s"] for r in results]
            detail["iterations"] = [r["iterations"] for r in results]
            if args.workload == "html_checkpoint":
                detail["resume_s"] = _median([it["resume_s"] for it in iters
                                              if "resume_s" in it])
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    detail["loadavg_after"] = procstat.loadavg()
    detail["host_probe_s_after"] = _host_probe_s()
    detail["rows_checked"] = attempted
    detail["failed_frac"] = failed / attempted if attempted else 1.0
    detail["problems"] = [p for r in results for p in r["problems"]][:20]
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
