"""Kill-mid-write resume atomicity (VERDICT r4 item 6).

The checkpoint contract says: partition data is written first, the
manifest last (tmp + os.replace), so manifest presence == partition
done.  These tests CRASH a real job with SIGKILL at the two dangerous
instants — (a) after the parquet write but before the manifest write,
(b) after the manifest .tmp write but before the atomic rename — and
verify the restarted job redoes exactly the unfinished partitions and
the final output is byte-identical to a never-crashed run.

Each crashing job runs in a SUBPROCESS with its own Ray session (a
SIGKILL inside the pytest process would take the test runner down).
"""
import glob
import json
import os
import signal
import subprocess
import sys
import textwrap

import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_ROWS = 200

_DRIVER = textwrap.dedent("""
    import json, os, signal, sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from pdf_extract_ray.pipelines import extract as ex

    # partition ids are hash-assigned (sparse), so the kill triggers on
    # the K-th partition EXECUTED, not a literal pid
    kill_ord = int(os.environ.get("KILL_ORDINAL", "-1"))
    kill_mode = os.environ.get("KILL_MODE", "")
    calls = [0]
    if kill_mode == "after_data":
        real = ex._run_partition

        def wrapped(pid, files, output_dir, **kw):
            m = real(pid, files, output_dir, **kw)
            if calls[0] == kill_ord:
                # partition parquet fully written, manifest NOT:
                # die like a preempted worker
                print("VICTIM %d" % pid, flush=True)
                os.kill(os.getpid(), signal.SIGKILL)
            calls[0] += 1
            return m

        ex._run_partition = wrapped
    elif kill_mode == "during_manifest":
        real_replace = ex.os.replace

        def kill_replace(src, dst):
            if "manifest" in dst and dst.endswith(".json"):
                if calls[0] == kill_ord:
                    # manifest .tmp written, atomic rename NOT reached
                    pid = int(dst.rsplit("part-", 1)[1][:5])
                    print("VICTIM %d" % pid, flush=True)
                    os.kill(os.getpid(), signal.SIGKILL)
                calls[0] += 1
            return real_replace(src, dst)

        ex.os.replace = kill_replace

    ex.BATCH_SIZE = 8  # several UDF batches per partition
    job = ex.run_extract({in_dir!r}, {out_dir!r})
    print("JOB " + json.dumps(job))
    ray.shutdown()
""")


def _run_job(in_dir, out_dir, env_extra):
    script = _DRIVER.format(repo=REPO, in_dir=in_dir, out_dir=out_dir)
    env = dict(os.environ, **env_extra)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)


def _rows_by_url(out_dir):
    rows = {}
    for f in glob.glob(os.path.join(out_dir, "part=*", "*.parquet")):
        for r in pq.read_table(f).to_pylist():
            rows[r["url"]] = (r["status"], r["extracted_text"])
    return rows


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from pdf_extract_ray.data.pages import pages_parquet_path
    return pages_parquet_path(N_ROWS, n_shards=4,
                              cache_dir="/tmp/pdf_extract_ray_test_cache")


@pytest.fixture(scope="module")
def clean_reference(ray_session, corpus, tmp_path_factory):
    from pdf_extract_ray.pipelines import extract
    out = str(tmp_path_factory.mktemp("clean_ref"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract, "BATCH_SIZE", 8)
        job = extract.run_extract(corpus, out)
    assert job["rows"] == N_ROWS
    return _rows_by_url(out)


@pytest.mark.parametrize("kill_mode", ["after_data", "during_manifest"])
def test_sigkill_then_resume_is_exact(corpus, clean_reference,
                                      tmp_path_factory, kill_mode):
    out_dir = str(tmp_path_factory.mktemp(f"crash_{kill_mode}"))
    # run 1: SIGKILL at the dangerous instant of the SECOND partition
    p = _run_job(corpus, out_dir,
                 {"KILL_ORDINAL": "1", "KILL_MODE": kill_mode})
    assert p.returncode == -signal.SIGKILL, (p.returncode, p.stderr[-800:])
    victim = int([ln for ln in p.stdout.splitlines()
                  if ln.startswith("VICTIM ")][-1].split()[1])
    committed = set(os.path.basename(m) for m in glob.glob(
        os.path.join(out_dir, "manifest", "part-*.json")))
    # exactly one partition committed before the crash; the victim's
    # manifest must NOT exist even though its data (and, in the
    # during_manifest mode, its manifest .tmp) was written
    assert len(committed) == 1
    assert f"part-{victim:05d}.json" not in committed
    assert os.path.isdir(os.path.join(out_dir, f"part={victim:05d}"))
    if kill_mode == "during_manifest":
        assert os.path.exists(os.path.join(
            out_dir, "manifest", f"part-{victim:05d}.json.tmp"))
    # run 2: plain restart, no injection
    p2 = _run_job(corpus, out_dir, {})
    assert p2.returncode == 0, p2.stderr[-800:]
    job = json.loads([ln for ln in p2.stdout.splitlines()
                      if ln.startswith("JOB ")][-1][4:])
    total_parts = len(glob.glob(os.path.join(out_dir, "manifest",
                                             "part-*.json")))
    # exactly the committed partition was skipped; the victim and the
    # never-started tail were (re)done
    assert job["skipped_partitions"] == 1
    assert job["partitions"] == total_parts - 1
    assert os.path.exists(os.path.join(out_dir, "manifest",
                                       f"part-{victim:05d}.json"))
    # output byte-identical to a never-crashed run, no duplicate rows
    got = _rows_by_url(out_dir)
    assert got == clean_reference
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(
        os.path.join(out_dir, "part=*", "*.parquet")))
    assert total == N_ROWS
