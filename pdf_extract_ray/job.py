"""Cluster job entry point — the `ray job submit` surface of the north rule:

    ray job submit --working-dir . -- \\
        python -m pdf_extract_ray.job --input /data/pages --output /data/out

Connects to the cluster it runs on (RAY_ADDRESS / auto), streams the
checkpointed extraction (or the composed textprep pipeline), prints one
JSON line of job metrics, and exits non-zero if any partition failed to
complete.  Re-submitting after a preemption resumes from the manifests.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pdf_extract_ray.job")
    ap.add_argument("--input", required=True, help="pages parquet dir")
    ap.add_argument("--output", required=True, help="output dir (parquet + manifests)")
    ap.add_argument("--pipeline", choices=["extract", "textprep", "ccprep"],
                    default="extract")
    ap.add_argument("--num-partitions", type=int, default=None,
                    help="textprep/ccprep only: dedup shuffle partitions")
    ap.add_argument("--no-spans", action="store_true")
    ap.add_argument("--min-quality", type=float, default=None,
                    help="textprep only: drop rows below this quality score")
    args = ap.parse_args(argv)
    if args.pipeline == "extract" and args.num_partitions is not None:
        ap.error("--num-partitions: extract runs one partition per file")

    import ray
    if not ray.is_initialized():
        # on a cluster this attaches to the running Ray (ray job submit
        # sets RAY_ADDRESS); standalone it starts a local session
        ray.init(ignore_reinit_error=True)

    if args.pipeline == "ccprep":
        from .pipelines.ccprep import run_ccprep
        metrics = run_ccprep(args.input, args.output,
                             num_partitions=args.num_partitions or 8,
                             min_quality=args.min_quality
                             if args.min_quality is not None else 0.3)
        print(json.dumps({"pipeline": "ccprep", **metrics}))
        return 0

    if args.pipeline == "textprep":
        from .pipelines.textprep import run_textprep
        metrics = run_textprep(args.input, args.output,
                               num_partitions=args.num_partitions or 32,
                               min_quality=args.min_quality)
        print(json.dumps({"pipeline": "textprep", **metrics}))
        return 0

    from .pipelines.extract import run_extract
    job = run_extract(args.input, args.output, with_spans=not args.no_spans)
    print(json.dumps({"pipeline": "extract", **job}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
