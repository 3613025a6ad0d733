#!/usr/bin/env python
"""Dump Ray Data per-stage execution stats for the headline extraction
pipeline — the "measure, don't guess" artifact: per-operator wall time,
block counts, and memory, straight from Dataset.stats().

Usage: python tools/stats_dump.py [sf_dir=/root/testdata/sf0.01]
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get(
            "RAY_GRAFT_CPUS", "32")), include_dashboard=False,
            logging_level="ERROR")
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "entry", os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "__ray_entry__.py"))
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)

    from pdf_extract_ray.pipelines.extract import extract_dataset, read_pages
    pages = entry._pages_dir(sf_dir)
    result = extract_dataset(read_pages(pages)).materialize()
    print(result.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
