"""Small shared helpers for the Ray Data stages."""
from __future__ import annotations


_UDF_SINGLETONS = {}


def task_udf(cls, **kwargs):
    """Module-level singleton UDF instance per (class, kwargs): with
    task-compute map_batches, Ray reuses warm worker processes, so the
    instance's setup cost (params, caches) is paid once per worker —
    the same effect as an actor pool without per-execution spin-up."""
    key = (cls.__module__, cls.__qualname__, tuple(sorted(kwargs.items())))
    inst = _UDF_SINGLETONS.get(key)
    if inst is None:
        inst = _UDF_SINGLETONS[key] = cls(**kwargs)
    return inst
