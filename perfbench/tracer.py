"""Layer spans recorded from outside the program.

`Tracer.install()` replaces each layer's public entry point (the name its
caller looks up) with a wrapper that times the call and counts its work;
`uninstall()` puts the originals back.  A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of all
layers under `ExtractBatch.__call__` add up to the UDF's wall time.

Layers (named after the modules):

    udf          pipelines.extract.ExtractBatch.__call__
    spans_build  pipelines.extract._build_spans_array
    api          engine.api extract_* entry points (page walk, decryption,
                 the text device) -- the engine glue around the layers below
    document     engine.api.load_document (xref, lexer, crypt)
    filters      engine.filters.decode_stream
    fonts        engine.interpreter.make_font (cmap, cff, type1)
    content      engine.interpreter.parse_content
    interpreter  engine.interpreter.Processor.process_stream
    show_text    engine.interpreter.show_text (glyph decode + device sink)
    html         engine.html_extract.extract_html_text

Counting hooks without spans: the ToUnicode/CMap cache lookups in
engine.fonts and the HTML fast tokenizer's bail-outs.  Checkpoint hooks
(`CheckpointProbe`) wrap run_extract's partitions and keep each
partition's Dataset so its `stats()` can be read after the write.
"""
from __future__ import annotations

import importlib
import re
import sys
import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class Layer:
    __slots__ = ("calls", "self_s", "errors", "durations", "counters")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.durations: Optional[List[float]] = [] if keep_durations else None
        self.counters: Dict[str, float] = {}

    def add(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


def _resolve(path: str):
    """'pkg.mod.Class' or 'pkg.mod' -> object."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class _Patcher:
    def __init__(self):
        self._saved = []
        self.missing: List[str] = []

    def replace(self, owner_path: str, attr: str, make: Callable) -> None:
        try:
            owner = _resolve(owner_path)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner_path}.{attr}")
            return
        # one wrapper per function object, so a function reachable under two
        # names (filters.decode_stream, document.decode_stream) is one span
        for _, _, o, wrapped in self._saved:
            if o is orig:
                setattr(owner, attr, wrapped)
                self._saved.append((owner, attr, orig, wrapped))
                return
        wrapped = make(orig)
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, orig, wrapped))

    def restore(self) -> None:
        for owner, attr, orig, _ in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.layers: Dict[str, Layer] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._patcher = _Patcher()

    @property
    def missing(self) -> List[str]:
        return self._patcher.missing

    def layer(self, name: str, keep_durations: bool = False) -> Layer:
        lay = self.layers.get(name)
        if lay is None:
            lay = self.layers[name] = Layer(keep_durations)
        return lay

    def _count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn: Callable, keep_durations: bool = False,
             on_result: Optional[Callable] = None) -> Callable:
        lay = self.layer(name, keep_durations)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                lay.errors += 1
                raise
            finally:
                dt = _perf() - t0
                stack.pop()
                lay.calls += 1
                lay.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if lay.durations is not None:
                    lay.durations.append(dt)
            if on_result is not None:
                on_result(lay, args, res)
            return res
        return wrapper

    def install(self) -> None:
        p = self._patcher
        eng = "pdf_extract_ray.engine"
        pipe = "pdf_extract_ray.pipelines.extract"

        def udf_result(lay, args, res):
            lay.add("batches", 1)
            lay.add("rows", res.num_rows)
            for st in res.column("status").to_pylist():
                lay.add("status." + st, 1)

        def spans_result(lay, args, res):
            # one span per emitted glyph: the show_text layer's output
            self.layer("show_text").add("chars_out", len(res[1][0]))

        def filters_result(lay, args, res):
            lay.add("bytes_out", len(res))

        def content_result(lay, args, res):
            lay.add("bytes_in", len(args[0]))
            lay.add("ops_out", len(res))

        def html_result(lay, args, res):
            lay.add("bytes_in", len(args[0] or b""))

        p.replace(f"{pipe}.ExtractBatch", "__call__",
                  lambda f: self.span("udf", f, on_result=udf_result))
        p.replace(pipe, "_build_spans_array",
                  lambda f: self.span("spans_build", f))
        p.replace(f"{eng}.api", "extract_text_and_span_columns_from_mem",
                  lambda f: self.span("api", f, True, spans_result))
        p.replace(f"{eng}.api", "extract_text_from_mem",
                  lambda f: self.span("api", f, True))
        p.replace(f"{eng}.api", "load_document",
                  lambda f: self.span("document", f, True))
        for owner in (f"{eng}.filters", f"{eng}.document"):
            p.replace(owner, "decode_stream",
                      lambda f: self.span("filters", f,
                                          on_result=filters_result))
        p.replace(f"{eng}.interpreter", "make_font",
                  lambda f: self.span("fonts", f))
        p.replace(f"{eng}.interpreter", "parse_content",
                  lambda f: self.span("content", f, on_result=content_result))
        p.replace(f"{eng}.interpreter.Processor", "process_stream",
                  lambda f: self.span("interpreter", f))
        p.replace(f"{eng}.interpreter", "show_text",
                  lambda f: self.span("show_text", f))
        p.replace(f"{eng}.html_extract", "extract_html_text",
                  lambda f: self.span("html", f, True, html_result))
        p.replace(f"{eng}.html_extract", "_fast_feed", self._fast_feed_hook)
        p.replace(f"{eng}.fonts", "_cache_get", self._cmap_cache_hook)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _fast_feed_hook(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._count("html.fast_feed_calls")
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._count("html.fast_feed_bails")
                raise
        return wrapper

    def _cmap_cache_hook(self, fn: Callable) -> Callable:
        fonts = sys.modules["pdf_extract_ray.engine.fonts"]
        cmap_caches = [getattr(fonts, n) for n in
                       ("_UNICODE_MAP_CACHE", "_BYTE_MAPPING_CACHE")
                       if hasattr(fonts, n)]

        def wrapper(cache, key):
            res = fn(cache, key)
            if any(cache is c for c in cmap_caches):
                self._count("fonts.cmap_lookups")
                if res is not None:
                    self._count("fonts.cmap_hits")
            return res
        return wrapper


class CheckpointProbe:
    """Times run_extract's partitions and keeps each partition's Dataset."""

    def __init__(self):
        self.partition_s: List[float] = []
        self.datasets: List[object] = []
        self._patcher = _Patcher()

    @property
    def missing(self) -> List[str]:
        return self._patcher.missing

    def install(self) -> None:
        pipe = "pdf_extract_ray.pipelines.extract"

        def timed(fn):
            def wrapper(*args, **kwargs):
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.partition_s.append(_perf() - t0)
            return wrapper

        def keep(fn):
            def wrapper(*args, **kwargs):
                ds = fn(*args, **kwargs)
                self.datasets.append(ds)
                return ds
            return wrapper

        self._patcher.replace(pipe, "_run_partition", timed)
        self._patcher.replace(pipe, "extract_dataset", keep)

    def uninstall(self) -> None:
        self._patcher.restore()


# -- Dataset.stats() --------------------------------------------------------

_OP_HEAD = re.compile(
    r"^Operator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks executed, "
    r"(?P<blocks>\d+) blocks produced", re.M)
_TOTAL = {
    "wall_s": re.compile(r"\* Remote wall time:.*?([\d.]+)(us|ms|s) total"),
    "cpu_s": re.compile(r"\* Remote cpu time:.*?([\d.]+)(us|ms|s) total"),
    "udf_s": re.compile(r"\* UDF time:.*?([\d.]+)(us|ms|s) total"),
}
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> List[Dict]:
    """Dataset.stats() text -> [{name, tasks, blocks, wall_s, cpu_s, udf_s}]
    per operator, in plan order."""
    heads = list(_OP_HEAD.finditer(text))
    ops = []
    for k, m in enumerate(heads):
        end = heads[k + 1].start() if k + 1 < len(heads) else len(text)
        body = text[m.end():end]
        op = {"name": m.group("name"), "tasks": int(m.group("tasks")),
              "blocks": int(m.group("blocks"))}
        for key, rx in _TOTAL.items():
            t = rx.search(body)
            op[key] = float(t.group(1)) * _UNIT[t.group(2)] if t else 0.0
        ops.append(op)
    return ops


def stage(ops: List[Dict], prefix: str) -> Dict[str, float]:
    """Sum the operators that run `prefix` ('Read', 'MapBatches',
    'Write'), fused ones included: 'MapBatches(f)->Write' counts toward
    both MapBatches and Write."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0, "blocks": 0, "tasks": 0}
    for op in ops:
        if any(part.startswith(prefix) for part in op["name"].split("->")):
            for key in out:
                out[key] += op[key]
    return out
