#!/usr/bin/env python
"""Extended engine fuzz sweep: every pdfgen generator, random byte
mutations + truncations + cross-document splices, through three public
extraction surfaces, the pipeline UDF (`ExtractBatch`, spans on), the
differential checks of the object lexer and the content-stream
tokenizer, and a text-state surface, with a per-input SIGALRM watchdog.
The UDF must stay total: an exception escaping it counts as a hard
crash.  A divergence is counted apart: a mutated object body, framing
or content stream on which a token scanner and its byte-level parser
disagree (tools/lexer_diff.py), or a seeded soup of text-state and show
ops whose resolved span columns differ from the per-glyph reference
chain, or whose batch-placed text differs from `PlainTextOutput`'s
(tools/glyph_reference.py; the soup's seed is the input's CRC-32).

The engine must never hang or hard-crash on corrupt input (the pipeline
UDF totalizes exceptions to error rows, but a hang stalls a whole
partition at crawl scale).  Round-3 baseline: ~20k inputs / 7 min,
0 hangs, 0 hard crashes.  Failing inputs are saved under /tmp for
regression-fixture promotion (see tests/test_adversarial_fixtures.py
TestCorruptXref for two real infinite loops found this way).

Usage: python tools/fuzz_sweep.py [seconds=420] [seed=20260817]
"""
import os
import random
import signal
import sys
import time
import zlib

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import glyph_reference  # tools/glyph_reference.py, next to this script
import lexer_diff  # tools/lexer_diff.py, next to this script
import pdf_extract_ray.data.pdfgen as g
from pdf_extract_ray.engine import extract_text_from_mem
from pdf_extract_ray.engine.api import (extract_text_from_mem_by_pages,
                                        get_metadata)


class Hang(BaseException):
    """Raised by the watchdog; a BaseException, so no `except Exception`
    in the engine or the UDF can turn a hang into an error row."""


class Escaped(Exception):
    """An exception got out of the pipeline UDF."""


class Diverged(Exception):
    """A token scanner and its byte-level parser disagreed, or the span
    columns and the per-glyph reference chain."""


def extract_batch(data: bytes):
    """One-row ExtractBatch call; the UDF turns every engine failure into
    an error row, and resolves the batch's spans outside its per-row try."""
    import pyarrow as pa

    from pdf_extract_ray.pipelines.extract import ExtractBatch
    try:
        return ExtractBatch(with_spans=True)(pa.table(
            {"url": ["fuzz"], "html": pa.array([data], pa.binary())}))
    except Exception as e:
        raise Escaped(f"{type(e).__name__}: {e}") from e


def lexer_differential(data: bytes):
    """Every `N G obj` of the input (up to 64): its framing and its body
    through the scanner and the byte-level parser."""
    for i, m in enumerate(lexer_diff._HEADER.finditer(data)):
        if i == 64:
            break
        diff = (lexer_diff.frame_divergence(data, m.start(), lexer_diff.Lengths())
                or lexer_diff.body_divergence(data, m.end()))
        if diff:
            raise Diverged(f"at {m.start()}: {diff!r:.300}")


def content_differential(data: bytes):
    """The input itself as a content stream (PDF syntax, binary and
    damage mixed), then each page content stream the document yields
    (up to 16), through the content scanner and the byte loop."""
    from pdf_extract_ray.engine.document import load_document
    streams = [data]
    try:
        doc = load_document(data)
        if doc.is_encrypted():
            doc.decrypt("")
        for i, ref in enumerate(doc.get_pages().values()):
            if i == 16:
                break
            streams.append(doc.get_page_content(ref))
    except Exception:  # a document that does not load: the input alone
        pass
    for buf in streams:
        diff = lexer_diff.content_divergence(buf)
        if diff:
            raise Diverged(f"content stream of {len(buf)} bytes: "
                           f"{diff!r:.300}")


def text_state(data: bytes):
    """A text-state soup seeded from the input: the engine's resolved
    span columns against the per-glyph reference chain, and the text
    the batch resolve places against `PlainTextOutput`'s."""
    diff = glyph_reference.soup_divergence(random.Random(zlib.crc32(data)))
    if diff:
        raise Diverged(f"{diff:.600}")


def main() -> int:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 420
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260817

    gens = []
    for name in dir(g):
        if name.startswith("pdf_"):
            try:
                gens.append((name, getattr(g, name)()))
            except TypeError:
                pass
    print(f"generators: {len(gens)}")

    signal.signal(signal.SIGALRM, lambda s, f: (_ for _ in ()).throw(Hang()))
    rng = random.Random(seed)
    hangs = crashes = divergences = n = 0
    per_surface = {}
    t_start = time.time()
    surfaces = [extract_text_from_mem, extract_text_from_mem_by_pages,
                get_metadata, extract_batch, lexer_differential,
                content_differential, text_state]
    while time.time() - t_start < budget:
        name, base = gens[rng.randrange(len(gens))]
        buf = bytearray(base)
        mode = rng.random()
        if mode < 0.5:  # byte mutations
            for _ in range(rng.randint(1, 16)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
        elif mode < 0.75:  # truncation
            buf = buf[:rng.randrange(len(buf))]
        else:  # splice a chunk from another generator's doc
            _, other = gens[rng.randrange(len(gens))]
            a, b = sorted((rng.randrange(len(buf)), rng.randrange(len(buf))))
            o = rng.randrange(max(1, len(other) - (b - a) or 1))
            buf[a:b] = other[o:o + (b - a)]
        data = bytes(buf)
        fn = surfaces[rng.randrange(len(surfaces))]
        n += 1
        per_surface[fn.__name__] = per_surface.get(fn.__name__, 0) + 1
        try:
            signal.alarm(8)
            fn(data)
        except Hang:
            hangs += 1
            path = f"/tmp/fuzz_hang_{hangs}.bin"
            with open(path, "wb") as f:
                f.write(data)
            print(f"HANG {name} via {fn.__name__} -> {path}")
        except Diverged as e:
            divergences += 1
            path = f"/tmp/fuzz_divergence_{divergences}.bin"
            with open(path, "wb") as f:
                f.write(data)
            print(f"Diverged {name} via {fn.__name__} -> {path}: {e}")
        except (RecursionError, MemoryError, Escaped) as e:
            crashes += 1
            path = f"/tmp/fuzz_crash_{crashes}.bin"
            with open(path, "wb") as f:
                f.write(data)
            print(f"{type(e).__name__} {name} via {fn.__name__} -> {path}")
        except Exception:
            pass  # orderly failure: exactly what the pipeline totalizes
        finally:
            signal.alarm(0)
    print(f"done: {n} inputs {per_surface}, hangs={hangs}, "
          f"hard-crashes={crashes}, divergences={divergences}")
    return 1 if (hangs or crashes or divergences) else 0


if __name__ == "__main__":
    sys.exit(main())
