"""Span recording for the traced run.

``instrument`` rebinds the names carp's pipeline calls through to timing
wrappers and restores them on exit; nothing under ``src/`` changes.  Each
span records its name, start, end, parent span and operation id; spans stay
in memory until the run writes them out.  A span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import carp
from carp import codec
from carp.stream import CompressedStream

NAME, START, END, PARENT, OP = range(5)

# Spans the benchmark itself opens around counting work; they count as
# children (so no carp layer is charged for them) but belong to no layer.
COUNT_SPAN = "perfbench.count"

# Modules of src/carp on the timed path, in pipeline order.
LAYERS = ("lattice", "model", "tree", "transform", "stream", "huffman", "codec")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                with self.span(COUNT_SPAN):
                    on_result(result)
            return result
        return wrapper

    def _count_tree(self, tree) -> None:
        counts = tree.node_counts()
        self.counts["tree.internal_nodes"] += counts["internal"]
        self.counts["tree.pruned_leaves"] += counts["pruned_leaves"]

    def _count(self, key: str):
        def add(result) -> None:
            self.counts[key] += len(result)
        return add


@contextmanager
def instrument(recorder: Recorder):
    """Rebind carp's pipeline names to recording wrappers while active."""
    module_names = [
        (codec, "build_stats", "lattice.build_stats", None),
        (codec, "build_posterior", "model.build_posterior", None),
        (carp.tree, "compute_kappa", "tree.compute_kappa", None),
        (codec, "extract_map_tree", "tree.extract_map_tree", recorder._count_tree),
        (codec, "permutation_from_tree", "tree.permutation", None),
        (codec, "haar_forward", "transform.haar_forward", None),
        (codec, "haar_inverse", "transform.haar_inverse", None),
        (codec, "quantize", "transform.quantize", None),
        (codec, "dequantize", "transform.dequantize", None),
        (codec, "tokenize_scale", "stream.tokenize", recorder._count("huffman.tokens")),
        (codec, "serialize_tree", "stream.serialize_tree", None),
        (codec, "histogram", "huffman.build", None),
        (codec, "build_code_lengths", "huffman.build",
         recorder._count("huffman.distinct_symbols")),
        (codec, "canonical_codes", "huffman.build", None),
        (codec, "encode_symbols", "huffman.encode", None),
        (codec, "detokenize", "huffman.decode", None),
        (codec, "compress", "codec.compress", None),
        (codec, "decompress", "codec.decompress", None),
        (codec, "target_ratio_search", "codec.target_ratio_search", None),
    ]
    class_names = [
        ("to_bytes", "stream.to_bytes"),
        ("from_bytes", "stream.from_bytes"),
        ("decode_tree", "stream.decode_tree"),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in module_names:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(name, fn, on_result))
        for attr, name in class_names:
            raw = CompressedStream.__dict__[attr]
            saved.append((CompressedStream, attr, raw))
            if isinstance(raw, classmethod):
                setattr(CompressedStream, attr, classmethod(recorder.wrap(name, raw.__func__)))
            else:
                setattr(CompressedStream, attr, recorder.wrap(name, raw))
        yield recorder
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus its direct children's, in ns."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def phases(spans: list[list]) -> list[str | None]:
    """'encode' or 'decode' for spans under an op.encode / op.decode span."""
    out: list[str | None] = []
    for s in spans:  # a parent is always recorded before its children
        if s[NAME] in ("op.encode", "op.decode"):
            out.append(s[NAME][3:])
        else:
            out.append(out[s[PARENT]] if s[PARENT] is not None else None)
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """name -> {calls, total_ms, self_ms}, with permutation split by phase."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s, own, phase in zip(spans, self_times(spans), phases(spans)):
        name = s[NAME]
        if name == "tree.permutation":
            name = f"tree.permutation_{phase}"
        row = table[name]
        row["calls"] += 1
        row["total_ms"] += (s[END] - s[START]) / 1e6
        row["self_ms"] += own / 1e6
    return dict(table)


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics one traced cycle yields from its spans."""
    table = summarize(spans)

    def get(name: str, column: str = "total_ms") -> float:
        return table.get(name, {}).get(column, 0.0)

    m = {
        "grid.load_ms": get("grid.load"),
        "grid.pad_ms": get("grid.pad"),
        "lattice.build_stats_ms": get("lattice.build_stats"),
        "lattice.build_stats_calls": get("lattice.build_stats", "calls"),
        "model.build_posterior_ms": get("model.build_posterior"),
        "tree.compute_kappa_ms": get("tree.compute_kappa"),
        "tree.extract_map_tree_ms": get("tree.extract_map_tree", "self_ms"),
        "tree.permutation_encode_ms": get("tree.permutation_encode"),
        "tree.permutation_decode_ms": get("tree.permutation_decode"),
        "transform.haar_forward_ms": get("transform.haar_forward"),
        "transform.haar_inverse_ms": get("transform.haar_inverse"),
        "transform.quantize_ms": get("transform.quantize"),
        "transform.dequantize_ms": get("transform.dequantize"),
        "stream.tokenize_ms": get("stream.tokenize"),
        "stream.serialize_tree_ms": get("stream.serialize_tree"),
        "stream.decode_tree_ms": get("stream.decode_tree"),
        "stream.to_bytes_ms": get("stream.to_bytes"),
        "stream.to_bytes_calls": get("stream.to_bytes", "calls"),
        "stream.from_bytes_ms": get("stream.from_bytes"),
        "huffman.build_ms": get("huffman.build"),
        "huffman.encode_ms": get("huffman.encode"),
        "huffman.decode_ms": get("huffman.decode"),
        "codec.compress_self_ms": get("codec.compress", "self_ms"),
        "codec.decompress_self_ms": get("codec.decompress", "self_ms"),
        "trace.encode_ms": get("op.encode"),
        "trace.decode_ms": get("op.decode"),
        "trace.spans": float(len(spans)),
    }
    for key in ("tree.internal_nodes", "tree.pruned_leaves", "huffman.tokens",
                "huffman.distinct_symbols"):
        m[key] = float(counts.get(key, 0))

    attempts = [s for s in spans if s[NAME] == "codec.compress" and s[PARENT] is not None
                and spans[s[PARENT]][NAME] == "codec.target_ratio_search"]
    m["codec.search_attempts"] = float(len(attempts))
    m["codec.search_attempt_ms"] = (
        sum(s[END] - s[START] for s in attempts) / 1e6 / len(attempts) if attempts else 0.0)

    for layer in LAYERS:
        for phase in ("encode", "decode"):
            m[f"{layer}.{phase}_self_ms"] = 0.0
    for s, own, phase in zip(spans, self_times(spans), phases(spans)):
        layer = s[NAME].split(".", 1)[0]
        if layer in LAYERS and phase is not None:
            m[f"{layer}.{phase}_self_ms"] += own / 1e6
    return m
