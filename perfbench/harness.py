"""The measured run and the traced run of one workload.

Both return a dict of metric name -> value.  Every operation goes through
``Tally.run``, so an exception or a failed output check is counted against
the operations attempted and printed, never dropped.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext

import carp

import spans as sp
import workloads as wl

SETUP_REPEATS = 9
# Decodes shorter than this are repeated within their operation.
MIN_DECODE_S = 0.25


def another_cycle(start: float, cycles: int, seconds: float) -> bool:
    """Whether a run that began at ``start`` runs one more whole cycle: yes
    while that ends it nearer to ``seconds`` than stopping now does, so a
    run overshoots by at most half a cycle however long its cycles are."""
    if not cycles:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / cycles / 2 < seconds


class Tally:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, op: wl.Op, grid: carp.PixelGrid, checker: wl.Checker,
            span=None, min_decode_s: float = 0.0, around=nullcontext) -> wl.OpResult | None:
        """Run the operation inside ``around()``, then check it outside; on
        any failure count it and return None."""
        self.attempted += 1
        try:
            with around():
                result = wl.run_op(op, grid, span, min_decode_s)
            checker.check(op, result)
            return result
        except Exception:  # a failed operation is a result to count, not a crash
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def measured_run(workload: wl.Workload, paths: list[str], seconds: float,
                 tally: Tally) -> dict[str, float]:
    """End-to-end metrics: set-up and memory in child processes, then the
    timed loop, which runs whole cycles for about ``seconds``.

    Each op's encode, decode and wall seconds are medians over the cycles,
    so a burst of load from elsewhere on the host that slows one cycle
    does not move them; the throughputs weigh the ops by their samples.
    """
    setup = wl.setup_seconds(paths, SETUP_REPEATS)
    mem_op = workload.memory_op
    peak_mib = wl.probe_memory_in_child(paths[mem_op.source], mem_op)

    grids = wl.load_inputs(paths)
    checker = wl.Checker(grids)
    timings: dict[str, list[tuple[float, float, float]]] = {}  # key -> encode, decode, wall
    sizes: dict[str, int] = {}  # key -> samples
    cycles = cycle_bytes = cycle_samples = 0
    start = time.perf_counter()
    while another_cycle(start, cycles, seconds):
        for op in workload.ops:
            gc.collect()
            result = tally.run(op, grids[op.source], checker, min_decode_s=MIN_DECODE_S)
            if result is None:
                continue
            n = sizes[op.key] = wl.samples(grids[op.source])
            timings.setdefault(op.key, []).append(
                (result.encode_s, result.decode_s, result.wall_s))
            if not cycles:
                cycle_bytes += len(result.data)
                cycle_samples += n
        if not timings:
            raise RuntimeError("no operation succeeded")
        cycles += 1

    medians = {key: [statistics.median(column) for column in zip(*rows)]
               for key, rows in timings.items()}
    n = sum(sizes.values())
    encode_s, decode_s, wall_s = (sum(column) for column in zip(*medians.values()))
    return {
        "setup_s": statistics.median(setup),
        "encode_mpix_s": n / encode_s / 1e6,
        "decode_mpix_s": n / decode_s / 1e6,
        "op_s": wall_s / len(medians),
        "bpp": 8.0 * cycle_bytes / cycle_samples,
        "psnr_db": statistics.mean(checker.psnr_db.values()),
        "peak_mem_mib": peak_mib,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
    }


def memory_pass(workload: wl.Workload, paths: list[str],
                grids: list[carp.PixelGrid]) -> dict[str, float]:
    """Untimed: the posterior's tracemalloc peak next to the lattice's size,
    and the peak-RSS growth of a whole ratio search (0 without one)."""
    search = next((op for op in workload.ops if op.target_ratio is not None), None)
    search_peak = wl.probe_memory_in_child(paths[search.source], search) if search else 0.0
    op = workload.memory_op
    grid = grids[op.source]
    stats = carp.build_stats(grid)
    gc.collect()
    tracemalloc.start()
    try:
        carp.build_posterior(grid, op.hyperparams(), stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "lattice.nodes": float(stats.node_count),
        "lattice.budget_mib": stats.node_count * wl.STATS_BYTES_PER_NODE / 2**20,
        "model.shapes": float(len(stats.shapes)),
        "model.peak_mib": peak / 2**20,
        "codec.search_peak_mib": search_peak,
    }


def traced_run(workload: wl.Workload, paths: list[str], seconds: float, tally: Tally,
               spans_path: str | None = None) -> dict[str, float]:
    """Per-layer metrics from cycles in which every op runs twice, once
    untraced and once traced, back to back and in alternating order, for
    about ``seconds``; timings are medians over cycles.

    The checker holds the first result of every op, so a traced run that
    emits other bytes or pixels than the untraced one fails its check.
    """
    checker = wl.Checker(wl.load_inputs(paths))
    per_cycle, recorded, untraced, traced = [], [], [], []
    sections = {"header": 0, "tree": 0, "table": 0, "payload": 0}  # first cycle
    start = time.perf_counter()
    while another_cycle(start, len(per_cycle), seconds):
        recorder = sp.Recorder()
        grids = wl.load_inputs(paths, recorder.span)
        wall = {False: 0.0, True: 0.0}
        for index, op in enumerate(workload.ops):
            recorder.op = f"{index}:{op.key}"
            for tracing in ((False, True) if index % 2 == 0 else (True, False)):
                gc.collect()
                if tracing:
                    result = tally.run(op, grids[op.source], checker, recorder.span,
                                       around=lambda: sp.instrument(recorder))
                else:
                    result = tally.run(op, grids[op.source], checker)
                if result is None:
                    continue
                wall[tracing] += result.wall_s
                if not tracing and not per_cycle:
                    for k, v in wl.byte_sections(result.stream).items():
                        sections[k] += v
        if not wall[False] or not wall[True]:
            raise RuntimeError("no operation succeeded")
        untraced.append(wall[False])
        traced.append(wall[True])
        per_cycle.append(sp.layer_metrics(recorder.spans, recorder.counts))
        recorded.append(recorder.spans)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "cycles": recorded,
                       "summary": [sp.summarize(spans) for spans in recorded]}, fh)

    metrics = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
    for k, v in sections.items():
        metrics[f"stream.{k}_bytes"] = float(v)
    metrics["stream.table_share"] = sections["table"] / sum(sections.values())
    metrics["trace.untraced_ms"] = 1e3 * statistics.median(untraced)
    metrics["trace.traced_ms"] = 1e3 * statistics.median(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics.update(memory_pass(workload, paths, checker.grids))
    return metrics
