"""Tests of the benchmark itself, on inputs small enough to run in seconds.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import carp  # noqa: E402
from carp import codec  # noqa: E402
from carp.stream import CompressedStream  # noqa: E402

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Workload(
    lambda seed: [inputs.photo(32, [seed, 0]), inputs.colour_video(4, 16, [seed, 1])],
    (wl.Op(0, 2.0, psnr_floor=20.0),
     wl.Op(0, 1.0, target_ratio=4.0, psnr_floor=20.0),
     wl.Op(1, 1.0, psnr_floor=20.0)),
)


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    return wl.load_inputs(wl.write_inputs(TINY, 5, str(tmp_path_factory.mktemp("in"))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(wl.WORKLOADS)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert np.array_equal(inputs.photo(64, [3, 0]), inputs.photo(64, [3, 0]))
    assert not np.array_equal(inputs.photo(64, [3, 0]), inputs.photo(64, [4, 0]))
    video = inputs.colour_video(4, 16, 9)
    assert video.shape == (3, 4, 16, 16) and video.dtype == np.uint8


@pytest.mark.parametrize("op_index", range(len(TINY.ops)))
def test_byte_sections_sum_to_file_size(grids, op_index):
    op = TINY.ops[op_index]
    result = wl.run_op(op, grids[op.source])
    sections = wl.byte_sections(result.stream)
    assert sum(sections.values()) == len(result.data)
    assert all(v > 0 for v in sections.values())


def test_traced_op_matches_untraced_and_spans_are_consistent(grids):
    plain = [wl.run_op(op, grids[op.source]) for op in TINY.ops]
    originals = (codec.compress, codec.build_stats, CompressedStream.__dict__["from_bytes"])
    recorder = sp.Recorder()
    with sp.instrument(recorder):
        traced = []
        for op in TINY.ops:
            first = len(recorder.spans)
            traced.append(wl.run_op(op, grids[op.source], recorder.span))
            assert all(s[sp.END] >= s[sp.START] for s in recorder.spans[first:])
            own = sp.self_times(recorder.spans)[first:]
            assert min(own) >= 0
            assert sum(own) / 1e9 <= traced[-1].wall_s + 1e-6
    assert (codec.compress, codec.build_stats,
            CompressedStream.__dict__["from_bytes"]) == originals

    for a, b in zip(plain, traced):
        assert a.data == b.data
        assert np.array_equal(a.recon.values, b.recon.values)
    names = {s[sp.NAME] for s in recorder.spans}
    assert {"lattice.build_stats", "model.build_posterior", "tree.compute_kappa",
            "tree.extract_map_tree", "tree.permutation", "stream.decode_tree",
            "huffman.decode", "codec.target_ratio_search"} <= names

    metrics = sp.layer_metrics(recorder.spans, recorder.counts)
    assert metrics["codec.search_attempts"] >= 2
    assert metrics["tree.internal_nodes"] > 0 and metrics["huffman.tokens"] > 0


def test_failed_checks_are_counted(grids):
    tally = harness.Tally()
    checker = wl.Checker(grids)
    assert tally.run(wl.Op(0, 2.0, psnr_floor=1000.0), grids[0], checker) is None
    assert tally.run(wl.Op(0, 2.0, psnr_floor=20.0), grids[0], checker) is not None
    assert (tally.attempted, tally.failed) == (2, 1)


def _result(monkeypatch, capsys, trace):
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared_with_units(monkeypatch, capsys, trace):
    declared = {m["name"]: m["unit"]
                for m in _spec()["per_layer" if trace else "end_to_end"]}
    out = _result(monkeypatch, capsys, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= len(TINY.ops)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_counts_and_rates_repeat_for_a_seed(monkeypatch, capsys):
    exact = ("bytes", "nodes", "leaves", "tokens", "symbols", "attempts", "calls", "shapes")
    first, second = (_result(monkeypatch, capsys, 1)["metrics"] for _ in range(2))
    keys = [k for k in first if k.endswith(exact) or k == "stream.table_share"]
    assert len(keys) >= 12
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}

    first, second = (_result(monkeypatch, capsys, 0)["metrics"] for _ in range(2))
    for key in ("bpp", "psnr_db", "success_rate"):
        assert first[key] == second[key]


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC_DIR", str(tmp_path))
    start = time.perf_counter()
    assert run.main(["--workload", "photo-large", "--seed", "1", "--seconds", "1"]) == 2
    assert time.perf_counter() - start < 5
