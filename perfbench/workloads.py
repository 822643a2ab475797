"""Benchmark workloads: their inputs, operations and output checks.

An operation is one user-level round trip through carp's public API:
encode (``compress``, or ``target_ratio_search`` for the search
workload), serialize with ``to_bytes``, then parse with ``from_bytes`` and
``decompress``.  Every workload runs a fixed list of operations, a
*cycle*, built from its seed; the rate and quality metrics come from the
first cycle, so they repeat exactly for a given seed, while the timed loop
repeats the cycle for as long as the run lasts.

Carp functions are looked up on their modules at call time (``codec.compress``,
``CompressedStream.from_bytes``), so the traced run can rebind them to timing
wrappers without touching anything under ``src/``.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

import carp
from carp import codec
from carp.stream import MAGIC, CompressedStream

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

# Bytes of block aggregates per lattice node that the encoder budgets for
# (sum + sst, 8 bytes each); lattice.budget_mib reports node_count times this.
STATS_BYTES_PER_NODE = 16


@dataclass(frozen=True)
class Op:
    """One operation of a cycle: encode input ``source`` at ``sigma``, or
    search for ``target_ratio`` when it is set."""

    source: int
    sigma: float
    psnr_floor: float
    eta0: float | None = None
    target_ratio: float | None = None

    @property
    def key(self) -> str:
        if self.target_ratio is not None:
            return f"input{self.source} ratio={self.target_ratio:g}"
        return f"input{self.source} sigma={self.sigma:g}"

    def hyperparams(self) -> carp.Hyperparams:
        if self.eta0 is None:
            return carp.Hyperparams(sigma=self.sigma)
        return carp.Hyperparams(sigma=self.sigma, eta0=self.eta0)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], list[np.ndarray]]
    ops: tuple[Op, ...]
    largest: Op | None = None  # the largest single encode, when not ops[0]

    @property
    def memory_op(self) -> Op:
        """The operation whose peak memory is probed."""
        return self.largest or self.ops[0]


def _photos(size: int, count: int) -> Callable[[int], list[np.ndarray]]:
    return lambda seed: [inputs.photo(size, [seed, size, i]) for i in range(count)]


def _videos(count: int) -> Callable[[int], list[np.ndarray]]:
    return lambda seed: [inputs.colour_video(16, 128, [seed, 3, i]) for i in range(count)]


# Each cycle covers several independent inputs, as many as the run time
# allows, so that the seed-to-seed spread of rate, quality and content-
# dependent timings averages over them rather than resting on one image.
# PSNR floors sit about 5 dB under what the seed commit reaches.
WORKLOADS: dict[str, Workload] = {
    # Posterior, stats and tokenizer dominate; the tree has few hundred nodes.
    "photo-large": Workload(
        _photos(1024, 4),
        tuple(Op(i, s, psnr_floor=floor) for i in range(4)
              for s, floor in ((2.0, 30.0), (8.0, 24.0))),
    ),
    # Full tree (16,383 internal nodes): per-node Python in tree/stream/huffman.
    # 128x128 keeps an operation near 1.5 s, so a run times each op several
    # times and a burst of host load moves one sample, not the result.
    "photo-lossless": Workload(
        _photos(128, 3),
        tuple(Op(i, 0.01, eta0=0.0, psnr_floor=58.0) for i in range(3)),
    ),
    # Many encodes, one decode; the only place search policy can act.  Its
    # largest encode is the first attempt, sigma = 0.001 with a full tree.
    "ratio-search": Workload(
        _photos(128, 8),
        tuple(Op(i, 1.0, target_ratio=20.0, psnr_floor=25.0) for i in range(8)),
        largest=Op(0, 0.001, psnr_floor=0.0),
    ),
    # m=3 lattice, 2-bit split axes, three channels per tree.
    "colour-video": Workload(
        _videos(6),
        tuple(Op(i, s, psnr_floor=floor) for i in range(6)
              for s, floor in ((0.5, 30.0), (2.0, 24.0))),
    ),
}


def write_inputs(workload: Workload, seed: int, directory: str) -> list[str]:
    return [inputs.write_input(directory, f"input{i}", pixels)
            for i, pixels in enumerate(workload.make_inputs(seed))]


def load_inputs(paths: list[str], span=None) -> list[carp.PixelGrid]:
    span = span or (lambda name: nullcontext())
    grids = []
    for path in paths:
        with span("grid.load"):
            grid = carp.load(path)
        with span("grid.pad"):
            grids.append(carp.pad(grid))
    return grids


def samples(grid: carp.PixelGrid) -> int:
    return grid.channels * int(np.prod(grid.dims_original))


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    stream: CompressedStream
    data: bytes
    recon: carp.PixelGrid
    converged: bool
    encode_s: float
    serialize_s: float
    decode_s: float

    @property
    def wall_s(self) -> float:
        return self.encode_s + self.serialize_s + self.decode_s


def run_op(op: Op, grid: carp.PixelGrid, span=None, min_decode_s: float = 0.0) -> OpResult:
    """Encode, serialize, parse and decode; ``span(name)`` marks the phases.

    The decode repeats until ``min_decode_s`` have passed, so that decodes
    of a few milliseconds are timed over enough work; ``decode_s`` is the
    mean of one.
    """
    span = span or (lambda name: nullcontext())
    hp = op.hyperparams()
    t0 = time.perf_counter()
    with span("op.encode"):
        if op.target_ratio is None:
            stream, converged = codec.compress(grid, hp), True
        else:
            found = codec.target_ratio_search(grid, hp, op.target_ratio)
            stream, converged = found.stream, found.converged
        t1 = time.perf_counter()
        data = stream.to_bytes()
    t2 = time.perf_counter()
    decodes = 0
    while not decodes or time.perf_counter() - t2 < min_decode_s:
        with span("op.decode"):
            recon = codec.decompress(CompressedStream.from_bytes(data))
        decodes += 1
    t3 = time.perf_counter()
    return OpResult(stream, data, recon, converged, t1 - t0, t2 - t1, (t3 - t2) / decodes)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


@dataclass
class Checker:
    """Checks every operation's output.

    The first execution of an op is checked in full: the bytes decode to
    exactly the pixels of the in-memory stream, the reconstruction has the
    input's dims, channels and bit depth, PSNR is at or above the floor and
    a ratio search converged.  Later executions of the same op must repeat
    its bytes and pixels exactly.
    """

    grids: list[carp.PixelGrid]
    reference: dict[str, tuple[bytes, np.ndarray]] = field(default_factory=dict)
    psnr_db: dict[str, float] = field(default_factory=dict)

    def check(self, op: Op, result: OpResult) -> None:
        ref = self.reference.get(op.key)
        if ref is not None:
            if result.data != ref[0]:
                raise CheckFailed(f"{op.key}: stream bytes differ from the first run")
            if not np.array_equal(result.recon.values, ref[1]):
                raise CheckFailed(f"{op.key}: decoded pixels differ from the first run")
            return
        grid, recon = self.grids[op.source], result.recon
        if (recon.dims_original != grid.dims_original or recon.dims != grid.dims_original
                or recon.channels != grid.channels or recon.bit_depth != grid.bit_depth):
            raise CheckFailed(
                f"{op.key}: decoded {recon.channels}x{recon.dims} at {recon.bit_depth} bit, "
                f"input {grid.channels}x{grid.dims_original} at {grid.bit_depth} bit")
        in_memory = codec.decompress(result.stream)
        if not np.array_equal(in_memory.values, recon.values):
            raise CheckFailed(f"{op.key}: bytes decode to other pixels than the in-memory stream")
        if not result.converged:
            raise CheckFailed(f"{op.key}: ratio search did not converge")
        db = carp.psnr(grid, recon)
        if not db >= op.psnr_floor:
            raise CheckFailed(f"{op.key}: PSNR {db:.2f} dB under the {op.psnr_floor} dB floor")
        self.reference[op.key] = (result.data, recon.values)
        self.psnr_db[op.key] = db


# ---------------------------------------------------------------------------
# Stream byte breakdown
# ---------------------------------------------------------------------------

def byte_sections(stream: CompressedStream) -> dict[str, int]:
    """Header, tree, table and payload bytes, from the stream's fields and
    the container layout documented in ``carp.stream``.

    header: magic, version, m, channels, bit depth, sigma, q, the five
    hyperparameters, both dims tuples and each channel's scaling symbol;
    tree: bit count plus tree bits; table: each channel's entry count plus
    (symbol, length) pairs; payload: each channel's bit count plus bits.
    """
    m = len(stream.dims_original)
    header = (len(MAGIC) + struct.calcsize("<BBHB") + struct.calcsize("<7d")
              + 2 * struct.calcsize(f"<{m}I"))
    tree = struct.calcsize("<I") + len(stream.tree_bits)
    table = payload = 0
    for ch in stream.channels:
        header += struct.calcsize("<q")
        table += struct.calcsize("<I") + len(ch.code_lengths) * struct.calcsize("<qB")
        payload += struct.calcsize("<Q") + len(ch.payload)
    return {"header": header, "tree": tree, "table": table, "payload": payload}


# ---------------------------------------------------------------------------
# Memory probe
# ---------------------------------------------------------------------------

def _status_kib(field: str) -> int:
    """A kB field of /proc/self/status, such as VmRSS or VmHWM."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def probe_memory(path: str, op: Op) -> float:
    """Peak RSS over one operation on a loaded input, less the RSS before it,
    in MiB.  VmHWM is used rather than ru_maxrss, which a child process
    inherits from the parent's peak across exec."""
    grid = carp.pad(carp.load(path))
    gc.collect()
    before = _status_kib("VmRSS")
    result = run_op(op, grid)
    peak = _status_kib("VmHWM")
    if result.recon.dims != grid.dims_original:
        raise CheckFailed(f"{op.key}: memory probe decoded dims {result.recon.dims}")
    return (peak - before) / 1024.0


_PROBE_CHILD = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "op = workloads.Op(**json.loads(sys.argv[4]))\n"
    "print(workloads.probe_memory(sys.argv[3], op))\n"
)


def probe_memory_in_child(path: str, op: Op, timeout: float = 150.0) -> float:
    """Run probe_memory in a fresh interpreter, so nothing this process
    allocated earlier hides under the high-water mark."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE_CHILD, SRC_DIR, BENCH_DIR, path, json.dumps(asdict(op))],
        capture_output=True, text=True, timeout=timeout, check=True)
    return float(out.stdout.strip().splitlines()[-1])


_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import carp\n"
    "grids = [carp.pad(carp.load(p)) for p in sys.argv[1:]]\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(paths: list[str], repeats: int, timeout: float = 60.0) -> list[float]:
    """Seconds for ``import carp`` plus load and pad of every input, each
    in a fresh interpreter, after one untimed start that fills caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    times = []
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, *paths], env=env,
                             capture_output=True, text=True, timeout=timeout, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times
