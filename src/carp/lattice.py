"""Dyadic block lattice and per-block aggregate statistics.

Every partition tree of the padded pixel space draws its nodes from one
shared pool: the set of axis-aligned blocks whose extent along axis i is a
power of two 2^a_i and whose offset is a multiple of that extent.  The same
block is reachable through many ancestor split orders, so aggregates are
memoized per block, not per tree.  Blocks are grouped by extent shape
(a_1, ..., a_m) and each shape is stored as one dense array indexed by the
block's grid position, which keeps the whole sweep vectorized.  A block is
addressed only by that pair: its shape a and its grid index offset >> a.

Sums and corrected sums of squares are accumulated bottom-up from atomic
blocks via the split identity

    sst(A) = sst(A_left) + sst(A_right) + w_d(A)^2

with w_d(A) = (sum(A_left) - sum(A_right)) / sqrt(|A|), which is numerically
stable on large flat regions where the textbook sum-of-squares formula
cancels catastrophically.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, ResourceError
from .grid import PixelGrid

# sum + sst arrays, 8 bytes each
_BYTES_PER_NODE = 16
DEFAULT_MAX_BYTES = 4 << 30


def _halves(m: int, d: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples selecting the left (even) and right (odd) children along
    axis d of a per-shape child array with m axes."""
    left = tuple(slice(0, None, 2) if i == d else slice(None) for i in range(m))
    right = tuple(slice(1, None, 2) if i == d else slice(None) for i in range(m))
    return left, right


def _child(shape: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Shape of both children of a block of this shape halved along axis d."""
    return shape[:d] + (shape[d] - 1,) + shape[d + 1 :]


def _check_pow2_dims(dims: tuple[int, ...]) -> list[int]:
    exps = []
    for d in dims:
        e = int(d).bit_length() - 1
        if d < 1 or (1 << e) != d:
            raise DimensionError(f"lattice requires power-of-two dims, got {dims}")
        exps.append(e)
    return exps


class StatsLattice:
    """Per-block sums and SSTs over the whole lattice of one image plane.

    Shapes are exponent tuples a = (a_1, ..., a_m); the dense array for a
    shape has one entry per block of that extent, indexed by offset >> a.
    """

    def __init__(self, plane: np.ndarray, max_bytes: int = DEFAULT_MAX_BYTES):
        plane = np.asarray(plane, dtype=np.float64)
        self.dims: tuple[int, ...] = plane.shape
        self.axis_exps: list[int] = _check_pow2_dims(self.dims)
        self.j_total: int = sum(self.axis_exps)
        self.m: int = len(self.dims)

        node_count = self.node_count
        estimate = node_count * _BYTES_PER_NODE
        if estimate > max_bytes:
            raise ResourceError(
                f"lattice would hold {node_count} blocks "
                f"(~{estimate / 2**20:.0f} MiB of aggregates), over the "
                f"{max_bytes / 2**20:.0f} MiB budget"
            )
        # every block sum of an integer-valued plane is an integer too
        self.integral: bool = bool(np.isfinite(plane).all()
                                   and np.array_equal(plane, np.trunc(plane)))

        # shapes ordered smallest blocks first so children always exist
        self.shapes: list[tuple[int, ...]] = sorted(
            itertools.product(*(range(e + 1) for e in self.axis_exps)),
            key=sum,
        )
        self.sums: dict[tuple[int, ...], np.ndarray] = {}
        self.ssts: dict[tuple[int, ...], np.ndarray] = {}
        self._build(plane)

    @property
    def node_count(self) -> int:
        return int(np.prod([2 ** (e + 1) - 1 for e in self.axis_exps]))

    def level_of_shape(self, shape: tuple[int, ...]) -> int:
        return self.j_total - sum(shape)

    def grid_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(n >> a for n, a in zip(self.dims, shape))

    def _build(self, plane: np.ndarray) -> None:
        for shape in self.shapes:
            total = sum(shape)
            if total == 0:
                self.sums[shape] = plane.copy()
                self.ssts[shape] = np.zeros_like(plane)
                continue
            d = next(i for i, a in enumerate(shape) if a > 0)
            child = _child(shape, d)
            cs, ct = self.sums[child], self.ssts[child]
            left, right = _halves(self.m, d)
            sum_l, sum_r = cs[left], cs[right]
            w = (sum_l - sum_r) / math.sqrt(float(2 ** total))
            self.sums[shape] = sum_l + sum_r
            self.ssts[shape] = ct[left] + ct[right] + w * w


def build_stats(grid: PixelGrid, max_bytes: int = DEFAULT_MAX_BYTES) -> StatsLattice:
    """Aggregate sums and SSTs for every lattice block of the padded grid.

    Multi-channel grids are reduced to their per-pixel channel mean, the
    plane the shared partition tree is inferred from.
    """
    if not grid.is_padded:
        raise DimensionError(f"grid dims {grid.dims} are not padded to {grid.dims_padded}")
    return StatsLattice(grid.mean_plane(), max_bytes=max_bytes)
