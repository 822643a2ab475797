"""Dyadic block lattice and per-block aggregate statistics.

Every partition tree of the padded pixel space draws its nodes from one
shared pool: the set of axis-aligned blocks whose extent along axis i is a
power of two 2^a_i and whose offset is a multiple of that extent.  The same
block is reachable through many ancestor split orders, so aggregates are
computed once per block, not per tree.  Blocks are grouped by extent shape
(a_1, ..., a_m) and each shape is one dense array indexed by the block's
grid position, which keeps the whole sweep vectorized.  Outside the
sweep a block is addressed by its cells, one interval per axis: on an
axis of n samples interval 1 is the whole axis and interval c has halves
2c and 2c + 1, so grid index g of extent 2^a is interval (n >> a) + g and
any c >= n is one sample.  :func:`cells` maps a shape to its intervals.

Sums and corrected sums of squares are accumulated bottom-up from atomic
blocks via the split identity

    sst(A) = sst(A_left) + sst(A_right) + w_d(A)^2

with w_d(A) = (sum(A_left) - sum(A_right)) / sqrt(|A|), which is numerically
stable on large flat regions where the textbook sum-of-squares formula
cancels catastrophically.  Below, level e means the blocks of 2^e pixels,
whatever their shape (``level_of_shape`` counts from the root instead).
Level e reads only level e - 1, so the lattice is built one level at a
time, smallest blocks first, by one level builder.

That builder serves two holders.  A :class:`StatsLattice` stores every
level, about 16 bytes per block, so that repeated sweeps of one image (the
hyperparameter fit, the ratio search's attempts) share it.  A
:class:`LevelStream` builds each level on demand, as the posterior sweep
reaches it, which walks the levels in the same order, and drops what the
sweep has passed: it holds two levels of sums and one of SSTs, so an
encode that builds its own statistics never holds the whole lattice.

The module also holds the memory budget, ``DEFAULT_MAX_BYTES``, and the
one check against it, :func:`refuse_over_budget`, which the lattice, the
encoder, the decoder and the tree parse all call with their own bounds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, ResourceError
from .grid import PixelGrid

# sum + sst arrays, 8 bytes each
BYTES_PER_BLOCK = 16
# what one encode, decode or tree parse may allocate, by its own upper bound
DEFAULT_MAX_BYTES = 4 << 30


def refuse_over_budget(need: int, what: str) -> None:
    """Raise ResourceError when `what` would take need bytes, over
    ``DEFAULT_MAX_BYTES``."""
    if need > DEFAULT_MAX_BYTES:
        raise ResourceError(f"{what} would take ~{need / 2**20:.0f} MiB, over the "
                            f"{DEFAULT_MAX_BYTES / 2**20:.0f} MiB budget")


def lattice_shapes(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The block shapes of power-of-two dims, smallest blocks first, so
    that a shape's children come before it."""
    exps = [int(d).bit_length() - 1 for d in dims]
    return sorted(itertools.product(*(range(e + 1) for e in exps)), key=sum)


def block_count(dims: tuple[int, ...]) -> int:
    """The blocks of the lattice over power-of-two dims: 2n - 1 intervals
    on an axis of n samples, one block per choice of interval per axis."""
    return math.prod(2 * int(d) - 1 for d in dims)


def _halves(m: int, d: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples selecting the left (even) and right (odd) children along
    axis d of a per-shape child array with m axes."""
    left = tuple(slice(0, None, 2) if i == d else slice(None) for i in range(m))
    right = tuple(slice(1, None, 2) if i == d else slice(None) for i in range(m))
    return left, right


def _child(shape: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Shape of both children of a block of this shape halved along axis d."""
    return shape[:d] + (shape[d] - 1,) + shape[d + 1 :]


def cells(dims: tuple[int, ...], shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Per axis, the intervals [n >> a, 2n >> a) of this shape's blocks."""
    return tuple(slice(n >> a, 2 * n >> a) for n, a in zip(dims, shape))


def _check_pow2_dims(dims: tuple[int, ...]) -> list[int]:
    if any(d < 1 or d & (d - 1) for d in dims):
        raise DimensionError(f"lattice requires power-of-two dims, got {dims}")
    return [int(d).bit_length() - 1 for d in dims]


class StatsLattice:
    """Per-block sums and SSTs over the whole lattice of one image plane.

    Shapes are exponent tuples a = (a_1, ..., a_m); the dense array for a
    shape has one entry per block of that extent, indexed by offset >> a.
    ``channels`` is the number of channels the plane is the per-pixel sum
    of, so that the sweep scores it at that many times the noise scale; a
    bare plane is one channel.
    """

    def __init__(self, plane: np.ndarray, channels: int = 1):
        plane = np.asarray(plane, dtype=np.float64)
        self.channels: int = channels
        self.dims: tuple[int, ...] = plane.shape
        self.axis_exps: list[int] = _check_pow2_dims(self.dims)
        self.j_total: int = sum(self.axis_exps)
        self.m: int = len(self.dims)

        refuse_over_budget(BYTES_PER_BLOCK * self.node_count,
                           f"a lattice of {self.node_count} blocks")
        # every block sum of an integer-valued plane is an integer too
        self.integral: bool = bool(np.isfinite(plane).all()
                                   and np.array_equal(plane, np.trunc(plane)))

        # shapes ordered smallest blocks first so children always exist
        self.shapes: list[tuple[int, ...]] = lattice_shapes(self.dims)
        self.sums: dict[tuple[int, ...], np.ndarray] = {}
        self.ssts: dict[tuple[int, ...], np.ndarray] = {}
        self._build(plane)

    @classmethod
    def from_grid(cls, grid: PixelGrid) -> "StatsLattice":
        """The statistics of the plane a grid's shared tree is fitted on:
        the per-pixel sum of its channels, which is integer-valued whenever
        the samples are, so the sweep's mixture tables serve it."""
        plane = grid.values[0] if grid.channels == 1 else grid.values.sum(axis=0)
        return cls(plane, grid.channels)

    @property
    def node_count(self) -> int:
        return block_count(self.dims)

    def level_of_shape(self, shape: tuple[int, ...]) -> int:
        return self.j_total - sum(shape)

    def grid_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(n >> a for n, a in zip(self.dims, shape))

    def _build(self, plane: np.ndarray) -> None:
        atomic = self.shapes[0]
        self.sums[atomic] = plane.copy()
        self.ssts[atomic] = np.zeros_like(plane)
        for size_exp in range(1, self.j_total + 1):
            self._build_level(size_exp)

    def _build_level(self, size_exp: int) -> None:
        """Add the sums and SSTs of the blocks of 2^size_exp pixels, by the
        split identity, from those of the level below, which must be held."""
        for shape in self.shapes:
            if sum(shape) != size_exp:
                continue
            d = next(i for i, a in enumerate(shape) if a > 0)
            child = _child(shape, d)
            cs, ct = self.sums[child], self.ssts[child]
            left, right = _halves(self.m, d)
            sum_l, sum_r = cs[left], cs[right]
            w = (sum_l - sum_r) / math.sqrt(float(2 ** size_exp))
            self.sums[shape] = sum_l + sum_r
            self.ssts[shape] = ct[left] + ct[right] + w * w

    def _reach_level(self, size_exp: int) -> None:
        """Hold the sums of the blocks of 2^(size_exp - 1) and 2^size_exp
        pixels and the SSTs of the latter, as the posterior sweep reaches
        that level, smallest first.  A stored lattice holds every level."""


class LevelStream(StatsLattice):
    """The statistics of one plane, built a level at a time as the posterior
    sweep reaches it, and dropped once the sweep no longer reads them.

    At blocks of 2^e pixels it holds the sums of levels e - 1 and e and the
    SSTs of level e.  The atomic sums are the plane itself, not a copy, and
    their SSTs one broadcast zero.  Each level comes from the stored
    lattice's builder, so every sum and SST is bit for bit the stored one.
    One sweep reads it, once; what the sweep has passed is gone, so it is
    no lattice to share or to hand out.
    """

    def _build(self, plane: np.ndarray) -> None:
        atomic = self.shapes[0]
        self.sums[atomic] = plane
        self.ssts[atomic] = np.broadcast_to(0.0, plane.shape)

    def _reach_level(self, size_exp: int) -> None:
        self._build_level(size_exp)
        for shape in [s for s in self.sums if sum(s) < size_exp - 1]:
            del self.sums[shape]
        for shape in [s for s in self.ssts if sum(s) < size_exp]:
            del self.ssts[shape]


def build_stats(grid: PixelGrid) -> StatsLattice:
    """Aggregate sums and SSTs for every lattice block of the padded grid.

    Multi-channel grids are reduced to their per-pixel channel sum, the
    plane the shared partition tree is inferred from, at C times the noise
    scale for C channels.
    """
    if not grid.is_padded:
        raise DimensionError(f"grid dims {grid.dims} are not padded to {grid.dims_padded}")
    return StatsLattice.from_grid(grid)
