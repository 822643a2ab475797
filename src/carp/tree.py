"""MAP partition tree extraction and the induced pixel permutation.

The posterior sweep of :mod:`carp.model` computes, for every block, the
largest posterior mass any pruned partition subtree rooted there can
achieve (kappa, held as log kappa to survive deep trees), in the same
bottom-up pass as the marginal likelihood, and records the decision that
achieves it.  The best split axis is

    d_hat = argmax_d  split_post(A, d) * kappa(A_left) * kappa(A_right)

and the block becomes a leaf iff the stop branch strictly beats it,

    prune_post(A) > (1 - prune_post(A)) * split_post(A, d_hat)
                    * kappa(A_left) * kappa(A_right).

At exact equality the block is split.  Axis ties resolve to the lowest
index; both rules are fixed so identical inputs always produce identical
trees and therefore bit-identical streams.  Only the decisions are kept,
in one int8 array indexed by a block's cells (``lattice.cells``): -1 to
stop, otherwise the split axis.

Extraction then follows the decisions top-down, one gather per tree
level over the reached blocks only, so everything after the sweep costs
time proportional to the tree, not the lattice.  The tree-bit parser
grows its levels with the same :func:`grow_level`.  A :class:`MapTree` is
a set of per-node arrays in level order, as the levels are grown, and the
tree bits follow the same order.  Each row carries its node's heap index:
the root is 1 and node h has children 2h and 2h + 1, so level order is
ascending heap order, depth d is the heap range [2^d, 2^(d+1)), and node h
at depth d is the run h - 2^d of 2^(J - d) pixels in tree order, with
Haar coefficient c[h] (``transform.haar_forward``).  The children of the
k-th split row are rows 2k + 1 and 2k + 2.
The permutation the tree induces is a plain index array.  The decoder
walks the same heap: :func:`node_values` rebuilds every node's value from
its parent's and the parent's Haar coefficient, and :func:`paint_leaves`
writes one value per leaf over its block of a raster plane.  Blocks where
partitioning stops are kept as leaves rather than expanded further: the
reconstruction is constant on them, so nothing observable depends on how
they would be subdivided.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import StreamError
from .model import PosteriorLattice
from .transform import SQRT2


@dataclass(eq=False)
class MapTree:
    """Binary partition tree over the padded pixel space.

    Row k of every array describes the k-th node in level order, which is
    ascending heap order: its block, one interval per axis (``lattice.cells``),
    its heap index, and its split axis, -1 for a leaf.  The nodes of depth
    J, the sum of the padded dims' exponents, are single pixels; a leaf
    above them is pruned.
    """

    dims_padded: tuple[int, ...]
    cell: np.ndarray   # (nodes, m) per axis, the block's interval
    heap: np.ndarray   # (nodes,) heap index: root 1, children 2h and 2h + 1
    axis: np.ndarray   # (nodes,) int8 split axis, -1 for leaves

    def level_starts(self) -> list[int]:
        """The row where each depth 0..J starts, then the row count, so
        depth d is rows [starts[d], starts[d + 1]) and the atomic nodes are
        the rows from starts[-2] on."""
        j_total = sum(int(n).bit_length() - 1 for n in self.dims_padded)
        starts = np.searchsorted(self.heap, 1 << np.arange(j_total + 1, dtype=np.int64))
        return [*starts.tolist(), len(self.heap)]

    def node_counts(self) -> dict[str, int]:
        internal = int(np.count_nonzero(self.axis >= 0))
        atomic = len(self.axis) - self.level_starts()[-2]
        pruned = len(self.axis) - internal - atomic
        return dict(internal=internal, pruned_leaves=pruned, atomic_leaves=atomic,
                    total=len(self.axis))

    def pruned_pixel_fraction(self) -> float:
        # the leaves tile the pixels, and each atomic leaf is one of them
        n = int(np.prod(self.dims_padded))
        return (n - self.node_counts()["atomic_leaves"]) / n


def compute_kappa(lattice: PosteriorLattice) -> np.ndarray:
    """The sweep's int8 decisions, -1 to stop or the split axis, at each
    block's cells.  A pass-through, kept so that the benchmark's traced run
    can rebind it and record a ``tree.compute_kappa`` span until carp
    records its own stage times (ROADMAP item 1)."""
    return lattice.decisions


def _leaf_groups(tree: MapTree):
    """(shape, rows, grid index) for each block shape among the leaves:
    shapes by their per-axis depths in row-major order, rows ascending."""
    rows = np.flatnonzero(tree.axis < 0)
    index = tree.cell.take(rows, axis=0)
    depth = np.frexp(index)[1]
    depth -= 1
    index -= np.int64(1) << depth  # cell c of depth d is grid index c - 2^d
    radix = [int(n).bit_length() for n in tree.dims_padded]  # depths 0..log2 n
    ids = np.ravel_multi_index(tuple(depth.T), radix)
    del depth
    if (ids != ids[0]).any():
        by_shape = ids.argsort(kind="stable")
        rows = rows[by_shape]  # one sorted copy at a time
        index = index[by_shape]
        ids = ids[by_shape]
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(rows)]
    shapes = np.subtract(radix, 1) - np.transpose(np.unravel_index(ids[bounds[:-1]], radix))
    for shape, lo, hi in zip(shapes.tolist(), bounds[:-1], bounds[1:]):
        yield tuple(shape), rows[lo:hi], index[lo:hi]


@functools.lru_cache
def _split_steps(m: int) -> np.ndarray:
    """Row d is the one-hot step of a split along axis d < m.  Any other int8
    axis steps axis 0 by 2^31: every cell is below 2^32, so no product
    leaves int64, and each is at least 2^31 >= n."""
    steps = np.zeros((128, m), dtype=np.int64)
    steps[:m] = np.eye(m, dtype=np.int64)
    steps[m:, 0] = 1 << 31
    steps.setflags(write=False)
    return steps


def grow_level(dims: tuple[int, ...], cell: np.ndarray, heap: np.ndarray,
               axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next tree level: from one level's rows in heap order and their
    int8 split axes (-1 for leaves), each split's left child, its cell on
    the split axis doubled, then its right one, that cell plus 1.  Raises
    StreamError when an axis names no axis or a single sample (cell >= n)."""
    split = (axis >= 0).nonzero()[0]
    step = _split_steps(len(dims)).take(axis[split], axis=0)
    child = cell.take(split, axis=0)
    grown = child * step  # the cell on the split axis, 0 on the others
    if (grown >= dims).any():
        row = int((grown >= dims).any(axis=1).argmax())
        raise StreamError(
            f"tree names split axis {axis[split[row]]} on extent "
            f"{tuple(n >> c.bit_length() - 1 for n, c in zip(dims, child[row].tolist()))}")
    child += grown
    child = child.repeat(2, axis=0)
    child[1::2] += step  # the right children
    heap = (heap.take(split) << 1).repeat(2)
    heap[1::2] += 1
    return child, heap


def extract_map_tree(lattice: PosteriorLattice) -> MapTree:
    """Follow the sweep's decisions from the root, level by level."""
    decisions = compute_kappa(lattice)
    dims = lattice.stats.dims
    cell = np.ones((1, len(dims)), dtype=np.int64)
    heap = np.ones(1, dtype=np.int64)
    levels = []
    while len(heap):
        if len(levels) < sum(lattice.stats.axis_exps):
            axis = decisions[tuple(cell.T)]
        else:  # nodes at depth J are single pixels
            axis = np.full(len(heap), -1, dtype=np.int8)
        levels.append((cell, heap, axis))
        cell, heap = grow_level(dims, cell, heap, axis)
    cell, heap, axis = (np.concatenate(col) for col in zip(*levels))
    return MapTree(dims_padded=dims, cell=cell, heap=heap, axis=axis)


def permutation_from_tree(tree: MapTree) -> np.ndarray:
    """Depth-first pixel order: left child first, row-major inside leaves.

    order[i] is the flat row-major index of the i-th pixel in tree order;
    the returned int64 array is read-only.

    Row-major order inside a leaf is what repeatedly halving along the
    lowest divisible axis produces; the decoder regenerates it without any
    transmitted choice.  Each leaf shape paints its aligned runs at once.
    """
    dims = tree.dims_padded
    order = np.empty(int(np.prod(dims)), dtype=np.int64)
    for s, rows, index in _leaf_groups(tree):
        extent = [1 << a for a in s]
        local = np.ravel_multi_index(np.indices(extent).reshape(len(dims), -1), dims)
        base = np.ravel_multi_index(tuple((index << np.array(s)).T), dims)
        runs = order.reshape(-1, len(local))  # one row per node of the leaves' depth
        runs[tree.heap.take(rows) - len(runs)] = base[:, None] + local
    order.setflags(write=False)
    return order


def node_values(tree: MapTree, root: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Per channel, the value of every node in row order, each leaf's
    divided down to its pixels' values, from the root values (channels,)
    and the splits' Haar coefficients (channels, splits) in row order.

    These are the numbers ``transform.haar_inverse`` computes, by the same
    float operations: a split of value a and coefficient w gives its
    children (a + w) / SQRT2 and (a - w) / SQRT2, and a leaf of 2^s pixels
    divides its value by SQRT2 s times, as (a + 0) / SQRT2 once per level.
    The children of the k-th split are rows 2k + 1 and 2k + 2, so one level
    of splits writes one strided slice.
    """
    starts = tree.level_starts()
    split = np.flatnonzero(tree.axis >= 0)
    values = np.empty((len(root), len(tree.axis)))
    values[:, 0] = root
    ends = np.searchsorted(split, starts[1:]).tolist()  # splits above each depth's end
    for lo, hi in zip([0, *ends], ends):
        if lo == hi:  # a level without splits is the last with nodes
            break
        a, w = values[:, split[lo:hi]], coefficients[:, lo:hi]
        values[:, 2 * lo + 1 : 2 * hi + 1 : 2] = (a + w) / SQRT2
        values[:, 2 * lo + 2 : 2 * hi + 2 : 2] = (a - w) / SQRT2
    # a leaf at depth d divides J - d times: the pruned leaves, those above
    # depth J, then those above J - 1, and so on, each a prefix of the last
    leaf = np.flatnonzero(tree.axis[: starts[-2]] < 0)
    for end in starts[-2:0:-1]:
        leaf = leaf[: np.searchsorted(leaf, end)]
        if not len(leaf):
            break
        values[:, leaf] /= SQRT2
    return values


def paint_leaves(tree: MapTree, values: np.ndarray, planes: np.ndarray) -> None:
    """Write values[:, k] over the block of each leaf row k in planes, shaped
    (channels,) + dims_padded.

    Each leaf shape 2^a paints at once through a view of planes that splits
    axis i into (n_i >> a_i, 2^a_i): a leaf is its grid index on the outer
    axes and a whole slice on the inner ones.
    """
    dims = tree.dims_padded
    channel = np.arange(len(planes))[:, None]
    for s, rows, index in _leaf_groups(tree):
        leaf = values.take(rows, axis=1)
        view = planes.reshape((len(planes),) + sum(((n >> a, 1 << a)
                                                    for n, a in zip(dims, s)), ()))
        # the channel and grid indices broadcast to (channels, leaves), which
        # numpy puts first because slices separate them
        key = (channel,) + sum(((i, slice(None)) for i in index.T), ())
        view[key] = leaf.reshape(leaf.shape + (1,) * len(dims))
