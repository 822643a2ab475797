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
one int8 array per block shape: -1 to stop, otherwise the split axis.

Extraction then follows the decisions top-down, one tree level at a time
and over the reached blocks only, so everything after the sweep costs
time proportional to the tree, not the lattice.  The tree-bit parser
grows its levels with the same :func:`grow_level`.  A :class:`MapTree` is
a set of per-node arrays in level order, as the levels are grown; only the
tree bits are in preorder.  Level order is a heap: the children of the
k-th split row, counting splits in row order, are rows 2k + 1 and 2k + 2.
The permutation the tree induces is a plain index array.  The decoder
walks the same heap: :func:`node_values` rebuilds every node's value from
its parent's and the parent's Haar coefficient, and :func:`paint_leaves`
writes one value per leaf over its block of a raster plane.  Blocks where
partitioning stops are kept as leaves rather than expanded further: the
reconstruction is constant on them, so nothing observable depends on how
they would be subdivided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StreamError
from .model import PosteriorLattice
from .transform import SQRT2


@dataclass(eq=False)
class MapTree:
    """Binary partition tree over the padded pixel space.

    Row k of every array describes the k-th node in level order (by depth,
    then by position, as the levels are grown).  A node's block has extent
    2^shape[k] and offset index[k] * 2^shape[k]; its pixels occupy the run
    starting at pos[k] in tree order, a multiple of its 2^sum(shape[k])
    pixels.  axis[k] is the split axis, or -1 for a leaf; a leaf whose
    shape is not all zero is pruned.
    """

    dims_padded: tuple[int, ...]
    shape: np.ndarray  # (nodes, m) extent exponents
    index: np.ndarray  # (nodes, m) grid index within the node's shape
    pos: np.ndarray    # (nodes,) tree-order position of the first pixel
    axis: np.ndarray   # (nodes,) int8 split axis, -1 for leaves

    @property
    def pruned(self) -> np.ndarray:
        return (self.axis < 0) & (sum_columns(self.shape) > 0)

    def node_counts(self) -> dict[str, int]:
        internal = int(np.count_nonzero(self.axis >= 0))
        pruned = int(np.count_nonzero(self.pruned))
        atomic = len(self.axis) - internal - pruned
        return {
            "internal": internal,
            "pruned_leaves": pruned,
            "atomic_leaves": atomic,
            "total": internal + pruned + atomic,
        }

    def pruned_pixel_fraction(self) -> float:
        n = int(np.prod(self.dims_padded))
        covered = int(np.sum(1 << sum_columns(self.shape[self.pruned])))
        return covered / n


def compute_kappa(lattice: PosteriorLattice) -> dict[tuple[int, ...], np.ndarray]:
    """The int8 decision of every non-atomic block, per shape: -1 to stop,
    otherwise the split axis.  The posterior sweep computes them in the
    same pass as the marginal likelihood.  A pass-through, kept so that the
    benchmark's traced run can rebind it and record a ``tree.compute_kappa``
    span until carp records its own stage times (ROADMAP item 1)."""
    return lattice.decisions


def sum_columns(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of a (rows, m) integer array, by adding its m columns:
    numpy reduces along a short axis several times slower, and integer sums
    are exact either way."""
    total = a[:, 0].copy()
    for column in a.T[1:]:
        total += column
    return total


def _shape_groups(shape: np.ndarray, rows: np.ndarray, dims: tuple[int, ...]):
    """(shape tuple, rows of that shape) for each distinct shape among rows,
    shapes in row-major order and rows in their given order."""
    if not len(rows):
        return
    columns = shape.take(rows, axis=0).T
    ids = columns[0].copy()
    for a, n in zip(columns[1:], dims[1:]):
        ids *= int(n).bit_length()
        ids += a
    if (ids == ids[0]).all():
        yield tuple(shape[rows[0]].tolist()), rows
        return
    by_shape = ids.argsort(kind="stable")
    ids, rows = ids[by_shape], rows[by_shape]
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), len(rows)]):
        yield tuple(shape[rows[lo]].tolist()), rows[lo:hi]


def grow_level(shape: np.ndarray, index: np.ndarray, pos: np.ndarray,
               axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next tree level: from one level's rows in position order and
    their int8 split axes (-1 for leaves), each split's left child, then
    its right one.  A split along d halves the extent on d, and its right
    child lies one child extent further along d.  Raises StreamError when
    an axis names no axis or an extent of 1."""
    m = shape.shape[1]
    split = (axis >= 0).nonzero()[0]
    d = axis[split]
    step = (d[:, None] == np.arange(m)).astype(np.int64)  # one-hot split axes
    child = shape.take(split, axis=0) - step
    if (d >= m).any() or (child < 0).any():
        row = int(((d >= m) | (child < 0).any(axis=1)).argmax())
        raise StreamError(
            f"tree names split axis {d[row]} on extent "
            f"{tuple(1 << a for a in shape[split[row]].tolist())}"
        )
    index = (index.take(split, axis=0) << step).repeat(2, axis=0)
    index[1::2] += step  # the right children
    pos = pos.take(split).repeat(2)
    pos[1::2] += 1 << int(child[:1].sum())  # the nodes of a level are one size
    return child.repeat(2, axis=0), index, pos


def extract_map_tree(lattice: PosteriorLattice) -> MapTree:
    """Follow the sweep's decisions from the root, level by level."""
    decisions = compute_kappa(lattice)
    stats = lattice.stats
    shape = np.array([stats.axis_exps], dtype=np.int64)
    index = np.zeros((1, stats.m), dtype=np.int64)
    pos = np.zeros(1, dtype=np.int64)
    levels = []
    while len(pos):
        axis = np.full(len(pos), -1, dtype=np.int8)
        for s, rows in _shape_groups(shape, np.flatnonzero(sum_columns(shape)), stats.dims):
            axis[rows] = decisions[s][tuple(index.take(rows, axis=0).T)]
        levels.append((shape, index, pos, axis))
        shape, index, pos = grow_level(shape, index, pos, axis)
    shape, index, pos, axis = (np.concatenate(col) for col in zip(*levels))
    return MapTree(dims_padded=stats.dims, shape=shape, index=index, pos=pos, axis=axis)


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
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(len(dims))],
                       dtype=np.int64)
    for s, rows in _shape_groups(tree.shape, np.flatnonzero(tree.axis < 0), dims):
        extent = tuple(1 << a for a in s)
        local = np.indices(extent).reshape(len(dims), -1).T @ strides
        base = (tree.index.take(rows, axis=0) << np.array(s)) @ strides
        order.reshape(-1, len(local))[tree.pos[rows] >> sum(s)] = base[:, None] + local
    order.setflags(write=False)
    return order


def split_heap_indices(tree: MapTree) -> np.ndarray:
    """The heap index of each split, in row order: 2^d + (pos >> (J - d))
    for a node of 2^(J - d) pixels at depth d (``transform.haar_forward``).
    Level order makes them ascend, so ``np.searchsorted`` matches heap
    indices to splits."""
    split = np.flatnonzero(tree.axis >= 0)
    size = sum_columns(tree.shape.take(split, axis=0))
    return ((1 << int(tree.shape[0].sum())) + tree.pos.take(split)) >> size


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
    size = sum_columns(tree.shape)
    leaf = np.flatnonzero((tree.axis < 0) & (size > 0))  # the pruned leaves
    leaf_size = size[leaf]
    split = np.flatnonzero(tree.axis >= 0)
    ends = np.cumsum(np.bincount(size[0] - size.take(split))).tolist()  # per depth
    del size
    values = np.empty((len(root), len(tree.axis)))
    values[:, 0] = root
    for lo, hi in zip([0] + ends[:-1], ends):
        a, w = values[:, split[lo:hi]], coefficients[:, lo:hi]
        values[:, 2 * lo + 1 : 2 * hi + 1 : 2] = (a + w) / SQRT2
        values[:, 2 * lo + 2 : 2 * hi + 2 : 2] = (a - w) / SQRT2
    while len(leaf):
        values[:, leaf] /= SQRT2
        leaf, leaf_size = leaf[leaf_size > 1], leaf_size[leaf_size > 1] - 1
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
    for s, rows in _shape_groups(tree.shape, np.flatnonzero(tree.axis < 0), dims):
        leaf = values.take(rows, axis=1)
        view = planes.reshape((len(planes),) + sum(((n >> a, 1 << a)
                                                    for n, a in zip(dims, s)), ()))
        # the channel and grid indices broadcast to (channels, leaves), which
        # numpy puts first because slices separate them
        key = (channel,) + sum(((i, slice(None))
                                for i in tree.index.take(rows, axis=0).T), ())
        view[key] = leaf.reshape(leaf.shape + (1,) * len(dims))
