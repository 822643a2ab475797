"""MAP partition tree extraction and the induced pixel permutation.

One bottom-up sweep over the block lattice computes, for every block, the
largest posterior mass any pruned partition subtree rooted there can
achieve (kappa, stored as log kappa to survive deep trees), and in the
same pass records the decision that achieves it.  The best split axis is

    d_hat = argmax_d  split_post(A, d) * kappa(A_left) * kappa(A_right)

and the block becomes a leaf iff the stop branch strictly beats it,

    prune_post(A) > (1 - prune_post(A)) * split_post(A, d_hat)
                    * kappa(A_left) * kappa(A_right).

At exact equality the block is split.  Axis ties resolve to the lowest
index; both rules are fixed so identical inputs always produce identical
trees and therefore bit-identical streams.  The decisions live in one
int8 array per block shape: -1 to stop, otherwise the split axis.

Extraction then follows the decisions top-down, one tree level at a time
and over the reached blocks only, so everything after the sweep costs
time proportional to the tree, not the lattice.  A :class:`MapTree` is a
set of per-node arrays in preorder, and the permutation it induces is a
plain index array.  Blocks where partitioning stops are kept as leaves
rather than expanded further: the reconstruction is constant on them, so
nothing observable depends on how they would be subdivided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _child, _halves
from .model import PosteriorLattice


@dataclass(eq=False)
class MapTree:
    """Binary partition tree over the padded pixel space.

    Row k of every array describes the k-th node in preorder (a node, then
    its left subtree, then its right subtree).  A node's block has extent
    2^shape[k] and offset index[k] * 2^shape[k]; its pixels occupy the run
    starting at pos[k] in tree order.  axis[k] is the split axis, or -1
    for a leaf; a leaf whose shape is not all zero is pruned.
    """

    dims_padded: tuple[int, ...]
    shape: np.ndarray  # (nodes, m) extent exponents
    index: np.ndarray  # (nodes, m) grid index within the node's shape
    pos: np.ndarray    # (nodes,) tree-order position of the first pixel
    axis: np.ndarray   # (nodes,) int8 split axis, -1 for leaves

    @property
    def pruned(self) -> np.ndarray:
        return (self.axis < 0) & self.shape.any(axis=1)

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

    def pruned_regions(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(offset, extent) of each pruned leaf, left to right."""
        rows = self.pruned
        extent = 1 << self.shape[rows]
        offset = self.index[rows] * extent
        return [(tuple(o), tuple(e)) for o, e in zip(offset.tolist(), extent.tolist())]

    def pruned_pixel_fraction(self) -> float:
        n = int(np.prod(self.dims_padded))
        covered = int(np.sum(1 << self.shape[self.pruned].sum(axis=1)))
        return covered / n


def compute_kappa(lattice: PosteriorLattice) -> dict[tuple[int, ...], np.ndarray]:
    """Fill lattice.log_kappa and lattice.decisions bottom-up over the block DAG."""
    if lattice.log_kappa is not None:
        return lattice.log_kappa
    stats = lattice.stats
    log_kappa: dict[tuple[int, ...], np.ndarray] = {}
    decisions: dict[tuple[int, ...], np.ndarray] = {}
    for shape in stats.shapes:
        div = [i for i, a in enumerate(shape) if a > 0]
        if not div:
            log_kappa[shape] = np.zeros(stats.grid_shape(shape))
            continue
        best = axis = None
        for d in div:
            kc = log_kappa[_child(shape, d)]
            left, right = _halves(stats.m, d)
            t = lattice.log_split[(shape, d)] + kc[left] + kc[right]
            if best is None:
                best, axis = t, np.full(t.shape, d, dtype=np.int8)
            else:
                # axis = d where t wins; strict, so the lowest axis wins ties.
                # Arithmetic on the 0/1 mask is several times faster than a
                # masked store.
                axis += (d - axis) * (t > best).view(np.int8)
                best = np.maximum(best, t)
        split = lattice.log_not_prune[shape] + best
        prune = lattice.log_prune[shape]
        # axis = -1 where stopping wins; strict, so at equality the block splits
        axis -= (axis + 1) * (prune > split).view(np.int8)
        log_kappa[shape] = np.maximum(prune, split)
        decisions[shape] = axis
    lattice.log_kappa = log_kappa
    lattice.decisions = decisions
    return log_kappa


def _shape_groups(shape: np.ndarray, rows: np.ndarray, dims: tuple[int, ...]):
    """(shape tuple, rows of that shape) for each distinct shape among rows."""
    if not len(rows):
        return
    shape_ids = np.ravel_multi_index(shape[rows].T, [int(n).bit_length() for n in dims])
    _, first, group = np.unique(shape_ids, return_index=True, return_inverse=True)
    for g, row in enumerate(rows[first].tolist()):
        yield tuple(shape[row].tolist()), rows[group == g]


def extract_map_tree(lattice: PosteriorLattice) -> MapTree:
    """Follow the kappa sweep's decisions from the root, level by level."""
    compute_kappa(lattice)
    decisions = lattice.decisions
    stats = lattice.stats
    shape = np.array([stats.axis_exps], dtype=np.int64)
    index = np.zeros((1, stats.m), dtype=np.int64)
    pos = np.zeros(1, dtype=np.int64)
    levels = []
    while len(pos):
        axis = np.full(len(pos), -1, dtype=np.int8)
        for s, rows in _shape_groups(shape, np.flatnonzero(shape.any(axis=1)), stats.dims):
            axis[rows] = decisions[s][tuple(index[rows].T)]
        levels.append((shape, index, pos, axis))
        split = np.flatnonzero(axis >= 0)
        k, d = np.arange(len(split)), axis[split].astype(np.intp)
        child = shape[split]
        child[k, d] -= 1
        left = index[split]
        left[k, d] *= 2
        right = left.copy()
        right[k, d] += 1
        start = pos[split]
        shape = np.concatenate((child, child))
        index = np.concatenate((left, right))
        pos = np.concatenate((start, start + (1 << child.sum(axis=1))))
    shape, index, pos, axis = (np.concatenate(col) for col in zip(*levels))
    # preorder: by position, and at equal position the larger block first.
    # pos < 2^j_total and the lattice holds over 2^j_total blocks, so any
    # lattice that fits in memory keeps this key far inside int64.
    preorder = np.argsort(pos * (stats.j_total + 1) - shape.sum(axis=1))
    return MapTree(dims_padded=stats.dims, shape=shape[preorder],
                   index=index[preorder], pos=pos[preorder], axis=axis[preorder])


def map_tree_log_posterior(tree: MapTree, lattice: PosteriorLattice) -> float:
    """Posterior log-probability of a tree under the fitted posterior maps.

    Product over nodes of the stop probability at pruned leaves and
    (1 - stop) * split probability at internal nodes; atomic leaves are
    free.  For the extracted MAP tree this equals log kappa of the root.
    """
    total = 0.0
    for shape, index, axis in zip(tree.shape.tolist(), tree.index.tolist(),
                                  tree.axis.tolist()):
        if not any(shape):
            continue
        shape, index = tuple(shape), tuple(index)
        if axis < 0:
            total += float(lattice.log_prune[shape][index])
        else:
            total += float(lattice.log_not_prune[shape][index])
            total += float(lattice.log_split[(shape, axis)][index])
    return total


def permutation_from_tree(tree: MapTree) -> np.ndarray:
    """Depth-first pixel order: left child first, row-major inside leaves.

    order[i] is the flat row-major index of the i-th pixel in tree order;
    the returned int64 array is read-only.

    Row-major order inside a leaf is what repeatedly halving along the
    lowest divisible axis produces; the decoder regenerates it without any
    transmitted choice.  Each leaf shape is painted with one broadcast.
    """
    dims = tree.dims_padded
    order = np.empty(int(np.prod(dims)), dtype=np.int64)
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(len(dims))],
                       dtype=np.int64)
    for s, rows in _shape_groups(tree.shape, np.flatnonzero(tree.axis < 0), dims):
        extent = tuple(1 << a for a in s)
        local = np.indices(extent).reshape(len(dims), -1).T @ strides
        base = (tree.index[rows] << np.array(s)) @ strides
        order[tree.pos[rows][:, None] + np.arange(len(local))] = base[:, None] + local
    order.setflags(write=False)
    return order
