import gc
import tracemalloc

import numpy as np
import pytest

from carp import (Hyperparams, PixelGrid, build_posterior, compute_kappa,
                  deserialize_tree, extract_map_tree, permutation_from_tree,
                  serialize_tree)
from carp.lattice import cells
from carp.model import _decide
from carp.tree import _leaf_groups
from conftest import random_grid, same_tree, synthetic_photo
from oracles import (brute_force_map, map_tree_log_posterior,
                     reference_extract_map_tree, reference_log_kappa,
                     reference_permutation, reference_posterior,
                     reference_serialize_tree, shape_index, tree_to_structure)


def grid_of(arr):
    return PixelGrid.from_array(np.asarray(arr, dtype=float))


def posterior_of(arr, **hp_kwargs):
    return build_posterior(grid_of(arr), Hyperparams(**hp_kwargs))


def inverse_of(order):
    """inverse[order[i]] = i."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order), dtype=order.dtype)
    return inverse


class TestKappa:
    def test_atomic_kappa_is_one(self):
        # log kappa is 0 on atomic blocks, which carry no decision
        post = posterior_of([[1.0, 2.0], [3.0, 4.0]], sigma=1.0)
        tables = reference_posterior(post.stats, Hyperparams(sigma=1.0))
        kappa, _ = reference_log_kappa(post.stats, tables)
        np.testing.assert_array_equal(kappa[(0, 0)], 0.0)
        decisions = compute_kappa(post)
        assert decisions.dtype == np.int8
        assert not decisions[cells(post.stats.dims, (0, 0))].any()

    def test_certain_prune_gives_kappa_one(self):
        # at huge sigma everything looks like noise and eta0 -> 1 forces pruning
        post = posterior_of(np.zeros((2, 2)), sigma=5.0, eta0=1.0)
        assert post.log_map == pytest.approx(0.0, abs=1e-12)
        assert compute_kappa(post)[1, 1] == -1  # the root's cells

    @pytest.mark.parametrize("trial", range(4))
    def test_kappa_equals_max_posterior(self, trial):
        rng = np.random.default_rng(100 + trial)
        grid = random_grid(rng, (2, 2))
        hp = Hyperparams(sigma=float(rng.uniform(0.5, 12.0)))
        post = build_posterior(grid, hp)
        _, best_log_post, _ = brute_force_map(grid.values[0], hp)
        assert post.log_map == pytest.approx(best_log_post, rel=1e-8, abs=1e-10)


class TestExtractMapTree:
    def test_eta0_zero_reaches_all_atoms(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (4, 4))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=2.0, eta0=0.0)))
        leaves = tree.axis < 0
        assert not shape_index(tree)[0][leaves].any()
        assert np.count_nonzero(leaves) == 16
        assert tree.node_counts()["pruned_leaves"] == 0

    def test_1d_image_splits_along_sole_axis(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, (8,))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        assert np.all(tree.axis[tree.axis >= 0] == 0)

    def test_constant_2x2_prunes_root(self):
        post = posterior_of(np.full((2, 2), 7.0), sigma=1.0)
        tree = extract_map_tree(post)
        assert tree.axis.tolist() == [-1]  # the 2x2 root is a pruned leaf
        best, _, _ = brute_force_map(np.full((2, 2), 7.0), Hyperparams(sigma=1.0))
        assert ("prune", (0, 0), (2, 2)) in best

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 4)])
    def test_matches_exhaustive_argmax(self, shape):
        rng = np.random.default_rng(sum(shape) * 7)
        for _ in range(3):
            grid = random_grid(rng, shape)
            hp = Hyperparams(sigma=float(rng.uniform(1.0, 16.0)))
            post = build_posterior(grid, hp)
            tree = extract_map_tree(post)
            best, best_log_post, _ = brute_force_map(grid.values[0], hp)
            tables = reference_posterior(post.stats, hp)
            extracted_log_post = map_tree_log_posterior(tree, tables)
            assert extracted_log_post == pytest.approx(best_log_post,
                                                       rel=1e-9, abs=1e-9)
            if len(best) == 1:
                assert tree_to_structure(tree) == best[0]
            else:
                assert tree_to_structure(tree) in best

    def test_extracted_tree_posterior_equals_kappa(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, (8, 8))
        hp = Hyperparams(sigma=4.0)
        post = build_posterior(grid, hp)
        tree = extract_map_tree(post)
        tables = reference_posterior(post.stats, hp)
        assert map_tree_log_posterior(tree, tables) == pytest.approx(
            post.log_map, rel=1e-9, abs=1e-9)

    def test_leaves_tile_the_space(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, (8, 4))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=6.0)))
        coverage = np.zeros((8, 4), dtype=int)
        leaves = tree.axis < 0
        shape, index = shape_index(tree)
        extents = 1 << shape[leaves]
        for offset, extent in zip(index[leaves] * extents, extents):
            coverage[tuple(slice(o, o + e) for o, e in zip(offset, extent))] += 1
        np.testing.assert_array_equal(coverage, 1)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        vals = rng.integers(0, 256, size=(8, 8)).astype(float)
        hp = Hyperparams(sigma=3.0)
        t1 = extract_map_tree(build_posterior(grid_of(vals), hp))
        t2 = extract_map_tree(build_posterior(grid_of(vals), hp))
        assert same_tree(t1, t2)


class TestPermutation:
    def test_1d_full_tree_is_identity(self):
        grid = grid_of([10.0, 20.0, 30.0, 40.0])
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        order = permutation_from_tree(tree)
        np.testing.assert_array_equal(order, np.arange(4))

    def test_2x2_binary_coding_order(self):
        # axis-0 split at the root, then axis-1 splits: row-major traversal
        rng = np.random.default_rng(11)
        grid = random_grid(rng, (2, 2))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        order = permutation_from_tree(tree)
        if tree.axis[0] == 0:
            np.testing.assert_array_equal(order, [0, 1, 2, 3])
        else:
            np.testing.assert_array_equal(order, [0, 2, 1, 3])

    def test_pruned_root_uses_row_major_order(self):
        tree = extract_map_tree(posterior_of(np.full((2, 2), 3.0), sigma=1.0))
        assert tree.axis.tolist() == [-1]
        order = permutation_from_tree(tree)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])

    @pytest.mark.parametrize("shape", [(4, 4), (8, 2), (4, 4, 4)])
    def test_bijection(self, shape):
        rng = np.random.default_rng(sum(shape))
        grid = random_grid(rng, shape)
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=4.0)))
        order = permutation_from_tree(tree)
        n = int(np.prod(shape))
        assert sorted(order.tolist()) == list(range(n))
        assert order.dtype == np.int64 and not order.flags.writeable
        np.testing.assert_array_equal(inverse_of(order)[order], np.arange(n))

    def test_painting_peak_within_the_order(self):
        tree = extract_map_tree(build_posterior(synthetic_photo(512, seed=7),
                                                Hyperparams(sigma=8.0)))
        gc.collect()
        tracemalloc.start()
        try:
            order = permutation_from_tree(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * order.nbytes

    def test_nodes_occupy_dyadic_runs(self):
        rng = np.random.default_rng(12)
        grid = random_grid(rng, (8, 8))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=2.0)))
        pos = inverse_of(permutation_from_tree(tree))  # pixel -> tree order
        shapes, indices = shape_index(tree)
        for shape, index, heap in zip(shapes.tolist(), indices.tolist(),
                                      tree.heap.tolist()):
            extent = [1 << a for a in shape]
            size = int(np.prod(extent))
            depth = 6 - sum(shape)
            assert 1 << depth <= heap < 2 << depth
            start = (heap - (1 << depth)) << sum(shape)  # run heap - 2^d of its level
            ranges = [np.arange(i * e, (i + 1) * e) for i, e in zip(index, extent)]
            mesh = np.meshgrid(*ranges, indexing="ij")
            flat = np.ravel_multi_index([m.ravel() for m in mesh], (8, 8))
            positions = np.sort(pos[flat])
            assert positions[0] % size == 0
            assert positions[0] == start
            np.testing.assert_array_equal(
                positions, np.arange(positions[0], positions[0] + size))


class TestLeafGroups:
    @pytest.mark.parametrize("shape,sigma,eta0", [
        ((64,), 4.0, 0.4), ((16, 8), 0.01, 0.0), ((16, 8), 2.0, 0.4),
        ((4, 8, 2), 1.0, 0.4), ((2, 4, 4, 8), 2.0, 0.4)])
    def test_groups_each_leaf_shape_once(self, shape, sigma, eta0):
        rng = np.random.default_rng(len(shape))
        tree = extract_map_tree(build_posterior(random_grid(rng, shape),
                                                Hyperparams(sigma=sigma, eta0=eta0)))
        shapes, indices = shape_index(tree)
        groups = list(_leaf_groups(tree))
        assert len({s for s, _, _ in groups}) == len(groups)
        got = np.concatenate([rows for _, rows, _ in groups])
        np.testing.assert_array_equal(np.sort(got), np.flatnonzero(tree.axis < 0))
        for s, rows, index in groups:
            assert (np.diff(rows) > 0).all()
            assert (shapes[rows] == s).all()
            np.testing.assert_array_equal(index, indices[rows])


def assert_matches_reference(vals, hp):
    """Array-native tree path == recursive reference path, exactly."""
    post = build_posterior(grid_of(vals), hp)
    tree = extract_map_tree(post)
    structure, dims = reference_extract_map_tree(post.stats, hp)
    assert tree.dims_padded == dims
    assert tree_to_structure(tree) == structure
    order = permutation_from_tree(tree)
    ref_order, ref_inverse = reference_permutation(structure, dims)
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(inverse_of(order), ref_inverse)
    bits, nbits = serialize_tree(tree)
    assert (bits, nbits) == reference_serialize_tree(structure, dims)
    back = deserialize_tree(bits, nbits, tree.dims_padded)
    assert same_tree(back, tree)
    return tree


class TestMatchesReference:
    @pytest.mark.parametrize("shape", [(16, 16), (8, 8, 4)])
    @pytest.mark.parametrize("sigma,eta0", [(0.01, 0.0), (0.3, 0.4), (1.0, 0.4),
                                            (4.0, 0.4), (16.0, 0.9)])
    def test_random_inputs(self, shape, sigma, eta0):
        rng = np.random.default_rng([*shape, int(sigma * 100)])
        for _ in range(2):
            # noise below a flat half with a faintly noisy corner, so the
            # trees mix splits, pruned leaves and atomic leaves
            vals = rng.integers(0, 256, size=shape).astype(float)
            half = shape[0] // 2
            vals[:half] = 90.0
            corner = vals[:half, : shape[1] // 2]
            corner += rng.integers(0, 4, size=corner.shape)
            assert_matches_reference(vals, Hyperparams(sigma=sigma, eta0=eta0))

    @pytest.mark.parametrize("sigma,eta0", [(1.0, 0.0), (1.0, 0.4), (0.01, 0.4)])
    def test_constant_image(self, sigma, eta0):
        assert_matches_reference(np.full((16, 16), 91.0),
                                 Hyperparams(sigma=sigma, eta0=eta0))

    @pytest.mark.parametrize("sigma,eta0", [(1.0, 0.0), (8.0, 0.4), (200.0, 0.4)])
    def test_checkerboard(self, sigma, eta0):
        board = 255.0 * (np.indices((16, 16)).sum(axis=0) % 2)
        assert_matches_reference(board, Hyperparams(sigma=sigma, eta0=eta0))

    def test_axis_tie_takes_lowest_axis(self):
        # equal split scores on every axis: the lowest axis wins, also when
        # a later axis ties the best so far after a worse one
        scores = [np.array([1.5, 0.0, 2.0]), np.array([1.5, 1.0, 2.0]),
                  np.array([1.5, 1.0, 2.0])]
        log_kappa, axis = _decide(np.full(3, -np.inf), np.zeros(3), [0, 1, 2],
                                  scores)
        assert axis.dtype == np.int8
        np.testing.assert_array_equal(axis, [0, 1, 0])
        np.testing.assert_array_equal(log_kappa, [1.5, 1.0, 2.0])
        _, axis = _decide(np.full(2, -np.inf), np.zeros(2), [1, 2],
                          [np.array([-3.0, 0.5]), np.array([-3.0, 0.5])])
        np.testing.assert_array_equal(axis, [1, 1])

    def test_prune_split_tie_splits(self):
        # stopping must score strictly higher than splitting to win
        log_not_prune = np.array([-0.75, -0.75])
        score = np.array([-0.5, -0.5])
        split = log_not_prune + score
        log_prune = np.array([split[0], np.nextafter(split[1], np.inf)])
        log_kappa, axis = _decide(log_prune.copy(), log_not_prune.copy(), [0],
                                  [score.copy()])
        np.testing.assert_array_equal(axis, [0, -1])
        np.testing.assert_array_equal(log_kappa, log_prune)
        # the same rule on a two-axis block, where the tie is with the
        # better axis
        _, axis = _decide(log_prune.copy(), log_not_prune.copy(), [0, 1],
                          [score - 1.0, score.copy()])
        np.testing.assert_array_equal(axis, [1, -1])
