import numpy as np
import pytest

from carp import (Hyperparams, PixelGrid, build_posterior, compute_kappa,
                  deserialize_tree, extract_map_tree, map_tree_log_posterior,
                  permutation_from_tree, serialize_tree)
from conftest import random_grid
from oracles import (brute_force_map, reference_extract_map_tree,
                     reference_permutation, reference_serialize_tree,
                     tree_to_structure)


def grid_of(arr):
    return PixelGrid.from_array(np.asarray(arr, dtype=float))


def posterior_of(arr, **hp_kwargs):
    return build_posterior(grid_of(arr), Hyperparams(**hp_kwargs))


class TestKappa:
    def test_atomic_kappa_is_one(self):
        post = posterior_of([[1.0, 2.0], [3.0, 4.0]], sigma=1.0)
        kappa = compute_kappa(post)
        np.testing.assert_array_equal(kappa[(0, 0)], 0.0)

    def test_certain_prune_gives_kappa_one(self):
        # at huge sigma everything looks like noise and eta0 -> 1 forces pruning
        post = posterior_of(np.zeros((2, 2)), sigma=5.0, eta0=1.0)
        kappa = compute_kappa(post)
        assert kappa[(1, 1)][0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(4))
    def test_kappa_equals_max_posterior(self, trial):
        rng = np.random.default_rng(100 + trial)
        grid = random_grid(rng, (2, 2))
        hp = Hyperparams(sigma=float(rng.uniform(0.5, 12.0)))
        post = build_posterior(grid, hp)
        kappa = compute_kappa(post)
        _, best_log_post, _ = brute_force_map(grid.values[0], hp)
        root_val = float(kappa[post.root_shape].reshape(-1)[0])
        assert root_val == pytest.approx(best_log_post, rel=1e-8, abs=1e-10)


class TestExtractMapTree:
    def test_eta0_zero_reaches_all_atoms(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (4, 4))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=2.0, eta0=0.0)))
        leaves = tree.leaves()
        assert all(leaf.block.is_atomic for leaf in leaves)
        assert len(leaves) == 16
        assert not tree.pruned_blocks()

    def test_1d_image_splits_along_sole_axis(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, (8,))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        assert all(node.split_axis == 0 for node in tree.iter_nodes()
                   if not node.is_leaf)

    def test_constant_2x2_prunes_root(self):
        post = posterior_of(np.full((2, 2), 7.0), sigma=1.0)
        tree = extract_map_tree(post)
        assert tree.root.pruned
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
            extracted_log_post = map_tree_log_posterior(tree, post)
            assert extracted_log_post == pytest.approx(best_log_post,
                                                       rel=1e-9, abs=1e-9)
            if len(best) == 1:
                assert tree_to_structure(tree.root) == best[0]
            else:
                assert tree_to_structure(tree.root) in best

    def test_extracted_tree_posterior_equals_kappa(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, (8, 8))
        post = build_posterior(grid, Hyperparams(sigma=4.0))
        tree = extract_map_tree(post)
        kappa = compute_kappa(post)
        root_val = float(kappa[post.root_shape].reshape(-1)[0])
        assert map_tree_log_posterior(tree, post) == pytest.approx(
            root_val, rel=1e-9, abs=1e-9)

    def test_leaves_tile_the_space(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, (8, 4))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=6.0)))
        coverage = np.zeros((8, 4), dtype=int)
        for leaf in tree.leaves():
            coverage[leaf.block.slices()] += 1
        np.testing.assert_array_equal(coverage, 1)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        vals = rng.integers(0, 256, size=(8, 8)).astype(float)
        hp = Hyperparams(sigma=3.0)
        t1 = extract_map_tree(build_posterior(grid_of(vals), hp))
        t2 = extract_map_tree(build_posterior(grid_of(vals), hp))
        assert t1.root == t2.root


class TestPermutation:
    def test_1d_full_tree_is_identity(self):
        grid = grid_of([10.0, 20.0, 30.0, 40.0])
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        perm = permutation_from_tree(tree)
        np.testing.assert_array_equal(perm.order, np.arange(4))

    def test_2x2_binary_coding_order(self):
        # axis-0 split at the root, then axis-1 splits: row-major traversal
        rng = np.random.default_rng(11)
        grid = random_grid(rng, (2, 2))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0, eta0=0.0)))
        perm = permutation_from_tree(tree)
        axis = tree.root.split_axis
        if axis == 0:
            np.testing.assert_array_equal(perm.order, [0, 1, 2, 3])
        else:
            np.testing.assert_array_equal(perm.order, [0, 2, 1, 3])

    def test_pruned_root_uses_row_major_order(self):
        tree = extract_map_tree(posterior_of(np.full((2, 2), 3.0), sigma=1.0))
        assert tree.root.pruned
        perm = permutation_from_tree(tree)
        np.testing.assert_array_equal(perm.order, [0, 1, 2, 3])

    @pytest.mark.parametrize("shape", [(4, 4), (8, 2), (4, 4, 4)])
    def test_bijection(self, shape):
        rng = np.random.default_rng(sum(shape))
        grid = random_grid(rng, shape)
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=4.0)))
        perm = permutation_from_tree(tree)
        n = int(np.prod(shape))
        assert sorted(perm.order.tolist()) == list(range(n))
        np.testing.assert_array_equal(perm.inverse[perm.order], np.arange(n))

    def test_nodes_occupy_dyadic_runs(self):
        rng = np.random.default_rng(12)
        grid = random_grid(rng, (8, 8))
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=2.0)))
        perm = permutation_from_tree(tree)
        pos = perm.inverse  # pixel -> position in tree order
        for node in tree.iter_nodes():
            block = node.block
            ranges = [np.arange(o, o + e) for o, e in zip(block.offset, block.extent)]
            mesh = np.meshgrid(*ranges, indexing="ij")
            flat = np.ravel_multi_index([m.ravel() for m in mesh], (8, 8))
            positions = np.sort(pos[flat])
            assert positions[0] % block.size == 0
            np.testing.assert_array_equal(
                positions, np.arange(positions[0], positions[0] + block.size))


def assert_matches_reference(post):
    """Array-native tree path == recursive reference path, exactly."""
    tree = extract_map_tree(post)
    root, dims = reference_extract_map_tree(post)
    assert tree_to_structure(tree.root) == tree_to_structure(root)
    assert tree.root == root
    perm = permutation_from_tree(tree)
    order, inverse = reference_permutation(root, dims)
    np.testing.assert_array_equal(perm.order, order)
    np.testing.assert_array_equal(perm.inverse, inverse)
    bits, nbits = serialize_tree(tree)
    assert (bits, nbits) == reference_serialize_tree(root, dims)
    back = deserialize_tree(bits, nbits, tree.dims_padded)
    for name in ("shape", "index", "pos", "axis"):
        np.testing.assert_array_equal(getattr(back, name), getattr(tree, name))
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
            post = build_posterior(grid_of(vals), Hyperparams(sigma=sigma, eta0=eta0))
            assert_matches_reference(post)

    @pytest.mark.parametrize("sigma,eta0", [(1.0, 0.0), (1.0, 0.4), (0.01, 0.4)])
    def test_constant_image(self, sigma, eta0):
        post = posterior_of(np.full((16, 16), 91.0), sigma=sigma, eta0=eta0)
        assert_matches_reference(post)

    @pytest.mark.parametrize("sigma,eta0", [(1.0, 0.0), (8.0, 0.4), (200.0, 0.4)])
    def test_checkerboard(self, sigma, eta0):
        board = 255.0 * (np.indices((16, 16)).sum(axis=0) % 2)
        assert_matches_reference(posterior_of(board, sigma=sigma, eta0=eta0))

    def test_axis_tie_takes_lowest_axis(self):
        # 2x2: both children shapes always split with probability one, so
        # kappa is exactly 0 below the root and the two axes tie exactly
        post = posterior_of([[1.0, 2.0], [3.0, 4.0]], sigma=1.0)
        for child, d in (((0, 1), 1), ((1, 0), 0)):
            grid_shape = post.log_prune[child].shape
            post.log_prune[child] = np.full(grid_shape, -np.inf)
            post.log_not_prune[child] = np.zeros(grid_shape)
            post.log_split[(child, d)] = np.zeros(grid_shape)
        post.log_prune[(1, 1)] = np.full((1, 1), -np.inf)
        post.log_split[((1, 1), 0)] = np.full((1, 1), np.log(0.5))
        post.log_split[((1, 1), 1)] = np.full((1, 1), np.log(0.5))
        tree = assert_matches_reference(post)
        assert tree.root.split_axis == 0

    def test_prune_split_tie_splits(self):
        # two pixels: atomic children and a single axis make the split
        # score exactly log_not_prune
        post = posterior_of([3.0, 5.0], sigma=1.0)
        post.log_prune[(1,)] = post.log_not_prune[(1,)].copy()
        tree = assert_matches_reference(post)
        assert tree.root.split_axis == 0
        post.log_prune[(1,)] = np.nextafter(post.log_not_prune[(1,)], np.inf)
        post.log_kappa = None
        tree = assert_matches_reference(post)
        assert tree.root.pruned
