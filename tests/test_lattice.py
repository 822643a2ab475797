import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from carp import DimensionError, PixelGrid, ResourceError, build_stats, pad
from carp import lattice
from carp.lattice import LevelStream, StatsLattice, _child, _halves

from conftest import random_grid, synthetic_photo
from oracles import child_sum_arrays, haar_array


def grid_of(arr):
    return PixelGrid.from_array(np.asarray(arr, dtype=float))


class TestHaarCoefficient:
    def test_two_pixels(self):
        stats = build_stats(grid_of([[4.0, 2.0]]))
        w = haar_array(stats, (0, 1), 1)[0, 0]
        assert w == pytest.approx((4 - 2) / np.sqrt(2), rel=1e-12)

    def test_constant_block_is_zero(self):
        stats = build_stats(grid_of(np.full((4, 4), 9.0)))
        for d in (0, 1):
            assert haar_array(stats, (2, 2), d)[0, 0] == 0.0

    def test_2x2_row_split(self):
        stats = build_stats(grid_of([[1.0, 2.0], [3.0, 4.0]]))
        w = haar_array(stats, (1, 1), 0)[0, 0]
        assert w == pytest.approx((3 - 7) / 2.0, rel=1e-12)


class TestBuildStats:
    def test_sst_1x4(self):
        stats = build_stats(grid_of([[1.0, 2.0, 3.0, 4.0]]))
        assert stats.ssts[(0, 2)][0, 0] == pytest.approx(5.0)

    def test_constant_image_all_sst_zero(self):
        stats = build_stats(grid_of(np.full((4, 8), 3.0)))
        for shape in stats.shapes:
            assert np.all(stats.ssts[shape] == 0.0)

    def test_requires_padded_grid(self):
        grid = PixelGrid.from_array(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            build_stats(grid)
        build_stats(pad(grid))  # fine once padded

    def test_channels_are_summed(self):
        vals = np.stack([np.full((2, 2), 10.0), np.full((2, 2), 30.0)])
        stats = build_stats(PixelGrid(values=vals, dims_original=(2, 2)))
        assert stats.channels == 2
        np.testing.assert_array_equal(stats.sums[(0, 0)], np.full((2, 2), 40.0))
        assert build_stats(grid_of(np.zeros((2, 2)))).channels == 1

    def test_integer_channels_give_an_integral_sum(self):
        grid = random_grid(np.random.default_rng(5), (8, 8), channels=3)
        assert build_stats(grid).integral
        assert not StatsLattice(grid.values.mean(axis=0)).integral

    def test_node_count(self):
        stats = build_stats(grid_of(np.zeros((4, 8))))
        assert stats.node_count == (2 * 4 - 1) * (2 * 8 - 1)
        total = sum(int(np.prod(stats.grid_shape(s))) for s in stats.shapes)
        assert total == stats.node_count

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_MAX_BYTES", 1024)
        with pytest.raises(ResourceError, match="blocks"):
            build_stats(grid_of(np.zeros((64, 64))))

    def test_refused_budget_allocates_nothing_image_sized(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_MAX_BYTES", 1024)
        grid = synthetic_photo(512, seed=7)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="budget"):
                build_stats(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_against_direct_recomputation(self):
        rng = np.random.default_rng(21)
        grid = random_grid(rng, (8, 4))
        stats = build_stats(grid)
        plane = grid.values[0]
        for shape in stats.shapes:
            extent = tuple(1 << a for a in shape)
            for idx in itertools.product(*(range(c) for c in stats.grid_shape(shape))):
                off = tuple(i * e for i, e in zip(idx, extent))
                view = plane[tuple(slice(o, o + e) for o, e in zip(off, extent))]
                assert stats.sums[shape][idx] == pytest.approx(view.sum(), rel=1e-12)
                direct_sst = float(np.sum((view - view.mean()) ** 2))
                assert stats.ssts[shape][idx] == pytest.approx(direct_sst,
                                                               rel=1e-12, abs=1e-9)


class TestSplitIdentity:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 8, 8)])
    def test_energy_decomposition(self, shape):
        rng = np.random.default_rng(5 + len(shape))
        grid = random_grid(rng, shape)
        stats = build_stats(grid)
        for s in stats.shapes:
            if sum(s) == 0:
                continue
            level = stats.level_of_shape(s)
            parent_sst = stats.ssts[s]
            for d in [i for i, a in enumerate(s) if a > 0]:
                ct = stats.ssts[_child(s, d)]
                left, right = _halves(stats.m, d)
                w = haar_array(stats, s, d)
                recon = ct[left] + ct[right] + w * w
                np.testing.assert_allclose(parent_sst, recon, rtol=1e-9, atol=1e-9)
            assert level == stats.j_total - sum(s)

    def test_child_sums_are_exact(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, (8, 8))
        stats = build_stats(grid)
        for s in stats.shapes:
            for d in [i for i, a in enumerate(s) if a > 0]:
                sl, sr = child_sum_arrays(stats, s, d)
                np.testing.assert_allclose(stats.sums[s], sl + sr, rtol=1e-12)


class TestLevelStream:
    @pytest.mark.parametrize("plane", [
        lambda: synthetic_photo(32, seed=3).values[0],
        lambda: random_grid(np.random.default_rng(23), (4, 8, 16),
                            channels=3).values.mean(axis=0),
    ], ids=["2d", "3-channel-volume"])
    def test_holds_two_levels_bit_for_bit_the_stored_ones(self, plane):
        plane = plane()
        stored = StatsLattice(plane)
        stream = LevelStream(plane)
        assert stream.sums[stream.shapes[0]] is plane
        assert stream.integral == stored.integral
        for e in range(1, stream.j_total + 1):
            stream._reach_level(e)
            assert {sum(s) for s in stream.sums} == {e - 1, e}
            assert {sum(s) for s in stream.ssts} == {e}
            for s in stream.ssts:
                assert stream.sums[s].tobytes() == stored.sums[s].tobytes()
                assert stream.ssts[s].tobytes() == stored.ssts[s].tobytes()
