import gc
import math
import tracemalloc

import numpy as np
import pytest

from carp import (Hyperparams, NumericError, PixelGrid, build_posterior, build_stats,
                  compress, empirical_bayes_fit, extract_map_tree)
from carp import model
from carp.lattice import LevelStream, StatsLattice, cells
from carp.model import PosteriorLattice
from conftest import random_grid, synthetic_photo
from oracles import (brute_force_log_marginal, brute_force_map, haar_array,
                     reference_log_kappa, reference_posterior, root_shape,
                     tree_to_structure)


def grid_of(arr):
    return PixelGrid.from_array(np.asarray(arr, dtype=float))


def log_normal(w, var):
    return -0.5 * (math.log(2 * math.pi * var) + w * w / var)


def tables_of(grid, hp):
    """The posterior tables the sweep computes in flight and drops:
    (log_prune, log_not_prune, log_split, log_marginal) by the reference
    sweep, which TestSweepMatchesReference ties to the package's."""
    return reference_posterior(build_stats(grid), hp)


class TestHyperparams:
    def test_defaults_follow_sigma(self):
        hp = Hyperparams(sigma=4.0)
        assert hp.tau0 == pytest.approx(0.25)
        assert (hp.alpha, hp.beta, hp.c, hp.eta0) == (0.5, 1.0, 0.05, 0.4)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            Hyperparams(sigma=0.0)
        with pytest.raises(ValueError):
            Hyperparams(sigma=-1.0)

    def test_tiny_sigma_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            hp = Hyperparams(sigma=1e-12)
        assert hp.sigma == 1e-6

    @pytest.mark.parametrize("name", ["sigma", "alpha", "beta", "c", "tau0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        kwargs = {"sigma": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Hyperparams(**kwargs)

    def test_non_finite_eta0_rejected(self):
        with pytest.raises(ValueError, match="eta0"):
            Hyperparams(sigma=1.0, eta0=math.nan)

    def test_level_mappings(self):
        hp = Hyperparams(sigma=1.0, alpha=0.5, beta=1.0, c=0.05, tau0=2.0)
        assert hp.rho(0) == pytest.approx(0.05)
        assert hp.rho(3) == pytest.approx(0.05 / 8)
        assert hp.tau(2) == pytest.approx(2.0 * 2 ** -1.0)
        # rho is capped at one
        assert Hyperparams(sigma=1.0, c=8.0).rho(0) == 1.0


# log_psi0 and log_psi_d are not stored; each is checked through
# log_marginal on an image where it is the whole marginal.  With eta0 = 1
# the root always stops, so the marginal is psi0 of the root; with eta0 = 0
# and a single divisible axis (a 1x2 or 2-pixel image, whose children are
# atomic) it is psi_d of the root.


class TestLogPsi0:
    def test_atomic_is_zero(self):
        for eta0 in (1.0, 0.4):
            post = build_posterior(grid_of([[7.0]]), Hyperparams(sigma=1.0, eta0=eta0))
            assert post.log_marginal == 0.0

    def test_constant_2x2(self):
        post = build_posterior(grid_of(np.full((2, 2), 5.0)),
                               Hyperparams(sigma=1.0, eta0=1.0))
        expected = -1.5 * math.log(2 * math.pi)  # -2.75682 with SST = 0
        assert post.log_marginal == pytest.approx(expected, abs=1e-5)
        assert expected == pytest.approx(-2.75682, abs=1e-5)

    def test_two_pixels_equals_normal_density(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0, 255, size=2)
        sigma = 3.0
        post = build_posterior(grid_of([a, b]), Hyperparams(sigma=sigma, eta0=1.0))
        w = (a - b) / math.sqrt(2)
        assert post.log_marginal == pytest.approx(log_normal(w, sigma**2), rel=1e-12)


class TestLogPsiD:
    def test_vanishing_rho_collapses_to_noise_density(self):
        # c must stay positive, but rho can still be ~1e-62: the value
        # beta = 200 gives rho(1) with c = 0.05.  Each 1x2 image is its
        # own root, at level 0, where rho = c.
        for row in ([4.0, 2.0], [1.0, 9.0]):
            img = grid_of([row])
            hp = Hyperparams(sigma=2.0, c=0.05 * 2.0**-200, eta0=0.0)
            post = build_posterior(img, hp)
            w = haar_array(post.stats, (0, 1), 1)[0, 0]
            assert post.log_marginal == pytest.approx(log_normal(w, 4.0), rel=1e-9)

    def test_rho_one_with_tau_zero_matches_rho_zero(self):
        img = grid_of([4.0, 2.0])
        base = dict(sigma=1.5, alpha=0.5, beta=1.0, eta0=0.0)
        tiny_tau = build_posterior(img, Hyperparams(c=100.0, tau0=1e-9, **base))
        w = (4.0 - 2.0) / math.sqrt(2)
        assert tiny_tau.log_marginal == pytest.approx(
            log_normal(w, 1.5**2), rel=1e-9)

    def test_direct_density_evaluation(self):
        # independent scalar computation of the two normal densities
        sigma, tau0, c, eta0 = 1.0, 1.0, 0.05, 0.0
        img = grid_of([4.0, 2.0])
        hp = Hyperparams(sigma=sigma, tau0=tau0, c=c, eta0=eta0)
        post = build_posterior(img, hp)
        w = (4.0 - 2.0) / math.sqrt(2)
        rho = min(1.0, c)
        mix = (rho * math.exp(log_normal(w, (1 + tau0**2) * sigma**2))
               + (1 - rho) * math.exp(log_normal(w, sigma**2)))
        assert post.log_marginal == pytest.approx(math.log(mix), rel=1e-12)


class TestBuildPosterior:
    def test_eta0_zero_disables_pruning(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (4, 4))
        hp = Hyperparams(sigma=2.0, eta0=0.0)
        log_prune = tables_of(grid, hp)[0]
        post = build_posterior(grid, hp)
        for shape in post.stats.shapes:
            if sum(shape) == 0:
                continue
            assert np.all(np.exp(log_prune[shape]) == 0.0)
            assert np.all(post.decisions[cells(post.stats.dims, shape)] >= 0)

    def test_single_axis_split_posterior_is_one(self):
        log_split = tables_of(grid_of([[3.0, 100.0]]), Hyperparams(sigma=1.0))[2]
        np.testing.assert_allclose(log_split[((0, 1), 1)], 0.0, atol=1e-14)

    def test_symmetric_constant_2x2_splits_evenly(self):
        log_split = tables_of(grid_of(np.full((2, 2), 8.0)), Hyperparams(sigma=1.0))[2]
        for d in (0, 1):
            split = math.exp(float(log_split[((1, 1), d)][0, 0]))
            assert split == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2)])
    def test_log_marginal_matches_enumeration(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            grid = random_grid(rng, shape)
            hp = Hyperparams(sigma=float(rng.uniform(0.5, 20.0)))
            post = build_posterior(grid, hp)
            brute = brute_force_log_marginal(grid.values[0], hp)
            assert post.log_marginal == pytest.approx(brute, rel=1e-10)

    def test_mixture_identity_recombines(self):
        # psi is the eta0-weighted stop/split combination, so the stop and
        # not-stop posteriors, computed from it separately, sum to one
        rng = np.random.default_rng(14)
        grid = random_grid(rng, (4, 8))
        hp = Hyperparams(sigma=2.5, eta0=0.3)
        log_prune, log_not_prune, _, _ = tables_of(grid, hp)
        for shape in log_prune:
            if not any(shape):
                continue
            total = np.exp(log_prune[shape]) + np.exp(log_not_prune[shape])
            np.testing.assert_allclose(total, 1.0, rtol=1e-10)

    def test_split_posteriors_sum_to_one(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (8, 4))
        log_prune, _, log_split, _ = tables_of(grid, Hyperparams(sigma=3.0))
        for shape in log_prune:
            div = [i for i, a in enumerate(shape) if a > 0]
            if not div:
                continue
            total = sum(np.exp(log_split[(shape, d)]) for d in div)
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_prune_posterior_within_unit_interval(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (8, 8))
        log_prune = tables_of(grid, Hyperparams(sigma=5.0))[0]
        for shape in log_prune:
            p = np.exp(log_prune[shape])
            assert np.all((0.0 <= p) & (p <= 1.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 200, size=(4, 4)).astype(float)
        hp = Hyperparams(sigma=2.0)
        post_a = build_posterior(grid_of(base), hp)
        post_b = build_posterior(grid_of(base + 55.0), hp)
        assert post_a.log_marginal == pytest.approx(post_b.log_marginal, rel=1e-9)
        prune_a, not_prune_a, _, _ = tables_of(grid_of(base), hp)
        prune_b, not_prune_b, _, _ = tables_of(grid_of(base + 55.0), hp)
        for shape in post_a.stats.shapes:
            np.testing.assert_allclose(not_prune_a[shape], not_prune_b[shape],
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(prune_a[shape], prune_b[shape],
                                       rtol=1e-9, atol=1e-12)

    def test_log_psi_finite_on_large_flat_block(self):
        grid = grid_of(np.full((64, 64), 200.0))
        post = build_posterior(grid, Hyperparams(sigma=1e-6))
        assert np.isfinite(post.log_marginal)

    def test_nan_input_raises_numeric_error(self):
        # PixelGrid refuses NaN, so the plane goes to the lattice directly
        plane = np.zeros((2, 2))
        plane[0, 0] = np.nan
        with pytest.raises(NumericError, match="block"):
            PosteriorLattice(StatsLattice(plane), Hyperparams(sigma=1.0))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _integers(shape, high, seed=0):
    return np.random.default_rng(seed).integers(0, high, size=shape).astype(float)


# Planes for the sweep's differential test: the integer-valued ones take
# mixture tables wherever a table is shorter than its blocks, the others
# the direct path.
SWEEP_PLANES = {
    "1d": lambda: _integers(64, 256),
    "2d": lambda: _integers((16, 16), 256, seed=1),
    "3d": lambda: _integers((4, 8, 4), 256, seed=2),
    "16bit": lambda: _integers((16, 16), 1 << 16, seed=3),
    "photo": lambda: synthetic_photo(256, seed=5).values[0],
    "flat": lambda: np.full((8, 8), 77.0),
    "past-2^53": lambda: 2.0**55 + 8 * _integers((8, 8), 64, seed=4),
    "float": lambda: np.random.default_rng(6).uniform(0, 255, size=(256, 256)),
    "3-channel": lambda: random_grid(np.random.default_rng(7), (8, 16),
                                     channels=3).values.mean(axis=0),
    # levels that mix one-axis edge shapes with runs of two-axis shapes,
    # several of which share a batch
    "32x256": lambda: _integers((32, 256), 256, seed=8),
    # a fractional plane: the direct mixture path, in three-axis batches
    "3-channel-volume": lambda: random_grid(np.random.default_rng(9), (4, 32, 32),
                                            channels=3).values.mean(axis=0),
}

BATCH_CAPS = {"1": 1, "2^13": 1 << 13, "2^62": 1 << 62}

SWEEP_HYPERPARAMS = {
    "default": dict(sigma=2.0),
    "eta0=0": dict(sigma=2.0, eta0=0.0),
    "eta0=1": dict(sigma=2.0, eta0=1.0),
    "rho=1": dict(sigma=2.0, c=4.0),
    "rho->0": dict(sigma=2.0, beta=2000.0),
    "sigma=1e-3": dict(sigma=1e-3, eta0=0.0),
    "sigma=64": dict(sigma=64.0),
    # components of similar weight and width: their log densities lie
    # close together, where a logaddexp that rounds differently shows
    "close-mixture": dict(sigma=8.0, c=0.5, beta=0.1, tau0=0.5),
}


class TestSweepMatchesReference:
    """The fused sweep, with its mixture tables, in-place log-sum-exp and
    in-flight kappa step, reproduces the direct posterior sweep followed by
    a separate kappa pass bit for bit: the same int8 decisions, marginal
    likelihood and root log kappa.  The fit's marginal-only pass gives the
    same marginal likelihood."""

    @staticmethod
    def check(stats, hp):
        tables = reference_posterior(stats, hp)
        log_kappa, decisions = reference_log_kappa(stats, tables)
        # the stored lattice, then its plane's levels streamed as the sweep
        # reaches them
        plane = stats.sums[stats.shapes[0]]
        for lattice in (stats, LevelStream(plane, stats.channels)):
            post = PosteriorLattice(lattice, hp)
            assert post.decisions.dtype == np.int8
            for key in decisions:
                got = post.decisions[cells(stats.dims, key)]
                assert np.array_equal(got, decisions[key]), key
            assert _same_bits(post.log_marginal, tables[3])
            assert _same_bits(post.log_map, log_kappa[root_shape(stats)].reshape(-1)[0])
        for lattice in (stats, LevelStream(plane, stats.channels)):
            log_marginal, log_map = model._sweep(lattice, hp, None)
            assert _same_bits(log_marginal, tables[3]) and log_map is None

    @pytest.mark.parametrize("plane", SWEEP_PLANES)
    @pytest.mark.parametrize("hp", SWEEP_HYPERPARAMS)
    def test_bit_identical(self, plane, hp):
        self.check(StatsLattice(SWEEP_PLANES[plane]()), Hyperparams(**SWEEP_HYPERPARAMS[hp]))

    @pytest.mark.parametrize("cap", ["1", "2^62"])
    @pytest.mark.parametrize("plane", SWEEP_PLANES)
    @pytest.mark.parametrize("hp", SWEEP_HYPERPARAMS)
    def test_bit_identical_at_any_batch_cap(self, monkeypatch, plane, hp, cap):
        # a cap of 1 runs each shape alone, 2^62 each level and axis set
        monkeypatch.setattr(model, "_BATCH_BLOCKS", BATCH_CAPS[cap])
        self.check(StatsLattice(SWEEP_PLANES[plane]()), Hyperparams(**SWEEP_HYPERPARAMS[hp]))

    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("hp", SWEEP_HYPERPARAMS)
    def test_bit_identical_on_a_channel_sum(self, hp, channels):
        grid = random_grid(np.random.default_rng(10), (4, 16, 16), channels=channels)
        stats = build_stats(grid)
        assert stats.channels == channels and stats.integral
        self.check(stats, Hyperparams(**SWEEP_HYPERPARAMS[hp]))

    def test_integral_flag(self):
        assert StatsLattice(SWEEP_PLANES["16bit"]()).integral
        assert StatsLattice(SWEEP_PLANES["past-2^53"]()).integral
        assert not StatsLattice(SWEEP_PLANES["float"]()).integral
        assert not StatsLattice(SWEEP_PLANES["3-channel"]()).integral
        for bad in (np.inf, np.nan):
            plane = np.zeros((2, 2))
            plane[1, 1] = bad
            assert not StatsLattice(plane).integral

    @pytest.mark.parametrize("top,table", [(7, True), (8, False)])
    def test_table_length_rule(self, monkeypatch, top, table):
        # the first shape halves 2-pixel blocks: 8 of them, with |D| = top
        # at the first and 0 elsewhere; a table of top + 1 entries serves
        # them when it is no longer than the 8 blocks
        plane = np.zeros(16)
        plane[0] = top
        inputs = []

        def spy(w, *args):
            inputs.append(np.array(w))
            return mixture(w, *args)

        mixture = model._mixture
        monkeypatch.setattr(model, "_mixture", spy)
        for sigma in (0.5, 3.0):
            inputs.clear()
            self.check(StatsLattice(plane), Hyperparams(sigma=sigma))
            expected = np.arange(top + 1.0) if table else np.eye(1, 8)[0] * top
            np.testing.assert_array_equal(inputs[0], expected / math.sqrt(2.0))

    def test_nan_plane_raises_the_reference_error(self):
        plane = _integers((8, 8), 256)
        plane[3, 5] = np.nan
        stats = StatsLattice(plane)
        hp = Hyperparams(sigma=1.0)
        with pytest.raises(NumericError) as expected:
            reference_posterior(stats, hp)
        with pytest.raises(NumericError) as raised:
            PosteriorLattice(stats, hp)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == ("non-finite marginal likelihood at block "
                                     "offset (3, 4), extent (1, 2)")

    @pytest.mark.parametrize("cap", BATCH_CAPS)
    def test_nan_in_a_batch_names_its_first_block(self, monkeypatch, cap):
        # the four shapes of 32-pixel blocks of a 16x16 plane, 8 blocks
        # each, share a batch unless the cap is 1; NaNs in the third and
        # fourth of them and one level up leave the rest finite
        stats = StatsLattice(_integers((16, 16), 256))
        assert [s for s in stats.shapes if sum(s) == 5] == [(1, 4), (2, 3), (3, 2), (4, 1)]
        stats.ssts[(3, 2)][1, 1] = stats.ssts[(3, 2)][1, 3] = np.nan
        stats.ssts[(4, 1)][0, 0] = np.nan
        stats.ssts[(2, 4)][0, 0] = np.nan
        monkeypatch.setattr(model, "_BATCH_BLOCKS", BATCH_CAPS[cap])
        hp = Hyperparams(sigma=1.0)
        with pytest.raises(NumericError) as expected:
            reference_posterior(stats, hp)
        with pytest.raises(NumericError) as raised:
            PosteriorLattice(stats, hp)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == ("non-finite marginal likelihood at block "
                                     "offset (8, 4), extent (8, 4)")


def test_log_sum_exp_of_one_array_is_x_plus_x_minus_x():
    # the sweep's one-axis batches take the log-sum-exp of a single term;
    # NaN payloads and the sign of zero are compared too
    x = np.array([0.0, -0.0, 1.5, -3.25, 1e308, -1e308, 5e-324,
                  np.inf, -np.inf, np.nan, -np.nan])
    with np.errstate(invalid="ignore"):
        got = model._log_sum_exp([x])
        want = x + (x - x)
    assert got is not x
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _lattice_shapes(dims):
    return StatsLattice(np.zeros(dims)).shapes


class TestBatches:
    """The sweep's batches: runs of consecutive shapes that share a block
    size and divisible axes, as long as their blocks stay within the cap."""

    @pytest.mark.parametrize("dims", [(64,), (16, 16), (32, 256), (4, 32, 32),
                                      (2, 4, 8, 16)])
    @pytest.mark.parametrize("cap", BATCH_CAPS)
    def test_runs_are_maximal(self, monkeypatch, dims, cap):
        monkeypatch.setattr(model, "_BATCH_BLOCKS", BATCH_CAPS[cap])
        shapes = _lattice_shapes(dims)
        n = math.prod(dims)
        batches = model._batches(shapes, n)
        assert [s for b in batches for s in b] == [s for s in shapes if any(s)]

        def key(shape):
            return sum(shape), [a > 0 for a in shape]

        def blocks(batch):
            return sum(n >> sum(s) for s in batch)

        for batch in batches:
            assert all(key(s) == key(batch[0]) for s in batch)
            assert len(batch) == 1 or blocks(batch) <= BATCH_CAPS[cap]
        for batch, after in zip(batches, batches[1:]):
            assert (key(after[0]) != key(batch[0])
                    or blocks(batch) + (n >> sum(after[0])) > BATCH_CAPS[cap])

    def test_sweep_planes_batch_as_described(self):
        # 32x256: at the default cap a level's one-axis edge shapes run
        # alone and its two-axis shapes share a batch
        batches = model._batches(_lattice_shapes((32, 256)), 32 * 256)
        assert [[(0, 5)], [(1, 4), (2, 3), (3, 2), (4, 1)], [(5, 0)]] == [
            b for b in batches if sum(b[0]) == 5]
        # the 3-channel volume: fractional, and three-axis batches of
        # several shapes
        plane = SWEEP_PLANES["3-channel-volume"]()
        assert not StatsLattice(plane).integral
        batches = model._batches(_lattice_shapes(plane.shape), plane.size)
        assert any(len(b) > 1 and all(b[0]) for b in batches)


CHANNEL_DIMS = [(16,), (4, 4), (2, 2, 4)]


class TestChannelSum:
    """A grid of C channels is fitted on the channel sum at C sigma, which
    is the model of the channel mean at sigma: the same MAP tree and the
    same log marginal likelihood, now by way of the mixture tables."""

    @staticmethod
    def grids(dims, channels):
        rng = np.random.default_rng(100 * channels + len(dims))
        return [random_grid(rng, dims, channels=channels) for _ in range(2)]

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("dims", CHANNEL_DIMS, ids=str)
    def test_map_tree_is_the_channel_means(self, dims, channels, sigma):
        hp = Hyperparams(sigma=sigma)
        for grid in self.grids(dims, channels):
            tree = tree_to_structure(extract_map_tree(build_posterior(grid, hp)))
            best, _, _ = brute_force_map(grid.values.mean(axis=0), hp)
            if len(best) == 1:
                assert tree == best[0]
            else:
                assert tree in best

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("dims", CHANNEL_DIMS, ids=str)
    def test_log_marginal_is_the_channel_means(self, dims, channels, sigma):
        hp = Hyperparams(sigma=sigma)
        for grid in self.grids(dims, channels):
            brute = brute_force_log_marginal(grid.values.mean(axis=0), hp)
            assert build_posterior(grid, hp).log_marginal == pytest.approx(brute, rel=1e-9)

    def test_fit_picks_the_channel_means_point(self):
        grid = random_grid(np.random.default_rng(11), (16, 16), channels=3)
        mean = PixelGrid.from_array(grid.values.mean(axis=0))
        assert empirical_bayes_fit(grid, sigma=2.0) == empirical_bayes_fit(mean, sigma=2.0)

    def test_colour_encode_takes_the_mixture_tables(self, monkeypatch):
        # the direct path evaluates the mixture at every block and axis,
        # more elements than the lattice has blocks
        grid = random_grid(np.random.default_rng(19), (16, 64, 64), channels=3)
        seen = []

        def counting(w, *args):
            seen.append(np.size(w))
            return mixture(w, *args)

        mixture = model._mixture
        monkeypatch.setattr(model, "_mixture", counting)
        compress(grid, Hyperparams(sigma=2.0))
        assert 0 < sum(seen) < build_stats(grid).node_count


class TestEmpiricalBayes:
    def test_singleton_grid_returns_that_point(self, monkeypatch):
        grid = grid_of(np.arange(16.0).reshape(4, 4))
        # the tau0 column is relative to sigma: 4 / 2 is tau0 = 2
        monkeypatch.setattr(model, "FIT_GRID", ((0.3,), (1.5,), (0.1,), (4.0,), (0.25,)))
        hp = empirical_bayes_fit(grid, sigma=2.0)
        assert (hp.alpha, hp.beta, hp.c, hp.tau0, hp.eta0) == (0.3, 1.5, 0.1, 2.0, 0.25)

    def test_constant_image_prefers_pruning_prior(self, monkeypatch):
        grid = grid_of(np.full((8, 8), 100.0))
        sigma = 1.0
        defaults = Hyperparams(sigma=sigma)
        no_prune = Hyperparams(sigma=sigma, eta0=0.0)
        lp_default = build_posterior(grid, defaults).log_marginal
        lp_no_prune = build_posterior(grid, no_prune).log_marginal
        assert lp_default > lp_no_prune
        monkeypatch.setattr(model, "FIT_GRID", ((0.5,), (1.0,), (0.05,), (1.0,), (0.4, 0.0)))
        hp = empirical_bayes_fit(grid, sigma=sigma)
        assert hp.eta0 == 0.4

    def test_default_grid_reproducible_argmax(self, photo64):
        hp1 = empirical_bayes_fit(photo64, sigma=4.0)
        hp2 = empirical_bayes_fit(photo64, sigma=4.0)
        assert hp1 == hp2
        assert np.isfinite(build_posterior(photo64, hp1).log_marginal)

    @pytest.mark.parametrize("make,sigma,expected", [
        (lambda: synthetic_photo(32, seed=11), 8.0,
         dict(alpha=0.1, beta=0.5, c=0.2, tau0=0.25, eta0=0.2)),
        (lambda: grid_of(np.clip(100 + np.random.default_rng(3).normal(0, 2, (32, 32)).round(),
                                 0, 255)), 2.0,
         dict(alpha=1.0, beta=2.0, c=0.01, tau0=0.25, eta0=0.6)),
    ])
    def test_fit_unchanged_by_the_marginal_only_pass(self, make, sigma, expected):
        # the points chosen when the fit ran the full sweep per grid point
        assert empirical_bayes_fit(make(), sigma) == Hyperparams(sigma=sigma, **expected)

    def test_stats_reuse_matches(self, monkeypatch, photo64):
        stats = build_stats(photo64)
        monkeypatch.setattr(model, "FIT_GRID",
                            ((0.5,), (1.0,), (0.05,), (0.5, 1.0, 2.0), (0.2, 0.6)))
        assert (empirical_bayes_fit(photo64, 2.0, stats=stats)
                == empirical_bayes_fit(photo64, 2.0))


class TestMemory:
    def test_only_int8_decisions_are_held(self):
        grid = random_grid(np.random.default_rng(17), (16, 8, 4))
        post = build_posterior(grid, Hyperparams(sigma=2.0))
        assert vars(post).keys() == {"stats", "decisions", "log_marginal", "log_map"}
        assert isinstance(post.log_marginal, float) and isinstance(post.log_map, float)
        stats = post.stats
        decisions = post.decisions
        assert decisions.dtype == np.int8 and decisions.base is None
        assert decisions.shape == tuple(2 * n for n in stats.dims)
        # every non-atomic block's decision names one of its divisible axes
        # or stops, and every entry that is no such block's stays 0
        written = np.zeros(decisions.shape, dtype=bool)
        for shape in stats.shapes[1:]:
            axis = decisions[cells(stats.dims, shape)]
            div = [-1] + [i for i, a in enumerate(shape) if a > 0]
            assert np.isin(axis, div).all()
            written[cells(stats.dims, shape)] = True
        assert not decisions[~written].any()

    def test_sweep_peak_within_the_stats_lattice(self):
        grid = synthetic_photo(512, seed=7)
        stats = build_stats(grid)
        gc.collect()
        tracemalloc.start()
        try:
            build_posterior(grid, Hyperparams(sigma=2.0), stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stats.node_count * 16

    @pytest.mark.parametrize("make", [
        lambda: synthetic_photo(512, seed=7),
        lambda: random_grid(np.random.default_rng(19), (16, 64, 64), channels=3),
    ], ids=["photo512", "3-channel-volume"])
    def test_batching_does_not_raise_the_peak(self, monkeypatch, make):
        grid = make()
        stats = build_stats(grid)
        hp = Hyperparams(sigma=2.0)

        def traced_peak():
            build_posterior(grid, hp, stats=stats)  # first-call allocations
            gc.collect()
            tracemalloc.start()
            try:
                build_posterior(grid, hp, stats=stats)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = traced_peak()
        monkeypatch.setattr(model, "_BATCH_BLOCKS", 1)
        assert batched <= 1.05 * traced_peak()
