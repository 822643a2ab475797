import math

import numpy as np
import pytest

from carp import (Hyperparams, HyperGrid, NumericError, PixelGrid,
                  build_posterior, build_stats, empirical_bayes_fit)
from conftest import random_grid
from oracles import brute_force_log_marginal


def grid_of(arr):
    return PixelGrid.from_array(np.asarray(arr, dtype=float))


def log_normal(w, var):
    return -0.5 * (math.log(2 * math.pi * var) + w * w / var)


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
            w = post.stats.haar_array((0, 1), 1)[0, 0]
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
        post = build_posterior(grid, Hyperparams(sigma=2.0, eta0=0.0))
        for shape in post.stats.shapes:
            if sum(shape) == 0:
                continue
            assert np.all(np.exp(post.log_prune[shape]) == 0.0)

    def test_single_axis_split_posterior_is_one(self):
        post = build_posterior(grid_of([[3.0, 100.0]]), Hyperparams(sigma=1.0))
        np.testing.assert_allclose(post.log_split[((0, 1), 1)], 0.0, atol=1e-14)

    def test_symmetric_constant_2x2_splits_evenly(self):
        post = build_posterior(grid_of(np.full((2, 2), 8.0)), Hyperparams(sigma=1.0))
        for d in (0, 1):
            split = math.exp(float(post.log_split[((1, 1), d)][0, 0]))
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
        post = build_posterior(grid, hp)
        for shape in post.stats.shapes:
            if not any(shape):
                continue
            total = np.exp(post.log_prune[shape]) + np.exp(post.log_not_prune[shape])
            np.testing.assert_allclose(total, 1.0, rtol=1e-10)

    def test_split_posteriors_sum_to_one(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (8, 4))
        post = build_posterior(grid, Hyperparams(sigma=3.0))
        for shape in post.stats.shapes:
            div = [i for i, a in enumerate(shape) if a > 0]
            if not div:
                continue
            total = sum(np.exp(post.log_split[(shape, d)]) for d in div)
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_prune_posterior_within_unit_interval(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (8, 8))
        post = build_posterior(grid, Hyperparams(sigma=5.0))
        for shape in post.stats.shapes:
            p = np.exp(post.log_prune[shape])
            assert np.all((0.0 <= p) & (p <= 1.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 200, size=(4, 4)).astype(float)
        hp = Hyperparams(sigma=2.0)
        post_a = build_posterior(grid_of(base), hp)
        post_b = build_posterior(grid_of(base + 55.0), hp)
        assert post_a.log_marginal == pytest.approx(post_b.log_marginal, rel=1e-9)
        for shape in post_a.stats.shapes:
            np.testing.assert_allclose(post_a.log_not_prune[shape],
                                       post_b.log_not_prune[shape],
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(post_a.log_prune[shape],
                                       post_b.log_prune[shape],
                                       rtol=1e-9, atol=1e-12)

    def test_log_psi_finite_on_large_flat_block(self):
        grid = grid_of(np.full((64, 64), 200.0))
        post = build_posterior(grid, Hyperparams(sigma=1e-6))
        assert np.isfinite(post.log_marginal)

    def test_nan_input_raises_numeric_error(self):
        vals = np.zeros((1, 2, 2))
        vals[0, 0, 0] = np.nan
        grid = PixelGrid(values=vals, dims_original=(2, 2))
        with pytest.raises(NumericError, match="block"):
            build_posterior(grid, Hyperparams(sigma=1.0))


class TestEmpiricalBayes:
    def test_singleton_grid_returns_that_point(self):
        grid = grid_of(np.arange(16.0).reshape(4, 4))
        spec = HyperGrid(alphas=[0.3], betas=[1.5], cs=[0.1],
                         tau0s=[2.0], eta0s=[0.25])
        hp = empirical_bayes_fit(grid, sigma=2.0, grid_spec=spec)
        assert (hp.alpha, hp.beta, hp.c, hp.tau0, hp.eta0) == (0.3, 1.5, 0.1, 2.0, 0.25)

    def test_constant_image_prefers_pruning_prior(self):
        grid = grid_of(np.full((8, 8), 100.0))
        sigma = 1.0
        defaults = Hyperparams(sigma=sigma)
        no_prune = Hyperparams(sigma=sigma, eta0=0.0)
        lp_default = build_posterior(grid, defaults).log_marginal
        lp_no_prune = build_posterior(grid, no_prune).log_marginal
        assert lp_default > lp_no_prune
        spec = HyperGrid(alphas=[0.5], betas=[1.0], cs=[0.05],
                         tau0s=[1.0], eta0s=[0.4, 0.0])
        hp = empirical_bayes_fit(grid, sigma=sigma, grid_spec=spec)
        assert hp.eta0 == 0.4

    def test_default_grid_reproducible_argmax(self, photo64):
        hp1 = empirical_bayes_fit(photo64, sigma=4.0)
        hp2 = empirical_bayes_fit(photo64, sigma=4.0)
        assert hp1 == hp2
        assert np.isfinite(build_posterior(photo64, hp1).log_marginal)

    def test_empty_grid_rejected(self):
        grid = grid_of(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            empirical_bayes_fit(grid, sigma=1.0, grid_spec=HyperGrid(alphas=[]))

    def test_stats_reuse_matches(self, photo64):
        stats = build_stats(photo64)
        spec = HyperGrid(alphas=[0.5], betas=[1.0], cs=[0.05],
                         tau0s=None, eta0s=[0.2, 0.6])
        assert (empirical_bayes_fit(photo64, 2.0, spec, stats=stats)
                == empirical_bayes_fit(photo64, 2.0, spec))
