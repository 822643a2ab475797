"""Marginal likelihood recursion and posterior split/prune maps.

The model scores every block A of the lattice with three quantities, all
in natural-log domain because the linear values underflow double
precision past a few hundred pixels:

* log_psi0(A): marginal likelihood if partitioning stops at A; every
  coefficient below A is then pure noise, giving
  -((|A|-1)/2) log(2 pi sigma^2) - SST(A) / (2 sigma^2).
* log_psi_d(A): marginal likelihood if A is halved along axis d; the
  block's own coefficient w_d(A) is scored by a two-component normal
  mixture (a wide "active" component with weight rho and variance
  (1 + tau_j^2) sigma^2 at block level j, and a narrow noise component),
  multiplied by the children's marginal likelihoods.
* log_psi(A): prior-weighted combination
  eta0 * psi0 + (1 - eta0) * mean_d psi_d, with the uniform split prior
  over divisible axes.

Atomic blocks carry log_psi = 0 by convention.  From these, Bayes' theorem
yields the posterior stop probability and the posterior split distribution
per block, which completely describe the posterior over partition trees.
Only those posteriors are kept, one array per shape: log_psi0 and
log_psi_d are computed per shape and not stored, and log_psi lives only
while the sweep needs it, leaving log_marginal, the value at the root.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .grid import PixelGrid
from .lattice import StatsLattice, _child, _halves, build_stats

SIGMA_FLOOR = 1e-6
LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Hyperparams:
    """Model knobs.  sigma is the single user-facing one: it is the scale of
    local variation the codec is allowed to ignore, and maps monotonically
    to the achieved compression ratio.

    The remaining five control the priors: tau_j = 2^(-alpha j) tau0 scales
    the active-coefficient variance per level, rho_j = min(1, c 2^(-beta j))
    is the active-component weight, and eta0 is the prior probability of
    stopping partitioning at any block.  tau0 defaults to 1/sigma.
    """

    sigma: float
    alpha: float = 0.5
    beta: float = 1.0
    c: float = 0.05
    tau0: float | None = None
    eta0: float = 0.4

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma < SIGMA_FLOOR:
            warnings.warn(
                f"sigma {self.sigma} below {SIGMA_FLOOR}, clamping", stacklevel=2
            )
            object.__setattr__(self, "sigma", SIGMA_FLOOR)
        if self.tau0 is None:
            object.__setattr__(self, "tau0", 1.0 / self.sigma)
        if self.tau0 <= 0:
            raise ValueError(f"tau0 must be positive, got {self.tau0}")
        if not 0.0 <= self.eta0 <= 1.0:
            raise ValueError(f"eta0 must be in [0, 1], got {self.eta0}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")

    def rho(self, level: int) -> float:
        return min(1.0, self.c * 2.0 ** (-self.beta * level))

    def tau(self, level: int) -> float:
        return 2.0 ** (-self.alpha * level) * self.tau0


@dataclass
class HyperGrid:
    """Candidate values for the empirical-Bayes search, one list per knob."""

    alphas: list[float] = field(default_factory=lambda: [0.1, 0.5, 1.0])
    betas: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0])
    cs: list[float] = field(default_factory=lambda: [0.01, 0.05, 0.2])
    tau0s: list[float] | None = None  # None -> {0.5/sigma, 1/sigma, 2/sigma}
    eta0s: list[float] = field(default_factory=lambda: [0.2, 0.4, 0.6])

    def points(self, sigma: float):
        tau0s = self.tau0s if self.tau0s is not None else [0.5 / sigma, 1.0 / sigma, 2.0 / sigma]
        if not (self.alphas and self.betas and self.cs and tau0s and self.eta0s):
            raise ValueError("hyperparameter grid must be non-empty")
        for a, b, c, t, e in itertools.product(self.alphas, self.betas, self.cs,
                                               tau0s, self.eta0s):
            yield Hyperparams(sigma=sigma, alpha=a, beta=b, c=c, tau0=t, eta0=e)


def _log_normal(w: np.ndarray | float, var: float):
    return -0.5 * (LOG_2PI + math.log(var) + (w * w) / var)


class PosteriorLattice:
    """Posterior quantities for every lattice block, stored per shape.

    All probabilities are held in log domain: log_prune and log_not_prune
    are the posterior probabilities of stopping at the block or not,
    log_split[(shape, d)] the posterior split distribution over its
    divisible axes (summing to one), log_kappa the best achievable
    posterior mass of any pruned subtree rooted at the block, and
    decisions the int8 choice achieving it (-1 to stop, otherwise the
    split axis); the last two are filled in by the tree extraction stage.
    log_marginal is the log marginal likelihood of the whole image.
    """

    def __init__(self, stats: StatsLattice, hp: Hyperparams):
        self.stats = stats
        self.hp = hp
        self.log_prune: dict[tuple[int, ...], np.ndarray] = {}
        self.log_not_prune: dict[tuple[int, ...], np.ndarray] = {}
        self.log_split: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        self.log_kappa: dict[tuple[int, ...], np.ndarray] | None = None
        self.decisions: dict[tuple[int, ...], np.ndarray] | None = None
        self.log_marginal: float = self._build()

    def _build(self) -> float:
        """Fill the posterior arrays; return log psi of the whole space."""
        stats, hp = self.stats, self.hp
        log_psi: dict[tuple[int, ...], np.ndarray] = {}
        sigma2 = hp.sigma * hp.sigma
        log_const = LOG_2PI + math.log(sigma2)
        log_eta0 = math.log(hp.eta0) if hp.eta0 > 0 else -math.inf
        log_1m_eta0 = math.log1p(-hp.eta0) if hp.eta0 < 1 else -math.inf

        for shape in stats.shapes:
            size = 2 ** sum(shape)
            div = [i for i, a in enumerate(shape) if a > 0]
            if not div:
                zero = np.zeros(stats.grid_shape(shape))
                log_psi[shape] = zero
                self.log_prune[shape] = np.full_like(zero, -np.inf)
                self.log_not_prune[shape] = zero
                continue

            level = stats.level_of_shape(shape)
            lpsi0 = -((size - 1) / 2.0) * log_const - stats.ssts[shape] / (2.0 * sigma2)

            rho = hp.rho(level)
            tau = hp.tau(level)
            var_wide = (1.0 + tau * tau) * sigma2
            log_rho = math.log(rho) if rho > 0 else -math.inf
            log_1m_rho = math.log1p(-rho) if rho < 1 else -math.inf

            terms = [log_eta0 + lpsi0]
            log_lambda = -math.log(len(div))
            d_terms = []
            for d in div:
                w = stats.haar_array(shape, d)
                with np.errstate(invalid="ignore"):  # NaN inputs caught below
                    mix = np.logaddexp(log_rho + _log_normal(w, var_wide),
                                       log_1m_rho + _log_normal(w, sigma2))
                cp = log_psi[_child(shape, d)]
                left, right = _halves(stats.m, d)
                lpd = mix + cp[left] + cp[right]
                d_terms.append(lpd)
                terms.append(log_1m_eta0 + log_lambda + lpd)

            stacked = np.stack(terms)
            peak = np.max(stacked, axis=0)
            lpsi = peak + np.log(np.sum(np.exp(stacked - peak), axis=0))
            if np.isnan(lpsi).any():
                idx = tuple(int(v) for v in
                            np.argwhere(np.isnan(lpsi))[0])
                off = tuple(i * (1 << a) for i, a in zip(idx, shape))
                raise NumericError(
                    f"non-finite marginal likelihood at block offset {off}, "
                    f"extent {tuple(1 << a for a in shape)}"
                )
            log_psi[shape] = lpsi

            d_stack = np.stack(d_terms)
            d_peak = np.max(d_stack, axis=0)
            lse_d = d_peak + np.log(np.sum(np.exp(d_stack - d_peak), axis=0))
            for d, lpd in zip(div, d_terms):
                self.log_split[(shape, d)] = lpd - lse_d
            self.log_prune[shape] = np.minimum(log_eta0 + lpsi0 - lpsi, 0.0)
            self.log_not_prune[shape] = np.minimum(
                log_1m_eta0 + log_lambda + lse_d - lpsi, 0.0
            )
        return float(log_psi[self.root_shape].reshape(-1)[0])

    @property
    def root_shape(self) -> tuple[int, ...]:
        return tuple(self.stats.axis_exps)


def build_posterior(grid: PixelGrid, hp: Hyperparams,
                    stats: StatsLattice | None = None) -> PosteriorLattice:
    """Run the bottom-up likelihood recursion over the whole lattice."""
    if stats is None:
        stats = build_stats(grid)
    return PosteriorLattice(stats, hp)


def empirical_bayes_fit(grid: PixelGrid, sigma: float,
                        grid_spec: HyperGrid | None = None,
                        stats: StatsLattice | None = None) -> Hyperparams:
    """Pick the grid point maximizing the image's marginal likelihood.

    Ties break in favor of the earliest grid point.  The block statistics
    do not depend on the hyperparameters, so they are shared across points.
    """
    if grid_spec is None:
        grid_spec = HyperGrid()
    if stats is None:
        stats = build_stats(grid)
    best_hp: Hyperparams | None = None
    best_lp = -math.inf
    for hp in grid_spec.points(sigma):
        lp = PosteriorLattice(stats, hp).log_marginal
        if lp > best_lp:
            best_lp, best_hp = lp, hp
    assert best_hp is not None
    return best_hp
