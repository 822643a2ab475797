"""Marginal likelihood recursion and the MAP decision of every block.

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
The same bottom-up sweep then finds the MAP tree (see :mod:`carp.tree`):
per block, log kappa, the best log posterior of any pruned subtree rooted
there, and the int8 decision achieving it.  Only the decisions are kept.

The shared tree of C channels is fitted on their per-pixel sum at noise
scale C sigma, with tau0, rho and eta0 unchanged.  Every block sum and
coefficient of the sum is C times the channel mean's and every SST C^2
times, so each log psi is the mean's at sigma less (|A| - 1) log C, and
the posteriors and the MAP tree are the mean's.  log_marginal adds
(N - 1) log C back, for N pixels, so it is the mean's too.

The sweep goes level by level, smallest blocks first, and every shape of
one level has the same number of blocks.  It cuts each level into
batches: runs of consecutive shapes that also share their divisible
axes, of at most 2^13 blocks together unless one shape is larger and
runs alone.  A batch's blocks lie in one flat buffer per quantity, one
shape's run after the other, so the steps that treat each block alone
(the stop term, the mixture, both log-sum-exps, the NaN check, the prune
terms and the MAP decision) cost one set of numpy calls per batch, not
per shape; on small images that call overhead, not the arithmetic, is
most of the sweep.  Only the child sum differences and the adds of the
children's log psi and log kappa, strided reads of each shape's own
children, run per shape into its run.  The posterior tables and log
kappa of a batch exist while the sweep is at that batch, log psi and log
kappa until the parents, one level up, are done; so besides the
decisions, the sweep holds two levels of the lattice at a time.  What
remains is log_marginal, log psi of the root, and log_map, log kappa of
the root.

The block statistics come in the same order.  At blocks of 2^e pixels
the sweep reads the SSTs of level e and the sums of level e - 1, the
children's, and it asks the lattice for them as it reaches the level.
A stored :class:`~carp.lattice.StatsLattice` holds every level already.
A :class:`~carp.lattice.LevelStream`, which ``codec.compress`` builds
when it is not handed statistics, builds level e then and drops what the
sweep has passed, so at level e such a sweep holds the sums of levels
e - 1 and e, the SSTs of level e, log psi and log kappa of levels e - 1
and e, and the decisions so far; the atomic sums are the plane itself.

The mixture term is the sweep's one costly function: ``np.logaddexp`` is
a scalar loop, an order of magnitude slower per element than numpy's
vectorized ``exp``.  Most of its calls are served from tables, with the
same rounding.  On an integer-valued plane every block sum is an
integer-valued float, so each difference D = sum(A_left) - sum(A_right)
is an integer, and the mixture reads w = D / sqrt(|A|) only through
w * w, so it is a function of |D|.  For each batch and axis whose largest
|D| is below the number of blocks, the mixture is evaluated once per
value 0..max |D| and gathered by |D|; any other batch and axis, and every
plane with a fractional or non-finite value, evaluates it per block.  The
channel sum of integer samples is integer-valued, so colour images and
video are served by the tables too.  The log-sum-exps run in place, with
the operations of a reduction over stacked terms in the same order.  A
batch gives each block the same operations in the same order as a
shape alone, so every posterior array is bit for bit what the per-block,
per-shape evaluation gives, whatever the batches.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .grid import PixelGrid
from .lattice import StatsLattice, _child, _halves, build_stats, cells

# Hyperparams clamps a smaller sigma to this one
SIGMA_CLAMP = 1e-6
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
        for name in ("sigma", "alpha", "beta", "c", "tau0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma < SIGMA_CLAMP:
            warnings.warn(
                f"sigma {self.sigma} below {SIGMA_CLAMP}, clamping", stacklevel=2
            )
            object.__setattr__(self, "sigma", SIGMA_CLAMP)
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


# The empirical-Bayes candidates: every combination of alpha, beta, c,
# tau0 * sigma and eta0, in this order, so ties go to the earliest.
FIT_GRID = ((0.1, 0.5, 1.0), (0.5, 1.0, 2.0), (0.01, 0.05, 0.2),
            (0.5, 1.0, 2.0), (0.2, 0.4, 0.6))


def _log_normal(w: np.ndarray | float, var: float):
    return -0.5 * (LOG_2PI + math.log(var) + (w * w) / var)


def _mixture(w: np.ndarray, log_rho: float, log_1m_rho: float, var_wide: float,
             sigma2: float) -> np.ndarray:
    """Log density of the coefficients w under the two-component mixture."""
    with np.errstate(invalid="ignore"):  # NaN inputs are caught by the caller
        return np.logaddexp(log_rho + _log_normal(w, var_wide),
                            log_1m_rho + _log_normal(w, sigma2))


def _log_sum_exp(terms: list[np.ndarray]) -> np.ndarray:
    """log(sum(exp(terms))) per element, for one or more arrays.

    The result is bit for bit that of
    ``peak + log(sum(exp(stack(terms) - peak), axis=0))`` with ``peak`` the
    maximum over the stack: a reduction over the leading axis takes the
    maximum and the sum row after row, and so does this running maximum
    and accumulation, without the stacked copies.  Of one array x it is
    x + (x - x): x itself where x is finite, NaN where it is not.
    """
    peak = np.maximum(terms[0], terms[-1])
    for t in terms[1:-1]:
        np.maximum(peak, t, out=peak)
    total = np.subtract(terms[0], peak)
    np.exp(total, out=total)
    scratch = None
    for t in terms[1:]:
        scratch = np.subtract(t, peak, out=scratch)
        np.exp(scratch, out=scratch)
        total += scratch
    np.log(total, out=total)
    total += peak
    return total


def _decide(log_prune: np.ndarray, log_not_prune: np.ndarray, axes: list[int],
            scores: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(log kappa, decision) of every block of one batch of shapes.

    scores[k] is log_split + log kappa(left) + log kappa(right) for the
    split along axes[k].  The split axis is the best score's, where a
    strict ``>`` lets the lowest axis win ties; the decision is -1 where
    stopping strictly beats that split, so at equality the block splits.
    The inputs are overwritten.
    """
    best = axis = None
    for d, t in zip(axes, scores):
        if best is None:
            best, axis = t, np.full(t.shape, d, dtype=np.int8)
        else:
            # arithmetic on the 0/1 mask is several times faster than a
            # masked store
            axis += (d - axis) * (t > best).view(np.int8)
            np.maximum(best, t, out=best)
    split = np.add(log_not_prune, best, out=log_not_prune)
    axis -= (axis + 1) * (log_prune > split).view(np.int8)
    return np.maximum(log_prune, split, out=log_prune), axis


# The sweep runs consecutive shapes of one level and one set of divisible
# axes through one set of numpy passes while their blocks number at most
# this many; a larger shape runs alone.  Past a few thousand blocks a
# batch saves little more call overhead, and the cap keeps its buffers
# from outgrowing those of the largest shapes.
_BATCH_BLOCKS = 1 << 13


def _batches(shapes: list[tuple[int, ...]], n: int) -> list[list[tuple[int, ...]]]:
    """The non-atomic shapes of a lattice of n pixels, in the given order,
    cut into the runs the sweep handles together.

    A run shares the block size 2^sum(shape), so each of its shapes has
    n >> sum(shape) blocks, and the divisible axes.  It holds at most
    ``_BATCH_BLOCKS`` blocks unless it is a single shape.
    """
    batches: list[list[tuple[int, ...]]] = []
    key, total = None, 0
    for shape in shapes:
        if not any(shape):
            continue
        blocks = n >> sum(shape)
        shape_key = (sum(shape), tuple(a > 0 for a in shape))
        if shape_key == key and total + blocks <= _BATCH_BLOCKS:
            batches[-1].append(shape)
            total += blocks
        else:
            batches.append([shape])
            key, total = shape_key, blocks
    return batches


def _segments(buf: np.ndarray, grids: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Each shape's block array within a batch buffer: the buffer itself
    for a batch of one shape, else equal consecutive runs of the flat
    buffer, reshaped to the shapes' block grids."""
    if len(grids) == 1:
        return [buf]
    return [run.reshape(g) for run, g in zip(buf.reshape(len(grids), -1), grids)]


def _sweep(stats: StatsLattice, hp: Hyperparams, decisions: np.ndarray | None
           ) -> tuple[float, float | None]:
    """One bottom-up pass over the lattice: (log marginal, log kappa of the
    root), the former the channel mean's (see the module docstring).

    The shapes go in the batches of ``_batches``, one set of numpy passes
    over each batch's buffers but for the per-shape reads of the children
    (see the module docstring).

    With a decisions array, each non-atomic block's int8 decision is
    stored at its cells; without one, only the marginal likelihood is
    computed and the root's log kappa is None.  A shape's log psi and log
    kappa are read by its parents alone, one level up, so each is dropped
    once the sweep moves two levels past it.  On reaching blocks of 2^e pixels the
    sweep calls ``stats._reach_level(e)``, after which stats holds the
    SSTs of level e and the sums of levels e - 1 and e: a stored lattice
    holds them all along, and a ``LevelStream`` builds level e then and
    drops the levels below these.
    """
    # a sum of C channels carries C times the noise of one
    sigma = hp.sigma * stats.channels
    sigma2 = sigma * sigma
    log_const = LOG_2PI + math.log(sigma2)
    log_eta0 = math.log(hp.eta0) if hp.eta0 > 0 else -math.inf
    log_1m_eta0 = math.log1p(-hp.eta0) if hp.eta0 < 1 else -math.inf
    halves = [_halves(stats.m, d) for d in range(stats.m)]
    n = math.prod(stats.dims)
    atomic = stats.shapes[0]
    log_psi: dict[tuple[int, ...], np.ndarray] = {
        atomic: np.broadcast_to(0.0, stats.grid_shape(atomic))}
    log_kappa = dict(log_psi)
    size_exp = 0

    for shapes in _batches(stats.shapes, n):
        if sum(shapes[0]) != size_exp:
            size_exp = sum(shapes[0])
            stats._reach_level(size_exp)
            for done in [s for s in log_psi if sum(s) < size_exp - 1]:
                del log_psi[done]
                log_kappa.pop(done, None)
            size = 2 ** size_exp
            log_psi0_const = -((size - 1) / 2.0) * log_const
            level = stats.level_of_shape(shapes[0])
            rho = hp.rho(level)
            tau = hp.tau(level)
            var_wide = (1.0 + tau * tau) * sigma2
            log_rho = math.log(rho) if rho > 0 else -math.inf
            log_1m_rho = math.log1p(-rho) if rho < 1 else -math.inf
            scale = math.sqrt(float(size))

        grids = [stats.grid_shape(s) for s in shapes]
        buffer = grids[0] if len(shapes) == 1 else (len(shapes) * (n >> size_exp),)
        div = [i for i, a in enumerate(shapes[0]) if a > 0]
        log_go = log_1m_eta0 - math.log(len(div))

        # log eta0 + log psi0
        stop = np.empty(buffer)
        for shape, run in zip(shapes, _segments(stop, grids)):
            np.divide(stats.ssts[shape], 2.0 * sigma2, out=run)
        np.subtract(log_psi0_const, stop, out=stop)
        np.add(log_eta0, stop, out=stop)

        diff = np.empty(buffer)
        diff_runs = _segments(diff, grids)
        d_terms, d_runs = [], []
        for d in div:
            left, right = halves[d]
            for shape, run in zip(shapes, diff_runs):
                cs = stats.sums[_child(shape, d)]
                np.subtract(cs[left], cs[right], out=run)
            # w enters the mixture only as w * w, so |diff| serves too
            np.abs(diff, out=diff)
            top = diff.max() if stats.integral else math.inf
            if top < diff.size:  # integers, no more values than blocks
                table = _mixture(np.arange(int(top) + 1) / scale, log_rho,
                                 log_1m_rho, var_wide, sigma2)
                lpd = table[diff.astype(np.intp)]
            else:
                lpd = _mixture(diff / scale, log_rho, log_1m_rho, var_wide, sigma2)
            runs = _segments(lpd, grids)
            for shape, run in zip(shapes, runs):
                cp = log_psi[_child(shape, d)]
                run += cp[left]
                run += cp[right]
            d_terms.append(lpd)
            d_runs.append(runs)
        del diff, diff_runs

        lpsi = _log_sum_exp([stop] + [log_go + lpd for lpd in d_terms])
        if np.isnan(lpsi).any():
            first = int(np.isnan(lpsi).reshape(-1).argmax())
            k, local = divmod(first, n >> size_exp)
            idx = np.unravel_index(local, grids[k])
            off = tuple(int(i) * (1 << a) for i, a in zip(idx, shapes[k]))
            raise NumericError(
                f"non-finite marginal likelihood at block offset {off}, "
                f"extent {tuple(1 << a for a in shapes[k])}"
            )
        log_psi.update(zip(shapes, _segments(lpsi, grids)))
        if decisions is None:
            continue

        # the posterior split distribution, stop and go probabilities
        lse_d = _log_sum_exp(d_terms)
        for d, lpd, runs in zip(div, d_terms, d_runs):
            np.subtract(lpd, lse_d, out=lpd)
            left, right = halves[d]
            for shape, run in zip(shapes, runs):
                kc = log_kappa[_child(shape, d)]
                run += kc[left]
                run += kc[right]
        stop -= lpsi
        log_prune = np.minimum(stop, 0.0, out=stop)
        lse_d += log_go
        lse_d -= lpsi
        log_not_prune = np.minimum(lse_d, 0.0, out=lse_d)
        kappa, axis = _decide(log_prune, log_not_prune, div, d_terms)
        log_kappa.update(zip(shapes, _segments(kappa, grids)))
        for shape, run in zip(shapes, _segments(axis, grids)):
            decisions[cells(stats.dims, shape)] = run
    root = tuple(stats.axis_exps)
    log_map = float(log_kappa[root].reshape(-1)[0]) if decisions is not None else None
    # the channel mean's log marginal, not the sum's; one channel adds 0
    log_marginal = float(log_psi[root].reshape(-1)[0])
    return log_marginal + (n - 1) * math.log(stats.channels), log_map


class PosteriorLattice:
    """The MAP decision for every lattice block, in one array.

    decisions is int8 of shape (2 n_1, ..., 2 n_m), indexed by a block's
    cells (``lattice.cells``): -1 where the MAP tree stops at the block,
    otherwise the axis it splits.  Other entries, the atomic blocks' too,
    stay 0, and pages no block's entry is on take no memory.  log_marginal
    is the log marginal likelihood of the whole image, and log_map the log
    posterior probability of the MAP tree (log kappa of the root).  The
    posterior tables the decisions come from are not kept.  stats is the
    lattice the sweep read; of a ``LevelStream`` only the last levels are
    left, so of that one only the dims and shapes serve afterwards.
    """

    def __init__(self, stats: StatsLattice, hp: Hyperparams):
        self.stats = stats
        self.decisions = np.zeros(tuple(2 * n for n in stats.dims), dtype=np.int8)
        self.log_marginal, self.log_map = _sweep(stats, hp, self.decisions)


def build_posterior(grid: PixelGrid, hp: Hyperparams,
                    stats: StatsLattice | None = None) -> PosteriorLattice:
    """Run the bottom-up likelihood recursion over the whole lattice."""
    if stats is None:
        stats = build_stats(grid)
    return PosteriorLattice(stats, hp)


def empirical_bayes_fit(grid: PixelGrid, sigma: float,
                        stats: StatsLattice | None = None) -> Hyperparams:
    """Pick the ``FIT_GRID`` point maximizing the image's marginal likelihood.

    Ties break in favor of the earliest grid point.  The block statistics
    do not depend on the hyperparameters, so they are shared across points.
    """
    if stats is None:
        stats = build_stats(grid)
    best_hp: Hyperparams | None = None
    best_lp = -math.inf
    for a, b, c, t, e in itertools.product(*FIT_GRID):
        hp = Hyperparams(sigma=sigma, alpha=a, beta=b, c=c, tau0=t / sigma, eta0=e)
        lp, _ = _sweep(stats, hp, None)
        if lp > best_lp:
            best_lp, best_hp = lp, hp
    assert best_hp is not None
    return best_hp
