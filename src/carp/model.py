"""Marginal likelihood recursion and the MAP decision of every block.

The model scores every block A of the lattice in natural-log domain,
because the linear values underflow double precision past a few hundred
pixels:

* log_psi0(A): marginal likelihood if partitioning stops at A; every
  coefficient below A is then pure noise, giving
  -((|A|-1)/2) log(2 pi sigma^2) - SST(A) / (2 sigma^2).
* mix_d(A): log density of the block's own coefficient w_d(A) if A is
  halved along axis d, under a two-component normal mixture (a wide
  "active" component with weight rho and variance (1 + tau_j^2) sigma^2
  at block level j, and a narrow noise component).
* log_psi(A): the marginal likelihood, eta0 * psi0 + (1 - eta0) *
  mean_d [exp(mix_d) psi(A_left) psi(A_right)], with the uniform split
  prior over divisible axes.

Atomic blocks score 0.  The MAP tree, the recursive partition with the
largest prior times likelihood, comes from the same recursion with the
sum replaced by a maximum, the min/+ tree pruning of Chou, Lookabaugh
and Gray in log form:

    G(A) = max(log eta0 + log_psi0(A),
               max_d [log((1 - eta0) / #axes) + mix_d(A) + G(A_left) + G(A_right)]).

A block's int8 decision is the argmax: -1 to stop, otherwise the split
axis.  G of the root is the log joint of the image and the MAP tree, and
less the log marginal, the MAP tree's log posterior.  The normalized
posterior of the optional Polya tree (per block the stop probability,
the split distribution and kappa, the best posterior of a subtree) has
the same argmax, but the two forms round differently, so MAP ties are
broken in the max-product form: among axes the lowest wins, and a block
splits when stopping and splitting score equally.

The shared tree of C channels is fitted on their per-pixel sum at noise
scale C sigma, with tau0, rho and eta0 unchanged.  Every block sum and
coefficient of the sum is C times the channel mean's and every SST C^2
times, so each log psi and G is the mean's at sigma less (|A| - 1) log C,
and the MAP tree is the mean's.  The root's score gets (N - 1) log C
back, for N pixels, so it is the mean's too.

One sweep, level by level and smallest blocks first, computes either
score: with decisions, G and the decisions; without, log psi alone, for
``empirical_bayes_fit`` and ``PosteriorLattice.log_marginal``.  Both take
the same stop term and the same split terms, mix_d plus the children's
scores, and differ only in how they combine them: a log-sum-exp for log
psi, ``max`` and ``+`` for G (``_decide``).  Every shape of one level has
the same number of blocks.  The sweep cuts each level into batches: runs
of consecutive shapes that also share their divisible axes, of at most
2^13 blocks together unless one shape is larger and runs alone.  A
batch's blocks lie in one flat buffer per quantity, one shape's run after
the other, so the steps that treat each block alone (the stop term, the
mixture, the combination, the finiteness check and the MAP decision)
cost one set of numpy calls per batch, not per shape; on small images
that call overhead, not the arithmetic, is most of the sweep.  Only the
child sum differences and the adds of the children's scores, strided
reads of each shape's own children, run per shape into its run.  The
split terms come one axis at a time; G folds each into a running best and
drops it.  A shape's score is read by its parents alone, one level up, so
besides the decisions, the sweep holds the scores of two levels of the
lattice at a time.  What remains is the root's score.

The block statistics come in the same order.  At blocks of 2^e pixels
the sweep reads the SSTs of level e and the sums of level e - 1, the
children's, and it asks the lattice for them as it reaches the level.
A stored :class:`~carp.lattice.StatsLattice` holds every level already.
A :class:`~carp.lattice.LevelStream`, which ``codec.compress`` builds
when it is not handed statistics, builds level e then and drops what the
sweep has passed, so at level e such a sweep holds the sums of levels
e - 1 and e, the SSTs of level e, the scores of levels e - 1 and e, and
the decisions so far; the atomic sums are the plane itself.

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
video are served by the tables too.  The log-sum-exp runs in place, with
the operations of a reduction over stacked terms in the same order.  A
batch gives each block the same operations in the same order as a
shape alone, so every score and decision is bit for bit what the
per-block, per-shape evaluation gives, whatever the batches.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .grid import PixelGrid
from .lattice import LevelStream, StatsLattice, _child, _halves, build_stats, cells

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


def _decide(stop: np.ndarray, log_go: float, scores) -> tuple[np.ndarray, np.ndarray]:
    """(G, decision) of every block of one batch of shapes, by max-product.

    scores yields (d, mix_d + G(A_left) + G(A_right)) for each divisible
    axis d in ascending order, and each is folded into a running best,
    where a strict ``>`` lets the lowest axis win ties.  The split scores
    log_go plus that best; the decision is -1 where stop strictly beats
    it, so at equality the block splits, and G is the larger of the two.
    stop and the scores are overwritten.
    """
    best = axis = None
    for d, t in scores:
        if best is None:
            best, axis = t, np.full(t.shape, d, dtype=np.int8)
        else:
            # arithmetic on the 0/1 mask is several times faster than a
            # masked store
            axis += (d - axis) * (t > best).view(np.int8)
            np.maximum(best, t, out=best)
    best += log_go
    axis -= (axis + 1) * (stop > best).view(np.int8)
    return np.maximum(stop, best, out=stop), axis


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


def _split_terms(stats: StatsLattice, shapes: list[tuple[int, ...]],
                 grids: list[tuple[int, ...]], buffer: tuple[int, ...],
                 score: dict, mix: tuple[float, ...], scale: float):
    """(d, mix_d + score(A_left) + score(A_right)) of one batch's blocks for
    each divisible axis d, a new array per axis (see the module docstring)."""
    diff = np.empty(buffer)
    diff_runs = _segments(diff, grids)
    for d in [i for i, a in enumerate(shapes[0]) if a > 0]:
        left, right = _halves(stats.m, d)
        for shape, run in zip(shapes, diff_runs):
            cs = stats.sums[_child(shape, d)]
            np.subtract(cs[left], cs[right], out=run)
        # w enters the mixture only as w * w, so |diff| serves too
        np.abs(diff, out=diff)
        top = diff.max() if stats.integral else math.inf
        if top < diff.size:  # integers, no more values than blocks
            term = _mixture(np.arange(int(top) + 1) / scale, *mix)[diff.astype(np.intp)]
        else:
            term = _mixture(diff / scale, *mix)
        for shape, run in zip(shapes, _segments(term, grids)):
            cp = score[_child(shape, d)]
            run += cp[left]
            run += cp[right]
        yield d, term


def _sweep(stats: StatsLattice, hp: Hyperparams, decisions: np.ndarray | None) -> float:
    """One bottom-up pass over the lattice in the batches of ``_batches``:
    the root's score, the channel mean's (see the module docstring).  With
    a decisions array the score is G, the log joint of the image and the
    MAP tree, and each non-atomic block's int8 decision is stored at its
    cells; without one it is log psi, the log marginal likelihood.

    On reaching blocks of 2^e pixels the sweep calls
    ``stats._reach_level(e)``, after which stats holds the SSTs of level e
    and the sums of levels e - 1 and e, and it drops the scores of level
    e - 2, whose parents are done.
    """
    # a sum of C channels carries C times the noise of one
    sigma = hp.sigma * stats.channels
    sigma2 = sigma * sigma
    log_const = LOG_2PI + math.log(sigma2)
    log_eta0 = math.log(hp.eta0) if hp.eta0 > 0 else -math.inf
    log_1m_eta0 = math.log1p(-hp.eta0) if hp.eta0 < 1 else -math.inf
    n = math.prod(stats.dims)
    atomic = stats.shapes[0]
    # log psi or G of each shape, by the block
    score = {atomic: np.broadcast_to(0.0, stats.grid_shape(atomic))}
    size_exp = 0

    for shapes in _batches(stats.shapes, n):
        if sum(shapes[0]) != size_exp:
            size_exp = sum(shapes[0])
            stats._reach_level(size_exp)
            for done in [s for s in score if sum(s) < size_exp - 1]:
                del score[done]
            size = 2 ** size_exp
            log_psi0_const = -((size - 1) / 2.0) * log_const
            level = stats.level_of_shape(shapes[0])
            rho = hp.rho(level)
            tau = hp.tau(level)
            mix = (math.log(rho) if rho > 0 else -math.inf,
                   math.log1p(-rho) if rho < 1 else -math.inf,
                   (1.0 + tau * tau) * sigma2, sigma2)
            scale = math.sqrt(float(size))

        grids = [stats.grid_shape(s) for s in shapes]
        buffer = grids[0] if len(shapes) == 1 else (len(shapes) * (n >> size_exp),)
        log_go = log_1m_eta0 - math.log(sum(a > 0 for a in shapes[0]))

        # log eta0 + log psi0
        stop = np.empty(buffer)
        for shape, run in zip(shapes, _segments(stop, grids)):
            np.divide(stats.ssts[shape], 2.0 * sigma2, out=run)
        np.subtract(log_psi0_const, stop, out=stop)
        np.add(log_eta0, stop, out=stop)

        terms = _split_terms(stats, shapes, grids, buffer, score, mix, scale)
        if decisions is None:
            total = _log_sum_exp([stop] + [log_go + t for _, t in terms])
        else:
            total, axis = _decide(stop, log_go, terms)
            for shape, run in zip(shapes, _segments(axis, grids)):
                decisions[cells(stats.dims, shape)] = run
        # where a term is NaN or all are -inf: log psi is NaN, G not finite
        finite = np.isfinite(total)
        if not finite.all():
            first = int(finite.reshape(-1).argmin())
            k, local = divmod(first, n >> size_exp)
            idx = np.unravel_index(local, grids[k])
            off = tuple(int(i) * (1 << a) for i, a in zip(idx, shapes[k]))
            raise NumericError(
                f"non-finite marginal likelihood at block offset {off}, "
                f"extent {tuple(1 << a for a in shapes[k])}"
            )
        score.update(zip(shapes, _segments(total, grids)))
    root = float(score[tuple(stats.axis_exps)].reshape(-1)[0])
    # the channel mean's, not the sum's; one channel adds 0
    return root + (n - 1) * math.log(stats.channels)


class PosteriorLattice:
    """The MAP decision for every lattice block, in one array.

    decisions is int8 of shape (2 n_1, ..., 2 n_m), indexed by a block's
    cells (``lattice.cells``): -1 where the MAP tree stops at the block,
    otherwise the axis it splits.  Other entries, the atomic blocks' too,
    stay 0, and pages no block's entry is on take no memory.  log_joint is
    G of the root, the log prior times likelihood of the MAP tree and the
    image.  log_marginal, the image's log marginal likelihood, takes a
    marginal-only sweep of stats, the lattice the sweep read, on first
    use, and log_map, the MAP tree's log posterior, is their difference.
    A ``LevelStream`` is spent by the sweep: only its dims and shapes
    serve afterwards, and log_marginal raises ValueError.
    """

    def __init__(self, stats: StatsLattice, hp: Hyperparams):
        self.stats = stats
        self.hp = hp
        self.decisions = np.zeros(tuple(2 * n for n in stats.dims), dtype=np.int8)
        self.log_joint = _sweep(stats, hp, self.decisions)

    @functools.cached_property
    def log_marginal(self) -> float:
        if isinstance(self.stats, LevelStream):
            raise ValueError("log_marginal needs the stored statistics (build_stats); "
                             "the LevelStream this posterior was swept from is spent")
        return _sweep(self.stats, self.hp, None)

    @property
    def log_map(self) -> float:
        return self.log_joint - self.log_marginal


def _stats_of(grid: PixelGrid, stats: StatsLattice | None) -> StatsLattice:
    """The grid's block statistics: stats when given, else built.  Raises
    DimensionError when stats were built for other dims or channel counts;
    stats of other pixels in the same dims and channels go undetected."""
    if stats is None:
        return build_stats(grid)
    if stats.dims != grid.dims or stats.channels != grid.channels:
        raise DimensionError(f"statistics of {stats.dims} x{stats.channels} do not fit "
                             f"a grid of {grid.dims} x{grid.channels}")
    return stats


def build_posterior(grid: PixelGrid, hp: Hyperparams,
                    stats: StatsLattice | None = None) -> PosteriorLattice:
    """Run the bottom-up likelihood recursion over the whole lattice of
    the grid, or of the grid's statistics ``stats`` (see ``_stats_of``)."""
    return PosteriorLattice(_stats_of(grid, stats), hp)


def empirical_bayes_fit(grid: PixelGrid, sigma: float,
                        stats: StatsLattice | None = None) -> Hyperparams:
    """Pick the ``FIT_GRID`` point maximizing the image's marginal likelihood.

    Ties break in favor of the earliest grid point.  The block statistics
    do not depend on the hyperparameters, so they are shared across points;
    ``stats`` may pass them in, as for :func:`build_posterior`.
    """
    stats = _stats_of(grid, stats)
    best_hp: Hyperparams | None = None
    best_lp = -math.inf
    for a, b, c, t, e in itertools.product(*FIT_GRID):
        hp = Hyperparams(sigma=sigma, alpha=a, beta=b, c=c, tau0=t / sigma, eta0=e)
        lp = _sweep(stats, hp, None)
        if lp > best_lp:
            best_lp, best_hp = lp, hp
    assert best_hp is not None
    return best_hp
