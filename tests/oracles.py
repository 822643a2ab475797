"""Independent oracles used by the test suite.

Everything here is deliberately written against the model definitions
directly, not against the package's recursion paths:

* ``compiled_structures`` materializes every pruned partition tree of a
  small block explicitly; priors and likelihoods are then summed tree by
  tree, giving a brute-force marginal likelihood and posterior argmax.
* ``reference_extract_map_tree``, ``reference_permutation`` and
  ``reference_serialize_tree`` are a recursive tree path over the same
  structure tuples, reading the posterior arrays one block at a time; the
  differential tests require it and the package's array-native tree to
  agree exactly.
* ``reference_ms_ssim`` is a second MS-SSIM implementation built on
  scipy.ndimage filtering rather than the package's separable windows.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import ndimage

from carp.bitio import BitWriter

# ---------------------------------------------------------------------------
# Exhaustive pruned-tree enumeration
# ---------------------------------------------------------------------------
# A structure is a nested tuple:
#   ("atom",  offset, extent)
#   ("prune", offset, extent)
#   ("split", offset, extent, axis, left_structure, right_structure)
#
# compiled_structures pairs each structure with flattened lookup keys so a
# per-image evaluation is a plain sum over table entries.


def _divisible(extent):
    return [i for i, e in enumerate(extent) if e > 1]


def _children(offset, extent, d):
    half = extent[d] // 2
    ext = tuple(e if i != d else half for i, e in enumerate(extent))
    off_r = tuple(o if i != d else o + half for i, o in enumerate(offset))
    return (offset, ext), (off_r, ext)


@lru_cache(maxsize=None)
def compiled_structures(offset, extent):
    """Tuple of (structure, split_keys, prune_keys, sum_neg_log_div).

    split_keys are (offset, extent, axis) triples of the structure's split
    nodes; prune_keys are (offset, extent) of its pruned leaves;
    sum_neg_log_div accumulates -log |D(A)| over the split nodes (the
    structure-dependent part of the uniform axis prior).
    """
    div = _divisible(extent)
    if not div:
        return ((("atom", offset, extent), (), (), 0.0),)
    entries = [(("prune", offset, extent), (), ((offset, extent),), 0.0)]
    neg_log_div = -math.log(len(div))
    for d in div:
        (off_l, ext_c), (off_r, _) = _children(offset, extent, d)
        key = ((offset, extent, d),)
        for sl, kl, pl, gl in compiled_structures(off_l, ext_c):
            for sr, kr, pr, gr in compiled_structures(off_r, ext_c):
                entries.append((
                    ("split", offset, extent, d, sl, sr),
                    key + kl + kr,
                    pl + pr,
                    neg_log_div + gl + gr,
                ))
    return tuple(entries)


def _log_normal(w, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + w * w / var)


def _all_blocks(dims):
    exps = [int(d).bit_length() - 1 for d in dims]
    for shape in itertools.product(*(range(e + 1) for e in exps)):
        extent = tuple(1 << a for a in shape)
        counts = [d // e for d, e in zip(dims, extent)]
        for idx in itertools.product(*(range(c) for c in counts)):
            yield tuple(i * e for i, e in zip(idx, extent)), extent


class BruteForceModel:
    """Per-image tables: psi0 per block and the coefficient mixture density
    per (block, axis), computed straight from the pixel values."""

    def __init__(self, image, hp):
        self.image = np.asarray(image, dtype=np.float64)
        self.hp = hp
        self.j_total = int(sum(int(d).bit_length() - 1 for d in self.image.shape))
        self.prune_table = {}
        self.split_table = {}
        for offset, extent in _all_blocks(self.image.shape):
            self.prune_table[(offset, extent)] = self._log_psi0(offset, extent)
            for d in _divisible(extent):
                self.split_table[(offset, extent, d)] = self._log_mixture(
                    offset, extent, d)

    def _view(self, offset, extent):
        sl = tuple(slice(o, o + e) for o, e in zip(offset, extent))
        return self.image[sl]

    def _log_psi0(self, offset, extent):
        v = self._view(offset, extent)
        sst = float(np.sum((v - v.mean()) ** 2))
        sigma2 = self.hp.sigma**2
        return (-((v.size - 1) / 2.0) * math.log(2.0 * math.pi * sigma2)
                - sst / (2.0 * sigma2))

    def _log_mixture(self, offset, extent, d):
        v = self._view(offset, extent)
        half = extent[d] // 2
        sl_l = tuple(slice(None) if i != d else slice(0, half)
                     for i in range(v.ndim))
        sl_r = tuple(slice(None) if i != d else slice(half, None)
                     for i in range(v.ndim))
        w = (v[sl_l].sum() - v[sl_r].sum()) / math.sqrt(v.size)
        level = self.j_total - int(sum(int(e).bit_length() - 1 for e in extent))
        rho = self.hp.rho(level)
        tau = self.hp.tau(level)
        sigma2 = self.hp.sigma**2
        wide = ((math.log(rho) + _log_normal(w, (1 + tau * tau) * sigma2))
                if rho > 0 else -math.inf)
        narrow = ((math.log1p(-rho) + _log_normal(w, sigma2))
                  if rho < 1 else -math.inf)
        return float(np.logaddexp(wide, narrow))


def brute_force_trees(image, hp):
    """Explicit per-tree scores over every pruned partition tree.

    Returns (structures, log_priors, log_liks) as parallel sequences.
    """
    image = np.asarray(image, dtype=np.float64)
    model = BruteForceModel(image, hp)
    root = (tuple(0 for _ in image.shape), image.shape)
    entries = compiled_structures(*root)

    log_eta0 = math.log(hp.eta0) if hp.eta0 > 0 else -math.inf
    log_1m = math.log1p(-hp.eta0) if hp.eta0 < 1 else -math.inf
    split_table, prune_table = model.split_table, model.prune_table

    structures = []
    log_priors = np.empty(len(entries))
    log_liks = np.empty(len(entries))
    for i, (structure, splits, prunes, sum_neg_log_div) in enumerate(entries):
        structures.append(structure)
        log_liks[i] = (sum(split_table[k] for k in splits)
                       + sum(prune_table[k] for k in prunes))
        log_priors[i] = (len(prunes) * log_eta0 + len(splits) * log_1m
                         + sum_neg_log_div)
    return structures, log_priors, log_liks


def brute_force_log_marginal(image, hp):
    _, log_priors, log_liks = brute_force_trees(image, hp)
    scores = log_priors + log_liks
    peak = scores.max()
    return float(peak + np.log(np.sum(np.exp(scores - peak))))


def brute_force_map(image, hp):
    """(best structures, best log posterior, log marginal).

    All structures within 1e-12 relative of the maximum joint score are
    returned, so exact symmetric ties stay visible to the caller.
    """
    structures, log_priors, log_liks = brute_force_trees(image, hp)
    scores = log_priors + log_liks
    peak = scores.max()
    log_marginal = float(peak + np.log(np.sum(np.exp(scores - peak))))
    cut = peak - 1e-12 * max(1.0, abs(peak))
    best = [structures[i] for i in np.flatnonzero(scores >= cut)]
    return best, float(peak - log_marginal), log_marginal


def tree_to_structure(tree):
    """Convert a package MapTree's preorder arrays into the tuple form."""
    rows = zip(tree.shape.tolist(), tree.index.tolist(), tree.axis.tolist())

    def take():
        shape, index, axis = next(rows)
        extent = tuple(1 << a for a in shape)
        offset = tuple(i * e for i, e in zip(index, extent))
        if axis < 0:
            return ("prune" if any(shape) else "atom", offset, extent)
        return ("split", offset, extent, axis, take(), take())

    structure = take()
    assert next(rows, None) is None, "rows left over after the root's subtree"
    return structure


# ---------------------------------------------------------------------------
# Reference tree path: structure tuples built by recursion
# ---------------------------------------------------------------------------
# Ties follow the same fixed rules as the package: the lowest axis wins
# among equal split scores, and a block splits when stopping and splitting
# score equally.


def reference_log_kappa(lattice):
    """log kappa per shape, bottom-up, without touching the lattice."""
    stats = lattice.stats
    log_kappa = {}
    for shape in stats.shapes:
        div = [i for i, a in enumerate(shape) if a > 0]
        if not div:
            log_kappa[shape] = np.zeros(stats.grid_shape(shape))
            continue
        best = None
        for d in div:
            child = tuple(a - 1 if i == d else a for i, a in enumerate(shape))
            kc = log_kappa[child]
            left = tuple(slice(None) if i != d else slice(0, None, 2)
                         for i in range(stats.m))
            right = tuple(slice(None) if i != d else slice(1, None, 2)
                          for i in range(stats.m))
            t = lattice.log_split[(shape, d)] + kc[left] + kc[right]
            best = t if best is None else np.maximum(best, t)
        log_kappa[shape] = np.maximum(
            lattice.log_prune[shape], lattice.log_not_prune[shape] + best
        )
    return log_kappa


def _key(offset, extent):
    """(shape, grid index) of a block: the posterior arrays' address."""
    shape = tuple(int(e).bit_length() - 1 for e in extent)
    return shape, tuple(o >> a for o, a in zip(offset, shape))


def reference_extract_map_tree(lattice):
    """Top-down recursive MAP tree: (structure, dims_padded)."""
    log_kappa = reference_log_kappa(lattice)

    def kappa_at(offset, extent):
        shape, idx = _key(offset, extent)
        return float(log_kappa[shape][idx])

    def build(offset, extent):
        div = _divisible(extent)
        if not div:
            return ("atom", offset, extent)
        shape, idx = _key(offset, extent)
        best_d, best_t, best_kids = -1, -np.inf, None
        for d in div:
            kids = _children(offset, extent, d)
            t = (float(lattice.log_split[(shape, d)][idx])
                 + kappa_at(*kids[0]) + kappa_at(*kids[1]))
            if t > best_t:
                best_d, best_t, best_kids = d, t, kids
        log_prune = float(lattice.log_prune[shape][idx])
        log_not_prune = float(lattice.log_not_prune[shape][idx])
        if log_prune > log_not_prune + best_t:
            return ("prune", offset, extent)
        return ("split", offset, extent, best_d,
                build(*best_kids[0]), build(*best_kids[1]))

    dims = lattice.stats.dims
    return build(tuple(0 for _ in dims), tuple(dims)), dims


def _leaves(structure):
    if structure[0] != "split":
        return [structure]
    return _leaves(structure[4]) + _leaves(structure[5])


def reference_permutation(structure, dims):
    """(order, inverse): leaves left to right, row-major inside each leaf."""
    chunks = []
    for _, offset, extent in _leaves(structure):
        ranges = [np.arange(o, o + e) for o, e in zip(offset, extent)]
        mesh = np.meshgrid(*ranges, indexing="ij")
        chunks.append(np.ravel_multi_index([m.ravel() for m in mesh], dims))
    order = np.concatenate(chunks).astype(np.int64)
    n = int(np.prod(dims))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    return order, inverse


def reference_serialize_tree(structure, dims):
    """Preorder stop bits and axis bits, one BitWriter call per field."""
    writer = BitWriter()
    nbits_axis = (len(dims) - 1).bit_length()

    def walk(node):
        kind = node[0]
        if kind == "atom":
            return
        if kind == "prune":
            writer.write_bit(1)
            return
        writer.write_bit(0)
        if nbits_axis:
            writer.write(node[3], nbits_axis)
        walk(node[4])
        walk(node[5])

    walk(structure)
    return writer.getvalue(), writer.bit_length


# ---------------------------------------------------------------------------
# Reference MS-SSIM (scipy path)
# ---------------------------------------------------------------------------

_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def _reference_window():
    coords = np.arange(11, dtype=np.float64) - 5.0
    k = np.exp(-(coords**2) / (2.0 * 1.5**2))
    k /= k.sum()
    return np.outer(k, k)


def _reference_filter(img, window):
    full = ndimage.correlate(img, window, mode="constant", cval=0.0)
    pad = window.shape[0] // 2
    return full[pad:-pad, pad:-pad]


def _reference_downsample(img):
    h, w = img.shape
    if h % 2 or w % 2:
        img = np.pad(img, ((0, h % 2), (0, w % 2)), mode="edge")
    return img.reshape(img.shape[0] // 2, 2, img.shape[1] // 2, 2).mean(axis=(1, 3))


def reference_ms_ssim(x, y, peak=255.0):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    window = _reference_window()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    min_dim = min(x.shape)
    scales = 1
    while scales < len(_WEIGHTS) and (min_dim >> scales) >= 11:
        scales += 1
    weights = np.asarray(_WEIGHTS[:scales])
    weights = weights / weights.sum()

    score = 1.0
    for s in range(scales):
        mu_x = _reference_filter(x, window)
        mu_y = _reference_filter(y, window)
        var_x = _reference_filter(x * x, window) - mu_x**2
        var_y = _reference_filter(y * y, window) - mu_y**2
        cov = _reference_filter(x * y, window) - mu_x * mu_y
        lum = (2 * mu_x * mu_y + c1) / (mu_x**2 + mu_y**2 + c1)
        cs = (2 * cov + c2) / (var_x + var_y + c2)
        if s < scales - 1:
            score *= max(float(np.mean(cs)), 0.0) ** weights[s]
            x, y = _reference_downsample(x), _reference_downsample(y)
        else:
            score *= max(float(np.mean(lum * cs)), 0.0) ** weights[s]
    return float(score)
