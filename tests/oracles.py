"""Independent oracles used by the test suite.

Everything here is deliberately written against the model definitions
directly, not against the package's recursion paths:

* ``compiled_structures`` materializes every pruned partition tree of a
  small block explicitly; priors and likelihoods are then summed tree by
  tree, giving a brute-force marginal likelihood and posterior argmax.
* ``reference_posterior`` is the direct posterior sweep: the mixture at
  every block and axis, and each log-sum-exp over stacked terms.  It keeps
  the posterior tables (stop, not-stop and split probabilities) that the
  package computes in flight and drops; ``reference_log_kappa`` runs the
  kappa step over them as a separate pass, and ``map_tree_log_posterior``
  scores a tree with them.  The package's marginal likelihood, root log
  kappa and int8 decisions must match them bit for bit.
* ``reference_extract_map_tree`` and ``reference_permutation`` are a
  recursive tree path over the same structure tuples, reading the
  reference tables one block at a time, and ``reference_serialize_tree``
  writes their tree bits breadth first, one bit at a time; the
  differential tests require them and the package's array-native tree to
  agree exactly.
* ``ReferenceBitWriter``, ``reference_encode_symbols``,
  ``ReferenceBitReader``, ``ReferenceCanonicalDecoder``,
  ``reference_detokenize``, ``reference_deserialize_tree`` and
  ``reference_tokenize_scale`` are the bit-by-bit and symbol-by-symbol
  stream paths; the differential tests require the package's bulk
  encoder, decoders and vectorized tokenizer to agree with them exactly,
  errors included.
* ``reference_haar_forward`` is the Haar analysis with a new array per
  scale, concatenated into heap order at the end; the package's transform,
  which writes every scale into one vector, must match it bit for bit.
* ``reference_decompress`` is the decoder that drops each channel's
  coefficients into a dense heap-ordered vector, runs ``haar_inverse`` over
  all of it and scatters the result through ``permutation_from_tree``; the
  package's decoder, which computes one value per tree node and paints the
  leaves, must match it bit for bit.
* ``reference_substitute_pruned_means`` replaces each pruned leaf's block
  of a raster plane by its mean, one slice at a time; the encoder's
  tree-order vector must equal it gathered into tree order.
* ``reference_ms_ssim`` is a second MS-SSIM implementation built on
  scipy.ndimage filtering rather than the package's separable windows.
* ``reference_target_ratio_search`` is the ratio search that encodes the
  sigma = 0.001 floor first; the differential tests require the package's
  search, which encodes the floor only when its bracket walks down to it,
  to choose the same sigma and stream.
* ``haar_array``, ``root_shape`` and ``kraft_sum`` read quantities the
  package never needs: the Haar coefficient of every block of a shape, the
  root's shape, and a code's Kraft sum in floating point.
"""

import itertools
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy import ndimage

from carp.codec import RatioSearchResult, _check_encode_budget, compress
from carp.errors import NumericError, StreamError
from carp.grid import PixelGrid, original_region
from carp.lattice import _child, _halves, build_stats
from carp.stream import CompressedStream, ZERO_RUN_MAX, detokenize
from carp.transform import dequantize, haar_inverse
from carp.tree import MapTree, permutation_from_tree

def child_sum_arrays(stats, shape, d):
    """Left/right child sums of every block of this shape, split on d."""
    cs = stats.sums[_child(shape, d)]
    left, right = _halves(stats.m, d)
    return cs[left], cs[right]


def haar_array(stats, shape, d):
    """w_d(A) for every block A of this shape at once, from the lattice's
    child sums, rounded as the package's lattice build rounds it."""
    sum_l, sum_r = child_sum_arrays(stats, shape, d)
    return (sum_l - sum_r) / math.sqrt(float(2 ** sum(shape)))


def root_shape(stats):
    """The shape of the lattice's one root block."""
    return tuple(stats.axis_exps)


def kraft_sum(lengths):
    return sum(2.0 ** (-l) for l in lengths.values())


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


def shape_index(tree):
    """(shape, index), each (nodes, m) int64, of a MapTree's rows: per axis
    the extent exponent and grid index of the node's block, from its cell
    with Python's int.bit_length.  Cell c of an axis of n samples lies in
    [2^d, 2^(d+1)) for d = c.bit_length() - 1, has extent n >> d and grid
    index c - 2^d."""
    m = len(tree.dims_padded)
    shape, index = [], []
    for row in tree.cell.tolist():
        depth = [c.bit_length() - 1 for c in row]
        shape += [int(n).bit_length() - 1 - d for n, d in zip(tree.dims_padded, depth)]
        index += [c - (1 << d) for c, d in zip(row, depth)]
    return (np.array(shape, dtype=np.int64).reshape(-1, m),
            np.array(index, dtype=np.int64).reshape(-1, m))


def preorder_rows(tree):
    """The MapTree with its rows in preorder (a node, then its left
    subtree, then its right one): by the position of a node's first pixel
    in tree order, and at equal position the larger block first.  Node h
    of 2^s pixels starts at (h << s) - 2^J."""
    size = shape_index(tree)[0].sum(axis=1)
    rows = np.lexsort((-size, tree.heap << size))
    return MapTree(dims_padded=tree.dims_padded, cell=tree.cell[rows],
                   heap=tree.heap[rows], axis=tree.axis[rows])


def tree_to_structure(tree):
    """Convert a package MapTree's arrays, in any row order, into the
    tuple form."""
    tree = preorder_rows(tree)
    shape, index = shape_index(tree)
    rows = zip(shape.tolist(), index.tolist(), tree.axis.tolist())

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
# Reference posterior sweep: one mixture evaluation per (block, axis)
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def _sweep_log_normal(w, var):
    """The package's normal log density, rounded the same way."""
    return -0.5 * (_LOG_2PI + math.log(var) + (w * w) / var)


def reference_posterior(stats, hp):
    """(log_prune, log_not_prune, log_split, log_marginal) by the direct
    sweep: the mixture evaluated at every block and axis, and each
    log-sum-exp taken over stacked terms.  The package's sweep must match
    it bit for bit, and raise the same NumericError on the same input.  A
    lattice of the sum of C channels is swept at C sigma, and its log
    marginal gets (N - 1) log C back, for N pixels."""
    log_psi, log_prune, log_not_prune, log_split = {}, {}, {}, {}
    sigma = hp.sigma * stats.channels
    sigma2 = sigma * sigma
    log_const = _LOG_2PI + math.log(sigma2)
    log_eta0 = math.log(hp.eta0) if hp.eta0 > 0 else -math.inf
    log_1m_eta0 = math.log1p(-hp.eta0) if hp.eta0 < 1 else -math.inf

    for shape in stats.shapes:
        size = 2 ** sum(shape)
        div = [i for i, a in enumerate(shape) if a > 0]
        if not div:
            zero = np.zeros(stats.grid_shape(shape))
            log_psi[shape] = zero
            log_prune[shape] = np.full_like(zero, -np.inf)
            log_not_prune[shape] = zero
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
            w = haar_array(stats, shape, d)
            with np.errstate(invalid="ignore"):  # NaN inputs caught below
                mix = np.logaddexp(log_rho + _sweep_log_normal(w, var_wide),
                                   log_1m_rho + _sweep_log_normal(w, sigma2))
            cp = log_psi[_child(shape, d)]
            left, right = _halves(stats.m, d)
            lpd = mix + cp[left] + cp[right]
            d_terms.append(lpd)
            terms.append(log_1m_eta0 + log_lambda + lpd)

        stacked = np.stack(terms)
        peak = np.max(stacked, axis=0)
        lpsi = peak + np.log(np.sum(np.exp(stacked - peak), axis=0))
        if np.isnan(lpsi).any():
            idx = tuple(int(v) for v in np.argwhere(np.isnan(lpsi))[0])
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
            log_split[(shape, d)] = lpd - lse_d
        log_prune[shape] = np.minimum(log_eta0 + lpsi0 - lpsi, 0.0)
        log_not_prune[shape] = np.minimum(
            log_1m_eta0 + log_lambda + lse_d - lpsi, 0.0
        )
    root = tuple(stats.axis_exps)
    log_marginal = float(log_psi[root].reshape(-1)[0])
    if stats.channels > 1:
        log_marginal += (math.prod(stats.dims) - 1) * math.log(stats.channels)
    return log_prune, log_not_prune, log_split, log_marginal


# ---------------------------------------------------------------------------
# Reference tree path: structure tuples built by recursion
# ---------------------------------------------------------------------------
# Ties follow the same fixed rules as the package: the lowest axis wins
# among equal split scores, and a block splits when stopping and splitting
# score equally.


def reference_log_kappa(stats, tables):
    """(log kappa, decisions) per shape, bottom-up, from the posterior
    tables of ``reference_posterior``.  The split axis is the first
    maximum of the stacked scores, and a block stops only where stopping
    scores strictly higher."""
    log_prune, log_not_prune, log_split, _ = tables
    log_kappa, decisions = {}, {}
    for shape in stats.shapes:
        div = [i for i, a in enumerate(shape) if a > 0]
        if not div:
            log_kappa[shape] = np.zeros(stats.grid_shape(shape))
            continue
        scores = []
        for d in div:
            child = tuple(a - 1 if i == d else a for i, a in enumerate(shape))
            kc = log_kappa[child]
            left = tuple(slice(None) if i != d else slice(0, None, 2)
                         for i in range(stats.m))
            right = tuple(slice(None) if i != d else slice(1, None, 2)
                          for i in range(stats.m))
            scores.append(log_split[(shape, d)] + kc[left] + kc[right])
        scores = np.stack(scores)
        split = log_not_prune[shape] + scores.max(axis=0)
        stop = log_prune[shape] > split
        decisions[shape] = np.where(stop, -1, np.array(div)[scores.argmax(axis=0)]
                                    ).astype(np.int8)
        log_kappa[shape] = np.maximum(log_prune[shape], split)
    return log_kappa, decisions


def map_tree_log_posterior(tree, tables):
    """Posterior log-probability of a tree under the posterior tables of
    ``reference_posterior``.

    Product over nodes of the stop probability at pruned leaves and
    (1 - stop) * split probability at internal nodes; atomic leaves are
    free.  For the extracted MAP tree this equals log kappa of the root.
    """
    log_prune, log_not_prune, log_split, _ = tables
    total = 0.0
    shapes, indices = shape_index(tree)
    for shape, index, axis in zip(shapes.tolist(), indices.tolist(), tree.axis.tolist()):
        if not any(shape):
            continue
        shape, index = tuple(shape), tuple(index)
        if axis < 0:
            total += float(log_prune[shape][index])
        else:
            total += float(log_not_prune[shape][index])
            total += float(log_split[(shape, axis)][index])
    return total


def _key(offset, extent):
    """(shape, grid index) of a block: the posterior arrays' address."""
    shape = tuple(int(e).bit_length() - 1 for e in extent)
    return shape, tuple(o >> a for o, a in zip(offset, shape))


def reference_extract_map_tree(stats, hp):
    """Top-down recursive MAP tree: (structure, dims_padded)."""
    tables = reference_posterior(stats, hp)
    log_prune, log_not_prune, log_split, _ = tables
    log_kappa, _ = reference_log_kappa(stats, tables)

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
            t = (float(log_split[(shape, d)][idx])
                 + kappa_at(*kids[0]) + kappa_at(*kids[1]))
            if t > best_t:
                best_d, best_t, best_kids = d, t, kids
        if float(log_prune[shape][idx]) > float(log_not_prune[shape][idx]) + best_t:
            return ("prune", offset, extent)
        return ("split", offset, extent, best_d,
                build(*best_kids[0]), build(*best_kids[1]))

    dims = stats.dims
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
    """Level-order tree bits, breadth first, one writer call per bit: per
    level, a stop bit for each non-atomic node in position order, then
    the axis bits of each split."""
    writer = ReferenceBitWriter()
    nbits_axis = (len(dims) - 1).bit_length()
    level = [structure]
    while level:
        nodes = [node for node in level if node[0] != "atom"]
        for node in nodes:
            writer.write_bit(node[0] == "prune")
        splits = [node for node in nodes if node[0] == "split"]
        for node in splits:
            for k in reversed(range(nbits_axis)):
                writer.write_bit(node[3] >> k)
        level = [child for node in splits for child in node[4:]]
    return writer.getvalue(), writer.bit_length


# ---------------------------------------------------------------------------
# Reference stream paths: one bit, one symbol, one node at a time
# ---------------------------------------------------------------------------


class ReferenceBitWriter:
    """Packs one field at a time, MSB-first."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0
        self._total = 0

    def write(self, value, nbits):
        if nbits < 0 or value < 0 or nbits < value.bit_length():
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        self._total += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_bit(self, bit):
        self.write(bit & 1, 1)

    @property
    def bit_length(self):
        return self._total

    def getvalue(self):
        """Packed bytes; the final partial byte is zero-padded on the right."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


def reference_encode_symbols(symbols, codes):
    """(payload, nbits) with one writer call per symbol."""
    writer = ReferenceBitWriter()
    for sym in symbols:
        try:
            code, length = codes[sym]
        except KeyError:
            raise ValueError(f"symbol {sym} missing from Huffman table") from None
        writer.write(code, length)
    return writer.getvalue(), writer.bit_length


class ReferenceBitReader:
    def __init__(self, data, nbits=None):
        self._data = data
        self._limit = 8 * len(data) if nbits is None else nbits
        if self._limit > 8 * len(data):
            raise StreamError(f"bit length {self._limit} exceeds buffer size")
        self._pos = 0

    @property
    def pos(self):
        return self._pos

    def read(self, nbits):
        if self._pos + nbits > self._limit:
            raise StreamError("bitstream exhausted")
        value = 0
        for _ in range(nbits):
            pos = self._pos
            value = (value << 1) | ((self._data[pos >> 3] >> (7 - (pos & 7))) & 1)
            self._pos += 1
        return value


class ReferenceCanonicalDecoder:
    """Decodes one symbol at a time, widening the code one length at a time."""

    def __init__(self, lengths):
        if not lengths:
            raise StreamError("empty Huffman table")
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
        self._symbols = [sym for sym, _ in ordered]
        # per distinct length: (length, first code, first symbol index, count)
        self._rows = []
        code = prev_len = 0
        for index, (_, length) in enumerate(ordered):
            code <<= length - prev_len
            if self._rows and self._rows[-1][0] == length:
                self._rows[-1][3] += 1
            else:
                self._rows.append([length, code, index, 1])
            code += 1
            prev_len = length

    def decode_one(self, reader):
        code = prev_len = 0
        for length, first, start, count in self._rows:
            code = (code << (length - prev_len)) | reader.read(length - prev_len)
            prev_len = length
            if first <= code < first + count:
                return self._symbols[start + (code - first)]
        raise StreamError("invalid Huffman codeword")


def reference_haar_forward(v):
    """Heap-ordered Haar coefficients: the scaling coefficient, then the
    details scale by scale, coarsest first."""
    approx = np.asarray(v, dtype=np.float64)
    details = []
    while approx.size > 1:
        a, b = approx[0::2], approx[1::2]
        details.append((a - b) / math.sqrt(2.0))
        approx = (a + b) / math.sqrt(2.0)
    return np.concatenate([approx] + details[::-1])


def reference_tokenize_scale(symbols):
    tokens = []
    run = 0
    for v in symbols.tolist():
        if v == 0:
            run += 1
            if run == ZERO_RUN_MAX:
                tokens.append(2 * run - 1)
                run = 0
        else:
            if run:
                tokens.append(2 * run - 1)
                run = 0
            tokens.append(2 * v)
    if run:
        tokens.append(2 * run - 1)
    return tokens


def reference_detokenize(lengths, payload, nbits, n_scales):
    """(the first n_scales scales' symbols, scale by scale, bits read)."""
    reader = ReferenceBitReader(payload, nbits)
    decoder = ReferenceCanonicalDecoder(lengths) if n_scales else None
    out = []
    for j in range(n_scales):
        scale = [0] * (1 << j)
        filled = 0
        while filled < len(scale):
            token = decoder.decode_one(reader)
            if token & 1:
                if token < 1:
                    raise StreamError(f"zero run token {token} has no positive length")
                run = (token + 1) >> 1
                if filled + run > len(scale):
                    raise StreamError("zero run crosses a scale boundary")
                filled += run
            else:
                scale[filled] = token >> 1
                filled += 1
        out += scale
    return np.array(out, dtype=np.int64), reader.pos


def reference_deserialize_tree(data, nbits, dims_padded):
    """Level-order tree bits -> MapTree, breadth first and one bit at a
    time, over one level of (shape, index, heap) tuples at a time: all the
    level's stop bits, then each split's axis bits, checked as read."""
    if nbits > 8 * len(data):
        raise StreamError(f"tree bit length {nbits} exceeds {len(data)} bytes")
    m = len(dims_padded)
    exps = tuple(int(d).bit_length() - 1 for d in dims_padded)
    if sum(exps) > 62 or m > 127 or max(dims_padded, default=1) > 2**31:
        raise StreamError(f"padded dims {tuple(dims_padded)} exceed 2^62 samples, "
                          f"2^31 a side or 127 axes")
    nbits_axis = (m - 1).bit_length()
    reader = ReferenceBitReader(data, nbits)

    def bit():
        if reader.pos >= nbits:
            raise StreamError("tree bits end mid-tree")
        return reader.read(1)

    cells, heaps, axes = [], [], []
    level = [(exps, (0,) * m, 1)]
    size_exp = sum(exps)
    while level:
        level_axes = [-1] * len(level)
        if size_exp:  # atomic nodes carry no bits
            stops = [bit() for _ in level]
            for k, (shape, _, _) in enumerate(level):
                if stops[k]:
                    continue
                axis = 0
                for _ in range(nbits_axis):
                    axis = 2 * axis + bit()
                if axis >= m or not shape[axis]:
                    raise StreamError(
                        f"tree names split axis {axis} on extent "
                        f"{tuple(1 << a for a in shape)}"
                    )
                level_axes[k] = axis
        children = []
        for (shape, index, heap), axis in zip(level, level_axes):
            cells += [(int(n) >> a) + i for n, a, i in zip(dims_padded, shape, index)]
            heaps.append(heap)
            axes.append(axis)
            if axis < 0:
                continue
            child = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1 :]
            left = index[:axis] + (2 * index[axis],) + index[axis + 1 :]
            right = index[:axis] + (2 * index[axis] + 1,) + index[axis + 1 :]
            children += [(child, left, 2 * heap), (child, right, 2 * heap + 1)]
        level = children
        size_exp -= 1
    if reader.pos != nbits:
        raise StreamError(f"{nbits - reader.pos} unread bits after tree")
    return MapTree(dims_padded=tuple(int(d) for d in dims_padded),
                   cell=np.array(cells, dtype=np.int64).reshape(-1, m),
                   heap=np.array(heaps, dtype=np.int64),
                   axis=np.array(axes, dtype=np.int8))


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


# ---------------------------------------------------------------------------
# Dense decoder
# ---------------------------------------------------------------------------

def reference_decompress(stream, prefix_scales=None):
    """Decode through a dense coefficient vector per channel, haar_inverse
    and a scatter through the tree's pixel order."""
    if isinstance(stream, bytes):
        stream = CompressedStream.from_bytes(stream)
    if prefix_scales is None:
        prefix_scales = stream.n_scales
    dims = tuple(int(d) for d in stream.dims_padded)
    order = permutation_from_tree(stream.decode_tree())
    values = np.empty((len(stream.channels), order.size))
    for c, ch in enumerate(stream.channels):
        if prefix_scales and not ch.code_lengths:
            raise StreamError("stream has detail scales but no code table")
        at, symbols, _ = detokenize(ch.code_lengths, ch.payload, ch.payload_nbits,
                                    prefix_scales)
        coefficients = np.zeros(order.size)
        coefficients[0] = dequantize(ch.scaling_symbol, stream.q)
        coefficients[at] = dequantize(symbols, stream.q)
        values[c, order] = haar_inverse(coefficients)
    np.clip(values, 0.0, float(2**stream.bit_depth - 1), out=values)
    return original_region(PixelGrid(values=values.reshape((-1,) + dims),
                                     dims_original=tuple(stream.dims_original),
                                     bit_depth=stream.bit_depth))


# ---------------------------------------------------------------------------
# Pruned-mean substitution on the raster plane
# ---------------------------------------------------------------------------

def reference_substitute_pruned_means(plane, tree):
    """A copy of the plane with each pruned leaf's block set to its mean."""
    out = plane.copy()
    shape, index = shape_index(tree)
    for k in np.flatnonzero((tree.axis < 0) & shape.any(axis=1)).tolist():
        extent = 1 << shape[k]
        sl = tuple(slice(o, o + e) for o, e in zip(index[k] * extent, extent))
        out[sl] = out[sl].mean()
    return out


# ---------------------------------------------------------------------------
# Ratio search that encodes the floor first
# ---------------------------------------------------------------------------

def reference_target_ratio_search(grid, hp_base, target_ratio, tol=0.1, max_iter=30):
    """Encode sigma = 0.001 first, return it if its ratio is already at or
    over the band, else bracket from sigma = 1 by x4 steps and bisect log
    sigma between 0.001 and the first sigma that reaches the target."""
    if target_ratio <= 1.0:
        raise ValueError(f"target ratio must exceed 1, got {target_ratio}")

    evals = 0
    _check_encode_budget(grid.dims_padded, grid.channels)
    stats = build_stats(grid)

    def attempt(sigma):
        nonlocal evals
        evals += 1
        hp = replace(hp_base, sigma=sigma, tau0=1.0 / sigma)
        stream = compress(grid, hp, q=None, stats=stats)
        return RatioSearchResult(sigma=sigma, stream=stream,
                                 ratio=stream.compression_ratio, converged=False)

    lo, hi = 1e-3, None
    best = attempt(lo)
    hits = [best]
    if best.ratio > target_ratio * (1 + tol):
        warnings.warn(
            f"minimum-sigma ratio {best.ratio:.2f} already exceeds target "
            f"{target_ratio}; returning minimal-sigma stream", stacklevel=2
        )
        return best
    if abs(best.ratio - target_ratio) <= tol * target_ratio:
        best.converged = True
        return best

    sigma = 1.0
    while evals < max_iter:
        result = attempt(sigma)
        hits.append(result)
        if result.ratio >= target_ratio:
            hi = sigma
            break
        lo = sigma
        sigma *= 4.0
    while hi is not None and evals < max_iter:
        closest = min(hits, key=lambda r: abs(math.log(r.ratio / target_ratio)))
        if abs(closest.ratio - target_ratio) <= tol * target_ratio:
            closest.converged = True
            return closest
        mid = math.sqrt(lo * hi)
        result = attempt(mid)
        hits.append(result)
        if result.ratio >= target_ratio:
            hi = mid
        else:
            lo = mid

    closest = min(hits, key=lambda r: abs(math.log(r.ratio / target_ratio)))
    if abs(closest.ratio - target_ratio) <= tol * target_ratio:
        closest.converged = True
        return closest
    warnings.warn(
        f"ratio search stopped after {evals} evaluations at ratio "
        f"{closest.ratio:.2f} (target {target_ratio})", stacklevel=2
    )
    return closest
