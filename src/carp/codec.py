"""End-to-end pipeline: adaptive permutation, transform, entropy coding.

Encoding runs in five stages.  Block statistics and the posterior are
fitted on the per-pixel channel mean; the extracted tree is shared by all
channels.  Each channel is permuted into tree order; then the pixels of
every leaf where partitioning stopped, one aligned run of that order, are
replaced by the run's mean, which zeroes every detail coefficient inside
the block; the means themselves need no extra syntax because the low
scales of the transform carry them.  The vector is then Haar-transformed,
dead-zone quantized, and Huffman coded scale by scale, coarsest first, so
prefixes of the payload decode to valid coarse reconstructions.

The permutation is a plain int64 index array (``order[i]`` is the
row-major index of the i-th pixel in tree order), and only the encoder
builds it.  Every nonzero coefficient sits at an internal node of the
tree: the node at depth d whose run starts at p owns heap index
2^d + (p >> (J - d)) (``transform.haar_forward``).  So the decoder reads
each channel's payload with one bulk call (``detokenize``), which yields
the heap indices of every decoded coefficient at once, and matches them
to the tree's splits; a nonzero coefficient anywhere else is a corrupt
stream.  It then rebuilds one value per tree node top-down, the root from
the scaling coefficient and each child from its parent's value and
coefficient, with the arithmetic of the inverse Haar transform
(``tree.node_values``); a value that is not finite, from a hostile q or
symbol, is a corrupt stream too.  Then it paints each leaf's value into
the raster planes (``tree.paint_leaves``).  Nothing sized by the pixel
count is allocated but the planes and, for a padded image, their crop.
Before it allocates anything sized by the header, it checks that an upper
bound on all it will allocate (the tree, the split coefficients, the bulk
decoder's per-bit and per-token arrays, the node values, the planes and
their crop, and the painting indices) fits in ``lattice.DEFAULT_MAX_BYTES``.
The encoder checks the same budget against an upper bound from the
dimensions and channel count alone, before it allocates anything sized by
the image.

``target_ratio_search`` builds the block statistics once (unless they
are passed in) and hands them to every ``compress`` attempt, since they do
not depend on sigma.  It encodes the near-lossless floor sigma only when
its bracket walks down to it.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ResourceError, StreamError
from .grid import PixelGrid, _freeze, original_region
from .huffman import (CHUNK_BITS, build_code_lengths, canonical_codes,
                      encode_symbols, histogram)
from .lattice import DEFAULT_MAX_BYTES, StatsLattice, build_stats
from .model import Hyperparams, _batches, build_posterior
from .stream import (PRIOR_FIELDS, ChannelPayload, CompressedStream,
                     detokenize, serialize_tree, tokenize_scale)
# haar_inverse is not called here; it stays imported because the
# benchmark's traced run rebinds it, as it does tree.compute_kappa, until
# carp records its own stage times (ROADMAP item 1)
from .transform import dequantize, haar_forward, haar_inverse, quantize
from .tree import (MapTree, extract_map_tree, node_values, paint_leaves,
                   permutation_from_tree, split_heap_indices, sum_columns)


# Decoding allocations of fixed size: small arrays, Python objects.
_DECODE_SLACK = 64 << 10
# The same for encoding, which also builds the sweep's mixture tables and
# Huffman code tables.
_ENCODE_SLACK = 1 << 20


def default_q(sigma: float) -> float:
    """Quantizer step tied to the noise scale: ignorable detail has
    magnitude sigma, and the 1/2 floor keeps integer images near-lossless
    when sigma is tiny."""
    return max(sigma, 0.5)


def _encode_bytes(dims: tuple[int, ...], channels: int) -> dict[str, int]:
    """Upper bound, in total and per tree phase, on what compress allocates
    for a padded grid, from its dims and channels alone, the grid not counted.

    The block statistics (16 bytes per lattice block) and the int8
    decisions (one byte per block) are held from their construction to
    the end.  Next to them, encoding runs in phases, each holding what the
    earlier ones keep: building the statistics; the posterior sweep, which
    holds log psi and log kappa of two block levels plus the in-flight
    arrays of one batch of shapes (``model._batches``); extracting the
    tree; building the order from it; coding the channels one at a time;
    and serializing the tree.  The tree may reach every pixel, and a
    channel's Huffman bits number at most ceil(log2 tokens) per token, the
    length of a fixed-length code over as many symbols.  Per item, the
    counts below are the arrays each phase allocates, rounded up.
    """
    n = math.prod(dims)
    m = len(dims)
    exps = [int(d).bit_length() - 1 for d in dims]
    shapes = sorted(itertools.product(*(range(e + 1) for e in exps)), key=sum)
    level_blocks = [0] * (sum(exps) + 1)
    for shape in shapes:
        level_blocks[sum(shape)] += n >> sum(shape)
    held = 17 * math.prod(2 ** (e + 1) - 1 for e in exps)
    # the channel mean, the integrality test, one shape's sums and squares
    build = 8 * n * (channels > 1) + 9 * n + 32 * n
    # two levels of log psi and log kappa (the atomic level is one
    # zero-strided array), then per divisible axis a mixture term and its
    # share of the log-sum-exp, and about eight more arrays over the
    # blocks of one batch of shapes, which share their level and axes
    sweep = max((16 * (level_blocks[sum(b[0]) - 1] * (sum(b[0]) > 1)
                       + level_blocks[sum(b[0])])
                 + 8 * (2 * sum(a > 0 for a in b[0]) + 8) * len(b) * (n >> sum(b[0]))
                 for b in _batches(shapes, n)), default=0)
    nodes = 2 * n - 1
    tree = nodes * (16 * m + 9)  # shape, index, pos, axis
    # the tree, its rows once more per level, and under 8 B per node to
    # look up a level's decisions or grow it
    extract = 2 * tree + 8 * nodes
    # the order, the leaf shape groups, and one leaf shape's painted values
    order = 8 * n + 16 * nodes + (8 * m + 24) * n
    tokens = n - 1
    bits = tokens * max(1, (tokens - 1).bit_length())
    channel = (channels * bits // 8    # the coded payloads
               + 8 * n                 # the order
               + max(32 * n,           # the vector, one leaf size's runs, coefficients
                     48 * n + 8 * tokens,  # quantizer and tokenizer arrays
                     # tokens, histogram, Huffman per-token and per-bit arrays
                     96 * tokens + bits))
    serial = 40 * nodes  # size, sort keys or pack_codes: <= 80 B per node with bits
    post = max(extract, tree + max(order, channel, serial))
    return dict(extract=extract, serial=serial,
                total=_ENCODE_SLACK + held + max(build, sweep, post))


def _check_encode_budget(grid: PixelGrid) -> None:
    need = _encode_bytes(tuple(grid.dims_padded), grid.channels)["total"]
    if need > DEFAULT_MAX_BYTES:
        raise ResourceError(
            f"encoding {'x'.join(map(str, grid.dims_padded))} x{grid.channels} would "
            f"take ~{need / 2**20:.0f} MiB, over the "
            f"{DEFAULT_MAX_BYTES / 2**20:.0f} MiB budget"
        )


def _encode_channel(plane: np.ndarray, tree: MapTree, order: np.ndarray,
                    q: float) -> ChannelPayload:
    # a leaf of 2^k pixels is the run from pos, a multiple of 2^k, so the
    # pruned leaves of each size are whole rows of the vector as rows of 2^k;
    # no view of the vector outlives the loop, so that del frees it
    vector = plane.ravel()[order]
    pruned = np.flatnonzero(tree.pruned)
    sizes = sum_columns(tree.shape[pruned])
    for k in sorted(set(sizes.tolist())):
        rows = tree.pos[pruned[sizes == k]] >> k
        means = vector.reshape(-1, 1 << k)[rows].mean(axis=1, keepdims=True)
        vector.reshape(-1, 1 << k)[rows] = means
    coefficients = haar_forward(vector)
    del vector
    scaling_symbol = int(quantize(coefficients[0], q))
    scale_tokens = [tokenize_scale(quantize(coefficients[1 << j : 2 << j], q))
                    for j in range(len(coefficients).bit_length() - 1)]
    del coefficients
    if scale_tokens:
        tokens = np.concatenate(scale_tokens)
        del scale_tokens
        lengths = build_code_lengths(histogram(tokens))
        payload, nbits = encode_symbols(tokens, canonical_codes(lengths))
    else:  # single-pixel image: no detail scales at all
        lengths, payload, nbits = {}, b"", 0
    return ChannelPayload(scaling_symbol=scaling_symbol, code_lengths=lengths,
                          payload=payload, payload_nbits=nbits)


def compress(grid: PixelGrid, hp: Hyperparams, q: float | None = None,
             stats: StatsLattice | None = None) -> CompressedStream:
    """Compress a padded grid into an in-memory stream.

    ``stats`` may pass in the grid's block statistics, which do not depend
    on the hyperparameters, so that repeated encodes of one grid share them.
    Raises ResourceError, before allocating anything sized by the image,
    when the encode budget would not cover the grid.
    """
    if not grid.is_padded:
        raise DimensionError(
            f"compress requires a padded grid; got dims {grid.dims}, "
            f"expected {grid.dims_padded}"
        )
    if q is None:
        q = default_q(hp.sigma)
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"quantizer step must be finite and positive, got {q}")

    _check_encode_budget(grid)
    if stats is None:
        stats = build_stats(grid)
    posterior = build_posterior(grid, hp, stats=stats)
    tree = extract_map_tree(posterior)
    order = permutation_from_tree(tree)
    channels = [_encode_channel(grid.plane(c), tree, order, q)
                for c in range(grid.channels)]
    del order
    tree_bits, tree_nbits = serialize_tree(tree)
    return CompressedStream(
        dims_original=tuple(grid.dims_original),
        dims_padded=tuple(grid.dims),
        bit_depth=grid.bit_depth,
        sigma=hp.sigma,
        q=q,
        prior=tuple(float(getattr(hp, name)) for name in PRIOR_FIELDS),
        tree_bits=tree_bits,
        tree_nbits=tree_nbits,
        channels=channels,
    )


def _decode_channel(ch: ChannelPayload, stream: CompressedStream, split_heap: np.ndarray,
                    prefix_scales: int) -> tuple[np.ndarray, int]:
    """The dequantized coefficient of every split, given the splits' heap
    indices in ascending order, plus payload bits consumed.  Scales from
    prefix_scales on are not read, so their coefficients are zero.  Raises
    StreamError for a nonzero coefficient at any other heap index."""
    if prefix_scales and not ch.code_lengths:
        raise StreamError("stream has detail scales but no code table")
    at, symbols, consumed = detokenize(ch.code_lengths, ch.payload, ch.payload_nbits,
                                       prefix_scales)
    k = np.searchsorted(split_heap, at)
    hit = k < len(split_heap)
    hit[hit] = split_heap[k[hit]] == at[hit]
    stray = ~hit & (symbols != 0)
    if stray.any():
        raise StreamError(f"nonzero coefficient at heap index {at[stray.argmax()]}, "
                          f"which is no internal node of the tree")
    coefficients = np.zeros(len(split_heap))
    coefficients[k[hit]] = dequantize(symbols[hit], stream.q)
    return coefficients, consumed


def _decode_bytes(stream: CompressedStream) -> dict[str, int]:
    """Upper bound, in total and for the parse, on what decompress_with_bits
    allocates, from the header fields alone, to check before allocating.

    Decoding runs in five phases, each holding the tree once it is parsed:
    parsing the tree; decoding every channel's split coefficients; rebuilding
    the node values; painting the leaves into the output planes; then
    cropping the planes to the original dims.  A tree of at most `nodes`
    nodes has at most nodes // 2 splits and one leaf more, and only the
    node values are counted for every node of every channel.  Per item, the
    counts below are the arrays each phase allocates, rounded up.
    """
    n = math.prod(int(d) for d in stream.dims_padded)
    m = len(stream.dims_padded)
    channels = len(stream.channels)
    # every parsed node but the implicit atomic ones takes a tree bit
    nodes = min(2 * n - 1, 3 * stream.tree_nbits + 1)
    splits = nodes // 2
    leaves = splits + 1
    bits = max((ch.payload_nbits for ch in stream.channels), default=0)
    tokens = min(bits, n)
    tree = nodes * (16 * m + 9)  # shape, index, pos, axis
    # bits, walk records, depths and axes; per node its rows per level and
    # concatenated, or its axis position and sort index, or grower arrays
    parse = 4 * stream.tree_nbits + nodes * (32 * m + 24)
    coefficients = 8 * channels * splits
    values = 8 * channels * nodes
    planes = 8 * n * channels
    # the split rows, shapes, positions and sizes behind the heap indices;
    # then next to these, one channel's codeword length per payload bit, a
    # chunk of windows, the bulk decoder's per-token arrays and their match
    heap = max(8 * (m + 3) * splits,
               8 * splits + bits + 64 * min(bits, CHUNK_BITS) + 112 * tokens)
    # the splits of one level, or the pruned leaves, are disjoint blocks of
    # two pixels or more: at most n // 2 of them
    wide = n // 2
    # pruned-leaf rows and sizes and the split rows, next to the node sizes
    # and split depths, or one level's values and children, or the pruned
    # leaves' values and masks
    walk = 16 * leaves + 8 * splits + max(9 * nodes + 16 * splits,
                                          24 * channels * min(splits, wide),
                                          (8 * channels + 17) * min(leaves, wide))
    # per leaf its rows, shape columns, shape id and sort, grid index and
    # painted values
    paint = leaves * (16 * m + 8 * channels + 24)
    crop = 8 * channels * math.prod(stream.dims_original) * (
        tuple(stream.dims_original) != tuple(stream.dims_padded))
    return dict(parse=parse, total=_DECODE_SLACK + max(
        parse,
        tree + coefficients + max(heap, values + walk),
        tree + planes + max(values + paint, crop)))


def decompress(stream: CompressedStream | bytes, prefix_scales: int | None = None
               ) -> PixelGrid:
    """Reconstruct the image; with prefix_scales only scales below it are
    read and the missing detail coefficients are treated as zero."""
    grid, _ = decompress_with_bits(stream, prefix_scales)
    return grid


def decompress_with_bits(stream: CompressedStream | bytes,
                         prefix_scales: int | None = None
                         ) -> tuple[PixelGrid, int]:
    """As decompress, also reporting total stream bits consumed, counting
    the header, tree, and tables in full plus the payload bits read."""
    if isinstance(stream, (bytes, bytearray)):
        stream = CompressedStream.from_bytes(bytes(stream))
    n_scales = stream.n_scales
    if prefix_scales is None:
        prefix_scales = n_scales
    if not 0 <= prefix_scales <= n_scales:
        raise ValueError(
            f"prefix_scales must be in [0, {n_scales}], got {prefix_scales}"
        )

    dims_padded = tuple(int(d) for d in stream.dims_padded)
    n_channels = len(stream.channels)
    need = _decode_bytes(stream)["total"]
    if need > DEFAULT_MAX_BYTES:
        raise ResourceError(
            f"decoding {'x'.join(map(str, dims_padded))} x{n_channels} would "
            f"take ~{need / 2**20:.0f} MiB, over the "
            f"{DEFAULT_MAX_BYTES / 2**20:.0f} MiB budget"
        )

    tree = stream.decode_tree()
    split_heap = split_heap_indices(tree)
    coefficients = np.empty((n_channels, len(split_heap)))
    consumed = 0
    # a hostile q or symbol may overflow; the values are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for c, ch in enumerate(stream.channels):
            coefficients[c], bits = _decode_channel(ch, stream, split_heap, prefix_scales)
            consumed += bits
        del split_heap
        root = np.array([dequantize(ch.scaling_symbol, stream.q) for ch in stream.channels])
        values = node_values(tree, root, coefficients)
    del coefficients
    if not np.isfinite(values).all():
        raise StreamError(f"quantizer step q={stream.q} and the coded coefficients "
                          f"give non-finite pixel values")
    planes = np.empty((n_channels,) + dims_padded)
    paint_leaves(tree, values, planes)
    del values
    payload_bits_total = sum(ch.payload_nbits for ch in stream.channels)
    bits_used = 8 * stream.size_bytes - payload_bits_total + consumed
    np.clip(planes, 0.0, float(2**stream.bit_depth - 1), out=planes)
    padded = PixelGrid(values=_freeze(planes),
                       dims_original=tuple(int(d) for d in stream.dims_original),
                       bit_depth=stream.bit_depth)
    return original_region(padded), bits_used


# ---------------------------------------------------------------------------
# Rate targeting
# ---------------------------------------------------------------------------

# The lowest sigma the ratio search tries, and the lower end of its bracket.
SIGMA_FLOOR = 1e-3
# The most compress calls one ratio search makes.
SEARCH_ATTEMPTS = 30


@dataclass
class RatioSearchResult:
    sigma: float
    stream: CompressedStream
    ratio: float
    converged: bool
    # (sigma, ratio, encode_ms) per compress call, in the order encoded
    attempts: tuple[tuple[float, float, float], ...] = ()


def target_ratio_search(grid: PixelGrid, hp_base: Hyperparams,
                        target_ratio: float, tol: float = 0.1,
                        stats: StatsLattice | None = None) -> RatioSearchResult:
    """Search sigma (with tau0 = 1/sigma and q tied to sigma) until the
    achieved ratio lands in target * (1 +- tol).

    The ratio grows monotonically with sigma, so a geometric bracket plus
    bisection in log sigma converges quickly.  The search encodes sigma = 1
    first and steps up by x4 until the ratio reaches the target; the
    bracket's lower end starts at ``SIGMA_FLOOR`` (0.001) and midpoints
    bisect log sigma between its ends.  The floor itself is encoded only
    when the bracket walks down to it: when sigma = 1 and the first
    midpoint (about 0.0316) both reach the target outside the band.  Then a
    floor ratio already over the band returns the floor stream with a
    warning and converged=False (constant images, say), and one in the
    band returns it converged.  If the budget of ``SEARCH_ATTEMPTS``
    compress calls runs out, the closest attempt so far is returned with
    converged=False; on ties the floor, then the earliest attempt, wins.

    Three cases differ from encoding the floor first.  An image whose floor
    ratio is already in the band returns the first in-band attempt rather
    than the floor stream.  A non-monotone image whose floor ratio
    overshoots while sigma = 1 (or the first midpoint) undershoots is
    searched upward rather than returned at the floor.  A x4 step in the
    band below the target is returned at once rather than stepped past.

    ``stats`` may pass in the grid's block statistics, as for compress;
    otherwise they are built once and shared by every attempt.  The result
    lists every attempt as ``(sigma, ratio, encode_ms)`` in ``attempts``.
    """
    if target_ratio <= 1.0:
        raise ValueError(f"target ratio must exceed 1, got {target_ratio}")

    _check_encode_budget(grid)
    if stats is None:
        stats = build_stats(grid)
    trace: list[tuple[float, float, float]] = []

    def attempt(sigma: float) -> RatioSearchResult:
        hp = replace(hp_base, sigma=sigma, tau0=1.0 / sigma)
        t0 = time.perf_counter()
        stream = compress(grid, hp, q=None, stats=stats)
        ratio = stream.compression_ratio
        trace.append((sigma, ratio, 1000.0 * (time.perf_counter() - t0)))
        return RatioSearchResult(sigma=sigma, stream=stream, ratio=ratio,
                                 converged=False)

    def in_band(result: RatioSearchResult) -> bool:
        return abs(result.ratio - target_ratio) <= tol * target_ratio

    def finish(result: RatioSearchResult, converged: bool) -> RatioSearchResult:
        return replace(result, converged=converged, attempts=tuple(trace))

    def closest() -> RatioSearchResult:
        return min(hits, key=lambda r: abs(math.log(r.ratio / target_ratio)))

    lo, hi = SIGMA_FLOOR, None
    hits: list[RatioSearchResult] = []
    floor_encoded = False
    sigma = 1.0
    while len(trace) < SEARCH_ATTEMPTS:
        result = attempt(sigma)
        if in_band(result):
            return finish(result, True)
        hits.append(result)
        if result.ratio >= target_ratio:
            hi = sigma
            break
        lo = sigma
        sigma *= 4.0
    while hi is not None and len(trace) < SEARCH_ATTEMPTS:
        best = closest()
        if in_band(best):
            return finish(best, True)
        # lo never moved, so every attempt overshot: sigma = 1 and the
        # first midpoint both reached the target outside the band
        if lo == SIGMA_FLOOR and len(hits) >= 2 and not floor_encoded:
            floor = attempt(SIGMA_FLOOR)
            floor_encoded = True
            if floor.ratio > target_ratio * (1 + tol):
                warnings.warn(
                    f"minimum-sigma ratio {floor.ratio:.2f} already exceeds target "
                    f"{target_ratio}; returning minimal-sigma stream", stacklevel=2
                )
                return finish(floor, False)
            if in_band(floor):
                return finish(floor, True)
            hits.insert(0, floor)
            continue
        mid = math.sqrt(lo * hi)
        result = attempt(mid)
        hits.append(result)
        if result.ratio >= target_ratio:
            hi = mid
        else:
            lo = mid

    best = closest()
    if in_band(best):
        return finish(best, True)
    warnings.warn(
        f"ratio search stopped after {len(trace)} evaluations at ratio "
        f"{best.ratio:.2f} (target {target_ratio})", stacklevel=2
    )
    return finish(best, False)
