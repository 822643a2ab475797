"""End-to-end pipeline: adaptive permutation, transform, entropy coding.

Encoding runs in five stages.  Block statistics and the posterior are
fitted on the per-pixel channel sum at C times sigma for C channels; the
extracted tree is shared by all channels.  Unless the caller hands in
stored statistics, ``compress`` builds them a level at a time as the
posterior sweep reaches each level (``lattice.LevelStream``), so it holds
two levels of the lattice, not all of it, and it drops the posterior's
decisions once the tree is extracted.  Each channel is permuted into tree
order; then the pixels of every leaf where partitioning stopped, one
aligned run of that order, are replaced by the run's mean, which zeroes
every detail coefficient inside the block; the means themselves need no
extra syntax because the low scales of the transform carry them.  The
vector is then Haar-transformed, dead-zone quantized, and Huffman coded
scale by scale, coarsest first, so prefixes of the payload decode to valid
coarse reconstructions.

The permutation is a plain int64 index array (``order[i]`` is the
row-major index of the i-th pixel in tree order), and only the encoder
builds it.  Every nonzero coefficient sits at an internal node of the
tree, at the node's heap index ``MapTree.heap``.  So the decoder reads
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
the image, and against the decode bound of the largest stream it could
write, so that it writes no stream the decoder refuses.

``target_ratio_search`` builds the block statistics once (unless they
are passed in) and hands them to every ``compress`` attempt, since they do
not depend on sigma.  It takes each next sigma from a line in (log sigma,
log ratio): a slope-1 step from sigma = 1, then secant steps, as regula
falsi with the Illinois rule once both ends of its bracket are encoded.
Near the target the ratio grows with a log-log slope close to 1, so most
searches take two encodes.  It encodes the near-lossless floor sigma only
when a step reaches it.
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
from .lattice import DEFAULT_MAX_BYTES, LevelStream, StatsLattice, build_stats
from .model import Hyperparams, _batches, build_posterior
from .stream import (PRIOR_FIELDS, ChannelPayload, CompressedStream, axis_bit_width,
                     detokenize, serialize_tree, tokenize_scale)
# haar_inverse is not called here; it stays imported because the
# benchmark's traced run rebinds it, as it does tree.compute_kappa, until
# carp records its own stage times (ROADMAP item 1)
from .transform import dequantize, haar_forward, haar_inverse, quantize
from .tree import (MapTree, extract_map_tree, node_values, paint_leaves,
                   permutation_from_tree)


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

    The block statistics are counted at 16 bytes per lattice block and the
    int8 decisions at 2^m bytes per pixel, held from their construction to
    the end.  That covers a lattice the caller built and holds, as the
    ratio search and the hyperparameter fit do, and bounds from above the
    encode that streams its statistics, which holds two levels of them and
    drops the decisions after extraction.  Next to them, encoding runs in
    phases, each holding what the earlier ones keep: building the
    statistics; the posterior sweep, which holds log psi and log kappa of
    two block levels plus the in-flight arrays of one batch of shapes
    (``model._batches``); extracting the tree; building the order from
    it; coding the channels one at a time; and serializing the tree.  The
    tree may reach every pixel, and a channel's Huffman bits number at
    most ceil(log2 tokens) per token, the length of a fixed-length code
    over as many symbols.  Per item, the counts below are the arrays each
    phase allocates, rounded up.
    """
    n = math.prod(dims)
    m = len(dims)
    exps = [int(d).bit_length() - 1 for d in dims]
    shapes = sorted(itertools.product(*(range(e + 1) for e in exps)), key=sum)
    level_blocks = [0] * (sum(exps) + 1)
    for shape in shapes:
        level_blocks[sum(shape)] += n >> sum(shape)
    held = 16 * math.prod(2 ** (e + 1) - 1 for e in exps) + 2**m * n
    # the channel sum, the integrality test, one shape's sums and squares
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
    tree = nodes * (8 * m + 9)  # cell, heap, axis
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
    serial = 40 * nodes  # the order check, split rows, axis words and bits
    post = max(extract, tree + max(order, channel, serial))
    return dict(extract=extract, serial=serial,
                total=_ENCODE_SLACK + held + max(build, sweep, post))


def _check_encode_budget(dims: tuple[int, ...], channels: int) -> None:
    """Refuse a padded grid of these dims and channels when encoding it, or
    decoding the largest stream its encode can write, would go over the
    budget.  That stream has a full tree and every payload at the
    encoder's bound of ceil(log2 tokens) bits per token."""
    tokens = math.prod(dims) - 1
    worst = CompressedStream(
        dims_original=dims, dims_padded=dims, bit_depth=8, sigma=1.0, q=1.0,
        prior=(0.0,) * len(PRIOR_FIELDS), tree_bits=b"",
        tree_nbits=tokens * (1 + axis_bit_width(len(dims))),
        channels=[ChannelPayload(0, {}, b"", tokens * max(1, (tokens - 1).bit_length()))]
        * channels)
    for verb, need in (("encoding", _encode_bytes(dims, channels)["total"]),
                       ("decoding", _decode_bytes(worst)["total"])):
        if need > DEFAULT_MAX_BYTES:
            raise ResourceError(
                f"{verb} {'x'.join(map(str, dims))} x{channels} would "
                f"take ~{need / 2**20:.0f} MiB, over the "
                f"{DEFAULT_MAX_BYTES / 2**20:.0f} MiB budget"
            )


def _encode_channel(plane: np.ndarray, tree: MapTree, order: np.ndarray,
                    q: float) -> ChannelPayload:
    # node h at depth d is row h - 2^d of the vector as 2^d rows, so the
    # pruned leaves of each depth are whole rows; no view of the vector
    # outlives the loop, so that del frees it
    vector = plane.ravel()[order]
    starts = tree.level_starts()
    leaf = np.flatnonzero(tree.axis[: starts[-2]] < 0)  # the pruned leaves
    bounds = np.searchsorted(leaf, starts[:-1]).tolist()
    for d, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo < hi:
            rows = tree.heap[leaf[lo:hi]] - (1 << d)
            means = vector.reshape(1 << d, -1)[rows].mean(axis=1, keepdims=True)
            vector.reshape(1 << d, -1)[rows] = means
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

    _check_encode_budget(grid.dims_padded, grid.channels)
    if stats is None:
        # the sweep builds each level of the statistics as it reaches it
        stats = LevelStream.from_grid(grid)
    posterior = build_posterior(grid, hp, stats=stats)
    tree = extract_map_tree(posterior)
    del posterior
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
    tree = nodes * (8 * m + 9)  # cell, heap, axis
    # one byte per tree bit; per node its rows, held per level and then
    # concatenated, and room for one level's split rows and grower arrays
    parse = stream.tree_nbits + nodes * (16 * m + 24)
    coefficients = 8 * channels * splits
    values = 8 * channels * nodes
    planes = 8 * n * channels
    # the splits' heap indices and the mask that picks them; then next to
    # the indices, one channel's codeword length per payload bit, a chunk
    # of windows, the bulk decoder's per-token arrays and their match
    heap = 8 * splits + max(nodes, bits + 64 * min(bits, CHUNK_BITS) + 112 * tokens)
    # the splits of one level, or the pruned leaves, are disjoint blocks of
    # two pixels or more: at most n // 2 of them
    wide = n // 2
    # the leaf and split rows, next to the mask that picks them, or one
    # level's values and children, or the pruned leaves' values
    walk = 8 * leaves + 8 * splits + max(nodes, 24 * channels * min(splits, wide),
                                         8 * channels * min(leaves, wide))
    # per leaf its row and grid index, plus its per-axis depths and their
    # mantissas, or its shape id, sort order, and a sorted copy or values
    paint = leaves * (8 * m + 8 + max(12 * m, 8 * m + 24, 8 * channels + 16))
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
    split_heap = tree.heap[tree.axis >= 0]
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
    # painting copies values, so clipping the nodes clips the pixels
    np.clip(values, 0.0, float(2**stream.bit_depth - 1), out=values)
    planes = np.empty((n_channels,) + dims_padded)
    paint_leaves(tree, values, planes)
    del values
    payload_bits_total = sum(ch.payload_nbits for ch in stream.channels)
    bits_used = 8 * stream.size_bytes - payload_bits_total + consumed
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


def _check_search_arguments(target_ratio: float, tol: float) -> None:
    """The argument checks of ``target_ratio_search``: raise ValueError."""
    if not (math.isfinite(target_ratio) and target_ratio > 1.0):
        raise ValueError(f"target ratio must be finite and exceed 1, got {target_ratio}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")


def target_ratio_search(grid: PixelGrid, hp_base: Hyperparams,
                        target_ratio: float, tol: float = 0.1,
                        stats: StatsLattice | None = None) -> RatioSearchResult:
    """Search sigma (with tau0 = 1/sigma and q tied to sigma) until the
    achieved ratio lands in target * (1 +- tol).

    The ratio grows with sigma, so the search keeps a bracket [lo, hi] in
    sigma: lo starts at ``SIGMA_FLOOR`` (0.001), hi is unset, and sigma = 1
    is encoded first.  Each attempt either returns or narrows the bracket.
    An attempt in the band returns at once, converged.  An attempt at the
    floor over the band returns the floor stream with a warning and
    converged=False (a constant image, say); one under the band goes
    first in the list of misses.  Any other attempt is a miss too, and
    becomes hi if its ratio reaches the target, otherwise lo.  An attempt
    under the band whose tree is one leaf (at most one tree bit) ends the
    search: every larger sigma gives the same tree, so the same ratio.

    The next sigma is the root of a line in (log sigma, log ratio): after
    sigma = 1 alone, the line of slope 1 through it (sigma * target /
    ratio); once both ends of the bracket have been encoded, the line
    through them (regula falsi), where an end kept twice in a row has its
    log-ratio residual halved (the Illinois rule); otherwise the line
    through the last two attempts.  A flat or falling line puts the root
    past the bracket, on the side of the target.  A root at or under the
    floor encodes the floor, if it is untried; with no hi, the step goes
    at most to 4 * lo; any other root outside (lo, hi), or not finite,
    gives way to the midpoint sqrt(lo * hi).  So no sigma is encoded
    twice.  After ``SEARCH_ATTEMPTS`` compress calls, or a one-leaf tree
    under the band, the miss closest in log ratio is returned with a
    warning and converged=False; on ties the floor, then the earliest
    miss, wins.

    ``target_ratio`` must be finite and over 1, and ``tol`` in (0, 1).
    ``stats`` may pass in the grid's block statistics, as for compress;
    otherwise they are built once and shared by every attempt.  The result
    lists every attempt as ``(sigma, ratio, encode_ms)`` in ``attempts``.
    """
    _check_search_arguments(target_ratio, tol)
    _check_encode_budget(grid.dims_padded, grid.channels)
    if stats is None:
        stats = build_stats(grid)
    trace: list[tuple[float, float, float]] = []

    def finish(result: RatioSearchResult, converged: bool) -> RatioSearchResult:
        return replace(result, converged=converged, attempts=tuple(trace))

    lo, hi = SIGMA_FLOOR, None
    # log(ratio / target) at lo and hi, None while that end is unencoded
    res_lo = res_hi = None
    moved = None  # the end the last attempt moved
    misses: list[RatioSearchResult] = []
    why = ""
    sigma = 1.0
    while len(trace) < SEARCH_ATTEMPTS:
        hp = replace(hp_base, sigma=sigma, tau0=1.0 / sigma)
        t0 = time.perf_counter()
        stream = compress(grid, hp, q=None, stats=stats)
        ratio = stream.compression_ratio
        trace.append((sigma, ratio, 1000.0 * (time.perf_counter() - t0)))
        result = RatioSearchResult(sigma=sigma, stream=stream, ratio=ratio,
                                   converged=False)
        if sigma == SIGMA_FLOOR and ratio > target_ratio * (1 + tol):
            warnings.warn(
                f"minimum-sigma ratio {ratio:.2f} already exceeds target "
                f"{target_ratio}; returning minimal-sigma stream", stacklevel=2
            )
            return finish(result, False)
        if abs(ratio - target_ratio) <= tol * target_ratio:
            return finish(result, True)
        res = math.log(ratio / target_ratio)
        if sigma == SIGMA_FLOOR:  # under the band, and lo is the floor already
            misses.insert(0, result)
        else:
            misses.append(result)
        if ratio < target_ratio and stream.tree_nbits <= 1:
            # one leaf: every larger sigma gives this tree and this ratio again
            why = f"; sigma {sigma:g} gives a one-leaf tree"
            break
        # Illinois: an end kept twice in a row has its residual halved
        if ratio >= target_ratio:
            if moved == "hi" and res_lo is not None:
                res_lo /= 2
            hi, res_hi, moved = sigma, res, "hi"
        else:
            if moved == "lo" and res_hi is not None:
                res_hi /= 2
            lo, res_lo, moved = sigma, res, "lo"

        # the root of the line through both ends, else through the last two
        # attempts, else through sigma = 1 at slope 1; a flat line puts it
        # past the bracket on the target's side
        x, slope = math.log(sigma), 1.0
        if res_lo is not None and res_hi is not None:
            x, res, slope = math.log(hi), res_hi, (res_hi - res_lo) / math.log(hi / lo)
        elif len(trace) > 1:
            s1, r1, _ = trace[-2]
            slope = math.log(ratio / r1) / math.log(sigma / s1)
        root = x - res / slope if slope > 0 else math.copysign(math.inf, -res)
        top = 4.0 * lo if hi is None else hi
        step = math.exp(min(root, math.log(top)))
        if step <= SIGMA_FLOOR and res_lo is None:  # lo is the untried floor
            sigma = SIGMA_FLOOR
        elif lo < step < top:
            sigma = step
        else:
            sigma = top if hi is None else math.sqrt(lo * hi)

    best = min(misses, key=lambda r: abs(math.log(r.ratio / target_ratio)))
    warnings.warn(
        f"ratio search stopped after {len(trace)} evaluations at ratio "
        f"{best.ratio:.2f} (target {target_ratio}){why}", stacklevel=2
    )
    return finish(best, False)
