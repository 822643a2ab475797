"""End-to-end pipeline: adaptive permutation, transform, entropy coding.

Encoding runs in five stages.  Block statistics and the posterior are
fitted on the per-pixel channel mean; the extracted tree is shared by all
channels.  Pixels of every leaf where partitioning stopped are replaced by
that channel's block mean before permuting, which zeroes every detail
coefficient inside the block; the means themselves need no extra syntax
because the low scales of the transform carry them.  Each channel is then
permuted, Haar-transformed, dead-zone quantized, and Huffman coded scale
by scale, coarsest first, so prefixes of the payload decode to valid
coarse reconstructions.

The permutation is a plain int64 index array (``order[i]`` is the
row-major index of the i-th pixel in tree order), so the encoder gathers
with it and the decoder scatters with it.  Before it allocates anything
sized by the header dims, the decoder checks that the order and one
float64 plane per channel fit in ``lattice.DEFAULT_MAX_BYTES``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bitio import BitReader, BitWriter
from .errors import DimensionError, ResourceError, StreamError
from .grid import PixelGrid, _freeze, original_region
from .huffman import (CanonicalDecoder, build_code_lengths, canonical_codes,
                      encode_symbols, histogram)
from .lattice import DEFAULT_MAX_BYTES, build_stats
from .model import Hyperparams, build_posterior
from .stream import (ChannelPayload, CompressedStream, detokenize,
                     serialize_tree, tokenize_scale)
from .transform import (CoefficientPyramid, dequantize, haar_forward,
                        haar_inverse, quantize)
from .tree import MapTree, extract_map_tree, permutation_from_tree


def default_q(sigma: float) -> float:
    """Quantizer step tied to the noise scale: ignorable detail has
    magnitude sigma, and the 1/2 floor keeps integer images near-lossless
    when sigma is tiny."""
    return max(sigma, 0.5)


def _substitute_pruned_means(plane: np.ndarray, tree: MapTree) -> np.ndarray:
    out = plane.copy()
    for offset, extent in tree.pruned_regions():
        sl = tuple(slice(o, o + e) for o, e in zip(offset, extent))
        out[sl] = out[sl].mean()
    return out


def compress(grid: PixelGrid, hp: Hyperparams, q: float | None = None) -> CompressedStream:
    """Compress a padded grid into an in-memory stream."""
    if not grid.is_padded:
        raise DimensionError(
            f"compress requires a padded grid; got dims {grid.dims}, "
            f"expected {grid.dims_padded}"
        )
    if q is None:
        q = default_q(hp.sigma)
    if q <= 0:
        raise ValueError(f"quantizer step must be positive, got {q}")

    stats = build_stats(grid)
    posterior = build_posterior(grid, hp, stats=stats)
    tree = extract_map_tree(posterior)
    order = permutation_from_tree(tree)

    channels: list[ChannelPayload] = []
    for c in range(grid.channels):
        plane = _substitute_pruned_means(grid.plane(c), tree)
        pyramid = haar_forward(plane.ravel()[order])
        scaling_symbol = int(quantize(pyramid.scaling, q))
        scale_tokens = [tokenize_scale(quantize(d, q)) for d in pyramid.details]
        freqs = histogram(t for tokens in scale_tokens for t in tokens)
        if freqs:
            lengths = build_code_lengths(freqs)
            codes = canonical_codes(lengths)
            writer = BitWriter()
            for tokens in scale_tokens:
                encode_symbols(tokens, codes, writer)
            payload, nbits = writer.getvalue(), writer.bit_length
        else:  # single-pixel image: no detail scales at all
            lengths, payload, nbits = {}, b"", 0
        channels.append(ChannelPayload(scaling_symbol=scaling_symbol,
                                       code_lengths=lengths,
                                       payload=payload,
                                       payload_nbits=nbits))

    tree_bits, tree_nbits = serialize_tree(tree)
    return CompressedStream(
        dims_original=tuple(grid.dims_original),
        dims_padded=tuple(grid.dims),
        bit_depth=grid.bit_depth,
        sigma=hp.sigma,
        q=q,
        hyperparams=hp,
        tree_bits=tree_bits,
        tree_nbits=tree_nbits,
        channels=channels,
    )


def _decode_channel(ch: ChannelPayload, stream: CompressedStream,
                    prefix_scales: int) -> tuple[np.ndarray, int]:
    """Dequantized pyramid -> spatial vector, plus payload bits consumed."""
    n_scales = stream.n_scales
    q = stream.q
    scaling = float(dequantize(ch.scaling_symbol, q))
    details = []
    reader = BitReader(ch.payload, ch.payload_nbits)
    decoder = CanonicalDecoder(ch.code_lengths) if ch.code_lengths else None
    for j in range(n_scales):
        count = 1 << j
        if j < prefix_scales:
            if decoder is None:
                raise StreamError("stream has detail scales but no code table")
            details.append(dequantize(detokenize(decoder, reader, count), q))
        else:
            details.append(np.zeros(count))
    vector = haar_inverse(CoefficientPyramid(scaling=scaling, details=details))
    return vector, reader.pos


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
    n = math.prod(dims_padded)
    n_channels = len(stream.channels)
    # the int64 order plus one float64 plane per channel
    need = 8 * n * (1 + n_channels)
    if need > DEFAULT_MAX_BYTES:
        raise ResourceError(
            f"decoding {'x'.join(map(str, dims_padded))} x{n_channels} would "
            f"take ~{need / 2**20:.0f} MiB, over the "
            f"{DEFAULT_MAX_BYTES / 2**20:.0f} MiB budget"
        )

    tree = stream.decode_tree()
    order = permutation_from_tree(tree)
    peak = float(2**stream.bit_depth - 1)
    values = np.empty((n_channels, n), dtype=np.float64)
    payload_bits_total = sum(ch.payload_nbits for ch in stream.channels)
    bits_used = 8 * stream.size_bytes - payload_bits_total
    for c, ch in enumerate(stream.channels):
        vector, consumed = _decode_channel(ch, stream, prefix_scales)
        bits_used += consumed
        values[c, order] = vector
    np.clip(values, 0.0, peak, out=values)
    padded = PixelGrid(values=_freeze(values.reshape((n_channels,) + dims_padded)),
                       dims_original=tuple(int(d) for d in stream.dims_original),
                       bit_depth=stream.bit_depth)
    return original_region(padded), bits_used


# ---------------------------------------------------------------------------
# Rate targeting
# ---------------------------------------------------------------------------

@dataclass
class RatioSearchResult:
    sigma: float
    stream: CompressedStream
    ratio: float
    converged: bool


def target_ratio_search(grid: PixelGrid, hp_base: Hyperparams,
                        target_ratio: float, tol: float = 0.1,
                        max_iter: int = 30) -> RatioSearchResult:
    """Search sigma (with tau0 = 1/sigma and q tied to sigma) until the
    achieved ratio lands in target * (1 +- tol).

    The ratio grows monotonically with sigma, so a geometric bracket plus
    bisection in log sigma converges quickly; if the budget of compress
    calls runs out the closest attempt so far is returned with
    converged=False.  Images whose minimum-sigma ratio already exceeds the
    target (constant images, say) also return that stream un-converged.
    """
    if target_ratio <= 1.0:
        raise ValueError(f"target ratio must exceed 1, got {target_ratio}")

    evals = 0

    def attempt(sigma: float) -> RatioSearchResult:
        nonlocal evals
        evals += 1
        hp = replace(hp_base, sigma=sigma, tau0=1.0 / sigma)
        stream = compress(grid, hp, q=None)
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
