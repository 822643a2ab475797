"""carp: lossy multi-dimensional image compression built on an
image-adaptive pixel permutation, a 1D Haar transform, and Huffman coding.

The permutation comes from the MAP estimate of a Bayesian model over
recursive dyadic partitions of the pixel space, found by one bottom-up
max-product sweep of the partition lattice; a single knob (sigma)
controls how aggressively near-constant regions are collapsed, and maps
monotonically to the achieved compression ratio.

Blocks of the partition lattice are held as numpy arrays: statistics as
one array per block shape (:class:`StatsLattice`), MAP decisions as one
array indexed by a block's cells, one heap interval per axis
(:class:`PosteriorLattice`), and the MAP tree as per-node arrays in level
order (:class:`MapTree`).  No per-block or per-node objects exist.
"""

__version__ = "0.1.0"

from .codec import (RatioSearchResult, compress, decompress,
                    decompress_with_bits, default_q, target_ratio_search)
from .errors import (CarpError, DimensionError, NumericError, ParseError,
                     ResourceError, StreamError)
from .grid import PixelGrid, crop, load, pad, save
from .lattice import StatsLattice, build_stats
from .metrics import QualityReport, ms_ssim, psnr, quality_report
from .model import (Hyperparams, PosteriorLattice, build_posterior,
                    empirical_bayes_fit)
from .stream import CompressedStream, deserialize_tree, serialize_tree
from .transform import dequantize, haar_forward, haar_inverse, quantize
from .tree import (MapTree, compute_kappa, extract_map_tree,
                   permutation_from_tree)

__all__ = [
    "CarpError",
    "CompressedStream",
    "DimensionError",
    "Hyperparams",
    "MapTree",
    "NumericError",
    "ParseError",
    "PixelGrid",
    "PosteriorLattice",
    "QualityReport",
    "RatioSearchResult",
    "ResourceError",
    "StatsLattice",
    "StreamError",
    "build_posterior",
    "build_stats",
    "compress",
    "compute_kappa",
    "crop",
    "decompress",
    "decompress_with_bits",
    "default_q",
    "dequantize",
    "deserialize_tree",
    "empirical_bayes_fit",
    "extract_map_tree",
    "haar_forward",
    "haar_inverse",
    "load",
    "ms_ssim",
    "pad",
    "permutation_from_tree",
    "psnr",
    "quality_report",
    "quantize",
    "save",
    "serialize_tree",
    "target_ratio_search",
]
