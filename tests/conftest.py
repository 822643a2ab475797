"""Shared fixtures: deterministic synthetic photographs and small images."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from carp import Hyperparams, MapTree, PixelGrid, compress, serialize_tree
from carp.stream import detokenize

from oracles import preorder_rows, shape_index


def _spectral_field(rng, size: int, exponent: float) -> np.ndarray:
    """Random field with a 1/f^exponent amplitude spectrum, scaled to [0, 1]."""
    freq = np.fft.fftfreq(size)
    fy, fx = np.meshgrid(freq, freq, indexing="ij")
    radius = np.hypot(fy, fx)
    spectrum = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    spectrum /= np.maximum(radius, 1.0 / size) ** exponent
    field = np.real(np.fft.ifft2(spectrum))
    return (field - field.min()) / (field.max() - field.min())


def synthetic_photo(size: int = 512, seed: int = 7, bit_depth: int = 8) -> PixelGrid:
    """Deterministic photograph-like test image.

    Piecewise-smooth composition in the spirit of a landscape shot: a very
    smooth illumination layer, mid- and fine-frequency texture confined to
    a foreground band, and a few hard-edged patches, rounded to the
    integer sample grid.
    """
    rng = np.random.default_rng(seed)
    smooth = _spectral_field(rng, size, 2.5)
    mid = _spectral_field(rng, size, 1.4)
    fine = _spectral_field(rng, size, 0.8)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    texture_mask = np.clip(1.6 * (yy - 0.45), 0.0, 1.0) ** 1.2
    img = (0.55 * smooth + 0.18 * (0.5 * yy + 0.5 * xx)
           + texture_mask * (0.22 * mid + 0.10 * (fine - 0.5)))

    h = size // 8
    img[h : 3 * h, h : 2 * h] += 0.15
    img[5 * h : 7 * h, 4 * h : 6 * h] -= 0.12
    disk = (yy - 0.28) ** 2 + (xx - 0.72) ** 2 < 0.015
    img[disk] += 0.10

    img = np.clip(img, 0.0, 1.0)
    peak = 2**bit_depth - 1
    ints = np.rint(img * peak)
    return PixelGrid.from_array(ints, bit_depth=bit_depth)


@pytest.fixture(scope="session")
def photo512() -> PixelGrid:
    return synthetic_photo(512, seed=7)


@pytest.fixture(scope="session")
def photo512_b() -> PixelGrid:
    return synthetic_photo(512, seed=11)


@pytest.fixture(scope="session")
def photo256() -> PixelGrid:
    return synthetic_photo(256, seed=7)


@pytest.fixture(scope="session")
def photo64() -> PixelGrid:
    return synthetic_photo(64, seed=3)


def random_grid(rng, shape, bit_depth=8, channels=1) -> PixelGrid:
    peak = 2**bit_depth - 1
    vals = rng.integers(0, peak + 1, size=(channels,) + tuple(shape)).astype(float)
    return PixelGrid(values=vals, dims_original=tuple(shape), bit_depth=bit_depth)


def same_tree(a, b) -> bool:
    """MapTree equality, whatever order the rows come in: in preorder the
    three node arrays fix the tree."""
    a, b = preorder_rows(a), preorder_rows(b)
    return tuple(a.dims_padded) == tuple(b.dims_padded) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("cell", "heap", "axis"))


def forged_huge_dims_stream() -> bytes:
    """A 4x4 stream whose tree is a single pruned-root bit, with its
    original and padded dims patched to 2^20 x 2^20.  The header and the
    tree parse; decoding would need terabytes."""
    stream = compress(PixelGrid.from_array(np.full((4, 4), 9.0)),
                      Hyperparams(sigma=4.0))
    assert stream.tree_nbits == 1
    data = bytearray(stream.to_bytes())
    dims_at = 4 + 5 + 56  # magic, version/m/channels/depth, 7 doubles
    data[dims_at : dims_at + 16] = struct.pack("<4I", *(2**20,) * 4)
    return bytes(data)


def stray_coefficient_stream() -> bytes:
    """A 64x64 stream at sigma 1 whose tree bits are re-serialized with the
    deepest split that carries a nonzero coefficient turned into a leaf, so
    that coefficient sits at a heap index that is no internal node."""
    stream = compress(synthetic_photo(64, seed=3), Hyperparams(sigma=1.0))
    ch = stream.channels[0]
    at, symbols, _ = detokenize(ch.code_lengths, ch.payload, ch.payload_nbits,
                                stream.n_scales)
    tree = stream.decode_tree()
    split = np.flatnonzero(tree.axis >= 0)
    row = int(split[np.isin(tree.heap[split], at[symbols != 0])][-1])
    size = shape_index(tree)[0].sum(axis=1)
    under = size < size[row]
    keep = ~under
    # drop the split's descendants: a node k levels under it has heap >> k == heap[row]
    keep[under] = (tree.heap[under] >> (size[row] - size[under])) != tree.heap[row]
    axis = tree.axis.copy()
    axis[row] = -1
    leaf = MapTree(dims_padded=tree.dims_padded, cell=tree.cell[keep],
                   heap=tree.heap[keep], axis=axis[keep])
    bits, nbits = serialize_tree(leaf)
    return replace(stream, tree_bits=bits, tree_nbits=nbits).to_bytes()


def overflowing_q_stream(q: float = 1e308) -> bytes:
    """A 16x16 stream at sigma 1 whose header q is patched so large that
    dequantizing its coefficients overflows to infinities, whose sums and
    differences down the tree are NaN."""
    stream = compress(random_grid(np.random.default_rng(8), (16, 16)), Hyperparams(sigma=1.0))
    return replace(stream, q=q).to_bytes()


def tableless_stream() -> tuple[bytes, bytes]:
    """(original, corrupt): a 16x16 stream at sigma 1, and the same stream
    with its channel's code table emptied but its payload bits kept."""
    stream = compress(random_grid(np.random.default_rng(8), (16, 16)), Hyperparams(sigma=1.0))
    assert stream.channels[0].payload_nbits > 0
    channel = replace(stream.channels[0], code_lengths={})
    return stream.to_bytes(), replace(stream, channels=[channel]).to_bytes()
