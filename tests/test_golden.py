"""Golden stream and reconstruction hashes.

Each case pins the SHA-256 of the serialized stream and of the decoded
float64 sample array.  Refactors of the tree, permutation, transform or
container code must leave every hash unchanged: the v2 format and the
decoder's output are a contract, not an implementation detail.  v2 lays
the tree bits out in level order where v1 had preorder; it moved the
stream hashes, while each stream kept its v1 length and every
reconstruction hash stayed the same.  Deciding the MAP tree by max-product
broke rounding ties of the posterior form otherwise in the near-lossless
``photo64_full`` tree: both its hashes moved, at the same stream length.
"""

import hashlib

import numpy as np
import pytest

from carp import Hyperparams, PixelGrid, compress, decompress, pad

from conftest import synthetic_photo


def _signal_1d() -> PixelGrid:
    x = np.linspace(0.0, 1.0, 100)
    return PixelGrid.from_array(np.rint(120 + 80 * np.sin(7 * x) + 30 * (x > 0.6)))


def _odd_2d() -> PixelGrid:
    return PixelGrid.from_array(synthetic_photo(64, seed=5).values[0][:45, :29])


def _volume_rgb() -> PixelGrid:
    """8x16x16, 3 channels: flat rows with a noisy box, so the tree mixes
    pruned and atomic leaves and uses 2-bit split axes."""
    rng = np.random.default_rng(21)
    vals = np.repeat(rng.integers(0, 256, size=(3, 8, 1, 16)).astype(float), 16, axis=2)
    vals[:, :, 4:12, 2:9] = rng.integers(0, 256, size=(3, 8, 8, 7))
    return PixelGrid(values=vals, dims_original=(8, 16, 16))


def _photo64() -> PixelGrid:
    return synthetic_photo(64, seed=3)


def _rgb64() -> PixelGrid:
    """64x64, 3 channels: three photo seeds as the channels, so the shared
    tree is fitted on channels that disagree."""
    vals = np.stack([synthetic_photo(64, seed=s).values[0] for s in (12, 13, 14)])
    return PixelGrid(values=vals, dims_original=(64, 64))


# name -> (grid factory, hyperparams, prefix_scales, stream sha, values sha)
CASES = {
    "photo64_full": (
        _photo64, Hyperparams(sigma=0.01, eta0=0.0), None,
        "172aacc2571901c3e5f9b738380e80862c32a9f05d4e84f1a7399af3eff070a7",
        "08fd061e472c00db0f9806f089479ff401715d9d8bc5f3abf27945ff398662d2"),
    "photo64_s1": (
        _photo64, Hyperparams(sigma=1.0), None,
        "464c5b64fc2e2b424ee9511129cffb93c6551811e8343eed98252e63f282065b",
        "72eca05a3ab5de6e214a0133633bb8100db8d5c8c9f673551feda36561978adb"),
    "photo64_s8": (
        _photo64, Hyperparams(sigma=8.0), None,
        "cdd4fd9c29c6c9b1189b226f576173e084830959aba0a89118b1c59f69df5cbf",
        "ef333706c2f9c1718f9c4d642ce2c7d39925092623c9b92b3086ba0593a71d78"),
    "signal_1d": (
        _signal_1d, Hyperparams(sigma=2.0), None,
        "a9ef59dc6b8f431e537120b648a44a14c19c56abb7b61cf964bf3f7086fb34b6",
        "4c34a88bf510e231cdb34ba51d0ba9ad562abc3daf4c0f7779c1669aa26f74d3"),
    "odd_2d": (
        _odd_2d, Hyperparams(sigma=2.0), None,
        "fde6111b16061835cc1405b61ed8a6b502e6f4b802855a013a723e1ac329290f",
        "71f3bf30ce01f328f21e0d31716c7afabfb91523e7aa79c4887c59243d2e29c3"),
    "volume_rgb": (
        _volume_rgb, Hyperparams(sigma=0.5), None,
        "5a2f1bc67c414ba7ce04bc000ced805aea70a5aadfa44b73a769514656372312",
        "b98126be308707bd8f256227233ffa8795cc40e72551cfcf061ea6fc3dbba7d0"),
    "rgb64_s1": (
        _rgb64, Hyperparams(sigma=1.0), None,
        "c6ffcd74bfc610f7eb01f142db79ea2980152cac1f277cb84c15335ec4319dad",
        "78fcfb869a737e0ebc3f7466dba39d5174969c2c4e6efed05cc5d00e88f90836"),
    "photo64_prefix6": (
        _photo64, Hyperparams(sigma=1.0), 6,
        "464c5b64fc2e2b424ee9511129cffb93c6551811e8343eed98252e63f282065b",
        "1402e56750ffd74be49cfa5a6fc63003d5acf44df8ccad0652d3f2ba9e928ff7"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(name):
    make, hp, prefix_scales, stream_sha, values_sha = CASES[name]
    data = compress(pad(make()), hp).to_bytes()
    assert _sha(data) == stream_sha
    decoded = decompress(data, prefix_scales=prefix_scales)
    assert _sha(np.ascontiguousarray(decoded.values).tobytes()) == values_sha
