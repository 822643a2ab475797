"""Golden stream and reconstruction hashes.

Each case pins the SHA-256 of the serialized stream and of the decoded
float64 sample array.  Refactors of the tree, permutation, transform or
container code must leave every hash unchanged: the v1 format and the
decoder's output are a contract, not an implementation detail.
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
        "545da38b10bef1e56d910fd2325c357cf67d6fccc5c279a0d3c80c7d9c6a4b40",
        "08ece985d84941c53cb99cdee847481a255f13e7bd4999d2217759ba0676e498"),
    "photo64_s1": (
        _photo64, Hyperparams(sigma=1.0), None,
        "9c25f2697cfe1ee660f7c5446f529282b2df6025d937fcf2f9d86e5571b47a0f",
        "72eca05a3ab5de6e214a0133633bb8100db8d5c8c9f673551feda36561978adb"),
    "photo64_s8": (
        _photo64, Hyperparams(sigma=8.0), None,
        "9633608fd3b55181c6187986c3caebaa1364add87e1de585479027acd5a47a56",
        "ef333706c2f9c1718f9c4d642ce2c7d39925092623c9b92b3086ba0593a71d78"),
    "signal_1d": (
        _signal_1d, Hyperparams(sigma=2.0), None,
        "87dd74e0236eee888e6e683ecaaaaa7a53bfe356687c69698c8137ba44534f4c",
        "4c34a88bf510e231cdb34ba51d0ba9ad562abc3daf4c0f7779c1669aa26f74d3"),
    "odd_2d": (
        _odd_2d, Hyperparams(sigma=2.0), None,
        "560813fd16cf0ed4508ba452e00748f34831470b8fbcc8ae64a1f37f15a74aed",
        "71f3bf30ce01f328f21e0d31716c7afabfb91523e7aa79c4887c59243d2e29c3"),
    "volume_rgb": (
        _volume_rgb, Hyperparams(sigma=0.5), None,
        "f24904d21abda72341cac6dea906fd78a36c3d0b369f9662cd57ec7814e469aa",
        "b98126be308707bd8f256227233ffa8795cc40e72551cfcf061ea6fc3dbba7d0"),
    "rgb64_s1": (
        _rgb64, Hyperparams(sigma=1.0), None,
        "e2924521d5ba80c6d3ad1e0bfd3bc2416c7867a05102c42d1167a949d18bd186",
        "78fcfb869a737e0ebc3f7466dba39d5174969c2c4e6efed05cc5d00e88f90836"),
    "photo64_prefix6": (
        _photo64, Hyperparams(sigma=1.0), 6,
        "9c25f2697cfe1ee660f7c5446f529282b2df6025d937fcf2f9d86e5571b47a0f",
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
