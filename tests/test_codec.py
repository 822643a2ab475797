import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from carp import (CompressedStream, DimensionError, Hyperparams, PixelGrid,
                  ResourceError, codec, compress, crop, decompress,
                  decompress_with_bits, default_q, pad, psnr,
                  target_ratio_search)

from conftest import forged_huge_dims_stream, random_grid, synthetic_photo


def grid_of(arr, **kwargs):
    return PixelGrid.from_array(np.asarray(arr, dtype=float), **kwargs)


class TestDefaults:
    def test_q_tied_to_sigma(self):
        assert default_q(4.0) == 4.0
        assert default_q(0.01) == 0.5

    def test_requires_padded_input(self):
        grid = grid_of(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            compress(grid, Hyperparams(sigma=1.0))
        compress(pad(grid), Hyperparams(sigma=1.0))


class TestEndToEnd:
    def test_constant_image_tiny_and_exact(self):
        grid = grid_of(np.full((256, 256), 137.0))
        stream = compress(grid, Hyperparams(sigma=4.0))
        assert stream.size_bytes < 0.01 * grid.raw_bytes
        recon = decompress(stream)
        np.testing.assert_array_equal(np.rint(recon.values), grid.values)

    def test_near_lossless_rms_bound(self):
        rng = np.random.default_rng(0)
        for shape in [(32, 32), (16, 64)]:
            grid = random_grid(rng, shape)
            hp = Hyperparams(sigma=0.01, eta0=0.0)
            q = default_q(hp.sigma)
            recon = decompress(compress(grid, hp))
            rms = float(np.sqrt(np.mean((recon.values - grid.values) ** 2)))
            assert rms <= q / 2 * 1.01

    def test_crops_back_to_original_dims(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (5, 11))
        recon = decompress(compress(pad(grid), Hyperparams(sigma=0.2, eta0=0.0)))
        assert recon.dims_original == (5, 11)
        assert recon.dims == (5, 11)
        assert psnr(grid, recon) > 45.0

    def test_3d_volume(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(8, 8, 8))
        vals = np.clip(np.cumsum(base, axis=0) * 5 + 100, 0, 255).round()
        grid = grid_of(vals)
        stream = compress(grid, Hyperparams(sigma=1.0))
        recon = decompress(stream)
        assert recon.dims_original == (8, 8, 8)
        assert psnr(grid, recon) > 30.0

    def test_multichannel_shares_one_tree(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (16, 16), channels=3)
        stream = compress(pad(grid), Hyperparams(sigma=0.2))
        assert len(stream.channels) == 3
        recon = decompress(stream)
        assert recon.channels == 3
        assert psnr(grid, recon) > 40.0

    def test_pruned_means_survive_the_transform(self):
        # a blockwise-constant image prunes aggressively yet reconstructs
        # its block means through the low scales alone
        vals = np.kron(np.array([[40.0, 200.0], [120.0, 80.0]]), np.ones((8, 8)))
        grid = grid_of(vals)
        stream = compress(grid, Hyperparams(sigma=2.0))
        tree = stream.decode_tree()
        assert tree.pruned_pixel_fraction() == 1.0
        recon = decompress(stream)
        np.testing.assert_array_equal(np.rint(recon.values[0]), vals)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 256, size=(32, 32)).astype(float)
        a = compress(grid_of(vals), Hyperparams(sigma=2.0)).to_bytes()
        b = compress(grid_of(vals.copy()), Hyperparams(sigma=2.0)).to_bytes()
        assert a == b

    def test_single_pixel_image(self):
        grid = grid_of(np.array([[42.0]]))
        stream = compress(grid, Hyperparams(sigma=1.0))
        assert stream.n_scales == 0
        recon = decompress(stream)
        assert float(np.rint(recon.values[0, 0, 0])) == 42.0

    def test_16bit_depth(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, (16, 16), bit_depth=16)
        stream = compress(grid, Hyperparams(sigma=0.2, eta0=0.0))
        recon = decompress(stream)
        assert recon.bit_depth == 16
        assert float(np.max(np.abs(recon.values - grid.values))) < 2.0

    def test_four_dimensional_grid(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, (4, 4, 2, 2))
        stream = compress(grid, Hyperparams(sigma=0.5))
        assert stream.m == 4
        recon = decompress(stream)
        assert recon.dims_original == (4, 4, 2, 2)
        assert psnr(grid, recon) > 40.0


class TestResources:
    def test_posterior_freed_without_gc(self, monkeypatch):
        refs = []
        build_posterior = codec.build_posterior

        def recording(*args, **kwargs):
            post = build_posterior(*args, **kwargs)
            refs.append(weakref.ref(post))
            return post

        monkeypatch.setattr(codec, "build_posterior", recording)
        grid = synthetic_photo(32, seed=4)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            compress(grid, Hyperparams(sigma=1.0))
            alive = [ref() is not None for ref in refs]
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [False]

    def test_huge_header_dims_fail_before_allocating(self):
        data = forged_huge_dims_stream()
        stream = CompressedStream.from_bytes(data)
        assert stream.decode_tree().node_counts()["pruned_leaves"] == 1
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ResourceError, match="budget"):
                decompress(data)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2**20


class TestProgressive:
    def test_prefix_zero_is_flat_mean_level(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=1.0))
        recon = decompress(stream, prefix_scales=0)
        flat = recon.values[0]
        assert np.ptp(flat) == 0.0
        assert abs(flat[0, 0] - grid.values.mean()) <= stream.q

    def test_full_prefix_equals_full_decode(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=1.0))
        full = decompress(stream)
        prefixed = decompress(stream, prefix_scales=stream.n_scales)
        np.testing.assert_array_equal(full.values, prefixed.values)

    def test_psnr_weakly_increases(self):
        grid = synthetic_photo(64, seed=13)
        stream = compress(grid, Hyperparams(sigma=2.0))
        scores = [psnr(grid, decompress(stream, prefix_scales=k))
                  for k in range(0, stream.n_scales + 1, 2)]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 0.1

    def test_bits_used_monotone(self):
        grid = synthetic_photo(64, seed=14)
        stream = compress(grid, Hyperparams(sigma=2.0))
        bits = [decompress_with_bits(stream, prefix_scales=k)[1]
                for k in range(stream.n_scales + 1)]
        assert all(b <= a for b, a in zip(bits, bits[1:]))
        assert bits[-1] <= 8 * stream.size_bytes

    def test_invalid_prefix_rejected(self):
        rng = np.random.default_rng(7)
        stream = compress(random_grid(rng, (4, 4)), Hyperparams(sigma=1.0))
        with pytest.raises(ValueError):
            decompress(stream, prefix_scales=stream.n_scales + 1)

    def test_payload_truncated_mid_scale_raises(self):
        from carp import StreamError

        rng = np.random.default_rng(8)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=0.5, eta0=0.0))
        ch = stream.channels[0]
        ch.payload_nbits -= 5
        ch.payload = ch.payload[: (ch.payload_nbits + 7) // 8]
        with pytest.raises(StreamError):
            decompress(stream)


class TestRateBehavior:
    def test_ratio_monotone_in_q_with_fixed_tree(self):
        grid = synthetic_photo(64, seed=15)
        hp = Hyperparams(sigma=4.0)
        ratios = [compress(grid, hp, q=q).compression_ratio
                  for q in (8.0, 4.0, 2.0, 1.0, 0.5)]
        for coarser, finer in zip(ratios, ratios[1:]):
            assert finer <= coarser

    def test_target_ratio_search_converges(self):
        grid = synthetic_photo(128, seed=16)
        result = target_ratio_search(grid, Hyperparams(sigma=1.0), 10.0, tol=0.1)
        assert result.converged
        assert 9.0 <= result.ratio <= 11.0
        assert result.stream.sigma == result.sigma

    def test_target_ratio_must_exceed_one(self):
        grid = synthetic_photo(64, seed=17)
        with pytest.raises(ValueError):
            target_ratio_search(grid, Hyperparams(sigma=1.0), 1.0)

    def test_constant_image_overshoots_with_warning(self):
        grid = grid_of(np.full((64, 64), 9.0))
        with pytest.warns(UserWarning, match="exceeds target"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), 3.0)
        assert not result.converged
        assert result.ratio > 3.0
        assert result.sigma == pytest.approx(1e-3)
