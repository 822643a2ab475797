import math

import numpy as np
import pytest

from carp import (Hyperparams, PixelGrid, compress, decompress, ms_ssim, pad,
                  psnr, quality_report)
from carp import metrics
from carp.metrics import ms_ssim_scales

from conftest import random_grid, synthetic_photo
from oracles import reference_ms_ssim


def grid_of(arr, **kwargs):
    return PixelGrid.from_array(np.asarray(arr, dtype=float), **kwargs)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        rng = np.random.default_rng(0)
        g = random_grid(rng, (8, 8))
        assert psnr(g, g) == math.inf

    def test_full_scale_error_is_zero_db(self):
        a = grid_of(np.zeros((4, 4)))
        b = grid_of(np.full((4, 4), 255.0))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mse(self):
        a = grid_of(np.zeros((4, 4)))
        b = grid_of(np.ones((4, 4)))
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-4)

    def test_symmetry_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = random_grid(rng, (8, 8))
        b = random_grid(rng, (8, 8))
        assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-12)
        a2 = grid_of(a.values[0] / 2 + 10)
        b2 = grid_of(b.values[0] / 2 + 10)
        shifted_a = grid_of(a2.values[0] + 5)
        shifted_b = grid_of(b2.values[0] + 5)
        assert psnr(a2, b2) == pytest.approx(psnr(shifted_a, shifted_b), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(grid_of(np.zeros((4, 4))), grid_of(np.zeros((4, 8))))

    def test_video_frame_mean_matches_per_frame(self):
        rng = np.random.default_rng(2)
        a = random_grid(rng, (4, 16, 16))
        b = random_grid(rng, (4, 16, 16))
        per_frame = [
            psnr(grid_of(a.values[0, t]), grid_of(b.values[0, t]))
            for t in range(4)
        ]
        assert psnr(a, b, aggregate="frame_mean") == pytest.approx(
            float(np.mean(per_frame)), rel=1e-12)

    def test_computed_on_original_region_only(self):
        rng = np.random.default_rng(3)
        g = random_grid(rng, (5, 7))
        padded = pad(g)
        assert psnr(g, padded) == math.inf


class TestMsSsim:
    def test_identical_images_score_one(self, photo64):
        assert ms_ssim(photo64, photo64) == pytest.approx(1.0, abs=1e-9)

    def test_constant_substitute_scores_below_one(self, photo64):
        flat = grid_of(np.full(photo64.dims_original,
                               float(np.rint(photo64.values.mean()))))
        assert ms_ssim(photo64, flat) < 1.0

    def test_scale_count_reduction(self):
        assert ms_ssim_scales(512) == 5
        assert ms_ssim_scales(176) == 5
        assert ms_ssim_scales(64) == 3
        assert ms_ssim_scales(11) == 1

    def test_rejects_tiny_images(self):
        g = grid_of(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            ms_ssim(g, g)

    @pytest.mark.parametrize("seed,sigma", [(21, 2.0), (22, 6.0), (23, 12.0)])
    def test_matches_independent_reference(self, seed, sigma):
        ref = synthetic_photo(128, seed=seed)
        recon = decompress(compress(ref, Hyperparams(sigma=sigma)))
        mine = ms_ssim(ref, recon)
        theirs = reference_ms_ssim(ref.values[0], recon.values[0], peak=255.0)
        assert mine == pytest.approx(theirs, abs=1e-4)
        assert mine < 1.0

    def test_odd_extents_match_independent_reference(self):
        # 45x37 keeps two scales, so one 2x2 pooling edge-pads both axes
        assert ms_ssim_scales(37) == 2
        ref = synthetic_photo(64, seed=24).values[0][:45, :37]
        noisy = np.clip(ref + np.random.default_rng(24).normal(0, 6, ref.shape), 0, 255)
        mine = ms_ssim(grid_of(ref), grid_of(noisy))
        assert mine == pytest.approx(reference_ms_ssim(ref, noisy, peak=255.0), abs=1e-4)
        assert mine < 1.0

    def test_video_is_frame_mean(self):
        rng = np.random.default_rng(4)
        frames = np.stack([synthetic_photo(32, seed=s).values[0] for s in (1, 2)])
        noisy = np.clip(frames + rng.normal(0, 4, size=frames.shape), 0, 255)
        a, b = grid_of(frames), grid_of(noisy)
        per_frame = [ms_ssim(grid_of(frames[t]), grid_of(noisy[t]))
                     for t in range(2)]
        assert ms_ssim(a, b) == pytest.approx(float(np.mean(per_frame)), rel=1e-12)


class TestQualityReport:
    def test_per_channel_breakdown(self):
        rng = np.random.default_rng(5)
        base = synthetic_photo(64, seed=6).values[0]
        ref = PixelGrid(values=np.stack([base, base]), dims_original=base.shape)
        noisy0 = np.clip(base + rng.normal(0, 2, base.shape), 0, 255)
        test = PixelGrid(values=np.stack([noisy0, base]), dims_original=base.shape)
        report = quality_report(ref, test, compression_ratio=12.5)
        assert report.compression_ratio == 12.5
        assert len(report.per_channel) == 2
        assert report.per_channel[1][0] == math.inf
        assert report.per_channel[1][1] == pytest.approx(1.0, abs=1e-9)
        assert report.per_channel[0][0] < report.per_channel[1][0]
        assert report.psnr_db >= report.per_channel[0][0]

    @pytest.mark.parametrize("shape,channels", [((64, 64), 1), ((32, 48), 3),
                                                ((3, 32, 32), 2)])
    def test_scores_each_channel_once_with_unchanged_values(self, monkeypatch,
                                                            shape, channels):
        rng = np.random.default_rng(7)
        ref_values = rng.integers(0, 256, size=(channels,) + shape).astype(float)
        test_values = np.clip(ref_values + rng.normal(0, 3, ref_values.shape), 0, 255)
        ref = PixelGrid(values=ref_values, dims_original=shape)
        test = PixelGrid(values=test_values, dims_original=shape)
        want_psnr, want_ssim = psnr(ref, test), ms_ssim(ref, test)

        calls = []
        scorer = metrics._ms_ssim_2d
        monkeypatch.setattr(metrics, "_ms_ssim_2d",
                            lambda *args: calls.append(1) or scorer(*args))
        report = quality_report(ref, test)
        frames = shape[0] if len(shape) == 3 else 1
        assert len(calls) == channels * frames
        assert report.psnr_db == want_psnr and report.ms_ssim == want_ssim
