"""Reconstruction quality metrics: PSNR and MS-SSIM.

Both metrics are evaluated on the original (cropped) region only.  For 3D
volumes the frame axis is axis 0: MS-SSIM is computed per frame and
averaged, while PSNR defaults to the global-MSE form (a per-frame mean is
available too).  Multi-channel images report the per-channel values and
their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import PixelGrid, original_region

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03


@dataclass(frozen=True)
class QualityReport:
    psnr_db: float
    ms_ssim: float | None
    compression_ratio: float | None = None
    per_channel: tuple[tuple[float, float | None], ...] | None = None

    def lines(self) -> list[str]:
        out = [f"psnr_db: {self.psnr_db:.4f}"]
        if self.ms_ssim is not None:
            out.append(f"ms_ssim: {self.ms_ssim:.6f}")
        if self.compression_ratio is not None:
            out.append(f"compression_ratio: {self.compression_ratio:.4f}")
        if self.per_channel is not None and len(self.per_channel) > 1:
            for i, (p, s) in enumerate(self.per_channel):
                tail = f" ms_ssim={s:.6f}" if s is not None else ""
                out.append(f"channel {i}: psnr_db={p:.4f}{tail}")
        return out


def _check_compatible(ref: PixelGrid, test: PixelGrid) -> None:
    if ref.dims_original != test.dims_original:
        raise ValueError(
            f"dims differ: {ref.dims_original} vs {test.dims_original}"
        )
    if ref.channels != test.channels:
        raise ValueError(f"channel counts differ: {ref.channels} vs {test.channels}")
    if ref.bit_depth != test.bit_depth:
        raise ValueError(f"bit depths differ: {ref.bit_depth} vs {test.bit_depth}")


def psnr(ref: PixelGrid, test: PixelGrid, aggregate: str = "global") -> float:
    """10 log10(peak^2 / MSE); infinite when the images are identical.

    aggregate 'global' pools the squared error over every sample;
    'frame_mean' averages per-frame PSNR along axis 0 (3D volumes only).
    """
    _check_compatible(ref, test)
    a, b = original_region(ref).values, original_region(test).values
    peak = ref.peak
    if aggregate == "global":
        mse = float(np.mean((a - b) ** 2))
        return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)
    if aggregate == "frame_mean":
        if ref.ndim_spatial < 3:
            raise ValueError("frame_mean aggregation requires a 3D volume")
        frame_mse = np.mean((a - b) ** 2, axis=tuple(range(2, a.ndim)))
        vals = [math.inf if m == 0.0 else 10.0 * math.log10(peak * peak / m)
                for m in np.mean(frame_mse, axis=0)]
        return float(np.mean(vals))
    raise ValueError(f"unknown aggregate {aggregate!r}")


def _gaussian_kernel(size: int = WINDOW_SIZE, sigma: float = WINDOW_SIGMA) -> np.ndarray:
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _filter_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode filtering along both image axes."""
    out = sliding_window_view(img, kernel.size, axis=0) @ kernel
    out = sliding_window_view(out, kernel.size, axis=1) @ kernel
    return out


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 mean pooling, edge-padding odd extents first."""
    h, w = img.shape
    if h % 2 or w % 2:
        img = np.pad(img, ((0, h % 2), (0, w % 2)), mode="edge")
    return 0.25 * (img[0::2, 0::2] + img[0::2, 1::2]
                   + img[1::2, 0::2] + img[1::2, 1::2])


def _ssim_cs(x: np.ndarray, y: np.ndarray, peak: float,
             kernel: np.ndarray) -> tuple[float, float]:
    """Mean luminance*cs map and mean cs map of one scale."""
    c1 = (K1 * peak) ** 2
    c2 = (K2 * peak) ** 2
    mu_x = _filter_valid(x, kernel)
    mu_y = _filter_valid(y, kernel)
    var_x = _filter_valid(x * x, kernel) - mu_x * mu_x
    var_y = _filter_valid(y * y, kernel) - mu_y * mu_y
    cov = _filter_valid(x * y, kernel) - mu_x * mu_y
    lum = (2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)
    cs = (2.0 * cov + c2) / (var_x + var_y + c2)
    return float(np.mean(lum * cs)), float(np.mean(cs))


def ms_ssim_scales(min_dim: int) -> int:
    """Largest scale count (at most 5) keeping the coarsest image at least
    one window wide."""
    scales = 1
    while scales < len(MS_SSIM_WEIGHTS) and (min_dim >> scales) >= WINDOW_SIZE:
        scales += 1
    return scales


def _ms_ssim_2d(x: np.ndarray, y: np.ndarray, peak: float) -> float:
    min_dim = min(x.shape)
    if min_dim < WINDOW_SIZE:
        raise ValueError(
            f"image min dimension {min_dim} smaller than the {WINDOW_SIZE}px window"
        )
    scales = ms_ssim_scales(min_dim)
    weights = np.asarray(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    kernel = _gaussian_kernel()
    score = 1.0
    for s in range(scales):
        ssim_mean, cs_mean = _ssim_cs(x, y, peak, kernel)
        if s < scales - 1:
            score *= max(cs_mean, 0.0) ** weights[s]
            x, y = _downsample2(x), _downsample2(y)
        else:
            score *= max(ssim_mean, 0.0) ** weights[s]
    return float(score)


def ms_ssim(ref: PixelGrid, test: PixelGrid) -> float:
    """Multi-scale structural similarity on the original region.

    2D images are scored directly; 3D volumes as the unweighted mean over
    frames (axis 0).  Channels are scored separately and averaged.
    """
    _check_compatible(ref, test)
    if ref.ndim_spatial not in (2, 3):
        raise ValueError(f"ms_ssim supports 2D and 3D grids, not m={ref.ndim_spatial}")
    a, b = original_region(ref).values, original_region(test).values
    peak = ref.peak
    scores = []
    for c in range(ref.channels):
        if ref.ndim_spatial == 2:
            scores.append(_ms_ssim_2d(a[c], b[c], peak))
        else:
            frames = [_ms_ssim_2d(a[c, t], b[c, t], peak) for t in range(a.shape[1])]
            scores.append(float(np.mean(frames)))
    return float(np.mean(scores))


def quality_report(ref: PixelGrid, test: PixelGrid,
                   compression_ratio: float | None = None) -> QualityReport:
    _check_compatible(ref, test)
    want_ssim = ref.ndim_spatial in (2, 3) and min(ref.dims_original[-2:]) >= WINDOW_SIZE
    ref, test = original_region(ref), original_region(test)
    per_channel = []
    for c in range(ref.channels):
        ref_c = PixelGrid(values=ref.values[c : c + 1],
                          dims_original=ref.dims_original, bit_depth=ref.bit_depth)
        test_c = PixelGrid(values=test.values[c : c + 1],
                           dims_original=test.dims_original, bit_depth=test.bit_depth)
        p = psnr(ref_c, test_c)
        s = ms_ssim(ref_c, test_c) if want_ssim else None
        per_channel.append((p, s))
    return QualityReport(
        psnr_db=psnr(ref, test),
        # ms_ssim of the whole grid is this mean of the channel scores
        ms_ssim=float(np.mean([s for _, s in per_channel])) if want_ssim else None,
        compression_ratio=compression_ratio,
        per_channel=tuple(per_channel),
    )
