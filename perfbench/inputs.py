"""Seeded input generators for the benchmark.

The photo recipe mirrors ``synthetic_photo`` in ``tests/conftest.py``: a
smooth illumination layer, texture confined to a foreground band and a few
hard-edged patches, rounded to the integer sample grid.  The colour video
is a drifting crop of one such photo, so its frames are correlated the way
a slow camera pan is.  Inputs are written to files and read back through
``carp.load`` so the benchmark exercises the real file path.
"""

from __future__ import annotations

import os

import numpy as np


def _spectral_field(rng: np.random.Generator, size: int, exponent: float) -> np.ndarray:
    """Random field with a 1/f^exponent amplitude spectrum, scaled to [0, 1]."""
    freq = np.fft.fftfreq(size)
    fy, fx = np.meshgrid(freq, freq, indexing="ij")
    radius = np.hypot(fy, fx)
    spectrum = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    spectrum /= np.maximum(radius, 1.0 / size) ** exponent
    field = np.real(np.fft.ifft2(spectrum))
    return (field - field.min()) / (field.max() - field.min())


def photo_field(size: int, rng: np.random.Generator) -> np.ndarray:
    """Photograph-like image in [0, 1], before rounding."""
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
    return np.clip(img, 0.0, 1.0)


def photo(size: int, seed) -> np.ndarray:
    """8-bit grayscale photo of shape (size, size); ``seed`` is anything
    ``np.random.default_rng`` accepts."""
    return np.rint(photo_field(size, np.random.default_rng(seed)) * 255).astype(np.uint8)


def colour_video(frames: int, size: int, seed) -> np.ndarray:
    """8-bit 3-channel volume, shape (3, frames, size, size).

    Every frame is a size x size crop of one photo twice as large, its
    offset drifting by a fixed step per frame, as in a slow pan.  The
    channels share the luminance and differ by two smooth chroma fields.
    """
    big = 2 * size
    rng = np.random.default_rng(seed)
    luma = photo_field(big, rng)
    chroma = [_spectral_field(rng, big, 2.5) - 0.5 for _ in range(2)]
    planes = np.stack([
        luma + 0.20 * chroma[0],
        luma - 0.10 * chroma[0] - 0.10 * chroma[1],
        luma + 0.20 * chroma[1],
    ])
    step = np.array([3, 2])
    out = np.empty((3, frames, size, size))
    for t in range(frames):
        y0, x0 = (t * step) % (big - size)
        out[:, t] = planes[:, y0 : y0 + size, x0 : x0 + size]
    return np.rint(np.clip(out, 0.0, 1.0) * 255).astype(np.uint8)


def write_pgm(path: str, img: np.ndarray) -> None:
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def write_raw(path: str, volume: np.ndarray) -> None:
    """Channel-planar raw payload plus the ``.meta`` sidecar carp reads."""
    channels, *dims = volume.shape
    np.ascontiguousarray(volume, dtype=np.uint8).tofile(path)
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"ndim={len(dims)}\ndims={','.join(map(str, dims))}\n"
                 f"bit_depth=8\nchannels={channels}\n")


def write_input(directory: str, name: str, pixels: np.ndarray) -> str:
    """Write a 2D array as PGM and anything else as raw; return the path."""
    os.makedirs(directory, exist_ok=True)
    if pixels.ndim == 2:
        path = os.path.join(directory, name + ".pgm")
        write_pgm(path, pixels)
    else:
        path = os.path.join(directory, name + ".raw")
        write_raw(path, pixels)
    return path
