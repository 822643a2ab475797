"""Orthonormal 1D Haar analysis/synthesis and the dead-zone quantizer."""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def haar_forward(v: np.ndarray) -> np.ndarray:
    """Haar coefficients of a length-2^J vector, in heap order.

    c[0] is the scaling coefficient and c[2^j : 2^(j+1)] holds the 2^j
    detail coefficients of scale j, scale 0 being the coarsest, so the
    detail of the aligned run of 2^(J - j) samples from p is
    c[2^j + (p >> (J - j))].  The transform is orthonormal.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0 or v.size & (v.size - 1):
        raise ValueError(f"length must be a power of two, got {v.size}")
    c = np.empty(v.size, dtype=np.float64)
    approx = v
    while approx.size > 1:
        a, b = approx[0::2], approx[1::2]
        if approx.base is c:  # the details and sums overwrite approx
            a, b = a.copy(), b.copy()
        detail = np.subtract(a, b, out=c[a.size : 2 * a.size])
        detail /= SQRT2
        # only the first sums get their own array, so c and N/2 more at most
        approx = np.add(a, b, out=None if approx is v else c[: a.size])
        approx /= SQRT2
    c[0] = approx[0]
    return c


def haar_inverse(c: np.ndarray) -> np.ndarray:
    """The vector whose heap-ordered Haar coefficients are c."""
    c = np.asarray(c, dtype=np.float64)
    if c.size == 0 or c.size & (c.size - 1):
        raise ValueError(f"length must be a power of two, got {c.size}")
    approx = c[:1].copy()
    while approx.size < c.size:
        d = c[approx.size : 2 * approx.size]
        out = np.empty(2 * approx.size, dtype=np.float64)
        out[0::2] = (approx + d) / SQRT2
        out[1::2] = (approx - d) / SQRT2
        approx = out
    return approx


def quantize(coefficients: np.ndarray | float, q: float) -> np.ndarray:
    """Dead-zone uniform quantizer: sign(c) * floor(|c| / q).

    Everything in (-q, q) maps to symbol 0, so the zero bin is twice as
    wide as the others.
    """
    if q <= 0:
        raise ValueError(f"quantizer step must be positive, got {q}")
    c = np.asarray(coefficients, dtype=np.float64)
    return (np.sign(c) * np.floor(np.abs(c) / q)).astype(np.int64)


def dequantize(symbols: np.ndarray | int, q: float) -> np.ndarray:
    """Midpoint reconstruction: sign(s) * (|s| + 0.5) * q, with 0 -> 0."""
    if q <= 0:
        raise ValueError(f"quantizer step must be positive, got {q}")
    s = np.asarray(symbols, dtype=np.float64)
    return np.sign(s) * (np.abs(s) + 0.5) * q
