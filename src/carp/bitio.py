"""Bulk bit readers and writer, MSB-first within each byte.

A decoder unpacks a bitstream once (:func:`unpack_bits`) or reads a
fixed-width integer at many bit positions with one gather
(:func:`bit_windows`), so no decoder steps through a stream bit by bit
in Python.  Encoders write a sequence of variable-width codes in one
pass (:func:`pack_codes`), packed once with ``np.packbits``.
"""

from __future__ import annotations

import numpy as np

from .errors import StreamError

# Widest window bit_windows reads: a 64-bit word less the 7-bit offset
# of a position inside its first byte.
MAX_WINDOW = 57


def unpack_bits(data: bytes, nbits: int) -> np.ndarray:
    """The first nbits bits of data as a uint8 array of 0s and 1s."""
    if nbits > 8 * len(data):
        raise StreamError(f"bit length {nbits} exceeds {len(data)} bytes")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


def bit_windows(data: bytes, positions: np.ndarray, width: int) -> np.ndarray:
    """The width-bit integer read MSB-first at each bit position, as uint64.

    Bits past the end of data read as 0.  Each position costs one gather
    of the big-endian 64-bit word starting at its byte; the words are
    built only over the bytes the positions span.
    """
    if not 0 < width <= MAX_WINDOW:
        raise ValueError(f"window width must be in 1..{MAX_WINDOW}, got {width}")
    positions = np.asarray(positions, dtype=np.int64)
    if not positions.size:
        return np.zeros(0, dtype=np.uint64)
    first = positions >> 3
    lo = int(first.min())
    count = int(first.max()) - lo + 1
    padded = bytes(data[lo : lo + count + 7]).ljust(count + 7, b"\0")
    words = np.empty(count, dtype=np.uint64)
    for r in range(8):  # the words starting at bytes r, r + 8, r + 16, ...
        words[r::8] = np.frombuffer(padded, dtype=">u8", count=(count - r + 7) // 8,
                                    offset=r)
    first -= lo
    shift = (positions & 7).astype(np.uint64)
    return (words[first] << shift) >> np.uint64(64 - width)


def pack_codes(words: np.ndarray, sizes: np.ndarray) -> tuple[bytes, int]:
    """The words, each MSB-first in its size in bits, one after another:
    the bytes, zero-padded on the right, and the bit count.  Bit k of
    every word longer than k is placed in one pass."""
    words = np.asarray(words, dtype=np.uint64)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes)
    nbits = int(starts[-1]) if len(starts) else 0
    starts -= sizes
    bits = np.zeros(nbits, dtype=np.uint8)
    for k in range(int(sizes.max()) if len(sizes) else 0):
        rows = np.flatnonzero(sizes > k)
        shift = (sizes[rows] - 1 - k).astype(np.uint64)
        bits[starts[rows] + k] = (words[rows] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), nbits
