"""Canonical Huffman coding over integer symbol alphabets.

Only code lengths travel in the stream header; both sides regenerate the
actual codewords by the canonical rule (symbols sorted by length, then by
value, assigned consecutive codes).  A single-symbol alphabet is padded
with a dummy zero-frequency sibling so it still gets a 1-bit code.

Encoding and decoding are in bulk.  The encoder packs the codewords with
one ``bitio.pack_codes`` call.  For
the decoder: left-justified to the longest length L, the canonical codes
of each length fill one contiguous range of L-bit integers, and the
ranges ascend with the length.  So the L-bit window at a bit position
fixes the length of the codeword starting there with one
``searchsorted`` against the ranges' upper limits.  The decoder resolves
that length at every bit position of the payload, in chunks, then walks
from codeword to codeword with per-codeword work only, and finally
resolves the symbols at the codeword starts alone.
"""

from __future__ import annotations

import heapq
from typing import Mapping

import numpy as np

from .bitio import bit_windows, pack_codes
from .errors import StreamError

# Longest code length a stream may declare.  A Huffman code whose longest
# codeword has length L needs a total symbol count of at least F(L + 2)
# (Fibonacci, F(1) = F(2) = 1; the counts 1, 1, 1, 2, 3, 5, ... reach it).
# A channel codes fewer symbols than it has samples, and an encodable image
# of N samples has N <= 2^27: the encode budget counts 16 bytes for each of
# the at least 2N - 1 blocks of its stats lattice, and must stay within
# lattice.DEFAULT_MAX_BYTES = 2^32.  F(41) is over 2^27, so no encodable
# stream has a code longer than 38 bits.
L_MAX = 38

# Bit positions whose codeword length is resolved per vectorized pass.
CHUNK_BITS = 1 << 13


def build_code_lengths(freqs: Mapping[int, int]) -> dict[int, int]:
    """Optimal prefix code lengths for the given symbol frequencies."""
    if not freqs:
        raise ValueError("cannot build a Huffman code from an empty histogram")
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # heap entries: (frequency, tiebreak, [symbols in this subtree])
    heap = [(f, i, [s]) for i, (s, f) in enumerate(sorted(freqs.items()))]
    heapq.heapify(heap)
    lengths = {s: 0 for s in freqs}
    tiebreak = len(heap)
    while len(heap) > 1:
        fa, _, syms_a = heapq.heappop(heap)
        fb, _, syms_b = heapq.heappop(heap)
        for s in syms_a:
            lengths[s] += 1
        for s in syms_b:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, tiebreak, syms_a + syms_b))
        tiebreak += 1
    return lengths


def check_code_lengths(lengths: Mapping[int, int]) -> None:
    """Raise StreamError unless every length is in 1..L_MAX and the Kraft
    sum is at most 1, so the lengths describe a prefix code."""
    bad = [l for l in lengths.values() if not 1 <= l <= L_MAX]
    if bad:
        raise StreamError(f"code length {bad[0]} outside 1..{L_MAX}")
    if sum(1 << (L_MAX - l) for l in lengths.values()) > 1 << L_MAX:
        raise StreamError("code lengths break the Kraft inequality")


def canonical_codes(lengths: Mapping[int, int]) -> dict[int, tuple[int, int]]:
    """symbol -> (codeword, length), assigned in canonical order."""
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for sym, length in ordered:
        code <<= length - prev_len
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


def encode_symbols(symbols: np.ndarray,
                   codes: Mapping[int, tuple[int, int]]) -> tuple[bytes, int]:
    """The codewords of symbols, in order, packed MSB-first.

    Returns the bytes, the last one zero-padded on the right, and the bit
    count.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    alphabet = np.array(sorted(codes), dtype=np.int64)
    at = np.searchsorted(alphabet, symbols)
    known = at < len(alphabet)
    known[known] = alphabet[at[known]] == symbols[known]
    if not known.all():
        raise ValueError(f"symbol {symbols[~known][0]} missing from Huffman table")
    table = [codes[s] for s in alphabet.tolist()]
    words = np.array([c for c, _ in table], dtype=np.uint64)[at]
    sizes = np.array([l for _, l in table], dtype=np.int64)[at]
    return pack_codes(words, sizes)


def decode_symbols(data: bytes, nbits: int, lengths: Mapping[int, int],
                   limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode up to ``limit`` codewords from the first nbits bits of data.

    Returns the int64 symbols and, for each, the bit position just past
    its codeword.  Decoding stops early, without raising, at a position
    that starts no codeword of the table or whose codeword runs past
    nbits; the caller decides whether fewer symbols are an error.
    """
    if not lengths:
        raise StreamError("empty Huffman table")
    check_code_lengths(lengths)
    if nbits > 8 * len(data):
        raise StreamError(f"payload bit length {nbits} exceeds {len(data)} bytes")
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    alphabet = np.array([sym for sym, _ in ordered], dtype=np.int64)
    # one row per distinct length: its first canonical code and the index
    # of its first symbol in canonical order
    sizes, first_index, counts = np.unique([l for _, l in ordered],
                                           return_index=True, return_counts=True)
    width = int(sizes[-1])
    first_code = []
    code = prev = 0
    for size, count in zip(sizes.tolist(), counts.tolist()):
        code <<= size - prev
        first_code.append(code)
        code += count
        prev = size
    first_code = np.array(first_code, dtype=np.uint64)
    limits = (first_code + counts.astype(np.uint64)) << (width - sizes).astype(np.uint64)
    # the length at each bit position, 0 where no codeword fits; the entry
    # at nbits is 0 too, so the walk below stops at the end of the payload
    size_of = np.append(sizes, 0).astype(np.uint8)
    lens = np.zeros(nbits + 1, dtype=np.uint8)
    for start in range(0, nbits, CHUNK_BITS):
        stop = min(start + CHUNK_BITS, nbits)
        positions = np.arange(start, stop)
        found = size_of[np.searchsorted(limits, bit_windows(data, positions, width),
                                        side="right")]
        found[found > nbits - positions] = 0
        lens[start:stop] = found

    starts = np.empty(min(limit, nbits), dtype=np.min_scalar_type(nbits))
    lens_view, starts_view = memoryview(lens), memoryview(starts)
    pos = 0
    for count in range(len(starts)):
        step = lens_view[pos]
        if not step:
            break
        starts_view[count] = pos
        pos += step
    else:
        count = len(starts)

    starts = starts[:count].astype(np.int64)
    windows = bit_windows(data, starts, width)
    row = np.searchsorted(limits, windows, side="right")
    offset = (windows >> (width - sizes[row]).astype(np.uint64)) - first_code[row]
    symbols = alphabet[first_index[row] + offset.astype(np.int64)]
    return symbols, starts + sizes[row]


def histogram(symbols: np.ndarray) -> dict[int, int]:
    """symbol -> count, over the distinct symbols in ascending order."""
    values, counts = np.unique(np.asarray(symbols, dtype=np.int64), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
