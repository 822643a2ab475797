"""Compressed stream container: header, serialized tree, entropy payloads.

Layout (all integers little-endian, bitstreams packed MSB-first):

    magic "CARP" | version u8 | m u8 | channels u16 | bit_depth u8
    sigma f64 | q f64 | alpha f64 | beta f64 | c f64 | tau0 f64 | eta0 f64
    dims_original m x u32 | dims_padded m x u32
    tree_nbits u32 | tree bits (padded to bytes)
        per tree level, coarsest first, down to the level above the pixels:
            stop bit per node, in position order
            axis word (axis_bit_width(m) bits) per split, in position order
    per channel:
        scaling_symbol i64
        table_count u32 | (symbol i64, code length u8) x table_count
        payload_nbits u64 | payload bits (padded to bytes)

The header alone determines the decoder configuration; payloads hold the
quantized detail coefficients scale by scale, coarsest first, so a decoder
can stop cleanly at any scale boundary.  The single scaling coefficient
rides in the header as its quantizer symbol rather than through the
entropy coder, where a one-off large value would only bloat the table.

Parsing checks every code table: its symbols must ascend strictly, as
they are written, each length must lie in 1..L_MAX and the Kraft sum may
not exceed 1, so a table always describes a prefix code.  The stream
ends with the last payload, and bytes after it are rejected.  Each tree
level's bits are two slices of the bitstream, so the tree is parsed with
numpy work per level; payloads are decoded in bulk.  Version 1 streams,
whose tree bits were in preorder, are refused.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bitio import unpack_bits
from .errors import StreamError
from .huffman import check_code_lengths, decode_symbols
from .tree import MapTree, grow_tree

MAGIC = b"CARP"
VERSION = 2
ZERO_RUN_MAX = 65535
# the prior hyperparameters, in header order; the decoder reads none of them
PRIOR_FIELDS = ("alpha", "beta", "c", "tau0", "eta0")
TABLE_ENTRY = np.dtype([("symbol", "<i8"), ("length", "u1")])


def axis_bit_width(m: int) -> int:
    """Bits needed to name a split axis: ceil(log2 m), zero when m == 1."""
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# Tree bits
# ---------------------------------------------------------------------------

def serialize_tree(tree: MapTree) -> tuple[bytes, int]:
    """Level by level, the stop bits of a level's nodes in position order,
    then the axis words of its splits, each axis_bit_width(m) bits.  Atomic
    nodes carry no bits.  The rows must be in level order, as
    ``extract_map_tree`` and ``deserialize_tree`` return them, so each
    level's bits are two slices of the rows' bits; raises ValueError when
    their heap indices do not strictly ascend."""
    if (tree.heap[1:] <= tree.heap[:-1]).any():
        raise ValueError("tree rows are not in level order")
    width = axis_bit_width(len(tree.dims_padded))
    starts = tree.level_starts()
    axis = tree.axis[: starts[-2]]  # the atomic nodes, at depth J, come last
    split = np.flatnonzero(axis >= 0)
    words = (axis[split, None] >> np.arange(width - 1, -1, -1, dtype=np.int8)) & 1
    bits = np.empty(len(axis) + words.size, dtype=np.uint8)
    at = first = 0
    for lo, hi, last in zip(starts[:-2], starts[1:-1],
                            np.searchsorted(split, starts[1:-1]).tolist()):
        bits[at : at + hi - lo] = axis[lo:hi] < 0
        at += hi - lo
        bits[at : at + width * (last - first)] = words[first:last].ravel()
        at += width * (last - first)
        first = last
    return np.packbits(bits).tobytes(), len(bits)


def deserialize_tree(data: bytes, nbits: int, dims_padded: tuple[int, ...]) -> MapTree:
    """Parse level-order tree bits into a MapTree, its rows in level order.

    The levels above depth j_total, whose nodes are not single pixels,
    take one stop bit per node and then one axis word per split, which
    ``tree.grow_tree`` reads a level at a time to grow the tree, as in
    extraction.  Every node takes a bit before its level grows, so work and
    memory are bounded by nbits, whatever the header dims claim.  Cut-off
    bits end the parse after the axis words read are checked, as a
    bit-by-bit parse meets them.
    """
    dims = tuple(int(d) for d in dims_padded)
    m = len(dims)
    j_total = sum(d.bit_length() - 1 for d in dims)
    if j_total > 62 or m > 127 or max(dims, default=1) > 1 << 31:  # cells < 2^32
        raise StreamError(f"padded dims {dims} exceed 2^62 samples, 2^31 a side or 127 axes")
    width = axis_bit_width(m)
    weights = 1 << np.arange(width - 1, -1, -1)
    bits = unpack_bits(data, nbits)
    cursor = 0

    def read_level(cell: np.ndarray) -> np.ndarray:
        nonlocal cursor
        if cursor > nbits:
            raise StreamError("tree bits end mid-tree")
        count = len(cell)
        split = (bits[cursor : cursor + count] == 0).nonzero()[0]
        cursor += count
        words = bits[cursor : cursor + width * len(split)]
        cursor += width * len(split)
        read = len(words) // width if width else len(split)
        axis = np.full(count, -1, dtype=np.int8)
        axis[split[:read]] = words[: width * read].reshape(read, width) @ weights
        return axis

    tree = grow_tree(dims, read_level)
    if cursor > nbits:
        raise StreamError("tree bits end mid-tree")
    if cursor < nbits:
        raise StreamError(f"{nbits - cursor} unread bits after tree")
    return tree


# ---------------------------------------------------------------------------
# Zero-run tokenization
# ---------------------------------------------------------------------------
#
# Long zero runs dominate the payload once blocks are pruned, so a scale's
# symbols are recoded as tokens before entropy coding: a nonzero literal v
# becomes the even token 2v, while a run of L consecutive zeros becomes the
# odd token 2L - 1 (runs longer than ZERO_RUN_MAX are chunked).  Runs never
# cross scale boundaries, which keeps every boundary decodable.

def tokenize_scale(symbols: np.ndarray) -> np.ndarray:
    """One scale's tokens, in order, as int64.

    The zeros before each literal, and after the last, form one gap; a
    gap of g zeros yields g // ZERO_RUN_MAX full runs and then one run of
    the remainder, if any.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    literals = np.flatnonzero(symbols)
    bounds = np.empty(len(literals) + 2, dtype=np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = -1, literals, len(symbols)
    gaps = bounds[1:] - bounds[:-1] - 1
    # token index just past each gap's runs: its runs and all before, plus
    # the literals before it
    ends = np.cumsum((gaps + (ZERO_RUN_MAX - 1)) // ZERO_RUN_MAX)
    ends += np.arange(len(gaps))
    tokens = np.full(int(ends[-1]), 2 * ZERO_RUN_MAX - 1, dtype=np.int64)
    tokens[ends[:-1]] = 2 * symbols[literals]
    rest = gaps % ZERO_RUN_MAX
    tokens[ends[rest > 0] - 1] = 2 * rest[rest > 0] - 1
    return tokens


def detokenize(lengths: dict[int, int], payload: bytes, nbits: int,
               n_scales: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode the first n_scales scales of one channel payload.

    The coefficients of scale j sit at heap indices [2^j, 2^(j+1)), as
    ``transform.haar_forward`` lays them out, and a tree node's
    coefficient at its ``MapTree.heap`` index; index 0, the scaling
    coefficient, is not in the payload.  Returns the heap indices and
    quantized values of the literal tokens (the nonzero coefficients, in
    any stream the encoder writes), every other coefficient being 0, and
    the payload bits the tokens take.
    The tokens are decoded in bulk; each scale must end exactly at a token
    end, which the cumulative coefficient counts show.
    """
    total = (1 << n_scales) - 1
    if not total:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    tokens, ends = decode_symbols(payload, nbits, lengths, total)
    run = (tokens & 1).astype(bool)
    span = np.where(run, (tokens >> 1) + 1, 1)
    empty = span < 1
    span[empty] = 0
    # clipped, a sum stays within int64 up to and including the token
    # that reaches total
    covered = np.cumsum(np.minimum(span, total + 1))
    reached = covered >= total
    used = int(reached.argmax()) + 1 if reached.any() else len(tokens)
    if empty[:used].any():
        raise StreamError(f"zero run token {tokens[empty.argmax()]} has no positive length")
    if not reached.any():
        raise StreamError("payload ends before its last decoded scale")
    covered = covered[:used]
    scale_ends = (2 << np.arange(n_scales, dtype=np.int64)) - 1
    at = np.minimum(np.searchsorted(covered, scale_ends), used - 1)
    if not np.array_equal(covered[at], scale_ends):
        raise StreamError("zero run crosses a scale boundary")
    literal = ~run[:used]
    return covered[literal], tokens[:used][literal] >> 1, int(ends[used - 1])


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

@dataclass
class ChannelPayload:
    scaling_symbol: int
    code_lengths: dict[int, int]
    payload: bytes
    payload_nbits: int


@dataclass
class CompressedStream:
    dims_original: tuple[int, ...]
    dims_padded: tuple[int, ...]
    bit_depth: int
    sigma: float
    q: float
    prior: tuple[float, ...]  # values of PRIOR_FIELDS
    tree_bits: bytes
    tree_nbits: int
    channels: list[ChannelPayload]

    @property
    def m(self) -> int:
        return len(self.dims_original)

    @property
    def n_scales(self) -> int:
        return int(np.sum([int(d).bit_length() - 1 for d in self.dims_padded]))

    @property
    def raw_bytes(self) -> int:
        samples = len(self.channels) * int(np.prod(self.dims_original))
        return samples * (1 if self.bit_depth == 8 else 2)

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<BBHB", VERSION, self.m, len(self.channels), self.bit_depth)
        out += struct.pack("<7d", self.sigma, self.q, *self.prior)
        out += struct.pack(f"<{self.m}I", *self.dims_original)
        out += struct.pack(f"<{self.m}I", *self.dims_padded)
        out += struct.pack("<I", self.tree_nbits)
        out += self.tree_bits
        for ch in self.channels:
            out += struct.pack("<q", ch.scaling_symbol)
            out += struct.pack("<I", len(ch.code_lengths))
            table = np.fromiter(ch.code_lengths.items(), TABLE_ENTRY, len(ch.code_lengths))
            out += table[table["symbol"].argsort()].tobytes()
            out += struct.pack("<Q", ch.payload_nbits)
            out += ch.payload
        return bytes(out)

    @property
    def size_bytes(self) -> int:
        """len(to_bytes()), from the field sizes of the layout above."""
        size = (len(MAGIC) + struct.calcsize("<BBHB") + struct.calcsize("<7d")
                + 2 * struct.calcsize(f"<{self.m}I") + struct.calcsize("<I")
                + len(self.tree_bits))
        for ch in self.channels:
            size += (struct.calcsize("<qI") + len(ch.code_lengths) * TABLE_ENTRY.itemsize
                     + struct.calcsize("<Q") + len(ch.payload))
        return size

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / self.size_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedStream":
        cursor = _Cursor(data)
        if cursor.take(4) != MAGIC:
            raise StreamError("bad magic; not a compressed stream")
        version, m, n_channels, bit_depth = struct.unpack("<BBHB", cursor.take(5))
        if version != VERSION:
            raise StreamError(f"unsupported stream version {version}")
        if m < 1 or n_channels < 1 or bit_depth not in (8, 16):
            raise StreamError(
                f"invalid header: m={m}, channels={n_channels}, bit_depth={bit_depth}"
            )
        sigma, q, *prior = struct.unpack("<7d", cursor.take(56))
        if not (math.isfinite(q) and q > 0):
            raise StreamError(f"invalid quantizer step q={q} in header")
        dims_original = struct.unpack(f"<{m}I", cursor.take(4 * m))
        dims_padded = struct.unpack(f"<{m}I", cursor.take(4 * m))
        for orig, padded in zip(dims_original, dims_padded):
            if padded < 1 or padded & (padded - 1) or orig < 1 or orig > padded:
                raise StreamError(f"invalid dims {dims_original} / {dims_padded}")
        (tree_nbits,) = struct.unpack("<I", cursor.take(4))
        tree_bits = cursor.take((tree_nbits + 7) // 8)
        channels = []
        for _ in range(n_channels):
            (scaling_symbol,) = struct.unpack("<q", cursor.take(8))
            (count,) = struct.unpack("<I", cursor.take(4))
            table = np.frombuffer(cursor.take(count * TABLE_ENTRY.itemsize), TABLE_ENTRY)
            if (table["symbol"][1:] <= table["symbol"][:-1]).any():
                raise StreamError("code table symbols are not strictly ascending")
            lengths = dict(zip(table["symbol"].tolist(), table["length"].tolist()))
            check_code_lengths(lengths)
            (payload_nbits,) = struct.unpack("<Q", cursor.take(8))
            payload = cursor.take((payload_nbits + 7) // 8)
            channels.append(ChannelPayload(scaling_symbol=scaling_symbol,
                                           code_lengths=lengths,
                                           payload=payload,
                                           payload_nbits=payload_nbits))
        if cursor.remaining:
            raise StreamError(f"{cursor.remaining} trailing bytes after the last payload")
        return cls(dims_original=dims_original, dims_padded=dims_padded,
                   bit_depth=bit_depth, sigma=sigma, q=q, prior=tuple(prior),
                   tree_bits=tree_bits, tree_nbits=tree_nbits, channels=channels)

    def decode_tree(self) -> MapTree:
        return deserialize_tree(self.tree_bits, self.tree_nbits, self.dims_padded)

    def write_file(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def read_file(cls, path: str) -> "CompressedStream":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class _Cursor:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise StreamError("truncated stream")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out
