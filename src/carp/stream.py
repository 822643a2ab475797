"""Compressed stream container: header, serialized tree, entropy payloads.

Layout (all integers little-endian, bitstreams packed MSB-first):

    magic "CARP" | version u8 | m u8 | channels u16 | bit_depth u8
    sigma f64 | q f64 | alpha f64 | beta f64 | c f64 | tau0 f64 | eta0 f64
    dims_original m x u32 | dims_padded m x u32
    tree_nbits u32 | tree bits (padded to bytes)
    per channel:
        scaling_symbol i64
        table_count u32 | (symbol i64, code length u8) x table_count
        payload_nbits u64 | payload bits (padded to bytes)

The header alone determines the decoder configuration; payloads hold the
quantized detail coefficients scale by scale, coarsest first, so a decoder
can stop cleanly at any scale boundary.  The single scaling coefficient
rides in the header as its quantizer symbol rather than through the
entropy coder, where a one-off large value would only bloat the table.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bitio import BitReader
from .errors import StreamError
from .model import Hyperparams
from .tree import MapTree

MAGIC = b"CARP"
VERSION = 1
FILE_EXTENSION = ".carp"
ZERO_RUN_MAX = 65535


def axis_bit_width(m: int) -> int:
    """Bits needed to name a split axis: ceil(log2 m), zero when m == 1."""
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# Tree bits
# ---------------------------------------------------------------------------

def serialize_tree(tree: MapTree) -> tuple[bytes, int]:
    """Preorder walk: one stop bit per non-atomic node, axis bits on splits."""
    nbits_axis = axis_bit_width(len(tree.dims_padded))
    axis = tree.axis[tree.shape.any(axis=1)]  # atomic nodes carry no bits
    split = axis >= 0
    lengths = 1 + nbits_axis * split
    starts = np.cumsum(lengths) - lengths
    nbits = int(lengths.sum())
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[starts[~split]] = 1
    for k in range(nbits_axis):
        bits[starts[split] + 1 + k] = (axis[split] >> (nbits_axis - 1 - k)) & 1
    return np.packbits(bits).tobytes(), nbits


def deserialize_tree(data: bytes, nbits: int, dims_padded: tuple[int, ...]) -> MapTree:
    """Parse preorder tree bits into a MapTree.

    Every parsed node is either non-atomic, and consumes at least one bit,
    or a child of a split, so the work and memory are bounded by nbits,
    whatever the header dims claim.
    """
    if nbits > 8 * len(data):
        raise StreamError(f"tree bit length {nbits} exceeds {len(data)} bytes")
    m = len(dims_padded)
    exps = tuple(int(d).bit_length() - 1 for d in dims_padded)
    if sum(exps) > 62 or m > 127:
        raise StreamError(f"padded dims {tuple(dims_padded)} exceed 2^62 samples "
                          f"or 127 axes")
    nbits_axis = axis_bit_width(m)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits).tolist()
    shapes: list[int] = []  # m entries per node
    indices: list[int] = []
    positions: list[int] = []
    axes: list[int] = []
    stack = [(exps, (0,) * m, 0, sum(exps))]  # (shape, index, pos, log2 size)
    cursor = 0
    while stack:
        shape, index, pos, size_exp = stack.pop()
        shapes += shape
        indices += index
        positions.append(pos)
        if not size_exp:
            axes.append(-1)
            continue
        if cursor >= nbits:
            raise StreamError("tree bits end mid-tree")
        stop = bits[cursor]
        cursor += 1
        if stop:
            axes.append(-1)
            continue
        if cursor + nbits_axis > nbits:
            raise StreamError("tree bits end mid-tree")
        axis = 0
        for bit in bits[cursor : cursor + nbits_axis]:
            axis = (axis << 1) | bit
        cursor += nbits_axis
        if axis >= m or not shape[axis]:
            raise StreamError(
                f"tree names split axis {axis} on extent "
                f"{tuple(1 << a for a in shape)}"
            )
        axes.append(axis)
        child = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1 :]
        left = index[:axis] + (2 * index[axis],) + index[axis + 1 :]
        right = index[:axis] + (2 * index[axis] + 1,) + index[axis + 1 :]
        size_exp -= 1
        stack.append((child, right, pos + (1 << size_exp), size_exp))
        stack.append((child, left, pos, size_exp))
    if cursor != nbits:
        raise StreamError(f"{nbits - cursor} unread bits after tree")
    return MapTree(dims_padded=tuple(int(d) for d in dims_padded),
                   shape=np.array(shapes, dtype=np.int64).reshape(-1, m),
                   index=np.array(indices, dtype=np.int64).reshape(-1, m),
                   pos=np.array(positions, dtype=np.int64),
                   axis=np.array(axes, dtype=np.int8))


# ---------------------------------------------------------------------------
# Zero-run tokenization
# ---------------------------------------------------------------------------
#
# Long zero runs dominate the payload once blocks are pruned, so a scale's
# symbols are recoded as tokens before entropy coding: a nonzero literal v
# becomes the even token 2v, while a run of L consecutive zeros becomes the
# odd token 2L - 1 (runs longer than ZERO_RUN_MAX are chunked).  Runs never
# cross scale boundaries, which keeps every boundary decodable.

def tokenize_scale(symbols: np.ndarray) -> list[int]:
    tokens: list[int] = []
    run = 0
    for v in symbols.tolist():
        if v == 0:
            run += 1
            if run == ZERO_RUN_MAX:
                tokens.append(2 * run - 1)
                run = 0
        else:
            if run:
                tokens.append(2 * run - 1)
                run = 0
            tokens.append(2 * v)
    if run:
        tokens.append(2 * run - 1)
    return tokens


def detokenize(decoder, reader: BitReader, count: int) -> np.ndarray:
    """Read tokens until `count` coefficients of one scale are produced."""
    out = np.zeros(count, dtype=np.int64)
    filled = 0
    while filled < count:
        token = decoder.decode_one(reader)
        if token & 1:
            if token < 1:
                raise StreamError(f"zero run token {token} has no positive length")
            run = (token + 1) >> 1
            if filled + run > count:
                raise StreamError("zero run crosses a scale boundary")
            filled += run
        else:
            out[filled] = token >> 1
            filled += 1
    return out


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
    hyperparams: Hyperparams
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
        hp = self.hyperparams
        out = bytearray()
        out += MAGIC
        out += struct.pack("<BBHB", VERSION, self.m, len(self.channels), self.bit_depth)
        out += struct.pack("<7d", self.sigma, self.q, hp.alpha, hp.beta,
                           hp.c, hp.tau0, hp.eta0)
        out += struct.pack(f"<{self.m}I", *self.dims_original)
        out += struct.pack(f"<{self.m}I", *self.dims_padded)
        out += struct.pack("<I", self.tree_nbits)
        out += self.tree_bits
        for ch in self.channels:
            out += struct.pack("<q", ch.scaling_symbol)
            out += struct.pack("<I", len(ch.code_lengths))
            for sym in sorted(ch.code_lengths):
                out += struct.pack("<qB", sym, ch.code_lengths[sym])
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
            size += (struct.calcsize("<qI") + len(ch.code_lengths) * struct.calcsize("<qB")
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
        sigma, q, alpha, beta, c, tau0, eta0 = struct.unpack("<7d", cursor.take(56))
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
            lengths: dict[int, int] = {}
            for _ in range(count):
                sym, length = struct.unpack("<qB", cursor.take(9))
                lengths[sym] = length
            (payload_nbits,) = struct.unpack("<Q", cursor.take(8))
            payload = cursor.take((payload_nbits + 7) // 8)
            channels.append(ChannelPayload(scaling_symbol=scaling_symbol,
                                           code_lengths=lengths,
                                           payload=payload,
                                           payload_nbits=payload_nbits))
        try:
            hp = Hyperparams(sigma=sigma, alpha=alpha, beta=beta, c=c,
                             tau0=tau0, eta0=eta0)
        except ValueError as exc:
            raise StreamError(f"invalid hyperparameters in header: {exc}") from exc
        return cls(dims_original=dims_original, dims_padded=dims_padded,
                   bit_depth=bit_depth, sigma=sigma, q=q, hyperparams=hp,
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

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise StreamError("truncated stream")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out
