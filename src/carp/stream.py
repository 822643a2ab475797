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

Parsing checks every code table: each length must lie in 1..L_MAX and
the Kraft sum may not exceed 1, so a table always describes a prefix
code.  The stream ends with the last payload, and bytes after it are
rejected.  Tree bits and payloads are decoded in bulk, with numpy passes
over all bits and Python work only per non-atomic tree node and per
token.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bitio import unpack_bits
from .errors import StreamError
from .huffman import check_code_lengths, decode_symbols
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

    A walk over the bits visits only the non-atomic nodes, which carry
    them, and keeps one stack of node depths: a node at depth d has
    2^(j_total - d) pixels, so the atomic nodes are exactly those at depth
    j_total, and each split at depth j_total - 1 has two implicit atomic
    children.  Every visited node consumes at least one bit, so the work
    and memory are bounded by nbits, whatever the header dims claim.

    Shapes, grid indices and positions then follow from the depths and
    split axes in a fixed number of vectorized passes.
    """
    m = len(dims_padded)
    exps = [int(d).bit_length() - 1 for d in dims_padded]
    j_total = sum(exps)
    if j_total > 62 or m > 127:
        raise StreamError(f"padded dims {tuple(dims_padded)} exceed 2^62 samples "
                          f"or 127 axes")
    nbits_axis = axis_bit_width(m)
    bits = unpack_bits(data, nbits)
    visited, error = _walk_tree_bits(bits, nbits_axis, j_total)
    depth, axis = _preorder_nodes(visited, bits, nbits_axis, j_total)
    # Axes are checked before a walk error is raised: a node naming an
    # undivisible axis comes earlier in the bits than where they end.
    shape, index, pos = _blocks(depth, axis, exps)
    if error:
        raise StreamError(error)
    return MapTree(dims_padded=tuple(int(d) for d in dims_padded), shape=shape,
                   index=index, pos=pos, axis=axis)


def _walk_tree_bits(bits: np.ndarray, nbits_axis: int,
                    j_total: int) -> tuple[np.ndarray, str | None]:
    """The non-atomic nodes in preorder, each as 2 * depth + its stop bit,
    and the error that ended the walk early or late, if any.  Nodes whose
    bits are cut off are left out."""
    nbits = len(bits)
    visits = np.empty(nbits, dtype=np.uint8)
    bits_view, visits_view = memoryview(bits), memoryview(visits)
    stack: list[int] = []  # depths of the right children still to visit
    count = cursor = depth = 0
    last = j_total - 1
    complete = not j_total
    while not complete and cursor < nbits:
        stop = bits_view[cursor]
        visits_view[count] = depth + depth + stop
        count += 1
        if stop:
            cursor += 1
        else:
            cursor += 1 + nbits_axis
            if depth < last:  # go on to the left child
                depth += 1
                stack.append(depth)
                continue
        if stack:
            depth = stack.pop()
        else:
            complete = True
    if cursor > nbits:  # the last node's axis bits are cut off
        return visits[: count - 1], "tree bits end mid-tree"
    if not complete:
        return visits[:count], "tree bits end mid-tree"
    if cursor < nbits:
        return visits[:count], f"{nbits - cursor} unread bits after tree"
    return visits[:count], None


def _preorder_nodes(visited: np.ndarray, bits: np.ndarray, nbits_axis: int,
                    j_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Depth and split axis of every node in preorder: the visited nodes,
    with two atomic children after each split at depth j_total - 1."""
    if not j_total:  # one pixel: the root is atomic
        return np.zeros(1, dtype=np.int8), np.full(1, -1, dtype=np.int8)
    split = (visited & 1) == 0
    with_atoms = split & (visited >> 1 == j_total - 1)
    row = np.arange(len(visited)) + 2 * (np.cumsum(with_atoms) - with_atoms)
    nodes = len(visited) + 2 * int(np.count_nonzero(with_atoms))
    depth = np.full(nodes, j_total, dtype=np.int8)
    depth[row] = visited >> 1
    axis = np.full(nodes, -1, dtype=np.int8)
    # a split's axis bits follow its stop bit
    at = (np.arange(len(visited)) + nbits_axis * (np.cumsum(split) - split))[split]
    value = np.zeros(len(at), dtype=np.int8)
    for _ in range(nbits_axis):
        at += 1
        value = 2 * value + bits[at]
    axis[row[split]] = value
    return depth, axis


def _blocks(depth: np.ndarray, axis: np.ndarray,
            exps: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extent exponents, grid index and position of every node.

    A node's position is the total size of the leaves before it, and its
    subtree is the rows from it up to the first row at or past the end of
    its block.  Every node below a split has its extent halved along the
    split axis, and every node in the right subtree lies one child extent
    further along it; both are summed over ancestors with a difference
    array per axis and one cumulative sum, so the cost does not depend on
    the depth of the tree.
    """
    nodes, m, j_total = len(depth), len(exps), sum(exps)
    size = np.where(axis < 0, 1 << (j_total - depth.astype(np.int64)), 0)
    pos = np.zeros(nodes, dtype=np.int64)
    np.cumsum(size[:-1], out=pos[1:])
    del size
    splits = np.flatnonzero(axis >= 0)
    ax = axis[splits].astype(np.intp)
    col = np.minimum(ax, m - 1)
    # the row after each subtree: the next one for a leaf; a split's
    # subtree may stop short when the bits end mid-tree
    end = np.minimum(np.arange(1, nodes + 2), nodes)
    end[splits] = np.searchsorted(pos, pos[splits] + (1 << (j_total - depth[splits].astype(np.int64))))
    right = end[splits + 1]  # a right child starts where the left subtree ends
    # cumulative sums run in place over the (nodes + 1, m) difference arrays
    halvings = np.zeros((nodes + 1, m), dtype=np.int64)
    halvings.ravel()[(splits + 1) * m + col] = 1
    np.add.at(halvings.ravel(), end[splits] * m + col, -1)
    shape = halvings[:nodes]
    np.cumsum(shape, axis=0, out=shape)
    np.subtract(np.array(exps, dtype=np.int64), shape, out=shape)
    at = splits * m + col
    bad = (ax >= m) | (shape.ravel()[at] == 0)
    if bad.any():
        row = splits[bad.argmax()]
        raise StreamError(
            f"tree names split axis {axis[row]} on extent "
            f"{tuple(1 << a for a in shape[row].tolist())}"
        )
    step = 1 << (shape.ravel()[at] - 1)
    offsets = np.zeros((nodes + 1, m), dtype=np.int64)
    offsets.ravel()[right * m + col] = step
    np.add.at(offsets.ravel(), end[splits] * m + col, -step)
    index = offsets[:nodes]
    np.cumsum(index, axis=0, out=index)
    index >>= shape
    return shape, index, pos


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

    The coefficients of scale j sit at [2^j - 1, 2^(j+1) - 1) of one
    vector.  Returns the positions and quantized values of the literal
    tokens (the nonzero coefficients, in any stream the encoder writes),
    every other coefficient being 0, and the payload bits the tokens take.
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
    return covered[literal] - 1, tokens[:used][literal] >> 1, int(ends[used - 1])


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
            check_code_lengths(lengths)
            (payload_nbits,) = struct.unpack("<Q", cursor.take(8))
            payload = cursor.take((payload_nbits + 7) // 8)
            channels.append(ChannelPayload(scaling_symbol=scaling_symbol,
                                           code_lengths=lengths,
                                           payload=payload,
                                           payload_nbits=payload_nbits))
        if cursor.remaining:
            raise StreamError(f"{cursor.remaining} trailing bytes after the last payload")
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

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise StreamError("truncated stream")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out
