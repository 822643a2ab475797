import struct
import time
import tracemalloc

import numpy as np
import pytest

from carp import (CompressedStream, Hyperparams, StreamError, build_posterior,
                  compress, extract_map_tree)
from carp.stream import (ZERO_RUN_MAX, axis_bit_width, deserialize_tree,
                         detokenize, serialize_tree, tokenize_scale)

from conftest import random_grid, same_tree


def map_tree_for(rng, shape, sigma=4.0, eta0=0.4):
    grid = random_grid(rng, shape)
    post = build_posterior(grid, Hyperparams(sigma=sigma, eta0=eta0))
    return extract_map_tree(post)


class TestAxisBits:
    def test_widths(self):
        assert axis_bit_width(1) == 0
        assert axis_bit_width(2) == 1
        assert axis_bit_width(3) == 2
        assert axis_bit_width(4) == 2


class TestTreeBits:
    def test_unpruned_1d_root_is_one_bit(self):
        rng = np.random.default_rng(0)
        tree = map_tree_for(rng, (2,), sigma=0.01, eta0=0.0)
        assert not tree.pruned[0]
        bits, nbits = serialize_tree(tree)
        assert nbits == 1  # one stop bit, zero axis bits when m == 1
        assert bits == b"\x00"

    def test_pruned_root_is_one_bit(self):
        tree = map_tree_for(np.random.default_rng(1), (2,), sigma=50.0, eta0=0.999)
        assert tree.pruned[0]
        bits, nbits = serialize_tree(tree)
        assert nbits == 1
        assert bits == b"\x80"

    @pytest.mark.parametrize("shape,sigma", [((8, 8), 2.0), ((8, 8), 20.0),
                                             ((4, 4, 4), 8.0), ((16,), 1.0)])
    def test_roundtrip_on_map_trees(self, shape, sigma):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            tree = map_tree_for(rng, shape, sigma=sigma)
            bits, nbits = serialize_tree(tree)
            back = deserialize_tree(bits, nbits, tree.dims_padded)
            assert same_tree(back, tree)

    def test_truncated_tree_bits_raise(self):
        rng = np.random.default_rng(2)
        tree = map_tree_for(rng, (8, 8), sigma=1.0, eta0=0.0)
        bits, nbits = serialize_tree(tree)
        with pytest.raises(StreamError):
            deserialize_tree(bits[: max(1, len(bits) // 2)], nbits // 2,
                             tree.dims_padded)


    def test_dropping_the_last_bit_raises(self):
        tree = map_tree_for(np.random.default_rng(4), (8, 8), sigma=0.01, eta0=0.0)
        bits, nbits = serialize_tree(tree)
        with pytest.raises(StreamError, match="mid-tree"):
            deserialize_tree(bits, nbits - 1, tree.dims_padded)

    def test_trailing_bits_raise(self):
        tree = map_tree_for(np.random.default_rng(5), (8, 8), sigma=2.0)
        bits, nbits = serialize_tree(tree)
        with pytest.raises(StreamError, match="unread"):
            deserialize_tree(bits + b"\x00", nbits + 1, tree.dims_padded)

    def test_bit_count_beyond_data_raises(self):
        with pytest.raises(StreamError):
            deserialize_tree(b"\x00", 9, (4, 4))

    @pytest.mark.parametrize("bits,dims", [
        (0b01000000, (4, 1)),     # axis 1 has extent 1
        (0b01100000, (4, 4, 4)),  # 2-bit axis 3 names no axis of m = 3
        (0b00001000, (4, 4, 1)),  # root splits on 0, its left child on 2
    ])
    def test_undivisible_axis_raises(self, bits, dims):
        with pytest.raises(StreamError, match="split axis"):
            deserialize_tree(bytes([bits]), 8, dims)

    def test_huge_header_dims_fail_fast(self):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(StreamError, match="mid-tree"):
                deserialize_tree(b"\x00\x00", 16, (2**20, 2**20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 2**31), (1,) * 128])
    def test_unaddressable_dims_raise(self, dims):
        with pytest.raises(StreamError, match="exceed"):
            deserialize_tree(b"\x80", 1, dims)


class TestTokens:
    def test_literals_and_runs(self):
        symbols = np.array([0, 0, 0, 5, -2, 0], dtype=np.int64)
        assert tokenize_scale(symbols) == [2 * 3 - 1, 10, -4, 1]

    def test_long_runs_are_chunked(self):
        symbols = np.zeros(ZERO_RUN_MAX + 10, dtype=np.int64)
        tokens = tokenize_scale(symbols)
        assert tokens == [2 * ZERO_RUN_MAX - 1, 2 * 10 - 1]

    def test_no_zero_literals(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(-3, 4, size=500).astype(np.int64)
        for token in tokenize_scale(symbols):
            assert token != 0
            if token % 2 == 0:
                assert token // 2 != 0


class _ScriptedDecoder:
    """Stands in for a Huffman decoder and returns fixed tokens."""

    def __init__(self, tokens):
        self._tokens = iter(tokens)

    def decode_one(self, reader):
        return next(self._tokens)


class TestDetokenize:
    def test_runs_and_literals(self):
        out = detokenize(_ScriptedDecoder([3, 4]), None, 3)
        assert out.tolist() == [0, 0, 2]

    @pytest.mark.parametrize("tokens", [[-1, 2, 2], [-5, 4], [-3]])
    def test_non_positive_runs_raise(self, tokens):
        with pytest.raises(StreamError, match="zero run"):
            detokenize(_ScriptedDecoder(tokens), None, 2)


class TestContainer:
    def make_stream(self, seed=0, shape=(8, 8), channels=1, sigma=2.0):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape, channels=channels)
        return compress(grid, Hyperparams(sigma=sigma)), grid

    def test_bytes_roundtrip(self):
        stream, _ = self.make_stream()
        data = stream.to_bytes()
        back = CompressedStream.from_bytes(data)
        assert back.to_bytes() == data
        assert back.dims_original == stream.dims_original
        assert back.hyperparams == stream.hyperparams
        assert same_tree(back.decode_tree(), stream.decode_tree())

    def test_bad_magic(self):
        data = bytearray(self.make_stream()[0].to_bytes())
        data[:4] = b"JUNK"
        with pytest.raises(StreamError, match="magic"):
            CompressedStream.from_bytes(bytes(data))

    def test_bad_version(self):
        data = bytearray(self.make_stream()[0].to_bytes())
        data[4] = 99
        with pytest.raises(StreamError, match="version"):
            CompressedStream.from_bytes(bytes(data))

    def test_truncation(self):
        data = self.make_stream()[0].to_bytes()
        with pytest.raises(StreamError):
            CompressedStream.from_bytes(data[: len(data) - 3])

    def test_file_roundtrip(self, tmp_path):
        stream, _ = self.make_stream(channels=2)
        path = tmp_path / "img.carp"
        stream.write_file(str(path))
        back = CompressedStream.read_file(str(path))
        assert back.to_bytes() == stream.to_bytes()

    def test_ratio_accounting(self):
        stream, grid = self.make_stream(shape=(16, 16))
        assert stream.raw_bytes == grid.raw_bytes == 256
        assert stream.compression_ratio == pytest.approx(
            256 / stream.size_bytes)

    @pytest.mark.parametrize("shape,channels", [((16,), 1), ((8, 8), 1),
                                                ((4, 4, 4), 1), ((8, 4), 3)])
    def test_size_bytes_matches_serialization(self, shape, channels):
        stream, _ = self.make_stream(shape=shape, channels=channels, sigma=1.0)
        assert stream.size_bytes == len(stream.to_bytes())

    @pytest.mark.parametrize("q", [float("nan"), -1.0, 0.0, float("inf")])
    def test_invalid_q_rejected(self, q):
        data = bytearray(self.make_stream()[0].to_bytes())
        q_at = 4 + 5 + 8  # magic, version/m/channels/depth, sigma
        data[q_at : q_at + 8] = struct.pack("<d", q)
        with pytest.raises(StreamError, match="q="):
            CompressedStream.from_bytes(bytes(data))

    def test_huge_dims_in_header_fail_before_allocating(self):
        grid = random_grid(np.random.default_rng(6), (4, 4))
        data = bytearray(compress(grid, Hyperparams(sigma=0.01, eta0=0.0)).to_bytes())
        dims_at = 4 + 5 + 56  # magic, version/m/channels/depth, 7 doubles
        data[dims_at : dims_at + 16] = struct.pack("<4I", *(2**20,) * 4)
        stream = CompressedStream.from_bytes(bytes(data))
        with pytest.raises(StreamError, match="mid-tree"):
            stream.decode_tree()
