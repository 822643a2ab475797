import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from carp import (CompressedStream, Hyperparams, PixelGrid, StreamError,
                  build_posterior, compress, decompress, extract_map_tree)
from carp.huffman import (L_MAX, build_code_lengths, canonical_codes,
                          encode_symbols, histogram)
from carp.stream import (PRIOR_FIELDS, ZERO_RUN_MAX, axis_bit_width,
                         deserialize_tree, detokenize, serialize_tree,
                         tokenize_scale)

from conftest import random_grid, same_tree, synthetic_photo
from oracles import (preorder_rows, reference_deserialize_tree, reference_detokenize,
                     reference_serialize_tree, reference_tokenize_scale, shape_index,
                     tree_to_structure)


def map_tree_for(rng, shape, sigma=4.0, eta0=0.4):
    grid = random_grid(rng, shape)
    post = build_posterior(grid, Hyperparams(sigma=sigma, eta0=eta0))
    return extract_map_tree(post)


# (shape, sigma, eta0) of MAP trees: full, pruned and one-pixel, in 1D to 3D
MAP_TREE_CASES = [((64,), 0.01, 0.0), ((16,), 4.0, 0.4), ((16, 16), 0.01, 0.0),
                  ((16, 8), 2.0, 0.4), ((8, 8, 4), 0.01, 0.0), ((4, 8, 4), 8.0, 0.4),
                  ((1,), 1.0, 0.4)]

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
        assert tree.axis[0] == 0
        bits, nbits = serialize_tree(tree)
        assert nbits == 1  # one stop bit, zero axis bits when m == 1
        assert bits == b"\x00"

    def test_pruned_root_is_one_bit(self):
        tree = map_tree_for(np.random.default_rng(1), (2,), sigma=50.0, eta0=0.999)
        assert tree.axis.tolist() == [-1]
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

    def test_cut_off_axis_bits_end_mid_tree(self):
        # the root splits on axis 0 (bits 0 00); at depth 1 the left child
        # splits and the right one stops (0 1), and the left child's 2-bit
        # axis word 10 names axis 2, of extent 1, but its second bit lies
        # past nbits, so the tree ends first
        data, dims = bytes([0b00001100]), (2, 2, 1)
        with pytest.raises(StreamError, match="mid-tree"):
            reference_deserialize_tree(data, 6, dims)
        with pytest.raises(StreamError, match="mid-tree"):
            deserialize_tree(data, 6, dims)
        with pytest.raises(StreamError, match="split axis"):
            deserialize_tree(data, 7, dims)

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
        (0b00001100, (4, 4, 1)),  # root splits on 0, then its left child on 2
    ])
    def test_undivisible_axis_raises(self, bits, dims):
        with pytest.raises(StreamError, match="split axis"):
            deserialize_tree(bytes([bits]), 8, dims)

    @pytest.mark.parametrize("depth,axis", [(30, 3), (31, 3), (31, 0)])
    def test_bad_axis_on_deep_cells_raises(self, depth, axis):
        # the root and then each level's left node split on axis 0 and the
        # right ones stop, so the left node at depth 30 has cell 2^30 on
        # axis 0, and at depth 31 cell 2^31, a single sample; the step that
        # catches axis 3 there must not overflow int64
        bits = [0, 0, 0] + [0, 1, 0, 0] * (depth - 1) + [0, 1, axis >> 1, axis & 1]
        data, dims = np.packbits(bits).tobytes(), (2**31, 2, 2)
        with pytest.raises(StreamError, match="split axis") as want:
            reference_deserialize_tree(data, len(bits), dims)
        with pytest.raises(StreamError, match=f"^{re.escape(str(want.value))}$"):
            deserialize_tree(data, len(bits), dims)

    def test_bad_axis_at_the_root_of_huge_dims_raises(self):
        # the root's cell is 1 on every axis, and axis 0 holds 2^31 samples
        dims = (2**31, 2**31, 1)
        with pytest.raises(StreamError, match=re.escape(f"axis 3 on extent {dims}")):
            deserialize_tree(bytes([0b01100000]), 3, dims)

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

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 2**31), (1,) * 128, (2**40, 2**20, 1)])
    def test_unaddressable_dims_raise(self, dims):
        with pytest.raises(StreamError, match="exceed"):
            reference_deserialize_tree(b"\x80", 1, dims)
        with pytest.raises(StreamError, match="exceed"):
            deserialize_tree(b"\x80", 1, dims)


class TestLevelOrder:
    """MapTree rows and tree bits are both in level order (by depth, then
    by position), which is ascending heap order.  serialize_tree reads the
    levels off the rows, so the rows of both producers, extraction and
    parsing, must be in that order."""

    @staticmethod
    def rows(tree):
        return [tree.cell, tree.heap, tree.axis]

    @pytest.mark.parametrize("shape,sigma,eta0", MAP_TREE_CASES)
    def test_extracted_and_parsed_rows_are_in_level_order(self, shape, sigma, eta0):
        rng = np.random.default_rng(len(shape) + int(sigma))
        for _ in range(3):
            tree = map_tree_for(rng, shape, sigma=sigma, eta0=eta0)
            parsed = deserialize_tree(*serialize_tree(tree), tree.dims_padded)
            j_total = sum(int(n).bit_length() - 1 for n in tree.dims_padded)
            for t in (tree, parsed):
                assert (np.diff(t.heap) > 0).all()
                # depth d, from the block size, is the heap range [2^d, 2^(d+1))
                depth = j_total - shape_index(t)[0].sum(axis=1)
                assert ((t.heap >> depth) == 1).all()
                assert np.diff(t.level_starts()).tolist() == np.bincount(
                    depth, minlength=j_total + 1).tolist()
                pruned = (t.axis < 0) & (depth < j_total)
                assert t.node_counts()["pruned_leaves"] == np.count_nonzero(pruned)
                assert t.pruned_pixel_fraction() == np.sum(
                    1 << (j_total - depth[pruned])) / np.prod(t.dims_padded)

    @pytest.mark.parametrize("shape,sigma,eta0", MAP_TREE_CASES)
    def test_parsing_returns_the_serialized_rows_unsorted(self, shape, sigma, eta0):
        rng = np.random.default_rng(len(shape) + int(sigma))
        for _ in range(3):
            tree = map_tree_for(rng, shape, sigma=sigma, eta0=eta0)
            back = deserialize_tree(*serialize_tree(tree), tree.dims_padded)
            assert back.dims_padded == tree.dims_padded
            for got, want in zip(self.rows(back), self.rows(tree)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape,sigma,eta0", MAP_TREE_CASES)
    def test_both_producers_serialize_as_the_reference(self, shape, sigma, eta0):
        rng = np.random.default_rng(len(shape) + int(sigma))
        for _ in range(3):
            tree = map_tree_for(rng, shape, sigma=sigma, eta0=eta0)
            bits = serialize_tree(tree)
            assert bits == reference_serialize_tree(tree_to_structure(tree),
                                                    tree.dims_padded)
            assert serialize_tree(deserialize_tree(*bits, tree.dims_padded)) == bits

    def test_rows_out_of_level_order_raise(self):
        grid = synthetic_photo(32, seed=3)
        tree = extract_map_tree(build_posterior(grid, Hyperparams(sigma=1.0)))
        assert serialize_tree(tree) == reference_serialize_tree(tree_to_structure(tree),
                                                                tree.dims_padded)
        with pytest.raises(ValueError, match="level order"):
            serialize_tree(preorder_rows(tree))


class TestTokens:
    def test_literals_and_runs(self):
        symbols = np.array([0, 0, 0, 5, -2, 0], dtype=np.int64)
        assert tokenize_scale(symbols).tolist() == [2 * 3 - 1, 10, -4, 1]

    def test_long_runs_are_chunked(self):
        symbols = np.zeros(ZERO_RUN_MAX + 10, dtype=np.int64)
        tokens = tokenize_scale(symbols)
        assert tokens.tolist() == [2 * ZERO_RUN_MAX - 1, 2 * 10 - 1]

    def test_no_zero_literals(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(-3, 4, size=500).astype(np.int64)
        for token in tokenize_scale(symbols):
            assert token != 0
            if token % 2 == 0:
                assert token // 2 != 0


def _encoded(tokens, extra=()):
    """(table, payload, nbits) coding tokens with a table that also holds
    the symbols in extra."""
    freqs = histogram(list(tokens) + list(extra))
    lengths = build_code_lengths(freqs)
    payload, nbits = encode_symbols(tokens, canonical_codes(lengths))
    return lengths, payload, nbits


def dense(at, symbols, n_scales):
    """The 2^n_scales - 1 detail coefficients from detokenize's nonzero
    ones, which sit at heap indices 1 on."""
    assert np.all(at >= 1)
    out = np.zeros(1 << n_scales, dtype=np.int64)
    out[at] = symbols
    return out[1:]


class TestDetokenize:
    def test_runs_and_literals(self):
        lengths, payload, nbits = _encoded([1, 3, 4, 3, 6])
        at, symbols, used = detokenize(lengths, payload, nbits, 3)
        assert dense(at, symbols, 3).tolist() == [0, 0, 0, 2, 0, 0, 3]
        assert used == nbits

    @pytest.mark.parametrize("tokens", [[-1, 2, 2], [-5, 4], [-3]])
    def test_non_positive_runs_raise(self, tokens):
        lengths, payload, nbits = _encoded(tokens)
        with pytest.raises(StreamError, match="zero run"):
            detokenize(lengths, payload, nbits, 1)

    def test_runs_must_not_cross_scales(self):
        lengths, payload, nbits = _encoded([3, 2])
        with pytest.raises(StreamError, match="crosses"):
            detokenize(lengths, payload, nbits, 2)


def _random_scales(rng, n_scales):
    """Quantized symbols for n_scales scales, sparse at random."""
    density = rng.choice([0.0, 0.05, 0.5, 1.0])
    values = rng.integers(-6, 7, size=(1 << n_scales) - 1)
    return values * (rng.random(len(values)) < density)


class TestBulkPathsMatchReference:
    def test_detokenize_on_random_payloads(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            n_scales = int(rng.integers(1, 9))
            symbols = _random_scales(rng, n_scales)
            tokens = [t for j in range(n_scales)
                      for t in tokenize_scale(symbols[(1 << j) - 1 : (2 << j) - 1])]
            extra = rng.integers(-20, 20, size=int(rng.integers(0, 4))).tolist()
            lengths, payload, nbits = _encoded(tokens, extra)
            kind = trial % 4
            if kind == 1:  # truncated
                nbits = int(rng.integers(0, nbits + 1))
            elif kind == 2:  # random bits after a valid prefix
                tail = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
                payload = payload[: len(payload) // 2] + tail
                nbits = 8 * len(payload)
            elif kind == 3:  # a run token that crosses a scale
                lengths, payload, nbits = _encoded([1, 5, 2, 2, 2, 2], extra)
            for prefix in range(n_scales + 1):
                try:
                    want = reference_detokenize(lengths, payload, nbits, prefix)
                except StreamError:
                    with pytest.raises(StreamError):
                        detokenize(lengths, payload, nbits, prefix)
                    continue
                at, values, used = detokenize(lengths, payload, nbits, prefix)
                got = dense(at, values, prefix).tolist()
                assert got == want[0].tolist() and used == want[1]
                if kind == 0 and prefix == n_scales:
                    assert got == symbols.tolist() and used == nbits

    @pytest.mark.parametrize("shape,sigma,eta0", MAP_TREE_CASES)
    def test_tree_parser_on_map_trees(self, shape, sigma, eta0):
        rng = np.random.default_rng(len(shape) + int(sigma))
        for _ in range(3):
            tree = map_tree_for(rng, shape, sigma=sigma, eta0=eta0)
            bits, nbits = serialize_tree(tree)
            want = reference_deserialize_tree(bits, nbits, tree.dims_padded)
            assert same_tree(deserialize_tree(bits, nbits, tree.dims_padded), want)
            assert same_tree(want, tree)

    @pytest.mark.parametrize("shape,sigma,eta0", [
        ((16, 16), 0.01, 0.0), ((16, 16), 2.0, 0.4),
        ((8, 8, 4), 0.01, 0.0), ((8, 8, 4), 2.0, 0.4), ((64,), 0.01, 0.0)])
    def test_tree_parser_on_mutated_map_trees(self, shape, sigma, eta0):
        # random bytes rarely reach deep levels; one flipped bit or a cut
        # in a MAP tree's bits leaves a long valid prefix before it
        tree = map_tree_for(np.random.default_rng(len(shape)), shape, sigma=sigma, eta0=eta0)
        bits, nbits = serialize_tree(tree)
        flips = []
        for i in range(nbits):
            data = bytearray(bits)
            data[i // 8] ^= 0x80 >> (i % 8)
            flips.append((bytes(data), nbits))
        cuts = [(bits[: (n + 7) // 8], n) for n in range(nbits)]
        outcomes = set()
        for data, n in flips + cuts:
            try:
                want = reference_deserialize_tree(data, n, tree.dims_padded)
            except StreamError as exc:
                # the same kind of error: a bad axis is found first even
                # when the bits after it end mid-tree
                outcome = " ".join(str(exc).split()[2:4])
                outcomes.add(outcome)
                with pytest.raises(StreamError, match=outcome):
                    deserialize_tree(data, n, tree.dims_padded)
                continue
            outcomes.add("parsed")
            assert same_tree(deserialize_tree(data, n, tree.dims_padded), want)
        expected = {"end mid-tree", "bits after"}
        if len(shape) > 1:  # with m = 1 there are no axis bits to be bad
            expected.add("split axis")
        assert expected <= outcomes

    @pytest.mark.parametrize("dims", [(8,), (8, 4), (4, 4, 4), (2, 2, 2, 2, 2)])
    def test_tree_parser_on_random_bits(self, dims):
        rng = np.random.default_rng(len(dims))
        outcomes = set()
        for _ in range(300):
            data = rng.integers(0, 256, size=int(rng.integers(0, 6)),
                                dtype=np.uint8).tobytes()
            nbits = int(rng.integers(0, 8 * len(data) + 1))
            try:
                want = reference_deserialize_tree(data, nbits, dims)
            except StreamError as exc:
                outcomes.add(str(exc).split()[0])
                with pytest.raises(StreamError):
                    deserialize_tree(data, nbits, dims)
                continue
            outcomes.add("parsed")
            assert same_tree(deserialize_tree(data, nbits, dims), want)
        assert "parsed" in outcomes and len(outcomes) >= 3

    def test_tokenizer_on_random_sparse_vectors(self):
        rng = np.random.default_rng(22)
        for trial in range(60):
            n = int(rng.choice([1, 7, 300, 3 * ZERO_RUN_MAX + 5]))
            symbols = np.zeros(n, dtype=np.int64)
            hits = rng.random(n) < rng.choice([0.0, 1e-5, 0.01, 0.5, 1.0])
            symbols[hits] = rng.choice([-9, -1, 1, 4], size=int(hits.sum()))
            if trial % 5 == 0 and n > 2 * ZERO_RUN_MAX:
                symbols[:] = 0
                symbols[ZERO_RUN_MAX] = 3  # a run of exactly ZERO_RUN_MAX first
            tokens = tokenize_scale(symbols)
            assert tokens.tolist() == reference_tokenize_scale(symbols)
            assert tokens.dtype == np.int64


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
        assert back.prior == stream.prior
        assert same_tree(back.decode_tree(), stream.decode_tree())

    def test_bad_magic(self):
        data = bytearray(self.make_stream()[0].to_bytes())
        data[:4] = b"JUNK"
        with pytest.raises(StreamError, match="magic"):
            CompressedStream.from_bytes(bytes(data))

    def test_bad_version(self):
        data = bytearray(self.make_stream()[0].to_bytes())
        for version in (1, 99):  # version 1 laid the tree bits out in preorder
            data[4] = version
            with pytest.raises(StreamError, match="version"):
                CompressedStream.from_bytes(bytes(data))

    def test_truncation(self):
        data = self.make_stream()[0].to_bytes()
        with pytest.raises(StreamError):
            CompressedStream.from_bytes(data[: len(data) - 3])

    @pytest.mark.parametrize("cut", [0, 4, 9, 13])
    def test_truncated_table(self, cut):
        stream, _ = self.make_stream(shape=(16, 16), sigma=1.0)
        data = stream.to_bytes()[: self._table_at(stream) + cut]
        with pytest.raises(StreamError, match="truncated"):
            CompressedStream.from_bytes(data)

    @pytest.mark.parametrize("forgery", ["duplicate", "swapped"])
    def test_table_symbols_not_ascending_rejected(self, forgery):
        # to_bytes lists a code table's symbols in ascending order, once each
        stream, _ = self.make_stream(shape=(16, 16), sigma=1.0)
        data = bytearray(stream.to_bytes())
        at = self._table_at(stream)
        assert len(stream.channels[0].code_lengths) >= 2
        if forgery == "duplicate":  # entry 1 repeats entry 0's symbol
            data[at + 9 : at + 17] = data[at : at + 8]
        else:  # the same code with entries 0 and 1 swapped
            data[at : at + 18] = data[at + 9 : at + 18] + data[at : at + 9]
        with pytest.raises(StreamError, match="strictly ascending"):
            CompressedStream.from_bytes(bytes(data))

    @pytest.mark.parametrize("at,fmt,value", [
        (5, "<B", 0),      # m
        (6, "<H", 0),      # channels
        (8, "<B", 0), (8, "<B", 12), (8, "<B", 32),  # bit depth
    ])
    def test_invalid_header_counts_rejected(self, at, fmt, value):
        data = bytearray(self.make_stream()[0].to_bytes())
        struct.pack_into(fmt, data, at, value)
        with pytest.raises(StreamError, match="invalid header"):
            CompressedStream.from_bytes(bytes(data))

    @pytest.mark.parametrize("field,value", [
        (field, value) for field in ("sigma",) + PRIOR_FIELDS
        for value in (2.0, -1.0, float("nan"))] + [("sigma", 1e-9)])
    def test_unused_header_fields_leave_the_pixels(self, field, value):
        # the decoder reads q, never sigma or the prior
        stream, _ = self.make_stream(channels=2)
        data = bytearray(stream.to_bytes())
        at = 4 + 5 + 8 * ("sigma", "q", *PRIOR_FIELDS).index(field)
        data[at : at + 8] = struct.pack("<d", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = decompress(bytes(data))
        assert np.array_equal(got.values, decompress(stream).values)

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

    @pytest.mark.parametrize("tail", [b"\0", b"junk"])
    def test_trailing_bytes_rejected(self, tail):
        data = self.make_stream()[0].to_bytes()
        with pytest.raises(StreamError, match=f"{len(tail)} trailing bytes"):
            CompressedStream.from_bytes(data + tail)

    @pytest.mark.parametrize("length", [0, 200, L_MAX + 1])
    def test_code_length_out_of_range_rejected(self, length):
        # without the check, length 0 decodes silently to other pixels
        ramp = PixelGrid.from_array((np.arange(64) * 3.0).reshape(8, 8))
        stream = compress(ramp, Hyperparams(sigma=1.0))
        data = bytearray(stream.to_bytes())
        data[self._table_at(stream) + 8] = length
        with pytest.raises(StreamError, match="code length"):
            CompressedStream.from_bytes(bytes(data))

    def test_kraft_violation_rejected(self):
        stream, _ = self.make_stream(shape=(16, 16), sigma=1.0)
        data = bytearray(stream.to_bytes())
        entries = len(stream.channels[0].code_lengths)
        for k in range(entries):  # every code length 1
            data[self._table_at(stream) + 9 * k + 8] = 1
        with pytest.raises(StreamError, match="Kraft"):
            CompressedStream.from_bytes(bytes(data))

    @staticmethod
    def _table_at(stream):
        """Offset of the first channel's first (symbol, length) entry."""
        return (4 + 5 + 56 + 8 * stream.m + 4 + len(stream.tree_bits)
                + 8 + 4)

    def test_huge_dims_in_header_fail_before_allocating(self):
        grid = random_grid(np.random.default_rng(6), (4, 4))
        data = bytearray(compress(grid, Hyperparams(sigma=0.01, eta0=0.0)).to_bytes())
        dims_at = 4 + 5 + 56  # magic, version/m/channels/depth, 7 doubles
        data[dims_at : dims_at + 16] = struct.pack("<4I", *(2**20,) * 4)
        stream = CompressedStream.from_bytes(bytes(data))
        with pytest.raises(StreamError, match="mid-tree"):
            stream.decode_tree()
