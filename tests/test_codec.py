import functools
import gc
import itertools
import math
import time
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from carp import (CompressedStream, DimensionError, Hyperparams, PixelGrid,
                  ResourceError, StreamError, build_posterior, build_stats, codec,
                  compress, decompress, decompress_with_bits, default_q,
                  deserialize_tree, extract_map_tree, pad, psnr, serialize_tree,
                  target_ratio_search)
from carp.stream import axis_bit_width

from conftest import (forged_huge_dims_stream, overflowing_q_stream, random_grid,
                      stray_coefficient_stream, synthetic_photo, tableless_stream)
from test_golden import CASES as GOLDEN_CASES
import oracles
from oracles import (reference_decompress, reference_substitute_pruned_means,
                     reference_target_ratio_search)


def decode_bytes(stream):
    """codec._decode_bytes from a stream's header numbers."""
    return codec._decode_bytes(stream.dims_padded, stream.dims_original,
                               len(stream.channels), stream.tree_nbits,
                               max(ch.payload_nbits for ch in stream.channels))


def grid_of(arr, **kwargs):
    return PixelGrid.from_array(np.asarray(arr, dtype=float), **kwargs)


class TestDefaults:
    def test_q_tied_to_sigma(self):
        assert default_q(4.0) == 4.0
        assert default_q(0.01) == 0.5

    def test_requires_padded_input(self):
        grid = grid_of(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            compress(grid, Hyperparams(sigma=1.0))
        compress(pad(grid), Hyperparams(sigma=1.0))

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_q_rejected(self, q):
        # the decoder rejects these steps, so the encoder must not write them
        grid = random_grid(np.random.default_rng(5), (4, 4))
        with pytest.raises(ValueError, match="quantizer step"):
            compress(grid, Hyperparams(sigma=1.0), q=q)

    @pytest.mark.parametrize("grid,q", [
        (grid_of(np.arange(64.0).reshape(8, 8) * 4), 1e-16),
        (grid_of(np.full((64, 64), 65535.0), bit_depth=16), 1e-14),
    ], ids=["ramp", "16-bit"])
    def test_q_whose_symbols_overflow_int64_rejected(self, grid, q):
        # peak * sqrt(N) / q reaches 2^62, so a literal token 2v could leave
        # int64 and the stream would decode to other pixels
        with pytest.raises(ValueError, match="quantizer step"):
            compress(pad(grid), Hyperparams(sigma=1.0), q=q)

    def test_tiny_q_under_the_symbol_limit_round_trips(self):
        grid = pad(grid_of(np.arange(64.0).reshape(8, 8) * 4))
        stream = compress(grid, Hyperparams(sigma=1.0), q=1e-12)
        recon = decompress(CompressedStream.from_bytes(stream.to_bytes()))
        assert psnr(grid, recon) == pytest.approx(35.12, abs=0.01)


class TestEndToEnd:
    def test_constant_image_tiny_and_exact(self):
        grid = grid_of(np.full((256, 256), 137.0))
        stream = compress(grid, Hyperparams(sigma=4.0))
        assert stream.size_bytes < 0.01 * grid.raw_bytes
        recon = decompress(stream)
        np.testing.assert_array_equal(np.rint(recon.values), grid.values)

    def test_near_lossless_rms_bound(self):
        rng = np.random.default_rng(0)
        for shape in [(32, 32), (16, 64)]:
            grid = random_grid(rng, shape)
            hp = Hyperparams(sigma=0.01, eta0=0.0)
            q = default_q(hp.sigma)
            recon = decompress(compress(grid, hp))
            rms = float(np.sqrt(np.mean((recon.values - grid.values) ** 2)))
            assert rms <= q / 2 * 1.01

    def test_crops_back_to_original_dims(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (5, 11))
        recon = decompress(compress(pad(grid), Hyperparams(sigma=0.2, eta0=0.0)))
        assert recon.dims_original == (5, 11)
        assert recon.dims == (5, 11)
        assert psnr(grid, recon) > 45.0

    def test_3d_volume(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(8, 8, 8))
        vals = np.clip(np.cumsum(base, axis=0) * 5 + 100, 0, 255).round()
        grid = grid_of(vals)
        stream = compress(grid, Hyperparams(sigma=1.0))
        recon = decompress(stream)
        assert recon.dims_original == (8, 8, 8)
        assert psnr(grid, recon) > 30.0

    def test_multichannel_shares_one_tree(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (16, 16), channels=3)
        stream = compress(pad(grid), Hyperparams(sigma=0.2))
        assert len(stream.channels) == 3
        recon = decompress(stream)
        assert recon.channels == 3
        assert psnr(grid, recon) > 40.0

    def test_pruned_means_survive_the_transform(self):
        # a blockwise-constant image prunes aggressively yet reconstructs
        # its block means through the low scales alone
        vals = np.kron(np.array([[40.0, 200.0], [120.0, 80.0]]), np.ones((8, 8)))
        grid = grid_of(vals)
        stream = compress(grid, Hyperparams(sigma=2.0))
        tree = stream.decode_tree()
        assert tree.pruned_pixel_fraction() == 1.0
        recon = decompress(stream)
        np.testing.assert_array_equal(np.rint(recon.values[0]), vals)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 256, size=(32, 32)).astype(float)
        a = compress(grid_of(vals), Hyperparams(sigma=2.0)).to_bytes()
        b = compress(grid_of(vals.copy()), Hyperparams(sigma=2.0)).to_bytes()
        assert a == b

    def test_single_pixel_image(self):
        grid = grid_of(np.array([[42.0]]))
        stream = compress(grid, Hyperparams(sigma=1.0))
        assert stream.n_scales == 0
        recon = decompress(stream)
        assert float(np.rint(recon.values[0, 0, 0])) == 42.0

    def test_16bit_depth(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, (16, 16), bit_depth=16)
        stream = compress(grid, Hyperparams(sigma=0.2, eta0=0.0))
        recon = decompress(stream)
        assert recon.bit_depth == 16
        assert float(np.max(np.abs(recon.values - grid.values))) < 2.0

    def test_four_dimensional_grid(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, (4, 4, 2, 2))
        stream = compress(grid, Hyperparams(sigma=0.5))
        assert stream.m == 4
        recon = decompress(stream)
        assert recon.dims_original == (4, 4, 2, 2)
        assert psnr(grid, recon) > 40.0


class TestResources:
    def test_posterior_freed_without_gc(self, monkeypatch):
        refs = []
        build_posterior = codec.build_posterior

        def recording(*args, **kwargs):
            post = build_posterior(*args, **kwargs)
            refs.append(weakref.ref(post))
            return post

        monkeypatch.setattr(codec, "build_posterior", recording)
        grid = synthetic_photo(32, seed=4)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            compress(grid, Hyperparams(sigma=1.0))
            alive = [ref() is not None for ref in refs]
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [False]

    def test_huge_header_dims_fail_before_allocating(self):
        data = forged_huge_dims_stream()
        stream = CompressedStream.from_bytes(data)
        assert stream.decode_tree().node_counts()["pruned_leaves"] == 1
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ResourceError, match="budget"):
                decompress(data)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2**20


    @pytest.mark.parametrize("make,hp", [
        (lambda: synthetic_photo(256, seed=7), Hyperparams(sigma=2.0)),
        (lambda: synthetic_photo(512, seed=7), Hyperparams(sigma=8.0)),
        (lambda: pad(PixelGrid.from_array(synthetic_photo(512, seed=7).values[0][:300, :200])),
         Hyperparams(sigma=2.0)),
        (lambda: synthetic_photo(128, seed=7), Hyperparams(sigma=0.01, eta0=0.0)),
        (lambda: random_grid(np.random.default_rng(8), (4, 16, 32), channels=3),
         Hyperparams(sigma=1.0)),
        (lambda: random_grid(np.random.default_rng(8), (16, 32, 32)),
         Hyperparams(sigma=0.01, eta0=0.0)),
        (lambda: random_grid(np.random.default_rng(9), (64, 64), channels=3),
         Hyperparams(sigma=0.01, eta0=0.0)),
    ])
    def test_decode_budget_covers_the_traced_peak(self, make, hp):
        stream = CompressedStream.from_bytes(compress(make(), hp).to_bytes())
        decompress(stream)  # first-call allocations outside the decoder
        tracemalloc.start()
        try:
            decompress(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= decode_bytes(stream)["total"]

    @pytest.mark.parametrize("dims,channels", [
        ((1 << 23,), 3), ((2048, 4096), 3), ((32, 512, 512), 3), ((2048, 4096), 4),
    ])
    def test_decode_budget_admits_every_full_tree_the_encoder_admits(self, dims, channels):
        # a full tree of n - 1 splits, each payload at the encoder's bound of
        # ceil(log2 tokens) bits per token
        n = math.prod(dims)
        assert codec._encode_bytes(dims, channels)["total"] <= codec.DEFAULT_MAX_BYTES
        tree_nbits = (n - 1) * (1 + axis_bit_width(len(dims)))
        assert 3 * tree_nbits + 1 >= 2 * n - 1
        need = codec._decode_bytes(dims, dims, channels, tree_nbits,
                                   (n - 1) * (n - 2).bit_length())["total"]
        assert need <= codec.DEFAULT_MAX_BYTES

    def test_encoder_admits_no_grid_whose_worst_stream_the_decoder_refuses(self):
        # power-of-two grids of 2^10 to 2^27 samples in 1D to 3D with 1 to 8
        # channels; the decode bound depends on the dims only through their
        # product and count, so one order of a 3D grid's axes stands for all
        def worst_stream_bytes(dims, channels):
            n = math.prod(dims)
            return codec._decode_bytes(dims, dims, channels,
                                       (n - 1) * (1 + axis_bit_width(len(dims))),
                                       (n - 1) * max(1, (n - 2).bit_length()))

        admitted = 0
        for e in range(10, 28):
            grids = [(e,)] + [(a, e - a) for a in range(1, e)] + [
                (a, b, e - a - b) for a in range(1, e) for b in range(a, e - a)
                if b <= e - a - b]
            for exps in grids:
                dims = tuple(1 << x for x in exps)
                for channels in range(1, 9):
                    try:
                        codec._check_encode_budget(dims, channels)
                    except ResourceError:
                        break  # more channels only need more
                    admitted += 1
                    need = worst_stream_bytes(dims, channels)["total"]
                    assert need <= codec.DEFAULT_MAX_BYTES, (dims, channels)
        assert admitted > 1000
        # the encode bound alone admits these, and decoding would refuse them
        for channels in (6, 7, 8):
            assert (codec._encode_bytes((1 << 24,), channels)["total"]
                    <= codec.DEFAULT_MAX_BYTES)
            with pytest.raises(ResourceError, match="decoding 16777216 x"):
                codec._check_encode_budget((1 << 24,), channels)

    def test_decode_peak_is_little_more_than_the_planes(self):
        # the planes are the only pixel-sized allocation: no order, no
        # coefficient vector and no inverse-transform levels
        stream = compress(synthetic_photo(1024, seed=7), Hyperparams(sigma=8.0))
        decompress(stream)  # first-call allocations outside the decoder
        tracemalloc.start()
        try:
            decompress(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 1024**2

    @pytest.mark.parametrize("make,hp", [
        (lambda: pad(grid_of(synthetic_photo(64, seed=3).values[0].ravel())),
         Hyperparams(sigma=2.0)),
        (lambda: synthetic_photo(512, seed=7), Hyperparams(sigma=2.0)),
        (lambda: synthetic_photo(256, seed=7), Hyperparams(sigma=0.01, eta0=0.0)),
        (lambda: random_grid(np.random.default_rng(8), (16, 32, 32)),
         Hyperparams(sigma=0.01, eta0=0.0)),
        (lambda: random_grid(np.random.default_rng(8), (4, 16, 32), channels=3),
         Hyperparams(sigma=1.0)),
    ], ids=["1d", "2d", "2d-near-lossless", "3d-near-lossless", "3-channel"])
    def test_encode_budget_covers_the_traced_peak(self, make, hp):
        grid = make()
        compress(grid, hp)  # first-call allocations outside the encoder
        gc.collect()
        tracemalloc.start()
        try:
            compress(grid, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= codec._encode_bytes(grid.dims, grid.channels)["total"]

    @pytest.mark.parametrize("make", [
        lambda: random_grid(np.random.default_rng(8), (4096,)),
        lambda: synthetic_photo(128, seed=7),
        lambda: random_grid(np.random.default_rng(8), (16, 32, 32)),
    ], ids=["1d", "2d", "3d"])
    def test_tree_phases_stay_within_their_own_terms(self, make):
        # full near-lossless trees, the largest a grid of these dims has;
        # the posterior lattice is built before tracing starts
        grid = make()
        hp = Hyperparams(sigma=0.01, eta0=0.0)
        post = build_posterior(grid, hp)
        tree = extract_map_tree(post)
        assert len(tree.heap) == 2 * grid.values[0].size - 1
        stream = compress(grid, hp)
        parse = functools.partial(deserialize_tree, stream.tree_bits, stream.tree_nbits,
                                  grid.dims)
        parse()  # first-call allocations outside the phases
        encode = codec._encode_bytes(grid.dims, grid.channels)
        for phase, term in ((lambda: extract_map_tree(post), encode["extract"]),
                            (lambda: serialize_tree(tree), encode["serial"]),
                            (parse, decode_bytes(stream)["parse"])):
            gc.collect()
            tracemalloc.start()
            try:
                phase()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= term

    def test_encode_budget_counts_the_stats_lattice(self):
        # huffman.L_MAX relies on every encodable image of N samples having
        # N <= 2^27, since the budget counts 16 bytes per lattice block
        for dims in ((1 << 27,), (1 << 14, 1 << 13), (1 << 9, 1 << 9, 1 << 9)):
            blocks = int(np.prod([2 * d - 1 for d in dims]))
            assert codec._encode_bytes(dims, 1)["total"] >= 16 * blocks
            assert codec._encode_bytes(dims, 1)["total"] > codec.DEFAULT_MAX_BYTES
        # the 16 bytes per block alone let this image through
        assert 16 * (2 * 8192 - 1) ** 2 <= codec.DEFAULT_MAX_BYTES
        assert codec._encode_bytes((8192, 8192), 1)["total"] > codec.DEFAULT_MAX_BYTES

    def test_over_budget_encode_fails_before_allocating(self, monkeypatch):
        grid = synthetic_photo(512, seed=7)
        need = codec._encode_bytes(grid.dims, grid.channels)["total"]
        monkeypatch.setattr(codec, "DEFAULT_MAX_BYTES", need - 1)
        for encode in (lambda: compress(grid, Hyperparams(sigma=2.0)),
                       lambda: target_ratio_search(grid, Hyperparams(sigma=1.0), 20.0)):
            gc.collect()
            tracemalloc.start()
            try:
                with pytest.raises(ResourceError, match="budget"):
                    encode()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        monkeypatch.setattr(codec, "DEFAULT_MAX_BYTES", need)
        compress(grid, Hyperparams(sigma=2.0))

    def test_ratio_search_builds_stats_once(self, monkeypatch):
        calls = {"build_stats": 0, "compress": 0}
        for name in calls:
            original = getattr(codec, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(codec, name, counting)
        result = target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0),
                                     target_ratio=4.0)
        assert calls["compress"] >= 2 and calls["build_stats"] == 1
        alone = compress(synthetic_photo(32, seed=5),
                         Hyperparams(sigma=result.sigma, tau0=1.0 / result.sigma))
        assert alone.to_bytes() == result.stream.to_bytes()

    @pytest.mark.parametrize("make", [
        lambda: synthetic_photo(512, seed=7),
        lambda: random_grid(np.random.default_rng(19), (16, 64, 64), channels=3),
    ], ids=["photo512", "3-channel-volume"])
    def test_streamed_lattice_lowers_the_peak(self, make):
        # without stats, compress holds two lattice levels at a time, not
        # the whole lattice built up front
        grid = make()
        hp = Hyperparams(sigma=2.0)
        compress(grid, hp)  # first-call allocations outside the encoder

        def traced_peak(encode):
            gc.collect()
            tracemalloc.start()
            try:
                encode()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = traced_peak(lambda: compress(grid, hp))
        stored = traced_peak(lambda: compress(grid, hp, stats=build_stats(grid)))
        assert streamed <= 0.7 * stored


# every lattice dimension, a channel-sum plane (three channels), a
# fractional plane and a constant plane, for the streamed against the
# stored lattice
STREAMED_GRIDS = {
    "1d": lambda: random_grid(np.random.default_rng(40), (256,)),
    "2d": lambda: synthetic_photo(64, seed=41),
    "32x256": lambda: random_grid(np.random.default_rng(42), (32, 256)),
    "3d": lambda: random_grid(np.random.default_rng(43), (8, 16, 16)),
    "4d": lambda: random_grid(np.random.default_rng(44), (2, 4, 8, 8)),
    "3-channel": lambda: random_grid(np.random.default_rng(45), (32, 32), channels=3),
    "fractional": lambda: _half_flat((32, 32), True),
    "constant": lambda: grid_of(np.full((32, 32), 77.0)),
}


@pytest.mark.parametrize("hp", [Hyperparams(sigma=2.0), Hyperparams(sigma=0.01, eta0=0.0)],
                         ids=["s2", "near-lossless"])
@pytest.mark.parametrize("make", STREAMED_GRIDS.values(), ids=STREAMED_GRIDS.keys())
def test_streamed_and_stored_lattices_give_one_stream(make, hp):
    grid = make()
    assert compress(grid, hp).to_bytes() == compress(grid, hp, stats=build_stats(grid)).to_bytes()


def _half_flat(dims, fractional, channels=1, seed=0):
    """A grid whose first half along the last axis is nearly flat and whose
    second half is uniform noise, so MAP trees mix pruned and atomic
    leaves; fractional planes carry non-integer samples."""
    rng = np.random.default_rng(seed)
    shape = (channels,) + dims
    if fractional:
        vals = 100.0 + 0.5 * rng.random(shape)
    else:
        vals = rng.integers(100, 103, size=shape).astype(float)
    noisy = vals[..., dims[-1] // 2:]
    noisy[...] = rng.integers(0, 255, size=noisy.shape) + fractional * rng.random(noisy.shape)
    return PixelGrid(values=vals, dims_original=dims)


def _tree_order_vectors(monkeypatch, grid, sigma):
    """Per channel, the vector compress hands to haar_forward and the raster
    substitution gathered into tree order."""
    tree = codec.extract_map_tree(codec.build_posterior(grid, Hyperparams(sigma=sigma)))
    counts = tree.node_counts()
    assert counts["pruned_leaves"] and counts["atomic_leaves"]
    order = codec.permutation_from_tree(tree)
    fed = []
    original = codec.haar_forward
    monkeypatch.setattr(codec, "haar_forward",
                        lambda vector: fed.append(vector.copy()) or original(vector))
    compress(grid, Hyperparams(sigma=sigma))
    assert len(fed) == grid.channels
    return [(got, reference_substitute_pruned_means(grid.plane(c), tree).ravel()[order])
            for c, got in enumerate(fed)]


class TestTreeOrderVector:
    @pytest.mark.parametrize("dims,fractional,sigma", [
        (dims, fractional, sigma) for dims in ((256,), (32, 32), (8, 16, 32))
        for fractional in (False, True) for sigma in (0.5, 1.0)
    ] + [((64, 64, 16), False, 0.5)])
    def test_matches_the_raster_substitution(self, monkeypatch, dims, fractional, sigma):
        grid = _half_flat(dims, fractional)
        for got, want in _tree_order_vectors(monkeypatch, grid, sigma):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fractional", [False, True])
    def test_each_channel_matches(self, monkeypatch, fractional):
        grid = _half_flat((32, 32), fractional, channels=3, seed=1)
        for got, want in _tree_order_vectors(monkeypatch, grid, 1.0):
            assert np.array_equal(got, want)

    def test_large_fractional_leaf_within_an_ulp(self, monkeypatch):
        # numpy sums a raster block that is not contiguous and holds 2^15 or
        # more samples in 8192-sample buffers, one after another, while a
        # contiguous run is summed pairwise; on fractional samples the two
        # means can differ in the last bit, as the 64x64x8 flat leaf's do at
        # seed 1.  Integer samples sum exactly, so their streams never differ.
        grid = _half_flat((64, 64, 16), True, seed=1)
        for got, want in _tree_order_vectors(monkeypatch, grid, 0.5):
            np.testing.assert_allclose(got, want, rtol=np.finfo(np.float64).eps, atol=0)


# the golden cases, and photo256 from near-lossless to heavily pruned
NODE_CASES = [(name, case[:3]) for name, case in sorted(GOLDEN_CASES.items())] + [
    (f"photo256_s{sigma:g}", (None, Hyperparams(sigma=sigma), None))
    for sigma in (0.18, 0.5, 2.0, 8.0)]


@pytest.mark.parametrize("case", [case for _, case in NODE_CASES],
                         ids=[name for name, _ in NODE_CASES])
def test_nonzero_coefficients_sit_at_internal_nodes(monkeypatch, request, case):
    """The heap index of every nonzero decoded coefficient is the heap
    index of some internal node of the tree."""
    make, hp, prefix_scales = case
    grid = pad(make()) if make else request.getfixturevalue("photo256")
    data = compress(grid, hp).to_bytes()
    fed = []
    original = codec.detokenize

    def capture(*args):
        at, symbols, consumed = original(*args)
        fed.append((at, symbols))
        return at, symbols, consumed

    monkeypatch.setattr(codec, "detokenize", capture)
    decompress(data, prefix_scales=prefix_scales)
    stream = CompressedStream.from_bytes(data)
    tree = stream.decode_tree()
    nodes = tree.heap[tree.axis >= 0]
    assert len(fed) == len(stream.channels)
    nonzero = [at[symbols != 0] for at, symbols in fed]
    assert sum(map(len, nonzero))
    for at in nonzero:
        assert np.isin(at, nodes).all()


# grids from 1D to 4D, one and three channels, padded and not, half flat
# and half noise where they are generated; with sigmas from near-lossless
# to heavily pruned, their trees range from all atomic to mostly pruned
PAINT_GRIDS = {
    "1d": lambda: _half_flat((100,), False),
    "2d-odd": lambda: PixelGrid.from_array(synthetic_photo(64, seed=5).values[0][:45, :29]),
    "2d-fractional-3ch": lambda: _half_flat((16, 32), True, channels=3, seed=2),
    "3d": lambda: _half_flat((8, 8, 16), False, seed=3),
    "4d-3ch": lambda: _half_flat((4, 3, 8, 8), False, channels=3, seed=4),
}
PAINT_HPS = {
    "near-lossless": Hyperparams(sigma=0.01, eta0=0.0),
    "s0.5": Hyperparams(sigma=0.5),
    "s2": Hyperparams(sigma=2.0),
    "s2-eta1": Hyperparams(sigma=2.0, eta0=1.0),
    "s8": Hyperparams(sigma=8.0),
}


class TestPaintedDecoder:
    @staticmethod
    def _assert_matches_reference(data):
        for prefix in range(CompressedStream.from_bytes(data).n_scales + 1):
            got = decompress(data, prefix_scales=prefix).values
            want = reference_decompress(data, prefix_scales=prefix).values
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_cases_match_the_dense_decoder(self, name):
        make, hp = GOLDEN_CASES[name][:2]
        self._assert_matches_reference(compress(pad(make()), hp).to_bytes())

    @pytest.mark.parametrize("grid", sorted(PAINT_GRIDS))
    @pytest.mark.parametrize("hp", sorted(PAINT_HPS))
    def test_matches_the_dense_decoder_at_every_prefix(self, grid, hp):
        data = compress(pad(PAINT_GRIDS[grid]()), PAINT_HPS[hp]).to_bytes()
        self._assert_matches_reference(data)

    def test_builds_no_order_and_no_inverse_transform(self, monkeypatch):
        data = compress(synthetic_photo(64, seed=3), Hyperparams(sigma=1.0)).to_bytes()
        want = reference_decompress(data).values

        def refuse(*args, **kwargs):
            raise AssertionError("the decoder called a dense-path function")

        monkeypatch.setattr(codec, "permutation_from_tree", refuse)
        monkeypatch.setattr(codec, "haar_inverse", refuse)
        assert decompress(data).values.tobytes() == want.tobytes()

    def test_coefficient_off_the_internal_nodes_raises(self):
        data = stray_coefficient_stream()
        reference_decompress(data)  # the dense decoder paints it silently
        with pytest.raises(StreamError, match="no internal node"):
            decompress(data)

    @pytest.mark.parametrize("q", [1e308, 1e306])
    def test_non_finite_values_raise(self, q):
        data = overflowing_q_stream(q)
        with pytest.raises(StreamError, match="non-finite"):
            decompress(data)  # every warning is an error here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StreamError, match="non-finite"):
                decompress(data)
        assert caught == []

    def test_payload_without_code_table_raises(self):
        original, data = tableless_stream()
        with pytest.raises(StreamError, match="detail scales but no code table"):
            decompress(data)
        got = decompress(data, prefix_scales=0).values
        assert got.tobytes() == decompress(original, prefix_scales=0).values.tobytes()


class TestProgressive:
    def test_prefix_zero_is_flat_mean_level(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=1.0))
        recon = decompress(stream, prefix_scales=0)
        flat = recon.values[0]
        assert np.ptp(flat) == 0.0
        assert abs(flat[0, 0] - grid.values.mean()) <= stream.q

    def test_full_prefix_equals_full_decode(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=1.0))
        full = decompress(stream)
        prefixed = decompress(stream, prefix_scales=stream.n_scales)
        np.testing.assert_array_equal(full.values, prefixed.values)

    def test_psnr_weakly_increases(self):
        grid = synthetic_photo(64, seed=13)
        stream = compress(grid, Hyperparams(sigma=2.0))
        scores = [psnr(grid, decompress(stream, prefix_scales=k))
                  for k in range(0, stream.n_scales + 1, 2)]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 0.1

    def test_bits_used_monotone(self):
        grid = synthetic_photo(64, seed=14)
        stream = compress(grid, Hyperparams(sigma=2.0))
        bits = [decompress_with_bits(stream, prefix_scales=k)[1]
                for k in range(stream.n_scales + 1)]
        assert all(b <= a for b, a in zip(bits, bits[1:]))
        assert bits[-1] <= 8 * stream.size_bytes

    def test_invalid_prefix_rejected(self):
        rng = np.random.default_rng(7)
        stream = compress(random_grid(rng, (4, 4)), Hyperparams(sigma=1.0))
        with pytest.raises(ValueError):
            decompress(stream, prefix_scales=stream.n_scales + 1)

    def test_payload_truncated_mid_scale_raises(self):
        from carp import StreamError

        rng = np.random.default_rng(8)
        grid = random_grid(rng, (16, 16))
        stream = compress(grid, Hyperparams(sigma=0.5, eta0=0.0))
        ch = stream.channels[0]
        ch.payload_nbits -= 5
        ch.payload = ch.payload[: (ch.payload_nbits + 7) // 8]
        with pytest.raises(StreamError):
            decompress(stream)


class TestRateBehavior:
    def test_ratio_monotone_in_q_with_fixed_tree(self):
        grid = synthetic_photo(64, seed=15)
        hp = Hyperparams(sigma=4.0)
        ratios = [compress(grid, hp, q=q).compression_ratio
                  for q in (8.0, 4.0, 2.0, 1.0, 0.5)]
        for coarser, finer in zip(ratios, ratios[1:]):
            assert finer <= coarser

    def test_target_ratio_search_converges(self):
        grid = synthetic_photo(128, seed=16)
        result = target_ratio_search(grid, Hyperparams(sigma=1.0), 10.0, tol=0.1)
        assert result.converged
        assert 9.0 <= result.ratio <= 11.0
        assert result.stream.sigma == result.sigma

    def test_target_ratio_must_exceed_one(self):
        grid = synthetic_photo(64, seed=17)
        with pytest.raises(ValueError):
            target_ratio_search(grid, Hyperparams(sigma=1.0), 1.0)

    @pytest.mark.parametrize("target,tol", [
        (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
        (4.0, -0.1), (4.0, 0.0), (4.0, math.nan), (4.0, 1.0), (4.0, 1.5), (4.0, math.inf),
    ])
    def test_search_arguments_are_checked_first(self, monkeypatch, target, tol):
        # before the budget check, the statistics or any encode
        for name in ("_check_encode_budget", "build_stats", "compress"):
            monkeypatch.setattr(codec, name, None)
        with pytest.raises(ValueError, match="target ratio|tolerance"):
            target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0),
                                target, tol=tol)

    def test_constant_image_overshoots_with_warning(self):
        grid = grid_of(np.full((64, 64), 9.0))
        with pytest.warns(UserWarning, match="exceeds target"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), 3.0)
        assert not result.converged
        assert result.ratio > 3.0
        assert result.sigma == pytest.approx(1e-3)
        # sigma = 1 overshoots, the slope-1 step overshoots at the same
        # ratio, and the flat line through them passes the floor
        (_, ratio, _), _, _ = result.attempts
        assert [s for s, _, _ in result.attempts] == pytest.approx(
            [1.0, 3.0 / ratio, 1e-3])


def _pan(photo, frames, size):
    """A volume of size x size crops of photo, drifting as in a slow pan."""
    return np.stack([photo[t:t + size, 2 * t:2 * t + size] for t in range(frames)])


def _search_inputs():
    """(name, grid, target ratio) for the differential search tests."""
    cases = [(f"photo128-{seed}", synthetic_photo(128, seed=seed), 20.0)
             for seed in range(8)]
    photo256 = synthetic_photo(256, seed=7)
    cases += [("photo256-3", photo256, 3.0), ("photo256-60", photo256, 60.0),
              ("constant64-3", grid_of(np.full((64, 64), 9.0)), 3.0)]
    x = np.linspace(0.0, 1.0, 4096)
    noise = np.random.default_rng(23).normal(0.0, 4.0, x.size)
    signal = np.clip(np.rint(120 + 80 * np.sin(7 * x) + 30 * (x > 0.6) + noise), 0, 255)
    video = np.stack([_pan(synthetic_photo(64, seed=s).values[0], 8, 32) for s in (12, 13, 14)])
    cases += [("signal4096-10", grid_of(signal), 10.0),
              ("volume16x32x32-20", grid_of(_pan(synthetic_photo(64, seed=9).values[0], 16, 32)),
               20.0),
              ("video3x8x32x32-20", PixelGrid(values=video, dims_original=(8, 32, 32)), 20.0)]
    return cases


@pytest.fixture(scope="module")
def searched():
    """Per input: the package's search, the floor-first reference and the
    number of encodes the reference made."""
    out = {}
    for name, grid, target in _search_inputs():
        ref_encodes = []
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", UserWarning)
            new = target_ratio_search(grid, Hyperparams(sigma=1.0), target)
            patch.setattr(oracles, "compress",
                          lambda *a, **k: ref_encodes.append(1) or compress(*a, **k))
            ref = reference_target_ratio_search(grid, Hyperparams(sigma=1.0), target)
        out[name] = (target, new, ref, len(ref_encodes), grid)
    return out


class TestRatioSearch:
    @pytest.mark.parametrize("name", [name for name, _, _ in _search_inputs()])
    def test_matches_the_floor_first_search(self, searched, name):
        target, new, ref, ref_encodes, grid = searched[name]
        assert new.converged == ref.converged
        if new.converged:
            for ratio in (new.ratio, ref.ratio):
                assert abs(ratio - target) <= 0.1 * target
        alone = compress(grid, Hyperparams(sigma=new.sigma, tau0=1.0 / new.sigma))
        assert new.stream.to_bytes() == alone.to_bytes()
        assert (new.sigma, new.ratio) in {(s, r) for s, r, _ in new.attempts}
        if ref_encodes > 1:
            assert len(new.attempts) <= ref_encodes

    def test_floor_is_encoded_only_when_walked_down_to(self, searched):
        undershoots = 0
        for target, new, _, _, _ in searched.values():
            sigmas = [s for s, _, _ in new.attempts]
            assert sigmas[0] == 1.0
            if new.attempts[0][1] < target:
                undershoots += 1
                assert 1e-3 not in sigmas
        assert undershoots >= 8

    def test_first_midpoint_decides_when_sigma_one_overshoots(self, searched):
        # sigma = 1 overshoots; the steps down converge above the floor
        target, new, _, _, _ = searched["photo256-3"]
        assert new.attempts[0][1] > target * 1.1
        assert new.converged and new.sigma in {s for s, _, _ in new.attempts}
        assert 1e-3 not in [s for s, _, _ in new.attempts]

    _ATTEMPTED_SIGMAS = {
        "photo128-0": [1.0, 2.18262],
        "photo128-1": [1.0, 2.21436],
        "photo128-2": [1.0, 2.19727],
        "photo128-3": [1.0, 2.19971],
        "photo128-4": [1.0, 2.00806],
        "photo128-5": [1.0, 1.88354],
        "photo128-6": [1.0, 2.10693],
        "photo128-7": [1.0, 2.02271],
        "photo256-3": [1.0, 0.11797, 0.05069, 0.0673],
        "photo256-60": [1.0, 2.35931],
        "constant64-3": [1.0, 0.16113, 0.001],
        "signal4096-10": [1.0, 1.56982, 2.16296],
        "volume16x32x32-20": [1.0, 2.69775, 2.43302],
        "video3x8x32x32-20": [1.0, 3.20964, 2.56684, 2.08715, 2.308],
    }

    @pytest.mark.parametrize("name", [name for name, _, _ in _search_inputs()])
    def test_attempted_sigmas_are_pinned(self, searched, name):
        _, new, _, _, _ = searched[name]
        assert [round(s, 5) for s, _, _ in new.attempts] == self._ATTEMPTED_SIGMAS[name]

    def test_attempts_trace_every_compress_call(self, monkeypatch):
        encoded = []
        original = codec.compress

        def recording(grid, hp, *args, **kwargs):
            stream = original(grid, hp, *args, **kwargs)
            encoded.append((hp.sigma, stream.compression_ratio))
            return stream

        monkeypatch.setattr(codec, "compress", recording)
        result = target_ratio_search(synthetic_photo(128, seed=3), Hyperparams(sigma=1.0),
                                     20.0)
        assert [(s, r) for s, r, _ in result.attempts] == encoded
        assert all(ms > 0 for _, _, ms in result.attempts)
        assert (result.sigma, result.ratio) in encoded

    @pytest.mark.parametrize("grid,target,budget", [
        (synthetic_photo(128, seed=3), 20.0, 1),  # sigma = 1 gives ratio 9.1
        (grid_of(np.full((64, 64), 9.0)), 3.0, 2),  # the floor would be third
    ])
    def test_max_iter_bounds_compress_calls(self, monkeypatch, grid, target, budget):
        calls = []
        original = codec.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(codec, "compress", counting)
        monkeypatch.setattr(codec, "SEARCH_ATTEMPTS", budget)
        with pytest.warns(UserWarning, match=f"stopped after {budget} evaluations"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), target)
        assert len(calls) == len(result.attempts) == budget
        assert not result.converged

    def test_budget_can_run_out_on_the_floor(self, monkeypatch):
        # a flat image but for four pixels: sigma = 1 and the slope-1 step
        # overshoot the 1 % band at one ratio, the flat line through them
        # passes the floor, and the floor undershoots, using up three
        # attempts; the floor-first search spends the same three on the
        # floor, sigma = 1 and a midpoint, and picks the same stream
        values = np.full((64, 64), 9.0)
        values[20, 30:34] = 10.0
        grid = grid_of(values)
        calls = []
        original = codec.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(codec, "compress", counting)
        monkeypatch.setattr(codec, "SEARCH_ATTEMPTS", 3)
        with pytest.warns(UserWarning, match="stopped after 3 evaluations"):
            new = target_ratio_search(grid, Hyperparams(sigma=1.0), 17.0, tol=0.01)
        assert len(calls) == 3
        (_, ratio, _), (_, flat, _), (floor, under, _) = new.attempts
        assert flat == ratio > 17.0 * 1.01 and floor == 1e-3 and under < 17.0 * 0.99
        with pytest.warns(UserWarning, match="stopped after 3 evaluations"):
            ref = reference_target_ratio_search(grid, Hyperparams(sigma=1.0), 17.0,
                                                tol=0.01, max_iter=3)
        assert (new.sigma, new.ratio, new.converged) == (ref.sigma, ref.ratio, ref.converged)
        assert new.stream.to_bytes() == ref.stream.to_bytes()

    def test_in_band_step_returns_at_once(self):
        # sigma = 1 lands in the band below the target; stepping on to
        # sigma = 4 (ratio 89.5) would only return the sigma = 1 stream
        grid = synthetic_photo(256, seed=7)
        result = target_ratio_search(grid, Hyperparams(sigma=1.0), 26.0)
        assert len(result.attempts) == 1
        assert result.converged and result.sigma == 1.0
        assert 26.0 * 0.9 <= result.ratio < 26.0
        alone = compress(grid, Hyperparams(sigma=1.0, tau0=1.0))
        assert result.stream.to_bytes() == alone.to_bytes()

    def test_one_leaf_tree_under_the_band_ends_the_search(self, monkeypatch):
        # the signal tops out at ratio 19.32: sigma = 1, 4 and 16 give 105,
        # 23 and 5 tree bits, and sigma = 64 prunes the root, as every
        # larger sigma does, so a search for ratio 40 stops there
        grid = next(g for name, g, _ in _search_inputs() if name == "signal4096-10")
        tree_bits = []
        original = codec.compress

        def recording(*args, **kwargs):
            stream = original(*args, **kwargs)
            tree_bits.append(stream.tree_nbits)
            return stream

        monkeypatch.setattr(codec, "compress", recording)
        with pytest.warns(UserWarning, match="stopped after 4 evaluations.*one-leaf tree"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), 40.0)
        assert [round(s, 5) for s, _, _ in result.attempts] == [1.0, 4.0, 16.0, 64.0]
        assert tree_bits == [105, 23, 5, 1]
        assert not result.converged
        assert (result.sigma, result.ratio) == result.attempts[-1][:2]
        assert round(result.ratio, 2) == 19.32

    @staticmethod
    def _stub_compress(monkeypatch, ratio_of):
        """Replace compress by a stub whose stream for sigma has ratio_of(sigma)
        and a tree of more than one leaf."""
        def stub(grid, hp, q=None, stats=None):
            return types.SimpleNamespace(compression_ratio=ratio_of(hp.sigma), sigma=hp.sigma,
                                         tree_nbits=2)
        monkeypatch.setattr(codec, "compress", stub)

    def test_floor_in_band_returns_the_floor_converged(self, monkeypatch):
        # every sigma over the floor overshoots the band, the floor is in
        # it, though the overshoots are closer in log ratio (0.097 against 0.100)
        self._stub_compress(monkeypatch, lambda s: 1.81 if s <= 1e-3 else 2.203)
        result = target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0), 2.0)
        assert result.converged and result.sigma == 1e-3 and result.ratio == 1.81
        assert result.stream.sigma == 1e-3
        assert [s for s, _, _ in result.attempts][-1] == 1e-3

    def test_in_band_attempt_beats_a_closer_one_out_of_band(self, monkeypatch):
        # sigma = 1 overshoots the band at 2.203, closer in log ratio (0.097)
        # than the in-band 1.81 (0.100) of every sigma under 1
        self._stub_compress(monkeypatch, lambda s: 2.203 if s >= 1.0 else 1.81)
        result = target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0), 2.0)
        assert result.converged and result.sigma < 1.0 and result.ratio == 1.81
        assert [s for s, _, _ in result.attempts] == [1.0, result.sigma]

    def test_budget_can_run_out_on_an_in_band_attempt(self, monkeypatch):
        # the last attempt the budget allows lands in the band
        self._stub_compress(monkeypatch, lambda s: 10.0 if s >= 1.0 else 4.1)
        monkeypatch.setattr(codec, "SEARCH_ATTEMPTS", 2)
        result = target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0), 4.0)
        assert result.converged and result.sigma < 1.0 and result.ratio == 4.1
        assert len(result.attempts) == 2

    def test_passed_stats_are_used(self, monkeypatch):
        grid = synthetic_photo(64, seed=9)
        alone = target_ratio_search(grid, Hyperparams(sigma=1.0), 8.0)
        stats = codec.build_stats(grid)
        monkeypatch.setattr(codec, "build_stats", None)
        shared = target_ratio_search(grid, Hyperparams(sigma=1.0), 8.0, stats=stats)
        assert shared.stream.to_bytes() == alone.stream.to_bytes()


def _stub_curves():
    """(kind, ratio of sigma, root sigma or None) of monotone ratio curves:
    power laws a * sigma^b whose root sits at a seeded sigma in 1e-4..1e4
    for each target, staircases, and a flat curve."""
    rng = np.random.default_rng(2024)
    curves = []
    for b in np.linspace(0.2, 3.0, 8):
        for root in 10 ** rng.uniform(-4, 4, 6):
            curves.append(("power", lambda s, t, b=b, root=root: t * (s / root) ** b, root))
    for _ in range(12):
        edges = np.sort(10 ** rng.uniform(-3.5, 3, rng.integers(1, 8)))
        levels = np.sort(10 ** rng.uniform(0.05, 2.6, len(edges) + 1))
        curves.append(("stair", lambda s, t, e=edges, v=levels:
                       float(v[np.searchsorted(e, s, side="right")]), None))
    curves.append(("flat", lambda s, t: 7.0, None))
    return curves


class TestSearchRule:
    """The next-sigma rule on stubbed monotone ratio curves."""

    def test_steps_stay_in_the_bracket_and_power_laws_converge(self, monkeypatch):
        grid = synthetic_photo(32, seed=5)
        targets = np.geomspace(1.5, 200.0, 9)
        searches = 0
        for (kind, curve, root), target, tol in itertools.product(
                _stub_curves(), targets, (0.01, 0.1)):
            monkeypatch.setattr(codec, "compress", lambda g, hp, q=None, stats=None: (
                types.SimpleNamespace(compression_ratio=curve(hp.sigma, target),
                                      sigma=hp.sigma, tree_nbits=2)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                result = target_ratio_search(grid, Hyperparams(sigma=1.0), target, tol=tol,
                                             stats=object())
            searches += 1
            sigmas = [s for s, _, _ in result.attempts]
            assert len(set(sigmas)) == len(sigmas)
            assert (result.sigma, result.ratio) in {(s, r) for s, r, _ in result.attempts}
            lo, hi = 1e-3, math.inf
            for k, (sigma, ratio, _) in enumerate(result.attempts):
                if k > 0 and sigma != 1e-3:
                    assert lo < sigma < hi and (hi < math.inf or sigma <= 4 * lo)
                if ratio >= target:
                    hi = min(hi, sigma)
                else:
                    lo = max(lo, sigma)
            if kind == "power" and curve(1e-3, target) <= target * (1 + tol):
                # the line through two points of a power law meets its
                # root, so three attempts do, plus one per 4x step past 4
                assert result.converged
                assert len(sigmas) <= 3 + max(0, math.ceil(math.log(root / 4, 4)))
        assert searches == 1098
