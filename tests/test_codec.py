import functools
import gc
import math
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from carp import (CompressedStream, DimensionError, Hyperparams, PixelGrid,
                  ResourceError, StreamError, build_posterior, codec, compress, crop,
                  decompress, decompress_with_bits, default_q, deserialize_tree,
                  extract_map_tree, pad, psnr, serialize_tree,
                  target_ratio_search)
from carp.stream import PRIOR_FIELDS, ChannelPayload, axis_bit_width

from conftest import (forged_huge_dims_stream, random_grid, stray_coefficient_stream,
                      synthetic_photo)
from test_golden import CASES as GOLDEN_CASES
from oracles import (reference_decompress, reference_substitute_pruned_means,
                     reference_target_ratio_search)


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
        assert peak <= codec._decode_bytes(stream)["total"]

    @pytest.mark.parametrize("dims,channels", [
        ((1 << 23,), 3), ((2048, 4096), 3), ((32, 512, 512), 3), ((2048, 4096), 4),
    ])
    def test_decode_budget_admits_every_full_tree_the_encoder_admits(self, dims, channels):
        # a full tree of n - 1 splits, each payload at the encoder's bound of
        # ceil(log2 tokens) bits per token
        n = math.prod(dims)
        assert codec._encode_bytes(dims, channels)["total"] <= codec.DEFAULT_MAX_BYTES
        payload = ChannelPayload(scaling_symbol=0, code_lengths={}, payload=b"",
                                 payload_nbits=(n - 1) * (n - 2).bit_length())
        stream = CompressedStream(
            dims_original=dims, dims_padded=dims, bit_depth=8, sigma=1.0, q=1.0,
            prior=(0.0,) * len(PRIOR_FIELDS), tree_bits=b"",
            tree_nbits=(n - 1) * (1 + axis_bit_width(len(dims))),
            channels=[payload] * channels)
        assert 3 * stream.tree_nbits + 1 >= 2 * n - 1
        assert codec._decode_bytes(stream)["total"] <= codec.DEFAULT_MAX_BYTES

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
        assert len(tree.pos) == 2 * grid.values[0].size - 1
        stream = compress(grid, hp)
        parse = functools.partial(deserialize_tree, stream.tree_bits, stream.tree_nbits,
                                  grid.dims)
        parse()  # first-call allocations outside the phases
        encode = codec._encode_bytes(grid.dims, grid.channels)
        for phase, term in ((lambda: extract_map_tree(post), encode["extract"]),
                            (lambda: serialize_tree(tree), encode["serial"]),
                            (parse, codec._decode_bytes(stream)["parse"])):
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
    """The heap index of every nonzero decoded coefficient is
    2^d + (pos >> (J - d)) for some internal node at depth d of the tree."""
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
    size_exp = tree.shape.sum(axis=1)[tree.axis >= 0]
    depth = stream.n_scales - size_exp
    nodes = (1 << depth) + (tree.pos[tree.axis >= 0] >> size_exp)
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

    def test_constant_image_overshoots_with_warning(self):
        grid = grid_of(np.full((64, 64), 9.0))
        with pytest.warns(UserWarning, match="exceeds target"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), 3.0)
        assert not result.converged
        assert result.ratio > 3.0
        assert result.sigma == pytest.approx(1e-3)
        # sigma = 1 and the first midpoint overshoot, then the floor
        assert [s for s, _, _ in result.attempts] == pytest.approx(
            [1.0, math.sqrt(1e-3), 1e-3])


def _search_inputs():
    """(name, grid, target ratio) for the differential search tests."""
    cases = [(f"photo128-{seed}", synthetic_photo(128, seed=seed), 20.0)
             for seed in range(8)]
    photo256 = synthetic_photo(256, seed=7)
    cases += [("photo256-3", photo256, 3.0), ("photo256-60", photo256, 60.0),
              ("constant64-3", grid_of(np.full((64, 64), 9.0)), 3.0)]
    return cases


@pytest.fixture(scope="module")
def searched():
    """Per input: the package's search and the floor-first reference."""
    out = {}
    for name, grid, target in _search_inputs():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            new = target_ratio_search(grid, Hyperparams(sigma=1.0), target)
            ref = reference_target_ratio_search(grid, Hyperparams(sigma=1.0), target)
        out[name] = (target, new, ref)
    return out


class TestRatioSearch:
    @pytest.mark.parametrize("name", [name for name, _, _ in _search_inputs()])
    def test_matches_the_floor_first_search(self, searched, name):
        _, new, ref = searched[name]
        assert new.sigma == ref.sigma
        assert new.converged == ref.converged
        assert new.ratio == ref.ratio
        assert new.stream.to_bytes() == ref.stream.to_bytes()

    def test_floor_is_encoded_only_when_walked_down_to(self, searched):
        undershoots = 0
        for target, new, _ in searched.values():
            sigmas = [s for s, _, _ in new.attempts]
            assert sigmas[0] == 1.0
            if new.attempts[0][1] < target:
                undershoots += 1
                assert 1e-3 not in sigmas
        assert undershoots >= 8

    def test_first_midpoint_decides_when_sigma_one_overshoots(self, searched):
        target, new, _ = searched["photo256-3"]
        assert new.attempts[0][1] > target * 1.1
        assert new.converged and new.sigma in {s for s, _, _ in new.attempts}
        assert 1e-3 not in [s for s, _, _ in new.attempts]

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

    @pytest.mark.parametrize("grid,target", [
        (synthetic_photo(128, seed=3), 20.0),
        (grid_of(np.full((64, 64), 9.0)), 3.0),  # the floor would be third
    ])
    def test_max_iter_bounds_compress_calls(self, monkeypatch, grid, target):
        calls = []
        original = codec.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(codec, "compress", counting)
        with pytest.warns(UserWarning, match="stopped after 2 evaluations"):
            result = target_ratio_search(grid, Hyperparams(sigma=1.0), target, max_iter=2)
        assert len(calls) == len(result.attempts) == 2
        assert not result.converged

    def test_budget_can_run_out_on_the_floor(self, monkeypatch):
        # sigma = 1 and the midpoint overshoot the 1 % band and the floor
        # undershoots it, using up three attempts, as the floor-first
        # search does with the same three
        grid = synthetic_photo(256, seed=7)
        calls = []
        original = codec.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(codec, "compress", counting)
        with pytest.warns(UserWarning, match="stopped after 3 evaluations"):
            new = target_ratio_search(grid, Hyperparams(sigma=1.0), 1.42, tol=0.01,
                                      max_iter=3)
        assert len(calls) == 3
        assert [s for s, _, _ in new.attempts] == [1.0, math.sqrt(1e-3), 1e-3]
        with pytest.warns(UserWarning, match="stopped after 3 evaluations"):
            ref = reference_target_ratio_search(grid, Hyperparams(sigma=1.0), 1.42,
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

    def test_max_iter_must_allow_one_attempt(self):
        with pytest.raises(ValueError, match="max_iter"):
            target_ratio_search(synthetic_photo(32, seed=5), Hyperparams(sigma=1.0),
                                4.0, max_iter=0)

    def test_passed_stats_are_used(self, monkeypatch):
        grid = synthetic_photo(64, seed=9)
        alone = target_ratio_search(grid, Hyperparams(sigma=1.0), 8.0)
        stats = codec.build_stats(grid)
        monkeypatch.setattr(codec, "build_stats", None)
        shared = target_ratio_search(grid, Hyperparams(sigma=1.0), 8.0, stats=stats)
        assert shared.stream.to_bytes() == alone.stream.to_bytes()
