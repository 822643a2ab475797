import numpy as np
import pytest

from carp import DimensionError, ParseError, PixelGrid, crop, load, pad, save
from carp.grid import load_pgm, original_region, save_pgm

from conftest import random_grid


class TestPgm:
    def test_parse_2x2(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        grid = load(str(path))
        assert grid.dims_original == (2, 2)
        assert grid.bit_depth == 8
        assert grid.channels == 1
        np.testing.assert_array_equal(grid.values[0], [[1, 2], [3, 4]])

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n 2\t1 # trailing\n255\n" + bytes([9, 7]))
        grid = load(str(path))
        assert grid.dims_original == (1, 2)
        np.testing.assert_array_equal(grid.values[0], [[9, 7]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"")
        with pytest.raises(ParseError):
            load(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ParseError):
            load(str(path))

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DimensionError):
            load(str(path))

    def test_16bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, (5, 9), bit_depth=16)
        path = tmp_path / "deep.pgm"
        save(grid, str(path))
        back = load_pgm(str(path))
        assert back.bit_depth == 16
        np.testing.assert_array_equal(back.values, grid.values)

    def test_8bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (7, 3))
        path = tmp_path / "img.pgm"
        save_pgm(grid, str(path))
        np.testing.assert_array_equal(load(str(path)).values, grid.values)


class TestRaw:
    def test_volume_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (16, 16, 16), bit_depth=16)
        path = tmp_path / "vol.raw"
        save(grid, str(path))
        back = load(str(path))
        assert back.dims_original == (16, 16, 16)
        assert back.ndim_spatial == 3
        np.testing.assert_array_equal(back.values, grid.values)

    def test_multichannel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (6, 10), channels=3)
        path = tmp_path / "rgbish.raw"
        save(grid, str(path))
        back = load(str(path))
        assert back.channels == 3
        np.testing.assert_array_equal(back.values, grid.values)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(bytes(10))
        (tmp_path / "bad.raw.meta").write_text(
            "ndim=2\ndims=4,4\nbit_depth=8\nchannels=1\n")
        with pytest.raises(DimensionError):
            load(str(path))

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.raw"
        path.write_bytes(bytes(4))
        with pytest.raises(ParseError):
            load(str(path))


class TestPadCrop:
    def test_pad_noop_on_power_of_two(self):
        grid = PixelGrid.from_array(np.arange(4.0).reshape(2, 2))
        assert pad(grid).values is grid.values or np.array_equal(
            pad(grid).values, grid.values)
        assert pad(grid).dims == (2, 2)

    def test_pad_replicates_edges(self):
        grid = PixelGrid.from_array(np.array([5.0, 6.0, 7.0]))
        padded = pad(grid)
        assert padded.dims == (4,)
        np.testing.assert_array_equal(padded.values[0], [5, 6, 7, 7])

    def test_pad_targets_next_powers(self):
        grid = PixelGrid.from_array(np.zeros((3, 5)))
        assert pad(grid).dims == (4, 8)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 5), (5, 2, 3)])
    def test_crop_pad_roundtrip(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        grid = random_grid(rng, shape)
        back = crop(pad(grid), grid.dims_original)
        np.testing.assert_array_equal(back.values, grid.values)
        np.testing.assert_array_equal(original_region(pad(grid)).values, grid.values)
        assert original_region(grid) is grid

    def test_pad_preserves_original_pixels(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, (3, 6))
        padded = pad(grid)
        region = tuple(slice(0, d) for d in grid.dims_original)
        np.testing.assert_array_equal(padded.values[(slice(None),) + region],
                                      grid.values)

    def test_crop_full_extent_is_identity(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, (4, 4))
        np.testing.assert_array_equal(crop(grid, (4, 4)).values, grid.values)

    def test_crop_beyond_extent_fails(self):
        grid = PixelGrid.from_array(np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            crop(grid, (8, 4))


class TestPixelGrid:
    def test_values_are_immutable(self):
        grid = PixelGrid.from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            grid.values[0, 0, 0] = 1.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PixelGrid.from_array(np.array([[300.0]]), bit_depth=8)

    def test_raw_bytes(self):
        grid = PixelGrid.from_array(np.zeros((4, 8)), bit_depth=16)
        assert grid.raw_bytes == 4 * 8 * 2

    def test_mean_plane(self):
        vals = np.stack([np.full((2, 2), 10.0), np.full((2, 2), 30.0)])
        grid = PixelGrid(values=vals, dims_original=(2, 2))
        np.testing.assert_array_equal(grid.mean_plane(), np.full((2, 2), 20.0))
