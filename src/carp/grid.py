"""Pixel grid container and image file I/O.

A :class:`PixelGrid` holds an m-dimensional intensity array with one or more
channels.  Intensities are kept as float64 internally; rounding back to
integers happens only when an image file is written.  Two interchange formats
are supported:

* binary PGM (``P5``) for 2D grayscale images, and
* a raw little-endian payload with a small UTF-8 ``key=value`` sidecar
  (``ndim``, ``dims``, ``bit_depth``, ``channels``) for anything else.

Grids are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParseError


def next_pow2(x: int) -> int:
    """Smallest power of two that is >= x."""
    if x < 1:
        raise ValueError(f"dimension must be positive, got {x}")
    return 1 << (x - 1).bit_length() if x > 1 else 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only so PixelGrid can adopt it."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PixelGrid:
    """Immutable m-dimensional image.

    values has shape (channels, *dims) where dims is either the original
    extent (fresh from :func:`load`) or the padded power-of-two extent
    (after :func:`pad`).  dims_original is preserved so a decoder can crop
    back to the source size.
    """

    values: np.ndarray
    dims_original: tuple[int, ...]
    bit_depth: int = 8

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != len(self.dims_original) + 1:
            raise DimensionError(
                f"values must have shape (channels, *dims); got ndim {vals.ndim} "
                f"for {len(self.dims_original)} spatial axes"
            )
        if self.bit_depth not in (8, 16):
            raise ValueError(f"bit_depth must be 8 or 16, got {self.bit_depth}")
        if any(d < 1 for d in self.dims_original):
            raise DimensionError(f"dims must be positive, got {self.dims_original}")
        if any(p < o for p, o in zip(vals.shape[1:], self.dims_original)):
            raise DimensionError(
                f"stored dims {vals.shape[1:]} smaller than original {self.dims_original}"
            )
        peak = float(2**self.bit_depth - 1)
        if vals.size and (vals.min() < 0.0 or vals.max() > peak):
            raise ValueError(
                f"intensities outside [0, {peak}]: range "
                f"[{vals.min()}, {vals.max()}]"
            )
        if vals.flags.writeable:  # never freeze a buffer the caller still owns
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dims_original", tuple(int(d) for d in self.dims_original))

    @classmethod
    def from_array(cls, array: np.ndarray, bit_depth: int = 8,
                   channels: int | None = None) -> "PixelGrid":
        """Wrap a bare array.  Without an explicit channel count the whole
        array is treated as a single-channel image."""
        arr = np.asarray(array, dtype=np.float64)
        if channels is None:
            arr = arr[np.newaxis, ...]
        elif arr.shape[0] != channels:
            raise DimensionError(f"leading axis {arr.shape[0]} != channels {channels}")
        return cls(values=arr, dims_original=arr.shape[1:], bit_depth=bit_depth)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        """Current spatial extent (padded once :func:`pad` has run)."""
        return self.values.shape[1:]

    @property
    def ndim_spatial(self) -> int:
        return len(self.dims_original)

    @property
    def dims_padded(self) -> tuple[int, ...]:
        """Target power-of-two extent for each axis."""
        return tuple(next_pow2(d) for d in self.dims_original)

    @property
    def is_padded(self) -> bool:
        return self.dims == self.dims_padded

    @property
    def peak(self) -> float:
        return float(2**self.bit_depth - 1)

    @property
    def raw_bytes(self) -> int:
        """Size of the uncompressed sample payload on disk."""
        samples = self.channels * int(np.prod(self.dims_original))
        return samples * (1 if self.bit_depth == 8 else 2)

    def plane(self, channel: int) -> np.ndarray:
        return self.values[channel]

    def mean_plane(self) -> np.ndarray:
        """Per-pixel mean across channels (used for shared tree inference)."""
        if self.channels == 1:
            return self.values[0]
        return self.values.mean(axis=0)

    def to_int_array(self) -> np.ndarray:
        """Round and clip to the integer sample grid, as written to files."""
        dtype = np.uint8 if self.bit_depth == 8 else np.uint16
        return np.clip(np.rint(self.values), 0, self.peak).astype(dtype)


def pad(grid: PixelGrid) -> PixelGrid:
    """Extend every axis to the next power of two by edge replication.

    Edge replication (rather than zero fill) keeps the padded border free of
    artificial intensity jumps that would otherwise leak high-frequency
    energy into the border blocks.
    """
    target = grid.dims_padded
    if grid.dims == target:
        return grid
    widths = [(0, 0)] + [(0, t - c) for c, t in zip(grid.dims, target)]
    padded = _freeze(np.pad(grid.values, widths, mode="edge"))
    return PixelGrid(values=padded, dims_original=grid.dims_original,
                     bit_depth=grid.bit_depth)


def crop(grid: PixelGrid, dims: tuple[int, ...] | list[int]) -> PixelGrid:
    """Keep the lower-corner region of the given extent (inverse of pad)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != grid.ndim_spatial:
        raise DimensionError(f"crop rank {len(dims)} != grid rank {grid.ndim_spatial}")
    if any(d > c for d, c in zip(dims, grid.dims)):
        raise DimensionError(f"crop {dims} exceeds stored extent {grid.dims}")
    sl = (slice(None),) + tuple(slice(0, d) for d in dims)
    return PixelGrid(values=_freeze(grid.values[sl].copy()),
                     dims_original=tuple(min(o, d) for o, d in zip(grid.dims_original, dims)),
                     bit_depth=grid.bit_depth)


def original_region(grid: PixelGrid) -> PixelGrid:
    """The grid cropped back to its original extent; itself if unpadded."""
    return grid if grid.dims == grid.dims_original else crop(grid, grid.dims_original)


# ---------------------------------------------------------------------------
# PGM (P5)
# ---------------------------------------------------------------------------

def _pgm_tokens(data: bytes, count: int, path: str) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens after the magic,
    skipping '#' comments.  Returns (tokens, offset of binary payload)."""
    tokens: list[int] = []
    i = 2  # past "P5"
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ParseError(f"{path}: truncated PGM header")
        try:
            tokens.append(int(data[start:i]))
        except ValueError as exc:
            raise ParseError(f"{path}: bad PGM header token {data[start:i]!r}") from exc
    if i >= n or not data[i : i + 1].isspace():
        raise ParseError(f"{path}: missing whitespace before PGM payload")
    return tokens, i + 1


def load_pgm(path: str) -> PixelGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), offset = _pgm_tokens(data, 3, path)
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"{path}: unsupported maxval {maxval}")
    bit_depth = 8 if maxval < 256 else 16
    dtype = np.dtype(">u2") if bit_depth == 16 else np.dtype("u1")
    expected = width * height * dtype.itemsize
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise DimensionError(
            f"{path}: payload {len(payload)} bytes, expected {expected} "
            f"for {width}x{height} maxval {maxval}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(height, width).astype(np.float64)
    return PixelGrid.from_array(_freeze(arr), bit_depth=bit_depth)


def save_pgm(grid: PixelGrid, path: str) -> None:
    if grid.ndim_spatial != 2 or grid.channels != 1:
        raise DimensionError("PGM output requires a 2D single-channel grid")
    ints = original_region(grid).to_int_array()[0]
    maxval = 2**grid.bit_depth - 1
    height, width = ints.shape
    out_dtype = np.dtype(">u2") if grid.bit_depth == 16 else np.dtype("u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(ints.astype(out_dtype).tobytes())


# ---------------------------------------------------------------------------
# Raw payload + sidecar
# ---------------------------------------------------------------------------

def sidecar_path(path: str) -> str:
    return path + ".meta"


def _parse_sidecar(path: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                meta[key.strip()] = value.strip()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read sidecar: {exc}") from exc
    return meta


def load_raw(path: str) -> PixelGrid:
    meta = _parse_sidecar(sidecar_path(path))
    try:
        ndim = int(meta["ndim"])
        dims = tuple(int(d) for d in meta["dims"].split(","))
        bit_depth = int(meta["bit_depth"])
        channels = int(meta.get("channels", "1"))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{sidecar_path(path)}: bad or missing sidecar field: {exc}") from exc
    if len(dims) != ndim:
        raise DimensionError(
            f"{sidecar_path(path)}: ndim={ndim} but dims has {len(dims)} entries"
        )
    dtype = np.dtype("<u2") if bit_depth == 16 else np.dtype("u1")
    expected = channels * int(np.prod(dims)) * dtype.itemsize
    size = os.path.getsize(path)
    if size != expected:
        raise DimensionError(
            f"{path}: payload {size} bytes, expected {expected} for dims {dims} "
            f"x{channels} channels at {bit_depth}-bit"
        )
    arr = np.fromfile(path, dtype=dtype).reshape((channels,) + dims).astype(np.float64)
    return PixelGrid(values=_freeze(arr), dims_original=dims, bit_depth=bit_depth)


def save_raw(grid: PixelGrid, path: str) -> None:
    ints = original_region(grid).to_int_array()
    dtype = np.dtype("<u2") if grid.bit_depth == 16 else np.dtype("u1")
    ints.astype(dtype).tofile(path)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(f"ndim={grid.ndim_spatial}\n")
        fh.write("dims=" + ",".join(str(d) for d in grid.dims_original) + "\n")
        fh.write(f"bit_depth={grid.bit_depth}\n")
        fh.write(f"channels={grid.channels}\n")


def load(path: str, fmt: str | None = None) -> PixelGrid:
    """Load an image; the format is inferred from the extension unless given.

    ``fmt`` is 'pgm' or 'raw'.  Padding is NOT applied here.
    """
    if fmt is None:
        fmt = "pgm" if path.lower().endswith(".pgm") else "raw"
    if not os.path.exists(path):
        raise ParseError(f"{path}: no such file")
    if os.path.getsize(path) == 0:
        raise ParseError(f"{path}: empty file")
    if fmt == "pgm":
        return load_pgm(path)
    if fmt == "raw":
        return load_raw(path)
    raise ValueError(f"unknown format {fmt!r}")


def save(grid: PixelGrid, path: str, fmt: str | None = None) -> None:
    if fmt is None:
        fmt = "pgm" if path.lower().endswith(".pgm") else "raw"
    if fmt == "pgm":
        save_pgm(grid, path)
    elif fmt == "raw":
        save_raw(grid, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
