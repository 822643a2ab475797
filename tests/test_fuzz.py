"""Hostile-input decoding: any corruption of a stream either decodes or
raises a CarpError subclass, never another exception, and every stream
that parses is one that to_bytes writes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carp import CarpError, CompressedStream, Hyperparams, PixelGrid, compress, decompress

from conftest import random_grid, synthetic_photo


def _streams():
    rng = np.random.default_rng(31)
    photo = synthetic_photo(16, seed=9)
    video = random_grid(rng, (4, 8, 8), channels=3)
    return {
        "photo-sigma1": compress(photo, Hyperparams(sigma=1.0)).to_bytes(),
        "photo-near-lossless": compress(photo, Hyperparams(sigma=0.01, eta0=0.0)).to_bytes(),
        "volume-3ch": compress(video, Hyperparams(sigma=1.0)).to_bytes(),
    }


STREAMS = _streams()


def _parsed(data: bytes) -> CompressedStream | None:
    """The parsed stream, which must re-serialize to data, or None when
    the parser refuses data."""
    try:
        stream = CompressedStream.from_bytes(data)
    except CarpError:
        return None
    assert stream.to_bytes() == data
    return stream


def _decodes_or_refuses(data: bytes) -> None:
    stream = _parsed(data)
    if stream is None:
        return
    try:
        grid = decompress(stream)
    except CarpError:
        return
    assert isinstance(grid, PixelGrid)


@pytest.mark.parametrize("name", sorted(STREAMS))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_or_truncated_streams_decode_or_raise(name, data):
    original = STREAMS[name]
    stream = bytearray(original)
    for _ in range(data.draw(st.integers(0, 4), label="mutations")):
        at = data.draw(st.integers(0, len(stream) - 1), label="at")
        stream[at] = data.draw(st.integers(0, 255), label="byte")
    cut = data.draw(st.integers(0, len(stream)), label="cut")
    if data.draw(st.booleans(), label="truncate"):
        stream = stream[:cut]
    _decodes_or_refuses(bytes(stream))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_every_byte_rewrite_that_parses_reserializes_to_itself(name):
    original = STREAMS[name]
    for at in range(len(original)):
        for byte in (0x00, 0x01, 0x80, 0xFF):
            data = bytearray(original)
            data[at] = byte
            _parsed(bytes(data))
