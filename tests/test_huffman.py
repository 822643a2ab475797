import numpy as np
import pytest

from carp.bitio import bit_windows, pack_codes, unpack_bits
from carp.errors import StreamError
from carp.huffman import (L_MAX, build_code_lengths, canonical_codes,
                          check_code_lengths, decode_symbols, encode_symbols,
                          histogram, kraft_sum)
from carp.lattice import DEFAULT_MAX_BYTES

from oracles import (ReferenceBitReader, ReferenceBitWriter,
                     ReferenceCanonicalDecoder, reference_encode_symbols)


def decode_all(data, nbits, lengths, count):
    """Decode count symbols from the first nbits bits of data, as a list;
    raise StreamError when fewer decode."""
    symbols, _ = decode_symbols(data, nbits, lengths, count)
    if len(symbols) < count:
        raise StreamError(f"{len(symbols)} of {count} symbols decoded")
    return symbols.tolist()


class TestBitIO:
    def test_msb_first_packing(self):
        w = ReferenceBitWriter()
        w.write_bit(1)
        w.write(0b0110, 4)
        assert w.getvalue() == bytes([0b10110000])
        assert w.bit_length == 5

    def test_roundtrip_random_fields(self):
        rng = np.random.default_rng(0)
        w = ReferenceBitWriter()
        fields = []
        for _ in range(500):
            nbits = int(rng.integers(1, 24))
            value = int(rng.integers(0, 1 << nbits))
            fields.append((value, nbits))
            w.write(value, nbits)
        widths = np.array([nbits for _, nbits in fields])
        starts = np.cumsum(widths) - widths
        data = w.getvalue()
        for width in np.unique(widths).tolist():
            at = widths == width
            assert bit_windows(data, starts[at], width).tolist() == [
                value for (value, _), hit in zip(fields, at) if hit]
        words = np.array([value for value, _ in fields], dtype=np.uint64)
        assert pack_codes(words, widths) == (data, w.bit_length)
        assert pack_codes(words[:0], widths[:0]) == (b"", 0)
        bits = unpack_bits(data, w.bit_length)
        assert len(bits) == w.bit_length == int(widths.sum())
        assert bits.tolist() == [int(b) for value, nbits in fields
                                 for b in format(value, f"0{nbits}b")]

    def test_overrun_raises(self):
        assert unpack_bits(b"\xff", 3).tolist() == [1, 1, 1]
        with pytest.raises(StreamError):
            unpack_bits(b"\xff", 9)
        # windows read zeros past the end of the data
        assert bit_windows(b"\xff", np.array([6]), 4).tolist() == [0b1100]

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            ReferenceBitWriter().write(4, 2)


class TestCodeLengths:
    def test_single_symbol_gets_one_bit(self):
        assert build_code_lengths({7: 1}) == {7: 1}

    def test_two_equal_symbols(self):
        assert build_code_lengths({0: 1, 1: 1}) == {0: 1, 1: 1}

    def test_textbook_frequencies(self):
        lengths = build_code_lengths({0: 5, 1: 2, 2: 1, 3: 1})
        assert lengths == {0: 1, 1: 2, 2: 3, 3: 3}

    def test_kraft_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            freqs = {int(s): int(rng.integers(1, 1000))
                     for s in rng.choice(200, size=n, replace=False)}
            lengths = build_code_lengths(freqs)
            assert kraft_sum(lengths) <= 1.0 + 1e-12

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            build_code_lengths({})


class TestCanonical:
    def test_codes_are_prefix_free(self):
        lengths = build_code_lengths({0: 9, 1: 4, 2: 2, 3: 1, 4: 1})
        codes = canonical_codes(lengths)
        as_bits = {format(c, f"0{l}b") for c, l in codes.values()}
        for a in as_bits:
            for b in as_bits:
                if a != b:
                    assert not b.startswith(a)

    def test_decoder_matches_encoder(self):
        lengths = {5: 2, -3: 2, 0: 1}
        codes = canonical_codes(lengths)
        stream = [0, 5, -3, 0, 0, 5]
        data, nbits = encode_symbols(stream, codes)
        assert decode_all(data, nbits, lengths, len(stream)) == stream


class TestRoundtrip:
    def test_empty_stream(self):
        codes = canonical_codes({1: 1})
        assert encode_symbols([], codes) == (b"", 0)

    def test_single_symbol_alphabet(self):
        lengths = build_code_lengths({42: 1000})
        codes = canonical_codes(lengths)
        data, nbits = encode_symbols([42] * 1000, codes)
        assert nbits == 1000
        assert decode_all(data, nbits, lengths, 1000) == [42] * 1000

    def test_random_streams(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            alphabet = rng.choice(np.arange(-40, 40), size=16, replace=False)
            symbols = [int(s) for s in rng.choice(alphabet,
                                                  size=int(rng.integers(1, 400)))]
            lengths = build_code_lengths(histogram(symbols))
            codes = canonical_codes(lengths)
            data, nbits = encode_symbols(symbols, codes)
            assert decode_all(data, nbits, lengths, len(symbols)) == symbols

    def test_missing_symbol_rejected(self):
        codes = canonical_codes({1: 1, 2: 1})
        with pytest.raises(ValueError):
            encode_symbols([3], codes)

    def test_truncated_bits_raise(self):
        lengths = build_code_lengths({1: 3, 2: 2, 3: 1})
        codes = canonical_codes(lengths)
        data, nbits = encode_symbols([1, 2, 3, 1], codes)
        with pytest.raises(StreamError):
            decode_all(data, nbits - 1, lengths, 4)

    def test_determinism(self):
        freqs = {3: 10, -1: 10, 7: 5, 2: 5, 9: 1}
        assert build_code_lengths(freqs) == build_code_lengths(dict(reversed(
            list(freqs.items()))))


class TestTableChecks:
    @pytest.mark.parametrize("lengths", [{1: 0, 2: 1}, {1: 1, 2: 200},
                                         {1: 1, 2: L_MAX + 1},
                                         {1: 1, 2: 1, 3: 2}])
    def test_bad_tables_rejected(self, lengths):
        with pytest.raises(StreamError):
            check_code_lengths(lengths)
        with pytest.raises(StreamError):
            decode_symbols(b"\x00", 8, lengths, 1)

    @pytest.mark.parametrize("lengths", [{5: 1}, {1: 1, 2: 2}, {1: 1, 2: 2, 3: 2},
                                         {0: L_MAX, 1: 1}])
    def test_prefix_codes_accepted(self, lengths):
        check_code_lengths(lengths)

    def test_l_max_covers_every_encodable_stream(self):
        fib = [0, 1, 1]
        while len(fib) < L_MAX + 4:
            fib.append(fib[-1] + fib[-2])
        # a code whose longest codeword has length L codes at least F(L + 2)
        # symbols; skewed histograms give the longest codes
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            counts = np.cumsum(rng.integers(0, 3, size=n)) + 1
            counts = np.maximum(1, (counts * rng.random(n) ** 3).astype(int))
            lengths = build_code_lengths(dict(enumerate(counts.tolist())))
            assert int(counts.sum()) >= fib[max(lengths.values()) + 2]
        # the most samples an encodable image has: a 1D image of N samples
        # has the smallest lattice, 2N - 1 blocks of 16 bytes
        samples = 1
        while 16 * (4 * samples - 1) <= DEFAULT_MAX_BYTES:
            samples *= 2
        symbols = samples - 1  # detail coefficients per channel
        assert fib[L_MAX + 2] <= symbols < fib[L_MAX + 3]


def _reference_decode(data, nbits, lengths, limit):
    reader = ReferenceBitReader(data, nbits)
    decoder = ReferenceCanonicalDecoder(lengths)
    symbols, ends = [], []
    while len(symbols) < limit:
        try:
            symbols.append(decoder.decode_one(reader))
        except StreamError:
            break
        ends.append(reader.pos)
    return symbols, ends


def _random_table(rng):
    """A random prefix code: complete, or with some symbols dropped."""
    n = int(rng.integers(1, 40))
    alphabet = rng.choice(np.arange(-300, 300), size=n, replace=False).tolist()
    freqs = {s: int(rng.integers(1, 1 << int(rng.integers(1, 16)))) for s in alphabet}
    lengths = build_code_lengths(freqs)
    if n > 2 and rng.random() < 0.5:
        for s in alphabet[: int(rng.integers(1, n))]:
            del lengths[s]
    return lengths


class TestBulkDecoderMatchesReference:
    def test_random_tables_and_payloads(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            lengths = _random_table(rng)
            if trial % 2:  # a valid stream, maybe cut short
                symbols = rng.choice(list(lengths), size=int(rng.integers(1, 300)))
                data, nbits = encode_symbols(symbols, canonical_codes(lengths))
                nbits -= int(rng.integers(0, min(nbits, 12)))
            else:  # random bits
                data = rng.integers(0, 256, size=int(rng.integers(0, 200)),
                                    dtype=np.uint8).tobytes()
                nbits = int(rng.integers(0, 8 * len(data) + 1))
            limit = int(rng.integers(0, 400))
            symbols, ends = decode_symbols(data, nbits, lengths, limit)
            assert (symbols.tolist(), ends.tolist()) == _reference_decode(
                data, nbits, lengths, limit)

    def test_longest_codes(self):
        lengths = {s: min(s + 1, L_MAX) for s in range(L_MAX)}
        symbols = [L_MAX - 1, 0, L_MAX - 2, 5, L_MAX - 1]
        data, nbits = encode_symbols(symbols, canonical_codes(lengths))
        assert decode_all(data, nbits, lengths, len(symbols)) == symbols


class TestBulkEncoderMatchesReference:
    def test_random_tables_and_symbols(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            lengths = _random_table(rng)
            codes = canonical_codes(lengths)
            symbols = rng.choice(list(lengths), size=int(rng.integers(0, 300)))
            assert encode_symbols(symbols, codes) == reference_encode_symbols(
                symbols.tolist(), codes)

    def test_longest_codes(self):
        codes = canonical_codes({s: min(s + 1, L_MAX) for s in range(L_MAX)})
        symbols = np.arange(L_MAX)[::-1].repeat(3)
        assert encode_symbols(symbols, codes) == reference_encode_symbols(
            symbols.tolist(), codes)

    def test_histogram_counts_each_symbol(self):
        symbols = np.array([5, -2, 5, 0, 5, -2])
        assert histogram(symbols) == {-2: 2, 0: 1, 5: 3}
        assert histogram([]) == {}

    @pytest.mark.parametrize("symbols", [[7], [1, 2, -1], [-(2**62)]])
    def test_missing_symbols_raise_like_the_reference(self, symbols):
        codes = canonical_codes({1: 1, 2: 1})
        with pytest.raises(ValueError, match=f"symbol {symbols[-1]} missing"):
            reference_encode_symbols(symbols, codes)
        with pytest.raises(ValueError, match=f"symbol {symbols[-1]} missing"):
            encode_symbols(symbols, codes)
