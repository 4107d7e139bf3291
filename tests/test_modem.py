import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from timnoma import ValidationError

from helpers import awgn_qpsk_ber, levels, qpsk_demodulate, qpsk_levels, qpsk_modulate

AMP = 1.0 / math.sqrt(2.0)

MAPPING = {
    (0, 0): AMP * (1 + 1j),
    (0, 1): AMP * (1 - 1j),
    (1, 0): AMP * (-1 + 1j),
    (1, 1): AMP * (-1 - 1j),
}


@pytest.mark.parametrize("pair,point", sorted(MAPPING.items()))
def test_mapping(pair, point):
    symbol = qpsk_modulate(np.array(pair))
    assert symbol.shape == (1,)
    assert symbol[0] == pytest.approx(point, abs=1e-15)


def test_unit_energy():
    for pair in MAPPING:
        symbol = qpsk_modulate(np.array(pair))[0]
        assert abs(symbol) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_round_trip_all_pairs():
    for pair in MAPPING:
        bits = qpsk_demodulate(qpsk_modulate(np.array(pair)))
        assert tuple(bits) == pair


@pytest.mark.parametrize(
    "symbol,pair",
    [
        (AMP * (1 + 1j), (0, 0)),
        (-0.9 + 0.1j, (1, 0)),
        (0 + 0j, (0, 0)),  # exact ties decide toward bit 0
        (0.3 - 2j, (0, 1)),
    ],
)
def test_demodulate_quadrants(symbol, pair):
    assert tuple(qpsk_demodulate(np.array([symbol]))) == pair


def test_rejects_odd_bit_count():
    with pytest.raises(ValidationError):
        qpsk_levels(np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        qpsk_modulate(np.array([0, 1, 0]))


# (K, 2S) bits: K from 1 to 8 users, S from 1 to 32 symbols each
BIT_ARRAYS = arrays(
    np.int64, st.tuples(st.integers(1, 8), st.integers(1, 32).map(lambda s: 2 * s)),
    elements=st.integers(0, 1),
)


@given(BIT_ARRAYS, st.sampled_from([bool, np.int32, np.int64, np.uint8, np.uint16]))
@settings(max_examples=50)
def test_levels_are_the_reference_modems_symbols(bits, dtype):
    # the real levels the frame builder is checked against are, bit for
    # bit, the float64 view of the reference chain's complex symbols,
    # whatever the bits' integer type
    expected = levels(qpsk_modulate(bits))
    got = qpsk_levels(bits.astype(dtype))
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
@settings(max_examples=50)
def test_round_trip_bit_streams(bits):
    bits = np.array(bits)
    recovered = qpsk_demodulate(qpsk_modulate(bits))
    np.testing.assert_array_equal(recovered, bits)


def test_two_dimensional_streams(rng):
    bits = rng.integers(0, 2, size=(3, 10))
    symbols = qpsk_modulate(bits)
    assert symbols.shape == (3, 5)
    np.testing.assert_array_equal(qpsk_demodulate(symbols), bits)


@pytest.mark.parametrize("symbol_snr", [2.0, 4.0])
def test_awgn_detection_oracle(symbol_snr):
    # hard-decision QPSK over AWGN at Es/sigma^2 hits Q(sqrt(Es/sigma^2)) per bit
    rng = np.random.default_rng(41)
    n = 500_000
    bits = rng.integers(0, 2, size=2 * n)
    symbols = qpsk_modulate(bits)
    sigma2 = 1.0 / symbol_snr
    noisy = symbols + math.sqrt(sigma2 / 2) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    ber = np.mean(qpsk_demodulate(noisy) != bits)
    expected = awgn_qpsk_ber(symbol_snr)
    stderr = math.sqrt(expected * (1 - expected) / (2 * n))
    assert abs(ber - expected) < 3 * stderr
