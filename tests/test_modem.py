import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timnoma import ValidationError, qpsk_modulate

from helpers import awgn_qpsk_ber, qpsk_demodulate

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
        qpsk_modulate(np.array([0, 1, 0]))


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
