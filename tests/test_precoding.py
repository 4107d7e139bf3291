import math

import numpy as np
import pytest

from timnoma import (
    ValidationError,
    allocate_power,
    assign_groups,
    build_topology,
    make_basis,
    mixing_matrix,
    qpsk_modulate,
)

from helpers import V1, V2, givens_basis


class TestMakeBasis:
    def test_two_groups_match_reference_vectors(self):
        basis = make_basis(2)
        np.testing.assert_allclose(basis.vectors[0], V1, atol=1e-12)
        np.testing.assert_allclose(basis.vectors[1], V2, atol=1e-12)

    def test_single_group(self):
        np.testing.assert_allclose(make_basis(1).vectors, [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_orthonormal(self, size):
        vectors = make_basis(size).vectors
        gram = vectors @ vectors.T
        np.testing.assert_allclose(gram, np.eye(size), atol=1e-12)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_no_zero_entries(self, size):
        assert np.min(np.abs(make_basis(size).vectors)) > 1e-6

    @pytest.mark.parametrize("size", range(1, 12))
    def test_bit_identical_to_plain_float_givens(self, size):
        # elementwise column updates round as Python floats do, so the basis
        # cannot depend on a BLAS kernel's accumulation order
        np.testing.assert_array_equal(make_basis(size).vectors, np.array(givens_basis(size)))

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            make_basis(0)

    def test_vectors_are_read_only(self):
        basis = make_basis(3)
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 7.0


class TestAssembleTransmit:
    """The transmit of a block of symbols s is ``mixing_matrix(...) @ s``."""

    def test_zero_symbols_give_zero_vector(self, ref_power, ref_groups, ref_basis):
        out = mixing_matrix(ref_power, ref_groups, ref_basis) @ np.zeros(5, dtype=complex)
        np.testing.assert_array_equal(out, np.zeros(2, dtype=complex))

    def test_scalar_cell(self):
        topo = build_topology([1.0], 5.0, 3, 1)
        mix = mixing_matrix(allocate_power(topo, 4.0), assign_groups(topo), make_basis(1))
        out = mix @ np.array([1 + 0j])
        np.testing.assert_allclose(out, [2.0 + 0j], rtol=1e-15)

    def test_all_ones_reference_cell(self, ref_power, ref_groups, ref_basis):
        # independent evaluation of the superposition with the literal vectors
        p = ref_power.per_user
        expected = (math.sqrt(p[0]) + math.sqrt(p[2]) + math.sqrt(p[4])) * V1
        expected = expected + (math.sqrt(p[1]) + math.sqrt(p[3])) * V2
        got = mixing_matrix(ref_power, ref_groups, ref_basis) @ np.ones(5, dtype=complex)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [-0.5712696044275679, 8.857851312386062], atol=1e-9)

    def test_rejects_wrong_symbol_count(self, ref_power, ref_groups, ref_basis):
        with pytest.raises(ValueError):
            mixing_matrix(ref_power, ref_groups, ref_basis) @ np.ones(4, dtype=complex)

    def test_block_shape(self, ref_power, ref_groups, ref_basis, rng):
        symbols = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert (mixing_matrix(ref_power, ref_groups, ref_basis) @ symbols).shape == (2, 7)


class TestProjectionIdentity:
    def test_group_projection_recovers_group_sum(self, ref_power, ref_groups, ref_basis, rng):
        symbols = rng.standard_normal((5, 10_000)) + 1j * rng.standard_normal((5, 10_000))
        x = mixing_matrix(ref_power, ref_groups, ref_basis) @ symbols
        roots = np.sqrt(np.asarray(ref_power.per_user))
        for group, member_list in enumerate(ref_groups.members):
            projected = ref_basis.vectors[group] @ x
            direct = sum(roots[k] * symbols[k] for k in member_list)
            np.testing.assert_allclose(projected, direct, atol=1e-12)


class TestTransmitEnergy:
    def test_average_energy_equals_power_budget(self, ref_power, ref_groups, ref_basis):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, size=(5, 200_000))
        x = mixing_matrix(ref_power, ref_groups, ref_basis) @ qpsk_modulate(bits)
        energy = np.mean(np.sum(np.abs(x) ** 2, axis=0))
        assert energy == pytest.approx(40.0, rel=0.01)


class TestMixingMatrix:
    def test_columns_are_scaled_group_vectors(self, ref_power, ref_groups, ref_basis):
        mix = mixing_matrix(ref_power, ref_groups, ref_basis)
        assert mix.shape == (2, 5)
        for k in range(5):
            expected = math.sqrt(ref_power.per_user[k]) * ref_basis.vectors[ref_groups.group_of[k]]
            np.testing.assert_allclose(mix[:, k], expected, rtol=1e-15)
