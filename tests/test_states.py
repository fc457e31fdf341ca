"""States, partitions, noise models, and the splitter geometry map."""

import itertools
import math

import numpy as np
import pytest

from entstruct.bounds import ProductTerms, mx_terms, mz_terms
from entstruct.core import P0
from entstruct.errors import UsageError, ValidationError
from entstruct.states import (
    Partition,
    StateDensity,
    geometry_to_structure,
    ghz,
    ghz_noise_model,
    product_structure,
    visibility_state,
    white_noise_mix,
)
from oracles import dense_value


def bell():
    return ghz(2)


class TestPartition:
    def test_properties(self):
        pt = Partition(((1, 2, 3, 4), (5, 6), (7, 8)))
        assert pt.n == 8
        assert pt.num_groups == 3
        assert pt.max_group == 4
        assert pt.sizes == (4, 2, 2)

    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            Partition(((1, 2), (2, 3)))

    def test_rejects_gap(self):
        with pytest.raises(ValidationError):
            Partition(((1, 2), (4,)))

    def test_rejects_empty_group(self):
        with pytest.raises(ValidationError):
            Partition(((1, 2), ()))


class TestStateDensity:
    def test_rejects_nonunit_trace(self):
        with pytest.raises(ValidationError):
            StateDensity(np.eye(2), 1)

    def test_rejects_negative_matrix(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            StateDensity(mat, 1)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            StateDensity(mat, 1)


class TestGHZ:
    def test_bell_parity(self):
        assert dense_value(mx_terms(2), bell()) == pytest.approx(1.0, abs=1e-14)

    def test_ghz8_canonical_expectations(self):
        state = ghz(8)
        assert dense_value(mz_terms(8), state) == pytest.approx(1.0, abs=1e-12)
        assert dense_value(mx_terms(8), state) == pytest.approx(1.0, abs=1e-12)

    def test_generalized_mx_rule(self):
        # <M_X> = sin(2 theta) cos(phi)
        assert dense_value(mx_terms(3), ghz(3, math.pi / 6, math.pi / 2)) == \
            pytest.approx(0.0, abs=1e-14)
        rng = np.random.default_rng(2)
        for _ in range(6):
            theta = rng.uniform(0, math.pi / 2)
            phi = rng.uniform(0, 2 * math.pi)
            want = math.sin(2 * theta) * math.cos(phi)
            got = dense_value(mx_terms(4), ghz(4, theta, phi))
            assert got == pytest.approx(want, abs=1e-12)

    def test_generalized_mz_rule(self):
        state = ghz(5, 0.3, 1.1)
        want = math.cos(0.3) ** 2 + math.sin(0.3) ** 2  # populations sum
        assert dense_value(mz_terms(5), state) == pytest.approx(want, abs=1e-12)


def reference_product(partition, group_mats, n):
    """Rebuild the joint state by placing each group's tensor legs at the
    right party slots via an index walk.  Independent of _permute_parties."""
    order = [p for g in partition.groups for p in g]
    joint = group_mats[0]
    for mat in group_mats[1:]:
        joint = np.kron(joint, mat)
    tens = joint.reshape([2] * (2 * n))
    # tens axes follow the concatenated group order; send axis i to party
    # order[i]'s position
    dest = [order.index(p + 1) for p in range(n)]
    tens = tens.transpose(dest + [n + d for d in dest])
    return tens.reshape(2**n, 2**n)


class TestProductStructure:
    def test_two_bells_contiguous(self):
        pt = Partition(((1, 2), (3, 4)))
        state = product_structure(pt, [bell(), bell()])
        assert dense_value(mx_terms(4), state) == pytest.approx(1.0, abs=1e-12)

    def test_two_bells_interleaved(self):
        pt = Partition(((1, 4), (2, 3)))
        state = product_structure(pt, [bell(), bell()])
        all_zero = ProductTerms(4, (1.0,), ((P0,) * 4,))
        assert dense_value(all_zero, state) == pytest.approx(0.25, abs=1e-12)

    def test_g62_mz(self):
        pt = Partition(((1, 2, 3, 4, 5, 6), (7, 8)))
        state = product_structure(pt, [ghz(6), ghz(2)])
        assert dense_value(mz_terms(8), state) == pytest.approx(0.5, abs=1e-12)

    def test_matches_reference_embedding(self):
        rng = np.random.default_rng(4)
        pt = Partition(((1, 4), (2, 3), (5,)))
        mats = []
        for size in (2, 2, 1):
            dim = 2**size
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            mats.append(rho)
        state = product_structure(pt, [StateDensity(m, c) for m, c in
                                       zip(mats, (2, 2, 1))])
        want = reference_product(pt, mats, 5)
        assert np.allclose(state.matrix, want, atol=1e-12)

    def test_group_size_mismatch(self):
        pt = Partition(((1, 2), (3,)))
        with pytest.raises(UsageError):
            product_structure(pt, [bell(), bell()])


class TestWhiteNoise:
    def test_p_zero_identity(self):
        state = ghz(3)
        assert np.allclose(white_noise_mix(state, 0.0).matrix, state.matrix)

    def test_p_one_kills_mx(self):
        state = white_noise_mix(ghz(3), 1.0)
        assert dense_value(mx_terms(3), state) == pytest.approx(0.0, abs=1e-14)

    def test_ghz8_witness_value(self):
        state = white_noise_mix(ghz(8), 0.2)
        val = 2 * dense_value(mz_terms(8), state) + dense_value(mx_terms(8), state)
        assert val == pytest.approx(2.403125, abs=1e-12)

    def test_p_out_of_range(self):
        with pytest.raises(UsageError):
            white_noise_mix(ghz(2), 1.5)


class TestGammaNoise:
    def test_zero_noise_is_pure(self):
        assert np.allclose(ghz_noise_model(4, 0.0, 0.0).matrix, ghz(4).matrix)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_expectation_formulas(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            gd = rng.uniform(0, 0.5)
            gw = rng.uniform(0, 0.5)
            state = ghz_noise_model(n, gd, gw)
            mz_want = 1.0 - gw * (2 ** (n - 1) - 1) / 2 ** (n - 1)
            mx_want = 1.0 - gw - gd
            assert dense_value(mz_terms(n), state) == pytest.approx(mz_want, abs=1e-12)
            assert dense_value(mx_terms(n), state) == pytest.approx(mx_want, abs=1e-12)

    def test_rejects_overweight(self):
        with pytest.raises(UsageError):
            ghz_noise_model(3, 0.7, 0.7)


class TestVisibilityState:
    def test_perfect_visibility_is_pure(self):
        assert np.allclose(visibility_state(4, 1.0, 1.0).matrix, ghz(4).matrix)

    def test_pair_weight(self):
        for v1 in (0.0, 0.4, 0.9):
            state = visibility_state(2, v1)
            assert dense_value(mx_terms(2), state) == pytest.approx(
                (1 + v1) / 2, abs=1e-12)

    def test_four_party_weight(self):
        state = visibility_state(4, 0.5, 0.5)
        assert dense_value(mx_terms(4), state) == pytest.approx(27 / 64, abs=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(UsageError):
            visibility_state(3, 0.9)


def geometry_oracle(pbs1, pbs2, pbs3):
    """Union-find over the four base pairs."""
    parent = list(range(9))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for a, b in ((1, 2), (3, 4), (5, 6), (7, 8)):
        union(a, b)
    if pbs2:
        union(2, 3)
    if pbs3:
        union(6, 7)
    if pbs1:
        union(2, 7)
    blocks = {}
    for p in range(1, 9):
        blocks.setdefault(find(p), []).append(p)
    return tuple(sorted((tuple(sorted(b)) for b in blocks.values()), key=min))


class TestGeometry:
    def test_all_up_single_block(self):
        pt = geometry_to_structure("up", "up", "up")
        assert pt.groups == ((1, 2, 3, 4, 5, 6, 7, 8),)

    def test_g62(self):
        pt = geometry_to_structure("up", "up", "down")
        assert pt.groups == ((1, 2, 3, 4, 7, 8), (5, 6))

    def test_all_down_four_pairs(self):
        pt = geometry_to_structure("down", "down", "down")
        assert pt.groups == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_matches_union_find_oracle(self):
        for bits in itertools.product([True, False], repeat=3):
            assert geometry_to_structure(*bits).groups == geometry_oracle(*bits)

    def test_rejects_junk(self):
        with pytest.raises(UsageError):
            geometry_to_structure("sideways", "up", "down")
