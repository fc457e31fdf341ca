"""Single-qubit primitives, tensor products of term factors, and the
factored witness evaluator on full-system states."""

import math

import numpy as np
import pytest

from entstruct.bounds import (
    ProductTerms,
    a_terms,
    aprime_terms,
    canonical_partition,
    mx_terms,
    terms_expectation,
)
from entstruct.core import (
    P0,
    P1,
    PARTY_CAP,
    SX,
    SY,
    SZ,
    THETA_MID,
    THETA_MINUS,
    THETA_PLUS,
    xy_observable,
)
from entstruct.errors import NumericError, UsageError
from entstruct.states import Partition, ghz, white_noise_mix
from entstruct.witnesses import DepthWitness
from oracles import group_operators

I2 = np.eye(2, dtype=complex)


def one_term(*factors):
    """The witness made of the single product of the given factors."""
    return ProductTerms(len(factors), (1.0,), (tuple(factors),))


def product_operator(factors):
    """The dense operator of the product of the factors on one group of
    all parties."""
    terms = one_term(*factors)
    return group_operators(terms, canonical_partition(terms.n, terms.n))[0][0]


def whole(n):
    return canonical_partition(n, n)


class TestKron:
    """Tensor products of term factors, party 1 leftmost (the dense
    reference operators of the oracles)."""

    def test_sx_sx_antidiagonal(self):
        op = product_operator([SX, SX])
        assert op[0, 3] == 1
        assert np.array_equal(op, np.fliplr(np.eye(4)))

    def test_identity(self):
        assert np.array_equal(product_operator([I2, I2]), np.eye(4))

    def test_projector_product(self):
        assert np.array_equal(product_operator([P0, P1]),
                              np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_numpy_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    for _ in range(3)]
            mats = [m + m.conj().T for m in mats]
            want = np.kron(np.kron(mats[0], mats[1]), mats[2])
            assert np.allclose(product_operator(mats), want, atol=1e-12)
            # a group takes its own parties, in the order it lists them
            ops = group_operators(one_term(*mats), Partition(((3, 1), (2,))))
            assert np.allclose(ops[0][0], np.kron(mats[2], mats[0]), atol=1e-12)
            assert np.allclose(ops[1][0], mats[1], atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(UsageError):
            one_term(np.ones((2, 3)))
        with pytest.raises(UsageError):
            one_term(np.eye(4))  # one 2x2 factor per party
        with pytest.raises(UsageError):
            ProductTerms(2, (1.0,), ((SX,),))
        with pytest.raises(UsageError):
            ProductTerms(1, (), ())

    def test_party_count_positive_and_uncapped(self):
        # a witness builds no 2^n matrix, so it takes any positive n
        assert one_term(*[I2] * (PARTY_CAP + 4)).n == PARTY_CAP + 4
        with pytest.raises(UsageError):
            ProductTerms(0, (1.0,), ((),))


class TestEigMax:
    def test_mb_saturation_case(self):
        # alpha (x+y)/2 + sqrt(z^2 + alpha^2 (x-y)^2 / 4) at x=y=1/2, z=1
        alpha, x, y, z = 2.0, 0.5, 0.5, 1.0
        mb = np.array([[alpha * x, z], [z, alpha * y]])
        assert np.linalg.eigvalsh(mb)[-1] == pytest.approx(2.0, abs=1e-12)


class TestExpectation:
    """terms_expectation on a full-system state: the one-group partition."""

    def test_identity_is_one(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        assert terms_expectation(one_term(I2, I2), whole(2), [rho]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_mx_on_ghz8(self):
        assert terms_expectation(mx_terms(8), whole(8), [ghz(8)]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_on_mixed(self):
        mixed = white_noise_mix(ghz(1), 1.0)
        assert terms_expectation(one_term(SZ), whole(1), [mixed]) == \
            pytest.approx(0.0, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            terms_expectation(one_term(I2, I2), whole(2), [ghz(1)])
        with pytest.raises(UsageError):  # one state per group
            terms_expectation(one_term(I2, I2), canonical_partition(2, 1), [ghz(1)])
        with pytest.raises(UsageError):  # partition and witness party counts
            terms_expectation(one_term(I2), whole(2), [ghz(2)])

    def test_flags_imaginary_residue(self):
        # a non-Hermitian factor leaves an imaginary trace on |+>
        op = np.array([[0.0, 1.0j], [0.0, 0.0]])
        with pytest.raises(NumericError):
            terms_expectation(one_term(op), whole(1), [ghz(1)])


class TestXYObservables:
    def test_theta_zero_is_sx(self):
        assert np.allclose(xy_observable(0.0), SX, atol=1e-15)

    def test_theta_half_pi_is_sy(self):
        assert np.allclose(xy_observable(math.pi / 2), SY, atol=1e-15)

    def test_defining_combination(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-math.pi, math.pi, size=8):
            want = math.cos(theta) * SX + math.sin(theta) * SY
            assert np.allclose(xy_observable(theta), want, atol=1e-14)

    def test_experiment_angles(self):
        assert THETA_PLUS == pytest.approx(27 / 80)
        assert THETA_MINUS == pytest.approx(-21 / 80)
        assert THETA_MID == pytest.approx(3 / 80)
        spec = DepthWitness(1, 2.0)
        assert (spec.theta_plus, spec.theta_minus) == (THETA_PLUS, THETA_MINUS)
        assert np.allclose(aprime_terms(spec).factors[0][0], xy_observable(27 / 80))

    def test_mix_is_normalized_mean(self):
        # (A- + A+) / (2 kappa) is again a unit xy observable, at the
        # midpoint angle
        kappa = math.cos(3 / 10)
        mean = (xy_observable(THETA_PLUS) + xy_observable(THETA_MINUS)) / (2 * kappa)
        assert np.allclose(a_terms(DepthWitness(1, 2.0)).factors[0][0], mean,
                           atol=1e-14)
        assert np.allclose(mean, xy_observable(3 / 80), atol=1e-14)

    def test_unit_spectrum(self):
        for theta in (0.1, 1.2, 2.9):
            top = np.linalg.eigvalsh(xy_observable(theta))[-1]
            assert top == pytest.approx(1.0, abs=1e-12)
