"""Noise thresholds, gamma estimation, and visibility margins."""

import math

import numpy as np
import pytest

from entstruct.bounds import (
    canonical_partition,
    depth_terms,
    mx_terms,
    mz_terms,
    separability_terms,
    terms_expectation,
)
from entstruct.core import CLOSED_FORM_PARTY_LIMIT
from entstruct.errors import UsageError
from entstruct.noise import (
    estimate_gammas,
    generalized_ghz_thresholds,
    gme_noise_threshold,
    intactness_noise_threshold,
    visibility_margin_curve,
)
from entstruct.states import (
    Partition,
    ghz,
    ghz_noise_model,
    product_structure,
    visibility_state,
    white_noise_mix,
)
from entstruct.witnesses import (
    DepthWitness,
    ExpectationPair,
    SeparabilityWitness,
    intactness_upper_bound,
    kprod_bound,
    msep_bound,
    optimal_alpha,
)
from oracles import dense_value


def full_value(terms, state):
    """The witness on a full-system state, as the one-group partition."""
    return terms_expectation(terms, canonical_partition(terms.n, terms.n), [state])


class TestGmeThreshold:
    def test_n8_value(self):
        assert gme_noise_threshold(8) == pytest.approx(1 / (3 - 2**-6), abs=1e-12)
        assert gme_noise_threshold(8) == pytest.approx(0.335079, abs=1e-6)

    def test_large_n_limit(self):
        # approaches 1/3 from above
        vals = [gme_noise_threshold(n) for n in range(3, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1 / 3, abs=1e-3)

    def test_vanishing_alpha(self):
        assert gme_noise_threshold(6, alpha=1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_boundary_is_sharp(self):
        # the evaluated witness flips exactly at the threshold
        n = 5
        thr = gme_noise_threshold(n)
        w = separability_terms(SeparabilityWitness(n, 2.0))
        below = full_value(w, white_noise_mix(ghz(n), thr - 1e-6))
        above = full_value(w, white_noise_mix(ghz(n), thr + 1e-6))
        assert below > msep_bound(2.0, 2)
        assert above <= msep_bound(2.0, 2)


class TestIntactnessThreshold:
    def test_m2_equals_gme(self):
        for n in range(3, 9):
            assert intactness_noise_threshold(n, 2) == pytest.approx(
                gme_noise_threshold(n, optimal_alpha(2)), abs=1e-12)

    def test_n8_m5_value(self):
        want = (2**5 - 2) / (2 * (2**5 - 2**-3 - 1))
        assert intactness_noise_threshold(8, 5) == pytest.approx(want, abs=1e-12)
        assert intactness_noise_threshold(8, 5) == pytest.approx(0.485830, abs=1e-6)

    def test_m_equal_n_is_half(self):
        for n in (4, 8, 12):
            assert intactness_noise_threshold(n, n) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_m(self):
        vals = [intactness_noise_threshold(8, m) for m in range(2, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_boundary_is_sharp(self):
        n, m = 6, 4
        alpha = optimal_alpha(m)
        thr = intactness_noise_threshold(n, m)
        w = separability_terms(SeparabilityWitness(n, alpha))
        below = full_value(w, white_noise_mix(ghz(n), thr - 1e-6))
        above = full_value(w, white_noise_mix(ghz(n), thr + 1e-6))
        assert below > msep_bound(alpha, m)
        assert above <= msep_bound(alpha, m)

    def test_m_validation(self):
        with pytest.raises(UsageError):
            intactness_noise_threshold(4, 5)


class TestGeneralizedThresholds:
    def test_balanced_reduces_to_standard(self):
        for n in (3, 5, 8):
            assert generalized_ghz_thresholds(n, math.pi / 4, 0.0) == pytest.approx(
                gme_noise_threshold(n, 2.0), abs=1e-12)
            for m in (2, 3):
                assert generalized_ghz_thresholds(
                    n, math.pi / 4, 0.0, m) == pytest.approx(
                    intactness_noise_threshold(n, m), abs=1e-12)

    @pytest.mark.parametrize("phi", [math.pi / 2, 3 * math.pi / 2])
    @pytest.mark.parametrize("m", [None, *range(2, 7)])
    def test_phase_quadrature_is_zero(self, phi, m):
        # the fixed X setting sees no coherence at phi = pi/2, so no noise
        # level leaves the test firing
        assert generalized_ghz_thresholds(6, math.pi / 4, phi, m) == \
            pytest.approx(0.0, abs=1e-12)

    def test_near_quadrature_is_small(self):
        near = generalized_ghz_thresholds(6, math.pi / 4, math.pi / 2 - 0.01)
        assert near < 0.01

    @pytest.mark.parametrize("m", [None, 2, 3])
    def test_obtuse_theta_mirrors_acute(self, m):
        # the witness takes the sign of <M_X> that helps, so the sign of
        # sin(2 theta) cannot matter
        acute = generalized_ghz_thresholds(5, 0.55, 0.3, m)
        assert acute > 0
        assert generalized_ghz_thresholds(5, math.pi - 0.55, 0.3, m) == pytest.approx(
            acute, abs=1e-15)

    def test_obtuse_boundary_dense(self):
        # <M_X> < 0 here, so the sign-flipped witness alpha*M_Z - M_X detects
        n, theta, phi = 4, math.pi - 0.55, 0.3
        thr = generalized_ghz_thresholds(n, theta, phi)
        w = separability_terms(SeparabilityWitness(n, 2.0, -1))
        state = ghz(n, theta, phi)
        assert full_value(w, white_noise_mix(state, thr - 1e-6)) > msep_bound(2.0, 2)
        assert full_value(w, white_noise_mix(state, thr + 1e-6)) <= msep_bound(2.0, 2)

    @pytest.mark.parametrize("theta", [0.55, math.pi / 4])
    def test_quadrature_boundary_dense(self, theta):
        # what the pipeline measures at phi = pi/2: the witness of the
        # noiseless state already sits on the biseparable bound, and noise
        # only lowers it, as a threshold of 0 says
        n, phi = 4, math.pi / 2
        thr = generalized_ghz_thresholds(n, theta, phi)
        w = separability_terms(SeparabilityWitness(n, 2.0))
        state = ghz(n, theta, phi)
        assert full_value(w, white_noise_mix(state, thr)) == \
            pytest.approx(msep_bound(2.0, 2), abs=1e-12)
        assert full_value(w, white_noise_mix(state, thr + 1e-6)) <= msep_bound(2.0, 2)

    def test_generalized_boundary_dense(self):
        n, theta, phi = 4, 0.55, 0.3
        thr = generalized_ghz_thresholds(n, theta, phi)
        w = separability_terms(SeparabilityWitness(n, 2.0))
        state = ghz(n, theta, phi)
        below = full_value(w, white_noise_mix(state, thr - 1e-6))
        above = full_value(w, white_noise_mix(state, thr + 1e-6))
        assert below > msep_bound(2.0, 2)
        assert above <= msep_bound(2.0, 2)


# Every closed-form path, as a function of the party count alone.
CLOSED_FORMS = {
    "gme": lambda n: gme_noise_threshold(n),
    "intactness": lambda n: intactness_noise_threshold(n, n),
    "generalized_gme": lambda n: generalized_ghz_thresholds(n, 0.6, 0.2),
    "generalized_m": lambda n: generalized_ghz_thresholds(n, 0.6, 0.2, n),
    "gammas": lambda n: estimate_gammas(0.9, 0.8, n).gamma_w,
    "intactness_upper_bound": lambda n: intactness_upper_bound(
        ExpectationPair(0.5, 0.4), n),
}


class TestClosedFormPartyCount:
    """The closed forms build no matrix, so the dense-state cap does not
    bind them; they need n >= 2 and n small enough for float formulas."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_sixteen_parties(self, name):
        CLOSED_FORMS[name](16)

    def test_sixteen_party_values(self):
        assert intactness_noise_threshold(16, 16) == 0.5
        assert generalized_ghz_thresholds(16, math.pi / 4, 0.0, 16) == 0.5
        assert gme_noise_threshold(16) == pytest.approx(1 / 3, abs=1e-5)
        assert estimate_gammas(1.0, 1.0, 16) == (0.0, 0.0, True)
        # alpha*z + x with z = 0.5, x = 0.4 breaks the 2-separable bound only
        assert intactness_upper_bound(ExpectationPair(0.5, 0.4), 16) is None
        assert intactness_upper_bound(ExpectationPair(1.0, 1.0), 16) == 1

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    @pytest.mark.parametrize("n", [1, 2000, CLOSED_FORM_PARTY_LIMIT + 1])
    def test_out_of_range_party_count_is_a_usage_error(self, name, n):
        with pytest.raises(UsageError):
            CLOSED_FORMS[name](n)

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_finite_up_to_the_limit(self, name):
        value = CLOSED_FORMS[name](CLOSED_FORM_PARTY_LIMIT)
        assert value is None or math.isfinite(value)


class TestGammaEstimation:
    def test_ideal(self):
        est = estimate_gammas(1.0, 1.0, 8)
        assert est.gamma_w == pytest.approx(0.0, abs=1e-12)
        assert est.gamma_d == pytest.approx(0.0, abs=1e-12)
        assert est.valid

    def test_reference_full_system_row(self):
        est = estimate_gammas(0.80, 0.63, 8)
        assert est.gamma_w == pytest.approx(0.2016, abs=5e-5)
        assert est.gamma_d == pytest.approx(0.1684, abs=5e-5)
        assert est.valid

    def test_pure_dephasing(self):
        est = estimate_gammas(1.0, 0.0, 8)
        assert est.gamma_w == pytest.approx(0.0, abs=1e-12)
        assert est.gamma_d == pytest.approx(1.0, abs=1e-12)
        assert est.valid

    def test_inversion_roundtrip(self):
        for n in (2, 4, 8):
            for gd, gw in ((0.1, 0.2), (0.0, 0.4), (0.3, 0.0)):
                state = ghz_noise_model(n, gd, gw)
                z = full_value(mz_terms(n), state)
                x = full_value(mx_terms(n), state)
                est = estimate_gammas(z, x, n)
                assert est.valid
                assert est.gamma_w == pytest.approx(gw, abs=1e-10)
                assert est.gamma_d == pytest.approx(gd, abs=1e-10)

    def test_inconsistent_data_flagged(self):
        # low z forces gamma_w past 1; the inversion reports it
        est = estimate_gammas(0.2, 0.9, 8)
        assert not est.valid


class TestVisibilityMargin:
    def test_ideal_ghz8_margin(self):
        pts = visibility_margin_curve(
            Partition(((1, 2, 3, 4, 5, 6, 7, 8),)),
            SeparabilityWitness(8, 2.0), [1.0], [1.0])
        assert len(pts) == 1
        assert pts[0].margin == pytest.approx(1.0, abs=1e-10)

    def test_reference_operating_point_violates(self):
        pts = visibility_margin_curve(
            Partition(((1, 2, 3, 4, 5, 6, 7, 8),)),
            SeparabilityWitness(8, 2.0), [0.967], [0.867])
        assert pts[0].margin > 0

    def test_zero_visibility_fails(self):
        pts = visibility_margin_curve(
            Partition(((1, 2, 3, 4, 5, 6, 7, 8),)),
            SeparabilityWitness(8, 2.0), [0.0], [0.0])
        assert pts[0].margin < 0

    def test_margin_monotone_in_v1(self):
        grid = [0.8, 0.9, 0.95, 1.0]
        pts = visibility_margin_curve(
            Partition(((1, 2, 3, 4),)), SeparabilityWitness(4, 2.0), grid)
        margins = [p.margin for p in pts]
        assert all(a < b for a, b in zip(margins, margins[1:]))

    def test_separability_target_within_party_count(self):
        pt = Partition(((1, 2), (3, 4)))
        with pytest.raises(UsageError):
            visibility_margin_curve(pt, SeparabilityWitness(4, 1.2), [1.0], target=5)
        pts = visibility_margin_curve(pt, SeparabilityWitness(4, 1.2), [1.0], target=4)
        # two Bell pairs: <M_Z> = 1/2 and <M_X> = 1
        assert pts[0].margin == pytest.approx(1.6 - msep_bound(1.2, 4), abs=1e-12)

    def test_depth_family_needs_target(self):
        pt = Partition(((1, 2, 3, 4, 5, 6, 7, 8),))
        with pytest.raises(UsageError):
            visibility_margin_curve(pt, DepthWitness(8, 2.0), [1.0])
        pts = visibility_margin_curve(pt, DepthWitness(8, 2.0), [1.0], target=3)
        assert pts[0].margin > 0

    @pytest.mark.parametrize("witness,target", [
        (SeparabilityWitness(8, 4 / 3, sign=-1), 3),
        (DepthWitness(8, 1.6), 2),
    ])
    def test_matches_dense_product_state(self, witness, target):
        pt = Partition(((1, 4), (2, 3, 5, 8), (6, 7)))
        grid = [0.8, 0.93, 1.0]
        pts = visibility_margin_curve(pt, witness, grid, [0.9, 1.0], target=target)
        if witness.family == "separability":
            terms, bound = separability_terms(witness), msep_bound(witness.alpha, target)
        else:
            terms, bound = depth_terms(witness), kprod_bound(target, witness.gamma)
        assert len(pts) == 6
        for p in pts:
            state = product_structure(
                pt, [visibility_state(len(g), p.v1, p.v2) for g in pt.groups])
            assert p.margin == pytest.approx(dense_value(terms, state) - bound,
                                             abs=1e-12)

    def test_depth_family_needs_the_tabulated_party_count(self):
        # the table holds 8-party bounds; against them six GHZ pairs would
        # read margin +0.074 at k = 1, a number that certifies nothing
        pt = Partition(tuple((p, p + 1) for p in range(1, 13, 2)))
        with pytest.raises(UsageError, match="8 parties"):
            visibility_margin_curve(pt, DepthWitness(12, 2.0), [1.0], target=1)
        with pytest.raises(UsageError, match="8 parties"):
            visibility_margin_curve(Partition(((1, 2, 3, 4), (5, 6))),
                                    DepthWitness(6, 2.0), [1.0], target=3)

    def test_odd_group_rejected(self):
        pt = Partition(((1, 2, 3), (4,)))
        with pytest.raises(UsageError):
            visibility_margin_curve(pt, SeparabilityWitness(4, 2.0), [1.0])
