"""Witness construction, bounds lookup, and decision rules."""

import math

import numpy as np
import pytest

from entstruct.bounds import (
    a_terms,
    aprime_terms,
    depth_terms,
    mx_terms,
    mz_terms,
    separability_terms,
)
from entstruct.errors import UsageError, ValidationError
from entstruct.states import Partition, ghz, product_structure
from entstruct.witnesses import (
    DEFAULT_GAMMA_GRID,
    KAPPA,
    DepthWitness,
    ExpectationPair,
    SeparabilityWitness,
    decide,
    depth_lower_bound,
    depth_scan,
    depth_witness_value,
    intactness_scan,
    intactness_upper_bound,
    kappa_from_angles,
    kprod_bound,
    kprod_bound_entry,
    msep_bound,
    optimal_alpha,
    WitnessValue,
    separability_witness_value,
)
from oracles import dense, dense_value

THETA_MID = 3 / 80
THETA_PLUS = 27 / 80


def structured_ghz(sizes):
    start, groups = 1, []
    for s in sizes:
        groups.append(tuple(range(start, start + s)))
        start += s
    pt = Partition(tuple(groups))
    return product_structure(pt, [ghz(s) for s in sizes])


class TestOperators:
    def test_mz_is_edge_projector_sum(self):
        mz = dense(mz_terms(3))
        want = np.zeros((8, 8))
        want[0, 0] = want[7, 7] = 1.0
        assert np.array_equal(mz, want)

    def test_mx_is_full_parity(self):
        mx = dense(mx_terms(2))
        assert np.array_equal(mx, np.fliplr(np.eye(4)))


class TestKappa:
    def test_experiment_value(self):
        assert KAPPA == pytest.approx(math.cos(0.3), abs=1e-15)

    def test_half_angle_rule(self):
        rng = np.random.default_rng(0)
        for tp, tm in rng.uniform(-1, 1, size=(8, 2)):
            assert kappa_from_angles(tp, tm) == pytest.approx(
                math.cos((tp - tm) / 2), abs=1e-14)


class TestMsepBound:
    @pytest.mark.parametrize("alpha,m,want", [
        (2.0, 2, 2.0),
        (4 / 3, 3, 4 / 3),
        (16 / 15, 5, 16 / 15),
        (1.0, 5, 1.0625),
        (2.0, 8, 2.0),
    ])
    def test_pinned(self, alpha, m, want):
        assert msep_bound(alpha, m) == pytest.approx(want, abs=1e-12)

    def test_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.05, 2.0)
            m = int(rng.integers(2, 9))
            want = max(alpha, alpha / 2 ** (m - 1) + 1)
            assert msep_bound(alpha, m) == pytest.approx(want, abs=1e-14)

    def test_optimal_alpha_pins(self):
        assert optimal_alpha(2) == pytest.approx(2.0)
        assert optimal_alpha(3) == pytest.approx(4 / 3)
        assert optimal_alpha(4) == pytest.approx(8 / 7)
        assert optimal_alpha(5) == pytest.approx(16 / 15)

    def test_optimal_alpha_limit(self):
        # decreasing toward 1
        vals = [optimal_alpha(m) for m in range(2, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-7)

    def test_branches_cross_at_optimal_alpha(self):
        for m in range(2, 9):
            a = optimal_alpha(m)
            assert a == pytest.approx(a / 2 ** (m - 1) + 1, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            SeparabilityWitness(4, 2.5)
        with pytest.raises(ValidationError):
            SeparabilityWitness(4, 0.0)


class TestSeparabilityDense:
    def test_bell_value(self):
        w = separability_terms(SeparabilityWitness(2, 2.0))
        assert dense_value(w, ghz(2)) == pytest.approx(3.0, abs=1e-12)

    def test_ghz8_value(self):
        w = separability_terms(SeparabilityWitness(8, 2.0))
        assert dense_value(w, ghz(8)) == pytest.approx(3.0, abs=1e-12)

    def test_g71_at_four_thirds(self):
        state = structured_ghz([7, 1])
        w = separability_terms(SeparabilityWitness(8, 4 / 3))
        assert dense_value(w, state) == pytest.approx(5 / 3, abs=1e-9)

    def test_sign_variant(self):
        spec = SeparabilityWitness(3, 1.5, sign=-1)
        want = 1.5 * dense(mz_terms(3)) - dense(mx_terms(3))
        assert np.allclose(dense(separability_terms(spec)), want)


class TestDepthDense:
    def test_ghz8_matches_cosine_law(self):
        spec = DepthWitness(8, 2.0)
        state = ghz(8)
        a = dense_value(a_terms(spec), state)
        ap = dense_value(aprime_terms(spec), state)
        assert a == pytest.approx(math.cos(8 * THETA_MID), abs=1e-12)
        assert ap == pytest.approx(math.cos(8 * THETA_PLUS), abs=1e-12)
        w = dense_value(depth_terms(spec), state)
        assert w == pytest.approx(2 * KAPPA**8 * a - ap, abs=1e-12)

    @pytest.mark.parametrize("sizes,a_want,ap_want,w_want", [
        ([7, 1], 0.9651, -0.6714, 2.0106),
        ([5, 3], 0.9763, -0.0617, 1.4164),
    ])
    def test_ideal_structured_rows(self, sizes, a_want, ap_want, w_want):
        state = structured_ghz(sizes)
        spec = DepthWitness(8, 2.0)
        a = dense_value(a_terms(spec), state)
        ap = dense_value(aprime_terms(spec), state)
        w = dense_value(depth_terms(spec), state)
        assert a == pytest.approx(a_want, abs=5e-4)
        assert ap == pytest.approx(ap_want, abs=5e-4)
        assert w == pytest.approx(w_want, abs=5e-4)
        # closed form: product over groups of cos(size * angle)
        a_exact = np.prod([math.cos(s * THETA_MID) for s in sizes])
        ap_exact = np.prod([math.cos(s * THETA_PLUS) for s in sizes])
        assert a == pytest.approx(a_exact, abs=1e-12)
        assert ap == pytest.approx(ap_exact, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValidationError, match="gamma"):
            DepthWitness(8, gamma)
        with pytest.raises(UsageError, match="gamma"):
            depth_witness_value(ExpectationPair(0.8, 0.2), gamma)
        with pytest.raises(UsageError, match="gamma"):
            kprod_bound_entry(3, gamma)

    def test_antipodal_angles_rejected(self):
        with pytest.raises(ValidationError):
            DepthWitness(4, 2.0, theta_plus=math.pi / 2, theta_minus=-math.pi / 2)


class TestExpectationPair:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ExpectationPair(1.5, 0.0, 0.0, 0.0)

    def test_sigma_slack_allows_noisy_edge(self):
        ExpectationPair(1.02, 0.0, 0.01, 0.0)  # within 3 sigma of physical

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValidationError):
            ExpectationPair(0.5, 0.5, -0.01, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite(self, bad, slot):
        args = [0.5, 0.5, 0.01, 0.01]
        args[slot] = bad
        with pytest.raises(ValidationError, match="finite"):
            ExpectationPair(*args)


class TestWitnessValues:
    def test_sign_selection(self):
        up = separability_witness_value(ExpectationPair(0.5, 0.8, 0, 0), 2.0)
        down = separability_witness_value(ExpectationPair(0.5, -0.8, 0, 0), 2.0)
        assert up.value == pytest.approx(1.8)
        assert up.sign == +1
        assert down.value == pytest.approx(1.8)
        assert down.sign == -1

    def test_sigma_propagation(self):
        wv = separability_witness_value(ExpectationPair(0.5, 0.5, 0.03, 0.04), 2.0)
        assert wv.sigma == pytest.approx(math.hypot(2 * 0.03, 0.04), abs=1e-14)

    def test_depth_value_formula(self):
        pair = ExpectationPair(0.9, -0.5, 0.01, 0.02)
        wv = depth_witness_value(pair, 1.7, n=8)
        assert wv.value == pytest.approx(1.7 * KAPPA**8 * 0.9 + 0.5, abs=1e-12)
        assert wv.sigma == pytest.approx(
            math.hypot(1.7 * KAPPA**8 * 0.01, 0.02), abs=1e-14)


class TestKprodLookup:
    @pytest.mark.parametrize("k,gamma,want", [
        (3, 2.0, 1.1699),
        (2, 1.6, 0.7904),
        (7, 2.0, 2.0578),
        (1, 2.0, 0.8365),
    ])
    def test_tabulated_cells(self, k, gamma, want):
        entry = kprod_bound_entry(k, gamma)
        assert entry.value == want
        assert entry.source == "tabulated"

    def test_interpolated_cell(self):
        entry = kprod_bound_entry(2, 1.8)
        assert entry.source == "computed"
        assert kprod_bound(2, 1.6) < entry.value < kprod_bound(2, 2.0)

    def test_default_grid_provenance(self):
        # every gamma = 2.0 cell is certified; at gamma = 1.6 only k = 2 and 3 are
        computed = {(k, 1.6) for k in (1, 4, 5, 6, 7)}
        assert DEFAULT_GAMMA_GRID == (1.6, 2.0)
        for gamma in DEFAULT_GAMMA_GRID:
            for k in range(1, 8):
                want = "computed" if (k, gamma) in computed else "tabulated"
                assert kprod_bound_entry(k, gamma).source == want, (k, gamma)

    def test_monotone_in_k(self):
        vals = [kprod_bound(k, 2.0) for k in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            kprod_bound_entry(8, 2.0)
        with pytest.raises(UsageError):
            kprod_bound_entry(3, 0.0)
        with pytest.raises(UsageError):
            kprod_bound_entry(3, 2.5)
        with pytest.raises(UsageError):
            kprod_bound_entry(2.5, 2.0)


class TestDecisionRules:
    def test_intactness_gme_case(self):
        pair = ExpectationPair(0.80, 0.63, 0.0, 0.0)
        assert intactness_upper_bound(pair, 8) == 1

    def test_intactness_partial_case(self):
        pair = ExpectationPair(0.27, 0.86, 0.0, 0.0)
        assert intactness_upper_bound(pair, 8) == 3

    def test_intactness_mixed_case(self):
        pair = ExpectationPair(0.0, 0.0, 0.0, 0.0)
        assert intactness_upper_bound(pair, 8) is None

    def test_intactness_respects_confidence(self):
        # barely violating signal dissolves under a wide error bar
        pair = ExpectationPair(0.80, 0.63, 0.2, 0.2)
        assert intactness_upper_bound(pair, 8, confidence_sigmas=3.0) is None

    def test_depth_pinned_cases(self):
        pair = ExpectationPair(0.84, -0.02, 0.0, 0.0)
        assert depth_lower_bound(pair, gamma_grid=(1.6,)) == 4
        pair2 = ExpectationPair(0.83, 0.19, 0.0, 0.0)
        assert depth_lower_bound(pair2, gamma_grid=(2.0,)) == 2
        pair3 = ExpectationPair(0.0, 0.0, 0.0, 0.0)
        assert depth_lower_bound(pair3) is None

    def test_depth_default_grid_matches_explicit(self):
        pair = ExpectationPair(0.84, -0.02, 0.0, 0.0)
        assert depth_lower_bound(pair) == depth_lower_bound(
            pair, gamma_grid=DEFAULT_GAMMA_GRID)


class TestDecide:
    def test_boundary_is_not_a_violation(self):
        at = decide((1, 2), "sep(alpha=2)", WitnessValue(2.5, 0.25, 1), 2.0, 2.0)
        assert at.verdict == "not_violated" and not at.violated
        above = decide((1, 2), "sep(alpha=2)", WitnessValue(2.51, 0.25, 1), 2.0, 2.0)
        assert above.verdict == "violated" and above.violated
        assert above.subset == (1, 2)
        assert (above.value, above.sigma, above.bound) == (2.51, 0.25, 2.0)

    @pytest.mark.parametrize("conf", [-1.0, -1e-12, float("nan"), float("inf"),
                                      float("-inf")])
    def test_confidence_must_be_finite_and_non_negative(self, conf):
        with pytest.raises(UsageError, match="confidence_sigmas"):
            decide((1, 2), "sep(alpha=2)", WitnessValue(2.5, 0.25, 1), 2.0, conf)
        pair = ExpectationPair(0.80, 0.63, 0.01, 0.01)
        with pytest.raises(UsageError, match="confidence_sigmas"):
            intactness_upper_bound(pair, 8, confidence_sigmas=conf)
        with pytest.raises(UsageError, match="confidence_sigmas"):
            depth_lower_bound(pair, confidence_sigmas=conf)

    def test_zero_confidence_decides_on_the_point_value(self):
        row = decide((1, 2), "sep(alpha=2)", WitnessValue(2.01, 0.25, 1), 2.0, 0.0)
        assert row.violated

    def test_intactness_scan_rows(self):
        upper, rows = intactness_scan(ExpectationPair(0.27, 0.86), 8, 0.0)
        assert upper == 3
        assert [r.witness for r in rows] == [
            "sep(alpha=2,m=2)", "sep(alpha=1.33333,m=3)", "sep(alpha=1.14286,m=4)"]
        assert [r.violated for r in rows] == [False, False, True]
        assert {r.subset for r in rows} == {tuple(range(1, 9))}

    def test_depth_scan_rows(self):
        depth, rows = depth_scan(ExpectationPair(0.84, -0.02), (1.6, 2.0), 0.0)
        assert depth == 4
        assert [r.witness for r in rows] == ["depth(gamma=1.6,k=3)",
                                             "depth(gamma=2,k=3)"]
        assert [r.violated for r in rows] == [True, True]
        assert rows[0].bound == kprod_bound(3, 1.6)

    def test_depth_scan_without_violation_shows_k1(self):
        depth, rows = depth_scan(ExpectationPair(0.5, 0.3), (2.0,), 0.0)
        assert depth is None
        assert [(r.witness, r.verdict) for r in rows] == [
            ("depth(gamma=2,k=1)", "not_violated")]

    def test_depth_lower_bound_takes_no_size_or_kappa(self):
        pair = ExpectationPair(0.84, -0.02)
        with pytest.raises(TypeError):
            depth_lower_bound(pair, n=8)
        with pytest.raises(TypeError):
            depth_lower_bound(pair, kappa=KAPPA)
