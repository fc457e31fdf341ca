"""Counts: Born-rule probabilities, sampling, estimators, file format."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entstruct.core import THETA_MID, THETA_PLUS
from entstruct.errors import CountsFormatError, UsageError, ValidationError
from entstruct.states import (
    Partition,
    StateDensity,
    geometry_to_structure,
    ghz,
    product_structure,
    white_noise_mix,
)
from entstruct.tomo import (
    SETTING_LABELS,
    MeasurementRecord,
    MeasurementSetting,
    _setting_basis,
    estimate_mz,
    estimate_product_expectation,
    load_counts,
    marginalize,
    probabilities,
    sample_counts,
    save_counts,
    setting_observable,
    write_estimates_csv,
)


def einsum_probabilities(state, setting):
    """Reference Born rule: the full 2^n x 2^n product basis B and
    p = diag(B^dagger rho B) as one three-operand einsum (O(8^n))."""
    basis = np.eye(1, dtype=complex)
    for lab in setting.labels:
        basis = np.kron(basis, _setting_basis(lab))
    return np.real(np.einsum("ip,ij,jp->p", basis.conj(), state.matrix, basis))


# xy-plane angle of each non-Z setting; X is angle 0
XY_ANGLE = {"X": 0.0, "AMIX": THETA_MID, "APLUS": THETA_PLUS}


def ghz_blocks_distribution(groups, label, n, noise):
    """Closed-form outcome distribution of a product of GHZ blocks mixed
    with white noise: Z gives 1/2 on a block's all-0 and all-1 outcomes;
    an xy setting at angle t gives 2^-s (1 + (-1)^|b| cos(s t)) for a
    block of s parties with outcome bits b.  Party 1 is the top bit."""
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    prob = np.ones(2**n)
    for g in groups:
        b = bits[:, [p - 1 for p in g]]
        if label == "Z":
            prob *= 0.5 * (b.all(axis=1) | ~b.any(axis=1))
        else:
            s = len(g)
            sign = 1 - 2 * (b.sum(axis=1) % 2)
            prob *= 2.0**-s * (1 + sign * np.cos(s * XY_ANGLE[label]))
    return (1 - noise) * prob + noise / 2**n


@st.composite
def wishart_and_setting(draw):
    """A random mixed state rho = G G^dagger / tr (G complex Gaussian,
    2^n x (2^n + 1)) and a random mixed-label setting, n = 1..6."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    g = rng.normal(size=(dim, dim + 1)) + 1j * rng.normal(size=(dim, dim + 1))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    labels = draw(st.lists(st.sampled_from(SETTING_LABELS), min_size=n, max_size=n))
    return StateDensity(rho, n), MeasurementSetting(tuple(labels))


def record_from_exact(state, setting, shots):
    """Counts proportional to the exact distribution (requires divisible
    probabilities, used with dyadic states only)."""
    probs = probabilities(state, setting)
    n = setting.n
    counts = {}
    for idx, p in enumerate(probs):
        c = p * shots
        assert abs(c - round(c)) < 1e-9
        if round(c):
            counts[format(idx, f"0{n}b")] = int(round(c))
    return MeasurementRecord(setting, counts)


class TestProbabilities:
    def test_bell_z_basis(self):
        probs = probabilities(ghz(2), MeasurementSetting.uniform("Z", 2))
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        state = white_noise_mix(ghz(3), 1.0)
        for label in ("Z", "X", "APLUS", "AMIX"):
            probs = probabilities(state, MeasurementSetting.uniform(label, 3))
            assert np.allclose(probs, 1 / 8, atol=1e-12)

    def test_ghz8_x_parity(self):
        probs = probabilities(ghz(8), MeasurementSetting.uniform("X", 8))
        parity = np.array([(-1) ** bin(i).count("1") for i in range(256)])
        assert parity @ probs == pytest.approx(1.0, abs=1e-12)
        # odd-parity strings never occur
        assert probs[parity < 0].max() < 1e-14

    def test_setting_observables_are_unit(self):
        for label in ("Z", "X", "APLUS", "AMIX"):
            obs = setting_observable(label)
            vals = np.linalg.eigvalsh(obs.matrix)
            assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            MeasurementSetting.uniform("Y2", 3)

    @given(wishart_and_setting())
    def test_agrees_with_einsum_on_random_mixed_states(self, case):
        state, setting = case
        np.testing.assert_allclose(probabilities(state, setting),
                                   einsum_probabilities(state, setting),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("geometry", ["".join(g) for g in itertools.product("UD", repeat=3)])
    def test_pbs_geometries_match_closed_form(self, geometry):
        groups = geometry_to_structure(*(c == "U" for c in geometry)).groups
        ideal = product_structure(Partition(groups), [ghz(len(g)) for g in groups])
        for noise in (0.0, 0.05):
            state = white_noise_mix(ideal, noise)
            for label in SETTING_LABELS:
                np.testing.assert_allclose(
                    probabilities(state, MeasurementSetting.uniform(label, 8)),
                    ghz_blocks_distribution(groups, label, 8, noise),
                    rtol=0, atol=1e-12, err_msg=f"{label} noise={noise}")

    def test_ghz10_white_noise_matches_closed_form(self):
        state = white_noise_mix(ghz(10), 0.05)
        everyone = tuple(range(1, 11))
        for label in SETTING_LABELS:
            np.testing.assert_allclose(
                probabilities(state, MeasurementSetting.uniform(label, 10)),
                ghz_blocks_distribution([everyone], label, 10, 0.05),
                rtol=0, atol=1e-12, err_msg=label)


class TestSampling:
    def test_deterministic_per_seed(self):
        setting = MeasurementSetting.uniform("X", 4)
        a = sample_counts(ghz(4), setting, 5000, seed=42)
        b = sample_counts(ghz(4), setting, 5000, seed=42)
        assert a == b

    def test_total_preserved(self):
        rec = sample_counts(ghz(3), MeasurementSetting.uniform("Z", 3), 777, seed=0)
        assert rec.total == 777

    def test_numpy_integer_shots_accepted(self):
        rec = sample_counts(ghz(3), MeasurementSetting.uniform("Z", 3), np.int64(777),
                            seed=0)
        assert rec.total == 777

    @pytest.mark.parametrize("shots", [2.5, True, float("nan"), "10", 0, -3])
    def test_invalid_shots_rejected(self, shots):
        with pytest.raises(UsageError, match="shots"):
            sample_counts(ghz(2), MeasurementSetting.uniform("Z", 2), shots, seed=0)

    def test_bell_z_support(self):
        rec = sample_counts(ghz(2), MeasurementSetting.uniform("Z", 2), 10000, seed=1)
        assert set(rec.counts) <= {"00", "11"}

    def test_five_sigma_consistency(self):
        # sampled X-parity estimate stays within 5 sigma of the dense value
        state = white_noise_mix(ghz(4), 0.3)
        setting = MeasurementSetting.uniform("X", 4)
        exact = 0.7  # (1-p) parity survival for n=4
        rec = sample_counts(state, setting, 20000, seed=9)
        est = estimate_product_expectation(rec, (1, 2, 3, 4))
        assert abs(est.value - exact) < 5 * est.sigma


class TestEstimators:
    def test_perfect_correlation(self):
        rec = MeasurementRecord(MeasurementSetting.uniform("Z", 2),
                                {"00": 50, "11": 50})
        est = estimate_product_expectation(rec, (1, 2))
        assert est.value == 1.0
        assert est.sigma == 0.0

    def test_hand_arithmetic_pair(self):
        rec = MeasurementRecord(MeasurementSetting.uniform("Z", 2),
                                {"00": 50, "11": 30, "01": 10, "10": 10})
        est = estimate_product_expectation(rec, (1, 2))
        assert est.value == pytest.approx(0.6, abs=1e-14)
        assert est.sigma == pytest.approx(math.sqrt((1 - 0.36) / 100), abs=1e-14)

    def test_hand_arithmetic_single(self):
        rec = MeasurementRecord(MeasurementSetting.uniform("Z", 2),
                                {"00": 50, "11": 30, "01": 10, "10": 10})
        est = estimate_product_expectation(rec, (1,))
        assert est.value == pytest.approx(0.2, abs=1e-14)

    def test_mz_full_ghz(self):
        rec = record_from_exact(ghz(8), MeasurementSetting.uniform("Z", 8), 1024)
        est = estimate_mz(rec, tuple(range(1, 9)))
        assert est.value == 1.0

    def test_mz_across_bell_pairs(self):
        pt = Partition(((1, 2), (3, 4)))
        state = product_structure(pt, [ghz(2), ghz(2)])
        rec = record_from_exact(state, MeasurementSetting.uniform("Z", 4), 1024)
        est = estimate_mz(rec, (2, 3))
        assert est.value == pytest.approx(0.5, abs=1e-14)

    def test_mz_uniform_counts(self):
        setting = MeasurementSetting.uniform("Z", 4)
        counts = {format(i, "04b"): 3 for i in range(16)}
        rec = MeasurementRecord(setting, counts)
        for s in (2, 3, 4):
            est = estimate_mz(rec, tuple(range(1, s + 1)))
            assert est.value == pytest.approx(2 ** (1 - s), abs=1e-14)

    def test_mz_requires_z_setting(self):
        rec = MeasurementRecord(MeasurementSetting.uniform("X", 2), {"00": 10})
        with pytest.raises(UsageError):
            estimate_mz(rec, (1, 2))

    def test_party_bounds(self):
        rec = MeasurementRecord(MeasurementSetting.uniform("Z", 2), {"00": 10})
        with pytest.raises(UsageError):
            estimate_product_expectation(rec, (1, 3))
        with pytest.raises(UsageError):
            estimate_product_expectation(rec, (1, 1))


class TestMarginalize:
    def test_counts_sum_preserved(self):
        rec = sample_counts(ghz(5), MeasurementSetting.uniform("Z", 5), 4000, seed=2)
        marg = marginalize(rec, (2, 4))
        assert marg.total == rec.total
        assert marg.setting.n == 2

    def test_estimates_bit_exact(self):
        rec = sample_counts(white_noise_mix(ghz(5), 0.4),
                            MeasurementSetting.uniform("X", 5), 3000, seed=3)
        sub = (1, 3, 5)
        direct = estimate_product_expectation(rec, sub)
        via_marg = estimate_product_expectation(marginalize(rec, sub), (1, 2, 3))
        assert direct.value == via_marg.value
        assert direct.sigma == via_marg.sigma

    def test_label_projection(self):
        setting = MeasurementSetting(("Z", "X", "Z", "APLUS"))
        rec = MeasurementRecord(setting, {"0000": 5})
        marg = marginalize(rec, (2, 4))
        assert marg.setting.labels == ("X", "APLUS")


class TestCountsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "counts.json"
        recs = [
            sample_counts(ghz(3), MeasurementSetting.uniform(lab, 3), 500, seed=i)
            for i, lab in enumerate(("Z", "X", "AMIX", "APLUS"))
        ]
        save_counts(recs, path)
        back = load_counts(path)
        assert back == recs

    def test_small_totals_accepted(self, tmp_path):
        # coincidence experiments yield totals in the hundreds
        path = tmp_path / "counts.json"
        rec = MeasurementRecord(MeasurementSetting.uniform("Z", 8),
                                {"0" * 8: 329, "1" * 8: 329})
        save_counts([rec], path)
        assert load_counts(path)[0].total == 658

    def test_wrong_outcome_length(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"n": 3, "records": [
            {"setting": ["Z", "Z", "Z"], "counts": {"00": 5}}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(CountsFormatError, match="record 0"):
            load_counts(path)

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n  "records": [}')
        with pytest.raises(CountsFormatError, match="line 2"):
            load_counts(path)

    def test_duplicate_outcome_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"n": 1, "records": [{"setting": ["Z"], '
            '"counts": {"0": 5, "0": 7}}]}'
        )
        with pytest.raises(CountsFormatError, match="duplicate"):
            load_counts(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        doc = {"n": 1, "records": [{"setting": ["Z"], "counts": {"0": 5}}],
               "comment": "hi"}
        path.write_text(json.dumps(doc))
        with pytest.raises(CountsFormatError):
            load_counts(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        doc = {"n": 1, "records": [{"setting": ["Z"], "counts": {"0": -5}}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(CountsFormatError):
            load_counts(path)

    def test_estimates_csv(self, tmp_path):
        path = tmp_path / "est.csv"
        write_estimates_csv(path, [((1, 2), "MZ", 0.5, 0.01)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "subset,observable,value,sigma"
        assert lines[1] == "1+2,MZ,0.5,0.01"
