"""Numerical bound machinery: see-saw, oracles, closed forms, SOS."""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from entstruct import bounds
from entstruct.core import P0, P1, SX, SZ, xy_observable
from entstruct.errors import UsageError
from entstruct.states import Partition, StateDensity, product_structure
from entstruct.witnesses import DepthWitness, SeparabilityWitness, msep_bound
from entstruct.bounds import (
    ProductTerms,
    SeesawConfig,
    canonical_partition,
    depth_terms,
    kprod_curve,
    seesaw_max,
    separability_terms,
    terms_expectation,
)
from oracles import (
    brute_oracle_max,
    dense,
    dense_value,
    mb_lambda_max,
    msep_bound_numeric,
    seesaw_reference,
    sos_gap,
)


def kron_power(mat, n):
    return reduce(np.kron, [mat] * n)


class TestMbLambdaMax:
    def test_diagonal_case(self):
        assert mb_lambda_max(1.0, 0.0, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_saturation_case(self):
        assert mb_lambda_max(0.5, 0.5, 1.0, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_matches_dense_2x2(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x, y = rng.uniform(0, 1, size=2)
            z = rng.uniform(-1, 1)
            alpha = rng.uniform(0.1, 2.0)
            mat = np.array([[alpha * x, z], [z, alpha * y]])
            want = np.linalg.eigvalsh(mat)[-1]
            assert mb_lambda_max(x, y, z, alpha) == pytest.approx(want, abs=1e-12)

    def test_dominates_z(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, y = rng.uniform(0, 1, size=2)
            z = rng.uniform(-1, 1)
            assert mb_lambda_max(x, y, z, 1.5) >= abs(z) - 1e-14


class TestCanonicalPartition:
    def test_8_3(self):
        assert canonical_partition(8, 3).sizes == (3, 3, 2)

    def test_8_8(self):
        assert canonical_partition(8, 8).sizes == (8,)

    def test_8_1(self):
        assert canonical_partition(8, 1).sizes == (1,) * 8

    def test_covers_everyone(self):
        for n in range(2, 9):
            for k in range(1, n + 1):
                pt = canonical_partition(n, k)
                assert pt.n == n
                assert pt.max_group <= k


class TestTerms:
    def test_separability_dense_roundtrip(self):
        spec = SeparabilityWitness(4, 1.7)
        want = 1.7 * (kron_power(P0, 4) + kron_power(P1, 4)) + kron_power(SX, 4)
        assert np.allclose(dense(separability_terms(spec)), want, atol=1e-12)

    def test_depth_dense_roundtrip(self):
        spec = DepthWitness(4, 1.3)
        plus = xy_observable(spec.theta_plus)
        minus = xy_observable(spec.theta_minus)
        mean = (plus + minus) / (2 * spec.kappa)
        want = 1.3 * spec.kappa**4 * kron_power(mean, 4) - kron_power(plus, 4)
        assert np.allclose(dense(depth_terms(spec)), want, atol=1e-12)

    def test_terms_expectation_matches_dense(self):
        spec = SeparabilityWitness(4, 2.0)
        terms = separability_terms(spec)
        pt = Partition(((1, 3), (2,), (4,)))
        rng = np.random.default_rng(12)
        states = []
        for size in pt.sizes:
            v = rng.normal(size=2**size) + 1j * rng.normal(size=2**size)
            v /= np.linalg.norm(v)
            states.append(StateDensity(np.outer(v, v.conj()), size))
        got = terms_expectation(terms, pt, states)
        # dense oracle: embed the product state and evaluate
        want = dense_value(terms, product_structure(pt, states))
        assert got == pytest.approx(want, abs=1e-12)


class TestSeesaw:
    def test_biseparable_pair(self):
        terms = separability_terms(SeparabilityWitness(2, 2.0))
        res = seesaw_max(terms, Partition(((1,), (2,))),
                         SeesawConfig(restarts=20))
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.converged

    def test_three_singletons(self):
        terms = separability_terms(SeparabilityWitness(3, 4 / 3))
        res = seesaw_max(terms, Partition(((1,), (2,), (3,))),
                         SeesawConfig(restarts=20))
        assert res.value == pytest.approx(4 / 3, abs=1e-9)

    def test_unrestricted_group_hits_lambda_max(self):
        spec = SeparabilityWitness(2, 2.0)
        terms = separability_terms(spec)
        res = seesaw_max(terms, Partition(((1, 2),)), SeesawConfig(restarts=5))
        want = np.linalg.eigvalsh(dense(terms))[-1]
        assert res.value == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(3.0, abs=1e-12)

    def test_eight_singletons_hit_msep_bound(self):
        terms = separability_terms(SeparabilityWitness(8, 2.0))
        res = seesaw_max(terms, canonical_partition(8, 1),
                         SeesawConfig(restarts=30))
        assert res.value == pytest.approx(msep_bound(2.0, 8), abs=1e-7)

    def test_depth_four_producible_cell(self):
        terms = depth_terms(DepthWitness(8, 2.0))
        res = seesaw_max(terms, canonical_partition(8, 4),
                         SeesawConfig(restarts=60))
        assert res.value == pytest.approx(1.3856, abs=1e-3)

    def test_deterministic_per_seed(self):
        terms = depth_terms(DepthWitness(4, 1.5))
        cfg = SeesawConfig(restarts=10, seed=123)
        a = seesaw_max(terms, canonical_partition(4, 2), cfg)
        b = seesaw_max(terms, canonical_partition(4, 2), cfg)
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_result_is_attained_by_reported_states(self):
        terms = separability_terms(SeparabilityWitness(4, 1.2))
        pt = canonical_partition(4, 2)
        res = seesaw_max(terms, pt, SeesawConfig(restarts=15))
        rhos = [np.outer(psi, psi.conj()) for psi in res.group_states]
        replay = terms_expectation(terms, pt, rhos)
        assert replay == pytest.approx(res.value, abs=1e-10)

    def test_partition_mismatch(self):
        terms = separability_terms(SeparabilityWitness(3, 2.0))
        with pytest.raises(UsageError):
            seesaw_max(terms, Partition(((1,), (2,))))


class TestBatchedSeesaw:
    """seesaw_max runs restarts side by side; the reference runs them one
    at a time.  Both must find the same optimum from the same draws."""

    @pytest.mark.parametrize("terms,partition,restarts,seed", [
        # a 7-party group batches up to 512 restarts, so these run in one batch
        (depth_terms(DepthWitness(8, 2.0)), canonical_partition(8, 7), 9, 7),
        (separability_terms(SeparabilityWitness(8, 2.0)), canonical_partition(8, 7), 9, 99),
        (depth_terms(DepthWitness(8, 1.6)), canonical_partition(8, 3), 12, 99),
        (depth_terms(DepthWitness(8, 2.0)), canonical_partition(8, 1), 20, 7),
        (depth_terms(DepthWitness(6, 1.5)), Partition(((3, 1), (2,), (4, 5, 6))), 10, 7),
        (separability_terms(SeparabilityWitness(8, 4 / 3, sign=-1)),
         canonical_partition(8, 1), 20, 7),
        # a 6-party group batches up to 1024 restarts
        (separability_terms(SeparabilityWitness(7, 1.2)),
         Partition(((1, 2, 3, 4, 5, 6), (7,))), 20, 99),
    ])
    def test_matches_one_restart_at_a_time(self, terms, partition, restarts, seed):
        cfg = SeesawConfig(restarts=restarts, seed=seed)
        got = seesaw_max(terms, partition, cfg)
        want = seesaw_reference(terms, partition, cfg)
        assert got.value == pytest.approx(want.value, abs=1e-12)
        assert got.converged == want.converged
        rhos = [np.outer(psi, psi.conj()) for psi in got.group_states]
        assert terms_expectation(terms, partition, rhos) == pytest.approx(
            got.value, abs=1e-10)

    def test_restarts_split_across_batches(self, monkeypatch):
        # 2 restarts per batch on 7+1: the best of 9 is picked across 5 batches
        monkeypatch.setattr(bounds, "_BATCH_ENTRIES", 2**8)
        terms = depth_terms(DepthWitness(8, 2.0))
        cfg = SeesawConfig(restarts=9, seed=7)
        got = seesaw_max(terms, canonical_partition(8, 7), cfg)
        want = seesaw_reference(terms, canonical_partition(8, 7), cfg)
        assert got.value == pytest.approx(want.value, abs=1e-12)
        assert (got.converged, got.iterations) == (want.converged, want.iterations)

    def test_memory_is_bounded_by_the_batch(self):
        # one restart at a time, every restart kept its whole 128 x 128
        # eigenvector matrix alive: 16 MiB at 60 restarts on 7+1
        terms = depth_terms(DepthWitness(8, 2.0))
        tracemalloc.start()
        try:
            seesaw_max(terms, canonical_partition(8, 7), SeesawConfig(restarts=60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestBlockUpdate:
    def test_mixed_term_on_a_pair_is_rejected(self):
        terms = ProductTerms(2, (1.0,), ((P0, SX),))
        with pytest.raises(UsageError, match=r"term 0 .* group \(1, 2\)"):
            seesaw_max(terms, Partition(((1, 2),)), SeesawConfig(restarts=2))
        res = seesaw_max(terms, Partition(((1,), (2,))), SeesawConfig(restarts=5))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_mixed_term_on_a_pair_is_rejected_by_the_evaluator(self):
        # P0 x SX on |0>|+> is 1, but neither its diagonal nor its
        # anti-diagonal part sees it: a pair group refuses the term
        terms = ProductTerms(2, (1.0,), ((P0, SX),))
        zero_plus = np.zeros((4, 4))
        zero_plus[:2, :2] = 0.5
        assert dense_value(terms, StateDensity(zero_plus, 2)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(UsageError, match=r"term 0 .* group \(1, 2\)"):
            terms_expectation(terms, Partition(((1, 2),)), [zero_plus])
        value = terms_expectation(terms, Partition(((1,), (2,))),
                                  [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)])
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_singleton_group_takes_a_general_factor(self):
        general = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.7]])
        terms = ProductTerms(3, (1.0, -0.6), ((SX, SX, general),
                                              (P0, P1, SZ + 0.4 * SX)))
        partition = Partition(((1, 2), (3,)))
        cfg = SeesawConfig(restarts=12, seed=5)
        got = seesaw_max(terms, partition, cfg)
        want = seesaw_reference(terms, partition, cfg)
        assert got.value == pytest.approx(want.value, abs=1e-12)
        assert got.converged == want.converged


class TestBruteOracle:
    def test_grid_matches_closed_form_n2(self):
        terms = separability_terms(SeparabilityWitness(2, 2.0))
        got = brute_oracle_max(terms, canonical_partition(2, 1), grid_density=41)
        assert got == pytest.approx(2.0, abs=2e-3)
        assert got <= 2.0 + 1e-12  # lower bound from below

    def test_grid_three_singletons(self):
        terms = separability_terms(SeparabilityWitness(3, 4 / 3))
        got = brute_oracle_max(terms, canonical_partition(3, 1), grid_density=9)
        # grid contains theta=pi/4, phi=0, which saturates the bound
        assert got == pytest.approx(4 / 3, abs=1e-12)

    def test_random_mode_confirms_seesaw_from_below(self):
        terms = depth_terms(DepthWitness(4, 2.0))
        pt = canonical_partition(4, 2)
        see = seesaw_max(terms, pt, SeesawConfig(restarts=30))
        brute = brute_oracle_max(terms, pt, samples=40000, seed=3)
        # random sampling is a slack lower bound on 4-dim group spaces;
        # it must never exceed the see-saw optimum
        assert brute <= see.value + 1e-9
        assert brute > 0.5 * see.value

    def test_random_mode_tight_on_single_qubits(self):
        terms = separability_terms(SeparabilityWitness(2, 2.0))
        pt = canonical_partition(2, 1)
        brute = brute_oracle_max(terms, pt, samples=50000, seed=5)
        assert brute <= 2.0 + 1e-9
        assert brute == pytest.approx(2.0, abs=0.02)

    def test_grid_mode_guardrails(self):
        terms = separability_terms(SeparabilityWitness(4, 2.0))
        with pytest.raises(UsageError):
            brute_oracle_max(terms, canonical_partition(4, 1), grid_density=9)
        terms3 = separability_terms(SeparabilityWitness(3, 2.0))
        with pytest.raises(UsageError):
            brute_oracle_max(terms3, canonical_partition(3, 3), grid_density=9)
        with pytest.raises(UsageError):
            brute_oracle_max(terms3, canonical_partition(3, 1), grid_density=3)


class TestMsepNumeric:
    @pytest.mark.parametrize("n,m,alpha", [
        (2, 2, 2.0),
        (3, 3, 4 / 3),
        (4, 2, 1.0),
        (5, 3, 1.0),
        (5, 5, 0.5),
    ])
    def test_matches_closed_form(self, n, m, alpha):
        got = msep_bound_numeric(n, m, alpha)
        assert got == pytest.approx(msep_bound(alpha, m), abs=1e-9)

    def test_rejects_bad_m(self):
        with pytest.raises(UsageError):
            msep_bound_numeric(3, 5, 1.0)


class TestSosGap:
    def test_m2_always_zero(self):
        for x in (0.0, 0.25, 0.5, 1.0):
            assert sos_gap(2, [x]) == pytest.approx(0.0, abs=1e-15)

    def test_m3_saturation(self):
        assert sos_gap(3, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_corner_zeros_exact(self):
        for m in range(2, 7):
            assert sos_gap(m, [0.5] * (m - 1)) == pytest.approx(0.0, abs=1e-15)
            assert sos_gap(m, [0.0] * (m - 1)) == 0.0
            assert sos_gap(m, [1.0] * (m - 1)) == 0.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(13)
        for m in range(2, 6):
            draws = rng.uniform(0, 1, size=(1000, m - 1))
            for xs in draws:
                assert sos_gap(m, xs) >= -1e-12

    def test_validation(self):
        with pytest.raises(UsageError):
            sos_gap(1, [])
        with pytest.raises(UsageError):
            sos_gap(3, [0.5])
        with pytest.raises(UsageError):
            sos_gap(3, [0.5, 1.5])


class TestCurve:
    def test_single_cell(self):
        cells = kprod_curve([2.0], ks=[1], config=SeesawConfig(restarts=40))
        assert len(cells) == 1
        cell = cells[0]
        assert cell.k == 1
        assert cell.gamma == 2.0
        assert cell.converged
        assert cell.beta == pytest.approx(0.8365, abs=1e-3)
