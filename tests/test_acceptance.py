"""Acceptance gate: the eight release criteria, one test each.

Each test prints a single PASS/FAIL line (visible with -s or in the
captured output) and asserts the stated tolerance.  Budgets are wall
clock on one core.
"""

import itertools
import time

import numpy as np
import pytest

from entstruct.bounds import (
    a_terms,
    aprime_terms,
    canonical_partition,
    depth_terms,
    kprod_curve,
    mx_terms,
    mz_terms,
    separability_terms,
    terms_expectation,
)
from entstruct.inference import InferenceConfig, infer_structure
from entstruct.noise import gme_noise_threshold, intactness_noise_threshold
from entstruct.states import (
    Partition,
    StateDensity,
    geometry_to_structure,
    ghz,
    product_structure,
    white_noise_mix,
)
from entstruct.tomo import (
    MeasurementSetting,
    estimate_mz,
    estimate_product_expectation,
    sample_counts,
)
from entstruct.witnesses import (
    DepthWitness,
    ExpectationPair,
    SeparabilityWitness,
    depth_lower_bound,
    depth_witness_value,
    intactness_upper_bound,
    msep_bound,
    optimal_alpha,
    separability_witness_value,
)
from oracles import msep_bound_numeric, sos_gap

GEOMETRIES = list(itertools.product((True, False), repeat=3))


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def ideal_state(partition: Partition) -> StateDensity:
    return product_structure(partition, [ghz(len(g)) for g in partition.groups])


def test_criterion_1_seesaw_bound_table():
    cells = [(1, 2.0, 0.8365), (2, 2.0, 1.0450), (2, 1.6, 0.7904),
             (3, 2.0, 1.1699), (3, 1.6, 0.9137), (4, 2.0, 1.3856),
             (5, 2.0, 1.6357), (6, 2.0, 1.8858), (7, 2.0, 2.0578)]
    worst_err, worst_time = 0.0, 0.0
    for k, gamma, reference in cells:
        t0 = time.perf_counter()
        cell = kprod_curve([gamma], ks=[k])[0]
        elapsed = time.perf_counter() - t0
        worst_err = max(worst_err, abs(cell.beta - reference))
        worst_time = max(worst_time, elapsed)
        assert abs(cell.beta - reference) <= 1e-3, (k, gamma, cell.beta)
        assert elapsed < 300.0, (k, gamma, elapsed)
    report(1, True,
           f"9 see-saw cells, max |err| {worst_err:.1e} <= 1e-3, "
           f"slowest cell {worst_time:.1f}s < 300s")


def test_criterion_2_msep_closed_form_vs_numeric():
    alphas = [0.25 * i for i in range(1, 9)]
    t0 = time.perf_counter()
    worst, cases = 0.0, 0
    for n in range(2, 7):
        for m in range(2, n + 1):
            for alpha in alphas:
                gap = abs(msep_bound(alpha, m) - msep_bound_numeric(n, m, alpha))
                worst = max(worst, gap)
                cases += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 120.0
    report(2, True,
           f"{cases} (n,m,alpha) cases, max |analytic-numeric| {worst:.1e} "
           f"<= 1e-6, {elapsed:.1f}s < 120s")


def test_criterion_3_ideal_state_witness_values():
    # evaluated group by group on the ideal GHZ blocks
    # separability rows: both 7+1 and 5+3 give MZ=1/2, MX=1, W(4/3)=5/3
    for sizes in ((7, 1), (5, 3)):
        groups, p = [], 1
        for s in sizes:
            groups.append(tuple(range(p, p + s)))
            p += s
        partition = Partition(tuple(groups))
        blocks = [ghz(len(g)) for g in partition.groups]
        mz = terms_expectation(mz_terms(8), partition, blocks)
        mx = terms_expectation(mx_terms(8), partition, blocks)
        w_terms = separability_terms(SeparabilityWitness(8, 4 / 3))
        w = terms_expectation(w_terms, partition, blocks)
        assert abs(mz - 0.5) <= 1e-9, sizes
        assert abs(mx - 1.0) <= 1e-9, sizes
        assert abs(w - 5 / 3) <= 1e-9, sizes

    # depth rows, reference values at four decimals
    spec = DepthWitness(8, 2.0)
    rows = {(7, 1): (0.9651, -0.6714, 2.0106), (5, 3): (0.9763, -0.0617, 1.4164)}
    for sizes, (a_pub, ap_pub, w_pub) in rows.items():
        groups, p = [], 1
        for s in sizes:
            groups.append(tuple(range(p, p + s)))
            p += s
        partition = Partition(tuple(groups))
        blocks = [ghz(len(g)) for g in partition.groups]
        a = terms_expectation(a_terms(spec), partition, blocks)
        ap = terms_expectation(aprime_terms(spec), partition, blocks)
        w = terms_expectation(depth_terms(spec), partition, blocks)
        assert abs(a - a_pub) <= 5e-4, sizes
        assert abs(ap - ap_pub) <= 5e-4, sizes
        assert abs(w - w_pub) <= 5e-4, sizes
    report(3, True,
           "7+1 and 5+3 ideal rows: MZ=0.5, MX=1, W=5/3 at 1e-9; "
           "depth A/A'/W rows at 5e-4")


def test_criterion_4_reference_conclusions_replay():
    # central values only: decision rules run at zero confidence width
    sep_rows = [
        ("r8", 0.80, 0.63, 1), ("r62", 0.63, 0.60, 2), ("r44", 0.43, 0.89, 2),
        ("r422", 0.27, 0.86, 3), ("r2222", 0.18, 0.91, 4),
    ]
    for name, mz, mx, want in sep_rows:
        got = intactness_upper_bound(ExpectationPair(mz, mx), 8,
                                     confidence_sigmas=0.0)
        assert got == want, (name, got, want)

    depth_rows = [
        ("r8", 0.54, -0.57, 4), ("r62", 0.73, -0.27, 4), ("r44", 0.76, -0.07, 3),
        ("r422", 0.84, -0.02, 4), ("r2222", 0.83, 0.19, 2),
    ]
    for name, a, ap, want in depth_rows:
        got = depth_lower_bound(ExpectationPair(a, ap), confidence_sigmas=0.0)
        assert got == want, (name, got, want)

    # first row certifies genuine 8-party entanglement outright
    pair = ExpectationPair(0.80, 0.63)
    wv = separability_witness_value(pair, 2.0)
    assert wv.value > msep_bound(2.0, 2)
    report(4, True,
           "replayed conclusions: GME for the full-system row; "
           "intactness <= 2,2,3,4; depth >= 4,4,3,4,2")


def test_criterion_5_noise_threshold_boundaries():
    eps = 1e-6
    checked = 0
    for n in range(3, 9):
        whole = canonical_partition(n, n)

        def witness_at(p, alpha):
            state = [white_noise_mix(ghz(n), p)]
            pair = ExpectationPair(terms_expectation(mz_terms(n), whole, state),
                                   terms_expectation(mx_terms(n), whole, state))
            return separability_witness_value(pair, alpha).value

        thr = gme_noise_threshold(n, 2.0)
        assert witness_at(thr - eps, 2.0) > msep_bound(2.0, 2)
        assert not witness_at(thr + eps, 2.0) > msep_bound(2.0, 2)
        checked += 1

        for m in range(2, n + 1):
            alpha = optimal_alpha(m)
            thr = intactness_noise_threshold(n, m)
            assert witness_at(thr - eps, alpha) > msep_bound(alpha, m), (n, m)
            assert not witness_at(thr + eps, alpha) > msep_bound(alpha, m), (n, m)
            checked += 1
    report(5, True,
           f"{checked} thresholds for n in 3..8, both families: "
           f"violation flips exactly at threshold -/+ 1e-6")


def test_criterion_6_sos_gap_nonnegative():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for m in range(2, 7):
        draws = rng.uniform(0.0, 1.0, size=(10000, m - 1))
        for xs in draws:
            worst = min(worst, sos_gap(m, xs))
        assert sos_gap(m, np.full(m - 1, 0.5)) == 0.0
        # saturation corners are the two uniform ones (all 0 or all 1)
        assert sos_gap(m, np.zeros(m - 1)) == 0.0
        assert sos_gap(m, np.ones(m - 1)) == 0.0
    assert worst >= -1e-12
    report(6, True,
           f"5x10^4 random draws m in 2..6: min gap {worst:.1e} >= -1e-12; "
           f"exact zeros at x=1/2 and the uniform corners")


def test_criterion_7_end_to_end_inference():
    t0 = time.perf_counter()
    shots, runs = 100000, 20
    summary = []
    for gi, flags in enumerate(GEOMETRIES):
        partition = geometry_to_structure(*flags)
        state = ideal_state(partition)
        hits = 0
        for r in range(runs):
            records = [
                sample_counts(state, MeasurementSetting.uniform(lbl, 8), shots,
                              seed=[gi, r, si])
                for si, lbl in enumerate(("Z", "X", "AMIX", "APLUS"))
            ]
            got = infer_structure(records).proposed_partition
            hits += got == partition.groups
        assert hits >= 19, (flags, hits)
        summary.append(hits)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, True,
           f"8 geometries x {runs} runs at 10^5 shots: hits {summary} "
           f"(all >= 19/20), {elapsed:.0f}s < 600s")


def test_criterion_8_sampler_statistics():
    state = ideal_state(Partition((tuple(range(1, 9)),)))
    z = MeasurementSetting.uniform("Z", 8)
    x = MeasurementSetting.uniform("X", 8)
    everyone = tuple(range(1, 9))
    passes = 0
    for rep in range(100):
        rec_z = sample_counts(state, z, 20000, seed=[77, rep, 0])
        rec_x = sample_counts(state, x, 20000, seed=[77, rep, 1])
        est_z = estimate_mz(rec_z, everyone)
        est_x = estimate_product_expectation(rec_x, everyone)
        ok_z = abs(est_z.value - 1.0) <= 5 * max(est_z.sigma, 1e-12)
        ok_x = abs(est_x.value - 1.0) <= 5 * max(est_x.sigma, 1e-12)
        passes += ok_z and ok_x
    assert passes >= 99
    report(8, True, f"5-sigma estimator consistency: {passes}/100 >= 99")
