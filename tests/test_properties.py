"""Properties of the decision path, of the factored witness evaluator,
of the see-saw's block update, of the counts estimators and of the
expectation table's columns, checked over generated inputs."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entstruct.bounds import (
    ProductTerms,
    _expectations,
    _group_actions,
    _haar_kets,
    _top_kets,
    depth_terms,
    separability_terms,
    terms_expectation,
)
from entstruct.inference import (
    OBSERVABLES,
    ExpectationTable,
    InferenceConfig,
    infer_structure,
    subset_witness_scan,
)
from entstruct.errors import UsageError, ValidationError
from entstruct.states import Partition, StateDensity, product_structure
from entstruct.tomo import (
    SETTING_LABELS,
    MeasurementRecord,
    MeasurementSetting,
    estimate_mz,
    estimate_product_expectation,
)
from entstruct.witnesses import (
    DepthWitness,
    ExpectationPair,
    SeparabilityWitness,
    depth_lower_bound,
    intactness_upper_bound,
    msep_bound,
    separability_witness_value,
)
from oracles import (
    dense_value,
    dict_scan,
    group_operators,
    mz_loop,
    product_expectation_loop,
    table_contents,
    table_dict,
)

values = st.floats(-1.0, 1.0)
sigmas = st.floats(0.0, 0.3)
confidences = st.floats(0.0, 5.0)
pairs = st.builds(ExpectationPair, values, values, sigmas, sigmas)
# error bars of 1e5-shot data, so the depth step often certifies something
sharp_pairs = st.builds(ExpectationPair, values, values, st.floats(0.0, 0.01),
                        st.floats(0.0, 0.01))
# the certified cells plus interpolated points of the computed curve
gamma_grids = st.lists(st.sampled_from((0.3, 0.8, 1.25, 1.6, 2.0)),
                       min_size=1, max_size=3, unique=True).map(tuple)


def looser_or_equal_upper(tight, loose) -> bool:
    """An upper bound `loose` is no tighter than `tight` (None = no bound)."""
    return loose is None or (tight is not None and loose >= tight)


@given(pairs, st.integers(2, 12), confidences, confidences)
def test_intactness_bound_never_tightens_with_confidence(pair, n, c1, c2):
    low, high = sorted((c1, c2))
    assert looser_or_equal_upper(intactness_upper_bound(pair, n, low),
                                 intactness_upper_bound(pair, n, high))


@given(pairs, gamma_grids, confidences, confidences)
def test_depth_bound_never_tightens_with_confidence(pair, grid, c1, c2):
    low, high = sorted((c1, c2))
    at_low = depth_lower_bound(pair, grid, low)
    at_high = depth_lower_bound(pair, grid, high)
    assert at_high is None or (at_low is not None and at_high <= at_low)


@given(pairs, sharp_pairs, st.one_of(st.just(8), st.integers(3, 10)),
       confidences, gamma_grids)
def test_inference_steps_match_library_bounds(sep, dep, n, conf, grid):
    cfg = InferenceConfig(confidence_sigmas=conf, gamma_grid=grid)
    wv = separability_witness_value(sep, cfg.scan_alpha)
    assume(not wv.value > msep_bound(cfg.scan_alpha, 2) + conf * wv.sigma)
    full = tuple(range(1, n + 1))
    table = ExpectationTable(n, (
        ("MZ", full, sep.value_z_or_a, sep.sigma_z_or_a),
        ("MX", full, sep.value_x_or_aprime, sep.sigma_x_or_aprime),
        ("A", full, dep.value_z_or_a, dep.sigma_z_or_a),
        ("APRIME", full, dep.value_x_or_aprime, dep.sigma_x_or_aprime),
    ))
    report = infer_structure(table, cfg)
    assert not report.gme
    assert report.intactness_upper == intactness_upper_bound(sep, n, conf)
    if n == 8:
        assert report.depth_lower == depth_lower_bound(dep, grid, conf)
    else:
        assert report.depth_lower is None


@st.composite
def partitions(draw):
    """Parties 1..n (n = 1..6) shuffled and cut into consecutive groups."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    groups, current = [], [order[0]]
    for p, cut in zip(order[1:], cuts):
        if cut:
            groups.append(tuple(current))
            current = []
        current.append(p)
    groups.append(tuple(current))
    return Partition(tuple(groups))


def wishart_states(partition, seed):
    """One random full-rank mixed state per group: G G^dagger / Tr."""
    rng = np.random.default_rng(seed)
    states = []
    for size in partition.sizes:
        dim = 2**size
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        states.append(StateDensity(rho / np.trace(rho).real, size))
    return states


angles = st.floats(-1.5, 1.5)


@given(partitions(), st.integers(0, 2**32 - 1),
       st.floats(0.0, 2.0, exclude_min=True), st.sampled_from((1, -1)),
       st.floats(0.05, 3.0), angles, angles)
def test_terms_expectation_matches_dense(partition, seed, alpha, sign, gamma,
                                         theta_plus, theta_minus):
    n = partition.n
    states = wishart_states(partition, seed)
    joint = product_structure(partition, states)
    for terms in (separability_terms(SeparabilityWitness(n, alpha, sign)),
                  depth_terms(DepthWitness(n, gamma, theta_plus, theta_minus))):
        got = terms_expectation(terms, partition, states)
        assert abs(got - dense_value(terms, joint)) <= 1e-12


def block_factor(rng, diagonal):
    """A random Hermitian 2x2 factor, diagonal or anti-diagonal."""
    if diagonal:
        return np.diag(rng.uniform(-1, 1, 2)).astype(complex)
    z = complex(*rng.uniform(-1, 1, 2))
    return np.array([[0, z.conjugate()], [z, 0]])


@given(partitions(), st.lists(st.booleans(), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_block_update_finds_the_dense_top_eigenvalue(partition, diagonal, seed):
    rng = np.random.default_rng(seed)
    n = partition.n
    terms = ProductTerms(n, tuple(rng.uniform(-1, 1, len(diagonal))),
                         tuple(tuple(block_factor(rng, d) for _ in range(n))
                               for d in diagonal))
    coeffs = np.asarray(terms.coeffs)
    actions = _group_actions(terms, partition)
    ops = group_operators(terms, partition)
    kets = _haar_kets(seed, range(3), partition.sizes)
    e = np.stack([_expectations(*a, k) for a, k in zip(actions, kets)], axis=1)
    for g, (diag, flip) in enumerate(actions):
        dense_e = np.einsum("bi,tij,bj->bt", kets[g].conj(), ops[g], kets[g]).real
        assert np.max(np.abs(e[:, g] - dense_e)) <= 1e-12
        weights = coeffs * np.prod(np.delete(e, g, axis=1), axis=1)
        top = _top_kets(diag, flip, weights)
        attained = np.sum(_expectations(diag, flip, top) * weights, axis=1)
        for w, psi, got in zip(weights, top, attained):
            eff = np.tensordot(w, ops[g], axes=1)
            want = np.linalg.eigvalsh(eff)[-1]
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            assert abs((psi.conj() @ eff @ psi).real - want) <= 1e-12
            assert abs(got - want) <= 1e-12


@st.composite
def records_and_subsets(draw):
    """A setting of n = 1..10 parties with mixed labels, a few outcomes
    whose counts include zeros (all of them zero at times), a random party
    subset, and a random subset of its Z-measured parties (empty when there
    are none)."""
    n = draw(st.integers(1, 10))
    labels = draw(st.lists(st.one_of(st.just("Z"), st.sampled_from(SETTING_LABELS)),
                           min_size=n, max_size=n))
    outcomes = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=30,
                             unique=True))
    counts = {format(o, f"0{n}b"): draw(st.one_of(st.just(0), st.integers(1, 10**6)))
              for o in outcomes}
    parties = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    z_parties = [p for p, lab in enumerate(labels, 1) if lab == "Z"]
    z_subset = draw(st.lists(st.sampled_from(z_parties), min_size=1, unique=True)
                    if z_parties else st.just([]))
    return MeasurementSetting(tuple(labels)), counts, parties, z_subset


def outcome_of(estimator, record, parties):
    """The estimate, or the usage error it raises."""
    try:
        return estimator(record, parties)
    except UsageError as exc:
        return str(exc)


@given(records_and_subsets())
def test_array_estimators_equal_string_loops(case):
    setting, counts, parties, z_subset = case
    if not any(counts.values()):
        with pytest.raises(ValidationError, match="0 shots"):
            MeasurementRecord(setting, counts)
        return
    record = MeasurementRecord(setting, counts)
    assert (outcome_of(estimate_product_expectation, record, parties)
            == outcome_of(product_expectation_loop, record, parties))
    assert outcome_of(estimate_mz, record, parties) == outcome_of(mz_loop, record, parties)
    if z_subset:
        assert (outcome_of(estimate_mz, record, z_subset)
                == outcome_of(mz_loop, record, z_subset))


@st.composite
def sparse_tables(draw):
    """(n, rows) of a valid table on n = 1..10 parties: each (observable,
    party set) is present at random, its parties in a random order, as
    Python or numpy integers, and the rows come in a random order."""
    n = draw(st.integers(1, 10))
    density = draw(st.sampled_from((0.05, 0.5, 0.95, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for observable in OBSERVABLES:
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                if rng.random() < density:
                    parties = rng.permutation(subset)
                    sigma = float(rng.uniform(0.0, 0.3)) if rng.random() < 0.8 else 0.0
                    rows.append((observable,
                                 tuple(parties) if rng.random() < 0.5 else parties.tolist(),
                                 float(rng.uniform(-1.0, 1.0)), sigma))
    return n, [rows[i] for i in rng.permutation(len(rows))]


@given(sparse_tables(), st.floats(0.05, 2.0), st.floats(0.0, 3.0))
def test_table_columns_answer_as_a_plain_dict(table, alpha, confidence):
    n, rows = table
    columns, entries = ExpectationTable(n, rows), table_dict(rows)
    assert table_contents(columns) == entries
    for observable in OBSERVABLES:
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                got = columns.lookup(observable, subset[::-1])
                want = entries.get((observable, subset))
                assert (got is None and want is None) or tuple(got) == want
    for size in range(2, n + 1):
        got = [(r.subset, r.witness, r.value, r.sigma, r.bound, r.verdict)
               for r in subset_witness_scan(columns, size, alpha, confidence)]
        assert got == dict_scan(entries, n, size, alpha, confidence)
