"""Reference computations that only the tests use.

Dense forms of the factored witnesses and of their per-group operators,
brute-force and numerical maximizations that check the closed-form bounds
and the see-saw, the see-saw itself run one restart at a time, the
product inequality behind the separability bound, a record
marginalizer and per-outcome string loops that check the estimators, and
an expectation table kept as a plain dict with its subset scan written out
per subset.
"""

import math
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np
from scipy import optimize

from entstruct.bounds import (
    CONVERGENCE_TOL,
    MAX_SWEEPS,
    BoundResult,
    SeesawConfig,
)
from entstruct.core import check_party_count
from entstruct.errors import NumericError, UsageError
from entstruct.inference import OBSERVABLES
from entstruct.tomo import (
    Estimate,
    MeasurementRecord,
    MeasurementSetting,
    check_parties,
)


def group_operators(terms, partition) -> list[np.ndarray]:
    """ops[g][t] = tensor product of term t's factors over group g's parties,
    in the order the group lists them: the dense operators that
    terms_expectation and the see-saw read off without building."""
    return [
        np.array([reduce(np.kron, [np.asarray(facs[p - 1], dtype=complex) for p in g])
                  for facs in terms.factors])
        for g in partition.groups
    ]


def dense(terms) -> np.ndarray:
    """The 2^n x 2^n matrix of a ProductTerms witness, party 1 leftmost."""
    return sum(c * reduce(np.kron, facs) for c, facs in zip(terms.coeffs, terms.factors))


def dense_value(terms, state) -> float:
    """Tr(rho W) on a full-system state, through the dense matrix."""
    return float(np.real(np.einsum("ij,ji->", state.matrix, dense(terms))))


def brute_oracle_max(
    terms,
    partition,
    grid_density: int | None = None,
    samples: int = 20000,
    seed: int = 0,
) -> float:
    """Search the product-state landscape directly, from below.

    With ``grid_density`` set, sweeps a (theta, phi) grid per party; this
    requires every group to be a single qubit and at most 3 parties (the
    grid is dense).  Otherwise draws Haar-random product states per group.
    Either way the result is a lower bound on the true maximum, useful to
    confirm the see-saw from below.
    """
    if partition.n != terms.n:
        raise UsageError(
            f"partition covers {partition.n} parties, witness has {terms.n}"
        )
    coeffs = np.asarray(terms.coeffs)
    if grid_density is not None:
        if partition.max_group != 1:
            raise UsageError("grid mode supports single-qubit groups only")
        if partition.n > 3:
            raise UsageError("grid mode is limited to 3 parties; use random mode")
        if grid_density < 5:
            raise UsageError("grid_density below 5 cannot resolve anything useful")
        thetas = np.linspace(0.0, np.pi, grid_density)
        phis = np.linspace(0.0, 2 * np.pi, 2 * (grid_density - 1), endpoint=False)
        tg, pg = np.meshgrid(thetas, phis, indexing="ij")
        # one qubit's worth of grid states
        up = np.cos(tg / 2).ravel()
        dn = (np.sin(tg / 2) * np.exp(1j * pg)).ravel()
        kets = np.stack([up, dn], axis=1)  # (pts, 2)
        n = terms.n
        n_terms = len(terms.coeffs)
        vals = np.empty((n, n_terms, kets.shape[0]))
        for p in range(n):
            for t in range(n_terms):
                op = np.asarray(terms.factors[t][p], dtype=complex)
                vals[p, t] = np.real(np.einsum("si,ij,sj->s", kets.conj(), op, kets))
        if n == 1:
            return float(np.max(coeffs @ vals[0]))
        # chunk over party 1's grid point; vectorize the remaining parties
        inner = []
        for t in range(n_terms):
            acc = vals[1, t]
            for p in range(2, n):
                acc = np.multiply.outer(acc, vals[p, t])
            inner.append(acc)
        best = -math.inf
        for i in range(kets.shape[0]):
            total = coeffs[0] * vals[0, 0, i] * inner[0]
            for t in range(1, n_terms):
                total = total + coeffs[t] * vals[0, t, i] * inner[t]
            best = max(best, float(np.max(total)))
        return best

    if samples < 1:
        raise UsageError("need at least one random sample")
    rng = np.random.default_rng(seed)
    ops = group_operators(terms, partition)
    n_terms = len(terms.coeffs)
    e = np.empty((partition.num_groups, n_terms, samples))
    for g, size in enumerate(partition.sizes):
        dim = 2**size
        # Haar batch over the group's full space: groups are unrestricted
        psi = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal(
            (samples, dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        for t in range(n_terms):
            e[g, t] = np.real(np.einsum("si,ij,sj->s", psi.conj(), ops[g][t], psi))
    # objective per sample: sum_t c_t * prod_g e[g,t,s]
    per_term = np.prod(e, axis=0)  # (n_terms, samples)
    return float(np.max(coeffs @ per_term))


def _haar_kets(rng: np.random.Generator, sizes) -> list[np.ndarray]:
    """One Haar-random product ket per group: each qubit drawn independently."""
    kets = []
    for s in sizes:
        psi = np.ones(1, dtype=complex)
        for _ in range(s):
            q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = np.kron(psi, q / np.linalg.norm(q))
        kets.append(psi)
    return kets


def _seesaw_single(terms, partition, ops, cfg, restart):
    rng = np.random.default_rng([cfg.seed, restart])
    sizes = partition.sizes
    psis = _haar_kets(rng, sizes)
    n_terms = len(terms.coeffs)
    n_groups = len(sizes)
    e = np.empty((n_groups, n_terms))
    for g in range(n_groups):
        for t in range(n_terms):
            e[g, t] = float(np.real(psis[g].conj() @ ops[g][t] @ psis[g]))

    coeffs = np.asarray(terms.coeffs)

    def objective() -> float:
        return float(np.sum(coeffs * np.prod(e, axis=0)))

    obj = objective()
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        for g in range(n_groups):
            weights = coeffs * np.prod(np.delete(e, g, axis=0), axis=0)
            eff = np.zeros_like(ops[g][0])
            for t in range(n_terms):
                eff += weights[t] * ops[g][t]
            vals, vecs = np.linalg.eigh(eff)
            psis[g] = vecs[:, -1]
            for t in range(n_terms):
                e[g, t] = float(np.real(psis[g].conj() @ ops[g][t] @ psis[g]))
        new_obj = objective()
        if new_obj < obj - 1e-9:
            raise NumericError(
                f"see-saw objective decreased ({obj} -> {new_obj}); "
                "the effective-operator update is broken"
            )
        if new_obj - obj < CONVERGENCE_TOL:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return obj, psis, converged, sweeps


def seesaw_reference(terms, partition, config=None) -> BoundResult:
    """The see-saw one restart at a time, as entstruct.bounds.seesaw_max
    ran it before restarts were batched: the reference the batched
    version must reproduce."""
    cfg = config or SeesawConfig()
    ops = group_operators(terms, partition)
    results = [_seesaw_single(terms, partition, ops, cfg, r) for r in range(cfg.restarts)]
    best_idx = 0
    for i in range(1, len(results)):
        if results[i][0] > results[best_idx][0]:
            best_idx = i
    obj, psis, converged, sweeps = results[best_idx]
    return BoundResult(obj, partition, tuple(psis), converged, sweeps)


def mb_lambda_max(x: float, y: float, z: float, alpha: float) -> float:
    """Top eigenvalue of [[alpha*x, z], [z, alpha*y]]: the exact one-group
    maximization that closes the separability-bound recursion."""
    return alpha * (x + y) / 2.0 + math.sqrt(z**2 + alpha**2 * (x - y) ** 2 / 4.0)


def _msep_objective(thetas: np.ndarray, alpha: float):
    """f over the reduced single-qubit angles (phi = 0)."""
    c2 = np.cos(thetas) ** 2
    s2 = np.sin(thetas) ** 2
    x = np.prod(c2, axis=-1)
    y = np.prod(s2, axis=-1)
    z = np.prod(np.sin(2 * thetas), axis=-1)
    return alpha * (x + y) / 2.0 + np.sqrt(z**2 + alpha**2 * (x - y) ** 2 / 4.0)


def msep_bound_numeric(
    n: int, m: int, alpha: float, polish_candidates: int = 30
) -> float:
    """Maximize the reduced separability objective over m-1 angles, by a
    dense vectorized grid scan followed by Nelder-Mead polish of the best
    candidates.  Independent of the closed-form bound, so the two can be
    checked against each other.

    The objective does not depend on n, which is only range-checked, so
    the maximization is memoized on (m, alpha, polish_candidates).
    """
    check_party_count(n)
    if not 2 <= m <= n:
        raise UsageError(f"m must lie in 2..{n}, got {m}")
    if not 0.0 < alpha <= 2.0:
        raise UsageError(f"alpha must lie in (0, 2], got {alpha}")
    return _msep_max(m, alpha, polish_candidates)


@lru_cache(maxsize=None)
def _msep_max(m: int, alpha: float, polish_candidates: int) -> float:
    dims = m - 1
    pts = {1: 201, 2: 61, 3: 41, 4: 21, 5: 13}.get(dims, 9)
    axis = np.linspace(0.0, np.pi / 2, pts)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=-1)
    vals = _msep_objective(thetas, alpha)
    order = np.argsort(vals)[::-1][:polish_candidates]
    best = float(vals[order[0]])
    for idx in order:
        res = optimize.minimize(
            lambda th: -_msep_objective(np.asarray(th), alpha),
            thetas[idx],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
        )
        best = max(best, float(-res.fun))
    return best


def sos_gap(m: int, xs) -> float:
    """Slack of the product inequality underlying the separability bound.

    xs are the m-1 squared cosines; ys are their complements.  The gap is
    (prod(x+y)) * (prod(x+y) - prod x - prod y) - 2^(m-1)(2^(m-1)-2) prod(xy),
    which is non-negative on [0,1]^(m-1) and zero exactly at the
    saturation points.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise UsageError(f"m must be an integer >= 2, got {m!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (m - 1,):
        raise UsageError(f"xs must have length m-1 = {m - 1}, got shape {xs.shape}")
    if np.any(xs < 0) or np.any(xs > 1):
        raise UsageError("xs entries must lie in [0, 1]")
    ys = 1.0 - xs
    prod_sum = float(np.prod(xs + ys))
    prod_x = float(np.prod(xs))
    prod_y = float(np.prod(ys))
    coeff = 2 ** (m - 1) * (2 ** (m - 1) - 2)
    return prod_sum * (prod_sum - prod_x - prod_y) - coeff * float(np.prod(xs * ys))


def marginalize(record: MeasurementRecord, parties) -> MeasurementRecord:
    """Restrict the record to the given parties (counts summed over the rest)."""
    parties = check_parties(parties, record.setting.n)
    labels = tuple(record.setting.labels[p - 1] for p in parties)
    counts: dict[str, int] = {}
    for outcome, cnt in record.counts.items():
        key = "".join(outcome[p - 1] for p in parties)
        counts[key] = counts.get(key, 0) + cnt
    return MeasurementRecord(MeasurementSetting(labels), counts)


def product_expectation_loop(record: MeasurementRecord, parties) -> Estimate:
    """estimate_product_expectation read off the outcome strings one by one."""
    parties = check_parties(parties, record.setting.n)
    total = record.total
    acc = 0
    for outcome, cnt in record.counts.items():
        ones = sum(1 for p in parties if outcome[p - 1] == "1")
        acc += cnt if ones % 2 == 0 else -cnt
    value = acc / total
    sigma = float(np.sqrt(max(0.0, 1.0 - value**2) / total))
    return Estimate(value, sigma)


def mz_loop(record: MeasurementRecord, parties) -> Estimate:
    """estimate_mz read off the outcome strings one by one."""
    parties = check_parties(parties, record.setting.n)
    for p in parties:
        if record.setting.labels[p - 1] != "Z":
            raise UsageError(
                f"party {p} was measured in {record.setting.labels[p - 1]}, not Z"
            )
    total = record.total
    hits = 0
    for outcome, cnt in record.counts.items():
        bits = {outcome[p - 1] for p in parties}
        if len(bits) == 1:
            hits += cnt
    value = hits / total
    sigma = float(np.sqrt(max(0.0, value * (1.0 - value)) / total))
    return Estimate(value, sigma)


def table_dict(rows) -> dict:
    """Table rows as a plain dict: (observable, sorted parties) -> (value, sigma)."""
    return {(obs, tuple(sorted(int(p) for p in parties))): (float(value), float(sigma))
            for obs, parties, value, sigma in rows}


def table_contents(table) -> dict:
    """The same dict, read back off an ExpectationTable's four columns."""
    return {
        (OBSERVABLES[k], tuple(p + 1 for p in range(table.n) if mask >> p & 1)): (v, s)
        for k, mask, v, s in zip(table.observable.tolist(), table.mask.tolist(),
                                 table.value.tolist(), table.sigma.tolist())
    }


def dict_scan(entries: dict, n: int, size: int, alpha: float, confidence: float) -> list:
    """subset_witness_scan on a table_dict, one subset at a time: (subset,
    witness, value, sigma, bound, verdict) for each size-s subset, in
    lexicographic order, that has both MZ and MX entries."""
    bound = max(alpha, alpha / 2 + 1.0)
    rows = []
    for subset in combinations(range(1, n + 1), size):
        if ("MZ", subset) in entries and ("MX", subset) in entries:
            (z, sigma_z), (x, sigma_x) = entries["MZ", subset], entries["MX", subset]
            value = alpha * z + abs(x)
            sigma = math.sqrt((alpha * sigma_z) ** 2 + sigma_x**2)
            verdict = "violated" if value > bound + confidence * sigma else "not_violated"
            rows.append((subset, f"sep(alpha={alpha:g})", value, sigma, bound, verdict))
    return rows
