"""Numerical maximization of witness expectations over structured states.

The central routine is an alternating see-saw: fix the pure state of every
group but one, contract the witness into an effective operator on the free
group, replace that group's state by the top eigenvector, and cycle.  Each
update is an exact partial maximization, so the objective never decreases;
random restarts guard against local optima.

Everything here works on the one representation of a witness: a sum of
coefficient times single-qubit tensor factors (ProductTerms), built from
the four observables M_Z, M_X, A and A'.  That is what makes the group
contraction cheap, and it lets a witness be evaluated on a product of
group states one group at a time (terms_expectation).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .core import IMAG_RESIDUE_TOL, check_party_count, pauli_xy_observable, P0, P1, SX
from .errors import NumericError, UsageError
from .states import Partition
from .witnesses import DepthWitness, SeparabilityWitness


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 200
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0xB0B
    threads: int = 1


@dataclass(frozen=True)
class ProductTerms:
    """A witness written as sum_t coeffs[t] * (factors[t][1] x ... x factors[t][n])."""

    n: int
    coeffs: tuple[float, ...]
    factors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        check_party_count(self.n)
        if len(self.coeffs) != len(self.factors):
            raise UsageError("one coefficient per term is required")
        if not self.coeffs:
            raise UsageError("witness needs at least one term")
        for facs in self.factors:
            if len(facs) != self.n:
                raise UsageError(
                    f"each term needs one 2x2 factor per party ({self.n}), got {len(facs)}"
                )
            for f in facs:
                if np.asarray(f).shape != (2, 2):
                    raise UsageError("term factors must be 2x2 matrices")


def mz_terms(n: int) -> ProductTerms:
    """M_Z: projector onto the all-|0> plus all-|1> populations."""
    return ProductTerms(n, (1.0, 1.0), (tuple([P0] * n), tuple([P1] * n)))


def mx_terms(n: int) -> ProductTerms:
    """M_X: sigma_x on every party."""
    return ProductTerms(n, (1.0,), (tuple([SX] * n),))


def a_terms(spec: DepthWitness) -> ProductTerms:
    """A: the n-fold product of the normalized mean setting
    (A_- + A_+)/(2 kappa), an xy observable at the midpoint angle."""
    a_plus = pauli_xy_observable(spec.theta_plus).matrix
    a_minus = pauli_xy_observable(spec.theta_minus).matrix
    mean = (a_minus + a_plus) / (2.0 * spec.kappa)
    return ProductTerms(spec.n, (1.0,), (tuple([mean] * spec.n),))


def aprime_terms(spec: DepthWitness) -> ProductTerms:
    """A': the n-fold product of the plus setting."""
    a_plus = pauli_xy_observable(spec.theta_plus).matrix
    return ProductTerms(spec.n, (1.0,), (tuple([a_plus] * spec.n),))


def _weighted_sum(*parts: tuple[float, ProductTerms]) -> ProductTerms:
    """sum_i w_i * terms_i, keeping the terms in order."""
    return ProductTerms(
        parts[0][1].n,
        tuple(w * c for w, terms in parts for c in terms.coeffs),
        tuple(f for _, terms in parts for f in terms.factors),
    )


def separability_terms(spec: SeparabilityWitness) -> ProductTerms:
    """W_se = alpha*M_Z + sign*M_X."""
    return _weighted_sum((spec.alpha, mz_terms(spec.n)),
                         (float(spec.sign), mx_terms(spec.n)))


def depth_terms(spec: DepthWitness) -> ProductTerms:
    """W_de = gamma*kappa^n*A - A'."""
    return _weighted_sum((spec.gamma * spec.kappa**spec.n, a_terms(spec)),
                         (-1.0, aprime_terms(spec)))


def canonical_partition(n: int, k: int) -> Partition:
    """floor(n/k) groups of size k, plus one remainder group, parties in order."""
    check_party_count(n)
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise UsageError(f"group size k must be an integer in 1..{n}, got {k!r}")
    groups = []
    start = 1
    while start <= n:
        size = min(k, n - start + 1)
        groups.append(tuple(range(start, start + size)))
        start += size
    return Partition(tuple(groups))


class BoundResult(NamedTuple):
    value: float
    partition: Partition
    group_states: tuple[np.ndarray, ...]
    converged: bool
    iterations: int


def _group_operators(terms: ProductTerms, partition: Partition) -> list[list[np.ndarray]]:
    """ops[g][t] = tensor product of term t's factors over group g's parties."""
    ops = []
    for g in partition.groups:
        per_term = []
        for facs in terms.factors:
            mat = np.eye(1, dtype=complex)
            for p in g:
                mat = np.kron(mat, np.asarray(facs[p - 1], dtype=complex))
            per_term.append(mat)
        ops.append(per_term)
    return ops


def terms_expectation(
    terms: ProductTerms, partition: Partition, group_states
) -> float:
    """Tr(rho W) for rho the product of the per-group density matrices:
    sum_t c_t prod_g Tr(rho_g O_{g,t}), one group at a time.

    ``group_states[g]`` (a StateDensity or a square array) acts on the
    parties of ``partition.groups[g]`` in the order listed there.  A
    full-system state is the one-group partition.
    """
    if partition.n != terms.n:
        raise UsageError(
            f"partition covers {partition.n} parties, witness has {terms.n}"
        )
    rhos = [np.asarray(getattr(st, "matrix", st)) for st in group_states]
    if len(rhos) != partition.num_groups:
        raise UsageError("need one state per group")
    for rho, size in zip(rhos, partition.sizes):
        if rho.shape != (2**size, 2**size):
            raise UsageError(
                f"group of {size} parties needs a {2**size}x{2**size} state, "
                f"got shape {rho.shape}"
            )
    ops = _group_operators(terms, partition)
    total = 0.0
    for t, c in enumerate(terms.coeffs):
        prod = c
        for g, rho in enumerate(rhos):
            prod *= np.einsum("ij,ji->", rho, ops[g][t])
        total += prod
    if abs(total.imag) >= IMAG_RESIDUE_TOL:
        raise NumericError(f"expectation has imaginary residue {total.imag:.3e}")
    return float(total.real)


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


def _seesaw_single(terms: ProductTerms, partition: Partition,
                   ops: list[list[np.ndarray]], cfg: SeesawConfig,
                   restart: int) -> tuple[float, list[np.ndarray], bool, int]:
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
    for sweeps in range(1, cfg.max_iters + 1):
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
        if new_obj - obj < cfg.tol:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return obj, psis, converged, sweeps


def seesaw_max(
    terms: ProductTerms, partition: Partition, config: SeesawConfig | None = None
) -> BoundResult:
    """Best witness expectation over product states of the given partition,
    found by alternating exact per-group maximization with random restarts.

    Deterministic for a fixed config: restart r draws from seed (seed, r),
    and ties between restarts resolve to the lowest restart index.
    """
    cfg = config or SeesawConfig()
    if partition.n != terms.n:
        raise UsageError(
            f"partition covers {partition.n} parties, witness has {terms.n}"
        )
    if cfg.restarts < 1:
        raise UsageError("need at least one restart")
    ops = _group_operators(terms, partition)

    def run(r: int):
        return _seesaw_single(terms, partition, ops, cfg, r)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run, range(cfg.restarts)))
    else:
        results = [run(r) for r in range(cfg.restarts)]

    best_idx = 0
    for i in range(1, len(results)):
        if results[i][0] > results[best_idx][0]:
            best_idx = i
    obj, psis, converged, sweeps = results[best_idx]
    return BoundResult(obj, partition, tuple(psis), converged, sweeps)


def brute_oracle_max(
    terms: ProductTerms,
    partition: Partition,
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
    ops = _group_operators(terms, partition)
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
    """
    check_party_count(n)
    if not 2 <= m <= n:
        raise UsageError(f"m must lie in 2..{n}, got {m}")
    if not 0.0 < alpha <= 2.0:
        raise UsageError(f"alpha must lie in (0, 2], got {alpha}")
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


class CurveCell(NamedTuple):
    k: int
    gamma: float
    beta: float
    converged: bool


def kprod_curve(
    gamma_grid,
    ks=range(1, 8),
    config: SeesawConfig | None = None,
    n: int = 8,
) -> list[CurveCell]:
    """See-saw the depth witness over canonical k-producible partitions for
    every (k, gamma) requested.  Values are lower estimates of the true
    bounds beta_{n,k}(gamma)."""
    cfg = config or SeesawConfig()
    cells = []
    for k in ks:
        partition = canonical_partition(n, int(k))
        for gamma in gamma_grid:
            terms = depth_terms(DepthWitness(n, float(gamma)))
            res = seesaw_max(terms, partition, cfg)
            cells.append(CurveCell(int(k), float(gamma), res.value, res.converged))
    return cells
