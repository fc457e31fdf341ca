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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    IMAG_RESIDUE_TOL,
    check_party_count,
    check_positive_party_count,
    pauli_xy_observable,
    P0,
    P1,
    SX,
)
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
        check_positive_party_count(self.n)
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
