"""Numerical maximization of witness expectations over structured states.

The central routine is an alternating see-saw: fix the pure state of every
group but one, contract the witness into an effective operator on the free
group, replace that group's state by the top eigenvector, and cycle.  Each
update is an exact partial maximization, so the objective never decreases;
random restarts, run side by side as arrays, guard against local optima.

Everything here works on the one representation of a witness: a sum of
coefficient times single-qubit tensor factors (ProductTerms), built from
the four observables M_Z, M_X, A and A'.  That is what makes the group
contraction cheap, and it lets a witness be evaluated on a product of
group states one group at a time (terms_expectation).

On a group of 2 or more parties each term's factors must be all diagonal
(P0, P1) or all anti-diagonal (X, the xy-plane settings), as in every
witness built here; a single party takes any 2x2 factor.  A term then maps
|x> into span{|x>, |~x>} (~x the bitwise complement), so it is evaluated in
O(2^s) and each see-saw update is a closed-form 2x2 block problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .core import (
    IMAG_RESIDUE_TOL,
    check_party_count,
    check_positive_party_count,
    P0,
    P1,
    SX,
    xy_observable,
)
from .errors import NumericError, UsageError
from .states import Partition
from .witnesses import DepthWitness, SeparabilityWitness


MAX_SWEEPS = 500
CONVERGENCE_TOL = 1e-10


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 200
    seed: int = 0xB0B


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
    a_plus, a_minus = xy_observable(spec.theta_plus), xy_observable(spec.theta_minus)
    mean = (a_minus + a_plus) / (2.0 * spec.kappa)
    return ProductTerms(spec.n, (1.0,), (tuple([mean] * spec.n),))


def aprime_terms(spec: DepthWitness) -> ProductTerms:
    """A': the n-fold product of the plus setting."""
    a_plus = xy_observable(spec.theta_plus)
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


def terms_expectation(
    terms: ProductTerms, partition: Partition, group_states
) -> float:
    """Tr(rho W) for rho the product of the per-group density matrices:
    sum_t c_t prod_g Tr(rho_g O_{g,t}), one group at a time, where
    Tr(rho_g O) = sum_x diag[x] rho_g[x, x] + flip[x] rho_g[x, ~x] (_group_actions).

    ``group_states[g]`` (a StateDensity or a square array) acts on the
    parties of ``partition.groups[g]`` in the order listed there.  A
    full-system state is the one-group partition.  A term the module
    docstring does not allow is a UsageError.
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
            raise UsageError(f"group of {size} parties needs a {2**size}x{2**size} "
                             f"state, got shape {rho.shape}")
    per_term = np.asarray(terms.coeffs, dtype=complex)
    for (diag, flip), rho in zip(_group_actions(terms, partition), rhos):
        per_term = per_term * (diag @ np.diagonal(rho) + flip @ np.fliplr(rho).diagonal())
    total = per_term.sum()
    if abs(total.imag) >= IMAG_RESIDUE_TOL:
        raise NumericError(f"expectation has imaginary residue {total.imag:.3e}")
    return float(total.real)


# A batch of restarts runs side by side with about this many entries in
# each of its ket stacks: 512 restarts for a 7-party group, every restart
# of a default run for groups of 8 parties or fewer.
_BATCH_ENTRIES = 2**16


def _haar_kets(seed: int, restarts: range, sizes) -> list[np.ndarray]:
    """kets[g][i]: a Haar-random product ket on group g for restart
    restarts[i], each qubit drawn independently from default_rng([seed, r])."""
    draws = np.stack([np.random.default_rng([seed, r]).standard_normal((sum(sizes), 2, 2))
                      for r in restarts])
    qubits = draws[:, :, 0] + 1j * draws[:, :, 1]
    qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
    kets = []
    for group in np.split(qubits, np.cumsum(sizes)[:-1], axis=1):
        psi = group[:, 0]
        for q in group.transpose(1, 0, 2)[1:]:
            psi = (psi[:, :, None] * q[:, None, :]).reshape(len(psi), -1)
        kets.append(psi)
    return kets


def _group_actions(terms: ProductTerms, partition: Partition) -> list[tuple]:
    """(diag, flip) per group: O_{g,t}|x> = diag[t, x]|x> + flip[t, x]|~x> with
    ~x = 2^s - 1 - x, diag[t, x] = prod_q f_q[x_q, x_q], flip[t, x] = prod_q
    f_q[1 - x_q, x_q]; exact for the terms the module docstring allows."""
    actions = []
    for g in partition.groups:
        fs = np.array([[facs[p - 1] for p in g] for facs in terms.factors], dtype=complex)
        # (term, party, bit): the factor's diagonal, and its anti-diagonal read by column
        diag, flip = fs.diagonal(0, -2, -1), fs[..., ::-1, :].diagonal(0, -2, -1)
        mixed = np.flatnonzero(diag.any(axis=(1, 2)) & flip.any(axis=(1, 2)))
        if len(g) > 1 and mixed.size:
            raise UsageError(f"term {mixed[0]} has factors on group {g} that are neither "
                             "all diagonal nor all anti-diagonal, as 2+ parties need")
        actions.append(tuple(np.array([reduce(np.kron, v) for v in a]) for a in (diag, flip)))
    return actions


def _expectations(diag: np.ndarray, flip: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """e[b, t] = <psi_b| O_t |psi_b> for every ket b and term t."""
    return (np.abs(kets)**2 @ diag.T + (kets[:, ::-1].conj() * kets) @ flip.T).real


def _top_kets(diag: np.ndarray, flip: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Top eigenvector of H_b = sum_t weights[b, t] O_t for every row b.

    H_b is a direct sum of 2x2 blocks [[P, conj(C)], [C, Q]] on span{|x>, |~x>}
    with top eigenvalue (P + Q)/2 + sqrt(((P - Q)/2)^2 + |C|^2).  The block
    with the largest one wins, the lowest x on ties, and its eigenvector has
    Bloch polar angle atan2(|C|, (P - Q)/2) and azimuth arg(C).
    """
    half = diag.shape[1] // 2
    on = (weights @ diag).real
    p, q, c = on[:, :half], on[:, ::-1][:, :half], (weights @ flip)[:, :half]
    x = np.argmax((p + q) / 2 + np.hypot((p - q) / 2, np.abs(c)), axis=1)
    rows = np.arange(len(x))
    c = c[rows, x]
    polar = np.arctan2(np.abs(c), (p - q)[rows, x] / 2)
    kets = np.zeros((len(x), 2 * half), dtype=complex)
    kets[rows, x] = np.cos(polar / 2)
    kets[rows, 2 * half - 1 - x] = np.exp(1j * np.angle(c)) * np.sin(polar / 2)
    return kets


def _seesaw_batch(coeffs: np.ndarray, actions: list,
                  kets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep a batch of restarts side by side, updating ``kets`` in place.

    A restart stops sweeping once its objective gains less than CONVERGENCE_TOL.
    Returns each restart's objective, converged flag and sweep count.
    """
    # e[b, g, t]: restart b's expectation of term t's factor on group g
    e = np.stack([_expectations(*a, k) for a, k in zip(actions, kets)], axis=1)
    obj = np.sum(coeffs * np.prod(e, axis=1), axis=-1)
    converged = np.zeros(len(obj), dtype=bool)
    sweeps = np.full(len(obj), MAX_SWEEPS)
    live = np.arange(len(obj))
    for sweep in range(1, MAX_SWEEPS + 1):
        e_live = e[live]
        for g, (diag, flip) in enumerate(actions):
            weights = coeffs * np.prod(np.delete(e_live, g, axis=1), axis=1)
            top = _top_kets(diag, flip, weights)
            kets[g][live] = top
            e_live[:, g] = _expectations(diag, flip, top)
        old, new = obj[live], np.sum(coeffs * np.prod(e_live, axis=1), axis=-1)
        dropped = np.flatnonzero(new < old - 1e-9)
        if dropped.size:
            i = dropped[0]
            raise NumericError(
                f"see-saw objective decreased ({old[i]} -> {new[i]}); "
                "the block update is broken"
            )
        e[live], obj[live] = e_live, new
        done = new - old < CONVERGENCE_TOL
        converged[live[done]] = True
        sweeps[live[done]] = sweep
        live = live[~done]
        if not live.size:
            break
    return obj, converged, sweeps


def seesaw_max(
    terms: ProductTerms, partition: Partition, config: SeesawConfig | None = None
) -> BoundResult:
    """Best witness expectation over product states of the given partition,
    found by alternating exact per-group maximization with random restarts.

    Restarts run side by side in batches sized to the largest group.
    Deterministic for a fixed config: restart r draws from seed (seed, r),
    and ties between restarts resolve to the lowest restart index.  A term
    the block update cannot take (see the module docstring) is a UsageError.
    """
    cfg = config or SeesawConfig()
    if partition.n != terms.n:
        raise UsageError(
            f"partition covers {partition.n} parties, witness has {terms.n}"
        )
    if cfg.restarts < 1:
        raise UsageError("need at least one restart")
    actions = _group_actions(terms, partition)
    coeffs = np.asarray(terms.coeffs)
    batch = max(1, _BATCH_ENTRIES // 2**partition.max_group)
    best = None
    for first in range(0, cfg.restarts, batch):
        kets = _haar_kets(cfg.seed, range(first, min(first + batch, cfg.restarts)),
                          partition.sizes)
        obj, converged, sweeps = _seesaw_batch(coeffs, actions, kets)
        i = int(np.argmax(obj))
        if best is None or obj[i] > best.value:
            best = BoundResult(float(obj[i]), partition,
                               tuple(k[i].copy() for k in kets),
                               bool(converged[i]), int(sweeps[i]))
    return best


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
