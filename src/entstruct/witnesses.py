"""The two witness families and the classification rules built on them.

Separability family: W_se(alpha) = alpha*M_Z + M_X (or the sign-flipped
variant alpha*M_Z - M_X), with the m-separable bound
max{alpha, alpha/2^(m-1) + 1} for alpha in (0, 2].

Depth family: W_de(gamma) = gamma*kappa^n*A - A', built from two xy-plane
single-qubit settings; a measured value above the k-producibility bound
beta_{n,k}(gamma) certifies entanglement depth at least k+1.

This module holds the witness parameters, their bounds and the decision
rules; the witnesses themselves are sums of product terms, built and
evaluated in :mod:`entstruct.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kprod_table
from .core import (
    THETA_MINUS,
    THETA_PLUS,
    check_closed_form_party_count,
    check_positive_party_count,
)
from .errors import UsageError, ValidationError


def kappa_from_angles(theta_plus: float, theta_minus: float) -> float:
    """Normalization of the mean of two xy observables at the given angles."""
    return float(np.cos((theta_plus - theta_minus) / 2.0))


KAPPA = kappa_from_angles(THETA_PLUS, THETA_MINUS)  # cos(3/10)


@dataclass(frozen=True)
class SeparabilityWitness:
    """Parameters of W_se: alpha in (0, 2], sign selects +/- M_X."""

    n: int
    alpha: float
    sign: int = +1
    family = "separability"

    def __post_init__(self) -> None:
        check_positive_party_count(self.n)
        if not 0.0 < self.alpha <= 2.0:
            raise ValidationError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.sign not in (+1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class DepthWitness:
    """Parameters of W_de; kappa is derived from the two setting angles."""

    n: int
    gamma: float
    theta_plus: float = THETA_PLUS
    theta_minus: float = THETA_MINUS
    family = "depth"

    def __post_init__(self) -> None:
        check_positive_party_count(self.n)
        if not 0 < self.gamma < math.inf:
            raise ValidationError(f"gamma must be positive and finite, got {self.gamma}")
        if abs(self.kappa) < 1e-12:
            raise ValidationError("setting angles are antipodal: kappa vanishes")

    @property
    def kappa(self) -> float:
        return kappa_from_angles(self.theta_plus, self.theta_minus)


def msep_bound(alpha: float, m: int) -> float:
    """Maximum of W_se(alpha) over m-separable states: max{alpha, alpha/2^(m-1)+1}."""
    if not 0.0 < alpha <= 2.0:
        raise UsageError(f"alpha must lie in (0, 2], got {alpha}")
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise UsageError(f"m must be an integer >= 2, got {m!r}")
    return max(float(alpha), float(alpha) / 2 ** (m - 1) + 1.0)


def optimal_alpha(m: int) -> float:
    """The alpha at which the two branches of the m-separable bound meet;
    using it maximizes noise robustness of the m-separability test."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise UsageError(f"m must be an integer >= 2, got {m!r}")
    return 2 ** (m - 1) / (2 ** (m - 1) - 1.0)


def check_expectation(value: float, sigma: float, name: str,
                      error: type[Exception] = ValidationError) -> None:
    """The rule every measured expectation of a +/-1 observable obeys,
    estimated or read from a table: value finite, sigma finite and
    non-negative, and |value| <= 1 + 3 sigma.  A breach raises error."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if not 0 <= sigma < math.inf:
        raise error(f"{name}'s sigma must be finite and non-negative, got {sigma}")
    if abs(value) > 1.0 + 3.0 * sigma:
        raise error(f"{name} {value} is outside [-1, 1] by more than 3 sigma")


@dataclass(frozen=True)
class ExpectationPair:
    """A measured (population, coherence) pair with standard errors.

    For the separability family the slots hold <M_Z> and <M_X>; for the
    depth family they hold <A> and <A'>.
    """

    value_z_or_a: float
    value_x_or_aprime: float
    sigma_z_or_a: float = 0.0
    sigma_x_or_aprime: float = 0.0

    def __post_init__(self) -> None:
        check_expectation(self.value_z_or_a, self.sigma_z_or_a, "first value")
        check_expectation(self.value_x_or_aprime, self.sigma_x_or_aprime, "second value")


class WitnessValue(NamedTuple):
    value: float
    sigma: float
    sign: int


def separability_witness_columns(alpha: float, z, x, sigma_z, sigma_x) -> WitnessValue:
    """alpha*z + |x|, its standard error and the sign of x that attains it,
    for floats or for aligned arrays of subsets.  The squares go through
    float_power, which calls libm pow as Python's ** on floats does, so both
    forms give the same bits."""
    sigma = np.sqrt(np.float_power(alpha * sigma_z, 2) + np.float_power(sigma_x, 2))
    return WitnessValue(alpha * z + abs(x), sigma, 2 * (x >= 0) - 1)


def separability_witness_value(pair: ExpectationPair, alpha: float) -> WitnessValue:
    """Evaluate alpha*<M_Z> + sign*<M_X> with the sign chosen to maximize it."""
    if not 0.0 < alpha <= 2.0:
        raise UsageError(f"alpha must lie in (0, 2], got {alpha}")
    value, sigma, sign = separability_witness_columns(
        alpha, pair.value_z_or_a, pair.value_x_or_aprime, pair.sigma_z_or_a,
        pair.sigma_x_or_aprime)
    return WitnessValue(value, float(sigma), int(sign))


def depth_witness_value(
    pair: ExpectationPair, gamma: float, n: int = 8, kappa: float = KAPPA
) -> WitnessValue:
    """Evaluate gamma*kappa^n*<A> - <A'> with propagated standard error."""
    if not 0 < gamma < math.inf:
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    coef = gamma * kappa**n
    value = coef * pair.value_z_or_a - pair.value_x_or_aprime
    sigma = math.sqrt((coef * pair.sigma_z_or_a) ** 2 + pair.sigma_x_or_aprime**2)
    return WitnessValue(value, sigma, +1)


# The producibility bounds (kprod_table) exist for eight parties only.
KPROD_N = 8


class BoundEntry(NamedTuple):
    value: float
    source: str  # "tabulated" or "computed"


# Every gamma = 2.0 cell is certified; at gamma = 1.6 only k = 2 and 3 are,
# and depth_scan decides against the "computed" see-saw lower estimates for
# k = 1, 4, 5, 6, 7 all the same.
DEFAULT_GAMMA_GRID = (1.6, 2.0)


def kprod_bound_entry(k: int, gamma: float) -> BoundEntry:
    """beta_{8,k}(gamma) with its provenance.

    Certified cells are served verbatim; anything else is linearly
    interpolated from the computed see-saw curve and flagged "computed".
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k < KPROD_N:
        raise UsageError(f"k must be an integer in 1..{KPROD_N - 1}, got {k!r}")
    if not 0 < gamma < math.inf:
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    for (tk, tg), val in kprod_table.TABULATED.items():
        if tk == int(k) and abs(tg - gamma) < 1e-9:
            return BoundEntry(val, "tabulated")
    gammas = kprod_table.COMPUTED_GAMMAS
    betas = kprod_table.COMPUTED_BETA.get(int(k), ())
    if not gammas or not betas:
        raise UsageError(
            f"no tabulated bound for (k={k}, gamma={gamma}) and the computed "
            "curve is unavailable; regenerate it with tools/regen_kprod_table.py"
        )
    if gamma < gammas[0] - 1e-9 or gamma > gammas[-1] + 1e-9:
        raise UsageError(
            f"gamma={gamma} is outside the computed range "
            f"[{gammas[0]}, {gammas[-1]}]; extrapolation is not supported"
        )
    value = float(np.interp(gamma, gammas, betas))
    return BoundEntry(value, "computed")


def kprod_bound(k: int, gamma: float) -> float:
    return kprod_bound_entry(k, gamma).value


@dataclass(frozen=True)
class Evidence:
    """One witness test: the measured value, its bound and the verdict."""

    subset: tuple[int, ...]
    witness: str
    value: float
    sigma: float
    bound: float
    verdict: str  # "violated" or "not_violated"

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


def decide(
    subset: tuple[int, ...], witness: str, wv: WitnessValue, bound: float,
    confidence_sigmas: float,
) -> Evidence:
    """The one decision rule: a bound is violated when the witness value
    exceeds it by more than confidence_sigmas standard errors (one-sided).
    confidence_sigmas must be finite and non-negative; 0 decides on the
    point value alone."""
    if not 0 <= confidence_sigmas < math.inf:
        raise UsageError(
            f"confidence_sigmas must be finite and non-negative, got {confidence_sigmas}"
        )
    violated = wv.value > bound + confidence_sigmas * wv.sigma
    return Evidence(subset, witness, wv.value, wv.sigma, bound,
                    "violated" if violated else "not_violated")


def intactness_scan(
    pair: ExpectationPair, n: int, confidence_sigmas: float
) -> tuple[int | None, list[Evidence]]:
    """Test the m-separable bound for m = 2..n at the robustness-optimal
    alpha, stopping at the first violation: ruling m out bounds the
    intactness by m-1.  Returns that bound (None when no m is ruled out)
    and one evidence row per m tested."""
    everyone = tuple(range(1, n + 1))
    rows = []
    for m in range(2, n + 1):
        alpha = optimal_alpha(m)
        rows.append(decide(
            everyone, f"sep(alpha={alpha:g},m={m})",
            separability_witness_value(pair, alpha), msep_bound(alpha, m),
            confidence_sigmas,
        ))
        if rows[-1].violated:
            return m - 1, rows
    return None, rows


def depth_scan(
    pair: ExpectationPair, gamma_grid, confidence_sigmas: float
) -> tuple[int | None, list[Evidence]]:
    """For each gamma find the largest k whose KPROD_N-party producibility
    bound is violated; the depth is then at least k+1.  Returns the best
    such depth (None when not even k=1 is violated) and one evidence row
    per gamma: the violated k, or k=1 when none is.  Bounds come from
    kprod_bound, tabulated or "computed" alike; a computed cell is a see-saw
    lower estimate, so a violation of it is not certified."""
    everyone = tuple(range(1, KPROD_N + 1))
    depth: int | None = None
    rows = []
    for gamma in gamma_grid:
        wv = depth_witness_value(pair, gamma, n=KPROD_N)
        for k in range(KPROD_N - 1, 0, -1):
            row = decide(everyone, f"depth(gamma={gamma:g},k={k})", wv,
                         kprod_bound(k, gamma), confidence_sigmas)
            if row.violated:
                depth = max(depth or 0, k + 1)
                break
        rows.append(row)
    return depth, rows


def intactness_upper_bound(
    pair: ExpectationPair, n: int, confidence_sigmas: float = 1.0
) -> int | None:
    """Largest number of separable groups compatible with the measurement
    (see intactness_scan); None when no m is ruled out."""
    check_closed_form_party_count(n)
    return intactness_scan(pair, n, confidence_sigmas)[0]


def depth_lower_bound(
    pair: ExpectationPair, gamma_grid=None, confidence_sigmas: float = 1.0
) -> int | None:
    """Smallest entanglement depth certified by the KPROD_N-party depth
    witness over the gamma grid (see depth_scan); None when not even the
    1-producible bound is violated."""
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else tuple(gamma_grid)
    if not grid:
        raise UsageError("gamma_grid must not be empty")
    return depth_scan(pair, grid, confidence_sigmas)[0]
