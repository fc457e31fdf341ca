"""Closed-form noise robustness of the witness tests, and inversion of the
source noise model from measured expectations.

All thresholds are critical white-noise fractions p: the corresponding
test still fires strictly below them and stops firing at or above them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import depth_terms, separability_terms, terms_expectation
from .core import check_closed_form_party_count
from .errors import UsageError
from .states import Partition, visibility_state
from .witnesses import (
    KPROD_N,
    DepthWitness,
    SeparabilityWitness,
    kprod_bound,
    msep_bound,
    optimal_alpha,
)


def _critical_noise(n: int, alpha: float, s: float, m: int) -> float:
    """White-noise fraction p at which alpha*<M_Z> + |<M_X>| of the noisy
    n-party GHZ state with coherence s, (1-p)(alpha + s) + p*alpha*2^(1-n),
    falls to the m-separable bound (0 when it starts at or below it)."""
    num = alpha + s - msep_bound(alpha, m)
    return max(0.0, num / (alpha + s - alpha * 2.0 ** (1 - n)))


def gme_noise_threshold(n: int, alpha: float = 2.0) -> float:
    """Critical white-noise fraction below which W_se(alpha) still detects
    genuine n-party entanglement of the noisy GHZ state."""
    check_closed_form_party_count(n)
    if not 0.0 < alpha <= 2.0:
        raise UsageError(f"alpha must lie in (0, 2], got {alpha}")
    return _critical_noise(n, alpha, 1.0, 2)


def intactness_noise_threshold(n: int, m: int) -> float:
    """Critical white-noise fraction below which the m-separability test
    (at the robustness-optimal alpha) still excludes m-separable states."""
    return generalized_ghz_thresholds(n, np.pi / 4, 0.0, m)


def generalized_ghz_thresholds(
    n: int, theta: float, phi: float, m: int | None = None
) -> float:
    """Noise thresholds for the generalized GHZ state cos(theta)|0..0> +
    e^{i phi} sin(theta)|1..1>.

    With m=None returns the GME threshold at alpha = 2, otherwise the
    m-separability threshold at the robustness-optimal alpha.  The model is
    the state as the fixed X setting measures it: <M_X> = sin(2 theta)
    cos(phi), so the coherence is s = |sin(2 theta) cos(phi)| for every phi,
    and every threshold is 0 at phi = pi/2 or 3pi/2.
    """
    check_closed_form_party_count(n)
    s = float(abs(np.sin(2 * theta) * np.cos(phi)))
    if m is None:
        return _critical_noise(n, 2.0, s, 2)
    if not 2 <= m <= n:
        raise UsageError(f"m must lie in 2..{n}, got {m}")
    return _critical_noise(n, optimal_alpha(m), s, m)


class GammaEstimate(NamedTuple):
    gamma_w: float
    gamma_d: float
    valid: bool


def estimate_gammas(exp_z: float, exp_x: float, n: int) -> GammaEstimate:
    """Invert the dephasing + white-noise source model from measured
    <M_Z> and <M_X>.

    Values outside the physical simplex are returned as-is with
    valid=False; they signal model mismatch, not a computation error.
    """
    check_closed_form_party_count(n)
    scale = 2.0 ** (n - 1) / (2.0 ** (n - 1) - 1.0)
    gamma_w = (1.0 - exp_z) * scale
    gamma_d = 1.0 - exp_x - gamma_w
    eps = 1e-12
    valid = (
        -eps <= gamma_w <= 1.0 + eps
        and -eps <= gamma_d <= 1.0 + eps
        and gamma_w + gamma_d <= 1.0 + eps
    )
    return GammaEstimate(gamma_w, gamma_d, valid)


@dataclass(frozen=True)
class MarginPoint:
    v1: float
    v2: float
    margin: float


def visibility_margin_curve(
    structure: Partition,
    witness: SeparabilityWitness | DepthWitness,
    v1_grid,
    v2_grid=(1.0,),
    target: int | None = None,
) -> list[MarginPoint]:
    """Witness value minus its applicable bound over a visibility grid.

    Every group of ``structure`` is prepared in the two-visibility noise
    model (group sizes must be even), so the zero crossing of the margin
    traces the detection boundary in the (v1, v2) plane.  ``target`` is
    the m in 2..n to test against for the separability family (default 2,
    the GME test) or the k for the depth family (required; the depth family
    needs KPROD_N parties, like depth_scan).  Each point is
    evaluated group by group; no 2^n state is built.
    """
    if any(len(g) % 2 for g in structure.groups):
        raise UsageError("visibility model needs even group sizes")
    n = structure.n
    if witness.n != n:
        raise UsageError(
            f"witness acts on {witness.n} parties but structure has {n}"
        )
    if witness.family == "separability":
        m = 2 if target is None else int(target)
        if not 2 <= m <= n:
            raise UsageError(f"m must lie in 2..{n}, got {m}")
        bound = msep_bound(witness.alpha, m)
        terms = separability_terms(witness)
    else:
        if target is None:
            raise UsageError("depth witness needs an explicit target k")
        if witness.n != KPROD_N:
            raise UsageError(
                f"producibility bounds exist for {KPROD_N} parties only, "
                f"structure has {n}"
            )
        bound = kprod_bound(int(target), witness.gamma)
        terms = depth_terms(witness)
    points = []
    for v1 in v1_grid:
        for v2 in v2_grid:
            group_states = [
                visibility_state(len(g), float(v1), float(v2))
                for g in structure.groups
            ]
            margin = terms_expectation(terms, structure, group_states) - bound
            points.append(MarginPoint(float(v1), float(v2), margin))
    return points
