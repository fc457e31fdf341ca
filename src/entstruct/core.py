"""Single-qubit building blocks and the party-count cap.

Pauli matrices, the xy-plane observables of the depth witness and their
setting angles, and the Hermiticity check of the state constructor.
Witnesses are sums of products of these single-qubit factors
(:class:`entstruct.bounds.ProductTerms`), which need no party cap.
Density matrices are dense, so wherever a 2^n state or partition is
built the party count is capped (default 12, i.e. 4096-dimensional) to
avoid accidental memory blowups; raise :data:`PARTY_CAP` explicitly if
you need more.  Closed forms build nothing and take 2..511 parties.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

HERMITIAN_CHECK_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10

PARTY_CAP = 12

# Closed-form thresholds and scans build no matrix, so the dense cap does
# not bind them; their float formulas reach 2.0**(2n), finite up to here.
CLOSED_FORM_PARTY_LIMIT = 511

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)  # |0><0|
P1 = np.array([[0, 0], [0, 1]], dtype=complex)  # |1><1|

# Angles (radians, in the xy plane) of the two single-qubit settings the
# depth witness is built from, and of their normalized mean.
THETA_PLUS = 27.0 / 80.0
THETA_MINUS = -21.0 / 80.0
THETA_MID = (THETA_PLUS + THETA_MINUS) / 2.0  # 3/80


def check_positive_party_count(n: int) -> None:
    """Reject party counts that are not positive integers."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError(f"party count must be a positive integer, got {n!r}")


def check_party_count(n: int) -> None:
    """Reject party counts that are non-positive or beyond the dense cap."""
    check_positive_party_count(n)
    if n > PARTY_CAP:
        raise UsageError(
            f"{n} parties exceeds the dense-state cap of {PARTY_CAP}; "
            "raise entstruct.core.PARTY_CAP if this is intentional"
        )


def check_closed_form_party_count(n: int) -> None:
    """Reject party counts below 2 or beyond the float range of the
    closed-form formulas; no dense cap applies."""
    check_positive_party_count(n)
    if not 2 <= n <= CLOSED_FORM_PARTY_LIMIT:
        raise UsageError(
            f"closed-form formulas need 2..{CLOSED_FORM_PARTY_LIMIT} parties, got {n}")


def is_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_CHECK_TOL) -> bool:
    matrix = np.asarray(matrix)
    return bool(np.max(np.abs(matrix - matrix.conj().T)) < tol)


def xy_observable(theta: float) -> np.ndarray:
    """The xy-plane observable cos(theta) sigma_x + sin(theta) sigma_y."""
    return np.cos(theta) * SX + np.sin(theta) * SY
