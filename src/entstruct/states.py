"""Partitions, GHZ-family state constructors, and the noise models used
throughout: white noise, dephasing + white noise, and the two-visibility
photonic model.

Parties are numbered 1..n.  A Partition records which party belongs to
which group; group order is preserved as given (it pairs positionally with
group states in :func:`product_structure`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_party_count, is_hermitian
from .errors import UsageError, ValidationError

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive grouping of parties 1..n."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            groups = tuple(tuple(int(p) for p in g) for g in self.groups)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"groups must be sequences of ints: {exc}") from exc
        if not groups or any(len(g) == 0 for g in groups):
            raise ValidationError("partition needs at least one non-empty group")
        flat = [p for g in groups for p in g]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValidationError(
                f"groups must be disjoint and cover parties 1..{n}, got {groups}"
            )
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def max_group(self) -> int:
        return max(len(g) for g in self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)


@dataclass(frozen=True)
class StateDensity:
    """Density matrix on n qubits: Hermitian, unit trace, PSD (within tol)."""

    matrix: np.ndarray
    n_parties: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        check_party_count(self.n_parties)
        dim = 2**self.n_parties
        if mat.shape != (dim, dim):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match {self.n_parties} parties"
            )
        if not is_hermitian(mat, 1e-12):
            raise ValidationError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) >= TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"density matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ghz(n: int, theta: float = np.pi / 4, phi: float = 0.0) -> StateDensity:
    """Generalized GHZ state cos(theta)|0..0> + e^{i phi} sin(theta)|1..1>.

    The default angles give the standard balanced GHZ state.  n=1 yields
    the single-qubit superposition (|0>+|1>)/sqrt(2) at the defaults.
    """
    check_party_count(n)
    dim = 2**n
    vec = np.zeros(dim, dtype=complex)
    vec[0] = np.cos(theta)
    vec[-1] = np.exp(1j * phi) * np.sin(theta)
    return StateDensity(np.outer(vec, vec.conj()), n)


def _permute_parties(mat: np.ndarray, order: list[int]) -> np.ndarray:
    """Reorder tensor slots so slot i holds party i+1, given the current
    slot->party assignment ``order``."""
    n = len(order)
    perm = [order.index(i + 1) for i in range(n)]
    t = mat.reshape([2] * (2 * n))
    axes = perm + [n + p for p in perm]
    return np.ascontiguousarray(t.transpose(axes)).reshape(2**n, 2**n)


def product_structure(partition: Partition, group_states) -> StateDensity:
    """Tensor the given group states together and route each party to its slot.

    ``group_states[i]`` must act on exactly ``len(partition.groups[i])``
    qubits.  The result is laid out in party order 1..n regardless of how
    the groups interleave.
    """
    group_states = list(group_states)
    if len(group_states) != partition.num_groups:
        raise UsageError(
            f"{partition.num_groups} groups but {len(group_states)} group states"
        )
    for g, st in zip(partition.groups, group_states):
        if st.n_parties != len(g):
            raise UsageError(
                f"group {g} has {len(g)} parties but its state acts on {st.n_parties}"
            )
    n = partition.n
    check_party_count(n)
    mat = np.eye(1, dtype=complex)
    for st in group_states:
        mat = np.kron(mat, st.matrix)
    order = [p for g in partition.groups for p in g]
    return StateDensity(_permute_parties(mat, order), n)


def white_noise_mix(state: StateDensity, p: float) -> StateDensity:
    """(1-p) rho + p I/2^n."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"noise fraction must lie in [0, 1], got {p}")
    dim = state.dim
    mat = (1.0 - p) * state.matrix + p * np.eye(dim) / dim
    return StateDensity(mat, state.n_parties)


def ghz_noise_model(n: int, gamma_d: float, gamma_w: float) -> StateDensity:
    """GHZ state degraded by collective dephasing (gamma_d) and white noise
    (gamma_w): the dephased part is an equal classical mixture of all-|0>
    and all-|1>."""
    if gamma_d < 0 or gamma_w < 0 or gamma_d + gamma_w > 1.0 + 1e-12:
        raise UsageError(
            f"need gamma_d, gamma_w >= 0 with gamma_d + gamma_w <= 1, "
            f"got ({gamma_d}, {gamma_w})"
        )
    check_party_count(n)
    dim = 2**n
    mat = (1.0 - gamma_d - gamma_w) * ghz(n).matrix
    dephased = np.zeros((dim, dim), dtype=complex)
    dephased[0, 0] = 0.5
    dephased[-1, -1] = 0.5
    mat += gamma_d * dephased
    mat += gamma_w * np.eye(dim) / dim
    return StateDensity(mat, n)


def visibility_state(n: int, v1: float, v2: float = 1.0) -> StateDensity:
    """White-noise GHZ state whose weight is set by two interference
    visibilities: w = ((1+v2)/2)^(n/2-1) ((1+v1)/2)^(n/2).

    n must be even.  At n=2 the v2 exponent vanishes, so v2 is ignored.
    """
    if n % 2 != 0:
        raise UsageError(f"visibility model is defined for even n, got {n}")
    for name, v in (("v1", v1), ("v2", v2)):
        if not 0.0 <= v <= 1.0:
            raise UsageError(f"{name} must lie in [0, 1], got {v}")
    w = ((1.0 + v2) / 2.0) ** (n // 2 - 1) * ((1.0 + v1) / 2.0) ** (n // 2)
    return white_noise_mix(ghz(n), 1.0 - w)


_GEOMETRY_PAIRS = ((1, 2), (3, 4), (5, 6), (7, 8))
# Each splitter, when set to "up", fuses the two base pairs named here.
_SPLITTER_LINKS = {"pbs1": (2, 7), "pbs2": (2, 3), "pbs3": (6, 7)}


def _parse_updown(name: str, value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("up", "u"):
        return True
    if text in ("down", "d"):
        return False
    raise UsageError(f"{name} must be 'up' or 'down', got {value!r}")


def geometry_to_structure(pbs1, pbs2, pbs3) -> Partition:
    """Map the three splitter settings of the 8-photon source to the
    entanglement structure it prepares.

    Four entangled pairs (1,2) (3,4) (5,6) (7,8) are fused pairwise: pbs2
    joins the first two pairs, pbs3 the last two, pbs1 bridges the middle.
    Groups come out ordered by their smallest party.
    """
    settings = {
        "pbs1": _parse_updown("pbs1", pbs1),
        "pbs2": _parse_updown("pbs2", pbs2),
        "pbs3": _parse_updown("pbs3", pbs3),
    }
    blocks = [set(p) for p in _GEOMETRY_PAIRS]

    def merge(a: int, b: int) -> None:
        ba = next(blk for blk in blocks if a in blk)
        bb = next(blk for blk in blocks if b in blk)
        if ba is not bb:
            ba |= bb
            blocks.remove(bb)

    for name in ("pbs2", "pbs3", "pbs1"):
        if settings[name]:
            merge(*_SPLITTER_LINKS[name])
    groups = tuple(tuple(sorted(blk)) for blk in sorted(blocks, key=min))
    return Partition(groups)
