"""Product-basis sampling and counts-based estimation.

A measurement setting assigns one of four single-qubit observables to
each party: Z, X, or the two xy-plane settings APLUS / AMIX used by the
depth witness.  Outcomes are bitstrings with party p at position p-1 and
'0' standing for the +1 eigenvalue.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import THETA_MID, THETA_PLUS, QubitObservable, pauli_xy_observable
from .errors import CountsFormatError, NumericError, UsageError, ValidationError
from .states import StateDensity

SETTING_LABELS = ("Z", "X", "APLUS", "AMIX")

_SQ2 = 1.0 / np.sqrt(2.0)


def setting_observable(label: str) -> QubitObservable:
    """The single-qubit observable a setting label stands for."""
    if label == "Z":
        return QubitObservable((0.0, 0.0, 1.0), "Z")
    if label == "X":
        return QubitObservable((1.0, 0.0, 0.0), "X")
    if label == "APLUS":
        return pauli_xy_observable(THETA_PLUS, "APLUS")
    if label == "AMIX":
        return pauli_xy_observable(THETA_MID, "AMIX")
    raise UsageError(f"unknown setting label {label!r}; valid: {SETTING_LABELS}")


def _setting_basis(label: str) -> np.ndarray:
    """2x2 unitary whose columns are the (+1, -1) eigenvectors."""
    if label == "Z":
        return np.eye(2, dtype=complex)
    if label == "X":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if label in ("APLUS", "AMIX"):
        theta = THETA_PLUS if label == "APLUS" else THETA_MID
        ph = np.exp(1j * theta)
        return np.array([[_SQ2, _SQ2], [_SQ2 * ph, -_SQ2 * ph]], dtype=complex)
    raise UsageError(f"unknown setting label {label!r}; valid: {SETTING_LABELS}")


@dataclass(frozen=True)
class MeasurementSetting:
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise ValidationError("a setting needs at least one party")
        for lab in labels:
            if lab not in SETTING_LABELS:
                raise ValidationError(
                    f"unknown setting label {lab!r}; valid: {SETTING_LABELS}"
                )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def uniform(cls, label: str, n: int) -> "MeasurementSetting":
        return cls(tuple([label] * n))


@dataclass(frozen=True)
class MeasurementRecord:
    setting: MeasurementSetting
    counts: dict[str, int]

    def __post_init__(self) -> None:
        n = self.setting.n
        clean: dict[str, int] = {}
        for key, val in self.counts.items():
            if not isinstance(key, str) or len(key) != n or set(key) - {"0", "1"}:
                raise ValidationError(
                    f"outcome {key!r} is not a {n}-character string of 0/1"
                )
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < 0:
                raise ValidationError(
                    f"count for outcome {key!r} must be a non-negative integer, got {val!r}"
                )
            clean[key] = int(val)
        object.__setattr__(self, "counts", clean)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def probabilities(state: StateDensity, setting: MeasurementSetting) -> np.ndarray:
    """Exact outcome distribution of the product measurement on the state.

    p_k = sum_ij rho_ij prod_q conj(u_q[i_q,k_q]) u_q[j_q,k_q], with u_q the
    setting basis of party q, contracted one party at a time in O(4^n).
    """
    if state.n_parties != setting.n:
        raise UsageError(
            f"state has {state.n_parties} parties, setting has {setting.n}"
        )
    n = setting.n
    # Axes (i_1, j_1, ..., i_n, j_n): each party's row and column bit adjacent.
    interleave = [a for q in range(n) for a in (q, n + q)]
    t = state.matrix.reshape((2,) * (2 * n)).transpose(interleave).reshape(-1)
    # Replace the leading (i, j) pair by its outcome bit k, appended last, so
    # the final axes are (k_1, ..., k_n) with party 1 most significant.
    for lab in setting.labels:
        u = _setting_basis(lab)
        pair_to_outcome = (u.conj()[:, None, :] * u).reshape(4, 2)  # [2i+j, k]
        t = (t.reshape(4, -1).T @ pair_to_outcome).reshape(-1)
    probs = t.real
    if probs.min() < -1e-10:
        raise NumericError(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) >= 1e-8:
        raise NumericError(f"outcome probabilities sum to {total!r}")
    return probs / total


def sample_counts(
    state: StateDensity, setting: MeasurementSetting, shots: int, seed=None
) -> MeasurementRecord:
    """Multinomial sample of the product measurement.

    A seed reproduces the counts within one version of the package: a
    change to how the probabilities are computed can move them in the
    last bits and so change some draws.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise UsageError(f"shots must be a positive integer, got {shots!r}")
    probs = probabilities(state, setting)
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    n = setting.n
    counts = {
        format(idx, f"0{n}b"): int(c) for idx, c in enumerate(draws) if c > 0
    }
    return MeasurementRecord(setting, counts)


class Estimate(NamedTuple):
    value: float
    sigma: float


def _check_parties(record: MeasurementRecord, parties) -> tuple[int, ...]:
    n = record.setting.n
    parties = tuple(int(p) for p in parties)
    if not parties:
        raise UsageError("need at least one party")
    if len(set(parties)) != len(parties):
        raise UsageError(f"duplicate parties in {parties}")
    if any(not 1 <= p <= n for p in parties):
        raise UsageError(f"parties {parties} outside 1..{n}")
    if record.total < 1:
        raise UsageError("record holds no counts")
    return tuple(sorted(parties))


def estimate_product_expectation(record: MeasurementRecord, parties) -> Estimate:
    """Sample mean of the +/-1 outcome product over the given parties,
    with the binomial-propagated standard error sqrt((1-v^2)/N)."""
    parties = _check_parties(record, parties)
    total = record.total
    acc = 0
    for outcome, cnt in record.counts.items():
        ones = sum(1 for p in parties if outcome[p - 1] == "1")
        acc += cnt if ones % 2 == 0 else -cnt
    value = acc / total
    sigma = float(np.sqrt(max(0.0, 1.0 - value**2) / total))
    return Estimate(value, sigma)


def estimate_mz(record: MeasurementRecord, parties) -> Estimate:
    """Fraction of shots where the given parties all came out equal in the
    Z basis: the subset population observable.  Bernoulli standard error."""
    parties = _check_parties(record, parties)
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


def marginalize(record: MeasurementRecord, parties) -> MeasurementRecord:
    """Restrict the record to the given parties (counts summed over the rest)."""
    parties = _check_parties(record, parties)
    labels = tuple(record.setting.labels[p - 1] for p in parties)
    counts: dict[str, int] = {}
    for outcome, cnt in record.counts.items():
        key = "".join(outcome[p - 1] for p in parties)
        counts[key] = counts.get(key, 0) + cnt
    return MeasurementRecord(MeasurementSetting(labels), counts)


def save_counts(records, path) -> None:
    """Write records to the JSON counts format (see load_counts)."""
    records = list(records)
    if not records:
        raise UsageError("no records to save")
    n = records[0].setting.n
    for rec in records:
        if rec.setting.n != n:
            raise UsageError("all records in a file must share the party count")
    doc = {
        "n": n,
        "records": [
            {
                "setting": list(rec.setting.labels),
                "counts": {k: rec.counts[k] for k in sorted(rec.counts)},
            }
            for rec in records
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _reject_duplicate_keys(pairs):
    out = {}
    for key, val in pairs:
        if key in out:
            raise CountsFormatError(f"duplicate key {key!r} in JSON object")
        out[key] = val
    return out


def load_counts(path) -> list[MeasurementRecord]:
    """Read a counts file: {"n": N, "records": [{"setting": [...],
    "counts": {"01...": int, ...}}, ...]}.

    Unknown keys, malformed outcomes, duplicate outcome strings, and
    bit-length mismatches are all rejected with the offending record named.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise CountsFormatError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CountsFormatError(f"{path}: top level must be an object")
    extra = set(doc) - {"n", "records"}
    if extra:
        raise CountsFormatError(f"{path}: unknown top-level keys {sorted(extra)}")
    if "n" not in doc or "records" not in doc:
        raise CountsFormatError(f"{path}: required keys 'n' and 'records' missing")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CountsFormatError(f"{path}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(doc["records"], list) or not doc["records"]:
        raise CountsFormatError(f"{path}: 'records' must be a non-empty list")
    records = []
    for i, raw in enumerate(doc["records"]):
        where = f"{path}: record {i}"
        if not isinstance(raw, dict):
            raise CountsFormatError(f"{where}: must be an object")
        extra = set(raw) - {"setting", "counts"}
        if extra:
            raise CountsFormatError(f"{where}: unknown keys {sorted(extra)}")
        if "setting" not in raw or "counts" not in raw:
            raise CountsFormatError(f"{where}: needs 'setting' and 'counts'")
        setting_raw = raw["setting"]
        if not isinstance(setting_raw, list) or len(setting_raw) != n:
            raise CountsFormatError(
                f"{where}: setting must be a list of {n} labels"
            )
        if not isinstance(raw["counts"], dict):
            raise CountsFormatError(f"{where}: counts must be an object")
        try:
            setting = MeasurementSetting(tuple(setting_raw))
            records.append(MeasurementRecord(setting, raw["counts"]))
        except ValidationError as exc:
            raise CountsFormatError(f"{where}: {exc}") from exc
    return records


def write_estimates_csv(path, rows) -> None:
    """CSV export: one row per (subset, observable) estimate."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subset", "observable", "value", "sigma"])
        for subset, observable, value, sigma in rows:
            writer.writerow(
                ["+".join(str(p) for p in subset), observable,
                 f"{value:.10g}", f"{sigma:.10g}"]
            )
