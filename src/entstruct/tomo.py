"""Product-basis sampling and counts-based estimation.

A measurement setting assigns one of four single-qubit observables to
each party: Z, X, or the two xy-plane settings APLUS / AMIX used by the
depth witness, as tabulated in SETTING_OBSERVABLES.  Outcomes are
bitstrings with party p at position p-1 and '0' standing for the +1
eigenvalue.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import SZ, THETA_MID, THETA_PLUS, xy_observable
from .errors import CountsFormatError, NumericError, UsageError, ValidationError
from .states import StateDensity

# The measurement settings, in one table: each label's observable, Z or
# an xy-plane one (X at angle 0, APLUS at theta_+, AMIX at the mid angle),
SETTING_OBSERVABLES = {
    "Z": SZ,
    "X": xy_observable(0.0),
    "APLUS": xy_observable(THETA_PLUS),
    "AMIX": xy_observable(THETA_MID),
}
# and the label each witness input (a table observable) is read from.
OBSERVABLE_LABELS = {"MZ": "Z", "MX": "X", "A": "AMIX", "APRIME": "APLUS"}
SETTING_LABELS = tuple(SETTING_OBSERVABLES)

# Per label, W[2i+j, k] = <j|P_k|i> takes a party's (row i, column j) of rho
# to its outcome k, P_k = (I +/- O)/2 projecting on the +1 (k = 0) or -1 outcome.
_OUTCOME_MAPS = {
    lab: np.stack([(np.eye(2) + sign * obs).T.reshape(4) / 2 for sign in (1, -1)], axis=1)
    for lab, obs in SETTING_OBSERVABLES.items()
}


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
    """Counts of one product setting, keyed by outcome string.

    The outcomes are parsed once, at construction, into ``bits`` (one row
    per outcome, column p-1 True where party p read '1') and ``weights``
    (its count), and their sum is kept as ``total``; the estimators work
    on these.  A record holds at least one shot.
    """

    setting: MeasurementSetting
    counts: dict[str, int]
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

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
        total = sum(clean.values())
        if not 1 <= total < 2**63:
            raise ValidationError(f"counts total {total} shots, outside 1..2^63 - 1")
        object.__setattr__(self, "counts", clean)
        raw = np.frombuffer("".join(clean).encode(), np.uint8).reshape(-1, n)
        object.__setattr__(self, "bits", raw == ord("1"))
        object.__setattr__(self, "weights", np.array(list(clean.values()), np.int64))
        object.__setattr__(self, "total", total)


def probabilities(state: StateDensity, setting: MeasurementSetting) -> np.ndarray:
    """Exact outcome distribution of the product measurement on the state.

    p_k = Tr(rho P_k) for the product P_k of each party's outcome projector,
    contracted one party at a time in O(4^n).
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
        t = (t.reshape(4, -1).T @ _OUTCOME_MAPS[lab]).reshape(-1)
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


def check_parties(parties, n: int | None) -> tuple[int, ...]:
    """The one party rule, for table rows, table lookups and the estimators:
    a non-empty collection of distinct integers in 1..n (numpy integers
    too; not bools, floats or strings), returned sorted.  A breach raises
    UsageError.  With n None the caller checks the upper end itself, as a
    table does for all its rows at once."""
    try:
        given = tuple(parties)
        ps = tuple(sorted(map(operator.index, given)))
    except TypeError:  # not iterable, or not integers
        ps = ()
    if not ps or ps[0] < 1 or len(set(ps)) != len(ps) or bool in map(type, given):
        raise UsageError(f"parties must be distinct positive integers, got {parties!r}")
    if n is not None and ps[-1] > n:
        raise UsageError(f"parties {ps} outside 1..{n}")
    return ps


def estimate_product_expectation(record: MeasurementRecord, parties) -> Estimate:
    """Sample mean of the +/-1 outcome product over the given parties,
    with the binomial-propagated standard error sqrt((1-v^2)/N)."""
    cols = [p - 1 for p in check_parties(parties, record.setting.n)]
    total = record.total
    value = int(record.weights @ (1 - 2 * (record.bits[:, cols].sum(1) % 2))) / total
    sigma = float(np.sqrt(max(0.0, 1.0 - value**2) / total))
    return Estimate(value, sigma)


def estimate_mz(record: MeasurementRecord, parties) -> Estimate:
    """Fraction of shots where the given parties all came out equal in the
    Z basis: the subset population observable.  Bernoulli standard error."""
    parties = check_parties(parties, record.setting.n)
    for p in parties:
        if record.setting.labels[p - 1] != "Z":
            raise UsageError(
                f"party {p} was measured in {record.setting.labels[p - 1]}, not Z"
            )
    sub = record.bits[:, [p - 1 for p in parties]]
    total = record.total
    value = int(record.weights[sub.all(1) | ~sub.any(1)].sum()) / total
    sigma = float(np.sqrt(max(0.0, value * (1.0 - value)) / total))
    return Estimate(value, sigma)


def save_counts(records, path) -> None:
    """Write records to the JSON counts format (see load_counts)."""
    records = list(records)
    if not records:
        raise UsageError("no records to save")
    n = records[0].setting.n
    if any(rec.setting.n != n for rec in records):
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


def _read_items(path, key: str, noun: str, required: tuple[str, ...],
                optional: tuple[str, ...], build) -> tuple[int, list]:
    """Read a JSON file holding exactly {"n": N, key: [item, ...]}: N a positive
    int, the items a non-empty list of objects with every required key and
    no other than the optional ones, and no object repeating a key.  Returns
    N and [build(N, item), ...]; build refuses an item with ValidationError or
    UsageError.  Every fault is a CountsFormatError naming the path and item."""
    duplicates = []

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            duplicates.append((obj, Counter(k for k, _ in pairs).most_common(1)[0][0]))
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise CountsFormatError(f"{path}: malformed JSON at line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CountsFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    items = doc.get(key) if isinstance(doc, dict) else None
    if duplicates:
        obj, dup = duplicates[0]
        where = path
        for i, raw in enumerate(items if isinstance(items, list) else ()):
            if raw is obj or isinstance(raw, dict) and any(v is obj for v in raw.values()):
                where = f"{path}: {noun} {i}"
        raise CountsFormatError(f"{where}: duplicate key {dup!r} in JSON object")
    if not isinstance(doc, dict):
        raise CountsFormatError(f"{path}: top level must be an object")
    extra = set(doc) - {"n", key}
    if extra:
        raise CountsFormatError(f"{path}: unknown top-level keys {sorted(extra)}")
    if "n" not in doc or key not in doc:
        raise CountsFormatError(f"{path}: required keys 'n' and '{key}' missing")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CountsFormatError(f"{path}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(items, list) or not items:
        raise CountsFormatError(f"{path}: '{key}' must be a non-empty list")
    needed, allowed = set(required), set(required) | set(optional)
    out = []
    for i, raw in enumerate(items):
        where = f"{path}: {noun} {i}"
        if not isinstance(raw, dict):
            raise CountsFormatError(f"{where}: must be an object")
        extra = raw.keys() - allowed
        if extra:
            raise CountsFormatError(f"{where}: unknown keys {sorted(extra)}")
        if not raw.keys() >= needed:
            raise CountsFormatError(f"{where}: needs {' and '.join(map(repr, required))}")
        try:
            out.append(build(n, raw))
        except (ValidationError, UsageError) as exc:
            raise CountsFormatError(f"{where}: {exc}") from exc
    return n, out


def _record(n: int, raw: dict) -> MeasurementRecord:
    if not isinstance(raw["setting"], list) or len(raw["setting"]) != n:
        raise ValidationError(f"setting must be a list of {n} labels")
    if not isinstance(raw["counts"], dict):
        raise ValidationError("counts must be an object")
    return MeasurementRecord(MeasurementSetting(tuple(raw["setting"])), raw["counts"])


def load_counts(path) -> list[MeasurementRecord]:
    """Read a counts file: {"n": N, "records": [{"setting": [...],
    "counts": {"01...": int, ...}}, ...]}.  Unknown keys, malformed or repeated
    outcomes, bit-length mismatches and records without shots are rejected
    with the offending record named."""
    return _read_items(path, "records", "record", ("setting", "counts"), (), _record)[1]
