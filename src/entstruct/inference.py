"""Three-step inference of an entanglement structure from measured data.

Step 1 tests the full system for genuine multipartite entanglement.
Step 2 bounds the number of separable groups (intactness) from above and
the entanglement depth from below.  Step 3 scans subsets, largest
plausible size first, accepting disjoint violating subsets greedily as
certified groups; leftover parties stay as singletons.

Input is either a list of MeasurementRecords (full counts, enabling the
subset scan via marginal estimators) or an ExpectationTable of
pre-computed expectation values, which may include subset entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import CountsFormatError, UsageError
from .states import Partition
from .tomo import (
    OBSERVABLE_LABELS,
    Estimate,
    MeasurementRecord,
    _read_items,
    estimate_mz,
    estimate_product_expectation,
)
from .witnesses import (
    DEFAULT_GAMMA_GRID,
    KPROD_N,
    Evidence,
    ExpectationPair,
    check_expectation,
    decide,
    depth_scan,
    intactness_scan,
    kprod_bound_entry,
    msep_bound,
    separability_witness_value,
)

OBSERVABLES = tuple(OBSERVABLE_LABELS)

ASSUMPTIONS = (
    "Conclusions assume the source prepares one fixed entanglement structure "
    "(not a convex mixture of different structures) and that each recorded "
    "setting faithfully implements its stated observables. The proposed "
    "partition is the minimal structure consistent with every violation "
    "observed at the configured confidence; coarser structures are never "
    "excluded by these data, and subsets without a violation are left as "
    "singletons rather than certified separable."
)


@dataclass(frozen=True)
class InferenceConfig:
    """Decision parameters for all three steps.

    The default confidence is stricter than the 1-sigma headline
    reporting of the witness module because the subset scan runs many
    tests.  Each test is one-sided: at 3 sigma a subset sitting exactly
    on its bound is falsely accepted 0.135% of the time.  At n = 8 the
    scan can run 246 subset tests (sizes 2..7) with no family-wise
    correction, so the chance of at least one false accept is up to
    1 - (1 - 0.00135)^246, about 28%.  A Holm step-down correction is
    planned.  Every field is checked here, once; a breach is a UsageError.
    """

    confidence_sigmas: float = 3.0
    scan_alpha: float = 2.0
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    max_subset_size: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.confidence_sigmas < math.inf:
            raise UsageError("confidence_sigmas must be finite and non-negative, "
                             f"got {self.confidence_sigmas!r}")
        if not 0 < self.scan_alpha <= 2:
            raise UsageError(f"scan_alpha must lie in (0, 2], got {self.scan_alpha!r}")
        grid = tuple(self.gamma_grid)
        if not grid:
            raise UsageError("gamma_grid must not be empty")
        for k, gamma in product(range(1, KPROD_N), grid):  # what the depth step reads
            kprod_bound_entry(k, gamma)
        object.__setattr__(self, "gamma_grid", grid)
        size = self.max_subset_size
        if size is not None and (not isinstance(size, numbers.Integral) or size < 2):
            raise UsageError(f"max_subset_size must be None or an integer >= 2, got {size!r}")


_DEFAULT_CONFIG = InferenceConfig()  # checked once, not on every call


@dataclass(frozen=True)
class TableEntry:
    """One expectation value of a table: the observable on a party set of
    distinct positive integers (not bools, floats or strings).  Value and
    sigma are real numbers (not bools or strings), stored as floats, that
    obey witnesses.check_expectation."""

    observable: str
    parties: tuple[int, ...]
    value: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.observable not in OBSERVABLES:
            raise UsageError(
                f"observable must be one of {OBSERVABLES}, got {self.observable!r}"
            )
        try:
            parties = tuple(self.parties)
        except TypeError:  # not iterable
            parties = ()
        # Python ints pass at C speed; numpy integers are converted; bools fail.
        integral = set(map(type, parties)) == {int} or all(
            type(p) is int or isinstance(p, np.integer) for p in parties)
        parties = tuple(sorted(map(int, parties))) if integral else ()
        if not parties or len(set(parties)) != len(parties) or parties[0] < 1:
            raise UsageError(
                f"parties must be distinct positive integers, got {self.parties!r}")
        for name, x in (("value", self.value), ("sigma", self.sigma)):
            if type(x) is bool or not isinstance(x, (int, float, np.integer, np.floating)):
                raise UsageError(f"{name} must be a real number, got {x!r}")
        check_expectation(self.value, self.sigma, "value", UsageError)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "sigma", float(self.sigma))


@dataclass(frozen=True)
class ExpectationTable:
    n: int
    entries: tuple[TableEntry, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        index: dict[tuple[str, tuple[int, ...]], Estimate] = {}
        for i, e in enumerate(entries):
            if e.parties[-1] > self.n:
                raise UsageError(
                    f"expectation {i}: entry {e.observable}{e.parties} exceeds n={self.n}"
                )
            if (e.observable, e.parties) in index:
                raise UsageError(f"expectation {i}: duplicate entry {e.observable}{e.parties}")
            index[e.observable, e.parties] = Estimate(e.value, e.sigma)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def lookup(self, observable: str, parties) -> Estimate | None:
        return self._index.get((observable, tuple(sorted(int(p) for p in parties))))


class PairEstimator:
    """The witness input pairs, estimated from count records or read from
    an ExpectationTable.

    Records with the same uniform setting are merged; records that mix
    settings are legal data but unused here.
    """

    def __init__(self, data) -> None:
        if isinstance(data, ExpectationTable):
            self.n = data.n
            self._lookup = data.lookup
            return
        records = list(data)
        if not records:
            raise UsageError("no measurement records given")
        self.n = records[0].setting.n
        merged: dict[str, MeasurementRecord] = {}
        for rec in records:
            if rec.setting.n != self.n:
                raise UsageError("records disagree on the party count")
            labels = set(rec.setting.labels)
            if len(labels) != 1:
                continue
            lab = labels.pop()
            if lab in merged:
                counts = dict(merged[lab].counts)
                for k, v in rec.counts.items():
                    counts[k] = counts.get(k, 0) + v
                rec = MeasurementRecord(rec.setting, counts)
            merged[lab] = rec
        self._by_label = merged
        self._lookup = self._estimate

    def _estimate(self, observable: str, parties) -> Estimate | None:
        label = OBSERVABLE_LABELS[observable]
        estimator = estimate_mz if label == "Z" else estimate_product_expectation
        rec = self._by_label.get(label)
        return estimator(rec, parties) if rec is not None else None

    def _pair(self, first: str, second: str, parties) -> ExpectationPair | None:
        a = self._lookup(first, parties)
        b = self._lookup(second, parties)
        if a is None or b is None:
            return None
        return ExpectationPair(a.value, b.value, a.sigma, b.sigma)

    def sep_pair(self, parties) -> ExpectationPair | None:
        """(<M_Z>, <M_X>) on the parties, or None without Z and X data."""
        return self._pair("MZ", "MX", parties)

    def depth_pair(self) -> ExpectationPair | None:
        """Full-system (<A>, <A'>), or None without AMIX and APLUS data."""
        return self._pair("A", "APRIME", tuple(range(1, self.n + 1)))


def _scan_size(est, pool, size: int, alpha: float, conf: float) -> list[Evidence]:
    bound = msep_bound(alpha, 2)
    out = []
    for subset in combinations(pool, size):
        pair = est.sep_pair(subset)
        if pair is not None:
            out.append(decide(subset, f"sep(alpha={alpha:g})",
                              separability_witness_value(pair, alpha), bound, conf))
    return out


def subset_witness_scan(
    data, size: int, alpha: float = 2.0, confidence_sigmas: float = 3.0
) -> list[Evidence]:
    """Evaluate the two-group separability witness on every size-s subset
    (lexicographic order); a violation certifies entanglement within the
    subset.  Subsets without both Z and X data are skipped."""
    est = PairEstimator(data)
    if not 2 <= size <= est.n:
        raise UsageError(f"subset size must lie in 2..{est.n}, got {size}")
    return _scan_size(est, tuple(range(1, est.n + 1)), size, alpha, confidence_sigmas)


@dataclass(frozen=True)
class StructureReport:
    n: int
    gme: bool
    gme_margin: float
    intactness_upper: int | None
    depth_lower: int | None
    proposed_partition: tuple[tuple[int, ...], ...]
    evidence: tuple[Evidence, ...]
    assumptions: str
    confidence_sigmas: float
    skipped: tuple[str, ...] = ()  # why a step did not run


def infer_structure(data, config: InferenceConfig | None = None) -> StructureReport:
    """Run the three-step inference; see the module docstring.

    Requires full-system Z and X data; AMIX/APLUS data enable the depth
    step and a deeper starting point for the subset scan.  A step that
    does not run leaves its reason in ``report.skipped``.
    """
    cfg = config or _DEFAULT_CONFIG
    est = PairEstimator(data)
    n = est.n
    everyone = tuple(range(1, n + 1))
    conf = cfg.confidence_sigmas

    pair_full = est.sep_pair(everyone)
    if pair_full is None:
        raise UsageError("full-system Z-basis and X-basis data are required")

    # Step 1: genuine multipartite entanglement
    step1 = decide(everyone, f"sep(alpha={cfg.scan_alpha:g})",
                   separability_witness_value(pair_full, cfg.scan_alpha),
                   msep_bound(cfg.scan_alpha, 2), conf)
    evidence = [step1]
    gme_margin = step1.value - step1.bound
    if step1.violated:
        return StructureReport(
            n=n, gme=True, gme_margin=gme_margin,
            intactness_upper=1, depth_lower=n,
            proposed_partition=(everyone,),
            evidence=tuple(evidence), assumptions=ASSUMPTIONS,
            confidence_sigmas=conf,
        )

    # Step 2a: intactness upper bound at robustness-optimal alpha per m
    intactness, rows = intactness_scan(pair_full, n, conf)
    evidence += rows

    # Step 2b: depth lower bound over the gamma grid, where bounds exist
    depth: int | None = None
    skipped = []
    if n != KPROD_N:
        skipped.append(f"depth step: producibility bounds exist for n = {KPROD_N} "
                       f"only, the data have n = {n}")
    elif (depth_pair := est.depth_pair()) is None:
        skipped.append("depth step: no full-system A and A' data (uniform AMIX "
                       "and APLUS records, or A and APRIME table entries)")
    else:
        depth, rows = depth_scan(depth_pair, cfg.gamma_grid, conf)
        evidence += rows

    # Step 3: greedy subset scan from the largest plausible group size.
    # With depth evidence the minimal compatible partition needs a block of
    # at least that size; without it every size up to n-1 is on the table.
    start = depth if depth is not None else n - 1
    if intactness is not None:
        # <= intactness groups forces a block of at least ceil(n/intactness)
        start = max(start, math.ceil(n / intactness))
    if cfg.max_subset_size is not None:
        start = min(start, cfg.max_subset_size)
    start = max(2, min(start, n - 1))

    unassigned = set(everyone)
    groups: list[tuple[int, ...]] = []
    for size in range(start, 1, -1):
        if size > len(unassigned):
            continue
        results = _scan_size(est, tuple(sorted(unassigned)), size,
                             cfg.scan_alpha, conf)
        evidence += results
        hits = sorted(
            (r for r in results if r.violated),
            key=lambda r: (-(r.value - r.bound), r.subset),
        )
        for r in hits:
            if set(r.subset) <= unassigned:
                groups.append(r.subset)
                unassigned -= set(r.subset)
    groups.extend((p,) for p in sorted(unassigned))
    partition = tuple(sorted(groups, key=min))

    return StructureReport(
        n=n, gme=False, gme_margin=gme_margin,
        intactness_upper=intactness, depth_lower=depth,
        proposed_partition=partition,
        evidence=tuple(evidence), assumptions=ASSUMPTIONS,
        confidence_sigmas=conf, skipped=tuple(skipped),
    )


def consistency_check(report: StructureReport) -> list[str]:
    """Cross-examine a report; returns human-readable findings (empty when
    everything hangs together).  Inconsistencies are reported, never fixed."""
    findings = []
    partition = None
    try:
        partition = Partition(report.proposed_partition)
    except Exception as exc:  # malformed partitions are exactly what we look for
        findings.append(f"proposed partition is not a valid partition: {exc}")
    if report.gme and report.intactness_upper != 1:
        findings.append(
            f"GME reported but intactness_upper is {report.intactness_upper}, not 1"
        )
    if report.gme and partition is not None and partition.num_groups != 1:
        findings.append("GME reported but the proposed partition is not one block")
    if partition is not None and report.depth_lower is not None:
        if partition.max_group < report.depth_lower:
            findings.append(
                f"certified depth >= {report.depth_lower} but the largest proposed "
                f"group has only {partition.max_group} parties"
            )
    if partition is not None and report.intactness_upper is not None:
        if partition.num_groups > report.intactness_upper:
            findings.append(
                f"intactness <= {report.intactness_upper} but the proposal has "
                f"{partition.num_groups} groups; the proposal is incomplete"
            )
    if partition is not None and not report.gme:
        violated = {
            ev.subset for ev in report.evidence if ev.verdict == "violated"
        }
        for g in partition.groups:
            if len(g) > 1 and tuple(sorted(g)) not in violated:
                findings.append(
                    f"group {g} carries no violating evidence entry"
                )
    return findings


def report_to_dict(report: StructureReport) -> dict:
    """JSON-ready form of a report (schema 'entstruct/1')."""
    return {
        "schema": "entstruct/1",
        "kind": "structure_report",
        "n": report.n,
        "gme": report.gme,
        "gme_margin": report.gme_margin,
        "intactness_upper": report.intactness_upper,
        "depth_lower": report.depth_lower,
        "proposed_partition": [list(g) for g in report.proposed_partition],
        "confidence_sigmas": report.confidence_sigmas,
        "assumptions": report.assumptions,
        "skipped": list(report.skipped),
        "evidence": [
            {
                "subset": list(ev.subset),
                "witness": ev.witness,
                "value": ev.value,
                "sigma": ev.sigma,
                "bound": ev.bound,
                "verdict": ev.verdict,
            }
            for ev in report.evidence
        ],
    }


def load_expectation_table(path) -> ExpectationTable:
    """Read an expectation table: {"n": N, "expectations": [{"observable":
    "MZ", "parties": [1,2], "value": 0.5, "sigma": 0.01}, ...]}; sigma is
    optional (default 0).  Malformed entries, entries beyond n and repeated
    (observable, party set) pairs are rejected with the entry named."""
    n, entries = _read_items(
        path, "expectations", "expectation", ("observable", "parties", "value"), ("sigma",),
        lambda n, raw: TableEntry(raw["observable"], raw["parties"], raw["value"],
                                  raw.get("sigma", 0.0)))
    try:
        return ExpectationTable(n, tuple(entries))
    except UsageError as exc:
        raise CountsFormatError(f"{path}: {exc}") from exc
