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
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, product

import numpy as np

from .errors import CountsFormatError, UsageError
from .states import Partition
from .tomo import (
    OBSERVABLE_LABELS,
    Estimate,
    MeasurementRecord,
    _read_items,
    check_parties,
    estimate_mz,
    estimate_product_expectation,
)
from .witnesses import (
    DEFAULT_GAMMA_GRID,
    KPROD_N,
    Evidence,
    ExpectationPair,
    WitnessValue,
    check_expectation,
    decide,
    depth_scan,
    intactness_scan,
    kprod_bound_entry,
    msep_bound,
    separability_witness_columns,
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


# Party sets are stored as int64 bitmasks, bit p-1 for party p.
MAX_TABLE_PARTIES = 63


def _observable_id(observable) -> int:
    if observable not in OBSERVABLES:
        raise UsageError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    return OBSERVABLES.index(observable)


class ExpectationTable:
    """Expectation values as four aligned read-only columns sorted by
    (observable, mask): ``observable`` (its index in OBSERVABLES), ``mask``
    (the party set, bit p-1 for party p), ``value`` and ``sigma``.

    Built from (observable, parties, value, sigma) rows on n parties, n in
    1..MAX_TABLE_PARTIES.  Each row is checked once, here: tomo.check_parties,
    real numbers (not bools or strings) obeying witnesses.check_expectation;
    then no entry may reach beyond n or repeat an (observable, party set).
    A breach is a UsageError naming the row's index."""

    def __init__(self, n: int, rows) -> None:
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not 1 <= n <= MAX_TABLE_PARTIES):
            raise UsageError(f"n must be an integer in 1..{MAX_TABLE_PARTIES}, got {n!r}")
        self.n = n = int(n)
        ids, parties, values, sigmas = [], [], [], []
        for i, (observable, ps, value, sigma) in enumerate(rows):
            try:
                ids.append(_observable_id(observable))
                parties.append(check_parties(ps, None))
                for name, x in (("value", value), ("sigma", sigma)):
                    if type(x) is bool or not isinstance(x, (int, float, np.integer, np.floating)):
                        raise UsageError(f"{name} must be a real number, got {x!r}")
                check_expectation(value, sigma, "value", UsageError)
            except UsageError as exc:
                raise UsageError(f"expectation {i}: {exc}") from None
            values.append(value)
            sigmas.append(sigma)
        i = next((i for i, ps in enumerate(parties) if ps[-1] > n), None)
        if i is not None:
            raise UsageError(f"expectation {i}: entry {OBSERVABLES[ids[i]]}{parties[i]} "
                             f"exceeds n={n}")
        sizes = np.fromiter(map(len, parties), np.int64, len(parties))
        bits = 1 << (np.fromiter(chain.from_iterable(parties), np.int64) - 1)
        masks = np.bitwise_or.reduceat(bits, np.cumsum(sizes) - sizes)
        order = np.lexsort((masks, ids))
        self.observable = np.array(ids, np.int8)[order]
        self.mask = masks[order]
        same = ((self.observable[1:] == self.observable[:-1])
                & (self.mask[1:] == self.mask[:-1]))
        if same.any():
            i = int(order[1:][same].min())  # the first row repeating an earlier one
            raise UsageError(f"expectation {i}: duplicate entry "
                             f"{OBSERVABLES[ids[i]]}{parties[i]}")
        self.value = np.array(values, float)[order]
        self.sigma = np.array(sigmas, float)[order]
        for column in (self.observable, self.mask, self.value, self.sigma):
            column.flags.writeable = False

    def _columns(self, observable: str, subsets) -> np.ndarray:
        """Values (row 0) and sigmas (row 1) of the observable on each of the
        subsets, NaN where the table has no entry.  The subsets are party
        tuples of one size within 1..n; one sorted search finds them all."""
        masks = (1 << (np.array(subsets) - 1)).sum(axis=1)
        k = _observable_id(observable)
        lo, hi = np.searchsorted(self.observable, (k, k + 1))
        out = np.full((2, len(masks)), np.nan)
        if hi > lo:
            at = lo + np.searchsorted(self.mask[lo:hi], masks).clip(max=hi - lo - 1)
            hit = self.mask[at] == masks
            out[:, hit] = self.value[at[hit]], self.sigma[at[hit]]
        return out

    def lookup(self, observable: str, parties) -> Estimate | None:
        """The observable's entry on the party set (in any order), or None."""
        (value,), (sigma,) = self._columns(observable, [check_parties(parties, self.n)])
        return None if math.isnan(value) else Estimate(float(value), float(sigma))


class PairEstimator:
    """The witness input pairs, estimated from count records or read from
    an ExpectationTable.

    Records with the same uniform setting are merged; records that mix
    settings are legal data but unused here, and counted in
    ``mixed_records``.
    """

    def __init__(self, data) -> None:
        self.mixed_records = 0
        if isinstance(data, ExpectationTable):
            self.n, self._columns = data.n, data._columns
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
                self.mixed_records += 1
                continue
            lab = labels.pop()
            if lab in merged:
                counts = dict(merged[lab].counts)
                for k, v in rec.counts.items():
                    counts[k] = counts.get(k, 0) + v
                rec = MeasurementRecord(rec.setting, counts)
            merged[lab] = rec
        self._estimators = {
            obs: partial(estimate_mz if lab == "Z" else estimate_product_expectation,
                         merged[lab])
            for obs, lab in OBSERVABLE_LABELS.items() if lab in merged
        }
        self._columns = self._estimate_columns

    def _estimate_columns(self, observable: str, subsets) -> np.ndarray:
        """The table's _columns, estimated one subset at a time."""
        estimator = self._estimators.get(observable)
        if estimator is None:
            return np.full((2, len(subsets)), np.nan)
        return np.array([estimator(s) for s in subsets]).T

    def _pair(self, first: str, second: str, parties) -> ExpectationPair | None:
        subset = [check_parties(parties, self.n)]
        (a,), (sigma_a,) = self._columns(first, subset).tolist()
        (b,), (sigma_b,) = self._columns(second, subset).tolist()
        if math.isnan(a) or math.isnan(b):
            return None
        return ExpectationPair(a, b, sigma_a, sigma_b)

    def sep_pair(self, parties) -> ExpectationPair | None:
        """(<M_Z>, <M_X>) on the parties, or None without Z and X data."""
        return self._pair("MZ", "MX", parties)

    def depth_pair(self) -> ExpectationPair | None:
        """Full-system (<A>, <A'>), or None without AMIX and APLUS data."""
        return self._pair("A", "APRIME", tuple(range(1, self.n + 1)))


def _scan_size(est, pool, size: int, alpha: float,
               conf: float) -> tuple[list[Evidence], int]:
    """The separability test on every size-s subset of the pool, in
    lexicographic order, from one column read per observable.  Returns a
    row for each subset with both MZ and MX data, and how many lack them."""
    bound, witness = msep_bound(alpha, 2), f"sep(alpha={alpha:g})"
    subsets = list(combinations(pool, size))
    (z, sigma_z), (x, sigma_x) = est._columns("MZ", subsets), est._columns("MX", subsets)
    values, sigmas, signs = separability_witness_columns(alpha, z, x, sigma_z, sigma_x)
    rows = [decide(s, witness, WitnessValue(v, sigma, sign), bound, conf)
            for s, v, sigma, sign in zip(subsets, values.tolist(), sigmas.tolist(),
                                         signs.tolist())
            if not math.isnan(v)]  # NaN: no data
    return rows, len(subsets) - len(rows)


def subset_witness_scan(
    data, size: int, alpha: float = 2.0, confidence_sigmas: float = 3.0
) -> list[Evidence]:
    """Evaluate the two-group separability witness on every size-s subset
    (lexicographic order); a violation certifies entanglement within the
    subset.  Subsets without both Z and X data are skipped."""
    est = PairEstimator(data)
    if not 2 <= size <= est.n:
        raise UsageError(f"subset size must lie in 2..{est.n}, got {size}")
    return _scan_size(est, tuple(range(1, est.n + 1)), size, alpha, confidence_sigmas)[0]


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
    skipped: tuple[str, ...] = ()  # what the data could not serve, and why


def infer_structure(data, config: InferenceConfig | None = None) -> StructureReport:
    """Run the three-step inference; see the module docstring.

    Requires full-system Z and X data; AMIX/APLUS data enable the depth
    step and a deeper starting point for the subset scan.  A step that
    does not run, subsets the scan could not test and records that mix
    settings each leave a line in ``report.skipped``.
    """
    cfg = config or _DEFAULT_CONFIG
    est = PairEstimator(data)
    n = est.n
    skipped = []
    if est.mixed_records:
        skipped.append(f"records: {est.mixed_records} mix settings and were not used "
                       "(only uniform settings are read)")
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
            confidence_sigmas=conf, skipped=tuple(skipped),
        )

    # Step 2a: intactness upper bound at robustness-optimal alpha per m
    intactness, rows = intactness_scan(pair_full, n, conf)
    evidence += rows

    # Step 2b: depth lower bound over the gamma grid, where bounds exist
    depth: int | None = None
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
    untested = 0
    for size in range(start, 1, -1):
        if size > len(unassigned):
            continue
        results, missing = _scan_size(est, tuple(sorted(unassigned)), size,
                                      cfg.scan_alpha, conf)
        evidence += results
        untested += missing
        hits = sorted(
            (r for r in results if r.violated),
            key=lambda r: (-(r.value - r.bound), r.subset),
        )
        for r in hits:
            if set(r.subset) <= unassigned:
                groups.append(r.subset)
                unassigned -= set(r.subset)
    groups.extend((p,) for p in sorted(unassigned))
    if untested:
        skipped.append(f"subset scan: {untested} subsets without both MZ and MX "
                       "data were not tested")
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
    n, rows = _read_items(
        path, "expectations", "expectation", ("observable", "parties", "value"), ("sigma",),
        lambda n, raw: (raw["observable"], raw["parties"], raw["value"],
                        raw.get("sigma", 0.0)))
    try:
        return ExpectationTable(n, rows)
    except UsageError as exc:
        raise CountsFormatError(f"{path}: {exc}") from exc
