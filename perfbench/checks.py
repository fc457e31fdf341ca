"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

CELL_TOL = 1e-3
# Share of instances whose report may claim more than its prepared state
# holds.  Every claim is a one-sided test at the package's confidence
# (3 sigma by default), and a union of whole noiseless GHZ blocks sits
# exactly on its bound, so about 1 test in 740 there accepts by chance.
# The package's own end-to-end acceptance test (criterion 7: ideal
# states, 1e5 shots) allows 1 miss in 20 per geometry; so does the run.
FALSE_ACCEPT_SHARE = 1 / 20


def report_problems(report, prepared) -> list[str]:
    """A report must propose a partition of exactly the prepared parties."""
    proposed = [tuple(g) for g in report.proposed_partition]
    if sorted(p for g in proposed for p in g) != sorted(p for g in prepared for p in g):
        return [f"proposed partition {proposed} does not cover the parties"]
    return []


def unsound_claims(report, prepared) -> list[str]:
    """A structure report is sound for the prepared partition when no
    proposed group spans two prepared groups, the certified depth does not
    exceed the largest prepared group, and the certified intactness is not
    below the number of prepared groups.  Returns the claims that are not."""
    claims = []
    blocks = [set(g) for g in prepared]
    for g in report.proposed_partition:
        if not any(set(g) <= b for b in blocks):
            claims.append(f"proposed group {tuple(g)} spans prepared groups {prepared}")
    largest = max(len(g) for g in prepared)
    if report.depth_lower is not None and report.depth_lower > largest:
        claims.append(f"depth_lower {report.depth_lower} exceeds largest prepared group {largest}")
    if report.intactness_upper is not None and report.intactness_upper < len(prepared):
        claims.append(
            f"intactness_upper {report.intactness_upper} is below {len(prepared)} prepared groups")
    return claims


def false_accepts_tolerated(unsound: int, attempted: int) -> bool:
    """Whether a run's instances with unsound reports stay within the
    chance rate the package's confidence level allows."""
    return unsound <= FALSE_ACCEPT_SHARE * attempted


def cell_problems(k: int, gamma: float, beta: float, reference: float) -> list[str]:
    """A recomputed bound cell must lie within CELL_TOL of its certified value."""
    if abs(beta - reference) <= CELL_TOL:
        return []
    return [f"cell k={k} gamma={gamma:g}: {beta:.6f} is {beta - reference:+.2e} "
            f"from the certified {reference}"]
