"""Closed-form inputs for the infer_n8 workload.

The outcome distribution of a product of GHZ blocks under a uniform
product measurement factorises over the blocks:

* Z on a block of s parties gives 1/2 on all-0 and 1/2 on all-1;
* an xy-plane setting at angle theta gives 2^-s (1 + (-1)^|b| cos(s theta))
  for the block's outcome bits b (X is theta = 0).

Global white noise mixes the product with the uniform distribution.  The
module draws counts from that distribution with numpy's multinomial and
reduces them to an expectation table with its own parity means, so the
workload's inputs never pass through the package's sampler or estimators.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

N = 8
SHOTS = 100_000
SETTINGS = ("Z", "X", "AMIX", "APLUS")
# Measurement angles of the depth-witness settings, fixed by the method:
# theta_+ = 27/80 and the mid angle (theta_+ + theta_-)/2 = 3/80.
ANGLES = {"X": 0.0, "AMIX": 3.0 / 80.0, "APLUS": 27.0 / 80.0}

_INDEX = np.arange(2**N)
# BITS[i, p-1] is party p's outcome bit in outcome i; party 1 is the
# most significant bit, as in the counts format.
BITS = (_INDEX[:, None] >> (N - 1 - np.arange(N))) & 1
OUTCOMES = tuple(format(i, f"0{N}b") for i in range(2**N))


def _equal_mask(parties) -> np.ndarray:
    b = BITS[:, [p - 1 for p in parties]]
    return b.all(axis=1) | ~b.any(axis=1)


def _signs(parties) -> np.ndarray:
    return 1 - 2 * (BITS[:, [p - 1 for p in parties]].sum(axis=1) % 2)


SUBSETS = tuple(s for size in range(2, N + 1) for s in combinations(range(1, N + 1), size))
EVERYONE = tuple(range(1, N + 1))
_EQUAL = np.array([_equal_mask(s) for s in SUBSETS], dtype=float)
_SIGNS = np.array([_signs(s) for s in SUBSETS], dtype=float)


def born(groups, label: str, noise: float = 0.0) -> np.ndarray:
    """Outcome probabilities of a product of GHZ blocks, indexed like OUTCOMES."""
    prob = np.ones(2**N)
    for g in groups:
        if label == "Z":
            prob *= np.where(_equal_mask(g), 0.5, 0.0)
        else:
            s = len(g)
            prob *= 2.0**-s * (1.0 + _signs(g) * np.cos(s * ANGLES[label]))
    return (1.0 - noise) * prob + noise / 2**N


def draw_counts(rng: np.random.Generator, groups, noise: float) -> dict[str, np.ndarray]:
    """One multinomial draw of SHOTS per canonical setting."""
    return {lab: rng.multinomial(SHOTS, born(groups, lab, noise)) for lab in SETTINGS}


def counts_doc(draws: dict[str, np.ndarray]) -> dict:
    """The counts-file document for the draws (zero counts omitted)."""
    return {
        "n": N,
        "records": [
            {"setting": [lab] * N,
             "counts": {OUTCOMES[i]: int(c) for i, c in enumerate(d) if c}}
            for lab, d in draws.items()
        ],
    }


def _entry(observable: str, parties, value: float, bernoulli: bool) -> dict:
    var = value * (1.0 - value) if bernoulli else 1.0 - value**2
    return {"observable": observable, "parties": list(parties), "value": value,
            "sigma": float(np.sqrt(max(0.0, var) / SHOTS))}


def table_doc(draws: dict[str, np.ndarray]) -> dict:
    """Expectation-table document: MZ and MX on every subset of two or
    more parties, plus the full-system A (from AMIX) and APRIME (from APLUS)."""
    mz = _EQUAL @ draws["Z"] / SHOTS
    mx = _SIGNS @ draws["X"] / SHOTS
    entries = []
    for subset, z, x in zip(SUBSETS, mz.tolist(), mx.tolist()):
        entries.append(_entry("MZ", subset, z, True))
        entries.append(_entry("MX", subset, x, False))
    everyone = _signs(EVERYONE)
    entries.append(_entry("A", EVERYONE, float(everyone @ draws["AMIX"]) / SHOTS, False))
    entries.append(_entry("APRIME", EVERYONE, float(everyone @ draws["APLUS"]) / SHOTS, False))
    return {"n": N, "expectations": entries}
