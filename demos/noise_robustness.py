#!/usr/bin/env python3
# Noise robustness of the detection schemes.
#
# Part 1: white-noise thresholds per family and party count, checked by
# evaluation just inside and outside each boundary.
# Part 2: the visibility model for fused photon pairs; shows how far the
# pair and fusion visibilities can drop before an 8-party GHZ block stops
# violating the biseparable bound.

import numpy as np

from entstruct import (
    ExpectationPair,
    Partition,
    SeparabilityWitness,
    ghz,
    gme_noise_threshold,
    intactness_noise_threshold,
    msep_bound,
    mx_terms,
    mz_terms,
    optimal_alpha,
    separability_witness_value,
    terms_expectation,
    visibility_margin_curve,
    white_noise_mix,
)


def witness_value(n, p, alpha):
    # the noisy state is one n-party group
    whole = Partition((tuple(range(1, n + 1)),))
    state = [white_noise_mix(ghz(n), p)]
    pair = ExpectationPair(terms_expectation(mz_terms(n), whole, state),
                           terms_expectation(mx_terms(n), whole, state))
    return separability_witness_value(pair, alpha).value


def main():
    print("white-noise thresholds (largest p still violating)")
    print(f"{'n':>2}  {'gme':>8}  " + "  ".join(f"m={m:<6}" for m in (3, 4, 5)))
    for n in range(3, 9):
        cells = [f"{gme_noise_threshold(n):8.4f}"]
        for m in (3, 4, 5):
            cells.append(f"{intactness_noise_threshold(n, m):8.4f}" if m <= n
                         else " " * 8)
        print(f"{n:>2}  " + "  ".join(cells))

    # spot check the sharpness of one boundary
    n, m = 8, 3
    thr = intactness_noise_threshold(n, m)
    alpha = optimal_alpha(m)
    below = witness_value(n, thr - 1e-6, alpha) > msep_bound(alpha, m)
    above = witness_value(n, thr + 1e-6, alpha) > msep_bound(alpha, m)
    print(f"\nn={n}, m={m}: threshold {thr:.6f}; "
          f"violates below: {below}, violates above: {above}")

    print("\nvisibility margins for a single 8-party block (alpha = 2)")
    part = Partition((tuple(range(1, 9)),))
    spec = SeparabilityWitness(8, 2.0)
    grid = np.round(np.arange(0.90, 1.0001, 0.01), 2)
    print(f"{'v1':>5}  {'v2=1.00':>9}  {'v2=0.95':>9}  {'v2=0.90':>9}")
    for v1 in grid:
        row = [f"{v1:5.2f}"]
        for v2 in (1.0, 0.95, 0.90):
            pt = visibility_margin_curve(part, spec, [v1], [v2])[0]
            row.append(f"{pt.margin:+9.4f}")
        print("  ".join(row))
    print("\npositive margin = genuine 8-party entanglement still certified")


if __name__ == "__main__":
    main()
