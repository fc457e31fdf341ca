#!/usr/bin/env python3
# Survey both witness families over the canonical 8-party structures.
#
# For each structure: the four canonical expectation values, the
# separability witness at the robustness-optimal alpha for each m,
# and the depth witness at gamma = 2.  Shows which class memberships
# each ideal state rules out.

from entstruct import (
    DepthWitness,
    Partition,
    SeparabilityWitness,
    a_terms,
    aprime_terms,
    depth_terms,
    ghz,
    kprod_bound,
    msep_bound,
    mx_terms,
    mz_terms,
    optimal_alpha,
    separability_terms,
    terms_expectation,
)

STRUCTURES = {
    "8": (8,),
    "7+1": (7, 1),
    "6+2": (6, 2),
    "5+3": (5, 3),
    "4+4": (4, 4),
    "4+2+2": (4, 2, 2),
    "2+2+2+2": (2, 2, 2, 2),
}


def build(sizes):
    """The structure's partition and its GHZ block states; the witnesses
    are evaluated block by block, so no 2^n state is formed."""
    groups, start = [], 1
    for s in sizes:
        groups.append(tuple(range(start, start + s)))
        start += s
    part = Partition(tuple(groups))
    return part, [ghz(len(g)) for g in part.groups]


def main():
    n = 8
    depth_spec = DepthWitness(n, 2.0)

    print("ideal expectation values")
    print(f"{'structure':>9}  {'<MZ>':>7}  {'<MX>':>7}  {'<A>':>8}  {'<A,>':>8}")
    states = {}
    for name, sizes in STRUCTURES.items():
        part, blocks = build(sizes)
        states[name] = (part, blocks)
        mz = terms_expectation(mz_terms(n), part, blocks)
        mx = terms_expectation(mx_terms(n), part, blocks)
        a = terms_expectation(a_terms(depth_spec), part, blocks)
        ap = terms_expectation(aprime_terms(depth_spec), part, blocks)
        print(f"{name:>9}  {mz:7.4f}  {mx:7.4f}  {a:8.4f}  {ap:8.4f}")

    print()
    print("separability family: witness minus bound at optimal alpha(m)")
    header = "  ".join(f"m={m:<2}" for m in range(2, 6))
    print(f"{'structure':>9}  {header}   (positive = m-separability excluded)")
    for name, (part, blocks) in states.items():
        margins = []
        for m in range(2, 6):
            alpha = optimal_alpha(m)
            w = separability_terms(SeparabilityWitness(n, alpha))
            margin = terms_expectation(w, part, blocks) - msep_bound(alpha, m)
            margins.append(f"{margin:+5.2f}")
        print(f"{name:>9}  " + "  ".join(margins))

    print()
    print("depth family at gamma=2: witness minus k-producible bound")
    header = "  ".join(f"k={k:<2}" for k in range(1, 8))
    print(f"{'structure':>9}  {header}   (positive = depth > k)")
    for name, (part, blocks) in states.items():
        w = terms_expectation(depth_terms(depth_spec), part, blocks)
        margins = [f"{w - kprod_bound(k, 2.0):+5.2f}" for k in range(1, 8)]
        print(f"{name:>9}  " + "  ".join(margins))


if __name__ == "__main__":
    main()
