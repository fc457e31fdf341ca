"""Regenerate the computed beta_{8,k}(gamma) curve baked into
src/entstruct/kprod_table.py.

Runs the package's own see-saw over the canonical k-producible partitions
for k = 1..7 on a gamma grid of 0.1..2.0 (step 0.1), then rewrites the
module in place.  The certified TABULATED cells are carried over from the
module as it stands.  At the default 200 restarts the 140 cells take
about 2 s on one core.

Usage: python tools/regen_kprod_table.py [--restarts N]
"""

from __future__ import annotations

import argparse
import pathlib
import time

import numpy as np

from entstruct import bounds, kprod_table

DOCSTRING = '''"""Lookup data for the producibility bounds beta_{8,k}(gamma) of the
8-party depth witness.

TABULATED holds the certified reference cells.  COMPUTED_GAMMAS /
COMPUTED_BETA hold a curve produced by this package's own see-saw
optimizer (tools/regen_kprod_table.py); those values are lower estimates
of the true maxima, refined over many restarts, and are flagged as
"computed" wherever they are served.
"""'''


def render(tabulated: dict, gammas, beta: dict) -> str:
    """The text of kprod_table.py holding these certified cells and this
    computed curve (beta[k] has one value per gamma)."""
    lines = [
        DOCSTRING,
        "",
        "from __future__ import annotations",
        "",
        "# (k, gamma) -> bound for the 8-party witness, certified reference values.",
        "TABULATED: dict[tuple[int, float], float] = {",
        *(f"    ({k}, {gamma!r}): {value:.4f}," for (k, gamma), value in tabulated.items()),
        "}",
        "",
        "",
        "# See-saw curve over the canonical k-producible partitions.",
        f"COMPUTED_GAMMAS: tuple[float, ...] = {tuple(gammas)!r}",
        "",
        "COMPUTED_BETA: dict[int, tuple[float, ...]] = {",
        *(f"    {k}: ({', '.join(f'{v:.6f}' for v in vals)})," for k, vals in beta.items()),
        "}",
    ]
    return "\n".join(lines) + "\n"


def table_text(restarts: int) -> str:
    """The text of kprod_table.py with a curve computed at this many
    restarts; warns on stdout about every cell that did not converge."""
    gammas = tuple(float(round(g, 10)) for g in np.arange(0.1, 2.0 + 1e-9, 0.1))
    cfg = bounds.SeesawConfig(restarts=restarts)
    cells = bounds.kprod_curve(gammas, ks=range(1, 8), config=cfg)

    beta: dict[int, list[float]] = {k: [] for k in range(1, 8)}
    for cell in cells:
        if not cell.converged:
            print(f"warning: (k={cell.k}, gamma={cell.gamma}) did not converge")
        beta[cell.k].append(cell.beta)

    # a larger group can always imitate a smaller one, so enforce the
    # k-monotonicity that roundoff in the last digit might disturb
    for gi in range(len(gammas)):
        for k in range(2, 8):
            if beta[k][gi] < beta[k - 1][gi]:
                beta[k][gi] = beta[k - 1][gi]
    return render(kprod_table.TABULATED, gammas, beta)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restarts", type=int, default=200)
    args = parser.parse_args()

    t0 = time.time()
    text = table_text(args.restarts)
    print(f"computed the table in {time.time() - t0:.1f}s")
    out = pathlib.Path(kprod_table.__file__)
    out.write_text(text)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
