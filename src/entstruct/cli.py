"""Command line surface: reproducible pipelines over the library modules.

Subcommands: simulate (structured noisy states to counts files), bounds
(producibility bound tables), eval (witness values from counts), infer
(structure reports), thresholds (noise robustness), visibility
(detection margins over source visibilities).

Exit codes: 0 success, 2 usage or validation, 3 numeric failure, 4 file
or format trouble.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import secrets
import sys

from . import __version__
from .bounds import SeesawConfig, kprod_curve
from .core import check_closed_form_party_count
from .errors import CountsFormatError, NumericError, UsageError, ValidationError
from .inference import (
    InferenceConfig,
    PairEstimator,
    consistency_check,
    infer_structure,
    load_expectation_table,
    report_to_dict,
)
from .noise import (
    estimate_gammas,
    generalized_ghz_thresholds,
    gme_noise_threshold,
    visibility_margin_curve,
)
from .states import (
    Partition,
    geometry_to_structure,
    ghz,
    ghz_noise_model,
    product_structure,
    visibility_state,
    white_noise_mix,
)
from .tomo import (
    OBSERVABLE_LABELS,
    MeasurementSetting,
    load_counts,
    sample_counts,
    save_counts,
)
from .witnesses import (
    DEFAULT_GAMMA_GRID,
    DepthWitness,
    SeparabilityWitness,
    depth_witness_value,
    kprod_bound_entry,
    msep_bound,
    separability_witness_value,
)

def _parse_structure(text: str) -> Partition:
    """'4+2+2' becomes contiguous groups (1..4)(5,6)(7,8)."""
    try:
        sizes = [int(tok) for tok in text.split("+")]
    except ValueError:
        raise UsageError(f"structure must look like '4+2+2', got {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise UsageError(f"structure sizes must be positive, got {text!r}")
    groups, start = [], 1
    for s in sizes:
        groups.append(tuple(range(start, start + s)))
        start += s
    return Partition(tuple(groups))


def _parse_geometry(text: str) -> Partition:
    t = text.strip().upper()
    if len(t) != 3 or any(c not in "UD" for c in t):
        raise UsageError(
            f"geometry must be three letters from U/D (splitters 1..3), got {text!r}"
        )
    return geometry_to_structure(t[0] == "U", t[1] == "U", t[2] == "U")


def _parse_grid(text: str, kind=float) -> tuple:
    """Grid syntax: 'start:stop:step' or comma-separated values."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be 'start:stop:step' or 'a,b,c', got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"non-numeric grid bounds in {text!r}") from None
        if not (0 < step < math.inf and -math.inf < start <= stop < math.inf):
            raise UsageError(
                f"grid needs finite bounds, step > 0 and stop >= start, got {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(kind(round(start + i * step, 12)) for i in range(count))
    try:
        vals = tuple(kind(float(p)) for p in t.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"non-numeric grid value in {text!r}") from None
    if not vals:
        raise UsageError(f"empty grid {text!r}")
    return vals


def _int_grid(text: str) -> tuple:
    vals = _parse_grid(text, kind=float)
    out = []
    for v in vals:
        if abs(v - round(v)) > 1e-9:
            raise UsageError(f"k grid must contain integers, got {v}")
        out.append(int(round(v)))
    return tuple(out)


def _resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    chosen = secrets.randbits(32)
    print(f"seed: {chosen}", file=sys.stderr)
    return chosen


@contextlib.contextmanager
def _csv_writer(path):
    """A csv.writer on the file at path, or on stdout for None or "-"."""
    if path is None or path == "-":
        yield csv.writer(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield csv.writer(fh)


def _emit_json(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_simulate(args) -> int:
    if args.structure is not None:
        partition = _parse_structure(args.structure)
    else:
        partition = _parse_geometry(args.geometry)
    n = partition.n

    families = []
    if args.noise_p is not None:
        families.append("white")
    if args.gamma_w is not None or args.gamma_d is not None:
        families.append("gamma")
    if args.v1 is not None or args.v2 is not None:
        families.append("visibility")
    if len(families) > 1:
        raise UsageError(
            "pick one noise family: --noise-p, --gamma-w/--gamma-d, or --v1/--v2"
        )
    family = families[0] if families else None

    custom_angles = args.theta is not None or args.phi is not None
    theta = math.pi / 4 if args.theta is None else args.theta
    phi = 0.0 if args.phi is None else args.phi

    if family == "gamma":
        if custom_angles:
            raise UsageError("the gamma noise model is defined at the standard angles")
        gw = args.gamma_w or 0.0
        gd = args.gamma_d or 0.0
        groups = [ghz_noise_model(len(g), gd, gw) for g in partition.groups]
    elif family == "visibility":
        if custom_angles:
            raise UsageError("the visibility model is defined at the standard angles")
        v1 = 1.0 if args.v1 is None else args.v1
        v2 = 1.0 if args.v2 is None else args.v2
        groups = [visibility_state(len(g), v1, v2) for g in partition.groups]
    else:
        groups = [ghz(len(g), theta, phi) for g in partition.groups]
    state = product_structure(partition, groups)
    if family == "white":
        state = white_noise_mix(state, args.noise_p)

    seed = _resolve_seed(args.seed)
    records = []
    # one record per witness input, in table order: Z, X, AMIX, APLUS
    for i, label in enumerate(OBSERVABLE_LABELS.values()):
        setting = MeasurementSetting.uniform(label, n)
        records.append(sample_counts(state, setting, args.shots, seed=[seed, i]))
    save_counts(records, args.out)
    sizes = "+".join(str(len(g)) for g in partition.groups)
    print(f"wrote {args.out}: n={n} structure={sizes} shots={args.shots} seed={seed}")
    return 0


def cmd_bounds(args) -> int:
    ks = _int_grid(args.k_range)
    for k in ks:
        if not 1 <= k <= 7:
            raise UsageError(f"k must lie in 1..7, got {k}")
    gammas = _parse_grid(args.gamma_grid)
    with _csv_writer(args.out) as writer:
        writer.writerow(["k", "gamma", "beta", "source", "converged"])
        if args.recompute:
            cfg = SeesawConfig(restarts=args.restarts, seed=_resolve_seed(args.seed))
            for cell in kprod_curve(gammas, ks=ks, config=cfg):
                writer.writerow(
                    [cell.k, f"{cell.gamma:.10g}", f"{cell.beta:.6f}", "seesaw",
                     str(cell.converged).lower()]
                )
        else:
            for k in ks:
                for gamma in gammas:
                    entry = kprod_bound_entry(k, gamma)
                    writer.writerow(
                        [k, f"{gamma:.10g}", f"{entry.value:.6f}", entry.source, ""]
                    )
    return 0


def cmd_eval(args) -> int:
    est = PairEstimator(load_counts(args.counts))
    n = est.n
    everyone = tuple(range(1, n + 1))

    doc = {"schema": "entstruct/1", "kind": "evaluation", "n": n,
           "expectations": {}, "witnesses": {}}

    def add_expectations(pair, first, second):
        doc["expectations"][first] = {"value": pair.value_z_or_a,
                                      "sigma": pair.sigma_z_or_a}
        doc["expectations"][second] = {"value": pair.value_x_or_aprime,
                                       "sigma": pair.sigma_x_or_aprime}

    pair = est.sep_pair(everyone)
    if pair is not None:
        add_expectations(pair, "MZ", "MX")
        wv = separability_witness_value(pair, args.alpha)
        doc["witnesses"]["separability"] = {
            "alpha": args.alpha, "value": wv.value, "sigma": wv.sigma,
            "sign": wv.sign, "bound_biseparable": msep_bound(args.alpha, 2),
        }
        g = estimate_gammas(pair.value_z_or_a, pair.value_x_or_aprime, n)
        doc["noise_fit"] = {"gamma_w": g.gamma_w, "gamma_d": g.gamma_d,
                            "valid": g.valid}

    pair_d = est.depth_pair()
    if pair_d is not None:
        add_expectations(pair_d, "A", "APRIME")
        wv = depth_witness_value(pair_d, args.gamma, n=n)
        doc["witnesses"]["depth"] = {
            "gamma": args.gamma, "value": wv.value, "sigma": wv.sigma,
        }

    if not doc["expectations"]:
        raise UsageError(
            "counts contain no usable canonical settings (need uniform Z and X, "
            "or uniform AMIX and APLUS)"
        )
    if args.csv is not None:
        with _csv_writer(args.csv) as writer:
            writer.writerow(["subset", "observable", "value", "sigma"])
            for observable, e in doc["expectations"].items():
                writer.writerow(["+".join(map(str, everyone)), observable,
                                 f"{e['value']:.10g}", f"{e['sigma']:.10g}"])
    _emit_json(doc, args.out)
    return 0


def cmd_infer(args) -> int:
    cfg = InferenceConfig(
        confidence_sigmas=args.confidence,
        scan_alpha=args.alpha,
        gamma_grid=_parse_grid(args.gamma_grid),
        max_subset_size=args.max_subset_size,
    )
    if args.counts is not None:
        data = load_counts(args.counts)
    else:
        data = load_expectation_table(args.expectations)
    report = infer_structure(data, cfg)
    findings = consistency_check(report)
    doc = report_to_dict(report)
    doc["consistency_findings"] = findings
    for f in findings:
        print(f"warning: {f}", file=sys.stderr)
    if args.evidence_csv is not None:
        with _csv_writer(args.evidence_csv) as writer:
            writer.writerow(["subset", "witness", "value", "sigma", "bound", "verdict"])
            for ev in report.evidence:
                writer.writerow(
                    ["+".join(map(str, ev.subset)), ev.witness, f"{ev.value:.10g}",
                     f"{ev.sigma:.10g}", f"{ev.bound:.10g}", ev.verdict]
                )
    _emit_json(doc, args.out)
    return 0


def cmd_thresholds(args) -> int:
    n = args.n
    check_closed_form_party_count(n)
    theta = math.pi / 4 if args.theta is None else args.theta
    phi = 0.0 if args.phi is None else args.phi
    custom_angles = args.theta is not None or args.phi is not None
    rows = []
    if args.family == "gme":
        if custom_angles:
            if args.alpha != 2.0:
                raise UsageError("custom angles support alpha=2 only")
            thr = generalized_ghz_thresholds(n, theta, phi)
        else:
            thr = gme_noise_threshold(n, args.alpha)
        rows.append(["gme", n, "", f"{theta:.10g}", f"{phi:.10g}", f"{thr:.6f}"])
    else:
        ms = range(2, n + 1) if args.m is None else [args.m]
        for m in ms:
            thr = generalized_ghz_thresholds(n, theta, phi, m)
            rows.append(
                ["intactness", n, m, f"{theta:.10g}", f"{phi:.10g}", f"{thr:.6f}"]
            )
    with _csv_writer(args.out) as writer:
        writer.writerow(["family", "n", "m", "theta", "phi", "threshold"])
        writer.writerows(rows)
    return 0


def cmd_visibility(args) -> int:
    partition = _parse_structure(args.structure)
    n = partition.n
    if args.family == "sep":
        spec = SeparabilityWitness(n, args.alpha)
    else:
        if args.target is None:
            raise UsageError("the depth family needs --target (the k to test)")
        spec = DepthWitness(n, args.gamma)
    points = visibility_margin_curve(
        partition, spec, _parse_grid(args.v1_grid),
        _parse_grid(args.v2_grid), target=args.target,
    )
    with _csv_writer(args.out) as writer:
        writer.writerow(["v1", "v2", "margin"])
        for p in points:
            writer.writerow([f"{p.v1:.10g}", f"{p.v2:.10g}", f"{p.margin:.10g}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entstruct",
        description="Witness-based certification of entanglement structures.",
    )
    parser.add_argument("--version", action="version", version=f"entstruct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample counts from a structured noisy state")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--structure", help="group sizes, e.g. 4+2+2")
    src.add_argument("--geometry", help="three splitter letters, e.g. UUD")
    p.add_argument("--theta", type=float, default=None,
                   help="GHZ amplitude angle per group (default pi/4)")
    p.add_argument("--phi", type=float, default=None,
                   help="GHZ phase per group (default 0)")
    p.add_argument("--noise-p", type=float, default=None,
                   help="global white-noise fraction")
    p.add_argument("--gamma-w", type=float, default=None,
                   help="per-group white component of the GHZ noise model")
    p.add_argument("--gamma-d", type=float, default=None,
                   help="per-group dephasing component of the GHZ noise model")
    p.add_argument("--v1", type=float, default=None, help="pair-source visibility")
    p.add_argument("--v2", type=float, default=None, help="fusion visibility")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="counts.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="k-producible bound table")
    p.add_argument("--k-range", default="1:7:1", help="k grid, e.g. 1:7:1 or 2,4")
    p.add_argument("--gamma-grid", default="2.0", help="gamma grid, e.g. 0.1:2.0:0.1")
    p.add_argument("--recompute", action="store_true",
                   help="run the see-saw instead of serving stored values")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("eval", help="witness values from a counts file")
    p.add_argument("--counts", required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--csv", help="expectation rows as CSV too ('-': stdout)")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="infer the entanglement structure")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts")
    src.add_argument("--expectations", help="expectation-table JSON instead of counts")
    p.add_argument("--confidence", type=float, default=3.0,
                   help="decision confidence in sigmas")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--gamma-grid", default=",".join(str(g) for g in DEFAULT_GAMMA_GRID))
    p.add_argument("--max-subset-size", type=int, default=None)
    p.add_argument("--evidence-csv", help="evidence rows as CSV too ('-': stdout)")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("thresholds", help="white-noise robustness thresholds")
    p.add_argument("--family", choices=("gme", "intactness"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="separability class (default: all of 2..n)")
    p.add_argument("--alpha", type=float, default=2.0, help="gme family only")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None,
                   help="GHZ phase as the fixed X setting measures it: coherence "
                        "|sin(2 theta) cos(phi)|, so every threshold is 0 at pi/2")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("visibility", help="detection margin over source visibilities")
    p.add_argument("--structure", required=True, help="group sizes, e.g. 4+4")
    p.add_argument("--family", choices=("sep", "depth"), default="sep")
    p.add_argument("--alpha", type=float, default=2.0, help="sep family")
    p.add_argument("--gamma", type=float, default=2.0, help="depth family")
    p.add_argument("--target", type=int, default=None,
                   help="m to test against (sep, default 2) or k (depth, required)")
    p.add_argument("--v1-grid", required=True, help="e.g. 0.8:1.0:0.01")
    p.add_argument("--v2-grid", default="1.0")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_visibility)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CountsFormatError as exc:
        print(f"bad input file: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
