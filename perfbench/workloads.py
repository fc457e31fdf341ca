"""The three workloads: inputs from the seed, one instance, its checks.

Each workload offers:

* ``plan(seed, pass_no)`` - the instance specs of one pass, in run order;
* ``prepare(spec)`` - untimed input generation (files the user would have);
* ``run(inp, tr)`` - one timed instance, a span around every package call;
* ``check(spec, inp, out)`` - (problems, recovered units, facts for metrics);
* ``replay(out, tr)`` - extra traced work after an instance, traced runs only;
* ``warmup(seed)`` - the set-up unit run once before measuring.

Measurement passes count from 1; pass 0 feeds warm-up and coverage.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import born
from checks import cell_problems, report_problems, unsound_claims
from spans import NULL_TRACER
from entstruct.bounds import (
    SeesawConfig,
    canonical_partition,
    depth_terms,
    kprod_curve,
    seesaw_max,
)
from entstruct.inference import (
    consistency_check,
    infer_structure,
    load_expectation_table,
    report_to_dict,
)
from entstruct.kprod_table import TABULATED
from entstruct.states import geometry_to_structure, ghz, product_structure
from entstruct.tomo import (
    MeasurementSetting,
    estimate_mz,
    estimate_product_expectation,
    load_counts,
    sample_counts,
    save_counts,
)
from entstruct.witnesses import DepthWitness

# Splitter settings (pbs1, pbs2, pbs3) of the 8-photon source and the
# structure each prepares; the checks compare against this table, not
# against the package's own geometry mapping.
PREPARED = {
    "UUU": ((1, 2, 3, 4, 5, 6, 7, 8),),
    "UUD": ((1, 2, 3, 4, 7, 8), (5, 6)),
    "UDU": ((1, 2, 5, 6, 7, 8), (3, 4)),
    "UDD": ((1, 2, 7, 8), (3, 4), (5, 6)),
    "DUU": ((1, 2, 3, 4), (5, 6, 7, 8)),
    "DUD": ((1, 2, 3, 4), (5, 6), (7, 8)),
    "DDU": ((1, 2), (3, 4), (5, 6, 7, 8)),
    "DDD": ((1, 2), (3, 4), (5, 6), (7, 8)),
}
GEOMETRIES = tuple(PREPARED)
NOISE = (0.02, 0.05, 0.08)
# The certified (k, gamma) cells, grouped as kprod_curve takes them.
CELL_CALLS = ((2.0, (1, 2, 3, 4, 5, 6, 7)), (1.6, (2, 3)))
CELLS = tuple((k, g) for g, ks in CELL_CALLS for k in ks)
RESTARTS = 200


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(x) for x in key])


def _partition_facts(reports, prepared) -> tuple[list[str], list[bool], dict]:
    """Problems fail the instance; unsound claims (in the facts) are chance
    false accepts, which the run tolerates up to checks.FALSE_ACCEPT_SHARE."""
    problems = [p for r in reports for p in report_problems(r, prepared)]
    facts = {
        "tests": [len(r.evidence) for r in reports],
        "accepted": [sum(len(g) > 1 for g in r.proposed_partition) for r in reports],
        "unsound": [c for r in reports for c in unsound_claims(r, prepared)],
    }
    return problems, [tuple(r.proposed_partition) == prepared for r in reports], facts


def _replay_estimators(report, records, tr) -> None:
    """Re-run the estimators on every subset the report holds evidence for."""
    by_label = {rec.setting.labels[0]: rec for rec in records}
    done = set()
    for ev in report.evidence:
        family = "depth" if ev.witness.startswith("depth") else "sep"
        if (family, ev.subset) in done:
            continue
        done.add((family, ev.subset))
        if family == "sep":
            with tr.span("tomo.estimate_mz"):
                estimate_mz(by_label["Z"], ev.subset)
            with tr.span("tomo.estimate_product_expectation"):
                estimate_product_expectation(by_label["X"], ev.subset)
        else:
            for label in ("AMIX", "APLUS"):
                with tr.span("tomo.estimate_product_expectation"):
                    estimate_product_expectation(by_label[label], ev.subset)


def _finish(report, tr):
    with tr.span("inference.consistency_check"):
        consistency_check(report)
    with tr.span("inference.report_to_dict"):
        return report_to_dict(report)


@dataclass(frozen=True)
class PipelineSpec:
    geometry: str
    seed: tuple[int, ...]


class PipelineN8:
    """simulate -> infer, as cmd_simulate followed by cmd_infer."""

    name = "pipeline_n8"
    units = 1

    def __init__(self, tmpdir: Path) -> None:
        self.path = tmpdir / "pipeline_counts.json"

    def plan(self, seed: int, pass_no: int) -> list[PipelineSpec]:
        order = _rng(seed, pass_no).permutation(len(GEOMETRIES))
        return [PipelineSpec(GEOMETRIES[i], (seed, pass_no, int(i))) for i in order]

    def prepare(self, spec: PipelineSpec) -> PipelineSpec:
        return spec

    def run(self, spec: PipelineSpec, tr):
        flags = tuple(c == "U" for c in spec.geometry)
        with tr.span("states.geometry_to_structure"):
            partition = geometry_to_structure(*flags)
        blocks = []
        for g in partition.groups:
            with tr.span("states.ghz"):
                blocks.append(ghz(len(g)))
        with tr.span("states.product_structure"):
            state = product_structure(partition, blocks)
        records = []
        for i, label in enumerate(born.SETTINGS):
            with tr.span("tomo.MeasurementSetting.uniform"):
                setting = MeasurementSetting.uniform(label, born.N)
            with tr.span("tomo.sample_counts"):
                records.append(sample_counts(state, setting, born.SHOTS, seed=[*spec.seed, i]))
        with tr.span("tomo.save_counts"):
            save_counts(records, self.path)
        with tr.span("tomo.load_counts"):
            records = load_counts(self.path)
        with tr.span("inference.infer_structure"):
            report = infer_structure(records)
        doc = _finish(report, tr)
        return partition, records, report, doc

    def check(self, spec, inp, out):
        partition, records, report, doc = out
        prepared = PREPARED[spec.geometry]
        problems, recovered, facts = _partition_facts([report], prepared)
        if partition.groups != prepared:
            problems.append(f"{spec.geometry} mapped to {partition.groups}, not {prepared}")
        json.dumps(doc)
        facts.update(outcomes=[len(r.counts) for r in records],
                     counts_bytes=os.path.getsize(self.path))
        return problems, recovered, facts

    def replay(self, out, tr) -> None:
        _, records, report, _ = out
        _replay_estimators(report, records, tr)

    def warmup(self, seed: int) -> None:
        self.run(self.plan(seed, 0)[0], NULL_TRACER)


@dataclass(frozen=True)
class InferSpec:
    geometry: str
    noise: float
    seed: tuple[int, ...]


class InferN8:
    """infer on data the user already has: one draw of counts, read once as
    a counts file and once as the expectation table built from it.

    Both backends run in one instance.  A mix of counts-only and table-only
    instances puts the latency median on the boundary between the two
    groups, where run-to-run noise moves it by a fifth."""

    name = "infer_n8"
    units = 2

    def __init__(self, tmpdir: Path) -> None:
        self.counts_path = tmpdir / "infer_counts.json"
        self.table_path = tmpdir / "infer_table.json"

    def plan(self, seed: int, pass_no: int) -> list[InferSpec]:
        specs = [InferSpec(geo, noise, (seed, pass_no, i))
                 for i, (geo, noise) in enumerate((g, p) for g in GEOMETRIES for p in NOISE)]
        order = _rng(seed, pass_no).permutation(len(specs))
        return [specs[i] for i in order]

    def prepare(self, spec: InferSpec) -> InferSpec:
        draws = born.draw_counts(_rng(*spec.seed), PREPARED[spec.geometry], spec.noise)
        for path, doc in ((self.counts_path, born.counts_doc(draws)),
                          (self.table_path, born.table_doc(draws))):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
        return spec

    def run(self, spec: InferSpec, tr):
        with tr.span("bench.counts"):
            with tr.span("tomo.load_counts"):
                records = load_counts(self.counts_path)
            with tr.span("inference.infer_structure"):
                from_counts = infer_structure(records)
            doc_counts = _finish(from_counts, tr)
        with tr.span("bench.table"):
            with tr.span("inference.load_expectation_table"):
                table = load_expectation_table(self.table_path)
            with tr.span("inference.infer_structure"):
                from_table = infer_structure(table)
            doc_table = _finish(from_table, tr)
        return records, (from_counts, from_table), (doc_counts, doc_table)

    def check(self, spec, inp, out):
        records, reports, docs = out
        problems, recovered, facts = _partition_facts(reports, PREPARED[spec.geometry])
        json.dumps(docs)
        facts.update(outcomes=[len(r.counts) for r in records],
                     counts_bytes=os.path.getsize(self.counts_path))
        return problems, recovered, facts

    def replay(self, out, tr) -> None:
        records, (from_counts, _), _ = out
        _replay_estimators(from_counts, records, tr)

    def warmup(self, seed: int) -> None:
        self.run(self.prepare(self.plan(seed, 0)[0]), NULL_TRACER)


@dataclass(frozen=True)
class BoundsSpec:
    seesaw_seed: int


class BoundsCertified:
    """The certified beta_k(gamma) table, as `entstruct bounds --recompute`."""

    name = "bounds_certified"
    units = len(CELLS)

    def __init__(self, tmpdir: Path) -> None:
        pass

    def plan(self, seed: int, pass_no: int) -> list[BoundsSpec]:
        state = np.random.SeedSequence([seed, pass_no]).generate_state(1)[0]
        return [BoundsSpec(int(state))]

    def prepare(self, spec: BoundsSpec) -> BoundsSpec:
        return spec

    def run(self, spec: BoundsSpec, tr):
        """Untraced, the instance is kprod_curve itself.  Traced, it is the
        same work split the way kprod_curve does it, so each cell's see-saw
        gets its own span; cells are (k, gamma, beta, converged, iterations)."""
        with tr.span("bounds.SeesawConfig"):
            cfg = SeesawConfig(restarts=RESTARTS, seed=spec.seesaw_seed)
        if not tr.enabled:
            return [(c.k, c.gamma, c.beta, c.converged, None)
                    for gamma, ks in CELL_CALLS
                    for c in kprod_curve([gamma], ks=ks, config=cfg)]
        return [self._cell(k, gamma, cfg, tr) for k, gamma in CELLS]

    @staticmethod
    def _cell(k: int, gamma: float, cfg: SeesawConfig, tr):
        with tr.span("bounds.canonical_partition"):
            partition = canonical_partition(born.N, k)
        with tr.span("witnesses.DepthWitness"):
            witness = DepthWitness(born.N, gamma)
        with tr.span("bounds.depth_terms"):
            terms = depth_terms(witness)
        with tr.span("bounds.seesaw_max"):
            res = seesaw_max(terms, partition, cfg)
        return k, gamma, res.value, res.converged, res.iterations

    def check(self, spec, inp, cells):
        problems, recovered = [], []
        for k, gamma, beta, _, _ in cells:
            bad = cell_problems(k, gamma, beta, TABULATED[(k, gamma)])
            problems += bad
            recovered.append(not bad)
        if [(k, g) for k, g, *_ in cells] != list(CELLS):
            problems.append(f"cells {[(k, g) for k, g, *_ in cells]} are not {list(CELLS)}")
        facts = {
            "cells": len(cells),
            "converged": sum(bool(c[3]) for c in cells),
            "iterations": [c[4] for c in cells if c[4] is not None],
            "abs_err": max((abs(b - TABULATED[(k, g)]) for k, g, b, *_ in cells), default=0.0),
        }
        return problems, recovered, facts

    def replay(self, out, tr) -> None:
        pass

    def warmup(self, seed: int) -> None:
        """One cheap certified cell at the full restart count."""
        cfg = SeesawConfig(restarts=RESTARTS, seed=self.plan(seed, 0)[0].seesaw_seed)
        kprod_curve([2.0], ks=[4], config=cfg)


WORKLOADS = {w.name: w for w in (PipelineN8, InferN8, BoundsCertified)}
