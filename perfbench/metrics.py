"""End-to-end metrics from the untraced loop, per-layer metrics from spans.

Per-layer times are self times (a span minus its children) summed per
instance and averaged over the traced instances that made such a call,
in ms.  Call counts are per instance too; `tomo.outcomes` is per record,
`inference.tests` per report and the `bounds.*` metrics per cell.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

import numpy as np

from spans import self_times

# Share of an instance the benchmark's own code between spans may take
# before the traced accounting check fails.
GLUE_ALLOWANCE = 0.01
# Dense density matrix of 8 qubits: 4^8 complex128 entries.
STATE_BYTES_N8 = 16 * 4**8


def end_to_end(loop, setup_s: float) -> dict[str, float]:
    """Throughput is the instances that returned over the run's time on the
    clock.  On a shared 2-vCPU host it spread less from run to run than the
    median of per-pass rates (infer_n8: 7% and 11% against 11% and 13% IQR
    over two sets of 6 runs; pipeline_n8: 18% against 23% over 5)."""
    done = [s.wall for s in loop.samples if not s.raised]
    units = [u for s in loop.samples for u in s.recovered]
    p50, p90 = np.percentile(done, [50, 90]) * 1e3 if done else (float("nan"),) * 2
    return {
        "throughput_per_s": len(done) / loop.busy,
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "recovery_rate": sum(units) / len(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


class Pool:
    """Traced instances that completed, with per-instance span totals.

    Calls are keyed by span name, and by ``name@table`` when the call ran
    on the expectation-table half of an infer_n8 instance."""

    def __init__(self, loop) -> None:
        self.samples = [s for s in loop.samples if s.traced and not s.problems]
        spans = loop.tracer.spans
        own = self_times(spans)
        # instance -> call key -> [self seconds, calls]
        self.calls = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for sp in spans:
            on_table = sp.parent is not None and spans[sp.parent].name == "bench.table"
            acc = self.calls[sp.instance][sp.name + ("@table" if on_table else "")]
            acc[0] += own[sp.id]
            acc[1] += 1

    def per_instance(self, match):
        """(mean self ms, mean calls) over instances with a matching call."""
        rows = []
        for s in self.samples:
            hits = [v for name, v in self.calls[s.instance].items() if match(name)]
            if hits:
                rows.append((sum(t for t, _ in hits), sum(c for _, c in hits)))
        if not rows:
            return None
        return (1e3 * statistics.fmean(t for t, _ in rows),
                statistics.fmean(c for _, c in rows))

    def facts(self, key) -> list:
        return [s.facts[key] for s in self.samples if key in s.facts]


def _first(pair):
    return None if pair is None else pair[0]


def _second(pair):
    return None if pair is None else pair[1]


def _named(*names):
    """Calls of these functions, on either half of an infer_n8 instance."""
    return lambda key: key.split("@")[0] in names


def _exact(key):
    return lambda k: k == key


def _layer(prefix):
    return lambda name: name.startswith(prefix + ".")


def _mean_flat(lists):
    flat = [x for xs in lists for x in xs]
    return statistics.fmean(flat) if flat else None


def _ratio(num, den):
    return sum(num) / sum(den) if sum(den) else None


def _estimators(name: str) -> bool:
    return name in ("tomo.estimate_mz", "tomo.estimate_product_expectation")


def _cell_calls(name: str) -> bool:
    return name.startswith(("bounds.", "witnesses."))


def _per_cell(pool):
    """Self time of one cell's calls: partition, witness, terms, see-saw."""
    cells = pool.facts("cells")
    t = pool.per_instance(_cell_calls)
    if not cells or t is None:
        return None
    return t[0] / statistics.fmean(cells)


LAYER_METRICS = {
    "states.build_ms": lambda p: _first(p.per_instance(_layer("states"))),
    "states.calls": lambda p: _second(p.per_instance(_layer("states"))),
    "tomo.sample_ms": lambda p: _first(p.per_instance(_named("tomo.sample_counts"))),
    "tomo.sample_calls": lambda p: _second(p.per_instance(_named("tomo.sample_counts"))),
    "tomo.state_bytes": lambda p: (
        STATE_BYTES_N8 if p.per_instance(_named("tomo.sample_counts")) else None),
    "tomo.save_ms": lambda p: _first(p.per_instance(_named("tomo.save_counts"))),
    "tomo.load_ms": lambda p: _first(p.per_instance(_named("tomo.load_counts"))),
    "tomo.counts_bytes": lambda p: (
        statistics.fmean(p.facts("counts_bytes")) if p.facts("counts_bytes") else None),
    "tomo.outcomes": lambda p: _mean_flat(p.facts("outcomes")),
    "tomo.estimate_ms": lambda p: _first(p.per_instance(_estimators)),
    "tomo.estimate_calls": lambda p: _second(p.per_instance(_estimators)),
    "inference.infer_ms.counts": lambda p: _first(
        p.per_instance(_exact("inference.infer_structure"))),
    "inference.infer_ms.table": lambda p: _first(
        p.per_instance(_exact("inference.infer_structure@table"))),
    "inference.check_ms": lambda p: _first(p.per_instance(_named("inference.consistency_check"))),
    "inference.tests": lambda p: _mean_flat(p.facts("tests")),
    "inference.accept_ratio": lambda p: _ratio(sum(p.facts("accepted"), []),
                                               sum(p.facts("tests"), [])),
    "bounds.cell_ms": _per_cell,
    "bounds.iterations": lambda p: _mean_flat(p.facts("iterations")),
    "bounds.converged_ratio": lambda p: _ratio(p.facts("converged"), p.facts("cells")),
    "bounds.abs_err_max": lambda p: max(p.facts("abs_err")) if p.facts("abs_err") else None,
}


def accounting(loop) -> dict[str, float]:
    """Tracing overhead from the untraced/traced pairs, and how much of the
    untraced instance time the layer spans fail to account for.

    U is the untraced wall time of the pairs, T the traced instance spans,
    S the self time of the package calls inside them.  The check asks that
    S account for U to within the measured overhead |T - U| plus
    GLUE_ALLOWANCE of U for the benchmark's own code between calls."""
    spans = loop.tracer.spans
    own = self_times(spans)
    root = {sp.instance: sp for sp in spans if sp.name == "bench.instance"}
    inside = defaultdict(float)
    for sp in spans:
        r = root.get(sp.instance)
        if r is not None and not sp.name.startswith("bench.") and r.start <= sp.start <= r.end:
            inside[sp.instance] += own[sp.id]
    untraced = {s.instance: s.wall for s in loop.samples if not s.traced and not s.raised}
    traced_ok = {s.instance for s in loop.samples if s.traced and not s.raised}
    pairs = sorted(set(untraced) & traced_ok)
    u = sum(untraced[i] for i in pairs)
    t = sum(root[i].duration for i in pairs)
    s = sum(inside[i] for i in pairs)
    return {
        "pairs": len(pairs),
        "trace.instance_ms": 1e3 * t / len(pairs),
        "trace.overhead_pct": 100.0 * (t - u) / u,
        "trace.unaccounted_pct": 100.0 * (u - s) / u,
        "ok": abs(u - s) <= abs(t - u) + GLUE_ALLOWANCE * u,
    }


def per_layer(main_loop, coverage_loops) -> tuple[dict[str, float], dict[str, str], dict]:
    """Every layer metric, from the measured workload where it calls the
    layer, else from the first coverage pass that does.  Also returns where
    each value came from, and the accounting of the measured pairs."""
    pools = [("measured", Pool(main_loop))] + [(name, Pool(loop)) for name, loop in coverage_loops]
    values, source = {}, {}
    for metric, fn in LAYER_METRICS.items():
        for name, pool in pools:
            v = fn(pool)
            if v is not None:
                values[metric], source[metric] = float(v), name
                break
    acc = accounting(main_loop)
    for key in ("trace.instance_ms", "trace.overhead_pct", "trace.unaccounted_pct"):
        values[key], source[key] = acc[key], "measured"
    return values, source, acc
