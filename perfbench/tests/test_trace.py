"""Self times, and the traced run's accounting check."""

import itertools

import metrics
from loop import LoopResult, Sample
from spans import NULL_TRACER, Tracer, self_times


def fake_clock(step=1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def test_self_time_subtracts_direct_children():
    tr = Tracer(clock=fake_clock())
    with tr.span("bench.instance"):          # t=0 .. 7
        with tr.span("tomo.sample_counts"):  # t=1 .. 4
            with tr.span("tomo.inner"):      # t=2 .. 3
                pass
        with tr.span("inference.infer_structure"):  # t=5 .. 6
            pass
    own = self_times(tr.spans)
    by_name = {s.name: own[s.id] for s in tr.spans}
    assert by_name == {"bench.instance": 3.0, "tomo.sample_counts": 2.0,
                       "tomo.inner": 1.0, "inference.infer_structure": 1.0}
    assert sum(own.values()) == tr.spans[0].duration
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_null_tracer_records_nothing():
    with NULL_TRACER.span("tomo.sample_counts"):
        pass
    assert not NULL_TRACER.enabled


def traced_loop(untraced_wall, glue):
    """One pair: an untraced run, and a traced one whose root span holds
    `glue` seconds of its own around a 10 s package call."""
    clock_values = iter([0.0, glue, glue + 10.0, glue + 10.0])
    tr = Tracer(clock=lambda: next(clock_values))
    tr.instance = 0
    with tr.span("bench.instance"):
        with tr.span("tomo.sample_counts"):
            pass
    samples = [Sample(0, False, untraced_wall, False, [], [True]),
               Sample(0, True, glue + 10.0, False, [], [True])]
    return LoopResult(samples, 1, untraced_wall + glue + 10.0, tr)


def test_accounting_passes_when_spans_cover_the_instance():
    acc = metrics.accounting(traced_loop(untraced_wall=10.0, glue=0.01))
    assert acc["ok"]
    assert acc["trace.overhead_pct"] > 0


def test_accounting_fails_when_time_escapes_the_spans():
    # 1 s of the instance sits outside any package span
    acc = metrics.accounting(traced_loop(untraced_wall=11.0, glue=1.0))
    assert not acc["ok"]
    assert acc["trace.unaccounted_pct"] > 100 * metrics.GLUE_ALLOWANCE
