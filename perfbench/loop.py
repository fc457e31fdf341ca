"""The closed loop: one instance in flight, whole passes, failures counted."""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

from spans import NULL_TRACER, Tracer


@dataclass
class Sample:
    """One executed instance."""

    instance: int
    traced: bool
    wall: float
    raised: bool
    problems: list[str]
    recovered: list[bool]
    facts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def unsound(self) -> bool:
        """The report claims more structure than the prepared state has."""
        return bool(self.facts.get("unsound"))


def execute(workload, spec, inp, tr, instance: int) -> Sample:
    """Run one instance on its prepared input, on the clock, then check it.

    An exception from the package or from a check fails the instance and
    the loop goes on."""
    tr.instance = instance
    t0 = time.perf_counter()
    try:
        with tr.span("bench.instance"):
            out = workload.run(inp, tr)
    except Exception as exc:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Sample(instance, tr.enabled, wall, True,
                      [f"raised {type(exc).__name__}: {exc}"], [False] * workload.units)
    wall = time.perf_counter() - t0
    try:
        problems, recovered, facts = workload.check(spec, inp, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems, recovered, facts = ([f"check raised {type(exc).__name__}: {exc}"],
                                      [False] * workload.units, {})
    if tr.enabled and not problems:
        with tr.span("bench.replay"):
            workload.replay(out, tr)
    for p in problems:
        print(f"FAILED instance {instance} {spec}: {p}", file=sys.stderr)
    for c in facts.get("unsound", []):
        print(f"FALSE ACCEPT instance {instance} {spec}: {c}", file=sys.stderr)
    return Sample(instance, tr.enabled, wall, False, problems, recovered, facts)


@dataclass
class LoopResult:
    samples: list[Sample]
    passes: int
    busy: float
    tracer: Tracer | None


def closed_loop(workload, seed: int, seconds: float, traced: bool = False) -> LoopResult:
    """Run whole passes until the instances have been on the clock for
    ``seconds``.  Traced, every instance runs twice, untraced and traced,
    alternating which goes first, so the pair gives the tracing overhead."""
    tracer = Tracer() if traced else None
    samples: list[Sample] = []
    busy, pass_no, k = 0.0, 0, 0
    while busy < seconds:
        pass_no += 1
        for spec in workload.plan(seed, pass_no):
            inp = workload.prepare(spec)
            order = (NULL_TRACER,)
            if traced:
                order = (NULL_TRACER, tracer) if k % 2 == 0 else (tracer, NULL_TRACER)
            for tr in order:
                samples.append(execute(workload, spec, inp, tr, k))
            k += 1
        busy = sum(s.wall for s in samples)
    return LoopResult(samples, pass_no, busy, tracer)


def coverage_pass(workload, seed: int) -> LoopResult:
    """One traced pass (pass 0), for layers the measured workload never calls."""
    tracer = Tracer()
    samples = [execute(workload, spec, workload.prepare(spec), tracer, i)
               for i, spec in enumerate(workload.plan(seed, 0))]
    return LoopResult(samples, 1, sum(s.wall for s in samples), tracer)
