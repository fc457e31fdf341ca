"""The output checks reject what they must and count exceptions."""

from types import SimpleNamespace

import checks
import loop
from spans import NULL_TRACER
from workloads import PREPARED

PREPARED_DUD = PREPARED["DUD"]  # (1,2,3,4) (5,6) (7,8)


def report(partition, depth=None, intactness=None):
    return SimpleNamespace(proposed_partition=partition, depth_lower=depth,
                           intactness_upper=intactness)


def test_recovered_report_passes():
    r = report(PREPARED_DUD, 4, 3)
    assert checks.report_problems(r, PREPARED_DUD) == []
    assert checks.unsound_claims(r, PREPARED_DUD) == []


def test_finer_report_passes():
    finer = report(((1, 2, 3, 4), (5,), (6,), (7, 8)), 2, None)
    assert checks.report_problems(finer, PREPARED_DUD) == []
    assert checks.unsound_claims(finer, PREPARED_DUD) == []


def test_merged_cross_group_block_is_rejected():
    merged = ((1, 2, 3, 4), (5, 6, 7, 8))
    claims = checks.unsound_claims(report(merged), PREPARED_DUD)
    assert len(claims) == 1 and "spans prepared groups" in claims[0]


def test_depth_and_intactness_beyond_the_preparation_are_rejected():
    assert checks.unsound_claims(report(PREPARED_DUD, depth=5), PREPARED_DUD)
    assert checks.unsound_claims(report(PREPARED_DUD, intactness=2), PREPARED_DUD)


def test_partition_that_loses_a_party_is_rejected():
    assert checks.report_problems(report(((1, 2, 3, 4), (5, 6), (7,))), PREPARED_DUD)


def test_false_accepts_beyond_the_chance_rate_fail_the_run():
    assert checks.false_accepts_tolerated(0, 1)
    assert checks.false_accepts_tolerated(1, 88)
    assert checks.false_accepts_tolerated(4, 88)
    assert not checks.false_accepts_tolerated(5, 88)
    assert not checks.false_accepts_tolerated(88, 88)


def test_bound_cell_2e_3_off_is_rejected():
    assert checks.cell_problems(7, 2.0, 2.0578 + 2e-4, 2.0578) == []
    assert checks.cell_problems(7, 2.0, 2.0578 + 2e-3, 2.0578)
    assert checks.cell_problems(7, 2.0, 2.0578 - 2e-3, 2.0578)
    assert checks.cell_problems(7, 2.0, float("nan"), 2.0578)


class Raising:
    name, units = "raising", 3

    def run(self, inp, tr):
        raise ValueError("boom")


class BadCheck(Raising):
    def run(self, inp, tr):
        return inp

    def check(self, spec, inp, out):
        raise KeyError("missing cell")


def test_exception_in_an_instance_counts_as_a_failure():
    s = loop.execute(Raising(), "spec", "input", NULL_TRACER, 0)
    assert s.raised and s.failed
    assert s.recovered == [False, False, False]
    assert "ValueError: boom" in s.problems[0]


def test_exception_in_a_check_counts_as_a_failure():
    s = loop.execute(BadCheck(), "spec", "input", NULL_TRACER, 0)
    assert s.failed and not s.raised
