"""The infer_n8 generator against the package's dense Born rule."""

import numpy as np
import pytest

import born
from entstruct.states import Partition, ghz, product_structure, white_noise_mix
from entstruct.tomo import (
    MeasurementRecord,
    MeasurementSetting,
    estimate_mz,
    estimate_product_expectation,
    probabilities,
)
from workloads import GEOMETRIES, PREPARED


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_closed_form_matches_dense_probabilities(geometry):
    groups = PREPARED[geometry]
    ideal = product_structure(Partition(groups), [ghz(len(g)) for g in groups])
    for noise in (0.0, 0.05):
        state = white_noise_mix(ideal, noise) if noise else ideal
        for label in born.SETTINGS:
            dense = probabilities(state, MeasurementSetting.uniform(label, born.N))
            np.testing.assert_allclose(born.born(groups, label, noise), dense,
                                       rtol=0, atol=1e-12, err_msg=f"{label} p={noise}")


def test_table_equals_package_estimators_on_the_same_counts():
    draws = born.draw_counts(np.random.default_rng(3), PREPARED["DUD"], 0.05)
    records = {r["setting"][0]: MeasurementRecord(MeasurementSetting(tuple(r["setting"])),
                                                   r["counts"])
               for r in born.counts_doc(draws)["records"]}
    table = born.table_doc(draws)["expectations"]
    assert len(table) == 2 * len(born.SUBSETS) + 2
    for e in table:
        if e["observable"] == "MZ":
            est = estimate_mz(records["Z"], e["parties"])
        else:
            label = {"MX": "X", "A": "AMIX", "APRIME": "APLUS"}[e["observable"]]
            est = estimate_product_expectation(records[label], e["parties"])
        assert e["value"] == pytest.approx(est.value, abs=1e-15)
        assert e["sigma"] == pytest.approx(est.sigma, abs=1e-15)
