"""tools/glue_share.py on a hand-made span file of two traced instances."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("glue_share", ROOT / "tools" / "glue_share.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# (id, name, start, end, parent, instance), times in ms
SPANS = [
    # instance 3: 10 ms; glue 2 (bench.instance's self time) + 1 (bench.table's); tail 1
    (0, "bench.instance", 0.0, 10.0, None, 3),
    (1, "tomo.load_counts", 1.0, 4.0, 0, 3),
    (2, "bench.table", 4.5, 9.5, 0, 3),
    (3, "inference.load_expectation_table", 5.0, 7.0, 2, 3),
    (4, "inference.infer_structure", 7.0, 9.0, 2, 3),
    (5, "bench.replay", 10.5, 12.0, None, 3),  # after the instance: not glue
    (6, "tomo.estimate_mz", 11.0, 11.5, 5, 3),
    # instance 4: 20 ms; glue 0.4; tail 0.2
    (7, "bench.instance", 20.0, 40.0, None, 4),
    (8, "tomo.load_counts", 20.2, 30.0, 7, 4),
    (9, "inference.infer_structure", 30.0, 39.8, 7, 4),
]


@pytest.fixture
def span_file(tmp_path):
    path = tmp_path / "spans.jsonl"
    keys = ("id", "name", "start", "end", "parent", "instance")
    with open(path, "w", encoding="utf-8") as fh:
        for row in SPANS:
            span = dict(zip(keys, row))
            span["start"] /= 1e3
            span["end"] /= 1e3
            fh.write(json.dumps(span) + "\n")
    return path


def test_glue_is_the_bench_self_time_inside_each_instance(span_file):
    tool = load_tool()
    rows = tool.glue_rows(tool.read_spans(span_file))
    assert [r[0] for r in rows] == [3, 4]
    want = [(10.0, 3.0, 1.0), (20.0, 0.4, 0.2)]  # instance, glue, tail in ms
    for (_, duration, glue, tail), (d, g, t) in zip(rows, want):
        assert 1e3 * duration == pytest.approx(d)
        assert 1e3 * glue == pytest.approx(g)
        assert 1e3 * tail == pytest.approx(t)
    s = tool.summary(rows)
    assert s["glue_median_us"] == pytest.approx(1700.0)
    assert s["glue_mean_us"] == pytest.approx(1700.0)
    assert s["share_median_pct"] == pytest.approx((30.0 + 2.0) / 2)
    assert s["share_mean_pct"] == pytest.approx(100 * 3.4 / 30)
    assert s["tail_median_us"] == pytest.approx(600.0)


def test_main_prints_one_line_per_instance_and_the_summary(span_file, capsys):
    assert load_tool().main([str(span_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "instance instance_us glue_us glue_pct tail_us"
    assert out[1] == "3 10000.0 3000.0 30.000 1000.0"
    assert out[2] == "4 20000.0 400.0 2.000 200.0"
    assert out[3].startswith("glue over 2 instances: median 1700.0 us, mean 1700.0 us")
    assert out[4] == "tail after the last package span: median 600.0 us, mean 600.0 us"
