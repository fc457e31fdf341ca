"""The input boundary: counts files and expectation tables share one JSON
reader, every malformed file is refused where it is read, and every party
set from outside obeys one rule."""

import json
import tempfile
from pathlib import Path
from string import Template

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entstruct.cli import main
from entstruct.errors import CountsFormatError, UsageError
from entstruct.inference import OBSERVABLES, ExpectationTable, load_expectation_table
from entstruct.tomo import (
    SETTING_LABELS,
    MeasurementRecord,
    MeasurementSetting,
    estimate_mz,
    estimate_product_expectation,
    load_counts,
    save_counts,
)
from oracles import table_contents, table_dict

# loader, key of the item list, noun naming an item, one valid n = 2 item
LOADERS = {
    "counts": (load_counts, "records", "record",
               {"setting": ["Z", "Z"], "counts": {"00": 5, "11": 5}}),
    "table": (load_expectation_table, "expectations", "expectation",
              {"observable": "MZ", "parties": [1, 2], "value": 0.5, "sigma": 0.01}),
}

# Faults of the file as a whole: $K is the item key, $I a valid item.
ENVELOPE = {
    "malformed_json": ('{"n": 2, "$K": [$I', "malformed JSON at line 1"),
    "top_level_list": ("[$I]", "top level must be an object"),
    "unknown_top_key": ('{"n": 2, "$K": [$I], "notes": "x"}',
                        r"unknown top-level keys \['notes'\]"),
    "missing_n": ('{"$K": [$I]}', "required keys 'n' and '$K' missing"),
    "missing_items": ('{"n": 2}', "required keys 'n' and '$K' missing"),
    "n_bool": ('{"n": true, "$K": [$I]}', "'n' must be a positive integer, got True"),
    "n_float": ('{"n": 2.0, "$K": [$I]}', "'n' must be a positive integer, got 2.0"),
    "n_string": ('{"n": "2", "$K": [$I]}', "'n' must be a positive integer, got '2'"),
    "n_zero": ('{"n": 0, "$K": [$I]}', "'n' must be a positive integer, got 0"),
    "items_empty": ('{"n": 2, "$K": []}', "'$K' must be a non-empty list"),
    "items_object": ('{"n": 2, "$K": {}}', "'$K' must be a non-empty list"),
    "duplicate_top_key": ('{"n": 2, "n": 2, "$K": [$I]}', "duplicate key 'n'"),
}


def _shared_item_faults(valid: dict) -> dict:
    """Faults of one item that both formats share, as the item's JSON text."""
    first = next(iter(valid))
    text = json.dumps(valid)
    return {
        "item_not_object": ("5", "must be an object"),
        "item_unknown_key": (json.dumps({**valid, "x": 1}), r"unknown keys \['x'\]"),
        "item_missing_key": (json.dumps({k: v for k, v in valid.items() if k != first}),
                             "needs"),
        "item_duplicate_key": (f"{text[:-1]}, {json.dumps(first)}: "
                               f"{json.dumps(valid[first])}}}", f"duplicate key '{first}'"),
    }


# Faults of one item in one format.
ITEMS = {
    "counts": {
        "zero_shots": ('{"setting": ["Z", "Z"], "counts": {"00": 0}}', "0 shots"),
        "no_outcomes": ('{"setting": ["Z", "Z"], "counts": {}}', "0 shots"),
        "short_setting": ('{"setting": ["Z"], "counts": {"00": 5}}',
                          "setting must be a list of 2 labels"),
        "unknown_label": ('{"setting": ["Z", "Y"], "counts": {"00": 5}}',
                          "unknown setting label"),
        "counts_list": ('{"setting": ["Z", "Z"], "counts": [5]}',
                        "counts must be an object"),
        "short_outcome": ('{"setting": ["Z", "Z"], "counts": {"0": 5}}',
                          "not a 2-character string"),
        "negative_count": ('{"setting": ["Z", "Z"], "counts": {"00": -5}}',
                           "non-negative integer"),
        "bool_count": ('{"setting": ["Z", "Z"], "counts": {"00": true}}',
                       "non-negative integer"),
        "float_count": ('{"setting": ["Z", "Z"], "counts": {"00": 5.0}}',
                        "non-negative integer"),
        "duplicate_outcome": ('{"setting": ["Z", "Z"], "counts": {"00": 5, "00": 7}}',
                              "duplicate key '00'"),
        "total_beyond_int64": ('{"setting": ["Z", "Z"], "counts": '
                               f'{{"00": {2**62}, "11": {2**62}}}}}', r"2\^63"),
    },
    "table": {
        "parties_string": ('{"observable": "MX", "parties": "12", "value": 0.5}',
                           "parties must be distinct positive integers"),
        "parties_float": ('{"observable": "MX", "parties": [1.7, 2], "value": 0.5}',
                          "parties must be distinct positive integers"),
        "parties_bool": ('{"observable": "MX", "parties": [true, 2], "value": 0.5}',
                         "parties must be distinct positive integers"),
        "parties_scalar": ('{"observable": "MX", "parties": 2, "value": 0.5}',
                           "parties must be distinct positive integers"),
        "parties_repeated": ('{"observable": "MX", "parties": [2, 2], "value": 0.5}',
                             "parties must be distinct positive integers"),
        "parties_beyond_n": ('{"observable": "MX", "parties": [1, 3], "value": 0.5}',
                             r"entry MX\(1, 3\) exceeds n=2"),
        "value_bool": ('{"observable": "MX", "parties": [1, 2], "value": true}',
                       "value must be a real number, got True"),
        "value_string": ('{"observable": "MX", "parties": [1, 2], "value": "0.5"}',
                         "value must be a real number, got '0.5'"),
        "sigma_string": ('{"observable": "MX", "parties": [1, 2], "value": 0.5, '
                         '"sigma": "0.01"}', "sigma must be a real number"),
        "value_out_of_range": ('{"observable": "MX", "parties": [1, 2], "value": 5.0}',
                               r"outside \[-1, 1\] by more than 3 sigma"),
        "value_nan": ('{"observable": "MX", "parties": [1, 2], "value": NaN}',
                      "value must be finite"),
        "sigma_negative": ('{"observable": "MX", "parties": [1, 2], "value": 0.5, '
                           '"sigma": -0.1}', "sigma must be finite and non-negative"),
        "unknown_observable": ('{"observable": "MY", "parties": [1, 2], "value": 0.5}',
                               "observable must be one of"),
        "duplicate_entry": ('{"observable": "MZ", "parties": [2, 1], "value": 0.5}',
                            r"duplicate entry MZ\(1, 2\)"),
    },
}


def malformed_cases():
    for kind, (_, key, noun, valid) in LOADERS.items():
        for name, (template, match) in ENVELOPE.items():
            text = Template(template).substitute(K=key, I=json.dumps(valid))
            yield pytest.param(kind, text, Template(match).substitute(K=key), None,
                               id=f"{kind}-{name}")
        faults = {**_shared_item_faults(valid), **ITEMS[kind]}
        for name, (item, match) in faults.items():
            text = f'{{"n": 2, "{key}": [{json.dumps(valid)}, {item}]}}'
            yield pytest.param(kind, text, match, f"{noun} 1", id=f"{kind}-{name}")
        yield pytest.param(kind, b'{"n": 2, "' + key.encode() + b'": ["\xff"]}',
                           "not UTF-8 text", None, id=f"{kind}-not_utf8")


@pytest.mark.parametrize("kind,text,match,where", list(malformed_cases()))
def test_malformed_file_is_refused_where_it_is_read(tmp_path, capsys, kind, text,
                                                    match, where):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    loader = LOADERS[kind][0]
    with pytest.raises(CountsFormatError, match=match) as exc:
        loader(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    if where is not None:
        assert message.startswith(f"{path}: {where}: ")
    flag = "--counts" if kind == "counts" else "--expectations"
    assert main(["infer", flag, str(path)]) == 4
    assert "bad input file" in capsys.readouterr().err


def test_valid_table_values_are_stored_as_floats(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"n": 2, "expectations": [{"observable": "MX", '
                    '"parties": [2, 1], "value": 1, "sigma": 0}]}')
    table = load_expectation_table(path)
    assert table_contents(table) == {("MX", (1, 2)): (1.0, 0.0)}
    assert table.value.dtype == table.sigma.dtype == np.float64
    entry = table.lookup("MX", (1, 2))
    assert type(entry.value) is float and type(entry.sigma) is float


@st.composite
def record_lists(draw):
    """1..4 records on n = 1..6 parties, each with at least one shot."""
    n = draw(st.integers(1, 6))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.sampled_from(SETTING_LABELS), min_size=n, max_size=n))
        outcomes = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12,
                                 unique=True))
        counts = {format(o, f"0{n}b"): draw(st.integers(0, 10**9)) for o in outcomes}
        counts[format(outcomes[0], f"0{n}b")] += 1
        records.append(MeasurementRecord(MeasurementSetting(tuple(labels)), counts))
    return records


@given(record_lists())
def test_saved_counts_load_to_equal_records(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.json"
        save_counts(records, path)
        back = load_counts(path)
    assert back == records
    assert [r.total for r in back] == [r.total for r in records]


@st.composite
def table_docs(draw):
    """A valid table document over n = 1..6 parties, parties in any order,
    values as JSON floats or integers, sigma sometimes omitted."""
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(OBSERVABLES),
                  st.sets(st.integers(1, n), min_size=1).map(sorted)),
        min_size=1, max_size=10, unique_by=lambda k: (k[0], tuple(k[1]))))
    entries = []
    for observable, parties in keys:
        raw = {"observable": observable, "parties": draw(st.permutations(parties)),
               "value": draw(st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 1)))}
        if draw(st.booleans()):
            raw["sigma"] = draw(st.one_of(st.floats(0.0, 0.5), st.just(0)))
        entries.append(raw)
    return {"n": n, "expectations": entries}


@given(table_docs())
def test_table_read_back_from_json_gives_equal_entries(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(doc))
        table = load_expectation_table(path)
    assert table.n == doc["n"]
    assert table_contents(table) == table_dict(
        (e["observable"], e["parties"], e["value"], e.get("sigma", 0.0))
        for e in doc["expectations"])


def _z_record():
    return MeasurementRecord(MeasurementSetting.uniform("Z", 3), {"000": 3, "110": 1})


# Every place that takes a party set from outside applies one rule.
PARTY_ENTRY_POINTS = {
    "table_row": lambda parties: ExpectationTable(3, [("MZ", parties, 0.5, 0.0)]),
    "lookup": lambda parties: ExpectationTable(3, [("MZ", (1, 2), 0.5, 0.0)]).lookup(
        "MZ", parties),
    "estimate_mz": lambda parties: estimate_mz(_z_record(), parties),
    "estimate_product_expectation": lambda parties: estimate_product_expectation(
        _z_record(), parties),
}
REJECTED_PARTIES = {
    "float": (2.7, 1),
    "integral_float": (2.0, 1),
    "numpy_float": (np.float64(2.0), 1),
    "bool": (True, 2),
    "numpy_bool": (np.True_, 2),
    "repeated": (1, 1),
    "repeated_numpy": (np.int64(2), 2),
    "string": "12",
    "string_items": ("1", "2"),
    "scalar": 2,
    "none": None,
    "empty": (),
    "zero": (0, 1),
    "negative": (-1, 2),
}


@pytest.mark.parametrize("form", REJECTED_PARTIES)
@pytest.mark.parametrize("entry", PARTY_ENTRY_POINTS)
def test_party_rule_refuses_each_malformed_set(entry, form):
    with pytest.raises(UsageError, match="parties must be distinct positive integers"):
        PARTY_ENTRY_POINTS[entry](REJECTED_PARTIES[form])


@pytest.mark.parametrize("entry", PARTY_ENTRY_POINTS)
def test_party_rule_takes_numpy_integers_in_any_order(entry):
    call = PARTY_ENTRY_POINTS[entry]
    got, want = call((np.int32(2), np.int64(1))), call((1, 2))
    if entry == "table_row":
        got, want = table_contents(got), table_contents(want)
    assert got == want


@pytest.mark.parametrize("entry", ["lookup", "estimate_mz", "estimate_product_expectation"])
def test_parties_beyond_n_are_refused(entry):
    with pytest.raises(UsageError, match=r"parties \(1, 4\) outside 1\.\.3"):
        PARTY_ENTRY_POINTS[entry]((4, 1))


def test_table_row_beyond_n_is_a_table_rule():
    with pytest.raises(UsageError, match=r"^expectation 0: entry MZ\(1, 4\) exceeds n=3$"):
        PARTY_ENTRY_POINTS["table_row"]((4, 1))


def test_lookup_refuses_an_unknown_observable():
    table = ExpectationTable(2, [("MZ", (1, 2), 0.5, 0.0)])
    with pytest.raises(UsageError, match="observable must be one of"):
        table.lookup("MY", (1, 2))


@pytest.mark.parametrize("n", [2.5, True, 0, -1, "2", None, 64])
def test_table_n_is_an_integer_in_range(n):
    with pytest.raises(UsageError, match=r"n must be an integer in 1\.\.63"):
        ExpectationTable(n, [("MZ", (1,), 0.5, 0.0)])


def test_table_n_takes_numpy_integers():
    table = ExpectationTable(np.int64(63), [("MZ", (63, 1), 0.5, 0.0)])
    assert type(table.n) is int and table.n == 63
    assert table.lookup("MZ", (1, 63)) == (0.5, 0.0)


def test_table_columns_are_read_only():
    table = ExpectationTable(2, [("MZ", (1, 2), 0.5, 0.0)])
    with pytest.raises(ValueError):
        table.value[0] = 0.9


_OK = {"observable": "MZ", "parties": [1, 2], "value": 0.5}
_BEYOND = {"observable": "MX", "parties": [1, 3], "value": 0.5}


@pytest.mark.parametrize("items,named", [
    # the reader checks every item's shape before any row rule
    ([{**_OK, "value": 5.0}, 5], "expectation 1: must be an object"),
    # row rules run on every row before the table rules
    ([_BEYOND, {**_OK, "value": "x"}], "expectation 1: value must be a real number"),
    # of the table rules, entries beyond n are checked before repeats
    ([_OK, {**_OK, "parties": [2, 1]}, _BEYOND], r"expectation 2: entry MX\(1, 3\) exceeds n=2"),
], ids=["shape_before_row", "row_before_table", "beyond_before_repeat"])
def test_file_with_two_faults_names_the_first_by_rule_order(tmp_path, items, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "expectations": items}))
    with pytest.raises(CountsFormatError, match=f"^{path}: {named}"):
        load_expectation_table(path)
