"""The export writers render exactly what the standard library renders, for
plain payloads and for column ``Records`` written out as row dicts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expand_records

from mmpatch.tables import Records, csv_text, json_text

EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e22, -1e22, 1e16, 1e-5, 0.1, 123456789.123456789]


def stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def expanded_json(obj) -> str:
    return stdlib_json(expand_records(obj))


def per_row_csv(header: str, rows) -> str:
    return header + "\n" + "".join(
        ",".join(format(v, ".10g") for v in row) + "\n" for row in rows)


floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
keys = st.text(max_size=6)
leaves = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=6)


@st.composite
def record_lists(draw):
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[floats] * len(names)), min_size=1, max_size=5))
    return [dict(zip(names, row)) for row in rows]


payloads = st.recursive(
    leaves | record_lists(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(keys, children, max_size=4)
                      | st.lists(st.dictionaries(keys, leaves, max_size=3), max_size=3)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_json_text_equals_stdlib(obj):
    assert json_text(obj) == stdlib_json(obj)


@pytest.mark.parametrize("obj", [
    {"samples": [{"a": v, "b": -v} for v in EDGE_FLOATS]},
    {"samples": [{"only": 1.5}]},
    [{"x": 1.0, "y": 2.0}],
    {"mismatched": [{"x": 1.0}, {"y": 2.0}]},
    {"reordered": [{"x": 1.0, "y": 2.0}, {"y": 3.0, "x": 4.0}]},
    {"int": [{"x": 1.0}, {"x": 2}]},
    {"bool": [{"x": 1.0}, {"x": True}]},
    {"none": [{"x": None}, {"x": 2.0}]},
    {"str": [{"x": "1.0"}]},
    {"nested": [[{"x": 1.0}], [[{"y": math.inf}], 3], {"z": [{"w": -0.0}]}]},
    {"tuple": ({"x": 1.0}, {"x": 2.0})},
    {"percent%s": [{"%d": 1.0, "\"q\"": 2.0, "é\n": 3.0}]},
    {"empty": [], "empty_records": [{}], "empty_dict": {}},
    {"\0table0\0": [{"x": 1.0}]},
    ["\0table0\0", [{"x": 1.0}]],
])
def test_json_text_edge_payloads(obj):
    assert json_text(obj) == stdlib_json(obj)


def test_json_text_keeps_allow_nan_tokens():
    text = json_text({"s": [{"v": math.nan}, {"v": math.inf}, {"v": -math.inf}]})
    assert [line.strip() for line in text.splitlines() if '"v"' in line] == [
        '"v": NaN', '"v": Infinity', '"v": -Infinity']


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(st.lists(floats, min_size=width, max_size=width),
                           min_size=0, max_size=6).map(lambda rows: (width, rows))))
def test_csv_text_equals_per_row_format(case):
    width, rows = case
    names = tuple(f"c{i}" for i in range(width))
    table = np.array(rows, dtype=float).reshape(len(rows), width)
    assert csv_text(Records(names, tuple(table.T))) == per_row_csv(",".join(names), table)


def test_csv_text_edge_values():
    table = np.array(EDGE_FLOATS + [-1.0]).reshape(-1, 3)
    expected = per_row_csv("b,a,c", table)
    assert csv_text(Records(("b", "a", "c"), tuple(table.T))) == expected
    assert csv_text(Records(("b", "a", "c"), tuple(table.T.tolist()))) == expected


placeholders = st.sampled_from(["\0records0\0", "\0records1\0", "\0table0\0"])
record_keys = keys | placeholders


@st.composite
def column_records(draw):
    # 0, 1, a few or many rows; many rows repeat a short drawn pattern
    names = draw(st.lists(record_keys, min_size=1, max_size=4, unique=True))
    n = draw(st.sampled_from([0, 1, 2, 5, 100]))
    columns = [np.resize(np.array(draw(st.lists(floats, min_size=1, max_size=5))), n)
               for _ in names]
    if draw(st.booleans()):
        columns = [c.tolist() for c in columns]
    return Records(tuple(names), tuple(columns))


column_payloads = st.recursive(
    leaves | placeholders | column_records(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(record_keys, children, max_size=4)
                      | st.tuples(children, children)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(column_payloads)
def test_json_text_of_records_equals_stdlib_of_row_dicts(obj):
    assert json_text(obj) == expanded_json(obj)


@settings(max_examples=100, deadline=None)
@given(column_records())
def test_csv_text_of_records_equals_per_row_format(table):
    rows = zip(*(np.asarray(c, dtype=float) for c in table.columns))
    assert csv_text(table) == per_row_csv(",".join(table.keys), rows)


@pytest.mark.parametrize("obj", [
    Records(("only",), ([1.5, -0.0],)),
    Records(("b", "a"), ([], [])),
    {"samples": Records(("z", "\"q\"", "é\n", "%d"), ([1.0], [2.0], [math.nan], [1e22]))},
    {"samples": Records(("v",), (EDGE_FLOATS,)), "n": 3},
    [Records(("x",), ([1.0],)), [Records(("y",), ([math.inf],)), "s"], {"z": Records(("w",), ([-0.0],))}],
    {"\0records0\0": Records(("x",), ([1.0],))},
    {"a": "\0records0\0", "b": Records(("x",), ([1.0],))},
    {"a": Records(("x",), ([1.0],)), "b": Records(("x",), ([2.0],))},
])
def test_json_text_records_edge_payloads(obj):
    assert json_text(obj) == expanded_json(obj)


def test_records_are_not_json_lists():
    table = Records(("x",), ([1.0],))
    with pytest.raises(TypeError, match="Records is not JSON serializable"):
        json.dumps(table)
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json_text({"samples": table, "other": object()})


@pytest.mark.parametrize("keys,columns", [
    ((), ()), (("x", "x"), ([1.0], [2.0])), (("x", "y"), ([1.0],)),
])
def test_records_reject_bad_shapes(keys, columns):
    with pytest.raises(ValueError):
        Records(keys, columns)
