"""Canonical text: the record encoder against json, and the evaluate table against rows."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_render_table
from monodist.codec import _dump, _Table
from monodist.evaluate import MatchedPair, MetricsReport, render_table

KEYS = st.text(st.characters(codec="utf-8") | st.sampled_from('%"\\\x00\x1f\x7f é😀'), max_size=5)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5])
SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | FLOATS | KEYS
    | st.sampled_from([[], {}, [[]], {"": {}}, ()])
)


@st.composite
def same_keyed(draw, children):
    """Dicts with one key set, most in one key order and some shuffled."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    kinds = st.sampled_from([FLOATS, st.floats(allow_nan=False, allow_infinity=False), KEYS,
                             st.lists(FLOATS, min_size=1, max_size=3), children])
    values = {k: draw(kinds) for k in keys}
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        order = keys if draw(st.integers(0, 3)) else draw(st.permutations(keys))
        rows.append({k: draw(values[k]) for k in order})
    return rows


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
        | same_keyed(children)
        | st.lists(st.lists(FLOATS, max_size=4), max_size=5)  # ragged rows, empty ones too
        | st.lists(st.lists(st.floats(0, 1e4), min_size=4, max_size=4), max_size=5)
    )


@settings(max_examples=300)
@given(st.recursive(SCALARS, containers, max_leaves=40))
def test_dump_is_json_dumps_with_indent_2(doc):
    assert _dump(doc) == (json.dumps(doc, indent=2) + "\n").encode()


def rows_of(doc):
    """The document a `_Table` stands for: each table becomes its list of row dicts."""
    if isinstance(doc, _Table):
        return [dict(zip(doc, map(rows_of, row))) for row in zip(*doc.values())]
    if isinstance(doc, dict):
        return {k: rows_of(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return list(map(rows_of, doc))
    return doc


@st.composite
def tables(draw, children):
    """A `_Table` of up to 4 rows; each column holds one kind of value, or drawn children."""
    keys = draw(st.lists(KEYS, max_size=4, unique=True))
    n = draw(st.integers(0, 4))
    kinds = st.sampled_from([FLOATS, KEYS, st.integers(-(2**70), 2**70), children])
    return _Table({k: draw(st.lists(draw(kinds), min_size=n, max_size=n)) for k in keys})


@settings(max_examples=300)
@given(st.recursive(SCALARS | tables(SCALARS), lambda c: containers(c) | tables(c), max_leaves=30))
def test_dump_of_tables_is_json_dumps_of_their_rows(doc):
    assert _dump(doc) == (json.dumps(rows_of(doc), indent=2) + "\n").encode()


@pytest.mark.parametrize("doc", [
    {"pairs": _Table()},
    {"pairs": _Table(class_name=[], error_m=[])},
    {"pairs": _Table({"%s": ["café", "自行车"], '"q"': [math.nan, -math.inf], "%%": [1, 0.5]})},
    [_Table(a=[1.0]), 2, [_Table(), _Table(b=[[]])]],  # tables in mixed columns
    [{"t": _Table(x=[1.5, 2.5])}, {"t": _Table(x=[])}],  # a column of tables
])
def test_dump_edge_tables(doc):
    assert _dump(doc) == (json.dumps(rows_of(doc), indent=2) + "\n").encode()


@pytest.mark.parametrize("doc", [
    {1: "a", 1.5: [], math.nan: {}, True: None, None: 0},  # keys json converts to text
    [np.float64(0.1), 2],  # a float subclass is written as its float
    {"a%s": [1.0, 2.0], "b%%": [{"x": 1.0}, {"x": 2.0}]},
    [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}],
])
def test_dump_edge_documents(doc):
    assert _dump(doc) == (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize("value", [object(), np.int64(1), {1, 2}, np.float32(1.0)])
def test_dump_rejects_what_json_rejects(value):
    for doc in (value, [value], [1.0, value], {"a": value}, [{"a": 1.0}, {"a": value}]):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump(doc)


def test_dump_rejects_a_key_json_rejects():
    with pytest.raises(TypeError, match="keys must be str"):
        _dump({(1, 2): 0.5})


DISTANCES = st.floats(-10.0, 1e5) | st.sampled_from([0.004, 0.005, 999.995, 1234.5, math.nan])
NAMES = st.text(min_size=1, max_size=40) | st.sampled_from(["car", "pérson", "自行车", "x" * 30])
PAIRS = st.builds(MatchedPair, NAMES, DISTANCES, DISTANCES)


@given(
    st.lists(PAIRS, max_size=8), st.floats(0.0, 2e3), st.floats(0.0, 1.0),
    st.floats(0.01, 10.0), st.integers(0, 1000), st.integers(0, 1000),
)
def test_table_matches_the_row_wise_table(pairs, rmse, accuracy, threshold, up, ug):
    report = MetricsReport(tuple(pairs), rmse, accuracy, threshold, up, ug)
    assert render_table(report) == reference_render_table(report)


def test_table_of_a_single_pair_with_a_wide_value():
    report = MetricsReport((MatchedPair("car", 1234.567, 0.5),), 1234.0, 0.0, 0.2, 0, 3)
    assert render_table(report) == reference_render_table(report)
    assert render_table(report).splitlines()[2] == "car     0.50                   1234.57                 1234.07"
