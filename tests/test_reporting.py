"""The JSON report writer against json.dumps(indent=2,
ensure_ascii=False), the call it replaces: the same text on every value
the report tree can hold, and TypeError on anything else."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtflat.reporting import _write_json


def write(value) -> str:
    out: list = []
    _write_json(value, out, "\n")
    return "".join(out)


def reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**40, max_value=10**40) | TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example("quote \" backslash \\ slash / tab \t newline \n nul \x00 \x1f \x7f")
@example("näïve — 数学 ∂/∂x1   \U0001f600")
@example({"": [], "a": {}, "b": [[], [{}], {"c": [None, True, False]}]})
@example([-(10**30), 0, -1, 2**64, True, False, None])
@example({"k": ("tuple", ["inside", ("nested",)]), "e": ()})
def test_matches_json_dumps(value):
    assert write(value) == reference(value)


@pytest.mark.parametrize("value", [
    1.5,
    float("nan"),
    Fraction(1, 2),
    {1: "int key"},
    {None: "null key"},
    {("a",): "tuple key"},
    {"nested": [0, {"x": 2.0}]},
    {"nested": {"deep": [Fraction(3)]}},
    {"k": {True: 1}},
    {1, 2},
    object(),
])
def test_other_values_raise_type_error(value):
    with pytest.raises(TypeError):
        write(value)
