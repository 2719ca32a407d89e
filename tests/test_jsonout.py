"""The report encoder writes exactly what ``json.dumps(sort_keys=True,
indent=2)`` writes, including for an object shared at several depths."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersched._jsonout import iter_indented_json

ODD_STRINGS = ["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é€𝄞", " \ud800"]
ODD_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1.5e300,
               2 ** 64, -(2 ** 100), 10 ** 30]

keys = st.one_of(st.text(max_size=6), st.sampled_from(ODD_STRINGS))
scalars = st.one_of(
    st.text(max_size=8),
    st.sampled_from(ODD_STRINGS),
    st.sampled_from(ODD_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.booleans(),
    st.none(),
)
leaves = st.one_of(scalars, st.builds(dict), st.builds(list), st.builds(tuple))
values = st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(keys, children, max_size=4),
), max_leaves=24)
flat_dicts = st.dictionaries(keys, scalars, min_size=1, max_size=4)


def _nest(value, wrappers):
    """Wrap ``value`` once per entry of ``wrappers``: in a list, or in a
    dict under that key."""
    for key in wrappers:
        value = [value] if key is None else {key: value}
    return value


def _encoded(payload) -> str:
    return "".join(iter_indented_json(payload))


@given(body=values, shared=flat_dicts,
       wrappers=st.lists(st.one_of(st.none(), keys), min_size=5, max_size=5),
       depths=st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matches_json_dumps_with_an_object_shared_at_two_depths(
        body, shared, wrappers, depths):
    # ``shared`` sits below the streamed top two levels at two different
    # depths, so a memo keyed by id alone would reuse the wrong indentation.
    payload = {
        "body": body,
        "first": _nest(shared, wrappers[:depths[0]]),
        "second": _nest(shared, wrappers[:depths[1]]),
        "third": [shared, shared],
    }
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


@given(payload=values)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_matches_json_dumps_at_any_top_level(payload):
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}},
    {"a": [[{"b": {1}}]]},
    [{"a": [object()]}],
], ids=["streamed-level", "memoised-level", "object"])
def test_value_json_cannot_hold_raises_type_error(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _encoded(payload)
