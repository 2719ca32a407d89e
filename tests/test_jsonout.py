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


@pytest.mark.parametrize("key", [(1, 2), b"k", frozenset()], ids=["tuple", "bytes", "set"])
def test_key_json_cannot_hold_raises_type_error(key):
    payload = {"a": {key: 1}}
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="^keys must be str, int, float, bool or None$"):
        _encoded(payload)


# Keys equal to an int that render differently: 1, 1.0 and True are one dict
# key, written "1", "1.0" and "true".
def _equal_keys(key: int) -> list:
    variants = [key, float(key)]
    if key in (0, 1):
        variants.append(bool(key))
    if key == 0:
        variants.append(-0.0)
    return variants


int_key_sets = st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True)
float_key_sets = st.lists(st.sampled_from([0.5, -2.25, 1e16, math.inf, -math.inf, math.nan]),
                          min_size=1, max_size=4, unique=True)


@st.composite
def one_key_set_in_many_orders(draw):
    """Dicts over one key set, each in its own insertion order and, for
    numeric keys, each with its own choice among equal keys, nested at
    several depths."""
    kind = draw(st.sampled_from(["str", "int", "float", "none"]))
    if kind == "str":
        key_set = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    elif kind == "int":
        key_set = draw(int_key_sets)
    elif kind == "float":
        key_set = draw(float_key_sets)
    else:
        key_set = [None]
    nested = []
    for _ in range(draw(st.integers(2, 5))):
        order = draw(st.permutations(key_set))
        if kind == "int":
            order = [draw(st.sampled_from(_equal_keys(key))) for key in order]
        obj = {key: draw(st.one_of(scalars, st.builds(dict))) for key in order}
        wrappers = draw(st.lists(st.one_of(st.none(), keys), max_size=4))
        nested.append(_nest(obj, wrappers))
    return {"nested": nested, "shared": [nested[0], nested[-1]]}


@given(payload=one_key_set_in_many_orders())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_one_key_set_in_many_orders_matches_json_dumps(payload):
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


@given(key_set=st.lists(keys, min_size=1, max_size=4, unique=True),
       number=st.one_of(st.integers(-3, 3), st.floats(allow_nan=False), st.booleans()),
       position=st.integers(0, 4),
       wrappers=st.lists(st.one_of(st.none(), keys), max_size=4))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mixed_str_and_number_keys_raise_type_error(key_set, number, position, wrappers):
    # The all-str dict comes first, so its key order is planned before the
    # mixed one is met.
    order = list(key_set)
    order.insert(position, number)
    payload = [_nest(dict.fromkeys(key_set, 1), wrappers),
               _nest(dict.fromkeys(order, 1), wrappers)]
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _encoded(payload)
