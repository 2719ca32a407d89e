"""The report encoder writes exactly what ``json.dumps(sort_keys=True,
indent=2)`` writes for a payload with string keys, including for an object
shared at several depths, and refuses any other key."""

import io
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import micro_scenario
from layersched import _jsonout, replace, simulator
from layersched._jsonout import iter_indented_json
from layersched.model import ImageRef, LayerCatalog, NodeSpec
from layersched.scheduler import SchedulerConfig
from layersched.scoring import MB
from layersched.simulator import Scenario, replay, run, write_report_json
from layersched.workload import WorkloadSpec

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
    # depths, so text reused by id alone would have the wrong indentation.
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


@st.composite
def one_key_set_in_many_orders(draw):
    """Dicts over one key set, each in its own insertion order, nested at
    several depths."""
    key_set = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    nested = []
    for _ in range(draw(st.integers(2, 5))):
        order = draw(st.permutations(key_set))
        obj = {key: draw(st.one_of(scalars, st.builds(dict))) for key in order}
        wrappers = draw(st.lists(st.one_of(st.none(), keys), max_size=4))
        nested.append(_nest(obj, wrappers))
    return {"nested": nested, "shared": [nested[0], nested[-1]]}


@given(payload=one_key_set_in_many_orders())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_one_key_set_in_many_orders_matches_json_dumps(payload):
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2), b"k", frozenset()],
                         ids=["int", "float", "bool", "none", "tuple", "bytes", "set"])
@given(key_set=st.lists(keys, min_size=1, max_size=4, unique=True),
       position=st.integers(0, 4),
       wrappers=st.lists(st.one_of(st.none(), keys), max_size=4))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_key_json_cannot_hold_raises_type_error(key, key_set, position, wrappers):
    # The encoder refuses every key but a string, alone and in a dict met
    # after an all-str one, whose key order is then already planned; json
    # converts a number, a bool or None to a string key instead.
    order = list(key_set)
    order.insert(position, key)
    for payload in (_nest({key: 1}, wrappers),
                    [_nest(dict.fromkeys(key_set, 1), wrappers),
                     _nest(dict.fromkeys(order, 1), wrappers)]):
        with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
            _encoded(payload)


# Values equal to one another that render differently, and NaNs that differ
# only in identity: a sibling may share a child with the one before it, or
# hold an equal value that is another object.
SHARED_NAN = math.nan
ZERO, NEGATIVE_ZERO = {"x": 0.0}, {"x": -0.0}
twins = st.one_of(
    st.sampled_from([0.0, -0.0, 1, True, 1.0, 0, False, SHARED_NAN, ZERO, NEGATIVE_ZERO]),
    st.builds(float, st.just("nan")),
    st.builds(dict, st.just({"x": 0.0})),
    st.builds(list),
)


@st.composite
def sibling_runs(draw):
    """Same-shaped containers in a row: dicts with one str key order, or
    lists of one length. Each sibling keeps some of the previous one's
    children by identity and replaces the others."""
    kind = draw(st.sampled_from(["str-keys", "list"]))
    key_set = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    children = [draw(twins) for _ in key_set]
    siblings = []
    for _ in range(draw(st.integers(2, 6))):
        children = [child if draw(st.booleans()) else draw(twins) for child in children]
        if kind == "list":
            siblings.append(list(children))
        else:
            siblings.append(dict(zip(key_set, children)))
    return siblings


@given(siblings=sibling_runs(), wrappers=st.lists(st.one_of(st.none(), keys), max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_siblings_sharing_children_match_json_dumps(siblings, wrappers):
    # The siblings sit at the first rendered depth below the streamed
    # levels, then again deeper, right after the shallow ones: a sibling's
    # rendering may be reused only at its own depth.
    payload = {"runs": siblings + [_nest(siblings, wrappers)]}
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_recorded_report_with_an_unschedulable_step_matches_json_dumps():
    catalog, nodes, tasks, config = micro_scenario(50)
    scenario = Scenario(nodes=[n.spec for n in nodes], catalog=catalog,
                        workload=WorkloadSpec(), scheduler=config, seed=50)
    report = replay(scenario, tasks, record=True)
    assert 0 < report.unschedulable_count < len(tasks)
    payload = report.to_dict()
    assert _encoded(payload) == json.dumps(payload, sort_keys=True, indent=2)


def sim_wide_like_scenario() -> Scenario:
    """20 nodes, two of them small, with two base layers each preloaded; 8
    images of one of 3 base layers, 2 of 4 runtime layers and an app layer of
    its own; 100 lr_dynamic tasks: the benchmark's sim-wide in small."""
    rng = random.Random(3)
    base = {f"sha256:base{i}": rng.randint(80, 300) * MB for i in range(3)}
    runtime = {f"sha256:rt{i}": rng.randint(10, 60) * MB for i in range(4)}
    images = {ImageRef(f"svc-{i}", "1"): (rng.choice(sorted(base)),
                                          *rng.sample(sorted(runtime), 2), f"sha256:app{i}")
              for i in range(8)}
    apps = {f"sha256:app{i}": rng.randint(1, 8) * MB for i in range(8)}
    nodes = [NodeSpec(id=f"node-{i:02d}", cpu_capacity=1000 if i % 10 == 0 else 16000,
                      mem_capacity=(4 if i % 10 == 0 else 32) * 1024 * MB,
                      bandwidth=rng.randint(10, 100) * MB, storage_capacity=60 * 1024 * MB)
             for i in range(20)]
    return Scenario(nodes=nodes, catalog=LayerCatalog({**base, **runtime, **apps}, images),
                    workload=WorkloadSpec(count=100), scheduler=SchedulerConfig(), seed=1,
                    preloaded={n.id: tuple(rng.sample(sorted(base), 2)) for n in nodes})


def test_a_recorded_report_renders_again_only_what_changed(monkeypatch, tmp_path):
    # Work count: the children _container renders, against all the children
    # of the containers it is asked for; the rest are copied from the
    # sibling record. Without sibling reuse every child is rendered again.
    report = run(sim_wide_like_scenario())
    counts = {"children": 0, "rendered": 0}
    inside = [0]  # _container calls under way
    container, scalar = _jsonout._container, _jsonout._scalar

    def counting_container(obj, *args):
        counts["children"] += len(obj)
        inside[0] += 1
        try:
            return container(obj, *args)
        finally:
            inside[0] -= 1

    def counting_scalar(value):
        counts["rendered"] += inside[0] > 0
        return scalar(value)

    monkeypatch.setattr(_jsonout, "_container", counting_container)
    monkeypatch.setattr(_jsonout, "_scalar", counting_scalar)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    payload = report.to_dict()
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # Rendered per step: about 6 of its 7 fields, the one changed entry of
    # its 20-node usage map and that entry's 3 shares.
    assert counts["children"] >= 3000  # 3117
    assert counts["rendered"] <= 1200  # 1117


def test_a_recorded_report_is_written_128_kib_at_a_time(monkeypatch, tmp_path):
    # Work count: the raw writes behind one report. ``open`` is shadowed in
    # the simulator by one that buffers as ``open`` does, over a FileIO that
    # counts its writes; the default 8 KiB buffer would take 15 times as many.
    writes = []

    class CountingFileIO(io.FileIO):
        def write(self, data):
            writes.append(len(data))
            return super().write(data)

    def counting_open(file, mode, buffering=-1, encoding=None, newline=None):
        assert mode == "w"
        raw = CountingFileIO(file, "w")
        if buffering == -1:
            blksize = os.fstat(raw.fileno()).st_blksize
            buffering = blksize if blksize > 1 else io.DEFAULT_BUFFER_SIZE
        return io.TextIOWrapper(io.BufferedWriter(raw, buffering), encoding, newline=newline)

    report = run(replace(sim_wide_like_scenario(), workload=WorkloadSpec(count=400)))
    monkeypatch.setattr(simulator, "open", counting_open, raising=False)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    size = path.stat().st_size
    bound = math.ceil(size / 131072) + 1
    assert size / 8192 >= 10 * bound  # 1 090 414 bytes: 134 writes of 8 KiB
    assert sum(writes) == size
    assert len(writes) <= bound  # 9
