"""The record types' value behaviour, pinned type by type: constructor
signature, ``repr``, ``==`` and ``!=`` (also against another type), hashing
of frozen records, the frozen-assignment error, the attribute order of
``vars`` and :func:`layersched.replace`, which rebuilds a record through its
constructor so every check runs again."""

import inspect
import math
from pathlib import Path

import pytest

from layersched import (
    FilterVerdict,
    ImageMetadata,
    ImageMetadataLists,
    ImageRef,
    LayerCatalog,
    LayerMetadata,
    MaxPodsResult,
    NodeSpec,
    NodeState,
    Placement,
    PluginConfig,
    RegistryConfig,
    Scenario,
    SchedulerConfig,
    ScoreBreakdown,
    SimulationReport,
    StepMetrics,
    TaskRequest,
    Unschedulable,
    WeightPolicy,
    WorkloadSpec,
    replace,
)
from layersched.scenario import CatalogSource, ScenarioFile, SchedulerEntry, Sweeps

WEB = ImageRef("web", "1")
SPEC = NodeSpec("n0", 4000, 2048, 100, 10_000)
TASK = TaskRequest("t0", WEB, 500, 64)
CATALOG = LayerCatalog({"sha256:a": 10}, {WEB: ("sha256:a",)})
LAYER = LayerMetadata(10, "sha256:a")
IMAGE = ImageMetadata("sha256:i", "web", "web", "1", 10, [LAYER])
STEP = StepMetrics(0, "t0", "n0", 10, 0.1, 0.25, {"n0": {"cpu": 0.5}})

# type -> (arguments of one instance, in signature order, and its repr)
CASES = {
    ImageRef: ((("web", "1"), {}), "ImageRef(name='web', tag='1')"),
    LayerCatalog: (((dict(CATALOG.layers), dict(CATALOG.images)), {}),
                   "LayerCatalog(layers={'sha256:a': 10}, "
                   "images={ImageRef(name='web', tag='1'): ('sha256:a',)})"),
    NodeSpec: ((("n0", 4000, 2048, 100, 10_000), {"max_containers": 8}),
               "NodeSpec(id='n0', cpu_capacity=4000, mem_capacity=2048, bandwidth=100, "
               "storage_capacity=10000, max_containers=8)"),
    TaskRequest: ((("t0", WEB, 500, 64), {}),
                  "TaskRequest(task_id='t0', image=ImageRef(name='web', tag='1'), "
                  "cpu_request=500, mem_request=64)"),
    NodeState: (((SPEC, frozenset(), frozenset({WEB}), (TASK,), 500, 64), {}),
                "NodeState(spec=NodeSpec(id='n0', cpu_capacity=4000, mem_capacity=2048, "
                "bandwidth=100, storage_capacity=10000, max_containers=110), "
                "local_layers=frozenset(), local_images=frozenset({ImageRef(name='web', "
                "tag='1')}), running=(TaskRequest(task_id='t0', image=ImageRef(name='web', "
                "tag='1'), cpu_request=500, mem_request=64),), cpu_committed=500, "
                "mem_committed=64)"),
    PluginConfig: (((1.0, None, 2.0), {}),
                   "PluginConfig(least_allocated=1.0, balanced_allocation=None, "
                   "image_locality=2.0)"),
    WeightPolicy: ((("custom",), {"custom_table": {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0}}),
                   "WeightPolicy(mode='custom', omega_static=4.0, omega_high=2.0, "
                   "omega_low=0.5, h_size=10485760, h_cpu=0.6, h_std=0.16, "
                   "custom_table=mappingproxy({0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0}))"),
    ScoreBreakdown: (((50.0, 60.0, 0.1, 0.2, 3, 2.0, 160.0), {}),
                     "ScoreBreakdown(layer_score=50.0, baseline_score=60.0, std_score=0.1, "
                     "cpu_score=0.2, weight_gate=3, omega_used=2.0, final=160.0)"),
    SchedulerConfig: ((("layer_static", WeightPolicy(mode="static")), {}),
                      "SchedulerConfig(policy='layer_static', weight_policy=WeightPolicy("
                      "mode='static', omega_static=4.0, omega_high=2.0, omega_low=0.5, "
                      "h_size=10485760, h_cpu=0.6, h_std=0.16, "
                      "custom_table=mappingproxy({})), plugins=PluginConfig("
                      "least_allocated=1.0, balanced_allocation=1.0, image_locality=1.0), "
                      "tie_break='lowest_node_id')"),
    FilterVerdict: ((("n0", False, "storage"), {}),
                    "FilterVerdict(node_id='n0', feasible=False, rejected_by='storage')"),
    Placement: ((("t0", "n0", 10, 0.1, (NodeState(SPEC),), TASK, CATALOG,
                  SchedulerConfig()), {}),
                "Placement(task_id='t0', node_id='n0', download_bytes=10, "
                "download_seconds=0.1)"),
    Unschedulable: ((("t0", (NodeState(SPEC),), TASK, CATALOG), {}),
                    "Unschedulable(task_id='t0')"),
    LayerMetadata: (((10, "sha256:a"), {}), "LayerMetadata(size=10, layer='sha256:a')"),
    ImageMetadata: ((("sha256:i", "web", "web", "1", 10, [LAYER]), {}),
                    "ImageMetadata(id='sha256:i', name='web', name_without_repo='web', "
                    "tag='1', total_size=10, l_meta=[LayerMetadata(size=10, "
                    "layer='sha256:a')])"),
    ImageMetadataLists: ((("cache.json", {"web:1": IMAGE}, True, ["w"]), {}),
                         "ImageMetadataLists(catch_file='cache.json', lists={'web:1': "
                         "ImageMetadata(id='sha256:i', name='web', name_without_repo='web', "
                         "tag='1', total_size=10, l_meta=[LayerMetadata(size=10, "
                         "layer='sha256:a')])}, stale=True, warnings=['w'])"),
    RegistryConfig: ((("http://r:5000/", 2.0, "c.json", "tok123", "me", "hunter2"), {}),
                     "RegistryConfig(base_url='http://r:5000', poll_interval=2.0, "
                     "cache_path='c.json', username='me')"),
    WorkloadSpec: ((("random", 5, {"web:1": 1.0}, (1, 2), (3, 4), 7, None), {}),
                   "WorkloadSpec(kind='random', count=5, image_weights={'web:1': 1.0}, "
                   "cpu_range=(1, 2), mem_range=(3, 4), seed=7, trace_path=None)"),
    Scenario: ((([SPEC], CATALOG, WorkloadSpec(count=1)), {"label": "x"}),
               "Scenario(nodes=[NodeSpec(id='n0', cpu_capacity=4000, mem_capacity=2048, "
               "bandwidth=100, storage_capacity=10000, max_containers=110)], "
               "catalog=LayerCatalog(layers={'sha256:a': 10}, images={ImageRef(name='web', "
               "tag='1'): ('sha256:a',)}), workload=WorkloadSpec(kind='random', count=1, "
               "image_weights=None, cpu_range=(100, 1000), mem_range=(67108864, "
               "1073741824), seed=0, trace_path=None), scheduler=SchedulerConfig("
               "policy='lr_dynamic', weight_policy=WeightPolicy(mode='dynamic', "
               "omega_static=4.0, omega_high=2.0, omega_low=0.5, h_size=10485760, "
               "h_cpu=0.6, h_std=0.16, custom_table=mappingproxy({})), plugins="
               "PluginConfig(least_allocated=1.0, balanced_allocation=1.0, "
               "image_locality=1.0), tie_break='lowest_node_id'), preloaded={}, seed=0, "
               "bandwidth_override=None, label='x')"),
    StepMetrics: (((0, "t0", "n0", 10, 0.1, 0.25, {"n0": {"cpu": 0.5}}), {}),
                  "StepMetrics(step=0, task_id='t0', node_id='n0', download_bytes=10, "
                  "download_seconds=0.1, cluster_std=0.25, node_usage={'n0': {'cpu': 0.5}})"),
    SimulationReport: ((("f", "default", "d", [STEP], 10, [10], 0.1, 0.25, {"n0": 1}, 1, 0,
                         {"n0": {"cpu": 0.5}}), {}),
                       "SimulationReport(scenario_fingerprint='f', policy='default', "
                       "label='d', steps=[StepMetrics(step=0, task_id='t0', node_id='n0', "
                       "download_bytes=10, download_seconds=0.1, cluster_std=0.25, "
                       "node_usage={'n0': {'cpu': 0.5}})], total_download_bytes=10, "
                       "cumulative_download_bytes=[10], total_download_seconds=0.1, "
                       "mean_cluster_std=0.25, max_pods={'n0': 1}, total_pods=1, "
                       "unschedulable_count=0, final_usage={'n0': {'cpu': 0.5}})"),
    MaxPodsResult: ((({"n0": 3}, 3, "t4"), {}),
                    "MaxPodsResult(per_node={'n0': 3}, total=3, stopped_by='t4')"),
    SchedulerEntry: ((("x", SchedulerConfig("default")), {}),
                     "SchedulerEntry(label='x', config=SchedulerConfig(policy='default', "
                     "weight_policy=WeightPolicy(mode='dynamic', omega_static=4.0, "
                     "omega_high=2.0, omega_low=0.5, h_size=10485760, h_cpu=0.6, "
                     "h_std=0.16, custom_table=mappingproxy({})), plugins=PluginConfig("
                     "least_allocated=1.0, balanced_allocation=1.0, image_locality=1.0), "
                     "tie_break='lowest_node_id'))"),
    CatalogSource: (((None, "cache.json"), {}),
                    "CatalogSource(inline=None, cache_file='cache.json', registry_url=None)"),
    Sweeps: ((([1], [2]), {}), "Sweeps(bandwidth=[1], node_count=[2])"),
    ScenarioFile: ((([SPEC], {"n0": ["sha256:a"]}, {}, CatalogSource(inline=CATALOG),
                     WorkloadSpec(count=1), [], Sweeps(), [0], "out", Path(".")), {}),
                   None),  # its repr nests the others'; pinned below by its fields only
}

FROZEN = {ImageRef, NodeSpec, TaskRequest, NodeState, PluginConfig, WeightPolicy,
          ScoreBreakdown, SchedulerConfig, FilterVerdict, Placement, Unschedulable}
# Attributes an instance holds beyond its fields.
EXTRA = {ImageRef: ["_hash"]}
UNCOMPARED = {ImageMetadataLists: ("catch_file", "stale", "warnings")}
# Frozen, but holding an unhashable field: a catalog, or the weight table's
# mapping proxy.
UNHASHABLE = {Placement, Unschedulable, WeightPolicy, SchedulerConfig}

TYPES = sorted(CASES, key=lambda cls: cls.__name__)


def build(cls):
    args, kwargs = CASES[cls][0]
    return cls(*args, **kwargs)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_repr(self, cls):
        expected = CASES[cls][1]
        if expected is not None:
            assert repr(build(cls)) == expected

    def test_vars_hold_the_fields_in_signature_order(self, cls):
        names = cls._fields
        assert list(inspect.signature(cls).parameters) == list(names)
        assert list(vars(build(cls))) == [*names, *EXTRA.get(cls, [])]

    def test_positional_and_keyword_construction_agree(self, cls):
        record = build(cls)
        by_keyword = cls(**{name: getattr(record, name) for name in cls._fields})
        assert by_keyword == record and not by_keyword != record

    def test_equality_is_by_compared_fields_and_same_type_only(self, cls):
        record = build(cls)
        uncompared = UNCOMPARED.get(cls, ())
        for name in cls._fields:
            value = _other_value(cls, name, getattr(record, name))
            if value is TIED:
                continue
            other = replace(record, **{name: value})
            if name in uncompared:
                assert other == record, name
            else:
                assert other != record and not other == record, name
        assert record.__eq__(object()) is NotImplemented
        assert record != tuple(getattr(record, name) for name in cls._fields)

    def test_hashing(self, cls):
        if cls in FROZEN and cls not in UNHASHABLE:
            assert hash(build(cls)) == hash(build(cls))
            assert len({build(cls), build(cls)}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(build(cls))

    def test_assignment(self, cls):
        record = build(cls)
        name = cls._fields[0]
        value = getattr(record, name)
        if cls in FROZEN:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
                record.extra = 1
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
            assert getattr(record, name) is value
        else:
            setattr(record, name, value)
            assert record == build(cls)

    def test_replace_copies_through_the_constructor(self, cls):
        record = build(cls)
        copy = replace(record)
        assert copy == record and copy is not record
        if CASES[cls][1] is not None:
            assert repr(copy) == repr(record)
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)


TIED = object()  # a field that cannot change alone and still pass the checks


def _other_value(cls, name, value):
    """A value for field ``name`` of ``cls`` that differs from ``value`` and
    passes the constructor's checks, or :data:`TIED`."""
    special = {
        (ImageMetadata, "total_size"): TIED,  # the sum of the layer sizes
        (ImageMetadata, "l_meta"): [LayerMetadata(4, "sha256:b"), LayerMetadata(6, "sha256:c")],
        (WorkloadSpec, "kind"): TIED,  # a trace_file workload needs a trace_path
        (ImageMetadataLists, "lists"): {},
        (WeightPolicy, "mode"): "dynamic",
        (WeightPolicy, "omega_high"): 1.5,
        (WeightPolicy, "omega_low"): 0.25,
        (WeightPolicy, "h_cpu"): 0.5,
        (WeightPolicy, "h_std"): 0.1,
        (WeightPolicy, "custom_table"): {0: 1.0, 1: 1.0, 2: 1.0, 3: 3.0},
        (SchedulerConfig, "plugins"): PluginConfig(image_locality=None),
        (SchedulerConfig, "policy"): "default",
        (SchedulerConfig, "weight_policy"): WeightPolicy(mode="dynamic"),
        (SchedulerConfig, "tie_break"): "random_seeded",
        (WorkloadSpec, "image_weights"): None,
        (WorkloadSpec, "trace_path"): "trace.jsonl",
        (LayerCatalog, "layers"): {**CATALOG.layers, "sha256:b": 5},
        (LayerCatalog, "images"): {},
        (RegistryConfig, "base_url"): "http://other",
        (FilterVerdict, "feasible"): True,
        (NodeState, "spec"): replace(SPEC, id="n1"),
        (NodeState, "running"): (),
        (ScenarioFile, "catalog_source"): CatalogSource(cache_file="c.json"),
        (ScenarioFile, "base_dir"): Path("elsewhere"),
        (ImageMetadataLists, "stale"): False,
        (CatalogSource, "inline"): CATALOG,
        (SchedulerEntry, "config"): SchedulerConfig("lr_dynamic"),
    }
    if (cls, name) in special:
        return special[cls, name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)) and not math.isnan(value):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, ImageRef):
        return ImageRef("db", "1")
    if isinstance(value, TaskRequest):
        return replace(value, task_id="t9")
    if isinstance(value, tuple) and len(value) == 2 and cls is WorkloadSpec:
        return (value[0], value[1] + 1)
    if isinstance(value, tuple) and value and isinstance(value[0], NodeState):
        return ()
    if isinstance(value, (list, dict, frozenset, tuple)):
        return type(value)() if value else type(value)({"x": 1})
    if value is None:
        return {(RegistryConfig, "token"): "t", (RegistryConfig, "username"): "u",
                (RegistryConfig, "password"): "p", (PluginConfig, "balanced_allocation"): 1.0,
                (FilterVerdict, "rejected_by"): "cpu_fit",
                (Scenario, "bandwidth_override"): 5,
                (CatalogSource, "registry_url"): "http://r"}.get((cls, name), "x")
    if isinstance(value, LayerCatalog):
        return LayerCatalog()
    if isinstance(value, WorkloadSpec):
        return WorkloadSpec(count=2)
    if isinstance(value, SchedulerConfig):
        return SchedulerConfig("default")
    if isinstance(value, Sweeps):
        return Sweeps([1])
    if isinstance(value, CatalogSource):
        return CatalogSource(cache_file="c.json")
    raise AssertionError(f"no other value for {cls.__name__}.{name}")


class TestChecksRunAgain:
    """``replace`` goes through the constructor, so a changed field meets the
    same checks a new record does."""

    def test_negative_commitment(self):
        with pytest.raises(ValueError, match="^node n0: cpu_committed must be finite and >= 0$"):
            replace(NodeState(SPEC), cpu_committed=-1)

    def test_request(self):
        with pytest.raises(ValueError, match="cpu_request must be finite and > 0"):
            replace(TASK, cpu_request=0)

    def test_capacity(self):
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            replace(SPEC, bandwidth=float("inf"))

    def test_empty_tag(self):
        with pytest.raises(ValueError, match="non-empty"):
            replace(WEB, tag="")

    def test_weights(self):
        with pytest.raises(ValueError, match="omega_high >= omega_low"):
            replace(WeightPolicy(), omega_low=3.0)

    def test_workload(self):
        with pytest.raises(ValueError, match="trace_file workload needs trace_path"):
            replace(WorkloadSpec(), kind="trace_file")

    def test_registry_config_strips_the_url_again(self):
        config = replace(RegistryConfig("http://r"), base_url="http://s///")
        assert config.base_url == "http://s"

    def test_weight_table_is_copied_again(self):
        table = {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0}
        policy = WeightPolicy(mode="custom", custom_table=table)
        copy = replace(policy)
        assert copy.custom_table == table and copy.custom_table is not policy.custom_table
        with pytest.raises(TypeError):
            copy.custom_table[0] = 5.0


def test_image_ref_hash_is_the_hash_of_its_pair():
    assert hash(WEB) == hash(("web", "1")) == hash(replace(WEB))


def test_registry_config_repr_hides_the_secrets():
    config = RegistryConfig("http://r", token="tok123", username="me", password="hunter2")
    assert "tok123" not in repr(config) and "hunter2" not in repr(config)
    assert "username='me'" in repr(config)
    # The secrets still take part in equality.
    assert config != replace(config, token="other")
    assert config != replace(config, password="other")
