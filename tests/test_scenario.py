"""Scenario file parsing: units, strict keys, catalog sources, assembly."""

import copy
import json
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersched.errors import LayerSchedError, ScenarioError
from layersched.fake_registry import FakeRegistry, bundled_images
from layersched.model import ImageRef
from layersched.registry import RegistryConfig, refresh_cache
from layersched.scenario import (
    BUNDLED_SCENARIOS,
    build_scenario,
    bundled_scenario_path,
    parse_cpu,
    parse_scenario_data,
    parse_scenario_file,
    parse_size,
    resolve_catalog,
)
from layersched.scoring import MB
from layersched.simulator import replay
from layersched.workload import stream

GB = 1024 ** 3

MINIMAL = {
    "nodes": [
        {"id": "node-0", "cpu": "4", "memory": "4GB",
         "bandwidth": "10MB", "storage": "30GB"},
        {"id": "node-1", "cpu": 4000, "memory": 4 * GB,
         "bandwidth": 10 * MB, "storage": 30 * GB},
    ],
    "catalog": {
        "layers": {"sha256:a": "30MB", "sha256:b": "70MB"},
        "images": {"web:1": ["sha256:a", "sha256:b"]},
    },
    "workload": {"count": 5},
}


def data(**overrides) -> dict:
    merged = copy.deepcopy(MINIMAL)
    merged.update(overrides)
    return merged


class TestParseSize:
    @pytest.mark.parametrize("value,expected", [
        (0, 0),
        (0.0, 0),
        (1536, 1536),
        (2.0, 2),
        ("123", 123),
        ("10KB", 10 * 1024),
        ("200MB", 200 * MB),
        ("1.5GB", 1536 * MB),
        ("2tb", 2 * 1024 ** 4),
        (" 64 MB ", 64 * MB),
    ])
    def test_accepted(self, value, expected):
        assert parse_size(value, "x") == expected

    @pytest.mark.parametrize("value", [
        True, -1, 1.5, "1.5B", "0.001MB", "abc", "12 QB", None,
        float("inf"), float("nan"), pytest.param("1" + "0" * 400, id="401-digits"),
        pytest.param(10 ** 400, id="int-beyond-float"),
    ])
    def test_rejected(self, value):
        with pytest.raises(ScenarioError):
            parse_size(value, "x")


class TestParseCpu:
    @pytest.mark.parametrize("value,expected", [
        (500, 500),
        ("500m", 500),
        ("2", 2000),
        ("1.5", 1500),
        ("0.25", 250),
    ])
    def test_accepted(self, value, expected):
        assert parse_cpu(value, "x") == expected

    @pytest.mark.parametrize("value", [
        True, 0, -3, "0m", "-100m", "0.0005", "abc", "m", None,
        "inf", "nan", "1e999", pytest.param(10 ** 400, id="int-beyond-float"),
        pytest.param(4000.0, id="json-float-4000.0"), pytest.param(1.5, id="json-float-1.5"),
        pytest.param("1" + "0" * 400 + "m", id="millicores-beyond-float"),
    ])
    def test_rejected(self, value):
        with pytest.raises(ScenarioError):
            parse_cpu(value, "x")


class TestParse:
    def test_minimal_defaults(self):
        sfile = parse_scenario_data(data())
        assert [n.id for n in sfile.nodes] == ["node-0", "node-1"]
        assert sfile.nodes[0].cpu_capacity == 4000
        assert sfile.nodes[0].mem_capacity == 4 * GB
        assert [s.label for s in sfile.schedulers] == \
            ["default", "layer_static", "lr_dynamic"]
        assert sfile.seeds == [0]
        assert sfile.output == "out"
        assert sfile.sweeps.bandwidth == [] and sfile.sweeps.node_count == []

    def test_inline_catalog_units(self):
        sfile = parse_scenario_data(data())
        catalog = resolve_catalog(sfile)
        assert catalog.layers["sha256:a"] == 30 * MB
        assert catalog.images[ImageRef("web", "1")] == ("sha256:a", "sha256:b")

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.update(nodez=[]), "nodez"),
        (lambda d: d["nodes"][0].update(disk="1GB"), "nodes[0].disk"),
        (lambda d: d["workload"].update(jitter=1), "workload.jitter"),
        (lambda d: d.update(sweeps={"latency": [1]}), "sweeps.latency"),
    ])
    def test_unknown_keys_point_at_the_field(self, mutate, field):
        bad = data()
        mutate(bad)
        with pytest.raises(ScenarioError) as err:
            parse_scenario_data(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["nodes"][0].update(memory=0), "nodes[0].memory"),
        (lambda d: d["nodes"][0].update(bandwidth=0), "nodes[0].bandwidth"),
        (lambda d: d["nodes"][1].update(storage="0GB"), "nodes[1].storage"),
        (lambda d: d["nodes"][0].update(max_containers=0), "nodes[0].max_containers"),
        (lambda d: d["nodes"][0].update(cpu="0"), "nodes[0].cpu"),
        (lambda d: d["catalog"]["layers"].update({"sha256:a": 0}),
         "catalog.layers.sha256:a"),
    ])
    def test_non_positive_values_point_at_the_field(self, mutate, field):
        bad = data()
        mutate(bad)
        with pytest.raises(ScenarioError) as err:
            parse_scenario_data(bad)
        assert err.value.field == field

    def test_boundary_values_accepted(self):
        good = data(workload={"images": {"web:1": 1, "db:1": 0}})
        good["nodes"][0]["max_containers"] = 1
        sfile = parse_scenario_data(good)
        assert sfile.nodes[0].max_containers == 1
        assert sfile.workload.image_weights == {"web:1": 1.0, "db:1": 0.0}

    def test_a_root_that_is_not_an_object_is_named(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_data([])
        assert (err.value.field, str(err.value)) == ("<root>", "<root>: expected an object")

    def test_both_catalog_and_registry_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(registry="http://x"))
        bad = data()
        del bad["catalog"]
        with pytest.raises(ScenarioError):
            parse_scenario_data(bad)

    def test_duplicate_node_ids_rejected(self):
        bad = data()
        bad["nodes"][1]["id"] = "node-0"
        with pytest.raises(ScenarioError) as err:
            parse_scenario_data(bad)
        assert err.value.field == "nodes"

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(seeds=[1, 1]))

    def test_duplicate_scheduler_labels_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(schedulers=["default", "default"]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(schedulers=["round_robin"]))

    def test_scheduler_object_with_overrides(self):
        sfile = parse_scenario_data(data(schedulers=[
            {"policy": "lr_dynamic", "label": "tuned",
             "weights": {"omega_high": 3, "h_size": "25MB"},
             "plugins": {"image_locality": None}},
        ]))
        entry = sfile.schedulers[0]
        assert entry.label == "tuned"
        assert entry.config.weight_policy.omega_high == 3.0
        assert entry.config.weight_policy.h_size == 25 * MB
        assert entry.config.plugins.image_locality is None

    def test_custom_table_needs_digit_keys(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(schedulers=[
                {"policy": "lr_dynamic",
                 "weights": {"mode": "custom", "custom_table": {"low": 1}}},
            ]))

    def test_static_mode_under_lr_dynamic_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(schedulers=[
                {"policy": "lr_dynamic", "weights": {"mode": "static"}},
            ]))

    def test_trace_workload_requires_path(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(data(workload={"kind": "trace_file"}))

    def test_workload_range_order_checked(self):
        with pytest.raises(ScenarioError):
            parse_scenario_data(
                data(workload={"cpu_request": ["1000m", "100m"]}))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data()))
        sfile = parse_scenario_file(path)
        assert sfile.base_dir == tmp_path

    def test_invalid_json_reports_the_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        # The second holds an integer of more digits than int() converts.
        for text in ("{nope", '{"seeds": [1' + "0" * 5000 + "]}"):
            path.write_text(text)
            with pytest.raises(ScenarioError) as err:
                parse_scenario_file(path)
            assert "scenario.json" in err.value.field

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario_file(tmp_path / "absent.json")


class TestCatalogSources:
    def test_cache_file_resolves_against_base_dir(self, tmp_path):
        registry = FakeRegistry(bundled_images())
        with registry:
            config = RegistryConfig(base_url=registry.url,
                                    cache_path=str(tmp_path / "cache.json"))
            refresh_cache(config)
        sfile = parse_scenario_data(
            data(catalog={"cache_file": "cache.json"}), base_dir=tmp_path)
        catalog = resolve_catalog(sfile)
        assert len(catalog.layers) == 4
        assert ImageRef("alpine-web", "1.0") in catalog.images

    def test_registry_source_walks_the_api(self):
        raw = data()
        del raw["catalog"]
        with FakeRegistry(bundled_images()) as registry:
            raw["registry"] = registry.url
            sfile = parse_scenario_data(raw)
            catalog = resolve_catalog(sfile)
        assert len(catalog.images) == 3
        assert catalog.layers["sha256:base0000"] == 5 * MB

    def test_flag_url_overrides_file_url(self):
        raw = data()
        del raw["catalog"]
        raw["registry"] = "http://127.0.0.1:1"  # unreachable on purpose
        sfile = parse_scenario_data(raw)
        with FakeRegistry(bundled_images()) as registry:
            catalog = resolve_catalog(sfile, registry_url=registry.url)
        assert len(catalog.images) == 3


class TestBuildScenario:
    def build(self, raw=None, **kwargs):
        sfile = parse_scenario_data(raw or data())
        catalog = resolve_catalog(sfile)
        entry = sfile.schedulers[0]
        return build_scenario(sfile, catalog, entry, seed=7, **kwargs)

    def test_basic_assembly(self):
        scenario = self.build()
        assert scenario.seed == 7
        assert scenario.label == "default"
        assert len(scenario.nodes) == 2

    def test_node_count_takes_a_prefix(self):
        scenario = self.build(node_count=1)
        assert [n.id for n in scenario.nodes] == ["node-0"]

    def test_node_count_out_of_range(self):
        with pytest.raises(ScenarioError):
            self.build(node_count=3)

    def test_bandwidth_override_carried(self):
        from layersched.simulator import initial_nodes
        scenario = self.build(bandwidth_override=5 * MB)
        assert scenario.bandwidth_override == 5 * MB
        assert all(node.spec.bandwidth == 5 * MB
                   for node in initial_nodes(scenario))

    def test_preloaded_images_expand_and_dedup(self):
        raw = data()
        raw["nodes"][0]["preloaded_layers"] = ["sha256:a"]
        raw["nodes"][0]["preloaded_images"] = ["web:1"]
        scenario = self.build(raw)
        assert scenario.preloaded["node-0"] == ("sha256:a", "sha256:b")

    def test_preloaded_unknown_image_rejected(self):
        raw = data()
        raw["nodes"][0]["preloaded_images"] = ["ghost:9"]
        with pytest.raises(ScenarioError) as err:
            self.build(raw)
        assert "ghost:9" in str(err.value)

    def test_preloads_dropped_with_their_node(self):
        raw = data()
        raw["nodes"][1]["preloaded_images"] = ["web:1"]
        scenario = self.build(raw, node_count=1)
        assert scenario.preloaded == {}

    def test_empty_catalog_names_its_source(self, tmp_path):
        (tmp_path / "empty.json").write_text("{}")
        cached = data(catalog={"cache_file": "empty.json"})
        live = data()
        del live["catalog"]
        with FakeRegistry([]) as registry:
            live["registry"] = registry.url
            for raw, field in [(cached, "catalog.cache_file"), (live, "registry")]:
                sfile = parse_scenario_data(raw, base_dir=tmp_path)
                with pytest.raises(ScenarioError) as err:
                    build_scenario(sfile, resolve_catalog(sfile), sfile.schedulers[0], 0)
                assert err.value.field == field

    def test_trace_path_resolves_against_base_dir(self, tmp_path):
        trace = tmp_path / "work.jsonl"
        trace.write_text(json.dumps({
            "task_id": "t1", "image_name": "web", "image_tag": "1",
            "cpu_millicores": 100, "mem_bytes": MB,
        }) + "\n")
        raw = data(workload={"kind": "trace_file", "trace_file": "work.jsonl"})
        sfile = parse_scenario_data(raw, base_dir=tmp_path)
        catalog = resolve_catalog(sfile)
        scenario = build_scenario(sfile, catalog, sfile.schedulers[0], seed=0)
        assert scenario.workload.trace_path == str(trace)


class TestBundledScenarios:
    """Scenario files shipped inside the package parse and build as-is."""

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_bundle_parses_and_builds(self, name):
        sfile = parse_scenario_file(bundled_scenario_path(name))
        catalog = resolve_catalog(sfile)
        for entry in sfile.schedulers:
            scenario = build_scenario(sfile, catalog, entry, sfile.seeds[0])
            assert scenario.label == entry.label
        assert len(sfile.seeds) == 20

    def test_unknown_bundle_name(self):
        with pytest.raises(ScenarioError) as err:
            bundled_scenario_path("no_such_bundle")
        assert "shared_layers" in str(err.value)


def _bundled_documents() -> list[dict]:
    """Each bundled scenario as JSON, and again with its schedulers written
    out as objects, so mutations also reach weights, plugins and tie-breaks."""
    docs = [json.loads(bundled_scenario_path(name).read_text())
            for name in BUNDLED_SCENARIOS]
    spelled_out = [
        {"policy": "default",
         "plugins": {"least_allocated": 1, "balanced_allocation": 1.5,
                     "image_locality": None}},
        {"policy": "layer_static", "tie_break": "random_seeded",
         "weights": {"mode": "static", "omega_static": 4}},
        {"policy": "lr_dynamic", "label": "custom",
         "weights": {"mode": "custom", "h_size": "10MB", "h_cpu": 0.6, "h_std": 0.16,
                     "omega_high": 2, "omega_low": 0.5,
                     "custom_table": {"0": 0.5, "1": 1, "2": 1.5, "3": 2}}},
    ]
    return docs + [{**copy.deepcopy(doc), "schedulers": spelled_out} for doc in docs]


def _paths(node, prefix=()) -> list[tuple]:
    """The path (keys and indexes from the root) of every value in ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(_paths(value, prefix + (key,)))
    return paths


FUZZ_DOCUMENTS = _bundled_documents()
FUZZ_TASKS = max(doc["workload"]["count"] for doc in FUZZ_DOCUMENTS)
# No generated dict key is long enough to be "registry", so no mutation
# points a scenario at a network registry.
FUZZ_VALUES = st.one_of(
    st.integers(), st.integers(max_value=-1), st.floats(),
    st.sampled_from(["inf", "nan", "-inf", "1e999", 10 ** 400, -10 ** 400]),
    st.booleans(), st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


def _builds_or_raises_a_layersched_error(doc):
    """Parse ``doc``, build each of its schedulers and replay the first on
    its trace when that is no longer than a bundled one; only a
    ``LayerSchedError`` may end it early."""
    assert "registry" not in doc
    try:
        sfile = parse_scenario_data(
            doc, base_dir=bundled_scenario_path(BUNDLED_SCENARIOS[0]).parent)
        catalog = resolve_catalog(sfile)
        scenarios = [build_scenario(sfile, catalog, entry, sfile.seeds[0])
                     for entry in sfile.schedulers]
        # generate's trace, cut one task past the longest bundled one: islice
        # takes the count as generate does, and a longer trace is not replayed.
        workload = scenarios[0].workload
        tasks = list(islice(islice(stream(workload, catalog), workload.count),
                            FUZZ_TASKS + 1))
        if len(tasks) <= FUZZ_TASKS:
            replay(scenarios[0], tasks)
    except LayerSchedError:
        pass


def _parent(doc, path: tuple):
    """The container in ``doc`` that holds the value at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_bundle_builds_or_raises_a_layersched_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCUMENTS)))
    path = data.draw(st.sampled_from(_paths(doc)))
    parent = _parent(doc, path)
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(FUZZ_VALUES)
    _builds_or_raises_a_layersched_error(doc)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
def test_every_value_beyond_the_float_range_builds_or_raises_a_layersched_error(value):
    # The draws above reach a given path with a given value rarely; this
    # puts each int beyond the float range at every path of every document.
    for original in FUZZ_DOCUMENTS:
        for path in _paths(original):
            doc = copy.deepcopy(original)
            _parent(doc, path)[path[-1]] = value
            _builds_or_raises_a_layersched_error(doc)
