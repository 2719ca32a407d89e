"""Simulation runs: metrics, conservation laws, max-pods, comparisons."""

import csv
import json
import random
from dataclasses import replace

import pytest

from layersched import cli
from layersched.errors import ComparisonError, ScenarioError
from layersched.model import ImageRef, LayerCatalog, NodeSpec, TaskRequest
from layersched.scenario import (
    BUNDLED_SCENARIOS,
    build_scenario,
    bundled_scenario_path,
    parse_scenario_file,
    resolve_catalog,
)
from layersched.scheduler import POLICIES, SchedulerConfig
from layersched.scoring import MB, WeightPolicy
from layersched.simulator import (
    AGGREGATES,
    CSV_HEADER,
    Scenario,
    compare,
    fingerprint,
    max_pods,
    ordered_sum,
    run,
    write_report_json,
    write_steps_csv,
)
from layersched.workload import WorkloadSpec, save_trace

GB = 1024 ** 3


def single_image_catalog():
    return LayerCatalog(
        layers={"sha256:a": 30 * MB, "sha256:b": 70 * MB},
        images={ImageRef("web", "1"): ("sha256:a", "sha256:b")},
    )


def ample_node(node_id="node-0", **overrides) -> NodeSpec:
    defaults = dict(cpu_capacity=4000, mem_capacity=4 * GB,
                    bandwidth=10 * MB, storage_capacity=30 * GB)
    defaults.update(overrides)
    return NodeSpec(id=node_id, **defaults)


def scenario_for(catalog, nodes, workload, policy="default", **kwargs) -> Scenario:
    return Scenario(nodes=nodes, catalog=catalog, workload=workload,
                    scheduler=SchedulerConfig(policy=policy), **kwargs)


class TestRun:
    def test_preseeded_image_downloads_nothing(self):
        catalog = single_image_catalog()
        scenario = scenario_for(
            catalog, [ample_node()], WorkloadSpec(count=1),
            preloaded={"node-0": ("sha256:a", "sha256:b")},
        )
        report = run(scenario)
        assert report.total_download_bytes == 0
        assert report.total_download_seconds == 0.0

    def test_download_seconds_is_size_over_bandwidth(self):
        catalog = single_image_catalog()  # 100MB image
        scenario = scenario_for(catalog, [ample_node(bandwidth=10 * MB)],
                                WorkloadSpec(count=1))
        report = run(scenario)
        assert report.total_download_bytes == 100 * MB
        assert report.total_download_seconds == 10.0

    def test_same_seed_identical_reports(self):
        catalog = single_image_catalog()
        make = lambda: scenario_for(catalog, [ample_node()],
                                    WorkloadSpec(count=15), seed=4)
        assert run(make()) == run(make())

    def test_cumulative_is_prefix_sum_and_nondecreasing(self):
        catalog = single_image_catalog()
        scenario = scenario_for(catalog, [ample_node()], WorkloadSpec(count=10))
        report = run(scenario)
        total = 0
        for step, cumulative in zip(report.steps, report.cumulative_download_bytes):
            total += step.download_bytes
            assert cumulative == total
        assert report.cumulative_download_bytes == \
            sorted(report.cumulative_download_bytes)

    def test_conservation_per_node(self):
        # bytes of layers a node gains over the run == downloads billed to it
        rng = random.Random(0)
        catalog = LayerCatalog(
            layers={f"sha256:l{i}": rng.randint(1, 50) * MB for i in range(6)},
            images={
                ImageRef("a", "1"): ("sha256:l0", "sha256:l1"),
                ImageRef("b", "1"): ("sha256:l1", "sha256:l2", "sha256:l3"),
                ImageRef("c", "1"): ("sha256:l4", "sha256:l5"),
            },
        )
        nodes = [ample_node(f"node-{i}") for i in range(3)]
        scenario = scenario_for(catalog, nodes, WorkloadSpec(count=25), seed=9,
                                policy="lr_dynamic")
        report = run(scenario)
        billed = {spec.id: 0 for spec in nodes}
        for step in report.steps:
            if step.node_id is not None:
                billed[step.node_id] += step.download_bytes
        for spec in nodes:
            gained = report.final_usage[spec.id]["disk"] * spec.storage_capacity
            assert round(gained) == billed[spec.id]

    def test_disjoint_distinct_images_download_everything(self, tmp_path):
        # no layer shared between any two tasks: the default policy total is
        # the plain sum of scheduled image sizes
        layers = {f"sha256:d{i}": (i + 1) * 10 * MB for i in range(6)}
        catalog = LayerCatalog(
            layers=layers,
            images={ImageRef(f"img-{i}", "1"): (f"sha256:d{i}",)
                    for i in range(6)},
        )
        tasks = [TaskRequest(task_id=f"t{i}", image=ImageRef(f"img-{i}", "1"),
                             cpu_request=100, mem_request=MB)
                 for i in range(6)]
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        workload = WorkloadSpec(kind="trace_file", trace_path=str(path))
        nodes = [ample_node(f"node-{i}") for i in range(3)]
        report = run(scenario_for(catalog, nodes, workload))
        assert report.total_download_bytes == sum(layers.values())

    def test_bandwidth_halving_doubles_seconds_only(self):
        catalog = single_image_catalog()
        nodes = [ample_node(f"node-{i}") for i in range(3)]
        base = scenario_for(catalog, nodes, WorkloadSpec(count=12), seed=3,
                            policy="lr_dynamic", bandwidth_override=10 * MB)
        halved = scenario_for(catalog, nodes, WorkloadSpec(count=12), seed=3,
                              policy="lr_dynamic", bandwidth_override=5 * MB)
        a, b = run(base), run(halved)
        assert [s.node_id for s in a.steps] == [s.node_id for s in b.steps]
        assert a.total_download_bytes == b.total_download_bytes
        for fast, slow in zip(a.steps, b.steps):
            assert slow.download_seconds == 2 * fast.download_seconds

    def test_invalid_scenario_names_field(self):
        catalog = single_image_catalog()
        scenario = scenario_for(catalog, [ample_node()], WorkloadSpec(count=1),
                                preloaded={"ghost": ("sha256:a",)})
        with pytest.raises(ScenarioError) as err:
            run(scenario)
        assert "ghost" in err.value.field

    @pytest.mark.parametrize("nodes, kwargs, field, message", [
        ([ample_node("n"), ample_node("n")], {}, "nodes", "node ids must be unique"),
        ([ample_node()], {"bandwidth_override": 0}, "bandwidth_override", "must be > 0"),
    ], ids=["duplicate-ids", "zero-bandwidth"])
    def test_validate_refuses(self, nodes, kwargs, field, message):
        scenario = scenario_for(single_image_catalog(), nodes, WorkloadSpec(count=1), **kwargs)
        with pytest.raises(ScenarioError) as err:
            run(scenario)
        assert (err.value.field, str(err.value)) == (field, f"{field}: {message}")


class TestMaxPods:
    def test_container_limit_binds(self):
        catalog = single_image_catalog()
        node = ample_node(max_containers=3, cpu_capacity=10 ** 9,
                          mem_capacity=10 ** 15, storage_capacity=10 ** 15)
        scenario = scenario_for(catalog, [node],
                                WorkloadSpec(count=1, cpu_range=(100, 100),
                                             mem_range=(MB, MB)))
        result = max_pods(scenario)
        assert result.total == 3
        assert result.per_node == {"node-0": 3}

    def test_storage_binds_on_distinct_images(self):
        # storage fits exactly two 10MB disjoint images; the run stops the
        # first time a third distinct image is drawn
        catalog = LayerCatalog(
            layers={"sha256:a": 10 * MB, "sha256:b": 10 * MB,
                    "sha256:c": 10 * MB},
            images={ImageRef("a", "1"): ("sha256:a",),
                    ImageRef("b", "1"): ("sha256:b",),
                    ImageRef("c", "1"): ("sha256:c",)},
        )
        node = ample_node(storage_capacity=20 * MB, cpu_capacity=10 ** 9,
                          mem_capacity=10 ** 15)
        workload = WorkloadSpec(count=1, cpu_range=(1, 1), mem_range=(0, 0))
        scenario = scenario_for(catalog, [node], workload, seed=0)
        result = max_pods(scenario)
        assert result.total >= 2
        assert result.per_node["node-0"] == result.total
        assert result.stopped_by.startswith("task-")

    def test_shared_catalog_fits_at_least_as_many_as_disjoint(self):
        shared = LayerCatalog(
            layers={"sha256:base": 40 * MB, "sha256:x": 10 * MB,
                    "sha256:y": 10 * MB},
            images={ImageRef("x", "1"): ("sha256:base", "sha256:x"),
                    ImageRef("y", "1"): ("sha256:base", "sha256:y")},
        )
        disjoint = LayerCatalog(
            layers={"sha256:x1": 40 * MB, "sha256:x2": 10 * MB,
                    "sha256:y1": 40 * MB, "sha256:y2": 10 * MB},
            images={ImageRef("x", "1"): ("sha256:x1", "sha256:x2"),
                    ImageRef("y", "1"): ("sha256:y1", "sha256:y2")},
        )
        node_args = dict(storage_capacity=150 * MB, cpu_capacity=10 ** 9,
                         mem_capacity=10 ** 15)
        workload = WorkloadSpec(count=1, cpu_range=(1, 1), mem_range=(0, 0))
        for seed in range(10):
            with_sharing = max_pods(scenario_for(
                shared, [ample_node(**node_args)], workload,
                policy="lr_dynamic", seed=seed))
            without = max_pods(scenario_for(
                disjoint, [ample_node(**node_args)], workload,
                policy="lr_dynamic", seed=seed))
            assert with_sharing.total >= without.total

    def test_trace_file_workload_refused(self, tmp_path):
        workload = WorkloadSpec(kind="trace_file", trace_path=str(tmp_path / "trace.json"))
        scenario = scenario_for(single_image_catalog(), [ample_node()], workload)
        with pytest.raises(ScenarioError) as err:
            max_pods(scenario)
        assert err.value.field == "workload.kind"
        assert str(err.value) == "workload.kind: max_pods needs a random workload generator"

    def test_unbounded_scenario_hits_the_guard(self):
        catalog = single_image_catalog()
        node = ample_node(cpu_capacity=10 ** 9, mem_capacity=10 ** 15,
                          storage_capacity=10 ** 15, max_containers=10 ** 6)
        scenario = scenario_for(catalog, [node],
                                WorkloadSpec(count=1, cpu_range=(1, 1),
                                             mem_range=(0, 0)))
        with pytest.raises(ScenarioError):
            max_pods(scenario, limit=500)


class TestCompare:
    @staticmethod
    def make(nodes=2):
        return Scenario(nodes=[ample_node(f"node-{i}") for i in range(nodes)],
                        catalog=single_image_catalog(), workload=WorkloadSpec(count=10))

    @staticmethod
    def configs(*policies):
        return {policy: SchedulerConfig(policy=policy) for policy in policies}

    def test_identical_policies_have_zero_deltas(self):
        table = compare(self.make(), {"a": SchedulerConfig(), "b": SchedulerConfig()},
                        [5])
        for metric, delta in table["deltas_pct"]["b"].items():
            assert delta == 0.0, metric

    def test_reference_prefers_default_label(self):
        table = compare(self.make(), self.configs("lr_dynamic", "default"), [5])
        assert table["reference"] == "default"
        assert table["schedulers"] == ["lr_dynamic", "default"]

    def test_reference_falls_back_to_the_first_label(self):
        table = compare(self.make(), self.configs("lr_dynamic", "layer_static"), [5])
        assert table["reference"] == "lr_dynamic"

    @pytest.mark.parametrize("schedulers, seeds", [({}, [1]), ({"a": SchedulerConfig()}, [])],
                             ids=["no-schedulers", "no-seeds"])
    def test_nothing_to_compare_rejected(self, schedulers, seeds):
        with pytest.raises(ComparisonError):
            compare(self.make(), schedulers, seeds)

    def test_invalid_scenario_names_field(self):
        with pytest.raises(ScenarioError, match="nodes"):
            compare(self.make(nodes=0), self.configs("default"), [1])

    def test_mean_folds_the_seeds_in_order(self):
        seeds = [3, 1, 2]
        table = compare(self.make(), self.configs("default", "lr_dynamic"), seeds)
        assert table["seeds"] == seeds
        for label in ("default", "lr_dynamic"):
            rows = table["results"][label]["per_seed"]
            assert [row["seed"] for row in rows] == seeds
            assert table["results"][label]["mean"] == {
                key: ordered_sum(row[key] for row in rows) / len(rows)
                for key in AGGREGATES}

    def test_layer_static_downloads_no_more_than_default(self):
        # holds when nodes are far from saturation, so layer affinity is
        # never overruled by packing pressure
        catalog = LayerCatalog(
            layers={"sha256:base": 50 * MB, "sha256:u": 5 * MB,
                    "sha256:v": 5 * MB},
            images={ImageRef("u", "1"): ("sha256:base", "sha256:u"),
                    ImageRef("v", "1"): ("sha256:base", "sha256:v")},
        )
        nodes = [ample_node(f"node-{i}", cpu_capacity=400_000,
                            mem_capacity=400 * GB) for i in range(3)]
        scenario = Scenario(nodes=nodes, catalog=catalog, workload=WorkloadSpec(count=20))
        table = compare(scenario, self.configs("default", "layer_static"), range(10))
        pairs = zip(table["results"]["layer_static"]["per_seed"],
                    table["results"]["default"]["per_seed"])
        for layered, default in pairs:
            assert layered["total_download_bytes"] <= default["total_download_bytes"]


def typed(aggregates: dict) -> dict:
    """``aggregates`` with each value paired with its type, so that ``==``
    tells the int ``0`` from ``0.0``."""
    return {name: (type(value), value) for name, value in aggregates.items()}


class TestCompareFoldsLikeRun:
    """A compare row folds to exactly the aggregates a full run reports."""

    @staticmethod
    def assert_rows_match_runs(scenario, schedulers, seeds):
        table = compare(scenario, schedulers, seeds)
        assert table["schedulers"] == list(schedulers)
        for label, config in schedulers.items():
            rows = table["results"][label]["per_seed"]
            assert len(rows) == len(seeds)
            for row, seed in zip(rows, seeds):
                leg = run(replace(scenario, scheduler=config, seed=seed))
                assert typed(row) == typed({"seed": seed, **leg.aggregates()}), (label, seed)
        return table

    @staticmethod
    def every_policy(tie_break="lowest_node_id"):
        return {policy: SchedulerConfig(policy=policy, tie_break=tie_break)
                for policy in POLICIES}

    @staticmethod
    def two_image_catalog():
        return LayerCatalog(
            layers={"sha256:base": 50 * MB, "sha256:u": 5 * MB, "sha256:v": 400 * MB},
            images={ImageRef("u", "1"): ("sha256:base", "sha256:u"),
                    ImageRef("v", "1"): ("sha256:base", "sha256:v")},
        )

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_bundled_scenarios_every_scheduler_and_seed(self, name):
        sfile = parse_scenario_file(bundled_scenario_path(name))
        catalog = resolve_catalog(sfile)
        scenario = build_scenario(sfile, catalog, sfile.schedulers[0], sfile.seeds[0])
        self.assert_rows_match_runs(
            scenario, {entry.label: entry.config for entry in sfile.schedulers},
            sfile.seeds)

    def test_random_seeded_tie_break(self):
        scenario = Scenario(nodes=[ample_node(f"node-{i}") for i in range(4)],
                            catalog=single_image_catalog(), workload=WorkloadSpec(count=25))
        self.assert_rows_match_runs(scenario, self.every_policy("random_seeded"), [3, 4])

    def test_weighted_workload_with_unschedulable_tasks(self):
        nodes = [ample_node(f"node-{i}", storage_capacity=1000 * MB, max_containers=6)
                 for i in range(3)]
        workload = WorkloadSpec(count=40, image_weights={"u:1": 0.7, "v:1": 0.3})
        scenario = Scenario(nodes=nodes, catalog=self.two_image_catalog(),
                            workload=workload, seed=3)
        assert run(scenario).unschedulable_count > 0
        self.assert_rows_match_runs(scenario, self.every_policy(), [3])

    def test_schedulers_whose_gate_thresholds_differ(self):
        # Every leg starts from a copy of one kernel built under the
        # scenario's own scheduler; each leg's gate must still be its own,
        # which shows first on the preloaded nodes, whose overlap is not 0.
        nodes = [ample_node(f"node-{i}", cpu_capacity=cpu,
                            storage_capacity=(i + 2) * 300 * MB, max_containers=8)
                 for i, cpu in enumerate([2000, 8000, 3000, 2500])]
        workload = WorkloadSpec(count=40, image_weights={"u:1": 0.6, "v:1": 0.4},
                                cpu_range=(200, 900))
        preloaded = {"node-1": ("sha256:base",), "node-2": ("sha256:base", "sha256:u"),
                     "node-3": ("sha256:base", "sha256:v")}
        scenario = Scenario(nodes=nodes, catalog=self.two_image_catalog(), workload=workload,
                            preloaded=preloaded)
        schedulers = {
            "loose": SchedulerConfig(weight_policy=WeightPolicy(h_size=0, h_cpu=1.0, h_std=0.5)),
            "strict": SchedulerConfig(weight_policy=WeightPolicy(
                mode="custom", custom_table={0: 0.5, 1: 1.0, 2: 3.0, 3: 5.0},
                h_size=500 * MB, h_cpu=0.0, h_std=0.0)),
            "custom": SchedulerConfig(weight_policy=WeightPolicy(
                mode="custom", custom_table={0: -1.0, 1: 0.5, 2: 2.0, 3: 6.0})),
            "default": SchedulerConfig(policy="default"),
        }
        table = self.assert_rows_match_runs(scenario, schedulers, [3, 4, 5])
        rows = {label: table["results"][label]["per_seed"] for label in schedulers}
        assert len({json.dumps(row) for row in rows.values()}) == len(schedulers)

    def test_trace_file_workload(self, tmp_path):
        catalog = self.two_image_catalog()
        images = [ImageRef("u", "1"), ImageRef("v", "1")]
        trace = tmp_path / "trace.jsonl"
        save_trace([TaskRequest(f"t{i}", images[1] if i % 3 == 0 else images[0],
                                100 + 10 * i, 64 * MB)
                    for i in range(20)], trace)
        scenario = Scenario(nodes=[ample_node(f"node-{i}") for i in range(3)],
                            catalog=catalog,
                            workload=WorkloadSpec(kind="trace_file", trace_path=str(trace)))
        self.assert_rows_match_runs(scenario, self.every_policy(), [3, 4])

    def test_zero_tasks_keep_the_empty_sums(self):
        scenario = Scenario(nodes=[ample_node()], catalog=single_image_catalog(),
                            workload=WorkloadSpec(count=0))
        table = self.assert_rows_match_runs(scenario, self.every_policy(), [3])
        assert typed(table["results"]["default"]["per_seed"][0]) == typed({
            "seed": 3, "total_download_bytes": 0, "total_download_seconds": 0,
            "mean_cluster_std": 0.0, "total_pods": 0, "unschedulable_count": 0})


def test_compare_equals_the_cli_table(tmp_path):
    """``compare`` returns the table ``layersched compare`` writes."""
    path = bundled_scenario_path("shared_layers")
    sfile = parse_scenario_file(path)
    catalog = resolve_catalog(sfile)
    scenario = build_scenario(sfile, catalog, sfile.schedulers[0], sfile.seeds[0])
    table = compare(scenario, {entry.label: entry.config for entry in sfile.schedulers},
                    sfile.seeds)
    assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
    assert table == json.loads((tmp_path / "compare.json").read_text(encoding="utf-8"))


class TestFingerprint:
    def base(self):
        return scenario_for(single_image_catalog(), [ample_node()],
                            WorkloadSpec(count=5), seed=1)

    def test_stable_across_calls(self):
        assert fingerprint(self.base()) == fingerprint(self.base())

    def test_seed_changes_fingerprint(self):
        other = scenario_for(single_image_catalog(), [ample_node()],
                             WorkloadSpec(count=5), seed=2)
        assert fingerprint(self.base()) != fingerprint(other)

    def test_custom_table_hashes_as_a_plain_dict(self):
        # Pinned before the table became a read-only mapping.
        scenario = scenario_for(single_image_catalog(), [ample_node()],
                                WorkloadSpec(count=5), seed=1)
        scenario.scheduler = SchedulerConfig(weight_policy=WeightPolicy(
            mode="custom", custom_table={0: 0.5, 1: 1.0, 2: 1.5, 3: 3.0}))
        assert fingerprint(scenario) == \
            "d608bd81c2c3e47c770ca4ef3391d5caeb2b20ee1f93db75e7a0fcff6432b81e"


class TestReportFiles:
    def test_csv_has_fixed_header_and_unschedulable_marker(self, tmp_path):
        catalog = single_image_catalog()
        # second task cannot fit: cpu range exceeds the remaining capacity
        node = ample_node(cpu_capacity=1000)
        scenario = scenario_for(catalog, [node],
                                WorkloadSpec(count=2, cpu_range=(600, 600),
                                             mem_range=(MB, MB)))
        report = run(scenario)
        path = tmp_path / "steps.csv"
        write_steps_csv(report, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_HEADER
        assert rows[1][2] == "node-0"
        assert rows[2][2] == "unschedulable"

    def test_json_report_is_deterministic(self, tmp_path):
        catalog = single_image_catalog()
        scenario = scenario_for(catalog, [ample_node()], WorkloadSpec(count=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(run(scenario), a)
        write_report_json(run(scenario), b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["aggregates"]["total_download_bytes"] == 100 * MB


def test_ordered_sum_rounds_after_each_addition():
    """Left to right with one rounding per step on every Python version;
    the built-in sum of 3.12+ compensates and would give exactly 1.0."""
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert ordered_sum(x for x in [1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0 and ordered_sum([2, 3]) == 5
