"""Scoring math: layer/baseline/balance scores, and score_node's breakdown
(the weight gate and the final score)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    catalog_dict,
    node_dict,
    params_dict,
    random_scoring_instance,
    task_dict,
)
from oracles import oracle_baseline, oracle_final
from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    TaskRequest,
)
from layersched.scheduler import SchedulerConfig, filter_node, score_node
from layersched.scoring import (
    MB,
    PluginConfig,
    WeightPolicy,
    baseline_score,
    download_cost,
    layer_score,
    local_layer_size,
    std_score,
)

GB = 1024 ** 3
WEB = ImageRef("web", "1")


def catalog_ab():
    return LayerCatalog(
        layers={"sha256:a": 30 * MB, "sha256:b": 70 * MB},
        images={WEB: ("sha256:a", "sha256:b")},
    )


def node_with(layers=(), cpu_committed=0, mem_committed=0,
              cpu_capacity=4000, mem_capacity=4 * GB, images=()):
    return NodeState(
        spec=NodeSpec(id="n0", cpu_capacity=cpu_capacity, mem_capacity=mem_capacity,
                      bandwidth=10 * MB, storage_capacity=100 * GB),
        local_layers=frozenset(layers),
        local_images=frozenset(images),
        cpu_committed=cpu_committed,
        mem_committed=mem_committed,
    )


class TestDownloadAndOverlap:
    def test_all_layers_local_costs_nothing(self):
        node = node_with(layers={"sha256:a", "sha256:b"})
        assert download_cost(catalog_ab(), node, WEB) == 0

    def test_cold_node_downloads_everything(self):
        assert download_cost(catalog_ab(), node_with(), WEB) == 100 * MB

    def test_overlap_is_the_complement(self):
        node = node_with(layers={"sha256:b"})
        assert local_layer_size(catalog_ab(), node, WEB) == 70 * MB
        assert download_cost(catalog_ab(), node, WEB) == 30 * MB


class TestLayerScore:
    def test_full_overlap_scores_100(self):
        node = node_with(layers={"sha256:a", "sha256:b"})
        assert layer_score(catalog_ab(), node, WEB) == 100.0

    def test_no_overlap_scores_0(self):
        assert layer_score(catalog_ab(), node_with(), WEB) == 0.0

    def test_partial_overlap_is_byte_fraction(self):
        # 70MB of a 100MB image cached -> 70.0
        node = node_with(layers={"sha256:b"})
        assert layer_score(catalog_ab(), node, WEB) == 70.0

    def test_empty_image_scores_0(self):
        catalog = LayerCatalog(layers={}, images={ImageRef("nil", "1"): ()})
        assert layer_score(catalog, node_with(), ImageRef("nil", "1")) == 0.0


class TestBalanceScores:
    def test_equal_ratios_are_balanced(self):
        node = node_with(cpu_committed=2000, mem_committed=2 * GB)
        assert std_score(node) == 0.0

    def test_half_the_ratio_gap(self):
        node = node_with(cpu_committed=3200, mem_committed=int(0.4 * 4 * GB))
        assert std_score(node) == pytest.approx(0.2)

    def test_maximal_imbalance(self):
        node = node_with(cpu_committed=4000, mem_committed=0)
        assert std_score(node) == 0.5

    def test_cpu_score_is_committed_fraction(self):
        assert node_with().cpu_ratio() == 0.0
        assert node_with(cpu_committed=4000).cpu_ratio() == 1.0
        assert node_with(cpu_committed=1500).cpu_ratio() == 0.375


def scored(config, local_layer_bytes, image_bytes=100 * MB, cpu=0, mem=0,
           capacity=100, holds=False):
    """score_node's breakdown under ``config`` for a node that holds
    ``local_layer_bytes`` of an ``image_bytes`` image (and the image itself
    if ``holds``), with ``cpu`` of ``capacity`` millicores and ``mem`` of
    ``capacity`` bytes committed."""
    parts = {"sha256:local": local_layer_bytes, "sha256:rest": image_bytes - local_layer_bytes}
    layers = {digest: size for digest, size in parts.items() if size}
    catalog = LayerCatalog(layers=layers, images={WEB: tuple(layers)})
    node = NodeState(
        spec=NodeSpec(id="n0", cpu_capacity=capacity, mem_capacity=capacity,
                      bandwidth=10 * MB, storage_capacity=100 * GB),
        local_layers=frozenset({"sha256:local"} & layers.keys()),
        local_images=frozenset({WEB} if holds else ()),
        cpu_committed=cpu,
        mem_committed=mem,
    )
    task = TaskRequest(task_id="t", image=WEB, cpu_request=1, mem_request=0)
    return score_node(node, task, catalog, config)


class TestWeightGate:
    def policy(self):
        return WeightPolicy(mode="dynamic", omega_high=2.0, omega_low=0.5,
                            h_size=10 * MB, h_cpu=0.6, h_std=0.16)

    def breakdown(self, local_layer_bytes, cpu, mem, capacity=100):
        config = SchedulerConfig(policy="lr_dynamic", weight_policy=self.policy())
        return scored(config, local_layer_bytes, cpu=cpu, mem=mem, capacity=capacity)

    def weight_gate(self, local_layer_bytes, cpu, mem, capacity=100):
        return self.breakdown(local_layer_bytes, cpu, mem, capacity).weight_gate

    def test_all_conditions_met_fires(self):
        assert self.weight_gate(50 * MB, 30, 40) == 1  # CPU 0.3, imbalance 0.05

    def test_hot_cpu_blocks(self):
        assert self.weight_gate(50 * MB, 100, 90) == 0  # CPU 1.0

    def test_imbalance_blocks(self):
        assert self.weight_gate(50 * MB, 30, 90) == 0  # imbalance 0.3

    def test_boundary_is_strict(self):
        assert self.weight_gate(10 * MB, 30, 40) == 0  # == h_size
        at_cpu = self.breakdown(50 * MB, 60, 70)
        assert at_cpu.cpu_score == 0.6 and at_cpu.weight_gate == 0  # == h_cpu
        at_std = self.breakdown(50 * MB, 30, 62)
        assert at_std.std_score == 0.16 and at_std.weight_gate == 0  # == h_std

    def test_monotone_in_every_argument(self):
        # Over a power-of-two capacity the ratios and their gap are exact,
        # so rounding cannot move a condition across its threshold.
        rng = random.Random(5)
        capacity = 1024
        for _ in range(200):
            size = rng.randint(0, 30 * MB)
            cpu = rng.randint(0, capacity)
            gap = rng.randint(0, capacity - cpu)
            before = self.weight_gate(size, cpu, cpu + gap, capacity)
            # more overlap, less load, better balance: gate never drops
            cpu_after, gap_after = rng.randint(0, cpu), rng.randint(0, gap)
            after = self.weight_gate(size + rng.randint(0, 10 * MB), cpu_after,
                                     cpu_after + gap_after, capacity)
            assert after >= before


class TestBaselineScore:
    def test_empty_node_analytic(self):
        node = node_with()
        task = TaskRequest(task_id="t", image=WEB, cpu_request=400,
                           mem_request=int(0.1 * 4 * GB))
        # least_allocated: ((3600/4000)*100 + (0.9)*100)/2 = 90
        # balanced: ratios 0.1/0.1 -> std 0 -> 100; locality: absent -> 0
        got = baseline_score(node, task, catalog_ab(), PluginConfig())
        assert got == pytest.approx((90.0 + 100.0 + 0.0) / 3)

    def test_local_image_adds_locality(self):
        node = node_with(layers={"sha256:a", "sha256:b"}, images={WEB})
        task = TaskRequest(task_id="t", image=WEB, cpu_request=400,
                           mem_request=int(0.1 * 4 * GB))
        got = baseline_score(node, task, catalog_ab(), PluginConfig())
        assert got == pytest.approx((90.0 + 100.0 + 100.0) / 3)

    def test_disabled_plugins_drop_out(self):
        node = node_with()
        # ratios exactly 0.25/0.25, so balanced allocation is exactly 100
        task = TaskRequest(task_id="t", image=WEB, cpu_request=1000,
                           mem_request=GB)
        only_balanced = PluginConfig(least_allocated=None,
                                     balanced_allocation=1.0,
                                     image_locality=None)
        assert baseline_score(node, task, catalog_ab(), only_balanced) == 100.0

    def test_no_plugins_scores_zero(self):
        node = node_with()
        task = TaskRequest(task_id="t", image=WEB, cpu_request=1, mem_request=0)
        empty = PluginConfig(least_allocated=None, balanced_allocation=None,
                             image_locality=None)
        assert baseline_score(node, task, catalog_ab(), empty) == 0.0

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_formulas(self, seed):
        catalog, nodes, task, config = random_scoring_instance(seed)
        want = oracle_baseline(catalog_dict(catalog), node_dict(nodes[0]),
                               task_dict(task), params_dict(config)["plugins"])
        got = baseline_score(nodes[0], task, catalog, config.plugins)
        assert got == pytest.approx(want, abs=1e-9)

    def test_operand_order_matches_reference_exactly(self):
        # Sums in another order can differ in the last bit, which could flip a
        # tie; random_plugins draws non-default weights, so the order shows.
        for seed in range(3000):
            catalog, nodes, task, config = random_scoring_instance(seed)
            cd, td = catalog_dict(catalog), task_dict(task)
            plugins = params_dict(config)["plugins"]
            for node in nodes:
                assert (baseline_score(node, task, catalog, config.plugins)
                        == oracle_baseline(cd, node_dict(node), td, plugins)), seed


class TestFinalScore:
    # Only image locality, weighted 0.4: baseline 40 on a node that holds
    # the image, 0 on one that does not.
    LOCALITY = PluginConfig(least_allocated=None, balanced_allocation=None,
                            image_locality=0.4)

    def static(self, omega, plugins=LOCALITY):
        return SchedulerConfig(policy="layer_static", plugins=plugins,
                               weight_policy=WeightPolicy(mode="static", omega_static=omega))

    def dynamic(self):
        return SchedulerConfig(policy="lr_dynamic", plugins=self.LOCALITY,
                               weight_policy=WeightPolicy(mode="dynamic", omega_high=2.0,
                                                          omega_low=0.5))

    def test_zero_weight_degenerates_to_baseline(self):
        breakdown = scored(self.static(0.0), 70 * MB, holds=True)  # layer 70, baseline 40
        assert breakdown.final == 40.0

    def test_static_weight_4(self):
        breakdown = scored(self.static(4.0), 70 * MB, holds=True)
        assert breakdown.final == 320.0
        assert breakdown.omega_used == 4.0

    def test_dynamic_gate_fired(self):
        # all three conditions hold
        breakdown = scored(self.dynamic(), 70 * MB, holds=True)
        assert breakdown.weight_gate == 1
        assert breakdown.final == 180.0

    def test_dynamic_gate_closed(self):
        # CPU too hot
        breakdown = scored(self.dynamic(), 70 * MB, cpu=100, mem=100, holds=True)
        assert breakdown.weight_gate == 0
        assert breakdown.final == 0.5 * 70.0 + 40.0

    def test_custom_table_keyed_by_condition_count(self):
        config = SchedulerConfig(policy="lr_dynamic", plugins=self.LOCALITY,
                                 weight_policy=WeightPolicy(
                                     mode="custom",
                                     custom_table={0: 0.0, 1: 0.5, 2: 1.0, 3: 3.0}))
        # layer 10; overlap and CPU hold, imbalance 0.3 does not: two met
        got = scored(config, 20 * MB, image_bytes=200 * MB, mem=60)
        assert got.std_score == 0.3 and got.baseline_score == 0.0
        assert got.final == 10.0

    def test_breakdown_identity_is_bit_exact(self):
        rng = random.Random(9)
        for _ in range(500):
            config = self.static(rng.uniform(0, 6), plugins=PluginConfig())
            image_bytes = rng.randint(1, 100 * MB)
            capacity = rng.randint(1, 10_000)
            b = scored(config, rng.randint(0, image_bytes), image_bytes,
                       cpu=rng.randint(0, capacity), mem=rng.randint(0, capacity),
                       capacity=capacity, holds=rng.random() < 0.5)
            assert b.final == b.omega_used * b.layer_score + b.baseline_score

    def test_rejected_node_matches_reference(self):
        # score_node scores a node the filter rejects: CPU overcommitted, so
        # least_allocated is negative.
        catalog = catalog_ab()
        node = node_with(layers={"sha256:b"}, cpu_committed=4000,
                         mem_committed=3 * GB, images={WEB})
        task = TaskRequest(task_id="t", image=WEB, cpu_request=2000, mem_request=GB)
        assert filter_node(node, task, catalog).rejected_by == "cpu_fit"
        least_only = SchedulerConfig(plugins=PluginConfig(1.0, None, None))
        assert score_node(node, task, catalog, least_only).baseline_score == -25.0
        for config in (least_only, self.static(4.0, plugins=PluginConfig()), self.dynamic(),
                       SchedulerConfig(plugins=PluginConfig(0.5, 1.5, 2.0))):
            got = score_node(node, task, catalog, config)
            want = oracle_final(catalog_dict(catalog), node_dict(node), task_dict(task),
                                params_dict(config))
            assert got.weight_gate == want["weight_gate"]
            for name in ("layer_score", "baseline_score", "std_score", "cpu_score",
                         "omega_used", "final"):
                assert getattr(got, name) == pytest.approx(want[name], abs=1e-9), name


class TestProperties:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_partition_law(self, seed):
        catalog, nodes, task, _ = random_scoring_instance(seed)
        for node in nodes:
            total = catalog.image_total_size(task.image)
            assert download_cost(catalog, node, task.image) \
                + local_layer_size(catalog, node, task.image) == total

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_layer_score_bounds_and_monotonicity(self, seed):
        catalog, nodes, task, _ = random_scoring_instance(seed)
        node = nodes[0]
        before = layer_score(catalog, node, task.image)
        assert 0.0 <= before <= 100.0
        # caching one more of the image's layers never lowers the score
        stack = catalog.images[task.image]
        missing = [d for d in stack if d not in node.local_layers]
        if missing:
            grown = NodeState(
                spec=node.spec,
                local_layers=node.local_layers | {missing[0]},
                local_images=node.local_images,
                running=node.running,
                cpu_committed=node.cpu_committed,
                mem_committed=node.mem_committed,
            )
            assert layer_score(catalog, grown, task.image) >= before

    @given(seed=st.integers(0, 10 ** 6), factor=st.integers(2, 64))
    @settings(max_examples=200, deadline=None)
    def test_layer_score_scale_invariance(self, seed, factor):
        catalog, nodes, task, _ = random_scoring_instance(seed)
        scaled = LayerCatalog(
            layers={d: s * factor for d, s in catalog.layers.items()},
            images=dict(catalog.images),
        )
        for node in nodes:
            assert layer_score(scaled, node, task.image) == pytest.approx(
                layer_score(catalog, node, task.image), abs=1e-9
            )

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_score_breakdown_matches_oracle(self, seed):
        catalog, nodes, task, config = random_scoring_instance(seed)
        cd, pd, td = catalog_dict(catalog), params_dict(config), task_dict(task)
        for node in nodes:
            want = oracle_final(cd, node_dict(node), td, pd)
            got = score_node(node, task, catalog, config)
            assert got.layer_score == pytest.approx(want["layer_score"], abs=1e-9)
            assert got.baseline_score == pytest.approx(want["baseline_score"], abs=1e-9)
            assert got.std_score == pytest.approx(want["std_score"], abs=1e-9)
            assert got.cpu_score == pytest.approx(want["cpu_score"], abs=1e-9)
            assert got.weight_gate == want["weight_gate"]
            assert got.omega_used == pytest.approx(want["omega_used"], abs=1e-9)
            assert got.final == pytest.approx(want["final"], abs=1e-9)


class TestConfigValidation:
    def test_weight_order_enforced(self):
        with pytest.raises(ValueError):
            WeightPolicy(mode="dynamic", omega_high=0.5, omega_low=2.0)

    def test_threshold_ranges_enforced(self):
        with pytest.raises(ValueError):
            WeightPolicy(h_cpu=1.5)
        with pytest.raises(ValueError):
            WeightPolicy(h_std=0.7)

    @pytest.mark.parametrize("fields, message", [
        ({"mode": "fixed"}, "unknown weight mode 'fixed'"),
        ({"mode": "static", "omega_static": -1.0}, "omega_static must be >= 0"),
    ], ids=["unknown-mode", "negative-omega_static"])
    def test_bad_mode_or_static_weight_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightPolicy(**fields)

    def test_custom_table_must_cover_all_counts(self):
        with pytest.raises(ValueError):
            WeightPolicy(mode="custom", custom_table={0: 1.0, 3: 2.0})

    @pytest.mark.parametrize("make", [
        lambda bad: WeightPolicy(mode="static", omega_static=bad),
        lambda bad: WeightPolicy(omega_high=bad),
        lambda bad: WeightPolicy(omega_low=bad),
        lambda bad: WeightPolicy(mode="custom", custom_table={0: 1.0, 1: bad, 2: 1.0, 3: 1.0}),
        lambda bad: PluginConfig(least_allocated=bad),
        lambda bad: PluginConfig(balanced_allocation=bad),
        lambda bad: PluginConfig(image_locality=bad),
    ], ids=["omega_static", "omega_high", "omega_low", "custom_table",
            "least_allocated", "balanced_allocation", "image_locality"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "int-beyond-float"])
    def test_non_finite_weights_rejected(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)

    def test_h_size_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WeightPolicy(h_size=bad)
        WeightPolicy(h_size=10 ** 400)  # an int of any size is a valid threshold
