"""Filter, argmax selection, trace folding, and policy behavior."""

import itertools
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from helpers import (
    catalog_dict,
    micro_scenario,
    node_dict,
    params_dict,
    random_catalog,
    random_config,
    random_node,
    random_task,
    task_dict,
)
from oracles import (
    oracle_commit,
    oracle_download_cost,
    oracle_filter,
    oracle_final,
    oracle_trace,
)
from layersched import scheduler
from layersched.errors import ScenarioError, UnknownImage
from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    TaskRequest,
)
from layersched.scheduler import (
    POLICIES,
    TIE_BREAKS,
    Placement,
    SchedulerConfig,
    Unschedulable,
    filter_node,
    iter_schedule_trace,
    schedule,
    score_node,
)
from layersched.scoring import (
    MB,
    PLUGIN_NAMES,
    PluginConfig,
    WeightPolicy,
    download_cost,
    local_layer_size,
    std_score,
)
from layersched.simulator import Scenario, initial_nodes, ordered_sum, replay
from layersched.workload import WorkloadSpec

GB = 1024 ** 3
WEB = ImageRef("web", "1")


def catalog_ab():
    return LayerCatalog(
        layers={"sha256:a": 30 * MB, "sha256:b": 70 * MB},
        images={WEB: ("sha256:a", "sha256:b")},
    )


def node(node_id="node-0", **overrides) -> NodeState:
    spec_kwargs = dict(cpu_capacity=4000, mem_capacity=4 * GB,
                       bandwidth=10 * MB, storage_capacity=30 * GB)
    state_kwargs = {}
    for key, value in overrides.items():
        if key in ("local_layers", "local_images", "running",
                   "cpu_committed", "mem_committed"):
            state_kwargs[key] = value
        else:
            spec_kwargs[key] = value
    return NodeState(spec=NodeSpec(id=node_id, **spec_kwargs), **state_kwargs)


def task(task_id="t1", image=WEB, cpu=500, mem=256 * MB):
    return TaskRequest(task_id=task_id, image=image,
                       cpu_request=cpu, mem_request=mem)


class TestFilter:
    def test_ample_node_is_feasible(self):
        verdict = filter_node(node(), task(), catalog_ab())
        assert verdict.feasible and verdict.rejected_by is None

    def test_storage_rejection(self):
        verdict = filter_node(node(storage_capacity=MB), task(), catalog_ab())
        assert verdict.rejected_by == "storage"

    def test_cached_layers_relax_storage(self):
        # 70MB free, needs 30MB more once sha256:b is already local
        n = node(storage_capacity=100 * MB,
                 local_layers=frozenset({"sha256:b"}))
        assert filter_node(n, task(), catalog_ab()).feasible

    def test_container_count_rejection(self):
        warm = TaskRequest(task_id="x", image=WEB, cpu_request=1, mem_request=0)
        full = node(max_containers=1, running=(warm,), cpu_committed=1)
        verdict = filter_node(full, task(), catalog_ab())
        assert verdict.rejected_by == "container_count"

    def test_cpu_rejection(self):
        verdict = filter_node(node(), task(cpu=4001), catalog_ab())
        assert verdict.rejected_by == "cpu_fit"

    def test_mem_rejection(self):
        verdict = filter_node(node(), task(mem=5 * GB), catalog_ab())
        assert verdict.rejected_by == "mem_fit"

    def test_storage_checked_before_cpu(self):
        verdict = filter_node(node(storage_capacity=MB), task(cpu=4001),
                              catalog_ab())
        assert verdict.rejected_by == "storage"


class TestSchedule:
    def test_layer_holder_wins_under_static_weight(self):
        nodes = [
            node("node-0"),
            node("node-1", local_layers=frozenset({"sha256:a", "sha256:b"})),
        ]
        config = SchedulerConfig(
            policy="layer_static",
            weight_policy=WeightPolicy(mode="static", omega_static=4.0),
        )
        outcome = schedule(task(), nodes, catalog_ab(), config)
        assert isinstance(outcome, Placement)
        assert outcome.node_id == "node-1"
        assert outcome.download_bytes == 0

    def test_unschedulable_carries_all_verdicts(self):
        nodes = [node("node-0", storage_capacity=MB),
                 node("node-1", cpu_capacity=100)]
        outcome = schedule(task(), nodes, catalog_ab(), SchedulerConfig())
        assert isinstance(outcome, Unschedulable)
        reasons = {v.node_id: v.rejected_by for v in outcome.verdicts}
        assert reasons == {"node-0": "storage", "node-1": "cpu_fit"}

    def test_argmax_law_on_breakdowns(self):
        rng = random.Random(0)
        for seed in range(50):
            catalog, nodes, tasks, config = micro_scenario(seed)
            outcome = schedule(tasks[0], nodes, catalog, config, rng)
            if isinstance(outcome, Placement):
                winner = outcome.scores[outcome.node_id].final
                assert all(winner >= b.final for b in outcome.scores.values())

    def test_ties_break_to_lowest_node_id(self):
        nodes = [node("node-1"), node("node-0")]  # deliberately unordered
        outcome = schedule(task(), nodes, catalog_ab(), SchedulerConfig())
        assert outcome.node_id == "node-0"

    def test_download_seconds_is_bytes_over_bandwidth(self):
        outcome = schedule(task(), [node(bandwidth=10 * MB)], catalog_ab(),
                           SchedulerConfig())
        assert outcome.download_bytes == 100 * MB
        assert outcome.download_seconds == 10.0

    def test_empty_cluster_is_unschedulable_but_the_image_must_exist(self):
        # No node: the general path returns the same record as the
        # constructor, and an image outside the catalog is refused as it is
        # on any cluster.
        t = task()
        outcome = schedule(t, [], catalog_ab(), SchedulerConfig())
        assert outcome == Unschedulable(t.task_id, (), t, catalog_ab())
        assert outcome.verdicts == () and outcome.rejected_by == ()
        with pytest.raises(UnknownImage):
            schedule(replace(t, image=ImageRef("ghost", "1")), [], catalog_ab(),
                     SchedulerConfig())


class TestScheduleTrace:
    def test_empty_trace_changes_nothing(self):
        nodes = [node()]
        steps = list(iter_schedule_trace([], nodes, catalog_ab(), SchedulerConfig()))
        assert steps == []
        assert nodes == [node()]

    def test_single_task_single_node(self):
        steps = list(iter_schedule_trace([task()], [node()], catalog_ab(),
                                         SchedulerConfig()))
        assert [o.node_id for o, _ in steps if isinstance(o, Placement)] == ["node-0"]
        assert steps[-1][1][0].local_layers == {"sha256:a", "sha256:b"}

    def test_unschedulable_skipped_without_state_change(self):
        tasks = [task("t1", cpu=500), task("t2", cpu=9999), task("t3", cpu=500)]
        steps = list(iter_schedule_trace(tasks, [node()], catalog_ab(), SchedulerConfig()))
        assert [type(o).__name__ for o, _ in steps] == \
            ["Placement", "Unschedulable", "Placement"]
        assert steps[-1][1][0].cpu_committed == 1000

    def test_each_task_placed_at_most_once(self):
        for seed in range(20):
            catalog, nodes, tasks, config = micro_scenario(seed)
            outcomes = [o for o, _ in iter_schedule_trace(tasks, nodes, catalog, config)]
            placed_ids = [o.task_id for o in outcomes if isinstance(o, Placement)]
            assert len(placed_ids) == len(set(placed_ids))
            assert len(outcomes) == len(tasks)

    def test_determinism_across_runs(self):
        catalog, nodes, tasks, config = micro_scenario(3)
        first = iter_schedule_trace(tasks, nodes, catalog, config, seed=11)
        second = iter_schedule_trace(tasks, nodes, catalog, config, seed=11)
        assert [o.node_id if isinstance(o, Placement) else None
                for o, _ in first] == \
               [o.node_id if isinstance(o, Placement) else None
                for o, _ in second]

    def test_matches_per_step_argmax_oracle(self):
        for seed in range(30):
            catalog, nodes, tasks, config = micro_scenario(seed)
            want = oracle_trace(catalog_dict(catalog),
                                [node_dict(n) for n in nodes],
                                [task_dict(t) for t in tasks],
                                params_dict(config))
            got = [o.node_id if isinstance(o, Placement) else None
                   for o, _ in iter_schedule_trace(tasks, nodes, catalog, config)]
            assert got == want, f"seed {seed}"


class TestPolicyBehavior:
    def test_default_policy_ignores_weight_config(self):
        catalog, nodes, tasks, _ = micro_scenario(7)
        placements = []
        for omega in (0.0, 2.0, 99.0):
            config = SchedulerConfig(
                policy="default",
                weight_policy=WeightPolicy(mode="static", omega_static=omega),
            )
            placements.append([o.node_id if isinstance(o, Placement) else None
                               for o, _ in iter_schedule_trace(tasks, nodes, catalog, config)])
        assert placements[0] == placements[1] == placements[2]

    def test_static_layer_policy_piles_onto_one_node(self):
        # One huge shared base layer, resources effectively infinite: after
        # the first placement every follow-up sticks to the warm node.
        base = {"sha256:base": 500 * MB}
        catalog = LayerCatalog(
            layers={**base, "sha256:x": MB, "sha256:y": MB},
            images={
                ImageRef("svc-x", "1"): ("sha256:base", "sha256:x"),
                ImageRef("svc-y", "1"): ("sha256:base", "sha256:y"),
            },
        )
        nodes = [node(f"node-{i}", cpu_capacity=10 ** 9, mem_capacity=10 ** 15,
                      storage_capacity=10 ** 15) for i in range(3)]
        tasks = [task(f"t{j}", image=ImageRef(f"svc-{'xy'[j % 2]}", "1"),
                      cpu=100, mem=MB) for j in range(12)]
        config = SchedulerConfig(
            policy="layer_static",
            weight_policy=WeightPolicy(mode="static", omega_static=4.0),
        )
        chosen = {o.node_id for o, _ in iter_schedule_trace(tasks, nodes, catalog, config)
                  if isinstance(o, Placement)}
        assert chosen == {"node-0"}

    def test_lr_dynamic_rejects_static_mode(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="lr_dynamic",
                            weight_policy=WeightPolicy(mode="static"))

    @pytest.mark.parametrize("field", ["policy", "tie_break"])
    def test_unknown_choice_rejected(self, field):
        with pytest.raises(ValueError, match=f"^unknown {field} 'round_robin'$"):
            SchedulerConfig(**{field: "round_robin"})

    @pytest.mark.parametrize("policy,mode,table", [
        ("default", "static", (0.0, 0.0, 0.0, 0.0)),
        ("default", "dynamic", (0.0, 0.0, 0.0, 0.0)),
        ("default", "custom", (0.0, 0.0, 0.0, 0.0)),
        ("layer_static", "static", (4.0, 4.0, 4.0, 4.0)),
        ("layer_static", "dynamic", (4.0, 4.0, 4.0, 4.0)),
        ("layer_static", "custom", (4.0, 4.0, 4.0, 4.0)),
        ("lr_dynamic", "dynamic", (0.5, 0.5, 0.5, 2.0)),
        ("lr_dynamic", "custom", (0.1, 0.2, 0.3, 0.4)),
    ])
    def test_weight_table(self, policy, mode, table):
        # omegas()[k] is the weight when k of the three gate conditions hold
        weights = WeightPolicy(mode=mode, omega_static=4.0, omega_high=2.0,
                               omega_low=0.5,
                               custom_table={0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4})
        config = SchedulerConfig(policy=policy, weight_policy=weights)
        assert config.omegas() == table


def kernel_instance(seed: int):
    """A warm cluster and a task trace for the kernel equivalence check.

    Some nodes get a disk just above what they hold and room for only a few
    more containers, so storage and container-count rejections occur. With
    ``random_seeded`` tie-breaking the nodes are copies of one node under
    different ids, so the first placements tie.
    """
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_layers=10, max_images=6)
    config = random_config(rng, policy=POLICIES[seed % len(POLICIES)])
    if seed % 4 == 3:
        config = replace(config, tie_break="random_seeded")
        template = random_node(rng, catalog, "template")
        nodes = [replace(template, spec=replace(template.spec, id=f"node-{i}"))
                 for i in range(rng.randint(2, 5))]
    else:
        nodes = [random_node(rng, catalog, f"node-{i}")
                 for i in range(rng.randint(1, 6))]
    for i, state in enumerate(nodes):
        if rng.random() < 0.4:
            spec = replace(
                state.spec,
                storage_capacity=state.stored_layer_bytes(catalog)
                + rng.randint(1, 400 * MB),
                max_containers=len(state.running) + rng.randint(1, 4),
            )
            nodes[i] = replace(state, spec=spec)
    tasks = [random_task(rng, catalog, f"task-{seed}-{j}")
             for j in range(rng.randint(5, 25))]
    return catalog, nodes, tasks, config


class TestKernelEquivalence:
    """Every step of the incremental kernel equals the reference filter and
    commit (oracles.py) and the from-scratch score_node, evaluated on the
    states before that step."""

    def test_each_step_matches_from_scratch(self):
        ties = unschedulable = 0
        for seed in range(160):
            catalog, nodes, tasks, config = kernel_instance(seed)
            cd = catalog_dict(catalog)
            tie_rng = random.Random(seed)
            before = list(nodes)
            steps = iter_schedule_trace(tasks, nodes, catalog, config, seed=seed)
            for t, (outcome, after) in zip(tasks, steps):
                td = task_dict(t)
                verdicts = tuple(oracle_filter(cd, node_dict(n), td) for n in before)
                if isinstance(outcome, Unschedulable):
                    unschedulable += 1
                    assert outcome.rejected_by == verdicts, f"seed {seed} {t.task_id}"
                    assert after == before
                    continue

                feasible = [n for n, v in zip(before, verdicts) if v is None]
                assert list(outcome.scores) == [n.spec.id for n in feasible]
                for n in feasible:
                    assert outcome.scores[n.spec.id] == score_node(n, t, catalog, config), \
                        f"seed {seed} {t.task_id} {n.spec.id}"

                best = max(b.final for b in outcome.scores.values())
                tied = sorted((n for n in feasible
                               if outcome.scores[n.spec.id].final == best),
                              key=lambda n: n.spec.id)
                if config.tie_break == "random_seeded" and len(tied) > 1:
                    ties += 1
                    chosen = tie_rng.choice(tied)
                else:
                    chosen = tied[0]
                assert outcome.node_id == chosen.spec.id, f"seed {seed} {t.task_id}"
                cost = oracle_download_cost(cd, node_dict(chosen), td["image"])
                assert outcome.download_bytes == cost
                assert outcome.download_seconds == cost / chosen.spec.bandwidth
                want = [oracle_commit(cd, node_dict(n), td) if n is chosen else node_dict(n)
                        for n in before]
                assert [node_dict(n) for n in after] == want, f"seed {seed} {t.task_id}"
                before = after
        # The instances must reach the branches they are meant to cover.
        assert ties > 0 and unschedulable > 0

    def test_schedule_is_one_kernel_step(self):
        for seed in range(40):
            catalog, nodes, tasks, config = kernel_instance(seed)
            first, _ = next(iter_schedule_trace(tasks, nodes, catalog, config, seed=seed))
            assert schedule(tasks[0], nodes, catalog, config,
                            random.Random(seed)) == first


class TestKernelArithmetic:
    """The kernel filters and scores inline, and the audit and score_node
    read the same code, so the kernel is held to the independent reference
    instead: every part of every audited breakdown equals oracle_final
    exactly, for every set of enabled plugins and every weight table."""

    @pytest.mark.parametrize("enabled", list(itertools.product((False, True), repeat=3)),
                             ids=lambda on: "".join("+" if x else "-" for x in on))
    def test_final_equals_score_node_for_every_plugin_set(self, enabled):
        weights = (1.0, 0.7, 2.3)
        plugins = PluginConfig(**{name: weight if on else None for name, weight, on
                                  in zip(PLUGIN_NAMES, weights, enabled)})
        checked, modes = 0, set()
        for seed in range(24):
            catalog, nodes, tasks, config = kernel_instance(seed)
            config = replace(config, plugins=plugins)
            modes.add((config.policy, config.weight_policy.mode))
            cd, pd = catalog_dict(catalog), params_dict(config)
            before = {n.spec.id: n for n in nodes}
            for t, (outcome, after) in zip(tasks, iter_schedule_trace(
                    tasks, nodes, catalog, config, seed=seed)):
                if isinstance(outcome, Placement):
                    td = task_dict(t)
                    for node_id, breakdown in outcome.scores.items():
                        want = oracle_final(cd, node_dict(before[node_id]), td, pd)
                        assert vars(breakdown) == want, f"seed {seed} {t.task_id} {node_id}"
                        checked += 1
                before = {n.spec.id: n for n in after}
        assert checked > 0
        assert ("lr_dynamic", "custom") in modes and ("layer_static", "static") in modes

    def test_every_verdict_equals_oracle_filter(self):
        reasons, unschedulable = set(), 0
        for seed in range(160):
            catalog, nodes, tasks, config = kernel_instance(seed)
            kernel = scheduler._Kernel(nodes, catalog, config, random.Random(seed))
            cd = catalog_dict(catalog)
            for t in tasks:
                td = task_dict(t)
                want = [oracle_filter(cd, node_dict(n), td) for n in kernel.nodes]
                assert kernel.verdicts(t) == want, f"seed {seed} {t.task_id}"
                reasons.update(want)
                outcome = kernel.step(t)
                if isinstance(outcome, Unschedulable):
                    unschedulable += 1
                    assert outcome.rejected_by == tuple(want), f"seed {seed} {t.task_id}"
        # The instances must reach every verdict and an unschedulable task.
        assert reasons == {None, "storage", "container_count", "cpu_fit", "mem_fit"}
        assert unschedulable > 0

    def test_unschedulable_names_each_constraint(self):
        warm = TaskRequest(task_id="w", image=WEB, cpu_request=100, mem_request=0)
        nodes = [node("n-storage", storage_capacity=MB),
                 node("n-count", max_containers=1, running=(warm,), cpu_committed=100),
                 node("n-cpu", cpu_capacity=400),
                 node("n-mem", mem_capacity=128 * MB)]
        t, catalog = task(), catalog_ab()
        outcome = schedule(t, nodes, catalog, SchedulerConfig())
        assert isinstance(outcome, Unschedulable)
        assert outcome.rejected_by == ("storage", "container_count", "cpu_fit", "mem_fit")
        assert [(v.node_id, v.feasible) for v in outcome.verdicts] == \
            [(n.spec.id, False) for n in nodes]

    @pytest.mark.parametrize("constraint, overrides", [
        ("storage", {"storage_capacity": 120 * MB}),
        ("container_count", {"max_containers": 2}),
        ("cpu_fit", {"cpu_capacity": 1200}),
        ("mem_fit", {"mem_capacity": 600 * MB}),
    ])
    def test_commits_refresh_the_columns_the_filter_reads(self, constraint, overrides):
        # Two placements fit; the third task breaks ``constraint`` only
        # because of what the first two committed.
        api = ImageRef("api", "1")
        catalog = LayerCatalog(
            layers={"sha256:a": 30 * MB, "sha256:b": 70 * MB, "sha256:c": 30 * MB},
            images={WEB: ("sha256:a", "sha256:b"), api: ("sha256:c",)},
        )
        images = [WEB, WEB, api]
        tasks = [task(f"t{j}", image=image) for j, image in enumerate(images)]
        steps = list(iter_schedule_trace(tasks, [node("n0", **overrides)], catalog,
                                         SchedulerConfig()))
        assert [isinstance(o, Placement) for o, _ in steps] == [True, True, False]
        outcome, _ = steps[2]
        assert outcome.rejected_by == (constraint,)
        assert outcome.rejected_by == (oracle_filter(
            catalog_dict(catalog), node_dict(steps[1][1][0]), task_dict(tasks[2])),)


class TestKernelColumns:
    """The audit rebuilds breakdowns from the nodes, not from the kernel's
    columns, so the columns are pinned here: after every commit every node
    equals the reference commit (oracles.py), and each column equals its
    value computed from scratch on the current nodes."""

    def test_every_commit_leaves_the_columns_from_scratch(self):
        commits = 0
        for seed in range(160):
            catalog, nodes, tasks, config = kernel_instance(seed)
            kernel = scheduler._Kernel(nodes, catalog, config, random.Random(seed))
            weights = config.weight_policy
            cd = catalog_dict(catalog)
            state = [node_dict(n) for n in nodes]
            for t in tasks:
                outcome = kernel.decide(t)
                if not isinstance(outcome, Placement):
                    continue
                j = kernel.index[outcome.node_id]
                kernel.commit(j, t)
                commits += 1
                state[j] = oracle_commit(cd, state[j], task_dict(t))
                where = f"seed {seed} {t.task_id}"
                assert [node_dict(n) for n in kernel.nodes] == state, where
                for i, n in enumerate(kernel.nodes):
                    assert kernel.stored[i] == n.stored_layer_bytes(catalog), where
                    assert kernel.slots[i] == n.spec.max_containers - len(n.running), where
                    assert kernel.cpu_used[i] == n.cpu_committed, where
                    assert kernel.mem_used[i] == n.mem_committed, where
                    assert kernel.std[i] == std_score(n), where
                    assert kernel.calm[i] == ((n.cpu_ratio() < weights.h_cpu)
                                              + (std_score(n) < weights.h_std)), where
                    for image, (column, holds, _, _, _) in kernel.images.items():
                        assert column[i] == local_layer_size(catalog, n, image), \
                            f"{where} {n.spec.id} {image.key}"
                        assert holds[i] == (100.0 if image in n.local_images else 0.0), \
                            f"{where} {n.spec.id} {image.key}"
                # Each image's row order is stale, or else by descending
                # overlap.
                for image, (column, _, _, order, stale) in kernel.images.items():
                    assert sorted(order) == list(range(len(kernel.nodes))), where
                    assert stale or [column[i] for i in order] == sorted(column, reverse=True), \
                        f"{where} {image.key}"
        assert commits > 0


class TestKernelCopy:
    """``compare`` starts every leg from a copy of one kernel over the
    initial cluster. Under any config the copy equals a new kernel over the
    same nodes that has filled in the same image entries, attribute by
    attribute, and a leg's commits leave the original as it was."""

    CONFIGS = {
        "default": SchedulerConfig(policy="default"),
        "layer_static": SchedulerConfig(policy="layer_static"),
        "lr_dynamic": SchedulerConfig(),
        "thresholds": SchedulerConfig(weight_policy=WeightPolicy(
            h_size=0, h_cpu=0.95, h_std=0.01)),
        "custom-negative": SchedulerConfig(weight_policy=WeightPolicy(
            mode="custom", custom_table={0: -1.5, 1: 0.0, 2: 1.0, 3: 3.0})),
        "negative-plugin": SchedulerConfig(policy="layer_static", plugins=PluginConfig(
            least_allocated=-2.0, image_locality=None), tie_break="random_seeded"),
    }

    @staticmethod
    def new_kernel(nodes, catalog, config, seed, images):
        rng = None if seed is None else random.Random(seed)
        kernel = scheduler._Kernel(nodes, catalog, config, rng)
        for image in images:
            kernel._image(image)
        return kernel

    @staticmethod
    def state(kernel):
        """Every attribute, the generator by its state."""
        return {**vars(kernel), "rng": kernel.rng and kernel.rng.getstate()}

    def assert_copies_equal_new_kernels(self, nodes, catalog, tasks):
        """Copy a kernel under every config, step each copy through
        ``tasks``, and check the copy and the original against new kernels;
        return each config's ``(bound, top)``."""
        images = list(dict.fromkeys(t.image for t in tasks))
        seen = {}
        for base_label, base_config in self.CONFIGS.items():
            base = self.new_kernel(nodes, catalog, base_config, None, images)
            for label, config in self.CONFIGS.items():
                where = (base_label, label)
                leg = base.copy(config, random.Random(7))
                new = self.new_kernel(nodes, catalog, config, 7, images)
                assert self.state(leg) == self.state(new), where
                assert list(leg.images) == images
                for name in ("nodes", "stored", "slots", "cpu_used", "mem_used", "std",
                             "calm", "images", "users"):
                    assert getattr(leg, name) is not getattr(base, name), (where, name)
                for image in images:
                    for k in (0, 1, 3):  # the overlap and holds columns, the order
                        assert leg.images[image][k] is not base.images[image][k], where
                seen[label] = (leg.bound, leg.top)
                for t in tasks:
                    assert leg.step(t) == new.step(t), (where, t.task_id)
                assert self.state(leg) == self.state(new), where
                assert self.state(base) == self.state(
                    self.new_kernel(nodes, catalog, base_config, None, images)), where
        return seen

    def test_warm_clusters(self):
        for seed in range(24):
            catalog, nodes, tasks, _ = kernel_instance(seed)
            seen = self.assert_copies_equal_new_kernels(nodes, catalog, tasks)
            assert seen["default"][1] is None and seen["lr_dynamic"][1] is not None

    def test_preloaded_layers(self):
        catalog = LayerCatalog(
            layers={"sha256:base": 50 * MB, "sha256:web": 5 * MB, "sha256:db": 80 * MB},
            images={WEB: ("sha256:base", "sha256:web"),
                    ImageRef("db", "1"): ("sha256:base", "sha256:db")})
        specs = [NodeSpec(id=f"n{i}", cpu_capacity=4000, mem_capacity=4 * GB,
                          bandwidth=10 * MB, storage_capacity=(i + 1) * 100 * MB,
                          max_containers=3)
                 for i in range(4)]
        scenario = Scenario(nodes=specs, catalog=catalog, workload=WorkloadSpec(count=0),
                            preloaded={"n1": ("sha256:base",), "n3": tuple(catalog.layers)})
        tasks = [task(f"t{j}", image, cpu=300 + 40 * j)
                 for j, image in enumerate([WEB, ImageRef("db", "1")] * 6)]
        seen = self.assert_copies_equal_new_kernels(initial_nodes(scenario), catalog, tasks)
        assert seen["default"][1] is None and seen["lr_dynamic"][1] is not None

    def test_negative_commitment(self):
        catalog = catalog_ab()
        nodes = [node("n0", local_layers=frozenset(catalog.layers)),
                 node("n1", cpu_committed=-10 ** 6)]
        seen = self.assert_copies_equal_new_kernels(
            nodes, catalog, [task(f"t{j}") for j in range(5)])
        assert set(seen.values()) == {(float("inf"), None)}


def bound_instance(seed: int):
    """A cluster of 20-60 nodes for the bounded argmax, about half of them
    copies of a few templates under new ids (so exact ties occur), a task
    list, and a config whose plugin weights may be ``None``, zero, negative,
    1 or above 1, with either tie-break. Some ``lr_dynamic`` configs get a
    custom table that is all zero or all negative, where the kernel's
    ordered scan could never stop early, or that mixes signs, where it must
    stop no earlier than a row that cannot win."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_layers=10, max_images=6)
    templates = [random_node(rng, catalog, "template") for _ in range(rng.randint(2, 6))]
    nodes = []
    for i in range(rng.randint(20, 60)):
        copied = rng.choice(templates) if rng.random() < 0.5 else random_node(rng, catalog, "")
        nodes.append(replace(copied, spec=replace(copied.spec, id=f"node-{i:02d}")))
    weights = (None, 0, 0.0, 1.0, 2, round(rng.uniform(1.1, 5.0), 3),
               -round(rng.uniform(0.1, 3.0), 3), -1)
    plugins = PluginConfig(**{name: rng.choice(weights) for name in PLUGIN_NAMES})
    config = replace(random_config(rng, policy=POLICIES[seed % len(POLICIES)]),
                     plugins=plugins, tie_break=TIE_BREAKS[seed // 3 % 2])
    tasks = [random_task(rng, catalog, f"task-{seed}-{j}") for j in range(rng.randint(5, 15))]
    if config.policy == "lr_dynamic" and seed % 5 in (1, 2, 3):
        if seed % 5 == 1:
            table = dict.fromkeys(range(4), 0.0)
        elif seed % 5 == 2:
            table = {k: -round(rng.uniform(0.1, 3.0), 3) for k in range(4)}
        else:
            table = {k: round(rng.uniform(-3.0, 3.0), 3) for k in range(4)}
            table[rng.randrange(4)] = -round(rng.uniform(0.1, 3.0), 3)
            table[rng.randrange(4)] = 0.0
        config = replace(config, weight_policy=replace(
            config.weight_policy, mode="custom", custom_table=table))
    return catalog, nodes, tasks, config


class TestBoundedArgmax:
    """The kernel skips a row whose layer term plus the baseline ceiling is
    below the best final so far, and, walking rows by descending overlap,
    stops at the first row whose term at the largest weight cannot reach
    it. Each decision must still be the argmax of its full score audit,
    with the same set of tied rows as a full scan."""

    def test_pruned_scan_ties_and_picks_as_the_full_scan(self):
        ties = negative = custom = walked = walked_negative = fell_back = 0
        for seed in range(90):
            catalog, nodes, tasks, config = bound_instance(seed)
            kernel = scheduler._Kernel(nodes, catalog, config, random.Random(seed))
            twin_rng = random.Random(seed)
            oracle = oracle_trace(catalog_dict(catalog), [node_dict(n) for n in nodes],
                                  [task_dict(t) for t in tasks], params_dict(config))
            weights = [getattr(config.plugins, name) for name in PLUGIN_NAMES]
            negative += any(w is not None and w < 0 for w in weights)
            custom += config.policy == "lr_dynamic" and config.weight_policy.mode == "custom"
            for t, want_id in zip(tasks, oracle):
                where = f"seed {seed} {t.task_id}"
                image = column, _, total, _, _ = kernel._image(t.image)
                pruned = kernel._score(t, image, kernel._room(column, total))
                full = kernel._score(t, image, kernel._room(column, total), parts=[])
                assert pruned == full, where
                ordered = kernel._score(t, image, kernel._rows(image), kernel.top)
                assert sorted(ordered) == full, where
                walked += kernel.top is not None
                walked_negative += kernel.top is not None and min(kernel.omegas) < 0
                fell_back += kernel.top is None
                outcome = kernel.decide(t)
                if not full:
                    assert isinstance(outcome, Unschedulable) and want_id is None, where
                    continue
                best = max(b.final for b in outcome.scores.values())
                tied = sorted(node_id for node_id, b in outcome.scores.items()
                              if b.final == best)
                assert sorted(kernel.ids[i] for i in pruned) == tied, where
                if config.tie_break == "random_seeded":
                    # The oracle breaks ties to the lowest id; it is only
                    # compared with this tie-break, whose trace it follows.
                    chosen = twin_rng.choice(tied) if len(tied) > 1 else tied[0]
                else:
                    chosen = want_id
                    assert tied[0] == want_id, where
                assert outcome.node_id == chosen, where
                ties += len(tied) > 1
                kernel.commit(kernel.index[outcome.node_id], t)
        # The instances must reach the cases the bound and the stop have to
        # get right.
        assert ties > 0 and negative > 0 and custom > 0
        assert walked > 0 and walked_negative > 0 and fell_back > 0

    def test_negative_commitment_turns_the_bound_off(self):
        # A hand-built node with negative committed CPU scores its free CPU
        # above 100, past the ceiling; it must still be scored and win.
        catalog = catalog_ab()
        holder = node("n0", local_layers=frozenset(catalog.layers))
        odd = node("n1", cpu_committed=-10 ** 6)
        config = SchedulerConfig(policy="layer_static",
                                 plugins=PluginConfig(balanced_allocation=None))
        kernel = scheduler._Kernel([holder, odd], catalog, config, None)
        assert kernel.bound == float("inf") and kernel.top is None
        outcome = kernel.decide(task())
        finals = {node_id: b.final for node_id, b in outcome.scores.items()}
        assert finals["n1"] > finals["n0"] and outcome.node_id == "n1"


class TestDuplicateNodeIds:
    """Two nodes under one id would let the kernel choose one and commit to
    the other, and the score audit, keyed by id, would hide one of them."""

    @staticmethod
    def nodes():
        return [node("n", cpu_capacity=4000), node("n", cpu_capacity=500)]

    def test_schedule_refuses_duplicate_ids(self):
        with pytest.raises(ScenarioError, match="node ids must be unique") as err:
            schedule(task(), self.nodes(), catalog_ab(), SchedulerConfig())
        assert err.value.field == "nodes"

    def test_trace_refuses_duplicate_ids(self):
        tasks = [task("t1"), task("t2")]
        with pytest.raises(ScenarioError, match="node ids must be unique") as err:
            list(iter_schedule_trace(tasks, self.nodes(), catalog_ab(),
                                     SchedulerConfig()))
        assert err.value.field == "nodes"


class TestCommitmentBeyondFloatRange:
    """A committed amount whose ratio to the capacity no float can hold is a
    ScenarioError naming the node, not an OverflowError from the ratio."""

    @pytest.mark.parametrize("overrides", [
        {"cpu_committed": -10 ** 400, "cpu_capacity": 1},
        {"mem_committed": 10 ** 400},
    ], ids=["cpu", "mem"])
    @pytest.mark.parametrize("call", [
        lambda n: filter_node(n, task(), catalog_ab()),
        lambda n: scheduler.commit_placement(n, task(), catalog_ab()),
        lambda n: schedule(task(), [node("n0"), n], catalog_ab(), SchedulerConfig()),
    ], ids=["filter_node", "commit_placement", "schedule"])
    def test_is_a_scenario_error(self, call, overrides):
        with pytest.raises(ScenarioError, match="node n1: committed CPU or memory") as err:
            call(node("n1", **overrides))
        assert err.value.field == "nodes"


class TestScoreAudit:
    """``Placement.scores`` is built on read, from the state at decision
    time, and only on read."""

    def test_read_after_the_trace_equals_from_scratch(self):
        rejected = 0
        for seed in range(160):
            catalog, nodes, tasks, config = kernel_instance(seed)
            # The whole trace is replayed before any audit is read.
            steps = list(iter_schedule_trace(tasks, nodes, catalog, config, seed=seed))
            before = list(nodes)
            cd = catalog_dict(catalog)
            for t, (outcome, after) in zip(tasks, steps):
                if isinstance(outcome, Placement):
                    verdicts = [oracle_filter(cd, node_dict(n), task_dict(t)) for n in before]
                    feasible = [n for n, v in zip(before, verdicts) if v is None]
                    for n in feasible:
                        assert outcome.scores[n.spec.id] == \
                            score_node(n, t, catalog, config), \
                            f"seed {seed} {t.task_id} {n.spec.id}"
                    scores = outcome.scores
                    assert scores == dict(scores) and dict(scores) == scores
                    assert len(scores) == len(feasible)
                    assert list(scores) == [n.spec.id for n in feasible]
                    for n, v in zip(before, verdicts):
                        if v is not None:
                            rejected += 1
                            assert n.spec.id not in scores
                            with pytest.raises(KeyError):
                                scores[n.spec.id]
                before = after
        assert rejected > 0

    def test_decide_builds_no_breakdown(self, monkeypatch):
        calls = []
        breakdown = scheduler.ScoreBreakdown

        def counting(**parts):
            calls.append(parts)
            return breakdown(**parts)

        monkeypatch.setattr(scheduler, "ScoreBreakdown", counting)
        placements = []
        for seed in range(12):
            catalog, nodes, tasks, config = kernel_instance(seed)
            placements += [o for o, _ in iter_schedule_trace(
                tasks, nodes, catalog, config, seed=seed)
                if isinstance(o, Placement)]
        assert placements and calls == []
        p = placements[0]
        p.scores[p.node_id]
        cd, td = catalog_dict(p.catalog), task_dict(p.task)
        feasible = sum(oracle_filter(cd, node_dict(n), td) is None for n in p.nodes)
        assert len(calls) == feasible
        assert p.scores is p.scores and len(calls) == feasible

    def test_unschedulable_builds_verdicts_on_read(self, monkeypatch):
        calls = []
        verdict = scheduler.FilterVerdict

        def counting(*args):
            calls.append(args)
            return verdict(*args)

        monkeypatch.setattr(scheduler, "FilterVerdict", counting)
        nodes = [node("node-0", cpu_capacity=100), node("node-1", storage_capacity=MB)]
        outcome = schedule(task(), nodes, catalog_ab(), SchedulerConfig())
        assert isinstance(outcome, Unschedulable) and calls == []
        assert outcome.verdicts == (verdict("node-0", False, "cpu_fit"),
                                    verdict("node-1", False, "storage"))
        assert outcome.verdicts is outcome.verdicts and len(calls) == 2

    def test_frozen_config_keeps_the_audit_of_a_returned_decision(self):
        policy = {0: 0.5, 1: 0.5, 2: 0.5, 3: 2.0}
        config = SchedulerConfig(weight_policy=WeightPolicy(
            mode="custom", custom_table=policy))
        placement = schedule(task(), [node("n0")], catalog_ab(), config)
        before = placement.scores["n0"]
        with pytest.raises(AttributeError):
            config.weight_policy.omega_high = 9.0
        with pytest.raises(AttributeError):
            config.policy = "default"
        with pytest.raises(TypeError):
            config.weight_policy.custom_table[0] = 9.0
        policy[0] = 9.0  # the table was copied, not aliased
        assert config.weight_policy.custom_table == {0: 0.5, 1: 0.5, 2: 0.5, 3: 2.0}
        assert placement.scores["n0"] == before


class TestKernelRecords:
    """The kernel builds each Placement and Unschedulable, and each
    successor NodeState and its placed TaskRequest, without the generated
    ``__init__``. Each must equal its twin from the
    public constructor field by field, have the repr of its constructed copy,
    and stay frozen."""

    @staticmethod
    def assert_twins(record, twin):
        names = [f.name for f in fields(twin)]
        assert type(record) is type(twin)
        assert list(vars(record)) == names  # every field, in field order, nothing more
        for name in names:
            assert getattr(record, name) == getattr(twin, name), name
        # replace() builds a copy through the constructor from the record's
        # own field values: set reprs depend on insertion history, not value.
        copy = replace(record)
        assert record == twin == copy and repr(record) == repr(copy)
        with pytest.raises(FrozenInstanceError):
            setattr(record, names[0], getattr(twin, names[0]))

    def test_kernel_records_equal_their_constructed_twins(self):
        seen = set()
        for seed in range(24):
            catalog, nodes, tasks, config = kernel_instance(seed)
            before = list(nodes)
            steps = iter_schedule_trace(tasks, nodes, catalog, config, seed=seed)
            for t, (outcome, after) in zip(tasks, steps):
                seen.add(type(outcome))
                if isinstance(outcome, Unschedulable):
                    self.assert_twins(outcome, Unschedulable(
                        t.task_id, tuple(before), t, catalog))
                    continue
                i = [n.spec.id for n in before].index(outcome.node_id)
                old, new = before[i], after[i]
                cost = download_cost(catalog, old, t.image)
                self.assert_twins(outcome, Placement(
                    t.task_id, old.spec.id, cost, cost / old.spec.bandwidth,
                    tuple(before), t, catalog, config))
                placed = TaskRequest(t.task_id, t.image, t.cpu_request, t.mem_request)
                self.assert_twins(new.running[-1], placed)
                self.assert_twins(new, NodeState(
                    spec=old.spec,
                    local_layers=old.local_layers | set(catalog.images[t.image]),
                    local_images=old.local_images | {t.image},
                    running=old.running + (placed,),
                    cpu_committed=old.cpu_committed + t.cpu_request,
                    mem_committed=old.mem_committed + t.mem_request))
                before = after
        assert seen == {Placement, Unschedulable}

    def test_scores_are_built_once(self):
        placement = schedule(task(), [node("n0"), node("n1")], catalog_ab(),
                             SchedulerConfig())
        scores = placement.scores
        assert placement.scores is scores and vars(placement)["scores"] is scores

    def test_replay_balance_is_the_mean_over_the_trace_nodes(self):
        # replay reads the balance scores the kernel keeps; they must be the
        # trace's per-step mean of std_score, to the last bit.
        steps = 0
        for seed in range(30):
            catalog, nodes, tasks, config = micro_scenario(seed)
            scenario = Scenario(nodes=[n.spec for n in nodes], catalog=catalog,
                                workload=WorkloadSpec(), scheduler=config, seed=seed)
            recorded = replay(scenario, tasks, record=True).steps
            trace = iter_schedule_trace(tasks, initial_nodes(scenario), catalog, config,
                                        seed=seed)
            for step, (outcome, after) in zip(recorded, trace, strict=True):
                assert step.node_id == getattr(outcome, "node_id", None)
                assert step.cluster_std == ordered_sum(map(std_score, after)) / len(after), \
                    f"seed {seed} step {step.step}"
                steps += 1
        assert steps == 300
