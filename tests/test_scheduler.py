"""Filter, argmax selection, trace folding, and policy behavior."""

import random
from dataclasses import replace

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
from oracles import oracle_trace
from layersched.model import (
    ImageRef,
    LayerCatalog,
    NodeSpec,
    NodeState,
    PlacedContainer,
    TaskRequest,
)
from layersched.model import commit_placement
from layersched.scheduler import (
    POLICIES,
    Placement,
    SchedulerConfig,
    Unschedulable,
    filter_node,
    iter_schedule_trace,
    schedule,
    schedule_trace,
    score_node,
)
from layersched.scoring import MB, WeightPolicy, download_cost

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
        warm = PlacedContainer(task_id="x", image=WEB, cpu_request=1, mem_request=0)
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


class TestScheduleTrace:
    def test_empty_trace_changes_nothing(self):
        nodes = [node()]
        result = schedule_trace([], nodes, catalog_ab(), SchedulerConfig())
        assert result.outcomes == []
        assert result.nodes == nodes

    def test_single_task_single_node(self):
        result = schedule_trace([task()], [node()], catalog_ab(),
                                SchedulerConfig())
        assert [p.node_id for p in result.placements] == ["node-0"]
        assert result.nodes[0].local_layers == {"sha256:a", "sha256:b"}

    def test_unschedulable_skipped_without_state_change(self):
        tasks = [task("t1", cpu=500), task("t2", cpu=9999), task("t3", cpu=500)]
        result = schedule_trace(tasks, [node()], catalog_ab(), SchedulerConfig())
        assert [type(o).__name__ for o in result.outcomes] == \
            ["Placement", "Unschedulable", "Placement"]
        assert result.nodes[0].cpu_committed == 1000

    def test_each_task_placed_at_most_once(self):
        for seed in range(20):
            catalog, nodes, tasks, config = micro_scenario(seed)
            result = schedule_trace(tasks, nodes, catalog, config)
            placed_ids = [p.task_id for p in result.placements]
            assert len(placed_ids) == len(set(placed_ids))
            assert len(result.outcomes) == len(tasks)

    def test_determinism_across_runs(self):
        catalog, nodes, tasks, config = micro_scenario(3)
        first = schedule_trace(tasks, nodes, catalog, config, seed=11)
        second = schedule_trace(tasks, nodes, catalog, config, seed=11)
        assert [o.node_id if isinstance(o, Placement) else None
                for o in first.outcomes] == \
               [o.node_id if isinstance(o, Placement) else None
                for o in second.outcomes]

    def test_matches_per_step_argmax_oracle(self):
        for seed in range(30):
            catalog, nodes, tasks, config = micro_scenario(seed)
            want = oracle_trace(catalog_dict(catalog),
                                [node_dict(n) for n in nodes],
                                [task_dict(t) for t in tasks],
                                params_dict(config))
            result = schedule_trace(tasks, nodes, catalog, config)
            got = [o.node_id if isinstance(o, Placement) else None
                   for o in result.outcomes]
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
            result = schedule_trace(tasks, nodes, catalog, config)
            placements.append([o.node_id if isinstance(o, Placement) else None
                               for o in result.outcomes])
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
        result = schedule_trace(tasks, nodes, catalog, config)
        chosen = {p.node_id for p in result.placements}
        assert chosen == {"node-0"}

    def test_lr_dynamic_rejects_static_mode(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="lr_dynamic",
                            weight_policy=WeightPolicy(mode="static"))



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
    """Every step of the incremental kernel equals the from-scratch public
    functions evaluated on the states before that step."""

    def test_each_step_matches_from_scratch(self):
        ties = unschedulable = 0
        for seed in range(160):
            catalog, nodes, tasks, config = kernel_instance(seed)
            tie_rng = random.Random(seed)
            before = list(nodes)
            steps = iter_schedule_trace(tasks, nodes, catalog, config, seed=seed)
            for t, (outcome, after) in zip(tasks, steps):
                verdicts = tuple(filter_node(n, t, catalog) for n in before)
                if isinstance(outcome, Unschedulable):
                    unschedulable += 1
                    assert outcome.verdicts == verdicts, f"seed {seed} {t.task_id}"
                    assert after == before
                    continue

                feasible = [n for n, v in zip(before, verdicts) if v.feasible]
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
                cost = download_cost(catalog, chosen, t.image)
                assert outcome.download_bytes == cost
                assert outcome.download_seconds == cost / chosen.spec.bandwidth
                want = [commit_placement(n, t, catalog) if n is chosen else n
                        for n in before]
                assert after == want
                before = after
        # The instances must reach the branches they are meant to cover.
        assert ties > 0 and unschedulable > 0

    def test_schedule_is_one_kernel_step(self):
        for seed in range(40):
            catalog, nodes, tasks, config = kernel_instance(seed)
            first, _ = next(iter_schedule_trace(tasks, nodes, catalog, config, seed=seed))
            assert schedule(tasks[0], nodes, catalog, config,
                            random.Random(seed)) == first
