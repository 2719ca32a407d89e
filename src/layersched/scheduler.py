"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .model import (
    LayerCatalog,
    NodeState,
    TaskRequest,
    commit_placement,
    first_violation,
)
from .scoring import (
    PluginConfig,
    ScoreBreakdown,
    WeightPolicy,
    baseline_score,
    cpu_score,
    download_cost,
    final_score,
    gate_conditions,
    layer_score,
    local_layer_size,
    std_score,
)

POLICIES = ("default", "layer_static", "lr_dynamic")
TIE_BREAKS = ("lowest_node_id", "random_seeded")


@dataclass
class SchedulerConfig:
    """Which policy to run and how to weight/tie-break.

    ``default`` ignores layer sharing (weight 0, pure baseline score),
    ``layer_static`` applies ``weight_policy.omega_static`` unconditionally,
    ``lr_dynamic`` gates between the high and low weight per node load.
    """

    policy: str = "lr_dynamic"
    weight_policy: WeightPolicy = field(default_factory=WeightPolicy)
    plugins: PluginConfig = PluginConfig()
    tie_break: str = "lowest_node_id"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.policy == "lr_dynamic" and self.weight_policy.mode == "static":
            raise ValueError("lr_dynamic needs a dynamic or custom weight policy")


@dataclass(frozen=True)
class FilterVerdict:
    node_id: str
    feasible: bool
    rejected_by: str | None = None  # storage | container_count | cpu_fit | mem_fit


@dataclass(frozen=True)
class Placement:
    """One task bound to one node, with the full per-node score audit."""

    task_id: str
    node_id: str
    download_bytes: int
    download_seconds: float
    scores: dict[str, ScoreBreakdown]


@dataclass(frozen=True)
class Unschedulable:
    """No node survived filtering; per-node rejection reasons attached."""

    task_id: str
    verdicts: tuple[FilterVerdict, ...]


def filter_node(node: NodeState, task: TaskRequest, catalog: LayerCatalog) -> FilterVerdict:
    """Feasibility check; the first failing constraint names the verdict."""
    violated = first_violation(node, task, download_cost(catalog, node, task.image), catalog)
    return FilterVerdict(node.spec.id, violated is None, violated)


def score_node(
    node: NodeState,
    task: TaskRequest,
    catalog: LayerCatalog,
    config: SchedulerConfig,
) -> ScoreBreakdown:
    """Score one feasible node under the configured policy."""
    layer = layer_score(catalog, node, task.image)
    overlap = local_layer_size(catalog, node, task.image)
    std = std_score(node)
    cpu = cpu_score(node)
    conditions = gate_conditions(config.weight_policy, overlap, cpu, std)
    gate = int(all(conditions))
    baseline = baseline_score(node, task, catalog, config.plugins)

    if config.policy == "default":
        # Weight forced to 0 rather than skipping the layer computation, so
        # breakdowns stay comparable across policies.
        policy = replace(config.weight_policy, mode="static", omega_static=0.0)
    elif config.policy == "layer_static":
        policy = replace(config.weight_policy, mode="static")
    else:
        policy = config.weight_policy
    return final_score(
        policy, layer, baseline, gate,
        std=std, cpu=cpu, conditions_met=sum(conditions),
    )


def schedule(
    task: TaskRequest,
    nodes: list[NodeState],
    catalog: LayerCatalog,
    config: SchedulerConfig,
    rng: random.Random | None = None,
) -> Placement | Unschedulable:
    """Run filter then score then argmax for a single task.

    Ties on the final score fall to the lowest node id, or to a seeded
    random choice when configured. ``rng`` is only consulted for the
    latter.
    """
    verdicts = [filter_node(node, task, catalog) for node in nodes]
    feasible = [node for node, v in zip(nodes, verdicts) if v.feasible]
    if not feasible:
        return Unschedulable(task.task_id, tuple(verdicts))

    breakdowns = {
        node.spec.id: score_node(node, task, catalog, config) for node in feasible
    }
    best_score = max(b.final for b in breakdowns.values())
    tied = sorted(
        (node for node in feasible if breakdowns[node.spec.id].final == best_score),
        key=lambda n: n.spec.id,
    )
    if config.tie_break == "random_seeded" and len(tied) > 1:
        chosen = (rng or random.Random(0)).choice(tied)
    else:
        chosen = tied[0]

    cost = download_cost(catalog, chosen, task.image)
    return Placement(
        task_id=task.task_id,
        node_id=chosen.spec.id,
        download_bytes=cost,
        download_seconds=cost / chosen.spec.bandwidth,
        scores=breakdowns,
    )


@dataclass
class TraceResult:
    """Outcome of replaying a task trace: per-task outcomes plus final state."""

    outcomes: list[Placement | Unschedulable]
    nodes: list[NodeState]

    @property
    def placements(self) -> list[Placement]:
        return [o for o in self.outcomes if isinstance(o, Placement)]

    @property
    def unschedulable(self) -> list[Unschedulable]:
        return [o for o in self.outcomes if isinstance(o, Unschedulable)]


def iter_schedule_trace(
    tasks: Iterator[TaskRequest] | list[TaskRequest],
    nodes: list[NodeState],
    catalog: LayerCatalog,
    config: SchedulerConfig,
    seed: int = 0,
) -> Iterator[tuple[Placement | Unschedulable, list[NodeState]]]:
    """Schedule tasks in arrival order, yielding each outcome with the node
    states after it was applied. Unschedulable tasks leave state untouched.
    """
    rng = random.Random(seed)
    current = list(nodes)
    index = {node.spec.id: i for i, node in enumerate(current)}
    for task in tasks:
        outcome = schedule(task, current, catalog, config, rng)
        if isinstance(outcome, Placement):
            i = index[outcome.node_id]
            current[i] = commit_placement(current[i], task, catalog)
        # Copy so consumers hold a stable snapshot, not the live list.
        yield outcome, list(current)


def schedule_trace(
    tasks: list[TaskRequest],
    nodes: list[NodeState],
    catalog: LayerCatalog,
    config: SchedulerConfig,
    seed: int = 0,
) -> TraceResult:
    """Fold :func:`schedule` + commit over an ordered task list."""
    outcomes: list[Placement | Unschedulable] = []
    final = list(nodes)
    for outcome, current in iter_schedule_trace(tasks, nodes, catalog, config, seed):
        outcomes.append(outcome)
        final = current
    return TraceResult(outcomes=outcomes, nodes=list(final))
