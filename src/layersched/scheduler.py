"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .model import (
    ImageRef,
    LayerCatalog,
    NodeState,
    TaskRequest,
    commit_placement,
    first_violation,
    layers_of,
)
# layer_score is unused here but stays importable from this module:
# benchmarks/tracer.py wraps it, with the other scoring calls, by this name.
from .scoring import (
    PluginConfig,
    ScoreBreakdown,
    WeightPolicy,
    baseline_score,
    blend_baseline,
    blended_score,
    cpu_score,
    download_cost,
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
    cost = download_cost(catalog, node, task.image)
    violated = first_violation(node, task, node.stored_layer_bytes(catalog), cost)
    return FilterVerdict(node.spec.id, violated is None, violated)


def omega_policy(config: SchedulerConfig) -> WeightPolicy:
    """The weight rule ``config.policy`` applies on top of its weight policy."""
    if config.policy == "default":
        # Weight forced to 0 rather than skipping the layer computation, so
        # breakdowns stay comparable across policies.
        return replace(config.weight_policy, mode="static", omega_static=0.0)
    if config.policy == "layer_static":
        return replace(config.weight_policy, mode="static")
    return config.weight_policy


def score_node(
    node: NodeState,
    task: TaskRequest,
    catalog: LayerCatalog,
    config: SchedulerConfig,
) -> ScoreBreakdown:
    """Score one feasible node under the configured policy, from scratch."""
    return blended_score(
        config.weight_policy, omega_policy(config),
        local_layer_size(catalog, node, task.image),
        catalog.image_total_size(task.image),
        cpu_score(node), std_score(node),
        baseline_score(node, task, catalog, config.plugins),
    )


class _Kernel:
    """Filter, score and argmax over a cluster in which each commit changes
    one node.

    Everything a node-task needs that depends only on the node is kept per
    node and dropped when that node is committed to: its stored layer bytes
    (advanced by the download instead), the bytes of each image it already
    holds, and its load. Each image's layer stack and total are resolved
    once, and so are the config's weight rule and enabled plugins. The
    results equal :func:`filter_node` and :func:`score_node` exactly.
    """

    def __init__(self, nodes: list[NodeState], catalog: LayerCatalog,
                 config: SchedulerConfig, rng: random.Random | None):
        self.nodes = list(nodes)
        self.catalog = catalog
        self.config = config
        self.rng = rng
        self.index = {node.spec.id: i for i, node in enumerate(self.nodes)}
        self.stored = [node.stored_layer_bytes(catalog) for node in self.nodes]
        self.overlaps: list[dict[int, int]] = [{} for _ in self.nodes]
        self.loads: list[tuple[float, float] | None] = [None] * len(self.nodes)
        self.images: dict[ImageRef, tuple[int, list[tuple[str, int]], int]] = {}
        self.omega_policy = omega_policy(config)
        self.plugins = config.plugins.enabled()

    def _image(self, image: ImageRef) -> tuple[int, list[tuple[str, int]], int]:
        """A small key for the image, its layer stack and its total bytes."""
        entry = self.images.get(image)
        if entry is None:
            stack = layers_of(self.catalog, image)
            entry = self.images[image] = (
                len(self.images), stack, sum(size for _, size in stack))
        return entry

    def decide(self, task: TaskRequest) -> Placement | Unschedulable:
        """Filter, score and pick a node for ``task``, changing no state."""
        nodes = self.nodes
        if not nodes:
            return Unschedulable(task.task_id, ())
        key, stack, total = self._image(task.image)

        violations = []
        feasible = []  # (node index, local bytes of the image)
        for i, node in enumerate(nodes):
            overlaps = self.overlaps[i]
            overlap = overlaps.get(key)
            if overlap is None:
                local = node.local_layers
                overlap = overlaps[key] = sum(
                    size for digest, size in stack if digest in local)
            violated = first_violation(node, task, self.stored[i], total - overlap)
            violations.append(violated)
            if violated is None:
                feasible.append((i, overlap))
        if not feasible:
            return Unschedulable(task.task_id, tuple(
                FilterVerdict(node.spec.id, False, violated)
                for node, violated in zip(nodes, violations)))

        gate_policy, omega, plugins = self.config.weight_policy, self.omega_policy, self.plugins
        scores = {}
        for i, overlap in feasible:
            node = nodes[i]
            load = self.loads[i]
            if load is None:
                load = self.loads[i] = (cpu_score(node), std_score(node))
            scores[node.spec.id] = blended_score(
                gate_policy, omega, overlap, total, load[0], load[1],
                blend_baseline(node, task, plugins))

        best = max(b.final for b in scores.values())
        tied = sorted(
            ((nodes[i], overlap) for i, overlap in feasible
             if scores[nodes[i].spec.id].final == best),
            key=lambda pair: pair[0].spec.id,
        )
        if self.config.tie_break == "random_seeded" and len(tied) > 1:
            chosen, overlap = (self.rng or random.Random(0)).choice(tied)
        else:
            chosen, overlap = tied[0]

        cost = total - overlap
        return Placement(
            task_id=task.task_id,
            node_id=chosen.spec.id,
            download_bytes=cost,
            download_seconds=cost / chosen.spec.bandwidth,
            scores=scores,
        )

    def commit(self, task: TaskRequest, placement: Placement) -> None:
        """Bind ``task`` where ``placement`` chose and refresh that node."""
        i = self.index[placement.node_id]
        self.nodes[i] = commit_placement(self.nodes[i], task, self.catalog)
        self.stored[i] += placement.download_bytes
        self.overlaps[i] = {}
        self.loads[i] = None


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
    return _Kernel(nodes, catalog, config, rng).decide(task)


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
    kernel = _Kernel(nodes, catalog, config, random.Random(seed))
    for task in tasks:
        outcome = kernel.decide(task)
        if isinstance(outcome, Placement):
            kernel.commit(task, outcome)
        # Copy so consumers hold a stable snapshot, not the live list.
        yield outcome, list(kernel.nodes)


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
