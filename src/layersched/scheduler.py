"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ScenarioError
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
    blended_score,
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
    ``lr_dynamic`` picks a weight per node load: the high or low weight
    (mode ``dynamic``) or an entry of ``custom_table`` (mode ``custom``).
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

    def omegas(self) -> tuple[float, float, float, float]:
        """The weight this policy applies when k gate conditions hold, at k;
        the only weight table :func:`blended_score` is given."""
        if self.policy == "default":
            # Weight 0 rather than skipping the layer computation, so
            # breakdowns stay comparable across policies.
            return (0.0,) * 4
        weights = self.weight_policy
        if self.policy == "layer_static":
            return (weights.omega_static,) * 4
        if weights.mode == "dynamic":
            return (weights.omega_low,) * 3 + (weights.omega_high,)
        return tuple(weights.custom_table[k] for k in range(4))


@dataclass(frozen=True)
class FilterVerdict:
    node_id: str
    feasible: bool
    rejected_by: str | None = None  # storage | container_count | cpu_fit | mem_fit


@dataclass(frozen=True)
class Placement:
    """One task bound to one node. ``scores`` is the per-node score audit: a
    read-only mapping from each feasible node's id, in node order, to its
    :class:`ScoreBreakdown`, computed when read."""

    task_id: str
    node_id: str
    download_bytes: int
    download_seconds: float
    scores: Mapping[str, ScoreBreakdown]


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


def score_node(
    node: NodeState,
    task: TaskRequest,
    catalog: LayerCatalog,
    config: SchedulerConfig,
) -> ScoreBreakdown:
    """Score one feasible node under the configured policy, from scratch."""
    return blended_score(
        config.weight_policy, config.omegas(),
        local_layer_size(catalog, node, task.image),
        catalog.image_total_size(task.image),
        node.cpu_ratio(), std_score(node),
        baseline_score(node, task, catalog, config.plugins),
    )


class _ScoreAudit(Mapping):
    """The score breakdowns of one decision, each built on read from the
    decision-time node and the overlap the kernel used for it."""

    def __init__(self, feasible: list[tuple[NodeState, int]], task: TaskRequest,
                 total: int, catalog: LayerCatalog, config: SchedulerConfig,
                 omegas: tuple[float, float, float, float]):
        self._feasible = feasible
        self._task = task
        self._total = total
        self._catalog = catalog
        self._config = config
        self._omegas = omegas
        self._by_id: dict[str, tuple[NodeState, int]] | None = None

    def __getitem__(self, node_id: str) -> ScoreBreakdown:
        if self._by_id is None:
            self._by_id = {node.spec.id: (node, overlap)
                           for node, overlap in self._feasible}
        node, overlap = self._by_id[node_id]
        config = self._config
        return blended_score(
            config.weight_policy, self._omegas, overlap, self._total,
            node.cpu_ratio(), std_score(node),
            baseline_score(node, self._task, self._catalog, config.plugins))

    def __iter__(self) -> Iterator[str]:
        return (node.spec.id for node, _ in self._feasible)

    def __len__(self) -> int:
        return len(self._feasible)


class _Kernel:
    """Filter, score and argmax over a cluster in which each commit changes
    one node.

    Everything a node-task needs that depends only on the node is kept per
    node: its stored layer bytes and the bytes of each image it already
    holds, both advanced by each commit to it, and its load, dropped by
    one. Each image's layer stack and total are resolved once, and so is
    the config's weight table (:meth:`SchedulerConfig.omegas`). A decision
    scores each feasible node as one float, with the formula of
    :func:`blended_score`, and leaves the breakdowns to
    :class:`_ScoreAudit`. The results equal :func:`filter_node` and
    :func:`score_node` exactly.
    """

    def __init__(self, nodes: list[NodeState], catalog: LayerCatalog,
                 config: SchedulerConfig, rng: random.Random | None):
        self.nodes = list(nodes)
        self.catalog = catalog
        self.config = config
        self.rng = rng
        self.index = {node.spec.id: i for i, node in enumerate(self.nodes)}
        if len(self.index) != len(self.nodes):
            raise ScenarioError("nodes", "node ids must be unique")
        self.stored = [node.stored_layer_bytes(catalog) for node in self.nodes]
        self.overlaps: list[dict[int, int]] = [{} for _ in self.nodes]
        self.loads: list[tuple[float, float] | None] = [None] * len(self.nodes)
        self.images: dict[ImageRef, tuple[int, list[tuple[str, int]], int]] = {}
        self.users: dict[str, list[int]] = {}  # layer -> keys of images using it
        self.omegas = config.omegas()

    def _image(self, image: ImageRef) -> tuple[int, list[tuple[str, int]], int]:
        """A small key for the image, its layer stack and its total bytes."""
        entry = self.images.get(image)
        if entry is None:
            key = len(self.images)
            stack = layers_of(self.catalog, image)
            for digest, _ in stack:
                self.users.setdefault(digest, []).append(key)
            entry = self.images[image] = (
                key, stack, sum(size for _, size in stack))
        return entry

    def decide(self, task: TaskRequest) -> Placement | Unschedulable:
        """Filter, score and pick a node for ``task``, changing no state."""
        nodes = self.nodes
        if not nodes:
            return Unschedulable(task.task_id, ())
        key, stack, total = self._image(task.image)
        config, catalog, omegas, loads = self.config, self.catalog, self.omegas, self.loads
        plugins, policy = config.plugins, config.weight_policy
        h_size, h_cpu, h_std = policy.h_size, policy.h_cpu, policy.h_std

        violations = []
        feasible = []  # (node, local bytes of the image)
        best, tied = float("-inf"), []
        for i, node in enumerate(nodes):
            overlaps = self.overlaps[i]
            overlap = overlaps.get(key)
            if overlap is None:
                local = node.local_layers
                overlap = overlaps[key] = sum(
                    size for digest, size in stack if digest in local)
            violated = first_violation(node, task, self.stored[i], total - overlap)
            violations.append(violated)
            if violated is not None:
                continue
            pair = (node, overlap)
            feasible.append(pair)
            load = loads[i]
            if load is None:
                load = loads[i] = (node.cpu_ratio(), std_score(node))
            cpu, std = load
            layer = overlap / total * 100.0 if total else 0.0
            final = (omegas[(overlap > h_size) + (cpu < h_cpu) + (std < h_std)] * layer
                     + baseline_score(node, task, catalog, plugins))
            if final > best:
                best, tied = final, [pair]
            elif final == best:
                tied.append(pair)
        if not feasible:
            return Unschedulable(task.task_id, tuple(
                FilterVerdict(node.spec.id, False, violated)
                for node, violated in zip(nodes, violations)))

        tied.sort(key=lambda pair: pair[0].spec.id)
        if config.tie_break == "random_seeded" and len(tied) > 1:
            chosen, overlap = (self.rng or random.Random(0)).choice(tied)
        else:
            chosen, overlap = tied[0]

        cost = total - overlap
        return Placement(
            task_id=task.task_id,
            node_id=chosen.spec.id,
            download_bytes=cost,
            download_seconds=cost / chosen.spec.bandwidth,
            scores=_ScoreAudit(feasible, task, total, catalog, config, omegas),
        )

    def commit(self, task: TaskRequest, placement: Placement) -> None:
        """Bind ``task`` where ``placement`` chose and refresh that node."""
        i = self.index[placement.node_id]
        old = self.nodes[i]
        new = self.nodes[i] = commit_placement(old, task, self.catalog)
        self.stored[i] += placement.download_bytes
        self.loads[i] = None
        # Each newly held layer adds its bytes to every cached image using it.
        overlaps, sizes = self.overlaps[i], self.catalog.layers
        for digest in new.local_layers - old.local_layers:
            size = sizes[digest]
            for key in self.users[digest]:
                if key in overlaps:
                    overlaps[key] += size


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

