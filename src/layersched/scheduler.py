"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, repeat
from operator import add, le, sub
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
# benchmarks/tracer.py wraps filter_node, score_node, commit_placement,
# baseline_score, layer_score and local_layer_size by their names on this
# module, so all six stay importable from it; layer_score is imported only
# for that. The kernel calls none of them per node: only commit_placement,
# once per commit, so the other spans see from-scratch and audit calls only.
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


@dataclass(frozen=True)
class SchedulerConfig:
    """Which policy to run and how to weight/tie-break. Frozen, like its
    weight policy and plugins, so a decision's score audit, which reads the
    config when it is read, always shows the weights the decision used.

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
    """No node survived filtering. ``rejected_by`` names the constraint each
    node, in ``node_ids`` order, broke; ``verdicts`` are those as
    :class:`FilterVerdict` objects, built when first read."""

    task_id: str
    node_ids: tuple[str, ...] = field(repr=False)
    rejected_by: tuple[str, ...] = field(repr=False)

    @cached_property
    def verdicts(self) -> tuple[FilterVerdict, ...]:
        return tuple(FilterVerdict(node_id, False, violated)
                     for node_id, violated in zip(self.node_ids, self.rejected_by))


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
    decision-time node and the overlap the kernel used for it. Its
    ``final`` is the float the kernel compared, so an audit that equals
    :func:`score_node` proves the kernel's arithmetic too."""

    def __init__(self, feasible: dict[str, tuple[NodeState, int, float]],
                 task: TaskRequest, catalog: LayerCatalog, config: SchedulerConfig):
        self._feasible = feasible
        self._task = task
        self._catalog = catalog
        self._config = config

    def __getitem__(self, node_id: str) -> ScoreBreakdown:
        node, overlap, final = self._feasible[node_id]
        task, catalog, config = self._task, self._catalog, self._config
        breakdown = blended_score(
            config.weight_policy, config.omegas(), overlap,
            catalog.image_total_size(task.image), node.cpu_ratio(), std_score(node),
            baseline_score(node, task, catalog, config.plugins))
        return replace(breakdown, final=final)

    def __iter__(self) -> Iterator[str]:
        return iter(self._feasible)

    def __len__(self) -> int:
        return len(self._feasible)


class _Kernel:
    """Filter, score and argmax over a cluster in which each commit changes
    one node.

    Per-node state is plain columns indexed like the nodes: ids, stored layer
    bytes, storage capacity, free container slots, committed and total CPU
    and memory, the load count (how many of the gate's CPU and balance
    conditions hold), and per image an overlap column and a "holds the
    image" column (0.0 or 100.0), both filled for every node when the image
    is first seen. A commit hands the node's stored bytes to
    :func:`commit_placement` and refreshes only the node it changes. The
    weight table (:meth:`SchedulerConfig.omegas`), the gate thresholds and
    the plugin weights are read once.

    A decision runs the storage test over all nodes as one C-level pass,
    then the container, CPU and memory tests and the three baseline plugins
    inline on the survivors, with the expressions of
    :func:`first_violation` and :func:`baseline_score` in the same operand
    order, and scores each feasible node as one float with the formula of
    :func:`blended_score`. It calls no Python function per node and leaves
    the breakdowns to :class:`_ScoreAudit`. Only a task no node can take
    asks :func:`first_violation` which constraint each node broke. The
    results equal :func:`filter_node` and :func:`score_node` exactly.
    """

    def __init__(self, nodes: list[NodeState], catalog: LayerCatalog,
                 config: SchedulerConfig, rng: random.Random | None):
        self.nodes = list(nodes)
        self.catalog = catalog
        self.config = config
        self.rng = rng
        self.ids = tuple(node.spec.id for node in self.nodes)
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}
        if len(self.index) != len(self.nodes):
            raise ScenarioError("nodes", "node ids must be unique")
        self.omegas = config.omegas()
        policy = config.weight_policy
        self.h_size, self.h_cpu, self.h_std = policy.h_size, policy.h_cpu, policy.h_std
        self.stored = [node.stored_layer_bytes(catalog) for node in self.nodes]
        self.storage_cap = [node.spec.storage_capacity for node in self.nodes]
        self.cpu_cap = [node.spec.cpu_capacity for node in self.nodes]
        self.mem_cap = [node.spec.mem_capacity for node in self.nodes]
        self.slots, self.cpu_used, self.mem_used, self.calm = (
            [0] * len(self.nodes) for _ in range(4))
        for i, node in enumerate(self.nodes):
            self._load(i, node)
        # image -> (overlap column, holds column, total bytes)
        self.images: dict[ImageRef, tuple[list[int], list[float], int]] = {}
        self.users: dict[str, list[list[int]]] = {}  # layer -> columns using it

    def _load(self, i: int, node: NodeState) -> None:
        """Set node ``i``'s free slots, committed CPU and memory and load
        count (how many of the gate's two load conditions it meets)."""
        self.slots[i] = node.spec.max_containers - len(node.running)
        self.cpu_used[i] = node.cpu_committed
        self.mem_used[i] = node.mem_committed
        self.calm[i] = (node.cpu_ratio() < self.h_cpu) + (std_score(node) < self.h_std)

    def _image(self, image: ImageRef) -> tuple[list[int], list[float], int]:
        """The image's overlap and holds columns and its total bytes."""
        entry = self.images.get(image)
        if entry is None:
            stack = layers_of(self.catalog, image)
            column = [sum(size for digest, size in stack if digest in node.local_layers)
                      for node in self.nodes]
            holds = [100.0 if image in node.local_images else 0.0 for node in self.nodes]
            for digest, _ in stack:
                self.users.setdefault(digest, []).append(column)
            entry = self.images[image] = (column, holds, sum(size for _, size in stack))
        return entry

    def decide(self, task: TaskRequest) -> Placement | Unschedulable:
        """Filter, score and pick a node for ``task``, changing no state."""
        nodes = self.nodes
        if not nodes:
            return Unschedulable(task.task_id, (), ())
        column, holds, total = self._image(task.image)
        config, omegas, h_size, calm = self.config, self.omegas, self.h_size, self.calm
        ids, slots = self.ids, self.slots
        cpu_used, cpu_cap, mem_used, mem_cap = (
            self.cpu_used, self.cpu_cap, self.mem_used, self.mem_cap)
        cpu_request, mem_request = task.cpu_request, task.mem_request
        plugins = config.plugins
        least, balanced, locality = (
            plugins.least_allocated, plugins.balanced_allocation, plugins.image_locality)
        enabled = (least is not None) + (balanced is not None) + (locality is not None)

        feasible = {}  # node id -> (node, local bytes of the image, final score)
        best, tied = float("-inf"), []
        # first_violation's storage test, stored + download > capacity,
        # negated: the nodes with room for the image's missing bytes.
        for i in compress(range(len(nodes)), map(
                le, map(add, self.stored, map(sub, repeat(total), column)),
                self.storage_cap)):
            if slots[i] <= 0:
                continue
            cpu, cpu_capacity = cpu_used[i], cpu_cap[i]
            if cpu + cpu_request > cpu_capacity:
                continue
            mem, mem_capacity = mem_used[i], mem_cap[i]
            if mem + mem_request > mem_capacity:
                continue
            # baseline_score, term by term.
            baseline = 0.0
            if least is not None:
                free_cpu = (cpu_capacity - cpu - cpu_request) / cpu_capacity * 100.0
                free_mem = (mem_capacity - mem - mem_request) / mem_capacity * 100.0
                baseline += least * ((free_cpu + free_mem) / 2.0)
            if balanced is not None:
                cpu_after = (cpu + cpu_request) / cpu_capacity
                mem_after = (mem + mem_request) / mem_capacity
                std_after = abs(cpu_after - mem_after) / 2.0
                baseline += balanced * ((1.0 - 2.0 * std_after) * 100.0)
            if locality is not None:
                baseline += locality * holds[i]
            overlap = column[i]
            layer = overlap / total * 100.0 if total else 0.0
            final = (omegas[(overlap > h_size) + calm[i]] * layer
                     + (baseline / enabled if enabled else 0.0))
            feasible[ids[i]] = (nodes[i], overlap, final)
            if final > best:
                best, tied = final, [i]
            elif final == best:
                tied.append(i)
        if not feasible:
            stored = self.stored
            return Unschedulable(task.task_id, ids, tuple(
                first_violation(node, task, stored[i], total - column[i])
                for i, node in enumerate(nodes)))

        tied.sort(key=ids.__getitem__)
        if config.tie_break == "random_seeded" and len(tied) > 1:
            i = (self.rng or random.Random(0)).choice(tied)
        else:
            i = tied[0]

        cost = total - column[i]
        return Placement(
            task_id=task.task_id,
            node_id=ids[i],
            download_bytes=cost,
            download_seconds=cost / nodes[i].spec.bandwidth,
            scores=_ScoreAudit(feasible, task, self.catalog, config),
        )

    def commit(self, task: TaskRequest, placement: Placement) -> None:
        """Bind ``task`` where ``placement`` chose and refresh that node."""
        i = self.index[placement.node_id]
        old = self.nodes[i]
        new = self.nodes[i] = commit_placement(old, task, self.catalog, self.stored[i])
        self.stored[i] += placement.download_bytes
        self._load(i, new)
        self._image(task.image)[1][i] = 100.0
        # Each newly held layer adds its bytes to every column using it.
        sizes = self.catalog.layers
        for digest in new.local_layers - old.local_layers:
            for column in self.users[digest]:
                column[i] += sizes[digest]


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

