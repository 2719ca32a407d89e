"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import add, le, sub
from types import MappingProxyType
from typing import Iterable, Iterator

from .errors import ScenarioError
from .model import (
    ImageRef,
    LayerCatalog,
    NodeState,
    TaskRequest,
    _record,
    commit_placement,
    first_violation,
    layers_of,
)
# benchmarks/tracer.py wraps filter_node, score_node, commit_placement,
# baseline_score, layer_score and local_layer_size by their names on this
# module, so all six stay importable from it; the last three are imported only
# for that. A decision calls none of them per node: only commit_placement, once
# per commit, so the other spans see from-scratch and audit calls only.
from .scoring import (
    PLUGIN_NAMES,
    PluginConfig,
    ScoreBreakdown,
    WeightPolicy,
    baseline_score,
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
        the only weight table the kernel reads."""
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
    """One task bound to one node. It keeps the decision's inputs (the
    decision-time ``nodes``, the ``task``, the ``catalog`` and the
    ``config``). ``scores``, the per-node score audit, is built from them
    when first read, by a kernel over those nodes: a read-only mapping from
    each feasible node's id, in node order, to its :class:`ScoreBreakdown`,
    whose ``final`` is the float the decision compared."""

    task_id: str
    node_id: str
    download_bytes: int
    download_seconds: float
    nodes: tuple[NodeState, ...] = field(repr=False)
    task: TaskRequest = field(repr=False)
    catalog: LayerCatalog = field(repr=False)
    config: SchedulerConfig = field(repr=False)

    @cached_property
    def scores(self) -> Mapping[str, ScoreBreakdown]:
        kernel = _Kernel(self.nodes, self.catalog, self.config, None)
        return MappingProxyType(kernel.breakdowns(self.task))


@dataclass(frozen=True)
class Unschedulable:
    """No node survived filtering. It keeps the decision-time ``nodes``, the
    ``task`` and the ``catalog``; ``verdicts``, each node's
    :func:`filter_node` verdict in node order, are built when first read,
    and ``rejected_by`` names the constraint each node broke."""

    task_id: str
    nodes: tuple[NodeState, ...] = field(repr=False)
    task: TaskRequest = field(repr=False)
    catalog: LayerCatalog = field(repr=False)

    @cached_property
    def verdicts(self) -> tuple[FilterVerdict, ...]:
        return tuple(filter_node(node, self.task, self.catalog) for node in self.nodes)

    @property
    def rejected_by(self) -> tuple[str, ...]:
        return tuple(verdict.rejected_by for verdict in self.verdicts)


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
    """Score one node under the configured policy, from scratch: a
    one-node kernel, scored whether or not the node passes the filter."""
    return _Kernel([node], catalog, config, None).breakdowns(task, False)[node.spec.id]


class _Kernel:
    """Filter, score and argmax over a cluster in which each commit changes
    one node. It holds the package's only scoring arithmetic.

    Per-node state is plain columns indexed like the nodes: ids, stored layer
    bytes, storage capacity, free container slots, committed and total CPU
    and memory, the balance score, the load count (how many of the gate's
    CPU and balance conditions hold), and per image an overlap column and a
    "holds the image" column (0.0 or 100.0), both filled for every node when
    the image is first seen. A commit hands the node's stored bytes to
    :func:`commit_placement` and refreshes only the node it changes. The
    weight table (:meth:`SchedulerConfig.omegas`), the gate thresholds and
    the plugin weights are read once.

    A decision runs the storage test over all nodes as one C-level pass
    (:meth:`_room`), then :meth:`_score` on the survivors, which calls no
    Python function per node and scores a row in full only while its layer
    term plus the baseline ceiling (``bound``) can still reach the best
    score so far. The outcome keeps a snapshot of the nodes with
    the task, the catalog and the config; its audit is built when read, as
    :func:`filter_node` verdicts or as the :meth:`breakdowns` of a kernel
    over the snapshot, the same floats from the same code as the decision's.
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
        self.slots, self.cpu_used, self.mem_used, self.std, self.calm = (
            [0] * len(self.nodes) for _ in range(5))
        for i, node in enumerate(self.nodes):
            self._load(i, node)
        # The most a feasible row's baseline can be, added as _score adds it;
        # see _score for why, and why negative commitments turn it off.
        weights = [w for w in (getattr(config.plugins, name) for name in PLUGIN_NAMES)
                   if w is not None]
        ceiling = 0.0
        for w in weights:
            ceiling += max(w * 100.0, 0.0)
        self.bound = ceiling / len(weights) if weights else 0.0
        if min(self.cpu_used, default=0) < 0 or min(self.mem_used, default=0) < 0:
            self.bound = float("inf")
        # image -> (overlap column, holds column, total bytes)
        self.images: dict[ImageRef, tuple[list[int], list[float], int]] = {}
        self.users: dict[str, list[list[int]]] = {}  # layer -> columns using it

    def _load(self, i: int, node: NodeState) -> None:
        """Set node ``i``'s free slots, committed CPU and memory, balance
        score (:func:`std_score`) and load count (how many of the gate's two
        load conditions it meets)."""
        self.slots[i] = node.spec.max_containers - len(node.running)
        self.cpu_used[i] = node.cpu_committed
        self.mem_used[i] = node.mem_committed
        std = self.std[i] = std_score(node)
        self.calm[i] = (node.cpu_ratio() < self.h_cpu) + (std < self.h_std)

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

    def _room(self, column: list[int], total: int) -> Iterator[int]:
        """The rows with disk room for an image of ``total`` bytes whose
        overlap column is ``column``: first_violation's storage test,
        stored + download > capacity, negated, as one C-level pass."""
        return compress(range(len(self.nodes)), map(
            le, map(add, self.stored, map(sub, repeat(total), column)), self.storage_cap))

    def _score(self, task: TaskRequest, image: tuple[list[int], list[float], int],
               rows: Iterable[int], filtered: bool = True, parts: list | None = None) -> list[int]:
        """Score ``task``, whose image's columns are ``image``, on each of
        ``rows``; return the rows that tie for the best final score.

        With ``filtered``, a row without a free container slot, or without
        room for the task's CPU or memory, is skipped. The baseline is the
        enabled plugins (:func:`baseline_score`) weighted, added in
        :data:`PLUGIN_NAMES` order and averaged. The gate counts three strict
        conditions: overlap above ``h_size``, CPU below ``h_cpu``, imbalance
        below ``h_std`` (the last two are the load count). The final score is
        ``term + baseline``, with ``term = omegas[count] * layer``: the same
        two float operations as ``omegas[count] * layer + baseline``.
        ``parts``, if given, gets ``(row, layer, baseline, count, final)`` per
        scored row.

        Without ``parts``, a filtered row is skipped, before its filter
        tests and baseline, when ``term + bound`` is below the best final so
        far: it can neither win nor tie. Why: each plugin score of a feasible
        row lies in [0, 100], since its CPU and memory tests passed,
        ``TaskRequest`` refuses a CPU request at or below 0 and a memory
        request below 0, and no committed amount is negative (``__init__``
        sets ``bound`` to ``inf`` if a node starts with one). Float rounding
        is monotone, so ``w * score <= max(w * 100.0, 0.0)`` for any weight
        ``w``; the sums in the same order, the division by the enabled count
        and the addition of ``term`` keep the order, so ``final <= term +
        bound < best``. ``best`` only rises, so a skipped row ends below it;
        the strict ``<`` drops no tie, and the tied rows, in order, are
        those of a full scan. Nothing is skipped while ``best`` is ``-inf``,
        before a feasible row has scored, and a NaN final never wins or ties
        either way. With ``parts``, or unfiltered, every row is scored.
        """
        column, holds, total = image
        omegas, h_size, calm, slots = self.omegas, self.h_size, self.calm, self.slots
        cpu_used, cpu_cap, mem_used, mem_cap = (
            self.cpu_used, self.cpu_cap, self.mem_used, self.mem_cap)
        cpu_request, mem_request = task.cpu_request, task.mem_request
        plugins = self.config.plugins
        least, balanced, locality = (
            plugins.least_allocated, plugins.balanced_allocation, plugins.image_locality)
        enabled = (least is not None) + (balanced is not None) + (locality is not None)
        bound = self.bound if filtered and parts is None else float("inf")

        best, tied = float("-inf"), []
        for i in rows:
            overlap = column[i]
            layer = overlap / total * 100.0 if total else 0.0
            count = (overlap > h_size) + calm[i]
            term = omegas[count] * layer
            if term + bound < best:
                continue
            cpu, cpu_capacity = cpu_used[i], cpu_cap[i]
            mem, mem_capacity = mem_used[i], mem_cap[i]
            if filtered and (slots[i] <= 0 or cpu + cpu_request > cpu_capacity
                             or mem + mem_request > mem_capacity):
                continue
            weighted = 0.0
            if least is not None:
                free_cpu = (cpu_capacity - cpu - cpu_request) / cpu_capacity * 100.0
                free_mem = (mem_capacity - mem - mem_request) / mem_capacity * 100.0
                weighted += least * ((free_cpu + free_mem) / 2.0)
            if balanced is not None:
                cpu_after = (cpu + cpu_request) / cpu_capacity
                mem_after = (mem + mem_request) / mem_capacity
                std_after = abs(cpu_after - mem_after) / 2.0
                weighted += balanced * ((1.0 - 2.0 * std_after) * 100.0)
            if locality is not None:
                weighted += locality * holds[i]
            baseline = weighted / enabled if enabled else 0.0
            final = term + baseline
            if parts is not None:
                parts.append((i, layer, baseline, count, final))
            if final > best:
                best, tied = final, [i]
            elif final == best:
                tied.append(i)
        return tied

    def breakdowns(self, task: TaskRequest, filtered: bool = True) -> dict[str, ScoreBreakdown]:
        """Each scored node's :class:`ScoreBreakdown` by id, in node order:
        the nodes that pass the filter, or with ``filtered`` false every node."""
        image = column, _, total = self._image(task.image)
        rows = self._room(column, total) if filtered else range(len(self.nodes))
        parts = []
        self._score(task, image, rows, filtered, parts)
        nodes, omegas = self.nodes, self.omegas
        return {self.ids[i]: ScoreBreakdown(
                    layer_score=layer, baseline_score=baseline,
                    std_score=std_score(nodes[i]), cpu_score=nodes[i].cpu_ratio(),
                    weight_gate=int(count == 3), omega_used=omegas[count], final=final)
                for i, layer, baseline, count, final in parts}

    def decide(self, task: TaskRequest) -> Placement | Unschedulable:
        """Filter, score and pick a node for ``task``, changing no state."""
        nodes = self.nodes
        image = column, _, total = self._image(task.image)
        tied = self._score(task, image, self._room(column, total))
        if not tied:
            return _record(Unschedulable, task_id=task.task_id, nodes=tuple(nodes),
                           task=task, catalog=self.catalog)

        tied.sort(key=self.ids.__getitem__)
        if self.config.tie_break == "random_seeded" and len(tied) > 1:
            i = (self.rng or random.Random(0)).choice(tied)
        else:
            i = tied[0]

        cost = total - column[i]
        return _record(
            Placement,
            task_id=task.task_id,
            node_id=self.ids[i],
            download_bytes=cost,
            download_seconds=cost / nodes[i].spec.bandwidth,
            nodes=tuple(nodes),
            task=task,
            catalog=self.catalog,
            config=self.config,
        )

    def commit(self, placement: Placement) -> None:
        """Bind the task of ``placement``, this kernel's decision, where it
        chose and refresh that node."""
        task = placement.task
        i = self.index[placement.node_id]
        old = self.nodes[i]
        new = self.nodes[i] = commit_placement(old, task, self.catalog, self.stored[i])
        self.stored[i] += placement.download_bytes
        self._load(i, new)
        self.images[task.image][1][i] = 100.0  # decide filled the entry in
        # Each newly held layer adds its bytes to every column using it.
        sizes = self.catalog.layers
        for digest in new.local_layers - old.local_layers:
            for column in self.users[digest]:
                column[i] += sizes[digest]

    def step(self, task: TaskRequest) -> Placement | Unschedulable:
        """Decide ``task``, commit it if placed, and return the outcome."""
        outcome = self.decide(task)
        if isinstance(outcome, Placement):
            self.commit(outcome)
        return outcome


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
        # Copy so consumers hold a stable snapshot, not the live list.
        yield kernel.step(task), list(kernel.nodes)

