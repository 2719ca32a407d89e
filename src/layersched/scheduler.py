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

from .errors import CapacityViolation, ScenarioError
from .model import ImageRef, LayerCatalog, NodeState, TaskRequest, layers_of
# benchmarks/tracer.py wraps filter_node, score_node, commit_placement,
# baseline_score, layer_score and local_layer_size by their names on this
# module, so all six stay importable from it; the last three are imported only
# for that. The kernel calls none of the six.
from .scoring import (
    PLUGIN_NAMES,
    PluginConfig,
    ScoreBreakdown,
    WeightPolicy,
    baseline_score,
    layer_score,
    local_layer_size,
    std_score,
)

POLICIES = ("default", "layer_static", "lr_dynamic")
TIE_BREAKS = ("lowest_node_id", "random_seeded")


def _record(cls, **fields):
    """The frozen dataclass ``cls`` with ``fields``, all of them in field
    order, built without the generated ``__init__`` and its per-field
    ``object.__setattr__``; only for a class without ``__post_init__``."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


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
    :class:`FilterVerdict` in node order, are built when first read by the
    :meth:`_Kernel.verdicts` of a kernel over those nodes, and
    ``rejected_by`` names the constraint each node broke."""

    task_id: str
    nodes: tuple[NodeState, ...] = field(repr=False)
    task: TaskRequest = field(repr=False)
    catalog: LayerCatalog = field(repr=False)

    @cached_property
    def verdicts(self) -> tuple[FilterVerdict, ...]:
        # The filter reads no weight, so any config gives the same verdicts.
        kernel = _Kernel(self.nodes, self.catalog, SchedulerConfig(), None)
        return tuple(FilterVerdict(node_id, reason is None, reason)
                     for node_id, reason in zip(kernel.ids, kernel.verdicts(self.task)))

    @property
    def rejected_by(self) -> tuple[str, ...]:
        return tuple(verdict.rejected_by for verdict in self.verdicts)


def filter_node(node: NodeState, task: TaskRequest, catalog: LayerCatalog) -> FilterVerdict:
    """Feasibility check; the first failing constraint names the verdict.
    A one-node kernel's :meth:`_Kernel.verdicts`."""
    violated = _Kernel([node], catalog, SchedulerConfig(), None).verdicts(task)[0]
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


def commit_placement(node: NodeState, task: TaskRequest, catalog: LayerCatalog) -> NodeState:
    """Place ``task`` on ``node``, returning the successor state; ``node`` is
    left untouched. A one-node kernel's :meth:`_Kernel.commit`, behind a
    :class:`CapacityViolation` that names the constraint the placement breaks
    (the :func:`filter_node` verdict; no score is computed), so a caller that
    skipped filtering cannot corrupt node state."""
    kernel = _Kernel([node], catalog, SchedulerConfig(), None)
    violated = kernel.verdicts(task)[0]
    if violated is not None:
        raise CapacityViolation(violated)
    kernel.commit(0, task)
    return kernel.nodes[0]


class _Kernel:
    """Filter, score, argmax and bind over a cluster in which each commit
    changes one node: the package's only copy of each. :func:`filter_node`,
    :func:`score_node` and :func:`commit_placement` are one-node kernels.

    Per-node state is plain columns indexed like the nodes: ids, stored layer
    bytes, storage capacity, free container slots, committed and total CPU
    and memory, the balance score, the load count (how many of the gate's
    CPU and balance conditions hold), and per image an entry ``[column,
    holds, total, order, stale]``: the overlap column and the "holds the
    image" column (0.0 or 100.0), both filled for every node when the image
    is first seen, the image's total bytes, and its rows by descending
    overlap unless ``stale``. A commit (:meth:`commit`) builds the node's
    successor state and refreshes only that node; the order of each image
    whose overlap column it changes goes stale, to be re-sorted by
    :meth:`_rows` when next walked. :meth:`_configure` reads the weight table
    (:meth:`SchedulerConfig.omegas`), the gate thresholds and the plugin
    weights once; :meth:`copy` reruns it over copies of the columns and
    entries of a kernel that has not committed, so that every leg of
    ``compare`` starts from one kernel over the initial cluster.

    A decision (:meth:`pick`) hands :meth:`_score` the rows with disk room
    for the image (:meth:`_rows`): by descending overlap where the stop of
    :meth:`_score` can fire (``top`` is not None), so that the scan ends at
    the first row whose layer term at the largest weight cannot reach the
    best score so far, and in index order elsewhere. ``_score`` calls no
    Python function per node and scores a row in full only while its layer
    term plus the baseline ceiling (``bound``) can still reach the best score
    so far. :meth:`pick` returns the chosen row and its download bytes;
    :meth:`decide` records them with a snapshot of the nodes, the task, the
    catalog and the config, and the record's audit is built when read, as the
    :meth:`verdicts` or the :meth:`breakdowns` of a kernel over the snapshot,
    from the same code as the decision, which scan every row in index order.
    """

    def __init__(self, nodes: list[NodeState], catalog: LayerCatalog,
                 config: SchedulerConfig, rng: random.Random | None):
        self.nodes = list(nodes)
        self.catalog = catalog
        self.ids = tuple(node.spec.id for node in self.nodes)
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}
        if len(self.index) != len(self.nodes):
            raise ScenarioError("nodes", "node ids must be unique")
        self.stored = [node.stored_layer_bytes(catalog) for node in self.nodes]
        self.storage_cap = [node.spec.storage_capacity for node in self.nodes]
        self.cpu_cap = [node.spec.cpu_capacity for node in self.nodes]
        self.mem_cap = [node.spec.mem_capacity for node in self.nodes]
        # image -> [overlap column, holds column, total bytes, order, stale]
        self.images: dict[ImageRef, list] = {}
        self.users: dict[str, list[list]] = {}  # layer -> entries of images using it
        self._configure(config, rng)

    def _configure(self, config: SchedulerConfig, rng: random.Random | None) -> None:
        """Read ``config`` and load every row (:meth:`_load`) under it."""
        self.config, self.rng = config, rng
        self.omegas = config.omegas()
        policy = config.weight_policy
        self.h_size, self.h_cpu, self.h_std = policy.h_size, policy.h_cpu, policy.h_std
        self.slots, self.cpu_used, self.mem_used, self.std, self.calm = (
            [0] * len(self.nodes) for _ in range(5))
        for i, node in enumerate(self.nodes):
            try:
                self._load(i, node)
            except OverflowError:  # an int commitment whose ratio no float holds
                raise ScenarioError("nodes", f"node {node.spec.id}: committed CPU or "
                                             "memory is beyond the float range") from None
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
        # The largest weight, for _score's stop over rows by descending
        # overlap; None where the stop could never fire, so that keeping the
        # order would be waste: no weight above 0 (as under default), or no
        # bound.
        top = max(self.omegas)
        self.top = top if top > 0 and self.bound < float("inf") else None

    def copy(self, config: SchedulerConfig, rng: random.Random | None) -> _Kernel:
        """This uncommitted kernel under ``config`` and ``rng``, sharing nothing a commit writes."""
        kernel = object.__new__(_Kernel)
        kernel.__dict__.update(self.__dict__, nodes=self.nodes[:], stored=self.stored[:],
                               images={}, users={})
        for image, (column, holds, total, order, stale) in self.images.items():
            entry = kernel.images[image] = [column[:], holds[:], total, order[:], stale]
            for digest in self.catalog.images[image]:
                kernel.users.setdefault(digest, []).append(entry)
        kernel._configure(config, rng)
        return kernel

    def _load(self, i: int, node: NodeState) -> None:
        """Set node ``i``'s free slots, committed CPU and memory, balance
        score (:func:`std_score`) and load count (how many of the gate's two
        load conditions it meets)."""
        self.slots[i] = node.spec.max_containers - len(node.running)
        self.cpu_used[i] = node.cpu_committed
        self.mem_used[i] = node.mem_committed
        std = self.std[i] = std_score(node)
        self.calm[i] = (node.cpu_ratio() < self.h_cpu) + (std < self.h_std)

    def _image(self, image: ImageRef) -> list:
        """The image's entry ``[column, holds, total, order, stale]``."""
        entry = self.images.get(image)
        if entry is None:
            stack = layers_of(self.catalog, image)
            column = [sum(size for digest, size in stack if digest in node.local_layers)
                      for node in self.nodes]
            holds = [100.0 if image in node.local_images else 0.0 for node in self.nodes]
            entry = self.images[image] = [column, holds, sum(size for _, size in stack),
                                          list(range(len(self.nodes))), True]
            for digest, _ in stack:
                self.users.setdefault(digest, []).append(entry)
        return entry

    def _room(self, column: list[int], total: int) -> Iterator[int]:
        """The rows with disk room for an image of ``total`` bytes whose
        overlap column is ``column``: the filter's first test, stored +
        download > capacity, negated, as one C-level pass."""
        return compress(range(len(self.nodes)), map(
            le, map(add, self.stored, map(sub, repeat(total), column)), self.storage_cap))

    def _rows(self, image: list) -> Iterator[int]:
        """The rows :meth:`decide` scores for the image entry ``image``. With
        ``top``, the rows by descending overlap that pass :meth:`_room`'s
        test, run in C on each row as it is drawn, so that the stop of
        :meth:`_score` also ends the test; else :meth:`_room`'s rows."""
        column, _, total, order, stale = image
        if self.top is None:
            return self._room(column, total)
        if stale:
            order.sort(key=column.__getitem__, reverse=True)
            image[4] = False
        return compress(order, map(le, map(add, map(self.stored.__getitem__, order), map(
            sub, repeat(total), map(column.__getitem__, order))),
            map(self.storage_cap.__getitem__, order)))

    def _score(self, task: TaskRequest, image: list, rows: Iterable[int],
               top: float | None = None, filtered: bool = True, parts: list | None = None,
               reasons: list | None = None) -> list[int]:
        """Score ``task``, whose image's entry is ``image``, on each of
        ``rows``; return the rows that tie for the best final score.

        With ``filtered``, a row without a free container slot
        (``container_count``), or without room for the task's CPU
        (``cpu_fit``) or memory (``mem_fit``), is skipped. With ``reasons``,
        each row's first failing test in that order, or None, is written to
        ``reasons[row]``, and no row is scored. The baseline is the
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
        either way. With ``parts``, or unfiltered, every row is scored; with
        ``reasons`` none is, so ``best`` stays ``-inf`` and every row is
        filtered.

        With ``top``, the largest weight, the rows must come by descending
        overlap, and where a row is skipped the scan stops for good once
        ``top * layer + bound`` is below ``best``. :meth:`decide` passes
        ``top`` only if it is above 0 and ``bound`` is finite. Why: ``layer``
        is the overlap over the image's total bytes times 100 (0 for an empty
        image), so rounding keeps it at or above 0 and keeps it from rising
        along the rows. Take a later row, with weight ``w = omegas[count] <=
        top`` and layer ``l``, at most this row's ``layer``. Rounding is
        monotone, so ``w * l <= top * l`` as ``l >= 0``, and ``top * l <=
        top * layer`` as ``top > 0``; a negative ``w`` breaks neither step.
        Adding ``bound`` keeps the order, so the later row's ``term + bound
        <= top * layer + bound < best``, and, as above, it ends below
        ``best``. The strict ``<`` drops no tie, and the tied rows are those
        of a full scan, in walk order (:meth:`decide` sorts them by id).
        """
        column, holds, total, _, _ = image
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
                if top is not None and top * layer + bound < best:
                    break
                continue
            cpu, cpu_capacity = cpu_used[i], cpu_cap[i]
            mem, mem_capacity = mem_used[i], mem_cap[i]
            if filtered:
                reason = ("container_count" if slots[i] <= 0
                          else "cpu_fit" if cpu + cpu_request > cpu_capacity
                          else "mem_fit" if mem + mem_request > mem_capacity else None)
                if reasons is not None:  # verdicts only: no score can refuse a fit
                    reasons[i] = reason
                    continue
                if reason:
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
        image = column, _, total, _, _ = self._image(task.image)
        rows = self._room(column, total) if filtered else range(len(self.nodes))
        parts = []
        self._score(task, image, rows, None, filtered, parts)
        nodes, omegas = self.nodes, self.omegas
        return {self.ids[i]: ScoreBreakdown(
                    layer_score=layer, baseline_score=baseline,
                    std_score=std_score(nodes[i]), cpu_score=nodes[i].cpu_ratio(),
                    weight_gate=int(count == 3), omega_used=omegas[count], final=final)
                for i, layer, baseline, count, final in parts}

    def verdicts(self, task: TaskRequest) -> list[str | None]:
        """Each row's first failing filter constraint for ``task``, in the
        order ``storage``, ``container_count``, ``cpu_fit``, ``mem_fit``, or
        None for a row that fits."""
        image = column, _, total, _, _ = self._image(task.image)
        reasons: list[str | None] = ["storage"] * len(self.nodes)
        self._score(task, image, self._room(column, total), reasons=reasons)
        return reasons

    def pick(self, task: TaskRequest) -> tuple[int | None, int]:
        """Filter, score and pick a row for ``task``, changing no state: the
        row and the bytes it would download, or ``(None, 0)`` if no row fits."""
        image = column, _, total, _, _ = self._image(task.image)
        tied = self._score(task, image, self._rows(image), self.top)
        if not tied:
            return None, 0
        if len(tied) > 1:
            tied.sort(key=self.ids.__getitem__)
            if self.config.tie_break == "random_seeded":
                tied = [(self.rng or random.Random(0)).choice(tied)]
        return tied[0], total - column[tied[0]]

    def decide(self, task: TaskRequest) -> Placement | Unschedulable:
        """:meth:`pick` a node for ``task`` and record the outcome."""
        i, cost = self.pick(task)
        nodes = tuple(self.nodes)
        if i is None:
            return _record(Unschedulable, task_id=task.task_id, nodes=nodes, task=task,
                           catalog=self.catalog)
        return _record(Placement, task_id=task.task_id, node_id=self.ids[i], download_bytes=cost,
                       download_seconds=cost / nodes[i].spec.bandwidth, nodes=nodes, task=task,
                       catalog=self.catalog, config=self.config)

    def commit(self, i: int, task: TaskRequest) -> None:
        """Bind ``task`` to row ``i``, which its filter passed, building the
        node's successor state, and refresh that row. The successor shares
        the node's layer and image sets when nothing is added to them."""
        old = self.nodes[i]
        held, images = old.local_layers, old.local_images
        need = [digest for digest in self.catalog.images[task.image] if digest not in held]
        new = self.nodes[i] = _record(
            NodeState,
            spec=old.spec,
            local_layers=held.union(need) if need else held,
            local_images=images if task.image in images else images | {task.image},
            running=old.running + (task,),
            cpu_committed=old.cpu_committed + task.cpu_request,
            mem_committed=old.mem_committed + task.mem_request,
        )
        self._load(i, new)
        self.images[task.image][1][i] = 100.0  # the filter filled the entry in
        # Each newly held layer adds its bytes to the row's stored bytes and
        # to the overlap column of every image using it, whose order goes
        # stale.
        sizes = self.catalog.layers
        for digest in need:
            size = sizes[digest]
            self.stored[i] += size
            for entry in self.users[digest]:
                entry[0][i] += size
                entry[4] = True

    def step(self, task: TaskRequest) -> Placement | Unschedulable:
        """Decide ``task``, commit it if placed, and return the outcome."""
        outcome = self.decide(task)
        if isinstance(outcome, Placement):
            self.commit(self.index[outcome.node_id], task)
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

