"""The scheduling pipeline: filter by capacity constraints, score the
survivors, pick the argmax node, and fold placements over a task stream.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import compress, repeat
from operator import add, le, sub
from types import MappingProxyType

from .errors import CapacityViolation, ScenarioError
from .model import ImageRef, LayerCatalog, NodeState, TaskRequest, _Frozen, layers_of
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
)

POLICIES = ("default", "layer_static", "lr_dynamic")
TIE_BREAKS = ("lowest_node_id", "random_seeded")


class SchedulerConfig(_Frozen):
    """Which policy to run and how to weight/tie-break. Frozen, like its
    weight policy and plugins, so a decision's score audit, which reads the
    config when it is read, always shows the weights the decision used.

    ``default`` ignores layer sharing (weight 0, pure baseline score),
    ``layer_static`` applies ``weight_policy.omega_static`` unconditionally,
    ``lr_dynamic`` picks a weight per node load: the high or low weight
    (mode ``dynamic``) or an entry of ``custom_table`` (mode ``custom``).
    """

    def __init__(self, policy: str = "lr_dynamic", weight_policy: WeightPolicy = WeightPolicy(),
                 plugins: PluginConfig = PluginConfig(), tie_break: str = "lowest_node_id"):
        vars(self).update(policy=policy, weight_policy=weight_policy, plugins=plugins,
                          tie_break=tie_break)
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if policy == "lr_dynamic" and weight_policy.mode == "static":
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


class FilterVerdict(_Frozen):
    """Whether one node can take a task; if not, ``rejected_by`` names the
    first constraint it breaks: ``storage``, ``container_count``,
    ``cpu_fit`` or ``mem_fit``."""

    def __init__(self, node_id: str, feasible: bool, rejected_by: str | None = None):
        vars(self).update(node_id=node_id, feasible=feasible, rejected_by=rejected_by)


class Placement(_Frozen):
    """One task bound to one node. It keeps the decision's inputs (the
    decision-time ``nodes``, the ``task``, the ``catalog`` and the
    ``config``). ``scores``, the per-node score audit, is built from them
    when first read, by a kernel over those nodes: a read-only mapping from
    each feasible node's id, in node order, to its :class:`ScoreBreakdown`,
    whose ``final`` is the float the decision compared. The repr leaves the
    inputs out."""

    _hidden = ("nodes", "task", "catalog", "config")

    def __init__(self, task_id: str, node_id: str, download_bytes: int,
                 download_seconds: float, nodes: tuple[NodeState, ...], task: TaskRequest,
                 catalog: LayerCatalog, config: SchedulerConfig):
        vars(self).update(task_id=task_id, node_id=node_id, download_bytes=download_bytes,
                          download_seconds=download_seconds, nodes=nodes, task=task,
                          catalog=catalog, config=config)

    @cached_property
    def scores(self) -> Mapping[str, ScoreBreakdown]:
        kernel = _Kernel(self.nodes, self.catalog, self.config, None)
        return MappingProxyType(kernel.breakdowns(self.task))


class Unschedulable(_Frozen):
    """No node survived filtering. It keeps the decision-time ``nodes``, the
    ``task`` and the ``catalog``; ``verdicts``, each node's
    :class:`FilterVerdict` in node order, are built when first read by the
    :meth:`_Kernel.verdicts` of a kernel over those nodes, and
    ``rejected_by`` names the constraint each node broke. The repr leaves
    the inputs out."""

    _hidden = ("nodes", "task", "catalog")

    def __init__(self, task_id: str, nodes: tuple[NodeState, ...], task: TaskRequest,
                 catalog: LayerCatalog):
        vars(self).update(task_id=task_id, nodes=nodes, task=task, catalog=catalog)

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
    (the :func:`filter_node` verdict), so a caller that skipped filtering
    cannot corrupt node state."""
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

    Node state is plain columns indexed like the nodes, read from the input
    ``NodeState``s once, each of which holds its commitments finite and at
    least 0; two nodes under one id, or a held layer the catalog lacks, is a
    ``ScenarioError`` on ``nodes``. The columns are ids, specs, held layer and
    image sets, placed tasks, stored layer bytes, storage capacity, free
    container slots, committed and total CPU and memory, the balance score,
    the load count (how many of the gate's CPU and balance conditions hold),
    and per image an entry ``[column, holds, total, order, stale]``: the
    overlap column and the "holds the image" column (0.0 or 100.0), the
    image's total bytes, and its rows by descending overlap unless ``stale``.
    An entry is filled in when the image is first seen, from two indexes
    rather than a test of every node: each layer digest to the rows holding
    it, and each image to the rows of the input nodes holding it. A commit
    (:meth:`commit`) writes only the committed row's columns and adds the row
    to the holders of each layer it newly holds; the order of each image
    whose overlap column it changes goes stale, to be re-sorted by
    :meth:`_rows` when next walked. A ``NodeState`` is built, by its
    constructor, only when :attr:`nodes` is read. The weight table
    (:meth:`SchedulerConfig.omegas`), the gate thresholds and the plugin
    weights are read once; :meth:`copy` is a kernel under another config over
    the same nodes and image entries, so that every leg of ``compare`` starts
    from one kernel over the initial cluster.

    A decision (:meth:`pick`) hands :meth:`_score` the rows with disk room for
    the image (:meth:`_rows`): by descending overlap where a weight is above 0
    (``top`` is not None), so that the scan ends at the first row whose layer
    term at the largest weight cannot reach the best score so far, and in
    index order elsewhere. ``_score`` calls no Python function per node and
    scores a row in full only while its layer term plus the baseline ceiling
    (``bound``) can still reach the best score so far. :meth:`pick` returns
    the chosen row and its download bytes; :meth:`decide` records them with a
    snapshot of the nodes, the task, the catalog and the config. Its audit,
    built when read, is the :meth:`verdicts` or :meth:`breakdowns` of a kernel
    over the snapshot: both read one :meth:`_audit`, the decision's scan in
    index order over the rows with disk room, with their verdicts and scores.
    """

    def __init__(self, nodes: list[NodeState], catalog: LayerCatalog,
                 config: SchedulerConfig, rng: random.Random | None):
        self._nodes = list(nodes)  # each row's NodeState as of the last read of nodes
        self.catalog, self.config, self.rng = catalog, config, rng
        self.specs = [node.spec for node in self._nodes]
        self.ids = tuple(spec.id for spec in self.specs)
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ScenarioError("nodes", "node ids must be unique")
        self.local_layers = [set(node.local_layers) for node in self._nodes]
        self.local_images = [set(node.local_images) for node in self._nodes]
        # Each layer digest and image to the rows holding it, for _image.
        self.layer_rows: dict[str, list[int]] = {}
        self.image_rows: dict[ImageRef, list[int]] = {}
        for i, (layers, images) in enumerate(zip(self.local_layers, self.local_images)):
            for digest in layers:
                self.layer_rows.setdefault(digest, []).append(i)
            for image in images:
                self.image_rows.setdefault(image, []).append(i)
        self.running = [list(node.running) for node in self._nodes]
        self.stored = []
        for node in self._nodes:
            try:
                self.stored.append(node.stored_layer_bytes(catalog))
            except KeyError as err:  # a held layer the catalog lacks
                raise ScenarioError("nodes", f"node {node.spec.id}: layer {err.args[0]!r} "
                                             "not in catalog") from None
        self.storage_cap = [spec.storage_capacity for spec in self.specs]
        self.slots = [node.spec.max_containers - len(node.running) for node in self._nodes]
        self.cpu_cap = [spec.cpu_capacity for spec in self.specs]
        self.mem_cap = [spec.mem_capacity for spec in self.specs]
        self.cpu_used = [node.cpu_committed for node in self._nodes]
        self.mem_used = [node.mem_committed for node in self._nodes]
        # image -> [overlap column, holds column, total bytes, order, stale]
        self.images: dict[ImageRef, list] = {}
        self.users: dict[str, list[list]] = {}  # layer -> entries of images using it
        self.omegas = config.omegas()
        policy = config.weight_policy
        self.h_size, self.h_cpu, self.h_std = policy.h_size, policy.h_cpu, policy.h_std
        self.std, self.calm = [0] * len(self.ids), [0] * len(self.ids)
        for i in range(len(self.ids)):
            self._load(i)  # NodeState holds each commitment finite: no ratio raises
        # The plugin weights in PLUGIN_NAMES order (None where disabled) and
        # how many are enabled, for _score; and the most a feasible row's
        # baseline can be, added as _score adds it (see _score for why).
        self.plugin_weights = tuple(getattr(config.plugins, name) for name in PLUGIN_NAMES)
        weights = [w for w in self.plugin_weights if w is not None]
        self.enabled = len(weights)
        ceiling = 0.0
        for w in weights:
            ceiling += max(w * 100.0, 0.0)
        self.bound = ceiling / self.enabled if self.enabled else 0.0
        # The largest weight, for _score's stop over rows by descending
        # overlap; None where no weight is above 0 (as under default), so
        # the stop could never fire and keeping the order would be waste.
        top = max(self.omegas)
        self.top = top if top > 0 else None

    def copy(self, config: SchedulerConfig, rng: random.Random | None) -> _Kernel:
        """A kernel over this one's nodes under ``config`` and ``rng``, with
        copies of its image entries, so that it fills in none of them again."""
        kernel = _Kernel(self.nodes, self.catalog, config, rng)
        for image, (column, holds, total, order, stale) in self.images.items():
            entry = kernel.images[image] = [column[:], holds[:], total, order[:], stale]
            for digest in self.catalog.images[image]:
                kernel.users.setdefault(digest, []).append(entry)
        return kernel

    @property
    def nodes(self) -> list[NodeState]:
        """Each row's ``NodeState``, in a new list. A row committed to since
        the last read, whose placed tasks outnumber its record's, is rebuilt
        from its columns, keeping its record's layer or image set where that
        did not grow."""
        nodes, layers, images = self._nodes, self.local_layers, self.local_images
        for i, (old, placed) in enumerate(zip(nodes, self.running)):
            if len(placed) != len(old.running):
                nodes[i] = NodeState(
                    spec=old.spec,
                    local_layers=(old.local_layers if len(layers[i]) == len(old.local_layers)
                                  else frozenset(layers[i])),
                    local_images=(old.local_images if len(images[i]) == len(old.local_images)
                                  else frozenset(images[i])),
                    running=tuple(placed), cpu_committed=self.cpu_used[i],
                    mem_committed=self.mem_used[i])
        return nodes[:]

    def _load(self, i: int) -> None:
        """Set row ``i``'s balance score and load count (how many of the
        gate's two load conditions it meets) from its CPU and memory columns,
        by the float operations of :func:`~layersched.scoring.std_score`."""
        cpu = self.cpu_used[i] / self.cpu_cap[i]
        std = self.std[i] = abs(cpu - self.mem_used[i] / self.mem_cap[i]) / 2.0
        self.calm[i] = (cpu < self.h_cpu) + (std < self.h_std)

    def _image(self, image: ImageRef) -> list:
        """The image's entry ``[column, holds, total, order, stale]``. A new
        one adds each stack layer's size to its holders' overlaps in stack
        order; the input rows holding the image are all that can, as a
        commit adds an image to a row only once its entry exists."""
        entry = self.images.get(image)
        if entry is None:
            stack, n = layers_of(self.catalog, image), len(self.ids)
            entry = self.images[image] = [[0] * n, [0.0] * n, 0, list(range(n)), True]
            column, holds = entry[0], entry[1]
            for digest, size in stack:
                entry[2] += size
                for i in self.layer_rows.get(digest, ()):
                    column[i] += size
                self.users.setdefault(digest, []).append(entry)
            for i in self.image_rows.get(image, ()):
                holds[i] = 100.0
        return entry

    def _room(self, column: list[int], total: int) -> Iterator[int]:
        """The rows with disk room for an image of ``total`` bytes whose
        overlap column is ``column``: the filter's first test, stored +
        download > capacity, negated, as one C-level pass."""
        return compress(range(len(self.ids)), map(
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
               top: float | None = None, filtered: bool = True,
               parts: list | None = None) -> list[int]:
        """Score ``task``, whose image's entry is ``image``, on each of
        ``rows``; return the rows that tie for the best final score.

        With ``filtered``, a row without a free container slot
        (``container_count``), or without room for the task's CPU
        (``cpu_fit``) or memory (``mem_fit``), is rejected by the first of
        those tests it fails and is never scored. The baseline is the
        enabled plugins (:func:`baseline_score`) weighted, added in
        :data:`PLUGIN_NAMES` order and averaged. The gate counts three strict
        conditions: overlap above ``h_size``, CPU below ``h_cpu``, imbalance
        below ``h_std`` (the last two are the load count). The final score is
        ``term + baseline``, with ``term = omegas[count] * layer``: the same
        two float operations as ``omegas[count] * layer + baseline``.
        ``parts``, if given, gets ``(row, rejected_by, layer, baseline, count,
        final)`` per row: ``rejected_by`` None if scored, else no scores.

        Only a filtered scan without ``parts`` skips a row: it skips one,
        before its filter tests and baseline, when ``term + bound`` is below
        the best final so far, as it can neither win nor tie. Why: each plugin
        score of a feasible row lies in [0, 100], since its CPU and memory
        tests passed, ``TaskRequest`` refuses a CPU request at or below 0 and
        a memory request below 0, and no committed amount is negative:
        ``NodeState`` refuses a negative one, and a commit only adds the
        placed task's requests to it. Float rounding is monotone, so
        ``w * score <= max(w * 100.0, 0.0)`` for any weight ``w``; the sums in
        the same order, the division by the enabled count and the addition of
        ``term`` keep the order, so ``final <= term + bound < best``. ``best``
        only rises, so a skipped row ends below it; the strict ``<`` drops no
        tie, and the tied rows, in order, are those of a full scan. Nothing is
        skipped while ``best`` is ``-inf``, before a feasible row has scored,
        and a NaN final never wins or ties either way.

        With ``top``, the largest weight, the rows must come by descending
        overlap, and where a row is skipped the scan stops for good once
        ``top * layer + bound`` is below ``best``. :meth:`pick` passes ``top``
        only if it is above 0. Why: ``layer`` is the overlap over the image's
        total bytes times 100 (0 for an empty image), so rounding keeps it at
        or above 0 and keeps it from rising along the rows. Take a later row,
        with weight ``w = omegas[count] <= top`` and layer ``l``, at most this
        row's ``layer``. Rounding is monotone, so ``w * l <= top * l`` as
        ``l >= 0``, and ``top * l <= top * layer`` as ``top > 0``; a negative
        ``w`` breaks neither step. Adding ``bound`` keeps the order, so the
        later row's ``term + bound <= top * layer + bound < best``, and, as
        above, it ends below ``best``. The strict ``<`` drops no tie, and the
        tied rows are those of a full scan, in walk order (:meth:`pick` sorts
        them by id).
        """
        column, holds, total, _, _ = image
        omegas, h_size, calm, slots = self.omegas, self.h_size, self.calm, self.slots
        cpu_used, cpu_cap, mem_used, mem_cap = (
            self.cpu_used, self.cpu_cap, self.mem_used, self.mem_cap)
        cpu_request, mem_request = task.cpu_request, task.mem_request
        (least, balanced, locality), enabled = self.plugin_weights, self.enabled
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
                if reason:
                    if parts is not None:  # audited, never scored
                        parts.append((i, reason, layer, None, count, None))
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
                parts.append((i, None, layer, baseline, count, final))
            if final > best:
                best, tied = final, [i]
            elif final == best:
                tied.append(i)
        return tied

    def _audit(self, task: TaskRequest, filtered: bool = True) -> list[tuple]:
        """:meth:`_score`'s ``parts`` for ``task``, in index order, over the
        rows with disk room for its image (:meth:`_room`), or over every row
        if not ``filtered``."""
        image = column, _, total, _, _ = self._image(task.image)
        parts: list[tuple] = []
        self._score(task, image, self._room(column, total) if filtered
                    else range(len(self.ids)), None, filtered, parts)
        return parts

    def breakdowns(self, task: TaskRequest, filtered: bool = True) -> dict[str, ScoreBreakdown]:
        """Each scored node's :class:`ScoreBreakdown` by id, in node order:
        the nodes that pass the filter, or with ``filtered`` false every node."""
        std, cpu_used, cpu_cap, omegas = self.std, self.cpu_used, self.cpu_cap, self.omegas
        return {self.ids[i]: ScoreBreakdown(
                    layer_score=layer, baseline_score=baseline,
                    std_score=std[i], cpu_score=cpu_used[i] / cpu_cap[i],
                    weight_gate=int(count == 3), omega_used=omegas[count], final=final)
                for i, rejected_by, layer, baseline, count, final in self._audit(task, filtered)
                if rejected_by is None}

    def verdicts(self, task: TaskRequest) -> list[str | None]:
        """Each row's first failing filter constraint for ``task``, in the order
        ``storage``, ``container_count``, ``cpu_fit``, ``mem_fit``, or None."""
        found = {row[0]: row[1] for row in self._audit(task)}
        return [found.get(i, "storage") for i in range(len(self.ids))]

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
            return Unschedulable(task.task_id, nodes, task, self.catalog)
        return Placement(task.task_id, self.ids[i], cost, cost / self.specs[i].bandwidth,
                         nodes, task, self.catalog, self.config)

    def commit(self, i: int, task: TaskRequest) -> None:
        """Bind ``task`` to row ``i``, which its filter passed, by writing the
        row's columns; its ``NodeState`` is built only when :attr:`nodes` is
        next read."""
        held = self.local_layers[i]
        need = [digest for digest in self.catalog.images[task.image] if digest not in held]
        held.update(need)
        self.local_images[i].add(task.image)
        self.running[i].append(task)
        self.slots[i] -= 1
        self.cpu_used[i] += task.cpu_request
        self.mem_used[i] += task.mem_request
        self._load(i)
        self.images[task.image][1][i] = 100.0  # the filter filled the entry in
        # Each newly held layer adds the row to its holders and its bytes to
        # the row's stored bytes and to the overlap column of every image
        # using it, whose order goes stale.
        sizes, layer_rows = self.catalog.layers, self.layer_rows
        for digest in need:
            size = sizes[digest]
            self.stored[i] += size
            layer_rows.setdefault(digest, []).append(i)
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
        yield kernel.step(task), kernel.nodes

