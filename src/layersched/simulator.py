"""Deterministic replay of a task trace against a cluster, producing the
download/balance/capacity metrics the schedulers are compared on.

Downloads complete instantaneously with respect to scheduling order: task
i+1 is scheduled after task i's layers are committed. Containers never
leave; the experiments are accumulate-only.
"""

from __future__ import annotations

import csv
import json
import random
from collections.abc import Mapping, Sequence
from itertools import islice
from pathlib import Path

from ._jsonout import iter_indented_json
from .errors import ComparisonError, ScenarioError
from .model import (
    LayerCatalog,
    LayerId,
    NodeSpec,
    NodeState,
    TaskRequest,
    _finite,
    _Record,
    ordered_sum,
    replace,
)
from .scheduler import SchedulerConfig, _Kernel
from .workload import WorkloadSpec, generate, stream


# The run totals of a report, in the column order of the ensemble CSV.
AGGREGATES = ("total_download_bytes", "total_download_seconds", "mean_cluster_std",
              "total_pods", "unschedulable_count")

CSV_HEADER = ["step", "task", "node", "download_bytes", "download_seconds", "cluster_std"]

# Bytes buffered per write(2) of a JSON report: 128 KiB gets nearly all the
# gain a larger buffer gives over the default 8 KiB.
_WRITE_BUFFER = 1 << 17


class Scenario(_Record):
    """One simulation run: cluster, catalog, workload, scheduler, seed.
    ``preloaded`` maps a node id to the layers it holds at the start (a new
    empty dict if not given)."""

    def __init__(self, nodes: list[NodeSpec], catalog: LayerCatalog, workload: WorkloadSpec,
                 scheduler: SchedulerConfig = SchedulerConfig(),
                 preloaded: dict[str, tuple[LayerId, ...]] | None = None, seed: int = 0,
                 bandwidth_override: int | None = None, label: str = ""):
        self.nodes = nodes
        self.catalog = catalog
        self.workload = workload
        self.scheduler = scheduler
        self.preloaded = {} if preloaded is None else preloaded
        self.seed = seed
        self.bandwidth_override = bandwidth_override
        self.label = label

    def validate(self) -> None:
        if not self.nodes:
            raise ScenarioError("nodes", "at least one node required")
        position = {node.id: i for i, node in enumerate(self.nodes)}
        override = self.bandwidth_override
        if override is not None and not _finite(override):
            raise ScenarioError("bandwidth_override", "must be finite")
        if override is not None and override <= 0:
            raise ScenarioError("bandwidth_override", "must be > 0")
        if self.seed < 0:  # random.Random would draw what abs(seed) draws
            raise ScenarioError("seed", "must be >= 0")
        for node_id, layers in self.preloaded.items():
            if node_id not in position:
                raise ScenarioError(f"preloaded.{node_id}", "unknown node id")
            i = position[node_id]
            for digest in layers:
                if digest not in self.catalog.layers:
                    raise ScenarioError(
                        f"nodes[{i}].preloaded_layers", f"layer {digest!r} not in catalog"
                    )
            stored = ordered_sum(map(self.catalog.layers.__getitem__, sorted(set(layers))))
            if stored > self.nodes[i].storage_capacity:
                raise ScenarioError(f"nodes[{i}].storage", "preloaded layers exceed storage")


def fingerprint(scenario: Scenario) -> str:
    """Stable hash of a scenario's semantic content (no wall clock)."""
    import hashlib  # here, not at the top: only `run`'s reports carry a fingerprint

    cfg = scenario.scheduler
    payload = {
        "nodes": [
            {
                "id": n.id,
                "cpu": n.cpu_capacity,
                "mem": n.mem_capacity,
                "bandwidth": n.bandwidth,
                "storage": n.storage_capacity,
                "max_containers": n.max_containers,
            }
            for n in scenario.nodes
        ],
        "layers": scenario.catalog.layers,
        "images": {ref.key: stack for ref, stack in scenario.catalog.images.items()},
        "workload": vars(scenario.workload),
        "preloaded": scenario.preloaded,
        "seed": scenario.seed,
        "bandwidth_override": scenario.bandwidth_override,
        "scheduler": {
            "policy": cfg.policy,
            "tie_break": cfg.tie_break,
            "weight": {**vars(cfg.weight_policy),
                       "custom_table": dict(cfg.weight_policy.custom_table)},
            "plugins": vars(cfg.plugins),
        },
    }
    raw = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def initial_nodes(scenario: Scenario) -> list[NodeState]:
    """The scenario's nodes at the start of a run, once it is valid
    (:meth:`Scenario.validate`); every simulator entry builds its nodes here."""
    scenario.validate()
    specs = scenario.nodes
    if scenario.bandwidth_override is not None:
        specs = [replace(spec, bandwidth=scenario.bandwidth_override) for spec in specs]
    return [NodeState(spec=spec, local_layers=frozenset(scenario.preloaded.get(spec.id, ())))
            for spec in specs]


class StepMetrics(_Record):
    """One step of a recorded run: the task, the node it went to (``None``
    if it was unschedulable), the bytes and seconds its download took, the
    mean over nodes of the per-node balance score, and each node's usage
    (``{cpu, mem, disk}`` shares)."""

    def __init__(self, step: int, task_id: str, node_id: str | None, download_bytes: int,
                 download_seconds: float, cluster_std: float,
                 node_usage: dict[str, dict[str, float]]):
        self.step = step
        self.task_id = task_id
        self.node_id = node_id
        self.download_bytes = download_bytes
        self.download_seconds = download_seconds
        self.cluster_std = cluster_std
        self.node_usage = node_usage

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "task": self.task_id,
            "node": self.node_id,
            "download_bytes": self.download_bytes,
            "download_seconds": self.download_seconds,
            "cluster_std": self.cluster_std,
            "node_usage": self.node_usage,
        }


class SimulationReport(_Record):
    """The outcome of one run: the steps (if recorded), the cumulative
    download after each, the :data:`AGGREGATES` totals, the pods placed per
    node and each node's final usage, under the scenario's fingerprint."""

    def __init__(self, scenario_fingerprint: str, policy: str, label: str,
                 steps: list[StepMetrics], total_download_bytes: int,
                 cumulative_download_bytes: list[int], total_download_seconds: float,
                 mean_cluster_std: float, max_pods: dict[str, int], total_pods: int,
                 unschedulable_count: int, final_usage: dict[str, dict[str, float]]):
        self.scenario_fingerprint = scenario_fingerprint
        self.policy = policy
        self.label = label
        self.steps = steps
        self.total_download_bytes = total_download_bytes
        self.cumulative_download_bytes = cumulative_download_bytes
        self.total_download_seconds = total_download_seconds
        self.mean_cluster_std = mean_cluster_std
        self.max_pods = max_pods
        self.total_pods = total_pods
        self.unschedulable_count = unschedulable_count
        self.final_usage = final_usage

    def aggregates(self) -> dict:
        return {name: getattr(self, name) for name in AGGREGATES}

    def to_dict(self) -> dict:
        return {
            "scenario_fingerprint": self.scenario_fingerprint,
            "policy": self.policy,
            "label": self.label,
            "aggregates": self.aggregates(),
            "cumulative_download_bytes": self.cumulative_download_bytes,
            "max_pods": self.max_pods,
            "final_usage": self.final_usage,
            "steps": [step.to_dict() for step in self.steps],
        }


def _node_usage(kernel: _Kernel, i: int) -> dict[str, float]:
    """Row ``i``'s committed CPU and memory and stored layer bytes, as shares of capacity."""
    return {
        "cpu": kernel.cpu_used[i] / kernel.cpu_cap[i],
        "mem": kernel.mem_used[i] / kernel.mem_cap[i],
        "disk": kernel.stored[i] / kernel.storage_cap[i],
    }


def replay(scenario: Scenario, tasks: list[TaskRequest], record: bool = False) -> SimulationReport:
    """Schedule ``tasks`` in order on the scenario's initial cluster and fold
    the outcomes into a report with no fingerprint.

    The totals add in step order, as :func:`ordered_sum` adds the per-step
    values, so they equal the per-step figures' sums exactly; on an empty
    list they stay the int ``0``. The steps and the cumulative download
    after each are recorded only if ``record``.
    """
    return _replay(_seeded(scenario, initial_nodes(scenario)), tasks, scenario.label, record)


def _seeded(scenario: Scenario, nodes: list[NodeState]) -> _Kernel:
    """A kernel over ``nodes`` under the scenario's scheduler and seed."""
    return _Kernel(nodes, scenario.catalog, scenario.scheduler, random.Random(scenario.seed))


def _replay(kernel: _Kernel, tasks: list[TaskRequest], label: str,
            record: bool) -> SimulationReport:
    """:func:`replay` from ``kernel``, over the initial cluster and uncommitted."""
    # A placement changes one node: the kernel refreshes only that node's
    # stored bytes and balance score, and a recording replay only that node's
    # usage dict. The usage dicts are never mutated, so steps may share them.
    stds, ids, specs = kernel.std, kernel.ids, kernel.specs
    pick, commit = kernel.pick, kernel.commit
    usage = {node_id: _node_usage(kernel, i) for i, node_id in enumerate(ids)} if record else {}
    steps: list[StepMetrics] = []
    cumulative: list[int] = []
    download_bytes = download_seconds = std_total = unschedulable = 0
    for step_index, task in enumerate(tasks):
        i, download = pick(task)
        if i is None:
            node_id, seconds = None, 0.0
            unschedulable += 1
        else:
            commit(i, task)
            node_id, seconds = ids[i], download / specs[i].bandwidth
            if record:
                usage[node_id] = _node_usage(kernel, i)
        if i is not None or step_index == 0:  # else the balance column did not change
            cluster_std = ordered_sum(stds) / len(stds)
        download_bytes += download
        download_seconds += seconds
        std_total += cluster_std
        if record:
            cumulative.append(download_bytes)
            steps.append(StepMetrics(step_index, task.task_id, node_id, download,
                                     seconds, cluster_std, dict(usage)))

    pods = {node_id: len(placed) for node_id, placed in zip(ids, kernel.running)}
    if not record:
        usage = {node_id: _node_usage(kernel, i) for i, node_id in enumerate(ids)}
    count = len(tasks)
    totals = (download_bytes, download_seconds, std_total / count if count else 0.0,
              sum(pods.values()), unschedulable)
    return SimulationReport("", kernel.config.policy, label or kernel.config.policy, steps,
                            cumulative_download_bytes=cumulative, max_pods=pods,
                            final_usage=usage, **dict(zip(AGGREGATES, totals)))


def _tasks(scenario: Scenario) -> list[TaskRequest]:
    """The scenario's task list, drawn with the scenario's seed."""
    return generate(replace(scenario.workload, seed=scenario.seed), scenario.catalog)


def run(scenario: Scenario) -> SimulationReport:
    """Replay the scenario's workload, report every step (see
    :func:`replay`) and fingerprint the scenario."""
    nodes = initial_nodes(scenario)  # refuses an invalid scenario before a task is drawn
    tasks = _tasks(scenario)
    report = _replay(_seeded(scenario, nodes), tasks, scenario.label, True)
    report.scenario_fingerprint = fingerprint(scenario)
    return report


class MaxPodsResult(_Record):
    """The pods placed per node and in all before ``stopped_by``, the id of
    the first task no node could take."""

    def __init__(self, per_node: dict[str, int], total: int, stopped_by: str):
        self.per_node = per_node
        self.total = total
        self.stopped_by = stopped_by


def max_pods(scenario: Scenario, limit: int = 100_000) -> MaxPodsResult:
    """Deploy generated tasks until one is unschedulable on every node.

    The workload generator is re-seeded with the scenario seed so the
    metric is relative to the same task distribution as the main run.
    ``limit`` guards scenarios with no binding constraint.
    """
    nodes = initial_nodes(scenario)
    if scenario.workload.kind != "random":
        raise ScenarioError("workload.kind", "max_pods needs a random workload generator")
    kernel = _seeded(scenario, nodes)
    workload = replace(scenario.workload, seed=scenario.seed)
    for task in islice(stream(workload, scenario.catalog), limit):
        i, _ = kernel.pick(task)
        if i is None:
            per_node = {node_id: len(placed)
                        for node_id, placed in zip(kernel.ids, kernel.running)}
            return MaxPodsResult(per_node=per_node, total=sum(per_node.values()),
                                 stopped_by=task.task_id)
        kernel.commit(i, task)
    raise ScenarioError("workload", f"no task became unschedulable within {limit} steps")


DELTA_METRICS = AGGREGATES[:4]  # every total but the unschedulable count


def _pct_delta(value: float, reference: float) -> float | None:
    if reference == 0:
        return 0.0 if value == 0 else None
    return (value - reference) / reference * 100.0


def compare(scenario: Scenario, schedulers: Mapping[str, SchedulerConfig],
            seeds: Sequence[int]) -> dict:
    """Replay ``scenario`` under each labelled scheduler config on each seed
    and tabulate the ensemble.

    Each seed's task list is drawn once and shared by every leg; a leg folds
    to its :data:`AGGREGATES` (see :func:`replay`), equal to
    ``run(replace(scenario, scheduler=config, seed=seed)).aggregates()``
    exactly. ``results[label]`` holds the ``per_seed`` rows in seed order and
    their ``mean``; ``deltas_pct`` is each mean's percentage delta of the
    :data:`DELTA_METRICS` against the ``reference`` scheduler, labelled
    ``default`` if there is one, else the first. The seeds must be unique
    integers >= 0, as a scenario file's are; else :class:`ComparisonError`.
    """
    if not schedulers or not seeds:
        raise ComparisonError("nothing to compare: no schedulers or no seeds")
    # A bool is no seed, and a repeated one would count twice in each mean.
    if any(type(seed) is not int for seed in seeds) or len(set(seeds)) != len(seeds):
        raise ComparisonError(f"seeds {list(seeds)}: must be unique integers")
    if min(seeds) < 0:  # random.Random would draw what abs(seed) draws
        raise ComparisonError(f"seed {min(seeds)}: must be >= 0")
    # Legs copy one kernel over the initial cluster, so each image is filled in once.
    start = _Kernel(initial_nodes(scenario), scenario.catalog, scenario.scheduler, None)
    per_seed: dict[str, list[dict]] = {label: [] for label in schedulers}
    for seed in seeds:
        tasks = _tasks(replace(scenario, seed=seed))
        for task in tasks:
            start._image(task.image)
        for label, config in schedulers.items():
            totals = _replay(start.copy(config, random.Random(seed)), tasks, "", False).aggregates()
            per_seed[label].append({"seed": seed, **totals})

    means = {label: {key: ordered_sum(row[key] for row in rows) / len(rows)
                     for key in AGGREGATES}
             for label, rows in per_seed.items()}
    reference = "default" if "default" in means else next(iter(means))
    return {
        "reference": reference,
        "seeds": list(seeds),
        "schedulers": list(schedulers),
        "results": {label: {"per_seed": per_seed[label], "mean": means[label]}
                    for label in schedulers},
        "deltas_pct": {label: {metric: _pct_delta(mean[metric], means[reference][metric])
                               for metric in DELTA_METRICS}
                       for label, mean in means.items()},
    }


def write_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as sorted, indented JSON, streamed into the file
    through a ``_WRITE_BUFFER``-byte buffer; each object the payload shares
    is rendered once."""
    with open(path, "w", encoding="utf-8", buffering=_WRITE_BUFFER) as handle:
        handle.writelines(iter_indented_json(payload))
        handle.write("\n")


def write_report_json(report: SimulationReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def write_steps_csv(report: SimulationReport, path: str | Path) -> None:
    """One row per step; the header is a stable contract for plotting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for step in report.steps:
            writer.writerow([
                step.step,
                step.task_id,
                step.node_id if step.node_id is not None else "unschedulable",
                step.download_bytes,
                f"{step.download_seconds:.6f}",
                f"{step.cluster_std:.6f}",
            ])
