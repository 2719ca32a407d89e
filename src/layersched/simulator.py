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
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import islice
from operator import add
from pathlib import Path

from ._jsonout import iter_indented_json
from .errors import ComparisonError, ScenarioError
from .model import LayerCatalog, LayerId, NodeSpec, NodeState, TaskRequest
from .scheduler import SchedulerConfig, Unschedulable, _Kernel
from .scoring import PLUGIN_NAMES
from .workload import WorkloadSpec, generate, stream


def ordered_sum(values):
    """Add ``values`` left to right, rounding after each addition, as
    ``sum`` did before Python 3.12; since then ``sum`` compensates float
    rounding, which would make reports differ across Python versions."""
    return reduce(add, values, 0)


# The run totals of a report, in the column order of the ensemble CSV.
AGGREGATES = ("total_download_bytes", "total_download_seconds", "mean_cluster_std",
              "total_pods", "unschedulable_count")

CSV_HEADER = ["step", "task", "node", "download_bytes", "download_seconds", "cluster_std"]

# Bytes buffered per write(2) of a JSON report: 128 KiB gets nearly all the
# gain a larger buffer gives over the default 8 KiB.
_WRITE_BUFFER = 1 << 17


@dataclass
class Scenario:
    """One simulation run: cluster, catalog, workload, scheduler, seed."""

    nodes: list[NodeSpec]
    catalog: LayerCatalog
    workload: WorkloadSpec
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    preloaded: dict[str, tuple[LayerId, ...]] = field(default_factory=dict)
    seed: int = 0
    bandwidth_override: int | None = None
    label: str = ""

    def validate(self) -> None:
        if not self.nodes:
            raise ScenarioError("nodes", "at least one node required")
        position = {node.id: i for i, node in enumerate(self.nodes)}
        if len(position) != len(self.nodes):
            raise ScenarioError("nodes", "node ids must be unique")
        if self.bandwidth_override is not None and self.bandwidth_override <= 0:
            raise ScenarioError("bandwidth_override", "must be > 0")
        for node_id, layers in self.preloaded.items():
            if node_id not in position:
                raise ScenarioError(f"preloaded.{node_id}", "unknown node id")
            i = position[node_id]
            for digest in layers:
                if digest not in self.catalog.layers:
                    raise ScenarioError(
                        f"nodes[{i}].preloaded_layers", f"layer {digest!r} not in catalog"
                    )
            stored = sum(self.catalog.layers[digest] for digest in set(layers))
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
        "layers": dict(sorted(scenario.catalog.layers.items())),
        "images": {
            ref.key: list(stack)
            for ref, stack in sorted(scenario.catalog.images.items(), key=lambda kv: kv[0].key)
        },
        "workload": {
            "kind": scenario.workload.kind,
            "count": scenario.workload.count,
            "image_weights": scenario.workload.image_weights,
            "cpu_range": list(scenario.workload.cpu_range),
            "mem_range": list(scenario.workload.mem_range),
            "seed": scenario.workload.seed,
            "trace_path": scenario.workload.trace_path,
        },
        "preloaded": {k: list(v) for k, v in sorted(scenario.preloaded.items())},
        "seed": scenario.seed,
        "bandwidth_override": scenario.bandwidth_override,
        "scheduler": {
            "policy": cfg.policy,
            "tie_break": cfg.tie_break,
            "weight": {**vars(cfg.weight_policy),
                       "custom_table": dict(cfg.weight_policy.custom_table)},
            "plugins": {name: getattr(cfg.plugins, name) for name in PLUGIN_NAMES},
        },
    }
    raw = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def initial_nodes(scenario: Scenario) -> list[NodeState]:
    specs = scenario.nodes
    if scenario.bandwidth_override is not None:
        specs = [replace(spec, bandwidth=scenario.bandwidth_override) for spec in specs]
    return [NodeState(spec=spec, local_layers=frozenset(scenario.preloaded.get(spec.id, ())))
            for spec in specs]


@dataclass
class StepMetrics:
    step: int
    task_id: str
    node_id: str | None  # None when the task was unschedulable
    download_bytes: int
    download_seconds: float
    cluster_std: float  # mean over nodes of the per-node balance score
    node_usage: dict[str, dict[str, float]]  # node -> {cpu, mem, disk}

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


@dataclass
class SimulationReport:
    scenario_fingerprint: str
    policy: str
    label: str
    steps: list[StepMetrics]
    total_download_bytes: int
    cumulative_download_bytes: list[int]
    total_download_seconds: float
    mean_cluster_std: float
    max_pods: dict[str, int]
    total_pods: int
    unschedulable_count: int
    final_usage: dict[str, dict[str, float]]

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


def _node_usage(node: NodeState, stored: int) -> dict[str, float]:
    """Committed CPU and memory and ``stored`` layer bytes, as shares of capacity."""
    return {
        "cpu": node.cpu_ratio(),
        "mem": node.mem_ratio(),
        "disk": stored / node.spec.storage_capacity,
    }


def replay(scenario: Scenario, tasks: list[TaskRequest], record: bool = False) -> SimulationReport:
    """Schedule ``tasks`` in order on the scenario's initial cluster and fold
    the outcomes into a report with no fingerprint.

    The totals add in step order, as :func:`ordered_sum` adds the per-step
    values, so they equal the per-step figures' sums exactly; on an empty
    list they stay the int ``0``. The steps and the cumulative download
    after each are recorded only if ``record``.
    """
    return _replay(_Kernel(initial_nodes(scenario), scenario.catalog, scenario.scheduler,
                           random.Random(scenario.seed)), tasks, scenario.label, record)


def _replay(kernel: _Kernel, tasks: list[TaskRequest], label: str,
            record: bool) -> SimulationReport:
    """:func:`replay` from ``kernel``, over the initial cluster and uncommitted."""
    # A placement changes one node: the kernel refreshes only that node's
    # stored bytes and balance score, and a recording replay only that node's
    # usage dict. The usage dicts are never mutated, so steps may share them.
    nodes, stored, stds, ids = kernel.nodes, kernel.stored, kernel.std, kernel.ids
    usage = {n.spec.id: _node_usage(n, size) for n, size in zip(nodes, stored)} if record else {}
    steps: list[StepMetrics] = []
    cumulative: list[int] = []
    download_bytes = download_seconds = std_total = unschedulable = 0
    for step_index, task in enumerate(tasks):
        i, download = kernel.pick(task)
        if i is None:
            node_id, seconds = None, 0.0
            unschedulable += 1
        else:
            kernel.commit(i, task)
            node_id, seconds = ids[i], download / nodes[i].spec.bandwidth
            if record:
                usage[node_id] = _node_usage(nodes[i], stored[i])
        if i is not None or step_index == 0:  # else the balance column did not change
            cluster_std = ordered_sum(stds) / len(stds)
        download_bytes += download
        download_seconds += seconds
        std_total += cluster_std
        if record:
            cumulative.append(download_bytes)
            steps.append(StepMetrics(step_index, task.task_id, node_id, download,
                                     seconds, cluster_std, dict(usage)))

    pods = {node.spec.id: len(node.running) for node in nodes}
    if not record:
        usage = {node.spec.id: _node_usage(node, size) for node, size in zip(nodes, stored)}
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
    scenario.validate()
    report = replay(scenario, _tasks(scenario), record=True)
    report.scenario_fingerprint = fingerprint(scenario)
    return report


@dataclass
class MaxPodsResult:
    per_node: dict[str, int]
    total: int
    stopped_by: str  # task id of the first fully-unschedulable task


def max_pods(scenario: Scenario, limit: int = 100_000) -> MaxPodsResult:
    """Deploy generated tasks until one is unschedulable on every node.

    The workload generator is re-seeded with the scenario seed so the
    metric is relative to the same task distribution as the main run.
    ``limit`` guards scenarios with no binding constraint.
    """
    scenario.validate()
    if scenario.workload.kind != "random":
        raise ScenarioError("workload.kind", "max_pods needs a random workload generator")
    catalog = scenario.catalog
    kernel = _Kernel(initial_nodes(scenario), catalog, scenario.scheduler,
                     random.Random(scenario.seed))
    workload = replace(scenario.workload, seed=scenario.seed)
    for task in islice(stream(workload, catalog), limit):
        outcome = kernel.step(task)
        if isinstance(outcome, Unschedulable):
            per_node = {node.spec.id: len(node.running) for node in kernel.nodes}
            return MaxPodsResult(per_node=per_node, total=sum(per_node.values()),
                                 stopped_by=outcome.task_id)
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
    ``default`` if there is one, else the first.
    """
    if not schedulers or not seeds:
        raise ComparisonError("nothing to compare: no schedulers or no seeds")
    scenario.validate()
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
    through a ``_WRITE_BUFFER``-byte buffer (about 46 ``write`` calls for a
    6 MB report); each object the payload shares is rendered once."""
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
