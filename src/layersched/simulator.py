"""Deterministic replay of a task trace against a cluster, producing the
download/balance/capacity metrics the schedulers are compared on.

Downloads complete instantaneously with respect to scheduling order: task
i+1 is scheduled after task i's layers are committed. Containers never
leave; the experiments are accumulate-only.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

from .errors import ComparisonError, ScenarioError
from .model import LayerCatalog, LayerId, NodeSpec, NodeState
from .scheduler import (
    Placement,
    SchedulerConfig,
    Unschedulable,
    iter_schedule_trace,
)
from .scoring import std_score
from .workload import WorkloadSpec, generate, stream

CSV_HEADER = ["step", "task", "node", "download_bytes", "download_seconds", "cluster_std"]


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
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ScenarioError("nodes", "node ids must be unique")
        if self.bandwidth_override is not None and self.bandwidth_override <= 0:
            raise ScenarioError("bandwidth_override", "must be > 0")
        for node_id, layers in self.preloaded.items():
            if node_id not in ids:
                raise ScenarioError(f"preloaded.{node_id}", "unknown node id")
            for digest in layers:
                if digest not in self.catalog.layers:
                    raise ScenarioError(
                        f"preloaded.{node_id}", f"layer {digest!r} not in catalog"
                    )


def fingerprint(scenario: Scenario, include_scheduler: bool = True) -> str:
    """Stable hash of a scenario's semantic content (no wall clock)."""
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
    }
    if include_scheduler:
        cfg = scenario.scheduler
        payload["scheduler"] = {
            "policy": cfg.policy,
            "tie_break": cfg.tie_break,
            "weight": vars(cfg.weight_policy),
            "plugins": {name: getattr(cfg.plugins, name) for name in
                        ("least_allocated", "balanced_allocation", "image_locality")},
        }
    raw = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def initial_nodes(scenario: Scenario) -> list[NodeState]:
    specs = scenario.nodes
    if scenario.bandwidth_override is not None:
        specs = [replace(spec, bandwidth=scenario.bandwidth_override) for spec in specs]
    states = []
    for spec in specs:
        layers = frozenset(scenario.preloaded.get(spec.id, ()))
        state = NodeState(spec=spec, local_layers=layers)
        if state.stored_layer_bytes(scenario.catalog) > spec.storage_capacity:
            raise ScenarioError(f"preloaded.{spec.id}", "preloaded layers exceed storage")
        states.append(state)
    return states


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
        return {
            "total_download_bytes": self.total_download_bytes,
            "total_download_seconds": self.total_download_seconds,
            "mean_cluster_std": self.mean_cluster_std,
            "total_pods": self.total_pods,
            "unschedulable_count": self.unschedulable_count,
        }

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


def _node_usage(node: NodeState, catalog: LayerCatalog) -> dict[str, float]:
    return {
        "cpu": node.cpu_ratio(),
        "mem": node.mem_ratio(),
        "disk": node.stored_layer_bytes(catalog) / node.spec.storage_capacity,
    }


def _usage(nodes: list[NodeState], catalog: LayerCatalog) -> dict[str, dict[str, float]]:
    return {node.spec.id: _node_usage(node, catalog) for node in nodes}


def run(scenario: Scenario) -> SimulationReport:
    """Replay the scenario's workload and collect per-step metrics."""
    scenario.validate()
    nodes = initial_nodes(scenario)
    catalog = scenario.catalog
    workload = replace(scenario.workload, seed=scenario.seed)
    tasks = generate(workload, catalog)

    steps: list[StepMetrics] = []
    cumulative: list[int] = []
    running_total = 0
    final_nodes = nodes
    # A step changes at most one node: the per-node usage dicts and balance
    # scores of the previous step are reused for every node state it shares.
    # The usage dicts are never mutated, so steps may share them.
    ids = [node.spec.id for node in nodes]
    previous: list[NodeState | None] = [None] * len(nodes)
    usage: list[dict[str, float]] = [{}] * len(nodes)
    stds = [0.0] * len(nodes)
    for step_index, (outcome, current) in enumerate(
        iter_schedule_trace(tasks, nodes, catalog, scenario.scheduler, seed=scenario.seed)
    ):
        for i, node in enumerate(current):
            if node is not previous[i]:
                usage[i] = _node_usage(node, catalog)
                stds[i] = std_score(node)
        previous = current
        placed = isinstance(outcome, Placement)
        download = outcome.download_bytes if placed else 0
        running_total += download
        cumulative.append(running_total)
        steps.append(StepMetrics(
            step=step_index,
            task_id=outcome.task_id,
            node_id=outcome.node_id if placed else None,
            download_bytes=download,
            download_seconds=outcome.download_seconds if placed else 0.0,
            cluster_std=sum(stds) / len(stds),
            node_usage=dict(zip(ids, usage)),
        ))
        final_nodes = current

    pods = {node.spec.id: len(node.running) for node in final_nodes}
    return SimulationReport(
        scenario_fingerprint=fingerprint(scenario),
        policy=scenario.scheduler.policy,
        label=scenario.label or scenario.scheduler.policy,
        steps=steps,
        total_download_bytes=running_total,
        cumulative_download_bytes=cumulative,
        total_download_seconds=sum(s.download_seconds for s in steps),
        mean_cluster_std=(
            sum(s.cluster_std for s in steps) / len(steps) if steps else 0.0
        ),
        max_pods=pods,
        total_pods=sum(pods.values()),
        unschedulable_count=sum(1 for s in steps if s.node_id is None),
        final_usage=_usage(final_nodes, catalog),
    )


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
    nodes = initial_nodes(scenario)
    workload = replace(scenario.workload, seed=scenario.seed)
    tasks = islice(stream(workload, catalog), limit)
    for outcome, current in iter_schedule_trace(
        tasks, nodes, catalog, scenario.scheduler, seed=scenario.seed
    ):
        if isinstance(outcome, Unschedulable):
            per_node = {node.spec.id: len(node.running) for node in current}
            return MaxPodsResult(per_node=per_node, total=sum(per_node.values()),
                                 stopped_by=outcome.task_id)
    raise ScenarioError("workload", f"no task became unschedulable within {limit} steps")


@dataclass
class ComparisonReport:
    """Aggregates of same-workload runs under different policies, with
    percentage deltas against the run labelled ``default`` (or the first)."""

    workload_fingerprint: str
    reference: str
    runs: dict[str, dict]
    deltas: dict[str, dict[str, float | None]]

    def to_dict(self) -> dict:
        return {
            "workload_fingerprint": self.workload_fingerprint,
            "reference": self.reference,
            "runs": self.runs,
            "deltas": self.deltas,
        }


DELTA_METRICS = (
    "total_download_bytes",
    "total_download_seconds",
    "mean_cluster_std",
    "total_pods",
)


def _pct_delta(value: float, reference: float) -> float | None:
    if reference == 0:
        return 0.0 if value == 0 else None
    return (value - reference) / reference * 100.0


def deltas_against_reference(
    aggregates: dict[str, dict],
) -> tuple[str, dict[str, dict[str, float | None]]]:
    """Pick the reference run (``default`` if present, else the first) and
    the percentage delta of every run's :data:`DELTA_METRICS` against it."""
    reference = "default" if "default" in aggregates else next(iter(aggregates))
    ref_aggregates = aggregates[reference]
    deltas = {
        name: {
            metric: _pct_delta(values[metric], ref_aggregates[metric])
            for metric in DELTA_METRICS
        }
        for name, values in aggregates.items()
    }
    return reference, deltas


def compare(scenarios: list[tuple[str, Scenario]]) -> ComparisonReport:
    """Run each named scenario and tabulate aggregates and deltas.

    All scenarios must share everything except the scheduler; otherwise the
    comparison would not be apples-to-apples and ComparisonError is raised.
    """
    if not scenarios:
        raise ComparisonError("nothing to compare")
    base_fp = fingerprint(scenarios[0][1], include_scheduler=False)
    for name, scenario in scenarios[1:]:
        if fingerprint(scenario, include_scheduler=False) != base_fp:
            raise ComparisonError(
                f"scenario {name!r} differs from {scenarios[0][0]!r} beyond the scheduler"
            )

    runs = {name: run(scenario).aggregates() for name, scenario in scenarios}
    reference, deltas = deltas_against_reference(runs)
    return ComparisonReport(
        workload_fingerprint=base_fp,
        reference=reference,
        runs=runs,
        deltas=deltas,
    )


def write_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as sorted, indented JSON, streamed into the file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_report_json(report: SimulationReport | ComparisonReport, path: str | Path) -> None:
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
