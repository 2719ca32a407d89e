"""Seeded input generators and output checks for the three workloads.

Every input is drawn from ``random.Random("<workload>/<seed>")``, so the same
seed gives byte-identical inputs in any process. The counts that set the
amount of work (nodes, tasks, legs, images, layers, manifests) are fixed per
workload; the seed only moves contents (sizes, which image shares which layer,
which images are multi-arch), so timings stay comparable across seeds.

The checks read the files the CLI wrote and test properties that do not
depend on trusting the code under test. A check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

MB = 1024 * 1024


@dataclass
class Inputs:
    """What one workload hands to the CLI and what its checks need."""

    name: str
    argv: list[str]  # CLI arguments, without the program name
    sizes: dict[str, int]  # nodes, tasks, legs, images, layers, manifests
    work_units: int  # node-tasks x legs, or manifests attempted
    work_unit_name: str  # node_tasks_per_s or manifests_per_s
    jobs: int | None = None
    scenario: dict = field(default_factory=dict)
    fake_images: list = field(default_factory=list)  # registry-refresh only
    fail_manifests: set = field(default_factory=set)  # registry-refresh only
    page_size: int | None = None

    @property
    def node_tasks(self) -> int:
        """Nodes x tasks x legs; 0 on a workload that schedules nothing."""
        return self.work_units if self.sizes["tasks"] else 0

    @property
    def served(self) -> int:
        """Manifests the fake registry answers with 200."""
        return len(self.fake_images) - len(self.fail_manifests)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _digest(rng: random.Random, kind: str) -> str:
    return f"sha256:{kind}-{rng.getrandbits(64):016x}"


def _write_scenario(data: dict, work: Path) -> Path:
    path = work / "scenario.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# --- sim-wide ---------------------------------------------------------------
# Roomy nodes and a high-sharing catalog: a few heavy base layers shared by
# many images plus light app layers, as in the bundled shared_layers scenario.
# Nearly every node passes the filter, so scoring dominates scheduling, and
# the full per-step report (node_usage for every node at every step) is the
# second-largest cost.

SIM_NODES = 100
SIM_TASKS = 500
SIM_IMAGES = 40
SIM_BASE, SIM_RUNTIME, SIM_APP = 6, 24, 90  # 120 layers


def sim_wide(seed: int, work: Path, out: Path) -> Inputs:
    rng = _rng("sim-wide", seed)
    base = [_digest(rng, "base") for _ in range(SIM_BASE)]
    runtime = [_digest(rng, "rt") for _ in range(SIM_RUNTIME)]
    app = [_digest(rng, "app") for _ in range(SIM_APP)]
    layers = {d: rng.randint(80, 300) * MB for d in base}
    layers.update({d: rng.randint(10, 60) * MB for d in runtime})
    layers.update({d: rng.randint(256, 8 * 1024) * 1024 for d in app})

    # 10 images get three app layers and 30 get two: all 90 are used once.
    app_counts = [3] * 10 + [2] * (SIM_IMAGES - 10)
    rng.shuffle(app_counts)
    rng.shuffle(app)
    images, cursor = {}, 0
    for i, n_app in enumerate(app_counts):
        stack = [rng.choice(base)] + rng.sample(runtime, 2)
        stack += app[cursor:cursor + n_app]
        cursor += n_app
        images[f"svc-{i:02d}:1.{rng.randint(0, 9)}"] = stack

    nodes = []
    for i in range(SIM_NODES):
        small = i % 10 == 0  # one node in ten is small enough to fill up
        nodes.append({
            "id": f"node-{i:03d}",
            "cpu": f"{1 if small else rng.randint(12, 24)}",
            "memory": f"{rng.randint(4, 6) if small else rng.randint(24, 48)}GB",
            "bandwidth": f"{rng.randint(10, 100)}MB",
            "storage": f"{rng.randint(40, 80)}GB",
            "preloaded_layers": sorted(rng.sample(base, 2)),
        })

    scenario = {
        "nodes": nodes,
        "catalog": {"layers": layers, "images": images},
        "workload": {"kind": "random", "count": SIM_TASKS},
        "schedulers": ["lr_dynamic"],
        "seeds": [seed],
    }
    path = _write_scenario(scenario, work)
    return Inputs(
        name="sim-wide",
        argv=["simulate", str(path), "--scheduler", "lr_dynamic",
              "--seed", str(seed), "--out", str(out)],
        sizes={"nodes": SIM_NODES, "tasks": SIM_TASKS, "legs": 1,
               "images": SIM_IMAGES, "layers": len(layers), "manifests": 0},
        work_units=SIM_NODES * SIM_TASKS,
        work_unit_name="node_tasks_per_s",
        scenario=scenario,
    )


# --- compare-tight ----------------------------------------------------------
# Small disks and a catalog that shares little: once a node holds a few
# images most filter verdicts reject for storage, so filtering dominates and
# scoring is light. Many short legs make the per-leg fixed costs
# (build_scenario, fingerprint, generate) and the thread pool add up.

TIGHT_NODES = 20
TIGHT_TASKS = 400
TIGHT_IMAGES = 60
TIGHT_SHARED = 6
TIGHT_SEEDS = 5
TIGHT_JOBS = 2
POLICIES = ("default", "layer_static", "lr_dynamic")


def _spread(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``count`` values spread evenly over [low, high], in an order drawn from
    ``rng``: the seed moves which item gets which value, never their sum."""
    values = [low + (high - low) * i // (count - 1) for i in range(count)]
    rng.shuffle(values)
    return values


def compare_tight(seed: int, work: Path, out: Path) -> Inputs:
    # Disk and layer sizes come from fixed sets that the seed only shuffles.
    # With sizes drawn independently, the cluster's total capacity moved
    # with the seed, and with it the number of placed tasks (1500-1670 of
    # 2000 per policy) and the work per invocation (about 10 %).
    rng = _rng("compare-tight", seed)
    shared = [_digest(rng, "shared") for _ in range(TIGHT_SHARED)]
    layers = {d: size * MB for d, size in zip(shared, _spread(rng, 20, 60, TIGHT_SHARED))}
    unique_sizes = iter(_spread(rng, 60, 200, 3 * TIGHT_IMAGES))
    images = {}
    for i in range(TIGHT_IMAGES):
        stack = [rng.choice(shared)] if i % 5 == 0 else []
        for _ in range(3):
            digest = _digest(rng, "u")
            layers[digest] = next(unique_sizes) * MB
            stack.append(digest)
        images[f"team{i % 7}/tool-{i:02d}:2.{rng.randint(0, 9)}"] = stack

    cpus, memories, bandwidths, storages = (
        _spread(rng, low, high, TIGHT_NODES)
        for low, high in ((6, 12), (8, 16), (5, 50), (1000, 1600)))
    nodes = [{
        "id": f"edge-{i:02d}",
        "cpu": f"{cpus[i]}",
        "memory": f"{memories[i]}GB",
        "bandwidth": f"{bandwidths[i]}MB",
        "storage": f"{storages[i]}MB",
    } for i in range(TIGHT_NODES)]

    seeds = [seed * TIGHT_SEEDS + k for k in range(TIGHT_SEEDS)]
    scenario = {
        "nodes": nodes,
        "catalog": {"layers": layers, "images": images},
        "workload": {"kind": "random", "count": TIGHT_TASKS},
        "schedulers": list(POLICIES),
        "seeds": seeds,
    }
    path = _write_scenario(scenario, work)
    legs = len(POLICIES) * TIGHT_SEEDS
    return Inputs(
        name="compare-tight",
        argv=["compare", str(path), "--jobs", str(TIGHT_JOBS), "--out", str(out)],
        sizes={"nodes": TIGHT_NODES, "tasks": TIGHT_TASKS, "legs": legs,
               "images": TIGHT_IMAGES, "layers": len(layers), "manifests": 0},
        work_units=TIGHT_NODES * TIGHT_TASKS * legs,
        work_unit_name="node_tasks_per_s",
        jobs=TIGHT_JOBS,
        scenario=scenario,
    )


# --- registry-refresh -------------------------------------------------------
# 400 images in 100 namespaced repos (teamN/svc-...), catalog pagination on,
# a quarter of the images multi-arch, two manifests injected to answer 404.
# The fake registry's per-arch digest embeds the repo name, so for a
# namespaced multi-arch image the digest URL gains a path segment and the
# fake answers 404: those images are lost (see NOTES.md). They stay in the
# workload and count in failed_share.

REG_REPOS = 100
REG_TAGS = ("1.0", "1.1", "2.0", "latest")
REG_MULTI_ARCH = 100
REG_FAIL = 2
REG_PAGE = 20
REG_BASES = 12


def registry_refresh(seed: int, work: Path, out: Path) -> Inputs:
    from layersched.fake_registry import FakeImage

    rng = _rng("registry-refresh", seed)
    bases = [(_digest(rng, "base"), rng.randint(20, 200) * MB) for _ in range(REG_BASES)]
    images = []
    for r in range(REG_REPOS):
        name = f"team{r // 4:02d}/svc-{r:03d}"
        for tag in REG_TAGS:
            stack = [rng.choice(bases)]
            stack += [(_digest(rng, "l"), rng.randint(1, 64 * 1024) * 1024)
                      for _ in range(3)]
            images.append(FakeImage(name=name, tag=tag,
                                    config_digest=_digest(rng, "cfg"), layers=stack))
    for image in rng.sample(images, REG_MULTI_ARCH):
        image.multi_arch = True
    single = [image for image in images if not image.multi_arch]
    fail = {image.key for image in rng.sample(single, REG_FAIL)}
    cache = out / "cache.json"
    return Inputs(
        name="registry-refresh",
        argv=["fetch-registry", "--registry", "{url}", "--out", str(cache)],
        sizes={"nodes": 0, "tasks": 0, "legs": 0, "images": len(images),
               "layers": len({d for image in images for d, _ in image.layers}),
               "manifests": len(images)},
        work_units=len(images),
        work_unit_name="manifests_per_s",
        fake_images=images,
        fail_manifests=fail,
        page_size=REG_PAGE,
    )


GENERATORS = {
    "sim-wide": sim_wide,
    "compare-tight": compare_tight,
    "registry-refresh": registry_refresh,
}


# --- checks -----------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_simulation_report(report: dict, tasks: int, node_ids: set[str],
                            where: str) -> list[str]:
    """Invariants of one ``simulate`` report that hold for any policy."""
    problems = []
    agg = report["aggregates"]
    steps = report["steps"]
    if agg["total_pods"] + agg["unschedulable_count"] != tasks:
        problems.append(f"{where}: placed + unschedulable != {tasks} tasks")
    if len(steps) != tasks:
        problems.append(f"{where}: {len(steps)} steps for {tasks} tasks")
    cumulative = report["cumulative_download_bytes"]
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        problems.append(f"{where}: cumulative download bytes decrease")
    running = 0
    for step, total in zip(steps, cumulative):
        running += step["download_bytes"]
        if running != total:
            problems.append(f"{where}: cumulative bytes disagree with steps "
                            f"at step {step['step']}")
            break
    if cumulative and cumulative[-1] != agg["total_download_bytes"]:
        problems.append(f"{where}: last cumulative != total_download_bytes")
    placed = sum(1 for step in steps if step["node"] is not None)
    if placed != agg["total_pods"] or sum(report["max_pods"].values()) != placed:
        problems.append(f"{where}: placed steps, max_pods and total_pods disagree")
    if any(step["node"] is not None and step["node"] not in node_ids for step in steps):
        problems.append(f"{where}: a step names an unknown node")
    if set(report["final_usage"]) != node_ids:
        problems.append(f"{where}: final_usage does not cover every node")
    return problems


def check_sim_wide(inputs: Inputs, out: Path) -> list[str]:
    seed = inputs.argv[inputs.argv.index("--seed") + 1]
    stem = out / f"simulate_lr_dynamic_seed{seed}"
    report = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    node_ids = {node["id"] for node in inputs.scenario["nodes"]}
    problems = check_simulation_report(report, SIM_TASKS, node_ids, "sim-wide")
    with open(stem.with_suffix(".csv"), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["step", "task", "node", "download_bytes", "download_seconds",
                   "cluster_std"] or len(rows) != SIM_TASKS + 1:
        problems.append("sim-wide: CSV header or row count is wrong")
    else:
        for row, step in zip(rows[1:], report["steps"]):
            node = None if row[2] == "unschedulable" else row[2]
            if (int(row[0]), row[1], node, int(row[3])) != (
                    step["step"], step["task"], step["node"], step["download_bytes"]):
                problems.append(f"sim-wide: CSV row {row[0]} disagrees with the JSON")
                break
    return problems


def check_compare_tight(inputs: Inputs, out: Path, legs_dir: Path) -> list[str]:
    """``legs_dir`` holds a standalone ``simulate`` report for every leg."""
    table = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    seeds = inputs.scenario["seeds"]
    node_ids = {node["id"] for node in inputs.scenario["nodes"]}
    problems = []
    if table["schedulers"] != list(POLICIES) or table["seeds"] != seeds:
        problems.append("compare-tight: schedulers or seeds differ from the scenario")
        return problems
    with open(out / "compare.csv", newline="", encoding="utf-8") as handle:
        csv_rows = {(row[0], row[1]): row[2:] for row in list(csv.reader(handle))[1:]}
    keys = ("total_download_bytes", "total_download_seconds", "mean_cluster_std",
            "total_pods", "unschedulable_count")
    for label in POLICIES:
        per_seed = table["results"][label]["per_seed"]
        for row, seed in zip(per_seed, seeds):
            where = f"compare-tight {label} seed {seed}"
            if row["seed"] != seed:
                problems.append(f"{where}: row out of order")
                continue
            if row["total_pods"] + row["unschedulable_count"] != TIGHT_TASKS:
                problems.append(f"{where}: placed + unschedulable != {TIGHT_TASKS}")
            leg = json.loads((legs_dir / f"simulate_{label}_seed{seed}.json")
                             .read_text(encoding="utf-8"))
            problems += check_simulation_report(leg, TIGHT_TASKS, node_ids,
                                                f"{where} (standalone)")
            if {k: row[k] for k in keys} != leg["aggregates"]:
                problems.append(f"{where}: row differs from a standalone simulate")
            cells = [f"{row[k]:.6f}" if isinstance(row[k], float) else str(row[k])
                     for k in keys]
            if csv_rows.get((label, str(seed))) != cells:
                problems.append(f"{where}: compare.csv disagrees with compare.json")
        mean = table["results"][label]["mean"]
        for key in keys:
            expected = sum(row[key] for row in per_seed) / len(per_seed)
            if not _close(mean[key], expected):
                problems.append(f"compare-tight {label}: mean {key} is not the mean")
    return problems


def check_registry(inputs: Inputs, out: Path, stderr: str) -> tuple[list[str], dict]:
    """Cache contents against the fake's table.

    Returns the problems (wrong records, injected 404s present, unknown keys,
    silent losses) and the tally of lost images by cause. A lost image is a
    failed operation, not an incorrect output.
    """
    cache = json.loads((out / "cache.json").read_text(encoding="utf-8"))
    problems = []
    lost = {"namespaced_multi_arch": 0, "other": 0}
    known = set()
    for image in inputs.fake_images:
        known.add(image.key)
        record = cache.get(image.key)
        if image.key in inputs.fail_manifests:
            if record is not None:
                problems.append(f"registry: injected 404 {image.key} is cached")
            elif image.key not in stderr:
                problems.append(f"registry: injected 404 {image.key} was not warned")
            continue
        if record is None:
            cause = ("namespaced_multi_arch" if image.multi_arch and "/" in image.name
                     else "other")
            lost[cause] += 1
            if image.key not in stderr:
                problems.append(f"registry: {image.key} lost without a warning")
            continue
        expected = {
            "id": image.config_digest,
            "name": image.name,
            "name_without_repo": image.name,
            "tag": image.tag,
            "total_size": sum(size for _, size in image.layers),
            "l_meta": [{"size": size, "layer": digest} for digest, size in image.layers],
        }
        if record != expected:
            problems.append(f"registry: cached record for {image.key} is wrong")
    extra = sorted(set(cache) - known)
    if extra:
        problems.append(f"registry: cache holds unknown images {extra[:3]}")
    return problems, lost
