"""Release gate: one test per behaviour the package advertises.

Every test prints a single "name: PASS/FAIL (details)" line so a verbose
run reads as a checklist, and asserts the exact tolerance or time budget
behind that line. The ordering claims run the bundled shared_layers file
over its full 20-seed ensemble; nothing here is sampled down for speed.
"""

import hashlib
import json
import random
import statistics
import time
from pathlib import Path

import pytest

from helpers import (
    catalog_dict,
    micro_scenario,
    node_dict,
    params_dict,
    random_scoring_instance,
    task_dict,
)
from oracles import (
    oracle_download_cost,
    oracle_final,
    oracle_local_size,
    oracle_trace,
)
from layersched.cli import main
from layersched.fake_registry import FakeRegistry, bundled_images
from layersched.registry import (
    ImageMetadata,
    ImageMetadataLists,
    LayerMetadata,
    RegistryConfig,
    load_cache,
    refresh_cache,
    save_cache,
)
from layersched.scenario import (
    build_scenario,
    bundled_scenario_path,
    parse_scenario_file,
    resolve_catalog,
)
from layersched.scheduler import Placement, iter_schedule_trace, score_node
from layersched.scoring import download_cost, local_layer_size
from layersched.simulator import max_pods, run

GOLDEN_CACHE = Path(__file__).parent / "data" / "cache_golden.json"
GOLDEN_REPORTS = Path(__file__).parent / "data" / "golden_reports.json"

POLICY_LABELS = ("default", "layer_static", "lr_dynamic")


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- scoring equivalence over random instances ---------------------------

@pytest.fixture(scope="module")
def scoring_sweep():
    """One pass over 1000 random instances, shared by the scoring bars."""
    start = time.perf_counter()
    node_checks = 0
    mismatches = 0
    partition_violations = 0
    for seed in range(1000):
        catalog, nodes, task, config = random_scoring_instance(seed)
        cd = catalog_dict(catalog)
        td = task_dict(task)
        pd = params_dict(config)
        image_total = catalog.image_total_size(task.image)
        for node in nodes:
            nd = node_dict(node)
            cost = download_cost(catalog, node, task.image)
            local = local_layer_size(catalog, node, task.image)
            got = score_node(node, task, catalog, config)
            want = oracle_final(cd, nd, td, pd)
            exact_ok = (cost == oracle_download_cost(cd, nd, td["image"])
                        and local == oracle_local_size(cd, nd, td["image"])
                        and got.weight_gate == want["weight_gate"])
            float_ok = all(
                abs(a - b) <= 1e-9 for a, b in (
                    (got.layer_score, want["layer_score"]),
                    (got.baseline_score, want["baseline_score"]),
                    (got.std_score, want["std_score"]),
                    (got.cpu_score, want["cpu_score"]),
                    (got.omega_used, want["omega_used"]),
                    (got.final, want["final"]),
                )
            )
            if not (exact_ok and float_ok):
                mismatches += 1
            if cost + local != image_total:
                partition_violations += 1
            node_checks += 1
    elapsed = time.perf_counter() - start
    return {
        "node_checks": node_checks,
        "mismatches": mismatches,
        "partition_violations": partition_violations,
        "elapsed": elapsed,
    }


def test_scoring_matches_reference_on_1000_instances(scoring_sweep):
    s = scoring_sweep
    ok = s["mismatches"] == 0 and s["elapsed"] < 10.0
    _line("scoring equivalence", ok,
          f"1000 instances, {s['node_checks']} node checks, "
          f"{s['mismatches']} mismatches, tol 1e-9, {s['elapsed']:.1f}s < 10s")
    assert s["mismatches"] == 0
    assert s["elapsed"] < 10.0


def test_download_partition_is_exact(scoring_sweep):
    s = scoring_sweep
    ok = s["partition_violations"] == 0
    _line("download partition", ok,
          f"cost + local == image bytes on {s['node_checks']} checks, "
          f"{s['partition_violations']} violations, integer-exact")
    assert s["partition_violations"] == 0


def test_trace_matches_exhaustive_argmax():
    start = time.perf_counter()
    divergent = 0
    for seed in range(100):
        catalog, nodes, tasks, config = micro_scenario(seed)
        got = [o.node_id if isinstance(o, Placement) else None
               for o, _ in iter_schedule_trace(tasks, nodes, catalog, config)]
        want = oracle_trace(
            catalog_dict(catalog),
            [node_dict(n) for n in nodes],
            [task_dict(t) for t in tasks],
            params_dict(config),
        )
        if got != want:
            divergent += 1
    elapsed = time.perf_counter() - start
    ok = divergent == 0 and elapsed < 30.0
    _line("trace argmax equivalence", ok,
          f"100 micro-scenarios x 10 tasks, {divergent} divergent, "
          f"{elapsed:.1f}s < 30s")
    assert divergent == 0
    assert elapsed < 30.0


# --- bundled ensemble ordering claims ------------------------------------

@pytest.fixture(scope="module")
def shared_runs():
    sfile = parse_scenario_file(bundled_scenario_path("shared_layers"))
    catalog = resolve_catalog(sfile)
    start = time.perf_counter()
    runs = {
        (entry.label, seed): run(build_scenario(sfile, catalog, entry, seed))
        for entry in sfile.schedulers
        for seed in sfile.seeds
    }
    elapsed = time.perf_counter() - start
    return sfile, catalog, runs, elapsed


def test_shared_layers_download_ordering(shared_runs):
    sfile, _, runs, elapsed = shared_runs
    series = {
        label: [runs[(label, seed)].total_download_bytes for seed in sfile.seeds]
        for label in POLICY_LABELS
    }
    ordered = sum(
        1 for st, dyn, base in zip(series["layer_static"],
                                   series["lr_dynamic"], series["default"])
        if st < dyn < base
    )
    means = {label: statistics.mean(v) for label, v in series.items()}
    red_static = (means["default"] - means["layer_static"]) / means["default"] * 100
    red_dynamic = (means["default"] - means["lr_dynamic"]) / means["default"] * 100
    ok = (ordered >= 18
          and means["layer_static"] < means["lr_dynamic"] < means["default"]
          and red_static >= 25.0 and red_dynamic >= 10.0 and elapsed < 120.0)
    _line("download ordering", ok,
          f"static<dynamic<default in {ordered}/20 seeds, mean reduction "
          f"static {red_static:.1f}% (needs 25), dynamic {red_dynamic:.1f}% "
          f"(needs 10), {elapsed:.1f}s < 120s")
    assert ordered >= 18
    assert means["layer_static"] < means["lr_dynamic"] < means["default"]
    assert red_static >= 25.0
    assert red_dynamic >= 10.0
    assert elapsed < 120.0


def test_shared_layers_balance_ordering(shared_runs):
    sfile, _, runs, _ = shared_runs
    stds = {
        label: [runs[(label, seed)].mean_cluster_std for seed in sfile.seeds]
        for label in POLICY_LABELS
    }
    ordered = sum(
        1 for base, dyn, st in zip(stds["default"], stds["lr_dynamic"],
                                   stds["layer_static"])
        if base <= dyn <= st
    )
    ok = ordered >= 16
    _line("balance ordering", ok,
          f"default<=dynamic<=static cluster_std in {ordered}/20 seeds "
          f"(needs 16)")
    assert ordered >= 16


def test_bandwidth_halving_doubles_seconds_and_widens_gap(shared_runs):
    sfile, catalog, _, _ = shared_runs
    entries = {entry.label: entry for entry in sfile.schedulers}
    points = sfile.sweeps.bandwidth
    assert len(points) == 3 and all(
        prev == 2 * nxt for prev, nxt in zip(points, points[1:])
    )
    seconds: dict[int, dict[str, list[float]]] = {}
    placements: dict[int, dict] = {}
    steps_secs: dict[int, dict] = {}
    for bw in points:
        seconds[bw] = {label: [] for label in POLICY_LABELS}
        placements[bw] = {}
        steps_secs[bw] = {}
        for label in POLICY_LABELS:
            for seed in sfile.seeds:
                report = run(build_scenario(sfile, catalog, entries[label],
                                            seed, bandwidth_override=bw))
                seconds[bw][label].append(report.total_download_seconds)
                placements[bw][(label, seed)] = tuple(
                    s.node_id for s in report.steps)
                steps_secs[bw][(label, seed)] = [
                    s.download_seconds for s in report.steps]

    doubling_exact = all(
        seconds[nxt][label][i] == 2.0 * seconds[prev][label][i]
        and steps_secs[nxt][key] == [2.0 * v for v in steps_secs[prev][key]]
        for prev, nxt in zip(points, points[1:])
        for label in POLICY_LABELS
        for i, seed in enumerate(sfile.seeds)
        for key in [(label, seed)]
    )
    placements_fixed = all(
        placements[bw] == placements[points[0]] for bw in points[1:]
    )
    gaps = [
        statistics.mean(seconds[bw]["default"])
        - statistics.mean(seconds[bw]["lr_dynamic"])
        for bw in points
    ]
    widening = gaps[0] < gaps[1] < gaps[2]
    ok = doubling_exact and placements_fixed and widening
    _line("bandwidth law", ok,
          f"halving doubles seconds exactly: {doubling_exact}, placements "
          f"invariant: {placements_fixed}, default-dynamic gap "
          f"{gaps[0]:.0f}s -> {gaps[1]:.0f}s -> {gaps[2]:.0f}s widening: "
          f"{widening}")
    assert doubling_exact
    assert placements_fixed
    assert widening


def test_storage_tight_max_pods():
    sfile = parse_scenario_file(bundled_scenario_path("storage_tight"))
    catalog = resolve_catalog(sfile)
    entries = {entry.label: entry for entry in sfile.schedulers}
    wins = 0
    for seed in sfile.seeds:
        totals = {
            label: max_pods(
                build_scenario(sfile, catalog, entries[label], seed)).total
            for label in ("default", "lr_dynamic")
        }
        if totals["lr_dynamic"] >= totals["default"]:
            wins += 1
    ok = wins >= 18
    _line("storage-tight max pods", ok,
          f"lr_dynamic >= default in {wins}/20 seeds (needs 18)")
    assert wins >= 18


# --- registry cache fidelity ---------------------------------------------

def _random_cache(rng: random.Random) -> ImageMetadataLists:
    lists = {}
    for i in range(rng.randint(1, 6)):
        name = rng.choice(["app", "repo/app", "svc/deep/tree"]) + f"-{i}"
        tag = rng.choice(["latest", "1.0", f"v{rng.randint(0, 9)}"])
        layers = [
            LayerMetadata(size=rng.randint(0, 1 << 30),
                          layer=f"sha256:{rng.getrandbits(64):016x}")
            for _ in range(rng.randint(0, 5))
        ]
        image = ImageMetadata(
            id=f"sha256:{rng.getrandbits(64):016x}",
            name=name,
            name_without_repo=name.rpartition("/")[2],
            tag=tag,
            total_size=sum(layer.size for layer in layers),
            l_meta=layers,
        )
        lists[image.key] = image
    return ImageMetadataLists(lists=lists)


def test_cache_golden_and_roundtrip(tmp_path):
    cache = tmp_path / "cache.json"
    with FakeRegistry(bundled_images()) as registry:
        snapshot = refresh_cache(
            RegistryConfig(base_url=registry.url, cache_path=str(cache)))
    fetched = cache.read_bytes()
    golden = GOLDEN_CACHE.read_bytes()
    byte_identical = fetched == golden

    rng = random.Random(20240823)
    lossless = 0
    for i in range(500):
        generated = _random_cache(rng)
        path = tmp_path / "roundtrip.json"
        save_cache(generated, path)
        if load_cache(path) == generated:
            lossless += 1
    ok = byte_identical and snapshot.lists and lossless == 500
    _line("registry cache fidelity", bool(ok),
          f"golden byte-identical: {byte_identical} "
          f"({len(snapshot.lists)} images), round-trips lossless: "
          f"{lossless}/500")
    assert byte_identical
    assert lossless == 500


# --- CLI determinism ------------------------------------------------------

def _cli_scenario(tmp_path) -> Path:
    doc = {
        "nodes": [
            {"id": f"node-{i}", "cpu": "4", "memory": "4GB",
             "bandwidth": "10MB", "storage": "30GB"}
            for i in range(3)
        ],
        "catalog": {
            "layers": {"sha256:base": "50MB", "sha256:web": "5MB",
                       "sha256:db": "8MB"},
            "images": {"web:1": ["sha256:base", "sha256:web"],
                       "db:1": ["sha256:base", "sha256:db"]},
        },
        "workload": {"count": 12,
                     "cpu_request": ["100m", "400m"],
                     "mem_request": ["64MB", "256MB"]},
        "sweeps": {"bandwidth": ["10MB", "5MB"]},
        "seeds": [1, 2],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LAYERSCHED_REGISTRY", raising=False)
    monkeypatch.delenv("LAYERSCHED_OUT", raising=False)
    scenario = _cli_scenario(tmp_path)
    commands = {
        "simulate": ["simulate", str(scenario), "--seed", "1"],
        "compare": ["compare", str(scenario)],
        "sweep": ["sweep", str(scenario), "--param", "bandwidth"],
    }
    stable = []
    for name, argv in commands.items():
        trees = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            assert main(argv + ["--out", str(out)]) == 0
            trees.append(_tree_bytes(out))
        assert trees[0], f"{name} wrote no files"
        stable.append((name, trees[0] == trees[1], len(trees[0])))

    with FakeRegistry(bundled_images()) as registry:
        fetches = []
        for attempt in ("a", "b"):
            cache = tmp_path / f"cache-{attempt}.json"
            assert main(["fetch-registry", "--registry", registry.url,
                         "--out", str(cache)]) == 0
            fetches.append(cache.read_bytes())
    stable.append(("fetch-registry", fetches[0] == fetches[1], 1))

    capsys.readouterr()
    assert main(["validate", str(scenario)]) == 0
    first_report = capsys.readouterr().out
    assert main(["validate", str(scenario)]) == 0
    stable.append(("validate", capsys.readouterr().out == first_report, 1))

    ok = all(same for _, same, _ in stable)
    detail = ", ".join(f"{name} x{count}" for name, _, count in stable)
    _line("cli determinism", ok, f"reruns byte-identical: {detail}")
    assert all(same for _, same, _ in stable), stable


def test_cli_reports_match_golden_hashes(tmp_path, capsys, monkeypatch):
    """The bundled scenarios' reports hash to values recorded from an
    earlier, from-scratch scheduler: a faster path may not move a byte."""
    monkeypatch.delenv("LAYERSCHED_REGISTRY", raising=False)
    monkeypatch.delenv("LAYERSCHED_OUT", raising=False)
    produced = {}
    for name in ("shared_layers", "storage_tight"):
        path = bundled_scenario_path(name)
        outputs = [(f"simulate-{entry.label}",
                    ["simulate", str(path), "--scheduler", entry.label])
                   for entry in parse_scenario_file(path).schedulers]
        if name == "shared_layers":
            outputs.append(("compare", ["compare", str(path)]))
            outputs.append(("sweep-bandwidth",
                            ["sweep", str(path), "--param", "bandwidth"]))
        for stem, argv in outputs:
            out = tmp_path / name / stem
            assert main(argv + ["--out", str(out)]) == 0
            for report in sorted(out.iterdir()):
                produced[f"{name}/{report.name}"] = hashlib.sha256(
                    report.read_bytes()).hexdigest()
    golden = json.loads(GOLDEN_REPORTS.read_text())
    differing = sorted(key for key in golden.keys() | produced.keys()
                       if golden.get(key) != produced.get(key))
    capsys.readouterr()
    _line("report golden hashes", not differing,
          f"{len(golden) - len(differing)} of {len(golden)} reports byte-identical, "
          f"differing: {differing or 'none'}")
    assert not differing
