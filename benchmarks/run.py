"""Offline benchmark of the layersched CLI, end to end and layer by layer.

    python3 benchmarks/run.py --workload sim-wide --seed 1 --seconds 25 --trace 0

Run from the repository root. The inputs are generated from ``--seed`` (see
workloads.py); the program sees only the generated files. Each operation is
one CLI invocation in a fresh interpreter, waited on until it exits: a closed
loop with one client. Each child runs on one CPU beside the pacer (pacer.py),
and its CPU time is reported in reference seconds: scaled by how fast the
pacer ran meanwhile, so a busy host does not move the figures. With
``--trace 0`` invocations repeat for ``--seconds`` and the end-to-end metrics
are medians over them. With ``--trace 1`` untraced
and traced invocations alternate and the per-layer metrics come from the
traced ones' spans (see tracer.py). Every invocation's outputs are checked.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from pacer import Pacer, spawn_on

HERE = Path(__file__).resolve().parent
MB = 1024 * 1024
MIN_RUNS = 3  # timed invocations per run, however long each takes
SETUP_PROBES = 9  # import-only invocations per run, at least
CHILD_TIMEOUT_S = 150
PINNED = HERE / "pinned.json"
EXACT_UNITS = ("count", "bytes")
MAX_PROBLEMS_SHOWN = 20

# Run many CLI legs in one interpreter, to check compare-tight's rows
# against standalone simulate invocations.
RUN_LEGS = ("import sys\nfrom layersched.cli import main\n"
            "sys.exit(max(main(leg.split('\\n')) for leg in sys.argv[1:]))")


@dataclass
class Invocation:
    traced: bool
    cpu_s: float = 0.0  # cli.main, in reference seconds (raw without a pacer)
    wall_s: float = 0.0  # cli.main, raw, beside the pacer
    setup_s: float = 0.0  # interpreter start and import, likewise
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    stderr: str = ""
    requests: int = 0
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, or 0 when the layer did not run."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10)
        commit_id = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit_id = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit_id}


def split_cpus() -> int:
    """Keep this process (and the fake registry's thread) off one CPU and
    return that CPU, which the pacer and each timed child share."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
    return cpus[-1]


class Bench:
    """One run of one workload at one seed: inputs, invocations, checks."""

    def __init__(self, workload: str, seed: int, root: Path, work: Path, cpu: int,
                 pacer: Pacer | None):
        self.workload = workload
        self.cpu = cpu  # every child runs here
        self.pacer = pacer  # None: CPU times stay unscaled
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.inputs = workloads.GENERATORS[workload](seed, work, self.out)
        self.invocations: list[Invocation] = []
        self.setup_samples: list[float] = []
        self.problems: list[str] = []
        self.lost: dict[str, int] = {}
        self.pinned = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}

    # -- running ------------------------------------------------------------

    def _start_fake(self):
        from layersched.fake_registry import FakeRegistry

        fake = FakeRegistry(self.inputs.fake_images, page_size=self.inputs.page_size)
        fake.fail_manifests = set(self.inputs.fail_manifests)
        return fake.start()

    def invoke(self, argv: list[str] | None, trace: bool = False) -> Invocation:
        """One child process; ``argv`` None only samples set-up."""
        for stale in self.out.iterdir():
            stale.unlink()
        fake, fake_start_s = None, 0.0
        if self.inputs.fake_images:
            started = time.perf_counter()
            fake = self._start_fake()
            fake_start_s = time.perf_counter() - started
        result = self.work / "child.json"
        trace_path = self.work / "trace.json"
        result.unlink(missing_ok=True)
        cli_args = []
        if argv is not None:
            url = fake.url if fake is not None else ""
            cli_args = [arg.replace("{url}", url) for arg in argv]
        command = [sys.executable, str(HERE / "child.py"), str(result),
                   str(trace_path) if trace else "-", *cli_args]
        try:
            with open(self.work / "stdout.txt", "wb") as out, \
                    open(self.work / "stderr.txt", "wb") as err:
                before = self.pacer.read() if self.pacer else None
                child = spawn_on(self.cpu, command, env=self.env, stdout=out, stderr=err)
                try:
                    code = child.wait(CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
                    code = -1
                scale = self.pacer.scale(before, self.pacer.read()) if self.pacer else 1.0
        finally:
            requests = fake.request_count if fake is not None else 0
            if fake is not None:
                fake.stop()
        inv = Invocation(traced=trace, requests=requests)
        inv.stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        if code != 0 or not result.exists():
            inv.problems.append(f"exit code {code}: {inv.stderr.strip()[-300:]}")
            return inv
        measured = json.loads(result.read_text(encoding="utf-8"))
        inv.setup_s = measured["setup_cpu_s"] * scale + fake_start_s
        inv.cpu_s = measured["cpu_s"] * scale
        inv.wall_s = measured["wall_s"]
        inv.peak_rss_mb = measured["peak_rss_kb"] / 1024
        for path in sorted(self.out.iterdir()):
            inv.hashes[path.name] = _sha256(path)
            inv.output_bytes += path.stat().st_size
        if trace:
            inv.trace = tracer.analyse(str(trace_path), keep_durations=(
                "scheduler.schedule", "registry.manifest"))
        return inv

    def probe_setup(self) -> None:
        probe = self.invoke(None)
        if probe.problems:
            raise RuntimeError(f"cannot start the program: {probe.problems[0]}")
        self.setup_samples.append(probe.setup_s)

    def _timed(self, trace: bool = False) -> float:
        """One invocation of the workload; returns the seconds it took.
        The first one's outputs are checked, outside the returned time; every
        later one must write the same bytes."""
        started = time.perf_counter()
        inv = self.invoke(self.inputs.argv, trace=trace)
        spent = time.perf_counter() - started
        self.invocations.append(inv)
        if len(self.invocations) == 1:
            self.check_reference(inv)
        elif not inv.problems and inv.hashes != self.invocations[0].hashes:
            kind = "traced" if trace else "untraced"
            inv.problems.append(f"{kind} outputs are not byte-identical to the "
                                f"first invocation's")
        return spent

    def measure(self, seconds: float) -> None:
        """Timed invocations for ``seconds``, each after a set-up probe, so
        set-up is sampled across the whole run and not in one burst."""
        self.invoke(None)  # warm-up: the first import may compile bytecode
        spent = 0.0
        while len(self.invocations) < MIN_RUNS or spent < seconds:
            self.probe_setup()
            spent += self._timed()
        while len(self.setup_samples) < SETUP_PROBES:
            self.probe_setup()
        self.setup_samples += [inv.setup_s for inv in self.invocations if not inv.problems]

    def measure_traced(self, seconds: float) -> None:
        spent = 0.0
        while sum(inv.traced for inv in self.invocations) < 2 or spent < seconds:
            spent += self._timed(trace=False) + self._timed(trace=True)

    # -- checking -------------------------------------------------------------

    def check_reference(self, inv: Invocation) -> None:
        """Property checks on the first invocation's outputs, and the pins."""
        if inv.problems:
            return
        if self.workload == "sim-wide":
            problems = workloads.check_sim_wide(self.inputs, self.out)
        elif self.workload == "compare-tight":
            problems = self._check_compare()
        else:
            problems, self.lost = workloads.check_registry(self.inputs, self.out, inv.stderr)
        expected = self.pinned.get(self.workload, {}).get(str(self.seed))
        if expected is not None and expected != inv.hashes:
            problems.append(f"output sha256 differs from the pinned value for seed "
                            f"{self.seed}")
        self.problems += problems

    def _check_compare(self) -> list[str]:
        legs_dir = self.work / "legs"
        legs_dir.mkdir(exist_ok=True)
        scenario = str(self.work / "scenario.json")
        legs = ["\n".join(["simulate", scenario, "--scheduler", label,
                           "--seed", str(seed), "--out", str(legs_dir)])
                for label in workloads.POLICIES
                for seed in self.inputs.scenario["seeds"]]
        done = subprocess.run([sys.executable, "-c", RUN_LEGS, *legs], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            return [f"standalone simulate legs failed: {done.stderr.strip()[-300:]}"]
        problems = workloads.check_compare_tight(self.inputs, self.out, legs_dir)
        shutil.rmtree(legs_dir)
        return problems

    def failed(self) -> list[Invocation]:
        """Invocations that exited non-zero or wrote other bytes than the
        first one, or all of them when the first one failed its checks."""
        return [inv for inv in self.invocations if inv.problems or self.problems]

    def exact_counters(self, inv: Invocation) -> dict:
        trace = inv.trace
        exact = {f"{name}.calls": span["calls"] for name, span in trace["spans"].items()}
        exact.update(trace["counts"])
        exact["registry.requests"] = inv.requests
        return exact

    # -- reporting ------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, list[str]]:
        attempted, failed = len(self.invocations), len(self.failed())
        runs = [inv for inv in self.invocations if not inv.problems]
        if not runs:
            raise RuntimeError(f"no invocation succeeded: {self.invocations[0].problems}")
        cpus = [inv.cpu_s for inv in runs]
        if self.workload == "registry-refresh":
            served = self.inputs.served
            lost = sum(self.lost.values())
            failed_share, base = lost / served, (f"{lost} of {served} served manifests "
                                                 f"missing from the cache; causes {self.lost}")
        else:
            failed_share, base = failed / attempted, f"{failed} of {attempted} runs"
        cpu = statistics.median(cpus)
        metrics = {
            "cpu_s": (cpus, "s"),
            "setup_s": (self.setup_samples, "s"),
            self.inputs.work_unit_name: ([self.inputs.work_units / c for c in cpus], "1/s"),
            "raw_wall_s": ([inv.wall_s for inv in runs], "s"),
            "peak_rss_mb": ([inv.peak_rss_mb for inv in runs], "MB"),
            "output_mb": ([inv.output_bytes / MB for inv in runs], "MB"),
        }
        lines = []
        for name, (values, unit) in metrics.items():
            q1, median, q3 = _quartiles(values)
            lines.append(f"{self.workload:<17} {name:<17} median {median:<11.6g} "
                         f"q1 {q1:<11.6g} q3 {q3:<11.6g} min {min(values):<11.6g} "
                         f"max {max(values):<11.6g} n={len(values):<3} {unit}")
        lines.append(f"{self.workload:<17} {'failed_share':<17} {failed_share:.6g} "
                     f"({base})")
        unit = ("node-tasks (nodes x tasks x legs)"
                if self.inputs.node_tasks else "manifests attempted")
        lines.append(f"{self.workload:<17} throughput base: {self.inputs.work_units} "
                     f"{unit} per invocation, per reference second of cpu_s; "
                     f"raw_wall_s is unscaled and shares its CPU with the pacer")
        result = {
            "cpu_s": (cpu, "s"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "throughput_per_s": (self.inputs.work_units / cpu, "1/s"),
            "peak_rss_mb": (statistics.median(metrics["peak_rss_mb"][0]), "MB"),
            "output_mb": (statistics.median(metrics["output_mb"][0]), "MB"),
            "ok_share": (1.0 - failed_share, "share"),
        }
        return result, lines

    def per_layer(self) -> tuple[dict, list[str]]:
        traced = [inv for inv in self.invocations if inv.traced and inv.trace]
        plain = [inv.cpu_s for inv in self.invocations if not inv.traced and not inv.problems]
        per_run = [self._layer_metrics(inv) for inv in traced]
        if not per_run or not plain:
            raise RuntimeError("no traced or no untraced invocation succeeded")
        # Counts repeat exactly (check_traced), so the first run's stand.
        result = {name: (value if unit in EXACT_UNITS
                         else statistics.median(run[name][0] for run in per_run), unit)
                  for name, (value, unit) in per_run[0].items()}
        overhead = statistics.median(inv.cpu_s for inv in traced) / statistics.median(plain)
        result["trace.overhead_x"] = (overhead, "ratio")

        first = per_run[0]
        node_tasks = self.inputs.node_tasks
        filters = first["scheduler.filter_calls"][0]
        lines = [f"{self.workload:<17} tracing overhead {overhead:.3f}x "
                 f"(traced / untraced cpu_s, {len(traced)} traced and {len(plain)} "
                 f"untraced invocations)"]
        if node_tasks:
            counts = traced[0].trace["counts"]
            rejects = {key.rsplit(".", 1)[1]: value for key, value in counts.items()
                       if key.startswith("scheduler.rejects.")}
            lines += [
                f"{self.workload:<17} layers_of calls per node-task "
                f"{first['model.layers_of_calls'][0] / node_tasks:.3f} "
                f"(base {node_tasks} node-tasks)",
                f"{self.workload:<17} stored_layer_bytes calls per node-task "
                f"{first['model.stored_layer_bytes_calls'][0] / node_tasks:.3f} "
                f"(base {node_tasks} node-tasks)",
                f"{self.workload:<17} feasible ratio "
                f"{first['scheduler.feasible_ratio'][0]:.4f} (base {filters} filter calls)",
                f"{self.workload:<17} rejection mix "
                + (", ".join(f"{k} {v / filters:.3f}" for k, v in sorted(rejects.items()))
                   or "none") + f" (base {filters} filter calls)",
            ]
        if self.workload == "registry-refresh":
            lines.append(f"{self.workload:<17} resolved ratio "
                         f"{first['registry.resolved_ratio'][0]:.4f} (base {self.inputs.served} "
                         f"served manifests; lost by cause {self.lost})")
        for name, (value, unit) in result.items():
            lines.append(f"{self.workload:<17} {name:<34} {value:<14.6g} {unit}")
        return result, lines

    def _layer_metrics(self, inv: Invocation) -> dict:
        spans, counts = inv.trace["spans"], inv.trace["counts"]
        empty = {"total_ns": 0, "self_ns": 0, "calls": 0, "durations_ns": []}

        def span(name):
            return spans.get(name, empty)

        def secs(*names):
            return sum(span(name)["total_ns"] for name in names) / 1e9

        filters = span("scheduler.filter")["calls"]
        node_tasks = self.inputs.node_tasks
        schedule_us = [ns / 1e3 for ns in span("scheduler.schedule")["durations_ns"]]
        manifest_ms = [ns / 1e6 for ns in span("registry.manifest")["durations_ns"]]
        served = self.inputs.served
        return {
            "scheduler.schedule_s": (secs("scheduler.schedule"), "s"),
            "scheduler.filter_s": (secs("scheduler.filter"), "s"),
            "scheduler.score_s": (secs("scheduler.score"), "s"),
            "scheduler.self_s": (span("scheduler.schedule")["self_ns"] / 1e9, "s"),
            "scheduler.us_per_node_task": (
                secs("scheduler.schedule") * 1e6 / node_tasks if node_tasks else 0.0, "us"),
            "scheduler.schedule_p50_us": (_percentile(schedule_us, 50), "us"),
            "scheduler.schedule_p99_us": (_percentile(schedule_us, 99), "us"),
            "scheduler.filter_calls": (filters, "count"),
            "scheduler.score_calls": (span("scheduler.score")["calls"], "count"),
            "scheduler.feasible_ratio": (
                counts.get("scheduler.feasible", 0) / filters if filters else 0.0, "ratio"),
            "scheduler.rejects.storage": (counts.get("scheduler.rejects.storage", 0), "count"),
            "scheduler.rejects.cpu_fit": (counts.get("scheduler.rejects.cpu_fit", 0), "count"),
            "scoring.layer_s": (secs("scoring.layer_score", "scoring.local_layer_size"), "s"),
            "scoring.baseline_s": (secs("scoring.baseline"), "s"),
            "model.commit_s": (secs("model.commit"), "s"),
            "model.commit_calls": (span("model.commit")["calls"], "count"),
            "model.layers_of_calls": (counts.get("model.layers_of_calls", 0), "count"),
            "model.stored_layer_bytes_calls": (
                counts.get("model.stored_layer_bytes_calls", 0), "count"),
            "simulator.run_s": (secs("simulator.run"), "s"),
            "simulator.step_metrics_s": (span("simulator.run")["self_ns"] / 1e9, "s"),
            "simulator.fingerprint_s": (secs("simulator.fingerprint"), "s"),
            "simulator.write_json_s": (secs("simulator.write_json"), "s"),
            "simulator.write_csv_s": (secs("simulator.write_csv"), "s"),
            "simulator.report_bytes": (counts.get("simulator.report_bytes", 0), "bytes"),
            "scenario.parse_s": (secs("scenario.parse"), "s"),
            "scenario.resolve_catalog_s": (secs("scenario.resolve_catalog"), "s"),
            "scenario.build_s": (secs("scenario.build"), "s"),
            "workload.generate_s": (secs("workload.generate"), "s"),
            "cli.self_s": (span("cli.main")["self_ns"] / 1e9, "s"),
            "cli.legs": (span("simulator.run")["calls"], "count"),
            "registry.refresh_s": (secs("registry.refresh"), "s"),
            "registry.fetch_catalog_s": (secs("registry.fetch_catalog"), "s"),
            "registry.fetch_tags_s": (secs("registry.fetch_tags"), "s"),
            "registry.manifest_p50_ms": (_percentile(manifest_ms, 50), "ms"),
            "registry.manifest_p90_ms": (_percentile(manifest_ms, 90), "ms"),
            "registry.save_cache_s": (secs("registry.save_cache"), "s"),
            "registry.requests": (inv.requests, "count"),
            "registry.warnings": (counts.get("registry.warnings", 0), "count"),
            "registry.resolved_ratio": (
                counts.get("registry.images_cached", 0) / served if served else 0.0, "ratio"),
        }

    def check_traced(self) -> None:
        traced = [inv for inv in self.invocations if inv.traced and inv.trace]
        if len(traced) < 2:
            self.problems.append("fewer than two traced invocations completed")
            return
        first = self.exact_counters(traced[0])
        for inv in traced[1:]:
            if self.exact_counters(inv) != first:
                self.problems.append("exact counters differ between two traced runs "
                                     "at the same seed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-wide", "compare-tight", "registry-refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "layersched" / "cli.py").is_file():
        print(f"error: no layersched sources under {root / 'src'}; "
              f"run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))  # for FakeRegistry, after this directory
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    cpu = split_cpus()
    try:
        if args.trace:
            # No pacer: span times are wall times, which must not include the
            # pacer's turns on the CPU. Per-layer metrics have no bound.
            bench = Bench(args.workload, args.seed, root, work, cpu, None)
            bench.measure_traced(args.seconds)
            bench.check_traced()
        else:
            work.mkdir(parents=True)
            with Pacer(cpu, work / "pacer.bin") as pacer:
                bench = Bench(args.workload, args.seed, root, work, cpu, pacer)
                bench.measure(args.seconds)
        failed = bench.failed()
        metrics, lines = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    env = environment(root)
    inputs = bench.inputs
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}, jobs {inputs.jobs or 'n/a'}")
    print(f"inputs: workload {args.workload}, seed {args.seed}, "
          + ", ".join(f"{key} {value}" for key, value in inputs.sizes.items()))
    print("\n".join(lines))
    problems = bench.problems + [p for inv in failed for p in inv.problems]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"check failed: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more")
    print(json.dumps({
        "correct": not failed and not bench.problems,
        "attempted": len(bench.invocations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
