"""The benchmark's tracer wraps layersched functions by module attribute
name; every name it wraps must still exist, or a traced benchmark run dies.
A wrapped name must also still work when called through its wrapper, which
a name that the package calls back into (score_node, baseline_score,
layer_score) could break by recursing."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CALL_WRAPPED = """
import sys
import tracer
recorder = tracer.install()
from layersched import scheduler
from layersched.model import ImageRef, LayerCatalog, NodeSpec, NodeState, TaskRequest

web = ImageRef("web", "1")
catalog = LayerCatalog(layers={"sha256:a": 1000}, images={web: ("sha256:a",)})
node = NodeState(spec=NodeSpec(id="n0", cpu_capacity=1000, mem_capacity=1000,
                               bandwidth=100, storage_capacity=10_000))
task = TaskRequest(task_id="t0", image=web, cpu_request=100, mem_request=100)
config = scheduler.SchedulerConfig()
assert scheduler.schedule(task, [node], catalog, config).node_id == "n0"
breakdown = scheduler.score_node(node, task, catalog, config)
assert scheduler.baseline_score(node, task, catalog) == breakdown.baseline_score
assert scheduler.layer_score(catalog, node, web) == breakdown.layer_score
recorder.dump(sys.argv[1])
spans = tracer.analyse(sys.argv[1])["spans"]
for name in ("scheduler.schedule", "scheduler.score", "scoring.baseline",
             "scoring.layer_score"):
    assert spans[name]["calls"] >= 1, name
"""


def run_traced(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "benchmarks"), str(ROOT / "src")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def test_tracer_installs_on_the_current_package():
    result = run_traced("import tracer; tracer.install()")
    assert result.returncode == 0, result.stderr


def test_wrapped_scoring_names_still_work(tmp_path):
    result = run_traced(CALL_WRAPPED, str(tmp_path / "trace.json"))
    assert result.returncode == 0, result.stderr
