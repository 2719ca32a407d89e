"""The package's public surface: a name dropped from ``layersched`` (say, by
moving a function between modules) fails here rather than in a user's import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import layersched

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = (
    "CacheCorrupt", "CapacityViolation", "ComparisonError", "DigestSizeConflict",
    "FilterVerdict", "ImageMetadata", "ImageMetadataLists", "ImageRef", "LayerCatalog",
    "LayerId", "LayerMetadata", "LayerSchedError", "MB", "MaxPodsResult", "NodeSpec",
    "NodeState", "POLICIES", "Placement", "PluginConfig",
    "RegistryClient", "RegistryConfig", "RegistryProtocolError", "RegistryUnavailable",
    "RegistryWatcher", "Scenario", "ScenarioError", "SchedulerConfig", "ScoreBreakdown",
    "SimulationReport", "StepMetrics", "TaskRequest", "TraceCorrupt", "UnknownImage",
    "Unschedulable", "UnsupportedManifest", "WeightPolicy", "WorkloadSpec",
    "baseline_score", "build_scenario", "catalog_from_cache", "commit_placement",
    "compare", "download_cost", "filter_node", "generate", "iter_schedule_trace",
    "layer_score", "layers_of", "load_cache", "load_trace", "local_layer_size", "lookup",
    "max_pods", "missing_layers", "parse_scenario_file", "refresh_cache",
    "replace", "resolve_catalog", "run", "save_cache", "save_trace", "schedule", "score_node",
    "std_score", "write_report_json", "write_steps_csv",
)


def test_all_is_the_pinned_surface_and_every_name_resolves():
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert len(layersched.__all__) == len(set(layersched.__all__))
    assert tuple(sorted(layersched.__all__)) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(layersched, name)]
    assert missing == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'layersched' has no attribute 'nope'$"):
        layersched.nope


# The registry client's names are loaded when first read (PEP 562), so only a
# fresh interpreter that has not loaded the client shows that they resolve.
FRESH_IMPORT = """
import sys
import layersched
assert "layersched.registry" not in sys.modules
listed = dir(layersched)
for name in ("registry", "RegistryClient", "RegistryConfig", "refresh_cache", "save_cache"):
    assert name in listed, name
# The submodule resolves by attribute, as it did when the package imported it.
client = layersched.registry.RegistryClient
assert layersched.registry is sys.modules["layersched.registry"]
namespace = {}
exec("from layersched import *", namespace)
missing = [name for name in layersched.__all__ if name not in namespace]
assert missing == [], missing
assert namespace["RegistryClient"] is client
from layersched import RegistryWatcher
try:
    layersched.nope
except AttributeError as exc:
    assert str(exc) == "module 'layersched' has no attribute 'nope'", exc
else:
    raise AssertionError("no AttributeError")
"""


def test_every_name_resolves_in_a_fresh_interpreter():
    result = subprocess.run([sys.executable, "-S", "-W", "error", "-c", FRESH_IMPORT],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
