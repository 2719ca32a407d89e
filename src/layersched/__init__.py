"""Layer-aware, resource-adaptive container scheduling.

A scheduling library (filter, score, bind over image-layer overlap and
resource balance), a deterministic cluster simulator for comparing
policies, and a Docker-Registry-v2 metadata client that maintains the
layer cache the scorer reads.
"""

from .errors import (
    CacheCorrupt,
    CapacityViolation,
    ComparisonError,
    DigestSizeConflict,
    LayerSchedError,
    RegistryProtocolError,
    RegistryUnavailable,
    ScenarioError,
    TraceCorrupt,
    UnknownImage,
    UnsupportedManifest,
)
from .model import (
    ImageRef,
    LayerCatalog,
    LayerId,
    NodeSpec,
    NodeState,
    TaskRequest,
    layers_of,
    missing_layers,
    replace,
)
from .scheduler import (
    POLICIES,
    FilterVerdict,
    Placement,
    SchedulerConfig,
    Unschedulable,
    commit_placement,
    filter_node,
    iter_schedule_trace,
    schedule,
    score_node,
)
from .scoring import (
    MB,
    PluginConfig,
    ScoreBreakdown,
    WeightPolicy,
    baseline_score,
    download_cost,
    layer_score,
    local_layer_size,
    std_score,
)
from .simulator import (
    MaxPodsResult,
    Scenario,
    SimulationReport,
    StepMetrics,
    compare,
    max_pods,
    run,
    write_report_json,
    write_steps_csv,
)
from .scenario import build_scenario, parse_scenario_file, resolve_catalog
from .workload import WorkloadSpec, generate, load_trace, save_trace

__version__ = "0.1.0"

# Read from the registry module on first use (PEP 562), so that importing the
# package does not load the registry client; ``layersched.registry`` itself
# resolves the same way.
_REGISTRY_NAMES = ("ImageMetadata", "ImageMetadataLists", "LayerMetadata", "RegistryClient",
                   "RegistryConfig", "RegistryWatcher", "catalog_from_cache", "load_cache",
                   "lookup", "refresh_cache", "save_cache")


def __getattr__(name: str):
    if name == "registry" or name in _REGISTRY_NAMES:
        # Not ``from . import registry``: its own lookup of the name on the
        # package would land here again before the import binds it.
        import importlib

        registry = importlib.import_module(".registry", __name__)
        return registry if name == "registry" else getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "registry", *_REGISTRY_NAMES})

__all__ = [
    "CacheCorrupt",
    "CapacityViolation",
    "ComparisonError",
    "DigestSizeConflict",
    "FilterVerdict",
    "ImageMetadata",
    "ImageMetadataLists",
    "ImageRef",
    "LayerCatalog",
    "LayerId",
    "LayerMetadata",
    "LayerSchedError",
    "MaxPodsResult",
    "MB",
    "NodeSpec",
    "NodeState",
    "POLICIES",
    "Placement",
    "PluginConfig",
    "RegistryClient",
    "RegistryConfig",
    "RegistryProtocolError",
    "RegistryUnavailable",
    "RegistryWatcher",
    "Scenario",
    "ScenarioError",
    "SchedulerConfig",
    "ScoreBreakdown",
    "SimulationReport",
    "StepMetrics",
    "TaskRequest",
    "TraceCorrupt",
    "UnknownImage",
    "UnsupportedManifest",
    "Unschedulable",
    "WeightPolicy",
    "WorkloadSpec",
    "baseline_score",
    "build_scenario",
    "catalog_from_cache",
    "commit_placement",
    "compare",
    "download_cost",
    "filter_node",
    "generate",
    "iter_schedule_trace",
    "layer_score",
    "layers_of",
    "load_cache",
    "load_trace",
    "local_layer_size",
    "lookup",
    "max_pods",
    "missing_layers",
    "parse_scenario_file",
    "refresh_cache",
    "replace",
    "resolve_catalog",
    "run",
    "save_cache",
    "save_trace",
    "schedule",
    "score_node",
    "std_score",
    "write_report_json",
    "write_steps_csv",
]
