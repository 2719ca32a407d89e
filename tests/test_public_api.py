"""The package's public surface: a name dropped from ``layersched`` (say, by
moving a function between modules) fails here rather than in a user's import."""

import layersched

PUBLIC = (
    "CacheCorrupt", "CapacityViolation", "ComparisonError", "DigestSizeConflict",
    "FilterVerdict", "ImageMetadata", "ImageMetadataLists", "ImageRef", "LayerCatalog",
    "LayerId", "LayerMetadata", "LayerSchedError", "MB", "MaxPodsResult", "NodeSpec",
    "NodeState", "POLICIES", "PlacedContainer", "Placement", "PluginConfig",
    "RegistryClient", "RegistryConfig", "RegistryProtocolError", "RegistryUnavailable",
    "RegistryWatcher", "Scenario", "ScenarioError", "SchedulerConfig", "ScoreBreakdown",
    "SimulationReport", "StepMetrics", "TaskRequest", "TraceCorrupt", "UnknownImage",
    "Unschedulable", "UnsupportedManifest", "WeightPolicy", "WorkloadSpec",
    "baseline_score", "build_scenario", "catalog_from_cache", "commit_placement",
    "compare", "download_cost", "filter_node", "generate", "iter_schedule_trace",
    "layer_score", "layers_of", "load_cache", "load_trace", "local_layer_size", "lookup",
    "max_pods", "missing_layers", "parse_scenario_file", "refresh_cache",
    "resolve_catalog", "run", "save_cache", "save_trace", "schedule", "score_node",
    "std_score", "write_report_json", "write_steps_csv",
)


def test_all_is_the_pinned_surface_and_every_name_resolves():
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert len(layersched.__all__) == len(set(layersched.__all__))
    assert tuple(sorted(layersched.__all__)) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(layersched, name)]
    assert missing == []
