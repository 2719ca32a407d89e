"""Parsing of human-editable scenario files into runnable Scenario objects.

A scenario file is one JSON document describing the cluster, the image
catalog source, the workload, the schedulers to compare, optional sweep
axes, and the seed ensemble. Parsing is strict: unknown keys fail with the
dotted path to the offending field so typos never silently change an
experiment.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ScenarioError
from .model import ImageRef, LayerCatalog, LayerId, NodeSpec
from .registry import (
    RegistryClient,
    RegistryConfig,
    catalog_from_cache,
    load_cache,
    walk_registry,
)
from .scheduler import POLICIES, TIE_BREAKS, SchedulerConfig
from .scoring import PLUGIN_NAMES, WEIGHT_MODES, PluginConfig, WeightPolicy
from .simulator import Scenario
from .workload import WorkloadSpec

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(B|KB|MB|GB|TB)?\s*$", re.IGNORECASE)
_SIZE_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3, "TB": 1024**4}


def parse_size(value: int | float | str, path: str) -> int:
    """Bytes from an int or a string like '200MB' (binary units)."""
    if isinstance(value, bool):
        raise ScenarioError(path, "expected a byte size, got a boolean")
    if isinstance(value, int):
        if value < 0:
            raise ScenarioError(path, "size must be >= 0")
        return value
    if isinstance(value, float):
        if not math.isfinite(value) or value < 0 or value != int(value):
            raise ScenarioError(path, "fractional byte counts need a unit suffix")
        return int(value)
    match = _SIZE_RE.match(value) if isinstance(value, str) else None
    if not match:
        raise ScenarioError(path, f"cannot parse size {value!r}")
    number = float(match.group(1))
    unit = (match.group(2) or "B").upper()
    exact = number * _SIZE_UNITS[unit]
    if not math.isfinite(exact) or exact != int(exact):
        raise ScenarioError(path, f"size {value!r} is not a whole number of bytes")
    return int(exact)


def _positive_size(value: int | float | str, path: str) -> int:
    """A byte size that must not be zero: a capacity, rate or layer."""
    size = parse_size(value, path)
    if size == 0:
        raise ScenarioError(path, "must be > 0")
    return size


def parse_cpu(value: int | str, path: str) -> int:
    """Millicores from an int (already millicores) or a k8s-style string:
    '500m' is millicores, a bare number is whole cores."""
    if isinstance(value, bool):
        raise ScenarioError(path, "expected a cpu quantity, got a boolean")
    if isinstance(value, int):
        if value <= 0:
            raise ScenarioError(path, "cpu must be > 0")
        return value
    if isinstance(value, str):
        text = value.strip()
        if text.endswith("m"):
            try:
                millis = int(text[:-1])
            except ValueError:
                raise ScenarioError(path, f"cannot parse cpu {value!r}") from None
            if millis <= 0:
                raise ScenarioError(path, "cpu must be > 0")
            return millis
        try:
            cores = float(text)
        except ValueError:
            raise ScenarioError(path, f"cannot parse cpu {value!r}") from None
        millis = cores * 1000
        if not math.isfinite(millis) or millis <= 0 or millis != int(millis):
            raise ScenarioError(path, f"cpu {value!r} is not a whole number of millicores")
        return int(millis)
    raise ScenarioError(path, f"cannot parse cpu {value!r}")


def _number(value, path: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(path, "must be a finite number")


def _image_ref(key: str, path: str) -> ImageRef:
    try:
        return ImageRef.parse(key)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required key")
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(path or "<root>", "expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ScenarioError(where, "unknown key")


def _parse_node(obj: dict, path: str) -> tuple[NodeSpec, list[str], list[ImageRef]]:
    _check_keys(obj, {"id", "cpu", "memory", "bandwidth", "storage",
                      "max_containers", "preloaded_layers", "preloaded_images"}, path)
    node_id = _require(obj, "id", path)
    if not isinstance(node_id, str) or not node_id:
        raise ScenarioError(f"{path}.id", "must be a non-empty string")
    max_containers = obj.get("max_containers", 110)
    if not isinstance(max_containers, int) or isinstance(max_containers, bool):
        raise ScenarioError(f"{path}.max_containers", "must be an integer")
    if max_containers < 1:
        raise ScenarioError(f"{path}.max_containers", "must be >= 1")
    spec = NodeSpec(
        id=node_id,
        cpu_capacity=parse_cpu(_require(obj, "cpu", path), f"{path}.cpu"),
        mem_capacity=_positive_size(_require(obj, "memory", path), f"{path}.memory"),
        bandwidth=_positive_size(_require(obj, "bandwidth", path), f"{path}.bandwidth"),
        storage_capacity=_positive_size(_require(obj, "storage", path), f"{path}.storage"),
        max_containers=max_containers,
    )
    layers = obj.get("preloaded_layers", [])
    images = obj.get("preloaded_images", [])
    if not isinstance(layers, list) or not all(isinstance(x, str) for x in layers):
        raise ScenarioError(f"{path}.preloaded_layers", "must be a list of digests")
    if not isinstance(images, list) or not all(isinstance(x, str) for x in images):
        raise ScenarioError(f"{path}.preloaded_images", "must be a list of name:tag keys")
    refs = [_image_ref(key, f"{path}.preloaded_images[{j}]") for j, key in enumerate(images)]
    return spec, layers, refs


def _parse_workload(obj: dict, path: str) -> WorkloadSpec:
    _check_keys(obj, {"kind", "count", "images", "cpu_request", "mem_request",
                      "trace_file"}, path)
    kind = obj.get("kind", "random")
    if kind == "trace_file":
        trace = _require(obj, "trace_file", path)
        if not isinstance(trace, str):
            raise ScenarioError(f"{path}.trace_file", "must be a path string")
        return WorkloadSpec(kind="trace_file", trace_path=trace)
    if kind != "random":
        raise ScenarioError(f"{path}.kind", "must be 'random' or 'trace_file'")

    count = obj.get("count", 20)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ScenarioError(f"{path}.count", "must be a non-negative integer")

    weights = None
    if "images" in obj:
        raw = obj["images"]
        if not isinstance(raw, dict) or not raw:
            raise ScenarioError(f"{path}.images", "must be a non-empty map of name:tag to weight")
        weights = {}
        for key, prob in raw.items():
            _image_ref(key, f"{path}.images.{key}")
            weights[key] = _number(prob, f"{path}.images.{key}")
            if weights[key] < 0:
                raise ScenarioError(f"{path}.images.{key}", "weight must be a number >= 0")

    def _range(key: str, parse, default):
        if key not in obj:
            return default
        pair = obj[key]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}.{key}", "must be a [min, max] pair")
        low = parse(pair[0], f"{path}.{key}[0]")
        high = parse(pair[1], f"{path}.{key}[1]")
        return (low, high)

    defaults = WorkloadSpec()
    cpu_range = _range("cpu_request", parse_cpu, defaults.cpu_range)
    mem_range = _range("mem_request", parse_size, defaults.mem_range)
    try:
        return WorkloadSpec(kind="random", count=count, image_weights=weights,
                            cpu_range=cpu_range, mem_range=mem_range)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_weights(obj: dict, path: str) -> WeightPolicy:
    _check_keys(obj, {"mode", "omega_static", "omega_high", "omega_low",
                      "h_size", "h_cpu", "h_std", "custom_table"}, path)
    kwargs = {}
    if "mode" in obj:
        if obj["mode"] not in WEIGHT_MODES:
            raise ScenarioError(f"{path}.mode", f"must be one of {WEIGHT_MODES}")
        kwargs["mode"] = obj["mode"]
    for key in ("omega_static", "omega_high", "omega_low", "h_cpu", "h_std"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"{path}.{key}")
    if "h_size" in obj:
        kwargs["h_size"] = parse_size(obj["h_size"], f"{path}.h_size")
    if "custom_table" in obj:
        raw = obj["custom_table"]
        if not isinstance(raw, dict):
            raise ScenarioError(f"{path}.custom_table", "must map condition counts to weights")
        table = {}
        for key, value in raw.items():
            if key not in ("0", "1", "2", "3"):
                raise ScenarioError(f"{path}.custom_table.{key}", "keys must be counts 0..3")
            table[int(key)] = _number(value, f"{path}.custom_table.{key}")
        kwargs["custom_table"] = table
    try:
        return WeightPolicy(**kwargs)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_plugins(obj: dict, path: str) -> PluginConfig:
    _check_keys(obj, set(PLUGIN_NAMES), path)
    kwargs = {}
    for name in PLUGIN_NAMES:
        if name in obj:
            value = obj[name]
            kwargs[name] = None if value is None else _number(value, f"{path}.{name}")
    return PluginConfig(**kwargs)


@dataclass
class SchedulerEntry:
    """One leg of a comparison: a policy plus optional overrides."""

    label: str
    config: SchedulerConfig


def _parse_scheduler(obj, path: str) -> SchedulerEntry:
    if isinstance(obj, str):
        if obj not in POLICIES:
            raise ScenarioError(path, f"unknown policy {obj!r}; expected one of {POLICIES}")
        return SchedulerEntry(label=obj, config=SchedulerConfig(policy=obj))
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be a policy name or an object")
    _check_keys(obj, {"policy", "label", "tie_break", "weights", "plugins"}, path)
    policy = _require(obj, "policy", path)
    if policy not in POLICIES:
        raise ScenarioError(f"{path}.policy", f"unknown policy {policy!r}")
    tie_break = obj.get("tie_break", "lowest_node_id")
    if tie_break not in TIE_BREAKS:
        raise ScenarioError(f"{path}.tie_break", f"must be one of {TIE_BREAKS}")
    weights = _parse_weights(obj.get("weights", {}), f"{path}.weights")
    plugins = _parse_plugins(obj.get("plugins", {}), f"{path}.plugins")
    label = obj.get("label", policy)
    if not isinstance(label, str) or not label:
        raise ScenarioError(f"{path}.label", "must be a non-empty string")
    try:
        config = SchedulerConfig(policy=policy, weight_policy=weights,
                                 plugins=plugins, tie_break=tie_break)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None
    return SchedulerEntry(label=label, config=config)


@dataclass
class CatalogSource:
    """Exactly one of the three fields is set."""

    inline: LayerCatalog | None = None
    cache_file: str | None = None
    registry_url: str | None = None


def _parse_catalog_inline(obj: dict, path: str) -> LayerCatalog:
    _check_keys(obj, {"layers", "images"}, path)
    raw_layers = _require(obj, "layers", path)
    raw_images = _require(obj, "images", path)
    if not isinstance(raw_layers, dict):
        raise ScenarioError(f"{path}.layers", "must map digest to size")
    if not isinstance(raw_images, dict):
        raise ScenarioError(f"{path}.images", "must map name:tag to a digest list")
    layers: dict[LayerId, int] = {}
    for digest, size in raw_layers.items():
        layers[digest] = _positive_size(size, f"{path}.layers.{digest}")
    images: dict[ImageRef, tuple[LayerId, ...]] = {}
    for key, stack in raw_images.items():
        if not isinstance(stack, list) or not all(isinstance(x, str) for x in stack):
            raise ScenarioError(f"{path}.images.{key}", "must be a list of digests")
        images[_image_ref(key, f"{path}.images.{key}")] = tuple(stack)
    try:
        return LayerCatalog(layers=layers, images=images)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


@dataclass
class Sweeps:
    bandwidth: list[int] = field(default_factory=list)
    node_count: list[int] = field(default_factory=list)


def _parse_sweeps(obj: dict, path: str) -> Sweeps:
    _check_keys(obj, {"bandwidth", "node_count"}, path)
    raw_bandwidth = obj.get("bandwidth", [])
    if not isinstance(raw_bandwidth, list):
        raise ScenarioError(f"{path}.bandwidth", "must be a list of sizes")
    bandwidth = []
    for i, value in enumerate(raw_bandwidth):
        bandwidth.append(_positive_size(value, f"{path}.bandwidth[{i}]"))
    node_count = obj.get("node_count", [])
    if not isinstance(node_count, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in node_count
    ):
        raise ScenarioError(f"{path}.node_count", "must be a list of positive integers")
    return Sweeps(bandwidth=bandwidth, node_count=list(node_count))


@dataclass
class ScenarioFile:
    nodes: list[NodeSpec]
    preloaded_layers: dict[str, list[str]]
    preloaded_images: dict[str, list[ImageRef]]
    catalog_source: CatalogSource
    workload: WorkloadSpec
    schedulers: list[SchedulerEntry]
    sweeps: Sweeps
    seeds: list[int]
    output: str
    base_dir: Path  # relative paths in the file resolve against its location


TOP_KEYS = {"nodes", "catalog", "registry", "workload", "schedulers",
            "sweeps", "seeds", "output"}


def parse_scenario_data(data: dict, base_dir: Path | str = ".") -> ScenarioFile:
    _check_keys(data, TOP_KEYS, "")

    raw_nodes = _require(data, "nodes", "")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ScenarioError("nodes", "must be a non-empty list")
    nodes, pre_layers, pre_images = [], {}, {}
    for i, entry in enumerate(raw_nodes):
        spec, layers, images = _parse_node(entry, f"nodes[{i}]")
        nodes.append(spec)
        if layers:
            pre_layers[spec.id] = layers
        if images:
            pre_images[spec.id] = images
    if len({n.id for n in nodes}) != len(nodes):
        raise ScenarioError("nodes", "node ids must be unique")

    if ("catalog" in data) == ("registry" in data):
        raise ScenarioError("catalog", "exactly one of 'catalog' or 'registry' is required")
    if "registry" in data:
        url = data["registry"]
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            raise ScenarioError("registry", "must be an http(s) URL")
        source = CatalogSource(registry_url=url)
    else:
        raw = data["catalog"]
        if isinstance(raw, dict) and set(raw) == {"cache_file"}:
            if not isinstance(raw["cache_file"], str):
                raise ScenarioError("catalog.cache_file", "must be a path string")
            source = CatalogSource(cache_file=raw["cache_file"])
        elif isinstance(raw, dict):
            source = CatalogSource(inline=_parse_catalog_inline(raw, "catalog"))
        else:
            raise ScenarioError("catalog", "must be an object")

    workload = _parse_workload(_require(data, "workload", ""), "workload")

    raw_sched = data.get("schedulers", list(POLICIES))
    if not isinstance(raw_sched, list) or not raw_sched:
        raise ScenarioError("schedulers", "must be a non-empty list")
    schedulers = [_parse_scheduler(entry, f"schedulers[{i}]")
                  for i, entry in enumerate(raw_sched)]
    labels = [entry.label for entry in schedulers]
    if len(set(labels)) != len(labels):
        raise ScenarioError("schedulers", "labels must be unique")

    sweeps = _parse_sweeps(data.get("sweeps", {}), "sweeps")

    seeds = data.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in seeds
    ):
        raise ScenarioError("seeds", "must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ScenarioError("seeds", "seeds must be unique")

    output = data.get("output", "out")
    if not isinstance(output, str) or not output:
        raise ScenarioError("output", "must be a non-empty path string")

    return ScenarioFile(
        nodes=nodes,
        preloaded_layers=pre_layers,
        preloaded_images=pre_images,
        catalog_source=source,
        workload=workload,
        schedulers=schedulers,
        sweeps=sweeps,
        seeds=list(seeds),
        output=output,
        base_dir=Path(base_dir),
    )


def parse_scenario_file(path: str | Path) -> ScenarioFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(path), f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError(str(path), "top level must be an object")
    return parse_scenario_data(data, base_dir=path.parent)


BUNDLED_SCENARIOS = ("shared_layers", "storage_tight")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario file shipped with the package."""
    from importlib import resources

    root = resources.files(__package__) / "scenarios"
    candidate = Path(str(root / f"{name}.json"))
    if not candidate.is_file():
        known = ", ".join(BUNDLED_SCENARIOS)
        raise ScenarioError(
            "scenario", f"no bundled scenario named {name!r} (available: {known})"
        )
    return candidate


def resolve_catalog(sfile: ScenarioFile, registry_url: str | None = None) -> LayerCatalog:
    """Materialize the catalog from whichever source the file names.

    ``registry_url`` overrides the file's URL (environment/flag override).
    A live registry is walked like ``fetch-registry`` walks it: images that
    fail to resolve are left out and named in ``warning:`` lines on stderr.
    """
    source = sfile.catalog_source
    if source.inline is not None:
        return source.inline
    if source.cache_file is not None:
        try:
            cache = load_cache(sfile.base_dir / source.cache_file)
        except OSError as exc:
            raise ScenarioError("catalog.cache_file", f"cannot read cache: {exc}") from None
        return catalog_from_cache(cache)
    url = registry_url or source.registry_url
    snapshot = walk_registry(RegistryClient(RegistryConfig(base_url=url)))
    for warning in snapshot.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return catalog_from_cache(snapshot)


def _expand_preloads(sfile: ScenarioFile, catalog: LayerCatalog) -> dict[str, tuple[str, ...]]:
    preloaded: dict[str, tuple[str, ...]] = {}
    position = {node.id: i for i, node in enumerate(sfile.nodes)}
    for node_id in sorted(set(sfile.preloaded_layers) | set(sfile.preloaded_images)):
        digests: list[str] = list(sfile.preloaded_layers.get(node_id, []))
        for j, ref in enumerate(sfile.preloaded_images.get(node_id, [])):
            if ref not in catalog.images:
                raise ScenarioError(f"nodes[{position[node_id]}].preloaded_images[{j}]",
                                    f"image {ref.key!r} not in catalog")
            digests.extend(catalog.images[ref])
        seen: dict[str, None] = dict.fromkeys(digests)
        preloaded[node_id] = tuple(seen)
    return preloaded


def build_scenario(
    sfile: ScenarioFile,
    catalog: LayerCatalog,
    scheduler: SchedulerEntry,
    seed: int,
    bandwidth_override: int | None = None,
    node_count: int | None = None,
) -> Scenario:
    """Assemble one runnable Scenario for a (scheduler, seed, sweep point)."""
    nodes = sfile.nodes
    if node_count is not None:
        if not 1 <= node_count <= len(nodes):
            raise ScenarioError(
                "sweeps.node_count", f"{node_count} outside 1..{len(nodes)}"
            )
        nodes = nodes[:node_count]
    preloaded = _expand_preloads(sfile, catalog)
    kept = {node.id for node in nodes}
    preloaded = {k: v for k, v in preloaded.items() if k in kept}
    workload = sfile.workload
    if workload.kind == "random":
        for key in workload.image_weights or ():
            if ImageRef.parse(key) not in catalog.images:
                raise ScenarioError("workload.images", f"image {key!r} not in catalog")
        if workload.image_weights is None and not catalog.images:
            source = sfile.catalog_source
            path = ("catalog.images" if source.inline is not None else
                    "catalog.cache_file" if source.cache_file is not None else "registry")
            raise ScenarioError(path, "catalog holds no images to draw from")
    if workload.kind == "trace_file" and workload.trace_path is not None:
        workload = replace(workload, trace_path=str(sfile.base_dir / workload.trace_path))
    scenario = Scenario(
        nodes=list(nodes),
        catalog=catalog,
        workload=workload,
        scheduler=scheduler.config,
        preloaded=preloaded,
        seed=seed,
        bandwidth_override=bandwidth_override,
        label=scheduler.label,
    )
    scenario.validate()
    return scenario
