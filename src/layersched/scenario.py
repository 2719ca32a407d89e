"""Parsing of human-editable scenario files into runnable Scenario objects.

A scenario file is one JSON document describing the cluster, the image
catalog source, the workload, the schedulers to compare, optional sweep
axes, and the seed ensemble. Parsing is strict: unknown keys fail with the
dotted path to the offending field so typos never silently change an
experiment. Each JSON shape (a non-empty string, a list of strings, a
bounded integer, one of a fixed set of names, a list without repeats, a
record that checks its own fields) is read by one reader below, so a bad
value of that shape gets one wording, whatever field holds it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

from .errors import ScenarioError
from .model import ImageRef, LayerCatalog, LayerId, NodeSpec, _finite, _Record, replace
from .scheduler import POLICIES, TIE_BREAKS, SchedulerConfig
from .scoring import PLUGIN_NAMES, WEIGHT_MODES, PluginConfig, WeightPolicy
from .simulator import Scenario
from .workload import WorkloadSpec

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(B|KB|MB|GB|TB)?\s*$", re.IGNORECASE)
_SIZE_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3, "TB": 1024**4}
_WORKLOAD_KINDS = ("random", "trace_file")


def parse_size(value: int | float | str, path: str) -> int:
    """Bytes from an int or a string like '200MB' (binary units)."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    elif isinstance(value, str) and (match := _SIZE_RE.match(value)):
        number = float(match.group(1)) * _SIZE_UNITS[(match.group(2) or "B").upper()]
    if number is None:
        raise ScenarioError(path, f"cannot parse size {value!r}")
    if not (number >= 0 and _finite(number) and number == int(number)):
        raise ScenarioError(path, "size must be a whole number of bytes, >= 0 and "
                                  "within the float range")
    return int(number)


def _positive_size(value: int | float | str, path: str) -> int:
    """A byte size that must not be zero: a capacity, rate or layer."""
    size = parse_size(value, path)
    if size == 0:
        raise ScenarioError(path, "must be > 0")
    return size


def parse_cpu(value: int | str, path: str) -> int:
    """Millicores from an int (already millicores) or a k8s-style string:
    '500m' is millicores, a bare number is whole cores."""
    millis = None
    if isinstance(value, str):
        text = value.strip()
        try:
            millis = int(text[:-1]) if text.endswith("m") else float(text) * 1000
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        millis = value
    if millis is None:
        raise ScenarioError(path, f"cannot parse cpu {value!r}")
    if not (millis > 0 and _finite(millis) and millis == int(millis)):
        raise ScenarioError(path, "cpu must be a whole number of millicores, > 0 and "
                                  "within the float range")
    return int(millis)


def _number(value, path: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and _finite(value):
        return float(value)
    raise ScenarioError(path, "must be a finite number")


def _string(value, path: str) -> str:
    """A non-empty JSON string."""
    if isinstance(value, str) and value:
        return value
    raise ScenarioError(path, "must be a non-empty string")


def _strings(value, path: str) -> list[str]:
    """A JSON list of strings."""
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return value
    raise ScenarioError(path, "must be a list of strings")


def _list(value, path: str, empty: bool = True) -> list:
    """A JSON list; an empty one only if ``empty``."""
    if isinstance(value, list) and (empty or value):
        return value
    raise ScenarioError(path, "must be a list" if empty else "must be a non-empty list")


def _integer(value, path: str, low: int, high: float = math.inf) -> int:
    """A JSON integer within ``low..high``; a boolean is not one."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    at_most = "" if high == math.inf else f" and <= {high}"
    raise ScenarioError(path, f"must be an integer >= {low}{at_most}")


def _integers(value, path: str, low: int, empty: bool = True) -> list[int]:
    """A JSON list of integers >= ``low``, a new list; a bad item is named by
    the list's path."""
    return [_integer(item, path, low) for item in _list(value, path, empty)]


def _choice(value, path: str, choices: tuple):
    """One of ``choices``."""
    if value in choices:
        return value
    raise ScenarioError(path, f"must be one of {choices}, not {value!r}")


def _unique(values: list, path: str, what: str) -> None:
    """Refuse ``values`` if one of them repeats."""
    if len(set(values)) != len(values):
        raise ScenarioError(path, f"{what} must be unique")


def _build(record, path: str, *args, **fields):
    """``record(*args, **fields)``, whose ValueError becomes a ScenarioError
    at ``path``: a record checks its own fields."""
    try:
        return record(*args, **fields)
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
    node_id = _string(_require(obj, "id", path), f"{path}.id")
    kwargs = {}
    if "max_containers" in obj:
        kwargs["max_containers"] = _integer(obj["max_containers"], f"{path}.max_containers", 1)
    spec = NodeSpec(
        id=node_id,
        cpu_capacity=parse_cpu(_require(obj, "cpu", path), f"{path}.cpu"),
        mem_capacity=_positive_size(_require(obj, "memory", path), f"{path}.memory"),
        bandwidth=_positive_size(_require(obj, "bandwidth", path), f"{path}.bandwidth"),
        storage_capacity=_positive_size(_require(obj, "storage", path), f"{path}.storage"),
        **kwargs,
    )
    layers = _strings(obj.get("preloaded_layers", []), f"{path}.preloaded_layers")
    images = _strings(obj.get("preloaded_images", []), f"{path}.preloaded_images")
    refs = [_build(ImageRef.parse, f"{path}.preloaded_images[{j}]", key)
            for j, key in enumerate(images)]
    return spec, layers, refs


def _parse_workload(obj: dict, path: str) -> WorkloadSpec:
    _check_keys(obj, {"kind", "count", "images", "cpu_request", "mem_request",
                      "trace_file"}, path)
    kind = _choice(obj.get("kind", "random"), f"{path}.kind", _WORKLOAD_KINDS)
    if kind == "trace_file":
        trace = _string(_require(obj, "trace_file", path), f"{path}.trace_file")
        return WorkloadSpec(kind=kind, trace_path=trace)
    kwargs = {}
    if "count" in obj:
        kwargs["count"] = _integer(obj["count"], f"{path}.count", 0, sys.maxsize)
    if "images" in obj:
        raw = obj["images"]
        if not isinstance(raw, dict) or not raw:
            raise ScenarioError(f"{path}.images", "must be a non-empty map of name:tag to weight")
        weights = {}
        for key, prob in raw.items():
            _build(ImageRef.parse, f"{path}.images.{key}", key)
            weights[key] = _number(prob, f"{path}.images.{key}")
            if weights[key] < 0:
                raise ScenarioError(f"{path}.images.{key}", "weight must be a number >= 0")
        kwargs["image_weights"] = weights
    for key, field, parse in (("cpu_request", "cpu_range", parse_cpu),
                              ("mem_request", "mem_range", parse_size)):
        if key in obj:
            pair = obj[key]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError(f"{path}.{key}", "must be a [min, max] pair")
            low = parse(pair[0], f"{path}.{key}[0]")
            kwargs[field] = (low, parse(pair[1], f"{path}.{key}[1]"))
    return _build(WorkloadSpec, path, kind=kind, **kwargs)


def _parse_weights(obj: dict, path: str) -> WeightPolicy:
    _check_keys(obj, set(WeightPolicy._fields), path)
    kwargs = {}
    if "mode" in obj:
        kwargs["mode"] = _choice(obj["mode"], f"{path}.mode", WEIGHT_MODES)
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
    return _build(WeightPolicy, path, **kwargs)


def _parse_plugins(obj: dict, path: str) -> PluginConfig:
    _check_keys(obj, set(PLUGIN_NAMES), path)
    kwargs = {}
    for name in PLUGIN_NAMES:
        if name in obj:
            value = obj[name]
            kwargs[name] = None if value is None else _number(value, f"{path}.{name}")
    return PluginConfig(**kwargs)


class SchedulerEntry(_Record):
    """One leg of a comparison: a policy plus optional overrides."""

    def __init__(self, label: str, config: SchedulerConfig):
        self.label = label
        self.config = config


def _parse_scheduler(obj, path: str) -> SchedulerEntry:
    if isinstance(obj, str):
        policy = _choice(obj, path, POLICIES)
        return SchedulerEntry(label=policy, config=SchedulerConfig(policy=policy))
    if not isinstance(obj, dict):
        raise ScenarioError(path, "must be a policy name or an object")
    _check_keys(obj, {"policy", "label", "tie_break", "weights", "plugins"}, path)
    policy = _choice(_require(obj, "policy", path), f"{path}.policy", POLICIES)
    kwargs = {}
    if "tie_break" in obj:
        kwargs["tie_break"] = _choice(obj["tie_break"], f"{path}.tie_break", TIE_BREAKS)
    if "weights" in obj:
        kwargs["weight_policy"] = _parse_weights(obj["weights"], f"{path}.weights")
    if "plugins" in obj:
        kwargs["plugins"] = _parse_plugins(obj["plugins"], f"{path}.plugins")
    label = _string(obj.get("label", policy), f"{path}.label")
    return SchedulerEntry(label=label,
                          config=_build(SchedulerConfig, path, policy=policy, **kwargs))


class CatalogSource(_Record):
    """Exactly one of the three fields is set."""

    def __init__(self, inline: LayerCatalog | None = None, cache_file: str | None = None,
                 registry_url: str | None = None):
        self.inline = inline
        self.cache_file = cache_file
        self.registry_url = registry_url


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
        stack = tuple(_strings(stack, f"{path}.images.{key}"))
        images[_build(ImageRef.parse, f"{path}.images.{key}", key)] = stack
    return _build(LayerCatalog, path, layers=layers, images=images)


class Sweeps(_Record):
    """The sweep axes' points: bandwidths in bytes/second and node counts
    (each a new empty list if not given)."""

    def __init__(self, bandwidth: list[int] | None = None, node_count: list[int] | None = None):
        self.bandwidth = [] if bandwidth is None else bandwidth
        self.node_count = [] if node_count is None else node_count


def _parse_sweeps(obj: dict, path: str) -> Sweeps:
    _check_keys(obj, {"bandwidth", "node_count"}, path)
    raw_bandwidth = _list(obj.get("bandwidth", []), f"{path}.bandwidth")
    bandwidth = [_positive_size(value, f"{path}.bandwidth[{i}]")
                 for i, value in enumerate(raw_bandwidth)]
    node_count = _integers(obj.get("node_count", []), f"{path}.node_count", 1)
    return Sweeps(bandwidth=bandwidth, node_count=node_count)


class ScenarioFile(_Record):
    """A parsed scenario file: its nodes, the layers and images preloaded per
    node id, where the catalog comes from, the workload, the scheduler
    entries, the sweeps, the seeds and the output directory. Relative paths
    in the file resolve against ``base_dir``, the file's directory."""

    def __init__(self, nodes: list[NodeSpec], preloaded_layers: dict[str, list[str]],
                 preloaded_images: dict[str, list[ImageRef]], catalog_source: CatalogSource,
                 workload: WorkloadSpec, schedulers: list[SchedulerEntry], sweeps: Sweeps,
                 seeds: list[int], output: str, base_dir: Path):
        self.nodes = nodes
        self.preloaded_layers = preloaded_layers
        self.preloaded_images = preloaded_images
        self.catalog_source = catalog_source
        self.workload = workload
        self.schedulers = schedulers
        self.sweeps = sweeps
        self.seeds = seeds
        self.output = output
        self.base_dir = base_dir


TOP_KEYS = {"nodes", "catalog", "registry", "workload", "schedulers",
            "sweeps", "seeds", "output"}


def parse_scenario_data(data: dict, base_dir: Path | str = ".") -> ScenarioFile:
    _check_keys(data, TOP_KEYS, "")

    raw_nodes = _list(_require(data, "nodes", ""), "nodes", empty=False)
    nodes, pre_layers, pre_images = [], {}, {}
    for i, entry in enumerate(raw_nodes):
        spec, layers, images = _parse_node(entry, f"nodes[{i}]")
        nodes.append(spec)
        if layers:
            pre_layers[spec.id] = layers
        if images:
            pre_images[spec.id] = images
    _unique([n.id for n in nodes], "nodes", "node ids")

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
            source = CatalogSource(cache_file=_string(raw["cache_file"], "catalog.cache_file"))
        elif isinstance(raw, dict):
            source = CatalogSource(inline=_parse_catalog_inline(raw, "catalog"))
        else:
            raise ScenarioError("catalog", "must be an object")

    workload = _parse_workload(_require(data, "workload", ""), "workload")

    raw_sched = _list(data.get("schedulers", list(POLICIES)), "schedulers", empty=False)
    schedulers = [_parse_scheduler(entry, f"schedulers[{i}]")
                  for i, entry in enumerate(raw_sched)]
    _unique([entry.label for entry in schedulers], "schedulers", "labels")

    sweeps = _parse_sweeps(data.get("sweeps", {}), "sweeps")

    seeds = _integers(data.get("seeds", [0]), "seeds", 0, empty=False)
    _unique(seeds, "seeds", "seeds")

    return ScenarioFile(
        nodes=nodes,
        preloaded_layers=pre_layers,
        preloaded_images=pre_images,
        catalog_source=source,
        workload=workload,
        schedulers=schedulers,
        sweeps=sweeps,
        seeds=seeds,
        output=_string(data.get("output", "out"), "output"),
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
    except ValueError as exc:  # JSONDecodeError, or an int too long for int()
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
    # Only these two sources need the registry client.
    from .registry import (RegistryClient, RegistryConfig, catalog_from_cache, load_cache,
                           walk_registry)

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
    if workload.kind == "trace_file":
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
