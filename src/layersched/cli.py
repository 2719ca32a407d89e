"""Command-line entry point.

Verbs: fetch-registry, simulate, compare, sweep, validate. Exit codes are a
stable contract: 0 success, 1 partial failure (some sweep runs failed), 2
usage or configuration error.

Overrides: ``LAYERSCHED_REGISTRY`` replaces the scenario's registry URL,
``LAYERSCHED_OUT`` replaces the output directory; flags beat both. All file
outputs are deterministic for a given scenario and seeds.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from pathlib import Path

from .errors import LayerSchedError, ScenarioError
from .model import LayerCatalog, replace
from .scenario import (
    ScenarioFile,
    build_scenario,
    parse_scenario_file,
    resolve_catalog,
)
from .simulator import (
    AGGREGATES,
    compare,
    run,
    write_json,
    write_report_json,
    write_steps_csv,
)
from .scoring import MB
from .workload import generate

ENSEMBLE_CSV_HEADER = ["scheduler", "seed", *AGGREGATES]


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label)


def _out_dir(args, sfile: ScenarioFile) -> Path:
    out = args.out or os.environ.get("LAYERSCHED_OUT") or str(sfile.base_dir / sfile.output)
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LayerSchedError(f"--out: {out}: {exc.strerror}") from None
    return path


def _check_cache_path(out: str) -> None:
    """Fail before any registry traffic if the cache file cannot be written."""
    path = Path(out)
    if path.is_dir():
        raise LayerSchedError(f"--out: {out}: is a directory")
    if not path.parent.is_dir():
        raise LayerSchedError(f"--out: {out}: {path.parent} is not a directory")


def _registry_override(args) -> str | None:
    return getattr(args, "registry", None) or os.environ.get("LAYERSCHED_REGISTRY")


def _ensemble(sfile: ScenarioFile, catalog: LayerCatalog, **overrides) -> dict:
    """Compare the scenario's schedulers over its seeds (see :func:`compare`).
    ``overrides`` are :func:`build_scenario`'s sweep-point keywords."""
    scenario = build_scenario(sfile, catalog, sfile.schedulers[0], sfile.seeds[0],
                              **overrides)
    return compare(scenario, {entry.label: entry.config for entry in sfile.schedulers},
                   sfile.seeds)


def _write(write, payload, path: Path) -> None:
    """``write(payload, path)``; a file that cannot be opened is a usage
    error naming the path."""
    try:
        write(payload, path)
    except OSError as exc:
        raise LayerSchedError(f"--out: {path}: {exc.strerror}") from None


def _write_ensemble_csv(table: dict, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(ENSEMBLE_CSV_HEADER)
        for label in table["schedulers"]:
            data = table["results"][label]
            for row in data["per_seed"]:
                writer.writerow([label, row["seed"]] +
                                [_fmt_cell(row[k]) for k in AGGREGATES])
            writer.writerow([label, "mean"] +
                            [_fmt_cell(data["mean"][k]) for k in AGGREGATES])


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _print_ensemble(table: dict, heading: str) -> None:
    print(heading)
    print(f"  {'scheduler':<20}{'download_MB':>14}{'download_s':>13}"
          f"{'mean_STD':>11}{'pods':>7}{'unsched':>9}")
    for label in table["schedulers"]:
        mean = table["results"][label]["mean"]
        print(f"  {label:<20}"
              f"{mean['total_download_bytes'] / MB:>14.1f}"
              f"{mean['total_download_seconds']:>13.1f}"
              f"{mean['mean_cluster_std']:>11.4f}"
              f"{mean['total_pods']:>7.1f}"
              f"{mean['unschedulable_count']:>9.1f}")
    reference = table["reference"]
    for label in table["schedulers"]:
        if label == reference:
            continue
        delta = table["deltas_pct"][label]["total_download_bytes"]
        if delta is not None:
            print(f"  {label} vs {reference}: download {delta:+.1f}%")


def refresh_cache(config):
    """:func:`layersched.registry.refresh_cache`, loading the registry client
    on the first call; ``benchmarks/tracer.py`` wraps this name."""
    from . import registry

    return registry.refresh_cache(config)


def cmd_fetch_registry(args) -> int:
    from .registry import RegistryConfig, RegistryWatcher

    url = _registry_override(args)
    if not url:
        raise LayerSchedError("no registry URL (use --registry or LAYERSCHED_REGISTRY)")
    _check_cache_path(args.out)

    def report(snapshot) -> None:
        for warning in snapshot.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        state = "stale" if snapshot.stale else "fresh"
        print(f"{len(snapshot.lists)} images ({state}) -> {args.out}")

    if args.poll is None:
        report(refresh_cache(RegistryConfig(base_url=url, cache_path=args.out)))
        return 0
    try:
        config = RegistryConfig(base_url=url, cache_path=args.out, poll_interval=args.poll)
    except ValueError as exc:
        raise LayerSchedError(f"--poll {args.poll}: {exc}") from None
    try:
        RegistryWatcher(config, on_refresh=report, on_error=lambda exc: print(
            f"warning: {exc}; retrying", file=sys.stderr)).run()
    except KeyboardInterrupt:
        return 0


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:  # random.Random would seed with abs(seed)
        raise LayerSchedError(f"--seed {args.seed}: must be a non-negative integer")
    sfile = parse_scenario_file(args.scenario)
    catalog = resolve_catalog(sfile, registry_url=_registry_override(args))
    entries = {entry.label: entry for entry in sfile.schedulers}
    label = args.scheduler or sfile.schedulers[0].label
    if label not in entries:
        raise ScenarioError("schedulers",
                            f"no scheduler labelled {label!r} in {args.scenario}")
    seed = args.seed if args.seed is not None else sfile.seeds[0]
    scenario = build_scenario(sfile, catalog, entries[label], seed)
    out = _out_dir(args, sfile)
    report = run(scenario)

    stem = f"simulate_{_safe_name(label)}_seed{seed}"
    _write(write_report_json, report, out / f"{stem}.json")
    _write(write_steps_csv, report, out / f"{stem}.csv")

    agg = report.aggregates()
    print(f"{label} seed {seed}: "
          f"{agg['total_download_bytes'] / MB:.1f} MB downloaded in "
          f"{agg['total_download_seconds']:.1f} s, mean STD "
          f"{agg['mean_cluster_std']:.4f}, {agg['total_pods']} pods placed, "
          f"{agg['unschedulable_count']} unschedulable")
    print(f"wrote {out / (stem + '.json')} and {out / (stem + '.csv')}")
    return 0


def cmd_compare(args) -> int:
    sfile = parse_scenario_file(args.scenario)
    catalog = resolve_catalog(sfile, registry_url=_registry_override(args))
    out = _out_dir(args, sfile)
    table = _ensemble(sfile, catalog)
    _write(write_json, table, out / "compare.json")
    _write(_write_ensemble_csv, table, out / "compare.csv")
    _print_ensemble(table, f"compare over seeds {sfile.seeds}:")
    print(f"wrote {out / 'compare.json'} and {out / 'compare.csv'}")
    return 0


def cmd_sweep(args) -> int:
    sfile = parse_scenario_file(args.scenario)
    catalog = resolve_catalog(sfile, registry_url=_registry_override(args))
    axis, keyword = {"bandwidth": ("bandwidth", "bandwidth_override"),
                     "nodes": ("node_count", "node_count")}[args.param]
    points = getattr(sfile.sweeps, axis)
    if not points:
        raise ScenarioError(f"sweeps.{axis}", "no sweep points configured")

    out = _out_dir(args, sfile)
    summary_points = []
    failures = []
    for value in points:
        stem = f"sweep_{args.param}_{value}"
        try:
            table = _ensemble(sfile, catalog, **{keyword: value})
        except LayerSchedError as exc:
            failures.append(f"{args.param}={value}: {exc}")
            print(f"error: {args.param}={value}: {exc}", file=sys.stderr)
            summary_points.append({"value": value, "error": str(exc)})
            continue
        _write(write_json, table, out / f"{stem}.json")
        _write(_write_ensemble_csv, table, out / f"{stem}.csv")
        _print_ensemble(table, f"{args.param} = {value}:")
        summary_points.append({
            "value": value,
            "means": {label: table["results"][label]["mean"]
                      for label in table["schedulers"]},
            "deltas_pct": table["deltas_pct"],
        })

    summary = {"param": args.param, "points": summary_points,
               "failures": failures}
    _write(write_json, summary, out / f"sweep_{args.param}_summary.json")
    print(f"wrote {out / f'sweep_{args.param}_summary.json'}")
    return 1 if failures else 0


def cmd_validate(args) -> int:
    sfile = parse_scenario_file(args.scenario)
    if sfile.catalog_source.registry_url is not None and not args.fetch:
        print(f"{args.scenario}: structure OK "
              f"(live registry catalog not fetched; pass --fetch to check)")
        return 0
    catalog = resolve_catalog(sfile, registry_url=_registry_override(args))
    # A scheduler entry sets only the config and the label, which the build
    # checks nothing of, so the first entry stands for all of them; one task
    # shows what any draw can raise.
    workload = build_scenario(sfile, catalog, sfile.schedulers[0], sfile.seeds[0]).workload
    generate(replace(workload, count=min(workload.count, 1)), catalog)
    for value in sfile.sweeps.node_count:
        build_scenario(sfile, catalog, sfile.schedulers[0], sfile.seeds[0],
                       node_count=value)

    print(f"{args.scenario}: OK ({len(sfile.nodes)} nodes, "
          f"{len(catalog.images)} images, "
          f"{len(sfile.schedulers)} schedulers, seeds {sfile.seeds})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layersched",
        description="Layer-aware container scheduling: registry metadata "
                    "fetcher and cluster scheduling simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch-registry",
                           help="write or refresh a registry metadata cache")
    fetch.add_argument("--registry", help="registry base URL "
                       "(default: LAYERSCHED_REGISTRY)")
    fetch.add_argument("--out", default="cache.json",
                       help="cache file path (default: %(default)s)")
    fetch.add_argument("--poll", nargs="?", type=float, const=10.0, default=None,
                       metavar="SECONDS",
                       help="watch mode: refresh every SECONDS (default 10) "
                            "until interrupted")
    fetch.set_defaults(func=cmd_fetch_registry)

    def common(cmd):
        cmd.add_argument("scenario", help="scenario file (JSON)")
        cmd.add_argument("--out", help="output directory "
                         "(default: scenario 'output' or LAYERSCHED_OUT)")
        cmd.add_argument("--registry", help="override the scenario registry URL")
        cmd.add_argument("--jobs", type=int,
                         help="accepted for compatibility and ignored: "
                              "runs are executed one after another")

    sim = sub.add_parser("simulate", help="run one scheduler once")
    common(sim)
    sim.add_argument("--scheduler", help="scheduler label from the scenario "
                     "(default: first)")
    sim.add_argument("--seed", type=int, help="seed (default: first of the "
                     "scenario's seeds)")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare",
                          help="run all schedulers over all seeds and tabulate")
    common(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="repeat compare per sweep point")
    common(sweep)
    sweep.add_argument("--param", choices=("bandwidth", "nodes"), required=True,
                       help="which sweep axis from the scenario to walk")
    sweep.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="check a scenario file and exit")
    val.add_argument("scenario", help="scenario file (JSON)")
    val.add_argument("--registry", help="override the scenario registry URL")
    val.add_argument("--fetch", action="store_true",
                     help="also fetch a live-registry catalog to validate it")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LayerSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
