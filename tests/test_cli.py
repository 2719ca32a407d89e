"""End-to-end CLI behaviour through main(argv): exit codes, files, stdout."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layersched import cli, simulator, workload
from layersched import registry as registry_module
from layersched.cli import ENSEMBLE_CSV_HEADER, main
from layersched.errors import RegistryUnavailable
from layersched.fake_registry import FakeImage, FakeRegistry, bundled_images
from layersched.model import NodeState
from layersched.registry import ImageMetadataLists
from layersched.scenario import bundled_scenario_path
from layersched.scheduler import Placement, Unschedulable
from layersched.scoring import MB

GB = 1024 ** 3


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("LAYERSCHED_REGISTRY", raising=False)
    monkeypatch.delenv("LAYERSCHED_OUT", raising=False)


def write_scenario(tmp_path, **overrides):
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
                     "images": {"web:1": 0.5, "db:1": 0.5},
                     "cpu_request": ["100m", "400m"],
                     "mem_request": ["64MB", "256MB"]},
        "seeds": [1, 2],
        "output": "out",
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestFetchRegistry:
    def test_requires_a_url(self, tmp_path, capsys):
        code = main(["fetch-registry", "--out", str(tmp_path / "cache.json")])
        assert code == 2
        assert "LAYERSCHED_REGISTRY" in capsys.readouterr().err

    def test_errors_are_one_line_from_main(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LAYERSCHED_REGISTRY", raising=False)
        assert main(["fetch-registry", "--out", str(tmp_path / "cache.json")]) == 2
        assert capsys.readouterr().err == (
            "error: no registry URL (use --registry or LAYERSCHED_REGISTRY)\n")
        assert main(["fetch-registry", "--registry", "http://localhost:1",
                     "--out", str(tmp_path / "cache.json"), "--poll", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: --poll -1.0: poll_interval must be a positive, finite number "
            "of seconds\n")

    def test_writes_cache_and_reports(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        with FakeRegistry(bundled_images()) as registry:
            code = main(["fetch-registry", "--registry", registry.url,
                         "--out", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 images (fresh)" in out
        assert json.loads(cache.read_text())  # valid JSON on disk

    def test_repeat_fetch_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache.json"
        with FakeRegistry(bundled_images()) as registry:
            main(["fetch-registry", "--registry", registry.url,
                  "--out", str(cache)])
            first = cache.read_bytes()
            main(["fetch-registry", "--registry", registry.url,
                  "--out", str(cache)])
        assert cache.read_bytes() == first

    def test_env_var_supplies_the_url(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache.json"
        with FakeRegistry(bundled_images()) as registry:
            monkeypatch.setenv("LAYERSCHED_REGISTRY", registry.url)
            assert main(["fetch-registry", "--out", str(cache)]) == 0
        assert "3 images" in capsys.readouterr().out

    def test_outage_without_cache_fails(self, tmp_path, capsys):
        code = main(["fetch-registry", "--registry", "http://127.0.0.1:1",
                     "--out", str(tmp_path / "cache.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_outage_with_cache_serves_stale(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        with FakeRegistry(bundled_images()) as registry:
            main(["fetch-registry", "--registry", registry.url,
                  "--out", str(cache)])
        before = cache.read_bytes()
        capsys.readouterr()
        code = main(["fetch-registry", "--registry", "http://127.0.0.1:1",
                     "--out", str(cache)])
        assert code == 0
        assert "(stale)" in capsys.readouterr().out
        assert cache.read_bytes() == before

    def test_protocol_error_exits_2(self, tmp_path, capsys):
        with FakeRegistry(bundled_images()) as registry:
            code = main(["fetch-registry", "--registry", f"{registry.url}/nope",
                         "--out", str(tmp_path / "cache.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: GET {registry.url}/nope/v2/_catalog: ")
        assert "HTTP 404" in err

    @pytest.mark.parametrize("poll", ["-1", "0", "nan", "inf", "1e300"])
    def test_invalid_poll_exits_2(self, tmp_path, capsys, monkeypatch, poll):
        # If the value got through, the watch loop would never return.
        monkeypatch.setattr(registry_module, "RegistryWatcher", None)
        code = main(["fetch-registry", "--registry", "http://127.0.0.1:1",
                     "--out", str(tmp_path / "cache.json"), "--poll", poll])
        assert code == 2
        assert "--poll" in capsys.readouterr().err
        assert not (tmp_path / "cache.json").exists()

    def test_poll_reports_each_tick_until_interrupted(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.json"
        ticks = iter([ImageMetadataLists(warnings=["tags of a: HTTP 500"]),
                      RegistryUnavailable("GET x: refused"),
                      ImageMetadataLists(stale=True),
                      KeyboardInterrupt()])

        def refresh(config, client):
            assert config.cache_path == str(cache) and config.poll_interval == 0.001
            tick = next(ticks)
            if isinstance(tick, BaseException):
                raise tick
            return tick

        monkeypatch.setattr(registry_module, "refresh_cache", refresh)
        assert main(["fetch-registry", "--registry", "http://127.0.0.1:1",
                     "--out", str(cache), "--poll", "0.001"]) == 0
        out, err = capsys.readouterr()
        assert out == f"0 images (fresh) -> {cache}\n0 images (stale) -> {cache}\n"
        assert err == "warning: tags of a: HTTP 500\nwarning: GET x: refused; retrying\n"


class TestSimulate:
    def test_writes_report_and_steps(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["simulate", str(scenario)])
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "simulate_default_seed1.json").exists()
        assert (out_dir / "simulate_default_seed1.csv").exists()
        assert "default seed 1:" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path)
        main(["simulate", str(scenario), "--scheduler", "lr_dynamic"])
        target = tmp_path / "out" / "simulate_lr_dynamic_seed1.json"
        first = target.read_bytes()
        main(["simulate", str(scenario), "--scheduler", "lr_dynamic"])
        assert target.read_bytes() == first

    def test_seed_flag_changes_the_stem(self, tmp_path):
        scenario = write_scenario(tmp_path)
        main(["simulate", str(scenario), "--seed", "7"])
        assert (tmp_path / "out" / "simulate_default_seed7.json").exists()

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        # As a scenario file's seeds: random.Random(-1) is seed 1's stream.
        scenario = write_scenario(tmp_path)
        assert main(["simulate", str(scenario), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed -1: must be a non-negative integer\n"
        assert not (tmp_path / "out").exists()
        assert main(["simulate", str(scenario), "--seed", "0"]) == 0
        assert (tmp_path / "out" / "simulate_default_seed0.json").exists()

    def test_unknown_scheduler_label(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["simulate", str(scenario), "--scheduler", "nope"])
        assert code == 2
        assert "no scheduler labelled" in capsys.readouterr().err

    def test_out_env_redirects(self, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("LAYERSCHED_OUT", str(elsewhere))
        main(["simulate", str(scenario)])
        assert (elsewhere / "simulate_default_seed1.json").exists()
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_outputs_and_stdout_table(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["compare", str(scenario)])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert payload["reference"] == "default"
        assert payload["schedulers"] == ["default", "layer_static", "lr_dynamic"]
        out = capsys.readouterr().out
        assert "lr_dynamic vs default: download" in out
        with open(tmp_path / "out" / "compare.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ENSEMBLE_CSV_HEADER
        # per scheduler: one row per seed plus a mean row
        assert len(rows) == 1 + 3 * (2 + 1)

    def test_jobs_flag_does_not_change_bytes(self, tmp_path):
        scenario = write_scenario(tmp_path)
        main(["compare", str(scenario), "--jobs", "1"])
        single = (tmp_path / "out" / "compare.json").read_bytes()
        main(["compare", str(scenario), "--jobs", "8"])
        assert (tmp_path / "out" / "compare.json").read_bytes() == single

    def test_layer_policies_download_less_here(self, tmp_path):
        scenario = write_scenario(tmp_path)
        main(["compare", str(scenario)])
        payload = json.loads((tmp_path / "out" / "compare.json").read_text())
        deltas = payload["deltas_pct"]
        assert deltas["layer_static"]["total_download_bytes"] < 0
        assert deltas["lr_dynamic"]["total_download_bytes"] < 0


# Sizes print in MB, so the bundled figures pin the byte-to-MB conversion.
@pytest.mark.parametrize("verb, line", [
    ("simulate", "default seed 1: 1763.0 MB downloaded in 176.3 s, mean STD 0.0374, "
                 "50 pods placed, 0 unschedulable"),
    ("compare", "  default                     1537.0        153.7     0.0441   50.0      0.0"),
], ids=["simulate-summary", "compare-row"])
def test_printed_figures_for_the_bundled_shared_layers(verb, line, tmp_path, capsys):
    scenario = bundled_scenario_path("shared_layers")
    assert main([verb, str(scenario), "--out", str(tmp_path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("verb", ["simulate", "compare"])
def test_a_run_builds_node_states_only_for_the_initial_cluster(verb, tmp_path, monkeypatch):
    # Work count: replay builds no decision record, and every compare leg
    # starts from a kernel over the nodes it reads from one initial kernel,
    # so the only NodeStates are those initial_nodes builds.
    calls = {"NodeState": 0, "Placement": 0, "Unschedulable": 0, "initial": 0}

    def counting(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return counted

    for cls, name in ((NodeState, "__init__"), (Placement, "__init__"),
                      (Unschedulable, "__init__")):
        monkeypatch.setattr(cls, name, counting(cls.__name__, getattr(cls, name)))
    initial_nodes = simulator.initial_nodes

    def counting_initial(scenario):
        nodes = initial_nodes(scenario)
        calls["initial"] += len(nodes)
        return nodes

    monkeypatch.setattr(simulator, "initial_nodes", counting_initial)
    scenario = bundled_scenario_path("storage_tight")
    assert main([verb, str(scenario), "--out", str(tmp_path)]) == 0
    assert calls["initial"] > 0
    assert (calls["NodeState"], calls["Placement"], calls["Unschedulable"]) == (
        calls["initial"], 0, 0)


class TestSweep:
    def test_bandwidth_sweep_halving_doubles_seconds(self, tmp_path):
        scenario = write_scenario(
            tmp_path, sweeps={"bandwidth": ["10MB", "5MB"]})
        code = main(["sweep", str(scenario), "--param", "bandwidth"])
        assert code == 0
        out_dir = tmp_path / "out"
        fast = json.loads((out_dir / f"sweep_bandwidth_{10 * MB}.json").read_text())
        slow = json.loads((out_dir / f"sweep_bandwidth_{5 * MB}.json").read_text())
        for label in fast["schedulers"]:
            a = fast["results"][label]["mean"]["total_download_seconds"]
            b = slow["results"][label]["mean"]["total_download_seconds"]
            assert b == 2 * a
        summary = json.loads(
            (out_dir / "sweep_bandwidth_summary.json").read_text())
        assert summary["failures"] == []
        assert [p["value"] for p in summary["points"]] == [10 * MB, 5 * MB]

    def test_node_sweep_partial_failure(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, sweeps={"node_count": [2, 9]})
        code = main(["sweep", str(scenario), "--param", "nodes"])
        assert code == 1
        out_dir = tmp_path / "out"
        assert (out_dir / "sweep_nodes_2.json").exists()
        assert not (out_dir / "sweep_nodes_9.json").exists()
        summary = json.loads((out_dir / "sweep_nodes_summary.json").read_text())
        assert len(summary["failures"]) == 1
        assert "nodes=9" in summary["failures"][0]
        assert "error:" in capsys.readouterr().err

    def test_empty_axis_is_a_usage_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["sweep", str(scenario), "--param", "bandwidth"])
        assert code == 2
        assert "no sweep points" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, sweeps={"bandwidth": ["10MB"]})
        main(["sweep", str(scenario), "--param", "bandwidth"])
        target = tmp_path / "out" / f"sweep_bandwidth_{10 * MB}.json"
        first = target.read_bytes()
        main(["sweep", str(scenario), "--param", "bandwidth"])
        assert target.read_bytes() == first


class TestUnusableOut:
    @pytest.mark.parametrize("verb", ["simulate", "compare", "sweep",
                                      "fetch-registry"])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch, verb):
        def must_not_run(*args, **kwargs):
            raise AssertionError("--out is checked only after the run")

        monkeypatch.setattr(cli, "run", must_not_run)
        monkeypatch.setattr(cli, "compare", must_not_run)
        scenario = write_scenario(tmp_path, sweeps={"bandwidth": ["10MB"]})
        a_file = tmp_path / "a-file"
        a_file.write_text("keep")
        if verb == "fetch-registry":
            bad_outs = [tmp_path / "missing" / "cache.json", tmp_path]
        else:
            bad_outs = [a_file, a_file / "sub"]
        with FakeRegistry(bundled_images()) as registry:
            for out in bad_outs:
                if verb == "fetch-registry":
                    argv = [verb, "--registry", registry.url]
                elif verb == "sweep":
                    argv = [verb, str(scenario), "--param", "bandwidth"]
                else:
                    argv = [verb, str(scenario)]
                assert main(argv + ["--out", str(out)]) == 2
                assert "error: --out: " in capsys.readouterr().err
        assert a_file.read_text() == "keep"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("verb, blocked", [
        ("simulate", "simulate_default_seed1.json"),
        ("simulate", "simulate_default_seed1.csv"),
        ("compare", "compare.json"),
        ("compare", "compare.csv"),
        ("sweep", f"sweep_bandwidth_{10 * MB}.json"),
        ("sweep", f"sweep_bandwidth_{10 * MB}.csv"),
        ("sweep", "sweep_bandwidth_summary.json"),
    ])
    def test_an_output_file_that_cannot_be_opened_exits_2(self, tmp_path, capsys,
                                                          verb, blocked):
        scenario = write_scenario(tmp_path, sweeps={"bandwidth": ["10MB"]})
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = [verb, str(scenario), "--out", str(out)]
        if verb == "sweep":
            argv += ["--param", "bandwidth"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: {out / blocked}: ") and err.count("\n") == 1


class TestValidate:
    def test_good_scenario(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["validate", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "3 nodes" in out

    @pytest.mark.parametrize("verb", ["validate", "simulate", "compare"])
    def test_unknown_weighted_image(self, tmp_path, capsys, verb):
        scenario = write_scenario(
            tmp_path, workload={"count": 5, "images": {"ghost:1": 1.0}})
        assert main([verb, str(scenario)]) == 2
        err = capsys.readouterr().err
        assert "error: workload.images:" in err and "ghost:1" in err

    def test_builds_one_scenario_for_all_scheduler_entries(self, tmp_path, capsys,
                                                             monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs)
            return build_scenario(*args, **kwargs)

        build_scenario = cli.build_scenario
        monkeypatch.setattr(cli, "build_scenario", counted)
        scenario = write_scenario(tmp_path, sweeps={"node_count": [1, 2]})
        assert main(["validate", str(scenario)]) == 0
        assert "3 schedulers" in capsys.readouterr().out
        assert built == [{}, {"node_count": 1}, {"node_count": 2}]

    def test_registry_scenario_skipped_without_fetch(self, tmp_path, capsys):
        doc = json.loads(write_scenario(tmp_path).read_text())
        del doc["catalog"]
        doc["registry"] = "http://127.0.0.1:1"
        del doc["workload"]["images"]
        path = tmp_path / "live.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert "not fetched" in capsys.readouterr().out

    def test_registry_scenario_fetched_on_request(self, tmp_path, capsys):
        doc = json.loads(write_scenario(tmp_path).read_text())
        del doc["catalog"]
        del doc["workload"]["images"]
        path = tmp_path / "live.json"
        with FakeRegistry(bundled_images()) as registry:
            doc["registry"] = registry.url
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path), "--fetch"]) == 0
        assert "3 images" in capsys.readouterr().out

    def test_fetched_image_listing_a_layer_twice_validates(self, tmp_path, capsys):
        doc = json.loads(write_scenario(tmp_path).read_text())
        del doc["catalog"]
        del doc["workload"]["images"]
        path = tmp_path / "live.json"
        base = ("sha256:base0000", 5 * MB)
        twice = FakeImage(name="twice", tag="1", config_digest="sha256:cfgtwice",
                          layers=[base, ("sha256:top00000", MB), base])
        with FakeRegistry([twice]) as registry:
            doc["registry"] = registry.url
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path), "--fetch"]) == 0
        assert "1 images" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["catalog"]["images"].update(noTag=["sha256:web"]),
         "catalog.images.noTag"),
        (lambda d: d["workload"].update(images={"noTag": 1.0}),
         "workload.images.noTag"),
        (lambda d: d["nodes"][0].update(preloaded_images=["noTag"]),
         "nodes[0].preloaded_images[0]"),
        (lambda d: d["workload"].update(images={"registry.local:5000/team/web": 1.0}),
         "workload.images.registry.local:5000/team/web"),
    ], ids=["catalog", "workload", "preloaded", "host-port-without-tag"])
    def test_image_key_without_tag_names_the_field(self, tmp_path, capsys,
                                                   mutate, field):
        doc = json.loads(write_scenario(tmp_path).read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "simulate"])
    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["nodes"][0].update(cpu="inf"), "nodes[0].cpu"),
        (lambda d: d["nodes"][0].update(cpu="1e999"), "nodes[0].cpu"),
        (lambda d: d["nodes"][0].update(cpu="nan"), "nodes[0].cpu"),
        (lambda d: d["workload"].update(cpu_request=["1e999", "2"]),
         "workload.cpu_request[0]"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic", "weights": {
            "mode": "custom", "custom_table": {"0": "x", "1": 1, "2": 1, "3": 1}}}]),
         "schedulers[0].weights.custom_table.0"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic", "weights": {
            "mode": "custom", "custom_table": {"0": [1], "1": 1, "2": 1, "3": 1}}}]),
         "schedulers[0].weights.custom_table.0"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic", "weights": {
            "mode": "custom", "custom_table": {"0": True, "1": 1, "2": 1, "3": 1}}}]),
         "schedulers[0].weights.custom_table.0"),
        (lambda d: d.update(catalog={"cache_file": "missing.json"}), "catalog.cache_file"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": "missing.jsonl"}),
         "workload.trace_file"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": "a-directory"}),
         "workload.trace_file"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": "binary.jsonl"}),
         "workload.trace_file"),
        (lambda d: d.update(schedulers=[{"policy": "layer_static",
                                         "weights": {"omega_static": float("nan")}}]),
         "schedulers[0].weights.omega_static"),
        (lambda d: d.update(sweeps={"bandwidth": 5}), "sweeps.bandwidth"),
        (lambda d: d["nodes"][0].update(storage="10MB", preloaded_layers=["sha256:base"]),
         "nodes[0].storage"),
        (lambda d: d["nodes"][1].update(preloaded_layers=["sha256:ghost"]),
         "nodes[1].preloaded_layers"),
        (lambda d: d["nodes"][1].update(preloaded_images=["ghost:1"]),
         "nodes[1].preloaded_images[0]"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": "ghost.jsonl"}),
         "workload.trace_file"),
        (lambda d: (d["catalog"].update(images={}), d["workload"].pop("images")),
         "catalog.images"),
        (lambda d: d["nodes"][0].update(id=5), "nodes[0].id"),
        (lambda d: d["nodes"][0].update(max_containers=1.5), "nodes[0].max_containers"),
        (lambda d: d["nodes"][0].update(preloaded_images="web:1"),
         "nodes[0].preloaded_images"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": 5}),
         "workload.trace_file"),
        (lambda d: d["workload"].update(kind="poisson"), "workload.kind"),
        (lambda d: d["workload"].update(images={}), "workload.images"),
        (lambda d: d["workload"].update(images={"web:1": 1.5, "db:1": -0.5}),
         "workload.images.db:1"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic",
                                         "weights": {"mode": "adaptive"}}]),
         "schedulers[0].weights.mode"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic", "weights": {
            "mode": "custom", "custom_table": [1, 1, 1, 2]}}]),
         "schedulers[0].weights.custom_table"),
        (lambda d: d.update(schedulers=[5]), "schedulers[0]"),
        (lambda d: d.update(schedulers=[{"policy": "fastest"}]), "schedulers[0].policy"),
        (lambda d: d.update(schedulers=[{"policy": "default", "label": ""}]),
         "schedulers[0].label"),
        (lambda d: d.update(sweeps={"node_count": [0]}), "sweeps.node_count"),
        (lambda d: (d.pop("catalog"), d.update(registry="ftp://registry.local")),
         "registry"),
        (lambda d: d.update(catalog={"cache_file": 5}), "catalog.cache_file"),
        (lambda d: d.update(catalog=["web:1"]), "catalog"),
        (lambda d: d.update(schedulers=[]), "schedulers"),
        (lambda d: d.update(output=""), "output"),
        (lambda d: d["catalog"]["layers"].update({"sha256:base": 10 ** 400}),
         "catalog.layers.sha256:base"),
        (lambda d: d["nodes"][0].update(storage=10 ** 400), "nodes[0].storage"),
        (lambda d: d["nodes"][0].update(cpu=10 ** 400), "nodes[0].cpu"),
        (lambda d: d["workload"].update(count=10 ** 400), "workload.count"),
        (lambda d: d["workload"].update(count=-1), "workload.count"),
        (lambda d: d.update(schedulers=[{"policy": "default", "tie_break": "coin"}]),
         "schedulers[0].tie_break"),
        (lambda d: d["catalog"].update(images=["web:1"]), "catalog.images"),
        (lambda d: d.update(schedulers=[{"policy": "lr_dynamic", "weights": {
            "omega_high": 0.25, "omega_low": 0.5}}]), "schedulers[0].weights"),
        (lambda d: d.update(seeds=[1, -1]), "seeds"),
        (lambda d: d.update(seeds=[True]), "seeds"),
        (lambda d: d.update(seeds=["1"]), "seeds"),
        (lambda d: d.update(workload={"kind": "trace_file", "trace_file": ""}),
         "workload.trace_file"),
        (lambda d: d.update(seeds=[]), "seeds"),
        (lambda d: d["nodes"][0].update(preloaded_layers=[1]), "nodes[0].preloaded_layers"),
        (lambda d: d["catalog"]["images"].update({"web:1": ["sha256:base", 5]}),
         "catalog.images.web:1"),
        (lambda d: d.update(schedulers=["fastest"]), "schedulers[0]"),
        (lambda d: d["nodes"][0].update(id=""), "nodes[0].id"),
        (lambda d: d["workload"].update(count=True), "workload.count"),
        (lambda d: d["workload"].update(cpu_request="100m"), "workload.cpu_request"),
        (lambda d: d["catalog"].update(layers=["sha256:base"]), "catalog.layers"),
    ], ids=["cpu-inf", "cpu-1e999", "cpu-nan", "cpu-request-1e999",
            "custom-table-string", "custom-table-list", "custom-table-bool",
            "missing-cache-file", "missing-trace-file", "trace-file-is-a-directory",
            "trace-file-not-utf8", "omega-nan", "sweep-bandwidth-not-a-list",
            "preloads-exceed-storage", "preloaded-layer-not-in-catalog",
            "preloaded-image-not-in-catalog", "trace-image-not-in-catalog",
            "empty-catalog", "node-id-not-a-string", "fractional-max-containers",
            "preloaded-images-not-a-list", "trace-file-not-a-string", "unknown-kind",
            "empty-images", "negative-weight", "unknown-weight-mode",
            "custom-table-not-an-object", "scheduler-not-a-name-or-object",
            "unknown-policy", "empty-label", "zero-node-count", "ftp-registry",
            "cache-file-not-a-string", "catalog-not-an-object", "no-schedulers",
            "empty-output", "layer-size-beyond-float", "storage-beyond-float",
            "cpu-beyond-float", "count-beyond-maxsize", "negative-count",
            "unknown-tie-break", "catalog-images-not-an-object", "omega-high-below-low",
            "negative-seed", "boolean-seed", "string-seed", "empty-trace-file",
            "no-seeds", "preloaded-layer-not-a-string", "digest-stack-holds-a-number",
            "unknown-policy-name", "empty-node-id", "boolean-count", "cpu-request-not-a-pair",
            "catalog-layers-not-an-object"])
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                mutate, field, verb):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe")
        (tmp_path / "ghost.jsonl").write_text(json.dumps({
            "task_id": "t1", "image_name": "ghost", "image_tag": "1",
            "cpu_millicores": 100, "mem_bytes": MB}) + "\n")
        doc = json.loads(write_scenario(tmp_path).read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([verb, str(path)]) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    def test_trace_request_beyond_float_range_exits_2_naming_the_line(self, tmp_path,
                                                                         capsys):
        (tmp_path / "huge.jsonl").write_text(json.dumps({
            "task_id": "t1", "image_name": "web", "image_tag": "1",
            "cpu_millicores": 10 ** 400, "mem_bytes": MB}) + "\n")
        scenario = write_scenario(tmp_path, workload={"kind": "trace_file",
                                                      "trace_file": "huge.jsonl"})
        assert main(["simulate", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: task t1: cpu_request must be finite and > 0\n")

    @pytest.mark.parametrize("count", [0, 1, sys.maxsize])
    def test_validate_draws_at_most_one_task(self, tmp_path, capsys, monkeypatch, count):
        drawn = []

        def counted(spec, catalog):
            for task in real_stream(spec, catalog):
                drawn.append(task)
                assert len(drawn) == 1, "validate drew a second task"
                yield task

        real_stream = workload.stream
        monkeypatch.setattr(workload, "stream", counted)
        path = write_scenario(tmp_path, workload={"count": count})
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert len(drawn) == min(count, 1)

    def test_validate_builds_every_node_count_sweep_point(self, tmp_path, capsys):
        path = write_scenario(tmp_path, sweeps={"node_count": [1, 3]})
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        path = write_scenario(tmp_path, sweeps={"node_count": [1, 4]})
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: sweeps.node_count: 4 outside 1..3\n"

    def test_top_level_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": []}))
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["validate", str(path)]) == 2
        assert f"error: {path}:" in capsys.readouterr().err


class TestRegistryScenario:
    """A scenario whose catalog comes from a live registry."""

    def test_unresolvable_image_is_skipped_with_a_warning(self, tmp_path, capsys):
        doc = json.loads(write_scenario(tmp_path).read_text())
        del doc["catalog"]
        del doc["workload"]["images"]
        path = tmp_path / "live.json"
        with FakeRegistry(bundled_images()) as registry:
            registry.serve_schema1["alpine-db:1.0"] = True
            doc["registry"] = registry.url
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path), "--fetch"]) == 0
            validated = capsys.readouterr()
            assert main(["simulate", str(path)]) == 0
            simulated = capsys.readouterr()
        assert "2 images" in validated.out
        for stderr in (validated.err, simulated.err):
            warnings = [line for line in stderr.splitlines()
                        if line.startswith("warning:")]
            assert len(warnings) == 1 and "alpine-db:1.0" in warnings[0]
        report = json.loads(
            (tmp_path / "out" / "simulate_default_seed1.json").read_text())
        assert report["aggregates"]["total_pods"] == 12


ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CACHE = Path(__file__).parent / "data" / "cache_golden.json"
NETWORK_MODULES = {"urllib.request", "http.client", "email", "ssl", "socket"}
# Imported on first use; an offline verb never needs them. The registry
# client (with the threading its watcher uses) is loaded only by
# fetch-registry and by a registry or cache catalog, and no record class is
# built by dataclasses, which would load inspect.
DEFERRED_MODULES = NETWORK_MODULES | {"base64", "hashlib", "tempfile", "importlib.resources",
                                       "typing", "layersched.registry", "dataclasses",
                                       "inspect", "threading"}
RUN_MAIN = "import sys; from layersched.cli import main; sys.exit(main(sys.argv[1:]))"


def run_python(code, *args, flags=("-S", "-W", "error"), cwd=None):
    """``code`` in a fresh interpreter that imports layersched from src; by
    default with ``-S``, so no site hook preloads a module."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True,
        timeout=60, cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_importing_the_cli_loads_no_third_party_module():
    # Only what the import adds counts: an interpreter's site hooks may load
    # one of these (certifi) at startup.
    code = ("import sys; before = set(sys.modules); import layersched.cli; "
            "print(*sorted(set(sys.modules) - before))")
    for flags in ((), ("-S",)):
        result = run_python(code, flags=flags)
        assert result.returncode == 0, result.stderr
        added = set(result.stdout.split())
        packages = {name.partition(".")[0] for name in added}
        assert not packages & {"requests", "urllib3", "certifi", "idna", "charset_normalizer"}
        assert packages <= set(sys.stdlib_module_names) | {"layersched"}
    # The last run had -S: nothing was preloaded, so a module-level import shows.
    assert not added & DEFERRED_MODULES


def test_offline_verbs_load_no_network_module(tmp_path):
    scenario = write_scenario(tmp_path, sweeps={"bandwidth": ["10MB", "5MB"]})
    verbs = [["validate", str(scenario)], ["simulate", str(scenario)],
             ["compare", str(scenario)], ["sweep", str(scenario), "--param", "bandwidth"]]
    code = ("import json, sys; before = set(sys.modules); from layersched.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
    result = run_python(code, json.dumps(verbs), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    codes, added = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(verbs)
    assert (tmp_path / "out" / "sweep_bandwidth_summary.json").exists()
    assert not set(added) & NETWORK_MODULES
    assert not set(added) & {"layersched.registry", "dataclasses"}


def test_registry_verbs_run_in_a_plain_interpreter(tmp_path):
    # The registry tests import urllib themselves, so only a fresh
    # interpreter shows that the client's deferred imports are complete.
    cache = tmp_path / "cache.json"
    doc = json.loads(write_scenario(tmp_path).read_text())
    del doc["catalog"]
    del doc["workload"]["images"]
    live = tmp_path / "live.json"
    with FakeRegistry(bundled_images()) as registry:
        fetched = run_python(RUN_MAIN, "fetch-registry", "--registry", registry.url,
                             "--out", str(cache))
        registry.fail_manifests.add("alpine-db:1.0")
        live.write_text(json.dumps({**doc, "registry": registry.url}))
        validated = run_python(RUN_MAIN, "validate", str(live), "--fetch")
    assert fetched.returncode == 0, fetched.stderr
    assert "3 images (fresh)" in fetched.stdout
    assert cache.read_bytes() == GOLDEN_CACHE.read_bytes()
    assert validated.returncode == 0, validated.stderr
    assert "2 images" in validated.stdout
    warnings = [line for line in validated.stderr.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and "alpine-db:1.0" in warnings[0]


def test_fetch_registry_loads_no_http_library(tmp_path, monkeypatch):
    # The client's own connection needs no http.client (nor the email
    # package it imports), and with no proxy variable set no urllib.request
    # (nor its hashlib); a fetch over http:// needs no ssl. Through a proxy,
    # urllib reads the settings: the fake, sent absolute URLs, serves as one.
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    code = ("import json, sys; from layersched.cli import main; status = main(sys.argv[1:]); "
            "print(json.dumps([status, sorted(sys.modules)]))")
    loaded = []
    with FakeRegistry(bundled_images()) as registry:
        for via_proxy in (False, True):
            if via_proxy:
                monkeypatch.setenv("http_proxy", registry.url)
            cache = tmp_path / f"{via_proxy}.json"
            base_url = "http://127.0.0.1:9" if via_proxy else registry.url  # only the proxy serves it
            fetched = run_python(code, "fetch-registry", "--registry", base_url,
                                 "--out", str(cache))
            assert fetched.returncode == 0, fetched.stderr
            status, modules = json.loads(fetched.stdout.splitlines()[-1])
            assert status == 0
            assert cache.read_bytes() == GOLDEN_CACHE.read_bytes()
            loaded.append({name.partition(".")[0] for name in modules} | set(modules))
        assert registry.request_count == 14
    assert not loaded[0] & {"http.client", "email", "urllib.request", "ssl", "hashlib"}
    assert "socket" in loaded[0]
    assert "urllib.request" in loaded[1]


def test_reports_do_not_depend_on_the_string_hash_seed(tmp_path, monkeypatch):
    # Image refs and layer sets hash their strings; no report may show it.
    scenario = ROOT / "src" / "layersched" / "scenarios" / "shared_layers.json"
    code = ("import sys; from layersched.cli import main\n"
            "sys.exit(main(['simulate', sys.argv[1], '--scheduler', 'lr_dynamic', "
            "'--out', 'out']) or main(['compare', sys.argv[1], '--out', 'out']))")
    runs = []
    for seed in ("0", "4242"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        (tmp_path / seed).mkdir()
        result = run_python(code, str(scenario), cwd=tmp_path / seed)
        assert result.returncode == 0, result.stderr
        out = tmp_path / seed / "out"
        runs.append((result.stdout, {path.name: path.read_bytes()
                                     for path in sorted(out.iterdir())}))
    assert sorted(runs[0][1]) == ["compare.csv", "compare.json",
                                  "simulate_lr_dynamic_seed1.csv",
                                  "simulate_lr_dynamic_seed1.json"]
    assert runs[0] == runs[1]
