"""Trace generation: seeding, distributions, file round-trips."""

import json
import random
from itertools import count, islice

import pytest

from layersched.errors import TraceCorrupt, UnknownImage
from layersched.model import ImageRef, LayerCatalog, TaskRequest
from layersched.scoring import MB
from layersched.workload import WorkloadSpec, generate, load_trace, save_trace, stream


def two_image_catalog():
    return LayerCatalog(
        layers={"sha256:a": MB, "sha256:b": MB},
        images={
            ImageRef("web", "1"): ("sha256:a",),
            ImageRef("db", "1"): ("sha256:b",),
        },
    )


class TestGenerate:
    def test_count_zero_gives_empty_trace(self):
        spec = WorkloadSpec(count=0)
        assert generate(spec, two_image_catalog()) == []

    def test_single_image_catalog_always_picks_it(self):
        catalog = LayerCatalog(layers={"sha256:a": MB},
                               images={ImageRef("web", "1"): ("sha256:a",)})
        tasks = generate(WorkloadSpec(count=50), catalog)
        assert all(t.image == ImageRef("web", "1") for t in tasks)

    def test_same_seed_same_trace(self):
        spec = WorkloadSpec(count=30, seed=42)
        catalog = two_image_catalog()
        assert generate(spec, catalog) == generate(spec, catalog)

    def test_different_seed_different_trace(self):
        catalog = two_image_catalog()
        a = generate(WorkloadSpec(count=30, seed=1), catalog)
        b = generate(WorkloadSpec(count=30, seed=2), catalog)
        assert a != b

    def test_requests_respect_ranges(self):
        spec = WorkloadSpec(count=200, cpu_range=(100, 400),
                            mem_range=(64 * MB, 128 * MB), seed=7)
        for task in generate(spec, two_image_catalog()):
            assert 100 <= task.cpu_request <= 400
            assert 64 * MB <= task.mem_request <= 128 * MB

    def test_weighted_frequencies_converge(self):
        spec = WorkloadSpec(
            count=10_000,
            image_weights={"web:1": 0.7, "db:1": 0.3},
            seed=123,
        )
        tasks = generate(spec, two_image_catalog())
        share = sum(1 for t in tasks if t.image.name == "web") / len(tasks)
        assert abs(share - 0.7) < 0.02

    def test_unknown_weighted_image_raises(self):
        spec = WorkloadSpec(count=5, image_weights={"ghost:1": 1.0})
        with pytest.raises(UnknownImage):
            generate(spec, two_image_catalog())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown workload kind 'replay'$"):
            WorkloadSpec(kind="replay")

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "trace_file"}, "trace_file workload needs trace_path"),
        ({"count": -1}, "count must be >= 0"),
    ], ids=["no-trace-path", "negative-count"])
    def test_spec_refuses(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WorkloadSpec(**kwargs)

    def test_catalog_without_images_raises(self):
        catalog = LayerCatalog(layers={"sha256:a": MB}, images={})
        with pytest.raises(UnknownImage, match="catalog holds no images to draw from"):
            generate(WorkloadSpec(count=1), catalog)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(image_weights={"web:1": 0.7, "db:1": 0.7})

    def test_task_ids_are_sequential(self):
        tasks = generate(WorkloadSpec(count=3), two_image_catalog())
        assert [t.task_id for t in tasks] == ["task-0001", "task-0002", "task-0003"]


def reference_stream(spec, catalog):
    """The documented draw: per task, ``choices(images, weights=)`` over the
    images in key order, then CPU, then memory."""
    if spec.image_weights is not None:
        keys = sorted(spec.image_weights)
        images = [ImageRef.parse(key) for key in keys]
        weights = [spec.image_weights[key] for key in keys]
    else:
        images = sorted(catalog.images, key=lambda ref: ref.key)
        weights = [1.0] * len(images)
    rng = random.Random(spec.seed)
    for number in count(1):
        image = rng.choices(images, weights=weights)[0]
        cpu = rng.randint(*spec.cpu_range)
        mem = rng.randint(*spec.mem_range)
        yield TaskRequest(f"task-{number:04d}", image, cpu, mem)


class TestStream:
    @pytest.mark.parametrize("weights", [
        None,
        {"a:1": 0.1, "b:1": 0.2, "c:1": 0.3, "d:1": 0.4},
        {"d:1": 0.05, "a:1": 0.9, "c:1": 0.05},
    ], ids=["unweighted", "weighted", "weighted-subset"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_draws_equal_a_per_task_weighted_choice(self, weights, seed):
        catalog = LayerCatalog(
            layers={"sha256:x": MB},
            images={ImageRef(name, "1"): ("sha256:x",) for name in "dcba"})
        spec = WorkloadSpec(count=1000, image_weights=weights, seed=seed)
        expected = list(islice(reference_stream(spec, catalog), 1000))
        assert list(islice(stream(spec, catalog), 1000)) == expected
        assert generate(spec, catalog) == expected


class TestTraceFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        tasks = generate(WorkloadSpec(count=25, seed=5), two_image_catalog())
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        assert load_trace(path) == tasks

    def test_empty_file_is_empty_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        assert load_trace(path) == []

    def test_malformed_line_reports_its_number(self, tmp_path):
        tasks = generate(WorkloadSpec(count=4, seed=5), two_image_catalog())
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceCorrupt) as err:
            load_trace(path)
        assert err.value.line_number == 3

    def test_missing_field_reports_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"task_id": "t0", "image_name": "web", "image_tag": "1",
                "cpu_millicores": 100, "mem_bytes": 0}
        bad = {"task_id": "t1", "image_name": "web", "image_tag": "1"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(TraceCorrupt) as err:
            load_trace(path)
        assert err.value.line_number == 2

    def test_infinite_request_reports_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"task_id": "t0", "image_name": "web", "image_tag": "1", '
                        '"cpu_millicores": 1e999, "mem_bytes": 0}\n')
        with pytest.raises(TraceCorrupt) as err:
            load_trace(path)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("key, value", [
        ("cpu_millicores", 1.9),
        ("cpu_millicores", "250"),
        ("cpu_millicores", True),
        ("mem_bytes", True),
        ("mem_bytes", 0.0),
        ("task_id", None),
        ("task_id", 7),
        ("image_name", ["web"]),
        ("image_tag", 1),
    ], ids=["fractional-cpu", "string-cpu", "bool-cpu", "bool-mem", "float-mem",
            "null-id", "int-id", "list-name", "int-tag"])
    def test_wrongly_typed_value_reports_its_line(self, tmp_path, key, value):
        # Nothing is coerced: 1.9 is not 1 millicore, true is not 1 byte,
        # and a null task id is not the task "None".
        good = {"task_id": "t0", "image_name": "web", "image_tag": "1",
                "cpu_millicores": 100, "mem_bytes": 0}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(TraceCorrupt) as err:
            load_trace(path)
        assert err.value.line_number == 2
        assert key in str(err.value)

    def test_generate_from_trace_file(self, tmp_path):
        tasks = generate(WorkloadSpec(count=6, seed=9), two_image_catalog())
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        spec = WorkloadSpec(kind="trace_file", trace_path=str(path))
        assert generate(spec, two_image_catalog()) == tasks
