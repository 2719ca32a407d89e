"""Trace generation: seeding, distributions, file round-trips."""

import json

import pytest

from layersched.errors import TraceCorrupt, UnknownImage
from layersched.model import ImageRef, LayerCatalog
from layersched.scoring import MB
from layersched.workload import WorkloadSpec, generate, load_trace, save_trace


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

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(image_weights={"web:1": 0.7, "db:1": 0.7})

    def test_task_ids_are_sequential(self):
        tasks = generate(WorkloadSpec(count=3), two_image_catalog())
        assert [t.task_id for t in tasks] == ["task-0001", "task-0002", "task-0003"]


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

    def test_generate_from_trace_file(self, tmp_path):
        tasks = generate(WorkloadSpec(count=6, seed=9), two_image_catalog())
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        spec = WorkloadSpec(kind="trace_file", trace_path=str(path))
        assert generate(spec, two_image_catalog()) == tasks
