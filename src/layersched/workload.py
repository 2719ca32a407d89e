"""Task trace generation and trace file IO.

Random traces draw an image (optionally weighted) and uniform CPU/memory
requests per task; everything flows from the seed, so the same spec always
yields the same trace. Trace files are JSON lines, one task per line.
"""

from __future__ import annotations

import json
import random
import sys
from bisect import bisect
from collections.abc import Iterator
from itertools import accumulate, islice
from pathlib import Path

from .errors import ScenarioError, TraceCorrupt, UnknownImage
from .model import ImageRef, LayerCatalog, TaskRequest, _finite, _Record
from .scoring import MB


class WorkloadSpec(_Record):
    """Parameters for a random trace, or a pointer to a fixed one.
    ``image_weights`` maps ``name:tag`` to a probability, finite and >= 0;
    ``cpu_range`` (millicores) and ``mem_range`` (bytes) are inclusive."""

    def __init__(self, kind: str = "random", count: int = 20,
                 image_weights: dict[str, float] | None = None,
                 cpu_range: tuple[int, int] = (100, 1000),
                 mem_range: tuple[int, int] = (64 * MB, 1024 * MB), seed: int = 0,
                 trace_path: str | None = None):
        self.kind = kind
        self.count = count
        self.image_weights = image_weights
        self.cpu_range = cpu_range
        self.mem_range = mem_range
        self.seed = seed
        self.trace_path = trace_path
        if kind not in ("random", "trace_file"):
            raise ValueError(f"unknown workload kind {kind!r}")
        if kind == "trace_file" and not trace_path:
            raise ValueError("trace_file workload needs trace_path")
        if not 0 <= count <= sys.maxsize:
            raise ValueError(f"count must be within 0..{sys.maxsize}")
        # What a draw (int bounds, no bool) or a task (CPU above 0, memory at
        # or above 0, both in the float range) would refuse.
        for name, (lo, hi), least in (("cpu_range", cpu_range, 1), ("mem_range", mem_range, 0)):
            if type(lo) is not int or type(hi) is not int:
                raise ValueError(f"{name} bounds must be integers")
            if lo > hi or lo < least:
                raise ValueError(f"{name} must satisfy {least} <= min <= max")
            if not _finite(hi):
                raise ValueError(f"{name} must be within the float range")
        if image_weights is not None:
            for key, weight in image_weights.items():
                # An image of negative weight is never drawn, though the
                # weights sum to 1; a NaN weight fails only inside the draw.
                if not (weight >= 0 and _finite(weight)):
                    raise ValueError(f"image weight of {key} must be finite and >= 0")
            total = sum(image_weights.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"image weights sum to {total}, expected 1")


def _image_population(
    spec: WorkloadSpec, catalog: LayerCatalog
) -> tuple[list[ImageRef], list[float]]:
    if spec.image_weights is not None:
        images, weights = [], []
        for key in sorted(spec.image_weights):
            ref = ImageRef.parse(key)
            if ref not in catalog.images:
                raise UnknownImage(f"weighted image not in catalog: {key}")
            images.append(ref)
            weights.append(spec.image_weights[key])
        return images, weights
    images = sorted(catalog.images, key=lambda ref: ref.key)
    if not images:
        raise UnknownImage("catalog holds no images to draw from")
    return images, [1.0] * len(images)


def stream(spec: WorkloadSpec, catalog: LayerCatalog) -> Iterator[TaskRequest]:
    """Unbounded seeded task stream; ``generate`` is a finite prefix of it.

    Per task the draw order is image, then CPU, then memory; that order is
    part of the determinism contract. The image is drawn by the operations
    of ``choices(weights=)``, whose cumulative weights, total and last index
    are computed once, not per draw, so the draws are the same.
    """
    images, weights = _image_population(spec, catalog)
    cum_weights = list(accumulate(weights))
    total, hi = cum_weights[-1] + 0.0, len(cum_weights) - 1
    rng = random.Random(spec.seed)
    draw, randint, cpu_range, mem_range = rng.random, rng.randint, spec.cpu_range, spec.mem_range
    counter = 0
    while True:
        counter += 1
        image = images[bisect(cum_weights, draw() * total, 0, hi)]
        cpu = randint(*cpu_range)
        mem = randint(*mem_range)
        yield TaskRequest(
            task_id=f"task-{counter:04d}",
            image=image,
            cpu_request=cpu,
            mem_request=mem,
        )


def generate(spec: WorkloadSpec, catalog: LayerCatalog) -> list[TaskRequest]:
    """Produce the trace for ``spec``: ``count`` seeded tasks, or the file,
    every image of which must be in ``catalog``."""
    if spec.kind == "trace_file":
        tasks = load_trace(spec.trace_path)
        for task in tasks:
            if task.image not in catalog.images:
                raise ScenarioError("workload.trace_file",
                                    f"image {task.image.key!r} not in catalog")
        return tasks
    return list(islice(stream(spec, catalog), spec.count))


# A trace line's keys and the one type each value must have in the JSON.
_TRACE_FIELDS = (("task_id", str), ("image_name", str), ("image_tag", str),
                 ("cpu_millicores", int), ("mem_bytes", int))


def save_trace(tasks: list[TaskRequest], path: str | Path) -> None:
    keys = [key for key, _ in _TRACE_FIELDS]
    lines = []
    for task in tasks:  # in _TRACE_FIELDS order, as load_trace unpacks them
        values = (task.task_id, task.image.name, task.image.tag, task.cpu_request,
                  task.mem_request)
        lines.append(json.dumps(dict(zip(keys, values)), sort_keys=True) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_trace(path: str | Path) -> list[TaskRequest]:
    """The tasks of a trace file, the file a workload's ``trace_file`` names:
    its strings must be JSON strings and its sizes JSON integers."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("workload.trace_file", f"cannot read trace: {exc}") from None
    tasks = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            values = [record[key] for key, _ in _TRACE_FIELDS]
            for (key, kind), value in zip(_TRACE_FIELDS, values):
                if type(value) is not kind:  # exact, so a bool is no integer
                    wanted = "string" if kind is str else "integer"
                    raise TypeError(f"{key} must be a JSON {wanted}, not {value!r}")
            task_id, name, tag, cpu, mem = values
            tasks.append(TaskRequest(task_id, ImageRef(name, tag), cpu, mem))
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceCorrupt(number, f"line {number}: {exc}") from exc
    return tasks
