"""Spans and counters around layersched's layer boundaries, from outside.

``install()`` wraps the public functions of each module on the name the
caller looks up (``scheduler.filter_node``, ``cli.run``, both ``layers_of``
bindings, ...), because patching only the defining module misses calls made
through an imported name. Nothing under ``src/`` changes.

A span is (id, name, start, end, parent, thread). Each thread keeps its own
parent stack and span buffer, since ``compare`` runs its legs on a thread
pool; a pool thread's outermost span takes the main thread's open span as its
parent. Spans stay in memory until ``dump`` writes them out, and ``analyse``
computes totals and self times from the written file.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from array import array

FIELDS = 6  # id, name code, start ns, end ns, parent id (-1 for none), thread


class _ThreadLog:
    __slots__ = ("index", "stack", "spans", "counts")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.spans = array("q")
        self.counts: dict[str, int] = {}


class Recorder:
    """In-memory span and counter store shared by every installed wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._main = self._log()

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``on_result(counts, args, result)`` may add to the calling thread's
        counters after the call returns.
        """
        code = self._code(name)
        ids, clock, main, new_log = self._ids, time.perf_counter_ns, self._main, self._log
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main.stack[-1] if log is not main else -1
                except IndexError:
                    parent = -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.spans.extend((sid, code, start, end, parent, log.index))
            if on_result is not None:
                on_result(log.counts, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap ``fn`` so every call adds one to the counter ``key``."""
        local, new_log = self._local, self._log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                counts = local.log.counts
            except AttributeError:
                counts = new_log().counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        """Write names and counters to ``path`` and the spans beside it."""
        counts: dict[str, int] = {}
        with open(path + ".spans", "wb") as handle:
            for log in self._logs:
                log.spans.tofile(handle)
                for key, value in log.counts.items():
                    counts[key] = counts.get(key, 0) + value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "counts": counts}, handle, sort_keys=True)


def _bump(counts: dict, key: str, amount: int = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _filter_verdict(counts, args, verdict):
    _bump(counts, "scheduler.feasible" if verdict.feasible
          else f"scheduler.rejects.{verdict.rejected_by}")


def _report_bytes(counts, args, result):
    _bump(counts, "simulator.report_bytes", os.path.getsize(args[1]))


def _refresh_result(counts, args, snapshot):
    _bump(counts, "registry.warnings", len(snapshot.warnings))
    _bump(counts, "registry.images_cached", len(snapshot.lists))


def install() -> Recorder:
    """Wrap every layer boundary of an already imported ``layersched``."""
    from layersched import cli, model, registry, scheduler, scoring, simulator

    rec = Recorder()

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, rec.span(name, getattr(owner, attr), on_result))

    patch(scheduler, "schedule", "scheduler.schedule")
    patch(scheduler, "filter_node", "scheduler.filter", _filter_verdict)
    patch(scheduler, "score_node", "scheduler.score")
    patch(scheduler, "commit_placement", "model.commit")
    patch(scheduler, "layer_score", "scoring.layer_score")
    patch(scheduler, "local_layer_size", "scoring.local_layer_size")
    patch(scheduler, "baseline_score", "scoring.baseline")
    patch(simulator, "generate", "workload.generate")
    patch(simulator, "fingerprint", "simulator.fingerprint")
    patch(cli, "run", "simulator.run")
    patch(cli, "parse_scenario_file", "scenario.parse")
    patch(cli, "resolve_catalog", "scenario.resolve_catalog")
    patch(cli, "build_scenario", "scenario.build")
    patch(cli, "write_report_json", "simulator.write_json", _report_bytes)
    patch(cli, "write_steps_csv", "simulator.write_csv", _report_bytes)
    patch(cli, "refresh_cache", "registry.refresh", _refresh_result)
    patch(registry, "save_cache", "registry.save_cache")
    patch(registry.RegistryClient, "fetch_catalog", "registry.fetch_catalog")
    patch(registry.RegistryClient, "fetch_tags", "registry.fetch_tags")
    patch(registry.RegistryClient, "fetch_image_metadata", "registry.manifest")
    # Leaf helpers called hundreds of thousands of times: counted, not spanned.
    model.layers_of = rec.counter("model.layers_of_calls", model.layers_of)
    scoring.layers_of = rec.counter("model.layers_of_calls", scoring.layers_of)
    model.NodeState.stored_layer_bytes = rec.counter(
        "model.stored_layer_bytes_calls", model.NodeState.stored_layer_bytes)
    cli.main = rec.span("cli.main", cli.main)
    return rec


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def analyse(path: str, keep_durations: tuple[str, ...] = ()) -> dict:
    """Totals, self times, call counts and (for ``keep_durations``) every
    duration per span name, from a file written by :meth:`Recorder.dump`.

    Self time is a span's duration minus the part its children cover. Within
    one thread children run one after another, so their durations add; a
    pool thread's spans may overlap each other under their main-thread
    parent, so those are merged as intervals.
    """
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    data = array("q")
    with open(path + ".spans", "rb") as handle:
        data.frombytes(handle.read())
    ids, codes, starts, ends, parents, threads = (data[i::FIELDS] for i in range(FIELDS))
    del data
    count = len(ids)
    thread_of = array("q", bytes(8 * count))
    for sid, thread in zip(ids, threads):
        thread_of[sid] = thread
    covered = array("q", bytes(8 * count))
    cross: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent, thread in zip(starts, ends, parents, threads):
        if parent < 0:
            continue
        if thread_of[parent] == thread:
            covered[parent] += end - start
        else:
            cross.setdefault(parent, []).append((start, end))

    names = meta["names"]
    total = [0] * len(names)
    own = [0] * len(names)
    calls = [0] * len(names)
    kept = {names.index(n): [] for n in keep_durations if n in names}
    for sid, code, start, end in zip(ids, codes, starts, ends):
        duration = end - start
        inner = covered[sid]
        if sid in cross:
            inner += _union_ns(cross[sid], start, end)
        total[code] += duration
        own[code] += duration - inner
        calls[code] += 1
        if code in kept:
            kept[code].append(duration)
    return {
        "counts": meta["counts"],
        "spans": {name: {"total_ns": total[i], "self_ns": own[i], "calls": calls[i],
                         "durations_ns": kept.get(i, [])}
                  for i, name in enumerate(names)},
    }
