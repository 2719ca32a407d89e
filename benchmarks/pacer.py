"""A reference load that measures how fast the timed CPU runs right now.

On a shared host the same work runs at speeds up to 2x apart, changing within
a fraction of a second, and the guest sees almost no steal time: a slowed
process is charged the extra CPU time as if it were its own. Raw times, CPU
or wall, then measure the neighbours more than the program.

The pacer is a separate process bound to the CPU the timed children run on.
It repeats one fixed unit of pure-Python work for the whole run and
publishes how many units it has done and how much CPU time they took. While
a child runs on the same CPU, the kernel interleaves the two every few
milliseconds, so both meet the same slowdowns. The benchmark reads the pacer
before and after each child and scales the child's CPU time by the pacer's
speed over that window:

    reference seconds = child CPU seconds * (pacer units / pacer CPU seconds)
                        / REFERENCE_UNITS_PER_S

That is the CPU time the child would need on a CPU running at the reference
speed. The pacer's work never changes, so a change in the program shows; a
slower or busier host mostly does not (see NOTES.md for how well it tracks).

    python3 pacer.py MAP_FILE PARENT_PID   (started by Pacer, not by hand)
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Units per CPU second of a quiet 2-vCPU Intel Xeon VM (the machine the
# bounds were set on). It only sets the scale of the reported seconds; do not
# change it between two measurements that are compared.
REFERENCE_UNITS_PER_S = 1000.0

_TABLE_ROWS = 50_000  # about 20 MB of small dicts, beyond the CPU caches
_RECORD = struct.Struct("<qdq")  # units, CPU seconds, units again


@dataclass
class _Node:
    name: str
    cpu: int
    layers: frozenset
    used: float = 0.0

    def score(self, wanted: frozenset, sizes: dict) -> float:
        shared = self.layers & wanted
        return sum(sizes[d] for d in shared) / (1 + self.used)


def _unit(table: list[dict], step: int) -> int:
    """One unit of work shaped like the program's: many different
    interpreter paths (classes, sets, dicts, sorting, formatting, JSON) over
    data scattered across a large table."""
    rows = len(table)
    picked = [table[(step * 7919 + k * 104729) % rows] for k in range(60)]
    sizes = {f"sha256:{i:04x}": 1 + (i * 37) % 500 for i in range(64)}
    digests = sorted(sizes)
    nodes = [_Node(f"node-{row['cpu']:02d}-{k}", row["cpu"],
                   frozenset(digests[(row["cpu"] + k) % 50:(row["cpu"] + k) % 50 + 8]))
             for k, row in enumerate(picked[:20])]
    for k in range(12):
        wanted = frozenset(digests[(step + 3 * k) % 56:(step + 3 * k) % 56 + 6])
        best = max(nodes, key=lambda node: (node.score(wanted, sizes), node.name))
        best.used += math.log1p(len(wanted))
    report = [{"node": node.name, "used": round(node.used, 3), "layers": sorted(node.layers)}
              for node in sorted(nodes, key=lambda node: -node.used)]
    for k, row in enumerate(picked[20:]):
        index = (step * 31 + k * 4099) % rows
        table[index] = {"id": row["id"], "cpu": (row["cpu"] + k) % 17,
                        "mem": row["mem"] + 1.0, "layers": [k, index]}
    text = json.dumps(report)
    return len(json.loads(text)) + len("%s/%d" % (text[:20], step))


def spawn_on(cpu: int, command: list[str], **kwargs) -> subprocess.Popen:
    """Start ``command`` bound to ``cpu`` from its first instruction: a child
    inherits the CPU set of the thread that forks it."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(command, **kwargs)
    finally:
        os.sched_setaffinity(0, own)


def _serve(path: str, parent: int) -> None:
    """The pacer process: units until the benchmark stops it or exits."""
    table = [{"id": f"node-{i}", "cpu": i % 17, "mem": float(i), "layers": [i, i + 1]}
             for i in range(_TABLE_ROWS)]
    with open(path, "r+b") as handle:
        shared = mmap.mmap(handle.fileno(), _RECORD.size)
    step = 0
    while os.getppid() == parent:
        _unit(table, step)
        step += 1
        shared[:] = _RECORD.pack(step, time.process_time(), step)


class Pacer:
    """The reference process, publishing its progress through a small file
    that both sides map; use as a context manager, which always stops it and
    waits for it. It also stops by itself if the benchmark dies."""

    def __init__(self, cpu: int, path: Path):
        self.cpu = cpu
        self._path = path
        self._process: subprocess.Popen | None = None
        self._shared: mmap.mmap | None = None

    def __enter__(self) -> "Pacer":
        self._path.write_bytes(bytes(_RECORD.size))
        with open(self._path, "rb") as handle:
            self._shared = mmap.mmap(handle.fileno(), _RECORD.size, access=mmap.ACCESS_READ)
        self._process = spawn_on(self.cpu, [sys.executable, __file__, str(self._path),
                                            str(os.getpid())])
        try:
            deadline = time.monotonic() + 60
            while self.read()[0] == 0:
                if self._process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the pacer did not start")
                time.sleep(0.01)
            # Let it run alone for a moment so the first window is not its start.
            time.sleep(0.2)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._process is not None:
            self._process.terminate()
            try:
                self._process.wait(10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        if self._shared is not None:
            self._shared.close()

    def read(self) -> tuple[int, float]:
        """(units done, pacer CPU seconds) so far."""
        while True:
            units, cpu_s, check = _RECORD.unpack(self._shared[:])
            if units == check:  # not caught halfway through a write
                return units, cpu_s

    @staticmethod
    def scale(before: tuple[int, float], after: tuple[int, float]) -> float:
        """Factor from CPU seconds measured between two reads to reference
        seconds: the pacer's speed over the window / the reference speed."""
        units = after[0] - before[0]
        spent = after[1] - before[1]
        if units < 1 or spent <= 0:
            raise RuntimeError("the pacer made no progress during a timed child")
        return units / spent / REFERENCE_UNITS_PER_S


if __name__ == "__main__":
    _serve(sys.argv[1], int(sys.argv[2]))
