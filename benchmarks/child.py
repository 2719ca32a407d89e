"""One layersched CLI invocation, measured from inside its own process.

Usage: python child.py RESULT_JSON TRACE_FILE|- [CLI ARGS...]

Writes to RESULT_JSON the CPU time spent up to the end of ``import
layersched.cli`` (interpreter start plus import: the set-up), the CPU and
wall time of ``cli.main``, its exit code and the process's peak RSS. With no
CLI arguments it only imports, which is how set-up is sampled. With a
TRACE_FILE the layer boundaries are wrapped (see tracer.py) and the spans are
written there after ``main`` returns.
"""

import sys
import time

from layersched import cli

SETUP_CPU_S = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    result_path, trace_path, *argv = sys.argv[1:]
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.install()
    code = 0
    started, started_cpu = time.perf_counter(), time.process_time()
    if argv:
        code = cli.main(argv)
    cpu = time.process_time() - started_cpu
    wall = time.perf_counter() - started
    if recorder is not None:
        recorder.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "setup_cpu_s": SETUP_CPU_S,
            "cpu_s": cpu,
            "wall_s": wall,
            "exit_code": code,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
