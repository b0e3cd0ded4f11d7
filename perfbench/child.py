"""One timed run of a workload in a fresh interpreter.

    python perfbench/child.py run|setup <workload> <seed> <trace 0|1> <expected.json> <workdir>
    python perfbench/child.py query <trace 0|1> <stats.json> <padem arguments...>

``run`` imports the layers, makes the inputs, checks that the caches are
cold, notes the CLOCK_MONOTONIC time at which it is ready (the end of
set-up), runs every op and prints one JSON result line; ``setup`` stops at
the ready point.  ``query`` is one ``padem`` CLI query, as the console
script runs it, after a check that the caches start cold; it leaves its
probe section, and when traced its spans and cache counts, in stats.json.
A probe (probe.py) samples the process's speed from its start; set-up and
the work are separate probe sections.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
from probe import Probe

# A short set-up, as on cli, may end before the probe has fired this often.
SETUP_SAMPLES = 10


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(name: str, seed: int, traced: bool, expected_path: str, workdir: str, setup_only: bool) -> dict:
    probe = Probe()
    probe.start()
    import workloads  # not at the top: a query should load no more than the console script

    expected = json.loads(Path(expected_path).read_text())
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    if name == "cli":
        ops, extras = workloads.prepare_cli(seed, expected, Path(workdir), traced)
    else:
        ops, extras = workloads.PREPARE[name](seed, expected)
    tracing.require_cold_caches()
    ready = _now()
    setup_probe = probe.take(at_least=SETUP_SAMPLES)
    if setup_only or name == "cli":
        # The CLI client only waits for its queries, which probe themselves.
        probe.stop()
    if setup_only:
        return {"ready": ready, "setup_probe": setup_probe}
    start = time.perf_counter()
    outcomes = []
    for kind, thunk in ops:
        if tracer is not None:
            thunk = tracer.span(f"op.{kind}", thunk)
        outcomes += thunk()
    elapsed = time.perf_counter() - start
    probe.stop()
    result = {
        "ready": ready,
        "setup_probe": setup_probe,
        "attempted": len(outcomes),
        "failures": [[label, reason] for label, reason in outcomes if reason is not None],
        "caches": tracing.cache_stats(),
    }
    if name != "cli":
        result["probe"] = probe.take()
        result["raw_wall_s"] = elapsed - result["probe"]["cost_s"]
        result["wall_s"] = result["raw_wall_s"] * result["probe"]["factor"]
    else:
        import resource

        # The client's own work between queries is not the program's.
        result["queries"] = extras["queries"]
        result["raw_wall_s"] = sum(raw for raw, _norm in extras["queries"])
        result["wall_s"] = sum(norm for _raw, norm in extras["queries"])
        result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if traced and name == "cli":
        result["caches"] = _sum_caches([snap["caches"] for snap in extras["trace"]])
        result["spans"] = tracing.merge([snap["spans"] for snap in extras["trace"]] + [tracer.snapshot()])
    elif traced:
        result["spans"] = tracer.snapshot()
    return result


def _sum_caches(per_process: list[dict]) -> dict:
    out: dict = {}
    for caches in per_process:
        for name, stats in caches.items():
            if stats is None:
                out.setdefault(name, None)
                continue
            acc = out.get(name) or {"hits": 0, "misses": 0, "size": 0}
            for key in acc:
                acc[key] += stats[key]
            out[name] = acc
    return out


def query(traced: bool, stats_path: str, argv: list[str]) -> int:
    probe = Probe()
    probe.start()
    tracer = tracing.Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        from padem.cli import main

        tracing.require_cold_caches()
        code = (main if tracer is None else tracer.span("cli.main", main))(argv)
    finally:
        probe.stop()
        stats = {"probe": probe.take()}
        if tracer is not None:
            stats.update(spans=tracer.snapshot(), caches=tracing.cache_stats())
        Path(stats_path).write_text(json.dumps(stats))
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "query":
        return query(argv[1] == "1", argv[2], argv[3:])
    cmd, name, seed, traced, expected_path, workdir = argv
    result = run(name, int(seed), traced == "1", expected_path, workdir, cmd == "setup")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
