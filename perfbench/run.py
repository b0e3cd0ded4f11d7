"""padem benchmark.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a padem checkout; the program is taken from src/.
Every timed run of a workload is a fresh interpreter with cold caches.
Another timed run starts only while it is expected to end within
``--seconds``, and there is always at least one.  Untraced, the end-to-end
metrics are medians over the timed runs; set-up is also timed in
SETUP_RUNS extra interpreters that stop when ready, half of them before
the timed runs and half after, so that they span the measured window.
With ``--trace 1`` one untraced and one traced run are made and the
per-layer metrics come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable report and a ``record:`` line holding the machine, the
host probes, every timed run and the span tree.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected.json"
WORKLOADS = tuple(workloads.PREPARE)
RUN_LIMIT_S = 170.0  # a run must end within 180 s
REF_LOOP_ITERATIONS = 1_000_000
START_SAMPLES = 5
SETUP_RUNS = 10

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"verify.{check}.pct": "%" for check in tracing.VERIFY_CHECKS}
    for module, qualname in tracing.LAYER_FUNCTIONS:
        units[f"{module}.{qualname}.calls"] = "count"
        units[f"{module}.{qualname}.self_pct"] = "%"
    for metric, _arg in tracing.MAX_DIM.values():
        units[metric] = "count"
    for _module, name in tracing.CACHES:
        for field in ("hits", "misses", "size"):
            units[f"cache.{name}.{field}"] = "count"
    units["cli.import_ms.p50"] = "ms"
    units["host.python_start_ms.p50"] = "ms"
    units["host.ref_loop_s"] = "s"
    units["trace.raw_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    pass


def _now() -> float:
    """CLOCK_MONOTONIC, which the child processes read too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing keeps set iteration, and so the traced call
    # counts, identical between runs.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PADEM_PRIME", None)  # the queries give every prime they need
    return env


def build() -> None:
    """Byte-compile the program and the benchmark, as an installed package
    would be, so that no timed run pays for it."""
    for path in (ROOT / "src" / "padem", HERE):
        if not compileall.compile_dir(str(path), quiet=1):
            raise BenchError(f"could not compile {path}")


# -- host probes -----------------------------------------------------------


def ref_loop_s() -> float:
    """Median of three runs of a fixed pure-Python loop; tracks host speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_ITERATIONS):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def python_start_ms(env) -> float:
    """Median spawn-to-exit time of a bare interpreter."""
    times = []
    for _ in range(START_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def import_ms(env) -> float:
    """Median time of a fresh ``import padem.cli`` (numpy included)."""
    code = "import time; t = time.perf_counter(); import padem.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(START_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        times.append(float(out) * 1000.0)
    return statistics.median(times)


# -- one timed run ---------------------------------------------------------


def timed_run(mode, args, traced, workdir, env, deadline) -> dict:
    """Run child.py in a fresh interpreter and return its result with
    setup_s (spawn to ready), span_s (spawn to exit) and maxrss_kb."""
    argv = [sys.executable, str(HERE / "child.py"), mode, args.workload, str(args.seed)]
    argv += ["1" if traced else "0", str(EXPECTED), str(workdir)]
    spawned = _now()
    # A session of its own, so a run that overstays is killed with every
    # process it started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    exited = _now()
    if timed_out.is_set():
        raise BenchError(f"{args.workload} run did not end within the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} run exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["raw_setup_s"] = result.pop("ready") - spawned - result["setup_probe"]["cost_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_probe"]["factor"]
    result["span_s"] = exited - spawned
    result["maxrss_kb"] = result.pop("children_maxrss_kb", usage.ru_maxrss)
    return result


# -- metrics and report ----------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(runs, setups) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median([r["setup_s"] for r in runs + setups]),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024.0,
    }


def per_layer(traced: dict, untraced: dict, host: dict) -> dict:
    spans = traced["spans"]
    names = tracing.per_name(spans)
    wall = traced["raw_wall_s"]
    metrics: dict[str, float] = {}
    for check in tracing.VERIFY_CHECKS:
        rec = names.get(f"verify.{check}")
        metrics[f"verify.{check}.pct"] = 100.0 * rec["total_s"] / wall if rec else 0.0
    for module, qualname in tracing.LAYER_FUNCTIONS:
        rec = names.get(f"{module}.{qualname}")
        metrics[f"{module}.{qualname}.calls"] = rec["calls"] if rec else 0
        metrics[f"{module}.{qualname}.self_pct"] = 100.0 * rec["self_s"] / wall if rec else 0.0
    for metric, _arg in tracing.MAX_DIM.values():
        metrics[metric] = spans["max_dims"].get(metric, 0)
    for name, stats in traced["caches"].items():
        for field in ("hits", "misses", "size"):
            metrics[f"cache.{name}.{field}"] = stats[field] if stats else 0
    metrics["cli.import_ms.p50"] = host["cli.import_ms.p50"]
    metrics["host.python_start_ms.p50"] = host["host.python_start_ms.p50"]
    metrics["host.ref_loop_s"] = host["host.ref_loop_s"]
    metrics["trace.raw_wall_s"] = wall
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(args, runs, setups, metrics, units, host, machine) -> list[str]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    lines = [
        f"padem benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"{len(runs)} timed runs, {len(setups)} set-up runs",
        "machine: {cores} cores, python {python}, numpy {numpy}; host.ref_loop_s {ref:.4f} s, "
        "host.python_start_ms.p50 {start:.1f} ms".format(
            ref=host["host.ref_loop_s"], start=host["host.python_start_ms.p50"], **machine
        ),
        f"  failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)",
    ]
    untraced = [r for r in runs if "spans" not in r]
    lines.append(f"  raw_wall_s {statistics.median(r['raw_wall_s'] for r in untraced):.6g} s (as measured)")
    raw_setups = [r["raw_setup_s"] for r in runs + setups]
    lines.append(f"  raw_setup_s {statistics.median(raw_setups):.6g} s (as measured)")
    if args.workload == "cli":
        cold = [raw * 1000.0 for r in untraced for raw, _norm in r["queries"]]
        lines.append(f"  cold_ms.p50 {statistics.median(cold):.1f} ms ({len(cold)} queries)")
        beyond = len(cold) - int(len(cold) * 0.9)
        lines.append(f"  cold_ms.p90 {percentile(cold, 90):.1f} ms ({beyond} beyond it)")
    for name, value in metrics.items():
        lines.append(f"  {name} {_fmt(value)} {units[name]}")
    traced = [r for r in runs if "spans" in r]
    if traced:
        lines += layer_seconds(traced[0])
    for r in runs:
        for label, reason in r["failures"][:5]:
            lines.append(f"  FAILED {label}: {reason}")
    return lines


def layer_seconds(traced: dict) -> list[str]:
    """The traced run's figures in absolute units."""
    names = tracing.per_name(traced["spans"])
    lines = ["  traced run, absolute:"]
    for check in tracing.VERIFY_CHECKS:
        rec = names.get(f"verify.{check}")
        lines.append(f"    verify.{check}.s " + (f"{rec['total_s']:.4f} s" if rec else "absent"))
    for module, qualname in tracing.LAYER_FUNCTIONS:
        key = f"{module}.{qualname}"
        rec = names.get(key)
        if rec is None:
            lines.append(f"    {key}: absent (0 calls)")
        else:
            lines.append(f"    {key}.calls {rec['calls']}, {key}.self_s {rec['self_s']:.4f} s")
    for name, stats in traced["caches"].items():
        if stats is None:
            lines.append(f"    cache.{name}: absent")
            continue
        base = stats["hits"] + stats["misses"]
        ratio = stats["hits"] / base if base else 0.0
        lines.append(f"    cache.{name}: hit ratio {ratio:.4f} of {base} lookups, size {stats['size']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="padem benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padem" / "__init__.py").is_file():
        print(f"no padem source under {ROOT / 'src'}; run from a padem checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return bench(args)
    codes = [bench(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS]
    return max(codes)


def bench(args) -> int:
    """Measure one workload and print its report and result line."""
    started = time.monotonic()
    env = child_env()
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build()
        machine = {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "seed": args.seed,
        }
        host = {"host.ref_loop_s": ref_loop_s(), "host.python_start_ms.p50": python_start_ms(env)}
        deadline = started + RUN_LIMIT_S

        def one(mode, traced=False):
            return timed_run(mode, args, traced, workdir, env, deadline)

        if args.trace:
            host["cli.import_ms.p50"] = import_ms(env)
            runs = [one("run"), one("run", traced=True)]
            setups = []
            units = per_layer_units()
            metrics = per_layer(runs[1], runs[0], host)
        else:
            setups = [one("setup") for _ in range(SETUP_RUNS // 2)]
            measure_start = time.monotonic()
            runs = [one("run")]
            while time.monotonic() - measure_start + max(r["span_s"] for r in runs) <= args.seconds:
                runs.append(one("run"))
            setups += [one("setup") for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
            units = END_TO_END
            metrics = end_to_end(runs, setups)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report(args, runs, setups, metrics, units, host, machine):
        print(line)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine,
        "host": host,
        "setup_runs": setups,
        "runs": runs,
    }
    print("record: " + json.dumps(record))
    failed = sum(len(r["failures"]) for r in runs)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
