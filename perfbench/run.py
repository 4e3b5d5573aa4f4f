"""diffmerge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload diff --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed, runs whole passes over them for
about ``--seconds`` seconds, checks every output, and prints each metric
with its unit, then one JSON line (the last line of stdout) with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, from WORKERS processes run one after the other;
``--trace 1`` runs in one process, adds one traced pass, and one pass under
tracemalloc over a few large operations, and reports the per-layer metrics
instead.  ``--smoke`` shrinks every input so that a run takes seconds.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import WORKLOADS, OpInfo  # noqa: E402

# An untraced run is split over WORKERS fresh processes, one after the
# other, and pools their timings.  Timings in one process agree with each
# other more than with another process's (history op_p90_ms read up to 25 %
# apart between runs of one seed), so one process would give the whole run
# that process's luck.
WORKERS = 3
REFERENCE_INTERVAL_S = 0.1  # least wall time between two reference-task samples
MIN_PASSES = 3  # in all, so that even the largest operations have three samples
IMPORT_PROBES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("big_op_ms", "ms"),
    ("peak_mib", "MiB"),
    ("ok_ratio", "ratio"),
]


def import_package() -> SimpleNamespace:
    if not (SRC / "diffmerge" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC}/diffmerge; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    names = ("core", "engine", "myers", "histogram", "patience", "merge3", "graph", "oracle", "cli")
    mods = SimpleNamespace(**{n: importlib.import_module(f"diffmerge.{n}") for n in names})
    if Path(mods.cli.__file__).resolve().parent != SRC / "diffmerge":
        print(f"perfbench: imported diffmerge from {mods.cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return mods


def subprocess_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_import(repeats: int) -> list[float]:
    """Cumulative import time of diffmerge.cli in ms, from -X importtime."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diffmerge.cli"],
            cwd=ROOT, env=subprocess_env(), capture_output=True, timeout=60, check=True,
        )
        for line in proc.stderr.decode().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "diffmerge.cli":
                out.append(int(fields[1]) / 1000)
    return out


def run_passes(workload, env, seconds: float, smoke: bool, min_passes: int) -> list:
    """Passes until ``seconds`` are used up, stopping when another pass would
    end further past that than the run now falls short of it."""
    passes = []
    started = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        passes.append(workload.run_pass(env))
        if smoke:
            break
        now = perf_counter()
        if len(passes) >= min_passes and now + (now - t0) / 2 - started >= seconds:
            break
    return passes


def totals(passes) -> tuple[int, int]:
    return sum(p.attempted for p in passes), sum(p.failed for p in passes)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def summarise(op_s: dict, info: dict) -> dict[str, float]:
    """Latency, throughput and big-operation metrics from one time (in
    seconds) per operation key."""
    latencies = [dt for key, dt in op_s.items() if info[key].latency]
    worked = [(info[key].work, dt) for key, dt in op_s.items() if info[key].work]
    return {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
        "throughput_per_s": sum(w for w, _ in worked) / sum(dt for _, dt in worked),
        "big_op_ms": statistics.fmean(dt for key, dt in op_s.items() if info[key].big) * 1e3,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    t0 = perf_counter()
    mods = import_package()
    import_s = perf_counter() - t0

    if not (args.trace or args.worker):
        return run_workers(args)
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, mods, import_s, scratch, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, mods, import_s: float, scratch: Path, workdir: Path) -> int:
    # One set-up per process, in a directory of its own: rewriting files
    # that an earlier set-up wrote makes the file system write them back at
    # once, which added about 0.3 s, and most of the noise, to a merge set-up.
    t0 = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    setup_s = import_s + perf_counter() - t0
    input_digests = {workload.inputs_digest()}
    # The inputs live for the whole run; keep the collector from walking
    # them on every full collection, which a one-shot CLI process never does.
    gc.collect()
    gc.freeze()

    calibrator = Calibrator(REFERENCE_INTERVAL_S)
    env = SimpleNamespace(cli=mods.cli, graph=mods.graph, oracle=mods.oracle,
                          on_merge=lambda *a: None, between=calibrator.between)
    passes = run_passes(workload, env, args.seconds, args.smoke, 1 if args.worker else MIN_PASSES)
    env.between = lambda: None
    scale = calibrator.scale()
    reference = (f"reference task: median {statistics.median(calibrator.samples) * 1e3:.3f} ms "
                 f"of {len(calibrator.samples)} samples, scale {scale:.4f}")
    if args.worker:
        # everything the parent needs, times already scaled (see calibrate.py)
        attempted, failed = totals(passes)
        print(json.dumps({
            "setup_s": setup_s * scale,
            "info": {str(key): [op.latency, op.work, op.big] for key, op in workload.info.items()},
            "times": [[str(key), dt * scale] for p in passes for key, dt in p.times],
            "passes": len(passes), "attempted": attempted, "failed": failed,
            "failures": [f for p in passes for f in p.failures],
            "duplicated": sum(p.duplicated for p in passes),
            "inputs": sorted(input_digests), "outputs": [p.digest.hexdigest() for p in passes],
            "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "reference": reference,
        }))
        return 0
    notes = [f"{reference} (see calibrate.py)"]
    base_s = statistics.median(p.timed_s for p in passes)
    trace = tracing.Tracer()

    def on_merge(g, a, b, result):
        trace.counts["graph.merge_calls"] += result.stats.merge_calls
        trace.counts["graph.lca_size"] += len(mods.graph.lowest_common_ancestors(g, a, b))

    env.on_merge = on_merge
    tracing.install(trace, mods)
    try:
        gc.collect()
        traced = workload.run_pass(env)
    finally:
        trace.uninstall()
    env.on_merge = lambda *a: None
    gc.collect()
    tracemalloc.start()
    try:
        mem = workload.run_pass(env, workload.memory_keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace_file = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
    trace.write(trace_file)
    values = tracing.layer_values(trace)
    values["trace.overhead_ratio"] = traced.timed_s / base_s
    values["trace.tracemalloc_peak_mib"] = peak / 2**20
    values["cli.import_ms"] = statistics.median(time_import(1 if args.smoke else IMPORT_PROBES))
    metrics = {
        name: {"value": values[name] * (scale if unit == "ms" else 1), "unit": unit}
        for name, unit in tracing.LAYER_METRICS
    }
    notes.append(f"spans written to {trace_file.relative_to(ROOT)} ({len(trace.spans)} spans)")
    passes.append(traced)
    duplicated = sum(p.duplicated for p in passes)
    attempted, failed = totals(passes + [mem])
    report(args, metrics, notes, len(passes), attempted, failed, duplicated, input_digests,
           [p.digest.hexdigest() for p in passes],  # mem runs only some operations: its digest differs
           [f for p in passes + [mem] for f in p.failures])
    return 0


def run_workers(args) -> int:
    """The untraced run: WORKERS processes one after the other, pooled."""
    runs = []
    for _ in range(WORKERS):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / WORKERS), "--trace", "0", "--worker"]
        proc = subprocess.run(cmd + ["--smoke"] * args.smoke, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode:
            print(f"perfbench: worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return proc.returncode
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    info = {key: OpInfo(*fields) for key, fields in runs[0]["info"].items()}
    per_op = defaultdict(list)
    for run in runs:
        for key, dt in run["times"]:
            per_op[key].append(dt)
    values = summarise({key: statistics.median(dts) for key, dts in per_op.items()}, info)
    setup_times = [run["setup_s"] for run in runs]
    values["setup_s"] = statistics.median(setup_times)
    values["peak_mib"] = max(run["peak_mib"] for run in runs)
    attempted, failed = (sum(run[k] for run in runs) for k in ("attempted", "failed"))
    values["ok_ratio"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    kinds = {name: sum(1 for key in per_op if getattr(info[key], attr))
             for name, attr in (("op", "latency"), ("throughput", "work"), ("big_op", "big"))}
    timings = sorted(len(dts) for dts in per_op.values())
    notes = [f"process {i + 1}: {run['reference']}, {run['passes']} passes" for i, run in enumerate(runs)]
    notes.append("samples: " + " ".join(f"{name}={n}" for name, n in kinds.items())
                 + f" operations, each the median of {timings[0]}-{timings[-1]} timings; setup={len(setup_times)}")
    report(args, metrics, notes, sum(run["passes"] for run in runs), attempted, failed,
           sum(run["duplicated"] for run in runs), {d for run in runs for d in run["inputs"]},
           [d for run in runs for d in run["outputs"]], [f for run in runs for f in run["failures"]])
    return 0


def report(args, metrics, notes, passes, attempted, failed, duplicated, input_digests, output_digests, failures):
    """Print every metric with its unit, then the result line."""
    if duplicated:
        notes.append(f"clean merges that kept a shared addition twice (criterion 7): {duplicated}")
    outputs = set(output_digests)
    correct = failed == 0 and len(outputs) == 1 and len(input_digests) == 1
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} attempted={attempted} failed={failed}")
    for note in notes:
        print(f"# {note}")
    print(f"# inputs sha256={' '.join(sorted(input_digests))}")
    print(f"# outputs sha256={' '.join(sorted(outputs))}")
    for failure in dict.fromkeys(failures):
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
