"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads diff,merge] [--trace] [--write]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints, per workload and end-to-end metric, the median and the spread
(distance between the first and third quartile as a share of the median).
``--trace`` also makes one traced run per workload on the first seed and
checks that the count metrics and output digests repeat exactly on a second
traced run.  ``--write`` stores everything in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    digest = next(line.split("=", 1)[1] for line in lines if line.startswith("# outputs sha256="))
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}

    for workload in workloads:
        runs = []
        for seed in seeds:
            result, digest = run(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "digest": digest, **result})
            print(f"{workload} seed={seed} attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                  + f" digest={digest}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            entry["metrics"][name] = {"median": statistics.median(values), "spread": s, "bound": bound,
                                      "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if name == "setup_s" or s < bound / 3 else "  <-- spread above a third of the bound"
            print(f"  {workload} {name}: median {statistics.median(values):.6g} spread {s:.3f} bound {bound}{flag}")
        if args.trace:
            first, digest1 = run(workload, seeds[0], spec["run_seconds"], 1)
            second, digest2 = run(workload, seeds[0], spec["run_seconds"], 1)
            counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")}
            again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in ("count", "bytes")}
            differ = sorted(k for k in counts if counts[k] != again[k])
            print(f"  {workload} traced: counts repeat: {not differ} {differ}; digests repeat: {digest1 == digest2}")
            entry["traced"] = {"seed": seeds[0], "digest": digest1, "counts_repeat": not differ,
                               "digests_repeat": digest1 == digest2, "metrics": first["metrics"]}
        summary["workloads"][workload] = entry

    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
