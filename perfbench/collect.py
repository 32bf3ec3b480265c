"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --label seed --append

Each run is its own process, one after another.  For every workload and
metric the summary gives the median, the quartiles and the spread (the
distance between the quartiles over the median).  ``--append`` adds the
summary as a point to ``perfbench/trajectory.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def run_one(workload, seed, seconds, trace):
    """(info, result, elapsed seconds) of one run in its own process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    return (json.loads(lines[-2]), json.loads(lines[-1]),
            time.perf_counter() - start)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)

    point = {"label": args.label, "trace": args.trace,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        values, env, notes = {}, None, []
        for seed in args.seeds:
            info, result, elapsed = run_one(
                workload, seed, spec["run_seconds"], args.trace)
            env = info["env"]
            if "largest_step_child" in info:
                notes.append({k: info[k] for k in (
                    "largest_step_child", "step_self_share",
                    "step_children_share")})
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            metrics["env.calib_s"] = info["env.calib_s"]
            # the whole run, set-up and start-up included: the time budget
            metrics["run.elapsed_s"] = elapsed
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
            print(workload, seed, json.dumps(metrics)[:300],
                  json.dumps(info["sequences"]), flush=True)
        point["env"] = env
        point["workloads"][workload] = {
            "seeds": args.seeds,
            "metrics": {k: summarize(v) for k, v in values.items()},
        }
        if notes:
            point["workloads"][workload]["self_check"] = notes
    print(json.dumps(point, indent=1))
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
