"""Benchmark of the twobranch command line, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 45 --trace 0

The workload's inputs are generated from ``--seed`` and written to files
(set-up, timed at least three times; the median is ``setup_s``).  Then its
``twobranch`` command sequence runs in this process through
``twobranch.cli.main``, again and again while one more sequence fits in
``--seconds`` of measured time (at least once), and each command's
outputs are checked after it.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
sequences and prints the per-layer metrics taken from the spans.

The last line of standard output is the result: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment, sample counts and check details.  The exit
code is 1 when an output check failed, 2 when the program cannot be
found and 143 after SIGTERM; the run's files are removed in every case.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-up runs at least 3 times, and more while it has taken under 2 s
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_SECONDS = 2.0
WORKLOAD_NAMES = ("train_paper", "eval_paper")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ops_ok_share": "share"}
CALIBRATION_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads():
    """Give BLAS one thread; call before numpy.  Returns the CPUs usable.

    On a shared host a product split over threads waits for the slowest
    of them, so one descheduled CPU stalls it; one thread leaves the
    workloads about 5% slower and their times steadier.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def calibrate():
    """Seconds of a fixed pure-Python loop: the machine's speed this run."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def flush(directory):
    """Write the directory's dirty pages to disk, so that the kernel does
    not write them back while the next timed region runs."""
    for entry in os.scandir(directory):
        if entry.is_file():
            fd = os.open(entry.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(nproc):
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except Exception:  # older numpy prints instead of returning a dict
        pass
    return {"nproc": nproc, "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine()}


def invoke(argv):
    """Exit code of one twobranch command run in this process."""
    from twobranch import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def run_sequence(plan, tracer=None):
    """Run the plan's commands once; return (wall seconds, outcomes).

    With a tracer, the layers' spans are recorded inside one span per
    command; the outputs are checked afterwards, outside the timing.
    """
    import layers
    import workloads
    outcomes = []
    start = time.perf_counter()
    with tracer.instrument(layers.HOOKS) if tracer else nullcontext():
        for command in plan.commands:
            t0 = time.perf_counter()
            with tracer.span("cli." + command.name) if tracer \
                    else nullcontext():
                code = invoke(command.argv)
            outcomes.append([command, time.perf_counter() - t0, code])
    wall = time.perf_counter() - start
    for outcome in outcomes:
        command, _, code = outcome
        try:
            checked = command.check()
        except Exception as exc:  # an output the check cannot parse is wrong
            checked = workloads.Checked(
                problems=[f"{command.name}: {type(exc).__name__}: {exc}"])
        if code != 0:
            checked.problems.insert(0, f"{command.name} exited {code}")
        outcome.append(checked)
    return wall, outcomes


def measure(args, nproc, work):
    import layers
    import workloads
    from tracing import Tracer

    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or (sum(setup_times) < SETUP_SECONDS
               and len(setup_times) < SETUP_MAX_REPEATS)):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        plan = workloads.WORKLOADS[args.workload](str(work), args.seed)
        setup_times.append(time.perf_counter() - start)
        flush(work)
    calib_s = calibrate()

    untraced, traces = [], []
    attempted = failed = 0
    problems = []
    while True:
        traced = bool(args.trace) and len(untraced) > len(traces)
        tracer = Tracer() if traced else None
        wall, outcomes = run_sequence(plan, tracer)
        flush(work)
        per_command = {}
        pairs = train_s = 0.0
        for command, seconds, code, checked in outcomes:
            per_command[command.name] = (per_command.get(command.name, 0.0)
                                         + seconds)
            attempted += 1 + checked.steps
            failed += checked.failed_steps + (1 if checked.problems else 0)
            problems += checked.problems
            if checked.pairs:
                pairs += checked.pairs
                train_s += seconds
        record = {"wall_s": wall, "commands": per_command,
                  "pairs_per_s": pairs / train_s if train_s else None}
        if traced:
            record["spans"] = tracer.spans
            record["absent"] = tracer.absent
            traces.append(record)
        else:
            untraced.append(record)
        if problems:
            break
        # run another sequence only while it fits in the measured time
        walls = [r["wall_s"] for r in untraced + traces]
        fits = sum(walls) + statistics.mean(walls) <= args.seconds
        if not fits and (not args.trace or traces):
            break

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(nproc), "env.calib_s": calib_s,
        "setup_s": setup_times,
        "sequences": {"untraced": [r["wall_s"] for r in untraced],
                      "traced": [r["wall_s"] for r in traces]},
        "commands_s": [r["commands"] for r in untraced],
        "problems": problems[:20],
    }
    recall = [c.check for c in plan.commands
              if isinstance(c.check, workloads.RecallCheck)]
    if recall:
        info["recall_equals_full_sort"] = recall[0].exact
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        metrics, notes = layers.summarize([r["spans"] for r in traces],
                                          plan.dims)
        for name in layers.COMMANDS:
            metrics[f"cli.{name}.wall_s"] = statistics.median(
                r["commands"].get(name, 0.0) for r in untraced)
        metrics["trace.overhead_share"] = (
            statistics.median(r["wall_s"] for r in traces)
            / statistics.median(walls) - 1.0)
        metrics["env.calib_s"] = calib_s
        units = dict(layers.PER_LAYER)
        info.update(notes)
        info["absent_spans"] = traces[0]["absent"] if traces else []
    else:
        rates = [r["pairs_per_s"] for r in untraced if r["pairs_per_s"]]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb(),
            "ops_ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
        if rates:
            info["train_pairs_per_s"] = rates
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, info


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the program's own error handling."""


def _terminate(signum, frame):
    raise Terminated()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    nproc = pin_blas_threads()
    if not (SRC / "twobranch" / "__init__.py").is_file():
        print(f"twobranch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import logging
    work = WORK / f"{args.workload}-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    log_path = WORK / f"{args.workload}-{os.getpid()}.log"
    # cli.main's own basicConfig then leaves this file handler in place
    logging.basicConfig(filename=str(log_path), level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        result, info = measure(args, nproc, work)
    except Terminated:  # still remove the run's files, below
        return 128 + signal.SIGTERM
    finally:
        logging.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        log_path.unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
