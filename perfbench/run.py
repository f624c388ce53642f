"""paretonbd benchmark: pipeline wall time and online scoring latency.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_cdnow --seed 1 \\
        --seconds 10 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; workloads.py says what each workload runs.  The library is
imported from ./src, single-threaded.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 the same run is repeated under per-layer tracing hooks and the
object carries the per-layer metrics instead.  The line before it is a run
record: versions, thread settings, the seed, the source line count, hooks
or metrics found missing, and any failed check.  Run outputs go to
.perfbench_work/, which also keeps artifact digests (to check that reruns
of a seed are byte-identical) and the last trace of each workload and seed.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
os.environ["PARETONBD_THREADS"] = "1"
THREAD_VARS = ("PARETONBD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
for _var in THREAD_VARS[1:]:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def source_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "paretonbd")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def parse_args(workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "paretonbd", "__init__.py")):
        sys.exit(f"error: no paretonbd sources under {SRC}; run the "
                 "benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import paretonbd
    import workloads

    if not os.path.abspath(paretonbd.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported paretonbd from {paretonbd.__file__}, "
                 f"not from {SRC}")

    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.layer if args.trace else run.e2e
    metrics, missing = {}, []
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing and not args.trace:
        run.problem(f"end-to-end metrics not measured: {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": source_lines(),
        "missing_hooks": run.missing_hooks,
        "missing_metrics": missing,
        "problems": run.problems,
        **run.record,
    }
    print(json.dumps({"run_record": record}, default=float))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, default=float))


if __name__ == "__main__":
    main()
