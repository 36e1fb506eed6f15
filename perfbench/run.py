"""Benchmark the voxalign CLI pipelines end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

One process drives ``voxalign.cli.main(argv)`` in process, with BLAS and
OpenMP pinned to one thread. Set-up imports the package and runs
``gen-data`` plus a reload five times; ``setup_s`` is the user-mode CPU
time of the import plus the median of the five (README.md says why not
wall time). Then whole rounds of the
workload's commands run until ``--seconds`` have passed. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` a
separate traced run carries the per-layer metrics (the end-to-end figures
of the traced run go on the line before it, for the tracing overhead).
"""

import os

# Pin the thread pools before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDS = ROOT / ".perfbench_out"
SETUP_REPEATS = 5



def metric_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_sha():
    """HEAD of the checkout's git metadata, read without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(workload, runner, import_s, setup_times) -> dict:
    """Medians over the run's repetitions; quality figures come from the first train."""
    times = {k: _median(v) for k, v in runner.times.items()}
    train_s = times.get("train")
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "train_samples_per_s": workload.samples_per_train / train_s if train_s else None,
        "eval_s": times.get("eval"),
        "backproject_s": times.get("backproject"),
        "rsa_raw_s": times.get("rsa_raw"),
        "rsa_ridge_s": times.get("rsa_ridge"),
        "cka_heatmap_s": times.get("cka_heatmap"),
        "gradcheck_s": times.get("gradcheck"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "two_way_image_pct": runner.quality.get("two_way_image"),
        "pixcorr": runner.quality.get("pixcorr"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_units("end_to_end").items()}


def layer_values(tracer, setup_spans, rounds) -> dict:
    """One set-up plus the mean round, from the traced run's spans.

    Keys starting with ``_`` are not metrics: the time of ``training.train``
    and of its direct children by layer, kept in the run record.
    """
    from spans import reduce_spans

    setup = reduce_spans(tracer, 0, setup_spans)
    per_round = reduce_spans(tracer, setup_spans, len(tracer.names))
    values = {k: setup.get(k, 0) + per_round.get(k, 0) / rounds for k in set(setup) | set(per_round)}
    covered, total = per_round.get("_train_covered_s", 0.0), per_round.get("_train_s", 0.0)
    values["training.coverage_pct"] = 100.0 * covered / total if total else 0.0
    return values


def per_layer(values) -> dict:
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in metric_units("per_layer").items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "voxalign" / "cli.py").is_file():
        print(f"error: no voxalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    # The import is timed before workloads.py, which imports numpy, is loaded.
    start, user = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_utime
    import voxalign.cli
    import_wall_s = time.perf_counter() - start
    import_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime - user

    import workloads
    from spans import Tracer
    from voxalign.lasso import lasso_fit

    import checks

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    runner = workloads.Runner(voxalign.cli.main, tracer)
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    if tracer is not None:
        tracer.install()
    try:
        setup_times, setup_wall = [], []
        for index in range(1 if tracer else SETUP_REPEATS):
            data_dir, wall, user = workloads.set_up(runner, workload, args.seed, work, index)
            setup_wall.append(wall)
            setup_times.append(user)
        data = runner.check(checks.check_dataset, data_dir, workload.synth)
        setup_spans = len(tracer.names) if tracer else 0

        rounds = 0
        measure_start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - measure_start < args.seconds:
            workloads.run_round(runner, workload, args.seed, data_dir, data, work / f"round-{rounds}", lasso_fit)
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for message in runner.failures:
        print(f"operation failed: {message}", file=sys.stderr)
    for message in runner.errors:
        print(f"check failed: {message}", file=sys.stderr)
    e2e = end_to_end(workload, runner, import_s, setup_times)
    if tracer is not None:
        print("# traced end-to-end " + json.dumps(e2e))
        layers = layer_values(tracer, setup_spans, rounds)
        metrics = per_layer(layers)
    else:
        layers = None
        metrics = e2e
    env = environment()
    print("# environment " + json.dumps(env))
    result = {
        "correct": not runner.errors and None not in [m["value"] for m in metrics.values()],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    RECORDS.mkdir(exist_ok=True)
    record = RECORDS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "rounds": rounds, "import_s": import_s,
                                  "setup_times": setup_times, "import_wall_s": import_wall_s,
                                  "setup_wall": setup_wall, "times": runner.times, "layers": layers,
                                  "result": result, "errors": runner.errors, "failures": runner.failures}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
