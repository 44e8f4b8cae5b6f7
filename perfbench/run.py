"""probcert benchmark: time to a checked certificate, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0

Load is one client in a closed loop: one process runs jobs back to back, with
no threads, and BLAS/OpenMP pools pinned to one thread. With ``--trace 0`` the
run times jobs for ``--seconds`` seconds and reports the end-to-end metrics;
with ``--trace 1`` it replays a fixed number of jobs untraced and then traced
and reports the per-layer metrics (see tracer.py). ``--workload all`` runs
every workload listed in BENCHMARK.json, each in a fresh process.

Output: a run record line, one line per metric, then as the last line one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)  # before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
READY = "ready"


def import_probcert():
    """Import probcert from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import probcert

    if not Path(probcert.__file__).resolve().is_relative_to(src):
        raise ImportError(f"probcert imported from {probcert.__file__}, not from {src}")
    return probcert


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail(times):
    """Highest percentile with at least ten jobs beyond it: (value, percentile).

    With fewer than eleven jobs no such percentile exists; the maximum is
    reported and the percentile reads 100.
    """
    xs = sorted(times)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from process start to workload inputs built."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line != READY:
            raise RuntimeError(f"set-up process failed (exit {child.returncode}, said {line!r})")
    return statistics.median(samples)


def run_job(workload, job):
    """(result, problems); an exception is a failed job, not a crashed run."""
    try:
        result = workload.run(job)
        return result, workload.check(job, result)
    except Exception as exc:  # the run goes on and counts the failure
        return None, [f"raised {type(exc).__name__}: {exc}"]


def run_end_to_end(workload, jobs, seconds, max_jobs):
    from workloads import fingerprint

    # one untimed warm-up job: caches fill, and it is the same-seed rerun
    # that the first timed job must reproduce bit for bit
    warm, problems = run_job(workload, jobs[0])
    failures = [("warm-up", problems)] if problems else []
    times = []
    loop_start = time.perf_counter()
    for i, job in enumerate(jobs[:max_jobs]):
        start = time.perf_counter()
        result, problems = run_job(workload, job)
        times.append(time.perf_counter() - start)
        if i == 0 and result is not None and fingerprint(result) != fingerprint(warm):
            problems.append("same-seed rerun is not bit-identical")
        if problems:
            failures.append((i, problems))
        if time.perf_counter() - loop_start >= seconds:
            break
    loop_s = time.perf_counter() - loop_start
    p_tail, percentile = tail(times)
    metrics = {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (p_tail, "s"),
        "jobs_per_s": (len(times) / loop_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    info = {"jobs": len(times), "job_tail_percentile": round(percentile, 2)}
    return metrics, len(times) + 1, failures, info


def run_traced(workload, jobs, max_jobs):
    """Each job twice, untraced and traced, in alternating order.

    Running the pair back to back keeps the machine's speed drift out of
    trace.overhead_ratio; the traced run must reproduce the untraced one.
    """
    from tracer import LAYER_METRICS, Tracer
    from workloads import fingerprint

    count = min(workload.trace_jobs, max_jobs)
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    failures = []
    for i, job in enumerate(jobs[:count]):
        tracer.job = i
        prints = []
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                result, problems = run_job(workload, job)
                wall[traced] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            prints.append(None if result is None else fingerprint(result))
            if len(prints) == 2 and prints[0] != prints[1]:
                problems.append("traced and untraced runs are not bit-identical")
            if problems:
                failures.append((i, problems))
    values, na = tracer.layer_metrics(wall[True] / wall[False] - 1.0)
    metrics = {name: (values[name] or 0, unit) for name, unit in LAYER_METRICS}
    info = {"jobs": count, "not_applicable": na, "untraced_s": wall[False], "traced_s": wall[True]}
    return metrics, 2 * count, failures, info, tracer


def run_record(args, spec_names, info):
    import numpy

    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "load": "closed loop, one client, one process, no threads",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "benchmark_workloads": spec_names,
        **info,
    }


def run_one(args, workload, jobs) -> int:
    max_jobs = args.max_jobs or len(jobs)
    spec = benchmark_spec()
    if args.trace:
        metrics, attempted, failures, info, tracer = run_traced(workload, jobs, max_jobs)
        na = set(info["not_applicable"])
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics, attempted, failures, info = run_end_to_end(workload, jobs, args.seconds, max_jobs)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        na = set()
    record = run_record(args, [w["name"] for w in spec["workloads"]], info)
    record["attempted"] = attempted
    record["failed_ratio"] = len(failures) / attempted
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, record)
        record["trace_file"] = str(path.relative_to(ROOT))

    print("# run record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {'N/A' if name in na else format(value, '.6g'):>14s} {unit}")
    if not args.trace:
        print(f"{'failed_ratio':48s} {record['failed_ratio']:>14.6g} -")
    for i, problems in failures:
        print(f"# job {i} failed: {'; '.join(problems)}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload of BENCHMARK.json in its own fresh process."""
    for entry in benchmark_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.max_jobs:
            cmd += ["--max-jobs", str(args.max_jobs)]
        print(f"## {entry['name']}: {entry['why']}", flush=True)
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=0, help="stop after this many jobs (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_probcert()
    if args.workload == "all":
        return run_all(args)
    from workloads import MAX_JOBS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    jobs = workload.inputs(args.seed, MAX_JOBS)
    if args.setup_only:
        print(READY, flush=True)
        return 0
    return run_one(args, workload, jobs)


if __name__ == "__main__":
    sys.exit(main())
