#!/usr/bin/env python3
"""heatctl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload linear_equivalence --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 36 --trace 0

Each run builds the workload's inputs from ``--seed`` (see workloads.py),
then calls the program again and again until ``--seconds`` have passed (at
least MIN_CALLS calls), checking every call's outputs.  On a CLI workload
each untraced call gets the next input of the seed's stream.  It prints a
readable report, one ``detail:`` line of JSON (environment, samples, CPU
time, output digest), and last a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``run_s``: median wall time of one workload call, after import;
* ``setup_s``: median over SETUP_PROBES fresh interpreters of the wall time
  to import heatctl and build the inputs;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The share of failed value points or brackets (``fail_ratio``) is reported
as ``failed`` over ``attempted``.  ``--trace 1`` alternates untraced and
traced calls (at least two of each) on one input and reports the per-layer
metrics of tracer.PER_LAYER, per workload call, with
``trace.overhead_ratio``; it also checks that the counts repeat exactly
between traced calls.

BLAS threads are pinned to 1, before numpy loads, here and in the set-up
probes.  So is glibc malloc (see pin_allocator).
"""

import ctypes
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pin_allocator() -> bool:
    """Keep freed heap memory: mmap threshold 32 MiB, no trimming.

    By default glibc moves its mmap and trim thresholds with the sizes freed
    so far, so whether a multi-megabyte numpy temporary is served from the
    heap or from fresh, page-faulted memory depends on the process's heap
    history.  On the brute-force bracket that flips a call between about 5 s
    and 10 s (half of it system time) from one run to the next.  Fixed
    thresholds give every run the warm state; ``cpu_sys_s`` in the detail
    line still shows any page-fault time.  Returns False where mallopt is
    not available.
    """
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1)


ALLOCATOR_PINNED = pin_allocator()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CALLS = 3
SETUP_PROBES = 5
WORKLOAD_NAMES = ("linear_equivalence", "tanh_sweep", "bruteforce_bracket")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and build the inputs, then exit")
    return p.parse_args(argv)


def load_program():
    """Import heatctl from the checkout's src/ and the workload definitions."""
    if not (ROOT / "src" / "heatctl" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        sys.exit(f"bench: no heatctl sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import heatctl
    import heatctl.cli  # noqa: F401  (the CLI workloads call heatctl.cli.main)
    import workloads
    return heatctl, workloads


def workdir_for(tag: str) -> Path:
    path = ROOT / ".bench_out" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import heatctl and build the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return times


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "allocator_pinned": ALLOCATOR_PINNED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def baseline_digest(name: str, seed: int):
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("digests", {}).get(name, {}).get(str(seed))


def measure(args, heatctl, work):
    """Run the workload until the time is up; return samples and gate counts."""
    from tracer import DETERMINISTIC, Tracer

    untraced, traced, layer = [], [], []
    attempted = failed = 0
    digests = []
    outputs = []
    deadline = time.perf_counter() + args.seconds
    cpu_start = os.times()
    while True:
        trace_this = args.trace == 1 and len(traced) < len(untraced)
        tracer = Tracer() if trace_this else None
        if args.trace == 0:
            work.prepare(len(untraced))
        if tracer is not None:
            with tracer:
                t0 = time.perf_counter()
                result = work.call(heatctl)
                elapsed = time.perf_counter() - t0
            traced.append(elapsed)
            layer.append(tracer.metrics())
        else:
            t0 = time.perf_counter()
            result = work.call(heatctl)
            untraced.append(elapsed := time.perf_counter() - t0)
        outputs.append(work.outputs(result))
        n_calls = len(untraced) + len(traced)
        enough = min(len(untraced), len(traced)) >= 2 if args.trace else n_calls >= MIN_CALLS
        if enough and time.perf_counter() + elapsed > deadline:
            break
    cpu = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for out in outputs:
        a, f, digest = work.check(heatctl, out)
        attempted += a
        failed += f
        digests.append(digest)
    counts_repeat = all({k: m[k] for k in DETERMINISTIC} == {k: layer[0][k] for k in DETERMINISTIC}
                        for m in layer)
    return {"untraced": untraced, "traced": traced, "layer": layer,
            "attempted": attempted, "failed": failed, "digests": digests,
            "counts_repeat": counts_repeat, "peak_rss_mb": peak_rss_mb,
            "cpu_user_s": cpu.user - cpu_start.user,
            "cpu_sys_s": cpu.system - cpu_start.system}


def run_one(args) -> dict:
    heatctl, workloads = load_program()
    workdir = workdir_for(f"{args.workload}-{args.seed}")
    try:
        work = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        if args.setup_probe:
            return {}
        setup = setup_seconds(args) if args.trace == 0 else []
        m = measure(args, heatctl, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    from tracer import PER_LAYER
    run_s = statistics.median(m["untraced"])
    if args.trace == 0:
        metrics = {"run_s": (run_s, "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (m["peak_rss_mb"], "MB")}
    else:
        layer = {k: statistics.median(lm[k] for lm in m["layer"]) for k in m["layer"][0]}
        layer["trace.overhead_ratio"] = statistics.median(m["traced"]) / run_s
        metrics = {name: (layer[name], unit) for name, unit, _, _ in PER_LAYER}

    digest = m["digests"][0]
    reference = baseline_digest(args.workload, args.seed)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "run_s_samples": summary(m["untraced"]),
        "traced_run_s_samples": summary(m["traced"]) if m["traced"] else None,
        "setup_s_samples": summary(setup) if setup else None,
        "fail_ratio": m["failed"] / m["attempted"],
        "counts_repeat": m["counts_repeat"],
        "cpu_user_s": m["cpu_user_s"],
        "cpu_sys_s": m["cpu_sys_s"],
        "outputs_digest": digest,
        "outputs_identical": None if reference is None else digest == reference,
    }
    correct = m["failed"] == 0 and m["counts_repeat"]
    return {"metrics": metrics, "detail": detail,
            "result": {"correct": correct, "attempted": m["attempted"],
                       "failed": m["failed"],
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def report(out: dict) -> None:
    d = out["detail"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}")
    samples = {"run_s": d["run_s_samples"], "setup_s": d["setup_s_samples"]}
    for name, (value, unit) in out["metrics"].items():
        n = samples.get(name)
        extra = f"  (median of {n['n']}, min {n['min']:.4g}, max {n['max']:.4g})" if n else ""
        print(f"  {name:34s} {value:14.6g} {unit}{extra}")
    r = out["result"]
    print(f"  {'fail_ratio':34s} {d['fail_ratio']:14.6g} ratio  ({r['failed']} of {r['attempted']} failed)")
    print("detail: " + json.dumps(d, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        out = run_one(args)
        if args.setup_probe:
            return 0
        report(out)
        print(json.dumps(out["result"]))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
