"""The evohom benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every repetition runs in a fresh process (``rep.py``),
because peak RSS is a high-water mark and set-up includes the imports.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least once) and reports the end-to-end metrics.  Set-up is sampled at
least MIN_SETUPS times, by extra set-up-only processes where the
repetitions gave fewer.  ``--trace 1`` makes the same untraced
repetitions, then one traced repetition, and reports the per-layer
metrics of the traced one.

Every end-to-end metric is the median over the run's repetitions.
``baseline.json`` records how far these medians spread from run to run.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  One line before it
records the environment.  Samples and spans are also written to
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SETUPS = 5
RUN_DEADLINE_S = 170  # a whole run, set-up samples and trace included
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: ("count" if m.endswith(".calls") else "s") for m in tracer.SPAN_METRICS},
    **tracer.SIZE_METRICS,
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.peak_rss_mb": "MB",
}


def git_sha(root):
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
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
    return None


def rep(workload, seed, mode, deadline, spans=None):
    """Run one repetition in a fresh interpreter; its result plus ``setup_s``.

    The process is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--src",
        str(SRC),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.time()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} repetition timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"{mode} repetition exited with {proc.returncode}"]}
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evohom" / "__init__.py").is_file():
        print(f"no evohom sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    reps = []
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(rep(args.workload, args.seed, "time", deadline))
    setups = [r for r in reps if "setup_s" in r]
    traced = None
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        traced = rep(args.workload, args.seed, "trace", deadline, spans_path)
        reps.append(traced)
    else:
        while len(setups) < MIN_SETUPS:
            extra = rep(args.workload, args.seed, "setup", deadline)
            if "setup_s" not in extra:
                reps.append(extra)
                break
            setups.append(extra)

    for r in reps:
        for f in r["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    timed = [r for r in reps if "wall_s" in r and r is not traced]
    if not timed or not setups or (traced is not None and "wall_s" not in traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    if traced is None:
        values = {
            "wall_s": median(timed, "wall_s"),
            "cpu_s": median(timed, "cpu_s"),
            "setup_s": median(setups, "setup_s"),
            "peak_rss_mb": median(timed, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    else:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        values = tracer.layer_metrics(spans)
        values["trace.spans"] = len(spans)
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - median(timed, "wall_s")
        values["trace.peak_rss_mb"] = traced["peak_rss_mb"]
        units = PER_LAYER_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workloads.WORKLOADS[args.workload].uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "versions": setups[0]["versions"],
        "repetitions": len(reps),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "samples": reps}, indent=1), encoding="utf-8"
    )
    print(json.dumps(record))
    failed = sum(1 for r in reps if r["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
