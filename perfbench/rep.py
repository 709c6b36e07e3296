"""One repetition of a workload, in a fresh process.

Run by ``run.py``; prints one JSON object as its last line of output.
``--mode setup`` stops once the package is imported and the inputs are
generated; ``--mode time`` also makes the timed call and checks it;
``--mode trace`` does the same with the span tracer installed and writes
the spans to ``--spans``.  ``ready`` is the wall-clock time (``time.time``)
at which set-up finished, so the parent can time set-up from before it
started the interpreter.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import tracer
import workloads


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--spans")
    parser.add_argument("--src", required=True, help="directory holding evohom")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    ready = time.time()
    import evohom

    where = os.path.realpath(os.path.dirname(evohom.__file__))
    expected = os.path.realpath(os.path.join(args.src, "evohom"))
    if where != expected:
        raise SystemExit(f"evohom imported from {where}, expected {expected}")
    out = {"ready": ready, "versions": _versions()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    leaked = tracer.installed_wrappers()
    if leaked:
        raise SystemExit(f"span wrappers present before the timed call: {leaked}")
    # Installed before the clock starts: installing imports every evohom
    # module, which the untraced run of some workloads never does.
    spans = tracer.Tracer() if args.mode == "trace" else contextlib.nullcontext()
    with spans:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.run(inputs)
        except Exception as exc:  # a failed operation is reported, not raised
            traceback.print_exc()
            out["failures"] = [f"{type(exc).__name__}: {exc}"]
            print(json.dumps(out))
            return 0
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["failures"] = workload.check(inputs, result)
    if args.mode == "trace":
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(spans.records(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
