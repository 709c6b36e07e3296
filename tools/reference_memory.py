"""Wall time, peak RSS and a row digest of an EX4 or EX5 sweep whose discrete
reference has the base mesh s x s instead of the family's 40 x 40.

    python3 tools/reference_memory.py EX5 80 --jobs 2

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The sweep runs in this process on the family's default
n-list.  Prints one JSON line: the example, s, jobs, ``wall_s``, ``peak_rss_mb``
(``resource.getrusage``, the high-water mark of the whole process) and
``rows_sha256``, the SHA-256 of the ``repr`` of the report rows, which is
equal for two checkouts exactly when every row is bit for bit equal.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evohom import experiments  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("example", choices=("EX4", "EX5"))
    parser.add_argument("cells", type=int, help="reference cells per side, s")
    parser.add_argument("--jobs", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    # the base reference mesh with s x s cells, its other arguments kept
    family = experiments._FAMILIES[args.example]
    base = ((args.cells, args.cells),) + family.ref_mesh[1:]
    experiments._FAMILIES[args.example] = family._replace(ref_mesh=base)
    t0 = time.perf_counter()
    spec = experiments.ExperimentSpec(args.example)
    report = experiments.convergence_sweep(spec, jobs=args.jobs)
    wall = time.perf_counter() - t0
    rows = "\n".join(repr(row) for row in report.rows).encode()
    print(json.dumps({
        "example": args.example,
        "cells": args.cells,
        "jobs": args.jobs,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "rows_sha256": hashlib.sha256(rows).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
