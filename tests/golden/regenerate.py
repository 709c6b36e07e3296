"""Regenerate the full-precision sweep goldens in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``<example>_n<n-list>.csv`` holds the rows ``n, quantity, repr(value)``
of one sweep that the tier-1 tests already run (``test_jobs_deterministic``
and ``test_ex5_dichotomy``); those tests compare their rows to it at 1e-10
relative through the ``assert_golden`` fixture.  A change that moves a
golden states the largest relative move and why.
"""

import csv
from pathlib import Path

from evohom.experiments import ExperimentSpec, convergence_sweep

HERE = Path(__file__).resolve().parent
SPECS = (
    ExperimentSpec("EX1", (1, 2, 4)),
    ExperimentSpec("EX2", (1, 2, 4)),
    ExperimentSpec("EX3", (1, 2)),
    ExperimentSpec("EX4", (1, 2)),
    ExperimentSpec("EX5", (2, 4, 8, 16)),
)


def main():
    for spec in SPECS:
        report = convergence_sweep(spec, jobs=2)
        name = f"{spec.example}_n{'-'.join(map(str, spec.n_list))}.csv"
        with open(HERE / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "quantity", "value"])
            writer.writerows((n, q, repr(v)) for n, q, v in report.rows)
        print(HERE / name, len(report.rows), "rows")


if __name__ == "__main__":
    main()
