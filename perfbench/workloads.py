"""The benchmark's workloads: set-up, the timed call and its correctness check.

Each workload is one closed-loop batch job: one caller in one process,
``jobs=1``, with the BLAS thread count left at its default.

* ``sweep-ex4``: ``evohom sweep --example EX4`` on its default n-list.
  Sparse factorisation and LU solves dominate; 2-D post-processing is next.
* ``sweep-ex3``: ``evohom sweep --example EX3`` on its default n-list.  The
  1-D systems are small, so assembly and post-processing dominate and a
  change to the factorisation should not show.
* ``march-graded-ex5``: the EX5 run at n = 2, rho = 1, re-posed on a time
  grid refined geometrically towards t = 0 with a uniform tail.  The grid
  is not uniform, so every slab refactorises.  It has 15 slabs rather than
  the family's 64 so that one run holds several repetitions.

The sweeps take no seed.  The seed of the graded march jitters its
start-up points only.
"""

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Golden rows were printed by the CLI with 13 significant digits.  A
# reordering of floating-point sums changes a solve by about 1e-12
# relative; the differences the report takes (against the reference) can
# magnify that by a few orders.  A wrong solve moves rows by far more.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12

# Relative residual ||K x - b|| / ||b|| that every slab must meet.
RESIDUAL_TOL = 1e-10

# The graded time grid of march-graded-ex5.
GRADED_T = 2.0
GRADED_STARTUP_END = 0.25  # geometric refinement on (0, 0.25]
GRADED_STARTUP_SLABS = 8  # halving towards t = 0
GRADED_JITTER = 0.3  # seeded shift of each interior start-up exponent
GRADED_TAIL_SLABS = 7  # uniform tail on (0.25, 2], h = 0.25


def _module(name):
    """Look a module up at call time, so the tracer's wrappers are seen."""
    return sys.modules[name]


class Sweep:
    """``evohom sweep --example <EX>`` through the CLI entry point."""

    uses_seed = False

    def __init__(self, example):
        self.example = example

    def setup(self, seed):
        import evohom.cli  # noqa: F401  (the whole package loads here)

        return ["sweep", "--example", self.example]

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _module("evohom.cli").main(argv)
        return code, buf.getvalue()

    def check(self, argv, result):
        """Failure messages (empty when the sweep is correct)."""
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        return compare_rows(parse_rows(text), golden_rows(self.example))


class GradedMarch:
    """EX5 at n = 2, rho = 1 on a graded time grid, through the public API."""

    uses_seed = True

    def setup(self, seed):
        import evohom.experiments  # noqa: F401
        import evohom.solver  # noqa: F401

        return graded_points(seed)

    def run(self, points):
        experiments = _module("evohom.experiments")
        problem = on_grid(experiments.build_run("EX5", 2, rho=1.0), points)
        sol = _module("evohom.solver").solve_evolution(problem)
        return sol, experiments.solution_norms(sol)

    def check(self, points, result):
        sol, norms = result
        failures = [
            f"norm_{k} = {v!r}"
            for k, v in norms.items()
            if not (math.isfinite(v) and v > 0.0)
        ]
        if sol.grid.num_slabs != len(points) - 1:
            failures.append("solution is not on the graded grid")
        worst, slab = max(slab_residuals(sol))
        if not worst <= RESIDUAL_TOL:
            failures.append(f"slab {slab}: relative residual {worst:.3e}")
        return failures


WORKLOADS = {
    "sweep-ex4": Sweep("EX4"),
    "sweep-ex3": Sweep("EX3"),
    "march-graded-ex5": GradedMarch(),
}


def graded_points(seed):
    """Time points: geometric towards t = 0, then a uniform tail.

    Interior start-up point j sits at ``end * 2**-(j + u_j)`` with u_j drawn
    from the seed in [-jitter, jitter]; the tail points do not depend on it.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    j = np.arange(GRADED_STARTUP_SLABS - 1, 0, -1)
    u = rng.uniform(-GRADED_JITTER, GRADED_JITTER, size=j.size)
    startup = GRADED_STARTUP_END * 2.0 ** (-(j + u))
    tail = np.linspace(GRADED_STARTUP_END, GRADED_T, GRADED_TAIL_SLABS + 1)
    return np.concatenate([[0.0], startup, tail])


def on_grid(problem, points):
    """The same problem re-posed on the time grid with the given points."""
    solver = _module("evohom.solver")
    return solver.EvolutionProblem(
        problem.spaces,
        problem.law,
        problem.operator,
        _module("evohom.timequad").TimeGrid(points),
        forcing=problem.forcing,
        u0=problem.u0,
        rho=problem.rho,
        m0mat=problem.m0mat,
        m1mat=problem.m1mat,
    )


def slab_residuals(sol):
    """``(||K x - b|| / ||b||, m)`` for every slab m of a solution.

    K and b are rebuilt through the public ``assemble_slab_system``.
    """
    import numpy as np

    solver = _module("evohom.solver")
    problem = sol.problem
    out = []
    prev = problem.m0mat @ problem.u0
    for m in range(1, sol.grid.num_slabs + 1):
        K, b = solver.assemble_slab_system(problem, m, prev)
        x = np.concatenate([sol.coeffs[m - 1, 0], sol.coeffs[m - 1, 1]])
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(K @ x - b) / (bnorm if bnorm > 0.0 else 1.0)
        out.append((float(res), m))
        prev = problem.m0mat @ sol.right_trace(m)
    return out


def parse_rows(text):
    """``{(example, n, quantity): value}`` from report CSV text."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["example", "n", "quantity", "value"]:
        raise ValueError(f"unexpected report header {header!r}")
    rows = {}
    for example, n, quantity, value in reader:
        rows[(example, int(n), quantity)] = float(value)
    return rows


def golden_rows(example):
    return parse_rows((GOLDEN_DIR / f"{example}.csv").read_text(encoding="utf-8"))


def compare_rows(got, golden):
    """Failure messages for rows that are missing, extra or off tolerance."""
    failures = [f"missing row {key}" for key in sorted(golden.keys() - got.keys())]
    failures += [f"extra row {key}" for key in sorted(got.keys() - golden.keys())]
    for key in sorted(golden.keys() & got.keys()):
        want, have = golden[key], got[key]
        if not abs(have - want) <= GOLDEN_RTOL * abs(want) + GOLDEN_ATOL:
            failures.append(f"row {key}: {have!r} != golden {want!r}")
    return failures
