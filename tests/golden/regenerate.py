"""Regenerate the goldens in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``<example>_n<n-list>.csv`` holds the rows ``n, quantity, repr(value)``
of one sweep that the tier-1 tests already run (``test_jobs_deterministic``,
``test_ex5_dichotomy``, ``TestEX2Sweep``, ``test_reference_levels_agree``
and ``test_ex3_sweep_matches_benchmark_golden_rows``); those tests compare
their rows to it at 1e-10 relative through the ``assert_golden`` fixture.
The degree-2 sweeps of ``test_degree_two_weighted_sweep`` (whose references
are degree 3) add ``_deg<degree>_rho<rho>`` to that name, and the sweeps
against the level-1 reference add ``_level1``.  Each ``text/<name>.txt``
holds the exact text of one law (``serialize_law``) or of one ``evohom
limits``, ``describe``, ``quadrature`` or ``oracle`` command, which the
tests that print it compare exactly through the ``golden_text`` fixture.  A change that moves a
golden states the largest relative move (or the changed text) and why.
A sweep golden whose rows all still pass that comparison is left as it is,
so roundoff moves rewrite no file and a second run changes nothing; the
script prints its worst relative move and that row.
"""

import contextlib
import csv
import io
import math
from pathlib import Path

from evohom.cli import main as cli_main
from evohom.experiments import DEFAULT_N_LISTS, EXAMPLES, ExperimentSpec, convergence_sweep
from evohom.homogenise import build_limit_law
from evohom.laws import EXAMPLE_IDS, augment_memory, example_material, serialize_law

HERE = Path(__file__).resolve().parent
SPECS = (
    ExperimentSpec("EX1", (1, 2, 4)),
    ExperimentSpec("EX2", (1, 2, 4)),
    ExperimentSpec("EX3", (1, 2)),
    ExperimentSpec("EX4", (1, 2)),
    ExperimentSpec("EX5", (2, 4, 8, 16)),
    ExperimentSpec("EX2", (1, 2, 4), degree=2, rho=0.5),
    ExperimentSpec("EX2", (1, 2, 4), degree=2),
    ExperimentSpec("EX3", (2, 4, 8), degree=2, rho=0.5),
    ExperimentSpec("EX3", (2, 4, 8), degree=2),
    ExperimentSpec("EX3", DEFAULT_N_LISTS["EX3"]),
)
# the sweeps of test_reference_levels_agree, pinned at both reference levels
LEVEL_SPECS = (
    ExperimentSpec("EX2", (1, 2)),
    ExperimentSpec("EX3", (2, 4)),
    ExperimentSpec("EX4", (2, 4)),
)
# (spec, reference level) of every sweep golden
SWEEPS = tuple((s, 0) for s in SPECS + LEVEL_SPECS) + tuple((s, 1) for s in LEVEL_SPECS)
LIMIT_IDS = ("EX2", "EX3", "EX4", "EX5", "MAXWELL")
LIMIT_ZS = ("3.0", "2.5+1j")
QUADRATURES = (("0.5", "0.0"), ("0.25", "2.0"))
ORACLES = {
    "ode": ("--n", "1", "--t", "1.0", "--x", "0.25"),
    "hom": ("--t", "0.5"),
    "i0": ("--t", "0.5"),
    "series": ("--z", "3.0"),
}


def cli_text(*argv):
    """What ``evohom <argv>`` prints on stdout (it must succeed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"evohom {' '.join(argv)} exited with {code}")
    return out.getvalue()


def texts():
    """(name, text) of every text golden."""
    for example in EXAMPLE_IDS:
        for n in (1, 2):
            yield f"law_{example}_n{n}", serialize_law(example_material(example, n))
    for example in LIMIT_IDS:
        law = build_limit_law(example)
        yield f"limit_{example}", serialize_law(law)
        if law.memory:
            yield f"limit_{example}_augmented", serialize_law(augment_memory(law).law)
        for z in LIMIT_ZS:
            yield f"limits_{example}_z{z}", cli_text("limits", "--example", example, "--z", z)
    for example in EXAMPLES:
        yield f"describe_{example}", cli_text("describe", "--example", example)
        yield f"describe_{example}_n4", cli_text("describe", "--example", example, "--n", "4")
    for h, rho in QUADRATURES:
        yield f"quadrature_h{h}_rho{rho}", cli_text("quadrature", "--h", h, "--rho", rho)
    for which, argv in ORACLES.items():
        yield f"oracle_{which}", cli_text("oracle", "--which", which, *argv)


def worst_move(path, rows):
    """``(relative move, n, quantity)`` of the row of ``rows`` that moved
    farthest from the sweep golden at ``path``; None if there is no golden
    or it holds other rows.  A row off a zero golden value, or NaN, moves
    infinitely."""
    if not path.exists():
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        golden = [(int(n), q, float(v)) for n, q, v in list(csv.reader(fh))[1:]]
    if [r[:2] for r in rows] != [g[:2] for g in golden]:
        return None
    moves = []
    for (n, q, v), (_, _, g) in zip(rows, golden):
        move = 0.0 if v == g else abs(v - g) / abs(g) if g else math.inf
        moves.append((math.inf if math.isnan(move) else move, n, q))
    return max(moves, default=(0.0, None, None))


def main():
    (HERE / "text").mkdir(exist_ok=True)
    for name, text in texts():
        (HERE / "text" / f"{name}.txt").write_text(text, encoding="utf-8")
        print(HERE / "text" / f"{name}.txt")
    for spec, level in SWEEPS:
        report = convergence_sweep(spec, jobs=2, reference_level=level)
        tag = "" if (spec.degree, spec.rho) == (1, 0.0) else f"_deg{spec.degree}_rho{spec.rho:g}"
        tag += f"_level{level}" if level else ""
        name = f"{spec.example}_n{'-'.join(map(str, spec.n_list))}{tag}.csv"
        # the 1e-10 relative of the assert_golden fixture
        worst = worst_move(HERE / name, report.rows)
        moved = "" if worst is None else " (worst {:.1e} at n = {}, {})".format(*worst)
        if worst is not None and worst[0] <= 1e-10:
            print(HERE / name, "unchanged within 1e-10" + moved)
            continue
        with open(HERE / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "quantity", "value"])
            writer.writerows((n, q, repr(v)) for n, q, v in report.rows)
        print(HERE / name, len(report.rows), "rows" + moved)


if __name__ == "__main__":
    main()
