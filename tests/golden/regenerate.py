"""Regenerate the goldens in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``<example>_n<n-list>.csv`` holds the rows ``n, quantity, repr(value)``
of one sweep that the tier-1 tests already run (``test_jobs_deterministic``,
``test_ex5_dichotomy`` and ``TestEX2Sweep``); those tests compare their rows to it at 1e-10
relative through the ``assert_golden`` fixture.  Each ``text/<name>.txt``
holds the exact text of one law (``serialize_law``) or of one ``evohom
limits``, ``describe``, ``quadrature`` or ``oracle`` command, which the
tests that print it compare exactly through the ``golden_text`` fixture.  A change that moves a
golden states the largest relative move (or the changed text) and why.
A sweep golden whose rows all still pass that comparison is left as it is,
so roundoff moves rewrite no file and a second run changes nothing.
"""

import contextlib
import csv
import io
from pathlib import Path

from evohom.cli import main as cli_main
from evohom.experiments import EXAMPLES, ExperimentSpec, convergence_sweep
from evohom.homogenise import build_limit_law
from evohom.laws import EXAMPLE_IDS, augment_memory, example_material, serialize_law

HERE = Path(__file__).resolve().parent
SPECS = (
    ExperimentSpec("EX1", (1, 2, 4)),
    ExperimentSpec("EX2", (1, 2, 4)),
    ExperimentSpec("EX3", (1, 2)),
    ExperimentSpec("EX4", (1, 2)),
    ExperimentSpec("EX5", (2, 4, 8, 16)),
)
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


def passes(path, rows):
    """Whether the sweep golden at ``path`` holds ``rows`` to the 1e-10
    relative of the ``assert_golden`` fixture."""
    if not path.exists():
        return False
    with open(path, encoding="utf-8", newline="") as fh:
        golden = [(int(n), q, float(v)) for n, q, v in list(csv.reader(fh))[1:]]
    return [r[:2] for r in rows] == [g[:2] for g in golden] and all(
        abs(v - g) <= 1e-10 * abs(g) for (_, _, v), (_, _, g) in zip(rows, golden)
    )


def main():
    (HERE / "text").mkdir(exist_ok=True)
    for name, text in texts():
        (HERE / "text" / f"{name}.txt").write_text(text, encoding="utf-8")
        print(HERE / "text" / f"{name}.txt")
    for spec in SPECS:
        report = convergence_sweep(spec, jobs=2)
        name = f"{spec.example}_n{'-'.join(map(str, spec.n_list))}.csv"
        if passes(HERE / name, report.rows):
            print(HERE / name, "unchanged within 1e-10")
            continue
        with open(HERE / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "quantity", "value"])
            writer.writerows((n, q, repr(v)) for n, q, v in report.rows)
        print(HERE / name, len(report.rows), "rows")


if __name__ == "__main__":
    main()
