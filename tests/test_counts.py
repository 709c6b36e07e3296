"""Every count the package takes goes through ``meshes.as_count``: each site
refuses bools, non-integral, non-finite and non-numeric values and values
below its bound with its own ValueError, and accepts integral floats."""

import math

import numpy as np
import pytest

from evohom.experiments import ExperimentSpec, convergence_sweep, oracle_pairing_series
from evohom.fields import Constant, SineOsc, StripeIndicator
from evohom.homogenise import cell_problem_oracle, schur_blocks, schur_distance
from evohom.laws import example_material
from evohom.meshes import as_count, build_mesh, gauss_rule
from evohom.operators import complexified_accretivity_gap
from evohom.reporting import pairing
from evohom.spaces import GaussLineSpace, NodalLineSpace, build_space
from evohom.timequad import TimeGrid

_LINE = build_mesh((0.0, 1.0), 4)
_SQUARE = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
_TINY = ExperimentSpec("EX1", (1,), slabs=2)
_DIAG = np.diag([1.0, 2.0, 3.0])

# site -> (call with the count, lower bound, the site's message)
SITES = {
    "build_mesh-subdivisions": (lambda c: build_mesh((0, 1), c), 1, "subdivisions must be >= 1"),
    "build_mesh-nx": (lambda c: build_mesh(((0, 1), (0, 1)), (c, 3)), 1, "subdivisions must"),
    "build_mesh-ny": (lambda c: build_mesh(((0, 1), (0, 1)), (3, c)), 1, "subdivisions must"),
    "build_mesh-alignment": (
        lambda c: build_mesh((0.0, 1.0), 4, alignment=c),
        0,
        "alignment must be a nonnegative integer",
    ),
    "TimeGrid.uniform": (lambda c: TimeGrid.uniform(1.0, c), 1, "need at least one slab"),
    "SineOsc": (SineOsc, 1, "oscillation index n must be a positive integer"),
    "StripeIndicator": (StripeIndicator, 1, "stripe index n must be a positive integer"),
    "example_material": (
        lambda c: example_material("EX2", c),
        1,
        "oscillation index n must be a positive integer",
    ),
    "NodalLineSpace": (lambda c: NodalLineSpace(_LINE, c), 1, "nodal line spaces need degree"),
    "GaussLineSpace": (
        lambda c: GaussLineSpace(_LINE, c),
        0,
        "discontinuous line spaces need degree >= 0",
    ),
    "build_space-rt": (lambda c: build_space(_SQUARE, "rt", c), 0, "RT spaces need degree >= 0"),
    "ExperimentSpec-n_list": (
        lambda c: ExperimentSpec("EX1", (c,)),
        1,
        "oscillation indices must be integers >= 1",
    ),
    "ExperimentSpec-slabs": (
        lambda c: ExperimentSpec("EX1", slabs=c),
        1,
        "slabs must be a positive integer",
    ),
    "ExperimentSpec-degree": (
        lambda c: ExperimentSpec("EX1", degree=c),
        1,
        "element degree must be >= 1",
    ),
    "convergence_sweep-jobs": (
        lambda c: convergence_sweep(_TINY, jobs=c),
        1,
        "jobs must be at least 1 and an integer",
    ),
    "oracle_pairing_series": (
        lambda c: oracle_pairing_series([c]),
        1,
        "oscillation indices must be integers >= 1",
    ),
    "cell_problem_oracle-ncells": (
        lambda c: cell_problem_oracle([[Constant(1.0)]], 1.0, c),
        1,
        "the oracle needs ncells >= 1",
    ),
    "oracle_pairing_series-cells": (
        lambda c: oracle_pairing_series([1], cells=c),
        1,
        "the oracle's cells must be an integer >= 1",
    ),
    "schur_blocks-split": (
        lambda c: schur_blocks(_DIAG, c),
        1,
        "split size must be an integer strictly between 0 and n",
    ),
    "schur_distance-split": (
        lambda c: schur_distance(_DIAG, _DIAG, c, [np.ones(3)]),
        1,
        "the split of a Schur distance must be an integer >= 1",
    ),
    "gauss_rule": (gauss_rule, 1, "a Gauss rule needs an integer number of points >= 1"),
    "pairing-cells": (
        lambda c: pairing(lambda t, x: x, "x", (0.0, 1.0), grid=TimeGrid.uniform(1.0, 2), cells=c),
        1,
        "a callable pairing needs an integer number of cells >= 1",
    ),
    "complexified_accretivity_gap-ntrials": (
        lambda c: complexified_accretivity_gap(np.eye(2), ntrials=c),
        1,
        "ntrials must be a positive integer",
    ),
}

BAD = [2.5, True, "x", None, math.nan, math.inf, "below"]
# None is the default of oracle_pairing_series' cells: a panel count per n
CASES = [
    (site, bad)
    for site in SITES
    for bad in BAD
    if not (bad is None and site == "oracle_pairing_series-cells")
]


@pytest.mark.parametrize("site, bad", CASES, ids=[f"{site}-{bad}" for site, bad in CASES])
def test_count_site_refuses(site, bad):
    call, low, message = SITES[site]
    with pytest.raises(ValueError, match=message):
        call(low - 1 if bad == "below" else bad)


@pytest.mark.parametrize("site", SITES)
def test_count_site_accepts_integral_float(site):
    call, _, _ = SITES[site]
    call(2.0)


def test_as_count_returns_an_int():
    value = as_count(2.0, 1, "unused")
    assert value == 2 and type(value) is int
