"""Every count the package takes goes through ``meshes.as_count``: each site
refuses bools, non-integral, non-finite and non-numeric values and values
below its bound with its own ValueError, and accepts integral floats."""

import math

import pytest

from evohom.experiments import ExperimentSpec, convergence_sweep, oracle_pairing_series
from evohom.fields import Constant, SineOsc, StripeIndicator
from evohom.homogenise import cell_problem_oracle
from evohom.laws import example_material
from evohom.meshes import as_count, build_mesh
from evohom.spaces import GaussLineSpace, NodalLineSpace, build_space
from evohom.timequad import TimeGrid

_LINE = build_mesh((0.0, 1.0), 4)
_SQUARE = build_mesh(((0.0, 1.0), (0.0, 1.0)), (2, 2))
_TINY = ExperimentSpec("EX1", (1,), slabs=2)

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
}

BAD = [2.5, True, "x", None, math.nan, math.inf, "below"]


@pytest.mark.parametrize("bad", BAD, ids=map(str, BAD))
@pytest.mark.parametrize("site", SITES)
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
