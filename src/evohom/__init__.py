"""evohom: a space-time dG laboratory for evolutionary equations.

The package solves first-order evolutionary systems

    (d/dt M0 + M1 + A) U = F,   U(0-) = U0,

with a discontinuous-Galerkin-in-time scheme built on an exponentially
weighted 2-point right-sided Gauss-Radau rule, constructs the closed-form
homogenised limit laws of the oscillating-coefficient example families
(stripe and sine coefficients), and measures strong/weak convergence of
the oscillating solutions against analytic and fine-run references.

Modules
-------
timequad     time grids, weighted Radau rules, dG(1) temporal blocks
fields       coefficient expression trees (stripes, sines, regions)
analytic     closed-form oracles (exponential ODE, Bessel kernel, series law)
laws         material laws M(z) = M0 + z^-1 M1 with rational memory entries
meshes       1D and tensor-product 2D meshes with stripe alignment
spaces       CG/DG/Raviart-Thomas spaces, weighted Gram matrices
operators    skew operators A per example structure, as sparse matrices
homogenise   integral means, stratified effective tensors, Schur quantities
solver       per-slab assembly and the space-time dG march
reporting    pairings, strong norms, rate fits, CSV reports
experiments  the example registry EX1-EX5 and convergence sweeps
cli          the evohom command line
"""

from evohom.timequad import TimeGrid, WeightedRadauRule, build_radau_rule, weighted_moments

__all__ = [
    "TimeGrid",
    "WeightedRadauRule",
    "build_radau_rule",
    "weighted_moments",
]

__version__ = "0.1.0"
