"""In-memory span tracer for the benchmark's traced run.

The program is not changed.  Instead, the functions at which one evohom
module calls into another are replaced, in every evohom module namespace
that binds them, by wrappers that record one span per call:
``(name, start, end, parent, attrs)``.  The object that ``splu`` returns is
wrapped in a proxy so that each triangular ``solve`` is a span too.  Every
replaced attribute is restored on exit.

This module imports nothing from evohom at import time, so ``run.py`` can
use :func:`layer_metrics` without loading the package.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from array import array

MARK = "__perfbench_span__"

# Span name -> (defining module, attribute).  A name that the code no
# longer has is skipped, so its metrics read as 0 calls.
TARGETS = {
    "solver.march": ("evohom.solver", "solve_evolution"),
    "timequad.build_radau_rule": ("evohom.timequad", "build_radau_rule"),
    "reporting.pairing": ("evohom.reporting", "pairing"),
    "reporting.strong_norm_diff": ("evohom.reporting", "strong_norm_diff"),
    "reporting.restricted_load": ("evohom.reporting", "restricted_load"),
    "reporting.eval_matrix_1d": ("evohom.reporting", "eval_matrix_1d"),
    "spaces.gram1d": ("evohom.spaces", "gram1d"),
    "spaces.gram2d": ("evohom.spaces", "gram2d"),
    "spaces.build_space": ("evohom.spaces", "build_space"),
    "operators.assemble_law_masses": ("evohom.operators", "assemble_law_masses"),
    "operators.assemble_skew_operator": (
        "evohom.operators",
        "assemble_skew_operator",
    ),
    "meshes.build_mesh": ("evohom.meshes", "build_mesh"),
    "laws.example_material": ("evohom.laws", "example_material"),
    "laws.augment_memory": ("evohom.laws", "augment_memory"),
    "homogenise.build_limit_law": ("evohom.homogenise", "build_limit_law"),
    "experiments.convergence_sweep": ("evohom.experiments", "convergence_sweep"),
    "cli.main": ("evohom.cli", "main"),
}
# The sparse factorisation; its result is proxied (see _TracedLU).
FACTOR = ("solver.factor", "evohom.solver", "splu")
LU_SOLVE = "solver.lu_solve"
# Every public function of this module is traced as "analytic.<name>".
ANALYTIC = "evohom.analytic"

# Per-layer metrics computed from the spans.  "<base>.calls" counts the
# spans named <base> or <base>.*, "<base>.s" is their inclusive time (a span
# inside another span of the same base is not counted twice) and
# "<base>.self_s" their duration minus that of their child spans.
SPAN_METRICS = (
    "solver.factor.calls",
    "solver.factor.s",
    "solver.lu_solve.calls",
    "solver.lu_solve.s",
    "solver.march.self_s",
    "reporting.pairing.calls",
    "reporting.pairing.self_s",
    "reporting.strong_norm_diff.calls",
    "reporting.strong_norm_diff.self_s",
    "reporting.restricted_load.calls",
    "reporting.restricted_load.s",
    "reporting.eval_matrix_1d.calls",
    "reporting.eval_matrix_1d.s",
    "spaces.gram1d.s",
    "spaces.gram2d.s",
    "spaces.build_space.s",
    "operators.assemble_law_masses.self_s",
    "operators.assemble_skew_operator.self_s",
    "meshes.build_mesh.s",
    "laws.example_material.s",
    "laws.augment_memory.s",
    "homogenise.build_limit_law.s",
    "analytic.s",
    "timequad.build_radau_rule.calls",
    "experiments.convergence_sweep.self_s",
    "cli.main.self_s",
)
# Maxima over the factorisations, from the attributes of the factor spans,
# with their units.
SIZE_METRICS = {
    "solver.unknowns_max": "count",
    "solver.K_nnz_max": "count",
    "solver.lu_nnz_max": "count",
    "solver.lu_bytes_max": "B",
}


def lu_bytes(unknowns, lu_nnz):
    """Computed size of the factors held as CSC matrices L and U.

    8 bytes per value and 4 per row index, plus one column-pointer array
    per factor.  SuperLU's supernodal storage differs in detail; this is a
    computed figure, not a measurement.
    """
    return 12 * int(lu_nnz) + 2 * 4 * (int(unknowns) + 1)


class _TracedLU:
    """Proxy for a ``SuperLU`` object that records each ``solve`` as a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        sid = self._tracer.open(LU_SOLVE)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Context manager that installs the span wrappers and restores them.

    Span i has ``names[i]``, ``starts[i]``, ``ends[i]``, ``parents[i]`` (the
    index of the enclosing span on the same thread, or -1) and, for a
    factorisation, ``attrs[i]``.  Plain arrays keep the tracer's own memory
    out of the traced peak RSS.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.attrs = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        setattr(wrapper, MARK, name)
        return wrapper

    def _factor_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(A, *args, **kwargs):
            sid = self.open(name)
            try:
                lu = fn(A, *args, **kwargs)
            finally:
                self.close(sid)
            # SuperLU.nnz, not lu.L.nnz + lu.U.nnz: .L and .U copy the factors.
            self.attrs[sid] = {
                "unknowns": int(A.shape[0]),
                "K_nnz": int(A.nnz),
                "lu_nnz": int(lu.nnz),
            }
            return _TracedLU(lu, self)

        setattr(wrapper, MARK, name)
        return wrapper

    def _targets(self):
        """(span name, original object, wrapper factory) for each target."""
        out = []
        for name, (modname, attr) in TARGETS.items():
            obj = getattr(sys.modules.get(modname), attr, None)
            if obj is not None:
                out.append((name, obj, self._span_wrapper))
        name, modname, attr = FACTOR
        obj = getattr(sys.modules.get(modname), attr, None)
        if obj is not None:
            out.append((name, obj, self._factor_wrapper))
        analytic = sys.modules.get(ANALYTIC)
        if analytic is not None:
            for attr, obj in vars(analytic).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == ANALYTIC
                    and not attr.startswith("_")
                ):
                    out.append((f"analytic.{attr}", obj, self._span_wrapper))
        return out

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # Import every evohom module first: a module imported while the
        # wrappers are installed would bind a wrapper that is never restored.
        package = importlib.import_module("evohom")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"evohom.{info.name}")
        modules = [module for _, module in evohom_modules()]
        try:
            for name, obj, factory in self._targets():
                wrapper = factory(name, obj)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is obj:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def records(self):
        """Spans as JSON-ready ``[name, start, end, parent, attrs]`` lists."""
        return [
            [name, start, end, parent, self.attrs.get(i)]
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            )
        ]


def evohom_modules():
    """``(name, module)`` for every loaded evohom module, sorted by name."""
    return [
        (key, module)
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "evohom" or key.startswith("evohom."))
    ]


def installed_wrappers():
    """``module.attribute`` names in evohom that currently hold a span wrapper."""
    found = []
    for key, module in evohom_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{key}.{attr}")
    return found


def _matches(name, base):
    return name == base or name.startswith(base + ".")


def layer_metrics(spans):
    """Per-layer metrics (see SPAN_METRICS and SIZE_METRICS) from spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def outermost(i, base):
        p = spans[i][3]
        while p >= 0:
            if _matches(spans[p][0], base):
                return False
            p = spans[p][3]
        return True

    out = {}
    for metric in SPAN_METRICS:
        base, kind = metric.rsplit(".", 1)
        idx = [i for i, s in enumerate(spans) if _matches(s[0], base)]
        if kind == "calls":
            out[metric] = len(idx)
        elif kind == "s":
            out[metric] = sum(dur[i] for i in idx if outermost(i, base))
        else:  # self_s
            out[metric] = sum(dur[i] - child[i] for i in idx)
    sizes = [s[4] for s in spans if s[0] == FACTOR[0] and s[4]]
    out["solver.unknowns_max"] = max((a["unknowns"] for a in sizes), default=0)
    out["solver.K_nnz_max"] = max((a["K_nnz"] for a in sizes), default=0)
    out["solver.lu_nnz_max"] = max((a["lu_nnz"] for a in sizes), default=0)
    out["solver.lu_bytes_max"] = max(
        (lu_bytes(a["unknowns"], a["lu_nnz"]) for a in sizes), default=0
    )
    return out
