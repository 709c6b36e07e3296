"""The ``evohom`` command line.

Subcommands
-----------
run         solve one oscillatory run and print component norms as CSV
sweep       run a convergence study and print/write the report CSV
limits      print a family's homogenised law (text grammar + numeric CSV)
quadrature  dump one weighted Radau rule (nodes, weights, moments) as CSV
oracle      evaluate the closed-form reference solutions
describe    summarise a run's mesh, spaces, and unknown counts

Exit codes: 0 on success, 2 on solver failure (numerical breakdown),
3 on validation failure (bad ids, malformed options, config errors) and
on an ``--out`` path that cannot be written, which is opened before solving.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .analytic import (
    bessel_i0,
    i0_antiderivative,
    ode_exact,
    series_closed_form,
    series_material_law,
)
from .experiments import (
    ExperimentSpec,
    convergence_sweep,
    run_problem,
    solution_norms,
)
from .homogenise import build_limit_law
from .laws import augment_memory, entry_blocks, eval_material_law, serialize_law
from .reporting import write_csv
from .solver import _solve_basis, solve_evolution
from .timequad import build_radau_rule, weighted_moments

__all__ = ["main"]

# Run knobs beside example and n: flag type and help text.  Their
# defaults are ExperimentSpec's.
_KNOBS = {
    "slabs": (int, "time slabs"),
    "rho": (float, "quadrature weight"),
    "degree": (int, "element degree"),
    "T": (float, "final time"),
}

# Representative sample points for the numeric tensors of each limit law:
# one inside the (former) oscillation region, one outside where present.
_LIMIT_POINTS = {
    "EX2": (("cell", 0.5),),
    "EX3": (("coupling", -0.5), ("oscillation", 0.5)),
    "EX4": (("inside", (0.0, 0.0)), ("outside", (1.5, 1.5))),
    "EX5": (("inside", (0.0, 0.0)), ("outside", (1.5, 1.5))),
    "MAXWELL": (("inside", 0.0), ("outside", 1.5)),
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors become validation failures."""

    def error(self, message):
        raise ValueError(message)


def _fmt(v):
    if isinstance(v, complex):
        if v.imag == 0.0:
            v = v.real
        else:
            return f"{v.real:.12e}{v.imag:+.12e}j"
    return f"{float(v):.12e}"


def _read_config(path):
    """Plain-text key-value run configuration (one ``key = value`` per line,
    ``#`` comments); keys mirror the experiment-spec fields."""
    allowed = {"example", "n", "n_list", *_KNOBS}
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, val = key.strip(), val.strip()
        if key not in allowed:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; allowed: "
                + ", ".join(sorted(allowed))
            )
        out[key] = val
    return out


def _n_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}: {exc}") from exc


def _spec(args, *, need_n):
    """The ExperimentSpec of the parsed ``run`` or ``sweep`` arguments."""
    if args.example is None:
        raise ValueError("an example id is required (--example or config)")
    if need_n and args.n is None:
        raise ValueError("an oscillation index is required (--n or config)")
    n_list = (args.n,) if need_n else args.n_list or ()
    knobs = {key: getattr(args, key) for key in _KNOBS if getattr(args, key) is not None}
    return ExperimentSpec(args.example, n_list, **knobs)


def _add_run_knobs(parser, *, need_n):
    parser.add_argument("--example", help="family id (EX1..EX5)")
    if need_n:
        parser.add_argument("--n", type=int, help="oscillation index")
    else:
        parser.add_argument(
            "--n-list", dest="n_list", type=_n_list, help="comma-separated indices, e.g. 2,4,8"
        )
    for key, (cast, text) in _KNOBS.items():
        default = getattr(ExperimentSpec, key)
        parser.add_argument(f"--{key}", type=cast, help=f"{text} (default {default:g})")
    parser.add_argument("--config", help="key = value file with the same fields")


def _cmd_run(args):
    spec = _spec(args, need_n=True)
    n = spec.n_list[0]
    sol = solve_evolution(run_problem(spec, n))
    rows = [(n, f"norm_{name}", value) for name, value in solution_norms(sol).items()]
    write_csv(sys.stdout, spec.example, rows)
    return 0


def _cmd_sweep(args):
    spec = _spec(args, need_n=False)
    report = convergence_sweep(
        spec, out=args.out, jobs=args.jobs, reference_level=args.reference_level
    )
    write_csv(sys.stdout, spec.example, report.rows)
    return 0


def _cmd_limits(args):
    law = build_limit_law(args.example)
    z = complex(args.z)
    if z.imag == 0.0:
        z = z.real
    lines = [serialize_law(law)]
    if law.memory:
        aug = augment_memory(law)
        lines.append(
            f"# intrinsic elimination: {law.ncomp} -> {aug.law.ncomp} components"
        )
    lines += ["", "tensor,where,i,j,value"]
    names = ("M0", "M1", f"M(z={args.z})")
    for where, x in _LIMIT_POINTS[args.example.upper()]:
        m0 = entry_blocks(law, law.m0, [x])[0]
        m1 = entry_blocks(law, law.m1, [x])[0]
        mz = eval_material_law(law, z, [x])[0]
        for tag, mat in zip(names, (m0, m1, mz)):
            for i in range(law.ncomp):
                for j in range(law.ncomp):
                    v = mat[i, j]
                    if v != 0:
                        lines.append(f"{tag},{where},{i},{j},{_fmt(v)}")
    print("\n".join(lines))
    return 0


def _cmd_quadrature(args):
    rule = build_radau_rule((0.0, args.h), args.rho)
    moments = weighted_moments(args.h, args.rho, 2)
    print("kind,index,value")
    for i, t in enumerate(rule.nodes):
        print(f"node,{i},{_fmt(t)}")
    for i, w in enumerate(rule.weights):
        print(f"weight,{i},{_fmt(w)}")
    for i, m in enumerate(moments):
        print(f"moment,{i},{_fmt(m)}")
    return 0


def _cmd_oracle(args):
    which = args.which
    if which == "ode":
        if args.n is None or args.t is None or args.x is None:
            raise ValueError("oracle ode needs --n, --t, and --x")
        rows = [("u_osc", float(ode_exact(args.n, args.t, args.x)))]
    elif which == "hom":
        if args.t is None:
            raise ValueError("oracle hom needs --t")
        value = float(i0_antiderivative(args.t))  # u_hom of the unit step
        rows = [("u_hom", value), ("i0_antiderivative", value)]
    elif which == "i0":
        if args.t is None:
            raise ValueError("oracle i0 needs --t")
        rows = [("i0", float(bessel_i0(args.t)))]
    else:  # series
        if args.z is None:
            raise ValueError("oracle series needs --z")
        z = complex(args.z)
        if z.imag == 0.0:
            z = z.real
        rows = [("series_truncated", series_material_law(z))]
        rows += [("series_closed", series_closed_form(z))]
    print("\n".join(["name,value"] + [f"{name},{_fmt(v)}" for name, v in rows]))
    return 0


def _cmd_describe(args):
    spec = ExperimentSpec(
        args.example,
        (args.n,) if args.n is not None else (),
    )
    n = spec.n_list[0]
    problem = run_problem(spec, n)
    print(f"example   {spec.example}")
    print(f"n         {n}")
    print(f"law       {problem.law.label}")
    for name, space in zip(problem.law.component_names, problem.spaces):
        print(f"component {name}: {space.ndof} dof")
    width, ndof = _solve_basis(problem).shape[1], problem.ndof
    print(f"unknowns  {width} complex per slab on the solve basis, of {ndof} stacked DOFs")
    print(f"slabs     {problem.grid.num_slabs} on [0, {problem.grid.T}]")
    print(f"rho       {problem.rho}")
    return 0


def _build_parser():
    parser = _Parser(prog="evohom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one oscillatory run")
    _add_run_knobs(p_run, need_n=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="convergence study over n")
    _add_run_knobs(p_sweep, need_n=False)
    p_sweep.add_argument("--out", help="also write the report CSV here")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel solves, reference included"
    )
    p_sweep.add_argument(
        "--reference-level",
        type=int,
        default=0,
        choices=(0, 1),
        help="1: every reference cell split in two (self-consistency checks)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_lim = sub.add_parser("limits", help="print a homogenised limit law")
    p_lim.add_argument("--example", required=True, help="EX2..EX5 or MAXWELL")
    p_lim.add_argument(
        "--z", default="3.0", help="evaluation point for M(z) (Re z > nu0)"
    )
    p_lim.set_defaults(func=_cmd_limits)

    p_quad = sub.add_parser("quadrature", help="dump one weighted Radau rule")
    p_quad.add_argument("--h", type=float, required=True, help="slab length")
    p_quad.add_argument("--rho", type=float, default=0.0, help="weight rate")
    p_quad.set_defaults(func=_cmd_quadrature)

    p_or = sub.add_parser("oracle", help="closed-form reference values")
    p_or.add_argument(
        "--which", required=True, choices=("ode", "hom", "i0", "series")
    )
    p_or.add_argument("--n", type=int, help="oscillation index (ode)")
    p_or.add_argument("--t", type=float, help="time (ode, hom, i0)")
    p_or.add_argument("--x", type=float, help="position (ode)")
    p_or.add_argument("--z", help="complex evaluation point (series)")
    p_or.set_defaults(func=_cmd_oracle)

    p_desc = sub.add_parser("describe", help="mesh/space summary of one run")
    p_desc.add_argument("--example", required=True)
    p_desc.add_argument("--n", type=int, help="oscillation index")
    p_desc.set_defaults(func=_cmd_describe)

    return parser, sub.choices


def _parse(argv):
    """Parse ``argv``; a ``--config`` file's values become the defaults of
    its subcommand and the line is parsed again, so argparse converts and
    checks them like flags, and a flag overrides them."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        commands[args.command].set_defaults(**_read_config(args.config))
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    try:
        args = _parse(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"evohom: error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"evohom: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
