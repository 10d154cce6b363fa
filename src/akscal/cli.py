"""Command-line entry point.

Subcommands map one-to-one onto the library layers: `curvature` prints the
exact frame tables of a serialized frame spec, `zbound` evaluates/optimizes
an intersection model, `operator` evaluates the discrete adjoint operator,
`rearrange` runs the circle engine, `report` bundles the standard artifacts,
and `paper-suite` runs the whole verification battery (exit 0 iff every
check passes inside its runtime budget).

All artifacts are CSV with a header row; floats use 17 significant digits
and exact mode prints rationals verbatim, so outputs at a fixed seed are
byte-identical between runs.  Output directory: --out flag, else the
AKSCAL_OUT environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import ast
import csv
import math
import operator
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import lie, rearrange, zbound

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "log": np.log, "pi": math.pi,
}
_EXPR_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_EXPR_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_EXPONENT = 64.0
_MAX_NODES = 32 ** 4   # the largest grid --N admits, at Nt = N


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("AKSCAL_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    print(f"wrote {path}")


def _write_floats(path: Path, header, blocks, fh=None):
    """Write a CSV in one pass: the header, then per (prefix, columns,
    suffix) block one line prefix + row + suffix per row of the columns,
    each float a Python float from tolist() printed with "%.17g", as _fmt
    prints it.  No such cell holds a delimiter, quote or newline, so csv
    quoting never applies: these are the bytes csv.writer would write.
    fh, when given, is path already open for writing; it is closed here."""
    lines = [",".join(header) + "\n"]
    for prefix, cols, suffix in blocks:
        line = prefix + ",".join(["%.17g"] * len(cols)) + suffix + "\n"
        lines += [line % row for row in
                  zip(*(np.asarray(c, float).tolist() for c in cols))]
    with fh or open(path, "w", newline="") as fh:
        fh.write("".join(lines))
    print(f"wrote {path}")


def _load_text(path: str, kind: str) -> str:
    """Read a spec/model file; bare names fall back to the shipped data."""
    p = Path(path)
    if p.exists():
        return p.read_text()
    shipped = resources.files("akscal").joinpath("data").joinpath(path)
    if path == Path(path).name and shipped.is_file():
        return shipped.read_text()
    raise FileNotFoundError(f"{kind} file not found: {path}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_curvature(args) -> int:
    spec = lie.parse_frame_spec(_load_text(args.spec, "frame spec"))
    tab = lie.curvature_tables(spec)
    num = (lambda v: v) if args.exact else float
    scalars = {k: num(getattr(tab, k)) for k in
               ("scalar", "nabla_j_sq", "star_scalar", "hermitian_scalar")}
    out = _out_dir(args)
    m = spec.dim
    rows = [("gamma", i + 1, j + 1, k + 1, num(tab.gamma[i][j][k]))
            for i in range(m) for j in range(m) for k in range(m)
            if tab.gamma[i][j][k] != 0]
    rows += [("sectional", i + 1, j + 1, "", num(tab.sectional[i][j]))
             for i in range(m) for j in range(i + 1, m)]
    for name in ("ricci", "ricci_anti"):
        table = getattr(tab, name)
        rows += [(name, i + 1, j + 1, "", num(table[i][j]))
                 for i in range(m) for j in range(m) if table[i][j] != 0]
    rows += [(k, "", "", "", v) for k, v in scalars.items()]
    rows.append(("z_ratio", "", "", "", lie.z_ratio(spec)))
    _write_csv(out / f"curvature_{spec.name}.csv",
               ("table", "i", "j", "k", "value"), rows)
    print(f"{spec.name}: scalar = {_fmt(scalars['scalar'])}, "
          f"s* = {_fmt(scalars['star_scalar'])}, "
          f"|dJ|^2 = {_fmt(scalars['nabla_j_sq'])}")
    return 0


def cmd_zbound(args) -> int:
    model = zbound.parse_model(_load_text(args.model, "model"))
    out = _out_dir(args)
    rows = []
    if model.seed is not None:
        try:
            val = zbound.eval_z_bound(model, model.seed)
            rows.append(("eval_at_seed", " ".join(map(_fmt, model.seed)), val))
            print(f"{model.name}: value at seed = {_fmt(val)}")
        except zbound.ConeError as e:
            rows.append(("eval_at_seed", " ".join(map(_fmt, model.seed)),
                         f"cone error: {e}"))
    start = ([float(v) for v in args.start.split(",")]
             if args.start else None)
    res = zbound.optimize_z_bound(model, seed=start)
    arg = "" if res.argmax is None else " ".join(map(_fmt, res.argmax))
    rows.append(("optimum", arg, res.value))
    rows.append(("unbounded", "", "yes" if res.unbounded else "no"))
    rows.append(("iterations", "", res.iterations))
    print(f"{model.name}: optimum = {_fmt(res.value)}"
          + (" (unbounded ray)" if res.unbounded else
             f" at ({', '.join(_fmt(v) for v in res.argmax)})"))
    if args.certify:
        cert = zbound.certify_global(model, start)
        if cert is None:
            rows.append(("certificate", "", "not available for this shape"))
            print("no closed-form certificate for this model shape")
        else:
            for k in ("pairing_a", "pairing_b", "h_a", "h_b", "h_bound",
                      "y_star", "ratio_min", "global_bound"):
                rows.append((f"certificate_{k}", "", getattr(cert, k)))
            rows.append(("certificate_extremal_class",
                         " ".join(map(_fmt, cert.extremal_class)), ""))
            print(f"certified global bound {_fmt(cert.global_bound)} "
                  f"at ({', '.join(_fmt(v) for v in cert.extremal_class)})")
    _write_csv(out / f"zbound_{model.name}.csv", ("item", "class", "value"),
               rows)
    return 0


def cmd_operator(args) -> int:
    from . import operator_lab   # imports SciPy; only operator and report do
    from .grid import QuotientGrid

    if not 4 <= args.N <= 32:
        raise ValueError("N must lie in [4, 32]")
    nodes = args.N ** 3 * (args.N if args.Nt is None else args.Nt)
    if nodes > _MAX_NODES:
        raise ValueError(f"N^3 * Nt = {nodes} exceeds the bound 32^4 = "
                         f"{_MAX_NODES} grid nodes")
    # compute every table first, so a rejected --kernel-gap K or a refused
    # t-period leaves no partial artifacts; the floor before the residuals
    rep = (operator_lab.kernel_gap(args.N, args.Nt, args.d, args.variant,
                                   args.kernel_gap) if args.kernel_gap else None)
    g = QuotientGrid(args.N, args.Nt, args.d, twisted=args.variant == "kt")
    theta = g.sample(operator_lab.theta_test_field(args.d))
    rows = []
    for name, psi in (("constant", np.ones(g.size)), ("theta", theta)):
        for slot, norm in operator_lab.slot_residual_norms(g, psi).items():
            rows.append((name, f"{slot[0] + 1}{slot[1] + 1}", norm))
    sweep = operator_lab.symbol_sweep(g) if args.symbol_sweep else None

    out = _out_dir(args)
    tag = f"{args.variant}_N{args.N}"
    _write_csv(out / f"operator_residuals_{tag}.csv",
               ("field", "slot", "l2_residual"), rows)

    if sweep is not None:
        xi, dev, slope = sweep
        _write_csv(out / f"operator_symbol_{tag}.csv",
                   ("xi", "abs_ratio_minus_1"), list(zip(xi, dev)))
        if len(xi) < 2:
            print("symbol sweep: too few t-modes for a slope (raise --Nt)")
        elif math.isnan(slope):
            # symbol_sweep fits only nonzero deviations, and the flat ones
            # are 0 or a rounding error of the identity ratio 1
            print(f"symbol sweep: deviations at rounding level (largest "
                  f"{max(dev):.1e}) over {len(xi)} modes; no slope fitted")
        else:
            print(f"symbol sweep slope {slope:.4f} over {len(xi)} modes")
    if rep is not None:
        _write_csv(out / f"operator_spectrum_{tag}.csv",
                   ("index", "eigenvalue", "residual", "method", "size",
                    "kz", "kt"),
                   [(i, rep.values[i], rep.residuals[i], rep.method, rep.size,
                     *rep.sectors[i]) for i in range(len(rep.values))])
        print(f"spectral floor {_fmt(rep.floor)} ({rep.method}, "
              f"{rep.size} nodes, {rep.solved} of {g.n * g.nt} sectors "
              f"solved, {rep.pruned} pruned)")
    return 0


def _parse_field(arg: str):
    """Expression in x (vectorized) or a CSV of samples on a uniform grid."""
    path = Path(arg)
    if path.suffix == ".csv" and path.exists():
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        vals = data[:, -1]
        grid = np.arange(len(vals)) * (rearrange.CIRCLE / len(vals))
        return lambda x: np.interp(np.asarray(x) % rearrange.CIRCLE,
                                   grid, vals, period=rearrange.CIRCLE)
    try:
        tree = ast.parse(arg, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in _EXPR_NAMES \
                    and node.id != "x":
                raise ValueError(f"unknown name {node.id!r} in field expression")
        expr = _compile_expr(tree.body)
    except (SyntaxError, RecursionError) as e:
        raise ValueError(f"cannot parse field expression: {e}") from None

    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):  # NaN and inf are refused by name
            return np.broadcast_to(np.asarray(expr(x), dtype=float), x.shape)

    return f


def _literal(node) -> float | None:
    """Value of a numeric literal, optionally signed; None for anything else."""
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNOPS:
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if not (isinstance(node, ast.Constant)
            and type(node.value) in (int, float)):
        return None
    try:
        return sign * float(node.value)
    except OverflowError:
        raise ValueError("numeric literal out of range") from None


def _compile_expr(node):
    """Closure x -> value of a field expression whose names are checked.

    Only numeric literals, x, the _EXPR_NAMES functions (one positional
    argument each) and constants, and unary/binary arithmetic are allowed,
    and an exponent must be a literal of magnitude at most _MAX_EXPONENT.
    Literals become numpy floats, so no subexpression can build a huge
    Python integer.  Anything else raises ValueError before any evaluation.
    """
    value = _literal(node)
    if value is not None:
        c = np.float64(value)
        return lambda x: c
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if callable(_EXPR_NAMES[node.id]):
            raise ValueError(f"{node.id} needs an argument")
        c = np.float64(_EXPR_NAMES[node.id])
        return lambda x: c
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_EXPR_NAMES[node.func.id])):
        if len(node.args) != 1 or node.keywords:
            raise ValueError(f"{node.func.id}() takes one argument")
        fn, arg = _EXPR_NAMES[node.func.id], _compile_expr(node.args[0])
        return lambda x: fn(arg(x))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNOPS:
        op, arg = _EXPR_UNOPS[type(node.op)], _compile_expr(node.operand)
        return lambda x: op(arg(x))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        if isinstance(node.op, ast.Pow):
            p = _literal(node.right)
            if p is None or abs(p) > _MAX_EXPONENT:
                raise ValueError(f"exponent must be a number of magnitude at "
                                 f"most {_MAX_EXPONENT:g}")
        op = _EXPR_BINOPS[type(node.op)]
        left, right = _compile_expr(node.left), _compile_expr(node.right)
        return lambda x: op(left(x), right(x))
    raise ValueError(f"unsupported {type(node).__name__} in field expression")


def cmd_rearrange(args) -> int:
    f = _parse_field(args.f)
    f1 = _parse_field(args.f1)
    # solve first, so a refused plan leaves no partial artifacts
    phi, err, plan = rearrange.rearrange(f, f1, args.eps, args.p)
    out = _out_dir(args)
    dmin = phi.min_derivative()
    arcs = np.array([(a.lo, a.hi, a.level) for a in plan.arcs]).T
    # open --emit-phi's path (os.devnull without one) before the plan is
    # written, after --out is made (it may hold the path), so a path that
    # cannot be opened leaves no file
    with open(args.emit_phi or os.devnull, "w", newline="") as phi_fh:
        _write_floats(out / "rearrange_plan.csv", ("item", "a", "b", "value"),
                      (("arc,", arcs, ""),
                       ("source,", np.array(plan.sources).T, ","),
                       ("node,", (phi.nodes_from, phi.nodes_to), ","),
                       ("error,", [[err]], f",target {_fmt(args.eps)},"),
                       ("min_derivative,", [[dmin]], ",,")))
        if args.emit_phi:
            xs = np.linspace(0.0, rearrange.CIRCLE, 2049)
            cols = [xs] + [phi(xs, t) for t in (0.25, 0.5, 0.75, 1.0)] \
                + [phi.derivative(xs, 1.0)]
            _write_floats(Path(args.emit_phi),
                          ("x", "phi_t25", "phi_t50", "phi_t75", "phi_t100",
                           "derivative"), [("", cols, "")], phi_fh)
    print(f"achieved L^{_fmt(args.p)} error {_fmt(err)} < {_fmt(args.eps)}: "
          f"{err < args.eps} ({len(plan.arcs)} arcs, min derivative "
          f"{_fmt(dmin)})")
    return 0 if err < args.eps else 1


def cmd_report(args) -> int:
    out = _out_dir(args)
    made = []

    def sub(**kw):
        ns = argparse.Namespace(out=str(out), **kw)
        return ns

    cmd_curvature(sub(spec="kt.spec", exact=True))
    made.append("curvature_kt.csv")
    cmd_zbound(sub(model="cp2.model", start=None, certify=True))
    made.append("zbound_cp2.csv")
    cmd_zbound(sub(model="barlow_sigma.model", start=None, certify=True))
    made.append("zbound_barlow_sigma.csv")
    cmd_operator(sub(variant="kt", N=6, Nt=16, d=1.0, symbol_sweep=True,
                     kernel_gap=2))
    made += ["operator_residuals_kt_N6.csv", "operator_symbol_kt_N6.csv",
             "operator_spectrum_kt_N6.csv"]
    _write_csv(out / "manifest.csv", ("artifact",), [(m,) for m in made])
    return 0


def cmd_paper_suite(args) -> int:
    from . import suite

    results = suite.run_all(args.seed)
    out = _out_dir(args)
    _write_csv(out / "suite_summary.csv",
               ("check", "passed", "detail"),
               [(r.name, "pass" if r.passed else "fail", r.detail)
                for r in results])
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        budget = "" if r.in_budget else f"  [over {r.cap:.0f}s budget]"
        print(f"{r.name:<{width}}  {status}  ({r.elapsed:6.1f}s){budget}")
        print(f"{'':<{width}}        {r.detail}")
        ok &= r.passed and r.in_budget
    print("suite:", "all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="akscal",
        description="almost-Kähler scalar-curvature toolkit")
    ap.add_argument("--out", default=None,
                    help="output directory (default: $AKSCAL_OUT or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="exact frame curvature tables")
    p.add_argument("spec", help="frame spec file (shipped: kt.spec, "
                   "abelian4.spec)")
    p.add_argument("--exact", action="store_true",
                   help="print exact rationals instead of decimals")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("zbound", help="intersection-form bound functional")
    p.add_argument("model", help="model file (shipped: cp2.model, "
                   "barlow_sigma.model, r8_sigma.model)")
    p.add_argument("--start", default=None,
                   help="comma-separated start class for the optimizer")
    p.add_argument("--certify", action="store_true",
                   help="emit the closed-form certificate chain if available")
    p.set_defaults(fn=cmd_zbound)

    p = sub.add_parser("operator", help="discrete adjoint operator lab")
    p.add_argument("--variant", choices=("kt", "flat"), default="kt")
    p.add_argument("--N", type=int, default=8, help="grid points per period")
    p.add_argument("--Nt", type=int, default=None,
                   help="grid points in t (default N)")
    p.add_argument("--d", type=float, default=1.0, help="t-period")
    p.add_argument("--symbol-sweep", action="store_true",
                   help="emit the symbol-ratio decay table")
    p.add_argument("--kernel-gap", type=int, default=0, metavar="K",
                   help="emit the K smallest normal-operator eigenvalues")
    p.set_defaults(fn=cmd_operator)

    p = sub.add_parser("rearrange", help="circle rearrangement engine")
    p.add_argument("--f", required=True,
                   help="source function: expression in x or samples.csv")
    p.add_argument("--f1", required=True,
                   help="target function: expression in x or samples.csv")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--emit-phi", default=None, metavar="PHI_CSV",
                   help="write dense isotopy samples to this file")
    p.set_defaults(fn=cmd_rearrange)

    p = sub.add_parser("report", help="standard artifact bundle")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("paper-suite", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_paper_suite)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, rearrange.PlanError) as e:
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
