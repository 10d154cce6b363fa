"""One-shot verification battery.

Each check_* function exercises one headline property of the package and
returns a CheckResult; run_all collects them in order.  The CLI's
paper-suite subcommand and the acceptance test module both drive these, so
pass/fail logic lives in exactly one place.  The operator lab, and with it
SciPy, is imported inside the four checks that use it, before their clocks
start.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact, lie, rearrange, tensor, zbound


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    cap: float          # runtime budget in seconds

    @property
    def in_budget(self) -> bool:
        return self.elapsed < self.cap


def _result(name, cap, t0, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0, cap)


def check_curvature_tables(seed: int = 0) -> CheckResult:
    """Exact rational frame tables of the sheared quotient, the Riemann
    tensor checked entry for entry against the Cartan route."""
    t0 = time.perf_counter()
    spec = lie.kt_spec(1)
    tab = lie.curvature_tables(spec)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    checks = {
        "gamma_122": tab.gamma[0][1][2] == half,
        "K12": tab.sectional[0][1] == Fraction(-3, 4),
        "K13": tab.sectional[0][2] == quarter,
        "K23": tab.sectional[1][2] == quarter,
        "K_i4": all(tab.sectional[i][3] == 0 for i in range(3)),
        "ricci": all(tab.ricci[i][j] == (0 if i != j else
                     [-half, -half, half, 0][i])
                     for i in range(4) for j in range(4)),
        "scalar": tab.scalar == -half,
        "r_minus": all(tab.ricci_anti[i][j] == (0 if i != j else
                       [-quarter, -half, half, quarter][i])
                       for i in range(4) for j in range(4)),
        "exact_types": exact.is_exact(tab.gamma) and exact.is_exact(tab.ricci),
        "cartan": all(a == b for a, b in zip(
            tab.riemann.flat, lie.curvature_cartan(spec).flat)),
    }
    bad = [k for k, ok in checks.items() if not ok]
    return _result("kt-curvature-tables", 1.0, t0, not bad,
                   "all exact rational values match" if not bad
                   else f"mismatch: {bad}")


def check_star_scalar(seed: int = 0) -> CheckResult:
    """s* - s = half the squared frame derivative of J, two routes, exact."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for spec, want in ((lie.kt_spec(1), Fraction(2)),
                       (lie.abelian_spec(1), Fraction(0))):
        vec = lie.nabla_j_norm_sq(spec, route="vectors")
        frm = lie.nabla_j_norm_sq(spec, route="forms")
        tab = lie.curvature_tables(spec)
        gap = tab.star_scalar - tab.scalar
        good = vec == frm == want and gap == Fraction(want, 2)
        ok &= good
        rows.append(f"{spec.name}: |dJ|^2 = {vec} (routes agree: {vec == frm}),"
                    f" s*-s = {gap}")
    return _result("star-scalar-identity", 1.0, t0, ok, "; ".join(rows))


def check_bound_values(seed: int = 0) -> CheckResult:
    """Headline bound evaluations, optimum, and unboundedness flag."""
    t0 = time.perf_counter()
    cp2 = zbound.eval_z_bound(zbound.cp2_model(), [1.0])
    cp2_err = abs(cp2 - 12.0 * math.sqrt(2.0) * math.pi)

    res = zbound.optimize_z_bound(zbound.barlow_sigma_model())
    val_err = abs(res.value - (-12.0 * math.pi))
    target = np.array([-3.0] + [1.0] * 8 + [2.0])
    arg = np.asarray(res.argmax)
    cosang = float(arg @ target / (np.linalg.norm(arg) * np.linalg.norm(target)))
    angular = math.acos(min(1.0, max(-1.0, cosang)))

    ray = zbound.optimize_z_bound(zbound.r8_sigma_model())
    ok = (cp2_err <= 1e-9 and val_err <= 1e-6 and angular <= 1e-4
          and ray.unbounded and math.isinf(ray.value))
    return _result(
        "bound-values", 10.0, t0, ok,
        f"cp2 err {cp2_err:.2e}; optimum err {val_err:.2e}, angular "
        f"{angular:.2e}, {res.iterations} iters; reversed-chern ray -> +inf: "
        f"{ray.unbounded}")


def check_certificates(seed: int = 0) -> CheckResult:
    """Closed-form maximum of the substitution function and the y-ratio."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        a = -float(rng.uniform(1.0 / 3.0, 3.0))
        b = -float(rng.uniform(1.0 / 3.0, 3.0))
        x_star, h_max = zbound.h_function_max(a, b)
        xs = np.geomspace(x_star / 8.0, x_star * 8.0, 2001)
        k = int(np.argmax(zbound.h_function(a, b, xs)))
        lo, hi = xs[max(k - 2, 0)], xs[min(k + 2, len(xs) - 1)]
        fine = np.linspace(lo, hi, 20001)
        grid_max = float(zbound.h_function(a, b, fine).max())
        worst = max(worst, abs(h_max - grid_max))
    y_star, ratio = zbound.y_ratio_min()
    ys = np.linspace(0.0, 1.0 - 1e-6, 400001)
    sweep_min = float(zbound.y_ratio(ys).min())
    ok = (worst <= 1e-9 and y_star == 8.0 / 9.0 and ratio == 1.0
          and sweep_min >= 1.0 - 1e-6)
    return _result(
        "analytic-certificates", 5.0, t0, ok,
        f"h-max worst grid gap {worst:.2e} over 100 draws; y* = {y_star}, "
        f"ratio {ratio}, sweep min {sweep_min:.12f}")


def check_collapsing(seed: int = 0) -> CheckResult:
    """Scalar-times-volume^(1/n) along the shrinking-fiber family."""
    t0 = time.perf_counter()
    vals = []
    ok = True
    for d in (1.0, 0.1, 0.01):
        r = lie.z_ratio(lie.kt_spec(Fraction(d).limit_denominator(100)))
        ok &= abs(r - (-math.sqrt(d) / 2.0)) <= 1e-12
        vals.append(r)
    ok &= abs(vals[0]) > abs(vals[1]) > abs(vals[2]) > 0
    return _result("collapsing-family", 1.0, t0, ok,
                   "ratios " + ", ".join(f"{v:.6f}" for v in vals)
                   + " -> 0 monotonically")


def check_symbol(seed: int = 0) -> CheckResult:
    """Flat symbol identity to rounding; sheared correction decay, at N = 8."""
    from . import operator_lab
    from .grid import QuotientGrid

    t0 = time.perf_counter()
    n = 8
    # 134 flat modes in their 15 (kz, kt) sectors, 9 (kx, ky) columns each
    low = range(n // 4 + 1)
    modes = [(kx, ky, kz, kt) for kx in low for ky in low for kz in low
             for kt in range(2 * n // 4 + 1) if kx or ky or kz or kt]
    flat = QuotientGrid(n, 2 * n, 1.0, twisted=False)
    worst = float(np.max(np.abs(operator_lab.symbol_ratios(flat, modes) - 1.0)))
    h2 = 5.0 / n ** 2
    _, dev, slope = operator_lab.symbol_sweep(QuotientGrid(n, 2 * n, 1.0))
    ok = worst <= h2 and slope <= -0.8
    return _result(
        "symbol-check", 30.0, t0, ok,
        f"flat worst |ratio-1| {worst:.2e} (cap {h2:.3f}) to half-Nyquist; "
        f"sheared sweep slope {slope:.3f} (cap -0.8), deviations "
        f"{dev[0]:.1e}..{dev[-1]:.1e}")


def check_kernel_gap(seed: int = 0) -> CheckResult:
    """Spectral floor: flat kernel present, sheared gap stable at N=6,8."""
    from . import operator_lab

    t0 = time.perf_counter()
    floors = {}
    lines = []
    ok = True
    for n in (6, 8):
        flat = operator_lab.kernel_gap(n, n, 1.0, "flat", k=2)
        kt = operator_lab.kernel_gap(n, variant="kt", k=2)
        const_resid = flat.constant_residual
        ok &= flat.floor <= 1e-8 and const_resid <= 1e-8
        ok &= kt.floor >= 1e3 * (flat.floor + 1e-8)
        ok &= max(np.abs(flat.residuals).max(), np.abs(kt.residuals).max()) < 1e-8
        floors[n] = kt.floor
        lines.append(f"N={n}: flat {flat.floor:.1e} (const resid "
                     f"{const_resid:.1e}), sheared {kt.floor:.6f}")
    drift = abs(floors[6] - floors[8]) / min(floors.values())
    ok &= drift < 0.5
    return _result("kernel-gap", 2.0, t0, ok,
                   "; ".join(lines) + f"; drift {drift:.2%}")


def check_hessian_routes(seed: int = 0) -> CheckResult:
    """Two independent Hessian discretizations contract at 2nd order."""
    from . import operator_lab

    t0 = time.perf_counter()
    fields = [operator_lab.random_invariant_field(1.0, seed + k)
              for k in range(3)]
    orders = [fit.order_l2
              for fit in operator_lab.richardson_orders(field=fields)]
    ok = all(o >= 1.9 for o in orders)
    return _result("hessian-route-fidelity", 5.0, t0, ok,
                   "L2 orders " + ", ".join(f"{o:.3f}" for o in orders)
                   + " on 3 random fields (need >= 1.9)")


def check_rearrangement(seed: int = 0) -> CheckResult:
    """Target battery, positivity along the isotopy, infeasible rejection."""
    t0 = time.perf_counter()
    zero = lambda x: 0.0 * np.asarray(x, float)
    parts = []
    ok = True
    for eps in (0.2, 0.1, 0.05):
        phi, err, plan = rearrange.rearrange(np.sin, zero, eps, p=2.0)
        dmin = min(phi.min_derivative(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0))
        ident = float(np.max(np.abs(phi(np.linspace(0, rearrange.CIRCLE, 501),
                                        0.0)
                                    - np.linspace(0, rearrange.CIRCLE, 501))))
        ok &= err < eps and dmin > 0 and ident == 0.0 and plan.budget_ok()
        parts.append(f"eps {eps}: err {err:.4f}, min phi' {dmin:.1e}")
    try:
        rearrange.build_plan(np.sin, lambda x: 0 * np.asarray(x) + 2.0, 0.1)
        ok = False
        parts.append("infeasible target NOT rejected")
    except rearrange.PlanError as e:
        ok &= e.reason == "range" and e.bound > 0
        parts.append(f"infeasible target rejected ({e.reason}: every "
                     f"diffeomorphism misses by >= {e.bound:.4g})")
    return _result("rearrangement", 10.0, t0, ok, "; ".join(parts))


def check_property_suites(seed: int = 0) -> CheckResult:
    """Randomized invariants: projections, pairing, bound symmetries."""
    from . import operator_lab
    from .grid import QuotientGrid

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    j0 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))

    # 500 cases in one stack: draws[k] holds case k's normals for q, then
    # for A, in the order of a case-by-case draw, so the checks below see
    # the same stream; np.allclose is judged per case
    draws = rng.standard_normal((500, 2, 4, 4))
    q, _ = np.linalg.qr(draws[:, 0])
    j = np.swapaxes(q, -1, -2) @ j0 @ q
    jt = np.swapaxes(j, -1, -2)
    a = draws[:, 1] + np.swapaxes(draws[:, 1], -1, -2)
    am = tensor.anti_invariant_part(a, j)
    ap = tensor.invariant_part(a, j)

    def close(x, y, atol):
        return np.isclose(x, y, atol=atol).all(axis=(-2, -1))

    good = (close(am + ap, a, 1e-12)
            & close(tensor.anti_invariant_part(am, j), am, 1e-12)
            & close(jt @ am @ j, -am, 1e-11)
            & close(jt @ ap @ j, ap, 1e-11))
    h = 0.2 * am
    g2 = tensor.exp_metric(np.eye(4), h)
    good &= close(tensor.log_recover(np.eye(4), g2), h, 1e-9)
    proj_bad = int(np.count_nonzero(~good))

    # 50 pairing cases as the columns of one block, drawn case by case
    g = QuotientGrid(4, 4, 1.0)
    draws = rng.standard_normal((50, 7, g.size))
    psi, u = draws[:, 0].T, draws[:, 1:].transpose(1, 2, 0)
    basis, slots = operator_lab._anti_slots_of(
        operator_lab.hessian_ops_frame(g, psi), g, psi)
    lhs = np.einsum("s,sik,sik->k", basis.weights, slots, u)
    rhs = np.sum(psi * operator_lab.slot_adjoint(g, u), axis=0)
    scale = (np.linalg.norm(draws[:, 0], axis=1)
             * np.linalg.norm(draws[:, 1:], axis=(1, 2)))
    pair_worst = float(np.max(np.abs(lhs - rhs) / scale))
    h2 = (1.0 / g.n) ** 2

    base = zbound.barlow_sigma_model()
    beta0 = np.array(base.seed)
    iso_worst = 0.0
    scale_worst = 0.0
    v0 = zbound.eval_z_bound(base, beta0)
    for _ in range(100):
        u = np.eye(base.rank, dtype=int)
        for _ in range(4):
            i, j = rng.integers(0, base.rank, size=2)
            if i != j:
                u[i] += int(rng.integers(-1, 2)) * u[j]
        q2 = u.T @ np.asarray(base.q, dtype=int) @ u
        c12 = np.rint(np.linalg.solve(u, np.asarray(base.c1, float))).astype(int)
        m2 = zbound.make_model("conj", q2, c12, n=3,
                               fiber_chern=base.fiber_chern)
        b2 = np.concatenate([np.linalg.solve(u, beta0[:-1]), beta0[-1:]])
        iso_worst = max(iso_worst,
                        abs(zbound.eval_z_bound(m2, b2) - v0) / abs(v0))
        s = float(rng.uniform(0.1, 10.0))
        scale_worst = max(scale_worst,
                          abs(zbound.eval_z_bound(base, s * beta0) - v0)
                          / abs(v0))
    ok = (proj_bad == 0 and pair_worst <= h2 and pair_worst <= 1e-12
          and iso_worst <= 1e-9 and scale_worst <= 1e-9)
    return _result(
        "property-suites", 60.0, t0, ok,
        f"projection/round-trip 500 cases ({proj_bad} bad); pairing worst "
        f"{pair_worst:.1e} (cap {h2:.1e}); basis-change worst {iso_worst:.1e},"
        f" scaling worst {scale_worst:.1e} over 100 each")


ALL_CHECKS = (
    check_curvature_tables,
    check_star_scalar,
    check_bound_values,
    check_certificates,
    check_collapsing,
    check_symbol,
    check_kernel_gap,
    check_hessian_routes,
    check_rearrangement,
    check_property_suites,
)


def run_all(seed: int = 0) -> list:
    return [fn(seed) for fn in ALL_CHECKS]
