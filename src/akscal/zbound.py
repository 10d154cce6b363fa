"""Cohomological scalar-curvature bounds from intersection-form data.

A model holds the integer intersection lattice (Q, c1) of a closed 4-manifold,
optionally extended to a product with a surface of fiber Chern number 2 - 2g
(complex dimension n = 3 instead of 2).  For a symplectic class the bound

    Z = 4 pi (c1 . [omega]^(n-1) / (n-1)!) / ([omega]^n / n!)^((n-1)/n)

is evaluated exactly from lattice pairings, maximized over a component of the
positive cone by projected gradient ascent (the bound is scale-invariant, so
one scale is pinned), and — for two special lattice shapes — certified by a
closed-form argument reducing to the scalar functions h_function_max and
y_ratio below.  The value, its gradient, the cone test, the fiber-ray test
and the certificate all read their pairings from _pairings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exact

CONE_EPS = 1e-9
UNBOUNDED_THRESHOLD = 1e6
_MAX_ASCENT_STEPS = 5000
_GRAD_TOL = 1e-8         # stop once |grad| <= this * (1 + |value|)


class ConeError(ValueError):
    """Class is outside the positive cone the bound is defined on."""


@dataclass(frozen=True, eq=False)
class IntersectionModel:
    """Integer intersection data; fiber_chern is None for plain 4-manifolds."""

    name: str
    q: np.ndarray
    c1: np.ndarray
    n: int
    fiber_chern: Optional[int] = None
    chi: Optional[int] = None
    tau: Optional[int] = None
    seed: Optional[tuple] = None

    @property
    def rank(self) -> int:
        return self.q.shape[0]

    @property
    def class_dim(self) -> int:
        return self.rank + (1 if self.n == 3 else 0)


def make_model(name, q, c1, n=2, fiber_chern=None, chi=None, tau=None,
               seed=None) -> IntersectionModel:
    q, c1 = _finite(q, "Q"), _finite(c1, "c1")
    for key, v in (("Q", q), ("c1", c1)):   # refused, not truncated
        if not (np.all(v == np.round(v)) and np.all(np.abs(v) <= 2.0 ** 53)):
            raise ValueError(f"{key} must have integer entries of at most 2^53")
    q, c1 = q.astype(np.int64), c1.astype(np.int64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("Q must be a square matrix")
    if (q != q.T).any():
        raise ValueError("Q must be symmetric")
    if abs(round(float(np.linalg.det(q.astype(float))))) != 1:
        raise ValueError("Q must be unimodular")
    if c1.shape != (q.shape[0],):
        raise ValueError("c1 length must match the rank of Q")
    if n not in (2, 3):
        raise ValueError("complex dimension n must be 2 or 3")
    if (fiber_chern is None) == (n == 3):
        raise ValueError("fiber_chern is required exactly when n = 3")
    ints = {"fiber_chern": fiber_chern, "chi": chi, "tau": tau}
    for key, v in ints.items():
        if v is not None and (isinstance(v, bool)
                              or not isinstance(v, numbers.Integral)):
            raise ValueError(f"{key} must be an integer, got {v!r}")
        ints[key] = None if v is None else int(v)
    if seed is not None:
        seed = _finite(seed, "seed")
        if seed.shape != (q.shape[0] + (1 if n == 3 else 0),):
            raise ValueError("seed length must match the class dimension")
        seed = tuple(seed.tolist())
    return IntersectionModel(str(name), q, c1, int(n), seed=seed, **ints)


# ---------------------------------------------------------------------------
# shipped lattices


def cp2_model() -> IntersectionModel:
    return make_model("cp2", [[1]], [3], n=2, chi=3, tau=1, seed=(1.0,))


def _sigma_product(name: str, flip: bool) -> IntersectionModel:
    q = np.diag([1] + [-1] * 8)
    c1 = np.array([3] + [-1] * 8)
    beta = -c1 if not flip else c1.copy()
    return make_model(name, q, c1, n=3, fiber_chern=-2, chi=11, tau=-7,
                      seed=tuple(float(v) for v in beta) + (1.0,))


def barlow_sigma_model() -> IntersectionModel:
    """Genus-2 surface times the minimal general-type surface with K^2 = 1:
    the shipped seed sits in the cone component where the bound is finite."""
    return _sigma_product("barlow_sigma", flip=False)


def r8_sigma_model() -> IntersectionModel:
    """Same lattice as barlow_sigma (the two 4-manifolds are homeomorphic);
    the seed sits in the opposite cone component, where the bound blows up."""
    return _sigma_product("r8_sigma", flip=True)


# ---------------------------------------------------------------------------
# file format


_MODEL_INTS = ("n", "rank", "fiber_chern", "chi", "tau")


def parse_model(text: str) -> IntersectionModel:
    """Parse the plain-text lattice format (see FORMATS.md).

    A line with an unknown key, no value or a malformed number raises a
    ValueError that names its line number.
    """
    name, ints, seed = "model", {"n": 2}, None
    q_rows, c1 = [], None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        key, rest = tok[0], tok[1:]
        if key == "name":
            name = " ".join(rest)
            continue
        if key not in _MODEL_INTS + ("Q", "c1", "seed"):
            raise ValueError(f"line {ln}: unknown key {key!r}")
        if not rest:
            raise ValueError(f"line {ln}: {key} needs a value")
        try:
            if key == "Q":
                q_rows.append([int(v) for v in rest])
            elif key == "c1":
                c1 = [int(v) for v in rest]
            elif key == "seed":
                seed = [float(v) for v in rest]
            else:
                ints[key] = int(rest[0])
        except ValueError:
            raise ValueError(f"line {ln}: malformed {key} value "
                             f"{' '.join(rest)!r}") from None
        if key == "seed" and not all(map(math.isfinite, seed)):
            raise ValueError(f"line {ln}: seed has a non-finite entry")
    rank = ints.get("rank")
    if rank is not None and len(q_rows) != rank:
        raise ValueError(f"expected {rank} Q rows, got {len(q_rows)}")
    if c1 is None:
        raise ValueError("missing c1 line")
    return make_model(name, q_rows, c1, n=ints["n"],
                      fiber_chern=ints.get("fiber_chern"), chi=ints.get("chi"),
                      tau=ints.get("tau"), seed=seed)


def serialize_model(m: IntersectionModel) -> str:
    out = [f"name {m.name}", f"n {m.n}", f"rank {m.rank}"]
    out += ["Q " + " ".join(str(v) for v in row) for row in m.q]
    out.append("c1 " + " ".join(str(v) for v in m.c1))
    if m.fiber_chern is not None:
        out.append(f"fiber_chern {m.fiber_chern}")
    if m.chi is not None:
        out.append(f"chi {m.chi}")
    if m.tau is not None:
        out.append(f"tau {m.tau}")
    if m.seed is not None:
        out.append("seed " + " ".join(map(repr, m.seed)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# pairings and the bound


def _finite(x, name="class"):
    """x as a float array; a complex, non-numeric, NaN or infinite entry is
    refused by name."""
    x = exact.to_float(x, name)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has a non-finite entry")
    return x


def _pairings(m: IntersectionModel, cls):
    """(a, b, beta, ell) of a class: a = beta.Q.beta and b = c1.Q.beta of its
    lattice part beta, and its fiber coefficient ell (None when n = 2)."""
    cls = np.asarray(cls, dtype=float)
    if cls.shape != (m.class_dim,):
        raise ValueError(f"class must have {m.class_dim} components, got {cls.shape}")
    beta, ell = (cls[:-1], float(cls[-1])) if m.n == 3 else (cls, None)
    return float(beta @ m.q @ beta), float(m.c1 @ m.q @ beta), beta, ell


def _top_chern(m: IntersectionModel, a, b, ell):
    """[omega]^n and c1(total).[omega]^(n-1); 3la and fiber_chern.a + 2lb."""
    if m.n == 2:
        return a, b
    return 3.0 * ell * a, m.fiber_chern * a + 2.0 * ell * b


def _cone_defect(m: IntersectionModel, cls) -> Optional[str]:
    """Why the class is outside the positive cone (a ConeError message), or None.

    The top power is compared against a scale of its bi-homogeneity (degree 2
    in beta, 1 in l), so the test holds on very anisotropic classes."""
    a, b, beta, ell = _pairings(m, cls)
    t = _top_chern(m, a, b, ell)[0]
    scale = float(beta @ beta) * (1.0 if m.n == 2 else 3.0 * abs(ell))
    if t <= CONE_EPS * scale:
        return (f"class has non-positive top power {t:.3g} (scaled to a "
                f"largest |entry| in [1/2, 1))")
    if m.n == 3 and ell <= 0:
        return "fiber coefficient must be positive"
    return None


def _bound(m: IntersectionModel, cls, grad=False):
    """The bound at a cone class; with grad=True, (value, gradient)."""
    a, b, beta, ell = _pairings(m, cls)
    t, c = _top_chern(m, a, b, ell)
    k4pi = 4.0 * math.pi / math.factorial(m.n - 1)
    fact = math.factorial(m.n)
    p = (m.n - 1) / m.n
    u = t / fact
    val = k4pi * c / u ** p
    if not grad:
        return val
    qb = m.q @ beta
    qc = m.q @ m.c1
    if m.n == 2:
        dt = 2.0 * qb
        dc = np.asarray(qc, dtype=float)
    else:
        dt = np.concatenate([6.0 * ell * qb, [3.0 * a]])
        dc = np.concatenate([2.0 * m.fiber_chern * qb + 2.0 * ell * qc, [2.0 * b]])
    return val, k4pi * (dc * u ** (-p) - c * p * u ** (-p - 1) * dt / fact)


def _rescaled(x: np.ndarray) -> np.ndarray:
    """x scaled by the power of two that puts its largest |entry| in [1/2, 1).

    The scale is exact and the bound and the cone are scale-invariant, so no
    pairing of a huge or tiny class overflows or underflows, and a class
    differing from another by a power of two gives the same floats."""
    return np.ldexp(x, -np.frexp(np.max(np.abs(x), initial=0.0))[1])


def eval_z_bound(m: IntersectionModel, cls) -> float:
    """The scale-invariant bound at one symplectic class (top power must be > 0)."""
    cls = _rescaled(_finite(cls))
    defect = _cone_defect(m, cls)
    if defect:
        raise ConeError(defect)
    return _bound(m, cls)


def _normalize(m: IntersectionModel, cls):
    if m.n == 3:
        return cls * (2.0 / cls[-1])
    return cls / math.sqrt(_pairings(m, cls)[0])


@dataclass(frozen=True)
class ZBoundResult:
    value: float
    argmax: Optional[np.ndarray]
    unbounded: bool
    iterations: int
    grad_norm: float


def optimize_z_bound(m: IntersectionModel, seed=None) -> ZBoundResult:
    """Maximize the bound over the cone component of the seed class.

    Backtracking gradient ascent with the scale pinned each step (fiber
    coefficient 2 for products, unit top power for 4-manifolds).  Along the
    fiber ray l -> inf of a product the bound grows like l^(1/3) b, so a seed
    with b = c1.Q.beta > 0 reports the supremum +inf at once; so does a value
    exceeding 1e6 during the ascent.  An infinite supremum has no argmax.
    """
    if seed is None:
        seed = m.seed
    if seed is None:
        raise ValueError("no seed class: pass one or ship one with the model")
    x = _rescaled(_finite(seed, "seed class"))
    if _cone_defect(m, x):
        raise ConeError("seed class is outside the positive cone")
    if m.n == 3 and _pairings(m, x)[1] > 0:
        return ZBoundResult(math.inf, None, True, 0, math.nan)
    x = _normalize(m, x)
    val, g = _bound(m, x, grad=True)
    step = 1.0
    it = 0
    for it in range(1, _MAX_ASCENT_STEPS + 1):
        gn = float(np.linalg.norm(g))
        if gn <= _GRAD_TOL * (1.0 + abs(val)):
            break
        accepted = False
        t = step
        for _ in range(60):
            y = x + t * g
            if _cone_defect(m, y) is None:
                y = _normalize(m, y)
                v_new, g_new = _bound(m, y, grad=True)
                if v_new >= val + 1e-4 * t * gn * gn:
                    # Barzilai-Borwein curvature estimate seeds the next trial
                    # step; plain steepest ascent zigzags on this quotient.
                    dx, dg = y - x, g_new - g
                    num, den = -float(dx @ dg), float(dg @ dg)
                    step = num / den if (den > 0 and num > 0) else min(t * 2.0, 1e3)
                    x, val, g = y, v_new, g_new
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
        if val > UNBOUNDED_THRESHOLD:
            return ZBoundResult(math.inf, None, True, it, float(np.linalg.norm(g)))
    return ZBoundResult(val, x, False, it, float(np.linalg.norm(g)))


# ---------------------------------------------------------------------------
# closed-form certificate pieces


def h_function(a: float, b: float, x) -> float:
    """h(x) = (2/3^(2/3)) (a/x^2 + x/b): the one-variable reduction of the
    bound along a fixed-direction slice after optimizing the fiber scale."""
    x = np.asarray(x, dtype=float)
    if b == 0 or np.any(x == 0):
        raise ValueError("h_function needs b != 0 and x != 0")
    return 2.0 / 3.0 ** (2.0 / 3.0) * (a / x ** 2 + x / b)


def h_function_max(a: float, b: float):
    """Arg max and max of h_function on x > 0; needs a < 0 and b < 0.

    Setting h' = 0 gives x* = (2ab)^(1/3) and h(x*) = (6a/b^2)^(1/3); the
    second derivative 4a/x^4 (up to the positive prefactor) is negative, so
    the critical point is the global maximum on the ray.
    """
    if not (a < 0 and b < 0):
        raise ValueError("closed form requires a < 0 and b < 0")
    x_star = float(np.cbrt(2.0 * a * b))
    return x_star, float(np.cbrt(6.0 * a / b ** 2))


def y_ratio(y) -> float:
    """(3 - 2 sqrt(2) sqrt(y))^2 / (1 - y) on 0 <= y < 1: the squared pairing
    slack against the cone defect for the rank-(1,8) lattice."""
    y = _finite(y, "y")
    if np.any(y < 0) or np.any(y >= 1):
        raise ValueError("y must lie in [0, 1)")
    val = (3.0 - 2.0 * math.sqrt(2.0) * np.sqrt(y)) ** 2 / (1.0 - y)
    return float(val) if val.ndim == 0 else val


def y_ratio_min():
    """Closed-form minimizer of y_ratio: (8/9, 1).

    The derivative vanishes where 3 sqrt(y) = 2 sqrt(2) y + ... reduces to
    sqrt(y) = 2 sqrt(2)/3; the other critical candidate y = 9/8 is outside
    the domain, and the boundary values (9 at 0, +inf at 1) are larger.
    """
    return 8.0 / 9.0, 1.0


@dataclass(frozen=True)
class ZBoundCertificate:
    pairing_a: float     # beta.Q.beta at the extremal class
    pairing_b: float     # c1.Q.beta at the extremal class
    h_a: float           # slice-reduction coefficients fed to h_function_max
    h_b: float
    h_bound: float       # max of the slice reduction = -6 (B^2/A)^(1/3) here
    y_star: float        # minimizer of the pairing-slack ratio
    ratio_min: float
    global_bound: float
    extremal_class: tuple


def certify_global(m: IntersectionModel, cls=None) -> Optional[ZBoundCertificate]:
    """Closed-form global bound on the cone component of cls (default: the
    model's seed) for the two shipped lattice shapes, else None.

    Product of a genus-2 surface with the (1, -1^8) lattice and c1 = (3, -1^8):
    optimizing the fiber scale reduces the bound on each beta-slice to
    h_function_max, giving -6 (B^2/A)^(1/3) per slice, and the Cauchy-Schwarz
    slack function y_ratio shows B^2/A >= 1 on the component with b =
    c1.Q.beta < 0 — so the supremum 2 pi * (-6) is attained exactly at
    beta = -c1 with fiber coefficient 2; where b >= 0 the fiber ray is
    unbounded.  Rank-one positive lattices in complex dimension 2 have a
    constant bound on each ray, reported at (1) or (-1).
    """
    cls = m.seed if cls is None else cls
    if cls is not None:
        eval_z_bound(m, cls)    # refuses a non-finite class or one off the cone
    if (m.n == 2 and m.rank == 1 and m.q[0][0] == 1):
        ray = (1.0,) if cls is None or cls[0] > 0 else (-1.0,)
        a, b, _, _ = _pairings(m, ray)
        return ZBoundCertificate(a, b, math.nan, math.nan, math.nan, math.nan,
                                 math.nan, eval_z_bound(m, ray), ray)
    shape_ok = (m.n == 3 and m.rank == 9 and m.fiber_chern == -2
                and (m.q == np.diag([1] + [-1] * 8)).all()
                and (m.c1 == np.array([3] + [-1] * 8)).all())
    if not shape_ok or (cls is not None and _pairings(m, cls)[1] >= 0):
        return None
    extremal = tuple(-m.c1.astype(float)) + (2.0,)
    a, b, _, _ = _pairings(m, extremal)   # a = c1.c1 = 1, b = -1
    h_a = -3.0 ** (2.0 / 3.0) * a
    h_b = a / (2.0 * 3.0 ** (2.0 / 3.0) * b)
    _, h_max = h_function_max(h_a, h_b)
    y_star, ratio_min = y_ratio_min()
    global_bound = 2.0 * math.pi * h_max * ratio_min ** (1.0 / 3.0)
    direct = eval_z_bound(m, extremal)
    if abs(direct - global_bound) > 1e-9 * (1.0 + abs(global_bound)):
        raise AssertionError("certificate does not match direct evaluation")
    return ZBoundCertificate(a, b, h_a, h_b, h_max, y_star, ratio_min,
                             global_bound, extremal)
