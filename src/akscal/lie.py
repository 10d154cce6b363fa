"""Left-invariant almost-Kähler structures on unimodular frame algebras.

A structure is given by the bracket constants of an orthonormal frame
([e_i, e_j] = sum_k c_ij^k e_k, metric = identity) together with an orthogonal
almost-complex structure J; the symplectic form is omega = J^T, and closedness
of omega is part of validation.  With rational inputs every curvature quantity
below is an exact Fraction.

Two cross-checking curvature routes are provided: a direct evaluation of
R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_[X,Y] Z from the Koszul connection, and
the Cartan structure equations Omega^i_j = d omega^i_j + omega^i_k ^ omega^k_j
evaluated on the frame.  Likewise |nabla J|^2 has a loop route (differentiating
J e_j vector by vector) and a matrix route (commutators with the connection
one-form matrices).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact, tensor


@dataclass(frozen=True, eq=False)
class LieFrameSpec:
    """Bracket constants c[i][j][k] (= c_ij^k), frame matrix of J, and the
    circumferences of the lattice directions of the compact quotient."""

    name: str
    c: np.ndarray
    j: np.ndarray
    lattice_volumes: tuple

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def volume(self):
        return math.prod(self.lattice_volumes)


# J of kt_spec and abelian_spec on the frame: e1 -> -e4, e2 -> e3
KT_J = ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))
_TOL = 1e-12     # float specs: structure identities hold to this size


def make_frame_spec(name, c, j, lattice_volumes) -> LieFrameSpec:
    """Validate and freeze a frame structure.

    Checks bracket antisymmetry, the Jacobi identity, unimodularity (needed
    for a lattice quotient to exist), J orthogonal with J^2 = -I, and
    d(J^T) = 0 so that omega is symplectic.
    """
    try:
        c = exact.as_exact(c)
        j = exact.as_exact(j)
    except TypeError:
        c = np.asarray(c, dtype=float)
        j = np.asarray(j, dtype=float)
        if not (np.isfinite(c).all() and np.isfinite(j).all()):
            raise ValueError("bracket constants and J must be finite") from None
    m = j.shape[0]
    if j.shape != (m, m) or c.shape != (m, m, m):
        raise ValueError(f"shape mismatch: J {j.shape}, c {c.shape}")
    if exact.nonzero(c + np.swapaxes(c, 0, 1), _TOL):
        raise ValueError("bracket constants are not antisymmetric in the lower pair")
    # Jacobi: sum over cyclic rotations of (a,b,k) of c_ab^m c_mk^l.
    jac = (exact.einsum("abm,mkl->abkl", c, c)
           + exact.einsum("bkm,mal->abkl", c, c)
           + exact.einsum("kam,mbl->abkl", c, c))
    if exact.nonzero(jac, _TOL):
        raise ValueError("bracket constants violate the Jacobi identity")
    tr_ad = exact.einsum("ijj->i", c)
    if exact.nonzero(tr_ad, _TOL):
        raise ValueError("algebra is not unimodular (trace ad != 0)")
    ident = exact.eye_as(j, m)
    if exact.nonzero(j @ j + ident, _TOL) or exact.nonzero(j.T @ j - ident, _TOL):
        raise ValueError("J must be orthogonal with J^2 = -I")
    omega = j.T
    # d omega (e_a,e_b,e_k) for invariant omega reduces to bracket insertions.
    for a in range(m):
        for b in range(a + 1, m):
            for k in range(b + 1, m):
                val = (-sum(c[a][b][p] * omega[p][k] for p in range(m))
                       + sum(c[a][k][p] * omega[p][b] for p in range(m))
                       - sum(c[b][k][p] * omega[p][a] for p in range(m)))
                if exact.nonzero(val, _TOL):
                    raise ValueError(f"omega is not closed (d omega on frame {a+1},{b+1},{k+1})")
    vols = tuple(lattice_volumes)
    if len(vols) != m:
        raise ValueError(f"need {m} lattice circumferences, got {len(vols)}")
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and 0 < v < math.inf for v in vols):
        raise ValueError(f"lattice circumferences must be positive and finite "
                         f"reals, got {', '.join(map(str, vols))}")
    return LieFrameSpec(str(name), c, j, vols)


def kt_spec(d=1) -> LieFrameSpec:
    """Nilmanifold structure with [e1, e2] = e3 and J: e1 -> -e4, e2 -> e3.

    The quotient is a 2-step nilmanifold times a circle of circumference d;
    the associated symplectic form pairs (e1, e4) and (e2, e3).
    """
    c = exact.zeros((4, 4, 4))
    c[0][1][2] = Fraction(1)
    c[1][0][2] = Fraction(-1)
    return _unit_lattice_spec("kt", c, d)


def abelian_spec(d=1) -> LieFrameSpec:
    """Flat torus with the same J and lattice data as kt_spec but zero bracket."""
    return _unit_lattice_spec("abelian4", exact.zeros((4, 4, 4)), d)


def _unit_lattice_spec(name: str, c, d) -> LieFrameSpec:
    """The spec of c with J = KT_J and circumferences 1, 1, 1, d: d exact if
    an int, Fraction or string, a float if another real; a bool or a non-real
    is passed on as it is, for make_frame_spec to refuse."""
    if not isinstance(d, bool):
        d = (exact.frac(d) if isinstance(d, (int, Fraction, str))
             else float(d) if isinstance(d, numbers.Real) else d)
    return make_frame_spec(name, c, exact.as_exact(KT_J),
                           (Fraction(1),) * 3 + (d,))


# ---------------------------------------------------------------------------
# file format


def parse_frame_spec(text: str) -> LieFrameSpec:
    """Parse the plain-text frame format (see FORMATS.md).

    Lines: `name <str>`, `dim <int>`, `c i j k value` (1-based, i<j listed
    once), `J v1 ... vm` (one per frame row), `vol v1 ... vm`; `#` comments.
    A line with an unknown key, no value, a malformed number or a c index
    out of range raises a ValueError that names its line number.
    """
    name, dim, vols = "frame", None, None
    c_entries, j_rows = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        key, rest = tok[0], tok[1:]
        if key == "name":
            name = " ".join(rest)
            continue
        if key not in ("dim", "c", "J", "vol"):
            raise ValueError(f"line {ln}: unknown key {key!r}")
        if not rest:
            raise ValueError(f"line {ln}: {key} needs a value")
        if key == "c" and len(rest) != 4:
            raise ValueError(f"line {ln}: c needs `i j k value`")
        try:
            if key == "dim":
                dim = int(rest[0])
            elif key == "c":
                c_entries.append((ln, int(rest[0]), int(rest[1]), int(rest[2]),
                                  _num(rest[3])))
            elif key == "J":
                j_rows.append([_num(v) for v in rest])
            else:
                vols = [_num(v) for v in rest]
        except ValueError:
            raise ValueError(f"line {ln}: malformed {key} value "
                             f"{' '.join(rest)!r}") from None
    if dim is None:
        dim = len(j_rows)
    if len(j_rows) != dim or any(len(r) != dim for r in j_rows):
        raise ValueError("J rows do not form a dim x dim matrix")
    if vols is None:
        vols = [Fraction(1)] * dim
    all_exact = all(isinstance(v, Fraction) for r in j_rows for v in r) and all(
        isinstance(e[4], Fraction) for e in c_entries)
    c = exact.zeros((dim, dim, dim)) if all_exact else np.zeros((dim, dim, dim))
    for ln, i, jj, k, v in c_entries:
        for idx in (i, jj, k):
            if not 1 <= idx <= dim:
                raise ValueError(f"line {ln}: c index {idx} out of range 1..{dim}")
        vv = v if all_exact else float(v)
        c[i - 1][jj - 1][k - 1] = vv
        c[jj - 1][i - 1][k - 1] = -vv
    j = exact.as_exact(j_rows) if all_exact else np.asarray(j_rows, dtype=float)
    return make_frame_spec(name, c, j, vols)


def _num(s: str):
    """Fraction of an integer, decimal or ratio; float of a hex float (as
    float.hex writes it) or of nan/inf; ValueError for anything else."""
    try:
        return exact.frac(s)
    except (ValueError, ZeroDivisionError):
        pass
    return float.fromhex(s) if "0x" in s.lower() else float(s)


def _str_num(v) -> str:
    """A float as float.hex, so that it parses back bit for bit and keeps
    the spec's float arithmetic; an exact value as itself."""
    return v.hex() if isinstance(v, float) else str(v)


def serialize_frame_spec(spec: LieFrameSpec) -> str:
    m = spec.dim
    out = [f"name {spec.name}", f"dim {m}"]
    for i in range(m):
        for jj in range(i + 1, m):
            for k in range(m):
                if spec.c[i][jj][k] != 0:
                    out.append(f"c {i+1} {jj+1} {k+1} {_str_num(spec.c[i][jj][k])}")
    for row in spec.j:
        out.append("J " + " ".join(map(_str_num, row)))
    out.append("vol " + " ".join(map(_str_num, spec.lattice_volumes)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# connection and curvature


def koszul_gamma(spec: LieFrameSpec) -> np.ndarray:
    """gamma[i][j][k] = <nabla_{e_i} e_j, e_k> on the orthonormal frame.

    For left-invariant fields the Koszul formula collapses to
    (c_ij^k - c_jk^i + c_ki^j) / 2.
    """
    c = spec.c
    return exact.half(c) * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))


def connection_forms(spec: LieFrameSpec) -> np.ndarray:
    """F[i][j][k] = omega^i_j(e_k), solved from the first structure equation.

    de^i = -omega^i_j ^ e^j with omega^i_j = -omega^j_i determines F uniquely;
    the solution is the cyclic combination below, and both defining properties
    are re-checked before returning.
    """
    c = spec.c
    m = spec.dim
    # F[i][j][k] = (c_kj^i - c_ji^k + c_ik^j)/2
    f = exact.half(c) * (np.einsum("kji->ijk", c) - np.einsum("jik->ijk", c)
                         + np.einsum("ikj->ijk", c))
    skew = f + np.transpose(f, (1, 0, 2))
    assert not exact.nonzero(skew, _TOL), "connection form not so(m)-valued"
    torsion = np.empty((m, m, m), dtype=f.dtype)
    for i in range(m):
        for a in range(m):
            for b in range(m):
                torsion[i][a][b] = f[i][b][a] - f[i][a][b] - c[a][b][i]
    assert not exact.nonzero(torsion, _TOL), "structure equation residual"
    return f


def _riemann(c, g):
    """R[a][b][i][j] = <R(e_a, e_b) e_j, e_i> from iterated covariant
    derivatives of the Koszul connection g."""
    return (exact.einsum("bjk,aki->abij", g, g)
            - exact.einsum("ajk,bki->abij", g, g)
            - exact.einsum("abk,kji->abij", c, g))


def curvature_cartan(spec: LieFrameSpec) -> np.ndarray:
    """The Riemann tensor of curvature_tables, via the second structure
    equation Omega^i_j = d omega^i_j + omega^i_k ^ omega^k_j on the
    connection forms, with d omega^i_j(e_a, e_b) = -c_ab^k omega^i_j(e_k)."""
    f = connection_forms(spec)
    return (exact.einsum("ika,kjb->abij", f, f)
            - exact.einsum("ikb,kja->abij", f, f)
            - exact.einsum("abk,ijk->abij", spec.c, f))


@dataclass(frozen=True)
class CurvatureTables:
    gamma: np.ndarray          # <nabla_i e_j, e_k>
    riemann: np.ndarray        # <R(e_a,e_b) e_j, e_i>
    sectional: np.ndarray      # K[i][j], zero on the diagonal
    ricci: np.ndarray
    scalar: object
    ricci_anti: np.ndarray     # J-anti-invariant part of the Ricci tensor
    nabla_j_sq: object         # |nabla J|^2
    star_scalar: object        # s + |nabla J|^2 / 2
    hermitian_scalar: object   # (s + s*)/2


def curvature_tables(spec: LieFrameSpec) -> CurvatureTables:
    """All frame curvature tables at once; exact for rational input."""
    gamma = koszul_gamma(spec)
    riem = _riemann(spec.c, gamma)
    m = spec.dim
    sec = exact.zeros_as(riem, (m, m))
    for i in range(m):
        for jj in range(m):
            if i != jj:
                sec[i][jj] = riem[i][jj][i][jj]
    ricci = exact.einsum("kikj->ij", riem)
    scalar = np.trace(ricci)
    r_anti = tensor.anti_invariant_part(ricci, spec.j)
    nj = _nabla_j(spec.j, gamma)
    nj2 = exact.einsum("ikj,ikj->", nj, nj)
    half = exact.half(riem)
    star = scalar + half * nj2
    return CurvatureTables(gamma, riem, sec, ricci, scalar, r_anti, nj2, star,
                           half * (scalar + star))


def nabla_j(spec: LieFrameSpec) -> np.ndarray:
    """NJ[i][k][j] = <(nabla_{e_i} J) e_j, e_k>, differentiating J e_j directly."""
    return _nabla_j(spec.j, koszul_gamma(spec))


def _nabla_j(j, gamma):
    # <nabla_i (J e_j), e_k> - <J nabla_i e_j, e_k>
    return (exact.einsum("ipk,pj->ikj", gamma, j)
            - exact.einsum("kp,ijp->ikj", j, gamma))


def nabla_j_forms(spec: LieFrameSpec) -> np.ndarray:
    """Matrix route: nabla_i J = [A_i, J] with (A_i)_km = omega^k_m(e_i)."""
    f = connection_forms(spec)
    j = spec.j
    m = spec.dim
    out = exact.zeros_as(j, (m, m, m))
    for i in range(m):
        a_i = f[:, :, i]
        out[i] = a_i @ j - j @ a_i
    return out


def nabla_j_norm_sq(spec: LieFrameSpec, route: str = "vectors"):
    """Full-norm |nabla J|^2 = sum_{i,j,k} <(nabla_i J)e_j, e_k>^2."""
    if route == "vectors":
        nj = nabla_j(spec)
    elif route == "forms":
        nj = nabla_j_forms(spec)
    else:
        raise ValueError(f"unknown route {route!r}")
    return exact.einsum("ikj,ikj->", nj, nj)


def z_ratio(spec: LieFrameSpec) -> float:
    """Scalar curvature times Vol^(1/n): scale-normalized total s of the quotient."""
    tables = curvature_tables(spec)
    return float(tables.scalar) * float(spec.volume) ** (1.0 / spec.n)

