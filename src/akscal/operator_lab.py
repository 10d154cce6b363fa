"""Discrete model of the adjoint linearized scalar-curvature operator.

The operator psi -> (Hess psi)^- - r^- psi maps functions to J-anti-invariant
symmetric 2-tensors.  On the frame, an anti-invariant tensor is determined by
six slot values; this module builds the Hessian slots over a QuotientGrid
in two independent discretizations:

* the frame route: compositions of the invariant frame derivatives
  (x innermost, so the sheared x-wrap only ever acts on invariant samples),
  corrected by the frame connection — applied, and transposed, along the
  frame's axes to a field block, or composed as sparse matrices only on the
  rows that reach the spectral floor's slab;
* the chart route, on the sheared quotient only: coordinate stencils of the
  ten chart Hessian formulas, applied to sampled fields: one-sided in x at
  the fundamental-domain faces so nothing crosses the sheared seam, and the
  grid's periodic y, z, t rings, which the frame route's differences use.
  On the flat torus the two routes share every off-diagonal stencil, so
  they would be no independent cross-check.

Both routes are second order; their difference contracts like h^2, which the
Richardson fit exposes.  Plane waves feed the principal-symbol ratio check,
each evaluated on its (z, t) Fourier sector's (x, y) slab, where the frame
route applies the grid's Sector frame; the spectral floor of the normal
operator certifies the kernel gap against the flat-torus baseline.

Variants: "kt" (the sheared quotient, curved connection) and "flat" (plain
4-torus, pairing (x,y) and (z,t), zero connection).  A grid's twist picks its
geometry, the (J, connection, r^-) that one per-twist table builds once per
process: kt on a twisted grid, flat otherwise.  The variant name is read only
where a grid is built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import exact, lie
from .grid import (AXES, QuotientGrid, Sector, apply_axis, d1_sided,
                   d2_sided, unit_roots)

J_KT = np.array(lie.KT_J, dtype=float)
J_FLAT = np.array([[0., -1., 0., 0.], [1., 0., 0., 0.],
                   [0., 0., 0., -1.], [0., 0., 1., 0.]])

_PREFERRED_SLOTS = {
    J_KT.tobytes(): ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (0, 3)),
    J_FLAT.tobytes(): ((0, 0), (2, 2), (0, 1), (2, 3), (0, 2), (0, 3)),
}


# ---------------------------------------------------------------------------
# slot algebra of J-anti-invariant symmetric tensors


@dataclass(frozen=True)
class SlotBasis:
    """Independent entries of an anti-invariant symmetric 4x4 tensor.

    Slot s at position (i, j) determines its partner entry pairs[s] with the
    opposite sign signs[s]; weights[s] counts how many matrix entries the slot
    value fills, so |h|^2 = sum_s weights[s] * h_s^2.
    """

    slots: tuple
    weights: tuple
    pairs: tuple
    signs: tuple


def anti_slots(j: np.ndarray) -> SlotBasis:
    """Slot basis of J_KT or J_FLAT, in the order _PREFERRED_SLOTS lists.

    Each J is a signed permutation of the frame, J e_c = sig_c e_pi(c), so
    slot (i, j) fixes its partner entry sorted(pi_i, pi_j) with the sign
    sig_i sig_j.  A diagonal slot, or one that is its own partner, fills two
    matrix entries; any other fills four.
    """
    try:
        if np.iscomplexobj(j):         # the cast would drop the imaginary part
            raise TypeError
        j = np.asarray(j, dtype=float)
        slots = _PREFERRED_SLOTS[j.tobytes() if j.shape == (4, 4) else None]
    except (KeyError, TypeError, ValueError):
        raise ValueError("J must be J_KT or J_FLAT, the structures with a "
                         "listed slot order") from None
    pi = np.argmax(np.abs(j), axis=0)
    sig = j[pi, np.arange(4)]
    pairs = tuple(tuple(sorted((int(pi[a]), int(pi[b])))) for a, b in slots)
    signs = tuple(int(sig[a] * sig[b]) for a, b in slots)
    weights = tuple(2 if a == b or p == (a, b) else 4
                    for (a, b), p in zip(slots, pairs))
    return SlotBasis(slots, weights, pairs, signs)


def _twisted(variant: str) -> bool:
    """The grid twist of a variant name; an unknown name is refused."""
    if variant not in ("kt", "flat"):
        raise ValueError(f"unknown variant {variant!r}")
    return variant == "kt"


@cache
def _geometry(twisted: bool) -> tuple:
    """(J, gamma, r_minus) of a grid's variant, built once per process.

    gamma is the frame connection <nabla_i e_j, e_k> and r_minus the
    anti-invariant Ricci part as a 4x4 matrix.  The arrays are read-only, so
    no holder can change another's geometry.
    """
    if twisted:
        tables = lie.curvature_tables(lie.kt_spec(1))
        geom = (J_KT, exact.to_float(tables.gamma),
                exact.to_float(tables.ricci_anti))
    else:
        geom = (J_FLAT, np.zeros((4, 4, 4)), np.zeros((4, 4)))
    for a in geom:
        a.flags.writeable = False
    return geom


# ---------------------------------------------------------------------------
# the two discretization routes

def hessian_ops_frame(g: QuotientGrid, psi=None, rows=None) -> dict:
    """Frame-route Hessian slots applied to psi, (i, j) with i <= j.

    H_ij psi = E_j(E_i psi) - sum_k gamma[j][i][k] E_k psi, with the lower
    frame index innermost: the sheared x-difference is only ever applied
    directly to psi, never to a chart-dependent intermediate array (which
    would cost an order at the seam).  Each E_k psi is formed once and
    reused by every slot.

    psi is a (size, m) field block, which QuotientGrid.apply_frame takes
    along the frame's axes (g may be a Sector, and psi an (n^2, m) block on
    its slab), or None: the frame matrices composed into the slot matrices
    on the given rows alone, as E_j[rows] @ E_i - sum_k gamma E_k[rows],
    each row with the bytes of that row of the whole slot matrix.  A sparse
    identity psi would reverse each row's entries, and so change the bytes
    of _slab_rows, which multiplies these rows in stored order.
    """
    if psi is None:
        inner = g.frame()
        first = [e[rows] for e in inner]
        along = lambda k, a, dz: first[k] @ a
    else:
        along, pz = g.apply_frame, g.apply_frame(2, psi)
        first = inner = [pz if k == 2 else along(k, psi, pz)
                         for k in range(4)]
    gam = _geometry(g.twisted)[1]
    ops = {}
    for i in range(4):
        # E_z inner[i] is formed before E_y inner[i], which reads it as D_z
        zi = along(2, inner[i], None) if i <= 2 else None
        for jj in range(i, 4):
            op = zi if jj == 2 else along(jj, inner[i], zi)
            for k in range(4):
                c = gam[jj][i][k]
                if c != 0.0:
                    op = op - c * first[k]
            ops[(i, jj)] = op
    return ops


def hessian_ops_chart(g: QuotientGrid, psi: np.ndarray):
    """Chart-route Hessian slots applied to psi, a (size, m) array of m field
    columns (route_difference passes one column at a time), on the sheared
    quotient; an untwisted grid is refused.

    The ten chart Hessian formulas in narrow 3-point second and centered
    first differences.  x is one-sided at the faces of the fundamental
    domain, so the route never crosses the seam and stays second order;
    every other axis takes the grid's periodic rings, which the frame
    route's differences use.  The routes stay independent in x and in the
    Hessian formula (frame composition with connection terms vs the chart
    formulas).  Each n x n stencil is applied along its axis by apply_axis,
    so this route builds no grid-size matrix.

    The result iterates ((i, j), slot) pairs in the frame route's key order,
    each slot of psi's shape formed only when asked for.  Each shared
    difference of psi is formed once and dropped after its last slot, so at
    most five arrays of psi's shape are held between slots.
    """
    if not g.twisted:
        raise ValueError("the chart route needs the sheared quotient (a "
                         "twisted grid): on the flat torus it would repeat "
                         "the frame route")
    return _chart_slots(g, psi)


def _chart_slots(g, psi):
    x = g.sample(lambda x, y, z, t: x)[:, None]
    dy, dz, dt = (g.ring(a) for a in AXES[1:])
    yield (0, 0), apply_axis(d2_sided(g.n, g.hx), "x", g, psi)
    px = apply_axis(d1_sided(g.n, g.hx), "x", g, psi)
    pz = apply_axis(dz, "z", g, psi)
    pxz = apply_axis(dz, "z", g, px)
    yield (0, 1), apply_axis(dy, "y", g, px) + x * pxz + 0.5 * pz
    py = apply_axis(dy, "y", g, psi)
    yield (0, 2), pxz + 0.5 * py + 0.5 * (x * pz)
    del pxz
    yield (0, 3), apply_axis(dt, "t", g, px)
    pyz = apply_axis(dy, "y", g, pz)
    pzz = apply_axis(g.ring("z", 2), "z", g, psi)
    yield (1, 1), (apply_axis(g.ring("y", 2), "y", g, psi)
                   + 2.0 * (x * pyz) + x * (x * pzz))
    yield (1, 2), pyz + x * pzz + (-0.5) * px
    ptz = apply_axis(dt, "t", g, pz)
    del pyz, px, pz
    yield (1, 3), apply_axis(dt, "t", g, py) + x * ptz
    yield (2, 2), pzz
    del py, pzz
    yield (2, 3), ptz
    del ptz
    yield (3, 3), apply_axis(g.ring("t", 2), "t", g, psi)


# ---------------------------------------------------------------------------
# the adjoint slots


def _anti_slots_of(hess: dict, g, ident) -> tuple:
    """(basis, the slots 0.5 (H_s - sign_s H_pair(s)) - r^-_s ident of
    (Hess psi)^- - r^- psi): ident is the sparse identity on the composed
    rows for slot matrices, psi for slot blocks."""
    j, _, r_minus = _geometry(g.twisted)
    basis = anti_slots(j)
    ops = []
    for s, pair, sg in zip(basis.slots, basis.pairs, basis.signs):
        op = 0.5 * (hess[s] - sg * hess[pair])
        if r_minus[s] != 0.0:
            op = op - r_minus[s] * ident
        ops.append(op)
    return basis, ops


def slot_adjoint(g: QuotientGrid, u) -> np.ndarray:
    """sum_s w_s A_s^T u_s for six (size, m) slot blocks u, A_s the slots of
    (Hess psi)^- - r^- psi (_anti_slots_of of the frame route): the adjoint
    in the slot-weighted inner product, applied along the axes.  Each frame
    matrix is exactly antisymmetric: each centred ring is, the sheared
    x-wrap only permutes the wrapped rows' sources, and x commutes with D_z.
    So H_ij = E_j E_i - sum_k gamma[j][i][k] E_k has the transpose E_i E_j
    + sum_k gamma[j][i][k] E_k, and A_s^T = 0.5 (H_s^T - sign_s H_pair(s)^T)
    - r^-_s I.  That composes the fields in the other order, so the pairing
    <A psi, u>_w = <psi, A^T u> checks summation by parts, not a matrix
    against its own transpose.
    """
    if np.shape(u)[:2] != (6, g.size):
        raise ValueError(f"need six slot blocks of {g.size} rows")
    j, gam, r_minus = _geometry(g.twisted)
    basis = anti_slots(j)
    c, out = {}, 0.0     # c[(i, j)]: the weighted u_s that meet H_ij
    for s, pair, sg, w, us in zip(basis.slots, basis.pairs, basis.signs,
                                  basis.weights, u):
        c[s] = c.get(s, 0.0) + 0.5 * w * us
        c[pair] = c.get(pair, 0.0) - 0.5 * sg * w * us
        if r_minus[s] != 0.0:
            out = out - w * r_minus[s] * us
    for (i, jj), cij in c.items():
        out = out + g.apply_frame(i, g.apply_frame(jj, cij))
        for k in range(4):
            if gam[jj][i][k] != 0.0:
                out = out + gam[jj][i][k] * g.apply_frame(k, cij)
    return out


def slot_residual_norms(g: QuotientGrid, psi: np.ndarray) -> dict:
    """{slot: L2 norm} of (Hess psi)^- - r^- psi for a field psi of g's size,
    frame route applied — unweighted, cell-volume measure, so individual
    near-kernel slots can be read off directly."""
    psi = np.reshape(psi, (g.size, 1))
    basis, slots = _anti_slots_of(hessian_ops_frame(g, psi), g, psi)
    root = np.sqrt(g.cell_volume)
    with np.errstate(over="ignore"):
        norms = [root * _l2(us) for us in slots]
    g.refuse_overflow(np.isfinite(norms).all(),
                      "the slot residual norms, of order 1/h_t^2,")
    return dict(zip(basis.slots, norms))


# ---------------------------------------------------------------------------
# symbol checks


def _frequencies(k) -> tuple:
    """(kx, ky, kz, kt) as ints: anything but four integers is refused, not
    truncated, so no caller reads a different mode than it asked for."""
    try:
        ks = tuple(k)
    except TypeError:
        ks = ()
    if len(ks) != 4 or not all(isinstance(v, numbers.Integral)
                               and not isinstance(v, bool) for v in ks):
        raise ValueError(f"need four integer frequencies (kx, ky, kz, kt), "
                         f"got {k!r}")
    return tuple(int(v) for v in ks)


def mode_xi(g: QuotientGrid, k: tuple) -> float:
    """Continuum wavevector length 2 pi |(kx, ky, kz, kt/d)|."""
    kx, ky, kz, kt = _frequencies(k)
    return 2.0 * math.pi * math.sqrt(kx * kx + ky * ky + kz * kz
                                     + (kt / g.d) ** 2)


def symbol_ratios(g: QuotientGrid, modes) -> np.ndarray:
    """Weighted squared norm of the slot symbols against half the squared
    Laplacian symbol, evaluated on each discrete plane wave of modes.

    In the flat model the ratio is identically 1 (the discrete identity
    matches the principal symbol of half the squared Laplacian exactly); on
    the sheared quotient lower-order connection terms add O(|sigma|^-2)
    corrections that die off up the spectrum, and only kz = 0 modes descend
    (the z-frequency would have to twist with y).  No grid-size array is
    built: each mode is one column of an (n^2, len(modes)) block on the
    (x, y) slab, carrying its own (kz, kt) sector, where the frame route runs
    once for all; the wave in z and t has modulus one, so slab norms give
    the grid ratios.  Each column is summed alone, pairwise, so each ratio
    holds the bytes of its mode evaluated alone.
    """
    ks = np.array([_frequencies(k) for k in modes], dtype=int).reshape(-1, 4)
    kx, ky, kz, kt = ks.T
    if g.twisted and kz.any():
        raise ValueError("sheared quotient admits plane waves with kz = 0 only")
    i, j = np.divmod(np.arange(g.n ** 2), g.n)
    phi = unit_roots(g.n)[(np.outer(i, kx) + np.outer(j, ky)) % g.n]
    hess = hessian_ops_frame(Sector(g, kz, kt), phi)
    basis, slots = _anti_slots_of(hess, g, phi)

    def column_sums(u):
        return np.sum(np.ascontiguousarray((abs(u) ** 2).T), axis=1)

    num = sum(w * column_sums(u) for w, u in zip(basis.weights, slots))
    den = 0.5 * column_sums(sum(hess[(a, a)] for a in range(4)))
    if not den.all():
        raise ValueError("zero-frequency mode has no symbol ratio")
    return num / den


def symbol_sweep(g: QuotientGrid):
    """Ratio decay along the modes (1, 0, 0, e) for e = 1..nt/4; returns
    (|xi|, |ratio-1|, slope).

    kz must vanish on the sheared quotient, and the x-frequency pins the
    corrections on.  Each mode is its own (kz, kt) sector.  The slope is
    the least-squares fit of log|ratio-1| against log|xi|.
    """
    modes = [(1, 0, 0, e) for e in range(1, g.nt // 4 + 1)]
    xi = np.array([mode_xi(g, k) for k in modes])
    dev = np.abs(symbol_ratios(g, modes) - 1.0)
    good = dev > 0
    slope = float(np.polyfit(np.log(xi[good]), np.log(dev[good]), 1)[0]) \
        if good.sum() >= 2 else math.nan
    return xi, dev, slope


# ---------------------------------------------------------------------------
# spectral floor of the normal operator


@dataclass(frozen=True)
class SpectralReport:
    values: np.ndarray
    residuals: np.ndarray    # ||B phi - lambda phi|| in each value's sector
    method: str
    size: int
    sectors: tuple           # (kz, kt) DFT index of each value
    solved: int              # sector blocks sent to eigvalsh
    pruned: int              # twin orbits skipped by a Cholesky of B - mu I
    constant_residual: float  # ||M c - floor c||, c the unit constant

    @property
    def floor(self) -> float:
        return float(self.values[0])


def _l2(a: np.ndarray) -> float:
    """Euclidean norm by numpy's pairwise sum, which uses no BLAS thread
    pool, so its bytes do not depend on the thread count."""
    return float(np.sqrt(np.sum(a.real * a.real + a.imag * a.imag)))


def _prune_margin(n: int, beta: float, v: float) -> float:
    """The shift delta for which a completed Cholesky of B - (v + delta) I
    proves that eigvalsh(B) returns no value <= v, for an n x n Hermitian
    block B with ||B||_2 and every |B_ii| at most beta.

    With u the unit roundoff, mu = v + delta and C = fl(B - mu I):
    * forming C rounds its diagonal only, by at most u (beta + |mu|);
    * Higham, Thm 10.3: a Cholesky of C that runs to completion gives
      R^H R = C + dC with |dC| <= g |R^H| |R|.  g = gamma_{4(n+1)} covers
      complex arithmetic (a complex product errs by at most sqrt(2)
      gamma_2 < 3u, Higham 3.6), and the bound holds for any order of the
      inner products, so for LAPACK's blocked potrf too.  As ||R||_F^2 =
      tr(C + dC), ||dC||_2 <= g/(1 - g) tr(C) <= g/(1 - g) n (1 + u)
      (beta + |mu|);
    * R^H R is positive definite, so every eigenvalue of B exceeds mu
      less those two terms;
    * eigvalsh is normwise backward stable: each computed value lies within
      p(n) u ||B||_2 of one of B's (LAPACK Users' Guide 4.7 leaves p(n)
      "modestly growing"); we take p(n) = n^2.
    So every computed value exceeds mu - a (beta + |mu|), with
    a = u + n (1 + u) g/(1 - g) + n^2 u, and delta = a (beta + |v|)/(1 - a)
    makes that at least v.
    """
    u = np.finfo(float).eps / 2
    g = 4 * (n + 1) * u / (1 - 4 * (n + 1) * u)
    a = u + n * (1 + u) * g / (1 - g) + n * n * u
    return a * (beta + abs(v)) / (1 - a)


def _cholesky_completes(b: np.ndarray, mu: float) -> bool:
    """Whether a Cholesky of b - mu I runs to completion (both it and
    eigvalsh read b's lower triangle)."""
    c = b.copy()
    c.flat[:: len(c) + 1] -= mu
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return False
    return True


def _slab_rows(g: QuotientGrid) -> sp.csr_matrix:
    """The n^2 rows of M = sum_s w_s A_s^T A_s at (z, t) = (0, 0), with the
    bytes of those rows of the whole M.  A_s is composed from E_j E_i, E_k
    and I, so A_s[q, r] != 0 for r on the slab only if q is within two frame
    steps of it: A_s is composed on those rows Q alone.  The rows are
    W @ (Y @ A), A the stacked A_s[Q], Y each A_s[Q, slab]^T at slot s's
    columns and W the weights w_s: each entry sums over q ascending, then
    over the slots in order, as sum_s w_s A_s[:, slab]^T A_s does."""
    nxy = g.n * g.n
    slab = q = np.arange(nxy) * (g.n * g.nt)
    for _ in range(2):
        at = np.unravel_index(q, g.shape)
        q = np.unique([g.flat(*(v + step * (a == b) for b, v in enumerate(at)))
                       for a in range(4) for step in (-1, 0, 1)])
    basis, ops = _anti_slots_of(hessian_ops_frame(g, rows=q), g,
                                sp.identity(g.size, format="csr")[q])
    a = sp.vstack(ops, format="csr")
    # Y^T is A[:, slab] with slot s's block moved to slot s's n^2 columns
    cut = a[:, slab]
    moved = np.repeat(np.arange(6) * nxy, np.diff(cut.indptr[::len(q)]))
    y = sp.csr_matrix((cut.data, cut.indices + moved, cut.indptr),
                      shape=(a.shape[0], 6 * nxy)).T.tocsr()
    w = sp.csr_matrix((np.tile(np.array(basis.weights, float), nxy),
                       (np.arange(6) * nxy + np.arange(nxy)[:, None]).ravel(),
                       np.arange(0, 6 * nxy + 1, 6)), shape=(nxy, 6 * nxy))
    m = w @ (y @ a)
    m.sort_indices()
    return m


def spectral_floor(g: QuotientGrid, k: int = 2) -> SpectralReport:
    """Smallest k eigenvalues of the normal operator on grid g, with their
    (z, t) sectors and residuals, one sector at a time.

    M commutes with the z and t translations (the central-character splitting
    of the Heisenberg quotient), so it is block diagonal on the plane waves
    phi(i, j) exp(2 pi i (kz k / n + kt l / nt)).  Each n^2 x n^2 Hermitian
    block is folded from the n^2 rows of M at (z, t) = (0, 0), which are
    the only rows assembled, from slot operators composed only on the rows
    that reach them (_slab_rows), so no grid-size slot matrix is built:
    B[(i,j),(i',j')] = sum M[(i,j,0,0),(i',j',k',l')] e^{2 pi i (kz k'/n + kt l'/nt)}.
    The sheared x-wrap needs no extra phase: the column indices k' are
    canonical, so the shear is already in them.

    eigvalsh runs at most once per orbit of two exact pairings, and its
    values are copied to every twin sector:

    * conjugation, (kz, kt) ~ (-kz, -kt): M is real, so B(-k) = conj B(k).
      The phase tables are conjugate-symmetric to the last bit (unit_roots),
      so the folded blocks are conjugates entry for entry.  LAPACK does not
      promise that eigvalsh(conj B) and eigvalsh(B) agree in the last bits,
      so a twin reports the values of its orbit's first sector, not those
      of a solve of its own block;
    * t-parity, kt ~ kt + nt/2, when nt is even and every nonzero entry of
      the folded rows has an even t-offset l': then both sectors read the
      same exponent indices, and their blocks are equal entry for entry.

    Orbits are taken in sector order, so (0, 0) comes first.  Once k values
    are known, let v be the k-th smallest so far and mu = v + delta, with
    delta = a (beta + |v|)/(1 - a), a = u + n^2 (1 + u) g/(1 - g) + n^4 u,
    g = gamma_{4(n^2+1)} and u the unit roundoff (_prune_margin derives
    it from Higham, Thm 10.3, and eigvalsh's backward error).  beta is
    twice the largest absolute row sum of the folded rows, which bounds
    ||B||_inf >= ||B||_2 for every sector; the factor covers the fold's
    rounding.  An orbit whose block passes a Cholesky of B - mu I is
    pruned: by Sylvester's law of inertia and the margin, eigvalsh would
    give it no value <= v, and the final k-th value is at most v.  So no
    pruned orbit could be picked, ties included (the flat floor is 16-fold,
    the kt floor 12-fold), and the values, sectors and residuals are those
    of solving every orbit.

    The k smallest values over all sectors are kept (stable sort, so ties go
    to the first sector in (kz, kt) order).  Each picked sector's block is
    folded once more and its eigh basis gives the phi of each of its values;
    each residual ||B phi - lambda phi|| is taken on that block, and for the
    unit grid vector phi (x) wave / sqrt(n nt) it equals the grid-space
    ||M v - lambda v||.  One block and its basis are held at a time, and no
    grid-space vector is formed.

    constant_residual is ||M c - floor c|| for the unit constant c, the
    flat floor's exact null vector.  M and c are invariant under z and t,
    so it is sqrt(n nt) times the residual on the slab rows.
    """
    n, nt, nxy = g.n, g.nt, g.n * g.n
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"need an integer k, got {k!r}")
    k = int(k)
    if not 1 <= k <= g.size:
        raise ValueError(f"need 1 <= k <= {g.size} eigenpairs, got {k}")
    rows = _slab_rows(g).tocoo()
    g.refuse_overflow(np.isfinite(rows.data).all(),
                      "the normal operator's entries, of order 1/h_t^4,")
    xy, rest = np.divmod(rows.col, n * nt)
    kc, lc = np.divmod(rest, nt)
    flat = rows.row * nxy + xy
    ez, et = unit_roots(n), unit_roots(nt)

    def block(kz: int, kt: int) -> np.ndarray:
        w = rows.data * ez[kz * kc % n] * et[kt * lc % nt]
        b = (np.bincount(flat, w.real, nxy * nxy)
             + 1j * np.bincount(flat, w.imag, nxy * nxy))
        return b.reshape(nxy, nxy)

    # first[s]: the lowest sector index among the twins of sector s
    z, t = np.divmod(np.arange(n * nt), nt)
    twins = [(z, t), (-z % n, -t % nt)]
    if nt % 2 == 0 and not np.any(lc[rows.data != 0] % 2):
        twins += [(tz, (tt + nt // 2) % nt) for tz, tt in twins]
    first = np.min([tz * nt + tt for tz, tt in twins], axis=0)
    per = min(k, nxy)
    vals = np.full((n * nt, per), np.inf)
    reps = np.unique(first)
    beta = 2.0 * np.max(np.bincount(rows.row, np.abs(rows.data), nxy))
    kth, solved = np.inf, 0
    for r in reps:
        b = block(*divmod(r, nt))
        if kth < np.inf and _cholesky_completes(
                b, kth + _prune_margin(nxy, beta, kth)):
            continue
        vals[first == r] = np.linalg.eigvalsh(b)[:per]
        solved += 1
        kth = np.partition(vals, k - 1, axis=None)[k - 1]
    vals = vals.ravel()
    order = np.argsort(vals, kind="stable")[:k]
    picked = tuple(divmod(int(i // per), nt) for i in order)
    res = np.empty(k)
    for sector in dict.fromkeys(picked):
        b = block(*sector)
        basis = np.linalg.eigh(b)[1]
        for col in (c for c, s in enumerate(picked) if s == sector):
            phi = basis[:, order[col] % per]
            res[col] = _l2(b @ phi - vals[order[col]] * phi)
        del b, basis
    c = 1.0 / math.sqrt(g.size)
    const = math.sqrt(n * nt) * _l2(np.bincount(rows.row, rows.data * c, nxy)
                                    - vals[order[0]] * c)
    return SpectralReport(vals[order], res, "fourier-sector", g.size,
                          picked, solved, len(reps) - solved, const)


def kernel_gap(n: int, nt: Optional[int] = None, d: float = 1.0,
               variant: str = "kt", k: int = 2,
               seed: Optional[int] = None) -> SpectralReport:
    """Spectral floor of the normal operator on an n (x nt) grid.

    seed is accepted and ignored: the sector solve is deterministic.
    """
    return spectral_floor(QuotientGrid(n, nt, d, twisted=_twisted(variant)),
                          k=k)


# ---------------------------------------------------------------------------
# two-route Richardson fidelity


def theta_test_field(d: float = 1.0) -> Callable:
    """Deck-invariant smooth test field with genuine z-dependence.

    A Gaussian theta sum (width 0.25, terms |m| <= 5, machine-exact truncation)
    carries the sheared invariance; a z-independent smooth part keeps every
    chart derivative in play.
    """
    w = 0.25

    def f(x, y, z, t):
        th = 0.0
        for m in range(-5, 6):
            th = th + np.exp(-(((x + m - 0.5) / w) ** 2)) * (
                np.cos(2.0 * np.pi * (z + m * y))
                + 0.5 * np.sin(2.0 * np.pi * (z + m * y)))
        mod = 0.6 + 0.25 * np.cos(2.0 * np.pi * t / d) + 0.15 * np.sin(2.0 * np.pi * y)
        smooth = (np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
                  + 0.3 * np.cos(2.0 * np.pi * (x + t / d)))
        return th * mod + smooth

    return f


def random_invariant_field(d: float = 1.0, rng=None) -> Callable:
    """Random smooth field on the sheared quotient.

    Same invariance mechanism as theta_test_field — the Gaussian envelope
    shifts with the z-frequency twist — but with randomized amplitudes and
    phases, so convergence fits run on fresh fields every seed.
    """
    rng = np.random.default_rng(rng)
    amp = rng.uniform(0.3, 1.0, size=7)
    phs = rng.uniform(0.0, 2.0 * np.pi, size=7)
    w = 0.3

    def f(x, y, z, t):
        th = 0.0
        for m in range(-5, 6):
            th = th + np.exp(-(((x + m - 0.5) / w) ** 2)) * (
                amp[0] * np.cos(2.0 * np.pi * (z + m * y) + phs[0]))
        mod = (0.6 + 0.3 * amp[1] * np.cos(2.0 * np.pi * t / d + phs[1])
               + 0.2 * amp[2] * np.sin(2.0 * np.pi * y + phs[2]))
        smooth = (amp[3] * np.sin(2.0 * np.pi * x + phs[3])
                  * np.cos(2.0 * np.pi * y + phs[4])
                  + 0.5 * amp[4] * np.cos(2.0 * np.pi * (x + t / d) + phs[5])
                  + 0.4 * amp[5] * np.sin(2.0 * np.pi * y + phs[6])
                  + 0.3 * amp[6] * np.cos(2.0 * np.pi * t / d))
        return th * mod + smooth

    return f


def _field_list(field, d: float) -> list:
    """None (the theta field) or a non-empty sequence of callables, as a
    list."""
    if field is None:
        return [theta_test_field(d)]
    try:
        fields = list(field)
    except TypeError:
        fields = []
    if not fields or not all(callable(f) for f in fields):
        raise ValueError("field must be None or a non-empty sequence of "
                         f"callables, got {field!r}")
    return fields


def route_difference(n: int, d: float = 1.0, field=None):
    """(max, L2) norms of (frame route - chart route) over all ten slots, on
    the sheared quotient.

    field is None (theta_test_field(d)) or a sequence of callables; each
    norm is an array with one entry per field.  The fields stream through
    one grid: each is sampled as a (size, 1) column and both routes are
    applied to it along their axes, so no grid-size matrix is built, and
    everything built for it is dropped before the next field is sampled.
    A complex, NaN or infinite field is refused before its slots are formed.

    The ten frame slots are formed at once; the chart slots one at a time,
    each reduced against its frame partner, which is then dropped, before
    the next is formed.
    """
    fields = _field_list(field, d)
    g = QuotientGrid(n, n, d)
    err_max = np.zeros(len(fields))
    err_sq = np.zeros(len(fields))
    for f, fn in enumerate(fields):
        psi = g.sample(fn)[:, None]
        if np.iscomplexobj(psi):
            raise ValueError("field must be real-valued")
        if not np.isfinite(psi).all():
            raise ValueError("field must be finite at every grid node")
        frame = hessian_ops_frame(g, psi)
        for key, chart in hessian_ops_chart(g, psi):
            diff = frame.pop(key) - chart
            del chart
            err_max[f] = np.maximum(err_max[f], np.max(np.abs(diff)))
            err_sq[f] += np.sum(diff * diff)
            del diff
        del psi
    return err_max, np.sqrt(g.cell_volume * err_sq)


@dataclass(frozen=True)
class OrderFit:
    ns: tuple
    h: np.ndarray
    err_max: np.ndarray
    err_l2: np.ndarray
    order_max: float
    order_l2: float


def richardson_orders(ns=(8, 12, 16, 20), d: float = 1.0, field=None):
    """Least-squares convergence orders of the two-route difference.

    ns must hold at least two distinct integer grid sizes >= 4.  field is
    as in route_difference.  The result holds one OrderFit per field, all
    fitted from one route_difference call per grid size, which streams the
    fields through one grid; each fit is bit-identical to its one-field fit.
    """
    try:
        ns = tuple(ns)
    except TypeError:
        raise ValueError(f"ns must be a sequence of grid sizes, got {ns!r}") \
            from None
    if (len(set(ns)) < 2
            or not all(isinstance(n, numbers.Integral) and n >= 4 for n in ns)):
        raise ValueError("ns needs at least two distinct integer grid sizes "
                         f">= 4, got {ns!r}")
    fields = _field_list(field, d)
    h = np.array([1.0 / n for n in ns])
    per_n = [route_difference(n, d, fields) for n in ns]
    fits = []
    for i in range(len(fields)):
        err_max = np.array([p[0][i] for p in per_n])
        err_l2 = np.array([p[1][i] for p in per_n])
        order_max = float(np.polyfit(np.log(h), np.log(err_max), 1)[0])
        order_l2 = float(np.polyfit(np.log(h), np.log(err_l2), 1)[0])
        fits.append(OrderFit(ns, h, err_max, err_l2, order_max,
                             order_l2))
    return fits
