"""Discrete model of the adjoint linearized scalar-curvature operator.

The operator psi -> (Hess psi)^- - r^- psi maps functions to J-anti-invariant
symmetric 2-tensors.  On the frame, an anti-invariant tensor is determined by
six slot values; this module builds the Hessian slots over a QuotientGrid
in two independent discretizations:

* the frame route: compositions of the invariant frame derivatives
  (x innermost, so the sheared x-wrap only ever acts on invariant samples),
  corrected by the frame connection — assembled as sparse matrices, it is
  the route the adjoint system, its exact-transpose forward operator, and
  the normal operator are built on;
* the chart route: coordinate stencils of the ten chart Hessian formulas,
  applied to sampled fields: one-sided in x at the fundamental-domain faces
  so nothing crosses the sheared seam, and the grid's periodic y, z, t
  rings, which the frame route's differences lift.

Both routes are second order; their difference contracts like h^2, which the
Richardson fit exposes.  Fourier modes feed the principal-symbol ratio check,
and the spectral floor of the normal operator certifies the kernel gap
against the flat-torus baseline.

Variants: "kt" (the sheared quotient, curved connection) and "flat" (plain
4-torus, pairing (x,y) and (z,t), zero connection).
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import exact, lie
from .grid import AXES, QuotientGrid, apply_axis, d1_sided, d2_sided

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
    """Slot basis for a signed-permutation almost-complex structure."""
    j = np.asarray(j, dtype=float)
    if j.shape != (4, 4):
        raise ValueError("expected a 4x4 J")
    pi = np.full(4, -1, dtype=int)
    sig = np.zeros(4)
    for col in range(4):
        rows = np.nonzero(j[:, col])[0]
        if len(rows) != 1 or abs(j[rows[0], col]) != 1.0:
            raise ValueError("J must be a signed permutation on the frame")
        pi[col], sig[col] = rows[0], j[rows[0], col]
    if any(pi[pi[c]] != c or sig[c] * sig[pi[c]] != -1.0 for c in range(4)):
        raise ValueError("J^2 != -I")
    found: dict = {}
    order = []
    for i in range(4):
        for jj in range(i, 4):
            if (i, jj) in found:
                continue
            partner = tuple(sorted((pi[i], pi[jj])))
            s = int(sig[i] * sig[jj])
            if partner == (i, jj):
                if s == 1:
                    continue  # forced invariant direction
                found[(i, jj)] = ((i, jj), -1, 2)
            else:
                found[(i, jj)] = (partner, s, 2 if i == jj else 4)
                found[partner] = None  # dependent entry, not a slot
            order.append((i, jj))
    preferred = _PREFERRED_SLOTS.get(j.tobytes())
    if preferred is not None:
        order = list(preferred)
    slots = tuple(order)
    return SlotBasis(slots,
                     tuple(found[s][2] for s in slots),
                     tuple(found[s][0] for s in slots),
                     tuple(found[s][1] for s in slots))


def slot_values(a: np.ndarray, basis: SlotBasis) -> np.ndarray:
    """Project a symmetric matrix onto the slots: v_s = (a_ij - s_s a_i'j')/2."""
    a = np.asarray(a, dtype=float)
    out = np.empty(len(basis.slots))
    for s, ((i, jj), (pi_, pj), sg) in enumerate(
            zip(basis.slots, basis.pairs, basis.signs)):
        out[s] = 0.5 * (a[i, jj] - sg * a[pi_, pj])
    return out


def slot_embed(values, basis: SlotBasis) -> np.ndarray:
    """Rebuild the full anti-invariant symmetric matrix from slot values."""
    h = np.zeros((4, 4))
    for s, ((i, jj), (pi_, pj), sg) in enumerate(
            zip(basis.slots, basis.pairs, basis.signs)):
        h[i, jj] = h[jj, i] = values[s]
        if (pi_, pj) != (i, jj):
            h[pi_, pj] = h[pj, pi_] = -sg * values[s]
    return h


# ---------------------------------------------------------------------------
# variants


@dataclass(frozen=True)
class OperatorVariant:
    name: str
    j: np.ndarray
    gamma: np.ndarray      # frame connection <nabla_i e_j, e_k>
    r_minus: np.ndarray    # anti-invariant Ricci part, as a 4x4 matrix
    twisted: bool


_VARIANTS: dict = {}


def get_variant(name: str) -> OperatorVariant:
    """The named variant, built once per process and then shared.

    Its arrays are read-only, so no holder can change another's variant.
    """
    if name not in _VARIANTS:
        if name == "kt":
            tables = lie.curvature_tables(lie.kt_spec(1))
            v = OperatorVariant("kt", J_KT, exact.to_float(tables.gamma),
                                exact.to_float(tables.ricci_anti), True)
        elif name == "flat":
            v = OperatorVariant("flat", J_FLAT, np.zeros((4, 4, 4)),
                                np.zeros((4, 4)), False)
        else:
            raise ValueError(f"unknown variant {name!r}")
        for a in (v.j, v.gamma, v.r_minus):
            a.flags.writeable = False
        _VARIANTS[name] = v
    return _VARIANTS[name]


# ---------------------------------------------------------------------------
# the two discretization routes

_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def frame_fields(g: QuotientGrid, variant: OperatorVariant) -> tuple:
    """Sparse frame derivatives E_i, built once per grid and variant, shared,
    and not to be modified; for the sheared quotient the second field is
    D_y + x D_z (the invariant field), the rest are plain axis differences."""
    if variant.twisted != g.twisted:
        raise ValueError(f"variant {variant.name!r} expects twisted={variant.twisted}")
    built = _FRAMES.setdefault(g, {})
    if variant.name not in built:
        dx, dy, dz, dt = (g.diff(a) for a in AXES)
        if variant.name == "kt":
            dy = (dy + g.x_matrix() @ dz).tocsr()
        built[variant.name] = (dx, dy, dz, dt)
    return built[variant.name]


def hessian_ops_frame(g: QuotientGrid, variant: OperatorVariant,
                      psi=None) -> dict:
    """Frame-route Hessian slots applied to psi, (i, j) with i <= j.

    H_ij psi = E_j(E_i psi) - sum_k gamma[j][i][k] E_k psi, with the lower
    frame index innermost: the sheared x-difference is only ever applied
    directly to psi, never to a chart-dependent intermediate array (which
    would cost an order at the seam).  Each E_k psi is formed once and
    reused by every slot.

    psi is a (size, m) field block, or None for the identity, which gives
    the slot matrices themselves.  A sparse identity would give the same
    values in another order (a sparse product reverses each row's entries),
    and AdjointSystem.apply, which sums each row in stored order, would
    change in the last bit.
    """
    e = frame_fields(g, variant)
    first = e if psi is None else [ek @ psi for ek in e]
    gam = variant.gamma
    ops = {}
    for i in range(4):
        for jj in range(i, 4):
            op = e[jj] @ first[i]
            for k in range(4):
                c = gam[jj][i][k]
                if c != 0.0:
                    op = op - c * first[k]
            ops[(i, jj)] = op
    return ops


def hessian_ops_chart(g: QuotientGrid, variant: OperatorVariant,
                      psi: np.ndarray):
    """Chart-route Hessian slots applied to psi, a (size, m) array of m field
    columns (route_difference passes one column at a time).

    The ten chart Hessian formulas in narrow 3-point second and centered
    first differences.  On the sheared quotient x is one-sided at the faces
    of the fundamental domain, so the route never crosses the seam and stays
    second order; every other axis takes the grid's periodic rings, which
    the frame route's differences lift.  The routes stay independent in x
    and in the Hessian formula (frame composition with connection terms vs
    the chart formulas).  Each n x n stencil is applied along its axis by
    apply_axis, so this route builds no grid-size matrix.

    The result iterates ((i, j), slot) pairs in the frame route's key order,
    each slot of psi's shape formed only when asked for.  Each shared
    difference of psi is formed once and dropped after its last slot, so at
    most five arrays of psi's shape (kt; one flat) are held between slots.
    """
    if variant.twisted != g.twisted:
        raise ValueError(f"variant {variant.name!r} expects twisted={variant.twisted}")
    if variant.name == "flat":
        return _flat_chart_slots(g, psi)
    return _kt_chart_slots(g, psi)


def _flat_chart_slots(g, psi):
    first = [g.ring(a) for a in AXES]
    for i, a in enumerate(AXES):
        yield (i, i), apply_axis(g.ring(a, 2), a, g, psi)
        once = apply_axis(first[i], a, g, psi) if i < 3 else None
        for jj in range(i + 1, 4):
            yield (i, jj), apply_axis(first[jj], AXES[jj], g, once)


def _kt_chart_slots(g, psi):
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
# the adjoint system


def _real_matvec(op, v: np.ndarray) -> np.ndarray:
    """op @ v for a real sparse op; a complex v as two real products, the
    same sums as the mixed product, which recasts op to complex per call."""
    if not np.iscomplexobj(v):
        return op @ v
    out = np.empty(op.shape[0], dtype=v.dtype)
    out.real, out.imag = op @ v.real, op @ v.imag
    return out


class AdjointSystem:
    """Slot operators A_s of (Hess psi)^- - r^- psi on one grid, frame route."""

    def __init__(self, g: QuotientGrid, variant: str | OperatorVariant = "kt"):
        self.grid = g
        self.variant = get_variant(variant) if isinstance(variant, str) else variant
        self.basis = anti_slots(self.variant.j)
        hess = hessian_ops_frame(g, self.variant)
        ident = sp.identity(g.size, format="csr")
        self.ops = []
        for (i, jj), (pi_, pj), sg in zip(self.basis.slots, self.basis.pairs,
                                          self.basis.signs):
            partner = hess[(min(pi_, pj), max(pi_, pj))]
            op = 0.5 * (hess[(i, jj)] - sg * partner)
            r = self.variant.r_minus[i][jj]
            if r != 0.0:
                op = op - r * ident
            self.ops.append(op.tocsr())
        self.weights = self.basis.weights

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Slot values of the adjoint operator: shape (6, size)."""
        psi = np.asarray(psi).ravel()
        return np.stack([_real_matvec(op, psi) for op in self.ops])

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Exact discrete adjoint of apply() in the weighted inner product:
        sum_s w_s A_s^T u_s.  Summation by parts is built in, so the pairing
        <apply(psi), u>_W = <psi, forward(u)> holds to machine precision."""
        u = np.asarray(u)
        if u.shape != (len(self.ops), self.grid.size):
            raise ValueError(f"expected slot stack of shape "
                             f"{(len(self.ops), self.grid.size)}")
        out = np.zeros(self.grid.size, dtype=u.dtype)
        for w, op, us in zip(self.weights, self.ops, u):
            out = out + w * _real_matvec(op.T, us)
        return out

    def weighted_norm_sq(self, u: np.ndarray) -> float:
        u = np.asarray(u)
        total = sum(w * float(np.vdot(us, us).real)
                    for w, us in zip(self.weights, u))
        return self.grid.cell_volume * total

    def normal_rows(self, rows=None) -> sp.csr_matrix:
        """Rows of M = sum_s w_s A_s^T A_s, as sum_s w_s (A_s[:, rows])^T A_s.

        rows=None gives all of M.  The rows are cut from each A_s before the
        product, not from A_s^T after it, so row r holds the same bytes as
        row r of the whole M.
        """
        size = self.grid.size
        m = sp.csr_matrix((size if rows is None else len(rows), size))
        for w, op in zip(self.weights, self.ops):
            left = op.T if rows is None else op[:, rows].T
            m = m + w * (left @ op)
        return m.tocsr()

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Frame Laplacian: the trace sum_i H_ii of the frame Hessian."""
        hess = hessian_ops_frame(self.grid, self.variant)
        lap = sp.csr_matrix((self.grid.size, self.grid.size))
        for i in range(4):
            lap = lap + hess[(i, i)]
        return lap.tocsr()

    def slot_residual_norms(self, psi: np.ndarray) -> np.ndarray:
        """Per-slot L2 norms of apply(psi) — unweighted, cell-volume measure,
        so individual near-kernel slots can be read off directly."""
        u = self.apply(psi)
        with np.errstate(over="ignore"):
            norms = np.array([self.grid.l2(us) for us in u])
        self.grid.refuse_overflow(np.isfinite(norms).all(),
                                  "the slot residual norms, of order 1/h_t^2,")
        return norms


def build_system(n: int, nt: Optional[int] = None, d: float = 1.0,
                 variant: str = "kt") -> AdjointSystem:
    v = get_variant(variant)
    g = QuotientGrid(n, nt, d, twisted=v.twisted)
    return AdjointSystem(g, v)


# ---------------------------------------------------------------------------
# symbol checks


def _frequencies(k) -> tuple:
    """(kx, ky, kz, kt) as ints: anything but four integers is refused, not
    truncated, so no caller reads a different mode than it asked for."""
    try:
        ks = tuple(k)
    except TypeError:
        ks = ()
    if len(ks) != 4 or not all(isinstance(v, numbers.Integral) for v in ks):
        raise ValueError(f"need four integer frequencies (kx, ky, kz, kt), "
                         f"got {k!r}")
    return tuple(int(v) for v in ks)


def fourier_mode(g: QuotientGrid, k: tuple) -> np.ndarray:
    """Complex plane wave with integer frequencies (kx, ky, kz, kt).

    On the sheared quotient only kz = 0 modes descend (the z-frequency would
    have to twist with y), so anything else is rejected there.
    """
    kx, ky, kz, kt = _frequencies(k)
    if g.twisted and kz != 0:
        raise ValueError("sheared quotient admits plane waves with kz = 0 only")
    return g.sample(lambda x, y, z, t: np.exp(
        1j * (2.0 * math.pi * (kx * x + ky * y + kz * z + kt * t / g.d))))


def mode_xi(g: QuotientGrid, k: tuple) -> float:
    """Continuum wavevector length 2 pi |(kx, ky, kz, kt/d)|."""
    kx, ky, kz, kt = _frequencies(k)
    return 2.0 * math.pi * math.sqrt(kx * kx + ky * ky + kz * kz
                                     + (kt / g.d) ** 2)


def symbol_check(system: AdjointSystem, k: tuple) -> float:
    """Weighted squared norm of the slot symbols against half the squared
    Laplacian symbol, evaluated on one discrete plane wave.

    In the flat model the ratio is identically 1 (the discrete identity
    matches the principal symbol of half the squared Laplacian exactly); on
    the sheared quotient lower-order connection terms add O(|sigma|^-2)
    corrections that die off up the spectrum.
    """
    g = system.grid
    psi = fourier_mode(g, k)
    u = system.apply(psi)
    num = system.weighted_norm_sq(u)
    lp = _real_matvec(system.laplacian, psi)
    den = 0.5 * g.cell_volume * float(np.vdot(lp, lp).real)
    if den == 0.0:
        raise ValueError("zero-frequency mode has no symbol ratio")
    return num / den


def symbol_sweep(system: AdjointSystem, modes=None):
    """Ratio decay along a mode family; returns (|xi|, |ratio-1|, slope).

    Default family on the sheared quotient: (1, 0, 0, e) for e = 1..nt/4 —
    kz must vanish there, and the x-frequency pins the corrections on.  The
    slope is the least-squares fit of log|ratio-1| against log|xi|.
    """
    g = system.grid
    if modes is None:
        modes = [(1, 0, 0, e) for e in range(1, g.nt // 4 + 1)]
    xi, dev = [], []
    for k in modes:
        ratio = symbol_check(system, k)
        xi.append(mode_xi(g, k))
        dev.append(abs(ratio - 1.0))
    xi, dev = np.array(xi), np.array(dev)
    good = dev > 0
    slope = float(np.polyfit(np.log(xi[good]), np.log(dev[good]), 1)[0]) \
        if good.sum() >= 2 else math.nan
    return xi, dev, slope


# ---------------------------------------------------------------------------
# spectral floor of the normal operator


@dataclass(frozen=True)
class SpectralReport:
    values: np.ndarray
    vectors: np.ndarray      # complex grid-space columns, unit norm
    residuals: np.ndarray    # ||sum_s w_s A_s^T (A_s v) - lambda v||
    method: str
    size: int
    sectors: tuple           # (kz, kt) DFT index of each value
    solved: int              # sector blocks sent to eigvalsh

    @property
    def floor(self) -> float:
        return float(self.values[0])


def _unit_roots(m: int) -> np.ndarray:
    """e^{2 pi i a / m} for a = 0..m-1, with entry m - a the exact conjugate
    of entry a, so conjugate sectors fold to exactly conjugate blocks."""
    e = np.exp(2j * math.pi * np.arange(m) / m)
    e[m // 2 + 1:] = np.conj(e[1:(m + 1) // 2][::-1])
    return e


def spectral_floor(system: AdjointSystem, k: int = 2) -> SpectralReport:
    """Smallest k eigenpairs of the normal operator, one (z, t) sector at a time.

    M commutes with the z and t translations (the central-character splitting
    of the Heisenberg quotient), so it is block diagonal on the plane waves
    phi(i, j) exp(2 pi i (kz k / n + kt l / nt)).  Each n^2 x n^2 Hermitian
    block is folded from the n^2 rows of M at (z, t) = (0, 0), which are
    the only rows assembled:
    B[(i,j),(i',j')] = sum M[(i,j,0,0),(i',j',k',l')] e^{2 pi i (kz k'/n + kt l'/nt)}.
    The sheared x-wrap needs no extra phase: the column indices k' are
    canonical, so the shear is already in them.

    eigvalsh runs once per orbit of two exact pairings, and its values are
    copied to every twin sector:

    * conjugation, (kz, kt) ~ (-kz, -kt): M is real, so B(-k) = conj B(k)
      has the same spectrum (the phase tables are conjugate-symmetric to
      the last bit, so this holds entry for entry);
    * t-parity, kt ~ kt + nt/2, when nt is even and every nonzero entry of
      the folded rows has an even t-offset l': then both sectors read the
      same exponent indices, and their blocks are equal entry for entry.

    The k smallest values over all sectors are kept (stable sort, so ties go
    to the first sector in (kz, kt) order), each picked sector's own block
    gives its vectors, and residuals are recomputed in grid space as
    sum_s w_s A_s^T (A_s v) - lambda v.
    """
    g = system.grid
    n, nt, nxy = g.n, g.nt, g.n * g.n
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"need an integer k, got {k!r}")
    k = int(k)
    if not 1 <= k <= g.size:
        raise ValueError(f"need 1 <= k <= {g.size} eigenpairs, got {k}")
    rows = system.normal_rows(np.arange(nxy) * (n * nt)).tocoo()
    g.refuse_overflow(np.isfinite(rows.data).all(),
                      "the normal operator's entries, of order 1/h_t^4,")
    xy, rest = np.divmod(rows.col, n * nt)
    kc, lc = np.divmod(rest, nt)
    flat = rows.row * nxy + xy
    ez, et = _unit_roots(n), _unit_roots(nt)

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
    vals = np.empty((n * nt, per))
    reps = np.unique(first)
    for r in reps:
        vals[first == r] = np.linalg.eigvalsh(block(*divmod(r, nt)))[:per]
    vals = vals.ravel()
    order = np.argsort(vals, kind="stable")[:k]
    picked = tuple(divmod(int(i // per), nt) for i in order)
    vecs = np.empty((g.size, k), dtype=complex)
    bases: dict = {}
    for col, (i, (kz, kt)) in enumerate(zip(order, picked)):
        if (kz, kt) not in bases:
            bases[(kz, kt)] = np.linalg.eigh(block(kz, kt))[1]
        wave = np.multiply.outer(ez[kz * np.arange(n) % n],
                                 et[kt * np.arange(nt) % nt])
        phi = bases[(kz, kt)][:, i % per]
        vecs[:, col] = np.multiply.outer(phi, wave).ravel() / math.sqrt(n * nt)
    values = vals[order]
    res = np.array([np.linalg.norm(system.forward(system.apply(v)) - lam * v)
                    for v, lam in zip(vecs.T, values)])
    return SpectralReport(values, vecs, res, "fourier-sector", g.size, picked,
                          len(reps))


def kernel_gap(n: int, nt: Optional[int] = None, d: float = 1.0,
               variant: str = "kt", k: int = 2,
               seed: Optional[int] = None) -> SpectralReport:
    """Spectral floor of the normal operator on an n (x nt) grid.

    seed is accepted and ignored: the sector solve is deterministic.
    """
    return spectral_floor(build_system(n, nt, d, variant), k=k)


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


def _field_list(field, d: float):
    """(fields, single): a lone callable or None (the theta field) becomes a
    one-element list; any other value must be a non-empty sequence of
    callables."""
    if field is None or callable(field):
        return [field if field is not None else theta_test_field(d)], True
    try:
        fields = list(field)
    except TypeError:
        fields = []
    if not fields or not all(callable(f) for f in fields):
        raise ValueError("field must be a callable or a non-empty sequence "
                         f"of callables, got {field!r}")
    return fields, False


def route_difference(n: int, variant: str = "kt", d: float = 1.0,
                     field=None):
    """(max, L2) norms of (frame route - chart route) over all ten slots.

    field is one callable (default theta_test_field(d)), which gives two
    floats, or a sequence of callables, which gives two arrays with one entry
    per field.  The fields stream through one grid, whose cached differences
    and frame fields they share: each is sampled as a (size, 1) column, both
    routes are applied to it, so no slot matrix is assembled, and everything
    built for it is dropped before the next field is sampled.  A complex,
    NaN or infinite field is refused before its slots are formed.

    The ten frame slots are formed at once; the chart slots one at a time,
    each reduced against its frame partner, which is then dropped, before
    the next is formed.
    """
    fields, single = _field_list(field, d)
    v = get_variant(variant)
    g = QuotientGrid(n, n, d, twisted=v.twisted)
    err_max = np.zeros(len(fields))
    err_sq = np.zeros(len(fields))
    for f, fn in enumerate(fields):
        psi = g.sample(fn)[:, None]
        if np.iscomplexobj(psi):
            raise ValueError("field must be real-valued")
        if not np.isfinite(psi).all():
            raise ValueError("field must be finite at every grid node")
        frame = hessian_ops_frame(g, v, psi)
        for key, chart in hessian_ops_chart(g, v, psi):
            diff = frame.pop(key) - chart
            del chart
            err_max[f] = np.maximum(err_max[f], np.max(np.abs(diff)))
            err_sq[f] += np.sum(diff * diff)
            del diff
        del psi
    err_l2 = np.sqrt(g.cell_volume * err_sq)
    if single:
        return float(err_max[0]), float(err_l2[0])
    return err_max, err_l2


@dataclass(frozen=True)
class OrderFit:
    ns: tuple
    h: np.ndarray
    err_max: np.ndarray
    err_l2: np.ndarray
    order_max: float
    order_l2: float


def richardson_orders(ns=(8, 12, 16, 20), variant: str = "kt", d: float = 1.0,
                      field=None):
    """Least-squares convergence orders of the two-route difference.

    ns must hold at least two distinct integer grid sizes >= 4.  field is
    as in route_difference.  One callable gives one OrderFit; a sequence
    gives one OrderFit per field, all fitted from one route_difference call
    per grid size, which streams the fields through one grid; each fit is
    bit-identical to its one-field fit.
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
    fields, single = _field_list(field, d)
    h = np.array([1.0 / n for n in ns])
    per_n = [route_difference(n, variant, d, fields) for n in ns]
    fits = []
    for i in range(len(fields)):
        err_max = np.array([p[0][i] for p in per_n])
        err_l2 = np.array([p[1][i] for p in per_n])
        order_max = float(np.polyfit(np.log(h), np.log(err_max), 1)[0])
        order_l2 = float(np.polyfit(np.log(h), np.log(err_l2), 1)[0])
        fits.append(OrderFit(ns, h, err_max, err_l2, order_max,
                             order_l2))
    return fits[0] if single else fits
