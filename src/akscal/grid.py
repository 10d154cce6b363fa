"""Finite differences on a 4-dimensional lattice with a sheared x-wrap.

The quotient identifies (x+1, y, z) with (x, y, z-y) — wrapping the first
index shears the third by the second — while y, z, t wrap cleanly (t has
circumference d).  Functions on the quotient are arrays over the fundamental
vertex grid, flattened in C order.

With twisted=False the same machinery produces the plain 4-torus.

Every difference is a one-axis stencil, a ring the grid builds once, applied
along its axis by `apply_axis`; `QuotientGrid.diff` writes a first-difference
ring out as a grid-size CSR.  The frame fields are built from these by
`QuotientGrid.frame` (per call, for the spectral floor's slab rows alone),
applied by `apply_frame`, or applied on (z, t) Fourier sectors, one per
column of a block, by `Sector.apply_frame`.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np
import scipy.sparse as sp

AXES = ("x", "y", "z", "t")


class QuotientGrid:
    """Vertex grid: node (i,j,k,l) at (i hx, j hy, k hz, l ht), C-order flat."""

    def __init__(self, n: int, nt: int | None = None, d: float = 1.0,
                 twisted: bool = True):
        self.n = _grid_size(n, "n")
        self.nt = _grid_size(nt, "nt") if nt is not None else self.n
        if self.n < 4:
            raise ValueError("need n >= 4")
        if self.nt < 4:
            raise ValueError("need nt >= 4")
        if isinstance(d, bool) or not isinstance(d, numbers.Real):
            raise ValueError(f"need a real d, got {d!r}")
        if not (d > 0 and math.isfinite(d)):
            raise ValueError("need finite d > 0")
        self.d = float(d)
        self.twisted = bool(twisted)
        self.hx = self.hy = self.hz = 1.0 / self.n
        self.ht = self.d / self.nt
        self.shape = (self.n, self.n, self.n, self.nt)
        self.size = self.n ** 3 * self.nt
        self.cell_volume = self.hx * self.hy * self.hz * self.ht
        self._rings: dict = {}

    def spacing(self, axis: str) -> float:
        return (self.hx, self.hy, self.hz, self.ht)[_axis(axis)]

    def reduce_index(self, i, j, k, l):
        """Canonical representative of a (possibly out-of-range) index tuple."""
        i, j, k, l = (np.asarray(v) for v in (i, j, k, l))
        j = np.mod(j, self.n)
        l = np.mod(l, self.nt)
        q = np.floor_divide(i, self.n)
        i = i - q * self.n
        k = np.mod(k - q * j if self.twisted else k, self.n)
        return i, j, k, l

    def flat(self, i, j, k, l):
        i, j, k, l = self.reduce_index(i, j, k, l)
        return np.ravel_multi_index((i, j, k, l), self.shape)

    def _open_indices(self):
        """Node indices (i, j, k, l), each of length 1 off its own axis."""
        return np.meshgrid(*(np.arange(s) for s in self.shape), indexing="ij",
                           sparse=True)

    def node_coordinates(self):
        """Chart coordinates of the nodes, broadcastable to the grid shape."""
        i, j, k, l = self._open_indices()
        return i * self.hx, j * self.hy, k * self.hz, l * self.ht

    def sample(self, fn) -> np.ndarray:
        """Flattened samples of fn(x, y, z, t) over the nodes.

        fn must act elementwise: it is called once on the open coordinate
        grid, and its result is broadcast to the grid shape.
        """
        if not callable(fn):
            raise ValueError(f"need a callable field, got {fn!r}")
        vals = np.asarray(fn(*self.node_coordinates()))
        dtype = complex if np.iscomplexobj(vals) else float
        return np.array(np.broadcast_to(vals, self.shape), dtype=dtype).ravel()

    # -- differences ----------------------------------------------------------

    def ring(self, axis: str, order: int = 1) -> sp.csr_matrix:
        """The periodic centered first (order 1) or narrow 3-point second
        (order 2) difference along axis, as an n x n one-axis stencil, built
        once per grid and shared, its arrays read-only."""
        if order not in (1, 2):
            raise ValueError(f"need order 1 or 2, got {order!r}")
        key = (_axis(axis), order)
        if key not in self._rings:
            h, eye = self.spacing(axis), np.eye(self.shape[key[0]])
            if not h * h * sys.float_info.min < 1.0:
                raise ValueError(f"h_t = d/nt = {self.ht:.3g} is too large: "
                                 f"the Hessian weights, of order 1/h_t^2, "
                                 f"underflow a float")
            self.refuse_overflow(h ** 2 * sys.float_info.max > 1.0,
                                 "the Hessian weights, of order 1/h_t^2,")
            c = 1.0 / h ** 2
            weights = ({-1: -0.5 / h, 1: 0.5 / h}, {-1: c, 0: -2.0 * c, 1: c})
            m = sp.csr_matrix(sum(w * np.roll(eye, s, axis=1)
                                  for s, w in weights[order - 1].items()))
            for a in (m.data, m.indices, m.indptr):
                a.flags.writeable = False
            self._rings[key] = m
        return self._rings[key]

    def diff(self, axis: str) -> sp.csr_matrix:
        """Centered first difference along one axis (wrap per the quotient),
        as a grid-size CSR built directly: a node at position p on the axis
        takes row p of ring(axis), each ring column c read c - p strides
        away in the ring's column order, so the first and last slabs wrap
        by n - 1 strides.  On the sheared x-wrap the wrapped column of each
        first- and last-slab row is re-pointed through the index reduction;
        the shear moves k alone and CSR column order is fixed by i, so every
        row stays sorted."""
        ring, pos = self.ring(axis), _axis(axis)
        n, stride = ring.shape[0], math.prod(self.shape[pos + 1:])
        idx = np.int32 if 2 * self.size < 2 ** 31 else np.int64
        # the columns of the first n slabs, then moved to each later n
        moves = (ring.indices.reshape(n, 2) - np.arange(n)[:, None]) * stride
        first = (np.repeat(np.arange(n * stride, dtype=idx), 2)
                 + np.repeat(moves.astype(idx), stride, axis=0).ravel())
        cols = first + np.arange(0, self.size, n * stride, dtype=idx)[:, None]
        if axis == "x" and self.twisted:
            _, j, k, l = self._open_indices()
            slabs = cols.reshape(n, stride, 2)
            slabs[0, :, -1] = self.flat(-1, j, k, l).ravel()
            slabs[-1, :, 0] = self.flat(self.n, j, k, l).ravel()
        data = np.repeat(ring.data.reshape(n, 2), stride, axis=0).ravel()
        return sp.csr_matrix((np.tile(data, len(cols)), cols.ravel(),
                              np.arange(0, 2 * self.size + 1, 2, dtype=idx)),
                             shape=(self.size, self.size))

    def frame(self) -> tuple:
        """The frame fields (E_x, E_y, E_z, E_t) as grid-size matrices, built
        per call for their one package caller, the spectral floor's slab
        rows: the axis differences, except E_y = D_y + x D_z, the invariant
        field, on the sheared quotient."""
        dx, dy, dz, dt = (self.diff(a) for a in AXES)
        if self.twisted:
            x = sp.diags(self.sample(lambda x, y, z, t: x))
            dy = (dy + x @ dz).tocsr()
        return dx, dy, dz, dt

    def apply_frame(self, k: int, block: np.ndarray, dz=None) -> np.ndarray:
        """frame()[k] @ block, each ring applied along its axis; the sheared
        x-wrap reads the sources diff("x") points to.  Bit for bit but for
        the twisted E_y = D_y + x D_z, which adds x dz (dz = D_z block)."""
        shape, block = np.shape(block), np.asarray(block).reshape(self.size, -1)
        ring = self.ring(AXES[k])
        out = apply_axis(ring, AXES[k], self, block)
        if self.twisted and k == 1:
            dz = apply_axis(self.ring("z"), "z", self, block) if dz is None else dz
            out += self.sample(lambda x, y, z, t: x)[:, None] * dz.reshape(out.shape)
        elif self.twisted and k == 0:
            _, j, kz, l = self._open_indices()
            lo, hi = (block[self.flat(i, j, kz, l).ravel()] for i in (-1, self.n))
            b, o = (a.reshape(self.n, -1, block.shape[1]) for a in (block, out))
            fwd, back = ring.data[:2]  # row 0: fwd at column 1, back at n - 1
            o[0], o[-1] = fwd * b[1] + back * lo, fwd * hi + back * b[-2]
            out = o.reshape(block.shape)
        return out.reshape(shape)

    def refuse_overflow(self, finite: bool, what: str) -> None:
        """The one refusal of a t-period too small for float arithmetic:
        ValueError naming h_t unless `what`, a quantity of negative order in
        the spacing, is finite.  x, y and z are spaced 1/n, so only h_t =
        d/nt drives such a quantity out of the float range."""
        if not finite:
            raise ValueError(f"h_t = d/nt = {self.ht:.3g} is too small: "
                             f"{what} overflow a float")


class Sector:
    """The frame on (kz, kt) Fourier sectors: apply_frame(k, phi) (x) wave
    = E_k (phi (x) wave) for an (n^2, m) complex (x, y) block phi and the
    wave e^{2 pi i (kz k/n + kt l/nt)}.  kz and kt are integers, or integer
    arrays of length m that give each column its own sector.  E_z and E_t
    multiply by their ring's symbol; E_x and E_y take their rings along the
    slab, and on the sheared quotient E_x's wrapped entries carry the phase
    e^{+-2 pi i kz j/n} (row 0 reads (n-1, j), row n-1 reads (0, j)) and
    E_y adds x E_z (dz)."""

    def __init__(self, grid: QuotientGrid, kz, kt):
        self.grid, self.twisted, self.shape = grid, grid.twisted, grid.shape[:2]
        # phase[j, c] and symbols[a][c] belong to column c's sector
        self.phase = unit_roots(grid.n)[np.outer(np.arange(grid.n), kz) % grid.n]
        self.symbols = [
            (grid.ring(a) @ unit_roots(m)[np.outer(np.arange(m), k) % m])[0]
            for a, k, m in (("z", kz, grid.n), ("t", kt, grid.nt))]

    def apply_frame(self, k: int, block: np.ndarray, dz=None) -> np.ndarray:
        block = np.asarray(block, dtype=complex)
        if k >= 2:
            return self.symbols[k - 2] * block
        g, ring = self.grid, self.grid.ring(AXES[k])
        out = apply_axis(ring, AXES[k], self, block)
        if self.twisted and k == 1:
            x = np.repeat(np.arange(g.n) * g.hx, g.n)[:, None]
            out += x * (self.symbols[0] * block if dz is None else dz)
        elif self.twisted and k == 0:
            b, o = (a.reshape(*self.shape, -1) for a in (block, out))
            fwd, back = ring.data[:2]  # row 0: fwd at column 1, back at n - 1
            o[0] = fwd * b[1] + back * (self.phase * b[-1])
            o[-1] = fwd * (self.phase.conj() * b[0]) + back * b[-2]
            out = o.reshape(out.shape)
        return out


def unit_roots(m: int) -> np.ndarray:
    """e^{2 pi i a / m} for a = 0..m-1, with entry m - a the exact conjugate
    of entry a, the Nyquist entry of an even m exactly -1, so conjugate
    sectors fold to conjugate blocks entry for entry."""
    e = np.exp(2j * math.pi * np.arange(m) / m)
    e[m // 2 + 1:] = np.conj(e[1:(m + 1) // 2][::-1])
    if m % 2 == 0:
        e[m // 2] = -1.0
    return e


def _axis(axis: str) -> int:
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; choose from x, y, z, t")
    return AXES.index(axis)


def _grid_size(v, name: str) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"need an integer {name}, got {v!r}") from None


# ---------------------------------------------------------------------------
# one-axis stencils for the chart (non-wrapping) difference route


def d1_sided(n: int, h: float) -> sp.csr_matrix:
    """Centered first difference with 2nd-order one-sided rows at both ends."""
    m = sp.diags([-0.5, 0.5], [-1, 1], shape=(n, n), format="lil")
    m[0, :3], m[n - 1, n - 3:] = [-1.5, 2.0, -0.5], [0.5, -2.0, 1.5]
    return (m * (1.0 / h)).tocsr()


def d2_sided(n: int, h: float) -> sp.csr_matrix:
    """3-point second difference with 2nd-order one-sided rows at both ends."""
    m = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="lil")
    m[0, :4], m[n - 1, n - 4:] = [2.0, -5.0, 4.0, -1.0], [-1.0, 4.0, -5.0, 2.0]
    return (m * (1.0 / h ** 2)).tocsr()


def apply_axis(m1d: sp.spmatrix, axis: str, grid: QuotientGrid,
               block: np.ndarray) -> np.ndarray:
    """(I (x) m1d (x) I) @ block in C order, the stencil lifted to the whole
    grid as a canonical CSR, bit for bit, for a (size, m) block, with no
    lift: the axis is moved to the front and the canonical stencil acts
    there through the same CSR kernel, so each output sums its stencil row
    in stored order, as the lifted row does.  A canonical CSR stencil is
    not copied.  On a Sector, x and y act on its (n^2, m) slab."""
    pos = _axis(axis)
    before, n = math.prod(grid.shape[:pos]), grid.shape[pos]
    canonical = getattr(m1d, "has_canonical_format", False)
    m = sp.csr_matrix(m1d, copy=not canonical)
    m.sum_duplicates()
    block = np.asarray(block)
    moved = block.reshape(before, n, -1).transpose(1, 0, 2).reshape(n, -1)
    out = m @ moved
    return out.reshape(n, before, -1).transpose(1, 0, 2).reshape(block.shape)
