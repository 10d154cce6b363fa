"""Finite differences on a 4-dimensional lattice with a sheared x-wrap.

The quotient identifies (x+1, y, z) with (x, y, z-y) — wrapping the first
index shears the third by the second — while y, z, t wrap cleanly (t has
circumference d).  Functions on the quotient are arrays over the fundamental
vertex grid; all operators below are sparse matrices acting on the flattened
array, so compositions, transposes, and permutation conjugations stay exact.

With twisted=False the same machinery produces the plain 4-torus.

Every difference is a one-axis stencil, applied along its axis by `apply_axis`
or lifted by `lift_axis`; each grid caches its lifted first differences only.
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
        if not isinstance(d, numbers.Real):
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
        self._diffs: dict[str, sp.csr_matrix] = {}

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
        (order 2) difference along axis, as an n x n one-axis stencil."""
        if order not in (1, 2):
            raise ValueError(f"need order 1 or 2, got {order!r}")
        h, eye = self.spacing(axis), np.eye(self.shape[_axis(axis)])
        if not h * h * sys.float_info.min < 1.0:
            raise ValueError(f"h_t = d/nt = {self.ht:.3g} is too large: the "
                             f"Hessian weights, of order 1/h_t^2, underflow "
                             f"a float")
        self.refuse_overflow(h ** 2 * sys.float_info.max > 1.0,
                             "the Hessian weights, of order 1/h_t^2,")
        c = 1.0 / h ** 2
        weights = ({-1: -0.5 / h, 1: 0.5 / h}, {-1: c, 0: -2.0 * c, 1: c})
        return sp.csr_matrix(sum(w * np.roll(eye, s, axis=1)
                                 for s, w in weights[order - 1].items()))

    def diff(self, axis: str) -> sp.csr_matrix:
        """Centered first difference along one axis (wrap per the quotient):
        ring(axis) lifted, cached and shared, so callers must not modify it.
        On the sheared x-wrap the wrapped column of each first- and last-slab
        row is re-pointed through the index reduction; the shear moves k
        alone and CSR column order is fixed by i, so every row stays sorted."""
        if axis not in self._diffs:
            m = lift_axis(self.ring(axis), axis, self)
            if axis == "x" and self.twisted:
                _, j, k, l = self._open_indices()
                cols = m.indices.reshape(self.n, -1, 2)
                cols[0, :, -1] = self.flat(-1, j, k, l).ravel()
                cols[-1, :, 0] = self.flat(self.n, j, k, l).ravel()
            self._diffs[axis] = m
        return self._diffs[axis]

    def x_matrix(self) -> sp.dia_matrix:
        """Multiplication by the chart coordinate x (values in [0, 1))."""
        return sp.diags(self.sample(lambda x, y, z, t: x))

    def refuse_overflow(self, finite: bool, what: str) -> None:
        """The one refusal of a t-period too small for float arithmetic:
        ValueError naming h_t unless `what`, a quantity of negative order in
        the spacing, is finite.  x, y and z are spaced 1/n, so only h_t =
        d/nt drives such a quantity out of the float range."""
        if not finite:
            raise ValueError(f"h_t = d/nt = {self.ht:.3g} is too small: "
                             f"{what} overflow a float")

    # -- norms ----------------------------------------------------------------

    def l2(self, v) -> float:
        return float(np.sqrt(self.cell_volume) * np.linalg.norm(np.asarray(v).ravel()))


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


def lift_axis(m1d: sp.spmatrix, axis: str, grid: QuotientGrid) -> sp.csr_matrix:
    """Promote a one-axis stencil to the full grid: I (x) m1d (x) I in C order.

    The one builder of grid stencils, from index arithmetic: grid row
    (b, r, a) holds row r of the stencil, its column c moved to (b, c, a),
    which is the canonical CSR the Kronecker products give.  The arrays are
    filled in place, so nothing but the result is allocated at full size.
    """
    pos = _axis(axis)
    before = math.prod(grid.shape[:pos])
    after = math.prod(grid.shape[pos + 1:])
    m = sp.csr_matrix(m1d, copy=True)
    m.sum_duplicates()
    n, block = m.shape[0], m.nnz * after
    idx = np.int32 if max(grid.size, before * block) < 2 ** 31 else np.int64
    indices = np.empty((before, block), dtype=idx)
    data = np.empty((before, block))
    a = np.arange(after, dtype=idx)[:, None]
    for lo, hi in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist()):
        # stencil row r fills the block rows (r, a), entry k at (a, k)
        part = slice(lo * after, hi * after)
        np.add(a, m.indices[lo:hi].astype(idx) * after,
               out=indices[0, part].reshape(after, hi - lo))
        data[0, part].reshape(after, hi - lo)[...] = m.data[lo:hi]
    np.add(indices[0], (np.arange(1, before, dtype=idx) * (n * after))[:, None],
           out=indices[1:])
    data[1:] = data[0]
    indptr = np.zeros(grid.size + 1, dtype=idx)
    np.cumsum(np.tile(np.repeat(np.diff(m.indptr).astype(idx), after), before),
              out=indptr[1:])
    return sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                         shape=(grid.size, grid.size))


def apply_axis(m1d: sp.spmatrix, axis: str, grid: QuotientGrid,
               block: np.ndarray) -> np.ndarray:
    """lift_axis(m1d, axis, grid) @ block, bit for bit, for a (size, m)
    block, with no lift: the axis is moved to the front and the canonical
    stencil acts there through the same CSR kernel, so each output sums its
    stencil row in stored order, as the lifted row does."""
    pos = _axis(axis)
    before, n = math.prod(grid.shape[:pos]), grid.shape[pos]
    m = sp.csr_matrix(m1d, copy=True)
    m.sum_duplicates()
    block = np.asarray(block)
    moved = block.reshape(before, n, -1).transpose(1, 0, 2).reshape(n, -1)
    out = m @ moved
    return out.reshape(n, before, -1).transpose(1, 0, 2).reshape(block.shape)
