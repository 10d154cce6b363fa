"""Sheared quotient grid: index reduction, shifts, stencil accuracy."""

import numpy as np
import pytest
import scipy.sparse as sp

from akscal import grid as gr
from akscal import operator_lab as ol


def nnz_diff(a, b):
    d = (a - b).tocsr()
    d.eliminate_zeros()
    return d.nnz


# -- references: the permutation matrices the differences are checked against


def shift(g, axis, step=1):
    """Permutation matrix of psi -> psi(. + step h_axis along axis)."""
    moved = list(g._open_indices())
    moved[gr._axis(axis)] += int(step)
    cols = g.flat(*moved).ravel()
    return sp.csr_matrix((np.ones(g.size), (np.arange(g.size), cols)),
                         shape=(g.size, g.size))


def x_holonomy_shear(g):
    """psi -> psi(x+1, ., .): the pure index shear k -> k - j."""
    i, j, k, l = np.meshgrid(*(np.arange(s) for s in g.shape), indexing="ij")
    kk = np.mod(k - j, g.n) if g.twisted else k
    cols = np.ravel_multi_index((i, j, kk, l), g.shape).ravel()
    return sp.csr_matrix((np.ones(g.size), (np.arange(g.size), cols)),
                         shape=(g.size, g.size))


def test_constructor_validation():
    with pytest.raises(ValueError):
        gr.QuotientGrid(3)
    with pytest.raises(ValueError):
        gr.QuotientGrid(4, nt=2)
    for d in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="need finite d > 0"):
            gr.QuotientGrid(4, d=d)
    # a non-integer size is refused, not truncated
    for bad in (8.5, 8.0, "8", None):
        with pytest.raises(ValueError):
            gr.QuotientGrid(bad)
    with pytest.raises(ValueError):
        gr.QuotientGrid(8, nt=6.5)


@pytest.mark.parametrize("d", ["1", None, 1j, [1.0], True])
def test_non_real_d_is_refused_by_name(d):
    # every entry point that builds a grid refuses it before comparing d
    for build in (lambda: gr.QuotientGrid(4, d=d),
                  lambda: ol.kernel_gap(4, d=d),
                  lambda: ol.route_difference(4, d=d),
                  lambda: ol.richardson_orders(ns=(4, 5), d=d)):
        with pytest.raises(ValueError, match="need a real d"):
            build()


def test_reduce_index_twisted_wrap():
    g = gr.QuotientGrid(4, twisted=True)
    # crossing x by one period shears the z index by -j
    assert g.reduce_index(5, 2, 1, 0) == (1, 2, 3, 0)
    assert g.reduce_index(-1, 3, 0, 0) == (3, 3, 3, 0)
    # y, t wrap plainly
    assert g.reduce_index(0, 6, 0, 9) == (0, 2, 0, 1)
    g0 = gr.QuotientGrid(4, twisted=False)
    assert g0.reduce_index(5, 2, 1, 0) == (1, 2, 1, 0)


def test_x_period_shift_is_the_shear():
    g = gr.QuotientGrid(5)
    assert nnz_diff(shift(g, "x", g.n), x_holonomy_shear(g)) == 0
    # deck maps commute with each other
    for a, b in ((shift(g, "z", 1), shift(g, "t", 1)),
                 (x_holonomy_shear(g), shift(g, "t", 1)),
                 (x_holonomy_shear(g), shift(g, "z", 1))):
        assert nnz_diff(a @ b, b @ a) == 0


def full_meshgrid(g):
    """Dense index arrays of every node, the reference for the open grid."""
    return np.meshgrid(*(np.arange(s) for s in g.shape), indexing="ij")


@pytest.mark.parametrize("n, nt, d", [(6, 16, 1.0), (20, 20, 1.0), (8, 12, 0.5)])
def test_sample_matches_full_meshgrid(n, nt, d):
    fields = (ol.theta_test_field(d), ol.random_invariant_field(d, 4),
              lambda x, y, z, t: 0.0 * x + 2.5,
              lambda x, y, z, t: np.exp(2j * np.pi * (x + 2 * y - 3 * t / d)))
    g = gr.QuotientGrid(n, nt, d)
    i, j, k, l = full_meshgrid(g)
    coords = (i * g.hx, j * g.hy, k * g.hz, l * g.ht)
    for fn in fields:
        want = np.asarray(fn(*coords)).ravel()
        got = g.sample(fn)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # a field that ignores the nodes still gets one sample per node
    assert np.array_equal(g.sample(lambda x, y, z, t: 1.0), np.ones(g.size))


@pytest.mark.parametrize("twisted", [True, False])
def test_shift_matches_full_meshgrid(twisted):
    g = gr.QuotientGrid(5, nt=6, twisted=twisted)
    i, j, k, l = full_meshgrid(g)
    for axis in "xyzt":
        for step in (1, -1, g.n):
            moved = {"x": (i + step, j, k, l), "y": (i, j + step, k, l),
                     "z": (i, j, k + step, l), "t": (i, j, k, l + step)}[axis]
            want = sp.csr_matrix(
                (np.ones(g.size), (np.arange(g.size), g.flat(*moved).ravel())),
                shape=(g.size, g.size))
            got = shift(g, axis, step)
            for a in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, a), getattr(want, a))


def test_shifts_are_permutations():
    g = gr.QuotientGrid(4, nt=6)
    for axis in "xyzt":
        s = shift(g, axis, 1)
        assert nnz_diff(s @ shift(g, axis, -1), sp.identity(g.size)) == 0
        assert (s.sum(axis=0) == 1).all() and (s.sum(axis=1) == 1).all()


def test_diff_symbol_on_torus():
    # every axis on which the chart route takes the grid's periodic
    # differences; on the sheared quotient that is y, z and t only
    k = 2
    for twisted, nt, d, axes in ((False, 8, 1.0, "xyzt"), (True, 12, 0.5, "yzt")):
        g = gr.QuotientGrid(8, nt, d, twisted=twisted)
        for axis in axes:
            a = gr.AXES.index(axis)
            period = d if axis == "t" else 1.0
            psi = g.sample(lambda *c: np.exp(2j * np.pi * k * c[a] / period))
            h = g.spacing(axis)
            theta = 2 * np.pi * k * h / period
            lam1 = 1j * np.sin(theta) / h
            lam2 = -4.0 * np.sin(theta / 2) ** 2 / h ** 2
            assert np.allclose(g.diff(axis) @ psi, lam1 * psi, atol=1e-12)
            d2 = gr.apply_axis(g.ring(axis, 2), axis, g, psi)
            assert np.allclose(d2, lam2 * psi, atol=1e-9)


def test_twisted_diff_needs_invariance():
    # the sheared x-wrap is exact only on deck-invariant samples; theta-type
    # fields built from y and the combined phase pass through the seam cleanly
    g = gr.QuotientGrid(6, twisted=True)
    psi = g.sample(lambda x, y, z, t: np.cos(2 * np.pi * y) + np.sin(2 * np.pi * t))
    dz = g.diff("z") @ psi
    assert np.max(np.abs(dz)) < 1e-12  # z-independent stays z-independent


@pytest.mark.parametrize("maker, order", [(gr.d1_sided, 1), (gr.d2_sided, 2)])
def test_sided_stencils_exact_on_quadratics(maker, order):
    n, h = 9, 0.125
    xs = np.arange(n) * h
    m = maker(n, h)
    vals = m @ (xs ** 2)
    want = 2 * xs if order == 1 else np.full(n, 2.0)
    assert np.allclose(vals, want, atol=1e-12)


def test_apply_axis_applies_along_one_axis():
    g = gr.QuotientGrid(5, nt=4)
    f = g.sample(lambda x, y, z, t: x ** 2 + 3.0 * y)
    dxx = gr.apply_axis(gr.d2_sided(g.n, g.hx), "x", g, f)
    assert np.allclose(dxx, 2.0, atol=1e-10)
    dtt = gr.apply_axis(gr.d2_sided(g.nt, g.ht), "t", g, f)
    assert np.allclose(dtt, 0.0, atol=1e-12)


def _kron_lift(m1d, axis, grid):
    """I (x) m1d (x) I in C order by Kronecker products, as a canonical CSR:
    a one-axis stencil lifted to the whole grid, as a reference.  CSR
    products store no explicit zeros, as block (BSR) ones would."""
    out = None
    for ax, size in zip(gr.AXES, grid.shape):
        m = m1d if ax == axis else sp.identity(size)
        out = m if out is None else sp.kron(out, m, format="csr")
    out = sp.csr_matrix(out)
    out.sum_duplicates()
    return out


def _shift_diffs(g, axis):
    """The shift arithmetic of the first and second differences, as a
    reference for diff and the lifted second-difference ring."""
    h = g.spacing(axis)
    up, down = shift(g, axis, 1), shift(g, axis, -1)
    return (((up - down) * (0.5 / h)).tocsr(),
            ((up - 2.0 * sp.identity(g.size) + down) * (1.0 / h ** 2)).tocsr())


@pytest.mark.parametrize("n, nt", [(4, 4), (5, 7), (7, 4), (8, 16), (12, 12),
                                   (6, 20), (20, 20)])
@pytest.mark.parametrize("twisted", [True, False])
def test_diffs_match_shift_arithmetic(n, nt, twisted):
    g = gr.QuotientGrid(n, nt=nt, twisted=twisted)
    for axis in gr.AXES:
        first, second = _shift_diffs(g, axis)
        pairs = [(g.diff(axis), first)]
        # no second difference crosses the sheared x-wrap: the chart route
        # is one-sided in x there
        if not (twisted and axis == "x"):
            pairs.append((_kron_lift(g.ring(axis, 2), axis, g), second))
        for new, ref in pairs:
            assert new.has_canonical_format
            for a in ("indptr", "indices", "data"):
                got, want = getattr(new, a), getattr(ref, a)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_unknown_axis_is_refused_by_name():
    g = gr.QuotientGrid(4)
    for call in (lambda: g.diff("w"), lambda: g.ring("w"),
                 lambda: g.spacing("w"), lambda: shift(g, "w"),
                 lambda: gr.apply_axis(gr.d1_sided(4, 0.25), "w", g,
                                       np.zeros(g.size))):
        with pytest.raises(ValueError,
                           match="unknown axis 'w'; choose from x, y, z, t"):
            call()


@pytest.mark.parametrize("n, nt", [(5, 7), (8, 16), (12, 12)])
@pytest.mark.parametrize("twisted", [True, False])
def test_apply_axis_matches_lift_axis(n, nt, twisted):
    g = gr.QuotientGrid(n, nt=nt, twisted=twisted)
    rng = np.random.default_rng(n * nt)
    for axis, size in zip(gr.AXES, g.shape):
        h = g.spacing(axis)
        stencils = [g.ring(axis), g.ring(axis, 2), gr.d1_sided(size, h),
                    gr.d2_sided(size, h)]
        for m1d in stencils:
            lifted = _kron_lift(m1d, axis, g)
            for cols in (1, 3):
                block = rng.standard_normal((g.size, cols))
                got = gr.apply_axis(m1d, axis, g, block)
                want = lifted @ block
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, nt", [(4, 6), (5, 4), (6, 9)])
@pytest.mark.parametrize("twisted", [True, False])
def test_apply_frame_matches_frame_matrices(n, nt, twisted):
    # bit for bit, but for the twisted E_y = D_y + x D_z, whose applied
    # form sums its D_y and x D_z parts apart
    g = gr.QuotientGrid(n, nt=nt, d=0.7, twisted=twisted)
    rng = np.random.default_rng(n * nt)
    for cols in ((), (1,), (3,)):
        block = rng.standard_normal((g.size,) + cols)
        dz = g.apply_frame(2, block)
        for k, ek in enumerate(g.frame()):
            want = ek @ block
            for got in (g.apply_frame(k, block), g.apply_frame(k, block, dz)):
                assert got.shape == want.shape
                if twisted and k == 1:
                    scale = np.abs(want).max()
                    assert np.abs(got - want).max() <= 1e-13 * scale
                else:
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, nt", [(4, 6), (5, 4), (6, 6)])
@pytest.mark.parametrize("twisted", [True, False])
def test_sector_frame_matches_frame_matrices(n, nt, twisted):
    # E_k of phi (x) wave, with kz != 0 on the sheared grid too
    g = gr.QuotientGrid(n, nt=nt, d=0.7, twisted=twisted)
    rng = np.random.default_rng(n * nt)
    for kz, kt in ((0, 0), (1, 2), (n - 1, 1), (2, nt - 1)):
        sector = gr.Sector(g, kz, kt)
        wave = np.multiply.outer(gr.unit_roots(n)[kz * np.arange(n) % n],
                                 gr.unit_roots(nt)[kt * np.arange(nt) % nt])
        for cols in (1, 3):      # a real block, then a complex one
            phi = rng.standard_normal((n * n, cols)) + (
                1j * rng.standard_normal((n * n, cols)) if cols == 3 else 0)
            full = np.multiply.outer(phi, wave.ravel()).transpose(0, 2, 1)
            dz = sector.apply_frame(2, phi)
            for k, ek in enumerate(g.frame()):
                want = (ek @ full.reshape(g.size, cols)).reshape(full.shape)
                for got in (sector.apply_frame(k, phi),
                            sector.apply_frame(k, phi, dz)):
                    assert got.shape == phi.shape
                    err = np.abs(got[:, None, :] * wave.reshape(-1, 1) - want)
                    assert err.max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n, nt", [(4, 6), (5, 4), (6, 9), (8, 16)])
@pytest.mark.parametrize("twisted", [True, False])
def test_sector_arrays_match_one_sector_per_column(n, nt, twisted):
    # integer arrays kz, kt give each column its own sector: bit for bit
    # the scalar Sector of that column's (kz, kt) on that column alone
    g = gr.QuotientGrid(n, nt=nt, d=0.7, twisted=twisted)
    rng = np.random.default_rng(n * nt)
    kz, kt = rng.integers(-n, 2 * n, 9), rng.integers(-nt, 2 * nt, 9)
    kz[:3], kt[:3] = (0, n // 2, n - 1), (0, nt // 2, 1)
    phi = rng.standard_normal((n * n, 9)) + 1j * rng.standard_normal((n * n, 9))
    dz = rng.standard_normal((n * n, 9)) + 1j * rng.standard_normal((n * n, 9))
    sector = gr.Sector(g, kz, kt)
    singles = [gr.Sector(g, int(z), int(t)) for z, t in zip(kz, kt)]
    for k in range(4):
        for d in (None, dz):
            got = sector.apply_frame(k, phi, d)
            assert got.shape == phi.shape
            for c, single in enumerate(singles):
                want = single.apply_frame(k, phi[:, c:c + 1],
                                          None if d is None else d[:, c:c + 1])
                assert got[:, c:c + 1].tobytes() == want.tobytes()


def test_unit_roots_are_conjugate_symmetric_to_the_bit():
    for m in range(1, 41):
        e = gr.unit_roots(m)
        assert e[0] == 1.0
        assert np.array_equal(e[(-np.arange(m)) % m], e.conj())
        if m % 2 == 0:
            assert e[m // 2] == -1.0
        assert np.allclose(e, np.exp(2j * np.pi * np.arange(m) / m),
                           rtol=0, atol=1e-14)


def test_rings_are_built_once_read_only_and_unchanged():
    g = gr.QuotientGrid(5, nt=6, d=0.7)
    for axis, size in zip(gr.AXES, g.shape):
        h = g.spacing(axis)
        c = 1.0 / h ** 2
        weights = ({-1: -0.5 / h, 1: 0.5 / h}, {-1: c, 0: -2.0 * c, 1: c})
        for order in (1, 2):
            ring = g.ring(axis, order)
            assert g.ring(axis, order) is ring
            ref = sp.csr_matrix(sum(w * np.roll(np.eye(size), s, axis=1)
                                    for s, w in weights[order - 1].items()))
            for a, b in ((ring.data, ref.data), (ring.indices, ref.indices),
                         (ring.indptr, ref.indptr)):
                assert a.tobytes() == b.tobytes() and not a.flags.writeable


def test_ring_refuses_other_orders():
    g = gr.QuotientGrid(4)
    for order in (0, 3, 1.5, "1"):
        with pytest.raises(ValueError, match="need order 1 or 2"):
            g.ring("y", order)


def test_sample_refuses_a_non_callable_by_name():
    for fn in ("x", 1.0, None):
        with pytest.raises(ValueError, match="need a callable field"):
            gr.QuotientGrid(4).sample(fn)


def test_l2_normalization():
    # the cell-volume measure slot_residual_norms uses: |1|_2 = sqrt(d)
    g = gr.QuotientGrid(4, d=2.0)
    one = np.sqrt(g.cell_volume) * np.linalg.norm(np.ones(g.size))
    assert one == pytest.approx(np.sqrt(2.0))
