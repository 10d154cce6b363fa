"""Discrete adjoint operator: slot algebra, symbols, spectra, route orders."""

import gc
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from akscal import cli
from akscal import operator_lab as ol
from akscal import suite
from akscal.grid import AXES, QuotientGrid, d1_sided, d2_sided, unit_roots
from test_grid import _kron_lift, shift


def nnz_diff(a, b):
    d = (a - b).tocsr()
    d.eliminate_zeros()
    return d.nnz


# -- reference assembly: every slot as a sparse matrix product ----------------


def product_frame_slots(g):
    e = g.frame()
    gamma = ol._geometry(g.twisted)[1]
    ops = {}
    for i in range(4):
        for jj in range(i, 4):
            op = (e[jj] @ e[i]).tocsr()
            for k in range(4):
                c = gamma[jj][i][k]
                if c != 0.0:
                    op = op - c * e[k]
            ops[(i, jj)] = op.tocsr()
    return ops


def product_chart_slots(g):
    dx = _kron_lift(d1_sided(g.n, g.hx), "x", g)
    dxx = _kron_lift(d2_sided(g.n, g.hx), "x", g)
    dy, dz, dt = (_kron_lift(g.ring(a), a, g) for a in AXES[1:])
    dyy, dzz, dtt = (_kron_lift(g.ring(a, 2), a, g) for a in AXES[1:])
    x = sp.diags(g.sample(lambda x, y, z, t: x))
    return {
        (0, 0): dxx,
        (1, 1): dyy + 2.0 * (x @ (dy @ dz)) + x @ x @ dzz,
        (2, 2): dzz,
        (3, 3): dtt,
        (0, 1): dy @ dx + x @ (dz @ dx) + 0.5 * dz,
        (0, 2): dz @ dx + 0.5 * dy + 0.5 * (x @ dz),
        (0, 3): dt @ dx,
        (1, 2): dz @ dy + x @ dzz + (-0.5) * dx,
        (1, 3): dt @ dy + x @ (dt @ dz),
        (2, 3): dt @ dz,
    }


def same_csr(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("data", "indices", "indptr"))


def slot_matrices(g):
    """Test-only reference: (weights, the six grid-size slot matrices A_s of
    (Hess psi)^- - r^- psi), composed from product_frame_slots."""
    j, _, r_minus = ol._geometry(g.twisted)
    basis = ol.anti_slots(j)
    hess = product_frame_slots(g)
    ident = sp.identity(g.size, format="csr")
    ops = []
    for (i, jj), (pi_, pj), sg in zip(basis.slots, basis.pairs, basis.signs):
        op = 0.5 * (hess[(i, jj)] - sg * hess[(min(pi_, pj), max(pi_, pj))])
        r = r_minus[i][jj]
        if r != 0.0:
            op = op - r * ident
        ops.append(op.tocsr())
    return basis.weights, ops


def normal_rows(g, rows, ops=None):
    """Test-only reference: rows of M = sum_s w_s A_s^T A_s from the grid-size
    slot matrices (ops, else slot_matrices(g)), sum_s w_s (A_s[:, rows])^T
    A_s.  The rows are cut from each A_s before the product, so row r holds
    the bytes of row r of M."""
    weights, mats = slot_matrices(g)
    m = sp.csr_matrix((len(rows), g.size))
    for w, op in zip(weights, mats if ops is None else ops):
        m = m + w * (op[:, rows].T @ op)
    return m.tocsr()


def grid_normal(g, v):
    """sum_s w_s A_s^T (A_s v) through the test-local slot matrices."""
    return sum(w * (op.T @ (op @ v)) for w, op in zip(*slot_matrices(g)))


def slab(g):
    """The n^2 nodes at (z, t) = (0, 0), whose rows of M the floor folds."""
    return np.arange(g.n * g.n) * (g.n * g.nt)


# -- slot algebra -------------------------------------------------------------


def slot_values(a, basis):
    """Project a symmetric matrix onto the slots: v_s = (a_ij - s_s a_i'j')/2."""
    a = np.asarray(a, dtype=float)
    out = np.empty(len(basis.slots))
    for s, ((i, jj), (pi_, pj), sg) in enumerate(
            zip(basis.slots, basis.pairs, basis.signs)):
        out[s] = 0.5 * (a[i, jj] - sg * a[pi_, pj])
    return out


def slot_embed(values, basis):
    """Rebuild the full anti-invariant symmetric matrix from slot values."""
    h = np.zeros((4, 4))
    for s, ((i, jj), (pi_, pj), sg) in enumerate(
            zip(basis.slots, basis.pairs, basis.signs)):
        h[i, jj] = h[jj, i] = values[s]
        if (pi_, pj) != (i, jj):
            h[pi_, pj] = h[pj, pi_] = -sg * values[s]
    return h


def test_slot_bases_frozen():
    kt = ol.anti_slots(ol.J_KT)
    assert kt.slots == ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (0, 3))
    assert kt.weights == (2, 2, 4, 4, 2, 2)
    flat = ol.anti_slots(ol.J_FLAT)
    assert flat.slots == ((0, 0), (2, 2), (0, 1), (2, 3), (0, 2), (0, 3))
    assert flat.weights == (2, 2, 2, 2, 4, 4)
    assert sum(kt.weights) == sum(flat.weights) == 16


def test_slot_round_trip_preserves_norm():
    rng = np.random.default_rng(2)
    for j in (ol.J_KT, ol.J_FLAT):
        basis = ol.anti_slots(j)
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            a = a + a.T
            anti = 0.5 * (a - j.T @ a @ j)
            v = slot_values(anti, basis)
            assert np.allclose(slot_embed(v, basis), anti, atol=1e-13)
            # the slot weights reproduce the Frobenius norm of the embedding
            assert np.isclose(np.sum(np.array(basis.weights) * v ** 2),
                              np.sum(anti ** 2), atol=1e-12)
            # invariant directions project to nothing
            inv = 0.5 * (a + j.T @ a @ j)
            assert np.max(np.abs(slot_values(inv, basis))) < 1e-13


def test_anti_slots_refuses_an_unlisted_j():
    # J pairing (x, z) and (y, t): a signed permutation with J^2 = -I
    j_xz = np.zeros((4, 4))
    j_xz[[2, 3, 0, 1], [0, 1, 2, 3]] = [1.0, 1.0, -1.0, -1.0]
    assert np.array_equal(j_xz @ j_xz, -np.eye(4))
    # neither a mapping nor a string converts to a matrix at all, and a
    # complex J is refused rather than cast to its real part
    for j in (j_xz, -ol.J_KT, ol.J_KT.ravel(), np.eye(4), {}, "J",
              ol.J_KT + 1j * np.eye(4)):
        with pytest.raises(ValueError, match="^J must be J_KT or J_FLAT"):
            ol.anti_slots(j)


def test_unknown_variant_refused():
    for call in (lambda: ol.kernel_gap(4, variant="round"),
                 lambda: ol.kernel_gap(4, variant=["kt"])):
        with pytest.raises(ValueError, match="unknown variant"):
            call()


def test_geometry_is_shared_and_read_only():
    j, gamma, r_minus = ol._geometry(True)
    assert j is ol.J_KT
    assert np.allclose(np.diag(r_minus), [-0.25, -0.5, 0.5, 0.25])
    assert ol._geometry(False)[0] is ol.J_FLAT
    assert np.max(np.abs(ol._geometry(False)[2])) == 0.0
    for variant, twisted in (("kt", True), ("flat", False)):
        assert ol._twisted(variant) is twisted
        geom = ol._geometry(twisted)
        assert ol._geometry(twisted) is geom
        for a in geom:
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


@pytest.mark.parametrize("variant, n", [("kt", 8), ("flat", 6)])
def test_applied_routes_match_product_assembly(variant, n):
    # the chart route runs on the sheared quotient only
    g = QuotientGrid(n, n, 1.0, twisted=variant == "kt")
    psi = np.random.default_rng(5).standard_normal((g.size, 3))
    routes = [(ol.hessian_ops_frame(g, psi), product_frame_slots(g))]
    if g.twisted:
        routes.append((dict(ol.hessian_ops_chart(g, psi)),
                       product_chart_slots(g)))
    for applied, ref in routes:
        assert applied.keys() == ref.keys()
        for key, got in applied.items():
            want = ref[key] @ psi
            assert got.shape == psi.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("variant", ["kt", "flat"])
def test_adjoint_system_matches_product_assembly(variant):
    # the applied slots of (Hess psi)^- - r^- psi against the test-local
    # matrices, and the whole M against its row form
    g = QuotientGrid(6, 6, 1.0, twisted=variant == "kt")
    psi = np.random.default_rng(6).standard_normal((g.size, 3))
    weights, ops = slot_matrices(g)
    basis, slots = ol._anti_slots_of(ol.hessian_ops_frame(g, psi), g, psi)
    assert basis.weights == weights
    for got, op in zip(slots, ops):
        want = op @ psi
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
    normal = sp.csr_matrix((g.size, g.size))
    for w, op in zip(weights, ops):
        normal = normal + w * (op.T @ op)
    assert same_csr(normal_rows(g, np.arange(g.size)), normal.tocsr())


# -- constant-field oracles ----------------------------------------------------


def test_constant_slot_residuals():
    kt = ol.slot_residual_norms(QuotientGrid(4, 4, 1.0), np.ones(4 ** 4))
    assert list(kt) == list(ol.anti_slots(ol.J_KT).slots)
    want = np.array([0.25, 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(list(kt.values()), want, atol=1e-14)
    flat = ol.slot_residual_norms(QuotientGrid(4, 4, 1.0, twisted=False),
                                  np.ones(4 ** 4))
    assert list(flat) == list(ol.anti_slots(ol.J_FLAT).slots)
    assert max(flat.values()) == 0.0


def test_constant_is_exact_eigenvector():
    g = QuotientGrid(6, 6, 1.0)
    ones = np.ones(g.size)
    # M 1 = (2/16 + 2/4) 1 = (5/8) 1: Hessian of a constant vanishes and the
    # difference transposes annihilate constants, leaving only the r-shifts
    m = normal_rows(g, np.arange(g.size))
    assert np.max(np.abs(m @ ones - 0.625 * ones)) < 1e-12
    flat = QuotientGrid(6, 6, 1.0, twisted=False)
    m_flat = normal_rows(flat, np.arange(flat.size))
    assert np.max(np.abs(m_flat @ np.ones(m_flat.shape[0]))) < 1e-13


def test_residuals_traced_peak():
    # both residual fields are applied along the frame's axes, so no
    # grid-size slot matrix is built: about 9 MiB at N = 16 (65536 nodes),
    # against 103 MiB with the six slot matrices
    ol.slot_residual_norms(QuotientGrid(4), np.ones(4 ** 4))  # kt geometry
    g = QuotientGrid(16)
    fields = (np.ones(g.size), g.sample(ol.theta_test_field()))
    tracemalloc.start()
    try:
        norms = [ol.slot_residual_norms(g, psi) for psi in fields]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(n) == 6 for n in norms)
    assert peak < 24 * 2 ** 20


# -- adjoint structure ----------------------------------------------------------


@pytest.mark.parametrize("n, nt, twisted", [(6, 6, True), (5, 7, True),
                                            (4, 9, True), (6, 8, False),
                                            (5, 5, False)])
def test_frame_matrices_are_antisymmetric(n, nt, twisted):
    # E^T = -E entry for entry: the condition slot_adjoint transposes by
    for e in QuotientGrid(n, nt, 0.7, twisted=twisted).frame():
        assert nnz_diff(e.T, -e) == 0


@pytest.mark.parametrize("variant", ["kt", "flat"])
def test_slot_adjoint_matches_slot_matrices(variant):
    g = QuotientGrid(5, 7, 0.7, twisted=variant == "kt")
    rng = np.random.default_rng(8)
    weights, ops = slot_matrices(g)
    for _ in range(3):
        u = rng.standard_normal((6, g.size, 3))
        want = sum(w * (op.T @ us) for w, op, us in zip(weights, ops, u))
        got = ol.slot_adjoint(g, u)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for bad in (np.ones((5, g.size, 1)), np.ones((6, g.size - 1, 1))):
        with pytest.raises(ValueError, match="six slot blocks"):
            ol.slot_adjoint(g, bad)


def test_forward_is_the_weighted_adjoint():
    # <A psi, u>_w = <psi, slot_adjoint(u)> on blocks of ten cases
    rng = np.random.default_rng(8)
    for twisted in (True, False):
        g = QuotientGrid(4, 4, 1.0, twisted=twisted)
        psi = rng.standard_normal((g.size, 10))
        u = rng.standard_normal((6, g.size, 10))
        basis, slots = ol._anti_slots_of(ol.hessian_ops_frame(g, psi), g, psi)
        lhs = sum(w * np.sum(a * b, axis=0)
                  for w, a, b in zip(basis.weights, slots, u))
        rhs = np.sum(psi * ol.slot_adjoint(g, u), axis=0)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(lhs)))


def test_flat_normal_matrix_is_half_biharmonic():
    g = QuotientGrid(6, 6, 1.0, twisted=False)
    hess = product_frame_slots(g)
    lap = sum((hess[(i, i)] for i in range(4)), sp.csr_matrix(hess[(0, 0)].shape))
    m = normal_rows(g, np.arange(g.size))
    assert nnz_diff(m, 0.5 * (lap.T @ lap)) == 0


def test_normal_matrix_commutes_with_deck_maps():
    g = QuotientGrid(4, 4, 1.0)
    m = normal_rows(g, np.arange(g.size))
    # z and t translations survive the shear; x and y do not (x-dependent
    # frame).  This is the symmetry the Fourier-sector spectral floor uses.
    for s in (shift(g, "z", 1), shift(g, "t", 1)):
        assert nnz_diff(m @ s, s @ m) == 0
    flat = QuotientGrid(4, 4, 1.0, twisted=False)
    m_flat = normal_rows(flat, np.arange(flat.size))
    for axis in "xyzt":
        s = shift(flat, axis, 1)
        assert nnz_diff(m_flat @ s, s @ m_flat) == 0


# -- Fourier symbols -------------------------------------------------------------


def ratio(g, k):
    return float(ol.symbol_ratios(g, [k])[0])


def test_symbol_check_rejects_twisted_kz():
    for k in ((0, 0, 1, 0), (1, 0, -2, 1)):
        with pytest.raises(ValueError, match="kz = 0 only"):
            ratio(QuotientGrid(4, twisted=True), k)
    assert ratio(QuotientGrid(4, twisted=False), (0, 0, 1, 0)) > 0


@pytest.mark.parametrize("k", [(1.7, 0, 0, 1.2), ("1", 0, 0, "2"),
                               (None, 0, 0, 1), (1, 0, 0), 3,
                               (True, 0, 0, 0)])
def test_non_integer_frequencies_are_refused_by_name(k):
    flat = QuotientGrid(6, twisted=False)
    for call in (lambda: ol.mode_xi(flat, k),
                 lambda: ol.symbol_ratios(flat, [k]),
                 lambda: ol.symbol_ratios(flat, [(1, 0, 0, 0), k])):
        with pytest.raises(ValueError, match="need four integer frequencies"):
            call()


def test_numpy_integer_frequencies_read_the_same_mode():
    flat = QuotientGrid(6, twisted=False)
    k = np.array([1, 0, 2, 1])
    assert ratio(flat, k) == ratio(flat, (1, 0, 2, 1))
    assert ol.mode_xi(flat, k) == ol.mode_xi(flat, (1, 0, 2, 1))


def test_mode_xi():
    g = QuotientGrid(8, d=0.5, twisted=False)
    assert ol.mode_xi(g, (1, 0, 0, 0)) == pytest.approx(2 * np.pi)
    assert ol.mode_xi(g, (0, 0, 0, 1)) == pytest.approx(4 * np.pi)


def test_flat_symbol_ratio_is_one():
    g = QuotientGrid(8, 8, 1.0, twisted=False)
    for k in ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (0, 2, 0, 2)):
        assert abs(ratio(g, k) - 1.0) < 1e-12


def grid_space_ratio(g, k):
    """Test-only reference: the symbol ratio of the sampled plane wave in
    grid space, through the composed slot matrices."""
    kx, ky, kz, kt = k
    psi = g.sample(lambda x, y, z, t: np.exp(
        2j * np.pi * (kx * x + ky * y + kz * z + kt * t / g.d)))
    num = sum(w * np.vdot(op @ psi, op @ psi).real
              for w, op in zip(*slot_matrices(g)))
    hess = ol.hessian_ops_frame(g, psi[:, None])
    lap = sum(hess[(i, i)] for i in range(4))
    return num / (0.5 * np.vdot(lap, lap).real)


@pytest.mark.parametrize("twisted", [True, False])
def test_symbol_check_matches_grid_space_ratio(twisted):
    g = QuotientGrid(6, 8, 0.7, twisted=twisted)
    modes = [(1, 0, 0, 0), (0, 1, 0, 2), (2, 1, 0, 1), (1, 2, 0, 3),
             (0, 0, 0, 1)] + ([] if twisted else [(1, 1, 1, 0), (0, 2, 2, 3)])
    ratios = ol.symbol_ratios(g, modes)
    for k, got in zip(modes, ratios):
        want = grid_space_ratio(g, k)
        assert abs(ratio(g, k) - want) <= 1e-12
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n, nt", [(6, 9), (6, 16), (8, 9), (8, 16)])
@pytest.mark.parametrize("twisted", [True, False])
def test_symbol_ratios_match_each_mode_alone(n, nt, twisted):
    # the modes share one block, many of them one (kz, kt) sector, yet each
    # ratio holds the bytes of its mode evaluated alone
    g = QuotientGrid(n, nt, 0.7, twisted=twisted)
    modes = [(kx, ky, kz, kt) for kx in (-1, 0, 1, 2) for ky in (0, 1, 2)
             for kz in ((0,) if twisted else (0, 1, 2)) for kt in range(4)
             if (kx, ky, kz, kt) != (0, 0, 0, 0)]
    ratios = ol.symbol_ratios(g, modes)
    alone = [ol.symbol_ratios(g, [k]) for k in modes]
    assert ratios.tobytes() == np.concatenate(alone).tobytes()


def test_symbol_ratios_run_the_frame_route_once(monkeypatch):
    calls = []
    frame_route = ol.hessian_ops_frame

    def spy(g, psi=None):
        calls.append(np.shape(psi))
        return frame_route(g, psi)

    monkeypatch.setattr(ol, "hessian_ops_frame", spy)
    for g, modes in ((QuotientGrid(6, 8, twisted=False),
                      [(1, 0, 0, 0), (0, 1, 2, 3), (1, 1, 1, 0), (2, 0, 2, 3)]),
                     (QuotientGrid(6, 8), [(1, 0, 0, e) for e in range(1, 5)])):
        calls.clear()
        ol.symbol_ratios(g, modes)
        assert calls == [(g.n ** 2, len(modes))]
    calls.clear()
    ol.symbol_sweep(QuotientGrid(6, 16))
    assert calls == [(36, 4)]


def test_symbol_ratios_of_no_modes_are_empty():
    for twisted in (True, False):
        got = ol.symbol_ratios(QuotientGrid(4, twisted=twisted), [])
        assert got.shape == (0,) and got.dtype == float


def test_zero_mode_has_no_symbol_ratio():
    for twisted in (True, False):
        with pytest.raises(ValueError, match="zero-frequency mode"):
            ratio(QuotientGrid(4, twisted=twisted), (0, 0, 0, 0))


def test_symbol_check_builds_no_grid_size_system(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbol check built a grid-size matrix")

    monkeypatch.setattr(QuotientGrid, "frame", refuse)
    monkeypatch.setattr(QuotientGrid, "diff", refuse)
    result = suite.check_symbol()
    assert result.passed, result.detail


def test_residuals_and_pairing_build_no_grid_size_matrix(monkeypatch,
                                                         tmp_path):
    # the CLI's slot residuals and symbol sweep, and the property suites'
    # pairing identity, all run on the applied frame route
    def refuse(*args, **kwargs):
        raise AssertionError("a grid-size matrix was built")

    monkeypatch.setattr(QuotientGrid, "frame", refuse)
    monkeypatch.setattr(QuotientGrid, "diff", refuse)
    assert cli.main(["--out", str(tmp_path), "operator", "--N", "8",
                     "--symbol-sweep"]) == 0
    assert (tmp_path / "operator_residuals_kt_N8.csv").exists()
    result = suite.check_property_suites(0)
    assert result.passed, result.detail


@pytest.mark.parametrize("n", [6, 8])
def test_kt_pure_x_symbol_closed_form(n):
    got = ratio(QuotientGrid(n, n, 1.0), (1, 0, 0, 0))
    h = 1.0 / n
    lam = (np.sin(2 * np.pi * h) / h) ** 2   # centered-difference Laplacian symbol
    assert got - 1.0 == pytest.approx(1.25 / lam ** 2, rel=1e-12)


# -- spectra ---------------------------------------------------------------------


def test_spectral_floor_matches_dense_reference():
    for n, nt, d, variant in ((4, 4, 1.0, "kt"), (4, 6, 0.5, "kt"),
                              (4, 4, 1.0, "flat")):
        g = QuotientGrid(n, nt, d, twisted=variant == "kt")
        m = normal_rows(g, np.arange(g.size))
        rep = ol.spectral_floor(g, k=6)
        assert rep.method == "fourier-sector" and rep.size == m.shape[0]
        assert len(rep.sectors) == 6 and rep.floor == rep.values[0]
        # test-only dense reference: the sector values are the bottom of the
        # whole spectrum, multiplicities included
        ref = np.linalg.eigvalsh(m.toarray())[:6]
        assert np.max(np.abs(rep.values - ref)) < 1e-9
        # eigen-residuals are honest: ||M v - lambda v|| recomputed directly
        # on the complex grid-space vectors, which the test-local all-sector
        # solve builds from the same sector blocks
        _, sectors, vectors = all_sector_floor(g, 6)
        assert rep.sectors == sectors
        for i, (kz, kt) in enumerate(rep.sectors):
            v = vectors[:, i]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert np.linalg.norm(m @ v - rep.values[i] * v) < 1e-8
            # each vector lives in its sector: z and t steps act by phases
            for axis, kk, period in (("z", kz, n), ("t", kt, nt)):
                phase = np.exp(2j * np.pi * kk / period)
                assert np.allclose(shift(g, axis, 1) @ v, phase * v,
                                   atol=1e-12)
        assert np.max(rep.residuals) < 1e-8


@pytest.mark.parametrize("n, nt, d, variant", [
    (4, 4, 1.0, "kt"), (5, 7, 1.0, "kt"), (6, 6, 1.0, "kt"),
    (6, 20, 1.0, "kt"), (8, 8, 1.0, "kt"), (8, 9, 1.0, "kt"),
    (8, 16, 0.5, "kt"), (12, 12, 1.0, "kt"), (16, 16, 1.0, "kt"),
    (4, 6, 1.0, "flat"), (6, 6, 1.0, "flat"), (8, 8, 1.0, "flat")])
def test_normal_rows_match_normal_matrix(n, nt, d, variant):
    # the floor's slab rows, composed only on the rows that reach the slab,
    # hold the bytes of those rows of the grid-size M, sorted as it is
    g = QuotientGrid(n, nt, d, twisted=variant == "kt")
    got = ol._slab_rows(g)
    want = normal_rows(g, slab(g))
    whole = normal_rows(g, np.arange(g.size))
    assert same_csr(want, whole[slab(g)])
    assert got.has_sorted_indices and want.has_sorted_indices
    for f in ("indptr", "indices", "data"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if variant == "flat":
        # the constant is an exact null vector on the rows the floor reads
        assert not (got @ np.ones(g.size)).any()


def sector_blocks(g, rows=None):
    """Test-only fold of the global normal matrix, from its slab rows (by
    default normal_rows(g, slab(g))): {(kz, kt): block} for every (z, t)
    Fourier sector."""
    n, nt, nxy = g.n, g.nt, g.n * g.n
    rows = (normal_rows(g, slab(g)) if rows is None else rows).tocoo()
    xy, rest = np.divmod(rows.col, n * nt)
    kc, lc = np.divmod(rest, nt)
    flat = rows.row * nxy + xy
    ez, et = unit_roots(n), unit_roots(nt)

    def block(kz, kt):
        w = rows.data * ez[kz * kc % n] * et[kt * lc % nt]
        return (np.bincount(flat, w.real, nxy * nxy)
                + 1j * np.bincount(flat, w.imag, nxy * nxy)).reshape(nxy, nxy)

    return {(kz, kt): block(kz, kt) for kz in range(n) for kt in range(nt)}


def all_sector_floor(g, k, rows=None):
    """Test-only reference: eigvalsh in every (kz, kt) sector of the fold of
    the global normal matrix, no twin pairing and no prune."""
    n, nt, nxy = g.n, g.nt, g.n * g.n
    blocks = sector_blocks(g, rows)
    sectors = list(blocks)
    per = min(k, nxy)
    vals = np.concatenate([np.linalg.eigvalsh(blocks[s])[:per]
                           for s in sectors])
    order = np.argsort(vals, kind="stable")[:k]
    picked = tuple(sectors[i // per] for i in order)
    ez, et = unit_roots(n), unit_roots(nt)
    vecs = np.empty((g.size, k), dtype=complex)
    for col, (i, (kz, kt)) in enumerate(zip(order, picked)):
        phi = np.linalg.eigh(blocks[(kz, kt)])[1][:, i % per]
        wave = np.multiply.outer(ez[kz * np.arange(n) % n],
                                 et[kt * np.arange(nt) % nt])
        vecs[:, col] = np.multiply.outer(phi, wave).ravel() / np.sqrt(n * nt)
    return vals[order], picked, vecs


@pytest.mark.parametrize("n, nt, d, variant", [
    (6, 6, 1.0, "kt"), (6, 16, 1.0, "kt"), (6, 20, 1.0, "kt"),
    (8, 8, 1.0, "kt"), (8, 16, 0.5, "kt"), (6, 7, 1.0, "kt"),
    (8, 9, 1.0, "kt"), (6, 6, 1.0, "flat"), (8, 8, 1.0, "flat")])
def test_twin_pairing_matches_all_sector_solve(n, nt, d, variant):
    g = QuotientGrid(n, nt, d, twisted=variant == "kt")
    # a conjugate twin's block is the conjugate entry for entry
    blocks = sector_blocks(g)
    for (kz, kt), b in blocks.items():
        assert np.array_equal(blocks[(-kz % n, -kt % nt)], b.conj())
    for k in (2, 6, 20):
        rep = ol.spectral_floor(g, k=k)
        values, sectors, _ = all_sector_floor(g, k)
        assert rep.sectors == sectors
        # a twin reports its orbit head's values; eigvalsh of a conjugate
        # block gives the same bytes at the listed sizes
        assert rep.values.tobytes() == values.tobytes()
        assert np.max(rep.residuals) < 1e-8


@pytest.mark.parametrize("n, nt, orbits", [(6, 20, 32), (8, 8, 18),
                                            (6, 7, 22)])
def test_spectral_floor_solves_one_sector_per_orbit(n, nt, orbits):
    # conjugation pairs (kz, kt) with (-kz, -kt); an even nt also pairs kt
    # with kt + nt/2, an odd one (nt = 7) has conjugation only; each orbit
    # is solved once or pruned
    rep = ol.spectral_floor(QuotientGrid(n, nt), k=2)
    assert rep.solved + rep.pruned == orbits
    # the floor's checkerboard sectors (0, 0) and (n/2, 0) head the only
    # orbits below the bottom of every other sector
    assert rep.solved == 2


@pytest.mark.parametrize("variant", ["kt", "flat"])
@pytest.mark.parametrize("n, nt", [(4, 4), (4, 5), (6, 6), (6, 7), (8, 8),
                                   (8, 9)])
def test_inertia_prune_matches_all_sector_solve(monkeypatch, variant, n, nt):
    g = QuotientGrid(n, nt, 1.0, twisted=variant == "kt")
    blocks = sector_blocks(g)
    spectra = [np.linalg.eigvalsh(b) for b in blocks.values()]
    eigvalsh, heads, bottom = np.linalg.eigvalsh, Counter(), {}

    def spy(b):
        # adding 0.0 turns -0.0 into 0.0, so equal blocks share a key
        key = (b + 0.0).tobytes()
        values = eigvalsh(b)
        heads[key] += 1
        bottom[key] = values[0]
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for k in (1, 2, 12, 20):
        heads.clear()
        rep = ol.spectral_floor(g, k=k)
        pruned = Counter(heads)
        # the same solve with every Cholesky failing solves every orbit
        heads.clear()
        with monkeypatch.context() as m:
            m.setattr(ol, "_cholesky_completes", lambda b, mu: False)
            every = ol.spectral_floor(g, k=k)
        assert every.pruned == 0 and every.solved == heads.total()
        assert rep.solved == pruned.total() and rep.pruned > 0
        assert rep.solved + rep.pruned == every.solved
        for got, want in ((rep.values, every.values),
                          (rep.residuals, every.residuals)):
            assert got.tobytes() == want.tobytes()
        assert rep.sectors == every.sectors
        # each pruned orbit's bottom value exceeds the last reported value
        assert not pruned - heads
        for key in heads - pruned:
            assert bottom[key] > rep.values[-1]
        # and the values are those of eigvalsh in every sector, no pairing
        per = min(k, n * n)
        vals = np.concatenate([v[:per] for v in spectra])
        order = np.argsort(vals, kind="stable")[:k]
        assert rep.sectors == tuple(list(blocks)[i // per] for i in order)
        assert rep.values.tobytes() == vals[order].tobytes()


@pytest.mark.parametrize("n, nt, variant", [(4, 4, "kt"), (6, 7, "kt"),
                                            (4, 5, "flat"), (6, 6, "flat")])
def test_sector_residuals_match_grid_space(n, nt, variant):
    # the residual is taken on the sector block; through the slot operators
    # in grid space, sum_s w_s A_s^T (A_s v) - lambda v, it agrees to
    # rounding, so the fold stays checked against the slot operators
    g = QuotientGrid(n, nt, 1.0, twisted=variant == "kt")
    rep = ol.spectral_floor(g, k=12)
    _, sectors, vectors = all_sector_floor(g, 12)
    assert rep.sectors == sectors
    grid = [np.linalg.norm(grid_normal(g, v) - lam * v)
            for v, lam in zip(vectors.T, rep.values)]
    assert np.max(np.abs(rep.residuals - grid)) < 1e-12


def test_t_parity_pairing_needs_even_t_offsets(monkeypatch):
    # a forward t-difference puts odd t-offsets into M, and then kt and
    # kt + nt/2 are no longer twins: only conjugation may pair sectors
    g = QuotientGrid(4, 6, 1.0, twisted=False)
    forward = shift(g, "t", 1) - sp.identity(g.size, format="csr")
    ops = [(op + forward).tocsr() for op in slot_matrices(g)[1]]
    rows = normal_rows(g, slab(g), ops)
    monkeypatch.setattr(ol, "_slab_rows", lambda grid: rows)
    rep = ol.spectral_floor(g, k=6)
    assert rep.solved + rep.pruned == 14
    values, sectors, _ = all_sector_floor(g, 6, rows)
    assert rep.values.tobytes() == values.tobytes()
    assert rep.sectors == sectors


def test_spectral_floor_rejects_bad_k():
    g = QuotientGrid(4, 4, 1.0, twisted=False)
    for k in (-1, 0, g.size + 1):
        with pytest.raises(ValueError):
            ol.spectral_floor(g, k=k)
    assert len(ol.spectral_floor(g, k=g.size).values) == g.size
    # a non-integer k is refused by name, not left to fail inside numpy
    for k in (1.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="need an integer k"):
            ol.kernel_gap(4, k=k)


def test_spectral_floor_refuses_an_overflowing_h_t():
    # at d = 1e-150 the normal operator's 1/h_t^4 entries overflow: the
    # refusal names h_t before any numpy warning or eigensolve
    g = QuotientGrid(4, None, 1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^h_t = d/nt = 2\.5e-151 is "
                                             r"too small"):
            ol.spectral_floor(g, k=2)


def test_small_t_period_refused_naming_h_t():
    # at d = 1e-150 the residual norms' squares overflow; from d = 1e-160
    # on 1/h_t^2 does, and at 1e-200 h_t^2 is 0: each is one named refusal,
    # with no numpy warning and no ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = QuotientGrid(4, None, 1e-150)
        theta = g.sample(ol.theta_test_field(1e-150))
        with pytest.raises(ValueError, match=r"^h_t = d/nt = 2\.5e-151 is too "
                           r"small: the slot residual norms, of order "
                           r"1/h_t\^2, overflow a float$"):
            ol.slot_residual_norms(g, theta)
        for d, h in ((1e-160, r"2\.5e-161"), (1e-200, r"2\.5e-201")):
            with pytest.raises(ValueError, match=rf"^h_t = d/nt = {h} is too "
                               r"small: the Hessian weights, of order "
                               r"1/h_t\^2, overflow a float$"):
                ol.slot_residual_norms(QuotientGrid(4, None, d), np.ones(256))
            with pytest.raises(ValueError, match="too small"):
                QuotientGrid(4, d=d).ring("t", 2)


def test_large_t_period_refused_naming_h_t():
    # from about d = 2.7e154 at nt = 4 the Hessian weights 1/h_t^2 underflow,
    # and at d = 1e200 h_t^2 overflows: one named refusal either way
    for d, h in ((1e155, r"2\.5e\+154"), (1e200, r"2\.5e\+199")):
        with pytest.raises(ValueError, match=rf"^h_t = d/nt = {h} is too "
                           r"large: the Hessian weights, of order "
                           r"1/h_t\^2, underflow a float$"):
            ol.kernel_gap(4, d=d)
    assert len(ol.slot_residual_norms(QuotientGrid(4, None, 1e150),
                                      np.ones(256))) == 6


def test_kernel_gap_frozen_values():
    kt = ol.kernel_gap(6, 6, 1.0, "kt", k=2)
    assert kt.floor == pytest.approx(0.625, abs=1e-9)
    flat = ol.kernel_gap(6, 6, 1.0, "flat", k=2)
    assert flat.floor <= 1e-8
    # seed is accepted and ignored: the sector solve is deterministic
    again = ol.kernel_gap(6, 6, 1.0, "kt", k=2, seed=7)
    assert np.array_equal(again.values, kt.values)
    assert again.sectors == kt.sectors


def test_kernel_gap_n12():
    # 20736 nodes: a size the dense solve could not reach
    kt = ol.kernel_gap(12, variant="kt", k=2)
    assert kt.size == 12 ** 4
    assert kt.floor == pytest.approx(0.625, abs=1e-9)
    assert np.max(kt.residuals) < 1e-8


def test_kernel_gap_traced_peak():
    # no grid-space eigenvector is formed and one picked sector's block and
    # basis are held at a time: k = 1024 at N = 8 (4096 nodes) peaks near
    # the k = 2 solve (about 7 MB), not at the 64 MB of 1024 complex vectors
    ol.kernel_gap(4, k=2)  # the kt geometry is built once
    tracemalloc.start()
    try:
        rep = ol.kernel_gap(8, k=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.values) == len(rep.residuals) == 1024
    assert peak < 16 * 2 ** 20


def test_kernel_gap_n16_traced_peak():
    # only the rows that reach the floor's slab are composed, so no
    # grid-size slot system is built: about 12 MiB at N = 16 (65536 nodes),
    # against 103 MiB with the six slot matrices and their normal products
    ol.kernel_gap(4, k=2)  # the kt geometry is built once
    tracemalloc.start()
    try:
        rep = ol.kernel_gap(16, k=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.floor == pytest.approx(0.625, abs=1e-9)
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("variant", ["kt", "flat"])
@pytest.mark.parametrize("n", [6, 8])
def test_constant_residual_matches_grid_space(n, variant):
    # read on the slab rows, sqrt(n nt) times the slab part; through the
    # grid-size slot matrices, ||sum_s w_s A_s^T A_s c - floor c||
    rep = ol.kernel_gap(n, variant=variant, k=2)
    c = np.full(rep.size, 1.0 / np.sqrt(rep.size))
    grid = np.linalg.norm(grid_normal(QuotientGrid(n, twisted=variant == "kt"),
                                      c) - rep.floor * c)
    assert abs(rep.constant_residual - grid) <= 1e-12


# -- two-route Hessian consistency ------------------------------------------------


def test_invariant_fields_descend():
    for d, maker in ((1.0, ol.theta_test_field(1.0)),
                     (0.5, ol.random_invariant_field(0.5, np.random.default_rng(3)))):
        g = QuotientGrid(6, 6, d, twisted=True)
        psi = g.sample(maker)
        # function-level deck relation psi(x+1, y, y+z, t) = psi(x, y, z, t)
        moved = g.sample(lambda x, y, z, t: maker(x + 1.0, y, y + z, t))
        assert np.max(np.abs(moved - psi)) < 1e-12
        # so the sheared x-wrap reproduces true off-domain samples exactly
        stepped = g.sample(lambda x, y, z, t: maker(x + g.hx, y, z, t))
        assert np.max(np.abs(shift(g, "x", 1) @ psi - stepped)) < 1e-12


def test_route_difference_shrinks():
    field = [ol.theta_test_field(1.0)]
    coarse = ol.route_difference(8, 1.0, field)
    fine = ol.route_difference(16, 1.0, field)
    assert fine[1][0] < coarse[1][0] / 3.0   # second order: x4 expected


def test_richardson_order_on_theta_field():
    fit, = ol.richardson_orders(ns=(8, 12, 16), d=1.0,
                                field=[ol.theta_test_field(1.0)])
    assert fit.order_l2 >= 1.9
    assert fit.order_max >= 1.7
    assert len(fit.err_l2) == 3 and (np.diff(fit.err_l2) < 0).all()


def materialized_route_difference(n, fields):
    """route_difference with both routes held as whole slot dicts, as a
    reference for the streamed chart route."""
    g = QuotientGrid(n, n, 1.0)
    psi = np.stack([g.sample(f) for f in fields], axis=1)
    frame = ol.hessian_ops_frame(g, psi)
    chart = dict(ol.hessian_ops_chart(g, psi))
    assert list(chart) == list(frame)
    err_max = np.zeros(len(fields))
    err_sq = np.zeros(len(fields))
    for key in frame:
        diff = np.ascontiguousarray((frame[key] - chart[key]).T)
        err_max = np.maximum(err_max, np.max(np.abs(diff), axis=1))
        err_sq += np.sum(diff * diff, axis=1)
    return err_max, np.sqrt(g.cell_volume * err_sq)


@pytest.mark.parametrize("n", [8, 12])
def test_streamed_routes_match_materialized_routes(n):
    one = [ol.theta_test_field(1.0)]
    three = [ol.random_invariant_field(1.0, s) for s in (1, 2, 3)]
    for fields in (one, three):
        want = materialized_route_difference(n, fields)
        got = ol.route_difference(n, field=fields)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_route_difference_traced_peak():
    # the fields stream one at a time, one chart slot is formed at a time,
    # and both routes apply their stencils along their axes, so no frame
    # matrix is built: the peak is bounded in (size, 3) float blocks (5.7
    # measured; 11.3 while the frame route multiplied the grid's frame
    # matrices, 12.5 while the grid also cached its plain differences, 17.4
    # while the chart route lifted them)
    n = 12
    fields = [ol.random_invariant_field(1.0, s) for s in range(3)]
    ol.route_difference(4, field=fields)  # the kt geometry is built once
    tracemalloc.start()
    try:
        ol.route_difference(n, field=fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * (n ** 4 * 3 * 8)


@pytest.mark.parametrize("ns", [(8,), (8, 8), (), (8.0, 12.0), (3, 8), 8])
def test_richardson_orders_rejects_bad_grid_sizes(ns):
    with pytest.raises(ValueError, match="grid sizes"):
        ol.richardson_orders(ns=ns)


@pytest.mark.parametrize("field", [[], [1.0], 1.0, "theta",
                                   ol.theta_test_field(1.0)])
def test_route_difference_rejects_bad_fields(field):
    with pytest.raises(ValueError, match="callable"):
        ol.route_difference(4, field=field)


def test_route_difference_refuses_complex_fields():
    def wave(x, y, z, t):
        return np.exp(2j * np.pi * y)

    for field in ([wave], [ol.theta_test_field(1.0), wave]):
        with pytest.raises(ValueError, match="field must be real-valued"):
            ol.route_difference(4, field=field)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_route_difference_refuses_non_finite_fields(value):
    def bad(x, y, z, t):
        return np.where(x > 0.5, value, 0.0)

    for field in ([bad], [ol.theta_test_field(1.0), bad]):
        with pytest.raises(ValueError, match="field must be finite"):
            ol.route_difference(4, field=field)
        with pytest.raises(ValueError, match="field must be finite"):
            ol.richardson_orders(ns=(4, 5), field=field)


@pytest.mark.parametrize("variant", ["kt", "flat"])
def test_chart_route_builds_no_grid_matrix(monkeypatch, variant):
    # both routes apply their stencils along their axes, so neither builds
    # the frame matrices nor lifts a stencil; the chart route refuses the
    # flat torus by name; and the grid is freed by reference counting alone
    # once its caller drops it
    def refuse(*args, **kwargs):
        raise AssertionError("a route built a grid-size matrix")

    g = QuotientGrid(6, 6, 1.0, twisted=variant == "kt")
    psi = np.random.default_rng(2).standard_normal((g.size, 1))
    with monkeypatch.context() as m:
        m.setattr(QuotientGrid, "frame", refuse)
        m.setattr(QuotientGrid, "diff", refuse)
        if g.twisted:
            assert len(list(ol.hessian_ops_chart(g, psi))) == 10
        else:
            with pytest.raises(ValueError, match="needs the sheared quotient"):
                ol.hessian_ops_chart(g, psi)
        assert len(ol.hessian_ops_frame(g, psi)) == 10
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_route_difference_rejects_non_integer_grid():
    with pytest.raises(ValueError, match="integer n"):
        ol.route_difference(8.5)


def test_batched_richardson_matches_single_field_fits():
    fields = [ol.theta_test_field(1.0),
              ol.random_invariant_field(1.0, 11),
              ol.random_invariant_field(1.0, 12)]
    batched = ol.richardson_orders(ns=(8, 12), field=fields)
    assert len(batched) == 3
    for f, fit in zip(fields, batched):
        one, = ol.richardson_orders(ns=(8, 12), field=[f])
        assert one.ns == fit.ns == (8, 12)
        assert np.array_equal(one.err_max, fit.err_max)
        assert np.array_equal(one.err_l2, fit.err_l2)
        assert one.order_max == fit.order_max
        assert one.order_l2 == fit.order_l2
