"""Discrete adjoint system: slot algebra, symbols, spectra, route orders."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from akscal import operator_lab as ol
from akscal.grid import AXES, QuotientGrid, d1_sided, d2_sided, lift_axis
from test_grid import shift


def nnz_diff(a, b):
    d = (a - b).tocsr()
    d.eliminate_zeros()
    return d.nnz


# -- reference assembly: every slot as a sparse matrix product ----------------


def product_frame_slots(g, v):
    e = ol.frame_fields(g, v)
    ops = {}
    for i in range(4):
        for jj in range(i, 4):
            op = (e[jj] @ e[i]).tocsr()
            for k in range(4):
                c = v.gamma[jj][i][k]
                if c != 0.0:
                    op = op - c * e[k]
            ops[(i, jj)] = op.tocsr()
    return ops


def product_chart_slots(g, v):
    sided = v.name == "kt"
    if sided:
        dx = lift_axis(d1_sided(g.n, g.hx), "x", g)
        dxx = lift_axis(d2_sided(g.n, g.hx), "x", g)
    else:
        dx, dxx = (lift_axis(g.ring("x", k), "x", g) for k in (1, 2))
    dy, dz, dt = (lift_axis(g.ring(a), a, g) for a in AXES[1:])
    dyy, dzz, dtt = (lift_axis(g.ring(a, 2), a, g) for a in AXES[1:])
    if not sided:
        first = dict(zip(AXES, (dx, dy, dz, dt)))
        second = dict(zip(AXES, (dxx, dyy, dzz, dtt)))
        return {(i, jj): (second[AXES[i]] if i == jj
                          else first[AXES[jj]] @ first[AXES[i]])
                for i in range(4) for jj in range(i, 4)}
    x = g.x_matrix()
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


# -- slot algebra -------------------------------------------------------------


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
            v = ol.slot_values(anti, basis)
            assert np.allclose(ol.slot_embed(v, basis), anti, atol=1e-13)
            # the slot weights reproduce the Frobenius norm of the embedding
            assert np.isclose(np.sum(np.array(basis.weights) * v ** 2),
                              np.sum(anti ** 2), atol=1e-12)
            # invariant directions project to nothing
            inv = 0.5 * (a + j.T @ a @ j)
            assert np.max(np.abs(ol.slot_values(inv, basis))) < 1e-13


def test_get_variant():
    kt = ol.get_variant("kt")
    assert kt.twisted and kt.name == "kt"
    assert np.allclose(np.diag(kt.r_minus), [-0.25, -0.5, 0.5, 0.25])
    flat = ol.get_variant("flat")
    assert not flat.twisted and np.max(np.abs(flat.r_minus)) == 0.0
    with pytest.raises(ValueError):
        ol.get_variant("round")


def test_get_variant_is_shared_and_read_only():
    kt = ol.get_variant("kt")
    assert ol.get_variant("kt") is kt
    for a in (kt.j, kt.gamma, kt.r_minus):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


@pytest.mark.parametrize("variant, n", [("kt", 8), ("flat", 6)])
def test_applied_routes_match_product_assembly(variant, n):
    v = ol.get_variant(variant)
    g = QuotientGrid(n, n, 1.0, twisted=v.twisted)
    psi = np.random.default_rng(5).standard_normal((g.size, 3))
    for applied, ref in ((ol.hessian_ops_frame(g, v, psi),
                          product_frame_slots(g, v)),
                         (dict(ol.hessian_ops_chart(g, v, psi)),
                          product_chart_slots(g, v))):
        assert applied.keys() == ref.keys()
        for key, got in applied.items():
            want = ref[key] @ psi
            assert got.shape == psi.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("variant", ["kt", "flat"])
def test_adjoint_system_matches_product_assembly(variant):
    v = ol.get_variant(variant)
    g = QuotientGrid(6, 6, 1.0, twisted=v.twisted)
    system = ol.AdjointSystem(g, v)
    hess = product_frame_slots(g, v)
    ident = sp.identity(g.size, format="csr")
    ops = []
    for (i, jj), (pi_, pj), sg in zip(system.basis.slots, system.basis.pairs,
                                      system.basis.signs):
        op = 0.5 * (hess[(i, jj)] - sg * hess[(min(pi_, pj), max(pi_, pj))])
        r = v.r_minus[i][jj]
        if r != 0.0:
            op = op - r * ident
        ops.append(op.tocsr())
    assert len(system.ops) == len(ops)
    for got, want in zip(system.ops, ops):
        assert same_csr(got, want)
    normal = sp.csr_matrix((g.size, g.size))
    for w, op in zip(system.weights, ops):
        normal = normal + w * (op.T @ op)
    assert same_csr(system.normal_rows(), normal.tocsr())


# -- constant-field oracles ----------------------------------------------------


def test_constant_slot_residuals():
    sys_kt = ol.build_system(4, 4, 1.0, "kt")
    ones = np.ones(sys_kt.grid.size)
    want = np.array([0.25, 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(sys_kt.slot_residual_norms(ones), want, atol=1e-14)
    sys_flat = ol.build_system(4, 4, 1.0, "flat")
    assert np.max(sys_flat.slot_residual_norms(np.ones(sys_flat.grid.size))) == 0.0


def test_constant_is_exact_eigenvector():
    sys_kt = ol.build_system(6, 6, 1.0, "kt")
    ones = np.ones(sys_kt.grid.size)
    # M 1 = (2/16 + 2/4) 1 = (5/8) 1: Hessian of a constant vanishes and the
    # difference transposes annihilate constants, leaving only the r-shifts
    assert np.max(np.abs(sys_kt.normal_rows() @ ones - 0.625 * ones)) < 1e-12
    sys_flat = ol.build_system(6, 6, 1.0, "flat")
    assert np.max(np.abs(sys_flat.normal_rows() @ np.ones(sys_flat.grid.size))) < 1e-13


# -- adjoint structure ----------------------------------------------------------


def test_forward_is_the_weighted_adjoint():
    rng = np.random.default_rng(8)
    system = ol.build_system(4, 4, 1.0, "kt")
    size = system.grid.size
    for _ in range(10):
        psi = rng.standard_normal(size)
        u = rng.standard_normal((6, size))
        lhs = system.grid.cell_volume * float(sum(
            w * np.dot(a, b) for w, a, b in
            zip(system.weights, system.apply(psi), u)))
        rhs = system.grid.cell_volume * float(psi @ system.forward(u))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    with pytest.raises(ValueError):
        system.forward(np.ones((5, size)))


def test_flat_normal_matrix_is_half_biharmonic():
    system = ol.build_system(6, 6, 1.0, "flat")
    lap = system.laplacian
    assert nnz_diff(system.normal_rows(), 0.5 * (lap.T @ lap)) == 0


def test_normal_matrix_commutes_with_deck_maps():
    system = ol.build_system(4, 4, 1.0, "kt")
    m = system.normal_rows()
    g = system.grid
    # z and t translations survive the shear; x and y do not (x-dependent
    # frame).  This is the symmetry the Fourier-sector spectral floor uses.
    for s in (shift(g, "z", 1), shift(g, "t", 1)):
        assert nnz_diff(m @ s, s @ m) == 0
    flat = ol.build_system(4, 4, 1.0, "flat")
    m_flat = flat.normal_rows()
    for axis in "xyzt":
        s = shift(flat.grid, axis, 1)
        assert nnz_diff(m_flat @ s, s @ m_flat) == 0


# -- Fourier symbols -------------------------------------------------------------


def test_fourier_mode_rejects_twisted_kz():
    g = QuotientGrid(4, twisted=True)
    with pytest.raises(ValueError):
        ol.fourier_mode(g, (0, 0, 1, 0))
    ol.fourier_mode(QuotientGrid(4, twisted=False), (0, 0, 1, 0))


@pytest.mark.parametrize("k", [(1.7, 0, 0, 1.2), ("1", 0, 0, "2"),
                               (None, 0, 0, 1), (1, 0, 0), 3])
def test_non_integer_frequencies_are_refused_by_name(k):
    flat = ol.build_system(6, variant="flat")
    for call in (lambda: ol.fourier_mode(flat.grid, k),
                 lambda: ol.mode_xi(flat.grid, k),
                 lambda: ol.symbol_check(flat, k)):
        with pytest.raises(ValueError, match="need four integer frequencies"):
            call()


def test_numpy_integer_frequencies_read_the_same_mode():
    flat = ol.build_system(6, variant="flat")
    k = np.array([1, 0, 2, 1])
    assert ol.symbol_check(flat, k) == ol.symbol_check(flat, (1, 0, 2, 1))
    assert ol.mode_xi(flat.grid, k) == ol.mode_xi(flat.grid, (1, 0, 2, 1))


def test_mode_xi():
    g = QuotientGrid(8, d=0.5, twisted=False)
    assert ol.mode_xi(g, (1, 0, 0, 0)) == pytest.approx(2 * np.pi)
    assert ol.mode_xi(g, (0, 0, 0, 1)) == pytest.approx(4 * np.pi)


def test_flat_symbol_ratio_is_one():
    system = ol.build_system(8, 8, 1.0, "flat")
    for k in ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (0, 2, 0, 2)):
        assert abs(ol.symbol_check(system, k) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [6, 8])
def test_kt_pure_x_symbol_closed_form(n):
    system = ol.build_system(n, n, 1.0, "kt")
    ratio = ol.symbol_check(system, (1, 0, 0, 0))
    h = 1.0 / n
    lam = (np.sin(2 * np.pi * h) / h) ** 2   # centered-difference Laplacian symbol
    assert ratio - 1.0 == pytest.approx(1.25 / lam ** 2, rel=1e-12)


def test_symbol_sweep_override():
    system = ol.build_system(6, 12, 1.0, "kt")
    xi, dev, slope = ol.symbol_sweep(system, modes=[(1, 0, 0, 1), (1, 0, 0, 2),
                                                    (1, 0, 0, 3)])
    assert len(xi) == len(dev) == 3
    assert (np.diff(xi) > 0).all()
    assert np.isfinite(slope)


# -- spectra ---------------------------------------------------------------------


def test_spectral_floor_matches_dense_reference():
    for n, nt, d, variant in ((4, 4, 1.0, "kt"), (4, 6, 0.5, "kt"),
                              (4, 4, 1.0, "flat")):
        system = ol.build_system(n, nt, d, variant)
        m = system.normal_rows()
        rep = ol.spectral_floor(system, k=6)
        assert rep.method == "fourier-sector" and rep.size == m.shape[0]
        assert len(rep.sectors) == 6 and rep.floor == rep.values[0]
        # test-only dense reference: the sector values are the bottom of the
        # whole spectrum, multiplicities included
        ref = np.linalg.eigvalsh(m.toarray())[:6]
        assert np.max(np.abs(rep.values - ref)) < 1e-9
        # eigen-residuals are honest: ||M v - lambda v|| recomputed directly
        # on the complex grid-space vectors
        for i, (kz, kt) in enumerate(rep.sectors):
            v = rep.vectors[:, i]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert np.linalg.norm(m @ v - rep.values[i] * v) < 1e-8
            # each vector lives in its sector: z and t steps act by phases
            for axis, kk, period in (("z", kz, n), ("t", kt, nt)):
                phase = np.exp(2j * np.pi * kk / period)
                assert np.allclose(shift(system.grid, axis, 1) @ v, phase * v,
                                   atol=1e-12)
        assert np.max(rep.residuals) < 1e-8


@pytest.mark.parametrize("n, nt, d, variant", [
    (4, 4, 1.0, "kt"), (6, 20, 1.0, "kt"), (8, 16, 0.5, "kt"),
    (6, 6, 1.0, "flat")])
def test_normal_rows_match_normal_matrix(n, nt, d, variant):
    system = ol.build_system(n, nt, d, variant)
    fold = np.arange(n * n) * (n * nt)
    picked = np.random.default_rng(4).choice(system.grid.size, 40,
                                             replace=False)
    whole = system.normal_rows()
    for rows in (fold, picked):
        assert same_csr(system.normal_rows(rows), whole[rows])


def all_sector_floor(system, k):
    """Test-only reference: eigvalsh in every (kz, kt) sector of the fold of
    the global normal matrix, no twin pairing."""
    g = system.grid
    n, nt, nxy = g.n, g.nt, g.n * g.n
    rows = system.normal_rows()[np.arange(nxy) * (n * nt)].tocoo()
    xy, rest = np.divmod(rows.col, n * nt)
    kc, lc = np.divmod(rest, nt)
    flat = rows.row * nxy + xy
    ez, et = ol._unit_roots(n), ol._unit_roots(nt)

    def block(kz, kt):
        w = rows.data * ez[kz * kc % n] * et[kt * lc % nt]
        return (np.bincount(flat, w.real, nxy * nxy)
                + 1j * np.bincount(flat, w.imag, nxy * nxy)).reshape(nxy, nxy)

    sectors = [(kz, kt) for kz in range(n) for kt in range(nt)]
    per = min(k, nxy)
    vals = np.concatenate([np.linalg.eigvalsh(block(*s))[:per]
                           for s in sectors])
    order = np.argsort(vals, kind="stable")[:k]
    picked = tuple(sectors[i // per] for i in order)
    vecs = np.empty((g.size, k), dtype=complex)
    for col, (i, (kz, kt)) in enumerate(zip(order, picked)):
        phi = np.linalg.eigh(block(kz, kt))[1][:, i % per]
        wave = np.multiply.outer(ez[kz * np.arange(n) % n],
                                 et[kt * np.arange(nt) % nt])
        vecs[:, col] = np.multiply.outer(phi, wave).ravel() / np.sqrt(n * nt)
    return vals[order], picked, vecs


@pytest.mark.parametrize("n, nt, d, variant", [
    (6, 6, 1.0, "kt"), (6, 16, 1.0, "kt"), (6, 20, 1.0, "kt"),
    (8, 8, 1.0, "kt"), (8, 16, 0.5, "kt"), (6, 7, 1.0, "kt"),
    (6, 6, 1.0, "flat"), (8, 8, 1.0, "flat")])
def test_twin_pairing_matches_all_sector_solve(n, nt, d, variant):
    system = ol.build_system(n, nt, d, variant)
    for k in (2, 6, 20):
        rep = ol.spectral_floor(system, k=k)
        values, sectors, vectors = all_sector_floor(system, k)
        assert rep.values.tobytes() == values.tobytes()
        assert rep.sectors == sectors
        assert rep.vectors.tobytes() == vectors.tobytes()
        assert np.max(rep.residuals) < 1e-8


@pytest.mark.parametrize("n, nt, solved", [(6, 20, 32), (8, 8, 18),
                                            (6, 7, 22)])
def test_spectral_floor_solves_one_sector_per_orbit(n, nt, solved):
    # conjugation pairs (kz, kt) with (-kz, -kt); an even nt also pairs kt
    # with kt + nt/2, an odd one (nt = 7) has conjugation only
    rep = ol.spectral_floor(ol.build_system(n, nt, 1.0, "kt"), k=2)
    assert rep.solved == solved


def test_t_parity_pairing_needs_even_t_offsets():
    # a forward t-difference puts odd t-offsets into M, and then kt and
    # kt + nt/2 are no longer twins: only conjugation may pair sectors
    system = ol.build_system(4, 6, 1.0, "flat")
    g = system.grid
    forward = shift(g, "t", 1) - sp.identity(g.size, format="csr")
    system.ops = [(op + forward).tocsr() for op in system.ops]
    rep = ol.spectral_floor(system, k=6)
    assert rep.solved == 14
    values, sectors, vectors = all_sector_floor(system, 6)
    assert rep.values.tobytes() == values.tobytes()
    assert rep.sectors == sectors
    assert rep.vectors.tobytes() == vectors.tobytes()


def test_spectral_floor_rejects_bad_k():
    system = ol.build_system(4, 4, 1.0, "flat")
    for k in (-1, 0, system.grid.size + 1):
        with pytest.raises(ValueError):
            ol.spectral_floor(system, k=k)
    assert len(ol.spectral_floor(system, k=system.grid.size).values) \
        == system.grid.size
    # a non-integer k is refused by name, not left to fail inside numpy
    for k in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="need an integer k"):
            ol.kernel_gap(4, k=k)


def test_spectral_floor_refuses_an_overflowing_h_t():
    # at d = 1e-150 the normal operator's 1/h_t^4 entries overflow: the
    # refusal names h_t before any numpy warning or eigensolve
    system = ol.build_system(4, None, 1e-150, "kt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^h_t = d/nt = 2\.5e-151 is "
                                             r"too small"):
            ol.spectral_floor(system, k=2)


def test_small_t_period_refused_naming_h_t():
    # at d = 1e-150 the residual norms' squares overflow; from d = 1e-160
    # on 1/h_t^2 does, and at 1e-200 h_t^2 is 0: each is one named refusal,
    # with no numpy warning and no ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = ol.build_system(4, None, 1e-150, "kt")
        theta = system.grid.sample(ol.theta_test_field(1e-150))
        with pytest.raises(ValueError, match=r"^h_t = d/nt = 2\.5e-151 is too "
                           r"small: the slot residual norms, of order "
                           r"1/h_t\^2, overflow a float$"):
            system.slot_residual_norms(theta)
        for d, h in ((1e-160, r"2\.5e-161"), (1e-200, r"2\.5e-201")):
            with pytest.raises(ValueError, match=rf"^h_t = d/nt = {h} is too "
                               r"small: the Hessian weights, of order "
                               r"1/h_t\^2, overflow a float$"):
                ol.build_system(4, None, d, "kt")
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
    ol.build_system(4, None, 1e150, "kt")


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
    field = ol.theta_test_field(1.0)
    coarse = ol.route_difference(8, "kt", 1.0, field)
    fine = ol.route_difference(16, "kt", 1.0, field)
    assert fine[1] < coarse[1] / 3.0   # second order: x4 expected


def test_richardson_order_on_theta_field():
    fit = ol.richardson_orders(ns=(8, 12, 16), variant="kt", d=1.0,
                               field=ol.theta_test_field(1.0))
    assert fit.order_l2 >= 1.9
    assert fit.order_max >= 1.7
    assert len(fit.err_l2) == 3 and (np.diff(fit.err_l2) < 0).all()


def materialized_route_difference(n, variant, fields):
    """route_difference with both routes held as whole slot dicts, as a
    reference for the streamed chart route."""
    v = ol.get_variant(variant)
    g = QuotientGrid(n, n, 1.0, twisted=v.twisted)
    psi = np.stack([g.sample(f) for f in fields], axis=1)
    frame = ol.hessian_ops_frame(g, v, psi)
    chart = dict(ol.hessian_ops_chart(g, v, psi))
    assert list(chart) == list(frame)
    err_max = np.zeros(len(fields))
    err_sq = np.zeros(len(fields))
    for key in frame:
        diff = np.ascontiguousarray((frame[key] - chart[key]).T)
        err_max = np.maximum(err_max, np.max(np.abs(diff), axis=1))
        err_sq += np.sum(diff * diff, axis=1)
    return err_max, np.sqrt(g.cell_volume * err_sq)


@pytest.mark.parametrize("variant", ["kt", "flat"])
@pytest.mark.parametrize("n", [8, 12])
def test_streamed_routes_match_materialized_routes(variant, n):
    one = [ol.theta_test_field(1.0)]
    three = [ol.random_invariant_field(1.0, s) for s in (1, 2, 3)]
    want = materialized_route_difference(n, variant, one)
    got = ol.route_difference(n, variant, field=one[0])
    assert got == (float(want[0][0]), float(want[1][0]))
    want = materialized_route_difference(n, variant, three)
    got = ol.route_difference(n, variant, field=three)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_chart_route_refuses_a_mismatched_grid_when_called():
    with pytest.raises(ValueError, match="expects twisted=True"):
        ol.hessian_ops_chart(QuotientGrid(4, twisted=False),
                             ol.get_variant("kt"), np.zeros((256, 1)))


def test_route_difference_traced_peak():
    # the fields stream one at a time, one chart slot is formed at a time,
    # the grid caches first differences only and the chart route applies
    # its stencils along their axes: the peak is bounded in (size, 3) float
    # blocks (12.5 measured; 17.4 while the chart route lifted them)
    n = 12
    fields = [ol.random_invariant_field(1.0, s) for s in range(3)]
    ol.route_difference(4, field=fields)  # the kt variant is built once
    tracemalloc.start()
    try:
        ol.route_difference(n, field=fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * (n ** 4 * 3 * 8)


@pytest.mark.parametrize("ns", [(8,), (8, 8), (), (8.0, 12.0), (3, 8), 8])
def test_richardson_orders_rejects_bad_grid_sizes(ns):
    with pytest.raises(ValueError, match="grid sizes"):
        ol.richardson_orders(ns=ns)


@pytest.mark.parametrize("field", [[], [1.0], 1.0, "theta"])
def test_route_difference_rejects_bad_fields(field):
    with pytest.raises(ValueError, match="callable"):
        ol.route_difference(4, field=field)


def test_route_difference_refuses_complex_fields():
    def wave(x, y, z, t):
        return np.exp(2j * np.pi * y)

    for field in (wave, [ol.theta_test_field(1.0), wave]):
        with pytest.raises(ValueError, match="field must be real-valued"):
            ol.route_difference(4, field=field)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_route_difference_refuses_non_finite_fields(value):
    def bad(x, y, z, t):
        return np.where(x > 0.5, value, 0.0)

    for field in (bad, [ol.theta_test_field(1.0), bad]):
        with pytest.raises(ValueError, match="field must be finite"):
            ol.route_difference(4, field=field)
        with pytest.raises(ValueError, match="field must be finite"):
            ol.richardson_orders(ns=(4, 5), field=field)


@pytest.mark.parametrize("variant", ["kt", "flat"])
def test_chart_route_builds_no_grid_matrix(variant):
    # every chart stencil is applied along its axis: a fresh grid's cache of
    # lifted differences stays empty, and the grid is freed by reference
    # counting alone once its caller drops it
    v = ol.get_variant(variant)
    g = QuotientGrid(6, 6, 1.0, twisted=v.twisted)
    psi = np.random.default_rng(2).standard_normal((g.size, 1))
    assert len(list(ol.hessian_ops_chart(g, v, psi))) == 10
    assert g._diffs == {}
    ol.hessian_ops_frame(g, v, psi)
    assert ol.frame_fields(g, v) is ol.frame_fields(g, v)
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
        one = ol.richardson_orders(ns=(8, 12), field=f)
        assert one.ns == fit.ns == (8, 12)
        assert np.array_equal(one.err_max, fit.err_max)
        assert np.array_equal(one.err_l2, fit.err_l2)
        assert one.order_max == fit.order_max
        assert one.order_l2 == fit.order_l2
