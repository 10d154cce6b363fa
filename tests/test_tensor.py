"""Pointwise tensor algebra: splitting, metric exponentials, cutoffs."""

from fractions import Fraction

import numpy as np
import pytest

from akscal import exact, tensor

J4 = np.array([[0., 0., 0., 1.],
               [0., 0., -1., 0.],
               [0., 1., 0., 0.],
               [-1., 0., 0., 0.]])
KINDS = ("float", "exact")


def arith(m, kind):
    """Rational data m as a float array or as an exact Fraction array."""
    return exact.as_exact(m) if kind == "exact" else np.asarray(m, dtype=float)


def random_sym(rng, n=4):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_split_is_complementary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_sym(rng)
        anti = tensor.anti_invariant_part(a, J4)
        inv = tensor.invariant_part(a, J4)
        assert np.allclose(anti + inv, a, atol=1e-12)
        # defining relations: h(J., J.) = -h and g(J., J.) = +g
        assert np.allclose(J4.T @ anti @ J4, -anti, atol=1e-12)
        assert np.allclose(J4.T @ inv @ J4, inv, atol=1e-12)
        # projections are idempotent
        assert np.allclose(tensor.anti_invariant_part(anti, J4), anti, atol=1e-12)
        assert np.allclose(tensor.anti_invariant_part(inv, J4), 0, atol=1e-12)


def test_split_exact_path():
    a = exact.as_exact([[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 0]])
    j = exact.as_exact(J4.astype(int))
    anti = tensor.anti_invariant_part(a, j)
    assert exact.is_exact(anti)
    assert anti[0][0] == Fraction(1, 2) * (a[0][0] - a[3][3])


def test_check_acs_rejects_non_acs():
    for kind in KINDS:
        with pytest.raises(ValueError, match="J\\^2 != -I"):
            tensor.check_acs(arith(np.eye(4, dtype=int), kind))
        bad = J4.astype(int).astype(object)
        bad[0, 3] = Fraction(11, 10)
        with pytest.raises(ValueError, match="J\\^2 != -I"):
            tensor.check_acs(arith(bad, kind))
        with pytest.raises(ValueError, match="J\\^2 != -I"):
            tensor.check_acs(arith(2 * J4.astype(int), kind))
        # J swaps e1 with e4 and e2 with e3: an isometry of diag(1, 2, 2, 1)
        # but not of diag(1, 1, 2, 2)
        with pytest.raises(ValueError, match="g-isometry"):
            tensor.check_acs(arith(J4.astype(int), kind),
                             arith(np.diag([1, 1, 2, 2]), kind))
        assert tensor.check_acs(arith(J4.astype(int), kind),
                                arith(np.diag([1, 2, 2, 1]), kind)) is not None


def test_exp_metric_identity_direction():
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(tensor.exp_metric(g, np.zeros((4, 4))), g)
    # rank-one h: exp along a single eigendirection scales one eigenvalue
    h = np.zeros((4, 4))
    h[0, 0] = 2.0
    out = tensor.exp_metric(g, h)
    assert np.isclose(out[0, 0], np.exp(2.0))
    assert np.allclose(out[1:, 1:], g[1:, 1:])


def test_exp_log_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = random_sym(rng)
        g = g @ g.T + 4.0 * np.eye(4)
        h = random_sym(rng)
        gt = tensor.exp_metric(g, h)
        back = tensor.log_recover(g, gt)
        assert np.allclose(back, h, atol=1e-9)


def test_log_recover_rejects_non_spd():
    g = np.eye(4)
    with pytest.raises(ValueError):
        tensor.log_recover(g, np.diag([1.0, 1.0, 1.0, -1.0]))


def test_compatibility_gate():
    for kind in KINDS:
        omega = arith(J4.T.astype(int), kind)
        j = tensor.check_compatibility(arith(np.eye(4, dtype=int), kind), omega)
        assert exact.is_exact(j) == (kind == "exact")
        assert np.allclose(exact.to_float(j), J4)
        with pytest.raises(tensor.CompatibilityError):
            tensor.check_compatibility(arith(np.diag([1, 1, 2, 2]), kind), omega)
        with pytest.raises(ValueError, match="not skew"):
            tensor.check_compatibility(arith(np.eye(4, dtype=int), kind),
                                       arith(np.eye(4, dtype=int), kind))


OMEGA = J4.T.astype(int)
G_BLOCK = np.array([[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
G_DIAG = np.diag([Fraction(2), Fraction(1), Fraction(1), Fraction(1, 2)])


@pytest.mark.parametrize("g, omega, error, match", [
    # a negative-definite "metric" gives a J that squares to -I
    (-np.eye(4, dtype=int), OMEGA, ValueError, "positive-definite"),
    (G_BLOCK + np.triu(np.ones((4, 4), dtype=int), 1), OMEGA, ValueError,
     "not symmetric"),
    (np.eye(4, dtype=int), np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                                     [0, 0, 0, 0], [0, 0, 0, 0]]),
     tensor.CompatibilityError, "degenerate"),
    (np.diag([1, 1, 2, 2]), OMEGA, tensor.CompatibilityError, "J\\^2\\+I"),
    (G_BLOCK, OMEGA, None, None),
    (G_DIAG, OMEGA, None, None),
], ids=["negative-metric", "non-symmetric-g", "degenerate-omega",
        "j-squared-not-minus-one", "accepted-block", "accepted-diagonal"])
def test_compatibility_exact_and_float_agree(g, omega, error, match):
    """Rational (g, omega) are accepted or refused alike by both routes, and
    an accepted pair gives the same J."""
    if error is not None:
        for kind in KINDS:
            with pytest.raises(error, match=match):
                tensor.check_compatibility(arith(g, kind), arith(omega, kind))
        return
    j_float = tensor.check_compatibility(arith(g, "float"), arith(omega, "float"))
    j_exact = tensor.check_compatibility(arith(g, "exact"), arith(omega, "exact"))
    assert exact.is_exact(j_exact) and not exact.is_exact(j_float)
    assert np.array_equal(exact.to_float(j_exact), j_float)
    assert not (j_exact @ j_exact + exact.eye(4)).any()


def test_mixed_exact_and_float_input_runs_in_float():
    g = arith(G_BLOCK, "exact")
    j = tensor.check_compatibility(g, arith(OMEGA, "float"))
    assert j.dtype == float
    assert np.array_equal(j, tensor.check_compatibility(arith(G_BLOCK, "float"),
                                                        arith(OMEGA, "float")))
    # a float J against an exact tensor: the split runs in float
    anti = tensor.anti_invariant_part(g, J4)
    assert anti.dtype == float
    assert np.array_equal(anti, tensor.anti_invariant_part(exact.to_float(g), J4))
    # an exact J with a float g: the isometry defect is measured in float
    assert tensor.check_acs(arith(J4.astype(int), "exact"),
                            np.eye(4) + 1e-14).dtype == float


def test_cutoff_profile_shape():
    eta = tensor.cutoff_profile(1.0, 2.0)
    r = np.linspace(0.0, 3.0, 301)
    v = eta(r)
    assert v[r <= 1.0].max() == 0.0
    assert v[r >= 2.0].min() == 1.0
    assert (np.diff(v) >= -1e-15).all()
    # all-orders flatness at the ends: finite differences stay tiny
    h = 1e-3
    for r0 in (1.0, 2.0):
        d2 = (eta(np.array([r0 - h])) - 2 * eta(np.array([r0]))
              + eta(np.array([r0 + h]))) / h**2
        assert abs(float(d2[0])) < 1e-6


def test_cutoff_profile_bad_radii():
    with pytest.raises(ValueError):
        tensor.cutoff_profile(2.0, 2.0)


def test_cutoff_blend_endpoints():
    rng = np.random.default_rng(11)
    batch = 6
    g_in = np.broadcast_to(np.eye(4), (batch, 4, 4)).copy()
    h = random_sym(rng)
    g_out = np.broadcast_to(tensor.exp_metric(np.eye(4), h), (batch, 4, 4)).copy()
    r = np.linspace(0.5, 2.5, batch)
    eta = tensor.cutoff_profile(1.0, 2.0)
    blend = tensor.cutoff_blend(g_out, g_in, eta, r)
    assert np.allclose(blend[0], g_in[0], atol=1e-12)
    assert np.allclose(blend[-1], g_out[-1], atol=1e-9)
    for k in range(batch):  # SPD throughout the collar
        assert np.linalg.eigvalsh(blend[k]).min() > 0


def _loop_blend(g_outer, g_inner, eta, r, omega=None):
    """The point-by-point cutoff blend the stacked one replaces."""
    batch = g_outer.shape[:-2]
    r = np.broadcast_to(np.asarray(r, dtype=float), batch)
    eta_vals = np.broadcast_to(np.asarray(eta(r), dtype=float), batch)
    out = np.empty_like(g_inner)
    for idx in np.ndindex(*batch):
        gi, go = g_inner[idx], g_outer[idx]
        h = tensor.log_recover(gi, go, omega)
        e = eta_vals[idx]
        out[idx] = gi if e == 0.0 else (go if e == 1.0
                                        else tensor.exp_metric(gi, e * h))
        tensor.check_metric(out[idx], "blended metric")
        if omega is not None:
            tensor.check_compatibility(out[idx], omega)
    return out


def _compatible_fields(rng, shape, j):
    """Metrics exp_metric(I, h) with h J-anti-invariant: omega-compatible
    for omega = J^-1."""
    a = rng.standard_normal(shape + (4, 4)) * 0.4
    h = tensor.anti_invariant_part(a + np.swapaxes(a, -1, -2), j)
    return tensor.exp_metric(np.eye(4), h)


@pytest.mark.parametrize("with_omega", [False, True])
def test_cutoff_blend_matches_point_loop(with_omega):
    rng = np.random.default_rng(3)
    shape = (5, 8)
    omega = np.linalg.inv(J4) if with_omega else None
    g_in, g_out = (_compatible_fields(rng, shape, J4) for _ in range(2))
    # radii below, inside and beyond the collar: eta is 0, between, and 1
    r = rng.uniform(0.5, 2.5, shape)
    eta = tensor.cutoff_profile(1.0, 2.0)
    got = tensor.cutoff_blend(g_out, g_in, eta, r, omega)
    want = _loop_blend(g_out, g_in, eta, r, omega)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    e = eta(r)
    assert (e == 0).any() and (e == 1).any() and ((0 < e) & (e < 1)).any()
    assert np.array_equal(got[e == 0], g_in[e == 0])
    assert np.array_equal(got[e == 1], g_out[e == 1])


def test_cutoff_blend_refuses_a_bad_point_as_the_loop_does():
    rng = np.random.default_rng(4)
    g_in, g_out = (_compatible_fields(rng, (6,), J4) for _ in range(2))
    g_out[2] = np.diag([1.0, 1.0, -0.5, 1.0])
    eta = tensor.cutoff_profile(1.0, 2.0)
    r = np.linspace(0.5, 2.5, 6)
    errors = []
    for blend in (tensor.cutoff_blend, _loop_blend):
        with pytest.raises(ValueError) as info:
            blend(g_out, g_in, eta, r)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("g_tilde is not positive-definite")


def test_stack_refused_when_one_matrix_is():
    a = np.stack([np.eye(4)] * 3)
    a[1, 0, 1] = 1e-3
    a[2, 2, 3] = 5e-3
    # the error reports the worst defect in the stack
    with pytest.raises(ValueError, match=r"not symmetric \(defect 0\.005\)"):
        tensor.check_symmetric(a, tol=1e-12)
    g = np.stack([np.eye(4), np.diag([1.0, 1.0, -2.0, 1.0]),
                  np.diag([1.0, -3.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="min eigenvalue -3"):
        tensor.check_metric(g)
    # each matrix is held to the tolerance of its own scale, so a large
    # matrix in the stack does not excuse a small one
    g = np.stack([1e6 * np.eye(4), np.eye(4)])
    g[1, 0, 1] = 1e-7
    for bad in (g[1], g):
        with pytest.raises(ValueError, match="not symmetric"):
            tensor.check_metric(bad)
    tensor.check_metric(g[:1])
