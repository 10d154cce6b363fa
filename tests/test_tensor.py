"""Pointwise tensor algebra: splitting, metric exponentials, compatibility."""

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


def test_non_finite_entries_refused_by_name():
    # numpy's eigensolver would fail on them with LinAlgError, naming nothing
    with pytest.raises(ValueError, match="metric has a non-finite entry"):
        tensor.exp_metric(np.nan * np.eye(4), 0)
    with pytest.raises(ValueError, match="g_tilde has a non-finite entry"):
        tensor.log_recover(np.eye(4), np.diag([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError, match="h has a non-finite entry"):
        tensor.exp_metric(np.eye(4), np.full((4, 4), np.nan))
    # a NaN defect is within no tolerance, so it used to pass these checks
    with pytest.raises(ValueError, match="J has a non-finite entry"):
        tensor.check_acs(np.full((4, 4), np.nan))
    for g in (np.full((4, 4), np.nan), np.diag([1.0, np.inf, 1.0, 1.0])):
        with pytest.raises(ValueError, match="g has a non-finite entry"):
            tensor.check_acs(J4, g)
    with pytest.raises(ValueError, match="omega has a non-finite entry"):
        tensor.check_compatibility(np.eye(4), np.full((4, 4), np.nan))


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
