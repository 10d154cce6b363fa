"""Pointwise tensor algebra: splitting, metric exponentials, refusals."""

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
        assert tensor.check_acs(arith(J4.astype(int), kind)) is not None


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
    # complex input used to lose its imaginary part with a ComplexWarning
    real = "must have real numeric entries"
    with pytest.raises(ValueError, match=f"metric {real}"):
        tensor.exp_metric({}, 0)
    with pytest.raises(ValueError, match=f"h {real}"):
        tensor.exp_metric(np.eye(4), 1j * np.eye(4))
    with pytest.raises(ValueError, match=f"g_tilde {real}"):
        tensor.log_recover(np.eye(4), 1j * np.eye(4))
    with pytest.raises(ValueError, match=f"J {real}"):
        tensor.check_acs(1j * J4)
    with pytest.raises(ValueError, match=f"A {real}"):
        tensor.anti_invariant_part({}, J4)
    # a ragged nesting is refused by its shape, not its entries
    for call, name in ((lambda: tensor.check_metric([[1, 0], [0]]), "metric"),
                       (lambda: tensor.exp_metric(np.eye(4), [[0], [0, 0]]),
                        "h")):
        with pytest.raises(ValueError, match=f"^{name} has a ragged shape"):
            call()
    # None reads as a 0-d NaN, so its shape is refused before its scale
    with pytest.raises(ValueError, match="metric must be a square matrix"):
        tensor.exp_metric(None, 0)
    with pytest.raises(ValueError, match="h must be a square matrix"):
        tensor.exp_metric(np.eye(4), 0)
    with pytest.raises(ValueError, match="A must be a square matrix"):
        tensor.anti_invariant_part(None, J4)


G_BLOCK = np.array([[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])


def test_mixed_exact_and_float_input_runs_in_float():
    g = arith(G_BLOCK, "exact")
    # a float J against an exact tensor: the split runs in float
    anti = tensor.anti_invariant_part(g, J4)
    assert anti.dtype == float
    assert np.array_equal(anti, tensor.anti_invariant_part(exact.to_float(g), J4))


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
