"""Pointwise frame linear algebra for an almost-complex structure J.

Everything here acts on orthonormal-frame component matrices (2n x 2n) rather
than coordinate tensors.  Metrics are symmetric positive-definite and an
almost-complex structure squares to -I.  Symmetric 2-tensors split into
J-invariant and J-anti-invariant parts; the anti-invariant ones parametrize
the metrics compatible with a fixed symplectic form through the exponential
map g -> g.exp(g^-1 h), and `log_recover` inverts that map.

The checks and the J-splitting coerce their inputs once: when every input is
an exact array (Fraction objects) they stay exact and a defect must vanish;
otherwise all inputs become float arrays and a defect must stay within a
tolerance.  A complex or non-numeric input is refused by name.  `exact`
supplies the arithmetic-dependent pieces, so each check has one body.  The
exponential and logarithm always run in floating point.

The checks, the J-splitting, `exp_metric` and `log_recover` take a matrix of
shape (m, m) or a stack of shape (..., m, m); stacked arguments broadcast
against each other as in `@`.
Each matrix of a stack is held to the tolerance of its own scale, so a stack
passes exactly when every matrix would pass alone, and an error reports the
worst defect in the stack.  A single matrix runs the same operations as a
stack of one.
"""

from __future__ import annotations

import numpy as np

from . import exact

ACS_TOL = 1e-12


def _coerce(*named):
    """The matrices of (name, matrix) pairs, as given if all are exact, else float."""
    if all(exact.is_exact(m) for _, m in named):
        return [m for _, m in named]
    return [exact.to_float(m, name) for name, m in named]


def _size(a) -> float:
    return float(np.abs(a).max())


def _scale(a):
    """1 + max|a| of each matrix of a stack, shaped to broadcast against it."""
    return 1 + np.max(np.abs(a), axis=(-2, -1), keepdims=True)


def _t(a):
    return np.swapaxes(a, -1, -2)


def _check_square(a, name) -> int:
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, "
                         f"got shape {a.shape}")
    if a.shape[-1] % 2:
        raise ValueError(f"{name} must be even-dimensional, got {a.shape[-1]}")
    if not exact.is_exact(a) and not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a.shape[-1]


def check_symmetric(a, name="tensor", tol=0.0):
    (a,) = _coerce((name, a))
    _check_square(a, name)
    d = a - _t(a)
    if exact.nonzero(d, tol):
        raise ValueError(f"{name} is not symmetric (defect {_size(d):.3g})")
    return a


def _near_symmetric(a, name):
    """check_symmetric to 1e-12 of each matrix's scale, once a is square."""
    _check_square(a, name)
    return check_symmetric(a, name, tol=1e-12 * _scale(a))


def check_metric(g, name="metric"):
    """Symmetric positive-definite check; returns g as float array."""
    g = _near_symmetric(exact.to_float(g, name), name)
    w = np.linalg.eigvalsh(g)
    if w.min() <= 0:
        raise ValueError(f"{name} is not positive-definite (min eigenvalue {w.min():.3g})")
    return g


def check_acs(j):
    """Verify J^2 = -I."""
    (j,) = _coerce(("J", j))
    n = _check_square(j, "J")
    d_acs = j @ j + exact.eye_as(j, n)
    if exact.nonzero(d_acs, ACS_TOL):
        raise ValueError(f"J^2 != -I (defect {_size(d_acs):.3g} > {ACS_TOL:g})")
    return j


def _j_part(a, j, combine):
    """(1/2) combine(A, J^T A J) for A symmetric and J an acs, both checked."""
    a, j = _coerce(("A", a), ("J", j))
    a = _near_symmetric(a, "A")
    j = check_acs(j)
    if a.shape[-1] != j.shape[-1]:
        raise ValueError("dimension mismatch between A and J")
    return exact.half(a) * combine(a, _t(j) @ a @ j)


def anti_invariant_part(a, j):
    """J-anti-invariant part (1/2)(A - J^T A J) of a symmetric tensor.

    The result h satisfies h(J., J.) = -h, i.e. h + J^T h J = 0.
    """
    return _j_part(a, j, np.subtract)


def invariant_part(a, j):
    """J-invariant part (1/2)(A + J^T A J); complements anti_invariant_part."""
    return _j_part(a, j, np.add)


def _sym_sqrt(g):
    w, u = np.linalg.eigh(g)
    if w.min() <= 0:
        raise ValueError("matrix is not positive-definite")
    root = np.sqrt(w)[..., None, :]
    return (u * root) @ _t(u), (u / root) @ _t(u)


def exp_metric(g, h):
    """g.exp(g^-1 h) for symmetric h: the exponential ray of metrics through g.

    Computed through the symmetric eigendecomposition of g^{-1/2} h g^{-1/2},
    which is exact up to floating error because g^-1 h is g-self-adjoint.
    """
    g = check_metric(g)
    h = _near_symmetric(exact.to_float(h, "h"), "h")
    g_half, g_ihalf = _sym_sqrt(g)
    m = g_ihalf @ h @ g_ihalf
    m = 0.5 * (m + _t(m))
    w, v = np.linalg.eigh(m)
    em = (v * np.exp(w)[..., None, :]) @ _t(v)
    out = g_half @ em @ g_half
    return 0.5 * (out + _t(out))


def log_recover(g, g_tilde):
    """The unique symmetric h with exp_metric(g, h) = g_tilde: the plain
    g-relative matrix logarithm."""
    g = check_metric(g)
    gt = check_metric(g_tilde, "g_tilde")
    g_half, g_ihalf = _sym_sqrt(g)
    m = g_ihalf @ gt @ g_ihalf
    m = 0.5 * (m + _t(m))
    w, v = np.linalg.eigh(m)
    if w.min() <= 0:
        raise ValueError(f"logarithm undefined: non-positive eigenvalue {w.min():.3g}")
    lm = (v * np.log(w)[..., None, :]) @ _t(v)
    h = g_half @ lm @ g_half
    return 0.5 * (h + _t(h))
