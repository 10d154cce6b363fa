"""Exact rational linear algebra on small object-dtype matrices.

Curvature tables of the shipped homogeneous structures are rational, so the
whole frame calculus can run on ``fractions.Fraction`` entries.  numpy object
arrays dispatch ``+``, ``*`` and ``@`` to the Fraction operators, which keeps
the code identical to the floating path; the only thing numpy cannot do on
object arrays is invert them, hence the Gauss-Jordan routine below.  From
``half`` on, each helper follows its argument's arithmetic.

Contractions go through ``einsum`` and follow the integer-numerator rule:
when every operand is exact, each is scaled by the lcm of its denominators
to Python ints, numpy contracts the ints, and each entry of the result is
divided by the product of the scales once.  A Fraction operation normalizes
by a gcd every time; this way only the result is normalized, and it is the
same Fraction the object-array contraction gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np


def frac(x) -> Fraction:
    """Coerce ints, Fractions and decimal/ratio strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not exactly representable: {x!r}")


def as_exact(a) -> np.ndarray:
    """Object array of Fractions from any nested int/Fraction/str data."""
    arr = np.asarray(a, dtype=object)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = frac(arr[idx])
    return out


def is_exact(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == object


def einsum(subscripts: str, *operands):
    """``np.einsum(subscripts, *operands)``, on integer numerators when every
    operand is exact (normalized Fractions out, a Fraction for a scalar
    output); any other operands go straight to ``np.einsum``."""
    if not all(map(is_exact, operands)):
        return np.einsum(subscripts, *operands)
    nums, scale = [], 1
    for a in operands:
        d = math.lcm(*(v.denominator for v in a.flat))
        nums.append(np.array([v.numerator * (d // v.denominator) for v in a.flat],
                             dtype=object).reshape(a.shape))
        scale *= d
    out = np.asarray(np.einsum(subscripts, *nums), dtype=object)
    # entries repeat (zeros above all), so build each distinct Fraction once
    over = {n: Fraction(n, scale) for n in set(out.flat)}
    return np.frompyfunc(over.__getitem__, 1, 1)(out)


def to_float(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


def zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def eye(n: int) -> np.ndarray:
    out = zeros((n, n))
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def half(like):
    return Fraction(1, 2) if is_exact(like) else 0.5


def zeros_as(like, shape) -> np.ndarray:
    return zeros(shape) if is_exact(like) else np.zeros(shape)


def eye_as(like, n: int) -> np.ndarray:
    return eye(n) if is_exact(like) else np.eye(n)


def nonzero(a, tol) -> bool:
    """Any entry != 0 for exact ``a`` (a Fraction scalar too), else any
    |a| > tol, where tol may be an array broadcasting against ``a``."""
    a = np.asarray(a)
    if is_exact(a):
        return any(v != 0 for v in a.flat)
    return bool((np.abs(a) > tol).any())


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b, exact or by LAPACK (float a and b may be stacks); singular a
    (in float: |det a| < 1e-300 too) raises ZeroDivisionError."""
    if is_exact(a):
        return mat_inv(a) @ b
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ZeroDivisionError("singular matrix") from None
    if np.abs(np.linalg.det(a)).min() < 1e-300:
        raise ZeroDivisionError("singular matrix")
    return x


def mat_inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    m = as_exact(a)
    inv = eye(n)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r, col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        p = m[col, col]
        m[col] = m[col] / p
        inv[col] = inv[col] / p
        for r in range(n):
            if r != col and m[r, col] != 0:
                f = m[r, col]
                m[r] = m[r] - f * m[col]
                inv[r] = inv[r] - f * inv[col]
    return inv
