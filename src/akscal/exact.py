"""Exact rational linear algebra on small object-dtype matrices.

Curvature tables of the shipped homogeneous structures are rational, so the
whole frame calculus can run on ``fractions.Fraction`` entries.  numpy object
arrays dispatch ``+``, ``*`` and ``@`` to the Fraction operators, which keeps
the code identical to the floating path.  From ``half`` on, each helper
follows its argument's arithmetic.

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


def to_float(a, name="value") -> np.ndarray:
    """a as a float array; a ragged shape, or a complex or non-numeric entry,
    is refused by name."""
    try:
        a = np.asarray(a)
    except ValueError:                 # numpy's refusal of a ragged nesting
        raise ValueError(f"{name} has a ragged shape") from None
    try:
        if a.dtype.kind != "c":
            return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must have real numeric entries")


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

