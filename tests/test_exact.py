from fractions import Fraction

import numpy as np

from akscal import exact


def test_frac_parses_common_shapes():
    assert exact.frac("-3/4") == Fraction(-3, 4)
    assert exact.frac(2) == Fraction(2)
    assert exact.frac(Fraction(1, 3)) == Fraction(1, 3)
    # numpy integers register as numbers.Rational
    for v in (np.int64(-3), np.int32(-3), np.uint8(3), True):
        assert exact.frac(v) == Fraction(int(v))


def test_as_exact_keeps_rationals():
    a = exact.as_exact([[1, "1/2"], [0, 2]])
    assert a.dtype == object
    assert a[0][1] == Fraction(1, 2)
    assert exact.is_exact(a)
    assert not exact.is_exact(np.eye(2))


def test_to_float_round_trip():
    a = exact.as_exact([["1/4", 0], [0, "-5/8"]])
    f = exact.to_float(a)
    assert f.dtype == float
    assert f[0, 0] == 0.25 and f[1, 1] == -0.625


def test_einsum_on_integer_numerators():
    a = exact.as_exact([[1, "1/2"], ["-3/7", 2]])
    b = exact.as_exact([["1/6", 0], [5, "-1/4"]])
    for sub, ops in (("ij,jk->ik", (a, b)), ("ii->", (a,)),
                     ("ij,ij->", (a, b)), ("ij->ji", (a,))):
        got, want = exact.einsum(sub, *ops), np.einsum(sub, *ops)
        assert np.array_equal(got, want)
        assert all(type(v) is Fraction for v in np.ravel(got))
    assert type(exact.einsum("ii->", a)) is Fraction
    # any float operand sends the call to np.einsum as it is
    f = exact.to_float(a)
    assert exact.einsum("ij,jk->ik", f, f).tobytes() == \
        np.einsum("ij,jk->ik", f, f).tobytes()
