import math
import warnings

import numpy as np
import pytest

from akscal import zbound

ROOT2 = math.sqrt(2.0)


# -- model construction and serialization -----------------------------------


def test_make_model_validation():
    with pytest.raises(ValueError):
        zbound.make_model("x", [[2]], [1], n=2)            # det != +-1
    with pytest.raises(ValueError):
        zbound.make_model("x", [[1, 0], [1, 1]], [1, 1], n=2)   # asymmetric
    with pytest.raises(ValueError):
        zbound.make_model("x", [[1]], [1, 2], n=2)         # c1 length
    with pytest.raises(ValueError):
        zbound.make_model("x", [[1]], [1], n=4)
    with pytest.raises(ValueError):
        zbound.make_model("x", [[1]], [1], n=3)            # missing fiber_chern
    with pytest.raises(ValueError):
        zbound.make_model("x", [[1]], [1], n=2, seed=[1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="seed has a non-finite entry"):
            zbound.make_model("x", [[1]], [1], n=2, seed=[bad])
    for key in ("fiber_chern", "chi", "tau"):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                zbound.make_model("x", [[1]], [1], n=3,
                                  **{"fiber_chern": -2, key: bad})


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": [1j]}, "seed must have real numeric entries"),
    ({"seed": [{}]}, "seed must have real numeric entries"),
    ({"seed": [None]}, "seed has a non-finite entry"),
    ({"seed": 1.0}, "seed length must match the class dimension"),
    ({"q": [[1j]]}, "Q must have real numeric entries"),
    ({"q": None}, "Q has a non-finite entry"),
    ({"q": [[1.5]]}, "Q must have integer entries of at most 2^53"),
    ({"q": [[2.0 ** 60]]}, "Q must have integer entries of at most 2^53"),
    ({"c1": [2.7]}, "c1 must have integer entries of at most 2^53"),
    ({"c1": ["x"]}, "c1 must have real numeric entries"),
    ({"q": [[1, 0], [1]], "c1": [1, 1]},
     "Q has a ragged shape"),
    ({"seed": [1.0, [2.0]]}, "seed has a ragged shape"),
])
def test_make_model_refuses_bad_input_by_name(kwargs, message):
    # no TypeError leaks and no lattice entry is truncated
    args = {"q": [[1]], "c1": [3], "seed": None, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            zbound.make_model("x", args["q"], args["c1"], n=2,
                              seed=args["seed"])
    assert str(err.value) == message


def test_make_model_keeps_integral_float_lattices():
    m = zbound.make_model("x", [[1.0]], [3.0], n=2, seed=np.array([2]))
    assert m.q.dtype == m.c1.dtype == np.int64
    assert m.q.tolist() == [[1]] and m.c1.tolist() == [3]
    assert m.seed == (2.0,) and type(m.seed[0]) is float


def test_serialize_round_trip():
    for m in (zbound.cp2_model(), zbound.barlow_sigma_model(),
              zbound.r8_sigma_model()):
        back = zbound.parse_model(zbound.serialize_model(m))
        assert back.name == m.name and back.n == m.n
        assert (back.q == m.q).all() and (back.c1 == m.c1).all()
        assert back.fiber_chern == m.fiber_chern
        assert back.seed == m.seed


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        zbound.parse_model("name x\nn 7\n")
    with pytest.raises(ValueError):
        zbound.parse_model("")
    with pytest.raises(ValueError, match="^Q has a ragged shape"):
        zbound.parse_model("name x\nn 2\nQ 1 0\nQ 1\nc1 1 1\n")


@pytest.mark.parametrize("text, message", [
    ("n\nc1 1\nQ 1", "line 1: n needs a value"),
    ("Q 1\n\nc1 1 z", "line 3: malformed c1 value '1 z'"),
    ("Q 1\nc1 1\nrank two", "line 3: malformed rank value 'two'"),
    ("Q 1\nc1 1\nseed x", "line 3: malformed seed value 'x'"),
    ("n 2\nQ 1\nc1 3\nseed nan", "line 4: seed has a non-finite entry"),
    ("Q 1\nfoo 1", "line 2: unknown key 'foo'"),
])
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        zbound.parse_model(text)
    assert str(err.value) == message


# -- evaluation --------------------------------------------------------------


def test_cp2_value():
    m = zbound.cp2_model()
    v = zbound.eval_z_bound(m, [1.0])
    assert abs(v - 12.0 * ROOT2 * math.pi) <= 1e-9
    a, b, _, ell = zbound._pairings(m, [1.0])
    assert zbound._top_chern(m, a, b, ell) == (1.0, 3.0)


def test_eval_is_scale_invariant():
    m = zbound.cp2_model()
    base = zbound.eval_z_bound(m, [1.0])
    for lam in (0.3, 2.0, 17.0):
        assert zbound.eval_z_bound(m, [lam]) == pytest.approx(base, rel=1e-12)
    mb = zbound.barlow_sigma_model()
    cls = np.array([-3.0, 1, 1, 1, 1, 1, 1, 1, 1, 2.0])
    assert zbound.eval_z_bound(mb, 0.7 * cls) == pytest.approx(
        zbound.eval_z_bound(mb, cls), rel=1e-12)


def test_cone_rejection():
    rev = zbound.make_model("cp2_reversed", [[-1]], [0], n=2, chi=3, tau=-1)
    for cls in ([1.0], [-1.0]):
        with pytest.raises(zbound.ConeError):
            zbound.eval_z_bound(rev, cls)
    with pytest.raises(zbound.ConeError):
        zbound.eval_z_bound(zbound.barlow_sigma_model(),
                            [0, 1, 0, 0, 0, 0, 0, 0, 0, 1])


def test_eval_refuses_a_non_finite_class():
    # NaN passes the top-power comparison, so it is refused by name first
    for cls in ([math.nan], [math.inf]):
        with pytest.raises(ValueError, match="class has a non-finite entry"):
            zbound.eval_z_bound(zbound.cp2_model(), cls)


def test_complex_and_non_numeric_classes_refused_by_name():
    # a complex class used to lose its imaginary part with a ComplexWarning
    m = zbound.barlow_sigma_model()
    for bad in (np.array(m.seed) + 1j, {}, "x", [object()]):
        with pytest.raises(ValueError, match="class must have real numeric"):
            zbound.eval_z_bound(m, bad)
        with pytest.raises(ValueError, match="class must have real numeric"):
            zbound.certify_global(m, bad)
        with pytest.raises(ValueError,
                           match="seed class must have real numeric"):
            zbound.optimize_z_bound(m, bad)
    with pytest.raises(ValueError, match="y must have real numeric"):
        zbound.y_ratio(0.5j)


def test_barlow_optimum():
    res = zbound.optimize_z_bound(zbound.barlow_sigma_model())
    assert not res.unbounded
    assert abs(res.value - (-12.0 * math.pi)) <= 1e-6
    want = np.array([-3.0, 1, 1, 1, 1, 1, 1, 1, 1, 2.0])
    a = res.argmax / np.linalg.norm(res.argmax)
    b = want / np.linalg.norm(want)
    assert np.linalg.norm(a - b) <= 1e-4


def test_positive_ray_is_unbounded():
    res = zbound.optimize_z_bound(zbound.r8_sigma_model())
    assert res.unbounded and math.isinf(res.value) and res.argmax is None


def test_positive_fiber_ray_is_unbounded_at_the_seed():
    # the pairing b = c1.Q.beta decides the fiber ray, whatever the scales
    m = zbound.barlow_sigma_model()
    res = zbound.optimize_z_bound(m, tuple(1e6 * m.c1) + (1e-6,))
    assert res.unbounded and math.isinf(res.value) and res.iterations == 0


def test_ascent_past_the_threshold_is_unbounded():
    # a surface whose ascent climbs past UNBOUNDED_THRESHOLD after some
    # accepted steps: the supremum is reported infinite, with no argmax
    m = zbound.make_model("x", np.diag([1, -1, -1]), [3, -1, -1], n=2)
    res = zbound.optimize_z_bound(m, seed=(3.0, -0.5, 0.0))
    assert res.unbounded and math.isinf(res.value) and res.value > 0
    assert res.argmax is None and res.iterations == 12


def test_optimizer_start_override():
    m = zbound.cp2_model()
    res = zbound.optimize_z_bound(m, seed=[2.5])
    assert res.value == pytest.approx(12.0 * ROOT2 * math.pi, abs=1e-9)


def test_optimizer_takes_a_huge_or_tiny_seed():
    # a power-of-two scale leaves the result bit-identical; no pairing of a
    # 1e300 seed overflows, so it is not refused as outside the cone
    m = zbound.barlow_sigma_model()
    seed = np.array(m.seed)
    base = zbound.optimize_z_bound(m)
    scaled = zbound.optimize_z_bound(m, seed=2.0 ** 1000 * seed)
    assert scaled.argmax.tobytes() == base.argmax.tobytes()
    assert ((scaled.value, scaled.unbounded, scaled.iterations,
             scaled.grad_norm)
            == (base.value, base.unbounded, base.iterations, base.grad_norm))
    for scale in (1e300, 1e-300):
        res = zbound.optimize_z_bound(m, seed=scale * seed)
        assert res.value == pytest.approx(-12.0 * math.pi, abs=1e-12)


def test_eval_takes_a_huge_or_tiny_class():
    # the power-of-two rescale the optimizer uses: no pairing of a 1e300
    # class overflows, so it is not refused as outside the cone, and a
    # 1e-300 class does not underflow
    m = zbound.barlow_sigma_model()
    seed = np.array(m.seed)
    base = zbound.eval_z_bound(m, seed)
    assert zbound.eval_z_bound(m, 2.0 ** 1000 * seed) == base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e300, 1e-300):
            got = zbound.eval_z_bound(m, scale * seed)
            assert abs(got - base) <= 1e-15 * abs(base)


def test_optimizer_refuses_a_non_finite_seed():
    with pytest.raises(ValueError, match="seed class has a non-finite entry"):
        zbound.optimize_z_bound(zbound.cp2_model(), seed=[math.nan])


# -- closed-form certificate pieces ------------------------------------------


def test_h_function_max_formulas():
    x_star, h_max = zbound.h_function_max(-1.0, -2.0)
    assert x_star == pytest.approx(np.cbrt(4.0))
    assert h_max == pytest.approx(np.cbrt(-6.0 / 4.0))
    with pytest.raises(ValueError):
        zbound.h_function_max(1.0, -1.0)


def test_h_function_max_beats_grid():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = -rng.uniform(1 / 3, 3, size=2)
        x_star, h_max = zbound.h_function_max(a, b)
        xs = np.geomspace(x_star / 8, x_star * 8, 2001)
        grid = zbound.h_function(a, b, xs).max()
        assert grid <= h_max + 1e-9
        assert zbound.h_function(a, b, np.array([x_star]))[0] == pytest.approx(h_max)


def test_h_function_refuses_a_zero_divisor():
    for a, b, x in ((-1.0, -1.0, 0.0), (-1.0, 0.0, 1.0), (-1.0, -1.0, [1.0, 0.0])):
        with pytest.raises(ValueError, match="h_function needs b != 0 and x != 0"):
            zbound.h_function(a, b, x)


def test_y_ratio_minimum():
    y_star, r_min = zbound.y_ratio_min()
    assert (y_star, r_min) == (8.0 / 9.0, 1.0)
    assert zbound.y_ratio(y_star) == pytest.approx(1.0, abs=1e-12)
    ys = np.linspace(0.0, 1.0 - 1e-6, 100001)
    assert zbound.y_ratio(ys).min() >= 1.0 - 1e-6
    with pytest.raises(ValueError):
        zbound.y_ratio(1.0)


def test_y_ratio_refuses_nan():
    for y in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match="y has a non-finite entry"):
            zbound.y_ratio(y)


def test_certificate_matches_direct_eval():
    cert = zbound.certify_global(zbound.barlow_sigma_model())
    assert cert is not None
    assert cert.global_bound == pytest.approx(-12.0 * math.pi, abs=1e-9)
    assert cert.extremal_class == (-3.0, 1, 1, 1, 1, 1, 1, 1, 1, 2.0)
    assert (cert.y_star, cert.ratio_min) == (8.0 / 9.0, 1.0)
    cp2 = zbound.certify_global(zbound.cp2_model())
    assert cp2.global_bound == pytest.approx(12.0 * ROOT2 * math.pi)
    assert zbound.certify_global(zbound.r8_sigma_model()) is None


def test_certificate_follows_the_class():
    # rank one: the bound is constant on each ray, so the seed's ray is certified
    neg = zbound.make_model("neg", [[1]], [3], n=2, seed=(-1.0,))
    cert = zbound.certify_global(neg)
    assert cert.global_bound == zbound.eval_z_bound(neg, [-1.0])
    assert cert.extremal_class == (-1.0,) and cert.pairing_b == -3.0
    assert zbound.certify_global(neg, [2.0]).extremal_class == (1.0,)
    # barlow_sigma's lattice from the positive-pairing side has no certificate
    barlow, r8 = zbound.barlow_sigma_model(), zbound.r8_sigma_model()
    assert zbound.certify_global(barlow, r8.seed) is None
    assert zbound.certify_global(r8, barlow.seed) is not None
    with pytest.raises(zbound.ConeError):
        zbound.certify_global(neg, [0.0])
