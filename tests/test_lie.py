"""Frame curvature on 4-dimensional lattice quotients, exact arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from akscal import exact, lie

F = Fraction


@pytest.fixture(scope="module")
def kt():
    return lie.curvature_tables(lie.kt_spec(1))


def test_kt_connection(kt):
    # the only independent bracket is [e1,e2] = e3; Koszul gives half-shifts
    assert kt.gamma[0][1][2] == F(1, 2)
    assert kt.gamma[0][2][1] == F(-1, 2)
    assert kt.gamma[1][2][0] == F(1, 2)
    assert kt.gamma[1][0][2] == F(-1, 2)
    assert kt.gamma[2][0][1] == F(-1, 2)
    assert kt.gamma[2][1][0] == F(1, 2)
    assert sum(1 for v in kt.gamma.flat if v != 0) == 6


def test_kt_sectional(kt):
    want = {(0, 1): F(-3, 4), (0, 2): F(1, 4), (1, 2): F(1, 4),
            (0, 3): F(0), (1, 3): F(0), (2, 3): F(0)}
    for (i, j), v in want.items():
        assert kt.sectional[i][j] == v
        assert kt.sectional[j][i] == v


def test_kt_ricci_and_scalar(kt):
    assert (kt.ricci == np.diag(exact.as_exact(
        [F(-1, 2), F(-1, 2), F(1, 2), F(0)]))).all()
    assert kt.scalar == F(-1, 2)
    assert (kt.ricci_anti == np.diag(exact.as_exact(
        [F(-1, 4), F(-1, 2), F(1, 2), F(1, 4)]))).all()


def test_kt_scalar_ladder(kt):
    assert kt.nabla_j_sq == F(2)
    assert kt.star_scalar == F(1, 2)
    assert kt.star_scalar - kt.scalar == F(1, 2) * kt.nabla_j_sq
    assert kt.hermitian_scalar == F(0)
    assert exact.is_exact(kt.ricci)


def test_curvature_route_agreement():
    for spec in (lie.kt_spec(1), lie.abelian_spec(1)):
        direct = lie.curvature_tables(spec).riemann
        cartan = lie.curvature_cartan(spec)
        assert all(a == b for a, b in zip(direct.flat, cartan.flat))


def test_nabla_j_route_agreement():
    kt = lie.kt_spec(1)
    assert lie.nabla_j_norm_sq(kt, route="vectors") == F(2)
    assert lie.nabla_j_norm_sq(kt, route="forms") == F(2)
    ab = lie.abelian_spec(1)
    assert lie.nabla_j_norm_sq(ab, route="vectors") == 0
    assert lie.nabla_j_norm_sq(ab, route="forms") == 0
    with pytest.raises(ValueError):
        lie.nabla_j_norm_sq(kt, route="spinors")


def test_float_spec_matches_exact():
    spec = lie.kt_spec()
    fspec = lie.make_frame_spec(
        "kt-float", exact.to_float(spec.c), exact.to_float(spec.j),
        tuple(float(v) for v in spec.lattice_volumes))
    assert not exact.is_exact(fspec.c) and not exact.is_exact(fspec.j)
    ex, fl = lie.curvature_tables(spec), lie.curvature_tables(fspec)
    for name in ("gamma", "riemann", "sectional", "ricci", "scalar",
                 "ricci_anti", "nabla_j_sq", "star_scalar",
                 "hermitian_scalar"):
        want = exact.to_float(getattr(ex, name))
        got = np.asarray(getattr(fl, name), dtype=float)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12, name


def test_abelian_is_flat():
    tab = lie.curvature_tables(lie.abelian_spec(1))
    assert not any(v != 0 for v in tab.riemann.flat)
    assert tab.scalar == 0 and tab.star_scalar == 0


@pytest.mark.parametrize("d, want", [(1, -0.5), (F(1, 4), -0.25),
                                     (F(1, 100), -0.05)])
def test_z_ratio_collapse(d, want):
    assert lie.z_ratio(lie.kt_spec(d)) == pytest.approx(want, abs=1e-15)


def test_structure_validation():
    j = lie.kt_spec(1).j
    good = exact.zeros((4, 4, 4))

    c = exact.zeros((4, 4, 4))
    c[0][1][2], c[1][0][2] = F(1), F(-1)
    c[0][2][0], c[2][0][0] = F(1), F(-1)
    with pytest.raises(ValueError, match="Jacobi"):
        lie.make_frame_spec("bad", c, j, (1, 1, 1, 1))

    c = exact.zeros((4, 4, 4))
    c[0][1][1], c[1][0][1] = F(1), F(-1)
    with pytest.raises(ValueError, match="unimodular"):
        lie.make_frame_spec("bad", c, j, (1, 1, 1, 1))

    c = exact.zeros((4, 4, 4))
    c[1][2][3], c[2][1][3] = F(1), F(-1)
    with pytest.raises(ValueError, match="not closed"):
        lie.make_frame_spec("bad", c, j, (1, 1, 1, 1))

    with pytest.raises(ValueError):
        lie.make_frame_spec("bad", good, np.eye(4), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        lie.make_frame_spec("bad", good, j, (1, 1, 1))
    with pytest.raises(ValueError):
        lie.make_frame_spec("bad", good, j, (1, 1, 1, 0))


def test_serialize_round_trip():
    for spec in (lie.kt_spec(F(1, 3)), lie.abelian_spec(2)):
        text = lie.serialize_frame_spec(spec)
        back = lie.parse_frame_spec(text)
        assert back.name == spec.name
        assert (back.c == spec.c).all()
        assert (back.j == spec.j).all()
        assert back.lattice_volumes == spec.lattice_volumes


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        lie.parse_frame_spec("name broken\ndim 4\n")
    with pytest.raises(ValueError):
        lie.parse_frame_spec("")


KT_TEXT = "name kt\ndim 4\nc 1 2 3 1\nJ 0 0 0 1\nJ 0 0 -1 0\nJ 0 1 0 0\n" \
          "J -1 0 0 0\nvol 1 1 1 1\n"


@pytest.mark.parametrize("old, new, match", [
    ("dim 4", "dim", "line 2: dim needs a value"),
    ("dim 4", "dim four", "line 2: malformed dim value 'four'"),
    ("c 1 2 3 1", "c 1 x 3 1", "line 3: malformed c value"),
    ("c 1 2 3 1", "c 1 2 3 abc", "line 3: malformed c value"),
    ("c 1 2 3 1", "c 1 2 9 1", "line 3: c index 9 out of range 1..4"),
    ("c 1 2 3 1", "c 1 2 3", "line 3: c needs"),
    ("J 0 0 0 1", "J 0 0 0 1/0", "line 4: malformed J value"),
    ("vol 1 1 1 1", "vol 1 1 1 zz", "line 8: malformed vol value"),
    ("vol 1 1 1 1", "vol", "line 8: vol needs a value"),
    ("name kt", "nmae kt", "line 1: unknown key 'nmae'"),
])
def test_parse_errors_name_the_line(old, new, match):
    assert lie.parse_frame_spec(KT_TEXT).name == "kt"
    with pytest.raises(ValueError, match=match):
        lie.parse_frame_spec(KT_TEXT.replace(old, new))


def test_non_finite_data_refused():
    spec = lie.kt_spec()
    for d in (float("nan"), float("inf"), -1.0, 0, True, None, [1], 1j):
        with pytest.raises(ValueError, match="positive and finite"):
            lie.kt_spec(d)
    with pytest.raises(ValueError, match="positive and finite"):
        lie.parse_frame_spec(KT_TEXT.replace("vol 1 1 1 1", "vol 1 1 1 nan"))
    for vol in ("1", None, 1j, True):
        with pytest.raises(ValueError, match="positive and finite"):
            lie.make_frame_spec("bad", spec.c, spec.j, (1, 1, 1, vol))
    for bad in ("c", "j"):
        c, j = exact.to_float(spec.c), exact.to_float(spec.j)
        {"c": c, "j": j}[bad][0, 0, ...] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            lie.make_frame_spec("bad", c, j, (1.0, 1.0, 1.0, 1.0))
    # a huge exact circumference is finite: no float conversion is involved
    assert lie.kt_spec(F(10 ** 400)).lattice_volumes[3] == F(10 ** 400)


def test_koszul_gamma_once_per_tables(monkeypatch):
    calls = []
    real = lie.koszul_gamma
    monkeypatch.setattr(lie, "koszul_gamma",
                        lambda spec: calls.append(1) or real(spec))
    lie.curvature_tables(lie.kt_spec(1))
    assert len(calls) == 1


def _nabla_j_loop(spec):
    """The triple loop over the Koszul formula that nabla_j contracts."""
    gamma, j, m = lie.koszul_gamma(spec), spec.j, spec.dim
    nj = exact.zeros_as(j, (m, m, m))
    for i in range(m):
        for col in range(m):
            for k in range(m):
                lead = sum(gamma[i][p][k] * j[p][col] for p in range(m))
                tail = sum(j[k][p] * gamma[i][col][p] for p in range(m))
                nj[i][k][col] = lead - tail
    return nj


def test_nabla_j_contractions_match_loop():
    spec = lie.kt_spec(F(1, 7))
    fspec = lie.make_frame_spec("kt-float", 0.3 * exact.to_float(spec.c),
                                exact.to_float(spec.j), (1.0, 1.0, 1.0, 0.7))
    for s in (spec, lie.abelian_spec(2), fspec):
        got, want = lie.nabla_j(s), _nabla_j_loop(s)
        assert got.dtype == want.dtype
        assert all(type(a) is type(b) and a == b
                   for a, b in zip(got.flat, want.flat))
