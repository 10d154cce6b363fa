"""Circle rearrangement: planning, realization, error and feasibility."""

import numpy as np
import pytest

from akscal import rearrange as rr

TWO_PI = 2 * np.pi


def f_sin(x):
    return np.sin(x)


def f_zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_build_plan_refuses_exactly_the_range_escapes():
    for f, f1 in ((f_sin, lambda x: 2.0 + 0 * x), (f_zero, f_sin)):
        with pytest.raises(rr.PlanError) as info:
            rr.build_plan(f, f1, eps=0.1)
        assert info.value.reason == "range"
    # in range: 0.7 cos 3x is refused, but for its cyclic order, not range
    for f1 in (f_zero, lambda x: 0.7 * np.cos(3 * x)):
        try:
            rr.build_plan(f_sin, f1, eps=0.1)
        except rr.PlanError as e:
            assert e.reason != "range"


def test_non_finite_fields_refused_by_name():
    # NaN or infinite samples are neither in nor out of the range of f, so
    # they are refused by name before any range test or level band
    nan_f1 = lambda x: np.sqrt(x - 10)      # NaN on the whole circle
    inf_f1 = lambda x: 1 / np.where(x > 3, 0.0, 1.0)
    # one infinite value on the planning sample, off the coarser range sample
    spike = lambda x: np.where(x == 4097 * (TWO_PI / rr._PLAN_SAMPLES),
                               np.inf, 0.0)
    for f, f1, name in ((f_sin, nan_f1, "f1"), (nan_f1, f_sin, "f"),
                        (f_sin, inf_f1, "f1"), (inf_f1, f_zero, "f"),
                        (f_sin, spike, "f1")):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError,
                               match=f"^{name} is not finite on the circle"
                               ) as info:
                rr.build_plan(f, f1, eps=0.1)
        assert not isinstance(info.value, rr.PlanError)


def test_build_plan_validates_inputs():
    with pytest.raises(ValueError):
        rr.build_plan(f_sin, f_zero, eps=0.0)
    with pytest.raises(ValueError):
        rr.build_plan(f_sin, f_zero, eps=0.1, p=1.0)
    with pytest.raises(ValueError):
        rr.build_plan(f_sin, lambda x: 3.0 + 0 * x, eps=0.1)
    for kw, name in (({"eps": np.inf}, "eps"), ({"eps": np.nan}, "eps"),
                     ({"eps": 0.1, "p": np.inf}, "p"),
                     ({"eps": 0.1, "p": np.nan}, "p"),
                     ({"eps": 0.1, "max_arcs": 2}, "max_arcs"),
                     ({"eps": 0.1, "max_arcs": -5}, "max_arcs"),
                     ({"eps": 0.1, "max_arcs": 8.0}, "max_arcs")):
        with pytest.raises(ValueError, match=f"^{name} must be ") as info:
            rr.build_plan(f_sin, f_zero, **kw)
        assert not isinstance(info.value, rr.PlanError)
    assert len(rr.build_plan(f_sin, f_zero, eps=0.3, max_arcs=4).arcs) == 4


def test_non_callable_fields_and_non_real_parameters_refused_by_name():
    for kw, pattern in (({"f": 1.0}, "^f must be a callable"),
                        ({"f1": "cos"}, "^f1 must be a callable"),
                        ({"eps": "a"}, "^eps must be finite and positive"),
                        ({"eps": None}, "^eps must be finite and positive"),
                        ({"p": 1j}, "^p must be finite and exceed 1")):
        args = {"f": f_sin, "f1": f_zero, "eps": 0.1, **kw}
        with pytest.raises(ValueError, match=pattern) as info:
            rr.build_plan(**args)
        assert not isinstance(info.value, rr.PlanError)


def test_scalar_valued_fields_are_broadcast():
    # a field that ignores its angles still gets one sample per angle, as on
    # the grid; its plan and error match the array-valued field's
    want = rr.rearrange(f_sin, f_zero, 0.1)
    got = rr.rearrange(f_sin, lambda x: 0.0, 0.1)
    assert got[2] == want[2] and got[1] == want[1]
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(lambda x: 0.5, f_sin, eps=0.1)
    assert info.value.reason == "range"


def test_large_p_refused_by_name():
    # eps^p underflows at p = 700, and bound^p overflows a float at p = 3000;
    # either way the collar width is 0 and the plan is refused by name
    f1 = lambda x: 0.3 * np.cos(x)
    for p in (700.0, 3000.0):
        with pytest.raises(rr.PlanError, match=f"p={p:g} is too large") as info:
            rr.build_plan(f_sin, f1, eps=0.1, p=p)
        assert "underflows" in str(info.value) and info.value.required_cap is None
    # below the float range only the ratio eps/bound matters: bound^p
    # underflows here, yet the collar width is positive, within budget and
    # resolved at every arc end, so the plan realizes
    plan = rr.build_plan(lambda x: 0.1 * np.sin(x),
                         lambda x: 0.001 * np.cos(x), eps=0.1, p=400.0)
    assert plan.bound ** plan.p == 0 and plan.budget_ok()
    assert 0 < plan.collar_width < 1e-3
    rr.realize_diffeo(plan)
    # f = f1 = 0 spends nothing on collars
    plan = rr.build_plan(f_zero, f_zero, eps=0.1)
    assert plan.bound == 0 and plan.budget_ok()


def test_collar_below_float_resolution_refused_by_name():
    # at eps 0.1 the collar width of sin -> 0.3 cos falls below the spacing
    # of floats near 2 pi from p = 12 on: an arc end plus the width is the
    # end again, and the plan is refused naming the width and p
    f1 = lambda x: 0.3 * np.cos(x)
    rr.realize_diffeo(rr.build_plan(f_sin, f1, eps=0.1, p=11.0))
    for p in (12.0, 15.0, 250.0):
        with pytest.raises(rr.PlanError, match=f"p={p:g} is too large") as info:
            rr.build_plan(f_sin, f1, eps=0.1, p=p)
        assert "below the float resolution" in str(info.value)
        assert info.value.required_cap is None
    with pytest.raises(rr.PlanError, match="collar width 5.49e-20"):
        rr.build_plan(f_sin, f1, eps=0.1, p=15.0)
    # a positive collar in budget is not enough: 1e-47 is lost against 2 pi
    with pytest.raises(rr.PlanError, match="below the float resolution"):
        rr.build_plan(lambda x: 0.1 * np.sin(x), lambda x: 0.03 * np.cos(x),
                      eps=0.1, p=400.0)


def test_plan_cap_reported_when_arcs_run_out():
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(f_sin, lambda x: np.sin(5 * x), eps=0.01, max_arcs=4)
    assert info.value.required_cap > 4


def test_order_incompatible_target_is_refused():
    # 0.5 cos(2x) runs through its range twice per lap; a degree-one monotone
    # reparametrization of sin cannot follow, so planning must fail
    with pytest.raises(rr.PlanError):
        rr.build_plan(f_sin, lambda x: 0.5 * np.cos(2 * x), eps=0.1)


def test_plan_geometry():
    plan = rr.build_plan(f_sin, f_zero, eps=0.1)
    assert plan.eps == 0.1 and plan.budget_ok()
    # arcs tile the circle without gaps
    arcs = plan.arcs
    assert arcs[0].lo == 0.0
    for a, b in zip(arcs, arcs[1:]):
        assert b.lo == pytest.approx(a.hi)
    assert arcs[-1].hi == pytest.approx(TWO_PI)
    # every arc's level is attainable by f and close to the target on the arc
    for a in arcs:
        assert -1.0 <= a.level <= 1.0
        assert abs(a.level - 0.0) <= plan.delta
    # one source interval per arc, pairwise disjoint mod 2 pi, forward order
    assert len(plan.sources) == len(arcs)
    starts = np.array([u for u, v in plan.sources])
    widths = np.array([v - u for u, v in plan.sources])
    assert (widths > 0).all()
    lifted = np.unwrap(np.mod(starts, TWO_PI), period=TWO_PI)
    # cyclic forward sweep: unwrapped starts increase within one lap
    assert (np.diff(starts) > 0).all()
    assert starts[-1] + widths[-1] <= starts[0] + TWO_PI + 1e-12
    del lifted


def test_sources_hit_their_levels():
    # one oscillation per lap: cyclically order-compatible with sin
    plan = rr.build_plan(f_sin, lambda x: 0.5 * np.cos(x), eps=0.1)
    for arc, (u, v) in zip(plan.arcs, plan.sources):
        mid = np.linspace(u, v, 9)
        # the whole source window stays inside the level band (bulk budget)
        assert np.max(np.abs(f_sin(mid) - arc.level)) < 0.9 * plan.delta + 1e-12


def test_identity_at_time_zero():
    plan = rr.build_plan(f_sin, f_zero, eps=0.2)
    phi = rr.realize_diffeo(plan)
    xs = np.linspace(0, TWO_PI, 257)
    assert np.array_equal(phi(xs, 0.0), xs)


def test_isotopy_is_monotone_and_invertible():
    plan = rr.build_plan(f_sin, f_zero, eps=0.1)
    phi = rr.realize_diffeo(plan)
    xs = np.linspace(0, TWO_PI, 4001)
    for t in (0.25, 0.5, 0.75, 1.0):
        assert phi.min_derivative(t) > 0
        vals = phi(xs, t)
        assert (np.diff(vals) > 0).all()
        back = phi.inverse(vals, t)
        assert np.max(np.abs(back - xs)) < 1e-6


def test_min_derivative_is_exact():
    # sampled reference: the derivative on a dense grid plus the nodes
    cases = [(f_zero, 0.1), (lambda x: 0.3 * np.cos(x), 0.05)]
    for target, eps in cases:
        phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=eps))
        xs = np.concatenate([np.arange(200000) * (TWO_PI / 200000),
                             phi.nodes_from % TWO_PI])
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            scan = float(phi.derivative(xs, t).min())
            exact_min = phi.min_derivative(t)
            assert exact_min <= scan
            assert scan - exact_min <= 1e-15


def test_plan_batched_matches_per_arc_reference():
    samples = 16384
    plan = rr.build_plan(f_sin, lambda x: 0.3 * np.cos(x), eps=0.05)
    assert len(plan.arcs) == 512
    x = np.arange(samples) * (TWO_PI / samples)
    gx = 0.3 * np.cos(x)
    fx = f_sin(x)
    for arc in plan.arcs:
        level = float(np.clip(np.interp(arc.center, x, gx, period=TWO_PI),
                              fx.min(), fx.max()))
        assert arc.level == level

    def max_osc(count):
        edges = np.linspace(0.0, TWO_PI, count + 1)
        return max(float(np.ptp(gx[(x >= lo) & (x < hi)]))
                   for lo, hi in zip(edges[:-1], edges[1:]))

    # 512 is the first doubling at which the per-bin oscillation fits
    assert max_osc(256) >= 0.9 * plan.delta > max_osc(512)
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(f_sin, lambda x: 0.8 * np.sin(20 * x), eps=0.1)
    assert info.value.required_cap == 8192


def _walk_source_window(fx, x, level, tol, start, stop):
    """Sample-by-sample reference for rr._source_window."""
    n = len(x)
    ok = np.abs(fx - level) < tol
    i0 = int(np.ceil(start / TWO_PI * n))
    i1 = int(np.floor(stop / TWO_PI * n))
    i = i0
    while i <= i1:
        if ok[i % n]:
            j = i
            while j + 1 <= i1 and ok[(j + 1) % n]:
                j += 1
            if j > i:
                return x[0] + i * (TWO_PI / n), x[0] + j * (TWO_PI / n)
            i = j + 1
        i += 1
    return None


def test_source_window_matches_sample_walk():
    # runs that cross chunk seams, laps and the window's end, single-sample
    # runs that must be skipped, and empty windows
    rng = np.random.default_rng(7)
    for case in range(600):
        n = int(rng.choice([16, 64, 257, 1024]))
        x = np.arange(n) * (TWO_PI / n)
        fx = (np.sin(x * int(rng.integers(1, 6))), 0.3 * rng.standard_normal(n),
              np.round(3 * np.sin(x)) / 3)[case % 3]
        level = float(rng.uniform(-1.1, 1.1))
        tol = float(rng.choice([1e-3, 0.01, 0.1, 0.5, 2.0]))
        start = float(rng.uniform(0.0, 2 * TWO_PI))
        stop = start + float(rng.uniform(0.0, 1.5 * TWO_PI))
        assert rr._source_window(fx, x, level, tol, start, stop) == \
            _walk_source_window(fx, x, level, tol, start, stop)


def test_error_blocks_match_per_piece_simpson():
    # one phi call per block of pieces gives the per-piece sum bit for bit,
    # with 32 two-interval Simpson panels on each piece
    target = lambda x: 0.3 * np.cos(x)
    phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=0.05))
    assert len(phi.nodes_from) > 4096 // 65
    m = 64
    weights = np.ones(m + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for p in (2.0, 3.0):
        edges = np.append(phi.nodes_from, phi.nodes_from[0] + TWO_PI)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            xq = np.linspace(lo, hi, m + 1)
            integrand = np.abs(f_sin(phi(xq) % TWO_PI)
                               - target(xq % TWO_PI)) ** p
            total += (hi - lo) / m / 3.0 * float(weights @ integrand)
        assert rr.rearrange_error(f_sin, target, phi, p) == total ** (1.0 / p)


def test_endpoint_lap_count():
    plan = rr.build_plan(f_sin, f_zero, eps=0.2)
    phi = rr.realize_diffeo(plan)
    # degree one: phi(x + 2 pi) = phi(x) + 2 pi
    xs = np.linspace(0, TWO_PI, 65)
    assert np.allclose(phi(xs + TWO_PI, 1.0), phi(xs, 1.0) + TWO_PI, atol=1e-12)


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_error_meets_target(eps):
    plan = rr.build_plan(f_sin, f_zero, eps=eps)
    phi = rr.realize_diffeo(plan)
    err = rr.rearrange_error(f_sin, f_zero, phi, p=2.0)
    assert err < eps


def test_convenience_pipeline_matches_pieces():
    phi, err, plan = rr.rearrange(f_sin, f_zero, eps=0.1, p=2.0)
    assert err < 0.1
    assert len(plan.arcs) >= 4
    assert rr.rearrange_error(f_sin, f_zero, phi, 2.0) == pytest.approx(err)


def test_self_target_stays_cheap():
    phi, err, plan = rr.rearrange(f_sin, f_sin, eps=0.2, p=2.0)
    assert err < 0.2
    assert phi.min_derivative(1.0) > 0.05  # nearly-trivial move keeps slopes tame


def test_piecewise_diffeo_validation():
    with pytest.raises(ValueError):
        rr.PiecewiseDiffeo(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        rr.PiecewiseDiffeo(np.array([0.0, TWO_PI + 1.0]), np.array([0.0, 1.0]))


def test_range_escape_refused_with_its_bound():
    # f1 = 2 sits 1 above sup sin everywhere: every diffeo misses by
    # 1 * (2 pi)^(1/p); f1 = 1.5 sin escapes by less on part of the circle
    for p in (2.0, 3.0):
        with pytest.raises(rr.PlanError, match="infeasible") as info:
            rr.build_plan(f_sin, lambda x: 2.0 + 0 * x, eps=0.1, p=p)
        assert info.value.reason == "range"
        assert info.value.required_cap is None
        assert info.value.bound == pytest.approx(TWO_PI ** (1 / p), rel=1e-12)
        assert f"{info.value.bound:.4g} in L^{p:g}" in str(info.value)
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(f_sin, lambda x: 1.5 * np.sin(x), eps=0.1)
    assert info.value.reason == "range" and 0 < info.value.bound < 0.5
    # the bound is a true lower bound: the identity misses by more
    x = np.arange(4096) * (TWO_PI / 4096)
    miss = np.sqrt(np.sum((np.sin(x) - 1.5 * np.sin(x)) ** 2) * TWO_PI / 4096)
    assert miss >= info.value.bound
    # other refusals carry no reason
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(f_sin, f_zero, eps=0.1, p=15)
    assert info.value.reason is None and info.value.bound is None
