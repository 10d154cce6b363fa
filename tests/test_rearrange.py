"""Circle rearrangement: planning, realization, error and feasibility."""

import tempfile
import tracemalloc
from pathlib import Path

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
    # they are refused by name before any range test or level band; so are
    # complex ones, which no cast to float may silently make real
    nan_f1 = lambda x: np.sqrt(x - 10)      # NaN on the whole circle
    inf_f1 = lambda x: 1 / np.where(x > 3, 0.0, 1.0)
    # one infinite value on the planning sample, off the coarser range sample
    spike = lambda x: np.where(x == 4097 * (TWO_PI / rr._PLAN_SAMPLES),
                               np.inf, 0.0)
    not_finite, complex_ = "is not finite on the circle", "must be real-valued"
    for f, f1, name, what in (
            (f_sin, nan_f1, "f1", not_finite), (nan_f1, f_sin, "f", not_finite),
            (f_sin, inf_f1, "f1", not_finite), (inf_f1, f_zero, "f", not_finite),
            (f_sin, spike, "f1", not_finite),
            (f_sin, lambda x: np.cos(x) * 1j, "f1", complex_),
            (lambda x: 1j, f_zero, "f", complex_)):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=f"^{name} {what}$") as info:
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
                     ({"eps": 0.1, "max_arcs": 8.0}, "max_arcs"),
                     ({"eps": True}, "eps"), ({"eps": 0.1, "p": True}, "p")):
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
    # 0.5 cos x turns as often as sin, so only its oscillation limits the
    # plan: at eps 0.1 it needs 256 arcs, which a cap of 4 is told, and a
    # cap of 256 plans
    f1 = lambda x: 0.5 * np.cos(x)
    with pytest.raises(rr.PlanError, match="raise max_arcs") as info:
        rr.build_plan(f_sin, f1, eps=0.1, max_arcs=4)
    assert info.value.required_cap == 256 and info.value.reason is None
    assert len(rr.build_plan(f_sin, f1, eps=0.1, max_arcs=256).arcs) == 256


CYCLIC_TARGETS = ((lambda x: np.sin(5 * x), 10),
                  (lambda x: 0.8 * np.sin(20 * x), 40),
                  (lambda x: 0.5 * np.sin(2 * x), 4),
                  (lambda x: 0.5 * np.cos(2 * x), 4))


def test_order_incompatible_target_is_refused():
    # each target turns more often per lap than sin: a circle diffeomorphism
    # keeps cyclic order, so no partition helps and no cap is named
    for f1, turns in CYCLIC_TARGETS:
        for max_arcs in (4, 4096, 16384):
            with pytest.raises(rr.PlanError, match=(
                    f"^f1 turns {turns} times per lap by more than "
                    r"0\.0\d+ and f only 2 times: .*no partition can ")) \
                    as info:
                rr.build_plan(f_sin, f1, eps=0.1, max_arcs=max_arcs)
            assert info.value.reason == "cyclic-order"
            assert info.value.required_cap is None


def _reason(*case):
    """build_plan's refusal reason on case, "" for other PlanErrors and
    None for a plan."""
    try:
        rr.build_plan(*case)
    except rr.PlanError as e:
        return e.reason or ""
    return None


def test_cyclic_order_refuses_only_what_the_sweep_refuses(monkeypatch):
    # with the check bypassed, every sweep case it refuses at eps 0.1 still
    # fails, in the oscillation refinement or the source sweep
    with tempfile.TemporaryDirectory() as tmp:
        fields = _sweep_fields(tmp)
    cases = [(fields[f], fields[f1], *rest) for f, f1, *rest in SWEEP_CASES
             if rest == [0.1, 2.0, 4096]]
    refused = [case for case in cases if _reason(*case) == "cyclic-order"]
    assert len(refused) == 24
    monkeypatch.setattr(rr, "_turns", lambda v, swing: 0)
    assert [_reason(*case) for case in refused] == [""] * len(refused)


def test_turn_count_matches_pair_removal():
    # reference: drop flat steps, keep the strict turns, then remove the
    # adjacent pair of least swing while it is at most the threshold
    def removal(v, swing):
        vals = [a for k, a in enumerate(v) if a != v[k - 1]] or [v[0]]
        m = len(vals)
        peaks = [vals[k] for k in range(m)
                 if (vals[k] - vals[k - 1]) * (vals[(k + 1) % m] - vals[k]) < 0]
        while len(peaks) >= 2:
            gaps = [abs(peaks[(k + 1) % len(peaks)] - peaks[k])
                    for k in range(len(peaks))]
            k = int(np.argmin(gaps))
            if gaps[k] > swing or len(peaks) == 2:
                return len(peaks) if gaps[k] > swing else 0
            for j in sorted((k, (k + 1) % len(peaks)), reverse=True):
                del peaks[j]
        return len(peaks)

    rng = np.random.default_rng(3)
    for case in range(400):
        v = rng.standard_normal(int(rng.integers(3, 30)))
        if case % 2:
            v = np.round(3 * v) / 3            # flat steps and plateaus
        swing = float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0]))
        assert rr._turns(v, swing) == removal(list(v), swing)


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

    # 512 is the first doubling at which the per-bin oscillation fits, and
    # the count a cap of 256 is told
    assert max_osc(256) >= 0.9 * plan.delta > max_osc(512)
    with pytest.raises(rr.PlanError) as info:
        rr.build_plan(f_sin, lambda x: 0.3 * np.cos(x), eps=0.05, max_arcs=256)
    assert info.value.required_cap == 512 and info.value.reason is None


def _walk_source_window(fx, x, level, tol, start, stop):
    """Sample-by-sample reference for rr._source_window, on angles."""
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
        # four laps hold every lifted index up to 7 pi
        run = rr._source_window(np.tile(fx, 4), level, tol,
                                *rr._lifted_span(start, stop, n))
        got = run and tuple(x[0] + i * (TWO_PI / n) for i in run)
        assert got == _walk_source_window(fx, x, level, tol, start, stop)


def _chunked_source_window(fx, x, level, tol, start, stop):
    """Reference for rr._source_window on angles: each chunk gathers its
    lifted samples through np.arange(a, b) % n."""
    n = len(x)
    i0 = int(np.ceil(start / TWO_PI * n))
    i1 = int(np.floor(stop / TWO_PI * n))
    first = None
    a, size = i0, 64
    while a <= i1:
        b = min(a + size + 1, i1 + 1)
        ok = np.abs(fx[np.arange(a, b) % n] - level) < tol
        if first is None:
            pairs = np.flatnonzero(ok[:-1] & ok[1:])
            if len(pairs):
                first = a + int(pairs[0])
        if first is not None:
            seek = max(first, a)
            ends = np.flatnonzero(~ok[seek - a:])
            if len(ends):
                last = seek + int(ends[0]) - 1
                break
        a, size = a + size, 2 * size
    else:
        if first is None:
            return None
        last = i1
    return x[0] + first * (TWO_PI / n), x[0] + last * (TWO_PI / n)


def _whole_lap_sources(f, fx, levels, tol, max_arcs):
    """Reference for rr._allocate_sources: chunked windows on the plan
    samples and, after a miss, on f sampled 16 times more finely over the
    whole lap, once per plan."""
    n = len(fx)
    x = np.arange(n) * (TWO_PI / n)
    n_arcs = len(levels)
    sources = []
    cursor = 0.0
    gap = 1e-4 * TWO_PI / n_arcs
    x_fine = fx_fine = None
    for k, level in enumerate(levels):
        limit = TWO_PI + (sources[0][0] if sources else 0.0)
        win = _chunked_source_window(fx, x, level, tol, cursor, limit)
        if win is None:
            if x_fine is None:
                x_fine = np.arange(16 * n) * (TWO_PI / (16 * n))
                fx_fine = rr._sample(f, "f", x_fine)
            win = _chunked_source_window(fx_fine, x_fine, level, tol,
                                         cursor, limit)
        if win is None:
            raise rr.PlanError(
                f"no source interval for arc {k} (level {level:.6g}) "
                f"in cyclic order; the target geometry needs a finer "
                f"partition than max_arcs={max_arcs}", required_cap=2 * n_arcs)
        lo, hi = win
        width = hi - lo
        take = max(0.25 * width, 1e-7)
        remaining = n_arcs - k
        fair = (limit - lo - remaining * gap) / (remaining + 1)
        if 0 < fair < take:
            take = max(fair, 1e-9)
        hi = min(lo + min(width, take), limit)
        sources.append((lo, hi))
        cursor = hi + gap
    return sources


def _noise(seed=0, count=4096):
    """f interpolated periodically from uniform draws on [-1, 1]."""
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
    grid = np.arange(count) * (TWO_PI / count)
    return lambda x: np.interp(np.asarray(x) % TWO_PI, grid, vals,
                               period=TWO_PI)


# the parent-comparison sweep: every f with every f1 at three eps (p = 2),
# then at p = 3, at p = 1.5 under a 64-arc cap and at eps 0.05 under a
# 16384-arc cap; names resolve through _sweep_fields
SWEEP_F = ("sin", "sin^3", "cos+0.2sin3x", "noise", "csv")
SWEEP_F1 = ("0.3cos", "0", "0.5cos(x+1)-0.2", "0.4cos(x-2)+0.3",
            "0.5sin2x", "0.5cos2x", "0.7cos3x", "sin5x", "0.8sin20x",
            "0.1sin9x")
SWEEP_CASES = tuple(
    (f, f1, eps, p, cap) for f in SWEEP_F for f1 in SWEEP_F1
    for eps, p, cap in ((0.2, 2.0, 4096), (0.1, 2.0, 4096),
                        (0.05, 2.0, 4096), (0.1, 3.0, 4096),
                        (0.1, 1.5, 64), (0.05, 2.0, 16384)))


def _sweep_fields(tmp):
    """Callables of the SWEEP_F and SWEEP_F1 names; the CSV field is sin^3
    at 64 samples, read by the CLI's parser from a file in tmp."""
    from akscal import cli
    csv = Path(tmp) / "samples.csv"
    np.savetxt(str(csv), np.sin(np.arange(64) * (TWO_PI / 64)) ** 3,
               delimiter=",")
    return {
        "sin": np.sin, "sin^3": lambda x: np.sin(x) ** 3,
        "cos+0.2sin3x": lambda x: np.cos(x) + 0.2 * np.sin(3 * x),
        "noise": _noise(), "csv": cli._parse_field(str(csv)),
        "0.3cos": lambda x: 0.3 * np.cos(x), "0": f_zero,
        "0.5cos(x+1)-0.2": lambda x: 0.5 * np.cos(x + 1) - 0.2,
        "0.4cos(x-2)+0.3": lambda x: 0.4 * np.cos(x - 2) + 0.3,
        "0.5sin2x": lambda x: 0.5 * np.sin(2 * x),
        "0.5cos2x": lambda x: 0.5 * np.cos(2 * x),
        "0.7cos3x": lambda x: 0.7 * np.cos(3 * x),
        "sin5x": lambda x: np.sin(5 * x),
        "0.8sin20x": lambda x: 0.8 * np.sin(20 * x),
        "0.1sin9x": lambda x: 0.1 * np.sin(9 * x)}


def sweep_outcome(f, f1, eps, p, max_arcs):
    """All a run fixes (arcs, sources, collar width, node map, error and
    least derivative) or its refusal's type, message, cap and reason."""
    try:
        phi, err, plan = rr.rearrange(f, f1, eps, p, max_arcs)
    except rr.PlanError as e:
        return type(e).__name__, str(e), e.required_cap, e.reason
    arcs = [(a.lo, a.hi, a.center, a.level) for a in plan.arcs]
    return (np.array(arcs).tolist(), np.array(plan.sources).tolist(),
            plan.collar_width, phi.nodes_from.tolist(), phi.nodes_to.tolist(),
            err, phi.min_derivative())


def sweep_outcomes(cases=SWEEP_CASES):
    """sweep_outcome of each case, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        fields = _sweep_fields(tmp)
        return [sweep_outcome(fields[f], fields[f1], *rest)
                for f, f1, *rest in cases]


def _plan_or_refusal(f, f1, eps, p, max_arcs):
    try:
        plan = rr.build_plan(f, f1, eps, p, max_arcs)
    except rr.PlanError as e:
        return type(e), str(e), e.required_cap, e.reason
    return plan.arcs, plan.sources, plan.collar_width


def test_sweep_matches_whole_lap_reference(monkeypatch, tmp_path):
    # plans and refusals of the sliver sweep equal the reference's; the
    # cases miss the plan samples near the lap limit (0.3 cos), at the first
    # arc (f1 = 0 at eps 0.001), refuse in cyclic order (sin 5x, cos 2x) and
    # read f from CSV samples and interpolated noise
    from akscal import cli
    csv = tmp_path / "samples.csv"
    np.savetxt(str(csv), np.sin(np.arange(64) * (TWO_PI / 64)) ** 3,
               delimiter=",")
    f_csv, noise = cli._parse_field(str(csv)), _noise()
    cos3 = lambda x: 0.3 * np.cos(x)
    cases = [(f_sin, cos3, eps, 2.0, 4096) for eps in (0.2, 0.1, 0.05)]
    cases += [(f_sin, cos3, 0.05, 3.0, 4096), (f_sin, cos3, 0.1, 1.5, 4096),
              (f_sin, cos3, 0.05, 2.0, 256),
              (f_sin, lambda x: 0.5 * np.cos(x), 0.1, 2.0, 4096),
              (f_sin, f_zero, 0.001, 2.0, 4096),
              (f_sin, f_zero, 0.0005, 3.0, 4096),
              (f_sin, lambda x: 0.25, 0.002, 2.0, 4096),
              (f_sin, lambda x: 0.25, 0.002, 3.0, 4096),
              (f_sin, lambda x: np.sin(5 * x), 0.1, 2.0, 4096),
              (f_sin, lambda x: 0.5 * np.cos(2 * x), 0.1, 2.0, 4096),
              (f_sin, lambda x: 0.7 * np.cos(3 * x), 0.1, 2.0, 4096),
              (f_sin, f_sin, 0.2, 2.0, 4096),
              (lambda x: np.sin(x) ** 3, lambda x: 0.4 * np.sin(x + 1), 0.1,
               2.0, 4096),
              (f_csv, cos3, 0.1, 2.0, 4096), (f_csv, f_zero, 0.05, 3.0, 4096),
              (lambda x: np.cos(x) + 0.2 * np.sin(3 * x),
               lambda x: 0.3 * np.sin(x), 0.05, 2.0, 4096),
              (noise, cos3, 0.05, 2.0, 4096), (noise, f_zero, 0.5, 2.0, 4096),
              (noise, lambda x: 0.1 * np.cos(x), 0.5, 3.0, 4096),
              (noise, lambda x: 0.5 * np.sin(40 * x), 0.5, 2.0, 4096),
              (noise, lambda x: 0.9 * np.sin(9 * x), 0.3, 2.0, 4096)]
    for case in cases:
        got = _plan_or_refusal(*case)
        with monkeypatch.context() as m:
            m.setattr(rr, "_allocate_sources", _whole_lap_sources)
            assert got == _plan_or_refusal(*case)


def _bump_node_phi(phi, x, t):
    """phi_t as the 48-node discrete mollification, one np.interp of the
    lifted node map per bump node: the reference for the closed form."""
    laps = np.floor(x / TWO_PI)
    base = x - laps * TWO_PI
    sm = np.interp(base[..., None] - phi._qs, phi._xl, phi._yl) @ phi._qw
    return base + t * (sm - base) + laps * TWO_PI


def _bump_node_slopes(phi, x):
    """Slope of the lifted node map at x - s_q for every bump node s_q, the
    slope of the right-hand piece on a node."""
    y = (x % TWO_PI)[..., None] - phi._qs
    idx = np.clip(np.searchsorted(phi._xl, y, side="right") - 1,
                  0, len(phi._slopes) - 1)
    return phi._slopes[idx]


def test_closed_form_matches_bump_node_reference():
    # phi and phi' in closed form equal the per-bump-node sums to a few
    # ulps of the lifted coordinates, times the local slope, at random
    # points, inside the smoothing windows and on the nodes
    rng = np.random.default_rng(3)
    for target, eps in ((lambda x: 0.3 * np.cos(x), 0.1), (f_zero, 0.05)):
        phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=eps))
        r = 0.5 * phi.smoothing
        nodes = phi.nodes_from
        windows = (nodes[:, None] + r * np.linspace(-1.2, 1.2, 49)).ravel()
        for x in (rng.uniform(-TWO_PI, 2 * TWO_PI, (63, 65)), windows,
                  nodes, nodes + TWO_PI, np.float64(nodes[3])):
            slopes = _bump_node_slopes(phi, x)
            steep = slopes.max(axis=-1)
            for t in (0.5, 1.0):
                want = _bump_node_phi(phi, x, t)
                tol = 4 * np.spacing(np.abs(x) + np.abs(want) + TWO_PI) * (
                    1.0 + t * steep)
                assert np.all(np.abs(phi(x, t) - want) <= tol)
                want = (1.0 - t) + t * (slopes @ phi._qw)
                tol = 4 * np.spacing((1.0 - t) + t * steep)
                assert np.all(np.abs(phi.derivative(x, t) - want) <= tol)
            # phi_1' is a convex combination of the slopes its window
            # reaches and never rounds outside them
            d1 = phi.derivative(x, 1.0)
            assert np.all((slopes.min(axis=-1) <= d1) & (d1 <= steep))
    assert phi(np.zeros(0)).shape == phi.derivative(np.zeros(0)).shape == (0,)


def test_bump_rule_computed_once():
    # the scaled nodes and weights equal a fresh 48-node rule's, bit for bit
    rr._legendre_rule.cache_clear()
    for radius in (1e-7, 0.01, 0.3):
        nodes, weights = np.polynomial.legendre.leggauss(48)
        s = nodes * radius
        vals = np.exp(-1.0 / (1.0 - (s / radius) ** 2))
        wts = weights * radius * vals
        got = rr._bump_quadrature(radius)
        assert np.array_equal(got[0], s)
        assert np.array_equal(got[1], wts / wts.sum())
    assert rr._legendre_rule.cache_info().misses == 1


def test_error_does_not_depend_on_block_size(monkeypatch):
    # each piece is summed along its own row and the pieces once at the
    # end, so one piece per phi call, two, or 38 give the same bits
    target = lambda x: 0.3 * np.cos(x)
    phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=0.05))
    assert len(phi.nodes_from) > rr._ERROR_BLOCK // 26
    for p in (2.0, 3.0):
        want = rr.rearrange_error(f_sin, target, phi, p)
        for block in (1, 65, 1000):
            monkeypatch.setattr(rr, "_ERROR_BLOCK", block)
            assert rr.rearrange_error(f_sin, target, phi, p) == want
            monkeypatch.undo()


def test_error_converges_on_bench_plans(monkeypatch):
    # on sin -> 0.3 cos and sin -> 0 at three eps the error is within 1e-4
    # (relative) of the same rule with 16 times the panels on every core and
    # window; the zero-target values converge to 0.0516729, 0.0261787 and
    # 0.0135146, where 32 Simpson panels across each piece gave 0.0546,
    # 0.0314 and 0.0218
    cos3 = lambda x: 0.3 * np.cos(x)
    converged = {0.2: 0.0516729, 0.1: 0.0261787, 0.05: 0.0135146}
    for target, eps in [(t, e) for t in (cos3, f_zero) for e in converged]:
        phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=eps))
        err = rr.rearrange_error(f_sin, target, phi)
        with monkeypatch.context() as m:
            m.setattr(rr, "_CORE_PANELS", 16 * rr._CORE_PANELS)
            m.setattr(rr, "_WINDOW_PANELS", 16 * rr._WINDOW_PANELS)
            ref = rr.rearrange_error(f_sin, target, phi)
        assert abs(err - ref) <= 1e-4 * ref
        if target is f_zero:
            assert ref == pytest.approx(converged[eps], rel=1e-5)


def test_error_pass_memory_stays_flat():
    # phi, f and f1 see one block of about 4096 nodes at a time: the traced
    # peak of the eps 0.05 error pass (1024 pieces) stays under 1 MiB
    target = lambda x: 0.3 * np.cos(x)
    phi = rr.realize_diffeo(rr.build_plan(f_sin, target, eps=0.05))
    tracemalloc.start()
    rr.rearrange_error(f_sin, target, phi)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 ** 20


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
    for nodes in (([0, 1], [0, np.nan]), ([np.inf, 1], [0, 1])):
        with pytest.raises(ValueError, match="^nodes must be finite$"):
            rr.PiecewiseDiffeo(*nodes)


def test_node_maps_a_lap_apart_give_one_map():
    # (x_j, y_j) and (x_j + 2 pi k, y_j + 2 pi k) define one circle map,
    # wherever the first node sits; 7 -> 7, 8 -> 9 sends 0.3 along the
    # piece from (8 - 4 pi, 9 - 4 pi) to (7 - 2 pi, 7 - 2 pi)
    phi = rr.PiecewiseDiffeo([7.0, 8.0], [7.0, 9.0])
    slope = (TWO_PI - 2.0) / (TWO_PI - 1.0)
    want = 7.0 - TWO_PI + slope * (0.3 - 7.0 + TWO_PI)
    assert phi(0.3) == pytest.approx(want, abs=1e-14)
    assert phi.derivative(0.3) == pytest.approx(slope, abs=1e-14)
    xf, yt = np.array([0.5, 1.0, 3.0, 5.5]), np.array([0.2, 1.5, 2.0, 6.0])
    phi = rr.PiecewiseDiffeo(xf, yt)
    x = np.linspace(-7.0, 13.0, 20001)
    for k in (-2, -1, 1, 3):
        moved = rr.PiecewiseDiffeo(xf + k * TWO_PI, yt + k * TWO_PI)
        assert np.allclose(moved(x), phi(x), rtol=0, atol=1e-14)
        assert np.allclose(moved.derivative(x), phi.derivative(x), rtol=0,
                           atol=1e-14)


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


if __name__ == "__main__":
    # python tests/test_rearrange.py OTHER_SRC runs SWEEP_CASES under the
    # akscal on the path and under the one in OTHER_SRC (say, a checkout of
    # the parent commit) and prints the SHA-256 of both pickled outcome
    # lists.  It exits 1 unless every outcome matches, but for cyclic-order
    # refusals here of what OTHER_SRC refused with a PlanError too.
    import hashlib
    import os
    import pickle
    import subprocess
    import sys

    if sys.argv[1:] == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(sweep_outcomes()))
        sys.exit(0)
    other = subprocess.run(
        [sys.executable, __file__, "--dump"], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": sys.argv[1]}).stdout
    here = pickle.dumps(sweep_outcomes())
    changed = bad = 0
    for case, old, new in zip(SWEEP_CASES, pickle.loads(other),
                              pickle.loads(here)):
        if old != new:
            changed += 1
            if not (new[-1] == "cyclic-order" and old[0] == "PlanError"):
                bad += 1
                print("changed:", case, old[:2], new[:2])
    for name, blob in ((sys.argv[1], other), ("here", here)):
        print(f"{hashlib.sha256(blob).hexdigest()}  {name}")
    print(f"{len(SWEEP_CASES)} cases, {changed} now refused for cyclic order, "
          f"{bad} other changes")
    sys.exit(1 if bad else 0)
