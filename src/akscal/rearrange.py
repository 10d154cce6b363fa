"""Constructive L^p rearrangement by circle diffeomorphisms.

Given continuous f and a target f1 with inf f <= f1 <= sup f, build an
isotopy of circle diffeomorphisms phi_t, starting at the identity, whose
endpoint pulls f within L^p distance eps of f1.  The construction follows
the classical two-budget split: partition the circle into arcs on which f1
oscillates less than delta, pick for each arc a source interval where f
stays delta-close to the arc's target level, and compress the bulk of each
arc into its source interval, spending at most eps^p/2 of error mass on the
thin transition collars and eps^p/2 on the delta-sized bulk mismatch.

One dimension is the one case with an order obstruction: a circle
diffeomorphism keeps cyclic order, so no partition reaches a target that
turns more often than f.  The Kazdan-Warner lemma has none in dimension >= 2.

Everything is measured on the circle of circumference 2*pi; functions take
angle arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

CIRCLE = 2.0 * math.pi

# margins keep the realized map strictly inside the proof's two eps^p/2
# budgets even after bump smoothing widens the collars by up to 25%
_OSC_MARGIN = 0.9
_COLLAR_FACTOR = 0.36
_DERIVATIVE_FLOOR = 1e-6
_FIRST_ARCS = 4          # the first partition; refinement doubles it
_SCAN_CHUNK = 64         # samples in the first chunk of a source-window scan
_ERROR_BLOCK = 4096      # Simpson nodes per phi call in rearrange_error
_CORE_PANELS = 8         # two-interval Simpson panels per core
_WINDOW_PANELS = 4       # two-interval Simpson panels per smoothing window
_RANGE_SAMPLES = 4096    # samples _range_escape reads
_RANGE_TOL = 1e-9        # slack of the range test at either end
_PLAN_SAMPLES = 16384    # samples the partition and source windows read
_BUMP_NODES = 48         # Gauss-Legendre nodes of the smoothing bump


class PlanError(ValueError):
    """Planning failed; reason names the obstruction ("range": f1 leaves
    [inf f, sup f], bound then the L^p distance by which every
    diffeomorphism misses f1, at least; "cyclic-order": f1 turns more often
    than f), None for the other refusals: no source interval in cyclic
    order, or a p too large for eps."""

    def __init__(self, message: str, reason: Optional[str] = None,
                 bound: Optional[float] = None):
        super().__init__(message)
        self.reason = reason
        self.bound = bound


def check_plan_parameters(eps: float, p: float) -> None:
    """ValueError naming the first of eps, p that no plan accepts: both must
    be finite reals, not bools, with eps > 0 and p > 1."""
    if not (isinstance(eps, numbers.Real) and not isinstance(eps, bool)
            and eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and positive, not {eps}")
    _check_p(p)


def _check_p(p: float) -> None:
    """ValueError unless p is a finite real exceeding 1 (a bool never does)."""
    if not (isinstance(p, numbers.Real) and p > 1 and math.isfinite(p)):
        raise ValueError(f"p must be finite and exceed 1, not {p}")


def _sample_circle(n: int) -> np.ndarray:
    return np.arange(n) * (CIRCLE / n)


def _sample(fn: Callable, name: str, x: np.ndarray) -> np.ndarray:
    """fn at the angles x as floats, a scalar broadcast to every angle;
    ValueError naming fn when it is not callable or a value is complex, NaN
    or infinite, which no range test or level band can judge."""
    if not callable(fn):
        raise ValueError(f"{name} must be a callable of the angle, got {fn!r}")
    v = np.asarray(fn(x))
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real-valued")
    v = np.broadcast_to(np.asarray(v, float), x.shape)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} is not finite on the circle")
    return v


def _range_escape(f: Callable, f1: Callable, p: float) -> float:
    """0 when inf f - tol <= f1 <= sup f + tol on a dense sample, else
    eta * m^(1/p): f o phi has the range of f for every diffeomorphism
    phi, so where f1 leaves that range (measure m, by at least eta) every
    phi misses f1 by at least this much in L^p."""
    x = _sample_circle(_RANGE_SAMPLES)
    fv, gv = _sample(f, "f", x), _sample(f1, "f1", x)
    escaped = (gv < fv.min() - _RANGE_TOL) | (gv > fv.max() + _RANGE_TOL)
    if not escaped.any():
        return 0.0
    excess = np.maximum(gv - fv.max(), fv.min() - gv)
    return float(excess[escaped].min()) * (escaped.mean() * CIRCLE) ** (1.0 / p)


def _turns(v: np.ndarray, swing: float) -> int:
    """Alternating extrema per lap of the cyclic samples v whose swings
    exceed swing (every turn at swing 0): numpy finds the turns of the
    differences, flat runs skipped, and a hysteresis loop over those only
    merges the smaller swings, starting from the highest turn."""
    d = np.diff(v, append=v[:1])
    if not d.all():                    # a plateau turns once, at its end
        v, d = v[d != 0], d[d != 0]
    rising = d > 0
    peaks = v[rising != np.roll(rising, 1)]
    if len(peaks) == 0 or not swing > 0:
        return len(peaks)
    top = int(peaks.argmax())
    turns, ext, falling = 0, float(peaks[top]), True
    for val in np.roll(peaks, -top).tolist()[1:] + [ext]:
        if val < ext if falling else val > ext:
            ext = val
        elif abs(val - ext) > swing:
            turns, ext, falling = turns + 1, val, not falling
    return turns + (not falling)


@dataclass(frozen=True)
class Arc:
    lo: float
    hi: float
    center: float
    level: float          # f1 at the chosen point, the arc's target value

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class RearrangementPlan:
    arcs: tuple            # partition arcs, cyclic order, cover [0, 2pi)
    sources: tuple         # (u_i, v_i) lifted source intervals, same order
    delta: float
    eps: float
    p: float
    collar_width: float    # half-width w of each transition zone
    bound: float           # max|f| + max|f1|

    @property
    def collar_length(self) -> float:
        return 2.0 * self.collar_width * len(self.arcs)

    def budget_ok(self) -> bool:
        """bound^p * collar_length < eps^p / 2 with positive collars, in
        logarithms: for large p a power leaves the float range."""
        if not self.collar_width > 0:
            return False
        return self.bound == 0 or math.log(self.collar_length) < (
            math.log(0.5) + self.p * (math.log(self.eps) - math.log(self.bound)))


def _lifted_span(start: float, stop: float, n: int) -> tuple:
    """Lifted indices (i0, i1) of the first and last of the n samples per
    lap that lie in [start, stop]: lifted index i is sample i % n on lap
    i // n, at the angle i * 2 pi / n."""
    return math.ceil(start / CIRCLE * n), math.floor(stop / CIRCLE * n)


def _source_window(fs: np.ndarray, level: float, tol: float, i0: int,
                   i1: int):
    """(first, last): the first maximal run of {|fs - level| < tol} inside
    fs[i0:i1 + 1], scanning forward from i0.  None if there is none.

    The band is tested on slices that double in size from the cursor on,
    so a search costs about the length of the run it finds, not the length
    of fs.  A run of a single sample is no interval and is skipped.
    """
    first = None                       # start of the run, once found
    a, size = i0, _SCAN_CHUNK
    while a <= i1:
        # the slice reaches one sample past [a, a + size) so that a pair
        # straddling the seam is seen; the next slice starts at a + size
        ok = np.abs(fs[a:min(a + size + 1, i1 + 1)] - level) < tol
        if first is None:
            pairs = (ok[:-1] & ok[1:]).nonzero()[0]
            if len(pairs):
                first = a + int(pairs[0])
        if first is not None:
            seek = max(first, a)
            ends = (~ok[seek - a:]).nonzero()[0]
            if len(ends):
                return first, seek + int(ends[0]) - 1
        a, size = a + size, 2 * size
    return None if first is None else (first, i1)


def _allocate_sources(f: Callable, fx: np.ndarray, levels: list,
                      tol: float) -> list:
    """Source intervals (u, v) for the arcs at these levels, in one forward
    sweep around the target circle: each starts after the previous one
    ends, and the lap must close within 2*pi of the first.

    fx holds f at the n plan samples.  Where no two adjacent ones fit a
    level's band, f is sampled 16 times more finely on the rest of the lap
    only, [cursor, limit]; later arcs reuse that sliver, which holds every
    window they scan unless the miss came at the first arc (whose limit is
    the shorter lap 2*pi).
    """
    n, n_fine = len(fx), 16 * len(fx)
    n_arcs = len(levels)
    # every window ends before 4*pi: the first source starts within a lap
    laps = np.concatenate([fx, fx])
    base, fine = 0, fx[:0]             # f at fine lifted indices base, ...
    sources = []
    cursor = 0.0
    gap = 1e-4 * CIRCLE / n_arcs
    for k, level in enumerate(levels):
        limit = CIRCLE + (sources[0][0] if sources else 0.0)
        run = _source_window(laps, level, tol, *_lifted_span(cursor, limit, n))
        step = CIRCLE / n
        if run is None:
            # levels that return to the first arc's level squeeze their
            # windows against the lap limit; rescan those slivers finely
            j0, j1 = _lifted_span(cursor, limit, n_fine)
            if j0 <= j1 and not base <= j0 <= j1 < base + len(fine):
                angles = np.arange(j0, j1 + 1) % n_fine * (CIRCLE / n_fine)
                base, fine = j0, _sample(f, "f", angles)
            run = _source_window(fine, level, tol, j0 - base, j1 - base)
            if run is not None:
                run = base + run[0], base + run[1]
            step = CIRCLE / n_fine
        if run is None:
            raise PlanError(f"no source interval for arc {k} (level "
                            f"{level:.6g}) in cyclic order")
        lo, hi = run[0] * step, run[1] * step
        width = hi - lo
        take = max(0.25 * width, 1e-7)
        # near the lap limit many arcs share one level band (targets are flat
        # at extrema); quarter-of-window consumption would exhaust the room
        # geometrically, so cap each take by a fair share of what is left
        remaining = n_arcs - k
        fair = (limit - lo - remaining * gap) / (remaining + 1)
        if 0 < fair < take:
            take = max(fair, 1e-9)
        hi = min(lo + min(width, take), limit)
        sources.append((lo, hi))
        cursor = hi + gap
    return sources


def build_plan(f: Callable, f1: Callable, eps: float,
               p: float = 2.0) -> RearrangementPlan:
    """Partition, levels, and cyclically ordered source intervals.

    Arcs are refined by doubling until f1 oscillates less than 0.9*delta on
    each, which ends at 16384 arcs (_PLAN_SAMPLES) at the latest: an arc
    that holds one plan sample oscillates by 0.  Source intervals are
    allocated in one forward sweep so they sit in the same cyclic order as
    the arcs (in one dimension disjoint intervals cannot pass through each
    other, so order compatibility is mandatory).  Where the plan samples
    miss a level's band, the sweep rescans f finely on the rest of the lap
    only, so f is sampled at 4096 and 16384 points per lap and at 262144
    only on that sliver.  A NaN or infinite value of f1, or of f where it
    is sampled, raises ValueError naming it; so does a complex value.

    Before any refinement, a target that turns more often per lap than f,
    counting only its swings above S = 4 tol + 2c (tol = 0.9 delta the band
    half-width, c the most the clip moves a level), is refused with reason
    "cyclic-order", as the sweep would fail: f1 moves by under tol within
    an arc, and f stays within tol of the arc's level on its source, so
    arcs at f1 extrema more than S apart get sources whose f values
    alternate alike, and in cyclic order within one lap.  This assumes the
    plan samples show every turn of f (as the range test assumes they show
    its range); since an arc may hold a single sample, S also adds twice
    f1's largest step between adjacent samples.
    """
    check_plan_parameters(eps, p)
    escape = _range_escape(f, f1, p)
    if escape > 0:
        raise PlanError(f"target is not within [inf f, sup f]: infeasible; every "
                        f"diffeomorphism misses it by >= {escape:.4g} in L^{p:g}",
                        reason="range", bound=escape)
    x = _sample_circle(_PLAN_SAMPLES)
    fx, gx = _sample(f, "f", x), _sample(f1, "f1", x)
    bound = float(np.abs(fx).max() + np.abs(gx).max())
    delta = eps / (2.0 * (2.0 * CIRCLE) ** (1.0 / p))
    fmin, fmax = float(fx.min()), float(fx.max())
    tol = _OSC_MARGIN * delta
    swing = (4.0 * tol + 2.0 * max(float(gx.max()) - fmax,
                                   fmin - float(gx.min()), 0.0)
             + 2.0 * float(np.abs(np.diff(gx, append=gx[:1])).max()))
    turns = _turns(gx, swing)
    # f turns twice unless constant, and f1 cannot swing by S about a constant
    if turns > 2 and turns > (turns_f := _turns(fx, 0.0)):
        raise PlanError(f"f1 turns {turns} times per lap by more than "
                        f"{swing:.3g} and f only {turns_f} times: a circle "
                        f"diffeomorphism keeps cyclic order, so no partition "
                        f"can give f1's arcs source intervals in order (the "
                        f"obstruction is one-dimensional)",
                        reason="cyclic-order")

    def max_osc(count: int) -> float:
        # bin k holds the samples [starts[k], starts[k+1]); reduceat needs
        # non-empty segments, and dropping the empty bins keeps the others
        starts = np.searchsorted(x, np.linspace(0.0, CIRCLE, count + 1))
        starts = starts[:-1][starts[:-1] < starts[1:]]
        return float(np.max(np.maximum.reduceat(gx, starts)
                            - np.minimum.reduceat(gx, starts)))

    n_arcs = _FIRST_ARCS
    # one sample per arc oscillates by 0 < tol, unless a subnormal eps
    # underflowed tol to 0
    while n_arcs < _PLAN_SAMPLES and max_osc(n_arcs) >= tol:
        n_arcs *= 2
    edges = np.linspace(0.0, CIRCLE, n_arcs + 1)

    # clip levels into the closed range of f so a source window always exists
    centres = 0.5 * (edges[:-1] + edges[1:])
    levels = np.clip(np.interp(centres, x, gx, period=CIRCLE), fmin, fmax)
    sources = _allocate_sources(f, fx, levels.tolist(), tol)
    arcs = [Arc(lo, hi, b, float(level))
            for lo, hi, b, level in zip(edges[:-1], edges[1:], centres, levels)]

    cap = 0.25 * min(a.length for a in arcs)
    try:
        w = min(_COLLAR_FACTOR * eps ** p / bound ** p / (2.0 * n_arcs), cap)
    except (OverflowError, ZeroDivisionError):
        # a power left the float range: take the ratio in logarithms; bound 0
        # (f = f1 = 0) spends nothing in the collars
        w = cap
        if bound > 0:
            log_w = (math.log(_COLLAR_FACTOR / (2.0 * n_arcs))
                     + p * (math.log(eps) - math.log(bound)))
            w = math.exp(min(log_w, math.log(cap)))
    plan = RearrangementPlan(tuple(arcs), tuple(sources), delta, eps, float(p),
                             w, bound)
    if not plan.budget_ok():
        raise PlanError(f"p={p:g} is too large for eps={eps:g}: the collar "
                        f"width {_COLLAR_FACTOR}*(eps/bound)^p/(2*{n_arcs} arcs)"
                        f" underflows to 0 (bound = {bound:.6g})")
    if np.any(edges + w == edges):
        # realize_diffeo places nodes at lo + w and hi - w: they would fall
        # back onto the arc ends
        raise PlanError(f"p={p:g} is too large for eps={eps:g}: the collar "
                        f"width {w:.3g} is below the float resolution of the "
                        f"arc ends, so an arc end plus the width rounds back "
                        f"to the end")
    return plan


# ---------------------------------------------------------------------------
# realization


@functools.cache
def _legendre_rule():
    """The 48-node Gauss-Legendre rule on (-1, 1), computed once per process
    and read-only, since every caller shares it."""
    nodes, weights = np.polynomial.legendre.leggauss(_BUMP_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _bump_quadrature(radius: float):
    """Gauss-Legendre nodes/weights for the unit-mass C-infinity bump
    exp(-1/(1-(s/r)^2)) on (-r, r); the nodes ascend."""
    nodes, weights = _legendre_rule()
    s = nodes * radius
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(-1.0 / (1.0 - (s / radius) ** 2))
    vals = np.nan_to_num(vals, nan=0.0, posinf=0.0)
    wts = weights * radius * vals
    return s, wts / wts.sum()


class PiecewiseDiffeo:
    """Isotopy of circle diffeomorphisms from a monotone node map.

    The endpoint is the piecewise-linear interpolation PL through
    (nodes_from, nodes_to), mollified by a C-infinity bump whose width is a
    quarter of the shortest linear piece: phi_1(x) = sum_q w_q PL(x - s_q)
    over the bump's 48 quadrature nodes s_q in (-r, r), r = width/2.
    phi_t linearly interpolates the displacement, so phi_0 is exactly the
    identity and every intermediate map has derivative
    (1-t) + t*phi_1' > 0.

    Since r is at most an eighth of a piece, every x - s_q lies on the
    piece of x or on the neighbour across its nearest node x_j, so phi_1 is
    evaluated in closed form: the piece's affine map plus, within r of x_j,
    one kink term (a_n - a) * sum over the spilled nodes of w_q (d - s_q),
    d = x - x_j, read off prefix sums of the bump weights.  On the core of a
    piece nothing spills and phi_1 is affine.
    """

    def __init__(self, nodes_from: Sequence[float], nodes_to: Sequence[float]):
        xf = np.asarray(nodes_from, float)
        yt = np.asarray(nodes_to, float)
        if len(xf) != len(yt) or len(xf) < 2:
            raise ValueError("node arrays must match and hold >= 2 nodes")
        if not (np.isfinite(xf).all() and np.isfinite(yt).all()):
            raise ValueError("nodes must be finite")
        if np.any(np.diff(xf) <= 0) or np.any(np.diff(yt) <= 0):
            raise ValueError("node map must be strictly increasing")
        if not (xf[-1] - xf[0] < CIRCLE and yt[-1] - yt[0] < CIRCLE):
            raise ValueError("nodes must stay within one lap")
        self.nodes_from = xf
        self.nodes_to = yt
        pieces = np.diff(np.concatenate([xf, [xf[0] + CIRCLE]]))
        self.smoothing = 0.25 * float(pieces.min())
        # lifted copies over four laps, the first node moved into [0, 2 pi)
        # (the same map): every x in [0, 2 pi] then lies on a lifted piece
        # with a neighbour on either side, so lookups never wrap; the nodes
        # span less than a lap, so the copies ascend
        lap = math.floor(xf[0] / CIRCLE) * CIRCLE
        shifts = np.array([-2.0 * CIRCLE, -CIRCLE, 0.0, CIRCLE]) - lap
        self._xl = np.concatenate([xf + s for s in shifts])
        self._yl = np.concatenate([yt + s for s in shifts])
        self._slopes = np.diff(self._yl) / np.diff(self._xl)
        self._qs, self._qw = _bump_quadrature(0.5 * self.smoothing)
        # spilled mass and first moment of the bump weights: entry k sums
        # the nodes q < k (a point left of its nearest node spills them into
        # the next piece), entry 49 + k the nodes q >= k (right of it: into
        # the previous piece)
        self._mass, self._moment = (
            np.concatenate([[0.0], np.cumsum(v), np.cumsum(v[::-1])[::-1],
                            [0.0]]) for v in (self._qw, self._qw * self._qs))
        self._centre = float(self._moment[len(self._qs)])   # sum_q w_q s_q

    def _locate(self, x: np.ndarray):
        """(i, d, n, mass, moment) for points x in [0, 2 pi]: x lies on the
        lifted piece i; d = x - x_j for its nearest node x_j; n is the
        piece across x_j; mass and moment are the bump weights w_q and
        w_q s_q summed over the nodes with x - s_q on piece n."""
        xl = self._xl
        # the clip only keeps a NaN x (which sorts last) in bounds
        i = np.clip(np.searchsorted(xl, x, side="right") - 1, 1, len(xl) - 3)
        u, v = x - xl[i], x - xl[i + 1]
        right = u > -v
        d = np.where(right, v, u)
        n = np.where(right, i + 1, i - 1)
        # side="right": a node with x - s_q on a node counts on the right
        k = np.searchsorted(self._qs, d, side="right")
        k += np.where(right, 0, len(self._qs) + 1)
        return i, d, n, self._mass[k], self._moment[k]

    def __call__(self, x, t: float = 1.0):
        x = np.asarray(x, float)
        laps = np.floor(x / CIRCLE)
        base = x - laps * CIRCLE
        i, d, n, mass, moment = self._locate(base)
        a = self._slopes[i]
        sm = (self._yl[i] + a * (base - self._xl[i] - self._centre)
              + (self._slopes[n] - a) * (d * mass - moment))
        out = base + float(t) * (sm - base)
        return out + laps * CIRCLE

    def derivative(self, x, t: float = 1.0):
        """(1-t) + t*phi_1', phi_1' = a + (a_n - a) * mass: the bump's share
        of the two slopes.  The spilled mass is at most a half, so the sum
        never rounds outside the two slopes, and on a core it is a exactly."""
        x = np.asarray(x, float) % CIRCLE
        i, _, n, mass, _ = self._locate(x)
        a = self._slopes[i]
        sl = a + (self._slopes[n] - a) * mass
        return (1.0 - float(t)) + float(t) * sl

    def min_derivative(self, t: float = 1.0) -> float:
        """Exact minimum of phi_t' over the circle.

        The bump window (-r, r) has r = smoothing/2, an eighth of the
        shortest linear piece, so its 48 quadrature points span at most two
        adjacent pieces and phi_t' is the convex combination
        sum_q w_q ((1-t) + t s_q) of per-piece values.  At the centre of a
        piece the whole window lies inside that piece, where phi_t' takes
        the piece's own value.  So the minimum over the piece centres,
        wrap piece included, is the minimum over the circle, for every t.
        """
        xf = self.nodes_from
        centres = 0.5 * (xf + np.append(xf[1:], xf[0] + CIRCLE))
        return float(self.derivative(centres, t).min())


def realize_diffeo(plan: RearrangementPlan) -> PiecewiseDiffeo:
    """Node map sending the bulk of each arc into its source interval.

    Nodes: arc bulk [lo+w, hi-w] -> [u+m, v-m] inside the source (u, v); the
    2w collars between arcs carry the inter-source gaps.  The smoothed
    map's minimum derivative is the least slope of the node map, whatever
    the smoothing width, so a minimum below the floor raises PlanError.
    """
    w = plan.collar_width
    xs, ys = [], []
    for arc, (u, v) in zip(plan.arcs, plan.sources):
        m = min(0.1 * (v - u), w)
        xs.extend([arc.lo + w, arc.hi - w])
        ys.extend([u + m, v - m])
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    bad = np.flatnonzero(np.diff(ys) <= 0)
    if bad.size:
        # ys[2k] and ys[2k + 1] lie in source k
        k, inside = divmod(int(bad[0]) + 1, 2)
        raise PlanError(f"source {k} {plan.sources[k]} is empty" if inside else
                        f"source {k} {plan.sources[k]} starts before source "
                        f"{k - 1} {plan.sources[k - 1]} ends")
    phi = PiecewiseDiffeo(xs, ys)
    if phi.min_derivative() < _DERIVATIVE_FLOOR:
        raise PlanError("smoothed map's derivative fell below "
                        f"{_DERIVATIVE_FLOOR}")
    return phi


def _simpson_weights(panels: int) -> np.ndarray:
    """Composite Simpson weights over 2*panels unit steps, before h/3."""
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def rearrange_error(f: Callable, f1: Callable, phi: PiecewiseDiffeo,
                    p: float = 2.0) -> float:
    """L^p norm of f(phi_1(x)) - f1(x), composite Simpson per smooth piece.

    phi_1 is affine on each core [x_j + r, x_{j+1} - r] between the
    smoothing windows [x_j - r, x_j + r] around the nodes, r = smoothing/2,
    and it bends only inside the windows; a rule run across a window sees
    a kink and converges at first order.  So every window and every core
    gets its own composite Simpson rule (_WINDOW_PANELS, _CORE_PANELS
    panels).  phi, f and f1 are called once per block of about 4096 nodes,
    whole pieces at a time, so memory stays flat however many pieces; each
    piece is summed along its own row and the pieces once at the end, so the
    value does not depend on the block size.  A p, f or f1 value that
    build_plan refuses is refused here by name too.
    """
    _check_p(p)
    xf = phi.nodes_from
    r = 0.5 * phi.smoothing
    lo = xf + r
    hi = np.append(xf[1:], xf[0] + CIRCLE) - r
    steps = (hi - lo) / (2 * _CORE_PANELS)
    offsets = np.arange(-_WINDOW_PANELS, _WINDOW_PANELS + 1) * (
        r / _WINDOW_PANELS)
    window = _simpson_weights(_WINDOW_PANELS) * (r / _WINDOW_PANELS / 3.0)
    core = _simpson_weights(_CORE_PANELS) / 3.0
    rows = max(1, _ERROR_BLOCK // (len(window) + len(core)))
    sums = np.empty(len(xf))
    for k in range(0, len(xf), rows):
        part = slice(k, k + rows)
        xq = np.concatenate([xf[part, None] + offsets,
                             np.linspace(lo[part], hi[part], len(core),
                                         axis=1)], axis=1)
        integrand = np.abs(_sample(f, "f", phi(xq) % CIRCLE)
                           - _sample(f1, "f1", xq % CIRCLE)) ** p
        sums[part] = ((integrand[:, :len(window)] * window).sum(axis=1)
                      + steps[part]
                      * (integrand[:, len(window):] * core).sum(axis=1))
    return float(sums.sum()) ** (1.0 / p)


def rearrange(f: Callable, f1: Callable, eps: float, p: float = 2.0):
    """One-call pipeline; returns (phi, achieved error, plan)."""
    plan = build_plan(f, f1, eps, p)
    phi = realize_diffeo(plan)
    err = rearrange_error(f, f1, phi, p)
    return phi, err, plan
