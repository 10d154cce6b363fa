"""Property tests of the slot algebra, the exact contraction, stacked
tensor calls, the frame-spec and model round trips and the rearrangement
order check, drawn by hypothesis."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from akscal import exact, lie, rearrange, tensor, zbound  # noqa: E402
from akscal import operator_lab as ol  # noqa: E402
from test_operator_lab import slot_embed, slot_values  # noqa: E402

STRUCTURES = {"kt": ol.J_KT, "flat": ol.J_FLAT}

slot_vectors = st.lists(
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False), min_size=6,
    max_size=6).map(np.array)

slot_settings = settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@slot_settings
@given(v=slot_vectors)
def test_slot_values_invert_slot_embed(name, v):
    basis = ol.anti_slots(STRUCTURES[name])
    assert np.array_equal(slot_values(slot_embed(v, basis), basis), v)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@slot_settings
@given(v=slot_vectors)
def test_slot_embed_is_symmetric_and_anti_invariant(name, v):
    j = STRUCTURES[name]
    h = slot_embed(v, ol.anti_slots(j))
    assert np.array_equal(h, h.T)
    # J is a signed permutation, so J^T h J only moves and negates entries
    assert np.array_equal(j.T @ h @ j, -h)


# -- exact.einsum -------------------------------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6))


def rational_tensor(shape):
    size = int(np.prod(shape))
    return st.lists(rationals, min_size=size, max_size=size).map(
        lambda vals: exact.as_exact(np.array(vals, dtype=object).reshape(shape)))


@st.composite
def einsum_cases(draw):
    n = draw(st.integers(1, 3))
    a = draw(rational_tensor((n, n, n)))
    b = draw(rational_tensor((n, n)))
    sub, ops = draw(st.sampled_from([
        ("ijk,kl->ijl", (a, b)),          # contraction
        ("ijk,jl,lm->ikm", (a, b, b)),    # three operands
        ("iik->k", (a,)),                 # trace
        ("ijk,ijk->", (a, a)),            # scalar output
        ("ii->", (b,)),                   # scalar trace
        ("kij->ijk", (a,)),               # no contraction
    ]))
    return sub, ops


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=einsum_cases())
def test_exact_einsum_matches_fraction_einsum(case):
    sub, ops = case
    got, want = exact.einsum(sub, *ops), np.einsum(sub, *ops)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == object
        assert all(g == w for g, w in zip(got.flat, want.flat))
        assert all(type(g) is Fraction for g in got.flat)
    else:
        assert type(got) is Fraction and got == want


# -- stacked tensor calls -----------------------------------------------------


def _per_matrix(fn, *args):
    """fn applied matrix by matrix along the stack axis of the 3-D args."""
    k = max(len(a) for a in args if a.ndim == 3)
    return np.stack([fn(*(a[i] if a.ndim == 3 else a for a in args))
                     for i in range(k)])


def _assert_close(stacked, loop):
    assert stacked.shape == loop.shape
    assert np.max(np.abs(stacked - loop)) <= 1e-14 * np.max(np.abs(loop))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 5),
       m=st.sampled_from([2, 4, 6]))
def test_stacked_tensor_calls_match_per_matrix(seed, k, m):
    rng = np.random.default_rng(seed)
    t = lambda x: np.swapaxes(x, -1, -2)  # noqa: E731
    q, _ = np.linalg.qr(rng.standard_normal((k, m, m)))
    j = t(q) @ np.kron(np.eye(m // 2), [[0.0, -1.0], [1.0, 0.0]]) @ q
    a = rng.standard_normal((k, m, m))
    a = a + t(a)
    spd = a @ t(a) + m * np.eye(m)
    g = tensor.invariant_part(spd, j)     # J-invariant
    h = 0.3 * tensor.anti_invariant_part(a, j)
    gt = tensor.exp_metric(g, h)
    cases = [
        (tensor.anti_invariant_part, a, j),
        (tensor.invariant_part, spd, j),
        (tensor.check_symmetric, a),
        (tensor.check_metric, spd),
        (tensor.check_acs, j),
        (tensor.exp_metric, spd, h),
        (tensor.exp_metric, np.eye(m), h),
        (tensor.log_recover, spd, tensor.exp_metric(spd, h)),
        (tensor.log_recover, g, gt),
    ]
    for fn, *args in cases:
        _assert_close(fn(*args), _per_matrix(fn, *args))


# -- frame specs --------------------------------------------------------------

exact_scalars = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
exact_lengths = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6,
                             max_denominator=10 ** 6).filter(lambda v: v > 0)
float_scalars = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
float_lengths = st.floats(min_value=1e-300, max_value=1e300,
                          exclude_min=False).filter(lambda v: v > 0)


@st.composite
def frame_specs(draw):
    """Valid specs: a Heisenberg-times-line block ([e1, e2] = s e3, with
    the kt J) and flat planes, in a frame moved by a signed permutation."""
    floats = draw(st.booleans())
    n_kt, n_flat = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 2),
                                         (1, 2), (0, 3)]))
    m = 4 * n_kt + 2 * n_flat
    c = exact.zeros((m, m, m))
    j = exact.zeros((m, m))
    if n_kt:
        s = draw(float_scalars if floats else exact_scalars)
        c[0][1][2], c[1][0][2] = s, -s
        j[:4, :4] = exact.as_exact(lie.KT_J)
    for o in range(4 * n_kt, m, 2):
        j[o][o + 1], j[o + 1][o] = Fraction(-1), Fraction(1)
    # new frame e'_i = s_i e_{p(i)}: every structure constant picks up the
    # signs of its three (two, for J) indices
    p = draw(st.permutations(range(m)))
    s = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=m,
                               max_size=m)))
    c = c[np.ix_(p, p, p)] * np.einsum("i,j,k->ijk", s, s, s)
    j = j[np.ix_(p, p)] * np.outer(s, s)
    vols = draw(st.lists(float_lengths if floats else exact_lengths,
                         min_size=m, max_size=m))
    if floats:
        c, j = exact.to_float(c), exact.to_float(j)
    name = draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1,
                        max_size=12))
    return lie.make_frame_spec(name, c, j, vols)


def _same_entries(a, b):
    """Same arithmetic and equal entries: for finite floats equality is bit
    equality, except that a -0.0 bracket constant is not written out."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return all(type(x) is type(y) and x == y for x, y in zip(a.flat, b.flat))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=frame_specs())
def test_frame_spec_round_trip_is_lossless(spec):
    back = lie.parse_frame_spec(lie.serialize_frame_spec(spec))
    assert back.name == spec.name
    assert _same_entries(back.c, spec.c) and _same_entries(back.j, spec.j)
    # a float comes back as itself, not as the Fraction of its short decimal
    assert _same_entries(np.array(back.lattice_volumes, dtype=object),
                         np.array(spec.lattice_volumes, dtype=object))


# -- intersection models --------------------------------------------------------


@st.composite
def models(draw):
    """Valid models: Q = P^T D P with D a sum of +-1 and hyperbolic blocks
    and P unimodular (a few integer row additions), so Q stays unimodular."""
    blocks = draw(st.lists(st.sampled_from(["+", "-", "H"]), min_size=1,
                           max_size=3))
    rank = sum(2 if b == "H" else 1 for b in blocks)
    q = np.zeros((rank, rank), dtype=np.int64)
    at = 0
    for b in blocks:
        if b == "H":
            q[at, at + 1] = q[at + 1, at] = 1
            at += 2
        else:
            q[at, at] = 1 if b == "+" else -1
            at += 1
    for _ in range(draw(st.integers(0, 3)) if rank > 1 else 0):
        i, j = draw(st.permutations(range(rank)))[:2]
        p = np.eye(rank, dtype=np.int64)
        p[i, j] = draw(st.integers(-2, 2))
        q = p.T @ q @ p
    n = draw(st.sampled_from([2, 3]))
    ints = st.integers(-50, 50)
    seed = draw(st.none() | st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=rank + (n == 3), max_size=rank + (n == 3)))
    words = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1,
                    max_size=8)
    name = " ".join(draw(st.lists(words, max_size=3)))
    return zbound.make_model(
        name, q, draw(st.lists(ints, min_size=rank, max_size=rank)), n=n,
        fiber_chern=draw(ints) if n == 3 else None,
        chi=draw(st.none() | ints), tau=draw(st.none() | ints), seed=seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(model=models())
def test_model_round_trip_is_lossless(model):
    back = zbound.parse_model(zbound.serialize_model(model))
    assert back.name == model.name and back.n == model.n
    for a, b in ((back.q, model.q), (back.c1, model.c1)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (back.fiber_chern, back.chi, back.tau) == \
        (model.fiber_chern, model.chi, model.tau)
    # every seed entry comes back bit for bit, a -0.0 included
    hexes = (lambda m: None if m.seed is None
             else [float.hex(v) for v in m.seed])
    assert hexes(back) == hexes(model)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.0, 0.9), share=st.floats(-1.0, 1.0),
       phase=st.floats(0.0, 2 * np.pi), eps=st.floats(0.05, 0.3),
       ripple=st.floats(0.0, 0.99), k=st.integers(2, 60))
def test_order_compatible_targets_never_refused_for_cyclic_order(
        a, share, phase, eps, ripple, k):
    # a cos(x + phase) + b inside the range of sin turns as often as sin, and
    # a ripple of less than 0.9 delta from peak to peak adds no turn that
    # counts; such a target may miss the sweep, never the order check
    delta = eps / (2.0 * np.sqrt(4 * np.pi))
    b, r = share * (0.9 - a), ripple * 0.45 * delta
    f1 = lambda x: a * np.cos(x + phase) + b + r * np.sin(k * x)
    try:
        rearrange.build_plan(np.sin, f1, eps)
    except rearrange.PlanError as e:
        assert e.reason != "cyclic-order"
