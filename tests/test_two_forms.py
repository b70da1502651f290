"""Two-form midpoint construction: xi calculus, level curves, pair metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qpos import (
    CertificateFailed,
    FormField,
    LevelNotReached,
    NoCommonDirection,
    NotFinite,
    PairState,
    QposError,
    common_direction,
    field_metric_top_degree,
    find_common_direction,
    pair_metric,
    trace_level_curve,
    trace_wrt,
    xi_eval,
)
from qpos import two_forms
from qpos.geometry import QuadricDomain, sample_boundary
from qpos.hermitian import reduce_form
from qpos.synthetic import random_hermitian, random_pair_with_common_direction
from qpos.two_forms import DIRECTION_FLOOR_SCALE

C_HALF = 1.0 - np.exp(-0.5)  # level-1 crossing of -2 log(1 - c)


# ------------------------------------------------------------------ xi_eval

def test_xi_at_origin():
    rng = np.random.default_rng(0)
    Q1, Q2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    pair = PairState(Q1, Q2)
    ev = xi_eval(pair, [0.0, 0.0])
    assert ev.in_O and ev.xi == pytest.approx(0.0, abs=1e-14)
    assert_allclose(ev.grad, [np.trace(Q1).real, np.trace(Q2).real], rtol=1e-12)


def test_xi_closed_form_identity_pair():
    pair = PairState(np.eye(2), np.eye(2))
    for a, b in [(0.1, 0.2), (0.3, 0.05), (0.45, 0.45)]:
        ev = xi_eval(pair, [a, b])
        assert ev.in_O
        assert ev.xi == pytest.approx(-2.0 * np.log(1.0 - a - b), rel=1e-12)
    assert not xi_eval(pair, [0.7, 0.5]).in_O  # a + b > 1 leaves O
    assert xi_eval(pair, [0.7, 0.5]).xi is None


def test_xi_gradient_matches_trace_and_fd(rng):
    for _ in range(10):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        pair = PairState(Q1, Q2)
        x = rng.uniform(-0.05, 0.05, size=2)
        ev = xi_eval(pair, x)
        if not ev.in_O:
            continue
        # independent code path: trace against the deformed metric
        G = pair.metric_at(x)
        assert abs(ev.grad[0] - trace_wrt(Q1, G)) <= 1e-9 * max(1, abs(ev.grad[0]))
        assert abs(ev.grad[1] - trace_wrt(Q2, G)) <= 1e-9 * max(1, abs(ev.grad[1]))
        # finite differences
        h = 1e-6
        for r, e in enumerate(np.eye(2)):
            up = xi_eval(pair, x + h * e).xi
            dn = xi_eval(pair, x - h * e).xi
            fd = (up - dn) / (2 * h)
            assert abs(fd - ev.grad[r]) <= 1e-5 * max(1.0, abs(ev.grad[r]))


def test_xi_hessian_psd_and_proportional_kernel(rng):
    for _ in range(20):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        ev = xi_eval(PairState(Q1, Q2), [0.01, -0.02])
        w = np.linalg.eigvalsh(ev.hessian)
        assert w[0] > 1e-8  # strictly convex for non-proportional pairs
    mu = 1.7
    Q2 = random_hermitian(rng, 3) + 3 * np.eye(3)
    ev = xi_eval(PairState(mu * Q2, Q2), [0.0, 0.0])
    w, V = np.linalg.eigh(ev.hessian)
    assert w[0] == pytest.approx(0.0, abs=1e-10)
    kernel = np.array([1.0, -mu]) / np.hypot(1.0, mu)
    assert abs(abs(V[:, 0] @ kernel) - 1.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_xi_eval_rejects_a_non_finite_point(d):
    # eigh returns NaN for a NaN 2 x 2 but raises LinAlgError from 3 x 3 up; both now
    # raise NotFinite naming the point
    pair = PairState(np.eye(d), np.diag([1.0, -1.0, 2.0][:d]))
    for x in ([np.nan, 0.0], [0.1, np.inf], [-np.inf, np.nan]):
        with pytest.raises(NotFinite, match=r"non-finite point \[") as exc:
            xi_eval(pair, x)
        assert str(np.asarray(x, dtype=float).tolist()) in str(exc.value)


def test_O_is_starlike(rng):
    Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
    pair = PairState(Q1, Q2)
    for _ in range(100):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        inside = [xi_eval(pair, t * u).in_O for t in np.linspace(0.0, 3.0, 60)]
        flips = np.sum(np.abs(np.diff(np.asarray(inside, dtype=int))))
        assert flips <= 1  # in-O along a ray is an interval from 0


# ------------------------------------------------------- common directions

def test_common_direction_trivial_and_impossible():
    v = find_common_direction(np.eye(2), np.eye(2))
    assert v is not None
    assert find_common_direction(np.eye(2), -np.eye(2)) is None


def test_common_direction_crossed_pair():
    a = 0.5
    Q1, Q2 = np.diag([1.0, -a]), np.diag([-a, 1.0])
    v = find_common_direction(Q1, Q2)
    assert v is not None
    v1 = float(np.real(v.conj() @ Q1 @ v))
    v2 = float(np.real(v.conj() @ Q2 @ v))
    # the optimum is at the diagonal with both values (1 - a) / 2
    assert min(v1, v2) >= 0.25 - 1e-6


def test_common_direction_planted_random(rng):
    for _ in range(20):
        Q1, Q2, v0 = random_pair_with_common_direction(rng, 4)
        v = find_common_direction(Q1, Q2)
        assert v is not None
        assert float(np.real(v.conj() @ Q1 @ v)) > 0
        assert float(np.real(v.conj() @ Q2 @ v)) > 0


def _herm(X):
    return 0.5 * (X + np.conj(np.swapaxes(X, -1, -2)))


def _values(A, B, v):
    return (float(np.real(v.conj() @ A @ v)), float(np.real(v.conj() @ B @ v)))


def test_common_direction_exact_on_small_margins():
    # the former multi-start ascent returned None for 20 of these pairs (e.g. 5, 8, 9)
    rng = np.random.default_rng(1)
    A = _herm(rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3)))
    B = _herm(rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3)))
    c, _, _ = common_direction(A, B)  # the max-min value of each pair
    shift = (c - 1e-4)[:, None, None] * np.eye(3)
    A, B = (A - shift)[:150], (B - shift)[:150]
    value, t, V = common_direction(A, B)
    assert not np.isnan(V).any()
    assert_allclose(value, 1e-4, atol=1e-12)
    for a, b, v in zip(A, B, V):
        assert min(_values(a, b, v)) > 0
    for i in (5, 8, 9):
        assert find_common_direction(A[i], B[i]) is not None


@st.composite
def hermitian_pairs(draw):
    d = draw(st.integers(1, 3))
    entries = st.lists(st.floats(-3, 3), min_size=2 * d * d, max_size=2 * d * d)
    forms = []
    for _ in range(2):
        X = np.array(draw(entries)).reshape(2, d, d)
        forms.append(_herm(X[0] + 1j * X[1]))
    return forms


@settings(max_examples=200, deadline=None)
@given(hermitian_pairs())
def test_common_direction_witness_or_certificate(pair):
    A, B = pair
    value, t, V = common_direction(A[None], B[None])
    floor = DIRECTION_FLOOR_SCALE * max(1.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    assert 0.0 <= t[0] <= 1.0
    if np.isnan(V[0]).any():
        # no witness: the stated segment point proves that none exists
        assert np.linalg.eigvalsh((1 - t[0]) * A + t[0] * B)[-1] <= floor
        assert find_common_direction(A, B) is None
    else:
        assert np.linalg.norm(V[0]) == pytest.approx(1.0, abs=1e-12)
        assert min(_values(A, B, V[0])) > 0


def test_no_common_direction_carries_certificate():
    A, B = np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])  # max-min is exactly 0
    with pytest.raises(NoCommonDirection, match="lambda_max") as exc:
        trace_level_curve(PairState(A, B))
    t = exc.value.t
    lam = np.linalg.eigvalsh((1 - t) * A + t * B)[-1]
    assert lam == pytest.approx(exc.value.lam_max, abs=1e-15)
    assert exc.value.lam_max <= DIRECTION_FLOOR_SCALE


def _endpoint_pairs(rng, n, d, margin=20.0):
    """n pairs whose f(t) = lambda_max((1 - t) A + t B) is least at t = 0 (even rows) or
    t = 1 (odd rows): the other form exceeds the top eigenvalue by ``margin`` on its
    top eigenvector, so f' has that size and sign at the end; a shift of both by a
    multiple of I makes that least value 1, so every pair has a witness.  With slopes
    this large no golden-section point within float resolution of an end rounds to a
    value below the end's, so the golden path lands on the end itself."""
    A = _herm(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    K = _herm(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    u = np.linalg.eigh(A)[1][:, :, -1]
    uu = u[:, :, None] * np.conj(u)[:, None, :]
    other = A + K + (margin - np.einsum("ni,nij,nj->n", np.conj(u), K, u).real)[:, None, None] * uu
    odd = (np.arange(n) % 2 == 1)[:, None, None]
    A, B = np.where(odd, other, A), np.where(odd, A, other)
    shift = (1.0 - np.linalg.eigvalsh(np.where(odd, B, A))[:, -1])[:, None, None] * np.eye(d)
    return A + shift, B + shift


def test_common_direction_ends_equal_the_golden_path(rng, monkeypatch):
    for d in (1, 2, 3, 5):
        A, B = _endpoint_pairs(rng, 40, d)
        lam_a, lam_b = np.linalg.eigvalsh(A)[:, -1], np.linalg.eigvalsh(B)[:, -1]
        t_ref = two_forms._golden_argmin(A, B, lam_a, lam_b)
        assert_array_equal(t_ref, np.arange(40) % 2)
        lam, U = np.linalg.eigh((1.0 - t_ref)[:, None, None] * A + t_ref[:, None, None] * B)
        with monkeypatch.context() as m:
            m.setattr(two_forms, "_golden_argmin", None)  # every pair is settled at an end
            value, t, V = common_direction(A, B)
        assert_array_equal(t, t_ref)
        assert_array_equal(value, lam[:, -1])
        assert_array_equal(V, U[:, :, -1])


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_common_direction_agrees_with_a_t_grid(d, seed, shift):
    # oracle: f on 2,001 points of [0, 1]; f is convex with |f'| <= |B - A|_2, so the
    # grid minimum m is within |B - A|_2 / 4000 above the max-min value
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, d) + shift[0] * np.eye(d)
    B = random_hermitian(rng, d) + shift[1] * np.eye(d)
    grid = np.linspace(0.0, 1.0, 2001)
    f = np.linalg.eigvalsh((1.0 - grid)[:, None, None] * A + grid[:, None, None] * B)[:, -1]
    m, slack = f.min(), np.linalg.norm(B - A, 2) / 4000.0
    clear = 1e-6 * max(1.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    try:
        value, t, V = common_direction(A[None], B[None])
    except QposError:  # undecided: only where the margin is not clear
        assert abs(m) <= slack + clear
        return
    assert m - slack - 1e-12 <= value[0] <= m + 1e-9
    if m - slack > clear:
        assert not np.isnan(V[0]).any() and min(_values(A, B, V[0])) > 0
    if m < -clear:
        assert np.isnan(V[0]).all()


def test_common_direction_settles_the_bump_samples_at_the_ends(monkeypatch):
    # the 250 samples of `geometry bump` on the quadric at --seed 1: Levi form and weight
    # Hessian on the kernel; each pair's f is least at t = 0 or t = 1
    dom = QuadricDomain(mu=[2.0, 2.0, -0.5, -0.5], n=3, q=2)
    s = sample_boundary(dom, 250, seed=1)
    L, H = (reduce_form(M, s.frame) for M in (dom.rho_hessian(s.z, s.chart),
                                               dom.weight_hessian(s.z, s.chart)))
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=getattr(np.linalg, name), **k:
                            calls.append(1) or _fn(*a, **k))
    value, t, V = common_direction(L, H)
    assert len(calls) <= 4, len(calls)
    assert np.all((t == 0.0) | (t == 1.0))
    assert not np.isnan(V).any() and np.all(value > 0)


# ----------------------------------------------------------- level tracing

def test_ray_level_hits_on_the_level_set(rng):
    thetas = np.linspace(0.0, np.pi / 2, 64)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    pairs = [PairState(*random_pair_with_common_direction(rng, 3)[:2]) for _ in range(24)]
    Q1t, Q2t = (np.stack([getattr(p, name) for p in pairs]) for name in ("_Q1t", "_Q2t"))
    T, _, _ = two_forms._ray_level_hits(Q1t, Q2t, np.broadcast_to(dirs, (24, 64, 2)))
    for pair, t in zip(pairs, T):
        # independent path: eigenvalues of the Gram matrix at each crossing
        w = np.linalg.eigvalsh(pair.gram(t[:, None] * dirs))
        assert np.all(w[:, 0] > 0)
        assert_allclose(-np.sum(np.log(w), axis=1), 1.0, atol=1e-12)


def _newton_shrinking(mu, level):
    """Reference: the crossing Newton loop on a shrinking index set of unfinished rows."""
    top, t = mu[:, -1], np.full(len(mu), np.nan)
    live = np.flatnonzero(top > 0)
    C = np.sum(np.log1p(-np.minimum(mu[live], 0.0) / top[live, None]), axis=1)
    t[live] = -np.expm1(-(level + C)) / top[live]
    while live.size:
        m, tl = mu[live], t[live]
        w = 1.0 - tl[:, None] * m
        new = tl - (-np.sum(np.log(w), axis=1) - level) / np.sum(m / w, axis=1)
        down = new < tl
        live = live[down]
        t[live] = new[down]
    return t


def test_newton_rows_equal_the_shrinking_loop(rng):
    for d in (1, 2, 3, 6):
        mu = np.sort(rng.standard_normal((500, d)) * rng.uniform(0.1, 10.0, (500, 1)), axis=1)
        mu[::5] = -np.abs(mu[::5])  # rows that never leave O
        for level in (0.2, 1.0, 4.0):
            t = two_forms._newton(mu, level)
            assert_array_equal(t, _newton_shrinking(mu, level))
            assert np.isnan(t[mu[:, -1] <= 0]).all()
            assert_array_equal(two_forms._newton(mu[7:8], level), t[7:8])


def _speed(Q1t, Q2t, theta):
    """ds / dtheta of xi = 1 at the angles theta (n, k): on x = t u, t' = -t g.u_perp / g.u."""
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    t, _, g = two_forms._ray_level_hits(Q1t, Q2t, u)
    return np.hypot(t, t * (g[..., 1] * u[..., 0] - g[..., 0] * u[..., 1]) / np.sum(g * u, -1))


def test_midpoint_agrees_with_a_fine_polyline(rng):
    # reference: the arclength midpoint of the polyline through the 2^14 rays inside the
    # arc; the polyline's own first-order error is about 1e-4
    pairs = [PairState(*random_pair_with_common_direction(rng, d)[:2])
             for d in range(2, 6) for _ in range(5)]
    thetas = (np.arange(2 ** 14) + 0.5) * (np.pi / 2) / 2 ** 14
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    for pair in pairs:
        t, _, g = two_forms._ray_level_hits(pair._Q1t[None], pair._Q2t[None], dirs[None])
        pts = (t[0, :, None] * dirs)[(g[0, :, 0] > 0) & (g[0, :, 1] > 0)]
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        want = np.array([np.interp(cum[-1] / 2.0, cum, pts[:, k]) for k in range(2)])
        got = pair_metric(pair).gamma_point
        assert np.linalg.norm(got - want) <= 2e-4 * np.linalg.norm(want)


def test_midpoint_halves_the_arclength(rng):
    # each half taken with a 96-node rule, from the ends to the angle of gamma
    x96, w96 = np.polynomial.legendre.leggauss(96)
    for d in range(2, 6):
        pairs = [PairState(*random_pair_with_common_direction(rng, d)[:2]) for _ in range(10)]
        Q1t, Q2t = np.stack([p._Q1t for p in pairs]), np.stack([p._Q2t for p in pairs])
        ends = two_forms._arc_bounds(Q1t, Q2t)
        gamma = np.stack([pair_metric(p).gamma_point for p in pairs])
        mid = np.arctan2(gamma[:, 1], gamma[:, 0])

        def length(lo, hi):
            half = (hi - lo) / 2.0
            return half * (_speed(Q1t, Q2t, lo[:, None] + half[:, None] * (x96 + 1.0)) @ w96)

        assert np.all((ends[:, 0] < mid) & (mid < ends[:, 1]))
        assert_allclose(length(ends[:, 0], mid), length(mid, ends[:, 1]), rtol=1e-12)


def _searches_pairs(seed=1, n=24, d=3, margin=0.3):
    """The pairs of the benchmark's `searches` workload for a seed (its numpy generator):
    indefinite forms both >= margin on a random unit vector, identity base metric."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[2])
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vv = v[:, :, None] * np.conj(v)[:, None, :]
    forms = []
    for _ in range(2):
        Q = _herm(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
        val = np.real(np.einsum("ni,nij,nj->n", np.conj(v), Q, v))
        forms.append(_herm(Q + (rng.uniform(margin, 1.0, size=n) - val)[:, None, None] * vv))
    return forms


def test_midpoint_starts_at_the_interpolant_root(monkeypatch):
    # L's call and one Newton step: the interpolant's root is already within MID_TOL
    x96, w96 = np.polynomial.legendre.leggauss(96)
    Q1t, Q2t = _searches_pairs()
    ends = two_forms._arc_bounds(Q1t, Q2t)
    calls = []
    hits = two_forms._ray_level_hits
    monkeypatch.setattr(two_forms, "_ray_level_hits", lambda *a: calls.append(1) or hits(*a))
    mid = two_forms._midpoint_angles(Q1t, Q2t, ends)
    assert len(calls) <= 3, len(calls)

    def length(lo, hi):
        half = (hi - lo) / 2.0
        return half * np.sum(_speed(Q1t, Q2t, lo[:, None] + half[:, None] * (x96 + 1.0)) * w96, -1)

    assert_allclose(length(ends[:, 0], mid), length(mid, ends[:, 1]), rtol=1e-12)


def test_interpolant_midpoint_halves_a_polynomial_integral():
    # v = 1 + y + y^47 / 2 is its own interpolant; S(y) = y + 1 + (y^2 - 1) / 2 + (y^48 - 1) / 96
    v = 1.0 + two_forms.GL_X + two_forms.GL_X ** 47 / 2.0
    y = two_forms._interpolant_midpoint(np.stack([v, np.full_like(v, 3.0)]))
    S = y[0] + 1.0 + (y[0] ** 2 - 1.0) / 2.0 + (y[0] ** 48 - 1.0) / 96.0
    assert S == pytest.approx(1.0, abs=1e-14)  # half of S(1) = 2
    assert y[1] == pytest.approx(0.0, abs=1e-15)


def test_narrow_arc_is_found(rng):
    # Tr Q1 > 0 and Tr Q2 > 0 need the Gram eigenvalues in a ratio within (a, 1 / a): at
    # a = 0.99 an arc 7.8e-5 wide about pi / 4, between two of the rays (k + 1/2) pi / 1024
    a = 0.99
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    pair = PairState(*(U @ np.diag(v) @ U.conj().T for v in ([1.0, -a], [-a, 1.0])))
    (lo, hi), = two_forms._arc_bounds(pair._Q1t[None], pair._Q2t[None])
    assert 0.0 < hi - lo < np.pi / 1024
    rays = (np.arange(512) + 0.5) * np.pi / 1024
    assert not np.any((lo <= rays) & (rays <= hi))
    res = pair_metric(pair)
    assert lo < np.arctan2(res.gamma_point[1], res.gamma_point[0]) < hi
    assert min(res.traces) > 0
    assert abs(xi_eval(pair, res.gamma_point).xi - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_trace_signs_are_monotone_along_the_level_curve(d, seed):
    Q1, Q2, _ = random_pair_with_common_direction(np.random.default_rng(seed), d)
    pair = PairState(Q1, Q2)
    thetas = np.linspace(0.0, np.pi / 2, 257)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    _, _, g = two_forms._ray_level_hits(pair._Q1t[None], pair._Q2t[None], dirs[None])
    pos1, pos2 = g[0, :, 0] > 0, g[0, :, 1] > 0
    assert not np.any(pos1[1:] & ~pos1[:-1])  # Tr Q1 > 0 on [0, theta_b)
    assert not np.any(pos2[:-1] & ~pos2[1:])  # Tr Q2 > 0 on (theta_a, pi / 2]
    (lo, hi), = two_forms._arc_bounds(pair._Q1t[None], pair._Q2t[None])
    far = 1e-9
    assert np.all(pos2[thetas > lo + far]) and not np.any(pos2[thetas < lo - far])
    assert np.all(pos1[thetas < hi - far]) and not np.any(pos1[thetas > hi + far])


def test_level_curve_identity_pair_closed_form():
    pair = PairState(np.eye(2), np.eye(2))
    samples = trace_level_curve(pair, n_angles=64)
    for s in samples:
        assert s.x[0] + s.x[1] == pytest.approx(C_HALF, abs=1e-10)
        assert abs(s.xi - 1.0) <= 1e-10
        assert_allclose(s.grad, 2.0 * np.exp(0.5) * np.ones(2), rtol=1e-9)
        assert s.in_gamma_tilde
    thetas = [s.theta for s in samples]
    assert thetas == sorted(thetas)


def test_level_curve_crossed_pair_has_members():
    Q1, Q2 = np.diag([1.0, -0.5]), np.diag([-0.5, 1.0])
    samples = trace_level_curve(PairState(Q1, Q2), n_angles=128)
    members = [s for s in samples if s.in_gamma_tilde]
    assert members  # guaranteed nonempty when a common direction exists
    idx = [i for i, s in enumerate(samples) if s.in_gamma_tilde]
    assert idx == list(range(idx[0], idx[-1] + 1))


def test_level_curve_requires_common_direction():
    with pytest.raises(NoCommonDirection):
        trace_level_curve(PairState(np.eye(2), -np.eye(2)))


# ------------------------------------------------------------- pair_metric

def test_pair_metric_identity_closed_form():
    res = pair_metric(PairState(np.eye(2), np.eye(2)))
    assert res.proportional and res.mu == pytest.approx(1.0)
    assert_allclose(res.gamma_point, [C_HALF / 2, C_HALF / 2], atol=1e-6)
    assert_allclose(res.metric, np.exp(-0.5) * np.eye(2), atol=1e-9)
    assert_allclose(res.traces, 2.0 * np.exp(0.5) * np.ones(2), rtol=1e-9)


def test_pair_metric_proportional_mu_2():
    res = pair_metric(PairState(2.0 * np.eye(2), np.eye(2)))
    assert res.proportional and res.mu == pytest.approx(2.0)
    assert_allclose(res.gamma_point, [C_HALF / 4, C_HALF / 2], atol=1e-9)


def test_pair_metric_warns_near_proportional():
    Q2 = np.diag([1.0, 2.0])
    Q1 = 1.5 * Q2 + 1e-8 * np.diag([1.0, -1.0])
    with pytest.warns(UserWarning, match="nearly proportional"):
        res = pair_metric(PairState(Q1, Q2))
    assert res.traces[0] > 0 and res.traces[1] > 0


def test_pair_metric_nonproportional_traces_positive():
    Q1, Q2 = np.diag([1.0, -0.5]), np.diag([-0.5, 1.0])
    res = pair_metric(PairState(Q1, Q2))
    assert not res.proportional
    assert res.traces[0] > 0 and res.traces[1] > 0
    ev = xi_eval(PairState(Q1, Q2), res.gamma_point)
    assert abs(ev.xi - 1.0) <= 1e-6
    assert res.gamma_point[0] > 0 and res.gamma_point[1] > 0


def test_pair_metric_level_point_and_quadrant_random(rng):
    for _ in range(15):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        pair = PairState(Q1, Q2)
        res = pair_metric(pair)
        assert res.gamma_point[0] > 0 and res.gamma_point[1] > 0
        assert abs(xi_eval(pair, res.gamma_point).xi - 1.0) <= 1e-6
        assert trace_wrt(Q1, res.metric) > 0
        assert trace_wrt(Q2, res.metric) > 0


def test_pair_metric_empirical_continuity(rng):
    ratios = []
    for _ in range(30):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        base = pair_metric(PairState(Q1, Q2))
        delta = 1e-4
        E1 = random_hermitian(rng, 3)
        E2 = random_hermitian(rng, 3)
        E1 *= delta / np.linalg.norm(E1, 2)
        E2 *= delta / np.linalg.norm(E2, 2)
        pert = pair_metric(PairState(Q1 + E1, Q2 + E2))
        ratios.append(np.linalg.norm(pert.gamma_point - base.gamma_point) / delta)
    assert np.isfinite(ratios).all()
    assert max(ratios) < 1e4


# ------------------------------------------------------------- field level

def _pair_field(ids, pairs, **kw):
    """The field with the pairs ``(Q1, Q2)`` at the points ``ids``."""
    Q1, Q2 = (np.array(Q, dtype=complex) for Q in zip(*pairs))
    return FormField.from_stacks(ids, {"Q1": Q1, "Q2": Q2}, **kw)


def test_field_constant_identity_pair():
    field = _pair_field(range(5), [(np.eye(2), np.eye(2))] * 5)
    metrics, certs, gammas, cont = field_metric_top_degree(field, ("Q1", "Q2"))
    assert certs["Q1"].passed and certs["Q2"].passed
    assert np.ptp(gammas, axis=0).max() < 1e-12  # identical gamma at all points


def test_field_varying_pair_with_adjacency(rng):
    def pair_at(a):
        return np.diag([1.0, -a]).astype(complex), np.diag([-a, 1.0]).astype(complex)

    for n in (8, 16):
        field = _pair_field([f"p{i}" for i in range(n)],
                            [pair_at(a) for a in np.linspace(0.1, 0.5, n)],
                            neighbors=[[f"p{i-1}"] if i else [] for i in range(n)])
        metrics, certs, gammas, cont = field_metric_top_degree(field, ("Q1", "Q2"))
        assert certs["Q1"].passed and certs["Q2"].passed
        neigh = field.neighbor_indices()  # the per-neighbour comprehension, exactly
        assert cont["max_gamma_jump"] == float(max(
            np.linalg.norm(gammas[i] - gammas[j]) for i in range(n) for j in neigh[i]))
        if n == 8:
            jump8 = cont["max_gamma_jump"]
    assert cont["max_gamma_jump"] < jump8  # refinement shrinks adjacent jumps


def test_field_flags_missing_common_direction():
    field = _pair_field(["ok", "bad"], [(np.eye(2), np.eye(2)), (np.eye(2), -np.eye(2))])
    with pytest.raises(NoCommonDirection) as exc:
        field_metric_top_degree(field, ("Q1", "Q2"))
    assert exc.value.point_id == "bad"
    assert exc.value.lam_max <= DIRECTION_FLOOR_SCALE


def _midpoint_at_zero(monkeypatch, row):
    """Move the midpoint angle of the ``row``-th non-proportional pair to theta = 0."""
    angles = two_forms._midpoint_angles

    def planted(*args):
        theta = angles(*args)
        theta[row] = 0.0
        return theta

    monkeypatch.setattr(two_forms, "_midpoint_angles", planted)


def test_field_certificate_failure_names_the_point(monkeypatch):
    # theta = 0 lies before the arc of "coarse" (theta_a > 0), where Tr Q2 < 0
    field = _pair_field(["ok", "coarse"], [(np.eye(2), np.eye(2)), COARSE])
    _midpoint_at_zero(monkeypatch, 0)  # "ok" is proportional: "coarse" is the only row
    with pytest.raises(CertificateFailed, match="output traces not positive") as exc:
        field_metric_top_degree(field, ("Q1", "Q2"))
    assert exc.value.failed_ids == ["coarse"]


def _crossed(a):
    return np.diag([1.0, -a]).astype(complex), np.diag([-a, 1.0]).astype(complex)


COARSE = (np.diag([1.0, -3.0]).astype(complex), np.diag([-0.1, 1.0]).astype(complex))


def test_coarse_pair_passes_with_interior_arc_ends():
    # one ray at theta = pi / 4 missed this arc, and the pair failed as "n_angles too coarse"
    pair = PairState(*COARSE)
    (lo, hi), = two_forms._arc_bounds(pair._Q1t[None], pair._Q2t[None])
    assert 0.0 < lo < hi < np.pi / 2
    assert not lo <= np.pi / 4 <= hi
    res = pair_metric(pair)
    assert lo < np.arctan2(res.gamma_point[1], res.gamma_point[0]) < hi
    assert min(res.traces) > 0


def _crossed_field(special=()):
    """Five crossed pairs p0 ... p4; ``special`` maps a point index to its own pair."""
    special = dict(special)
    return _pair_field([f"p{i}" for i in range(5)], [
        special.get(i, _crossed(a)) for i, a in enumerate(np.linspace(0.1, 0.5, 5))])


def _planted_at_gamma(monkeypatch, off_level=(), negated=()):
    """In the recheck at gamma, move xi off the level at the rows ``off_level`` and
    negate both traces at the rows ``negated``."""
    spectra = two_forms._gram_spectra

    def planted(Q1t, Q2t, X):
        w, U, traces = spectra(Q1t, Q2t, X)
        w[list(off_level)] *= np.exp(-1e-6)  # xi rises by d * 1e-6
        traces[list(negated)] *= -1.0
        return w, U, traces

    monkeypatch.setattr(two_forms, "_gram_spectra", planted)


def test_field_level_not_reached_names_the_point(monkeypatch):
    _, _, gammas, _ = field_metric_top_degree(_crossed_field(), ("Q1", "Q2"))
    _planted_at_gamma(monkeypatch, off_level=[2])
    with pytest.raises(LevelNotReached, match="at point 'p2'") as exc:
        field_metric_top_degree(_crossed_field(), ("Q1", "Q2"))
    assert exc.value.point_id == "p2"
    assert exc.value.theta == pytest.approx(np.arctan2(gammas[2, 1], gammas[2, 0]))
    assert exc.value.radius == pytest.approx(np.linalg.norm(gammas[2]))


def test_field_certificate_failure_in_the_middle_names_the_point(monkeypatch):
    _midpoint_at_zero(monkeypatch, 2)
    with pytest.raises(CertificateFailed, match="output traces not positive") as exc:
        field_metric_top_degree(_crossed_field({2: COARSE}), ("Q1", "Q2"))
    assert exc.value.failed_ids == ["p2"]


def test_field_raises_for_the_first_failing_point(monkeypatch):
    # p3 leaves the level and p1 has negative traces at gamma: p1 is raised, whichever
    # failure comes first in the recheck
    with monkeypatch.context() as m:
        _planted_at_gamma(m, off_level=[3], negated=[1])
        with pytest.raises(CertificateFailed, match="output traces not positive") as exc:
            field_metric_top_degree(_crossed_field(), ("Q1", "Q2"))
        assert exc.value.failed_ids == ["p1"]
    _planted_at_gamma(monkeypatch, off_level=[1], negated=[3])
    with pytest.raises(LevelNotReached, match="at point 'p1'"):
        field_metric_top_degree(_crossed_field(), ("Q1", "Q2"))


def _mixed_field(rng, n, d=3):
    """General, proportional (Q1 = mu Q2) and near-proportional pairs, each with its own g0."""
    pairs, g0 = [], []
    for i in range(n):
        Q1, Q2, _ = random_pair_with_common_direction(rng, d)
        if i % 4 == 1:
            Q1 = rng.uniform(0.5, 2.0) * Q2
        elif i % 4 == 2:
            Q1 = 0.8 * Q2 + 1e-8 * random_hermitian(rng, d)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pairs.append((Q1, Q2))
        g0.append(A @ A.conj().T + d * np.eye(d))
    return _pair_field([f"p{i}" for i in range(n)], pairs, g0=np.array(g0))


@pytest.mark.filterwarnings("ignore:forms are nearly proportional")
def test_field_equals_per_point_pair_metrics_bit_for_bit(rng, monkeypatch):
    field = _mixed_field(rng, 40)
    metrics, _, gammas, _ = field_metric_top_degree(field, ("Q1", "Q2"))
    single = [pair_metric(PairState(Q1, Q2, base=g0)) for Q1, Q2, g0 in
              zip(field.form_stack("Q1"), field.form_stack("Q2"), field.g0)]
    assert sum(r.proportional for r in single) == 10
    assert_array_equal(gammas, np.stack([r.gamma_point for r in single]))
    assert_array_equal(metrics, np.stack([r.metric for r in single]))
    # chunks split points and pairs of points: 7 (3, 3) matrices per chunk
    monkeypatch.setattr(two_forms, "RAY_CHUNK", 7 * 9)
    chunked, _, chunked_gammas, _ = field_metric_top_degree(field, ("Q1", "Q2"))
    assert_array_equal(chunked_gammas, gammas)
    assert_array_equal(chunked, metrics)


@pytest.mark.filterwarnings("ignore:forms are nearly proportional")
def _with_interior_pair(field, pair):
    """The field with the pair ``(Q1, Q2)`` as one more point, with g0 = I."""
    return _pair_field([*field.ids, "interior"],
                       [*zip(field.form_stack("Q1"), field.form_stack("Q2")), pair],
                       g0=np.concatenate([field.g0, np.eye(3)[None]]))


@pytest.mark.filterwarnings("ignore:forms are nearly proportional")
def test_field_eigensolve_count_does_not_grow_with_points(rng, monkeypatch):
    # the arc ends and midpoints iterate until each point has converged, so a count is a
    # maximum over points: 30 points that repeat 3 take the 3 points' count, and any
    # field stays within the step caps.  Golden section runs only for a pair whose
    # minimum over t is interior, so both fields carry the same planted interior pair
    while True:
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        if 0 < common_direction(Q1[None], Q2[None])[1][0] < 1:
            break
    few = _with_interior_pair(_mixed_field(rng, 3), (Q1, Q2))
    rows = np.tile(np.arange(len(few)), 10)
    repeated = FormField.from_stacks([f"{i}.{k}" for k in range(10) for i in few.ids],
                                     {name: S[rows] for name, S in few.forms.items()},
                                     g0=few.g0[rows])
    counts = []
    for field in (few, repeated, _with_interior_pair(_mixed_field(rng, 30), (Q1, Q2))):
        calls = {"eigh": 0, "eigvalsh": 0}
        with monkeypatch.context() as m:
            for name in calls:
                def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                m.setattr(np.linalg, name, counted)
            field_metric_top_degree(field, ("Q1", "Q2"))
        counts.append(calls)
    assert counts[0] == counts[1], counts
    assert counts[2]["eigvalsh"] == counts[0]["eigvalsh"] >= two_forms.GOLDEN_STEPS, counts
    # the end grid, the bracket steps, L, the Newton steps, gamma's ray and its recheck
    assert counts[2]["eigh"] <= 1 + two_forms.MAX_STEPS + 1 + two_forms.MAX_STEPS + 2, counts


def test_field_level_curve_working_set_does_not_grow_with_d():
    # RAY_CHUNK budgets matrix entries, not rays: at d = 8 a chunk of 16,384
    # rays held about 58 MB of numpy allocations; budgeted, it stays near d = 3's
    import tracemalloc

    rng = np.random.default_rng(8)
    field = _pair_field(range(200), [random_pair_with_common_direction(rng, 8)[:2]
                                     for _ in range(200)])
    tracemalloc.start()
    try:
        field_metric_top_degree(field, ("Q1", "Q2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak
