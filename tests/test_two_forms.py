"""Two-form midpoint construction: xi calculus, level curves, pair metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qpos import (
    CertificateFailed,
    FieldPoint,
    FormField,
    LevelNotReached,
    NoCommonDirection,
    PairState,
    common_direction,
    field_metric_top_degree,
    find_common_direction,
    pair_metric,
    trace_level_curve,
    trace_wrt,
    xi_eval,
)
from qpos import two_forms
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


# ----------------------------------------------------------- level tracing

def test_ray_level_hits_on_the_level_set(rng):
    thetas = np.linspace(0.0, np.pi / 2, 64)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    pairs = [PairState(*random_pair_with_common_direction(rng, 3)[:2]) for _ in range(24)]
    Q1t, Q2t = (np.stack([getattr(p, name) for p in pairs]) for name in ("_Q1t", "_Q2t"))
    T, _, _ = two_forms._ray_level_hits(Q1t, Q2t, np.broadcast_to(dirs, (24, 64, 2)), 1.0)
    for pair, t in zip(pairs, T):
        # independent path: eigenvalues of the Gram matrix at each crossing
        w = np.linalg.eigvalsh(pair.gram(t[:, None] * dirs))
        assert np.all(w[:, 0] > 0)
        assert_allclose(-np.sum(np.log(w), axis=1), 1.0, atol=1e-12)


def test_arc_midpoints_equal_per_arc_interp(rng):
    # reference: the polyline of the member rays and np.interp at half its length
    X = rng.uniform(0.0, 1.0, size=(300, 12, 2))
    X[::7, 3:9] = X[::7, 3:4]  # runs of repeated points: zero-length segments
    X[2::11] = np.stack([0.25 * np.arange(12), np.zeros(12)], axis=1)  # half often a node
    first = rng.integers(0, 12, 300)
    last = np.minimum(first + rng.integers(0, 12, 300), 11)
    member = (np.arange(12) >= first[:, None]) & (np.arange(12) <= last[:, None])
    mid = two_forms._arc_midpoints(X, member)
    for x, m, got in zip(X, member, mid):
        pts = x[m]
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        want = [np.interp(cum[-1] / 2.0, cum, pts[:, k]) for k in range(2)]
        assert_array_equal(got, want)


def test_level_curve_noncontiguous_arc_is_certificate_failure(monkeypatch):
    traces = two_forms._traces

    def striped(Q1t, Q2t, U, w):  # every other ray loses its positive Q1 trace
        g = traces(Q1t, Q2t, U, w)
        g[..., 1::2, 0] *= -1.0
        return g

    monkeypatch.setattr(two_forms, "_traces", striped)
    with pytest.raises(CertificateFailed, match="not contiguous"):
        trace_level_curve(PairState(np.eye(2), np.eye(2)), n_angles=8)


def test_level_curve_identity_pair_closed_form():
    pair = PairState(np.eye(2), np.eye(2), witness=np.array([1.0, 0.0]))
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
    pair = PairState(Q1, Q2)
    pair.witness = find_common_direction(Q1, Q2)
    samples = trace_level_curve(pair, n_angles=128)
    members = [s for s in samples if s.in_gamma_tilde]
    assert members  # guaranteed nonempty when a common direction exists
    idx = [i for i, s in enumerate(samples) if s.in_gamma_tilde]
    assert idx == list(range(idx[0], idx[-1] + 1))


def test_level_curve_requires_common_direction():
    with pytest.raises(NoCommonDirection):
        trace_level_curve(PairState(np.eye(2), -np.eye(2)))


# ------------------------------------------------------------- pair_metric

def test_pair_metric_identity_closed_form():
    res = pair_metric(PairState(np.eye(2), np.eye(2)), n_angles=512)
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
        res = pair_metric(PairState(Q1, Q2), n_angles=256)
    assert res.traces[0] > 0 and res.traces[1] > 0


def test_pair_metric_nonproportional_traces_positive():
    Q1, Q2 = np.diag([1.0, -0.5]), np.diag([-0.5, 1.0])
    res = pair_metric(PairState(Q1, Q2), n_angles=256)
    assert not res.proportional
    assert res.traces[0] > 0 and res.traces[1] > 0
    ev = xi_eval(PairState(Q1, Q2), res.gamma_point)
    assert abs(ev.xi - 1.0) <= 1e-6
    assert res.gamma_point[0] > 0 and res.gamma_point[1] > 0


def test_pair_metric_level_point_and_quadrant_random(rng):
    for _ in range(15):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        pair = PairState(Q1, Q2)
        res = pair_metric(pair, n_angles=128)
        assert res.gamma_point[0] > 0 and res.gamma_point[1] > 0
        assert abs(xi_eval(pair, res.gamma_point).xi - 1.0) <= 1e-6
        assert trace_wrt(Q1, res.metric) > 0
        assert trace_wrt(Q2, res.metric) > 0


def test_pair_metric_empirical_continuity(rng):
    ratios = []
    for _ in range(30):
        Q1, Q2, _ = random_pair_with_common_direction(rng, 3)
        base = pair_metric(PairState(Q1, Q2), n_angles=256)
        delta = 1e-4
        E1 = random_hermitian(rng, 3)
        E2 = random_hermitian(rng, 3)
        E1 *= delta / np.linalg.norm(E1, 2)
        E2 *= delta / np.linalg.norm(E2, 2)
        pert = pair_metric(PairState(Q1 + E1, Q2 + E2), n_angles=256)
        ratios.append(np.linalg.norm(pert.gamma_point - base.gamma_point) / delta)
    assert np.isfinite(ratios).all()
    assert max(ratios) < 1e4


# ------------------------------------------------------------- field level

def test_field_constant_identity_pair():
    pts = [FieldPoint(id=i, forms={"Q1": np.eye(2, dtype=complex),
                                   "Q2": np.eye(2, dtype=complex)}) for i in range(5)]
    field = FormField(dim=2, points=pts)
    metrics, certs, gammas, cont = field_metric_top_degree(field, ("Q1", "Q2"))
    assert certs["Q1"].passed and certs["Q2"].passed
    assert np.ptp(gammas, axis=0).max() < 1e-12  # identical gamma at all points


def test_field_varying_pair_with_adjacency(rng):
    def pair_at(a):
        return np.diag([1.0, -a]).astype(complex), np.diag([-a, 1.0]).astype(complex)

    for n in (8, 16):
        pts = []
        for i, a in enumerate(np.linspace(0.1, 0.5, n)):
            Q1, Q2 = pair_at(a)
            nbrs = [f"p{i-1}"] if i else []
            pts.append(FieldPoint(id=f"p{i}", forms={"Q1": Q1, "Q2": Q2}, neighbors=nbrs))
        field = FormField(dim=2, points=pts)
        metrics, certs, gammas, cont = field_metric_top_degree(field, ("Q1", "Q2"),
                                                               n_angles=128)
        assert certs["Q1"].passed and certs["Q2"].passed
        neigh = field.neighbor_indices()  # the per-neighbour comprehension, exactly
        assert cont["max_gamma_jump"] == float(max(
            np.linalg.norm(gammas[i] - gammas[j]) for i in range(n) for j in neigh[i]))
        if n == 8:
            jump8 = cont["max_gamma_jump"]
    assert cont["max_gamma_jump"] < jump8  # refinement shrinks adjacent jumps


def test_field_flags_missing_common_direction():
    pts = [
        FieldPoint(id="ok", forms={"Q1": np.eye(2, dtype=complex),
                                   "Q2": np.eye(2, dtype=complex)}),
        FieldPoint(id="bad", forms={"Q1": np.eye(2, dtype=complex),
                                    "Q2": -np.eye(2, dtype=complex)}),
    ]
    field = FormField(dim=2, points=pts)
    with pytest.raises(NoCommonDirection) as exc:
        field_metric_top_degree(field, ("Q1", "Q2"))
    assert exc.value.point_id == "bad"
    assert exc.value.lam_max <= DIRECTION_FLOOR_SCALE


def test_field_certificate_failure_names_the_point():
    # one ray at theta = pi/4 misses the positive-gradient arc of "coarse"
    pts = [FieldPoint(id="ok", forms={"Q1": np.eye(2, dtype=complex),
                                      "Q2": np.eye(2, dtype=complex)}),
           FieldPoint(id="coarse", forms={"Q1": np.diag([1.0, -3.0]).astype(complex),
                                          "Q2": np.diag([-0.1, 1.0]).astype(complex)})]
    with pytest.raises(CertificateFailed, match="empty positive-gradient arc") as exc:
        field_metric_top_degree(FormField(dim=2, points=pts), ("Q1", "Q2"), n_angles=1)
    assert exc.value.failed_ids == ["coarse"]


def _crossed(a):
    return np.diag([1.0, -a]).astype(complex), np.diag([-a, 1.0]).astype(complex)


COARSE = (np.diag([1.0, -3.0]).astype(complex), np.diag([-0.1, 1.0]).astype(complex))


def _crossed_field(special=()):
    """Five crossed pairs p0 ... p4; ``special`` maps a point index to its own pair."""
    special = dict(special)
    return FormField(dim=2, points=[
        FieldPoint(id=f"p{i}", forms=dict(zip(("Q1", "Q2"), special.get(i, _crossed(a)))))
        for i, a in enumerate(np.linspace(0.1, 0.5, 5))])


def _crossing_off_level(monkeypatch, row):
    """Shift xi at the last ray of pair ``row`` in the level-curve sweep off the level."""
    hits, calls = two_forms._ray_level_hits, []

    def off(Q1t, Q2t, dirs, level):
        t, xi, traces = hits(Q1t, Q2t, dirs, level)
        if not calls:  # the first call is the sweep, the second the midpoint rays
            xi[row, -1] += 1e-6
        calls.append(len(dirs))
        return t, xi, traces

    monkeypatch.setattr(two_forms, "_ray_level_hits", off)


def test_field_level_not_reached_names_the_point(monkeypatch):
    _crossing_off_level(monkeypatch, 2)
    with pytest.raises(LevelNotReached, match="at point 'p2'") as exc:
        field_metric_top_degree(_crossed_field(), ("Q1", "Q2"), n_angles=16)
    assert exc.value.point_id == "p2"
    assert exc.value.theta == pytest.approx(15.5 * np.pi / 32)


def test_field_certificate_failure_in_the_middle_names_the_point():
    with pytest.raises(CertificateFailed, match="empty positive-gradient arc") as exc:
        field_metric_top_degree(_crossed_field({2: COARSE}), ("Q1", "Q2"), n_angles=1)
    assert exc.value.failed_ids == ["p2"]


def test_field_raises_for_the_first_failing_point(monkeypatch):
    # p3 fails early (level missed in the sweep), p1 late (trace at gamma): p1 is raised
    spectra = two_forms._gram_spectra

    def negated(Q1t, Q2t, X):
        w, U, traces = spectra(Q1t, Q2t, X)
        traces[1] *= -1.0  # row 1 of the points still alive (p0, p1, p2, p4) is p1
        return w, U, traces

    monkeypatch.setattr(two_forms, "_gram_spectra", negated)
    _crossing_off_level(monkeypatch, 3)
    with pytest.raises(CertificateFailed, match="output traces not positive") as exc:
        field_metric_top_degree(_crossed_field(), ("Q1", "Q2"), n_angles=16)
    assert exc.value.failed_ids == ["p1"]


def _mixed_field(rng, n, d=3):
    """General, proportional (Q1 = mu Q2) and near-proportional pairs, each with its own g0."""
    pts = []
    for i in range(n):
        Q1, Q2, _ = random_pair_with_common_direction(rng, d)
        if i % 4 == 1:
            Q1 = rng.uniform(0.5, 2.0) * Q2
        elif i % 4 == 2:
            Q1 = 0.8 * Q2 + 1e-8 * random_hermitian(rng, d)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pts.append(FieldPoint(id=f"p{i}", forms={"Q1": Q1, "Q2": Q2},
                              g0=A @ A.conj().T + d * np.eye(d)))
    return FormField(dim=d, points=pts)


@pytest.mark.filterwarnings("ignore:forms are nearly proportional")
def test_field_equals_per_point_pair_metrics_bit_for_bit(rng, monkeypatch):
    field = _mixed_field(rng, 40)
    metrics, _, gammas, _ = field_metric_top_degree(field, ("Q1", "Q2"), n_angles=64)
    single = [pair_metric(PairState(p.forms["Q1"], p.forms["Q2"], base=p.g0), n_angles=64)
              for p in field.points]
    assert sum(r.proportional for r in single) == 10
    assert_array_equal(gammas, np.stack([r.gamma_point for r in single]))
    assert_array_equal(metrics, np.stack([r.metric for r in single]))
    monkeypatch.setattr(two_forms, "RAY_CHUNK", 7)  # chunks split points and pairs of points
    chunked, _, chunked_gammas, _ = field_metric_top_degree(field, ("Q1", "Q2"), n_angles=64)
    assert_array_equal(chunked_gammas, gammas)
    assert_array_equal(chunked, metrics)


@pytest.mark.filterwarnings("ignore:forms are nearly proportional")
def test_field_eigensolve_count_does_not_grow_with_points(rng, monkeypatch):
    counts = []
    for n in (3, 30):
        field = _mixed_field(rng, n)
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
