"""Domains, Levi forms, Z(q) pipeline, and the weight bump."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qpos import BoundNotFound, DimensionMismatch, QposError, SchemaError, ZqViolated, inertia
from qpos.geometry import (
    BallDomain,
    BoundarySamples,
    CustomDomain,
    MqnManifold,
    ProductDomain,
    QuadricDomain,
    adjacency_components,
    chi,
    chi_double_prime,
    chi_prime,
    complex_hessian,
    domain_from_spec,
    fd_complex_gradient,
    fd_complex_hessian,
    levi_forms,
    sample_boundary,
    weight_bump,
    zq_check,
    zq_metric_pipeline,
)
from qpos.geometry import levi
from qpos.geometry.bump import ETA_FACTOR, ETA_STEPS, _eta_dual, _find_delta0
from qpos.geometry.domains import FD_HESSIAN_STEP, FD_STEP, RADIUS_MAX
from qpos.geometry.levi import KNN, MIN_GRADIENT, NEWTON_MAX_ITER, NEWTON_TOL, newton_project
from qpos.hermitian import sign_counts
from qpos.synthetic import random_unitary

MU = [2.0, 2.0, -0.5, -0.5]


def _unit_sphere(z):
    return np.sum(np.abs(z) ** 2, axis=-1) - 1.0


class IndefWeight:
    """|z1|^2 + |z2|^2 - 3 |z3|^2, with its one constant Hessian for every point."""

    def __call__(self, z):
        return np.sum(np.abs(z) ** 2 * [1.0, 1.0, -3.0], axis=-1)

    def hessian(self, z):
        return np.diag([1.0, 1.0, -3.0]).astype(complex)


@pytest.fixture(scope="module")
def quadric():
    return QuadricDomain(mu=MU, n=3, q=2)


@pytest.fixture(scope="module")
def quadric_samples(quadric):
    return sample_boundary(quadric, 120, seed=4)


# ------------------------------------------------------------ complex Hessians

def test_hessian_of_squared_norm_is_identity_block():
    dom = ProductDomain(n=3, q=2)
    w = dom.weight_fn(chart=0)
    z = np.array([0.3 + 0.1j, -0.2j, 0.7])
    M = complex_hessian(w, z)
    expect = np.zeros((3, 3))
    expect[:2, :2] = np.eye(2)
    assert_allclose(M, expect, atol=1e-12)


def test_hessian_of_pluriharmonic_is_zero():
    f = lambda z: np.real(z[..., 0])
    M = complex_hessian(f, np.array([0.4 + 0.2j, -0.1j]))
    assert np.max(np.abs(M)) < 1e-7


def test_quadric_analytic_hessians_match_fd(quadric, rng):
    for chart in (0, 3):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fd = fd_complex_hessian(lambda zz: quadric.rho(zz, chart), z)
        an = quadric.rho_hessian(z, chart)
        assert np.max(np.abs(fd - an)) <= 1e-6 * max(1.0, np.max(np.abs(an)))
    # weight in a chart where the point lies in the model manifold
    s = sample_boundary(quadric, 3, seed=9)
    wfn = quadric.weight_fn(s.chart[0])
    fd = fd_complex_hessian(wfn, s.z[0])
    an = wfn.hessian(s.z[0])
    assert np.max(np.abs(fd - an)) <= 1e-6 * max(1.0, np.max(np.abs(an)))


def test_mqn_inertia_profile(rng):
    m = MqnManifold(3, 2)
    chart, z = m.sample_chart_points(rng, 60)
    n_plus, n_minus = sign_counts(np.linalg.eigvalsh(m.weight_fn(chart).hessian(z)))
    assert n_plus.tolist() == [2] * 60 and n_minus.tolist() == [1] * 60
    chart, z = m.sample_chart_points(rng, 30, on_S=True)
    lam = np.linalg.eigvalsh(m.weight_fn(chart).hessian(z))
    assert np.all(lam[:, 0] >= -1e-8)  # the q - 1 negative eigenvalues vanish on S
    assert np.all(np.sum(lam > 1e-8, axis=1) == 2)


# ------------------------------------------------------------------ Levi forms

def test_ball_levi_is_positive():
    dom = BallDomain(n=2)
    L = levi_forms(dom, sample_boundary(dom, 25, seed=1))
    assert L.shape == (25, 1, 1)
    assert np.all(L[:, 0, 0].real > 0.9)


def test_levi_scaling_by_defining_function():
    base = CustomDomain(n=2, rho=_unit_sphere)
    doubled = CustomDomain(n=2, rho=lambda z: 2.0 * _unit_sphere(z))
    fancy = CustomDomain(n=2, rho=lambda z: (2.0 + _unit_sphere(z)) * _unit_sphere(z))
    s = sample_boundary(base, 10, seed=2)
    L0 = levi_forms(base, s)
    L2 = levi_forms(doubled, replace(s, w=doubled.rho_dz(s.z, s.chart)))
    assert_allclose(L2, 2.0 * L0, rtol=1e-4)
    f = 1.0 + np.sum(np.abs(s.z) ** 2, axis=1)  # = 2 on the unit sphere
    Lf = levi_forms(fancy, s)
    assert_allclose(Lf, f[:, None, None] * L0, rtol=1e-4)
    for i in range(len(s)):
        assert inertia(Lf[i]).as_tuple() == inertia(L0[i]).as_tuple()


def test_boundary_samples_satisfy_invariants(quadric, quadric_samples):
    s = quadric_samples
    z, chart, w, frame = s.z[:40], s.chart[:40], s.w[:40], s.frame[:40]
    assert np.all(np.abs(quadric.rho(z, chart)) < 1e-10)
    assert np.all(np.linalg.norm(w, axis=1) >= 1e-6)
    # frames annihilate d rho
    assert np.max(np.abs(np.einsum("mj,mjk->mk", w, frame))) < 1e-10
    gram = np.conj(np.swapaxes(frame, 1, 2)) @ frame
    assert np.all(np.linalg.norm(gram - np.eye(2), axis=(1, 2)) < 1e-10)


def test_quadric_chart_overlap_consistency(quadric, quadric_samples):
    # rho and the weight are genuine functions on projective space; the Levi
    # inertia is frame-independent: all agree across charts
    s = quadric_samples
    z, chart = s.z[:10], s.chart[:10]
    w_hom = quadric.homogeneous(z, chart)
    order = np.argsort(np.abs(w_hom), axis=1)
    other = np.where(order[:, -1] == chart, order[:, -2], order[:, -1])
    assert np.all(other != chart)
    idx = np.array([[j for j in range(4) if j != c] for c in other])
    z2 = np.take_along_axis(w_hom, idx, axis=1) / w_hom[np.arange(10), other][:, None]
    assert np.all(np.abs(quadric.rho(z2, other) - quadric.rho(z, chart)) < 1e-8)
    assert np.all(np.abs(quadric.weight_fn(other)(z2) - quadric.weight_fn(chart)(z)) < 1e-8)
    L2 = levi_forms(quadric, BoundarySamples.at(quadric, z2, other))
    L = levi_forms(quadric, s)[:10]
    for i in range(10):
        assert inertia(L2[i]).as_tuple() == inertia(L[i]).as_tuple()


def _chart_points(domain, rng, count):
    """Random points of the domain's weight region, each in a random chart.

    The charts are mixed: any slot holding at least half the largest
    homogeneous entry, not only the largest.
    """
    if isinstance(domain, QuadricDomain):
        k = domain.n - domain.q + 1
        w = rng.standard_normal((count, domain.n + 1)) + 1j * rng.standard_normal(
            (count, domain.n + 1))
        # |w|_+ = |w|_- / 2: inside the region where the weight is defined
        w[:, :k] *= (0.5 * np.linalg.norm(w[:, k:], axis=1)
                     / np.linalg.norm(w[:, :k], axis=1))[:, None]
        size = np.abs(w)
        chart = np.argmax(rng.random(w.shape) * (size >= 0.5 * size.max(axis=1, keepdims=True)),
                          axis=1)
        z = np.stack([np.delete(wi, c) / wi[c] for wi, c in zip(w, chart)])
        return z, chart
    chart = rng.integers(0, len(domain.charts), count)
    z = rng.standard_normal((count, domain.n)) + 1j * rng.standard_normal((count, domain.n))
    return z, chart


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([QuadricDomain(mu=MU, n=3, q=2),
                        QuadricDomain(mu=[2.0, 2.0, 2.0, -0.5, -0.5], n=4, q=2),
                        ProductDomain(n=3, q=2), ProductDomain(n=4, q=3, radius=1.5)]),
       st.integers(0, 2 ** 32 - 1))
@example(ProductDomain(n=4, q=3, radius=1.5), 2420)
def test_batched_domain_matches_rows_and_fd(domain, seed):
    # stacks with mixed charts: the batched methods equal one-point
    # evaluation row by row, and the Wirtinger derivatives by finite differences
    z, chart = _chart_points(domain, np.random.default_rng(seed), 6)
    batched = {"rho": domain.rho(z, chart), "rho_dz": domain.rho_dz(z, chart),
               "rho_hessian": domain.rho_hessian(z, chart),
               "weight_hessian": domain.weight_hessian(z, chart)}
    for name, value in batched.items():
        rows = np.stack([getattr(domain, name)(z[i], chart[i]) for i in range(len(z))])
        assert_array_equal(value, rows, err_msg=name)
    for i in range(len(z)):
        def rho(x, c=chart[i]):
            return domain.rho(x, c)

        weight = domain.weight_fn(chart[i])
        for f, fd, an in ((rho, fd_complex_gradient, batched["rho_dz"][i]),
                          (rho, fd_complex_hessian, batched["rho_hessian"][i]),
                          (weight, fd_complex_hessian, batched["weight_hessian"][i])):
            scale = max(1.0, abs(float(f(z[i]))), np.max(np.abs(an)))
            assert np.max(np.abs(fd(f, z[i]) - an)) <= 1e-5 * scale


def _fd_gradient_loop(f, z, step):
    """Reference: one point's central differences, one coordinate at a time."""
    n = z.size
    out = np.empty(n, dtype=complex)
    for j in range(n):
        ex = np.zeros(n, dtype=complex)
        ex[j] = step
        dx = (f(z + ex) - f(z - ex)) / (2 * step)
        dy = (f(z + 1j * ex) - f(z - 1j * ex)) / (2 * step)
        out[j] = 0.5 * (dx - 1j * dy)
    return out


def _fd_hessian_loop(f, z, step):
    """Reference: one point's second differences, one pair of real directions at a time."""
    n = z.size
    f0 = f(z)

    def d2(u, v):
        if u is v or np.array_equal(u, v):
            return (f(z + u) - 2.0 * f0 + f(z - u)) / (step * step)
        return (f(z + u + v) - f(z + u - v) - f(z - u + v) + f(z - u - v)) / (4 * step * step)

    ex = [np.eye(n, dtype=complex)[j] * step for j in range(n)]
    ey = [1j * e for e in ex]
    A = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            re = d2(ex[j], ex[k]) + d2(ey[j], ey[k])
            im = d2(ex[j], ey[k]) - d2(ey[j], ex[k])
            A[j, k] = 0.25 * (re + 1j * im)
    return A.T


def test_fd_derivatives_match_per_point_loops(quadric, rng):
    # one callback call per stack, with the loops' arithmetic: equal bit for bit
    def rho(z):
        return quadric.rho(z, 1)

    z = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    grad, hess = fd_complex_gradient(rho, z), fd_complex_hessian(rho, z)
    for i in range(len(z)):
        assert_array_equal(grad[i], _fd_gradient_loop(rho, z[i], FD_STEP))
        assert_array_equal(hess[i], _fd_hessian_loop(rho, z[i], FD_HESSIAN_STEP))
    # one point in, one point out
    assert_array_equal(fd_complex_gradient(rho, z[0]), grad[0])
    assert_array_equal(fd_complex_hessian(rho, z[0]), hess[0])
    # a CustomDomain hands its stacks to the same functions; one analytic (n, n)
    # weight Hessian serves every point
    zz = z[:8].reshape(2, 4, 3)
    dom = CustomDomain(n=3, rho=rho, weight=lambda x: rho(x) ** 2)
    values = (dom.rho(zz, 0), dom.rho_dz(zz, 0), dom.rho_hessian(zz, 0),
              dom.weight_hessian(zz, 0))
    assert [v.shape for v in values] == [(2, 4), (2, 4, 3), (2, 4, 3, 3), (2, 4, 3, 3)]
    assert_array_equal(values[1].reshape(8, 3), grad[:8])
    assert_array_equal(values[2].reshape(8, 3, 3), hess[:8])
    assert_array_equal(values[3], fd_complex_hessian(lambda x: rho(x) ** 2, zz))
    assert dom.rho(z[0], 0) == rho(z[0])
    indef = CustomDomain(n=3, rho=rho, weight=IndefWeight())
    assert_array_equal(indef.weight_hessian(zz, 0),
                       np.broadcast_to(np.diag([1.0, 1.0, -3.0]), (2, 4, 3, 3)))
    with pytest.raises(QposError, match="no weight function"):
        CustomDomain(n=3, rho=rho).weight_hessian(zz, 0)


def test_custom_domain_rejects_one_point_callbacks():
    # a callback that maps the stack to one value is named, with the migration,
    # before its value is indexed
    def one_point(z):
        return float(np.sum(np.abs(z) ** 2) - 1.0)

    for run in (lambda: sample_boundary(CustomDomain(n=3, rho=one_point), 5, seed=1),
                lambda: CustomDomain(n=3, rho=_unit_sphere, weight=one_point)
                .weight_hessian(np.zeros((4, 3), dtype=complex), 0)):
        with pytest.raises(DimensionMismatch, match=r"to values \(\), not \(") as err:
            run()
        assert "np.apply_along_axis(u, -1, z)" in str(err.value)


def test_custom_domain_callback_calls_do_not_grow_with_samples():
    # rho takes stacks: sampling and the Levi forms call it once per Newton step
    # and per derivative, whatever the sample count
    counts = []
    for count in (10, 100):
        calls = []
        dom = CustomDomain(n=3, rho=lambda z: calls.append(z.shape) or _unit_sphere(z))
        levi_forms(dom, sample_boundary(dom, count, seed=1))
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_sample_boundary_reports_an_empty_zero_set():
    dom = CustomDomain(n=2, rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) + 1.0)
    with pytest.raises(BoundNotFound, match="only 0 of 5 boundary samples converged"):
        sample_boundary(dom, 5, seed=1)


def test_quadric_inclusion_in_model_manifold(quadric, rng):
    # interior points (rho < 0) satisfy |w|_+ < |w|_-
    k = 2
    for _ in range(200):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val = float(np.asarray(MU) @ (np.abs(w) ** 2))
        if val >= 0:
            continue
        assert np.sum(np.abs(w[:k]) ** 2) < np.sum(np.abs(w[k:]) ** 2)


# ------------------------------------------------------------ adjacency

def _scipy_components(X):
    """Reference labelling with scipy: kd-tree kNN query, sparse graph, connected_components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = len(X)
    _, nbr = cKDTree(X).query(X, k=min(KNN + 1, n))
    nbr = np.asarray(nbr).reshape(n, -1)[:, 1:]
    rows = np.repeat(np.arange(n), nbr.shape[1])
    A = coo_matrix((np.ones(rows.size), (rows, nbr.ravel())), shape=(n, n))
    n_comp, labels = connected_components(A + A.T, directed=False)
    return labels, n_comp


def _dense_components(X):
    """Reference labelling as the module once did it: the full m x m squared
    distances, a dense boolean adjacency and breadth-first search."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    k = min(KNN, n - 1)
    A = np.zeros((n, n), dtype=bool)
    if k > 0:
        nbr = np.argpartition(d2, k - 1, axis=1)[:, :k]
        A[np.arange(n)[:, None], nbr] = True
    A |= A.T
    labels = np.full(n, -1)
    n_comp = 0
    while np.any(labels < 0):  # breadth-first search from the lowest unlabelled sample
        frontier = np.arange(n) == np.argmax(labels < 0)
        while frontier.any():
            labels[frontier] = n_comp
            frontier = A[frontier].any(axis=0) & (labels < 0)
        n_comp += 1
    return labels, n_comp


def _assert_components_match_dense(X):
    labels, n_comp = adjacency_components(X)
    labels_ref, n_ref = _dense_components(X)
    assert n_comp == n_ref
    assert_array_equal(labels, labels_ref)
    return labels, n_comp


def _assert_components_match_scipy(X):
    labels, n_comp = _assert_components_match_dense(X)
    labels_ref, n_ref = _scipy_components(X)
    assert n_comp == n_ref
    assert_array_equal(labels, labels_ref)
    return n_comp


def _clusters(rng, m, dim=6):
    """m points in up to 7 well-separated Gaussian clusters, shuffled."""
    centres = 10.0 * rng.standard_normal((rng.integers(1, 8), dim))
    return centres[rng.integers(0, len(centres), m)] + 0.3 * rng.standard_normal((m, dim))


def test_adjacency_components_match_scipy_on_clusters(rng):
    for _ in range(40):
        centres = 10.0 * rng.standard_normal((rng.integers(1, 8), 6))
        X = np.concatenate([c + 0.3 * rng.standard_normal((rng.integers(2, 40), 6))
                            for c in centres])
        _assert_components_match_scipy(X[rng.permutation(len(X))])


def test_adjacency_components_match_dense_on_duplicated_points(rng):
    # exact copies tie their distances to every other point; up to KNN + 1
    # copies of a point are all each other's neighbors
    for copies in (2, 3, KNN + 1):
        for _ in range(10):
            X = _clusters(rng, int(rng.integers(10, 60)))
            dup = np.repeat(X, rng.integers(1, copies + 1, len(X)), axis=0)
            _assert_components_match_dense(dup[rng.permutation(len(dup))])


@pytest.mark.parametrize("n", [1, 2, 3, KNN, KNN + 1])
def test_adjacency_components_match_scipy_small(rng, n):
    _assert_components_match_scipy(rng.standard_normal((n, 4)))
    _assert_components_match_dense(np.repeat(rng.standard_normal((1, 4)), n, axis=0))


ROWS = 16


@pytest.mark.parametrize("m", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 5])
def test_adjacency_components_match_scipy_across_row_blocks(rng, monkeypatch, m):
    # an entry budget of ROWS * m gives blocks of ROWS rows: one short block,
    # exactly one, one and a row, two and a remainder
    monkeypatch.setattr(levi, "ADJACENCY_CHUNK", ROWS * m)
    for _ in range(10):
        X = _clusters(rng, m)
        _assert_components_match_scipy(X)
        _assert_components_match_dense(X[rng.integers(0, m, m)])


def test_adjacency_components_match_scipy_on_chain(rng):
    # 2000 points along a line, cut by four wide gaps into five components
    t = np.cumsum(rng.uniform(0.5, 1.5, 2000))
    for cut in (300, 900, 1000, 1700):
        t[cut:] += 100.0
    X = np.stack([t, np.sin(t), np.zeros_like(t)], axis=1)
    assert _assert_components_match_scipy(X) == 5
    # the same chain numbered from one end, the far end first: the lowest index
    # of each component must reach samples at the other end of its piece
    assert _assert_components_match_scipy(X[np.r_[0, 1999:0:-1]]) == 5


def test_adjacency_components_memory_stays_under_32_mb(rng):
    # the dense labelling peaks near 290 MB here: m x m distances and adjacency
    X = rng.standard_normal((4000, 32))
    tracemalloc.start()
    try:
        adjacency_components(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


# ------------------------------------------------------------------- Z(q)

def test_zq_ball_branch_i():
    dom = BallDomain(n=2)
    samples = sample_boundary(dom, 30, seed=3)
    rep = zq_check(dom, 1, samples)
    assert set(rep.branch) == {"i"}
    assert list(rep.component_branch.values()) == ["i"]


def test_zq_quadric(quadric, quadric_samples):
    rep = zq_check(quadric, 2, quadric_samples)
    assert set(rep.branch) == {"i"}
    assert np.all(rep.n_plus >= 1)


def test_zq_product_domain():
    dom = ProductDomain(n=3, q=2)
    samples = sample_boundary(dom, 60, seed=3)
    rep = zq_check(dom, 2, samples)
    assert set(rep.branch) == {"i"}
    assert np.all(rep.n_plus == 1)  # one positive, one flat direction


def test_zq_fails_on_levi_flat():
    # tube-like domain |z1| = 1 in C^2: the Levi form vanishes identically
    dom = CustomDomain(n=2, rho=lambda z: np.abs(z[..., 0]) ** 2 - 1.0)

    def seeds(rng, count):
        Z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
        Z[:, 0] /= np.abs(Z[:, 0])
        Z[:, 1] *= 0.3
        return np.zeros(count, dtype=int), Z

    dom.seed_points = seeds
    samples = sample_boundary(dom, 20, seed=5)
    with pytest.raises(ZqViolated):
        zq_check(dom, 1, samples)


def test_zq_refuses_a_component_whose_samples_fit_different_branches():
    # rho = (|z|^2 - 1)(|z|^2 - 4) in C^3: the Levi form is (2|z|^2 - 5) I, so
    # -3 I (branch ii) on |z| = 1 and 3 I (branch i) on |z| = 2; two samples
    # are each other's nearest neighbor, so they make one component
    dom = CustomDomain(n=3, rho=lambda z: _unit_sphere(z) * (_unit_sphere(z) - 3.0))
    samples = BoundarySamples.at(dom, np.array([[1, 0, 0], [2, 0, 0]], dtype=complex),
                                 np.zeros(2, dtype=int))
    with pytest.raises(ZqViolated, match=r"^Z\(q\) violated at sample 0: component 0 mixes "
                                         r"branches \['i', 'ii'\]$"):
        zq_check(dom, 1, samples)


def test_zq_names_the_lowest_mixed_component_at_its_first_sample(monkeypatch):
    # on the two spheres of the test above, radius 1 is branch ii and radius 2
    # branch i; with the components below, component 1 mixes first in sample
    # order (at sample 2), but component 0 is the lowest that mixes
    dom = CustomDomain(n=3, rho=lambda z: _unit_sphere(z) * (_unit_sphere(z) - 3.0))
    radius = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 2.0])
    z = radius[:, None] * np.eye(3)[[0, 1, 2, 0, 1, 2]]
    samples = BoundarySamples.at(dom, z.astype(complex), np.zeros(6, dtype=int))
    monkeypatch.setattr(levi, "adjacency_components", lambda X: (np.array([0, 1, 1, 0, 2, 2]), 3))
    with pytest.raises(ZqViolated, match=r"^Z\(q\) violated at sample 0: component 0 mixes "
                                         r"branches \['i', 'ii'\]$"):
        zq_check(dom, 1, samples)
    monkeypatch.setattr(levi, "adjacency_components", lambda X: (np.array([0, 1, 0, 2, 1, 2]), 3))
    rep = zq_check(dom, 1, samples)
    assert rep.component_branch == {0: "ii", 1: "i", 2: "i"}


def test_pipeline_ball_trivial():
    dom = BallDomain(n=2)
    samples = sample_boundary(dom, 30, seed=3)
    rep, metrics, certs = zq_metric_pipeline(dom, 1, samples)
    assert all(c.passed for c in certs.values())
    assert_allclose(metrics, np.broadcast_to(np.eye(1), (30, 1, 1)))


def test_pipeline_quadric(quadric, quadric_samples):
    rep, metrics, certs = zq_metric_pipeline(quadric, 2, quadric_samples)
    assert all(c.passed for c in certs.values())
    # the synthesized metric certifies the Levi field pointwise
    from qpos.hermitian import pencil_eigvalsh

    levis = levi_forms(quadric, quadric_samples)
    lam = pencil_eigvalsh(levis, metrics)
    assert np.all(np.sum(lam[:, :2], axis=1) > 0)


def test_pipeline_product_domain():
    dom = ProductDomain(n=3, q=2)
    samples = sample_boundary(dom, 60, seed=3)
    rep, metrics, certs = zq_metric_pipeline(dom, 2, samples)
    assert all(c.passed for c in certs.values())


def test_pipeline_branch_ii_negative_levi():
    # reversed ball: rho = 1 - |z|^2 makes the Levi form negative definite;
    # with n = 3, q = 1 that is branch (ii) and the pipeline runs on -L
    dom = CustomDomain(n=3, rho=lambda z: -_unit_sphere(z), seed_box=1.0)
    samples = sample_boundary(dom, 25, seed=6)
    rep = zq_check(dom, 1, samples)
    assert set(rep.branch) == {"ii"}
    rep, metrics, certs = zq_metric_pipeline(dom, 1, samples)
    assert all(c.passed for c in certs.values())


# ------------------------------------------------------------------ weight bump

def test_chi_cutoff_contract():
    assert chi(-2.0) == 0.0 and chi(-1.0) == 0.0
    assert chi_prime(0.0) == pytest.approx(1.0)
    assert chi_double_prime(0.0) == pytest.approx(2.0)
    t = np.linspace(-3, 3, 301)
    assert np.all(np.diff(chi(t)) >= 0)          # nondecreasing
    assert np.all(chi_double_prime(t) >= 0)      # convex
    h = 1e-5
    for t0 in (-0.5, 0.0, 1.3):
        fd1 = (chi(t0 + h) - chi(t0 - h)) / (2 * h)
        assert fd1 == pytest.approx(float(chi_prime(t0)), rel=1e-8)


def test_weight_bump_ball_trivial():
    dom = BallDomain(n=2)
    samples = sample_boundary(dom, 30, seed=2)
    rep = weight_bump(dom, 1, samples)
    assert rep.all_claims_pass
    assert rep.delta0 > 0


def test_weight_bump_quadric(quadric, quadric_samples):
    rep = weight_bump(quadric, 2, quadric_samples)
    assert rep.all_claims_pass
    assert rep.trace_identity_max_err < 1e-8
    assert rep.delta0 >= 1e-8 and rep.epsilon > 0


def test_weight_bump_finite_eta_regime():
    dom = CustomDomain(n=3, rho=_unit_sphere, weight=IndefWeight(), seed_box=0.8)
    samples = sample_boundary(dom, 60, seed=7)
    rep = weight_bump(dom, 2, samples)
    assert np.isfinite(rep.eta) and rep.eta > 1e-8
    assert np.isfinite(rep.epsilon_bound)
    assert rep.epsilon < rep.epsilon_bound
    assert rep.all_claims_pass
    # eta's defining property, spot-checked on random frames: normal mass
    # below eta implies positive trace of the unbumped trace form
    from qpos.synthetic import random_g_orthonormal_frames

    rng = np.random.default_rng(11)
    Mrho = dom.rho_hessian(samples.z, samples.chart)
    Mphi = dom.weight_hessian(samples.z, samples.chart)
    A = Mphi + rep.delta0 * Mrho
    checked = 0
    for i in (0, 7, 19):
        T = random_g_orthonormal_frames(rng, rep.g0[i], 400, 2)
        w = samples.w[i]
        mass = np.sum(np.abs(np.einsum("k,nkj->nj", w, T)) ** 2, axis=1)
        tr = np.einsum("nki,kl,nli->n", T.conj(), A[i], T).real
        below = mass < rep.eta
        checked += int(below.sum())
        assert np.all(tr[below] > 0)
    assert checked > 0


def _newton_one(domain, z, chart):
    """Reference: one seed's Newton projection, point by point."""
    for _ in range(NEWTON_MAX_ITER):
        r = domain.rho(z, chart)
        w = domain.rho_dz(z, chart)
        g2 = np.sum(np.abs(w) ** 2)
        if g2 < MIN_GRADIENT ** 2:
            return None
        if abs(r) <= NEWTON_TOL * max(1.0, domain.scale ** 2):
            return z
        z = z - r * np.conj(w) / (2.0 * g2)
    return None


def _eta_one(A, u, q):
    """Oracle: one sample's sup of phi(mu) / mu by grid and golden section."""
    N = np.outer(u, np.conj(u))

    def ratio(mu):
        return np.sum(np.linalg.eigvalsh(A + mu * N)[:q]) / mu

    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(A)))))
    mus = np.geomspace(1e-6 * scale, 1e9 * scale, 160)
    j = int(np.argmax([ratio(m) for m in mus]))
    lo, hi = mus[max(j - 1, 0)], mus[min(j + 1, len(mus) - 1)]
    for _ in range(80):
        m1, m2 = lo + 0.381966 * (hi - lo), hi - 0.381966 * (hi - lo)
        if ratio(m1) < ratio(m2):
            lo = m1
        else:
            hi = m2
    return ratio(0.5 * (lo + hi))


def _eta_bisect_one(A, u, q):
    """Reference: one sample's bisection on the sign of phi - mu phi', step by step."""
    N = np.outer(u, np.conj(u))
    s = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(A)))))
    lo, hi, best = 0.0, 1.0, -np.inf
    for _ in range(ETA_STEPS):
        t = 0.5 * (lo + hi)
        mu = s * t / (1.0 - t)
        lam, Y = np.linalg.eigh(A + mu * N)
        phi = np.sum(lam[:q])
        dphi = np.sum(np.abs(np.sum(np.conj(Y[:, :q]) * u[:, None], axis=0)) ** 2)
        best = max(best, phi / mu)
        if phi - mu * dphi < 0:
            lo = t
        else:
            hi = t
    return best


def _leaning_trace_forms(rng, count, positive=0):
    """Trace forms with 2-sum -2 that enough normal mass makes positive (the
    normal u leans on the negative eigenvector); the last ``positive`` are
    already strictly 2-positive."""
    U = np.stack([random_unitary(rng, 3) for _ in range(count)])
    lam = np.where(np.arange(count)[:, None] < count - positive, [-3.0, 1.0, 2.0],
                   [0.5, 1.0, 2.0])
    A = (U * lam[:, None, :]) @ np.conj(np.swapaxes(U, 1, 2))
    return A, U[:, :, 0] + 0.3 * rng.standard_normal((count, 3))


def test_batched_newton_and_eta_match_per_sample_loops(quadric, rng):
    # same arithmetic per sample: the batched searches equal the loops exactly
    for domain in (quadric, ProductDomain(n=3, q=2)):
        chart, z0 = domain.seed_points(rng, 50)
        z, ok = newton_project(domain, z0, chart)
        for i in range(len(z0)):
            ref = _newton_one(domain, z0[i], chart[i])
            assert ok[i] == (ref is not None)
            if ok[i]:
                assert_array_equal(z[i], ref)
    A, u = _leaning_trace_forms(rng, 12, positive=4)
    eta = _eta_dual(A, u, 2)
    assert eta == ETA_FACTOR * min(_eta_bisect_one(A[i], u[i], 2) for i in range(8))
    # and the bisection reaches the supremum that an independent search finds
    oracle = ETA_FACTOR * min(_eta_one(A[i], u[i], 2) for i in range(8))
    assert oracle > 1e-8
    assert abs(eta - oracle) <= 1e-12 * oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
       st.floats(-6.0, 6.0))
def test_eta_bounds_every_ratio(seed, x, y, log_mu):
    # eta / ETA_FACTOR is the supremum of phi(mu) / mu, so no mu exceeds it.
    # In the eigenbasis of A = diag(-3, 1, 2), u = (1, x, y) with
    # x^2 + 2 y^2 < 3 leaves a positive 2-sum on u's complement: eta > 0.
    U = random_unitary(np.random.default_rng(seed), 3)
    A = (U * [-3.0, 1.0, 2.0]) @ np.conj(U.T)
    u = U @ np.array([1.0, x, y])
    eta = _eta_dual(A[None], u[None], 2)
    mu = 10.0 ** log_mu
    phi = np.sum(np.linalg.eigvalsh(A + mu * np.outer(u, np.conj(u)))[:2])
    assert phi / mu <= eta / ETA_FACTOR * (1 + 1e-12)


def _positive_counts_on(Mphi, Mrho, deltas):
    M = Mphi[None] + deltas[:, None, None, None] * Mrho[None]
    return sign_counts(np.linalg.eigvalsh(M))[0]


def test_delta0_keeps_the_count_across_a_narrow_window():
    # sample 0 keeps 2 positive eigenvalues except on [1, 1.01], which a grid
    # over [0, norm ratio / 2] = [0, 6.12] steps over; the compression rule
    # stops at 1 / r / 2 = 0.5 (r = 1 from R = diag(-1, 0))
    Mphi = np.array([np.diag([1.0, 1.0, -1.01]), 10.0 * np.diag([1.0, 1.0, -1.0])])
    Mrho = np.array([np.diag([-1.0, 0.0, 1.0]), 0.01 * np.eye(3)])
    assert np.min(_positive_counts_on(Mphi, Mrho, np.array([1.005]))) == 1
    delta0 = _find_delta0(Mphi, Mrho, 2)
    assert delta0 == 0.5
    assert np.min(_positive_counts_on(Mphi, Mrho, np.linspace(0.0, delta0, 10 ** 5))) >= 2


def test_delta0_needs_no_fallback_for_singular_weight_hessian():
    # a zero eigenvalue of Mphi outside the top `need` ones does not enter R
    Mphi = np.diag([1.0, 1.0, 0.0])[None]
    Mrho = np.diag([-1.0, 0.0, 1.0])[None]
    delta0 = _find_delta0(Mphi, Mrho, 2)
    assert delta0 == 0.5
    assert np.min(_positive_counts_on(Mphi, Mrho, np.linspace(0.0, delta0, 10 ** 4))) >= 2
    with pytest.raises(BoundNotFound, match="lacks"):
        _find_delta0(Mphi, Mrho, 3)


def test_weight_bump_negative_control_probes_larger_eps():
    # observational only: at 10x the bound the third claim may fail; the
    # report records the count rather than asserting it
    dom = CustomDomain(n=3, rho=_unit_sphere, weight=IndefWeight(), seed_box=0.8)
    samples = sample_boundary(dom, 60, seed=7)
    rep = weight_bump(dom, 2, samples)
    assert rep.large_eps_claim3_failures >= 0


def test_certificates_and_bump_claims_share_one_pass_rule(tmp_path, monkeypatch, quadric,
                                                          quadric_samples):
    # under a floor that no sum clears, a certificate, bump claims 2 and 3 and the
    # bump's control all fail; the bump passed its claims on a bare sum > 0
    from qpos import cli, hermitian, metric_subbundle
    from qpos.fields import FormField, certify

    monkeypatch.setattr(hermitian, "MARGIN_FLOOR_SCALE", 1e200)
    field = FormField.from_stacks(range(3), {"S": np.broadcast_to(np.eye(3), (3, 3, 3))})
    assert certify(field, "S", 2, np.eye(3), "floor").failed_ids() == [0, 1, 2]
    # the kernel metric's own certificates fail too: let the bump go on to its claims
    monkeypatch.setattr(metric_subbundle, "require_passed", lambda certs, what: None)
    rep = weight_bump(quadric, 2, quadric_samples)
    assert np.all(rep.claim1_pass)
    assert min(rep.claim2_min_sums.min(), rep.claim3_min_sums.min()) > 0
    assert not rep.all_claims_pass

    # the finite-eta weight: its control runs
    dom = CustomDomain(n=3, rho=_unit_sphere, weight=IndefWeight(), seed_box=0.8)
    samples = sample_boundary(dom, 60, seed=7)
    assert weight_bump(dom, 2, samples).large_eps_claim3_failures == len(samples)
    quad = tmp_path / "quadric.json"
    quad.write_text('{"type": "quadric", "n": 3, "q": 2, "mu": [2.0, 2.0, -0.5, -0.5]}')
    assert cli.main(["geometry", "bump", "--domain", str(quad), "--q", "2",
                     "--samples", "40", "--out", str(tmp_path / "bump.json")]) == 2
    assert '"all_claims_pass": false' in (tmp_path / "bump.json").read_text()


# ------------------------------------------------------------------- factory

def test_domain_from_spec_roundtrip():
    assert isinstance(domain_from_spec({"type": "ball", "n": 2}), BallDomain)
    assert isinstance(domain_from_spec({"type": "quadric", "n": 3, "q": 2, "mu": MU}),
                      QuadricDomain)
    assert isinstance(domain_from_spec({"type": "product", "n": 3, "q": 2}), ProductDomain)


@pytest.mark.parametrize("kind", ["ball", "product"])
def test_domain_from_spec_bounds_the_radius(kind):
    # a radius whose cube overflows would overflow the Newton step of the sampler
    spec = {"type": kind, "n": 3, "q": 2, "radius": RADIUS_MAX}
    assert domain_from_spec(spec).radius == RADIUS_MAX
    with pytest.raises(SchemaError, match="dom.radius"):
        domain_from_spec({**spec, "radius": 1e150}, "dom")
