"""Domains, Levi forms, Z(q) pipeline, and the weight bump."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpos import ZqViolated, inertia
from qpos.geometry import (
    BallDomain,
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
    fd_complex_hessian,
    levi_form,
    levi_forms,
    sample_boundary,
    weight_bump,
    zq_check,
    zq_metric_pipeline,
)
from qpos.geometry.levi import KNN

MU = [2.0, 2.0, -0.5, -0.5]


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
    f = lambda z: float(np.real(z[0]))
    M = complex_hessian(f, np.array([0.4 + 0.2j, -0.1j]), mode="fd")
    assert np.max(np.abs(M)) < 1e-7


def test_quadric_analytic_hessians_match_fd(quadric, rng):
    for chart in (0, 3):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fd = fd_complex_hessian(lambda zz: quadric.rho(zz, chart), z)
        an = quadric.rho_hessian(z, chart)
        assert np.max(np.abs(fd - an)) <= 1e-6 * max(1.0, np.max(np.abs(an)))
    # weight in a chart where the point lies in the model manifold
    s = sample_boundary(quadric, 3, seed=9)[0]
    wfn = quadric.weight_fn(s.chart)
    fd = fd_complex_hessian(wfn, s.z)
    an = wfn.hessian(s.z)
    assert np.max(np.abs(fd - an)) <= 1e-6 * max(1.0, np.max(np.abs(an)))


def test_mqn_inertia_profile(rng):
    m = MqnManifold(3, 2)
    for chart, z in m.sample_chart_points(rng, 60):
        assert inertia(m.weight_fn(chart).hessian(z)).as_tuple() == (2, 1, 0)
    for chart, z in m.sample_chart_points(rng, 30, on_S=True):
        lam = np.linalg.eigvalsh(m.weight_fn(chart).hessian(z))
        assert lam[0] >= -1e-8  # the q - 1 negative eigenvalues vanish on S
        assert np.sum(lam > 1e-8) == 2


# ------------------------------------------------------------------ Levi forms

def test_ball_levi_is_positive():
    dom = BallDomain(n=2)
    for s in sample_boundary(dom, 25, seed=1):
        L = levi_form(dom, s)
        assert L.shape == (1, 1)
        assert L[0, 0].real > 0.9


def test_levi_scaling_by_defining_function():
    base = CustomDomain(n=2, rho=lambda z: float(np.sum(np.abs(z) ** 2) - 1.0))
    doubled = CustomDomain(n=2, rho=lambda z: 2.0 * (float(np.sum(np.abs(z) ** 2)) - 1.0))
    fancy = CustomDomain(
        n=2, rho=lambda z: (1.0 + float(np.sum(np.abs(z) ** 2)))
        * (float(np.sum(np.abs(z) ** 2)) - 1.0))
    for s in sample_boundary(base, 10, seed=2):
        L0 = levi_form(base, s)
        s2 = type(s)(chart=s.chart, z=s.z, w=doubled.rho_dz(s.z, s.chart),
                     frame=s.frame, normal=s.normal, embedding=s.embedding)
        L2 = levi_form(doubled, s2)
        assert_allclose(L2, 2.0 * L0, rtol=1e-4)
        f = 1.0 + float(np.sum(np.abs(s.z) ** 2))  # = 2 on the unit sphere
        Lf = levi_form(fancy, s)
        assert_allclose(Lf, f * L0, rtol=1e-4)
        assert inertia(Lf).as_tuple() == inertia(L0).as_tuple()


def test_boundary_samples_satisfy_invariants(quadric, quadric_samples):
    for s in quadric_samples[:40]:
        assert abs(quadric.rho(s.z, s.chart)) < 1e-10
        assert np.linalg.norm(s.w) >= 1e-6
        assert np.max(np.abs(s.w @ s.frame)) < 1e-10  # frame annihilates d rho
        gram = s.frame.conj().T @ s.frame
        assert np.linalg.norm(gram - np.eye(2)) < 1e-10


def test_quadric_chart_overlap_consistency(quadric, quadric_samples):
    # rho and the weight are genuine functions on projective space; the Levi
    # inertia is frame-independent: all agree across charts
    from qpos.geometry.levi import BoundarySample, kernel_frame

    for s in quadric_samples[:10]:
        w_hom = quadric.homogeneous(s.z, s.chart)
        order = np.argsort(np.abs(w_hom))
        other = int(order[-2]) if int(order[-1]) == s.chart else int(order[-1])
        assert other != s.chart
        idx = [j for j in range(4) if j != other]
        z2 = w_hom[idx] / w_hom[other]
        assert abs(quadric.rho(z2, other) - quadric.rho(s.z, s.chart)) < 1e-8
        assert abs(quadric.weight_fn(other)(z2) - quadric.weight_fn(s.chart)(s.z)) < 1e-8
        w2 = quadric.rho_dz(z2, other)
        L2, nu2 = kernel_frame(w2)
        s2 = BoundarySample(chart=other, z=z2, w=w2, frame=L2, normal=nu2,
                            embedding=quadric.embed(z2, other))
        assert inertia(levi_form(quadric, s2)).as_tuple() == \
            inertia(levi_form(quadric, s)).as_tuple()


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


def _assert_components_match_scipy(X):
    labels, n_comp = adjacency_components([SimpleNamespace(embedding=x) for x in X])
    labels_ref, n_ref = _scipy_components(X)
    assert n_comp == n_ref
    np.testing.assert_array_equal(labels, labels_ref)
    return n_comp


def test_adjacency_components_match_scipy_on_clusters(rng):
    for _ in range(40):
        centres = 10.0 * rng.standard_normal((rng.integers(1, 8), 6))
        X = np.concatenate([c + 0.3 * rng.standard_normal((rng.integers(2, 40), 6))
                            for c in centres])
        _assert_components_match_scipy(X[rng.permutation(len(X))])


@pytest.mark.parametrize("n", [1, 2, 3, KNN, KNN + 1])
def test_adjacency_components_match_scipy_small(rng, n):
    _assert_components_match_scipy(rng.standard_normal((n, 4)))


def test_adjacency_components_match_scipy_on_chain(rng):
    # 2000 points along a line, cut by four wide gaps into five components
    t = np.cumsum(rng.uniform(0.5, 1.5, 2000))
    for cut in (300, 900, 1000, 1700):
        t[cut:] += 100.0
    X = np.stack([t, np.sin(t), np.zeros_like(t)], axis=1)
    assert _assert_components_match_scipy(X) == 5


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
    dom = CustomDomain(n=2, rho=lambda z: float(abs(z[0]) ** 2 - 1.0))

    def seeds(rng, count):
        Z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
        Z[:, 0] /= np.abs(Z[:, 0])
        Z[:, 1] *= 0.3
        return [("affine", z) for z in Z]

    dom.seed_points = seeds
    samples = sample_boundary(dom, 20, seed=5)
    with pytest.raises(ZqViolated):
        zq_check(dom, 1, samples)


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
    dom = CustomDomain(n=3, rho=lambda z: 1.0 - float(np.sum(np.abs(z) ** 2)),
                       seed_box=1.0)
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
    class IndefWeight:
        def __call__(self, z):
            z = np.asarray(z, dtype=complex)
            return float(abs(z[0]) ** 2 + abs(z[1]) ** 2 - 3.0 * abs(z[2]) ** 2)

        def hessian(self, z):
            return np.diag([1.0, 1.0, -3.0]).astype(complex)

    dom = CustomDomain(n=3, rho=lambda z: float(np.sum(np.abs(z) ** 2) - 1.0),
                       weight=IndefWeight(), seed_box=0.8)
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
    Mrho = np.stack([dom.rho_hessian(s.z, s.chart) for s in samples])
    Mphi = np.stack([dom.weight_hessian(s.z, s.chart) for s in samples])
    A = Mphi + rep.delta0 * Mrho
    checked = 0
    for i in (0, 7, 19):
        T = random_g_orthonormal_frames(rng, rep.g0[i], 400, 2)
        w = samples[i].w
        mass = np.sum(np.abs(np.einsum("k,nkj->nj", w, T)) ** 2, axis=1)
        tr = np.einsum("nki,kl,nli->n", T.conj(), A[i], T).real
        below = mass < rep.eta
        checked += int(below.sum())
        assert np.all(tr[below] > 0)
    assert checked > 0


def test_weight_bump_negative_control_probes_larger_eps():
    # observational only: at 10x the bound the third claim may fail; the
    # report records the count rather than asserting it
    class IndefWeight:
        def __call__(self, z):
            z = np.asarray(z, dtype=complex)
            return float(abs(z[0]) ** 2 + abs(z[1]) ** 2 - 3.0 * abs(z[2]) ** 2)

        def hessian(self, z):
            return np.diag([1.0, 1.0, -3.0]).astype(complex)

    dom = CustomDomain(n=3, rho=lambda z: float(np.sum(np.abs(z) ** 2) - 1.0),
                       weight=IndefWeight(), seed_box=0.8)
    samples = sample_boundary(dom, 60, seed=7)
    rep = weight_bump(dom, 2, samples)
    assert rep.large_eps_claim3_failures >= 0


# ------------------------------------------------------------------- factory

def test_domain_from_spec_roundtrip():
    assert isinstance(domain_from_spec({"type": "ball", "n": 2}), BallDomain)
    assert isinstance(domain_from_spec({"type": "quadric", "n": 3, "q": 2, "mu": MU}),
                      QuadricDomain)
    assert isinstance(domain_from_spec({"type": "product", "n": 3, "q": 2}), ProductDomain)
    assert isinstance(domain_from_spec({"type": "mqn", "n": 3, "q": 2}), MqnManifold)
