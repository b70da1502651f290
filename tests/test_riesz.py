"""Riesz projector quadrature against the eigendecomposition oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpos import (
    Disc,
    EigenvalueOnContour,
    NearSingularResolvent,
    inertia,
    oracle_projector,
    quadrature_convergence,
    resolvent,
    riesz_projector,
)
from qpos import metric_single, negative_projector, riesz
from qpos.synthetic import hermitian_with_eigs, random_hermitian, random_unitary


def test_resolvent_diagonal():
    assert_allclose(resolvent(np.diag([1.0, 2.0]), 0.0), np.diag([-1.0, -0.5]), atol=1e-14)
    assert_allclose(resolvent(np.zeros((3, 3)), 2.0), 0.5 * np.eye(3), atol=1e-14)


def test_resolvent_multiply_back(rng):
    T = random_hermitian(rng, 6)
    zeta = 0.3 + 1.1j
    R = resolvent(T, zeta)
    assert np.linalg.norm((zeta * np.eye(6) - T) @ R - np.eye(6), 2) < 1e-10 * np.linalg.cond(
        zeta * np.eye(6) - T)


def test_resolvent_rejects_near_spectrum():
    with pytest.raises(NearSingularResolvent):
        resolvent(np.diag([1.0, 2.0]), 1.0 + 1e-12)


def test_projector_diagonal_case():
    T = np.diag([-2.0, -1.0, 3.0])
    res = riesz_projector(T, Disc(center=-1.75, radius=1.25), nodes=64)
    assert_allclose(res.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert res.separation == pytest.approx(0.5)
    assert res.idempotency_defect < 1e-12
    assert res.hermiticity_defect < 1e-12


def test_projector_empty_disc_is_zero():
    T = np.diag([1.0, 2.0])
    res = riesz_projector(T, Disc(center=-5.0, radius=1.0), nodes=64)
    assert np.linalg.norm(res.matrix, 2) < 1e-10
    assert np.linalg.norm(oracle_projector(T, Disc(center=-5.0, radius=1.0)), 2) == 0.0


def test_oracle_projector_trivial():
    assert_allclose(oracle_projector(np.eye(2), Disc(1.0, 0.5)), np.eye(2), atol=1e-14)
    assert_allclose(oracle_projector(np.diag([0.0, 5.0]), Disc(0.0, 1.0)),
                    np.diag([1.0, 0.0]), atol=1e-14)


def test_projector_matches_oracle_random(rng):
    for _ in range(10):
        d = 8
        # planted gap so the 64-node rule resolves the contour comfortably
        eigs = np.concatenate([rng.uniform(-3.0, -1.2, 3), rng.uniform(1.2, 3.0, d - 3)])
        T = hermitian_with_eigs(rng, eigs)
        disc = Disc(center=-2.1, radius=1.5)
        res = riesz_projector(T, disc, nodes=64)
        assert res.separation >= 0.1 * disc.radius
        assert res.idempotency_defect <= 1e-8
        assert res.hermiticity_defect <= 1e-8
        P0 = oracle_projector(T, disc)
        assert np.linalg.norm(res.matrix - P0, 2) <= 1e-8
        assert np.linalg.norm(P0 @ P0 - P0, 2) <= 1e-12
        assert np.linalg.norm(P0 - P0.conj().T, 2) <= 1e-12


@pytest.mark.parametrize("nodes", [8, 9, 24, 31, 64, 65])
def test_projector_half_nodes_match_full_rule(rng, nodes):
    # nodes N - k are the conjugates of nodes k, whose resolvents are adjoint:
    # solving k = 0 .. N // 2 gives the N-node trapezoid rule
    eigs = np.concatenate([rng.uniform(-3.0, -1.2, 3), rng.uniform(1.2, 3.0, 4)])
    T = hermitian_with_eigs(rng, eigs)
    disc = Disc(center=-2.1, radius=1.5)
    phase = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    R = [np.linalg.inv(z * np.eye(7) - T) for z in disc.center + disc.radius * phase]
    on_axis = [0, nodes // 2] if nodes % 2 == 0 else [0]
    full_real = sum(phase[k] * R[k] for k in on_axis)
    full_paired = sum(phase[k] * R[k] for k in range(nodes) if k not in on_axis)
    real, paired = riesz._quadrature_sums(T, disc, nodes)
    assert np.array_equal(paired, paired.conj().T)  # Hermitian exactly, not to rounding
    assert_allclose(real, full_real, rtol=0, atol=1e-13 * nodes)
    assert_allclose(paired, full_paired, rtol=0, atol=1e-13 * nodes)
    res = riesz_projector(T, disc, nodes=nodes)
    assert res.quad_nodes == nodes
    assert np.array_equal(res.matrix, (disc.radius / nodes) * (real + paired))
    # the exact 1 / (1 - u^N) law of the N-node rule
    u = (eigs - disc.center) / disc.radius
    lam, V = np.linalg.eigh(T)
    order = np.argsort(eigs)
    diag = np.diag(V.conj().T @ res.matrix @ V).real
    assert_allclose(diag, (1.0 / (1.0 - u ** nodes))[order], rtol=1e-10, atol=1e-12)
    if nodes >= 64:
        assert np.linalg.norm(res.matrix - oracle_projector(T, disc), 2) <= 1e-8


def test_disc_needs_real_center_and_finite_positive_radius():
    assert Disc(center=-1 + 0j, radius=1.0).center == -1.0
    for center, radius in ((1j, 1.0), (np.nan, 1.0), (np.inf, 1.0), (0.0, 0.0),
                           (0.0, -1.0), (0.0, np.nan), (0.0, np.inf)):
        with pytest.raises(ValueError):
            Disc(center=center, radius=radius)


def test_projector_error_law(rng):
    # in T's eigenbasis the N-node trapezoid projector has eigenvalue
    # exactly 1 / (1 - u^N), u = (lam - c) / r: a sharp independent oracle
    eigs = np.array([-2.0, -0.5, 0.8, 2.5])
    T = hermitian_with_eigs(rng, eigs)
    disc = Disc(center=-1.4, radius=1.0)
    nodes = 24
    res = riesz_projector(T, disc, nodes=nodes)
    u = (eigs - disc.center) / disc.radius
    predicted = 1.0 / (1.0 - u ** nodes)
    lam_quad, V = np.linalg.eigh(T)
    diag = V.conj().T @ res.matrix @ V
    assert_allclose(np.diag(diag).real, predicted, rtol=1e-10, atol=1e-12)


def test_projector_rank_counts_eigenvalues_inside(rng):
    eigs = np.array([-3.0, -1.0, 2.0, 4.0, 5.0])
    T = hermitian_with_eigs(rng, eigs)
    P = oracle_projector(T, Disc(center=-2.0, radius=1.6))
    # rank via inertia of P - I/2: projectors have eigenvalues {0, 1}
    assert inertia(P - 0.5 * np.eye(5)).n_plus == 2


def test_projector_rejects_contour_hit():
    T = np.diag([0.0, 1.0])
    with pytest.raises(EigenvalueOnContour):
        riesz_projector(T, Disc(center=0.0, radius=1.0), nodes=64)


def test_quadrature_convergence_decay(rng):
    T = hermitian_with_eigs(rng, np.array([-2.0, -1.5, 1.0, 2.0]))
    disc = Disc(center=-1.75, radius=0.75)
    errs = dict(quadrature_convergence(T, disc, [8, 16, 32, 64]))
    assert errs[64] <= 1e-12
    assert errs[8] > errs[16] > errs[32]


def test_quadrature_needs_more_nodes_when_separation_shrinks(rng):
    T = np.diag([-1.0, 1.0])
    wide = dict(quadrature_convergence(T, Disc(-1.0, 1.0), [32]))[32]
    tight = dict(quadrature_convergence(T, Disc(-1.0, 1.9), [32]))[32]
    assert tight > wide


def test_projector_continuity_under_perturbation(rng):
    T = hermitian_with_eigs(rng, np.array([-2.0, -1.0, 1.0, 2.0]))
    disc = Disc(center=-1.5, radius=1.0)
    P0 = oracle_projector(T, disc)
    sep = riesz_projector(T, disc, nodes=64).separation
    E = random_hermitian(rng, 4)
    E /= np.linalg.norm(E, 2)
    ratios = []
    for delta in [sep / 20, sep / 40, sep / 80]:
        P1 = oracle_projector(T + delta * E, disc)
        ratios.append(np.linalg.norm(P1 - P0, 2) / delta)
    assert max(ratios) < 1e3  # finite empirical Lipschitz constant


def _dense_rule(T, disc, nodes):
    """The N-node trapezoid sums of _quadrature_sums, one dense inverse per node."""
    d = T.shape[0]
    k = np.arange(nodes)
    phase = np.exp(2j * np.pi * k / nodes)
    R = np.linalg.inv((disc.center + disc.radius * phase)[:, None, None] * np.eye(d) - T)
    weighted = phase[:, None, None] * R
    on_axis = (k == 0) | (2 * k == nodes)
    return weighted[on_axis].sum(axis=0), weighted[~on_axis].sum(axis=0)


def _structured_form(r, kind, d):
    if kind == "diagonal":  # every off-diagonal b of the reduction is 0
        return np.diag(r.uniform(-3.0, 3.0, d)).astype(complex)
    if kind == "reducible":  # block diagonal: a zero subdiagonal entry in the middle
        m = d // 2
        T = np.zeros((d, d), dtype=complex)
        T[:m, :m] = random_hermitian(r, m)
        T[m:, m:] = random_hermitian(r, d - m)
        return T
    if kind == "real":
        return random_hermitian(r, d).real.astype(complex)
    if kind == "cluster":  # an eigenvalue cluster 1e-6 wide
        eigs = r.uniform(-3.0, 3.0, d)
        eigs[: max(1, d // 2)] = eigs[0] + 1e-6 * r.uniform(0.0, 1.0, max(1, d // 2))
        return hermitian_with_eigs(r, eigs)
    return random_hermitian(r, d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "diagonal", "reducible", "real", "cluster"]),
       st.integers(1, 12), st.integers(8, 80), st.integers(0, 10**6))
@example("random", 1, 8, 0)
@example("random", 2, 9, 1)
@example("reducible", 6, 80, 2)
@example("diagonal", 5, 31, 3)
def test_quadrature_sums_match_dense_rule_property(kind, d, nodes, seed):
    r = np.random.default_rng(seed)
    T = _structured_form(r, kind, d)
    lam = np.linalg.eigvalsh(T)
    center = float(r.uniform(lam[0] - 1.0, lam[-1] + 1.0))
    # the circle runs through the middle of a gap of at least 0.05 in |lam - c|
    dist = np.concatenate([[0.0], np.sort(np.abs(lam - center)), [np.abs(lam - center).max() + 1.0]])
    gaps = [(lo, hi) for lo, hi in zip(dist[:-1], dist[1:]) if hi - lo >= 0.05]
    lo, hi = gaps[r.integers(len(gaps))]
    disc = Disc(center=center, radius=(lo + hi) / 2)
    sep = float(np.min(disc.boundary_distance(lam)))
    real, paired = riesz._quadrature_sums(T, disc, nodes)
    full_real, full_paired = _dense_rule(T, disc, nodes)
    assert np.array_equal(paired, paired.conj().T)
    assert_allclose(real, full_real, rtol=0, atol=1e-12 * nodes / sep)
    assert_allclose(paired, full_paired, rtol=0, atol=1e-12 * nodes / sep)


@pytest.mark.parametrize("d", [1, 2, 3, 64])
def test_tridiagonalize_reduces_hermitian_part(rng, d):
    H = random_hermitian(rng, d)
    zero_column = H.copy()
    zero_column[1:, 0] = zero_column[0, 1:] = 0  # nothing to reflect in the first column
    for M in (H, zero_column, H + 1e-9j * random_hermitian(rng, d)):
        Q, a, b = riesz._tridiagonalize(M)
        assert a.shape == (d,) and b.shape == (max(d - 1, 0),)
        assert np.isrealobj(a) and np.isrealobj(b) and np.all(b >= 0)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(d), 2) <= 1e-13 * d
        J = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        assert np.linalg.norm(Q @ J @ Q.conj().T - 0.5 * (M + M.conj().T), 2) \
            <= 1e-13 * np.linalg.norm(M, 2)


def test_near_contour_spot_check_at_the_node_cap(rng, monkeypatch):
    # lam_(r+1) - lam_r = 0.006 against a half-width a = 0.9975 puts the
    # largest ratio at rho = sqrt(a / (a + 0.006)) ~ 0.997: the node count
    # log(1e-11) / log(rho) exceeds the cap, and the off-axis nodes come
    # within r sin(2 pi / 8192) of the real axis
    eigs = np.array([-2.0, -1.5, -1.0, -0.005, 0.001, 1.0, 2.0, 3.0])
    A = random_unitary(rng, 8) * np.linspace(1.0, 2.0, 8)
    S, g = A.conj().T @ np.diag(eigs) @ A, A.conj().T @ A
    calls = []

    def recorded(T, disc, nodes):
        calls.append((T, disc, nodes))
        return riesz.riesz_projector(T, disc, nodes=nodes)

    monkeypatch.setattr(metric_single, "riesz_projector", recorded)
    P = negative_projector(S, g, 4)  # raises ProjectorRoutesDisagree past 1e-8
    assert np.linalg.norm(P @ P - P, 2) <= 1e-10
    [(T, disc, nodes)] = calls
    assert nodes == 8192
    sep = float(np.min(disc.boundary_distance(np.linalg.eigvalsh(T))))
    real, paired = riesz._quadrature_sums(T, disc, nodes)
    full_real, full_paired = _dense_rule(T, disc, nodes)
    assert_allclose(real, full_real, rtol=0, atol=1e-12 * nodes / sep)
    assert_allclose(paired, full_paired, rtol=0, atol=1e-12 * nodes / sep)


def test_projector_takes_at_most_two_dense_solves(rng, monkeypatch):
    # the off-axis nodes go through the tridiagonal recurrence; only the
    # real shifts k = 0 and k = N/2 are dense d x d solves, for every N
    solve = np.linalg.solve
    systems = []

    def counted(a, b):
        systems.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return solve(a, b)

    monkeypatch.setattr(riesz.np.linalg, "solve", counted)
    T = hermitian_with_eigs(rng, np.concatenate([rng.uniform(-3.0, -1.0, 12),
                                                 rng.uniform(1.0, 3.0, 36)]))
    per_projector = []
    for nodes in (64, 128, 256):
        systems.clear()
        riesz_projector(T, Disc(center=-2.0, radius=1.5), nodes=nodes)
        per_projector.append(sum(systems))
    assert per_projector[0] <= 2
    assert per_projector == [per_projector[0]] * 3


def _unblocked_tridiagonalize(M):
    """The column-at-a-time Householder reduction the blocked one replaced
    (Golub & Van Loan, Matrix Computations, 8.3.1), kept as its reference."""
    A = 0.5 * (M + M.conj().T)
    d = A.shape[0]
    reflectors = []
    for j in range(d - 2):
        x = A[j + 1:, j]
        tail = np.vdot(x[1:], x[1:]).real
        if tail == 0:
            continue
        x0 = complex(x[0])
        norm = np.sqrt(tail + abs(x0) ** 2)
        s = x0 / abs(x0) if x0 != 0 else 1.0
        v = x.copy()
        v[0] += s * norm
        tau = 1.0 / (norm * (norm + abs(x0)))
        B = A[j + 1:, j + 1:]
        p = tau * (B @ v)
        w = p - (0.5 * tau * np.vdot(v, p).real) * v
        B -= v[:, None] * w.conj() + w[:, None] * v.conj()
        A[j + 1, j] = -s * norm
        reflectors.append((j, v, tau))
    Q = np.eye(d, dtype=complex)
    for j, v, tau in reversed(reflectors):
        Qj = Q[j + 1:, j + 1:]
        Qj -= (tau * v)[:, None] * (v.conj() @ Qj)
    e = A.diagonal(-1)
    b = np.abs(e)
    unit = np.ones(d, dtype=complex)
    unit[1:] = np.divide(e, b, out=np.ones_like(e), where=b > 0)
    return Q * np.cumprod(unit), A.diagonal().real.copy(), b


NB = riesz.PANEL


@pytest.mark.parametrize("d", [NB - 1, NB, NB + 1, 2 * NB + 3, 192])
def test_blocked_tridiagonalize_matches_the_unblocked_loop(rng, d):
    H = random_hermitian(rng, d)
    # split after column j = NB + 3 (in the second panel where d allows): the
    # tail of column j is zero once the first block is reduced, with x0 = 0
    # (two blocks) or x0 != 0 (coupled through the entry (j + 1, j) only)
    j = min(NB + 3, d - 3)
    split = H.copy()
    split[j + 1:, :j + 1] = split[:j + 1, j + 1:] = 0
    coupled = split.copy()
    coupled[j + 1, j] = 0.7 - 0.2j
    coupled[j, j + 1] = 0.7 + 0.2j
    for M, bj in ((H, None), (split, 0.0), (coupled, None)):
        Q, a, b = riesz._tridiagonalize(M)
        Q0, a0, b0 = _unblocked_tridiagonalize(M)
        if bj is not None:
            assert b[j] == b0[j] == bj  # nothing to reflect: the split stays exact
        scale = np.linalg.norm(M, 2)
        # J and Q depend on M as conditioned as its Krylov basis, so the two
        # orders of rounding agree less closely than each reconstructs M
        assert_allclose(a, a0, rtol=0, atol=1e-14 * d * scale)
        assert_allclose(b, b0, rtol=0, atol=1e-14 * d * scale)
        assert_allclose(Q, Q0, rtol=0, atol=1e-10)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(d), 2) <= 1e-13 * d
        J = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        assert np.linalg.norm(Q @ J @ Q.conj().T - 0.5 * (M + M.conj().T), 2) <= 1e-14 * d * scale


@pytest.mark.parametrize("nodes", [64.5, np.float64(64.0), True, "64"])
def test_projector_rejects_a_node_count_that_is_not_an_integer(rng, nodes):
    # 64.5 nodes used to give quad_nodes 64.5 and a projector 0.023 from the oracle
    T = hermitian_with_eigs(rng, np.array([-2.5, -2.0, -1.5, 0.5, 1.0, 1.5, 2.0, 3.0]))
    disc = Disc(center=-2.0, radius=1.5)
    with pytest.raises(ValueError, match="integer count"):
        riesz_projector(T, disc, nodes=nodes)
    P = riesz_projector(T, disc, nodes=np.int64(64))
    assert P.quad_nodes == 64 and type(P.quad_nodes) is not float
    assert np.linalg.norm(P.matrix - oracle_projector(T, disc), 2) <= 1e-10
