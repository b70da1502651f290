"""Core Hermitian-form operations against independent oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpos import (
    BasisNotOrthonormal,
    DimensionMismatch,
    NotFinite,
    NotPositiveDefinite,
    QOutOfRange,
    SpectrumWrt,
    Subspace,
    complement_sum_identity,
    inertia,
    max_subspace_trace,
    pencil_eigh,
    projection_dim_sum,
    q_min_sum,
    restricted_trace,
    spectrum_wrt,
    trace_wrt,
)
from qpos.hermitian import (congruence, first_invalid, frobenius_norm, identity_rows, q_margins,
                            q_sums)
from qpos.synthetic import (
    random_g_orthonormal_frames,
    random_hermitian,
    random_metric,
    random_unitary,
)


# ---------------------------------------------------------------------- spectra

def test_spectrum_diagonal_identity_metric():
    s = spectrum_wrt(np.diag([2.0, -1.0]), np.eye(2))
    assert_allclose(s.eigenvalues, [-1.0, 2.0])
    # eigenvectors: e2 then e1 (up to phase)
    assert_allclose(np.abs(s.eigenvectors), [[0, 1], [1, 0]], atol=1e-12)


def test_spectrum_simultaneously_diagonal_pencil():
    s = spectrum_wrt(np.diag([2.0, -1.0]), np.diag([2.0, 1.0]))
    assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_spectrum_random_pencil_against_cholesky_oracle(rng):
    # oracle: scipy's generalized eigensolver (Cholesky congruence reduction)
    for _ in range(20):
        H = random_hermitian(rng, 6)
        g = random_metric(rng, 6)
        s = spectrum_wrt(H, g)
        assert s.residual(H, g) <= 1e-9 * np.linalg.norm(H, 2) + 1e-13
        lam_oracle = scipy.linalg.eigh(H, g, eigvals_only=True)
        assert_allclose(s.eigenvalues, lam_oracle, rtol=1e-9, atol=1e-10)
        # g-orthonormality of returned eigenvectors
        gram = s.eigenvectors.conj().T @ g @ s.eigenvectors
        assert np.linalg.norm(gram - np.eye(6)) < 1e-10
    # stacked solve, also at cond(g) = 1e8: backward-stable residual and
    # V* g V = I to within eps * cond(g)
    eps = np.finfo(float).eps
    for cond in (10.0, 1e8):
        H = np.stack([random_hermitian(rng, 6) for _ in range(20)])
        G = np.stack([random_metric(rng, 6, cond=cond) for _ in range(20)])
        lam, V = pencil_eigh(H, G)
        for h, g, l, v in zip(H, G, lam, V):
            scale = np.linalg.norm(h, 2) + np.max(np.abs(l)) * np.linalg.norm(g, 2)
            residual = SpectrumWrt(l, v).residual(h, g)
            assert residual <= 100 * eps * scale * np.linalg.norm(v, 2)
            assert np.linalg.norm(v.conj().T @ g @ v - np.eye(6)) <= 100 * eps * cond
            assert_allclose(l, scipy.linalg.eigh(h, g, eigvals_only=True),
                            rtol=1e-9, atol=1e-10)


def test_spectrum_rejects_bad_inputs(rng):
    with pytest.raises(DimensionMismatch):
        spectrum_wrt(np.eye(3), np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        spectrum_wrt(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotFinite):
        spectrum_wrt(np.diag([np.nan, 1.0]), np.eye(2))


def test_field_checks_g0_stack_and_names_first_bad_point(rng):
    # all g0 are checked by one stacked test; the first bad point raises what
    # as_metric raises for its matrix, with its id
    from qpos import FormField, NotHermitian

    ids, good = [f"p{i}" for i in range(4)], np.array([random_metric(rng, 3) for _ in range(4)])
    for bad, error in ((np.diag([1.0, -1.0, 2.0]), NotPositiveDefinite),
                       (np.triu(np.ones((3, 3))), NotHermitian),
                       (np.diag([np.nan, 1.0, 1.0]), NotFinite)):
        g0 = np.concatenate([good[:2], [bad, -np.eye(3)], good[2:]])
        with pytest.raises(error, match="'bad'"):
            FormField.from_stacks(ids[:2] + ["bad", "also_bad"] + ids[2:], {}, g0=g0, dim=3)
    with pytest.raises(DimensionMismatch):
        FormField.from_stacks(["p"], {}, g0=np.eye(2)[None], dim=3)
    FormField.from_stacks(ids, {}, g0=good, dim=3)


@pytest.mark.parametrize("tau", [1e-10, 1e-3])
def test_pd_screening_at_the_threshold_names_the_row_and_eigenvalue(rng, monkeypatch, tau):
    # the screen factors A - tau I; an eigensolve runs only when that fails.
    # The spectra {tau (1 -+ 1e-6), 2 tau, 3 tau} are 1e-6 tau from the
    # threshold, far beyond Cholesky's backward error at their scale
    from qpos import hermitian

    U = random_unitary(rng, 3)
    stack = np.stack([U @ np.diag(np.array([1.0 + 1e-6, 2.0, 3.0]) * tau) @ U.conj().T,
                      random_metric(rng, 3),
                      U @ np.diag(np.array([1.0 - 1e-6, 2.0, 3.0]) * tau) @ U.conj().T,
                      U @ np.diag(np.array([0.5, 2.0, 3.0]) * tau) @ U.conj().T])
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert hermitian.first_invalid(stack[:2], tau_pd=tau) is None
    assert calls == []
    row, error = hermitian.first_invalid(stack, tau_pd=tau)
    assert row == 2 and isinstance(error, NotPositiveDefinite) and len(calls) == 1
    assert f"smallest metric eigenvalue {tau * (1 - 1e-6):.3e} <= {tau:.1e}" in str(error)


def test_rayleigh_bounds(rng):
    H = random_hermitian(rng, 5)
    g = random_metric(rng, 5)
    s = spectrum_wrt(H, g)
    z = rng.standard_normal((1000, 5)) + 1j * rng.standard_normal((1000, 5))
    num = np.einsum("ni,ij,nj->n", z.conj(), H, z).real
    den = np.einsum("ni,ij,nj->n", z.conj(), g, z).real
    ratio = num / den
    assert np.all(ratio >= s.eigenvalues[0] - 1e-10)
    assert np.all(ratio <= s.eigenvalues[-1] + 1e-10)


def test_positive_rescaling_scales_spectrum(rng):
    H = random_hermitian(rng, 4)
    g = random_metric(rng, 4)
    f = 2.7
    s1 = spectrum_wrt(H, g)
    s2 = spectrum_wrt(f * H, g)
    assert_allclose(s2.eigenvalues, f * s1.eigenvalues, rtol=1e-10, atol=1e-12)
    assert inertia(f * H).as_tuple() == inertia(H).as_tuple()


# ---------------------------------------------------------------------- inertia

def test_inertia_trivial_cases():
    assert inertia(np.diag([3.0, -1.0, 0.0])).as_tuple() == (1, 1, 1)
    assert inertia(np.eye(4)).as_tuple() == (4, 0, 0)


def test_inertia_sylvester_congruence(rng):
    # A* diag(1,1,-1) A keeps signature (2,1,0) for any invertible A
    D = np.diag([1.0, 1.0, -1.0])
    for _ in range(20):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if np.linalg.cond(A) > 1e3:
            continue
        H = A.conj().T @ D @ A
        assert inertia(H).as_tuple() == (2, 1, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_inertia_congruence_invariance_property(d, seed):
    r = np.random.default_rng(seed)
    H = random_hermitian(r, d)
    A = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
    if np.linalg.cond(A) > 1e3 or np.min(np.abs(np.linalg.eigvalsh(H))) < 1e-6:
        return
    assert inertia(A.conj().T @ H @ A).as_tuple() == inertia(H).as_tuple()


# ---------------------------------------------------------------------- traces

def test_trace_wrt_trivial():
    assert_allclose(trace_wrt(np.diag([1.0, 2.0]), np.eye(2)), 3.0)
    H = random_hermitian(np.random.default_rng(0), 3)
    assert_allclose(trace_wrt(H, 2.0 * np.eye(3)), 0.5 * np.trace(H).real, rtol=1e-12)


def test_trace_two_independent_formulas(rng):
    for _ in range(10):
        H = random_hermitian(rng, 5)
        g = random_metric(rng, 5)
        t0 = trace_wrt(H, g)
        t1 = float(np.sum(spectrum_wrt(H, g).eigenvalues))
        T = random_g_orthonormal_frames(rng, g, 1, 5)[0]
        t2 = float(np.trace(T.conj().T @ H @ T).real)
        scale = max(1.0, abs(t0))
        assert abs(t0 - t1) <= 1e-10 * scale
        assert abs(t0 - t2) <= 1e-10 * scale


# ---------------------------------------------------------------------- q-sums

def test_q_min_sum_trivial():
    H = np.diag([3.0, -1.0, -1.0])
    assert_allclose(q_min_sum(H, np.eye(3), 2), -2.0)
    assert_allclose(q_min_sum(H, np.eye(3), 3), 1.0)
    with pytest.raises(QOutOfRange):
        q_min_sum(H, np.eye(3), 4)


def test_q_min_sum_is_min_over_subspaces(rng):
    # oracle: restricted traces over random g-orthonormal frames + the
    # eigenvector-span frame achieving the minimum
    for _ in range(5):
        d = int(rng.integers(2, 6))
        q = int(rng.integers(1, d + 1))
        H = random_hermitian(rng, d)
        g = random_metric(rng, d)
        qs = q_min_sum(H, g, q)
        s = spectrum_wrt(H, g)
        W = Subspace(s.eigenvectors[:, :q])
        attained = restricted_trace(H, g, W)
        assert abs(attained - qs) <= 1e-8
        T = random_g_orthonormal_frames(rng, g, 500, q)
        traces = np.einsum("nki,kl,nlj->nij", T.conj(), H, T)
        vals = np.trace(traces, axis1=1, axis2=2).real
        assert np.all(vals >= qs - 1e-8)


def test_q_min_sum_enumerated_eigenvector_spans(rng):
    # enumeration oracle: over all q-subsets of eigenvectors, the restricted
    # trace is the corresponding eigenvalue sum, minimized by the bottom q
    from itertools import combinations

    for _ in range(5):
        d = int(rng.integers(2, 6))
        q = int(rng.integers(1, d + 1))
        H = random_hermitian(rng, d)
        g = random_metric(rng, d)
        s = spectrum_wrt(H, g)
        vals = []
        for idx in combinations(range(d), q):
            W = Subspace(s.eigenvectors[:, list(idx)])
            vals.append(restricted_trace(H, g, W))
        assert abs(min(vals) - q_min_sum(H, g, q)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 10**6))
def test_q_sums_match_scipy_for_every_q(d, log_cond, seed):
    # the one q-sum kernel against scipy's generalized eigensolver, both ends; a
    # forms axis is bitwise one call per form, and a given congruence is bitwise
    # the one q_sums makes
    rng = np.random.default_rng(seed)
    cond = 10.0 ** log_cond
    H = np.stack([[random_hermitian(rng, d) for _ in range(3)] for _ in range(2)])
    G = np.stack([random_metric(rng, d, cond=cond) for _ in range(3)])
    W = congruence(G)[0]
    for q in range(1, d + 1):
        low, top = q_sums(H, G, q)
        assert low.shape == top.shape == (2, 3)
        assert all(np.array_equal(a, b) for a, b in zip(q_sums(H, G, q, W=W), (low, top)))
        for f in range(2):
            assert all(np.array_equal(a, b[f]) for a, b in zip(q_sums(H[f], G, q), (low, top)))
            for i in range(3):
                lam = scipy.linalg.eigh(H[f, i], G[i], eigvals_only=True)
                tol = 1e-12 * cond * q * max(1.0, np.max(np.abs(lam)))
                assert abs(low[f, i] - np.sum(lam[:q])) <= tol
                assert abs(top[f, i] - np.sum(lam[d - q:])) <= tol
    for q in (0, d + 1):
        with pytest.raises(QOutOfRange):
            q_sums(H, G, q)


def test_margins_of_huge_forms_do_not_overflow(rng):
    # ||1e200 I||_F squares past the float range: the margin was -inf and a
    # positive form failed.  Where the plain norm is finite it is kept bit for bit
    H = np.stack([1e200 * np.eye(3), random_hermitian(rng, 3), np.zeros((3, 3))]).astype(complex)
    with np.errstate(over="raise"):
        sums, margins = q_margins(H, np.eye(3), 1)
        norms = frobenius_norm(H)
    assert margins[0] > 0 and np.isclose(norms[0], np.sqrt(3) * 1e200, rtol=1e-15)
    assert np.array_equal(norms[1:], np.linalg.norm(H[1:], axis=(-2, -1)))
    assert np.array_equal(margins[1:], sums[1:] - 1e-9 * np.linalg.norm(H[1:], axis=(-2, -1)))
    # a huge form far from Hermitian is no longer accepted by an infinite tolerance,
    # also where ||A||_F and the defect exceed the float range themselves
    for big in (1e300, 1.5e308):
        A = np.array([[big, big], [-big, 1.0]], dtype=complex)
        with np.errstate(over="raise"):
            assert first_invalid(A[None])[0] == 0 and first_invalid(A[None, :1, :1]) is None
    # past the float range a norm is inf, and a margin floor of it stays finite
    H = np.full((2, 4, 4), 1e308, dtype=complex)
    H[1] = 1e308 * np.eye(4)
    with np.errstate(over="raise"):
        assert np.all(np.isinf(frobenius_norm(H)))
        assert np.allclose(frobenius_norm(H, 1e-9), [4e299, 2e299], rtol=1e-15)
        assert first_invalid(H) is None


def test_identity_rows_are_bitwise_identities():
    # equal to I is not enough: a negative zero, real or imaginary, is not I
    eye = np.eye(3, dtype=complex)
    G = np.stack([eye, eye, eye, eye, 2 * eye, np.full((3, 3), np.nan, dtype=complex)])
    G[1, 0, 1], G[2, 2, 2], G[3] = -0.0, complex(1.0, -0.0), np.eye(3)
    assert identity_rows(G).tolist() == [True, False, False, True, False, False]
    assert identity_rows(G.real).tolist() == [True, False, True, True, False, False]
    assert identity_rows(np.broadcast_to(np.eye(2), (2, 3, 2, 2))).all()


# an identity row in three, and metrics up to condition 1e4
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(0, 2), min_size=1, max_size=12),
       st.integers(0, 10**6))
def test_congruence_skips_identity_rows_bitwise(d, kinds, seed):
    # rows that are exactly I get W = W_inv = I unfactored; every row, identity
    # or not, is bitwise what a per-row Cholesky and inverse give
    rng = np.random.default_rng(seed)
    G = np.stack([np.eye(d, dtype=complex) if k == 0 else
                  random_metric(rng, d, cond=10.0 ** (2 * k)) for k in kinds])
    W, W_inv = congruence(G)
    for r in range(len(kinds)):
        L = np.linalg.cholesky(G[r])
        assert W_inv[r].tobytes() == L.conj().T.tobytes()
        assert W[r].tobytes() == np.linalg.inv(L.conj().T).tobytes()
    W1, W1_inv = congruence(G[0])
    assert W1.tobytes() == W[0].tobytes() and W1_inv.tobytes() == W_inv[0].tobytes()
    bad = G.copy()
    bad[-1] = -np.eye(d)
    with pytest.raises(NotPositiveDefinite):
        congruence(bad)


def test_q_min_sum_superadditivity(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        q = int(rng.integers(1, d + 1))
        g = random_metric(rng, d)
        H1 = random_hermitian(rng, d)
        H2 = random_hermitian(rng, d)
        assert q_min_sum(H1 + H2, g, q) >= q_min_sum(H1, g, q) + q_min_sum(H2, g, q) - 1e-9


def test_max_subspace_trace(rng):
    H = np.diag([1.0, 2.0, 3.0])
    assert_allclose(max_subspace_trace(H, np.eye(3), 2), 5.0)
    g = random_metric(rng, 4)
    H = random_hermitian(rng, 4)
    assert_allclose(max_subspace_trace(H, g, 4), trace_wrt(H, g), rtol=1e-10)
    q = 2
    ub = max_subspace_trace(H, g, q)
    T = random_g_orthonormal_frames(rng, g, 500, q)
    vals = np.einsum("nki,kl,nli->n", T.conj(), H, T).real
    assert np.all(vals <= ub + 1e-8)


# --------------------------------------------------------------- restricted trace

def test_restricted_trace_trivial():
    H = np.diag([1.0, 2.0, 3.0])
    W = Subspace(np.eye(3)[:, :2])
    assert_allclose(restricted_trace(H, np.eye(3), W), 3.0)
    full = Subspace(np.eye(3))
    assert_allclose(restricted_trace(H, np.eye(3), full), trace_wrt(H, np.eye(3)))


def test_restricted_trace_rebasing_invariance(rng):
    H = random_hermitian(rng, 5)
    g = random_metric(rng, 5)
    T = random_g_orthonormal_frames(rng, g, 1, 3)[0]
    v0 = restricted_trace(H, g, Subspace(T))
    U = random_unitary(rng, 3)
    v1 = restricted_trace(H, g, Subspace(T @ U))
    assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0))


def test_restricted_trace_rejects_skew_basis(rng):
    H = random_hermitian(rng, 4)
    g = random_metric(rng, 4)
    B = rng.standard_normal((4, 2))
    with pytest.raises(BasisNotOrthonormal):
        restricted_trace(H, g, Subspace(B))


# --------------------------------------------------------------- projection dims

def test_projection_dim_sum_exact_intersections():
    e = np.eye(3)
    V = Subspace(e[:, :2])
    W = Subspace(e[:, 1:])
    assert_allclose(projection_dim_sum(V, W), 1.0, atol=1e-12)
    assert_allclose(projection_dim_sum(W, W), 2.0, atol=1e-12)


def test_projection_dim_sum_lower_bound(rng):
    # dim V = n - q + 1 and dim W = q force an intersection of dim >= 1
    n, q = 6, 3
    for _ in range(50):
        ZV = rng.standard_normal((n, n - q + 1)) + 1j * rng.standard_normal((n, n - q + 1))
        ZW = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        V = Subspace(np.linalg.qr(ZV)[0])
        W = Subspace(np.linalg.qr(ZW)[0])
        assert projection_dim_sum(V, W) >= 1.0 - 1e-9


# ------------------------------------------------------------ complement identity

def test_complement_sum_identity_trivial():
    assert complement_sum_identity([1.0, 2.0, 3.0], 1) == (-5.0, -5.0)
    assert complement_sum_identity([-2.0, 0.0, 4.0], 2) == (-4.0, -4.0)
    with pytest.raises(QOutOfRange):
        complement_sum_identity([1.0, 2.0], 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=9), st.data())
def test_complement_sum_identity_property(lams, data):
    q = data.draw(st.integers(1, len(lams) - 1))
    lhs, rhs = complement_sum_identity(lams, q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
