"""Penalty-metric synthesis from a subbundle of common positive directions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpos import (
    DimensionMismatch,
    FormField,
    NotFinite,
    NotPositiveDefinite,
    NotPositiveOnV,
    build_penalty_metric,
    choose_C,
    compute_constants,
    q_min_sum,
    synthesize_subbundle,
)
from qpos.hermitian import pencil_eigvalsh
from qpos.synthetic import (
    planted_subbundle_field,
    random_g_orthonormal_frames,
    random_hermitian,
)

ETA = 0.05


def one_point_field(H, V, name="Q"):
    return FormField.from_stacks([0], {name: H[None]}, subspace=V[None])


# ----------------------------------------------------------------- constants

def test_constants_identity_form():
    d, q = 3, 2
    V = np.eye(d, dtype=complex)[:, : d - q + 1]
    field = one_point_field(np.eye(d, dtype=complex), V)
    c = compute_constants(field, ["Q"], q)["Q"]
    assert_allclose([c.A1, c.A2, c.A3], [1.0, 1.0, 0.0], atol=1e-12)


def test_constants_block_diagonal():
    d, q = 3, 2
    V = np.eye(d, dtype=complex)[:, :2]
    field = one_point_field(np.diag([2.0, 3.0, -1.0]).astype(complex), V)
    c = compute_constants(field, ["Q"], q)["Q"]
    assert_allclose([c.A1, c.A2, c.A3], [2.0, 1.0, 0.0], atol=1e-12)


def test_constants_not_positive_on_v():
    d, q = 3, 2
    V = np.eye(d, dtype=complex)[:, :2]
    field = one_point_field(np.diag([-2.0, 3.0, 1.0]).astype(complex), V)
    with pytest.raises(NotPositiveOnV):
        compute_constants(field, ["Q"], q)["Q"]


def test_constants_a3_sampling_oracle(rng):
    field = planted_subbundle_field(rng, 6, 5, 2, form_names=("Q",))
    c = compute_constants(field, ["Q"], 2)["Q"]
    worst = -np.inf
    for i in range(len(field)):
        H = field.form_stack("Q")[i]
        BV = field.subspace[i]
        G = field.g0[i]
        # gamma-orthonormal basis of the complement
        w, U = np.linalg.eigh(G)
        Gh = (U * np.sqrt(w)) @ U.conj().T
        Ginvh = (U / np.sqrt(w)) @ U.conj().T
        Uf, _, _ = np.linalg.svd(Gh @ BV)
        BW = Ginvh @ Uf[:, BV.shape[1]:]
        for _ in range(2000):
            a = rng.standard_normal(BV.shape[1]) + 1j * rng.standard_normal(BV.shape[1])
            b = rng.standard_normal(BW.shape[1]) + 1j * rng.standard_normal(BW.shape[1])
            z = BV @ (a / np.linalg.norm(a))
            v = BW @ (b / np.linalg.norm(b))
            worst = max(worst, abs(np.vdot(v, H @ z)))
    assert worst <= c.A3 + 1e-9
    assert worst >= 0.5 * c.A3  # sampling gets within a factor of the sup


@pytest.mark.parametrize("bad, error", [
    (-np.eye(5), NotPositiveDefinite), (np.full((5, 5), np.nan), NotFinite),
    (np.eye(4), DimensionMismatch)])
def test_bad_gamma_is_refused_as_g0_at_its_point(rng, bad, error):
    # gamma reaches the synthesis only as g0, which the field checks per point
    field = planted_subbundle_field(rng, 5, 5, 2)
    g0 = np.array(field.g0)
    if bad.shape == g0.shape[1:]:
        g0[2], named = bad, "g0 at 'p2'"
    else:  # a matrix of another shape cannot sit in the stack: the stack is refused
        g0, named = np.broadcast_to(bad, (5, *bad.shape)), r"g0 stack has shape \(5, 4, 4\)"
    with pytest.raises(error, match=named):
        FormField.from_stacks(field.ids, field.forms, subspace=field.subspace, g0=g0)


# ----------------------------------------------------------------- choose_C

def test_choose_c_edge_cases():
    assert choose_C(1.0, 0.0, 0.0, 2) == 0.0
    c = choose_C(1.0, 1.0, 0.0, 2)
    assert_allclose(c, 2.0 / 0.95 - 1.0, rtol=1e-12)


def test_choose_c_with_no_transverse_eigenvalue_solves_for_the_coupling():
    # A2 = 0 < A3: s = 0.95 A1 / (2 q A3), which leaves the margin exactly ETA * A1
    C = choose_C(1.0, 0.0, 1.0, 1)
    assert_allclose(C, 1.0 / 0.475 ** 2 - 1.0, rtol=1e-12)
    assert_allclose(1.0 - 2.0 / np.sqrt(1.0 + C), ETA, rtol=1e-12)
    assert choose_C(1.0, 0.0, 0.1, 1) == 0.0  # s = 4.75 >= 1: no penalty needed


def test_choose_c_plugback_random(rng):
    for _ in range(200):
        A1 = float(rng.uniform(0.1, 5.0))
        A2 = float(rng.uniform(0.0, 5.0))
        A3 = float(rng.uniform(0.0, 5.0))
        q = int(rng.integers(1, 5))
        C = choose_C(A1, A2, A3, q)
        assert C >= 0.0
        lhs = A1 - q * A2 / (1.0 + C) - 2.0 * q * A3 / np.sqrt(1.0 + C)
        assert lhs > 0.0
        assert lhs >= ETA * A1 - 1e-12


# ------------------------------------------------------------ penalty metric

def test_build_penalty_metric_trivial(rng):
    V = np.eye(2, dtype=complex)[:, :1]
    assert_allclose(build_penalty_metric(np.eye(2), V, 0.0), np.eye(2))
    assert_allclose(build_penalty_metric(np.eye(2), V, 3.0), np.diag([1.0, 4.0]))


def test_build_penalty_metric_stack_matches_points(rng):
    field = planted_subbundle_field(rng, 6, 5, 2, form_names=("Q",))
    BV = field.subspace
    h = build_penalty_metric(field.g0, BV, 2.5)
    for i in range(len(field)):
        assert_allclose(h[i], build_penalty_metric(field.g0[i], BV[i], 2.5), atol=1e-13)


def test_constants_of_several_forms_match_one_at_a_time(rng):
    field = planted_subbundle_field(rng, 8, 5, 2)
    both = compute_constants(field, ["Q1", "Q3"], 2)
    assert list(both) == ["Q1", "Q3"]
    for name, c in both.items():
        assert c == compute_constants(field, [name], 2)[name]


def test_penalty_metric_unit_vector_decomposition(rng):
    # h-unit vectors split as u + v with gamma(u,u) <= 1, gamma(v,v) <= 1/(1+kappa)
    field = planted_subbundle_field(rng, 1, 5, 2, form_names=("Q",))
    G = field.g0[0]
    BV = field.subspace[0]
    kappa = 3.7
    h = build_penalty_metric(G, BV, kappa)
    PV = BV @ BV.conj().T @ G
    for t in random_g_orthonormal_frames(rng, h, 60, 1)[:, :, 0]:
        u = PV @ t
        v = t - u
        gu = float(np.real(u.conj() @ G @ u))
        gv = float(np.real(v.conj() @ G @ v))
        assert gu <= 1.0 + 1e-9
        assert gv <= 1.0 / (1.0 + kappa) + 1e-9


# --------------------------------------------------------------- synthesis

def test_synthesize_identity_form(rng):
    d, q = 3, 2
    V = np.eye(d, dtype=complex)[:, :2]
    field = one_point_field(np.eye(d, dtype=complex), V)
    h, certs, consts = synthesize_subbundle(field, ["Q"], q)
    assert certs["Q"].passed
    assert np.isfinite(consts["Q"].kappa)


def test_synthesize_strong_negative_complement():
    d, q = 3, 2
    V = np.eye(d, dtype=complex)[:, :2]
    field = one_point_field(np.diag([1.0, 1.0, -10.0]).astype(complex), V)
    h, certs, consts = synthesize_subbundle(field, ["Q"], q)
    assert certs["Q"].passed
    assert q_min_sum(field.form_stack("Q")[0], h[0], q) > 0


def test_synthesize_multiform_field(rng):
    field = planted_subbundle_field(rng, 30, 5, 2)
    h, certs, consts = synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2)
    kappa = consts["Q1"].kappa
    assert kappa == pytest.approx(max(c.C for c in consts.values()))
    for name, cert in certs.items():
        assert cert.passed
    # penalty inequality margin
    for c in consts.values():
        assert c.margin() >= ETA * c.A1 - 1e-12


@pytest.mark.parametrize("safety", [np.nan, np.inf, -1.0])
def test_synthesize_rejects_unusable_safety(rng, safety):
    # rejected at the argument, not deep in the metric build
    field = planted_subbundle_field(rng, 20, 5, 2)
    with pytest.raises(ValueError, match="safety"):
        synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2, safety=safety)


def test_synthesize_monotone_in_kappa(rng):
    field = planted_subbundle_field(rng, 10, 5, 2)
    _, _, consts = synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2)
    kappa = consts["Q1"].kappa
    for mult in (2.0, 10.0):
        BV = field.subspace
        P_perp = np.eye(5) - BV @ np.conj(np.swapaxes(BV, -1, -2)) @ field.g0
        h = field.g0 + mult * kappa * (np.conj(np.swapaxes(P_perp, -1, -2)) @ field.g0 @ P_perp)
        for name in ("Q1", "Q2", "Q3"):
            lam = pencil_eigvalsh(field.form_stack(name), h)
            assert np.all(np.sum(lam[:, :2], axis=1) > 0)


def test_frame_trace_chain_inequality(rng):
    # for h-orthonormal q-frames: sum H(t_k,t_k) >= A1 * sum gamma(Pv t, Pv t)
    #   - q A2/(1+C) - 2 q A3/sqrt(1+C), and the projection mass is >= 1
    field = planted_subbundle_field(rng, 4, 5, 2, form_names=("Q",))
    h, certs, consts = synthesize_subbundle(field, ["Q"], 2)
    c = consts["Q"]
    q = 2
    for i in range(len(field)):
        H, BV, G = field.form_stack("Q")[i], field.subspace[i], field.g0[i]
        PV = BV @ BV.conj().T @ G
        frames = random_g_orthonormal_frames(rng, h[i], 100, q)
        for T in frames:
            tr = float(np.trace(T.conj().T @ H @ T).real)
            proj = PV @ T
            mass = float(np.real(np.einsum("ik,ij,jk->", proj.conj(), G, proj)))
            bound = c.A1 * mass - q * c.A2 / (1 + c.C) - 2 * q * c.A3 / np.sqrt(1 + c.C)
            assert tr >= bound - 1e-9
            assert mass >= 1.0 - 1e-9


def test_certificate_survives_metric_perturbation(rng):
    field = planted_subbundle_field(rng, 10, 5, 2)
    h, certs, _ = synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2)
    margin = min(cert.min_margin() for cert in certs.values())
    for i in range(len(field)):
        E = random_hermitian(rng, 5)
        E *= (margin / 10.0) / np.linalg.norm(E, 2)
        hp = h[i] + E
        for name in ("Q1", "Q2", "Q3"):
            assert q_min_sum(field.form_stack(name)[i], hp, 2) > 0


def test_certificates_from_one_congruence_equal_one_pencil_solve_per_form(rng):
    # every form is certified against the one factorization of its metric
    # stack; each certificate is bitwise the per-form solve it replaced
    from qpos.fields import certify, certify_forms
    from qpos.hermitian import MARGIN_FLOOR_SCALE

    field = planted_subbundle_field(rng, 40, 5, 2)
    names = ["Q1", "Q2", "Q3"]
    h, certs, _ = synthesize_subbundle(field, names, 2)
    for metrics, q in ((h, 2), (field.g0, 4), (np.eye(5), 1)):
        shared = certify_forms(field, names, q, metrics, "shared")
        for name in names:
            S = field.form_stack(name)
            sums = np.sum(pencil_eigvalsh(S, metrics)[:, :q], axis=1)
            margins = sums - MARGIN_FLOOR_SCALE * np.linalg.norm(S, axis=(1, 2))
            made = [shared[name], certify(field, name, q, metrics, "shared")]
            for cert in made + ([certs[name]] if metrics is h else []):
                assert np.array_equal(cert.min_sum, sums)
                assert np.array_equal(cert.margin, margins)
