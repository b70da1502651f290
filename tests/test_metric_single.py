"""Stratified single-form metric synthesis: stages, projectors, certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpos import (
    CertificateFailed,
    DenominatorNonpositive,
    FieldPoint,
    FormField,
    HypothesisViolated,
    NotProjector,
    ProjectorRoutesDisagree,
    choose_f,
    inertia,
    negative_projector,
    spectrum_wrt,
    stratify,
    synthesize_single,
    update_metric,
)
from qpos.hermitian import pencil_eigh, pencil_eigvalsh
from qpos.metric_single import inflate_stage
from qpos.synthetic import hermitian_with_eigs, planted_inertia_field, random_metric


def field_of(mats, **kw):
    d = np.asarray(mats[0]).shape[0]
    pts = [FieldPoint(id=i, forms={"S": np.asarray(m, dtype=complex)}, **kw)
           for i, m in enumerate(mats)]
    return FormField(dim=d, points=pts)


# ------------------------------------------------------------------ stratify

def test_stratify_positive_definite_everywhere():
    f = field_of([np.eye(3), 2 * np.eye(3)])
    s = stratify(f, "S", 2)
    assert list(s.nu_minus) == [0, 0]
    assert s.stage_mask(1).sum() == 0


def test_stratify_counts_negatives():
    f = field_of([np.diag([-5.0, 1.0, 2.0])])
    s = stratify(f, "S", 2)
    assert list(s.nu_minus) == [1]
    assert s.stage_mask(1).tolist() == [True]


def test_stratify_hypothesis_violated():
    f = field_of([np.diag([-1.0, -1.0, 3.0])])
    with pytest.raises(HypothesisViolated):
        stratify(f, "S", 2)  # needs >= d - q + 1 = 2 positive eigenvalues


# ------------------------------------------------------------------ choose_f

def test_choose_f_worked_example():
    vals = choose_f(np.array([[-5.0, 1.0, 2.0]]), 1, 2, [0], theta=0.1)
    # phi = -(-5 + 1) / 1 = 4, f = 1.1 * 4 = 4.4, and -5 + 5.4 * 1 = 0.4 > 0
    assert_allclose(vals, [4.4], rtol=1e-12)
    assert -5.0 + (1.0 + vals[0]) * 1.0 > 0


def test_choose_f_zero_when_already_positive():
    # sum of two smallest = 0.5 > 0
    vals = choose_f(np.array([[-0.5, 1.0, 2.0]]), 1, 2, [0], theta=0.1)
    assert vals[0] == 0.0


def test_choose_f_degenerate_denominator():
    f = field_of([np.diag([-1.0, 0.0, 0.0])])
    with pytest.raises((DenominatorNonpositive, HypothesisViolated)):
        stratify(f, "S", 2)
        choose_f(np.array([[-1.0, 0.0, 0.0]]), 1, 2, [0], theta=0.1)
    # reachable directly when the eigenvalue tail collapses to zero
    with pytest.raises(DenominatorNonpositive, match="'p7'"):
        choose_f(np.array([[-1.0, 1e-13, 1.0]]), 1, 2, ["p7"], theta=0.1)


def test_stagewise_inductive_invariant(rng):
    # after stage r, the q-smallest sum is positive on every point with
    # negative count <= r
    q_tilde = 3
    field = planted_inertia_field(rng, 120, 6, q_tilde)
    strat = stratify(field, "S", q_tilde)
    S = field.form_stack("S")
    metrics = field.g0_stack()
    for r in range(1, q_tilde):
        idx = inflate_stage(S, metrics, strat, r, field.ids, theta=0.1)
        assert np.all(strat.nu_minus[idx] == r)
        on_stratum = (strat.nu_minus <= r) | strat.anchored
        lam = pencil_eigvalsh(S[on_stratum], metrics[on_stratum])
        assert np.all(np.sum(lam[:, :q_tilde], axis=1) > 0)


def test_synthesize_checks_applied_projectors(rng, monkeypatch):
    # stage eigenvectors with a negative and a positive column swapped give
    # projectors that the Riesz spot check must reject
    import qpos.metric_single as ms

    def corrupted(H, G):
        lam, V = pencil_eigh(H, G)
        if np.ndim(H) == 3:
            V = V[..., [1, 0, 2, 3, 4, 5]]
        return lam, V

    field = planted_inertia_field(rng, 40, 6, 3)
    synthesize_single(field, "S", 3)
    monkeypatch.setattr(ms, "pencil_eigh", corrupted)
    with pytest.raises(ProjectorRoutesDisagree):
        synthesize_single(field, "S", 3)


# ---------------------------------------------------------- negative projector

def test_negative_projector_diagonal():
    P = negative_projector(np.diag([-5.0, 1.0, 2.0]), np.eye(3), 1)
    assert_allclose(P, np.diag([1.0, 0.0, 0.0]), atol=1e-10)


def test_negative_projector_r_zero():
    P = negative_projector(np.eye(3), np.eye(3), 0)
    assert_allclose(P, np.zeros((3, 3)))


def test_negative_projector_dual_route_random(rng):
    # planted signature with 2 negatives; routes are cross-checked internally
    for _ in range(10):
        S = hermitian_with_eigs(rng, [-3.0, -0.7, 0.9, 2.0, 4.0])
        g = random_metric(rng, 5)
        P = negative_projector(S, g, 2, check_riesz=True)
        # g-orthogonal projector onto a 2-dim space
        assert np.linalg.norm(P @ P - P, 2) < 1e-9
        assert np.linalg.norm(g @ P - P.conj().T @ g, 2) < 1e-9
        assert abs(np.trace(P).real - 2.0) < 1e-9


# ------------------------------------------------------------- update_metric

def test_negative_projector_crowded_negative_spectrum():
    # lam_r = -0.005 lies 0.1 % inside a disc of radius -lam_1 / 2, beyond what
    # the 8192-node cap resolves; the balanced disc needs 150 nodes
    S = np.diag([-5.0, -0.005, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    P = negative_projector(S, np.eye(6), 2)
    assert_allclose(P, np.diag([1.0, 1.0, 0, 0, 0, 0]), atol=1e-12)
    metrics, cert = synthesize_single(field_of([S]), "S", 4)
    assert cert.passed
    with pytest.raises(ProjectorRoutesDisagree):
        negative_projector(S, np.eye(6), 2, nodes=32)


def test_update_metric_f_zero_is_identity_map(rng):
    g = random_metric(rng, 4)
    P = negative_projector(hermitian_with_eigs(rng, [-1.0, 1.0, 2.0, 3.0]), g, 1)
    assert_allclose(update_metric(g, P, 0.0), g, atol=1e-14)


def test_update_metric_worked_example():
    S = np.diag([-5.0, 1.0, 2.0])
    P = np.diag([1.0, 0.0, 0.0])
    g1 = update_metric(np.eye(3), P, 4.4)
    lam = spectrum_wrt(S, g1).eigenvalues
    assert_allclose(lam, [-5.0 / 5.4, 1.0, 2.0], rtol=1e-12)
    assert_allclose(lam[0] + lam[1], 2.0 / 27.0, rtol=1e-9)


def test_update_metric_spectral_rescaling_random(rng):
    S = hermitian_with_eigs(rng, [-2.0, -1.0, 0.5, 3.0])
    g = random_metric(rng, 4)
    lam0 = spectrum_wrt(S, g).eigenvalues
    P = negative_projector(S, g, 2)
    f = 1.7
    g1 = update_metric(g, P, f)
    lam1 = spectrum_wrt(S, g1).eigenvalues
    expect = np.sort(np.concatenate([lam0[:2] / (1 + f), lam0[2:]]))
    assert_allclose(lam1, expect, rtol=1e-9, atol=1e-9)


def test_update_metric_rejects_non_projector(rng):
    g = random_metric(rng, 3)
    with pytest.raises(NotProjector):
        update_metric(g, 0.5 * np.eye(3), 1.0)


# ------------------------------------------------------------- synthesize

def test_synthesize_positive_definite_field_keeps_g0():
    f = field_of([np.eye(3), 3 * np.eye(3)])
    metrics, cert = synthesize_single(f, "S", 2)
    assert cert.passed
    assert_allclose(metrics, np.broadcast_to(np.eye(3), (2, 3, 3)))


def test_synthesize_worked_example():
    f = field_of([np.diag([-5.0, 1.0, 2.0])])
    metrics, cert = synthesize_single(f, "S", 2, theta=0.1)
    assert cert.passed
    assert_allclose(cert.entries[0].min_sum, 2.0 / 27.0, atol=1e-9)


def test_synthesize_random_field_end_to_end(rng):
    field = planted_inertia_field(rng, 200, 6, 3)
    metrics, cert = synthesize_single(field, "S", 3)
    assert cert.passed
    S = field.form_stack("S")
    lam = pencil_eigvalsh(S, metrics)
    assert np.all(np.sum(lam[:, :3], axis=1) > 0)
    # metric monotonicity: the update only ever adds a PSD term
    base = field.g0_stack()
    for i in range(0, 200, 17):
        diff = metrics[i] - base[i]
        assert np.linalg.eigvalsh(diff)[0] > -1e-10
    # inertia is preserved pointwise by the metric change
    for i in range(0, 200, 29):
        assert inertia(S[i]).as_tuple()[1] == int(
            np.sum(pencil_eigvalsh(S[i], metrics[i]) < 0))


def test_synthesize_anchors_f_points(rng):
    field = planted_inertia_field(rng, 50, 6, 3, n_anchor=7)
    metrics, cert = synthesize_single(field, "S", 3)
    assert cert.passed
    for i in range(7):
        assert metrics[i].tobytes() == field.points[i].g0.tobytes()
        assert cert.entries[i].provenance == "g0_anchor"


def test_synthesize_anchor_ring_with_adjacency(rng):
    # in_F point plus its 1-ring keep g0; the ring neighbor is chosen benign
    d = 3
    pts = [
        FieldPoint(id="f0", forms={"S": np.eye(d, dtype=complex)},
                   g0=np.eye(d, dtype=complex), in_F=True, neighbors=["n1"]),
        FieldPoint(id="n1", forms={"S": np.diag([-0.1, 1.0, 2.0]).astype(complex)},
                   neighbors=["f0"]),
        FieldPoint(id="far", forms={"S": np.diag([-5.0, 1.0, 2.0]).astype(complex)},
                   neighbors=[]),
    ]
    field = FormField(dim=d, points=pts)
    metrics, cert = synthesize_single(field, "S", 2)
    assert cert.passed
    assert_allclose(metrics[0], np.eye(d))
    assert_allclose(metrics[1], np.eye(d))  # anchored by the 1-ring
    assert cert.entries[2].provenance == "inflated_stage_1"


def test_synthesize_certificate_failure_is_honest():
    # anchored neighbor whose form is NOT q-positive at g0: must fail loudly
    d = 3
    pts = [
        FieldPoint(id="f0", forms={"S": np.eye(d, dtype=complex)},
                   g0=np.eye(d, dtype=complex), in_F=True, neighbors=["bad"]),
        FieldPoint(id="bad", forms={"S": np.diag([-5.0, 1.0, 2.0]).astype(complex)},
                   neighbors=["f0"]),
    ]
    field = FormField(dim=d, points=pts)
    with pytest.raises(CertificateFailed) as exc:
        synthesize_single(field, "S", 2)
    assert "bad" in exc.value.failed_ids
