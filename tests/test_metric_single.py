"""Single-form metric synthesis: spectral inflation, projectors, certificates."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpos import (
    CertificateFailed,
    DenominatorNonpositive,
    FieldPoint,
    FormField,
    HypothesisViolated,
    ProjectorRoutesDisagree,
    inertia,
    negative_projector,
    synthesize_single,
)
from qpos.hermitian import (MARGIN_FLOOR_SCALE, pencil_eigh, pencil_eigvalsh,
                            reduce_form, sign_counts)
from qpos.synthetic import (
    hermitian_with_eigs,
    planted_inertia_field,
    random_metric,
    random_unitary,
)


def field_of(mats, **kw):
    d = np.asarray(mats[0]).shape[0]
    pts = [FieldPoint(id=i, forms={"S": np.asarray(m, dtype=complex)}, **kw)
           for i, m in enumerate(mats)]
    return FormField(dim=d, points=pts)


def spectral_terms(S, g0, q, theta=0.1):
    """``(lam, N, P, m, delta)`` of the module docstring at one point."""
    lam = pencil_eigvalsh(S, g0)
    N = -np.sum(np.minimum(lam[:q], 0.0))
    P = np.sum(np.maximum(lam[:q], 0.0))
    m = theta * P * (N - P) / (N + theta * (N - P))
    return lam, N, P, m, m / (2 * (q - 1))


def staged_reference(field, q, theta=0.1):
    """The stratified inflation that the spectral function replaced: at stage r,
    points with r negative eigenvalues grow by 1 + f along their negative
    eigenvectors.  The two agree where no eigenvalue lies in (-delta, 0)."""
    S, metrics = field.form_stack("S"), field.g0_stack()
    nu = sign_counts(np.linalg.eigvalsh(S))[1]
    for r in range(1, q):
        stage = np.where((nu == r) & ~field.anchored_mask())[0]
        lam, V = pencil_eigh(S[stage], metrics[stage])
        f = (1.0 + theta) * -np.sum(lam[:, :q], axis=1) / np.sum(lam[:, r:q], axis=1)
        grow = f > 0
        idx, g, Vr = stage[grow], metrics[stage[grow]], V[grow, :, :r]
        P = Vr @ np.conj(np.swapaxes(Vr, -1, -2)) @ g
        upd = g + f[grow, None, None] * (np.conj(np.swapaxes(P, -1, -2)) @ g @ P)
        metrics[idx] = 0.5 * (upd + np.conj(np.swapaxes(upd, -1, -2)))
    return metrics


# ------------------------------------- hypothesis, and the factor f = (1 + theta) (N - P) / P

def test_stratify_positive_definite_everywhere():
    f = field_of([np.eye(3), 2 * np.eye(3)])
    assert list(sign_counts(np.linalg.eigvalsh(f.form_stack("S")))[1]) == [0, 0]
    metrics, cert = synthesize_single(f, "S", 2)
    assert "inflated" not in list(cert.provenance)
    assert_allclose(metrics, f.g0_stack())


def test_synthesize_inflates_a_point_with_a_negative_eigenvalue():
    _, cert = synthesize_single(field_of([np.diag([-5.0, 1.0, 2.0])]), "S", 2)
    assert list(cert.provenance) == ["inflated"]


def test_synthesize_hypothesis_violated():
    f = field_of([np.eye(3), np.diag([-1.0, -1.0, 3.0])])
    with pytest.raises(HypothesisViolated, match="point 1"):
        synthesize_single(f, "S", 2)  # needs >= d - q + 1 = 2 positive eigenvalues
    with pytest.raises(HypothesisViolated):
        synthesize_single(field_of([np.diag([-1.0, 0.0, 0.0])]), "S", 2)


def test_choose_f_worked_example():
    metrics, _ = synthesize_single(field_of([np.diag([-5.0, 1.0, 2.0])]), "S", 2, theta=0.1)
    # f = 1.1 * (5 - 1) / 1 = 4.4 along the negative eigenvector, and -5 / 5.4 + 1 > 0
    assert_allclose(metrics[0], np.diag([5.4, 1.0, 1.0]), rtol=1e-12, atol=1e-14)


def test_choose_f_zero_when_already_positive(rng):
    # against g0 the eigenvalues are -0.5, 1 and 2: the 2-sum 0.5 > 0 needs no inflation
    g0 = random_metric(rng, 3)
    L = np.linalg.cholesky(g0)
    S = (L * np.array([-0.5, 1.0, 2.0])) @ L.conj().T
    field = FormField(dim=3, points=[FieldPoint(id="x", forms={"S": S}, g0=g0)])
    metrics, cert = synthesize_single(field, "S", 2)
    assert metrics[0].tobytes() == field.g0_stack()[0].tobytes()
    assert list(cert.provenance) == ["g0_default"]


def test_choose_f_degenerate_denominator():
    # against g0 the eigenvalues are -1, 1e-12 and 1e3: the tail sum P = 1e-12
    # is within 1e-12 * max|lam| of zero, so f = 1.1 * (N - P) / P is unusable
    pts = [FieldPoint(id="p7", forms={"S": np.diag([-1.0, 1e-9, 1.0]).astype(complex)},
                      g0=np.diag([1.0, 1e3, 1e-3]).astype(complex))]
    with pytest.raises(DenominatorNonpositive, match="'p7'"):
        synthesize_single(FormField(dim=3, points=pts), "S", 2)


@pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf])
def test_synthesize_rejects_unusable_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        synthesize_single(field_of([np.diag([-5.0, 1.0, 2.0])]), "S", 2, theta=theta)


# ------------------------------------------------------------ spectral inflation

def test_synthesize_equals_staged_inflation_off_the_ramp(rng):
    # where every negative eigenvalue is <= -delta the spectral function is the
    # indicator of the negative ones, and the metric is the staged one
    for q in (2, 3, 4):
        field = planted_inertia_field(rng, 150, 6, q, n_anchor=5)
        g0 = np.array([random_metric(rng, 6) for _ in range(150)])
        field = FormField.from_stacks(field.ids, {"S": field.form_stack("S")}, g0=g0,
                                      in_F=field.in_F)
        metrics, _ = synthesize_single(field, "S", q)
        ref = staged_reference(field, q)
        S = field.form_stack("S")
        off_ramp = [not np.any((lam > -delta) & (lam < 0))
                    for lam, *_, delta in (spectral_terms(S[i], g0[i], q) for i in range(150))]
        assert sum(off_ramp) > 100
        err = np.max(np.abs(metrics - ref), axis=(1, 2))
        assert np.all(err[off_ramp] <= 1e-13 * np.max(np.abs(ref), axis=(1, 2))[off_ramp])


def test_synthesize_crossing_family_is_continuous():
    # S = diag(-2, s, 1), q = 3: a hard projector grows G[1, 1] to 2.1 for s < 0
    # and leaves it at 1 for s > 0
    G = [synthesize_single(field_of([np.diag([-2.0, s, 1.0])]), "S", 3)[0][0]
         for s in (-1e-6, 1e-6)]
    assert abs(G[0][1, 1] - G[1][1, 1]) < 1e-3
    assert_allclose(G[1], np.diag([G[1][0, 0].real, 1.0, 1.0]), atol=1e-14)


@st.composite
def crossing_families(draw):
    """A g0, and S(s) = U diag(neg, s, pos) U* whose eigenvalue s crosses zero
    with at least one negative eigenvalue and enough positive ones for the
    hypothesis to hold at every s; the negatives outweigh the positive tail."""
    d = draw(st.integers(3, 6))
    q = draw(st.integers(3, d))
    nu = draw(st.integers(1, q - 2))
    pos = sorted(draw(st.lists(st.floats(0.2, 3.0), min_size=d - nu - 1, max_size=d - nu - 1)))
    neg = draw(st.lists(st.floats(0.5, 5.0), min_size=nu, max_size=nu))
    neg[0] += sum(pos[:q - nu - 1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return q, random_unitary(rng, d), random_metric(rng, d), -np.array(neg), np.array(pos)


def family_metric(U, g0, neg, pos, q, s):
    S = (U * np.concatenate([neg, [s], pos])) @ U.conj().T
    pts = [FieldPoint(id="x", forms={"S": S}, g0=g0)]
    return synthesize_single(FormField(dim=len(g0), points=pts), "S", q)[0][0], S


@settings(max_examples=40, deadline=None)
@given(crossing_families())
def test_metric_change_vanishes_across_an_eigenvalue_crossing(family):
    # |dG|_F <= L |dA|_F |W^{-1}|^2 with |dA|_F <= |W|^2 |dS|_F, so the jump over
    # [-h, h] is at most (a small multiple of) f / delta * cond(g0) * 2h
    q, U, g0, neg, pos = family
    _, S0 = family_metric(U, g0, neg, pos, q, 0.0)
    lam, N, P, m, delta = spectral_terms(S0, g0, q)
    theta = 0.1
    slope = 2 * (q - 1) * (1 + theta) * (N + theta * (N - P)) / (theta * P**2)
    cond = np.linalg.cond(g0)
    for h in (1e-3, 1e-6, 1e-9):
        G_minus, _ = family_metric(U, g0, neg, pos, q, -h)
        G_plus, _ = family_metric(U, g0, neg, pos, q, h)
        assert np.linalg.norm(G_plus - G_minus) <= 10 * len(g0) * slope * cond * 2 * h + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(2, d), st.integers(0, 2**32 - 1),
    st.lists(st.floats(-6.0, 0.85), min_size=1, max_size=d - 1))))
def test_every_inflated_q_sum_is_at_least_half_the_margin(case):
    # negatives of every scale from -1e-6 to -7, so that some fall on the ramp (-delta, 0)
    d, q, seed, exponents = case
    nu = min(len(exponents), q - 1)
    rng = np.random.default_rng(seed)
    eigs = np.concatenate([-10.0 ** np.array(exponents[:nu]), rng.uniform(0.1, 2.0, size=d - nu)])
    S, g0 = hermitian_with_eigs(rng, eigs), random_metric(rng, d)
    field = FormField(dim=d, points=[FieldPoint(id="x", forms={"S": S}, g0=g0)])
    lam, N, P, m, delta = spectral_terms(S, g0, q)
    if N <= P:
        return
    _, cert = synthesize_single(field, "S", q)
    assert cert.provenance[0] == "inflated"
    assert cert.min_sum[0] >= m / 2 - 1e-12 * max(1.0, np.max(np.abs(lam)))


def test_synthesize_checks_applied_projectors(rng, monkeypatch):
    # eigenvectors with the most negative and the most positive column swapped
    # apply projectors that the Riesz spot check must reject
    import qpos.metric_single as ms

    def corrupted(H, G):
        lam, V = pencil_eigh(H, G)
        return lam, V[..., [5, 1, 2, 3, 4, 0]]

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
        P = negative_projector(S, g, 2)
        # g-orthogonal projector onto a 2-dim space
        assert np.linalg.norm(P @ P - P, 2) < 1e-9
        assert np.linalg.norm(g @ P - P.conj().T @ g, 2) < 1e-9
        assert abs(np.trace(P).real - 2.0) < 1e-9


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


# ------------------------------------------------------------- synthesize

def test_synthesize_positive_definite_field_keeps_g0():
    f = field_of([np.eye(3), 3 * np.eye(3)])
    metrics, cert = synthesize_single(f, "S", 2)
    assert cert.passed
    assert_allclose(metrics, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert list(cert.provenance) == ["g0_default", "g0_default"]


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
    assert cert.entries[2].provenance == "inflated"


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


# ------------------------------------ one eigendecomposition, against the old route

def lapack_congruence(G):
    """W = L^{-*} from LAPACK's Cholesky factor of every row, identity rows too."""
    return np.linalg.inv(np.conj(np.swapaxes(np.linalg.cholesky(G), -1, -2)))


def two_solve_route(field, q, theta=0.1):
    """``synthesize_single`` as it was when the hypothesis had its own full
    ``eigvalsh(S)`` and the pencil was solved at the free points only, with every
    metric factored: ``(metrics, min_sum, margin, provenance)``.  Its checks that
    only raise (the denominator and the Riesz routes) are left out."""
    d, ids = field.dim, field.ids
    S = field.form_stack("S")
    n_plus, n_minus = sign_counts(np.linalg.eigvalsh(S))
    bad = np.where(n_plus < d - q + 1)[0]
    if bad.size:
        i = int(bad[0])
        raise HypothesisViolated(ids[i], (int(n_plus[i]), int(n_minus[i]),
                                          d - int(n_plus[i]) - int(n_minus[i])))
    anchored = field.anchored_mask()
    metrics = field.g0_stack()
    free = np.where(~anchored)[0]
    W = lapack_congruence(metrics[free])
    lam, Y = np.linalg.eigh(reduce_form(S[free], W))
    V = W @ Y
    N = -np.sum(np.minimum(lam[:, :q], 0.0), axis=1)
    P = np.sum(np.maximum(lam[:, :q], 0.0), axis=1)
    grow = N > P
    idx, lam, V, N, P = free[grow], lam[grow], V[grow], N[grow], P[grow]
    G = metrics[idx]
    f = (1.0 + theta) * (N - P) / P
    delta = theta * P * (N - P) / (N + theta * (N - P)) / (2 * (q - 1))
    Z = G @ V
    fw = f[:, None] * np.clip(-lam / delta[:, None], 0.0, 1.0)
    upd = G + (Z * fw[:, None, :]) @ np.conj(np.swapaxes(Z, -1, -2))
    metrics[idx] = 0.5 * (upd + np.conj(np.swapaxes(upd, -1, -2)))
    provenance = np.where(anchored, "g0_anchor", "g0_default").astype(object)
    provenance[idx] = "inflated"
    forms = S[None]  # the certificate's forms axis
    lam = np.linalg.eigvalsh(reduce_form(forms, lapack_congruence(metrics)))
    sums = np.sum(lam[..., :q], axis=-1)
    margin = sums - MARGIN_FLOOR_SCALE * np.linalg.norm(forms, axis=(-2, -1))
    return metrics, sums[0], margin[0], provenance


@pytest.mark.parametrize("g0_kind", ["none", "identity", "mixed"])
def test_synthesize_single_matches_the_two_solve_route_bitwise(rng, g0_kind):
    # one pencil eigendecomposition serves the counts (where g0 is exactly I and
    # S exactly Hermitian) and the inflation, and identity metrics are not
    # factored: the metrics and the certificate are bitwise those of the old
    # route, and a field that breaks the hypothesis fails at the same point with
    # the same counts.  Planted forms are Hermitian within tolerance only
    for (d, q), exact in itertools.product(((3, 2), (5, 3), (6, 4)), (False, True)):
        n = 60
        S = np.array(planted_inertia_field(rng, n, d, q).form_stack("S"))
        in_F = np.arange(n) % 11 == 3
        if g0_kind == "none":
            g0, in_F, weighted = None, None, np.zeros(n, bool)
        else:
            weighted = (rng.random(n) < 0.5) if g0_kind == "mixed" else np.zeros(n, bool)
            g0 = np.array([random_metric(rng, d, cond=1e3) if w else np.eye(d) for w in weighted])
        # anchors (F and its 1-ring) keep g0, so their forms are positive there
        neighbors = [[f"p{(i + 1) % n}"] if i % 3 == 0 else [] for i in range(n)]
        field = FormField.from_stacks([f"p{i}" for i in range(n)], {"S": S}, g0=g0, in_F=in_F,
                                      neighbors=neighbors)
        for r in np.flatnonzero(field.anchored_mask()):
            S[r] = hermitian_with_eigs(rng, rng.uniform(0.5, 2.0, d))
        if exact:
            S = 0.5 * (S + np.conj(np.swapaxes(S, -1, -2)))
        field = FormField.from_stacks(field.ids, {"S": S}, g0=g0, in_F=in_F, neighbors=neighbors)
        metrics, cert = synthesize_single(field, "S", q)
        ref, min_sum, margin, provenance = two_solve_route(field, q)
        assert metrics.tobytes() == ref.tobytes()
        assert cert.min_sum.tobytes() == min_sum.tobytes()
        assert cert.margin.tobytes() == margin.tobytes()
        assert list(cert.provenance) == list(provenance)
        assert "inflated" in list(provenance)

        # a point with too few positive eigenvalues; with mixed g0 one of each kind
        rows = [int(np.argmax(~weighted[5:])) + 5, int(np.argmax(weighted[5:])) + 5]
        broken = np.array(S)
        for r in rows[:1 + (g0_kind == "mixed")]:
            broken[r] = hermitian_with_eigs(rng, [-1.0] * q + [1.0] * (d - q))
            if exact:
                broken[r] = 0.5 * (broken[r] + broken[r].conj().T)
        field = FormField.from_stacks(field.ids, {"S": broken}, g0=g0, in_F=in_F)
        with pytest.raises(HypothesisViolated) as ours:
            synthesize_single(field, "S", q)
        with pytest.raises(HypothesisViolated) as theirs:
            two_solve_route(field, q)
        assert (ours.value.point_id, ours.value.inertia) == \
            (theirs.value.point_id, theirs.value.inertia)
        assert ours.value.point_id == f"p{min(rows[:1 + (g0_kind == 'mixed')])}"


def test_synthesize_single_counts_near_hermitian_forms_from_their_lower_triangle():
    # S is Hermitian within tolerance only, with an eigenvalue just above the zero
    # rule's threshold (1e-10 here) as eigvalsh reads S, from its lower triangle,
    # and just below it in herm(S).  The hypothesis is counted as the old route
    # counts it, so it holds, and the point fails only its certificate's margin
    d = 3
    U = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    S = (U * np.array([-1.0, 1e-10 + 2e-14, 1.0])) @ U.conj().T
    S = 0.5 * (S + S.conj().T)
    S += np.triu(-0.6e-12 * np.outer(U[:, 1], U[:, 1].conj()), 1)
    herm = 0.5 * (S + S.conj().T)
    assert sign_counts(np.linalg.eigvalsh(S)) == (2, 1)
    assert sign_counts(np.linalg.eigvalsh(herm)) == sign_counts(np.linalg.eigh(herm)[0]) == (1, 1)
    field = FormField.from_stacks(["a", "b"], {"S": np.stack([S, np.eye(d)])})
    two_solve_route(field, 2)
    with pytest.raises(CertificateFailed) as exc:
        synthesize_single(field, "S", 2)
    assert exc.value.failed_ids == ["a"]
