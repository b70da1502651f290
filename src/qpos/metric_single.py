"""Metric synthesis for a single Hermitian form field by stratified inflation.

Given a form field where every point has at least d - q + 1 strictly
positive eigenvalues, a metric making the form strictly q-positive is built
stage by stage: points are stratified by their count of negative eigenvalues
nu, and at stage r every point with nu = r gets its metric inflated along
the span of the negative eigenvectors by a factor 1 + f chosen so that

    sum_{j<=r} lam_j  +  (1 + f) * sum_{r<j<=q} lam_j  >  0.

Dividing by 1 + f shows the new q-smallest-eigenvalue sum is positive: the
inflation rescales exactly the negative eigenvalues to lam_j / (1 + f) and
leaves the rest unchanged.  Points flagged as anchored (the set F and, when
adjacency is present, its 1-ring) keep their prescribed metric g0 bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DenominatorNonpositive,
    HypothesisViolated,
    NoSpectralGap,
    NotPositiveDefinite,
    NotProjector,
    ProjectorRoutesDisagree,
    QOutOfRange,
)
from .fields import FormField, certify, require_passed
from .hermitian import (
    as_form,
    as_metric,
    congruence,
    pencil_eigh,
    reduce_form,
    sign_counts,
)
from .riesz import Disc, riesz_projector

DEFAULT_THETA = 0.1
RIESZ_CHECK_COUNT = 4


@dataclass
class Stratification:
    """Per-point negative-eigenvalue counts and anchor flags."""

    q_tilde: int
    nu_minus: np.ndarray         # (N,) int
    anchored: np.ndarray         # (N,) bool; these points keep g0

    def stage_mask(self, r: int) -> np.ndarray:
        """Points updated at stage r: nu = r and not anchored."""
        return (self.nu_minus == r) & ~self.anchored


def stratify(field: FormField, form: str, q_tilde: int) -> Stratification:
    """Count negative eigenvalues per point and check the synthesis hypothesis.

    Requires at least d - q_tilde + 1 strictly positive eigenvalues at every
    point (counts are metric-independent, so they are taken against the
    identity).  Raises HypothesisViolated with the offending point id.
    """
    d = field.dim
    if not 1 <= q_tilde <= d:
        raise QOutOfRange(f"q_tilde = {q_tilde} not in [1, {d}]")
    n_plus, n_minus = sign_counts(np.linalg.eigvalsh(field.form_stack(form)))
    need = d - q_tilde + 1
    bad = np.where(n_plus < need)[0]
    if bad.size:
        i = int(bad[0])
        tup = (int(n_plus[i]), int(n_minus[i]), d - int(n_plus[i]) - int(n_minus[i]))
        raise HypothesisViolated(field.ids[i], tup)
    return Stratification(q_tilde=q_tilde, nu_minus=n_minus.astype(int),
                          anchored=field.anchored_mask())


def choose_f(lam: np.ndarray, r: int, q_tilde: int, ids,
             theta: float = DEFAULT_THETA) -> np.ndarray:
    """Inflation factors f >= 0 for the stage-r points with ids ``ids``.

    ``lam`` holds each point's ascending eigenvalues relative to its current
    metric, one row per point.  Sets f = max(0, (1 + theta) * phi) where
    phi = -(sum_{1..q} lam) / (sum_{r+1..q} lam); any phi < 0 means the point
    already has a positive q-sum and needs no inflation.  The returned f
    satisfies the stage inequality with margin theta * |sum lam| wherever
    inflation happens.
    """
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=1))
    den = np.sum(lam[:, r:q_tilde], axis=1)
    bad = den <= 1e-12 * scale
    if bad.any():
        raise DenominatorNonpositive(
            f"nonpositive eigenvalue-tail sum at point {ids[int(np.argmax(bad))]!r}")
    phi = -np.sum(lam[:, :q_tilde], axis=1) / den
    f = np.maximum(0.0, (1.0 + theta) * phi)
    # stage inequality, checked rather than assumed
    value = np.sum(lam[:, :r], axis=1) + (1.0 + f) * den
    if not np.all(value > 0):
        raise DenominatorNonpositive(
            f"stage inequality failed at point {ids[int(np.argmin(value))]!r}")
    return f


def inflate_stage(S, metrics, strat: Stratification, r: int, ids,
                  theta: float = DEFAULT_THETA) -> np.ndarray:
    """Stage r of stratified inflation, in place; returns the updated indices.

    One pencil eigendecomposition of the stage points gives f (``choose_f``)
    and P = V_r V_r* G.  The first RIESZ_CHECK_COUNT applied P must agree
    with ``negative_projector`` to 1e-8, else ProjectorRoutesDisagree.
    """
    stage = np.where(strat.stage_mask(r))[0]
    lam, V = pencil_eigh(S[stage], metrics[stage])
    f = choose_f(lam, r, strat.q_tilde, [ids[i] for i in stage], theta=theta)
    grow = f > 0
    idx = stage[grow]
    g_prev = metrics[idx]
    Vr = V[grow, :, :r]
    P = Vr @ np.conj(np.swapaxes(Vr, -1, -2)) @ g_prev
    for j in range(min(RIESZ_CHECK_COUNT, idx.size)):
        distance = np.linalg.norm(negative_projector(S[idx[j]], g_prev[j], r) - P[j], 2)
        if distance > 1e-8:
            raise ProjectorRoutesDisagree(distance)
    upd = g_prev + f[grow, None, None] * (np.conj(np.swapaxes(P, -1, -2)) @ g_prev @ P)
    metrics[idx] = 0.5 * (upd + np.conj(np.swapaxes(upd, -1, -2)))
    return idx


def negative_projector(S, g, r: int, tau_gap: float | None = None,
                       check_riesz: bool = True, nodes: int | None = None) -> np.ndarray:
    """g-orthogonal projector onto the span of the r negative eigenvectors.

    Computed from the pencil eigenvectors, and (by default) cross-checked
    against a Riesz projector of the congruence-reduced operator; the two
    routes must agree to 1e-8, else ProjectorRoutesDisagree.  The disc is
    centered at (lam_1 + lam_r) / 2; with a = (lam_r - lam_1) / 2 > 0 and
    r < d its radius sqrt(a (a + lam_(r+1) - lam_r)) makes the largest inner
    ratio |lam - center| / radius equal the largest outer ratio
    radius / |lam - center|, otherwise it is -lam_1 / 2.  With
    ``nodes=None`` the quadrature node count is chosen from the trapezoid
    error law |u|^N so the comparison is meaningful at any spectral
    separation.
    """
    M = as_form(S)
    G = as_metric(g)
    d = M.shape[0]
    if not 0 <= r <= d:
        raise ValueError(f"r = {r} not in [0, {d}]")
    if r == 0:
        return np.zeros((d, d), dtype=complex)
    # one factorization of G serves the eigenvector route and the Riesz route
    W, W_inv = congruence(G)
    T = reduce_form(M, W)
    lam, Y = np.linalg.eigh(T)
    if tau_gap is None:
        tau_gap = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
    if abs(lam[r - 1]) <= tau_gap and (r >= d or abs(lam[r]) <= tau_gap):
        raise NoSpectralGap(f"lam_r = {lam[r - 1]:.3e} and lam_(r+1) both near zero")
    if lam[r - 1] >= 0:
        raise NoSpectralGap(f"lam_r = {lam[r - 1]:.3e} is not negative")
    if r < d and lam[r] < -tau_gap:
        raise NoSpectralGap(f"lam_(r+1) = {lam[r]:.3e} is negative; r does not split the spectrum")
    Vr = (W @ Y)[:, :r]
    P = Vr @ Vr.conj().T @ G
    if check_riesz:
        a = (lam[r - 1] - lam[0]) / 2.0
        if r < d and a > 0:
            radius = np.sqrt(a * (a + lam[r] - lam[r - 1]))
        else:
            radius = -lam[0] / 2.0
        disc = Disc(center=(lam[0] + lam[r - 1]) / 2.0, radius=radius)
        if nodes is None:
            u = np.abs(lam - disc.center) / disc.radius
            rho = max(np.max(u[:r]), np.max(1.0 / u[r:], initial=0.0))
            nodes = int(min(max(32, np.ceil(np.log(1e-11) / np.log(rho))), 8192))
        PT = riesz_projector(T, disc, nodes=nodes).matrix
        distance = np.linalg.norm(W @ PT @ W_inv - P, 2)
        if distance > 1e-8:
            raise ProjectorRoutesDisagree(distance)
    return P


def update_metric(g_prev, P, f: float, tau_proj: float = 1e-8) -> np.ndarray:
    """g_new(X, Y) = g_prev(X, Y) + f * g_prev(P X, P Y).

    P must be a g_prev-orthogonal projector (idempotent and g-self-adjoint).
    The form's eigenvalues relative to g_new are lam_j / (1 + f) on range(P)
    and unchanged on the complement.
    """
    G = as_metric(g_prev)
    P = np.asarray(P, dtype=complex)
    if f < 0:
        raise ValueError("f must be nonnegative")
    scale = max(1.0, float(np.linalg.norm(P, 2)))
    if np.linalg.norm(P @ P - P, 2) > tau_proj * scale:
        raise NotProjector(f"||P^2 - P|| = {np.linalg.norm(P @ P - P, 2):.3e}")
    if np.linalg.norm(G @ P - P.conj().T @ G, 2) > tau_proj * scale * np.linalg.norm(G, 2):
        raise NotProjector("P is not g-self-adjoint")
    Gn = G + f * (P.conj().T @ G @ P)
    Gn = 0.5 * (Gn + Gn.conj().T)
    if np.linalg.eigvalsh(Gn)[0] <= 0:
        raise NotPositiveDefinite("updated metric lost positive definiteness")
    return Gn


def synthesize_single(field: FormField, form: str, q_tilde: int,
                      theta: float = DEFAULT_THETA):
    """Build a per-point metric making the named form strictly q_tilde-positive.

    Runs stages r = 1 .. q_tilde - 1 of stratified inflation from g0
    (identity where absent).  Anchored points (F and its 1-ring under
    adjacency) keep g0 exactly.

    Returns ``(metrics, certificate)`` with ``metrics`` of shape (N, d, d).
    Raises CertificateFailed (with the certificate attached) if any point
    ends up non-positive.
    """
    strat = stratify(field, form, q_tilde)
    S, metrics = field.form_stack(form), field.g0_stack()
    provenance = np.where(strat.anchored, "g0_anchor", "g0_default").astype(object)
    for r in range(1, q_tilde):
        provenance[inflate_stage(S, metrics, strat, r, field.ids, theta=theta)] = \
            f"inflated_stage_{r}"

    cert = certify(field, form, q_tilde, metrics, provenance)
    require_passed({form: cert}, f"strict {q_tilde}-positivity")
    return metrics, cert
