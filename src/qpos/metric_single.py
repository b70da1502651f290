"""Metric synthesis for a single Hermitian form field by spectral inflation.

Given a form field where every point has at least d - q + 1 strictly
positive eigenvalues, a metric making the form strictly q-positive is built
point by point from one eigendecomposition.  Reduce by the congruence
W* g0 W = I to A = W* S W = Y diag(lam) Y*, lam ascending, and over j <= q
take

    N = -sum min(lam_j, 0),    P = sum max(lam_j, 0)  >=  lam_q  >  0.

Where N > P the point is not yet q-positive, and the metric becomes

    G = g0 + W^{-*} Y diag(f w(lam)) Y* W^{-1},    f = (1 + theta) (N - P) / P,
    w(lam) = clip(-lam / delta, 0, 1),             delta = m / (2 (q - 1)),
    m = theta P (N - P) / (N + theta (N - P)).

Relative to G the eigenvalues are lam_j / (1 + f w(lam_j)): the negative
ones shrink and the rest stay.  Where every negative eigenvalue is
<= -delta, w is 1 on them and G is the classical inflation along the
negative eigenspace by 1 + f, with q-sum P - N / (1 + f) = m exactly.  An
eigenvalue in (-delta, 0) maps into (-delta, 0) instead of to lam / (1 + f),
and at most q - 1 eigenvalues are negative, so every q-sum is
>= m - (q - 1) delta = m / 2 > 0.

The metric is continuous in (S, g0): N, P, f and delta are continuous in
the spectrum, f -> 0 as N - P -> 0, and f w has slope at most

    f / delta = 2 (q - 1) (1 + theta) (N + theta (N - P)) / (theta P^2)

in lam, so the matrix function moves Lipschitz-continuously with A
(Bhatia, Matrix Analysis, ch. V and VII).  A hard projector onto the
negative eigenvectors would jump where an eigenvalue crosses zero.  Points
flagged as anchored (the set F and, when adjacency is present, its 1-ring)
keep their prescribed metric g0 bitwise.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DenominatorNonpositive,
    HypothesisViolated,
    NoSpectralGap,
    NotPositiveDefinite,
    ProjectorRoutesDisagree,
    QOutOfRange,
)
from .fields import FormField, certify, require_passed
from .hermitian import (
    as_form,
    as_metric,
    congruence,
    identity_rows,
    pencil_eigh,
    reduce_form,
    sign_counts,
    zero_tolerance,
)
from .riesz import Disc, riesz_projector

DEFAULT_THETA = 0.1
RIESZ_CHECK_COUNT = 4
ROUTES_AGREE = 1e-8  # 2-norm distance within which the pencil and Riesz projectors agree


def negative_projector(S, g, r: int) -> np.ndarray:
    """g-orthogonal projector onto the span of the r negative eigenvectors.

    Computed from the pencil eigenvectors, and cross-checked against a Riesz
    projector of the congruence-reduced operator; the two routes must agree
    to ROUTES_AGREE, else ProjectorRoutesDisagree.  An eigenvalue within
    ``hermitian.zero_tolerance`` of 0 counts as zero.  The disc is centered at
    (lam_1 + lam_r) / 2; with a = (lam_r - lam_1) / 2 > 0 and r < d its radius
    sqrt(a (a + lam_(r+1) - lam_r)) makes the largest inner ratio
    |lam - center| / radius equal the largest outer ratio
    radius / |lam - center|, otherwise it is -lam_1 / 2.  The quadrature node
    count is chosen from the trapezoid error law |u|^N so the comparison is
    meaningful at any spectral separation.
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
    tau_gap = zero_tolerance(lam)
    if abs(lam[r - 1]) <= tau_gap and (r >= d or abs(lam[r]) <= tau_gap):
        raise NoSpectralGap(f"lam_r = {lam[r - 1]:.3e} and lam_(r+1) both near zero")
    if lam[r - 1] >= 0:
        raise NoSpectralGap(f"lam_r = {lam[r - 1]:.3e} is not negative")
    if r < d and lam[r] < -tau_gap:
        raise NoSpectralGap(f"lam_(r+1) = {lam[r]:.3e} is negative; r does not split the spectrum")
    Vr = (W @ Y)[:, :r]
    P = Vr @ Vr.conj().T @ G
    a = (lam[r - 1] - lam[0]) / 2.0
    if r < d and a > 0:
        radius = np.sqrt(a * (a + lam[r] - lam[r - 1]))
    else:
        radius = -lam[0] / 2.0
    disc = Disc(center=(lam[0] + lam[r - 1]) / 2.0, radius=radius)
    u = np.abs(lam - disc.center) / disc.radius
    rho = max(np.max(u[:r]), np.max(1.0 / u[r:], initial=0.0))
    nodes = int(min(max(32, np.ceil(np.log(1e-11) / np.log(rho))), 8192))
    PT = riesz_projector(T, disc, nodes=nodes).matrix
    distance = np.linalg.norm(W @ PT @ W_inv - P, 2)
    if distance > ROUTES_AGREE:
        raise ProjectorRoutesDisagree(distance)
    return P


def synthesize_single(field: FormField, form: str, q_tilde: int,
                      theta: float = DEFAULT_THETA):
    """Build a per-point metric making the named form strictly q_tilde-positive.

    Every point needs at least d - q_tilde + 1 strictly positive eigenvalues
    (counts are metric-independent, so they are taken against the identity),
    else HypothesisViolated names the first point that has fewer.  Each point
    that is not anchored (F and its 1-ring under adjacency keep g0 exactly)
    gets the spectral inflation of the module docstring, with margin factor
    ``theta`` (finite and positive, else ValueError).  One pencil
    eigendecomposition against g0 serves the free points and the points where
    g0 is exactly I and S exactly Hermitian: its spectrum there is the
    Euclidean one of S, which gives their counts.  Every other point gets a
    Euclidean ``eigvalsh`` of S, which reads S's lower triangle, as at every
    point before.  The two eigensolvers round differently (a few units in the
    last place of max |lam|), so an eigenvalue that close to the zero rule's
    threshold may be counted otherwise than ``eigvalsh`` alone would count it.
    The counts stay against the identity because the zero rule
    (``hermitian.zero_tolerance``) scales with the largest eigenvalue, which a
    metric rescales: against g0 = diag(1, 1e3, 1e-3) the point
    S = diag(-1, 1e-9, 1) would count one positive eigenvalue, not two.  The
    first RIESZ_CHECK_COUNT inflated points with no eigenvalue in (-delta, 0)
    apply f times the projector onto their eigenvalues <= -delta, which must
    agree with ``negative_projector`` to ROUTES_AGREE, else
    ProjectorRoutesDisagree.

    Returns ``(metrics, certificate)`` with ``metrics`` of shape (N, d, d).
    Raises CertificateFailed (with the certificate attached) if any point
    ends up non-positive.
    """
    if not 0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    d, ids = field.dim, field.ids
    if not 1 <= q_tilde <= d:
        raise QOutOfRange(f"q_tilde = {q_tilde} not in [1, {d}]")
    S = field.form_stack(form)
    metrics = np.array(field.g0)
    anchored = field.anchored_mask()
    counted = identity_rows(metrics) & np.all(S == np.conj(np.swapaxes(S, -1, -2)), axis=(-2, -1))
    solved = ~anchored | counted
    lam, V = pencil_eigh(S[solved], metrics[solved])
    euclid = np.empty(S.shape[:-1])
    euclid[counted] = lam[counted[solved]]
    if not counted.all():
        euclid[~counted] = np.linalg.eigvalsh(S[~counted])
    n_plus, n_minus = sign_counts(euclid)
    bad = np.where(n_plus < d - q_tilde + 1)[0]
    if bad.size:
        i = int(bad[0])
        tup = (int(n_plus[i]), int(n_minus[i]), d - int(n_plus[i]) - int(n_minus[i]))
        raise HypothesisViolated(ids[i], tup)

    free = np.where(~anchored)[0]
    lam, V = lam[~anchored[solved]], V[~anchored[solved]]
    head = lam[:, :q_tilde]
    N = -np.sum(np.minimum(head, 0.0), axis=1)
    P = np.sum(np.maximum(head, 0.0), axis=1)
    tiny = (N > 0) & (P <= 1e-12 * np.maximum(1.0, np.max(np.abs(lam), axis=1)))
    if tiny.any():
        raise DenominatorNonpositive(
            f"nonpositive eigenvalue-tail sum at point {ids[free[np.argmax(tiny)]]!r}")
    grow = N > P
    idx, lam, V, N, P = free[grow], lam[grow], V[grow], N[grow], P[grow]
    G = metrics[idx]
    f = (1.0 + theta) * (N - P) / P
    # at q_tilde = 1 no point grows: N > 0 there means P = 0, rejected above
    delta = theta * P * (N - P) / (N + theta * (N - P)) / (2 * (q_tilde - 1))

    clean = ~np.any((lam > -delta[:, None]) & (lam < 0), axis=1)
    for i in np.where(clean)[0][:RIESZ_CHECK_COUNT]:
        Vr = V[i, :, :int(np.sum(lam[i] <= -delta[i]))]
        distance = np.linalg.norm(
            negative_projector(S[idx[i]], G[i], Vr.shape[1]) - Vr @ Vr.conj().T @ G[i], 2)
        if distance > ROUTES_AGREE:
            raise ProjectorRoutesDisagree(distance)

    Z = G @ V  # W^{-*} Y, as G W = W^{-*}
    fw = f[:, None] * np.clip(-lam / delta[:, None], 0.0, 1.0)
    upd = G + (Z * fw[:, None, :]) @ np.conj(np.swapaxes(Z, -1, -2))
    metrics[idx] = 0.5 * (upd + np.conj(np.swapaxes(upd, -1, -2)))

    provenance = np.where(anchored, "g0_anchor", "g0_default").astype(object)
    provenance[idx] = "inflated"
    cert = certify(field, form, q_tilde, metrics, provenance)
    require_passed({form: cert}, f"strict {q_tilde}-positivity")
    return metrics, cert
