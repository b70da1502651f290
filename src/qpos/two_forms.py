"""Joint metric for a pair of Hermitian forms sharing a positive direction.

For forms Q1, Q2 on an inner-product space, deform the base metric along two
real parameters:

    <., .>_x = <., .> - x1 Q1 - x2 Q2 ,

let O be the (starlike, convex) set where this stays positive definite, and
put xi(x) = -log det of its Gram matrix.  The gradient of xi at x is exactly
the pair of traces (Tr_x Q1, Tr_x Q2), and xi is convex (strictly, unless
Q1 and Q2 are proportional).  When the pair shares a positive direction the
positive quadrant piece of O is bounded, the level curve xi = 1 crosses it,
and the arc where both gradient components are positive is nonempty and
connected; its arclength midpoint gamma gives the metric <., .>_gamma with
both traces positive.  Proportional pairs (Q1 = mu Q2, mu > 0) use the
closed-form midpoint (c / 2 mu, c / 2) of the line segment xi = 1 instead.

Both searches are exact.  A common positive direction is found or proved
absent by a convex search in one variable (``common_direction``).  Level
curves are traced by ray shooting: along a ray the Gram matrix is I - t M,
so one eigendecomposition of M gives xi and both traces in closed form and
Newton's method finds the crossing.  All rays are processed as one batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateFailed,
    DimensionMismatch,
    LevelNotReached,
    NoCommonDirection,
    QposError,
)
from .fields import FormField, certify, require_passed
from .hermitian import as_form, as_metric, congruence, reduce_form

DEFAULT_ANGLES = 512
TAU_LEVEL = 1e-10
TAU_PROP = 1e-10
GRAD_FLOOR = 1e-12
NEAR_PROP_WARN = 1e-6
DIRECTION_FLOOR_SCALE = 1e-12
GOLDEN_STEPS = 72  # 0.618**72 < 1e-15: the bracket in t reaches float resolution


@dataclass(frozen=True)
class XiEvaluation:
    x: np.ndarray
    in_O: bool
    xi: float | None
    grad: np.ndarray | None
    hessian: np.ndarray | None


@dataclass(frozen=True)
class LevelCurveSample:
    theta: float
    t: float
    x: np.ndarray
    xi: float
    grad: np.ndarray
    in_gamma_tilde: bool


@dataclass(frozen=True)
class PairMetricResult:
    gamma_point: np.ndarray
    metric: np.ndarray
    traces: tuple[float, float]
    proportional: bool
    mu: float | None
    samples: list[LevelCurveSample] | None


class PairState:
    """A pair of Hermitian forms with a base metric (default identity).

    Internally the forms are expressed in a base-orthonormal frame, so the
    Gram matrix of the deformed product is I - x1 Q1 - x2 Q2.  Metrics are
    reported back in the original coordinates.
    """

    def __init__(self, Q1, Q2, base=None, witness=None):
        self.Q1 = as_form(Q1)
        self.Q2 = as_form(Q2)
        if self.Q1.shape != self.Q2.shape:
            raise DimensionMismatch("Q1 and Q2 must have the same dimension")
        d = self.Q1.shape[0]
        self.dim = d
        self.base = np.eye(d, dtype=complex) if base is None else as_metric(base)
        self._W, _ = congruence(self.base)
        self._Q1t = reduce_form(self.Q1, self._W)
        self._Q2t = reduce_form(self.Q2, self._W)
        self.witness = None
        if witness is not None:
            v = np.asarray(witness, dtype=complex)
            if _worst(self.Q1[None], self.Q2[None], v[None])[0] <= 0:
                raise QposError("the witness is not positive for both forms")
            self.witness = v / np.sqrt(float(np.real(v.conj() @ self.base @ v)))

    # -- deformed Gram matrices (batched over rows of X) ------------------

    def gram(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        I = np.eye(self.dim, dtype=complex)
        return (I - X[:, 0, None, None] * self._Q1t
                - X[:, 1, None, None] * self._Q2t)

    def metric_at(self, x) -> np.ndarray:
        """The deformed metric at x in the original coordinates."""
        x = np.asarray(x, dtype=float)
        G = self.base - x[0] * self.Q1 - x[1] * self.Q2
        return 0.5 * (G + G.conj().T)

    def form_inner_ratio(self) -> float:
        """mu with Q1 ~ mu Q2 in the least-squares sense (form inner product)."""
        denom = float(np.vdot(self._Q2t, self._Q2t).real)
        if denom == 0:  # Q2 = 0: lambda_max of the segment at t = 1 is 0
            raise NoCommonDirection(t=1.0, lam_max=0.0)
        return float(np.vdot(self._Q2t, self._Q1t).real) / denom

    def proportionality_defect(self, mu: float) -> float:
        n1 = np.linalg.norm(self._Q1t)
        if n1 == 0:
            return 0.0
        return float(np.linalg.norm(self._Q1t - mu * self._Q2t) / n1)


def _frame_forms(pair: PairState, U, w):
    """Q1, Q2 in the frame U diag(w)^(-1/2), orthonormal for G = U diag(w) U*."""
    s = 1.0 / np.sqrt(w)
    return [s[..., :, None] * (np.conj(np.swapaxes(U, -1, -2)) @ Q @ U) * s[..., None, :]
            for Q in (pair._Q1t, pair._Q2t)]


def xi_eval(pair: PairState, x) -> XiEvaluation:
    """xi, gradient, and Hessian of the log-determinant deformation at x.

    The gradient components are the traces of Q1, Q2 relative to the
    deformed metric; the Hessian entry (r, s) is the inner product of Q_r
    and Q_s in any x-orthonormal frame, hence positive semidefinite.
    """
    x = np.asarray(x, dtype=float)
    w, U = np.linalg.eigh(pair.gram(x[None, :])[0])
    if w[0] <= 0:
        return XiEvaluation(x=x, in_O=False, xi=None, grad=None, hessian=None)
    R = _frame_forms(pair, U, w)
    return XiEvaluation(x=x, in_O=True, xi=float(-np.sum(np.log(w))),
                        grad=np.array([float(np.trace(Rr).real) for Rr in R]),
                        hessian=np.array([[float(np.vdot(Rs, Rr).real) for Rs in R]
                                          for Rr in R]))


def _worst(A, B, V):
    """min(A(v, v), B(v, v)) for each row v of V and the matching matrices."""
    return np.minimum(*(np.einsum("ni,nij,nj->n", V.conj(), F, V).real for F in (A, B)))


def _plane_optimum(A, B, E):
    """The unit v in the span of E's two columns maximising min(A(v, v), B(v, v)).

    On the Bloch sphere of the plane each form reads p + x . n, so a
    maximiser is the top of one form or the best point where the two agree.
    """
    def bloch(F):
        P = np.conj(np.swapaxes(E, 1, 2)) @ F @ E
        a, c, b = P[:, 0, 0].real, P[:, 1, 1].real, P[:, 0, 1]
        return (a + c) / 2, np.stack([b.real, -b.imag, (a - c) / 2], axis=1)

    def unit(x):
        return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-300)

    (p1, x1), (p2, x2) = bloch(A), bloch(B)
    norm = np.maximum(np.linalg.norm(x1 - x2, axis=1, keepdims=True), 1e-300)
    u, cos = (x1 - x2) / norm, np.clip((p2 - p1)[:, None] / norm, -1.0, 1.0)
    a = unit(np.cross(u, np.eye(3)[np.argmin(np.abs(u), axis=1)]))  # a, b span u-perp
    b = np.cross(u, a)
    ang = np.arctan2(np.sum(x1 * b, axis=1), np.sum(x1 * a, axis=1))[:, None]
    meet = cos * u + np.sqrt(1.0 - cos ** 2) * (np.cos(ang) * a + np.sin(ang) * b)
    cands = []
    for x, y, z in (unit(x1).T, unit(x2).T, meet.T):  # Bloch vector to C^2, nearer pole
        c2 = np.where(z[:, None] >= 0, np.stack([1 + z, x + 1j * y], 1),
                      np.stack([x - 1j * y, 1 - z], 1))
        cands.append((E @ unit(c2)[:, :, None])[:, :, 0])
    k = np.argmax([_worst(A, B, v) for v in cands], axis=0)
    return np.stack(cands, axis=1)[np.arange(len(k)), k]


def common_direction(Q1, Q2):
    """Decide for each pair of a stack whether both forms are positive somewhere.

    By Toeplitz-Hausdorff, max_{|v|=1} min(Q1(v, v), Q2(v, v)) is the
    minimum over t in [0, 1] of the convex f(t) = lambda_max((1 - t) Q1 + t Q2),
    found by golden section and compared with t = 0 and t = 1.  The witness
    is the top eigenvector at t* or, where that is not above the floor, the
    best vector of a plane in the top eigenspace; it is verified directly.
    Without one, f(t*) <= floor proves that none exists.

    ``Q1``, ``Q2``: (n, d, d) Hermitian stacks in base-orthonormal
    coordinates; floor = DIRECTION_FLOOR_SCALE * max(1, |Q1|_2, |Q2|_2).
    Returns ``(value, t, V)``: f(t*), t* and the unit witness rows, NaN where
    none exists.  Raises QposError for a pair that neither way decides.
    """
    A = np.asarray(Q1, dtype=complex)
    B = np.asarray(Q2, dtype=complex)
    n, d, _ = A.shape
    lam_a, lam_b = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
    floor = DIRECTION_FLOOR_SCALE * np.maximum.reduce(
        [np.ones(n), np.abs(lam_a).max(axis=1), np.abs(lam_b).max(axis=1)])

    def segment(t):
        return (1.0 - t)[:, None, None] * A + t[:, None, None] * B

    def top(t):
        return np.linalg.eigvalsh(segment(t))[:, -1]

    g = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.zeros(n), np.ones(n)
    c, e = np.full(n, 1.0 - g), np.full(n, g)
    fc, fe = top(c), top(e)
    for _ in range(GOLDEN_STEPS):
        left = fc <= fe  # a minimiser lies in [lo, e]
        lo, hi = np.where(left, lo, c), np.where(left, e, hi)
        new = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        f_new = top(new)
        c, e, fc, fe = (np.where(left, new, e), np.where(left, c, new),
                        np.where(left, f_new, fe), np.where(left, fc, f_new))
    T = np.stack([np.zeros(n), np.ones(n), c, e], axis=1)
    F = np.stack([lam_a[:, -1], lam_b[:, -1], fc, fe], axis=1)
    t = T[np.arange(n), np.argmin(F, axis=1)]
    lam, U = np.linalg.eigh(segment(t))
    value, V = lam[:, -1], U[:, :, -1]
    weak = _worst(A, B, V) <= floor
    if weak.any() and d > 1:
        # plane of the extreme Q2 - Q1 directions in the top eigenspace (>= 2 vectors)
        U, near = U[weak], lam[weak] >= (value - floor)[weak, None]
        near[:, -2:] = True
        D = np.conj(np.swapaxes(U, 1, 2)) @ (B - A)[weak] @ U * near[:, None, :] * near[:, :, None]
        mean = np.trace(D, axis1=1, axis2=2).real / near.sum(axis=1)  # never extreme
        D += (~near * mean[:, None])[:, :, None] * np.eye(d)
        V[weak] = _plane_optimum(A[weak], B[weak], U @ np.linalg.eigh(D)[1][:, :, [0, -1]])
    found = _worst(A, B, V) > floor
    if np.any(~found & (value > floor)):
        i = int(np.argmax(~found & (value > floor)))
        raise QposError(f"common positive direction undecided for pair {i}: no witness above "
                        f"the floor {floor[i]:.3e}, lambda_max {value[i]:.3e} at t = {t[i]:.6f}")
    V[~found] = np.nan
    return value, t, V


def common_witnesses(Q1, Q2, ids):
    """Witness rows for every pair; else NoCommonDirection names ``ids[i]``."""
    value, t, V = common_direction(Q1, Q2)
    missing = np.flatnonzero(np.isnan(V[:, 0]))
    if missing.size:
        i = missing[0]
        raise NoCommonDirection(ids[i], float(t[i]), float(value[i]))
    return V


def find_common_direction(Q1, Q2, base=None):
    """Single-pair ``common_direction``: a base-unit witness, or None (proved up to the floor)."""
    pair = PairState(Q1, Q2, base=base)
    _, _, V = common_direction(pair._Q1t[None], pair._Q2t[None])
    return None if np.isnan(V[0, 0]) else pair._W @ V[0]


def _ensure_witness(pair: PairState) -> None:
    if pair.witness is None:
        pair.witness = pair._W @ common_witnesses(pair._Q1t[None], pair._Q2t[None], [None])[0]


def _ray_level_hits(pair: PairState, dirs: np.ndarray, level: float):
    """Crossings t of xi(t * dir) = level, batched over rays; returns ``(t, mu, U)``.

    Along a ray the Gram matrix is I - t M with M = dir_1 Q1 + dir_2 Q2 =
    U diag(mu) U*, so xi(t) = -sum_k log(1 - t mu_k) is convex, 0 at t = 0
    and infinite at t = 1 / mu_max, the boundary of O, which exists iff
    mu_max > 0.  Newton's method starts at t0 = -expm1(-(level + C)) / mu_max
    with C = sum_{mu_k < 0} log1p(-mu_k / mu_max), where xi(t0) >= level,
    decreases monotonically, and stops when a step no longer decreases t.
    """
    M = dirs[:, 0, None, None] * pair._Q1t + dirs[:, 1, None, None] * pair._Q2t
    mu, U = np.linalg.eigh(M)
    top = mu[:, -1]
    if np.any(top <= 0):
        i = int(np.argmax(top <= 0))
        raise LevelNotReached(float(np.arctan2(dirs[i, 1], dirs[i, 0])), float("inf"))
    C = np.sum(np.log1p(-np.minimum(mu, 0.0) / top[:, None]), axis=1)
    t = -np.expm1(-(level + C)) / top
    while True:
        w = 1.0 - t[:, None] * mu
        new = t - (-np.sum(np.log(w), axis=1) - level) / np.sum(mu / w, axis=1)
        if not np.any(new < t):
            return t, mu, U
        t = np.minimum(t, new)


def trace_level_curve(pair: PairState, n_angles: int = DEFAULT_ANGLES,
                      level: float = 1.0, tau_level: float = TAU_LEVEL,
                      grad_floor: float = GRAD_FLOOR) -> list[LevelCurveSample]:
    """Sample the level curve xi = level along rays in the open first quadrant.

    Requires a verified common positive direction (which bounds the positive
    quadrant of O).  Marks the samples where both gradient components are
    strictly positive; those form a single contiguous arc in theta.
    """
    _ensure_witness(pair)
    thetas = (np.arange(n_angles) + 0.5) * (np.pi / 2.0) / n_angles
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t, mu, U = _ray_level_hits(pair, dirs, level)
    X = t[:, None] * dirs
    w = 1.0 - t[:, None] * mu  # eigenvalues of the Gram matrix at X
    xi = -np.sum(np.log(w), axis=1)
    if np.max(np.abs(xi - level)) > tau_level:
        raise LevelNotReached(float(thetas[int(np.argmax(np.abs(xi - level)))]),
                              float(np.max(t)))
    g1, g2 = (np.trace(R, axis1=1, axis2=2).real for R in _frame_forms(pair, U, w))
    member = (g1 > grad_floor) & (g2 > grad_floor)
    idx = np.where(member)[0]
    if idx.size and not np.all(np.diff(idx) == 1):
        raise CertificateFailed("positive-gradient arc is not contiguous; refine n_angles")
    return [
        LevelCurveSample(theta=float(thetas[i]), t=float(t[i]), x=X[i].copy(),
                         xi=float(xi[i]), grad=np.array([g1[i], g2[i]]),
                         in_gamma_tilde=bool(member[i]))
        for i in range(n_angles)
    ]


def pair_metric(pair: PairState, n_angles: int = DEFAULT_ANGLES,
                level: float = 1.0, tau_prop: float = TAU_PROP) -> PairMetricResult:
    """The midpoint metric for a pair sharing a positive direction.

    Proportional pairs (Q1 = mu Q2 within ``tau_prop`` relative) take the
    closed-form point (c / 2 mu, c / 2) with xi = level on the segment
    mu x1 + x2 = c; otherwise the arclength midpoint of the traced
    positive-gradient arc, re-projected radially onto the level curve.  The
    output traces of both forms are re-verified to be positive.
    """
    _ensure_witness(pair)
    mu = pair.form_inner_ratio()
    defect = pair.proportionality_defect(mu)
    samples = None
    if defect <= tau_prop:
        if mu <= 0:
            raise NoCommonDirection()
        u = np.array([[0.5 / mu, 0.5]])
        t, _, _ = _ray_level_hits(pair, u, level)
        gamma = t[0] * u[0]
        proportional = True
    else:
        if defect <= NEAR_PROP_WARN:
            warnings.warn("forms are nearly proportional; the positive-gradient arc "
                          "is numerically flat", stacklevel=2)
        samples = trace_level_curve(pair, n_angles=n_angles, level=level)
        pts = np.array([s.x for s in samples if s.in_gamma_tilde])
        if len(pts) == 0:
            raise CertificateFailed("empty positive-gradient arc; n_angles too coarse")
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        raw = np.array([np.interp(cum[-1] / 2.0, cum, pts[:, k]) for k in range(2)])
        # re-project the polyline midpoint radially onto the level curve
        u = raw / np.linalg.norm(raw)
        t, _, _ = _ray_level_hits(pair, u[None, :], level)
        gamma = t[0] * u
        proportional = False
        mu = None
    ev = xi_eval(pair, gamma)
    if not ev.in_O:
        raise CertificateFailed("midpoint left the positive-definite region")
    tr1, tr2 = float(ev.grad[0]), float(ev.grad[1])
    if tr1 <= 0 or tr2 <= 0:
        raise CertificateFailed(
            f"output traces not positive ({tr1:.3e}, {tr2:.3e}); n_angles too coarse")
    return PairMetricResult(gamma_point=np.asarray(gamma, dtype=float),
                            metric=pair.metric_at(gamma), traces=(tr1, tr2),
                            proportional=proportional, mu=mu, samples=samples)


def field_metric_top_degree(field: FormField, names, n_angles: int = DEFAULT_ANGLES):
    """Pointwise pair metrics over a field, with trace certificates.

    ``names = (name1, name2)`` selects the two forms; each certificate is the
    q = d certificate, whose sum is the trace.  One ``common_direction`` call
    decides all points; NoCommonDirection names the first without a witness,
    and a CertificateFailed from a point's midpoint carries that point's id.
    Returns ``(metrics, certificates, gamma_points, continuity)``, the last
    with the largest jump of gamma across adjacent samples, if any.
    """
    n1, n2 = names
    d = field.dim
    W, _ = congruence(field.g0_stack())
    V = common_witnesses(reduce_form(field.form_stack(n1), W),
                         reduce_form(field.form_stack(n2), W), field.ids)
    metrics = np.empty((len(field), d, d), dtype=complex)
    gamma_points = np.empty((len(field), 2))
    for i, p in enumerate(field.points):
        pair = PairState(p.forms[n1], p.forms[n2], base=p.g0, witness=W[i] @ V[i])
        try:
            res = pair_metric(pair, n_angles=n_angles)
        except CertificateFailed as e:
            e.failed_ids = [p.id]
            raise
        metrics[i] = res.metric
        gamma_points[i] = res.gamma_point

    certificates = {name: certify(field, name, d, metrics, "two_form_midpoint")
                    for name in (n1, n2)}
    require_passed(certificates, "the trace certificate")

    continuity = {}
    if field.has_adjacency():
        neigh = field.neighbor_indices()
        jumps = [np.linalg.norm(gamma_points[i] - gamma_points[j])
                 for i in range(len(field)) for j in neigh[i]]
        continuity["max_gamma_jump"] = float(max(jumps)) if jumps else 0.0
    return metrics, certificates, gamma_points, continuity
