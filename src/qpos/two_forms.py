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

Level curves are traced by ray shooting: along each ray from the origin xi
is convex and 0 at the origin and blows up at the boundary of O, so the
upward crossing of any positive level is unique and bracket/bisect is
robust.  All rays are processed as one numpy batch.
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
)
from .fields import FormField, certify, require_passed
from .hermitian import as_form, as_metric, congruence, reduce_form

DEFAULT_ANGLES = 512
TAU_LEVEL = 1e-10
TAU_PROP = 1e-10
GRAD_FLOOR = 1e-12
NEAR_PROP_WARN = 1e-6


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
            vals = (float(np.real(v.conj() @ self.Q1 @ v)),
                    float(np.real(v.conj() @ self.Q2 @ v)))
            if min(vals) <= 0:
                raise NoCommonDirection()
            self.witness = v / np.sqrt(float(np.real(v.conj() @ self.base @ v)))

    # -- deformed Gram matrices (batched over rows of X) ------------------

    def gram(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        I = np.eye(self.dim, dtype=complex)
        return (I - X[:, 0, None, None] * self._Q1t
                - X[:, 1, None, None] * self._Q2t)

    def _xi_batch(self, X):
        """(in_O, xi) for a batch of parameter points; xi = nan off O."""
        w = np.linalg.eigvalsh(self.gram(X))
        in_O = w[:, 0] > 0
        xi = np.full(len(w), np.nan)
        if in_O.any():
            xi[in_O] = -np.sum(np.log(w[in_O]), axis=1)
        return in_O, xi

    def metric_at(self, x) -> np.ndarray:
        """The deformed metric at x in the original coordinates."""
        x = np.asarray(x, dtype=float)
        G = self.base - x[0] * self.Q1 - x[1] * self.Q2
        return 0.5 * (G + G.conj().T)

    def form_inner_ratio(self) -> float:
        """mu with Q1 ~ mu Q2 in the least-squares sense (form inner product)."""
        denom = float(np.vdot(self._Q2t, self._Q2t).real)
        if denom == 0:
            raise NoCommonDirection()
        return float(np.vdot(self._Q2t, self._Q1t).real) / denom

    def proportionality_defect(self, mu: float) -> float:
        n1 = np.linalg.norm(self._Q1t)
        if n1 == 0:
            return 0.0
        return float(np.linalg.norm(self._Q1t - mu * self._Q2t) / n1)


def xi_eval(pair: PairState, x) -> XiEvaluation:
    """xi, gradient, and Hessian of the log-determinant deformation at x.

    The gradient components are the traces of Q1, Q2 relative to the
    deformed metric; the Hessian entry (r, s) is the inner product of Q_r
    and Q_s in any x-orthonormal frame, hence positive semidefinite.
    """
    x = np.asarray(x, dtype=float)
    G = pair.gram(x[None, :])[0]
    w = np.linalg.eigvalsh(G)
    if w[0] <= 0:
        return XiEvaluation(x=x, in_O=False, xi=None, grad=None, hessian=None)
    xi = float(-np.sum(np.log(w)))
    X, _ = congruence(G)  # x-orthonormal frame columns
    R1 = reduce_form(pair._Q1t, X)
    R2 = reduce_form(pair._Q2t, X)
    grad = np.array([float(np.trace(R1).real), float(np.trace(R2).real)])
    h11 = float(np.vdot(R1, R1).real)
    h22 = float(np.vdot(R2, R2).real)
    h12 = float(np.vdot(R2, R1).real)
    hess = np.array([[h11, h12], [h12, h22]])
    return XiEvaluation(x=x, in_O=True, xi=xi, grad=grad, hessian=hess)


def find_common_direction(Q1, Q2, trials: int = 64, iters: int = 200,
                          seed: int = 0, base=None):
    """Search for a unit vector where both forms are positive.

    Multi-start maximization of min(Q1(v,v), Q2(v,v)) on the unit sphere: a
    sweep of top eigenvectors of the segment (1-t) Q1 + t Q2 followed by
    projected subgradient ascent from random starts.  Returns a witness
    vector or None; absence of a witness is not a proof that none exists.
    """
    pair = Q1 if isinstance(Q1, PairState) else PairState(Q1, Q2, base=base)
    A, B = pair._Q1t, pair._Q2t
    d = pair.dim
    if np.linalg.eigvalsh(A)[-1] <= 0 or np.linalg.eigvalsh(B)[-1] <= 0:
        return None

    def value(v):
        return min(float(np.real(v.conj() @ A @ v)), float(np.real(v.conj() @ B @ v)))

    def ascent(v):
        v = v / np.linalg.norm(v)
        best, vb = value(v), v
        step = 0.5
        for _ in range(iters):
            qa = float(np.real(v.conj() @ A @ v))
            qb = float(np.real(v.conj() @ B @ v))
            if abs(qa - qb) < 1e-9 * max(1.0, abs(qa)):
                g = (A + B) @ v
            elif qa < qb:
                g = A @ v
            else:
                g = B @ v
            w = v + step * g
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            w = w / nw
            if value(w) > value(v):
                v = w
            else:
                step *= 0.5
                if step < 1e-12:
                    break
            if value(v) > best:
                best, vb = value(v), v
        return best, vb

    candidates = []
    for t in np.linspace(0.0, 1.0, 33):
        M = (1.0 - t) * A + t * B
        lam, V = np.linalg.eigh(M)
        candidates.append(V[:, -1])
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        candidates.append(z / np.linalg.norm(z))

    best_val, best_v = -np.inf, None
    for v0 in candidates:
        val, v = ascent(v0)
        if val > best_val:
            best_val, best_v = val, v
        if best_val > 1e-6:
            break
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2), 1.0)
    if best_val <= 1e-12 * scale:
        return None
    # report in original coordinates, base-unit length
    w = pair._W @ best_v
    return w / np.sqrt(float(np.real(w.conj() @ pair.base @ w)))


def _ray_level_hits(pair: PairState, dirs: np.ndarray, level: float,
                    max_expand: int = 20) -> np.ndarray:
    """Radial parameters t with xi(t * dir) = level, batched over rays.

    xi is convex along each ray with xi(0) = 0 < level and blows up at the
    boundary of O, so the crossing is the unique point where the predicate
    "outside O or xi > level" switches on; plain bisection on t converges.
    """
    n = len(dirs)
    norms = np.maximum(np.linalg.norm(pair._Q1t, 2), np.linalg.norm(pair._Q2t, 2))
    t_hi = np.full(n, 0.5 / max(norms, 1e-8))
    t_lo = np.zeros(n)

    def above(t):
        in_O, xi = pair._xi_batch(t[:, None] * dirs)
        return ~in_O | (np.nan_to_num(xi, nan=np.inf) > level)

    pending = ~above(t_hi)
    expansions = 0
    while pending.any():
        if expansions >= max_expand:
            i = int(np.argmax(pending))
            theta = float(np.arctan2(dirs[i, 1], dirs[i, 0]))
            raise LevelNotReached(theta, float(t_hi[i]))
        t_lo[pending] = t_hi[pending]
        t_hi[pending] *= 2.0
        expansions += 1
        pending = ~above(t_hi)

    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        done = (mid <= t_lo) | (mid >= t_hi)
        if done.all():
            break
        up = above(mid)
        t_hi = np.where(up & ~done, mid, t_hi)
        t_lo = np.where(~up & ~done, mid, t_lo)
    return t_lo


def trace_level_curve(pair: PairState, n_angles: int = DEFAULT_ANGLES,
                      level: float = 1.0, tau_level: float = TAU_LEVEL,
                      grad_floor: float = GRAD_FLOOR) -> list[LevelCurveSample]:
    """Sample the level curve xi = level along rays in the open first quadrant.

    Requires a verified common positive direction (which bounds the positive
    quadrant of O).  Marks the samples where both gradient components are
    strictly positive; those form a single contiguous arc in theta.
    """
    if pair.witness is None:
        w = find_common_direction(pair, None)
        if w is None:
            raise NoCommonDirection()
        pair.witness = w
    thetas = (np.arange(n_angles) + 0.5) * (np.pi / 2.0) / n_angles
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t = _ray_level_hits(pair, dirs, level)
    X = t[:, None] * dirs
    G = pair.gram(X)
    w, U = np.linalg.eigh(G)
    xi = -np.sum(np.log(w), axis=1)
    if np.max(np.abs(xi - level)) > tau_level:
        raise LevelNotReached(float(thetas[int(np.argmax(np.abs(xi - level)))]),
                              float(np.max(t)))
    Ginv = np.einsum("...ik,...k,...jk->...ij", U, 1.0 / w, U.conj())
    g1 = np.einsum("nkj,jk->n", Ginv, pair._Q1t).real
    g2 = np.einsum("nkj,jk->n", Ginv, pair._Q2t).real
    member = (g1 > grad_floor) & (g2 > grad_floor)
    idx = np.where(member)[0]
    if idx.size and not np.all(np.diff(idx) == 1):
        raise RuntimeError("positive-gradient arc is not contiguous; refine n_angles")
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
    if pair.witness is None:
        w = find_common_direction(pair, None)
        if w is None:
            raise NoCommonDirection()
        pair.witness = w
    mu = pair.form_inner_ratio()
    defect = pair.proportionality_defect(mu)
    samples = None
    if defect <= tau_prop:
        if mu <= 0:
            raise NoCommonDirection()
        u = np.array([[0.5 / mu, 0.5]])
        t = _ray_level_hits(pair, u, level)
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
        if len(pts) == 1:
            gamma = pts[0]
        else:
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            half = cum[-1] / 2.0
            k = int(np.searchsorted(cum, half, side="right") - 1)
            k = min(k, len(seg) - 1)
            frac = (half - cum[k]) / seg[k] if seg[k] > 0 else 0.0
            raw = pts[k] + frac * (pts[k + 1] - pts[k])
            # re-project the polyline midpoint radially onto the level curve
            u = raw / np.linalg.norm(raw)
            t = _ray_level_hits(pair, u[None, :], level)
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


def field_metric_top_degree(field: FormField, names, n_angles: int = DEFAULT_ANGLES,
                            seed: int = 0):
    """Pointwise pair metrics over a field, with trace certificates.

    ``names = (name1, name2)`` selects the two forms; each certificate is the
    q = d certificate, whose sum is the trace.  Raises NoCommonDirection
    with the offending point id when the witness search fails.  Returns
    ``(metrics, certificates, gamma_points, continuity)``; ``continuity``
    reports the largest jump of gamma across adjacent samples when the
    field has adjacency.
    """
    n1, n2 = names
    d = field.dim
    metrics = np.empty((len(field), d, d), dtype=complex)
    gamma_points = np.empty((len(field), 2))
    for i, p in enumerate(field.points):
        pair = PairState(p.forms[n1], p.forms[n2], base=p.g0)
        w = find_common_direction(pair, None, seed=seed)
        if w is None:
            raise NoCommonDirection(p.id)
        pair.witness = w
        res = pair_metric(pair, n_angles=n_angles)
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
