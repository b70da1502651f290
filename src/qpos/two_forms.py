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
Newton's method finds the crossing.  The rays of all points of a field form
one stack, RAY_CHUNK rays per eigensolve, and the arcs are decided point by
point with array operations; a single pair is the one-point case.
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
from .hermitian import as_form, as_metric, congruence, reduce_form, row_norm

DEFAULT_ANGLES = 512
TAU_LEVEL = 1e-10
TAU_PROP = 1e-10
GRAD_FLOOR = 1e-12
NEAR_PROP_WARN = 1e-6
DIRECTION_FLOOR_SCALE = 1e-12
GOLDEN_STEPS = 72  # 0.618**72 < 1e-15: the bracket in t reaches float resolution
RAY_CHUNK = 16384  # rays per eigensolve; a (RAY_CHUNK, d, d) complex stack: 2.4 MB at d = 3


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

    def gram(self, X) -> np.ndarray:
        """Deformed Gram matrices I - x1 Q1 - x2 Q2 at the rows of X (base-orthonormal)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _gram(self._Q1t, self._Q2t, X)

    def metric_at(self, x) -> np.ndarray:
        """The deformed metric at x in the original coordinates."""
        x = np.asarray(x, dtype=float)
        return _deformed_metrics(self.base, self.Q1, self.Q2, x[None])[0]


def _gram(Q1t, Q2t, X):
    """I - x1 Q1 - x2 Q2 for each row x of X; the forms broadcast against the rows."""
    I = np.eye(Q1t.shape[-1], dtype=complex)
    return I - X[:, 0, None, None] * Q1t - X[:, 1, None, None] * Q2t


def _deformed_metrics(base, Q1, Q2, X):
    """The Hermitian part of base - x1 Q1 - x2 Q2 for each row x of X."""
    G = base - X[:, 0, None, None] * Q1 - X[:, 1, None, None] * Q2
    return 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))


def _traces(Q1t, Q2t, U, w):
    """Traces of Q1, Q2 relative to U diag(w) U*, sums of u_i* Q u_i / w_i; shape (..., 2)."""
    return np.stack([np.sum(np.vecdot(U, Q @ U, axis=-2).real / w, axis=-1)
                     for Q in (Q1t, Q2t)], axis=-1)


def _gram_spectra(Q1t, Q2t, X):
    """``(w, U, traces)`` of the Gram matrices at the rows of X; traces are NaN outside O."""
    w, U = np.linalg.eigh(_gram(Q1t, Q2t, X))
    inside = w[:, 0] > 0
    traces = np.full((len(X), 2), np.nan)
    traces[inside] = _traces(Q1t[inside], Q2t[inside], U[inside], w[inside])
    return w, U, traces


def xi_eval(pair: PairState, x) -> XiEvaluation:
    """xi, gradient, and Hessian of the log-determinant deformation at x.

    The gradient components are the traces of Q1, Q2 relative to the
    deformed metric; the Hessian entry (r, s) is the inner product of Q_r
    and Q_s in any x-orthonormal frame, hence positive semidefinite.
    """
    x = np.asarray(x, dtype=float)
    w, U, traces = _gram_spectra(pair._Q1t[None], pair._Q2t[None], x[None])
    w, U = w[0], U[0]
    if w[0] <= 0:
        return XiEvaluation(x=x, in_O=False, xi=None, grad=None, hessian=None)
    s = 1.0 / np.sqrt(w)  # the frame U diag(s) is x-orthonormal
    R = [s[:, None] * (np.conj(U.T) @ Q @ U) * s[None, :] for Q in (pair._Q1t, pair._Q2t)]
    return XiEvaluation(x=x, in_O=True, xi=float(-np.sum(np.log(w))), grad=traces[0],
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


def _ray_level_hits(Q1t, Q2t, dirs, level):
    """Crossings t of xi(t * dir) = level for k rays of each of n pairs.

    ``Q1t``, ``Q2t``: (n, d, d) stacks in base-orthonormal coordinates;
    ``dirs``: (n, k, 2).  Along a ray the Gram matrix is I - t M with
    M = dir_1 Q1 + dir_2 Q2 = U diag(mu) U*, so xi(t) = -sum_k log(1 - t mu_k)
    and both traces follow from one eigendecomposition.  The pairs are
    taken in order, as many per eigensolve as fit in RAY_CHUNK rays (one
    pair's rays at least).

    Returns ``(t, xi, traces)``, shaped (n, k), (n, k) and (n, k, 2): the
    crossing, xi there and the traces of Q1, Q2 relative to the Gram matrix
    there; all NaN on a ray with mu_max <= 0, which never leaves O.
    """
    n, k = dirs.shape[:2]
    t, xi, traces = np.empty((n, k)), np.empty((n, k)), np.empty((n, k, 2))
    per = max(1, RAY_CHUNK // k)
    for start in range(0, n, per):
        p = slice(start, start + per)
        A, B, u = Q1t[p, None], Q2t[p, None], dirs[p]
        M = u[..., 0, None, None] * A
        M += u[..., 1, None, None] * B
        mu, U = np.linalg.eigh(M)
        del M
        tc = _newton(mu.reshape(-1, mu.shape[-1]), level).reshape(mu.shape[:-1])
        w = 1.0 - tc[..., None] * mu  # eigenvalues of the Gram matrix at the crossing
        t[p], xi[p], traces[p] = tc, -np.sum(np.log(w), axis=-1), _traces(A, B, U, w)
    return t, xi, traces


def _newton(mu, level):
    """The crossing t of xi(t) = -sum_k log(1 - t mu_k) = level per row of mu.

    xi is convex, 0 at t = 0 and infinite at t = 1 / mu_max, the boundary of
    O, which exists iff mu_max > 0 (else NaN).  Newton's method starts at
    t0 = -expm1(-(level + C)) / mu_max with C = sum_{mu_k < 0} log1p(-mu_k / mu_max),
    where xi(t0) >= level, and decreases monotonically; a row whose step no
    longer decreases t stays where it is, so no row depends on the others.
    """
    top = mu[:, -1]
    t = np.full(len(mu), np.nan)
    live = np.flatnonzero(top > 0)
    C = np.sum(np.log1p(-np.minimum(mu[live], 0.0) / top[live, None]), axis=1)
    t[live] = -np.expm1(-(level + C)) / top[live]
    while live.size:
        m, tl = mu[live], t[live]
        w = 1.0 - tl[:, None] * m
        new = tl - (-np.sum(np.log(w), axis=1) - level) / np.sum(m / w, axis=1)
        down = new < tl
        live = live[down]
        t[live] = new[down]
    return t


def _failed(message, point_id):
    return CertificateFailed(message, failed_ids=[] if point_id is None else [point_id])


def _level_sweep(Q1t, Q2t, ids, n_angles, level, tau_level=TAU_LEVEL, grad_floor=GRAD_FLOOR):
    """Every pair's level curve xi = level on n_angles rays of the open first quadrant.

    Returns ``(thetas, t, X, xi, traces, member, errors)``: per pair and ray
    the crossing t, the point X = t * dir, xi there and both traces;
    ``member`` marks the rays where both traces exceed ``grad_floor``, which
    must form one contiguous arc; ``errors`` maps the index of each pair
    whose rays miss the level or whose arc is split to its error.
    """
    thetas = (np.arange(n_angles) + 0.5) * (np.pi / 2.0) / n_angles
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t, xi, traces = _ray_level_hits(Q1t, Q2t, np.broadcast_to(dirs, (len(Q1t), n_angles, 2)),
                                    level)
    missed, off = np.isnan(t), np.abs(xi - level)
    member = (traces[..., 0] > grad_floor) & (traces[..., 1] > grad_floor)
    first, last = _arc_ends(member)
    split = member.any(axis=1) & (last - first + 1 != member.sum(axis=1))
    errors = {}
    for i in np.flatnonzero(missed.any(axis=1) | (off.max(axis=1) > tau_level) | split):
        if missed[i].any():
            errors[i] = LevelNotReached(float(thetas[np.argmax(missed[i])]), float("inf"), ids[i])
        elif off[i].max() > tau_level:
            errors[i] = LevelNotReached(float(thetas[np.argmax(off[i])]), float(np.max(t[i])),
                                        ids[i])
        else:
            errors[i] = _failed("positive-gradient arc is not contiguous; refine n_angles", ids[i])
    return thetas, t, t[..., None] * dirs, xi, traces, member, errors


def _arc_ends(member):
    """First and last marked ray of each row (0 and n - 1 for a row without one)."""
    return np.argmax(member, axis=1), member.shape[1] - 1 - np.argmax(member[:, ::-1], axis=1)


def _arc_midpoints(X, member):
    """Arclength midpoints of the polylines X[i, member[i]], each a nonempty contiguous run.

    Row by row this is ``np.interp(L / 2, cum, pts[:, k])`` with cum the
    cumulative arclength of the run and L its total, rounded as np.interp
    rounds: cum is accumulated from the first member (zero-length segments
    before it), and the result is slope * (L / 2 - cum[j]) + pts[j], or the
    last point where L / 2 reaches it.
    """
    n, A, _ = X.shape
    rows = np.arange(n)
    _, last = _arc_ends(member)
    seg = np.linalg.norm(np.diff(X, axis=1), axis=2)
    cum = np.concatenate([np.zeros((n, 1)),
                          np.cumsum(np.where(member[:, :-1] & member[:, 1:], seg, 0.0), axis=1)],
                         axis=1)
    half = cum[:, -1] / 2.0
    j = np.minimum(np.sum(cum <= half[:, None], axis=1) - 1, last)  # cum[j] <= half < cum[j + 1]
    j1 = np.minimum(j + 1, A - 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where j is last, which takes X[j]
        slope = (X[rows, j1] - X[rows, j]) / (cum[rows, j1] - cum[rows, j])[:, None]
        between = slope * (half - cum[rows, j])[:, None] + X[rows, j]
    return np.where((j == last)[:, None], X[rows, j], between)


def _proportionality(Q1t, Q2t):
    """Per pair of nonzero forms: mu with Q1 ~ mu Q2 in the form inner product
    and the relative defect |Q1 - mu Q2| / |Q1|."""
    a, b = (np.reshape(Q, (len(Q), -1)) for Q in (Q1t, Q2t))
    mu = np.vecdot(b, a).real / np.vecdot(b, b).real
    return mu, row_norm(a - mu[:, None] * b) / row_norm(a)


def _midpoints(Q1t, Q2t, ids, n_angles, level=1.0, tau_prop=TAU_PROP):
    """The midpoint gamma of every pair's positive-gradient arc on xi = level.

    Proportional pairs (Q1 = mu Q2 within ``tau_prop`` relative) take the
    closed-form point (c / 2 mu, c / 2) with xi = level on the segment
    mu x1 + x2 = c, the crossing of the ray (1 / 2 mu, 1 / 2); the others the
    arclength midpoint of the traced arc, re-projected radially onto the level
    curve.  Both rays go through one ``_ray_level_hits`` call, and both
    traces at gamma are re-verified to be positive.

    Every pair must have a common positive direction, so neither form is 0.
    Returns ``(gamma, traces, mu, proportional)`` per pair (mu NaN where not
    proportional).  A failing pair raises; of several, the first in order,
    with its id from ``ids``.
    """
    n = len(Q1t)
    mu, defect = _proportionality(Q1t, Q2t)
    prop = defect <= tau_prop
    errors = {i: NoCommonDirection(ids[i]) for i in np.flatnonzero(prop & (mu <= 0))}
    swept = np.flatnonzero(~prop)
    if np.any(defect[swept] <= NEAR_PROP_WARN):
        warnings.warn("forms are nearly proportional; the positive-gradient arc "
                      "is numerically flat", stacklevel=3)
    _, _, X, _, _, member, failed = _level_sweep(Q1t[swept], Q2t[swept],
                                                 [ids[i] for i in swept], n_angles, level)
    for i in np.flatnonzero(~member.any(axis=1)):
        failed.setdefault(i, _failed("empty positive-gradient arc; n_angles too coarse",
                                     ids[swept[i]]))
    arcs = np.ones(len(swept), dtype=bool)
    arcs[list(failed)] = False
    errors.update((int(swept[i]), e) for i, e in failed.items())

    dirs = np.zeros((n, 2))
    dirs[prop, 0], dirs[prop, 1] = 0.5 / mu[prop], 0.5
    raw = _arc_midpoints(X[arcs], member[arcs])
    dirs[swept[arcs]] = raw / row_norm(raw)[:, None]
    live = np.setdiff1d(np.arange(n), list(errors))
    t, _, _ = _ray_level_hits(Q1t[live], Q2t[live], dirs[live, None], level)
    gamma = np.full((n, 2), np.nan)
    gamma[live] = t * dirs[live]
    for i in live[np.isnan(t[:, 0])]:
        errors[i] = LevelNotReached(float(np.arctan2(dirs[i, 1], dirs[i, 0])), float("inf"),
                                    ids[i])
    live = np.setdiff1d(live, list(errors))
    traces = np.full((n, 2), np.nan)
    w, _, traces[live] = _gram_spectra(Q1t[live], Q2t[live], gamma[live])
    for i in live[(w[:, 0] <= 0) | np.any(traces[live] <= 0, axis=1)]:
        errors[i] = _failed("midpoint left the positive-definite region" if np.isnan(traces[i, 0])
                            else f"output traces not positive ({traces[i, 0]:.3e}, "
                            f"{traces[i, 1]:.3e}); n_angles too coarse", ids[i])
    if errors:
        raise errors[min(errors)]
    return gamma, traces, np.where(prop, mu, np.nan), prop


def trace_level_curve(pair: PairState, n_angles: int = DEFAULT_ANGLES,
                      level: float = 1.0, tau_level: float = TAU_LEVEL,
                      grad_floor: float = GRAD_FLOOR) -> list[LevelCurveSample]:
    """Sample the level curve xi = level along rays in the open first quadrant.

    Requires a verified common positive direction (which bounds the positive
    quadrant of O).  Marks the samples where both gradient components are
    strictly positive; those form a single contiguous arc in theta.
    """
    _ensure_witness(pair)
    thetas, t, X, xi, traces, member, errors = _level_sweep(
        pair._Q1t[None], pair._Q2t[None], [None], n_angles, level, tau_level, grad_floor)
    if errors:
        raise errors[0]
    return [
        LevelCurveSample(theta=float(thetas[i]), t=float(t[0, i]), x=X[0, i].copy(),
                         xi=float(xi[0, i]), grad=traces[0, i].copy(),
                         in_gamma_tilde=bool(member[0, i]))
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
    gamma, traces, mu, prop = _midpoints(pair._Q1t[None], pair._Q2t[None], [None],
                                         n_angles, level, tau_prop)
    return PairMetricResult(gamma_point=gamma[0], metric=pair.metric_at(gamma[0]),
                            traces=(float(traces[0, 0]), float(traces[0, 1])),
                            proportional=bool(prop[0]),
                            mu=float(mu[0]) if prop[0] else None)


def field_metric_top_degree(field: FormField, names, n_angles: int = DEFAULT_ANGLES):
    """Pair metrics at every point of a field, with trace certificates.

    ``names = (name1, name2)`` selects the two forms; each certificate is the
    q = d certificate, whose sum is the trace.  Both form stacks are reduced
    once; one ``common_direction`` call decides all points, and the level
    curves and midpoints of all points are stacked computations.
    NoCommonDirection names the first point without a witness; otherwise the
    first point whose level curve or midpoint fails raises, with its id.
    Returns ``(metrics, certificates, gamma_points, continuity)``, the last
    with the largest jump of gamma across adjacent samples, if any.
    """
    n1, n2 = names
    Q1, Q2, g0 = field.form_stack(n1), field.form_stack(n2), field.g0_stack()
    W, _ = congruence(g0)
    Q1t, Q2t = reduce_form(Q1, W), reduce_form(Q2, W)
    common_witnesses(Q1t, Q2t, field.ids)
    gamma_points, _, _, _ = _midpoints(Q1t, Q2t, field.ids, n_angles)
    metrics = _deformed_metrics(g0, Q1, Q2, gamma_points)

    certificates = {name: certify(field, name, field.dim, metrics, "two_form_midpoint")
                    for name in (n1, n2)}
    require_passed(certificates, "the trace certificate")

    continuity = {}
    if field.has_adjacency():
        neigh = field.neighbor_indices()
        src = np.repeat(np.arange(len(field)), [len(js) for js in neigh])
        dst = np.array([j for js in neigh for j in js], dtype=int)
        jumps = row_norm(gamma_points[src] - gamma_points[dst])
        continuity["max_gamma_jump"] = float(jumps.max()) if jumps.size else 0.0
    return metrics, certificates, gamma_points, continuity
