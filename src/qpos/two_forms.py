"""Joint metric for a pair of Hermitian forms sharing a positive direction.

For forms Q1, Q2 on an inner-product space, deform the base metric along two
real parameters:

    <., .>_x = <., .> - x1 Q1 - x2 Q2 ,

let O be the (starlike, convex) set where this stays positive definite, and
put xi(x) = -log det of its Gram matrix.  The gradient of xi at x is exactly
the pair of traces (Tr_x Q1, Tr_x Q2), and xi is convex (strictly, unless
Q1 and Q2 are proportional).  When the pair shares a positive direction the
positive quadrant piece of O is bounded, the level curve xi = LEVEL = 1 crosses it,
and the arc where both gradient components are positive is nonempty and
connected; its arclength midpoint gamma gives the metric <., .>_gamma with
both traces positive.  Proportional pairs (Q1 = mu Q2, mu > 0) use the
closed-form midpoint (c / 2 mu, c / 2) of the line segment xi = 1 instead.

Every search is exact.  A common positive direction is found or proved
absent by a convex search in one variable (``common_direction``), which
the slopes at its ends settle for most pairs without a search.  Level
curves are traced by ray shooting: along a ray the Gram matrix is I - t M,
so one eigendecomposition of M gives xi and both traces in closed form and
Newton's method finds the crossing.  As {xi <= 1} is convex and holds 0,
the normal angle atan2(Tr Q2, Tr Q1) of the level curve is nondecreasing in
the polar angle theta and within pi / 2 of it, so on [0, pi / 2] Tr Q2 > 0
exactly past one end theta_a of the arc and Tr Q1 > 0 exactly before the
other, theta_b: each end is 0, pi / 2 or one bracketed root.  Along the arc
ds / dtheta = sqrt(t^2 + t'^2) is smooth, so L is a GL_NODES-node
Gauss-Legendre sum (nodes by Golub & Welsch, Math. Comp. 23, 1969), and
Newton's method solves s(theta_m) = L / 2, from where the antiderivative of
the Legendre interpolant of L's nodes halves.  The rays of all points of a
field form one stack, RAY_CHUNK entries per eigensolve, one call per step of
each search.  The single-pair API (``PairState``, ``xi_eval``,
``pair_metric`` ...) runs these kernels on a one-point stack; it is
``qpos.pair``, which no command imports.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import CertificateFailed, LevelNotReached, NoCommonDirection, QposError
from .fields import FormField, certify_forms, require_passed
from .hermitian import congruence, reduce_form, row_norm

LEVEL = 1.0  # the level curve xi = LEVEL of every midpoint
TAU_LEVEL = 1e-10
TAU_PROP = 1e-10
NEAR_PROP_WARN = 1e-6
DIRECTION_FLOOR_SCALE = 1e-12
GOLDEN_STEPS = 72  # 0.618**72 < 1e-15: the bracket in t reaches float resolution
RAY_CHUNK = 16384 * 9  # matrix entries per eigensolve (16,384 rays at d = 3): 2.4 MB stacks
GL_NODES = 48  # arclength rule: within 2e-14 of a 200-node rule on 2,000 random arcs, d = 2 ... 5
END_TOL = 1e-13  # an end is found once its bracket or its function value is this small
MAX_STEPS = 64  # cap on the regula falsi and Newton steps of the arc searches
MID_TOL = 1e-8  # relative Newton step below which the midpoint angle is converged


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


def _golden_argmin(A, B, f0, f1):
    """The t in [0, 1] minimising the convex f(t) = lambda_max((1 - t) A + t B) per pair,
    by GOLDEN_STEPS steps of golden section compared with the ends' values f0 and f1."""
    n = len(A)

    def top(t):
        return np.linalg.eigvalsh((1.0 - t)[:, None, None] * A + t[:, None, None] * B)[:, -1]

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
    F = np.stack([f0, f1, fc, fe], axis=1)
    return T[np.arange(n), np.argmin(F, axis=1)]


def common_direction(Q1, Q2):
    """Decide for each pair of a stack whether both forms are positive somewhere.

    By Toeplitz-Hausdorff, max_{|v|=1} min(Q1(v, v), Q2(v, v)) is the
    minimum over t in [0, 1] of the convex f(t) = lambda_max((1 - t) Q1 + t Q2).
    Where the top eigenvalue at an end is simple (gap above the floor), f'
    there is u*(Q2 - Q1)u for its eigenvector u (Hellmann-Feynman), and by
    convexity t* = 0 when f'(0) >= 0 and t* = 1 when f'(1) <= 0.  Only the
    other pairs run golden section (``_golden_argmin``).  The witness is the top
    eigenvector at t* or, where that is not above the floor, the best vector
    of a plane in the top eigenspace; it is verified directly.  Without one,
    f(t*) <= floor proves that none exists, as f at any t bounds the maximum
    from above: a misjudged end can leave a pair undecided, never wrong.

    ``Q1``, ``Q2``: (n, d, d) Hermitian stacks in base-orthonormal
    coordinates; floor = DIRECTION_FLOOR_SCALE * max(1, |Q1|_2, |Q2|_2).
    Returns ``(value, t, V)``: f(t*), t* and the unit witness rows, NaN where
    none exists.  Raises QposError for a pair that neither way decides.
    """
    A = np.asarray(Q1, dtype=complex)
    B = np.asarray(Q2, dtype=complex)
    n, d, _ = A.shape
    (lam_a, U_a), (lam_b, U_b) = np.linalg.eigh(A), np.linalg.eigh(B)
    floor = DIRECTION_FLOOR_SCALE * np.maximum.reduce(
        [np.ones(n), np.abs(lam_a).max(axis=1), np.abs(lam_b).max(axis=1)])

    def slope(lam, U):  # f' at an end; NaN where its top eigenvalue is not simple
        u = U[:, :, -1]
        du = np.vecdot(u, np.sum((B - A) * u[:, None, :], axis=-1)).real
        return du if d == 1 else np.where(lam[:, -1] - lam[:, -2] > floor, du, np.nan)

    at0 = slope(lam_a, U_a) >= 0
    at1 = ~at0 & (slope(lam_b, U_b) <= 0)
    t = np.where(at1, 1.0, 0.0)
    lam, U = np.where(at1[:, None], lam_b, lam_a), np.where(at1[:, None, None], U_b, U_a)
    inner = np.flatnonzero(~(at0 | at1))
    if inner.size:
        Ai, Bi = A[inner], B[inner]
        t[inner] = ti = _golden_argmin(Ai, Bi, lam_a[inner, -1], lam_b[inner, -1])
        lam[inner], U[inner] = np.linalg.eigh((1.0 - ti)[:, None, None] * Ai
                                              + ti[:, None, None] * Bi)
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


def _ray_level_hits(Q1t, Q2t, dirs):
    """Crossings t of xi(t * dir) = LEVEL for k rays of each of n pairs.

    ``Q1t``, ``Q2t``: (n, d, d) stacks in base-orthonormal coordinates;
    ``dirs``: (n, k, 2).  Along a ray the Gram matrix is I - t M with
    M = dir_1 Q1 + dir_2 Q2 = U diag(mu) U*, so xi(t) = -sum_k log(1 - t mu_k)
    and both traces follow from one eigendecomposition.  The pairs are
    taken in order, as many per eigensolve as fit their k (d, d) matrices in
    RAY_CHUNK entries (one pair's rays at least).

    Returns ``(t, xi, traces)``, shaped (n, k), (n, k) and (n, k, 2): the
    crossing, xi there and the traces of Q1, Q2 relative to the Gram matrix
    there; all NaN on a ray with mu_max <= 0, which never leaves O.
    """
    n, k = dirs.shape[:2]
    t, xi, traces = np.empty((n, k)), np.empty((n, k)), np.empty((n, k, 2))
    per = max(1, RAY_CHUNK // (k * Q1t.shape[-1] ** 2))
    for start in range(0, n, per):
        p = slice(start, start + per)
        A, B, u = Q1t[p, None], Q2t[p, None], dirs[p]
        M = u[..., 0, None, None] * A
        M += u[..., 1, None, None] * B
        mu, U = np.linalg.eigh(M)
        del M
        tc = _newton(mu.reshape(-1, mu.shape[-1]), LEVEL).reshape(mu.shape[:-1])
        w = 1.0 - tc[..., None] * mu  # eigenvalues of the Gram matrix at the crossing
        t[p], xi[p], traces[p] = tc, -np.sum(np.log(w), axis=-1), _traces(A, B, U, w)
    return t, xi, traces


def _newton(mu, level):
    """The crossing t of xi(t) = -sum_k log(1 - t mu_k) = level per row of mu.

    xi is convex, 0 at t = 0 and infinite at t = 1 / mu_max, the boundary of
    O, which exists iff mu_max > 0 (else NaN).  Newton's method starts at
    t0 = -expm1(-(level + C)) / mu_max with C = sum_{mu_k < 0} log1p(-mu_k / mu_max),
    where xi(t0) >= level, and decreases monotonically; a row whose step no
    longer decreases t stays where it is, so no row depends on the others.  Each
    pass steps every row (one that stopped repeats its step, which again does
    not decrease t) until no row decreases.
    """
    top = mu[:, -1]
    leaves = top > 0
    top = np.where(leaves, top, 1.0)
    C = np.sum(np.log1p(-np.minimum(mu, 0.0) / top[:, None]), axis=1)
    t = np.where(leaves, -np.expm1(-(level + C)) / top, np.nan)
    while True:
        w = 1.0 - t[:, None] * mu
        new = t - (-np.sum(np.log(w), axis=1) - level) / np.sum(mu / w, axis=1)
        down = new < t
        if not down.any():
            return t
        t = np.where(down, new, t)


def _gauss_legendre(m):
    """The m-node Gauss-Legendre rule on [-1, 1]: the eigenvalues of the Jacobi matrix
    and twice the squared first entries of its unit eigenvectors (Golub & Welsch)."""
    k = np.arange(1.0, m)
    x, V = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))  # lower triangle
    return x, 2.0 * V[0] ** 2


def _legendre(x, m):
    """P_-1 = -1, P_0, ..., P_m at x, on a new last axis (Bonnet's recurrence).  With
    P_-1 = -1, int_{-1}^y P_k = (P_{k + 1} - P_{k - 1})(y) / (2k + 1) for every k >= 0."""
    P = [-np.ones_like(x), np.ones_like(x), x]
    for k in range(1, m):
        P.append(((2 * k + 1) * x * P[-1] - k * P[-2]) / (k + 1))
    return np.stack(P, axis=-1)


GL_X, GL_W = _gauss_legendre(GL_NODES)
# values at the nodes to the Legendre coefficients of their interpolant p: the rule is
# exact for P_k p, so c_k = (k + 1/2) sum_j w_j P_k(x_j) p(x_j)
GL_COEF = (np.arange(GL_NODES) + 0.5)[:, None] * GL_W * _legendre(GL_X, GL_NODES)[:, 1:-1].T


def _unit(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _arc_bounds(Q1t, Q2t):
    """The ends (theta_a, theta_b) of each pair's arc: where f_a = Tr Q2 / |g| and
    f_b = -Tr Q1 / |g| turn nonnegative.  Each end is 0 or pi / 2, or its bracket
    [0, pi / 2] is closed by regula falsi with the Illinois modification (halve the value
    at a bracket end kept twice in a row), one call per step for the pairs still open."""
    n = len(Q1t)

    def values(rows, theta):  # (f_a, f_b) at the angles theta[:, 0] and theta[:, 1]
        _, _, g = _ray_level_hits(Q1t[rows], Q2t[rows], _unit(theta))
        return g[..., ::-1] * [1.0, -1.0] / np.linalg.norm(g, axis=-1, keepdims=True)

    a, b, moved = np.zeros((n, 2)), np.full((n, 2), np.pi / 2.0), np.zeros((n, 2))
    fa, fb = values(np.arange(n), b * [0.0, 1.0]).transpose(1, 0, 2)  # at 0 and pi / 2
    x, live = np.where(fa >= 0, a, b), (fa < 0) & (fb > 0)
    for _ in range(MAX_STEPS):
        rows = np.flatnonzero(live.any(axis=1))
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):  # closed ends keep x
            x[rows] = np.where(live[rows], ((a * fb - b * fa) / (fb - fa))[rows], x[rows])
        fx = np.zeros((n, 2))
        fx[rows] = values(rows, x[rows])[:, [0, 1], [0, 1]]
        low, high = live & (fx < 0), live & (fx >= 0)  # the root is above x, or at or below it
        fa, fb = np.where(high & (moved < 0), fa / 2, fa), np.where(low & (moved > 0), fb / 2, fb)
        a, fa, b, fb = (np.where(low, x, a), np.where(low, fx, fa),
                        np.where(high, x, b), np.where(high, fx, fb))
        moved = np.where(low, 1.0, np.where(high, -1.0, moved))
        live &= (b - a > END_TOL) & (np.abs(fx) > END_TOL)
    return x


def _interpolant_midpoint(v):
    """The y in [-1, 1] where S(y) = int_{-1}^y p = S(1) / 2 = c_0 for the Legendre
    interpolant p of each row of v, values at the GL_NODES nodes, by Newton's method
    from 0; a row stops once its step is within 2 MID_TOL.  Only elementwise products
    and row sums, so a row's result does not depend on the rows stacked with it."""
    c = np.sum(v[:, None, :] * GL_COEF, axis=-1)
    odd = 2.0 * np.arange(GL_NODES) + 1.0
    y, live = np.zeros(len(v)), np.ones(len(v), dtype=bool)
    for _ in range(MAX_STEPS):
        P = _legendre(y, GL_NODES)
        S = np.sum(c * (P[:, 2:] - P[:, :-2]) / odd, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (S - c[:, 0]) / np.sum(c * P[:, 1:-1], axis=-1)
        y = np.where(live & np.isfinite(step), np.clip(y - step, -1.0, 1.0), y)
        live &= np.abs(step) > 2.0 * MID_TOL
        if not live.any():
            break
    return y


def _midpoint_angles(Q1t, Q2t, ends):
    """The polar angle theta_m of each arc's arclength midpoint, s(theta_m) = L / 2.

    L's call gives ds / dtheta at the GL_NODES nodes; Newton's method starts where the
    antiderivative of their Legendre interpolant halves (``_interpolant_midpoint``), and
    a pair stops once its step is within MID_TOL of the arc's width (then its error is
    at rounding level): one call for L and usually one Newton step.
    """
    lo, hi = ends[:, 0], ends[:, 1]

    def length(rows, to):  # the arclength from lo to ``to``, ds / dtheta at its nodes and at ``to``
        half = (to - lo[rows]) / 2.0
        u = _unit(np.column_stack([lo[rows, None] + half[:, None] * (GL_X + 1.0), to]))
        t, _, g = _ray_level_hits(Q1t[rows], Q2t[rows], u)
        v = t * np.hypot(1.0, (g[..., 1] * u[..., 0] - g[..., 0] * u[..., 1]) / np.vecdot(g, u))
        return half * np.sum(v[:, :-1] * GL_W, axis=1), v[:, :-1], v[:, -1]

    live = np.arange(len(ends))
    total, nodes, _ = length(live, hi)
    theta = lo + (hi - lo) / 2.0 * (_interpolant_midpoint(nodes) + 1.0)
    for _ in range(MAX_STEPS):
        s, _, v = length(live, theta[live])
        step = (s - total[live] / 2.0) / v
        theta[live] = np.clip(theta[live] - step, lo[live], hi[live])
        live = live[np.abs(step) > MID_TOL * (hi - lo)[live]]
        if not live.size:
            break
    return theta


def _proportionality(Q1t, Q2t):
    """Per pair of nonzero forms: mu with Q1 ~ mu Q2 in the form inner product
    and the relative defect |Q1 - mu Q2| / |Q1|."""
    a, b = (np.reshape(Q, (len(Q), -1)) for Q in (Q1t, Q2t))
    mu = np.vecdot(b, a).real / np.vecdot(b, b).real
    return mu, row_norm(a - mu[:, None] * b) / row_norm(a)


def _midpoints(Q1t, Q2t, ids):
    """The midpoint gamma of every pair's positive-gradient arc on xi = LEVEL.

    Proportional pairs (Q1 = mu Q2 within TAU_PROP relative) take the
    closed-form point (c / 2 mu, c / 2) with xi = LEVEL on the segment
    mu x1 + x2 = c, the crossing of the ray (1 / 2 mu, 1 / 2); the others the
    crossing of the ray at their arclength midpoint angle.  At gamma, xi must
    be within TAU_LEVEL of the level and both traces positive, else the first
    failing pair raises with its id from ``ids``.  Every pair must have a common
    positive direction.  Returns ``(gamma, traces, mu, proportional)`` per
    pair (mu NaN where not proportional).
    """
    mu, defect = _proportionality(Q1t, Q2t)
    prop = defect <= TAU_PROP
    errors = {i: NoCommonDirection(ids[i]) for i in np.flatnonzero(prop & (mu <= 0))}
    swept = np.flatnonzero(~prop)
    if np.any(defect[swept] <= NEAR_PROP_WARN):
        warnings.warn("forms are nearly proportional; the positive-gradient arc "
                      "is numerically flat", stacklevel=3)
    dirs = np.zeros((len(mu), 2))
    dirs[prop, 0], dirs[prop, 1] = 0.5 / mu[prop], 0.5
    A, B = Q1t[swept], Q2t[swept]
    dirs[swept] = _unit(_midpoint_angles(A, B, _arc_bounds(A, B)))
    t, _, _ = _ray_level_hits(Q1t, Q2t, dirs[:, None])
    gamma, hit = t * dirs, ~np.isnan(t[:, 0])  # a ray misses only without a common direction
    xi, traces, radius = np.full(len(t), np.inf), np.full((len(t), 2), np.nan), row_norm(gamma)
    w, _, traces[hit] = _gram_spectra(Q1t[hit], Q2t[hit], gamma[hit])
    with np.errstate(invalid="ignore", divide="ignore"):  # log w outside O
        xi[hit] = -np.sum(np.log(w), axis=1)
    for i in np.flatnonzero(~(np.abs(xi - LEVEL) <= TAU_LEVEL)):
        errors.setdefault(i, LevelNotReached(float(np.arctan2(dirs[i, 1], dirs[i, 0])),
                                             float(radius[i] if hit[i] else np.inf), ids[i]))
    for i in np.flatnonzero(~np.all(traces > 0, axis=1)):
        errors.setdefault(i, CertificateFailed(
            f"output traces not positive ({traces[i, 0]:.3e}, {traces[i, 1]:.3e})",
            failed_ids=[] if ids[i] is None else [ids[i]]))
    if errors:
        raise errors[min(errors)]
    return gamma, traces, np.where(prop, mu, np.nan), prop


def field_metric_top_degree(field: FormField, names):
    """Pair metrics at every point of a field, with trace certificates.

    ``names = (name1, name2)`` selects the two forms; each certificate is the
    q = d certificate, whose sum is the trace.  Both form stacks are reduced
    once and every search is stacked over the points.  NoCommonDirection
    names the first point without a witness; otherwise the first point whose
    midpoint fails raises.  Returns ``(metrics, certificates, gamma_points,
    continuity)``, the last with the largest jump of gamma across adjacent
    samples, if any.
    """
    n1, n2 = names
    Q1, Q2, g0 = field.form_stack(n1), field.form_stack(n2), field.g0_stack()
    W, _ = congruence(g0)
    Q1t, Q2t = reduce_form(Q1, W), reduce_form(Q2, W)
    common_witnesses(Q1t, Q2t, field.ids)
    gamma_points, _, _, _ = _midpoints(Q1t, Q2t, field.ids)
    metrics = _deformed_metrics(g0, Q1, Q2, gamma_points)

    certificates = certify_forms(field, (n1, n2), field.dim, metrics, "two_form_midpoint")
    require_passed(certificates, "the trace certificate")

    continuity = {}
    src, dst = field.edges
    if src.size:
        continuity["max_gamma_jump"] = float(row_norm(gamma_points[src] - gamma_points[dst]).max())
    return metrics, certificates, gamma_points, continuity
