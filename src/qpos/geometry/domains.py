"""Defining-function domains, weights, and complex Hessians in affine charts.

A domain is described by a defining function rho (negative inside, zero on
the boundary, with nonvanishing gradient there) in one or more affine
charts, plus an optional scalar weight function.  Complex Hessians are the
matrices of second Wirtinger derivatives d^2 f / dz_j dz_k-bar; they are
returned in the package's form-matrix convention (H(u, v) = v* M u, so
M is the transpose of the raw derivative array).  Built-in domains carry
hand-derived analytic Hessians; a central finite-difference fallback over
the 2n real coordinates serves custom callbacks and cross-checks.

Projective-space domains work in the n + 1 affine charts; points embed
chart-independently through the rank-one projector w w* / |w|^2 of their
homogeneous representative, which is what boundary adjacency is built on.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import QposError, SchemaError
from ..hermitian import row_norm

FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# finite-difference Wirtinger calculus
# ---------------------------------------------------------------------------

def fd_complex_gradient(f, z, step: float = FD_STEP) -> np.ndarray:
    """d f / d z_j by central differences: (d/dx - i d/dy) / 2."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    out = np.empty(n, dtype=complex)
    for j in range(n):
        ex = np.zeros(n, dtype=complex)
        ex[j] = step
        dx = (f(z + ex) - f(z - ex)) / (2 * step)
        dy = (f(z + 1j * ex) - f(z - 1j * ex)) / (2 * step)
        out[j] = 0.5 * (dx - 1j * dy)
    return out


def fd_complex_hessian(f, z, step: float = FD_STEP) -> np.ndarray:
    """Form matrix of d^2 f / dz_j dz_k-bar by second central differences."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    f0 = f(z)

    def d2(u, v):
        # second mixed derivative along real directions u, v
        if u is v or np.array_equal(u, v):
            return (f(z + u) - 2.0 * f0 + f(z - u)) / (step * step)
        return (f(z + u + v) - f(z + u - v) - f(z - u + v) + f(z - u - v)) / (4 * step * step)

    ex = [np.eye(n, dtype=complex)[j] * step for j in range(n)]
    ey = [1j * e for e in ex]
    A = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            re = d2(ex[j], ex[k]) + d2(ey[j], ey[k])
            im = d2(ex[j], ey[k]) - d2(ey[j], ex[k])
            A[j, k] = 0.25 * (re + 1j * im)
    return A.T  # form-matrix convention


def complex_hessian(phi, p) -> np.ndarray:
    """Complex Hessian of a scalar function at p: analytic when ``phi`` has a
    ``hessian(z)`` method, else by finite differences with step FD_STEP."""
    if hasattr(phi, "hessian"):
        return np.asarray(phi.hessian(p), dtype=complex)
    return fd_complex_hessian(phi, p)


# ---------------------------------------------------------------------------
# stacks of chart points and weights: everything below works over leading axes
# ---------------------------------------------------------------------------

def _diag(a) -> np.ndarray:
    """Diagonal matrices with the entries of ``a`` along its last axis."""
    return np.where(np.eye(a.shape[-1], dtype=bool), a[..., None], 0.0)


def _outer(x, y) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _other_slots(n1: int) -> np.ndarray:
    """Row c lists the n1 - 1 homogeneous slots other than slot c."""
    return np.array([np.delete(np.arange(n1), c) for c in range(n1)])


def _split_chart(v, chart):
    """Entries of ``v`` off the chart slot and at it, for chart indices of any shape."""
    chart = np.asarray(chart)
    return v[_other_slots(v.shape[-1])[chart]], v[chart]


def _homogeneous(zeta, chart) -> np.ndarray:
    """Homogeneous coordinates of affine chart points: a 1 inserted at the chart slot."""
    zeta = np.asarray(zeta, dtype=complex)
    w = np.ones(zeta.shape[:-1] + (zeta.shape[-1] + 1,), dtype=complex)
    slots = _other_slots(w.shape[-1])[np.asarray(chart)]
    np.put_along_axis(w, np.broadcast_to(slots, zeta.shape), zeta, axis=-1)
    return w


def _to_chart(w, chart=None):
    """(chart, affine coordinates) of homogeneous points; default chart: the largest entry."""
    if chart is None:
        chart = np.argmax(np.abs(w), axis=-1)
    zeta = np.take_along_axis(w, _other_slots(w.shape[-1])[chart], axis=-1)
    return chart, zeta / np.take_along_axis(w, chart[..., None], axis=-1)


def _embed_projective(w) -> np.ndarray:
    """Flattened w w* / |w|^2: a chart-free embedding of [w]."""
    w = np.asarray(w, dtype=complex)
    P = _outer(w, np.conj(w)) / np.sum(np.abs(w) ** 2, axis=-1)[..., None, None]
    flat = P.shape[:-2] + (-1,)
    return np.concatenate([P.real.reshape(flat), P.imag.reshape(flat)], axis=-1)


def _quad_value(a, c0, z):
    return c0 + np.sum(a * np.abs(z) ** 2, axis=-1)


def _log_quad_A(a, c0, z):
    """Raw derivative array of log(c0 + sum a_j |z_j|^2)."""
    Q = _quad_value(a, c0, z)[..., None, None]
    return _diag(a) / Q - _outer(a * np.conj(z), a * z) / (Q * Q)


class QuadExhaustion:
    """|z_1|^2 + ... + |z_m|^2 on C^n (zeros beyond the first m slots)."""

    def __init__(self, n: int, m: int | None = None):
        self.n = n
        self.m = n if m is None else m

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(z[..., : self.m]) ** 2, axis=-1)

    def hessian(self, z):
        M = np.zeros(np.shape(z)[:-1] + (self.n, self.n), dtype=complex)
        M[..., : self.m, : self.m] = np.eye(self.m)
        return M


class LogQuadRatioWeight:
    """-log(1 - N+ / N-) in a chart, for diagonal-quadratic N+ and N-.

    ``a_plus``/``a_minus`` are coefficient vectors over the chart
    coordinates, ``c_plus``/``c_minus`` the constants (1 in the block that
    contains the chart slot, 0 in the other); with leading axes they hold
    one chart per point of a stack.
    """

    def __init__(self, a_plus, c_plus, a_minus, c_minus):
        self.a_plus = np.asarray(a_plus, dtype=float)
        self.c_plus = np.asarray(c_plus, dtype=float)
        self.a_minus = np.asarray(a_minus, dtype=float)
        self.c_minus = np.asarray(c_minus, dtype=float)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        npl = _quad_value(self.a_plus, self.c_plus, z)
        nmi = _quad_value(self.a_minus, self.c_minus, z)
        return -np.log(nmi - npl) + np.log(nmi)

    def hessian(self, z):
        z = np.asarray(z, dtype=complex)
        # -log(N- - N+) + log(N-); N- - N+ is again a diagonal quadratic
        a_w = self.a_minus - self.a_plus
        c_w = self.c_minus - self.c_plus
        A = -_log_quad_A(a_w, c_w, z) + _log_quad_A(self.a_minus, self.c_minus, z)
        return np.swapaxes(A, -1, -2)


def rank_split_weight(n: int, k: int, chart) -> LogQuadRatioWeight:
    """-log(1 - |w|_+^2 / |w|_-^2) on CP^n in the affine chart w_chart = 1.

    The plus block is the first ``k`` of the n + 1 homogeneous coordinates;
    ``chart`` is one chart slot or an array of them.
    """
    plus = (np.arange(n + 1) < k).astype(float)
    return LogQuadRatioWeight(*_split_chart(plus, chart), *_split_chart(1.0 - plus, chart))


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Domain:
    """Base class: chart-aware defining function, weight, and samplers.

    Subclasses define ``rho``, ``rho_dz`` (the covector d rho / dz),
    ``rho_hessian``, ``weight_fn(chart)``, ``embed`` (a chart-independent
    real embedding used for adjacency) and ``seed_points(rng, count)``
    (``(chart, z)`` stacks of points near the boundary for Newton
    projection).  The methods take chart coordinates ``z`` of shape
    (..., n), one point or a stack, with ``chart`` indices into ``charts``
    that broadcast against the leading axes; values keep the leading axes.
    """

    n: int
    charts: tuple
    scale: float = 1.0

    def weight_hessian(self, z, chart):
        return np.asarray(self.weight_fn(chart).hessian(z), dtype=complex)


class BallDomain(Domain):
    """The ball |z| < radius in C^n with weight |z|^2."""

    def __init__(self, n: int, radius: float = 1.0):
        self.n = n
        self.radius = float(radius)
        self.charts = ("affine",)
        self.scale = self.radius

    def rho(self, z, chart=0):
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(z) ** 2, axis=-1) - self.radius ** 2

    def rho_dz(self, z, chart=0):
        return np.conj(np.asarray(z, dtype=complex))

    def rho_hessian(self, z, chart=0):
        return self.weight_fn(chart).hessian(z)  # rho is the weight minus a constant

    def weight_fn(self, chart=0):
        return QuadExhaustion(self.n)

    def seed_points(self, rng, count):
        Z = rng.standard_normal((count, self.n)) + 1j * rng.standard_normal((count, self.n))
        Z *= (self.radius * (1.0 + 0.1 * rng.standard_normal((count, 1)))
              / np.linalg.norm(Z, axis=1, keepdims=True))
        return np.zeros(count, dtype=int), Z

    def embed(self, z, chart=0):
        z = np.asarray(z, dtype=complex)
        return np.concatenate([z.real, z.imag], axis=-1)


class QuadricDomain(Domain):
    """{ sum_j mu_j |w_j|^2 < 0 } in CP^n, with the rank-split exhaustion weight.

    ``mu`` has n + 1 entries, positive on the first n - q + 1 slots (each
    > 1) and > -1 on the rest with at least one negative; then the domain
    sits inside the region |w|_+ < |w|_- where the weight
    -log(1 - |w|_+^2 / |w|_-^2) is defined.  Chart c is the affine chart
    w_c = 1, and rho = (sum mu_j |w_j|^2) / |w|^2 there.
    """

    def __init__(self, mu, n: int, q: int):
        mu = np.asarray(mu, dtype=float)
        if mu.size != n + 1:
            raise QposError("mu must have n + 1 entries")
        if np.any(mu == 0) or not np.any(mu < 0):
            raise QposError("mu must be nonzero with at least one negative entry")
        if np.any(mu[: n - q + 1] <= 1.0) or np.any(mu[n - q + 1:] <= -1.0):
            raise QposError("need mu_j > 1 on the plus block and mu_j > -1 on the rest")
        self.mu = mu
        self.n = n
        self.q = q
        self.charts = tuple(range(n + 1))
        self.scale = 1.0

    def homogeneous(self, z, chart) -> np.ndarray:
        return _homogeneous(z, chart)

    def _parts(self, z, chart):
        """z, the chart coefficients a, and rho = N / D as N, D with a unit last axis."""
        a, c0 = _split_chart(self.mu, chart)
        z = np.asarray(z, dtype=complex)
        return z, a, _quad_value(a, c0, z)[..., None], _quad_value(1.0, 1.0, z)[..., None]

    def rho(self, z, chart):
        z, a, N, D = self._parts(z, chart)
        return (N / D)[..., 0]

    def rho_dz(self, z, chart):
        z, a, N, D = self._parts(z, chart)
        return (a * np.conj(z) * D - N * np.conj(z)) / (D * D)

    def rho_hessian(self, z, chart):
        z, a, N, D = self._parts(z, chart)
        Nj, Nk = a * np.conj(z), a * z
        Dj, Dk = np.conj(z), z
        # float_power is libm pow; numpy's vectorized power may round D^3 differently
        A = (_diag(a) * D[..., None] - N[..., None] * np.eye(self.n)
             + _outer(Dj, Nk) - _outer(Nj, Dk)) / (D * D)[..., None] \
            - 2.0 * _outer(Dj, Nk * D - N * Dk) / np.float_power(D, 3)[..., None]
        return np.swapaxes(A, -1, -2)

    def weight_fn(self, chart):
        return rank_split_weight(self.n, self.n - self.q + 1, chart)

    def seed_points(self, rng, count):
        k = self.n - self.q + 1
        R = rng.standard_normal((count, 2, self.n + 1))
        w = R[:, 0] + 1j * R[:, 1]
        wp, wm = np.abs(w[:, :k]) ** 2, np.abs(w[:, k:]) ** 2
        A, B = np.vecdot(wp, self.mu[:k]), np.vecdot(wm, self.mu[k:])
        keep = (np.sum(wp, axis=1) >= 1e-12) & (np.sum(wm, axis=1) >= 1e-12) & (B < 0)
        # scale the plus block so the point lands on the zero set
        w = w[keep]
        w[:, :k] *= np.sqrt(-B[keep] / A[keep])[:, None]
        return _to_chart(w)

    def embed(self, z, chart):
        return _embed_projective(_homogeneous(z, chart))


class ProductDomain(Domain):
    """Ball in C^(n-q+1) times CP^(q-1), with weight |z|^2 on the flat factor.

    Chart coordinates are (z_1 .. z_{n-q+1}, zeta_1 .. zeta_{q-1}) where the
    zeta's are an affine chart of CP^(q-1); rho = |z|^2 - radius^2 does not
    involve the projective factor.
    """

    def __init__(self, n: int, q: int, radius: float = 1.0):
        if q < 2:
            raise QposError("product domain needs q >= 2")
        self.n = n
        self.q = q
        self.m = n - q + 1
        self.radius = float(radius)
        self.charts = tuple(range(q))  # chart slot of CP^(q-1)
        self.scale = self.radius

    def rho(self, z, chart):
        return self.weight_fn(chart)(z) - self.radius ** 2

    def rho_dz(self, z, chart):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        out[..., : self.m] = np.conj(z[..., : self.m])
        return out

    def rho_hessian(self, z, chart):
        return self.weight_fn(chart).hessian(z)  # rho is the weight minus a constant

    def weight_fn(self, chart):
        return QuadExhaustion(self.n, self.m)

    def seed_points(self, rng, count):
        m, q = self.m, self.q
        R = rng.standard_normal((count, 2 * m + 1 + 2 * q))
        z = R[:, :m] + 1j * R[:, m:2 * m]
        z *= (self.radius * (1.0 + 0.1 * R[:, 2 * m]) / row_norm(z))[:, None]
        chart, zeta = _to_chart(R[:, 2 * m + 1:2 * m + 1 + q] + 1j * R[:, 2 * m + 1 + q:])
        return chart, np.concatenate([z, zeta], axis=1)

    def embed(self, z, chart):
        z = np.asarray(z, dtype=complex)
        flat = z[..., : self.m]
        return np.concatenate([flat.real, flat.imag,
                               _embed_projective(_homogeneous(z[..., self.m:], chart))],
                              axis=-1)


class CustomDomain(Domain):
    """Domain from plain one-point callbacks; all derivatives by finite differences.

    ``rho`` and ``weight`` (which may carry an analytic ``hessian``) take
    one point of C^n; ``_rows`` applies them to every point of a stack.
    """

    def __init__(self, n: int, rho, weight=None, seed_box: float = 1.5,
                 scale: float = 1.0):
        self.n = n
        self._rho = rho
        self._weight = weight
        self.charts = ("affine",)
        self.seed_box = seed_box
        self.scale = scale

    @staticmethod
    def _rows(fn, z, shape=(), dtype=complex) -> np.ndarray:
        """``fn`` applied to each point of the stack z: the one per-point loop."""
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape[:-1] + shape, dtype=dtype)
        for i in np.ndindex(z.shape[:-1]):
            out[i] = fn(z[i])
        return out

    def rho(self, z, chart=0):
        return self._rows(self._rho, z, dtype=float)

    def rho_dz(self, z, chart=0):
        return self._rows(partial(fd_complex_gradient, self._rho), z, (self.n,))

    def rho_hessian(self, z, chart=0):
        return self._rows(partial(fd_complex_hessian, self._rho), z, (self.n, self.n))

    def weight_fn(self, chart=0):
        if self._weight is None:
            raise QposError("custom domain has no weight function")
        return self._weight

    def weight_hessian(self, z, chart=0):
        return self._rows(partial(complex_hessian, self.weight_fn(chart)), z, (self.n, self.n))

    def seed_points(self, rng, count):
        Z = self.seed_box * (rng.standard_normal((count, self.n))
                             + 1j * rng.standard_normal((count, self.n)))
        return np.zeros(count, dtype=int), Z

    def embed(self, z, chart=0):
        z = np.asarray(z, dtype=complex)
        return np.concatenate([z.real, z.imag], axis=-1)


class MqnManifold:
    """Chart sampler for the model manifold {|w|_+ < |w|_-} in CP^n.

    Not a bounded domain; used to validate the inertia profile of its
    exhaustion weight: n - q + 1 positive eigenvalues everywhere and q - 1
    negative ones away from the center submanifold {|w|_+ = 0}, degenerating
    on it.
    """

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.k = n - q + 1

    def weight_fn(self, chart):
        return rank_split_weight(self.n, self.k, chart)

    def sample_chart_points(self, rng: np.random.Generator, count: int, on_S: bool = False):
        """(chart, z) samples; ``on_S`` restricts to the center submanifold.

        Candidates are drawn ``count`` at a time and kept in draw order.
        """
        k = self.k
        kept = np.empty((0, self.n + 1), dtype=complex)
        while len(kept) < count:
            R = rng.standard_normal((count, 2, self.n + 1))
            w = R[:, 0] + 1j * R[:, 1]
            if on_S:
                w[:, :k] = 0.0
            npl = np.sum(np.abs(w[:, :k]) ** 2, axis=1)
            nmi = np.sum(np.abs(w[:, k:]) ** 2, axis=1)
            ok = (nmi > npl) & (nmi >= 1e-12) & (on_S | (npl >= 1e-3 * nmi))
            kept = np.concatenate([kept, w[ok]])
        w = kept[:count]
        chart, z = _to_chart(w, k + np.argmax(np.abs(w[:, k:]), axis=1))  # a minus-block chart
        return list(zip(chart.tolist(), z))


def domain_from_spec(spec, path: str = "domain") -> Domain | MqnManifold:
    """Build a domain from its JSON description {"type": ..., params...}.

    A malformed description raises SchemaError naming the JSON path below
    ``path`` (for example ``quad.json.mu``): a missing or mistyped key, an
    integer out of range (n >= 2, 1 <= q <= n, product q >= 2), a
    nonpositive radius, a ``mu`` the quadric rejects, or an unknown type.
    There is no custom type: a data file never names code to run.
    """
    if not isinstance(spec, dict):
        raise SchemaError(path, 'expected an object with a "type"')

    def get(key, ok, want, default=None):
        value = spec.get(key, default)
        if value is None:
            raise SchemaError(f"{path}.{key}", "missing")
        if isinstance(value, bool) or not ok(value):
            raise SchemaError(f"{path}.{key}", f"expected {want}, got {value!r}")
        return value

    def integer(key, low, high=None):
        return get(key, lambda v: isinstance(v, int) and low <= v <= (high or v),
                   f"an integer >= {low}" + (f" and <= {high}" if high else ""))

    def radius():
        return float(get("radius", lambda v: isinstance(v, (int, float)) and 0 < v < np.inf,
                         "a positive number", 1.0))

    kind = spec.get("type")
    if kind == "ball":
        return BallDomain(n=integer("n", 2), radius=radius())
    if kind == "quadric":
        n = integer("n", 2)
        mu = get("mu", lambda v: isinstance(v, list) and len(v) == n + 1 and all(
            isinstance(m, (int, float)) and np.isfinite(m) for m in v), f"{n + 1} finite numbers")
        q = integer("q", 1, n)
        try:
            return QuadricDomain(mu=mu, n=n, q=q)
        except QposError as e:
            raise SchemaError(f"{path}.mu", str(e)) from e
    if kind == "product":
        n = integer("n", 2)
        return ProductDomain(n=n, q=integer("q", 2, n), radius=radius())
    if kind == "mqn":
        n = integer("n", 2)
        return MqnManifold(n=n, q=integer("q", 1, n))
    raise SchemaError(f"{path}.type", f"unknown domain type {kind!r}; expected ball, "
                      "quadric, product or mqn")
