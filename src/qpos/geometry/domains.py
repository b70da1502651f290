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

import numpy as np

from ..errors import QposError, SchemaError

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


def complex_hessian(phi, p, mode: str = "auto", step: float = FD_STEP) -> np.ndarray:
    """Complex Hessian of a scalar function at p, analytic or finite-difference.

    ``phi`` may be a plain callable (finite differences) or an object with a
    ``hessian(z)`` method (analytic mode).  ``mode`` is "analytic", "fd", or
    "auto" (analytic when available).
    """
    has_analytic = hasattr(phi, "hessian")
    if mode == "analytic" or (mode == "auto" and has_analytic):
        if not has_analytic:
            raise QposError("analytic mode requested but phi has no hessian()")
        return np.asarray(phi.hessian(p), dtype=complex)
    return fd_complex_hessian(phi, p, step=step)


# ---------------------------------------------------------------------------
# diagonal-quadratic building blocks (all built-in functions reduce to these)
# ---------------------------------------------------------------------------

def _quad_value(a, c0, z):
    return float(c0 + np.sum(a * np.abs(z) ** 2))


def _quad_dz(a, z):
    return a * np.conj(z)


def _log_quad_A(a, c0, z):
    """Raw derivative array of log(c0 + sum a_j |z_j|^2)."""
    Q = _quad_value(a, c0, z)
    qj = a * np.conj(z)
    qk = a * z
    return np.diag(a) / Q - np.outer(qj, qk) / (Q * Q)


class _Weight:
    """Scalar function with analytic gradient/Hessian; callable for FD checks."""

    def __call__(self, z):  # pragma: no cover - overridden
        raise NotImplementedError

    def hessian(self, z):  # pragma: no cover - overridden
        raise NotImplementedError


class QuadExhaustion(_Weight):
    """|z_1|^2 + ... + |z_m|^2 on C^n (zeros beyond the first m slots)."""

    def __init__(self, n: int, m: int | None = None):
        self.n = n
        self.m = n if m is None else m

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return float(np.sum(np.abs(z[: self.m]) ** 2))

    def hessian(self, z):
        M = np.zeros((self.n, self.n), dtype=complex)
        M[: self.m, : self.m] = np.eye(self.m)
        return M


class LogQuadRatioWeight(_Weight):
    """-log(1 - N+ / N-) in a chart, for diagonal-quadratic N+ and N-.

    ``a_plus``/``a_minus`` are coefficient vectors over the chart
    coordinates, ``c_plus``/``c_minus`` the constants (1 in the block that
    contains the chart slot, 0 in the other).
    """

    def __init__(self, a_plus, c_plus, a_minus, c_minus):
        self.a_plus = np.asarray(a_plus, dtype=float)
        self.c_plus = float(c_plus)
        self.a_minus = np.asarray(a_minus, dtype=float)
        self.c_minus = float(c_minus)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        npl = _quad_value(self.a_plus, self.c_plus, z)
        nmi = _quad_value(self.a_minus, self.c_minus, z)
        return float(-np.log(nmi - npl) + np.log(nmi))

    def hessian(self, z):
        z = np.asarray(z, dtype=complex)
        # -log(N- - N+) + log(N-); N- - N+ is again a diagonal quadratic
        a_w = self.a_minus - self.a_plus
        c_w = self.c_minus - self.c_plus
        A = -_log_quad_A(a_w, c_w, z) + _log_quad_A(self.a_minus, self.c_minus, z)
        return A.T


def rank_split_weight(n: int, k: int, chart) -> LogQuadRatioWeight:
    """-log(1 - |w|_+^2 / |w|_-^2) on CP^n in the affine chart w_chart = 1.

    The plus block is the first ``k`` of the n + 1 homogeneous coordinates.
    """
    plus = (np.arange(n + 1) < k).astype(float)
    rest = np.arange(n + 1) != chart
    return LogQuadRatioWeight(plus[rest], plus[chart], 1.0 - plus[rest], 1.0 - plus[chart])


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Domain:
    """Base class: chart-aware defining function, weight, and samplers."""

    n: int
    charts: tuple
    scale: float = 1.0

    def rho(self, z, chart) -> float:
        raise NotImplementedError

    def rho_dz(self, z, chart) -> np.ndarray:
        raise NotImplementedError

    def rho_hessian(self, z, chart) -> np.ndarray:
        raise NotImplementedError

    def weight_fn(self, chart):
        raise NotImplementedError

    def weight_hessian(self, z, chart) -> np.ndarray:
        return np.asarray(self.weight_fn(chart).hessian(z), dtype=complex)

    def seed_points(self, rng: np.random.Generator, count: int):
        """(chart, z) pairs near the boundary for Newton projection."""
        raise NotImplementedError

    def embed(self, z, chart) -> np.ndarray:
        """Chart-independent real embedding used for adjacency."""
        raise NotImplementedError


class BallDomain(Domain):
    """The ball |z| < radius in C^n with weight |z|^2."""

    def __init__(self, n: int, radius: float = 1.0):
        self.n = n
        self.radius = float(radius)
        self.charts = ("affine",)
        self.scale = self.radius

    def rho(self, z, chart="affine"):
        z = np.asarray(z, dtype=complex)
        return float(np.sum(np.abs(z) ** 2) - self.radius ** 2)

    def rho_dz(self, z, chart="affine"):
        return np.conj(np.asarray(z, dtype=complex))

    def rho_hessian(self, z, chart="affine"):
        return np.eye(self.n, dtype=complex)

    def weight_fn(self, chart="affine"):
        return QuadExhaustion(self.n)

    def seed_points(self, rng, count):
        Z = rng.standard_normal((count, self.n)) + 1j * rng.standard_normal((count, self.n))
        Z *= (self.radius * (1.0 + 0.1 * rng.standard_normal((count, 1)))
              / np.linalg.norm(Z, axis=1, keepdims=True))
        return [("affine", z) for z in Z]

    def embed(self, z, chart="affine"):
        z = np.asarray(z, dtype=complex)
        return np.concatenate([z.real, z.imag])


def _embed_projective(w) -> np.ndarray:
    """Flattened w w* / |w|^2: a chart-free embedding of [w]."""
    w = np.asarray(w, dtype=complex)
    P = np.outer(w, w.conj()) / float(np.vdot(w, w).real)
    return np.concatenate([P.real.ravel(), P.imag.ravel()])


class QuadricDomain(Domain):
    """{ sum_j mu_j |w_j|^2 < 0 } in CP^n, with the rank-split exhaustion weight.

    ``mu`` has n + 1 entries, positive on the first n - q + 1 slots (each
    > 1) and > -1 on the rest with at least one negative; then the domain
    sits inside the region |w|_+ < |w|_- where the weight
    -log(1 - |w|_+^2 / |w|_-^2) is defined.
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

    # chart helpers -------------------------------------------------------
    def _chart_mu(self, chart):
        """(coefficients over chart coords, constant) for sum mu_j |w_j|^2."""
        idx = [j for j in range(self.n + 1) if j != chart]
        return self.mu[idx], float(self.mu[chart])

    def homogeneous(self, z, chart) -> np.ndarray:
        w = np.empty(self.n + 1, dtype=complex)
        idx = [j for j in range(self.n + 1) if j != chart]
        w[idx] = np.asarray(z, dtype=complex)
        w[chart] = 1.0
        return w

    def chart_of(self, w) -> tuple[int, np.ndarray]:
        w = np.asarray(w, dtype=complex)
        c = int(np.argmax(np.abs(w)))
        idx = [j for j in range(self.n + 1) if j != c]
        return c, w[idx] / w[c]

    # defining function ---------------------------------------------------
    def rho(self, z, chart):
        a, c0 = self._chart_mu(chart)
        z = np.asarray(z, dtype=complex)
        return _quad_value(a, c0, z) / _quad_value(np.ones(self.n), 1.0, z)

    def rho_dz(self, z, chart):
        a, c0 = self._chart_mu(chart)
        z = np.asarray(z, dtype=complex)
        N = _quad_value(a, c0, z)
        D = _quad_value(np.ones(self.n), 1.0, z)
        return (_quad_dz(a, z) * D - N * _quad_dz(np.ones(self.n), z)) / (D * D)

    def rho_hessian(self, z, chart):
        a, c0 = self._chart_mu(chart)
        z = np.asarray(z, dtype=complex)
        ones = np.ones(self.n)
        N = _quad_value(a, c0, z)
        D = _quad_value(ones, 1.0, z)
        Nj, Nk = a * np.conj(z), a * z
        Dj, Dk = np.conj(z), z
        A = (np.diag(a) * D - N * np.eye(self.n)
             + np.outer(Dj, Nk) - np.outer(Nj, Dk)) / (D * D) \
            - 2.0 * np.outer(Dj, Nk * D - N * Dk) / (D ** 3)
        return A.T

    # weight ----------------------------------------------------------------
    def weight_fn(self, chart):
        return rank_split_weight(self.n, self.n - self.q + 1, chart)

    # sampling ---------------------------------------------------------------
    def seed_points(self, rng, count):
        out = []
        k = self.n - self.q + 1
        for _ in range(count):
            w = rng.standard_normal(self.n + 1) + 1j * rng.standard_normal(self.n + 1)
            wp, wm = w[:k], w[k:]
            np_, nm_ = float(np.vdot(wp, wp).real), float(np.vdot(wm, wm).real)
            if np_ < 1e-12 or nm_ < 1e-12:
                continue
            # scale the plus block so the point lands on the zero set
            A = float(self.mu[:k] @ (np.abs(wp) ** 2))
            B = float(self.mu[k:] @ (np.abs(wm) ** 2))
            if B >= 0:
                continue
            w = np.concatenate([wp * np.sqrt(-B / A), wm])
            out.append(self.chart_of(w))
        return out

    def embed(self, z, chart):
        return _embed_projective(self.homogeneous(z, chart))


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
        z = np.asarray(z, dtype=complex)
        return float(np.sum(np.abs(z[: self.m]) ** 2) - self.radius ** 2)

    def rho_dz(self, z, chart):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(self.n, dtype=complex)
        out[: self.m] = np.conj(z[: self.m])
        return out

    def rho_hessian(self, z, chart):
        M = np.zeros((self.n, self.n), dtype=complex)
        M[: self.m, : self.m] = np.eye(self.m)
        return M

    def weight_fn(self, chart):
        return QuadExhaustion(self.n, self.m)

    def seed_points(self, rng, count):
        out = []
        for _ in range(count):
            z = rng.standard_normal(self.m) + 1j * rng.standard_normal(self.m)
            z *= self.radius * (1.0 + 0.1 * rng.standard_normal()) / np.linalg.norm(z)
            w = rng.standard_normal(self.q) + 1j * rng.standard_normal(self.q)
            c = int(np.argmax(np.abs(w)))
            zeta = np.delete(w, c) / w[c]
            out.append((c, np.concatenate([z, zeta])))
        return out

    def embed(self, z, chart):
        z = np.asarray(z, dtype=complex)
        flat = z[: self.m]
        w = np.insert(z[self.m:], chart, 1.0)
        return np.concatenate([flat.real, flat.imag, _embed_projective(w)])


class CustomDomain(Domain):
    """Domain from plain callbacks; all derivatives by finite differences."""

    def __init__(self, n: int, rho, weight=None, seed_box: float = 1.5,
                 scale: float = 1.0, fd_step: float = FD_STEP):
        self.n = n
        self._rho = rho
        self._weight = weight
        self.charts = ("affine",)
        self.seed_box = seed_box
        self.scale = scale
        self.fd_step = fd_step

    def rho(self, z, chart="affine"):
        return float(self._rho(np.asarray(z, dtype=complex)))

    def rho_dz(self, z, chart="affine"):
        return fd_complex_gradient(self._rho, z, step=self.fd_step)

    def rho_hessian(self, z, chart="affine"):
        return fd_complex_hessian(self._rho, z, step=self.fd_step)

    def weight_fn(self, chart="affine"):
        if self._weight is None:
            raise QposError("custom domain has no weight function")
        return self._weight

    def weight_hessian(self, z, chart="affine"):
        w = self.weight_fn(chart)
        if hasattr(w, "hessian"):
            return np.asarray(w.hessian(z), dtype=complex)
        return fd_complex_hessian(w, z, step=self.fd_step)

    def seed_points(self, rng, count):
        Z = self.seed_box * (rng.standard_normal((count, self.n))
                             + 1j * rng.standard_normal((count, self.n)))
        return [("affine", z) for z in Z]

    def embed(self, z, chart="affine"):
        z = np.asarray(z, dtype=complex)
        return np.concatenate([z.real, z.imag])


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
        """(chart, z) samples; ``on_S`` restricts to the center submanifold."""
        out = []
        while len(out) < count:
            w = rng.standard_normal(self.n + 1) + 1j * rng.standard_normal(self.n + 1)
            if on_S:
                w[: self.k] = 0.0
            npl = float(np.sum(np.abs(w[: self.k]) ** 2))
            nmi = float(np.sum(np.abs(w[self.k:]) ** 2))
            if nmi <= npl or nmi < 1e-12:
                continue
            if not on_S and npl < 1e-3 * nmi:
                continue
            c = self.k + int(np.argmax(np.abs(w[self.k:])))  # chart in the minus block
            idx = [j for j in range(self.n + 1) if j != c]
            out.append((c, w[idx] / w[c]))
        return out


def domain_from_spec(spec, path: str = "domain") -> Domain | MqnManifold:
    """Build a domain from its JSON description {"type": ..., params...}.

    A malformed description raises SchemaError naming the JSON path below
    ``path`` (for example ``quad.json.mu``): a missing or mistyped key, an
    integer out of range (n >= 2, 1 <= q <= n, product q >= 2), a
    nonpositive radius, a ``mu`` the quadric rejects, or an unknown type.
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
    if kind == "custom":
        import importlib

        target = get("target", lambda v: isinstance(v, str), '"module:factory"')
        module, _, attr = target.partition(":")
        try:
            factory = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError, ValueError) as e:
            raise SchemaError(f"{path}.target", f"cannot load {target!r}: {e}") from e
        try:
            return factory(**get("params", lambda v: isinstance(v, dict), "an object", {}))
        except TypeError as e:
            raise SchemaError(f"{path}.params", str(e)) from e
    raise SchemaError(f"{path}.type", f"unknown domain type {kind!r}; expected ball, "
                      "quadric, product, mqn or custom")
