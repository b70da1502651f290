"""Hermitian forms relative to metrics: spectra, inertia, traces, q-positivity.

Conventions
-----------
A Hermitian form ``H`` on C^d is stored as a d x d complex ndarray ``M`` with
``H(u, v) = v.conj() @ M @ u`` (linear in the first argument, conjugate-linear
in the second), so ``H(v, v) = v.conj() @ M @ v`` is real.  A metric is a
positive-definite Hermitian form.  Eigenvalues of ``H`` relative to a metric
``g`` are the (real) solutions of the pencil problem ``M v = lam G v``; the
eigenvectors are g-orthonormal.

All operations are pure functions of their inputs.  Tolerances are explicit
keyword parameters; the library works in ordinary float64 and the defaults
below state the floating-point contract for each check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbientMismatch,
    BasisNotOrthonormal,
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    QOutOfRange,
    QposError,
)

TAU_HERM = 1e-12
TAU_PD = 1e-10
TAU_ORTH = 1e-10
TAU_RES = 1e-9
ZERO_REL = 1e-10


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_form(M, tau_herm: float = TAU_HERM) -> np.ndarray:
    """Validate and return a Hermitian form matrix as a complex ndarray.

    Entries must be finite; hermiticity is checked relative to
    max(1, ||M||_F) with tolerance ``tau_herm``.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NotFinite("matrix has non-finite entries")
    defect, bad = _not_hermitian(A, tau_herm)
    if bad:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance")
    return A


def as_metric(G, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> np.ndarray:
    """Validate a metric: Hermitian with all eigenvalues > tau_pd."""
    A = as_form(G, tau_herm=tau_herm)
    w0, bad = _not_positive_definite(A, tau_pd)
    if bad:
        raise NotPositiveDefinite(f"smallest metric eigenvalue {w0:.3e} <= {tau_pd:.1e}")
    return A


def require_forms(A, ids, what="form") -> None:
    """Check an (N, d, d) stack of forms at once: the first bad one raises
    what ``as_form`` raises for it, naming it as ``what`` at its id from ``ids``."""
    _require(A, ids, what, invalid_forms, as_form)


def require_metrics(G, ids) -> None:
    """Check an (N, d, d) stack of metrics at once: the first bad one raises
    what ``as_metric`` raises for it, naming its id from ``ids``."""
    _require(G, ids, "metric", invalid_metrics, as_metric)


def _require(A, ids, what, invalid, check):
    A = np.asarray(A, dtype=complex)
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    bad = np.flatnonzero(~finite | invalid(np.where(finite[:, None, None], A, 1.0)))
    if bad.size:
        try:
            check(A[bad[0]])
        except QposError as e:
            raise type(e)(f"{what} at {ids[bad[0]]!r}: {e}") from None


def invalid_forms(A) -> np.ndarray:
    """Mask of the matrices of a finite (N, d, d) stack that ``as_form`` rejects."""
    return _not_hermitian(A, TAU_HERM)[1]


def invalid_metrics(G) -> np.ndarray:
    """Mask of the matrices of a finite (N, d, d) stack that ``as_metric`` rejects."""
    return invalid_forms(G) | _not_positive_definite(G, TAU_PD)[1]


def _not_hermitian(A, tau_herm):
    """Per matrix of a stack: the defect ||A - A*||_F; is it > tau_herm * max(1, ||A||_F)?"""
    defect = np.linalg.norm(A - np.conj(np.swapaxes(A, -1, -2)), axis=(-2, -1))
    return defect, defect > tau_herm * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))


def _not_positive_definite(A, tau_pd):
    """Per matrix of a Hermitian stack: the smallest eigenvalue and whether it is <= tau_pd."""
    w0 = np.linalg.eigvalsh(A)[..., 0]
    return w0, w0 <= tau_pd


def row_norm(x) -> np.ndarray:
    """Euclidean norms along the last axis, rounded as ``np.linalg.norm`` rounds one vector."""
    x = np.asarray(x, dtype=complex)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def sign_counts(lam, rel: float = ZERO_REL):
    """``(n_plus, n_minus)`` of spectra along the last axis; supports stacks.

    An eigenvalue is zero within ``rel * max(1, max |lam|)`` of its spectrum.
    """
    return _counts_beyond(lam, rel * _spectral_scale(lam)[..., None])


def _counts_beyond(lam, thr):
    return np.sum(lam > thr, axis=-1), np.sum(lam < -thr, axis=-1)


def _spectral_scale(lam):
    return np.maximum(1.0, np.max(np.abs(lam), axis=-1, initial=0.0))


def _require_same_dim(*mats) -> int:
    dims = {m.shape[-1] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


# ---------------------------------------------------------------------------
# batched pencil solver (shared by the field-level modules)
# ---------------------------------------------------------------------------

def congruence(G):
    """Congruence ``(W, W_inv)`` with ``W* G W = I`` for a stack of metrics.

    From the Cholesky factor ``G = L L*``: ``W = L^{-*}`` and ``W_inv = L*``
    (Golub & Van Loan, Matrix Computations, section 8.7; LAPACK ``*hegv``
    reduces the same way).  Raises NotPositiveDefinite when the factorization
    fails.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite("matrix in stack is not positive definite") from e
    W_inv = np.conj(np.swapaxes(L, -1, -2))
    return np.linalg.inv(W_inv), W_inv


def reduce_form(H, W):
    """The form H in the frame W: the Hermitian part of ``W* H W``; supports stacks."""
    T = np.conj(np.swapaxes(W, -1, -2)) @ H @ W
    return 0.5 * (T + np.conj(np.swapaxes(T, -1, -2)))


def pencil_eigh(H, G):
    """Eigenvalues and g-orthonormal eigenvectors of the pencil (H, G).

    Works on stacks: ``H`` and ``G`` may have shape (..., d, d).  Reduction is
    by the Cholesky congruence of ``G`` followed by a standard Hermitian
    eigensolve.

    Returns ``(lam, V)`` with ``lam`` ascending along the last axis and the
    columns of ``V`` satisfying ``V* G V = I``.
    """
    W, _ = congruence(np.asarray(G, dtype=complex))
    lam, Y = np.linalg.eigh(reduce_form(np.asarray(H, dtype=complex), W))
    return lam, W @ Y


def pencil_eigvalsh(H, G):
    """Eigenvalues only of the pencil (H, G); supports stacks."""
    W, _ = congruence(np.asarray(G, dtype=complex))
    return np.linalg.eigvalsh(reduce_form(np.asarray(H, dtype=complex), W))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumWrt:
    """Ascending eigenvalues and g-orthonormal eigenvectors of a form.

    ``eigenvectors[:, j]`` is the eigenvector for ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def residual(self, H, G) -> float:
        """max_j ||H v_j - lam_j G v_j|| over the eigenpairs."""
        H = np.asarray(H)
        G = np.asarray(G)
        R = H @ self.eigenvectors - G @ self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(R, axis=0)))


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues at a threshold."""

    n_plus: int
    n_minus: int
    n_zero: int
    zero_threshold: float

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def as_tuple(self):
        return (self.n_plus, self.n_minus, self.n_zero)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of C^d given by an orthonormal basis.

    ``basis`` has shape (d, k) with the basis vectors as columns; they are
    orthonormal with respect to a stated metric (the ambient standard inner
    product unless an operation says otherwise).
    """

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=complex)
        if B.ndim != 2:
            raise DimensionMismatch("subspace basis must be a (d, k) array")
        object.__setattr__(self, "basis", B)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def check_orthonormal(self, G=None, tau_orth: float = TAU_ORTH) -> None:
        """Raise BasisNotOrthonormal unless basis* G basis = I within tau."""
        B = self.basis
        gram = B.conj().T @ B if G is None else B.conj().T @ np.asarray(G) @ B
        defect = np.linalg.norm(gram - np.eye(self.dim))
        if defect > tau_orth:
            raise BasisNotOrthonormal(f"Gram defect {defect:.3e} exceeds {tau_orth:.1e}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def spectrum_wrt(H, g, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> SpectrumWrt:
    """Eigenpairs of the form H relative to the metric g.

    Solves ``H v = lam g v`` with real eigenvalues in ascending order and
    g-orthonormal eigenvectors.
    """
    M = as_form(H, tau_herm=tau_herm)
    G = as_metric(g, tau_herm=tau_herm, tau_pd=tau_pd)
    _require_same_dim(M, G)
    lam, V = pencil_eigh(M, G)
    return SpectrumWrt(eigenvalues=lam, eigenvectors=V)


def inertia(H, zero_threshold: float | None = None, tau_herm: float = TAU_HERM) -> Inertia:
    """Signature of H: eigenvalue counts above / below / within the threshold.

    The default threshold is ``1e-10 * max(1, ||H||_2)`` (``sign_counts``);
    the signature is congruence-invariant, so no metric argument is needed.
    """
    M = as_form(H, tau_herm=tau_herm)
    w = np.linalg.eigvalsh(M)
    if zero_threshold is None:
        zero_threshold = ZERO_REL * float(_spectral_scale(w))
    if zero_threshold < 0:
        raise ValueError("zero_threshold must be nonnegative")
    n_plus, n_minus = (int(n) for n in _counts_beyond(w, zero_threshold))
    return Inertia(n_plus, n_minus, len(w) - n_plus - n_minus, zero_threshold)


def trace_wrt(H, g, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Trace of H relative to g: the sum of all pencil eigenvalues.

    Computed as tr(G^-1 M), which equals the eigenvalue sum and the value of
    sum_k H(t_k, t_k) over any g-orthonormal basis {t_k}.
    """
    M = as_form(H, tau_herm=tau_herm)
    G = as_metric(g, tau_herm=tau_herm, tau_pd=tau_pd)
    _require_same_dim(M, G)
    return float(np.trace(np.linalg.solve(G, M)).real)


def q_min_sum(H, g, q: int, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Sum of the q smallest eigenvalues of H relative to g.

    Strict q-positivity of H with respect to g is equivalent to this value
    being positive.
    """
    M = as_form(H, tau_herm=tau_herm)
    G = as_metric(g, tau_herm=tau_herm, tau_pd=tau_pd)
    d = _require_same_dim(M, G)
    if not 1 <= q <= d:
        raise QOutOfRange(f"q = {q} not in [1, {d}]")
    lam = pencil_eigvalsh(M, G)
    return float(np.sum(lam[:q]))


def max_subspace_trace(H, g, q: int, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Maximum of the restricted trace over q-dimensional subspaces.

    By the extremal characterization this is the sum of the q largest
    eigenvalues of H relative to g.
    """
    M = as_form(H, tau_herm=tau_herm)
    G = as_metric(g, tau_herm=tau_herm, tau_pd=tau_pd)
    d = _require_same_dim(M, G)
    if not 1 <= q <= d:
        raise QOutOfRange(f"q = {q} not in [1, {d}]")
    lam = pencil_eigvalsh(M, G)
    return float(np.sum(lam[d - q:]))


def restricted_trace(H, g, W: Subspace, tau_orth: float = TAU_ORTH,
                     tau_herm: float = TAU_HERM) -> float:
    """Trace of H restricted to the subspace W (basis g-orthonormal).

    The value sum_k H(t_k, t_k) does not depend on which g-orthonormal basis
    of W is supplied.
    """
    M = as_form(H, tau_herm=tau_herm)
    G = np.asarray(g, dtype=complex)
    if W.ambient_dim != M.shape[0]:
        raise DimensionMismatch("subspace ambient dimension does not match the form")
    W.check_orthonormal(G, tau_orth=tau_orth)
    B = W.basis
    return float(np.trace(B.conj().T @ M @ B).real)


def projection_dim_sum(V: Subspace, W: Subspace, tau_orth: float = TAU_ORTH) -> float:
    """sum_k ||pi_V t_k||^2 over an orthonormal basis {t_k} of W.

    Both subspaces must be orthonormal in the same ambient (standard) inner
    product.  For subspaces in exact position the value is dim(V cap W); when
    dim V = d - q + 1 and dim W = q the value is always >= 1.
    """
    if V.ambient_dim != W.ambient_dim:
        raise AmbientMismatch(
            f"ambient dims differ: {V.ambient_dim} vs {W.ambient_dim}")
    V.check_orthonormal(tau_orth=tau_orth)
    W.check_orthonormal(tau_orth=tau_orth)
    return float(np.linalg.norm(V.basis.conj().T @ W.basis) ** 2)


def complement_sum_identity(lambdas, q: int):
    """Self-test identity for eigenvalue sums on an (n-1)-dimensional space.

    Returns the pair ``(sum_{1..q} - sum_{1..n-1}, -sum_{q+1..n-1})``; the two
    components agree to machine precision.
    """
    lam = np.asarray(lambdas, dtype=float)
    m = lam.size  # m = n - 1
    if not 1 <= q <= m - 1:
        raise QOutOfRange(f"q = {q} not in [1, {m - 1}]")
    lhs = float(np.sum(lam[:q]) - np.sum(lam))
    rhs = float(-np.sum(lam[q:]))
    return lhs, rhs
