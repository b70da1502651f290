"""Hermitian forms relative to metrics: the stacked kernels of the field layers.

Conventions
-----------
A Hermitian form ``H`` on C^d is stored as a d x d complex ndarray ``M`` with
``H(u, v) = v.conj() @ M @ u`` (linear in the first argument, conjugate-linear
in the second), so ``H(v, v) = v.conj() @ M @ v`` is real.  A metric is a
positive-definite Hermitian form.  Eigenvalues of ``H`` relative to a metric
``g`` are the (real) solutions of the pencil problem ``M v = lam G v``; the
eigenvectors are g-orthonormal.

This module holds what every command shares: validation, the batched pencil
solve, and the two decisions: ``sign_counts``, and ``q_sums`` with the one pass
rule of every certificate and bump claim, ``q_margins``.  The single-matrix API
built on it is ``qpos.qpositivity``, which no command imports.

All operations are pure functions of their inputs.  Tolerances are explicit
keyword parameters; the library works in ordinary float64 and the defaults
below state the floating-point contract for each check.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotPositiveDefinite, QOutOfRange

TAU_HERM = 1e-12
TAU_PD = 1e-10
ZERO_REL = 1e-10
MARGIN_FLOOR_SCALE = 1e-9


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_form(M, tau_herm: float = TAU_HERM) -> np.ndarray:
    """Validate and return a Hermitian form matrix as a complex ndarray.

    Entries must be finite; hermiticity is checked relative to
    max(1, ||M||_F) with tolerance ``tau_herm``.
    """
    return _checked(M, tau_herm, None)


def as_metric(G, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> np.ndarray:
    """Validate a metric: Hermitian with all eigenvalues > tau_pd."""
    return _checked(G, tau_herm, tau_pd)


def _checked(M, tau_herm, tau_pd):
    """One matrix through ``first_invalid``: the matrix, or the error it finds."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    found = first_invalid(A[None], tau_herm, tau_pd)
    if found:
        raise found[1]
    return A


def first_invalid(A, tau_herm: float = TAU_HERM, tau_pd: float | None = None):
    """``(row, error)`` for the first matrix of a complex (N, d, d) stack that
    ``as_form`` (``as_metric`` when ``tau_pd`` is given) rejects, with the
    error it raises; None if all pass.  One test of each kind serves the stack.

    Positive definiteness is screened by one Cholesky factorization of the
    stack A - tau_pd I, so it decides lambda_min > tau_pd up to Cholesky's
    backward error (a few units in the last place of ||A||).  Only when a
    factorization fails are the smallest eigenvalues computed, which then
    decide, name the first row at or below tau_pd and give its eigenvalue.
    """
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    if not finite.all():
        A = np.where(finite[:, None, None], A, 0.0)
    # the defect ||A - A*||_F, against tau_herm * max(1, ||A||_F)
    defect = np.linalg.norm(A - np.conj(np.swapaxes(A, -1, -2)), axis=(-2, -1))
    not_hermitian = defect > tau_herm * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
    bad = ~finite | not_hermitian
    if tau_pd is not None:
        try:
            np.linalg.cholesky(A - tau_pd * np.eye(A.shape[-1]))
        except np.linalg.LinAlgError:
            w0 = np.linalg.eigvalsh(A)[:, 0]
            bad |= w0 <= tau_pd
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    if not finite[row]:
        return row, NotFinite("matrix has non-finite entries")
    if not_hermitian[row]:
        return row, NotHermitian(f"hermiticity defect {defect[row]:.3e} exceeds tolerance")
    return row, NotPositiveDefinite(f"smallest metric eigenvalue {w0[row]:.3e} <= {tau_pd:.1e}")


def row_norm(x) -> np.ndarray:
    """Euclidean norms along the last axis, rounded as ``np.linalg.norm`` rounds one vector."""
    x = np.asarray(x, dtype=complex)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def sign_counts(lam):
    """``(n_plus, n_minus)`` of spectra along the last axis, zero within ``zero_tolerance``."""
    return _counts_beyond(lam, zero_tolerance(lam)[..., None])


def zero_tolerance(lam):
    """``ZERO_REL * max(1, max |lam|)`` along the last axis: the zero rule of sign decisions."""
    return ZERO_REL * np.maximum(1.0, np.max(np.abs(lam), axis=-1, initial=0.0))


def _counts_beyond(lam, thr):
    return np.sum(lam > thr, axis=-1), np.sum(lam < -thr, axis=-1)


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


def pencil_eigvalsh(H, G, W=None):
    """Eigenvalues only of the pencil (H, G); supports stacks.

    ``H`` may carry more leading axes than ``G``, such as one per form of a
    field against the field's metric stack: the axes broadcast, and every
    form is reduced by the one factorization of G.  ``W`` is that
    factorization's congruence (``congruence(G)[0]``) when the caller has
    already made it, and G is then not factored again.
    """
    if W is None:
        W, _ = congruence(np.asarray(G, dtype=complex))
    return np.linalg.eigvalsh(reduce_form(np.asarray(H, dtype=complex), W))


def q_sums(H, G, q: int, W=None, top: bool = False):
    """Sums of the q smallest (``top``: largest) pencil eigenvalues along the last axis,
    added in ascending order; stacks and ``W`` as in ``pencil_eigvalsh``.  QOutOfRange
    unless 1 <= q <= d."""
    if not 1 <= q <= np.shape(H)[-1]:
        raise QOutOfRange(f"q = {q} not in [1, {np.shape(H)[-1]}]")
    lam = pencil_eigvalsh(H, G, W)
    return np.sum(lam[..., -q:] if top else lam[..., :q], axis=-1)


def q_margins(H, G, q: int, W=None):
    """``(q_sums(H, G, q, W), margins)`` under the one pass rule: a q-sum passes iff its
    margin, the sum less the rounding floor ``MARGIN_FLOOR_SCALE * ||H||_F``, is > 0."""
    sums = q_sums(H, G, q, W)
    return sums, sums - MARGIN_FLOOR_SCALE * np.linalg.norm(H, axis=(-2, -1))
