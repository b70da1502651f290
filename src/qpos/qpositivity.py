"""Single Hermitian forms relative to a metric: spectra, inertia, traces, q-positivity.

The one-matrix API over the kernels of ``qpos.hermitian``, with its results
as records: ``SpectrumWrt``, ``Inertia`` and ``Subspace``.  A form is
strictly q-positive relative to a metric when ``q_min_sum`` is positive;
``restricted_trace`` and ``max_subspace_trace`` give the subspace-trace side
of that equivalence.  The conventions are those of ``qpos.hermitian``.  No
command imports this module: the command-line path works on stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatch, BasisNotOrthonormal, DimensionMismatch, QOutOfRange
from .hermitian import (TAU_HERM, TAU_PD, _counts_beyond, as_form, as_metric, pencil_eigh,
                        q_sums, zero_tolerance)

TAU_ORTH = 1e-10  # see metric_subbundle.TAU_ORTH for why that one is 1e-8


def _pencil(H, g, tau_herm, tau_pd):
    """The validated form and metric of one pencil."""
    M, G = as_form(H, tau_herm=tau_herm), as_metric(g, tau_herm=tau_herm, tau_pd=tau_pd)
    if M.shape != G.shape:
        raise DimensionMismatch(f"dimension mismatch: {sorted({len(M), len(G)})}")
    return M, G


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
    M, G = _pencil(H, g, tau_herm, tau_pd)
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
        zero_threshold = float(zero_tolerance(w))
    if zero_threshold < 0:
        raise ValueError("zero_threshold must be nonnegative")
    n_plus, n_minus = (int(n) for n in _counts_beyond(w, zero_threshold))
    return Inertia(n_plus, n_minus, len(w) - n_plus - n_minus, zero_threshold)


def trace_wrt(H, g, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Trace of H relative to g: the sum of all pencil eigenvalues.

    Computed as tr(G^-1 M), which equals the eigenvalue sum and the value of
    sum_k H(t_k, t_k) over any g-orthonormal basis {t_k}.
    """
    M, G = _pencil(H, g, tau_herm, tau_pd)
    return float(np.trace(np.linalg.solve(G, M)).real)


def q_min_sum(H, g, q: int, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Sum of the q smallest eigenvalues of H relative to g.

    Strict q-positivity of H with respect to g is equivalent to this value
    being positive.
    """
    return float(q_sums(*_pencil(H, g, tau_herm, tau_pd), q))


def max_subspace_trace(H, g, q: int, tau_herm: float = TAU_HERM, tau_pd: float = TAU_PD) -> float:
    """Maximum of the restricted trace over q-dimensional subspaces.

    By the extremal characterization this is the sum of the q largest
    eigenvalues of H relative to g.
    """
    return float(q_sums(*_pencil(H, g, tau_herm, tau_pd), q, top=True))


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
