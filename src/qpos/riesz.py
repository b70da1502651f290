"""Riesz spectral projectors by contour quadrature of the resolvent.

The projector onto the eigenspaces of a Hermitian matrix T with eigenvalues
inside an open disc G is the contour integral of (zeta I - T)^{-1} over the
circle boundary, divided by 2 pi i.  An N-point trapezoid rule on the circle
is exponentially accurate for this integrand; diagonalizing T shows the
quadrature result has eigenvalue exactly 1 / (1 - u^N) at each eigenvalue of
T, where u = (lambda - center) / radius, so the error decays like |u|^N and
is governed entirely by the separation of the spectrum from the contour.

Only discs centered on the real axis are supported.  For Hermitian T the
nodes then come in conjugate pairs with R(conj(zeta)) = R(zeta)*, so a
projector takes floor(N/2) + 1 resolvent solves rather than N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueOnContour, NearSingularResolvent
from .hermitian import as_form

DEFAULT_NODES = 64
MIN_NODES = 8
NODE_BLOCK = 16  # resolvents per batched solve: the working set is O(NODE_BLOCK d^2)
TAU_SEP_RESOLVENT = 1e-8
TAU_SEP_CONTOUR = 1e-6  # times radius


@dataclass(frozen=True)
class Disc:
    """Open disc in the complex plane; its center must be real (and finite)."""

    center: float
    radius: float

    def __post_init__(self):
        if np.imag(self.center) != 0 or not np.isfinite(self.center):
            raise ValueError(f"disc center must be real and finite, got {self.center!r}")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"disc radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "center", float(np.real(self.center)))

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z) - self.center) < self.radius

    def boundary_distance(self, z) -> np.ndarray:
        """Unsigned distance from z to the circle."""
        return np.abs(np.abs(np.asarray(z) - self.center) - self.radius)


@dataclass(frozen=True)
class ProjectorResult:
    matrix: np.ndarray
    quad_nodes: int
    separation: float
    idempotency_defect: float
    hermiticity_defect: float


def resolvent(T, zeta: complex, tau_sep: float = TAU_SEP_RESOLVENT) -> np.ndarray:
    """(zeta I - T)^{-1} for Hermitian T; rejects zeta too close to the spectrum."""
    M = as_form(T)
    lam = np.linalg.eigvalsh(M)
    dist = float(np.min(np.abs(lam - zeta)))
    if dist < tau_sep:
        raise NearSingularResolvent(zeta, dist)
    d = M.shape[0]
    return np.linalg.solve(zeta * np.eye(d) - M, np.eye(d))


def _separation(lam, disc: Disc) -> float:
    return float(np.min(disc.boundary_distance(lam)))


def riesz_projector(T, disc: Disc, nodes: int = DEFAULT_NODES,
                    tau_sep: float = TAU_SEP_CONTOUR) -> ProjectorResult:
    """Spectral projector for eigenvalues of T inside the disc, by quadrature.

    Uses the N-point trapezoid rule on the circle (N = ``nodes``) but solves
    only the nodes k = 0 .. floor(N/2): with a real center, node N - k is the
    conjugate of node k and R(conj(zeta)) = R(zeta)*, so each such pair adds
    term + term*.  Results are deterministic for a fixed BLAS thread count.
    Raises EigenvalueOnContour when the spectrum comes within
    ``tau_sep * radius`` of the boundary circle; the achieved separation is
    reported either way.
    """
    M = as_form(T)
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    lam = np.linalg.eigvalsh(M)
    sep = _separation(lam, disc)
    threshold = tau_sep * disc.radius
    if sep < threshold:
        raise EigenvalueOnContour(sep, threshold)
    real, paired = _quadrature_sums(M, disc, nodes)
    P = (disc.radius / nodes) * (real + paired)
    idem = float(np.linalg.norm(P @ P - P, 2))
    herm = float(np.linalg.norm(P - P.conj().T, 2))
    return ProjectorResult(matrix=P, quad_nodes=nodes, separation=sep,
                           idempotency_defect=idem, hermiticity_defect=herm)


def _quadrature_sums(M, disc: Disc, nodes: int):
    """The trapezoid sum of phase_k R(zeta_k) over the N nodes, in two parts.

    ``real`` sums the self-paired nodes on the real axis (k = 0, and k = N/2
    for even N); ``paired`` = H + H* with H the sum over 0 < k < N/2, which
    stands for the pairs k and N - k and is Hermitian exactly.
    """
    k = np.arange(nodes // 2 + 1)
    phase = np.exp(2j * np.pi * k / nodes)
    zeta = disc.center + disc.radius * phase
    on_axis = (k == 0) | (2 * k == nodes)
    H = _weighted_resolvents(M, zeta[~on_axis], phase[~on_axis])
    return _weighted_resolvents(M, zeta[on_axis], phase[on_axis]), H + H.conj().T


def _weighted_resolvents(M, zeta, weights) -> np.ndarray:
    """sum_k weights[k] (zeta[k] I - M)^{-1}, NODE_BLOCK nodes per batched solve,
    summed in node order."""
    d = M.shape[0]
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d, d), dtype=complex)
    for s in range(0, len(zeta), NODE_BLOCK):
        z = zeta[s:s + NODE_BLOCK]
        R = np.linalg.solve(z[:, None, None] * eye - M, np.broadcast_to(eye, (len(z), d, d)))
        out += np.einsum("k,kij->ij", weights[s:s + NODE_BLOCK], R)
    return out


def oracle_projector(T, disc: Disc, tau_sep: float = TAU_SEP_CONTOUR) -> np.ndarray:
    """Projector by eigendecomposition: sum of v v* over eigenvalues in the disc."""
    M = as_form(T)
    lam, V = np.linalg.eigh(M)
    sep = _separation(lam, disc)
    threshold = tau_sep * disc.radius
    if sep < threshold:
        raise EigenvalueOnContour(sep, threshold)
    inside = disc.contains(lam)
    Vi = V[:, inside]
    return Vi @ Vi.conj().T


def quadrature_convergence(T, disc: Disc, node_list) -> list[tuple[int, float]]:
    """(nodes, ||quadrature - oracle||_2) for each node count; for diagnostics."""
    ref = oracle_projector(T, disc)
    out = []
    for n in node_list:
        P = riesz_projector(T, disc, nodes=int(n)).matrix
        out.append((int(n), float(np.linalg.norm(P - ref, 2))))
    return out
