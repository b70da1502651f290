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
projector needs the resolvents of the nodes k = 0 .. floor(N/2) only.  T is
reduced once to real symmetric tridiagonal form, T = Q J Q*, by a Householder
reduction blocked in panels of PANEL columns, so that most of its O(d^3)
work is matrix-matrix products; the off-axis nodes are then summed as one
d x d matrix by a pivot-free tridiagonal recurrence in O(N d^2) time and
O(N d + d^2) memory, and only the at most two real shifts (k = 0 and
k = N/2) take a dense pivoted solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueOnContour, NearSingularResolvent
from .hermitian import as_form

MIN_NODES = 8
TAU_SEP_RESOLVENT = 1e-8
TAU_SEP_CONTOUR = 1e-6  # times radius
PANEL = 32  # columns per panel of the tridiagonal reduction; 16 to 48 time alike at d = 192


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


def resolvent(T, zeta: complex) -> np.ndarray:
    """(zeta I - T)^{-1} for Hermitian T; rejects zeta too close to the spectrum."""
    M = as_form(T)
    lam = np.linalg.eigvalsh(M)
    dist = float(np.min(np.abs(lam - zeta)))
    if dist < TAU_SEP_RESOLVENT:
        raise NearSingularResolvent(zeta, dist)
    d = M.shape[0]
    return np.linalg.solve(zeta * np.eye(d) - M, np.eye(d))


def _separation(lam, disc: Disc) -> float:
    """The distance of the eigenvalues ``lam`` from the contour; EigenvalueOnContour
    when it is below ``TAU_SEP_CONTOUR * radius``."""
    sep, threshold = float(np.min(disc.boundary_distance(lam))), TAU_SEP_CONTOUR * disc.radius
    if sep < threshold:
        raise EigenvalueOnContour(sep, threshold)
    return sep


def riesz_projector(T, disc: Disc, nodes: int) -> ProjectorResult:
    """Spectral projector for eigenvalues of T inside the disc, by quadrature.

    Uses the N-point trapezoid rule on the circle (N = ``nodes``) but solves
    only the nodes k = 0 .. floor(N/2): with a real center, node N - k is the
    conjugate of node k and R(conj(zeta)) = R(zeta)*, so each such pair adds
    term + term*.  Results are deterministic for a fixed BLAS thread count.
    Raises EigenvalueOnContour when the spectrum comes within
    ``TAU_SEP_CONTOUR * radius`` of the boundary circle; the achieved separation is
    reported either way.  ``nodes`` must be an integer (not a bool) of at
    least MIN_NODES, else ValueError.
    """
    M = as_form(T)
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < MIN_NODES:
        raise ValueError(f"need an integer count of at least {MIN_NODES} quadrature nodes, "
                         f"got {nodes!r}")
    lam = np.linalg.eigvalsh(M)
    sep = _separation(lam, disc)
    real, paired = _quadrature_sums(M, disc, nodes)
    P = (disc.radius / nodes) * (real + paired)
    idem = float(np.linalg.norm(P @ P - P, 2))
    herm = float(np.linalg.norm(P - P.conj().T, 2))
    return ProjectorResult(matrix=P, quad_nodes=nodes, separation=sep,
                           idempotency_defect=idem, hermiticity_defect=herm)


def _quadrature_sums(M, disc: Disc, nodes: int):
    """The trapezoid sum of phase_k R(zeta_k) over the N nodes, in two parts.

    ``real`` sums the self-paired nodes on the real axis (k = 0, and k = N/2
    for even N) by a dense pivoted solve; ``paired`` = H + H* with H the sum
    over 0 < k < N/2, which stands for the pairs k and N - k and is
    Hermitian exactly.  H = Q X Q* with X the same sum for the tridiagonal J.
    """
    k = np.arange(nodes // 2 + 1)
    phase = np.exp(2j * np.pi * k / nodes)
    zeta = disc.center + disc.radius * phase
    on_axis = (k == 0) | (2 * k == nodes)
    d = M.shape[0]
    eye = np.eye(d, dtype=complex)
    z = zeta[on_axis]
    R = np.linalg.solve(z[:, None, None] * eye - M, np.broadcast_to(eye, (len(z), d, d)))
    real = np.einsum("k,kij->ij", phase[on_axis], R)
    Q, a, b = _tridiagonalize(M)
    H = Q @ _tridiagonal_resolvent_sum(a, b, zeta[~on_axis], phase[~on_axis]) @ Q.conj().T
    return real, H + H.conj().T


def _tridiagonalize(M):
    """(Q, a, b) with (M + M*)/2 = Q J Q*, Q unitary and J real symmetric
    tridiagonal with diagonal a and off-diagonal b >= 0.

    Householder reduction, blocked by panels of PANEL columns as LAPACK
    ``zhetrd``/``zlatrd`` block it (Dongarra, Sorensen & Hammarling, J. Comput.
    Appl. Math. 27, 1989).  Reflector j, H_j = I - tau_j v_j v_j*, maps column
    j below the diagonal to a multiple of e_(j+1); applied to the trailing
    block B it is the rank-2 update B - v w* - w v*.  Within a panel these
    updates are deferred: column j and the product B v_j are taken from the
    block as it was at the panel's start and corrected by the panel's earlier
    pairs (v, w), and one rank-2 PANEL product applies them all at its end.
    A column already zero below its first subdiagonal entry gets H = I.  Q is
    accumulated from the last panel to the first, each panel as one block
    reflector I - V T V* in compact WY form (Schreiber & Van Loan, SIAM J. Sci.
    Stat. Comput. 10, 1989).  A diagonal phase scaling, folded into Q, makes
    the off-diagonal real.
    """
    A = 0.5 * (M + M.conj().T)
    d = A.shape[0]
    m = max(d - 2, 0)  # reflectors; v_j is zero above row j + 1
    V, tau = np.zeros((d, m), dtype=complex), np.zeros(m)
    a, e = np.empty(d), np.empty(max(d - 1, 0), dtype=complex)
    for j0 in range(0, m, PANEL):
        j1 = min(j0 + PANEL, m)
        # v_j and w_j side by side, so the panel's update (V W* + W V*) x
        # is Y (Ys* x) with Ys the same columns, each pair swapped
        Y = np.zeros((d, 2 * (j1 - j0)), dtype=complex)
        for j in range(j0, j1):
            k = 2 * (j - j0)
            Yk = Y[j:, :k]
            col = A[j:, j] - Yk @ _swapped(Yk[0].conj())
            a[j], x = col[0].real, col[1:]
            x0, tail = complex(x[0]), np.vdot(x[1:], x[1:]).real
            if tail == 0:  # the column is already tridiagonal: H_j = I, v_j = w_j = 0
                e[j] = x0
                continue
            norm = np.sqrt(tail + abs(x0) ** 2)
            s = x0 / abs(x0) if x0 != 0 else 1.0
            v = Y[j + 1:, k]
            v[:] = x
            v[0] += s * norm  # H_j x = -s |x| e_1, without cancellation
            e[j] = -s * norm
            tau[j] = t = 1.0 / (norm * (norm + abs(x0)))  # 2 / |v|^2
            Yk = Yk[1:]
            p = t * (A[j + 1:, j + 1:] @ v - Yk @ _swapped((v.conj() @ Yk).conj()))
            Y[j + 1:, k + 1] = p - (0.5 * t * np.vdot(v, p).real) * v
        V[:, j0:j1] = Y[:, 0::2]
        A[j1:, j1:] -= Y[j1:] @ _swapped(Y[j1:]).conj().T
    a[m:], e[m:] = A.diagonal()[m:].real, A.diagonal(-1)[m:]
    Q = np.eye(d, dtype=complex)
    for j0 in reversed(range(0, m, PANEL)):
        Vp = V[j0 + 1:, j0:j0 + PANEL]
        Qp = Q[j0 + 1:, j0 + 1:]
        Qp -= Vp @ (_wy_factor(Vp, tau[j0:j0 + PANEL]) @ (Vp.conj().T @ Qp))
    b = np.abs(e)
    unit = np.ones(d, dtype=complex)
    unit[1:] = np.divide(e, b, out=np.ones_like(e), where=b > 0)
    return Q * np.cumprod(unit), a, b


def _swapped(Y):
    """The columns (or entries) of Y with each pair (2i, 2i + 1) swapped."""
    return Y.reshape(*Y.shape[:-1], -1, 2)[..., ::-1].reshape(Y.shape)


def _wy_factor(V, tau):
    """Upper triangular T with H_1 H_2 ... H_k = I - V T V* for the reflectors
    H_i = I - tau_i v_i v_i* (LAPACK ``zlarft``, forward, columnwise)."""
    k = len(tau)
    T, gram = np.zeros((k, k), dtype=complex), V.conj().T @ V
    for i in range(k):
        T[i, i] = tau[i]
        T[:i, i] = -tau[i] * (T[:i, :i] @ gram[:i, i])
    return T


def _tridiagonal_resolvent_sum(a, b, zeta, weights) -> np.ndarray:
    """sum_k weights[k] (zeta[k] I - J)^{-1} for the real symmetric
    tridiagonal J = tridiag(b, a, b) and shifts with Im zeta > 0.

    Factor zeta I - J = L D L^T without pivoting: the pivots
    delta_i = (zeta - a_i) - b_(i-1)^2 / delta_(i-1) have
    Im delta_i >= Im zeta > 0, so none vanishes.  Then L^T G = D^{-1} L^{-1}
    gives the rows of G = (zeta I - J)^{-1} from the last one up:
    G_ij = (b_i / delta_i) G_(i+1)j for j > i, and G_ii follows from the
    symmetry of G.  Each row is added to the sum as it is made.
    """
    d = a.size
    delta = np.empty((d, zeta.size), dtype=complex)
    delta[0] = zeta - a[0]
    for i in range(1, d):
        delta[i] = (zeta - a[i]) - b[i - 1] ** 2 / delta[i - 1]
    ratio = np.zeros_like(delta)  # b_i / delta_i, and 0 past the last row
    ratio[:-1] = b[:, None] / delta[:-1]
    G = np.zeros((d + 1, zeta.size), dtype=complex)  # G[j] = G_ij over the nodes, j >= i
    X = np.zeros((d, d), dtype=complex)
    for i in range(d - 1, -1, -1):
        G[i + 1:] *= ratio[i]
        G[i] = 1.0 / delta[i] + ratio[i] * G[i + 1]
        X[i, i:] = G[i:d] @ weights
    return X + np.triu(X, 1).T


def oracle_projector(T, disc: Disc) -> np.ndarray:
    """Projector by eigendecomposition: sum of v v* over eigenvalues in the disc."""
    M = as_form(T)
    lam, V = np.linalg.eigh(M)
    _separation(lam, disc)
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
