"""Boundary sampling, holomorphic tangent frames, Levi forms, and Z(q).

Boundary points are produced by Newton projection of ambient seeds onto
{rho = 0} along the real gradient.  At each sample the kernel of the
(1,0)-differential of rho is completed to a unitary frame; the Levi form is
the complex Hessian of rho restricted to that kernel.  The Z(q) check
classifies every sample by the Levi inertia and requires one branch per
connected component (components of a k-nearest-neighbor graph on a
chart-free embedding, labelled by breadth-first search).  The metric
pipeline then runs the single-form synthesis on the Levi field of each
component, with the sign and the target q-sum dictated by the branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BoundNotFound, FrameInvalid, QOutOfRange, ZqViolated
from ..fields import FormField
from ..hermitian import reduce_form, row_norm, sign_counts
from ..metric_single import synthesize_single
from .domains import Domain

MIN_GRADIENT = 1e-6
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 40
MAX_ROUNDS = 60
KNN = 8


@dataclass(frozen=True)
class BoundarySamples:
    """Boundary samples as stacks: row i of every array belongs to sample i."""

    chart: np.ndarray        # (m,) index into domain.charts
    z: np.ndarray            # (m, n) chart coordinates
    w: np.ndarray            # (m, n) d rho / d z covectors
    frame: np.ndarray        # (m, n, n-1) kernel bases, Euclidean-orthonormal
    normal: np.ndarray       # (m, n) unit vectors transverse to the kernels
    embedding: np.ndarray    # (m, e) chart-free real embeddings for adjacency

    @classmethod
    def at(cls, domain: Domain, z, chart) -> "BoundarySamples":
        """Covectors, frames and embeddings of boundary points ``z`` in charts ``chart``."""
        w = domain.rho_dz(z, chart)
        frame, normal = kernel_frame(w)
        return cls(chart=chart, z=z, w=w, frame=frame, normal=normal,
                   embedding=domain.embed(z, chart))

    def __len__(self):
        return len(self.z)


def newton_project(domain: Domain, z, chart):
    """Project a stack of seeds onto {rho = 0} along the gradient, all moving seeds at once.

    Returns ``(z, ok)``: the iterates after at most NEWTON_MAX_ITER steps and
    the mask of seeds that converged with |d rho| >= MIN_GRADIENT.
    """
    z = np.array(z, dtype=complex)
    chart = np.asarray(chart)
    ok = np.zeros(len(z), dtype=bool)
    active = np.arange(len(z))
    tol = NEWTON_TOL * max(1.0, domain.scale ** 2)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        za, ca = z[active], chart[active]
        r = domain.rho(za, ca)
        w = domain.rho_dz(za, ca)
        g2 = np.sum(np.abs(w) ** 2, axis=-1)
        steep = g2 >= MIN_GRADIENT ** 2
        done = np.abs(r) <= tol
        ok[active[done & steep]] = True
        move = ~done & steep
        z[active[move]] = za[move] - r[move, None] * np.conj(w[move]) / (2.0 * g2[move, None])
        active = active[move]
    return z, ok


def kernel_frame(w) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of {X : sum w_j X_j = 0} plus the unit transverses.

    The kernel of the (1,0)-differential is the Euclidean orthocomplement of
    conj(w); the transverse vector is conj(w)/|w|.  ``w`` is one covector or
    a stack; the frames come from one stacked SVD.
    """
    w = np.asarray(w, dtype=complex)
    size = row_norm(w)
    nu = np.conj(w) / size[..., None]
    L = np.linalg.svd(nu[..., None])[0][..., 1:]
    if np.any(np.max(np.abs(np.einsum("...j,...jk->...k", w, L)), axis=-1) > 1e-10 * size):
        raise FrameInvalid("kernel frame does not annihilate d rho")
    return L, nu


def sample_boundary(domain: Domain, count: int, seed: int = 0) -> BoundarySamples:
    """Newton-projected boundary samples with valid frames.

    Draws ``count`` seed points per round, for at most MAX_ROUNDS rounds,
    and keeps the converged ones in seed order until ``count`` samples have
    |d rho| >= 1e-6.
    """
    rng = np.random.default_rng(seed)
    chart, z = np.zeros(0, dtype=int), np.zeros((0, domain.n), dtype=complex)
    for _ in range(MAX_ROUNDS):
        if len(z) == count:
            break
        seed_chart, seed_z = domain.seed_points(rng, count)
        projected, ok = newton_project(domain, seed_z, seed_chart)
        keep = np.flatnonzero(ok)[: count - len(z)]
        chart, z = np.append(chart, seed_chart[keep]), np.concatenate([z, projected[keep]])
    if len(z) < count:
        raise BoundNotFound(f"only {len(z)} of {count} boundary samples converged")
    return BoundarySamples.at(domain, z, chart)


def adjacency_components(X):
    """Connected components of the symmetric KNN-nearest-neighbor graph.

    ``X`` holds one embedding per row.  Returns ``(labels, n_components)``;
    components are numbered in order of their lowest sample index.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    k = min(KNN, n - 1)
    A = np.zeros((n, n), dtype=bool)
    if k > 0:
        nbr = np.argpartition(d2, k - 1, axis=1)[:, :k]
        A[np.arange(n)[:, None], nbr] = True
    A |= A.T
    labels = np.full(n, -1)
    n_comp = 0
    while np.any(labels < 0):  # breadth-first search from the lowest unlabelled sample
        frontier = np.arange(n) == np.argmax(labels < 0)
        while frontier.any():
            labels[frontier] = n_comp
            frontier = A[frontier].any(axis=0) & (labels < 0)
        n_comp += 1
    return labels, n_comp


def levi_forms(domain: Domain, samples: BoundarySamples) -> np.ndarray:
    """The (n_samples, n-1, n-1) stack of Levi forms: the complex Hessian of rho
    restricted to each sample's holomorphic tangent frame."""
    return reduce_form(domain.rho_hessian(samples.z, samples.chart), samples.frame)


@dataclass
class ZqReport:
    n: int
    q: int
    n_plus: np.ndarray
    n_minus: np.ndarray
    branch: np.ndarray       # 'i' or 'ii' per sample
    component: np.ndarray    # component label per sample
    component_branch: dict   # label -> branch
    levi: np.ndarray         # (n_samples, n-1, n-1) Levi forms


def zq_check(domain: Domain, q: int, samples: BoundarySamples) -> ZqReport:
    """Classify each boundary sample by the Levi inertia.

    Branch (i): at least n - q positive eigenvalues; branch (ii): at least
    q + 1 negative ones.  Samples meeting neither raise ZqViolated, as does a
    component mixing the two branches.  Raises QOutOfRange unless
    1 <= q <= n - 1.
    """
    n = domain.n
    if not 1 <= q <= n - 1:
        raise QOutOfRange(f"q = {q} not in [1, {n - 1}]")
    levis = levi_forms(domain, samples)
    n_plus, n_minus = sign_counts(np.linalg.eigvalsh(levis))
    branch = np.where(n_plus >= n - q, "i", np.where(n_minus >= q + 1, "ii", "")).astype(object)
    bad = np.where(branch == "")[0]
    if bad.size:
        i = int(bad[0])
        raise ZqViolated(i, f"Levi inertia ({n_plus[i]}, {n_minus[i]}) fits neither branch")
    labels, n_comp = adjacency_components(samples.embedding)
    component_branch = {}
    for c in range(n_comp):
        branches = set(branch[labels == c])
        if len(branches) != 1:
            i = int(np.where(labels == c)[0][0])
            raise ZqViolated(i, f"component {c} mixes branches {sorted(branches)}")
        component_branch[c] = branches.pop()
    return ZqReport(n=n, q=q, n_plus=n_plus, n_minus=n_minus, branch=branch,
                    component=labels, component_branch=component_branch, levi=levis)


def zq_metric_pipeline(domain: Domain, q: int, samples: BoundarySamples,
                       theta: float = 0.1):
    """Synthesize boundary metrics making the (signed) Levi field q-sum positive.

    Per component: branch (i) runs the single-form synthesis on the Levi
    field with target sum length q; branch (ii) on its negative with target
    n - q - 1.  Returns ``(report, metrics, certificates)`` with ``metrics``
    of shape (n_samples, n-1, n-1) and one certificate per component.
    """
    report = zq_check(domain, q, samples)
    d = domain.n - 1
    metrics = np.empty((len(samples), d, d), dtype=complex)
    certificates = {}
    for c, br in report.component_branch.items():
        idx = np.where(report.component == c)[0]
        sign, q_tilde = (1.0, q) if br == "i" else (-1.0, domain.n - q - 1)
        field = FormField.from_stacks(idx.tolist(), {"S": sign * report.levi[idx]})
        mets, cert = synthesize_single(field, "S", q_tilde, theta=theta)
        metrics[idx] = mets
        certificates[c] = cert
    return report, metrics, certificates
