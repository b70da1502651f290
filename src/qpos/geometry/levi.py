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
from ..fields import FieldPoint, FormField
from ..hermitian import reduce_form, sign_counts
from ..metric_single import synthesize_single
from .domains import Domain

MIN_GRADIENT = 1e-6
NEWTON_TOL = 1e-12
KNN = 8


@dataclass
class BoundarySample:
    chart: object
    z: np.ndarray            # chart coordinates
    w: np.ndarray            # d rho / d z covector
    frame: np.ndarray        # (n, n-1) kernel basis, Euclidean-orthonormal
    normal: np.ndarray       # unit vector transverse to the kernel
    embedding: np.ndarray    # chart-free real embedding for adjacency


def newton_project(domain: Domain, z, chart, max_iter: int = 40):
    """Project a seed onto {rho = 0} along the gradient; None on failure."""
    z = np.asarray(z, dtype=complex)
    for _ in range(max_iter):
        r = domain.rho(z, chart)
        if abs(r) <= NEWTON_TOL * max(1.0, domain.scale ** 2):
            w = domain.rho_dz(z, chart)
            if np.linalg.norm(w) < MIN_GRADIENT:
                return None
            return z
        w = domain.rho_dz(z, chart)
        g2 = float(np.sum(np.abs(w) ** 2))
        if g2 < MIN_GRADIENT ** 2:
            return None
        z = z - r * np.conj(w) / (2.0 * g2)
    return None


def kernel_frame(w) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of {X : sum w_j X_j = 0} plus the unit transverse.

    The kernel of the (1,0)-differential is the Euclidean orthocomplement of
    conj(w); the transverse vector is conj(w)/|w|.
    """
    w = np.asarray(w, dtype=complex)
    nu = np.conj(w) / np.linalg.norm(w)
    U, _, _ = np.linalg.svd(nu[:, None])
    L = U[:, 1:]
    if np.max(np.abs(w @ L)) > 1e-10 * np.linalg.norm(w):
        raise FrameInvalid("kernel frame does not annihilate d rho")
    return L, nu


def sample_boundary(domain: Domain, count: int, seed: int = 0,
                    max_rounds: int = 60) -> list[BoundarySample]:
    """Newton-projected boundary samples with valid frames.

    Draws seed points in rounds until ``count`` samples converged with
    |d rho| >= 1e-6.
    """
    rng = np.random.default_rng(seed)
    samples: list[BoundarySample] = []
    rounds = 0
    while len(samples) < count and rounds < max_rounds:
        rounds += 1
        for chart, z0 in domain.seed_points(rng, count):
            z = newton_project(domain, z0, chart)
            if z is None:
                continue
            w = domain.rho_dz(z, chart)
            L, nu = kernel_frame(w)
            samples.append(BoundarySample(chart=chart, z=z, w=w, frame=L, normal=nu,
                                          embedding=domain.embed(z, chart)))
            if len(samples) == count:
                break
    if len(samples) < count:
        raise BoundNotFound(f"only {len(samples)} of {count} boundary samples converged")
    return samples


def adjacency_components(samples: list[BoundarySample]):
    """Connected components of the symmetric KNN-nearest-neighbor graph.

    Returns ``(labels, n_components)``; components are numbered in order of
    their lowest sample index.
    """
    X = np.stack([s.embedding for s in samples])
    n = len(samples)
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
    for start in range(n):
        if labels[start] >= 0:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        while frontier.any():
            labels[frontier] = n_comp
            frontier = A[frontier].any(axis=0) & (labels < 0)
        n_comp += 1
    return labels, n_comp


def levi_form(domain: Domain, sample: BoundarySample) -> np.ndarray:
    """The complex Hessian of rho restricted to the holomorphic tangent frame."""
    return reduce_form(domain.rho_hessian(sample.z, sample.chart), sample.frame)


def levi_forms(domain: Domain, samples: list[BoundarySample]) -> np.ndarray:
    """The (n_samples, n-1, n-1) stack of Levi forms."""
    return np.stack([levi_form(domain, s) for s in samples])


def boundary_weight_hessian(domain: Domain, sample: BoundarySample) -> np.ndarray:
    """Full-space complex Hessian of the weight at a boundary sample."""
    return domain.weight_hessian(sample.z, sample.chart)


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


def zq_check(domain: Domain, q: int, samples: list[BoundarySample]) -> ZqReport:
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
    labels, n_comp = adjacency_components(samples)
    component_branch = {}
    for c in range(n_comp):
        branches = set(branch[labels == c])
        if len(branches) != 1:
            i = int(np.where(labels == c)[0][0])
            raise ZqViolated(i, f"component {c} mixes branches {sorted(branches)}")
        component_branch[c] = branches.pop()
    return ZqReport(n=n, q=q, n_plus=n_plus, n_minus=n_minus, branch=branch,
                    component=labels, component_branch=component_branch, levi=levis)


def zq_metric_pipeline(domain: Domain, q: int, samples: list[BoundarySample],
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
        pts = [FieldPoint(id=int(i), forms={"S": sign * report.levi[i]}) for i in idx]
        field = FormField(dim=d, points=pts)
        mets, cert = synthesize_single(field, "S", q_tilde, theta=theta)
        metrics[idx] = mets
        certificates[c] = cert
    return report, metrics, certificates
