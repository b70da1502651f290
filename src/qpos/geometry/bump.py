"""Boundary weight bump: verify the three positivity claims quantitatively.

Given a domain whose Levi form and weight Hessian share a rank n - q
subbundle of positive directions on the boundary, bump the weight by
delta0 * eps * chi(rho / eps) with a convex cutoff chi.  On the boundary the
bumped Hessian is

    H_eps = H_phi + delta0 * H_rho + (delta0 / eps) * chi''(0) * drho (x) drho-bar,

and for eps below  delta0 * chi''(0) * eta / (B1 + delta0 * B2)  three
claims hold at every boundary sample:

  (1) H_eps has at least n - q + 1 positive eigenvalues,
  (2) the restriction of H_eps to the holomorphic boundary tangent is
      strictly q-positive for the synthesized boundary metric h,
  (3) H_eps on the full tangent space is strictly q-positive for the
      extension g0 of h by the unit normal.

B1 and B2 bound |restricted trace| of the weight and rho Hessians over
q-planes (computed from extreme eigenvalue sums of both signs, so they are
valid two-sided bounds); eta is the largest mass of the normal component
below which q-frames still have positive trace, computed per sample from
the exact dual form  eta = sup_{mu > 0} (q-smallest eigenvalue sum of
A + mu * N) / mu  with A the boundary trace form and N the rank-one normal
form.  That dual value is the conservative limit of scanning frames by
candidate thresholds: any frame with normal mass below it has positive
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import BoundNotFound, QOutOfRange, QposError
from ..fields import FormField
from ..hermitian import congruence, pencil_eigvalsh, reduce_form, sign_counts
from ..metric_subbundle import synthesize_subbundle
from ..synthetic import random_g_orthonormal_frames
from ..two_forms import common_witnesses
from .domains import Domain
from .levi import BoundarySamples

CHI_SECOND_DERIVATIVE = 2.0
EPS0_SCALE = 0.1             # eps never exceeds EPS0_SCALE * domain.scale ...
THETA_SAFETY = 0.9           # ... and is THETA_SAFETY times the smaller bound
TRACE_CHECK_SAMPLES = 100    # samples and random q-frames per sample on which
TRACE_CHECK_FRAMES = 100     # the restricted-trace decomposition is checked


def chi(t):
    """Convex C^2 cutoff: 0 for t <= -1, (t + 1)^3 / 3 beyond.

    chi'(0) = 1 and chi''(0) = 2; nondecreasing and convex on all of R.
    """
    t = np.asarray(t, dtype=float)
    return np.where(t <= -1.0, 0.0, (t + 1.0) ** 3 / 3.0)


def chi_prime(t):
    t = np.asarray(t, dtype=float)
    return np.where(t <= -1.0, 0.0, (t + 1.0) ** 2)


def chi_double_prime(t):
    t = np.asarray(t, dtype=float)
    return np.where(t <= -1.0, 0.0, 2.0 * (t + 1.0))


@dataclass
class WeightBumpReport:
    n: int
    q: int
    delta0: float
    eta: float
    epsilon: float
    epsilon_bound: float
    B1: float
    B2: float
    kappa: float
    claim1_pass: np.ndarray
    claim2_min: np.ndarray
    claim3_min: np.ndarray
    trace_identity_max_err: float
    large_eps_claim3_failures: int
    subbundle_constants: dict = dc_field(default_factory=dict)
    boundary_metrics: np.ndarray = dc_field(repr=False, default=None)
    g0: np.ndarray = dc_field(repr=False, default=None)

    @property
    def all_claims_pass(self) -> bool:
        return (bool(np.all(self.claim1_pass))
                and float(np.min(self.claim2_min)) > 0
                and float(np.min(self.claim3_min)) > 0)


def _common_positive_subbundle(Lv, Hv, rank: int) -> np.ndarray:
    """Per-sample rank-``rank`` frames on which both forms are positive definite.

    Supported: full-rank (both forms PD on the whole kernel) and rank one
    (one exact common-direction decision over all samples).  Intermediate
    ranks would need a genuine subbundle optimizer and are rejected.
    """
    n_samples, d, _ = Lv.shape
    if rank == d:
        if min(np.linalg.eigvalsh(F)[:, 0].min() for F in (Lv, Hv)) <= 0:
            raise QposError("boundary Levi form or weight Hessian is not positive definite "
                            "on the full tangent")
        return np.broadcast_to(np.eye(d, dtype=complex), (n_samples, d, d)).copy()
    if rank == 1:
        return common_witnesses(Lv, Hv, range(n_samples))[:, :, None]
    raise QposError(f"common positive subbundle of rank {rank} (1 < rank < {d}) "
                    "is not constructed from raw forms")


def _find_delta0(Mphi: np.ndarray, Mrho: np.ndarray, need: int,
                 floor: float = 1e-8) -> float:
    """Largest bisected delta0 with >= ``need`` positive eigenvalues kept.

    The count must hold for the whole range [0, delta0]; the bisected
    threshold is halved for safety and re-verified on a grid.  The search is
    capped at the norm ratio of the two Hessians: past that point the rho
    term is no longer subordinate to the weight, and when the count never
    fails any positive delta0 is admissible, so the cap itself is used.
    """
    def ok(delta):
        return bool(np.all(sign_counts(np.linalg.eigvalsh(Mphi + delta * Mrho))[0] >= need))

    if not ok(0.0):
        raise BoundNotFound("weight Hessian lacks the required positive eigenvalues")
    cap = float(np.max(np.linalg.norm(Mphi, axis=(1, 2)))
                / max(np.max(np.linalg.norm(Mrho, axis=(1, 2))), 1e-30))
    if ok(cap):
        delta0 = 0.5 * cap
        if all(ok(d) for d in np.linspace(0.0, delta0, 9)[1:]):
            return float(delta0)
    hi = cap
    while not ok(hi) and hi > floor:
        hi *= 0.5
    if hi <= floor:
        raise BoundNotFound("delta0 collapsed below 1e-8")
    lo = hi
    hi = 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    delta0 = 0.5 * lo
    for _ in range(10):
        if delta0 < floor:
            raise BoundNotFound("delta0 collapsed below 1e-8")
        if all(ok(d) for d in np.linspace(0.0, delta0, 9)[1:]):
            return float(delta0)
        delta0 *= 0.5
    raise BoundNotFound("delta0 verification failed on the subdivision grid")


def _eta_dual(A: np.ndarray, Nrm: np.ndarray, q: int, floor: float = 1e-8) -> float:
    """Per-sample sup over mu of (q-smallest eigenvalue sum of A + mu N) / mu.

    A and N are stacks in g0-orthonormal coordinates, N PSD of rank one.
    Samples whose trace form is already strictly q-positive impose no
    constraint (eta infinite there); the others are searched together.
    """
    def ratio(idx, mu):
        lam = np.linalg.eigvalsh(A[idx] + mu[..., None, None] * Nrm[idx])
        return np.sum(lam[..., :q], axis=-1) / mu

    lam0 = np.linalg.eigvalsh(A)
    idx = np.flatnonzero(np.sum(lam0[:, :q], axis=1) <= 0)
    if not idx.size:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(lam0))))
    mus = np.geomspace(1e-6 * scale, 1e9 * scale, 160)
    j = np.argmax(ratio(idx[:, None], mus), axis=1)
    lo = mus[np.maximum(j - 1, 0)]
    hi = mus[np.minimum(j + 1, len(mus) - 1)]
    for _ in range(80):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        left = ratio(idx, m1) < ratio(idx, m2)
        lo = np.where(left, m1, lo)
        hi = np.where(left, hi, m2)
    eta = 0.95 * float(np.min(ratio(idx, 0.5 * (lo + hi))))
    if eta < floor:
        raise BoundNotFound(f"eta = {eta:.3e} below the 1e-8 floor")
    return eta


def weight_bump(domain: Domain, q: int, samples: BoundarySamples,
                seed: int = 0) -> WeightBumpReport:
    """Compute (delta0, eta, eps) and verify the three claims at every sample."""
    n = domain.n
    if not 1 <= q <= n - 1:
        raise QOutOfRange(f"q = {q} not in [1, {n - 1}]")
    n_samp = len(samples)
    d = n - 1

    frames, normals, ws = samples.frame, samples.normal, samples.w
    Mrho = domain.rho_hessian(samples.z, samples.chart)
    Mphi = domain.weight_hessian(samples.z, samples.chart)
    Lv, Hv = reduce_form(Mrho, frames), reduce_form(Mphi, frames)

    # boundary metric h from the common positive subbundle of both forms
    V = _common_positive_subbundle(Lv, Hv, n - q)
    kernel_field = FormField.from_stacks(range(n_samp), {"levi": Lv, "hess": Hv}, subspace=V)
    h, certs, consts = synthesize_subbundle(kernel_field, ["levi", "hess"], q)
    kappa = consts["levi"].kappa

    # g0: h on the kernel, the unit normal orthogonal and unit
    F = np.concatenate([frames, normals[:, :, None]], axis=2)
    blocks = np.zeros((n_samp, n, n), dtype=complex)
    blocks[:, :d, :d] = h
    blocks[:, d, d] = 1.0
    G0 = F @ blocks @ np.conj(np.swapaxes(F, -1, -2))
    G0 = 0.5 * (G0 + np.conj(np.swapaxes(G0, -1, -2)))

    delta0 = _find_delta0(Mphi, Mrho, n - q + 1)

    def q_sums(M, G, part=slice(None, q)):
        return np.sum(pencil_eigvalsh(M, G)[:, part], axis=1)

    # two-sided trace bounds over q-planes, relative to g0
    B1, B2 = (float(max(np.max(q_sums(M, G0, slice(-q, None))), np.max(-q_sums(M, G0))))
              for M in (Mphi, Mrho))

    # eta from the dual form, in g0-orthonormal coordinates
    W0, _ = congruence(G0)
    A_form = Mphi + delta0 * Mrho
    Nrm_form = np.conj(ws)[:, :, None] * ws[:, None, :]
    eta = _eta_dual(reduce_form(A_form, W0), reduce_form(Nrm_form, W0), q)

    chi2 = float(chi_double_prime(0.0))
    denom = B1 + delta0 * B2
    eps_bound = float("inf") if denom <= 0 else delta0 * chi2 * eta / denom
    epsilon = THETA_SAFETY * min(eps_bound, EPS0_SCALE * domain.scale)

    def bumped(eps):
        return A_form + (delta0 / eps) * chi2 * Nrm_form

    M_eps = bumped(epsilon)
    claim1 = sign_counts(np.linalg.eigvalsh(M_eps))[0] >= n - q + 1
    claim2 = q_sums(Hv + delta0 * Lv, h)
    claim3 = q_sums(M_eps, G0)

    # restricted-trace decomposition on random g0-orthonormal frames
    sel = np.linspace(0, n_samp - 1, min(TRACE_CHECK_SAMPLES, n_samp)).astype(int)
    T = random_g_orthonormal_frames(np.random.default_rng(seed), G0[sel],
                                    TRACE_CHECK_FRAMES, q)

    def trace(M):
        return np.einsum("snki,skl,snli->sn", T.conj(), M[sel], T).real

    direct = trace(M_eps)
    mass = np.sum(np.abs(np.einsum("sk,snkj->snj", ws[sel], T)) ** 2, axis=-1)
    recomposed = trace(Mphi) + delta0 * trace(Mrho) + (delta0 / epsilon) * chi2 * mass
    max_err = float(np.max(np.abs(direct - recomposed) / np.maximum(1.0, np.abs(direct))))

    # observational negative control at 10x the bound
    large_fail = (int(np.sum(q_sums(bumped(10.0 * eps_bound), G0) <= 0))
                  if np.isfinite(eps_bound) else 0)

    return WeightBumpReport(
        n=n, q=q, delta0=delta0, eta=eta, epsilon=float(epsilon),
        epsilon_bound=float(eps_bound), B1=B1, B2=B2, kappa=float(kappa),
        claim1_pass=claim1, claim2_min=claim2, claim3_min=claim3,
        trace_identity_max_err=max_err, large_eps_claim3_failures=large_fail,
        subbundle_constants={name: {"A1": c.A1, "A2": c.A2, "A3": c.A3, "C": c.C}
                             for name, c in consts.items()},
        boundary_metrics=h, g0=G0)
