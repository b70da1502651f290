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
valid two-sided bounds).  The two remaining numbers come from exact rules.

delta0.  Let V hold the top ``need = n - q + 1`` eigenvectors of H_phi and D
their (positive) eigenvalues, and R = D^{-1/2} V* H_rho V D^{-1/2}.  Then
V* (H_phi + delta H_rho) V = D^{1/2} (I + delta R) D^{1/2}, which is positive
definite while delta * lambda_max(-R) < 1, and by the Courant-Fischer min-max
theorem a form positive definite on a ``need``-dimensional subspace has at
least ``need`` positive eigenvalues.  With r the largest lambda_max(-R) over
the samples, every delta in [0, 1/r) keeps the count (all delta >= 0 when
r <= 0); delta0 is half the smaller of 1/r and the norm ratio
max ||H_phi|| / max ||H_rho||.  The condition is sufficient, not necessary:
the count may survive past 1/r.

eta.  In g0-orthonormal coordinates the trace form is A = H_phi + delta0 H_rho
and the normal form is u u* (u the normal covector).  A q-frame with normal
mass m has trace >= phi(mu) - mu m for every mu > 0, where
phi(mu) = sum_{j <= q} lambda_j(A + mu u u*), so it has positive trace once
m < sup_mu phi(mu) / mu.  phi is a minimum of affine functions of mu, hence
concave, and by Hellmann-Feynman phi'(mu) = sum_{j <= q} |y_j* u|^2 over the
q lowest eigenvectors y_j.  So g(mu) = phi - mu phi' is nondecreasing
(g' = -mu phi'' >= 0), and phi / mu, whose derivative is -g / mu^2, rises
exactly while g < 0 (the quasiconcave ratio of Dinkelbach, 1967).  The
supremum is therefore found by bisecting the sign of g in
t = mu / (s + mu) in (0, 1), s = max(1, max |lambda(A)|), to float
resolution; eta is ETA_FACTOR times the largest ratio met, minimized over
the samples whose trace form is not already strictly q-positive (the others
impose no constraint).

The report's trace_identity_max_err checks the decomposition of the bumped
trace, Tr_T H_eps = Tr_T H_phi + delta0 Tr_T H_rho + (delta0 / eps) chi''(0) m,
on TRACE_CHECK_FRAMES random g0-orthonormal q-frames T (Haar, drawn from
--seed) at each of TRACE_CHECK_SAMPLES samples: the four forms are stacked
and multiplied with the columns of all frames of a sample in one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import BoundNotFound, QOutOfRange, QposError
from ..fields import FormField
from ..hermitian import congruence, q_margins, q_sums, reduce_form, sign_counts
from ..metric_subbundle import synthesize_subbundle
from ..synthetic import random_g_orthonormal_frames
from ..two_forms import common_witnesses
from .domains import Domain
from .levi import BoundarySamples

EPS0_SCALE = 0.1             # eps never exceeds EPS0_SCALE * domain.scale ...
THETA_SAFETY = 0.9           # ... and is THETA_SAFETY times the smaller bound
TRACE_CHECK_SAMPLES = 100    # samples and random q-frames per sample on which
TRACE_CHECK_FRAMES = 100     # the restricted-trace decomposition is checked
BOUND_FLOOR = 1e-8           # delta0 or eta below it: BoundNotFound
ETA_FACTOR = 0.95            # eta is this fraction of the exact dual value
ETA_STEPS = 53               # bisection steps in t: float resolution


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
    """The bump's constants and per-sample claim checks, under the names of the
    ``geometry bump`` report: the report is this record less ``g0`` (h extended
    by the unit normal), with an infinite ``eta`` or ``epsilon_bound`` as "inf"."""

    delta0: float
    eta: float
    epsilon: float
    epsilon_bound: float
    B1: float
    B2: float
    kappa: float
    claim1_pass: np.ndarray
    claim2_min_sums: np.ndarray
    claim3_min_sums: np.ndarray
    trace_identity_max_err: float
    large_eps_claim3_failures: int
    all_claims_pass: bool      # claims 2 and 3 by the rule of hermitian.q_margins
    subbundle_constants: dict
    g0: np.ndarray = dc_field(repr=False)


def _common_positive_subbundle(Lv, Hv, rank: int) -> np.ndarray:
    """Per-sample rank-``rank`` frames on which both forms are positive definite.

    Supported: full rank (the identity; the A1 check of ``compute_constants``
    decides it, NotPositiveOnV naming a form and sample) and rank one (one
    exact common-direction decision over all samples).  Intermediate ranks
    would need a genuine subbundle optimizer and are rejected.
    """
    n_samples, d, _ = Lv.shape
    if rank == d:
        return np.broadcast_to(np.eye(d, dtype=complex), (n_samples, d, d))
    if rank == 1:
        return common_witnesses(Lv, Hv, range(n_samples))[:, :, None]
    raise QposError(f"common positive subbundle of rank {rank} (1 < rank < {d}) "
                    "is not constructed from raw forms")


def _find_delta0(Mphi: np.ndarray, Mrho: np.ndarray, need: int) -> float:
    """delta0 = min(cap, 1 / r) / 2 from one eigensolve of the weight Hessians.

    r is the largest lambda_max(-R) of the compressions
    R = D^{-1/2} V* Mrho V D^{-1/2} to the top ``need`` eigenvectors V (with
    eigenvalues D) of Mphi, and cap the norm ratio of the two Hessians: past
    it the rho term is no longer subordinate to the weight.  Every delta in
    [0, delta0] keeps >= ``need`` positive eigenvalues (module docstring);
    the condition is sufficient, not necessary.
    """
    lam, Y = np.linalg.eigh(Mphi)
    if not np.all(sign_counts(lam)[0] >= need):
        raise BoundNotFound("weight Hessian lacks the required positive eigenvalues")
    R = reduce_form(Mrho, Y[:, :, -need:] / np.sqrt(lam[:, None, -need:]))
    r = float(np.max(-np.linalg.eigvalsh(R)[:, 0]))
    cap = float(np.max(np.linalg.norm(Mphi, axis=(1, 2)))
                / max(np.max(np.linalg.norm(Mrho, axis=(1, 2))), 1e-30))
    delta0 = 0.5 * min(cap, 1.0 / r if r > 0 else np.inf)
    if delta0 < BOUND_FLOOR:
        raise BoundNotFound(f"delta0 collapsed below {BOUND_FLOOR:g}")
    return float(delta0)


def _eta_dual(A: np.ndarray, u: np.ndarray, q: int) -> float:
    """ETA_FACTOR times the smallest per-sample sup over mu of phi(mu) / mu.

    phi(mu) is the q-smallest eigenvalue sum of A + mu u u*, with A and u a
    stack of forms and vectors in g0-orthonormal coordinates.  Samples whose
    trace form is already strictly q-positive impose no constraint (eta
    infinite there); the others bisect the sign of phi - mu phi' together,
    one stacked eigensolve per step (module docstring).
    """
    lam0 = np.linalg.eigvalsh(A)
    idx = np.flatnonzero(np.sum(lam0[:, :q], axis=1) <= 0)
    if not idx.size:
        return float("inf")
    A, u = A[idx], u[idx]
    N = u[:, :, None] * np.conj(u)[:, None, :]
    s = np.maximum(1.0, np.max(np.abs(lam0[idx]), axis=1))
    lo, hi, best = np.zeros(idx.size), np.ones(idx.size), np.full(idx.size, -np.inf)
    for _ in range(ETA_STEPS):
        t = 0.5 * (lo + hi)
        mu = s * t / (1.0 - t)
        lam, Y = np.linalg.eigh(A + mu[:, None, None] * N)
        phi = np.sum(lam[:, :q], axis=1)
        dphi = np.sum(np.abs(np.sum(np.conj(Y[:, :, :q]) * u[:, :, None], axis=1)) ** 2, axis=1)
        best = np.maximum(best, phi / mu)
        rising = phi - mu * dphi < 0
        lo, hi = np.where(rising, t, lo), np.where(rising, hi, t)
    eta = ETA_FACTOR * float(np.min(best))
    if eta < BOUND_FLOOR:
        raise BoundNotFound(f"eta = {eta:.3e} below the {BOUND_FLOOR:g} floor")
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
    h, _, consts = synthesize_subbundle(kernel_field, ["levi", "hess"], q)
    kappa = consts["levi"].kappa

    # g0: h on the kernel, the unit normal orthogonal and unit
    F = np.concatenate([frames, normals[:, :, None]], axis=2)
    blocks = np.zeros((n_samp, n, n), dtype=complex)
    blocks[:, :d, :d] = h
    blocks[:, d, d] = 1.0
    G0 = F @ blocks @ np.conj(np.swapaxes(F, -1, -2))
    G0 = 0.5 * (G0 + np.conj(np.swapaxes(G0, -1, -2)))

    delta0 = _find_delta0(Mphi, Mrho, n - q + 1)
    W0, _ = congruence(G0)  # the one factorization of G0

    # two-sided trace bounds over q-planes, relative to g0
    B1, B2 = (float(max(np.max(high), np.max(-low)))
              for low, high in (q_sums(M, G0, q, W0) for M in (Mphi, Mrho)))

    # eta from the dual form, in g0-orthonormal coordinates
    A_form = Mphi + delta0 * Mrho
    Nrm_form = np.conj(ws)[:, :, None] * ws[:, None, :]
    u = np.conj(np.swapaxes(W0, 1, 2) @ ws[:, :, None])[:, :, 0]   # W0* conj(w)
    eta = _eta_dual(reduce_form(A_form, W0), u, q)

    chi2 = float(chi_double_prime(0.0))
    denom = B1 + delta0 * B2
    eps_bound = float("inf") if denom <= 0 else delta0 * chi2 * eta / denom
    epsilon = THETA_SAFETY * min(eps_bound, EPS0_SCALE * domain.scale)

    def bumped(eps):
        return A_form + (delta0 / eps) * chi2 * Nrm_form

    M_eps = bumped(epsilon)
    claim1 = sign_counts(np.linalg.eigvalsh(M_eps))[0] >= n - q + 1
    claim2, margin2 = q_margins(Hv + delta0 * Lv, h, q)
    claim3, margin3 = q_margins(M_eps, G0, q, W0)
    all_pass = bool(claim1.all() and (margin2 > 0).all() and (margin3 > 0).all())

    # restricted-trace decomposition on random g0-orthonormal frames: the traces of
    # M_eps, Mphi, Mrho and the normal mass (the trace of Nrm_form) from one product
    sel = np.linspace(0, n_samp - 1, min(TRACE_CHECK_SAMPLES, n_samp)).astype(int)
    T = random_g_orthonormal_frames(np.random.default_rng(seed), G0[sel],
                                    TRACE_CHECK_FRAMES, q, W0[sel])
    cols = np.moveaxis(T, -3, -1).reshape(len(sel), 1, n, -1)  # (s, 1, n, q * frames)
    forms = np.stack([M[sel] for M in (M_eps, Mphi, Mrho, Nrm_form)], axis=1)
    traces = np.sum((np.conj(cols) * (forms @ cols)).real, axis=-2).reshape(len(sel), 4, q, -1)
    direct, phi, rho, mass = np.moveaxis(np.sum(traces, axis=-2), 1, 0)
    recomposed = phi + delta0 * rho + (delta0 / epsilon) * chi2 * mass
    max_err = float(np.max(np.abs(direct - recomposed) / np.maximum(1.0, np.abs(direct))))

    # observational negative control at 10x the bound
    large_fail = (int(np.sum(~(q_margins(bumped(10.0 * eps_bound), G0, q, W0)[1] > 0)))
                  if np.isfinite(eps_bound) else 0)

    return WeightBumpReport(
        delta0=delta0, eta=eta, epsilon=float(epsilon),
        epsilon_bound=float(eps_bound), B1=B1, B2=B2, kappa=float(kappa),
        claim1_pass=claim1, claim2_min_sums=claim2, claim3_min_sums=claim3,
        trace_identity_max_err=max_err, large_eps_claim3_failures=large_fail,
        all_claims_pass=all_pass,
        subbundle_constants={name: {"A1": c.A1, "A2": c.A2, "A3": c.A3, "C": c.C}
                             for name, c in consts.items()},
        g0=G0)
