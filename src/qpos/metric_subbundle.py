"""Penalty metrics from a subbundle of common positive directions.

Given forms that are positive definite on a rank d - q + 1 subbundle V, a
single metric making all of them strictly q-positive is obtained by
inflating lengths transverse to V:

    h(z, w) = gamma(z, w) + kappa * gamma(P_perp z, P_perp w),

where P_perp is the gamma-orthogonal projection onto the complement of V.
The required penalty kappa is controlled by three constants per form:

    A1 = min over points of the smallest eigenvalue of the restriction to V,
    A2 = max over points of the largest |eigenvalue| of the restriction to
         the complement,
    A3 = max over points of the norm of the off-diagonal block coupling V
         and its complement,

and any C with  A1 - q A2 / (1 + C) - 2 q A3 / sqrt(1 + C) > 0  works.  The
exact block-norm A3 is used (it is the supremum of |H(z, w)| over unit pairs
z in V, w in V-perp); the coarser bound max(|lam_min|, |lam_max|) of the
full form is computed alongside as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BasisNotOrthonormal, NotPositiveOnV, QposError
from .fields import FormField, certify_forms, require_passed
from .hermitian import congruence, pencil_eigvalsh

ETA_MARGIN = 0.05
# Looser than qpositivity.TAU_ORTH (1e-10): here the basis only shapes the
# penalty metric h, whose certificates are then computed from h itself, so a
# Gram defect moves A1-A3 by about its size times ||H||, far inside ETA_MARGIN,
# and cannot pass a failing point; qpositivity's traces use the basis as
# orthonormal, so its defect enters their values directly.
TAU_ORTH = 1e-8


@dataclass(frozen=True)
class PenaltyConstants:
    """Constants controlling the transverse penalty for one form."""

    A1: float
    A2: float
    A3: float
    C: float
    kappa: float
    q: int

    def margin(self) -> float:
        """Left side of the penalty inequality at kappa = C; positive by construction."""
        return self.A1 - self.q * self.A2 / (1.0 + self.C) \
            - 2.0 * self.q * self.A3 / np.sqrt(1.0 + self.C)


def _adapted_frames(field: FormField, gamma: np.ndarray, q: int):
    """Per-point gamma-orthonormal frames [B_V | B_W], batched, and the
    congruence W of gamma (W* gamma W = I) that completes them.

    Validates that the stored subspace bases are gamma-orthonormal of rank
    d - q + 1 and completes them with the gamma-orthogonal complement.
    """
    k = field.dim - q + 1
    BV = field.subspace
    if BV is None or BV.shape[-1] != k:
        raise QposError(f"the field carries no subbundle fibers of rank {k}" + (
            "" if BV is None else f"; its fibers have rank {BV.shape[-1]}"))
    gram = np.conj(np.swapaxes(BV, -1, -2)) @ gamma @ BV
    defect = np.linalg.norm(gram - np.eye(k), axis=(1, 2))
    if np.any(defect > TAU_ORTH):
        i = int(np.argmax(defect))
        raise BasisNotOrthonormal(
            f"subspace basis at {field.ids[i]!r} is not gamma-orthonormal "
            f"(defect {defect[i]:.3e})")
    W, W_inv = congruence(gamma)         # W* gamma W = I
    Vt = W_inv @ BV                      # orthonormal in standard coords
    Ufull, _, _ = np.linalg.svd(Vt)
    Wt = Ufull[:, :, k:]                 # orthocomplement of range(Vt)
    BW = W @ Wt
    return BV, BW, W


def compute_constants(field: FormField, forms, gamma, q: int) -> dict:
    """``{name: PenaltyConstants}`` (kappa = C) over the field, from one adapted frame.

    A3 from the off-diagonal block is checked per point against the coarser
    bound max(|lam_1|, |lam_max|) of the full form relative to gamma.  One
    factorization of gamma serves the frames and those bounds, and each
    quantity is one stacked solve over the forms and points; the forms are
    checked in order.
    """
    gamma = _gamma_stack(field, gamma)
    BV, BW, W = _adapted_frames(field, gamma, q)
    BVh = np.conj(np.swapaxes(BV, -1, -2))
    BWh = np.conj(np.swapaxes(BW, -1, -2))
    H = np.stack([field.form_stack(form) for form in forms])  # (forms, N, d, d)
    A1_pts = np.linalg.eigvalsh(BVh @ H @ BV)[..., 0]
    A2s = A3s = np.zeros(len(forms))
    loose = np.zeros(len(forms), dtype=bool)
    if BW.shape[-1]:
        A2s = np.max(np.abs(np.linalg.eigvalsh(BWh @ H @ BW)), axis=(1, 2))
        off = np.linalg.svd(BWh @ H @ BV, compute_uv=False)[..., 0]
        A3s = np.max(off, axis=1)
        lam_full = pencil_eigvalsh(H, gamma, W)
        coarse = np.maximum(np.abs(lam_full[..., 0]), np.abs(lam_full[..., -1]))
        loose = np.any(off > coarse + 1e-8 * np.maximum(1.0, coarse), axis=1)
    constants = {}
    for f, form in enumerate(forms):
        A1 = float(np.min(A1_pts[f]))
        if A1 <= 0:
            i = int(np.argmin(A1_pts[f]))
            raise NotPositiveOnV(
                f"form {form!r} is not positive definite on V at {field.ids[i]!r} "
                f"(smallest restricted eigenvalue {A1:.3e})")
        if loose[f]:
            raise QposError("off-diagonal block norm exceeded its coarse bound")
        A2, A3 = float(A2s[f]), float(A3s[f])
        C = choose_C(A1, A2, A3, q)
        constants[form] = PenaltyConstants(A1=A1, A2=A2, A3=A3, C=C, kappa=C, q=q)
    return constants


def choose_C(A1: float, A2: float, A3: float, q: int) -> float:
    """Smallest penalty C >= 0 with margin ETA_MARGIN * A1 in the inequality.

    With s = 1 / sqrt(1 + C), solves q A2 s^2 + 2 q A3 s = A1 (1 - ETA_MARGIN) for
    the positive root and returns C = s^{-2} - 1, clamped at 0 when even the
    unpenalized metric satisfies the inequality with margin.
    """
    if A1 <= 0:
        raise NotPositiveOnV("A1 must be positive")
    target = A1 * (1.0 - ETA_MARGIN)
    if A2 <= 0 and A3 <= 0:
        return 0.0
    if A2 <= 0:
        s = target / (2.0 * q * A3)
    else:
        s = (-q * A3 + np.sqrt(q * q * A3 * A3 + q * A2 * target)) / (q * A2)
    if s >= 1.0:
        return 0.0
    return float(1.0 / (s * s) - 1.0)


def build_penalty_metric(gamma, V_basis, kappa: float) -> np.ndarray:
    """h = gamma + kappa * gamma(P_perp ., P_perp .); supports (N, d, d) stacks.

    ``V_basis`` columns must be gamma-orthonormal.  h agrees with gamma on
    V x V and is (1 + kappa) gamma on the complement.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    G = np.asarray(gamma, dtype=complex)
    B = np.asarray(V_basis, dtype=complex)
    P_perp = np.eye(G.shape[-1]) - B @ np.conj(np.swapaxes(B, -1, -2)) @ G
    H = G + kappa * (np.conj(np.swapaxes(P_perp, -1, -2)) @ G @ P_perp)
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def _gamma_stack(field: FormField, gamma) -> np.ndarray:
    """The (N, d, d) base metrics: ``gamma`` (one or per point), else g0; read-only."""
    return field.g0 if gamma is None else \
        np.broadcast_to(np.asarray(gamma, dtype=complex), field.g0.shape)


def synthesize_subbundle(field: FormField, forms, q: int, gamma=None,
                         safety: float = 1.0):
    """Penalty metric making every named form strictly q-positive at once.

    kappa is the maximum of the per-form constants C (times ``safety``, an
    inflation factor for unseen points, finite and nonnegative, else
    ValueError; the sampled constants are exact only on the sample).  Returns
    ``(metrics, certificates, constants)`` with the dicts keyed by form name.
    """
    if not forms:
        raise ValueError("need at least one form name")
    if not 0 <= safety < np.inf:
        raise ValueError(f"safety must be nonnegative and finite, got {safety}")
    gamma = _gamma_stack(field, gamma)
    constants = compute_constants(field, forms, gamma, q)
    kappa = safety * max(c.C for c in constants.values())
    constants = {name: replace(c, kappa=kappa) for name, c in constants.items()}
    h = build_penalty_metric(gamma, field.subspace, kappa)
    certificates = certify_forms(field, forms, q, h, "penalty_metric")
    require_passed(certificates, f"strict {q}-positivity")
    return h, certificates, constants
