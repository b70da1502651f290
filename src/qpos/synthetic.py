"""Deterministic generators for random test data: forms, metrics, fields.

Used by the test suite and the demo scripts.  Everything takes an explicit
``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .fields import FormField
from .hermitian import congruence


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (Z + Z.conj().T)


def hermitian_with_eigs(rng: np.random.Generator, eigs) -> np.ndarray:
    """Hermitian matrix with prescribed eigenvalues and random eigenvectors."""
    eigs = np.asarray(eigs, dtype=float)
    U = random_unitary(rng, eigs.size)
    return (U * eigs) @ U.conj().T


def random_metric(rng: np.random.Generator, d: int, cond: float = 10.0) -> np.ndarray:
    """Random positive-definite metric with condition number about ``cond``."""
    eigs = np.exp(rng.uniform(0.0, np.log(cond), size=d))
    return hermitian_with_eigs(rng, eigs / eigs.min())


def random_g_orthonormal_frames(rng: np.random.Generator, G, count: int, q: int,
                                W=None) -> np.ndarray:
    """Stack of ``count`` g-orthonormal q-frames, shape (count, d, q).

    Each frame is W Q with W* G W = I and Q Haar distributed: the Gram-Schmidt
    orthonormalisation (projections taken twice) of a complex Gaussian d x q.
    All columns are held as one (..., d, q, count) array, which W multiplies in
    one product; the result is a view of it.  A stack of metrics (..., d, d)
    gives (..., count, d, q) from the same random numbers as one call per
    metric in turn.  ``W`` is ``congruence(G)[0]`` when the caller has made it.
    """
    G = np.asarray(G, dtype=complex)
    if W is None:
        W, _ = congruence(G)
    Z = rng.standard_normal(G.shape[:-2] + (G.shape[-1], q, count, 2)).view(complex)[..., 0]
    Q = np.empty(Z.shape, dtype=complex)
    for j in range(q):
        v = Z[..., j, :]
        for _ in range(2):
            for i in range(j):
                v = v - Q[..., i, :] * np.sum(np.conj(Q[..., i, :]) * v, axis=-2, keepdims=True)
        Q[..., j, :] = v / np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=-2, keepdims=True))
    T = W @ Q.reshape(Q.shape[:-2] + (q * count,))
    return np.moveaxis(T.reshape(Q.shape), -1, -3)


def planted_inertia_field(rng: np.random.Generator, n_points: int, d: int, q_tilde: int,
                          nu_choices=None, n_anchor: int = 0) -> FormField:
    """Field of one form ``S`` with planted negative-eigenvalue counts.

    Each point gets ``nu`` negative eigenvalues drawn from ``nu_choices``
    (default 0..q_tilde-1) and ``d - nu`` positive ones, so the synthesis
    hypothesis (at least d - q_tilde + 1 strictly positive) holds everywhere.
    The first ``n_anchor`` points are flagged in_F with an identity g0 and get
    forms that are already strictly q_tilde-positive there.
    """
    if nu_choices is None:
        nu_choices = list(range(q_tilde))
    S = np.empty((n_points, d, d), dtype=complex)
    for i in range(n_points):
        nu = 0 if i < n_anchor else int(rng.choice(nu_choices))
        pos = rng.uniform(0.5, 2.0, size=d - nu)
        neg = -rng.uniform(0.5, 5.0, size=nu)
        S[i] = hermitian_with_eigs(rng, np.concatenate([neg, pos]))
    in_F = np.arange(n_points) < n_anchor
    return FormField.from_stacks([f"p{i}" for i in range(n_points)], {"S": S},
                                 g0=np.broadcast_to(np.eye(d), (n_anchor, d, d)),
                                 in_F=in_F, has_g0=in_F)


def planted_subbundle_field(rng: np.random.Generator, n_points: int, d: int, q: int,
                            form_names=("Q1", "Q2", "Q3")):
    """Subbundle field: rank d-q+1 subspace V with all forms PD on V.

    Returns ``(field, gamma)`` where ``gamma`` is the per-point metric stack
    the subspace bases are orthonormal against.
    """
    k = d - q + 1
    forms = {name: np.empty((n_points, d, d), dtype=complex) for name in form_names}
    gammas = np.empty((n_points, d, d), dtype=complex)
    BV = np.empty((n_points, d, k), dtype=complex)
    for i in range(n_points):
        gamma = random_metric(rng, d, cond=4.0)
        W, W_inv = congruence(gamma)
        U = random_unitary(rng, d)
        frame = W @ U                          # gamma-orthonormal full frame
        Finv = U.conj().T @ W_inv
        for name in form_names:
            vv = hermitian_with_eigs(rng, rng.uniform(0.4, 2.0, size=k))
            ww = hermitian_with_eigs(rng, rng.uniform(-8.0, 1.0, size=q - 1)) \
                if q > 1 else np.zeros((0, 0))
            vw = 0.5 * (rng.standard_normal((k, q - 1)) + 1j * rng.standard_normal((k, q - 1)))
            QF = np.block([[vv, vw], [vw.conj().T, ww]]) if q > 1 else vv
            # form with prescribed blocks in the gamma-orthonormal frame
            forms[name][i] = Finv.conj().T @ QF @ Finv
        gammas[i], BV[i] = gamma, frame[:, :k]
    return FormField.from_stacks([f"p{i}" for i in range(n_points)], forms, subspace=BV), gammas


def random_pair_with_common_direction(rng: np.random.Generator, d: int,
                                      margin: float = 0.3):
    """Pair of Hermitian forms guaranteed to share a positive direction.

    Both forms are given value >= margin on a common random unit vector, with
    otherwise arbitrary (possibly very indefinite) structure.
    """
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    out = []
    for _ in range(2):
        Q = random_hermitian(rng, d)
        val = float(np.real(v.conj() @ Q @ v))
        want = rng.uniform(margin, 1.0)
        out.append(Q + (want - val) * np.outer(v, v.conj()))
    return out[0], out[1], v
