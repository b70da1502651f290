"""One pair of Hermitian forms: the single-pair API of the two-forms midpoint.

``PairState`` holds a pair with its base metric.  ``xi_eval`` evaluates the
log-determinant potential xi with its gradient (the two traces) and Hessian;
``find_common_direction``, ``trace_level_curve`` and ``pair_metric`` run the
stacked kernels of ``qpos.two_forms`` on the pair as a one-point stack, so a
pair's results equal its point's in a field bit for bit: the arc's ends and
its arclength midpoint are exact, and ``trace_level_curve`` marks the samples
between the ends.  No command imports this module: the command-line path
works on whole fields through ``two_forms.field_metric_top_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite, QposError
from .hermitian import as_form, as_metric, congruence, reduce_form
from .two_forms import (_arc_bounds, _deformed_metrics, _gram, _gram_spectra, _midpoints,
                        _ray_level_hits, _unit, _worst, common_direction, common_witnesses)


@dataclass(frozen=True)
class XiEvaluation:
    x: np.ndarray
    in_O: bool
    xi: float | None
    grad: np.ndarray | None
    hessian: np.ndarray | None


@dataclass(frozen=True)
class LevelCurveSample:
    theta: float
    t: float
    x: np.ndarray
    xi: float
    grad: np.ndarray
    in_gamma_tilde: bool


@dataclass(frozen=True)
class PairMetricResult:
    gamma_point: np.ndarray
    metric: np.ndarray
    traces: tuple[float, float]
    proportional: bool
    mu: float | None


class PairState:
    """A pair of Hermitian forms with a base metric (default identity).

    Internally the forms are expressed in a base-orthonormal frame, so the
    Gram matrix of the deformed product is I - x1 Q1 - x2 Q2.  Metrics are
    reported back in the original coordinates.
    """

    def __init__(self, Q1, Q2, base=None, witness=None):
        self.Q1 = as_form(Q1)
        self.Q2 = as_form(Q2)
        if self.Q1.shape != self.Q2.shape:
            raise DimensionMismatch("Q1 and Q2 must have the same dimension")
        d = self.Q1.shape[0]
        self.dim = d
        self.base = np.eye(d, dtype=complex) if base is None else as_metric(base)
        self._W, _ = congruence(self.base)
        self._Q1t = reduce_form(self.Q1, self._W)
        self._Q2t = reduce_form(self.Q2, self._W)
        self.witness = None
        if witness is not None:
            v = np.asarray(witness, dtype=complex)
            if _worst(self.Q1[None], self.Q2[None], v[None])[0] <= 0:
                raise QposError("the witness is not positive for both forms")
            self.witness = v / np.sqrt(float(np.real(v.conj() @ self.base @ v)))

    def gram(self, X) -> np.ndarray:
        """Deformed Gram matrices I - x1 Q1 - x2 Q2 at the rows of X (base-orthonormal)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _gram(self._Q1t, self._Q2t, X)

    def metric_at(self, x) -> np.ndarray:
        """The deformed metric at x in the original coordinates."""
        x = np.asarray(x, dtype=float)
        return _deformed_metrics(self.base, self.Q1, self.Q2, x[None])[0]


def xi_eval(pair: PairState, x) -> XiEvaluation:
    """xi, gradient, and Hessian of the log-determinant deformation at x.

    The gradient components are the traces of Q1, Q2 relative to the
    deformed metric; the Hessian entry (r, s) is the inner product of Q_r
    and Q_s in any x-orthonormal frame, hence positive semidefinite.  A point
    with a non-finite coordinate raises NotFinite.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NotFinite(f"xi_eval at the non-finite point {x.tolist()}")
    w, U, traces = _gram_spectra(pair._Q1t[None], pair._Q2t[None], x[None])
    w, U = w[0], U[0]
    if w[0] <= 0:
        return XiEvaluation(x=x, in_O=False, xi=None, grad=None, hessian=None)
    s = 1.0 / np.sqrt(w)  # the frame U diag(s) is x-orthonormal
    R = [s[:, None] * (np.conj(U.T) @ Q @ U) * s[None, :] for Q in (pair._Q1t, pair._Q2t)]
    return XiEvaluation(x=x, in_O=True, xi=float(-np.sum(np.log(w))), grad=traces[0],
                        hessian=np.array([[float(np.vdot(Rs, Rr).real) for Rs in R]
                                          for Rr in R]))


def find_common_direction(Q1, Q2, base=None):
    """Single-pair ``common_direction``: a base-unit witness, or None (proved up to the floor)."""
    pair = PairState(Q1, Q2, base=base)
    _, _, V = common_direction(pair._Q1t[None], pair._Q2t[None])
    return None if np.isnan(V[0, 0]) else pair._W @ V[0]


def _ensure_witness(pair: PairState) -> None:
    if pair.witness is None:
        pair.witness = pair._W @ common_witnesses(pair._Q1t[None], pair._Q2t[None], [None])[0]


def trace_level_curve(pair: PairState, n_angles: int = 512) -> list[LevelCurveSample]:
    """Sample the level curve xi = ``two_forms.LEVEL`` on n_angles rays of the open first
    quadrant, marking the samples in the positive-gradient arc [theta_a, theta_b].  Requires
    a verified common positive direction (which bounds the positive quadrant of O)."""
    _ensure_witness(pair)
    thetas = (np.arange(n_angles) + 0.5) * (np.pi / 2.0) / n_angles
    Q1t, Q2t, dirs = pair._Q1t[None], pair._Q2t[None], _unit(thetas)
    t, xi, traces = _ray_level_hits(Q1t, Q2t, dirs[None])
    (lo, hi), = _arc_bounds(Q1t, Q2t)
    return [
        LevelCurveSample(theta=float(thetas[i]), t=float(t[0, i]), x=t[0, i] * dirs[i],
                         xi=float(xi[0, i]), grad=traces[0, i].copy(),
                         in_gamma_tilde=bool(lo <= thetas[i] <= hi))
        for i in range(n_angles)
    ]


def pair_metric(pair: PairState) -> PairMetricResult:
    """The midpoint metric for a pair sharing a positive direction.

    Proportional pairs (Q1 = mu Q2 within ``two_forms.TAU_PROP`` relative) take
    the closed-form point (c / 2 mu, c / 2) with xi = ``two_forms.LEVEL`` on the
    segment mu x1 + x2 = c; the others the arclength midpoint of the
    positive-gradient arc.  xi there and both output traces are re-verified.
    """
    _ensure_witness(pair)
    gamma, traces, mu, prop = _midpoints(pair._Q1t[None], pair._Q2t[None], [None])
    return PairMetricResult(gamma_point=gamma[0], metric=pair.metric_at(gamma[0]),
                            traces=(float(traces[0, 0]), float(traces[0, 1])),
                            proportional=bool(prop[0]),
                            mu=float(mu[0]) if prop[0] else None)
