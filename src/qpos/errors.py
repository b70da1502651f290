"""Exception types raised by the qpos library.

Every failure mode that a caller is expected to handle gets its own class;
they all derive from :class:`QposError` so CLI code can map any of them to
a nonzero exit code in one place.
"""

from __future__ import annotations


class QposError(Exception):
    """Base class for all qpos errors."""


class DimensionMismatch(QposError):
    pass


class NotFinite(QposError):
    pass


class NotHermitian(QposError):
    pass


class NotPositiveDefinite(QposError):
    pass


class QOutOfRange(QposError):
    pass


class BasisNotOrthonormal(QposError):
    pass


class AmbientMismatch(QposError):
    pass


class NearSingularResolvent(QposError):
    def __init__(self, zeta, distance):
        super().__init__(f"resolvent point {zeta} is {distance:.3e} from the spectrum")
        self.zeta = zeta
        self.distance = distance


class EigenvalueOnContour(QposError):
    def __init__(self, separation, threshold):
        super().__init__(
            f"eigenvalue within {separation:.3e} of the contour (threshold {threshold:.3e})"
        )
        self.separation = separation
        self.threshold = threshold


class HypothesisViolated(QposError):
    def __init__(self, point_id, inertia):
        super().__init__(f"point {point_id!r} violates the eigenvalue-count hypothesis: {inertia}")
        self.point_id = point_id
        self.inertia = inertia


class DenominatorNonpositive(QposError):
    pass


class NoSpectralGap(QposError):
    pass


class ProjectorRoutesDisagree(QposError):
    """The eigenvector and Riesz quadrature routes to a projector differ."""

    def __init__(self, distance):
        super().__init__(
            f"eigenvector and Riesz projector routes disagree by {distance:.3e}")
        self.distance = distance


class NotPositiveOnV(QposError):
    pass


class CertificateFailed(QposError):
    """Raised when a synthesized metric fails its positivity certificate.

    Carries the certificate so callers can inspect the offending points.
    """

    def __init__(self, message, certificate=None, failed_ids=()):
        super().__init__(message)
        self.certificate = certificate
        self.failed_ids = list(failed_ids)


class NoCommonDirection(QposError):
    """No unit vector makes both forms positive.

    With ``t`` and ``lam_max`` given this is proved up to the stated floor:
    lambda_max((1 - t) Q1 + t Q2) bounds min(Q1(v, v), Q2(v, v)) from above
    on the unit sphere.
    """

    def __init__(self, point_id, t=None, lam_max=None):
        msg = "no common positive direction"
        if point_id is not None:
            msg += f" at point {point_id!r}"
        if t is not None:
            msg += f": lambda_max((1 - t) Q1 + t Q2) = {lam_max:.3e} <= floor at t = {t:.6f}"
        super().__init__(msg)
        self.point_id = point_id
        self.t = t
        self.lam_max = lam_max


class LevelNotReached(QposError):
    def __init__(self, theta, radius, point_id):
        where = "" if point_id is None else f" at point {point_id!r}"
        super().__init__(
            f"level set not reached{where} along the ray at angle {theta:.6f} "
            f"within radius {radius:.3e}"
        )
        self.theta = theta
        self.radius = radius
        self.point_id = point_id


class VanishingField(QposError):
    def __init__(self, point, norm):
        super().__init__(f"vector field vanishes at {point} (|v| = {norm:.3e})")
        self.point = point
        self.norm = norm


class ZeroRepresentative(QposError):
    pass


class FrameInvalid(QposError):
    pass


class ZqViolated(QposError):
    def __init__(self, sample_index, message):
        super().__init__(f"Z(q) violated at sample {sample_index}: {message}")
        self.sample_index = sample_index


class BoundNotFound(QposError):
    pass


class SchemaError(QposError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
