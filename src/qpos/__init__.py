"""qpos: strict q-positivity of Hermitian forms and metric synthesis.

A Hermitian form is strictly q-positive relative to a metric when the sum of
its q smallest eigenvalues is positive (equivalently: every q-dimensional
restriction has positive trace).  This package tests that property, computes
Riesz spectral projectors by contour quadrature, and synthesizes metrics
that make prescribed form fields strictly q-positive via three
constructions: stratified inflation along negative eigenspaces, transverse
penalty relative to a subbundle of common positive directions, and the
level-curve midpoint for a pair of forms.  A geometry layer supplies Levi
forms, complex Hessians, and the example domains and counterexample family
the constructions are validated on.
"""

from .errors import (
    AmbientMismatch,
    BasisNotOrthonormal,
    BoundNotFound,
    CertificateFailed,
    DenominatorNonpositive,
    DimensionMismatch,
    EigenvalueOnContour,
    FrameInvalid,
    HypothesisViolated,
    LevelNotReached,
    NearSingularResolvent,
    NoCommonDirection,
    NoSpectralGap,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveOnV,
    NotProjector,
    ProjectorRoutesDisagree,
    QOutOfRange,
    QposError,
    SchemaError,
    VanishingField,
    ZeroRepresentative,
    ZqViolated,
)
from .fields import FieldPoint, FormField, PositivityCertificate
from .hermitian import (
    Inertia,
    SpectrumWrt,
    Subspace,
    complement_sum_identity,
    inertia,
    max_subspace_trace,
    pencil_eigh,
    pencil_eigvalsh,
    projection_dim_sum,
    q_min_sum,
    restricted_trace,
    spectrum_wrt,
    trace_wrt,
)
from .metric_single import (
    Stratification,
    choose_f,
    negative_projector,
    stratify,
    synthesize_single,
    update_metric,
)
from .metric_subbundle import (
    PenaltyConstants,
    build_penalty_metric,
    choose_C,
    compute_constants,
    synthesize_subbundle,
)
from .riesz import (
    Disc,
    ProjectorResult,
    oracle_projector,
    quadrature_convergence,
    resolvent,
    riesz_projector,
)
from .two_forms import (
    PairState,
    common_direction,
    field_metric_top_degree,
    find_common_direction,
    pair_metric,
    trace_level_curve,
    xi_eval,
)

__version__ = "0.1.0"
