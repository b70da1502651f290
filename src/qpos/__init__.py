"""qpos: strict q-positivity of Hermitian forms and metric synthesis.

A Hermitian form is strictly q-positive relative to a metric when the sum of
its q smallest eigenvalues is positive (equivalently: every q-dimensional
restriction has positive trace).  This package tests that property, computes
Riesz spectral projectors by contour quadrature, and synthesizes metrics
that make prescribed form fields strictly q-positive via three
constructions: inflation by a spectral function that grows the metric along
negative eigenvectors (continuous across eigenvalue crossings), transverse
penalty relative to a subbundle of common positive directions, and the
level-curve midpoint for a pair of forms.  A geometry layer supplies Levi
forms, complex Hessians, and the example domains and counterexample family
the constructions are validated on.

The names below are exported lazily (PEP 562): ``from qpos import X`` loads
only the submodule that defines ``X``, so a command-line process pays for
the layers its command runs and no others.
"""

import importlib

_EXPORTS = {name: module for module, names in {
    "errors": ("AmbientMismatch", "BasisNotOrthonormal", "BoundNotFound", "CertificateFailed",
               "DenominatorNonpositive", "DimensionMismatch", "EigenvalueOnContour",
               "FrameInvalid", "HypothesisViolated", "LevelNotReached", "NearSingularResolvent",
               "NoCommonDirection", "NoSpectralGap", "NotFinite", "NotHermitian",
               "NotPositiveDefinite", "NotPositiveOnV", "ProjectorRoutesDisagree",
               "QOutOfRange", "QposError", "SchemaError", "VanishingField",
               "ZeroRepresentative", "ZqViolated"),
    "fields": ("FormField", "PositivityCertificate"),
    "hermitian": ("pencil_eigh", "pencil_eigvalsh"),
    "metric_single": ("negative_projector", "synthesize_single"),
    "metric_subbundle": ("PenaltyConstants", "build_penalty_metric", "choose_C",
                         "compute_constants", "synthesize_subbundle"),
    "pair": ("PairState", "find_common_direction", "pair_metric", "trace_level_curve", "xi_eval"),
    "qpositivity": ("Inertia", "SpectrumWrt", "Subspace", "complement_sum_identity", "inertia",
                    "max_subspace_trace", "projection_dim_sum", "q_min_sum", "restricted_trace",
                    "spectrum_wrt", "trace_wrt"),
    "riesz": ("Disc", "ProjectorResult", "oracle_projector", "quadrature_convergence",
              "resolvent", "riesz_projector"),
    "two_forms": ("common_direction", "field_metric_top_degree"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _lazy(namespace, exports):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose ``exports``
    maps each name to the submodule defining it.  A name is imported on first
    access and then bound in the package; each submodule named in ``exports``
    is an attribute as well."""
    package = namespace["__name__"]

    def __getattr__(name):
        if name in exports.values():
            return importlib.import_module(f"{package}.{name}")
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
