"""Complex-geometry data layer: domains, Levi forms, Z(q), bump, counterexample.

The names below are exported lazily (PEP 562), as in the ``qpos`` package:
``from qpos.geometry import X`` loads only the submodule that defines ``X``.
"""

from .. import _lazy

_EXPORTS = {name: module for module, names in {
    "bump": ("WeightBumpReport", "chi", "chi_double_prime", "chi_prime", "weight_bump"),
    "counterexample": ("CounterexampleField", "counterexample_build", "counterexample_scan",
                       "form_entries", "sphere_eigenvalue_residuals", "standard_test_fields",
                       "stereographic", "stereographic_inverse", "unit_eigenvector_residuals"),
    "domains": ("BallDomain", "CustomDomain", "Domain", "MqnManifold", "ProductDomain",
                "QuadricDomain", "complex_hessian", "domain_from_spec", "fd_complex_gradient",
                "fd_complex_hessian"),
    "levi": ("BoundarySamples", "ZqReport", "adjacency_components", "kernel_frame",
             "levi_forms", "newton_project", "sample_boundary", "zq_check",
             "zq_metric_pipeline"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
