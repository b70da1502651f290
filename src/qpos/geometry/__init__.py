"""Complex-geometry data layer: domains, Levi forms, Z(q), bump, counterexample."""

from .bump import WeightBumpReport, chi, chi_double_prime, chi_prime, weight_bump
from .counterexample import (
    CounterexampleField,
    counterexample_build,
    counterexample_scan,
    form_entries,
    sphere_eigenvalue_residuals,
    standard_test_fields,
    stereographic,
    stereographic_inverse,
    unit_eigenvector_residuals,
)
from .domains import (
    BallDomain,
    CustomDomain,
    Domain,
    MqnManifold,
    ProductDomain,
    QuadricDomain,
    complex_hessian,
    domain_from_spec,
    fd_complex_gradient,
    fd_complex_hessian,
)
from .levi import (
    BoundarySamples,
    ZqReport,
    adjacency_components,
    kernel_frame,
    levi_forms,
    newton_project,
    sample_boundary,
    zq_check,
    zq_metric_pipeline,
)
