"""Levi forms and the Z(q) metric pipeline on the example domains.

Samples the boundaries of the ball, a projective quadric, and a
ball-times-projective-line product, classifies each sample by Levi inertia,
and synthesizes boundary metrics certifying the required eigenvalue sums.
"""

import numpy as np

from qpos.geometry import (
    BallDomain,
    MqnManifold,
    ProductDomain,
    QuadricDomain,
    levi_forms,
    sample_boundary,
    zq_check,
    zq_metric_pipeline,
)
from qpos import inertia

CASES = [
    ("unit ball in C^2", BallDomain(n=2), 1),
    ("quadric {2|w1|^2+2|w2|^2 < (|w3|^2+|w4|^2)/2} in CP^3",
     QuadricDomain(mu=[2, 2, -0.5, -0.5], n=3, q=2), 2),
    ("ball x CP^1 product", ProductDomain(n=3, q=2), 2),
]

for name, domain, q in CASES:
    print(f"== {name}, q = {q} ==")
    samples = sample_boundary(domain, 300, seed=11)
    levis = levi_forms(domain, samples)
    lam = np.linalg.eigvalsh(levis)
    print(f"   Levi eigenvalue range: [{lam.min():+.3f}, {lam.max():+.3f}]")
    report = zq_check(domain, q, samples)
    print(f"   branch per component : {report.component_branch}")
    report, metrics, certs = zq_metric_pipeline(domain, q, samples)
    ok = all(c.passed for c in certs.values())
    margin = min(cert.min_margin() for cert in certs.values())
    print(f"   pipeline certificate : {'PASS' if ok else 'FAIL'}"
          f" (min margin {margin:.3e})\n")

print("== exhaustion-weight inertia on the model manifold (n=3, q=2) ==")
mqn = MqnManifold(3, 2)
rng = np.random.default_rng(0)
chart, z = mqn.sample_chart_points(rng, 300)
sigs = {inertia(H).as_tuple() for H in mqn.weight_fn(chart).hessian(z)}
print("   off the center submanifold:", sigs, "(n-q+1 positive, q-1 negative)")
chart, z = mqn.sample_chart_points(rng, 100, on_S=True)
on_S = np.linalg.eigvalsh(mqn.weight_fn(chart).hessian(z))[:, 0]
print(f"   on it, the negative eigenvalue degenerates: min |lambda_1| ="
      f" {np.max(np.abs(on_S)):.2e}")
