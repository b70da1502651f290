"""Weight bump on domain boundaries: constants, claims, and the eps budget.

Runs the bump on the projective quadric (already comfortably positive, so
no frame constraint binds) and on a synthetic ball with an indefinite
weight where the budget for eps is genuinely finite and a 10x overshoot is
observed to break the full-tangent claim.
"""

import numpy as np

from qpos.geometry import CustomDomain, QuadricDomain, sample_boundary, weight_bump


def report(rep, label):
    print(f"== {label} ==")
    print(f"   delta0        : {rep.delta0:.6g}")
    print(f"   eta           : {rep.eta if np.isfinite(rep.eta) else 'inf (no frame constraint)'}")
    print(f"   B1, B2        : {rep.B1:.4g}, {rep.B2:.4g}")
    print(f"   kappa (h)     : {rep.kappa:.4g}")
    print(f"   eps bound     : {rep.epsilon_bound if np.isfinite(rep.epsilon_bound) else 'inf'}")
    print(f"   eps chosen    : {rep.epsilon:.4g}")
    print(f"   claim 1 (count): {'all pass' if rep.claim1_pass.all() else 'FAIL'}")
    print(f"   claim 2 (kernel q-sum) min: {rep.claim2_min_sums.min():+.4g}")
    print(f"   claim 3 (full q-sum)   min: {rep.claim3_min_sums.min():+.4g}")
    print(f"   trace-identity max err    : {rep.trace_identity_max_err:.2e}")
    print(f"   claim-3 failures at 10x eps bound: {rep.large_eps_claim3_failures}")
    print(f"   verdict: {'PASS' if rep.all_claims_pass else 'FAIL'}\n")


quadric = QuadricDomain(mu=[2, 2, -0.5, -0.5], n=3, q=2)
samples = sample_boundary(quadric, 400, seed=8)
report(weight_bump(quadric, 2, samples), "projective quadric, q = 2")


class IndefiniteWeight:
    """|z1|^2 + |z2|^2 - 3 |z3|^2: two positive directions, one negative.

    Like every CustomDomain callback it takes a stack of points (..., 3); its
    one constant Hessian serves every point.
    """

    def __call__(self, z):
        return np.sum(np.abs(z) ** 2 * [1.0, 1.0, -3.0], axis=-1)

    def hessian(self, z):
        return np.diag([1.0, 1.0, -3.0]).astype(complex)


ball = CustomDomain(n=3, rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
                    weight=IndefiniteWeight(), seed_box=0.8)
samples = sample_boundary(ball, 200, seed=8)
report(weight_bump(ball, 2, samples), "ball in C^3 with indefinite weight, q = 2")
