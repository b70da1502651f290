"""Penalty metric from a subbundle of common positive directions.

Three forms on a rank-5 field are positive definite on a planted rank-4
subbundle; inflating lengths transverse to it by the computed kappa makes
all of them strictly 2-positive at once.
"""

import numpy as np

from qpos import synthesize_subbundle
from qpos.hermitian import pencil_eigvalsh
from qpos.synthetic import planted_subbundle_field

rng = np.random.default_rng(3)
field = planted_subbundle_field(rng, 200, 5, 2)  # gamma is each point's g0
gamma = field.g0

print("before: 2-smallest eigenvalue sums relative to gamma")
for name in ("Q1", "Q2", "Q3"):
    lam = pencil_eigvalsh(field.form_stack(name), gamma)
    print(f"  {name}: min {lam[:, :2].sum(axis=1).min():+.4f}"
          f"  (negative somewhere -> not 2-positive yet)")

h, certs, consts = synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2)

print("\npenalty constants per form (A1 min on V, A2 complement, A3 coupling):")
for name, c in consts.items():
    print(f"  {name}: A1 {c.A1:.4f}  A2 {c.A2:.4f}  A3 {c.A3:.4f}  C {c.C:.4f}")
print(f"kappa = max C = {consts['Q1'].kappa:.4f}")

print("\nafter: certificates relative to the penalty metric h")
for name, cert in certs.items():
    print(f"  {name}: passed {cert.passed}, min 2-sum {cert.min_sum.min():+.4f}")

print("\nraising kappa never hurts (2x and 10x stay positive):")
BV = field.subspace
P_perp = np.eye(5) - BV @ np.conj(np.swapaxes(BV, -1, -2)) @ gamma
penalty = np.conj(np.swapaxes(P_perp, -1, -2)) @ gamma @ P_perp
for mult in (2.0, 10.0):
    h_big = gamma + mult * consts["Q1"].kappa * penalty
    worst = min(pencil_eigvalsh(field.form_stack(n), h_big)[:, :2].sum(axis=1).min()
                for n in ("Q1", "Q2", "Q3"))
    print(f"  {mult:4.0f} * kappa: worst 2-sum {worst:+.4f}")
