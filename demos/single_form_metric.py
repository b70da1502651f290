"""Spectral-inflation metric synthesis for one Hermitian form field.

Start with the hand-checkable one-point example, then run a thousand-point
field with planted negative-eigenvalue counts and verify the certificate.
"""

import numpy as np

from qpos import FormField, spectrum_wrt, synthesize_single
from qpos.hermitian import pencil_eigvalsh, sign_counts
from qpos.synthetic import planted_inertia_field

print("== worked example: S = diag(-5, 1, 2), target sum length 2 ==")
S = np.diag([-5.0, 1.0, 2.0]).astype(complex)
field = FormField.from_stacks(["p"], {"S": S[None]})
print("eigenvalues at the identity metric:", spectrum_wrt(S, np.eye(3)).eigenvalues)
print("2-smallest sum before:", -5.0 + 1.0)

metrics, cert = synthesize_single(field, "S", 2, theta=0.1)
print("inflation rescales the negative eigenvalue by 1/(1+f) with f = 4.4:")
print("eigenvalues after:", spectrum_wrt(S, metrics[0]).eigenvalues)
print(f"2-smallest sum after: {cert.min_sum[0]:.12f}  (exactly 2/27 = {2/27:.12f})")

print("\n== 1000-point field, d = 6, planted counts 0..2, target 3 ==")
rng = np.random.default_rng(42)
field = planted_inertia_field(rng, 1000, 6, 3, n_anchor=50)
_, n_minus = sign_counts(np.linalg.eigvalsh(field.form_stack("S")))
print("points per negative count:", {r: int(np.sum(n_minus == r)) for r in range(3)})
print("anchored points keeping their g0:", int(field.anchored_mask().sum()))

metrics, cert = synthesize_single(field, "S", 3, theta=0.1)
lam = pencil_eigvalsh(field.form_stack("S"), metrics)
sums = lam[:, :3].sum(axis=1)
print("certificate passed:", cert.passed)
print("inflated points:", int(np.sum(cert.provenance == "inflated")))
print(f"smallest 3-sum over the field: {sums.min():.6f}")
print("anchored metric equals g0 bitwise:",
      metrics[0].tobytes() == field.g0[0].tobytes())
