"""Joint metric for two Hermitian forms from a level-curve midpoint.

Deforming the base metric by -x1 Q1 - x2 Q2 gives a convex log-determinant
potential whose gradient is the pair of traces; the midpoint of the
positive-gradient arc of its unit level curve yields a metric in which both
forms have positive trace.
"""

import numpy as np

from qpos import PairState, find_common_direction, pair_metric, trace_level_curve, xi_eval

print("== proportional pair: Q1 = Q2 = I on C^2 (closed form) ==")
res = pair_metric(PairState(np.eye(2), np.eye(2)))
c = 1.0 - np.exp(-0.5)
print(f"gamma point : {res.gamma_point}  (expected ({c/2:.6f}, {c/2:.6f}))")
print(f"metric      : exp(-1/2) * I -> diagonal {res.metric[0,0].real:.6f}")
print(f"traces      : {res.traces[0]:.6f}, {res.traces[1]:.6f}  (= 2 e^{{1/2}})")

print("\n== crossed indefinite pair sharing a diagonal positive direction ==")
Q1 = np.diag([1.0, -0.5])
Q2 = np.diag([-0.5, 1.0])
v = find_common_direction(Q1, Q2)
print("witness direction:", np.round(v, 4), "values:",
      float(np.real(v.conj() @ Q1 @ v)), float(np.real(v.conj() @ Q2 @ v)))

pair = PairState(Q1, Q2)
samples = trace_level_curve(pair, n_angles=64)
members = [s for s in samples if s.in_gamma_tilde]
print(f"level-curve samples: {len(samples)}, positive-gradient arc: {len(members)}")

res = pair_metric(pair)
print("gamma point:", np.round(res.gamma_point, 6))
ev = xi_eval(pair, res.gamma_point)
print(f"xi at gamma : {ev.xi:.9f} (level 1)")
print(f"traces      : {res.traces[0]:+.6f}, {res.traces[1]:+.6f}  (both positive)")
print("metric:\n", np.round(res.metric, 6))

print("\n== convexity of the potential along the segment between two points ==")
a, b = np.array([0.05, 0.1]), np.array([0.2, 0.02])
for t in np.linspace(0, 1, 5):
    x = (1 - t) * a + t * b
    print(f"  xi({x[0]:.3f}, {x[1]:.3f}) = {xi_eval(pair, x).xi:.6f}")
