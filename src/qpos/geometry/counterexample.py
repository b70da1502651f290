"""A smooth family of 2x2 Hermitian forms with no continuous positive field.

For x in R^3 the form

    H_x = I - exp(-|x|^-2) * [[ |x| - x3,      x1 + i x2 ],
                              [ x1 - i x2,     |x| + x3  ]]

(identity at x = 0) has a unit-eigenvalue eigenvector at every point, yet
every nowhere-vanishing continuous vector field on a ball of radius R >= 2
must somewhere evaluate to 1 - 2 exp(-R^-2) R < 0 times its squared length.
The scan below certifies that failure numerically on a grid.  The
construction and its test fields use the standard homeomorphism between the
projective line and the 2-sphere.

Every product with the family is taken in closed form from the entries
a = H00 and b = H11 (real) and c = H01, stacked as columns over the points:
for v = (v0, v1),

    |v|^2   = Re(v0)^2 + Im(v0)^2 + Re(v1)^2 + Im(v1)^2,
    H(v, v) = a |v0|^2 + b |v1|^2 + 2 Re(conj(v0) c v1),
    H v     = (a v0 + c v1, conj(c) v0 + b v1).

One kernel, ``_form_kernel``, computes them for the scan and for both
eigenvector residuals, with no 2x2 matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..errors import DimensionMismatch, NotFinite, VanishingField, ZeroRepresentative

TIE_ULPS = 4  # scan values this close to the minimum tie; the first in grid order is worst
SCAN_CHUNK = 8192  # grid points per slice of the scan


def form_entries(x: np.ndarray) -> np.ndarray:
    """H_x for a stack of points x of shape (..., 3); exact at x = 0."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    r = np.sqrt(r2)
    with np.errstate(divide="ignore"):
        E = np.where(r2 > 0, np.exp(-1.0 / np.where(r2 > 0, r2, 1.0)), 0.0)
    H = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    H[..., 0, 0] = 1.0 - E * (r - x3)
    H[..., 1, 1] = 1.0 - E * (r + x3)
    H[..., 0, 1] = -E * (x1 + 1j * x2)
    H[..., 1, 0] = -E * (x1 - 1j * x2)
    return H


def _entry_columns(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) = (H00, H11, H01) of a (K, 2, 2) stack, as contiguous read-only columns."""
    columns = tuple(np.array(col, order="C") for col in
                    (forms[:, 0, 0].real, forms[:, 1, 1].real, forms[:, 0, 1]))
    for col in columns:
        col.flags.writeable = False
    return columns


def _form_kernel(a, b, c, v0, v1, lam=None):
    """The family's 2x2 kernel on rows v = (v0, v1) of H = [[a, c], [conj(c), b]].

    Returns (|v|^2, H(v, v)), or given an eigenvalue ``lam``
    (|v|^2, H v - lam v) with H v - lam v as its two columns.
    """
    n0 = v0.real ** 2 + v0.imag ** 2
    n1 = v1.real ** 2 + v1.imag ** 2
    if lam is None:
        return n0 + n1, a * n0 + b * n1 + 2.0 * (v0.conj() * c * v1).real
    return n0 + n1, (a * v0 + c * v1 - lam * v0, c.conj() * v0 + b * v1 - lam * v1)


def _residuals(n2, w, keep):
    """|w| / |v| on the kept rows, for w = H v - lam v given as two columns."""
    w0, w1 = w[0][keep], w[1][keep]
    # each component's |w_i|^2 first, the order np.linalg.norm sums in
    w2 = (w0.real ** 2 + w0.imag ** 2) + (w1.real ** 2 + w1.imag ** 2)
    return np.sqrt(w2) / np.sqrt(n2[keep])


@dataclass
class CounterexampleField:
    """Grid sample of the form family over the closed ball of radius R.

    The entries of ``forms`` are copied once, at construction, into the
    kernel's columns.
    """

    radius: float
    points: np.ndarray   # (K, 3)
    forms: np.ndarray    # (K, 2, 2)
    _columns: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._columns = _entry_columns(self.forms)

    def __len__(self):
        return len(self.points)


def counterexample_build(R: float = 2.0, grid_n: int = 64) -> CounterexampleField:
    """Uniform grid over [-R, R]^3 restricted to |x| <= R, with exact entries."""
    if not 0 < R < np.inf:
        raise ValueError(f"R must be positive and finite, got {R!r}")
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    axis = np.linspace(-R, R, grid_n)
    X = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    X = X[np.linalg.norm(X, axis=1) <= R + 1e-12]
    return CounterexampleField(radius=float(R), points=X, forms=form_entries(X))


def unit_eigenvector_residuals(field: CounterexampleField) -> np.ndarray:
    """|H_x v - v| / |v| for v = (|x| + x3, -x1 + i x2), off the bad axis.

    That field has eigenvalue one wherever it does not vanish; points on the
    negative x3-axis (where it degenerates) are skipped.
    """
    x = field.points
    r = np.linalg.norm(x, axis=1)
    n2, w = _form_kernel(*field._columns, r + x[:, 2], -x[:, 0] + 1j * x[:, 1], lam=1.0)
    return _residuals(n2, w, np.sqrt(n2) > 1e-8 * np.maximum(1.0, r))


def sphere_eigenvalue_residuals(R: float, count: int = 2000, seed: int = 0) -> np.ndarray:
    """On |x| = R the field (x1 + i x2, R + x3) has eigenvalue 1 - 2 exp(-R^-2) R."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, 3))
    x *= R / np.linalg.norm(x, axis=1, keepdims=True)
    lam = 1.0 - 2.0 * np.exp(-1.0 / (R * R)) * R
    n2, w = _form_kernel(*_entry_columns(form_entries(x)), x[:, 0] + 1j * x[:, 1], R + x[:, 2],
                         lam=lam)
    return _residuals(n2, w, np.sqrt(n2) > 1e-8 * R)


def counterexample_scan(field: CounterexampleField, v) -> tuple[np.ndarray, float]:
    """Worst normalized value of H_x(v(x), v(x)) over the grid.

    ``v`` maps a stack of points (K, 3) to vectors (K, 2) (a per-point
    callable is also accepted: it is called point by point when the stacked
    call raises TypeError, ValueError or IndexError, or returns another
    shape).  The field must be finite on the grid, else NotFinite, and
    nonvanishing: min |v| >= 1e-8, else VanishingField.  Returns (worst
    point, min of H_x(v,v) / |v|^2); the family is built so this minimum is
    negative for every continuous nonvanishing field once R >= 2.  The worst
    point is the first point in grid order whose value is within TIE_ULPS
    units in the last place of the minimum, so that of points the family
    makes equal (mirror images) the same one is reported whichever rounds
    lower.  ``v`` and the kernel run on slices of SCAN_CHUNK points, so the
    temporaries stay small whatever the grid.
    """
    X, (a, b, c) = field.points, field._columns
    values = np.empty(len(field))
    low_n2, i_low = np.inf, 0
    for start in range(0, len(field), SCAN_CHUNK):
        part = slice(start, start + SCAN_CHUNK)
        V = _field_values(v, X[part])
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # raised below
            norms2, vals = _form_kernel(a[part], b[part], c[part], V[:, 0], V[:, 1])
            np.divide(vals, norms2, out=values[part])
        finite = np.isfinite(norms2)
        if not finite.all():
            i_bad = start + int(np.argmin(finite))
            raise NotFinite(f"vector field is not finite at {X[i_bad]} "
                            f"(|v|^2 = {norms2[i_bad - start]})")
        i = int(np.argmin(norms2))
        if norms2[i] < low_n2:
            low_n2, i_low = norms2[i], start + i
    if low_n2 < 1e-16:  # after every slice: a non-finite value anywhere is named first
        raise VanishingField(X[i_low], float(np.sqrt(low_n2)))
    low = values.min()
    i = int(np.argmax(values <= low + TIE_ULPS * np.spacing(abs(low))))
    return X[i], float(low)


def _field_values(v, X):
    """v on the points X as a (len(X), 2) complex array, stacked or point by point."""
    try:
        V = np.asarray(v(X), dtype=complex)
        if V.shape != (len(X), 2):
            raise TypeError
    except (TypeError, ValueError, IndexError):
        V = np.stack([np.asarray(v(x), dtype=complex) for x in X])
        if V.shape != (len(X), 2):
            raise DimensionMismatch(f"field values have shape {V.shape[1:]}, expected (2,)")
    return V


def stereographic(z1: complex, z2: complex) -> np.ndarray:
    """Map a projective-line representative [z1 : z2] to the unit 2-sphere."""
    n2 = abs(z1) ** 2 + abs(z2) ** 2
    if n2 == 0:
        raise ZeroRepresentative("[0 : 0] is not a point")
    w = z1 * np.conj(z2)
    return np.array([2.0 * w.real / n2, 2.0 * w.imag / n2,
                     (abs(z2) ** 2 - abs(z1) ** 2) / n2])


def stereographic_inverse(x) -> tuple[complex, complex]:
    """Inverse map; the antipode (0, 0, -1) goes to [1 : 0]."""
    x = np.asarray(x, dtype=float)
    if abs(1.0 + x[2]) < 1e-15:
        return (1.0 + 0.0j, 0.0j)
    return ((x[0] + 1j * x[1]) / (1.0 + x[2]), 1.0 + 0.0j)


def standard_test_fields(R: float) -> list[tuple[str, callable]]:
    """Twenty continuous nonvanishing fields for the scan.

    Six constants plus degree <= 2 polynomial fields built from the
    stereographic representative components (x1 + i x2, c + x3); every field
    keeps one component bounded away from zero on the closed ball, so it is
    provably nonvanishing there.
    """
    c = R + 0.5  # c + x3 >= 0.5 on the ball

    def const(a, b):
        return lambda X: np.broadcast_to(np.array([a, b], dtype=complex),
                                         (len(X), 2)).copy()

    def make(f1, f2):
        def v(X):
            X = np.asarray(X, dtype=float)
            x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
            s = x1 + 1j * x2
            t = c + x3
            out = np.empty((len(X), 2), dtype=complex)
            out[:, 0] = f1(s, t)
            out[:, 1] = f2(s, t)
            return out
        return v

    fields = [
        ("const_e1", const(1.0, 0.0)),
        ("const_e2", const(0.0, 1.0)),
        ("const_diag", const(1.0, 1.0)),
        ("const_antidiag", const(1.0, -1.0)),
        ("const_phase", const(1.0, 1.0j)),
        ("const_skew", const(2.0, 1.0 - 1.0j)),
        ("stereo_linear", make(lambda s, t: s, lambda s, t: t)),
        ("stereo_swapped", make(lambda s, t: t, lambda s, t: np.conj(s))),
        ("stereo_quadratic", make(lambda s, t: s * s, lambda s, t: t * t)),
        ("stereo_mixed", make(lambda s, t: s * t, lambda s, t: t * t)),
        ("stereo_conj", make(lambda s, t: np.conj(s), lambda s, t: t)),
        ("stereo_offset", make(lambda s, t: s + 0.2, lambda s, t: t)),
        ("poly_x3_dominant", make(lambda s, t: s, lambda s, t: 1.0 + t * t)),
        ("poly_shifted", make(lambda s, t: 0.2 * s * s + 0.1 * s, lambda s, t: t + 0.3)),
        ("poly_tilt", make(lambda s, t: 4.0 + 1j * t, lambda s, t: s)),
        ("poly_rot", make(lambda s, t: 1j * s + t, lambda s, t: 4.0 + s)),
        ("poly_sq", make(lambda s, t: 4.0 + s * s, lambda s, t: s + t)),
        ("poly_cross", make(lambda s, t: t + 1j * s, lambda s, t: 5.0 - 0.1 * t * t)),
        ("poly_blend", make(lambda s, t: 0.5 * t + 0.5 * s, lambda s, t: 4.0 + 0.2 * s * t)),
        ("poly_heavy", make(lambda s, t: 6.0 + s + t, lambda s, t: s * s - t)),
    ]
    return fields
