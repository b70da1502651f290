"""The discontinuous-subbundle counterexample family and its scan."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpos import DimensionMismatch, NotFinite, VanishingField, ZeroRepresentative
from qpos.geometry import (
    counterexample_build,
    counterexample_scan,
    form_entries,
    sphere_eigenvalue_residuals,
    standard_test_fields,
    stereographic,
    stereographic_inverse,
    unit_eigenvector_residuals,
)
from qpos.geometry.counterexample import TIE_ULPS, _form_kernel

R = 2.0
FLOOR = 1.0 - 4.0 * np.exp(-0.25)  # sphere eigenvalue at R = 2, about -2.1152


def test_form_at_origin_is_identity():
    assert_allclose(form_entries(np.zeros(3)), np.eye(2))


def test_forms_are_hermitian_and_match_formula(rng):
    x = rng.uniform(-2, 2, size=(50, 3))
    H = form_entries(x)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2)))) == 0.0
    i = 7
    r = np.linalg.norm(x[i])
    E = np.exp(-1.0 / r**2)
    expect = np.array([
        [1 - E * (r - x[i, 2]), -E * (x[i, 0] + 1j * x[i, 1])],
        [-E * (x[i, 0] - 1j * x[i, 1]), 1 - E * (r + x[i, 2])],
    ])
    assert_allclose(H[i], expect, rtol=1e-13)


def test_unit_eigenvector_identity_on_grid():
    field = counterexample_build(R=R, grid_n=24)
    res = unit_eigenvector_residuals(field)
    assert res.size > 0
    assert np.max(res) <= 1e-12


def test_sphere_eigenvalue_identity():
    res = sphere_eigenvalue_residuals(R, count=3000)
    assert np.max(res) <= 1e-12
    assert FLOOR == pytest.approx(-2.11520313, abs=1e-7)


def test_scan_constant_fields_find_negative_values():
    field = counterexample_build(R=R, grid_n=32)
    for v in (lambda X: np.tile([1.0 + 0j, 0.0], (len(X), 1)),
              lambda X: np.tile([0.0, 1.0 + 0j], (len(X), 1))):
        point, value = counterexample_scan(field, v)
        assert value < 0
        assert value >= FLOOR - 1e-9  # the sphere eigenvalue is the floor


def test_scan_all_standard_fields(rng):
    field = counterexample_build(R=R, grid_n=32)
    fields = standard_test_fields(R)
    assert len(fields) == 20
    for name, v in fields:
        V = np.asarray(v(field.points))
        assert np.min(np.linalg.norm(V, axis=1)) >= 1e-8, name
        _, value = counterexample_scan(field, v)
        assert value < 0, f"field {name} found no negative value"


def test_scan_rejects_vanishing_field():
    # the unit-eigenvalue eigenvector field vanishes on the negative x3-axis,
    # which is the point of the counterexample; an odd grid hits the axis
    field = counterexample_build(R=R, grid_n=9)

    def bad(X):
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        return np.stack([r + X[:, 2], -X[:, 0] + 1j * X[:, 1]], axis=-1)

    with pytest.raises(VanishingField):
        counterexample_scan(field, bad)


@pytest.mark.parametrize("error", [ValueError, IndexError])
def test_scan_propagates_field_error(error):
    # the scan used to catch these and call the field again point by point
    field = counterexample_build(R=R, grid_n=12)
    raised = error("the field's own error")
    calls = []

    def v(X):
        calls.append(np.shape(X))
        raise raised

    with pytest.raises(error) as info:
        counterexample_scan(field, v)
    assert info.value is raised and calls == [(len(field), 3)]


def test_scan_rejects_per_point_values_of_wrong_length():
    # a per-point function is not stacked for the caller: its one vector has the wrong shape
    field = counterexample_build(R=R, grid_n=8)
    with pytest.raises(DimensionMismatch):
        counterexample_scan(field, lambda x: np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        counterexample_scan(field, lambda x: np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_scan_rejects_non_finite_field_naming_first_point(bad):
    field = counterexample_build(R=R, grid_n=12)
    first = 100

    def v(X):
        V = np.tile([1.0 + 0j, 0.0], (len(X), 1))
        V[first, 1] = bad
        V[first + 7, 0] = np.nan
        return V

    with pytest.raises(NotFinite, match=re.escape(str(field.points[first]))):
        counterexample_scan(field, v)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_build_rejects_radius_outside_zero_to_infinity(radius):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        counterexample_build(R=radius, grid_n=8)


# ------------------------------------------------------- the closed-form kernel

EPS = np.finfo(float).eps


def _reference_scan(field, v):
    """The 2x2 matrix-product scan the kernel replaces, with the scan's tie rule:
    the first point in grid order within TIE_ULPS ulp of the minimum."""
    V = np.asarray(v(field.points), dtype=complex)
    vals = np.real(np.einsum("ki,kij,kj->k", V.conj(), field.forms, V))
    vals /= np.sum(np.abs(V) ** 2, axis=1)
    low = vals.min()
    i = int(np.flatnonzero(vals <= low + TIE_ULPS * np.spacing(abs(low)))[0])
    return field.points[i], float(low)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(-3.0, 8.0), st.floats(-3.0, 8.0))
def test_kernel_matches_matrix_products(seed, k, log_h, log_v):
    rng = np.random.default_rng(seed)
    A = 10.0 ** log_h * (rng.uniform(-1, 1, (k, 2, 2)) + 1j * rng.uniform(-1, 1, (k, 2, 2)))
    H = 0.5 * (A + np.conj(np.swapaxes(A, 1, 2)))
    H[0] = np.eye(2)
    V = 10.0 ** log_v * (rng.uniform(-1, 1, (k, 2)) + 1j * rng.uniform(-1, 1, (k, 2)))
    V[rng.random(k) < 0.2] = 0.0
    a, b, c = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1]

    n2, form = _form_kernel(a, b, c, V[:, 0], V[:, 1])
    _, (w0, w1) = _form_kernel(a, b, c, V[:, 0], V[:, 1], lam=0.0)

    ref_n2 = np.sum(np.abs(V) ** 2, axis=1)
    ref_form = np.real(np.einsum("ki,kij,kj->k", V.conj(), H, V))
    ref_Hv = np.einsum("kij,kj->ki", H, V)
    # rounding bounds: 8 eps ||H|| |v|^2 for the form, 8 eps ||H|| |v| for the vector H v
    scale = 8.0 * EPS * np.linalg.norm(H, ord=2, axis=(1, 2))
    assert np.all(np.abs(n2 - ref_n2) <= 4.0 * EPS * ref_n2)
    assert np.all(np.abs(form - ref_form) <= scale * ref_n2)
    err = np.linalg.norm(np.stack([w0, w1], axis=1) - ref_Hv, axis=1)
    assert np.all(err <= scale * np.sqrt(ref_n2))


def test_scan_worst_points_match_matrix_product_scan():
    field = counterexample_build(R=R, grid_n=24)
    for name, v in standard_test_fields(R):
        point, value = counterexample_scan(field, v)
        ref_point, ref_value = _reference_scan(field, v)
        assert np.array_equal(point, ref_point), name
        assert value == pytest.approx(ref_value, rel=8 * EPS), name


@pytest.mark.parametrize("grid", [16, 24])
def test_scan_worst_point_is_first_in_grid_order_within_tie_ulps(grid):
    # many fields take equal values at mirror grid points; the reported point
    # must not depend on which copy rounds lower (at grid 16 four fields used to
    # report a later mirror point)
    field = counterexample_build(R=R, grid_n=grid)
    for name, v in standard_test_fields(R):
        point, value = counterexample_scan(field, v)
        V = v(field.points)
        n2, vals = _form_kernel(*field._columns, V[:, 0], V[:, 1])
        vals = (vals / n2).tolist()
        low = min(vals)
        first = next(k for k, x in enumerate(vals) if x - low <= TIE_ULPS * math.ulp(low))
        assert value == low, name
        assert np.array_equal(point, field.points[first]), name


def test_field_entries_are_read_only_contiguous_columns():
    field = counterexample_build(R=R, grid_n=8)
    a, b, c = field._columns
    assert_allclose(a, field.forms[:, 0, 0].real)
    assert_allclose(b, field.forms[:, 1, 1].real)
    assert_allclose(c, field.forms[:, 0, 1])
    for col in (a, b, c):
        assert col.flags.c_contiguous and not col.flags.writeable


def test_family_functions_make_no_matrix_product_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", forbidden)
    field = counterexample_build(R=R, grid_n=12)
    counterexample_scan(field, standard_test_fields(R)[6][1])
    unit_eigenvector_residuals(field)
    sphere_eigenvalue_residuals(R, count=50)


# ------------------------------------------------------------- stereographic

def test_stereographic_known_points():
    assert_allclose(stereographic(1.0, 1.0), [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(stereographic(0.0, 1.0), [0.0, 0.0, 1.0], atol=1e-15)
    assert_allclose(stereographic(1.0, 0.0), [0.0, 0.0, -1.0], atol=1e-15)
    z1, z2 = stereographic_inverse(np.array([0.0, 0.0, -1.0]))
    assert (z1, z2) == (1.0, 0.0)


def test_stereographic_round_trip(rng):
    for _ in range(100):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = stereographic(z[0], z[1])
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        w1, w2 = stereographic_inverse(x)
        # projective equality: cross-ratio vanishes
        assert abs(z[0] * w2 - z[1] * w1) <= 1e-12 * np.linalg.norm(z)


def test_stereographic_rejects_zero():
    with pytest.raises(ZeroRepresentative):
        stereographic(0.0, 0.0)


@pytest.mark.parametrize("chunk", [1, 97, 4096])
def test_scan_in_slices_equals_one_stacked_scan(monkeypatch, chunk):
    # slices of SCAN_CHUNK points bound the temporaries; the worst point (with
    # its tie rule across slice ends), the value and the errors stay the same
    from qpos.geometry import counterexample

    field = counterexample_build(R=R, grid_n=16)
    whole = [counterexample_scan(field, v) for _, v in standard_test_fields(R)]
    monkeypatch.setattr(counterexample, "SCAN_CHUNK", chunk)
    for (point, value), (_, v) in zip(whole, standard_test_fields(R)):
        sliced = counterexample_scan(field, v)
        assert np.array_equal(sliced[0], point) and sliced[1] == value
    assert counterexample_scan(field, lambda X: np.stack([np.array([1.0, 0.0]) for x in X]))[1] \
        == counterexample_scan(field, lambda X: np.tile([1.0 + 0j, 0.0], (len(X), 1)))[1]

    # a vanishing point in an early slice and a non-finite one in a later
    # slice: NotFinite first, as one stacked check raised it
    X = field.points
    vanish, bad = 5, len(X) - 3

    def v(P):
        V = np.tile([1.0 + 0j, 0.0], (len(P), 1))
        V[np.all(P == X[vanish], axis=1)] = 0.0
        V[np.all(P == X[bad], axis=1), 1] = np.nan
        return V

    with pytest.raises(NotFinite, match=re.escape(str(X[bad]))):
        counterexample_scan(field, v)
    with pytest.raises(VanishingField):
        counterexample_scan(field, lambda P: np.where(np.all(P == X[bad], axis=1)[:, None],
                                                      0.0, v(P)))
