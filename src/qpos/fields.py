"""Sampled form fields: finite point sets carrying forms, metrics, subspaces.

A :class:`FormField` is the discrete stand-in for a Hermitian form on a
vector bundle over a manifold: N sample points of one dimension d, kept as
stacks over the points: an (N, d, d) stack per named Hermitian form, the
reference metrics ``g0``, optionally (N, d, k) subbundle fibers, the mask of
the anchor set F where the output metric must coincide with g0, and adjacency
as index arrays.  ``FormField.from_stacks`` builds every field, from JSON or
Python, and enforces the per-point rules once: ids are hashable, unique, and
no boolean (True == 1 would name id 1), NaN or infinity; each neighbor list
names points (a boolean or None names none); forms are Hermitian, g0 positive
definite, subspace bases of one shape, all finite; a point in F has a g0; masks
hold N booleans and neighbor lists N entries.  A point's values are rows:
``field.g0[r]``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, DimensionMismatch, NotFinite, QposError
from .hermitian import TAU_PD, first_invalid, q_margins


class FormField:
    """A finite sample set with per-point forms, held as validated read-only stacks.

    ``form_stack(name)`` serves a form named at every point (one some point
    lacks is validated, then dropped); ``g0`` is the identity where
    ``has_g0`` is False; ``subspace`` is None or (N, d, k); ``in_F`` is the
    anchor mask; ``edges = (src, dst)`` holds one index pair per neighbor, in
    point order.
    """

    @classmethod
    def from_stacks(cls, ids, forms: dict, subspace=None, g0=None, in_F=None,
                    neighbors=None, has_g0=None, has_forms=None, dim=None) -> "FormField":
        """A field from (N, d, d) form stacks by name (``dim``: their last axis by default)
        and, optionally, (N, d, k) ``subspace``, ``g0`` matrices, an (N,) ``in_F`` mask and
        per point a neighbor id list.  ``has_g0`` (an (N,) mask, all points by default)
        marks the points whose matrices ``g0`` stacks, and ``has_forms`` by name those of
        a form some point lacks.  Each stack is copied and checked once against the
        rules the module docstring lists; a defect at a point raises a ``_defect``."""
        field, ids = cls.__new__(cls), list(ids)
        if dim is None and not forms:
            raise DimensionMismatch("a field without forms needs its dim")
        n, d = len(ids), int(next(iter(forms.values())).shape[-1] if dim is None else dim)
        field.dim, field.ids, index = d, ids, {}
        for row, i in enumerate(ids):
            if not is_point_id(i) or index.setdefault(i, row) != row:
                raise _defect(QposError, "duplicate point id" if is_point_id(i) else
                              "expected a hashable, finite, non-boolean id", ids, row, "id")
        field.forms, field._missing = {}, {}
        for name in sorted(forms, key=str):
            given = _mask((has_forms or {}).get(name), n, f"has_forms.{name}", True)
            S = _validated(forms[name], d, given, ids, f"forms.{name}")
            if given.all():
                field.forms[name] = S
            else:
                field._missing[name] = int(np.argmin(given))
        field.has_g0 = _frozen(_mask(has_g0, n, "has_g0", g0 is not None))
        field.g0 = np.array(np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)))
        if field.has_g0.any():
            field.g0[field.has_g0] = _validated(g0, d, field.has_g0, ids, "g0", TAU_PD)
        _frozen(field.g0)
        field.in_F = _frozen(_mask(in_F, n, "in_F", False))
        if (field.in_F & ~field.has_g0).any():
            row = int(np.argmax(field.in_F & ~field.has_g0))
            raise _defect(QposError, "in F but has no g0", ids, row, "in_F")
        field.subspace = None if subspace is None else _frozen(np.array(subspace, dtype=complex))
        if subspace is not None and field.subspace.shape != (n, d, field.subspace.shape[-1]):
            raise DimensionMismatch(f"subspace stack of shape {field.subspace.shape}")
        finite = subspace is None or np.isfinite(field.subspace).all(axis=(-2, -1))
        if not np.all(finite):
            raise _defect(NotFinite, "basis has non-finite entries", ids, int(np.argmin(finite)),
                          "subspace")
        if neighbors is not None and len(neighbors) != n:
            raise DimensionMismatch(f"neighbors of length {len(neighbors)} for {n} points")
        src, dst = [], []
        for row, nbrs in enumerate(neighbors or ()):
            if not isinstance(nbrs, (list, tuple, type(None))):
                raise _defect(QposError, f"expected a list, got {nbrs!r}", ids, row, "neighbors")
            for i in nbrs or ():
                if i is None or not is_point_id(i) or i not in index:
                    raise _defect(QposError, f"neighbor {i!r} names no point", ids, row,
                                  "neighbors")
                src.append(row)
                dst.append(index[i])
        field.edges = (_frozen(np.array(src, dtype=int)), _frozen(np.array(dst, dtype=int)))
        return field

    def __len__(self):
        return len(self.ids)

    def form_stack(self, name: str) -> np.ndarray:
        """All points' matrices for one named form, shape (N, d, d), read-only."""
        if name not in self.forms:
            row = self._missing.get(name, 0)
            raise QposError(f"form {name!r} missing at point {self.ids[row]!r}")
        return self.forms[name]

    def neighbor_indices(self) -> list[list[int]]:
        """Adjacency as index lists; empty lists where no neighbor data."""
        src, dst = self.edges
        cuts, dst = np.searchsorted(src, range(len(self) + 1)).tolist(), dst.tolist()
        return [dst[a:b] for a, b in zip(cuts, cuts[1:])]

    def anchored_mask(self) -> np.ndarray:
        """in_F points plus their 1-ring when adjacency is present.

        This is the finite-sample reading of "a neighborhood of F": the
        output metric is pinned to g0 on exactly this set.
        """
        src, dst = self.edges
        mask = self.in_F.copy()
        mask[dst[self.in_F[src]]] = True
        return mask


def is_point_id(i) -> bool:
    """Whether ``i`` can name a point: hashable, not a boolean (True == 1 would name
    the point with id 1) and not a NaN or infinite number."""
    try:
        hash(i)
    except TypeError:
        return False
    return not isinstance(i, (bool, np.bool_)) and i == i and i not in (np.inf, -np.inf)


def fiber_rank(ranks, ids):
    """The subspace rank all points share, from each point's rank or None;
    a point unlike the first raises a ``_defect``."""
    for row, k in enumerate(ranks):
        if k != ranks[0]:
            a, b = ("no subspace" if r is None else f"a rank-{r} subspace" for r in (k, ranks[0]))
            raise _defect(DimensionMismatch, f"{a} where point {ids[0]!r} has {b}", ids, row,
                          "subspace")
    return ranks[0] if ranks else None


def _mask(value, n, part, default):
    """``value`` as an (N,) boolean mask, all ``default`` if None; DimensionMismatch
    for another shape, QposError for entries that are not booleans."""
    mask = np.full(n, default) if value is None else np.array(value)
    if mask.shape != (n,):
        raise DimensionMismatch(f"{part} of shape {mask.shape} for {n} points")
    bad = [] if mask.dtype == bool else [
        v for v in mask.tolist() if not isinstance(v, (bool, np.bool_))]
    if bad:
        raise QposError(f"{part} holds {bad[0]!r}, not a boolean")
    return mask.astype(bool, copy=False)


def _validated(A, d, given, ids, part, tau_pd=None):
    """A read-only copy of the (d, d) matrices of the points ``given`` marks,
    checked by one ``first_invalid`` (as metrics when ``tau_pd`` is given)."""
    A, rows = np.array(A, dtype=complex), np.flatnonzero(given)
    if A.shape != (len(rows), d, d):
        raise DimensionMismatch(f"{part} stack has shape {A.shape}, not {(len(rows), d, d)}")
    found = first_invalid(A, tau_pd=tau_pd)
    if found:
        raise _defect(type(found[1]), found[1], ids, int(rows[found[0]]), part)
    return _frozen(A)


def _frozen(a):
    a.flags.writeable = False
    return a


def _defect(error_type, detail, ids, row, part):
    """An error at one point that names its id and carries its ``row`` and
    ``part`` (``forms.S``, ``g0``, ``subspace``, ...) for the JSON reader."""
    error = error_type(f"{part} at {ids[row]!r}: {detail}")
    error.row, error.part = row, part
    return error


CertificateEntry = namedtuple("CertificateEntry", "point_id form q min_sum margin provenance")


@dataclass(frozen=True, eq=False)
class PositivityCertificate:
    """Per-point q-smallest-eigenvalue sums attesting strict q-positivity, as columns.

    ``min_sum``, ``margin`` and ``provenance`` (one string for every point or
    one per point) become read-only (N,) arrays in the order of ``ids``, with
    ``min_sum, margin`` from ``hermitian.q_margins``; a point fails iff
    ``not margin > 0``.  ``entries`` (per-point tuples, built once) feed perfbench's layer trace.
    """

    form: str
    q: int
    ids: list
    min_sum: np.ndarray
    margin: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        for name, dtype in (("min_sum", float), ("margin", float), ("provenance", object)):
            column = getattr(self, name)
            column = np.array([column] * n if isinstance(column, str) else column, dtype=dtype)
            if column.shape != (n,):
                raise DimensionMismatch(f"{name} of shape {column.shape} for {n} points")
            object.__setattr__(self, name, _frozen(column))

    @functools.cached_property
    def entries(self) -> list[CertificateEntry]:
        return [CertificateEntry(i, self.form, self.q, s, m, pv) for i, s, m, pv in zip(
            self.ids, self.min_sum.tolist(), self.margin.tolist(), self.provenance.tolist())]

    @property
    def passed(self) -> bool:
        return bool((self.margin > 0).all())

    def failed_ids(self):
        return [self.ids[r] for r in np.flatnonzero(~(self.margin > 0))]

    def min_margin(self) -> float:
        return float(self.margin.min(initial=np.inf))


def certify(field: FormField, form: str, q: int, metrics, provenance) -> PositivityCertificate:
    """Certificate that ``metrics`` make the named form strictly q-positive: at each
    point the sum of the q smallest eigenvalues of the form relative to its metric
    (one (d, d) matrix or an (N, d, d) stack, else DimensionMismatch) must pass the
    rule of ``hermitian.q_margins``.  QOutOfRange unless 1 <= q <= d.
    """
    return certify_forms(field, [form], q, metrics, provenance)[form]


def certify_forms(field: FormField, forms, q: int, metrics, provenance) -> dict:
    """``{name: certify(field, name, q, metrics, provenance)}`` over the named forms,
    bit for bit, from one pencil solve: every form stack is reduced by the one
    factorization of ``metrics``."""
    S = np.stack([field.form_stack(form) for form in forms])
    if np.shape(metrics) not in (S.shape[1:], S.shape[2:]):
        raise DimensionMismatch(f"metrics of shape {np.shape(metrics)} for forms {S.shape[1:]}")
    sums, margins = q_margins(S, metrics, q)
    return {form: PositivityCertificate(form, q, field.ids, sums[f], margins[f], provenance)
            for f, form in enumerate(forms)}


def require_passed(certs: dict, what: str) -> None:
    """Raise CertificateFailed unless all pass.  The certificates are of one field;
    the error counts the failed (form, point) entries and lists each point that
    failed for any form once, in point order."""
    failed = np.stack([~(cert.margin > 0) for cert in certs.values()])
    if failed.any():
        ids = next(iter(certs.values())).ids
        points = [ids[r] for r in np.flatnonzero(failed.any(axis=0))]
        raise CertificateFailed(f"{failed.sum()} entries at {len(points)} points failed {what}",
                                certificate=certs, failed_ids=points)
