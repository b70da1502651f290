"""Sampled form fields: finite point sets carrying forms, metrics, subspaces.

A :class:`FormField` is the discrete stand-in for a Hermitian form on a
vector bundle over a manifold: N sample points of one dimension d, kept as
stacks over the points: an (N, d, d) stack per named Hermitian form, the
reference metrics ``g0``, optionally (N, d, k) subbundle fibers, the mask of
the anchor set F where the output metric must coincide with g0, adjacency
as index arrays, and coordinates as given.  Each stack is validated once,
when the field is built; ``points`` are read-only per-point views of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, DimensionMismatch, QOutOfRange, QposError
from .hermitian import TAU_PD, first_invalid, pencil_eigvalsh

MARGIN_FLOOR_SCALE = 1e-9


@dataclass(frozen=True)
class FieldPoint:
    """One sample point: what ``FormField(dim, points)`` gathers and ``points`` gives back."""

    id: object
    forms: dict
    coords: np.ndarray | None = None
    neighbors: list | None = None
    g0: np.ndarray | None = None
    subspace: np.ndarray | None = None  # (d, k) basis columns
    in_F: bool = False


class FormField:
    """A finite sample set with per-point forms, held as validated read-only stacks.

    ``form_stack(name)`` serves a form named at every point (one some point
    lacks is validated, then dropped); ``g0`` is the identity where
    ``has_g0`` is False; ``subspace`` is None or (N, d, k); ``in_F`` is the
    anchor mask; ``edges = (src, dst)`` holds one index pair per neighbor, in
    point order; ``coords`` is one array (or None) per point, as given.
    """

    def __init__(self, dim: int, points: list[FieldPoint]):
        points = list(points)
        d, ids = int(dim), [p.id for p in points]
        forms, has_forms = {}, {}
        for name in {name for p in points for name in p.forms}:
            forms[name], has_forms[name] = _gathered(
                [p.forms.get(name) for p in points], (d, d), ids, f"forms.{name}")
        g0, has_g0 = _gathered([p.g0 for p in points], (d, d), ids, "g0")
        bases = [p.subspace for p in points]
        k = fiber_rank([None if B is None else np.ndim(B) and np.shape(B)[-1] for B in bases],
                       ids)
        vars(self).update(vars(type(self).from_stacks(  # become the field it builds
            ids, forms, g0=g0, has_g0=has_g0, has_forms=has_forms, dim=d,
            subspace=None if k is None else _gathered(bases, (d, k), ids, "subspace")[0],
            in_F=[p.in_F for p in points], neighbors=[p.neighbors for p in points],
            coords=[None if p.coords is None else np.asarray(p.coords, float) for p in points])))

    @classmethod
    def from_stacks(cls, ids, forms: dict, subspace=None, g0=None, in_F=None,
                    neighbors=None, coords=None, has_g0=None, has_forms=None,
                    dim=None) -> "FormField":
        """A field from (N, d, d) form stacks by name (``dim``: their last axis by default)
        and, optionally, (N, d, k) ``subspace``, ``g0`` matrices, an (N,) ``in_F`` mask and
        per point a neighbor id list and a coordinate array.  ``has_g0`` (an (N,) mask, all
        points by default) marks the points whose matrices ``g0`` stacks, and ``has_forms``
        by name those of a form some point lacks.  Each stack is copied and validated
        once; a defect at a point raises a ``_defect``."""
        field, ids = cls.__new__(cls), list(ids)
        n, d = len(ids), int(next(iter(forms.values())).shape[-1] if dim is None else dim)
        field.dim, field.ids, field.coords = d, ids, coords
        index = dict(zip(ids, range(n)))
        if len(index) < n:
            row = next(r for r, i in enumerate(ids) if index[i] != r)
            raise _defect(QposError, "duplicate point id", ids, row, "id")
        field.forms, field._missing = {}, {}
        for name in sorted(forms, key=str):
            given = (has_forms or {}).get(name, np.ones(n, bool))
            S = _validated(forms[name], d, given, ids, f"forms.{name}")
            if given.all():
                field.forms[name] = S
            else:
                field._missing[name] = int(np.argmin(given))
        field.has_g0 = _frozen(np.zeros(n, bool) if g0 is None else
                               np.ones(n, bool) if has_g0 is None else np.array(has_g0, bool))
        field.g0 = np.array(np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)))
        if field.has_g0.any():
            field.g0[field.has_g0] = _validated(g0, d, field.has_g0, ids, "g0", TAU_PD)
        _frozen(field.g0)
        field.in_F = _frozen(np.zeros(n, bool) if in_F is None else np.array(in_F, dtype=bool))
        if (field.in_F & ~field.has_g0).any():
            row = int(np.argmax(field.in_F & ~field.has_g0))
            raise _defect(QposError, "in F but has no g0", ids, row, "in_F")
        field.subspace = None if subspace is None else _frozen(np.array(subspace, dtype=complex))
        if subspace is not None and field.subspace.shape != (n, d, field.subspace.shape[-1]):
            raise DimensionMismatch(f"subspace stack of shape {field.subspace.shape}")
        src, dst = [], []
        for row, nbrs in enumerate(neighbors or ()):
            for i in nbrs or ():
                if i not in index:
                    raise _defect(QposError, f"neighbor {i!r} names no point", ids, row,
                                  "neighbors")
                src.append(row)
                dst.append(index[i])
        field.edges = (_frozen(np.array(src, dtype=int)), _frozen(np.array(dst, dtype=int)))
        return field

    def __len__(self):
        return len(self.ids)

    @functools.cached_property
    def points(self) -> list[FieldPoint]:
        """Per-point views, built once: their arrays are read-only rows of the stacks."""
        nbrs = self.neighbor_indices()
        return [FieldPoint(id=i, forms={name: S[r] for name, S in self.forms.items()},
                           coords=None if self.coords is None else self.coords[r],
                           neighbors=[self.ids[j] for j in nbrs[r]] or None,
                           g0=self.g0[r] if self.has_g0[r] else None,
                           subspace=None if self.subspace is None else self.subspace[r],
                           in_F=bool(self.in_F[r]))
                for r, i in enumerate(self.ids)]

    def form_stack(self, name: str) -> np.ndarray:
        """All points' matrices for one named form, shape (N, d, d), read-only."""
        if name not in self.forms:
            row = self._missing.get(name, 0)
            raise QposError(f"form {name!r} missing at point {self.ids[row]!r}")
        return self.forms[name]

    def g0_stack(self) -> np.ndarray:
        """Per-point g0, the identity where absent, as a writable copy."""
        return np.array(self.g0)

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


def fiber_rank(ranks, ids):
    """The subspace rank all points share, from each point's rank or None;
    a point unlike the first raises a ``_defect``."""
    for row, k in enumerate(ranks):
        if k != ranks[0]:
            a, b = ("no subspace" if r is None else f"a rank-{r} subspace" for r in (k, ranks[0]))
            raise _defect(DimensionMismatch, f"{a} where point {ids[0]!r} has {b}", ids, row,
                          "subspace")
    return ranks[0] if ranks else None


def _gathered(mats, shape, ids, part):
    """Per-point matrices, None where absent: those given as one complex stack,
    and the (N,) mask of the points that give one."""
    given = np.array([M is not None for M in mats], dtype=bool)
    for r in np.flatnonzero(given):
        if np.shape(mats[r]) != shape:
            raise _defect(DimensionMismatch, f"shape {np.shape(mats[r])} is not {shape}", ids,
                          r, part)
    return np.array([M for M in mats if M is not None], dtype=complex).reshape(-1, *shape), given


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


@dataclass(frozen=True)
class CertificateEntry:
    point_id: object
    form: str
    q: int
    min_sum: float
    margin: float
    provenance: str


@dataclass(frozen=True, eq=False)
class PositivityCertificate:
    """Per-point q-smallest-eigenvalue sums attesting strict q-positivity, as columns.

    ``min_sum``, ``margin`` and ``provenance`` (one string for every point or
    one per point) become read-only (N,) arrays in the order of ``ids``, with
    ``margin = min_sum - MARGIN_FLOOR_SCALE * ||form||_F``; a point fails iff
    ``not margin > 0``.  ``entries`` are per-point ``CertificateEntry`` views, built once.
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
    (one (d, d) matrix or an (N, d, d) stack, else DimensionMismatch) must exceed
    the floor ``MARGIN_FLOOR_SCALE * ||form||_F``.  QOutOfRange unless 1 <= q <= d.
    """
    return certify_forms(field, [form], q, metrics, provenance)[form]


def certify_forms(field: FormField, forms, q: int, metrics, provenance) -> dict:
    """``{name: certify(field, name, q, metrics, provenance)}`` over the named forms,
    bit for bit, from one pencil solve: every form stack is reduced by the one
    factorization of ``metrics``."""
    if not 1 <= q <= field.dim:
        raise QOutOfRange(f"q = {q} not in [1, {field.dim}]")
    S = np.stack([field.form_stack(form) for form in forms])
    if np.shape(metrics) not in (S.shape[1:], S.shape[2:]):
        raise DimensionMismatch(f"metrics of shape {np.shape(metrics)} for forms {S.shape[1:]}")
    sums = np.sum(pencil_eigvalsh(S, metrics)[..., :q], axis=-1)
    margins = sums - MARGIN_FLOOR_SCALE * np.linalg.norm(S, axis=(-2, -1))
    return {form: PositivityCertificate(form, q, field.ids, sums[f], margins[f], provenance)
            for f, form in enumerate(forms)}


def require_passed(certs: dict, what: str) -> None:
    """Raise CertificateFailed, listing the failed point ids, unless all pass."""
    failed = [i for cert in certs.values() for i in cert.failed_ids()]
    if failed:
        raise CertificateFailed(f"{len(failed)} entries failed {what}",
                                certificate=certs, failed_ids=failed)
