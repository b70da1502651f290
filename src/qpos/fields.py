"""Sampled form fields: finite point sets carrying forms, metrics, subspaces.

A :class:`FormField` is the discrete stand-in for a Hermitian form on a
vector bundle over a manifold: a list of sample points, each with named
d x d Hermitian forms and optionally coordinates, neighbor ids, a reference
metric ``g0``, a subbundle fiber, and a flag marking membership in the
anchor set F where the output metric must coincide with g0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CertificateFailed, DimensionMismatch, QOutOfRange, QposError
from .hermitian import pencil_eigvalsh, require_forms, require_metrics

MARGIN_FLOOR_SCALE = 1e-9


@dataclass
class FieldPoint:
    id: object
    forms: dict
    coords: np.ndarray | None = None
    neighbors: list | None = None
    g0: np.ndarray | None = None
    subspace: np.ndarray | None = None  # (d, k) basis columns
    in_F: bool = False


class FormField:
    """A finite sample set with per-point forms; all points share one dim.

    Construction validates each form name's matrices as one (N, d, d) stack
    and keeps it: ``form_stack`` returns that stack (read-only), and each
    point's ``forms`` hold views of its rows.  Rebinding a point's form
    afterwards is not seen by ``form_stack``; build a new field instead.
    """

    def __init__(self, dim: int, points: list[FieldPoint]):
        self.dim = int(dim)
        self.points = list(points)
        self._index = {p.id: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise QposError("duplicate point ids in field")
        self._forms = {}
        self._validate()

    def _validate(self):
        d = self.dim
        for name in self.form_names():
            at = [p for p in self.points if name in p.forms]
            ids = [p.id for p in at]
            S = _stack([p.forms[name] for p in at], (d, d), f"form {name!r}", ids)
            require_forms(S, ids, f"form {name!r}")
            S.flags.writeable = False
            for p, A in zip(at, S):
                p.forms[name] = A
            if len(at) == len(self.points):
                self._forms[name] = S
        for p in self.points:
            if p.in_F and p.g0 is None:
                raise QposError(f"point {p.id!r} is in F but has no g0")
            if p.subspace is not None:
                B = np.asarray(p.subspace, dtype=complex)
                if B.ndim != 2 or B.shape[0] != d:
                    raise DimensionMismatch(f"subspace at {p.id!r} must be (d, k)")
                p.subspace = B
            if p.coords is not None:
                p.coords = np.asarray(p.coords, dtype=float)
        with_g0 = [p for p in self.points if p.g0 is not None]
        if with_g0:  # every g0 in one stacked check
            ids = [p.id for p in with_g0]
            G = _stack([p.g0 for p in with_g0], (d, d), "g0", ids)
            require_metrics(G, ids)
            for p, g in zip(with_g0, G):
                p.g0 = g

    @classmethod
    def from_stacks(cls, ids, forms: dict, subspace=None) -> "FormField":
        """One point per id from (N, d, d) stacks of named forms and (N, d, k) subspaces."""
        dim = next(iter(forms.values())).shape[-1]
        return cls(dim=dim, points=[
            FieldPoint(id=i, forms={name: F[j] for name, F in forms.items()},
                       subspace=None if subspace is None else subspace[j])
            for j, i in enumerate(ids)])

    def __len__(self):
        return len(self.points)

    @property
    def ids(self):
        return [p.id for p in self.points]

    def form_names(self):
        names = set()
        for p in self.points:
            names.update(p.forms)
        return sorted(names, key=str)

    def form_stack(self, name: str) -> np.ndarray:
        """All points' matrices for one named form, shape (N, d, d), read-only."""
        try:
            return self._forms[name]
        except KeyError as e:
            raise QposError(f"form {name!r} missing at some point") from e

    def g0_stack(self) -> np.ndarray:
        """Per-point g0, the identity where absent."""
        eye = np.eye(self.dim, dtype=complex)
        return np.stack([p.g0 if p.g0 is not None else eye for p in self.points])

    def neighbor_indices(self) -> list[list[int]]:
        """Adjacency as index lists; empty lists where no neighbor data."""
        out = []
        for p in self.points:
            if p.neighbors:
                out.append([self._index[n] for n in p.neighbors if n in self._index])
            else:
                out.append([])
        return out

    def has_adjacency(self) -> bool:
        return any(p.neighbors for p in self.points)

    def anchored_mask(self) -> np.ndarray:
        """in_F points plus their 1-ring when adjacency is present.

        This is the finite-sample reading of "a neighborhood of F": the
        output metric is pinned to g0 on exactly this set.
        """
        mask = np.array([p.in_F for p in self.points], dtype=bool)
        if mask.any() and self.has_adjacency():
            extra = np.zeros_like(mask)
            for i, p in enumerate(self.points):
                if mask[i] and p.neighbors:
                    for n in p.neighbors:
                        if n in self._index:
                            extra[self._index[n]] = True
            mask |= extra
        return mask


def _stack(mats, shape, what, ids) -> np.ndarray:
    """The matrices as one complex stack; DimensionMismatch names the first of another shape."""
    for M, i in zip(mats, ids):
        if np.shape(M) != shape:
            raise DimensionMismatch(f"{what} at {i!r} has shape {np.shape(M)}, not {shape}")
    return np.array(mats, dtype=complex)


@dataclass(frozen=True)
class CertificateEntry:
    point_id: object
    form: str
    q: int
    min_sum: float
    margin: float
    provenance: str

    @property
    def passed(self) -> bool:
        return self.margin > 0


@dataclass
class PositivityCertificate:
    """Per-point q-smallest-eigenvalue sums attesting strict q-positivity.

    ``margin = min_sum - MARGIN_FLOOR_SCALE * ||form||_F`` at each point; the
    certificate passes iff every margin is positive.
    """

    form: str
    q: int
    entries: list[CertificateEntry] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed_ids(self):
        return [e.point_id for e in self.entries if not e.passed]

    def min_margin(self) -> float:
        return min((e.margin for e in self.entries), default=float("inf"))


def certify(field: FormField, form: str, q: int, metrics, provenance) -> PositivityCertificate:
    """Certificate that ``metrics`` make the named form strictly q-positive.

    At each point the sum of the q smallest eigenvalues of the form relative
    to its metric (shape (N, d, d) stack) must exceed the floor
    ``MARGIN_FLOOR_SCALE * ||form||_F``.  ``provenance`` is one string for
    every point or one per point.  Raises QOutOfRange unless 1 <= q <= d.
    """
    if not 1 <= q <= field.dim:
        raise QOutOfRange(f"q = {q} not in [1, {field.dim}]")
    if isinstance(provenance, str):
        provenance = [provenance] * len(field)
    S = field.form_stack(form)
    sums = np.sum(pencil_eigvalsh(S, metrics)[:, :q], axis=1)
    floors = MARGIN_FLOOR_SCALE * np.linalg.norm(S, axis=(1, 2))
    entries = [
        CertificateEntry(point_id=i, form=form, q=q, min_sum=float(s),
                         margin=float(s - f), provenance=pv)
        for i, s, f, pv in zip(field.ids, sums, floors, provenance)
    ]
    return PositivityCertificate(form=form, q=q, entries=entries)


def require_passed(certs: dict, what: str) -> None:
    """Raise CertificateFailed, listing the failed point ids, unless all pass."""
    failed = [i for cert in certs.values() for i in cert.failed_ids()]
    if failed:
        raise CertificateFailed(f"{len(failed)} entries failed {what}",
                                certificate=certs, failed_ids=failed)
