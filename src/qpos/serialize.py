"""JSON schemas and a canonical writer with reproducible bytes.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}, spectra as
{"eigenvalues": [...], "eigenvectors_re": [...], "eigenvectors_im": [...]};
every file this package writes carries "qpos_schema": 1.  The writer sorts
object keys and prints floats with 17 significant digits, so identical data
always serializes to identical bytes.

Both directions work on whole arrays.  A float ndarray in a report is
written in one pass: one finite check, then one printf-style ``%`` over all
its entries, with a template per (shape, indent) that reproduces the
nested-list layout of writing it entry by entry.  A field is read as one
(N, d, d) stack per form name, one for g0 and one for subspaces, and a
metrics file as one stack; each stack is converted and checked at once, and
only when a check fails are its entries visited one by one, to name the JSON
path of the first bad one.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import QposError, SchemaError
from .fields import FormField, PositivityCertificate, fiber_rank

SCHEMA_VERSION = 1
# what a JSON value of the wrong type or size raises when read as a number
BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


# ---------------------------------------------------------------------------
# canonical writer
# ---------------------------------------------------------------------------

def _canon(obj, out, indent):
    pad = " " * indent
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        flat = obj.ravel()
        finite = np.isfinite(flat)
        if not finite.all():
            bad = float(flat[np.argmin(finite)])
            raise SchemaError("<write>", f"non-finite float {bad!r} in report")
        out.append(_array_template(obj.shape, indent) % tuple(flat.tolist()))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise SchemaError("<write>", f"non-finite float {x!r} in report")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for i, k in enumerate(keys):
            out.append(pad + "  " + encode_basestring_ascii(str(k)) + ": ")
            _canon(obj[k], out, indent + 2)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, np.ndarray):  # element by element; a 0-d array is its scalar
        _canon(obj.tolist(), out, indent)
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad + "  ")
            _canon(item, out, indent + 2)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise SchemaError("<write>", f"cannot serialize {type(obj).__name__}")


@functools.lru_cache(maxsize=256)
def _array_template(shape, indent):
    """The canonical text of a float array of this shape written at this indent,
    with one ``%.17g`` per entry in C order: the nested-list layout above."""
    if not shape:
        return "%.17g"
    if shape[0] == 0:
        return "[]"
    pad = " " * indent
    item = _array_template(shape[1:], indent + 2)
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join([item] * shape[0]) + "\n" + pad + "]"


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _canon(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_report(path, obj) -> None:
    payload = {"qpos_schema": SCHEMA_VERSION, **obj}
    with open(path, "w") as fh:
        fh.write(dumps_canonical(payload))


# ---------------------------------------------------------------------------
# matrices, spectra, subspaces
# ---------------------------------------------------------------------------

def _integer(value, path) -> int:
    """A JSON integer: an int, or a float with an integral value; never a bool or string."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer())):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return int(value)


def _complex_stack(objs, paths, keys, shape, what) -> np.ndarray:
    """``o[re] + 1j * o[im]`` over the JSON objects ``objs`` as one (N, *shape) stack.

    ``keys = (re, im)``; an absent ``im`` reads as zero.  One conversion and
    one finite check serve the whole stack.  A defect raises SchemaError
    naming the path of the first bad object; the objects are checked one at
    a time only after the stacked check has failed.
    """
    if not objs:
        return np.zeros((0, *shape), dtype=complex)
    re_key, im_key = keys
    try:
        zero = np.zeros(shape)
        re = np.array([o[re_key] for o in objs], dtype=float)
        im = np.array([o[im_key] if im_key in o else zero for o in objs], dtype=float)
        problem = None if re.shape == im.shape == (len(objs), *shape) else \
            f"{what} shape {re.shape[1:]} (imaginary part {im.shape[1:]}) is not {shape}"
    except BAD_VALUE as e:
        problem = f"bad {what} fields: {e}"
    if problem is None:
        A = re + 1j * im
        finite = np.isfinite(A).all(axis=(-2, -1))
        if finite.all():
            return A
        raise SchemaError(paths[int(np.argmin(finite))], f"{what} has non-finite entries")
    if len(objs) == 1:
        raise SchemaError(paths[0], problem)
    for o, path in zip(objs, paths):  # locate the first bad object
        _complex_stack([o], [path], keys, shape, what)
    raise SchemaError(paths[0], problem)


def matrices_from_json(objs, paths, dim=None) -> np.ndarray:
    """JSON matrices as one complex (N, dim, dim) stack, with ``paths`` naming them.

    ``dim`` defaults to the first matrix's own ``"dim"``; every matrix must
    declare it.
    """
    dims = []
    for o, path in zip(objs, paths):
        if not isinstance(o, dict):
            raise SchemaError(path, "expected an object with dim/re/im")
        dims.append(_integer(o.get("dim"), f"{path}.dim"))
    if dims and dim is None:
        dim = dims[0]
    for d, path in zip(dims, paths):
        if d != dim:
            raise SchemaError(f"{path}.dim", f"matrix dim {d} does not match {dim}")
    return _complex_stack(objs, paths, ("re", "im"), (dim, dim), "matrix")


def matrix_arrays(M) -> dict:
    """The matrix schema with float ndarrays, which ``dumps_canonical`` formats
    in one pass each; reports are built from it."""
    M = np.asarray(M, dtype=complex)
    return {"dim": int(M.shape[0]), "re": M.real, "im": M.imag}


def matrix_to_json(M) -> dict:
    """The matrix schema with nested lists, for any JSON encoder."""
    doc = matrix_arrays(M)
    return {**doc, "re": doc["re"].tolist(), "im": doc["im"].tolist()}


def matrix_from_json(obj, path="matrix") -> np.ndarray:
    return matrices_from_json([obj], [path])[0]


def spectrum_to_json(spectrum) -> dict:
    V = np.asarray(spectrum.eigenvectors)
    return {
        "eigenvalues": np.asarray(spectrum.eigenvalues).tolist(),
        "eigenvectors_re": V.real.tolist(),
        "eigenvectors_im": V.imag.tolist(),
    }


def basis_to_json(B) -> dict:
    B = np.asarray(B, dtype=complex)
    # rows of the JSON arrays are the basis vectors
    return {"dim": int(B.shape[0]), "basis_re": B.T.real.tolist(),
            "basis_im": B.T.imag.tolist()}


# ---------------------------------------------------------------------------
# fields and certificates
# ---------------------------------------------------------------------------

def field_to_json(field: FormField) -> dict:
    nbrs = field.neighbor_indices()
    points = []
    for r, i in enumerate(field.ids):
        entry = {"id": i, "forms": {k: matrix_to_json(S[r]) for k, S in field.forms.items()}}
        if field.coords is not None and field.coords[r] is not None:
            entry["coords"] = np.asarray(field.coords[r]).tolist()
        if nbrs[r]:
            entry["neighbors"] = [field.ids[j] for j in nbrs[r]]
        if field.has_g0[r]:
            entry["g0"] = matrix_to_json(field.g0[r])
        if field.subspace is not None:
            entry["subspace"] = basis_to_json(field.subspace[r])
        if field.in_F[r]:
            entry["in_F"] = True
        points.append(entry)
    return {"qpos_schema": SCHEMA_VERSION, "dim": field.dim, "points": points}


def field_from_json(obj, path="field") -> FormField:
    """A field document as a FormField, read as whole stacks.

    The points' matrices are read as one stack per form name, one for g0 and
    one for subspaces, each converted at once, and ``FormField.from_stacks``
    checks each stack once; a defect it finds at one point is reported at
    that point's JSON path.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a top-level object")
    try:
        dim, raw_points = obj["dim"], obj["points"]
    except KeyError as e:
        raise SchemaError(path, f"missing field keys: {e}") from e
    dim = _integer(dim, f"{path}.dim")
    if dim < 1:
        raise SchemaError(f"{path}.dim", f"must be at least 1, got {dim}")
    if not isinstance(raw_points, list) or not raw_points:
        raise SchemaError(f"{path}.points", "need a nonempty list of points")
    n_points = len(raw_points)
    ids, coords, neighbors, in_F, ranks = [], [], [], [], []
    forms, g0, subspace = {}, ([], []), ([], [])  # (point indices, JSON objects)
    for i, rp in enumerate(raw_points):
        ppath = f"{path}.points[{i}]"
        if not isinstance(rp, dict) or "id" not in rp or "forms" not in rp:
            raise SchemaError(ppath, "every point needs id and forms")
        for key, kind, name in (("forms", dict, "object"), ("neighbors", list, "array"),
                                ("in_F", bool, "boolean")):
            if not isinstance(rp.get(key, kind()), kind):
                raise SchemaError(f"{ppath}.{key}", f"expected a JSON {name}")
        if not all(isinstance(n, (str, int, float)) for n in rp.get("neighbors", [])):
            raise SchemaError(f"{ppath}.neighbors", "entries must be string or number ids")
        sub = rp.get("subspace", {"basis_re": []})
        if not (isinstance(sub, dict) and isinstance(sub.get("basis_re"), list)):
            raise SchemaError(f"{ppath}.subspace", "expected an object with a basis_re list")
        try:
            coords.append(np.asarray(rp["coords"], dtype=float) if "coords" in rp else None)
        except BAD_VALUE as e:
            raise SchemaError(f"{ppath}.coords", f"expected numbers: {e}") from e
        ids.append(rp["id"])
        neighbors.append(rp.get("neighbors"))
        in_F.append(rp.get("in_F", False))
        ranks.append(len(sub["basis_re"]) if "subspace" in rp else None)
        for name, m in rp["forms"].items():
            at, objs = forms.setdefault(name, ([], []))
            at.append(i)
            objs.append(m)
        for key, (at, objs) in (("g0", g0), ("subspace", subspace)):
            if key in rp:
                at.append(i)
                objs.append(rp[key])

    def stack(part, at, objs):
        A = matrices_from_json(objs, [f"{path}.points[{i}].{part}" for i in at], dim)
        return A, np.isin(np.arange(n_points), at)

    try:
        k = fiber_rank(ranks, ids)
        B = None if k is None else np.swapaxes(_complex_stack(
            subspace[1], [f"{path}.points[{i}].subspace" for i in subspace[0]],
            ("basis_re", "basis_im"), (k, dim), "basis"), -1, -2)
        stacks = {name: stack(f"forms.{name}", *f) for name, f in forms.items()}
        G, has_g0 = stack("g0", *g0)
        return FormField.from_stacks(
            ids, {name: S for name, (S, _) in stacks.items()}, subspace=B, g0=G, in_F=in_F,
            neighbors=neighbors, coords=coords, has_g0=has_g0,
            has_forms={name: given for name, (_, given) in stacks.items()}, dim=dim)
    except SchemaError:
        raise
    except (QposError, TypeError) as e:  # a defect at one point names its path
        part = getattr(e, "part", None)
        where = path if part is None else f"{path}.points[{e.row}].{part}"
        raise SchemaError(where, str(e)) from e


def read_json(path):
    """Parse a JSON file; malformed JSON raises SchemaError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(str(path), f"invalid JSON: {e}") from e


def load_field(path) -> FormField:
    return field_from_json(read_json(path), path=str(path))


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(read_json(path), path=str(path))


def metrics_to_json(ids, metrics) -> dict:
    return {
        "qpos_schema": SCHEMA_VERSION,
        "metrics": [{"id": i, "matrix": matrix_arrays(m)} for i, m in zip(ids, metrics)],
    }


def metrics_from_json(obj, dim, path="metrics"):
    """A metrics file as ``(rows, G)``: its matrices as one (N, dim, dim) stack and
    the row of each id in it (the last, where an id repeats)."""
    try:
        entries = obj["metrics"]
        rows = {e["id"]: k for k, e in enumerate(entries)}
        mats = [e["matrix"] for e in entries]
    except (KeyError, TypeError) as e:
        raise SchemaError(path, f"bad metrics file: {e}") from e
    where = [f"{path}.metrics[{k}].matrix" for k in range(len(mats))]
    return rows, matrices_from_json(mats, where, dim)


def certificate_to_json(cert: PositivityCertificate) -> dict:
    rows = zip(cert.ids, cert.min_sum.tolist(), cert.margin.tolist(), cert.provenance.tolist())
    return {"form": cert.form, "q": cert.q, "passed": cert.passed,
            "entries": [{"id": i, "form": cert.form, "q": cert.q, "min_sum": s, "margin": m,
                         "provenance": pv} for i, s, m, pv in rows]}
