"""JSON schemas and a canonical writer with reproducible bytes.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}, spectra as
{"eigenvalues": [...], "eigenvectors_re": [...], "eigenvectors_im": [...]};
every file this package writes carries "qpos_schema": 1.  The writer sorts
object keys and prints floats with 17 significant digits, so identical data
always serializes to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchemaError
from .fields import FieldPoint, FormField, PositivityCertificate

SCHEMA_VERSION = 1
# what a JSON value of the wrong type or size raises when read as a number
BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


# ---------------------------------------------------------------------------
# canonical writer
# ---------------------------------------------------------------------------

def _canon(obj, out, indent):
    pad = " " * indent
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise SchemaError("<write>", f"non-finite float {x!r} in report")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(str(k), ensure_ascii=True) + ": ")
            _canon(obj[k], out, indent + 2)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
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

def matrix_to_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"dim": int(M.shape[0]), "re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj, path="matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object with dim/re/im")
    try:
        d = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except BAD_VALUE as e:
        raise SchemaError(path, f"bad matrix fields: {e}") from e
    if re.shape != (d, d) or im.shape != (d, d):
        raise SchemaError(path, f"matrix shape {re.shape} does not match dim {d}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SchemaError(path, "matrix has non-finite entries")
    return re + 1j * im


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


def basis_from_json(obj, path="subspace") -> np.ndarray:
    try:
        re = np.asarray(obj["basis_re"], dtype=float)
        im = np.asarray(obj.get("basis_im", np.zeros_like(re)), dtype=float)
    except BAD_VALUE as e:
        raise SchemaError(path, f"bad basis fields: {e}") from e
    if re.ndim != 2 or re.shape != im.shape:
        raise SchemaError(path, "basis arrays must be 2-d and congruent")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SchemaError(path, "basis has non-finite entries")
    return (re + 1j * im).T


# ---------------------------------------------------------------------------
# fields and certificates
# ---------------------------------------------------------------------------

def field_to_json(field: FormField) -> dict:
    points = []
    for p in field.points:
        entry = {"id": p.id, "forms": {k: matrix_to_json(v) for k, v in p.forms.items()}}
        if p.coords is not None:
            entry["coords"] = np.asarray(p.coords).tolist()
        if p.neighbors:
            entry["neighbors"] = list(p.neighbors)
        if p.g0 is not None:
            entry["g0"] = matrix_to_json(p.g0)
        if p.subspace is not None:
            entry["subspace"] = basis_to_json(p.subspace)
        if p.in_F:
            entry["in_F"] = True
        points.append(entry)
    return {"qpos_schema": SCHEMA_VERSION, "dim": field.dim, "points": points}


def field_from_json(obj, path="field") -> FormField:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a top-level object")
    try:
        dim = int(obj["dim"])
        raw_points = obj["points"]
    except BAD_VALUE as e:
        raise SchemaError(path, f"missing field keys: {e}") from e
    if dim < 1:
        raise SchemaError(f"{path}.dim", f"must be at least 1, got {dim}")
    if not isinstance(raw_points, list) or not raw_points:
        raise SchemaError(f"{path}.points", "need a nonempty list of points")
    points = []
    for i, rp in enumerate(raw_points):
        ppath = f"{path}.points[{i}]"
        if not isinstance(rp, dict) or "id" not in rp or "forms" not in rp:
            raise SchemaError(ppath, "every point needs id and forms")
        for key, kind, name in (("forms", dict, "object"), ("neighbors", list, "array")):
            if not isinstance(rp.get(key, kind()), kind):
                raise SchemaError(f"{ppath}.{key}", f"expected a JSON {name}")
        if not all(isinstance(n, (str, int, float)) for n in rp.get("neighbors", [])):
            raise SchemaError(f"{ppath}.neighbors", "entries must be string or number ids")
        try:
            coords = np.asarray(rp["coords"], dtype=float) if "coords" in rp else None
        except BAD_VALUE as e:
            raise SchemaError(f"{ppath}.coords", f"expected numbers: {e}") from e
        forms = {name: matrix_from_json(m, f"{ppath}.forms.{name}")
                 for name, m in rp["forms"].items()}
        points.append(FieldPoint(
            id=rp["id"],
            forms=forms,
            coords=coords,
            neighbors=list(rp["neighbors"]) if rp.get("neighbors") else None,
            g0=matrix_from_json(rp["g0"], f"{ppath}.g0") if "g0" in rp else None,
            subspace=basis_from_json(rp["subspace"], f"{ppath}.subspace")
            if "subspace" in rp else None,
            in_F=bool(rp.get("in_F", False)),
        ))
    try:
        return FormField(dim=dim, points=points)
    except Exception as e:
        raise SchemaError(path, str(e)) from e


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
        "metrics": [{"id": i, "matrix": matrix_to_json(m)} for i, m in zip(ids, metrics)],
    }


def metrics_from_json(obj, path="metrics") -> dict:
    try:
        return {e["id"]: matrix_from_json(e["matrix"], f"{path}.metrics[{k}].matrix")
                for k, e in enumerate(obj["metrics"])}
    except (KeyError, TypeError) as e:
        raise SchemaError(path, f"bad metrics file: {e}") from e


def certificate_to_json(cert: PositivityCertificate) -> dict:
    return {
        "form": cert.form,
        "q": cert.q,
        "passed": cert.passed,
        "entries": [
            {"id": e.point_id, "form": e.form, "q": e.q, "min_sum": e.min_sum,
             "margin": e.margin, "provenance": e.provenance}
            for e in cert.entries
        ],
    }
