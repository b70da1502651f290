"""JSON schemas and a canonical writer with reproducible bytes.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}; every file this
package writes carries "qpos_schema": 1.  The writer sorts object keys and
prints floats with 17 significant digits, so identical data always
serializes to identical bytes.

Both directions work on whole arrays.  A float ndarray in a report is
written in one pass: one finite check, then one printf-style ``%`` over all
its entries, with a template per (shape, indent) that reproduces the
nested-list layout of writing it entry by entry.  A per-point list of
objects of one layout (certificate entries, metrics, check points) is a
``RowTable`` of columns: the writer renders its prototype row through the
same code, with each column's place marked, to get the row template, and
formats all rows with one ``%`` over the columns interleaved row by row.
A field is read as one (N, d, d) stack per form name, one for g0 and one
for subspaces, and a metrics file as one stack; each stack is converted and
checked at once, and only when a check fails are its entries visited one by
one, to name the JSON path of the first bad one.

Every file is parsed in ``read_json``: by orjson if it has at least
``FAST_PARSE_BYTES`` (a large field or metrics file) and orjson gives the
document ``json.load`` gives, else by ``json.load``.  An integer literal of
19 or more digits, which orjson turns into a float, sends a file to the
stdlib.  The cyclic garbage collector is paused while a document is built
and until it has been converted and dropped.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DimensionMismatch, QposError, SchemaError
from .fields import FormField, PositivityCertificate, fiber_rank, is_point_id

SCHEMA_VERSION = 1
# what a JSON value of the wrong type or size raises when read as a number
BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)

# Files of at least this size are parsed by orjson (``read_json``).  It reads
# 3-4 times faster than ``json.load``, but importing it costs about 3 ms, so
# the stdlib is faster below about 0.5 MB.
FAST_PARSE_BYTES = 1 << 20
# digits as "0" and the bytes that can stand before a number as " ": an
# integer literal of 19 or more digits then shows as a space and 19 zeros
_NUMERALS = bytes.maketrans(b"0123456789-,:[ \t\n\r", b"0" * 10 + b" " * 8)
_LONG_INTEGER = b" " + b"0" * 19
# a depth that ``json.loads`` reaches from any shallow call stack, and far
# past the few levels of every qpos schema
_FAST_PARSE_DEPTH = 100
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_NESTING_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


# ---------------------------------------------------------------------------
# canonical writer
# ---------------------------------------------------------------------------

class RowTable:
    """A JSON list of objects that share one layout, held as columns.

    ``row`` is the prototype row: a JSON object in which every ndarray is a
    column, whose entry r (a scalar, or a subarray written as nested lists)
    is what row r holds in that place, and every other value is the same in
    all rows.  ``rows()`` is the list of objects the table stands for, and
    ``dumps_canonical`` writes the table and ``rows()`` to the same bytes.
    """

    def __init__(self, row: dict):
        self.columns: list[np.ndarray] = []
        self.layout = _slotted(row, self.columns)
        lengths = {len(c) for c in self.columns}
        if len(lengths) != 1:
            raise DimensionMismatch(f"a row table needs columns of one length, not {lengths}")
        self.n = lengths.pop()

    def rows(self) -> list[dict]:
        values = [c.tolist() for c in self.columns]
        return [_filled(self.layout, iter([v[r] for v in values])) for r in range(self.n)]


class _Slot:
    """Where a column's entry goes in a row: ``mark`` stands for each of its
    scalars, ``shape`` is the entry's shape."""

    def __init__(self, mark: str, shape: tuple):
        self.mark, self.shape = mark, shape


# stand-ins in a row's canonical text for a %.17g float and a %s scalar text;
# the writer escapes both characters, so no other text contains them
_FLOAT_MARK, _TEXT_MARK = "\x00", "\x01"


def _slotted(obj, columns):
    """``obj`` with each ndarray replaced by its slot, the arrays appended to
    ``columns`` in the order ``_canon`` writes them (keys sorted by str)."""
    if isinstance(obj, np.ndarray):
        columns.append(obj)
        return _Slot(_FLOAT_MARK if obj.dtype.kind == "f" else _TEXT_MARK, obj.shape[1:])
    if isinstance(obj, dict):
        return {k: _slotted(obj[k], columns) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_slotted(item, columns) for item in obj]
    return obj


def _filled(obj, values):
    """The slotted ``obj`` with each slot replaced by the next of ``values``."""
    if isinstance(obj, _Slot):
        return next(values)
    if isinstance(obj, dict):
        return {k: _filled(v, values) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_filled(item, values) for item in obj]
    return obj


def _scalar(obj):
    """The canonical text of a JSON scalar (None, bool, int, float or str), else None."""
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise SchemaError("<write>", f"non-finite float {x!r} in report")
        return format(x, ".17g")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return None


def _non_finite(flat):
    bad = float(flat[np.argmin(np.isfinite(flat))])
    return SchemaError("<write>", f"non-finite float {bad!r} in report")


def _canon(obj, out, indent):
    pad = " " * indent
    text = _scalar(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        flat = obj.ravel()
        if not np.isfinite(flat).all():
            raise _non_finite(flat)
        out.append(_array_template(obj.shape, indent) % tuple(flat.tolist()))
    elif isinstance(obj, RowTable):
        out.append(_table_text(obj, indent))
    elif isinstance(obj, _Slot):
        out.append(_array_template(obj.shape, indent).replace("%.17g", obj.mark))
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


def _table_text(table: RowTable, indent) -> str:
    """The canonical text of ``table.rows()``: one ``%`` of the row template,
    repeated, over the columns' scalars interleaved row by row.  The template
    is the layout's own canonical text with ``%`` escaped and the slots'
    marks made formats."""
    n, out = table.n, []
    if n == 0:
        return "[]"
    values = _table_values(table)
    if values is None:  # an entry that is not a scalar
        _canon(table.rows(), out, indent)
        return "".join(out)
    _canon(table.layout, out, indent + 2)
    row = "".join(out).replace("%", "%%").replace(_FLOAT_MARK, "%.17g").replace(_TEXT_MARK, "%s")
    pad = " " * indent
    template = "[\n" + pad + "  " + (",\n" + pad + "  ").join([row] * n) + "\n" + pad + "]"
    return template % values


def _table_values(table: RowTable):
    """The scalars of a nonempty table's rows, row by row, as the row template
    takes them: floats (after one finite check), integers, and the text of
    any other scalar; None if an entry is not a scalar.  Its own function, so
    that its copies are freed before the ``%``."""
    flats = [c.reshape(table.n, -1) for c in table.columns]
    cells = np.empty((table.n, sum(f.shape[1] for f in flats)), dtype=object)
    at = 0
    for c, f in zip(table.columns, flats):
        if c.dtype.kind == "f" and not np.isfinite(f).all():
            raise _non_finite(np.concatenate([g for g in flats if g.dtype.kind == "f"],
                                             axis=1).ravel())
        if c.dtype.kind not in "fiu":  # integers print as %s does; the rest by _scalar
            texts = [_scalar(x) for x in f.ravel().tolist()]
            if None in texts:
                return None
            f = np.array(texts, dtype=object).reshape(f.shape)
        cells[:, at:at + f.shape[1]] = f
        at += f.shape[1]
    return tuple(cells.ravel().tolist())


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
    """Write ``obj`` canonically; a report that cannot be formatted leaves no file behind."""
    text = dumps_canonical({"qpos_schema": SCHEMA_VERSION, **obj})
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# matrices and subspaces
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
    one finite check serve the whole stack.  The parts are read by numpy's
    type inference and must come out as floats or integers, so that a string
    or null entry (or a part of booleans only) is a defect.  A defect raises
    SchemaError naming the path of the first bad object; the objects are
    checked one at a time only after the stacked check has failed.
    """
    if not objs:
        return np.zeros((0, *shape), dtype=complex)
    re_key, im_key = keys
    try:
        zero = np.zeros(shape)
        re = np.array([o[re_key] for o in objs])
        im = np.array([o[im_key] if im_key in o else zero for o in objs])
        problem = None if re.shape == im.shape == (len(objs), *shape) else \
            f"{what} shape {re.shape[1:]} (imaginary part {im.shape[1:]}) is not {shape}"
        if problem is None and {re.dtype.kind, im.dtype.kind} - set("fiu"):
            problem = f"bad {what} fields: entries must be numbers"
    except BAD_VALUE as e:
        problem = f"bad {what} fields: {e}"
    if problem is None:
        with np.errstate(invalid="ignore"):  # 1j * inf is (nan + inf j): the finite test decides
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
    declare it.  One pass over a set accepts the common case, every matrix
    declaring the same int; any other case is read one matrix at a time.
    """
    try:
        dims = [o["dim"] for o in objs]
    except (KeyError, TypeError):
        dims = None
    if dims and set(map(type, dims)) == {int} and len(set(dims)) == 1 \
            and dim in (None, dims[0]):
        return _complex_stack(objs, paths, ("re", "im"), (dims[0], dims[0]), "matrix")
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

    This reader checks JSON types only.  The points' matrices are read as one
    stack per form name, one for g0 and one for subspaces, each converted at
    once, and ``FormField.from_stacks`` enforces every per-point rule; a
    defect it finds at one point is reported at that point's JSON path.
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
    ids, neighbors, in_F, ranks = [], [], [], []
    forms, g0, subspace = {}, ([], []), ([], [])  # (point indices, JSON objects)
    for i, rp in enumerate(raw_points):
        ppath = f"{path}.points[{i}]"
        if not isinstance(rp, dict) or "id" not in rp or "forms" not in rp:
            raise SchemaError(ppath, "every point needs id and forms")
        for key, kind, name in (("forms", dict, "object"), ("neighbors", list, "array"),
                                ("in_F", bool, "boolean")):
            if key in rp and not isinstance(rp[key], kind):
                raise SchemaError(f"{ppath}.{key}", f"expected a JSON {name}")
        sub = rp.get("subspace")
        if "subspace" in rp and not (isinstance(sub, dict)
                                     and isinstance(sub.get("basis_re"), list)):
            raise SchemaError(f"{ppath}.subspace", "expected an object with a basis_re list")
        ids.append(rp["id"])
        neighbors.append(rp.get("neighbors"))
        in_F.append(rp.get("in_F", False))
        ranks.append(None if sub is None else len(sub["basis_re"]))
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
        given = np.zeros(n_points, dtype=bool)
        given[at] = True
        return A, given

    try:
        k = fiber_rank(ranks, ids)
        B = None if k is None else np.swapaxes(_complex_stack(
            subspace[1], [f"{path}.points[{i}].subspace" for i in subspace[0]],
            ("basis_re", "basis_im"), (k, dim), "basis"), -1, -2)
        stacks = {name: stack(f"forms.{name}", *f) for name, f in forms.items()}
        G, has_g0 = stack("g0", *g0)
        return FormField.from_stacks(
            ids, {name: S for name, (S, _) in stacks.items()}, subspace=B, g0=G, in_F=in_F,
            neighbors=neighbors, has_g0=has_g0,
            has_forms={name: given for name, (_, given) in stacks.items()}, dim=dim)
    except SchemaError:
        raise
    except (QposError, TypeError) as e:  # a defect at one point names its path
        part = getattr(e, "part", None)
        where = path if part is None else f"{path}.points[{e.row}].{part}"
        raise SchemaError(where, str(e)) from e


def read_json(path, convert):
    """``convert`` of the JSON file at ``path``, parsed as UTF-8.  Text that is
    not JSON or not UTF-8, or nests too deeply to parse, raises SchemaError
    naming the file; an error that ``convert`` raises propagates unchanged.

    A file of at least ``FAST_PARSE_BYTES`` is parsed by orjson (imported
    then) when a scan of its bytes shows that orjson reads it as
    ``json.load`` does; every other file, and every text that orjson
    refuses (NaN, ``1e400``, a lone surrogate, bad UTF-8, bad JSON), is
    parsed by ``json.load``, so the document and every error message are
    the stdlib's.  The scan exists because orjson reads an integer literal
    outside [-2**63, 2**64) as a float, so a 20-digit id would lose its
    digits, and because orjson 3.8 recurses through nested containers
    without a limit (150,000 levels crash the process): a text with an
    integer literal of 19 or more digits, a nesting deeper than
    ``_FAST_PARSE_DEPTH``, or a string holding a backslash or a bracket
    (the nesting is then not read from the bytes alone) goes to the stdlib.

    The cyclic garbage collector is paused (and its previous state restored)
    from the start of the parse until ``convert`` has returned and the
    document is dropped: the decoders make only acyclic containers, so a
    collection could free nothing, yet the first one after the pause would
    walk every container of a document still alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(_parsed(path))  # no name holds the document past the call
    finally:
        if enabled:
            gc.enable()


def _parsed(path):
    with open(path, encoding="utf-8") as fh:
        if os.fstat(fh.fileno()).st_size < FAST_PARSE_BYTES:
            return _stdlib_parsed(fh, path)
        data = fh.buffer.read()
    if _orjson_reads_as_stdlib(data):
        import orjson
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass  # the stdlib reads or rejects the text, with its own message
    return _stdlib_parsed(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), path)


def _stdlib_parsed(fh, path):
    try:
        return json.load(fh)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError
        what = "not UTF-8 text" if isinstance(e, UnicodeDecodeError) else "invalid JSON"
        raise SchemaError(str(path), f"{what}: {e}") from e


def _orjson_reads_as_stdlib(data: bytes) -> bool:
    """Whether a document orjson accepts from ``data`` is the one ``json.loads``
    gives: no integer literal of 19 or more digits, no string holding a
    backslash or a bracket, and no container nested deeper than
    ``_FAST_PARSE_DEPTH``.  Three passes over the bytes in C and a prefix
    sum over the brackets alone."""
    numerals = data.translate(_NUMERALS)
    # rfind, not find: its skip test reads the needle's first byte, which is
    # rarer here than the last, and it takes half the time
    if numerals.startswith(_LONG_INTEGER[1:]) or numerals.rfind(_LONG_INTEGER) >= 0:
        return False
    structure = data.translate(None, _NOT_STRUCTURE)
    # without escapes, quotes pair left to right, and a string without a
    # bracket leaves its two quotes side by side
    brackets = structure.replace(b'""', b"")
    if b'"' in brackets or b"\\" in brackets:
        return False
    steps = np.frombuffer(brackets.translate(_NESTING_STEPS), dtype=np.int8)
    return not steps.size or int(np.cumsum(steps, dtype=np.int64).max()) <= _FAST_PARSE_DEPTH


def load_field(path) -> FormField:
    return read_json(path, lambda doc: field_from_json(doc, path=str(path)))


def load_matrix(path) -> np.ndarray:
    return read_json(path, lambda doc: matrix_from_json(doc, path=str(path)))


def object_column(values) -> np.ndarray:
    """Values such as point ids as an object column of a RowTable, one entry
    per value (a tuple too)."""
    return np.fromiter(values, dtype=object, count=len(values))


def metrics_to_json(ids, metrics) -> dict:
    G = np.asarray(metrics, dtype=complex)
    return {
        "qpos_schema": SCHEMA_VERSION,
        "metrics": RowTable({"id": object_column(ids),
                             "matrix": {"dim": int(G.shape[-1]), "re": G.real, "im": G.imag}}),
    }


def metrics_from_json(obj, dim, path):
    """A metrics file as ``(rows, G)``: its matrices as one (N, dim, dim) stack and
    the row of each id in it (the last, where an id repeats)."""
    try:
        entries = obj["metrics"]
        ids = [e["id"] for e in entries]
        mats = [e["matrix"] for e in entries]
    except (KeyError, TypeError) as e:
        raise SchemaError(path, f"bad metrics file: {e}") from e
    bad = [k for k, i in enumerate(ids) if not is_point_id(i)]
    if bad:
        raise SchemaError(f"{path}.metrics[{bad[0]}].id", f"{ids[bad[0]]!r} is no point id")
    where = [f"{path}.metrics[{k}].matrix" for k in range(len(mats))]
    return {i: k for k, i in enumerate(ids)}, matrices_from_json(mats, where, dim)


def certificate_arrays(cert: PositivityCertificate) -> dict:
    """The certificate schema with its ``entries`` as one RowTable of the columns."""
    return {"form": cert.form, "q": cert.q, "passed": cert.passed,
            "entries": RowTable({"id": object_column(cert.ids), "form": cert.form, "q": cert.q,
                                 "min_sum": cert.min_sum, "margin": cert.margin,
                                 "provenance": cert.provenance})}


def certificate_to_json(cert: PositivityCertificate) -> dict:
    """The certificate schema with one plain object per entry, for any JSON encoder."""
    doc = certificate_arrays(cert)
    return {**doc, "entries": doc["entries"].rows()}
