"""JSON schemas, canonical bytes, and the command-line interface."""

import argparse
import ast
import contextlib
import copy
import dataclasses
import gc
import importlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from qpos import (DimensionMismatch, FormField, PositivityCertificate, QposError, SchemaError,
                  cli, fields, hermitian, serialize)
from qpos.fields import CertificateEntry, certify
from qpos.hermitian import MARGIN_FLOOR_SCALE
from qpos.serialize import (
    certificate_to_json,
    dumps_canonical,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    metrics_to_json,
)
from qpos.geometry import QuadricDomain
from qpos.synthetic import (
    planted_inertia_field,
    planted_subbundle_field,
    random_hermitian,
    random_metric,
)


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "qpos.cli", *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd)


def _field(ids, forms, **kw):
    """``FormField.from_stacks`` with each form given as one matrix per point."""
    return FormField.from_stacks(
        ids, {name: np.array(mats, dtype=complex) for name, mats in forms.items()}, **kw)


def _constant_pairs():
    """Three points with Q1 = I and Q2 = diag(2, 1)."""
    return _field(range(3), {"Q1": [np.eye(2)] * 3, "Q2": [np.diag([2.0, 1.0])] * 3})


# Layers that a command imports only when it runs them.
COMMAND_LAYERS = ("qpos.riesz", "qpos.metric_single", "qpos.metric_subbundle", "qpos.two_forms",
                  "qpos.synthetic", "qpos.geometry.domains", "qpos.geometry.levi",
                  "qpos.geometry.bump", "qpos.geometry.counterexample")
# Library APIs that no command imports, numpy modules that no command needs,
# and orjson, which parses only files of at least FAST_PARSE_BYTES.
NEVER_LOADED = ("qpos.pair", "qpos.qpositivity", "numpy.ma", "numpy.polynomial", "orjson")


def test_reports_are_their_result_records(tmp_path):
    # the bump report is its record less g0, the projector report its record
    # with the matrix written as "projector", and each constants block a record
    from qpos.geometry.bump import WeightBumpReport
    from qpos.metric_subbundle import PenaltyConstants
    from qpos.riesz import ProjectorResult

    argvs = _command_argvs(tmp_path)

    def written(kind, option):
        out = tmp_path / f"{kind}_report.json"
        r = run_cli(*argvs[kind], option, out)
        assert r.returncode == 0, r.stderr
        return json.loads(out.read_text())

    def keys(record):
        return {f.name for f in dataclasses.fields(record)}

    envelope = {"config", "qpos_schema"}
    assert set(written("bump", "--out")) == keys(WeightBumpReport) - {"g0"} | envelope
    assert set(written("project", "--out")) == (keys(ProjectorResult) - {"matrix"}
                                                 | {"projector"} | envelope)
    constants = written("subbundle", "--report")["constants"]
    assert set(constants) == {"Q1", "Q2", "Q3"}
    assert all(set(c) == keys(PenaltyConstants) for c in constants.values())


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle, and orjson is loaded only to parse a large file;
    # nor does loading the CLI load a layer that only some commands run
    code = ("import sys, qpos.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            f" or m in {COMMAND_LAYERS + NEVER_LOADED!r}))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _command_argvs(tmp_path):
    """One small run of each of the ten command kinds, by kind."""
    rng = np.random.default_rng(5)
    single, pairs, sub, matrix, quad = (tmp_path / f"{name}.json" for name in (
        "single", "pairs", "sub", "matrix", "quadric"))
    single.write_text(dumps_canonical(field_to_json(planted_inertia_field(rng, 6, 4, 2))))
    pairs.write_text(dumps_canonical(field_to_json(_constant_pairs())))
    sub.write_text(dumps_canonical(field_to_json(planted_subbundle_field(rng, 6, 4, 2))))
    matrix.write_text(dumps_canonical(matrix_to_json(np.diag([-2.0, -1.0, 3.0]))))
    quad.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                                "mu": [2.0, 2.0, -0.5, -0.5]}))
    geo = ["--domain", quad, "--samples", 30]
    return {
        "check": ["check", "--input", single, "--form", "S", "--q", 3],
        "project": ["project", "--input", matrix, "--center", -1.75, "--radius", 1.25],
        "single": ["synthesize", "single", "--input", single, "--q", 2],
        "subbundle": ["synthesize", "subbundle", "--input", sub, "--forms", "Q1,Q2,Q3",
                      "--q", 2],
        "two-forms": ["synthesize", "two-forms", "--input", pairs, "--forms", "Q1,Q2",
                      "--angles", 64],
        "levi": ["geometry", "levi", *geo],
        "zq": ["geometry", "zq", *geo, "--q", 2],
        "pipeline": ["geometry", "pipeline", *geo, "--q", 2],
        "bump": ["geometry", "bump", *geo, "--q", 2],
        "counterexample": ["geometry", "counterexample", "--grid", 8],
    }


@pytest.mark.parametrize("kind", ["check", "project", "single", "subbundle", "two-forms",
                                  "levi", "zq", "pipeline", "bump", "counterexample"])
def test_cli_commands_load_no_library_only_module(tmp_path, kind):
    # each command in a fresh interpreter: numpy.ma (which np.setdiff1d and
    # np.unique import), the single-matrix and single-pair APIs, and orjson on
    # these small inputs stay unloaded
    argv = [str(a) for a in _command_argvs(tmp_path)[kind]]
    code = ("import sys, qpos.cli; code = qpos.cli.main(sys.argv[1:]); "
            f"print(code, sorted(m for m in {NEVER_LOADED!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == f"{2 if kind == 'check' else 0} []", r.stdout


# the names `qpos/__init__.py` and `qpos/geometry/__init__.py` imported eagerly
# before they were exported lazily, by the submodule that now defines each (the
# single-matrix and single-pair APIs moved to `qpositivity` and `pair`)
PACKAGE_EXPORTS = {
    "qpos": {
        "errors": ["AmbientMismatch", "BasisNotOrthonormal", "BoundNotFound",
                   "CertificateFailed", "DenominatorNonpositive", "DimensionMismatch",
                   "EigenvalueOnContour", "FrameInvalid", "HypothesisViolated", "LevelNotReached",
                   "NearSingularResolvent", "NoCommonDirection", "NoSpectralGap", "NotFinite",
                   "NotHermitian", "NotPositiveDefinite", "NotPositiveOnV",
                   "ProjectorRoutesDisagree", "QOutOfRange", "QposError", "SchemaError",
                   "VanishingField", "ZeroRepresentative", "ZqViolated"],
        "fields": ["FormField", "PositivityCertificate"],
        "hermitian": ["pencil_eigh", "pencil_eigvalsh"],
        "metric_single": ["negative_projector", "synthesize_single"],
        "metric_subbundle": ["PenaltyConstants", "build_penalty_metric", "choose_C",
                             "compute_constants", "synthesize_subbundle"],
        "pair": ["PairState", "find_common_direction", "pair_metric", "trace_level_curve",
                 "xi_eval"],
        "qpositivity": ["Inertia", "SpectrumWrt", "Subspace", "complement_sum_identity",
                        "inertia", "max_subspace_trace", "projection_dim_sum", "q_min_sum",
                        "restricted_trace", "spectrum_wrt", "trace_wrt"],
        "riesz": ["Disc", "ProjectorResult", "oracle_projector", "quadrature_convergence",
                  "resolvent", "riesz_projector"],
        "two_forms": ["common_direction", "field_metric_top_degree"],
    },
    "qpos.geometry": {
        "bump": ["WeightBumpReport", "chi", "chi_double_prime", "chi_prime", "weight_bump"],
        "counterexample": ["CounterexampleField", "counterexample_build", "counterexample_scan",
                           "form_entries", "sphere_eigenvalue_residuals",
                           "standard_test_fields", "stereographic", "stereographic_inverse",
                           "unit_eigenvector_residuals"],
        "domains": ["BallDomain", "CustomDomain", "Domain", "MqnManifold", "ProductDomain",
                    "QuadricDomain", "complex_hessian", "domain_from_spec",
                    "fd_complex_gradient", "fd_complex_hessian"],
        "levi": ["BoundarySamples", "ZqReport", "adjacency_components", "kernel_frame",
                 "levi_forms", "newton_project", "sample_boundary", "zq_check",
                 "zq_metric_pipeline"],
    },
}


@pytest.mark.parametrize("package", sorted(PACKAGE_EXPORTS))
def test_package_exports_resolve_to_their_defining_modules(package):
    pkg = importlib.import_module(package)
    table = PACKAGE_EXPORTS[package]
    assert sorted(pkg.__all__) == sorted(n for names in table.values() for n in names)
    listed = dir(pkg)
    for module, names in table.items():
        defining = importlib.import_module(f"{package}.{module}")
        assert getattr(pkg, module) is defining
        for name in names:
            assert getattr(pkg, name) is getattr(defining, name), name
            assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pkg.no_such_name


# The parameters of the functions whose tolerances, finite-difference step, penalty
# margin and level xi = 1 are module constants: a keyword that only restates one of
# those constants is a knob that no caller turns.  ``_newton`` keeps its level, which
# its test varies, and ``first_invalid`` its tau_pd, which selects the metric screen.
# The subbundle synthesis takes gamma only as the field's validated g0, and the
# options that no caller set are gone.
SIGNATURES = {
    "qpos.hermitian": {"as_form": "M", "as_metric": "G", "first_invalid": "A tau_pd"},
    "qpos.qpositivity": {
        "_pencil": "H g", "spectrum_wrt": "H g", "trace_wrt": "H g", "q_min_sum": "H g q",
        "max_subspace_trace": "H g q", "inertia": "H", "restricted_trace": "H g W",
        "projection_dim_sum": "V W", "Subspace.check_orthonormal": "self G"},
    "qpos.two_forms": {
        "_ray_level_hits": "Q1t Q2t dirs", "_newton": "mu level", "_arc_bounds": "Q1t Q2t",
        "_midpoint_angles": "Q1t Q2t ends", "_midpoints": "Q1t Q2t ids"},
    "qpos.pair": {"PairState": "Q1 Q2 base", "trace_level_curve": "pair n_angles",
                  "pair_metric": "pair", "find_common_direction": "Q1 Q2"},
    "qpos.metric_subbundle": {
        "choose_C": "A1 A2 A3 q", "_adapted_frames": "field q",
        "compute_constants": "field forms q", "synthesize_subbundle": "field forms q safety",
        "PenaltyConstants": "A1 A2 A3 C kappa q"},
    "qpos.metric_single": {"negative_projector": "S g r"},
    "qpos.riesz": {
        "riesz_projector": "T disc nodes",
        "ProjectorResult": "matrix quad_nodes separation idempotency_defect hermiticity_defect"},
    "qpos.serialize": {"metrics_from_json": "obj dim path"},
    "qpos.errors": {"NoCommonDirection": "point_id t lam_max",
                    "LevelNotReached": "theta radius point_id"},
    "qpos.geometry.domains": {"complex_hessian": "phi p", "fd_complex_gradient": "f z",
                              "fd_complex_hessian": "f z",
                              "CustomDomain": "n rho weight seed_box"},
    "qpos.geometry.levi": {"sample_boundary": "domain count seed"},
    # a record's fields are its report's keys (test_reports_are_their_result_records)
    "qpos.geometry.bump": {
        "WeightBumpReport": "delta0 eta epsilon epsilon_bound B1 B2 kappa claim1_pass "
                            "claim2_min_sums claim3_min_sums trace_identity_max_err "
                            "large_eps_claim3_failures all_claims_pass subbundle_constants g0"},
    "qpos.geometry.counterexample": {"counterexample_build": "R grid_n",
                                     "sphere_eigenvalue_residuals": "R count"},
    "qpos.fields": {
        "FormField.from_stacks": "ids forms subspace g0 in_F neighbors has_g0 has_forms dim"},
    "qpos.synthetic": {
        "planted_inertia_field": "rng n_points d q_tilde nu_choices n_anchor",
        "planted_subbundle_field": "rng n_points d q form_names",
        "random_hermitian": "rng d", "random_pair_with_common_direction": "rng d"},
}


def test_constants_are_not_parameters():
    wrong = {}
    for module, table in SIGNATURES.items():
        for name, params in table.items():
            fn = importlib.import_module(module)
            for part in name.split("."):
                fn = getattr(fn, part)
            got = " ".join(inspect.signature(fn).parameters)
            if got != params:
                wrong[f"{module}.{name}"] = got
    assert not wrong, wrong


KNOB_CEILING = 44


def test_defaulted_parameters_do_not_grow():
    # positional and keyword-only defaults under src/qpos, counted by AST: a new
    # keyword default must raise the ceiling in the same change
    root = Path(importlib.import_module("qpos").__file__).parent
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count <= KNOB_CEILING, count


def test_from_stacks_without_forms_needs_dim():
    with pytest.raises(DimensionMismatch, match="without forms needs its dim"):
        FormField.from_stacks(["a"], {})
    assert FormField.from_stacks(["a"], {}, dim=2).g0.shape == (1, 2, 2)


def test_package_exports_load_on_first_access():
    code = ("import sys, qpos; assert 'qpos.two_forms' not in sys.modules; "
            "qpos.pair.pair_metric; from qpos.geometry import QuadricDomain, zq_check; "
            "print(sorted(m for m in sys.modules if m.startswith('qpos.')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.strip()
    for name in ("qpos.pair", "qpos.two_forms", "qpos.geometry.levi"):
        assert repr(name) in loaded, loaded
    # each name loads its own submodule and what that imports, not the rest of
    # the package: the Z(q) check runs no metric synthesis
    for other in ("qpos.geometry.bump", "qpos.geometry.counterexample", "qpos.metric_single",
                  "qpos.riesz"):
        assert repr(other) not in loaded, loaded


@pytest.mark.parametrize("command", ["single", "check", "two-forms", "input_error", "profiled"])
def test_cli_process_writes_what_main_writes(tmp_path, command):
    # `python -m qpos.cli` exits through `run`, which freezes the import-time
    # heap and ends the process with os._exit after flushing the streams; the
    # process must write the same bytes, streams and code as `main(argv)`.
    # Under cProfile it exits through sys.exit, so the profiler's table follows.
    field = tmp_path / "field.json"
    field.write_text(dumps_canonical(field_to_json(_field(["good", "viol"], {
        "S": [np.eye(3), np.diag([-5.0, 1.0, 2.0])],
        "Q1": [np.eye(3), np.diag([1.0, -0.5, 1.0])],
        "Q2": [np.diag([2.0, 1.0, 0.5]), np.diag([-0.5, 1.0, 1.0])]}))))
    outputs = {}
    for route in ("process", "main"):
        d = tmp_path / route
        d.mkdir()
        argv = {
            "single": ["synthesize", "single", "--input", field, "--q", 2,
                       "--out", d / "metric.json", "--cert", d / "cert.json"],
            "check": ["check", "--input", field, "--form", "S", "--q", 2,
                      "--out", d / "check.json"],
            "two-forms": ["synthesize", "two-forms", "--input", field, "--forms", "Q1,Q2",
                          "--angles", 64, "--out", d / "metric.json", "--cert", d / "cert.json"],
            "input_error": ["check", "--input", field, "--form", "S", "--q", 4],
            "profiled": ["synthesize", "single", "--input", field, "--q", 2,
                         "--cert", d / "cert.json"],
        }[command]
        argv = [str(a) for a in argv]
        if route == "process":
            profiler = ["-m", "cProfile"] if command == "profiled" else []
            r = subprocess.run([sys.executable, *profiler, "-m", "qpos.cli", *argv],
                               capture_output=True, text=True)
            code, stdout, stderr = r.returncode, r.stdout, r.stderr
            if command == "profiled":
                stats = re.search(r"^ *\d+ function calls", stdout, re.M)
                assert stats and "Ordered by:" in stdout[stats.start():], stdout
                stdout = stdout[:stats.start()]
        else:
            with contextlib.redirect_stdout(io.StringIO()) as buf, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            stdout, stderr = buf.getvalue(), err.getvalue()
        outputs[route] = code, stdout, stderr, {p.name: p.read_bytes()
                                                for p in sorted(d.iterdir())}
    assert outputs["process"] == outputs["main"]
    code, stdout, stderr, files = outputs["main"]
    assert code == {"single": 0, "check": 2, "two-forms": 0, "input_error": 1,
                    "profiled": 0}[command]
    assert len(files) == {"single": 2, "check": 1, "two-forms": 2, "input_error": 0,
                          "profiled": 1}[command]
    if command == "input_error":
        assert not stdout and stderr.startswith("input error: --q"), stderr
    else:
        assert stdout and not stderr, stderr


# ------------------------------------------------------------- serialization

def test_matrix_round_trip(rng):
    M = random_hermitian(rng, 4)
    M2 = matrix_from_json(matrix_to_json(M))
    assert_allclose(M, M2, atol=0)


def test_matrix_im_optional():
    M = matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
    assert M.dtype == complex
    assert_allclose(M, np.diag([1.0, 2.0]))


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 3, "re": [[1.0]]})
    with pytest.raises(SchemaError):
        matrix_from_json([1, 2, 3])
    # dim used to go through int(): 2.9 read as 2, true as 1
    for dim in (2.9, True, "2", None):
        with pytest.raises(SchemaError, match=r"m\.dim"):
            matrix_from_json({"dim": dim, "re": [[1.0, 0.0], [0.0, 1.0]]}, "m")
    assert matrix_from_json({"dim": 2.0, "re": [[1.0, 0.0], [0.0, 1.0]]}).shape == (2, 2)


def test_field_round_trip(rng):
    field = planted_inertia_field(rng, 8, 4, 2, n_anchor=2)
    field2 = field_from_json(field_to_json(field))
    assert field2.ids == field.ids
    assert_allclose(field2.form_stack("S"), field.form_stack("S"), atol=0)
    assert field2.in_F[0] and not field2.in_F[-1]


def test_field_round_trip_keeps_neighbors():
    field = _field(["a", "b", "c"], {"S": [S2] * 3}, neighbors=[["b", "c"], ["a"], None])
    doc = field_to_json(field)
    assert [p.get("neighbors") for p in doc["points"]] == [["b", "c"], ["a"], None]
    back = field_from_json(doc)
    assert back.neighbor_indices() == field.neighbor_indices() == [[1, 2], [0], []]
    assert dumps_canonical(field_to_json(back)) == dumps_canonical(doc)


def test_canonical_bytes_are_stable():
    obj = {"b": [1.0, 0.1, 3], "a": {"x": True, "y": None, "z": "s"}}
    s1 = dumps_canonical(obj)
    s2 = dumps_canonical(json.loads(json.dumps(obj)))
    assert s1 == s2
    assert "0.10000000000000001" in s1  # 17 significant digits


def _reference_canon(obj, out, indent):
    """The recursive writer the canonical bytes were defined by: one call per scalar."""
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
            _reference_canon(obj[k], out, indent + 2)
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
            _reference_canon(item, out, indent + 2)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise SchemaError("<write>", f"cannot serialize {type(obj).__name__}")


def _reference_dumps(obj):
    # the recursive writer wrote a 0-d array holding 0.0 as [] and raised on any
    # other; the array writer writes its scalar, which is what it is compared with
    def scalars(o):
        if isinstance(o, np.ndarray) and o.ndim == 0:
            return o.item()
        if isinstance(o, dict):
            return {k: scalars(v) for k, v in o.items()}
        return [scalars(v) for v in o] if isinstance(o, list) else o

    out = []
    _reference_canon(scalars(obj), out, 0)
    return "".join(out) + "\n"


EXTREME_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308, 2.2250738585072014e-308, 0.1])
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EXTREME_FLOATS
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def report_arrays(draw):
    kind = draw(st.sampled_from(["float", "float", "float32", "int", "bool"]))
    if kind == "float":
        a = draw(hnp.arrays(np.float64, SHAPES, elements=FINITE_FLOATS))
    elif kind == "float32":
        a = draw(hnp.arrays(np.float32, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    elif kind == "int":
        a = draw(hnp.arrays(np.int64, SHAPES, elements=st.integers(-2**62, 2**62)))
    else:
        a = draw(hnp.arrays(np.bool_, SHAPES))
    # strided views, as the real and imaginary parts of a complex matrix are
    return a.T if draw(st.booleans()) else a


REPORT_VALUES = st.recursive(
    report_arrays() | FINITE_FLOATS | st.integers(-10**20, 10**20) | st.booleans()
    | st.none() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_writer_matches_recursive_reference(obj):
    assert dumps_canonical(obj) == _reference_dumps(obj)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3), elements=FINITE_FLOATS),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 10**6))
def test_writer_rejects_non_finite_in_arrays(a, bad, where):
    a.flat[where % a.size] = bad
    with pytest.raises(SchemaError, match="non-finite"):
        dumps_canonical({"x": [1, a]})


# ids and form names with quotes, non-ASCII, control characters and printf's %
TABLE_TEXT = st.text(alphabet=st.sampled_from('a%"\\é€\n\x00\x01'), max_size=4)
TABLE_FLOATS = EXTREME_FLOATS | st.sampled_from([1e308, -1e308, 1.0, -3.0, 2.0**53]) \
    | FINITE_FLOATS


def _same_message(a, b):
    """Whether writing ``a`` and writing ``b`` raise SchemaError with one message."""
    messages = []
    for doc in (a, b):
        with pytest.raises(SchemaError) as e:
            dumps_canonical(doc)
        messages.append(str(e.value))
    return messages[0] == messages[1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_table_writes_as_its_rows(data):
    n = data.draw(st.sampled_from([0, 1, 2, 9]), label="n")
    d = data.draw(st.integers(1, 7), label="d")
    scalar_ids = TABLE_TEXT | st.integers(-10**20, 10**20)
    # a tuple id is no scalar: a table holding one is written through its rows
    ids = data.draw(st.lists(data.draw(st.sampled_from(
        [scalar_ids, scalar_ids | st.tuples(st.integers(), TABLE_TEXT)])),
        min_size=n, max_size=n), label="ids")
    form = data.draw(TABLE_TEXT, label="form")

    def floats(*shape):
        return data.draw(hnp.arrays(np.float64, (n, *shape), elements=TABLE_FLOATS))

    table = serialize.RowTable({
        "id": serialize.object_column(ids), "form": form, "q": d, "%s key": floats(d, 2),
        "counts": {"n_plus": np.arange(n) * 10**12, "flag": np.arange(n) % 2 == 0},
        "vector": floats(d), "x": floats(), "const": [None, True, 0.5, {}]})
    cert = PositivityCertificate(form, d, ids, floats(), floats(),
                                 data.draw(st.lists(TABLE_TEXT, min_size=n, max_size=n)))
    G = floats(d, d) + 1j * floats(d, d)
    docs = [(table, table.rows()),
            (serialize.certificate_arrays(cert), certificate_to_json(cert)),
            (metrics_to_json(ids, G),
             {"qpos_schema": 1, "metrics": [{"id": i, "matrix": matrix_to_json(M)}
                                            for i, M in zip(ids, G)]})]
    for doc, rows in docs:
        assert dumps_canonical({"rows": doc}) == dumps_canonical({"rows": rows}) \
            == _reference_dumps({"rows": rows})
    assert certificate_to_json(cert)["entries"] == [
        {"id": i, "form": form, "q": d, "min_sum": s, "margin": m, "provenance": pv}
        for i, s, m, pv in zip(ids, cert.min_sum, cert.margin, cert.provenance)]
    if n:  # a non-finite entry raises the message writing the rows raises
        vector, x = floats(d), floats()
        for _ in range(data.draw(st.integers(1, 3))):
            column = data.draw(st.sampled_from([vector, x]))
            column.flat[data.draw(st.integers(0, column.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        table = serialize.RowTable({"id": serialize.object_column(ids), "vector": vector, "x": x})
        assert _same_message(table, table.rows())


def test_row_table_needs_columns_of_one_length():
    with pytest.raises(DimensionMismatch):
        serialize.RowTable({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(DimensionMismatch):
        serialize.RowTable({"a": 1.0})


@pytest.mark.parametrize("enabled", [True, False])
def test_read_json_restores_gc_state(tmp_path, monkeypatch, enabled):
    # the collector is paused while a document is built, then left as the caller had it
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [1, {"b": null}]}')
    bad.write_text('{"a": [')
    during, parsers = [], []

    def load(fh):
        during.append(gc.isenabled())
        parsers.append("json")
        return json_load(fh)

    def loads(data):
        during.append(gc.isenabled())
        parsers.append("orjson")
        return orjson_loads(data)

    json_load, orjson_loads = json.load, orjson.loads
    monkeypatch.setattr(json, "load", load)
    monkeypatch.setattr(orjson, "loads", loads)
    converting = []

    def converted(doc):
        converting.append(gc.isenabled())
        return doc["a"][0]

    def rejected(doc):
        converting.append(gc.isenabled())
        raise SchemaError("good.json.a[1]", "expected a matrix object")

    def too_deep(doc):
        converting.append(gc.isenabled())
        raise RecursionError("too deep")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert serialize.read_json(good, lambda doc: doc) == {"a": [1, {"b": None}]}
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError, match="invalid JSON"):
            serialize.read_json(bad, converted)
        assert gc.isenabled() is enabled
        # the collector stays paused through the conversion, and is restored
        # after it returns or raises; a conversion's error keeps its own path
        assert serialize.read_json(good, converted) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError) as exc:
            serialize.read_json(good, rejected)
        assert exc.value.path == "good.json.a[1]" and "invalid JSON" not in str(exc.value)
        assert gc.isenabled() is enabled
        with pytest.raises(RecursionError, match="deep"):
            serialize.read_json(good, too_deep)
        assert gc.isenabled() is enabled
        assert parsers == ["json"] * 5
        # past the threshold: orjson's document, its refusal of a malformed
        # text and of NaN (each then parsed by the stdlib), and a long integer
        # that skips orjson, each before a conversion that returns or raises
        for text, reads in (('{"a": [1, {"b": null}]}', ["orjson"]),
                            ('{"a": [', ["orjson", "json"]),
                            ('{"a": [NaN]}', ["orjson", "json"]),
                            ('{"a": [12345678901234567890]}', ["json"])):
            big = tmp_path / "big.json"
            big.write_text(_padded(text))
            del parsers[:]
            if text.endswith("["):
                with pytest.raises(SchemaError, match="invalid JSON"):
                    serialize.read_json(big, converted)
            else:
                assert serialize.read_json(big, len) == 1
                assert gc.isenabled() is enabled
                with pytest.raises(SchemaError, match="matrix"):
                    serialize.read_json(big, rejected)
                reads = reads * 2
            assert gc.isenabled() is enabled
            assert parsers == reads
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] * 15
    assert converting == [False] * 6  # not called for the malformed files


def test_read_json_drops_the_document_before_the_collector_resumes(tmp_path, monkeypatch):
    # the first collection after the pause must not walk a document still alive
    path = tmp_path / "doc.json"
    path.write_text('{"read_json marker": [[1.0]]}')
    alive, enable = [], gc.enable

    def resume():
        alive.append(any(isinstance(o, dict) and "read_json marker" in o
                         for o in gc.get_objects()))
        enable()

    monkeypatch.setattr(gc, "enable", resume)
    was = gc.isenabled()
    enable()
    try:
        assert serialize.read_json(path, len) == 1
    finally:
        (enable if was else gc.disable)()
    assert alive == [False]


def _padded(text):
    """``text`` with trailing spaces that take it past FAST_PARSE_BYTES."""
    return text + " " * serialize.FAST_PARSE_BYTES


def _canonical(doc):
    """``doc`` as nested tuples that tell int from float and bool, -0.0 from
    0.0 and NaN from every number, and keep the order of object keys."""
    if isinstance(doc, dict):
        return ("object", tuple((k, _canonical(v)) for k, v in doc.items()))
    if isinstance(doc, list):
        return ("array", tuple(_canonical(v) for v in doc))
    if isinstance(doc, float):
        return ("float", "nan" if math.isnan(doc) else doc.hex())
    return (type(doc).__name__, doc)


def _stdlib_reading(path):
    """The canonical form of what ``json.load`` reads from the file as UTF-8
    text, or the text of the SchemaError that ``read_json`` makes of its error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _canonical(json.load(fh))
    except (ValueError, RecursionError) as e:
        what = "not UTF-8 text" if isinstance(e, UnicodeDecodeError) else "invalid JSON"
        return str(SchemaError(str(path), f"{what}: {e}"))


def _reading(path):
    try:
        return serialize.read_json(path, _canonical)
    except SchemaError as e:
        return str(e)


# integers orjson reads as floats (outside [-2**63, 2**64)) and those it reads exactly
LONG_INTEGERS = st.integers(10**17, 10**25) | st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | LONG_INTEGERS | LONG_INTEGERS.map(
    lambda n: -n) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["\ud800", "\udfff", "[[{", "]}", '\\"', "é€😀"]))
JSON_DOCS = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=4),
                         max_leaves=16)
# bytes an edit writes: structure, parts of numbers and literals, invalid UTF-8
EDIT_BYTES = st.sampled_from(list(b'[]{}",:\\-+.eE019 \tNIa') + [0x00, 0x80, 0xc0, 0xed, 0xff])


@settings(max_examples=150, deadline=None)
@given(JSON_DOCS, st.booleans(), st.sampled_from([None, 1]),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), EDIT_BYTES), max_size=2),
       st.sampled_from([b" ", b"\n", b"\r\n", b"\t"]), st.booleans())
def test_read_json_past_threshold_reads_as_stdlib(doc, ascii, indent, edits, pad, pad_first):
    # NaN and infinities, lone surrogates (escaped, or as invalid UTF-8 when
    # not ascii), and edits that insert, overwrite or delete a byte
    text = bytearray(json.dumps(doc, ensure_ascii=ascii, indent=indent).encode(
        "utf-8", "surrogatepass"))
    for at, how, byte in edits:
        at %= len(text) + 1
        text[at:at + (how > 0)] = bytes([byte] * (how < 2))
    padding = pad * (serialize.FAST_PARSE_BYTES // len(pad))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(padding + text if pad_first else text + padding)
        assert _reading(path) == _stdlib_reading(path)


DEEP = "[" * 1025 + "]" * 1025
LARGE_TEXT_CASES = {
    **{f"integer_{n}_digits{sign}": f'{{"id": {sign}{"9" * n}}}'
       for n in range(18, 26) for sign in ("", "-")},
    **{f"integer_{name}_first": str(n) for name, n in (
        ("2**63-1", 2**63 - 1), ("2**64", 2**64), ("-2**63-1", -2**63 - 1),
        ("23_digits", 12345678901234567890123))},
    "integer_in_a_float": "[12345678901234567890.5, 0.00012345678901234567, 1e-1234567890123456789]",
    "nan": '{"a": NaN}', "minus_infinity": "[-Infinity]", "overflow": "[1e400]",
    "lone_surrogate": '["\\ud800"]', "not_utf8": b'["\xff"]', "utf8_surrogate": b'["\xed\xa0\x80"]',
    "byte_order_mark": b"\xef\xbb\xbf[]",
    "nested_1025": DEEP, "nested_1025_after_brackets_in_a_string": f'["{"]" * 1100}", {DEEP}]',
    "nested_1025_after_an_escape": f'["\\\\", "\\"]]", {DEEP}]',
    "nested_200": "[" * 200 + "]" * 200,
    "trailing_garbage": '{"a": 1} x', "trailing_comma": "[1, 2,]", "empty": "",
    "duplicate_keys": '{"b": 1, "a": 2, "b": -0.0}', "control_character": '["\x01"]',
}


@pytest.mark.parametrize("case", sorted(LARGE_TEXT_CASES))
def test_read_json_past_threshold_reads_cases_as_stdlib(tmp_path, case):
    text = LARGE_TEXT_CASES[case]
    path = tmp_path / "doc.json"
    data = text if isinstance(text, bytes) else text.encode()
    path.write_bytes(data + b" \r\n\t" * (serialize.FAST_PARSE_BYTES // 4))
    reading = _reading(path)
    assert reading == _stdlib_reading(path)
    if case.startswith("integer_") and "float" not in case:
        assert "float" not in repr(reading)


def test_read_json_opens_a_file_once_and_scans_only_large_ones(tmp_path, monkeypatch):
    opened, scanned = [], []
    real_open, scan = open, serialize._orjson_reads_as_stdlib

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    def counted_scan(data):
        scanned.append(len(data))
        return scan(data)

    monkeypatch.setattr(serialize, "open", counted_open, raising=False)
    monkeypatch.setattr(serialize, "_orjson_reads_as_stdlib", counted_scan)
    small, big = tmp_path / "small.json", tmp_path / "big.json"
    small.write_text("[" + " " * (serialize.FAST_PARSE_BYTES - 3) + "]")
    big.write_text("[" + " " * (serialize.FAST_PARSE_BYTES - 2) + "]")
    assert serialize.read_json(small, len) == serialize.read_json(big, len) == 0
    assert opened == [small, big]
    assert scanned == [serialize.FAST_PARSE_BYTES]


def test_cli_check_echoes_a_long_integer_id_from_a_large_field(tmp_path, rng):
    # orjson would read this id as the float 1.2345678901234568e+22
    doc = field_to_json(planted_inertia_field(rng, 1200, 4, 2))
    doc["points"][7]["id"] = 12345678901234567890123
    path, out = tmp_path / "field.json", tmp_path / "check.json"
    path.write_text(dumps_canonical(doc))
    assert path.stat().st_size >= serialize.FAST_PARSE_BYTES
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "--input", str(path), "--form", "S", "--q", "2",
                  "--out", str(out)])
    assert '"id": 12345678901234567890123,\n' in out.read_text()


@pytest.mark.parametrize("route", ["check_input", "check_metric", "levi_domain",
                                   "project_input"])
@pytest.mark.parametrize("defect", ["not_utf8", "nested_too_deeply", "nested_too_deeply_large"])
def test_cli_rejects_unreadable_json_with_exit_1(tmp_path, route, defect):
    # these used to end in a UnicodeDecodeError or RecursionError traceback; a
    # nesting this deep past FAST_PARSE_BYTES crashes orjson 3.8, which recurses through it
    bad = tmp_path / "bad.json"
    depth = 600_000 if defect.endswith("large") else 100_000
    bad.write_bytes(b"\xff\xfe{" if defect == "not_utf8" else b"[" * depth + b"]" * depth)
    field = tmp_path / "field.json"
    field.write_text(dumps_canonical(field_to_json(_layout_field())))
    argv = {"check_input": ("check", "--input", bad, "--form", "S", "--q", 1),
            "check_metric": ("check", "--input", field, "--form", "S", "--q", 1,
                             "--metric", bad),
            "levi_domain": ("geometry", "levi", "--domain", bad),
            "project_input": ("project", "--input", bad, "--center", -2, "--radius", 1.5)}
    r = run_cli(*argv[route])
    assert r.returncode == 1, r.stdout + r.stderr
    assert str(bad) in r.stderr
    assert ("not UTF-8" if defect == "not_utf8" else "recursion") in r.stderr
    assert "Traceback" not in r.stderr


# ----------------------------------------------------------------------- CLI

@pytest.fixture
def field_file(tmp_path, rng):
    field = planted_inertia_field(rng, 20, 4, 2)
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(field)))
    return path


def test_cli_check_passes_on_positive_field(tmp_path, rng):
    field = planted_inertia_field(rng, 10, 4, 2, nu_choices=[0])
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(field)))
    out = tmp_path / "report.json"
    r = run_cli("check", "--input", path, "--q", 2, "--form", "S", "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["qpos_schema"] == 1
    assert report["points"][0]["inertia"] == {"n_plus": 4, "n_minus": 0, "n_zero": 0}


def test_cli_check_flags_violation(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(
        _field(["good", "viol"], {"S": [np.eye(3), np.diag([-5.0, 1.0, 2.0])]}))))
    out = tmp_path / "report.json"
    r = run_cli("check", "--input", path, "--q", 2, "--form", "S", "--out", out)
    assert r.returncode == 2
    report = json.loads(out.read_text())
    bad = [p for p in report["points"] if p["margin"] <= 0]
    assert [p["id"] for p in bad] == ["viol"]


def test_cli_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    r = run_cli("check", "--input", path, "--q", 2, "--form", "S")
    assert r.returncode == 1
    assert "input error" in r.stderr


def test_cli_project(tmp_path):
    path = tmp_path / "T.json"
    path.write_text(dumps_canonical(matrix_to_json(np.diag([-2.0, -1.0, 3.0]))))
    out = tmp_path / "proj.json"
    r = run_cli("project", "--input", path, "--center", -1.75, "--radius", 1.25,
                "--nodes", 64, "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    P = matrix_from_json(report["projector"])
    assert_allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_cli_synthesize_single_and_check_roundtrip(tmp_path, field_file):
    mets = tmp_path / "metric.json"
    cert = tmp_path / "cert.json"
    r = run_cli("synthesize", "single", "--input", field_file, "--form", "S",
                "--q", 2, "--margin", 0.1, "--out", mets, "--cert", cert)
    assert r.returncode == 0, r.stderr
    cert_obj = json.loads(cert.read_text())
    assert cert_obj["certificates"]["S"]["passed"] is True
    # the synthesized metric certifies the field through the check command
    r2 = run_cli("check", "--input", field_file, "--form", "S", "--q", 2,
                 "--metric", mets)
    assert r2.returncode == 0, r2.stderr


def test_cli_determinism_byte_identical(tmp_path, field_file):
    outs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        mets = d / "metric.json"
        cert = d / "cert.json"
        r = run_cli("--seed", 7, "synthesize", "single", "--input", field_file,
                    "--form", "S", "--q", 2, "--out", mets, "--cert", cert)
        assert r.returncode == 0, r.stderr
        outs.append((mets.read_bytes(), cert.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_geometry_zq_and_bump_determinism(tmp_path):
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"type": "ball", "n": 2}))
    reports = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        out = d / "zq.json"
        r = run_cli("--seed", 3, "geometry", "zq", "--domain", dom, "--q", 1,
                    "--samples", 25, "--out", out)
        assert r.returncode == 0, r.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_synthesize_subbundle_and_two_forms(tmp_path, rng):
    from qpos.synthetic import planted_subbundle_field

    field = planted_subbundle_field(rng, 10, 5, 2)  # gamma travels as the per-point g0
    fpath = tmp_path / "sub.json"
    fpath.write_text(dumps_canonical(field_to_json(field)))
    rep = tmp_path / "constants.json"
    r = run_cli("synthesize", "subbundle", "--input", fpath, "--forms",
                "Q1,Q2,Q3", "--q", 2, "--report", rep)
    assert r.returncode == 0, r.stderr
    consts = json.loads(rep.read_text())["constants"]
    assert set(consts) == {"Q1", "Q2", "Q3"}
    assert all(c["kappa"] >= c["C"] - 1e-15 for c in consts.values())

    tpath = tmp_path / "pairs.json"
    tpath.write_text(dumps_canonical(field_to_json(_constant_pairs())))
    cert = tmp_path / "tf_cert.json"
    r = run_cli("synthesize", "two-forms", "--input", tpath, "--forms", "Q1,Q2",
                "--angles", 128, "--cert", cert)
    assert r.returncode == 0, r.stderr
    payload = json.loads(cert.read_text())
    assert len(payload["gamma_points"]) == 3
    assert payload["certificates"]["Q1"]["passed"] is True


def test_cli_two_forms_ignores_angles(tmp_path, rng):
    # the arc ends and midpoint are exact, so --angles changes no byte; below 1 it still
    # exits 1 (two_forms_zero_angles)
    from qpos.synthetic import random_pair_with_common_direction

    Q1, Q2 = zip(*(random_pair_with_common_direction(rng, 3)[:2] for _ in range(4)))
    path = tmp_path / "pairs.json"
    path.write_text(dumps_canonical(field_to_json(
        _field([f"p{i}" for i in range(4)], {"Q1": Q1, "Q2": Q2}))))
    reports = []
    for k, angles in enumerate(((), ("--angles", 64), ("--angles", 512))):
        out, cert = tmp_path / f"metric{k}.json", tmp_path / f"cert{k}.json"
        r = run_cli("synthesize", "two-forms", "--input", path, "--forms", "Q1,Q2", *angles,
                    "--out", out, "--cert", cert)
        assert r.returncode == 0, r.stderr
        reports.append((out.read_bytes(), cert.read_bytes()))
    assert reports[0] == reports[1] == reports[2]
    assert "ignored" in run_cli("synthesize", "two-forms", "--help").stdout


def test_cli_usage_errors_return_1_in_process_and_help_exits_0(tmp_path):
    # main returns 1 where argparse used to raise SystemExit(2); help still exits 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["check", "--input", str(tmp_path / "field.json")]) == 1
    assert err.getvalue() == ("input error: qpos check: the following arguments are required: "
                              "--form, --q\n")
    r = run_cli("synthesize", "single", "--help")
    assert r.returncode == 0 and "--margin" in r.stdout and not r.stderr, r.stderr


def _parser_actions(parser):
    """Every argument action of ``parser`` and of its subparsers, by parser name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_actions(sub)
        else:
            yield parser.prog, action


def test_numeric_options_state_their_range_in_the_parser():
    # a numeric option's rule lives in its type (cli._option_type), so no command
    # body checks it; --q alone is a bare int, as its range depends on the input
    actions = list(_parser_actions(cli.build_parser()))
    bare = [(prog, a.option_strings) for prog, a in actions
            if a.type in (int, float) and a.option_strings != ["--q"]]
    assert not bare, bare
    # and the walk reached every subparser
    typed = {opt for _, a in actions if a.type is not None for opt in a.option_strings}
    assert typed == {"--seed", "--q", "--center", "--radius", "--nodes", "--margin", "--safety",
                     "--angles", "--samples", "--grid"}


def test_write_report_formats_before_opening(tmp_path):
    # a report that cannot be formatted used to leave an empty file
    out = tmp_path / "report.json"
    with pytest.raises(SchemaError, match="non-finite"):
        serialize.write_report(out, {"x": float("nan")})
    assert not out.exists()


def test_cli_synthesize_subbundle_names_the_fiber_rank_it_found(tmp_path, rng):
    from qpos.synthetic import planted_subbundle_field

    field = planted_subbundle_field(rng, 6, 5, 2)  # fibers of rank 5 - 2 + 1 = 4
    fpath = tmp_path / "sub.json"
    fpath.write_text(dumps_canonical(field_to_json(field)))
    r = run_cli("synthesize", "subbundle", "--input", fpath, "--forms", "Q1,Q2,Q3", "--q", 3)
    assert r.returncode == 2
    assert "no subbundle fibers of rank 3; its fibers have rank 4" in r.stderr, r.stderr


def test_cli_synthesize_subbundle_names_a_basis_that_is_not_orthonormal(tmp_path):
    # g0 = I at both points; the rank-1 basis at p1 has norm 2
    fpath = tmp_path / "sub.json"
    fpath.write_text(dumps_canonical(field_to_json(FormField.from_stacks(
        ["p0", "p1"], {"Q1": np.array([np.eye(2)] * 2, dtype=complex)},
        subspace=np.array([[[1.0], [0.0]], [[2.0], [0.0]]]), g0=np.array([np.eye(2)] * 2)))))
    r = run_cli("synthesize", "subbundle", "--input", fpath, "--forms", "Q1", "--q", 2)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("BasisNotOrthonormal: subspace basis at 'p1' is not "
                               "gamma-orthonormal") and r.stderr.count("\n") == 1, r.stderr


def test_cli_names_the_points_a_certificate_failed_at(tmp_path):
    # --safety 0 takes the penalty to 0, so h is the planted gamma, on which
    # the planted forms are not strictly 2-positive at most points
    fpath = tmp_path / "sub.json"
    fpath.write_text(dumps_canonical(field_to_json(
        planted_subbundle_field(np.random.default_rng(0), 10, 5, 2))))
    r = run_cli("synthesize", "subbundle", "--input", fpath, "--forms", "Q1,Q2,Q3", "--q", 2,
                "--safety", 0)
    assert r.returncode == 2, r.stderr
    match = re.fullmatch(r"certificate failed: (\d+) entries at (\d+) points failed strict "
                         r"2-positivity \(points: ((?:p\d, )*p\d)\)\n", r.stderr)
    assert match, r.stderr
    entries, points = int(match[1]), int(match[2])
    ids = match[3].split(", ")
    # each failing point once, in point order, however many of the forms fail there
    assert ids == sorted(set(ids), key=lambda i: int(i[1:]))
    assert len(ids) == min(points, 10) and points < entries


def test_cli_bump_names_a_kernel_form_that_is_not_positive_definite(tmp_path):
    # at q = 1 both kernel forms must be positive definite, and the product
    # domain's Levi form is flat in one direction
    domain = tmp_path / "product.json"
    domain.write_text(json.dumps({"type": "product", "n": 3, "q": 2}))
    r = run_cli("geometry", "bump", "--domain", domain, "--q", 1, "--samples", 20)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("NotPositiveOnV: form 'levi' is not positive definite on V "
                               "at 0 (smallest restricted eigenvalue "), r.stderr


def test_cli_bump_names_the_subbundle_rank_it_cannot_construct(tmp_path):
    # at n = 4, q = 2 the bump needs a common positive subbundle of rank n - q = 2
    # of the 3-dimensional kernel, and only ranks 1 and 3 are constructed
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"type": "quadric", "n": 4, "q": 2,
                                "mu": [2.0, 2.0, 2.0, -0.5, -0.5]}))
    r = run_cli("geometry", "bump", "--domain", quad, "--q", 2, "--samples", 20)
    assert r.returncode == 2, r.stderr
    assert ("common positive subbundle of rank 2 (1 < rank < 3) is not constructed"
            in r.stderr and r.stderr.count("\n") == 1), r.stderr


def test_cli_geometry_counterexample(tmp_path):
    out = tmp_path / "ce.json"
    r = run_cli("geometry", "counterexample", "--radius", 2, "--grid", 16,
                "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["all_fields_negative"] is True
    assert len(report["scans"]) == 20


BAD_INPUT_CASES = [
    "check_q_above_dim", "check_q_zero", "single_q_above_dim", "subbundle_q_zero",
    "subbundle_q_above_dim", "metric_missing_id",
    "metric_malformed_json", "nan_form_entry", "inf_imaginary_form_entry",
    "metric_malformed_json_large", "nan_form_entry_large", "field_id_nan_large",
    "zq_q_above_range", "zq_q_zero", "bump_q_above_range",
    "domain_quadric_without_mu", "domain_quadric_mu_refused", "domain_not_an_object",
    "domain_unknown_type", "domain_custom_bad_params",
    "two_forms_unknown_form", "two_forms_zero_angles",
    "counterexample_grid_1", "counterexample_negative_radius",
    "field_point_not_object", "field_forms_not_object", "field_neighbors_not_list",
    "field_dim_zero", "check_form_missing_at_a_point",
    "single_form_missing_at_a_point", "metric_not_hermitian", "metric_not_positive_definite",
    "levi_zero_samples", "field_neighbor_not_scalar",
    "field_in_F_string", "field_dim_fractional", "field_dim_bool", "field_dim_string",
    "field_form_dim_fractional", "field_form_dim_bool",
    "project_nodes_4", "project_nodes_0", "project_nodes_huge",
    "project_radius_0", "project_radius_negative",
    "project_radius_nan", "project_radius_inf", "project_center_nan",
    "field_g0_not_positive_definite", "field_g0_not_hermitian", "field_subspace_rank_mismatch",
    "field_subspace_at_some_points", "field_neighbor_names_no_point",
    "field_id_nan", "field_id_array", "field_id_object", "field_id_bool", "field_neighbor_bool",
    "metric_id_bool", "metric_id_nan", "metric_id_unhashable", "domain_mqn",
    "levi_seed_negative", "bump_seed_negative",
    "single_margin_inf", "single_margin_nan", "single_margin_0", "single_margin_negative",
    "subbundle_safety_nan", "subbundle_safety_inf", "subbundle_safety_negative",
    # usage errors used to exit 2 with argparse's usage text, and a path under a
    # regular file to end in a NotADirectoryError traceback
    "check_without_form", "check_q_not_an_integer", "unknown_command", "unrecognised_option",
    "check_seed_negative", "input_under_a_file", "out_under_a_file",
]
FIELD_DEFECTS = {
    "field_point_not_object": (lambda doc: doc["points"].__setitem__(0, 5), ".points[0]"),
    "field_forms_not_object": (lambda doc: doc["points"][0].__setitem__("forms", [1]),
                               ".points[0].forms"),
    "field_neighbors_not_list": (lambda doc: doc["points"][0].__setitem__("neighbors", 5),
                                 ".points[0].neighbors"),
    "field_dim_zero": (lambda doc: doc.__setitem__("dim", 0), ".dim"),
    # bool("false") is True, int(2.9) is 2 and int(True) is 1: each used to be read
    "field_in_F_string": (lambda doc: doc["points"][0].__setitem__("in_F", "false"),
                          ".points[0].in_F"),
    "field_dim_fractional": (lambda doc: doc.__setitem__("dim", 2.9), ".dim"),
    "field_dim_bool": (lambda doc: doc.__setitem__("dim", True), ".dim"),
    "field_dim_string": (lambda doc: doc.__setitem__("dim", "2"), ".dim"),
    "field_form_dim_fractional": (
        lambda doc: doc["points"][1]["forms"]["S"].__setitem__("dim", 2.9), ".points[1].forms.S"),
    "field_form_dim_bool": (
        lambda doc: doc["points"][0]["forms"]["Q1"].__setitem__("dim", True),
        ".points[0].forms.Q1"),
    # these used to pass, or to name only the file or the wrong defect
    "field_g0_not_positive_definite": (
        lambda doc: doc["points"][1].__setitem__("g0", matrix_to_json(np.diag([1.0, -0.5]))),
        ".points[1].g0"),
    "field_g0_not_hermitian": (
        lambda doc: doc["points"][1].__setitem__(
            "g0", matrix_to_json(np.array([[1.0, 50.0], [0.0, 1.0]]))), ".points[1].g0"),
    "field_subspace_rank_mismatch": (
        lambda doc: [p.__setitem__("subspace", {"dim": 2, "basis_re": rows})
                     for p, rows in zip(doc["points"], ([[1, 0], [0, 1]], [[1, 0]]))],
        ".points[1].subspace"),
    "field_subspace_at_some_points": (
        lambda doc: doc["points"][1].__setitem__("subspace", {"dim": 2, "basis_re": [[1, 0]]}),
        ".points[1].subspace"),
    "field_neighbor_names_no_point": (
        lambda doc: doc["points"][1].__setitem__("neighbors", ["p0", "px"]),
        ".points[1].neighbors"),
    # a NaN id used to be read, and writing the report then failed and left an empty file
    "field_id_nan": (lambda doc: doc["points"][1].__setitem__("id", float("nan")),
                     ".points[1].id"),
    "field_id_array": (lambda doc: doc["points"][0].__setitem__("id", [1]), ".points[0].id"),
    "field_id_object": (lambda doc: doc["points"][1].__setitem__("id", {"a": 1}),
                        ".points[1].id"),
    # True == 1, so a true id or neighbor used to name the point with id 1
    "field_id_bool": (lambda doc: doc["points"][1].__setitem__("id", True), ".points[1].id"),
    "field_neighbor_bool": (
        lambda doc: [doc["points"][0].__setitem__("id", 1),
                     doc["points"][1].__setitem__("neighbors", [True])],
        ".points[1].neighbors"),
}
PROJECT_OPTIONS = {
    "project_nodes_4": ("--nodes", 4), "project_nodes_0": ("--nodes", 0),
    # 3.55 PiB of quadrature angles: numpy refuses the size before allocating anything
    "project_nodes_huge": ("--nodes", 10**15),
    "project_radius_0": ("--radius", 0), "project_radius_negative": ("--radius", -1),
    "project_radius_nan": ("--radius", "nan"), "project_radius_inf": ("--radius", "inf"),
    "project_center_nan": ("--center", "nan"),
}
# values the syntheses cannot use; on fields that need them they used to end in
# a traceback, or to exit 2 as a failed stage inequality
SYNTHESIS_OPTIONS = {
    "single_margin_inf": ("single", "--margin", "inf"),
    "single_margin_nan": ("single", "--margin", "nan"),
    "single_margin_0": ("single", "--margin", 0),
    "single_margin_negative": ("single", "--margin", -1),
    "subbundle_safety_nan": ("subbundle", "--safety", "nan"),
    "subbundle_safety_inf": ("subbundle", "--safety", "inf"),
    "subbundle_safety_negative": ("subbundle", "--safety", -1),
}


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_cli_rejects_bad_input_with_exit_1(tmp_path, case):
    # each case used to pass, fail with exit 2 or end in a traceback; a
    # "_large" case is its base case in a file padded past FAST_PARSE_BYTES
    large = case.endswith("_large")
    case = case.removesuffix("_large")
    S = np.diag([1.0, 2.0]).astype(complex)
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(
        _field(["p0", "p1"], {"S": [S, S], "Q1": [S, S]}))))
    metric = tmp_path / "metric.json"
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                                "mu": [2.0, 2.0, -0.5, -0.5]}))
    check = ("check", "--input", path, "--form", "S")
    two = ("synthesize", "two-forms", "--input", path)
    geo = ("geometry", "zq", "--domain", quad, "--samples", 20)
    if case == "check_q_above_dim":
        argv, named = check + ("--q", 5), "--q"
    elif case == "check_q_zero":
        argv, named = check + ("--q", 0), "--q"
    elif case == "single_q_above_dim":
        argv, named = ("synthesize", "single", "--input", path, "--q", 9), "--q"
    elif case in ("subbundle_q_zero", "subbundle_q_above_dim"):
        # q outside [1, d] used to exit 2, as a field without fibers of rank d - q + 1
        q = 0 if case == "subbundle_q_zero" else 3
        argv = ("synthesize", "subbundle", "--input", path, "--forms", "S,Q1", "--q", q)
        named = "--q"
    elif case == "metric_missing_id":
        metric.write_text(dumps_canonical(metrics_to_json(["p0"], [np.eye(2)])))
        argv, named = check + ("--q", 1, "--metric", metric), f"{metric}.metrics"
    elif case in ("metric_id_bool", "metric_id_nan", "metric_id_unhashable"):
        # a true id used to serve as the metric of the point with id 1, a NaN
        # id to be ignored, and a list id to be named by the file alone
        doc = json.loads(path.read_text())
        doc["points"][1]["id"] = 1
        path.write_text(json.dumps(doc))
        metric.write_text(json.dumps({"metrics": [
            {"id": "p0", "matrix": matrix_to_json(np.eye(2))},
            {"id": {"metric_id_bool": True, "metric_id_nan": float("nan"),
                    "metric_id_unhashable": [1]}[case],
             "matrix": matrix_to_json(np.eye(2))}]}))
        argv, named = check + ("--q", 1, "--metric", metric), f"{metric}.metrics[1].id"
    elif case == "metric_malformed_json":
        metric.write_text('{"metrics": [')
        argv, named = check + ("--q", 1, "--metric", metric), str(metric)
    elif case == "nan_form_entry":
        doc = json.loads(path.read_text())
        doc["points"][1]["forms"]["S"]["re"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        argv, named = check + ("--q", 1), f"{path}.points[1].forms.S"
    elif case == "inf_imaginary_form_entry":
        # 1j * inf is NaN + inf j, and numpy used to warn on stderr before the error
        doc = json.loads(path.read_text())
        doc["points"][1]["forms"]["S"]["im"] = [[0.0, float("inf")], [0.0, 0.0]]
        path.write_text(json.dumps(doc))
        argv, named = check + ("--q", 1), f"{path}.points[1].forms.S"
    elif case == "zq_q_above_range":
        argv, named = geo + ("--q", 7), "--q"
    elif case == "zq_q_zero":
        argv, named = geo + ("--q", 0), "--q"
    elif case == "bump_q_above_range":
        argv, named = ("geometry", "bump", "--domain", quad, "--q", 5), "--q"
    elif case.startswith("domain_"):
        spec = {"domain_quadric_without_mu": {"type": "quadric", "n": 3},
                # well-typed, but QuadricDomain needs mu_j > 1 on the plus block
                "domain_quadric_mu_refused": {"type": "quadric", "n": 3, "q": 2,
                                              "mu": [0.5, 2.0, -0.5, -0.5]},
                "domain_not_an_object": [1, 2],
                "domain_unknown_type": {"type": "torus", "n": 3},
                "domain_custom_bad_params": {"type": "custom", "params": {"x": 1},
                                             "target": "qpos.geometry:BallDomain"},
                "domain_mqn": {"type": "mqn", "n": 3, "q": 2}}[case]
        quad.write_text(json.dumps(spec))
        named = {"domain_quadric_without_mu": f"{quad}.mu",
                 "domain_quadric_mu_refused": f"{quad}.mu", "domain_not_an_object": str(quad),
                 "domain_unknown_type": f"{quad}.type",
                 "domain_custom_bad_params": f"{quad}.type", "domain_mqn": f"{quad}.type"}[case]
        argv = (("geometry", "levi", "--domain", quad) if case == "domain_mqn"
                else geo + ("--q", 1))
    elif case == "two_forms_unknown_form":
        argv, named = two + ("--forms", "Q1,Qx"), "--forms"
    elif case == "two_forms_zero_angles":
        argv, named = two + ("--forms", "S,Q1", "--angles", 0), "--angles"
    elif case == "counterexample_grid_1":
        argv, named = ("geometry", "counterexample", "--grid", 1), "--grid"
    elif case in FIELD_DEFECTS:
        doc = json.loads(path.read_text())
        mutate, suffix = FIELD_DEFECTS[case]
        mutate(doc)
        path.write_text(json.dumps(doc))
        argv, named = check + ("--q", 1), f"{path}{suffix}"
    elif case == "field_neighbor_not_scalar":
        # an unhashable neighbor id used to reach FormField.anchored_mask
        doc = json.loads(path.read_text())
        doc["points"][0].update(in_F=True, g0=matrix_to_json(np.eye(2)), neighbors=[[0.5]])
        path.write_text(json.dumps(doc))
        argv = ("synthesize", "single", "--input", path, "--q", 1, "--form", "S")
        named = f"{path}.points[0].neighbors"
    elif case.endswith("form_missing_at_a_point"):
        doc = json.loads(path.read_text())
        del doc["points"][1]["forms"]["Q1"]
        path.write_text(json.dumps(doc))
        argv = (("check", "--input", path, "--q", 1) if case.startswith("check")
                else ("synthesize", "single", "--input", path, "--q", 1))
        argv, named = argv + ("--form", "Q1"), "--form"
    elif case.startswith("metric_not"):
        # cholesky reads only the lower triangle, so the first used to pass as I
        bad = (np.array([[1.0, 50.0], [0.0, 1.0]]) if case == "metric_not_hermitian"
               else np.diag([1.0, -0.5]))
        metric.write_text(dumps_canonical(metrics_to_json(["p0", "p1"], [np.eye(2), bad])))
        argv, named = check + ("--q", 2, "--metric", metric), f"{metric}.metrics[1].matrix"
    elif case in PROJECT_OPTIONS:
        matrix = tmp_path / "T.json"
        matrix.write_text(dumps_canonical(matrix_to_json(np.diag([-2.0, 1.0]))))
        option = dict([("--center", -2.0), ("--radius", 1.5), ("--nodes", 16),
                       PROJECT_OPTIONS[case]])
        argv = ("project", "--input", matrix, *(x for kv in option.items() for x in kv))
        named = "out of memory" if case == "project_nodes_huge" else PROJECT_OPTIONS[case][0]
    elif case in SYNTHESIS_OPTIONS:
        mode, option, value = SYNTHESIS_OPTIONS[case]
        forms = ("--form", "S") if mode == "single" else ("--forms", "S,Q1")
        argv = ("synthesize", mode, "--input", path, "--q", 1, *forms, option, value)
        named = option
    elif case == "levi_zero_samples":
        argv, named = ("geometry", "levi", "--domain", quad, "--samples", 0), "--samples"
    elif case == "levi_seed_negative":
        argv, named = ("--seed", -1, "geometry", "levi", "--domain", quad), "--seed"
    elif case == "bump_seed_negative":
        argv, named = ("--seed", -1, "geometry", "bump", "--domain", quad, "--q", 2), "--seed"
    elif case == "check_seed_negative":
        argv, named = ("--seed", -1) + check + ("--q", 1), "--seed"
    elif case == "check_without_form":
        argv, named = ("check", "--input", path, "--q", 1), "--form"
    elif case == "check_q_not_an_integer":
        argv, named = check + ("--q", "two"), "--q"
    elif case == "unknown_command":
        argv, named = ("frobnicate", "--input", path), "frobnicate"
    elif case == "unrecognised_option":
        argv, named = check + ("--q", 1, "--forms", "S"), "--forms"
    elif case == "input_under_a_file":
        argv = ("check", "--input", path / "field.json", "--form", "S", "--q", 1)
        named = str(path / "field.json")
    elif case == "out_under_a_file":
        argv, named = check + ("--q", 1, "--out", path / "report.json"), str(path / "report.json")
    else:
        argv, named = ("geometry", "counterexample", "--radius", -1), "--radius"
    if large:
        padded = metric if case.startswith("metric") else path
        padded.write_text(_padded(padded.read_text()))
    r = run_cli(*argv)
    assert r.returncode == 1, r.stdout + r.stderr
    assert named in r.stderr
    assert r.stderr.startswith("input error: ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr


DOMAIN_TEMPLATES = [
    {"type": "ball", "n": 2},
    {"type": "quadric", "n": 3, "q": 2, "mu": [2.0, 2.0, -0.5, -0.5]},
    {"type": "product", "n": 3, "q": 2, "radius": 1.5},
    {"type": "mqn", "n": 3, "q": 2},
]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(), st.text(max_size=4),
    st.lists(st.floats(-3, 3), max_size=5),
    st.sampled_from(["ball", "quadric", "product", "mqn", "custom"]))


@st.composite
def mutated_domain_specs(draw):
    spec = copy.deepcopy(draw(st.sampled_from(DOMAIN_TEMPLATES)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["type", "n", "q", "mu", "radius"]))
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(JSON_VALUES)
    return spec if draw(st.integers(0, 9)) else draw(JSON_VALUES)


@settings(max_examples=60, deadline=None)
@given(mutated_domain_specs(), st.sampled_from([("levi",), ("zq", "--q", "1")]))
def test_cli_domain_spec_fuzz_exits_cleanly(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        dom = Path(tmp) / "dom.json"
        dom.write_text(json.dumps(spec))
        argv = ["geometry", command[0], "--domain", str(dom), "--samples", "6", *command[1:]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert str(dom) in err.getvalue()


FIELD_TEMPLATE = {"dim": 2, "points": [
    {"id": "p0", "forms": {"S": {"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]],
                                 "im": [[0.0, 0.5], [-0.5, 0.0]]}},
     "neighbors": ["p1"], "in_F": True,
     "g0": {"dim": 2, "re": [[2.0, 0.5], [0.5, 1.0]]}},
    {"id": "p1", "forms": {"S": {"dim": 2, "re": [[1.0, 0.5], [0.5, -0.2]]}},
     "neighbors": ["p0"]},
]}
METRIC_TEMPLATE = {"metrics": [
    {"id": "p0", "matrix": {"dim": 2, "re": [[2.0, 0.5], [0.5, 1.0]]}},
    {"id": "p1", "matrix": {"dim": 2, "re": [[1.0, 0.0], [0.0, 3.0]],
                            "im": [[0.0, 0.1], [-0.1, 0.0]]}},
]}


def _json_paths(obj, prefix=()):
    """Every key or index path inside a JSON document."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _json_paths(v, prefix + (k,))


@st.composite
def mutated_documents(draw, template):
    doc = copy.deepcopy(template)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(JSON_VALUES)
    return doc


# an overflow is an error here: a margin that overflows to -inf fails a positive form
@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(mutated_documents(FIELD_TEMPLATE), st.none() | mutated_documents(METRIC_TEMPLATE),
       st.sampled_from([("check", "--q", "1"), ("check", "--q", "2"),
                        ("synthesize", "single", "--q", "2")]))
def test_cli_field_and_metric_fuzz_exits_cleanly(field_doc, metric_doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        field = Path(tmp) / "field.json"
        field.write_text(json.dumps(field_doc))
        argv = [*command, "--input", str(field), "--form", "S"]
        metric = Path(tmp) / "metric.json"
        if metric_doc is not None and command[0] == "check":
            metric.write_text(json.dumps(metric_doc))
            argv += ["--metric", str(metric)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        # a damaged file is named by its path; a form deleted at one point by --form
        assert any(s in err.getvalue() for s in (str(field), str(metric), "--form"))


def _calls(monkeypatch, argv, targets):
    """Run the CLI with each ``(owner, name)`` function wrapped; the calls of each name."""
    calls = {name: 0 for _, name in targets}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        for owner, name in targets:
            m.setattr(owner, name, counting(name, getattr(owner, name)))
        assert cli.main([str(a) for a in argv]) == 0
    return calls


def _eigvalsh_calls(monkeypatch, argv):
    return _calls(monkeypatch, argv, [(np.linalg, "eigvalsh")])["eigvalsh"]


def test_cli_eigensolve_count_does_not_grow_with_points(tmp_path, rng, monkeypatch):
    # batched over points: a per-point eigvalsh loop in check or levi fails here
    counts = {}
    for n in (30, 300):
        field, metric = tmp_path / f"field{n}.json", tmp_path / f"metric{n}.json"
        points = planted_inertia_field(rng, n, 4, 2, nu_choices=[0])
        field.write_text(dumps_canonical(field_to_json(points)))
        metric.write_text(dumps_canonical(metrics_to_json(points.ids, [np.eye(4)] * n)))
        counts["check", n] = _eigvalsh_calls(monkeypatch, [
            "check", "--input", field, "--form", "S", "--q", 2, "--metric", metric,
            "--out", tmp_path / "check.json"])
    for n in (30, 300):
        # every point carries its g0, which FormField validates
        field = planted_subbundle_field(rng, n, 4, 2)
        path = tmp_path / f"sub{n}.json"
        path.write_text(dumps_canonical(field_to_json(field)))
        counts["subbundle", n] = _eigvalsh_calls(monkeypatch, [
            "synthesize", "subbundle", "--input", path, "--forms", "Q1,Q2,Q3", "--q", 2])
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"type": "ball", "n": 3}))
    for n in (10, 100):
        counts["levi", n] = _eigvalsh_calls(monkeypatch, [
            "geometry", "levi", "--domain", dom, "--samples", n,
            "--out", tmp_path / "levi.json"])
    assert counts["check", 30] == counts["check", 300] <= 3, counts
    assert counts["subbundle", 30] == counts["subbundle", 300], counts
    assert counts["levi", 10] == counts["levi", 100] == 1, counts


def test_cli_io_call_counts_do_not_grow_with_size(tmp_path, rng, monkeypatch):
    # whole-array I/O: one writer call per array, not per entry, and one
    # stacked read per form name, not one matrix read and check per point
    writes = {}
    for d in (4, 16):
        field = tmp_path / f"field{d}.json"
        field.write_text(dumps_canonical(field_to_json(
            planted_inertia_field(rng, 30, d, 2, nu_choices=[0]))))
        writes[d] = _calls(monkeypatch, ["synthesize", "single", "--input", field, "--q", 2,
                                         "--out", tmp_path / "metric.json"],
                           [(serialize, "_canon")])
    reads, subs = {}, {}
    targets = [(hermitian, "as_form"), (serialize, "matrix_from_json"),
               (np.linalg, "eigvalsh"), (fields, "first_invalid")]
    for n in (30, 300):
        field = tmp_path / f"points{n}.json"
        field.write_text(dumps_canonical(field_to_json(
            planted_inertia_field(rng, n, 4, 2, nu_choices=[0]))))
        reads[n] = _calls(monkeypatch, ["check", "--input", field, "--form", "S", "--q", 2],
                          targets)
        # g0 and a subspace at every point, as the benchmark's subbundle file
        field = tmp_path / f"sub{n}.json"
        field.write_text(dumps_canonical(field_to_json(planted_subbundle_field(rng, n, 4, 2))))
        subs[n] = _calls(monkeypatch, ["synthesize", "subbundle", "--input", field,
                                       "--forms", "Q1,Q2,Q3", "--q", 2], targets)
    assert writes[4] == writes[16], writes
    assert reads[30] == reads[300], reads
    assert subs[30] == subs[300], subs
    # one check per stack read: S; then Q1, Q2, Q3 and g0
    assert reads[30]["first_invalid"] == 1 and subs[30]["first_invalid"] == 4, (reads, subs)


def test_cli_factors_each_metric_stack_once(tmp_path, rng, monkeypatch):
    # subbundle: gamma once (its frames and coarse bounds), h once (every
    # form's certificate); it factored them 7 times.  two-forms: g0 and the
    # metrics.  check screens its metrics by Cholesky: its two eigensolves are
    # the certificate and the inertia columns (g0 and the metrics file used two more)
    from qpos import metric_subbundle, two_forms
    from qpos.synthetic import random_pair_with_common_direction

    path = tmp_path / "sub.json"
    path.write_text(dumps_canonical(field_to_json(planted_subbundle_field(rng, 20, 5, 2))))
    factors = [(hermitian, "congruence"), (metric_subbundle, "congruence"),
               (two_forms, "congruence")]
    assert _calls(monkeypatch, ["synthesize", "subbundle", "--input", path,
                                "--forms", "Q1,Q2,Q3", "--q", 2], factors)["congruence"] == 2
    rows = [(*random_pair_with_common_direction(rng, 3)[:2], random_metric(rng, 3))
            for _ in range(5)]
    Q1, Q2, g0 = zip(*rows)
    pairs = _field(range(5), {"Q1": Q1, "Q2": Q2}, g0=np.array(g0))
    path = tmp_path / "pairs.json"
    path.write_text(dumps_canonical(field_to_json(pairs)))
    assert _calls(monkeypatch, ["synthesize", "two-forms", "--input", path, "--forms", "Q1,Q2"],
                  factors)["congruence"] == 2

    field = planted_inertia_field(rng, 40, 4, 2, nu_choices=[0], n_anchor=5)
    path, metric = tmp_path / "field.json", tmp_path / "metric.json"
    path.write_text(dumps_canonical(field_to_json(field)))
    metric.write_text(dumps_canonical(metrics_to_json(field.ids, random_metric(rng, 4)[None]
                                                      .repeat(40, axis=0))))
    assert _eigvalsh_calls(monkeypatch, ["check", "--input", path, "--form", "S", "--q", 2,
                                         "--metric", metric, "--out", tmp_path / "c.json"]) == 2

    # bump on the benchmark quadric: one congruence of its (N, n, n) g0 stack serves the
    # trace bounds, the eta dual, claim 3, the control and the trace-check frames (it
    # factored that stack six times)
    quad = tmp_path / "quadric.json"
    quad.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                                "mu": [2.0, 2.0, -0.5, -0.5]}))
    shapes, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a, *args, **kw: shapes.append(np.shape(a)) or cholesky(a, *args, **kw))
    _calls(monkeypatch, ["--seed", 1, "geometry", "bump", "--domain", quad, "--q", 2,
                         "--samples", 250], [])
    assert shapes.count((250, 3, 3)) == 1 and (100, 3, 3) not in shapes, shapes


def test_cli_synthesize_single_solves_each_stack_once(tmp_path, rng, monkeypatch):
    # without g0 every metric is I: for exactly Hermitian forms one pencil
    # eigendecomposition gives the hypothesis counts and the inflation (the
    # counts had an eigvalsh of their own), the certificate is one eigvalsh, and
    # no identity metric is factored (the inflation and the certificate
    # factored all of them).  Forms Hermitian only within tolerance, as
    # planted, keep the counts' own eigvalsh of S
    seen = {}
    for n, exact in ((30, True), (300, True), (30, False), (300, False)):
        S = planted_inertia_field(rng, n, 4, 2).form_stack("S")
        if exact:
            S = 0.5 * (S + np.conj(np.swapaxes(S, -1, -2)))
        path = tmp_path / f"field{n}.json"
        path.write_text(dumps_canonical(field_to_json(
            FormField.from_stacks([f"p{i}" for i in range(n)], {"S": S}))))
        shapes, identity_rows = [], []

        def recorded(name, fn):
            def call(a, *args, **kwargs):
                shapes.append((name, np.ndim(a)))
                if name == "cholesky":
                    identity_rows.append(int(np.sum(hermitian.identity_rows(a))))
                return fn(a, *args, **kwargs)
            return call

        with monkeypatch.context() as m:
            for name in ("eigh", "eigvalsh", "cholesky"):
                m.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
            _calls(m, ["synthesize", "single", "--input", path, "--q", 2,
                       "--out", tmp_path / "metric.json"], [])
        stacked = [name for name, ndim in shapes if ndim >= 3 and name != "cholesky"]
        assert sorted(stacked) == ["eigh", "eigvalsh"] + ["eigvalsh"] * (not exact), shapes
        assert sum(identity_rows) == 0, identity_rows
        # the rest are the Riesz check's one-matrix solves and metric screens
        seen[n, exact] = sorted(shapes)
    assert seen[30, True] == seen[300, True] and seen[30, False] == seen[300, False], seen


def test_cli_bump_solves_each_hessian_stack_once(tmp_path, monkeypatch):
    # B1 and B2 take both q-sum ends of the weight and rho Hessians from one
    # spectrum each: five (N, n, n) eigensolves, where the two ends took seven
    quad = tmp_path / "quadric.json"
    quad.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                                "mu": [2.0, 2.0, -0.5, -0.5]}))
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw: shapes.append(np.shape(a)) or eigvalsh(a))
    _calls(monkeypatch, ["--seed", 1, "geometry", "bump", "--domain", quad, "--q", 2,
                         "--samples", 250], [])
    assert shapes.count((250, 3, 3)) == 5, shapes


def test_field_reader_takes_integral_float_dims_and_rejects_boolean_ones(tmp_path, rng):
    # all dims the same int are checked in one pass; any other mix falls back
    # to one check per matrix, which reads 2.0 as 2 and refuses True, even where
    # True equals (and hashes as) the field's dim 1
    doc = field_to_json(planted_inertia_field(rng, 5, 2, 1, nu_choices=[0]))
    doc["points"][3]["forms"]["S"]["dim"] = 2.0
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--input", str(path), "--form", "S", "--q", "1",
                     "--out", str(tmp_path / "c.json")]) == 0
    for dims in ([1, True, 1], [True, True, True]):
        doc = field_to_json(planted_inertia_field(rng, 3, 1, 1, nu_choices=[0]))
        for point, dim in zip(doc["points"], dims):
            point["forms"]["S"]["dim"] = dim
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--input", str(path), "--form", "S", "--q", "1"])
        row = next(r for r, dim in enumerate(dims) if dim is True)  # 1 == True
        assert code == 1 and f"{path}.points[{row}].forms.S.dim" in err.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
def test_cli_check_passes_a_huge_positive_form(tmp_path):
    # ||1e200 I||_F overflowed to inf, so the margin was -inf: check failed a
    # positive form (exit 2) with numpy's overflow warning
    S = 1e200 * np.eye(2, dtype=complex)
    path, out = tmp_path / "field.json", tmp_path / "check.json"
    path.write_text(dumps_canonical(field_to_json(_field(["p0"], {"S": [S]}))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--input", str(path), "--form", "S", "--q", "1",
                         "--out", str(out)]) == 0
    point = json.loads(out.read_text())["points"][0]
    assert point["margin"] == pytest.approx(1e200 * (1 - MARGIN_FLOOR_SCALE * np.sqrt(2)))


@pytest.mark.parametrize("entry", ["1.5", None])
def test_cli_rejects_matrix_entries_that_are_not_numbers(tmp_path, rng, entry):
    # a string "1.5" was read as 1.5 and passed check with exit 0 (a boolean
    # among numbers still reads as 0 or 1)
    doc = field_to_json(planted_inertia_field(rng, 4, 2, 1, nu_choices=[0]))
    doc["points"][2]["forms"]["S"]["re"] = [[entry, 0.0], [0.0, entry]]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    r = run_cli("check", "--input", path, "--form", "S", "--q", 1)
    assert r.returncode == 1, r.stderr
    assert f"{path}.points[2].forms.S" in r.stderr and "must be numbers" in r.stderr, r.stderr


def test_field_rejects_neighbor_ids_that_name_no_point():
    # a mistyped id used to drop out of the 1-ring of F, where the metric is pinned
    S = np.eye(2, dtype=complex)
    with pytest.raises(QposError, match="'p1'.*'px'"):
        _field(["p0", "p1"], {"S": [S, S]}, g0=S[None], has_g0=[True, False],
               in_F=[True, False], neighbors=[None, ["p0", "px"]])


S2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("ids, given, part, at", [
    # True == 1, so a true neighbor used to name the point with id 1, and a true id
    # to be named by a neighbor 1
    ([1, "p1"], {"neighbors": [None, [True]]}, "neighbors", "'p1'"),
    (["p0", True], {"neighbors": [[1], None]}, "id", "True"),
    # NaN != NaN, so two NaN ids (two objects, unlike math.nan twice) used to pass
    ([float("nan"), float("nan")], {}, "id", "nan"),
    ([[1], "p1"], {}, "id", r"\[1\]"),
    # a NaN basis used to reach synthesize_subbundle, which raised numpy's LinAlgError
    (["p0", "p1"], {"subspace": [np.eye(2)[:, :1], [[math.nan], [1.0]]]}, "subspace", "'p1'"),
    # the output metric is pinned to g0 on F
    (["p0", "p1"], {"g0": [S2], "has_g0": [True, False], "in_F": [False, True]}, "in_F",
     "'p1'"),
], ids=["neighbor_true", "id_true", "ids_nan", "id_list", "subspace_nan", "in_F_without_g0"])
def test_field_built_in_python_keeps_the_per_point_rules(ids, given, part, at):
    with pytest.raises(QposError, match=f"^{part} at {at}: ") as info:
        _field(ids, {"S": [S2, S2]}, **given)
    assert info.value.part == part


@pytest.mark.parametrize("ids, given, said", [
    # each was accepted, or ended in numpy's IndexError or broadcast ValueError, in
    # from_stacks or later in synthesize_single, certify or anchored_mask
    ("abc", {"in_F": [True]}, r"in_F of shape \(1,\) for 3 points"),
    ("abc", {"in_F": [True, False]}, r"in_F of shape \(2,\) for 3 points"),
    ("abc", {"in_F": True}, r"in_F of shape \(\) for 3 points"),
    ("abc", {"g0": [S2], "has_g0": [True]}, r"has_g0 of shape \(1,\) for 3 points"),
    ("abc", {"forms": {"S": [S2]}, "has_forms": {"S": [True]}},
     r"has_forms\.S of shape \(1,\) for 3 points"),
    ("a", {"neighbors": [[], ["a"]]}, "neighbors of length 2 for 1 points"),
], ids=["in_F_short", "in_F_long", "in_F_scalar", "has_g0_short", "has_forms_short",
        "neighbors_long"])
def test_from_stacks_refuses_per_point_arguments_of_another_length(ids, given, said):
    given = {"forms": {"S": [S2] * len(ids)}, **given}
    with pytest.raises(DimensionMismatch, match=f"^{said}$"):
        _field(list(ids), **given)


@pytest.mark.parametrize("given, said", [
    # each used to be read as True: "no" and 0.5 put the point in F
    ({"in_F": ["no"]}, "in_F holds 'no', not a boolean"),
    ({"in_F": [0.5]}, "in_F holds 0.5, not a boolean"),
    ({"g0": [S2], "has_g0": [1]}, "has_g0 holds 1, not a boolean"),
    ({"has_forms": {"S": ["yes"]}}, "has_forms.S holds 'yes', not a boolean"),
], ids=["in_F_string", "in_F_float", "has_g0_int", "has_forms_string"])
def test_from_stacks_refuses_masks_of_other_than_booleans(given, said):
    with pytest.raises(QposError, match=f"^{re.escape(said)}$"):
        _field(["a"], {"S": [S2]}, **given)


def test_from_stacks_takes_empty_masks():
    # [] is a float array to numpy, but with no points it is a mask all the same
    empty = FormField.from_stacks([], {"S": np.zeros((0, 2, 2))}, in_F=[], has_g0=[])
    assert empty.in_F.shape == empty.has_g0.shape == (0,) and empty.in_F.dtype == bool


def _stacks_of(doc):
    """A field document's forms as stacks, with its ids and neighbors as given."""
    pts = doc["points"]
    return {"ids": [p["id"] for p in pts], "neighbors": [p.get("neighbors") for p in pts],
            "forms": {k: [matrix_from_json(p["forms"][k]) for p in pts] for k in pts[0]["forms"]}}


@pytest.mark.parametrize("case", [c for c in FIELD_DEFECTS if "_id_" in c or "neighbor" in c])
def test_json_and_python_fields_refuse_ids_and_neighbors_at_one_part(case):
    doc = field_to_json(_field(["p0", "p1"], {"S": [S2, S2]}))
    mutate, suffix = FIELD_DEFECTS[case]
    mutate(doc)
    with pytest.raises(SchemaError) as from_json:
        field_from_json(doc, path="f")
    with pytest.raises(QposError) as from_stacks:
        _field(**_stacks_of(doc))
    assert from_json.value.path == "f" + suffix
    assert f".points[{from_stacks.value.row}].{from_stacks.value.part}" == suffix


def test_field_points_are_read_only_views(rng):
    # a point's values are rows of the field's read-only stacks
    field = planted_inertia_field(rng, 5, 3, 2, n_anchor=2)
    assert field.has_g0[0] and not field.has_g0[4] and field.in_F[0] and not field.in_F[4]
    assert field.g0[4].tobytes() == np.eye(3, dtype=complex).tobytes()  # I where no g0
    for stack in (field.form_stack("S")[0], field.g0[0], field.in_F, field.has_g0,
                  *field.edges):
        with pytest.raises(ValueError):
            stack[...] = 1


def test_cli_geometry_decompositions_do_not_grow_with_samples(tmp_path, monkeypatch):
    # boundary samples are stacks: one SVD for all kernel frames and one
    # rho_hessian call for all Levi forms, whatever the sample count
    dom = tmp_path / "quadric.json"
    dom.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                               "mu": [2.0, 2.0, -0.5, -0.5]}))
    targets = [(np.linalg, "svd"), (QuadricDomain, "rho_hessian")]
    for command in (["levi"], ["zq", "--q", 2], ["bump", "--q", 2]):
        counts = [_calls(monkeypatch, ["geometry", *command, "--domain", dom,
                                       "--samples", n, "--out", tmp_path / "out.json"],
                         targets) for n in (10, 100)]
        assert counts[0] == counts[1], (command, counts)
        assert counts[0]["svd"] >= 1 and counts[0]["rho_hessian"] >= 1, (command, counts)


# --------------------------------------------------------------- certificates

def test_certify_rejects_provenance_and_metrics_of_another_length():
    S = np.stack([np.eye(3)] * 2 + [np.diag([-5.0, 1.0, 2.0])] * 3).astype(complex)
    field = FormField.from_stacks([f"p{i}" for i in range(5)], {"S": S})
    G = field.g0
    # zip() over ids and a one-entry provenance list used to cut this 5-point
    # certificate to its first point, which passes: a passing certificate that
    # covered 1 of 5 points while 3 of them fail
    with pytest.raises(DimensionMismatch, match=r"provenance of shape \(1,\) for 5 points"):
        certify(field, "S", 2, G, ["x"])
    # a metric stack of another length used to end in numpy's broadcast ValueError
    with pytest.raises(DimensionMismatch, match=r"\(2, 3, 3\).*\(5, 3, 3\)"):
        certify(field, "S", 2, G[:2], "x")
    assert certify(field, "S", 2, G, "x").failed_ids() == ["p2", "p3", "p4"]
    assert certify(field, "S", 2, G, list("abcde")).provenance.tolist() == list("abcde")
    # one (d, d) metric still serves every point
    assert certify(field, "S", 2, np.eye(3), "x").failed_ids() == ["p2", "p3", "p4"]


MARGINS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(MARGINS, max_size=12), st.data())
def test_certificate_columns_match_per_entry_semantics(margins, data):
    n = len(margins)
    ids = data.draw(st.permutations([f"p{i}" for i in range(n - n // 2)] + list(range(n // 2))))
    min_sum = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    provenance = [("g0_anchor", "g0_default", "inflated_stage_1")[i % 3] for i in range(n)]
    cert = PositivityCertificate("S", 2, ids, min_sum, margins, provenance)
    entries = cert.entries
    assert entries is cert.entries  # built once
    assert cert.passed is all(e.margin > 0 for e in entries)
    assert cert.failed_ids() == [e.point_id for e in entries if not e.margin > 0]
    assert cert.failed_ids() == [i for i, m in zip(ids, margins) if not m > 0]
    assert cert.min_margin() == min(margins, default=float("inf"))
    assert len(entries) == n
    for i, e in enumerate(entries):
        assert e == CertificateEntry(ids[i], "S", 2, min_sum[i], margins[i], provenance[i])
        assert repr((e.min_sum, e.margin)) == repr((min_sum[i], margins[i]))  # sign, subnormals
    for column in (cert.min_sum, cert.margin, cert.provenance):
        assert column.shape == (n,)
        with pytest.raises(ValueError):
            column[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.margin = np.ones(n)


# three points with exact sums: diagonal forms against the identity metric
LAYOUT_DIAGS = {"a": [1.0, 2.0, 4.0], 7: [-5.0, 1.0, 2.0], "c": [0.0, 3.0, 4.0]}
LAYOUT_ROWS = [("a", 3.0, 3.0 - MARGIN_FLOOR_SCALE * np.sqrt(21.0)),
               (7, -4.0, -4.0 - MARGIN_FLOOR_SCALE * np.sqrt(30.0)),
               ("c", 3.0, 3.0 - MARGIN_FLOOR_SCALE * 5.0)]


def _layout_field():
    return _field(list(LAYOUT_DIAGS), {"S": [np.diag(w) for w in LAYOUT_DIAGS.values()]})


def test_certificate_json_layout():
    # the layout perfbench/verify.py reads: top-level form/q/passed, one row per point
    provenance = ["g0_anchor", "inflated_stage_1", "g0_default"]
    doc = certificate_to_json(certify(_layout_field(), "S", 2, np.eye(3), provenance))
    expected = {"form": "S", "q": 2, "passed": False, "entries": [
        {"id": i, "form": "S", "q": 2, "min_sum": s, "margin": m, "provenance": pv}
        for (i, s, m), pv in zip(LAYOUT_ROWS, provenance)]}
    assert doc == expected
    assert dumps_canonical(doc) == dumps_canonical(expected)
    assert all(type(e[k]) is float for e in doc["entries"] for k in ("min_sum", "margin"))


def test_cli_check_points_layout(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(dumps_canonical(field_to_json(_layout_field())))
    out = tmp_path / "check.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--input", str(field), "--form", "S", "--q", "2",
                         "--out", str(out)]) == 2

    def inertia(n_plus, n_minus):
        return {"n_plus": n_plus, "n_minus": n_minus, "n_zero": 3 - n_plus - n_minus}

    assert json.loads(out.read_text()) == {
        "qpos_schema": 1, "config": {"command": "check", "seed": 0, "form": "S", "q": 2},
        "passed": False, "points": [
            {"id": i, "min_sum": s, "margin": m, "inertia": inertia(*counts)}
            for (i, s, m), counts in zip(LAYOUT_ROWS, [(3, 0), (2, 1), (2, 0)])]}


def test_cli_builds_no_per_point_certificate_entries(tmp_path, rng, monkeypatch):
    # certificates are columns: no CLI command builds a CertificateEntry per point
    single, check = tmp_path / "single.json", tmp_path / "check.json"
    single.write_text(dumps_canonical(field_to_json(planted_inertia_field(rng, 20, 4, 2))))
    check.write_text(dumps_canonical(field_to_json(
        planted_inertia_field(rng, 20, 4, 2, nu_choices=[0]))))
    subbundle = tmp_path / "sub.json"
    subbundle.write_text(dumps_canonical(field_to_json(planted_subbundle_field(rng, 20, 4, 2))))
    pairs = tmp_path / "pairs.json"
    pairs.write_text(dumps_canonical(field_to_json(_constant_pairs())))
    quad = tmp_path / "quadric.json"
    quad.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2,
                                "mu": [2.0, 2.0, -0.5, -0.5]}))
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    commands = {
        "check": ["check", "--input", check, "--form", "S", "--q", 2, "--out", out],
        "single": ["synthesize", "single", "--input", single, "--q", 2, "--cert", cert],
        "subbundle": ["synthesize", "subbundle", "--input", subbundle, "--forms", "Q1,Q2,Q3",
                      "--q", 2, "--cert", cert],
        "two-forms": ["synthesize", "two-forms", "--input", pairs, "--forms", "Q1,Q2",
                      "--angles", 64, "--cert", cert],
        "pipeline": ["geometry", "pipeline", "--domain", quad, "--q", 2, "--samples", 30,
                     "--cert", cert],
    }
    built = {name: _calls(monkeypatch, argv, [(CertificateEntry, "__init__")])["__init__"]
             for name, argv in commands.items()}
    assert built == dict.fromkeys(commands, 0), built
