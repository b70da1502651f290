"""JSON schemas, canonical bytes, and the command-line interface."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qpos import FieldPoint, FormField, SchemaError, cli, spectrum_wrt
from qpos.serialize import (
    dumps_canonical,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    metrics_to_json,
    spectrum_to_json,
)
from qpos.synthetic import planted_inertia_field, random_hermitian, random_metric


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "qpos.cli", *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy only; scipy is a test oracle
    code = ("import sys, qpos.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


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


def test_spectrum_serialization(rng):
    s = spectrum_wrt(random_hermitian(rng, 3), random_metric(rng, 3))
    obj = spectrum_to_json(s)
    assert list(obj) == ["eigenvalues", "eigenvectors_re", "eigenvectors_im"]
    assert len(obj["eigenvalues"]) == 3


def test_field_round_trip(rng):
    field = planted_inertia_field(rng, 8, 4, 2, n_anchor=2)
    field2 = field_from_json(field_to_json(field))
    assert field2.ids == field.ids
    assert_allclose(field2.form_stack("S"), field.form_stack("S"), atol=0)
    assert field2.points[0].in_F and not field2.points[-1].in_F


def test_canonical_bytes_are_stable():
    obj = {"b": [1.0, 0.1, 3], "a": {"x": True, "y": None, "z": "s"}}
    s1 = dumps_canonical(obj)
    s2 = dumps_canonical(json.loads(json.dumps(obj)))
    assert s1 == s2
    assert "0.10000000000000001" in s1  # 17 significant digits


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
    assert "1e-10" in report["points"][0]["inertia"]


def test_cli_check_flags_violation(tmp_path):
    pts = [FieldPoint(id="good", forms={"S": np.eye(3, dtype=complex)}),
           FieldPoint(id="viol", forms={"S": np.diag([-5.0, 1.0, 2.0]).astype(complex)})]
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(FormField(dim=3, points=pts))))
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

    field, gamma = planted_subbundle_field(rng, 10, 5, 2)
    for i, p in enumerate(field.points):
        p.g0 = gamma[i]  # gamma travels as the per-point g0 in the file
    fpath = tmp_path / "sub.json"
    fpath.write_text(dumps_canonical(field_to_json(field)))
    rep = tmp_path / "constants.json"
    r = run_cli("synthesize", "subbundle", "--input", fpath, "--forms",
                "Q1,Q2,Q3", "--q", 2, "--report", rep)
    assert r.returncode == 0, r.stderr
    consts = json.loads(rep.read_text())["constants"]
    assert set(consts) == {"Q1", "Q2", "Q3"}
    assert all(c["kappa"] >= c["C"] - 1e-15 for c in consts.values())

    pts = [FieldPoint(id=i, forms={"Q1": np.eye(2, dtype=complex),
                                   "Q2": np.diag([2.0, 1.0]).astype(complex)})
           for i in range(3)]
    tpath = tmp_path / "pairs.json"
    tpath.write_text(dumps_canonical(field_to_json(FormField(dim=2, points=pts))))
    cert = tmp_path / "tf_cert.json"
    r = run_cli("synthesize", "two-forms", "--input", tpath, "--forms", "Q1,Q2",
                "--angles", 128, "--cert", cert)
    assert r.returncode == 0, r.stderr
    payload = json.loads(cert.read_text())
    assert len(payload["gamma_points"]) == 3
    assert payload["certificates"]["Q1"]["passed"] is True


def test_cli_geometry_counterexample(tmp_path):
    out = tmp_path / "ce.json"
    r = run_cli("geometry", "counterexample", "--radius", 2, "--grid", 16,
                "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["all_fields_negative"] is True
    assert len(report["scans"]) == 20


BAD_INPUT_CASES = [
    "check_q_above_dim", "check_q_zero", "single_q_above_dim", "metric_missing_id",
    "metric_malformed_json", "nan_form_entry",
    "zq_q_above_range", "zq_q_zero", "bump_q_above_range",
    "domain_quadric_without_mu", "domain_not_an_object", "domain_unknown_type",
    "domain_custom_bad_params",
    "two_forms_unknown_form", "two_forms_zero_angles",
    "counterexample_grid_1", "counterexample_negative_radius",
]


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_cli_rejects_bad_input_with_exit_1(tmp_path, case):
    # each case used to pass, fail with exit 2 or end in a traceback
    S = np.diag([1.0, 2.0]).astype(complex)
    path = tmp_path / "field.json"
    path.write_text(dumps_canonical(field_to_json(
        FormField(dim=2, points=[FieldPoint(id="p0", forms={"S": S, "Q1": S}),
                                 FieldPoint(id="p1", forms={"S": S, "Q1": S})]))))
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
    elif case == "metric_missing_id":
        metric.write_text(dumps_canonical(metrics_to_json(["p0"], [np.eye(2)])))
        argv, named = check + ("--q", 1, "--metric", metric), f"{metric}.metrics"
    elif case == "metric_malformed_json":
        metric.write_text('{"metrics": [')
        argv, named = check + ("--q", 1, "--metric", metric), str(metric)
    elif case == "nan_form_entry":
        doc = json.loads(path.read_text())
        doc["points"][1]["forms"]["S"]["re"][0][0] = float("nan")
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
                "domain_not_an_object": [1, 2],
                "domain_unknown_type": {"type": "torus", "n": 3},
                "domain_custom_bad_params": {"type": "custom", "params": {"x": 1},
                                             "target": "qpos.geometry:BallDomain"}}[case]
        quad.write_text(json.dumps(spec))
        named = {"domain_quadric_without_mu": f"{quad}.mu", "domain_not_an_object": str(quad),
                 "domain_unknown_type": f"{quad}.type",
                 "domain_custom_bad_params": f"{quad}.params"}[case]
        argv = geo + ("--q", 1)
    elif case == "two_forms_unknown_form":
        argv, named = two + ("--forms", "Q1,Qx"), "--forms"
    elif case == "two_forms_zero_angles":
        argv, named = two + ("--forms", "S,Q1", "--angles", 0), "--angles"
    elif case == "counterexample_grid_1":
        argv, named = ("geometry", "counterexample", "--grid", 1), "--grid"
    else:
        argv, named = ("geometry", "counterexample", "--radius", -1), "--radius"
    r = run_cli(*argv)
    assert r.returncode == 1, r.stdout + r.stderr
    assert named in r.stderr
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
