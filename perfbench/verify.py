"""Independent checks of every CLI output.

Nothing here imports `qpos`: q-sums are recomputed with scipy's generalized
eigensolver, projectors against a numpy eigendecomposition, and the geometry
reports are checked for the invariants the acceptance tests assert.  Each
check returns a list of failure messages; an empty list means the output is
correct.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

from workloads import DOMAIN_N, DOMAIN_Q, PROJECT_CENTER, PROJECT_RADIUS, SINGLE_Q, SUB_FORMS, SUB_Q

SUM_TOL = 1e-8          # |recomputed q-sum - certified q-sum| <= SUM_TOL * max(1, ||H||_F)
PROJECTOR_TOL = 1e-8    # ||P - P_oracle||_2
RESIDUAL_TOL = 1e-12    # counterexample unit-eigenvector identity
TRACE_ID_TOL = 1e-8     # weight-bump restricted-trace decomposition


def load(path):
    with open(path) as fh:
        return json.load(fh)


def matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def metric_table(doc) -> dict:
    return {e["id"]: matrix(e["matrix"]) for e in doc["metrics"]}


def q_sums_against(field, form, q, metrics, cert) -> list[str]:
    """Recompute each point's q-sum and compare it with the certificate entry."""
    bad = []
    entries = {e["id"]: e for e in cert["entries"]}
    if cert.get("passed") is not True:
        bad.append(f"certificate for {form} not marked passed")
    if len(entries) != len(field["points"]):
        bad.append(f"certificate for {form} has {len(entries)} entries for "
                   f"{len(field['points'])} points")
    for p in field["points"]:
        H = matrix(p["forms"][form])
        G = metrics.get(p["id"])
        e = entries.get(p["id"])
        if G is None or e is None:
            bad.append(f"point {p['id']}: missing metric or certificate entry")
            continue
        s = float(np.sum(scipy.linalg.eigh(H, G, eigvals_only=True)[:q]))
        tol = SUM_TOL * max(1.0, float(np.linalg.norm(H)))
        if not s > 0:
            bad.append(f"point {p['id']}: {form} q-sum {s:.3e} is not positive")
        elif abs(s - float(e["min_sum"])) > tol:
            bad.append(f"point {p['id']}: {form} q-sum {s:.17g} differs from "
                       f"certified {e['min_sum']!r}")
    return bad


def single(field, metric_doc, cert_doc) -> list[str]:
    metrics = metric_table(metric_doc)
    bad = q_sums_against(field, "S", SINGLE_Q, metrics, cert_doc["certificates"]["S"])
    for p in field["points"]:
        if p.get("in_F") and not np.array_equal(metrics[p["id"]], matrix(p["g0"])):
            bad.append(f"anchored point {p['id']}: metric differs from g0")
    return bad


def check(field, metric_doc, report) -> list[str]:
    """The check report's sums are the same q-sums, recomputed here."""
    entries = [{"id": e["id"], "min_sum": e["min_sum"]} for e in report["points"]]
    cert = {"passed": report.get("passed"), "entries": entries}
    return q_sums_against(field, "S", SINGLE_Q, metric_table(metric_doc), cert)


def subbundle(field, metric_doc, cert_doc, report) -> list[str]:
    metrics = metric_table(metric_doc)
    bad = []
    for form in SUB_FORMS:
        bad += q_sums_against(field, form, SUB_Q, metrics, cert_doc["certificates"][form])
    kappas = {c["kappa"] for c in report["constants"].values()}
    if len(kappas) != 1 or not min(kappas) > 0:
        bad.append(f"penalty constants: kappa {sorted(kappas)} not one positive value")
    return bad


def two_forms(field, metric_doc, cert_doc) -> list[str]:
    """tr(G^-1 Q_r) > 0 for both forms, and equal to the certified trace."""
    metrics = metric_table(metric_doc)
    bad = []
    for form in ("Q1", "Q2"):
        cert = cert_doc["certificates"][form]
        entries = {e["id"]: e for e in cert["entries"]}
        if cert.get("passed") is not True or len(entries) != len(field["points"]):
            bad.append(f"two-forms certificate for {form} incomplete or not passed")
        for p in field["points"]:
            Q = matrix(p["forms"][form])
            tr = float(np.real(np.trace(np.linalg.solve(metrics[p["id"]], Q))))
            tol = SUM_TOL * max(1.0, float(np.linalg.norm(Q)))
            if not tr > 0:
                bad.append(f"point {p['id']}: tr(G^-1 {form}) = {tr:.3e} is not positive")
            elif p["id"] not in entries or abs(tr - float(entries[p["id"]]["min_sum"])) > tol:
                bad.append(f"point {p['id']}: tr(G^-1 {form}) differs from the certificate")
    return bad


def project(matrix_doc, report, nodes) -> list[str]:
    T = matrix(matrix_doc)
    lam, V = np.linalg.eigh(T)
    Vi = V[:, np.abs(lam - PROJECT_CENTER) < PROJECT_RADIUS]
    err = float(np.linalg.norm(matrix(report["projector"]) - Vi @ Vi.conj().T, 2))
    bad = []
    if not err <= PROJECTOR_TOL:
        bad.append(f"projector differs from the eigendecomposition oracle by {err:.3e}")
    if report.get("quad_nodes") != nodes:
        bad.append(f"projector used {report.get('quad_nodes')} nodes, asked for {nodes}")
    return bad


def _fits_zq(n_plus, n_minus) -> bool:
    return n_plus >= DOMAIN_N - DOMAIN_Q or n_minus >= DOMAIN_Q + 1


def levi(report, samples) -> list[str]:
    """Every Levi form is (n-1)x(n-1) and its inertia puts it in Z(q)'s branch (i) or (ii)."""
    bad = []
    if len(report["levi"]) != samples:
        bad.append(f"levi report has {len(report['levi'])} of {samples} samples")
    for e in report["levi"]:
        lam = np.asarray(e["eigenvalues"], dtype=float)
        thr = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
        if lam.shape != (DOMAIN_N - 1,) or not _fits_zq(np.sum(lam > thr), np.sum(lam < -thr)):
            bad.append(f"levi sample {e['index']}: eigenvalues {lam.tolist()} outside Z(q)")
    return bad


def zq(report, samples) -> list[str]:
    branch = report["branch_per_sample"]
    bad = []
    if len(branch) != samples:
        bad.append(f"zq report has {len(branch)} of {samples} samples")
    if not set(branch) | set(report["component_branch"].values()) <= {"i", "ii"}:
        bad.append("zq report has a branch other than i and ii")
    if set(branch) != set(report["component_branch"].values()):
        bad.append("zq per-sample branches disagree with the component branches")
    for i, (b, n_plus, n_minus) in enumerate(zip(branch, report["n_plus"], report["n_minus"])):
        want = "i" if n_plus >= DOMAIN_N - DOMAIN_Q else "ii" if n_minus >= DOMAIN_Q + 1 else None
        if b != want:
            bad.append(f"zq sample {i}: branch {b} but inertia ({n_plus}, {n_minus})")
    return bad


def pipeline(metric_doc, cert_doc, samples) -> list[str]:
    """Every sample has a positive-definite metric and exactly one passed certificate entry."""
    bad = []
    metrics = metric_table(metric_doc)
    if sorted(metrics) != list(range(samples)):
        bad.append(f"pipeline metrics cover {len(metrics)} of {samples} samples")
    for i, G in metrics.items():
        if G.shape != (DOMAIN_N - 1, DOMAIN_N - 1) or not scipy.linalg.eigvalsh(G)[0] > 0:
            bad.append(f"pipeline sample {i}: metric is not positive definite")
    seen = []
    for comp, cert in cert_doc["certificates"].items():
        if cert.get("passed") is not True:
            bad.append(f"pipeline component {comp}: certificate not passed")
        for e in cert["entries"]:
            seen.append(e["id"])
            if not (e["min_sum"] > 0 and e["margin"] > 0):
                bad.append(f"pipeline sample {e['id']}: q-sum {e['min_sum']!r} not above floor")
    if sorted(seen) != list(range(samples)):
        bad.append("pipeline certificates do not cover every sample exactly once")
    return bad


def bump(report, samples) -> list[str]:
    bad = []
    if len(report["claim1_pass"]) != samples or not all(report["claim1_pass"]):
        bad.append("weight bump: claim 1 fails or does not cover every sample")
    if not min(report["claim2_min_sums"]) > 0 or not min(report["claim3_min_sums"]) > 0:
        bad.append("weight bump: claim 2 or 3 has a nonpositive q-sum")
    if not report["trace_identity_max_err"] <= TRACE_ID_TOL:
        bad.append(f"weight bump: trace identity error {report['trace_identity_max_err']!r}")
    if not (report["delta0"] >= 1e-8 and report["epsilon"] > 0 and report["all_claims_pass"]):
        bad.append("weight bump: delta0, epsilon or all_claims_pass out of range")
    return bad


def counterexample(report) -> list[str]:
    bad = []
    if not report["unit_eigenvector_max_residual"] <= RESIDUAL_TOL:
        bad.append(f"counterexample residual {report['unit_eigenvector_max_residual']!r}")
    scans = report["scans"]
    if len(scans) != 20 or not all(s["min_value"] < 0 for s in scans):
        bad.append("counterexample: some test field has no negative value")
    if report["all_fields_negative"] is not True:
        bad.append("counterexample: all_fields_negative is not true")
    return bad


def command_outputs(kind, sizes, reads, writes) -> list[str]:
    """Check one command's written files; `reads`/`writes` are its paths in argv order."""
    if kind == "single":
        return single(load(reads[0]), load(writes[0]), load(writes[1]))
    if kind == "check":
        return check(load(reads[0]), load(reads[1]), load(writes[0]))
    if kind == "subbundle":
        return subbundle(load(reads[0]), load(writes[0]), load(writes[1]), load(writes[2]))
    if kind == "two_forms":
        return two_forms(load(reads[0]), load(writes[0]), load(writes[1]))
    if kind == "project":
        return project(load(reads[0]), load(writes[0]), sizes.project_nodes)
    if kind == "levi":
        return levi(load(writes[0]), sizes.boundary_samples)
    if kind == "zq":
        return zq(load(writes[0]), sizes.boundary_samples)
    if kind == "pipeline":
        return pipeline(load(writes[0]), load(writes[1]), sizes.boundary_samples)
    if kind == "bump":
        return bump(load(writes[0]), sizes.bump_samples)
    if kind == "counterexample":
        return counterexample(load(writes[0]))
    raise ValueError(f"unknown command kind {kind!r}")


def self_test(field_path, metric_path, cert_path) -> str | None:
    """The `single` check must flag a metric file with one inflated point's metric set to I.

    Returns None when the corruption is caught, else a message.
    """
    field, metric_doc, cert_doc = load(field_path), load(metric_path), load(cert_path)
    inflated = [e["id"] for e in cert_doc["certificates"]["S"]["entries"]
                if str(e["provenance"]).startswith("inflated")]
    if not inflated:
        return "self-test: no inflated point to corrupt"
    for e in metric_doc["metrics"]:
        if e["id"] == inflated[0]:
            d = len(e["matrix"]["re"])
            e["matrix"] = {"dim": d, "re": np.eye(d).tolist(), "im": np.zeros((d, d)).tolist()}
    if not single(field, metric_doc, cert_doc):
        return f"self-test: identity metric at inflated point {inflated[0]} was not flagged"
    return None
