"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line with its runtime (visible under ``pytest -s``
or in the captured-output report); the assertions inside are the criteria
themselves, so a red test is a failed criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from qpos import (
    Disc,
    FormField,
    PairState,
    Subspace,
    oracle_projector,
    pair_metric,
    q_min_sum,
    restricted_trace,
    riesz_projector,
    spectrum_wrt,
    synthesize_single,
    synthesize_subbundle,
    xi_eval,
)
from qpos.geometry import (
    BallDomain,
    MqnManifold,
    ProductDomain,
    QuadricDomain,
    counterexample_build,
    counterexample_scan,
    sample_boundary,
    sphere_eigenvalue_residuals,
    standard_test_fields,
    unit_eigenvector_residuals,
    weight_bump,
    zq_check,
    zq_metric_pipeline,
)
from qpos.hermitian import pencil_eigvalsh, sign_counts
from qpos.synthetic import (
    hermitian_with_eigs,
    planted_inertia_field,
    planted_subbundle_field,
    random_g_orthonormal_frames,
    random_hermitian,
    random_metric,
    random_pair_with_common_direction,
)

MU = [2.0, 2.0, -0.5, -0.5]


class budget:
    """Context manager asserting the runtime budget and printing the verdict."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label}: runtime {elapsed:.1f}s exceeds {self.seconds}s"
            print(f"ACCEPTANCE {self.label}: PASS in {elapsed:.2f}s "
                  f"(budget {self.seconds}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.2f}s")
        return False


def test_01_riesz_projector_oracle_equivalence():
    rng = np.random.default_rng(101)
    with budget("1 riesz-oracle", 10):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d)) if d > 1 else 1
            eigs = np.sort(np.concatenate([
                rng.uniform(-3.0, -1.0, size=k), rng.uniform(1.0, 3.0, size=d - k)]))
            T = hermitian_with_eigs(rng, eigs)
            disc = Disc(center=0.5 * (eigs[0] + eigs[k - 1]),
                        radius=0.5 * (eigs[k - 1] - eigs[0]) + 1.0)
            res = riesz_projector(T, disc, nodes=64)
            assert res.separation >= 0.1 * disc.radius
            delta = np.linalg.norm(res.matrix - oracle_projector(T, disc), 2)
            assert delta <= 1e-8
        for _ in range(50):
            d = int(rng.integers(2, 9))
            T = hermitian_with_eigs(rng, rng.uniform(-3.0, 3.0, size=d))
            res = riesz_projector(T, Disc(center=-8.0, radius=1.0), nodes=64)
            assert np.linalg.norm(res.matrix, 2) <= 1e-10
            assert np.linalg.norm(oracle_projector(T, Disc(-8.0, 1.0)), 2) == 0.0


def test_02_schur_eigenvalue_sum_equivalence():
    rng = np.random.default_rng(202)
    with budget("2 schur-equivalence", 30):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            q = int(rng.integers(1, d + 1))
            H = random_hermitian(rng, d)
            g = random_metric(rng, d)
            qs = q_min_sum(H, g, q)
            s = spectrum_wrt(H, g)
            attained = restricted_trace(H, g, Subspace(s.eigenvectors[:, :q]))
            assert abs(attained - qs) <= 1e-8
            T = random_g_orthonormal_frames(rng, g, 500, q)
            traces = np.einsum("nki,kl,nli->n", T.conj(), H, T).real
            assert np.all(traces >= qs - 1e-8)


def test_03_single_form_synthesis():
    rng = np.random.default_rng(303)
    with budget("3 single-form-synthesis", 60):
        # the worked example: S = diag(-5, 1, 2), q = 2, theta = 0.1
        worked = FormField.from_stacks(["w"], {"S": np.diag([-5.0, 1.0, 2.0])[None]})
        _, cert = synthesize_single(worked, "S", 2, theta=0.1)
        assert abs(cert.min_sum[0] - 2.0 / 27.0) <= 1e-9
        for trial in range(20):
            q_tilde = 2 + (trial % 2)
            field = planted_inertia_field(rng, 1000, 6, q_tilde, n_anchor=25)
            metrics, cert = synthesize_single(field, "S", q_tilde, theta=0.1)
            assert cert.passed
            assert np.all(cert.margin > 0)
            for i in range(25):
                assert metrics[i].tobytes() == field.g0[i].tobytes()


def test_04_subbundle_synthesis():
    rng = np.random.default_rng(404)
    with budget("4 subbundle-synthesis", 60):
        for _ in range(20):
            field = planted_subbundle_field(rng, 100, 5, 2)
            h, certs, consts = synthesize_subbundle(field, ["Q1", "Q2", "Q3"], 2)
            for c in consts.values():
                assert c.margin() >= 0.05 * c.A1 - 1e-12
            assert all(cert.passed for cert in certs.values())
            kappa = consts["Q1"].kappa
            margin = min(cert.min_margin() for cert in certs.values())
            BV = field.subspace
            P_perp = np.eye(5) - BV @ np.conj(np.swapaxes(BV, -1, -2)) @ field.g0
            penalty = np.conj(np.swapaxes(P_perp, -1, -2)) @ field.g0 @ P_perp
            for mult in (2.0, 10.0):
                h_big = field.g0 + mult * kappa * penalty
                for name in ("Q1", "Q2", "Q3"):
                    lam = pencil_eigvalsh(field.form_stack(name), h_big)
                    assert np.all(np.sum(lam[:, :2], axis=1) > 0)
            E = random_hermitian(rng, 5)
            E *= (margin / 10.0) / np.linalg.norm(E, 2)
            for name in ("Q1", "Q2", "Q3"):
                lam = pencil_eigvalsh(field.form_stack(name), h + E)
                assert np.all(np.sum(lam[:, :2], axis=1) > 0)


def test_05_two_form_construction():
    rng = np.random.default_rng(505)
    with budget("5 two-forms", 60):
        res = pair_metric(PairState(np.eye(2), np.eye(2)))
        c = 1.0 - np.exp(-0.5)
        assert np.max(np.abs(res.gamma_point - np.array([c / 2, c / 2]))) <= 1e-6
        for _ in range(100):
            d = int(rng.integers(2, 5))
            Q1, Q2, _ = random_pair_with_common_direction(rng, d)
            out = pair_metric(PairState(Q1, Q2))
            assert out.traces[0] > 0 and out.traces[1] > 0
        checked = 0
        h = 1e-6
        while checked < 1000:
            Q1, Q2, _ = random_pair_with_common_direction(rng, int(rng.integers(2, 5)))
            pair = PairState(Q1, Q2)
            for _ in range(25):
                x = rng.uniform(-0.2, 0.2, size=2)
                ev = xi_eval(pair, x)
                if not ev.in_O:
                    continue
                assert np.linalg.eigvalsh(ev.hessian)[0] >= -1e-9
                for r, e in enumerate(np.eye(2)):
                    up, dn = xi_eval(pair, x + h * e), xi_eval(pair, x - h * e)
                    if not (up.in_O and dn.in_O):
                        continue
                    fd = (up.xi - dn.xi) / (2 * h)
                    assert abs(fd - ev.grad[r]) <= 1e-5 * max(1.0, abs(ev.grad[r]))
                checked += 1
                if checked == 1000:
                    break


def test_06_counterexample_family():
    with budget("6 counterexample", 120):
        field = counterexample_build(R=2.0, grid_n=64)
        assert np.max(unit_eigenvector_residuals(field)) <= 1e-12
        assert np.max(sphere_eigenvalue_residuals(2.0, count=4000)) <= 1e-12
        fields = standard_test_fields(2.0)
        assert len(fields) == 20
        for name, v in fields:
            _, value = counterexample_scan(field, v)
            assert value < 0, f"no negative value for field {name}"


def test_07_geometry_pipeline():
    with budget("7 geometry-pipeline", 120):
        cases = [
            (BallDomain(n=2), 1, 1000),
            (QuadricDomain(mu=MU, n=3, q=2), 2, 1000),
            (ProductDomain(n=3, q=2), 2, 1000),
        ]
        for domain, q, count in cases:
            samples = sample_boundary(domain, count, seed=7)
            report = zq_check(domain, q, samples)
            assert set(report.component_branch.values()) <= {"i", "ii"}
            for comp in report.component_branch:
                assert len({report.component_branch[comp]}) == 1
            _, metrics, certs = zq_metric_pipeline(domain, q, samples)
            assert all(cert.passed for cert in certs.values())
        mqn = MqnManifold(3, 2)
        chart, z = mqn.sample_chart_points(np.random.default_rng(7), 1000)
        n_plus, n_minus = sign_counts(np.linalg.eigvalsh(mqn.weight_fn(chart).hessian(z)))
        assert n_plus.tolist() == [2] * 1000 and n_minus.tolist() == [1] * 1000


def test_08_weight_bump():
    with budget("8 weight-bump", 120):
        domain = QuadricDomain(mu=MU, n=3, q=2)
        samples = sample_boundary(domain, 1000, seed=8)
        rep = weight_bump(domain, 2, samples)
        assert bool(np.all(rep.claim1_pass))
        assert float(np.min(rep.claim2_min_sums)) > 0
        assert float(np.min(rep.claim3_min_sums)) > 0
        assert rep.trace_identity_max_err <= 1e-8
        assert rep.delta0 >= 1e-8
        assert rep.epsilon > 0


def test_09_cli_determinism(tmp_path):
    with budget("9 determinism", 60):
        from qpos.serialize import dumps_canonical, field_to_json

        rng = np.random.default_rng(909)
        field = planted_inertia_field(rng, 50, 4, 2)
        field_path = tmp_path / "field.json"
        field_path.write_text(dumps_canonical(field_to_json(field)))
        dom_path = tmp_path / "dom.json"
        dom_path.write_text(json.dumps({"type": "quadric", "n": 3, "q": 2, "mu": MU}))
        blobs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            files = [d / "metric.json", d / "cert.json", d / "zq.json"]
            r1 = subprocess.run(
                [sys.executable, "-m", "qpos.cli", "--seed", "5", "synthesize",
                 "single", "--input", str(field_path), "--form", "S", "--q", "2",
                 "--out", str(files[0]), "--cert", str(files[1])],
                capture_output=True, text=True)
            assert r1.returncode == 0, r1.stderr
            r2 = subprocess.run(
                [sys.executable, "-m", "qpos.cli", "--seed", "5", "geometry", "zq",
                 "--domain", str(dom_path), "--q", "2", "--samples", "120",
                 "--out", str(files[2])],
                capture_output=True, text=True)
            assert r2.returncode == 0, r2.stderr
            blobs.append(tuple(f.read_bytes() for f in files))
        assert blobs[0] == blobs[1]
