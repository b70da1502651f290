"""Command-line front end.

Commands: check, project, synthesize {single|subbundle|two-forms}, and
geometry {levi|zq|pipeline|bump|counterexample}.  Inputs and reports are
JSON; reports are written canonically (sorted keys, 17-significant-digit
floats) so a fixed seed yields byte-identical bytes run over run.  Exit
codes: 0 when every certificate/check passes, 2 on a certificate or check
failure, 1 on input errors.

A process loads only the layers its command runs: each command imports them
from their defining submodules when it runs, and this module imports at
load time only what every command shares.  The console entry point `run`
freezes the import-time heap (`gc.freeze`) before the command, and after it
flushes the standard streams and ends the process with `os._exit`, skipping
the interpreter's teardown (module cleanup and its collections), which
frees nothing a finished command needs.  Under a profiler, tracer or
coverage tool it exits through `sys.exit`, so that their exit hooks run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from .errors import CertificateFailed, QOutOfRange, QposError, SchemaError
from .fields import certify
from .hermitian import TAU_PD, first_invalid, sign_counts
from .serialize import (
    RowTable,
    certificate_arrays,
    object_column,
    load_field,
    load_matrix,
    matrix_arrays,
    metrics_from_json,
    metrics_to_json,
    read_json,
    write_report,
)


def _config_echo(args, **extra):
    return {"command": args.command, "seed": getattr(args, "seed", None), **extra}


def _load_samples(args):
    """The domain of --domain and its boundary samples (--samples, --seed)."""
    from .geometry.domains import Domain, domain_from_spec
    from .geometry.levi import sample_boundary

    domain = read_json(args.domain, lambda doc: domain_from_spec(doc, str(args.domain)))
    if not isinstance(domain, Domain):
        raise SchemaError(f"{args.domain}.type",
                          f"{type(domain).__name__} is not a bounded domain")
    if args.samples < 1:
        raise SchemaError("--samples", f"needs at least one sample, got {args.samples}")
    if args.seed < 0:
        raise SchemaError("--seed", f"must be non-negative, got {args.seed}")
    return domain, sample_boundary(domain, args.samples, seed=args.seed)


def _form_names(field, option, names, count=None):
    """The form names given by ``option``, each present at every point of the field."""
    if count is not None and len(names) != count:
        raise SchemaError(option, f"needs exactly {count} comma-separated names")
    for name in names:
        try:
            field.form_stack(name)
        except QposError as e:
            raise SchemaError(option, str(e)) from None
    return names


def _load_metrics(path, field):
    """The metric stack of a metrics file, in the order of the field's points."""
    # metrics_from_json is looked up at call time, so that a layer trace can wrap it
    rows, G = read_json(path, lambda doc: metrics_from_json(doc, field.dim, str(path)))
    ids = field.ids
    missing = [i for i in ids if i not in rows]
    if missing:
        raise SchemaError(f"{path}.metrics", f"no {field.dim} x {field.dim} metric "
                          f"for point id {missing[0]!r}")
    k = np.array([rows[i] for i in ids])
    G = G[k]
    found = first_invalid(G, tau_pd=TAU_PD)
    if found:
        raise SchemaError(f"{path}.metrics[{k[found[0]]}].matrix",
                          f"metric for point id {ids[found[0]]!r}: {found[1]}")
    return G


def _inertia_columns(lam):
    """The sign counts of a spectrum stack's rows, as (N,) count columns; an
    eigenvalue is zero within ``ZERO_REL`` of its row's scale, the threshold
    that decides the synthesis hypothesis and the Z(q) branches."""
    n_plus, n_minus = sign_counts(lam)
    return {"n_plus": n_plus, "n_minus": n_minus, "n_zero": lam.shape[-1] - n_plus - n_minus}


# ---------------------------------------------------------------- commands

def cmd_check(args):
    field = load_field(args.input)
    _form_names(field, "--form", [args.form])
    G = _load_metrics(args.metric, field) if args.metric else field.g0_stack()
    cert = certify(field, args.form, args.q, G, "check")
    if args.out:
        inertia = _inertia_columns(np.linalg.eigvalsh(field.form_stack(args.form)))
        write_report(args.out, {
            "config": _config_echo(args, form=args.form, q=args.q),
            "passed": cert.passed,
            "points": RowTable({"id": object_column(cert.ids), "min_sum": cert.min_sum,
                                "margin": cert.margin, "inertia": inertia}),
        })
    print(f"check: {'PASS' if cert.passed else 'FAIL'} "
          f"({len(cert.failed_ids())} of {len(field)} points below margin)")
    return 0 if cert.passed else 2


def cmd_project(args):
    from .riesz import MIN_NODES, Disc, riesz_projector

    if not np.isfinite(args.center):
        raise SchemaError("--center", f"must be finite, got {args.center}")
    if not 0 < args.radius < np.inf:
        raise SchemaError("--radius", f"must be positive and finite, got {args.radius}")
    if args.nodes < MIN_NODES:
        raise SchemaError("--nodes", f"must be at least {MIN_NODES}, got {args.nodes}")
    T = load_matrix(args.input)
    res = riesz_projector(T, Disc(center=args.center, radius=args.radius),
                          nodes=args.nodes)
    report = {
        "config": _config_echo(args, center=args.center, radius=args.radius,
                               nodes=args.nodes),
        "projector": matrix_arrays(res.matrix),
        "quad_nodes": res.quad_nodes,
        "separation": res.separation,
        "idempotency_defect": res.idempotency_defect,
        "hermiticity_defect": res.hermiticity_defect,
    }
    if args.out:
        write_report(args.out, report)
    print(f"project: separation {res.separation:.3e}, "
          f"idempotency defect {res.idempotency_defect:.3e}")
    return 0


def _write_outputs(args, ids, metrics, certs, **cert_extra):
    """Write the metrics file (--out) and the certificates file (--cert)."""
    if args.out:
        write_report(args.out, metrics_to_json(ids, metrics))
    if args.cert:
        write_report(args.cert, {
            "certificates": {str(k): certificate_arrays(c) for k, c in certs.items()},
            **cert_extra})


def cmd_synthesize_single(args):
    from .metric_single import synthesize_single

    if not 0 < args.margin < np.inf:
        raise SchemaError("--margin", f"must be positive and finite, got {args.margin}")
    field = load_field(args.input)
    _form_names(field, "--form", [args.form])
    metrics, cert = synthesize_single(field, args.form, args.q, theta=args.margin)
    _write_outputs(args, field.ids, metrics, {args.form: cert})
    print(f"synthesize single: PASS (min margin {cert.min_margin():.3e})")
    return 0


def cmd_synthesize_subbundle(args):
    from .metric_subbundle import synthesize_subbundle

    if not 0 <= args.safety < np.inf:
        raise SchemaError("--safety", f"must be nonnegative and finite, got {args.safety}")
    field = load_field(args.input)
    names = _form_names(field, "--forms", args.forms.split(","))
    metrics, certs, consts = synthesize_subbundle(field, names, args.q, safety=args.safety)
    _write_outputs(args, field.ids, metrics, certs)
    if args.report:
        write_report(args.report, {
            "config": _config_echo(args, forms=names, q=args.q, safety=args.safety),
            "constants": {name: {"A1": c.A1, "A2": c.A2, "A3": c.A3,
                                 "C": c.C, "kappa": c.kappa, "q": c.q}
                          for name, c in consts.items()},
        })
    kappa = next(iter(consts.values())).kappa
    print(f"synthesize subbundle: PASS (kappa {kappa:.6g})")
    return 0


def cmd_synthesize_two_forms(args):
    from .two_forms import field_metric_top_degree

    field = load_field(args.input)
    names = _form_names(field, "--forms", args.forms.split(","), 2)
    if args.angles < 1:
        raise SchemaError("--angles", f"needs at least one ray, got {args.angles}")
    metrics, certs, gammas, cont = field_metric_top_degree(field, names)
    _write_outputs(args, field.ids, metrics, certs,
                   gamma_points=RowTable({"id": object_column(field.ids), "gamma": gammas}),
                   continuity=cont)
    print("synthesize two-forms: PASS "
          f"(max gamma jump {cont.get('max_gamma_jump', 0.0):.3e})")
    return 0


def cmd_geometry_levi(args):
    from .geometry.levi import levi_forms

    domain, samples = _load_samples(args)
    lam = np.linalg.eigvalsh(levi_forms(domain, samples))
    if args.out:
        charts = object_column(domain.charts)[samples.chart]
        write_report(args.out, {"config": _config_echo(args, samples=args.samples),
                                "levi": RowTable({"index": np.arange(len(lam)), "chart": charts,
                                                  "eigenvalues": lam,
                                                  "inertia": _inertia_columns(lam)})})
    print(f"geometry levi: {len(samples)} samples")
    return 0


def cmd_geometry_zq(args):
    from .geometry.levi import zq_check

    domain, samples = _load_samples(args)
    rep = zq_check(domain, args.q, samples)
    if args.out:
        write_report(args.out, {
            "config": _config_echo(args, q=args.q, samples=args.samples),
            "branch_per_sample": rep.branch.tolist(),
            "component_branch": {str(k): v for k, v in rep.component_branch.items()},
            "n_plus": rep.n_plus.tolist(),
            "n_minus": rep.n_minus.tolist(),
        })
    print(f"geometry zq: PASS (components: {rep.component_branch})")
    return 0


def cmd_geometry_pipeline(args):
    from .geometry.levi import zq_metric_pipeline

    domain, samples = _load_samples(args)
    rep, metrics, certs = zq_metric_pipeline(domain, args.q, samples)
    _write_outputs(args, list(range(len(samples))), metrics, certs,
                   config=_config_echo(args, q=args.q, samples=args.samples))
    print("geometry pipeline: PASS")
    return 0


def cmd_geometry_bump(args):
    from .geometry.bump import weight_bump

    domain, samples = _load_samples(args)
    rep = weight_bump(domain, args.q, samples, seed=args.seed)
    if args.out:
        write_report(args.out, {
            "config": _config_echo(args, q=args.q, samples=args.samples),
            "delta0": rep.delta0, "eta": (rep.eta if np.isfinite(rep.eta) else "inf"),
            "epsilon": rep.epsilon,
            "epsilon_bound": (rep.epsilon_bound if np.isfinite(rep.epsilon_bound)
                              else "inf"),
            "B1": rep.B1, "B2": rep.B2, "kappa": rep.kappa,
            "subbundle_constants": rep.subbundle_constants,
            "claim1_pass": rep.claim1_pass.tolist(),
            "claim2_min_sums": rep.claim2_min,
            "claim3_min_sums": rep.claim3_min,
            "trace_identity_max_err": rep.trace_identity_max_err,
            "large_eps_claim3_failures": rep.large_eps_claim3_failures,
            "all_claims_pass": rep.all_claims_pass,
        })
    ok = rep.all_claims_pass
    print(f"geometry bump: {'PASS' if ok else 'FAIL'} "
          f"(delta0 {rep.delta0:.4g}, epsilon {rep.epsilon:.4g})")
    return 0 if ok else 2


def cmd_geometry_counterexample(args):
    from .geometry.counterexample import (counterexample_build, counterexample_scan,
                                          standard_test_fields, unit_eigenvector_residuals)

    if not 0 < args.radius < np.inf:
        raise SchemaError("--radius", f"must be positive and finite, got {args.radius}")
    if args.grid < 8:
        raise SchemaError("--grid", f"must be at least 8, got {args.grid}")
    field = counterexample_build(R=args.radius, grid_n=args.grid)
    residual = float(np.max(unit_eigenvector_residuals(field)))
    results = []
    all_negative = True
    for name, v in standard_test_fields(args.radius):
        point, value = counterexample_scan(field, v)
        results.append({"field": name, "min_value": value,
                        "worst_point": point.tolist()})
        all_negative &= value < 0
    ok = all_negative and residual <= 1e-12
    if args.out:
        write_report(args.out, {
            "config": _config_echo(args, radius=args.radius, grid=args.grid),
            "unit_eigenvector_max_residual": residual,
            "scans": results,
            "all_fields_negative": all_negative,
        })
    print(f"geometry counterexample: {'PASS' if ok else 'FAIL'} "
          f"(max identity residual {residual:.2e})")
    return 0 if ok else 2


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qpos", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify strict q-positivity of a form field")
    c.add_argument("--input", required=True)
    c.add_argument("--form", required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--metric", help="per-point metrics JSON (default: g0/identity)")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("project", help="Riesz spectral projector by quadrature")
    c.add_argument("--input", required=True)
    c.add_argument("--center", type=float, required=True)
    c.add_argument("--radius", type=float, required=True)
    c.add_argument("--nodes", type=int, default=64)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_project)

    syn = sub.add_parser("synthesize", help="metric synthesis").add_subparsers(
        dest="mode", required=True)

    c = syn.add_parser("single")
    c.add_argument("--input", required=True)
    c.add_argument("--form", default="S")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--margin", type=float, default=0.1)
    c.add_argument("--out")
    c.add_argument("--cert")
    c.set_defaults(fn=cmd_synthesize_single)

    c = syn.add_parser("subbundle")
    c.add_argument("--input", required=True)
    c.add_argument("--forms", required=True, help="comma-separated form names")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--safety", type=float, default=1.0)
    c.add_argument("--out")
    c.add_argument("--cert")
    c.add_argument("--report")
    c.set_defaults(fn=cmd_synthesize_subbundle)

    c = syn.add_parser("two-forms")
    c.add_argument("--input", required=True)
    c.add_argument("--forms", required=True)
    c.add_argument("--angles", type=int, default=512,
                   help="ignored: the arc ends and midpoint are exact (must be at least 1)")
    c.add_argument("--out")
    c.add_argument("--cert")
    c.set_defaults(fn=cmd_synthesize_two_forms)

    geo = sub.add_parser("geometry", help="domain computations").add_subparsers(
        dest="mode", required=True)

    for name, fn, extra in (("levi", cmd_geometry_levi, ()),
                            ("zq", cmd_geometry_zq, ("--q",)),
                            ("pipeline", cmd_geometry_pipeline, ("--q", "--cert")),
                            ("bump", cmd_geometry_bump, ("--q",))):
        c = geo.add_parser(name)
        c.add_argument("--domain", required=True)
        if "--q" in extra:
            c.add_argument("--q", type=int, required=True)
        c.add_argument("--samples", type=int, default=200)
        c.add_argument("--out")
        if "--cert" in extra:
            c.add_argument("--cert")
        c.set_defaults(fn=fn)

    c = geo.add_parser("counterexample")
    c.add_argument("--radius", type=float, default=2.0)
    c.add_argument("--grid", type=int, default=64)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_geometry_counterexample)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, FileNotFoundError, IsADirectoryError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except QOutOfRange as e:
        print(f"input error: --q: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # an option sized past memory, such as --nodes
        print(f"input error: out of memory: {e}", file=sys.stderr)
        return 1
    except CertificateFailed as e:
        ids = ", ".join(str(i) for i in e.failed_ids[:10])
        print(f"certificate failed: {e} (points: {ids})", file=sys.stderr)
        return 2
    except QposError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


def run():
    """Console entry point: run the command of ``sys.argv`` and exit with its code.

    What is loaded before the command (the interpreter, numpy and the core
    modules) is moved to the collector's permanent generation, so that the
    command's collections do not traverse it.  After the command the
    standard streams are flushed and the process ends at once (``os._exit``):
    the reports are closed files by then, and the interpreter's teardown
    would spend milliseconds freeing the heap.  When a profiler, tracer or
    coverage tool is installed (``python -m cProfile``, ``coverage run``),
    the process exits through ``sys.exit`` instead, so that its exit hooks
    run.  ``main`` itself changes no process-wide state, because tests call
    it in-process.
    """
    gc.freeze()
    code = main()
    if _observed():
        sys.exit(code)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool is installed in this process."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile, coverage
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":
    run()
