"""In-process layer trace of the `qpos` CLI.

`Tracer.install()` wraps each layer's public functions with spans and rebinds
every wrapper in each `qpos.*` module that holds the original, so calls
between modules are traced too; `uninstall()` puts the originals back.  A
span's self time is its duration minus the durations of its child spans.
`numpy.linalg.eigh`/`eigvalsh` and `solve` are wrapped as well and the
matrices passed to them are charged to the layer of the innermost open span.

Names missing from the program (renamed or removed by a later change) are
skipped, and the metrics that depend on them read 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "serialize", "fields", "hermitian", "riesz", "metric_single",
          "metric_subbundle", "two_forms", "geometry.domains", "geometry.levi",
          "geometry.bump", "geometry.counterexample")

# (module, attribute or Class.method, span name).  The spans whose self time
# is not in SELF_TIMES (two_forms.field, geometry.levi.zq_check and .pipeline,
# geometry.counterexample.residuals) are there so that their time and
# eigensolves are charged to their own layer rather than to the CLI.
SPANS = [
    ("qpos.cli", "main", "cli.main"),
    ("qpos.serialize", "load_field", "serialize.read"),
    ("qpos.serialize", "load_matrix", "serialize.read"),
    ("qpos.serialize", "metrics_from_json", "serialize.read"),
    ("qpos.serialize", "write_report", "serialize.write"),
    ("qpos.serialize", "dumps_canonical", "serialize.write"),
    ("qpos.serialize", "metrics_to_json", "serialize.write"),
    ("qpos.serialize", "certificate_to_json", "serialize.write"),
    ("qpos.serialize", "matrix_to_json", "serialize.write"),
    ("qpos.fields", "FormField.__init__", "fields.validate"),
    ("qpos.hermitian", "pencil_eigh", "hermitian.pencil"),
    ("qpos.hermitian", "pencil_eigvalsh", "hermitian.pencil"),
    ("qpos.riesz", "riesz_projector", "riesz.projector"),
    ("qpos.metric_single", "synthesize_single", "metric_single.synthesize"),
    ("qpos.metric_single", "choose_f", "metric_single.choose_f"),
    ("qpos.metric_single", "negative_projector", "metric_single.riesz_check"),
    ("qpos.metric_subbundle", "compute_constants", "metric_subbundle.constants"),
    ("qpos.metric_subbundle", "synthesize_subbundle", "metric_subbundle.synthesize"),
    ("qpos.two_forms", "field_metric_top_degree", "two_forms.field"),
    ("qpos.two_forms", "find_common_direction", "two_forms.common_direction"),
    ("qpos.two_forms", "trace_level_curve", "two_forms.level_curve"),
    ("qpos.two_forms", "pair_metric", "two_forms.pair_metric"),
    ("qpos.geometry.levi", "sample_boundary", "geometry.levi.sample_boundary"),
    ("qpos.geometry.levi", "newton_project", "geometry.levi.newton"),
    ("qpos.geometry.levi", "kernel_frame", "geometry.levi.kernel_frame"),
    ("qpos.geometry.levi", "levi_form", "geometry.levi.levi_form"),
    ("qpos.geometry.levi", "adjacency_components", "geometry.levi.adjacency"),
    ("qpos.geometry.levi", "zq_check", "geometry.levi.zq_check"),
    ("qpos.geometry.levi", "zq_metric_pipeline", "geometry.levi.pipeline"),
    ("qpos.geometry.bump", "weight_bump", "geometry.bump.weight_bump"),
    ("qpos.geometry.counterexample", "counterexample_build", "geometry.counterexample.build"),
    ("qpos.geometry.counterexample", "counterexample_scan", "geometry.counterexample.scan"),
    ("qpos.geometry.counterexample", "unit_eigenvector_residuals",
     "geometry.counterexample.residuals"),
]
DOMAIN_METHODS = ("rho", "rho_dz", "rho_hessian", "weight_hessian", "embed")
LINALG = {"eigh": "eigensolves", "eigvalsh": "eigensolves", "solve": "solves"}

SELF_TIMES = ("cli.main", "serialize.read", "serialize.write", "fields.validate",
              "hermitian.pencil", "riesz.projector", "metric_single.synthesize",
              "metric_single.choose_f", "metric_single.riesz_check",
              "metric_subbundle.constants", "metric_subbundle.synthesize",
              "two_forms.common_direction", "two_forms.level_curve", "two_forms.pair_metric",
              "geometry.domains.eval", "geometry.levi.sample_boundary",
              "geometry.levi.kernel_frame", "geometry.levi.levi_form", "geometry.levi.adjacency",
              "geometry.bump.weight_bump", "geometry.counterexample.build",
              "geometry.counterexample.scan")
CALLS = ("hermitian.pencil", "riesz.projector", "metric_single.riesz_check",
         "two_forms.common_direction", "geometry.domains.eval", "geometry.levi.newton",
         "geometry.levi.levi_form")


def layer_of(span: str) -> str:
    return max((lay for lay in LAYERS if span == lay or span.startswith(lay + ".")), key=len)


def _stack_size(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _after_fields(counts, args, out):
    counts["fields.points"] += len(args[0].points)


def _after_pencil(counts, args, out):
    counts["hermitian.pencil.matrices"] += _stack_size(args[0])


def _after_riesz(counts, args, out):
    counts["riesz.nodes"] += int(out.quad_nodes)


def _after_single(counts, args, out):
    entries = out[1].entries
    counts["metric_single.points"] += len(entries)
    counts["metric_single.inflated"] += sum(
        str(e.provenance).startswith("inflated") for e in entries)


def _after_common_direction(counts, args, out):
    counts["two_forms.common_direction.found"] += out is not None


def _after_newton(counts, args, out):
    counts["geometry.levi.newton.converged"] += out is not None


AFTER = {"fields.validate": _after_fields, "hermitian.pencil": _after_pencil,
         "riesz.projector": _after_riesz, "metric_single.synthesize": _after_single,
         "two_forms.common_direction": _after_common_direction,
         "geometry.levi.newton": _after_newton}


class Tracer:
    """Spans and counters for one traced session; `reset()` starts the next."""

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        self.stack = []                 # open spans: [name, time covered by children]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def _span(self, name, fn):
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][1] += dt
            if after is not None:
                after(self.counts, args, out)
            return out

        return wrapper

    def _linalg(self, kind, fn):
        def wrapper(a, *args, **kwargs):
            layer = layer_of(self.stack[-1][0]) if self.stack else "cli"
            self.counts[f"{layer}.{kind}"] += _stack_size(a)
            return fn(a, *args, **kwargs)

        return wrapper

    def _rays(self, fn):
        def wrapper(pair, dirs, *args, **kwargs):
            self.counts["two_forms.rays"] += len(dirs)
            return fn(pair, dirs, *args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        """Replace `orig` by `wrapper` in every loaded qpos module that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "qpos" or name.startswith("qpos.")):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)

    def install(self):
        for mod_name in {m for m, _, _ in SPANS} | {"qpos.geometry.domains"}:
            importlib.import_module(mod_name)
        for mod_name, attr, span in SPANS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, self._span(span, vars(cls)[meth]))
            elif callable(getattr(mod, attr, None)):
                self._rebind(getattr(mod, attr), self._span(span, getattr(mod, attr)))
        domains = sys.modules["qpos.geometry.domains"]
        base = getattr(domains, "Domain", object)
        for cls in vars(domains).values():
            if isinstance(cls, type) and issubclass(cls, base):
                for meth in DOMAIN_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self._span("geometry.domains.eval", vars(cls)[meth]))
        two_forms = sys.modules["qpos.two_forms"]
        if callable(getattr(two_forms, "_ray_level_hits", None)):
            self._rebind(two_forms._ray_level_hits, self._rays(two_forms._ray_level_hits))
        for fn, kind in LINALG.items():
            self._set(np.linalg, fn, self._linalg(kind, getattr(np.linalg, fn)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """Per-layer values of this session (self times in seconds, the rest counts)."""
        c = self.counts
        out = {f"{s}.self_s": float(self.self_s[s]) for s in SELF_TIMES}
        out.update({f"{s}.calls": self.calls[s] for s in CALLS})
        out["fields.points"] = c["fields.points"]
        out["hermitian.pencil.matrices"] = c["hermitian.pencil.matrices"]
        out["riesz.nodes"] = c["riesz.nodes"]
        out["metric_single.inflated_share"] = _share(c["metric_single.inflated"],
                                                     c["metric_single.points"])
        out["two_forms.common_direction.found_share"] = _share(
            c["two_forms.common_direction.found"], self.calls["two_forms.common_direction"])
        out["two_forms.rays"] = c["two_forms.rays"]
        out["geometry.levi.newton.converged_share"] = _share(
            c["geometry.levi.newton.converged"], self.calls["geometry.levi.newton"])
        for layer in LAYERS:
            for kind in ("eigensolves", "solves"):
                out[f"{layer}.{kind}"] = c[f"{layer}.{kind}"]
        return out


def _share(part, whole) -> float:
    return part / whole if whole else 0.0
