"""Workload definitions and seeded input generation.

A workload is a session of `qpos` CLI invocations on inputs generated from
the seed.  The end-to-end run times only the workload's *focus* commands,
the ones whose layers it is meant to stress.  The traced run appends one
small invocation of every other command kind, so that every per-layer
metric is measured on every workload.

The generators below are the benchmark's own (numpy only), so the inputs for
a seed stay byte-identical whatever the package's own `qpos.synthetic` does.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUADRIC = {"type": "quadric", "n": 3, "q": 2, "mu": [2.0, 2.0, -0.5, -0.5]}
PRODUCT = {"type": "product", "n": 3, "q": 2}
DOMAIN_N, DOMAIN_Q = QUADRIC["n"], QUADRIC["q"]
SINGLE_D, SINGLE_Q, SINGLE_ANCHORS = 6, 3, 25
SUB_D, SUB_Q, SUB_FORMS = 5, 2, ("Q1", "Q2", "Q3")
PAIR_D = 3
PROJECT_CENTER, PROJECT_RADIUS = -2.0, 1.5


@dataclass(frozen=True)
class Sizes:
    single_points: int     # synthesize single / check
    sub_points: int        # synthesize subbundle
    project_dim: int       # project: matrix size; a quarter of the spectrum is inside the disc
    project_nodes: int
    pairs: int             # synthesize two-forms
    angles: int
    bump_samples: int      # geometry bump on the quadric
    boundary_samples: int  # geometry levi / zq / pipeline
    grid: int              # geometry counterexample


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    focus: tuple           # command kinds timed end to end
    why: str


# Sizes of the command kinds a workload only covers in its traced run.
LIGHT = dict(single_points=200, sub_points=100, project_dim=32, project_nodes=64,
             pairs=4, angles=128, bump_samples=40, boundary_samples=100, grid=16)

WORKLOADS = {
    "fields": Workload(
        Sizes(**dict(LIGHT, single_points=2000, sub_points=1000,
                     project_dim=192, project_nodes=128)),
        ("single", "check", "subbundle", "project"),
        "many points at small d: JSON read, validation, canonical write and batched "
        "pencil solves dominate; project is the one Riesz-bound command"),
    "searches": Workload(
        Sizes(**dict(LIGHT, pairs=24, angles=512, bump_samples=250)),
        ("two_forms", "bump"),
        "per-point Python loops on small files: level-curve ray bisection and the "
        "multi-start common-direction search"),
    "boundary": Workload(
        Sizes(**dict(LIGHT, boundary_samples=800, grid=48)),
        ("levi", "zq", "pipeline", "counterexample"),
        "many short geometry commands: import plus per-sample Newton projection, "
        "kernel frames, Levi forms and kNN adjacency"),
}

COMMAND_KINDS = ("single", "check", "subbundle", "project", "two_forms", "bump",
                 "levi", "zq", "pipeline", "counterexample")


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple            # arguments after `qpos`
    reads: tuple           # files read, in the `@`/`%` notation of `resolve`
    writes: tuple          # files written


def session(sizes: Sizes, seed: int, kinds=COMMAND_KINDS) -> list[Command]:
    """The commands of the given kinds, in a fixed interleaved order.

    File names are relative: inputs live in the seed's input directory and
    outputs in the session's output directory; `resolve` makes them paths.
    """
    s = str(seed)
    b = str(sizes.boundary_samples)
    dq = ("--q", str(DOMAIN_Q))

    def cmd(kind, argv, reads, writes):
        return Command(kind, ("--seed", s) + tuple(argv), tuple(reads), tuple(writes))

    cmds = [
        cmd("single", ["synthesize", "single", "--input", "@single.json", "--form", "S",
                       "--q", str(SINGLE_Q), "--margin", "0.1",
                       "--out", "%single_metric.json", "--cert", "%single_cert.json"],
            ["@single.json"], ["%single_metric.json", "%single_cert.json"]),
        cmd("levi", ["geometry", "levi", "--domain", "@quadric.json", "--samples", b,
                     "--out", "%levi.json"], ["@quadric.json"], ["%levi.json"]),
        cmd("check", ["check", "--input", "@single.json", "--form", "S", "--q", str(SINGLE_Q),
                      "--metric", "%single_metric.json", "--out", "%check.json"],
            ["@single.json", "%single_metric.json"], ["%check.json"]),
        cmd("two_forms", ["synthesize", "two-forms", "--input", "@pairs.json", "--forms", "Q1,Q2",
                          "--angles", str(sizes.angles), "--out", "%pairs_metric.json",
                          "--cert", "%pairs_cert.json"],
            ["@pairs.json"], ["%pairs_metric.json", "%pairs_cert.json"]),
        cmd("zq", ["geometry", "zq", "--domain", "@quadric.json", *dq, "--samples", b,
                   "--out", "%zq.json"], ["@quadric.json"], ["%zq.json"]),
        cmd("subbundle", ["synthesize", "subbundle", "--input", "@subbundle.json",
                          "--forms", ",".join(SUB_FORMS), "--q", str(SUB_Q),
                          "--out", "%sub_metric.json", "--cert", "%sub_cert.json",
                          "--report", "%sub_report.json"],
            ["@subbundle.json"], ["%sub_metric.json", "%sub_cert.json", "%sub_report.json"]),
        cmd("bump", ["geometry", "bump", "--domain", "@quadric.json", *dq,
                     "--samples", str(sizes.bump_samples), "--out", "%bump.json"],
            ["@quadric.json"], ["%bump.json"]),
        cmd("pipeline", ["geometry", "pipeline", "--domain", "@quadric.json", *dq, "--samples", b,
                         "--out", "%quad_pipe_metric.json", "--cert", "%quad_pipe_cert.json"],
            ["@quadric.json"], ["%quad_pipe_metric.json", "%quad_pipe_cert.json"]),
        cmd("project", ["project", "--input", "@project.json", "--center", str(PROJECT_CENTER),
                        "--radius", str(PROJECT_RADIUS), "--nodes", str(sizes.project_nodes),
                        "--out", "%projector.json"], ["@project.json"], ["%projector.json"]),
        cmd("pipeline", ["geometry", "pipeline", "--domain", "@product.json", *dq, "--samples", b,
                         "--out", "%prod_pipe_metric.json", "--cert", "%prod_pipe_cert.json"],
            ["@product.json"], ["%prod_pipe_metric.json", "%prod_pipe_cert.json"]),
        cmd("counterexample", ["geometry", "counterexample", "--radius", "2.0",
                               "--grid", str(sizes.grid), "--out", "%counterexample.json"],
            [], ["%counterexample.json"]),
    ]
    return [c for c in cmds if c.kind in kinds]


def resolve(name: str, inputs: Path, outputs: Path) -> str:
    """`@name` is an input file, `%name` an output file, anything else a literal."""
    if name.startswith("@"):
        return str(inputs / name[1:])
    if name.startswith("%"):
        return str(outputs / name[1:])
    return name


def command_paths(c: Command, inputs: Path, outputs: Path):
    """(argv, files read, files written) of a command, as paths."""
    argv = [resolve(a, inputs, outputs) for a in c.argv]
    reads = [Path(resolve(r, inputs, outputs)) for r in c.reads]
    writes = [Path(resolve(w, inputs, outputs)) for w in c.writes]
    return argv, reads, writes


# ---------------------------------------------------------------- generators

def _unitaries(rng, n, d):
    Z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[:, None, :]


def _with_eigs(rng, eigs):
    """Hermitian matrices with the given eigenvalues (rows) and random eigenvectors."""
    n, d = eigs.shape
    U = _unitaries(rng, n, d)
    return (U * eigs[:, None, :]) @ np.conj(np.swapaxes(U, -1, -2))


def _herm(M):
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def _matrix(M):
    M = np.asarray(M, dtype=complex)
    return {"dim": int(M.shape[0]), "re": M.real.tolist(), "im": M.imag.tolist()}


def _field(d, points):
    return {"qpos_schema": 1, "dim": d, "points": points}


def planted_inertia(rng, n, d=SINGLE_D, q=SINGLE_Q, anchors=SINGLE_ANCHORS):
    """Form field with 0..q-1 planted negative eigenvalues per point.

    Negative eigenvalues are drawn from [-5, -0.5] and positive ones from
    [0.5, 2], so every point has at least d - q + 1 positive eigenvalues.
    The first `anchors` points are in F with identity g0 and no negative
    eigenvalue.
    """
    nu = rng.integers(0, q, size=n)
    nu[:anchors] = 0
    pos = rng.uniform(0.5, 2.0, size=(n, d))
    neg = -rng.uniform(0.5, 5.0, size=(n, d))
    eigs = np.where(np.arange(d)[None, :] < nu[:, None], neg, pos)
    S = _herm(_with_eigs(rng, eigs))
    eye = _matrix(np.eye(d))
    points = []
    for i in range(n):
        p = {"id": f"p{i}", "forms": {"S": _matrix(S[i])}}
        if i < anchors:
            p.update(g0=eye, in_F=True)
        points.append(p)
    return _field(d, points)


def planted_subbundle(rng, n, d=SUB_D, q=SUB_Q, names=SUB_FORMS, neg_scale=8.0):
    """Forms positive definite on a gamma-orthonormal rank d-q+1 subbundle.

    gamma (condition number up to 4) is written as each point's g0 and the
    subbundle basis as its subspace.
    """
    k = d - q + 1
    gw = np.exp(rng.uniform(0.0, np.log(4.0), size=(n, d)))
    gw /= gw.min(axis=1, keepdims=True)
    Ug = _unitaries(rng, n, d)
    gamma = _herm((Ug * gw[:, None, :]) @ np.conj(np.swapaxes(Ug, -1, -2)))
    ginv_half = (Ug / np.sqrt(gw)[:, None, :]) @ np.conj(np.swapaxes(Ug, -1, -2))
    frame = ginv_half @ _unitaries(rng, n, d)           # gamma-orthonormal
    frame_inv = np.linalg.inv(frame)
    forms = {}
    for name in names:
        QF = np.zeros((n, d, d), dtype=complex)
        QF[:, :k, :k] = _with_eigs(rng, rng.uniform(0.4, 2.0, size=(n, k)))
        QF[:, k:, k:] = _with_eigs(rng, rng.uniform(-neg_scale, 1.0, size=(n, q - 1)))
        vw = 0.5 * (rng.standard_normal((n, k, q - 1)) + 1j * rng.standard_normal((n, k, q - 1)))
        QF[:, :k, k:] = vw
        QF[:, k:, :k] = np.conj(np.swapaxes(vw, -1, -2))
        forms[name] = _herm(np.conj(np.swapaxes(frame_inv, -1, -2)) @ QF @ frame_inv)
    points = []
    for i in range(n):
        B = frame[i, :, :k]
        points.append({
            "id": f"p{i}",
            "forms": {name: _matrix(forms[name][i]) for name in names},
            "g0": _matrix(gamma[i]),
            "subspace": {"dim": d, "basis_re": B.T.real.tolist(), "basis_im": B.T.imag.tolist()},
        })
    return _field(d, points)


def pairs_with_common_direction(rng, n, d=PAIR_D, margin=0.3):
    """Pairs of indefinite forms that are both >= margin on a random unit vector."""
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vv = v[:, :, None] * np.conj(v)[:, None, :]
    forms = {}
    for name in ("Q1", "Q2"):
        Z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        Q = _herm(Z)
        val = np.real(np.einsum("ni,nij,nj->n", np.conj(v), Q, v))
        want = rng.uniform(margin, 1.0, size=n)
        forms[name] = _herm(Q + (want - val)[:, None, None] * vv)
    return _field(d, [{"id": f"p{i}", "forms": {k: _matrix(F[i]) for k, F in forms.items()}}
                      for i in range(n)])


def projector_matrix(rng, d):
    """Hermitian d x d with d/4 eigenvalues in [-3, -1] (inside the disc) and the rest in [1, 3]."""
    k = d // 4
    eigs = np.concatenate([rng.uniform(-3.0, -1.0, k), rng.uniform(1.0, 3.0, d - k)])
    return _matrix(_herm(_with_eigs(rng, eigs[None, :]))[0])


def generate(sizes: Sizes, seed: int) -> dict:
    """All input documents of a workload, by file name."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    return {
        "single.json": planted_inertia(rngs[0], sizes.single_points),
        "subbundle.json": planted_subbundle(rngs[1], sizes.sub_points),
        "pairs.json": pairs_with_common_direction(rngs[2], sizes.pairs),
        "project.json": projector_matrix(rngs[3], sizes.project_dim),
        "quadric.json": QUADRIC,
        "product.json": PRODUCT,
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ensure_inputs(work: Path, workload: str, seed: int) -> tuple[Path, float, bool]:
    """Write (or reuse) the seed's inputs; returns (directory, generation seconds, cached).

    The manifest is written last, so a directory without one is regenerated.
    """
    d = work / "inputs" / f"{workload}-seed{seed}"
    manifest = d / "manifest.json"
    if manifest.is_file():
        meta = json.loads(manifest.read_text())
        if all(sha256_file(d / n) == h for n, h in meta["sha256"].items()):
            return d, float(meta["generation_s"]), True
    d.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    docs = generate(WORKLOADS[workload].sizes, seed)
    for name, doc in docs.items():
        with open(d / name, "w") as fh:
            json.dump(doc, fh)
    gen_s = time.perf_counter() - t0
    manifest.write_text(json.dumps({"generation_s": gen_s,
                                    "sha256": {n: sha256_file(d / n) for n in docs}}))
    return d, gen_s, False
