#!/usr/bin/env python3
"""Benchmark of the `qpos` command-line interface.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The workload's inputs are generated
from the seed (cached under perfbench/.work), then whole command sessions run
as a closed loop with one client: one `python3 -m qpos.cli` process at a
time, each timed from outside, until the measuring window is spent.  A fixed
reference process runs between commands, and interpreter start-up is probed
before each session.  Every output is checked by `verify.py`, and
repeated sessions must write identical bytes.  With `--trace 1` the same
sessions run in-process through `qpos.cli.main(argv)`, alternating untraced
and traced (`layertrace.py`), and the per-layer metrics are reported instead
of the end-to-end ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; everything before it is a readable
summary.  A full record (machine, samples, report digests) is written to
perfbench/.work/records.
"""

import os

BLAS_THREADS = 1  # fixed for this process and every child, at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import verify  # noqa: E402
from layertrace import CALLS, LAYERS, SELF_TIMES, Tracer  # noqa: E402
from workloads import (COMMAND_KINDS, WORKLOADS, command_paths, ensure_inputs,  # noqa: E402
                       session, sha256_file)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUPS_PER_SESSION = 2   # `import qpos.cli` probes before each session
MIN_SESSIONS = 2         # even when one session overruns the window
IMPORTTIME_PROBES = 3

E2E_UNITS = {"setup_s": "s", "session_per_ref": "ratio", "peak_rss_mb": "MB"}

# The reference process: the third-party imports, batched LAPACK and JSON work
# a CLI command does, with nothing from this repository, so no change to the
# program can move it.  It runs before and after every command, and each
# command is reported in units of the mean of the two runs around it, which
# cancels most of the host's speed drift.
REFERENCE = """\
import json, numpy, scipy.linalg, scipy.sparse.csgraph, scipy.spatial
rng = numpy.random.default_rng(0)
a = rng.standard_normal((1000, 6, 6)) + 1j * rng.standard_normal((1000, 6, 6))
w = numpy.linalg.eigvalsh(a + a.conj().swapaxes(1, 2))
json.loads(json.dumps({"re": a.real.tolist(), "im": a.imag.tolist(), "w": w.tolist()}))
"""


def per_layer_units() -> dict:
    units = {"cli.import_s": "s", "cli.import_geometry_s": "s"}
    units.update({f"{s}.self_s": "s" for s in SELF_TIMES})
    units.update({f"{s}.calls": "count" for s in CALLS})
    units.update({"serialize.bytes_read": "bytes", "serialize.bytes_written": "bytes",
                  "fields.points": "count", "hermitian.pencil.matrices": "count",
                  "riesz.nodes": "count", "metric_single.inflated_share": "ratio",
                  "two_forms.common_direction.found_share": "ratio", "two_forms.rays": "count",
                  "geometry.levi.newton.converged_share": "ratio"})
    for layer in LAYERS:
        units[f"{layer}.eigensolves"] = "count"
        units[f"{layer}.solves"] = "count"
    units["trace.overhead_share"] = "ratio"
    return units


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    wall: float
    code: int
    rss_mb: float
    stderr: str = ""


def spawn(args) -> Proc:
    """Run `python3 <args>` from the checkout root; wall time, exit code, max RSS, stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # users run with bytecode caches
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, p.returncode, usage.ru_maxrss / 1024.0, err.decode(errors="replace"))


def setup_probe() -> float:
    return spawn(["-c", "import qpos.cli"]).wall


def reference_probe() -> float:
    return spawn(["-c", REFERENCE]).wall


def importtime_probe() -> dict:
    """Cumulative import seconds of qpos.cli and qpos.geometry from `-X importtime`."""
    p = spawn(["-X", "importtime", "-c", "import qpos.cli, qpos.geometry"])
    out = {}
    for line in p.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) in ("qpos.cli", "qpos.geometry"):
            out[m.group(3)] = int(m.group(2)) * 1e-6
    return out


def speed_probe() -> float:
    """Fixed pure-Python work, recorded as an indicator of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


# ---------------------------------------------------------------- sessions

@dataclass
class Session:
    wall: float
    commands: list = field(default_factory=list)   # (kind, wall, code, rss_mb, message)
    digests: dict = field(default_factory=dict)    # output name -> sha256
    bytes_read: int = 0
    bytes_written: int = 0


def run_session(cmds, inputs: Path, out: Path, runner, after_each=None) -> Session:
    """Run one session's commands in order; `runner(argv) -> Proc` runs one command.

    `after_each()`, when given, runs after every command, outside its timing;
    the session's wall time is the sum of its commands' wall times.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    s = Session(wall=0.0)
    for c in cmds:
        argv, reads, writes = command_paths(c, inputs, out)
        p = runner(argv)
        s.commands.append((c.kind, p.wall, p.code, p.rss_mb, p.stderr.strip()[-300:]))
        s.wall += p.wall
        if after_each is not None:
            after_each()
    for c in cmds:
        _, reads, writes = command_paths(c, inputs, out)
        s.bytes_read += sum(r.stat().st_size for r in reads if r.is_file())
        for w in writes:
            if w.is_file():
                s.bytes_written += w.stat().st_size
                s.digests[w.name] = sha256_file(w)
    return s


def subprocess_runner(argv) -> Proc:
    return spawn(["-m", "qpos.cli", *argv])


def inprocess_runner(argv) -> Proc:
    """`qpos.cli.main(argv)` in this process, output captured; exceptions count as failures."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = sys.modules["qpos.cli"].main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # the benchmark must finish and report the failure
            code, buf = 1, io.StringIO(f"{type(e).__name__}: {e}")
    return Proc(time.perf_counter() - t0, int(code or 0), 0.0, buf.getvalue())


class Checker:
    """Verifies the first session's outputs and holds later sessions to the same bytes."""

    def __init__(self, sizes, cmds, inputs: Path):
        self.sizes, self.cmds, self.inputs = sizes, cmds, inputs
        self.reference = None
        self.attempted = 0
        self.failures = []          # (session index, kind, first message, messages)
        self.self_test = None       # a message when the verifier's self-test failed
        self.self_test_note = "not run: the session has no `single` command"

    def add(self, index: int, s: Session, out: Path):
        self.attempted += len(s.commands)
        for c, (kind, _, code, _, msg) in zip(self.cmds, s.commands):
            _, reads, writes = command_paths(c, self.inputs, out)
            bad = [f"exit code {code}: {msg}"] if code != 0 else []
            if not bad and self.reference is None:
                try:
                    bad = verify.command_outputs(kind, self.sizes, reads, writes)
                except (OSError, ValueError, KeyError, TypeError) as e:
                    bad = [f"unreadable output: {type(e).__name__}: {e}"]
            elif not bad:
                bad = [f"{w.name} differs from the first session's bytes" for w in writes
                       if s.digests.get(w.name) != self.reference.get(w.name)]
            if bad:
                self.failures.append((index, kind, bad[0], len(bad)))
        if self.reference is None:
            self.reference = s.digests
            single = [c for c in self.cmds if c.kind == "single"]
            if single:
                _, reads, writes = command_paths(single[0], self.inputs, out)
                if all(w.is_file() for w in writes):
                    self.self_test = verify.self_test(reads[0], writes[0], writes[1])
                else:
                    self.self_test = "self-test: no `single` output to corrupt"
                self.self_test_note = self.self_test or "flagged the corrupted metric file"

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------- machine

def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(KeyError, TypeError, AttributeError):
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------- modes

def end_to_end(cmds, inputs, out, seconds, checker):
    """Untraced sessions of separate processes until the window is spent.

    The reference process runs before the first command and after every
    command.  `session_per_ref` sums, over the command kinds, the median per
    session of the kind's commands in reference units.  Also returns raw
    median wall times, which the summary prints.
    """
    setup_probe()                      # fills bytecode caches; not timed
    setups, probes, sessions = [], [], []
    refs = [reference_probe()]
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        setups += [setup_probe() for _ in range(SETUPS_PER_SESSION)]
        probes.append(speed_probe())
        s = run_session(cmds, inputs, out, subprocess_runner,
                        after_each=lambda: refs.append(reference_probe()))
        step = time.perf_counter() - t0
        measured += step
        checker.add(len(sessions), s, out)
        sessions.append(s)
        if len(sessions) >= MIN_SESSIONS and measured + step > seconds:
            break
    walls = [(k, kind, wall) for k, s in enumerate(sessions) for kind, wall, *_ in s.commands]
    in_ref = {}
    for (k, kind, wall), before, after in zip(walls, refs, refs[1:]):
        in_ref.setdefault(kind, [0.0] * len(sessions))[k] += wall / (0.5 * (before + after))
    values = {"setup_s": median(setups),
              "session_per_ref": sum(median(v) for v in in_ref.values()),
              "peak_rss_mb": median([max(c[3] for c in s.commands) for s in sessions])}
    info = {"session_s": median([s.wall for s in sessions]), "reference_s": median(refs)}
    info.update({f"{kind}_s": median([sum(w for k, w, *_ in s.commands if k == kind)
                                      for s in sessions])
                 for kind in in_ref})
    samples = {"setup_s": setups, "session_s": [s.wall for s in sessions],
               "reference_s": refs, "speed_probe_s": probes,
               "commands": [[c[:4] for c in s.commands] for s in sessions]}
    return values, E2E_UNITS, info, sessions, samples


def traced(cmds, inputs, out, seconds, checker):
    """Untraced and traced in-process sessions, alternating, until the window is spent."""
    sys.path.insert(0, str(SRC))
    import qpos.cli  # noqa: F401  (loaded once; sessions run warm)

    imports = [importtime_probe() for _ in range(IMPORTTIME_PROBES)]
    tracer = Tracer()
    plain, spans, layers, probes = [], [], [], []
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        probes.append(speed_probe())
        s = run_session(cmds, inputs, out, inprocess_runner)
        checker.add(len(plain) + len(spans), s, out)
        plain.append(s)
        tracer.reset()
        tracer.install()
        try:
            s = run_session(cmds, inputs, out, inprocess_runner)
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())
        checker.add(len(plain) + len(spans), s, out)
        spans.append(s)
        step = time.perf_counter() - t0
        measured += step
        if len(spans) >= MIN_SESSIONS and measured + step > seconds:
            break
    units = per_layer_units()
    values = {"cli.import_s": median([p.get("qpos.cli", 0.0) for p in imports]),
              "cli.import_geometry_s": median([p.get("qpos.geometry", 0.0) for p in imports]),
              "serialize.bytes_read": spans[0].bytes_read,
              "serialize.bytes_written": spans[0].bytes_written}
    for name in layers[0]:
        values[name] = median([m[name] for m in layers])
    plain_s = median([s.wall for s in plain])
    values["trace.overhead_share"] = median([s.wall for s in spans]) / plain_s - 1.0
    unstable = sorted(n for n, u in units.items() if u == "count" and n in layers[0]
                      and len({m[n] for m in layers}) != 1)
    samples = {"untraced_session_s": [s.wall for s in plain],
               "traced_session_s": [s.wall for s in spans], "speed_probe_s": probes,
               "imports": imports, "layers": layers, "counts_not_repeating": unstable}
    return {n: values[n] for n in units}, units, {}, spans, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qpos" / "cli.py").is_file():
        print(f"perfbench: no qpos sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs, gen_s, cached = ensure_inputs(WORK, args.workload, args.seed)
    cmds = session(wl.sizes, args.seed, COMMAND_KINDS if args.trace else wl.focus)
    checker = Checker(wl.sizes, cmds, inputs)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = WORK / "out" / tag             # one directory per run, so runs cannot collide
    mode = traced if args.trace else end_to_end
    values, units, info, sessions, samples = mode(cmds, inputs, out, args.seconds, checker)
    shutil.rmtree(out, ignore_errors=True)

    correct = checker.failed == 0 and checker.self_test is None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "sizes": vars(wl.sizes),
              "focus": wl.focus, "informational": info,
              "input_generation_s": gen_s, "inputs_cached": cached,
              "sessions": len(sessions), "attempted": checker.attempted,
              "failed": checker.failed, "failures": checker.failures,
              "self_test": checker.self_test_note,
              "report_sha256": checker.reference, "values": values, "samples": samples}
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    rec_path = WORK / "records" / f"{tag}.json"
    rec_path.write_text(json.dumps(record, indent=1, default=str))

    m = record["machine"]
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, blas {m['blas'].get('name')} "
          f"{m['blas'].get('version')} x{BLAS_THREADS} thread(s)")
    print(f"workload {args.workload} seed {args.seed}: inputs "
          f"{'cached, generated' if cached else 'generated'} in {gen_s:.2f} s; "
          f"{len(sessions)} sessions; speed probe median "
          f"{median(samples['speed_probe_s']) * 1e3:.1f} ms "
          f"(range {min(samples['speed_probe_s']) * 1e3:.1f}-"
          f"{max(samples['speed_probe_s']) * 1e3:.1f})")
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:>14.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:45s} {value:>14.6g} s   (informational, not gated)")
    print(f"  {'op_fail_share':45s} {checker.failed / max(1, checker.attempted):>14.6g} ratio")
    for f in checker.failures[:5]:
        print(f"  FAILED session {f[0]} {f[1]}: {f[2]}")
    if checker.self_test:
        print(f"  {checker.self_test}")
    print(f"  report sha256 ({len(checker.reference or {})} files) in {rec_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
