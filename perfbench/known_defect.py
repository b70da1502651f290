#!/usr/bin/env python3
"""Reproducer for a known defect of `qpos synthesize single` (see perfbench/README.md).

    python3 perfbench/known_defect.py

Writes a one-point field S = diag(-5, -0.005, 1, 1, 1, 1) and runs
`qpos synthesize single --q 4` on it.  While the defect stands, the command
dies with an uncaught RuntimeError ("eigenvector and Riesz projector routes
disagree by 2.758e-04") and exit code 1: the Riesz spot check caps its
quadrature at 8192 nodes, too few for this crowded negative spectrum.  The
script exits with the command's exit code, so 0 means the defect is fixed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work" / "known_defect"


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    diag = [-5.0, -0.005, 1.0, 1.0, 1.0, 1.0]
    re_part = [[diag[i] if i == j else 0.0 for j in range(6)] for i in range(6)]
    field = {"qpos_schema": 1, "dim": 6, "points": [
        {"id": "p0", "forms": {"S": {"dim": 6, "re": re_part, "im": [[0.0] * 6] * 6}}}]}
    (WORK / "field.json").write_text(json.dumps(field))
    p = subprocess.run(
        [sys.executable, "-m", "qpos.cli", "synthesize", "single", "--input",
         str(WORK / "field.json"), "--form", "S", "--q", "4", "--out", str(WORK / "metric.json")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    last = (p.stderr.strip().splitlines() or [p.stdout.strip()])[-1]
    print(f"exit code {p.returncode}: {last}")
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
