"""The outside-in tracer in ``perfbench/`` still sees what it measures.

The tracer wraps ``pstwalk`` functions by name and counts every
``numpy.linalg.eigh``/``eigvalsh`` call, so a renamed function, a lost
``len()`` on the walk, or a second dense eigensolve shows up here before it
skews a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_traced_export_makes_one_eigensolve(tmp_path):
    record = tmp_path / "rec.json"
    argv = ["export", "--family", "gl", "--q", "3", "--brute-force-bound", "100"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "trace", "--",
         *argv, "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(record.read_text())["trace"]
    assert trace["maxima"]["ctqw.vertices.max"] == 48
    # four int64 values per span, the first being the index of its name
    spans = np.fromfile(tmp_path / "spans.bin", dtype=np.int64).reshape(-1, 4)
    names = [trace["names"][i] for i in spans[:, 0]]
    assert names.count("numeric.eig") == 1
    assert names.count("ctqw.scan") == 1
