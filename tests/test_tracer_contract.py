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


def traced_export(tmp_path, *argv):
    """Run a traced ``pstwalk export``; its trace record and its spans."""
    record = tmp_path / "rec.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(record), "trace", "--",
         "export", *argv, "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(record.read_text())["trace"]
    # four int64 values per span: name index, parent span index, start, end
    spans = np.fromfile(tmp_path / "spans.bin", dtype=np.int64).reshape(-1, 4)
    return trace, spans


def test_traced_export_makes_one_eigensolve(tmp_path):
    trace, spans = traced_export(tmp_path, "--family", "gl", "--q", "3", "--brute-force-bound", "100")
    assert trace["maxima"]["ctqw.vertices.max"] == 48
    names = [trace["names"][i] for i in spans[:, 0]]
    assert names.count("numeric.eig") == 1
    assert names.count("ctqw.scan") == 1


def test_exact_spectrum_builds_no_cyclotomic_polynomial_and_no_group_element(tmp_path):
    trace, spans = traced_export(tmp_path, "--family", "sl", "--q", "23")
    assert trace["counts"]["chars.phi.builds"] == 0
    names = [trace["names"][i] for i in spans[:, 0]]
    parents = spans[:, 1]

    def under_class_sum(i):
        i = parents[i]
        while i >= 0:
            if names[i] == "scheme.class_sum":
                return True
            i = parents[i]
        return False

    assert "scheme.class_sum" in names
    group_spans = [i for i, n in enumerate(names) if n in ("groups.class_rep", "groups.classify")]
    assert group_spans
    assert not any(under_class_sum(i) for i in group_spans)
