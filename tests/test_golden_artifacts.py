"""Exported artifacts of fixed targets, compared with recorded goldens.

Every target runs ``pstwalk export`` in-process.  ``spectrum.csv`` must
match its golden byte for byte, and ``graph.edges`` must match the
recorded sha256 and size (the edge lists run to megabytes, so only their
digests are committed).  ``report.json`` is compared after normalization:
the package version and the float strings that depend on the BLAS build
(numeric eigenvalue deviation and walk fidelity) are replaced by a
placeholder, while a null stays null.

To rewrite the goldens after an intended change of the artifacts:

    PYTHONPATH=src python tests/test_golden_artifacts.py

Naming targets records only those, leaving the other goldens as they are:

    PYTHONPATH=src python tests/test_golden_artifacts.py orbital-11 orbital-23
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import pytest

from pstwalk import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
PLACEHOLDER = "<normalized>"

# (golden directory, export arguments)
TARGETS = [
    ("gl-3", ["--family", "gl", "--q", "3"]),
    ("gl-5", ["--family", "gl", "--q", "5"]),
    ("gu-3", ["--family", "gu", "--q", "3"]),
    ("gu-5", ["--family", "gu", "--q", "5"]),
    ("sl-3", ["--family", "sl", "--q", "3"]),
    ("sl-5", ["--family", "sl", "--q", "5"]),
    # a prime power: the half values come from the trace periods of F_9
    ("sl-9", ["--family", "sl", "--q", "9"]),
    ("gl-3-small-orders", ["--family", "gl", "--q", "3", "--variant", "small-orders"]),
    ("orbital-3", ["--family", "orbital", "--q", "3"]),
    ("orbital-7", ["--family", "orbital", "--q", "7"]),
    # no explicit graph: the spectrum rests on the period sums alone
    ("orbital-11", ["--family", "orbital", "--q", "11"]),
    ("orbital-23", ["--family", "orbital", "--q", "23"]),
    # both "exceeds the enumeration bound" skip paths
    ("gl-5-bound-100", ["--family", "gl", "--q", "5", "--brute-force-bound", "100"]),
    ("orbital-3-bound-100", ["--family", "orbital", "--q", "3", "--brute-force-bound", "100"]),
]

# float strings whose last digits depend on the linear-algebra backend
_VOLATILE = (
    ("cross_checks", "spectrum_deviation"),
    ("cross_checks", "walk_min_fidelity"),
)


def normalized_report(text: str) -> str:
    report = json.loads(text)
    report["artifact"]["version"] = PLACEHOLDER
    for section, key in _VOLATILE:
        if report[section].get(key) is not None:
            report[section][key] = PLACEHOLDER
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def edges_digest(data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()} {len(data)}\n"


def export(args: list[str], out_dir: Path) -> dict[str, str]:
    """The golden view of one target's artifacts, keyed by golden file name."""
    code = cli.main(["export", *args, "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    files = {
        "report.json": normalized_report((out_dir / "report.json").read_text()),
        "spectrum.csv": (out_dir / "spectrum.csv").read_text(),
    }
    edges = out_dir / "graph.edges"
    if edges.exists():
        files["graph.edges.sha256"] = edges_digest(edges.read_bytes())
    return files


@pytest.mark.parametrize("name,args", TARGETS, ids=[name for name, _ in TARGETS])
def test_artifacts_match_golden(name, args, tmp_path, capsys):
    files = export(args, tmp_path)
    capsys.readouterr()
    recorded = {p.name: p.read_text() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(files) == sorted(recorded)
    for key, text in files.items():
        assert text == recorded[key], f"{name}/{key} differs from its golden"


@pytest.mark.parametrize("name", [name for name, _ in TARGETS])
def test_the_report_classes_group_the_spectrum_csv(name):
    """report.json's spectrum classes are spectrum.csv grouped by (kind, theta, sign), sorted,
    and their multiplicities add up to the vertex count."""
    report = json.loads((GOLDEN / name / "report.json").read_text())
    with (GOLDEN / name / "spectrum.csv").open(newline="") as f:
        rows = list(csv.DictReader(f))
    classes: dict[tuple, tuple[int, int]] = {}
    for row in rows:
        key = (row["char-kind"], int(row["theta"]), int(row["phi-sign"]))
        n, m = classes.get(key, (0, 0))
        classes[key] = (n + 1, m + int(row["multiplicity"]))
    assert report["spectrum_classes"] == [
        {"kind": kind, "theta": theta, "sign": sign, "characters": n, "multiplicity": m}
        for (kind, theta, sign), (n, m) in sorted(classes.items())
    ]
    assert report["spectrum_rows"] == len(rows)
    construction = report["construction"]
    vertices = construction["cosets" if report["target"]["kind"] == "orbital" else "group_order"]
    assert sum(c["multiplicity"] for c in report["spectrum_classes"]) == vertices


def record(names: Sequence[str] = ()) -> None:
    """Record the goldens of the named targets, or of every target."""
    unknown = set(names) - {name for name, _ in TARGETS}
    if unknown:
        raise SystemExit(f"unknown golden targets: {', '.join(sorted(unknown))}")
    for name, args in TARGETS:
        if names and name not in names:
            continue
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            files = export(args, Path(tmp))
        for key, text in files.items():
            (target / key).write_text(text)
        print(f"recorded {target}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
