"""Smoke tests: every script in ``scripts/`` runs at its smallest input."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from oracles import spectrum_of
from pstwalk import cli
from pstwalk.cayley import STANDARD
from pstwalk.scheme import TransferCertificate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,counts",
    [
        # the five targets up to q = 3, each certified and simulated
        ("survey", ["--max-q", "3"], {" valid ": 5, " fidelity ": 5}),
        ("fidelity_trace", ["--family", "orbital", "--q", "3", "--samples", "5"], {}),
        ("audit_closed_forms", ["--q", "3"], {}),
    ],
    ids=["survey", "fidelity_trace", "audit_closed_forms"],
)
def test_script_runs(name, argv, counts, capsys):
    assert load(name).main(argv) == 0
    out = capsys.readouterr().out
    assert out
    for text, count in counts.items():
        assert out.count(text) == count, text


def test_survey_runs_the_verify_cross_checks(monkeypatch, capsys):
    """A numeric spectrum that disagrees with the exact rows fails the survey,
    as it fails ``pstwalk verify``."""
    real = cli.analyze

    def doctored(tag, q, variant):
        analysis = real(tag, q, variant)
        if (tag, q, variant) != ("gl", 3, STANDARD):
            return analysis
        rows = list(analysis.rows)
        rows[1] = rows[1]._replace(theta=rows[1].theta - 4)
        return analysis._replace(rows=spectrum_of(rows))

    monkeypatch.setattr(cli, "analyze", doctored)
    assert load("survey").main(["--max-q", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    disagreeing = [line for line in lines if "DISAGREES" in line]
    assert len(disagreeing) == 1
    assert disagreeing[0].startswith("gl(2,3) standard")
    assert "DISAGREES: spectrum_matches" in disagreeing[0]


def test_fidelity_trace_reads_transfer_at_tau(capsys):
    argv = ["--family", "orbital", "--q", "3", "--samples", "4"]
    assert load("fidelity_trace").main(argv) == 0
    out = capsys.readouterr().out
    assert "cosets H and zH (vertices 0, 15)" in out
    assert float(out.rsplit("fidelity at tau:", 1)[1]) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_trace_refuses_what_it_cannot_trace(monkeypatch, capsys):
    trace = load("fidelity_trace")
    assert trace.main(["--family", "orbital", "--q", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: q = 7 runs in period-sum-only mode")
    assert err.count("\n") == 1

    real = cli.analyze

    def failing(tag, q, variant):
        analysis = real(tag, q, variant)
        fields = analysis.certificate._asdict()
        bad = TransferCertificate(**{**fields, "ok": False, "reason": "forced failure"})
        return analysis._replace(certificate=bad)

    monkeypatch.setattr(cli, "analyze", failing)
    assert trace.main(["--family", "gl", "--q", "3"]) == 1
    assert capsys.readouterr().err == "error: no certificate: forced failure\n"


@pytest.mark.parametrize(
    "name,argv,message",
    [
        ("fidelity_trace", ["--samples", "0"], "--samples: expected a positive integer"),
        ("survey", ["--simulate-bound", "-1"], "--simulate-bound: expected a non-negative integer"),
    ],
    ids=["fidelity_trace", "survey"],
)
def test_script_refuses_bad_arguments(name, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
