"""Smoke tests: every script in ``scripts/`` runs at its smallest input."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv",
    [
        ("survey", ["--max-q", "3"]),
        ("fidelity_trace", ["--family", "orbital", "--q", "3", "--samples", "5"]),
        ("audit_closed_forms", ["--q", "3"]),
    ],
    ids=["survey", "fidelity_trace", "audit_closed_forms"],
)
def test_script_runs(name, argv, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out


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
