"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pstwalk import cli, orbital
from pstwalk.cli import EXIT_CERTIFICATE, EXIT_CROSS_CHECK, EXIT_OK, EXIT_USAGE, main
from pstwalk.ctqw import TransferReport
from pstwalk.groups import GLGroup, GUGroup, SLGroup

FLOAT_FIELD = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")
ROOT = Path(__file__).resolve().parent.parent


def run_ok(argv):
    code = main(argv)
    assert code == EXIT_OK
    return code


# ---------------------------------------------------------------------------
# verify


def test_verify_gl3_passes_and_notes_matching_complement(capsys):
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "complement of 24 disjoint edges" in out
    assert "transfer time pi/2" in out
    assert out.count("notice:") == 2  # the two retained hand forms that disagree


def test_verify_gl3_small_orders_variant(capsys):
    assert main(["verify", "--family", "gl", "--q", "3", "--variant", "small-orders"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "notice:" not in out  # no closed forms for the variant
    assert "cross-check walk_ok: True" in out


@pytest.mark.parametrize("family,q", [("gu", 3), ("sl", 3), ("sl", 5)])
def test_verify_other_families_pass(family, q):
    run_ok(["verify", "--family", family, "--q", str(q)])


def test_verify_gl5_skips_simulation_but_builds_graph(capsys):
    assert main(["verify", "--family", "gl", "--q", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cross-check simulation: skipped: 480 vertices" in out
    assert "cross-check degree_row_sums_match: True" in out


def test_bound_must_be_non_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "gl", "--q", "3", "--brute-force-bound", "-1"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert "--brute-force-bound: expected a non-negative integer, got '-1'" in captured.err
    # zero stays legal: it skips every explicit check
    assert main(["verify", "--family", "gl", "--q", "3", "--brute-force-bound", "0"]) == EXIT_OK
    assert "cross-check explicit_graph: skipped: group order 48" in capsys.readouterr().out


def test_verify_bound_flag_disables_enumeration(capsys):
    assert main(["verify", "--family", "gl", "--q", "3", "--brute-force-bound", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cross-check explicit_graph: skipped: group order 48" in out


# ---------------------------------------------------------------------------
# usage errors (exit code 1)


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "zz", "--q", "3"])
    assert exc.value.code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "gl", "--q", "4"],
        ["verify", "--family", "gl", "--q", "15"],
        ["verify", "--family", "sl", "--q", "9"],
        ["verify", "--family", "gu", "--q", "3", "--variant", "small-orders"],
        ["orbital", "--q", "5"],
        ["orbital", "--q", "9"],
    ],
)
def test_invalid_targets_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["15", "-1"])
def test_orbital_refusal_names_the_given_q(q, capsys):
    assert main(["orbital", "--q", q]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {q} is not a prime power\n"


@pytest.mark.parametrize("family", [GLGroup, GUGroup, SLGroup], ids=["gl", "gu", "sl"])
@pytest.mark.parametrize("q", [0, 1, 2, 4, 6, 8])
def test_q_outside_odd_prime_powers_is_refused_by_the_constructor(family, q, capsys):
    """One guard: the group constructor refuses q, and verify exits 1 with its one line."""
    if q in (2, 4, 8):
        message = f"{q} is even; only odd characteristic is supported"
    else:
        message = f"{q} is not a prime power"
    with pytest.raises(ValueError) as refused:
        family(q)
    assert str(refused.value) == message
    assert main(["verify", "--family", family.family, "--q", str(q)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_orbital_variant_is_refused_before_any_file_is_written(tmp_path, capsys):
    argv = ["export", "--family", "orbital", "--q", "3", "--variant", "small-orders"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unsupported variant 'small-orders' for the orbital graph; available: standard\n"
    )
    assert not (tmp_path / "out").exists()


def test_unknown_format_is_usage_error(tmp_path, capsys):
    argv = [
        "verify", "--family", "gl", "--q", "3",
        "--out-dir", str(tmp_path), "--format", "edges,bogus",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unknown format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "gl", "--q", "3", "--format", "bogus"],
        ["export", "--family", "gl", "--q", "23", "--format", "bogus"],
    ],
)
def test_unknown_format_is_refused_before_any_work(argv, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("analyze ran before --format was checked")

    monkeypatch.setattr(cli, "analyze", never)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--format: unknown format(s) bogus" in captured.err
    assert captured.out == ""


def test_edges_format_needs_explicit_graph(tmp_path, capsys):
    argv = [
        "orbital", "--q", "7",
        "--out-dir", str(tmp_path), "--format", "edges",
    ]
    assert main(argv) == EXIT_USAGE
    assert "explicit graph" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# orbital


def test_orbital_q3_passes_with_display_notices(capsys):
    assert main(["orbital", "--q", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "cross-check walk_pairs: 60" in out
    assert "linear-energy-display" in out
    assert out.count("notice:") == 2


def test_orbital_q7_character_sum_only(capsys):
    assert main(["orbital", "--q", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "period-sum-only mode" in out
    assert "verdict: ok" in out


# ---------------------------------------------------------------------------
# artifacts


def test_export_gl3_artifacts(tmp_path):
    run_ok(["export", "--family", "gl", "--q", "3", "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == cli.SCHEMA
    assert report["target"] == {
        "kind": "cayley", "family": "gl", "q": 3, "variant": "standard",
    }
    assert report["certificate"]["residue"] == 2
    assert report["certificate"]["gap"] == 2
    assert report["cross_checks"]["walk_pairs"] == 24
    assert FLOAT_FIELD.match(report["certificate"]["time"])
    assert FLOAT_FIELD.match(report["cross_checks"]["spectrum_deviation"])
    assert len(report["notices"]) == 2

    csv_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv_lines[0] == "family,q,char-kind,char-params,degree,theta,multiplicity,phi-sign"
    assert csv_lines[1] == "gl,3,linear,0,1,46,1,1"
    assert len(csv_lines) == 1 + 8  # q + 4 irreducibles of GL(2,3)

    edge_lines = (tmp_path / "graph.edges").read_text().splitlines()
    assert len(edge_lines) == 46 * 48 // 2
    pairs = [tuple(map(int, line.split())) for line in edge_lines]
    assert all(0 <= u < v < 48 for u, v in pairs)
    assert pairs == sorted(pairs)


def test_edges_text_formats_row_blocks_as_one_list():
    """An edgeless graph writes one newline; a graph of several row blocks reads as one list."""
    assert cli._edges_text(np.zeros((3, 3), dtype=np.int64)) == "\n"
    n = 2 * cli._EDGE_BLOCK_ROWS + 5
    upper = np.triu(np.random.default_rng(7).random((n, n)) < 0.05, 1)
    adjacency = (upper | upper.T).astype(np.int64)
    rows, cols = np.nonzero(upper)
    assert rows.max() >= 2 * cli._EDGE_BLOCK_ROWS  # the last, partial block has edges
    assert cli._edges_text(adjacency) == "".join(f"{i} {j}\n" for i, j in zip(rows, cols))


def test_export_orbital_q3_artifacts(tmp_path):
    run_ok(["export", "--family", "orbital", "--q", "3", "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["target"] == {"kind": "orbital", "family": "orbital", "q": 3}
    assert report["construction"]["cosets"] == 120
    assert report["construction"]["subgroup_order"] == 48
    assert report["construction"]["transversal"] == [1, 4, 6, 7]
    assert report["construction"]["z_scalar"] == 6
    assert report["certificate"]["ok"] is True
    assert report["certificate"]["mode"] == "explicit"

    csv_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv_lines[1] == "orbital,3,linear,0,1,73,1,1"
    assert len(csv_lines) == 1 + 16

    edge_lines = (tmp_path / "graph.edges").read_text().splitlines()
    assert len(edge_lines) == 73 * 120 // 2


def test_export_orbital_q7_skips_edges(tmp_path):
    run_ok(["export", "--family", "orbital", "--q", "7", "--out-dir", str(tmp_path)])
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "spectrum.csv").exists()
    assert not (tmp_path / "graph.edges").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["certificate"]["mode"] == "period-sum"
    assert "fidelity_deviation" not in report["certificate"]
    assert len(report["spectrum"]) == 64


def test_reports_are_byte_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        run_ok(["verify", "--family", "gl", "--q", "3", "--out-dir", str(out)])
    for name in ("report.json", "spectrum.csv", "graph.edges"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_format_selection_writes_single_file(tmp_path):
    run_ok([
        "verify", "--family", "sl", "--q", "3",
        "--out-dir", str(tmp_path), "--format", "json",
    ])
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "spectrum.csv").exists()
    assert not (tmp_path / "graph.edges").exists()


# ---------------------------------------------------------------------------
# failure exit codes, forced through doctored pipeline stages


def test_certificate_failure_exits_2(monkeypatch, capsys):
    real = cli.analyze

    def doctored(tag, q, variant):
        analysis = real(tag, q, variant)
        bad = dataclasses.replace(
            analysis.certificate, ok=False, reason="forced failure for the test"
        )
        return analysis._replace(certificate=bad)

    monkeypatch.setattr(cli, "analyze", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CERTIFICATE
    out = capsys.readouterr().out
    assert "certificate: FAILED" in out
    assert "verdict: certificate failure" in out


def test_certificate_failure_still_runs_the_walk(monkeypatch, capsys):
    """The mod-4 certificate is sufficient, not necessary: the walk on a graph
    it rejects is still simulated and reported, and the exit code stays 2."""
    real = cli.analyze

    def doctored(tag, q, variant):
        analysis = real(tag, q, variant)
        bad = dataclasses.replace(analysis.certificate, ok=False, reason="forced failure")
        return analysis._replace(certificate=bad)

    monkeypatch.setattr(cli, "analyze", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CERTIFICATE
    out = capsys.readouterr().out
    assert "cross-check walk_min_fidelity: " in out
    assert "cross-check walk_ok: True" in out
    assert "verdict: certificate failure" in out


def test_orbital_structure_checks_can_fail(monkeypatch, capsys):
    """A coset graph without its HzH edges, paired by a permutation that is
    not an involution, reads false on the degree and matching checks, and
    the walk is not split by that permutation."""
    connection, partner = orbital._connection, orbital.translation_partner

    def without_z(space):
        z_vertex = space.coset_index[space.z]
        return [d for d in connection(space) if space.coset_index[d] != z_vertex]

    monkeypatch.setattr(orbital, "_connection", without_z)
    monkeypatch.setattr(orbital, "translation_partner", lambda *a: np.roll(partner(*a), 1))
    orbital.build_gamma.cache_clear()
    try:
        assert main(["orbital", "--q", "3"]) == EXIT_CROSS_CHECK
    finally:
        orbital.build_gamma.cache_clear()
    out = capsys.readouterr().out
    assert "cross-check degree_row_sums_match: False" in out
    assert "cross-check involution_is_perfect_matching: False" in out
    assert "cross-check simulation: skipped: the pairing is not an involution at vertex" in out


def test_spectrum_mismatch_exits_3(monkeypatch, capsys):
    real = cli.analyze

    def doctored(tag, q, variant):
        # one eigenvalue below the top moves by 4: the certificate, computed
        # from the true rows, stays valid, but the numeric spectrum disagrees
        analysis = real(tag, q, variant)
        rows = list(analysis.rows)
        rows[1] = rows[1]._replace(theta=rows[1].theta - 4)
        return analysis._replace(rows=rows)

    monkeypatch.setattr(cli, "analyze", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "certificate: valid" in out
    assert "cross-check spectrum_deviation: 4.000000000000e+00" in out
    assert "cross-check spectrum_matches: False" in out
    assert "cross-check walk_ok: True" in out
    assert "verdict: cross-check mismatch" in out


def flip_sign(rows):
    rows[1] = rows[1]._replace(sign=-rows[1].sign)


def swap_signs(rows):
    # cuspidal(1), theta 0 on the -1 side, and cuspidal(2), theta -2 on the
    # +1 side, both of multiplicity 4: each side keeps its size
    rows[5], rows[6] = rows[5]._replace(sign=rows[6].sign), rows[6]._replace(sign=rows[5].sign)


@pytest.mark.parametrize(
    "doctor, deviation", [(flip_sign, "inf"), (swap_signs, "2.000000000000e+00")]
)
def test_sign_mismatch_exits_3(monkeypatch, capsys, doctor, deviation):
    """The numeric +1 and -1 sides of the pairing are compared with the rows of
    that sign, so a wrong sign fails even where the union spectrum agrees."""
    real = cli.analyze

    def doctored(tag, q, variant):
        analysis = real(tag, q, variant)
        rows = list(analysis.rows)
        doctor(rows)
        return analysis._replace(rows=rows)

    monkeypatch.setattr(cli, "analyze", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "certificate: valid" in out
    assert f"cross-check spectrum_deviation: {deviation}\n" in out
    assert "cross-check spectrum_matches: False" in out
    assert "cross-check walk_ok: True" in out


def test_walk_failure_exits_3(monkeypatch):
    def failing_scan(adjacency, pairs, **kw):
        return TransferReport(
            ok=False,
            time=1.0,
            times_checked=(1.0,),
            min_fidelity=0.5,
            mid_fidelity=0.0,
            pairs_checked=len(pairs),
            reason="forced failure for the test",
        )

    monkeypatch.setattr(cli, "pst_scan", failing_scan)
    assert main(["verify", "--family", "sl", "--q", "3"]) == EXIT_CROSS_CHECK
    assert main(["orbital", "--q", "3"]) == EXIT_CROSS_CHECK


def test_walk_errors_fail_the_cross_check(monkeypatch, capsys):
    """An error the walk raises on the explicit graph, here an asymmetric
    adjacency, is a cross-check failure with exit 3, not a traceback."""
    real = cli.explicit_graph

    def one_way(family, conn, bound):
        graph = real(family, conn, bound=bound)
        adjacency = graph.adjacency.copy()
        i, j = np.argwhere(adjacency)[0]
        adjacency[i, j] = 0
        return graph._replace(adjacency=adjacency)

    monkeypatch.setattr(cli, "explicit_graph", one_way)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "cross-check simulation: skipped: adjacency must be symmetric\n" in out
    assert "verdict: cross-check mismatch" in out


def test_export_alone_defaults_to_the_working_directory():
    parser = cli.build_parser()
    export = ["export", "--family", "gl", "--q", "3"]
    assert parser.parse_args(export).out_dir == Path(".")
    assert parser.parse_args(export + ["--out-dir", "x"]).out_dir == Path("x")
    assert parser.parse_args(["verify", "--family", "gl", "--q", "3"]).out_dir is None


def test_erratum_notices_leave_exit_zero(tmp_path):
    """Runs that report hand-form discrepancies still validate (gu q=3)."""
    run_ok(["verify", "--family", "gu", "--q", "3", "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "ok"
    assert len(report["notices"]) == 6
    assert any("linear" in n for n in report["notices"])


# ---------------------------------------------------------------------------
# cold start: the exact path loads no numpy

_NUMPY_PROBE = """
import contextlib, io, json, sys
import pstwalk.cli
seen = [("import pstwalk.cli", None, "numpy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = pstwalk.cli.main(argv)
    seen.append((" ".join(argv[1:5]), code, "numpy" in sys.modules))
print(json.dumps(seen))
"""


def numpy_loaded_after(tmp_path, *targets):
    """(step, exit code, numpy loaded) after importing the CLI and after each export.

    A fresh interpreter runs them one after another: this one has numpy loaded.
    """
    runs = [
        ["export", "--family", family, "--q", str(q), *extra, "--out-dir", str(tmp_path / f"{family}-{q}")]
        for family, q, *extra in targets
    ]
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [tuple(step) for step in json.loads(done.stdout)]


def test_the_exact_path_loads_no_numpy(tmp_path):
    """Tables, characters, period sums, certificate and report run on Python ints alone."""
    seen = numpy_loaded_after(tmp_path, ("gl", 19), ("gu", 23), ("sl", 23), ("orbital", 7))
    assert [(code, loaded) for _, code, loaded in seen] == [(None, False)] + [(EXIT_OK, False)] * 4, seen


def test_an_explicit_graph_loads_numpy(tmp_path):
    seen = numpy_loaded_after(tmp_path, ("gl", 3, "--brute-force-bound", "100"))
    assert [(code, loaded) for _, code, loaded in seen] == [(None, False), (EXIT_OK, True)], seen
