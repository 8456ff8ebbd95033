"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    RegularRows,
    dense_adjacency,
    dense_scan_automorphism,
    literal_coset_space,
    notices_rows,
    spectrum_of,
    transfer_certificate_rows,
)
from test_golden_artifacts import TARGETS as GOLDEN_TARGETS
from pstwalk import cayley, cli, orbital, scheme
from pstwalk.cli import EXIT_CERTIFICATE, EXIT_CROSS_CHECK, EXIT_OK, EXIT_USAGE, main
from pstwalk.ctqw import PairingError, TransferReport, graph_stack
from pstwalk.groups import GLGroup, GUGroup, Mat2, SLGroup
from pstwalk.scheme import TransferCertificate, Translates

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
    assert out.count("notice:") == 1  # one line for the two steinberg rows that disagree
    assert (
        "notice: hand-derived closed form 'steinberg' for steinberg(0) gives 10 where the exact "
        "value is -2, the first of 2 disagreeing rows; the hand form is retained as an audit "
        "record and the congruence conclusion is unaffected\n"
    ) in out


def test_verify_gl3_small_orders_variant(capsys):
    assert main(["verify", "--family", "gl", "--q", "3", "--variant", "small-orders"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "notice:" not in out  # no closed forms for the variant
    assert "cross-check walk_ok: True" in out


@pytest.mark.parametrize("family,q", [("gu", 3), ("sl", 3), ("sl", 5)])
def test_verify_other_families_pass(family, q):
    run_ok(["verify", "--family", family, "--q", str(q)])


def test_verify_sl9_walks_its_720_vertices_over_f9(capsys):
    """SL at a prime power: the trace periods of F_9 give a table the walk confirms."""
    assert main(["verify", "--family", "sl", "--q", "9", "--brute-force-bound", "1000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "cross-check vertices: 720" in out
    assert "cross-check spectrum_matches: True" in out
    assert "cross-check walk_ok: True" in out
    assert "cross-check walk_pairs: 360" in out


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
        ["verify", "--family", "sl", "--q", "21"],
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


@pytest.mark.parametrize("text", ["", ",", ",,", " , "])
def test_an_empty_format_list_is_a_usage_error(text, tmp_path, monkeypatch, capsys):
    """An empty list names the accepted values; it meant every format, and wrote all three."""

    def never(*args):
        raise AssertionError("analyze ran on an empty --format")

    monkeypatch.setattr(cli, "analyze", never)
    argv = ["export", "--family", "gl", "--q", "3", "--format", text, "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"--format: no format in {text!r}; expected a comma-separated subset of json, csv, edges or 'all'\n" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        (["export", "--family", "gl", "--q", "343", "--format", "edges"], cayley, "spectrum"),
        (["export", "--family", "gu", "--q", "5", "--format", "json,edges", "--brute-force-bound", "100"], cayley, "spectrum"),
        (["export", "--family", "orbital", "--q", "7", "--format", "csv,edges"], orbital, "orbital_spectrum"),
        (["orbital", "--q", "3", "--format", "edges", "--brute-force-bound", "100"], orbital, "orbital_spectrum"),
    ],
    ids=["gl-343", "gu-5-bound-100", "orbital-7", "orbital-3-bound-100"],
)
def test_an_edge_list_the_bounds_rule_out_is_refused_before_the_spectrum(argv, owner, name, tmp_path, monkeypatch, capsys):
    """Decided from the group order or the coset count: the spectrum is never built."""

    def never(*args):
        raise AssertionError("the spectrum was built before --format edges was refused")

    monkeypatch.setattr(owner, name, never)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the edge-list format needs an explicit graph, which this target "
        "does not build within the current bounds\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# the 14 golden targets' export arguments, and gl/gu 81
COLUMN_TARGETS = [args for _, args in GOLDEN_TARGETS] + [
    ["--family", "gl", "--q", "81"],
    ["--family", "gu", "--q", "81"],
]


@pytest.mark.parametrize(
    "args", COLUMN_TARGETS, ids=[name for name, _ in GOLDEN_TARGETS] + ["gl-81", "gu-81"]
)
def test_the_columns_certify_and_notice_as_the_rows_did(args):
    """The certificate and notices read from the columns equal the row-by-row references.

    Every certificate field is compared, the reason too; so are the failures of
    one row's sign flipped and, separately, of one row's theta + 2.
    """
    parsed = cli.build_parser().parse_args(["export", *args])
    target = cli.build_target(parsed.family, parsed.q, parsed.variant)
    rule = target.certificate.transfer_rule
    rows = list(target.rows)
    assert target.certificate == transfer_certificate_rows(rows, rule)
    assert cli._notices(target.audit) == notices_rows(target.checks())
    k = len(rows) // 2
    for doctored in (rows[k]._replace(sign=-rows[k].sign), rows[k]._replace(theta=rows[k].theta + 2)):
        wrong = [*rows[:k], doctored, *rows[k + 1 :]]
        cert = scheme.transfer_certificate(spectrum_of(wrong), rule)
        assert cert == transfer_certificate_rows(wrong, rule)
        assert not cert.ok and cert.reason.startswith(f"eigenvalue {doctored.theta} of ")


# ---------------------------------------------------------------------------
# orbital


def test_orbital_q3_passes_with_display_notices(capsys):
    assert main(["orbital", "--q", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    assert "cross-check walk_pairs: 60" in out
    assert "linear-energy-display" in out
    assert out.count("notice:") == 1
    assert (
        "notice: hand-derived closed form 'linear-energy-display' for linear(0) gives 336 where "
        "the exact value is 72, the first of 2 disagreeing rows;"
    ) in out


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
    assert len(report["notices"]) == 1
    assert report["notices"][0].startswith(
        "hand-derived closed form 'steinberg' for steinberg(0) gives 10 where the exact value is -2, "
        "the first of 2 disagreeing rows;"
    )
    assert report["spectrum_rows"] == 8
    classes = [
        (c["kind"], c["theta"], c["sign"], c["characters"], c["multiplicity"])
        for c in report["spectrum_classes"]
    ]
    assert classes == [  # the spectrum {46^1, 0^24, -2^23}, sorted on (kind, theta, sign)
        ("cuspidal", -2, 1, 1, 4), ("cuspidal", 0, -1, 2, 8), ("linear", -2, 1, 1, 1),
        ("linear", 46, 1, 1, 1), ("principal", 0, -1, 1, 16), ("steinberg", -2, 1, 2, 18),
    ]

    csv_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv_lines[0] == "family,q,char-kind,char-params,degree,theta,multiplicity,phi-sign"
    assert csv_lines[1] == "gl,3,linear,0,1,46,1,1"
    assert len(csv_lines) == 1 + 8  # q + 4 irreducibles of GL(2,3)

    edge_lines = (tmp_path / "graph.edges").read_text().splitlines()
    assert len(edge_lines) == 46 * 48 // 2
    pairs = [tuple(map(int, line.split())) for line in edge_lines]
    assert all(0 <= u < v < 48 for u, v in pairs)
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_report_json_is_written_in_batches_as_one_dump(monkeypatch, tmp_path, batch):
    """The streamed report.json is ``json.dumps(sort_keys=True, indent=2)`` and a newline."""
    report = {
        "b": [1, 2.5, None, True, "\u00e9"],
        "a": {"z": [], "y": {}, "x": [{"k": "v"}] * 3},
        "c": "\n",
    }
    monkeypatch.setattr(cli, "_JSON_BATCH", batch)
    cli._write_report(tmp_path / "report.json", report)
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


def literal_edges(adjacency) -> bytes:
    rows = adjacency.tolist()
    n = len(rows)
    text = "".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n) if rows[i][j])
    return (text or "\n").encode()


def test_edges_text_formats_row_blocks_as_one_list():
    """An edgeless graph writes one newline; a graph of several row blocks reads as one list."""
    assert b"".join(cli._edge_blocks(RegularRows(np.zeros((3, 3), dtype=np.int64)))) == b"\n"
    n = 250
    step = scheme.BLOCK_ENTRIES // n
    assert 1 < step < n and n % step
    upper = np.triu(np.random.default_rng(7).random((n, n)) < 0.05, 1)
    adjacency = (upper | upper.T).astype(np.int64)
    rows, cols = np.nonzero(upper)
    assert rows.max() >= n - n % step  # the last, partial block has edges
    expected = "".join(f"{i} {j}\n" for i, j in zip(rows, cols)).encode()
    assert b"".join(cli._edge_blocks(RegularRows(adjacency))) == expected


@pytest.mark.parametrize("entries", [1, 7 * 50 + 3, 50 * 50 + 1])
@pytest.mark.parametrize("graph", ["edgeless", "quiet", "complete"])
def test_edges_text_does_not_depend_on_the_block_size(monkeypatch, entries, graph):
    """One row per block, 7 rows per block (not a divisor of n = 50) and one
    block for the whole matrix; rows 20 and up of the quiet graph have no later neighbour."""
    n = 50
    upper = np.triu(np.random.default_rng(3).random((n, n)) < 0.2, 1)
    upper[20:] = False
    adjacency = {
        "edgeless": np.zeros((n, n), dtype=np.uint8),
        "quiet": (upper | upper.T).astype(np.uint8),
        "complete": 1 - np.eye(n, dtype=np.uint8),
    }[graph]
    monkeypatch.setattr(scheme, "BLOCK_ENTRIES", entries)
    blocks = list(cli._edge_blocks(RegularRows(adjacency)))
    assert all(type(b) is bytes for b in blocks)
    assert len(blocks) == {1: n, 353: -(-n // 7), 2501: 1}[entries] + (graph == "edgeless")
    assert b"".join(blocks) == literal_edges(adjacency)
    if graph == "edgeless":
        assert b"".join(blocks) == b"\n"


# Twelve blocks of rows at the default block size: eleven of 27 rows, then 4.
EDGE_N = 301


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, EDGE_N),
    density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    quiet=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    entries=st.sampled_from([1, 97, scheme.BLOCK_ENTRIES]),
)
@example(n=1, density=1.0, quiet=0.0, seed=0, entries=scheme.BLOCK_ENTRIES)
@example(n=40, density=0.0, quiet=0.0, seed=0, entries=scheme.BLOCK_ENTRIES)
@example(n=40, density=1.0, quiet=0.0, seed=0, entries=scheme.BLOCK_ENTRIES)
@example(n=EDGE_N, density=0.3, quiet=0.99, seed=1, entries=scheme.BLOCK_ENTRIES)
def test_edges_text_matches_a_literal_join(n, density, quiet, seed, entries):
    """Random symmetric 0/1 graphs, uint8 and int64; rows above ``quiet * n`` have no later edges."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    upper[: int(quiet * n)] = False
    adjacency = (upper | upper.T).astype(np.uint8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "BLOCK_ENTRIES", entries)
        for a in (adjacency, adjacency.astype(np.int64)):
            assert b"".join(cli._edge_blocks(RegularRows(a))) == literal_edges(adjacency)


def test_a_connection_that_reaches_a_vertex_twice_writes_each_edge_once(monkeypatch):
    """gl 3's connection list with a third of it repeated: every row names some
    vertices twice, and graph.edges is the same, at the default block size and at
    one row per block."""
    graph = cli.build_target("gl", 3).graph(100)
    rows = graph.translates
    doubled = Translates(rows.lookup, rows.connection + rows.connection[::3])
    assert (np.sort(doubled.neighbours([0]))[0, 1:] == np.sort(doubled.neighbours([0]))[0, :-1]).any()
    expected = literal_edges(dense_adjacency(rows))
    assert b"".join(cli._edge_blocks(doubled)) == b"".join(cli._edge_blocks(rows)) == expected
    monkeypatch.setattr(scheme, "BLOCK_ENTRIES", 1)
    assert b"".join(cli._edge_blocks(doubled)) == expected


def test_the_edges_pass_at_gl_7_holds_no_dense_row_block(tmp_path):
    """gl 7 at bound 2100 (2016 vertices): writing graph.edges peaks below 512 KiB of
    traced memory; a dense uint8 row block and its np.nonzero took 1.6 MiB."""
    rows = cli.build_target("gl", 7).graph(2100).translates
    cli._write_outputs(tmp_path, {"edges"}, {}, [], rows)  # imports outside the measurement
    tracemalloc.start()
    try:
        cli._write_outputs(tmp_path, {"edges"}, {}, [], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2016
    assert peak < 512 * 1024, peak


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
    assert report["spectrum_rows"] == 64


def test_reports_are_byte_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        run_ok(["verify", "--family", "gl", "--q", "3", "--out-dir", str(out)])
    for name in ("report.json", "spectrum.csv", "graph.edges"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_an_out_dir_that_cannot_be_written_is_refused(tmp_path, capsys):
    """An existing file as ``--out-dir`` is one error line and exit 1, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["export", "--family", "gl", "--q", "3", "--out-dir", str(blocker)]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == f"error: cannot write artifacts to {blocker}: File exists\n"
    assert "verdict" not in out
    assert blocker.read_text() == ""


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
        fields = analysis.certificate._asdict()
        bad = TransferCertificate(**{**fields, "ok": False, "reason": "forced failure for the test"})
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
        fields = analysis.certificate._asdict()
        bad = TransferCertificate(**{**fields, "ok": False, "reason": "forced failure"})
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
    the walk is not split: the symmetry's half power is not that permutation."""
    connection, translate = orbital._connection, orbital.translation_map
    coset_index = literal_coset_space(3).coset_index

    def without_z(space, lookup):
        z_vertex = coset_index[space.z]
        return [d for d in connection(space, lookup) if coset_index[d] != z_vertex]

    monkeypatch.setattr(orbital, "_connection", without_z)
    def rolled_pairing(lookup, left, right):
        vertices = translate(lookup, left, right)
        return np.roll(vertices, 1) if left == Mat2(1, 0, 0, 1) else vertices

    monkeypatch.setattr(orbital, "translation_map", rolled_pairing)
    orbital.build_gamma.cache_clear()
    try:
        assert main(["orbital", "--q", "3"]) == EXIT_CROSS_CHECK
    finally:
        orbital.build_gamma.cache_clear()
    out = capsys.readouterr().out
    assert "cross-check degree_row_sums_match: False" in out
    assert "cross-check involution_is_perfect_matching: False" in out
    assert "cross-check simulation: skipped: the symmetry's power 20 is not the partner at vertex" in out


def test_a_coset_symmetry_that_is_not_an_automorphism_fails_the_cross_check(monkeypatch, capsys):
    """The coset graph has no translation, so its symmetry is scanned row by row:
    rH -> s rH relabelled by swapping two cosets is refused, and build_gamma leaves
    that to the cross-checks, which exit 3."""
    translate = orbital.translation_map
    one = Mat2(1, 0, 0, 1)

    def relabelled_symmetry(lookup, left, right):
        vertices = translate(lookup, left, right)
        if left == one:
            return vertices
        swap = np.arange(len(vertices))
        swap[[0, 1]] = [1, 0]
        return swap[vertices[swap]]

    monkeypatch.setattr(orbital, "translation_map", relabelled_symmetry)
    orbital.build_gamma.cache_clear()
    try:
        assert main(["orbital", "--q", "3"]) == EXIT_CROSS_CHECK
    finally:
        orbital.build_gamma.cache_clear()
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("cross-check simulation: skipped: "))
    assert "of order 40 is not an automorphism: it moves the edges of vertex" in line
    assert "verdict: cross-check mismatch" in out


def test_spectrum_mismatch_exits_3(monkeypatch, capsys):
    real = cli.analyze

    def doctored(tag, q, variant):
        # one eigenvalue below the top moves by 4: the certificate, computed
        # from the true rows, stays valid, but the numeric spectrum disagrees
        analysis = real(tag, q, variant)
        rows = list(analysis.rows)
        rows[1] = rows[1]._replace(theta=rows[1].theta - 4)
        return analysis._replace(rows=spectrum_of(rows))

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
        return analysis._replace(rows=spectrum_of(rows))

    monkeypatch.setattr(cli, "analyze", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "certificate: valid" in out
    assert f"cross-check spectrum_deviation: {deviation}\n" in out
    assert "cross-check spectrum_matches: False" in out
    assert "cross-check walk_ok: True" in out


@pytest.mark.parametrize(
    "owner,name,argv,target",
    [
        (cli, "build_target", ["verify", "--family", "gl", "--q", "100003"], "gl at q = 100003"),
        (cli.WalkSystem, "from_stack", ["orbital", "--q", "3"], "orbital at q = 3"),
    ],
    ids=["tables", "walk"],
)
def test_running_out_of_memory_is_a_refusal(owner, name, argv, target, monkeypatch, capsys):
    """A MemoryError from the tables or the walk is one error line and exit 1, not a traceback."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(owner, name, exhausted)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {target} needs more memory than is available\n"
    assert "verdict" not in captured.out


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


class OneWay:
    """A graph's rows with the entry (i, j) of A cleared and (j, i) kept: row i lists
    another of its neighbours where it listed j; the rest is the graph's construction."""

    def __init__(self, rows, i, j):
        self.rows, self.i, self.j = rows, i, j

    def __len__(self):
        return len(self.rows)

    def neighbours(self, vertices):
        cols = self.rows.neighbours(vertices)
        for k in np.flatnonzero(np.asarray(vertices) == self.i):
            row = cols[k]
            row[row == self.j] = row[row != self.j][0]
        return cols

    def __getattr__(self, name):
        return getattr(self.rows, name)


def test_walk_errors_fail_the_cross_check(monkeypatch, capsys):
    """An error the checks raise on the explicit graph, here an asymmetric
    adjacency, is a cross-check failure with exit 3, not a traceback.  The arc
    (i, j) leaves lo_1, the least vertex of sigma's second orbit, for a j outside
    that orbit: vertex 0's row proves sigma, and lo_1's row is read into the
    stack.  The refusal names the least of the pairs sigma^k (i, j), where the
    stack reads 0, and sigma^k (j, i), where it reads 1."""
    real = cli.explicit_graph
    arc = {}

    def one_way(family, conn, bound):
        graph = real(family, conn, bound=bound)
        orbits, _ = graph_stack(graph)
        i = int(orbits[0, 1])
        j = next(int(y) for y in graph.translates.neighbours([i])[0] if y not in orbits[:, 1])
        arc.update(i=i, j=j, sigma=graph.symmetry, order=len(orbits))
        return graph._replace(translates=OneWay(graph.translates, i, j))

    monkeypatch.setattr(cli, "explicit_graph", one_way)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    x, y, sigma, entries = arc["i"], arc["j"], arc["sigma"], []
    for _ in range(arc["order"]):
        entries += [(x, y, 0, 1), (y, x, 1, 0)]
        x, y = int(sigma[x]), int(sigma[y])
    x, y, a, b = min(entries)
    named = f"entry ({x}, {y}) is {a} but ({y}, {x}) is {b}"
    assert f"cross-check simulation: skipped: adjacency must be symmetric: {named}\n" in out
    assert "verdict: cross-check mismatch" in out


def short_orbit(graph):
    """An orbit of sigma (c = 24 at gl 3) other than vertex 0's, closed into two 12-cycles."""
    sigma = graph.symmetry

    def orbit(x):
        out = [x]
        while len(out) < 24:
            out.append(int(sigma[out[-1]]))
        return out

    o = orbit(min(set(range(len(sigma))) - set(orbit(0))))
    doctored = sigma.copy()
    doctored[o[11]], doctored[o[23]] = o[0], o[12]
    return doctored


def third_of_the_order(graph):
    """sigma^(c/3) = sigma^8 at gl 3 (c = 24): a free automorphism of odd order 3."""
    power = np.arange(len(graph.symmetry))
    for _ in range(8):
        power = graph.symmetry[power]
    return power


def relabelled(graph):
    """sigma conjugated by a transposition of two vertices on different orbits."""
    sigma = graph.symmetry.copy()
    swap = np.arange(len(sigma))
    swap[[0, 1]] = [1, 0]
    return swap[sigma[swap]]


def translation_by_diag_one_minus_one(graph):
    """Right translation by diag(1, -1): a free automorphism of order 2 that is not x -> -x."""
    family = GLGroup(3)
    elements = family.enumerate_group()
    index = {m: i for i, m in enumerate(elements)}
    g = Mat2(1, 0, 0, family.field.neg(1))
    return np.array([index[family.mul(x, g)] for x in elements])


@pytest.mark.parametrize(
    "doctor, message",
    [
        (relabelled, "is not an automorphism: it moves the edges of vertex"),
        (short_orbit, "the symmetry of order 24 returns vertex"),
        (third_of_the_order, "the symmetry has odd order 3"),
        (translation_by_diag_one_minus_one, "the symmetry's power 1 is not the partner at vertex 0"),
    ],
    ids=["not-an-automorphism", "short-orbit", "odd-order", "half-power-is-not-the-partner"],
)
def test_a_bad_symmetry_fails_the_cross_check(monkeypatch, capsys, doctor, message):
    """The walk is split along the graph's symmetry; one that is not a free cyclic
    automorphism of even order, or whose half-way power is not the partner, exits 3."""
    real = cli.explicit_graph

    def doctored(family, conn, bound):
        graph = real(family, conn, bound=bound)
        return graph._replace(symmetry=doctor(graph))

    monkeypatch.setattr(cli, "explicit_graph", doctored)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "certificate: valid" in out
    line = next(l for l in out.splitlines() if l.startswith("cross-check simulation: skipped: "))
    assert message in line
    assert "verdict: cross-check mismatch" in out


def test_a_symmetry_relabelled_away_from_vertex_0_is_scanned(monkeypatch, capsys):
    """sigma conjugated by a transposition of two vertices outside vertex 0's and
    sigma(0)'s neighbourhoods still maps N(0) onto N(sigma 0), but it is no longer
    x -> s x v, so every row is scanned and a later vertex is named (gl 5, n = 480),
    the vertex the dense reference scan names."""
    real = cli.explicit_graph
    built = []

    def doctored(family, conn, bound):
        graph = real(family, conn, bound=bound)
        sigma, near = graph.symmetry, graph.translates.neighbours([0])[0]
        near = {0, int(sigma[0]), *near.tolist(), *sigma[near].tolist()}
        a, b = [x for x in range(len(sigma)) if x not in near][:2]
        swap = np.arange(len(sigma))
        swap[[a, b]] = [b, a]
        built.append(graph._replace(symmetry=swap[sigma[swap]]))
        return built[-1]

    monkeypatch.setattr(cli, "explicit_graph", doctored)
    assert main(["verify", "--family", "gl", "--q", "5"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("cross-check simulation: skipped: "))
    vertex = re.search(r"of order 120 is not an automorphism: it moves the edges of vertex (\d+)$", line)
    assert vertex and int(vertex.group(1)) > 0
    with pytest.raises(PairingError) as dense:
        dense_scan_automorphism(dense_adjacency(built[0]), built[0].symmetry, 120)
    assert str(dense.value).endswith(f"it moves the edges of vertex {vertex.group(1)}")


def not_normalised_by_v(family, graph):
    """{t, t^-1} for the first connection element t that v conjugates outside that pair,
    for the graph's symmetry x -> s x v."""
    v = graph.translation[1]
    v_inv = family.inv(v)
    for t in graph.translates.connection:
        pair = [t, family.inv(t)]
        if family.mul(family.mul(v, t), v_inv) not in pair:
            return Translates(graph.translates.lookup, pair)
    raise AssertionError("v normalises every pair of the connection list")


def test_a_connection_that_v_does_not_normalise_is_refused(monkeypatch, capsys):
    """sigma(x t) = sigma(x) v^-1 t v for sigma = x -> s x v, so on a connection list S
    with v S v^-1 != S vertex 0's neighbours already show that sigma is no
    automorphism: PairingError, and exit 3."""
    real = cli.explicit_graph

    def doctored(family, conn, bound):
        graph = real(family, conn, bound=bound)
        return graph._replace(translates=not_normalised_by_v(family, graph))

    monkeypatch.setattr(cli, "explicit_graph", doctored)
    family = GLGroup(3)
    graph = doctored(family, cli.analyze("gl", 3, "standard").connection, 10_000)
    refusal = "the symmetry of order 24 is not an automorphism: it moves the edges of vertex 0"
    with pytest.raises(PairingError, match=refusal):
        graph_stack(graph)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "certificate: valid" in out
    assert f"cross-check simulation: skipped: the pairing is not an involution at vertex 0, and {refusal}\n" in out
    assert "verdict: cross-check mismatch" in out


def test_a_row_short_of_the_degree_fails_the_degree_check(monkeypatch, capsys):
    """One edge {lo_i, sigma^d lo_r} cleared from the stack, both ways, so B stays
    symmetric: rows i and r sum to one less than the degree."""
    real = cli.graph_stack

    def short(graph):
        orbits, stack = real(graph)
        stack = stack.copy()
        d, i, r = (int(x) for x in np.argwhere(stack[1:])[0])
        stack[d + 1, i, r] = stack[-(d + 1), r, i] = 0
        return orbits, stack

    monkeypatch.setattr(cli, "graph_stack", short)
    assert main(["verify", "--family", "gl", "--q", "3"]) == EXIT_CROSS_CHECK
    out = capsys.readouterr().out
    assert "cross-check degree_row_sums_match: False" in out
    assert "verdict: cross-check mismatch" in out


def test_a_split_walk_above_five_thousand_vertices_holds_no_n_squared_array(capsys):
    """verify gl 9 at bound 6000 (5760 vertices): the checks read the stack and the
    walk its blocks, so the run peaks below 10 MB of traced memory; the n x n
    uint8 adjacency alone would take 33 MB."""
    tracemalloc.start()
    try:
        code = main(["verify", "--family", "gl", "--q", "9", "--brute-force-bound", "6000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert "cross-check walk_ok: True" in capsys.readouterr().out
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
    assert len(report["notices"]) == 2  # linear on 2 rows, steinberg on 4
    assert any("linear" in n for n in report["notices"])
    assert report["notices"][0].startswith(
        "hand-derived closed form 'linear' for linear(0) gives 38 where the exact value is 62, "
        "the first of 2 disagreeing rows;"
    )
    assert "'steinberg' for steinberg(0) gives 2 where the exact value is 6, the first of 4" in report["notices"][1]


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


_ENUMERATION_PROBE = """
import contextlib, io, sys
import pstwalk.cli
from pstwalk import groups
calls = []
for family in (groups.GLGroup, groups.GUGroup, groups.SLGroup):
    def counted(self, enumerate_group=family.enumerate_group):
        calls.append(type(self).__name__)
        return enumerate_group(self)
    family.enumerate_group = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = pstwalk.cli.main(sys.argv[1:])
print(code, calls, "numpy" in sys.modules)
"""


def test_the_orbital_exact_path_enumerates_nothing(tmp_path):
    """orbital 3 with no explicit graph: the coset space keeps the spectrum's fields
    only, so a fresh interpreter lists no group and loads no numpy."""
    argv = ["export", "--family", "orbital", "--q", "3", "--brute-force-bound", "0", "--out-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", _ENUMERATION_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(EXIT_OK), "[]", "False"], done.stdout
    assert (tmp_path / "report.json").exists() and not (tmp_path / "graph.edges").exists()


def test_an_explicit_graph_loads_numpy(tmp_path):
    seen = numpy_loaded_after(tmp_path, ("gl", 3, "--brute-force-bound", "100"))
    assert [(code, loaded) for _, code, loaded in seen] == [(None, False), (EXIT_OK, True)], seen


_MASKED_PROBE = """
import contextlib, io, sys
import pstwalk.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [pstwalk.cli.main(argv.split()) for argv in sys.argv[1:]]
print(codes, "numpy.ma" in sys.modules)
"""


def test_the_explicit_checks_load_no_masked_arrays(tmp_path):
    """Exports of gl 3 and orbital 3 with their graphs, walks and edges leave numpy.ma
    unloaded: np.unique without an index and np.setxor1d load it, 1.4 MB of RSS."""
    runs = [
        f"export --family {family} --q 3 --brute-force-bound 2100 --out-dir {tmp_path / family}"
        for family in ("gl", "orbital")
    ]
    done = subprocess.run(
        [sys.executable, "-c", _MASKED_PROBE, *runs],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[0,", "0]", "False"], done.stdout


_HASHLIB_PROBE = """
import contextlib, io, sys
import pstwalk.cli
seen = [name in sys.modules for name in ("hashlib", "_hashlib")]
with contextlib.redirect_stdout(io.StringIO()):
    code = pstwalk.cli.main(sys.argv[1:])
print(seen, code, [name in sys.modules for name in ("hashlib", "_hashlib")])
"""


def test_the_cli_loads_no_openssl(tmp_path):
    """Neither ``import pstwalk.cli`` nor a json and csv export loads ``hashlib``, whose
    OpenSSL backend raises the peak RSS by about 3.5 MB, in a fresh interpreter."""
    argv = ["export", "--family", "gl", "--q", "19", "--format", "json,csv", "--out-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", _HASHLIB_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[False,", "False]", str(EXIT_OK), "[False,", "False]"], done.stdout
    assert (tmp_path / "report.json").exists() and (tmp_path / "spectrum.csv").exists()


# ---------------------------------------------------------------------------
# cold start: no generated classes

_DATACLASSES_PROBE = """
import contextlib, io, sys
import pstwalk.cli
imported = "dataclasses" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = pstwalk.cli.main(sys.argv[1:])
print(imported, code, "dataclasses" in sys.modules)
"""


def test_the_cli_loads_no_dataclasses(tmp_path):
    """Neither ``import pstwalk.cli`` nor an export loads ``dataclasses`` in a fresh interpreter."""
    argv = ["export", "--family", "gl", "--q", "19", "--out-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", _DATACLASSES_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", str(EXIT_OK), "False"]
    assert (tmp_path / "report.json").exists()
