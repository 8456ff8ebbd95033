"""Command-line front end: construct, certify, cross-validate, export.

Subcommands
-----------
``verify``   build a class-union Cayley graph family (gl / gu / sl), compute
             its exact spectrum, run the mod-4 transfer certificate, and --
             within the brute-force bounds -- rebuild the graph explicitly and
             cross-validate against numeric eigenvalues and a simulated walk.
``orbital``  the same pipeline for the double-coset graph on GL(2, q^2)
             cosets of GL(2, q).
``export``   run a target's pipeline and write its artifacts to disk.

Both graph families go through one pipeline: spectrum, certificate,
cross-checks, report.  :func:`build_target` turns ``(family, q, variant)``
into a :class:`Target`: the exact spectrum rows, the shared mod-4
certificate, the closed-form audit, the provenance, and either the
explicit graph -- one :class:`~pstwalk.scheme.Graph` type for both
families, its transfer pairs read off the ``partner`` permutation -- or
the reason it is skipped.  :func:`cross_checks` runs the explicit checks
on any target (row sums against the top exact eigenvalue, components,
numeric spectrum, walk), and one report assembly serves both families.
The walk is one :class:`~pstwalk.ctqw.WalkSystem`, split by the partner
permutation into its +1 and -1 sides; each side's numeric spectrum is
compared with the exact rows of that sign.  A partner that is not a
fixed-point-free involutive automorphism of the graph fails the cross-check,
as does any other error the walk raises on the explicit graph.
The pipeline is public: the scripts in ``scripts/`` build their rows,
traces and audits through it rather than by hand.

Artifacts (written when an output directory is given): ``report.json`` with
a versioned schema and full provenance, ``spectrum.csv`` with one row per
irreducible character, and ``graph.edges`` with one ``u v`` line per edge
(0-based, sorted) whenever the explicit graph is in range.

Exit codes: 0 on a valid certificate with all cross-checks passing, 1 on a
usage error, 2 on a certificate failure, 3 on a cross-check mismatch.  Hand-
derived closed forms that disagree with the exact values are reported as
notices and do not affect the exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from . import __version__
from . import orbital as orb
from .cayley import (
    FAMILY_TAGS,
    SMALL_ORDERS,
    STANDARD,
    analyze,
    component_count,
    explicit_graph,
)
from .ctqw import WalkSystem, pst_scan
from .scheme import Graph, TransferCertificate

__all__ = [
    "main", "build_parser", "build_target", "cross_checks", "Target",
    "SCHEMA", "SIMULATION_BOUND", "ENUMERATION_BOUND",
]

SCHEMA = "pstwalk-report/2"
SIMULATION_BOUND = 150
ENUMERATION_BOUND = 10_000
SPECTRUM_TOL = 1e-8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_CROSS_CHECK = 3

_FORMATS = ("json", "csv", "edges")
# Rows of the adjacency per block of graph.edges text.
_EDGE_BLOCK_ROWS = 256


# ---------------------------------------------------------------------------
# small helpers


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    """Floats are serialized as fixed-width strings for byte determinism."""
    return "%.12e" % x


def _bound(text: str) -> int:
    """A non-negative integer, for ``--brute-force-bound``."""
    error = argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def _bounds(args) -> tuple[int, int]:
    if args.brute_force_bound is not None:
        return args.brute_force_bound, args.brute_force_bound
    return SIMULATION_BOUND, ENUMERATION_BOUND


def _params_text(params: Sequence[int]) -> str:
    return ":".join(str(p) for p in params)


def _field_provenance(field) -> dict:
    return {
        "p": field.p,
        "k": field.k,
        "size": field.q,
        "modulus": list(field.modulus),
        "generator": field.generator,
    }


def _certificate_json(cert, keys: dict) -> dict:
    out = {**keys, **dataclasses.asdict(cert)}
    if out["time"] is not None:
        out["time"] = _fmt(out["time"])
    return out


def _notices(audit) -> list[str]:
    return [
        (
            f"hand-derived closed form '{c.formula}' for {c.row} gives "
            f"{c.hand_value} where the exact value is {c.exact_value}; the "
            "hand form is retained as an audit record and the congruence "
            "conclusion is unaffected"
        )
        for c in audit
        if not c.agrees
    ]


# ---------------------------------------------------------------------------
# report assembly and artifact writing


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _spectrum_csv(entries: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["family", "q", "char-kind", "char-params", "degree", "theta", "multiplicity", "phi-sign"]
    )
    for e in entries:
        writer.writerow(
            [
                e["family"],
                e["q"],
                e["kind"],
                _params_text(e["params"]),
                e["degree"],
                e["theta"],
                e["multiplicity"],
                e["sign"],
            ]
        )
    return buf.getvalue()


def _edges_text(adjacency: np.ndarray) -> str:
    """One line ``i j`` per edge with i < j, in row order; a lone newline if there is none.

    The endpoints become Python ints a block of rows at a time.
    """
    import numpy as np

    parts = []
    for start in range(0, len(adjacency), _EDGE_BLOCK_ROWS):
        rows, cols = np.nonzero(adjacency[start : start + _EDGE_BLOCK_ROWS])
        rows += start
        upper = rows < cols
        pairs = np.column_stack((rows[upper], cols[upper])).ravel().tolist()
        parts.append(("%d %d\n" * (len(pairs) // 2)) % tuple(pairs))
    return "".join(parts) or "\n"


def _formats(text: str) -> set[str] | None:
    """A comma-separated subset of json,csv,edges; 'all' means applicable ones."""
    parts = {p.strip() for p in text.split(",") if p.strip()}
    if not parts or parts == {"all"}:
        return None
    unknown = parts - set(_FORMATS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {', '.join(sorted(unknown))}; expected a "
            f"comma-separated subset of {', '.join(_FORMATS)} or 'all'"
        )
    return parts


def _write_outputs(
    out_dir: Path,
    formats: set[str] | None,
    report: dict,
    csv_entries: list[dict],
    adjacency: np.ndarray | None,
) -> list[Path]:
    """Write the requested artifacts; 'edges' needs an explicit graph."""
    wanted = formats if formats is not None else set(_FORMATS)
    if "edges" in wanted and adjacency is None:
        if formats is not None:
            raise ValueError(
                "the edge-list format needs an explicit graph, which this "
                "target does not build within the current bounds"
            )
        wanted = wanted - {"edges"}
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in wanted:
        path = out_dir / "report.json"
        path.write_bytes(_report_json(report).encode("utf-8"))
        written.append(path)
    if "csv" in wanted:
        path = out_dir / "spectrum.csv"
        path.write_bytes(_spectrum_csv(csv_entries).encode("utf-8"))
        written.append(path)
    if "edges" in wanted:
        path = out_dir / "graph.edges"
        path.write_bytes(_edges_text(adjacency).encode("utf-8"))
        written.append(path)
    return written


def _print_summary(report: dict, written: list[Path]) -> None:
    target = report["target"]
    label = target["family"]
    if target.get("variant") not in (None, STANDARD):
        label += f" ({target['variant']})"
    print(f"target: {label}, q = {target['q']}")
    cert = report["certificate"]
    state = "valid" if cert["ok"] else "FAILED"
    print(f"certificate: {state} -- {cert['reason']}")
    if cert.get("connected") is not None:
        print(f"connected: {'yes' if cert['connected'] else 'no'}")
    checks = report["cross_checks"]
    for key in sorted(checks):
        print(f"cross-check {key}: {checks[key]}")
    for note in report["notes"]:
        print(f"note: {note}")
    for notice in report["notices"]:
        print(f"notice: {notice}")
    for path in written:
        print(f"wrote {path}")
    print(f"verdict: {report['verdict']}")


def _finish(
    report: dict,
    csv_entries: list[dict],
    adjacency: np.ndarray | None,
    args,
    code: int,
) -> int:
    report["verdict"] = {
        EXIT_OK: "ok",
        EXIT_CERTIFICATE: "certificate failure",
        EXIT_CROSS_CHECK: "cross-check mismatch",
    }[code]
    written = []
    if args.out_dir is not None:
        try:
            written = _write_outputs(args.out_dir, args.format, report, csv_entries, adjacency)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    _print_summary(report, written)
    return code


# ---------------------------------------------------------------------------
# the pipeline: spectrum -> certificate -> cross-checks -> report


class Target(NamedTuple):
    """What one graph family hands to the shared pipeline."""

    label: dict  # the report's "target": kind, family, q and any variant
    group: object  # the group family: field provenance and character degrees
    construction: dict
    certificate_keys: dict  # family-specific keys of the report's certificate
    rows: list
    certificate: TransferCertificate
    audit: list
    graph: Callable[[int], Graph | str]  # enumeration bound -> graph, or why skipped


def build_target(family: str, q: int, variant: str = STANDARD) -> Target:
    """Spectrum, certificate and audit of one target, with its graph deferred.

    ``family`` is one of the Cayley tags or ``"orbital"``; ``variant``
    selects the Cayley connection set, and the orbital graph has only the
    standard one.  Raises ``ValueError`` for a target that cannot be built.
    """
    if family == "orbital":
        if variant != STANDARD:
            raise ValueError(
                f"unsupported variant {variant!r} for the orbital graph; available: {STANDARD}"
            )
        return _orbital_target(q)
    return _cayley_target(family, q, variant)


def _cayley_target(tag: str, q: int, variant: str) -> Target:
    family, conn, rows, cert, audit = analyze(tag, q, variant)

    def graph(bound: int) -> Graph | str:
        if family.order > bound:
            return f"group order {family.order} exceeds the enumeration bound {bound}"
        return explicit_graph(family, conn, bound=bound)

    keys = {"family": conn.family, "q": conn.q, "variant": conn.variant}
    return Target(
        label={"kind": "cayley", **keys},
        group=family,
        construction={
            "group_order": family.order,
            "degree": conn.degree,
            "classes": [f"{lab.kind}({_params_text(lab.params)})" for lab in conn.labels],
        },
        certificate_keys=keys,
        rows=rows,
        certificate=cert,
        audit=audit,
        graph=graph,
    )


def _orbital_target(q: int) -> Target:
    space = orb.build_coset_space(q)
    rows = orb.orbital_spectrum(q)
    cert = orb.certify_orbital(rows)
    audit = orb.linear_energy_display_audit(q, rows)
    mode = "explicit" if space.explicit else "period-sum"

    def graph(bound: int) -> Graph | str:
        if not space.explicit:
            return f"q = {space.q} runs in period-sum-only mode"
        if space.n_cosets > bound:
            return f"coset count {space.n_cosets} exceeds the enumeration bound {bound}"
        return orb.build_gamma(space)

    return Target(
        label={"kind": "orbital", "family": "orbital", "q": space.q},
        group=space.group,
        construction={
            "cosets": space.n_cosets,
            "subgroup_order": space.hsize,
            "degree": cert.degree,
            "transversal": list(space.rep_set),
            "z_scalar": space.zeta,
            "mode": mode,
        },
        certificate_keys={"q": space.q, "mode": mode},
        rows=rows,
        certificate=cert,
        audit=audit,
        graph=graph,
    )


def _spectrum_deviation(walk: WalkSystem, rows) -> float:
    """Largest distance between the numeric and the exact sorted spectra.

    Each block is compared with the rows of its sign, all rows for an
    unpaired block, so a wrong sign shows as well as a wrong eigenvalue; a
    side with the wrong number of eigenvalues is infinitely far.
    """
    deviation = 0.0
    for values, sign in zip(walk.block_eigenvalues, walk.block_signs):
        thetas = sorted(
            r.theta for r in rows if sign in (None, r.sign) for _ in range(r.multiplicity)
        )
        if len(thetas) != len(values):
            return float("inf")
        deviation = max(deviation, float(abs(values - thetas).max()))
    return deviation


def cross_checks(
    target: Target, sim_bound: int, enum_bound: int
) -> tuple[dict, list[str], np.ndarray | None, bool]:
    """Check a target against its explicit graph, within the two bounds.

    Returns the report's cross-check entries, its notes, the adjacency
    matrix (``None`` when the graph is skipped) and whether every check
    passed.  A graph with more than ``enum_bound`` elements is not built;
    one with more than ``sim_bound`` vertices is built but not simulated.
    The walk runs even when the certificate fails, since the mod-4
    certificate is sufficient but not necessary; it counts toward the
    verdict only when the certificate holds.  A ``ValueError`` from the walk
    (a bad pairing, an asymmetric adjacency, an eigendecomposition drift)
    skips the simulation and fails the checks.
    """
    checks: dict = {}
    notes: list[str] = []
    graph = target.graph(enum_bound)
    if isinstance(graph, str):
        checks["explicit_graph"] = f"skipped: {graph}"
        return checks, notes, None, True
    adjacency, cert = graph.adjacency, target.certificate
    n = adjacency.shape[0]
    checks["vertices"] = n
    row_sums = adjacency.sum(axis=1)
    degree_ok = bool((row_sums == cert.degree).all())
    checks["degree_row_sums_match"] = degree_ok
    checks.update(graph.checks)
    ok = degree_ok and all(graph.checks.values())
    components = component_count(adjacency)
    checks["components"] = components
    if cert.connected is not None:
        agrees = (components == 1) == cert.connected
        checks["connectivity_agrees"] = bool(agrees)
        ok &= agrees
    # the complement of a perfect matching: every row sums to n - 2, no loops
    if (row_sums == n - 2).all() and adjacency.trace() == 0:
        notes.append(f"the graph is the complement of {n // 2} disjoint edges")
    if n > sim_bound:
        checks["simulation"] = (
            f"skipped: {n} vertices exceed the simulation bound {sim_bound}"
        )
        return checks, notes, adjacency, ok
    pairs = [(i, int(j)) for i, j in enumerate(graph.partner) if i < j]
    try:
        walk = WalkSystem.from_adjacency(adjacency, graph.partner)
        scan = pst_scan(walk, pairs)
    except ValueError as err:
        checks["simulation"] = f"skipped: {err}"
        return checks, notes, adjacency, False
    deviation = _spectrum_deviation(walk, target.rows)
    checks["spectrum_deviation"] = _fmt(deviation)
    spectrum_ok = deviation <= SPECTRUM_TOL
    checks["spectrum_matches"] = bool(spectrum_ok)
    ok &= spectrum_ok
    checks["walk_pairs"] = scan.pairs_checked
    checks["walk_min_fidelity"] = _fmt(scan.min_fidelity)
    checks["walk_ok"] = scan.ok
    if not scan.ok:
        checks["walk_reason"] = scan.reason
    if cert.ok:
        ok &= scan.ok
        if scan.ok and abs(scan.time - cert.time) > 1e-12:
            checks["walk_time_agrees"] = False
            ok = False
    return checks, notes, adjacency, ok


def cmd_run(args) -> int:
    """Run one target through the pipeline and report on it."""
    try:
        target = build_target(args.family, args.q, args.variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sim_bound, enum_bound = _bounds(args)
    checks, notes, adjacency, cross_ok = cross_checks(target, sim_bound, enum_bound)
    cert = target.certificate
    csv_entries = [
        {
            "family": target.label["family"],
            "q": target.label["q"],
            "kind": r.irr.kind,
            "params": r.irr.params,
            "degree": target.group.degree(r.irr),
            "theta": r.theta,
            "multiplicity": r.multiplicity,
            "sign": r.sign,
        }
        for r in target.rows
    ]
    report = {
        "schema": SCHEMA,
        "artifact": {"name": "pstwalk", "version": __version__},
        "target": target.label,
        "field": _field_provenance(target.group.field),
        "construction": target.construction,
        "spectrum": csv_entries,
        "certificate": _certificate_json(cert, target.certificate_keys),
        "cross_checks": checks,
        "notes": notes,
        "notices": _notices(target.audit),
    }
    if not cert.ok:
        code = EXIT_CERTIFICATE
    elif not cross_ok:
        code = EXIT_CROSS_CHECK
    else:
        code = EXIT_OK
    return _finish(report, csv_entries, adjacency, args, code)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser) -> None:
    parser.add_argument("--q", type=int, required=True, help="field size (odd prime power)")
    parser.add_argument(
        "--brute-force-bound",
        type=_bound,
        default=None,
        metavar="N",
        help=(
            "cap for explicit cross-validation; overrides both the "
            f"simulation bound (default {SIMULATION_BOUND} vertices) and the "
            f"enumeration bound (default {ENUMERATION_BOUND} elements)"
        ),
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory receiving report.json / spectrum.csv / graph.edges",
    )
    parser.add_argument(
        "--format",
        type=_formats,
        default="all",
        metavar="LIST",
        help="comma-separated subset of json,csv,edges (default: all that apply)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pstwalk",
        description=(
            "Construct graphs with antipodal perfect state transfer from "
            "matrix groups, certify them through exact character sums, and "
            "cross-validate with a simulated continuous-time quantum walk."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="certify a class-union Cayley graph family"
    )
    verify.add_argument("--family", required=True, choices=FAMILY_TAGS)
    verify.add_argument(
        "--variant",
        default=STANDARD,
        choices=(STANDARD, SMALL_ORDERS),
        help="connection-set variant (the small-orders set exists for gl at q = 3)",
    )
    _add_common(verify)
    verify.set_defaults(run=cmd_run)

    orbital_p = sub.add_parser(
        "orbital", help="certify the double-coset graph on GL(2, q^2) cosets"
    )
    _add_common(orbital_p)
    orbital_p.set_defaults(run=cmd_run, family="orbital", variant=STANDARD)

    export = sub.add_parser("export", help="run a target and write its artifacts")
    export.add_argument("--family", required=True, choices=FAMILY_TAGS + ("orbital",))
    export.add_argument(
        "--variant", default=STANDARD, choices=(STANDARD, SMALL_ORDERS)
    )
    _add_common(export)
    export.set_defaults(run=cmd_run, out_dir=Path("."))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
