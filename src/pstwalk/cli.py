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
into a :class:`Target`: the exact spectrum (a :class:`~pstwalk.scheme.Spectrum`,
whose columns every stage here reads), the shared mod-4 certificate, the
closed-form audit as counted disagreements with its full per-row table on
demand, the provenance, and either the
explicit graph -- one :class:`~pstwalk.scheme.Graph` type for both
families, its transfer pairs read off the ``partner`` permutation -- or
the reason it is skipped.  :func:`cross_checks` runs the explicit checks
on any target (row sums against the top exact eigenvalue, components,
numeric spectrum, walk), and one report assembly serves both families.
They read the graph's stack B[d] = A[lo, sigma^d lo] along its ``symmetry``
sigma, a free cyclic automorphism of even order c whose power of c/2 must be
the partner permutation.  The walk is one :class:`~pstwalk.ctqw.WalkSystem`
made from that stack; its Fourier blocks fall on the partner's +1 and -1
sides, and each side's numeric spectrum is compared with the exact rows of
that sign.  A symmetry that is not such an automorphism, or whose half-way
power is not the partner, fails the cross-check, as does any other error
the walk raises on the explicit graph.
The pipeline is public: the scripts in ``scripts/`` build their rows,
traces and audits through it rather than by hand.

Artifacts (written when an output directory is given): ``report.json`` with
a versioned schema, full provenance and the spectrum as its distinct (kind,
theta, sign) classes, ``spectrum.csv`` with one row per irreducible
character, and ``graph.edges`` with one ``u v`` line per edge (0-based,
sorted) whenever the explicit graph is in range.

Exit codes: 0 on a valid certificate with all cross-checks passing, 1 on a
usage error (among them ``--format edges`` for a target whose graph the
bounds rule out, refused before its spectrum is built) or a target that
outgrows memory, 2 on a certificate failure,
3 on a cross-check mismatch.  Hand-derived closed forms that disagree with
the exact values are reported as notices, one per formula, and do not
affect the exit code; an output directory that cannot be written exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from . import __version__, scheme
from . import orbital as orb
from .cayley import (
    FAMILY_TAGS,
    SMALL_ORDERS,
    STANDARD,
    analyze,
    closed_form_checks,
    component_count,
    explicit_graph,
    make_family,
)
from .ctqw import PairingError, WalkSystem, graph_stack, pst_scan
from .scheme import FormulaCheck, Graph, Spectrum, TransferCertificate, Translates

__all__ = [
    "main", "build_parser", "build_target", "cross_checks", "Target",
    "SCHEMA", "SIMULATION_BOUND", "ENUMERATION_BOUND",
]

SCHEMA = "pstwalk-report/3"
SIMULATION_BOUND = 150
ENUMERATION_BOUND = 10_000
SPECTRUM_TOL = 1e-8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_CROSS_CHECK = 3

_FORMATS = ("json", "csv", "edges")
# Encoder chunks per write of report.json.
_JSON_BATCH = 4096


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
    return ":".join(map(str, params))


def _field_provenance(field) -> dict:
    return {
        "p": field.p,
        "k": field.k,
        "size": field.q,
        "modulus": list(field.modulus),
        "generator": field.generator,
    }


def _certificate_json(cert, keys: dict) -> dict:
    out = {**keys, **cert._asdict()}
    if out["time"] is not None:
        out["time"] = _fmt(out["time"])
    return out


def _notices(audit) -> list[str]:
    """One line per hand-derived formula that disagrees: its first such row and their count."""
    return [
        (
            f"hand-derived closed form '{d.first.formula}' for {d.first.row} gives "
            f"{d.first.hand_value} where the exact value is {d.first.exact_value}, "
            + ("the only disagreeing row" if d.count == 1 else f"the first of {d.count} disagreeing rows")
            + "; the hand form is retained as an audit record and the congruence "
            "conclusion is unaffected"
        )
        for d in audit
    ]


def _spectrum_classes(rows: Spectrum) -> list[dict]:
    """One entry per distinct (kind, theta, sign), sorted: its rows and their total multiplicity."""
    classes: dict[tuple, list[int]] = {}
    for irr, theta, sign, multiplicity in zip(rows.irreducibles, rows.theta, rows.sign, rows.multiplicity):
        totals = classes.setdefault((irr.kind, theta, sign), [0, 0])
        totals[0] += 1
        totals[1] += multiplicity
    return [
        {"kind": kind, "theta": theta, "sign": sign, "characters": n, "multiplicity": m}
        for (kind, theta, sign), (n, m) in sorted(classes.items())
    ]


# ---------------------------------------------------------------------------
# report assembly and artifact writing


def _write_report(path: Path, report: dict) -> None:
    """report.json: ``json.dumps(report, sort_keys=True, indent=2)`` and a newline.

    The encoder's chunks are joined and written ``_JSON_BATCH`` at a time, so
    a report of a large spectrum is never one string in memory.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    with path.open("wb") as f:
        while batch := "".join(islice(chunks, _JSON_BATCH)):
            f.write(batch.encode("utf-8"))
        f.write(b"\n")


def _write_spectrum(path: Path, target: Target) -> None:
    """spectrum.csv, one line per row of the target's columns.

    No field holds a comma, a quote or a line break, so a line is its fields
    joined by commas, the bytes ``csv.writer`` would write; the csv module,
    104 KB of a cold process's peak memory, is not loaded.
    """
    family, q, degree, rows = target.label["family"], target.label["q"], target.group.degree, target.rows
    columns = zip(rows.irreducibles, rows.theta, rows.sign, rows.multiplicity)
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write("family,q,char-kind,char-params,degree,theta,multiplicity,phi-sign\n")
        f.writelines(
            f"{family},{q},{irr.kind},{_params_text(irr.params)},{degree(irr)},{theta},{multiplicity},{sign}\n"
            for irr, theta, sign, multiplicity in columns
        )


def _edge_blocks(rows: Translates):
    """graph.edges as bytes, a block of rows at a time: a line ``i j`` per edge i < j, in row order.

    Each row is read from ``rows.neighbours``, one column per element of
    ``rows.connection``, in blocks of about ``scheme.BLOCK_ENTRIES`` of them,
    at least one row, so no temporary grows with the graph.  A row's
    neighbours are sorted, those above the diagonal kept and a repeated one
    written once; they become ``b"j\\n"`` strings, and row i is one
    ``b"i ".join`` over its slice of them.  An edgeless graph is one newline.
    """
    import numpy as np

    n = len(rows)
    ends = np.array([b"%d\n" % j for j in range(n)], dtype=object)
    step = max(1, scheme.BLOCK_ENTRIES // max(1, len(rows.connection)))
    edges = 0
    for start in range(0, n, step):
        vertices = np.arange(start, min(start + step, n))
        cols = np.sort(rows.neighbours(vertices), axis=1)
        upper = cols > vertices[:, None]
        upper[:, 1:] &= cols[:, 1:] != cols[:, :-1]
        texts = ends[cols[upper]].tolist()
        edges += len(texts)
        bounds = [0, *np.cumsum(upper.sum(axis=1)).tolist()]
        yield b"".join(
            b"%d " % i + (b"%d " % i).join(texts[lo:hi])
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start) if lo < hi
        )
    if not edges:
        yield b"\n"


def _formats(text: str) -> set[str] | None:
    """A comma-separated subset of json,csv,edges; 'all' means applicable ones.  An empty list is refused."""
    parts = {p.strip() for p in text.split(",") if p.strip()}
    if parts == {"all"}:
        return None
    unknown = parts - set(_FORMATS)
    if unknown or not parts:
        what = f"unknown format(s) {', '.join(sorted(unknown))}" if unknown else f"no format in {text!r}"
        raise argparse.ArgumentTypeError(
            f"{what}; expected a comma-separated subset of {', '.join(_FORMATS)} or 'all'"
        )
    return parts


def _write_outputs(
    out_dir: Path,
    formats: set[str] | None,
    report: dict,
    target: Target,
    rows: Translates | None,
) -> list[Path]:
    """Write the requested artifacts; 'edges' is written where the explicit graph's rows are."""
    wanted = formats if formats is not None else set(_FORMATS)
    if rows is None:
        wanted = wanted - {"edges"}
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in wanted:
        path = out_dir / "report.json"
        _write_report(path, report)
        written.append(path)
    if "csv" in wanted:
        path = out_dir / "spectrum.csv"
        _write_spectrum(path, target)
        written.append(path)
    if "edges" in wanted:
        path = out_dir / "graph.edges"
        with path.open("wb") as f:
            f.writelines(_edge_blocks(rows))
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
    target: Target,
    rows: Translates | None,
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
            written = _write_outputs(args.out_dir, args.format, report, target, rows)
        except OSError as exc:
            print(f"error: cannot write artifacts to {args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
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
    rows: Spectrum
    certificate: TransferCertificate
    audit: list  # the closed forms' disagreements, counted per formula
    checks: Callable[[], Iterator[FormulaCheck]]  # the audit's full table, one check per row
    graph: Callable[[int], Graph | str]  # enumeration bound -> graph, or why skipped


def _graph_skipped(family: str, q: int, bound: int) -> str | None:
    """Why the explicit graph of a target is not built within ``bound``, or ``None`` if it is.

    Read from the group order or the coset count alone, so it can be decided
    before any spectrum is built.  Raises ``ValueError`` for a q the family
    cannot be built at.
    """
    if family == "orbital":
        space = orb.build_coset_space(q)
        if not space.explicit:
            return f"q = {space.q} runs in period-sum-only mode"
        if space.n_cosets > bound:
            return f"coset count {space.n_cosets} exceeds the enumeration bound {bound}"
        return None
    order = make_family(family, q).order
    if order > bound:
        return f"group order {order} exceeds the enumeration bound {bound}"
    return None


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
        if skipped := _graph_skipped(tag, q, bound):
            return skipped
        # loaded for its side effect before the group is enumerated, so that the
        # garbage collections numpy's import triggers do not walk the elements
        __import__("numpy")
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
        checks=partial(closed_form_checks, family, conn, rows),
        graph=graph,
    )


def _orbital_target(q: int) -> Target:
    space = orb.build_coset_space(q)
    rows = orb.orbital_spectrum(q)
    cert = orb.certify_orbital(rows)
    audit = orb.linear_energy_display_audit(q, rows)
    mode = "explicit" if space.explicit else "period-sum"

    def graph(bound: int) -> Graph | str:
        return _graph_skipped("orbital", q, bound) or orb.build_gamma(space)

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
        checks=partial(orb.linear_energy_display_checks, q, rows),
        graph=graph,
    )


def _spectrum_deviation(walk: WalkSystem, rows: Spectrum) -> float:
    """Largest distance between the numeric and the exact sorted spectra.

    Each side of the pairing, the union of its Fourier blocks, is compared
    with the rows of its sign, all rows without a pairing, so a wrong sign
    shows as well as a wrong eigenvalue; a side with the wrong number of
    eigenvalues is infinitely far.
    """
    deviation = 0.0
    for side, values in walk.sides().items():
        thetas = sorted(
            theta
            for theta, sign, multiplicity in zip(rows.theta, rows.sign, rows.multiplicity)
            if side in (None, sign)
            for _ in range(multiplicity)
        )
        if len(thetas) != len(values):
            return float("inf")
        deviation = max(deviation, float(abs(values - thetas).max()))
    return deviation


def cross_checks(
    target: Target, sim_bound: int, enum_bound: int
) -> tuple[dict, list[str], Translates | None, bool]:
    """Check a target against its explicit graph, within the two bounds.

    Returns the report's cross-check entries, its notes, the graph's rows
    (``None`` when the graph is skipped) and whether every check passed.  A
    graph with more than ``enum_bound`` elements is not built; one with more
    than ``sim_bound`` vertices is built but not simulated.  The checks
    read the graph's stack B[d] = A[lo, sigma^d lo]: a stack that
    :func:`~pstwalk.ctqw.graph_stack` refuses skips the simulation and fails
    the checks at any size; the m stack rows sum to the certificate's
    degree, loops lie on the diagonal of B[0], and the components are those
    of the Z_c-lift (:func:`component_count`).
    The walk runs even when the certificate fails, since the mod-4
    certificate is sufficient but not necessary; it counts toward the
    verdict only when the certificate holds.  A ``ValueError`` from the walk
    (an eigendecomposition drift), or a symmetry whose half-way power is not
    the partner, skips the simulation and fails the checks.
    """
    checks: dict = {}
    notes: list[str] = []
    graph = target.graph(enum_bound)
    if isinstance(graph, str):
        checks["explicit_graph"] = f"skipped: {graph}"
        return checks, notes, None, True
    rows, cert = graph.translates, target.certificate
    n = len(rows)
    checks["vertices"] = n
    checks.update(graph.checks)
    try:
        orbits, stack = graph_stack(graph)
    except ValueError as err:
        checks["simulation"] = f"skipped: {err}"
        return checks, notes, rows, False
    row_sums = stack.sum(axis=(0, 2))
    degree_ok = bool((row_sums == cert.degree).all())
    checks["degree_row_sums_match"] = degree_ok
    ok = degree_ok and all(graph.checks.values())
    components = component_count(stack)
    checks["components"] = components
    if cert.connected is not None:
        agrees = (components == 1) == cert.connected
        checks["connectivity_agrees"] = bool(agrees)
        ok &= agrees
    # the complement of a perfect matching: every row sums to n - 2, no loops
    if (row_sums == n - 2).all() and not stack[0].diagonal().any():
        notes.append(f"the graph is the complement of {n // 2} disjoint edges")
    if n > sim_bound:
        checks["simulation"] = (
            f"skipped: {n} vertices exceed the simulation bound {sim_bound}"
        )
        return checks, notes, rows, ok
    pairs = [(i, int(j)) for i, j in enumerate(graph.partner) if i < j]
    try:
        walk = WalkSystem.from_stack(orbits, stack)
        moved = walk.pairing != graph.partner
        if moved.any():
            raise PairingError(
                f"the symmetry's power {walk.order // 2} is not the partner "
                f"at vertex {int(moved.argmax())}"
            )
        scan = pst_scan(walk, pairs)
    except ValueError as err:
        checks["simulation"] = f"skipped: {err}"
        return checks, notes, rows, False
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
    return checks, notes, rows, ok


def cmd_run(args) -> int:
    """Run one target through the pipeline and report on it; refuse one that outgrows memory."""
    try:
        return _run_target(args)
    except MemoryError:
        print(f"error: {args.family} at q = {args.q} needs more memory than is available", file=sys.stderr)
        return EXIT_USAGE


def _run_target(args) -> int:
    sim_bound, enum_bound = _bounds(args)
    try:
        if args.out_dir is not None and "edges" in (args.format or ()):
            if _graph_skipped(args.family, args.q, enum_bound):
                raise ValueError(
                    "the edge-list format needs an explicit graph, which this "
                    "target does not build within the current bounds"
                )
        target = build_target(args.family, args.q, args.variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks, notes, rows, cross_ok = cross_checks(target, sim_bound, enum_bound)
    cert = target.certificate
    report = {
        "schema": SCHEMA,
        "artifact": {"name": "pstwalk", "version": __version__},
        "target": target.label,
        "field": _field_provenance(target.group.field),
        "construction": target.construction,
        "spectrum_classes": _spectrum_classes(target.rows),
        "spectrum_rows": len(target.rows),
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
    return _finish(report, target, rows, args, code)


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
