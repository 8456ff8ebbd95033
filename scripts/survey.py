#!/usr/bin/env python3
"""Survey every supported transfer target and print its certificate.

Sweeps the class-union Cayley graphs on GL/GU/SL(2, q) over odd prime
powers up to ``--max-q`` (every variant each family offers) and the
double-coset graph for each ``q = 3 (mod 4)``, prints one row per
target, and runs the cross-checks of ``pstwalk verify`` (degree,
components, connectivity, numeric spectrum and walk) whenever the
explicit graph has at most ``--simulate-bound`` vertices.

Examples:
    python3 scripts/survey.py
    python3 scripts/survey.py --max-q 11 --simulate-bound 0   # exact only
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from pstwalk.cayley import FAMILY_TAGS, STANDARD, variants_for
from pstwalk.cli import build_target, cross_checks

HEADER = f"{'target':28} {'vertices':>8} {'degree':>6} {'res':>3} {'gap':>3} {'tau':>8} {'certificate':11} {'simulation':24} {'secs':>6}"


def odd_prime_powers(limit: int) -> list[int]:
    out = []
    for n in range(3, limit + 1, 2):
        m, p = n, min(d for d in range(2, n + 1) if n % d == 0)
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(n)
    return out


def targets(max_q: int):
    """(family, q, variant) for every surveyed target, in table order."""
    for q in odd_prime_powers(max_q):
        for tag in FAMILY_TAGS:
            for variant in variants_for(tag, q):
                yield tag, q, variant
        if q % 4 == 3:
            yield "orbital", q, STANDARD


def row_name(target) -> str:
    label = target.label
    if label["kind"] == "orbital":
        return f"orbital q={label['q']} ({target.construction['mode']})"
    return f"{label['family']}(2,{label['q']}) {label['variant']}"


def vertices(target) -> int:
    key = "cosets" if target.label["kind"] == "orbital" else "group_order"
    return target.construction[key]


def simulation_verdict(target, checks: dict, ok: bool) -> str:
    if not ok:
        failed = [key for key, value in checks.items() if value is False]
        reason = checks.get("walk_reason")
        return "DISAGREES: " + ", ".join(failed + ([reason] if reason else []))
    if "walk_min_fidelity" in checks:
        return f"fidelity {float(checks['walk_min_fidelity']):.12f}"
    return f"skipped (n={vertices(target)})"


def fmt_row(target, simulation: str, secs: float) -> str:
    cert = target.certificate
    tau = "-" if cert.time is None else f"pi/{round(math.pi / cert.time)}"
    res = "-" if cert.residue is None else str(cert.residue)
    gap = "-" if cert.gap is None else str(cert.gap)
    verdict = "valid" if cert.ok else "FAILED"
    return (
        f"{row_name(target):28} {vertices(target):>8} {cert.degree:>6} {res:>3} {gap:>3} {tau:>8} "
        f"{verdict:11} {simulation:24} {secs:>6.2f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-q", type=int, default=9, help="largest q to survey (default 9)")
    parser.add_argument(
        "--simulate-bound",
        type=int,
        default=150,
        help="build, cross-check and simulate the graph when it has at most this many vertices (default 150; 0 disables)",
    )
    args = parser.parse_args(argv)
    if args.simulate_bound < 0:
        parser.error(f"argument --simulate-bound: expected a non-negative integer, got {args.simulate_bound}")

    print(HEADER)
    print("-" * len(HEADER))
    failures = 0
    for tag, q, variant in targets(args.max_q):
        t0 = time.perf_counter()
        try:
            target = build_target(tag, q, variant)
        except ValueError as err:
            print(f"{f'{tag}(2,{q}) {variant}':28} skipped: {err}")
            continue
        checks, _, _, ok = cross_checks(target, args.simulate_bound, args.simulate_bound)
        simulation = simulation_verdict(target, checks, ok)
        failures += (not target.certificate.ok) + (not ok)
        print(fmt_row(target, simulation, time.perf_counter() - t0))
    if failures:
        print(f"\n{failures} target(s) failed certification or disagreed with a cross-check")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
