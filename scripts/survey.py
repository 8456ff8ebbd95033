#!/usr/bin/env python3
"""Survey every supported transfer target and print its certificate.

Sweeps the class-union Cayley graphs on GL/GU/SL(2, q) over odd prime
powers up to ``--max-q`` (every variant each family offers) and the
double-coset graph for each ``q = 3 (mod 4)``, prints one row per
target, and cross-checks each certificate against a numeric walk
simulation whenever the explicit graph is small enough.

Examples:
    python3 scripts/survey.py
    python3 scripts/survey.py --max-q 11 --simulate-bound 0   # exact only
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from pstwalk import (
    analyze,
    build_coset_space,
    certify_orbital,
    orbital_spectrum,
    pst_scan,
    variants_for,
)
from pstwalk.cayley import FAMILY_TAGS, explicit_graph, transfer_pairs
from pstwalk.orbital import EXPLICIT_LIMIT, build_gamma

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


def simulate_cayley(family, conn, cert, bound: int) -> str:
    if family.order > bound:
        return f"skipped (n={family.order})"
    adjacency, sch = explicit_graph(family, conn)
    report = pst_scan(adjacency, transfer_pairs(sch))
    if report.ok != cert.ok:
        return f"DISAGREES: {report.reason}"
    return f"fidelity {report.min_fidelity:.12f}"


def simulate_orbital(q: int, cert, bound: int) -> str:
    space = build_coset_space(q)
    if not space.explicit or space.n_cosets > bound:
        return f"skipped (n={space.n_cosets})"
    graph = build_gamma(space)
    report = pst_scan(graph.adjacency, graph.transfer_pairs())
    if report.ok != cert.ok:
        return f"DISAGREES: {report.reason}"
    return f"fidelity {report.min_fidelity:.12f}"


def fmt_row(target: str, vertices: int, cert, simulation: str, secs: float) -> str:
    tau = "-" if cert.time is None else f"pi/{round(math.pi / cert.time)}"
    res = "-" if cert.residue is None else str(cert.residue)
    gap = "-" if cert.gap is None else str(cert.gap)
    verdict = "valid" if cert.ok else "FAILED"
    return (
        f"{target:28} {vertices:>8} {cert.degree:>6} {res:>3} {gap:>3} {tau:>8} "
        f"{verdict:11} {simulation:24} {secs:>6.2f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-q", type=int, default=9, help="largest q to survey (default 9)")
    parser.add_argument(
        "--simulate-bound",
        type=int,
        default=150,
        help="simulate the walk when the graph has at most this many vertices (default 150; 0 disables)",
    )
    args = parser.parse_args(argv)
    if args.simulate_bound < 0:
        parser.error(f"argument --simulate-bound: expected a non-negative integer, got {args.simulate_bound}")

    print(HEADER)
    print("-" * len(HEADER))
    failures = 0
    for q in odd_prime_powers(args.max_q):
        for tag in FAMILY_TAGS:
            for variant in variants_for(tag, q):
                t0 = time.perf_counter()
                try:
                    family, conn, rows, cert, _ = analyze(tag, q, variant)
                except ValueError as err:
                    print(f"{f'{tag}(2,{q}) {variant}':28} skipped: {err}")
                    continue
                simulation = simulate_cayley(family, conn, cert, args.simulate_bound)
                failures += (not cert.ok) + simulation.startswith("DISAGREES")
                print(fmt_row(f"{tag}(2,{q}) {variant}", family.order, cert, simulation, time.perf_counter() - t0))
        if q % 4 == 3:
            t0 = time.perf_counter()
            cert = certify_orbital(orbital_spectrum(q))
            simulation = simulate_orbital(q, cert, args.simulate_bound)
            failures += (not cert.ok) + simulation.startswith("DISAGREES")
            space = build_coset_space(q)
            mode = "explicit" if space.explicit else "character-sum"
            print(fmt_row(f"orbital q={q} ({mode})", space.n_cosets, cert, simulation, time.perf_counter() - t0))
    if failures:
        print(f"\n{failures} target(s) failed certification or disagreed with simulation")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
