#!/usr/bin/env python3
"""Print the transfer fidelity of a certified pair as a function of time.

Builds one explicit graph, picks a certified transfer pair (a vertex and
its antipode on a Cayley graph; the subgroup coset and its z-translate
on the double-coset graph), and prints ``|exp(-iAt)[a, b]|`` sampled on
``[0, 2 tau]`` as an ASCII curve.  The peak at the certified time
``tau = pi/gap`` is the perfect-state-transfer event; the mirror peak at
``3 tau`` would follow by periodicity.

Examples:
    python3 scripts/fidelity_trace.py --family gl --q 3
    python3 scripts/fidelity_trace.py --family orbital --q 3 --samples 48
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from pstwalk import analyze, build_coset_space, build_gamma, certify_orbital, orbital_spectrum
from pstwalk.cayley import FAMILY_TAGS, STANDARD, explicit_graph, transfer_pairs
from pstwalk.ctqw import WalkSystem
from pstwalk.orbital import EXPLICIT_LIMIT

WIDTH = 60


def build_target(args) -> tuple[np.ndarray, tuple[int, int], float, str]:
    if args.family == "orbital":
        space = build_coset_space(args.q)
        if not space.explicit:
            raise ValueError(
                f"q = {args.q} runs in character-sum-only mode (limit q <= {EXPLICIT_LIMIT}); "
                "no explicit graph to trace"
            )
        cert = certify_orbital(orbital_spectrum(args.q))
        graph = build_gamma(space)
        pair = (graph.h_vertex, graph.z_vertex)
        label = f"orbital q={args.q}, cosets H and zH (vertices {pair[0]}, {pair[1]})"
        return graph.adjacency, pair, cert.time, label
    family, conn, _, cert, _ = analyze(args.family, args.q, args.variant)
    if not cert.ok:
        raise ValueError(f"no certificate: {cert.reason}")
    adjacency, sch = explicit_graph(family, conn)
    pair = transfer_pairs(sch)[0]
    label = f"{args.family}(2,{args.q}) {args.variant}, pair x, -x (vertices {pair[0]}, {pair[1]})"
    return adjacency, pair, cert.time, label


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILY_TAGS + ("orbital",), default="gl")
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--variant", default=STANDARD)
    parser.add_argument("--samples", type=int, default=40, help="number of time samples (default 40)")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error(f"argument --samples: expected a positive integer, got {args.samples}")

    try:
        adjacency, pair, tau, label = build_target(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    walk = WalkSystem.from_adjacency(adjacency)

    print(label)
    print(f"certified transfer time tau = pi/{round(math.pi / tau)} = {tau:.6f}\n")
    print(f"  {'t/tau':>6}  {'fidelity':>10}")
    peak_row = None
    for k in range(args.samples + 1):
        t = 2 * tau * k / args.samples
        fidelity = walk.fidelities(t, [pair])[0]
        bar = "#" * round(fidelity * WIDTH)
        marker = "   <-- tau" if math.isclose(t, tau) else ""
        row = f"  {t / tau:>6.3f}  {fidelity:>10.6f}  {bar}{marker}"
        print(row)
        if marker:
            peak_row = fidelity
    if peak_row is not None:
        print(f"\nfidelity at tau: {peak_row:.12f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
