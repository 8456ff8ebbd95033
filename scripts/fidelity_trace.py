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

from pstwalk.cayley import FAMILY_TAGS, STANDARD
from pstwalk.cli import ENUMERATION_BOUND, build_target
from pstwalk.ctqw import WalkSystem, graph_stack

WIDTH = 60


def traced_pair(family: str, q: int, variant: str):
    """The walk on the explicit graph's stack, as the cross-checks make it, its first certified pair, tau and a caption."""
    target = build_target(family, q, variant)
    cert = target.certificate
    if not cert.ok:
        raise ValueError(f"no certificate: {cert.reason}")
    graph = target.graph(ENUMERATION_BOUND)
    if isinstance(graph, str):
        raise ValueError(f"{graph}; no explicit graph to trace")
    a, b = 0, int(graph.partner[0])
    if family == "orbital":
        caption = f"orbital q={q}, cosets H and zH (vertices {a}, {b})"
    else:
        caption = f"{family}(2,{q}) {variant}, pair x, -x (vertices {a}, {b})"
    walk = WalkSystem.from_stack(*graph_stack(graph))
    return walk, (a, b), cert.time, caption


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
        walk, pair, tau, label = traced_pair(args.family, args.q, args.variant)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

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
