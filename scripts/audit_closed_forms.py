#!/usr/bin/env python3
"""Tabulate hand-derived closed forms against exact character sums.

Each standard connection set ships with hand-derived closed forms for
its eigenvalues, retained as audit oracles.  The exact values always
come from class character sums (Cayley graphs) or integer period sums
over the coset characters (the double-coset graph); this script prints
both side by side, every row of each target's full audit table
(``Target.checks``), and flags every row where the retained hand form
disagrees.  Disagreements are expected on a few rows (they document
derivation slips) and never affect certificates, which are computed
from the exact values alone.

Example:
    python3 scripts/audit_closed_forms.py --q 3 5 7
"""

from __future__ import annotations

import argparse
import sys

from pstwalk.cayley import FAMILY_TAGS
from pstwalk.cli import build_target


def print_table(title: str, checks) -> int:
    print(f"\n{title}")
    print(f"  {'row':24} {'formula':24} {'hand':>8} {'exact':>8}")
    bad = 0
    for c in checks:
        marker = "" if c.agrees else "   <-- disagrees"
        bad += not c.agrees
        print(f"  {c.row:24} {c.formula:24} {c.hand_value:>8} {c.exact_value:>8}{marker}")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, nargs="+", default=[3, 5], help="prime powers to audit (default: 3 5)")
    args = parser.parse_args(argv)

    disagreements = 0
    for q in args.q:
        for tag in FAMILY_TAGS + ("orbital",):
            if tag == "orbital" and q % 4 != 3:
                continue
            try:
                target = build_target(tag, q)
            except ValueError as err:
                print(f"\n{tag}(2,{q}): skipped ({err})")
                continue
            if tag == "orbital":
                title = f"orbital q={q} linear-row energies"
            else:
                title = f"{tag}(2,{q}) standard connection set"
            disagreements += print_table(title, target.checks())

    print(f"\n{disagreements} disagreeing row(s); certificates use the exact column only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
