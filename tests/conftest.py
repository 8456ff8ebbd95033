"""Shared pytest configuration: the acceptance-criteria summary.

Each acceptance criterion lives in one test function in
``test_acceptance.py``; after a run that touched any of them, one
PASS/FAIL line per criterion is appended to the terminal summary.
"""

from __future__ import annotations

CRITERIA = {
    "test_criterion_1_gl3_standard": (
        "1: GL(2,3) standard set -- size 46, spectrum {46,0,-2}, "
        "residue 2 certificate, full-vertex walk fidelity (< 5 s)"
    ),
    "test_criterion_2_gl3_small_orders": (
        "2: GL(2,3) small-orders set -- connected, congruence conditions, "
        "walk fidelity (< 5 s)"
    ),
    "test_criterion_3_gl5": (
        "3: GL(2,5) -- 286-element set by enumeration, integral spectrum, "
        "mod-4 sides, degree-1 closed forms, sampled walk (< 60 s)"
    ),
    "test_criterion_4_sl": (
        "4: SL(2,3) and SL(2,5) -- degrees 17/49, order- vs class-based set, "
        "involution-ratio congruence on every character, walks (< 30 s)"
    ),
    "test_criterion_5_gu": (
        "5: GU(2,3) and GU(2,5) -- orders 96/720, degree 62, congruences, "
        "detected linear-form discrepancy, walk at q=3 (< 60 s)"
    ),
    "test_criterion_6_orbital_q3": (
        "6: orbital q=3 -- 120 cosets, invariant vs literal double cosets, "
        "matching involution, energies 0 mod 4, numeric spectrum, walk, "
        "detected display discrepancy (< 120 s)"
    ),
    "test_criterion_7_orbital_q7": (
        "7: orbital q=7 -- period-sum-only certificate, energies 0 mod 4 "
        "(< 60 s)"
    ),
    "test_criterion_8_scheme_core": (
        "8: scheme core -- axioms and eigenvalue identity exact on GL(2,3), "
        "idempotent ranks, parity test vs simulation on every small graph"
    ),
    "test_criterion_9_character_tables": (
        "9: character tables -- exact orthogonality and degree sums for "
        "GL/GU at q in {3,5,7}, SL assembled table at q in {3,5}"
    ),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, str] = {}
    for stat_key, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(stat_key, []):
            name = report.nodeid.split("::")[-1]
            if name not in CRITERIA:
                continue
            if verdict == "PASS" and getattr(report, "when", "call") != "call":
                continue
            if outcomes.get(name) != "FAIL":
                outcomes[name] = verdict
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in CRITERIA.items():
        if name in outcomes:
            terminalreporter.write_line(f"{outcomes[name]}  {label}")
