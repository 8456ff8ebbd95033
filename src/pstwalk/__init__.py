"""Perfect state transfer on matrix-group graphs, certified exactly.

The package builds two kinds of graphs on 2x2 matrix groups over small
finite fields and decides -- in exact arithmetic -- whether the
continuous-time quantum walk on them admits perfect state transfer:

* class-union Cayley graphs on GL(2, q), GU(2, q) and SL(2, q), where
  transfer happens between every vertex ``x`` and its antipode ``-x``
  (:mod:`pstwalk.cayley`);
* a double-coset graph on the cosets GL(2, q^2) / GL(2, q) for
  ``q = 3 (mod 4)``, where transfer happens between each coset ``rH``
  and ``(z r)H`` for a fixed order-4 scalar ``z`` (:mod:`pstwalk.orbital`).

Eigenvalues come from character sums over hand-built character tables
(:mod:`pstwalk.groups`, :mod:`pstwalk.chars`), both families share one
transfer certificate, a mod-4 congruence on the integral spectrum
(:mod:`pstwalk.scheme`), and
every certificate can be cross-checked against a numeric walk simulation
at small sizes (:mod:`pstwalk.ctqw`).  The ``pstwalk`` command-line tool
(:mod:`pstwalk.cli`) wraps the whole pipeline and exports reproducible
reports, spectra and edge lists.
"""

from pstwalk.cayley import (
    FAMILY_TAGS,
    SMALL_ORDERS,
    STANDARD,
    CayleyAnalysis,
    ConnectionSet,
    analyze,
    build_connection_set,
    certify,
    closed_form_audit,
    closed_form_checks,
    component_count,
    explicit_graph,
    make_family,
    spectrum,
    variants_for,
)
from pstwalk.chars import CycSum
from pstwalk.ctqw import TransferReport, pst_scan
from pstwalk.gf import FiniteField, FieldTower, make_field, make_tower
from pstwalk.groups import ClassLabel, GLGroup, GUGroup, IrrLabel, Mat2, SLGroup
from pstwalk.orbital import (
    CosetSpace,
    build_coset_space,
    build_gamma,
    certify_orbital,
    linear_energy_display_audit,
    linear_energy_display_checks,
    orbital_spectrum,
)
from pstwalk.scheme import (
    ConjugacyScheme,
    Disagreement,
    FormulaCheck,
    Graph,
    Spectrum,
    SpectrumRow,
    TransferCertificate,
    transfer_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fields and exact arithmetic
    "FiniteField",
    "FieldTower",
    "make_field",
    "make_tower",
    "CycSum",
    # groups and labels
    "Mat2",
    "ClassLabel",
    "IrrLabel",
    "GLGroup",
    "GUGroup",
    "SLGroup",
    # Cayley pipeline
    "FAMILY_TAGS",
    "STANDARD",
    "SMALL_ORDERS",
    "make_family",
    "variants_for",
    "ConnectionSet",
    "build_connection_set",
    "spectrum",
    "certify",
    "closed_form_audit",
    "closed_form_checks",
    "CayleyAnalysis",
    "analyze",
    "explicit_graph",
    "component_count",
    # double-coset pipeline
    "CosetSpace",
    "build_coset_space",
    "build_gamma",
    "orbital_spectrum",
    "certify_orbital",
    "linear_energy_display_audit",
    "linear_energy_display_checks",
    # scheme layer and walk checks
    "Spectrum",
    "SpectrumRow",
    "FormulaCheck",
    "Disagreement",
    "ConjugacyScheme",
    "Graph",
    "TransferCertificate",
    "transfer_certificate",
    "TransferReport",
    "pst_scan",
]
