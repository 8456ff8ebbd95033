"""Outside-in layer tracing for one ``pstwalk`` process.

The tracer replaces selected public functions and methods of the pstwalk
modules (and numpy's dense eigensolvers) with wrappers that record a span
per call: name, parent span, start and end.  Nothing in ``pstwalk`` itself
is changed on disk; the wrappers are installed after ``pstwalk.cli`` is
imported and before ``pstwalk.cli.main`` runs.  Field *operations* are not
wrapped: they are too hot to trace and show up inside the groups spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute path, span name).  Functions are also rebound wherever
# another pstwalk module imported them by name.
TARGETS = (
    ("gf", "make_field", "gf.tables"),
    ("gf", "make_tower", "gf.tables"),
    ("groups", "GLGroup.__init__", "groups.tables"),
    ("groups", "GUGroup.__init__", "groups.tables"),
    ("groups", "SLGroup.__init__", "groups.tables"),
    ("groups", "GLGroup.class_rep", "groups.class_rep"),
    ("groups", "GUGroup.class_rep", "groups.class_rep"),
    ("groups", "SLGroup.class_rep", "groups.class_rep"),
    ("groups", "GLGroup.classify", "groups.classify"),
    ("groups", "GUGroup.classify", "groups.classify"),
    ("groups", "SLGroup.classify", "groups.classify"),
    ("groups", "GLGroup.char_value", "groups.char_value"),
    ("groups", "GUGroup.char_value", "groups.char_value"),
    ("groups", "SLGroup.char_value", "groups.char_value"),
    ("groups", "GLGroup.enumerate_group", "groups.enumerate"),
    ("groups", "GUGroup.enumerate_group", "groups.enumerate"),
    ("groups", "SLGroup.enumerate_group", "groups.enumerate"),
    ("scheme", "class_sum_eigenvalue", "scheme.class_sum"),
    ("scheme", "ConjugacyScheme.__init__", "scheme.graph"),
    ("scheme", "ConjugacyScheme.adjacency", "scheme.graph"),
    ("chars", "CycSum.reduced", "chars.reduce"),
    ("chars", "cyclotomic_polynomial", "chars.phi"),
    ("chars", "integer_part", "chars.integer_part"),
    ("cayley", "build_connection_set", "cayley.conn"),
    ("cayley", "spectrum", "cayley.spectrum"),
    ("cayley", "certify", "cayley.certify"),
    ("cayley", "closed_form_audit", "cayley.audit"),
    ("cayley", "explicit_graph", "cayley.explicit_graph"),
    ("cayley", "component_count", "cayley.components"),
    ("orbital", "orbital_spectrum", "orbital.spectrum"),
    ("orbital", "certify_orbital", "orbital.certify"),
    ("orbital", "linear_energy_display_audit", "orbital.audit"),
    ("orbital", "build_coset_space", "orbital.coset_space"),
    ("orbital", "build_gamma", "orbital.gamma"),
    ("ctqw", "pst_scan", "ctqw.scan"),
    ("cli", "main", "cli.main"),
)
NUMPY_TARGETS = (("eigh", "numeric.eig"), ("eigvalsh", "numeric.eig"))


class Tracer:
    """Spans of one process, kept in memory as flat integer records."""

    def __init__(self):
        self.names: list[str] = []
        # four integers per span: name id, parent span index, start ns, end ns
        self.spans = array("q")
        self._stack: list[int] = []
        self.maxima = {"chars.root_order.max": 0, "ctqw.vertices.max": 0}
        self._caches = {}

    def _wrap(self, fn, name: str, probe=None):
        if name not in self.names:
            self.names.append(name)
        ident = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            index = len(spans) // 4
            spans.extend((ident, stack[-1] if stack else -1, clock(), 0))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * index + 3] = clock()
                stack.pop()

        return traced

    def _probe_max(self, key: str, measure):
        maxima = self.maxima

        def probe(args):
            value = measure(args)
            if value > maxima[key]:
                maxima[key] = value

        return probe

    def install(self) -> None:
        import numpy.linalg

        loaded = [m for n, m in sys.modules.items() if n == "pstwalk" or n.startswith("pstwalk.")]
        probes = {
            "chars.reduce": self._probe_max("chars.root_order.max", lambda a: a[0].n),
            "ctqw.scan": self._probe_max("ctqw.vertices.max", lambda a: len(a[0])),
        }
        for module_name, path, name in TARGETS:
            module = importlib.import_module(f"pstwalk.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, probes.get(name)))
                continue
            original = getattr(module, attr)
            if hasattr(original, "cache_info"):
                self._caches[f"{module_name}.{attr}"] = original
            traced = self._wrap(original, name, probes.get(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for attr, name in NUMPY_TARGETS:
            setattr(numpy.linalg, attr, self._wrap(getattr(numpy.linalg, attr), name))

    def record(self) -> dict:
        """Span names, maxima and cache misses; spans go to ``write_spans``."""
        misses = {key: fn.cache_info().misses for key, fn in self._caches.items()}
        return {
            "names": self.names,
            "maxima": self.maxima,
            "counts": {
                "chars.phi.builds": misses["chars.cyclotomic_polynomial"],
                "gf.tables.calls": misses["gf.make_field"] + misses["gf.make_tower"],
            },
        }

    def write_spans(self, path) -> None:
        """The raw span records, as native 64-bit integers."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
