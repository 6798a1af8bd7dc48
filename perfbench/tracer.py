"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span: calls, and self time, which is the span's duration minus
the time covered by the wrapped spans it caused.  A module-level function is
rebound under every name any heckelink module holds it by (``canonicalize``
lives in both ``coefficients`` and ``trace``, ``fold_letter`` in both
``hecke`` and ``oracles``), so calls inside the library are traced too.
Methods are replaced on their class.  ``uninstall`` restores the originals.

Spans are kept as running totals in memory; nothing is written until the
caller reads ``metrics``.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "heckelink"

# label -> (module, class or None, attribute)
SPANS = {
    "braid.reduced_word": ("braid", "Permutation", "reduced_word"),
    "coefficients.canonicalize": ("coefficients", None, "canonicalize"),
    "coefficients.poly_gcd": ("coefficients", None, "poly_gcd"),
    "coefficients.poly_divexact": ("coefficients", None, "poly_divexact"),
    "coefficients.specialize": ("coefficients", None, "specialize"),
    "hecke.from_braid_word": ("hecke", None, "from_braid_word"),
    "hecke.fold_letter": ("hecke", None, "fold_letter"),
    "hecke.mul": ("hecke", "HeckeElement", "__mul__"),
    "hecke.left_multiply_generator": ("hecke", None, "left_multiply_generator"),
    "trace.markov_trace": ("trace", None, "markov_trace"),
    "trace.decompose_closure": ("trace", None, "decompose_closure"),
    "invariants.homflypt": ("invariants", None, "homflypt"),
    "invariants.jones": ("invariants", None, "jones"),
    "linalg.insert": ("linalg", "EchelonBasis", "insert"),
    "linalg.reduce": ("linalg", "EchelonBasis", "reduce"),
    "linalg.coordinates": ("linalg", "EchelonBasis", "coordinates"),
    "linalg.determinant": ("linalg", None, "determinant"),
    "linalg.matrix_rank": ("linalg", None, "matrix_rank"),
    "linalg.kernel_basis": ("linalg", None, "kernel_basis"),
    "linalg.solve_linear": ("linalg", None, "solve_linear"),
    "specht.specht_module": ("specht", None, "specht_module"),
    "specht.ideal_I": ("specht", None, "ideal_I"),
    "specht.character": ("specht", "SpechtModule", "character"),
    "specht.gram_rank": ("specht", "SpechtModule", "gram_rank"),
    "specht.gram_determinant": ("specht", "SpechtModule", "gram_determinant"),
    "oracles.exhaustive_word_closure": ("oracles", None, "exhaustive_word_closure"),
}

# Counted but not timed: one call per Gram entry, too cheap for a span.
COUNTS = {"hecke.star": ("hecke", "HeckeElement", "star")}

# Parent spans by which the self time of the Hecke product is broken down.
MUL_PARENTS = ("specht.specht_module", "specht.ideal_I", "trace.markov_trace")

COUNTERS = (
    "hecke.letters_folded",
    "hecke.peak_support",
    "trace.terms_traced",
    "linalg.insert.grew",
    "oracles.rewrites_checked",
)


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        # Each frame is [time covered by child spans, label]; the root frame
        # collects the time covered by top-level spans.
        self.stack: list[list] = [[0.0, None]]
        self.calls = {label: 0 for label in (*SPANS, *COUNTS)}
        self.self_s = {label: 0.0 for label in SPANS}
        self.mul_self_by_parent = {parent: 0.0 for parent in MUL_PARENTS}
        self.counters = {name: 0 for name in COUNTERS}

    # -- hooks run after a span closes, with its arguments and result -------------

    def _after(self, label, args, result, parent):
        c = self.counters
        if label == "braid.reduced_word":
            if parent == "hecke.mul":
                c["hecke.letters_folded"] += len(result)
        elif label == "hecke.fold_letter":
            c["hecke.letters_folded"] += 1
            if len(result) > c["hecke.peak_support"]:
                c["hecke.peak_support"] = len(result)
        elif label in ("hecke.mul", "hecke.from_braid_word", "hecke.left_multiply_generator"):
            if len(result.terms) > c["hecke.peak_support"]:
                c["hecke.peak_support"] = len(result.terms)
        elif label == "trace.markov_trace":
            c["trace.terms_traced"] += len(args[0].terms)
        elif label == "linalg.insert":
            c["linalg.insert.grew"] += result is not None
        elif label == "oracles.exhaustive_word_closure":
            c["oracles.rewrites_checked"] += result["checked"]

    def _span(self, label, fn):
        stack = self.stack
        calls, self_s, by_parent = self.calls, self.self_s, self.mul_self_by_parent
        after = self._after
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0, label]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += duration
                own = duration - frame[0]
                calls[label] += 1
                self_s[label] += own
                if label == "hecke.mul" and parent[1] in by_parent:
                    by_parent[parent[1]] += own
            after(label, args, result, parent[1])
            return result

        return span

    def _count(self, label, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for label, (module, cls, attr) in table.items():
                owner = sys.modules.get(f"{PACKAGE}.{module}")
                if cls is not None:
                    owner = getattr(owner, cls, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue  # renamed or removed: the metric reads zero
                wrapped = make(label, original)
                if cls is not None:
                    self._rebind(owner, attr, original, wrapped)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, name, original, wrapped)

    def _rebind(self, owner, name, original, wrapped) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Time covered by top-level spans: the sum of every span's self time."""
        return self.stack[0][0]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label in SPANS:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_s[label]
        for label in COUNTS:
            out[f"{label}.calls"] = self.calls[label]
        for parent in MUL_PARENTS:
            short = parent.split(".", 1)[1]
            out[f"hecke.mul.in_{short}.self_s"] = self.mul_self_by_parent[parent]
        out.update(self.counters)
        inserts = self.calls["linalg.insert"]
        out["linalg.insert.useful_ratio"] = (
            self.counters["linalg.insert.grew"] / inserts if inserts else 0.0
        )
        return out
