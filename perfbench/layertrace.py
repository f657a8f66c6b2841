"""Per-layer spans and counters for orbitcharts, installed from outside.

`LayerTracer.install()` wraps the public functions of each layer module and
rebinds every `orbitcharts.*` module attribute (and module-level dict value)
that holds the original function object, since modules import each other's
functions by name (`from .linalg import char_poly`). A span stack gives each
call its parent, so a module's self time is its spans' time minus the time
of their child spans. `uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

LAYERS: Dict[str, tuple] = {
    "linalg": ("char_poly", "kernel_basis", "rank", "solve_linear", "det",
               "integer_roots", "squarefree_part", "is_semisimple_matrix"),
    "liealg": ("build_classical", "ad_matrix", "centralizer_basis", "center_basis",
               "subalgebra_from_coords", "trace_form_gram"),
    "jordan": ("jordan_decompose",),
    "sl2": ("jacobson_morozov",),
    "grading": ("grading_by", "parabolic_data", "semisimple_for_levi"),
    "charts": ("build_chart", "chart_nilpotent", "chart_semisimple", "chart_mixed",
               "eval_chart", "eval_chart_with_derivatives"),
    "verify": ("verify_chart", "redstab_suite", "invariants", "hamiltonian_class",
               "kostant_rep"),
    "cli": ("cmd_analyze", "cmd_chart", "cmd_verify", "cmd_classify"),
}


def _coeff_bits(poly) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.coefficients), default=0)


class LayerTracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.request_id = 0
        # (span id, parent span id or 0, request id, name, start ns, end ns,
        #  ns covered by child spans, whether no span of the same name encloses it)
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [span id, child ns]
        self._active: Counter = Counter()
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, module: str, name: str, fn, on_call=None, on_return=None):
        qual = f"{module}.{name}"
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            parent = stack[-1][0] if stack else 0
            frame = [len(spans) + 1, 0]
            spans.append(None)  # reserve the id; filled in when the span ends
            stack.append(frame)
            active[qual] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[qual] -= 1
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0] - 1] = (frame[0], parent, self.request_id, qual,
                                       start, end, frame[1], not active[qual])
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _char_poly_returned(self, poly):
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(poly))

    def _semisimple_check_called(self):
        if self._active["grading.semisimple_for_levi"]:
            self.counts["grading.witness_candidates"] += 1

    def _witness_returned(self, _z):
        self.counts["grading.witness_successes"] += 1

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "orbitcharts" or name.startswith("orbitcharts.")]
        hooks = {  # (on call, on return)
            "linalg.char_poly": (None, self._char_poly_returned),
            "linalg.is_semisimple_matrix": (self._semisimple_check_called, None),
            "grading.semisimple_for_levi": (None, self._witness_returned),
        }
        for module, names in LAYERS.items():
            home = sys.modules[f"orbitcharts.{module}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(module, name, fn,
                                     *hooks.get(f"{module}.{name}", (None, None)))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._set(value, k, wrapper)
        self._count_root_candidates(sys.modules["orbitcharts.linalg"].Polynomial)
        self._count_fraction_new()

    def _count_root_candidates(self, polynomial):
        """Count Polynomial evaluations made inside integer_roots."""
        call = polynomial.__dict__["__call__"]
        active, counts = self._active, self.counts

        @functools.wraps(call)
        def counted(*args, **kwargs):
            if active["linalg.integer_roots"]:
                counts["linalg.integer_roots.candidates"] += 1
            return call(*args, **kwargs)

        self._set(polynomial, "__call__", counted)

    def _count_fraction_new(self):
        new = Fraction.__dict__["__new__"].__func__
        stack, counts = self._stack, self.counts

        @functools.wraps(new)
        def counted_new(cls, *args, **kwargs):
            if stack:  # only constructions made inside the program's spans
                counts["linalg.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, in the order the spans started."""
        fields = ("id", "parent", "request", "name", "start_ns", "end_ns",
                  "child_ns", "outermost")
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def metrics(self, passes: int, scale: Dict[int, float]) -> Dict[str, float]:
        """Per-pass totals: calls and inclusive seconds per function, self
        seconds per module, and the counters. ``scale`` maps a request id to
        the factor that turns its measured seconds into reference seconds."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for _, _, request, qual, start, end, child_ns, outermost in self.spans:
            factor = scale[request] * 1e-9 / passes
            calls[qual] += 1
            if outermost:  # recursion counts once, at the outermost call
                inclusive[qual] += (end - start) * factor
            own[qual.split(".")[0]] += (end - start - child_ns) * factor
        out: Dict[str, float] = {}
        for module, names in LAYERS.items():
            for name in names:
                qual = f"{module}.{name}"
                out[f"{qual}.calls"] = calls[qual] / passes
                out[f"{qual}.s"] = inclusive[qual]
        for module in LAYERS:
            out[f"{module}.self_s"] = own[module]
        candidates = self.counts["grading.witness_candidates"]
        out["linalg.fraction_new"] = self.counts["linalg.fraction_new"] / passes
        out["linalg.char_poly.max_coeff_bits"] = self.max_coeff_bits
        out["linalg.integer_roots.candidates"] = \
            self.counts["linalg.integer_roots.candidates"] / passes
        out["grading.witness_candidates"] = candidates / passes
        out["grading.witness_success_ratio"] = (
            self.counts["grading.witness_successes"] / candidates if candidates else 0.0)
        return out
