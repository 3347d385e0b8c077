"""Per-layer tracing of nccanon from outside the library.

``Tracer.install()`` wraps the public functions and methods of the six
layer modules (``exactalg``, ``monideal``, ``logres``, ``conecalc``,
``geomcheck``, ``cli``) and rebinds every name that refers to them: the
defining module, each module of the package that re-imports the name, and
the class dictionaries.  ``Tracer.restore()`` puts the originals back.

A span is opened when a call crosses from one layer into another (a call
from a layer into itself only counts).  A layer's self time is the summed
duration of its spans minus the time covered by their child spans.  Spans
nest, because the program is single threaded, so the covered time is the sum
of the children's durations and is accumulated as spans close; no span list
is kept, which keeps memory flat on runs with millions of boundary calls.

Besides the per-function call counts, three probes record the share of
useful work: how many candidates ``minimalize`` keeps, how often
``gluing_ideal`` is asked for a weight it already computed, and how often
``partner_sections`` finds partners.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from functools import wraps

PACKAGE = "nccanon"
LAYERS = ("exactalg", "monideal", "logres", "conecalc", "geomcheck", "cli")

# Dunder methods that do the layer's work; other dunders (repr, setattr
# guard rails) are left alone.
_WORK_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__neg__", "__pow__", "__eq__", "__hash__", "__str__",
})

# Functions whose inclusive time is reported on its own, by metric name.
INCLUSIVE = {
    "monideal.rees_report": "monideal.rees_report_s",
    "monideal.brute_force_new_generators": "monideal.oracle_s",
    "logres.gluing_ideal": "logres.gluing_ideal_s",
    "conecalc.pole_bound_s2": "conecalc.pole_bound_s2_s",
    "conecalc.glued_pole_bound": "conecalc.glued_pole_bound_s",
    "cli.Report.render_structured": "cli.render_s",
    "cli.Report.render_table": "cli.render_s",
}

# Call counters reported by metric name: metric -> traced function keys.
COUNTERS = {
    "exactalg.construct.calls": ("exactalg.LaurentPolynomial.__init__",),
    "exactalg.mul.calls": ("exactalg.LaurentPolynomial.__mul__",),
    "exactalg.restrict_var.calls": ("exactalg.LaurentPolynomial.restrict_var",),
    "exactalg.substitute_monomials.calls": (
        "exactalg.LaurentPolynomial.substitute_monomials",
    ),
    "exactalg.divides.calls": ("exactalg.divides",),
    "monideal.minimalize.calls": ("monideal.minimalize",),
    "monideal.member.calls": ("monideal.MonomialIdeal.member",),
    "logres.gluing_ideal.calls": ("logres.gluing_ideal",),
    "logres.partner_sections.calls": ("logres.partner_sections",),
    "logres.glues.calls": ("logres.glues",),
    "conecalc.restrict_cone.calls": ("conecalc.restrict_cone",),
    "conecalc.restrict_cone_log_frame.calls": ("conecalc.restrict_cone_log_frame",),
    "conecalc.to_chart.calls": ("conecalc.to_chart",),
}


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Counts calls and accumulates per-layer self time while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, list[int]] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        # probe tallies
        self.minimalize_in = 0
        self.minimalize_kept = 0
        self.gluing_weights: set[int] = set()
        self.gluing_repeats = 0
        self.partner_hits = 0
        # each frame: [layer, start, time covered by child spans]
        self._stack: list[list] = [[None, 0.0, 0.0]]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, key: str, fn):
        """A counting, span-recording stand-in for ``fn`` in ``layer``."""
        cell = self.calls.setdefault(key, [0])
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        inclusive = INCLUSIVE.get(key)
        if inclusive is not None:
            self.inclusive_s.setdefault(inclusive, 0.0)
        inclusive_s = self.inclusive_s

        @wraps(fn)
        def traced(*args, **kwargs):
            cell[0] += 1
            if stack[-1][0] == layer and inclusive is None:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[layer] += duration - frame[2]
                stack[-1][2] += duration
                if inclusive is not None:
                    inclusive_s[inclusive] += duration

        return traced

    def _probe(self, key: str, fn):
        """Wrap ``fn`` so that it feeds the ratio probes; others pass through."""
        if key == "monideal.minimalize":
            @wraps(fn)
            def minimalize(generators, *args, **kwargs):
                candidates = list(generators)
                kept = fn(candidates, *args, **kwargs)
                self.minimalize_in += len(candidates)
                self.minimalize_kept += len(kept)
                return kept
            return minimalize
        if key == "logres.gluing_ideal":
            @wraps(fn)
            def gluing_ideal(m, *args, **kwargs):
                if m in self.gluing_weights:
                    self.gluing_repeats += 1
                self.gluing_weights.add(m)
                return fn(m, *args, **kwargs)
            return gluing_ideal
        if key == "logres.partner_sections":
            @wraps(fn)
            def partner_sections(*args, **kwargs):
                found = fn(*args, **kwargs)
                self.partner_hits += found is not None
                return found
            return partner_sections
        return fn

    def _set(self, owner, name: str, value) -> None:
        # inspect.getattr_static reads class dicts without invoking descriptors
        self._patched.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer and rebind every name that refers to a wrapped function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}  # id(original function) -> traced version
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = self.wrap(layer, key, self._probe(key, obj))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(module, name, replaced[id(obj)])

    def _install_class(self, layer: str, cls) -> None:
        done: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share a wrapper
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _WORK_DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            if id(fn) not in done:
                key = f"{layer}.{cls.__qualname__}.{fn.__name__}"
                done[id(fn)] = self.wrap(layer, key, fn)
            traced = done[id(fn)]
            self._set(cls, name, rewrap(traced) if rewrap else traced)

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def count(self, key: str) -> int:
        return self.calls.get(key, [0])[0]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced call, by metric name."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for name in sorted(set(INCLUSIVE.values())):
            out[name] = self.inclusive_s.get(name, 0.0)
        for name, keys in COUNTERS.items():
            out[name] = sum(self.count(k) for k in keys)
        out["monideal.minimalize.kept_ratio"] = _ratio(
            self.minimalize_kept, self.minimalize_in
        )
        out["logres.gluing_ideal.repeat_ratio"] = _ratio(
            self.gluing_repeats, self.count("logres.gluing_ideal")
        )
        out["logres.partner_sections.hit_ratio"] = _ratio(
            self.partner_hits, self.count("logres.partner_sections")
        )
        return out
