"""Per-layer spans around pellrat's public functions, installed from outside.

The package carries no tracing code.  `install` replaces every binding of
each listed function in every loaded `pellrat` module with a wrapper that
opens a span, so a name imported by another module (`cli` and `invariants`
import from `quadfield`, `classno` imports `unit_norm_sign`) is traced too.
Each span knows its parent, so a layer's self time is its spans' length
minus the time of their child spans.  Hot helpers inside a layer
(`rho_reduce`, `qi_norm`, `embed`) stay unwrapped: their time is their
caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

from pellrat import classno, cli
from pellrat.errors import DiscriminantTooLarge

# the functions each layer offers to the layers above it
LAYERS = {
    "cli": ("entrypoint", "cmd_scan", "cmd_gseq", "compute_record"),
    "invariants": ("build_report", "n2_of", "n1_certificate", "coates_ledger",
                   "epsilon_congruence_check"),
    "classno": ("class_number", "narrow_class_number", "reduced_forms"),
    "quadfield": ("construct_family", "fundamental_unit", "unit_norm_sign",
                  "unit_index", "m_bound", "m_bound_satisfied"),
    "padic": ("family_embedding", "split_embedding", "raise_precision",
              "hensel_sqrt", "congruence_order", "unit_congruence_order",
              "pvaluation", "power_is_one_mod"),
    "intkit": ("factor", "divisors_of", "squarefree_decompose", "is_prime",
               "jacobi", "valuation", "is_wieferich"),
    "pellseq": ("prime_power_search", "g_sequence", "pell_pair"),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("classno.self_s", "s", "lower"),
    ("classno.class_number.s", "s", "lower"),
    ("classno.reduced_forms.s", "s", "lower"),
    ("classno.forms", "count", "lower"),
    ("classno.ceiling_skips", "count", "lower"),
    ("intkit.factor.in_classno.calls", "count", "lower"),
    ("quadfield.m_bound.calls", "count", "lower"),
    ("quadfield.m_bound.s", "s", "lower"),
    ("quadfield.fundamental_unit.calls", "count", "lower"),
    ("quadfield.fundamental_unit.s", "s", "lower"),
    ("quadfield.construct_family.s", "s", "lower"),
    ("invariants.self_s", "s", "lower"),
    ("invariants.build_report.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.compute_record.calls", "count", "lower"),
    ("cli.cache.hits", "count", "higher"),
    ("cli.cache.misses", "count", "lower"),
    ("intkit.self_s", "s", "lower"),
    ("intkit.factor.calls", "count", "lower"),
    ("intkit.factor.s", "s", "lower"),
    ("padic.self_s", "s", "lower"),
    ("padic.embedding.calls", "count", "lower"),
    ("padic.precision_k_max", "digits", "lower"),
    ("pellseq.self_s", "s", "lower"),
    ("pellseq.prime_power_search.s", "s", "lower"),
)


class Tracer:
    """Spans folded into per-layer totals as they close; `reset` starts a pass."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [layer, time of children]
        self._open: Counter = Counter()  # name -> open spans of that name
        self.reset()

    def reset(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # name -> calls
        self.callers: Counter = Counter()  # (name, layer of the parent span) -> calls
        self.counts: Counter = Counter()
        self.k_max = 0

    def wrap(self, layer: str, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, args, kwargs, result, exc)`` sees each call."""
        stack, is_open = self._stack, self._open

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            is_open[name] += 1
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                is_open[name] -= 1
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if not is_open[name]:  # a recursive call is inside the outer one
                    self.total_s[name] += dt
                self.calls[name] += 1
                self.callers[name, parent] += 1
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric for the spans since the last reset."""
        return {
            "classno.self_s": self.self_s["classno"],
            "classno.class_number.s": self.total_s["classno.class_number"],
            "classno.reduced_forms.s": self.total_s["classno.reduced_forms"],
            "classno.forms": self.counts["forms"],
            "classno.ceiling_skips": self.counts["ceiling_skips"],
            "intkit.factor.in_classno.calls": self.callers["intkit.factor", "classno"],
            "quadfield.m_bound.calls": self.calls["quadfield.m_bound"],
            "quadfield.m_bound.s": self.total_s["quadfield.m_bound"],
            "quadfield.fundamental_unit.calls": self.calls["quadfield.fundamental_unit"],
            "quadfield.fundamental_unit.s": self.total_s["quadfield.fundamental_unit"],
            "quadfield.construct_family.s": self.total_s["quadfield.construct_family"],
            "invariants.self_s": self.self_s["invariants"],
            "invariants.build_report.s": self.total_s["invariants.build_report"],
            "cli.self_s": self.self_s["cli"],
            "cli.compute_record.calls": self.calls["cli.compute_record"],
            "cli.cache.hits": self.counts["cache_hits"],
            "cli.cache.misses": self.counts["cache_misses"],
            "intkit.self_s": self.self_s["intkit"],
            "intkit.factor.calls": self.calls["intkit.factor"],
            "intkit.factor.s": self.total_s["intkit.factor"],
            "padic.self_s": self.self_s["padic"],
            "padic.embedding.calls": (self.calls["padic.family_embedding"]
                                      + self.calls["padic.split_embedding"]),
            "padic.precision_k_max": self.k_max,
            "pellseq.self_s": self.self_s["pellseq"],
            "pellseq.prime_power_search.s": self.total_s["pellseq.prime_power_search"],
        }


def _count_forms(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["forms"] += len(result)


_CLASS_NUMBER_ARGS = inspect.signature(classno.class_number)


def _count_ceiling_skip(tracer, args, kwargs, result, exc):
    if isinstance(exc, DiscriminantTooLarge):
        bound = _CLASS_NUMBER_ARGS.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["field"].disc > bound.arguments["ceiling"]:
            tracer.counts["ceiling_skips"] += 1


def _note_precision(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.k_max = max(tracer.k_max, result.k)


def _count_cache(tracer, args, kwargs, result, exc):
    tracer.counts["cache_misses" if result is None else "cache_hits"] += 1


HOOKS = {
    "classno.reduced_forms": _count_forms,
    "classno.class_number": _count_ceiling_skip,
    "padic.family_embedding": _note_precision,
    "padic.split_embedding": _note_precision,
    "padic.raise_precision": _note_precision,
}


def install(tracer: Tracer):
    """Wrap every LAYERS function wherever a pellrat module binds it.

    Returns a function that puts the original bindings back.
    """
    modules = [mod for name, mod in sys.modules.items()
               if name == "pellrat" or name.startswith("pellrat.")]
    undo = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"pellrat.{layer}"]
        for short in names:
            fn = getattr(home, short)
            name = f"{layer}.{short}"
            traced = tracer.wrap(layer, name, fn, HOOKS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, fn))
                        setattr(mod, attr, traced)
    get = cli.FactorCache.get
    cli.FactorCache.get = tracer.wrap("cli", "cli.FactorCache.get", get, _count_cache)
    undo.append((cli.FactorCache, "get", get))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall
