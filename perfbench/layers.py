"""Per-layer tracing from outside the program.

Wraps the public dtflat functions that mark a layer boundary and counts,
for each, its calls, its inclusive time (outermost activations only, so
recursion is not counted twice) and its self time (minus the time of the
traced calls made inside it).  A module that did ``from .x import f``
holds its own reference to ``f``; ``install`` rebinds every such
reference in the namespaces of the dtflat modules and classes.
``unwrapped_references`` is the self-test: it also looks where a rebinding
cannot reach (containers, default arguments, closures), since a missed
reference silently lowers the counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _subs_terms(result) -> int:
    return len(result.num.terms) + len(result.den.terms)


# (module, attribute path, metric name, size measure of the return value)
TARGETS = (
    ("exprs", "Scalar.subs", "exprs.Scalar.subs", _subs_terms),
    ("exprs", "poly_gcd", "exprs.poly_gcd", None),
    ("geometry", "rref", "geometry.rref", None),
    ("geometry", "invariant_closure", "geometry.invariant_closure", None),
    ("systems", "DiscreteSystem.__init__", "systems.DiscreteSystem", None),
    ("systems", "AdaptedChart.to_adapted", "systems.AdaptedChart.to_adapted", None),
    ("systems", "AdaptedChart.from_adapted", "systems.AdaptedChart.from_adapted", None),
    ("systems", "build_adapted_chart", "systems.build_adapted_chart", None),
    ("systems", "triangular_solve", "systems.triangular_solve", None),
    ("flatness", "distribution_step", "flatness.distribution_step", None),
    ("flatness", "codistribution_step", "flatness.codistribution_step", None),
    ("flatness", "verify_duality", "flatness.verify_duality", None),
    ("decompose", "decompose_step", "decompose.decompose_step", None),
    ("decompose", "find_first_integrals", "decompose.find_first_integrals", None),
    ("reporting", "render_text", "reporting.render_text", None),
    ("reporting", "render_json", "reporting.render_json", None),
    ("cli", "parse_system", "cli.parse_system", None),
)

NAMES = tuple(t[2] for t in TARGETS)
SIZED = tuple(t[2] for t in TARGETS if t[3] is not None)


class Tracer:
    """Counters of one job; ``reset`` starts the next job."""

    def __init__(self):
        self.reset()

    def reset(self):
        # name -> [calls, inclusive s, self s, max size]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (parent name or "", name) -> inclusive s, for spans at depth <= 1
        self.by_parent = defaultdict(float)
        self.stack = []         # [name, time spent in traced children]
        self.active = defaultdict(int)

    def wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [name, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.active[name] -= 1
                st = tracer.stats[name]
                st[0] += 1
                st[2] += dt - frame[1]
                if not tracer.active[name]:
                    st[1] += dt
                if stack:
                    stack[-1][1] += dt
                if len(stack) <= 1:
                    tracer.by_parent[stack[-1][0] if stack else "", name] += dt
            if measure is not None:
                st[3] = max(st[3], measure(result))
            return result

        traced.traced_by_perfbench = True
        return traced


def _dtflat_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dtflat" or n.startswith("dtflat."))]


def _owners(modules):
    """Every namespace that can hold a function reference: the modules and
    the classes they define."""
    for mod in modules:
        yield mod.__dict__, mod
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                yield value.__dict__, value


def install(tracer: Tracer) -> dict:
    """Wrap every target in the loaded dtflat package; returns the
    originals by metric name."""
    modules = _dtflat_modules()
    originals = {}
    for modname, attr, name, measure in TARGETS:
        owner = sys.modules[f"dtflat.{modname}"]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = owner.__dict__[last]
        originals[name] = fn
        wrapped = tracer.wrap(name, fn, measure)
        for namespace, holder in _owners(modules):
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(holder, key, wrapped)
    return originals


def _held(value):
    """The value and what it holds on to: the items of a container, the
    defaults and closure cells of a function (other than a wrapper)."""
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif inspect.isfunction(value) and not hasattr(value, "traced_by_perfbench"):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()
        for cell in value.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # an empty cell
                pass


def unwrapped_references(originals: dict) -> list:
    """Where an original, unwrapped target is still reachable from a dtflat
    module or class; empty when the rebinding is complete."""
    by_id = {id(fn): name for name, fn in originals.items()}
    missed = []
    for namespace, holder in _owners(_dtflat_modules()):
        owner = getattr(holder, "__qualname__", holder.__name__)
        for key, value in list(namespace.items()):
            for held in _held(value):
                if id(held) in by_id:
                    missed.append(f"{owner}.{key} ({by_id[id(held)]})")
    return missed
