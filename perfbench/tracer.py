"""Spans and counters for the traced benchmark run.

Tracing is done from outside the library: `Tracer.install()` replaces each
traced function with a timing wrapper in every ``gsp4hodge`` module
namespace (and class dictionary) that binds it.  ``kernel.py`` does
``from .linalg import rref``, so patching ``linalg.rref`` alone would miss
the kernel's calls; scanning every namespace for the same function object
catches them.  `Tracer.uninstall()` puts the originals back.

Spans are kept in memory, aggregated by name: calls, total time and self
time (a span's duration minus the time its child spans cover).  Nothing is
written until `dump()` at the end of the run.
"""

import importlib
import inspect
import json
import sys
import time

PACKAGE = "gsp4hodge"

# Span name -> (module, attribute), where the attribute is "func" or
# "Class.method".  Every binding of that object in the package is wrapped.
SPANS = {
    "scalars.poly_gcd": ("scalars", "poly_gcd"),
    "scalars.poly_divexact": ("scalars", "poly_divexact"),
    "scalars.parse_scalar": ("scalars", "parse_scalar"),
    "scalars.scalar_str": ("scalars", "scalar_str"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.inverse": ("linalg", "inverse"),
    "linalg.mat_mul": ("linalg", "mat_mul"),
    "linalg.intersect_row_spaces": ("linalg", "intersect_row_spaces"),
    "symplectic.subspace_intersect": ("symplectic", "Subspace.intersect"),
    "symplectic.gsp4_coordinates": ("symplectic", "gsp4_coordinates"),
    "phimodule.validate": ("phimodule", "validate"),
    "phimodule.standard_filtration": ("phimodule", "standard_filtration"),
    "kernel.eigenline_grid": ("kernel", "eigenline_grid"),
    "kernel.nu_operator": ("kernel", "nu_operator"),
    "kernel.jbar_matrix": ("kernel", "jbar_matrix"),
    "kernel.kernel_basis": ("kernel", "kernel_basis"),
    "kernel.jbar_rank": ("kernel", "jbar_rank"),
    "kernel.recover_parameters": ("kernel", "recover_parameters"),
    "kernel.matrix_suite": ("kernel", "matrix_suite"),
    "kernel.glue_subspace": ("kernel", "glue_subspace"),
    "extledger.check_ledger": ("extledger", "check_ledger"),
    "extledger.hom_space": ("extledger", "hom_space"),
}

# RatFunc + - * / (including the reflected forms) share one span name.
RATFUNC_ARITH = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__")

# Modules whose public functions are all traced under the module's name.
WHOLE_MODULES = ("weyl", "hecke")


class Tracer:
    def __init__(self):
        # name -> [calls, total_ns, self_ns]
        self.stats = {}
        # extra counters: poly_gcd results that are 1, rref cells, Poly2 builds
        self.counts = {"poly_gcd_trivial": 0, "rref_cells": 0, "poly2_new": 0}
        # child time accumulated for each open span; the bottom entry is a
        # sentinel for time outside any span
        self._stack = [0]
        self._patches = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """`fn` timed as a span called `name`; `after(args, result)` may
        update the extra counters."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapped):
        """Rebind `original` to `wrapped` in every package module namespace
        and in every class dictionary defined in the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for ckey, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patch(value, ckey, wrapped)

    def install(self):
        counts = self.counts

        def gcd_after(args, result):
            if result.is_const():
                counts["poly_gcd_trivial"] += 1

        def rref_after(args, result):
            rows = args[0]
            counts["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

        after = {"scalars.poly_gcd": gcd_after, "linalg.rref": rref_after}
        for name, (mod_name, attr) in SPANS.items():
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[attr.split(".")[-1]]
            self._replace_everywhere(original, self.wrap(name, original, after.get(name)))

        scalars = importlib.import_module(f"{PACKAGE}.scalars")
        for attr in RATFUNC_ARITH:
            original = vars(scalars.RatFunc)[attr]
            self._replace_everywhere(original, self.wrap("scalars.ratfunc_arith", original))

        # Poly2 construction is counted, not timed: it is too fine-grained
        # for a span to be worth its overhead.
        poly2_init = scalars.Poly2.__init__

        def counted_init(obj, *args, **kwargs):
            counts["poly2_new"] += 1
            poly2_init(obj, *args, **kwargs)

        self._patch(scalars.Poly2, "__init__", counted_init)

        for mod_name in WHOLE_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for key, value in list(vars(mod).items()):
                if (
                    not key.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    self._replace_everywhere(value, self.wrap(mod_name, value))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of everything recorded so far."""
        return {
            "spans": {name: list(v) for name, v in self.stats.items()},
            "counts": dict(self.counts),
        }


def merge(into, snap):
    """Add one `Tracer.snapshot()` into an accumulated one."""
    spans = into.setdefault("spans", {})
    for name, (calls, total, self_ns) in snap["spans"].items():
        acc = spans.setdefault(name, [0, 0, 0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_ns
    counts = into.setdefault("counts", {})
    for key, value in snap["counts"].items():
        counts[key] = counts.get(key, 0) + value
    return into


def dump(path, snap, extra):
    """Write the aggregated spans of a run as JSON."""
    doc = dict(extra)
    doc["spans"] = {
        name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
        for name, (c, t, s) in sorted(snap.get("spans", {}).items())
    }
    doc["counts"] = snap.get("counts", {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
