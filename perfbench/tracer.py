"""Outside-in span tracer for the hankelbody layers.

Spans are recorded without editing the package: every public function of a
layer module is replaced, in every hankelbody namespace that binds it, by a
wrapper that times the call.  Callers look functions up in their own module
globals at call time, so the rebinding catches intra-module calls too.
``scipy.optimize.minimize`` as seen by ``search`` becomes the span
``search.refine``.

Closures returned by ``disk.blaschke_psi`` and ``coeffbody.phi_evaluator``,
private helpers (leading underscore) and class methods are not wrapped: their
time counts toward the self time of the span that called them.

Spans are aggregated in memory per name (calls, total time, time covered by
child spans) rather than stored one by one, which keeps the per-call cost to
two clock reads and a list push/pop.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "search", "kernels", "oracle", "coeffbody", "hankel", "disk", "series")

# bytes touched per evaluation, from the array dtypes: phi_batch reads three
# complex128 inputs and writes a complex128; phi_sigma2_max reads two and
# writes a float64
PHI_BATCH_BYTES = 4 * 16
PHI_SIGMA2_MAX_BYTES = 2 * 16 + 8

# a Nelder-Mead run "reached" the reported maximum within this relative gap
USEFUL_REL_TOL = 1e-9


class Tracer:
    """Installs timing wrappers into the hankelbody modules and aggregates spans."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []
        self._refine_vals: list[float] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += child
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hooks(self, name):
        """Counters recorded at a span boundary, keyed by span name."""
        if name == "kernels.phi_batch":
            def before(args):
                n = len(args[1])
                self._count("kernels.phi_batch.evals", n)
                self._count("kernels.computed_bytes", n * PHI_BATCH_BYTES)
            return before, None
        if name == "kernels.phi_sigma2_max":
            def before(args):
                n = len(args[1])
                self._count("kernels.phi_sigma2_max.evals", n)
                self._count("kernels.computed_bytes", n * PHI_SIGMA2_MAX_BYTES)
            return before, None
        if name == "oracle.a_batch_from_w":
            return (lambda args: self._count("oracle.a_batch_from_w.rows", len(args[1]))), None
        if name == "search.refine":
            def after(args, res):
                self._count("search.refine.nfev", int(res.nfev))
                self._refine_vals.append(-float(res.fun))
            return None, after
        if name == "search.estimate_M":
            def before(args):
                self._refine_vals.clear()

            def after(args, report):
                P = report.p + 1.0 / report.p
                best = report.m_estimate * 18.0 * P**3
                useful = sum(v >= best * (1.0 - USEFUL_REL_TOL) for v in self._refine_vals)
                self._count("search.refine.useful", useful)
                self._count("search.refine.runs", len(self._refine_vals))
                self._refine_vals.clear()
            return before, after
        return None, None

    # --- installation ------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"hankelbody.{name}") for name in LAYERS}
        targets = []  # (original function, span name)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    if layer == "cli" and attr != "main":
                        continue  # the CLI is one span: argv in, bytes out
                    targets.append((obj, f"{layer}.{attr}"))
        targets.append((mods["search"].minimize, "search.refine"))
        for fn, name in targets:
            wrapped = self._wrap(name, fn, *self._hooks(name))
            for mod in mods.values():
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapped)

    # --- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}


def layer_metrics(snapshot: dict) -> dict:
    """Per-layer metrics from a tracer snapshot (values only, no units)."""
    spans = snapshot["spans"]
    counters = snapshot["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        _, total, child = spans.get(name, [0, 0.0, 0.0])
        return total - child

    out = {}
    for layer in LAYERS:
        names = [n for n in spans if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(calls(n) for n in names)
        out[f"{layer}.self_s"] = sum(self_s(n) for n in names)
    out["search.estimate_M.calls"] = calls("search.estimate_M")
    out["search.refine.calls"] = calls("search.refine")
    out["search.refine.self_s"] = self_s("search.refine")
    out["search.refine.nfev"] = counters.get("search.refine.nfev", 0)
    runs = counters.get("search.refine.runs", 0)
    out["search.refine.useful_frac"] = counters.get("search.refine.useful", 0) / runs if runs else 0.0
    for k in ("phi_batch", "phi_sigma2_max"):
        out[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        out[f"kernels.{k}.evals"] = counters.get(f"kernels.{k}.evals", 0)
        out[f"kernels.{k}.self_s"] = self_s(f"kernels.{k}")
    pb_calls = out["kernels.phi_batch.calls"]
    out["kernels.phi_batch.evals_per_call"] = (
        out["kernels.phi_batch.evals"] / pb_calls if pb_calls else 0.0)
    out["kernels.computed_bytes"] = counters.get("kernels.computed_bytes", 0)
    out["oracle.a_batch_from_w.rows"] = counters.get("oracle.a_batch_from_w.rows", 0)
    out["oracle.a_batch_from_w.self_s"] = self_s("oracle.a_batch_from_w")
    for name in ("coeffbody.c_from_w", "coeffbody.c_from_sigma", "coeffbody.membership_x2",
                 "series.taylor_from_samples", "disk.mobius_T"):
        out[f"{name}.calls"] = calls(name)
    return out
