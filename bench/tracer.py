"""Span tracer for the benchmark's traced run.

The tracer replaces each listed public todamass function, in every
todamass namespace that binds it, with a wrapper that records a span
(name, start, end, parent, op id) while an op is running.  Parents come
from a per-thread stack; a span opened on a worker thread whose stack is
empty nests under the innermost open span of the thread running the op,
which is where `enumerate_orbit --workers` submits its chunks.  Self time
is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# module -> public functions (or Class.method) the benchmark traces
TRACED = {
    "cli": ("run",),
    "algebra": ("MassVector.canonical_key", "MassVector.from_json",
                "MassVector.evaluate", "MassVector.to_json"),
    "cartan": ("build", "inverse_submatrix"),
    "action": ("apply_generator", "apply_word", "pohozaev_residual",
               "verify_relation"),
    "chains": ("chain_word_a", "chain_word_ct", "closed_form_a",
               "closed_form_ct", "blowup_step"),
    "orbit": ("enumerate_orbit", "export_graph", "descend_to_zero",
              "gamma_n_test", "coefficient_matrix"),
    "perms": ("fold_ct_to_a", "rotate_vector", "sigma_f_ct", "finite_a_mass"),
}
EXPORT_FORMATS = ("json", "dot", "csv")
MARK = "__bench_traced__"


def _export_format(args, kwargs):
    return kwargs.get("fmt", args[1] if len(args) > 1 else "?")


# span-name suffixes and per-span counts taken from arguments or results
SUFFIX = {"orbit.export_graph": _export_format}
COUNT = {"orbit.enumerate_orbit": len,
         "orbit.descend_to_zero": lambda report: report.steps}


def span_names() -> list[str]:
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            name = "%s.%s" % (module, func)
            if name in SUFFIX:
                names.extend("%s.%s" % (name, f) for f in EXPORT_FORMATS)
            else:
                names.append(name)
    return names


DERIVED = {
    "orbit.nodes": "count",
    "orbit.children": "count",
    "orbit.new_ratio": "ratio",
    "orbit.export_graph.dot.replay_s": "s",
    "orbit.descend.steps": "count",
    "orbit.descend.children": "count",
    "orbit.descend.step_ratio": "ratio",
    "algebra.canonical_key.per_node": "ratio",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(DERIVED)
    return units


def _todamass_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "todamass"
                                  or name.startswith("todamass."))]


def find_wrapped() -> list[str]:
    """Names of todamass attributes that are still tracer wrappers."""
    found = []
    for mod in _todamass_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append("%s.%s" % (mod.__name__, name))
            if isinstance(value, type) and value.__module__.startswith("todamass"):
                for attr, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", raw), MARK, False):
                        found.append("%s.%s.%s" % (mod.__name__, name, attr))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = None
        self._local = threading.local()
        self._op_stack: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = _todamass_modules()
        for module, funcs in TRACED.items():
            home = sys.modules["todamass." + module]
            for func in funcs:
                name = "%s.%s" % (module, func)
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patch(cls, meth, new)
                    continue
                orig = getattr(home, func)
                new = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, new)

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        suffix = SUFFIX.get(name)
        count = COUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            label = "%s.%s" % (name, suffix(args, kwargs)) if suffix else name
            rec = [label, 0.0, 0.0, parent, tracer.op, 0]
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if count is not None:
                rec[5] = count(result)
            return result

        setattr(traced, MARK, True)
        return traced

    # -- recording ----------------------------------------------------------

    def begin(self, op_id) -> None:
        self.op = op_id
        self._op_stack = self._stack()
        self.active = True

    def end(self) -> None:
        self.active = False
        self.op = None

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        children: dict[int, list] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)

        def ancestor(rec, prefix):
            p = rec[3]
            while p is not None:
                if p[0].startswith(prefix):
                    return p
                p = p[3]
            return None

        out = {name: 0 if name.endswith(".calls") else 0.0
               for name in metric_units()}
        nodes = steps = orbit_children = descend_children = 0
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            covered, reach = 0.0, start
            for lo, hi in sorted((c[1], c[2]) for c in children.get(id(rec), ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            if name + ".calls" in out:
                out[name + ".calls"] += 1
                out[name + ".self_s"] += (end - start) - covered
            if name == "orbit.enumerate_orbit":
                nodes += rec[5]
            elif name == "orbit.descend_to_zero":
                steps += rec[5]
            elif name == "action.apply_generator":
                if ancestor(rec, "orbit.enumerate_orbit"):
                    orbit_children += 1
                if ancestor(rec, "orbit.descend_to_zero"):
                    descend_children += 1
            if (name.startswith("action.")
                    and not (rec[3] and rec[3][0].startswith("action."))
                    and ancestor(rec, "orbit.export_graph.dot")):
                out["orbit.export_graph.dot.replay_s"] += end - start
        keys = out["algebra.MassVector.canonical_key.calls"]
        out.update({
            "orbit.nodes": nodes,
            "orbit.children": orbit_children,
            "orbit.new_ratio": nodes / orbit_children if orbit_children else 0.0,
            "orbit.descend.steps": steps,
            "orbit.descend.children": descend_children,
            "orbit.descend.step_ratio":
                steps / descend_children if descend_children else 0.0,
            "algebra.canonical_key.per_node": keys / nodes if nodes else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        })
        return out
