"""Outside-in tracer for the mixedmult layers.

The package binds functions across modules with ``from .x import f``, so a
wrapper installed on one module alone would miss most calls.  ``install``
therefore rebinds every wrapped function in every ``mixedmult.*`` namespace
that holds the same object, and rebinds the ``Polynomial`` methods on the
class (which also catches aliases such as ``__rmul__``).  Nothing under
``src/`` changes.

Spans (name, start, end, parent span, request id) are kept in memory in
flat arrays and written out once, after the pass, by ``write_spans``.
Self time is a span's duration minus the durations of its wrapped
children; total time counts only the outermost span of each name, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# (module, function) pairs; "Polynomial.x" names a method of rings.Polynomial.
WRAPPED = {
    "rings": (
        "parse_polynomial",
        "Polynomial.__mul__",
        "Polynomial.__pow__",
        "Polynomial.substitute",
    ),
    "groebner": (
        "groebner_basis",
        "normal_form",
        "elimination_ideal",
        "ideal_quotient",
        "ideal_intersection",
        "saturation",
    ),
    "hilbert": (
        "k_polynomial",
        "hilbert_polynomial",
        "graded_piece_dim",
        "series_coefficient",
        "mixed_mult_series",
        "quotient_dimension",
        "coarsened_multiplicity",
    ),
    "multigraded": (
        "irrelevant_ideal",
        "irrelevant_saturation",
        "mixed_mult_polynomial",
        "multidegree",
        "is_filter_regular",
        "slice_degree",
    ),
    "maps": (
        "rees_ideal",
        "projective_degrees",
        "check_G_condition",
        "fitting_ideal",
        "submaximal_pfaffians",
        "satfiber_dims",
        "satfiber_d0_check",
    ),
    "cli": ("run",),
}

# Functions that call no other wrapped function: their total time equals
# their self time, so no ``.total_s`` metric is reported for them.
LEAVES = {
    "rings.Polynomial.__mul__",
    "groebner.groebner_basis",
    "groebner.normal_form",
    "hilbert.series_coefficient",
}

# Share of calls whose result is an object some earlier call returned.
REUSE = {
    "groebner.groebner_basis",
    "hilbert.k_polynomial",
    "multigraded.irrelevant_saturation",
    "maps.rees_ideal",
}


# Outcome counters: metric kind and the amount one call's result adds.
OUTCOMES = {
    "maps.check_G_condition": ("pass_ratio", lambda result: result is True),
    "multigraded.is_filter_regular": ("pass_ratio", lambda result: result.passed),
    "multigraded.slice_degree": (
        "resamples",
        lambda result: sum(t.resamples for t in result.trial_outcomes),
    ),
}

FULL_NAMES = tuple(
    f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {"calls": "count", "resamples": "count", "self_s": "s", "total_s": "s"}
    return [
        (name, units.get(name.rsplit(".", 1)[1], "ratio"))
        for name in Tracer().metrics()
    ]


def is_count(metric: str) -> bool:
    """Counts must repeat exactly across runs of the same code and seed."""
    return metric.endswith((".calls", ".reuse_ratio", ".pass_ratio", ".resamples"))


class Tracer:
    def __init__(self):
        self.request = -1
        self._name = array("i")
        self._parent = array("i")
        self._req = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._active = [0] * len(FULL_NAMES)
        self._seen: dict[int, dict[int, object]] = {}
        self._reused = [0] * len(FULL_NAMES)
        self._outcome = [0] * len(FULL_NAMES)

    def _wrap(self, idx: int, fn):
        name = FULL_NAMES[idx]
        reuse = self._seen.setdefault(idx, {}) if name in REUSE else None
        outcome = OUTCOMES[name][1] if name in OUTCOMES else None
        names, parents, reqs, outer = self._name, self._parent, self._req, self._outer
        starts, ends, stack, active = self._start, self._end, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            outer.append(active[idx] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            active[idx] += 1
            starts[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
                active[idx] -= 1
            if reuse is not None:
                key = id(result)
                if key in reuse:
                    self._reused[idx] += 1
                else:
                    reuse[key] = result  # held, so the id is never recycled
            if outcome is not None:
                self._outcome[idx] += outcome(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every wrapped function wherever the package holds it."""
        for module_name in WRAPPED:
            importlib.import_module(f"mixedmult.{module_name}")
        packages = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mixedmult" or n.startswith("mixedmult."))
        ]
        polynomial = sys.modules["mixedmult.rings"].Polynomial
        for idx, full in enumerate(FULL_NAMES):
            module_name, _, fn_name = full.partition(".")
            module = sys.modules[f"mixedmult.{module_name}"]
            if fn_name.startswith("Polynomial."):
                original = polynomial.__dict__[fn_name.split(".", 1)[1]]
                holders = [polynomial]
            else:
                original = getattr(module, fn_name)
                holders = packages
            wrapper = self._wrap(idx, original)
            rebound = 0
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"tracer found no binding of {full}")

    def metrics(self) -> dict[str, float]:
        """Per-function and per-module calls, self and total seconds."""
        n = len(self._name)
        child = [0.0] * n
        dur = [self._end[i] - self._start[i] for i in range(n)]
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(FULL_NAMES)
        calls = [0] * k
        self_s = [0.0] * k
        total_s = [0.0] * k
        for i in range(n):
            f = self._name[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            if self._outer[i]:
                total_s[f] += dur[i]
        out: dict[str, float] = {}
        modules: dict[str, list] = {m: [0, 0.0] for m in WRAPPED}
        for f, name in enumerate(FULL_NAMES):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.self_s"] = self_s[f]
            if name not in LEAVES:
                out[f"{name}.total_s"] = total_s[f]
            if name in REUSE:
                out[f"{name}.reuse_ratio"] = self._reused[f] / calls[f] if calls[f] else 0.0
            if name in OUTCOMES:
                kind = OUTCOMES[name][0]
                value = self._outcome[f]
                if kind == "pass_ratio":
                    value = value / calls[f] if calls[f] else 0.0
                out[f"{name}.{kind}"] = value
            agg = modules[name.split(".", 1)[0]]
            agg[0] += calls[f]
            agg[1] += self_s[f]
        for module, (c, s) in modules.items():
            out[f"{module}.calls"] = c
            out[f"{module}.self_s"] = s
        return out

    def write_spans(self, path) -> int:
        """Write all spans as one gzip'd JSON object of parallel columns."""
        t0 = self._start[0] if len(self._start) else 0.0
        doc = {
            "names": list(FULL_NAMES),
            "name": self._name.tolist(),
            "start": [round(t - t0, 7) for t in self._start],
            "end": [round(t - t0, 7) for t in self._end],
            "parent": self._parent.tolist(),
            "request": self._req.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self._name)
