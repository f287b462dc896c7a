"""Spans around calls into asymqec, recorded from outside the program.

`instrument(tracer)` replaces every public module-level function of the
eight asymqec modules, in every module namespace that holds it, plus the
methods `CyclicCode.contains`, `CyclicCode.dual` and `Polynomial.div_rem`,
with a wrapper that records one span per call; leaving the context restores
the originals. Element arithmetic (`Field.mul_i`, `Field.add_i`, ...) and
other methods stay unwrapped, so their time counts toward the self time of
the span that called them.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans of a pass add up to the durations of
its root spans (`cli.main` and `galois.clear_modulus_overrides`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from collections import defaultdict
from statistics import median
from time import perf_counter

from asymqec.cyclic import CyclicCode, consecutive_run_bound
from asymqec.errors import BudgetExceeded
from asymqec.polyring import Polynomial

#: the program's layers, one per module, in calling order
LAYERS = ("cli", "search", "audit", "aqec", "weights", "cyclic", "polyring", "galois")

METHODS = ((CyclicCode, "contains"), (CyclicCode, "dual"), (Polynomial, "div_rem"))

DERIVATIONS = ("css_aqec", "extend_by_polynomial", "extend_by_defining_set",
               "subsystem_euclidean")
WEIGHT_FNS = ("min_weight", "min_weight_difference", "weight_distribution")


class Tracer:
    """Spans and per-name totals of one traced pass.

    Spans keep raw `perf_counter` readings; the totals are multiplied by the
    current job's speed scale, like the pass times (see `run.Probe`).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, job
        self.jobs: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive time of calls not nested in another call of the same name
        self.outer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [span index, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._job_reports: dict[tuple, object] = {}
        self._job_objects: list[object] = []  # keeps ids below unique
        self._counted: set[int] = set()
        self._scale = 1.0

    def begin_job(self, job: str, scale: float) -> None:
        self.jobs.append(job)
        self._scale = scale
        self._job_reports.clear()
        self._job_objects.clear()
        self._counted.clear()

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1][0] if stack else -1
        self.spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BudgetExceeded as exc:
            self._count_once(exc, "weights.budget_exceeded")
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[name] -= 1
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, len(self.jobs) - 1)
            self.calls[name] += 1
            own = (duration - frame[1]) * self._scale
            self.self_s[name] += own
            if outermost:
                self.outer_s[name] += duration * self._scale
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, name, args, kwargs, result, own)
        return result

    def _count_once(self, obj: object, counter: str) -> bool:
        """Count `obj` under `counter` unless this job already counted it."""
        if id(obj) in self._counted:
            return False
        self._counted.add(id(obj))
        self._job_objects.append(obj)
        self.counts[counter] += 1
        return True


def _on_search(tracer: Tracer, name, args, kwargs, result, own) -> None:
    tracer.counts["search.results"] += len(result)


def _on_contains(tracer: Tracer, name, args, kwargs, result, own) -> None:
    if not result:
        tracer.counts["cyclic.contains.false"] += 1


def _on_weights(tracer: Tracer, name, args, kwargs, result, own) -> None:
    code = args[0]
    kind = "q2" if code.q == 2 else "qary"
    tracer.counts[f"enum_self_s.{kind}"] += own
    if name == "weights.weight_distribution":
        return  # its words are reported by the min_weight that asked for it
    early_stop = kwargs.get("early_stop", True)
    key = (name, tuple(a for a in args if isinstance(a, CyclicCode)), early_stop)
    # a cached repeat, or a difference search that returned min_weight's report
    if key in tracer._job_reports or not tracer._count_once(result, "weights.reports"):
        return
    tracer._job_reports[key] = result
    tracer.counts[f"words.{kind}"] += result.enumerated
    if result.method == "exhaustive":
        tracer.counts["exhaustive"] += 1
        if not early_stop or result.value > consecutive_run_bound(code.n, code.T.members):
            tracer.counts["full_scan"] += 1


_HOOKS = {
    "search.search": _on_search,
    "cyclic.CyclicCode.contains": _on_contains,
    **{f"weights.{fn}": _on_weights for fn in WEIGHT_FNS},
}


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    functools.update_wrapper(traced, fn)
    if hasattr(fn, "cache_clear"):
        # galois and polyring reset their lru_caches through the module name
        traced.cache_clear = fn.cache_clear
    return traced


def _public_functions(module: types.ModuleType):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        owner = getattr(value, "__module__", "") or ""
        if owner.startswith("asymqec."):
            yield attr, value


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every public asymqec call through `tracer` while the context is open."""
    modules = [importlib.import_module(f"asymqec.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("asymqec"))
    wrappers: dict[int, object] = {}
    patched: list[tuple[object, str, object]] = []
    for module in modules:
        for attr, fn in list(_public_functions(module)):
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                layer = fn.__module__.split(".", 1)[1]
                wrapper = wrappers[id(fn)] = _wrap(tracer, f"{layer}.{fn.__name__}", fn)
            patched.append((module, attr, fn))
            setattr(module, attr, wrapper)
    for cls, attr in METHODS:
        fn = vars(cls)[attr]
        layer = cls.__module__.split(".", 1)[1]
        patched.append((cls, attr, fn))
        setattr(cls, attr, _wrap(tracer, f"{layer}.{cls.__name__}.{attr}", fn))
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    def self_of(prefix: str) -> float:
        return sum((v for k, v in t.self_s.items() if k.startswith(prefix)), 0.0)

    m = {f"{layer}.self_s": self_of(layer + ".") for layer in LAYERS}
    m["search.results"] = t.counts["search.results"]
    m["aqec.derivations"] = sum(t.calls[f"aqec.{fn}"] for fn in DERIVATIONS)
    for fn in WEIGHT_FNS:
        m[f"weights.{fn}.calls"] = t.calls[f"weights.{fn}"]
        m[f"weights.{fn}.s"] = t.outer_s[f"weights.{fn}"]
    m["weights.macwilliams.s"] = t.outer_s["weights.macwilliams_transform"]
    for kind in ("q2", "qary"):
        m[f"weights.words.{kind}"] = t.counts[f"words.{kind}"]
        m[f"weights.words_per_s.{kind}"] = _share(t.counts[f"words.{kind}"],
                                                  t.counts[f"enum_self_s.{kind}"])
    m["weights.full_scan_share"] = _share(t.counts["full_scan"], t.counts["exhaustive"])
    m["weights.budget_exceeded"] = t.counts["weights.budget_exceeded"]
    contains = "cyclic.CyclicCode.contains"
    m["cyclic.contains.calls"] = t.calls[contains]
    m["cyclic.contains.s"] = t.outer_s[contains]
    m["cyclic.contains.false_share"] = _share(t.counts["cyclic.contains.false"],
                                              t.calls[contains])
    m["cyclic.dual.calls"] = t.calls["cyclic.CyclicCode.dual"]
    m["cyclic.dual.s"] = t.outer_s["cyclic.CyclicCode.dual"]
    m["cyclic.matrices.s"] = (t.outer_s["cyclic.generator_matrix"]
                              + t.outer_s["cyclic.parity_check_matrix"])
    m["polyring.div_rem.calls"] = t.calls["polyring.Polynomial.div_rem"]
    m["polyring.div_rem.s"] = t.outer_s["polyring.Polynomial.div_rem"]
    m["polyring.factor_xn_minus_1.s"] = t.outer_s["polyring.factor_xn_minus_1"]
    m["polyring.minimal_polynomial.calls"] = t.calls["polyring.minimal_polynomial"]
    m["galois.make_field.calls"] = t.calls["galois.make_field"]
    m["galois.nth_root_field.s"] = t.outer_s["galois.nth_root_field"]
    return m


def function_table(tracers: list[Tracer]) -> dict[str, dict[str, float]]:
    """Median calls, self and outermost inclusive time per span name."""
    names = sorted({name for t in tracers for name in t.calls})
    return {
        name: {
            "calls": median(t.calls[name] for t in tracers),
            "self_s": median(t.self_s[name] for t in tracers),
            "inclusive_s": median(t.outer_s[name] for t in tracers),
        }
        for name in names
    }
