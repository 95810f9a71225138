"""Per-layer tracing of the ``fliess`` package, installed from outside.

Every public function defined in one of the traced modules is replaced, in
every ``fliess`` module namespace that binds it (``harness`` imports
``dt_fliess_truncated`` by name, the package re-exports everything), by a
wrapper that times the call.  Two methods that carry per-element work are
wrapped on their class as well.  The wrappers are bound only while a traced
case runs; the original bindings are restored in between.  Nothing inside the
program is changed.

Each call becomes a span (name, start, end, parent span, case id) kept in
memory and written out when the run ends.  Calls of the per-element
functions in ``HOT`` (one per word, RK4 stage, recursion step or CSV cell)
are counted and timed but not logged one by one; their time is still taken
out of the caller's self time.

Self time of a call is its duration minus the durations of the wrapped calls
it makes.  Inclusive time of a name counts only its outermost calls.  Work
counters marked "computed" are derived from call arguments, not measured.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("signals", "algebra", "operators", "bounds", "realization", "harness", "cli")

# methods that every coefficient lookup and every pointwise input evaluation
# go through; the module-level algebra.coefficient only delegates to the first
METHODS = {
    ("algebra", "SeriesSpec", "coefficient"): "algebra.coefficient",
    ("signals", "ContinuousInput", "value"): "signals.input_value",
}
ALIASES = {("algebra", "coefficient")}

HOT = frozenset({
    "algebra.coefficient", "signals.input_value", "realization.forward_step",
    "realization.backward_step", "harness.format_float",
})


def word_count(q: int, J: int) -> int:
    """Number of words of length 0..J over q letters."""
    return J + 1 if q <= 1 else (q ** (J + 1) - 1) // (q - 1)


def _letter_count(alphabet_or_letters) -> int:
    size = getattr(alphabet_or_letters, "size", None)
    return size if size is not None else len(alphabet_or_letters)


def _suffixes(tracer, a) -> None:
    t = a["u"].T if a["t"] is None else a["t"]
    tracer.note_suffixes(tuple(a["eta"]), (id(a["u"]), t))


# computed work counters, keyed by the traced name whose arguments feed them
COUNTERS = {
    "operators.dt_fliess_trajectory": lambda tr, a: tr.add(
        "operators.dt.word_steps",
        word_count(len(a["c"].evaluation_letters()), a["J"]) * a["uhat"].L),
    "realization.ct_bilinear_simulate": lambda tr, a: tr.add("realization.rk4_steps", a["steps"]),
    "realization.simulate_forward": lambda tr, a: tr.add(
        "realization.resolvent_solves", a["uhat"].L if a["N_f"] is None else a["N_f"]),
    "algebra.enumerate_words": lambda tr, a: tr.add(
        "algebra.enumerate_words.words", _letter_count(a["alphabet_or_letters"]) ** a["length"]),
    "algebra.enumerate_words_upto": lambda tr, a: tr.add(
        "algebra.enumerate_words.words", word_count(_letter_count(a["alphabet_or_letters"]), a["max_len"])),
    "operators.iterated_integral": _suffixes,
    "operators.iterated_integral_pc": _suffixes,
}


class Tracer:
    """Span log and per-name aggregates for the traced calls of one process."""

    def __init__(self):
        self._bindings: list[tuple] = []
        self.case = -1
        self.stack: list[list] = []  # [child seconds, span id or None]
        self.depth: dict[str, int] = defaultdict(int)
        self.next_id = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._suffix_groups: dict[tuple, set] = defaultdict(set)
        self.suffix_levels = 0
        self.suffix_distinct = 0

    # -- counters ---------------------------------------------------------
    def add(self, key: str, n: float) -> None:
        self.counts[key] += n

    def note_suffixes(self, eta: tuple, group: tuple) -> None:
        """Suffixes a layered engine could share: those of words evaluated on
        the same input at the same time."""
        seen = self._suffix_groups[group]
        for k in range(len(eta)):
            seen.add(eta[k:])
        self.suffix_levels += len(eta)

    def begin_case(self, case_id: int) -> None:
        self.case = case_id

    def end_case(self) -> None:
        self.suffix_distinct += sum(len(s) for s in self._suffix_groups.values())
        self._suffix_groups.clear()

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, name: str):
        tracer = self
        hot = name in HOT
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments)
            span_id = None
            if not hot:
                span_id = tracer.next_id
                tracer.next_id += 1
            frame = [0.0, span_id]
            stack = tracer.stack
            stack.append(frame)
            tracer.depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += d - frame[0]
                tracer.depth[name] -= 1
                if tracer.depth[name] == 0:
                    tracer.incl_s[name] += d
                if stack:
                    stack[-1][0] += d
                else:
                    tracer.top_s += d
                if span_id is not None:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    tracer.spans.append((span_id, name, t0, t1, parent, tracer.case))

        return traced

    def install(self) -> None:
        """Prepare wrappers for every public function and the METHODS; they
        are bound only between enable() and disable()."""
        modules = {short: importlib.import_module(f"fliess.{short}") for short in MODULES}
        package = [m for name, m in sys.modules.items()
                   if name == "fliess" or name.startswith("fliess.")]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or (short, attr) in ALIASES
                        or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(obj, f"{short}.{attr}")
                for namespace in package:
                    for key, val in vars(namespace).items():
                        if val is obj:
                            self._bindings.append((namespace, key, obj, wrapper))
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[meth]
            self._bindings.append((cls, meth, original, self.wrap(original, name)))

    def enable(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def disable(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    # -- output -----------------------------------------------------------
    def module_self_ms(self, module: str) -> float:
        return 1e3 * sum(v for k, v in self.self_s.items() if k.startswith(module + "."))

    def suffix_reuse_ratio(self) -> float:
        if self.suffix_levels == 0:
            return 0.0
        return 1.0 - self.suffix_distinct / self.suffix_levels

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "start_s", "end_s", "parent", "case"])
            for span_id, name, t0, t1, parent, case in self.spans:
                out.writerow([span_id, name, f"{t0:.9f}", f"{t1:.9f}",
                              "" if parent is None else parent, case])
