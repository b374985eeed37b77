"""Per-layer spans for the quiddity package, recorded from outside it.

`install` replaces the public functions of each layer module, and the
public methods of `series.TruncSeries`, with wrappers that append a span
to an in-memory list.  Every call from one layer into another goes
through a module or class attribute, so the wrappers see each layer
boundary.  Names another module imported directly (`oracle.m_n`) and
function references held in module-level dicts
(`census._FORMULA_FAMILIES`) are rebound to the same wrappers.

Methods of the other classes (`CountTable.to_csv`, `VerifyReport.check`,
`Mat2.__mul__`) are not wrapped: they count towards their caller, so CSV
formatting of a table is `cli` self time.

A span is `[name, parent index, start, end, note]`; `note` holds what a
metric needs from the arguments or the result (a survey's size, a
product's order, a solution count).  The notes of `oracle.solve` and
`oracle.survey` also hold the search box the call was given (`_box`).
"""

import functools
import importlib
import inspect
import json
import resource
import time

LAYERS = ("cli", "verify", "census", "series", "formulas", "oracle", "matrices")
TRACED_CLASSES = {"series": ("TruncSeries",)}
# binom_conv is called once per summand inside the closed forms (over
# half a million times in census-48) and only ever from formulas itself,
# so it stays unwrapped and its time is self time of its caller.
UNTRACED = frozenset({"formulas.binom_conv"})


def _box(kind, size, bound, pinned):
    """One oracle search box: route, size, bound, pinned positions, tuples in it."""
    bound = size if bound is None else bound
    return [kind, size, bound, sorted(pinned), bound ** (size - len(pinned))]


def _solve_note(args, kwargs, result):
    query = args[0] if args else kwargs["query"]
    kind = "list" if query.list_solutions else result.method
    return kind, result.count, _box(result.method, query.size, query.bound,
                                     query.constraints or {})


def _survey_note(args, kwargs, result):
    size = args[0] if args else kwargs["size"]
    bound = args[1] if len(args) > 1 else kwargs.get("bound")
    return size, sum(result.counts.values()), _box("survey", size, bound, ())


_NOTES = {
    "oracle.solve": _solve_note,
    "oracle.survey": _survey_note,
    "oracle.count_component_at": lambda args, kwargs, result: ("pinned", result, None),
    "oracle.count_by_last": lambda args, kwargs, result: ("pinned", result, None),
    "oracle.count_first_last": lambda args, kwargs, result: ("pinned", result, None),
    "series.TruncSeries.mul": lambda args, kwargs, result: args[0].order,
    "verify.run_verify": lambda args, kwargs, result: len(result.results),
}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)
        # the oracle is where memory peaks, so its spans also sample ru_maxrss
        with_rss = name.startswith("oracle.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            rss_before = _maxrss_mb() if with_rss else None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            if with_rss:
                span[4] = (span[4], rss_before, _maxrss_mb())
            return result

        return traced

    def install(self):
        """Wrap every layer of quiddity; the wrappers stay for the process."""
        modules = {layer: importlib.import_module(f"quiddity.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or f"{layer}.{attr}" in UNTRACED):
                    continue
                replaced[id(value)] = self.wrap(f"{layer}.{attr}", value)
                setattr(module, attr, replaced[id(value)])
            for class_name in TRACED_CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(module, class_name))
        # names bound by `from .x import f` and dicts of functions
        for module in [importlib.import_module("quiddity"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self.wrap(name, value))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, value.__func__)))

    def dump(self, path):
        """Write the spans as JSON lines: name, parent, start, end, note."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def summarize(spans, run_s):
    """Per-layer metrics of one traced pass that took `run_s` seconds."""
    layer = [span[0].split(".", 1)[0] for span in spans]
    covered = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            covered[span[1]] += span[3] - span[2]

    def dur(i):
        return spans[i][3] - spans[i][2]

    def named(name):
        return [i for i, span in enumerate(spans) if span[0] == name]

    # a call into a layer is a span whose caller is outside that layer
    entries = {name: [] for name in LAYERS}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        self_s[layer[i]] += dur(i) - covered[i]
        if span[1] < 0 or layer[span[1]] != layer[i]:
            entries[layer[i]].append(i)

    oracle_time = {"direct": 0.0, "list": 0.0, "pinned": 0.0}
    solutions = 0
    top_size, top_s = 0, 0.0
    peak, rss_step = -1.0, 0.0
    for i in entries["oracle"]:
        if spans[i][4] is None:  # the call raised
            continue
        note, rss_before, rss_after = spans[i][4]
        if rss_after > peak:
            peak, rss_step = rss_after, rss_after - rss_before
        if note is None:
            continue
        kind, found, _ = note
        solutions += found
        if spans[i][0] == "oracle.survey":
            if kind > top_size:
                top_size, top_s = kind, dur(i)
        elif kind in oracle_time:
            oracle_time[kind] += dur(i)

    mul = [i for i in named("series.TruncSeries.mul") if spans[i][4] is not None]
    metrics = {
        "oracle.calls": len(entries["oracle"]),
        "oracle.solutions": solutions,
        "oracle.survey_s": sum(dur(i) for i in named("oracle.survey")),
        "oracle.survey_top_s": top_s,
        "oracle.direct_s": oracle_time["direct"],
        "oracle.pinned_s": oracle_time["pinned"],
        "oracle.list_s": oracle_time["list"],
        "oracle.rss_step_mb": rss_step,
        "matrices.m_n.calls": len(named("matrices.m_n")),
        "matrices.m_n_s": sum(dur(i) for i in named("matrices.m_n")),
        "series.mul.calls": len(mul),
        "series.mul.coeff_products": sum((spans[i][4] + 1) * (spans[i][4] + 2) // 2
                                         for i in mul),
        "series.mul_s": sum(dur(i) for i in mul),
        "series.inverse_s": sum(dur(i) for i in named("series.TruncSeries.inverse")),
        "formulas.calls": len(entries["formulas"]),
        "formulas.s": sum(dur(i) for i in entries["formulas"]),
        "census.calls": len(entries["census"]),
        "census.self_s": self_s["census"],
        "verify.checks": sum(spans[i][4] or 0 for i in named("verify.run_verify")),
        "verify.golden_s": sum(dur(i) for i in named("verify.golden_checks")),
        "verify.identity_s": sum(dur(i) for i in named("verify.identity_checks")),
        "verify.oracle_s": sum(dur(i) for i in named("verify.oracle_checks")),
        "cli.calls": len(entries["cli"]),
        "cli.self_s": self_s["cli"],
        "trace.unattributed_s": run_s - sum(dur(i) for i, span in enumerate(spans)
                                            if span[1] < 0),
    }
    return metrics, self_s


def boxes(spans):
    """The search boxes of the enumerating oracle calls, in call order."""
    return [span[4][0][2] for span in spans
            if span[0] in ("oracle.solve", "oracle.survey") and span[4] is not None]
