"""Per-layer spans for the traced run, recorded from outside the library.

Every public function of a layer module is wrapped.  The wrapper is bound in
each ``gradedmodal`` namespace that imports the function by name, and every
module object that one layer holds for another (``cli`` calls
``semantics.satisfies``) is swapped for a proxy whose public functions are
wrappers.  The defining module's own namespace is left alone: calls inside a
layer are that layer's self time anyway, and wrapping them would put an
extra frame on every recursive step, so deep formulas would hit the
recursion limit earlier than in the untraced run.

Counts are taken from the arguments and results of wrapped calls after each
query has finished, outside every timed region.
"""

from __future__ import annotations

import functools
import inspect
import types
from time import perf_counter

from oracle import dag_nodes, or_width

LAYERS = ("kripke", "syntax", "semantics", "equivalence", "game", "charform", "folink", "cli")

# Functions whose results feed a count.
_COUNTED = {
    "equivalence.atomic_history",
    "equivalence.refine",
    "equivalence.bounded_equivalence",
    "equivalence.full_graded_bisimilarity",
    "game.solve_game",
    "syntax.format_formula",
    "charform.enumerate_types",
    "charform.normal_form",
    "folink.upgrade_pipeline",
}

# Single functions whose self time is reported on its own.
_FUNCTION_SELF = {
    "game.solve_self_s": "game.solve_game",
    "game.verify_self_s": "game.verify_strategy",
    "semantics.satisfies_self_s": "semantics.satisfies",
    "semantics.extension_self_s": "semantics.extension",
    "folink.fo_eval_self_s": "folink.fo_eval",
    "folink.fo_q_equivalent_self_s": "folink.fo_q_equivalent",
    "kripke.load_structure_self_s": "kripke.load_structure",
}

_COUNTS = (
    ("equivalence.rounds", "count"),
    ("equivalence.level_cells", "count"),
    ("game.certificate_positions", "count"),
    ("syntax.printed_chars", "count"),
    ("syntax.dag_nodes", "count"),
    ("charform.catalog_entries", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(dict(_COUNTS))
    units["equivalence.split_share"] = "ratio"
    units["charform.nf_kept_ratio"] = "ratio"
    units["folink.upgrade_nonvacuous_ratio"] = "ratio"
    units.update({name: "s" for name in _FUNCTION_SELF})
    units["trace.overhead_ratio"] = "ratio"
    return units


class _Proxy(types.ModuleType):
    """A layer module seen from another layer: public functions traced."""

    def __init__(self, module, wrappers):
        super().__init__(module.__name__)
        self.__dict__.update(wrappers)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counts of one traced pass over a workload's queries."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, query, ok)
        self.stack: list[int] = []
        self.pending: list[tuple] = []
        self.query = None
        self.counts = {name: 0 for name, _ in _COUNTS}
        self.counts.update(split_worlds=0, recomputed=0, nf_kept=0, nf_total=0,
                           upgrades=0, nonvacuous=0)
        self._restore: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self._home: dict[int, str] = {}
        self._proxies: dict[str, _Proxy] = {}

    # -- installation -------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counted = qualname in _COUNTED
        spans, stack, pending = self.spans, self.stack, self.pending

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            query = self.query
            if query is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, query, ok)
            if counted:
                pending.append((qualname, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: getattr(self.lib, layer) for layer in LAYERS}
        for layer, module in modules.items():
            wrappers = {}
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapper = self._wrap(f"{layer}.{name}", fn)
                    self._wrappers[id(fn)] = wrapper
                    self._home[id(fn)] = module.__name__
                    wrappers[name] = wrapper
            self._proxies[module.__name__] = _Proxy(module, wrappers)
        namespaces = [vars(self.lib.pkg), vars(self.lib)]
        namespaces += [vars(module) for module in modules.values()]
        for ns in namespaces:
            owner = ns.get("__name__")
            for name, value in list(ns.items()):
                replacement = None
                if id(value) in self._wrappers and self._home[id(value)] != owner:
                    replacement = self._wrappers[id(value)]
                elif isinstance(value, types.ModuleType) and value.__name__ in self._proxies:
                    replacement = self._proxies[value.__name__]
                if replacement is not None:
                    self._restore.append((ns, name, value))
                    ns[name] = replacement

    def uninstall(self) -> None:
        for ns, name, value in reversed(self._restore):
            ns[name] = value
        self._restore.clear()

    # -- counts -----------------------------------------------------------

    def _history_counts(self, history, new_levels: int) -> None:
        levels = history.levels
        worlds = history.arena.world_count
        self.counts["equivalence.level_cells"] += new_levels * worlds
        first_new = len(levels) - new_levels
        for level in range(max(first_new, 1), len(levels)):
            self.counts["equivalence.rounds"] += 1
            self.counts["recomputed"] += worlds
            prev, cur = levels[level - 1], levels[level]
            children: dict[int, set] = {}
            for w in range(worlds):
                children.setdefault(prev[w], set()).add(cur[w])
            self.counts["split_worlds"] += sum(1 for w in range(worlds) if len(children[prev[w]]) > 1)

    def drain(self) -> None:
        """Turn the results of the last query's wrapped calls into counts."""
        charform = self.lib.charform
        for qualname, args, kwargs, result in self.pending:
            if qualname in ("equivalence.atomic_history", "equivalence.refine"):
                self._history_counts(result, 1)
            elif qualname.startswith("equivalence."):
                self._history_counts(result.history, len(result.history.levels))
            elif qualname == "game.solve_game":
                self.counts["game.certificate_positions"] += len(result.strategy)
            elif qualname == "syntax.format_formula":
                self.counts["syntax.printed_chars"] += len(result)
                self.counts["syntax.dag_nodes"] += dag_nodes(args[0])
            elif qualname == "charform.enumerate_types":
                self.counts["charform.catalog_entries"] += len(result)
            elif qualname == "charform.normal_form":
                formula, cap, depth = args[:3]
                catalog = kwargs.get("catalog")
                if catalog is not None:
                    total = len(catalog)
                else:
                    sig = kwargs.get("signature") or charform.inferred_signature(formula)
                    total = charform.catalog_size(sig, cap, depth)
                    self.counts["charform.catalog_entries"] += total
                kept = 0 if isinstance(result, self.lib.syntax.Bot) else or_width(result, self.lib.syntax.Or)
                self.counts["nf_kept"] += kept
                self.counts["nf_total"] += total
            elif qualname == "folink.upgrade_pipeline":
                self.counts["upgrades"] += 1
                self.counts["nonvacuous"] += all(s.status == "pass" for s in result.steps)
        self.pending.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        cover = [0.0] * len(self.spans)
        for name_id, start, end, parent, _query, _ok in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        per_name: dict[str, list] = {}
        for index, (name_id, start, end, _parent, _query, ok) in enumerate(self.spans):
            entry = per_name.setdefault(self.names[name_id], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += (end - start) - cover[index]
            entry[2] += not ok
        values: dict[str, float] = {}
        for layer in LAYERS:
            rows = [v for k, v in per_name.items() if k.split(".", 1)[0] == layer]
            values[f"{layer}.calls"] = sum(r[0] for r in rows)
            values[f"{layer}.self_s"] = sum(r[1] for r in rows)
            values[f"{layer}.errors"] = sum(r[2] for r in rows)
        c = self.counts
        values.update({name: c[name] for name, _ in _COUNTS})
        values["equivalence.split_share"] = _ratio(c["split_worlds"], c["recomputed"])
        values["charform.nf_kept_ratio"] = _ratio(c["nf_kept"], c["nf_total"])
        values["folink.upgrade_nonvacuous_ratio"] = _ratio(c["nonvacuous"], c["upgrades"])
        for metric, qualname in _FUNCTION_SELF.items():
            values[metric] = per_name.get(qualname, [0, 0.0, 0])[1]
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "query", "ok"],
            "names": self.names,
            "spans": [list(span) for span in self.spans],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
