"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function defined in a ``towerkit``
module and rebinds each binding of it, in every loaded ``towerkit`` module
namespace, to the wrapper.  Modules that did ``from .blocks import
cyclic_partial_sums_units`` hold their own binding, so patching only the
home module would record nothing for their calls.

Each wrapper records one span per call: its inclusive time, the time its
child spans cover (so self time is the difference), the ``cli.cmd_*`` span
it ran under, and any exception that propagated out of it.  Spans are
aggregated in memory per (function, command) and written once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("blocks", "distributions", "lemma_engine", "splitting", "tower",
          "skyscraper", "cli")


def _is_rejected(args, kwargs, result):
    ok = result[0] if isinstance(result, tuple) else result
    return 0 if ok else 1


def _vals_len(args, kwargs, result):
    return len(args[0] if args else kwargs["vals"])


def _result_len(args, kwargs, result):
    return len(result)


def _dict_arrays_len(args, kwargs, result):
    return sum(len(v) for v in result.values())


# Exact work counts: the array length a call consumed or produced.
ELEMENTS = {
    "distributions.empirical_vasershtein": _vals_len,
    "distributions.empirical_uniform_gap": _vals_len,
    "blocks.cyclic_partial_sums_units": _result_len,
    "blocks.self_concat": _result_len,
    "lemma_engine.basic_extend": _result_len,
    "skyscraper.occupation_counts": _dict_arrays_len,
}

# Other exact counts taken from a call's result.
COUNTS = {
    "blocks.is_normalized": ("rejected", _is_rejected),
    "tower.certify_theorem1": ("k_values",
                               lambda a, kw, r: len(r.k_grid)),
}


class FnStats:
    __slots__ = ("calls", "s", "self_s", "errors", "elements", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.elements = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        # one [child_seconds, command] entry per open span
        self._stack = []
        # (function, command) -> FnStats
        self.stats = defaultdict(FnStats)

    def wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        elements = ELEMENTS.get(name)
        count = COUNTS.get(name, (None, None))[1]
        is_cmd = name.startswith("cli.cmd_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cmd = name if is_cmd else (stack[-1][1] if stack else None)
            frame = [0.0, cmd]
            stack.append(frame)
            failed = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = stats[name, cmd]
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[0]
                st.errors += failed
            if elements is not None:
                st.elements += elements(args, kwargs, result)
            if count is not None:
                st.extra += count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every towerkit layer."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "towerkit"
                                         or n.startswith("towerkit."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"towerkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}",
                                                        obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def summary(self):
        """Per-function totals, with inclusive time split by command."""
        out = {}
        for (name, cmd), st in self.stats.items():
            row = out.setdefault(name, {
                "calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                "elements": 0, "under": {}})
            row["calls"] += st.calls
            row["s"] += st.s
            row["self_s"] += st.self_s
            row["errors"] += st.errors
            row["elements"] += st.elements
            if name in COUNTS:
                key = COUNTS[name][0]
                row[key] = row.get(key, 0) + st.extra
            if cmd is not None:
                row["under"][cmd] = row["under"].get(cmd, 0.0) + st.s
        return out

    def self_time_by_command(self):
        """Sum of self times of every span under each cli.cmd_* span."""
        out = defaultdict(float)
        for (name, cmd), st in self.stats.items():
            if cmd is not None:
                out[cmd] += st.self_s
        return dict(out)
