"""In-memory spans around every public function and method of cacforge.

The tracer replaces each public function, and each public method of a
class defined in a cacforge module, with a wrapper that records a span:
name, start, end and parent. Modules bind imported names directly
(`from .codes import verify_cac`), so a wrapper replaces every module
attribute that holds the same function object; calls between modules
and within a module then all pass through it.

Counts that a return value carries (oracle nodes, graph vertices,
simulated trials, exhaustive combinations, certificates kept) are taken
at the same boundary by small hooks. Spans are held in flat arrays and
summarised per pass; `write` dumps the spans of the last pass.
"""

from __future__ import annotations

import builtins
import inspect
import json
import pathlib
import sys
from array import array
from collections import Counter
from math import comb
from time import perf_counter

PACKAGE = "cacforge"


def _construct_hook(tracer, parent, args, result):
    tracer.counts["constructions.certificates"] += 1
    if parent == "cli.cmd_construct":
        tracer.counts["certificates.kept"] += 1
        tracer.counts["codewords.emitted"] += len(result.code)


def _search_hook(tracer, parent, args, result):
    tracer.counts["oracle.nodes"] += result.nodes
    if parent == "cli.cmd_search":
        tracer.counts["codewords.emitted"] += result.size


def _graph_hook(tracer, parent, args, result):
    tracer.counts["oracle.vertices"] += len(result.vertices)


def _simulate_hook(tracer, parent, args, result):
    tracer.counts["channel.trials"] += result.runs


def _irrepressibility_hook(tracer, parent, args, result):
    code, k = args[0], args[1]
    # only a True verdict enumerates every combination; False stops early
    if result and k > 1:
        tracer.counts["channel.combinations"] += comb(len(code), k) * code.length ** (k - 1)


# hooks run after a successful call, with the caller's span name as parent
HOOKS = {
    "constructions.construct_lemma1": _construct_hook,
    "constructions.construct_theorem1": _construct_hook,
    "constructions.construct_theorem2": _construct_hook,
    "constructions.construct_two_prime": _construct_hook,
    "oracle.max_equi_diff_cac": _search_hook,
    "oracle.build_graph": _graph_hook,
    "channel.simulate": _simulate_hook,
    "channel.verify_irrepressibility_exhaustive": _irrepressibility_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # installation

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            parent = tracer.stack[-1]
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                caller = tracer.names[tracer.name[parent]] if parent >= 0 else None
                hook(tracer, caller, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        cli = sys.modules[PACKAGE + ".cli"]
        self._restore.append((cli, "Path", cli.Path))
        cli.Path = _counting_path(self)
        self._restore.append((cli, "print", None))
        cli.print = _counting_print(self)
        return self

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, f"{prefix}.{attr}")
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            if obj is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, obj)
        self._restore.clear()

    # per-pass summary

    def reset(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counts = Counter()

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per function and per layer."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        layer_self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            layer_self_s[name.partition(".")[0]] += dur[i] - child[i]
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "layer_self_s": layer_self_s, "counts": Counter(self.counts)}

    def snapshot(self) -> tuple:
        """A copy of the spans recorded since the last reset."""
        return tuple(array(a.typecode, a) for a in (self.name, self.start, self.end, self.parent))

    def write(self, spans: tuple, path) -> None:
        """A header line naming the functions, then one line per span.

        Each span line is [name, start, end, parent]: name indexes the
        header's list, start and end are perf_counter seconds, parent is the
        index of the enclosing span (0 for the first span line) or -1.
        """
        name, start, end, parent = spans
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(name)):
                fh.write(f"[{name[i]},{start[i]!r},{end[i]!r},{parent[i]}]\n")


def _counting_path(tracer: Tracer):
    """pathlib.Path for the cli module that counts bytes read and written."""

    class CountingPath(type(pathlib.Path())):
        def read_text(self, *args, **kwargs):
            text = super().read_text(*args, **kwargs)
            tracer.counts["cli.bytes_io"] += len(text.encode())
            return text

        def write_text(self, data, *args, **kwargs):
            tracer.counts["cli.bytes_io"] += len(data.encode())
            return super().write_text(data, *args, **kwargs)

    return CountingPath


def _counting_print(tracer: Tracer):
    """print for the cli module that counts the bytes it emits."""

    def counting_print(*args, sep=" ", end="\n", file=None, flush=False):
        text = sep.join(str(a) for a in args) + end
        tracer.counts["cli.bytes_io"] += len(text.encode())
        builtins.print(text, end="", file=file, flush=flush)

    return counting_print
