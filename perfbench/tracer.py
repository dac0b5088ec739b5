"""In-memory span tracer that wraps c0cert's layer boundaries from outside.

A span is (name, start, end, parent).  Spans live in flat arrays while a
traced pass runs and are aggregated (calls, inclusive and self time) or
written out only after it ends.  The program itself is not edited: each
traced callable is replaced by a wrapper in every ``c0cert`` module
namespace that holds it, and put back by ``restore``.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import update_wrapper

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of ``fn``."""
        nid = self._intern(name)
        stack, perf = self._stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        return update_wrapper(traced, fn)

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper; classmethods stay classmethods."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def patch_item(self, mapping: dict, key: str, name: str) -> None:
        """Replace ``mapping[key]`` by a traced wrapper."""
        original = mapping[key]
        mapping[key] = self.wrap(name, original)
        self._patches.append((mapping, key, original))

    def patch_function(self, fn, name: str, package: str = "c0cert") -> None:
        """Wrap ``fn`` in every module of ``package`` that binds it by any name."""
        wrapper = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p != NO_PARENT:
                child[p] += d
        return [d - c for d, c in zip(dur, child)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        names = self.names
        for nid, p, d, s in zip(self.name, self.parent, self.durations(), self.self_times()):
            agg = out[names[nid]]
            agg["calls"] += 1
            agg["self_s"] += s
            if p == NO_PARENT or self.name[p] != nid:  # recursion counts once
                agg["total_s"] += d
        return out

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that have a span named ``ancestor`` above them."""
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        hits = 0
        for nid, p in zip(self.name, self.parent):
            if nid == cid:
                while p != NO_PARENT and self.name[p] != aid:
                    p = self.parent[p]
                hits += p != NO_PARENT
        return hits

    def write(self, path) -> None:
        """Write every span as TSV (index, name, start, end, parent), gzip-compressed."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            fh.writelines(
                f"{i}\t{names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n"
                for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent))
            )
