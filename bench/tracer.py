"""In-memory span tracer for edgeglue's public entry points.

Only the traced run installs it: `install` replaces every public function of
the traced modules, by name, in every `edgeglue` module that holds it (so
`extremal`'s own references to `enumerate_embeddings` and `canonical_form`
are traced too), and `uninstall` puts the originals back.  The untraced run
patches nothing.

A span is (name, start, end, parent, job).  Generator entry points such as
`enumerate_embeddings` get one span per `next()`, so the time the consumer
spends between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Modules whose public functions are traced; `graphs`, `bounds` and `cli` are
# left out (microsecond helpers and argument parsing), so their time shows up
# as the self time of whichever span calls them.
TRACED_MODULES = ("canon", "embed", "extremal", "gluing", "supersat", "constructions", "store")
JOB_SPAN = "bench.job"


def _count_oracle(counts, args, result):
    counts["extremal.oracle.hosts"] += 1 << args[0]


def _count_glue_family(counts, args, result):
    counts["gluing.forms"] += len(result)
    counts["gluing.orientations"] += 1 << (len(args[0].parts) - 1)


def _count_lookup(counts, args, result):
    counts["store.lookups"] += 1
    counts["store.hits"] += result is not None


def _count_family(counts, args, result):
    counts["supersat.members"] += result.size


# Counts recorded at the same boundaries as the spans: name -> hook(counts,
# positional args, result), run after the span closes.
COUNTERS = {
    "extremal.exhaustive_max_free": _count_oracle,
    "gluing.glue_family": _count_glue_family,
    "store.lookup": _count_lookup,
    "supersat.build_balanced_family": _count_family,
    "supersat.build_signed_balanced_family": _count_family,
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.job_kinds: list[str] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin_job(self, kind: str) -> int:
        self._job = len(self.job_kinds)
        self.job_kinds.append(kind)
        return self.open(self.name_id(JOB_SPAN))

    def end_job(self, sid: int) -> None:
        self.close(sid)
        self._job = -1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            items = f"{name}.items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = self.open(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.close(sid)
                        self.counts[items] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"edgeglue.{short}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "edgeglue" and not modname.startswith("edgeglue."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        """All spans, in the order they were opened, as numpy arrays:
        `np.load(path)` gives name ids (into `names`), start, end, parent
        and job ids (into `job_kinds`); -1 means none."""
        np.savez(
            path,
            names=np.array(self.names),
            job_kinds=np.array(self.job_kinds),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Span ids must be allocated in opening order (children of one parent then
    appear in start order), which `Tracer.open` guarantees.  Overlapping
    children are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the children's union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer: Tracer) -> dict:
    """Aggregate spans: self time and calls per name, self time per (layer,
    job kind), job time per kind, and the durations of store lookups."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names, kinds = tracer.names, tracer.job_kinds
    job_nid = tracer.name_id(JOB_SPAN)
    lookup_nid = tracer.name_id("store.lookup")
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    lookup_durations = []
    self_by_layer_kind = defaultdict(float)
    job_time_by_kind = defaultdict(float)
    for i, st in enumerate(selfs):
        nid = tracer.name[i]
        name = names[nid]
        self_by_name[name] += st
        calls[name] += 1
        kind = kinds[tracer.job[i]] if tracer.job[i] >= 0 else ""
        self_by_layer_kind[(name.split(".", 1)[0], kind)] += st
        if nid == job_nid:
            job_time_by_kind[kind] += tracer.end[i] - tracer.start[i]
        elif nid == lookup_nid:
            lookup_durations.append(tracer.end[i] - tracer.start[i])
    return {
        "self": self_by_name,
        "calls": calls,
        "lookup_durations": lookup_durations,
        "self_by_layer_kind": self_by_layer_kind,
        "job_time_by_kind": job_time_by_kind,
        "total_self": sum(selfs),
    }
