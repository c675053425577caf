"""Spans around the library's layer boundaries, recorded from outside the library.

`Tracer.install` rebinds the public names that `dpdefect.harness` calls, and
`WeightedInstance.without_edge`, with wrappers that record one span per call:
its name, start, end and parent.  The reduced signing iterator is not wrapped
per signing (one span per signing cost about 2.5 s of a 16.5 s
certification); the time spent in its `next()` calls is summed into one span
per iterator, whose parent is the span that first pulled from it.  Spans are
kept in flat arrays in memory and written out by `write` after the run.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

import dpdefect.harness as harness
import dpdefect.model as model

SOLVER = ("solver.colorable_all_covers", "solver.sample_covers")
ITERATOR = "constructions.reduced_cover_iterator"
POTENTIAL = ("potential.subset_potential", "potential.sparsity_test")


class _TimedSignings:
    """Iterator wrapper that sums the time of its `next()` calls."""

    __slots__ = ("inner", "deleted", "stack", "parent", "first", "busy", "count")

    def __init__(self, inner, deleted, stack: list[int]):
        self.inner = inner
        self.deleted = deleted
        self.stack = stack
        self.parent = -1
        self.first = None
        self.busy = 0.0
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            item = next(self.inner)
        finally:
            self.busy += perf_counter() - t0
        if self.first is None:
            self.first = t0
            self.parent = self.stack[-1]
        self.count += 1
        return item


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.code: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.phase2_edge_s: list[float] = []
        self.iterators: list[_TimedSignings] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, parent: int, t0: float) -> int:
        code = self.code.get(name)
        if code is None:
            code = self.code[name] = len(self.names)
            self.names.append(name)
        self.name.append(code)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t0)
        return len(self.start) - 1

    def _wrap(self, name: str, fn, after=None):
        stack, end = self.stack, self.end

        def wrapper(*args, **kwargs):
            idx = self._open(name, stack[-1], perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(kwargs, result, end[idx] - self.start[idx])
            return result

        return wrapper

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- counters kept at the boundaries ------------------------------------

    def _after_all_covers(self, kwargs, result, dur):
        c = self.counts
        c["solver.signings"] += result.signings_examined
        c["solver.nodes"] += result.nodes_expanded
        signings = kwargs.get("signings")
        if not isinstance(signings, _TimedSignings):
            return
        phase = "harness.phase1" if signings.deleted is None else "harness.phase2"
        c[phase + ".signings"] += result.signings_examined
        c[phase + ".s"] += dur
        if signings.deleted is not None:
            self.phase2_edge_s.append(dur)

    def _after_sample(self, kwargs, result, dur):
        self.counts["solver.signings"] += result.examined
        self.counts["solver.nodes"] += result.nodes_expanded

    def _after_is_critical(self, kwargs, result, dur):
        self.counts["harness.criticals"] += result.verdict == harness.CRITICAL

    def _after_enumerate(self, kwargs, result, dur):
        self.counts["harness.pairs"] += result.pairs_examined

    def _after_iso(self, kwargs, result, dur):
        self.counts["harness.iso.graphs"] += len(result)

    def install(self) -> None:
        h = harness
        iterate = h.reduced_cover_iterator

        def reduced_cover_iterator(graph, spec, deleted_edge=None):
            timed = _TimedSignings(iterate(graph, spec, deleted_edge), deleted_edge, self.stack)
            self.iterators.append(timed)
            return timed

        for attr, replacement in (
            ("colorable_all_covers", self._wrap(SOLVER[0], h.colorable_all_covers,
                                                self._after_all_covers)),
            ("sample_covers", self._wrap(SOLVER[1], h.sample_covers, self._after_sample)),
            ("reduced_cover_iterator", reduced_cover_iterator),
            ("is_critical", self._wrap("harness.is_critical", h.is_critical,
                                       self._after_is_critical)),
            ("enumerate_critical", self._wrap("harness.enumerate_critical",
                                              h.enumerate_critical, self._after_enumerate)),
            ("sampled_edge_deletion_sweep", self._wrap("harness.sampled_edge_deletion_sweep",
                                                       h.sampled_edge_deletion_sweep)),
            ("graphs_up_to_iso", self._wrap("harness.graphs_up_to_iso", h.graphs_up_to_iso,
                                            self._after_iso)),
            ("subset_potential", self._wrap(POTENTIAL[0], h.subset_potential)),
            ("sparsity_test", self._wrap(POTENTIAL[1], h.sparsity_test)),
        ):
            self._rebind(h, attr, replacement)
        W = model.WeightedInstance
        self._rebind(W, "without_edge", self._wrap("model.without_edge", W.without_edge))

    def uninstall(self) -> None:
        """Restore the library's names and close the iterator spans."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for it in self.iterators:
            if it.first is not None:
                idx = self._open(ITERATOR, it.parent, it.first)
                self.end[idx] = it.first + it.busy
                self.counts["constructions.signings"] += it.count
        self.iterators.clear()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total duration, and self time (total
        duration minus the duration of child spans)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        names, name, parent = self.names, self.name, self.parent
        for idx in range(len(self.start)):
            dur = self.end[idx] - self.start[idx]
            label = names[name[idx]]
            calls[label] += 1
            total[label] += dur
            own[label] += dur
            if parent[idx] >= 0:
                own[names[name[parent[idx]]]] -= dur
        return calls, total, own

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics; a layer the run never reached reads 0."""
        c = self.counts
        calls, total, own = self.totals()
        solver_calls = sum(calls[n] for n in SOLVER)
        solver_s = sum(own[n] for n in SOLVER)
        iter_s = own[ITERATOR]
        is_crit = calls["harness.is_critical"]

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "solver.calls": solver_calls,
            "solver.signings": c["solver.signings"],
            "solver.nodes": c["solver.nodes"],
            "solver.self_s": solver_s,
            "solver.us_per_signing": per(solver_s, c["solver.signings"], 1e6),
            "solver.nodes_per_s": per(c["solver.nodes"], solver_s),
            "solver.us_per_call": per(solver_s, solver_calls, 1e6),
            "constructions.signings": c["constructions.signings"],
            "constructions.self_s": iter_s,
            "constructions.us_per_signing": per(iter_s, c["constructions.signings"], 1e6),
            "harness.phase1.signings": c["harness.phase1.signings"],
            "harness.phase1.s": c["harness.phase1.s"],
            "harness.phase2.signings": c["harness.phase2.signings"],
            "harness.phase2.s": c["harness.phase2.s"],
            "harness.phase2.edges": len(self.phase2_edge_s),
            "harness.is_critical.calls": is_crit,
            "harness.is_critical.us_per_call": per(total["harness.is_critical"], is_crit, 1e6),
            "harness.enumerate.self_s": own["harness.enumerate_critical"],
            "harness.prefilter.pass_ratio": per(is_crit, c["harness.pairs"]),
            "harness.critical_ratio": per(c["harness.criticals"], is_crit),
            "harness.iso.self_s": own["harness.graphs_up_to_iso"],
            "harness.iso.graphs": c["harness.iso.graphs"],
            "model.without_edge.calls": calls["model.without_edge"],
            "model.without_edge.s": total["model.without_edge"],
            "potential.calls": sum(calls[n] for n in POTENTIAL),
            "potential.self_s": sum(own[n] for n in POTENTIAL),
        }
        for k, dur in enumerate(self.phase2_edge_s):
            out[f"harness.phase2.edge.{k}.s"] = dur
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
