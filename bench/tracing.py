"""Spans around the benchmark's calls into rackkit, recorded from outside.

``Tracer.installed`` swaps the public functions named in ``TARGETS`` (and
the names other rackkit modules imported them under) for wrappers that
record a span per call and add to the layer's counters.  The library
itself is not changed; leaving the context restores every function.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from rackkit import cli, core, generators, iso, links, poly


def _witnesses(counts, result, args):
    counts["core.witnesses_built"] += len(result.axiom_violations)


def _depth(counts, result, args):
    counts["poly.depth_sum"] += max(args[1], args[2])


def _subracks(counts, result, args):
    counts["poly.subracks_found"] += len(result)


def _scan(counts, result, args):
    counts["iso.scan_depth_pairs"] += result.bound ** 2
    counts["iso.scan_differences"] += len(result.differences)


def _counting(counts, result, args):
    total, per_class = result
    # the sweep reaches every label vector, so there are rank^components
    counts["links.framings_swept"] += len(per_class)
    counts["links.colorings"] += total


def _enhanced(counts, result, args):
    counts["links.enhanced_colorings"] += result.total
    counts["links.image_subracks"] += len(
        {image for _, image, _ in result.image_multiplicities})


# (span name, module, function name, counter update).  core._analyze is
# what RackTable.report runs the first time, so its span is validation.
TARGETS = (
    ("core.parse", core, "parse_rack_table", None),
    ("core.validate", core, "_analyze", _witnesses),
    ("generators.build", generators, "alexander", None),
    ("generators.build", generators, "constant_action", None),
    ("generators.build", generators, "ts_rack", None),
    ("poly.polynomial", poly, "rack_polynomial", _depth),
    ("poly.polynomial", poly, "exponent_profile", _depth),
    ("poly.subracks", poly, "enumerate_subracks", _subracks),
    ("poly.subrack_poly", poly, "subrack_polynomial", None),
    ("poly.closure", poly, "closure", None),
    ("iso.isomorphic", iso, "isomorphic", None),
    ("iso.scan", iso, "rp_family_scan", _scan),
    ("links.parse", links, "parse_diagram", None),
    ("links.counting", links, "rack_counting", _counting),
    ("links.enhanced", links, "enhanced_invariant", _enhanced),
)
MODULES = (cli, core, generators, iso, links, poly)


class Tracer:
    """Spans as [name, start, end, parent index, job id] plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn, update):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.counts[name + "_calls"] += 1
            if update is not None:
                update(tracer.counts, result, args)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Trace TARGETS for the duration of the block."""
        saved = []
        try:
            for name, module, attr, update in TARGETS:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, update)
                for other in MODULES:
                    if getattr(other, attr, None) is original:
                        saved.append((other, attr, original))
                        setattr(other, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, jobs) -> Counter:
        """Each span name's duration minus its children's, summed over
        the spans of the given job ids."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job in jobs:
                out[name] += end - start - child[index]
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({**header, "span_fields": ["name", "start", "end",
                                                 "parent", "job"],
                       "spans": self.spans}, out)
