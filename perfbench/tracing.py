"""Spans for the traced benchmark run, recorded from outside the library.

A span is one timed call: its name, its parent span, its start and end on
``time.perf_counter`` and the number of ``numpy.einsum`` calls made while it
was open.  The benchmark opens spans around its own calls into each layer
(``inside``, ``outside``, the aggregation, ``sample_batch``).  The calls that
layers make into each other are timed by replacing, for the length of a
``with tracer.installed():`` block, the module attributes the callers look
up: ``grammar_inside.fold``, ``SecEngine.outside``, ``SecEngine.sample`` and
``numpy.einsum``.  Nothing under ``src/`` is changed.

Spans stay in memory until :meth:`Tracer.write` saves them as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy

import jointfold.grammar_inside as grammar_inside
import jointfold.secfold as secfold

# span names: the benchmark's own stage spans, then the wrapped callees
PAIR = "pair"
INSIDE = "grammar_inside.inside"
OUTSIDE = "outside_prob.outside"
AGGREGATE = "outside_prob.aggregate"
SAMPLE_BATCH = "sampler.sample_batch"
FOLD = "secfold.fold"
SEC_OUTSIDE = "secfold.outside"
SEC_SAMPLE = "secfold.sample"


class Tracer:
    """Records spans and counts ``numpy.einsum`` calls."""

    def __init__(self) -> None:
        # each span: [name, parent index or None, start, end, einsum calls]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._einsum_calls = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, parent, time.perf_counter(), 0.0, self._einsum_calls]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            rec[4] = self._einsum_calls - rec[4]
            self._open.pop()

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self._einsum_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        patches = [
            (grammar_inside, "fold", self._timed(grammar_inside.fold, FOLD)),
            (secfold.SecEngine, "outside",
             self._timed(secfold.SecEngine.outside, SEC_OUTSIDE)),
            (secfold.SecEngine, "sample",
             self._timed(secfold.SecEngine.sample, SEC_SAMPLE)),
            (numpy, "einsum", self._counted(numpy.einsum)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def pairs(self) -> list[dict[str, float]]:
        """Per traced pair: wall time, time per span name, einsum calls."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == PAIR]
        out = []
        for a, b in zip(roots, roots[1:] + [len(self.spans)]):
            seconds: dict[str, float] = {}
            calls: dict[str, int] = {}
            for name, _parent, start, end, n_einsum in self.spans[a + 1:b]:
                seconds[name] = seconds.get(name, 0.0) + (end - start)
                calls[name] = calls.get(name, 0) + n_einsum
            _, _, start, end, _ = self.spans[a]
            out.append({"pair_s": end - start, "seconds": seconds, "einsum": calls})
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, n_einsum) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "start": start,
                    "end": end, "einsum_calls": n_einsum,
                }) + "\n")
