"""In-memory span tracing around calls into the library's layers.

Tracing is applied from the outside: :class:`Instrumentation` rebinds every
public function of the layer modules, in every ``demandcast`` module namespace that
refers to it, to a wrapper that records a span.  A span is recorded only
when the call crosses into a layer from outside it (from the benchmark or
from another layer); calls inside one layer do not change its self time and
would only add overhead.

Pool workers forked from a traced process inherit the wrappers.  A worker
keeps its spans in memory and appends them to ``spans-<pid>.jsonl`` in the
trace directory each time it returns to the call that was open when it was
forked; :meth:`Tracer.collect` merges those files into the parent's list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

PACKAGE = "demandcast"
LAYERS = ("pipeline", "series", "diagnostics", "estimation", "metrics", "selection", "evaluation")


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    pid: int

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process tree; see the module docstring."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[Span] = []
        self._stack: list[tuple[str, str]] = []  # (span id, layer)
        self._count = 0
        self._pid = os.getpid()
        self._base_depth = 0
        self._in_child = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._pid = os.getpid()
        self.spans = []
        self._base_depth = len(self._stack)
        self._in_child = True

    def wrap(self, name: str, func):
        layer = name.partition(".")[0]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][1] == layer:
                return func(*args, **kwargs)
            self._count += 1
            span_id = f"{self._pid}:{self._count}"
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self._pid))
                if self._in_child and len(self._stack) == self._base_depth:
                    self._flush_child()

        return traced

    def _flush_child(self) -> None:
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge the spans written by forked workers into this process's list."""
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


class Instrumentation:
    """Routes every public layer function through a tracer while entered.

    Entering rebinds each public function of the layer modules, in every
    module of the package that refers to it, to its traced wrapper; leaving
    restores the originals.
    """

    def __init__(self, tracer: Tracer):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
        self._sites = []
        for key, module in list(sys.modules.items()):
            if key == PACKAGE or key.startswith(PACKAGE + "."):
                for name, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._sites.append((module, name, obj, wrapped[obj]))

    def __enter__(self) -> "Instrumentation":
        for module, name, _, traced in self._sites:
            setattr(module, name, traced)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original, _ in self._sites:
            setattr(module, name, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span], wall: float) -> dict[str, float]:
    """Self time per layer, plus ``bench`` for the traced wall time outside any span.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Children of one span may run in parallel workers, so the
    covered part is the union of their intervals, and the layer totals can
    add up to more than the wall time.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        covered = _union_length(
            [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, [])
             if c.end > span.start and c.start < span.end]
        )
        out[span.layer] += span.duration - covered
    top = [(s.start, s.end) for s in spans if s.parent is None]
    out["bench"] = wall - _union_length(top)
    return out
