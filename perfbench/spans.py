"""Per-layer spans and counts, taken from outside the program.

A hook replaces one name in the module that looks it up at call time (for
example ``plrank.booster.fit_tree`` or ``plrank.cli.load_model``) with a
wrapper that records a span: layer name, start, end and the enclosing span.
Spans stay in memory; a layer's self time is its spans' durations minus
the time their direct child spans cover.

A hook whose target name is gone is skipped and reported, so a refactor that
renames a function leaves its layer "not measured" and everything else runs
unchanged.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# A counter function gets (args, kwargs, result) of one call and returns the
# counts to add, by counter name.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str  # module that looks the name up, e.g. "plrank.booster"
    attr: str  # name there; dotted for methods, e.g. "QueryContexts.refresh"
    count: Counter | None = None


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root span


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    missing_sites: list[str] = field(default_factory=list)
    hooked_layers: set[str] = field(default_factory=set)
    broken_counters: set[Counter] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    def open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append(Span(layer, perf_counter(), parent=parent))
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook.count is not None:
                try:
                    for name, value in hook.count(args, kwargs, result).items():
                        tracer.add(name, value)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    tracer.broken_counters.add(hook.count)
            return result

        return traced

    def install(self, hooks: list[Hook]) -> Callable[[], None]:
        """Install every hook whose target exists; return the undo function."""
        undo: list[tuple[object, str, object]] = []
        for hook in hooks:
            *path, name = hook.attr.split(".")
            try:
                owner = importlib.import_module(hook.module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing_sites.append(f"{hook.module}.{hook.attr}")
                continue
            setattr(owner, name, self.wrap(hook, original))
            self.hooked_layers.add(hook.layer)
            undo.append((owner, name, original))

        def uninstall() -> None:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

        return uninstall

    def layers(self) -> dict[str, LayerStats]:
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        stats: dict[str, LayerStats] = {}
        for span, children in zip(self.spans, child_s):
            entry = stats.setdefault(span.layer, LayerStats())
            entry.calls += 1
            entry.total_s += span.end - span.start
            entry.self_s += span.end - span.start - children
        return stats
