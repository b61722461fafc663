"""In-memory spans around calls into the gradus modules.

A :class:`Tracer` replaces functions and methods with wrappers that record
one span per call: name, start, end and the enclosing span.  Module-level
functions are replaced under every name that binds them in a loaded
``gradus`` module, because several modules import functions by name
(``analysis`` and ``style`` hold their own reference to ``score.timeline``).
Spans stay in memory until the benchmark reads them; nothing is written.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

Hook = Callable[[tuple, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans and counters; ``enabled`` pauses recording."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    enabled: bool = True
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def call(self, name: str, fn: Callable, *args, hook: Optional[Hook] = None,
             **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- installing wrappers -----------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, hook=hook, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch_function(self, module, attr: str, name: str,
                       hook: Optional[Hook] = None) -> None:
        """Wrap ``module.attr`` wherever a gradus module binds that function."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gradus" or mod_name.startswith("gradus.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     hook: Optional[Hook] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, hook))

    def mark(self) -> int:
        """A point to which :meth:`uninstall` can roll the patches back."""
        return len(self._patches)

    def uninstall(self, mark: int = 0) -> None:
        """Restore everything patched since ``mark`` (by default, everything)."""
        for owner, key, original in reversed(self._patches[mark:]):
            setattr(owner, key, original)
        del self._patches[mark:]

    # -- reading -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def outer_s(self, prefix: str) -> float:
        """Time in spans whose name starts with ``prefix``, nesting counted once."""
        total = 0.0
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            nested = False
            while parent >= 0:
                if self.spans[parent].name.startswith(prefix):
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                total += span.duration
        return total
