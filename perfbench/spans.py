"""In-memory spans around the public functions of the package under test.

A :class:`Tracer` replaces a function with a wrapper that records one span
per call: name, start, end and the index of the enclosing span.  Spans stay
in memory until :meth:`Tracer.take` hands them over.  Functions are wrapped
from outside, by rebinding every module attribute that refers to them, so
the package itself carries no instrumentation.  A target that does not
exist is listed in :attr:`Tracer.absent` instead of raising.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``target`` is ``module:attr`` or ``module:Class.method`` relative to the
    package.  ``name`` is the span name, or a callable ``(args, kwargs) ->
    name``.  ``observe(tracer, args, kwargs, result)`` may record notes.
    """

    target: str
    name: str | Callable
    observe: Callable | None = None


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list = []  # (name, start, end, parent index)
        self.notes: dict[str, list] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own block."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and notes recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, notes = list(self.spans), self.notes
        self.spans.clear()
        self.notes = {}
        return spans, notes

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    # -- wrapping ----------------------------------------------------------

    def install(self, probes) -> None:
        for probe in probes:
            owner, attr = self._resolve(probe.target)
            if owner is None:
                if probe.target not in self.absent:
                    self.absent.append(probe.target)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, probe)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
            else:
                for module in self._package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _package_modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def _resolve(self, target: str):
        module_name, _, path = target.partition(":")
        owner = sys.modules.get(f"{self.package}.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, attr
        return owner, attr

    def _wrapper(self, fn, probe: Probe):
        name, observe = probe.name, probe.observe

        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                label = name(args, kwargs) if callable(name) else name
                self._close(idx, label, start)
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    self.broken.add(probe.target)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
