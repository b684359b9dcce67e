"""Per-layer timing for the traced run.

The benchmark times each layer by wrapping the layer's public function
from the outside (the program itself is not instrumented for this).
Every wrapped call records its inclusive time; calls nest, so a
layer's *self* time is its inclusive time minus the time of the
wrapped calls made inside it.  Timers live in memory and are read by
phase (set-up, throughput, ...) through :meth:`LayerTimer.snapshot`.

Functions imported by name into other modules are patched in every
loaded ``repro`` module that holds them, so the timer sees the call
whichever module makes it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class LayerTimer:
    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        stack.append(0.0)  # time spent in nested spans
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            self.inclusive[layer] += elapsed
            self.self_time[layer] += elapsed - nested
            self.calls[layer] += 1

    def _timed(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def wrap_method(self, cls, name: str, layer: str) -> None:
        """Time ``cls.name`` (plain, class or static method)."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            patched = classmethod(self._timed(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._timed(layer, raw.__func__))
        else:
            patched = self._timed(layer, raw)
        setattr(cls, name, patched)
        self._undo.append((cls, name, raw))

    def wrap_function(self, fn, layer: str) -> None:
        """Time module-level function ``fn`` wherever it was imported."""
        patched = self._timed(layer, fn)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, patched)
                    self._undo.append((module, attr, fn))
                    found = True
        if not found:
            raise RuntimeError(f"no loaded repro module holds {fn!r}")

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading --------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[float, float, int]]:
        return {
            layer: (self.inclusive[layer], self.self_time[layer], self.calls[layer])
            for layer in self.calls
        }

    @staticmethod
    def since(now: dict, before: dict) -> dict[str, tuple[float, float, int]]:
        out = {}
        for layer, (inc, own, calls) in now.items():
            b_inc, b_own, b_calls = before.get(layer, (0.0, 0.0, 0))
            out[layer] = (inc - b_inc, own - b_own, calls - b_calls)
        return out


def inclusive(delta: dict, layer: str) -> float:
    return delta.get(layer, (0.0, 0.0, 0))[0]


def self_time(delta: dict, layer: str) -> float:
    return delta.get(layer, (0.0, 0.0, 0))[1]


def calls(delta: dict, layer: str) -> int:
    return delta.get(layer, (0.0, 0.0, 0))[2]
