"""In-memory spans recorded by wrappers installed around public functions.

A :class:`SpanLog` keeps one record per call -- name, start, end and the
index of the enclosing span -- in flat arrays, and is written out once,
when the run ends.  :class:`Probes` installs timing wrappers on module
functions and class attributes and puts the original objects back on
:meth:`Probes.remove`.  Nothing under ``src/`` is modified: the wrappers
replace attributes where the program looks them up, for the duration of
one traced set-up or repetition.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Called with the wrapped call's positional arguments and its result;
#: returns counter increments to add to the log.
AfterHook = Callable[[tuple, Any], dict[str, float]]


class SpanLog:
    """Spans of one run, kept in memory until :meth:`write`.

    ``outermost[i]`` is 1 when no enclosing span has the same name, so a
    name that wraps itself (a guarded stopper calling the stopper it
    guards, ``MLP.__call__`` aliasing ``MLP.forward``) is counted once.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._depth: Counter[int] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(1 if self._depth[nid] == 0 else 0)
        self._depth[nid] += 1
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[index]] -= 1

    def add(self, counts: dict[str, float]) -> None:
        self.counters.update(counts)

    def totals(
        self, window: tuple[float, float] | None = None
    ) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls), over
        the spans that start inside ``window`` (``perf_counter`` times)
        or over all of them.

        Inclusive seconds and calls count outermost spans only; self
        seconds are each span's duration minus the time its direct
        children cover, summed over every span of the name.
        """
        n = len(self)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        if window is not None:
            inside = (start >= window[0]) & (start < window[1])
            name_id, outer = name_id[inside], outer[inside]
            duration, self_time = duration[inside], self_time[inside]
        k = len(self.names)
        inclusive = np.bincount(name_id[outer], duration[outer], minlength=k)
        self_sum = np.bincount(name_id, self_time, minlength=k)
        calls = np.bincount(name_id[outer], minlength=k)
        return {
            name: (float(inclusive[i]), float(self_sum[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (and the span names) as one ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=np.str_),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def timed(fn: Callable, name: str, log: SpanLog, after: AfterHook | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if after is not None:
            log.add(after(args, result))
        return result

    return wrapper


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:func"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Probes:
    """Timing wrappers installed on (owner, attribute) pairs.

    Class attributes are read from the class ``__dict__`` and rewrapped
    in the same descriptor type, so a ``staticmethod`` stays callable
    unbound and a ``classmethod`` still receives the class.
    """

    def __init__(self, log: SpanLog | None = None) -> None:
        self.log = log
        self._saved: list[tuple[Any, str, Any]] = []

    def install(
        self,
        target: str,
        name: str,
        after: AfterHook | None = None,
        factory: Callable[[Callable], Callable] | None = None,
    ) -> None:
        """Wrap ``target`` in a span called ``name``; ``factory``, when
        given, builds the replacement function from the original instead."""
        owner, attr = resolve(target)
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{target}: not defined on {owner.__name__}")
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)

        def wrap(fn: Callable) -> Callable:
            if factory is not None:
                return factory(fn)
            if self.log is None:
                raise ValueError("a span needs a SpanLog")
            return timed(fn, name, self.log, after)

        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(wrap(raw.__func__))
        elif callable(raw):
            wrapped = wrap(raw)
        else:
            raise TypeError(f"{target} is not callable")
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Put every original object back, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()
