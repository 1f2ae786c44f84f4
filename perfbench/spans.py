"""In-memory span recorder used by the benchmark's traced runs.

A span is (name, start, end, parent, op id), with times from
time.perf_counter(), which reads CLOCK_MONOTONIC on Linux and so is
comparable between the harness and the op processes it launches. Spans
are kept in a list and written out once, when the run ends. Wrapping a
module attribute records one span per call; a span that an exception
passed through is marked ``raised``, so calls and exceptions are counted
from the spans.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **notes):
        """Record one span; it nests under the innermost open span of this thread."""
        stack = self._stack()
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": stack[-1] if stack else None, "op": self.op_id, "notes": notes}
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec["notes"]["raised"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around each call; ``note(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec["notes"].update(note(args, kwargs, result))
                return result

        return traced

    def install(self, targets) -> None:
        """Patch each (module, attribute, span name, note) so calls through it are traced."""
        for module_name, attr, name, note in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
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


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
    out = []
    for i, rec in enumerate(spans):
        s, e = rec["start"], rec["end"]
        inner = [(max(c["start"], s), min(c["end"], e)) for c in children.get(i, [])]
        out.append((e - s) - covered((a, b) for a, b in inner if b > a))
    return out
