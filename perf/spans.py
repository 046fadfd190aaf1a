"""Harness-side tracing: spans around calls into the program's layers.

Spans are recorded by the benchmark, not by the program: either with
``recorder.span(name)`` around a call the harness makes itself, or by
``recorder.wrap(owner, attr, name)``, which swaps a public function
(module attribute or method) for a recording wrapper for the length of
a traced run.  Each span has a name, start, end, the span that caused
it and the job / request id it belongs to; all are kept in memory and
written out once, at exit.

There is one span stack, not one per thread: traced runs are strictly
single-flight (one job or request at a time), and the serving app hands
work to an executor thread while the calling thread waits, so the stack
follows the request across that hop.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class NullRecorder:
    """Tracing off: ``span`` costs one no-op context manager."""

    job = None

    def span(self, name, **attrs):
        return contextlib.nullcontext({})


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.job = None
        #: Wrappers pass straight through while this is False.
        self.active = True

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr`` until
        :meth:`unwrap_all`.  ``on_result(record, result)`` may copy a
        count off the return value onto the span."""
        original = getattr(owner, attr)  # AttributeError: the layer moved

        @functools.wraps(original)
        def recording(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        setattr(owner, attr, recording)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> "dict[int, float]":
    """Span id -> its duration minus the time its child spans cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
