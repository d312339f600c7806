"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or None, ``op`` the id shared by every span of one op.
Spans are kept in a list and written out once, when the run ends.

``SpanRecorder.instrument`` wraps the package's own functions for the
length of one traced op, so the traced op runs the package's real code
path and each wrapped call opens a span; the package is not changed.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _wrap(raw, rec: "SpanRecorder", name: str):
    """``raw`` (a function or classmethod) with a span around each call."""
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, rec, name))

    @functools.wraps(raw)
    def call(*args, **kwargs):
        with rec.span(name):
            return raw(*args, **kwargs)

    return call


class SpanRecorder:
    """Records nested spans for one traced pass."""

    def __init__(self, pass_name: str):
        self.pass_name = pass_name
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def op(self, op_id, root: str = "op"):
        """Root span of one op; spans opened inside it share ``op_id``.

        Set-up repeats use ``root="setup"`` so they are not taken for ops.
        """
        self._op = op_id
        try:
            with self.span(root):
                yield
        finally:
            self._op = None

    @contextmanager
    def instrument(self, targets):
        """Wrap each ``(owner, attribute, span name)`` in ``targets`` while
        the block runs, then put the originals back.

        ``owner`` is a module or a class; the attribute is replaced where
        callers look it up at call time, so name the module a caller
        imported it into (``network.encode``, not ``storage.encode``).
        """
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, _wrap(raw, self, name))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def per_op_ms(self, name: str) -> list[float]:
        """Summed duration of ``name`` spans in each op that has one, in ms."""
        sums: dict = {}
        for s in self.spans:
            if s["name"] == name and s["end"] is not None:
                sums[s["op"]] = sums.get(s["op"], 0.0) + (s["end"] - s["start"]) * 1e3
        return list(sums.values())

    def per_op_child_ms(self, parent: str) -> list[float]:
        """Per op, the time covered by the direct children of its ``parent``
        spans, in ms."""
        parents = {i: s["op"] for i, s in enumerate(self.spans) if s["name"] == parent}
        sums = {op: 0.0 for op in parents.values()}
        for s in self.spans:
            if s["parent"] in parents and s["end"] is not None:
                sums[parents[s["parent"]]] += (s["end"] - s["start"]) * 1e3
        return list(sums.values())

    def to_json(self) -> dict:
        return {"pass": self.pass_name, "spans": self.spans}


class NullRecorder:
    """Stand-in for untraced ops: every span is a no-op and nothing is
    wrapped."""

    @contextmanager
    def op(self, op_id, root: str = "op"):
        yield

    @contextmanager
    def instrument(self, targets):
        yield

    @contextmanager
    def span(self, name: str):
        yield


NULL = NullRecorder()


def write_spans(path: Path, recorders: list[SpanRecorder]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([r.to_json() for r in recorders]) + "\n")
