"""Spans around the benchmark's calls into the library, and what they add up to.

A span is a dict with ``name`` (``<layer>.<function>``, or ``perfbench.op``
for one whole operation), ``start`` and ``end`` (``time.perf_counter``
seconds), ``parent`` (index of the enclosing span or None), ``op`` (the
operation index; ``SETUP`` and ``REFERENCE`` mark calls outside the timed
loop) and any counts attached with ``Calls.annotate``.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import time

SETUP = -1
REFERENCE = -2
OP_SPAN = "perfbench.op"


class Calls:
    """Calls into the library, with a span around each when ``spans`` is a list.

    ``layer`` names the last call started, so an exception escaping an
    operation is charged to the layer that raised it.  ``before``, when set,
    runs ahead of every call (the runner uses it to probe host speed during
    set-up).
    """

    def __init__(self, spans: list | None = None):
        self.spans = spans
        self.layer = None
        self.op = SETUP
        self.parent = None
        self.before = None

    @property
    def traced(self) -> bool:
        return self.spans is not None

    def __call__(self, name: str, fn, *args, **kwargs):
        if self.before is not None:
            self.before()
        self.layer = name.split(".", 1)[0]
        if self.spans is None:
            return fn(*args, **kwargs)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self.parent, "op": self.op}
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()

    def annotate(self, **counts) -> None:
        """Attach counts to the most recent span (no-op when untraced)."""
        if self.spans:
            self.spans[-1].update(counts)

    def begin_op(self, op: int) -> None:
        self.op = op
        if self.spans is not None:
            self.parent = len(self.spans)
            self.spans.append({"name": OP_SPAN, "start": time.perf_counter(), "end": None,
                               "parent": None, "op": op})

    def end_op(self) -> None:
        if self.spans is not None:
            self.spans[self.parent]["end"] = time.perf_counter()
        self.op = SETUP
        self.parent = None


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own
