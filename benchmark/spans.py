"""In-memory spans around calls into lpplscan's layers, reduced to self time.

A span is (name, start, end, parent index, region, attrs). Spans are opened
by the benchmark's own code, either around a direct call (`Tracer.span`) or
by wrapping a public name that one layer calls another through
(`Tracer.wrap`), and are written out only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.region = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.region, {} if attrs is None else attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Yield the span's attrs dict, so the body can add counts; no-op when disabled."""
        if not self.enabled:
            yield attrs
            return
        idx = self.open(name, attrs)
        try:
            yield attrs
        finally:
            self.close(idx)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace module.attr with a spanned call; describe(args, result) -> attrs."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if describe is not None:
                self.spans[idx][5] = describe(args, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def select(self, name: str, region: str | None = None) -> list[list]:
        return [s for s in self.spans if s[0] == name and (region is None or s[4] == region)]

    def self_times(self) -> dict:
        """region -> span name -> {calls, total_s, self_s}; self time excludes child spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, region, attrs in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
        for i, (name, start, end, parent, region, attrs) in enumerate(self.spans):
            row = out[region][name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return {region: dict(rows) for region, rows in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "region", "attrs"],
                    "self_time": self.self_times(),
                    "spans": self.spans,
                },
                fh,
            )
