"""In-memory spans around the public smbg functions, for the traced run only.

A span is (name, start, end, parent index, run id). The tracer wraps
functions at their module attribute (every smbg module that imported the
same object by name gets the wrapper too) and methods at their class
attribute, so the program itself is unchanged and untraced runs never see
a wrapper. Counts that are cheap to take at the same boundary (candidates
in and out of the merge, map sizes computed from shapes, checkpoint file
sizes, samples through each model block) are recorded beside the spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent, run_id]
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._patches = []           # (owner, attr, original)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name, fn, on_call):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """targets: (span name, owner module or class, attribute, on_call or None)."""
        smbg_modules = [m for n, m in sys.modules.items()
                        if n == "smbg" or n.startswith("smbg.")]
        for name, owner, attr, on_call in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, on_call)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [m for m in smbg_modules
                           if m is not owner and vars(m).get(attr) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def traced(self, targets, run_id):
        """Wrappers installed for the body, spans tagged with run_id."""
        self.run_id = run_id
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- counts ----------------------------------------------------------
    def add(self, key, value):
        self.counts[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    # -- derived -----------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def ancestor_names(self, idx):
        names = set()
        parent = self.spans[idx][3]
        while parent >= 0:
            names.add(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def write(self, path):
        """Spans as JSON lines, with self time, written once at exit."""
        selfs = self.self_times()
        with open(path, "w") as f:
            for i, (span, self_s) in enumerate(zip(self.spans, selfs)):
                name, start, end, parent, run_id = span
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "run_id": run_id,
                                    "self_s": self_s}) + "\n")
