"""In-memory tracing for the traced run.

Coarse boundaries (one formula, and each pipeline step inside it) become
spans with a parent.  Hot inner calls (``GoalUniverse.closure``, the names
``ipldecide.search`` imports from ``rules``, and join candidate-set
construction) only bump counters: chain 10 alone makes over 900,000 closure
calls.  One call stack serves both, so the time of a wrapped call is
charged to its caller and every frame knows its self time.  Everything stays
in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

SHIFT_FUNCTIONS = ("minimal_shifts", "maximal_avoiding")
SEARCH_IMPORTS = SHIFT_FUNCTIONS + ("subsumes",)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # Frames are [name, seconds spent in wrapped callees, span id or None].
        self.stack: list[list] = []
        # name -> [calls, inclusive seconds, self seconds, results]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.shift_closure_calls = 0
        self.distinct_masks = 0
        self._masks: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open_span(self, name: str, **attrs) -> list:
        parent = self.stack[-1][2] if self.stack else None
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": perf_counter(), **attrs}
        self.spans.append(span)
        frame = [name, 0.0, span["id"]]
        self.stack.append(frame)
        return frame

    def close_span(self, frame: list) -> float:
        end = perf_counter()
        span = self.spans[frame[2]]
        span["end"] = end
        elapsed = end - span["start"]
        span["self"] = elapsed - frame[1]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += elapsed
        if span["parent"] is None:
            # A formula has one goal universe, so its distinct closure
            # arguments are counted per formula.
            self.distinct_masks += len(self._masks)
            self._masks.clear()
        return elapsed

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(frame)
        return wrapper

    def span_steps(self, steps: dict) -> dict:
        return {name: self.spanned(name, fn) for name, fn in steps.items()}

    # -- counters ------------------------------------------------------------

    def counted(self, name: str, fn, *, results: bool = False, closure: bool = False):
        stats = self.counters[name]
        stack = self.stack
        masks = self._masks
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - frame[1]
            if results:
                stats[3] += len(out)
            if closure:
                masks.add((id(args[0]), args[1]))
                if stack and stack[-1][0] in SHIFT_FUNCTIONS:
                    self.shift_closure_calls += 1
            return out
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the hot inner calls; :meth:`uninstall` puts them back."""
        from ipldecide import formula, search
        self._patch(formula.GoalUniverse, "closure",
                    self.counted("closure", formula.GoalUniverse.closure,
                                 closure=True))
        for name in SEARCH_IMPORTS:
            self._patch(search, name,
                        self.counted(name, getattr(search, name),
                                     results=name in SHIFT_FUNCTIONS))
        self._patch(search, "JoinCandidateSet",
                    self.counted("JoinCandidateSet", search.JoinCandidateSet))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_seconds(self, name: str, key: str = "duration") -> float:
        total = 0.0
        for s in self.spans:
            if s["name"] == name:
                total += s["self"] if key == "self" else s["end"] - s["start"]
        return total

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counters": {name: dict(zip(("calls", "seconds", "self_seconds",
                                             "results"), v))
                             for name, v in self.counters.items()},
                "shift_closure_calls": self.shift_closure_calls,
                "distinct_closure_masks": self.distinct_masks}
