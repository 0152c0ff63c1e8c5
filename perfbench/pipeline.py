"""One formula through the documented library pipeline, and the gate on it.

The steps run in the order ``ipldecide.cli._decide_one`` uses: parse, build
the goal universe, saturate, then certify the verdict, either by extracting
and checking a Kripke countermodel or by rebuilding a backward derivation,
translating it to G3i and checking that.  The clock covers exactly these
steps; the descriptive numbers in a :class:`Decision` are read after it
stops.
"""

from __future__ import annotations

import signal
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

STEPS = ("parse", "build_universe", "fsearch", "extract_model",
         "check_countermodel", "bsearch", "to_g3i", "check_g3i")


def library_steps() -> dict:
    """The pipeline's steps, as the package exports them."""
    import ipldecide
    return {name: getattr(ipldecide, name) for name in STEPS}


@dataclass
class Decision:
    """A checked verdict on one formula and what the run learnt about it."""
    seconds: float
    valid: bool
    certified: bool
    backtracks: int = 0
    critical_choices: int = 0
    certificate_nodes: int = 0
    height: int | None = None
    worlds: int | None = None
    subformulas: int = 0
    stored: int = 0
    db_final: int = 0
    iterations: int = 0
    # Filled only when the search collects statistics (the traced pass).
    stats: list | None = None
    stored_by_rule: Counter | None = None


def decide(text: str, steps: dict, *, min_height: bool,
           collect_stats: bool = False) -> Decision:
    """Time ``text`` to a checked verdict through ``steps``."""
    from ipldecide.backward import BSearchTrace
    from ipldecide.kripke import height

    trace = BSearchTrace()
    t0 = perf_counter()
    goal = steps["parse"](text)
    u = steps["build_universe"](goal)
    outcome = steps["fsearch"](u, min_height=min_height,
                               collect_stats=collect_stats)
    if outcome.is_proof:
        model = steps["extract_model"](outcome.store, outcome.root).model
        certified = steps["check_countermodel"](model, goal)
        g3 = None
    else:
        tree = steps["bsearch"](outcome.db, trace=trace)
        g3 = steps["to_g3i"](tree)
        certified = steps["check_g3i"](g3, outcome.universe) is None
    seconds = perf_counter() - t0

    d = Decision(seconds, valid=not outcome.is_proof, certified=certified,
                 subformulas=u.n, stored=len(outcome.store),
                 db_final=len(outcome.db), iterations=outcome.iterations)
    if g3 is None:
        d.height, d.worlds = height(model), model.n
    else:
        d.backtracks = trace.backtracks
        d.critical_choices = len(trace.critical_choices)
        d.certificate_nodes = sum(1 for _ in g3.nodes())
    if collect_stats:
        d.stats = outcome.stats
        d.stored_by_rule = Counter(node.rule for node in outcome.store.nodes)
    return d


class Overrun(Exception):
    """A formula ran past the benchmark's per-formula wall budget."""


def _raise_overrun(signum, frame):
    raise Overrun()


class Budget:
    """Wall-clock budget for one block, enforced with SIGALRM in this process."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, _raise_overrun)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def problems(d: Decision, expected: bool | None, pinned_height: int | None,
             ) -> list[str]:
    """Why a decision fails the gate; empty when it passes."""
    out = []
    if expected is not None and d.valid != expected:
        out.append(f"verdict {'valid' if d.valid else 'non-valid'}, expected "
                   f"{'valid' if expected else 'non-valid'}")
    if not d.certified:
        out.append("certificate rejected by its checker")
    if d.backtracks:
        out.append(f"{d.backtracks} backtracks in the backward reconstruction")
    if pinned_height is not None and d.height != pinned_height:
        out.append(f"countermodel height {d.height}, pinned {pinned_height}")
    return out
