"""The benchmark's workloads: formula texts, known answers and pinned tables.

Every workload is generated in-process from the package's own generators or
from a closed-form family, so nothing is downloaded.  The run seed fixes the
order in which the formulas are decided.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("chains", "ladder-minheight", "random-mixed")

CHAIN_SIZES = range(4, 11)
LADDER_INDICES = range(1, 19)
# Minimal countermodel heights of generate.nishimura(1..18), recorded from
# the engine at the commit that introduced this benchmark.  World counts are
# reported but not pinned.
LADDER_HEIGHTS = (0, 0, 1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 3, 3, 4, 3, 4, 4)
# (variables, maximal size, count) for each stratum of random-mixed.  The
# first stratum is the acceptance suite's distribution.
RANDOM_STRATA = ((3, 12, 500), (4, 28, 600), (4, 40, 400))
RANDOM_TOTAL = sum(count for _, _, count in RANDOM_STRATA)
# The random corpus is fixed: its pass time is dominated by a handful of
# heavy size-40 formulas, so a corpus drawn per run seed would move total_s
# by a factor of two between seeds.  Stratum k uses seed CORPUS_SEED + k.
CORPUS_SEED = 2026

SMOKE_CHAIN_MAX = 6
SMOKE_LADDER_MAX = 8
SMOKE_RANDOM_COUNT = 50


@dataclass
class Workload:
    """Formula texts in decision order, with what the gate expects of each.

    ``expected[i]`` is the known verdict (True = valid), or None when the
    answer comes from the backward oracle after timing.  ``heights[i]`` is
    the pinned countermodel height, or None when heights are not gated.
    ``positions[i]`` is the formula's place in its family before shuffling.
    """
    name: str
    texts: list[str]
    expected: list[bool | None]
    heights: list[int | None]
    min_height: bool
    labels: list[str]
    positions: list[int]


def chain_text(n: int) -> str:
    """(p1->p2) & ... & (p(n-1)->pn) -> (p1->pn), valid for every n >= 2."""
    atoms = [f"p{i}" for i in range(1, n + 1)]
    links = " & ".join(f"({a} -> {b})" for a, b in zip(atoms, atoms[1:]))
    return f"{links} -> ({atoms[0]} -> {atoms[-1]})"


def _chains(smoke: bool):
    sizes = [n for n in CHAIN_SIZES if not smoke or n <= SMOKE_CHAIN_MAX]
    return [(f"chain{n}", chain_text(n), True, None) for n in sizes]


def _ladder(smoke: bool):
    from ipldecide.formula import to_text
    from ipldecide.generate import nishimura
    indices = [i for i in LADDER_INDICES if not smoke or i <= SMOKE_LADDER_MAX]
    return [(f"ladder{i}", to_text(nishimura(i)), False, LADDER_HEIGHTS[i - 1])
            for i in indices]


def _random(smoke: bool):
    from ipldecide.formula import to_text
    from ipldecide.generate import random_formulas
    items = []
    for k, (nvars, size, count) in enumerate(RANDOM_STRATA):
        if smoke:
            count = round(count * SMOKE_RANDOM_COUNT / RANDOM_TOTAL)
        for j, f in enumerate(random_formulas(CORPUS_SEED + k, nvars, size, count)):
            items.append((f"v{nvars}s{size}#{j}", to_text(f), None, None))
    return items


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload, its formulas shuffled by ``seed``."""
    build = {"chains": _chains, "ladder-minheight": _ladder,
             "random-mixed": _random}[name]
    items = list(enumerate(build(smoke)))
    random.Random(seed).shuffle(items)
    positions = [pos for pos, _ in items]
    labels, texts, expected, heights = (list(col) for col in zip(*(it for _, it in items)))
    return Workload(name, texts, expected, heights,
                    min_height=name == "ladder-minheight", labels=labels,
                    positions=positions)
