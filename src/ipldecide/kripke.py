"""Finite Kripke models: forcing, heights, and countermodel verification.

A model is a finite poset with a minimum (the root) and a monotone
valuation.  The order is stored transitively closed as per-world up-set bit
vectors so ``a <= b`` is one mask test.  Models are immutable once built;
forcing memo tables are per-query scratch state, which keeps concurrent
read-only queries safe.

Every non-validity verdict the package emits is re-checked against this
module: :func:`check_countermodel` is the semantic oracle of last resort.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .formula import AND, BOT, OR, VAR, Formula, iter_bits


class UnknownWorld(KeyError):
    pass


class KripkeModel:
    """Finite rooted poset with monotone valuation.

    ``up[w]`` is the bit mask of worlds >= w (reflexive).  ``valuation[w]``
    is the set of variable names true at w.  ``labels`` optionally tags each
    world with its provenance (e.g. the id of the sequent it came from).
    """

    def __init__(self, up: Sequence[int], root: int,
                 valuation: Sequence[frozenset[str]],
                 labels: Sequence[object] | None = None):
        self.n = len(up)
        self.up = tuple(up)
        self.root = root
        self.valuation = tuple(frozenset(v) for v in valuation)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.n))

    @classmethod
    def from_order_pairs(cls, n: int, pairs: Iterable[tuple[int, int]], root: int,
                         valuation: Sequence[Iterable[str]],
                         labels: Sequence[object] | None = None) -> "KripkeModel":
        """Build from covering (or any generating) pairs ``(below, above)``.

        The reflexive-transitive closure is computed here, once.
        """
        up = [1 << w for w in range(n)]
        succ: list[list[int]] = [[] for _ in range(n)]
        for below, above in pairs:
            succ[below].append(above)
        # Propagate to a fixpoint; n is small everywhere this package goes.
        changed = True
        while changed:
            changed = False
            for w in range(n):
                m = up[w]
                for v in succ[w]:
                    m |= up[v]
                if m != up[w]:
                    up[w] = m
                    changed = True
        return cls(up, root, [frozenset(v) for v in valuation], labels)

    def worlds(self) -> range:
        return range(self.n)

    def leq(self, a: int, b: int) -> bool:
        return (self.up[a] >> b) & 1 == 1

    def check_world(self, w: int) -> None:
        if not (0 <= w < self.n):
            raise UnknownWorld(w)

    def successors(self, w: int) -> list[int]:
        """Worlds strictly above w."""
        return [v for v in iter_bits(self.up[w]) if v != w]

    def covering_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction, as (below, above) pairs."""
        out = []
        for a in range(self.n):
            for b in self.successors(a):
                between = (self.up[a] & ~(1 << a) & ~(1 << b))
                if not any((self.up[c] >> b) & 1 for c in iter_bits(between) if c != b):
                    out.append((a, b))
        return out


def forces(model: KripkeModel, world: int, f: Formula,
           cache: dict[tuple[int, int], bool] | None = None) -> bool:
    """The forcing relation at ``world``; memoized per (world, formula id)."""
    model.check_world(world)
    if cache is None:
        cache = {}
    return _forces(model, world, f, cache)


def _forces(model: KripkeModel, world: int, f: Formula,
            cache: dict[tuple[int, int], bool]) -> bool:
    key = (world, f.id)
    hit = cache.get(key)
    if hit is not None:
        return hit
    k = f.kind
    if k == BOT:
        val = False
    elif k == VAR:
        val = f.name in model.valuation[world]
    elif k == AND:
        val = _forces(model, world, f.left, cache) and _forces(model, world, f.right, cache)
    elif k == OR:
        val = _forces(model, world, f.left, cache) or _forces(model, world, f.right, cache)
    else:  # IMP: every upper world refuting the consequent must refute the antecedent
        val = True
        for v in iter_bits(model.up[world]):
            if _forces(model, v, f.left, cache) and not _forces(model, v, f.right, cache):
                val = False
                break
    cache[key] = val
    return val


def height_of(model: KripkeModel, world: int) -> int:
    """Maximum distance from ``world`` to a final (maximal) world."""
    model.check_world(world)
    memo: dict[int, int] = {}

    def h(w: int) -> int:
        if w in memo:
            return memo[w]
        succ = model.successors(w)
        memo[w] = 0 if not succ else 1 + max(h(v) for v in succ)
        return memo[w]

    return h(world)


def height(model: KripkeModel) -> int:
    return height_of(model, model.root)


def model_problems(model: KripkeModel, goal: Formula) -> list[str]:
    """Everything wrong with ``model`` as a countermodel for ``goal``."""
    problems = []
    n = model.n
    for w in range(n):
        if not (model.up[w] >> w) & 1:
            problems.append(f"order: not reflexive at world {w}")
    for a in range(n):
        for b in iter_bits(model.up[a]):
            if model.up[b] & ~model.up[a]:
                problems.append(f"order: not transitive at {a} <= {b}")
            if b != a and (model.up[b] >> a) & 1:
                problems.append(f"order: not antisymmetric on {a}, {b}")
    root_up = model.up[model.root]
    if root_up != (1 << n) - 1:
        problems.append("order: root is not the minimum")
    for a in range(n):
        for b in model.successors(a):
            if not model.valuation[a] <= model.valuation[b]:
                problems.append(f"monotonicity: valuation shrinks from {a} to {b}")
    if not problems and forces(model, model.root, goal):
        problems.append("forcing: the root forces the goal")
    return problems


def check_countermodel(model: KripkeModel, goal: Formula) -> bool:
    """True iff the model invariants hold and the root refutes ``goal``."""
    return not model_problems(model, goal)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def structured_export(model: KripkeModel) -> dict:
    return {
        "worlds": [
            {"id": w, "val": sorted(model.valuation[w]), "label": model.labels[w]}
            for w in model.worlds()
        ],
        "order": [[a, b] for a, b in model.covering_pairs()],
        "root": model.root,
    }


def graph_export(model: KripkeModel) -> str:
    """Graphviz dot, drawn root at the bottom."""
    lines = ["digraph model {", "  rankdir=BT;", "  node [shape=box];"]
    for w in model.worlds():
        atoms = ", ".join(sorted(model.valuation[w]))
        shape = ' peripheries=2' if w == model.root else ""
        lines.append(f'  w{w} [label="{w}: {atoms}"{shape}];')
    for a, b in model.covering_pairs():
        lines.append(f"  w{a} -> w{b};")
    lines.append("}")
    return "\n".join(lines)


def text_export(model: KripkeModel) -> str:
    lines = []
    for w in sorted(model.worlds(), key=lambda w: (height_of(model, w), w)):
        atoms = ", ".join(sorted(model.valuation[w])) or "-"
        above = " ".join(str(b) for a, b in model.covering_pairs() if a == w)
        mark = " (root)" if w == model.root else ""
        lines.append(f"world {w}{mark}: {atoms}" + (f"  above: {above}" if above else ""))
    return "\n".join(lines)


def typeset_export(model: KripkeModel) -> str:
    """A small LaTeX picture of the poset, root at the bottom."""
    levels: dict[int, list[int]] = {}
    for w in model.worlds():
        levels.setdefault(height_of(model, w), []).append(w)
    out = ["\\begin{tikzpicture}[every node/.style={draw,rounded corners}]"]
    coords = {}
    maxh = max(levels)
    for h, ws in sorted(levels.items()):
        for i, w in enumerate(sorted(ws)):
            x, y = 2.5 * i, 1.5 * (maxh - h)
            coords[w] = (x, y)
            atoms = ",".join(sorted(model.valuation[w]))
            out.append(f"  \\node (w{w}) at ({x},{y}) {{{w}: ${atoms}$}};")
    for a, b in model.covering_pairs():
        out.append(f"  \\draw (w{a}) -- (w{b});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out)
