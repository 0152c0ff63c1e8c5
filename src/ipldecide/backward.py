"""The validity side: a terminating backward sequent calculus, the database
evaluation relation, backtracking-free reconstruction, and G3i export.

Backward sequents come in the same two flavours as the forward ones;
irregular sequents only admit right rules, the left-implication rule keeps
its principal formula in the left premise (which flips to irregular), and
the two right-implication rules are separated by a closure test on the
context.  A lexicographic weight strictly drops through every backward rule
application, so exhaustive backward search terminates and serves as the
independent decision oracle.

``bsearch`` rebuilds a derivation of a valid goal from a saturated forward
database without ever backtracking: at the non-invertible choice points it
queries the database through the evaluation relation and takes a branch
the database refutes.  The result translates node-for-node into a standard
G3i derivation, which a purely local checker validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .formula import (AND, IMP, OR, Formula, GoalUniverse, build_universe,
                      iter_bits, to_text)
from .search import Database


class InternalInvariantViolation(RuntimeError):
    pass


class BSequent:
    """A backward sequent: context within the left subformulas, right side a
    right subformula.  Regular and irregular only differ in which rules may
    introduce them."""

    __slots__ = ("u", "regular", "psi", "rhs", "_hash")

    def __init__(self, u: GoalUniverse, regular: bool, psi: int, rhs: int):
        if psi & ~u.sfl:
            raise ValueError("context outside the left subformulas")
        if not (u.sfr >> rhs) & 1:
            raise ValueError("right side is not a right subformula")
        self.u = u
        self.regular = regular
        self.psi = psi
        self.rhs = rhs
        self._hash = hash((regular, psi, rhs))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BSequent) and self.u is other.u
                and self.regular == other.regular and self.psi == other.psi
                and self.rhs == other.rhs)

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        arrow = "=>g" if self.regular else "->g"
        return f"{self.u.render_mask(self.psi)} {arrow} {to_text(self.u.sf[self.rhs])}"

    def __repr__(self) -> str:
        return f"<{self.render()}>"


class BWeight(NamedTuple):
    """Strictly drops from conclusion to every premise, lexicographically."""
    missing: int   # left subformulas not yet in the closure of the context
    type_bit: int  # regular 1, irregular 0
    size: int      # symbols in the sequent


def bweight(tau: BSequent) -> BWeight:
    u = tau.u
    missing = (u.sfl & ~u.closure(tau.psi)).bit_count()
    sz = u.sizes[tau.rhs] + sum(u.sizes[i] for i in iter_bits(tau.psi))
    return BWeight(missing, 1 if tau.regular else 0, sz)


def evaluate(db: Database, tau: BSequent) -> bool:
    """The database evaluation relation.

    Regular: some regular entry with the same right side whose left closure
    covers the context.  Irregular: some irregular entry with the same right
    side whose stable part is inside the context and whose whole left side
    covers it.
    """
    u = tau.u
    for nid in db.by_rhs.get(tau.rhs, ()):
        seq = db.store.nodes[nid].seq
        if tau.regular:
            if seq.regular and not (tau.psi & ~u.closure(seq.gamma)):
                return True
        else:
            if not seq.regular and not (seq.sigma & ~tau.psi) \
                    and not (tau.psi & ~(seq.sigma | seq.theta)):
                return True
    return False


def critical(tau: BSequent) -> bool:
    """Only the non-invertible rules apply: the context sits inside the
    atom/implication slice and the right side is prime or a disjunction
    (regular), or a disjunction (irregular)."""
    u = tau.u
    if tau.psi & ~u.gbar:
        return False
    f = u.sf[tau.rhs]
    if tau.regular:
        return bool((u.prime_mask >> tau.rhs) & 1) or f.kind == OR
    return f.kind == OR


AX, LBOT, LAND, RAND, LOR, ROR1, ROR2, LIMP, RIMP_IN, RIMP_NOTIN = (
    "ax", "l-bot", "l-and", "r-and", "l-or", "r-or1", "r-or2", "l-imp",
    "r-imp-in", "r-imp-notin")


@dataclass
class BNode:
    """One node of a backward derivation tree."""
    seq: BSequent
    rule: str
    children: tuple["BNode", ...] = ()
    principal: Optional[int] = None  # position of the principal left formula

    def edges(self) -> Iterable[tuple["BNode", "BNode"]]:
        for c in self.children:
            yield (self, c)
            yield from c.edges()

    def nodes(self) -> Iterable["BNode"]:
        yield self
        for c in self.children:
            yield from c.nodes()


def _is_axiom(tau: BSequent) -> Optional[str]:
    if (tau.psi >> tau.rhs) & 1:
        return AX
    u = tau.u
    if tau.regular and u.bot_pos >= 0 and (tau.psi >> u.bot_pos) & 1:
        return LBOT
    return None


@dataclass
class BSearchTrace:
    """Instrumentation: critical choices taken and backtracks performed
    (always zero; a nonzero count would mean the database lied)."""
    critical_choices: list[tuple[BSequent, str, Optional[int]]] = field(
        default_factory=list)
    backtracks: int = 0


def bsearch(db: Database, goal: Formula | GoalUniverse | None = None,
            trace: BSearchTrace | None = None) -> BNode:
    """Reconstruct a backward derivation of the goal from a saturated
    database, with zero backtracking.

    Invertible rules are applied eagerly in a fixed order; at critical
    sequents the branch whose subgoal the database does NOT evaluate is the
    one that must stay provable, and the correctness argument guarantees
    such a branch exists.  Raises :class:`InternalInvariantViolation` if it
    does not, which would signal a non-saturated database.
    """
    u = db.u if goal is None else (
        goal if isinstance(goal, GoalUniverse) else build_universe(goal))
    root = BSequent(u, True, 0, u.goal_pos)
    return bsearch_from(db, root, trace)


def bsearch_from(db: Database, tau: BSequent,
                 trace: BSearchTrace | None = None) -> BNode:
    """Backtracking-free reconstruction from any sequent the database does
    not evaluate (an evaluated sequent is refutable, hence unprovable)."""
    if evaluate(db, tau):
        raise InternalInvariantViolation(
            f"database evaluates {tau.render()}: it is refutable")
    return _bsearch(db, tau, trace if trace is not None else BSearchTrace())


def _bsearch(db: Database, tau: BSequent, trace: BSearchTrace) -> BNode:
    u = tau.u
    ax = _is_axiom(tau)
    if ax is not None:
        return BNode(tau, ax)
    if not critical(tau):
        return _invertible_step(db, tau, trace)

    f = u.sf[tau.rhs]
    if not tau.regular:
        # Irregular disjunction: commit to a disjunct the database refutes.
        for rule, k in ((ROR1, u.pos[f.left.id]), (ROR2, u.pos[f.right.id])):
            sub = BSequent(u, False, tau.psi, k)
            if not evaluate(db, sub):
                trace.critical_choices.append((tau, rule, None))
                return BNode(tau, rule, (_bsearch(db, sub, trace),))
        raise InternalInvariantViolation(f"no refuted disjunct at {tau.render()}")

    # Regular critical: left implications first (by antecedent position),
    # then the right disjuncts.
    choices: list[tuple[str, int, Optional[int]]] = []
    imps = sorted(iter_bits(tau.psi & u.imp_mask), key=lambda i: (u.ante[i], i))
    for i in imps:
        choices.append((LIMP, u.ante[i], i))
    if f.kind == OR:
        choices.append((ROR1, u.pos[f.left.id], None))
        choices.append((ROR2, u.pos[f.right.id], None))
    for rule, z, principal in choices:
        sub = BSequent(u, False, tau.psi, z)
        if evaluate(db, sub):
            continue
        trace.critical_choices.append((tau, rule, principal))
        left = _bsearch(db, sub, trace)
        if rule == LIMP:
            b = u.pos[u.sf[principal].right.id]
            psi_b = (tau.psi & ~(1 << principal)) | (1 << b)
            right = _bsearch(db, BSequent(u, True, psi_b, tau.rhs), trace)
            return BNode(tau, LIMP, (left, right), principal)
        return BNode(tau, rule, (left,))
    raise InternalInvariantViolation(f"no admissible branch at {tau.render()}")


def _invertible_step(db: Database, tau: BSequent, trace: BSearchTrace) -> BNode:
    u = tau.u
    f = u.sf[tau.rhs]
    if tau.regular:
        for i in iter_bits(tau.psi):
            g = u.sf[i]
            if g.kind == AND:
                psi = (tau.psi & ~(1 << i)) | (1 << u.pos[g.left.id]) | (1 << u.pos[g.right.id])
                child = _bsearch(db, BSequent(u, True, psi, tau.rhs), trace)
                return BNode(tau, LAND, (child,), i)
        if f.kind == AND:
            kids = tuple(_bsearch(db, BSequent(u, True, tau.psi, u.pos[c.id]), trace)
                         for c in (f.left, f.right))
            return BNode(tau, RAND, kids)
        for i in iter_bits(tau.psi):
            g = u.sf[i]
            if g.kind == OR:
                base = tau.psi & ~(1 << i)
                kids = tuple(
                    _bsearch(db, BSequent(u, True, base | (1 << u.pos[c.id]), tau.rhs),
                             trace)
                    for c in (g.left, g.right))
                return BNode(tau, LOR, kids, i)
        if f.kind == IMP:
            return _right_imp(db, tau, trace, regular=True)
    else:
        if f.kind == AND:
            kids = tuple(_bsearch(db, BSequent(u, False, tau.psi, u.pos[c.id]), trace)
                         for c in (f.left, f.right))
            return BNode(tau, RAND, kids)
        if f.kind == IMP:
            return _right_imp(db, tau, trace, regular=False)
    raise InternalInvariantViolation(f"no invertible rule at {tau.render()}")


def _right_imp(db: Database, tau: BSequent, trace: BSearchTrace, regular: bool) -> BNode:
    u = tau.u
    f = u.sf[tau.rhs]
    a, b = u.pos[f.left.id], u.pos[f.right.id]
    if (u.closure(tau.psi) >> a) & 1:
        child = _bsearch(db, BSequent(u, regular, tau.psi, b), trace)
        return BNode(tau, RIMP_IN, (child,))
    child = _bsearch(db, BSequent(u, True, tau.psi | (1 << a), b), trace)
    return BNode(tau, RIMP_NOTIN, (child,))


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def oracle_decide(goal: Formula | GoalUniverse) -> bool:
    """Validity by exhaustive backward search with full backtracking over
    all rule instances, memoizing decided sequents.  Terminating because the
    weight drops through every rule; independent of the forward engine."""
    u = goal if isinstance(goal, GoalUniverse) else build_universe(goal)
    memo: dict[tuple[bool, int, int], bool] = {}

    def provable(regular: bool, psi: int, rhs: int) -> bool:
        key = (regular, psi, rhs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # The weight drops through every backward application, so the
        # recursion is well-founded and plain memoization is sound.
        result = _provable(regular, psi, rhs)
        memo[key] = result
        return result

    def _provable(regular: bool, psi: int, rhs: int) -> bool:
        if (psi >> rhs) & 1:
            return True
        if regular and u.bot_pos >= 0 and (psi >> u.bot_pos) & 1:
            return True
        f = u.sf[rhs]
        if f.kind == AND:
            lp, rp = u.pos[f.left.id], u.pos[f.right.id]
            if provable(regular, psi, lp) and provable(regular, psi, rp):
                return True
        if f.kind == OR:
            lp, rp = u.pos[f.left.id], u.pos[f.right.id]
            if provable(False, psi, lp) or provable(False, psi, rp):
                return True
        if f.kind == IMP:
            a, b = u.pos[f.left.id], u.pos[f.right.id]
            if (u.closure(psi) >> a) & 1:
                if provable(regular, psi, b):
                    return True
            elif provable(True, psi | (1 << a), b):
                return True
        if regular:
            for i in iter_bits(psi):
                g = u.sf[i]
                if g.kind == AND:
                    p2 = (psi & ~(1 << i)) | (1 << u.pos[g.left.id]) | (1 << u.pos[g.right.id])
                    if provable(True, p2, rhs):
                        return True
                elif g.kind == OR:
                    base = psi & ~(1 << i)
                    if provable(True, base | (1 << u.pos[g.left.id]), rhs) and \
                            provable(True, base | (1 << u.pos[g.right.id]), rhs):
                        return True
                elif g.kind == IMP:
                    a, b = u.ante[i], u.pos[g.right.id]
                    if provable(False, psi, a) and \
                            provable(True, (psi & ~(1 << i)) | (1 << b), rhs):
                        return True
        return False

    return provable(True, 0, u.goal_pos)


# ---------------------------------------------------------------------------
# Local validity checking and G3i translation
# ---------------------------------------------------------------------------

def _check_node(node: BNode, path: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], str]]:
    u = node.seq.u
    tau = node.seq
    kids = node.children
    f = u.sf[tau.rhs]

    def bad(reason: str):
        return (path, reason)

    r = node.rule
    if r == AX:
        if not (tau.psi >> tau.rhs) & 1 or kids:
            return bad("axiom without its right side on the left")
    elif r == LBOT:
        if not tau.regular or u.bot_pos < 0 or not (tau.psi >> u.bot_pos) & 1 or kids:
            return bad("falsum axiom without falsum on the left")
    elif r == LAND:
        i = node.principal
        g = u.sf[i] if i is not None else None
        if (not tau.regular or g is None or g.kind != AND
                or not (tau.psi >> i) & 1 or len(kids) != 1):
            return bad("malformed left conjunction step")
        else:
            want = (tau.psi & ~(1 << i)) | (1 << u.pos[g.left.id]) | (1 << u.pos[g.right.id])
            k = kids[0].seq
            if not k.regular or k.psi != want or k.rhs != tau.rhs:
                return bad("left conjunction premise mismatch")
    elif r == RAND:
        if f.kind != AND or len(kids) != 2:
            return bad("malformed right conjunction step")
        for k, c in zip(kids, (f.left, f.right)):
            if k.seq.regular != tau.regular or k.seq.psi != tau.psi \
                    or k.seq.rhs != u.pos[c.id]:
                return bad("right conjunction premise mismatch")
    elif r == LOR:
        i = node.principal
        g = u.sf[i] if i is not None else None
        if (not tau.regular or g is None or g.kind != OR
                or not (tau.psi >> i) & 1 or len(kids) != 2):
            return bad("malformed left disjunction step")
        else:
            base = tau.psi & ~(1 << i)
            for k, c in zip(kids, (g.left, g.right)):
                if not k.seq.regular or k.seq.psi != (base | (1 << u.pos[c.id])) \
                        or k.seq.rhs != tau.rhs:
                    return bad("left disjunction premise mismatch")
    elif r in (ROR1, ROR2):
        if f.kind != OR or len(kids) != 1:
            return bad("malformed right disjunction step")
        else:
            c = f.left if r == ROR1 else f.right
            k = kids[0].seq
            if k.regular or k.psi != tau.psi or k.rhs != u.pos[c.id]:
                return bad("right disjunction premise mismatch")
    elif r == LIMP:
        i = node.principal
        g = u.sf[i] if i is not None else None
        if (not tau.regular or g is None or g.kind != IMP
                or not (tau.psi >> i) & 1 or len(kids) != 2):
            return bad("malformed left implication step")
        else:
            kl, kr = kids[0].seq, kids[1].seq
            psi_b = (tau.psi & ~(1 << i)) | (1 << u.pos[g.right.id])
            if kl.regular or kl.psi != tau.psi or kl.rhs != u.ante[i]:
                return bad("left implication: bad antecedent premise")
            if not kr.regular or kr.psi != psi_b or kr.rhs != tau.rhs:
                return bad("left implication: bad consequent premise")
    elif r == RIMP_IN:
        a = u.pos[f.left.id] if f.kind == IMP else -1
        if f.kind != IMP or len(kids) != 1 or not (u.closure(tau.psi) >> a) & 1:
            return bad("malformed closed right implication step")
        else:
            k = kids[0].seq
            if k.regular != tau.regular or k.psi != tau.psi \
                    or k.rhs != u.pos[f.right.id]:
                return bad("closed right implication premise mismatch")
    elif r == RIMP_NOTIN:
        if f.kind != IMP or len(kids) != 1:
            return bad("malformed open right implication step")
        else:
            a = u.pos[f.left.id]
            if (u.closure(tau.psi) >> a) & 1:
                return bad("open right implication with antecedent already closed")
            k = kids[0].seq
            if not k.regular or k.psi != (tau.psi | (1 << a)) \
                    or k.rhs != u.pos[f.right.id]:
                return bad("open right implication premise mismatch")
    else:
        return bad(f"unknown rule {r}")
    for j, kid in enumerate(kids):
        res = _check_node(kid, path + (j,))
        if res is not None:
            return res
    return None


def check_backward(root: BNode) -> bool:
    """Local rule-schema validation of a backward derivation tree."""
    return _check_node(root, ()) is None


@dataclass
class G3Node:
    """A node of a G3i derivation: plain sequents, no regularity split."""
    psi: int
    rhs: int
    rule: str
    children: tuple["G3Node", ...] = ()
    principal: Optional[int] = None

    def nodes(self) -> Iterable["G3Node"]:
        yield self
        for c in self.children:
            yield from c.nodes()


_G3_RULES = {AX: "ax", LBOT: "l-bot", LAND: "l-and", RAND: "r-and", LOR: "l-or",
             ROR1: "r-or1", ROR2: "r-or2", LIMP: "l-imp",
             RIMP_IN: "r-imp", RIMP_NOTIN: "r-imp"}


def _weaken(node: G3Node, extra: int) -> G3Node:
    """Add formulas to every context of a subtree (weakening is admissible
    and purely syntactic here)."""
    return G3Node(node.psi | extra, node.rhs, node.rule,
                  tuple(_weaken(c, extra) for c in node.children), node.principal)


def to_g3i(node: BNode) -> G3Node:
    """Erase the regular/irregular split; the closed right-implication rule
    additionally pushes the antecedent into its premise's context so both
    right-implication forms become the single G3i rule."""
    u = node.seq.u
    kids = tuple(to_g3i(c) for c in node.children)
    if node.rule == RIMP_IN:
        a = u.pos[u.sf[node.seq.rhs].left.id]
        kids = (_weaken(kids[0], 1 << a),)
    return G3Node(node.seq.psi, node.seq.rhs, _G3_RULES[node.rule], kids,
                  node.principal)


def check_g3i(root: G3Node, universe: GoalUniverse,
              ) -> Optional[tuple[tuple[int, ...], str]]:
    """Validate every node against the standard G3i rule schemas (with
    general axioms); returns the first offending (path, reason) or None."""
    return _check_g3i(root, universe, ())


def _check_g3i(node: G3Node, u: GoalUniverse, path: tuple[int, ...],
               ) -> Optional[tuple[tuple[int, ...], str]]:
    f = u.sf[node.rhs]
    kids = node.children

    def bad(reason: str):
        return (path, reason)

    r = node.rule
    if r == "ax":
        if not (node.psi >> node.rhs) & 1 or kids:
            return bad("axiom needs its right side on the left")
    elif r == "l-bot":
        if u.bot_pos < 0 or not (node.psi >> u.bot_pos) & 1 or kids:
            return bad("falsum axiom needs falsum on the left")
    elif r == "l-and":
        i = node.principal
        g = u.sf[i] if i is not None else None
        if g is None or g.kind != AND or not (node.psi >> i) & 1 or len(kids) != 1:
            return bad("malformed left conjunction")
        want = (node.psi & ~(1 << i)) | (1 << u.pos[g.left.id]) | (1 << u.pos[g.right.id])
        if kids[0].psi != want or kids[0].rhs != node.rhs:
            return bad("left conjunction premise mismatch")
    elif r == "r-and":
        if f.kind != AND or len(kids) != 2:
            return bad("malformed right conjunction")
        for k, c in zip(kids, (f.left, f.right)):
            if k.psi != node.psi or k.rhs != u.pos[c.id]:
                return bad("right conjunction premise mismatch")
    elif r == "l-or":
        i = node.principal
        g = u.sf[i] if i is not None else None
        if g is None or g.kind != OR or not (node.psi >> i) & 1 or len(kids) != 2:
            return bad("malformed left disjunction")
        base = node.psi & ~(1 << i)
        for k, c in zip(kids, (g.left, g.right)):
            if k.psi != (base | (1 << u.pos[c.id])) or k.rhs != node.rhs:
                return bad("left disjunction premise mismatch")
    elif r in ("r-or1", "r-or2"):
        if f.kind != OR or len(kids) != 1:
            return bad("malformed right disjunction")
        c = f.left if r == "r-or1" else f.right
        if kids[0].psi != node.psi or kids[0].rhs != u.pos[c.id]:
            return bad("right disjunction premise mismatch")
    elif r == "l-imp":
        i = node.principal
        g = u.sf[i] if i is not None else None
        if g is None or g.kind != IMP or not (node.psi >> i) & 1 or len(kids) != 2:
            return bad("malformed left implication")
        kl, kr = kids
        psi_b = (node.psi & ~(1 << i)) | (1 << u.pos[g.right.id])
        if kl.psi != node.psi or kl.rhs != u.ante[i]:
            return bad("left implication: antecedent premise must keep the context")
        if kr.psi != psi_b or kr.rhs != node.rhs:
            return bad("left implication: consequent premise mismatch")
    elif r == "r-imp":
        if f.kind != IMP or len(kids) != 1:
            return bad("malformed right implication")
        a = u.pos[f.left.id]
        if kids[0].psi != (node.psi | (1 << a)) or kids[0].rhs != u.pos[f.right.id]:
            return bad("right implication premise must gain the antecedent")
    else:
        return bad(f"unknown rule {r}")
    for j, kid in enumerate(kids):
        res = _check_g3i(kid, u, path + (j,))
        if res is not None:
            return res
    return None


# ---------------------------------------------------------------------------
# Derivation exports
# ---------------------------------------------------------------------------

def g3i_text(node: G3Node, u: GoalUniverse, indent: int = 0) -> str:
    line = f"{'  ' * indent}{u.render_mask(node.psi)} |- {to_text(u.sf[node.rhs])}   [{node.rule}]"
    return "\n".join([line] + [g3i_text(c, u, indent + 1) for c in node.children])


def structured_g3i(node: G3Node, u: GoalUniverse) -> dict:
    return {"sequent": f"{u.render_mask(node.psi)} |- {to_text(u.sf[node.rhs])}",
            "rule": node.rule,
            "children": [structured_g3i(c, u) for c in node.children]}


def typeset_g3i(node: G3Node, u: GoalUniverse) -> str:
    """bussproofs-style markup for the translated derivation."""
    lines: list[str] = []

    def emit(n: G3Node) -> None:
        for c in n.children:
            emit(c)
        seq = f"{u.render_mask(n.psi, empty='')} \\vdash {to_text(u.sf[n.rhs])}"
        if not n.children:
            lines.append("\\AxiomC{}")
            lines.append(f"\\RightLabel{{{n.rule}}}")
            lines.append(f"\\UnaryInfC{{${seq}$}}")
        elif len(n.children) == 1:
            lines.append(f"\\RightLabel{{{n.rule}}}")
            lines.append(f"\\UnaryInfC{{${seq}$}}")
        else:
            lines.append(f"\\RightLabel{{{n.rule}}}")
            lines.append(f"\\BinaryInfC{{${seq}$}}")

    emit(node)
    return "\n".join(["\\begin{prooftree}"] + lines + ["\\end{prooftree}"])
