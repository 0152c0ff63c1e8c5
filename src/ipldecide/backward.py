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
G3i derivation.  Two purely local checkers, one per calculus, validate the
backward tree and its translation against one table of rule schemas; the
builder and the oracle keep their own rule code, so neither checker shares
code with what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from .formula import (AND, IMP, OR, Formula, GoalUniverse, build_universe,
                      iter_bits, to_tex, to_text)
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


def bsearch(db: Database, trace: BSearchTrace | None = None) -> BNode:
    """Reconstruct a backward derivation of the database's goal from the
    saturated database, with zero backtracking.

    Invertible rules are applied eagerly in a fixed order; at critical
    sequents the branch whose subgoal the database does NOT evaluate is the
    one that must stay provable, and the correctness argument guarantees
    such a branch exists.  Raises :class:`InternalInvariantViolation` if it
    does not, which would signal a non-saturated database.
    """
    return bsearch_from(db, BSequent(db.u, True, 0, db.u.goal_pos), trace)


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

    # Commit to the first branch whose irregular subgoal the database
    # refutes: the left implications of a regular sequent (by antecedent
    # position), then the right disjuncts.
    f = u.sf[tau.rhs]
    choices: list[tuple[str, int, Optional[int]]] = []
    if tau.regular:
        imps = sorted(iter_bits(tau.psi & u.imp_mask), key=lambda i: (u.ante[i], i))
        choices += [(LIMP, u.ante[i], i) for i in imps]
    if f.kind == OR:
        choices += [(ROR1, u.pos[f.left.id], None), (ROR2, u.pos[f.right.id], None)]
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
    """The first invertible rule that applies: a left conjunction, a right
    conjunction, a left disjunction, a right implication; the left rules
    apply to regular sequents only."""
    u = tau.u
    f = u.sf[tau.rhs]
    left = tau.psi if tau.regular else 0
    for i in iter_bits(left):
        g = u.sf[i]
        if g.kind == AND:
            psi = (tau.psi & ~(1 << i)) | (1 << u.pos[g.left.id]) | (1 << u.pos[g.right.id])
            child = _bsearch(db, BSequent(u, True, psi, tau.rhs), trace)
            return BNode(tau, LAND, (child,), i)
    if f.kind == AND:
        kids = tuple(_bsearch(db, BSequent(u, tau.regular, tau.psi, u.pos[c.id]), trace)
                     for c in (f.left, f.right))
        return BNode(tau, RAND, kids)
    for i in iter_bits(left):
        g = u.sf[i]
        if g.kind == OR:
            base = tau.psi & ~(1 << i)
            kids = tuple(
                _bsearch(db, BSequent(u, True, base | (1 << u.pos[c.id]), tau.rhs), trace)
                for c in (g.left, g.right))
            return BNode(tau, LOR, kids, i)
    if f.kind == IMP:
        return _right_imp(db, tau, trace)
    raise InternalInvariantViolation(f"no invertible rule at {tau.render()}")


def _right_imp(db: Database, tau: BSequent, trace: BSearchTrace) -> BNode:
    u = tau.u
    f = u.sf[tau.rhs]
    a, b = u.pos[f.left.id], u.pos[f.right.id]
    if (u.closure(tau.psi) >> a) & 1:
        child = _bsearch(db, BSequent(u, tau.regular, tau.psi, b), trace)
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

RIMP = "r-imp"

# The G3i rules, named in words.  Backward trees use the same names, except
# that they split ``r-imp`` into ``r-imp-in`` and ``r-imp-notin``.
_RULE_WORDS = {AX: "axiom", LBOT: "falsum axiom", LAND: "left conjunction",
               RAND: "right conjunction", LOR: "left disjunction",
               ROR1: "right disjunction", ROR2: "right disjunction",
               LIMP: "left implication", RIMP: "right implication"}


def _premises(u: GoalUniverse, rule: str, psi: int, rhs: int,
              principal: Optional[int]) -> Optional[list[tuple[int, int]]]:
    """The rule schemas that both checkers read: the (context, right side)
    of each premise of a G3i ``rule`` step whose conclusion has context
    ``psi``, right side ``rhs`` and principal left formula ``principal``,
    or None if no such step is an instance of the rule."""
    if rule == AX:
        return [] if (psi >> rhs) & 1 else None
    if rule in (LAND, LOR, LIMP):
        if principal is None or not (psi >> principal) & 1:
            return None
        g = u.sf[principal]
        base = psi & ~(1 << principal)
        if rule == LIMP and g.kind == IMP:
            return [(psi, u.ante[principal]), (base | 1 << u.pos[g.right.id], rhs)]
        if rule == LAND and g.kind == AND:
            return [(base | 1 << u.pos[g.left.id] | 1 << u.pos[g.right.id], rhs)]
        if rule == LOR and g.kind == OR:
            return [(base | 1 << u.pos[g.left.id], rhs), (base | 1 << u.pos[g.right.id], rhs)]
        return None
    if rule == LBOT:
        return [] if u.bot_pos >= 0 and (psi >> u.bot_pos) & 1 else None
    f = u.sf[rhs]
    if rule == RIMP and f.kind == IMP:
        return [(psi | 1 << u.pos[f.left.id], u.pos[f.right.id])]
    if rule == RAND and f.kind == AND:
        return [(psi, u.pos[f.left.id]), (psi, u.pos[f.right.id])]
    if rule in (ROR1, ROR2) and f.kind == OR:
        return [(psi, u.pos[(f.left if rule == ROR1 else f.right).id])]
    return None


def _mismatch(rule: str, want: Optional[list[tuple]], got: list[tuple]) -> Optional[str]:
    """Why a ``rule`` step with premises ``got`` is wrong when the schema
    wants ``want``, or None if it is right."""
    words = _RULE_WORDS.get(rule)
    if words is None:
        return f"unknown rule {rule}"
    if want is None or len(want) != len(got):
        return f"malformed {words} step"
    return None if want == got else f"{words} premise mismatch"


def _first_fault(node, u: GoalUniverse, fault: Callable[[GoalUniverse, object], Optional[str]],
                 ) -> Optional[tuple[tuple[int, ...], str]]:
    """The path and reason of the first node of the tree ``node``, in
    preorder, that ``fault`` rejects, or None; both checkers walk with it."""
    reason = fault(u, node)
    if reason is not None:
        return (), reason
    j = 0  # a counter: cheaper here than enumerate
    for kid in node.children:
        res = _first_fault(kid, u, fault)
        if res is not None:
            return (j,) + res[0], res[1]
        j += 1
    return None


# What the backward calculus adds to G3i: the flavour (regular or not) that
# each rule needs of its conclusion and gives each premise; None means any
# conclusion, or a premise of the conclusion's flavour.
_FLAVOURS = {AX: (None, ()), LBOT: (True, ()), LAND: (True, (True,)),
             RAND: (None, (None, None)), LOR: (True, (True, True)),
             ROR1: (None, (False,)), ROR2: (None, (False,)),
             LIMP: (True, (False, True)), RIMP_IN: (None, (None,)),
             RIMP_NOTIN: (None, (True,))}


def _backward_fault(u: GoalUniverse, node: BNode) -> Optional[str]:
    tau, rule = node.seq, node.rule
    if rule not in _FLAVOURS:
        return f"unknown rule {rule}"
    need, gives = _FLAVOURS[rule]
    if need is not None and tau.regular != need:
        return f"{rule} needs a {'regular' if need else 'irregular'} conclusion"
    g3_rule = rule
    if rule in (RIMP_IN, RIMP_NOTIN):
        # The closure test separates the two forms: r-imp-in keeps the
        # context, r-imp-notin adds the antecedent as G3i's r-imp does.
        f = u.sf[tau.rhs]
        if f.kind == IMP and (rule == RIMP_IN) != bool(
                (u.closure(tau.psi) >> u.pos[f.left.id]) & 1):
            return f"{rule} on the wrong side of the closure test"
        g3_rule = RIMP
    want = _premises(u, g3_rule, tau.psi, tau.rhs, node.principal)
    if want is not None:
        want = [(tau.psi if rule == RIMP_IN else psi, rhs, tau.regular if g is None else g)
                for (psi, rhs), g in zip(want, gives)]
    return _mismatch(g3_rule, want,
                     [(k.seq.psi, k.seq.rhs, k.seq.regular) for k in node.children])


def check_backward(root: BNode) -> bool:
    """Local rule-schema validation of a backward derivation tree."""
    return _first_fault(root, root.seq.u, _backward_fault) is None


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


def to_g3i(node: BNode, extra: int = 0) -> G3Node:
    """Erase the regular/irregular split; the closed right-implication rule
    additionally pushes the antecedent into the contexts of the subtree above
    it (weakening, admissible and purely syntactic here), so both
    right-implication forms become the single G3i rule.  ``extra`` holds the
    formulas pushed in from below; one already in a node's own context is
    not pushed further, so a rule that consumes it never finds it again."""
    u = node.seq.u
    extra &= ~node.seq.psi
    up = extra
    rule = node.rule
    if rule == RIMP_IN:
        up |= 1 << u.pos[u.sf[node.seq.rhs].left.id]
    if rule in (RIMP_IN, RIMP_NOTIN):
        rule = RIMP
    return G3Node(node.seq.psi | extra, node.seq.rhs, rule,
                  tuple(to_g3i(c, up) for c in node.children), node.principal)


def _g3i_fault(u: GoalUniverse, node: G3Node) -> Optional[str]:
    want = _premises(u, node.rule, node.psi, node.rhs, node.principal)
    got = []
    for k in node.children:  # a loop: cheaper here than a comprehension
        got.append((k.psi, k.rhs))
    return None if want == got else _mismatch(node.rule, want, got)


def check_g3i(root: G3Node, universe: GoalUniverse,
              ) -> Optional[tuple[tuple[int, ...], str]]:
    """Validate every node against the standard G3i rule schemas (with
    general axioms); returns the first offending (path, reason) or None."""
    return _first_fault(root, universe, _g3i_fault)


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
        seq = f"{u.render_mask(n.psi, empty='', render=to_tex)} \\vdash {to_tex(u.sf[n.rhs])}"
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
