"""Forward refutation sequents and one kernel per rule.

Two sequent shapes over a goal universe: regular ``Gamma => C`` (some world
forces Gamma and refutes C) and irregular ``Sigma ; Theta -> C`` whose left
side is split into a stable part Sigma, preserved by joins, and a losable
part Theta.  Left sides live inside the atom/implication slice of the left
subformulas; right sides are right subformulas.

Each rule's conclusion is built by one mask-level kernel (:func:`axiom`,
:func:`retarget`, :func:`or_conclusion`, :func:`shifted`, the two shift
kernels and :class:`JoinParts`, plus :func:`covers` for the stable-coverage
side condition, which :class:`JoinParts` states for a whole premise set).
The kernels check no side condition: the search and
:func:`~ipldecide.countermodel.derivation_from_model` call them where the
conditions hold, and the ``apply_*`` functions validate a single instance,
raising :class:`NotApplicable` with the violated condition named, before
calling them.  Premise-set enumeration for the join rules lives in the
search module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .formula import (AND, IMP, OR, Formula, GoalUniverse, iter_bits, minimal_masks,
                      to_text)


JOIN_AT, JOIN_OR = "join-at", "join-or"  # the join rules' labels in a store


class NotApplicable(ValueError):
    pass


class Sequent:
    """A canonical sequent; equal content gives equal (hashable) values.
    The hash is computed when asked for: the search builds many sequents
    and hashes few of them."""

    __slots__ = ("u", "regular", "gamma", "sigma", "theta", "rhs")

    def __init__(self, u: GoalUniverse, regular: bool, gamma: int, sigma: int,
                 theta: int, rhs: int):
        self.u = u
        self.regular = regular
        self.gamma = gamma
        self.sigma = sigma
        self.theta = theta
        self.rhs = rhs

    @property
    def lhs(self) -> int:
        return self.gamma if self.regular else (self.sigma | self.theta)

    @property
    def key(self) -> tuple:
        return (self.regular, self.gamma, self.sigma, self.theta, self.rhs)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Sequent) and self.u is other.u
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"<{self.render()}>"

    def render(self) -> str:
        u = self.u
        rhs = to_text(u.sf[self.rhs])
        if self.regular:
            return f"{u.render_mask(self.gamma)} => {rhs}"
        return f"{u.render_mask(self.sigma)} ; {u.render_mask(self.theta)} -> {rhs}"


def regular(u: GoalUniverse, gamma: int, rhs: int) -> Sequent:
    if gamma & ~u.gbar:
        raise ValueError("left side outside the atom/implication slice")
    if not (u.sfr >> rhs) & 1:
        raise ValueError("right side is not a right subformula")
    return Sequent(u, True, gamma, 0, 0, rhs)


def irregular(u: GoalUniverse, sigma: int, theta: int, rhs: int) -> Sequent:
    if (sigma | theta) & ~u.gbar:
        raise ValueError("left side outside the atom/implication slice")
    if sigma & theta:
        raise ValueError("stable and losable parts overlap")
    if not (u.sfr >> rhs) & 1:
        raise ValueError("right side is not a right subformula")
    return Sequent(u, False, 0, sigma, theta, rhs)


class Weight(NamedTuple):
    """Lexicographic sequent weight; strictly drops premise -> conclusion."""
    closure_count: int
    type_bit: int
    rhs_gap: int


def weight(s: Sequent) -> Weight:
    u = s.u
    return Weight(u.closure_count(s.lhs), 0 if s.regular else 1,
                  u.goal_size - u.sizes[s.rhs])


def subsumes(s1: Sequent, s2: Sequent) -> bool:
    """s1 is redundant given s2: same right side and a bigger-or-equal left.

    Regular: Gamma1 within Gamma2.  Irregular: equal stable parts and
    Theta1 within Theta2.
    """
    if s1.regular != s2.regular or s1.rhs != s2.rhs:
        return False
    if s1.regular:
        return not (s1.gamma & ~s2.gamma)
    return s1.sigma == s2.sigma and not (s1.theta & ~s2.theta)


# ---------------------------------------------------------------------------
# Rule kernels
# ---------------------------------------------------------------------------

def axiom(u: GoalUniverse, f: int, is_regular: bool) -> Sequent:
    """The axiom with prime right side ``f``: the regular one keeps every
    left atom but f; the irregular one additionally carries every left
    implication in its losable part."""
    others = u.gat & ~(1 << f)
    if is_regular:
        return Sequent(u, True, others, 0, 0, f)
    return Sequent(u, False, 0, 0, others | u.gimp, f)


def axioms(u: GoalUniverse) -> list[Sequent]:
    return [axiom(u, f, is_regular) for f in u.prime_rhs for is_regular in (True, False)]


def covers(s1: Sequent, s2: Sequent) -> bool:
    """The left side of irregular ``s2`` contains the stable part of ``s1``;
    disjunction and join premises must cover one another pairwise."""
    return not s1.sigma & ~(s2.sigma | s2.theta)


def retarget(s: Sequent, t: int) -> Sequent:
    """The premise's left side with right side ``t``: the conjunction rule,
    and the implication rule whose antecedent the left side derives."""
    return Sequent(s.u, s.regular, s.gamma, s.sigma, s.theta, t)


def or_conclusion(p1: Sequent, p2: Sequent, t: int) -> Sequent:
    """The disjunction rule on covering irregular premises: joined stable
    parts, common losable part.  Each premise keeps its stable part out of
    its losable part, so the two results are disjoint."""
    return Sequent(p1.u, False, 0, p1.sigma | p2.sigma, p1.theta & p2.theta, t)


def shifted(s: Sequent, lam: int, t: int) -> Sequent:
    """Implication rule on an irregular premise: the losable chunk ``lam``
    (a minimal shift) moves into the stable part."""
    return Sequent(s.u, False, 0, s.sigma | lam, s.theta & ~lam, t)


class JoinParts:
    """What a join keeps of its irregular premises, as aggregate masks: the
    right sides ``up_mask``, the union ``sig`` of the stable parts, the
    intersection ``meet`` of the left sides, the common losable part
    ``theta``, ``cover``, the implications whose antecedent is among the
    right sides, and ``ups_in_ps3``, whether every right side is an
    antecedent on the left of the goal, as a ``join-at`` needs.  A join
    keeps the stable part and the common losable atoms, plus the common
    losable implications inside ``cover``; it applies only when
    ``supported``, i.e. every stable implication lies inside ``cover``.

    Built by folding the premises in one at a time (:meth:`fold`), so one
    more premise costs one fold.  Every premise covers every other
    (:func:`covers`) exactly when ``sig`` lies inside ``meet``
    (:attr:`covered`), so one mask test tells whether a sequent extends the
    premises (:meth:`admits`).
    """

    __slots__ = ("u", "up_mask", "sig", "meet", "theta", "cover", "ups_in_ps3")

    def __init__(self, seqs: Sequence[Sequent]):
        self.u = seqs[0].u
        self.up_mask = self.sig = self.cover = 0
        self.meet = self.theta = self.u.full_mask
        for s in seqs:
            self.fold(self, s)

    def fold(self, base: JoinParts, s: Sequent) -> None:
        """Set the parts to those of ``base`` with the premise ``s`` added."""
        u = self.u = base.u
        self.up_mask = base.up_mask | 1 << s.rhs
        self.sig = base.sig | s.sigma
        self.meet = base.meet & (s.sigma | s.theta)
        self.theta = base.theta & s.theta
        self.cover = base.cover | u.imps_by_ante.get(s.rhs, 0)
        self.ups_in_ps3 = not self.up_mask & ~u.ps3_mask

    @property
    def supported(self) -> bool:
        return not self.sig & self.u.imp_mask & ~self.cover

    @property
    def covered(self) -> bool:
        return not self.sig & ~self.meet

    def admits(self, s: Sequent) -> bool:
        """``s`` has a new right side, holds every premise's stable part on
        its left side, and its stable part lies inside every premise's."""
        return not ((self.up_mask >> s.rhs) & 1 or self.sig & ~(s.sigma | s.theta)
                    or s.sigma & ~self.meet)

    def conclusions(self, ups: int, cover: int) -> Iterator[tuple[int, str, int]]:
        """``(target, rule, left side)`` of each join of these premises, with
        ``ups`` as the right sides and ``cover`` as the supported
        implications: a ``join-at`` onto each prime outside the stable part
        when :attr:`ups_in_ps3`, then a ``join-or`` onto each disjunction of
        two sides in ``ups``.  The search passes a set's own ``up_mask`` and
        ``cover`` to fire it, and those of the set and all its candidates to
        bound the sets below it.  Support is not checked."""
        u = self.u
        gamma = self.sig | self.theta & (u.var_mask | cover)
        if self.ups_in_ps3:
            for t in u.prime_rhs:
                if not (self.sig >> t) & 1:
                    yield t, JOIN_AT, gamma & ~(1 << t)
        for t, c1, c2 in u.or_targets:
            if (ups >> c1) & 1 and (ups >> c2) & 1:
                yield t, JOIN_OR, gamma

    def conclusion(self, t: int, rule: str) -> int:
        """The left side of the ``rule`` join of these premises onto ``t``,
        one of their own :meth:`conclusions`."""
        return next(gamma for c, r, gamma in self.conclusions(self.up_mask, self.cover)
                    if c == t and r == rule)


# ---------------------------------------------------------------------------
# Validated single instances and the shift kernels
# ---------------------------------------------------------------------------

def _target_pos(u: GoalUniverse, target: Formula) -> int:
    t = u.pos.get(target.id)
    if t is None or not (u.sfr >> t) & 1:
        raise NotApplicable(f"{to_text(target)} is not a right subformula")
    return t


def apply_and(premise: Sequent, target: Formula) -> Sequent:
    u = premise.u
    t = _target_pos(u, target)
    if target.kind != AND:
        raise NotApplicable("target is not a conjunction")
    if premise.rhs not in (u.pos[target.left.id], u.pos[target.right.id]):
        raise NotApplicable("premise right side is not a conjunct of the target")
    return retarget(premise, t)


def apply_or(p1: Sequent, p2: Sequent, target: Formula) -> Sequent:
    u = p1.u
    t = _target_pos(u, target)
    if target.kind != OR:
        raise NotApplicable("target is not a disjunction")
    if p1.regular or p2.regular:
        raise NotApplicable("both premises must be irregular")
    if p1.rhs != u.pos[target.left.id] or p2.rhs != u.pos[target.right.id]:
        raise NotApplicable("premise right sides do not match the disjuncts")
    if not covers(p1, p2):
        raise NotApplicable("first stable part not covered by the second premise")
    if not covers(p2, p1):
        raise NotApplicable("second stable part not covered by the first premise")
    return or_conclusion(p1, p2, t)


def _imp_instance(premise: Sequent, target: Formula, is_regular: bool,
                  ) -> tuple[int, int]:
    """Validate an implication-rule instance whose premise must have the
    given shape; returns the positions of the target and its antecedent."""
    u = premise.u
    t = _target_pos(u, target)
    if target.kind != IMP:
        raise NotApplicable("target is not an implication")
    if premise.regular != is_regular:
        raise NotApplicable("premise must be " + ("regular" if is_regular else "irregular"))
    if premise.rhs != u.pos[target.right.id]:
        raise NotApplicable("premise right side is not the consequent")
    return t, u.pos[target.left.id]


def apply_imp_in_regular(premise: Sequent, target: Formula) -> Sequent:
    t, a = _imp_instance(premise, target, is_regular=True)
    if not (premise.u.closure(premise.gamma) >> a) & 1:
        raise NotApplicable("antecedent not in the closure of the left side")
    return retarget(premise, t)


def _subset_order(mask: int) -> tuple[int, list[int]]:
    """Cardinality, then the sorted positions: the order of ``combinations``."""
    return mask.bit_count(), list(iter_bits(mask))


def minimal_shifts(u: GoalUniverse, sigma: int, theta: int, a: int) -> list[int]:
    """Minimal subsets of ``theta`` whose shift puts ``a`` in the closure.

    Returns every mask L, subset of theta, inclusion-minimal with
    a in closure(sigma | L); sigma and theta lie inside ``u.gbar``.  That
    holds iff some minimal generator g of a (:meth:`GoalUniverse.generators`,
    the monotone DNF whose dual :func:`maximal_avoiding` enumerates, after
    Berge and Eiter and Gottlob) lies inside sigma | L.  So the answer is
    the minimal elements of {g - sigma : g within sigma | theta}, ordered
    by cardinality, then by sorted positions: the order in which
    ``itertools.combinations`` would meet them.
    """
    avail = sigma | theta
    shifts = [g & ~sigma for g in u.generators(a) if not g & ~avail]
    if len(shifts) > 1:
        shifts = sorted(minimal_masks(shifts), key=_subset_order)
    return shifts


def _transversals(edges: list[int]) -> list[int]:
    """Minimal transversals of a hypergraph of non-empty edges, by Berge's
    incremental algorithm (Eiter and Gottlob, SIAM J. Comput. 1995).

    After each edge E the family is the kept sets H that meet E plus, for
    each set T missing E and each v in E, T + v unless it contains some H.
    Such an H must hold v (the family is an antichain), and two extensions
    never contain one another.
    """
    trs = [0]
    for e in sorted(set(edges), key=int.bit_count):
        hit = [t for t in trs if t & e]
        miss = [t for t in trs if not t & e]
        if not miss:
            continue
        grown = []
        for v in iter_bits(e):
            rests = [h ^ 1 << v for h in hit if h >> v & 1]
            grown += [t | 1 << v for t in miss if all(r & ~t for r in rests)]
        trs = hit + grown
    return trs


def maximal_avoiding(u: GoalUniverse, available: int, a: int, require: int = 0,
                     ) -> list[int]:
    """Maximal T with require <= T <= available and ``a`` not in closure(T).

    All masks lie inside ``u.gbar``.  Through the complement
    T = available - R: a stays out of closure(T) iff R meets g & removable
    for every minimal generator g of ``a`` inside ``available``, where
    removable = available - require.  So the minimal R are the minimal
    transversals of that hypergraph, the dual of the generators' monotone
    DNF, built by Berge's algorithm (:func:`_transversals`).  Sorted by R
    like :func:`minimal_shifts`; empty when a is in closure(require).
    """
    gens = u.generators(a)
    if any(not g & ~require for g in gens):
        return []
    removable = available & ~require
    edges = [g & removable for g in gens if not g & ~available]
    if len(edges) > 1:
        removals = sorted(_transversals(edges), key=_subset_order)
    else:  # remove nothing, or any one element of the only edge
        removals = [1 << v for v in iter_bits(edges[0])] if edges else [0]
    return [available & ~r for r in removals]


def apply_imp_in_irregular(premise: Sequent, target: Formula) -> list[Sequent]:
    """All shifts of a minimal losable chunk into the stable part that make
    the antecedent available; empty when no shift works."""
    t, a = _imp_instance(premise, target, is_regular=False)
    return [shifted(premise, lam, t)
            for lam in minimal_shifts(premise.u, premise.sigma, premise.theta, a)]


def apply_imp_notin(premise: Sequent, target: Formula) -> list[Sequent]:
    """Regular premise to irregular conclusions with empty stable part: one
    per maximal losable set that still leaves the antecedent underivable;
    empty when the left side does not derive the antecedent."""
    t, a = _imp_instance(premise, target, is_regular=True)
    u = premise.u
    cl = u.closure(premise.gamma)
    if not (cl >> a) & 1:
        return []
    return [Sequent(u, False, 0, 0, th, t) for th in maximal_avoiding(u, cl & u.gbar, a)]


# ---------------------------------------------------------------------------
# Join rules
# ---------------------------------------------------------------------------

def apply_join(premises: Iterable[Sequent], flavor: str, target: Formula) -> Sequent:
    """Join irregular premises into one regular sequent.

    ``flavor`` is "at" (prime right side) or "or" (disjunction right side).
    Validates the pairwise-coverage and support side conditions plus the
    search restrictions that every joined right side must occur as an
    antecedent on the left of the goal (or, for "or", as a disjunct on the
    right).
    """
    premises = list(premises)
    if not premises:
        raise NotApplicable("a join needs at least one premise")
    u = premises[0].u
    if any(p.regular for p in premises):
        raise NotApplicable("join premises must be irregular")
    parts = JoinParts(premises)
    if not parts.covered:
        p, q = next((p, q) for p in premises for q in premises if not covers(p, q))
        raise NotApplicable(
            f"stable parts not pairwise covered ({p.render()} vs {q.render()})")
    ups = list(iter_bits(parts.up_mask))
    if not parts.supported:
        i = next(iter_bits(parts.sig & u.imp_mask & ~parts.cover))
        raise NotApplicable(f"stable implication {to_text(u.sf[i])} is unsupported")
    t = _target_pos(u, target)
    if flavor == "at":
        for y in ups:
            if not (u.ps3_mask >> y) & 1:
                raise NotApplicable(
                    f"{to_text(u.sf[y])} is not an antecedent on the left of the goal")
        if not (u.prime_mask >> t) & 1:
            raise NotApplicable("target is not prime")
        if (parts.sig >> t) & 1:
            raise NotApplicable("target occurs in the joined stable atoms")
        rule = JOIN_AT
    elif flavor == "or":
        for y in ups:
            if not (u.ps4_mask >> y) & 1:
                raise NotApplicable(
                    f"{to_text(u.sf[y])} is neither a left antecedent "
                    "nor a right disjunct")
        if target.kind != OR:
            raise NotApplicable("target is not a disjunction")
        if u.pos[target.left.id] not in ups or u.pos[target.right.id] not in ups:
            raise NotApplicable("both disjuncts must occur among the premises")
        rule = JOIN_OR
    else:
        raise NotApplicable(f"unknown join flavor {flavor!r}")
    return Sequent(u, True, parts.conclusion(t, rule), 0, 0, t)
