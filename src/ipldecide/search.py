"""Forward saturation: databases, subsumption, join scheduling, search.

The loop inserts the axioms, then repeatedly applies every rule instance
with at least one premise proved in the last iteration, discarding
conclusions subsumed by the database (forward subsumption).  It stops as
soon as a regular sequent with the goal on the right is stored: that
derivation refutes the goal, so only a valid goal saturates the database.
The stop is checked after each premise's rule instances and after each
join set fires, so the rest of the iteration is never applied.

With backward subsumption on, inserting a strictly stronger sequent
retires the weaker entries and, transitively, every entry whose stored
derivation used one; retired store nodes are tombstoned, never deleted, so
earlier proofs stay replayable.

Both subsumption checks go through an index built from the definition of
``rules.subsumes``: a regular sequent can only be subsumed by a regular one
with the same right side and a left side holding its own, an irregular one
only by an irregular one with the same right side and stable part and a
losable part holding its own.  So the database keeps one bucket per
``(True, rhs)`` and per ``(False, rhs, sigma)``, and grades each bucket by
the size of that mask.  Forward subsumption looks up the exact mask and
scans only the larger grades; backward subsumption scans only the smaller
ones.

Join rules are driven by an incrementally maintained list of candidate
premise sets: pairwise coverage of the stable parts, pairwise distinct
right sides, and every right side admissible as a join participant (it
must occur as an antecedent on the left of the goal, or as a disjunct on
the right).  Support depends only on a set's members, so a set with an
unsupported stable implication leaves ``pending`` without ever firing;
only its extensions by a supporting premise can fire.  Each set keeps the
aggregate masks of ``rules.JoinParts`` (its right sides, the union of its
stable parts, the intersection of its left sides, its common losable part
and the implications its right sides support), so a new premise is tested
against a whole set with one mask test, and the set it extends is built
from that base set in constant time: the masks fold in the one new premise
and the rank is the larger of the base's and the premise's rank plus one.  The
sets of each new premise fire before the next premise is added, in the
order they were registered, so sets that would only be built after the
goal is found never are.

The minimal-height strategy delays joins: conclusions of join rank above
the current wave are held back, and the wave only increases once
everything else has saturated.  The first wave at which a goal sequent
appears is then the least possible join depth, i.e. the minimal
countermodel height.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .formula import Formula, GoalUniverse, build_universe
from .rules import (JoinParts, Sequent, axioms, covers, maximal_avoiding, minimal_shifts,
                    or_conclusion, retarget, shifted, subsumes)

AX_REG, AX_IRR = "ax=>", "ax->"
RULE_AND, RULE_OR, RULE_IMP_IN, RULE_IMP_NOTIN = "and", "or", "imp-in", "imp-notin"
JOIN_AT, JOIN_OR = "join-at", "join-or"
JOIN_RULES = (JOIN_AT, JOIN_OR)


class IterationBudgetExceeded(RuntimeError):
    pass


class StoreNode:
    __slots__ = ("seq", "rule", "premises", "iteration", "rank")

    def __init__(self, seq: Sequent, rule: str, premises: tuple[int, ...],
                 iteration: int, rank: int):
        self.seq = seq
        self.rule = rule
        self.premises = premises
        self.iteration = iteration
        self.rank = rank


class DerivationStore:
    """Append-only DAG of proved sequents with rule labels and premise links.

    One node per sequent; re-derivations of a stored sequent keep the first
    derivation.  ``consumers`` inverts the premise links for backward
    subsumption cascades.
    """

    def __init__(self, universe: GoalUniverse):
        self.u = universe
        self.nodes: list[StoreNode] = []
        self.by_key: dict[tuple, int] = {}
        self.consumers: dict[int, list[int]] = {}

    def add(self, seq: Sequent, rule: str, premises: tuple[int, ...],
            iteration: int, rank: int) -> tuple[int, bool]:
        nid = self.by_key.get(seq.key)
        if nid is not None:
            return nid, False
        nid = len(self.nodes)
        self.nodes.append(StoreNode(seq, rule, premises, iteration, rank))
        self.by_key[seq.key] = nid
        for p in premises:
            self.consumers.setdefault(p, []).append(nid)
        return nid, True

    def __len__(self) -> int:
        return len(self.nodes)

    def ancestors(self, root: int) -> set[int]:
        """Nodes occurring in the stored derivation of ``root`` (inclusive)."""
        seen = {root}
        stack = [root]
        while stack:
            for p in self.nodes[stack.pop()].premises:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def dump(self, root: int | None = None) -> str:
        """Numbered linear rendering, premises before conclusions."""
        if root is None:
            ids = list(range(len(self.nodes)))
        else:
            ids = sorted(self.ancestors(root))
        number = {nid: i + 1 for i, nid in enumerate(ids)}
        lines = []
        for nid in ids:
            n = self.nodes[nid]
            prem = " ".join(f"({number[p]})" for p in n.premises)
            tail = f"  {n.rule}" + (f" {prem}" if prem else "")
            lines.append(f"({number[nid]}) {n.seq.render()}{tail}")
        return "\n".join(lines)


@dataclass
class InsertResult:
    status: str                      # "added" | "forward-subsumed" | "backward-replaced"
    node: Optional[int] = None
    subsumed_by: Optional[int] = None
    removed: tuple[int, ...] = ()

    ADDED = "added"
    FORWARD_SUBSUMED = "forward-subsumed"
    BACKWARD_REPLACED = "backward-replaced"


def _index_key(seq: Sequent) -> tuple[tuple, int]:
    """The subsumption bucket of ``seq`` and its mask within the bucket."""
    if seq.regular:
        return (True, seq.rhs), seq.gamma
    return (False, seq.rhs, seq.sigma), seq.theta


class Database:
    """The set of currently live proved sequents.

    ``entries`` holds the live node ids and ``by_rhs`` groups them by right
    side.  A private subsumption index keeps one bucket per ``(True, rhs)``
    for regular entries (mask Gamma) and per ``(False, rhs, sigma)`` for
    irregular ones (mask Theta), graded by mask size into ``{mask: nid}``
    dicts.  An entry subsuming a sequent sits in the sequent's bucket with
    the same or a strictly larger mask, and an entry the sequent strictly
    subsumes with a strictly smaller one; every candidate found this way is
    confirmed by ``subsumes``.  Retiring an entry may leave an empty grade.
    """

    def __init__(self, universe: GoalUniverse, store: DerivationStore | None = None,
                 compact_mode: bool = True):
        self.u = universe
        self.store = store if store is not None else DerivationStore(universe)
        self.compact_mode = compact_mode
        self.entries: set[int] = set()
        self.by_rhs: dict[int, set[int]] = {}
        self.removal_listeners: list = []
        self._index: dict[tuple, dict[int, dict[int, int]]] = {}

    def __contains__(self, nid: int) -> bool:
        return nid in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def irregular_entries(self) -> list[int]:
        return [n for n in sorted(self.entries) if not self.store.nodes[n].seq.regular]

    def _link(self, nid: int, seq: Sequent) -> tuple[dict[int, dict[int, int]], int, int]:
        """Make ``nid`` (holding ``seq``) live; returns its index bucket,
        its mask and the mask's size."""
        self.entries.add(nid)
        self.by_rhs.setdefault(seq.rhs, set()).add(nid)
        key, mask = _index_key(seq)
        k = mask.bit_count()
        grades = self._index.setdefault(key, {})
        grades.setdefault(k, {})[mask] = nid
        return grades, mask, k

    def _unlink(self, nid: int) -> None:
        seq = self.store.nodes[nid].seq
        self.entries.discard(nid)
        self.by_rhs.get(seq.rhs, set()).discard(nid)
        key, mask = _index_key(seq)
        del self._index[key][mask.bit_count()][mask]

    def _subsumer(self, seq: Sequent) -> Optional[int]:
        """An entry subsuming ``seq``, one with a strictly larger mask if
        any: an entry of the database gets itself back exactly when no other
        entry subsumes it."""
        key, mask = _index_key(seq)
        grades = self._index.get(key)
        if not grades:
            return None
        nodes = self.store.nodes
        k = mask.bit_count()
        for size, group in grades.items():
            if size > k:
                for m, e in group.items():
                    if not mask & ~m and subsumes(seq, nodes[e].seq):
                        return e
        e = grades.get(k, {}).get(mask)
        return e if e is not None and subsumes(seq, nodes[e].seq) else None

    def insert(self, seq: Sequent, rule: str, premises: tuple[int, ...] = (),
               iteration: int = 0, rank: int = 0) -> InsertResult:
        """Forward subsumption check, then store; in compact mode also retire
        every strictly subsumed entry together with its stored consequences."""
        e = self._subsumer(seq)
        if e is not None:
            return InsertResult(InsertResult.FORWARD_SUBSUMED, subsumed_by=e)
        nid, _created = self.store.add(seq, rule, premises, iteration, rank)
        grades, mask, k = self._link(nid, seq)
        doomed = []
        if self.compact_mode:
            nodes = self.store.nodes
            for size, group in grades.items():
                if size < k:
                    for m, e in group.items():
                        if not m & ~mask and subsumes(nodes[e].seq, seq):
                            doomed.append(e)
        if not doomed:
            return InsertResult(InsertResult.ADDED, node=nid)
        doomed.sort()
        removed: list[tuple[int, Optional[int]]] = []
        queue = deque((e, nid) for e in doomed)
        while queue:
            e, repl = queue.popleft()
            if e not in self.entries:
                continue
            self._unlink(e)
            removed.append((e, repl))
            for c in self.store.consumers.get(e, ()):
                if c in self.entries:
                    queue.append((c, None))
        for listener in self.removal_listeners:
            listener(removed)
        return InsertResult(InsertResult.BACKWARD_REPLACED, node=nid,
                            removed=tuple(e for e, _ in removed))

    def dump(self, annotated: bool = False) -> str:
        """Canonical dump: one sequent per line, sorted by content so that
        equal databases dump identically regardless of insertion order.
        ``annotated`` appends the stored rule and premise node ids."""
        def sort_key(nid: int):
            s = self.store.nodes[nid].seq
            return (0 if s.regular else 1, s.rhs, s.gamma, s.sigma, s.theta)

        lines = []
        for nid in sorted(self.entries, key=sort_key):
            n = self.store.nodes[nid]
            line = n.seq.render()
            if annotated:
                prem = " ".join(str(p) for p in n.premises)
                line += f"  [{n.rule}" + (f" {prem}" if prem else "") + "]"
            lines.append(line)
        return "\n".join(lines)


def minimum_compact(db: Database) -> Database:
    """Drop every entry strictly subsumed by another; insertion-order free."""
    out = Database(db.u, db.store, compact_mode=db.compact_mode)
    for nid in db.entries:
        seq = db.store.nodes[nid].seq
        if db._subsumer(seq) == nid:
            out._link(nid, seq)
    return out


class JoinCandidateSet(JoinParts):
    """Irregular premises that pairwise satisfy the stable-coverage side
    condition, with distinct admissible right sides; caches the joined parts.

    Built from its sorted ``members``, or, when ``base`` is given, by folding
    the one member ``new`` onto the parts and rank of the set ``base``."""

    __slots__ = ("members", "ups_in_ps3", "needed_rank")

    def __init__(self, u: GoalUniverse, store: DerivationStore, members: tuple[int, ...],
                 base: JoinCandidateSet | None = None, new: int = -1):
        if base is None:
            super().__init__([store.nodes[m].seq for m in members])
            self.needed_rank = max(store.nodes[m].rank for m in members) + 1
        else:
            node = store.nodes[new]
            super().__init__((node.seq,), base)
            self.needed_rank = max(base.needed_rank, node.rank + 1)
        self.members = members
        self.ups_in_ps3 = not self.up_mask & ~u.ps3_mask


@dataclass
class SearchOutcome:
    """Either a proof of the goal (a regular goal sequent in the store) or
    the saturated database.  ``root`` is the first stored goal sequent and
    ``iterations`` counts the iterations up to the stop there, the one that
    stored it included."""
    status: str                      # "proof" | "saturated"
    db: Database
    universe: GoalUniverse
    root: Optional[int] = None
    iterations: int = 0
    stats: list = field(default_factory=list)

    PROOF = "proof"
    SATURATED = "saturated"

    @property
    def is_proof(self) -> bool:
        return self.status == SearchOutcome.PROOF

    @property
    def store(self) -> DerivationStore:
        return self.db.store


class SearchState:
    """One saturation run; exposes the iteration step for tests and tools."""

    def __init__(self, universe: GoalUniverse, *, backward_subsumption: bool = True,
                 min_height: bool = False, shuffle_seed: int | None = None,
                 collect_stats: bool = False):
        self.u = universe
        self.db = Database(universe, compact_mode=backward_subsumption)
        self.store = self.db.store
        self.min_height = min_height
        self.cap = 0  # join-rank cap, only enforced under min_height
        self.rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.collect_stats = collect_stats
        self.stats: list[dict] = []
        self.iteration = 0
        self._goal: Optional[int] = None  # the first stored goal sequent
        self.last: list[int] = []
        self._added_now: list[int] = []
        self._counters = {"generated": 0, "forward_subsumed": 0, "backward_removed": 0}

        self.sets: dict[frozenset[int], JoinCandidateSet] = {}
        self.by_member: dict[int, set[frozenset[int]]] = {}
        self.pending: deque[frozenset[int]] = deque()
        self.blocked: list[frozenset[int]] = []
        self.db.removal_listeners.append(self._on_removed)

    # -- insertion ---------------------------------------------------------

    def _insert(self, seq: Sequent, rule: str, premises: tuple[int, ...],
                rank: int) -> None:
        self._counters["generated"] += 1
        res = self.db.insert(seq, rule, premises, self.iteration, rank)
        if res.status == InsertResult.FORWARD_SUBSUMED:
            self._counters["forward_subsumed"] += 1
            return
        self._counters["backward_removed"] += len(res.removed)
        self._added_now.append(res.node)
        if seq.regular and seq.rhs == self.u.goal_pos:
            # The first: one premise's rules or one set's joins store at
            # most one goal sequent, and the search stops after them.
            self._goal = res.node

    def insert_axioms(self) -> list[int]:
        self._added_now = []
        for seq in axioms(self.u):
            self._insert(seq, AX_REG if seq.regular else AX_IRR, (), 0 if seq.regular else -1)
        self.last = self._added_now
        self._flush_stats()
        return self.last

    # -- join candidate maintenance ----------------------------------------

    def _register_set(self, members: tuple[int, ...],
                      base: JoinCandidateSet | None = None, new: int = -1) -> None:
        key = frozenset(members)
        if key in self.sets:
            return
        cs = JoinCandidateSet(self.u, self.store, members, base, new)
        self.sets[key] = cs
        for m in members:
            self.by_member.setdefault(m, set()).add(key)
        self.pending.append(key)

    def _add_candidate_member(self, nid: int) -> None:
        seq = self.store.nodes[nid].seq
        if not (self.u.ps4_mask >> seq.rhs) & 1:
            return
        extensions = [cs for cs in self.sets.values() if cs.admits(seq)]
        for cs in extensions:
            self._register_set(tuple(sorted(cs.members + (nid,))), cs, nid)
        self._register_set((nid,))

    def _on_removed(self, removed: list[tuple[int, Optional[int]]]) -> None:
        for rid, repl in removed:
            for key in list(self.by_member.get(rid, ())):
                cs = self.sets.pop(key, None)
                if cs is None:
                    continue
                for m in cs.members:
                    self.by_member.get(m, set()).discard(key)
                if repl is not None and not self.store.nodes[rid].seq.regular:
                    # Same stable part and right side, wider losable part:
                    # compatibility is preserved, so just swap the member in.
                    members = tuple(sorted(repl if m == rid else m for m in cs.members))
                    self._register_set(members)
            self.by_member.pop(rid, None)

    def _fire_set(self, key: frozenset[int]) -> None:
        cs = self.sets.get(key)
        if cs is None:
            return
        if self.min_height and cs.needed_rank > self.cap:
            self.blocked.append(key)
            return
        if not cs.supported:
            return  # never fires: only an extension by a supporting premise can
        u = self.u
        rank = cs.needed_rank
        if cs.ups_in_ps3:
            for f in u.prime_rhs:
                if not (cs.sig >> f) & 1:
                    self._insert(Sequent(u, True, cs.at_gamma(f), 0, 0, f), JOIN_AT,
                                 cs.members, rank)
        gamma_or = cs.or_gamma()
        ups = cs.up_mask
        for t, c1, c2 in u.or_targets:
            if (ups >> c1) & 1 and (ups >> c2) & 1:
                self._insert(Sequent(u, True, gamma_or, 0, 0, t), JOIN_OR, cs.members, rank)

    def _drain_pending(self) -> None:
        while self.pending:
            batch = list(self.pending)
            self.pending.clear()
            if self.rng is not None:
                self.rng.shuffle(batch)
            for key in batch:
                if self._goal is not None:
                    return
                self._fire_set(key)

    # -- one iteration -------------------------------------------------------

    def step(self) -> list[int]:
        """Apply every instance with a premise from the last iteration, then
        add each new irregular premise to the join candidates and fire the
        sets it completes before the next one is added; returns the ids of
        the conclusions that survived subsumption.  Stops at the first
        stored goal sequent."""
        self.iteration += 1
        self._added_now = []
        order = list(self.last)
        if self.rng is not None:
            self.rng.shuffle(order)
        for sid in order:
            if self._goal is not None:
                break
            if sid not in self.db.entries:
                continue  # retired mid-flight by backward subsumption
            node = self.store.nodes[sid]
            if node.seq.regular:
                self._regular_step(sid, node)
            else:
                self._irregular_step(sid, node)
        for sid in order:
            if self._goal is not None:
                break
            if sid in self.db.entries and not self.store.nodes[sid].seq.regular:
                self._add_candidate_member(sid)
                self._drain_pending()
        self.last = self._added_now
        self._flush_stats()
        return self.last

    def _regular_step(self, sid: int, node: StoreNode) -> None:
        u = self.u
        seq = node.seq
        for t in u.and_targets.get(seq.rhs, ()):
            self._insert(retarget(seq, t), RULE_AND, (sid,), node.rank)
        cl = u.closure(seq.gamma)
        for t, a in u.imp_targets.get(seq.rhs, ()):
            if not (cl >> a) & 1:
                continue
            self._insert(retarget(seq, t), RULE_IMP_IN, (sid,), node.rank)
            for th in maximal_avoiding(u, cl & u.gbar, a):
                self._insert(Sequent(u, False, 0, 0, th, t), RULE_IMP_NOTIN, (sid,),
                             node.rank)

    def _irregular_step(self, sid: int, node: StoreNode) -> None:
        u = self.u
        seq = node.seq
        for t in u.and_targets.get(seq.rhs, ()):
            self._insert(retarget(seq, t), RULE_AND, (sid,), node.rank)
        for t, a in u.imp_targets.get(seq.rhs, ()):
            for lam in minimal_shifts(u, seq.sigma, seq.theta, a):
                self._insert(shifted(seq, lam, t), RULE_IMP_IN, (sid,), node.rank)
        for t, c1, c2 in u.or_targets:
            if seq.rhs == c1:
                for pid in sorted(self.db.by_rhs.get(c2, ())):
                    self._try_or(sid, pid, t)
            if seq.rhs == c2:
                for pid in sorted(self.db.by_rhs.get(c1, ())):
                    self._try_or(pid, sid, t)

    def _try_or(self, lid: int, rid: int, t: int) -> None:
        a = self.store.nodes[lid]
        b = self.store.nodes[rid]
        if a.seq.regular or b.seq.regular:
            return
        if covers(a.seq, b.seq) and covers(b.seq, a.seq):
            self._insert(or_conclusion(a.seq, b.seq, t), RULE_OR, (lid, rid),
                         max(a.rank, b.rank))

    def _flush_stats(self) -> None:
        if self.collect_stats:
            self.stats.append({
                "iteration": self.iteration,
                "db_size": len(self.db),
                "candidate_sets": len(self.sets),
                **self._counters,
            })
        self._counters = {"generated": 0, "forward_subsumed": 0, "backward_removed": 0}

    # -- full runs -----------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> SearchOutcome:
        self.insert_axioms()
        while self._goal is None:
            if not self.last:
                if self.min_height and self.blocked:
                    self.cap += 1
                    self.pending.extend(self.blocked)
                    self.blocked = []
                    self._added_now = []
                    self._drain_pending()
                    self.last = self._added_now
                    self._flush_stats()
                    continue
                return SearchOutcome(SearchOutcome.SATURATED, self.db, self.u,
                                     iterations=self.iteration, stats=self.stats)
            if max_iterations is not None and self.iteration >= max_iterations:
                raise IterationBudgetExceeded(
                    f"no fixpoint within {max_iterations} iterations")
            self.step()
        return SearchOutcome(SearchOutcome.PROOF, self.db, self.u, root=self._goal,
                             iterations=self.iteration, stats=self.stats)


def fsearch(goal: Formula | GoalUniverse, *, backward_subsumption: bool = True,
            min_height: bool = False, max_iterations: int | None = None,
            shuffle_seed: int | None = None, collect_stats: bool = False,
            ) -> SearchOutcome:
    """Decide the goal by forward saturation.

    Returns a proof outcome exactly when a regular sequent with the goal on
    the right is derivable (the goal is then not intuitionistically valid);
    otherwise the returned database is saturated, and compact when backward
    subsumption was on.
    """
    universe = goal if isinstance(goal, GoalUniverse) else build_universe(goal)
    state = SearchState(universe, backward_subsumption=backward_subsumption,
                        min_height=min_height, shuffle_seed=shuffle_seed,
                        collect_stats=collect_stats)
    return state.run(max_iterations)
