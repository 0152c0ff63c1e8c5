"""Forward saturation: databases, subsumption, join scheduling, search.

The loop inserts the axioms, then repeatedly applies every rule instance
with at least one premise proved in the last iteration, discarding
conclusions subsumed by the database (forward subsumption).  It stops as
soon as a regular sequent with the goal on the right is stored: that
derivation refutes the goal, so only a valid goal saturates the database.
The stop is checked after each premise's rule instances and after each
join set fires, so the rest of the iteration is never applied.

Every conclusion goes into the database through ``Database.insert``.  With
backward subsumption on, inserting a strictly stronger sequent retires the
weaker entries and, transitively, every entry whose stored derivation used
one, and reports them to the database's removal listeners; retired store
nodes are tombstoned, never deleted, so earlier proofs stay replayable.  The
derivation store gives each node its rank, the join depth of its
derivation, as it is added; a retired sequent derived again keeps its node,
and with it its first derivation and rank.

Both subsumption checks go through an index built from the definition of
``rules.subsumes``: a regular sequent can only be subsumed by a regular one
with the same right side and a left side holding its own, an irregular one
only by an irregular one with the same right side and stable part and a
losable part holding its own.  So the database keeps one bucket per
``(True, rhs)`` and per ``(False, rhs, sigma)``, and grades each bucket by
the size of that mask.  Forward subsumption looks up the exact mask and
scans only the larger grades; backward subsumption scans only the smaller
ones.  Within a bucket, mask inclusion is subsumption, so the forward query
runs on a bucket key and a mask; storing is that query plus one store tail.
A join conclusion and the regular sequents the walk bounds below query are
given as masks, and a ``Sequent`` is built only for a conclusion that is
stored, or to confirm an index hit with ``subsumes``.  The closure of a
regular premise's left side is computed only when an implication rule has
the premise's right side as consequent: no other rule reads it.

Join rules range over candidate premise sets: irregular premises with
pairwise covering stable parts, pairwise distinct right sides, and every
right side admissible as a join participant (it must occur as an
antecedent on the left of the goal, or as a disjunct on the right).  No
set is stored.  Each new premise starts a depth-first walk from its
singleton set over the older live premises that set admits: for each
candidate in turn it walks the extension by that candidate over the
earlier candidates the extension admits, and fires the set itself last,
so every set is built once, from its base set in constant time, with the
aggregate masks of ``rules.JoinParts`` (its right sides, the union of its
stable parts, the intersection of its left sides, its common losable part
and the implications its right sides support); its rank is the larger of
the base's and the new premise's rank plus one.  An unsupported set never
fires; only its extensions by a supporting premise can.  A candidate
retired before the walk reaches it is skipped, but no member of a set
retires while the walk is below that set, because the sequent weight
(``rules.weight``) strictly drops from each premise to its conclusion.  A
conclusion J that strictly subsumes an entry D holds D's right side and
at least its left side, so weight(D) <= weight(J); every entry the
cascade then retires derives from D, so weighs at most weight(D); and
each premise m of J's rule instance weighs more than J.  So the cascade
never reaches m, and as every set fired below a set holds its members,
none of them retires during its walk.  The walk of each new premise ends
before the next premise is added, so sets that would only be built after
the goal is found never are.

Before descending into a set ``S`` that has candidates, the walk bounds
every set below it.  A set ``T`` below holds ``S`` and some candidates, so
its stable parts hold ``S``'s and its ``cover`` lies inside the ``cover``
taken over ``S`` and all candidates.  If a stable implication of ``S``
lies outside that ``cover``, no ``T`` is supported, so none fires, at this
wave or a later one, and the subtree is skipped: nothing in it would insert.
Otherwise ``T`` fires only when supported, so every stable implication of
``T`` is in its ``cover``.  A candidate's stable part lies in the left
side of each member of ``S``, so each of its elements is in ``S``'s
stable parts or in ``S``'s common losable part.  Hence every left side
below lies inside ``B = sig | theta & (var_mask | cover)``, with ``sig``
and ``theta`` those of ``S`` and ``cover`` taken over ``S`` and all
candidates, minus the target atom for ``join-at``.  A ``join-at`` target
is a prime outside ``S``'s stable parts and needs ``S``'s right sides in
``ps3``; a ``join-or`` target needs both disjuncts among the right sides
of ``S`` and the candidates.  If the database subsumes the regular
sequent with that left side on every such target, every conclusion below
is forward subsumed and the subtree is skipped.  The skip is exact:
nothing inserted means no backward subsumption, no retired entry and no
goal sequent, so the database stays as the bound read it and the store
is the one the full walk would leave.

The minimal-height strategy delays joins.  A walk that reaches a set of
join rank above the current wave stops there and defers the set together
with its candidates: a rank only grows along a walk, so no set below it
could fire at this wave.  Once everything else has saturated, the wave
increases, and each deferred set whose members are all still live is
walked again, over its candidates that are still live, with both bounds
read against the database as it stands then; a set still above the new
wave is deferred again.  So every set fires through a walk.  The support
bound is exact under the strategy too, as an unsupported set fires at no
wave.  The subsumption bound reads the database now, while a deferred set
fires later, when a backward-subsumption cascade (which retires consumers
without a replacement) may have taken away what subsumes its conclusions
now.  So under the strategy the bound only skips a subtree whose
candidates all rank below the wave: every set below then ranks at or
under it and fires in this walk.  The first wave at which a goal sequent
appears is then the least possible join depth, i.e. the minimal
countermodel height.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .formula import Formula, GoalUniverse, build_universe
from .rules import (JOIN_AT, JOIN_OR, JoinParts, Sequent, axioms, covers, maximal_avoiding,
                    minimal_shifts, or_conclusion, retarget, shifted, subsumes)

AX_REG, AX_IRR = "ax=>", "ax->"
RULE_AND, RULE_OR, RULE_IMP_IN, RULE_IMP_NOTIN = "and", "or", "imp-in", "imp-notin"
JOIN_RULES = (JOIN_AT, JOIN_OR)
_COUNTERS = ("candidate_sets", "subtrees_skipped", "generated", "forward_subsumed",
             "backward_removed")


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
    derivation, and with it the first rank.  A node's rank is the join depth
    of its derivation: 0 for a regular axiom, -1 for an irregular one, the
    deepest premise's rank plus one for a join, and the deepest premise's
    rank for every other rule.  ``consumers`` inverts the premise links for
    backward subsumption cascades.
    """

    def __init__(self, universe: GoalUniverse):
        self.u = universe
        self.nodes: list[StoreNode] = []
        self.by_key: dict[tuple, int] = {}
        self.consumers: dict[int, list[int]] = {}

    def add(self, seq: Sequent, rule: str, premises: tuple[int, ...],
            iteration: int) -> int:
        key = seq.key
        nid = self.by_key.get(key)
        if nid is not None:
            return nid
        nodes = self.nodes
        if premises:
            rank = max([nodes[p].rank for p in premises]) + (1 if rule in JOIN_RULES else 0)
        else:
            rank = 0 if seq.regular else -1
        nid = len(nodes)
        nodes.append(StoreNode(seq, rule, premises, iteration, rank))
        self.by_key[key] = nid
        consumers = self.consumers
        for p in premises:
            users = consumers.get(p)
            if users is None:
                consumers[p] = [nid]
            else:
                users.append(nid)
        return nid

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


def _index_key(seq: Sequent) -> tuple[tuple, int]:
    """The subsumption bucket of ``seq`` and its mask within the bucket."""
    if seq.regular:
        return (True, seq.rhs), seq.gamma
    return (False, seq.rhs, seq.sigma), seq.theta


def _sequent_at(u: GoalUniverse, key: tuple, mask: int) -> Sequent:
    """The sequent of bucket ``key`` with mask ``mask`` (:func:`_index_key`
    inverted)."""
    if key[0]:
        return Sequent(u, True, mask, 0, 0, key[1])
    return Sequent(u, False, 0, key[2], mask, key[1])


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

    def _link(self, nid: int, rhs: int, key: tuple, mask: int) -> dict[int, dict[int, int]]:
        """Make ``nid`` live, with right side ``rhs``, in bucket ``key``
        under ``mask``; returns the bucket."""
        self.entries.add(nid)
        same_rhs = self.by_rhs.get(rhs)
        if same_rhs is None:
            self.by_rhs[rhs] = {nid}
        else:
            same_rhs.add(nid)
        grades = self._index.get(key)
        if grades is None:
            grades = self._index[key] = {}
        k = mask.bit_count()
        group = grades.get(k)
        if group is None:
            grades[k] = {mask: nid}
        else:
            group[mask] = nid
        return grades

    def _unlink(self, nid: int) -> None:
        seq = self.store.nodes[nid].seq
        self.entries.discard(nid)
        self.by_rhs.get(seq.rhs, set()).discard(nid)
        key, mask = _index_key(seq)
        del self._index[key][mask.bit_count()][mask]

    def _subsumer(self, key: tuple, mask: int, seq: Sequent | None = None,
                  ) -> Optional[int]:
        """An entry subsuming the sequent of bucket ``key`` and mask
        ``mask``, one with a strictly larger mask if any: an entry of the
        database gets itself back exactly when no other entry subsumes it.

        The index finds the entry on masks alone, since within a bucket mask
        inclusion is subsumption; ``subsumes`` confirms the hit, on ``seq``,
        or on the sequent built from ``key`` and ``mask`` when ``seq`` is
        None, so a query that finds nothing builds no sequent."""
        grades = self._index.get(key)
        if not grades:
            return None
        k = mask.bit_count()
        for size, group in grades.items():
            if size > k:
                for m in group:
                    if m & mask == mask:
                        return self._confirmed(group[m], key, mask, seq)
        group = grades.get(k)
        e = group.get(mask) if group is not None else None
        return None if e is None else self._confirmed(e, key, mask, seq)

    def _confirmed(self, e: int, key: tuple, mask: int, seq: Sequent | None,
                   ) -> Optional[int]:
        if seq is None:
            seq = _sequent_at(self.u, key, mask)
        return e if subsumes(seq, self.store.nodes[e].seq) else None

    def insert(self, key: tuple, mask: int, rule: str, premises: tuple[int, ...] = (),
               iteration: int = 0, seq: Sequent | None = None) -> Optional[int]:
        """Store the sequent of bucket ``key`` and mask ``mask`` (see
        :func:`_index_key`) unless an entry subsumes it (:meth:`_subsumer`),
        and return its node id, or None when it is subsumed.  ``seq`` is
        that sequent, or None to build it only if it is stored."""
        if self._subsumer(key, mask, seq) is not None:
            return None
        if seq is None:
            seq = _sequent_at(self.u, key, mask)
        return self._store(seq, key, mask, rule, premises, iteration)

    def _store(self, seq: Sequent, key: tuple, mask: int, rule: str,
               premises: tuple[int, ...], iteration: int) -> int:
        """Store ``seq``, of bucket ``key`` and mask ``mask``, which no entry
        subsumes, make it live and return its node id; in compact mode also
        retire every strictly subsumed entry together with its stored
        consequences, and report them to the ``removal_listeners``."""
        nid = self.store.add(seq, rule, premises, iteration)
        grades = self._link(nid, seq.rhs, key, mask)
        doomed = []
        if self.compact_mode:
            k = mask.bit_count()
            outside = ~mask
            nodes = self.store.nodes
            for size, group in grades.items():
                if size < k:
                    for m in group:
                        if not m & outside and subsumes(nodes[group[m]].seq, seq):
                            doomed.append(group[m])
        if not doomed:
            return nid
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
        return nid

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
        key, mask = _index_key(seq)
        if db._subsumer(key, mask, seq) == nid:
            out._link(nid, seq.rhs, key, mask)
    return out


class JoinCandidateSet(JoinParts):
    """Irregular premises that pairwise satisfy the stable-coverage side
    condition, with distinct admissible right sides; caches the joined parts.

    Built from its sorted ``members``, or, when ``base`` is given, by folding
    the one member ``new`` onto the parts and rank of the set ``base``."""

    __slots__ = ("members", "needed_rank")

    def __init__(self, store: DerivationStore, members: tuple[int, ...],
                 base: JoinCandidateSet | None = None, new: int = -1):
        if base is None:
            super().__init__([store.nodes[m].seq for m in members])
            self.needed_rank = max(store.nodes[m].rank for m in members) + 1
        else:
            node = store.nodes[new]
            self.fold(base, node.seq)
            self.needed_rank = max(base.needed_rank, node.rank + 1)
        self.members = members


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
        self._counters = dict.fromkeys(_COUNTERS, 0)

        self.members: dict[int, None] = {}  # walked join premises still live, oldest first
        self.blocked: list[tuple[JoinCandidateSet, list[int]]] = []  # deferred walks
        self.db.removal_listeners.append(self._on_removed)

    # -- insertion ---------------------------------------------------------

    def _insert(self, seq: Sequent, rule: str, premises: tuple[int, ...]) -> None:
        key, mask = _index_key(seq)
        self._insert_at(key, mask, rule, premises, seq)

    def _insert_at(self, key: tuple, mask: int, rule: str, premises: tuple[int, ...],
                   seq: Sequent | None = None) -> None:
        """Insert the conclusion of bucket ``key`` and mask ``mask`` through
        ``Database.insert``; ``seq`` is that sequent, or None to build it
        only if it is stored."""
        self._counters["generated"] += 1
        nid = self.db.insert(key, mask, rule, premises, self.iteration, seq)
        if nid is None:
            self._counters["forward_subsumed"] += 1
            return
        self._added_now.append(nid)
        if key[0] and key[1] == self.u.goal_pos:
            # The first: one premise's rules or one set's joins store at
            # most one goal sequent, and the search stops after them.
            self._goal = nid

    def insert_axioms(self) -> list[int]:
        self._added_now = []
        for seq in axioms(self.u):
            self._insert(seq, AX_REG if seq.regular else AX_IRR, ())
        self.last = self._added_now
        self._flush_stats()
        return self.last

    # -- join candidate sets -------------------------------------------------

    def _add_candidate_member(self, nid: int) -> None:
        seq = self.store.nodes[nid].seq
        if nid in self.members or not (self.u.ps4_mask >> seq.rhs) & 1:
            return
        cs = JoinCandidateSet(self.store, (nid,))
        self._counters["candidate_sets"] += 1
        cands = [m for m in self.members if cs.admits(self.store.nodes[m].seq)]
        self.members[nid] = None
        if self.rng is not None:
            self.rng.shuffle(cands)
        self._walk(cs, cands)

    def _walk(self, cs: JoinCandidateSet, cands: list[int]) -> None:
        """Fire ``cs`` (all of whose members are live) and every set that
        extends it by some of ``cands``: for each candidate still live in
        turn, the extension by it and the extensions of that by earlier
        candidates, then ``cs`` itself; skip them all when ``_subsumed``
        shows they would insert nothing, and defer them all to a later wave
        when ``cs`` is above the current one.  No fire below ``cs`` retires
        a member of ``cs`` (the weight lemma of the module docstring), so
        ``cs`` stays live throughout."""
        if self.min_height and cs.needed_rank > self.cap:
            self.blocked.append((cs, cands))
            return
        if cands and self._subsumed(cs, cands):
            self._counters["subtrees_skipped"] += 1
            return
        nodes = self.store.nodes
        members = self.members
        for j, c in enumerate(cands):
            if self._goal is not None:
                return
            if c in members:
                ext = JoinCandidateSet(self.store, tuple(sorted(cs.members + (c,))), cs, c)
                self._counters["candidate_sets"] += 1
                self._walk(ext, [d for d in cands[:j] if ext.admits(nodes[d].seq)])
        if self._goal is None:
            self._fire(cs)

    def _subsumed(self, cs: JoinCandidateSet, cands: list[int]) -> bool:
        """Whether no set that extends ``cs`` by some of ``cands``, ``cs``
        included, is supported, or the database subsumes every conclusion of
        them all and none would be deferred (the bounds of the module
        docstring)."""
        u = self.u
        nodes = self.store.nodes
        by_ante = u.imps_by_ante
        ups, cover = cs.up_mask, cs.cover
        for c in cands:
            rhs = nodes[c].seq.rhs
            ups |= 1 << rhs
            cover |= by_ante.get(rhs, 0)
        if cs.sig & u.imp_mask & ~cover:
            return True
        if self.min_height and max(nodes[c].rank for c in cands) >= self.cap:
            return False
        subsumer = self.db._subsumer
        for t, _rule, gamma in cs.conclusions(ups, cover):
            if subsumer((True, t), gamma) is None:
                return False
        return True

    def _live(self, cs: JoinCandidateSet) -> bool:
        return all(m in self.members for m in cs.members)

    def _on_removed(self, removed: list[tuple[int, Optional[int]]]) -> None:
        self._counters["backward_removed"] += len(removed)
        for rid, _repl in removed:
            self.members.pop(rid, None)

    def _fire(self, cs: JoinCandidateSet) -> None:
        if not cs.supported:
            return  # never fires: only an extension by a supporting premise can
        for t, rule, gamma in cs.conclusions(cs.up_mask, cs.cover):
            self._insert_at((True, t), gamma, rule, cs.members)

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
        self.last = self._added_now
        self._flush_stats()
        return self.last

    def _regular_step(self, sid: int, node: StoreNode) -> None:
        u = self.u
        seq = node.seq
        for t in u.and_targets.get(seq.rhs, ()):
            self._insert(retarget(seq, t), RULE_AND, (sid,))
        imps = u.imp_targets.get(seq.rhs)
        if not imps:
            return
        cl = u.closure(seq.gamma)  # only the implication rules read it
        for t, a in imps:
            if not (cl >> a) & 1:
                continue
            self._insert(retarget(seq, t), RULE_IMP_IN, (sid,))
            for th in maximal_avoiding(u, cl & u.gbar, a):
                self._insert(Sequent(u, False, 0, 0, th, t), RULE_IMP_NOTIN, (sid,))

    def _irregular_step(self, sid: int, node: StoreNode) -> None:
        u = self.u
        seq = node.seq
        for t in u.and_targets.get(seq.rhs, ()):
            self._insert(retarget(seq, t), RULE_AND, (sid,))
        for t, a in u.imp_targets.get(seq.rhs, ()):
            for lam in minimal_shifts(u, seq.sigma, seq.theta, a):
                self._insert(shifted(seq, lam, t), RULE_IMP_IN, (sid,))
        for t, c1, c2 in u.or_targets:
            if seq.rhs == c1:
                for pid in sorted(self.db.by_rhs.get(c2, ())):
                    self._try_or(sid, pid, t)
            if seq.rhs == c2:
                for pid in sorted(self.db.by_rhs.get(c1, ())):
                    self._try_or(pid, sid, t)

    def _try_or(self, lid: int, rid: int, t: int) -> None:
        a = self.store.nodes[lid].seq
        b = self.store.nodes[rid].seq
        if a.regular or b.regular:
            return
        if covers(a, b) and covers(b, a):
            self._insert(or_conclusion(a, b, t), RULE_OR, (lid, rid))

    def _flush_stats(self) -> None:
        if self.collect_stats:
            self.stats.append({
                "iteration": self.iteration,
                "db_size": len(self.db),
                **self._counters,
            })
        self._counters = dict.fromkeys(_COUNTERS, 0)

    # -- full runs -----------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> SearchOutcome:
        self.insert_axioms()
        while self._goal is None:
            if not self.last:
                if self.min_height and self.blocked:
                    self.cap += 1
                    batch, self.blocked = self.blocked, []
                    if self.rng is not None:
                        self.rng.shuffle(batch)
                    self._added_now = []
                    for cs, cands in batch:
                        if self._goal is not None:
                            break
                        if self._live(cs):
                            self._walk(cs, [c for c in cands if c in self.members])
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
