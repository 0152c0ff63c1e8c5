"""Forward saturation: databases, subsumption, join scheduling, search.

The loop inserts the axioms, then repeatedly applies every rule instance
with at least one premise proved in the last iteration, discarding
conclusions subsumed by the database (forward subsumption).  It stops as
soon as a regular sequent with the goal on the right is stored: that
derivation refutes the goal, so only a valid goal saturates the database.
The stop is checked after each premise's rule instances and after each
join set fires, so the rest of the iteration is never applied.

Every conclusion goes into the database through ``Database.insert``.  With
backward subsumption on, inserting a sequent retires the entries it strictly
subsumes and reports each, with the new node as its replacement, to the
database's removal listeners; retired store nodes are tombstoned, never
deleted, so earlier proofs stay replayable.  So every retired entry is
subsumed by a live one, and as ``subsumes`` is transitive, subsumption is
monotone: a sequent the database subsumes stays subsumed for the rest of
the run, and no sequent is stored twice.  Each node gets its rank, the join
depth of its derivation, as it is added: the derivation store computes it
from the premises, except for the conclusions of a fired join set, which
take the rank the set was built with.

Both subsumption checks go through an index built from the definition of
``rules.subsumes``: a regular sequent can only be subsumed by a regular one
with the same right side and a left side holding its own, an irregular one
only by an irregular one with the same right side and stable part and a
losable part holding its own.  So the database keeps one bucket per
``(True, rhs)`` and per ``(False, rhs, sigma)``, and grades each bucket by
the size of that mask.  Forward subsumption looks up the exact mask and
the larger grades.  Every stored mask lies inside ``gbar``, so the grade one
larger holds a superset exactly when it holds the mask plus one bit of
``gbar`` outside it; when that grade holds more masks than there are such
bits, the query probes for them, implications first, instead of scanning
it, and it scans every other larger grade.  Backward subsumption scans only
the smaller grades.  A bucket fixes everything ``subsumes`` compares but
the mask, so within a bucket mask inclusion is subsumption, and an index
hit is not confirmed: the forward query runs on a bucket key and a mask
alone, and the walk's bound queries the regular sequents below a set as
masks, building none.  Storing is that query plus one store tail.  Each
conclusion is built as a ``Sequent`` once and inserted with one call.

Every rule looks up the targets a premise feeds by its right side.  The
closure of a regular premise's left side is computed only when an
implication rule has the premise's right side as consequent: no other rule
reads it.

Join rules range over candidate premise sets: irregular premises with
pairwise covering stable parts, pairwise distinct right sides, and every
right side admissible as a join participant (it must occur as an
antecedent on the left of the goal, or as a disjunct on the right).  The
search keeps the join state and code in one ``JoinScheduler`` and calls it
through three entry points only: ``add`` with the live irregular premises
of each step, ``raise_wave`` once everything below the wave has saturated,
and ``on_removed`` with each batch the database retires; the scheduler
inserts every conclusion through the search's own insertion path.  No set
is stored.  An iteration registers its new premises ranked below the wave
as members, oldest first, and then starts a depth-first walk from each,
newest first: from the premise's singleton set over the members registered
before it that the set admits.  The walk visits those
candidates newest first; for each it walks the extension by that
candidate over the candidates before it that the extension admits, and
fires the set itself last.  So every set is walked once, from its newest
member, and built once, from its base set in constant time, with the
aggregate masks of ``rules.JoinParts`` (its right sides, the union of its
stable parts, the intersection of its left sides, its common losable part
and the implications its right sides support); its rank is the larger of
the base's and the new premise's rank plus one.  The sets of an iteration
fire in descending order of their member lists, each sorted newest first,
so every set fires after each superset of it that fires: where a
superset's conclusion subsumes a subset's, the subset's is forward
subsumed instead of stored and then retired.  An unsupported set never
fires; only its extensions by a supporting premise can.  Members and
candidates are irregular, and walks insert only join conclusions, which
are regular; a regular sequent strictly subsumes only regular entries, so
no member retires while walks run, and every set walked has all its
members live.  A premise's singleton set and its candidates are built
only when its walk starts, so the walks after the one that stores a goal
sequent build nothing.

Before descending into a set ``S`` that has candidates, the walk bounds
every set below it.  A set ``T`` below holds ``S`` and some candidates, so
its stable parts hold ``S``'s and its ``cover`` lies inside the ``cover``
taken over ``S`` and all candidates.  If a stable implication of ``S``
lies outside that ``cover``, no ``T`` is supported, so none fires, and the
subtree is skipped: nothing in it would insert.  Otherwise ``T`` fires
only when supported, so every stable implication of ``T`` is in its
``cover``.  A candidate's stable part lies in the left side of each
member of ``S``, so each of its elements is in ``S``'s stable parts or in
``S``'s common losable part.  Hence every left side
below lies inside ``B = sig | theta & (var_mask | cover)``, with ``sig``
and ``theta`` those of ``S`` and ``cover`` taken over ``S`` and all
candidates, minus the target atom for ``join-at``.  A ``join-at`` target
is a prime outside ``S``'s stable parts and needs ``S``'s right sides in
``ps3``; a ``join-or`` target needs both disjuncts among the right sides
of ``S`` and the candidates.  If the database subsumes the regular
sequent with that left side on every such target, every conclusion below
is forward subsumed, and the subtree is skipped.  The skip is exact:
nothing inserted means no backward subsumption, no retired entry and no
goal sequent, so the database stays as the bound read it and the store is
the one the full walk would leave.

Every run delays joins by wave, so that every countermodel has minimal
height.  A join premise ranked at or above the current wave is not
registered: it waits.  So every member ranks below the wave, and every set
walked, whose rank is its deepest member's plus one, is at or below it.
Once everything else has saturated, the wave increases, and the waiting
premises still live are registered as one more batch, in the order they
came.  A set fires once all its members are registered, at the first wave
that reaches its rank, so the first wave at which a goal sequent appears
is the least possible join depth, i.e. the minimal countermodel height.
Every set walked fires within the same walk, so both bounds need to hold
only when they are read: an unsupported set never fires, and as
subsumption is monotone, a conclusion the database subsumes when the bound
reads it is still subsumed when its set fires.
"""

from __future__ import annotations

import random
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

    ``add`` always appends a node.  The search never adds a sequent twice:
    the database subsumes every sequent it stored, retired ones included.
    ``countermodel.derivation_from_model``, which can derive one sequent at
    several worlds, looks its sequents up itself.  A node's rank is the join
    depth of its derivation: 0 for a regular axiom, -1 for an irregular one,
    the deepest premise's rank plus one for a join, and the deepest
    premise's rank for every other rule.  ``add`` computes it from the
    premises unless the caller passes it, as the search does for a fired
    join set, which holds that rank already.
    """

    def __init__(self, universe: GoalUniverse):
        self.u = universe
        self.nodes: list[StoreNode] = []

    def add(self, seq: Sequent, rule: str, premises: tuple[int, ...], iteration: int,
            rank: int | None = None) -> int:
        """The id of a new node for ``seq``, with rank ``rank``, or the one
        its premises give."""
        nodes = self.nodes
        nid = len(nodes)
        if rank is None:
            if premises:
                rank = max([nodes[p].rank for p in premises]) + (rule in JOIN_RULES)
            else:
                rank = 0 if seq.regular else -1
        nodes.append(StoreNode(seq, rule, premises, iteration, rank))
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


class Database:
    """The set of currently live proved sequents.

    ``entries`` holds the live node ids and ``by_rhs`` groups them by right
    side.  A private subsumption index keeps one bucket per ``(True, rhs)``
    for regular entries (mask Gamma) and per ``(False, rhs, sigma)`` for
    irregular ones (mask Theta), graded by mask size into ``{mask: nid}``
    dicts.  An entry subsuming a sequent sits in the sequent's bucket with
    a mask holding the sequent's, the same or strictly larger, and an entry
    the sequent strictly subsumes with a strictly smaller one held in it.
    The bucket fixes the flavour, the right side and, for an irregular
    sequent, the stable part, so mask inclusion within it is exactly
    ``subsumes``, and no entry found this way is confirmed.  Retiring an
    entry may leave an empty grade.  ``insert`` takes the sequent itself;
    the lookup, ``_subsumer``, takes a bucket and a mask.
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

    def _subsumer(self, key: tuple, mask: int) -> Optional[int]:
        """An entry subsuming the sequent of bucket ``key`` and mask
        ``mask``, one with a strictly larger mask if any: an entry of the
        database gets itself back exactly when no other entry subsumes it.

        The index finds the entry on masks alone and returns it unconfirmed:
        within a bucket mask inclusion is subsumption, so every hit is a
        subsumer, and a query builds no sequent."""
        grades = self._index.get(key)
        if not grades:
            return None
        k = mask.bit_count()
        for size, group in grades.items():
            if size == k + 1:
                # Every stored mask lies inside ``gbar``, so a superset one
                # larger is ``mask`` plus one bit of ``free``: when the grade
                # holds more masks than that, probe for them instead, the
                # implications first: where a join set's superset fired
                # first, its conclusion holds one more implication.
                free = self.u.gbar & ~mask
                if len(group) > free.bit_count():
                    imps = self.u.gimp
                    while free:
                        bits = free & imps or free
                        bit = bits & -bits
                        e = group.get(mask | bit)
                        if e is not None:
                            return e
                        free ^= bit
                    continue
            if size > k:
                for m in group:
                    if m & mask == mask:
                        return group[m]
        group = grades.get(k)
        return group.get(mask) if group is not None else None

    def insert(self, seq: Sequent, rule: str, premises: tuple[int, ...] = (),
               iteration: int = 0, rank: int | None = None) -> Optional[int]:
        """Store ``seq`` unless an entry subsumes it (:meth:`_subsumer`), make
        it live and return its node id, or return None when it is subsumed.
        In compact mode also retire every entry ``seq`` strictly subsumes, and
        report them, in node order and each with the new node as its
        replacement, to the ``removal_listeners``.  ``rank`` goes to
        :meth:`DerivationStore.add`.

        The retirement scan still calls ``subsumes`` on each entry it
        retires, although the index has decided it already: the benchmark's
        per-layer subsumption counters wrap that module global."""
        key, mask = _index_key(seq)
        if self._subsumer(key, mask) is not None:
            return None
        nid = self.store.add(seq, rule, premises, iteration, rank)
        grades = self._link(nid, seq.rhs, key, mask)
        if not self.compact_mode:
            return nid
        k = mask.bit_count()
        outside = ~mask
        nodes = self.store.nodes
        doomed = []
        for size, group in grades.items():
            if size < k:
                for m in group:
                    if not m & outside and subsumes(nodes[group[m]].seq, seq):
                        doomed.append(group[m])
        if doomed:
            doomed.sort()
            for e in doomed:
                self._unlink(e)
            removed = [(e, nid) for e in doomed]
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
        if db._subsumer(key, mask) == nid:
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
    """One saturation run, with joins staged by wave so that the first goal
    sequent has the least join depth; exposes the iteration step for tests
    and tools.  The joins go through the :class:`JoinScheduler` in ``joins``,
    which tests may replace on a state they built."""

    def __init__(self, universe: GoalUniverse, *, backward_subsumption: bool = True,
                 shuffle_seed: int | None = None, collect_stats: bool = False):
        self.u = universe
        self.db = Database(universe, compact_mode=backward_subsumption)
        self.store = self.db.store
        self.rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.collect_stats = collect_stats
        self.stats: list[dict] = []
        self.iteration = 0
        self._goal: Optional[int] = None  # the first stored goal sequent
        self.last: list[int] = []
        self._added_now: list[int] = []
        self._counters = dict.fromkeys(_COUNTERS, 0)
        self.joins = JoinScheduler(self)
        self.db.removal_listeners.append(self._on_removed)

    # -- insertion ---------------------------------------------------------

    def _insert(self, seq: Sequent, rule: str, premises: tuple[int, ...],
                rank: int | None = None) -> None:
        """Insert the conclusion ``seq`` through ``Database.insert``, with rank
        ``rank`` or, without one, the rank its premises give."""
        self._counters["generated"] += 1
        nid = self.db.insert(seq, rule, premises, self.iteration, rank)
        if nid is None:
            self._counters["forward_subsumed"] += 1
            return
        self._added_now.append(nid)
        if seq.regular and seq.rhs == self.u.goal_pos:
            # The first: one premise's rules, or one set's conclusions,
            # store at most one goal sequent, and the search stops after them.
            self._goal = nid

    def insert_axioms(self) -> list[int]:
        self._added_now = []
        for seq in axioms(self.u):
            self._insert(seq, AX_REG if seq.regular else AX_IRR, ())
        self.last = self._added_now
        self._flush_stats()
        return self.last

    def _on_removed(self, removed: list[tuple[int, int]]) -> None:
        self._counters["backward_removed"] += len(removed)
        self.joins.on_removed(removed)

    # -- one iteration -------------------------------------------------------

    def step(self) -> list[int]:
        """Apply every instance with a premise from the last iteration, then
        hand every irregular premise still live to ``joins.add``, which
        registers the join premises ranked below the wave as members and
        walks from each, newest first, firing every set after its supersets;
        returns the ids of the conclusions that survived subsumption.  Stops
        at the first stored goal sequent."""
        self.iteration += 1
        self._added_now = []
        entries = self.db.entries
        order = list(self.last)
        if self.rng is not None:
            self.rng.shuffle(order)
        irregular = []
        for sid in order:
            if self._goal is not None:
                break
            if sid not in entries:
                continue  # retired mid-flight by backward subsumption
            node = self.store.nodes[sid]
            if node.seq.regular:
                self._regular_step(sid, node)
            else:
                irregular.append(sid)
                self._irregular_step(sid, node)
        if self._goal is None:
            self.joins.add([sid for sid in irregular if sid in entries])
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
        for t, other, left in u.or_partners.get(seq.rhs, ()):
            for pid in sorted(self.db.by_rhs.get(other, ())):
                lid, rid = (sid, pid) if left else (pid, sid)
                self._try_or(lid, rid, t)

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
            if self.last:
                if max_iterations is not None and self.iteration >= max_iterations:
                    raise IterationBudgetExceeded(
                        f"no fixpoint within {max_iterations} iterations")
                self.step()
                continue
            # Everything below the wave has saturated: raise it.
            self._added_now = []
            if not self.joins.raise_wave():
                return SearchOutcome(SearchOutcome.SATURATED, self.db, self.u,
                                     iterations=self.iteration, stats=self.stats)
            self.last = self._added_now
            self._flush_stats()
        return SearchOutcome(SearchOutcome.PROOF, self.db, self.u, root=self._goal,
                             iterations=self.iteration, stats=self.stats)


class JoinScheduler:
    """The joins of one search: the wave ``cap``, the registered ``members``
    and the ``waiting`` premises, and the walks that build and fire the
    candidate sets.  The search calls it through three entry points:
    :meth:`add` with each step's live irregular premises, :meth:`raise_wave`
    once everything below the wave has saturated, and :meth:`on_removed`
    with each batch the database retires.  Every conclusion goes through
    the search's ``_insert``."""

    def __init__(self, state: SearchState):
        self.state = state
        self.cap = 0  # the wave: the highest join rank that may fire
        self.members: dict[int, None] = {}  # join premises still live, oldest registered first
        self.waiting: list[int] = []  # join premises ranked at or above the wave

    def add(self, premises: list[int]) -> None:
        """Register the join premises among ``premises`` (live irregular
        sequents, none registered yet) ranked below the wave as members, in
        their order, and put the others in ``waiting``; then walk from each
        new member, the last first: from its singleton set over the members
        registered before it that the set admits."""
        state = self.state
        nodes, members = state.store.nodes, self.members
        new = []
        for nid in premises:
            node = nodes[nid]
            if (state.u.ps4_mask >> node.seq.rhs) & 1:
                if node.rank < self.cap:
                    members[nid] = None
                    new.append(nid)
                else:
                    self.waiting.append(nid)
        for nid in reversed(new):
            if state._goal is not None:
                return
            cs = JoinCandidateSet(state.store, (nid,))
            state._counters["candidate_sets"] += 1
            cands = []
            for m in members:
                if m == nid:
                    break
                if cs.admits(nodes[m].seq):
                    cands.append(m)
            if state.rng is not None:
                state.rng.shuffle(cands)
            self._walk(cs, cands)

    def raise_wave(self) -> bool:
        """Raise the wave and register the waiting premises still live as
        one batch, in the order they came unless a seed shuffles them;
        whether any premise waited."""
        if not self.waiting:
            return False
        state = self.state
        self.cap += 1
        batch = [nid for nid in self.waiting if nid in state.db.entries]
        self.waiting = []
        if state.rng is not None:
            state.rng.shuffle(batch)
        self.add(batch)
        return True

    def on_removed(self, removed: list[tuple[int, int]]) -> None:
        for rid, _repl in removed:
            self.members.pop(rid, None)

    def _walk(self, cs: JoinCandidateSet, cands: list[int]) -> None:
        """Fire ``cs`` and every set that extends it by some of ``cands``
        (all members, so every such set is at or below the wave): for each
        candidate, the last first, the extension by it and the extensions of
        that by the candidates before it, then ``cs`` itself; skip them all
        when ``_subsumed`` shows they would insert nothing."""
        state = self.state
        if cands and self._subsumed(cs, cands):
            state._counters["subtrees_skipped"] += 1
            return
        nodes = state.store.nodes
        for j in range(len(cands) - 1, -1, -1):
            if state._goal is not None:
                return
            c = cands[j]
            ext = JoinCandidateSet(state.store, tuple(sorted(cs.members + (c,))), cs, c)
            state._counters["candidate_sets"] += 1
            self._walk(ext, [d for d in cands[:j] if ext.admits(nodes[d].seq)])
        if state._goal is None:
            self._fire(cs)

    def _subsumed(self, cs: JoinCandidateSet, cands: list[int]) -> bool:
        """Whether no set that extends ``cs`` by some of ``cands``, ``cs``
        included, is supported, or the database subsumes every conclusion of
        them all (the bounds of the module docstring)."""
        u, nodes = self.state.u, self.state.store.nodes
        by_ante = u.imps_by_ante
        ups, cover = cs.up_mask, cs.cover
        for c in cands:
            rhs = nodes[c].seq.rhs
            ups |= 1 << rhs
            cover |= by_ante.get(rhs, 0)
        if cs.sig & u.imp_mask & ~cover:
            return True
        subsumer = self.state.db._subsumer
        for t, _rule, gamma in cs.conclusions(ups, cover):
            if subsumer((True, t), gamma) is None:
                return False
        return True

    def _fire(self, cs: JoinCandidateSet) -> None:
        """Insert the conclusions of ``cs``, each with the set's rank."""
        if not cs.supported:
            return  # never fires: only an extension by a supporting premise can
        state = self.state
        for t, rule, gamma in cs.conclusions(cs.up_mask, cs.cover):
            state._insert(Sequent(state.u, True, gamma, 0, 0, t), rule, cs.members,
                          cs.needed_rank)


def fsearch(goal: Formula | GoalUniverse, *, backward_subsumption: bool = True,
            min_height: bool = True, max_iterations: int | None = None,
            shuffle_seed: int | None = None, collect_stats: bool = False,
            ) -> SearchOutcome:
    """Decide the goal by forward saturation.

    Returns a proof outcome exactly when a regular sequent with the goal on
    the right is derivable (the goal is then not intuitionistically valid),
    at the least join depth, so the countermodel it yields has minimal
    height; otherwise the returned database is saturated, and compact when
    backward subsumption was on.  ``min_height`` is accepted and ignored:
    every search is minimal-height.
    """
    universe = goal if isinstance(goal, GoalUniverse) else build_universe(goal)
    state = SearchState(universe, backward_subsumption=backward_subsumption,
                        shuffle_seed=shuffle_seed, collect_stats=collect_stats)
    return state.run(max_iterations)
