from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipldecide import countermodel, search
from ipldecide.countermodel import derivation_from_model, extract_model
from ipldecide.formula import build_universe, iter_bits, parse
from ipldecide.generate import nishimura, random_formulas
from ipldecide.kripke import height
from ipldecide.rules import JoinParts, Sequent, covers, subsumes
from ipldecide.search import (AX_IRR, Database, InsertResult,
                              IterationBudgetExceeded, JoinCandidateSet,
                              SearchOutcome, SearchState, fsearch, minimum_compact)

from conftest import (E_IRREGULAR_LINES, SCOTT, SCOTT_LINES, VALID_E, iseq,
                      rseq, sequent_of_line)
from test_rules import brute_maximal_avoiding, brute_minimal_shifts


# -- fsearch outcomes ----------------------------------------------------------

def test_goal_atom_proved_from_axiom_without_iterating():
    out = fsearch(parse("p"))
    assert out.is_proof and out.iterations == 0
    assert out.db.store.nodes[out.root].seq.render() == ". => p"


def test_identity_implication_saturates():
    from ipldecide.backward import oracle_decide
    out = fsearch(parse("p -> p"))
    assert out.status == SearchOutcome.SATURATED
    assert {out.store.nodes[n].seq.render() for n in out.db.entries} == \
        {". => p", ". ; . -> p"}
    assert oracle_decide(parse("p -> p"))  # the independent route agrees


def test_scott_instance_proved(scott_u):
    out = fsearch(scott_u)
    assert out.is_proof
    assert out.db.store.nodes[out.root].seq == sequent_of_line(scott_u, SCOTT_LINES[12])


def test_valid_chain_saturates_with_expected_irregulars(valid_e_u):
    out = fsearch(valid_e_u)
    assert out.status == SearchOutcome.SATURATED
    expected = {iseq(valid_e_u, s, t, r) for s, t, r in E_IRREGULAR_LINES}
    got = {out.db.store.nodes[n].seq for n in out.db.irregular_entries()}
    assert expected <= got


def test_budget_below_fixpoint_raises(scott_u):
    with pytest.raises(IterationBudgetExceeded):
        fsearch(scott_u, max_iterations=2)
    # A budget at or above the natural fixpoint is not an error.
    out = fsearch(scott_u, max_iterations=50)
    assert out.is_proof


# -- insert ---------------------------------------------------------------------

def test_insert_duplicate_is_forward_subsumed(valid_e_u):
    db = Database(valid_e_u)
    s = rseq(valid_e_u, ["p"], "q1")
    assert db.insert(s, AX_IRR).status == InsertResult.ADDED
    again = db.insert(s, AX_IRR)
    assert again.status == InsertResult.FORWARD_SUBSUMED


def test_insert_smaller_left_side_is_forward_subsumed():
    u = build_universe(parse("(p & r) -> q"))
    db = Database(u)
    db.insert(rseq(u, ["p", "r"], "q"), "seed")
    res = db.insert(rseq(u, ["p"], "q"), "seed")
    assert res.status == InsertResult.FORWARD_SUBSUMED


def test_insert_backward_cascade_removes_consequences():
    # A two-step chain hanging off the weaker entry disappears with it.
    u = build_universe(parse("(x & a & b) -> ((q | q) & q)"))
    db = Database(u, compact_mode=True)
    weak = db.insert(iseq(u, ["x"], ["a"], "q"), "seed")
    c1 = db.insert(iseq(u, ["x"], ["a"], "q | q"), "or",
                   (weak.node, weak.node))
    c2 = db.insert(iseq(u, ["x"], ["a"], "(q | q) & q"), "and", (c1.node,))
    res = db.insert(iseq(u, ["x"], ["a", "b"], "q"), "seed")
    assert res.status == InsertResult.BACKWARD_REPLACED
    assert set(res.removed) == {weak.node, c1.node, c2.node}
    assert db.entries == {res.node}
    # The store keeps the tombstoned nodes replayable.
    assert db.store.nodes[c2.node].premises == (c1.node,)


def test_insert_without_compact_mode_keeps_subsumed_entries():
    u = build_universe(parse("(p & r) -> q"))
    db = Database(u, compact_mode=False)
    a = db.insert(rseq(u, ["p"], "q"), "seed")
    b = db.insert(rseq(u, ["p", "r"], "q"), "seed")
    assert a.status == b.status == InsertResult.ADDED
    assert len(db) == 2


# -- step ----------------------------------------------------------------------

def test_first_step_applies_rules_to_axioms(scott_u):
    state = SearchState(scott_u)
    state.insert_axioms()
    new = state.step()
    got = {state.store.nodes[n].seq for n in new}
    for k in (3, 4, 5):
        assert sequent_of_line(scott_u, SCOTT_LINES[k]) in got


def test_second_step_continues_from_new_premises(scott_u):
    state = SearchState(scott_u)
    state.insert_axioms()
    state.step()
    got = {state.store.nodes[n].seq for n in state.step()}
    for k in (6, 7):
        assert sequent_of_line(scott_u, SCOTT_LINES[k]) in got


def test_step_with_no_new_premises_is_empty(scott_u):
    state = SearchState(scott_u)
    state.insert_axioms()
    state.last = []
    assert state.step() == []


# -- compaction and saturation ----------------------------------------------------

def is_saturated_against(db, oracle_db):
    """Every entry of ``oracle_db`` is subsumed by some entry of ``db``."""
    return all(db._subsumer(oracle_db.store.nodes[nid].seq) is not None
               for nid in oracle_db.entries)


def test_minimum_compact_is_idempotent_and_minimal(valid_e_u):
    out = fsearch(valid_e_u, backward_subsumption=False)
    db = out.db
    compact = minimum_compact(db)
    again = minimum_compact(compact)
    assert compact.entries == again.entries
    for nid in compact.entries:
        s = db.store.nodes[nid].seq
        for other in compact.by_rhs.get(s.rhs, ()):
            o = db.store.nodes[other].seq
            assert not (subsumes(s, o) and s != o)


def test_backward_and_plain_runs_agree_on_the_compact_database(valid_e_u):
    with_bw = fsearch(valid_e_u, backward_subsumption=True)
    without = fsearch(valid_e_u, backward_subsumption=False)
    assert is_saturated_against(with_bw.db, without.db)
    assert is_saturated_against(without.db, with_bw.db)
    assert minimum_compact(with_bw.db).dump() == minimum_compact(without.db).dump()
    # The compact database embeds into every saturated one.
    compact = minimum_compact(with_bw.db)
    assert all(any(db_n == c_n or subsumes(with_bw.db.store.nodes[c_n].seq,
                                           without.db.store.nodes[db_n].seq)
                   for db_n in without.db.entries)
               for c_n in compact.entries)


def test_shuffled_runs_reach_identical_compact_databases(valid_e_u):
    dumps = {minimum_compact(fsearch(valid_e_u, shuffle_seed=s).db).dump()
             for s in range(5)}
    assert len(dumps) == 1


def test_dump_formats(valid_e_u):
    out = fsearch(valid_e_u)
    plain = out.db.dump().splitlines()
    assert len(plain) == len(out.db.entries)
    annotated = out.db.dump(annotated=True).splitlines()
    assert len(annotated) == len(plain)
    assert all("[" in line and line.split("  [")[0] in plain
               for line in annotated)


def test_goal_rhs_irregulars_complete_the_compact_database(valid_e_u):
    # Saturation demands a subsumer for every derivable sequent, including
    # the shifts that put the goal itself on the right of an irregular
    # sequent; exactly three of them survive compaction here.
    out = fsearch(valid_e_u)
    db = minimum_compact(out.db)
    goal_rhs = [db.store.nodes[n].seq for n in db.irregular_entries()
                if db.store.nodes[n].seq.rhs == valid_e_u.goal_pos]
    assert len(goal_rhs) == 3
    others = {db.store.nodes[n].seq for n in db.irregular_entries()
              if db.store.nodes[n].seq.rhs != valid_e_u.goal_pos}
    assert others == {iseq(valid_e_u, s, t, r) for s, t, r in E_IRREGULAR_LINES}


# -- adequacy and bounds -----------------------------------------------------------

def test_every_stored_sequent_appears_within_its_derivation_height():
    # Without backward subsumption, a sequent provable by a stored
    # derivation of height n is subsumed in the database by iteration n+1.
    # Premises have lower ids, so one ascending pass gives every height.
    for text in [SCOTT, VALID_E, "p | ~p", "~~(p | ~p)"]:
        out = fsearch(parse(text), backward_subsumption=False)
        store = out.db.store
        heights = []
        for node in store.nodes:
            h = 1 + max((heights[p] for p in node.premises), default=-1)
            heights.append(h)
            assert any(subsumes(node.seq, other.seq) and other.iteration <= h + 1
                       for other in store.nodes), node.seq.render()


def test_branch_bounds(scott_u, kp_u):
    # Premise-to-conclusion chains are quadratically bounded and carry at
    # most |goal| world sequents.
    from ipldecide.countermodel import is_world_node
    for u in (scott_u, kp_u):
        out = fsearch(u)
        store = out.db.store
        n = u.goal_size
        longest: dict[int, int] = {}
        worldly: dict[int, int] = {}
        for nid in range(len(store.nodes)):
            node = store.nodes[nid]
            prem_longest = max((longest[p] for p in node.premises), default=-1)
            longest[nid] = prem_longest + 1
            prem_worldly = max((worldly[p] for p in node.premises), default=0)
            worldly[nid] = prem_worldly + (1 if is_world_node(node) else 0)
            assert longest[nid] <= 2 * (n + 1) * (n + 2)
            assert worldly[nid] <= n


def test_stats_counters(scott_u):
    out = fsearch(scott_u, collect_stats=True)
    assert out.stats, "stats requested but none collected"
    total_added = sum(1 for _ in out.db.store.nodes)
    assert sum(row["generated"] for row in out.stats) >= total_added
    assert all({"iteration", "db_size", "candidate_sets", "forward_subsumed",
                "backward_removed"} <= set(row) for row in out.stats)


# -- shift kernels against the subset enumeration --------------------------------

def _chain(n):
    atoms = [f"p{i}" for i in range(1, n + 1)]
    links = " & ".join(f"({x} -> {y})" for x, y in zip(atoms, atoms[1:]))
    return parse(f"{links} -> ({atoms[0]} -> {atoms[-1]})")


def _saturation_trace(goal, min_height):
    out = fsearch(goal, min_height=min_height)
    trace = [out.db.dump(annotated=True), out.store.dump()]
    if out.is_proof:
        model = extract_model(out.store, out.root).model
        store, _root = derivation_from_model(model, goal)
        trace += [model.up, model.valuation, height(model), store.dump()]
    return trace


def test_shift_kernels_reproduce_the_subset_enumeration_runs(monkeypatch):
    # Same databases, same node ids, same countermodels as with the
    # reference kernels, on valid chains and on the non-valid ladder.
    goals = [(_chain(n), False) for n in range(4, 8)]
    goals += [(nishimura(i), True) for i in range(1, 13)]
    traces = [_saturation_trace(g, mh) for g, mh in goals]
    for module in (search, countermodel):
        monkeypatch.setattr(module, "minimal_shifts", brute_minimal_shifts)
        monkeypatch.setattr(module, "maximal_avoiding", brute_maximal_avoiding)
    assert [_saturation_trace(g, mh) for g, mh in goals] == traces


def test_telemetry_hooks_are_called_through_the_search_module(monkeypatch):
    # The benchmark's per-layer counters wrap these names in ``search``; a
    # search that bypassed them would make those counters read 0.
    names = ("minimal_shifts", "maximal_avoiding", "subsumes", "JoinCandidateSet")
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
    for goal, min_height in ((_chain(6), False), (nishimura(8), True)):
        counts.update(dict.fromkeys(names, 0))
        fsearch(goal, min_height=min_height)
        assert min(counts.values()) > 0, counts


# -- subsumption index against the linear scan ------------------------------------

class LinearScanDatabase(Database):
    """``Database`` before the subsumption index: both subsumption checks
    scan every entry with the same right side (the reference)."""

    def find_goal(self):
        hits = [n for n in self.by_rhs.get(self.u.goal_pos, ())
                if self.store.nodes[n].seq.regular]
        return min(hits) if hits else None

    def _unlink(self, nid):
        self.entries.discard(nid)
        self.by_rhs.get(self.store.nodes[nid].seq.rhs, set()).discard(nid)

    def insert(self, seq, rule, premises=(), iteration=0, rank=0):
        same_rhs = self.by_rhs.get(seq.rhs)
        if same_rhs:
            for e in same_rhs:
                if subsumes(seq, self.store.nodes[e].seq):
                    return InsertResult(InsertResult.FORWARD_SUBSUMED, subsumed_by=e)
        nid, _created = self.store.add(seq, rule, premises, iteration, rank)
        self.entries.add(nid)
        self.by_rhs.setdefault(seq.rhs, set()).add(nid)
        removed = []
        if self.compact_mode and same_rhs:
            doomed = [e for e in sorted(same_rhs)
                      if e != nid and subsumes(self.store.nodes[e].seq, seq)]
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
        if removed:
            for listener in self.removal_listeners:
                listener(removed)
            return InsertResult(InsertResult.BACKWARD_REPLACED, node=nid,
                                removed=tuple(e for e, _ in removed))
        return InsertResult(InsertResult.ADDED, node=nid)


def linear_minimum_compact(db):
    out = LinearScanDatabase(db.u, db.store, compact_mode=db.compact_mode)
    for nid in db.entries:
        s = db.store.nodes[nid].seq
        if not any(other != nid and subsumes(s, db.store.nodes[other].seq)
                   and s != db.store.nodes[other].seq
                   for other in db.by_rhs.get(s.rhs, ())):
            out.entries.add(nid)
            out.by_rhs.setdefault(s.rhs, set()).add(nid)
    return out


# Two right sides and two stable parts over four left positions, so that
# regular and irregular sequents share right sides and irregular ones share
# stable parts; premises are earlier store nodes, so retiring one cascades.
_INDEX_U = build_universe(parse("(a -> b) & (c -> d) & a & c -> b | d"))
_INDEX_LEFT = list(iter_bits(_INDEX_U.gbar))[:4]
_INDEX_RHS = [_INDEX_U.position_of(parse(t)) for t in ("b", "b | d")]
_insert_ops = st.lists(st.tuples(st.booleans(), st.integers(0, 1), st.integers(0, 1),
                                 st.integers(0, 15), st.lists(st.integers(0, 99), max_size=2)),
                       max_size=40)


def _index_sequent(regular, rhs, sigma, bits):
    mask = sum(1 << p for i, p in enumerate(_INDEX_LEFT) if (bits >> i) & 1)
    if regular:
        return Sequent(_INDEX_U, True, mask, 0, 0, _INDEX_RHS[rhs])
    return Sequent(_INDEX_U, False, 0, sigma and 1 << _INDEX_LEFT[0],
                   mask & ~(1 << _INDEX_LEFT[0]) if sigma else mask, _INDEX_RHS[rhs])


@settings(max_examples=300, deadline=None)
@given(st.booleans(), _insert_ops)
# The size-2 grade precedes the size-1 grade in the bucket, so the last
# insert finds node 2 before node 1; both are retired in node order.
@example(True, [(True, 0, 0, 0b0011, []), (True, 0, 0, 0b1000, []),
                (True, 0, 0, 0b0101, []), (True, 0, 0, 0b1101, [])])
def test_subsumption_index_matches_the_linear_scan(compact_mode, ops):
    dbs = [Database(_INDEX_U, compact_mode=compact_mode),
           LinearScanDatabase(_INDEX_U, compact_mode=compact_mode)]
    calls = [[], []]
    for db, seen in zip(dbs, calls):
        db.removal_listeners.append(seen.append)
    for regular, rhs, sigma, bits, prem in ops:
        seq = _index_sequent(regular, rhs, sigma, bits)
        n = len(dbs[0].store)
        premises = tuple(p % n for p in prem) if n else ()
        new, old = (db.insert(seq, "seed", premises) for db in dbs)
        assert (new.status, new.node, new.removed) == (old.status, old.node, old.removed)
        assert calls[0] == calls[1]
        assert dbs[0].entries == dbs[1].entries
        assert dbs[0].dump(annotated=True) == dbs[1].dump(annotated=True)
    assert (minimum_compact(dbs[0]).dump(annotated=True)
            == linear_minimum_compact(dbs[1]).dump(annotated=True))


def _database_trace(goal, min_height, compact):
    out = fsearch(goal, min_height=min_height)
    plain = fsearch(goal, min_height=min_height, backward_subsumption=False)
    return [out.db.dump(annotated=True), out.store.dump(), compact(out.db).dump(),
            plain.db.dump(annotated=True), plain.store.dump(), compact(plain.db).dump()]


def test_subsumption_index_reproduces_the_linear_scan_runs(monkeypatch):
    goals = [(_chain(n), False) for n in range(4, 9)]
    goals += [(nishimura(i), True) for i in range(1, 11)]
    traces = [_database_trace(g, mh, minimum_compact) for g, mh in goals]
    monkeypatch.setattr(search, "Database", LinearScanDatabase)
    assert isinstance(fsearch(_chain(4)).db, LinearScanDatabase)
    assert [_database_trace(g, mh, linear_minimum_compact) for g, mh in goals] == traces


# -- join candidate sets against the member scan ----------------------------------

class FromScratchJoinCandidateSet(JoinParts):
    """``JoinCandidateSet`` before extensions from a base set: parts and rank
    always come from the full member list (the reference)."""

    __slots__ = ("members", "ups_in_ps3", "needed_rank")

    def __init__(self, u, store, members, base=None, new=-1):
        super().__init__([store.nodes[m].seq for m in members])
        self.members = members
        self.ups_in_ps3 = all((u.ps3_mask >> store.nodes[m].seq.rhs) & 1 for m in members)
        self.needed_rank = max(store.nodes[m].rank for m in members) + 1


def scan_add_candidate_member(self, nid):
    """``SearchState._add_candidate_member`` before the one-mask test: each
    member of each set is checked with ``covers`` (the reference)."""
    seq = self.store.nodes[nid].seq
    if not (self.u.ps4_mask >> seq.rhs) & 1:
        return
    nodes = self.store.nodes
    extensions = []
    for cs in self.sets.values():
        if seq.rhs in {nodes[m].seq.rhs for m in cs.members}:
            continue
        if all(covers(nodes[m].seq, seq) and covers(seq, nodes[m].seq)
               for m in cs.members):
            extensions.append(cs.members)
    for members in extensions:
        self._register_set(tuple(sorted(members + (nid,))))
    self._register_set((nid,))


def _candidate_trace(goal, min_height):
    """The candidate sets, their parts and both dumps after the axioms, each
    step and each minimal-height wave."""
    state = SearchState(build_universe(goal), min_height=min_height)
    snapshots = []
    flush = state._flush_stats

    def snapshot():
        flush()
        sets = [(key, cs.members, cs.up_mask, cs.sig, cs.meet, cs.theta, cs.cover,
                 cs.ups_in_ps3, cs.needed_rank) for key, cs in state.sets.items()]
        snapshots.append((sets, state.db.dump(annotated=True), state.store.dump()))

    state._flush_stats = snapshot
    state.run()
    return snapshots


def test_incremental_candidate_sets_reproduce_the_member_scan_runs(monkeypatch):
    goals = [(_chain(n), False) for n in range(4, 9)]
    goals += [(nishimura(i), True) for i in range(1, 13)]
    traces = [_candidate_trace(g, mh) for g, mh in goals]
    assert max(len(cs[1]) for trace in traces for sets, *_ in trace for cs in sets) >= 3
    monkeypatch.setattr(SearchState, "_add_candidate_member", scan_add_candidate_member)
    monkeypatch.setattr(search, "JoinCandidateSet", FromScratchJoinCandidateSet)
    for (goal, min_height), trace in zip(goals, traces):
        assert _candidate_trace(goal, min_height) == trace, goal


# -- the stop at the first goal sequent against the iteration-granular loop -------

def iteration_drain_pending(self):
    """``SearchState._drain_pending`` before the stop: fires every pending
    set (the reference)."""
    while self.pending:
        batch = list(self.pending)
        self.pending.clear()
        if self.rng is not None:
            self.rng.shuffle(batch)
        for key in batch:
            self._fire_set(key)


def iteration_step(self):
    """``SearchState.step`` before the stop: every rule instance of the
    iteration is applied and every new member registered before any new set
    fires (the reference)."""
    self.iteration += 1
    self._added_now = []
    order = list(self.last)
    if self.rng is not None:
        self.rng.shuffle(order)
    for sid in order:
        if sid not in self.db.entries:
            continue
        node = self.store.nodes[sid]
        if node.seq.regular:
            self._regular_step(sid, node)
        else:
            self._irregular_step(sid, node)
    for sid in order:
        if sid in self.db.entries and not self.store.nodes[sid].seq.regular:
            self._add_candidate_member(sid)
    self._drain_pending()
    self.last = self._added_now
    self._flush_stats()
    return self.last


def iteration_run(self, max_iterations=None):
    """``SearchState.run`` before the stop: the database is searched for a
    goal sequent only between iterations (the reference)."""
    self.insert_axioms()
    while True:
        goal = LinearScanDatabase.find_goal(self.db)
        if goal is not None:
            return SearchOutcome(SearchOutcome.PROOF, self.db, self.u, root=goal,
                                 iterations=self.iteration, stats=self.stats)
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
            raise IterationBudgetExceeded(f"no fixpoint within {max_iterations} iterations")
        self.step()


def _stop_trace(goal, min_height, backward_subsumption, built):
    """Status, store nodes, root, goal position, the dumps of a saturated
    run, and the number of candidate sets built (``built`` counts them)."""
    before = len(built)
    out = fsearch(goal, min_height=min_height, backward_subsumption=backward_subsumption)
    nodes = [(n.seq.key, n.rule, n.premises, n.rank) for n in out.store.nodes]
    dumps = None if out.is_proof else (out.db.dump(annotated=True), out.store.dump())
    return out.status, nodes, out.root, out.universe.goal_pos, dumps, len(built) - before


def test_search_stops_at_the_first_stored_goal_sequent(monkeypatch):
    # Each store is the reference's store or a prefix of it, the root is the
    # reference's first stored goal sequent, a valid goal's output is
    # unchanged, and no run builds more candidate sets than the reference:
    # a goal found by a join leaves the later members' sets unbuilt.
    built = []
    monkeypatch.setattr(search, "JoinCandidateSet",
                        lambda *args: built.append(1) or JoinCandidateSet(*args))
    goals = [(_chain(n), False) for n in range(4, 9)]
    goals += [(nishimura(i), True) for i in range(1, 13)]
    goals += [(g, False) for g in random_formulas(2026, 3, 12, 150)]
    runs = [(g, mh, bw, built) for g, mh in goals for bw in (True, False)]
    traces = [_stop_trace(*run) for run in runs]
    monkeypatch.setattr(SearchState, "_drain_pending", iteration_drain_pending)
    monkeypatch.setattr(SearchState, "step", iteration_step)
    monkeypatch.setattr(SearchState, "run", iteration_run)
    cut = fewer_sets = 0
    for run, (status, nodes, root, goal_pos, dumps, sets) in zip(runs, traces):
        ref_status, ref_nodes, _ref_root, _goal_pos, ref_dumps, ref_sets = _stop_trace(*run)
        assert status == ref_status, run
        assert nodes == ref_nodes[:len(nodes)], run
        assert sets <= ref_sets, run
        if status == SearchOutcome.PROOF:
            assert root == min(i for i, (key, *_rest) in enumerate(ref_nodes)
                               if key[0] and key[4] == goal_pos), run
            cut += len(nodes) < len(ref_nodes)
            fewer_sets += nodes[root][1] in search.JOIN_RULES and sets < ref_sets
        else:
            assert (dumps, sets) == (ref_dumps, ref_sets), run
    assert cut > 0 and fewer_sets > 0
