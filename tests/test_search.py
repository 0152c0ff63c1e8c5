import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipldecide import countermodel, search
from ipldecide.countermodel import derivation_from_model, extract_model
from ipldecide.formula import GoalUniverse, build_universe, iter_bits, parse, to_text
from ipldecide.generate import nishimura, random_formula, random_formulas
from ipldecide.kripke import check_countermodel, height
from ipldecide.rules import JoinParts, Sequent, covers, subsumes
from ipldecide.search import (AX_IRR, Database, IterationBudgetExceeded,
                              JoinCandidateSet, JoinScheduler, SearchOutcome, SearchState,
                              fsearch, minimum_compact)

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

def removal_log(db):
    """The ``(retired id, replacement id or None)`` pairs ``db`` reports."""
    removed = []
    db.removal_listeners.append(removed.extend)
    return removed


def test_insert_duplicate_is_forward_subsumed(valid_e_u):
    db = Database(valid_e_u)
    s = rseq(valid_e_u, ["p"], "q1")
    nid = db.insert(s, AX_IRR)
    assert nid is not None and db.entries == {nid}
    assert db.insert(s, AX_IRR) is None


def test_insert_smaller_left_side_is_forward_subsumed():
    u = build_universe(parse("(p & r) -> q"))
    db = Database(u)
    db.insert(rseq(u, ["p", "r"], "q"), "seed")
    assert db.insert(rseq(u, ["p"], "q"), "seed") is None


def test_insert_backward_subsumption_retires_only_the_subsumed_entry():
    # A two-step chain hanging off the weaker entry stays live: only what
    # the new sequent subsumes retires, with the new node as replacement.
    u = build_universe(parse("(x & a & b) -> ((q | q) & q)"))
    db = Database(u, compact_mode=True)
    removed = removal_log(db)
    weak = db.insert(iseq(u, ["x"], ["a"], "q"), "seed")
    c1 = db.insert(iseq(u, ["x"], ["a"], "q | q"), "or", (weak, weak))
    c2 = db.insert(iseq(u, ["x"], ["a"], "(q | q) & q"), "and", (c1,))
    assert not removed
    new = db.insert(iseq(u, ["x"], ["a", "b"], "q"), "seed")
    assert removed == [(weak, new)]
    assert db.entries == {new, c1, c2}
    # The store keeps the tombstoned node replayable.
    assert db.store.nodes[c1].premises == (weak, weak)
    assert db.store.nodes[weak].seq == iseq(u, ["x"], ["a"], "q")


def test_insert_without_compact_mode_keeps_subsumed_entries():
    u = build_universe(parse("(p & r) -> q"))
    db = Database(u, compact_mode=False)
    removed = removal_log(db)
    a = db.insert(rseq(u, ["p"], "q"), "seed")
    b = db.insert(rseq(u, ["p", "r"], "q"), "seed")
    assert None not in (a, b) and not removed
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
    seqs = (oracle_db.store.nodes[nid].seq for nid in oracle_db.entries)
    return all(db._subsumer(*search._index_key(s)) is not None for s in seqs)


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
    assert all({"iteration", "db_size", "candidate_sets", "subtrees_skipped",
                "forward_subsumed", "backward_removed"} <= set(row) for row in out.stats)
    # Each skipped subtree is rooted at a set that was built and counted.
    assert 0 < sum(row["subtrees_skipped"] for row in out.stats) \
        <= sum(row["candidate_sets"] for row in out.stats)


# -- shift kernels against the subset enumeration --------------------------------

def _chain(n):
    atoms = [f"p{i}" for i in range(1, n + 1)]
    links = " & ".join(f"({x} -> {y})" for x, y in zip(atoms, atoms[1:]))
    return parse(f"{links} -> ({atoms[0]} -> {atoms[-1]})")


def _picks(corpus, *indices):
    """The goals at ``indices`` of ``random_formulas(*corpus)``."""
    goals = random_formulas(*corpus)
    return [goals[i] for i in indices]


def _saturation_trace(goal):
    out = fsearch(goal)
    trace = [out.db.dump(annotated=True), out.store.dump()]
    if out.is_proof:
        model = extract_model(out.store, out.root).model
        store, _root = derivation_from_model(model, goal)
        trace += [model.up, model.valuation, height(model), store.dump()]
    return trace


def test_shift_kernels_reproduce_the_subset_enumeration_runs(monkeypatch):
    # Same databases, same node ids, same countermodels as with the
    # reference kernels, on valid chains and on the non-valid ladder.
    goals = [_chain(n) for n in range(4, 8)] + [nishimura(i) for i in range(1, 13)]
    traces = [_saturation_trace(g) for g in goals]
    for module in (search, countermodel):
        monkeypatch.setattr(module, "minimal_shifts", brute_minimal_shifts)
        monkeypatch.setattr(module, "maximal_avoiding", brute_maximal_avoiding)
    assert [_saturation_trace(g) for g in goals] == traces


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
    for goal in (_chain(6), nishimura(8)):
        counts.update(dict.fromkeys(names, 0))
        fsearch(goal)
        assert min(counts.values()) > 0, counts


def test_closures_are_computed_only_for_implication_rules(monkeypatch):
    # Only the implication rules read the closure of a regular premise's
    # left side; chain 10 has 768 premises with an implication target and
    # once computed every closure for all 3,081 new regular premises.
    calls = []
    closure = GoalUniverse.closure
    monkeypatch.setattr(GoalUniverse, "closure",
                        lambda u, mask: calls.append(mask) or closure(u, mask))
    assert not fsearch(_chain(10)).is_proof
    assert 0 < len(calls) <= 800


# -- subsumption index against the linear scan ------------------------------------

class LinearScanDatabase(Database):
    """``Database`` before the subsumption index: the forward query and the
    backward check of the store tail scan every entry with the same right
    side (the reference)."""

    def find_goal(self):
        hits = [n for n in self.by_rhs.get(self.u.goal_pos, ())
                if self.store.nodes[n].seq.regular]
        return min(hits) if hits else None

    def _unlink(self, nid):
        self.entries.discard(nid)
        self.by_rhs.get(self.store.nodes[nid].seq.rhs, set()).discard(nid)

    def _sequent_at(self, key, mask):
        """The sequent of bucket ``key`` with mask ``mask`` (``_index_key``
        inverted)."""
        if key[0]:
            return Sequent(self.u, True, mask, 0, 0, key[1])
        return Sequent(self.u, False, 0, key[2], mask, key[1])

    def _subsumer(self, key, mask):
        seq = self._sequent_at(key, mask)
        for e in self.by_rhs.get(seq.rhs, ()):
            if subsumes(seq, self.store.nodes[e].seq):
                return e
        return None

    def insert(self, seq, rule, premises=(), iteration=0, rank=None):
        if self._subsumer(*search._index_key(seq)) is not None:
            return None
        same_rhs = self.by_rhs.get(seq.rhs)
        nid = self.store.add(seq, rule, premises, iteration, rank)
        self.entries.add(nid)
        self.by_rhs.setdefault(seq.rhs, set()).add(nid)
        removed = []
        if self.compact_mode and same_rhs:
            removed = [(e, nid) for e in sorted(same_rhs)
                       if e != nid and subsumes(self.store.nodes[e].seq, seq)]
            for e, _repl in removed:
                self._unlink(e)
        if removed:
            for listener in self.removal_listeners:
                listener(removed)
        return nid


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
# stable parts; premises are earlier store nodes.
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


_mask_query = st.tuples(st.booleans(), st.integers(0, 1), st.integers(0, 1),
                        st.integers(0, 15))
_mask_queries = st.lists(_mask_query, max_size=6)


@settings(max_examples=500, deadline=None)
@given(_mask_query, _mask_query)
@example((True, 0, 0, 0b0001), (True, 0, 1, 0b0011))
@example((False, 0, 0, 0b0011), (False, 0, 1, 0b0011))
@example((True, 1, 0, 0b0011), (False, 1, 0, 0b0011))
def test_a_shared_bucket_and_mask_inclusion_are_subsumption(first, second):
    # The index returns its hits unconfirmed: two sequents share a bucket
    # and the first's mask lies inside the second's exactly when the second
    # subsumes the first.
    s1, s2 = _index_sequent(*first), _index_sequent(*second)
    (key1, mask1), (key2, mask2) = search._index_key(s1), search._index_key(s2)
    assert (key1 == key2 and mask1 & ~mask2 == 0) == subsumes(s1, s2)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), _insert_ops, _mask_queries)
# The size-2 grade precedes the size-1 grade in the bucket, so the last
# insert finds node 2 before node 1; both are retired in node order.
@example(True, [(True, 0, 0, 0b0011, []), (True, 0, 0, 0b1000, []),
                (True, 0, 0, 0b0101, []), (True, 0, 0, 0b1101, [])],
         [(True, 0, 0, 0b0001), (True, 0, 0, 0b0110)])
def test_subsumption_index_matches_the_linear_scan(compact_mode, ops, queries):
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
        assert new == old
        assert calls[0] == calls[1]
        assert dbs[0].entries == dbs[1].entries
        assert dbs[0].dump(annotated=True) == dbs[1].dump(annotated=True)
        # The mask query finds a subsumer exactly when the linear scan does.
        for query in queries:
            q = _index_sequent(*query)
            key, mask = search._index_key(q)
            hit, ref = dbs[0]._subsumer(key, mask), dbs[1]._subsumer(key, mask)
            assert (hit is None) == (ref is None)
            if hit is not None:
                assert hit in dbs[0].entries and subsumes(q, dbs[0].store.nodes[hit].seq)
    assert (minimum_compact(dbs[0]).dump(annotated=True)
            == linear_minimum_compact(dbs[1]).dump(annotated=True))


_PROBE_LEFT = list(iter_bits(_INDEX_U.gbar))  # all six left positions


def _probe_sequent(bucket, rhs, mask):
    """A sequent over all of ``gbar``: regular (bucket 0), or irregular with
    no stable part (1) or with the first left position as its stable part
    (2), which is then never in the losable part but still counts as a
    free bit of the query."""
    if bucket == 0:
        return Sequent(_INDEX_U, True, mask, 0, 0, rhs)
    sigma = 1 << _PROBE_LEFT[0] if bucket == 2 else 0
    return Sequent(_INDEX_U, False, 0, sigma, mask & ~sigma, rhs)


@pytest.mark.parametrize("compact_mode", [True, False])
@pytest.mark.parametrize("bucket", [0, 1, 2])
def test_next_grade_probe_matches_the_linear_scan(compact_mode, bucket):
    # Dense buckets of masks of two to five of the six left positions, so
    # that the grade one above a query often holds more masks than the
    # query has free bits, and the index probes it instead of scanning.
    rhs = _INDEX_RHS[0]
    masks = [sum(1 << p for i, p in enumerate(_PROBE_LEFT) if (bits >> i) & 1)
             for bits in range(64)]
    probed = 0
    for seed in range(8):
        rng = random.Random(seed)
        dbs = [Database(_INDEX_U, compact_mode=compact_mode),
               LinearScanDatabase(_INDEX_U, compact_mode=compact_mode)]
        calls = [[], []]
        for db, seen in zip(dbs, calls):
            db.removal_listeners.append(seen.append)
        for _ in range(30):
            mask = sum(1 << p for p in rng.sample(_PROBE_LEFT, rng.choice((2, 3, 4, 4, 5))))
            seq = _probe_sequent(bucket, rhs, mask)
            n = len(dbs[0].store)
            premises = tuple(rng.sample(range(n), min(n, rng.randrange(3))))
            new, old = (db.insert(seq, "seed", premises) for db in dbs)
            assert new == old
            assert calls[0] == calls[1]
            assert dbs[0].entries == dbs[1].entries
            for query in masks:
                q = _probe_sequent(bucket, rhs, query)
                key, m = search._index_key(q)
                hit, ref = dbs[0]._subsumer(key, m), dbs[1]._subsumer(key, m)
                assert (hit is None) == (ref is None), (seed, query)
                if hit is not None:
                    assert hit in dbs[0].entries and subsumes(q, dbs[0].store.nodes[hit].seq)
                grade = dbs[0]._index.get(key, {}).get(m.bit_count() + 1, {})
                probed += len(grade) > (_INDEX_U.gbar & ~m).bit_count()
        assert (minimum_compact(dbs[0]).dump(annotated=True)
                == linear_minimum_compact(dbs[1]).dump(annotated=True))
    assert probed >= 100


def _database_trace(goal, compact):
    out = fsearch(goal)
    plain = fsearch(goal, backward_subsumption=False)
    return [out.db.dump(annotated=True), out.store.dump(), compact(out.db).dump(),
            plain.db.dump(annotated=True), plain.store.dump(), compact(plain.db).dump()]


def test_subsumption_index_reproduces_the_linear_scan_runs(monkeypatch):
    goals = [_chain(n) for n in range(4, 9)] + [nishimura(i) for i in range(1, 11)]
    traces = [_database_trace(g, minimum_compact) for g in goals]
    monkeypatch.setattr(search, "Database", LinearScanDatabase)
    assert isinstance(fsearch(_chain(4)).db, LinearScanDatabase)
    assert [_database_trace(g, linear_minimum_compact) for g in goals] == traces


# -- join candidate sets: the walk against the stored sets ------------------------

def with_joins(state, scheduler):
    """``state`` with a new ``scheduler`` as its join scheduler."""
    state.joins = scheduler(state)
    return state


class StoredSetScheduler(JoinScheduler):
    """``JoinScheduler`` with every join candidate set stored (the reference):
    each clique of the pairwise-``covers`` graph is registered once under its
    member set, a step registers all its new members ranked below the wave
    before any set fires, pending sets fire in descending order of their
    member lists (each sorted newest first), and a member retired by a
    strictly stronger sequent is swapped for it in each of its sets.  A
    swapped-in member may wait for a later wave, so a set above the wave is
    held back and fires, if still stored, when the wave is raised."""

    def __init__(self, state):
        super().__init__(state)
        self.sets, self.by_member, self.pending, self.blocked = {}, {}, deque(), []

    def _register_set(self, members, base=None, new=-1):
        key = frozenset(members)
        if key in self.sets:
            return
        cs = search.JoinCandidateSet(self.state.store, members, base, new)
        self.sets[key] = cs
        for m in members:
            self.by_member.setdefault(m, set()).add(key)
        self.pending.append(key)

    def _register_member(self, nid):
        seq = self.state.store.nodes[nid].seq
        if not (self.state.u.ps4_mask >> seq.rhs) & 1:
            return
        extensions = [cs for cs in self.sets.values() if cs.admits(seq)]
        for cs in extensions:
            self._register_set(tuple(sorted(cs.members + (nid,))), cs, nid)
        self._register_set((nid,))

    def add(self, premises):
        for nid in premises:
            node = self.state.store.nodes[nid]
            if (self.state.u.ps4_mask >> node.seq.rhs) & 1 and node.rank >= self.cap:
                self.waiting.append(nid)
            elif nid not in self.members:
                self.members[nid] = None
                self._register_member(nid)
        self._drain_pending()

    def raise_wave(self):
        self.pending.extend(frozenset(cs.members) for cs in self.blocked)
        self.blocked = []
        return super().raise_wave()

    def _descending(self, keys):
        """``keys`` in descending order of their member lists, each list
        sorted newest first: supersets before their subsets.  A swapped-in
        member not registered yet is newer than every registered one."""
        pos = {m: i for i, m in enumerate(self.members)}
        return sorted(keys, reverse=True,
                      key=lambda key: sorted((pos.get(m, len(pos)) for m in key), reverse=True))

    def on_removed(self, removed):
        for rid, repl in removed:
            self.members.pop(rid, None)
            for key in list(self.by_member.get(rid, ())):
                cs = self.sets.pop(key, None)
                if cs is None:
                    continue
                for m in cs.members:
                    self.by_member.get(m, set()).discard(key)
                if repl is not None and not self.state.store.nodes[rid].seq.regular:
                    members = tuple(sorted(repl if m == rid else m for m in cs.members))
                    self._register_set(members)
            self.by_member.pop(rid, None)

    def _drain_pending(self):
        while self.pending:
            batch = self._descending(self.pending)
            self.pending.clear()
            if self.state.rng is not None:
                self.state.rng.shuffle(batch)
            for key in batch:
                if self.state._goal is not None:
                    return
                if key in self.sets:
                    self._fire(self.sets[key])

    def _fire(self, cs):
        if cs.supported and cs.needed_rank > self.cap:
            self.blocked.append(cs)
        else:
            super()._fire(cs)


class FromScratchJoinCandidateSet(JoinParts):
    """``JoinCandidateSet`` before extensions from a base set: parts and rank
    always come from the full member list (the reference)."""

    __slots__ = ("members", "ups_in_ps3", "needed_rank")

    def __init__(self, store, members, base=None, new=-1):
        super().__init__([store.nodes[m].seq for m in members])
        self.members = members
        self.ups_in_ps3 = all((self.u.ps3_mask >> store.nodes[m].seq.rhs) & 1
                              for m in members)
        self.needed_rank = max(store.nodes[m].rank for m in members) + 1


def scan_register_member(self, nid):
    """``StoredSetScheduler._register_member`` before the one-mask test:
    each member of each set is checked with ``covers`` (the reference)."""
    nodes = self.state.store.nodes
    seq = nodes[nid].seq
    if not (self.state.u.ps4_mask >> seq.rhs) & 1:
        return
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


def never_subsumed(self, cs, cands):
    """``JoinScheduler._subsumed`` that never skips a subtree (the full walk)."""
    return False


class FullWalkScheduler(JoinScheduler):
    _subsumed = never_subsumed


# Goals on which a join premise that waits for its wave starts its own walk
# there; deferring walk subtrees instead fires and stores them in another
# order.
MOVED_BY_PREMISE_GATE = (_picks((77, 4, 40, 1500), 462, 1239) + _picks((78, 5, 44, 500), 226, 395)
                         + _picks((79, 5, 60, 600), 268, 477))


def _join_trace(scheduler, goal):
    """Every set that fires, with its parts and rank, and both dumps, after
    the axioms, each step and each wave; and the scheduler."""
    state = with_joins(SearchState(build_universe(goal)), scheduler)
    snapshots, fired = [], []
    fire, flush = state.joins._fire, state._flush_stats

    def record(cs):
        if cs.supported and cs.needed_rank <= state.joins.cap:
            fired.append((cs.members, cs.up_mask, cs.sig, cs.meet, cs.theta, cs.cover,
                          cs.ups_in_ps3, cs.needed_rank))
        fire(cs)

    def snapshot():
        flush()
        snapshots.append((fired[:], state.db.dump(annotated=True), state.store.dump()))
        fired.clear()

    state.joins._fire, state._flush_stats = record, snapshot
    state.run()
    return snapshots, state.joins


def test_incremental_candidate_sets_reproduce_the_member_scan_runs(monkeypatch):
    # The full walk fires the sets the stored-set reference registers, in
    # its order and with the same parts and ranks, although it stores none
    # and builds each from its base set.
    goals = [_chain(n) for n in range(4, 9)] + [nishimura(i) for i in range(1, 13)]
    goals += MOVED_BY_PREMISE_GATE
    traces = [_join_trace(FullWalkScheduler, g)[0] for g in goals]
    assert max(len(cs[0]) for trace in traces for fired, *_ in trace for cs in fired) >= 3
    monkeypatch.setattr(StoredSetScheduler, "_register_member", scan_register_member)
    monkeypatch.setattr(search, "JoinCandidateSet", FromScratchJoinCandidateSet)
    stored = 0
    for goal, trace in zip(goals, traces):
        snapshots, joins = _join_trace(StoredSetScheduler, goal)
        assert snapshots == trace, goal
        stored += len(joins.sets)
    assert stored > 0


def counted_sets(monkeypatch):
    """A list that grows by one for each candidate set built from now on."""
    built = []
    monkeypatch.setattr(search, "JoinCandidateSet",
                        lambda *args: built.append(1) or JoinCandidateSet(*args))
    return built


def _store_trace(goal, backward_subsumption, built):
    """Status, root, both dumps and the number of candidate sets built
    (``built`` counts them)."""
    before = len(built)
    out = fsearch(goal, backward_subsumption=backward_subsumption)
    return (out.status, out.root, out.store.dump(), out.db.dump(annotated=True),
            len(built) - before)


def test_skipped_subtrees_would_insert_nothing(monkeypatch):
    # Every store, root and dump of the pruned walk is the full walk's, byte
    # for byte, while the pruned walk builds fewer sets.
    built = counted_sets(monkeypatch)
    # The ladders run with and without backward subsumption.
    goals = [(_chain(n), True) for n in range(4, 11)]
    goals += [(nishimura(i), bw) for i in range(1, 15) for bw in (True, False)]
    goals += [(nishimura(i), True) for i in (15, 16)]
    # Every set below the root of a nested negation is unsupported, so the
    # support bound skips almost the whole walk.
    goals += [(parse("~" * n + "p"), True) for n in (20, 30)]
    goals += [(g, True) for g in random_formulas(2026, 3, 12, 300)]
    # From the benchmark corpus: a bound that left out the candidates'
    # supported implications would skip subtrees that insert.
    goals += [(parse(text), True) for text in (
        "p4 & (false | ~(p1 | p2) -> p1 -> p1) -> p4",
        "p3 | (p1 -> false | p2) & (~~~(p3 | p4 | ~p3) | ~p2)",
        "~~(p1 | (p2 -> ~(false | p1) | p2)) -> p1")]
    # The subsumption bound skips a subtree here, with backward subsumption
    # on and off.
    goals += [(parse("p2 | ~(p3 & (p1 & p2)) | (p2 & p3 -> p4)"), bw) for bw in (True, False)]
    pruned = [_store_trace(g, bw, built) for g, bw in goals]
    monkeypatch.setattr(search, "JoinScheduler", FullWalkScheduler)
    full = [_store_trace(g, bw, built) for g, bw in goals]
    for run, fast, slow in zip(goals, pruned, full):
        assert fast[:-1] == slow[:-1], run
        assert fast[-1] <= slow[-1], run
    assert sum(fast[-1] for fast in pruned) < sum(slow[-1] for slow in full)


def _sets_built_to_refute(monkeypatch, goal):
    """The candidate sets built to refute ``goal``, as the stats rows count
    them and as constructed."""
    built = counted_sets(monkeypatch)
    out = fsearch(goal, collect_stats=True)
    assert out.is_proof
    return sum(row["candidate_sets"] for row in out.stats), len(built)


def test_equal_disjuncts_build_few_candidate_sets(monkeypatch):
    # 16 disjuncts p: the stored sets were every non-empty subset of the 15
    # disjunctions' right sides, 32,767; the bound skips almost all of them.
    counted, built = _sets_built_to_refute(monkeypatch, parse(" | ".join(["p"] * 16)))
    assert counted == built <= 200


def test_nested_negations_build_few_candidate_sets(monkeypatch):
    # 34 negations of p: the full walk builds 2^17 - 1 sets, nearly all of
    # them unsupported; the support bound skips every such subtree.
    counted, built = _sets_built_to_refute(monkeypatch, parse("~" * 34 + "p"))
    assert counted == built <= 1000


def test_minimal_height_ladder_builds_few_candidate_sets(monkeypatch):
    # Ladder 19: holding back every set above the wave one by one built
    # 284,052 sets; holding back the premises above it builds a few hundred.
    counted, built = _sets_built_to_refute(monkeypatch, nishimura(19))
    assert counted == built <= 1000


def test_stats_rows_count_each_set_built_once(monkeypatch):
    # A set is counted once, in the row of the step or the wave whose walk
    # built it: a premise that waits is walked only from the wave that
    # registers it, and one retired while it waits from none.
    built = counted_sets(monkeypatch)
    goals = [nishimura(i) for i in range(1, 17)] + random_formulas(2027, 4, 28, 100)
    for goal in goals:
        for backward_subsumption in (True, False):
            built.clear()
            out = fsearch(goal, backward_subsumption=backward_subsumption,
                          collect_stats=True)
            assert sum(row["candidate_sets"] for row in out.stats) == len(built), \
                (to_text(goal), backward_subsumption)


def test_a_premise_retired_while_it_waits_never_joins_a_set(monkeypatch):
    # On these goals a join premise ranked at or above the wave is retired
    # while it waits; the wave that registers the other waiting premises
    # leaves it out, so every set fires with all its members live.
    fire, on_removed = JoinScheduler._fire, JoinScheduler.on_removed
    retired = []

    def log_removed(self, removed):
        retired.extend(rid for rid, _repl in removed if rid in self.waiting)
        on_removed(self, removed)

    def live_only(self, cs):
        assert all(m in self.state.db for m in cs.members), cs.members
        fire(self, cs)

    monkeypatch.setattr(JoinScheduler, "on_removed", log_removed)
    monkeypatch.setattr(JoinScheduler, "_fire", live_only)
    for text in ("~~p1 -> p1 & p1",
                 "~(~p1 | p2 | p1) & ~(p1 -> p1 & p3) -> p1 | p1 & p3",
                 "(~(p2 & p3) -> p3 -> p3) -> p3 | (~(p1 -> p3) -> ~~~p4) | p1"):
        retired.clear()
        fsearch(parse(text))
        assert retired, text


def test_a_firing_set_never_retires_its_own_members(monkeypatch):
    # Walks insert only join conclusions, which are regular, and a regular
    # sequent strictly subsumes only regular entries, while every member is
    # irregular: so no fire retires a member, and every set fires with all
    # its members live.  Registered members do retire on these goals,
    # between walks.
    fire, on_removed = JoinScheduler._fire, JoinScheduler.on_removed
    retired = []

    def log_removed(self, removed):
        retired.extend(rid for rid, _repl in removed if rid in self.members)
        on_removed(self, removed)

    def checked_fire(self, cs):
        assert all(m in self.members for m in cs.members), cs.members
        start = len(retired)
        fire(self, cs)
        assert not set(retired[start:]) & set(cs.members), cs.members

    monkeypatch.setattr(JoinScheduler, "on_removed", log_removed)
    monkeypatch.setattr(JoinScheduler, "_fire", checked_fire)
    goals = (_picks((77, 4, 40, 1500), 765, 766, 1282) + _picks((78, 5, 44, 500), 226, 270, 412)
             + _picks((79, 5, 60, 600), 120, 309, 419, 563))
    for goal in goals:
        before = len(retired)
        fsearch(goal)
        assert len(retired) > before, to_text(goal)


def test_join_conclusions_take_the_rank_of_the_set_that_fires_them(monkeypatch):
    # A join conclusion takes the rank the walk gave the set when it built
    # it, which must be one above the conclusion's deepest premise.
    fire = JoinScheduler._fire
    ranks = []

    def checked_fire(self, cs):
        start = len(self.state.store)
        fire(self, cs)
        nodes = self.state.store.nodes
        for node in nodes[start:]:
            assert node.rule in search.JOIN_RULES and node.premises == cs.members
            assert node.rank == cs.needed_rank, cs.members
            assert node.rank == max(nodes[p].rank for p in node.premises) + 1, cs.members
            ranks.append(node.rank)

    monkeypatch.setattr(JoinScheduler, "_fire", checked_fire)
    # Corpus formula #162 extends a set by a candidate ranked above all its
    # members, the one case where the set's rank is not its base's.
    goals = (random_formulas(2026, 3, 12, 150) + random_formulas(2026, 3, 12, 163)[162:]
             + [nishimura(i) for i in range(1, 17)])
    for goal in goals:
        for backward_subsumption in (True, False):
            fsearch(goal, backward_subsumption=backward_subsumption)
    assert len(ranks) > 500 and max(ranks) >= 3


def test_a_retired_sequent_stays_forward_subsumed(monkeypatch):
    # Backward subsumption retires only what a new sequent strictly
    # subsumes, so every retired sequent keeps a live subsumer and no rule
    # instance hands the store a sequent it holds.  On these goals, retiring
    # what was derived from a retired sequent as well, without a subsumer,
    # let the search store such sequents again; on the last two a retired
    # sequent is derived again and forward subsumed.
    add = search.DerivationStore.add
    readded, seen = [], set()

    def checked_add(self, seq, rule, premises, iteration, rank=None):
        if seq.key in seen:
            readded.append((rule, to_text(goal)))
        seen.add(seq.key)
        return add(self, seq, rule, premises, iteration, rank)

    monkeypatch.setattr(search.DerivationStore, "add", checked_add)
    retirements = 0
    for goal in (random_formulas(77, 4, 40, 1500)[1393],
                 random_formulas(78, 5, 44, 500)[226],
                 random_formulas(78, 5, 44, 500)[445]):
        for backward_subsumption in (True, False):
            state = SearchState(build_universe(goal),
                                backward_subsumption=backward_subsumption)
            removed = removal_log(state.db)
            seen.clear()
            out = state.run()
            for rid, repl in removed:
                seq = out.store.nodes[rid].seq
                assert subsumes(seq, out.store.nodes[repl].seq)
                hit = out.db._subsumer(*search._index_key(seq))
                assert rid not in out.db and hit is not None, (to_text(goal), rid)
            retirements += len(removed)
    assert not readded
    assert retirements > 0


# Minimal countermodel heights of nishimura(1..18).
LADDER_HEIGHTS = (0, 0, 1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 3, 3, 4, 3, 4, 4)


def test_minimal_height_ladders_keep_their_heights_and_check():
    for i in range(1, 31):
        goal = nishimura(i)
        out = fsearch(goal)
        model = extract_model(out.store, out.root).model
        assert check_countermodel(model, goal), i
        if i <= len(LADDER_HEIGHTS):
            assert height(model) == LADDER_HEIGHTS[i - 1], i


def _walk_trace(scheduler, goal, bw):
    out = with_joins(SearchState(build_universe(goal), backward_subsumption=bw), scheduler).run()
    return (out.status, out.root, out.store.dump(), out.db.dump(annotated=True),
            minimum_compact(out.db).dump())


def _larger_formula(seed):
    """The first random formula over four variables with 28 to 40 symbols."""
    rng = random.Random(seed)
    while True:
        goal = random_formula(rng, ["p1", "p2", "p3", "p4"], 40)
        if goal.size >= 28:
            return goal


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_pruned_walk_matches_the_full_walk_on_larger_formulas(seed, backward_subsumption):
    goal = _larger_formula(seed)
    assert (_walk_trace(JoinScheduler, goal, backward_subsumption)
            == _walk_trace(FullWalkScheduler, goal, backward_subsumption)), to_text(goal)


def test_every_set_fires_after_its_fired_supersets(monkeypatch):
    # Walks start from the newest premise that a step or a wave registers
    # and visit candidates newest first: so within a step or a wave a set
    # fires after every superset of it that fires.
    fire, flush = JoinScheduler._fire, SearchState._flush_stats
    fired = []
    superset_first = 0

    def record(self, cs):
        if cs.supported:
            fired.append(frozenset(cs.members))
        fire(self, cs)

    def check(self):
        nonlocal superset_first
        for j, later in enumerate(fired):
            for earlier in fired[:j]:
                assert not earlier < later, (self.iteration, sorted(earlier), sorted(later))
                superset_first += later < earlier
        fired.clear()
        flush(self)

    monkeypatch.setattr(JoinScheduler, "_fire", record)
    monkeypatch.setattr(SearchState, "_flush_stats", check)
    goals = [(_chain(n), True) for n in range(4, 11)]
    goals += [(nishimura(i), bw) for i in range(1, 15) for bw in (True, False)]
    goals += [(g, bw) for g in random_formulas(2026, 3, 12, 150) for bw in (True, False)]
    for goal, backward_subsumption in goals:
        fsearch(goal, backward_subsumption=backward_subsumption)
    assert superset_first > 1000


def test_chain_10_retires_no_join_conclusion_for_a_superset_of_its_step():
    # Every set fires after its supersets, so a subset's conclusion meets
    # the superset's conclusion as forward subsumption instead of being
    # stored and retired.  With walks and candidates oldest first, 1,793
    # conclusions were retired that way, and the store held 5,171 nodes.
    state = SearchState(build_universe(_chain(10)))
    nodes = state.store.nodes
    retired = []

    def log(removed):
        for rid, repl in removed:
            if repl is not None and nodes[rid].rule == search.JOIN_AT:
                old, new = nodes[rid], nodes[repl]
                if (new.rule in search.JOIN_RULES and new.iteration == old.iteration
                        and set(old.premises) < set(new.premises)):
                    retired.append(rid)

    state.db.removal_listeners.append(log)
    out = state.run()
    assert not out.is_proof
    assert not retired
    assert len(out.store) <= 3477


def test_seeds_change_the_join_order_but_not_the_compact_database(monkeypatch):
    # Without a seed each walk extends its newest member by the older
    # members newest first; a seed shuffles them, and the members of each
    # step, but leaves the compact database as it is.
    fire = JoinScheduler._fire
    walks = []

    def record(self, cs):
        members = list(self.members)
        if len(cs.members) == 2:
            older, newest = sorted(cs.members, key=members.index)
            walks[-1].setdefault(newest, []).append(members.index(older))
        fire(self, cs)

    monkeypatch.setattr(JoinScheduler, "_fire", record)
    dumps = set()
    for seed in (None, 1, 2, 3):
        walks.append({})
        dumps.add(minimum_compact(fsearch(_chain(6), shuffle_seed=seed).db).dump())
        in_order = all(older == sorted(older, reverse=True)
                       for older in walks[-1].values())
        assert in_order == (seed is None), seed
    assert len(dumps) == 1
    assert len({repr(w) for w in walks}) == 4


# -- the stop at the first goal sequent against the iteration-granular loop -------

class IterationSearchState(SearchState):
    """The stop policy of the stored-set reference before the stop, to run
    with ``StoredSetScheduler``: every rule instance of an iteration is
    applied and every new member registered before any new set fires, every
    pending set fires, and the database is searched for a goal sequent only
    between iterations (``_insert`` leaves ``_goal`` unset, and
    ``_flush_stats`` sets it from that search)."""

    def _insert(self, seq, rule, premises, rank=None):
        super()._insert(seq, rule, premises, rank)
        self._goal = None

    def _flush_stats(self):
        super()._flush_stats()
        self._goal = LinearScanDatabase.find_goal(self.db)


def _stop_trace(goal, backward_subsumption, built):
    """Status, store nodes, root, goal position, the dumps of a saturated
    run, the number of candidate sets built (``built`` counts them) and the
    join scheduler, of a run of ``search.SearchState``."""
    before = len(built)
    state = search.SearchState(build_universe(goal), backward_subsumption=backward_subsumption)
    out = state.run()
    nodes = [(n.seq.key, n.rule, n.premises, n.rank) for n in out.store.nodes]
    dumps = None if out.is_proof else (out.db.dump(annotated=True), out.store.dump())
    return out.status, nodes, out.root, state.u.goal_pos, dumps, len(built) - before, state.joins


def test_search_stops_at_the_first_stored_goal_sequent(monkeypatch):
    # Each store is the reference's store or a prefix of it, the root is the
    # reference's first stored goal sequent, a valid goal's output is
    # unchanged, and no run builds more candidate sets than the reference:
    # a goal found by a join leaves the later members' sets unbuilt.
    built = counted_sets(monkeypatch)
    goals = [_chain(n) for n in range(4, 9)] + [nishimura(i) for i in range(1, 13)]
    goals += random_formulas(2026, 3, 12, 150) + MOVED_BY_PREMISE_GATE
    # A premise of a step is retired here by a later conclusion of the same
    # step: registered anyway, it joins sets and changes the store.
    goals += _picks((77, 4, 40, 1500), 115)
    runs = [(g, bw, built) for g in goals for bw in (True, False)]
    traces = [_stop_trace(*run) for run in runs]
    monkeypatch.setattr(search, "SearchState", IterationSearchState)
    monkeypatch.setattr(search, "JoinScheduler", StoredSetScheduler)
    cut = fewer_sets = stored = 0
    for run, (status, nodes, root, goal_pos, dumps, sets, _joins) in zip(runs, traces):
        ref_status, ref_nodes, _, _, ref_dumps, ref_sets, ref_joins = _stop_trace(*run)
        stored += len(ref_joins.sets)
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
    assert cut > 0 and fewer_sets > 0 and stored > 0


# -- the seam between the search and its join scheduler -------------------------

class ContractScheduler(JoinScheduler):
    """``JoinScheduler`` that checks how the search calls it and logs the
    retirements it sees."""

    def __init__(self, state):
        super().__init__(state)
        self.added, self.removed = set(), []

    def add(self, premises):
        assert all(p in self.state.db and not self.state.store.nodes[p].seq.regular
                   for p in premises)
        assert not self.added & set(premises), premises
        self.added.update(premises)
        super().add(premises)

    def raise_wave(self):
        assert not self.state.last
        self.added.difference_update(self.waiting)  # the wave hands them to ``add`` again
        return super().raise_wave()

    def on_removed(self, removed):
        self.removed += removed
        super().on_removed(removed)


def test_the_search_calls_its_join_scheduler_through_the_seam():
    # What a replacement scheduler may rely on: each step hands it its live
    # irregular premises once, the wave is raised only after a step or a
    # wave that stored nothing, and it sees every retirement.
    waves = retired = 0
    for goal in [nishimura(i) for i in range(1, 17)] + random_formulas(2026, 3, 12, 150):
        for backward_subsumption in (True, False):
            state = SearchState(build_universe(goal), backward_subsumption=backward_subsumption)
            removed = removal_log(with_joins(state, ContractScheduler).db)
            state.run()
            assert state.joins.removed == removed, to_text(goal)
            waves, retired = waves + state.joins.cap, retired + len(removed)
    assert waves > 0 and retired > 0
