"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts all of its clauses.
"""

import time
from dataclasses import dataclass, field

import pytest

from ipldecide.backward import (BSearchTrace, bsearch, check_g3i,
                                bweight, oracle_decide, to_g3i)
from ipldecide.countermodel import (derivation_from_model, extract_model,
                                    find_soundness_violation, rank,
                                    soundness_audit)
from ipldecide.formula import build_universe, iter_bits, parse, to_text
from ipldecide.generate import nishimura, random_formulas
from ipldecide.kripke import KripkeModel, check_countermodel, height
from ipldecide.rules import Sequent, weight
from ipldecide.search import DerivationStore, fsearch, minimum_compact

from conftest import (ANTI_SCOTT, E_IRREGULAR_LINES, KP, SCOTT, VALID_E, iseq)


def report(criterion: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in clauses)
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}")
    for name, flag in clauses:
        print(f"    {'ok  ' if flag else 'FAIL'} {name}")
    assert ok, f"{criterion}: " + "; ".join(n for n, f in clauses if not f)


@dataclass
class Record:
    formula: object
    outcome: object
    oracle: bool
    model: object = None
    model_height: int = -1
    model_ok: bool = False
    rank: int = -1
    audit_ok: bool = False
    tree: object = None
    g3i_ok: bool = False


@dataclass
class Corpus:
    records: list = field(default_factory=list)
    seconds: float = 0.0


@pytest.fixture(scope="module")
def corpus():
    goals = random_formulas(seed=2026, max_vars=3, max_size=12, count=500)
    goals += [nishimura(i) for i in range(1, 14)]
    out = Corpus()
    t0 = time.perf_counter()
    for g in goals:
        outcome = fsearch(g)
        rec = Record(g, outcome, oracle_decide(g))
        if outcome.is_proof:
            ex = extract_model(outcome.store, outcome.root)
            rec.model = ex.model
            rec.model_height = height(ex.model)
            rec.model_ok = check_countermodel(ex.model, g)
            rec.rank = rank(outcome.store, outcome.root)
            rec.audit_ok = soundness_audit(outcome.store, outcome.root)
        else:
            rec.tree = bsearch(outcome.db)
            rec.g3i_ok = check_g3i(to_g3i(rec.tree), outcome.universe) is None
        out.records.append(rec)
    out.seconds = time.perf_counter() - t0
    return out


def test_criterion_1_scott_instance():
    t0 = time.perf_counter()
    minimal = fsearch(parse(SCOTT))
    elapsed = time.perf_counter() - t0
    ex = extract_model(minimal.store, minimal.root)
    vals = sorted(sorted(v) for v in ex.model.valuation)
    report("criterion 1: Scott instance", [
        ("decided non-valid", minimal.is_proof),
        ("minimal model has height exactly 2", height(ex.model) == 2),
        ("exactly 4 worlds", ex.model.n == 4),
        ("one world {p}, three empty", vals == [[], [], [], ["p"]]),
        ("countermodel checker passes", check_countermodel(ex.model, parse(SCOTT))),
        ("runtime under 1 s", elapsed < 1.0),
    ])


def test_criterion_2_anti_scott_instance():
    t0 = time.perf_counter()
    minimal = fsearch(parse(ANTI_SCOTT))
    elapsed = time.perf_counter() - t0
    ex = extract_model(minimal.store, minimal.root)
    preds = {w: [a for a, b in ex.model.covering_pairs() if b == w]
             for w in ex.model.worlds()}
    report("criterion 2: anti-Scott instance", [
        ("decided non-valid", minimal.is_proof),
        ("minimal model has height 2", height(ex.model) == 2),
        ("exactly 5 worlds", ex.model.n == 5),
        ("poset is not a tree (a world has two immediate predecessors)",
         any(len(v) >= 2 for v in preds.values())),
        ("countermodel checker passes",
         check_countermodel(ex.model, parse(ANTI_SCOTT))),
        ("runtime under 1 s", elapsed < 1.0),
    ])


def test_criterion_3_kreisel_putnam_instance():
    t0 = time.perf_counter()
    minimal = fsearch(parse(KP))
    elapsed = time.perf_counter() - t0
    ex = extract_model(minimal.store, minimal.root)
    m = ex.model
    finals = sorted(sorted(m.valuation[w]) for w in m.worlds()
                    if not m.successors(w))
    report("criterion 3: Kreisel-Putnam instance", [
        ("decided non-valid", minimal.is_proof),
        ("minimal model has height exactly 1", height(m) == 1),
        ("root plus three maximal worlds", m.n == 4 and len(finals) == 3),
        ("leaf valuations are {c}, {b}, {a,b,c}",
         finals == [["a", "b", "c"], ["b"], ["c"]]),
        ("countermodel checker passes", check_countermodel(m, parse(KP))),
        ("runtime under 1 s", elapsed < 1.0),
    ])


def test_criterion_4_valid_case_split():
    t0 = time.perf_counter()
    u = build_universe(parse(VALID_E))
    outcome = fsearch(u)
    trace = BSearchTrace()
    tree = bsearch(outcome.db, trace=trace)
    g3 = to_g3i(tree)
    elapsed = time.perf_counter() - t0
    compact = minimum_compact(outcome.db)
    irregulars = {compact.store.nodes[n].seq for n in compact.irregular_entries()}
    expected = {iseq(u, s, t, r) for s, t, r in E_IRREGULAR_LINES}
    extras = irregulars - expected
    if extras:
        # The strict equality below is kept as stated in the acceptance
        # checklist even though it is unattainable: the six sequents alone
        # do not subsume the goal-right-side shifts of the case-split
        # sequent, which are derivable in one step, so any saturated
        # database must keep three more irregular entries.  Dropping them
        # would break saturation (and the evaluation-closure properties the
        # reconstruction relies on).
        print("\n    extra compact irregular entries (all with the goal on "
              "the right):")
        for s in sorted(extras, key=lambda s: s.render()):
            print(f"      {s.render()}")
    tau, rule, principal = trace.critical_choices[0]
    report("criterion 4: valid case-split formula", [
        ("decided valid", not outcome.is_proof),
        ("compact irregular entries equal the six expected sequents",
         irregulars == expected),
        ("reconstruction performs zero backtracks", trace.backtracks == 0),
        ("first critical choice splits on the case implication",
         rule == "l-imp" and principal is not None
         and to_text(u.sf[principal]) == "p -> q1 | q2"),
        ("translated certificate passes the G3i checker",
         check_g3i(g3, u) is None),
        ("runtime under 1 s", elapsed < 1.0),
    ])


def test_criterion_5_duality_on_corpus(corpus):
    agree = sum(rec.outcome.is_proof == (not rec.oracle)
                for rec in corpus.records)
    proofs = [r for r in corpus.records if r.outcome.is_proof]
    valids = [r for r in corpus.records if not r.outcome.is_proof]
    report("criterion 5: duality over 500 random formulas + ladder family", [
        (f"verdicts agree with the oracle on all {len(corpus.records)} goals",
         agree == len(corpus.records)),
        ("every non-validity verdict carries a verified countermodel",
         all(r.model_ok for r in proofs)),
        ("every validity verdict carries a checked G3i certificate",
         all(r.g3i_ok for r in valids)),
        (f"corpus runtime under 5 min (took {corpus.seconds:.1f}s)",
         corpus.seconds < 300.0),
    ])


def test_criterion_6_weight_monotonicity(corpus):
    forward_violations = 0
    backward_violations = 0
    for rec in corpus.records:
        store = rec.outcome.store
        for node in store.nodes:
            w = weight(node.seq)
            for p in node.premises:
                if not w < weight(store.nodes[p].seq):
                    forward_violations += 1
        if rec.tree is not None:
            for parent, child in rec.tree.edges():
                if not bweight(child.seq) < bweight(parent.seq):
                    backward_violations += 1
    report("criterion 6: weight monotonicity", [
        ("forward weight strictly decreases across every stored step",
         forward_violations == 0),
        ("backward weight strictly decreases across every derivation edge",
         backward_violations == 0),
    ])


def test_criterion_7_rank_and_height_laws(corpus):
    proofs = [r for r in corpus.records if r.outcome.is_proof]
    report("criterion 7: join depth and model height", [
        ("join depth equals extracted model height on every proof",
         all(r.rank == r.model_height for r in proofs)),
        ("extracted model height never exceeds the goal size",
         all(r.model_height <= r.formula.size for r in proofs)),
    ])


def test_criterion_8_compact_database_uniqueness(corpus):
    goals = [parse(VALID_E)]
    goals += [r.formula for r in corpus.records
              if not r.outcome.is_proof][:20]
    stable = 0
    for g in goals:
        dumps = {minimum_compact(fsearch(g, shuffle_seed=s).db).dump()
                 for s in range(5)}
        stable += len(dumps) == 1
    report("criterion 8: compact database is order-independent", [
        (f"5 shuffled runs agree byte-for-byte on all {len(goals)} goals",
         stable == len(goals)),
    ])


def test_criterion_9_derivations_from_hand_built_models():
    goal_s = parse(SCOTT)
    model_s = KripkeModel.from_order_pairs(
        4, [(0, 1), (0, 2), (2, 3)], 0, [set(), set(), set(), {"p"}])
    store_s, root_s = derivation_from_model(model_s, goal_s)
    u_s = store_s.u
    ex_s = extract_model(store_s, root_s)
    root_seq = store_s.nodes[root_s].seq

    goal_c = parse("((p1 -> p2) | (p2 -> p1)) | ((q1 -> q2) | (q2 -> q1))")
    model_c = KripkeModel.from_order_pairs(
        3, [(0, 1), (0, 2)], 0, [set(), {"p1", "q1"}, {"p2", "q2"}])
    store_c, root_c = derivation_from_model(model_c, goal_c)
    node_c = store_c.nodes[root_c]
    ex_c = extract_model(store_c, root_c)
    report("criterion 9: derivations rebuilt from hand-built countermodels", [
        ("4-world input yields the goal sequent with the single hypothesis",
         root_seq.regular and root_seq.rhs == u_s.goal_pos
         and [to_text(u_s.sf[i]) for i in iter_bits(root_seq.gamma)]
         == ["(~~p -> p) -> ~p | p"]),
        ("its join depth is 2 and its extracted model has height 2",
         rank(store_s, root_s) == 2 and height(ex_s.model) == 2),
        ("3-world input yields an empty-hypothesis disjunction join",
         node_c.rule == "join-or" and node_c.seq.gamma == 0
         and node_c.seq.rhs == store_c.u.goal_pos),
        ("its extracted model has 5 worlds and height 1 (not world-minimal)",
         ex_c.model.n == 5 and height(ex_c.model) == 1),
    ])


def _mutate(store: DerivationStore, nid: int) -> DerivationStore:
    """Point the right side of one regular sequent at a left member."""
    copy = DerivationStore(store.u)
    for n in store.nodes:
        copy.nodes.append(type(n)(n.seq, n.rule, n.premises, n.iteration, n.rank))
    old = store.nodes[nid].seq
    new_rhs = next(i for i in range(store.u.n) if (old.gamma >> i) & 1)
    copy.nodes[nid].seq = Sequent(store.u, True, old.gamma, 0, 0, new_rhs)
    return copy


def test_criterion_10_soundness_audit(corpus):
    proofs = [r for r in corpus.records if r.outcome.is_proof]
    clean = all(r.audit_ok for r in proofs)
    mutated = detected = 0
    for rec in proofs:
        if mutated >= 50:
            break
        store = rec.outcome.store
        root = rec.outcome.root
        for nid in sorted(store.ancestors(root)):
            node = store.nodes[nid]
            if not node.seq.regular or not node.seq.gamma:
                continue
            mutated += 1
            if find_soundness_violation(_mutate(store, nid), root) is not None:
                detected += 1
            break
    report("criterion 10: soundness audit", [
        (f"audit passes on all {len(proofs)} proofs", clean),
        (f"all {mutated} corrupted derivations are caught with a witness",
         mutated >= 50 and detected == mutated),
    ])


def test_ladder_family_countermodels(corpus):
    # Scope note: instead of the deep tower instance, the whole ladder family
    # up to 13 is verified, with non-decreasing heights inside each parity
    # subfamily (the interleaved sequence provably dips: the fourth member is
    # already classically refutable while the third is classically valid).
    heights = {}
    ok_models = True
    for i in range(1, 14):
        g = nishimura(i)
        rec = next(r for r in corpus.records if r.formula is g or
                   to_text(r.formula) == to_text(g))
        ok_models = ok_models and rec.outcome.is_proof and rec.model_ok
        heights[i] = rec.model_height
    odd = [heights[i] for i in range(1, 14, 2)]
    even = [heights[i] for i in range(2, 14, 2)]
    report("scope note: one-variable ladder family", [
        ("every member is non-valid with a verified countermodel", ok_models),
        (f"odd-index heights non-decreasing {odd}",
         all(a <= b for a, b in zip(odd, odd[1:]))),
        (f"even-index heights non-decreasing {even}",
         all(a <= b for a, b in zip(even, even[1:]))),
    ])
