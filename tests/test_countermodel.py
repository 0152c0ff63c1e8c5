import pytest

from ipldecide.countermodel import (NotACountermodel, NotARegularRoot,
                                    _world_masks, derivation_from_model,
                                    extract_model, find_soundness_violation,
                                    rank, soundness_audit)
from ipldecide.formula import IMP, build_universe, iter_bits, parse, to_text
from ipldecide.kripke import KripkeModel, check_countermodel, forces, height
from ipldecide.search import DerivationStore, fsearch

from conftest import ANTI_SCOTT, KP, SCOTT, texts
from test_kripke import assert_forcing_persists, scott_hand_model


def proof_of(text, **kw):
    out = fsearch(parse(text), **kw)
    assert out.is_proof
    return out


# -- extraction ---------------------------------------------------------------

def test_extract_scott_model():
    out = proof_of(SCOTT, min_height=True)
    ex = extract_model(out.store, out.root)
    m = ex.model
    assert m.n == 4
    assert sorted(sorted(v) for v in m.valuation) == [[], [], [], ["p"]]
    assert height(m) == 2
    # The root world is the goal disjunction join, one step above the root
    # sequent itself.
    root_seq = out.store.nodes[ex.world_nodes[ex.model.root]].seq
    assert to_text(out.universe.sf[root_seq.rhs]) == "~~p | ~p"
    assert ex.phi[out.root] == m.root
    # The one world that forces p.
    pworld = next(w for w in m.worlds() if m.valuation[w] == {"p"})
    assert forces(m, pworld, parse("p"))


def test_extract_anti_scott_model_is_not_a_tree():
    out = proof_of(ANTI_SCOTT, min_height=True)
    ex = extract_model(out.store, out.root)
    m = ex.model
    assert m.n == 5 and height(m) == 2
    preds = {w: [a for a, b in m.covering_pairs() if b == w] for w in m.worlds()}
    assert any(len(v) >= 2 for v in preds.values())


def test_extract_kp_model():
    out = proof_of(KP, min_height=True)
    ex = extract_model(out.store, out.root)
    m = ex.model
    assert height(m) == 1 and m.n == 4
    finals = [w for w in m.worlds() if not m.successors(w)]
    assert sorted(sorted(v) for w, v in enumerate(m.valuation) if w in finals) \
        == [["a", "b", "c"], ["b"], ["c"]]
    assert m.valuation[m.root] == frozenset()


def test_extract_requires_regular_root():
    out = proof_of(SCOTT)
    store = out.store
    irregular = next(i for i, n in enumerate(store.nodes) if not n.seq.regular)
    with pytest.raises(NotARegularRoot):
        extract_model(store, irregular)


def test_extraction_is_monotone_and_phi_respects_derivation_order():
    for text in (SCOTT, ANTI_SCOTT, KP):
        out = proof_of(text)
        ex = extract_model(out.store, out.root)
        u = out.universe
        assert_forcing_persists(ex.model, u.sf)
        # phi is antitone along derivation edges between regular sequents.
        for nid in ex.phi:
            for p in out.store.nodes[nid].premises:
                if p in ex.phi:
                    assert ex.model.leq(ex.phi[nid], ex.phi[p])


def test_extracted_height_is_bounded_by_goal_size():
    for text in (SCOTT, ANTI_SCOTT, KP, "p", "p | ~p"):
        out = proof_of(text)
        ex = extract_model(out.store, out.root)
        assert height(ex.model) <= out.universe.goal_size


# -- rank -----------------------------------------------------------------------

def test_rank_of_axioms():
    out = proof_of("p")
    assert rank(out.store, out.root) == 0
    u = out.universe
    store = out.store
    irregular_axiom = next(i for i, n in enumerate(store.nodes)
                           if not n.seq.regular and not n.premises)
    assert rank(store, irregular_axiom) == -1


def test_rank_equals_extracted_height():
    for text, expected in ((SCOTT, 2), (ANTI_SCOTT, 2), (KP, 1)):
        out = proof_of(text, min_height=True)
        ex = extract_model(out.store, out.root)
        r = rank(out.store, out.root)
        assert r == expected == height(ex.model)
        # The cached rank from the search agrees with the recomputation.
        assert out.store.nodes[out.root].rank == r


# -- soundness audit ---------------------------------------------------------------

def test_soundness_audit_passes_on_real_proofs():
    for text in (SCOTT, ANTI_SCOTT, KP):
        out = proof_of(text)
        assert soundness_audit(out.store, out.root)


def _copy_store(store):
    copy = DerivationStore(store.u)
    for n in store.nodes:
        copy.nodes.append(type(n)(n.seq, n.rule, n.premises, n.iteration, n.rank))
    return copy


def test_soundness_audit_catches_a_swapped_premise():
    out = proof_of(SCOTT, min_height=True)
    store = out.store
    # Redirect one premise of a join inside the proof to a sibling premise;
    # at least one such corruption must break the semantic reading.
    joins = [nid for nid in store.ancestors(out.root)
             if store.nodes[nid].rule.startswith("join")
             and len(store.nodes[nid].premises) >= 2]
    caught = 0
    for join_id in joins:
        prems = store.nodes[join_id].premises
        for i in range(len(prems)):
            for j in range(len(prems)):
                if prems[i] == prems[j]:
                    continue
                tampered = _copy_store(store)
                swapped = list(prems)
                swapped[i] = prems[j]
                tampered.nodes[join_id].premises = tuple(swapped)
                witness = find_soundness_violation(tampered, out.root)
                if witness is not None:
                    nid, _f = witness
                    assert tampered.nodes[nid].seq.regular
                    caught += 1
    assert caught > 0


def test_soundness_audit_catches_forced_right_sides():
    out = proof_of(KP)
    store = out.store
    # Corrupt a regular sequent so its right side occurs on its own left.
    from ipldecide.rules import Sequent
    victim = next(i for i, n in enumerate(store.nodes)
                  if n.seq.regular and n.seq.gamma)
    tampered = DerivationStore(store.u)
    for n in store.nodes:
        tampered.nodes.append(type(n)(n.seq, n.rule, n.premises, n.iteration, n.rank))
    old = store.nodes[victim].seq
    new_rhs = next(iter_pos for iter_pos in range(store.u.n)
                   if (old.gamma >> iter_pos) & 1)
    tampered.nodes[victim].seq = Sequent(store.u, True, old.gamma, 0, 0, new_rhs)
    witness = find_soundness_violation(tampered, out.root if victim in
                                       store.ancestors(out.root) else victim)
    assert witness is not None


# -- semantic world data ---------------------------------------------------------

# The slices derivation_from_model reads per world: the left subformulas
# forced (lambda), the stably forced ones among them (lambda*: atoms, and
# implications with a refuted antecedent) and the right ones refuted (omega).

def test_semantic_world_data_scott_hand_model():
    u = build_universe(parse(SCOTT))
    m = scott_hand_model()
    _, alpha_star, alpha_omega = _world_masks(m, u, 1)   # final empty world
    assert texts(u, alpha_star) == {"~p"}
    assert texts(u, alpha_omega) == {"false", "p", "~~p"}
    lam, star, _ = _world_masks(m, u, 2)   # the middle world of the chain
    assert texts(u, star) == texts(u, lam) == {"~~p", "(~~p -> p) -> ~p | p"}
    # Stable implications have refuted antecedents by construction.
    for w in m.worlds():
        lam, star, _ = _world_masks(m, u, w)
        for i in iter_bits(star):
            if u.sf[i].kind == IMP:
                assert not forces(m, w, u.sf[i].left)
        assert not star & ~lam


def test_semantic_world_data_total_valuation():
    # A single world forcing every atom refutes exactly the classically
    # false right subformulas; in particular no atoms.
    u = build_universe(parse(SCOTT))
    m = KripkeModel.from_order_pairs(1, [], 0, [{"p"}])
    assert texts(u, _world_masks(m, u, 0)[2]) == {"false", "~p"}


# -- derivations from models --------------------------------------------------------

def test_derivation_from_scott_hand_model():
    goal = parse(SCOTT)
    store, root = derivation_from_model(scott_hand_model(), goal)
    node = store.nodes[root]
    assert node.seq.render().endswith("=> " + to_text(goal))
    assert texts(store.u, node.seq.gamma) == {"(~~p -> p) -> ~p | p"}
    assert rank(store, root) == 2
    ex = extract_model(store, root)
    assert height(ex.model) == 2 and ex.model.n == 4
    assert soundness_audit(store, root)


def test_derivation_from_two_pair_model_is_height_minimal_but_not_world_minimal():
    goal = parse("((p1 -> p2) | (p2 -> p1)) | ((q1 -> q2) | (q2 -> q1))")
    model = KripkeModel.from_order_pairs(
        3, [(0, 1), (0, 2)], 0, [set(), {"p1", "q1"}, {"p2", "q2"}])
    store, root = derivation_from_model(model, goal)
    node = store.nodes[root]
    assert node.rule == "join-or" and node.seq.gamma == 0
    prem_renders = {store.nodes[p].seq.render() for p in node.premises}
    assert prem_renders == {
        ". ; q1, q2 -> (p1 -> p2) | (p2 -> p1)",
        ". ; p1, p2 -> (q1 -> q2) | (q2 -> q1)",
    }
    ex = extract_model(store, root)
    assert height(ex.model) == 1
    assert ex.model.n == 5  # more worlds than the 3-world input: not minimal
    assert soundness_audit(store, root)


def test_derivation_from_single_world_model():
    store, root = derivation_from_model(
        KripkeModel.from_order_pairs(1, [], 0, [set()]), parse("p"))
    node = store.nodes[root]
    assert node.rule == "ax=>" and node.seq.render() == ". => p"
    assert rank(store, root) == 0


def test_derivation_from_model_rejects_non_countermodels():
    with pytest.raises(NotACountermodel):
        derivation_from_model(KripkeModel.from_order_pairs(1, [], 0, [{"p"}]),
                              parse("p"))


def test_derivation_from_model_never_beats_the_input_height():
    # Any verified countermodel yields a derivation whose extracted model is
    # at most as high; with a minimal input the heights agree.
    cases = [
        (SCOTT, scott_hand_model()),
        (KP, KripkeModel.from_order_pairs(
            4, [(0, 1), (0, 2), (0, 3)], 0,
            [set(), {"c"}, {"b"}, {"a", "b", "c"}])),
    ]
    for text, model in cases:
        goal = parse(text)
        assert check_countermodel(model, goal)
        store, root = derivation_from_model(model, goal)
        ex = extract_model(store, root)
        assert height(ex.model) <= height(model)
        assert check_countermodel(ex.model, goal)
        # And the search with join delay reaches that same minimal height.
        out = fsearch(parse(text), min_height=True)
        ex2 = extract_model(out.store, out.root)
        assert height(ex2.model) <= height(ex.model)
