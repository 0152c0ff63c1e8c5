import pytest

from ipldecide.countermodel import (ExtractedModel, NotACountermodel, NotARegularRoot,
                                    _world_masks, derivation_from_model,
                                    extract_model, find_soundness_violation,
                                    is_world_node, rank, soundness_audit)
from ipldecide.formula import IMP, build_universe, iter_bits, parse, to_text
from ipldecide.generate import nishimura, random_formulas
from ipldecide.kripke import KripkeModel, check_countermodel, forces, height
from ipldecide.search import JOIN_AT, JOIN_OR, DerivationStore, fsearch

from conftest import ANTI_SCOTT, KP, SCOTT, texts
from test_kripke import assert_forcing_persists, scott_hand_model


def proof_of(text, **kw):
    out = fsearch(parse(text), **kw)
    assert out.is_proof
    return out


# The first 150 formulas of the benchmark's random-mixed corpus, and ladders
# 1-16.
CORPUS = random_formulas(2026, 3, 12, 150) + [nishimura(i) for i in range(1, 17)]


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


def reference_extract_model(store, root):
    """``extract_model`` before the one-pass extraction: ancestor sets per
    node, a loop over world pairs, and a walk to each regular node's world
    (the reference)."""
    def phi_walk(nid):
        node = store.nodes[nid]
        while not is_world_node(node):
            nid = node.premises[0]
            node = store.nodes[nid]
        return nid

    node = store.nodes[root]
    if not node.seq.regular:
        raise NotARegularRoot(node.seq.render())
    nodes = store.ancestors(root)
    world_nodes = tuple(sorted(n for n in nodes if is_world_node(store.nodes[n])))
    windex = {n: i for i, n in enumerate(world_nodes)}
    anc = {}
    for nid in sorted(nodes):
        s = set()
        for p in store.nodes[nid].premises:
            s.add(p)
            s |= anc[p]
        anc[nid] = s
    u = store.u
    up = []
    for wn in world_nodes:
        mask = 0
        for other in world_nodes:
            if other == wn or other in anc[wn]:
                mask |= 1 << windex[other]
        up.append(mask)
    valuation = []
    for wn in world_nodes:
        seq = store.nodes[wn].seq
        valuation.append(frozenset(
            u.sf[i].name for i in iter_bits(seq.lhs & u.var_mask)))
    phi = {nid: windex[phi_walk(nid)] for nid in nodes if store.nodes[nid].seq.regular}
    model = KripkeModel(up, phi[root], valuation, labels=world_nodes)
    return ExtractedModel(model, phi, world_nodes)


def _extraction_fields(ex):
    m = ex.model
    return ex.world_nodes, m.labels, m.up, m.valuation, ex.phi, m.root


# Goals whose derivations hold a regular sequent whose world is not the
# last world sequent before it in id order.
INTERLEAVED_WORLDS = [parse(text) for text in (
    "(p4 -> p2 & p2) | ((p4 -> p2) & ~(p2 | p3) | ~p2)",
    "(~p1 -> ~(p1 -> p4 & p1)) | (p4 & p1 & (p4 & p4) & (p4 | (p1 | ~(false | p3))) -> ~p2)")]


def test_one_pass_extraction_matches_the_ancestor_sets():
    # Search stores, and the stores rebuilt from their models.
    extracted = 0
    for goal in CORPUS + INTERLEAVED_WORLDS:
        for min_height in (False, True):
            out = fsearch(goal, min_height=min_height)
            if not out.is_proof:
                continue
            for store, root in ((out.store, out.root),
                                derivation_from_model(extract_model(out.store, out.root).model,
                                                      goal)):
                assert (_extraction_fields(extract_model(store, root))
                        == _extraction_fields(reference_extract_model(store, root))), \
                    (to_text(goal), min_height)
                extracted += 1
    assert extracted > 400


def test_extracted_height_is_bounded_by_goal_size():
    for text in (SCOTT, ANTI_SCOTT, KP, "p", "p | ~p"):
        out = proof_of(text)
        ex = extract_model(out.store, out.root)
        assert height(ex.model) <= out.universe.goal_size


# -- rank -----------------------------------------------------------------------

def reference_rank(store, nid, memo=None):
    """``rank`` before the store assigned ranks: the join depth recomputed
    over the stored derivation, irregular axioms counting -1, regular axioms
    0, each join adding one on the deepest path (the reference).  ``memo``
    may be shared between calls on one store."""
    memo = {} if memo is None else memo

    def r(n):
        if n in memo:
            return memo[n]
        node = store.nodes[n]
        if not node.premises:
            memo[n] = 0 if node.seq.regular else -1
        else:
            bump = 1 if node.rule in (JOIN_AT, JOIN_OR) else 0
            memo[n] = max(r(p) for p in node.premises) + bump
        return memo[n]

    return r(nid)


def assert_ranks_are_the_join_depths(store):
    memo = {}
    for nid, node in enumerate(store.nodes):
        assert node.rank == rank(store, nid) == reference_rank(store, nid, memo), nid


def test_stored_ranks_are_the_recursive_join_depths():
    # The store assigns every node its rank as it is added; the recursion
    # over the stored derivation agrees, on search stores under every
    # strategy and on the stores rebuilt from their countermodels.
    rebuilt = 0
    for goal in CORPUS:
        for min_height in (False, True):
            for backward_subsumption in (True, False):
                out = fsearch(goal, min_height=min_height,
                              backward_subsumption=backward_subsumption)
                assert_ranks_are_the_join_depths(out.store)
                if out.is_proof:
                    model = extract_model(out.store, out.root).model
                    store, root = derivation_from_model(model, goal)
                    assert_ranks_are_the_join_depths(store)
                    assert rank(store, root) <= height(model)
                    rebuilt += 1
    assert rebuilt > 500


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
        # The rank the store assigned agrees with the recomputation.
        assert reference_rank(out.store, out.root) == r


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
