import random

import pytest

from ipldecide.backward import (AX, LIMP, ROR1, BSearchTrace, BSequent,
                                InternalInvariantViolation, bsearch,
                                bsearch_from, bweight, check_backward,
                                check_g3i, critical, evaluate, oracle_decide,
                                to_g3i)
from ipldecide.formula import build_universe, parse, to_text
from ipldecide.search import Database, fsearch

from conftest import ANTI_SCOTT, E_A, E_B, E_C, KP, SCOTT, VALID_E, texts


def bseq(u, kind, lhs, rhs):
    return BSequent(u, kind == "reg", u.mask_of(parse(t) for t in lhs),
                    u.position_of(parse(rhs)))


@pytest.fixture(scope="module")
def e_saturated(valid_e_u):
    out = fsearch(valid_e_u)
    assert not out.is_proof
    return out.db


# -- evaluation relation ------------------------------------------------------

def test_evaluate_irregular_examples(valid_e_u, e_saturated):
    psi1 = ["p", E_A, E_B, E_C]
    assert evaluate(e_saturated, bseq(valid_e_u, "irr", psi1, "q1"))
    assert evaluate(e_saturated, bseq(valid_e_u, "irr", psi1, "q2"))
    assert evaluate(e_saturated, bseq(valid_e_u, "irr", psi1, "r1"))
    assert evaluate(e_saturated, bseq(valid_e_u, "irr", psi1, "r2"))
    assert not evaluate(e_saturated, bseq(valid_e_u, "irr", psi1, "p"))


def test_evaluate_regular_uses_closure(valid_e_u, e_saturated):
    # The axiom with everything but q1 on the left covers this context.
    assert evaluate(e_saturated, bseq(valid_e_u, "reg", ["p", "r1"], "q1"))


def test_evaluate_empty_database(valid_e_u):
    empty = Database(valid_e_u)
    assert not evaluate(empty, bseq(valid_e_u, "reg", [], "p"))
    assert not evaluate(empty, bseq(valid_e_u, "irr", ["p"], "q1"))


# -- critical sequents ----------------------------------------------------------

def test_critical_examples(valid_e_u):
    assert critical(bseq(valid_e_u, "reg", ["p", E_A, E_B, E_C], "r1 | r2"))
    assert critical(bseq(valid_e_u, "irr", ["p"], "r1 | r2"))
    assert critical(bseq(valid_e_u, "reg", ["p"], "q1"))
    # A compound left formula or a compound right side is still invertible.
    u2 = build_universe(parse("(a & b) -> c"))
    assert not critical(bseq(u2, "reg", ["a & b"], "c"))
    u3 = build_universe(parse("p -> p"))
    assert not critical(bseq(u3, "reg", [], "p -> p"))


# -- bsearch ----------------------------------------------------------------------

def test_bsearch_identity_goal():
    out = fsearch(parse("p -> p"))
    tree = bsearch(out.db)
    assert tree.rule == "r-imp-notin"
    assert tree.children[0].rule == "ax"
    assert check_backward(tree)


def test_bsearch_first_critical_choice_on_the_case_split(valid_e_u, e_saturated):
    trace = BSearchTrace()
    tree = bsearch(e_saturated, trace=trace)
    assert trace.backtracks == 0
    assert check_backward(tree)
    tau, rule, principal = trace.critical_choices[0]
    assert rule == LIMP
    assert to_text(valid_e_u.sf[principal]) == E_A
    assert texts(valid_e_u, tau.psi) == {"p", E_A, E_B, E_C}


def test_bsearch_from_inner_critical_sequent(valid_e_u, e_saturated):
    # With the case split already resolved to q1 and r1, the only branch the
    # database refutes is the first disjunct.
    tau4 = bseq(valid_e_u, "reg", ["p", "q1", "r1", E_C], "r1 | r2")
    trace = BSearchTrace()
    tree = bsearch_from(e_saturated, tau4, trace)
    assert trace.critical_choices[0][1] == ROR1
    assert tree.rule == ROR1 and tree.children[0].rule == AX
    assert check_backward(tree)


def test_bsearch_rejects_refutable_roots(valid_e_u, e_saturated):
    with pytest.raises(InternalInvariantViolation):
        bsearch_from(e_saturated,
                     bseq(valid_e_u, "irr", ["p", E_A, E_B, E_C], "q1"))


def test_bsearch_weights_strictly_decrease(e_saturated):
    tree = bsearch(e_saturated)
    for parent, child in tree.edges():
        assert bweight(child.seq) < bweight(parent.seq)


# -- oracle ------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("p -> p", True),
    (VALID_E, True),
    (SCOTT, False),
    (ANTI_SCOTT, False),
    (KP, False),
    ("p | ~p", False),
    ("~~(p | ~p)", True),
    ("((p -> q) -> p) -> p", False),
    ("(~~p -> p) | ~p | ~~p", False),
    ("false -> p", True),
    ("(p -> q) -> ((q -> r) -> (p -> r))", True),
])
def test_oracle_decides_known_formulas(text, expected):
    assert oracle_decide(parse(text)) == expected


def test_oracle_agrees_with_search_on_random_formulas():
    from ipldecide.generate import random_formulas
    for f in random_formulas(seed=3, max_vars=3, max_size=10, count=150):
        assert oracle_decide(f) == (not fsearch(f).is_proof), to_text(f)


# -- evaluation closure properties ----------------------------------------------------

def _saturated_dbs():
    goals = [VALID_E, "p -> p", "~~(p | ~p)", "(p1 & p2) -> (p2 & p1)",
             "((p1 | p2) & ~p1) -> ~~p2"]
    out = []
    for text in goals:
        res = fsearch(parse(text))
        assert not res.is_proof
        out.append((res.universe, res.db))
    return out


def _sample_psis(u, rng, allowed, count):
    bits = [i for i in range(u.n) if (allowed >> i) & 1]
    for _ in range(count):
        yield sum(1 << i for i in bits if rng.random() < 0.4)


def test_evaluation_respects_invertible_rules():
    # The nine single-step closure facts of the evaluation relation, sampled
    # over saturated databases.
    from ipldecide.formula import AND, IMP, OR, iter_bits
    rng = random.Random(2)
    for u, db in _saturated_dbs():
        conj_left = [i for i in iter_bits(u.sfl) if u.sf[i].kind == AND]
        disj_left = [i for i in iter_bits(u.sfl) if u.sf[i].kind == OR]
        imp_left = [i for i in iter_bits(u.sfl) if u.sf[i].kind == IMP]
        conj_right = [i for i in iter_bits(u.sfr) if u.sf[i].kind == AND]
        imp_right = [i for i in iter_bits(u.sfr) if u.sf[i].kind == IMP]
        rhs_all = list(iter_bits(u.sfr))
        for psi in _sample_psis(u, rng, u.sfl, 40):
            for c in rhs_all:
                # (1) joining two left formulas into their conjunction
                for i in conj_left:
                    f = u.sf[i]
                    lp, rp = u.pos[f.left.id], u.pos[f.right.id]
                    if evaluate(db, BSequent(u, True, psi | (1 << lp) | (1 << rp), c)):
                        assert evaluate(db, BSequent(u, True, psi | (1 << i), c))
                # (3) replacing a left disjunct by the disjunction
                for i in disj_left:
                    f = u.sf[i]
                    for kpos in (u.pos[f.left.id], u.pos[f.right.id]):
                        if evaluate(db, BSequent(u, True, psi | (1 << kpos), c)):
                            assert evaluate(db, BSequent(u, True, psi | (1 << i), c))
                # (4) replacing a left consequent by the implication
                for i in imp_left:
                    bpos = u.pos[u.sf[i].right.id]
                    if evaluate(db, BSequent(u, True, psi | (1 << bpos), c)):
                        assert evaluate(db, BSequent(u, True, psi | (1 << i), c))
            # (2) right conjunctions from either conjunct
            for t in conj_right:
                f = u.sf[t]
                for kpos in (u.pos[f.left.id], u.pos[f.right.id]):
                    if evaluate(db, BSequent(u, True, psi, kpos)):
                        assert evaluate(db, BSequent(u, True, psi, t))
            # (5)/(6) right implications, split on the closure test
            for t in imp_right:
                f = u.sf[t]
                a, b = u.pos[f.left.id], u.pos[f.right.id]
                if (u.closure(psi) >> a) & 1:
                    if evaluate(db, BSequent(u, True, psi, b)):
                        assert evaluate(db, BSequent(u, True, psi, t))
                else:
                    if evaluate(db, BSequent(u, True, psi | (1 << a), b)):
                        assert evaluate(db, BSequent(u, True, psi, t))
        for omega in _sample_psis(u, rng, u.gbar, 40):
            # (7) irregular right conjunctions
            for t in conj_right:
                f = u.sf[t]
                for kpos in (u.pos[f.left.id], u.pos[f.right.id]):
                    if evaluate(db, BSequent(u, False, omega, kpos)):
                        assert evaluate(db, BSequent(u, False, omega, t))
            # (8)/(9) irregular right implications
            for t in imp_right:
                f = u.sf[t]
                a, b = u.pos[f.left.id], u.pos[f.right.id]
                if (u.closure(omega) >> a) & 1:
                    if evaluate(db, BSequent(u, False, omega, b)):
                        assert evaluate(db, BSequent(u, False, omega, t))
                else:
                    if evaluate(db, BSequent(u, True, omega | (1 << a), b)):
                        assert evaluate(db, BSequent(u, False, omega, t))


def test_evaluation_respects_disjunction_pairs():
    rng = random.Random(7)
    for u, db in _saturated_dbs():
        targets = [(t, c1, c2) for t, c1, c2 in u.or_targets]
        for omega in _sample_psis(u, rng, u.gbar, 60):
            for t, c1, c2 in targets:
                if evaluate(db, BSequent(u, False, omega, c1)) and \
                        evaluate(db, BSequent(u, False, omega, c2)):
                    assert evaluate(db, BSequent(u, False, omega, t))


def test_evaluation_respects_supported_contexts():
    # A prime (or disjunctive) right side whose context implications are all
    # refutable is itself covered by the database.
    from ipldecide.formula import IMP, iter_bits
    rng = random.Random(13)
    for u, db in _saturated_dbs():
        for omega in _sample_psis(u, rng, u.gbar, 60):
            imps = [i for i in iter_bits(omega) if u.sf[i].kind == IMP]
            if not all(evaluate(db, BSequent(u, False, omega, u.ante[i]))
                       for i in imps):
                continue
            for fpos in u.prime_rhs:
                if not (omega >> fpos) & 1:
                    assert evaluate(db, BSequent(u, True, omega, fpos))
            for t, c1, c2 in u.or_targets:
                if evaluate(db, BSequent(u, False, omega, c1)) and \
                        evaluate(db, BSequent(u, False, omega, c2)):
                    assert evaluate(db, BSequent(u, True, omega, t))


# -- duality --------------------------------------------------------------------------

def test_search_and_reconstruction_are_dual():
    from ipldecide.generate import random_formulas
    for f in random_formulas(seed=21, max_vars=2, max_size=9, count=80):
        out = fsearch(f)
        if out.is_proof:
            assert not oracle_decide(f)
        else:
            assert oracle_decide(f)
            tree = bsearch(out.db)
            assert check_backward(tree)


# -- G3i translation ---------------------------------------------------------------------

def test_g3i_translation_checks(valid_e_u, e_saturated):
    tree = bsearch(e_saturated)
    g3 = to_g3i(tree)
    assert check_g3i(g3, valid_e_u) is None


def test_g3i_translation_adds_antecedent_at_closed_right_implications():
    # Over a context that already derives the antecedent, the backward step
    # keeps the context; its translation must re-add the antecedent.
    out = fsearch(parse("(p1 & p2) -> ((p1 & p2) -> (p1 & p2))"))
    tree = bsearch(out.db)
    closed = [n for n in tree.nodes() if n.rule == "r-imp-in"]
    assert closed, "expected a closed right implication in this proof"
    for node in closed:
        g3 = to_g3i(node)
        u = node.seq.u
        a = u.pos[u.sf[node.seq.rhs].left.id]
        assert (g3.children[0].psi >> a) & 1
    assert check_g3i(to_g3i(tree), out.universe) is None


def test_g3i_checker_rejects_corrupted_trees(valid_e_u, e_saturated):
    tree = to_g3i(bsearch(e_saturated))

    def corrupt(node, path=()):
        # Flip the first left-implication node to a wrong principal.
        if node.rule == "l-imp":
            other = next(i for i in range(valid_e_u.n)
                         if (node.psi >> i) & 1 and i != node.principal
                         and valid_e_u.sf[i].kind == 4)
            return type(node)(node.psi, node.rhs, node.rule, node.children,
                              other), path
        for j, c in enumerate(node.children):
            res = corrupt(c, path + (j,))
            if res is not None:
                bad_child, where = res
                kids = list(node.children)
                kids[j] = bad_child
                return type(node)(node.psi, node.rhs, node.rule, tuple(kids),
                                  node.principal), where
        return None

    corrupted, where = corrupt(tree)
    result = check_g3i(corrupted, valid_e_u)
    assert result is not None
    path, reason = result
    assert path == where and "implication" in reason
