import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipldecide import formula as F
from ipldecide.formula import parse
from ipldecide.kripke import (KripkeModel, UnknownWorld, check_countermodel,
                              forces, graph_export, height, height_of,
                              model_problems, structured_export)

from conftest import SCOTT
from test_formula import formulas


def single_world(atoms=()):
    return KripkeModel.from_order_pairs(1, [], 0, [set(atoms)])


def scott_hand_model():
    """Root below one final empty world and below a 2-chain ending in {p}."""
    return KripkeModel.from_order_pairs(
        4, [(0, 1), (0, 2), (2, 3)], 0,
        [set(), set(), set(), {"p"}])


def test_forcing_clauses():
    m = scott_hand_model()
    p = parse("p")
    assert not forces(m, 0, parse("false"))
    assert forces(m, 3, p) and not forces(m, 2, p)
    assert forces(m, 3, parse("p & (p | q)"))
    assert forces(m, 1, parse("~p"))        # no p anywhere above world 1
    assert not forces(m, 2, parse("~p"))    # p appears above world 2
    assert not forces(m, 0, parse(SCOTT))
    with pytest.raises(UnknownWorld):
        forces(m, 9, p)


def _classical(f, assignment):
    if f.kind == F.VAR:
        return f.name in assignment
    if f.kind == F.BOT:
        return False
    if f.kind == F.AND:
        return _classical(f.left, assignment) and _classical(f.right, assignment)
    if f.kind == F.OR:
        return _classical(f.left, assignment) or _classical(f.right, assignment)
    return (not _classical(f.left, assignment)) or _classical(f.right, assignment)


@settings(max_examples=150)
@given(formulas(max_leaves=8), st.sets(st.sampled_from(["p", "q", "r"])))
def test_final_world_forcing_is_classical(f, atoms):
    # At a maximal world, forcing collapses to truth-table evaluation under
    # the world's valuation; in particular final worlds force every
    # classical tautology.
    m = single_world(atoms)
    assert forces(m, 0, f) == _classical(f, atoms)


def test_forcing_extensional_on_handles():
    m = scott_hand_model()
    a = parse("~p | p")
    b = F.disj(F.neg(F.var("p")), F.var("p"))
    assert a is b
    cache = {}
    assert forces(m, 2, a, cache) == forces(m, 2, b, cache)


def test_heights():
    assert height(single_world()) == 0
    m = scott_hand_model()
    assert height(m) == 2
    assert [height_of(m, w) for w in m.worlds()] == [2, 0, 1, 0]


def test_check_countermodel():
    m = scott_hand_model()
    assert check_countermodel(m, parse(SCOTT))
    assert check_countermodel(single_world(), parse("p"))
    assert not check_countermodel(single_world({"p"}), parse("p"))


def test_model_problems_name_the_failure():
    # Non-monotone valuation: the atom disappears upward.
    bad = KripkeModel.from_order_pairs(2, [(0, 1)], 0, [{"p"}, set()])
    assert any(p.startswith("monotonicity") for p in model_problems(bad, parse("q")))
    # Root forcing the goal.
    assert any(p.startswith("forcing")
               for p in model_problems(single_world({"p"}), parse("p")))
    # Root not the minimum.
    broken = KripkeModel([1 << 0, 1 << 1], 0, [set(), set()])
    assert any(p.startswith("order") for p in model_problems(broken, parse("p")))


def assert_forcing_persists(m, formulas):
    """Each formula forced at a world is forced at every world above it."""
    cache = {}
    for f, a in itertools.product(formulas, m.worlds()):
        if forces(m, a, f, cache):
            for b in m.successors(a):
                assert forces(m, b, f, cache)


def test_monotonicity_property_for_arbitrary_formulas():
    pool = [parse(t) for t in
            ["p", "~p", "~~p", "p | ~p", "p & p", "~~p -> p", SCOTT]]
    assert_forcing_persists(scott_hand_model(), pool)


def test_structured_and_graph_export():
    m = scott_hand_model()
    data = structured_export(m)
    assert data["root"] == 0
    assert {w["id"] for w in data["worlds"]} == {0, 1, 2, 3}
    assert data["worlds"][3]["val"] == ["p"]
    assert sorted(map(tuple, data["order"])) == [(0, 1), (0, 2), (2, 3)]
    dot = graph_export(m)
    assert "rankdir=BT" in dot and "w2 -> w3" in dot


def test_covering_pairs_are_a_transitive_reduction():
    m = scott_hand_model()
    assert set(m.covering_pairs()) == {(0, 1), (0, 2), (2, 3)}
