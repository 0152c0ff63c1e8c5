import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipldecide import formula as F
from ipldecide.formula import ParseError, build_universe, iter_bits, parse, to_text

from conftest import SCOTT, texts


def names():
    return st.sampled_from(["p", "q", "r"])


def formulas(max_leaves=10):
    return st.recursive(
        st.one_of(names().map(F.var), st.just(F.bot())),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda ab: F.conj(*ab)),
            st.tuples(kids, kids).map(lambda ab: F.disj(*ab)),
            st.tuples(kids, kids).map(lambda ab: F.imp(*ab)),
            kids.map(F.neg),
        ),
        max_leaves=max_leaves)


# -- parsing ----------------------------------------------------------------

def test_parse_basic_shapes():
    f = parse("p -> p")
    assert f.kind == F.IMP and f.left is f.right is F.var("p")

    g = parse("~p")
    assert g.kind == F.IMP and g.left is F.var("p") and g.right.kind == F.BOT

    s = parse(SCOTT)
    h = parse("(~~p -> p) -> (~p | p)")
    assert s.left is h
    assert s.right is parse("~~p | ~p")


def test_parse_precedence_and_associativity():
    assert parse("~p & q | r -> s") is parse("(((~p) & q) | r) -> s")
    assert parse("a -> b -> c") is parse("a -> (b -> c)")
    assert parse("a & b & c") is parse("(a & b) & c")
    assert parse("a | b | c") is parse("(a | b) | c")
    assert parse("#") is parse("false")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("p -> (")
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p -> q")
    with pytest.raises(ParseError) as err2:
        parse("p &\n& q")
    assert err2.value.line == 2


def test_atoms_are_ascii_names():
    # Atoms are [a-z][A-Za-z0-9_]*: a letter or digit outside ASCII, or an
    # upper-case first letter, is an unexpected character at its own column.
    assert parse("aB_9 -> x1").left.name == "aB_9"
    for text, col in (("é", 1), ("pé", 2), ("p٣", 2), ("p²", 2), ("p² -> p²", 2),
                      ("q -> Ab", 6)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col), text
        assert err.value.message == f"unexpected character {text[col - 1]!r}", text


def test_chains_are_capped_by_height_not_by_length():
    # A chain of 101 operands is 100 high and parses; the next operator
    # makes it too high.  Chains stacked in parentheses add up, so two
    # 60-operand chains, one the first operand of the other, are too high.
    assert parse(" & ".join(["p"] * 101)).height == F.MAX_NESTING
    with pytest.raises(ParseError) as err:
        parse(" | ".join(["p"] * 102))
    assert err.value.col == 4 * 101 - 1
    inner = "(" + " & ".join(["p"] * 60) + ")"
    with pytest.raises(ParseError):
        parse(" & ".join([inner] + ["q"] * 59))
    assert parse(" & ".join([inner] + ["q"] * 40)).height == 99


def test_parenthesised_nesting_counts_once():
    # 51 right-nested implications and 55 negations, each level in its own
    # parentheses, are 51 and 55 high and parse.
    imps = "(" + " -> (".join(f"q{i}" for i in range(51)) + " -> p" + ")" * 51
    assert parse(imps).height == 51
    assert parse("~(" * 55 + "p" + ")" * 55).height == 55
    assert parse("~" * 100 + "p").height == parse("p -> " * 100 + "p").height == 100


def test_hash_consing_gives_equal_ids():
    a = parse("p & (q -> r)")
    b = F.conj(F.var("p"), F.imp(F.var("q"), F.var("r")))
    assert a is b and a.id == b.id


@settings(max_examples=200)
@given(formulas())
def test_print_parse_roundtrip(f):
    assert parse(to_text(f)) is f


# -- size -------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("p", 1), ("p -> q", 3), ("~p", 3), ("false", 1),
    ("p & q | r", 5), ("~~p", 5),
])
def test_size_counts_symbols(text, expected):
    assert parse(text).size == expected


# -- universes ----------------------------------------------------------------

def test_universe_atom_goal():
    u = build_universe(parse("p"))
    assert u.render_mask(u.sfr) == "p"
    assert u.sfl == 0 and u.gbar == 0


def test_universe_scott(scott_u):
    u = scott_u
    left, right = texts(u, u.sfl), texts(u, u.sfr)
    assert {"(~~p -> p) -> ~p | p", "~p | p", "~~p", "~p", "p"} <= left
    assert {to_text(u.goal), "~~p | ~p", "~~p -> p", "~~p", "~p", "p",
            "false"} <= right
    assert texts(u, u.gat) == {"p"}
    assert texts(u, u.gbar) == {"p", "~p", "~~p", "(~~p -> p) -> ~p | p"}


def test_universe_kp(kp_u):
    u = kp_u
    left, right = texts(u, u.sfl), texts(u, u.sfr)
    assert {"~a -> b | c", "~a", "a", "b", "c"} <= left
    assert {to_text(u.goal), "(~a -> b) | (~a -> c)", "~a -> b", "~a -> c",
            "a", "b", "c", "false"} <= right


def test_polarity_generation_clauses(scott_u, kp_u, valid_e_u):
    # Left implications contribute their consequent left and antecedent
    # right; conjunction/disjunction children inherit the side.
    for u in (scott_u, kp_u, valid_e_u):
        for i in iter_bits(u.sfl):
            f = u.sf[i]
            if f.kind in (F.AND, F.OR):
                assert (u.sfl >> u.pos[f.left.id]) & 1
                assert (u.sfl >> u.pos[f.right.id]) & 1
            elif f.kind == F.IMP:
                assert (u.sfl >> u.pos[f.right.id]) & 1
                assert (u.sfr >> u.pos[f.left.id]) & 1
        for i in iter_bits(u.sfr):
            f = u.sf[i]
            if f.kind in (F.AND, F.OR):
                assert (u.sfr >> u.pos[f.left.id]) & 1
                assert (u.sfr >> u.pos[f.right.id]) & 1
            elif f.kind == F.IMP:
                assert (u.sfr >> u.pos[f.right.id]) & 1
                assert (u.sfl >> u.pos[f.left.id]) & 1
        assert (u.sfr >> u.goal_pos) & 1


# -- closure ------------------------------------------------------------------

def test_closure_membership_examples():
    u = build_universe(parse("(p1 & p2) -> q"))
    gamma = u.mask_of([parse("p1"), parse("p2")])
    assert u.closure(gamma) & u.mask_of([parse("p1 & p2")])

    u2 = build_universe(parse("(p & q) -> ((p | q) -> b)"))
    assert not u2.closure(u2.mask_of([])) & u2.mask_of([parse("p | q")])
    with pytest.raises(KeyError):
        u2.mask_of([parse("zz")])


def test_closure_restricted_slice():
    # With left side {p, q, r, r->p, p->r}, the closure of {p, q} meets the
    # atom/implication slice in exactly {p, q, r->p}.
    u = build_universe(parse("(p & q & (r -> p) & (p -> r)) -> ((p & q) -> b)"))
    got = u.closure(u.mask_of([parse("p"), parse("q")])) & u.gbar
    assert texts(u, got) == {"p", "q", "r -> p"}


def _closure_oracle(u, mask):
    """Independent oracle: iterate the generation clauses to a fixpoint."""
    cl = mask
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(u.sf):
            if (cl >> i) & 1:
                continue
            if f.kind == F.AND:
                hit = (cl >> u.pos[f.left.id]) & 1 and (cl >> u.pos[f.right.id]) & 1
            elif f.kind == F.OR:
                hit = (cl >> u.pos[f.left.id]) & 1 or (cl >> u.pos[f.right.id]) & 1
            elif f.kind == F.IMP:
                hit = (cl >> u.pos[f.right.id]) & 1
            else:
                hit = False
            if hit:
                cl |= 1 << i
                changed = True
    return cl


def reference_closure(u, mask):
    """``GoalUniverse.closure`` before its table of connectives: one pass
    over every position, looking up the operands' positions (the reference)."""
    cl = 0
    for i, f in enumerate(u.sf):
        if (mask >> i) & 1:
            cl |= 1 << i
        elif f.kind == F.AND:
            lp, rp = u.pos[f.left.id], u.pos[f.right.id]
            if (cl >> lp) & 1 and (cl >> rp) & 1:
                cl |= 1 << i
        elif f.kind == F.OR:
            lp, rp = u.pos[f.left.id], u.pos[f.right.id]
            if (cl >> lp) & 1 or (cl >> rp) & 1:
                cl |= 1 << i
        elif f.kind == F.IMP:
            if (cl >> u.pos[f.right.id]) & 1:
                cl |= 1 << i
    return cl


@settings(max_examples=200)
@given(st.data())
def test_closure_matches_the_per_position_reference(data):
    u = build_universe(data.draw(formulas(max_leaves=12)))
    # Masks may hold bits past the universe, which neither closure keeps.
    for mask in data.draw(st.lists(st.integers(0, (1 << (u.n + 2)) - 1), max_size=8)):
        assert u.closure(mask) == reference_closure(u, mask)
    for mask in data.draw(st.lists(st.integers(0, u.gbar), max_size=8)):
        assert u.closure(mask & u.gbar) == reference_closure(u, mask & u.gbar)


@settings(max_examples=150)
@given(st.data())
def test_closure_properties(data):
    f = data.draw(formulas(max_leaves=8))
    u = build_universe(f)
    m1 = data.draw(st.integers(0, u.full_mask))
    m2 = data.draw(st.integers(0, u.full_mask))
    cl1 = u.closure(m1)
    # agreement with the brute-force fixpoint
    assert cl1 == _closure_oracle(u, m1)
    # extensive and idempotent
    assert m1 & ~cl1 == 0
    assert u.closure(cl1) == cl1
    # monotone
    assert u.closure(m1 & m2) & ~cl1 == 0
    # no new atoms
    assert cl1 & u.var_mask == m1 & u.var_mask
