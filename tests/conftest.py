import pytest

from ipldecide import build_universe, parse, to_text
from ipldecide.formula import iter_bits
from ipldecide.rules import Sequent

# The four workhorse goals: two instances of the classical-but-not-
# intuitionistic one-variable principles (Scott and its companion), the
# Kreisel-Putnam instance, and a valid chain of case splits.
SCOTT = "((~~p -> p) -> (~p | p)) -> (~~p | ~p)"
ANTI_SCOTT = "(((~~p -> p) -> (~p | p)) -> (~~p | ~p)) -> ((~~p -> p) | ~~p)"
KP = "(~a -> (b | c)) -> ((~a -> b) | (~a -> c))"
VALID_E = "(p & (p -> q1 | q2) & (q1 -> r1 | r2) & (q2 -> r1 | r2)) -> r1 | r2"
# Valid goals whose proofs close a right implication over a context that
# already holds its antecedent, which a rule further up consumes: the G3i
# translation must not add it back into that rule's premises.
G3I_CONSUMED_ANTECEDENT = [
    "~~(~(p1 -> p4) -> p2 | p4 | (p4 & p2 & p1 | p3 -> p3))",
    "~(p2 | (p2 -> p3 | (~p4 | p2))) | p4 & ~p4 -> ~~p4",
    "~~(~false & p2 -> (p3 -> p3 -> p4) -> p4 | (p1 -> ~p3))",
    "~(~((p2 | p1 -> p2) | p4) -> ~(p3 -> p3) & p3 | (p2 | false -> p3 | p1))"
    " -> p4 | false | (p4 | p3) & p2",
]


@pytest.fixture(scope="session")
def scott_u():
    return build_universe(parse(SCOTT))


@pytest.fixture(scope="session")
def anti_scott_u():
    return build_universe(parse(ANTI_SCOTT))


@pytest.fixture(scope="session")
def kp_u():
    return build_universe(parse(KP))


@pytest.fixture(scope="session")
def valid_e_u():
    return build_universe(parse(VALID_E))


def texts(u, mask) -> set[str]:
    """The subformulas at the positions set in ``mask``, printed."""
    return {to_text(u.sf[i]) for i in iter_bits(mask)}


def rseq(u, gammas, rhs) -> Sequent:
    """Regular sequent from formula strings."""
    gamma = u.mask_of(parse(t) for t in gammas)
    return Sequent(u, True, gamma, 0, 0, u.position_of(parse(rhs)))


def iseq(u, sigmas, thetas, rhs) -> Sequent:
    """Irregular sequent from formula strings."""
    sigma = u.mask_of(parse(t) for t in sigmas)
    theta = u.mask_of(parse(t) for t in thetas)
    return Sequent(u, False, 0, sigma, theta, u.position_of(parse(rhs)))


# The hand-checked refutation of the Scott instance, line by line.
H = "(~~p -> p) -> (~p | p)"
SCOTT_LINES = {
    1: ("irr", [], ["p", H, "~~p", "~p"], "false"),
    2: ("irr", [], [H, "~~p", "~p"], "p"),
    3: ("irr", ["p"], [H, "~~p", "~p"], "~p"),
    4: ("irr", ["~~p"], [H, "~p"], "~~p -> p"),
    5: ("reg", ["~p"], None, "false"),
    6: ("reg", ["p", "~~p"], None, "false"),
    7: ("irr", [], [H], "~~p"),
    8: ("irr", [], [H, "~~p"], "~p"),
    9: ("reg", [H, "~~p"], None, "p"),
    10: ("irr", [], [H], "~~p -> p"),
    11: ("reg", [H], None, "~~p | ~p"),
    12: ("reg", [H], None, SCOTT),
}

K0 = "~a -> (b | c)"
K1 = "(~a -> b) | (~a -> c)"
KP_LINES = {
    1: ("irr", [], ["a", "b", "c", K0, "~a"], "false"),
    2: ("irr", [], ["b", "c", K0, "~a"], "a"),
    3: ("irr", ["a"], ["b", "c", K0, "~a"], "~a"),
    4: ("reg", ["c", "~a"], None, "b"),
    5: ("reg", ["b", "~a"], None, "c"),
    6: ("reg", ["a", "b", "c", K0], None, "false"),
    7: ("irr", [], ["c", K0], "~a -> b"),
    8: ("irr", [], ["b", K0], "~a -> c"),
    9: ("irr", [], ["b", "c", K0], "~a"),
    10: ("reg", [K0], None, K1),
    11: ("reg", [K0], None, KP),
}

E_A, E_B, E_C = "p -> q1 | q2", "q1 -> r1 | r2", "q2 -> r1 | r2"
E_IRREGULAR_LINES = [
    ([], ["q1", "q2", "r1", "r2", E_A, E_B, E_C], "p"),
    ([], ["p", "q2", "r1", "r2", E_A, E_B, E_C], "q1"),
    ([], ["p", "q1", "r1", "r2", E_A, E_B, E_C], "q2"),
    ([], ["p", "q1", "q2", "r2", E_A, E_B, E_C], "r1"),
    ([], ["p", "q1", "q2", "r1", E_A, E_B, E_C], "r2"),
    ([], ["p", "q1", "q2", E_A, E_B, E_C], "r1 | r2"),
]


def sequent_of_line(u, line) -> Sequent:
    kind, first, second, rhs = line
    if kind == "reg":
        return rseq(u, first, rhs)
    return iseq(u, first, second, rhs)
