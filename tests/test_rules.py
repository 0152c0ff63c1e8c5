import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipldecide.countermodel import derivation_from_model, extract_model
from ipldecide.formula import build_universe, iter_bits, parse
from ipldecide.generate import nishimura, random_formulas
from ipldecide.rules import (JOIN_AT, JOIN_OR, JoinParts, NotApplicable, Weight, apply_and,
                             apply_imp_in_irregular, apply_imp_in_regular,
                             apply_imp_notin, apply_join, apply_or, axioms, covers,
                             maximal_avoiding, minimal_shifts, regular,
                             irregular, subsumes, weight)
from ipldecide.search import fsearch

from conftest import (KP_LINES, SCOTT, SCOTT_LINES, iseq, rseq, sequent_of_line)


# -- axioms -------------------------------------------------------------------

def test_axioms_atom_goal():
    u = build_universe(parse("p"))
    axs = axioms(u)
    assert {s.render() for s in axs} == {". => p", ". ; . -> p"}


def test_axioms_scott(scott_u):
    axs = {s.render() for s in axioms(scott_u)}
    assert iseq(scott_u, [], ["p", "(~~p -> p) -> (~p | p)", "~~p", "~p"],
                "false").render() in axs
    assert iseq(scott_u, [], ["(~~p -> p) -> (~p | p)", "~~p", "~p"],
                "p").render() in axs
    assert len(axs) == 4  # two prime right subformulas, two shapes each


# -- single rules, golden examples --------------------------------------------

def test_apply_and():
    u = build_universe(parse("q -> (a & b)"))
    a, b = parse("a"), parse("b")
    target = parse("a & b")
    pa = regular(u, u.mask_of([parse("q")]), u.position_of(a))
    out = apply_and(pa, target)
    assert out.render() == "q => a & b"
    pi = irregular(u, 0, u.mask_of([parse("q")]), u.position_of(b))
    assert apply_and(pi, target).render() == ". ; q -> a & b"
    # A premise whose right side is not a conjunct of the target.
    with pytest.raises(NotApplicable):
        apply_and(regular(u, 0, u.goal_pos), target)


def test_apply_or_requires_stable_coverage(valid_e_u):
    u = valid_e_u
    p4 = iseq(u, [], ["p", "q1", "q2", "r2", "p -> q1 | q2", "q1 -> r1 | r2",
                      "q2 -> r1 | r2"], "r1")
    p5 = iseq(u, [], ["p", "q1", "q2", "r1", "p -> q1 | q2", "q1 -> r1 | r2",
                      "q2 -> r1 | r2"], "r2")
    out = apply_or(p4, p5, parse("r1 | r2"))
    assert out == iseq(u, [], ["p", "q1", "q2", "p -> q1 | q2", "q1 -> r1 | r2",
                               "q2 -> r1 | r2"], "r1 | r2")


def test_apply_or_scott(scott_u):
    # A disjunction join of the two shifted axioms inside the Scott universe.
    u = scott_u
    p1 = iseq(u, ["~p"], ["p", "(~~p -> p) -> (~p | p)", "~~p"], "~~p")
    p2 = iseq(u, ["p"], ["(~~p -> p) -> (~p | p)", "~~p", "~p"], "~p")
    out = apply_or(p1, p2, parse("~~p | ~p"))
    assert out == iseq(u, ["p", "~p"], ["(~~p -> p) -> (~p | p)", "~~p"],
                       "~~p | ~p")
    # Violating the coverage condition: stable part not covered by partner.
    p3 = iseq(u, [], ["(~~p -> p) -> (~p | p)"], "~p")
    with pytest.raises(NotApplicable):
        apply_or(p1, p3, parse("~~p | ~p"))


def test_apply_or_anti_scott(anti_scott_u):
    # Joining the atom axiom with the shifted empty-stable sequent inside
    # the companion universe.
    u = anti_scott_u
    s, nnp_p = "((~~p -> p) -> (~p | p)) -> (~~p | ~p)", "~~p -> p"
    p1 = iseq(u, [], [s, nnp_p, "~~p"], "~p")
    p2 = iseq(u, [], [s, nnp_p, "~~p", "~p"], "p")
    out = apply_or(p1, p2, parse("~p | p"))
    assert out == iseq(u, [], [s, nnp_p, "~~p"], "~p | p")


def test_apply_imp_in_regular():
    u = build_universe(parse("(p1 & p2) -> q"))
    prem = rseq(u, ["p1", "p2"], "q")
    out = apply_imp_in_regular(prem, u.goal)
    assert out == rseq(u, ["p1", "p2"], "(p1 & p2) -> q")

    u2 = build_universe(parse("p -> p"))
    with pytest.raises(NotApplicable):
        apply_imp_in_regular(rseq(u2, [], "p"), u2.goal)


def test_apply_imp_in_regular_scott(scott_u):
    prem = sequent_of_line(scott_u, SCOTT_LINES[11])
    out = apply_imp_in_regular(prem, parse(SCOTT))
    assert out == sequent_of_line(scott_u, SCOTT_LINES[12])


def test_apply_imp_in_irregular_minimal_shifts():
    u = build_universe(parse("(p & q) -> ((p | q) -> b)"))
    prem = iseq(u, [], ["p", "q"], "b")
    outs = apply_imp_in_irregular(prem, parse("(p | q) -> b"))
    assert {s.render() for s in outs} == {
        "p ; q -> p | q -> b",
        "q ; p -> p | q -> b",
    }
    # The full shift {p, q} is not minimal and must not appear.
    assert all((s.sigma.bit_count()) == 1 for s in outs)


# -- shift kernels against the subset enumeration --------------------------------

def _subsets(mask):
    """Every subset of ``mask`` by cardinality, then by sorted positions."""
    elems = list(iter_bits(mask))
    for k in range(1, len(elems) + 1):
        for combo in combinations(elems, k):
            yield sum(1 << i for i in combo)


def brute_minimal_shifts(u, sigma, theta, a):
    """Reference for ``minimal_shifts``: one closure call per subset of theta."""
    if not (u.closure(sigma | theta) >> a) & 1:
        return []
    if (u.closure(sigma) >> a) & 1:
        return [0]
    sols = []
    for lam in _subsets(theta):
        if all(sol & ~lam for sol in sols) and (u.closure(sigma | lam) >> a) & 1:
            sols.append(lam)
    return sols


def brute_maximal_avoiding(u, available, a, require=0):
    """Reference for ``maximal_avoiding``: one closure call per removal set."""
    if (u.closure(require) >> a) & 1:
        return []
    if not (u.closure(available) >> a) & 1:
        return [available]
    sols = []
    for r in _subsets(available & ~require):
        if all(sol & ~r for sol in sols) and not (u.closure(available & ~r) >> a) & 1:
            sols.append(r)
    return [available & ~r for r in sols]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5), st.randoms(use_true_random=False))
def test_shift_kernels_match_the_subset_enumeration(seed, nvars, rng):
    # The largest of four random goals, and mostly an antecedent as the
    # target, so that answers with several sets are common.
    u = build_universe(max(random_formulas(seed, nvars, 40, 4), key=lambda f: f.size))
    antecedents = sorted(set(u.ante.values()))
    a = (rng.choice(antecedents) if antecedents and rng.random() < 0.8
         else rng.randrange(u.n))
    slice_ = list(iter_bits(u.gbar))
    # Theta and the removable set stay within 12 positions of the slice, so
    # the reference makes at most 4096 closure calls.
    capped = rng.sample(slice_, min(12, len(slice_)))

    def sub(pool, density):
        return sum(1 << i for i in pool if rng.random() < density)

    theta = sub(capped, 0.85)
    sigma = sub(slice_, 0.5) & ~theta
    assert minimal_shifts(u, sigma, theta, a) == brute_minimal_shifts(u, sigma, theta, a)
    available = sub(capped, 0.85)
    require = sub(slice_, 0.3) if rng.random() < 0.5 else 0
    assert (maximal_avoiding(u, available, a, require)
            == brute_maximal_avoiding(u, available, a, require))


def test_shift_kernels_on_a_product_of_generators():
    # The antecedent's generators are the four pairs {p, q} x {r, s}.
    u = build_universe(parse("((p | q) & (r | s)) -> b"))
    a = u.position_of(parse("(p | q) & (r | s)"))
    p, q, r, s = (1 << u.position_of(parse(x)) for x in "pqrs")
    assert sorted(u.generators(a)) == sorted([p | r, p | s, q | r, q | s])
    everything = p | q | r | s
    assert minimal_shifts(u, 0, everything, a) == [p | r, p | s, q | r, q | s]
    assert minimal_shifts(u, p, q | r | s, a) == [r, s]
    assert maximal_avoiding(u, everything, a) == [r | s, p | q]
    assert maximal_avoiding(u, everything, a, require=p) == [p | q]
    assert maximal_avoiding(u, everything, a, require=p | r) == []
    # Removal sets {r} and then {p, q}: fewer elements first.
    assert maximal_avoiding(u, p | q | r, a) == [p | q, r]
    for sigma, theta in [(0, everything), (p, q | r | s), (q | s, p)]:
        assert (minimal_shifts(u, sigma, theta, a)
                == brute_minimal_shifts(u, sigma, theta, a))
    for require in (0, p, q | s, p | r):
        assert (maximal_avoiding(u, everything, a, require)
                == brute_maximal_avoiding(u, everything, a, require))


def test_apply_imp_in_irregular_scott(scott_u):
    outs = apply_imp_in_irregular(sequent_of_line(scott_u, SCOTT_LINES[1]),
                                  parse("~p"))
    assert outs == [sequent_of_line(scott_u, SCOTT_LINES[3])]
    # No shift can make the antecedent available from an empty left side.
    u2 = build_universe(parse("p -> (p -> b)"))
    prem = iseq(u2, [], [], "b")
    assert apply_imp_in_irregular(prem, parse("p -> b")) == []


def test_apply_imp_notin_maximal_sets():
    u = build_universe(parse("(p & q & (r -> p) & (p -> r)) -> ((p & q) -> b)"))
    prem = rseq(u, ["p", "q"], "b")
    outs = apply_imp_notin(prem, parse("(p & q) -> b"))
    assert {s.render() for s in outs} == {
        ". ; p, r -> p -> p & q -> b",
        ". ; q, r -> p -> p & q -> b",
    }


def test_apply_imp_notin_scott(scott_u):
    outs = apply_imp_notin(sequent_of_line(scott_u, SCOTT_LINES[5]), parse("~~p"))
    assert outs == [sequent_of_line(scott_u, SCOTT_LINES[7])]
    outs = apply_imp_notin(sequent_of_line(scott_u, SCOTT_LINES[6]), parse("~p"))
    assert outs == [sequent_of_line(scott_u, SCOTT_LINES[8])]


def test_malformed_implication_instances_are_rejected(scott_u):
    # An empty list means "no shift works" or "the antecedent is not
    # derivable"; a malformed instance raises instead.
    irr = sequent_of_line(scott_u, SCOTT_LINES[1])  # right side false
    reg = sequent_of_line(scott_u, SCOTT_LINES[5])  # right side false
    cases = [
        (apply_imp_in_irregular, reg, "~p", "must be irregular"),
        (apply_imp_notin, irr, "~p", "must be regular"),
        (apply_imp_in_irregular, irr, "~~p | ~p", "not an implication"),
        (apply_imp_notin, reg, "~~p | ~p", "not an implication"),
        (apply_imp_in_irregular, irr, "(~~p -> p) -> (~p | p)", "not a right subformula"),
        (apply_imp_notin, reg, "(~~p -> p) -> (~p | p)", "not a right subformula"),
        (apply_imp_in_irregular, irr, "~~p -> p", "not the consequent"),
        (apply_imp_notin, reg, "~~p -> p", "not the consequent"),
    ]
    for rule, prem, target, message in cases:
        with pytest.raises(NotApplicable, match=message):
            rule(prem, parse(target))
    # The left side ~p does not derive p: no conclusion, and no error.
    assert apply_imp_notin(reg, parse("~p")) == []


def test_apply_join_scott(scott_u):
    u = scott_u
    out = apply_join([sequent_of_line(u, SCOTT_LINES[4]),
                      sequent_of_line(u, SCOTT_LINES[8])], "at", parse("p"))
    assert out == sequent_of_line(u, SCOTT_LINES[9])
    out = apply_join([sequent_of_line(u, SCOTT_LINES[7]),
                      sequent_of_line(u, SCOTT_LINES[8]),
                      sequent_of_line(u, SCOTT_LINES[10])], "or", parse("~~p | ~p"))
    assert out == sequent_of_line(u, SCOTT_LINES[11])


def test_apply_join_kp(kp_u):
    u = kp_u
    out = apply_join([sequent_of_line(u, KP_LINES[7]),
                      sequent_of_line(u, KP_LINES[8]),
                      sequent_of_line(u, KP_LINES[9])], "or",
                     parse("(~a -> b) | (~a -> c)"))
    assert out == sequent_of_line(u, KP_LINES[10])


def test_apply_join_rejects_unsupported_stable_implication():
    u = build_universe(parse("((b -> x1) & (c -> x3)) -> b"))
    prem = iseq(u, ["b -> x1", "c -> x3"], [], "b")
    with pytest.raises(NotApplicable, match="unsupported"):
        apply_join([prem], "at", parse("b"))


def test_apply_join_single_premise(scott_u):
    # One premise whose right side is supported by a left implication.
    u = scott_u
    out = apply_join([sequent_of_line(u, SCOTT_LINES[2])], "at", parse("false"))
    assert out == sequent_of_line(u, SCOTT_LINES[5])
    out = apply_join([sequent_of_line(u, SCOTT_LINES[3])], "at", parse("false"))
    assert out == sequent_of_line(u, SCOTT_LINES[6])


def test_apply_join_target_restrictions(scott_u):
    u = scott_u
    # The target may not occur among the joined stable atoms.
    prem = sequent_of_line(u, SCOTT_LINES[3])  # stable part {p}
    with pytest.raises(NotApplicable):
        apply_join([prem], "at", parse("p"))
    # Falsum has no left implication, so it cannot be a joined right side.
    bot_axiom = sequent_of_line(u, SCOTT_LINES[1])
    with pytest.raises(NotApplicable, match="antecedent"):
        apply_join([bot_axiom], "at", parse("p"))


def test_apply_join_names_the_first_uncovered_pair():
    u = build_universe(parse("(a -> x) & (b -> y) & a & b -> x | y"))
    pa = iseq(u, ["a"], ["b"], "x")
    pb = iseq(u, ["b"], ["a"], "y")
    pc = iseq(u, [], ["a"], "x")  # covers pa, but its left side misses b
    assert JoinParts([pa, pb]).covered and not JoinParts([pa, pb, pc]).covered
    with pytest.raises(NotApplicable) as err:
        apply_join([pa, pb, pc], "or", parse("x | y"))
    assert str(err.value) == ("stable parts not pairwise covered "
                              f"({pb.render()} vs {pc.render()})")


# -- join parts: aggregate masks against the premise list -------------------------

class ReferenceJoinParts:
    """``JoinParts`` before the aggregate masks: every field is computed from
    the full premise list, and support by scanning the implications (the
    reference)."""

    def __init__(self, seqs):
        self.u = u = seqs[0].u
        self.ups = ups = frozenset(s.rhs for s in seqs)
        sig_at = sig_imp = 0
        th_at = th_imp = u.full_mask
        for s in seqs:
            sig_at |= s.sigma & u.var_mask
            sig_imp |= s.sigma & u.imp_mask
            th_at &= s.theta & u.var_mask
            th_imp &= s.theta & u.imp_mask
        self.sig_at = sig_at
        self.sig_imp = sig_imp
        self.th_at = th_at
        self.th_imp = 0
        for i in iter_bits(th_imp):
            if u.ante[i] in ups:
                self.th_imp |= 1 << i
        self.supported = all(u.ante[i] in ups for i in iter_bits(sig_imp))

    @property
    def up_mask(self):
        return sum(1 << y for y in self.ups)

    @property
    def sig(self):
        return self.sig_at | self.sig_imp

    def conclusions(self):
        """``(target, rule, left side)`` of each join of the premises: onto
        each prime outside the stable atoms when every right side is an
        antecedent on the left of the goal, then onto each disjunction of
        two right sides."""
        u = self.u
        joins = []
        if all((u.ps3_mask >> y) & 1 for y in self.ups):
            joins += [(t, JOIN_AT, self.sig_at | (self.th_at & ~(1 << t)) | self.sig_imp
                       | self.th_imp)
                      for t in u.prime_rhs if not (self.sig_at >> t) & 1]
        joins += [(t, JOIN_OR, self.sig_at | self.th_at | self.sig_imp | self.th_imp)
                  for t, c1, c2 in u.or_targets if c1 in self.ups and c2 in self.ups]
        return joins


def _join_fields(parts):
    """Everything the joins read of their parts: the right sides, the
    stable parts, support and every join the search fires."""
    return (parts.up_mask, parts.sig, parts.supported,
            list(parts.conclusions(parts.up_mask, parts.cover)))


def _reference_fields(ref):
    return ref.up_mask, ref.sig, ref.supported, ref.conclusions()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5), st.randoms(use_true_random=False))
def test_folded_join_parts_match_the_premise_list(seed, nvars, rng):
    # Right sides come from a few admissible ones, so that repeats are
    # common; sparse stable parts make coverage hold often enough.
    u = build_universe(max(random_formulas(seed, nvars, 40, 4), key=lambda f: f.size))
    slice_ = list(iter_bits(u.gbar))
    rights = rng.sample(sorted(iter_bits(u.ps4_mask & u.sfr)) or [u.goal_pos], k=1)
    rights += rng.sample(sorted(iter_bits(u.sfr)), k=min(2, u.sfr.bit_count()))
    density = rng.choice([0.0, 0.1, 0.3])

    def premise():
        theta = sum(1 << i for i in slice_ if rng.random() < 0.7)
        sigma = sum(1 << i for i in slice_ if rng.random() < density) & ~theta
        return irregular(u, sigma, theta, rng.choice(rights))

    seqs = [premise() for _ in range(rng.randint(2, 5))]
    whole = JoinParts(seqs)
    assert _join_fields(whole) == _reference_fields(ReferenceJoinParts(seqs))
    assert whole.covered == all(covers(p, q) for p in seqs for q in seqs)
    aggregates = ("up_mask", "sig", "meet", "theta", "cover")
    for i, extra in enumerate(seqs):
        rest = seqs[:i] + seqs[i + 1:]
        base = JoinParts(rest)
        folded = JoinParts([extra])
        folded.fold(base, extra)
        assert _join_fields(folded) == _join_fields(whole)
        assert ([getattr(folded, name) for name in aggregates]
                == [getattr(whole, name) for name in aggregates])
        assert base.admits(extra) == (
            extra.rhs not in {s.rhs for s in rest}
            and all(covers(m, extra) and covers(extra, m) for m in rest))


# -- subsumption ----------------------------------------------------------------

def test_subsumes_examples(valid_e_u):
    u = valid_e_u
    assert subsumes(rseq(u, ["p"], "q1"), rseq(u, ["p", "r1"], "q1"))
    assert not subsumes(iseq(u, ["p"], ["q1"], "r1"),
                        iseq(u, ["q2"], ["q1", "r2"], "r1"))
    s = iseq(u, ["p"], ["q1"], "r1")
    assert subsumes(s, s)
    # Differing right sides or shapes never subsume.
    assert not subsumes(rseq(u, ["p"], "q1"), rseq(u, ["p"], "q2"))
    assert not subsumes(rseq(u, ["p"], "q1"), iseq(u, ["p"], [], "q1"))


def _random_sequents(u, rng, count):
    out = []
    gbar_bits = [i for i in range(u.n) if (u.gbar >> i) & 1]
    rhs_bits = [i for i in range(u.n) if (u.sfr >> i) & 1]
    for _ in range(count):
        rhs = rng.choice(rhs_bits)
        picked = [i for i in gbar_bits if rng.random() < 0.5]
        if rng.random() < 0.5:
            out.append(regular(u, sum(1 << i for i in picked), rhs))
        else:
            half = [i for i in picked if rng.random() < 0.5]
            sigma = sum(1 << i for i in half)
            theta = sum(1 << i for i in picked) & ~sigma
            out.append(irregular(u, sigma, theta, rhs))
    return out


def test_subsumption_is_a_partial_order(valid_e_u):
    rng = random.Random(5)
    seqs = _random_sequents(valid_e_u, rng, 60)
    for s in seqs:
        assert subsumes(s, s)
    for a in seqs:
        for b in seqs:
            if subsumes(a, b) and subsumes(b, a):
                assert a == b
    for _ in range(500):
        a, b, c = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)


# -- weights ----------------------------------------------------------------------

def test_weight_examples():
    u = build_universe(parse("p"))
    assert weight(regular(u, 0, u.goal_pos)) == Weight(0, 0, 0)


def test_weight_irregular_axioms_have_type_bit(scott_u):
    for s in axioms(scott_u):
        if not s.regular:
            assert weight(s).type_bit == 1


def test_weight_strictly_decreases_along_scott_derivation(scott_u):
    u = scott_u
    line = {k: sequent_of_line(u, v) for k, v in SCOTT_LINES.items()}
    edges = [(1, 3), (2, 4), (2, 5), (3, 6), (5, 7), (6, 8), (4, 9), (8, 9),
             (9, 10), (7, 11), (8, 11), (10, 11), (11, 12)]
    for prem, concl in edges:
        assert weight(line[concl]) < weight(line[prem])
        assert weight(line[concl]) >= Weight(0, 0, 0)


# -- structural lemmas as property tests -------------------------------------------

def _stored_edges(outcome):
    store = outcome.db.store
    for nid, node in enumerate(store.nodes):
        for p in node.premises:
            yield store.nodes[p], node


def test_left_sides_shrink_except_under_imp_notin():
    for text in [SCOTT, "(~a -> (b | c)) -> ((~a -> b) | (~a -> c))",
                 "(p & (p -> q1 | q2) & (q1 -> r1 | r2) & (q2 -> r1 | r2)) -> r1 | r2"]:
        outcome = fsearch(parse(text))
        u = outcome.universe
        for prem, concl in _stored_edges(outcome):
            if concl.rule != "imp-notin":
                assert concl.seq.lhs & ~prem.seq.lhs == 0
            assert concl.seq.lhs & ~u.closure(prem.seq.lhs) == 0


def _enlarge(u, rng, s):
    """A random sequent subsuming ``s`` (more left material, same shape)."""
    extra = 0
    for i in range(u.n):
        if (u.gbar >> i) & 1 and rng.random() < 0.4:
            extra |= 1 << i
    if s.regular:
        return regular(u, s.gamma | extra, s.rhs)
    return irregular(u, s.sigma, s.theta | (extra & ~s.sigma), s.rhs)


def _apply_stored_rule(u, node, prems):
    """The conclusions of ``node``'s rule on ``prems``, as a list."""
    target = u.sf[node.seq.rhs]
    if node.rule == "and":
        return [apply_and(prems[0], target)]
    if node.rule == "or":
        return [apply_or(prems[0], prems[1], target)]
    if node.rule == "imp-in" and node.seq.regular:
        return [apply_imp_in_regular(prems[0], target)]
    if node.rule == "imp-in":
        return apply_imp_in_irregular(prems[0], target)
    if node.rule == "imp-notin":
        return apply_imp_notin(prems[0], target)
    return [apply_join(prems, "at" if node.rule == "join-at" else "or", target)]


def test_rule_applications_respect_subsumption(valid_e_u, scott_u, kp_u):
    # On the stored premises the rule gives back the stored conclusion (one
    # of several for the shift rules).  Replacing premises by subsuming
    # sequents keeps the rule applicable and the new conclusion subsumes the
    # old one.  Both for the search's derivations and for those rebuilt
    # from countermodels.
    rng = random.Random(9)
    extra = [build_universe(nishimura(8)),
             build_universe(parse("(a -> b & c) -> (a -> b) & ~~c | ~a"))]
    for u in [valid_e_u, scott_u, kp_u] + extra:
        outcome = fsearch(u)
        stores = [outcome.store]
        if outcome.is_proof:
            model = extract_model(outcome.store, outcome.root).model
            stores.append(derivation_from_model(model, u)[0])
        for store in stores:
            for node in store.nodes:
                prems = [store.nodes[p].seq for p in node.premises]
                if not prems:
                    continue
                outs = _apply_stored_rule(u, node, prems)
                if node.rule == "imp-notin" or (node.rule == "imp-in"
                                                and not node.seq.regular):
                    assert node.seq in outs
                else:
                    assert outs == [node.seq]
                bigger = [_enlarge(u, rng, p) for p in prems]
                outs = _apply_stored_rule(u, node, bigger)
                assert any(subsumes(node.seq, o) for o in outs)


def test_unprovable_context_sequent_never_appears():
    # With p and p -> (q1 | q2) both on the left, q1 | q2 cannot sit
    # unprovable on the right; saturation must never claim otherwise.
    g = parse("(p & (p -> q1 | q2)) -> (q1 | q2)")
    u = build_universe(g)
    outcome = fsearch(u)
    assert not outcome.is_proof
    needed = u.mask_of([parse("p"), parse("p -> q1 | q2")])
    target = u.position_of(parse("q1 | q2"))
    for nid in outcome.db.entries:
        s = outcome.db.store.nodes[nid].seq
        assert not (s.regular and s.rhs == target and needed & ~s.gamma == 0)
