"""Countermodels from derivations, and derivations from countermodels.

A regular sequent that is an axiom or a join conclusion acts as a world:
its left atoms are the valuation, and one world sits below another exactly
when the second was used to derive the first.  ``phi`` sends every regular
sequent of a derivation to the nearest world sequent above it; the
soundness audit replays the semantic reading of every regular sequent
(world forces the left side, refutes the right side) against the extracted
model.  Extraction reads the derivation in one pass, premises first, keeping
per node the worlds of its derivation as a bit mask.  The join depth of a
derivation, which equals the height of its extracted model, is the rank the
store assigned to its root (``search.DerivationStore``).

The reverse direction turns any verified countermodel into a derivation of
the goal whose join depth is bounded by the model height: worlds are
visited top-down by height, right sides by size, irregular sequents before
regular ones, and previously built sequents are reused whenever their
invariants still hold at the lower world.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (AND, IMP, OR, VAR, Formula, GoalUniverse, build_universe,
                      iter_bits)
from .kripke import KripkeModel, forces, heights, model_problems
from .rules import (JoinParts, Sequent, axiom, maximal_avoiding, minimal_shifts,
                    or_conclusion, retarget, shifted)
from .search import (AX_IRR, AX_REG, JOIN_AT, JOIN_OR, RULE_AND, RULE_IMP_IN,
                     RULE_IMP_NOTIN, RULE_OR, DerivationStore, StoreNode)


class NotARegularRoot(ValueError):
    pass


class NotACountermodel(ValueError):
    pass


def is_world_node(node: StoreNode) -> bool:
    return node.seq.regular and node.rule in (AX_REG, JOIN_AT, JOIN_OR)


@dataclass
class ExtractedModel:
    model: KripkeModel
    phi: dict[int, int]          # regular store node id -> world index
    world_nodes: tuple[int, ...]  # world index -> store node id


def extract_model(store: DerivationStore, root: int) -> ExtractedModel:
    """The Kripke model whose worlds are the world sequents of the stored
    derivation of ``root``, numbered by node id; one world sits below
    another iff the other occurs in its derivation.

    One pass over the derivation in ascending id order, which puts premises
    first, gives each node the bit mask of the worlds in its derivation, and
    each regular node its world: its own if it is a world sequent, else that
    of its first premise, the regular sequent it strips one conjunction or
    implication step from."""
    node = store.nodes[root]
    if not node.seq.regular:
        raise NotARegularRoot(node.seq.render())
    u = store.u
    worlds: dict[int, int] = {}
    phi: dict[int, int] = {}
    world_nodes, up, valuation = [], [], []
    for nid in sorted(store.ancestors(root)):
        node = store.nodes[nid]
        mask = 0
        for p in node.premises:
            mask |= worlds[p]
        if is_world_node(node):
            phi[nid] = w = len(world_nodes)
            mask |= 1 << w
            world_nodes.append(nid)
            up.append(mask)
            valuation.append(frozenset(
                u.sf[i].name for i in iter_bits(node.seq.lhs & u.var_mask)))
        elif node.seq.regular:
            phi[nid] = phi[node.premises[0]]
        worlds[nid] = mask
    world_nodes = tuple(world_nodes)
    model = KripkeModel(up, phi[root], valuation, labels=world_nodes)
    return ExtractedModel(model, phi, world_nodes)


def rank(store: DerivationStore, nid: int) -> int:
    """Join depth of the stored derivation of ``nid``, as the store assigned
    it: irregular axioms count -1, regular axioms 0, each join adds one on
    the deepest path."""
    return store.nodes[nid].rank


def find_soundness_violation(store: DerivationStore, root: int,
                             ) -> tuple[int, Formula] | None:
    """First (node id, formula) where the extracted model disagrees with a
    regular sequent: a left formula not forced, or the right side forced,
    at the sequent's world."""
    ex = extract_model(store, root)
    u = store.u
    cache: dict[tuple[int, int], bool] = {}
    for nid in sorted(ex.phi):
        seq = store.nodes[nid].seq
        w = ex.phi[nid]
        for i in iter_bits(seq.lhs):
            if not forces(ex.model, w, u.sf[i], cache):
                return (nid, u.sf[i])
        if forces(ex.model, w, u.sf[seq.rhs], cache):
            return (nid, u.sf[seq.rhs])
    return None


def soundness_audit(store: DerivationStore, root: int) -> bool:
    return find_soundness_violation(store, root) is None


def _world_masks(model: KripkeModel, u: GoalUniverse, world: int,
                 cache: dict | None = None) -> tuple[int, int, int]:
    cache = cache if cache is not None else {}
    lam = lam_star = omega = 0
    for i in iter_bits(u.sfl):
        f = u.sf[i]
        if forces(model, world, f, cache):
            lam |= 1 << i
            if f.kind == VAR or (f.kind == IMP
                                 and not forces(model, world, f.left, cache)):
                lam_star |= 1 << i
    for i in iter_bits(u.sfr):
        if not forces(model, world, u.sf[i], cache):
            omega |= 1 << i
    return lam, lam_star, omega


class _ModelToDerivation:
    def __init__(self, model: KripkeModel, u: GoalUniverse):
        self.model = model
        self.u = u
        self.store = DerivationStore(u)
        self.cache: dict[tuple[int, int], bool] = {}
        self.lam_star: dict[int, int] = {}
        self.omega: dict[int, int] = {}
        for w in model.worlds():
            _, star, om = _world_masks(model, u, w, self.cache)
            self.lam_star[w] = star
            self.omega[w] = om
        # (world, rhs) -> node id, plus per-rhs history for cross-world reuse.
        self.irr_of: dict[tuple[int, int], int] = {}
        self.reg_of: dict[tuple[int, int], int] = {}
        self.irr_hist: dict[int, list[tuple[int, int]]] = {}
        self.reg_hist: dict[int, list[tuple[int, int]]] = {}

    def _forces(self, w: int, f: Formula) -> bool:
        return forces(self.model, w, f, self.cache)

    def _pick_eta(self, w: int, ante: Formula, cons: Formula) -> int:
        """Lowest-id world above ``w`` forcing the antecedent, refuting the
        consequent, with no antecedent-forcing world strictly below it."""
        ups = list(iter_bits(self.model.up[w]))
        forcing = {v for v in ups if self._forces(v, ante)}
        for eta in ups:
            if eta not in forcing or self._forces(eta, cons):
                continue
            if any(d != eta and self.model.leq(d, eta) for d in forcing):
                continue
            return eta
        raise AssertionError("no witness world for a refuted implication")

    def build_irregular(self, w: int, c: int) -> int:
        star = self.lam_star[w]
        for w2, nid in self.irr_hist.get(c, ()):
            if self.model.leq(w, w2):
                seq = self.store.nodes[nid].seq
                if not (seq.sigma & ~star) and not (star & ~(seq.sigma | seq.theta)):
                    self.irr_of[(w, c)] = nid
                    return nid
        u = self.u
        f = u.sf[c]
        if (u.prime_mask >> c) & 1:
            nid = self.store.add(axiom(u, c, False), AX_IRR, (), 0)
        elif f.kind == OR:
            n1 = self.irr_of[(w, u.pos[f.left.id])]
            n2 = self.irr_of[(w, u.pos[f.right.id])]
            s1, s2 = self.store.nodes[n1].seq, self.store.nodes[n2].seq
            nid = self.store.add(or_conclusion(s1, s2, c), RULE_OR, (n1, n2), 0)
        elif f.kind == AND:
            k = u.pos[f.left.id] if not self._forces(w, f.left) else u.pos[f.right.id]
            prem = self.irr_of[(w, k)]
            nid = self.store.add(retarget(self.store.nodes[prem].seq, c), RULE_AND,
                                 (prem,), 0)
        else:  # implication
            a, b = u.pos[f.left.id], u.pos[f.right.id]
            eta = self._pick_eta(w, f.left, f.right)
            if eta == w:
                prem = self.irr_of[(w, b)]
                ps = self.store.nodes[prem].seq
                shifts = minimal_shifts(u, ps.sigma, star & ~ps.sigma, a)
                nid = self.store.add(shifted(ps, shifts[0], c), RULE_IMP_IN, (prem,), 0)
            else:
                prem = self.reg_of[(eta, b)]
                gamma = self.store.nodes[prem].seq.gamma
                thetas = maximal_avoiding(u, u.closure(gamma) & u.gbar, a, require=star)
                nid = self.store.add(Sequent(u, False, 0, 0, thetas[0], c),
                                     RULE_IMP_NOTIN, (prem,), 0)
        self.irr_of[(w, c)] = nid
        self.irr_hist.setdefault(c, []).append((w, nid))
        return nid

    def build_regular(self, w: int, c: int) -> int:
        for w2, nid in self.reg_hist.get(c, ()):
            if self.model.leq(w, w2):
                self.reg_of[(w, c)] = nid
                return nid
        u = self.u
        f = u.sf[c]
        star_imp = self.lam_star[w] & u.imp_mask
        if (u.prime_mask >> c) & 1:
            if not star_imp:
                nid = self.store.add(axiom(u, c, True), AX_REG, (), 0)
            else:
                ups = sorted({u.ante[i] for i in iter_bits(star_imp)})
                nid = self._join(w, ups, JOIN_AT, c)
        elif f.kind == OR:
            ups = {u.ante[i] for i in iter_bits(star_imp)}
            ups |= {u.pos[f.left.id], u.pos[f.right.id]}
            nid = self._join(w, sorted(ups), JOIN_OR, c)
        elif f.kind == AND:
            k = u.pos[f.left.id] if not self._forces(w, f.left) else u.pos[f.right.id]
            prem = self.reg_of[(w, k)]
            nid = self.store.add(retarget(self.store.nodes[prem].seq, c), RULE_AND, (prem,), 0)
        else:
            eta = self._pick_eta(w, f.left, f.right)
            prem = self.reg_of[(eta, u.pos[f.right.id])]
            nid = self.store.add(retarget(self.store.nodes[prem].seq, c), RULE_IMP_IN,
                                 (prem,), 0)
        self.reg_of[(w, c)] = nid
        self.reg_hist.setdefault(c, []).append((w, nid))
        return nid

    def _join(self, w: int, ups: list[int], flavor: str, c: int) -> int:
        prems = [self.irr_of[(w, y)] for y in ups]
        parts = JoinParts([self.store.nodes[p].seq for p in prems])
        gamma = parts.at_gamma(c) if flavor == JOIN_AT else parts.or_gamma()
        return self.store.add(Sequent(self.u, True, gamma, 0, 0, c), flavor, tuple(prems), 0)

    def run(self) -> int:
        hs = heights(self.model)
        order = sorted(self.model.worlds(), key=lambda w: (hs[w], w))
        u = self.u
        for w in order:
            targets = sorted(iter_bits(self.omega[w]),
                             key=lambda i: (u.sizes[i], i))
            for c in targets:
                self.build_irregular(w, c)
            for c in targets:
                self.build_regular(w, c)
        return self.reg_of[(self.model.root, u.goal_pos)]


def derivation_from_model(model: KripkeModel, goal: Formula | GoalUniverse,
                          ) -> tuple[DerivationStore, int]:
    """Build a goal derivation from a verified countermodel; its join depth
    (and hence the height of its own extracted model) is at most the height
    of the input model."""
    u = goal if isinstance(goal, GoalUniverse) else build_universe(goal)
    problems = model_problems(model, u.goal)
    if problems:
        raise NotACountermodel("; ".join(problems))
    builder = _ModelToDerivation(model, u)
    root = builder.run()
    return builder.store, root
