"""Propositional formulas, parsing, and per-goal subformula machinery.

Formulas are hash-consed: the interner guarantees that structurally equal
formulas share one node and one dense integer id, so equality is identity
and formulas can be used as dict keys everywhere.  Negation is not a
connective; ``~A`` is stored as ``A -> false``.

A :class:`GoalUniverse` freezes everything the provers need about one goal
formula: its subformulas in a deterministic bottom-up order, the left/right
subformula masks, the atom and implication slices of the left subformulas,
and a cached closure operator with its minimal generators.  All sets of
subformulas are bit vectors (plain ints) indexed by position in that order,
at API boundaries too: :func:`iter_bits` lists the positions of a set and
:meth:`GoalUniverse.render_mask` prints it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

VAR, BOT, AND, OR, IMP = range(5)

_KIND_NAMES = ("var", "bot", "and", "or", "imp")


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of ``masks``, fewest bits first."""
    out: list[int] = []    # kept masks with fewer bits than the current one
    same: list[int] = []   # kept masks with as many bits
    for m in sorted(set(masks), key=int.bit_count):
        if same and same[-1].bit_count() < m.bit_count():
            out += same
            same = []
        if all(k & ~m for k in out):
            same.append(m)
    return out + same


class Formula:
    """One interned formula node.  Never construct directly; use an Interner."""

    __slots__ = ("kind", "name", "left", "right", "id", "size", "height")

    def __init__(self, kind: int, name: str | None, left: "Formula | None",
                 right: "Formula | None", fid: int):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.id = fid
        if kind in (VAR, BOT):
            self.size = 1
            self.height = 0
        else:
            self.size = left.size + right.size + 1  # type: ignore[union-attr]
            self.height = max(left.height, right.height) + 1  # type: ignore[union-attr]

    def __repr__(self) -> str:
        return f"Formula({to_text(self)})"

    def __str__(self) -> str:
        return to_text(self)

    @property
    def is_negation(self) -> bool:
        return self.kind == IMP and self.right.kind == BOT


class Interner:
    """Hash-consing constructor for formulas.

    Built single-threaded; after that every Formula is immutable and can be
    shared freely.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Formula] = {}
        self._next_id = 0

    def _make(self, kind: int, name: str | None, left: Formula | None,
              right: Formula | None) -> Formula:
        key = (kind, name, left.id if left else -1, right.id if right else -1)
        f = self._table.get(key)
        if f is None:
            f = Formula(kind, name, left, right, self._next_id)
            self._next_id += 1
            self._table[key] = f
        return f

    def var(self, name: str) -> Formula:
        return self._make(VAR, name, None, None)

    def bot(self) -> Formula:
        return self._make(BOT, None, None, None)

    def conj(self, a: Formula, b: Formula) -> Formula:
        return self._make(AND, None, a, b)

    def disj(self, a: Formula, b: Formula) -> Formula:
        return self._make(OR, None, a, b)

    def imp(self, a: Formula, b: Formula) -> Formula:
        return self._make(IMP, None, a, b)

    def neg(self, a: Formula) -> Formula:
        return self.imp(a, self.bot())


#: Default process-wide interner.  Goal universes index subformulas by their
#: own bottom-up traversal order, so sharing the interner across goals is safe.
INTERNER = Interner()

var = INTERNER.var
bot = INTERNER.bot
conj = INTERNER.conj
disj = INTERNER.disj
imp = INTERNER.imp
neg = INTERNER.neg


# ---------------------------------------------------------------------------
# Grammar:  atom = [a-z][A-Za-z0-9_]* ; falsum = "false" | "#" ;
#           "~" > "&" > "|" > "->" (right-assoc); parentheses allowed.
# ---------------------------------------------------------------------------

#: The greatest height of a formula the parser builds (a left-deep chain of
#: n operands has height n - 1, and so do n - 1 negations of an atom), and
#: the deepest nesting of parentheses it accepts: only parentheses make the
#: parser recurse.  Together they keep the parser and every recursive pass
#: over a parsed formula well inside Python's default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


_TWO_CHAR = {"->"}
_ONE_CHAR = {"~", "&", "|", "(", ")", "#"}
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _NAME_START | frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            toks.append(("op", text[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            toks.append(("op", c, line, col))
            i += 1
            col += 1
            continue
        if c in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            word = text[i:j]
            toks.append(("name", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, interner: Interner):
        self.toks = _tokenize(text)
        self.pos = 0
        self.intern = interner
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", line, col)

    def parse(self) -> Formula:
        f = self.imp_expr()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", line, col)
        return f

    def capped(self, f: Formula, line: int, col: int) -> Formula:
        """``f``, built by the operator at ``line``, ``col``; higher than
        MAX_NESTING is a ParseError there."""
        if f.height > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", line, col)
        return f

    def imp_expr(self) -> Formula:
        operands = [self.or_expr()]
        arrows = []
        while self.peek()[1] == "->":
            arrows.append(self.next())
            operands.append(self.or_expr())
        f = operands.pop()
        while arrows:  # right-associative: fold from the innermost arrow out
            _kind, _val, line, col = arrows.pop()
            f = self.capped(self.intern.imp(operands.pop(), f), line, col)
        return f

    def chain(self, op: str, build, parse_operand) -> Formula:
        """A left-deep chain of ``op``."""
        f = parse_operand()
        while self.peek()[1] == op:
            _kind, _val, line, col = self.next()
            f = self.capped(build(f, parse_operand()), line, col)
        return f

    def or_expr(self) -> Formula:
        return self.chain("|", self.intern.disj, self.and_expr)

    def and_expr(self) -> Formula:
        return self.chain("&", self.intern.conj, self.unary)

    def unary(self) -> Formula:
        negations = []
        while self.peek()[1] == "~":
            negations.append(self.next())
        f = self.atom()
        while negations:
            _kind, _val, line, col = negations.pop()
            f = self.capped(self.intern.neg(f), line, col)
        return f

    def atom(self) -> Formula:
        kind, val, line, col = self.next()
        if val == "(":
            if self.depth == MAX_NESTING:
                _kind, _val, line, col = self.peek()
                raise ParseError(f"formula nested deeper than {MAX_NESTING} levels",
                                 line, col)
            self.depth += 1
            f = self.imp_expr()
            self.depth -= 1
            self.expect(")")
            return f
        if val == "#" or kind == "name" and val == "false":
            return self.intern.bot()
        if kind == "name":
            return self.intern.var(val)
        raise ParseError(f"expected a formula, found {val or 'end of input'!r}", line, col)


def parse(text: str, interner: Interner = INTERNER) -> Formula:
    """Parse ``text`` into an interned formula."""
    return _Parser(text, interner).parse()


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(f: Formula) -> int:
    if f.kind in (VAR, BOT):
        return _PREC_ATOM
    if f.kind == AND:
        return _PREC_AND
    if f.kind == OR:
        return _PREC_OR
    return _PREC_NEG if f.is_negation else _PREC_IMP


def _wrap(f: Formula, need: int) -> str:
    s = to_text(f)
    return f"({s})" if _prec(f) < need else s


def to_text(f: Formula) -> str:
    """Render in the input grammar; parse(to_text(f)) is f again."""
    if f.kind == VAR:
        return f.name  # type: ignore[return-value]
    if f.kind == BOT:
        return "false"
    if f.is_negation:
        return "~" + _wrap(f.left, _PREC_NEG)
    if f.kind == AND:
        return f"{_wrap(f.left, _PREC_AND)} & {_wrap(f.right, _PREC_AND + 1)}"
    if f.kind == OR:
        return f"{_wrap(f.left, _PREC_OR)} | {_wrap(f.right, _PREC_OR + 1)}"
    return f"{_wrap(f.left, _PREC_IMP + 1)} -> {to_text(f.right)}"


_TEX_SYMBOLS = {"&": "\\land", "|": "\\lor", "->": "\\to", "~": "\\neg ", "false": "\\bot",
                "_": "\\_"}
_TEX_TOKEN = r"->|[&|~_]|\bfalse\b"


def to_tex(f: Formula) -> str:
    """``to_text(f)`` as LaTeX math: each connective and ``false`` becomes
    its symbol, and ``_`` in an atom name is escaped."""
    return re.sub(_TEX_TOKEN, lambda m: _TEX_SYMBOLS[m.group()], to_text(f))


# ---------------------------------------------------------------------------
# Goal universes
# ---------------------------------------------------------------------------

def _postorder(goal: Formula) -> tuple[Formula, ...]:
    """All subformulas, children strictly before parents, first-visit order."""
    seen: set[int] = set()
    out: list[Formula] = []

    def visit(f: Formula) -> None:
        if f.id in seen:
            return
        if f.left is not None:
            visit(f.left)
            visit(f.right)
        if f.id not in seen:
            seen.add(f.id)
            out.append(f)

    visit(goal)
    return tuple(out)


class GoalUniverse:
    """All per-goal precomputation: subformula order, polarity masks, closure.

    Positions are indices into ``sf`` (children before parents), so one
    bottom-up pass decides closure membership and set dumps are reproducible
    across runs regardless of interner history.
    """

    def __init__(self, goal: Formula):
        self.goal = goal
        self.sf = _postorder(goal)
        self.n = len(self.sf)
        self.pos = {f.id: i for i, f in enumerate(self.sf)}
        self.goal_pos = self.pos[goal.id]
        self.goal_size = goal.size
        self.full_mask = (1 << self.n) - 1

        self.var_mask = 0
        self.bot_pos = -1
        for i, f in enumerate(self.sf):
            if f.kind == VAR:
                self.var_mask |= 1 << i
            elif f.kind == BOT:
                self.bot_pos = i
        self.prime_mask = self.var_mask | (1 << self.bot_pos if self.bot_pos >= 0 else 0)

        self.sfl, self.sfr = self._polarities()
        self.gat = self.sfl & self.var_mask
        imp_mask = 0
        for i, f in enumerate(self.sf):
            if f.kind == IMP:
                imp_mask |= 1 << i
        self.imp_mask = imp_mask
        self.gimp = self.sfl & imp_mask
        self.gbar = self.gat | self.gimp

        # Rule targets, all restricted to right subformulas, and the
        # connectives in closure order.  ``or_partners`` gives, per disjunct,
        # each disjunction target in ``or_targets`` order with the other
        # disjunct and whether the key is the left one.
        self.and_targets: dict[int, tuple[int, ...]] = {}
        self.or_targets: list[tuple[int, int, int]] = []
        self.imp_targets: dict[int, tuple[int, ...]] = {}
        self.ante: dict[int, int] = {}
        and_t: dict[int, list[int]] = {}
        or_t: dict[int, list[tuple[int, int, bool]]] = {}
        imp_t: dict[int, list[tuple[int, int]]] = {}
        connectives = []
        for i, f in enumerate(self.sf):
            if f.kind in (VAR, BOT):
                continue
            lp, rp = self.pos[f.left.id], self.pos[f.right.id]
            connectives.append((1 << i, f.kind, 1 << lp, 1 << rp))
            if f.kind == IMP:
                self.ante[i] = lp
            if not (self.sfr >> i) & 1:
                continue
            if f.kind == AND:
                and_t.setdefault(lp, []).append(i)
                if rp != lp:
                    and_t.setdefault(rp, []).append(i)
            elif f.kind == OR:
                self.or_targets.append((i, lp, rp))
                or_t.setdefault(lp, []).append((i, rp, True))
                or_t.setdefault(rp, []).append((i, lp, False))
            else:
                imp_t.setdefault(rp, []).append((i, lp))
        self._connectives = tuple(connectives)
        self.and_targets = {k: tuple(v) for k, v in and_t.items()}
        self.or_partners = {k: tuple(v) for k, v in or_t.items()}
        self.imp_targets = {k: tuple(v) for k, v in imp_t.items()}

        # Implications by antecedent, for the join parts' support masks.
        self.imps_by_ante: dict[int, int] = {}
        for i, a in self.ante.items():
            self.imps_by_ante[a] = self.imps_by_ante.get(a, 0) | 1 << i

        # Join admissibility: rhs values usable as premises of a join.
        ps3 = 0
        for i in iter_bits(self.gimp):
            ps3 |= 1 << self.ante[i]
        ps4 = ps3
        for _, lp, rp in self.or_targets:
            ps4 |= (1 << lp) | (1 << rp)
        self.ps3_mask = ps3
        self.ps4_mask = ps4

        self.prime_rhs = tuple(i for i in range(self.n)
                               if (self.prime_mask >> i) & 1 and (self.sfr >> i) & 1)
        self.sizes = tuple(f.size for f in self.sf)
        self._closure_cache: dict[int, int] = {}
        self._generators: dict[int, tuple[int, ...]] = {}

    def _polarities(self) -> tuple[int, int]:
        sfl = sfr = 0
        work = [(self.goal_pos, False)]  # (position, is_left_side)
        while work:
            i, left = work.pop()
            bit = 1 << i
            if left:
                if sfl & bit:
                    continue
                sfl |= bit
            else:
                if sfr & bit:
                    continue
                sfr |= bit
            f = self.sf[i]
            if f.kind in (AND, OR):
                work.append((self.pos[f.left.id], left))
                work.append((self.pos[f.right.id], left))
            elif f.kind == IMP:
                work.append((self.pos[f.right.id], left))
                work.append((self.pos[f.left.id], not left))
        return sfl, sfr

    def position_of(self, f: Formula) -> int:
        try:
            return self.pos[f.id]
        except KeyError:
            raise KeyError(f"{to_text(f)} is not a subformula of the goal") from None

    def mask_of(self, formulas: Iterable[Formula]) -> int:
        m = 0
        for f in formulas:
            m |= 1 << self.position_of(f)
        return m

    def closure(self, mask: int) -> int:
        """Closure membership restricted to the goal's subformulas.

        A subformula is in the closure of ``mask`` iff it is in ``mask``, or
        it is a conjunction with both conjuncts in, a disjunction with one
        disjunct in, or an implication with its consequent in.  Children
        precede parents in ``sf``, so one pass over ``_connectives`` (each
        connective's bit, kind and operand bits, built once per universe)
        reaches the fixpoint.  Memoised per mask.
        """
        cached = self._closure_cache.get(mask)
        if cached is not None:
            return cached
        cl = mask & self.full_mask
        for bit, kind, left, right in self._connectives:
            if kind == AND:
                if cl & left and cl & right:
                    cl |= bit
            elif cl & right or kind == OR and cl & left:  # IMP needs its right
                cl |= bit
        self._closure_cache[mask] = cl
        return cl

    def generators(self, a: int) -> tuple[int, ...]:
        """The minimal generators of position ``a``: the inclusion-minimal
        masks g inside ``gbar`` with a in closure(g), fewest elements first.

        ``closure`` is monotone, so for every m inside ``gbar`` (where all
        left sides live), a is in closure(m) iff some generator is a subset
        of m: the generators are the monotone DNF of membership, whose
        minimal transversals (Berge; Eiter and Gottlob, SIAM J. Comput. 1995)
        are the minimal ways to keep a out.  Built bottom-up and memoised
        per position: {a} itself if a is in ``gbar``, the pairwise unions of
        the conjuncts' generators, the union of the disjuncts' generators,
        the consequent's generators.  Sets leaving ``gbar`` are never built,
        which keeps a conjunction of k atom disjunctions at 2^k generators
        instead of about 3^k.
        """
        gens = self._generators.get(a)
        if gens is not None:
            return gens
        f = self.sf[a]
        cands = {1 << a} if (self.gbar >> a) & 1 else set()
        if f.kind == AND:
            right = self.generators(self.pos[f.right.id])
            cands.update(x | y for x in self.generators(self.pos[f.left.id])
                         for y in right)
        elif f.kind == OR:
            cands.update(self.generators(self.pos[f.left.id]))
            cands.update(self.generators(self.pos[f.right.id]))
        elif f.kind == IMP:
            cands.update(self.generators(self.pos[f.right.id]))
        gens = self._generators[a] = tuple(minimal_masks(cands))
        return gens

    def closure_count(self, mask: int) -> int:
        """|closure(mask) restricted to left subformulas|, the weight head."""
        return (self.closure(mask) & self.sfl).bit_count()

    def render_mask(self, mask: int, empty: str = ".", render=to_text) -> str:
        if not mask:
            return empty
        return ", ".join(render(self.sf[i]) for i in iter_bits(mask))


def build_universe(goal: Formula) -> GoalUniverse:
    return GoalUniverse(goal)
