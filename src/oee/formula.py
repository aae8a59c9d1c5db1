"""Formula language: terms, parsing, printing, canonical enumeration, and
evaluation, per assignment (`evaluate`) or over a list of true-masks at once
as a bitmask (`event_mask`, the one formula-to-mask evaluator: agents decide
sentences and S5 validation checks schemes on its masks).

Grammar (EBNF), whitespace insignificant:

    formula := implies
    implies := or ("->" implies)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary
             | "K" INT unary
             | "C" "{" INT ("," INT)* "}" unary
             | "(" formula ")"
             | ATOM
    ATOM    := "p" INT

Precedence: ~ binds tightest, then &, then |, then -> (right-associative).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial, reduce


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    index: int


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Know(Formula):
    agent: int
    operand: Formula


@dataclass(frozen=True, slots=True)
class Common(Formula):
    agents: frozenset[int]
    operand: Formula

    def __post_init__(self):
        if not self.agents:
            raise ValueError("Common requires a nonempty agent set")
        object.__setattr__(self, "agents", frozenset(self.agents))


def render(f: Formula) -> str:
    """Canonical text; parse(render(f)) == f."""
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, Not):
        return "~" + render(f.operand)
    if isinstance(f, And):
        return f"({render(f.left)} & {render(f.right)})"
    if isinstance(f, Or):
        return f"({render(f.left)} | {render(f.right)})"
    if isinstance(f, Implies):
        return f"({render(f.left)} -> {render(f.right)})"
    if isinstance(f, Know):
        return f"K{f.agent} {render(f.operand)}"
    if isinstance(f, Common):
        ids = ",".join(str(a) for a in sorted(f.agents))
        return f"C{{{ids}}} {render(f.operand)}"
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> frozenset[int]:
    """Exact set of predicate indices occurring in f."""
    if isinstance(f, Atom):
        return frozenset((f.index,))
    if isinstance(f, (Not, Know, Common)):
        return atoms(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return atoms(f.left) | atoms(f.right)
    raise TypeError(f"not a formula: {f!r}")


def depth(f: Formula) -> int:
    """Nesting depth; atoms have depth 0."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Not, Know, Common)):
        return 1 + depth(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return 1 + max(depth(f.left), depth(f.right))
    raise TypeError(f"not a formula: {f!r}")


def is_propositional(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, (Know, Common)):
        return False
    if isinstance(f, Not):
        return is_propositional(f.operand)
    return is_propositional(f.left) and is_propositional(f.right)


def evaluate(f: Formula, lookup) -> bool:
    """Truth of a propositional formula under `lookup: index -> bool`."""
    if isinstance(f, Atom):
        return lookup(f.index)
    if isinstance(f, Not):
        return not evaluate(f.operand, lookup)
    if isinstance(f, And):
        return evaluate(f.left, lookup) and evaluate(f.right, lookup)
    if isinstance(f, Or):
        return evaluate(f.left, lookup) or evaluate(f.right, lookup)
    if isinstance(f, Implies):
        return (not evaluate(f.left, lookup)) or evaluate(f.right, lookup)
    raise ValueError(f"cannot evaluate epistemic operator without a frame: {render(f)}")


def event_mask(f: Formula, states, full: int, masks: dict) -> int:
    """Bitmask of the assignments where the propositional formula f holds:
    bit k for the true-mask `states[k]`, whose domain must hold every atom;
    `full` has one bit per state.  `masks` memoises by object identity:
    enumerated formulas share their subformulas, and the caller keeps every
    formula alive for the memo's lifetime, so no formula is hashed."""
    out = masks.get(id(f))
    if out is not None:
        return out
    if isinstance(f, Atom):
        out = 0
        for k, w in enumerate(states):
            if w >> f.index & 1:
                out |= 1 << k
    elif isinstance(f, Not):
        out = full & ~event_mask(f.operand, states, full, masks)
    elif isinstance(f, And):
        out = event_mask(f.left, states, full, masks) & \
            event_mask(f.right, states, full, masks)
    elif isinstance(f, Or):
        out = event_mask(f.left, states, full, masks) | \
            event_mask(f.right, states, full, masks)
    elif isinstance(f, Implies):
        out = (full & ~event_mask(f.left, states, full, masks)) | \
            event_mask(f.right, states, full, masks)
    else:
        raise TypeError(f"not a propositional formula: {f!r}")
    masks[id(f)] = out
    return out


class ParseError(ValueError):
    """Malformed formula text."""

    def __init__(self, offset: int, expected: list[str], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {offset}: expected {' or '.join(expected)}, found {found}"
        )


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", None, i))
            i += 2
            continue
        if ch in "~&|(){},":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch == "C":
            tokens.append(("common", None, i))
            i += 1
            continue
        if ch in "pK" or ch.isdecimal():
            j = start = i + (ch in "pK")
            while j < n and text[j].isdecimal():
                j += 1
            if j == start:
                raise ParseError(start, ["digit"], repr(text[start : start + 1] or "end of input"))
            try:
                value = int(text[start:j])
            except ValueError:  # more digits than Python converts
                raise ParseError(start, [f"at most {sys.get_int_max_str_digits():,} digits"],
                                 f"{j - start:,} digits") from None
            tokens.append(("atom" if ch == "p" else "know" if ch == "K" else "int", value, i))
            i = j
            continue
        raise ParseError(i, ["formula token"], repr(ch))
    tokens.append(("end", None, n))
    return tokens


# Bounds the parser's recursion (a level per "(", "~", "K" or "C", up to 5 frames
# each) and the depth of the tree every formula function recurses over.
MAX_FORMULA_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (formula, tree depth)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(tok[2], [kind], self._describe(tok))
        self.pos += 1
        return tok

    @staticmethod
    def _describe(tok) -> str:
        return "end of input" if tok[0] == "end" else repr(tok[0])

    def bounded(self, d: int) -> int:
        if d > MAX_FORMULA_DEPTH:
            raise ParseError(self.peek()[2], [f"nesting at most {MAX_FORMULA_DEPTH} deep"],
                             "a deeper formula")
        return d

    def node(self, make, *parts):
        return make(*(f for f, _ in parts)), self.bounded(1 + max(d for _, d in parts))

    # the binary operators, loosest first; "->" folds to the right, the others left
    _LEVELS = (("->", Implies), ("|", Or), ("&", And))

    def binary(self, level: int = 0):
        """The operands of one precedence level, parsed by a loop, so that a long
        chain deepens the tree, not the parser's recursion."""
        if level == len(self._LEVELS):
            return self.unary()
        kind, make = self._LEVELS[level]
        parts = [self.binary(level + 1)]
        while self.peek()[0] == kind:
            self.take(kind)
            parts.append(self.binary(level + 1))
        if kind == "->":
            return reduce(lambda right, left: self.node(make, left, right), reversed(parts))
        return reduce(lambda left, right: self.node(make, left, right), parts)

    def unary(self):
        kind, value, offset = self.peek()
        if kind == "atom":
            self.take("atom")
            return Atom(value), 0
        if kind not in ("~", "know", "common", "("):
            raise ParseError(offset, ["~", "K<id>", "C{..}", "(", "atom"], self._describe(self.peek()))
        self.nesting = self.bounded(self.nesting + 1)
        self.take(kind)
        if kind == "(":
            out = self.binary()
            self.take(")")
        elif kind == "~":
            out = self.node(Not, self.unary())
        elif kind == "know":
            out = self.node(partial(Know, value), self.unary())
        else:
            self.take("{")
            ids = [self.take("int")[1]]
            while self.peek()[0] == ",":
                self.take(",")
                ids.append(self.take("int")[1])
            self.take("}")
            out = self.node(partial(Common, frozenset(ids)), self.unary())
        self.nesting -= 1
        return out


def parse(text: str) -> Formula:
    """Parse canonical or free-form formula text; ParseError past MAX_FORMULA_DEPTH."""
    parser = _Parser(_tokenize(text))
    f, _ = parser.binary()
    parser.take("end")
    return f


# compare_strategies took 11.8 s on the 307,530 sentences of depth 2 over 10
# predicates; |S_3| over 2 predicates is 1,854,176
MAX_SENTENCES = 1_000_000


def sentence_count(n: int, depth: int, limit: int) -> int:
    """|S_depth| over n predicates by the recurrence S_d = n + |S_{d-1}| +
    3 |S_{d-1}|^2, or the first level's count past `limit`, so that the
    integers stay small."""
    count = n
    for _ in range(depth):
        if count > limit:
            break
        count = n + count + 3 * count * count
    return count


def enumerate_sentences(predicates, max_depth: int) -> list[Formula]:
    """All propositional formulas over `predicates` with nesting depth <= max_depth,
    built by the recurrence S_d = S_0 + Not(S_{d-1}) + {And, Or, Implies}(S_{d-1}^2).

    Deterministic order: (depth, rendered length, rendered text).  The list for
    depth d is a prefix of the list for depth d+1.  More than MAX_SENTENCES
    formulas raise ValueError before any is built.
    """
    preds = frozenset(predicates)
    if not preds:
        raise ValueError("predicate set must be nonempty")
    if max_depth < 0:
        raise ValueError("depth must be >= 0")
    if sentence_count(len(preds), max_depth, MAX_SENTENCES) > MAX_SENTENCES:
        raise ValueError(f"depth {max_depth} over {len(preds)} predicates enumerates more "
                         f"than the limit of {MAX_SENTENCES:,} sentences")
    level = base = [Atom(p) for p in sorted(preds)]
    for _ in range(max_depth):
        level = base + [Not(f) for f in level] + [
            op(f, g) for f in level for g in level for op in (And, Or, Implies)
        ]
    # the parts are disjoint and rendered texts distinct: no formula is hashed or compared
    decorated = sorted((depth(f), len(r), r, f) for f in level for r in (render(f),))
    return [item[3] for item in decorated]
