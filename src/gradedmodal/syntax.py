"""Abstract syntax, concrete grammar, and gradations for graded modal logic.

Grammar (whitespace insensitive, parentheses required around binary
connectives)::

    f ::= "true" | "false" | IDENT
        | "!" f
        | "(" f "&" f ")" | "(" f "|" f ")"
        | "<" IDENT ":" INT ">" f        -- at least INT successors satisfy f
        | "[" IDENT ":" INT "]" f        -- box; parser sugar, see below

    IDENT = [A-Za-z][A-Za-z0-9_]*
    INT   = [0-9]+

``[a:k] f`` desugars to ``!<a:k> !f``; the core AST and the printer know
only the diamond form, so depth/rank/model-checking definitions stay
single-sourced.  Grades start at 1.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from string import ascii_letters, digits

from .errors import ParseError

# Every live formula node, keyed by its class and its fields.  Children in a
# key compare by identity, which is structural equality because they are
# interned too.  The values are weak: a node leaves the table once nothing
# else holds it.
_TABLE: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()
_NO_NAMES: frozenset[str] = frozenset()
_set = object.__setattr__


class Formula:
    """Base class for graded modal formulas.

    Nodes are hash-consed: constructing a formula equal to a live one returns
    that same object, so ``==`` is identity and shared subformulas are shared
    objects.  Every node caches its modal ``depth``, its counting ``rank``
    and the ``props`` and ``agents`` occurring in it.  The intern table takes
    no lock, so formulas are built from one thread at a time.
    """

    __slots__ = ("depth", "rank", "props", "agents", "__weakref__")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


def _new(cls, key: tuple, values: tuple, depth: int, rank: int, props, agents) -> Formula:
    node = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        _set(node, name, value)
    _set(node, "depth", depth)
    _set(node, "rank", rank)
    _set(node, "props", props)
    _set(node, "agents", agents)
    _TABLE[key] = node
    return node


def _require_formula(value) -> None:
    if not isinstance(value, Formula):
        raise TypeError(f"not a formula: {value!r}")


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


def _leaf(cls) -> Formula:
    key = (cls,)
    node = _TABLE.get(key)
    return node if node is not None else _new(cls, key, (), 0, 0, _NO_NAMES, _NO_NAMES)


def _binary(cls, left: Formula, right: Formula) -> Formula:
    key = (cls, left, right)
    node = _TABLE.get(key)
    if node is None:
        _require_formula(left)
        _require_formula(right)
        node = _new(cls, key, (left, right), max(left.depth, right.depth), max(left.rank, right.rank),
                    _union(left.props, right.props), _union(left.agents, right.agents))
    return node


@dataclass(frozen=True, eq=False, init=False)
class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls)


@dataclass(frozen=True, eq=False, init=False)
class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls)


@dataclass(frozen=True, eq=False, init=False)
class Prop(Formula):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str):
        key = (cls, name)
        node = _TABLE.get(key)
        return node if node is not None else _new(cls, key, (name,), 0, 0, frozenset((name,)), _NO_NAMES)


@dataclass(frozen=True, eq=False, init=False)
class Not(Formula):
    __slots__ = ("child",)
    child: Formula

    def __new__(cls, child: Formula):
        key = (cls, child)
        node = _TABLE.get(key)
        if node is None:
            _require_formula(child)
            node = _new(cls, key, (child,), child.depth, child.rank, child.props, child.agents)
        return node


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula):
        return _binary(cls, left, right)


@dataclass(frozen=True, eq=False, init=False)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula):
        return _binary(cls, left, right)


@dataclass(frozen=True, eq=False, init=False)
class Diamond(Formula):
    """At least ``grade`` distinct ``agent``-successors satisfy ``child``."""

    __slots__ = ("agent", "grade", "child")
    agent: str
    grade: int
    child: Formula

    def __new__(cls, agent: str, grade: int, child: Formula):
        key = (cls, agent, grade, child)
        node = _TABLE.get(key)
        if node is None:
            if grade < 1:
                raise ValueError(f"grade must be at least 1, got {grade}")
            _require_formula(child)
            agents = child.agents if agent in child.agents else child.agents | {agent}
            node = _new(cls, key, (agent, grade, child), child.depth + 1, max(grade, child.rank),
                        child.props, agents)
        return node


TOP = Top()
BOT = Bot()


def _children(formula: Formula) -> tuple[Formula, ...]:
    kind = type(formula)
    if kind is And or kind is Or:
        return formula.left, formula.right
    if kind is Not or kind is Diamond:
        return (formula.child,)
    return ()


def box(agent: str, grade: int, child: Formula) -> Formula:
    """The dual modality, in its desugared core form."""
    return Not(Diamond(agent, grade, Not(child)))


def and_all(formulas: list[Formula]) -> Formula:
    """Left-nested conjunction; empty input yields ``true``."""
    if not formulas:
        return TOP
    acc = formulas[0]
    for f in formulas[1:]:
        acc = And(acc, f)
    return acc


def or_all(formulas: list[Formula]) -> Formula:
    """Left-nested disjunction; empty input yields ``false``."""
    if not formulas:
        return BOT
    acc = formulas[0]
    for f in formulas[1:]:
        acc = Or(acc, f)
    return acc


# Group-free, so ``findall`` returns the token strings; the last alternative
# catches any other character.  A token's kind is its first character's:
# an ASCII letter starts a name, an ASCII digit a grade, and anything else
# is punctuation or, outside ``_STARTS``, a bad character.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|[()&|!<>:\[\]]|\S")
_STARTS = ascii_letters + digits + "()&|!<>:[]"


def _parse_error(pattern: "re.Pattern[str]", text: str, message: str, index: int) -> ParseError:
    """The error at the ``index``-th token of ``text``, or past its end;
    the column costs a second scan, made only here."""
    match = next(islice(pattern.finditer(text), index, None), None)
    return ParseError(message, column=len(text) + 1 if match is None else match.start() + 1)


def _tokens(pattern: "re.Pattern[str]", starts: str, text: str) -> list[str]:
    """The token strings of ``text``; a token that does not start with one
    of ``starts`` is reported as an unexpected character at its column."""
    tokens = pattern.findall(text)
    bad = [token for token in set(tokens) if token[0] not in starts]
    if bad:
        index = min(map(tokens.index, bad))
        raise _parse_error(pattern, text, f"unexpected character {tokens[index]!r}", index)
    return tokens


# The token scanner: white space, then one token, its text in group 1.  It
# fails at the end of the text and at a bad character.
_token_at = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[0-9]+|[()&|!<>:\[\]])").match
_opening_at = re.compile(r"\(*").match
_KEY = 24


def parse_formula(text: str) -> Formula:
    """Parse the grammar above, building each distinct subformula once.

    The text of each distinct compound subformula is scanned once; a later
    copy of its characters costs one comparison of them.  A copy spaced
    differently is parsed again, and so is a compound whose text ends in a
    name.  The parser recurses once per nesting level.
    """
    scan = _token_at
    names = {"true": TOP, "false": BOT}
    spans: dict = {}
    pos = opened = 0

    def fail(message: str, at: int):
        """Report a bad character, else the token at or after position ``at``."""
        _tokens(_TOKEN, _STARTS, text)
        raise ParseError(message, column=len(text) - len(text[at:].lstrip()) + 1)

    def take(starts: str, what: str = "") -> str:
        """The next token; it must start with one of ``starts``."""
        nonlocal pos
        match = scan(text, pos) or fail("unexpected end of input", len(text))
        token, pos = match[1], match.end()
        if token[0] not in starts:
            fail(f"expected {what or repr(starts)}, got {token!r}", pos)
        return token

    def formula() -> Formula:
        nonlocal pos, opened
        match = scan(text, pos) or fail("unexpected end of input", len(text))
        token, pos = match[1], match.end()
        if token == "!":
            return Not(formula())
        if token[0] in ascii_letters:
            return names.get(token) or names.setdefault(token, Prop(token))
        if token != "(" and token != "<" and token != "[":
            fail(f"unexpected token {token!r}", pos - len(token))
        # A compound's span is remembered under its run of "(" and the _KEY
        # characters after it; ``opened`` ends the run this token is in.
        start = pos - 1
        if token != "(" or text[pos:pos + 1] != "(":
            opened = pos - (token != "(")
        elif pos > opened:
            opened = _opening_at(text, pos).end()
        key = (opened - start, text[opened:opened + _KEY])
        origin, stop, node = spans.get(key, (0, 0, None))
        if node is not None and text.startswith(text[origin:stop], start):
            pos = start + stop - origin
            return node
        if token == "(":
            left = formula()
            kind = And if take("&|", "'&' or '|'") == "&" else Or
            node = kind(left, formula())
            take(")")
        else:
            agent = take(ascii_letters, "a name")
            take(":")
            grade = int(take(digits, "a grade"))
            if grade < 1:
                fail("grades start at 1", pos)
            take(">" if token == "<" else "]")
            node = (Diamond if token == "<" else box)(agent, grade, formula())
        # A copy of a span that ends in a name could go on with that name.
        if text[pos - 1] == ")":
            spans[key] = start, pos, node
        return node

    result = formula()
    if text[pos:].strip():
        fail("trailing input after formula", pos)
    return result


def _shared_nodes(formulas: Sequence[Formula]) -> set[Formula]:
    """Nodes that occur as a child more than once in the formulas' combined
    DAG, or as a child and as one of the formulas."""
    seen = set(formulas)
    shared = set()
    stack = list(seen)
    while stack:
        for child in _children(stack.pop()):
            if child in seen:
                shared.add(child)
            else:
                seen.add(child)
                stack.append(child)
    return shared


def format_formulas(formulas: Sequence[Formula]) -> list[str]:
    """``[format_formula(f) for f in formulas]``, printing each node that
    occurs more than once across all of them only once."""
    for formula in formulas:
        _require_formula(formula)
    shared = _shared_nodes(formulas)
    memo: dict[Formula, str] = {}

    def text(f: Formula) -> str:
        out = memo.get(f)
        if out is not None:
            return out
        kind = type(f)
        if kind is And:
            out = f"({text(f.left)} & {text(f.right)})"
        elif kind is Or:
            out = f"({text(f.left)} | {text(f.right)})"
        elif kind is Not:
            out = "!" + text(f.child)
        elif kind is Diamond:
            out = f"<{f.agent}:{f.grade}> {text(f.child)}"
        elif kind is Prop:
            out = f.name
        else:
            out = "true" if kind is Top else "false"
        if f in shared:
            memo[f] = out
        return out

    return list(map(text, formulas))


def format_formula(formula: Formula) -> str:
    """Concrete syntax in core form; ``parse_formula`` inverts it.

    The text of a node that occurs more than once is built once.
    """
    return format_formulas((formula,))[0]


def nesting_depth(formula: Formula) -> int:
    """Maximal nesting of modal operators; atoms have depth 0."""
    _require_formula(formula)
    return formula.depth


def counting_rank(formula: Formula) -> int:
    """Maximal grade occurring in the formula; propositional formulas rank 0."""
    _require_formula(formula)
    return formula.rank


@dataclass(frozen=True)
class FragmentBound:
    """Rank/depth bounds carving out a finite fragment of the logic."""

    cap: int
    depth: int

    def __post_init__(self):
        if self.cap < 0 or self.depth < 0:
            raise ValueError("bounds must be nonnegative")


def in_fragment(formula: Formula, bound: FragmentBound) -> bool:
    _require_formula(formula)
    return formula.rank <= bound.cap and formula.depth <= bound.depth
