import copy
import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedmodal import (
    And,
    Bot,
    Diamond,
    FragmentBound,
    KripkeStructure,
    Not,
    Or,
    ParseError,
    PointedStructure,
    Prop,
    Signature,
    Top,
    characteristic_formula,
    counting_rank,
    format_formula,
    format_formulas,
    in_fragment,
    nesting_depth,
    parse_formula,
)
from gradedmodal import syntax
from gradedmodal.syntax import and_all, box, or_all

import oracles
from helpers import SIG_AP, corrupted, parse_outcome, random_formula, random_signature, spaced


def test_parse_fixtures():
    assert parse_formula("<a:3> p") == Diamond("a", 3, Prop("p"))
    assert parse_formula("[a:2] p") == Not(Diamond("a", 2, Not(Prop("p"))))
    assert parse_formula("true") == Top()
    assert parse_formula("(p & !q)") == And(Prop("p"), Not(Prop("q")))
    assert parse_formula(" ( p | q ) ") == Or(Prop("p"), Prop("q"))


def test_parse_rejects_grade_zero():
    with pytest.raises(ParseError):
        parse_formula("<a:0> p")
    with pytest.raises(ValueError):
        Diamond("a", 0, Top())


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_formula("(p & ")
    assert info.value.column is not None
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("p & q")  # parentheses are mandatory
    with pytest.raises(ParseError):
        parse_formula("")


def test_unexpected_character_reported_at_its_own_column():
    for text, column in (("#", 1), ("  #", 3), ("(p & #)", 6), ("(p &#)", 5)):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert str(info.value) == f"unexpected character '#' (column {column})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("<a:1", "unexpected end of input (column 5)"),
        ("<a 1> p", "expected ':', got '1' (column 5)"),
        ("(p", "unexpected end of input (column 3)"),
        ("(p q)", "expected '&' or '|', got 'q' (column 5)"),
        (")", "unexpected token ')' (column 1)"),
        # grades are ASCII digits: \d would read this one as 3
        ("<a:\u0663> p", "unexpected character '\u0663' (column 4)"),
    ],
)
def test_parse_error_messages_and_columns(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert str(info.value) == message


def test_format_fixtures():
    assert format_formula(Diamond("a", 1, Top())) == "<a:1> true"
    assert format_formula(And(Prop("p"), Not(Prop("q")))) == "(p & !q)"


def test_round_trip_random():
    rng = random.Random(13)
    for _ in range(1000):
        sig = random_signature(rng)
        f = random_formula(rng, sig, depth=4, max_grade=3)
        assert parse_formula(format_formula(f)) is f


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Top(), Bot(), Prop("p"), Prop("q")]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from([Top(), Bot(), Prop("p"), Prop("q")]))
    if kind == 1:
        return Not(draw(formulas(depth=depth - 1)))
    if kind == 2:
        return And(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if kind == 3:
        return Or(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    return Diamond(
        draw(st.sampled_from(["a", "b"])),
        draw(st.integers(1, 4)),
        draw(formulas(depth=depth - 1)),
    )


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_round_trip_hypothesis(f):
    assert parse_formula(format_formula(f)) is f


def test_depth_and_rank_fixtures():
    assert nesting_depth(Prop("p")) == 0
    assert nesting_depth(Diamond("a", 3, Prop("p"))) == 1
    assert nesting_depth(Diamond("a", 1, Diamond("a", 2, Prop("p")))) == 2
    assert counting_rank(And(Prop("p"), Not(Prop("q")))) == 0
    assert counting_rank(Diamond("a", 3, Prop("p"))) == 3
    assert counting_rank(Diamond("a", 2, Diamond("a", 5, Prop("p")))) == 5


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_gradations_commute_with_connectives(f):
    assert counting_rank(Not(f)) == counting_rank(f)
    assert nesting_depth(Not(f)) == nesting_depth(f)
    g = Diamond("a", 2, Top())
    assert counting_rank(And(f, g)) == max(counting_rank(f), counting_rank(g))
    assert nesting_depth(Or(f, g)) == max(nesting_depth(f), nesting_depth(g))


@given(formulas(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_box_gradations(f, grade):
    boxed = box("a", grade, f)
    assert nesting_depth(boxed) == nesting_depth(f) + 1
    assert counting_rank(boxed) == max(grade, counting_rank(f))


def test_in_fragment_fixtures():
    assert in_fragment(Diamond("a", 2, Top()), FragmentBound(2, 1))
    assert not in_fragment(Diamond("a", 3, Top()), FragmentBound(2, 1))
    assert in_fragment(Prop("p"), FragmentBound(0, 0))


def test_in_fragment_boundaries_random():
    rng = random.Random(17)
    for _ in range(200):
        f = random_formula(rng, SIG_AP, depth=3, max_grade=3)
        cap, depth = counting_rank(f), nesting_depth(f)
        assert in_fragment(f, FragmentBound(cap, depth))
        if cap > 0:
            assert not in_fragment(f, FragmentBound(cap - 1, depth))
        if depth > 0:
            assert not in_fragment(f, FragmentBound(cap, depth - 1))


def test_connective_folds():
    assert and_all([]) == Top()
    assert or_all([]) == Bot()
    assert and_all([Prop("p")]) == Prop("p")
    assert format_formula(and_all([Prop("p"), Not(Prop("q"))])) == "(p & !q)"


def test_equal_constructions_are_identical():
    def build():
        return Diamond("a", 2, And(Prop("p"), Not(Or(Prop("q"), Top()))))

    assert build() is build()
    assert Top() is Top() and Bot() is Bot()
    assert Prop("p") is not Prop("q")
    assert Diamond("a", 2, Top()) is not Diamond("a", 3, Top())
    assert Diamond("a", 2, Top()) is not Diamond("b", 2, Top())
    assert And(Prop("p"), Prop("q")) is not Or(Prop("p"), Prop("q"))
    assert And(Prop("p"), Prop("q")) is not And(Prop("q"), Prop("p"))
    assert parse_formula("[a:2] p") is box("a", 2, Prop("p"))


def test_copies_and_pickles_return_the_interned_node():
    f = parse_formula("(<a:2> (p & !q) | [b:1] <a:1> true)")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f.left]) == [f, f.left]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f


def test_nodes_are_frozen():
    f = And(Prop("p"), Diamond("a", 1, Top()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.left = Top()
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.right.grade = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.depth = 0
    assert [field.name for field in dataclasses.fields(Diamond)] == ["agent", "grade", "child"]


def test_non_formula_children_rejected():
    with pytest.raises(TypeError):
        Not("p")
    with pytest.raises(TypeError):
        And(Prop("p"), None)
    with pytest.raises(TypeError):
        Or(1, Prop("p"))
    with pytest.raises(TypeError):
        Diamond("a", 1, "p")
    with pytest.raises(TypeError):
        nesting_depth("p")
    with pytest.raises(TypeError):
        format_formula(None)


def test_cached_gradations_and_symbols():
    f = parse_formula("(<a:2> (p & !q) | [b:3] <a:1> r)")
    assert (f.depth, f.rank) == (nesting_depth(f), counting_rank(f)) == (2, 3)
    assert f.props == {"p", "q", "r"}
    assert f.agents == {"a", "b"}
    assert Top().props == Top().agents == frozenset()


def _tree_text(f):
    """The printer's definition, one tree node at a time."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return "!" + _tree_text(f.child)
    if isinstance(f, And):
        return f"({_tree_text(f.left)} & {_tree_text(f.right)})"
    if isinstance(f, Or):
        return f"({_tree_text(f.left)} | {_tree_text(f.right)})"
    return f"<{f.agent}:{f.grade}> {_tree_text(f.child)}"


def test_format_matches_tree_printer_on_shared_formulas():
    rng = random.Random(19)
    for _ in range(300):
        parts = [random_formula(rng, SIG_AP, depth=3, max_grade=2) for _ in range(3)]
        for _ in range(4):
            x, y = rng.choice(parts), rng.choice(parts)
            parts.append(rng.choice([And(x, y), Or(y, x), Diamond("a", 2, x), Not(x)]))
        f = and_all(parts)
        assert format_formula(f) == _tree_text(f)


@st.composite
def shared_dags(draw):
    """A list of formulas drawn from a pool in which every new node is built
    over earlier ones, so subformulas are shared within and across them."""
    pool = [draw(formulas(depth=2)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.integers(0, 3))
        pool.append([And(x, y), Or(y, x), Diamond("a", 2, x), Not(x)][kind])
    return draw(st.lists(st.sampled_from(pool), max_size=6))


@given(shared_dags())
@settings(max_examples=300, deadline=None)
def test_format_formulas_prints_each_formula_as_format_formula(fs):
    printed = format_formulas(fs)
    assert printed == [format_formula(f) for f in fs]
    assert printed == [_tree_text(f) for f in fs]


# ---------------------------------------------------------------------------
# The one-scan parser against the tuple-tokenizer oracle.
# ---------------------------------------------------------------------------
_GRADES = ("1", "2", "3", "01", "10")


@st.composite
def formula_tokens(draw, grades=_GRADES):
    """The tokens of a formula in the full grammar, boxes and zero-padded
    grades included, built over a pool so that subformulas repeat, or of a
    printed random formula."""
    if draw(st.booleans()):
        return re.findall(r"\w+|\S", format_formula(draw(formulas())))
    names = st.sampled_from(["true", "false", "p", "q", "p_1", "A2"])
    pool = [[draw(names)] for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 10))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            pool.append(["!"] + x)
        elif kind == 1:
            pool.append(["(", *x, draw(st.sampled_from("&|")), *y, ")"])
        else:
            agent, grade = draw(st.sampled_from(["a", "b"])), draw(st.sampled_from(grades))
            pool.append(["<", agent, ":", grade, ">", *x] if kind == 2 else ["[", agent, ":", grade, "]", *x])
    return pool[-1]


def formula_texts(grades=_GRADES):
    return formula_tokens(grades).flatmap(spaced)


# A subformula long enough for the parser to remember its span, a copy of
# it that differs only after the lookup prefix, and one ending in a name.
_LONG = "<a:1> (<b:2> (p & !q) | [a:3] r)"
_LONG_OTHER = "<a:1> (<b:2> (p & !q) | [a:3] s)"
_NAMED = "<a:1> <b:2> <a:3> <b:1> p"
_CHAIN = format_formula(and_all([Prop(f"p{i}") for i in range(30)]))


@given(formula_texts())
@example("(<a:1> p & <a:2> p)")
@example("((<a:1> p | [a:1] p) & (<b:1> p | <a:1> q))")
@example(f"({_LONG} & {_LONG})")
@example(f"({_LONG} & <a:1>  ( <b:2> (p&!q) | [a:3] r))")  # spaced differently
@example("(<a:1> p & <a:1> pq)")
@example(f"({_NAMED} & {_NAMED}q)")  # followed by a name character
@example(f"({_NAMED} & {_NAMED}_1)")
@example(f"({_NAMED} & {_NAMED})")
@example(f"({_LONG} & {_LONG_OTHER})")  # differs after the prefix
@example(f"({_CHAIN} | ({_CHAIN} & {_CHAIN[:-5]}q29)))")
@example(f"[a:2] ({_LONG} & !({_LONG} | {_LONG}))")
@settings(max_examples=300, deadline=None)
def test_parser_returns_the_oracles_node(text):
    assert parse_formula(text) is oracles.parse_formula(text)


_ASCII_GRADES = re.compile(oracles._TOKEN.pattern.replace(r"\d", "[0-9]"))


def _oracle_outcome(text):
    """The oracle's outcome, a grade in other than ASCII digits being an
    unexpected character, as it is for the new tokenizer."""
    try:
        oracles._tokenize(_ASCII_GRADES, text)
    except ParseError as exc:
        return "error", str(exc), exc.column
    return parse_outcome(oracles.parse_formula, text)


_INSERTS = ["_", "\u00e9", "\u0663", "#", "0", "00", "(", ")", "!", "&", "<", ":", "]", "p", " "]


@given(formula_texts(_GRADES + ("0", "00")).flatmap(lambda text: corrupted(text, _INSERTS)))
@example("(p & #)")
@example("<a:00> p")
@example("(p_ | _q)")
@example(f"({_LONG} & {_LONG[:-1]}")  # cut off by the end of the text
@example(f"({_LONG} & {_LONG[:-6]}")
@example(f"({_LONG} & {_LONG}")
@example(f"({_LONG} & {_LONG.replace('3', '0')})")  # the copy holds an error
@example(f"({_LONG} & {_LONG.replace('!', '#')})")
@example(f"({_LONG} & {_LONG.replace('r', '&')})")
@example(f"({_NAMED} & {_NAMED} q)")
@example(f"({_CHAIN} & {_CHAIN[:-1]}")
@settings(max_examples=300, deadline=None)
def test_parser_errors_match_the_oracle_on_corrupted_text(text):
    assert parse_outcome(parse_formula, text) == _oracle_outcome(text)


@pytest.mark.parametrize("prefix, suffix", [("!", ""), ("<a:1> ", ""), ("[b:2] ", ""), ("(p & ", ")")])
def test_parse_800_levels_deep(prefix, suffix):
    text = prefix * 800 + "p" + suffix * 800
    assert parse_formula(text) is oracles.parse_formula(text)


@st.composite
def repeated_texts(draw):
    """Text in which printed subformulas repeat, each copy either as printed
    or spaced at random."""
    pool = [format_formula(draw(formulas(depth=4))) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(3, 8))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if draw(st.booleans()):
            y = x if draw(st.booleans()) else draw(spaced(re.findall(r"\w+|\S", x)))
        shape = draw(st.sampled_from(["({} & {})", "({} | {})", "(!{} & {})", "<a:2> {}", "[b:1] {}"]))
        pool.append(shape.format(x, y))
    return pool[-1]


@given(repeated_texts())
@settings(max_examples=100, deadline=None)
def test_repeated_subformulas_parse_as_the_oracle_does(text):
    assert parse_formula(text) is oracles.parse_formula(text)


@given(repeated_texts().flatmap(lambda text: corrupted(text, _INSERTS)))
@settings(max_examples=100, deadline=None)
def test_corrupted_repeats_fail_as_the_oracle_does(text):
    assert parse_outcome(parse_formula, text) == _oracle_outcome(text)


def _chi():
    sig = Signature(("a", "b"), ("p",))
    edges = {"a": {(w, (w + 1) % 5) for w in range(5)} | {(0, 2)}, "b": {(w, (w * 2) % 5) for w in range(5)}}
    return characteristic_formula(PointedStructure(KripkeStructure(sig, 5, edges, {"p": {0, 3}}), 0), 2, 3)


@pytest.mark.parametrize("subformula", [_chi, lambda: and_all([Prop(f"p{i}") for i in range(400)])],
                         ids=["chi", "chain"])
def test_each_repeat_costs_a_few_token_reads(monkeypatch, subformula):
    s = subformula()
    size = len(syntax._TOKEN.findall(format_formula(s)))
    assert size >= 1000
    scan, reads = syntax._token_at, []

    def counting(text, pos):
        reads.append(pos)
        return scan(text, pos)

    monkeypatch.setattr(syntax, "_token_at", counting)
    f = and_all([s] * 100)
    assert parse_formula(format_formula(f)) is f
    assert len(reads) <= size + 20 * 100
