import copy
import dataclasses
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedmodal import (
    And,
    Bot,
    Diamond,
    EvaluationError,
    KripkeStructure,
    Not,
    Or,
    ParseError,
    PointedStructure,
    Prop,
    ResourceLimitError,
    Signature,
    SignatureError,
    Top,
    characteristic_formula,
    extension,
    find_cap,
    fo_eval,
    fo_q_equivalent,
    format_fo_formula,
    format_formula,
    is_l_local,
    locality_padding,
    neighborhood,
    parse_fo_formula,
    parse_formula,
    quantifier_rank,
    satisfies,
    standard_translation,
    upgrade_pipeline,
)
from gradedmodal import folink
from gradedmodal.cli import run
from gradedmodal.folink import (
    EdgeAtom,
    Eq,
    Exists,
    FOAnd,
    FONot,
    FOOr,
    Forall,
    PropAtom,
    _random_tree_term,
    _smallest_tree_terms,
    free_vars,
)

from helpers import (
    SIG_A,
    SIG_AP,
    corrupted,
    fan,
    loop1,
    parse_outcome,
    random_formula,
    random_pair,
    random_signature,
    random_structure,
    related_pair,
    spaced,
)
from oracles import full_tree_terms, naive_fo_eval, naive_fo_q_equivalent, numbered_term
from oracles import format_fo_formula as recursive_format_fo_formula
from oracles import free_vars as recursive_free_vars
from oracles import parse_fo_formula as tuple_parse_fo_formula
from oracles import quantifier_rank as recursive_quantifier_rank
from oracles import standard_translation as recursive_standard_translation


def test_translation_fixtures():
    assert standard_translation(Prop("p")) == PropAtom("p", "x")
    two = standard_translation(Diamond("a", 2, Prop("p")))
    expected = Exists(
        "y1",
        Exists(
            "y2",
            FOAnd(
                FOAnd(
                    FOAnd(
                        FOAnd(FONot(Eq("y1", "y2")), EdgeAtom("a", "x", "y1")),
                        EdgeAtom("a", "x", "y2"),
                    ),
                    PropAtom("p", "y1"),
                ),
                PropAtom("p", "y2"),
            ),
        ),
    )
    assert two == expected


def test_quantifier_rank_fixtures():
    assert quantifier_rank(PropAtom("p", "x")) == 0
    assert quantifier_rank(Exists("y", EdgeAtom("a", "x", "y"))) == 1
    nested = standard_translation(parse_formula("<a:2> <a:1> p"))
    assert quantifier_rank(nested) == 3


def test_translation_rank_shape():
    rng = random.Random(3)
    for _ in range(60):
        sig = random_signature(rng)
        f = random_formula(rng, sig, depth=2, max_grade=3)
        fo = standard_translation(f)
        from gradedmodal import nesting_depth

        assert quantifier_rank(fo) >= nesting_depth(f)
        inner = standard_translation(Diamond("a", 3, f))
        assert quantifier_rank(inner) == 3 + quantifier_rank(fo)


def test_translation_does_not_capture_the_free_variable():
    edge = PointedStructure(KripkeStructure(SIG_A, 2, {"a": {(0, 1)}}), 0)
    one = parse_formula("<a:1> true")
    assert satisfies(edge, one)
    rng = random.Random(37)
    for var in ("x", "y1", "y2"):
        fo = standard_translation(one, var)
        assert free_vars(fo) == frozenset((var,))
        assert fo_eval(edge.structure, {var: 0}, fo)
        for _ in range(40):
            sig = random_signature(rng)
            m = random_structure(rng, sig)
            f = random_formula(rng, sig, depth=2, max_grade=2)
            assert fo_eval(m.structure, {var: m.point}, standard_translation(f, var)) == satisfies(m, f)


def _exists_p():
    return Exists("y", PropAtom("p", "y"))


def test_fo_eval_fixtures():
    m = fan(3).structure
    st3 = standard_translation(parse_formula("<a:3> true"))
    st4 = standard_translation(parse_formula("<a:4> true"))
    assert fo_eval(m, {"x": 0}, st3)
    assert not fo_eval(m, {"x": 0}, st4)
    p_free = fan(3, SIG_AP).structure  # p in the signature, empty valuation
    assert not fo_eval(p_free, {}, _exists_p())


def test_fo_eval_unassigned_variable():
    with pytest.raises(EvaluationError):
        fo_eval(fan(1, SIG_AP).structure, {}, PropAtom("p", "x"))


def test_fo_eval_refuses_an_assignment_that_is_not_an_integer():
    m = KripkeStructure(SIG_AP, 3, {"a": [(0, 1), (1, 2)]}, {"p": [2]})
    assert fo_eval(m, {"x": 2}, PropAtom("p", "x"))
    # A range check alone lets floats through: 2.0 would answer True, 1.5 False.
    for world in (1.5, 2.0):
        with pytest.raises(TypeError, match="assignment x"):
            fo_eval(m, {"x": world}, PropAtom("p", "x"))


def test_translation_adequacy_random():
    rng = random.Random(5)
    for _ in range(150):
        sig = random_signature(rng)
        m = random_structure(rng, sig)
        f = random_formula(rng, sig, depth=2, max_grade=2)
        fo = standard_translation(f)
        assert satisfies(m, f) == fo_eval(m.structure, {"x": m.point}, fo)


def test_fo_equivalence_fixtures():
    rng = random.Random(7)
    for _ in range(10):
        a = random_structure(rng, random_signature(rng), max_worlds=4)
        for q in (0, 1, 2):
            assert fo_q_equivalent(a, a, q)

    assert fo_q_equivalent(fan(1), fan(2), 1)
    assert not fo_q_equivalent(fan(1), fan(2), 2)
    # cross-check by the rank-2 sentence that separates them
    two_successors = standard_translation(parse_formula("<a:2> true"))
    assert quantifier_rank(two_successors) == 2
    assert not fo_eval(fan(1).structure, {"x": 0}, two_successors)
    assert fo_eval(fan(2).structure, {"x": 0}, two_successors)

    sig = Signature((), ("p",))
    a = PointedStructure(KripkeStructure(sig, 1, {}, {"p": {0}}), 0)
    b = PointedStructure(KripkeStructure(sig, 1, {}, {}), 0)
    assert not fo_q_equivalent(a, b, 0)


def test_fo_equivalence_is_equivalence_relation():
    rng = random.Random(9)
    for _ in range(15):
        sig = random_signature(rng)
        a = random_structure(rng, sig, max_worlds=4)
        b = random_structure(rng, sig, max_worlds=4)
        c = random_structure(rng, sig, max_worlds=4)
        for q in (1, 2):
            ab = fo_q_equivalent(a, b, q)
            assert ab == fo_q_equivalent(b, a, q)
            if ab and fo_q_equivalent(b, c, q):
                assert fo_q_equivalent(a, c, q)


def test_fo_equivalence_refines_with_rank():
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_pair(rng, max_worlds=4)
        if not fo_q_equivalent(a, b, 2):
            continue
        assert fo_q_equivalent(a, b, 1)
        assert fo_q_equivalent(a, b, 0)


def test_fo_equivalence_sound_for_translations():
    # rank-q equivalent points agree on every translated formula of rank <= q
    rng = random.Random(15)
    checked = 0
    while checked < 30:
        sig = random_signature(rng)
        a = random_structure(rng, sig, max_worlds=4)
        b = random_structure(rng, sig, max_worlds=4)
        f = random_formula(rng, sig, depth=1, max_grade=2)
        fo = standard_translation(f)
        q = quantifier_rank(fo)
        if q > 2 or not fo_q_equivalent(a, b, q):
            continue
        assert fo_eval(a.structure, {"x": a.point}, fo) == fo_eval(
            b.structure, {"x": b.point}, fo
        )
        checked += 1


def test_fo_equivalence_budget(monkeypatch):
    monkeypatch.setattr(folink, "BACK_AND_FORTH_BUDGET", 2)
    a, b = fan(4), fan(4)
    with pytest.raises(ResourceLimitError):
        fo_q_equivalent(a, b, 2)


def test_type_budget_is_checked_before_any_type(monkeypatch):
    # A rank-2 type over fan(4)'s 5 worlds touches 1 + 5 + 25 = 31 tuples.
    def no_types(*args):
        raise AssertionError("a type was computed before the budget check")

    monkeypatch.setattr(folink, "BACK_AND_FORTH_BUDGET", 30)
    with monkeypatch.context() as patched:
        patched.setattr(folink, "_fo_type", no_types)
        with pytest.raises(ResourceLimitError, match="31 tuples"):
            fo_q_equivalent(fan(1), fan(4), 2)
        with pytest.raises(ResourceLimitError):
            find_cap(2, 1, SIG_A, 5)
    monkeypatch.setattr(folink, "BACK_AND_FORTH_BUDGET", 31)
    assert not fo_q_equivalent(fan(1), fan(4), 2)


def test_fo_types_at_a_rank_deeper_than_the_recursion_limit(capsys):
    # 601 tuples is well inside the budget, and q = 600 outgrows the
    # recursion limit if types recurse once per rank.
    assert fo_q_equivalent(loop1(), loop1(), 600)
    path = str(Path(__file__).parent / "data" / "loop1.kr")
    assert run(["fo-equiv", path, path, "--q", "600"]) == 0


def test_locality_fixtures():
    rng = random.Random(13)
    st1 = standard_translation(parse_formula("<a:1> p"))
    for _ in range(40):
        m = random_structure(rng, SIG_AP)
        assert is_l_local(st1, m, 1)

    # p holds only outside the neighbourhood of the point
    sig = SIG_AP
    m = KripkeStructure(sig, 2, {}, {"p": {1}})
    target = PointedStructure(m, 0)
    assert not is_l_local(_exists_p(), target, 1)

    full = PointedStructure(KripkeStructure(sig, 2, {"a": {(0, 1)}}, {"p": {1}}), 0)
    assert is_l_local(_exists_p(), full, 1)


def test_locality_needs_one_free_variable():
    with pytest.raises(EvaluationError):
        is_l_local(Eq("x", "y"), fan(1), 1)


def test_modal_translations_are_depth_local():
    rng = random.Random(17)
    from gradedmodal import nesting_depth

    for _ in range(60):
        sig = random_signature(rng)
        f = random_formula(rng, sig, depth=2, max_grade=2)
        fo = standard_translation(f)
        m = random_structure(rng, sig)
        assert is_l_local(fo, m, nesting_depth(f))


def test_padding_arithmetic():
    rng = random.Random(19)
    for _ in range(20):
        sig = random_signature(rng)
        m = random_structure(rng, sig, max_worlds=4)
        radius, q = rng.randint(0, 2), rng.randint(0, 2)
        hood = neighborhood(m.structure, m.point, radius)
        padded_full, padded_local = locality_padding(m, radius, q)
        n = m.structure.world_count
        assert padded_full.structure.world_count == q * n + n + q * len(hood)
        assert padded_local.structure.world_count == q * n + len(hood) + q * len(hood)


def test_padding_degenerate():
    m = fan(2)
    padded_full, padded_local = locality_padding(m, 1, 0)
    assert padded_full.structure == m.structure
    assert padded_full.point == m.point
    hood = neighborhood(m.structure, m.point, 1)
    assert padded_local.structure.world_count == len(hood)


def test_padding_fo1_equivalent():
    rng = random.Random(23)
    for _ in range(12):
        sig = random_signature(rng)
        m = random_structure(rng, sig, max_worlds=4)
        padded_full, padded_local = locality_padding(m, 1, 1)
        assert fo_q_equivalent(padded_full, padded_local, 1)


def test_find_cap_rank_zero():
    result = find_cap(0, 1, SIG_AP, 4)
    assert result.cap == 0
    assert result.counterexamples == ()


def test_find_cap_one_prop():
    result = find_cap(1, 1, SIG_AP, 5)
    assert result.cap <= 1
    assert result.exhaustive
    final_cap_examples = [c for c in result.counterexamples if c.cap == result.cap]
    assert final_cap_examples == []


def test_find_cap_two_forced_by_fans():
    result = find_cap(2, 1, SIG_A, 6)
    assert result.cap >= 2
    assert [c for c in result.counterexamples if c.cap == result.cap] == []
    # the log explains why cap 1 failed: a pair like Fan(1) vs Fan(2)
    at_one = [c for c in result.counterexamples if c.cap == 1]
    assert at_one


def test_cap_table_matches_find_cap():
    doc = Path(__file__).resolve().parent.parent / "docs" / "caps.md"
    rows = re.findall(
        r"^\| `\(([^;]*);([^)]*)\)` \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (yes|no) \|$",
        doc.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert len(rows) == 16
    for agents, props, q, radius, cap, trees, examples, exhaustive in rows:
        sig = Signature(
            tuple(a.strip() for a in agents.split(",") if a.strip()),
            tuple(p.strip() for p in props.split(",") if p.strip()),
        )
        result = find_cap(int(q), int(radius), sig, 6)
        assert (
            result.cap,
            result.structures_examined,
            len(result.counterexamples),
            result.exhaustive,
        ) == (int(cap), int(trees), int(examples), exhaustive == "yes"), (agents, props, q, radius)


def test_sampled_trees_are_enumerated_trees():
    # The sampler orders children as the enumerator does, so a sampled tree
    # equal to an enumerated one is the same term.
    exhaustive = set(map(numbered_term, full_tree_terms(SIG_AP, 2, 7)))
    rng = random.Random(0)
    for _ in range(200):
        assert _random_tree_term(rng, SIG_AP, 2, 7) in exhaustive


def test_smallest_tree_terms_match_the_full_enumeration():
    for sig in (SIG_A, SIG_AP, Signature(("a", "b"), ())):
        for depth in (0, 1, 2):
            for size in (1, 3, 5):
                full = list(map(numbered_term, full_tree_terms(sig, depth, size)))
                for budget in (1, 4, 30, len(full) - 1, len(full), len(full) + 1):
                    terms, exhausted = _smallest_tree_terms(sig, depth, size, budget)
                    assert terms == full[:budget]
                    assert exhausted == (len(full) <= budget)


def test_find_cap_mixes_in_samples_past_the_budget(monkeypatch):
    budget = 12
    monkeypatch.setattr(folink, "CAP_SEARCH_BUDGET", budget)
    terms, exhausted = _smallest_tree_terms(SIG_AP, 1, 5, budget)
    assert not exhausted and len(terms) == budget
    rng = random.Random(0)
    extra = {_random_tree_term(rng, SIG_AP, 1, 5) for _ in range(folink.CAP_SEARCH_SAMPLES)}
    result = find_cap(1, 1, SIG_AP, 5)
    assert result.exhaustive is False
    assert result.structures_examined == budget + len(extra - set(terms))
    assert find_cap(1, 1, SIG_AP, 5) == result


def test_upgrade_identical_inputs():
    report = upgrade_pipeline(parse_formula("<a:2> true"), fan(2), fan(2), cap=2)
    assert report.quantifier_rank == 2
    assert report.radius == 3
    assert report.holds
    statuses = {s.name: s.status for s in report.steps}
    assert statuses["end-to-end truth values agree"] == "pass"


def test_upgrade_fan_pair():
    report = upgrade_pipeline(parse_formula("<a:2> true"), fan(2), fan(3), cap=2)
    assert report.holds
    # Fan(2) and Fan(3) are (2,3)-equivalent, so the chain applies end to end
    statuses = {s.name: s.status for s in report.steps}
    assert statuses["end-to-end truth values agree"] == "pass"


def test_upgrade_searches_cap_when_omitted():
    report = upgrade_pipeline(parse_formula("<a:2> true"), fan(1), fan(2))
    assert report.cap >= 2
    assert "searched" in report.cap_source
    assert report.holds  # steps conditional on equivalence are skipped
    statuses = {s.name: s.status for s in report.steps}
    assert statuses["end-to-end truth values agree"] == "skipped"


def _complete_graph() -> PointedStructure:
    """A 30-world complete ``a``-graph over (a, b; p, q)."""
    sig = Signature(("a", "b"), ("p", "q"))
    complete = KripkeStructure(sig, 30, {"a": {(u, v) for u in range(30) for v in range(30)}}, {})
    return PointedStructure(complete, 0)


def test_upgrade_checks_the_unravelling_guard_before_the_cap_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the cap search ran before the unravelling guard")

    monkeypatch.setattr(folink, "find_cap", no_search)
    a = _complete_graph()
    with pytest.raises(ResourceLimitError, match="left input to depth 8 needs more than 20000"):
        upgrade_pipeline(parse_formula("<a:1> <a:1> <a:1> p"), a, a)


def test_unravelling_guard_stops_counting_past_its_bound():
    # Depth 4,096 over a 30-world complete graph: the exact size has far more
    # digits than Python formats, so the guard must stop once past the bound.
    a = _complete_graph()
    # The 30 worlds, then the root and the first three levels: 27,961 > 20,000.
    assert folink._unravel_size(a, 4096) == 30 + 1 + 30 + 900 + 27_000
    message = "left input to depth 4096 needs more than 20000 worlds"
    with pytest.raises(ResourceLimitError, match=message):
        upgrade_pipeline(parse_formula("<a:1> " * 12 + "p"), a, a)


def test_fo_round_trip():
    rng = random.Random(29)
    for _ in range(50):
        sig = random_signature(rng)
        f = random_formula(rng, sig, depth=2, max_grade=2)
        fo = standard_translation(f)
        printed = format_fo_formula(fo)
        assert parse_fo_formula(printed) == fo
    sample = "E y1 (Ea(x,y1) & p(y1))"
    parsed = parse_fo_formula(sample)
    assert parsed == Exists("y1", FOAnd(EdgeAtom("a", "x", "y1"), PropAtom("p", "y1")))
    assert format_fo_formula(parsed) == sample
    assert format_fo_formula(Forall("y", PropAtom("p", "y"))) == "A y p(y)"
    assert parse_fo_formula("(p(x))") == PropAtom("p", "x")


@pytest.mark.parametrize("var", ["x)", "", "1x", "x y"])
def test_translation_refuses_a_variable_that_does_not_parse(var):
    with pytest.raises(ValueError, match="not an identifier"):
        standard_translation(Diamond("a", 1, Prop("p")), var)


def test_free_vars():
    fo = Exists("y", FOAnd(EdgeAtom("a", "x", "y"), Eq("y", "z")))
    assert free_vars(fo) == frozenset({"x", "z"})


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("", "unexpected end of input", 1),
        ("E y", "unexpected end of input", 4),
        ("A x", "unexpected end of input", 4),
        ("p(x) q(x)", "trailing input after formula", 6),
        ("(p(x) & q(x)", "unexpected end of input", 13),
        ("p(x,y)", "edge atoms look like E<agent>(u,v), got 'p'", 7),
        ("E(x,y)", "edge atoms look like E<agent>(u,v), got 'E'", 7),
        ("(p(x) , q(x))", "expected '&', '|' or ')', got ','", 9),
        ("p(,)", "expected a variable", 4),
        ("x = )", "expected a variable after '='", 6),
        ("p(x y)", "expected ',' or ')', got 'y'", 6),
        ("Ea(x,y,", "expected ')', got ','", 8),
        ("x", "unexpected name 'x'", 2),
        (")", "unexpected token ')'", 1),
        # a bad character is reported at its own column, as in parse_formula
        ("p(x) & 1", "unexpected character '1'", 8),
        ("p(1)", "unexpected character '1'", 3),
    ],
)
def test_fo_parse_errors(text, message, column):
    with pytest.raises(ParseError) as info:
        parse_fo_formula(text)
    assert str(info.value) == f"{message} (column {column})"
    assert info.value.column == column


@st.composite
def fo_tokens(draw):
    """The tokens of an FO formula, built over a pool so that subformulas
    repeat, or of a printed standard translation.  Names include ``E`` and
    ``A``, which start quantifiers and edge atoms too."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        printed = format_fo_formula(standard_translation(random_formula(rng, SIG_AP, 3, 3)))
        return re.findall(r"\w+|\S", printed)
    var = st.sampled_from(["x", "y", "y1", "E", "A"])
    atoms = [
        lambda: [draw(var), "=", draw(var)],
        lambda: [draw(st.sampled_from(["p", "E", "Ea", "A"])), "(", draw(var), ")"],
        lambda: ["E" + draw(st.sampled_from(["a", "b"])), "(", draw(var), ",", draw(var), ")"],
    ]
    pool = [draw(st.sampled_from(atoms))() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        pool.append(draw(st.sampled_from([
            ["!", *x],
            ["(", *x, ")"],
            ["(", *x, "&", *y, ")"],
            ["(", *x, "|", *y, ")"],
            [draw(st.sampled_from("EA")), draw(var), *x],
        ])))
    return pool[-1]


@given(fo_tokens().flatmap(spaced))
@settings(max_examples=300, deadline=None)
def test_fo_parser_returns_the_oracles_formula(text):
    assert parse_fo_formula(text) == tuple_parse_fo_formula(text)


_FO_INSERTS = ["_", "\u00e9", "\u0663", "#", "1", "0", ",", "=", "(", ")", "!", "&", "E", "x", " "]


@given(fo_tokens().flatmap(spaced).flatmap(lambda text: corrupted(text, _FO_INSERTS)))
@example("E y (Ea(x,y) & p_(y))")
@example("p(x) & \u0663")
@settings(max_examples=300, deadline=None)
def test_fo_parser_errors_match_the_oracle_on_corrupted_text(text):
    assert parse_outcome(parse_fo_formula, text) == parse_outcome(tuple_parse_fo_formula, text)


# ---------------------------------------------------------------------------
# Guarded evaluation against the naive oracle.
# ---------------------------------------------------------------------------

_FO_VARS = ("x", "y", "z", "w")


@st.composite
def _fo_structures(draw):
    sig = Signature(("a", "b")[: draw(st.integers(1, 2))], ("p", "q")[: draw(st.integers(0, 2))])
    n = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {a: draw(st.sets(pairs, max_size=3 * n)) for a in sig.agents}
    valuation = {p: draw(st.sets(st.integers(0, n - 1))) for p in sig.props}
    return KripkeStructure(sig, n, edges, valuation)


@st.composite
def _fo_formulas(draw, sig, depth):
    """FO formulas over a small variable pool, biased toward quantifier
    blocks whose matrix mixes edge atoms (guards, self-loops, guards from a
    variable rebound later in the block), equalities and subformulas."""
    var = st.sampled_from(_FO_VARS)
    agent = st.sampled_from(sig.agents)

    def atom():
        kind = draw(st.sampled_from(["prop", "edge", "eq"] if sig.props else ["edge", "eq"]))
        if kind == "prop":
            return PropAtom(draw(st.sampled_from(sig.props)), draw(var))
        if kind == "edge":
            return EdgeAtom(draw(agent), draw(var), draw(var))
        return Eq(draw(var), draw(var))

    roll = draw(st.integers(0, 9)) if depth > 0 else 0
    if roll <= 1:
        return atom()
    if roll == 2:
        return FONot(draw(_fo_formulas(sig, depth - 1)))
    if roll == 3:
        ctor = draw(st.sampled_from([FOAnd, FOOr]))
        return ctor(draw(_fo_formulas(sig, depth - 1)), draw(_fo_formulas(sig, depth - 1)))
    kind = draw(st.sampled_from([Exists, Forall]))
    # Repeats in the variable list end the block early and shadow.
    variables = draw(st.lists(var, min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.integers(0, 3))
        if shape == 0:
            edge = EdgeAtom(draw(agent), draw(var), draw(st.sampled_from(variables)))
            parts.append(edge if kind is Exists else FONot(edge))
        elif shape == 1:
            parts.append(atom())
        else:
            parts.append(draw(_fo_formulas(sig, depth - 1)))
    matrix = parts[0]
    same = FOAnd if kind is Exists else FOOr
    for part in parts[1:]:
        # Mostly the block's own connective, sometimes the other one.
        ctor = same if draw(st.integers(0, 4)) else (FOOr if same is FOAnd else FOAnd)
        matrix = ctor(matrix, part)
    for v in reversed(variables):
        matrix = kind(v, matrix)
    return matrix


@st.composite
def _fo_instances(draw):
    m = draw(_fo_structures())
    formula = draw(_fo_formulas(m.signature, 3))
    assignment = {
        v: draw(st.integers(0, m.world_count - 1)) for v in sorted(free_vars(formula))
    }
    return m, assignment, formula


@settings(max_examples=300, deadline=None)
@given(_fo_instances())
def test_guarded_fo_eval_matches_naive(instance):
    m, assignment, formula = instance
    assert fo_eval(m, assignment, formula) == naive_fo_eval(m, assignment, formula)


def test_guarded_fo_eval_fixtures():
    # 0 -> 1 -> 2, a self-loop at 2; p at 1 and 2.
    m = KripkeStructure(SIG_AP, 3, {"a": {(0, 1), (1, 2), (2, 2)}}, {"p": {1, 2}})
    cases = [
        # Forall guarded by !Ea(x, y): every successor satisfies p.
        "A y (!Ea(x,y) | p(y))",
        # the guard's source y is rebound after z in the block
        "E z E y (Ea(y,z) & p(z))",
        # a self-loop atom is not a guard
        "E y (Ea(y,y) & Ea(x,y))",
        # shadowing: the inner block rebinds y
        "E y (Ea(x,y) & E y (Ea(y,y) & !p(x)))",
        "A y A y (!Ea(x,y) | y = x)",
        "E y E z ((Ea(x,y) & Ea(y,z)) & !y = z)",
    ]
    for text in cases:
        formula = parse_fo_formula(text)
        for world in m.worlds():
            assert fo_eval(m, {"x": world}, formula) == naive_fo_eval(m, {"x": world}, formula), (
                text, world,
            )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_guarded_fo_eval_matches_satisfies_on_translations(seed):
    rng = random.Random(seed)
    sig = random_signature(rng)
    m = random_structure(rng, sig, max_worlds=6, edge_prob=0.4)
    f = random_formula(rng, sig, depth=3, max_grade=3)
    fo = standard_translation(f)
    assert {w for w in m.structure.worlds() if fo_eval(m.structure, {"x": w}, fo)} == extension(
        m.structure, f
    )


def test_guarded_fo_eval_of_a_deep_box_on_forty_worlds():
    rng = random.Random(6)
    n = 40
    edges = {(u, v) for u in range(n) for v in rng.sample(range(n), 5)}
    m = KripkeStructure(SIG_AP, n, {"a": edges}, {"p": {w for w in range(n) if rng.random() < 0.5}})
    f = parse_formula("[a:2] (<a:3> !p | <a:1> <a:2> p)")
    fo = standard_translation(f)
    assert {w for w in m.worlds() if fo_eval(m, {"x": w}, fo)} == extension(m, f)


def test_fo_eval_errors_do_not_depend_on_the_data():
    m = KripkeStructure(SIG_AP, 2, {}, {"p": {1}})
    unknown = FOAnd(PropAtom("p", "x"), PropAtom("zz", "x"))
    unassigned = FOOr(Eq("x", "x"), PropAtom("p", "nope"))
    for world in m.worlds():
        with pytest.raises(SignatureError):
            fo_eval(m, {"x": world}, unknown)
        with pytest.raises(EvaluationError):
            fo_eval(m, {"x": world}, unassigned)
    with pytest.raises(SignatureError):
        fo_eval(m, {"x": 0}, Exists("y", FOAnd(EdgeAtom("a", "x", "y"), EdgeAtom("b", "y", "x"))))
    with pytest.raises(EvaluationError):
        fo_eval(m, {"x": 0}, Forall("y", FOOr(Eq("y", "y"), Eq("y", "z"))))


def test_fo_q_equivalent_matches_whole_tuple_checks():
    # Half the pairs are related (unravellings, junk unions, twins), so that
    # equal types occur; random signatures have one or two agents, and each
    # edge, self-loops included, is drawn independently.
    rng = random.Random(41)
    seen = {"equal": 0, "equal at rank 3": 0, "two agents with self-loops": 0}
    for i in range(600):
        a, b = (related_pair if i % 2 else random_pair)(rng, max_worlds=4)
        q = rng.randint(0, 3)
        verdict = fo_q_equivalent(a, b, q)
        assert verdict == naive_fo_q_equivalent(a, b, q)
        seen["equal"] += verdict
        seen["equal at rank 3"] += verdict and q == 3
        seen["two agents with self-loops"] += len(a.signature.agents) == 2 and any(
            u == v for side in (a, b) for edges in side.structure.edges.values() for u, v in edges
        )
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# The FO walkers against the recursive oracles.
# ---------------------------------------------------------------------------


def _regular_chi(a: str, b: str, p: str, point: int):
    """The characteristic formula at (2, 3) of a pointed structure over
    agents a, b and proposition p, given as each world's a- and
    b-successors (one digit per successor, worlds separated by spaces), the
    worlds where p holds, and the point."""
    edges = {
        agent: {(u, int(v)) for u, vs in enumerate(row.split()) for v in vs}
        for agent, row in (("a", a), ("b", b))
    }
    m = KripkeStructure(Signature(("a", "b"), ("p",)), len(a.split()), edges, {"p": {int(w) for w in p}})
    return characteristic_formula(PointedStructure(m, point), 2, 3)


# The translated texts of one seed-1 deep-formulas benchmark cycle: its six
# translate queries and its two CLI translations, with their printed lengths.
_SEED_ONE_CHI = [
    (_regular_chi(*spec), chars)
    for *spec, chars in [
        ("01 04 13 34 02", "02 02 02 03 24", "12", 3, 23344),
        ("02 03 14 14 25 34", "34 01 35 45 45 45", "024", 5, 26144),
        ("46 03 35 36 27 05 57 16", "24 26 57 03 02 56 12 03", "1346", 0, 21072),
        ("16 23 24 03 12 04 02", "56 24 23 26 26 56 46", "046", 1, 22635),
        ("57 56 45 13 34 27 67 14", "01 04 47 46 35 25 35 34", "1456", 0, 21926),
        ("12 14 01 03 02", "01 02 04 01 13", "02", 3, 20687),
        ("26 07 45 26 01 36 56 27", "16 45 16 46 56 67 03 07", "1246", 0, 19702),
        ("25 15 34 13 23 14", "03 23 01 45 34 03", "345", 0, 20777),
    ]
]


def test_seed_one_chi_texts_have_their_recorded_lengths():
    assert [len(format_formula(chi)) for chi, _ in _SEED_ONE_CHI] == [chars for _, chars in _SEED_ONE_CHI]


@st.composite
def _shared_modal_formulas(draw):
    """Modal formulas built over a pool, so that subformulas repeat, with
    grades 1-3 under two agents."""
    pool = [draw(st.sampled_from([Top(), Bot(), Prop("p"), Prop("q")])) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 7))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        grade, agent = draw(st.integers(1, 3)), draw(st.sampled_from("ab"))
        pool.append(draw(st.sampled_from([Not(x), And(x, y), Or(x, y), Diamond(agent, grade, x)])))
    return pool[-1]


@given(_shared_modal_formulas(), st.sampled_from(["x", "y1", "y2"]))
@example(_SEED_ONE_CHI[0][0], "x")
@example(_SEED_ONE_CHI[1][0], "x")
@example(_SEED_ONE_CHI[2][0], "x")
@example(_SEED_ONE_CHI[3][0], "x")
@example(_SEED_ONE_CHI[4][0], "x")
@example(_SEED_ONE_CHI[5][0], "x")
@example(_SEED_ONE_CHI[6][0], "x")
@example(_SEED_ONE_CHI[7][0], "x")
@example(Diamond("a", 3, Diamond("b", 2, Prop("p"))), "y2")
@settings(max_examples=200, deadline=None)
def test_fo_walkers_match_the_recursive_oracles_on_translations(formula, var):
    # The free variable may be one of the fresh names y1, y2, ..., which the
    # translation then skips.
    fo = standard_translation(formula, var)
    assert fo == recursive_standard_translation(formula, var)
    assert format_fo_formula(fo) == recursive_format_fo_formula(fo)
    assert quantifier_rank(fo) == recursive_quantifier_rank(fo)
    assert free_vars(fo) == recursive_free_vars(fo)


@settings(max_examples=300, deadline=None)
@given(_fo_instances())
def test_fo_walkers_match_the_recursive_oracles_on_fo_formulas(instance):
    # Universal quantifiers, disjunctions and rebound variables, which no
    # translation holds.
    _, _, formula = instance
    assert format_fo_formula(formula) == recursive_format_fo_formula(formula)
    assert quantifier_rank(formula) == recursive_quantifier_rank(formula)
    assert free_vars(formula) == recursive_free_vars(formula)


@pytest.mark.parametrize("formula", [
    "abc",
    FONot("abc"),
    FONot(" & "),
    FONot(")"),
    FOAnd(PropAtom("p", "x"), ")"),
    FOOr(None, PropAtom("p", "x")),
    Exists("y", FOAnd(Eq("x", "y"), 3)),
    Forall("y", Prop("p")),
])
def test_fo_walkers_refuse_a_child_that_is_not_an_fo_formula(formula):
    walkers = [
        (format_fo_formula, recursive_format_fo_formula),
        (quantifier_rank, recursive_quantifier_rank),
        (free_vars, recursive_free_vars),
    ]
    for walker, oracle in walkers:
        with pytest.raises(TypeError, match="not an FO formula") as expected:
            oracle(formula)
        with pytest.raises(TypeError) as raised:
            walker(formula)
        assert str(raised.value) == str(expected.value)


_FO_NODES = [
    PropAtom("p", "x"),
    EdgeAtom("a", "x", "y1"),
    Eq("x", "y1"),
    FONot(Eq("y1", "y2")),
    FOAnd(PropAtom("p", "x"), EdgeAtom("a", "x", "y1")),
    FOOr(PropAtom("p", "x"), Eq("x", "x")),
    Exists("y1", FOAnd(EdgeAtom("a", "x", "y1"), PropAtom("p", "y1"))),
    Forall("y1", FOOr(FONot(EdgeAtom("a", "x", "y1")), PropAtom("p", "y1"))),
]


@pytest.mark.parametrize("node", _FO_NODES, ids=lambda node: type(node).__name__)
def test_fo_nodes_are_frozen_slotted_and_round_trip(node):
    field = dataclasses.fields(node)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, field, "z")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(node, field)
    # A name that is no field is refused by the same frozen check.
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = "z"
    assert not hasattr(node, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(node, protocol))
        assert type(loaded) is type(node) and loaded == node and hash(loaded) == hash(node)
    copied = copy.deepcopy(node)
    assert type(copied) is type(node) and copied == node and hash(copied) == hash(node)


def test_fo_node_repr_names_each_field():
    node = Exists("y1", FOAnd(EdgeAtom("a", "x", "y1"), FONot(Eq("x", "y1"))))
    assert repr(node) == (
        "Exists(var='y1', child=FOAnd(left=EdgeAtom(agent='a', src='x', dst='y1'), "
        "right=FONot(child=Eq(left='x', right='y1'))))"
    )


def test_fo_walkers_on_formulas_ten_thousand_deep():
    # Printing, rank and free variables keep an explicit stack, so no depth
    # reaches the recursion limit.
    n = 10_000
    negations = quantified = conjunction = PropAtom("p", "x")
    for _ in range(n):
        negations = FONot(negations)
        quantified = Exists("y", quantified)
        conjunction = FOAnd(conjunction, Eq("x", "y"))
    cases = [
        (negations, "!" * n + "p(x)", 0, {"x"}),
        (quantified, "E y " * n + "p(x)", n, {"x"}),
        (conjunction, "(" * n + "p(x)" + " & x = y)" * n, 0, {"x", "y"}),
    ]
    for formula, text, rank, names in cases:
        printed = format_fo_formula(formula)
        assert len(printed) == len(text) and printed == text
        assert quantifier_rank(formula) == rank
        assert free_vars(formula) == frozenset(names)
