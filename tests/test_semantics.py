import random

import pytest

from gradedmodal import (
    And,
    Bot,
    Diamond,
    FragmentBound,
    KripkeStructure,
    Not,
    Or,
    PointedStructure,
    Prop,
    SignatureError,
    Top,
    bounded_equivalence,
    counting_rank,
    extension,
    in_fragment,
    nesting_depth,
    parse_formula,
    satisfies,
)
from gradedmodal.charform import inferred_signature

from helpers import SIG_AP, fan, loop1, random_formula, random_signature, random_structure


def test_extension_fan_fixtures():
    m = fan(3).structure
    assert extension(m, Diamond("a", 3, Top())) == frozenset({0})
    assert extension(m, Diamond("a", 4, Top())) == frozenset()

    withp = KripkeStructure(
        SIG_AP, 3, {"a": {(0, 1), (0, 2)}}, {"p": {1}}
    )
    assert extension(withp, Diamond("a", 2, Prop("p"))) == frozenset()
    assert extension(withp, Diamond("a", 1, Prop("p"))) == frozenset({0})


def test_satisfies_fixtures():
    assert satisfies(loop1(), parse_formula("<a:1> true"))
    assert not satisfies(loop1(), parse_formula("<a:2> true"))
    assert satisfies(fan(2), Top())


def test_unknown_symbols_rejected():
    with pytest.raises(SignatureError):
        extension(fan(1).structure, Prop("p"))
    with pytest.raises(SignatureError):
        satisfies(fan(1), Diamond("b", 1, Top()))
    # every offender is named, in sorted order, propositions first
    with pytest.raises(SignatureError, match="unknown proposition 'p', 'q'"):
        satisfies(fan(1), parse_formula("(<b:1> q | (p & <c:1> q))"))
    with pytest.raises(SignatureError, match="unknown agent 'b', 'c'"):
        extension(fan(1).structure, parse_formula("(<c:1> true | <b:2> <a:1> true)"))


def test_satisfies_matches_extension():
    rng = random.Random(41)
    for _ in range(150):
        sig = random_signature(rng)
        m = random_structure(rng, sig)
        f = random_formula(rng, sig, depth=3, max_grade=3)
        ext = extension(m.structure, f)
        for w in m.structure.worlds():
            assert (w in ext) == satisfies(PointedStructure(m.structure, w), f)


def test_grade_one_is_plain_diamond():
    rng = random.Random(43)
    for _ in range(100):
        sig = random_signature(rng)
        m = random_structure(rng, sig).structure
        body = random_formula(rng, sig, depth=2, max_grade=2)
        agent = sig.agents[0]
        child = extension(m, body)
        direct = frozenset(
            u for u in m.worlds() if set(m.successors(agent, u)) & child
        )
        assert extension(m, Diamond(agent, 1, body)) == direct


def test_grade_monotonicity():
    rng = random.Random(47)
    for _ in range(100):
        sig = random_signature(rng)
        m = random_structure(rng, sig).structure
        body = random_formula(rng, sig, depth=2, max_grade=2)
        agent = sig.agents[0]
        for grade in (1, 2, 3):
            bigger = extension(m, Diamond(agent, grade + 1, body))
            smaller = extension(m, Diamond(agent, grade, body))
            assert bigger <= smaller


def test_bounded_invariance_on_random_formulas():
    # one direction of the rank/depth agreement; the full version is an
    # acceptance criterion
    from gradedmodal import counting_rank, nesting_depth

    rng = random.Random(53)
    checked = 0
    while checked < 60:
        sig = random_signature(rng)
        a = random_structure(rng, sig)
        b = random_structure(rng, sig)
        f = random_formula(rng, sig, depth=2, max_grade=2)
        cap, depth = counting_rank(f), nesting_depth(f)
        if not bounded_equivalence(a, b, cap, depth):
            continue
        assert satisfies(a, f) == satisfies(b, f)
        checked += 1


def _tree_satisfies(m, world, f):
    """The satisfaction clauses, one tree node at a time."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Prop):
        return world in m.valuation[f.name]
    if isinstance(f, Not):
        return not _tree_satisfies(m, world, f.child)
    if isinstance(f, And):
        return _tree_satisfies(m, world, f.left) and _tree_satisfies(m, world, f.right)
    if isinstance(f, Or):
        return _tree_satisfies(m, world, f.left) or _tree_satisfies(m, world, f.right)
    hits = sum(_tree_satisfies(m, v, f.child) for v in m.successors(f.agent, world))
    return hits >= f.grade


def test_checkers_match_tree_evaluation_on_shared_formulas():
    rng = random.Random(59)
    for _ in range(150):
        sig = random_signature(rng)
        m = random_structure(rng, sig).structure
        parts = [random_formula(rng, sig, depth=2, max_grade=3) for _ in range(3)]
        for _ in range(3):
            x, y = rng.choice(parts), rng.choice(parts)
            parts.append(rng.choice([And(x, y), Or(y, x), Diamond(sig.agents[0], 2, x), Not(x)]))
        f = parts[-1]
        ext = extension(m, f)
        for w in m.worlds():
            expected = _tree_satisfies(m, w, f)
            assert satisfies(PointedStructure(m, w), f) == expected
            assert (w in ext) == expected


def test_shared_formula_is_walked_once_per_node():
    # f_{k+1} = (f_k & <a:1> f_k): the tree has more than 2^40 nodes, the
    # shared-node graph 81.  Walking the tree would never finish.
    f = Prop("p")
    for _ in range(40):
        f = And(f, Diamond("a", 1, f))
    assert nesting_depth(f) == 40
    assert counting_rank(f) == 1
    assert in_fragment(f, FragmentBound(1, 40))
    assert not in_fragment(f, FragmentBound(1, 39))
    assert inferred_signature(f) == SIG_AP
    # On the line 0 -> 1 -> ... -> 50 with p everywhere, f_k holds exactly
    # where a path of k more steps starts.
    line = KripkeStructure(SIG_AP, 51, {"a": {(i, i + 1) for i in range(50)}}, {"p": set(range(51))})
    assert extension(line, f) == frozenset(range(11))
    assert satisfies(PointedStructure(line, 10), f)
    assert not satisfies(PointedStructure(line, 11), f)


def test_checkers_do_not_recurse_per_nesting_level():
    f = Prop("p")
    for _ in range(5000):
        f = Not(Diamond("a", 1, f))
    loop = KripkeStructure(SIG_AP, 1, {"a": {(0, 0)}}, {"p": {0}})
    assert nesting_depth(f) == 5000
    assert extension(loop, f) == frozenset({0})
    assert satisfies(PointedStructure(loop, 0), f)
