import random

import pytest

from gradedmodal import (
    And,
    Bot,
    Diamond,
    FragmentBound,
    KripkeStructure,
    Not,
    PointedStructure,
    Prop,
    ResourceLimitError,
    Signature,
    Top,
    bounded_equivalence,
    catalog_size,
    characteristic_formula,
    counting_rank,
    distinguishing_formula,
    enumerate_types,
    extension,
    format_formula,
    in_fragment,
    nesting_depth,
    normal_form,
    parse_formula,
    satisfies,
)
from gradedmodal.charform import CATALOG_BUDGET, _conjuncts, _size_exceeds, inferred_signature
from gradedmodal.syntax import and_all

from helpers import (
    SIG_A,
    SIG_AP,
    fan,
    random_formula,
    random_pair,
    random_signature,
    random_structure,
)
from oracles import type_descriptors


def test_level_zero_is_atomic_description():
    sig = Signature(("a",), ("p", "q"))
    m = KripkeStructure(sig, 1, {}, {"p": {0}})
    chi = characteristic_formula(PointedStructure(m, 0), 2, 0)
    assert format_formula(chi) == "(p & !q)"


def test_fan3_formula_shape_and_meaning():
    chi_bare = characteristic_formula(fan(3), 2, 1, exclude_unrealized=False)

    def has_negated_diamond(f):
        if isinstance(f, Not) and isinstance(f.child, Diamond):
            return True
        parts = [
            getattr(f, name)
            for name in ("child", "left", "right")
            if hasattr(f, name)
        ]
        return any(has_negated_diamond(p) for p in parts)

    assert not has_negated_diamond(chi_bare)

    # both variants agree with <a:2> true on a spread of structures
    chi = characteristic_formula(fan(3), 2, 1)
    want = Diamond("a", 2, Top())
    rng = random.Random(3)
    for _ in range(40):
        m = random_structure(rng, SIG_A).structure
        assert extension(m, chi) == extension(m, want)
        assert extension(m, chi_bare) == extension(m, want)


def test_own_satisfaction_random():
    rng = random.Random(7)
    for _ in range(120):
        sig = random_signature(rng)
        m = random_structure(rng, sig)
        cap, depth = rng.randint(0, 2), rng.randint(0, 2)
        chi = characteristic_formula(m, cap, depth)
        assert satisfies(m, chi)


def test_defining_property_random():
    rng = random.Random(11)
    for _ in range(120):
        a, b = random_pair(rng)
        cap, depth = rng.randint(0, 2), rng.randint(0, 2)
        chi_a = characteristic_formula(a, cap, depth)
        assert satisfies(b, chi_a) == bool(bounded_equivalence(a, b, cap, depth))


def test_fragment_discipline():
    rng = random.Random(13)
    for _ in range(80):
        m = random_structure(rng, random_signature(rng))
        cap, depth = rng.randint(0, 2), rng.randint(0, 2)
        chi = characteristic_formula(m, cap, depth)
        assert nesting_depth(chi) <= depth
        assert counting_rank(chi) <= cap


def test_catalog_sizes():
    assert catalog_size(SIG_A, 1, 1) == 2
    assert catalog_size(SIG_A, 2, 1) == 3
    assert catalog_size(Signature((), ("p",)), 3, 0) == 2
    assert catalog_size(SIG_AP, 2, 2) == 2 * 3 ** 18


def test_enumerate_types_counts_and_soundness():
    cat = enumerate_types(SIG_A, 1, 1)
    assert len(cat) == 2
    cat = enumerate_types(SIG_A, 2, 1)
    assert len(cat) == 3
    cat = enumerate_types(Signature((), ("p",)), 2, 0)
    assert len(cat) == 2

    cat = enumerate_types(SIG_AP, 2, 1)
    assert len(cat) == 18
    # every canonical model satisfies exactly its own formula
    for e in cat.entries:
        for other in cat.entries:
            assert satisfies(e.model, other.formula) == (e.type_id == other.type_id)
    # pairwise inequivalent, via the game-checked refinement
    for e in cat.entries:
        for other in cat.entries:
            if e.type_id < other.type_id:
                assert not bounded_equivalence(e.model, other.model, 2, 1)


def _descriptor(pointed, cap, depth):
    return type_descriptors(pointed.structure, cap, depth)[pointed.point]


def test_catalog_models_realize_their_descriptors():
    cat = enumerate_types(SIG_AP, 1, 2)
    assert len(cat) == 2 * 2 ** 8
    ranked = sorted(_descriptor(e.model, 1, 2) for e in cat.entries)
    for e in cat.entries[:40]:
        assert _descriptor(e.model, 1, 2) == ranked[e.type_id]


def test_catalog_order_matches_oracle_descriptors():
    """In every catalog within budget over four signatures, with cap and
    depth at most 2, entry i and the i-th formula of each level belong to
    the i-th smallest oracle descriptor."""
    sigs = [Signature(("a",), ()), SIG_AP, Signature(("a", "b"), ()), Signature(("a", "b"), ("p",))]
    built = 0
    for sig in sigs:
        for cap in range(3):
            ranked = []  # ranked[d]: the descriptors of the depth-d types, in type order
            for depth in range(3):
                if _size_exceeds(sig, cap, depth, CATALOG_BUDGET):
                    break
                cat = enumerate_types(sig, cap, depth)
                built += 1
                descs = [_descriptor(e.model, cap, depth) for e in cat.entries]
                assert descs == sorted(set(descs))
                ranked.append(descs)
                assert cat.level_formulas[depth] == tuple(e.formula for e in cat.entries)
                for e in cat.entries:
                    assert satisfies(e.model, e.formula)
                    for level in range(depth):
                        index = ranked[level].index(_descriptor(e.model, cap, level))
                        assert satisfies(e.model, cat.level_formulas[level][index])
    assert built == 32


def test_catalog_mode_consistent_with_entries():
    cat = enumerate_types(SIG_A, 2, 2)
    assert len(cat) == 27
    shallow = {depth: enumerate_types(SIG_A, 2, depth) for depth in (0, 1)}
    for e in cat.entries:
        assert characteristic_formula(e.model, 2, 2, catalog=cat) is e.formula
        # below the catalog's depth: the entry of the shallower catalog whose
        # model is equivalent at that depth
        for depth, other in shallow.items():
            (expected,) = [
                s.formula for s in other.entries if bounded_equivalence(s.model, e.model, 2, depth)
            ]
            assert characteristic_formula(e.model, 2, depth, catalog=cat) is expected
    # On structures that are not catalog models, at every depth up to the
    # catalog's: the formula is a catalog level formula, holds at the point,
    # and is the same object exactly for equivalent points.
    rng = random.Random(31)
    cat = enumerate_types(SIG_AP, 1, 2)
    for _ in range(30):
        a, b = random_structure(rng, SIG_AP), random_structure(rng, SIG_AP)
        for depth in (0, 1, 2):
            chi_a = characteristic_formula(a, 1, depth, catalog=cat)
            chi_b = characteristic_formula(b, 1, depth, catalog=cat)
            assert any(chi_a is f for f in cat.level_formulas[depth])
            assert satisfies(a, chi_a)
            assert (chi_a is chi_b) == bool(bounded_equivalence(a, b, 1, depth))


def test_catalog_guard():
    with pytest.raises(ResourceLimitError, match="more than 5000 entries"):
        enumerate_types(SIG_AP, 2, 2)


def test_catalog_guard_agrees_with_exact_size():
    for agents in ((), ("a",), ("a", "b")):
        for props in ((), ("p",), ("p", "q")):
            sig = Signature(agents, props)
            for cap in range(4):
                for depth in range(4):
                    if depth == 3 and agents and cap and (len(agents), props, cap) != (1, (), 1):
                        continue  # the exact size has more digits than a test should hold
                    size = catalog_size(sig, cap, depth)
                    for limit in (0, 1, 3, 4, 16, 5000, size - 1, size, size + 1):
                        assert _size_exceeds(sig, cap, depth, limit) == (size > limit)


def test_every_structure_matches_exactly_one_type():
    rng = random.Random(17)
    cat = enumerate_types(SIG_AP, 2, 1)
    ranked = sorted(_descriptor(e.model, 2, 1) for e in cat.entries)
    for _ in range(60):
        m = random_structure(rng, SIG_AP)
        hits = [e.type_id for e in cat.entries if satisfies(m, e.formula)]
        assert len(hits) == 1
        assert _descriptor(m, 2, 1) == ranked[hits[0]]


def test_normal_form_fixtures():
    f = parse_formula("<a:2> true")
    nf = normal_form(f, 2, 1, signature=SIG_A)
    cat = enumerate_types(SIG_A, 2, 1)
    satisfied = [e for e in cat.entries if satisfies(e.model, f)]
    assert len(satisfied) == 1
    assert nf == satisfied[0].formula

    assert normal_form(parse_formula("false"), 1, 1, signature=SIG_A) == Bot()
    everything = normal_form(parse_formula("true"), 1, 1, signature=SIG_A)
    cat = enumerate_types(SIG_A, 1, 1)
    for e in cat.entries:
        assert satisfies(e.model, everything)


def test_normal_form_rejects_out_of_fragment():
    with pytest.raises(ValueError):
        normal_form(parse_formula("<a:3> true"), 2, 1, signature=SIG_A)


def test_normal_form_rejects_a_catalog_of_other_bounds():
    # A cap-1 catalog has no type with two successors, so at cap 2 it would
    # turn "<a:2> true" into false.
    cat = enumerate_types(SIG_A, 1, 1)
    with pytest.raises(ValueError):
        normal_form(parse_formula("<a:2> true"), 2, 1, catalog=cat)
    with pytest.raises(ValueError):
        normal_form(parse_formula("<a:1> true"), 1, 2, catalog=cat)


def test_normal_form_agrees_semantically():
    rng = random.Random(19)
    cat = enumerate_types(SIG_AP, 1, 1)
    for _ in range(25):
        f = random_formula(rng, SIG_AP, depth=1, max_grade=1)
        nf = normal_form(f, 1, 1, catalog=cat)
        for e in cat.entries:
            assert satisfies(e.model, nf) == satisfies(e.model, f)
        for _ in range(10):
            m = random_structure(rng, SIG_AP)
            assert satisfies(m, nf) == satisfies(m, f)


def test_inferred_signature():
    f = parse_formula("(<a:2> p | <b:1> q)")
    sig = inferred_signature(f)
    assert sig.agents == ("a", "b")
    assert sig.props == ("p", "q")
    assert inferred_signature(parse_formula("true")) == Signature((), ())


def test_distinguishing_formula_fixtures():
    separator = distinguishing_formula(fan(2), fan(3), 3, 1)
    assert format_formula(separator) == "!<a:3> true"
    assert satisfies(fan(2), separator)
    assert not satisfies(fan(3), separator)

    assert distinguishing_formula(fan(2), fan(3), 2, 1) is None

    sig = Signature((), ("p",))
    a = PointedStructure(KripkeStructure(sig, 1, {}, {"p": {0}}), 0)
    b = PointedStructure(KripkeStructure(sig, 1, {}, {}), 0)
    literal = distinguishing_formula(a, b, 0, 0)
    assert format_formula(literal) == "p"


def test_distinguishing_formula_random():
    rng = random.Random(23)
    found = 0
    while found < 40:
        a, b = random_pair(rng)
        cap, depth = rng.randint(0, 2), rng.randint(0, 2)
        separator = distinguishing_formula(a, b, cap, depth)
        if separator is None:
            assert bounded_equivalence(a, b, cap, depth)
            continue
        assert in_fragment(separator, FragmentBound(cap, depth))
        assert satisfies(a, separator) and not satisfies(b, separator)
        found += 1


def test_conjuncts_flatten_left_to_right():
    p, q, r, s = (Prop(name) for name in "pqrs")
    assert _conjuncts(And(And(p, Not(q)), And(r, s))) == [p, Not(q), r, s]
    assert _conjuncts(p) == [p]
    atoms = [Diamond("a", k, p) for k in range(1, 3001)]
    assert _conjuncts(and_all(atoms)) == atoms
