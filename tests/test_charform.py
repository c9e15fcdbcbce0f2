import functools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodal import charform, equivalence
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
from gradedmodal.charform import CATALOG_BUDGET, _conjuncts, inferred_signature
from gradedmodal.kripke import dump_structure
from gradedmodal.syntax import and_all

from helpers import (
    SIG_A,
    SIG_AP,
    fan,
    fragment_formula,
    random_formula,
    random_pair,
    random_signature,
    random_structure,
    related_pair,
)
from oracles import (
    exact_catalog_size,
    level_loop_enumerate_types,
    per_entry_normal_form,
    print_ranked_distinguishing_formula,
    scan_catalog_formula,
    type_descriptors,
)


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
    assert catalog_size(SIG_AP, 2, 2) == CATALOG_BUDGET + 1
    # The exact size here has more digits than fit in memory.
    assert catalog_size(Signature(("a",), ("p", "q")), 3, 3) == CATALOG_BUDGET + 1


@pytest.mark.parametrize("sig, cap", [
    (Signature(("a",), ("p",)), 0),
    (Signature(("a", "b"), ("p", "q")), 0),
    (Signature((), ("p",)), 3),
    (Signature((), ()), 2),
])
def test_catalog_size_without_grades_or_agents(sig, cap):
    # Every level past 0 holds the same 2^k atomic types, so no depth costs
    # a loop over the levels.
    for depth in range(7):
        assert catalog_size(sig, cap, depth) == exact_catalog_size(sig, cap, depth)
    assert catalog_size(sig, cap, 10**9) == 2 ** len(sig.props)


def _same_catalog(built, expected):
    """Equal catalogs whose entry and level formulas are the same objects."""
    assert (built.signature, built.cap, built.depth) == (expected.signature, expected.cap, expected.depth)
    assert [e.type_id for e in built.entries] == [e.type_id for e in expected.entries]
    assert [e.model for e in built.entries] == [e.model for e in expected.entries]
    assert all(a.formula is b.formula for a, b in zip(built.entries, expected.entries))
    assert len(built.level_formulas) == len(expected.level_formulas)
    for level, formulas in zip(built.level_formulas, expected.level_formulas):
        assert len(level) == len(formulas) and all(a is b for a, b in zip(level, formulas))


@pytest.mark.parametrize("sig, cap", [
    (Signature(("a",), ("p",)), 0),
    (Signature(("a", "b"), ("p", "q")), 0),
    (Signature((), ("p",)), 3),
    (Signature((), ()), 2),
    (Signature((), ("p", "q", "r")), 0),
])
def test_catalog_without_grades_or_agents_repeats_level_zero(sig, cap):
    for depth in range(7):
        _same_catalog(enumerate_types(sig, cap, depth), level_loop_enumerate_types(sig, cap, depth))
    start = time.perf_counter()
    catalog = enumerate_types(sig, cap, 10**9)
    assert time.perf_counter() - start < 1
    assert len(catalog) == 2 ** len(sig.props) and len(catalog.level_formulas) == 10**9 + 1
    assert catalog.level_formulas[10**9] is catalog.level_formulas[0]
    assert catalog == enumerate_types(sig, cap, 10**9)
    with pytest.raises(IndexError):
        catalog.level_formulas[10**9 + 1]


def _feasible_settings():
    """Every setting with at most 2 agents, 3 propositions, cap 3 and depth 3
    whose catalog is within budget: five graded cases first, then the rest."""
    first = [
        (("a",), ("p", "q", "r"), 1, 1),
        (("a",), ("p",), 1, 2),
        (("a", "b"), (), 1, 2),
        (("a",), ("p",), 2, 1),
        (("a", "b"), ("p",), 1, 1),
    ]
    rest = [
        (agents, ("p", "q", "r")[:k], cap, depth)
        for agents in ((), ("a",), ("a", "b"))
        for k in range(4)
        for cap in range(4)
        for depth in range(4)
        if catalog_size(Signature(agents, ("p", "q", "r")[:k]), cap, depth) <= CATALOG_BUDGET
    ]
    return first + [setting for setting in rest if setting not in first]


_SETTINGS = _feasible_settings()


def test_the_settings_are_every_feasible_one():
    assert len(_SETTINGS) == len(set(_SETTINGS)) == 143


@pytest.mark.parametrize("agents, props, cap, depth", _SETTINGS)
def test_catalog_matches_the_level_loop(agents, props, cap, depth):
    sig = Signature(agents, props)
    built, expected = enumerate_types(sig, cap, depth), level_loop_enumerate_types(sig, cap, depth)
    _same_catalog(built, expected)
    assert [dump_structure(e.model) for e in built.entries] == [dump_structure(e.model) for e in expected.entries]
    rng = random.Random(f"{agents} {props} {cap} {depth}")
    for f in [Top(), Bot()] + [fragment_formula(rng, sig, cap, depth) for _ in range(4)]:
        assert normal_form(f, cap, depth, catalog=built) is per_entry_normal_form(f, expected)


@pytest.mark.parametrize("cap, depth, name", [
    (None, 2, "cap"), (1.5, 2, "cap"), ("2", 2, "cap"), (-1, 2, "cap"),
    (2, None, "depth"), (2, 1.0, "depth"), (2, -1, "depth"),
])
def test_chi_and_separator_refuse_bad_bounds_before_any_work(monkeypatch, cap, depth, name):
    def no_work(*args, **kwargs):
        raise AssertionError("bounds are checked before any refinement")

    for module in (charform, equivalence):
        monkeypatch.setattr(module, "refine_to", no_work)
    monkeypatch.setattr(charform, "bounded_equivalence", no_work)
    a = fan(2)
    message = f"^{name} must be a nonnegative integer, got {re.escape(repr(depth if name == 'depth' else cap))}$"
    with pytest.raises(ValueError, match=message):
        characteristic_formula(a, cap, depth)
    for other in (fan(2), fan(1)):  # equivalent and inequivalent points
        with pytest.raises(ValueError, match=message):
            distinguishing_formula(a, other, cap, depth)


@pytest.mark.parametrize("cap, depth, name", [
    (None, 2, "cap"), (1.0, 1, "cap"), ("2", 2, "cap"), (-1, 1, "cap"),
    (1, None, "depth"), (1, 1.0, "depth"), (1, -1, "depth"),
])
def test_catalogs_and_normal_forms_refuse_bad_bounds_before_any_work(monkeypatch, cap, depth, name):
    def no_work(*args, **kwargs):
        raise AssertionError("bounds are checked before any work")

    sizing = charform.catalog_size
    for target in ("refine_to", "_realize", "_atomic_description", "extension", "catalog_size", "in_fragment"):
        monkeypatch.setattr(charform, target, no_work)
    message = f"^{name} must be a nonnegative integer, got {re.escape(repr(depth if name == 'depth' else cap))}$"
    with pytest.raises(ValueError, match=message):
        sizing(SIG_AP, cap, depth)
    with pytest.raises(ValueError, match=message):
        enumerate_types(SIG_AP, cap, depth)
    with pytest.raises(ValueError, match=message):
        normal_form(Prop("p"), cap, depth, signature=SIG_AP)


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
                if catalog_size(sig, cap, depth) > CATALOG_BUDGET:
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


_catalog = functools.cache(enumerate_types)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_catalog_mode_matches_the_scan_with_a_memo_per_formula(seed):
    rng = random.Random(seed)
    sig, cap = rng.choice([(SIG_A, 2), (SIG_AP, 1)])
    cat = _catalog(sig, cap, 2)
    target = random_structure(rng, sig, edge_prob=rng.choice([0.15, 0.3, 0.5]))
    for depth in (0, 1, 2):
        assert characteristic_formula(target, cap, depth, catalog=cat) is scan_catalog_formula(target, cat, depth)


def test_catalog_mode_refuses_bare_mode():
    cat = enumerate_types(SIG_A, 2, 1)
    with pytest.raises(ValueError, match="exclude each other"):
        characteristic_formula(fan(2), 2, 1, catalog=cat, exclude_unrealized=False)


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
                    size = exact_catalog_size(sig, cap, depth)
                    assert catalog_size(sig, cap, depth) == min(size, CATALOG_BUDGET + 1)


def test_every_structure_matches_exactly_one_type():
    rng = random.Random(17)
    cat = enumerate_types(SIG_AP, 2, 1)
    ranked = sorted(_descriptor(e.model, 2, 1) for e in cat.entries)
    for _ in range(60):
        m = random_structure(rng, SIG_AP)
        hits = [e.type_id for e in cat.entries if satisfies(m, e.formula)]
        assert len(hits) == 1
        assert _descriptor(m, 2, 1) == ranked[hits[0]]


@pytest.mark.parametrize("agents, props, cap, depth, text", [
    (("a",), ("p", "q", "r"), 1, 1, "(p | (q | r))"),
    (("a",), ("p",), 1, 2, "<a:1> (p & !<a:1> p)"),
])
def test_catalog_and_normal_form_build_no_entry_model(monkeypatch, agents, props, cap, depth, text):
    def no_tree(*args):
        raise AssertionError("a canonical tree was built")

    sig, f = Signature(agents, props), parse_formula(text)
    monkeypatch.setattr(charform, "_realize", no_tree)
    catalog = enumerate_types(sig, cap, depth)
    nf = normal_form(f, cap, depth, catalog=catalog)
    assert normal_form(f, cap, depth, signature=sig) is nf
    assert len(catalog) == len({e.formula for e in catalog.entries}) == catalog_size(sig, cap, depth)
    monkeypatch.undo()
    expected = level_loop_enumerate_types(sig, cap, depth)
    assert nf is per_entry_normal_form(f, expected) and nf is not Bot()
    assert [e.model for e in catalog.entries] == [e.model for e in expected.entries]


def test_a_catalog_built_directly_derives_its_arena_once(monkeypatch):
    catalog = level_loop_enumerate_types(SIG_AP, 1, 2)
    f = parse_formula("<a:1> (p & !<a:1> p)")
    nf = normal_form(f, 1, 2, catalog=catalog)
    assert nf is normal_form(f, 1, 2, catalog=enumerate_types(SIG_AP, 1, 2))

    def no_union(*args, **kwargs):
        raise AssertionError("the arena was derived again")

    monkeypatch.setattr(charform, "disjoint_union", no_union)
    g = parse_formula("!<a:1> p")
    assert normal_form(g, 1, 2, catalog=catalog) is per_entry_normal_form(g, catalog)


@pytest.mark.parametrize("agents, props, cap, depth", _SETTINGS[:5])
def test_catalog_arenas_seed_the_atom_ids_of_their_valuation(agents, props, cap, depth):
    sig = Signature(agents, props)
    arena, _ = enumerate_types(sig, cap, depth)._arena
    recomputed = KripkeStructure._assemble(sig, arena.world_count, arena.valuation, arena._succ)
    assert arena._atoms is not None and arena._atoms == recomputed._atom_ids()


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


def test_distinguishing_formula_matches_the_print_ranked_oracle():
    rng = random.Random(29)
    found = 0
    for index in range(150):
        a, b = (related_pair if index % 2 else random_pair)(rng)
        cap, depth = rng.randint(0, 3), rng.randint(0, 3)
        separator = distinguishing_formula(a, b, cap, depth)
        assert separator is print_ranked_distinguishing_formula(a, b, cap, depth)
        found += separator is not None
    assert found >= 50


def test_chi_read_off_the_verdicts_history_is_the_chi_of_the_left_point_alone():
    rng = random.Random(31)
    for index in range(120):
        a, b = (related_pair if index % 2 else random_pair)(rng)
        cap, depth = rng.randint(0, 3), rng.randint(0, 3)
        history = bounded_equivalence(a, b, cap, depth).history
        chi = charform._characteristic(history, a.point, a.structure.world_count, True)
        assert chi is characteristic_formula(a, cap, depth)


def test_conjuncts_flatten_left_to_right():
    p, q, r, s = (Prop(name) for name in "pqrs")
    assert _conjuncts(And(And(p, Not(q)), And(r, s))) == [p, Not(q), r, s]
    assert _conjuncts(p) == [p]
    atoms = [Diamond("a", k, p) for k in range(1, 3001)]
    assert _conjuncts(and_all(atoms)) == atoms
