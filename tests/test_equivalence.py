import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodal import (
    KripkeStructure,
    PointedStructure,
    Signature,
    SignatureError,
    atomic_history,
    bounded_equivalence,
    full_graded_bisimilarity,
    refine,
    refine_to,
    relation_is_graded_bisimulation,
    solve_game,
)
from gradedmodal.equivalence import RelationViolation, _max_matching
from gradedmodal.kripke import disjoint_union, part_offsets

from helpers import SIG_A, chain, fan, loop1, random_pair, random_signature, random_structure
from oracles import type_descriptors


def _fan_arena_history(cap):
    parts = [fan(2).structure, fan(3).structure]
    arena = disjoint_union(parts)
    return refine(atomic_history(arena, cap, part_offsets(parts)))


def test_refine_fan_roots_cap2_share_class():
    history = _fan_arena_history(2)
    assert history.class_of(0) == history.class_of(3)
    assert bool(solve_game(fan(2), fan(3), 2, 1).winner == "duplicator")


def test_refine_fan_roots_cap3_split():
    history = _fan_arena_history(3)
    assert history.class_of(0) != history.class_of(3)
    assert solve_game(fan(2), fan(3), 3, 1).winner == "spoiler"


def test_refine_preserves_atomic_split():
    sig = Signature((), ("p",))
    a = KripkeStructure(sig, 1, {}, {"p": {0}})
    b = KripkeStructure(sig, 1, {}, {"p": set()})
    arena = disjoint_union([a, b])
    history = atomic_history(arena, 2, (0, 1))
    assert history.class_of(0) != history.class_of(1)
    history = refine(history)
    assert history.class_of(0) != history.class_of(1)


def test_refine_requires_level():
    with pytest.raises(ValueError):
        atomic_history(fan(1).structure, -1)


def test_refine_to_matches_hand_loop():
    rng = random.Random(109)
    for _ in range(20):
        a, b = random_pair(rng)
        parts = [a.structure, b.structure]
        arena = disjoint_union(parts)
        offsets = part_offsets(parts)
        for cap in (None, 0, 1, 2, 3):
            history = atomic_history(arena, cap, offsets)
            for depth in range(arena.world_count + 1):
                assert refine_to(arena, cap, offsets, depth) == history
                history = refine(history)
            fixpoint = atomic_history(arena, cap, offsets)
            while not fixpoint.is_stable():
                fixpoint = refine(fixpoint)
            assert refine_to(arena, cap, offsets) == fixpoint


def test_levels_refine_and_stabilize():
    rng = random.Random(61)
    for _ in range(20):
        a, b = random_pair(rng)
        arena = disjoint_union([a.structure, b.structure])
        history = atomic_history(arena, None, (0, a.structure.world_count))
        for _ in range(arena.world_count):
            history = refine(history)
        # refinement chain: every level refines the previous one
        for lo, hi in zip(history.levels, history.levels[1:]):
            blocks = {}
            for world, cls in enumerate(hi):
                blocks.setdefault(cls, set()).add(lo[world])
            assert all(len(parents) == 1 for parents in blocks.values())
        assert history.levels[-1] == history.levels[-2]


def test_bounded_equivalence_fan_family():
    for j in range(1, 5):
        for k in range(1, 5):
            for cap in range(0, 5):
                expected = min(j, cap) == min(k, cap)
                assert bool(bounded_equivalence(fan(j), fan(k), cap, 1)) == expected
                game = solve_game(fan(j), fan(k), cap, 1)
                assert (game.winner == "duplicator") == expected


def test_bounded_equivalence_reflexive():
    rng = random.Random(67)
    for _ in range(10):
        a, _ = random_pair(rng)
        for cap in range(3):
            for depth in range(3):
                assert bounded_equivalence(a, a, cap, depth)


def test_bounded_equivalence_is_equivalence_relation():
    rng = random.Random(59)
    for _ in range(25):
        sig = random_signature(rng)
        a = random_structure(rng, sig)
        b = random_structure(rng, sig)
        c = random_structure(rng, sig)
        for cap, depth in ((1, 1), (2, 2)):
            ab = bool(bounded_equivalence(a, b, cap, depth))
            assert ab == bool(bounded_equivalence(b, a, cap, depth))
            if ab and bounded_equivalence(b, c, cap, depth):
                assert bounded_equivalence(a, c, cap, depth)


def test_bounded_equivalence_rejects_mismatch():
    with pytest.raises(SignatureError):
        bounded_equivalence(fan(1), fan(1, Signature(("b",), ())), 1, 1)


def test_graded_equivalence_fixtures():
    assert not bounded_equivalence(fan(2), fan(3), None, 1)
    assert bounded_equivalence(fan(2), fan(3), None, 0)
    assert bounded_equivalence(loop1(), chain(5), None, 1)
    assert not full_graded_bisimilarity(loop1(), chain(5))


def test_graded_equivalence_equals_bounded_at_max_outdegree():
    rng = random.Random(71)
    for _ in range(30):
        a, b = random_pair(rng)
        arena = disjoint_union([a.structure, b.structure])
        max_deg = max(
            (
                len(arena.successors(agent, w))
                for agent in arena.signature.agents
                for w in arena.worlds()
            ),
            default=0,
        )
        for depth in range(3):
            assert bool(bounded_equivalence(a, b, None, depth)) == bool(
                bounded_equivalence(a, b, max_deg, depth)
            )


def test_full_bisimilarity_loop_vs_two_cycle():
    two_cycle = PointedStructure(
        KripkeStructure(SIG_A, 2, {"a": {(0, 1), (1, 0)}}, {}), 0
    )
    result = full_graded_bisimilarity(loop1(), two_cycle)
    assert result
    relation = result.induced_relation()
    assert relation_is_graded_bisimulation(relation, loop1().structure, two_cycle.structure)


def test_full_bisimilarity_fan_mismatch():
    assert not full_graded_bisimilarity(fan(2), fan(3))


def test_full_bisimilarity_junk_invariance():
    rng = random.Random(73)
    for _ in range(10):
        sig = random_signature(rng)
        a = random_structure(rng, sig)
        junk = random_structure(rng, sig, max_worlds=4).structure
        padded = disjoint_union([a.structure, junk], point_from=(0, a.point))
        assert full_graded_bisimilarity(a, padded)


def test_equivalence_monotone_in_bounds():
    rng = random.Random(83)
    for _ in range(60):
        a, b = random_pair(rng)
        for cap in range(2):
            for depth in range(2):
                if bounded_equivalence(a, b, cap + 1, depth):
                    assert bounded_equivalence(a, b, cap, depth)
                if bounded_equivalence(a, b, cap, depth + 1):
                    assert bounded_equivalence(a, b, cap, depth)


def test_identity_relation_is_bisimulation():
    rng = random.Random(89)
    for _ in range(10):
        m = random_structure(rng, random_signature(rng)).structure
        identity = {(w, w) for w in m.worlds()}
        assert relation_is_graded_bisimulation(identity, m, m)


def test_root_pair_alone_fails():
    check = relation_is_graded_bisimulation({(0, 0)}, fan(2).structure, fan(3).structure)
    assert not check.ok
    assert check.violation.kind in ("forth", "back")
    assert check.violation.agent == "a"


def test_stable_relation_is_bisimulation():
    rng = random.Random(97)
    hits = 0
    while hits < 10:
        a, b = random_pair(rng)
        result = full_graded_bisimilarity(a, b)
        if not result:
            continue
        relation = result.induced_relation()
        assert relation_is_graded_bisimulation(relation, a.structure, b.structure)
        hits += 1


def test_relation_checker_validates_input():
    with pytest.raises(ValueError):
        relation_is_graded_bisimulation(set(), fan(1).structure, fan(1).structure)
    with pytest.raises(ValueError):
        relation_is_graded_bisimulation({(0, 9)}, fan(1).structure, fan(1).structure)


def test_cap_zero_is_atom_equivalence():
    rng = random.Random(101)
    for _ in range(30):
        a, b = random_pair(rng)
        atoms_equal = all(
            (a.point in a.structure.valuation[p]) == (b.point in b.structure.valuation[p])
            for p in a.signature.props
        )
        for depth in range(3):
            assert bool(bounded_equivalence(a, b, 0, depth)) == atoms_equal


def test_oracle_descriptors_match_refinement():
    rng = random.Random(103)
    for _ in range(40):
        a, b = random_pair(rng)
        for cap in (None, 0, 1, 2, 3):
            for depth in range(3):
                left = type_descriptors(a.structure, cap, depth)[a.point]
                right = type_descriptors(b.structure, cap, depth)[b.point]
                assert (left == right) == bool(bounded_equivalence(a, b, cap, depth))


def test_count_vector_matches_refinement_key():
    parts = [fan(2).structure, fan(3).structure]
    arena = disjoint_union(parts)
    history = refine(atomic_history(arena, 2, part_offsets(parts)))
    counts_left = history.count_vector(0, level=0)
    counts_right = history.count_vector(3, level=0)
    # both roots see two (capped) successors of the single atomic class
    assert counts_left == counts_right == {"a": {0: 2}}
    exact = refine(atomic_history(arena, None, part_offsets(parts)))
    assert exact.count_vector(3, level=0) == {"a": {0: 3}}


def test_history_serialization():
    result = bounded_equivalence(fan(2), fan(3), 2, 1)
    payload = result.history.to_json_dict()
    json.dumps(payload)
    assert payload["cap"] == 2
    assert payload["part_offsets"] == [0, 3]
    assert len(payload["levels"]) == 2
    flattened = sorted(w for cls in payload["levels"][0] for w in cls)
    assert flattened == list(range(7))
    exact = full_graded_bisimilarity(fan(2), fan(2)).history.to_json_dict()
    assert exact["cap"] == "exact"


@st.composite
def _arenas(draw):
    """One- or two-part arenas: small random structures, unions with junk,
    sparse random graphs, and chains and cycles marked at one world."""
    sig = Signature(("a", "b")[: draw(st.integers(1, 2))], ("p", "q")[: draw(st.integers(0, 2))])

    def random_part(max_worlds):
        n = draw(st.integers(1, max_worlds))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {a: draw(st.sets(pairs, max_size=3 * n)) for a in sig.agents}
        valuation = {p: draw(st.sets(st.integers(0, n - 1))) for p in sig.props}
        return KripkeStructure(sig, n, edges, valuation)

    def part():
        kind = draw(st.sampled_from(["random", "junk", "sparse", "chain", "cycle"]))
        if kind == "random":
            return random_part(8)
        if kind == "junk":
            return disjoint_union([random_part(6), random_part(6)])
        if kind == "sparse":
            n = draw(st.integers(1, 40))
            targets = st.lists(st.integers(0, n - 1), max_size=2)
            edges = {a: {(u, v) for u in range(n) for v in draw(targets)} for a in sig.agents}
            return KripkeStructure(sig, n, edges, {p: {0} for p in sig.props[:1]})
        n = draw(st.integers(1, 40))
        line = {(i, i + 1) for i in range(n - 1)} | ({(n - 1, 0)} if kind == "cycle" else set())
        mark = {p: {draw(st.integers(0, n - 1))} for p in sig.props[:1]}
        return KripkeStructure(sig, n, {draw(st.sampled_from(sig.agents)): line}, mark)

    parts = [part() for _ in range(draw(st.integers(1, 2)))]
    return disjoint_union(parts), part_offsets(parts)


@settings(max_examples=200, deadline=None)
@given(_arenas(), st.sampled_from([None, 0, 1, 2, 3]))
def test_kernel_matches_hand_loop_at_every_level(arena_offsets, cap):
    arena, offsets = arena_offsets
    history = atomic_history(arena, cap, offsets)
    for depth in range(5):
        assert refine_to(arena, cap, offsets, depth) == history
        history = refine(history)
    fixpoint = atomic_history(arena, cap, offsets)
    while not fixpoint.is_stable():
        fixpoint = refine(fixpoint)
    assert refine_to(arena, cap, offsets) == fixpoint


def test_kernel_matches_hand_loop_on_sparse_graphs():
    # Sparse graphs keep most worlds clean from round to round, so nearly
    # every round after the first is incremental.
    rng = random.Random(1)
    for _ in range(60):
        sig = Signature(("a", "b")[: rng.randint(1, 2)], ("p",)[: rng.randint(0, 1)])
        n = rng.randint(4, 60)
        degree = rng.choice([1, 1, 2, 3])
        edges = {
            a: {(u, rng.randrange(n)) for u in range(n) for _ in range(rng.randint(0, degree))}
            for a in sig.agents
        }
        valuation = {p: {w for w in range(n) if rng.random() < 0.1} for p in sig.props}
        arena = KripkeStructure(sig, n, edges, valuation)
        for cap in (None, 1, 2):
            fixpoint = atomic_history(arena, cap)
            while not fixpoint.is_stable():
                fixpoint = refine(fixpoint)
            assert refine_to(arena, cap) == fixpoint


def test_kernel_refines_the_empty_aggregate():
    empty = KripkeStructure(SIG_A, 0)
    for cap in (None, 0, 2):
        history = atomic_history(empty, cap)
        assert refine_to(empty, cap, depth=2) == refine(refine(history))
        assert refine_to(empty, cap) == refine(history)
        assert refine_to(empty, cap, depth=2).levels == ((), (), ())
        assert refine_to(empty, cap).levels == ((), ())


def _marked_chain(n: int) -> KripkeStructure:
    """Worlds 0 -> 1 -> ... -> n-1 along 'a', with p true at world n-1 only."""
    sig = Signature(("a",), ("p",))
    return KripkeStructure(sig, n, {"a": {(i, i + 1) for i in range(n - 1)}}, {"p": {n - 1}})


def test_only_a_second_round_builds_predecessor_lists():
    chain = _marked_chain(5)
    refine_to(chain, None, depth=1)
    assert chain._pred is None
    refine_to(chain, None, depth=2)
    assert chain._pred is not None


def test_long_marked_chain_takes_one_round_per_world():
    # World i is n-1-i steps from the mark, so each round splits off one distance.
    m, longer = _marked_chain(1000), _marked_chain(1001)
    result = full_graded_bisimilarity(PointedStructure(m, 0), PointedStructure(m, 0))
    assert result.equivalent and result.history.rounds == 999
    assert len(set(result.history.levels[-1])) == 1000
    assert not full_graded_bisimilarity(PointedStructure(m, 0), PointedStructure(longer, 0))
    assert full_graded_bisimilarity(PointedStructure(m, 0), PointedStructure(longer, 1))
    assert full_graded_bisimilarity(PointedStructure(m, 500), PointedStructure(longer, 501))
    assert not full_graded_bisimilarity(PointedStructure(m, 500), PointedStructure(longer, 500))


def _recursive_kuhn(left, right, allowed):
    """The former ``_max_matching``: recursive, scanning all of ``right``."""
    match = [None] * len(right)

    def augment(u, seen):
        for j, v in enumerate(right):
            if (u, v) in allowed and not seen[j]:
                seen[j] = True
                if match[j] is None or augment(match[j], seen):
                    match[j] = u
                    return True
        return False

    for u in left:
        augment(u, [False] * len(right))
    return {right[j]: u for j, u in enumerate(match) if u is not None}


def test_matching_agrees_with_recursive_kuhn():
    rng = random.Random(23)
    for _ in range(300):
        left = tuple(sorted(rng.sample(range(12), rng.randint(0, 8))))
        right = tuple(sorted(rng.sample(range(12), rng.randint(0, 8))))
        related = {(x, y) for x in range(12) for y in range(12) if rng.random() < 0.3}
        partners = {}
        for x, y in related:
            partners.setdefault(x, set()).add(y)
        allowed = frozenset((x, y) for x in left for y in right if (x, y) in related)
        assert _max_matching(left, right, partners) == _recursive_kuhn(left, right, allowed)


def test_matching_follows_long_augmenting_paths():
    # Successor i of the root is related to i-1 and i, so every new left
    # successor first retraces the whole staircase before it finds a partner.
    k = 1200
    m = KripkeStructure(SIG_A, k + 1, {"a": {(0, i) for i in range(1, k + 1)}})
    relation = {(0, 0), (1, 1)} | {(i, j) for i in range(2, k + 1) for j in (i - 1, i)}
    assert relation_is_graded_bisimulation(relation, m, m)
    broken = relation - {(k, k)} - {(k, k - 1)}
    check = relation_is_graded_bisimulation(broken, m, m)
    assert check.violation == RelationViolation("forth", (0, 0), "a", k)
