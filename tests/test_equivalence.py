import json
import random

import pytest

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
    type_descriptor,
)
from gradedmodal.kripke import disjoint_union, part_offsets

from helpers import SIG_A, chain, fan, loop1, random_pair, random_signature, random_structure


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


def test_type_descriptor_matches_refinement():
    rng = random.Random(103)
    for _ in range(40):
        a, b = random_pair(rng)
        for cap in (None, 0, 1, 2, 3):
            for depth in range(3):
                same_desc = type_descriptor(
                    a.structure, a.point, cap, depth
                ) == type_descriptor(b.structure, b.point, cap, depth)
                assert same_desc == bool(bounded_equivalence(a, b, cap, depth))


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
