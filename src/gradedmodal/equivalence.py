"""Counting-bisimulation equivalences via counted partition refinement.

A ``ColorHistory`` records, level by level, the equivalence classes of the
worlds of an arena (the disjoint union of one or two structures).  Level 0
partitions by atomic type; each further level splits worlds whose per-agent,
per-class successor counts differ, with counts capped at ``cap`` when a cap
is set.  The capped fixpoint at level m is exactly m-round cost-bounded
game equivalence, which the game module cross-checks independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import SignatureError
from .kripke import KripkeStructure, PointedStructure, disjoint_union, part_offsets


@dataclass(frozen=True)
class ColorHistory:
    """Level-indexed partitions of an arena under counted refinement.

    ``cap`` is the counting bound, or ``None`` for exact counting.  Class ids
    are canonical: at every level they are ranks of sorted refinement keys,
    so histories are reproducible across runs and platforms.
    """

    arena: KripkeStructure
    cap: Optional[int]
    part_offsets: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]

    @property
    def rounds(self) -> int:
        return len(self.levels) - 1

    def class_of(self, world: int, level: int = -1) -> int:
        return self.levels[level][world]

    def classes(self, level: int = -1) -> list[tuple[int, ...]]:
        """Classes at a level as sorted world tuples, ordered by class id."""
        assignment = self.levels[level]
        buckets: dict[int, list[int]] = {}
        for world, cls in enumerate(assignment):
            buckets.setdefault(cls, []).append(world)
        return [tuple(sorted(buckets[c])) for c in sorted(buckets)]

    def count_vector(self, world: int, level: int = -1) -> dict[str, dict[int, int]]:
        """Per agent, successor counts by class at ``level`` (capped if set)."""
        assignment = self.levels[level]
        result: dict[str, dict[int, int]] = {}
        for agent in self.arena.signature.agents:
            counts: dict[int, int] = {}
            for v in self.arena.successors(agent, world):
                cls = assignment[v]
                counts[cls] = counts.get(cls, 0) + 1
            if self.cap is not None:
                counts = {cls: min(n, self.cap) for cls, n in counts.items()}
            result[agent] = counts
        return result

    def is_stable(self) -> bool:
        return len(self.levels) >= 2 and self.levels[-1] == self.levels[-2]

    def to_json_dict(self) -> dict:
        return {
            "cap": "exact" if self.cap is None else self.cap,
            "world_count": self.arena.world_count,
            "part_offsets": list(self.part_offsets),
            "levels": [
                [list(cls) for cls in self.classes(level)]
                for level in range(len(self.levels))
            ],
        }


def _atom_keys(m: KripkeStructure) -> list[tuple[bool, ...]]:
    return [tuple(w in m.valuation[p] for p in m.signature.props) for w in m.worlds()]


def _level_keys(m: KripkeStructure, prev: list, cap: Optional[int]) -> list:
    """The refinement key of every world, one whole level per call.

    A world's key is its previous label plus, per agent, the sorted
    (label, count) pairs of its successors' previous labels, counts capped
    at ``cap`` (pairs capped to zero dropped) unless ``cap`` is None.
    Labels may be class ids or nested descriptors alike.
    """
    agents = m.signature.agents
    keys = []
    for world in m.worlds():
        parts = []
        for agent in agents:
            counts: dict = {}
            for v in m.successors(agent, world):
                label = prev[v]
                counts[label] = counts.get(label, 0) + 1
            if cap is not None:
                entries = tuple(
                    sorted((label, min(n, cap)) for label, n in counts.items() if min(n, cap) > 0)
                )
            else:
                entries = tuple(sorted(counts.items()))
            parts.append(entries)
        keys.append((prev[world], tuple(parts)))
    return keys


def _ranks(keys: list) -> tuple[int, ...]:
    """Canonical class ids: the rank of each key among the sorted distinct keys."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return tuple(rank[key] for key in keys)


def atomic_history(
    arena: KripkeStructure,
    cap: Optional[int],
    offsets: tuple[int, ...] = (0,),
) -> ColorHistory:
    """Level-0 history: worlds partitioned by their atomic type."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    return ColorHistory(arena, cap, offsets, (_ranks(_atom_keys(arena)),))


def refine(history: ColorHistory) -> ColorHistory:
    """Append one refinement level.

    Two worlds share a new class iff they share the old one and their capped
    per-agent, per-old-class successor counts coincide.
    """
    keys = _level_keys(history.arena, history.levels[-1], history.cap)
    return ColorHistory(
        history.arena, history.cap, history.part_offsets, history.levels + (_ranks(keys),)
    )


def refine_to(
    arena: KripkeStructure,
    cap: Optional[int],
    offsets: tuple[int, ...] = (0,),
    depth: Optional[int] = None,
) -> ColorHistory:
    """The refinement kernel: ``depth`` rounds from the atomic level.

    With ``depth=None`` refinement runs to its fixed point: the history ends
    at the first level that repeats its predecessor.
    """
    history = atomic_history(arena, cap, offsets)
    if depth is not None:
        for _ in range(depth):
            history = refine(history)
        return history
    for _ in range(arena.world_count):
        history = refine(history)
        if history.is_stable():
            return history
    # |arena| strict refinements of a |arena|-element set are impossible.
    raise AssertionError("refinement failed to stabilize")


@dataclass(frozen=True)
class EquivalenceResult:
    """Verdict plus the refinement history that certifies it."""

    equivalent: bool
    history: ColorHistory
    points: tuple[int, int]

    def __bool__(self) -> bool:
        return self.equivalent

    def induced_relation(self) -> frozenset[tuple[int, int]]:
        """Pairs (left world, right world) sharing a final-level class."""
        offsets = self.history.part_offsets
        if len(offsets) != 2:
            raise ValueError("induced_relation needs a two-part arena")
        split = offsets[1]
        final = self.history.levels[-1]
        total = self.history.arena.world_count
        by_class: dict[int, tuple[list[int], list[int]]] = {}
        for world in range(total):
            side = by_class.setdefault(final[world], ([], []))
            if world < split:
                side[0].append(world)
            else:
                side[1].append(world - split)
        pairs = set()
        for lefts, rights in by_class.values():
            pairs.update((u, v) for u in lefts for v in rights)
        return frozenset(pairs)


def _verdict(
    a: PointedStructure, b: PointedStructure, cap: Optional[int], depth: Optional[int]
) -> EquivalenceResult:
    if a.signature != b.signature:
        raise SignatureError("the two structures carry different signatures")
    parts = [a.structure, b.structure]
    offsets = part_offsets(parts)
    history = refine_to(disjoint_union(parts), cap, offsets, depth)
    points = (a.point, offsets[1] + b.point)
    return EquivalenceResult(
        history.class_of(points[0]) == history.class_of(points[1]), history, points
    )


def bounded_equivalence(
    a: PointedStructure, b: PointedStructure, cap: Optional[int], depth: int
) -> EquivalenceResult:
    """Cost-bounded equivalence: ``depth`` rounds of cap-``cap`` refinement.

    ``cap=None`` counts successors exactly (graded equivalence at ``depth``).
    """
    if (cap is not None and cap < 0) or depth < 0:
        raise ValueError("cap and depth must be nonnegative")
    return _verdict(a, b, cap, depth)


def full_graded_bisimilarity(a: PointedStructure, b: PointedStructure) -> EquivalenceResult:
    """Unbounded counting bisimilarity: exact refinement run to a fixed point."""
    return _verdict(a, b, None, None)


def _max_matching(
    left: tuple[int, ...], right: tuple[int, ...], allowed: frozenset[tuple[int, int]]
) -> dict[int, int]:
    """Maximum bipartite matching (Kuhn's augmenting paths); right -> left."""
    right_index = {v: j for j, v in enumerate(right)}
    match: list[Optional[int]] = [None] * len(right)

    def augment(u: int, seen: list[bool]) -> bool:
        for v in right:
            j = right_index[v]
            if (u, v) in allowed and not seen[j]:
                seen[j] = True
                if match[j] is None or augment(match[j], seen):
                    match[j] = u
                    return True
        return False

    for u in left:
        augment(u, [False] * len(right))
    return {right[j]: u for j, u in enumerate(match) if u is not None}


@dataclass(frozen=True)
class RelationViolation:
    kind: str  # "atoms" | "forth" | "back"
    pair: tuple[int, int]
    agent: Optional[str] = None
    world: Optional[int] = None


@dataclass(frozen=True)
class RelationCheck:
    ok: bool
    violation: Optional[RelationViolation] = None

    def __bool__(self) -> bool:
        return self.ok


def relation_is_graded_bisimulation(
    relation: Iterable[tuple[int, int]],
    a: KripkeStructure,
    b: KripkeStructure,
) -> RelationCheck:
    """Check an explicit relation against the counting-bisimulation conditions.

    Atom equivalence is checked pairwise.  The forth condition at a pair and
    agent demands, for every k, a matching of any k distinct left successors
    into related right successors; on finite structures this holds for all k
    iff a maximum bipartite matching over the related successor pairs
    saturates the left successor set (Hall's condition), and symmetrically
    for back.  The first violation is reported with a witness.
    """
    if a.signature != b.signature:
        raise SignatureError("the two structures carry different signatures")
    pairs = sorted(set((int(u), int(v)) for u, v in relation))
    if not pairs:
        raise ValueError("the relation must be nonempty")
    for u, v in pairs:
        if not 0 <= u < a.world_count:
            raise ValueError(f"left world {u} out of range")
        if not 0 <= v < b.world_count:
            raise ValueError(f"right world {v} out of range")
    related = frozenset(pairs)
    for u, v in pairs:
        for prop in a.signature.props:
            if (u in a.valuation[prop]) != (v in b.valuation[prop]):
                return RelationCheck(False, RelationViolation("atoms", (u, v)))
    for u, v in pairs:
        for agent in a.signature.agents:
            left = a.successors(agent, u)
            right = b.successors(agent, v)
            allowed = frozenset(
                (x, y) for x in left for y in right if (x, y) in related
            )
            matching = _max_matching(left, right, allowed)
            if len(matching) < len(left):
                matched_left = set(matching.values())
                missing = min(x for x in left if x not in matched_left)
                return RelationCheck(
                    False, RelationViolation("forth", (u, v), agent, missing)
                )
            if len(matching) < len(right):
                missing = min(y for y in right if y not in matching)
                return RelationCheck(
                    False, RelationViolation("back", (u, v), agent, missing)
                )
    return RelationCheck(True)


def type_descriptor(
    m: KripkeStructure, world: int, cap: Optional[int], depth: int
):
    """Canonical inductive type of a world at the given cap and depth.

    Two worlds (of structures over one signature) get equal descriptors iff
    they are equivalent at that cap and depth; this is the value-level twin
    of the refinement classes and is arena-independent.
    """
    return _descriptors(m, cap, depth)[world]


def _descriptors(m: KripkeStructure, cap: Optional[int], depth: int) -> list:
    """The type descriptor of every world: ``depth`` levels of nested keys.

    A level-``d`` descriptor is ``(level-(d-1) descriptor, per-agent sorted
    (child descriptor, capped count) pairs)``; level 0 is the atom tuple.
    """
    level = _atom_keys(m)
    for _ in range(depth):
        level = _level_keys(m, level, cap)
    return level
