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
from typing import Callable, Iterable, Optional

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
    return tuple(map(rank.__getitem__, keys))


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


class _StableBlocks:
    """The state of the refinement kernel between its rounds.

    Every class has a stable block id: when a class splits, one part keeps
    its id and the other parts get fresh ids.  ``key_of[b]`` is the key the
    members of block ``b`` had when it was last computed, over block ids.  A
    member none of whose successors changed block since still has that key,
    so a round recomputes only the predecessors of the worlds that moved.
    The first round knows no keys and recomputes every world.
    """

    __slots__ = ("block", "size", "key_of", "order", "canon", "moved")

    def __init__(self, level: tuple[int, ...]):
        """The atomic level, one block per class, with no key known yet."""
        self.block = list(level)
        self.size = [0] * len(set(level))
        for b in level:
            self.size[b] += 1
        self.key_of: list = [None] * len(self.size)
        self.order = list(range(len(self.size)))  # canonical id -> block id
        self.canon = self.order[:]  # block id -> canonical id
        self.moved: Optional[list[int]] = None

    def round(
        self,
        keys_of: Callable[[list, Iterable[int]], list],
        predecessors: Callable[[], dict],
        level: tuple[int, ...],
    ) -> tuple[int, ...]:
        """The next level, or ``level`` itself if no class splits.

        ``keys_of(labels, worlds)`` gives the worlds' keys over ``labels``;
        ``predecessors()`` gives each agent's predecessor lists, and is
        called only from the second round on.

        Unsplit classes keep their rank among ``level``'s ids; the parts of a
        split class are ranked by their keys over ``level``'s ids, which is
        the order ``refine`` gives them.
        """
        block, size, key_of = self.block, self.size, self.key_of
        dirty: Iterable[int] = range(len(block))
        if self.moved is not None:
            dirty = set()
            for pred in predecessors().values():
                dirty.update(*map(pred.__getitem__, self.moved))
        # Every key is computed before any world changes block.
        touched: dict[int, dict[tuple, list[int]]] = {}
        for w, k in zip(dirty, keys_of(block, dirty)):
            touched.setdefault(block[w], {}).setdefault(k, []).append(w)
        self.moved = []
        splits: dict[int, list[tuple[tuple, int]]] = {}  # canonical id -> parts
        for b, groups in touched.items():
            if sum(map(len, groups.values())) < size[b]:
                # The members not recomputed keep the id.  A recomputed key
                # names a block made in the last round and theirs cannot, so
                # every recomputed member leaves.
                kept = key_of[b]
            else:
                kept = key_of[b] = max(groups, key=lambda k: len(groups[k]))
                if len(groups) == 1:
                    continue
            parts = [(kept, b)]
            for k, worlds in groups.items():
                if k == kept:
                    continue
                fresh = len(size)
                size.append(len(worlds))
                key_of.append(k)
                size[b] -= len(worlds)
                for w in worlds:
                    block[w] = fresh
                self.moved.extend(worlds)
                parts.append((k, fresh))
            splits[self.canon[b]] = parts
        if not splits:
            return level
        canon = self.canon

        def canonical(part: tuple[tuple, int]) -> list:
            """The part's key as ``refine`` writes it: per agent, the sorted
            (label, count) pairs over ``level``'s ids."""
            key = []
            for found in part[0]:
                counts: dict[int, int] = {}
                for c in map(canon.__getitem__, found):
                    counts[c] = counts.get(c, 0) + 1
                key.append(sorted(counts.items()))
            return key

        order: list[int] = []
        start = 0
        for position in sorted(splits):
            order += self.order[start:position]
            order += [b for _, b in sorted(splits[position], key=canonical)]
            start = position + 1
        order = self.order = order + self.order[start:]
        self.canon = sorted(range(len(order)), key=order.__getitem__)  # the inverse
        return tuple(map(self.canon.__getitem__, block))


def refine_to(
    arena: KripkeStructure,
    cap: Optional[int],
    offsets: tuple[int, ...] = (0,),
    depth: Optional[int] = None,
) -> ColorHistory:
    """The refinement kernel: ``depth`` rounds from the atomic level.

    With ``depth=None`` refinement runs to its fixed point: the history ends
    at the first level that repeats its predecessor.

    The result equals that many ``refine`` steps, level for level.  Every
    round is a ``_StableBlocks`` round: the first recomputes every key, and
    each later one only the keys of worlds with a successor that changed
    class in the round before.
    """
    level = atomic_history(arena, cap, offsets).levels[0]
    levels = [level]
    # Cap 0 drops every count, so no key then depends on the successors.
    succs = [arena._succ[agent] for agent in arena.signature.agents] if cap != 0 else []

    def keys_of(labels, worlds: Iterable[int]) -> list[tuple]:
        """Per world, per agent, its successors' labels as a sorted tuple in
        which no label occurs more than ``cap`` times."""
        label_of = labels.__getitem__
        keys = []
        for world in worlds:
            parts = []
            for succ in succs:
                found = sorted(map(label_of, succ[world]))
                if cap is not None and len(found) > cap:
                    # found[i] is past the cap iff found[i - cap] is the same label.
                    found = [x for i, x in enumerate(found) if i < cap or found[i - cap] != x]
                parts.append(tuple(found))
            keys.append(tuple(parts))
        return keys

    blocks = _StableBlocks(level)
    while depth is None or len(levels) <= depth:
        level = blocks.round(keys_of, arena._predecessors, level)
        if level is levels[-1]:
            # A stable partition stays stable: the remaining levels repeat.
            levels.extend([level] * (1 if depth is None else depth + 1 - len(levels)))
            break
        levels.append(level)
    return ColorHistory(arena, cap, offsets, tuple(levels))


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
    left: tuple[int, ...], right: tuple[int, ...], partners: dict[int, set[int]]
) -> dict[int, int]:
    """Maximum bipartite matching (Kuhn's augmenting paths); right -> left.

    ``partners[x]`` holds the right worlds left world ``x`` may match.  Each
    left world in turn starts a depth-first search for an augmenting path
    that tries right worlds in ``right`` order; the search keeps an explicit
    stack, so long paths cannot exhaust the recursion limit.
    """
    right_index = {v: j for j, v in enumerate(right)}
    adjacency = [
        sorted(right_index[y] for y in partners.get(x, ()) if y in right_index) for x in left
    ]
    match: list[Optional[int]] = [None] * len(right)
    for root in range(len(left)):
        seen = [False] * len(right)
        path = [root]  # left indices along the current alternating path
        via: list[int] = []  # via[k]: the right index joining path[k] to path[k + 1]
        frontier = [iter(adjacency[root])]
        while frontier:
            for j in frontier[-1]:
                if seen[j]:
                    continue
                seen[j] = True
                if match[j] is None:
                    # Augment: shift every matched pair on the path by one.
                    for k, u in enumerate(path):
                        match[via[k] if k < len(via) else j] = u
                    frontier = []
                else:
                    path.append(match[j])
                    via.append(j)
                    frontier.append(iter(adjacency[match[j]]))
                break
            else:
                frontier.pop()
                path.pop()
                if via:
                    via.pop()
    return {right[j]: left[u] for j, u in enumerate(match) if u is not None}


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
    partners: dict[int, set[int]] = {}
    for u, v in pairs:
        partners.setdefault(u, set()).add(v)
    for u, v in pairs:
        for prop in a.signature.props:
            if (u in a.valuation[prop]) != (v in b.valuation[prop]):
                return RelationCheck(False, RelationViolation("atoms", (u, v)))
    for u, v in pairs:
        for agent in a.signature.agents:
            left = a.successors(agent, u)
            right = b.successors(agent, v)
            matching = _max_matching(left, right, partners)
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

