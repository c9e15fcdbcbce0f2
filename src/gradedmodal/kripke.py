"""Finite Kripke structures and structure-level constructions.

Worlds are dense integer indices 0..n-1 per structure.  Combinators relabel
deterministically (parts in list order; in unravellings the tree part comes
before the continuation copy), so outputs are reproducible bit for bit.
Each agent's relation is stored once, as sorted successor arrays.  Values
are immutable and every operation is a pure function, so any value may be
shared across threads.  Derived data (the ``edges`` pair sets, the
predecessor arrays, and the atom ids: each world's atomic type as one int)
is cached on first use; a race at worst builds it twice.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import ParseError, SignatureError

WorldId = int


def _index(value, name: str) -> int:
    """``value`` as an integer, refusing what int() would truncate or parse."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name}: expected an integer, got {value!r}") from None


def _check_bounds(**bounds) -> None:
    """Refuse a bound that is not a nonnegative int, naming the parameter;
    called on entry, before any work."""
    for name, value in bounds.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class Signature:
    """Ordered agent and proposition names shared by a family of structures."""

    agents: tuple[str, ...] = ()
    props: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "props", tuple(self.props))
        for kind, names in (("agent", self.agents), ("proposition", self.props)):
            for name in names:
                if not isinstance(name, str) or not name:
                    raise SignatureError(f"{kind} names must be nonempty strings, got {name!r}")
            if len(set(names)) != len(names):
                raise SignatureError(f"duplicate {kind} names in {names!r}")

    def _require_same(self, other: Signature) -> None:
        """Refuse a second structure whose signature ``other`` is not this one."""
        if other != self:
            raise SignatureError("the two structures carry different signatures")


class KripkeStructure:
    """A finite Kripke structure: worlds, per-agent relations, per-prop valuations.

    Each agent's relation is stored once: every world's sorted successors.
    ``edges``, its pairs as a frozenset per agent, is a view built on first read.

    ``world_count == 0`` is permitted only for the empty aggregate produced by
    ``copies(m, 0)``, which is legal solely as a ``disjoint_union`` operand;
    standalone structures have at least one world.
    """

    __slots__ = (
        "signature", "world_count", "valuation", "_succ", "_edges", "_pred", "_atoms", "_hash",
    )

    def __init__(
        self,
        signature: Signature,
        world_count: int,
        edges: Mapping[str, Iterable[tuple[int, int]]] | None = None,
        valuation: Mapping[str, Iterable[int]] | None = None,
    ):
        edges = dict(edges or {})
        valuation = dict(valuation or {})
        for agent in edges:
            if agent not in signature.agents:
                raise SignatureError(f"unknown agent {agent!r} in edges")
        for prop in valuation:
            if prop not in signature.props:
                raise SignatureError(f"unknown proposition {prop!r} in valuation")
        if world_count < 0:
            raise ValueError("world_count must be nonnegative")
        # operator.index refuses the floats and strings int() would truncate or parse.
        index = operator.index
        succ, worlds_of = {}, {}
        for agent in signature.agents:
            try:
                pairs = [(index(u), index(v)) for u, v in edges.get(agent, ())]
            except TypeError:
                raise TypeError(f"edges of agent {agent!r} must be pairs of integer worlds") from None
            for u, v in pairs:
                if not (0 <= u < world_count and 0 <= v < world_count):
                    raise ValueError(f"edge ({u},{v}) of agent {agent!r} out of range")
            succ[agent] = _successor_arrays(world_count, pairs)
        for prop in signature.props:
            try:
                worlds_of[prop] = list(map(index, valuation.get(prop, ())))
            except TypeError:
                raise TypeError(f"worlds in the valuation of {prop!r} must be integers") from None
            for w in worlds_of[prop]:
                if not 0 <= w < world_count:
                    raise ValueError(f"world {w} in valuation of {prop!r} out of range")
        self._fill(signature, world_count, worlds_of, succ)

    @classmethod
    def _assemble(cls, signature, world_count, valuation, succ) -> KripkeStructure:
        """A structure from validated parts: the worlds of each proposition,
        and per agent one sorted, duplicate-free successor tuple per world."""
        m = cls.__new__(cls)
        m._fill(signature, world_count, valuation, succ)
        return m

    def _fill(self, signature, world_count, valuation, succ) -> None:
        self.signature = signature
        self.world_count = world_count
        self.valuation = MappingProxyType({p: frozenset(valuation[p]) for p in signature.props})
        self._succ = {a: tuple(succ[a]) for a in signature.agents}
        self._edges = None
        self._pred = None
        self._atoms = None
        self._hash = None

    def worlds(self) -> range:
        return range(self.world_count)

    def successors(self, agent: str, world: int) -> tuple[int, ...]:
        """All immediate successors of ``world`` along ``agent``'s relation."""
        if agent not in self._succ:
            raise SignatureError(f"unknown agent {agent!r}")
        if not 0 <= world < self.world_count:
            raise ValueError(f"world {world} out of range")
        return self._succ[agent][world]

    @property
    def edges(self) -> Mapping[str, frozenset[tuple[int, int]]]:
        """Per agent, its relation as a frozenset of pairs, built from the
        successor arrays on first read."""
        if self._edges is None:
            self._edges = MappingProxyType({a: frozenset(self._pairs(a)) for a in self._succ})
        return self._edges

    def _pairs(self, agent: str) -> Iterator[tuple[int, int]]:
        """``agent``'s edges in lexicographic order, read off the arrays."""
        return ((u, v) for u, vs in enumerate(self._succ[agent]) for v in vs)

    def _predecessors(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Per agent, the sorted predecessors of every world, built on first use."""
        if self._pred is None:
            pred: dict[str, tuple[tuple[int, ...], ...]] = {}
            for agent, succ in self._succ.items():
                per_world: list[list[int]] = [[] for _ in range(self.world_count)]
                for u, vs in enumerate(succ):
                    for v in vs:
                        per_world[v].append(u)
                pred[agent] = tuple(map(tuple, per_world))
            self._pred = pred
        return self._pred

    def _atom_ids(self) -> tuple[int, ...]:
        """Each world's atomic type as an int (see ``_prop_bits``)."""
        if self._atoms is None:
            ids = [0] * self.world_count
            for prop, bit in _prop_bits(self.signature):
                for w in self.valuation[prop]:
                    ids[w] |= bit
            self._atoms = tuple(ids)
        return self._atoms

    def edge_count(self) -> int:
        return sum(len(vs) for succ in self._succ.values() for vs in succ)

    def _key(self):
        # Sorted, duplicate-free arrays are equal iff the relations are.
        sig = self.signature
        return (
            sig,
            self.world_count,
            tuple(self._succ[a] for a in sig.agents),
            tuple(self.valuation[p] for p in sig.props),
        )

    def __eq__(self, other):
        return isinstance(other, KripkeStructure) and self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return (
            f"KripkeStructure(|W|={self.world_count}, "
            f"agents={list(self.signature.agents)}, props={list(self.signature.props)}, "
            f"edges={self.edge_count()})"
        )


def _prop_bits(sig: Signature) -> Iterator[tuple[str, int]]:
    """Each proposition with its bit in an atom id, in signature order.  The
    first proposition is the highest bit, so the ids 0 .. 2^k - 1 rank as
    the tuples of truth values in signature order do."""
    return zip(sig.props, [1 << i for i in reversed(range(len(sig.props)))])


def _successor_arrays(
    world_count: int, pairs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Per world, the sorted successors along one agent's validated edges,
    each once however often its pair occurs."""
    per_world: list[list[int]] = [[] for _ in range(world_count)]
    for u, v in pairs:
        per_world[u].append(v)
    return _sorted_arrays(per_world)


def _sorted_arrays(per_world: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Each world's successors sorted, each once however often it occurs."""
    return tuple([tuple(sorted(set(vs))) for vs in per_world])


def _append(succ: dict[str, list], valuation: dict[str, list], m: KripkeStructure, offset: int) -> None:
    """Append ``m``'s worlds, moved up by ``offset``, to the per-agent
    successor lists and per-proposition world lists of a structure being
    built; ``m`` is validated already, so its arrays are shared for 0."""
    for agent, arrays in m._succ.items():
        succ[agent].extend([tuple([v + offset for v in vs]) for vs in arrays] if offset else arrays)
    for prop, holds in m.valuation.items():
        valuation[prop].extend(w + offset for w in holds)


@dataclass(frozen=True)
class PointedStructure:
    """A Kripke structure with a distinguished world for evaluation."""

    structure: KripkeStructure
    point: int

    def __post_init__(self):
        if not 0 <= _index(self.point, "point") < self.structure.world_count:
            raise ValueError(f"point {self.point} out of range")

    @property
    def signature(self) -> Signature:
        return self.structure.signature


def _require_same_signature(parts: Iterable[KripkeStructure]) -> Signature:
    sigs = {m.signature for m in parts}
    if len(sigs) != 1:
        raise SignatureError(f"parts carry {len(sigs)} distinct signatures")
    return next(iter(sigs))


def disjoint_union(
    parts: list[KripkeStructure],
    point_from: Optional[tuple[int, int]] = None,
) -> Union[KripkeStructure, PointedStructure]:
    """Disjoint union of ``parts``, relabelled densely in list order.

    ``point_from = (part_index, world)`` points the result at that world's
    relabelled copy.  Parts may be empty aggregates; the union itself must be
    nonempty.
    """
    if not parts:
        raise ValueError("disjoint_union needs at least one part")
    sig = _require_same_signature(parts)
    offsets = part_offsets(parts)
    total = offsets[-1] + parts[-1].world_count
    if total == 0:
        raise ValueError("disjoint union of empty aggregates is empty")
    # The parts are validated already, so their data is shifted, not rebuilt;
    # the first part's successor arrays are shared as they are.
    succ: dict[str, list] = {a: [] for a in sig.agents}
    valuation: dict[str, list] = {p: [] for p in sig.props}
    for m, off in zip(parts, offsets):
        _append(succ, valuation, m, off)
    result = KripkeStructure._assemble(sig, total, valuation, succ)
    if point_from is None:
        return result
    part, world = (_index(i, "point_from") for i in point_from)
    if not 0 <= part < len(parts) or not 0 <= world < parts[part].world_count:
        raise ValueError(f"invalid point_from {point_from!r}")
    return PointedStructure(result, offsets[part] + world)


def part_offsets(parts: list[KripkeStructure]) -> tuple[int, ...]:
    """Starting world index of each part inside their disjoint union."""
    offsets = []
    total = 0
    for m in parts:
        offsets.append(total)
        total += m.world_count
    return tuple(offsets)


def copies(m: KripkeStructure, count: int) -> KripkeStructure:
    """``count`` relabelled disjoint copies of ``m``.

    ``copies(m, 0)`` is the empty aggregate, legal only as a union operand.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return KripkeStructure(m.signature, 0)
    return disjoint_union([m] * count)  # type: ignore[return-value]


def neighborhood(m: KripkeStructure, world: int, radius: int) -> frozenset[int]:
    """Worlds at undirected distance <= radius from ``world``.

    Distance is taken in the union of the symmetrisations of all agent
    relations; radius 0 yields ``{world}``.
    """
    if not 0 <= _index(world, "world") < m.world_count:
        raise ValueError(f"world {world} out of range")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    arrays = [*m._succ.values(), *m._predecessors().values()]
    seen = {world}
    frontier = [world]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for array in arrays:
                for v in array[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def restrict(
    m: KripkeStructure,
    worlds: Iterable[int],
    point: Optional[int] = None,
) -> Union[KripkeStructure, PointedStructure]:
    """Substructure induced on ``worlds``, relabelled densely by sorted order."""
    keep = sorted({_index(w, "worlds") for w in worlds})
    if not keep:
        raise ValueError("cannot restrict to an empty world set")
    for w in keep:
        if not 0 <= w < m.world_count:
            raise ValueError(f"world {w} out of range")
    relabel = {w: i for i, w in enumerate(keep)}
    # Relabelling keeps the order of worlds, so filtered arrays stay sorted.
    succ = {
        a: tuple(tuple([relabel[v] for v in arrays[u] if v in relabel]) for u in keep)
        for a, arrays in m._succ.items()
    }
    valuation = {p: [relabel[w] for w in keep if w in holds] for p, holds in m.valuation.items()}
    result = KripkeStructure._assemble(m.signature, len(keep), valuation, succ)
    if point is None:
        return result
    if _index(point, "point") not in relabel:
        raise ValueError(f"point {point} not in the restricted world set")
    return PointedStructure(result, relabel[point])


def _local_part(m: KripkeStructure, world: int, radius: int) -> PointedStructure:
    """The restriction to the radius-neighbourhood of ``world``, pointed at it."""
    return restrict(m, neighborhood(m, world, radius), point=world)  # type: ignore[return-value]


@dataclass(frozen=True)
class TreelikeReport:
    """Outcome of a rooted-tree-likeness check, with a witness on failure.

    ``failed`` is one of ``"disjointness"``, ``"acyclicity"``, ``"direction"``
    or ``None``; the witness is a shared undirected edge with its two agents,
    a cycle as a world tuple, or a wrongly directed edge with its agent.
    """

    ok: bool
    failed: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def is_rooted_treelike(m: KripkeStructure, root: int, radius: int) -> TreelikeReport:
    """Check that ``m`` is rooted-tree-like to depth ``radius`` around ``root``.

    Within the restriction to the radius-neighbourhood: (a) the symmetrised
    agent relations are pairwise disjoint, (b) their union is an acyclic
    undirected graph, and (c) every edge runs from a world at distance d to
    one at distance d+1 from the root.  Conditions are checked in that order
    and the first failure is reported.
    """
    sub = _local_part(m, root, radius)
    s, r = sub.structure, sub.point

    undirected: dict[frozenset[int], str] = {}
    for agent in s.signature.agents:
        for u, v in s._pairs(agent):
            key = frozenset((u, v))
            owner = undirected.get(key)
            if owner is not None and owner != agent:
                return TreelikeReport(False, "disjointness", (owner, agent, (u, v)))
            undirected[key] = agent

    for key in undirected:
        if len(key) == 1:
            (u,) = key
            return TreelikeReport(False, "acyclicity", (u, u))

    # The restriction is connected, so one breadth-first search from the
    # root reaches every world.  An edge to a reached world closes a cycle
    # unless it is the tree edge to u's parent or child (u -> v and v -> u
    # along one agent are one undirected edge); the cycle is the two ends'
    # parent paths up to where they meet.
    arrays = [*s._succ.values(), *s._predecessors().values()]
    parent: dict[int, Optional[int]] = {r: None}
    dist = {r: 0}
    queue = deque([r])
    while queue:
        u = queue.popleft()
        for array in arrays:
            for v in array[u]:
                if v not in dist:
                    parent[v] = u
                    dist[v] = dist[u] + 1
                    queue.append(v)
                elif v != parent[u] and parent[v] != u:
                    path_u, path_v = [u], [v]
                    while path_u[-1] != path_v[-1]:
                        if dist[path_u[-1]] >= dist[path_v[-1]]:
                            path_u.append(parent[path_u[-1]])
                        else:
                            path_v.append(parent[path_v[-1]])
                    return TreelikeReport(False, "acyclicity", tuple(path_u + path_v[-2::-1]))

    for agent in s.signature.agents:
        for u, v in s._pairs(agent):
            if dist[v] != dist[u] + 1:
                return TreelikeReport(False, "direction", (agent, (u, v)))
    return TreelikeReport(True)


def unravel(pointed: PointedStructure, depth: int) -> PointedStructure:
    """Partial directed tree unravelling to ``depth``, merged with one copy.

    The tree part holds every labelled path from the point with fewer than
    ``depth`` steps, each step recording the agent taken; a path node carries
    the propositions of its endpoint and has, for each agent, one child per
    successor of its endpoint.  Path nodes at the frontier (``depth - 1``
    steps) get their agent edges redirected into a single appended relabelled
    copy of the original structure, which continues the behaviour beyond the
    unravelled depth.  The result is pointed at the empty path.

    A single shared continuation copy suffices: each frontier node keeps the
    per-agent successor counts of its endpoint world.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    m, start = pointed.structure, pointed.point
    sig = m.signature

    # Nodes are numbered breadth first as they are expanded, each node's
    # children along one agent consecutively in the order of their
    # endpoints; ends[node] is the world the node's path ends in.
    ends = [start]
    succ: dict[str, list] = {a: [] for a in sig.agents}
    frontier = range(1)
    for _ in range(depth - 1):
        top = len(ends)
        for node in frontier:
            for agent in sig.agents:
                vs = m._succ[agent][ends[node]]
                succ[agent].append(tuple(range(len(ends), len(ends) + len(vs))))
                ends.extend(vs)
        frontier = range(top, len(ends))
    # The frontier's edges run into the continuation copy after the tree.
    copy_off = len(ends)
    for node in frontier:
        for agent in sig.agents:
            succ[agent].append(tuple([copy_off + v for v in m._succ[agent][ends[node]]]))
    valuation = {
        p: [node for node, end in enumerate(ends) if end in holds] for p, holds in m.valuation.items()
    }
    _append(succ, valuation, m, copy_off)
    return PointedStructure(KripkeStructure._assemble(sig, copy_off + m.world_count, valuation, succ), 0)


def _realize(sig: Signature, atoms: int, children: list[tuple[str, PointedStructure]]) -> PointedStructure:
    """A tree whose root has the atom id ``atoms`` and the given child subtrees.

    The root is world 0 and each child subtree follows in list order,
    relabelled by its offset.
    """
    root: dict[str, list] = {a: [] for a in sig.agents}
    succ: dict[str, list] = {a: [()] for a in sig.agents}
    valuation: dict[str, list] = {p: [] for p in sig.props}
    for prop, bit in _prop_bits(sig):
        if atoms & bit:
            valuation[prop].append(0)
    offset = 1
    for agent, child in children:
        sub = child.structure
        # Offsets grow in list order, so each root array comes out sorted.
        root[agent].append(offset + child.point)
        _append(succ, valuation, sub, offset)
        offset += sub.world_count
    for agent in sig.agents:
        succ[agent][0] = tuple(root[agent])
    return PointedStructure(KripkeStructure._assemble(sig, offset, valuation, succ), 0)


# ---------------------------------------------------------------------------
# Structure text format.
#
#   structure <name>
#   agents: a b
#   props: p q
#   worlds: <n>
#   edge <agent>: <u> <v>        (one line per edge)
#   prop <name>: <u> <u> ...
#   point: <u>                   (optional)
#
# '#' starts a comment; blank lines are ignored.  The canonical serializer
# emits blocks in this order with edges sorted lexicographically.
# ---------------------------------------------------------------------------


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line=lineno) from None


def load_named_structure(text: str) -> tuple[str, Union[KripkeStructure, PointedStructure]]:
    """Parse the text format; returns the declared name and the structure.

    One pass checks every line once, in file order, so the first failing
    line is the one reported.  Edges go straight into per-world successor
    lists.  The raw text before the ``:`` of each accepted ``edge`` line
    without a ``#`` is remembered with its agent's lists, so a later line
    with that head and two in-range integers after the ``:`` costs one
    lookup and an append; every other line takes the checks below.
    """
    name = None
    agents: Optional[list[str]] = None
    props: Optional[list[str]] = None
    world_count: Optional[int] = None
    lists_of: dict[str, Optional[list[list[int]]]] = {}  # per agent, successors per world
    known_heads: dict[str, list[list[int]]] = {}
    valuation: dict[str, set[int]] = {}
    point: Optional[int] = None

    def fail(msg: str, lineno: int):
        raise ParseError(msg, line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        head, _, rest = raw.partition(":")
        lists = known_heads.get(head)
        if lists is not None:
            try:
                first, second = rest.split()
                u = int(first)
                v = int(second)
            except ValueError:
                pass
            else:
                if 0 <= u < world_count and 0 <= v < world_count:
                    lists[u].append(v)
                    continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            word, _, rest = line.partition(" ")
            if word != "structure" or not rest.strip():
                fail("expected 'structure <name>' as the first directive", lineno)
            name = rest.strip()
            continue
        if line.startswith("structure "):
            fail("multiple 'structure' blocks are not supported", lineno)
        key, sep, rest = line.partition(":")
        if not sep:
            fail(f"malformed line {line!r}", lineno)
        key = key.strip()
        if key.startswith("edge "):
            agent = key[len("edge "):].strip()
            if agent not in lists_of or world_count is None:
                if agents is None or world_count is None:
                    fail("'edge' lines require 'agents' and 'worlds' first", lineno)
                fail(f"unknown agent {agent!r}", lineno)
            fields = rest.split()
            if len(fields) != 2:
                fail("'edge' takes exactly two worlds", lineno)
            u, v = _int(fields[0], lineno), _int(fields[1], lineno)
            if not (0 <= u < world_count and 0 <= v < world_count):
                fail(f"edge ({u},{v}) out of range", lineno)
            lists = lists_of[agent]
            if lists is None:
                lists = lists_of[agent] = [[] for _ in range(world_count)]
            lists[u].append(v)
            if "#" not in raw:
                known_heads[head] = lists
            continue
        fields = rest.split()
        if key == "agents":
            if agents is not None:
                fail("duplicate 'agents' line", lineno)
            if len(set(fields)) != len(fields):
                fail(f"duplicate agent names in {tuple(fields)!r}", lineno)
            agents = fields
            lists_of = dict.fromkeys(agents)
        elif key == "props":
            if props is not None:
                fail("duplicate 'props' line", lineno)
            if len(set(fields)) != len(fields):
                fail(f"duplicate proposition names in {tuple(fields)!r}", lineno)
            props = fields
        elif key == "worlds":
            if world_count is not None:
                fail("duplicate 'worlds' line", lineno)
            if len(fields) != 1:
                fail("'worlds' takes exactly one number", lineno)
            world_count = _int(fields[0], lineno)
            if world_count < 1:
                fail("structures must have at least one world", lineno)
        elif key.startswith("prop "):
            prop = key[len("prop "):].strip()
            if props is None or world_count is None:
                fail("'prop' lines require 'props' and 'worlds' first", lineno)
            if prop not in props:
                fail(f"unknown proposition {prop!r}", lineno)
            ws = [_int(t, lineno) for t in fields]
            for w in ws:
                if not 0 <= w < world_count:
                    fail(f"world {w} out of range", lineno)
            valuation.setdefault(prop, set()).update(ws)
        elif key == "point":
            if point is not None:
                fail("duplicate 'point' line", lineno)
            if world_count is None:
                fail("'point' requires 'worlds' first", lineno)
            if len(fields) != 1:
                fail("'point' takes exactly one world", lineno)
            point = _int(fields[0], lineno)
            if not 0 <= point < world_count:
                fail(f"point {point} out of range", lineno)
        else:
            fail(f"unknown directive {key!r}", lineno)

    if name is None:
        raise ParseError("empty input: no 'structure' directive", line=1)
    if world_count is None:
        raise ParseError("missing 'worlds' line", line=1)
    sig = Signature(tuple(agents or ()), tuple(props or ()))
    succ = {
        a: ((),) * world_count if lists_of[a] is None else _sorted_arrays(lists_of[a])
        for a in sig.agents
    }
    m = KripkeStructure._assemble(sig, world_count, {p: valuation.get(p, ()) for p in sig.props}, succ)
    if point is None:
        return name, m
    return name, PointedStructure(m, point)


def load_structure(text: str) -> Union[KripkeStructure, PointedStructure]:
    return load_named_structure(text)[1]


def dump_structure(value: Union[KripkeStructure, PointedStructure], name: str = "m") -> str:
    """Canonical text serialization; inverse of ``load_structure``."""
    point = None
    if isinstance(value, PointedStructure):
        point = value.point
        m = value.structure
    else:
        m = value
    if m.world_count < 1:
        raise ValueError("cannot serialize an empty aggregate")
    # The reader splits names at whitespace and ':' and cuts lines at '#'.
    for kind, names in (("agent", m.signature.agents), ("proposition", m.signature.props)):
        for symbol in names:
            if any(c.isspace() or c in ":#" for c in symbol):
                raise ValueError(
                    f"cannot write {kind} {symbol!r}: names in the text format "
                    "hold no whitespace, ':' or '#'"
                )
    lines = [f"structure {name}"]
    lines.append(("agents: " + " ".join(m.signature.agents)).rstrip())
    lines.append(("props: " + " ".join(m.signature.props)).rstrip())
    lines.append(f"worlds: {m.world_count}")
    for agent in sorted(m.signature.agents):
        for u, v in m._pairs(agent):
            lines.append(f"edge {agent}: {u} {v}")
    for prop in m.signature.props:
        worlds = sorted(m.valuation[prop])
        if worlds:
            lines.append(f"prop {prop}: " + " ".join(str(w) for w in worlds))
    if point is not None:
        lines.append(f"point: {point}")
    return "\n".join(lines) + "\n"
