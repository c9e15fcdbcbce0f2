"""Independent checks used to judge every query's output.

The reference refinement here shares no code with the library's
``equivalence`` module; it relabels classes by first appearance instead of
by sorted keys, so it agrees with the library only on the partition itself.
"""

from __future__ import annotations

import hashlib
from collections import Counter


class Failed(Exception):
    """The query produced no verdict: a crash, a guard, or a usage error."""


class Wrong(Exception):
    """The query produced a verdict or output that an oracle rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _relabel(keys: list) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def ref_colours(structures, cap, depth=None) -> tuple[list[int], list[int]]:
    """Classes of the disjoint union of ``structures`` after counted refinement.

    ``depth`` rounds are run, or rounds until the class count stops growing
    when ``depth`` is None.  Counts are capped at ``cap`` unless it is None.
    Returns the colour of every union world and the offset of every part.
    """
    sig = structures[0].signature
    atoms, offsets = [], []
    succ: dict[str, list[list[int]]] = {agent: [] for agent in sig.agents}
    total = 0
    for m in structures:
        offsets.append(total)
        for w in range(m.world_count):
            atoms.append(tuple(w in m.valuation[p] for p in sig.props))
        for agent in sig.agents:
            lists: list[list[int]] = [[] for _ in range(m.world_count)]
            for u, v in m.edges[agent]:
                lists[u].append(v + total)
            succ[agent].extend(lists)
        total += m.world_count
    colour = _relabel(atoms)
    classes = len(set(colour))
    rounds = 0
    while depth is None or rounds < depth:
        keys = []
        for w in range(total):
            key = [colour[w]]
            for agent in sig.agents:
                counts = Counter(colour[v] for v in succ[agent][w])
                if cap is not None:
                    counts = {c: min(n, cap) for c, n in counts.items() if min(n, cap) > 0}
                key.append(frozenset(counts.items()))
            keys.append(tuple(key))
        colour = _relabel(keys)
        rounds += 1
        grown = len(set(colour))
        if depth is None and grown == classes:
            break
        classes = grown
    return colour, offsets


def ref_equivalent(a, b, cap, depth=None) -> bool:
    """Whether two pointed structures share a class under ``ref_colours``."""
    colour, offsets = ref_colours([a.structure, b.structure], cap, depth)
    return colour[a.point] == colour[offsets[1] + b.point]


def ref_class(pointed, cap, depth) -> frozenset[int]:
    """Worlds of the pointed structure's model in the point's bounded class."""
    colour, _ = ref_colours([pointed.structure], cap, depth)
    return frozenset(w for w, c in enumerate(colour) if c == colour[pointed.point])


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in node.__dataclass_fields__)


def same_formula(left, right) -> bool:
    """Structural equality of two formula trees, without recursion."""
    stack = [(left, right)]
    seen = set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if type(x) is not type(y):
            return False
        fx, fy = _fields(x), _fields(y)
        for vx, vy in zip(fx, fy):
            if hasattr(vx, "__dataclass_fields__"):
                stack.append((vx, vy))
            elif vx != vy:
                return False
    return True


def dag_nodes(formula) -> int:
    """Distinct node objects reachable from a formula (its shared-node size)."""
    seen = {id(formula)}
    stack = [formula]
    while stack:
        node = stack.pop()
        for value in _fields(node):
            if hasattr(value, "__dataclass_fields__") and id(value) not in seen:
                seen.add(id(value))
                stack.append(value)
    return len(seen)


def or_width(formula, or_type) -> int:
    """Number of disjuncts along the left spine of a left-nested disjunction."""
    width = 1
    while isinstance(formula, or_type):
        width += 1
        formula = formula.left
    return width
