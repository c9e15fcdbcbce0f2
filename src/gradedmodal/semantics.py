"""Model checking graded modal logic over finite Kripke structures.

Both checkers walk the formula with an explicit stack and evaluate every
shared subformula once (per world, for ``satisfies``), so neither the nesting
depth nor the printed size of a formula bounds what they can check.
"""

from __future__ import annotations

from .errors import SignatureError
from .kripke import KripkeStructure, PointedStructure
from .syntax import And, Bot, Diamond, Formula, Not, Or, Prop, Top, _children, _require_formula


def _check_symbols(m: KripkeStructure, formula: Formula):
    """Reject symbols outside the structure's signature, propositions first."""
    _require_formula(formula)
    for label, used, known in (
        ("unknown proposition", formula.props, m.signature.props),
        ("unknown agent", formula.agents, m.signature.agents),
    ):
        unknown = used.difference(known)
        if unknown:
            raise SignatureError(f"{label} {', '.join(repr(s) for s in sorted(unknown))}")


def extension(m: KripkeStructure, formula: Formula) -> frozenset[int]:
    """The set of worlds satisfying the formula, computed bottom-up.

    Each distinct subformula is evaluated once.
    """
    _check_symbols(m, formula)
    universe = frozenset(m.worlds())
    memo: dict[Formula, frozenset[int]] = {}
    stack = [formula]
    while stack:
        f = stack[-1]
        if f in memo:
            stack.pop()
            continue
        pending = [c for c in _children(f) if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = type(f)
        if kind is Top:
            result = universe
        elif kind is Bot:
            result = frozenset()
        elif kind is Prop:
            result = m.valuation[f.name]
        elif kind is Not:
            result = universe - memo[f.child]
        elif kind is And:
            result = memo[f.left] & memo[f.right]
        elif kind is Or:
            result = memo[f.left] | memo[f.right]
        else:
            # A successor tuple holds each world once, so the intersection
            # counts the successors in the child's extension.
            hits = memo[f.child].intersection
            grade = f.grade
            result = frozenset([u for u, vs in enumerate(m._succ[f.agent]) if len(hits(vs)) >= grade])
        memo[f] = result
    return memo[formula]


def satisfies(pointed: PointedStructure, formula: Formula) -> bool:
    """Truth at the distinguished world.

    Evaluates point-locally with early exits, which is much faster than
    ``extension`` on wide disjunctions such as normal forms.
    """
    _check_symbols(pointed.structure, formula)
    return _truth(pointed, formula, {})


def _truth(pointed: PointedStructure, formula: Formula, memo: dict) -> bool:
    """``satisfies`` without the symbol check, reading and filling ``memo``,
    the truth of (world, node) pairs, which calls on one structure can share."""
    m = pointed.structure
    valuation = m.valuation

    def known(world: int, f: Formula):
        """The truth of ``f`` at ``world`` if it is an atom or done, else None."""
        kind = type(f)
        if kind is Prop:
            return world in valuation[f.name]
        if kind is Top:
            return True
        if kind is Bot:
            return False
        return memo.get((world, f))

    root = known(pointed.point, formula)
    if root is not None:
        return root
    # Frames are [world, node, next successor, hits so far]; the last two
    # are used by diamonds only.  A frame that needs an unknown child pushes
    # it and is resumed once the child is in the memo.
    stack = [[pointed.point, formula, 0, 0]]
    while stack:
        frame = stack[-1]
        world, f = frame[0], frame[1]
        kind = type(f)
        if kind is Diamond:
            successors, child, grade = m.successors(f.agent, world), f.child, f.grade
            index, hits = frame[2], frame[3]
            while index < len(successors) and hits < grade:
                value = known(successors[index], child)
                if value is None:
                    break
                hits += value
                index += 1
            if index < len(successors) and hits < grade:
                frame[2], frame[3] = index, hits
                stack.append([successors[index], child, 0, 0])
                continue
            result = hits >= grade
        elif kind is Not:
            value = known(world, f.child)
            if value is None:
                stack.append([world, f.child, 0, 0])
                continue
            result = not value
        else:
            result = known(world, f.left)
            if result is None:
                stack.append([world, f.left, 0, 0])
                continue
            if result is (kind is And):
                result = known(world, f.right)
                if result is None:
                    stack.append([world, f.right, 0, 0])
                    continue
        memo[(world, f)] = result
        stack.pop()
    return memo[(pointed.point, formula)]
