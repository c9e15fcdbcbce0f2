"""Slow reference implementations that the fast paths are tested against.

``naive_fo_eval`` quantifies over every world and checks symbols only when
an atom is reached.  ``whole_table_solve_game`` fills the duplicator's win
table for every pair of worlds and every number of rounds left, then
extracts the strategy exactly as ``solve_game`` does.
``naive_fo_q_equivalent`` plays the back-and-forth game without memo,
re-checking the whole tuple at every position.  ``full_tree_terms``
enumerates every canonical tree term within the bounds and sorts them.
``type_descriptors`` gives every world its type as nested refinement keys,
which need no arena to be compared.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Mapping, Optional

from gradedmodal import game
from gradedmodal.equivalence import _atom_keys, _level_keys
from gradedmodal.errors import EvaluationError, SignatureError
from gradedmodal.folink import (
    EdgeAtom,
    Eq,
    Exists,
    FOAnd,
    FOFormula,
    FONot,
    FOOr,
    Forall,
    PropAtom,
)
from gradedmodal.game import (
    DUPLICATOR,
    SPOILER,
    GamePosition,
    GameResult,
    _atom_masks,
    _Budget,
    _duplicator_survives,
    _extract_duplicator,
    _extract_spoiler,
    _successor_masks,
)
from gradedmodal.kripke import KripkeStructure, PointedStructure, Signature


def type_descriptors(m: KripkeStructure, cap: Optional[int], depth: int) -> list:
    """The type descriptor of every world: ``depth`` levels of nested keys.

    A level-``d`` descriptor is ``(level-(d-1) descriptor, per-agent sorted
    (child descriptor, capped count) pairs)``; level 0 is the atom tuple.
    Two worlds of structures over one signature get equal descriptors iff
    they are equivalent at the cap and depth, and the descriptors sort as
    the kernel's class ids do.
    """
    level = _atom_keys(m)
    for _ in range(depth):
        level = _level_keys(m, level, cap)
    return level


def naive_fo_eval(m: KripkeStructure, assignment: Mapping[str, int], formula: FOFormula) -> bool:
    """Tarskian evaluation; quantifiers range over all worlds."""
    env = dict(assignment)
    for var, world in env.items():
        if not 0 <= world < m.world_count:
            raise EvaluationError(f"assignment {var}={world} out of range")

    def lookup(var: str) -> int:
        try:
            return env[var]
        except KeyError:
            raise EvaluationError(f"unassigned free variable {var!r}") from None

    def ev(f: FOFormula) -> bool:
        if isinstance(f, PropAtom):
            if f.prop not in m.signature.props:
                raise SignatureError(f"unknown proposition {f.prop!r}")
            return lookup(f.var) in m.valuation[f.prop]
        if isinstance(f, EdgeAtom):
            if f.agent not in m.signature.agents:
                raise SignatureError(f"unknown agent {f.agent!r}")
            return (lookup(f.src), lookup(f.dst)) in m.edges[f.agent]
        if isinstance(f, Eq):
            return lookup(f.left) == lookup(f.right)
        if isinstance(f, FONot):
            return not ev(f.child)
        if isinstance(f, FOAnd):
            return ev(f.left) and ev(f.right)
        if isinstance(f, FOOr):
            return ev(f.left) or ev(f.right)
        if isinstance(f, (Exists, Forall)):
            had = f.var in env
            old = env.get(f.var)
            hit = False
            want = isinstance(f, Exists)
            for w in m.worlds():
                env[f.var] = w
                if ev(f.child) == want:
                    hit = True
                    break
            if had:
                env[f.var] = old
            else:
                env.pop(f.var, None)
            return hit if want else not hit
        raise TypeError(f"not an FO formula: {f!r}")

    return ev(formula)


def whole_table_solve_game(
    a: PointedStructure, b: PointedStructure, cap: int, rounds: int
) -> GameResult:
    """``solve_game`` over the whole n x n table at every number of rounds left."""
    if a.signature != b.signature:
        raise SignatureError("the two structures carry different signatures")
    if cap < 0 or rounds < 0:
        raise ValueError("cap and rounds must be nonnegative")
    ka, kb = a.structure, b.structure
    na, nb = ka.world_count, kb.world_count
    agents = ka.signature.agents
    budget = _Budget(game.STEP_BUDGET)

    atom = _atom_masks(ka, kb, ka.worlds(), kb.worlds())
    succ_a_mask = _successor_masks(ka, ka.worlds())
    succ_b_mask = _successor_masks(kb, kb.worlds())

    win = list(atom)
    levels = [win]
    transposes = []
    for _ in range(rounds):
        winT = [0] * nb
        for u in range(na):
            row = win[u]
            while row:
                low = row & -row
                winT[low.bit_length() - 1] |= 1 << u
                row ^= low
        transposes.append(winT)
        new = []
        for u in range(na):
            mask = 0
            candidates = atom[u]
            while candidates:
                low = candidates & -candidates
                v = low.bit_length() - 1
                candidates ^= low
                if _duplicator_survives(
                    ka, kb, u, v, cap, agents, win, winT,
                    succ_a_mask, succ_b_mask, budget,
                ):
                    mask |= low
            new.append(mask)
        win = new
        levels.append(win)
    tables = {"left": levels, "right": transposes}

    dup_wins = bool(levels[rounds][a.point] >> b.point & 1)
    winner = DUPLICATOR if dup_wins else SPOILER
    start = GamePosition(a.point, b.point, rounds)
    extract = _extract_duplicator if dup_wins else _extract_spoiler
    strategy = extract(ka, kb, a.point, b.point, cap, rounds, agents, tables, budget)
    return GameResult(winner, cap, rounds, start, MappingProxyType(strategy))


def naive_fo_q_equivalent(a: PointedStructure, b: PointedStructure, q: int) -> bool:
    """The rank-q back-and-forth game, re-checking the whole tuple at every
    position and remembering nothing."""
    ka, kb = a.structure, b.structure

    def partial_isomorphism(av: tuple[int, ...], bv: tuple[int, ...]) -> bool:
        n = len(av)
        for i in range(n):
            for p in ka.signature.props:
                if (av[i] in ka.valuation[p]) != (bv[i] in kb.valuation[p]):
                    return False
            for j in range(n):
                if (av[i] == av[j]) != (bv[i] == bv[j]):
                    return False
                for agent in ka.signature.agents:
                    if ((av[i], av[j]) in ka.edges[agent]) != (
                        (bv[i], bv[j]) in kb.edges[agent]
                    ):
                        return False
        return True

    def play(av: tuple[int, ...], bv: tuple[int, ...], rounds: int) -> bool:
        if not partial_isomorphism(av, bv):
            return False
        if rounds == 0:
            return True
        return all(
            any(play(av + (wa,), bv + (wb,), rounds - 1) for wb in kb.worlds())
            for wa in ka.worlds()
        ) and all(
            any(play(av + (wa,), bv + (wb,), rounds - 1) for wa in ka.worlds())
            for wb in kb.worlds()
        )

    return play((a.point,), (b.point,), q)


def full_tree_terms(sig: Signature, depth: int, size_bound: int) -> list:
    """Canonical rooted-tree terms: (atoms, tuple of (agent index, term)).

    Children are ordered by (agent index, size, term); the result holds
    every term within the depth and node bounds, sorted by (size, term).
    """
    atom_options = sorted(
        itertools.product((False, True), repeat=len(sig.props))
    )

    terms_by_depth: list[list] = []
    sizes: dict = {}

    for d in range(depth + 1):
        options = []
        if d > 0:
            options = [
                (ai, t)
                for ai in range(len(sig.agents))
                for t in terms_by_depth[d - 1]
            ]
            options.sort(key=lambda o: (o[0], sizes[o[1]], o[1]))
        level = []

        def child_seqs(budget_nodes: int, start: int):
            yield ()
            for i in range(start, len(options)):
                child = options[i]
                s = sizes[child[1]]
                if s <= budget_nodes:
                    for rest in child_seqs(budget_nodes - s, i):
                        yield (child,) + rest

        for atoms in atom_options:
            for children in child_seqs(size_bound - 1, 0):
                term = (atoms, children)
                total = 1 + sum(sizes[t] for _, t in children)
                if term not in sizes:
                    sizes[term] = total
                level.append(term)
        # terms of depth < d re-appear (empty extensions); dedupe
        seen = set()
        unique = []
        for term in level:
            if term not in seen:
                seen.add(term)
                unique.append(term)
        terms_by_depth.append(unique)

    return sorted(terms_by_depth[depth], key=lambda t: (sizes[t], t))
