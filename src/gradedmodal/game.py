"""The cost-bounded, round-bounded back-and-forth game, solved exhaustively.

Positions pair a world of the left structure with one of the right.  In a
round the spoiler proposes, for some agent, a nonempty set of successors of
either world with at most ``cap`` members; the duplicator answers with an
equally sized successor set on the opposite side; the spoiler then picks a
world inside the duplicator's set and the duplicator must reply with a
matching world inside the spoiler's set.  The picked pair is the next
position.  A player who cannot move loses, and the duplicator also loses at
any position whose two worlds differ atomically.

This module is the independent oracle for the refinement-based equivalences:
it imports nothing from the equivalence module and never consults a
ColorHistory.  The two players' roles are symmetric in the sides, so every
stage is written once with the challenged side as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .errors import ResourceLimitError, SignatureError
from .kripke import KripkeStructure, PointedStructure

DUPLICATOR = "duplicator"
SPOILER = "spoiler"
# Positions and spoiler sets ``solve_game`` may examine before it gives up.
STEP_BUDGET = 5_000_000


@dataclass(frozen=True)
class GamePosition:
    left: int
    right: int
    rounds_left: int


@dataclass(frozen=True, order=True)
class SpoilerMove:
    """First-stage challenge: a nonempty successor set on one side."""

    side: str  # "left" | "right"
    agent: str
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class DuplicatorMove:
    """Equally sized answer set, with a reply for every pick inside it.

    ``matches`` sends each spoiler pick inside ``response`` to the
    duplicator's reply inside the challenged set.
    """

    response: tuple[int, ...]
    matches: Mapping[int, int]


@dataclass(frozen=True)
class SpoilerPlay:
    """A winning challenge plus the pick for every legal duplicator answer."""

    move: SpoilerMove
    picks: Mapping[tuple[int, ...], int]


@dataclass(frozen=True)
class GameResult:
    """Winner of a solved game plus a replayable strategy certificate.

    For a duplicator win, ``strategy[(u, v, m)]`` maps every legal
    ``SpoilerMove`` at that position to the ``DuplicatorMove`` answering it.
    For a spoiler win, the entry is ``None`` when the position already
    violates atom equivalence, and otherwise a ``SpoilerPlay``.
    """

    winner: str
    cap: int
    rounds: int
    start: GamePosition
    strategy: Mapping[tuple[int, int, int], object]

    def to_json_dict(self) -> dict:
        entries = []
        for (u, v, m) in sorted(self.strategy):
            value = self.strategy[(u, v, m)]
            record: dict = {"left": u, "right": v, "rounds_left": m}
            if self.winner == DUPLICATOR:
                moves = []
                for move, answer in sorted(value.items()):
                    moves.append(
                        {
                            "side": move.side,
                            "agent": move.agent,
                            "chosen": list(move.chosen),
                            "response": list(answer.response),
                            "matches": {
                                str(k): w for k, w in sorted(answer.matches.items())
                            },
                        }
                    )
                record["responses"] = moves
            else:
                if value is None:
                    record["move"] = None
                else:
                    record["move"] = {
                        "side": value.move.side,
                        "agent": value.move.agent,
                        "chosen": list(value.move.chosen),
                        "picks": {
                            ",".join(map(str, resp)): pick
                            for resp, pick in sorted(value.picks.items())
                        },
                    }
            entries.append(record)
        return {
            "winner": self.winner,
            "cap": self.cap,
            "rounds": self.rounds,
            "start": {
                "left": self.start.left,
                "right": self.start.right,
                "rounds_left": self.start.rounds_left,
            },
            "positions": entries,
        }


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise ResourceLimitError("game solving exceeded its step budget")


def _within(m: KripkeStructure, point: int, depth: int) -> list[list[int]]:
    """``layers[d]`` lists the worlds at most d steps from ``point``, for d up
    to ``depth``; a step follows any agent's relation."""
    seen = {point}
    frontier = [point]
    layers = [[point]]
    for _ in range(depth):
        ring = []
        for u in frontier:
            for agent in m.signature.agents:
                for v in m.successors(agent, u):
                    if v not in seen:
                        seen.add(v)
                        ring.append(v)
        frontier = ring
        layers.append(layers[-1] + ring)
    return layers


def _atom_masks(a: KripkeStructure, b: KripkeStructure, left, right) -> list[int]:
    """Per left world in ``left``, the mask of the worlds in ``right`` with
    the same atoms; the other rows are 0."""
    same: dict[tuple[str, ...], int] = {}
    for w in right:
        atoms = b.props_of(w)
        same[atoms] = same.get(atoms, 0) | 1 << w
    masks = [0] * a.world_count
    for u in left:
        masks[u] = same.get(a.props_of(u), 0)
    return masks


def _successor_masks(m: KripkeStructure, worlds) -> dict[str, list[int]]:
    """Per agent, the successor mask of every world in ``worlds``; 0 elsewhere."""
    masks = {}
    for agent in m.signature.agents:
        row = [0] * m.world_count
        for w in worlds:
            row[w] = sum(1 << v for v in m.successors(agent, w))
        masks[agent] = row
    return masks


def _spoiler_sets(successors: tuple[int, ...], cap: int):
    """All spoiler choices over the given successors, sizes 1..cap."""
    for size in range(1, min(cap, len(successors)) + 1):
        yield from combinations(successors, size)


def _challenges(ka: KripkeStructure, kb: KripkeStructure, agent: str, u: int, v: int):
    """The two sides an ``agent`` challenge at (u, v) can take, left first.

    Each entry is (side, spoiler's successors, duplicator's successors).
    """
    left = ka.successors(agent, u)
    right = kb.successors(agent, v)
    return (("left", left, right), ("right", right, left))


def _oriented(side: str, spoiler_world: int, duplicator_world: int) -> tuple[int, int]:
    """Order a (spoiler-side world, duplicator-side world) pair as (left, right)."""
    if side == "left":
        return spoiler_world, duplicator_world
    return duplicator_world, spoiler_world


def solve_game(
    a: PointedStructure,
    b: PointedStructure,
    cap: int,
    rounds: int,
) -> GameResult:
    """Exact value of the bounded game, with a strategy for the winner.

    The duplicator survives a spoiler set ``s`` iff enough opposite-side
    successors are covered: a legal response of size ``|s|`` exists exactly
    when at least ``|s|`` opposite successors each continue into a
    duplicator-won position against some member of ``s`` (any such set is a
    valid response, since only covered worlds enter it).

    A position with m rounds left lies rounds - m moves from the start, and
    a move steps one edge on each side.  So the table with m rounds left is
    computed only for pairs whose left world is within rounds - m steps of
    ``a.point`` and whose right world is within rounds - m steps of
    ``b.point``, along any agent.  Those entries read only entries of the
    same kind one round down, and strategy extraction reads no others, so
    the result is that of the whole table, and ``STEP_BUDGET`` counts only
    the positions reachable within the remaining rounds.
    """
    if a.signature != b.signature:
        raise SignatureError("the two structures carry different signatures")
    if cap < 0 or rounds < 0:
        raise ValueError("cap and rounds must be nonnegative")
    ka, kb = a.structure, b.structure
    na, nb = ka.world_count, kb.world_count
    agents = ka.signature.agents
    budget = _Budget(STEP_BUDGET)

    near_a = _within(ka, a.point, rounds)
    near_b = _within(kb, b.point, rounds)
    near_b_mask = [sum(1 << v for v in worlds) for worlds in near_b]
    atom = _atom_masks(ka, kb, near_a[rounds], near_b[rounds])
    moving = max(rounds - 1, 0)  # the farthest a position with a move left lies
    succ_a_mask = _successor_masks(ka, near_a[moving])
    succ_b_mask = _successor_masks(kb, near_b[moving])

    # win[u] = bitmask of right worlds v such that the duplicator wins (u, v)
    # with the current number of rounds left; winT is its transpose.  Rows
    # and bits outside the reachable pairs stay 0 and are never read.
    # tables[side][m] is the table with m rounds left indexed by a world on
    # that side, so it masks the worlds on the opposite side.
    win = atom
    levels = [win]
    transposes = []
    for steps in reversed(range(rounds)):  # the new table's distance from the start
        winT = [0] * nb
        for u in near_a[steps + 1]:
            row = win[u]
            while row:
                low = row & -row
                winT[low.bit_length() - 1] |= 1 << u
                row ^= low
        transposes.append(winT)
        new = [0] * na
        for u in near_a[steps]:
            mask = 0
            candidates = atom[u] & near_b_mask[steps]
            while candidates:
                low = candidates & -candidates
                v = low.bit_length() - 1
                candidates ^= low
                if _duplicator_survives(
                    ka, kb, u, v, cap, agents, win, winT,
                    succ_a_mask, succ_b_mask, budget,
                ):
                    mask |= low
            new[u] = mask
        win = new
        levels.append(win)
    tables = {"left": levels, "right": transposes}

    dup_wins = bool(levels[rounds][a.point] >> b.point & 1)
    winner = DUPLICATOR if dup_wins else SPOILER
    start = GamePosition(a.point, b.point, rounds)
    extract = _extract_duplicator if dup_wins else _extract_spoiler
    strategy = extract(ka, kb, a.point, b.point, cap, rounds, agents, tables, budget)
    return GameResult(winner, cap, rounds, start, MappingProxyType(strategy))


def _duplicator_survives(
    ka, kb, u, v, cap, agents, win, winT, succ_a_mask, succ_b_mask, budget,
) -> bool:
    for agent in agents:
        for side, mine, _ in _challenges(ka, kb, agent, u, v):
            if side == "left":
                wins, theirs_mask = win, succ_b_mask[agent][v]
            else:
                wins, theirs_mask = winT, succ_a_mask[agent][u]
            for chosen in _spoiler_sets(mine, cap):
                budget.spend()
                cover = 0
                for x in chosen:
                    cover |= wins[x]
                if (cover & theirs_mask).bit_count() < len(chosen):
                    return False
    return True


def _covered_challenges(ka, kb, u, v, m, cap, agents, tables, budget):
    """Every spoiler challenge at (u, v, m), agent by agent, left before right.

    Yields the move, the duplicator's successors, the table of duplicator
    wins with m - 1 rounds left indexed by the challenged side, and the
    duplicator's successors that win against some challenged world.
    """
    for agent in agents:
        for side, mine, theirs in _challenges(ka, kb, agent, u, v):
            wins = tables[side][m - 1]
            for chosen in _spoiler_sets(mine, cap):
                budget.spend()
                cover = 0
                for x in chosen:
                    cover |= wins[x]
                covered = [y for y in theirs if cover >> y & 1]
                yield SpoilerMove(side, agent, chosen), theirs, wins, covered


def _extract_duplicator(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    strategy: dict = {}

    def visit(u, v, m):
        if (u, v, m) in strategy:
            return
        if m == 0:
            strategy[(u, v, 0)] = {}
            return
        moves: dict = {}
        for move, _, wins, covered in _covered_challenges(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            response = tuple(covered[: len(move.chosen)])
            matches = {
                y: next(x for x in move.chosen if wins[x] >> y & 1) for y in response
            }
            moves[move] = DuplicatorMove(response, matches)
        strategy[(u, v, m)] = moves
        for move, answer in moves.items():
            for pick, reply in answer.matches.items():
                visit(*_oriented(move.side, reply, pick), m - 1)

    visit(u0, v0, rounds)
    return strategy


def _extract_spoiler(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    strategy: dict = {}
    atom = tables["left"][0]

    def visit(u, v, m):
        if (u, v, m) in strategy:
            return
        if not atom[u] >> v & 1:
            strategy[(u, v, m)] = None
            return
        for move, theirs, _, covered in _covered_challenges(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            if len(covered) < len(move.chosen):
                break
        else:
            raise AssertionError("spoiler-won position without a winning move")
        picks: dict = {}
        for response in combinations(theirs, len(move.chosen)):
            budget.spend()
            pick = next(p for p in response if p not in covered)
            picks[response] = pick
            for reply in move.chosen:
                visit(*_oriented(move.side, reply, pick), m - 1)
        strategy[(u, v, m)] = SpoilerPlay(move, picks)

    visit(u0, v0, rounds)
    return strategy


def verify_strategy(
    result: GameResult,
    a: PointedStructure,
    b: PointedStructure,
) -> bool:
    """Replay every opposing move against the certificate, at its cap and
    number of rounds.

    Returns True iff the claimed winner never loses under the stored
    strategy; a strategy that is not total on a reached position, or that
    makes an illegal move, is rejected.
    """
    cap, rounds = result.cap, result.rounds
    ka, kb = a.structure, b.structure
    agents = ka.signature.agents

    def atom_equal(u, v):
        return all(
            (u in ka.valuation[p]) == (v in kb.valuation[p])
            for p in ka.signature.props
        )

    def duplicator_holds(u, v, m) -> bool:
        moves = result.strategy.get((u, v, m))
        if moves is None:
            return False
        for agent in agents:
            for side, mine, theirs in _challenges(ka, kb, agent, u, v):
                for chosen in _spoiler_sets(mine, cap):
                    answer = moves.get(SpoilerMove(side, agent, chosen))
                    if answer is None:
                        return False
                    response = answer.response
                    distinct = set(response)
                    if not (
                        len(distinct) == len(response) == len(chosen)
                        and distinct.issubset(theirs)
                    ):
                        return False
                    for pick in response:
                        reply = answer.matches.get(pick)
                        if reply is None or reply not in chosen:
                            return False
                        if not holds(*_oriented(side, reply, pick), m - 1):
                            return False
        return True

    def spoiler_wins(u, v, m) -> bool:
        entry = result.strategy.get((u, v, m))
        if not isinstance(entry, SpoilerPlay) or entry.move.agent not in agents:
            return False
        side, agent, chosen = entry.move.side, entry.move.agent, entry.move.chosen
        _, mine, theirs = _challenges(ka, kb, agent, u, v)[0 if side == "left" else 1]
        distinct = set(chosen)
        if not (1 <= len(distinct) == len(chosen) <= cap and distinct.issubset(mine)):
            return False
        # With no legal response the duplicator is stuck and the loop is empty.
        for response in combinations(theirs, len(chosen)):
            pick = entry.picks.get(response)
            if pick is None or pick not in response:
                return False
            for reply in chosen:
                if not holds(*_oriented(side, reply, pick), m - 1):
                    return False
        return True

    # Whether the claimed winner wins from (u, v) with m rounds left.
    # Positions lose a round per move, so none recurs below itself.
    memo: dict[tuple[int, int, int], bool] = {}
    spoiler_claims = result.winner != DUPLICATOR
    check = spoiler_wins if spoiler_claims else duplicator_holds

    def holds(u, v, m) -> bool:
        key = (u, v, m)
        if key not in memo:
            if not atom_equal(u, v):
                memo[key] = spoiler_claims
            elif m == 0:
                memo[key] = not spoiler_claims
            else:
                memo[key] = check(u, v, m)
        return memo[key]

    return holds(a.point, b.point, rounds)
