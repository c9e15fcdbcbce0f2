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

from .errors import ResourceLimitError
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
    __slots__ = ("limit", "left")

    def __init__(self, limit: int):
        self.limit = self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError(
                f"game solving exceeded its step budget of {self.limit} (game.STEP_BUDGET)"
            )


def _layers(m: KripkeStructure, point: int, depth: int) -> list[set[int]]:
    """``layers[d]`` holds the worlds at the end of a d-step path from
    ``point``, for d up to ``depth``; a step follows any agent's relation."""
    layers = [{point}]
    for _ in range(depth):
        ring = set()
        for u in layers[-1]:
            for agent in m.signature.agents:
                ring.update(m.successors(agent, u))
        layers.append(ring)
    return layers


def _atom_masks(a: KripkeStructure, b: KripkeStructure, left, right) -> list[int]:
    """Per left world in ``left``, the mask of the worlds in ``right`` with
    the same atoms; the other rows are 0."""
    atoms_a, atoms_b = a._atom_ids(), b._atom_ids()
    same: dict[int, int] = {}
    for w in right:
        same[atoms_b[w]] = same.get(atoms_b[w], 0) | 1 << w
    masks = [0] * a.world_count
    for u in left:
        masks[u] = same.get(atoms_a[u], 0)
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

    A position with m rounds left lies exactly rounds - m moves from the
    start, and a move steps one edge on each side.  So the table with m
    rounds left holds only the pairs whose left world ends a path of
    rounds - m steps from ``a.point`` and whose right world ends one from
    ``b.point``, along any agents.  Those entries read only entries of the
    same kind one round down, and strategy extraction reads no others, so
    the result is that of the whole table, and ``STEP_BUDGET`` counts no
    pair that lies at the wrong distance from the start.
    """
    a.signature._require_same(b.signature)
    if cap < 0 or rounds < 0:
        raise ValueError("cap and rounds must be nonnegative")
    ka, kb = a.structure, b.structure
    agents = ka.signature.agents
    budget = _Budget(STEP_BUDGET)

    near_a = _layers(ka, a.point, rounds)
    near_b = _layers(kb, b.point, rounds)
    reach_a, reach_b = set().union(*near_a), set().union(*near_b)
    atom = _atom_masks(ka, kb, reach_a, reach_b)
    succ_a_mask = _successor_masks(ka, reach_a)
    succ_b_mask = _successor_masks(kb, reach_b)

    # levels[m][u] is the mask of the right worlds v such that the duplicator
    # wins (u, v) with m rounds left, for u and v exactly rounds - m steps
    # from their points; transposes[m] indexes the same wins by v.  With no
    # round left the duplicator wins every atom-equal pair.
    levels, transposes = [], []
    for steps in reversed(range(rounds + 1)):  # the new table's distance from the start
        win = dict.fromkeys(near_a[steps], 0)
        winT = dict.fromkeys(near_b[steps], 0)
        layer_b = sum(1 << v for v in winT)
        for u in win:
            candidates = atom[u] & layer_b
            while candidates:
                low = candidates & -candidates
                v = low.bit_length() - 1
                candidates ^= low
                if not levels or _duplicator_survives(
                    ka, kb, u, v, cap, agents, levels[-1], transposes[-1],
                    succ_a_mask, succ_b_mask, budget,
                ):
                    win[u] |= low
                    winT[v] |= 1 << u
        levels.append(win)
        transposes.append(winT)
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


def _covers(ka, kb, u, v, m, cap, agents, tables, budget):
    """Every spoiler challenge at (u, v, m), agent by agent, left before
    right, spending one step on each.

    Yields the side, the agent, the chosen set, the duplicator's
    successors, the rows and the cover.  The rows are computed once per
    agent and side: per spoiler successor x, the mask of the duplicator's
    successors that win against x with m - 1 rounds left.  The cover is
    the union of the chosen worlds' rows.
    """
    for agent in agents:
        for side, mine, theirs in _challenges(ka, kb, agent, u, v):
            wins = tables[side][m - 1]
            theirs_mask = 0
            for y in theirs:
                theirs_mask |= 1 << y
            rows = {x: wins[x] & theirs_mask for x in mine}
            for chosen in _spoiler_sets(mine, cap):
                budget.spend()
                cover = 0
                for x in chosen:
                    cover |= rows[x]
                yield side, agent, chosen, theirs, rows, cover


def _extract_duplicator(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    """The duplicator's answers at every position reached from the start,
    walked with an explicit stack so no number of rounds exhausts the
    recursion limit.

    The response to a challenge is its |chosen| lowest covered successors,
    and each of them is matched with the first chosen world it wins against.
    """
    strategy: dict = {}
    stack = [(u0, v0, rounds)]
    while stack:
        u, v, m = position = stack.pop()
        if position in strategy:
            continue
        moves: dict = {}
        strategy[position] = moves
        if m == 0:
            continue
        following = []
        for side, agent, chosen, _, rows, cover in _covers(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            matches = {}
            for _ in chosen:
                low = cover & -cover
                cover ^= low
                for x in chosen:
                    if rows[x] & low:
                        break
                y = low.bit_length() - 1
                matches[y] = x
                following.append(_oriented(side, x, y) + (m - 1,))
            moves[SpoilerMove(side, agent, chosen)] = DuplicatorMove(tuple(matches), matches)
        stack.extend(reversed(following))
    return strategy


def _extract_spoiler(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    """The spoiler's plays at every position reached from the start, walked
    with an explicit stack.

    The play is the first challenge whose cover is smaller than the chosen
    set; against every response the pick is its first uncovered world.
    """
    atoms_a, atoms_b = ka._atom_ids(), kb._atom_ids()
    strategy: dict = {}
    stack = [(u0, v0, rounds)]
    while stack:
        u, v, m = position = stack.pop()
        if position in strategy:
            continue
        if atoms_a[u] != atoms_b[v]:
            strategy[position] = None
            continue
        for side, agent, chosen, theirs, _, cover in _covers(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            if cover.bit_count() < len(chosen):
                break
        else:
            raise AssertionError("spoiler-won position without a winning move")
        picks: dict = {}
        following = []
        for response in combinations(theirs, len(chosen)):
            budget.spend()
            pick = next(p for p in response if not cover >> p & 1)
            picks[response] = pick
            following += [_oriented(side, reply, pick) + (m - 1,) for reply in chosen]
        strategy[position] = SpoilerPlay(SpoilerMove(side, agent, chosen), picks)
        stack.extend(reversed(following))
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
    # Atom ids of structures over different signatures do not compare.
    a.signature._require_same(b.signature)
    cap, rounds = result.cap, result.rounds
    ka, kb = a.structure, b.structure
    agents = ka.signature.agents
    atoms_a, atoms_b = ka._atom_ids(), kb._atom_ids()

    def duplicator_answers(u, v, m):
        """The positions the stored answers at (u, v, m) lead to, or None if
        a spoiler move is unanswered or an answer is illegal."""
        moves = result.strategy.get((u, v, m))
        if moves is None:
            return None
        # Only a SpoilerMove key can equal the SpoilerMove of a lookup.
        answers = {
            (move.side, move.agent, move.chosen): answer
            for move, answer in moves.items()
            if type(move) is SpoilerMove
        }
        following = []
        for agent in agents:
            for side, mine, theirs in _challenges(ka, kb, agent, u, v):
                legal = set(theirs)
                for chosen in _spoiler_sets(mine, cap):
                    answer = answers.get((side, agent, chosen))
                    if answer is None:
                        return None
                    response = answer.response
                    distinct = set(response)
                    if not (len(distinct) == len(response) == len(chosen) and distinct <= legal):
                        return None
                    for pick in response:
                        reply = answer.matches.get(pick)
                        if reply is None or reply not in chosen:
                            return None
                        following.append(_oriented(side, reply, pick) + (m - 1,))
        return following

    def spoiler_play(u, v, m):
        """The positions the stored play at (u, v, m) leads to, or None if
        there is none or it is illegal."""
        entry = result.strategy.get((u, v, m))
        if not isinstance(entry, SpoilerPlay) or entry.move.agent not in agents:
            return None
        side, agent, chosen = entry.move.side, entry.move.agent, entry.move.chosen
        if side not in ("left", "right"):
            return None
        _, mine, theirs = _challenges(ka, kb, agent, u, v)[0 if side == "left" else 1]
        distinct = set(chosen)
        if not (1 <= len(distinct) == len(chosen) <= cap and distinct.issubset(mine)):
            return None
        following = []
        # With no legal response the duplicator is stuck and the loop is empty.
        for response in combinations(theirs, len(chosen)):
            pick = entry.picks.get(response)
            if pick is None or pick not in response:
                return None
            following += [_oriented(side, reply, pick) + (m - 1,) for reply in chosen]
        return following

    # The claimed winner wins iff every position the strategy reaches is won
    # there: an atomic difference wins for the spoiler, the last round for
    # the duplicator, and elsewhere the stored move must be legal.
    spoiler_claims = result.winner != DUPLICATOR
    moves_at = spoiler_play if spoiler_claims else duplicator_answers
    start = (a.point, b.point, rounds)
    seen = {start}
    stack = [start]
    while stack:
        u, v, m = stack.pop()
        equal = atoms_a[u] == atoms_b[v]
        if not equal or m == 0:
            if spoiler_claims == equal:
                return False
            continue
        following = moves_at(u, v, m)
        if following is None:
            return False
        for position in following:
            if position not in seen:
                seen.add(position)
                stack.append(position)
    return True
