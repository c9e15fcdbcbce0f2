import copy
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodal import (
    FragmentBound,
    KripkeStructure,
    PointedStructure,
    ResourceLimitError,
    Signature,
    SignatureError,
    bounded_equivalence,
    disjoint_union,
    distinguishing_formula,
    in_fragment,
    satisfies,
    solve_game,
    verify_strategy,
)
from gradedmodal import game
from gradedmodal.game import (
    DUPLICATOR,
    SPOILER,
    DuplicatorMove,
    GameResult,
    SpoilerMove,
    SpoilerPlay,
)

from helpers import SIG_A, chain, fan, loop1, random_pair, related_pair
from oracles import rebuilding_verify_strategy, whole_table_solve_game


def test_fan_game_fixtures():
    assert solve_game(fan(2), fan(3), 3, 1).winner == SPOILER
    assert solve_game(fan(2), fan(3), 2, 1).winner == DUPLICATOR


def test_atomically_distinct_lost_at_round_zero():
    import gradedmodal as gm

    sig = Signature((), ("p",))
    a = gm.PointedStructure(gm.KripkeStructure(sig, 1, {}, {"p": {0}}), 0)
    b = gm.PointedStructure(gm.KripkeStructure(sig, 1, {}, {"p": set()}), 0)
    for rounds in (0, 1, 2):
        result = solve_game(a, b, 2, rounds)
        assert result.winner == SPOILER
        assert verify_strategy(result, a, b)


def test_signature_mismatch():
    with pytest.raises(SignatureError):
        solve_game(fan(1), fan(1, Signature(("b",), ())), 1, 1)


def test_budget_guard_is_not_a_verdict(monkeypatch):
    monkeypatch.setattr(game, "STEP_BUDGET", 3)
    with pytest.raises(ResourceLimitError, match=r"step budget of 3 \(game\.STEP_BUDGET\)"):
        solve_game(fan(4), fan(4), 3, 2)


def test_all_solved_games_verify():
    rng = random.Random(107)
    for _ in range(60):
        a, b = random_pair(rng)
        cap, rounds = rng.randint(0, 2), rng.randint(0, 2)
        result = solve_game(a, b, cap, rounds)
        assert result.winner in (DUPLICATOR, SPOILER)
        assert verify_strategy(result, a, b)


def test_deep_games_are_extracted_and_verified_without_recursion():
    # Thousands of rounds put every position of the certificate on one path.
    one = loop1()
    result = solve_game(one, one, 1, 5000)
    assert result.winner == DUPLICATOR
    assert len(result.strategy) == 5001
    assert verify_strategy(result, one, one)
    # The spoiler walks the chain to its end, 600 moves deep.
    result = solve_game(one, chain(600), 1, 601)
    assert result.winner == SPOILER
    assert len(result.strategy) == 601
    assert verify_strategy(result, one, chain(600))


def test_corrupted_duplicator_strategy_rejected():
    from gradedmodal.game import DuplicatorMove, GameResult

    result = solve_game(fan(2), fan(2), 2, 2)
    assert result.winner == DUPLICATOR
    assert verify_strategy(result, fan(2), fan(2))
    strategy = copy.deepcopy(dict(result.strategy))
    # corrupt one response: swap a matched reply for a wrong world
    corrupted = False
    for pos, moves in strategy.items():
        for move, answer in list(moves.items()):
            if answer.response:
                bad = dict(answer.matches)
                pick = next(iter(bad))
                bad[pick] = max(move.chosen) + 99
                moves[move] = DuplicatorMove(answer.response, bad)
                corrupted = True
                break
        if corrupted:
            break
    assert corrupted
    mutant = GameResult(result.winner, result.cap, result.rounds, result.start, strategy)
    assert not verify_strategy(mutant, fan(2), fan(2))


def test_corrupted_spoiler_strategy_rejected():
    from gradedmodal.game import GameResult, SpoilerPlay

    from helpers import chain

    # chain(1) vs chain(2): the spoiler needs two rounds, and the duplicator
    # has a legal response in the first, so stored picks are consulted
    a, b = chain(1), chain(2)
    result = solve_game(a, b, 1, 2)
    assert result.winner == SPOILER
    assert verify_strategy(result, a, b)
    strategy = copy.deepcopy(dict(result.strategy))
    key = (0, 0, 2)
    play = strategy[key]
    assert play.picks, "the duplicator has responses here"
    bad_picks = {resp: -1 for resp in play.picks}  # pick outside every response
    strategy[key] = SpoilerPlay(play.move, bad_picks)
    mutant = GameResult(result.winner, result.cap, result.rounds, result.start, strategy)
    assert not verify_strategy(mutant, a, b)
    # removing the entry entirely must also reject
    del strategy[key]
    mutant = GameResult(result.winner, result.cap, result.rounds, result.start, strategy)
    assert not verify_strategy(mutant, a, b)


def test_certificate_is_checked_past_the_start():
    from gradedmodal.game import GameResult

    # A claim needs a legal entry at every position it reaches, not only at
    # the start: dropping any entry one round down must reject it.
    for a, b, cap in ((fan(2), fan(2), 2), (chain(1), chain(2), 1)):
        result = solve_game(a, b, cap, 2)
        deeper = [key for key in result.strategy if key[2] == 1]
        assert deeper
        for key in deeper:
            strategy = dict(result.strategy)
            del strategy[key]
            mutant = GameResult(result.winner, result.cap, result.rounds, result.start, strategy)
            assert not verify_strategy(mutant, a, b)


def test_forged_spoiler_challenge_rejected():
    from gradedmodal.game import GamePosition, GameResult, SpoilerMove, SpoilerPlay

    # 0 -a-> 1 against itself is a duplicator win.  A challenge naming world 1
    # twice leaves no two-element response, and agent "b" is not in the
    # signature; neither is a legal spoiler move.
    a = fan(1)
    assert solve_game(a, a, 2, 1).winner == DUPLICATOR
    for move in (SpoilerMove("left", "a", (1, 1)), SpoilerMove("left", "b", (1,))):
        strategy = {(0, 0, 1): SpoilerPlay(move, {})}
        forged = GameResult(SPOILER, 2, 1, GamePosition(0, 0, 1), strategy)
        assert not verify_strategy(forged, a, a)


def test_forged_claims_at_terminal_positions_rejected():
    from gradedmodal.game import GamePosition

    # With no round left, atom-equal points are a duplicator win and points
    # whose atoms differ a spoiler win, so neither claim needs a strategy.
    sig = Signature(("a",), ("p",))
    marked = KripkeStructure(sig, 2, {"a": [(0, 1)]}, {"p": [1]})
    a, b = PointedStructure(marked, 0), PointedStructure(marked, 1)
    assert not verify_strategy(GameResult(SPOILER, 1, 0, GamePosition(0, 0, 0), {}), a, a)
    assert not verify_strategy(GameResult(DUPLICATOR, 1, 0, GamePosition(0, 1, 0), {}), a, b)


def test_verify_strategy_refuses_structures_over_different_signatures():
    from gradedmodal.game import GamePosition

    # The point of each side satisfies its one proposition, so both points
    # have atom id 1, though one satisfies p and the other q.
    a = PointedStructure(KripkeStructure(Signature(("a",), ("p",)), 1, {}, {"p": [0]}), 0)
    b = PointedStructure(KripkeStructure(Signature(("a",), ("q",)), 1, {}, {"q": [0]}), 0)
    claim = GameResult(DUPLICATOR, 1, 0, GamePosition(0, 0, 0), {(0, 0, 0): {}})
    with pytest.raises(SignatureError, match="different signatures"):
        verify_strategy(claim, a, b)


def test_monotonicity_of_spoiler_wins():
    rng = random.Random(109)
    for _ in range(40):
        a, b = random_pair(rng)
        for cap in range(2):
            for rounds in range(2):
                if solve_game(a, b, cap, rounds).winner == SPOILER:
                    assert solve_game(a, b, cap + 1, rounds).winner == SPOILER
                    assert solve_game(a, b, cap, rounds + 1).winner == SPOILER


def test_oracle_agreement_with_refinement():
    rng = random.Random(113)
    for _ in range(80):
        a, b = random_pair(rng)
        for cap in range(3):
            for rounds in range(3):
                game = solve_game(a, b, cap, rounds)
                assert (game.winner == DUPLICATOR) == bool(
                    bounded_equivalence(a, b, cap, rounds)
                )


def test_spoiler_win_yields_separating_formula():
    rng = random.Random(131)
    found = 0
    while found < 25:
        a, b = random_pair(rng)
        cap, rounds = rng.randint(1, 2), rng.randint(1, 2)
        if solve_game(a, b, cap, rounds).winner != SPOILER:
            continue
        separator = distinguishing_formula(a, b, cap, rounds)
        assert separator is not None
        assert in_fragment(separator, FragmentBound(cap, rounds))
        assert satisfies(a, separator)
        assert not satisfies(b, separator)
        found += 1


def test_result_serializes():
    result = solve_game(fan(2), fan(3), 3, 1)
    payload = result.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    assert payload["winner"] == SPOILER
    assert "positions" in payload and text

    dup = solve_game(fan(2), fan(2), 2, 1)
    payload = dup.to_json_dict()
    json.dumps(payload)
    assert payload["winner"] == DUPLICATOR


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_reachable_tables_match_the_whole_table(seed, cap, rounds):
    rng = random.Random(seed)
    a, b = (related_pair if seed % 2 else random_pair)(rng, max_worlds=7)
    result = solve_game(a, b, cap, rounds)
    oracle = whole_table_solve_game(a, b, cap, rounds)
    assert result.winner == oracle.winner
    assert result.start == oracle.start
    assert dict(result.strategy) == dict(oracle.strategy)
    assert _orders(result) == _orders(oracle)
    assert verify_strategy(result, a, b)


def _orders(result):
    """The certificate's positions in stored order, each with its moves and
    their matches, or its picks, in stored order."""
    orders = []
    for position, value in result.strategy.items():
        if result.winner == DUPLICATOR:
            value = [(move, list(answer.matches.items())) for move, answer in value.items()]
        elif value is not None:
            value = (value.move, list(value.picks.items()))
        orders.append((position, value))
    return orders


class _ForgedMove(SpoilerMove):
    """Equal fields, but not a ``SpoilerMove``, so never equal to one."""


def _mutate(result, mutation, choice):
    """A copy of the certificate with one flaw at one stored move, chosen
    by ``choice``; the certificate itself when it stores no move."""
    strategy = dict(result.strategy)
    stored = [key for key, value in strategy.items() if value]
    if mutation == "none" or not stored:
        return result
    key = stored[choice % len(stored)]
    if result.winner == DUPLICATOR:
        moves = dict(strategy[key])
        move = list(moves)[choice // len(stored) % len(moves)]
        answer = moves.pop(move)
        response, matches = answer.response, dict(answer.matches)
        if mutation == "size":
            response = response[:-1] if choice % 2 else response + (max(response) + 1,)
            moves[move] = DuplicatorMove(response, matches)
        elif mutation == "reply":
            matches[response[choice % len(response)]] = max(move.chosen) + 1
            moves[move] = DuplicatorMove(response, matches)
        elif mutation == "key":
            fields = (move.side, move.agent, move.chosen)
            moves[fields if choice % 2 else _ForgedMove(*fields)] = answer
        strategy[key] = moves
    else:
        play = strategy.pop(key)
        move, picks = play.move, dict(play.picks)
        if mutation == "size":
            strategy[key] = SpoilerPlay(
                SpoilerMove(move.side, move.agent, move.chosen + move.chosen[:1]), picks
            )
        elif mutation == "reply":
            for response in list(picks)[:1]:
                picks[response] = max(response) + 1
            strategy[key] = SpoilerPlay(move, picks)
        elif mutation == "key":
            fields = SimpleNamespace(side=move.side, agent=move.agent, chosen=move.chosen)
            strategy[key] = SpoilerPlay(fields, picks)
    return GameResult(result.winner, result.cap, result.rounds, result.start, strategy)


def _outcome(check, result, a, b):
    try:
        return check(result, a, b)
    except Exception as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(["none", "drop", "size", "reply", "key"]),
    st.integers(0, 2**16),
)
def test_verify_strategy_agrees_with_the_rebuilding_checker(seed, cap, rounds, mutation, choice):
    # Spoiler moves on a side other than "left" or "right" are left out: the
    # rebuilding checker reads them as "right" (see the regression test below).
    rng = random.Random(seed)
    a, b = (related_pair if seed % 2 else random_pair)(rng, max_worlds=6)
    result = solve_game(a, b, cap, rounds)
    mutant = _mutate(result, mutation, choice)
    verdict = _outcome(verify_strategy, mutant, a, b)
    assert verdict == _outcome(rebuilding_verify_strategy, mutant, a, b)
    if mutation == "none":
        assert verdict is True


def test_spoiler_move_on_an_unknown_side_rejected():
    a, b = fan(2), fan(3)
    result = solve_game(a, b, 3, 1)
    assert result.winner == SPOILER
    assert verify_strategy(result, a, b)
    strategy = dict(result.strategy)
    play = strategy[(0, 0, 1)]
    strategy[(0, 0, 1)] = SpoilerPlay(SpoilerMove("up", play.move.agent, play.move.chosen), play.picks)
    forged = GameResult(result.winner, result.cap, result.rounds, result.start, strategy)
    assert forged.to_json_dict()["positions"][0]["move"]["side"] == "up"
    assert not verify_strategy(forged, a, b)
    # The rebuilding checker took any side but "left" for "right".
    assert rebuilding_verify_strategy(forged, a, b)


def test_budget_counts_only_reachable_positions(monkeypatch):
    # The point's component is a 2-fan; the 12-world clique beside it is
    # unreachable, yet the whole table pays for every pair of its worlds.
    clique = KripkeStructure(
        SIG_A, 12, {"a": {(u, v) for u in range(12) for v in range(12) if u != v}}
    )
    a = disjoint_union([fan(2).structure, clique], point_from=(0, 0))
    b = disjoint_union([clique, fan(2).structure], point_from=(1, 0))
    monkeypatch.setattr(game, "STEP_BUDGET", 200)
    result = solve_game(a, b, 2, 2)
    assert result.winner == DUPLICATOR
    assert verify_strategy(result, a, b)
    with pytest.raises(ResourceLimitError):
        whole_table_solve_game(a, b, 2, 2)
    # Against a chain the k-th position of the certificate pairs the loop
    # with the chain's k-th world only, since no other world ends a k-step
    # path: each position costs a few steps, never one per chain world.
    one = loop1()
    for edges, limit in ((1000, 5000), (10000, 40000)):
        line = chain(edges)
        monkeypatch.setattr(game, "STEP_BUDGET", limit)
        result = solve_game(one, line, 1, edges + 1)
        assert result.winner == SPOILER
        assert len(result.strategy) == edges + 1
        assert verify_strategy(result, one, line)


def test_exact_layers_match_the_whole_table(monkeypatch):
    # The k-step layer of a 30-edge chain is its k-th world alone, while up
    # to 31 worlds lie within k steps; the certificate is still the whole
    # table's, and it is found spending a few steps per position.
    one, line = loop1(), chain(30)
    oracle = whole_table_solve_game(one, line, 1, 31)
    monkeypatch.setattr(game, "STEP_BUDGET", 150)
    result = solve_game(one, line, 1, 31)
    assert result.winner == oracle.winner == SPOILER
    assert dict(result.strategy) == dict(oracle.strategy)
    assert verify_strategy(result, one, line)
