import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmodal import (
    FragmentBound,
    KripkeStructure,
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
from gradedmodal.game import DUPLICATOR, SPOILER

from helpers import SIG_A, chain, fan, loop1, random_pair, related_pair
from oracles import whole_table_solve_game


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
    with pytest.raises(ResourceLimitError):
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
    assert verify_strategy(result, a, b)


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
