"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from gradedmodal import (
    And,
    Bot,
    Diamond,
    KripkeStructure,
    Not,
    Or,
    ParseError,
    PointedStructure,
    Prop,
    Signature,
    Top,
    disjoint_union,
)

SIG_A = Signature(("a",), ())
SIG_AP = Signature(("a",), ("p",))


def fan(k: int, sig: Signature = SIG_A) -> PointedStructure:
    """Root 0 with k children via agent 'a'; no propositions hold."""
    edges = {"a": {(0, i) for i in range(1, k + 1)}}
    return PointedStructure(KripkeStructure(sig, k + 1, edges, {}), 0)


def loop1(sig: Signature = SIG_A) -> PointedStructure:
    return PointedStructure(KripkeStructure(sig, 1, {"a": {(0, 0)}}, {}), 0)


def chain(n: int, sig: Signature = SIG_A) -> PointedStructure:
    """Worlds w0 -> w1 -> ... -> wn via agent 'a', pointed at w0."""
    edges = {"a": {(i, i + 1) for i in range(n)}}
    return PointedStructure(KripkeStructure(sig, n + 1, edges, {}), 0)


def random_signature(rng: random.Random) -> Signature:
    agents = ("a", "b")[: rng.randint(1, 2)]
    props = ("p", "q")[: rng.randint(0, 2)]
    return Signature(agents, props)


def random_structure(
    rng: random.Random,
    sig: Signature,
    max_worlds: int = 6,
    edge_prob: float = 0.28,
) -> PointedStructure:
    n = rng.randint(1, max_worlds)
    edges = {
        agent: {
            (u, v)
            for u in range(n)
            for v in range(n)
            if rng.random() < edge_prob
        }
        for agent in sig.agents
    }
    valuation = {
        prop: {w for w in range(n) if rng.random() < 0.5} for prop in sig.props
    }
    return PointedStructure(
        KripkeStructure(sig, n, edges, valuation), rng.randrange(n)
    )


def random_formula(
    rng: random.Random, sig: Signature, depth: int, max_grade: int
):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        atoms = [Top(), Bot()] + [Prop(p) for p in sig.props]
        return rng.choice(atoms)
    if roll < 0.55:
        return Not(random_formula(rng, sig, depth - 1, max_grade))
    if roll < 0.75:
        ctor = And if rng.random() < 0.5 else Or
        return ctor(
            random_formula(rng, sig, depth - 1, max_grade),
            random_formula(rng, sig, depth - 1, max_grade),
        )
    agent = rng.choice(sig.agents) if sig.agents else None
    if agent is None:
        return Top()
    return Diamond(
        agent, rng.randint(1, max_grade), random_formula(rng, sig, depth - 1, max_grade)
    )


def fragment_formula(rng: random.Random, sig: Signature, cap: int, depth: int):
    """A random formula with counting rank <= cap and nesting depth <= depth."""
    roll = rng.random()
    if depth == 0 or cap == 0 or not sig.agents or roll < 0.35:
        atoms = [Top(), Bot()] + [Prop(p) for p in sig.props]
        return rng.choice(atoms)
    if roll < 0.55:
        return Not(fragment_formula(rng, sig, cap, depth - 1))
    if roll < 0.75:
        ctor = And if rng.random() < 0.5 else Or
        return ctor(
            fragment_formula(rng, sig, cap, depth - 1),
            fragment_formula(rng, sig, cap, depth - 1),
        )
    return Diamond(
        rng.choice(sig.agents),
        rng.randint(1, cap),
        fragment_formula(rng, sig, cap, depth - 1),
    )


def random_pair(
    rng: random.Random, max_worlds: int = 6
) -> tuple[PointedStructure, PointedStructure]:
    sig = random_signature(rng)
    return (
        random_structure(rng, sig, max_worlds),
        random_structure(rng, sig, max_worlds),
    )


def related_pair(
    rng: random.Random, max_worlds: int = 6
) -> tuple[PointedStructure, PointedStructure]:
    """Pairs biased toward equivalence: unravellings, junk unions, twins."""
    from gradedmodal import unravel

    sig = random_signature(rng)
    a = random_structure(rng, sig, max_worlds)
    recipe = rng.randrange(4)
    if recipe == 0:
        return a, unravel(a, rng.randint(1, 2))
    if recipe == 1:
        junk = random_structure(rng, sig, 3).structure
        padded = disjoint_union([a.structure, junk], point_from=(0, a.point))
        return a, padded
    if recipe == 2:
        return a, random_structure(rng, sig, max_worlds)
    twin = PointedStructure(a.structure, rng.randrange(a.structure.world_count))
    return a, twin


def parse_outcome(parse, text: str):
    """What a parser makes of ``text``: ("node", result) or ("error",
    message, column)."""
    try:
        return "node", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.column


@st.composite
def spaced(draw, tokens: list[str]) -> str:
    """The tokens joined by random whitespace; two name-or-number tokens in
    a row get at least one space, so that they stay two tokens."""
    gaps = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "])
    text = draw(gaps)
    for before, token in zip([""] + tokens, tokens):
        gap = draw(gaps)
        if before[-1:].isalnum() and token[0].isalnum() and not gap:
            gap = " "
        text += gap + token
    return text + draw(gaps)


@st.composite
def corrupted(draw, text: str, inserts: list[str]) -> str:
    """``text`` truncated, with one character deleted, or with one of
    ``inserts`` put in at a random position."""
    index = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["truncate", "delete", "insert"]))
    if how == "truncate":
        return text[:index]
    if how == "delete":
        return text[:index] + text[index + 1:]
    return text[:index] + draw(st.sampled_from(inserts)) + text[index:]
