"""Slow reference implementations that the fast paths are tested against.

``refine`` is the one-round hand loop of counted refinement: it appends a
level by ranking every world's key from ``_level_keys``, the world's
previous label plus its per-agent (label, count) pairs; ``refine_to`` must
return exactly its levels, canonical class ids included.  ``atom_keys``
gives each world its tuple of truth values, the level-0 key that
``atomic_history`` must rank exactly as; ``atom_number`` reads such a tuple
as a binary number, first value first, which is the atom id
``KripkeStructure`` must give the world, and ``atom_masks`` pairs the worlds
of two structures whose tuples are equal.  ``exact_catalog_size`` is the
catalog size as an unbounded integer.

``naive_fo_eval`` quantifies over every world and checks symbols only when
an atom is reached.  ``whole_table_solve_game`` fills the duplicator's win
table for every pair of worlds and every number of rounds left, then
extracts the strategy with ``covering_extract_duplicator`` or
``covering_extract_spoiler``.  These walk every spoiler set through
``covered_challenges``, which builds a ``SpoilerMove`` and the list of
covered duplicator successors for each set, and read the duplicator's
matches off the win table once per response world.
``rebuilding_verify_strategy`` replays a certificate building a new
``SpoilerMove`` for every lookup; it takes any spoiler side other than
``"left"`` for ``"right"``.  ``print_ranked_distinguishing_formula`` ranks
the conjuncts of the characteristic formula printing each one on its own.
``naive_fo_q_equivalent`` plays the back-and-forth game without memo,
re-checking the whole tuple at every position.  ``full_tree_terms``
enumerates every canonical tree term within the bounds and sorts them,
with each node's atoms as a tuple of truth values; ``numbered_term``
writes such a term with atom numbers in its place.
``type_descriptors`` gives every world its type as nested refinement keys,
which need no arena to be compared.  ``load_named_structure`` is the
two-pass structure reader: it collects edges as sets and lets
``KripkeStructure.__init__`` convert and range-check them a second time.
It accepts a repeated ``point:`` line (the last wins) and reports duplicate
agent or proposition names as a ``SignatureError`` with no line.
``pair_list_load_named_structure`` is the one-pass reader that checks every
line in full, collects each agent's edges as a list of pairs and builds the
successor arrays from them in a second walk; it raises every error the
memoizing reader does, with the same message and line.
``unravel`` builds the unravelling as pair sets for the validating
constructor, and ``dump_structure`` writes each agent's edges by sorting
its pair set; both read the ``edges`` view.
``scan_catalog_formula`` is catalog-mode χ as one ``satisfies`` call per
level formula, each with its own memo.  ``parse_formula`` and
``parse_fo_formula`` are the parsers over ``_tokenize``, which builds one
(kind, value, start) tuple per token from named groups; ``parse_formula``
builds every node through its constructor.
``level_loop_enumerate_types`` builds and refines every catalog level, even
when a level only repeats level 0, turns every candidate type into its own
tree and refines their disjoint union with the previous level's trees, and
builds each combination's children and grade conjuncts afresh; its
entries hold their models as built.  ``per_entry_normal_form`` keeps the
entries whose models satisfy the formula, one ``satisfies`` call per entry.
``standard_translation``, ``format_fo_formula``, ``quantifier_rank`` and
``free_vars`` are the FO walkers that recurse once per node and dispatch by
``isinstance``; the translation draws fresh names from chained generators.
"""

from __future__ import annotations

import itertools
import re
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Optional, Union

from gradedmodal import game
from gradedmodal.charform import (
    TypeCatalog,
    TypeEntry,
    _atomic_description,
    _conjuncts,
    _grade_conjuncts,
    characteristic_formula,
)
from gradedmodal.equivalence import ColorHistory, _ranks, bounded_equivalence, refine_to
from gradedmodal.errors import EvaluationError, GradedModalError, ParseError, SignatureError
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
    DuplicatorMove,
    GamePosition,
    GameResult,
    SpoilerMove,
    SpoilerPlay,
    _Budget,
    _challenges,
    _duplicator_survives,
    _oriented,
    _spoiler_sets,
    _successor_masks,
)
from gradedmodal.kripke import (
    KripkeStructure,
    PointedStructure,
    Signature,
    _int,
    _realize,
    _successor_arrays,
    disjoint_union,
    part_offsets,
)
from gradedmodal.semantics import satisfies
from gradedmodal.syntax import (
    BOT,
    TOP,
    And,
    Bot,
    Diamond,
    Formula,
    Not,
    Or,
    Prop,
    Top,
    and_all,
    box,
    format_formula,
    nesting_depth,
    or_all,
)


def atom_keys(m: KripkeStructure) -> list[tuple[bool, ...]]:
    """Each world's atoms as its tuple of truth values in signature order."""
    return [tuple(w in m.valuation[p] for p in m.signature.props) for w in m.worlds()]


def atom_number(atoms: tuple[bool, ...]) -> int:
    """A tuple of truth values read as a binary number, first value first."""
    return int("".join("1" if holds else "0" for holds in atoms) or "0", 2)


def atom_masks(ka: KripkeStructure, kb: KripkeStructure) -> list[int]:
    """Per world u of ``ka``, the mask of the worlds of ``kb`` whose tuple of
    truth values equals u's."""
    keys_a, keys_b = atom_keys(ka), atom_keys(kb)
    return [sum(1 << v for v in kb.worlds() if keys_b[v] == keys_a[u]) for u in ka.worlds()]


def exact_catalog_size(sig: Signature, cap: int, depth: int) -> int:
    """The number of types at the bound, exactly: 2^k atomic types at depth
    0, and at each further depth 2^k times (cap + 1) to the power of the
    agent count times the previous depth's size."""
    count = 2 ** len(sig.props)
    base = 2 ** len(sig.props)
    for _ in range(depth):
        count = base * (cap + 1) ** (len(sig.agents) * count)
    return count


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


def refine(history: ColorHistory) -> ColorHistory:
    """Append one refinement level.

    Two worlds share a new class iff they share the old one and their capped
    per-agent, per-old-class successor counts coincide.
    """
    keys = _level_keys(history.arena, history.levels[-1], history.cap)
    return ColorHistory(
        history.arena, history.cap, history.part_offsets, history.levels + (_ranks(keys),)
    )


def type_descriptors(m: KripkeStructure, cap: Optional[int], depth: int) -> list:
    """The type descriptor of every world: ``depth`` levels of nested keys.

    A level-``d`` descriptor is ``(level-(d-1) descriptor, per-agent sorted
    (child descriptor, capped count) pairs)``; level 0 is the atom tuple.
    Two worlds of structures over one signature get equal descriptors iff
    they are equivalent at the cap and depth, and the descriptors sort as
    the kernel's class ids do.
    """
    level = atom_keys(m)
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

    atom = atom_masks(ka, kb)
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
    extract = covering_extract_duplicator if dup_wins else covering_extract_spoiler
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


def numbered_term(term) -> tuple:
    """A ``full_tree_terms`` term with every node's atoms as an atom number."""
    atoms, children = term
    return (atom_number(atoms), tuple((ai, numbered_term(t)) for ai, t in children))


def load_named_structure(text: str) -> tuple[str, Union[KripkeStructure, PointedStructure]]:
    """Parse the text format; returns the declared name and the structure."""
    name = None
    agents: Optional[list[str]] = None
    props: Optional[list[str]] = None
    world_count: Optional[int] = None
    edges: dict[str, set[tuple[int, int]]] = {}
    valuation: dict[str, set[int]] = {}
    point: Optional[int] = None

    def fail(msg: str, lineno: int):
        raise ParseError(msg, line=lineno)

    def parse_int(token: str, lineno: int) -> int:
        try:
            return int(token)
        except ValueError:
            fail(f"expected an integer, got {token!r}", lineno)
            raise AssertionError  # unreachable

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            head, _, rest = line.partition(" ")
            if head != "structure" or not rest.strip():
                fail("expected 'structure <name>' as the first directive", lineno)
            name = rest.strip()
            continue
        if line.startswith("structure "):
            fail("multiple 'structure' blocks are not supported", lineno)
        key, sep, rest = line.partition(":")
        if not sep:
            fail(f"malformed line {line!r}", lineno)
        key = key.strip()
        fields = rest.split()
        if key == "agents":
            if agents is not None:
                fail("duplicate 'agents' line", lineno)
            agents = fields
        elif key == "props":
            if props is not None:
                fail("duplicate 'props' line", lineno)
            props = fields
        elif key == "worlds":
            if world_count is not None:
                fail("duplicate 'worlds' line", lineno)
            if len(fields) != 1:
                fail("'worlds' takes exactly one number", lineno)
            world_count = parse_int(fields[0], lineno)
            if world_count < 1:
                fail("structures must have at least one world", lineno)
        elif key.startswith("edge "):
            agent = key[len("edge "):].strip()
            if agents is None or world_count is None:
                fail("'edge' lines require 'agents' and 'worlds' first", lineno)
            if agent not in agents:
                fail(f"unknown agent {agent!r}", lineno)
            if len(fields) != 2:
                fail("'edge' takes exactly two worlds", lineno)
            u, v = (parse_int(t, lineno) for t in fields)
            if not (0 <= u < world_count and 0 <= v < world_count):
                fail(f"edge ({u},{v}) out of range", lineno)
            edges.setdefault(agent, set()).add((u, v))
        elif key.startswith("prop "):
            prop = key[len("prop "):].strip()
            if props is None or world_count is None:
                fail("'prop' lines require 'props' and 'worlds' first", lineno)
            if prop not in props:
                fail(f"unknown proposition {prop!r}", lineno)
            ws = [parse_int(t, lineno) for t in fields]
            for w in ws:
                if not 0 <= w < world_count:
                    fail(f"world {w} out of range", lineno)
            valuation.setdefault(prop, set()).update(ws)
        elif key == "point":
            if world_count is None:
                fail("'point' requires 'worlds' first", lineno)
            if len(fields) != 1:
                fail("'point' takes exactly one world", lineno)
            point = parse_int(fields[0], lineno)
            if not 0 <= point < world_count:
                fail(f"point {point} out of range", lineno)
        else:
            fail(f"unknown directive {key!r}", lineno)

    if name is None:
        raise ParseError("empty input: no 'structure' directive", line=1)
    if world_count is None:
        raise ParseError("missing 'worlds' line", line=1)
    sig = Signature(tuple(agents or ()), tuple(props or ()))
    m = KripkeStructure(sig, world_count, edges, valuation)
    if point is None:
        return name, m
    return name, PointedStructure(m, point)


def pair_list_load_named_structure(text: str) -> tuple[str, Union[KripkeStructure, PointedStructure]]:
    """Parse the text format; returns the declared name and the structure.

    One pass checks every line once, in file order, so the first failing
    line is the one reported.  Edges are collected as pairs per agent and
    the successor arrays are built from them, not checked again.
    """
    name = None
    agents: Optional[list[str]] = None
    props: Optional[list[str]] = None
    world_count: Optional[int] = None
    pairs_of: dict[str, list[tuple[int, int]]] = {}
    valuation: dict[str, set[int]] = {}
    point: Optional[int] = None

    def fail(msg: str, lineno: int):
        raise ParseError(msg, line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            head, _, rest = line.partition(" ")
            if head != "structure" or not rest.strip():
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
            pairs = pairs_of.get(agent)
            if pairs is None or world_count is None:
                if agents is None or world_count is None:
                    fail("'edge' lines require 'agents' and 'worlds' first", lineno)
                fail(f"unknown agent {agent!r}", lineno)
            fields = rest.split()
            if len(fields) != 2:
                fail("'edge' takes exactly two worlds", lineno)
            try:
                u = int(fields[0])
                v = int(fields[1])
            except ValueError:
                # Convert again through the checked path, which names the
                # first token that is not an integer.
                u, v = _int(fields[0], lineno), _int(fields[1], lineno)
            if not (0 <= u < world_count and 0 <= v < world_count):
                fail(f"edge ({u},{v}) out of range", lineno)
            pairs.append((u, v))
            continue
        fields = rest.split()
        if key == "agents":
            if agents is not None:
                fail("duplicate 'agents' line", lineno)
            if len(set(fields)) != len(fields):
                fail(f"duplicate agent names in {tuple(fields)!r}", lineno)
            agents = fields
            pairs_of = {agent: [] for agent in agents}
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
    succ = {a: _successor_arrays(world_count, pairs_of[a]) for a in sig.agents}
    m = KripkeStructure._assemble(sig, world_count, {p: valuation.get(p, ()) for p in sig.props}, succ)
    if point is None:
        return name, m
    return name, PointedStructure(m, point)


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
    agent_index = {a: i for i, a in enumerate(sig.agents)}

    paths: list[tuple[tuple[int, int], ...]] = [()]
    frontier: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(depth - 1):
        nxt = []
        for path in frontier:
            endpoint = path[-1][1] if path else start
            for agent in sig.agents:
                ai = agent_index[agent]
                for v in m.successors(agent, endpoint):
                    nxt.append(path + ((ai, v),))
        nxt.sort()
        paths.extend(nxt)
        frontier = nxt

    tree_size = len(paths)
    node_of = {path: i for i, path in enumerate(paths)}
    copy_off = tree_size
    total = tree_size + m.world_count

    edges: dict[str, set[tuple[int, int]]] = {a: set() for a in sig.agents}
    valuation: dict[str, set[int]] = {p: set() for p in sig.props}
    for path in paths:
        endpoint = path[-1][1] if path else start
        node = node_of[path]
        for p in sig.props:
            if endpoint in m.valuation[p]:
                valuation[p].add(node)
        at_frontier = len(path) == depth - 1
        for agent in sig.agents:
            ai = agent_index[agent]
            for v in m.successors(agent, endpoint):
                if at_frontier:
                    edges[agent].add((node, copy_off + v))
                else:
                    edges[agent].add((node, node_of[path + ((ai, v),)]))
    for agent in sig.agents:
        edges[agent].update((copy_off + u, copy_off + v) for u, v in m.edges[agent])
    for p in sig.props:
        valuation[p].update(copy_off + w for w in m.valuation[p])

    return PointedStructure(KripkeStructure(sig, total, edges, valuation), 0)


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
    lines = [f"structure {name}"]
    lines.append(("agents: " + " ".join(m.signature.agents)).rstrip())
    lines.append(("props: " + " ".join(m.signature.props)).rstrip())
    lines.append(f"worlds: {m.world_count}")
    for agent in sorted(m.signature.agents):
        for u, v in sorted(m.edges[agent]):
            lines.append(f"edge {agent}: {u} {v}")
    for prop in m.signature.props:
        worlds = sorted(m.valuation[prop])
        if worlds:
            lines.append(f"prop {prop}: " + " ".join(str(w) for w in worlds))
    if point is not None:
        lines.append(f"point: {point}")
    return "\n".join(lines) + "\n"


def covered_challenges(ka, kb, u, v, m, cap, agents, tables, budget):
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


def covering_extract_duplicator(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    """The duplicator's answers at every position reached from the start,
    walked with an explicit stack so no number of rounds exhausts the
    recursion limit."""
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
        for move, _, wins, covered in covered_challenges(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            response = tuple(covered[: len(move.chosen)])
            matches = {
                y: next(x for x in move.chosen if wins[x] >> y & 1) for y in response
            }
            moves[move] = DuplicatorMove(response, matches)
            following += [_oriented(move.side, x, y) + (m - 1,) for y, x in matches.items()]
        stack.extend(reversed(following))
    return strategy


def covering_extract_spoiler(ka, kb, u0, v0, cap, rounds, agents, tables, budget):
    """The spoiler's plays at every position reached from the start, walked
    with an explicit stack."""
    keys_a, keys_b = atom_keys(ka), atom_keys(kb)
    strategy: dict = {}
    stack = [(u0, v0, rounds)]
    while stack:
        u, v, m = position = stack.pop()
        if position in strategy:
            continue
        if keys_a[u] != keys_b[v]:
            strategy[position] = None
            continue
        for move, theirs, _, covered in covered_challenges(
            ka, kb, u, v, m, cap, agents, tables, budget
        ):
            if len(covered) < len(move.chosen):
                break
        else:
            raise AssertionError("spoiler-won position without a winning move")
        picks: dict = {}
        following = []
        for response in combinations(theirs, len(move.chosen)):
            budget.spend()
            pick = next(p for p in response if p not in covered)
            picks[response] = pick
            following += [_oriented(move.side, reply, pick) + (m - 1,) for reply in move.chosen]
        strategy[position] = SpoilerPlay(move, picks)
        stack.extend(reversed(following))
    return strategy


def rebuilding_verify_strategy(
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

    def duplicator_answers(u, v, m):
        """The positions the stored answers at (u, v, m) lead to, or None if
        a spoiler move is unanswered or an answer is illegal."""
        moves = result.strategy.get((u, v, m))
        if moves is None:
            return None
        following = []
        for agent in agents:
            for side, mine, theirs in _challenges(ka, kb, agent, u, v):
                for chosen in _spoiler_sets(mine, cap):
                    answer = moves.get(SpoilerMove(side, agent, chosen))
                    if answer is None:
                        return None
                    response = answer.response
                    distinct = set(response)
                    if not (
                        len(distinct) == len(response) == len(chosen)
                        and distinct.issubset(theirs)
                    ):
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
        equal = atom_equal(u, v)
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


def print_ranked_distinguishing_formula(
    a: PointedStructure, b: PointedStructure, cap: int, depth: int
) -> Optional[Formula]:
    """``distinguishing_formula``, sorting the conjuncts by a key that prints
    each conjunct with ``format_formula``."""
    if bounded_equivalence(a, b, cap, depth):
        return None
    chi = characteristic_formula(a, cap, depth)
    candidates = sorted(
        _conjuncts(chi),
        key=lambda f: (
            0 if isinstance(f, Not) else 1,
            -nesting_depth(f),
            format_formula(f),
        ),
    )
    for conjunct in candidates:
        if not satisfies(b, conjunct):
            return conjunct
    raise AssertionError("inequivalent points both satisfy the characteristic formula")


# The last group catches any other character, so one scan finds every token
# and the first bad character.  The FO grammar's pattern follows the same
# scheme.
_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<punct>[()&|!<>:\[\]])|(?P<bad>\S))"
)


def _tokenize(pattern: "re.Pattern[str]", text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, start); a punctuation token's kind is itself.

    ``pattern`` names its groups by token kind and ends in a ``bad`` group
    matching any other non-space character, which is reported at its own
    column.
    """
    tokens = []
    for match in pattern.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", column=match.start(kind) + 1)
        tokens.append((value if kind == "punct" else kind, value, match.start(kind)))
    return tokens


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(_TOKEN, text)
    end = len(tokens)
    pos = 0

    def fail(message: str, index: int):
        column = tokens[index][2] + 1 if index < end else len(text) + 1
        raise ParseError(message, column=column)

    def take(kind: str, what: str = "") -> str:
        """The next token's value; it must be of ``kind``."""
        nonlocal pos
        if pos == end:
            fail("unexpected end of input", pos)
        token = tokens[pos]
        pos += 1
        if token[0] != kind:
            fail(f"expected {what or repr(kind)}, got {token[1]!r}", pos)
        return token[1]

    def formula() -> Formula:
        nonlocal pos
        if pos == end:
            fail("unexpected end of input", pos)
        kind, value, _ = tokens[pos]
        pos += 1
        if kind == "ident":
            return TOP if value == "true" else BOT if value == "false" else Prop(value)
        if kind == "!":
            return Not(formula())
        if kind == "(":
            left = formula()
            if pos == end:
                fail("unexpected end of input", pos)
            op, op_value, _ = tokens[pos]
            pos += 1
            if op != "&" and op != "|":
                fail(f"expected '&' or '|', got {op_value!r}", pos)
            right = formula()
            take(")")
            return And(left, right) if op == "&" else Or(left, right)
        if kind == "<" or kind == "[":
            agent = take("ident", "a name")
            take(":")
            grade = int(take("int", "a grade"))
            if grade < 1:
                fail("grades start at 1", pos)
            take(">" if kind == "<" else "]")
            child = formula()
            return Diamond(agent, grade, child) if kind == "<" else box(agent, grade, child)
        fail(f"unexpected token {value!r}", pos - 1)

    result = formula()
    if pos < end:
        fail("trailing input after formula", pos)
    return result


_FO_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<punct>[()&|!,=])|(?P<bad>\S))"
)


def parse_fo_formula(text: str) -> FOFormula:
    """Parse the FO concrete syntax; ``format_fo_formula`` inverts it."""
    tokens = _tokenize(_FO_TOKEN, text)
    end = len(tokens)
    pos = 0

    def fail(message: str, index: int):
        column = tokens[index][2] + 1 if index < end else len(text) + 1
        raise ParseError(message, column=column)

    def take() -> tuple[str, str, int]:
        nonlocal pos
        if pos == end:
            fail("unexpected end of input", pos)
        pos += 1
        return tokens[pos - 1]

    def expect(kind: str) -> None:
        token = take()
        if token[0] != kind:
            fail(f"expected {kind!r}, got {token[1]!r}", pos)

    def variable(message: str = "expected a variable") -> str:
        kind, value, _ = take()
        if kind != "ident":
            fail(message, pos)
        return value

    def formula() -> FOFormula:
        nonlocal pos
        kind, value, _ = take()
        if kind == "!":
            return FONot(formula())
        if kind == "(":
            left = formula()
            op, op_value, _ = take()
            if op == ")":
                return left
            if op != "&" and op != "|":
                fail(f"expected '&', '|' or ')', got {op_value!r}", pos)
            right = formula()
            expect(")")
            return FOAnd(left, right) if op == "&" else FOOr(left, right)
        if kind == "ident":
            following = tokens[pos][0] if pos < end else None
            if value in ("E", "A") and following == "ident":
                return (Exists if value == "E" else Forall)(take()[1], formula())
            if following == "(":
                pos += 1
                first = variable()
                after, after_value, _ = take()
                if after == ")":
                    return PropAtom(value, first)
                if after != ",":
                    fail(f"expected ',' or ')', got {after_value!r}", pos)
                second = variable()
                expect(")")
                if not value.startswith("E") or len(value) < 2:
                    fail(f"edge atoms look like E<agent>(u,v), got {value!r}", pos)
                return EdgeAtom(value[1:], first, second)
            if following == "=":
                pos += 1
                return Eq(value, variable("expected a variable after '='"))
            fail(f"unexpected name {value!r}", pos)
        fail(f"unexpected token {value!r}", pos - 1)

    result = formula()
    if pos < end:
        fail("trailing input after formula", pos)
    return result


def scan_catalog_formula(target: PointedStructure, catalog, depth: int) -> Formula:
    return next(f for f in catalog.level_formulas[depth] if satisfies(target, f))


def level_loop_enumerate_types(sig: Signature, cap: int, depth: int) -> TypeCatalog:
    """``enumerate_types`` without its budget: every level turns each
    candidate type into its own tree, refines the disjoint union of the
    trees together with the previous level's, and each combination of
    counts builds its own children and grade conjuncts."""
    atom_options = range(1 << len(sig.props))
    models = [_realize(sig, atoms, []) for atoms in atom_options]
    formulas = [_atomic_description(sig, atoms) for atoms in atom_options]
    level_formulas = [tuple(formulas)]
    for level in range(1, depth + 1):
        count_choices = list(itertools.product(range(cap + 1), repeat=len(models)))
        built, grades = [], []
        for atoms in atom_options:
            for combo in itertools.product(count_choices, repeat=len(sig.agents)):
                children, conjuncts = [], []
                for agent, counts in zip(sig.agents, combo):
                    for model, formula, n in zip(models, formulas, counts):
                        children += [(agent, model)] * n
                        conjuncts += _grade_conjuncts(agent, n, cap, formula)
                built.append(_realize(sig, atoms, children))
                grades.append(conjuncts)
        pointed = models + built
        parts = [p.structure for p in pointed]
        offsets = part_offsets(parts)
        history = refine_to(disjoint_union(parts), cap, offsets, level)
        below, here = history.levels[level - 1], history.levels[level]
        roots = [offset + p.point for offset, p in zip(offsets, pointed)]
        previous = {below[root]: i for i, root in enumerate(roots[: len(models)])}
        new = sorted((here[root], below[root], i) for i, root in enumerate(roots[len(models) :]))
        if len({cls for cls, _, _ in new}) != len(new):
            raise GradedModalError("catalog entries are not pairwise inequivalent")
        formulas = [and_all([formulas[previous[b]]] + grades[i]) for _, b, i in new]
        models = [built[i] for _, _, i in new]
        level_formulas.append(tuple(formulas))
    entries = tuple(TypeEntry(i, f, lambda m=m: m) for i, (f, m) in enumerate(zip(formulas, models)))
    return TypeCatalog(sig, cap, depth, entries, tuple(level_formulas))


def per_entry_normal_form(formula: Formula, catalog: TypeCatalog) -> Formula:
    """``normal_form`` against a catalog as one ``satisfies`` call per entry model."""
    return or_all([e.formula for e in catalog.entries if satisfies(e.model, formula)])


def free_vars(formula: FOFormula) -> frozenset[str]:
    if isinstance(formula, PropAtom):
        return frozenset((formula.var,))
    if isinstance(formula, EdgeAtom):
        return frozenset((formula.src, formula.dst))
    if isinstance(formula, Eq):
        return frozenset((formula.left, formula.right))
    if isinstance(formula, FONot):
        return free_vars(formula.child)
    if isinstance(formula, (FOAnd, FOOr)):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_vars(formula.child) - {formula.var}
    raise TypeError(f"not an FO formula: {formula!r}")


def quantifier_rank(formula: FOFormula) -> int:
    if isinstance(formula, (PropAtom, EdgeAtom, Eq)):
        return 0
    if isinstance(formula, FONot):
        return quantifier_rank(formula.child)
    if isinstance(formula, (FOAnd, FOOr)):
        return max(quantifier_rank(formula.left), quantifier_rank(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return quantifier_rank(formula.child) + 1
    raise TypeError(f"not an FO formula: {formula!r}")


def standard_translation(formula: Formula, var: str = "x") -> FOFormula:
    if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var):
        raise ValueError(f"variable {var!r} is not an identifier [A-Za-z][A-Za-z0-9_]*")
    fresh = (y for y in (f"y{i}" for i in itertools.count(1)) if y != var)

    def st(f: Formula, x: str) -> FOFormula:
        if isinstance(f, Top):
            return Eq(x, x)
        if isinstance(f, Bot):
            return FONot(Eq(x, x))
        if isinstance(f, Prop):
            return PropAtom(f.name, x)
        if isinstance(f, Not):
            return FONot(st(f.child, x))
        if isinstance(f, And):
            return FOAnd(st(f.left, x), st(f.right, x))
        if isinstance(f, Or):
            return FOOr(st(f.left, x), st(f.right, x))
        if isinstance(f, Diamond):
            ys = [next(fresh) for _ in range(f.grade)]
            parts: list[FOFormula] = []
            for i in range(len(ys)):
                for j in range(i + 1, len(ys)):
                    parts.append(FONot(Eq(ys[i], ys[j])))
            parts.extend(EdgeAtom(f.agent, x, y) for y in ys)
            parts.extend(st(f.child, y) for y in ys)
            body = parts[0]
            for part in parts[1:]:
                body = FOAnd(body, part)
            for y in reversed(ys):
                body = Exists(y, body)
            return body
        raise TypeError(f"not a formula: {f!r}")

    return st(formula, var)


def format_fo_formula(formula: FOFormula) -> str:
    if isinstance(formula, PropAtom):
        return f"{formula.prop}({formula.var})"
    if isinstance(formula, EdgeAtom):
        return f"E{formula.agent}({formula.src},{formula.dst})"
    if isinstance(formula, Eq):
        return f"{formula.left} = {formula.right}"
    if isinstance(formula, FONot):
        return "!" + format_fo_formula(formula.child)
    if isinstance(formula, FOAnd):
        return f"({format_fo_formula(formula.left)} & {format_fo_formula(formula.right)})"
    if isinstance(formula, FOOr):
        return f"({format_fo_formula(formula.left)} | {format_fo_formula(formula.right)})"
    if isinstance(formula, Exists):
        return f"E {formula.var} {format_fo_formula(formula.child)}"
    if isinstance(formula, Forall):
        return f"A {formula.var} {format_fo_formula(formula.child)}"
    raise TypeError(f"not an FO formula: {formula!r}")
