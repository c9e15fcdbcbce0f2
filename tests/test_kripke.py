import random
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedmodal import (
    Diamond,
    KripkeStructure,
    ParseError,
    PointedStructure,
    Prop,
    Signature,
    SignatureError,
    bounded_equivalence,
    copies,
    disjoint_union,
    dump_structure,
    find_cap,
    fo_eval,
    fo_q_equivalent,
    full_graded_bisimilarity,
    is_rooted_treelike,
    load_structure,
    neighborhood,
    restrict,
    satisfies,
    standard_translation,
    unravel,
)
from gradedmodal.charform import _atomic_description
from gradedmodal.folink import EdgeAtom, Exists, FOAnd, PropAtom
from gradedmodal.game import _atom_masks
from gradedmodal.kripke import _realize, load_named_structure, part_offsets

from helpers import SIG_A, SIG_AP, chain, fan, loop1, random_signature, random_structure
from oracles import atom_keys, atom_masks, atom_number
from oracles import dump_structure as pair_sorted_dump
from oracles import load_named_structure as two_pass_load
from oracles import pair_list_load_named_structure as pair_list_load
from oracles import unravel as pair_set_unravel


def test_structure_refuses_world_ids_that_are_not_integers():
    sig = Signature(("a",), ("p",))
    # int() would read these as the edges {(0, 1), (2, 1)} and the valuation {2}.
    with pytest.raises(TypeError, match="agent 'a'"):
        KripkeStructure(sig, 3, {"a": [(0, 1.5), ("2", True)]}, {"p": [2.9]})
    with pytest.raises(TypeError, match="'p'"):
        KripkeStructure(sig, 3, {"a": [(0, 1)]}, {"p": [2.9]})
    with pytest.raises(TypeError, match="'p'"):
        KripkeStructure(sig, 3, {}, {"p": ["2"]})


def _marked_line() -> KripkeStructure:
    """Worlds 0 -> 1 -> 2 along 'a', with p true at world 2 only."""
    return KripkeStructure(SIG_AP, 3, {"a": [(0, 1), (1, 2)]}, {"p": [2]})


def test_restrict_refuses_world_ids_that_are_not_integers():
    # int() would keep all three worlds.
    with pytest.raises(TypeError, match="worlds"):
        restrict(_marked_line(), [0.5, 1.7, 2.2], point=1)
    with pytest.raises(TypeError, match="point"):
        restrict(_marked_line(), [0, 1, 2], point=1.0)


def test_pointed_structure_refuses_a_point_that_is_not_an_integer():
    # A range check alone lets 0.5 through, and satisfies then fails on a tuple index.
    with pytest.raises(TypeError, match="point"):
        PointedStructure(_marked_line(), 0.5)
    assert satisfies(PointedStructure(_marked_line(), 1), Diamond("a", 1, Prop("p")))


def test_disjoint_union_refuses_a_point_from_that_is_not_an_integer():
    with pytest.raises(TypeError, match="point_from"):
        disjoint_union([_marked_line()], point_from=(0, 0.5))


def test_neighborhood_refuses_a_world_that_is_not_an_integer():
    with pytest.raises(TypeError, match="world"):
        neighborhood(_marked_line(), 1.5, 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_constructor_stores_any_pair_list_sorted_and_once(data):
    sig = Signature(("a", "b"), ("p",))
    n = data.draw(st.integers(1, 6))
    world = st.integers(0, n - 1)
    pairs = {a: data.draw(st.lists(st.tuples(world, world), max_size=20)) for a in sig.agents}
    holds = data.draw(st.lists(world, max_size=8))
    m = KripkeStructure(sig, n, pairs, {"p": holds})
    assert type(m.edges) is MappingProxyType and m.edges is m.edges
    for agent in sig.agents:
        assert m.edges[agent] == frozenset(pairs[agent])
        assert type(m.edges[agent]) is frozenset
        for w in m.worlds():
            succ = m.successors(agent, w)
            assert all(x < y for x, y in zip(succ, succ[1:]))
    assert m.edge_count() == sum(len(set(ps)) for ps in pairs.values())
    shuffled = {a: data.draw(st.permutations(ps + ps)) for a, ps in pairs.items()}
    other = KripkeStructure(sig, n, shuffled, {"p": data.draw(st.permutations(holds))})
    assert other == m and hash(other) == hash(m)
    assert other._succ == m._succ


def test_signature_rejects_duplicates_and_empties():
    with pytest.raises(SignatureError):
        Signature(("a", "a"), ())
    with pytest.raises(SignatureError):
        Signature(("a",), ("",))


def test_structure_validates_ranges():
    with pytest.raises(ValueError):
        KripkeStructure(SIG_A, 2, {"a": {(0, 2)}}, {})
    with pytest.raises(SignatureError):
        KripkeStructure(SIG_A, 2, {"b": {(0, 1)}}, {})


def test_successors_fixtures():
    f3 = fan(3)
    assert set(f3.structure.successors("a", 0)) == {1, 2, 3}
    assert f3.structure.successors("a", 1) == ()
    assert loop1().structure.successors("a", 0) == (0,)
    with pytest.raises(SignatureError):
        f3.structure.successors("b", 0)


def test_disjoint_union_counts_and_pointing():
    f2, f3 = fan(2), fan(3)
    union = disjoint_union([f2.structure, f3.structure])
    assert union.world_count == f2.structure.world_count + f3.structure.world_count == 7
    assert union.edge_count() == 5
    pointed = disjoint_union([f2.structure, f3.structure], point_from=(0, 0))
    assert isinstance(pointed, PointedStructure)
    assert pointed.point == 0
    pointed = disjoint_union([f2.structure, f3.structure], point_from=(1, 0))
    assert pointed.point == 3

    two_loops = disjoint_union([loop1().structure, loop1().structure])
    assert two_loops.edges["a"] == frozenset({(0, 0), (1, 1)})


def test_disjoint_union_rejects_mismatch():
    other = Signature(("a", "b"), ())
    with pytest.raises(SignatureError):
        disjoint_union([fan(1).structure, fan(1, other).structure])
    with pytest.raises(ValueError):
        disjoint_union([fan(1).structure], point_from=(0, 9))


def test_copies_counts():
    f2 = fan(2).structure
    assert copies(f2, 3).world_count == 9
    assert copies(f2, 1) == f2
    empty = copies(f2, 0)
    assert empty.world_count == 0
    # the empty aggregate is a legal union operand
    assert disjoint_union([empty, f2]).world_count == 3


def test_copies_root_fully_bisimilar_to_original():
    rng = random.Random(3)
    for _ in range(10):
        sig = random_signature(rng)
        m = random_structure(rng, sig)
        doubled = copies(m.structure, 2)
        for offset in (0, m.structure.world_count):
            clone = PointedStructure(doubled, offset + m.point)
            assert full_graded_bisimilarity(m, clone)


def test_neighborhood_examples():
    c3 = chain(3).structure
    assert neighborhood(c3, 1, 1) == frozenset({0, 1, 2})
    assert neighborhood(c3, 1, 0) == frozenset({1})
    assert neighborhood(fan(3).structure, 0, 1) == frozenset({0, 1, 2, 3})


def test_neighborhood_monotone_and_stabilizes():
    rng = random.Random(5)
    for _ in range(20):
        m = random_structure(rng, random_signature(rng)).structure
        w = rng.randrange(m.world_count)
        hoods = [neighborhood(m, w, r) for r in range(m.world_count + 2)]
        for small, big in zip(hoods, hoods[1:]):
            assert small <= big
        assert hoods[m.world_count] == hoods[m.world_count + 1]


def test_restrict_examples():
    c3 = chain(3).structure
    r = restrict(c3, {0, 1})
    assert r.world_count == 2 and r.edges["a"] == frozenset({(0, 1)})
    m = fan(3).structure
    assert restrict(m, range(m.world_count)) == m
    iso = restrict(m, {0})
    assert iso.world_count == 1 and iso.edge_count() == 0
    with pytest.raises(ValueError):
        restrict(m, set())


def test_restrict_keeps_internal_edges_only():
    rng = random.Random(11)
    for _ in range(20):
        m = random_structure(rng, random_signature(rng)).structure
        w = rng.randrange(m.world_count)
        hood = neighborhood(m, w, 1)
        keep = sorted(hood)
        relabel = {w_: i for i, w_ in enumerate(keep)}
        sub = restrict(m, hood)
        for agent in m.signature.agents:
            expected = {
                (relabel[u], relabel[v])
                for u, v in m.edges[agent]
                if u in hood and v in hood
            }
            assert sub.edges[agent] == frozenset(expected)


def test_treelike_fixtures():
    assert is_rooted_treelike(fan(3).structure, 0, 1).ok
    assert is_rooted_treelike(fan(3).structure, 0, 5).ok

    report = is_rooted_treelike(loop1().structure, 0, 1)
    assert not report.ok and report.failed == "acyclicity"
    assert report.witness == (0, 0)

    sig2 = Signature(("a", "b"), ())
    shared = KripkeStructure(sig2, 2, {"a": {(0, 1)}, "b": {(0, 1)}}, {})
    report = is_rooted_treelike(shared, 0, 1)
    assert not report.ok and report.failed == "disjointness"


def test_treelike_direction_failure():
    # an edge pointing back toward the root
    m = KripkeStructure(SIG_A, 3, {"a": {(0, 1), (2, 1)}}, {})
    report = is_rooted_treelike(m, 0, 2)
    assert not report.ok and report.failed == "direction"
    assert report.witness == ("a", (2, 1))


def test_unravel_loop1_hand_construction():
    u = unravel(loop1(), 2)
    m = u.structure
    assert m.world_count == 3
    assert u.point == 0
    assert m.edges["a"] == frozenset({(0, 1), (1, 2), (2, 2)})


def test_unravel_fan3_hand_construction():
    u = unravel(fan(3), 2)
    m = u.structure
    assert m.world_count == 8
    assert m.edges["a"] == frozenset(
        {(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)}
    )


def test_unravel_diamond_dag_shares_one_copy():
    dag = KripkeStructure(SIG_A, 4, {"a": {(0, 1), (0, 2), (1, 3), (2, 3)}}, {})
    u = unravel(PointedStructure(dag, 0), 2)
    m = u.structure
    # tree: eps, (a,1), (a,2); copy at offset 3
    assert m.world_count == 7
    assert (1, 3 + 3) in m.edges["a"] and (2, 3 + 3) in m.edges["a"]


def test_unravel_bisimilar_and_treelike():
    rng = random.Random(23)
    for _ in range(15):
        m = random_structure(rng, random_signature(rng), max_worlds=5)
        for depth in (1, 2, 3):
            u = unravel(m, depth)
            assert full_graded_bisimilarity(m, u)
            radius = depth - 1
            hood = neighborhood(u.structure, u.point, radius)
            sub = restrict(u.structure, hood, point=u.point)
            assert is_rooted_treelike(sub.structure, sub.point, radius).ok


def _treelike_brute_force(m, root, radius):
    hood = neighborhood(m, root, radius)
    per_agent = {}
    for agent in m.signature.agents:
        per_agent[agent] = {
            frozenset((u, v))
            for u, v in m.edges[agent]
            if u in hood and v in hood
        }
    agents = list(per_agent)
    for i, x in enumerate(agents):
        for y in agents[i + 1:]:
            if per_agent[x] & per_agent[y]:
                return False
    union = set().union(*per_agent.values()) if per_agent else set()
    if any(len(e) == 1 for e in union):
        return False
    # acyclic undirected graph: edges = nodes - components
    adj = {w: set() for w in hood}
    for e in union:
        u, v = sorted(e)
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    components = 0
    for start in hood:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    if len(union) != len(hood) - components:
        return False
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    for agent in m.signature.agents:
        for u, v in m.edges[agent]:
            if u in hood and v in hood and dist[v] != dist[u] + 1:
                return False
    return True


def test_treelike_matches_brute_force():
    rng = random.Random(37)
    for _ in range(120):
        m = random_structure(rng, random_signature(rng), max_worlds=5, edge_prob=0.2)
        radius = rng.randint(0, 3)
        report = is_rooted_treelike(m.structure, m.point, radius)
        assert report.ok == _treelike_brute_force(m.structure, m.point, radius)


def test_treelike_acyclicity_witnesses_are_cycles():
    rng = random.Random(53)
    cycles = 0
    for _ in range(400):
        m = random_structure(rng, random_signature(rng), max_worlds=8, edge_prob=0.2)
        radius = rng.randint(0, 3)
        report = is_rooted_treelike(m.structure, m.point, radius)
        if report.failed != "acyclicity":
            continue
        sub = restrict(m.structure, neighborhood(m.structure, m.point, radius), point=m.point)
        edges = set().union(*sub.structure.edges.values())
        undirected = edges | {(v, u) for u, v in edges}
        witness = report.witness
        if len(witness) == 2 and witness[0] == witness[1]:
            assert witness in edges
            continue
        cycles += 1
        assert len(set(witness)) == len(witness) >= 3
        assert all(pair in undirected for pair in zip(witness, witness[1:] + witness[:1]))
    assert cycles >= 20


def test_unravel_rejects_zero_depth():
    with pytest.raises(ValueError):
        unravel(loop1(), 0)


def test_text_format_round_trip():
    rng = random.Random(31)
    for _ in range(25):
        sig = random_signature(rng)
        m = random_structure(rng, sig)
        text = dump_structure(m, name="case")
        name, back = load_named_structure(text)
        assert name == "case"
        assert back == m
        for agent in sig.agents:
            for w in m.structure.worlds():
                assert back.structure.successors(agent, w) == m.structure.successors(agent, w)
        assert dump_structure(back, name="case") == text


def test_text_format_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        load_structure("structure x\nagents: a\nworlds: 2\nedge a: 0 5\n")
    assert info.value.line == 4
    with pytest.raises(ParseError):
        load_structure("agents: a\n")
    with pytest.raises(ParseError) as info:
        load_structure("structure x\nworlds: 0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        load_structure("structure x\nagents: a\nworlds: 2\nedge a: x y\n")
    assert str(info.value) == "expected an integer, got 'x' (line 4)"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "structure x\nagents: a\nworlds: 2\npoint: 0\npoint: 1\n",
            "duplicate 'point' line (line 5)",
        ),
        (
            "structure x\nagents: a a\nworlds: 2\nedge b: 0 1\n",
            "duplicate agent names in ('a', 'a') (line 2)",
        ),
        (
            "structure x\nagents: a\nprops: p q p\nworlds: x\n",
            "duplicate proposition names in ('p', 'q', 'p') (line 3)",
        ),
    ],
)
def test_repeated_declarations_fail_at_their_line(text, message):
    # The point used to be overwritten by the last line, and duplicate names
    # surfaced only as a SignatureError with no line after the whole file.
    with pytest.raises(ParseError) as info:
        load_structure(text)
    assert str(info.value) == message


_TOKENS = ("x", "-1", "0", "1", "2", "5", "99", "1.5", "+1", "\u0663", "a", "b", "p", "q", "edge", ":")
_DIRECTIVES = ("colour: 1", "edges a: 0 1", "Agents: a", "point 0", "worlds 3", "structure y")

_mutation = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("insert"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(_TOKENS)),
    st.tuples(st.just("replace"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(_TOKENS)),
    st.tuples(st.just("repeat"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("unknown"), st.integers(0, 99), st.sampled_from(_DIRECTIVES)),
)


def _mutate(lines: list[str], mutation) -> None:
    kind, at = mutation[0], mutation[1] % len(lines)
    tokens = lines[at].split()
    if kind == "drop" and tokens:
        del tokens[mutation[2] % len(tokens)]
        lines[at] = " ".join(tokens)
    elif kind == "insert":
        tokens.insert(mutation[2] % (len(tokens) + 1), mutation[3])
        lines[at] = " ".join(tokens)
    elif kind == "replace" and tokens:
        tokens[mutation[2] % len(tokens)] = mutation[3]
        lines[at] = " ".join(tokens)
    elif kind == "repeat":
        lines.insert(mutation[2] % (len(lines) + 1), lines[at])
    elif kind == "delete" and len(lines) > 1:
        del lines[at]
    elif kind == "swap":
        j = mutation[2] % len(lines)
        lines[at], lines[j] = lines[j], lines[at]
    elif kind == "unknown":
        lines.insert(at, mutation[2])


def _hits_a_fixed_duplicate(text: str) -> bool:
    """Whether ``text`` repeats a ``point`` line or a name on a declaration
    line, the two cases where the loader now differs from the oracle."""
    points = 0
    for raw in text.splitlines():
        key, _, rest = raw.split("#", 1)[0].strip().partition(":")
        key, fields = key.strip(), rest.split()
        points += key == "point"
        if key in ("agents", "props") and len(set(fields)) != len(fields):
            return True
    return points > 1


def _outcome(load, text):
    try:
        name, value = load(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    m = getattr(value, "structure", value)
    return (name, m, m._succ, getattr(value, "point", None))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pointed=st.booleans(),
    mutations=st.lists(_mutation, max_size=3),
    comment_every=st.integers(0, 3),
    blank_lines=st.booleans(),
    crlf=st.booleans(),
    tabs=st.booleans(),
)
def test_loader_matches_the_two_pass_oracle(seed, pointed, mutations, comment_every, blank_lines, crlf, tabs):
    rng = random.Random(seed)
    m = random_structure(rng, random_signature(rng), max_worlds=5)
    lines = dump_structure(m if pointed else m.structure, name="case").splitlines()
    for mutation in mutations:
        _mutate(lines, mutation)
    if comment_every:
        lines = [f"{line}  # note {i}" if i % comment_every == 0 else line for i, line in enumerate(lines)]
        lines.insert(comment_every, "# a comment line")
    if blank_lines:
        lines = [part for line in lines for part in (line, "")]
    if tabs:
        lines = ["\t" + line.replace(" ", " \t") for line in lines]
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    assume(not _hits_a_fixed_duplicate(text))
    assert _outcome(load_named_structure, text) == _outcome(two_pass_load, text)


def _edge_variants(agent: str, u: int, v: int, n: int) -> list[str]:
    """Edge lines for ``agent`` that a memoized head must not let through
    unchecked, or must read exactly as the full checks do."""
    head = f"edge {agent}"
    return [
        f"{head}: {u} {v}  # a comment after the edge",
        f"{head}:{u} {v}#",
        f"{head} : {u} {v}",
        f"  {head}  :  {u}\t{v}  ",
        f"{head}: +1 {v}",
        f"{head}: {u} 1_0",
        f"{head}: \u0663 {u}",
        f"{head}: {u} {v} {v}",
        f"{head}: {u}",
        f"{head}: {u} {n}",
        f"{head}: -1 {v}",
        f"{head}: {u} x",
        f"{head}: 1.5 {v}",
        f"edge c: {u} {v}",
        f"edge #{agent}: {u} {v}",
        f"{head}#x: {u} {v}",
    ]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pointed=st.booleans(),
    edits=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 15)), max_size=3),
    edge_before_worlds=st.booleans(),
)
def test_loader_matches_the_pair_list_oracle(seed, pointed, edits, edge_before_worlds):
    # Edits land on edge lines, most of them after an earlier line with the
    # same head, where the loader's memo of accepted heads is consulted.
    rng = random.Random(seed)
    m = random_structure(rng, random_signature(rng), max_worlds=12, edge_prob=0.3)
    n = m.structure.world_count
    lines = dump_structure(m if pointed else m.structure, name="case").splitlines()
    edge_at = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    for at, variant in edits:
        if edge_at:
            i = edge_at[at % len(edge_at)]
            agent = lines[i][len("edge "):].partition(":")[0]
            lines[i] = _edge_variants(agent, rng.randrange(n), rng.randrange(n), n)[variant]
    if edge_before_worlds and edge_at:
        lines.insert(3, lines[edge_at[-1]])
    text = "\n".join(lines) + "\n"
    assert _outcome(load_named_structure, text) == _outcome(pair_list_load, text)


@pytest.mark.parametrize("variant", range(16))
def test_loader_reads_a_remembered_head_as_the_oracle_does(variant):
    lines = ["structure x", "agents: a b", "props: p", "worlds: 12", "edge a: 0 1", "edge b: 2 3"]
    text = "\n".join(lines + [_edge_variants("a", 4, 5, 12)[variant], "edge a: 6 7"]) + "\n"
    assert _outcome(load_named_structure, text) == _outcome(pair_list_load, text)


def test_part_offsets():
    parts = [fan(2).structure, fan(3).structure, loop1().structure]
    assert part_offsets(parts) == (0, 3, 7)


def test_disjoint_union_equals_validated_construction():
    rng = random.Random(29)
    for _ in range(40):
        sig = random_signature(rng)
        parts = [random_structure(rng, sig).structure for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            parts.insert(rng.randrange(len(parts) + 1), copies(parts[0], 0))
        offsets = part_offsets(parts)
        total = sum(m.world_count for m in parts)
        edges = {
            a: {(u + off, v + off) for m, off in zip(parts, offsets) for u, v in m.edges[a]}
            for a in sig.agents
        }
        valuation = {
            p: {w + off for m, off in zip(parts, offsets) for w in m.valuation[p]}
            for p in sig.props
        }
        expected = KripkeStructure(sig, total, edges, valuation)
        union = disjoint_union(parts)
        assert dict(union.edges) == dict(expected.edges)
        assert dict(union.valuation) == dict(expected.valuation)
        assert all(type(pairs) is frozenset for pairs in union.edges.values())
        assert all(type(worlds) is frozenset for worlds in union.valuation.values())
        for agent in sig.agents:
            for w in range(total):
                assert union.successors(agent, w) == expected.successors(agent, w)
        assert union._predecessors() == expected._predecessors()
        assert union == expected and hash(union) == hash(expected)


def _neighborhood_by_edge_walk(m, world, radius):
    """The former ``neighborhood``: rebuilds the adjacency from every edge."""
    adj = {}
    for pairs in m.edges.values():
        for u, v in pairs:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    seen = {world}
    frontier = [world]
    for _ in range(radius):
        frontier = [v for u in frontier for v in adj.get(u, ()) if v not in seen]
        seen.update(frontier)
    return frozenset(seen)


def _restrict_by_edge_walk(m, worlds, point):
    """The former ``restrict``: filters every edge of the structure."""
    keep = sorted(set(worlds))
    relabel = {w: i for i, w in enumerate(keep)}
    edges = {
        a: {(relabel[u], relabel[v]) for u, v in m.edges[a] if u in relabel and v in relabel}
        for a in m.signature.agents
    }
    valuation = {p: {relabel[w] for w in m.valuation[p] if w in relabel} for p in m.signature.props}
    return PointedStructure(KripkeStructure(m.signature, len(keep), edges, valuation), relabel[point])


def test_neighborhood_and_restrict_match_edge_walks():
    rng = random.Random(31)
    for _ in range(40):
        m = random_structure(rng, random_signature(rng), max_worlds=10).structure
        for w in m.worlds():
            for radius in range(4):
                hood = neighborhood(m, w, radius)
                assert hood == _neighborhood_by_edge_walk(m, w, radius)
                assert dump_structure(restrict(m, hood, point=w)) == dump_structure(
                    _restrict_by_edge_walk(m, hood, w)
                )


@pytest.mark.parametrize("props", range(6))
def test_atom_ids_read_the_truth_values_as_binary_numbers(props):
    """The one atom convention, everywhere it is written or read: the
    structure's atom ids, the trees ``_realize`` builds, the descriptions
    of ``_atomic_description`` and the game's atom masks."""
    rng = random.Random(37 + props)
    sig = Signature(("a",), tuple(f"p{i}" for i in range(props)))
    for _ in range(10):
        m, other = (random_structure(rng, sig, 8).structure for _ in range(2))
        assert m._atom_ids() == tuple(map(atom_number, atom_keys(m)))
        assert _atom_masks(m, other, m.worlds(), other.worlds()) == atom_masks(m, other)
    singles = [_realize(sig, atoms, []) for atoms in range(1 << props)]
    for atoms, single in enumerate(singles):
        assert single.structure._atom_ids() == (atoms,)
        description = _atomic_description(sig, atoms)
        assert [satisfies(s, description) for s in singles] == [s is single for s in singles]


def _dump_refusal(agent: str, prop: str) -> str:
    """The message with which ``dump_structure`` refuses a one-edge
    structure over ``agent`` and ``prop``."""
    m = KripkeStructure(Signature((agent,), (prop,)), 2, {agent: [(0, 1)]}, {prop: [1]})
    with pytest.raises(ValueError) as info:
        dump_structure(m)
    return str(info.value)


def test_dump_refuses_names_with_whitespace():
    assert _dump_refusal("a b", "p").startswith("cannot write agent 'a b'")
    assert _dump_refusal("a", "p\tq").startswith("cannot write proposition 'p\\tq'")
    assert _dump_refusal("a", "p\u2028q").startswith("cannot write proposition 'p\\u2028q'")


def test_dump_refuses_names_with_a_colon():
    # An agent "a:b" was written, and read back as "unknown agent 'a' (line 5)".
    assert _dump_refusal("a:b", "p").startswith("cannot write agent 'a:b'")
    assert _dump_refusal("a", "p:q").startswith("cannot write proposition 'p:q'")


def test_dump_refuses_names_with_a_hash():
    # A proposition "p#q" was written, and read back as "malformed line 'prop p' (line 6)".
    assert _dump_refusal("a#b", "p").startswith("cannot write agent 'a#b'")
    assert _dump_refusal("a", "p#q").startswith("cannot write proposition 'p#q'")


def test_dump_structure_matches_the_pair_sorted_dump():
    rng = random.Random(41)
    for _ in range(60):
        pointed = random_structure(rng, random_signature(rng), max_worlds=8, edge_prob=0.4)
        for value in (pointed, pointed.structure, unravel(pointed, 2)):
            assert dump_structure(value, name="x") == pair_sorted_dump(value, name="x")


def _assert_built_as_validated(built, expected):
    assert built == expected and hash(built) == hash(expected)
    assert built._succ == expected._succ
    assert dict(built.edges) == dict(expected.edges)
    assert dict(built.valuation) == dict(expected.valuation)
    assert all(type(worlds) is frozenset for worlds in built.valuation.values())


def _realize_by_pairs(sig, atoms, children):
    """``_realize`` through the validating constructor: the root's edges to
    each child's point, and each child's pairs shifted by its offset."""
    edges = {a: set() for a in sig.agents}
    valuation = {p: {0} if holds else set() for p, holds in zip(sig.props, atoms)}
    offset = 1
    for agent, child in children:
        sub = child.structure
        edges[agent].add((0, offset + child.point))
        for a in sig.agents:
            edges[a].update((offset + u, offset + v) for u, v in sub.edges[a])
        for p in sig.props:
            valuation[p].update(offset + w for w in sub.valuation[p])
        offset += sub.world_count
    return PointedStructure(KripkeStructure(sig, offset, edges, valuation), 0)


def test_restrict_unravel_and_realize_equal_validated_construction():
    rng = random.Random(43)
    for _ in range(40):
        sig = random_signature(rng)
        pointed = random_structure(rng, sig, max_worlds=6)
        m = pointed.structure
        for w in m.worlds():
            hood = neighborhood(m, w, rng.randint(0, 2))
            got, want = restrict(m, hood, point=w), _restrict_by_edge_walk(m, hood, w)
            assert got.point == want.point
            _assert_built_as_validated(got.structure, want.structure)
        for depth in (1, 2, 3):
            got, want = unravel(pointed, depth), pair_set_unravel(pointed, depth)
            assert got.point == want.point == 0
            _assert_built_as_validated(got.structure, want.structure)
        children = [
            (rng.choice(sig.agents), random_structure(rng, sig, max_worlds=4))
            for _ in range(rng.randint(0, 3))
        ]
        atoms = tuple(rng.random() < 0.5 for _ in sig.props)
        got, want = _realize(sig, atom_number(atoms), children), _realize_by_pairs(sig, atoms, children)
        _assert_built_as_validated(got.structure, want.structure)


def test_no_library_reader_builds_the_edges_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the edges view was read")

    rng = random.Random(47)
    sig = Signature(("a", "b"), ("p",))
    a, b = (random_structure(rng, sig, max_worlds=5, edge_prob=0.4) for _ in range(2))
    monkeypatch.setattr(KripkeStructure, "edges", property(refuse))
    loaded = load_structure(dump_structure(a))
    union = disjoint_union([a.structure, b.structure])
    restricted = restrict(union, range(3), point=0)
    unravelled = unravel(a, 3)
    bounded_equivalence(a, b, 1, 2)
    fo_eval(a.structure, {"x": a.point}, standard_translation(Diamond("a", 2, Prop("p"))))
    fo_eval(a.structure, {"x": a.point}, Exists("y", FOAnd(EdgeAtom("b", "y", "x"), PropAtom("p", "y"))))
    fo_q_equivalent(a, b, 2)
    find_cap(1, 1, Signature(("a",), ("p",)), 3)
    dump_structure(unravelled)
    is_rooted_treelike(unravelled.structure, 0, 2)
    for value in (a, b, loaded, union, restricted, unravelled):
        assert getattr(value, "structure", value)._edges is None
