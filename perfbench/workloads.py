"""The three benchmark workloads: inputs made from a seed, queries, oracles.

A query is one user request.  ``call`` is the timed part and goes through
``lib`` (so the traced run can swap in its wrappers); ``summarize`` turns the
output into one deterministic line for the digest; ``verify`` checks the
output by an independent route and runs once per query, on its first
execution.  Query costs inside a workload are kept in a narrow band by fixed
size schedules: the seed decides the edges, labels and points, never the
sizes, so the median stays inside one cost cluster from seed to seed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

from oracle import (
    Failed,
    digest,
    ref_class,
    ref_equivalent,
    require,
    same_formula,
)

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# smoke test's, small enough for every oracle to finish in seconds.
PARAMS = {
    "large-models": {
        "full": dict(per_kind=6, beq12_n=1370, beq23_n=(1200, 1000), bisim_iso_n=1480, bisim_moved_n=760,
                     chain_len=155, unravel_n=1570, unravel_depth=7, ext_n=4000,
                     cli_chain_same=108, cli_chain_other=122, cli_n=1100),
        "tiny": dict(per_kind=2, beq12_n=40, beq23_n=30, bisim_iso_n=40, bisim_moved_n=30,
                     chain_len=12, unravel_n=20, unravel_depth=3, ext_n=60,
                     cli_chain_same=10, cli_chain_other=10, cli_n=30),
    },
    "deep-formulas": {
        "full": dict(chi=12, chi_n=(3, 6), chi_depths=(2, 3, 4), dist=6, dist_n=(5, 10),
                     dist_bounds=((1, 4), (2, 3), (2, 4)), translate=6, translate_n=(5, 8),
                     nf_sweeps=2, nf_structures=12, cli_rounds=2, cli_n=8),
        "tiny": dict(chi=2, chi_n=(3, 4), chi_depths=(2, 3), dist=1, dist_n=(3, 4),
                     dist_bounds=((1, 3), (2, 2)), translate=1, translate_n=(3, 3),
                     nf_sweeps=1, nf_structures=2, cli_rounds=1, cli_n=4),
    },
    "cross-check": {
        "full": dict(small=240, mid=80, cli_every=6, find_cap_size=6),
        "tiny": dict(small=6, mid=2, cli_every=3, find_cap_size=4),
    },
}

# The cheapest and the dearest large-models query differ in cost by about
# this factor.  The sizes spread all queries of a cycle evenly over it in log
# scale, so the latencies form one continuum: the median moves smoothly with
# the machine's speed, instead of jumping between two kinds' costs or between
# a fast and a slow phase of the machine.
COST_RANGE = 2.5


def cost_scale(index, kind, per_kind, kinds):
    """Cost factor of query ``index`` of kind ``kind``; over all queries the
    factors interleave kind by kind and cover COST_RANGE evenly."""
    position = (index * kinds + kind + 0.5) / (per_kind * kinds)
    return COST_RANGE ** (position - 0.5)


# Fixed cost schedule of the cross-check mid-size pairs: (worlds, out-degree
# per agent, cap, rounds).
MID_GRID = ((40, 3, 3, 3), (80, 3, 2, 2), (20, 4, 3, 3), (30, 5, 3, 2), (60, 3, 2, 2), (30, 3, 2, 3))
SMALL_SUCCESSORS = 4
SMALL_BOUNDS = tuple((cap, depth) for cap in range(3) for depth in range(3))
UPGRADE_FORMULA = "<a:2> true"
EXTENSION_FORMULAS = (
    "<a:2> p",
    "(p & <b:1> !q)",
    "[a:1] <b:2> q",
    "<a:1> (p | <b:2> true)",
    "!<b:2> (q & <a:1> p)",
)
# The two crashes documented in ROADMAP item 2; they count as failures.
NF_CRASH = ["nf", "(p | (q | r))", "--c", "1", "--l", "1", "--agents", "a", "--props", "p,q,r"]
DEEP_NEGATION = "!" * 3000 + "p"


@dataclass
class Query:
    kind: str
    label: str
    call: Callable[[], Any]
    summarize: Callable[[Any], str]
    verify: Callable[[Any], None]
    known_defect: str = ""
    first: tuple | None = field(default=None, repr=False)  # (summary, status, reason)


class Inputs:
    """Seeded generators; every structure is built with the library's own types."""

    def __init__(self, lib, rng, workdir):
        self.lib = lib
        self.rng = rng
        self.workdir = workdir
        self.files = 0

    def sig(self, agents, props):
        return self.lib.kripke.Signature(tuple(agents), tuple(props))

    def pointed(self, m, point):
        return self.lib.kripke.PointedStructure(m, point)

    def regular(self, sig, n, k):
        """Every world has exactly min(k, n) distinct successors per agent and
        every proposition holds at exactly n // 2 worlds."""
        rng = self.rng
        edges = {a: {(u, v) for u in range(n) for v in rng.sample(range(n), min(k, n))}
                 for a in sig.agents}
        valuation = {p: set(rng.sample(range(n), n // 2)) for p in sig.props}
        return self.lib.kripke.KripkeStructure(sig, n, edges, valuation)

    def random_small(self, sig, max_worlds=6, edge_prob=0.28, max_successors=None):
        """A random pointed structure in the shape of acceptance criterion 1;
        a world keeps at most ``max_successors`` successors per agent."""
        rng = self.rng
        n = rng.randint(1, max_worlds)
        edges = {}
        for a in sig.agents:
            edges[a] = set()
            for u in range(n):
                targets = [v for v in range(n) if rng.random() < edge_prob]
                if max_successors is not None and len(targets) > max_successors:
                    targets = rng.sample(targets, max_successors)
                edges[a].update((u, v) for v in targets)
        valuation = {p: {w for w in range(n) if rng.random() < 0.5} for p in sig.props}
        m = self.lib.kripke.KripkeStructure(sig, n, edges, valuation)
        return self.pointed(m, rng.randrange(n))

    def relabelled(self, m):
        """An isomorphic copy under a random permutation, and the permutation."""
        pi = list(range(m.world_count))
        self.rng.shuffle(pi)
        edges = {a: {(pi[u], pi[v]) for u, v in m.edges[a]} for a in m.signature.agents}
        valuation = {p: {pi[w] for w in m.valuation[p]} for p in m.signature.props}
        return self.lib.kripke.KripkeStructure(m.signature, m.world_count, edges, valuation), pi

    def perturbed(self, m):
        """The same structure with one edge moved to a new target."""
        rng = self.rng
        agent = rng.choice([a for a in m.signature.agents if m.edges[a]])
        edges = {a: set(m.edges[a]) for a in m.signature.agents}
        u, v = rng.choice(sorted(edges[agent]))
        free = [w for w in range(m.world_count) if (u, w) not in edges[agent]]
        if free:
            edges[agent].discard((u, v))
            edges[agent].add((u, rng.choice(free)))
        return self.lib.kripke.KripkeStructure(m.signature, m.world_count, edges, m.valuation)

    def line(self, sig, n, cycle):
        """Worlds 0..n-1 linked by agent a, closed into a cycle if asked; p
        marks world n-1, so worlds are told apart only after about n rounds."""
        edges = {"a": {(i, i + 1) for i in range(n - 1)}}
        if cycle:
            edges["a"].add((n - 1, 0))
        return self.lib.kripke.KripkeStructure(sig, n, edges, {"p": {n - 1}})

    def text(self, value):
        return self.lib.kripke.dump_structure(value)

    def file(self, value):
        self.files += 1
        path = self.workdir / f"s{self.files}.kr"
        path.write_text(self.text(value), encoding="utf-8")
        return str(path)

    def fragment_formula(self, sig, cap, depth):
        """A random formula of counting rank <= cap and nesting depth <= depth."""
        s = self.lib.syntax
        rng = self.rng
        roll = rng.random()
        if depth == 0 or cap == 0 or not sig.agents or roll < 0.35:
            return rng.choice([s.Top(), s.Bot()] + [s.Prop(p) for p in sig.props])
        if roll < 0.55:
            return s.Not(self.fragment_formula(sig, cap, depth - 1))
        if roll < 0.75:
            ctor = s.And if rng.random() < 0.5 else s.Or
            return ctor(self.fragment_formula(sig, cap, depth - 1),
                        self.fragment_formula(sig, cap, depth - 1))
        return s.Diamond(rng.choice(sig.agents), rng.randint(1, cap),
                         self.fragment_formula(sig, cap, depth - 1))


def cli_call(lib, argv):
    """One in-process CLI request with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.run(argv + ["--json"])
    return code, out.getvalue(), err.getvalue()


def cli_payload(out, expected_code):
    """Checks a CLI result against the verdict expected from the API; returns
    its JSON document."""
    code, stdout, stderr = out
    if code not in (0, 1):
        raise Failed(f"exit code {code} where a verdict was expected: {stderr.strip()[:120]}")
    require(code == expected_code, f"exit code {code}, API verdict gives {expected_code}")
    return json.loads(stdout)


def cli_summary(out):
    code, stdout, _ = out
    return f"exit={code} out={digest(stdout)}"


def interleave(groups):
    """Merge the groups so that every stretch of the list mixes the kinds."""
    keyed = [((i + 0.5) / len(g), j, q) for j, g in enumerate(groups) for i, q in enumerate(g)]
    return [q for _, _, q in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# large-models
# ---------------------------------------------------------------------------


def build_large_models(lib, rng, p, workdir):
    """Only the printed inputs outlive set-up: the call reads them, and the
    oracles read them again, so the structures built here do not add to the
    memory that the queries are measured in."""
    gen = Inputs(lib, rng, workdir)
    sig = gen.sig(("a", "b"), ("p", "q"))
    load = lib.kripke.load_structure

    def equivalence_call(text_a, text_b, bounds=None):
        """Read both structures, then the bounded verdict, or full
        bisimilarity when ``bounds`` is None."""
        def call():
            left, right = lib.kripke.load_structure(text_a), lib.kripke.load_structure(text_b)
            if bounds is None:
                return lib.equivalence.full_graded_bisimilarity(left, right)
            return lib.equivalence.bounded_equivalence(left, right, *bounds)
        return call

    def summarize(result):
        history = result.history
        return f"{result.equivalent} rounds={history.rounds} classes={len(set(history.levels[-1]))}"

    def pair_query(kind, n, bounds, index, scale):
        if isinstance(n, tuple):  # sizes for the isomorphic and the perturbed pairs
            n = n[index % 2]
        n = round(n * scale)
        m = gen.regular(sig, n, 2)
        copy, pi = gen.relabelled(m)
        iso = index % 2 == 0
        if not iso:
            copy = gen.perturbed(copy)
        point = rng.randrange(n)
        text_a, text_b = gen.text(gen.pointed(m, point)), gen.text(gen.pointed(copy, pi[point]))

        def verify(result):
            cap, depth = bounds if bounds is not None else (None, None)
            expected = ref_equivalent(load(text_a), load(text_b), cap, depth)
            require(result.equivalent == expected, "verdict differs from the reference refinement")
            require(not iso or result.equivalent, "isomorphic copies reported inequivalent")

        return Query(kind, f"{kind} n={n} {'iso' if iso else 'perturbed'}",
                     equivalence_call(text_a, text_b, bounds), summarize, verify)

    def line_query(index, scale):
        n = round(p["chain_len"] * scale ** 0.5)  # about n rounds over n worlds
        cycle = index % 2 == 1
        base = gen.line(sig, n, cycle)
        same = index % 3 != 2
        if cycle:
            copy, pi = gen.relabelled(base)
            a = gen.pointed(base, 1)
            b = gen.pointed(copy, pi[1] if same else pi[2])
        else:
            a = gen.pointed(base, 0)
            b = gen.pointed(gen.line(sig, n if same else n + 1, False), 0)

        def verify(result):
            require(result.equivalent == same, "bisimilarity of marked lines differs from construction")

        shape = "cycle" if cycle else "chain"
        return Query("bisim-line", f"bisim {shape} n={n} same={same}",
                     equivalence_call(gen.text(a), gen.text(b)), summarize, verify)

    def unravel_query(scale):
        m = gen.regular(sig, round(p["unravel_n"] * scale), 1)
        a = gen.pointed(m, rng.randrange(m.world_count))
        tree = lib.kripke.unravel(a, p["unravel_depth"])

        def verify(result):
            require(result.equivalent, "an unravelling is not bisimilar to its original")

        return Query("bisim-unravel", f"unravel n={m.world_count} worlds={tree.structure.world_count}",
                     equivalence_call(gen.text(a), gen.text(tree)), summarize, verify)

    def extension_query(scale):
        n = round(p["ext_n"] * scale)
        text = gen.text(gen.regular(sig, n, 2))
        sample = rng.sample(range(n), 12)

        def call():
            model = load(text)
            return [lib.semantics.extension(model, lib.syntax.parse_formula(f)) for f in EXTENSION_FORMULAS]

        def verify(exts):
            m = load(text)
            for source, ext in zip(EXTENSION_FORMULAS, exts):
                f = lib.syntax.parse_formula(source)
                fo = lib.folink.standard_translation(f)
                for w in sample:
                    pointed = gen.pointed(m, w)
                    require(lib.semantics.satisfies(pointed, f) == (w in ext),
                            f"extension of {source} disagrees with satisfies at world {w}")
                for w in sample[:2]:
                    # Depth-2 formulas see only the radius-2 neighbourhood.
                    local = lib.kripke.restrict(m, lib.kripke.neighborhood(m, w, 2), point=w)
                    require(lib.folink.fo_eval(local.structure, {"x": local.point}, fo) == (w in ext),
                            f"extension of {source} disagrees with fo_eval at world {w}")

        return Query("extension", f"extension n={n}", call,
                     lambda exts: " ".join(f"{len(e)}:{digest(str(sorted(e)))}" for e in exts), verify)

    def cli_query(index, scale):
        if index % 2 == 0:
            same = index % 4 == 0
            n = round(p["cli_chain_same" if same else "cli_chain_other"] * scale ** 0.5)
            a = gen.pointed(gen.line(sig, n, False), 0)
            b = gen.pointed(gen.line(sig, n if same else n + 1, False), 0)
            argv = ["bisim", gen.file(a), gen.file(b)]
            label = f"cli bisim chain n={n} same={same}"
        else:
            m = gen.regular(sig, round(p["cli_n"] * scale), 2)
            copy, pi = gen.relabelled(m)
            point = rng.randrange(m.world_count)
            argv = ["equiv", gen.file(gen.pointed(m, point)), gen.file(gen.pointed(copy, pi[point])),
                    "--c", "1", "--l", "2"]
            same = True
            label = f"cli equiv n={m.world_count} iso"

        def verify(out):
            payload = cli_payload(out, 0 if same else 1)
            require(payload["equivalent"] == same, "CLI JSON verdict differs from construction")

        return Query("cli", label, lambda: cli_call(lib, argv), cli_summary, verify)

    kinds = [
        lambda i, scale: pair_query("beq-1-2", p["beq12_n"], (1, 2), i, scale),
        lambda i, scale: pair_query("beq-2-3", p["beq23_n"], (2, 3), i, scale),
        lambda i, scale: pair_query("bisim-graph", (p["bisim_iso_n"], p["bisim_moved_n"]), None, i, scale),
        line_query,
        lambda i, scale: unravel_query(scale),
        lambda i, scale: extension_query(scale),
        cli_query,
    ]
    n = p["per_kind"]
    return interleave([[make(i, cost_scale(i, k, n, len(kinds))) for i in range(n)]
                       for k, make in enumerate(kinds)])


# ---------------------------------------------------------------------------
# deep-formulas
# ---------------------------------------------------------------------------


def build_deep_formulas(lib, rng, p, workdir):
    gen = Inputs(lib, rng, workdir)
    sig = gen.sig(("a", "b"), ("p",))
    syn, sem, cf = lib.syntax, lib.semantics, lib.charform

    def chi_query(index):
        low, high = p["chi_n"]
        m = gen.regular(sig, low + index % (high - low + 1), 1)
        target = gen.pointed(m, rng.randrange(m.world_count))

        def call():
            rows = []
            for depth in p["chi_depths"]:
                chi = lib.charform.characteristic_formula(target, 2, depth)
                text = lib.syntax.format_formula(chi)
                parsed = lib.syntax.parse_formula(text)
                sat = tuple(lib.semantics.satisfies(gen.pointed(m, w), parsed) for w in m.worlds())
                rows.append((depth, chi, text, parsed, sat, lib.semantics.extension(m, parsed)))
            return rows

        def summarize(rows):
            return " ".join(f"{d}:{digest(text)}:{sum(sat)}:{sorted(ext)}"
                            for d, _, text, _, sat, ext in rows)

        def verify(rows):
            for depth, chi, _text, parsed, sat, ext in rows:
                require(same_formula(parsed, chi), f"parse(format(chi)) != chi at depth {depth}")
                require(ext == ref_class(target, 2, depth), f"chi at depth {depth} does not define its class")
                require(sat == tuple(w in ext for w in m.worlds()), "satisfies disagrees with extension")

        return Query("chi", f"chi n={m.world_count} c=2", call, summarize, verify)

    def inequivalent_pair(index):
        """Two random models whose points differ on ``p``, so they are
        inequivalent at every bound by construction."""
        low, high = p["dist_n"]
        sizes = low + index % (high - low + 1), high - index % (high - low + 1)
        left, right = gen.regular(sig, sizes[0], 2), gen.regular(sig, sizes[1], 2)
        marked = sorted(left.valuation["p"])
        unmarked = sorted(set(right.worlds()) - right.valuation["p"])
        return gen.pointed(left, rng.choice(marked)), gen.pointed(right, rng.choice(unmarked))

    def distinguish_query(index):
        bounds = p["dist_bounds"]
        a, b = inequivalent_pair(index)

        def call():
            rows = []
            for c, d in bounds:
                sep = lib.charform.distinguishing_formula(a, b, c, d)
                rows.append((c, d, sep, lib.syntax.format_formula(sep)))
            return rows

        def verify(rows):
            for c, d, sep, _ in rows:
                require(sem.satisfies(a, sep) and not sem.satisfies(b, sep),
                        f"separator at ({c},{d}) does not hold left and fail right")
                require(syn.nesting_depth(sep) <= d and syn.counting_rank(sep) <= c,
                        f"separator at ({c},{d}) leaves the fragment")

        return Query("distinguish", f"distinguish n={a.structure.world_count},{b.structure.world_count}",
                     call, lambda rows: " ".join(digest(r[3]) for r in rows), verify)

    def translate_query(index):
        low, high = p["translate_n"]
        m = gen.regular(sig, low + index % (high - low + 1), 2)
        target = gen.pointed(m, rng.randrange(m.world_count))
        text = syn.format_formula(cf.characteristic_formula(target, 2, 3))

        def call():
            formula = lib.syntax.parse_formula(text)
            fo = lib.folink.standard_translation(formula)
            return formula, fo, lib.folink.format_fo_formula(fo), lib.folink.quantifier_rank(fo)

        def verify(out):
            formula, fo, _, _ = out
            truth = sem.satisfies(target, formula)
            require(truth, "a characteristic formula fails at its own point")
            require(lib.folink.fo_eval(m, {"x": target.point}, fo) == truth,
                    "satisfies disagrees with fo_eval of the standard translation")

        return Query("translate", f"translate chars={len(text)}", call,
                     lambda out: f"{digest(out[2])} q={out[3]}", verify)

    def nf_sweep_query():
        """Acceptance criterion 8's shape: every feasible catalog over one
        agent and at most one proposition, three fragment formulas each."""
        items = []
        for props in ((), ("p",)):
            sig1 = gen.sig(("a",), props)
            structures = [gen.random_small(sig1) for _ in range(p["nf_structures"])]
            for cap in range(3):
                for depth in range(3):
                    if cf.catalog_size(sig1, cap, depth) > 5000:
                        continue
                    formulas = [gen.fragment_formula(sig1, cap, depth) for _ in range(3)]
                    items.append((sig1, cap, depth, formulas, structures))
        guarded_sig = gen.sig(("a",), ("p",))

        def call():
            rows = []
            for sig1, cap, depth, formulas, _ in items:
                catalog = lib.charform.enumerate_types(sig1, cap, depth)
                for f in formulas:
                    rows.append((catalog, f, lib.charform.normal_form(f, cap, depth, catalog=catalog)))
            try:
                lib.charform.enumerate_types(guarded_sig, 2, 2)
                guarded = False
            except lib.pkg.ResourceLimitError:
                guarded = True
            return rows, guarded

        def kept_ids(catalog, nf):
            by_id = {id(e.formula): e.type_id for e in catalog.entries}
            kept, node = [], nf
            while isinstance(node, syn.Or):
                kept.append(by_id.get(id(node.right), -1))
                node = node.left
            if not isinstance(node, syn.Bot):
                kept.append(by_id.get(id(node), -1))
            return sorted(kept)

        def summarize(out):
            rows, guarded = out
            return f"guarded={guarded} " + digest(str([(len(c), kept_ids(c, nf)) for c, _, nf in rows]))

        test_structures = {id(f): s for _, _, _, fs, s in items for f in fs}

        def verify(out):
            rows, guarded = out
            require(guarded, "the infeasible catalog (one prop, cap 2, depth 2) was not guarded")
            for catalog, f, nf in rows:
                expected = sorted(e.type_id for e in catalog.entries if sem.satisfies(e.model, f))
                require(kept_ids(catalog, nf) == expected, "normal form keeps the wrong catalog entries")
                for model in test_structures[id(f)]:
                    require(sem.satisfies(model, nf) == sem.satisfies(model, f),
                            "normal form and formula disagree on a random structure")

        return Query("nf-sweep", f"nf sweep {len(items)} catalogs", call, summarize, verify)

    def cli_queries(index):
        m = gen.regular(sig, p["cli_n"], 1)
        target = gen.pointed(m, rng.randrange(m.world_count))
        depth = p["chi_depths"][-1]
        model_file = gen.file(target)
        wide = gen.pointed(gen.regular(sig, p["cli_n"], 2), 0)
        wide_file = gen.file(wide)
        other = rng.randrange(m.world_count)
        other_text = syn.format_formula(cf.characteristic_formula(gen.pointed(m, other), 2, depth))
        m2 = gen.regular(sig, p["translate_n"][1], 2)
        fo_text = syn.format_formula(cf.characteristic_formula(gen.pointed(m2, 0), 2, 3))
        a, b = inequivalent_pair(index)
        files = gen.file(a), gen.file(b)
        queries = []

        def verify_char(out):
            payload = cli_payload(out, 0)
            chi = cf.characteristic_formula(wide, 2, depth)
            require(same_formula(syn.parse_formula(payload["formula"]), chi),
                    "CLI chi differs from the API's")

        queries.append(Query("cli", f"cli char n={wide.structure.world_count}",
                             lambda: cli_call(lib, ["char", wide_file, "--c", "2", "--l", str(depth)]),
                             cli_summary, verify_char))
        def verify_mc(out):
            cli_payload(out, 0 if target.point in ref_class(gen.pointed(m, other), 2, depth) else 1)

        queries.append(Query("cli", f"cli mc chi chars={len(other_text)}",
                             lambda: cli_call(lib, ["mc", model_file, other_text]), cli_summary, verify_mc))

        def verify_translate(out):
            payload = cli_payload(out, 0)
            fo = lib.folink.standard_translation(syn.parse_formula(fo_text))
            require(payload["fo_formula"] == lib.folink.format_fo_formula(fo), "CLI translation differs")
            require(payload["quantifier_rank"] == lib.folink.quantifier_rank(fo), "CLI rank differs")

        queries.append(Query("cli", f"cli translate chars={len(fo_text)}",
                             lambda: cli_call(lib, ["translate", fo_text]), cli_summary, verify_translate))

        def verify_distinguish(out):
            payload = cli_payload(out, 1)
            sep = syn.parse_formula(payload["formula"])
            require(sem.satisfies(a, sep) and not sem.satisfies(b, sep), "CLI separator is wrong")

        queries.append(Query("cli", "cli distinguish",
                             lambda: cli_call(lib, ["distinguish", *files, "--c", "2", "--l", str(depth)]),
                             cli_summary, verify_distinguish))
        return queries

    def crash_queries():
        sig3 = gen.sig(("a",), ("p", "q", "r"))
        nf_source = syn.parse_formula(NF_CRASH[1])

        def verify_nf(out):
            payload = cli_payload(out, 0)
            catalog = cf.enumerate_types(sig3, 1, 1)
            kept = sum(sem.satisfies(e.model, nf_source) for e in catalog.entries)
            require(payload["formula"].count("|") == kept - 1, "normal form keeps the wrong entries")

        m = gen.regular(sig, 4, 1)
        target = gen.pointed(m, 0)
        model_file = gen.file(target)
        truth = 0 if target.point in m.valuation["p"] else 1
        defect = "documented crash (ROADMAP item 2): RecursionError"
        return [
            Query("cli-crash", "cli nf (p | (q | r)) 2048 entries", lambda: cli_call(lib, list(NF_CRASH)),
                  cli_summary, verify_nf, known_defect=defect + " in format_formula"),
            Query("cli-crash", "cli mc 3000 negations",
                  lambda: cli_call(lib, ["mc", model_file, DEEP_NEGATION]),
                  cli_summary, lambda out: cli_payload(out, truth), known_defect=defect + " in the parser"),
        ]

    cli = []
    for index in range(p["cli_rounds"]):
        cli.extend(cli_queries(index))
    groups = [
        [chi_query(i) for i in range(p["chi"])],
        [distinguish_query(i) for i in range(p["dist"])],
        [translate_query(i) for i in range(p["translate"])],
        [nf_sweep_query() for _ in range(p["nf_sweeps"])],
        cli,
        crash_queries(),
    ]
    return interleave(groups)


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


def build_cross_check(lib, rng, p, workdir):
    gen = Inputs(lib, rng, workdir)
    sem, syn, eq = lib.semantics, lib.syntax, lib.equivalence
    upgrade_formula = syn.parse_formula(UPGRADE_FORMULA)
    duplicator = lib.game.DUPLICATOR

    def small_pair(index):
        """Criterion 1's mix: independent pairs, and pairs biased toward
        equivalence.  At most 4 successors per agent keep the upgrade
        pipeline's depth-4 unravelling under 600 worlds, so the query costs
        stay in one band."""
        sig = gen.sig(("a", "b")[: rng.randint(1, 2)], ("p", "q")[: rng.randint(0, 2)])
        a = gen.random_small(sig, max_successors=SMALL_SUCCESSORS)
        recipe = rng.randrange(4) if index % 2 else 2
        if recipe == 0:
            b = lib.kripke.unravel(a, rng.randint(1, 2))
        elif recipe == 1:
            junk = gen.random_small(sig, 3).structure
            b = lib.kripke.disjoint_union([a.structure, junk], point_from=(0, a.point))
        elif recipe == 2:
            b = gen.random_small(sig, max_successors=SMALL_SUCCESSORS)
        else:
            b = gen.pointed(a.structure, rng.randrange(a.structure.world_count))
        return a, b

    def check_rows(rows):
        for c, d, winner, certified, equivalent, sep, left, right in rows:
            require(certified, f"verify_strategy rejected the certificate at ({c},{d})")
            require((winner == duplicator) == equivalent, f"game winner differs from refinement at ({c},{d})")
            require((sep is None) == equivalent, f"separator presence differs from the verdict at ({c},{d})")
            if sep is not None:
                require(left is True and right is False,
                        f"separator at ({c},{d}) does not hold left and fail right")

    def small_query(index):
        a, b = small_pair(index)

        def call():
            rows = []
            for c, d in SMALL_BOUNDS:
                result = lib.game.solve_game(a, b, c, d)
                certified = lib.game.verify_strategy(result, a, b)
                equivalent = lib.equivalence.bounded_equivalence(a, b, c, d).equivalent
                sep = left = right = None
                if not equivalent:
                    sep = lib.charform.distinguishing_formula(a, b, c, d)
                    fo = lib.folink.standard_translation(sep)
                    left = lib.folink.fo_eval(a.structure, {"x": a.point}, fo)
                    right = lib.folink.fo_eval(b.structure, {"x": b.point}, fo)
                rows.append((c, d, result.winner, certified, equivalent, sep, left, right))
            fo_equivalent = lib.folink.fo_q_equivalent(a, b, 2)
            report = lib.folink.upgrade_pipeline(upgrade_formula, a, b, cap=2)
            return rows, fo_equivalent, report

        def summarize(out):
            rows, fo_equivalent, report = out
            seps = [syn.format_formula(r[5]) if r[5] is not None else "-" for r in rows]
            return (f"{[r[4] for r in rows]} fo2={fo_equivalent} "
                    f"up={[s.status for s in report.steps]} {digest(str(seps))}")

        def verify(out):
            rows, fo_equivalent, report = out
            check_rows(rows)
            for c, d, _, _, equivalent, *_ in rows:
                # A modal formula of cap c and depth d translates to rank c*d.
                require(not (fo_equivalent and c * d <= 2 and not equivalent),
                        f"rank-2 FO equivalence without bounded equivalence at ({c},{d})")
            require(report.holds, "the upgrade pipeline reports a failing step")

        sizes = f"{a.structure.world_count},{b.structure.world_count}"
        return Query("small", f"small pair {sizes}", call, summarize, verify)

    def small_cli_query(index):
        a, b = small_pair(index)
        c, d = rng.choice(SMALL_BOUNDS)
        argv = ["game", gen.file(a), gen.file(b), "--c", str(c), "--l", str(d)]

        def verify(out):
            equivalent = eq.bounded_equivalence(a, b, c, d).equivalent
            payload = cli_payload(out, 0 if equivalent else 1)
            require((payload["winner"] == duplicator) == equivalent,
                    "CLI game winner differs from refinement")

        return Query("cli", f"cli game ({c},{d})", lambda: cli_call(lib, argv), cli_summary, verify)

    def mid_query(index):
        n, k, c, d = MID_GRID[index % len(MID_GRID)]
        sig = gen.sig(("a", "b"), ("p",))
        m = gen.regular(sig, n, k)
        copy, pi = gen.relabelled(m)
        iso = index // len(MID_GRID) % 2 == 0
        if not iso:
            copy = gen.perturbed(copy)
        point = rng.randrange(n)
        a, b = gen.pointed(m, point), gen.pointed(copy, pi[point])

        def call():
            result = lib.game.solve_game(a, b, c, d)
            certified = lib.game.verify_strategy(result, a, b)
            equivalent = lib.equivalence.bounded_equivalence(a, b, c, d).equivalent
            sep = None if equivalent else lib.charform.distinguishing_formula(a, b, c, d)
            fo_equivalent = lib.folink.fo_q_equivalent(a, b, 1)
            return result, certified, equivalent, sep, fo_equivalent

        def summarize(out):
            result, certified, equivalent, sep, fo_equivalent = out
            printed = syn.format_formula(sep) if sep is not None else "-"
            return (f"{result.winner} {certified} {equivalent} positions={len(result.strategy)} "
                    f"fo1={fo_equivalent} {digest(printed)}")

        def verify(out):
            result, certified, equivalent, sep, fo_equivalent = out
            # fo_eval of a deep separator's translation is exponential in its
            # rank, so at this size the separator is checked by satisfies.
            left = sem.satisfies(a, sep) if sep is not None else None
            right = sem.satisfies(b, sep) if sep is not None else None
            check_rows([(c, d, result.winner, certified, equivalent, sep, left, right)])
            require(not iso or (equivalent and fo_equivalent), "isomorphic copies reported inequivalent")

        return Query("mid", f"mid pair n={n} k={k} ({c},{d}) {'iso' if iso else 'perturbed'}",
                     call, summarize, verify)

    def find_cap_query():
        sig = gen.sig(("a",), ("p",))
        size = p["find_cap_size"]

        def call():
            return lib.folink.find_cap(2, 1, sig, size)

        def verify(result):
            for example in result.counterexamples:
                require(example.cap < result.cap, "a counterexample is logged at the returned cap")
                require(eq.bounded_equivalence(example.left, example.right, example.cap, 1).equivalent,
                        "a counterexample pair is not equivalent at its cap")
                require(not lib.folink.fo_q_equivalent(example.left, example.right, 2),
                        "a counterexample pair is rank-2 FO equivalent")

        return Query("find-cap", f"find_cap q=2 size={size}", call,
                     lambda r: f"cap={r.cap} examined={r.structures_examined} cex={len(r.counterexamples)}",
                     verify)

    small = [small_cli_query(i) if i % p["cli_every"] == p["cli_every"] - 1 else small_query(i)
             for i in range(p["small"])]
    groups = [small, [mid_query(i) for i in range(p["mid"])], [find_cap_query()]]
    return interleave(groups)


WORKLOADS = {
    "large-models": build_large_models,
    "deep-formulas": build_deep_formulas,
    "cross-check": build_cross_check,
}
