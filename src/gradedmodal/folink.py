"""First-order bridge: FO syntax and evaluation over the modal signature,
the standard translation, rank-q equivalence by Hintikka types, locality
checks, the padding construction, and the locality/upgrading pipeline.

FO concrete syntax (printable and re-parsable)::

    fo ::= "E" VAR fo | "A" VAR fo                 -- exists / forall
         | "!" fo
         | "(" fo "&" fo ")" | "(" fo "|" fo ")"
         | "(" fo ")"
         | VAR "=" VAR
         | IDENT "(" VAR ")"                       -- proposition atom
         | "E"AGENT "(" VAR "," VAR ")"            -- edge atom, e.g. Ea(x,y1)

Evaluation recurses with environment passing; a quantifier whose matrix
carries an edge atom to its variable ranges over successors only.
"""

from __future__ import annotations

import bisect
import random as _random_module
import re
from dataclasses import dataclass
from string import ascii_letters
from typing import Mapping, Optional

from .equivalence import bounded_equivalence, full_graded_bisimilarity, refine_to
from .errors import (
    EvaluationError,
    ResourceLimitError,
    SignatureError,
)
from .kripke import (
    KripkeStructure,
    PointedStructure,
    Signature,
    _index,
    _local_part,
    _realize,
    disjoint_union,
    copies,
    dump_structure,
    is_rooted_treelike,
    part_offsets,
    unravel,
)
from .syntax import (
    And,
    Bot,
    Diamond,
    Formula,
    Not,
    Or,
    Prop,
    Top,
    _parse_error,
    _tokens,
    format_formula,
)


class FOFormula:
    """Base class for first-order formulas over the modal signature.

    Nodes are frozen dataclasses with their fields as slots and no
    ``__dict__``; they pickle by their class and field values.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass(frozen=True)
class PropAtom(FOFormula):
    __slots__ = ("prop", "var")
    prop: str
    var: str


@dataclass(frozen=True)
class EdgeAtom(FOFormula):
    __slots__ = ("agent", "src", "dst")
    agent: str
    src: str
    dst: str


@dataclass(frozen=True)
class Eq(FOFormula):
    __slots__ = ("left", "right")
    left: str
    right: str


@dataclass(frozen=True)
class FONot(FOFormula):
    __slots__ = ("child",)
    child: FOFormula


@dataclass(frozen=True)
class FOAnd(FOFormula):
    __slots__ = ("left", "right")
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOOr(FOFormula):
    __slots__ = ("left", "right")
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Exists(FOFormula):
    __slots__ = ("var", "child")
    var: str
    child: FOFormula


@dataclass(frozen=True)
class Forall(FOFormula):
    __slots__ = ("var", "child")
    var: str
    child: FOFormula


def _atoms(formula: FOFormula, top, under):
    """Each atom of the formula, left to right, with its variables and the
    value that ``under(value, variable)`` folds from ``top`` over the
    quantifiers above it.  One explicit stack walks the formula, so no
    depth reaches the recursion limit."""
    stack = [(formula, top)]
    while stack:
        f, value = stack.pop()
        kind = type(f)
        if kind is FOAnd or kind is FOOr:
            stack += ((f.right, value), (f.left, value))
        elif kind is FONot:
            stack.append((f.child, value))
        elif kind is Exists or kind is Forall:
            stack.append((f.child, under(value, f.var)))
        elif kind is PropAtom:
            yield f, (f.var,), value
        elif kind is EdgeAtom:
            yield f, (f.src, f.dst), value
        elif kind is Eq:
            yield f, (f.left, f.right), value
        else:
            raise TypeError(f"not an FO formula: {f!r}")


def _bind(bound: frozenset[str], var: str) -> frozenset[str]:
    return bound | {var}


def free_vars(formula: FOFormula) -> frozenset[str]:
    return frozenset(
        var for _, names, bound in _atoms(formula, frozenset(), _bind) for var in names if var not in bound
    )


def quantifier_rank(formula: FOFormula) -> int:
    return max(depth for _, _, depth in _atoms(formula, 0, lambda depth, _: depth + 1))


def standard_translation(formula: Formula, var: str = "x") -> FOFormula:
    """Embed a modal formula into FO at the given free variable.

    A grade-k modality becomes k nested existentials asserting pairwise
    distinctness, the k edges, and the translated body at each new
    variable; fresh variables are y1, y2, ... in evaluation order, skipping
    ``var`` so that the free variable is never captured.  ``var`` must be
    an FO identifier, so that the printed translation parses again.  The
    translation recurses once per modal nesting level.
    """
    if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var):
        raise ValueError(f"variable {var!r} is not an identifier [A-Za-z][A-Za-z0-9_]*")
    used = 0  # the index of the last fresh name handed out or skipped

    def st(f: Formula, x: str) -> FOFormula:
        nonlocal used
        kind = type(f)
        if kind is And:
            return FOAnd(st(f.left, x), st(f.right, x))
        if kind is Not:
            return FONot(st(f.child, x))
        if kind is Diamond:
            ys = []
            while len(ys) < f.grade:
                used += 1
                if f"y{used}" != var:
                    ys.append(f"y{used}")
            # One left-nested conjunction: distinct names, edges, the child at each name.
            parts = [FONot(Eq(y, z)) for i, y in enumerate(ys) for z in ys[i + 1:]]
            parts += [EdgeAtom(f.agent, x, y) for y in ys]
            body = parts[0]
            for part in parts[1:]:
                body = FOAnd(body, part)
            for y in ys:
                body = FOAnd(body, st(f.child, y))
            for y in reversed(ys):
                body = Exists(y, body)
            return body
        if kind is Prop:
            return PropAtom(f.name, x)
        if kind is Or:
            return FOOr(st(f.left, x), st(f.right, x))
        if kind is Top:
            return Eq(x, x)
        if kind is Bot:
            return FONot(Eq(x, x))
        raise TypeError(f"not a formula: {f!r}")

    return st(formula, var)


def _check_fo_input(m: KripkeStructure, assigned, formula: FOFormula) -> None:
    """Raise for the first unknown symbol, unassigned free variable or non-FO
    node, left to right, before anything is evaluated."""
    props, agents = m.signature.props, m.signature.agents
    for f, names, bound in _atoms(formula, frozenset(), _bind):
        if type(f) is PropAtom and f.prop not in props:
            raise SignatureError(f"unknown proposition {f.prop!r}")
        if type(f) is EdgeAtom and f.agent not in agents:
            raise SignatureError(f"unknown agent {f.agent!r}")
        for var in names:
            if var not in bound and var not in assigned:
                raise EvaluationError(f"unassigned free variable {var!r}")


def _block_plan(node: FOFormula) -> tuple:
    """How ``fo_eval`` searches the quantifier block that starts at ``node``.

    The block is the run of quantifiers of ``node``'s kind with distinct
    variables; its parts are the top-level conjuncts of the matrix under
    ``Exists`` and its disjuncts under ``Forall``.  A witness makes every
    part true under ``Exists``, and a counterexample makes every part false
    under ``Forall``, so ``want`` is the value each part must take.

    Returns ``(want, first, steps)``, where ``first`` holds the parts
    without a block variable.  Each step binds one block variable, in
    quantifier order, as ``(var, guard, checks)``: ``guard`` is ``(agent,
    z)`` when the part ``Ea(z, var)`` (``!Ea(z, var)`` under ``Forall``)
    lets ``var`` range over the successors of ``z``, which holds when ``z``
    is not bound at or after ``var`` in the block; that part then holds by
    construction and is dropped.  ``checks`` are the parts whose last block
    variable is ``var``.
    """
    kind = type(node)
    want = isinstance(node, Exists)
    variables: list[str] = []
    f = node
    while type(f) is kind and f.var not in variables:
        variables.append(f.var)
        f = f.child
    connective = FOAnd if want else FOOr
    parts = []
    stack = [f]
    while stack:
        f = stack.pop()
        if type(f) is connective:
            stack.append(f.right)
            stack.append(f.left)
        else:
            parts.append(f)
    position = {var: i for i, var in enumerate(variables)}
    guards: list = [None] * len(variables)
    checks: list[list[FOFormula]] = [[] for _ in range(len(variables) + 1)]
    for part in parts:
        edge = part if want else part.child if type(part) is FONot else None
        if type(edge) is EdgeAtom and edge.dst in position:
            i = position[edge.dst]
            if guards[i] is None and position.get(edge.src, -1) < i:
                guards[i] = (edge.agent, edge.src)
                continue
        last = max((position[v] for v in free_vars(part) if v in position), default=-1)
        checks[last + 1].append(part)
    steps = tuple(
        (var, guards[i], tuple(checks[i + 1])) for i, var in enumerate(variables)
    )
    return want, tuple(checks[0]), steps


def fo_eval(m: KripkeStructure, assignment: Mapping[str, int], formula: FOFormula) -> bool:
    """Tarskian evaluation; guarded quantifiers range over successors.

    Every proposition and agent is checked against the signature, and every
    free variable against the assignment, before evaluation starts, so
    errors do not depend on the data.  Quantifiers are evaluated a block at
    a time (``_block_plan``): within a run of ``Exists`` over a conjunction,
    a variable ``y`` with a conjunct ``Ea(z, y)`` ranges over the
    ``a``-successors of ``z`` instead of every world, and each conjunct is
    checked as soon as its last block variable is bound.  ``Forall`` is
    the dual, over a disjunction guarded by ``!Ea(z, y)``.  This is sound
    for every FO formula.
    """
    env = {var: _index(world, f"assignment {var}") for var, world in assignment.items()}
    for var, world in env.items():
        if not 0 <= world < m.world_count:
            raise EvaluationError(f"assignment {var}={world} out of range")
    _check_fo_input(m, env, formula)
    succ, valuation = m._succ, m.valuation
    everywhere = m.worlds()
    # Keyed by id(node): a dataclass hash would walk the whole subtree.
    plans: dict[int, tuple] = {}

    def ev(f: FOFormula) -> bool:
        if isinstance(f, PropAtom):
            return env[f.var] in valuation[f.prop]
        if isinstance(f, FONot):
            return not ev(f.child)
        if isinstance(f, Eq):
            return env[f.left] == env[f.right]
        if isinstance(f, EdgeAtom):
            return env[f.dst] in succ[f.agent][env[f.src]]
        if isinstance(f, FOAnd):
            return ev(f.left) and ev(f.right)
        if isinstance(f, FOOr):
            return ev(f.left) or ev(f.right)
        plan = plans.get(id(f))
        if plan is None:
            plan = plans[id(f)] = _block_plan(f)
        want, first, steps = plan
        found = all(ev(part) == want for part in first)
        if found:
            saved = [(var, env.get(var)) for var, _, _ in steps]
            found = search(steps, 0, want)
            for var, old in saved:
                if old is None:
                    env.pop(var, None)
                else:
                    env[var] = old
        return found if want else not found

    def search(steps: tuple, i: int, want: bool) -> bool:
        if i == len(steps):
            return True
        var, guard, checks = steps[i]
        worlds = everywhere if guard is None else m.successors(guard[0], env[guard[1]])
        for w in worlds:
            env[var] = w
            if all(ev(part) == want for part in checks) and search(steps, i + 1, want):
                return True
        return False

    return ev(formula)


# Tuples one rank-q type may touch before ``fo_q_equivalent`` or ``find_cap``
# gives up; checked before any type is computed.
BACK_AND_FORTH_BUDGET = 2_000_000


def _check_type_budget(structures, q: int) -> None:
    """Refuse rank-q types over the largest structure when one would touch
    more than ``BACK_AND_FORTH_BUDGET`` tuples: sum of n^r over r <= q."""
    n = max(s.structure.world_count for s in structures)
    touched, layer = 0, 1
    for _ in range(q + 1):
        touched += layer
        if touched > BACK_AND_FORTH_BUDGET:
            raise ResourceLimitError(
                f"a rank-{q} type over {n} worlds touches at least {touched} "
                f"tuples, more than the back-and-forth budget of "
                f"{BACK_AND_FORTH_BUDGET}"
            )
        layer *= n


def _fo_type(pointed: PointedStructure, q: int, table: dict) -> int:
    """The rank-q type of the pointed structure, as an id interned in ``table``.

    The type of a tuple t at rank r is the set of pairs (relation of w to t,
    rank-(r - 1) type of t + (w,)) over all worlds w; rank 0 carries
    nothing more (id -1).  The relation of w to t is w's atoms, w's self-loops per
    agent, and for each member x of t whether w == x and the edges between
    x and w in both directions per agent.  The point's own relation to the
    empty tuple is paired with its rank-q type.  Two points of structures
    typed against one table are rank-q equivalent iff their ids are equal
    (Ehrenfeucht-Fraisse).  The caller checks ``_check_type_budget`` first.
    """
    m = pointed.structure
    worlds = m.worlds()
    succs = [m._succ[agent] for agent in m.signature.agents]
    atoms = m._atom_ids()
    own = [(atoms[w], tuple(w in succ[w] for succ in succs)) for w in worlds]
    # relations[x][w]: whether w == x, and the edges x -> w and w -> x per
    # agent; built only for worlds that end a tuple of positive rank, which
    # at q = 1 is the point alone.
    relations: dict[int, list] = {}

    def type_of(t: tuple[int, ...], r: int) -> int:
        """The type id of ``t`` at rank ``r``.  An explicit stack holds, per
        open tuple, its rank and the type ids of its extensions so far, so
        q is not bounded by the recursion limit."""
        if r == 0:
            return -1
        stack: list[tuple[tuple[int, ...], int, list[int]]] = [(t, r, [])]
        while True:
            t, r, below = stack[-1]
            if r == 1:
                below = [-1] * len(worlds)
            elif len(below) < len(worlds):
                stack.append((t + (worlds[len(below)],), r - 1, []))
                continue
            for x in t:
                if x not in relations:
                    relations[x] = [
                        (x == w,) + tuple((w in succ[x], x in succ[w]) for succ in succs)
                        for w in worlds
                    ]
            rows = [relations[x] for x in t]
            key = frozenset(
                (own[w], tuple(row[w] for row in rows), below[w]) for w in worlds
            )
            stack.pop()
            type_id = table.setdefault(key, len(table))
            if not stack:
                return type_id
            stack[-1][2].append(type_id)

    top = (own[pointed.point], type_of((pointed.point,), q))
    return table.setdefault(top, len(table))


def fo_q_equivalent(
    a: PointedStructure,
    b: PointedStructure,
    q: int,
) -> bool:
    """Whether the two pointed structures have equal rank-q types, that is,
    satisfy the same FO formulas of quantifier rank at most q in the point.

    Each type is computed once (``_fo_type``) and the two are compared as
    ids of one table.  Exponential in q, hence guarded: a type touches
    sum of n^r over r <= q tuples, checked against ``BACK_AND_FORTH_BUDGET``
    before any type is computed.
    """
    a.signature._require_same(b.signature)
    if q < 0:
        raise ValueError("q must be nonnegative")
    _check_type_budget((a, b), q)
    table: dict = {}
    return _fo_type(a, q, table) == _fo_type(b, q, table)


def is_l_local(formula: FOFormula, target: PointedStructure, radius: int) -> bool:
    """Instance-level locality: truth is unchanged by restriction to the
    radius-neighbourhood of the point.  Not a decision procedure for
    locality of the formula itself.

    The formula is evaluated with its one free variable at the point;
    sentences are accepted and simply evaluated on both structures.
    """
    fv = sorted(free_vars(formula))
    if len(fv) > 1:
        raise EvaluationError(
            f"locality check needs at most one free variable, got {fv}"
        )
    m = target.structure
    assignment = {fv[0]: target.point} if fv else {}
    full = fo_eval(m, assignment, formula)
    sub = _local_part(m, target.point, radius)
    local_assignment = {fv[0]: sub.point} if fv else {}
    local = fo_eval(sub.structure, local_assignment, formula)
    return full == local


def locality_padding(
    target: PointedStructure, radius: int, q: int
) -> tuple[PointedStructure, PointedStructure]:
    """The padded pair: q spare copies of the structure and of its local part
    around both a full middle and a localized middle, pointed in the middle.

    With q = 0 this degenerates to the structure itself and its restriction.
    """
    if radius < 0 or q < 0:
        raise ValueError("radius and q must be nonnegative")
    m, w = target.structure, target.point
    local = _local_part(m, w, radius)
    spare_full = copies(m, q)
    spare_local = copies(local.structure, q)
    padded_full = disjoint_union([spare_full, m, spare_local], point_from=(1, w))
    padded_local = disjoint_union(
        [spare_full, local.structure, spare_local], point_from=(1, local.point)
    )
    assert isinstance(padded_full, PointedStructure)
    assert isinstance(padded_local, PointedStructure)
    return padded_full, padded_local


# ---------------------------------------------------------------------------
# Upgrading pipeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepReport:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class UpgradeReport:
    """Step-by-step record of the locality/unravelling agreement chain."""

    modal_formula: Formula
    fo_formula: FOFormula
    quantifier_rank: int
    radius: int
    cap: int
    cap_source: str
    fo_check_radius: int
    steps: tuple[StepReport, ...]
    notes: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return all(step.status != "fail" for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "formula": format_formula(self.modal_formula),
            "fo_formula": format_fo_formula(self.fo_formula),
            "quantifier_rank": self.quantifier_rank,
            "radius": self.radius,
            "cap": self.cap,
            "cap_source": self.cap_source,
            "fo_check_radius": self.fo_check_radius,
            "holds": self.holds,
            "steps": [
                {"name": s.name, "status": s.status, "detail": s.detail}
                for s in self.steps
            ],
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [
            f"formula: {format_formula(self.modal_formula)}",
            f"quantifier rank: {self.quantifier_rank}   radius: {self.radius}   "
            f"cap: {self.cap} ({self.cap_source})",
        ]
        for step in self.steps:
            suffix = f"  [{step.detail}]" if step.detail else ""
            lines.append(f"  {step.status.upper():7s} {step.name}{suffix}")
        lines.extend(f"note: {n}" for n in self.notes)
        lines.append(f"overall: {'PASS' if self.holds else 'FAIL'}")
        return "\n".join(lines)


def _unravel_size(pointed: PointedStructure, depth: int) -> int:
    """The world count of the unravelling to ``depth``, counted only until
    it passes ``UNRAVEL_WORLD_BOUND``."""
    m = pointed.structure
    weights = {pointed.point: 1}
    total = m.world_count
    for _ in range(depth):
        total += sum(weights.values())
        if total > UNRAVEL_WORLD_BOUND:
            break
        nxt: dict[int, int] = {}
        for u, n in weights.items():
            for agent in m.signature.agents:
                for v in m.successors(agent, u):
                    nxt[v] = nxt.get(v, 0) + n
        weights = nxt
    return total


def _require_unravel_bound(pointed: PointedStructure, depth: int, what: str) -> None:
    """Refuse, before anything is built, an unravelling to ``depth`` of more
    than ``UNRAVEL_WORLD_BOUND`` worlds; ``what`` opens the message."""
    if _unravel_size(pointed, depth) > UNRAVEL_WORLD_BOUND:
        raise ResourceLimitError(
            f"{what} to depth {depth} needs more than {UNRAVEL_WORLD_BOUND} worlds"
        )


# Cost guards of the pipeline: the radius at which the restrictions are
# compared by back-and-forth (and up to which the cap search looks), and the
# world bound of each unravelling.
FO_CHECK_RADIUS = 1
UNRAVEL_WORLD_BOUND = 20_000
# Cost guards of the cap search: the world bound of its trees, the number of
# smallest trees it enumerates, and the number of seeded random trees mixed
# in when the enumeration is cut.
CAP_SEARCH_SIZE_BOUND = 6
CAP_SEARCH_BUDGET = 5000
CAP_SEARCH_SAMPLES = 200


def upgrade_pipeline(
    modal_formula: Formula,
    a: PointedStructure,
    b: PointedStructure,
    *,
    cap: Optional[int] = None,
    radius_override: Optional[int] = None,
) -> UpgradeReport:
    """Check every instance-checkable step of the agreement chain.

    Translates the modal formula, derives the locality radius from its
    quantifier rank (2^q - 1, overridable), unravels both inputs one level
    beyond the radius, and reports: invariance of the translated formula
    under unravelling, full bisimilarity of the unravellings with their
    originals, rooted-tree-likeness and instance locality of the
    unravellings, and, when the inputs are equivalent at (cap, radius),
    agreement of the restricted tree parts and of the end-to-end truth
    values.  The bounded back-and-forth check between restrictions runs at
    radius ``FO_CHECK_RADIUS`` as a cost guard, which the report documents.
    Without a cap, ``find_cap`` searches one at radius at most
    ``FO_CHECK_RADIUS`` over trees of at most ``CAP_SEARCH_SIZE_BOUND``
    worlds.  Each unravelling is refused above ``UNRAVEL_WORLD_BOUND``
    worlds before any of this work, the cap search included, starts.
    """
    a.signature._require_same(b.signature)
    fo = standard_translation(modal_formula)
    q = quantifier_rank(fo)
    radius = (2 ** q - 1) if radius_override is None else radius_override
    notes = [f"locality radius = 2^{q} - 1 = {2 ** q - 1}"]
    if radius_override is not None:
        notes.append(f"radius overridden to {radius}")

    depth = radius + 1
    for side, name in ((a, "left"), (b, "right")):
        _require_unravel_bound(side, depth, f"unravelling the {name} input")

    if cap is None:
        search_radius = min(radius, FO_CHECK_RADIUS)
        search = find_cap(q, search_radius, a.signature, CAP_SEARCH_SIZE_BOUND)
        cap = search.cap
        cap_source = (
            f"searched at q={q}, radius={search_radius}, "
            f"size bound {CAP_SEARCH_SIZE_BOUND}"
        )
        if search_radius != radius:
            notes.append(
                f"cap search radius capped to {search_radius} as a cost guard"
            )
    else:
        cap_source = "supplied"

    a_star = unravel(a, depth)
    b_star = unravel(b, depth)

    steps: list[StepReport] = []

    def record(name: str, ok: bool, detail: str = ""):
        steps.append(StepReport(name, "pass" if ok else "fail", detail))

    var = sorted(free_vars(fo))[0]
    vals = {}
    sides = (("left", a, a_star), ("right", b, b_star))
    for name, pointed, star in sides:
        restricted = _local_part(star.structure, star.point, radius)
        for label, at in ((name, pointed), (name + "*", star), (name + " local", restricted)):
            vals[label] = fo_eval(at.structure, {var: at.point}, fo)

    for name, pointed, star in sides:
        record(
            f"unravelling is fully bisimilar ({name})",
            bool(full_graded_bisimilarity(pointed, star)),
        )
    for name, _, _ in sides:
        before, after = vals[name], vals[name + "*"]
        record(
            f"translated formula invariant under unravelling ({name})",
            before == after,
            f"{before} vs {after}",
        )
    for name, _, star in sides:
        record(
            f"unravelling rooted-tree-like ({name})",
            bool(is_rooted_treelike(star.structure, star.point, radius)),
        )
    for name, _, _ in sides:
        record(
            f"translated formula local on unravelling ({name})",
            vals[name + "*"] == vals[name + " local"],
        )

    equivalent = bool(bounded_equivalence(a, b, cap, radius))
    steps.append(
        StepReport(
            f"inputs equivalent at cap {cap}, depth {radius}",
            "pass" if equivalent else "skipped",
            "" if equivalent else "hypothesis not established; remaining steps vacuous",
        )
    )

    if equivalent:
        va, vb = vals["left local"], vals["right local"]
        record(
            "restricted tree parts agree on the translated formula",
            va == vb,
            f"{va} vs {vb}",
        )
        try:
            fo_eq = fo_q_equivalent(
                _local_part(a_star.structure, a_star.point, FO_CHECK_RADIUS),
                _local_part(b_star.structure, b_star.point, FO_CHECK_RADIUS),
                q,
            )
            record(
                f"restrictions to radius {FO_CHECK_RADIUS} agree up to "
                f"quantifier rank {q}",
                fo_eq,
            )
        except ResourceLimitError:
            steps.append(
                StepReport(
                    f"restrictions to radius {FO_CHECK_RADIUS} agree up to "
                    f"quantifier rank {q}",
                    "skipped",
                    "back-and-forth budget exceeded",
                )
            )
        record(
            "end-to-end truth values agree",
            vals["left"] == vals["right"],
            f"{vals['left']} vs {vals['right']}",
        )
    else:
        steps.append(StepReport("restricted tree parts agree on the translated formula", "skipped"))
        steps.append(StepReport("end-to-end truth values agree", "skipped"))
    notes.append(
        f"bounded back-and-forth between restrictions checked at radius "
        f"{FO_CHECK_RADIUS} (cost guard)"
    )

    return UpgradeReport(
        modal_formula,
        fo,
        q,
        radius,
        cap,
        cap_source,
        FO_CHECK_RADIUS,
        tuple(steps),
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# Empirical cap search over rooted trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapCounterexample:
    cap: int
    left: PointedStructure
    right: PointedStructure


@dataclass(frozen=True)
class CapSearchResult:
    """Least cap with no counterexample in the examined sample.

    Evidence is sample-relative: the counterexample log per smaller cap
    shows why each was rejected, and the log at the returned cap is empty.
    """

    cap: int
    quantifier_rank: int
    radius: int
    size_bound: int
    structures_examined: int
    exhaustive: bool
    counterexamples: tuple[CapCounterexample, ...]

    def to_json_dict(self) -> dict:
        return {
            "cap": self.cap,
            "quantifier_rank": self.quantifier_rank,
            "radius": self.radius,
            "size_bound": self.size_bound,
            "structures_examined": self.structures_examined,
            "exhaustive": self.exhaustive,
            "counterexamples": [
                {
                    "cap": c.cap,
                    "left": dump_structure(c.left, name="left"),
                    "right": dump_structure(c.right, name="right"),
                }
                for c in self.counterexamples
            ],
        }


def _smallest_tree_terms(sig: Signature, depth: int, size_bound: int, budget: int):
    """The first ``budget`` canonical rooted-tree terms and whether none were cut.

    A term is (root's atom id, tuple of (agent index, term)), with children
    ordered by (agent index, size, term); terms come sorted by (size, term),
    within the depth and node bounds.  The terms of each size are built once, from
    smaller ones, and enumeration stops after the first size that takes the
    count past ``budget``, so a cut never builds the larger trees it drops.
    """
    atom_options = range(1 << len(sig.props))
    # sized[d][s]: the terms of depth <= d with s nodes, sorted.
    sized: list[list[list]] = [[[]] for _ in range(depth + 1)]
    # chains[d][k]: the child tuples of k nodes in all under a depth-d root,
    # in order of their first options, beside those first options; option
    # (agent index, s, j) is the child sized[d - 1][s][j] under that agent.
    chains: list[list[tuple]] = [[([()], [])] for _ in range(depth + 1)]
    terms: list = []
    for size in range(1, size_bound + 1):
        k = size - 1
        for d in range(depth + 1):
            if k:
                seqs, firsts = [], []
                for ai in range(len(sig.agents) if d else 0):
                    for s in range(1, k + 1):
                        tail_seqs, tail_firsts = chains[d][k - s]
                        for j, child in enumerate(sized[d - 1][s]):
                            option = (ai, s, j)
                            for tail in tail_seqs[bisect.bisect_left(tail_firsts, option):]:
                                seqs.append(((ai, child),) + tail)
                                firsts.append(option)
                chains[d].append((seqs, firsts))
            sized[d].append(
                sorted((atoms, seq) for atoms in atom_options for seq in chains[d][k][0])
            )
        terms.extend(sized[depth][size])
        if len(terms) > budget:
            return terms[:budget], False
    return terms, True


def _random_tree_term(rng, sig: Signature, depth: int, size_bound: int):
    """One random canonical tree term within the depth and node bounds."""
    budget = [rng.randint(1, size_bound)]

    def grow(level: int):
        """The term of a random subtree and its size."""
        budget[0] -= 1
        atoms = rng.choice(range(1 << len(sig.props)))
        children = []
        if level > 0:
            while budget[0] > 0 and rng.random() < 0.6:
                agent = rng.randrange(len(sig.agents))
                child, size = grow(level - 1)
                children.append((agent, size, child))
        children.sort()
        term = (atoms, tuple((agent, child) for agent, _, child in children))
        return term, 1 + sum(size for _, size, _ in children)

    return grow(depth)[0]


def find_cap(q: int, radius: int, sig: Signature, size_bound: int) -> CapSearchResult:
    """Least cap making bounded equivalence refine rank-q FO equivalence on
    the examined rooted trees of depth <= radius within the size bound.

    Trees are enumerated canonically, smallest first, and each tree's
    rank-q type is computed once; for each cap, one ``refine_to`` run over
    the disjoint union of all trees groups them by their root's class.
    Past ``CAP_SEARCH_BUDGET`` trees the enumeration stops,
    ``CAP_SEARCH_SAMPLES`` random trees of a fixed seed are mixed in, and
    the result is flagged non-exhaustive.  This is empirical evidence over
    the sample only, never a proof: it reports the least cap consistent
    with the examined structures.
    """
    if q < 0 or radius < 0 or size_bound < 1:
        raise ValueError("q, radius must be nonnegative and size_bound positive")
    terms, exhausted = _smallest_tree_terms(sig, radius, size_bound, CAP_SEARCH_BUDGET)
    if not exhausted:
        rng = _random_module.Random(0)
        extra = {
            _random_tree_term(rng, sig, radius, size_bound)
            for _ in range(CAP_SEARCH_SAMPLES)
        }
        terms = terms + sorted(extra - set(terms))

    trees: dict = {}

    def tree(term) -> PointedStructure:
        built = trees.get(term)
        if built is None:
            atoms, children = term
            built = _realize(sig, atoms, [(sig.agents[ai], tree(t)) for ai, t in children])
            trees[term] = built
        return built

    structures = [tree(t) for t in terms]

    # FO classes do not depend on the cap: type each tree once.
    _check_type_budget(structures, q)
    table: dict = {}
    fo_class = [_fo_type(s, q, table) for s in structures]

    parts = [s.structure for s in structures]
    offsets = part_offsets(parts)
    arena = disjoint_union(parts)
    points = [offset + s.point for offset, s in zip(offsets, structures)]

    log: list[CapCounterexample] = []
    for cap in range(0, size_bound + 1):
        level = refine_to(arena, cap, offsets, radius).levels[radius]
        groups: dict[int, list[int]] = {}
        for idx, point in enumerate(points):
            groups.setdefault(level[point], []).append(idx)
        failures = []
        for members in groups.values():
            classes_seen: dict[int, int] = {}
            for idx in members:
                classes_seen.setdefault(fo_class[idx], idx)
            if len(classes_seen) > 1:
                picked = sorted(classes_seen.values())[:2]
                failures.append((picked[0], picked[1]))
        if not failures:
            return CapSearchResult(
                cap,
                q,
                radius,
                size_bound,
                len(structures),
                exhausted,
                tuple(log),
            )
        for i, j in failures:
            log.append(CapCounterexample(cap, structures[i], structures[j]))
    raise AssertionError(
        "no cap within the size bound separated the sample; unreachable for trees"
    )


# ---------------------------------------------------------------------------
# FO concrete syntax.
# ---------------------------------------------------------------------------


class _Text(str):
    """Text that ``format_fo_formula`` stacks to print after a child; its own
    type, so that no child, a ``str`` included, is printed as text."""


_AND, _OR, _CLOSE = _Text(" & "), _Text(" | "), _Text(")")


def format_fo_formula(formula: FOFormula) -> str:
    """The printed formula, which ``parse_fo_formula`` reads back; one
    explicit stack of nodes and the text due after them."""
    pieces: list[str] = []
    stack: list = [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is _Text:
            pieces.append(f)
        elif kind is FOAnd or kind is FOOr:
            pieces.append("(")
            stack += (_CLOSE, f.right, _AND if kind is FOAnd else _OR, f.left)
        elif kind is PropAtom:
            pieces.append(f"{f.prop}({f.var})")
        elif kind is EdgeAtom:
            pieces.append(f"E{f.agent}({f.src},{f.dst})")
        elif kind is FONot:
            pieces.append("!")
            stack.append(f.child)
        elif kind is Eq:
            pieces.append(f"{f.left} = {f.right}")
        elif kind is Exists or kind is Forall:
            pieces.append(f"{'E' if kind is Exists else 'A'} {f.var} ")
            stack.append(f.child)
        else:
            raise TypeError(f"not an FO formula: {f!r}")
    return "".join(pieces)


_FO_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[()&|!,=]|\S")
_FO_STARTS = ascii_letters + "()&|!,="


def parse_fo_formula(text: str) -> FOFormula:
    """Parse the FO concrete syntax; ``format_fo_formula`` inverts it."""
    tokens = _tokens(_FO_TOKEN, _FO_STARTS, text)
    end = len(tokens)
    pos = 0

    def fail(message: str, index: int):
        raise _parse_error(_FO_TOKEN, text, message, index)

    def take() -> str:
        nonlocal pos
        if pos == end:
            fail("unexpected end of input", pos)
        pos += 1
        return tokens[pos - 1]

    def expect(kind: str) -> None:
        token = take()
        if token != kind:
            fail(f"expected {kind!r}, got {token!r}", pos)

    def variable(message: str = "expected a variable") -> str:
        token = take()
        if token[0] not in ascii_letters:
            fail(message, pos)
        return token

    def formula() -> FOFormula:
        nonlocal pos
        token = take()
        if token == "!":
            return FONot(formula())
        if token == "(":
            left = formula()
            op = take()
            if op == ")":
                return left
            if op != "&" and op != "|":
                fail(f"expected '&', '|' or ')', got {op!r}", pos)
            right = formula()
            expect(")")
            return FOAnd(left, right) if op == "&" else FOOr(left, right)
        if token[0] in ascii_letters:
            following = tokens[pos] if pos < end else " "  # past the end: no token
            if token in ("E", "A") and following[0] in ascii_letters:
                return (Exists if token == "E" else Forall)(take(), formula())
            if following == "(":
                pos += 1
                first = variable()
                after = take()
                if after == ")":
                    return PropAtom(token, first)
                if after != ",":
                    fail(f"expected ',' or ')', got {after!r}", pos)
                second = variable()
                expect(")")
                if not token.startswith("E") or len(token) < 2:
                    fail(f"edge atoms look like E<agent>(u,v), got {token!r}", pos)
                return EdgeAtom(token[1:], first, second)
            if following == "=":
                pos += 1
                return Eq(token, variable("expected a variable after '='"))
            fail(f"unexpected name {token!r}", pos)
        fail(f"unexpected token {token!r}", pos - 1)

    result = formula()
    if pos < end:
        fail("trailing input after formula", pos)
    return result
