"""Characteristic formulas, type catalogs, normal forms, separators.

The characteristic formula of a pointed structure at a cap/depth bound pins
down its equivalence class: level 0 is the full atomic description; each
further level conjoins, per agent and per equivalence class of successors,
grade assertions up to the capped count and negated grades above it.

Successor classes alone do not pin the class down: a point whose class has
no members among some agent's successors is not mentioned at all, so e.g. a
successor-free point would get a trivially true formula.  Three completions
are exposed:

* default: one conjunct per agent asserting that every successor falls into
  one of the realized classes (a negated grade-1 modality over the negated
  disjunction of class formulas); sound and complete with no catalog;
* catalog mode: the one formula of the catalog's level at the depth that
  the target satisfies, found by model checking each in turn; it has an
  explicit negated grade-1 conjunct for every catalog type with zero
  successor count, a completion relative to the full catalog;
* bare mode (``exclude_unrealized=False``, no catalog): successor classes
  only.  It does not define the class and is exposed for comparison.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import product
from typing import Optional

from .equivalence import bounded_equivalence, refine_to
from .errors import GradedModalError, ResourceLimitError, SignatureError
from .kripke import (
    KripkeStructure,
    PointedStructure,
    Signature,
    _prop_bits,
    _realize,
    disjoint_union,
    part_offsets,
)
from .semantics import _truth, extension, satisfies
from .syntax import (
    And,
    Diamond,
    Formula,
    FragmentBound,
    Not,
    Prop,
    _require_formula,
    and_all,
    format_formula,
    format_formulas,
    in_fragment,
    nesting_depth,
    or_all,
)

# Entries ``enumerate_types`` (and ``normal_form`` without a catalog) may
# build before it refuses, checked before any entry is built.
CATALOG_BUDGET = 5000


def _atomic_description(sig: Signature, atoms: int) -> Formula:
    """The conjunction of one literal per proposition, in signature order,
    that holds exactly at the worlds with atom id ``atoms``."""
    literals: list[Formula] = []
    for prop, bit in _prop_bits(sig):
        literals.append(Prop(prop) if atoms & bit else Not(Prop(prop)))
    return and_all(literals)


def _grade_conjuncts(agent: str, capped: int, cap: int, child: Formula) -> list[Formula]:
    if capped == 0:
        # Denying grade 1 already denies every higher grade.
        return [Not(Diamond(agent, 1, child))] if cap >= 1 else []
    conjuncts: list[Formula] = []
    for k in range(1, capped + 1):
        conjuncts.append(Diamond(agent, k, child))
    for k in range(capped + 1, cap + 1):
        conjuncts.append(Not(Diamond(agent, k, child)))
    return conjuncts


def _check_bounds(cap: int, depth: int) -> None:
    """Refuse a cap or depth that is not a nonnegative int, before any work."""
    for name, value in (("cap", cap), ("depth", depth)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def characteristic_formula(
    target: PointedStructure,
    cap: int,
    depth: int,
    *,
    catalog: Optional["TypeCatalog"] = None,
    exclude_unrealized: bool = True,
) -> Formula:
    """The formula defining the cap/depth equivalence class of the target.

    Conjuncts are deduplicated per equivalence class of successors, one
    canonical representative per class.  See the module docstring for the
    three completion modes.
    """
    _check_bounds(cap, depth)
    m = target.structure
    sig = m.signature
    if catalog is not None:
        if not exclude_unrealized:
            raise ValueError("catalog mode and bare mode (exclude_unrealized=False) exclude each other")
        if catalog.signature != sig:
            raise SignatureError("catalog signature differs from the structure's")
        if catalog.cap != cap or catalog.depth < depth:
            raise ValueError("catalog bounds do not cover the requested bounds")
        # The level's formulas partition the signature's pointed structures;
        # they share their lower levels, so one memo serves the whole scan.
        memo: dict = {}
        return next(f for f in catalog.level_formulas[depth] if _truth(target, f, memo))

    history = refine_to(m, cap, depth=depth)

    memo: dict[tuple[int, int], Formula] = {}
    # Per level, the least world of each class, indexed when the level is first read.
    firsts: dict[int, dict[int, int]] = {}

    def class_formula(level: int, cls: int) -> Formula:
        key = (level, cls)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if level not in firsts:
            labels = history.levels[level]
            firsts[level] = {labels[w]: w for w in reversed(m.worlds())}
        rep = firsts[level][cls]
        if level == 0:
            formula = _atomic_description(sig, m._atom_ids()[rep])
        else:
            conjuncts = [class_formula(level - 1, history.levels[level - 1][rep])]
            vector = history.count_vector(rep, level - 1)
            for agent in sig.agents:
                realized = sorted(vector[agent])
                for child_cls in realized:
                    child = class_formula(level - 1, child_cls)
                    capped = vector[agent][child_cls]
                    conjuncts.extend(_grade_conjuncts(agent, capped, cap, child))
                if exclude_unrealized and cap >= 1:
                    body = or_all([class_formula(level - 1, c) for c in realized])
                    conjuncts.append(Not(Diamond(agent, 1, Not(body))))
            formula = and_all(conjuncts)
        memo[key] = formula
        return formula

    return class_formula(depth, history.levels[depth][target.point])


@dataclass(frozen=True)
class TypeEntry:
    """A catalog type: its id (its rank in type order), its defining formula
    and its canonical model.  The model is built by ``_build``, a function of
    no arguments, when ``model`` is first read, and then kept; entries
    compare, hash and print by id and formula alone."""

    type_id: int
    formula: Formula
    _build: Callable[[], PointedStructure] = field(repr=False, compare=False)

    @cached_property
    def model(self) -> PointedStructure:
        return self._build()


@dataclass(frozen=True)
class _Repeated(Sequence):
    """``length`` references to one item, which is stored once."""

    item: tuple
    length: int

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int):
        if not -self.length <= index < self.length:
            raise IndexError("index out of range")
        return self.item


@dataclass(frozen=True)
class TypeCatalog:
    """All equivalence types at a bound, with defining formulas and models.

    Entries are pairwise inequivalent and every pointed structure of the
    signature satisfies exactly one entry formula at the bound.
    ``level_formulas[d]`` lists the type formulas at every depth d up to the
    bound, in type order; each level's formulas also partition the pointed
    structures, and back the catalog completion mode of
    ``characteristic_formula``.  Without grades or agents it is one level,
    stored once and repeated.

    ``_arena`` is the structure that ``normal_form`` evaluates on, with the
    world of each entry's type in it, in entry order.  A catalog built
    without it derives it on first use from the disjoint union of the entry
    models.
    """

    signature: Signature
    cap: int
    depth: int
    entries: tuple[TypeEntry, ...]
    level_formulas: Sequence[tuple[Formula, ...]]
    _arena: Optional[tuple[KripkeStructure, tuple[int, ...]]] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def _evaluation_arena(self) -> tuple[KripkeStructure, tuple[int, ...]]:
        if self._arena is None:
            models = [e.model for e in self.entries]
            parts = [p.structure for p in models]
            roots = tuple(offset + p.point for offset, p in zip(part_offsets(parts), models))
            object.__setattr__(self, "_arena", (disjoint_union(parts), roots))
        return self._arena

    def to_json_dict(self) -> dict:
        from .kripke import dump_structure

        return {
            "cap": self.cap,
            "depth": self.depth,
            "agents": list(self.signature.agents),
            "props": list(self.signature.props),
            "entries": [
                {
                    "type_id": e.type_id,
                    "formula": format_formula(e.formula),
                    "model": dump_structure(e.model, name=f"type{e.type_id}"),
                }
                for e in self.entries
            ],
        }


def catalog_size(sig: Signature, cap: int, depth: int) -> int:
    """Number of types at the bound, computed without materializing them:
    the exact size when it is at most ``CATALOG_BUDGET``, else
    ``CATALOG_BUDGET + 1``.

    The size is computed level by level, but only while it stays near the
    budget: the exact size can have far more digits than any machine holds.
    """
    _check_bounds(cap, depth)
    base = 2 ** len(sig.props)
    count = base
    # Without grades or agents, every level holds the atomic types.
    for _ in range(depth if cap and sig.agents else 0):
        exponent = len(sig.agents) * count
        # (cap + 1) ** exponent is at least 2 ** (exponent * (bits - 1)).  A
        # level past the budget has either an exponent past it, or the next
        # level holds base types again.
        if exponent * ((cap + 1).bit_length() - 1) >= CATALOG_BUDGET.bit_length():
            return CATALOG_BUDGET + 1
        count = base * (cap + 1) ** exponent
    return min(count, CATALOG_BUDGET + 1)


def _arena(sig: Signature, atoms_of: list[int], succ: list[list[tuple[int, ...]]]) -> KripkeStructure:
    """The structure whose world w has the atom id ``atoms_of[w]`` and, per
    agent in signature order, the sorted successors ``succ[agent][w]``."""
    valuation = {prop: [w for w, atoms in enumerate(atoms_of) if atoms & bit] for prop, bit in _prop_bits(sig)}
    return KripkeStructure._assemble(sig, len(atoms_of), valuation, dict(zip(sig.agents, succ)))


def enumerate_types(
    sig: Signature,
    cap: int,
    depth: int,
) -> TypeCatalog:
    """Materialize every type at the bound with a formula and a canonical model.

    The bounds, then the catalog size against ``CATALOG_BUDGET``, are checked
    up front, before any type is built.  Each level is ranked on one
    arena: ``cap`` copies of the root of every type of the lower levels,
    each copy's successors being the copies one level down, followed by one
    root per candidate type, whose successors per agent are the first n
    copies of each type one level down, n being the capped count.  Every
    world unravels to the canonical tree of its type, so one ``refine_to``
    ranks the types as it would rank the trees: a new root's class one level
    down names the previous type its formula starts with, and the new types
    are ordered by their class ids; the new roots' classes must be pairwise
    distinct.  An entry's model, the tree with exactly n children per child
    type, is built when it is first read; the last level's arena is the one
    ``normal_form`` evaluates on.
    """
    _check_bounds(cap, depth)
    if catalog_size(sig, cap, depth) > CATALOG_BUDGET:
        raise ResourceLimitError(
            f"catalog would hold more than {CATALOG_BUDGET} entries, the guard's limit"
        )

    atom_options = range(1 << len(sig.props))
    formulas = [_atomic_description(sig, atoms) for atoms in atom_options]
    level_formulas = [tuple(formulas)]
    # specs[level][t]: type t's atom id, per agent its count of each type one
    # level down, and per agent its successors in the arena.
    specs = [[(atoms, (), [()] * len(sig.agents)) for atoms in atom_options]]
    arena = _arena(sig, list(atom_options), [[()] * len(atom_options) for _ in sig.agents])
    roots = tuple(atom_options)
    # The arena's worlds below the roots being ranked, as atom ids and per-agent
    # successors: ``cap`` copies of every type of each level ranked so far.
    atoms_of: list[int] = []
    succ: list[list[tuple[int, ...]]] = [[] for _ in sig.agents]
    graded = bool(cap and sig.agents)
    for level in range(1, depth + 1 if graded else 1):
        base = len(atoms_of)
        for atoms, _, outs in specs[-1]:
            atoms_of += [atoms] * cap
            for column, vs in zip(succ, outs):
                column += [vs] * cap
        top = len(atoms_of)
        count_choices = list(product(range(cap + 1), repeat=len(formulas)))
        # options[agent][type][n]: the copies and grade conjuncts of n such successors.
        options = [[[(range(base + t * cap, base + t * cap + n), _grade_conjuncts(agent, n, cap, formula))
                     for n in range(cap + 1)] for t, formula in enumerate(formulas)] for agent in sig.agents]
        candidates, grades = [], []
        for atoms in atom_options:
            for combo in product(count_choices, repeat=len(sig.agents)):
                outs, conjuncts = [], []
                for per_type, counts in zip(options, combo):
                    vs: list[int] = []
                    for choices, n in zip(per_type, counts):
                        vs += choices[n][0]
                        conjuncts += choices[n][1]
                    outs.append(tuple(vs))
                candidates.append((atoms, combo, outs))
                grades.append(conjuncts)
        arena = _arena(
            sig,
            atoms_of + [atoms for atoms, _, _ in candidates],
            [column + [outs[k] for _, _, outs in candidates] for k, column in enumerate(succ)],
        )
        history = refine_to(arena, cap, depth=level)
        below, here = history.levels[level - 1], history.levels[level]
        previous = {below[base + t * cap]: t for t in range(len(formulas))}
        new = sorted((here[top + i], below[top + i], i) for i in range(len(candidates)))
        if len({cls for cls, _, _ in new}) != len(new):
            raise GradedModalError("catalog entries are not pairwise inequivalent")
        # Candidates in enumeration order share long prefixes of conjuncts,
        # so each conjunction extends the longest prefix of the one before.
        conjunctions, partial_ands, last = [], [], []
        for i, conjuncts in enumerate(grades):
            conjuncts.insert(0, formulas[previous[below[top + i]]])
            shared = 0
            for f, g in zip(conjuncts, last):
                if f is not g:
                    break
                shared += 1
            del partial_ands[shared:]
            for f in conjuncts[shared:]:
                partial_ands.append(And(partial_ands[-1], f) if partial_ands else f)
            conjunctions.append(partial_ands[-1])
            last = conjuncts
        formulas = [conjunctions[i] for _, _, i in new]
        specs.append([candidates[i] for _, _, i in new])
        roots = tuple(top + i for _, _, i in new)
        level_formulas.append(tuple(formulas))

    @cache
    def tree(level: int, t: int) -> PointedStructure:
        atoms, combo, _ = specs[level][t]
        children = [(agent, tree(level - 1, s)) for agent, counts in zip(sig.agents, combo)
                    for s, n in enumerate(counts) for _ in range(n)]
        return _realize(sig, atoms, children)

    last = len(specs) - 1
    entries = tuple(TypeEntry(t, f, partial(tree, last, t)) for t, f in enumerate(formulas))
    # Without grades or agents, every level repeats level 0.
    levels = tuple(level_formulas) if graded else _Repeated(level_formulas[0], depth + 1)
    return TypeCatalog(sig, cap, depth, entries, levels, (arena, roots))


def normal_form(
    formula: Formula,
    cap: int,
    depth: int,
    *,
    signature: Optional[Signature] = None,
    catalog: Optional[TypeCatalog] = None,
) -> Formula:
    """Equivalent disjunction of the type formulas whose models satisfy it.

    The empty disjunction is ``false``.  Requires the input to lie inside
    the cap/depth fragment.  Without an explicit signature or catalog, the
    signature is inferred from the symbols occurring in the formula.  A
    catalog must have been built at exactly the cap and depth given.  The
    formula is evaluated by one ``extension`` pass over the catalog's arena,
    in which every type's world satisfies what its model's point does, so
    no entry model is built.
    """
    _check_bounds(cap, depth)
    if not in_fragment(formula, FragmentBound(cap, depth)):
        raise ValueError("formula lies outside the requested fragment")
    if catalog is None:
        if signature is None:
            signature = inferred_signature(formula)
        catalog = enumerate_types(signature, cap, depth)
    elif catalog.cap != cap or catalog.depth != depth:
        raise ValueError("catalog bounds differ from the requested bounds")
    arena, roots = catalog._evaluation_arena()
    holds = extension(arena, formula)
    return or_all([e.formula for e, root in zip(catalog.entries, roots) if root in holds])


def inferred_signature(formula: Formula) -> Signature:
    """The minimal signature carrying the formula's agents and propositions."""
    _require_formula(formula)
    return Signature(tuple(sorted(formula.agents)), tuple(sorted(formula.props)))


def _conjuncts(formula: Formula) -> list[Formula]:
    """The maximal non-conjunction subformulas under the top ``And``s, left to right."""
    conjuncts = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.append(f.right)
            stack.append(f.left)
        else:
            conjuncts.append(f)
    return conjuncts


def distinguishing_formula(
    a: PointedStructure, b: PointedStructure, cap: int, depth: int
) -> Optional[Formula]:
    """A fragment formula true at ``a`` and false at ``b``, if one exists.

    Returns None when the points are equivalent at the bound.  Otherwise
    the characteristic formula of ``a`` is pruned down greedily: negated
    conjuncts are preferred, deeper conjuncts first, ties broken by the
    printed form, and the first conjunct that ``b`` falsifies wins.
    """
    _check_bounds(cap, depth)
    if bounded_equivalence(a, b, cap, depth):
        return None
    conjuncts = _conjuncts(characteristic_formula(a, cap, depth))
    printed = dict(zip(conjuncts, format_formulas(conjuncts)))
    candidates = sorted(
        conjuncts,
        key=lambda f: (
            0 if isinstance(f, Not) else 1,
            -nesting_depth(f),
            printed[f],
        ),
    )
    for conjunct in candidates:
        if not satisfies(b, conjunct):
            return conjunct
    raise AssertionError("inequivalent points both satisfy the characteristic formula")
