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
* bare mode (``exclude_unrealized=False``): successor classes only.  This
  variant does not define the class and is exposed for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .equivalence import bounded_equivalence, refine_to
from .errors import GradedModalError, ResourceLimitError, SignatureError
from .kripke import PointedStructure, Signature, _realize, disjoint_union, part_offsets
from .semantics import satisfies
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
    in_fragment,
    nesting_depth,
    or_all,
)

# Entries ``enumerate_types`` (and ``normal_form`` without a catalog) may
# build before it refuses, checked before any entry is built.
CATALOG_BUDGET = 5000


def _atomic_description(sig: Signature, atoms: tuple[bool, ...]) -> Formula:
    literals: list[Formula] = []
    for prop, holds in zip(sig.props, atoms):
        literals.append(Prop(prop) if holds else Not(Prop(prop)))
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
    if cap < 0 or depth < 0:
        raise ValueError("cap and depth must be nonnegative")
    m = target.structure
    sig = m.signature
    if catalog is not None:
        if catalog.signature != sig:
            raise SignatureError("catalog signature differs from the structure's")
        if catalog.cap != cap or catalog.depth < depth:
            raise ValueError("catalog bounds do not cover the requested bounds")
        # The level's formulas partition the signature's pointed structures.
        return next(f for f in catalog.level_formulas[depth] if satisfies(target, f))

    history = refine_to(m, cap, depth=depth)

    memo: dict[tuple[int, int], Formula] = {}

    def class_formula(level: int, cls: int) -> Formula:
        key = (level, cls)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rep = min(w for w in m.worlds() if history.levels[level][w] == cls)
        atoms = tuple(rep in m.valuation[p] for p in sig.props)
        if level == 0:
            formula = _atomic_description(sig, atoms)
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
    type_id: int
    formula: Formula
    model: PointedStructure


@dataclass(frozen=True)
class TypeCatalog:
    """All equivalence types at a bound, with defining formulas and models.

    Entries are pairwise inequivalent and every pointed structure of the
    signature satisfies exactly one entry formula at the bound.
    ``level_formulas[d]`` lists the type formulas at every depth d up to the
    bound, in type order; each level's formulas also partition the pointed
    structures, and back the catalog completion mode of
    ``characteristic_formula``.
    """

    signature: Signature
    cap: int
    depth: int
    entries: tuple[TypeEntry, ...]
    level_formulas: tuple[tuple[Formula, ...], ...]

    def __len__(self) -> int:
        return len(self.entries)

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
    """Number of types at the bound, computable without materializing them."""
    count = 2 ** len(sig.props)
    base = 2 ** len(sig.props)
    for _ in range(depth):
        count = base * (cap + 1) ** (len(sig.agents) * count)
    return count


def _size_exceeds(sig: Signature, cap: int, depth: int, limit: int) -> bool:
    """Whether the catalog at the bound holds more than ``limit`` types.

    The size is computed as in ``catalog_size``, level by level, but only
    while it stays near ``limit``: the exact size can have far more digits
    than any machine holds.
    """
    base = 2 ** len(sig.props)
    count = base
    for _ in range(depth):
        if count > limit:
            return True
        exponent = len(sig.agents) * count
        # (cap + 1) ** exponent is at least 2 ** (exponent * (bits - 1)).
        if exponent * ((cap + 1).bit_length() - 1) >= limit.bit_length():
            return True
        count = base * (cap + 1) ** exponent
    return count > limit


def enumerate_types(
    sig: Signature,
    cap: int,
    depth: int,
) -> TypeCatalog:
    """Materialize every type at the bound with a formula and a canonical model.

    The catalog size is checked against ``CATALOG_BUDGET`` up front, before
    any materialization.  Canonical models realize a type as a tree with exactly
    n children per child type, n being the capped count.  Each level refines
    the previous level's models together with the new ones: a new root's
    class one level down names the previous type its formula starts with,
    and the new types are ordered by their class ids, which rank the
    refinement keys; the new roots' classes must be pairwise distinct.
    """
    if cap < 0 or depth < 0:
        raise ValueError("cap and depth must be nonnegative")
    if _size_exceeds(sig, cap, depth, CATALOG_BUDGET):
        raise ResourceLimitError(
            f"catalog would hold more than {CATALOG_BUDGET} entries, the guard's limit"
        )

    atom_options = sorted(product((False, True), repeat=len(sig.props)))
    models = [_realize(sig, atoms, []) for atoms in atom_options]
    formulas = [_atomic_description(sig, atoms) for atoms in atom_options]
    level_formulas = [tuple(formulas)]
    for level in range(1, depth + 1):
        count_choices = list(product(range(cap + 1), repeat=len(models)))
        built, grades = [], []
        for atoms in atom_options:
            for combo in product(count_choices, repeat=len(sig.agents)):
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

    entries = tuple(TypeEntry(i, f, model) for i, (f, model) in enumerate(zip(formulas, models)))
    return TypeCatalog(sig, cap, depth, entries, tuple(level_formulas))


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
    catalog must have been built at exactly the cap and depth given.
    """
    if not in_fragment(formula, FragmentBound(cap, depth)):
        raise ValueError("formula lies outside the requested fragment")
    if catalog is None:
        if signature is None:
            signature = inferred_signature(formula)
        catalog = enumerate_types(signature, cap, depth)
    elif catalog.cap != cap or catalog.depth != depth:
        raise ValueError("catalog bounds differ from the requested bounds")
    disjuncts = [e.formula for e in catalog.entries if satisfies(e.model, formula)]
    return or_all(disjuncts)


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
