"""Graded modal logic over finite Kripke structures.

Model checking, counting-bisimulation equivalences (full, depth-bounded,
cost-bounded), the explicit bounded game with strategy certificates,
characteristic formulas and type catalogs, and the first-order bridge
(standard translation, locality, padding, the upgrading pipeline).
"""

from .errors import (
    EvaluationError,
    GradedModalError,
    ParseError,
    ResourceLimitError,
    SignatureError,
)
from .kripke import (
    KripkeStructure,
    PointedStructure,
    Signature,
    TreelikeReport,
    copies,
    disjoint_union,
    dump_structure,
    is_rooted_treelike,
    load_structure,
    neighborhood,
    restrict,
    unravel,
)
from .syntax import (
    And,
    Bot,
    Diamond,
    Formula,
    FragmentBound,
    Not,
    Or,
    Prop,
    Top,
    counting_rank,
    format_formula,
    format_formulas,
    in_fragment,
    nesting_depth,
    parse_formula,
)
from .semantics import extension, satisfies
from .equivalence import (
    ColorHistory,
    EquivalenceResult,
    atomic_history,
    bounded_equivalence,
    full_graded_bisimilarity,
    refine_to,
    relation_is_graded_bisimulation,
)
from .game import (
    DuplicatorMove,
    GamePosition,
    GameResult,
    SpoilerMove,
    SpoilerPlay,
    solve_game,
    verify_strategy,
)
from .charform import (
    TypeCatalog,
    catalog_size,
    characteristic_formula,
    distinguishing_formula,
    enumerate_types,
    normal_form,
)
from .folink import (
    FOFormula,
    find_cap,
    fo_eval,
    fo_q_equivalent,
    format_fo_formula,
    is_l_local,
    locality_padding,
    parse_fo_formula,
    quantifier_rank,
    standard_translation,
    upgrade_pipeline,
)

__version__ = "0.1.0"
