"""Command-line front end.

Every subcommand reads structures from files in the text format and
formulas from the command line.  Each handler returns ``(verdict, payload,
text)`` and prints nothing; ``run`` alone writes the result: one JSON
document (``payload``) with --json, else ``text``.  Exit codes: 0 =
true/equivalent, 1 = false/inequivalent, 2 = usage or parse error, 3 =
resource guard, 4 = internal error.  Commands that give no verdict return
True, so they exit 0 on success.  ``run`` raises any other exception;
``main``, the process boundary, maps recursion and memory exhaustion to 3
and everything else to 4, so no crash exits with a verdict's code.  All
error text goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import charform, equivalence, folink, game, kripke, semantics, syntax
from .errors import GradedModalError, ParseError, ResourceLimitError

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return kripke.load_structure(text)


def _load_pointed(path: str) -> kripke.PointedStructure:
    value = _load(path)
    if not isinstance(value, kripke.PointedStructure):
        raise ParseError(f"{path} declares no point; add a 'point:' line")
    return value


def _signature_from(args) -> kripke.Signature:
    agents = tuple(args.agents.split(",")) if args.agents else ()
    props = tuple(args.props.split(",")) if args.props else ()
    return kripke.Signature(agents, props)


def _cmd_mc(args) -> tuple[bool, dict, str]:
    target = _load_pointed(args.structure)
    formula = syntax.parse_formula(args.formula)
    verdict = semantics.satisfies(target, formula)
    payload = {"command": "mc", "formula": args.formula, "verdict": verdict}
    return verdict, payload, "true" if verdict else "false"


def _cmd_equiv(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    result = equivalence.bounded_equivalence(a, b, args.c, args.l)
    payload = {
        "command": "equiv",
        "cap": args.c,
        "depth": args.l,
        "equivalent": result.equivalent,
        "history": result.history.to_json_dict(),
    }
    if result.equivalent:
        return True, payload, "equivalent"
    separator = charform.distinguishing_formula(a, b, args.c, args.l)
    printed = syntax.format_formula(separator)
    payload["distinguishing_formula"] = printed
    payload["holds_in"] = "left"
    return False, payload, f"inequivalent; distinguished by {printed}"


def _cmd_bisim(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    result = equivalence.full_graded_bisimilarity(a, b)
    payload = {
        "command": "bisim",
        "equivalent": result.equivalent,
        "history": result.history.to_json_dict(),
    }
    text = "bisimilar" if result.equivalent else "not bisimilar"
    return result.equivalent, payload, text


def _cmd_game(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    result = game.solve_game(a, b, args.c, args.l)
    trace = result.to_json_dict()
    payload = {
        "command": "game",
        "cap": args.c,
        "rounds": args.l,
        "winner": result.winner,
        "trace": trace,
    }
    if args.trace:
        text = json.dumps(trace, indent=2, sort_keys=True)
    else:
        text = f"winner: {result.winner}"
    return result.winner == game.DUPLICATOR, payload, text


def _cmd_char(args) -> tuple[bool, dict, str]:
    target = _load_pointed(args.structure)
    catalog = None
    if args.catalog:
        catalog = charform.enumerate_types(target.signature, args.c, args.l)
    formula = charform.characteristic_formula(
        target,
        args.c,
        args.l,
        catalog=catalog,
        exclude_unrealized=not args.literal_chi,
    )
    printed = syntax.format_formula(formula)
    payload = {"command": "char", "cap": args.c, "depth": args.l, "formula": printed}
    return True, payload, printed


def _cmd_types(args) -> tuple[bool, dict, str]:
    sig = _signature_from(args)
    catalog = charform.enumerate_types(sig, args.c, args.l)
    payload = catalog.to_json_dict()
    lines = [f"{len(catalog)} types at cap {args.c}, depth {args.l}"]
    lines.extend(f"  type {e['type_id']}: {e['formula']}" for e in payload["entries"])
    return True, payload, "\n".join(lines)


def _cmd_nf(args) -> tuple[bool, dict, str]:
    formula = syntax.parse_formula(args.formula)
    signature = _signature_from(args) if (args.agents or args.props) else None
    result = charform.normal_form(formula, args.c, args.l, signature=signature)
    printed = syntax.format_formula(result)
    payload = {"command": "nf", "cap": args.c, "depth": args.l, "formula": printed}
    return True, payload, printed


def _cmd_distinguish(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    separator = charform.distinguishing_formula(a, b, args.c, args.l)
    if separator is None:
        return True, {"command": "distinguish", "equivalent": True}, "equivalent"
    printed = syntax.format_formula(separator)
    payload = {
        "command": "distinguish",
        "equivalent": False,
        "formula": printed,
        "holds_in": "left",
    }
    return False, payload, printed


def _cmd_unravel(args) -> tuple[bool, dict, str]:
    target = _load_pointed(args.structure)
    folink._require_unravel_bound(target, args.depth, "unravelling")
    result = kripke.unravel(target, args.depth)
    text = kripke.dump_structure(result, name="unravelled")
    payload = {"command": "unravel", "depth": args.depth, "structure": text}
    return True, payload, text.rstrip("\n")


def _cmd_restrict(args) -> tuple[bool, dict, str]:
    value = _load(args.structure)
    m = value.structure if isinstance(value, kripke.PointedStructure) else value
    if args.worlds:
        result = kripke.restrict(m, [int(w) for w in args.worlds.split(",")], point=args.around)
    elif args.around is None:
        raise ParseError("restrict needs --worlds or --around/--radius")
    else:
        result = kripke._local_part(m, args.around, args.radius)
    text = kripke.dump_structure(result, name="restricted")
    return True, {"command": "restrict", "structure": text}, text.rstrip("\n")


def _cmd_treelike(args) -> tuple[bool, dict, str]:
    value = _load(args.structure)
    if isinstance(value, kripke.PointedStructure):
        m, root = value.structure, value.point
    else:
        m, root = value, None
    if args.world is not None:
        root = args.world
    if root is None:
        raise ParseError("treelike needs a pointed structure or --world")
    report = kripke.is_rooted_treelike(m, root, args.l)
    payload = {
        "command": "treelike",
        "radius": args.l,
        "ok": report.ok,
        "failed": report.failed,
        "witness": list(report.witness) if report.witness is not None else None,
    }
    if report.ok:
        return True, payload, "rooted-tree-like"
    return False, payload, f"not tree-like: {report.failed} (witness {report.witness})"


def _cmd_translate(args) -> tuple[bool, dict, str]:
    formula = syntax.parse_formula(args.formula)
    fo = folink.standard_translation(formula, args.var)
    printed = folink.format_fo_formula(fo)
    payload = {
        "command": "translate",
        "fo_formula": printed,
        "quantifier_rank": folink.quantifier_rank(fo),
    }
    return True, payload, printed


def _parse_assignment(text: Optional[str]) -> dict[str, int]:
    if not text:
        return {}
    assignment = {}
    for item in text.split(","):
        var, _, world = item.partition("=")
        if not var or not world:
            raise ParseError(f"bad assignment item {item!r}; use var=world")
        var = var.strip()
        if var in assignment:
            raise ParseError(f"variable {var!r} is assigned twice")
        try:
            assignment[var] = int(world)
        except ValueError:
            raise ParseError(f"bad world number in {item!r}")
    return assignment


def _cmd_fo_eval(args) -> tuple[bool, dict, str]:
    value = _load(args.structure)
    fo = folink.parse_fo_formula(args.formula)
    assignment = _parse_assignment(args.assign)
    if isinstance(value, kripke.PointedStructure):
        m = value.structure
        for var in sorted(folink.free_vars(fo)):
            assignment.setdefault(var, value.point)
    else:
        m = value
    verdict = folink.fo_eval(m, assignment, fo)
    payload = {"command": "fo-eval", "verdict": verdict, "assignment": assignment}
    return verdict, payload, "true" if verdict else "false"


def _cmd_fo_equiv(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    verdict = folink.fo_q_equivalent(a, b, args.q)
    payload = {"command": "fo-equiv", "q": args.q, "equivalent": verdict}
    return verdict, payload, "equivalent" if verdict else "inequivalent"


def _cmd_local(args) -> tuple[bool, dict, str]:
    target = _load_pointed(args.structure)
    fo = folink.parse_fo_formula(args.formula)
    verdict = folink.is_l_local(fo, target, args.l)
    payload = {"command": "local", "radius": args.l, "local": verdict}
    return verdict, payload, "local" if verdict else "not local"


def _cmd_pad(args) -> tuple[bool, dict, str]:
    target = _load_pointed(args.structure)
    padded_full, padded_local = folink.locality_padding(target, args.l, args.q)
    full_text = kripke.dump_structure(padded_full, name="padded_full")
    local_text = kripke.dump_structure(padded_local, name="padded_local")
    payload = {"command": "pad", "full": full_text, "local": local_text}
    return True, payload, full_text + "\n" + local_text.rstrip("\n")


def _cmd_upgrade(args) -> tuple[bool, dict, str]:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    formula = syntax.parse_formula(args.formula)
    report = folink.upgrade_pipeline(
        formula,
        a,
        b,
        cap=args.c,
        radius_override=args.l,
    )
    return report.holds, report.to_json_dict(), report.render_text()


def _cmd_find_c(args) -> tuple[bool, dict, str]:
    sig = _signature_from(args)
    result = folink.find_cap(args.q, args.l, sig, args.size_bound)
    scope = "exhaustive" if result.exhaustive else "sampled"
    text = (
        f"c = {result.cap} over {result.structures_examined} structures "
        f"({scope}); {len(result.counterexamples)} counterexamples below it"
    )
    return True, result.to_json_dict(), text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedmodal",
        description="Graded modal logic over finite Kripke structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=func.__name__)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    def pair(p):
        p.add_argument("left")
        p.add_argument("right")
        return p

    def bounds(p):
        p.add_argument("--c", type=int, required=True, help="counting cap")
        p.add_argument("--l", type=int, required=True, help="round/nesting depth")

    p = add("mc", _cmd_mc, "model check a formula at a pointed structure")
    p.add_argument("structure")
    p.add_argument("formula")

    p = pair(add("equiv", _cmd_equiv, "cost-bounded equivalence of two pointed structures"))
    bounds(p)

    pair(add("bisim", _cmd_bisim, "full counting bisimilarity"))

    p = pair(add("game", _cmd_game, "solve the bounded game explicitly"))
    bounds(p)
    p.add_argument("--trace", action="store_true", help="print the strategy as JSON")

    p = add("char", _cmd_char, "characteristic formula of a pointed structure")
    p.add_argument("structure")
    bounds(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--catalog", action="store_true", help="complete against a full type catalog")
    mode.add_argument("--literal-chi", action="store_true", help="successor classes only, no completion")

    p = add("types", _cmd_types, "enumerate all types at a bound")
    p.add_argument("--agents", default="", help="comma-separated agent names")
    p.add_argument("--props", default="", help="comma-separated proposition names")
    bounds(p)

    p = add("nf", _cmd_nf, "normal form of a formula at a bound")
    p.add_argument("formula")
    bounds(p)
    p.add_argument("--agents", default="")
    p.add_argument("--props", default="")

    p = pair(add("distinguish", _cmd_distinguish, "formula separating two pointed structures"))
    bounds(p)

    p = add("unravel", _cmd_unravel, "partial tree unravelling with continuation copy")
    p.add_argument("structure")
    p.add_argument("--depth", type=int, required=True)

    p = add("restrict", _cmd_restrict, "induced substructure")
    p.add_argument("structure")
    p.add_argument("--worlds", default="", help="comma-separated world list")
    p.add_argument("--around", type=int, default=None, help="restrict to a neighbourhood of this world")
    p.add_argument("--radius", type=int, default=0)

    p = add("treelike", _cmd_treelike, "rooted-tree-likeness check")
    p.add_argument("structure")
    p.add_argument("--world", type=int, default=None)
    p.add_argument("--l", type=int, required=True, help="radius")

    p = add("translate", _cmd_translate, "standard translation into FO")
    p.add_argument("formula")
    p.add_argument("--var", default="x")

    p = add("fo-eval", _cmd_fo_eval, "evaluate an FO formula")
    p.add_argument("structure")
    p.add_argument("formula")
    p.add_argument("--assign", default="", help="e.g. x=0,y=2; the point fills missing vars")

    p = pair(add("fo-equiv", _cmd_fo_equiv, "rank-bounded FO equivalence"))
    p.add_argument("--q", type=int, required=True)

    p = add("local", _cmd_local, "instance-level locality of an FO formula")
    p.add_argument("formula")
    p.add_argument("structure")
    p.add_argument("--l", type=int, required=True, help="radius")

    p = add("pad", _cmd_pad, "locality padding construction")
    p.add_argument("structure")
    p.add_argument("--l", type=int, required=True, help="radius")
    p.add_argument("--q", type=int, required=True)

    p = add("upgrade", _cmd_upgrade, "run the locality/upgrading pipeline")
    p.add_argument("formula")
    pair(p)
    p.add_argument("--c", type=int, default=None, help="counting cap (searched when omitted)")
    p.add_argument("--l", type=int, default=None, help="override the derived radius")

    p = add("find-c", _cmd_find_c, "empirical least cap for an FO rank over trees")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True, help="tree depth/radius")
    p.add_argument("--agents", default="")
    p.add_argument("--props", default="")
    p.add_argument("--size-bound", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code.

    The parser is built once per process, on the first call.  A subcommand
    names its handler, which is looked up in this module's namespace by
    that name on every call, so a handler replaced after the parser was
    built is the one that runs.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_TRUE
    try:
        verdict, payload, text = globals()[args.handler](args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GradedModalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return EXIT_TRUE if verdict else EXIT_FALSE


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except (RecursionError, MemoryError) as exc:
        print(f"resource guard: {exc!r}", file=sys.stderr)
        code = EXIT_GUARD
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
