"""Command-line front end.

Every subcommand reads structures from files in the text format and
formulas from the command line.  Exit codes: 0 = true/equivalent,
1 = false/inequivalent, 2 = usage or parse error, 3 = resource guard.
All error text goes to stderr; with --json a single JSON document goes to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import charform, equivalence, folink, game, kripke, semantics, syntax
from .errors import GradedModalError, ParseError, ResourceLimitError

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


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


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _signature_from(args) -> kripke.Signature:
    agents = tuple(args.agents.split(",")) if args.agents else ()
    props = tuple(args.props.split(",")) if args.props else ()
    return kripke.Signature(agents, props)


def _cmd_mc(args) -> int:
    target = _load_pointed(args.structure)
    formula = syntax.parse_formula(args.formula)
    verdict = semantics.satisfies(target, formula)
    _emit(
        args,
        {"command": "mc", "formula": args.formula, "verdict": verdict},
        "true" if verdict else "false",
    )
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_equiv(args) -> int:
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
        _emit(args, payload, "equivalent")
        return EXIT_TRUE
    separator = charform.distinguishing_formula(a, b, args.c, args.l)
    printed = syntax.format_formula(separator)
    payload["distinguishing_formula"] = printed
    payload["holds_in"] = "left"
    _emit(args, payload, f"inequivalent; distinguished by {printed}")
    return EXIT_FALSE


def _cmd_bisim(args) -> int:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    result = equivalence.full_graded_bisimilarity(a, b)
    payload = {
        "command": "bisim",
        "equivalent": result.equivalent,
        "history": result.history.to_json_dict(),
    }
    _emit(args, payload, "bisimilar" if result.equivalent else "not bisimilar")
    return EXIT_TRUE if result.equivalent else EXIT_FALSE


def _cmd_game(args) -> int:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    result = game.solve_game(a, b, args.c, args.l)
    payload = {"command": "game", "cap": args.c, "rounds": args.l, "winner": result.winner}
    if args.trace or args.json:
        payload["trace"] = result.to_json_dict()
    if args.trace and not args.json:
        print(json.dumps(payload["trace"], indent=2, sort_keys=True))
    else:
        _emit(args, payload, f"winner: {result.winner}")
    return EXIT_TRUE if result.winner == game.DUPLICATOR else EXIT_FALSE


def _cmd_char(args) -> int:
    target = _load_pointed(args.structure)
    catalog = None
    if args.catalog:
        catalog = charform.enumerate_types(
            target.signature, args.c, args.l, max_entries=args.max_entries
        )
    formula = charform.characteristic_formula(
        target,
        args.c,
        args.l,
        catalog=catalog,
        exclude_unrealized=not args.literal_chi,
    )
    printed = syntax.format_formula(formula)
    _emit(
        args,
        {"command": "char", "cap": args.c, "depth": args.l, "formula": printed},
        printed,
    )
    return EXIT_TRUE


def _cmd_types(args) -> int:
    sig = _signature_from(args)
    catalog = charform.enumerate_types(sig, args.c, args.l, max_entries=args.max_entries)
    if args.json:
        print(json.dumps(catalog.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(f"{len(catalog)} types at cap {args.c}, depth {args.l}")
        for entry in catalog.entries:
            print(f"  type {entry.type_id}: {syntax.format_formula(entry.formula)}")
    return EXIT_TRUE


def _cmd_nf(args) -> int:
    formula = syntax.parse_formula(args.formula)
    signature = _signature_from(args) if (args.agents or args.props) else None
    result = charform.normal_form(
        formula, args.c, args.l, signature=signature, max_entries=args.max_entries
    )
    printed = syntax.format_formula(result)
    _emit(
        args,
        {"command": "nf", "cap": args.c, "depth": args.l, "formula": printed},
        printed,
    )
    return EXIT_TRUE


def _cmd_distinguish(args) -> int:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    separator = charform.distinguishing_formula(a, b, args.c, args.l)
    if separator is None:
        _emit(args, {"command": "distinguish", "equivalent": True}, "equivalent")
        return EXIT_TRUE
    printed = syntax.format_formula(separator)
    _emit(
        args,
        {
            "command": "distinguish",
            "equivalent": False,
            "formula": printed,
            "holds_in": "left",
        },
        printed,
    )
    return EXIT_FALSE


def _cmd_unravel(args) -> int:
    target = _load_pointed(args.structure)
    result = kripke.unravel(target, args.depth)
    text = kripke.dump_structure(result, name="unravelled")
    _emit(
        args,
        {"command": "unravel", "depth": args.depth, "structure": text},
        text.rstrip("\n"),
    )
    return EXIT_TRUE


def _cmd_restrict(args) -> int:
    value = _load(args.structure)
    m = value.structure if isinstance(value, kripke.PointedStructure) else value
    if args.worlds:
        result = kripke.restrict(m, [int(w) for w in args.worlds.split(",")], point=args.around)
    elif args.around is None:
        raise ParseError("restrict needs --worlds or --around/--radius")
    else:
        result = kripke._local_part(m, args.around, args.radius)
    text = kripke.dump_structure(result, name="restricted")
    _emit(args, {"command": "restrict", "structure": text}, text.rstrip("\n"))
    return EXIT_TRUE


def _cmd_treelike(args) -> int:
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
        _emit(args, payload, "rooted-tree-like")
        return EXIT_TRUE
    _emit(args, payload, f"not tree-like: {report.failed} (witness {report.witness})")
    return EXIT_FALSE


def _cmd_translate(args) -> int:
    formula = syntax.parse_formula(args.formula)
    fo = folink.standard_translation(formula, args.var)
    printed = folink.format_fo_formula(fo)
    _emit(
        args,
        {
            "command": "translate",
            "fo_formula": printed,
            "quantifier_rank": folink.quantifier_rank(fo),
        },
        printed,
    )
    return EXIT_TRUE


def _parse_assignment(text: Optional[str]) -> dict[str, int]:
    if not text:
        return {}
    assignment = {}
    for item in text.split(","):
        var, _, world = item.partition("=")
        if not var or not world:
            raise ParseError(f"bad assignment item {item!r}; use var=world")
        try:
            assignment[var.strip()] = int(world)
        except ValueError:
            raise ParseError(f"bad world number in {item!r}")
    return assignment


def _cmd_fo_eval(args) -> int:
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
    _emit(
        args,
        {"command": "fo-eval", "verdict": verdict, "assignment": assignment},
        "true" if verdict else "false",
    )
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_fo_equiv(args) -> int:
    a = _load_pointed(args.left)
    b = _load_pointed(args.right)
    verdict = folink.fo_q_equivalent(a, b, args.q)
    _emit(
        args,
        {"command": "fo-equiv", "q": args.q, "equivalent": verdict},
        "equivalent" if verdict else "inequivalent",
    )
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_local(args) -> int:
    target = _load_pointed(args.structure)
    fo = folink.parse_fo_formula(args.formula)
    verdict = folink.is_l_local(fo, target, args.l)
    _emit(
        args,
        {"command": "local", "radius": args.l, "local": verdict},
        "local" if verdict else "not local",
    )
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_pad(args) -> int:
    target = _load_pointed(args.structure)
    padded_full, padded_local = folink.locality_padding(target, args.l, args.q)
    full_text = kripke.dump_structure(padded_full, name="padded_full")
    local_text = kripke.dump_structure(padded_local, name="padded_local")
    _emit(
        args,
        {"command": "pad", "full": full_text, "local": local_text},
        full_text + "\n" + local_text.rstrip("\n"),
    )
    return EXIT_TRUE


def _cmd_upgrade(args) -> int:
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
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return EXIT_TRUE if report.holds else EXIT_FALSE


def _cmd_find_c(args) -> int:
    sig = _signature_from(args)
    result = folink.find_cap(args.q, args.l, sig, args.size_bound)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        scope = "exhaustive" if result.exhaustive else "sampled"
        print(
            f"c = {result.cap} over {result.structures_examined} structures "
            f"({scope}); {len(result.counterexamples)} counterexamples below it"
        )
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedmodal",
        description="Graded modal logic over finite Kripke structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    def bounds(p, cap=True, depth=True):
        if cap:
            p.add_argument("--c", type=int, required=True, help="counting cap")
        if depth:
            p.add_argument("--l", type=int, required=True, help="round/nesting depth")

    p = add("mc", _cmd_mc, "model check a formula at a pointed structure")
    p.add_argument("structure")
    p.add_argument("formula")

    p = add("equiv", _cmd_equiv, "cost-bounded equivalence of two pointed structures")
    p.add_argument("left")
    p.add_argument("right")
    bounds(p)

    p = add("bisim", _cmd_bisim, "full counting bisimilarity")
    p.add_argument("left")
    p.add_argument("right")

    p = add("game", _cmd_game, "solve the bounded game explicitly")
    p.add_argument("left")
    p.add_argument("right")
    bounds(p)
    p.add_argument("--trace", action="store_true", help="print the strategy as JSON")

    p = add("char", _cmd_char, "characteristic formula of a pointed structure")
    p.add_argument("structure")
    bounds(p)
    p.add_argument("--catalog", action="store_true", help="complete against a full type catalog")
    p.add_argument("--literal-chi", action="store_true", help="successor classes only, no completion")
    p.add_argument("--max-entries", type=int, default=5000)

    p = add("types", _cmd_types, "enumerate all types at a bound")
    p.add_argument("--agents", default="", help="comma-separated agent names")
    p.add_argument("--props", default="", help="comma-separated proposition names")
    bounds(p)
    p.add_argument("--max-entries", type=int, default=5000)

    p = add("nf", _cmd_nf, "normal form of a formula at a bound")
    p.add_argument("formula")
    bounds(p)
    p.add_argument("--agents", default="")
    p.add_argument("--props", default="")
    p.add_argument("--max-entries", type=int, default=5000)

    p = add("distinguish", _cmd_distinguish, "formula separating two pointed structures")
    p.add_argument("left")
    p.add_argument("right")
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

    p = add("fo-equiv", _cmd_fo_equiv, "rank-bounded FO equivalence")
    p.add_argument("left")
    p.add_argument("right")
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
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--c", type=int, default=None, help="counting cap (searched when omitted)")
    p.add_argument("--l", type=int, default=None, help="override the derived radius")

    p = add("find-c", _cmd_find_c, "empirical least cap for an FO rank over trees")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True, help="tree depth/radius")
    p.add_argument("--agents", default="")
    p.add_argument("--props", default="")
    p.add_argument("--size-bound", type=int, required=True)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_TRUE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GradedModalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
