import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import gradedmodal
from gradedmodal import cli
from gradedmodal.cli import build_parser, run

DATA = os.path.join(os.path.dirname(__file__), "data")


def _path(name):
    return os.path.join(DATA, name)


def test_mc_true(capsys):
    code = run(["mc", _path("fan3.kr"), "<a:3> true"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_mc_false(capsys):
    code = run(["mc", _path("fan3.kr"), "<a:4> true"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


def test_equiv_inequivalent_prints_separator(capsys):
    code = run(["equiv", _path("fan2.kr"), _path("fan3.kr"), "--c", "3", "--l", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "!<a:3> true" in out


def test_equiv_equivalent(capsys):
    code = run(["equiv", _path("fan2.kr"), _path("fan3.kr"), "--c", "2", "--l", "1"])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_json_round_trips(capsys):
    code = run(
        ["equiv", _path("fan2.kr"), _path("fan3.kr"), "--c", "3", "--l", "1", "--json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is False
    assert payload["distinguishing_formula"] == "!<a:3> true"
    assert payload["history"]["cap"] == 3
    # the separator re-checks against the referenced inputs
    from gradedmodal import load_structure, parse_formula, satisfies

    with open(_path("fan2.kr")) as left, open(_path("fan3.kr")) as right:
        a, b = load_structure(left.read()), load_structure(right.read())
    f = parse_formula(payload["distinguishing_formula"])
    assert satisfies(a, f) and not satisfies(b, f)


def test_bisim(capsys):
    assert run(["bisim", _path("loop1.kr"), _path("loop1.kr")]) == 0
    capsys.readouterr()
    assert run(["bisim", _path("fan2.kr"), _path("fan3.kr")]) == 1


def test_game_trace(capsys):
    code = run(["game", _path("fan2.kr"), _path("fan3.kr"), "--c", "3", "--l", "1", "--trace"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "spoiler"


def test_game_past_the_recursion_limit(capsys):
    code = run(["game", _path("loop1.kr"), _path("loop1.kr"), "--c", "1", "--l", "1200"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "winner: duplicator"


def test_char_and_literal_flag(capsys):
    assert run(["char", _path("fan3.kr"), "--c", "2", "--l", "1"]) == 0
    guarded = capsys.readouterr().out.strip()
    assert run(["char", _path("fan3.kr"), "--c", "2", "--l", "1", "--literal-chi"]) == 0
    bare = capsys.readouterr().out.strip()
    assert "<a:2> true" in guarded and "<a:2> true" in bare
    assert "!" in guarded and "!" not in bare


def test_char_catalog_and_literal_chi_exclude_each_other(capsys):
    code = run(["char", _path("fan3.kr"), "--c", "2", "--l", "1", "--catalog", "--literal-chi"])
    assert code == 2
    assert "not allowed with argument --catalog" in capsys.readouterr().err


def test_types_guard_exit_code(capsys):
    code = run(
        ["types", "--agents", "a", "--props", "p", "--c", "2", "--l", "2"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "guard" in err


def test_nf_guard_refuses_a_huge_catalog_at_once(capsys):
    # At level 3 this catalog has 4 * 4 ** (4 * 4 ** 1024) types: the guard
    # must not evaluate that number.
    start = time.perf_counter()
    code = run(["nf", "<a:1> p", "--c", "3", "--l", "3", "--agents", "a", "--props", "p,q"])
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert "more than 5000 entries" in capsys.readouterr().err


def test_types_listing(capsys):
    code = run(["types", "--agents", "a", "--c", "2", "--l", "1", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["entries"]) == 3


def test_types_json_of_a_depth_two_catalog_is_pinned(capsys):
    # The 512-entry document as the level-by-level union of canonical trees
    # ranked it; ranking on the compact arena must print it byte for byte.
    code = run(["types", "--agents", "a", "--props", "p", "--c", "1", "--l", "2", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["entries"]) == 512
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7447f67b86b20b2f1d3c563dc60007cefe401fe8a1928a5fd39b7565347c5b7"
    )


def test_nf(capsys):
    code = run(["nf", "<a:2> true", "--c", "2", "--l", "1"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    from gradedmodal import parse_formula

    parse_formula(printed)


def test_distinguish(capsys):
    assert run(["distinguish", _path("fan2.kr"), _path("fan3.kr"), "--c", "2", "--l", "1"]) == 0
    capsys.readouterr()
    assert run(["distinguish", _path("fan2.kr"), _path("fan3.kr"), "--c", "3", "--l", "1"]) == 1
    assert capsys.readouterr().out.strip() == "!<a:3> true"


def test_unravel_and_restrict(capsys, tmp_path):
    code = run(["unravel", _path("loop1.kr"), "--depth", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert text == (
        "structure unravelled\nagents: a\nprops:\nworlds: 3\n"
        "edge a: 0 1\nedge a: 1 2\nedge a: 2 2\npoint: 0\n"
    )

    code = run(["restrict", _path("chain3.kr"), "--around", "1", "--radius", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "worlds: 3" in out


def test_unravel_refuses_more_worlds_than_the_pipeline_bound(capsys, tmp_path):
    # 2 ** 17 worlds at depth 17; checked before any world is built.
    path = tmp_path / "loops.kr"
    path.write_text("structure loops\nagents: a b\nprops:\nworlds: 1\nedge a: 0 0\nedge b: 0 0\npoint: 0\n")
    start = time.perf_counter()
    assert run(["unravel", str(path), "--depth", "17"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "depth 17 needs more than 20000 worlds" in capsys.readouterr().err


def test_treelike(capsys):
    assert run(["treelike", _path("fan3.kr"), "--l", "2"]) == 0
    capsys.readouterr()
    assert run(["treelike", _path("loop1.kr"), "--l", "1"]) == 1
    assert "acyclicity" in capsys.readouterr().out


def test_translate_and_fo_commands(capsys):
    assert run(["translate", "<a:2> p"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("E y1 E y2")

    assert run(["translate", "<a:2> true"]) == 0
    no_props = capsys.readouterr().out.strip()
    assert run(["fo-eval", _path("fan3.kr"), no_props]) == 0
    capsys.readouterr()
    assert run(["fo-eval", _path("fan3.kr"), no_props, "--assign", "x=1"]) == 1
    capsys.readouterr()

    assert run(["fo-equiv", _path("fan2.kr"), _path("fan3.kr"), "--q", "1"]) == 0
    capsys.readouterr()
    assert run(["fo-equiv", _path("fan2.kr"), _path("fan3.kr"), "--q", "3"]) == 1
    capsys.readouterr()

    assert run(["local", "E y Ea(x,y)", _path("fan3.kr"), "--l", "1"]) == 0


@pytest.mark.parametrize("var", ["x)", ""])
def test_translate_refuses_a_variable_the_fo_parser_rejects(capsys, var):
    # These used to print "E y1 (Ea(x),y1) & p(y1))" and "Ea(,y1)" and exit 0.
    assert run(["translate", "<a:1> p", "--var", var]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an identifier" in captured.err


def test_fo_eval_refuses_a_variable_assigned_twice(capsys):
    assert run(["fo-eval", _path("fan3.kr"), "p(x)", "--assign", "x=1,x=0"]) == 2
    assert "variable 'x' is assigned twice" in capsys.readouterr().err


def test_pad(capsys):
    code = run(["pad", _path("fan2.kr"), "--l", "1", "--q", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "padded_full" in out and "padded_local" in out


def test_upgrade(capsys):
    code = run(
        ["upgrade", "<a:2> true", _path("fan2.kr"), _path("fan3.kr"), "--c", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_find_c(capsys):
    code = run(["find-c", "--q", "2", "--l", "1", "--agents", "a", "--size-bound", "6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cap"] >= 2
    assert payload["exhaustive"] is True


def test_usage_errors(capsys):
    assert run(["mc", _path("fan3.kr"), "<a:0> true"]) == 2
    capsys.readouterr()
    assert run(["mc", os.path.join(DATA, "missing.kr"), "true"]) == 2
    capsys.readouterr()
    assert run(["bogus"]) == 2
    capsys.readouterr()
    assert run([]) == 2


GOLDEN_CASES = {
    "equiv_fan2_fan3_c3_l1.json": ["equiv", "fan2.kr", "fan3.kr", "--c", "3", "--l", "1", "--json"],
    "equiv_fan2_fan3_c2_l1.json": ["equiv", "fan2.kr", "fan3.kr", "--c", "2", "--l", "1", "--json"],
    "game_fan2_fan3_c3_l1.json": ["game", "fan2.kr", "fan3.kr", "--c", "3", "--l", "1", "--json"],
    "types_a_c2_l1.json": ["types", "--agents", "a", "--c", "2", "--l", "1", "--json"],
    "upgrade_fan2_fan3_c2.json": ["upgrade", "<a:2> true", "fan2.kr", "fan3.kr", "--c", "2", "--json"],
    "findc_q2_l1_a_sb6.json": ["find-c", "--q", "2", "--l", "1", "--agents", "a", "--size-bound", "6", "--json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_json(name, capsys):
    argv = [a if not a.endswith(".kr") else _path(a) for a in GOLDEN_CASES[name]]
    run(argv)
    produced = json.loads(capsys.readouterr().out)
    with open(os.path.join(DATA, "golden", name)) as fh:
        expected = json.load(fh)
    assert produced == expected


def test_mc_on_p_free_formula_vs_structure_mismatch(capsys):
    # an unknown proposition or agent is a usage error, not a verdict
    for formula, message in (("p", "unknown proposition"), ("<b:1> true", "unknown agent")):
        assert run(["mc", _path("fan3.kr"), formula]) == 2
        err = capsys.readouterr().err
        assert message in err


# One --json invocation per subcommand, with the verdict its document states
# (None for commands that give no verdict and so exit 0).
CONTRACT_CASES = {
    "mc": (["mc", "fan3.kr", "<a:4> true"], lambda d: d["verdict"]),
    "equiv": (["equiv", "fan2.kr", "fan3.kr", "--c", "3", "--l", "1"], lambda d: d["equivalent"]),
    "bisim": (["bisim", "loop1.kr", "loop1.kr"], lambda d: d["equivalent"]),
    "game": (["game", "fan2.kr", "fan3.kr", "--c", "2", "--l", "1"], lambda d: d["winner"] == "duplicator"),
    "char": (["char", "fan3.kr", "--c", "2", "--l", "1", "--catalog"], None),
    "types": (["types", "--agents", "a", "--props", "p", "--c", "1", "--l", "1"], None),
    "nf": (["nf", "<a:1> p", "--c", "1", "--l", "1", "--agents", "a", "--props", "p"], None),
    "distinguish": (["distinguish", "fan2.kr", "fan3.kr", "--c", "3", "--l", "1"], lambda d: d["equivalent"]),
    "unravel": (["unravel", "loop1.kr", "--depth", "2"], None),
    "restrict": (["restrict", "chain3.kr", "--worlds", "0,1"], None),
    "treelike": (["treelike", "loop1.kr", "--l", "1"], lambda d: d["ok"]),
    "translate": (["translate", "<a:2> p"], None),
    "fo-eval": (["fo-eval", "fan3.kr", "E y Ea(x,y)"], lambda d: d["verdict"]),
    "fo-equiv": (["fo-equiv", "fan2.kr", "fan3.kr", "--q", "3"], lambda d: d["equivalent"]),
    "local": (["local", "E y Ea(x,y)", "fan3.kr", "--l", "1"], lambda d: d["local"]),
    "pad": (["pad", "fan2.kr", "--l", "1", "--q", "1"], None),
    "upgrade": (["upgrade", "<a:3> true", "fan2.kr", "fan3.kr", "--c", "2"], lambda d: d["holds"]),
    "find-c": (["find-c", "--q", "1", "--l", "1", "--agents", "a", "--size-bound", "4"], None),
}


def test_contract_table_covers_every_subcommand():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(CONTRACT_CASES)


@pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
def test_json_output_contract(name, capsys):
    argv, verdict_of = CONTRACT_CASES[name]
    code = run([_path(a) if a.endswith(".kr") else a for a in argv] + ["--json"])
    out = capsys.readouterr().out
    document = json.loads(out)
    assert out == json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert code in (0, 1)
    expected = True if verdict_of is None else verdict_of(document)
    assert code == (0 if expected else 1)


def _run_process(argv):
    package_root = os.path.dirname(os.path.dirname(gradedmodal.__file__))
    return subprocess.run(
        [sys.executable, "-m", "gradedmodal.cli", *argv],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "formula, code, out",
    [("<a:3> true", 0, "true\n"), ("<a:4> true", 1, "false\n"), ("<a:0> true", 2, "")],
)
def test_process_exit_codes(formula, code, out):
    done = _run_process(["mc", _path("fan3.kr"), formula])
    assert (done.returncode, done.stdout) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [["mc", _path("loop1.kr"), "!" * 3000 + "p"], ["translate", "<a:1> " * 3000 + "p"]],
    ids=["mc", "translate"],
)
def test_process_maps_exhausted_recursion_to_the_guard(argv):
    # Exit 1 would read as "false": the process reports the guard instead.
    done = _run_process(argv)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("resource guard: RecursionError")


@pytest.mark.parametrize(
    "error, code, prefix", [(KeyError, 4, "internal error"), (MemoryError, 3, "resource guard")]
)
def test_main_maps_a_crash_to_a_non_verdict_exit(monkeypatch, capsys, error, code, prefix):
    def crash(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_mc", crash)
    monkeypatch.setattr(sys, "argv", ["gradedmodal", "mc", _path("fan3.kr"), "true"])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == code
    assert capsys.readouterr().err.startswith(f"{prefix}: {error.__name__}")
    # run() itself still raises, so in-process callers see the exception.
    with pytest.raises(error):
        run(["mc", _path("fan3.kr"), "true"])


def test_parser_is_built_once_and_handlers_are_looked_up_by_name(monkeypatch, capsys):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert run(["mc", _path("fan3.kr"), "<a:3> true"]) == 0
        assert run(["mc", _path("fan3.kr"), "<a:4> true"]) == 1
        assert len(calls) == 1
        assert build_parser() is not build_parser()

        def replaced(args):
            return False, {}, "replaced"

        monkeypatch.setattr(cli, "_cmd_mc", replaced)
        assert run(["mc", _path("fan3.kr"), "<a:3> true"]) == 1
        assert capsys.readouterr().out.splitlines() == ["true", "false", "replaced"]
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()
