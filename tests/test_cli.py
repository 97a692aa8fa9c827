import itertools
import json
import random
from argparse import Namespace
from pathlib import Path

import pytest

from staromega.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    GrammarError,
    _selection,
    cmd_eval,
    format_grammar,
    main,
    parse_grammar,
)
from staromega.pda import pda_from_json
from staromega.semiring import ARCTIC, BOOLEAN, COUNTING, INF, TROPICAL, SemiringInstance
from staromega.system import is_gnf_mixed, is_gnf_omega, least_solution_finite

DATA = Path(__file__).resolve().parents[1] / "src" / "staromega" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"

TROPICAL_GRM = (DATA / "tropical_mixed.grm").read_text()
BOOLEAN_GRM = (DATA / "boolean_omega.grm").read_text()
CONTRAST_GRM = (DATA / "contrast_mixed.grm").read_text()


# -- grammar format --------------------------------------------------------------


def test_parse_round_trip_is_identity_on_canonical_forms():
    # every fixture: parse -> format -> parse gives the file back, with
    # @finite written after @buchi
    order = ["@semiring", "@alphabet", "@sort", "@start", "@buchi", "@finite"]
    for path in sorted([*DATA.glob("*.grm"), *TEST_DATA.glob("*.grm")]):
        g = parse_grammar(path.read_text())
        canon = format_grammar(g)
        again = parse_grammar(canon)
        assert again == g, path.name
        assert format_grammar(again) == canon
        directives = [line.split()[0] for line in canon.splitlines() if line.startswith("@")]
        assert directives == sorted(directives, key=order.index), path.name


# heads of the names the normal form generates, so that drawn names meet them
NAME_HEADS = ("", "t_", "g", "r", "h.", "b.", "z.", "u0.", "x0.", "c0.", "d", "f")


def _odd_names(rng, k, taken):
    """k fresh names spelled with . ' _ and digits after a generated head."""
    out = []
    while len(out) < k:
        name = rng.choice(NAME_HEADS) + rng.choice("abxz")
        name += "".join(rng.choices(".'_0123456789", k=rng.randint(0, 3)))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _odd_names_grammar(rng, semiring, finite=False):
    """A mixed grammar over two letters, two x- and two or three
    z-variables, all with odd names: x-rules of up to two symbols, the
    empty word and chain rules among them, and right-linear z-rules; with
    `finite`, an @finite directive names one of the x-variables."""
    taken = set()
    letters, xs = _odd_names(rng, 2, taken), _odd_names(rng, 2, taken)
    zs = _odd_names(rng, rng.choice((2, 3)), taken)
    weights = {"boolean": ("",), "counting": ("(1) ", "(2) ")}.get(semiring, ("(0) ", "(1) ", "(2) "))
    lines = [
        f"@semiring {semiring}",
        "@alphabet " + " ".join(letters),
        "@sort x " + " ".join(xs),
        "@sort z " + " ".join(zs),
        f"@start {zs[-1]}",
        f"@buchi {rng.randint(1, len(zs))}",
    ]
    for x in xs:
        words = {" ".join(rng.choices(letters + xs, k=rng.randint(0, 2))) or "eps" for _ in range(3)}
        lines.append(f"{x} = " + " | ".join(rng.choice(weights) + w for w in sorted(words)))
    for z in zs:
        words = {f"{rng.choice(letters + xs)} {rng.choice(zs)}" for _ in range(2)}
        lines.append(f"{z} = " + " | ".join(rng.choice(weights) + w for w in sorted(words)))
    if finite:
        lines.insert(6, f"@finite {rng.choice(xs)}")
    return "\n".join(lines) + "\n"


def test_odd_names_round_trip_through_format_and_the_normal_forms(tmp_path):
    """parse -> format -> parse gives the file back, and so do both normal
    forms of it, on seeded grammars whose names use . ' _ and digits after
    the heads of generated names (t_, g, r, h., b., z., u0., x0., ...).
    Every other grammar names its finite part with @finite."""
    path, out = tmp_path / "g.grm", tmp_path / "nf.grm"
    for case in range(40):
        rng = random.Random(f"odd-names/{case}")
        semiring = ("boolean", "tropical", "arctic", "counting")[case % 4]
        g = parse_grammar(_odd_names_grammar(rng, semiring, finite=case % 2 == 1))
        assert (g.finite is not None) == (case % 2 == 1)
        text = format_grammar(g)
        assert parse_grammar(text) == g
        path.write_text(text)
        for target in ("mixed", "omega"):
            assert main(["gnf", str(path), "--target", target, "--out", str(out)]) == EXIT_OK
            nf = out.read_text()
            assert format_grammar(parse_grammar(nf)) == nf, (text, target)


def test_parse_omega_vs_mixed_kinds():
    g = parse_grammar(BOOLEAN_GRM)
    assert g.kind == "omega" and g.system.variables == ("y1", "y2")
    g = parse_grammar(TROPICAL_GRM)
    assert g.kind == "mixed" and g.system.z_vars == ("z1", "z2")


def test_parse_error_carries_location():
    bad = "@semiring tropical\n@alphabet a\n@sort x x1\nx1 = (oops) a\n"
    with pytest.raises(GrammarError) as info:
        parse_grammar(bad)
    assert info.value.line == 4
    with pytest.raises(GrammarError):
        parse_grammar("@alphabet a\n")  # missing semiring
    with pytest.raises(GrammarError, match="missing @sort"):
        parse_grammar("@semiring tropical\n@alphabet a\n")
    with pytest.raises(GrammarError):
        parse_grammar("@semiring tropical\n@alphabet a\n@sort x x1\nq = a\n")
    for lines, line, message in (
        # a second Buchi count is not dropped
        (["@sort z z1", "@buchi 1 2", "z1 = a z1"], 4, "@buchi takes one integer"),
        (["@sort z z1", "@buchi", "z1 = a z1"], 4, "@buchi takes one integer"),
        # the @sort line that mixes y with x or z
        (["@sort y y1", "@sort x x1", "y1 = a y1"], 4, "cannot be mixed"),
        (["@sort z z1", "", "@sort y y1"], 5, "cannot be mixed"),
    ):
        text = "\n".join(["@semiring boolean", "@alphabet a"] + lines) + "\n"
        with pytest.raises(GrammarError, match=message) as info:
            parse_grammar(text)
        assert info.value.line == line, lines


def test_parse_rejects_nonlinear_z():
    bad = (
        "@semiring boolean\n@alphabet a\n@sort x x1\n@sort z z1\n"
        "x1 = a\nz1 = a z1 z1\n"
    )
    with pytest.raises(GrammarError, match="right-linear") as info:
        parse_grammar(bad)
    assert info.value.line == 6


# -- commands ---------------------------------------------------------------------


def grm(tmp_path, text, name="g.grm"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cmd_parse_summaries(tmp_path, capsys):
    rc = main(["parse", grm(tmp_path, BOOLEAN_GRM)])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "omega" and out["gnf"] is False
    assert out["finite"] is None
    rc = main(["parse", grm(tmp_path, CONTRAST_GRM)])
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "mixed" and out["gnf"] is True
    assert out["finite"] == "x2"
    # z-variables and no @finite: a zero finite part
    assert main(["parse", str(TEST_DATA / "z_only_pairs.grm")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["finite"] is None


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (["@sort x x1", "@start nope", "x1 = a"], 4, "@start names nope, not a declared variable"),
        (["@sort y y1", "@start y2", "y1 = a y1"], 4, "@start names y2, not a declared variable"),
        (
            ["@sort x x1", "@sort z z1", "@finite nope", "x1 = a", "z1 = a z1"],
            5,
            "@finite names nope, not a declared x-variable",
        ),
        (
            ["@sort x x1", "@sort z z1", "@finite z1", "x1 = a", "z1 = a z1"],
            5,
            "@finite names z1, not a declared x-variable",
        ),
        (["@sort y y1", "@finite y1", "y1 = a y1"], 4, "@finite names y1, not a declared x-variable"),
        (["@sort x x1", "@sort z z1", "@finite", "z1 = a z1"], 5, "@finite takes one variable"),
        (["@sort x x1 x2", "@sort z z1", "@finite x1 x2", "z1 = a z1"], 5, "@finite takes one variable"),
    ],
    ids=[
        "start-undeclared",
        "start-undeclared-y",
        "finite-undeclared",
        "finite-z-variable",
        "finite-in-a-y-file",
        "finite-no-name",
        "finite-two-names",
    ],
)
def test_directives_naming_no_declared_variable_of_their_sort_exit_2(lines, line, message, tmp_path, capsys):
    path = grm(tmp_path, "\n".join(["@semiring boolean", "@alphabet a"] + lines) + "\n")
    for argv in (["parse", path], ["eval", path, "--word", "a"], ["gnf", path], ["build-pda", path]):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line {line}, column 1: {message}\n"


@pytest.mark.parametrize(
    "first, second",
    [
        ("@semiring boolean", "@semiring tropical"),
        ("@start z1", "@start x2"),
        ("@finite x1", "@finite x2"),
        ("@buchi 1", "@buchi 0"),
    ],
    ids=["semiring", "start", "finite", "buchi"],
)
def test_a_second_directive_of_a_kind_exits_2(first, second, tmp_path, capsys):
    # the second line would silently replace the first
    lines = [
        "@semiring boolean",
        "@alphabet a b",
        "@sort x x1 x2",
        "@sort z z1",
        "@start z1",
        "@finite x1",
        "@buchi 1",
        "x1 = a",
        "x2 = b",
        "z1 = a z1",
    ]
    assert main(["parse", grm(tmp_path, "\n".join(lines) + "\n", "once.grm")]) == EXIT_OK
    capsys.readouterr()
    line = lines.index(first) + 2
    lines.insert(line - 1, second)
    path = grm(tmp_path, "\n".join(lines) + "\n")
    for argv in (["parse", path], ["eval", path, "--word", "b"], ["gnf", path], ["build-pda", path]):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        directive = second.split()[0]
        assert captured.err == f"error: line {line}, column 1: second {directive} directive\n"


def test_cmd_parse_reports_syntax_error(tmp_path, capsys):
    rc = main(["parse", grm(tmp_path, "@semiring tropical\n@alphabet a\n@sort x x1\nx1 = (z) a\n")])
    assert rc == EXIT_USAGE
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, name, line",
    [
        # the terminal (1) would read as a coefficient: gnf wrote r1_0 = (1)
        # for x1 = a (1), which re-parses as (1) eps
        (["@alphabet a (1)", "@sort x x1", "x1 = a (1)"], "(1)", 2),
        # the terminal eps cannot be written alone
        (["@alphabet a eps", "@sort x x1", "x1 = a eps"], "eps", 2),
        # x = 0 would be the zero polynomial, not the variable 0
        (["@alphabet a", "@sort x x 0", "x = 0"], "0", 3),
        (["@alphabet a", "@sort z z a|b", "z = a z"], "a|b", 3),
        # gnf wrote p=q's equation as p=q = 0, which re-parses as an
        # equation for the undeclared p
        (["@alphabet a", "@sort x x1 p=q", "@sort z z1", "x1 = a p=q", "z1 = a x1 z1"], "p=q", 3),
        # a line that starts with @x is a directive, so x's equation cannot be written
        (["@alphabet a", "@sort x x1 @x", "x1 = a"], "@x", 3),
        # --lasso splits a lasso word at ':'
        (["@alphabet a a:b", "@sort x x1", "x1 = a a:b"], "a:b", 2),
    ],
)
def test_grammar_names_that_an_equation_reads_as_syntax_exit_2(lines, name, line, tmp_path, capsys):
    path = grm(tmp_path, "\n".join(["@semiring boolean"] + lines) + "\n")
    for argv in (["parse", path], ["eval", path, "--word", "a"], ["gnf", path, "--target", "mixed"]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}, column 1: {name!r} cannot be a name")
        assert captured.err.count("\n") == 1


def test_cmd_eval_word_and_lasso(tmp_path, capsys):
    path = grm(tmp_path, TROPICAL_GRM)
    assert main(["eval", path, "--word", "aabb"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    assert main(["eval", path, "--lasso", "aabb:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    assert main(["eval", path, "--lasso", ":c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", path, "--lasso", ":c", "--component", "z1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", path, "--lasso", "a:a"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "inf"


def test_cmd_eval_omega_grammar(tmp_path, capsys):
    path = grm(tmp_path, BOOLEAN_GRM)
    assert main(["eval", path, "--lasso", ":ab"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", path, "--lasso", ":a"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", path, "--lasso", ":a", "--buchi", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_cmd_eval_usage_errors(tmp_path, capsys):
    path = grm(tmp_path, TROPICAL_GRM)
    assert main(["eval", path]) == EXIT_USAGE
    assert main(["eval", path, "--lasso", "ab:"]) == EXIT_USAGE
    # a second ':' is no letter of the period
    assert main(["eval", path, "--lasso", ":aa:b"]) == EXIT_USAGE
    assert "one ':'" in capsys.readouterr().err


MULTI_CHARACTER_LETTERS_GRM = """\
@semiring boolean
@alphabet a1 b
@sort x x1
@sort z z1
@start z1
@finite x1
x1 = a1 | b
z1 = a1 z1
"""


def test_eval_refuses_an_undeclared_letter_on_both_routes(tmp_path, capsys):
    # a word without spaces is read one character per letter, so a1 reads
    # the undeclared letters a and 1, where "a1 " reads the letter a1
    source = grm(tmp_path, MULTI_CHARACTER_LETTERS_GRM)
    auto = str(tmp_path / "auto.json")
    assert main(["build-pda", source, "--out", auto]) == EXIT_OK
    for path in (source, auto):
        for query, want in ((["--word", "a1 "], "1"), (["--lasso", ":a1 "], "1")):
            assert main(["eval", path, *query]) == EXIT_OK
            assert capsys.readouterr().out == want + "\n"
        for query in (["--word", "a1"], ["--word", "c"], ["--lasso", ":a1"], ["--lasso", "c:a1 "]):
            assert main(["eval", path, *query]) == EXIT_USAGE, (path, query)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: letter ") and err.count("\n") == 1
            assert "separate multi-character letters with spaces" in err


def test_cmd_gnf_identity_skip(tmp_path, capsys):
    path = grm(tmp_path, CONTRAST_GRM)
    report = tmp_path / "rep.json"
    options = ["--buchi", "0", "--component", "z1"]
    rc = main(["gnf", path, "--target", "mixed", *options, "--report", str(report)])
    assert rc == EXIT_OK
    stages = json.loads(report.read_text())["stages"]
    assert any(s.get("stage") == "identity" and s.get("skipped") for s in stages)
    # the input comes back with the options in place of @start and @buchi
    out = capsys.readouterr().out
    want = format_grammar(parse_grammar(CONTRAST_GRM))
    assert out == want.replace("@start z2\n@buchi 1", "@start z1\n@buchi 0") != want
    # with its @finite, which the options leave alone
    assert "\n@finite x2\n" in out


def test_cmd_gnf_produces_normal_form(tmp_path, capsys):
    path = grm(tmp_path, TROPICAL_GRM)
    out = tmp_path / "out.grm"
    report = tmp_path / "rep.json"
    rc = main(["gnf", path, "--target", "mixed", "--out", str(out), "--report", str(report)])
    assert rc == EXIT_OK
    g = parse_grammar(out.read_text())
    assert g.kind == "mixed" and is_gnf_mixed(g.system)
    assert g.start in g.system.z_vars

    rc = main(["eval", str(out), "--lasso", "aabb:c"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"

    out2 = tmp_path / "out2.grm"
    rc = main(["gnf", path, "--target", "omega", "--out", str(out2)])
    assert rc == EXIT_OK
    g2 = parse_grammar(out2.read_text())
    assert g2.kind == "omega" and is_gnf_omega(g2.system)
    rc = main(["eval", str(out2), "--lasso", "ab:c"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_gnf_report_records_the_kept_variables_and_the_prune(tmp_path, capsys):
    # m5: three pairs over one normal form of what their designated
    # components and the source's finite part reach; the sum's collector
    # reaches 4 of its 7 z-variables
    out, report = tmp_path / "m5.grm", tmp_path / "rep.json"
    rc = main(["gnf", str(TEST_DATA / "m5_buchi3.grm"), "--out", str(out), "--report", str(report)])
    assert rc == EXIT_OK
    stages = {s["stage"]: s for s in json.loads(report.read_text())["stages"]}
    assert list(stages) == ["input", "decompose", "normalize", "pairs", "sum", "prune", "unmix"]
    pairs, total, prune = stages["pairs"], stages["sum"], stages["prune"]
    # the pairs share the one normal form, and the sum copies none of it
    assert pairs["count"] == 3 and pairs["kept"] == total["x_vars"] == 119
    # its monomials by number of trailing variables: 242 of 538 have two
    assert pairs["trailing"] == [38, 258, 242]
    assert prune["x_vars"] == [119, 114] and prune["z_vars"] == [7, 4]
    assert prune["buchi"] == 3
    # the fold writes one variable per kept x- and z-variable that a rule
    # reads, and ydot: neither the collector nor the finite part is read
    nf = parse_grammar(out.read_text())
    assert len(nf.system.variables) == stages["unmix"]["variables"] == 113 + 3 + 1
    assert nf.buchi == 3


def test_cmd_build_pda_and_eval(tmp_path, capsys):
    path = grm(tmp_path, CONTRAST_GRM)
    out = tmp_path / "auto.json"
    dot = tmp_path / "auto.dot"
    rc = main(["build-pda", path, "--start", "x2", "--buchi", "1",
               "--out", str(out), "--dot", str(dot)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 5
    assert "digraph" in dot.read_text()
    assert main(["eval", str(out), "--lasso", "a:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", str(out), "--lasso", "aca:aca"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", str(out), "--word", "aca"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_cmd_build_pda_start_out_of_range(tmp_path, capsys):
    path = grm(tmp_path, CONTRAST_GRM)
    rc = main(["build-pda", path, "--start", "nope", "--buchi", "1"])
    assert rc != EXIT_OK
    capsys.readouterr()


def test_cmd_eval_exact_value_where_the_capped_search_was_inconclusive(tmp_path, capsys):
    # a factor of one letter cannot cover the prefix aabb, yet the value is
    # exact on both routes, and neither route takes a cap option
    path = str(DATA / "tropical_mixed.grm")
    assert main(["eval", path, "--lasso", "aabb:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    from staromega.fixtures import tropical_omega_automaton
    from staromega.pda import pda_to_json

    auto_path = tmp_path / "auto.json"
    auto_path.write_text(pda_to_json(tropical_omega_automaton()))
    assert main(["eval", str(auto_path), "--lasso", "aabb:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    for target, option in ((path, "--factor-len"), (str(auto_path), "--height")):
        with pytest.raises(SystemExit) as info:
            main(["eval", target, "--lasso", "aabb:c", option, "1"])
        assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_cmd_check_suites(tmp_path, capsys):
    assert main(["check", "--suite", "examples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["check", "--suite", "identities", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cmd_eval_arctic_word_and_six_state_automaton(tmp_path, capsys):
    arc = str(DATA / "arctic_blocks.grm")
    assert main(["eval", arc, "--word", "abab"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    out = tmp_path / "arc.json"
    assert main(["build-pda", arc, "--start", "S", "--out", str(out)]) == EXIT_OK
    assert len(json.loads(out.read_text())["states"]) == 6


def test_cmd_gnf_counting_omega_warning(tmp_path, capsys):
    # counting omega values are exact, so the normal form comes with no
    # warning, and it gives the grammar's own value
    path = str(DATA / "counting_finite.grm")
    out = tmp_path / "o.grm"
    assert main(["gnf", path, "--target", "omega", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    for source in (path, str(out)):
        assert main(["eval", source, "--lasso", ":a"]) == EXIT_OK
        assert capsys.readouterr().out == "1\n"


def test_cmd_check_corrupted_golden(monkeypatch, capsys):
    # one computed value that differs from the golden file fails its section
    from staromega import checks

    computed = checks.computed_example_values()
    computed["tropical-mixed"]["lasso"]["aabb:c"] = "7"
    monkeypatch.setattr(checks, "computed_example_values", lambda: computed)
    rc = main(["check", "--suite", "examples"])
    assert rc == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL examples[tropical-mixed]" in out
    assert '"expected": "2"' in out and '"got": "7"' in out


def test_cmd_gnf_zero_omega_component(tmp_path, capsys):
    # no accepting z-variable at Buchi count 0: the normalized decomposition is
    # empty, so ydot holds the source's finite part alone, with lasso value 0
    source, nf = str(DATA / "tropical_mixed.grm"), str(tmp_path / "nf.grm")
    assert main(["gnf", source, "--buchi", "0", "--out", nf]) == EXIT_OK
    assert "ydot = a b.r1_0" in Path(nf).read_text().splitlines()
    for query, want in ((["--lasso", "ab:c"], "inf"), (["--word", "ab"], "1")):
        assert main(["eval", nf, *query]) == EXIT_OK
        assert capsys.readouterr().out == f"{want}\n"


@pytest.mark.parametrize(
    "terminal", ["ydot", "h.z.sum", "b.u0.t.d0", "z.acc", "t.d0", "z.sum", "u0.z.acc", "h.u0.z.acc"]
)
@pytest.mark.parametrize("target", ["omega", "mixed"])
def test_cmd_gnf_keeps_generated_names_off_the_terminals(terminal, target, tmp_path, capsys):
    # every name the pipeline makes up avoids the terminals: the normal form
    # exists and keeps the lasso value of the grammar it came from
    grm = tmp_path / "clash.grm"
    grm.write_text(
        f"@semiring boolean\n@alphabet a {terminal}\n@sort x x1\n@sort z z1\n"
        "@start z1\n@buchi 1\nx1 = a\nz1 = a z1 | x1 z1\n"
    )
    nf = tmp_path / "nf.grm"
    assert main(["gnf", str(grm), "--target", target, "--out", str(nf)]) == EXIT_OK
    capsys.readouterr()
    for path in (grm, nf):
        assert main(["eval", str(path), "--lasso", "a:a"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1"]


@pytest.mark.parametrize(
    "args",
    [
        ["tropical_mixed.grm", "--buchi", "3"],
        ["tropical_mixed.grm", "--buchi", "-1"],
        ["arctic_blocks.grm", "--target", "omega"],
    ],
)
def test_cmd_gnf_selector_out_of_range(args, capsys):
    rc = main(["gnf", str(DATA / args[0])] + args[1:])
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.startswith("error: ")


def test_semantic_failures_exit_1(tmp_path, capsys):
    rc = main(["build-pda", str(DATA / "tropical_mixed.grm")])
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.startswith("error: ")


# -- word values that no capped fixpoint reaches ----------------------------------


def test_arctic_chain_loop_word_value_is_inf(tmp_path, capsys):
    # defect (b): x1 derives a at every weight n, so the value is inf
    path = grm(tmp_path, "@semiring arctic\n@alphabet a\n@sort x x1\nx1 = (1) x1 | a\n")
    assert main(["eval", path, "--word", "a"]) == EXIT_OK
    assert capsys.readouterr().out == "inf\n"


def test_word_value_does_not_depend_on_a_round_cap(tmp_path, capsys):
    # defect (o): a^2999 b has one derivation, 3,000 levels deep
    path = grm(tmp_path, "@semiring tropical\n@alphabet a b\n@sort x x1\nx1 = (1) a x1 | b\n")
    assert main(["eval", path, "--word", "a" * 2999 + "b"]) == EXIT_OK
    assert capsys.readouterr().out == "2999\n"


def test_counting_word_with_infinitely_many_derivations_is_inf(tmp_path, capsys):
    # defect (p): x1 =>* x1 x1 =>* x1 with eps on either side, so a has
    # infinitely many derivations of weight 1
    path = grm(tmp_path, "@semiring counting\n@alphabet a\n@sort x x1\nx1 = x1 x1 | a | eps\n")
    assert main(["eval", path, "--word", "a"]) == EXIT_OK
    assert capsys.readouterr().out == "inf\n"


def _automaton_of(path, tmp_path):
    nf, auto = str(tmp_path / "nf.grm"), str(tmp_path / "auto.json")
    if main(["gnf", str(path), "--out", nf]) or main(["build-pda", nf, "--out", auto]):
        pytest.fail("gnf or build-pda failed")
    return auto


@pytest.mark.parametrize("route", ["direct", "gnf-build-pda"])
def test_tropical_lasso_whose_runs_all_cost_inf_is_inf(route, tmp_path, capsys):
    # every accepting run of z1 at :a costs inf, the tropical zero
    path = str(TEST_DATA / "all_runs_cost_inf.grm")
    if route == "gnf-build-pda":
        path = _automaton_of(path, tmp_path)
    assert main(["eval", path, "--lasso", ":a"]) == EXIT_OK
    assert capsys.readouterr().out == "inf\n"


ARCTIC_PREFIX_GROWTH = TEST_DATA / "arctic_prefix_growth.grm"


def test_arctic_prefix_growth_automaton_value_is_inf(tmp_path, capsys):
    # x1 derives a^n at weight n - 1 for every n, so the accepting runs of z1
    # at :a have no largest weight: the exact value is inf
    auto = _automaton_of(ARCTIC_PREFIX_GROWTH, tmp_path)
    assert main(["eval", auto, "--lasso", ":a"]) == EXIT_OK
    assert capsys.readouterr().out == "inf\n"


def test_arctic_eps_component_that_settles_late_is_inf(capsys):
    # x1 = (2) eps | (1) x2 x1 with x2 = (inf) eps: the rounds of x1's
    # component read 2, then inf, so it settles only after more than
    # |C| + 1 = 2 rounds; a cap there must not turn the value into an error
    from staromega.system import eps_coefficients

    path = TEST_DATA / "arctic_late_inf.grm"
    sys = parse_grammar(path.read_text()).system.x
    assert [v.value for v in eps_coefficients(sys)] == [INF, INF]
    assert main(["gnf", str(path), "--target", "mixed"]) == EXIT_OK
    assert "x1 = (inf) a" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("period", ["a", "a" * 32], ids=["a", "a^32"])
def test_arctic_prefix_growth_grammar_value_is_inf(period, capsys):
    # the same value on the grammar route, at any period length
    assert main(["eval", str(ARCTIC_PREFIX_GROWTH), "--lasso", ":" + period]) == EXIT_OK
    assert capsys.readouterr().out == "inf\n"


def test_word_on_a_grammar_without_finite_variables_prints_zero(tmp_path, capsys):
    # without an x-variable the finite part is zero, as on the automaton
    for semiring, zero in (("boolean", "0"), ("tropical", "inf"), ("arctic", "-inf")):
        text = f"@semiring {semiring}\n@alphabet a\n@sort z z1\nz1 = a z1\n"
        path = grm(tmp_path, text, name=f"{semiring}.grm")
        for word in ("a", "aa"):
            assert main(["eval", path, "--word", word]) == EXIT_OK
            assert capsys.readouterr().out == f"{zero}\n"


def test_normal_form_output_builds_an_automaton_with_the_same_value(tmp_path, capsys):
    nf, auto = tmp_path / "nf.grm", tmp_path / "auto.json"
    rc = main(["gnf", str(DATA / "tropical_mixed.grm"), "--target", "omega", "--out", str(nf)])
    assert rc == EXIT_OK
    # the start is the folded y-variable, found by its position in the system
    assert main(["build-pda", str(nf), "--out", str(auto)]) == EXIT_OK
    assert main(["eval", str(auto), "--lasso", "aabb:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"
    assert main(["eval", str(nf), "--lasso", "aabb:c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_finite_grammar_normal_form_builds_an_automaton_with_the_same_value(tmp_path, capsys):
    # defect (n): a grammar without z-variables has a finite normal form but
    # no omega component
    path = str(TEST_DATA / "ab_blocks.grm")
    nf, auto = tmp_path / "nf.grm", tmp_path / "auto.json"
    assert main(["gnf", path, "--target", "mixed", "--out", str(nf)]) == EXIT_OK
    g = parse_grammar(nf.read_text())
    assert g.kind == "mixed" and not g.system.z_vars and g.start == "S"
    assert "@sort z" not in nf.read_text() and is_gnf_mixed(g.system)
    assert main(["build-pda", str(nf), "--out", str(auto)]) == EXIT_OK
    for source in (str(auto), path):
        assert main(["eval", source, "--word", "abababab"]) == EXIT_OK
        assert capsys.readouterr().out == "4\n"
    assert main(["gnf", path, "--target", "omega"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path", [TEST_DATA / "ab_blocks.grm", DATA / "arctic_blocks.grm"])
@pytest.mark.parametrize("component", [[], ["--component", "S"]])
def test_eval_lasso_on_a_grammar_without_z_variables_names_the_missing_component(
    path, component, capsys
):
    # with or without naming the start variable S, which exists as an x-variable
    assert main(["eval", str(path), "--lasso", "a:b"] + component) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: the grammar has no omega component: it declares no z-variable\n"
    )


def test_build_pda_on_an_omega_grammar_with_epsilon_rules_is_a_semantic_failure(capsys):
    assert main(["build-pda", str(DATA / "boolean_omega.grm")]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: induced automaton needs a mixed system in Greibach form; "
        "run the normal form first\n"
    )


def test_build_pda_unknown_start_exits_1(capsys):
    for args in (["--start", "nope"], ["--start", "y9"]):
        assert main(["build-pda", str(DATA / "boolean_omega.grm")] + args) == EXIT_FAIL
        assert capsys.readouterr().err == "error: unknown start variable " + repr(args[1]) + "\n"


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "{missing}.json", "--lasso", "a:b"],
        ["eval", "{missing}.grm", "--word", "a"],
        ["gnf", "{missing}.grm"],
        ["build-pda", "{missing}.grm"],
        ["gnf", str(DATA / "tropical_mixed.grm"), "--out", "{missing}/out.grm"],
    ],
)
def test_unreadable_or_unwritable_file_exits_2(args, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    rc = main([a.format(missing=missing) for a in args])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "option", [["--buchi", "0"], ["--component", "z1"], ["--component", "nope"]], ids=" ".join
)
def test_eval_of_an_automaton_rejects_grammar_selection_options(option, tmp_path, capsys):
    # the automaton fixed its start and repeated states when it was built:
    # at --buchi 0 the grammar gives 0 and the automaton would still give 1
    auto = str(tmp_path / "auto.json")
    assert main(["build-pda", str(DATA / "counting_finite.grm"), "--out", auto]) == EXIT_OK
    for query in (["--lasso", ":a"], ["--word", "b"]):
        assert main(["eval", auto, *query, *option]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {option[0]} ") and err.count("\n") == 1
    assert main(["eval", auto, "--lasso", ":a"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"


def test_omega_evaluation_over_counting_is_exact(capsys):
    # z1 = a z1 has one run on a^omega, of weight 1, and none on (ab)^omega
    path = str(DATA / "counting_finite.grm")
    for lasso, want in ((":a", "1\n"), (":ab", "0\n"), ("b:a", "0\n")):
        assert main(["eval", path, "--lasso", lasso]) == EXIT_OK
        assert capsys.readouterr().out == want, lasso


@pytest.mark.parametrize("route", ["direct", "mixed", "folded", "automaton"])
@pytest.mark.parametrize(
    "name, want",
    [
        # one run of weight 1
        ("counting_unit_loop.grm", "1"),
        # one run of weight 2^omega = inf
        ("counting_weighted_loop.grm", "inf"),
        # uncountably many runs of weight 1 through z1
        ("counting_two_loops.grm", "inf"),
    ],
)
def test_counting_lasso_values_agree_on_every_route(name, want, route, tmp_path, capsys):
    path = str(TEST_DATA / name)
    if route != "direct":
        nf = str(tmp_path / "nf.grm")
        target = "mixed" if route == "mixed" else "omega"
        assert main(["gnf", path, "--target", target, "--out", nf]) == EXIT_OK
        path = nf
    if route == "automaton":
        auto = str(tmp_path / "auto.json")
        assert main(["build-pda", path, "--out", auto]) == EXIT_OK
        path = auto
    capsys.readouterr()
    assert main(["eval", path, "--lasso", ":a"]) == EXIT_OK
    assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("route", ["grammar", "automaton"])
def test_letter_free_entries_of_the_buchi_variable_count(route, tmp_path, capsys):
    # on b^omega eps_z_cycle.grm enters its Buchi variable z1 only by
    # letter-free steps, and each a of the prefix costs 1
    path = str(TEST_DATA / "eps_z_cycle.grm")
    if route == "automaton":
        nf, auto = str(tmp_path / "nf.grm"), str(tmp_path / "auto.json")
        assert main(["gnf", path, "--out", nf]) == EXIT_OK
        assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
        path = auto
    capsys.readouterr()
    for lasso, want in ((":b", "0\n"), ("a:b", "1\n"), ("aa:b", "2\n")):
        assert main(["eval", path, "--lasso", lasso]) == EXIT_OK
        assert capsys.readouterr().out == want, lasso


def long_zero_gain_eps_cycle(n=130):
    """Arctic x_i = x_{i+1} round a cycle of n variables, x1 also deriving a
    and x_n the empty word at weight 5: the cycle gains nothing, and the
    weight 5 takes a Kleene round per variable to reach x1."""
    lines = ["@semiring arctic", "@alphabet a", "@sort x " + " ".join(f"x{i}" for i in range(1, n + 1))]
    lines += ["x1 = x2 | a"] + [f"x{i} = x{i + 1}" for i in range(2, n)] + [f"x{n} = x1 | (5) eps"]
    return "\n".join(lines) + "\n"


def test_a_long_zero_gain_eps_cycle_settles_on_the_finite_route(tmp_path, capsys):
    text = long_zero_gain_eps_cycle()
    series = least_solution_finite(parse_grammar(text).system.x, 1)[0]
    assert series.coeff(()).value == 5 and series.coeff(("a",)).value == 0
    assert main(["eval", grm(tmp_path, text), "--word", "a"]) == EXIT_OK
    assert capsys.readouterr().out == "0\n"


def test_a_long_zero_gain_eps_cycle_has_a_normal_form(tmp_path, capsys):
    path, nf = grm(tmp_path, long_zero_gain_eps_cycle()), str(tmp_path / "nf.grm")
    assert main(["gnf", path, "--target", "mixed", "--out", nf]) == EXIT_OK
    assert main(["eval", nf, "--word", "a"]) == EXIT_OK
    assert capsys.readouterr().out == "0\n"


def test_fork_grammar_and_its_automaton_count_every_push_choice(tmp_path, capsys):
    # S = a S X | a S Y | c with X = b and Y = b: each a pushes one of two
    # stack symbols that both pop on b, so a^n c b^n has 2^n derivations,
    # and the automaton's runs hold 2^n distinct stacks after the c
    path, auto = str(TEST_DATA / "fork.grm"), str(tmp_path / "fork.json")
    assert main(["build-pda", path, "--start", "S", "--out", auto]) == EXIT_OK
    capsys.readouterr()
    for n in range(11):
        word = "a" * n + "c" + "b" * n
        for source in (path, auto):
            assert main(["eval", source, "--word", word]) == EXIT_OK
            assert capsys.readouterr().out == f"{2 ** n}\n", (source, n)


def test_omega_normal_form_keeps_the_finite_part_of_the_source(tmp_path, capsys):
    source, nf = str(DATA / "tropical_mixed.grm"), str(tmp_path / "nf.grm")
    assert main(["eval", source, "--word", "ab"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"
    assert main(["gnf", source, "--out", nf]) == EXIT_OK
    assert main(["eval", nf, "--word", "ab"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("target", ["mixed", "omega"])
def test_greibach_shaped_grammar_with_an_empty_word_rule_is_normalized(target, tmp_path, capsys):
    # eps_greibach.grm is in Greibach shape but for x1's empty-word rule, so
    # gnf must not write it back: build-pda needs a normal form without one
    source = str(TEST_DATA / "eps_greibach.grm")
    nf, auto = str(tmp_path / "nf.grm"), str(tmp_path / "auto.json")
    assert main(["gnf", source, "--target", target, "--out", nf]) == EXIT_OK
    assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
    capsys.readouterr()
    words = ["".join(w) for n in (1, 2, 3) for w in itertools.product("ab", repeat=n)]
    queries = [["--word", w] for w in words]
    queries += [["--lasso", w] for w in (":a", ":b", "a:ab", "b:a", "ab:b", "aa:ba")]
    for query in queries:
        assert main(["eval", source, *query]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["eval", auto, *query]) == EXIT_OK
        assert capsys.readouterr().out == want, query


def test_mixed_normal_form_normalizes_the_source_x_variables_once(capsys):
    # the finite part travels in the decomposition, so the source's x1 is
    # one variable of the one normalized system, not a second copy of it
    assert main(["gnf", str(TEST_DATA / "eps_greibach.grm"), "--target", "mixed"]) == EXIT_OK
    assert parse_grammar(capsys.readouterr().out).system.x.variables == ("x1",)


def test_build_pda_builds_the_unpaired_mixed_normal_form(tmp_path, capsys):
    # gnf --target mixed writes more z- than x-variables here; build-pda
    # reads that file as it is.  The source itself is not in Greibach form,
    # so build-pda refuses it with one error line.
    source = str(DATA / "tropical_mixed.grm")
    nf, auto = str(tmp_path / "nf.grm"), str(tmp_path / "auto.json")
    assert main(["build-pda", source, "--out", auto]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "run the normal form first" in err
    assert main(["gnf", source, "--target", "mixed", "--out", nf]) == EXIT_OK
    g = parse_grammar((tmp_path / "nf.grm").read_text())
    assert len(g.system.x.variables) != len(g.system.z_vars)
    assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
    capsys.readouterr()
    queries = [["--word", "".join(w)] for n in (1, 2) for w in itertools.product("abc", repeat=n)]
    queries += [["--lasso", w] for w in (":c", "ab:c", "aabb:c", "a:c", "ab:ab", "abc:c")]
    for query in queries:
        assert main(["eval", source, *query]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["eval", auto, *query]) == EXIT_OK
        assert capsys.readouterr().out == want, query


@pytest.mark.parametrize("source", [DATA / "tropical_mixed.grm", TEST_DATA / "z_only_pairs.grm"])
def test_build_pda_writes_one_state_per_variable_of_an_unpaired_mixed_normal_form(
    source, tmp_path, capsys
):
    # no fold: the states are the z- and x-variables and the sink, and the
    # initial weight sits on the z-variable the file selects and on its
    # @finite x-variable.  z_only_pairs.grm has no finite part, so its
    # normal form has no @finite and its automaton one initial state.
    nf, auto = str(tmp_path / "nf.grm"), str(tmp_path / "auto.json")
    assert main(["gnf", str(source), "--target", "mixed", "--out", nf]) == EXIT_OK
    assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
    g = parse_grammar(Path(nf).read_text())
    xs, zs = g.system.x.variables, g.system.z_vars
    assert len(xs) != len(zs)
    _, x, z, _ = _selection(g)
    assert (x is None) == (g.finite is None) == (source.name == "z_only_pairs.grm")
    a = pda_from_json(Path(auto).read_text())
    assert a.matrix.n_states == len(zs) + len(xs) + 1
    assert a.matrix.n_states == {"tropical_mixed.grm": 8, "z_only_pairs.grm": 11}[source.name]
    starts = [name for name, w in zip(a.state_names, a.initial) if not w.is_zero()]
    assert starts == [f"z:{zs[z]}"] + ([] if x is None else [f"x:{xs[x]}"])
    capsys.readouterr()
    letters = g.terminals
    words = ["".join(w) for n in range(4) for w in itertools.product(letters, repeat=n)]
    queries = [["--word", " ".join(w)] for w in words] + [["--lasso", ":a"], ["--lasso", "a:b"]]
    for query in queries:
        assert main(["eval", str(source), *query]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["eval", auto, *query]) == EXIT_OK
        assert capsys.readouterr().out == want, query


def _z_only_grammar(rng, semiring):
    """Two or three z-variables and no x-variable; each rule is one or two
    letters before a z-variable, weighted 0, 1 or 2 (1 or 2 over counting,
    where 0 is zero)."""
    zs = [f"z{i}" for i in range(1, rng.choice((2, 3)) + 1)]
    weights = {"boolean": ("",), "counting": ("(1) ", "(2) ")}.get(semiring, ("(0) ", "(1) ", "(2) "))
    lines = [
        f"@semiring {semiring}",
        "@alphabet a b",
        "@sort z " + " ".join(zs),
        f"@start {rng.choice(zs)}",
        f"@buchi {rng.randint(0, len(zs))}",
    ]
    for z in zs:
        words = {" ".join(rng.choices("ab", k=rng.randint(1, 2))) + f" {rng.choice(zs)}" for _ in range(2)}
        lines.append(f"{z} = " + " | ".join(rng.choice(weights) + w for w in sorted(words)))
    return "\n".join(lines) + "\n"


def test_normal_forms_of_a_grammar_without_x_variables_have_a_zero_finite_part(tmp_path, capsys):
    # the source has no finite part, so both normal forms and their automata
    # must read zero on every finite word: the mixed output has no @finite
    # and no made-up zero x-variable
    words = ["".join(w) for n in (1, 2) for w in itertools.product("ab", repeat=n)]
    through_pipeline, wrong = 0, []
    for case in range(120):
        rng = random.Random(f"z-only/{case}")
        inst = (BOOLEAN, TROPICAL, ARCTIC, COUNTING)[case % 4]
        zero = SemiringInstance.format_value(inst.zero)
        text = _z_only_grammar(rng, inst.name)
        if is_gnf_mixed(parse_grammar(text).system):
            continue  # written back unchanged, with no x-variable to read
        through_pipeline += 1
        source = grm(tmp_path, text)
        files = []
        for target in ("mixed", "omega"):
            nf, auto = str(tmp_path / f"{target}.grm"), str(tmp_path / f"{target}.json")
            assert main(["gnf", source, "--target", target, "--out", nf]) == EXIT_OK
            assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
            files += [nf, auto]
        assert parse_grammar(Path(files[0]).read_text()).finite is None
        capsys.readouterr()
        for w in words:
            got = []
            for path in files:
                # eval --word, without building the argument parser for every query
                assert cmd_eval(Namespace(path=path, word=w, lasso=None, buchi=None, component=None)) == EXIT_OK
                got.append(capsys.readouterr().out.strip())
            if got != [zero] * 4:
                wrong.append((case, w, got))
    assert through_pipeline >= 100, through_pipeline
    assert not wrong, wrong[:5]


@pytest.mark.parametrize(
    "name",
    ["z_only_pairs", "counting_unit_loop", "counting_two_loops", "counting_weighted_loop"],
)
def test_z_only_fixture_normal_forms_agree_with_the_source(name, tmp_path, capsys):
    # no x-variable: the source, both normal forms and their automata weigh
    # every word at zero, and every lasso as the source does
    source = str(TEST_DATA / f"{name}.grm")
    a, b = (parse_grammar(Path(source).read_text()).terminals * 2)[:2]
    files = []
    for target in ("mixed", "omega"):
        nf, auto = str(tmp_path / f"{target}.grm"), str(tmp_path / f"{target}.json")
        assert main(["gnf", source, "--target", target, "--out", nf]) == EXIT_OK
        assert main(["build-pda", nf, "--out", auto]) == EXIT_OK
        files += [nf, auto]
    capsys.readouterr()
    for w in (a, a + b, b + a):
        for path in [source] + files:
            assert main(["eval", path, "--word", w]) == EXIT_OK
            assert capsys.readouterr().out == "0\n", (path, w)
    for lasso in (f":{a}", f"{a}:{b}", f":{a}{b}"):
        assert main(["eval", source, "--lasso", lasso]) == EXIT_OK
        want = capsys.readouterr().out
        for path in files:
            assert main(["eval", path, "--lasso", lasso]) == EXIT_OK
            assert capsys.readouterr().out == want, (path, lasso)


def _with_unread_x(text, first):
    """`text` with one more x-variable xu = <first letter>, which no rule
    reads, declared first or last among the x-variables.  A file without
    z-variables, @start or @finite reads its first x-variable, so there xu
    goes second instead of first."""
    g = parse_grammar(text)
    assert "xu" not in g.system.x.variables
    lines = text.splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("@sort x ")]
    names = lines[i].split()[2:]
    reads_first = not (g.system.z_vars or g.start or g.finite)
    at = (1 if reads_first else 0) if first else len(names)
    lines[i] = " ".join(["@sort", "x", *names[:at], "xu", *names[at:]])
    return "\n".join(lines + [f"xu = {g.terminals[0]}"]) + "\n"


def _eval_answers(path, queries, capsys):
    answers = []
    for kind, query in queries:
        args = Namespace(path=path, word=None, lasso=None, buchi=None, component=None)
        setattr(args, kind, query)
        assert cmd_eval(args) == EXIT_OK, (path, query)
        answers.append(capsys.readouterr().out)
    return answers


UNREAD_X_FIXTURES = sorted(
    path
    for path in [*DATA.glob("*.grm"), *TEST_DATA.glob("*.grm")]
    if any(line.startswith("@sort x ") for line in path.read_text().splitlines())
)


@pytest.mark.parametrize("path", UNREAD_X_FIXTURES, ids=lambda p: p.name)
def test_an_unread_x_variable_changes_no_answer(path, tmp_path, capsys):
    # which x-variable is the finite part is a fact of the file (@finite),
    # not of how many variables it declares: an x-variable that no rule
    # reads, declared first or last, leaves every word and lasso value, of
    # the source and of its mixed normal form
    text = path.read_text()
    g = parse_grammar(text)
    letters = g.terminals
    queries = [
        ("word", " ".join(w) + " ") for n in (1, 2, 3) for w in itertools.product(letters, repeat=n)
    ]
    if g.system.z_vars:
        queries.append(("lasso", f":{letters[0]} "))
    want = _eval_answers(str(path), queries, capsys)
    for first in (True, False):
        source, nf = grm(tmp_path, _with_unread_x(text, first)), str(tmp_path / "nf.grm")
        assert _eval_answers(source, queries, capsys) == want, first
        assert main(["gnf", source, "--target", "mixed", "--out", nf]) == EXIT_OK
        assert _eval_answers(nf, queries, capsys) == want, first


# -- variable names on the command line and malformed automata -------------------


def test_unknown_component_or_start_exits_1_naming_it(tmp_path, capsys):
    # an @start that names no declared variable is a syntax error instead,
    # which test_directives_naming_no_declared_variable_of_their_sort_exit_2 pins
    tropical = str(DATA / "tropical_mixed.grm")
    boolean = grm(tmp_path, BOOLEAN_GRM)
    for args in (
        ["gnf", tropical, "--component", "nope"],
        ["eval", tropical, "--lasso", ":c", "--component", "nope"],
        ["eval", tropical, "--word", "ab", "--component", "z1"],
        ["eval", boolean, "--lasso", "ab:ab", "--component", "q"],
        ["gnf", boolean, "--component", "q"],
        ["build-pda", tropical, "--start", "nope"],
    ):
        assert main(args) == EXIT_FAIL, args
        assert capsys.readouterr().err == f"error: unknown start variable {args[-1]!r}\n"


def test_component_names_a_variable_of_the_sort_asked_for(tmp_path, capsys):
    tropical = str(DATA / "tropical_mixed.grm")
    # the word branch reads x-variables, the lasso branch z-variables
    assert main(["eval", tropical, "--word", "ab", "--component", "x1"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"
    # an omega grammar's components are its y-variables, and so is its start
    ystart = grm(tmp_path, "@semiring boolean\n@alphabet a b\n@sort y y1 y2\n@start y2\n"
                 "y1 = a y1\ny2 = b y2 | b\n", name="ystart.grm")
    for args in ([], ["--component", "y2"]):
        assert main(["eval", ystart, "--word", "b"] + args) == EXIT_OK
        assert capsys.readouterr().out == "1\n"
    assert main(["gnf", str(DATA / "boolean_omega.grm"), "--component", "y2"]) == EXIT_OK
    by_option = capsys.readouterr().out
    started = grm(tmp_path, BOOLEAN_GRM.replace("@start y1", "@start y2"))
    assert main(["gnf", started]) == EXIT_OK
    assert capsys.readouterr().out == by_option


def _without(directive):
    return lambda text: "".join(l for l in text.splitlines(True) if not l.startswith(directive))


@pytest.mark.parametrize(
    "name, edit, query, want",
    [
        # no @buchi: the automaton takes min(1, m) as eval does
        ("counting_finite.grm", None, ["--lasso", ":a"], "1"),
        # the file's @finite x2
        ("contrast_mixed.grm", None, ["--word", "a"], "0"),
        ("contrast_mixed.grm", None, ["--word", "aa"], "1"),
        # @start x1 sets the x-index only: the z-index stays at the last, z2
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start x1"), ["--word", "a"], "1"),
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start x1"), ["--lasso", ":c"], "0"),
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start x1"), ["--lasso", "a:c"], "1"),
        # and @start z1 sets the z-index only
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start z1"), ["--lasso", ":c"], "1"),
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start z1"), ["--lasso", "a:c"], "0"),
        ("contrast_mixed.grm", lambda t: t.replace("@start z2", "@start z1"), ["--word", "aa"], "1"),
        ("contrast_mixed.grm", _without("@buchi"), ["--lasso", "a:c"], "1"),
        # a normal form without @start selects its last component on both routes
        ("tropical_mixed.grm gnf", _without("@start"), ["--lasso", "aabb:c"], "2"),
    ],
    ids=[
        "counting-no-buchi-:a",
        "contrast-word-a",
        "contrast-word-aa",
        "contrast-start-x1-word-a",
        "contrast-start-x1-:c",
        "contrast-start-x1-a:c",
        "contrast-start-z1-:c",
        "contrast-start-z1-a:c",
        "contrast-start-z1-word-aa",
        "contrast-no-buchi-a:c",
        "tropical-gnf-no-start-aabb:c",
    ],
)
def test_grammar_and_its_automaton_read_the_same_component(name, edit, query, want, tmp_path, capsys):
    name, *via_gnf = name.split()
    if via_gnf:
        assert main(["gnf", str(DATA / name)]) == EXIT_OK
        text = capsys.readouterr().out
    else:
        text = (DATA / name).read_text()
    path = grm(tmp_path, edit(text) if edit else text)
    auto = str(tmp_path / "auto.json")
    assert main(["build-pda", path, "--out", auto]) == EXIT_OK
    for source in (path, auto):
        assert main(["eval", source, *query]) == EXIT_OK
        assert capsys.readouterr().out == want + "\n", source


def automaton_doc(tmp_path):
    out = tmp_path / "auto.json"
    assert main(["build-pda", grm(tmp_path, CONTRAST_GRM), "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda d: d["neutral"][0].__setitem__(1, "nosuch"),
            "names unknown state 'nosuch'",
            id="unknown-target",
        ),
        pytest.param(
            lambda d: d["pop"][0]["from"][0].__setitem__(0, "nosuch"),
            "names unknown state 'nosuch'",
            id="unknown-source",
        ),
        pytest.param(
            lambda d: d.__setitem__("pop", {"Z:z2": [["nosuch", "z:z2", "a", 1]]}),
            "pop 'Z:z2' entry ['nosuch', 'z:z2', 'a', 1] names unknown state 'nosuch'",
            id="unknown-source-row-major",
        ),
        pytest.param(
            lambda d: d["pop"][0]["to"].__setitem__("Z:z2", "nosuch"),
            "pop group 0 pops 'Z:z2' into unknown state 'nosuch'",
            id="unknown-pop-target",
        ),
        pytest.param(
            lambda d: d["pop"].append(d["pop"][0]),
            "pop group 1 pops 'X:x1' into 'x:x1' a second time",
            id="pop-target-twice",
        ),
        pytest.param(
            lambda d: d["pop"][0].pop("to"),
            "pop group 0 must be an object with 'from' and 'to' keys",
            id="pop-group-without-targets",
        ),
        pytest.param(
            lambda d: d["pop"][0]["from"][0].pop(),
            "is not [src, letter, weight]",
            id="short-pop-entry",
        ),
        pytest.param(
            lambda d: d.__setitem__("pop", 5),
            "'pop' must be a list of pop groups",
            id="pop-not-a-list",
        ),
        pytest.param(lambda d: d.pop("pop"), "automaton JSON has no 'pop' key", id="no-pop"),
        pytest.param(
            lambda d: d.pop("states"), "automaton JSON has no 'states' key", id="no-states"
        ),
        pytest.param(
            lambda d: d["neutral"][0].pop(), "is not [src, dst, letter, weight]", id="short-entry"
        ),
        pytest.param(
            lambda d: d["push"].__setitem__("Z:z2", [["z:z2", "x:x1", "a"]]),
            "push 'Z:z2' entry ['z:z2', 'x:x1', 'a'] is not [src, dst, letter, weight]",
            id="short-push-entry",
        ),
        pytest.param(
            lambda d: d.__setitem__("push", []),
            "'push' must map stack symbols to transitions",
            id="push-not-an-object",
        ),
        pytest.param(
            lambda d: d.__setitem__("semiring", "nope"),
            "'semiring': unknown semiring 'nope'",
            id="unknown-semiring",
        ),
        pytest.param(
            lambda d: d["neutral"][0].__setitem__(3, "heavy"),
            "has a bad weight: 'heavy' is not an integer",
            id="transition-weight-not-a-number",
        ),
        pytest.param(
            lambda d: d["neutral"][0].__setitem__(3, 0),
            "zero weight from state",
            id="zero-transition-weight",
        ),
        pytest.param(
            lambda d: d["initial"].__setitem__(0, "one"),
            "'initial' has a bad weight: 'one' is not an integer",
            id="initial-weight-not-a-number",
        ),
        pytest.param(
            lambda d: d.__setitem__("buchi_count", "x"),
            "'buchi_count' must be an integer or null, got 'x'",
            id="buchi-count-not-an-integer",
        ),
        pytest.param(
            lambda d: d.__setitem__("states", 5),
            "'states' must be a list of names, got 5",
            id="states-not-a-list",
        ),
        pytest.param(
            lambda d: d.__setitem__("input_alphabet", 7),
            "'input_alphabet' must be a list of names, got 7",
            id="input-alphabet-not-a-list",
        ),
        pytest.param(
            lambda d: d["states"].__setitem__(1, "z:z1"),
            "'states' names 'z:z1' twice",
            id="duplicate-state",
        ),
        pytest.param(
            lambda d: d["input_alphabet"].append("a"),
            "'input_alphabet' names 'a' twice",
            id="duplicate-input-letter",
        ),
        pytest.param(
            lambda d: d["stack_alphabet"].append("Z:z2"),
            "'stack_alphabet' names 'Z:z2' twice",
            id="duplicate-stack-symbol",
        ),
        pytest.param(
            lambda d: d.update(
                states=["p", "p"], input_alphabet=["a"], stack_alphabet=[],
                neutral=[["p", "p", "a", 1]], push={}, pop={}, initial=[1, 0], final=[0, 1],
            ),
            "'states' names 'p' twice",
            id="duplicate-state-self-loop",
        ),
    ],
)
def test_malformed_automaton_json_exits_1(edit, message, tmp_path, capsys):
    doc = automaton_doc(tmp_path)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path), "--word", "a"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
