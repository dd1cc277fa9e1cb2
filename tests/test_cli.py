"""End-to-end checks of the command-line front end via run(argv)."""

import os
import shlex
from pathlib import Path

import pytest

import itu.rank1
from itu import format_substitution, format_tiling, parse_substitution, parse_type, verify
from itu import parse_constraints
from itu import cli
from itu.cli import run


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDeciders:
    def test_subtype_yes(self, capsys):
        assert run(["subtype", "a & b", "a"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_subtype_no(self, capsys):
        assert run(["subtype", "a", "b"]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_equal(self):
        assert run(["equal", "a & a", "a"]) == 0
        assert run(["equal", "a", "a -> a"]) == 1

    def test_parse_error_is_usage(self, capsys):
        assert run(["subtype", "a ->", "b"]) == 2
        assert "error" in capsys.readouterr().err

    def test_too_deep_for_the_decider_is_an_error_not_no(self, capsys):
        # two 10^4-deep chains that differ only in the innermost constant:
        # the decider follows both to the bottom
        chain = " -> ".join(["a"] * 10**4)
        assert run(["subtype", chain, chain[:-1] + "b"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        # the chain against a is decided at its root: a chain that
        # omega_collapse keeps needs no walk
        assert run(["subtype", chain, "a"]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_deep_chain_organizes_at_the_default_recursion_limit(self, capsys):
        chain = " -> ".join(["a"] * 10**5)
        assert run(["organize", chain]) == 0
        assert capsys.readouterr().out == chain + "\n"

    def test_organize_to_file(self, tmp_path):
        out = tmp_path / "o.txt"
        assert run(["organize", "a -> b & c", "-o", str(out)]) == 0
        assert parse_type(out.read_text().strip()) is parse_type(
            "(a -> b) & (a -> c)"
        )


class TestVerify:
    def test_yes_and_no(self, tmp_path):
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        good = write(tmp_path / "s1.txt", "'al := a & (a -> a)\n")
        bad = write(tmp_path / "s2.txt", "'al := a\n")
        assert run(["verify", cs, good]) == 0
        assert run(["verify", cs, bad]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            # a second binding must not silently replace the first
            ("'al := a & (a -> a)\n'al := a\n", "line 2: \"'al\" is bound twice"),
            ("' := a\n", "line 1: expected a variable name after \"'\", found ''"),
            ("'' := a\n", "line 1: expected a variable name after \"'\", found \"'\""),
            ("'al y := a\n", "line 1: expected a variable name after \"'\", found 'al y'"),
            ("'omega := a\n", "line 1: 'omega' is reserved and cannot name a variable"),
        ],
    )
    def test_malformed_variable_name_is_an_input_error(self, tmp_path, capsys, text, message):
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        sub = write(tmp_path / "s.txt", text)
        assert run(["verify", cs, sub]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMatch:
    def test_satisfiable(self, tmp_path, capsys):
        f = write(tmp_path / "f.cnf", "p cnf 1 1\n1 1 1 0\n")
        out = tmp_path / "sub.txt"
        assert run(["match", f, "-o", str(out)]) == 0
        assert "x1=1" in capsys.readouterr().out
        parse_substitution(out.read_text())  # well-formed

    def test_unsatisfiable(self, tmp_path, capsys):
        f = write(tmp_path / "f.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
        assert run(["match", f]) == 1
        assert "unsat" in capsys.readouterr().out


# a small winning system keeps the serialized substitutions tiny; the
# big golden system runs through the CLI in TestGoldenPipeline
@pytest.fixture
def tiny_winner():
    from itu import make_system

    full = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    return make_system(("a", "b"), full, full, ("a",), ("b",), 1)


class TestGamePipeline:
    def test_full_pipeline(self, tmp_path, tiny_winner, capsys):
        tiling = write(tmp_path / "t.txt", format_tiling(tiny_winner))
        strat = tmp_path / "f.txt"
        assert run(["solve-game", tiling, "-o", str(strat)]) == 0

        cs_path = tmp_path / "cs.txt"
        assert run(["reduce", tiling, "-o", str(cs_path)]) == 0
        assert len(parse_constraints(cs_path.read_text())) == 3

        sub_path = tmp_path / "s.txt"
        assert (
            run(
                [
                    "compile-strategy",
                    tiling,
                    str(strat),
                    "--override",
                    "-o",
                    str(sub_path),
                ]
            )
            == 0
        )
        assert verify(
            parse_substitution(sub_path.read_text()),
            parse_constraints(cs_path.read_text()),
        )

        assert run(["play", tiling, str(sub_path), "--seed", "3"]) == 0
        assert "win by" in capsys.readouterr().out

    def test_ct_prime_variant(self, tmp_path, tiny_winner):
        tiling = write(tmp_path / "t.txt", format_tiling(tiny_winner))
        strat = tmp_path / "f.txt"
        run(["solve-game", tiling, "-o", str(strat)])
        cs_path = tmp_path / "cs.txt"
        assert run(["reduce", tiling, "--variant", "ct-prime", "-o", str(cs_path)]) == 0
        sub_path = tmp_path / "s.txt"
        assert (
            run(
                [
                    "compile-strategy",
                    tiling,
                    str(strat),
                    "--variant",
                    "ct-prime",
                    "--override",
                    "-o",
                    str(sub_path),
                ]
            )
            == 0
        )
        assert verify(
            parse_substitution(sub_path.read_text()),
            parse_constraints(cs_path.read_text()),
        )

    def test_negative_horizon_is_a_usage_error(self, tmp_path, tiny_winner, capsys):
        tiling = write(tmp_path / "t.txt", format_tiling(tiny_winner))
        assert run(["solve-game", tiling, "--horizon", "-3"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be at least 0, got -3" in out.err
        # 0 is still no horizon
        assert run(["solve-game", tiling, "--horizon", "0"]) == 0

    def test_no_strategy(self, tmp_path, spiral_loser, capsys):
        tiling = write(tmp_path / "t.txt", format_tiling(spiral_loser))
        assert run(["solve-game", tiling]) == 1
        assert "no winning strategy" in capsys.readouterr().out

    def test_compile_without_override_fails(self, tmp_path, spiral_winner):
        tiling = write(tmp_path / "t.txt", format_tiling(spiral_winner))
        strat = tmp_path / "f.txt"
        run(["solve-game", tiling, "-o", str(strat)])
        assert run(["compile-strategy", tiling, str(strat)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tiles: a\nbottom: a\ntop: a\nn:\n", "'n:' line has no value"),
            ("tiles: a\nbottom: a\ntop: a\nn: 2 7\n", "'n:' line has more than one value: 2 7"),
            ("tiles: a\nh: a a\nv: a a\nbottom:\ntop:\nn: 0\n", "n must be positive"),
        ],
    )
    def test_malformed_n_is_an_input_error(self, tmp_path, capsys, text, message):
        tiling = write(tmp_path / "t.txt", text)
        assert run(["solve-game", tiling]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_play_with_a_non_solution_is_a_no(self, tmp_path, capsys):
        # the README's n=2 winner with every variable omega: no extraction
        # case applies, so the substitution does not solve CT
        tiling = write(tmp_path / "t.txt", README_FILES["spiral.tiling"])
        sub = write(tmp_path / "s.txt", "'alpha := omega\n'beta_a := omega\n'beta_b := omega\n")
        assert run(["play", tiling, sub]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("no: the substitution does not solve CT: ")
        assert out.err.count("\n") == 1


class TestSharedNames:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("'al := $1\n", "undefined name '$1'"),
            ("$1 := a\n$1 := a & (a -> a)\n'al := $1\n", "'$1' is defined twice"),
            ("'al := $1\n$1 := a & (a -> a)\n", "undefined name '$1'"),
        ],
    )
    def test_bad_substitution_file(self, tmp_path, capsys, text, message):
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        sub = write(tmp_path / "s.txt", text)
        assert run(["verify", cs, sub]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_shared_file_verifies(self, tmp_path, capsys):
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        sub = write(tmp_path / "s.txt", "$1 := a -> a\n'al := a & $1\n")
        assert run(["verify", cs, sub]) == 0
        assert capsys.readouterr().out == "yes\n"

    def test_name_in_a_constraint_file(self, tmp_path, capsys):
        cs = write(tmp_path / "cs.txt", "'al <= $1\n")
        sub = write(tmp_path / "s.txt", "'al := a\n")
        assert run(["verify", cs, sub]) == 2
        assert "shared name '$1' outside a substitution file" in capsys.readouterr().err

    def test_name_on_the_command_line(self, capsys):
        assert run(["subtype", "$1", "a"]) == 2
        assert "shared name '$1' outside a substitution file" in capsys.readouterr().err


class TestGoldenPipeline:
    def test_omega_free_golden_through_files(self, tmp_path, spiral_winner, capsys):
        # the n=5 golden's CT' substitution: alpha has 65,535 components,
        # and written as a tree the chain variables would repeat it 62 times
        tiling = write(tmp_path / "t.txt", format_tiling(spiral_winner))
        strat, sub, cs = (str(tmp_path / name) for name in ("f.txt", "s.txt", "cs.txt"))
        assert run(["solve-game", tiling, "-o", strat]) == 0
        argv = ["compile-strategy", tiling, strat, "--variant", "ct-prime", "--override", "-o", sub]
        assert run(argv) == 0
        assert os.path.getsize(sub) <= 5 * 10**6
        assert run(["reduce", tiling, "--variant", "ct-prime", "-o", cs]) == 0
        capsys.readouterr()
        assert run(["verify", cs, sub]) == 0
        assert capsys.readouterr().out == "yes\n"


class TestRank1:
    def test_solvable(self, tmp_path, capsys):
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        out = tmp_path / "s.txt"
        assert run(["rank1", cs, "--budget-depth", "7", "-o", str(out)]) == 0
        s = parse_substitution(out.read_text())
        assert verify(s, parse_constraints("'al <= 'al -> a"))

    def test_unsolvable(self, tmp_path, capsys):
        cs = write(tmp_path / "cs.txt", "a <= b\n")
        assert run(["rank1", cs]) == 1
        assert "none" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--budget-card", "0"), ("--budget-card", "-1"), ("--budget-depth", "0"),
    ])
    def test_non_positive_budget_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # a solvable instance: a budget that admits nothing must not read as "no"
        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        assert run(["rank1", cs, flag, value]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be at least 1" in out.err

    def test_long_branch_is_searched_at_the_default_recursion_limit(self, tmp_path, capsys):
        # one set variable per constraint: the search adds 1,100 elements
        cs = write(tmp_path / "cs.txt", "".join(f"'x_{i} <= a\n" for i in range(1100)))
        assert run(["rank1", cs]) == 0
        out = capsys.readouterr().out
        assert out.count(" := a\n") == 1100

    def test_fresh_prefix_is_an_input_error_not_no(self, tmp_path, capsys):
        # with 'x in place of '_fresh1 this instance solves
        cs = write(tmp_path / "cs.txt", "'_fresh1 <= '_fresh1 -> a\n")
        assert run(["rank1", cs]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: variable name '_fresh1' uses the reserved fresh prefix\n"

    def test_step_limit_is_an_error_not_no(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(itu.rank1, "_MAX_STEPS", 5)
        cs = write(tmp_path / "cs.txt", "".join(f"'x_{i} <= a\n" for i in range(10)))
        assert run(["rank1", cs]) == 2
        assert capsys.readouterr().err == "error: rank1_transform exceeded its step limit\n"


class TestAxioms:
    def test_fuzz_run(self, capsys):
        assert run(["axioms", "--trials", "50", "--seed", "1"]) == 0
        assert "sound" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_no_trials_is_a_usage_error(self, capsys, value):
        # no trial checks nothing, so "ok" would be a false claim
        assert run(["axioms", "--trials", value]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"must be at least 1, got {int(value)}" in out.err


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_one_parser_serves_every_call(self, tmp_path, spiral_winner, monkeypatch, capsys):
        # a parse that fails, one that exits through --help, and options
        # given on one call and left out on the next: none of them may
        # leave anything behind for the next call
        builds = []
        real = cli.build_parser

        def counting_build():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_parser", None)

        assert run(["subtype", "a"]) == 2
        assert "the following arguments are required: rhs" in capsys.readouterr().err
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: itu ")

        # the n=5 golden is past compile-strategy's size guard
        tiling = write(tmp_path / "t.txt", format_tiling(spiral_winner))
        strat, sub = str(tmp_path / "f.txt"), str(tmp_path / "s.txt")
        assert run(["solve-game", tiling, "-o", strat]) == 0
        assert run(["compile-strategy", tiling, strat, "--override", "-o", sub]) == 0
        assert run(["compile-strategy", tiling, strat, "-o", sub]) == 2
        assert "pass override=True to proceed" in capsys.readouterr().err

        cs = write(tmp_path / "cs.txt", "'al <= 'al -> a\n")
        assert run(["rank1", cs, "--budget-card", "1", "--budget-depth", "1"]) == 1
        assert capsys.readouterr().out == "none\n"
        assert run(["rank1", cs]) == 0
        assert capsys.readouterr().out == "'al := a & (a -> a)\n"

        assert len(builds) == 1


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("itu ")]


# the files the README's CLI block names; spiral.tiling is a small winner
README_FILES = {
    "spiral.tiling": "tiles: a b\nh: a a\nh: a b\nh: b a\nh: b b\n"
    "v: a b\nv: b a\nv: b b\nbottom: a a\ntop: b a\nn: 2\n",
    "c.txt": "'al <= 'al -> a\n",
    "s.txt": "'al := a & (a -> a)\n",
    "formula.cnf": "p cnf 2 2\n1 2 2 0\n-1 2 2 0\n",
}


def test_readme_shared_substitution_example():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = text.split("name shared subterms", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    assert format_substitution(parse_substitution(example), shared=True) == example


def test_readme_cli_block_matches_parser(tmp_path, monkeypatch, capsys):
    # every line in order, as a reader would run them in one directory:
    # each answers yes or no, none is a usage or input error
    for name, text in README_FILES.items():
        write(tmp_path / name, text)
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        code = run(shlex.split(line, comments=True)[1:])
        assert code in (0, 1), (line, capsys.readouterr().err)
