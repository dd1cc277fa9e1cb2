"""Command-line front end.

Exit codes: 0 affirmative answer / success, 1 negative answer, 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .types import TypeSyntaxError, organize, parse_type, print_type
from .subtyping import subtype, type_equal
from .axioms import ALL_AXIOMS, check_axiom_soundness
from .constraints import (
    format_constraints,
    format_substitution,
    parse_constraints,
    parse_substitution,
    verify,
)
from .gen import TypeGen
from .matching import (
    MatchBudget,
    extract_valuation,
    parse_dimacs,
    sat3_to_matching,
    solve_matching_bounded,
)
from .tiling import format_strategy, parse_strategy, parse_tiling, solve_spiral_game
from .reduction import (
    build_CT,
    build_CT_prime,
    compile_strategy,
    ExtractionError,
    extend_ct_prime,
    extract_play,
)
from .rank1 import solve_rank1


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_subtype(args) -> int:
    ok = subtype(parse_type(args.lhs), parse_type(args.rhs))
    print("yes" if ok else "no")
    return 0 if ok else 1


def _cmd_equal(args) -> int:
    ok = type_equal(parse_type(args.lhs), parse_type(args.rhs))
    print("yes" if ok else "no")
    return 0 if ok else 1


def _cmd_organize(args) -> int:
    _emit(print_type(organize(parse_type(args.type))) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    with open(args.constraints) as fh:
        cs = parse_constraints(fh.read())
    with open(args.substitution) as fh:
        sub = parse_substitution(fh.read())
    ok = verify(sub, cs)
    print("yes" if ok else "no")
    return 0 if ok else 1


def _cmd_match(args) -> int:
    with open(args.dimacs) as fh:
        f = parse_dimacs(fh.read())
    cs = sat3_to_matching(f)
    sub = solve_matching_bounded(cs, MatchBudget())
    if sub is None:
        print("unsatisfiable")
        return 1
    valuation = extract_valuation(sub, f)
    _emit(format_substitution(sub), args.output)
    print(" ".join(f"{x}={'1' if b else '0'}" for x, b in sorted(valuation.items())))
    return 0


def _cmd_solve_game(args) -> int:
    with open(args.tiling) as fh:
        t = parse_tiling(fh.read())
    f = solve_spiral_game(t, max_len=args.horizon)
    if f is None:
        print("no winning strategy")
        return 1
    _emit(format_strategy(f), args.output)
    return 0


def _cmd_reduce(args) -> int:
    with open(args.tiling) as fh:
        t = parse_tiling(fh.read())
    build = build_CT if args.variant == "ct" else build_CT_prime
    _emit(format_constraints(build(t)), args.output)
    return 0


def _cmd_compile_strategy(args) -> int:
    with open(args.tiling) as fh:
        t = parse_tiling(fh.read())
    with open(args.strategy) as fh:
        f = parse_strategy(fh.read())
    s = compile_strategy(t, f, override=args.override)
    if args.variant == "ct-prime":
        s = extend_ct_prime(t, s)
    _emit(format_substitution(s, shared=True), args.output)
    return 0


def _cmd_play(args) -> int:
    with open(args.tiling) as fh:
        t = parse_tiling(fh.read())
    with open(args.substitution) as fh:
        s = parse_substitution(fh.read())
    rng = random.Random(args.seed)

    def spoiler(seq):
        return rng.choice(t.tiles)

    outcome = extract_play(t, s, spoiler)
    print(f"win by {outcome.claim}: {' '.join(outcome.sequence)}")
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def check(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    check.__name__ = "int"  # argparse names it in "invalid int value"
    return check


def _cmd_rank1(args) -> int:
    with open(args.constraints) as fh:
        cs = parse_constraints(fh.read())
    sub = solve_rank1(cs, budget=(args.budget_card, args.budget_depth))
    if sub is None:
        print("none")
        return 1
    _emit(format_substitution(sub), args.output)
    return 0


def _cmd_axioms(args) -> int:
    gen = TypeGen(random.Random(args.seed))
    rng = gen.rng
    schemas = list(ALL_AXIOMS.values())
    checked = 0
    for _ in range(args.trials):
        schema = rng.choice(schemas)
        types = [gen.type(3) for _ in range(schema.arity)]
        try:
            ok = check_axiom_soundness(schema, types)
        except ValueError:
            continue  # partial schemas reject some instantiations
        checked += 1
        if not ok:
            print(f"UNSOUND: {schema.name} at {[print_type(t) for t in types]}")
            return 1
    print(f"ok: {checked} instances sound")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="itu", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("subtype")
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp.set_defaults(fn=_cmd_subtype)

    sp = sub.add_parser("equal")
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp.set_defaults(fn=_cmd_equal)

    sp = sub.add_parser("organize")
    sp.add_argument("type")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_organize)

    sp = sub.add_parser("verify")
    sp.add_argument("constraints")
    sp.add_argument("substitution")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("match")
    sp.add_argument("dimacs")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_match)

    sp = sub.add_parser("solve-game")
    sp.add_argument("tiling")
    # 0 is no horizon; a negative one would silently mean the same
    sp.add_argument("--horizon", type=_at_least(0), default=0)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_solve_game)

    sp = sub.add_parser("reduce")
    sp.add_argument("tiling")
    sp.add_argument("--variant", choices=["ct", "ct-prime"], default="ct")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("compile-strategy")
    sp.add_argument("tiling")
    sp.add_argument("strategy")
    sp.add_argument("--variant", choices=["ct", "ct-prime"], default="ct")
    sp.add_argument("--override", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_compile_strategy)

    sp = sub.add_parser("play")
    sp.add_argument("tiling")
    sp.add_argument("substitution")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_play)

    sp = sub.add_parser("rank1")
    sp.add_argument("constraints")
    # a budget below 1 admits no set element, so every answer would be a false "no"
    sp.add_argument(
        "--budget-card", type=_at_least(1), default=3,
        help="most elements of every set variable of a branch, the fresh ones included",
    )
    sp.add_argument(
        "--budget-depth", type=_at_least(1), default=6,
        help="greatest simple-type depth of an element of every set variable of a"
        " branch, the fresh ones included",
    )
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_rank1)

    sp = sub.add_parser("axioms")
    # no trials would check nothing and still print "ok"
    sp.add_argument("--trials", type=_at_least(1), default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_axioms)
    return p


# built on the first call to run, not at import; every option default is
# immutable, so one parser serves every later call in the process
_parser: argparse.ArgumentParser | None = None


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ExtractionError as e:
        # the substitution does not solve CT: a decided "no"
        print(f"no: the substitution does not solve CT: {e}", file=sys.stderr)
        return 1
    except (TypeSyntaxError, ValueError, OSError, RuntimeError) as e:
        # RuntimeError: an input nested deeper than a recursive layer
        # (printer, decider, organize of an input it must rebuild) can
        # follow, or a rank-1 branch past the transform's step limit;
        # exit 1 would read as "no"
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
