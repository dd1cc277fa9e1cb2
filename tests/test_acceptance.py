"""Acceptance gate: the nine primary criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as the
criteria complete; each test also enforces its own time budget.
"""

import gc
import random
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from itu import (
    INFINITY,
    OMEGA,
    ALL_AXIOMS,
    Arrow,
    MatchBudget,
    Sat3Instance,
    Substitution,
    apply,
    arrow,
    arrows,
    build_CT,
    build_CT_prime,
    check_axiom_soundness,
    compile_strategy,
    components,
    const,
    encode_constants_unary,
    enumerate_systems,
    extend_ct_prime,
    extract_play,
    extract_valuation,
    game_values,
    inter,
    leq,
    organize,
    parse_constraints,
    parse_type,
    sat3_to_matching,
    sat_brute_force,
    solve_matching_bounded,
    solve_rank1,
    solve_spiral_game,
    subtype,
    type_equal,
    verify,
)
from itu.gen import TypeGen
from itu.reduction import ALPHA, beta_name
from itu.types import Inter

from tests.test_rank1 import (
    lemma_contravariant,
    lemma_index_set,
    lemma_inter_inclusion,
    lemma_simple_eq,
)
from tests.test_reduction import constraint_omega_free


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}", flush=True)
        raise
    dt = time.perf_counter() - t0
    ok = dt <= budget_s
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
        f" ({dt:.2f}s / {budget_s:g}s budget)",
        flush=True,
    )
    assert ok, f"criterion {num} exceeded its {budget_s:g}s budget ({dt:.2f}s)"


def test_criterion_1_golden_organization():
    src = parse_type("((a & b -> a & b) -> a & b) -> a & b")
    expected = parse_type(
        "(((a & b -> a & b) -> a & b) -> a)"
        " & (((a & b -> a & b) -> a & b) -> b)"
    )
    with criterion(1, "golden organization", 0.001):
        got = organize(src)
    assert got is expected


def test_criterion_2_axiom_suite():
    rng = random.Random(2)
    g = TypeGen(rng)
    trials = 10_000
    with criterion(2, "subtyping axiom suite, 10^4 instantiations each", 30.0):
        # order-definition clauses
        for _ in range(trials):
            s, t, u = (g.type(rng.randint(0, 2)) for _ in range(3))
            assert subtype(inter([s, t]), s)
            assert subtype(s, OMEGA)
            assert subtype(
                inter([arrow(s, t), arrow(s, u)]), arrow(s, inter([t, u]))
            )
            if subtype(u, s) and subtype(t, u):
                assert subtype(arrow(s, t), arrow(u, u))
        assert subtype(OMEGA, arrow(OMEGA, OMEGA))
        # equational axiom schemas, base and join families
        for schema in ALL_AXIOMS.values():
            for _ in range(trials):
                if schema.name == "ABcap":
                    tgt = g.type(1)
                    args = [arrow(g.type(1), tgt), arrow(g.type(1), tgt)]
                else:
                    args = [g.type(rng.randint(0, 2)) for _ in range(schema.arity)]
                assert check_axiom_soundness(schema, args), schema.name


def _scaling_family(tag: str, n: int):
    a, b = const(f"a{tag}"), const(f"b{tag}")
    lhs = rhs = a
    for i in range(n):
        lhs = arrow(a if i % 2 else b, lhs)
        rhs = arrow(inter([a, b]), rhs)
    return lhs, rhs


def _run_with_deep_stack(fn):
    """The recursive decider needs frame headroom at depth 2^13."""
    box = {}

    def target():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000_000)
        try:
            box["value"] = fn()
        except BaseException as e:  # propagate to the test thread
            box["error"] = e
        finally:
            sys.setrecursionlimit(old)

    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=target)
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_criterion_3_quadratic_scaling():
    sizes = [2 ** k for k in range(8, 14)]

    def measure():
        medians = []
        for n in sizes:
            reps = []
            for r in range(3):
                lhs, rhs = _scaling_family(f"s{n}r{r}", n)
                # a full collection owed by earlier tests would otherwise
                # land inside one timed repetition
                gc.collect()
                t0 = time.perf_counter()
                assert subtype(lhs, rhs)
                reps.append(time.perf_counter() - t0)
            medians.append(statistics.median(reps))
        return medians

    with criterion(3, "quadratic subtype scaling 2^8..2^13", 600.0):
        medians = _run_with_deep_stack(measure)
        for small, big in zip(medians, medians[1:]):
            assert big <= 4.5 * max(small, 1e-4), (sizes, medians)


def _check_matching(f: Sat3Instance) -> None:
    want = sat_brute_force(f) is not None
    cs = sat3_to_matching(f)
    s = solve_matching_bounded(cs)
    assert (s is not None) == want, f
    if s is not None:
        v = extract_valuation(s, f)
        assert all(any(v[n] == p for n, p in cl) for cl in f.clauses)


def _check_single_constant(f: Sat3Instance) -> None:
    want = sat_brute_force(f) is not None
    enc = encode_constants_unary(sat3_to_matching(f), const("mark"))
    s = solve_matching_bounded(
        enc, MatchBudget(tower_depth=2 * len(f.variables))
    )
    assert (s is not None) == want, f


def test_criterion_4_matching_equivalence():
    rng = random.Random(4)
    with criterion(4, "matching <=> 3-SAT with brute-force oracle", 300.0):
        # exhaustive: every single clause over up to 3 variables
        for nv in (1, 2, 3):
            names = tuple(f"x{i + 1}" for i in range(nv))
            lits = [(n, p) for n in names for p in (True, False)]
            for cl in product(lits, repeat=3):
                _check_matching(Sat3Instance(names, (cl,)))
        # exhaustive: every unordered pair of clauses over 2 variables
        names = ("x1", "x2")
        lits = [(n, p) for n in names for p in (True, False)]
        clauses = list(product(lits, repeat=3))
        for c1, c2 in combinations(clauses, 2):
            _check_matching(Sat3Instance(names, (c1, c2)))
        # single-constant variant: all single clauses over 2 variables
        for cl in clauses:
            _check_single_constant(Sat3Instance(names, (cl,)))
        # fixed random corpus up to 8 variables and 10 clauses
        for _ in range(40):
            nv = rng.randint(1, 8)
            nc = rng.randint(1, 10)
            vnames = tuple(f"x{i + 1}" for i in range(nv))
            f = Sat3Instance(
                vnames,
                tuple(
                    tuple(
                        (rng.choice(vnames), rng.random() < 0.5)
                        for _ in range(3)
                    )
                    for _ in range(nc)
                ),
            )
            _check_matching(f)
        # guaranteed-unsatisfiable members at several sizes
        for nv in (3, 5, 8):
            vnames = tuple(f"x{i + 1}" for i in range(nv))
            cls = tuple(
                tuple((f"x{i + 1}", bool(b)) for i, b in enumerate(bits))
                for bits in product([0, 1], repeat=3)
            )
            _check_matching(Sat3Instance(vnames, cls))


def test_criterion_5_spiral_goldens(spiral_loser, spiral_winner):
    with criterion(5, "spiral game golden: no strategy for system 1", 1.0):
        assert solve_spiral_game(spiral_loser) is None
    with criterion(5, "spiral game golden: win within 9 for system 2", 1.0):
        f = solve_spiral_game(spiral_winner, max_len=14)
        assert f is not None
        assert game_values(spiral_winner)[spiral_winner.bottom] == 9


def _exhaustive_plays(t, s):
    """Replay extract_play against every Spoiler behaviour."""
    outcomes = []

    def go(prefix):
        consumed = 0

        def oracle(word):
            nonlocal consumed
            i = consumed
            consumed += 1
            return prefix[i] if i < len(prefix) else t.tiles[0]

        out = extract_play(t, s, oracle)
        if consumed <= len(prefix):
            outcomes.append(out)
        else:
            for d in t.tiles:
                go(prefix + (d,))

    go(())
    return outcomes


def _round_trip_one(t, certify_omega_free: bool) -> bool:
    """Returns whether Constructor wins; asserts the full correspondence."""
    f = solve_spiral_game(t)
    if f is None:
        assert game_values(t)[t.bottom] is INFINITY
        return False
    s = compile_strategy(t, f, override=True)
    assert verify(s, build_CT(t))
    cs2 = build_CT_prime(t)
    if certify_omega_free:
        assert constraint_omega_free(cs2)
    assert verify(extend_ct_prime(t, s), cs2)
    outs = _exhaustive_plays(t, s)
    assert outs and all(o.claim for o in outs)
    return True


def test_criterion_6_round_trip(spiral_loser, spiral_winner):
    with criterion(6, "strategy <=> substitution round trip", 600.0):
        assert not _round_trip_one(spiral_loser, certify_omega_free=True)
        assert _round_trip_one(spiral_winner, certify_omega_free=True)
        winners = 0
        for t in enumerate_systems(2, 2):
            # empty relations degenerate to omega via empty intersections,
            # so omega-freeness is only certified for nondegenerate systems
            winners += _round_trip_one(
                t, certify_omega_free=bool(t.h and t.v)
            )
        assert winners == 1538


def test_criterion_7_paper_solutions(ex55_constraints, ex55_solution):
    with criterion(7, "listed solutions verify, forbidden ones fail", 1.0):
        cs = parse_constraints("'al <= 'al -> a")
        for text in (
            "omega -> a",
            "a & (a -> a)",
            "((a & (a -> a)) -> a) -> a",
        ):
            assert verify(Substitution({"al": parse_type(text)}), cs)
        assert verify(ex55_solution, ex55_constraints)
        base = dict(ex55_solution.mapping)
        for name in ("b2", "b3", "al"):
            bad = dict(base)
            bad[name] = OMEGA
            assert not verify(Substitution(bad), ex55_constraints)


def test_criterion_8_rank1_solver(ex55_constraints):
    rng = random.Random(8)
    g = TypeGen(rng, allow_omega=False)
    with criterion(8, "rank-1 solver goldens and soundness fuzz", 300.0):
        cs = parse_constraints("'al <= 'al -> a")
        s = solve_rank1(cs, budget=(3, 7))
        assert s is not None and verify(s, cs)
        s = solve_rank1(ex55_constraints, budget=(3, 7))
        assert s is not None and verify(s, ex55_constraints)
        assert solve_rank1(parse_constraints("a <= b")) is None
        assert solve_rank1(parse_constraints("omega <= a")) is None
        solved = 0
        for _ in range(1_000):
            image = g.simple_intersection(2, width=2)
            template = g.type(rng.randint(0, 2))
            ground = apply(Substitution({"x": image, "y": image}), template)
            solvable = (leq(ground, template),)
            got = solve_rank1(solvable, budget=(2, 4))
            if got is not None:
                assert verify(got, solvable)
                solved += 1
        assert solved >= 300


def test_criterion_9_lemma_suites():
    rng = random.Random(9)
    simple_gen = TypeGen(rng, allow_vars=False, allow_omega=False)
    ground_gen = TypeGen(rng, allow_vars=False)
    with criterion(9, "simple-subtyping lemma suites, 10^4 trials each", 600.0):
        lemma_simple_eq(simple_gen, rng, trials=10_000)
        lemma_inter_inclusion(simple_gen, rng, trials=10_000)
        lemma_index_set(ground_gen, rng, trials=10_000)
        lemma_contravariant(simple_gen, rng, trials=10_000)
