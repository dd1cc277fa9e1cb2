"""Rank-1 unification: the transformation to set constraints, the
finite-set solver, and the simple-type subtyping lemmas it relies on."""

import hashlib
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import itu.rank1
from itu import (
    OMEGA,
    Arrow,
    Const,
    Inter,
    Substitution,
    Var,
    apply,
    arrow,
    arrows,
    components,
    const,
    deep_organize,
    format_set_system,
    inter,
    iter_set_solutions,
    leq,
    organize,
    parse_constraints,
    parse_type,
    rank1_transform,
    solve_rank1,
    subtype,
    type_equal,
    verify,
)
from itu.gen import TypeGen
from itu.rank1 import _NO_RULE, K, Proj, Sub, _classify

from tests.set_systems import find_arrow_index_set, parse_set_system

S = parse_type


# the references for the _sdepth slot, written apart from it: a simple type
# is built from constants and arrows alone
def _is_simple(t) -> bool:
    if isinstance(t, Const):
        return True
    if isinstance(t, Arrow):
        return _is_simple(t.source) and _is_simple(t.target)
    return False


def _simple_depth(t) -> int:
    if isinstance(t, Arrow):
        return 1 + max(_simple_depth(t.source), _simple_depth(t.target))
    return 1


class TestSimpleTypes:
    def test_is_simple(self):
        assert S("a -> (b -> c) -> a")._sdepth
        assert not S("a & b")._sdepth
        assert not S("omega -> a")._sdepth
        assert not S("'x -> a")._sdepth

    def test_simple_depth(self):
        assert const("a")._sdepth == 1
        assert S("a -> b")._sdepth == 2
        assert S("(a -> b) -> c")._sdepth == 3

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_sdepth_slot_matches_its_definition(self, seed, depth):
        # omega and variables included: every type that is not simple has 0
        t = TypeGen(seed).type(depth)
        assert t._sdepth == (_simple_depth(t) if _is_simple(t) else 0)

    def test_deep_organize(self):
        t = S("(a -> b & c) -> d")
        d = deep_organize(t)
        assert type_equal(d, t)
        assert isinstance(d, Arrow)
        # the argument is organized too, unlike plain organize
        assert d.source is organize(S("a -> b & c"))
        assert deep_organize(S("a & (b -> c & d)")) is not None

    def test_deep_organize_visits_each_shared_node_once(self, monkeypatch):
        # the doubling DAG t_i = (t_{i-1} -> t_{i-1}) & c_i has one arrow
        # node per level but 2^depth - 1 arrow occurrences
        depth = 12
        t = S("'x")
        for i in range(depth):
            t = inter([arrow(t, t), const(f"c{i}")])
        calls = []
        org = itu.rank1.organize

        def counted(u):
            calls.append(u)
            return org(u)

        monkeypatch.setattr(itu.rank1, "organize", counted)
        deep_organize(t)
        assert len(calls) <= 2 * depth


class TestTransform:
    def test_golden_projection_chain(self):
        # 'x <= 'x -> a must branch into a system using both projections
        systems = list(rank1_transform(parse_constraints("'x <= 'x -> a")))
        assert systems
        ops_seen = set()
        for scs in systems:
            ops_seen |= {a.op for a in scs.atoms if isinstance(a, Proj)}
        assert {"src", "tgt"} <= ops_seen

    def test_omega_choice_recorded(self):
        systems = list(rank1_transform(parse_constraints("omega <= 'x")))
        assert any("x" in scs.omega_vars for scs in systems)

    def test_ground_true_constraint_yields_empty_system(self):
        systems = list(rank1_transform(parse_constraints("a & b <= a")))
        assert any(not scs.atoms for scs in systems)

    def test_ground_false_constraint_yields_nothing(self):
        assert list(rank1_transform(parse_constraints("a <= b"))) == []

    def test_rejects_the_fresh_prefix_in_its_input(self):
        # the rules draw _fresh1, _fresh2, ...; with 'x in place of
        # '_fresh1 this constraint solves, so a clash would read as "no"
        with pytest.raises(ValueError, match="reserved fresh prefix"):
            next(rank1_transform(parse_constraints("'_fresh1 <= '_fresh1 -> a")))

    def test_rejects_non_leq_after_desugaring(self):
        # equations are desugared internally, so both kinds are accepted
        systems = list(rank1_transform(parse_constraints("'x == a")))
        assert systems


# ---------------------------------------------------------------------------
# the transform's output, pinned without its order: the branches as a
# multiset, each without its fresh names, and whether the solver's answer
# verifies


def _var_occurrences(t) -> int:
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            n += 1
        elif isinstance(u, Arrow):
            stack += (u.source, u.target)
        elif isinstance(u, Inter):
            stack += u.components
    return n


def _pinned_inputs(ex55_constraints):
    yield "self", parse_constraints("'x <= 'x -> a")
    yield "ex55", ex55_constraints
    # the criterion-8 draws with at most two variable occurrences
    rng = random.Random(8)
    g = TypeGen(rng, allow_omega=False)
    kept = drawn = 0
    while kept < 40:
        image = g.simple_intersection(2, width=2)
        template = g.type(rng.randint(0, 2))
        drawn += 1
        if _var_occurrences(template) > 2:
            continue
        kept += 1
        ground = apply(Substitution({"x": image, "y": image}), template)
        yield f"c8-{drawn}", (leq(ground, template),)


def _order_free_branch(scs) -> str:
    # the atom lines, sorted, without the vars: line and with every fresh
    # name erased, so neither the firing order nor the fresh draws show
    lines = format_set_system(scs).splitlines()[1:]
    return "\n".join(sorted(re.sub(r"_fresh\d+", "_", line) for line in lines))


def _order_free_record(cs, systems) -> list[str]:
    branches = sorted(_order_free_branch(scs) for scs in systems)
    sol = solve_rank1(cs, budget=(2, 4))
    answer = "verifies" if sol is not None and verify(sol, cs) else "none"
    digest = hashlib.sha256("\n---\n".join(branches).encode()).hexdigest()
    return [str(len(branches)), answer, digest]


@pytest.fixture(scope="module")
def pinned_transforms(ex55_constraints):
    """Each pinned input with every branch of its transform, built once for
    the tests below that read them."""
    return [(name, cs, list(rank1_transform(cs))) for name, cs in _pinned_inputs(ex55_constraints)]


def test_transform_matches_pinned_output(pinned_transforms):
    path = os.path.join(os.path.dirname(__file__), "rank1_pinned.txt")
    with open(path) as fh:
        want = [line.split() for line in fh if not line.startswith("#")]
    got = []
    for name, cs, systems in pinned_transforms:
        got.append([name, *_order_free_record(cs, systems)])
    assert got == want


def test_solve_rank1_pulls_branches_lazily(monkeypatch):
    # c <= 'y has two systems, y = {c} and (y := omega) the empty one;
    # the first solves it, so the second is never built
    cs = parse_constraints("c <= 'y")
    assert len(list(rank1_transform(cs))) == 2
    pulls = []
    transform = itu.rank1.rank1_transform

    def counting(cs, *args, **kwargs):
        for scs in transform(cs, *args, **kwargs):
            pulls.append(scs)
            yield scs

    monkeypatch.setattr(itu.rank1, "rank1_transform", counting)
    s = solve_rank1(cs)
    assert s is not None and verify(s, cs)
    assert len(pulls) == 1


def test_solve_rank1_searches_each_branch_once(monkeypatch, ex55_constraints):
    # ex55 has no solution within budget (2, 4), so every branch is pulled;
    # each must be searched exactly once, in the order it was pulled
    branches, searches = [], []
    transform, search = itu.rank1.rank1_transform, itu.rank1.iter_set_solutions

    def counting_transform(cs, *args, **kwargs):
        for scs in transform(cs, *args, **kwargs):
            branches.append(scs)
            yield scs

    def counting_search(scs, *args, **kwargs):
        searches.append(scs)
        return search(scs, *args, **kwargs)

    monkeypatch.setattr(itu.rank1, "rank1_transform", counting_transform)
    monkeypatch.setattr(itu.rank1, "iter_set_solutions", counting_search)
    assert solve_rank1(ex55_constraints, budget=(2, 4)) is None
    assert len(branches) == 3034
    assert len(searches) == len(branches)
    assert all(got is want for got, want in zip(searches, branches))


def test_deterministic_rules_fire_before_choices(monkeypatch, ex55_constraints):
    # ex55's 3,034 branches took 79,736 rule firings when the choices, rules
    # 8 and 9, fired before the deterministic rules 10 to 15
    firings = []
    try_rule = itu.rank1._try_rule

    def counting_rule(rule, *args):
        firings.append(rule)
        return try_rule(rule, *args)

    monkeypatch.setattr(itu.rank1, "_try_rule", counting_rule)
    assert len(list(rank1_transform(ex55_constraints))) == 3034
    assert len(firings) <= 40_000


def test_criterion_8_draw_790_solves_within_1000_branches(monkeypatch):
    # ('y -> 'x) -> c & 'x: firing the choices, rules 8 and 9, before the
    # deterministic rules 10 to 15 searched 7,291 branches before one solved
    rng = random.Random(8)  # criterion 8's draws; this is draw 790, 0-based
    g = TypeGen(rng, allow_omega=False)
    for _ in range(791):
        image = g.simple_intersection(2, width=2)
        template = g.type(rng.randint(0, 2))
    cs = (leq(apply(Substitution({"x": image, "y": image}), template), template),)
    assert template is S("('y -> 'x) -> c & 'x")
    searches = []
    search = itu.rank1.iter_set_solutions

    def counting_search(scs, *args, **kwargs):
        searches.append(scs)
        return search(scs, *args, **kwargs)

    monkeypatch.setattr(itu.rank1, "iter_set_solutions", counting_search)
    s = solve_rank1(cs, budget=(2, 4))
    assert s is not None and verify(s, cs)
    assert len(searches) <= 1000


def _one_rule_each(n):
    return parse_constraints("\n".join(f"'x_{i} <= a" for i in range(n)))


def test_transform_runs_a_branch_longer_than_the_recursion_limit():
    # each constraint fires rule 3 once, so the first branch takes 1,100 steps
    scs = next(rank1_transform(_one_rule_each(1100)))
    assert len(scs.atoms) == 1100


def test_transform_raises_past_its_step_limit(monkeypatch):
    monkeypatch.setattr(itu.rank1, "_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match="exceeded its step limit"):
        next(rank1_transform(_one_rule_each(10)))


def test_every_pinned_branch_round_trips_through_text(pinned_transforms):
    for name, _, systems in pinned_transforms:
        for scs in systems:
            again = parse_set_system(format_set_system(scs))
            assert again.atoms == scs.atoms, name
            assert again.omega_vars == scs.omega_vars, name
            assert set(again.variables) == set(scs.variables), name


def _head(t):
    while isinstance(t, Arrow):
        t = t.target
    return t


def _arrow_to_var(s, t):
    return isinstance(s, Arrow) and isinstance(t, Var)


# the reference for _classify, written apart from it: the applicability
# condition of each rewrite rule on s <= t, in priority order
RULE_CONDITIONS = (
    (1, lambda s, t: subtype(s, t)),
    (2, lambda s, t: isinstance(t, Var) and _is_simple(s)),
    (3, lambda s, t: isinstance(s, Var) and _is_simple(t)),
    (4, lambda s, t: isinstance(s, Var) and isinstance(t, Var)),
    (5, lambda s, t: s is OMEGA),
    (6, lambda s, t: isinstance(t, Inter)),
    (7, lambda s, t: (isinstance(s, Const) and isinstance(t, (Arrow, Const)))
        or (isinstance(s, Arrow) and isinstance(t, Const))),
    (8, lambda s, t: isinstance(s, Inter) and isinstance(t, (Arrow, Const))
        and isinstance(_head(t), Const)),
    (9, lambda s, t: isinstance(s, Inter) and isinstance(_head(t), Var)),
    (10, lambda s, t: isinstance(s, Arrow) and isinstance(t, Arrow)),
    (11, lambda s, t: isinstance(s, Var) and isinstance(t, Arrow)),
    (12, lambda s, t: _arrow_to_var(s, t) and s.source is OMEGA),
    (13, lambda s, t: _arrow_to_var(s, t) and isinstance(s.source, Inter)),
    (14, lambda s, t: _arrow_to_var(s, t) and isinstance(_head(s.source), Const)),
    (15, lambda s, t: _arrow_to_var(s, t) and isinstance(_head(s.source), Var)),
)


def test_classifier_picks_the_first_applicable_rule(rng):
    g = TypeGen(rng)
    seen = set()
    for _ in range(4000):
        s, t = g.type(rng.randint(0, 3)), g.type(rng.randint(0, 3))
        if rng.random() < 0.5:
            s, t = deep_organize(s), deep_organize(t)
        want = next((r for r, holds in RULE_CONDITIONS if holds(s, t)), _NO_RULE)
        assert _classify(s, t) == want, (s, t)
        seen.add(want)
    assert seen >= set(range(1, 16))


class TestSetSolver:
    def solve_all(self, text, budget=(3, 4)):
        return list(iter_set_solutions(parse_set_system(text), budget))

    def test_pinned_equality(self):
        sols = self.solve_all("vars: x\nx = {a, b}\n")
        assert len(sols) == 1
        assert sols[0]["x"] == frozenset({const("a"), const("b")})

    def test_membership_and_subset(self):
        sols = self.solve_all("vars: x y\n{a} <= x\nx <= y\ncard y = 1\n")
        assert sols
        for sol in sols:
            assert const("a") in sol["x"] and sol["x"] <= sol["y"]
            assert len(sol["y"]) == 1

    def test_union(self):
        sols = self.solve_all("vars: x y z\nx = {a}\ny = {b}\nz = x | y\n")
        assert sols
        assert all(sol["z"] == sol["x"] | sol["y"] for sol in sols)

    def test_projections_forward(self):
        sols = self.solve_all("vars: x y\nx = {a -> b}\ny = src(x)\n")
        assert sols and all(sol["y"] == frozenset({const("a")}) for sol in sols)
        sols = self.solve_all("vars: x y\nx = {a -> b}\ny = tgt(x)\n")
        assert sols and all(sol["y"] == frozenset({const("b")}) for sol in sols)

    def test_projection_inverse_invents_arrows(self):
        # x = src(y) with x pinned forces y to hold arrows with source a
        sols = self.solve_all("vars: x y\nx = {a}\nx = src(y)\n")
        assert sols
        for sol in sols:
            srcs = {e.source for e in sol["y"] if isinstance(e, Arrow)}
            assert srcs == {const("a")}

    def test_unsat_card(self):
        assert self.solve_all("vars: x\nx = {a, b}\ncard x = 1\n") == []

    def test_sube_expression(self):
        sols = self.solve_all(
            "vars: x y\ny = {b}\n{a -> b} <= x\nx <= a -> y\n"
        )
        assert sols

    def test_sube_violation_dead(self):
        assert (
            self.solve_all("vars: x y\ny = {b}\n{c} <= x\nx <= a -> y\n") == []
        )

    def test_solve_helper(self):
        scs = parse_set_system("vars: x\n{a} <= x\n")
        got = next(iter_set_solutions(scs), None)
        assert got is not None and const("a") in got["x"]

    def test_budget_depth_respected(self):
        for sol in self.solve_all("vars: x\n{a} <= x\nx = src(x)\n", (2, 2)):
            assert all(_simple_depth(e) <= 2 for e in sol["x"])


class TestSerialization:
    def test_round_trip(self):
        text = (
            "vars: x y z\n"
            "omega: w\n"
            "x = {a, a -> b}\n"
            "{b} <= y\n"
            "x <= y\n"
            "z = x | y\n"
            "y = src(x)\n"
            "z <= a -> y\n"
            "card z = 1\n"
        )
        scs = parse_set_system(text)
        again = parse_set_system(format_set_system(scs))
        assert again.atoms == scs.atoms
        assert set(again.variables) == set(scs.variables)
        assert again.omega_vars == scs.omega_vars

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_set_system("vars: x\ny = src(x)\n")

    def test_undeclared_rhs_reads_as_constant(self):
        # a name not in vars: on the right of <= is a constant expression
        scs = parse_set_system("vars: x\nx <= y\n")
        assert scs.atoms == (Sub("x", K("y")),)


class TestSolveRank1:
    def test_self_application(self):
        cs = parse_constraints("'al <= 'al -> a")
        s = solve_rank1(cs, budget=(3, 7))
        assert s is not None and verify(s, cs)
        assert s.get("al") is S("a & (a -> a)")

    def test_two_equation_golden(self, ex55_constraints, ex55_solution):
        s = solve_rank1(ex55_constraints, budget=(2, 7))
        assert s is not None and verify(s, ex55_constraints)
        assert s.mapping == ex55_solution.mapping

    def test_unsolvable_constant_clash(self):
        assert solve_rank1(parse_constraints("a <= b")) is None

    def test_unsolvable_omega_below_constant(self):
        assert solve_rank1(parse_constraints("omega <= a")) is None

    def test_trivial_var(self):
        cs = parse_constraints("a <= 'x")
        s = solve_rank1(cs)
        assert s is not None and verify(s, cs)

    def test_soundness_fuzz(self, rng):
        # random solvable and unsolvable instances; every returned
        # substitution must verify (completeness is only budget-relative)
        from itu import leq

        g = TypeGen(rng, allow_omega=False)
        solved = 0
        for _ in range(60):
            image = g.simple_intersection(2)
            t = g.type(rng.randint(0, 2))
            ground = apply(Substitution({"x": image, "y": image}), t)
            cs = (leq(ground, t),)
            s = solve_rank1(cs, budget=(2, 4))
            if s is not None:
                assert verify(s, cs)
                solved += 1
        assert solved > 10


class TestIndexSetLemma:
    def test_witness_golden(self):
        comps = [S("a -> b"), S("c -> d"), S("a -> c")]
        rhs = S("a -> b & c")
        picked = find_arrow_index_set(comps, rhs)
        assert picked is not None
        merged = arrow(
            inter([comps[i].source for i in picked]),
            inter([comps[i].target for i in picked]),
        )
        assert subtype(merged, rhs)

    def test_no_witness(self):
        assert find_arrow_index_set([S("a -> b")], S("a -> c")) is None

    def test_property(self, rng):
        g = TypeGen(rng, allow_vars=False)
        for _ in range(300):
            comps = [
                arrow(g.type(1), g.type(1)) for _ in range(rng.randint(1, 3))
            ]
            rhs = arrow(g.type(1), g.type(1))
            from itu import is_omega_equal

            if is_omega_equal(rhs):
                continue
            holds = subtype(inter(comps), rhs)
            picked = find_arrow_index_set(comps, rhs)
            assert (picked is not None) == holds


# ---------------------------------------------------------------------------
# simple-type subtyping lemmas (the acceptance suite reruns these at
# 10^4 trials; moderate counts here keep the dev loop fast)


def lemma_simple_eq(g, rng, trials=500):
    for _ in range(trials):
        phi = g.simple(rng.randint(0, 3))
        psi = g.simple(rng.randint(0, 3))
        assert subtype(phi, psi) == (phi is psi)
        assert subtype(phi, phi)


def lemma_inter_inclusion(g, rng, trials=500):
    for _ in range(trials):
        sigma = g.simple_intersection(2)
        tau = g.simple_intersection(2)
        want = set(components(tau)) <= set(components(sigma))
        assert subtype(sigma, tau) == want


def lemma_index_set(g, rng, trials=300):
    from itu import is_omega_equal

    for _ in range(trials):
        comps = [arrow(g.type(1), g.type(1)) for _ in range(rng.randint(1, 3))]
        rhs = arrow(g.type(1), g.type(1))
        if is_omega_equal(rhs):
            continue
        assert (find_arrow_index_set(comps, rhs) is not None) == subtype(
            inter(comps), rhs
        )


def _l64_conditions(sigmas, phis, tau, psis):
    n = len(sigmas)
    parts = []
    for psi in psis:
        if not isinstance(psi, Arrow):
            return False
        u, args = psi.source, []
        for _ in range(n):
            if not isinstance(u, Arrow):
                return False
            args.append(u.source)
            u = u.target
        parts.append((args, u, psi.target))
    if not subtype(tau, inter([p[2] for p in parts])):
        return False
    for k in range(n):
        if not subtype(sigmas[k], inter([p[0][k] for p in parts])):
            return False
    return all(all(phi is p[1] for phi in phis) for p in parts)


def lemma_contravariant(g, rng, trials=300):
    for _ in range(trials):
        n = rng.randint(0, 2)
        sigmas = [g.simple(1) for _ in range(n)]
        phis = [g.simple(1) for _ in range(rng.randint(1, 2))]
        tau = g.simple(1)
        lhs = arrow(arrows(sigmas, inter(phis)), tau)
        if rng.random() < 0.5:
            # positive construction: the unique matching shape
            psis = [arrow(arrows(sigmas, phis[0]), tau)]
            if len(set(phis)) > 1:
                assert not subtype(lhs, inter(psis))
                continue
        else:
            psis = [g.simple(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        assert subtype(lhs, inter(psis)) == _l64_conditions(
            sigmas, phis, tau, psis
        )


class TestSimpleSubtypingLemmas:
    def test_simple_subtyping_is_equality(self, rng):
        lemma_simple_eq(TypeGen(rng, allow_vars=False, allow_omega=False), rng)

    def test_simple_intersections_are_set_inclusion(self, rng):
        lemma_inter_inclusion(
            TypeGen(rng, allow_vars=False, allow_omega=False), rng
        )

    def test_arrow_index_set(self, rng):
        lemma_index_set(TypeGen(rng, allow_vars=False), rng)

    def test_contravariant_decomposition(self, rng):
        lemma_contravariant(
            TypeGen(rng, allow_vars=False, allow_omega=False), rng
        )
