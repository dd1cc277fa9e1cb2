"""The subtype decider, path lemmas, and the arrow join."""

import random
import time

import pytest
from hypothesis import given, settings

from itu import (
    OMEGA,
    Arrow,
    JoinError,
    arrow,
    components,
    const,
    inter,
    is_omega_equal,
    join_arrows,
    organize,
    parse_type,
    subtype,
    type_equal,
)
from itu.gen import TypeGen
from tests.test_types import types


S = parse_type


class TestAxiomsOfTheOrder:
    def test_projection(self):
        assert subtype(S("a & b"), S("a"))

    def test_arrow_distribution(self):
        assert subtype(S("(a->b) & (a->c)"), S("a -> b & c"))

    def test_omega_arrow(self):
        assert subtype(OMEGA, S("omega -> omega"))

    def test_contravariance(self):
        assert subtype(S("a -> b"), S("a & c -> b"))

    def test_distinct_constants(self):
        assert not subtype(S("a"), S("b"))

    def test_everything_below_omega(self):
        assert subtype(S("((a -> b) & c) -> 'x"), OMEGA)


class TestEquality:
    def test_idempotence(self):
        assert type_equal(S("a & a"), S("a"))

    def test_arrow_omega(self):
        assert type_equal(S("a -> omega"), OMEGA)

    def test_asymmetric(self):
        assert not type_equal(S("a -> b"), S("b -> a"))


class TestOrderProperties:
    @given(types())
    @settings(max_examples=200, deadline=None)
    def test_reflexive(self, t):
        assert subtype(t, t)

    def test_transitive_sampled(self, rng):
        g = TypeGen(rng)
        checked = 0
        while checked < 300:
            a, b, c = (g.type(rng.randint(0, 3)) for _ in range(3))
            if subtype(a, b) and subtype(b, c):
                assert subtype(a, c)
                checked += 1

    def test_lemma_organized_pointwise(self, rng):
        # organized sigma <= organized tau iff every tau-path is above
        # some sigma-path
        g = TypeGen(rng)
        for _ in range(300):
            s = organize(g.type(rng.randint(1, 4)))
            t = organize(g.type(rng.randint(1, 4)))
            lhs = subtype(s, t)
            if t is OMEGA:
                assert lhs
                continue
            if s is OMEGA:
                assert lhs == is_omega_equal(t)
                continue
            rhs = all(
                any(subtype(pi, pj) for pi in components(s))
                for pj in components(t)
            )
            assert lhs == rhs

    def test_corollary_path_split(self, rng):
        # sigma & tau <= path iff one of the two is
        g = TypeGen(rng)
        for _ in range(300):
            s = g.type(rng.randint(0, 3))
            t = g.type(rng.randint(0, 3))
            o = organize(g.type(rng.randint(0, 3)))
            if o is OMEGA:
                continue
            for pi in components(o):
                assert subtype(inter([s, t]), pi) == (
                    subtype(s, pi) or subtype(t, pi)
                )

    def test_beta_soundness_witness(self, rng):
        # whenever an intersection of arrows is below a non-omega arrow,
        # the sources that accept the rhs source give a target witness
        g = TypeGen(rng)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 3)
            lhs = inter([arrow(g.type(1), g.type(1)) for _ in range(n)])
            rhs = arrow(g.type(1), g.type(1))
            if is_omega_equal(rhs) or not subtype(lhs, rhs):
                continue
            arrows_ = [c for c in components(lhs) if isinstance(c, Arrow)]
            picked = [c.target for c in arrows_ if subtype(rhs.source, c.source)]
            assert picked, "beta-soundness: index set must be nonempty"
            assert subtype(inter(picked), rhs.target)
            checked += 1


class TestJoinArrows:
    def test_basic(self):
        assert type_equal(join_arrows(S("a -> c"), S("b -> c")), S("a & b -> c"))

    def test_idempotent(self):
        assert type_equal(join_arrows(S("a -> c"), S("a -> c")), S("a -> c"))

    def test_omega_source_absorbed(self):
        assert type_equal(join_arrows(S("omega -> c"), S("a -> c")), S("a -> c"))

    def test_upper_bound(self, rng):
        g = TypeGen(rng, allow_vars=False)
        for _ in range(100):
            tgt = g.type(1)
            s, t = arrow(g.type(1), tgt), arrow(g.type(1), tgt)
            j = join_arrows(s, t)
            assert subtype(s, j) and subtype(t, j)

    def test_least_among_arrow_bounds(self, rng):
        g = TypeGen(rng, allow_vars=False)
        for _ in range(200):
            tgt = g.type(1)
            s, t = arrow(g.type(1), tgt), arrow(g.type(1), tgt)
            j = join_arrows(s, t)
            u = arrow(g.type(1), tgt)
            if subtype(s, u) and subtype(t, u):
                assert subtype(j, u)

    def test_rejects_non_arrows(self):
        with pytest.raises(JoinError):
            join_arrows(S("a"), S("a -> b"))

    def test_rejects_different_targets(self):
        with pytest.raises(JoinError):
            join_arrows(S("a -> b"), S("a -> c"))


def nested_family(n: int):
    """Worst-case-ish pair of deeply right-nested types of total size ~n."""
    lhs = const("a")
    rhs = const("a")
    for i in range(n):
        lhs = arrow(const("a") if i % 2 else const("b"), lhs)
        rhs = arrow(inter([const("a"), const("b")]), rhs)
    return lhs, rhs


def shared_family(depth: int):
    """l(k+1) = (a&b -> l(k)) & (a -> l(k)) and r(k+1) = a&b -> r(k): l's
    interned graph has O(depth) nodes, its syntax tree 2^depth leaves."""
    a, b = const("a"), const("b")
    lo = hi = a
    for _ in range(depth):
        lo = inter([arrow(inter([a, b]), lo), arrow(a, lo)])
        hi = arrow(inter([a, b]), hi)
    return lo, hi


def test_shared_targets_decided_once(monkeypatch):
    from itu import subtyping

    calls = []
    sub = subtyping._sub

    def counted(comps, t):
        calls.append(t)
        return sub(comps, t)

    monkeypatch.setattr(subtyping, "_sub", counted)
    counts = {}
    for depth in (8, 16):
        monkeypatch.setattr(subtyping, "_memo", {})
        lo, hi = shared_family(depth)
        calls.clear()
        assert subtype(lo, hi) and not subtype(hi, lo)
        counts[depth] = len(calls)
    # linear: doubling the depth about doubles the calls; without
    # deduplication they grow as 2^depth
    assert counts[16] <= 2 * counts[8] + 8, counts


def test_scaling_smoke():
    # the full quadratic measurement lives in the acceptance suite
    lhs, rhs = nested_family(256)
    t0 = time.perf_counter()
    subtype(lhs, rhs)
    assert time.perf_counter() - t0 < 1.0
