"""Type AST, parser/printer, omega classification, and organization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from itu import (
    OMEGA,
    Arrow,
    Const,
    Inter,
    TypeSyntaxError,
    Var,
    arrow,
    arrows,
    components,
    const,
    inter,
    is_omega_equal,
    is_organized,
    is_path,
    omega_collapse,
    organize,
    parse_type,
    path_split,
    print_type,
    size,
    subtype,
    type_constants,
    type_equal,
    type_vars,
    var,
)
from itu.gen import TypeGen


def types(max_depth=4, allow_omega=True):
    """Hypothesis strategy for random types."""
    leaves = [st.sampled_from([const("a"), const("b"), const("c")]),
              st.sampled_from([var("x"), var("y")])]
    if allow_omega:
        leaves.append(st.just(OMEGA))
    return st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            st.builds(arrow, sub, sub),
            st.lists(sub, min_size=2, max_size=3).map(inter),
        ),
        max_leaves=2 ** max_depth,
    )


class TestParser:
    def test_precedence_amp_binds_tighter(self):
        t = parse_type("a -> b & c")
        assert isinstance(t, Arrow)
        assert isinstance(t.target, Inter)

    def test_omega_keyword(self):
        assert parse_type("omega") is OMEGA

    def test_parenthesized_arrow_component(self):
        t = parse_type("'x & ('x -> a)")
        assert isinstance(t, Inter)
        kinds = {type(c) for c in t.components}
        assert kinds == {Var, Arrow}

    def test_arrow_right_associative(self):
        assert parse_type("a -> b -> c") is arrow(const("a"), arrow(const("b"), const("c")))

    def test_syntax_error_has_position(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("a -> ")

    def test_reserved_omega_as_variable(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("'omega")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("a b $", "unexpected character '$'", 4),
            ("a -> B", "unexpected character 'B'", 5),
            ("1a", "unexpected character '1'", 0),
            ("(a b)", "expected ')', found 'b'", 3),
            ("(a", "expected ')', found ''", 2),
            ("a)", "trailing input ')'", 1),
            ("a 'x", "trailing input \"'\"", 2),
            ("' -> a", "expected 'ident', found '->'", 2),
            ("a & ", "unexpected token ''", 4),
            ("& a", "unexpected token '&'", 0),
            ("(a -> 'omega)", "'omega' is reserved and cannot name a variable", 7),
        ],
    )
    def test_syntax_error_messages(self, text, message, position):
        with pytest.raises(TypeSyntaxError) as e:
            parse_type(text)
        assert str(e.value) == f"{message} (at position {position})"
        assert e.value.position == position

    def test_deep_input_at_default_recursion_limit(self):
        assert parse_type("(" * 10**5 + "a" + ")" * 10**5) is const("a")
        t = parse_type(" -> ".join(["a"] * 10**4))
        arrows_seen = 0
        while isinstance(t, Arrow):
            assert t.source is const("a")
            t, arrows_seen = t.target, arrows_seen + 1
        assert (t, arrows_seen) == (const("a"), 10**4 - 1)

    def test_deep_component_sorts_at_default_recursion_limit(self):
        # inter sorts its components by skey, which must not recurse
        chain = arrows([const("a")] * 1999, const("a"))
        t = parse_type("(" + " -> ".join(["a"] * 2000) + ") & b")
        assert t is inter([chain, const("b")])


class TestPrinter:
    def test_right_associativity_no_parens(self):
        assert print_type(arrow(const("a"), arrow(const("b"), const("c")))) == "a -> b -> c"

    def test_inter(self):
        assert print_type(inter([const("a"), const("b")])) == "a & b"

    def test_needed_parens_on_arrow_source(self):
        assert print_type(arrow(inter([const("a"), const("b")]), const("c"))) == "(a & b) -> c"

    @given(types())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, t):
        assert parse_type(print_type(t)) is t


class TestCanonicalization:
    def test_empty_intersection_is_omega(self):
        assert inter([]) is OMEGA

    def test_singleton_collapses(self):
        assert inter([const("a")]) is const("a")

    def test_flattening_and_dedup(self):
        t = inter([const("a"), inter([const("b"), const("a")])])
        assert isinstance(t, Inter)
        assert len(t.components) == 2
        assert all(not isinstance(c, Inter) for c in t.components)

    def test_omega_component_dropped(self):
        assert inter([const("a"), OMEGA]) is const("a")

    def test_interning_identity(self):
        assert parse_type("a -> b & c") is parse_type("a -> c & b")

    def test_size_counts_nodes(self):
        assert size(const("a")) == 1
        assert size(arrow(const("a"), const("b"))) == 3


class TestOmegaEqual:
    def test_omega(self):
        assert is_omega_equal(OMEGA)

    def test_arrow_into_omega(self):
        assert is_omega_equal(parse_type("a -> omega"))

    def test_omega_source_not_omega_equal(self):
        assert not is_omega_equal(parse_type("omega -> a"))
        assert not subtype(OMEGA, parse_type("omega -> a"))

    @given(types())
    @settings(max_examples=300, deadline=None)
    def test_matches_semantic_omega(self, t):
        # omega-equality iff omega <= t iff t = omega semantically
        assert is_omega_equal(t) == subtype(OMEGA, t) == type_equal(t, OMEGA)


class TestOrganize:
    def test_golden_example(self):
        t = parse_type("((a & b -> a & b) -> a & b) -> a & b")
        expected = parse_type(
            "(((a & b -> a & b) -> a & b) -> a)"
            " & (((a & b -> a & b) -> a & b) -> b)"
        )
        assert organize(t) is expected

    def test_omega(self):
        assert organize(OMEGA) is OMEGA

    def test_distributes_target(self):
        got = organize(parse_type("a -> b & c"))
        exp = parse_type("(a -> b) & (a -> c)")
        assert type_equal(got, exp)
        assert got is exp

    @given(types())
    @settings(max_examples=300, deadline=None)
    def test_organize_preserves_equality(self, t):
        assert type_equal(organize(t), t)

    @given(types())
    @settings(max_examples=300, deadline=None)
    def test_organize_shape(self, t):
        o = organize(t)
        assert is_organized(o)
        if o is not OMEGA:
            assert all(is_path(c) for c in components(o))


def organize_rebuilt(t):
    """organize as it was first written: every intersection rebuilt."""
    if isinstance(t, Arrow):
        tg = organize_rebuilt(t.target)
        return OMEGA if tg is OMEGA else inter(arrow(t.source, p) for p in components(tg))
    if isinstance(t, Inter):
        return inter(organize_rebuilt(c) for c in t.components)
    return t


def omega_collapse_rebuilt(t):
    """omega_collapse as it was first written: every intersection rebuilt."""
    if isinstance(t, Arrow):
        tg = omega_collapse_rebuilt(t.target)
        return OMEGA if tg is OMEGA else arrow(omega_collapse_rebuilt(t.source), tg)
    if isinstance(t, Inter):
        return inter(omega_collapse_rebuilt(c) for c in t.components)
    return t


class TestNoRebuild:
    def test_unchanged_intersection_is_returned_as_it_is(self, monkeypatch):
        import itu.types

        # 1,000 distinct omega-free paths of ten arguments each
        paths = [
            arrows([const("nr_a" if i >> k & 1 else "nr_b") for k in range(10)], const("nr_c"))
            for i in range(1000)
        ]
        t = inter(paths)
        assert len(t.components) == 1000
        calls = []
        real = itu.types.inter

        def counting_inter(parts):
            calls.append(1)
            return real(parts)

        monkeypatch.setattr(itu.types, "inter", counting_inter)
        assert organize(t) is t
        assert omega_collapse(t) is t
        assert calls == []

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_same_node_as_a_full_rebuild(self, seed, depth):
        t = TypeGen(seed).type(depth)
        # the flags set when t was interned are exact
        assert (t._collapsed is t) == (omega_collapse_rebuilt(t) is t)
        assert t._organized == (organize_rebuilt(t) is t)
        assert organize(t) is organize_rebuilt(t)
        assert omega_collapse(t) is omega_collapse_rebuilt(t)


class TestSharedGraph:
    def test_doubling_dag(self):
        # t_i = t_{i-1} -> t_{i-1} & dag_i: its tree doubles at every level
        t = var("dag")
        for i in range(1, 61):
            t = arrow(t, inter([t, const(f"dag_{i}")]))
        assert size(t) == 2**62 - 3
        assert type_vars(t) == {"dag"}
        assert type_constants(t) == {f"dag_{i}" for i in range(1, 61)}

    def test_deep_chain_is_kept_as_it_is(self):
        t = arrows([const("a")] * 10**5, const("a"))
        assert organize(t) is t
        assert omega_collapse(t) is t
        assert size(t) == 2 * 10**5 + 1
        assert print_type(t) == " -> ".join(["a"] * (10**5 + 1))
        assert type_vars(t) == set()
        assert type_constants(t) == {"a"}


class TestPaths:
    def test_path_split(self):
        p = parse_type("a -> b -> c")
        ps = path_split(p)
        assert [print_type(x) for x in ps.arguments] == ["a", "b"]
        assert ps.head is const("c")

    def test_atom_is_trivial_path(self):
        ps = path_split(const("a"))
        assert ps.arguments == () and ps.head is const("a")


def test_round_trip_large_corpus():
    rng = random.Random(11)
    g = TypeGen(rng)
    for _ in range(2000):
        t = g.type(rng.randint(0, 6))
        assert parse_type(print_type(t)) is t
