"""Constraint systems, substitutions, verification, interreductions."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import itu.constraints
from itu import (
    OMEGA,
    Arrow,
    Inter,
    Substitution,
    TypeSyntaxError,
    Var,
    apply,
    arrow,
    components,
    const,
    encode_constants_unary,
    eq,
    format_constraints,
    format_substitution,
    inter,
    is_matching_instance,
    leq,
    organize,
    pack_single,
    parse_constraints,
    parse_substitution,
    parse_type,
    path_split,
    print_type,
    sat_to_unif,
    subtype,
    type_constants,
    type_equal,
    type_vars,
    typability_constraints,
    unary_tower,
    unif_to_sat,
    verify,
)
from itu.constraints import FreshVars
from itu.gen import TypeGen

S = parse_type


class TestApply:
    def test_homomorphic(self):
        s = Substitution({"a": S("b & (b->b)")})
        assert apply(s, S("'a -> c")) is S("(b & (b->b)) -> c")

    def test_identity(self):
        t = S("'x & (a -> 'y)")
        assert apply(Substitution(), t) is t

    def test_omega_image_collapses_inter(self):
        s = Substitution({"a": OMEGA})
        assert type_equal(apply(s, S("'a & b")), S("b"))

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_ground_flag_and_ground_apply(self, seed):
        gen = TypeGen(seed)
        s = Substitution({"x": gen.type(2), "y": OMEGA})

        def rebuild(t):  # apply without the ground shortcut
            if isinstance(t, Var):
                return s.get(t.name)
            if isinstance(t, Arrow):
                return arrow(rebuild(t.source), rebuild(t.target))
            if isinstance(t, Inter):
                return inter(rebuild(c) for c in t.components)
            return t

        ground = TypeGen(seed, allow_vars=False).type(4)
        for t in [ground] + [gen.type(4) for _ in range(4)]:
            assert t._ground == (not type_vars(t))
            assert apply(s, t) is rebuild(t)
            if t._ground:
                assert apply(s, t) is t


class TestVerifyGoldens:
    """The listed solutions of the alpha <= alpha -> a problem and the
    two-equation golden system."""

    CS = parse_constraints("'al <= 'al -> a")

    def test_s1_omega_arrow(self):
        assert verify(Substitution({"al": S("omega -> a")}), self.CS)

    def test_s2_intersection(self):
        assert verify(Substitution({"al": S("a & (a -> a)")}), self.CS)

    def test_s3_nested(self):
        assert verify(
            Substitution({"al": S("((a & (a -> a)) -> a) -> a")}), self.CS
        )

    def test_two_equation_solution(self, ex55_constraints, ex55_solution):
        assert verify(ex55_solution, ex55_constraints)

    def test_two_equation_forbidden_omega_beta2(self, ex55_constraints):
        bad = Substitution(
            {
                "b2": OMEGA,
                "al": S("a -> a -> b"),
                "b3": S("a -> a -> a -> b"),
            }
        )
        assert not verify(bad, ex55_constraints)

    def test_two_equation_forbidden_omega_alpha(self, ex55_constraints):
        bad = Substitution(
            {"b2": S("a -> a -> b"), "al": OMEGA, "b3": S("a -> a -> a -> b")}
        )
        assert not verify(bad, ex55_constraints)


class TestInterreductions:
    def test_sat_to_unif_shape(self):
        got = sat_to_unif(parse_constraints("a <= 'x"))
        assert len(got) == 1 and got[0].kind == "eq"
        assert got[0].lhs is S("a & 'x") and got[0].rhs is S("a")

    def test_empty(self):
        assert sat_to_unif(()) == ()

    def test_round_trip_preserves_verify(self, rng):
        g = TypeGen(rng)
        for _ in range(200):
            cs = tuple(
                leq(g.type(rng.randint(0, 2)), g.type(rng.randint(0, 2)))
                for _ in range(rng.randint(1, 3))
            )
            s = Substitution(
                {n: g.simple_intersection(2) for n in ("x", "y")}
            )
            assert verify(s, cs) == verify(s, sat_to_unif(cs))
            assert verify(s, cs) == verify(s, unif_to_sat(sat_to_unif(cs)))

    def test_pack_single_ground_lhs(self):
        bullet = const("u")
        c = pack_single(parse_constraints("a <= 'x"), bullet)
        assert c.kind == "leq"
        # ground side wrapped to the variable-free lhs
        from itu import type_vars

        assert not type_vars(c.lhs)

    def test_pack_single_equivalence(self, rng):
        g = TypeGen(rng, allow_vars=False)
        bullet = const("u")
        for _ in range(150):
            cs = []
            for _ in range(rng.randint(1, 3)):
                ground = g.type(rng.randint(0, 2))
                other = TypeGen(rng).type(rng.randint(0, 2))
                cs.append(leq(ground, other) if rng.random() < 0.5 else leq(other, ground))
            cs = tuple(cs)
            if not is_matching_instance(cs):
                continue
            packed = pack_single(cs, bullet)
            s = Substitution({n: TypeGen(rng).simple_intersection(2) for n in ("x", "y")})
            assert verify(s, cs) == verify(s, (packed,))


class TestUnaryEncoding:
    def test_towers(self):
        bullet = const("u")
        assert print_type(unary_tower(1, bullet)) == "u -> u"
        assert print_type(unary_tower(3, bullet)) == "u -> u -> u -> u"

    def test_substitution_of_towers(self):
        cs = parse_constraints("a1 & a2 <= a1")
        got = encode_constants_unary(cs, const("u"), ("a1", "a2"))
        lhs = got[0].lhs
        assert subtype(lhs, unary_tower(1, const("u")))

    def test_shared_subterms_are_encoded_once(self, monkeypatch):
        # the doubling DAG t_i = (t_{i-1} -> t_{i-1}) & c_i has one arrow
        # node per level but 2^depth - 1 arrow occurrences
        depth = 12
        t = S("'x")
        for i in range(depth):
            t = inter([arrow(t, t), const(f"c{i}")])
        calls = []
        make = itu.constraints.arrow

        def counted(source, target):
            calls.append(source)
            return make(source, target)

        monkeypatch.setattr(itu.constraints, "arrow", counted)
        got = encode_constants_unary((leq(t, S("'x")),), const("u"))
        assert type_constants(got[0].lhs) == {"u"}
        assert len(calls) <= 2 * depth


class TestTypability:
    def test_leaf(self):
        cs = typability_constraints("F", {"F": S("a -> b")}, S("'g"))
        assert len(cs) == 1
        assert cs[0].lhs is S("a -> b") and cs[0].rhs is S("'g")

    def test_application_counts(self):
        cs = typability_constraints(
            (("F", "G"), "H"),
            {"F": S("a -> a -> b"), "G": S("a"), "H": S("a")},
            S("'g"),
        )
        assert len(cs) == 5
        from itu import type_vars

        fresh = set()
        for c in cs:
            fresh |= {
                v for v in type_vars(c.lhs) | type_vars(c.rhs) if v.startswith("_fresh")
            }
        assert len(fresh) == 4

    def test_application_solvability_matches_subtyping(self):
        # F : tau -> a applied to G : sigma is typable iff sigma <= tau
        good = typability_constraints(
            ("F", "G"), {"F": S("a -> c"), "G": S("a & b")}, S("'g")
        )
        s = Substitution({"_fresh1": S("a"), "_fresh2": S("c"), "g": S("c")})
        assert verify(s, good)

    def test_unknown_combinator(self):
        with pytest.raises(KeyError):
            typability_constraints("Z", {"F": S("a")})

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ValueError):
            typability_constraints("F", {"F": S("'_fresh1")})


class TestSerialization:
    def test_constraints_round_trip(self):
        text = "a & b <= 'x\n'x == a\n"
        cs = parse_constraints(text)
        assert format_constraints(cs) == text

    def test_comments_and_blanks(self):
        cs = parse_constraints("# hello\n\na <= b\n")
        assert len(cs) == 1

    def test_substitution_round_trip(self):
        s = parse_substitution("'x := a & (a -> a)\n")
        assert s.get("x") is S("a & (a -> a)")
        assert parse_substitution(format_substitution(s)).mapping == s.mapping

    def test_shared_form_names_nodes_with_two_parents(self):
        # a -> b has three parents: x's root, y's source and a component
        # of z; c -> d has one (the root of w) and is printed inline
        ab = S("a -> b")
        s = Substitution(
            {"x": ab, "y": arrow(ab, const("c")), "z": inter([ab, const("c")]), "w": S("c -> d")}
        )
        text = format_substitution(s, shared=True)
        assert text == (
            "$1 := a -> b\n'w := c -> d\n'x := $1\n'y := $1 -> c\n'z := c & $1\n"
        )
        assert parse_substitution(text) == s

    def test_shared_form_without_sharing_is_the_plain_form(self):
        s = parse_substitution("'x := a & (a -> a)\n'y := b -> b\n")
        assert format_substitution(s, shared=True) == format_substitution(s)

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_shared_and_plain_text_parse_to_the_same_images(self, seed):
        gen = TypeGen(seed)
        p, q = gen.type(3), gen.type(3)
        s = Substitution(
            {
                "x": p,
                "y": arrow(p, q),
                "z": inter([q, arrow(q, p), gen.type(2)]),
                "w": gen.type(4),
            }
        )
        shared = format_substitution(s, shared=True)
        plain = parse_substitution(format_substitution(s)).mapping
        got = parse_substitution(shared).mapping
        assert got.keys() == s.mapping.keys()
        for name, t in s.mapping.items():
            assert got[name] is t and plain[name] is t
        # a name is written only for a node with two or more parents, and
        # each parent prints the name once
        lines = shared.splitlines()
        defined = [line.split(" := ")[0] for line in lines if line.startswith("$")]
        uses = Counter(re.findall(r"\$[0-9]+", "".join(line.split(" := ")[1] for line in lines)))
        assert all(uses[name] >= 2 for name in defined)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("'x := $1\n", "undefined name '$1'"),
            ("'x := $1\n$1 := a -> a\n", "undefined name '$1'"),
            ("$1 := a -> $1\n", "undefined name '$1'"),
            ("$1 := a -> a\n$1 := b -> b\n", "line 2: '$1' is defined twice"),
            ("$x := a -> a\n", "line 1: expected 'name or $k before ':=', found '$x'"),
        ],
    )
    def test_shared_name_errors(self, text, message):
        with pytest.raises(ValueError) as e:
            parse_substitution(text)
        assert str(e.value).startswith(message)

    def test_shared_names_only_in_substitution_files(self):
        with pytest.raises(TypeSyntaxError) as e:
            parse_type("a -> $1")
        assert str(e.value) == "shared name '$1' outside a substitution file (at position 5)"
        with pytest.raises(TypeSyntaxError):
            parse_constraints("$1 <= a\n")


class TestFreshVars:
    def test_monotone_and_prefixed(self):
        g = FreshVars()
        a, b = g.next(), g.next()
        assert a.name != b.name
        assert a.name.startswith("_fresh")


def even_a_paths_ending_in_b(t) -> bool:
    """Path-shape predicate of the single-variable golden unification
    problem: every path of the organized image ends in b with an even
    number of arguments, all equal to a."""
    o = organize(t)
    if o is OMEGA:
        return False
    for p in components(o):
        ps = path_split(p)
        if ps.head is not const("b"):
            return False
        if len(ps.arguments) % 2 != 0:
            return False
        if any(not subtype(a, const("a")) or not subtype(const("a"), a) for a in ps.arguments):
            return False
    return True


class TestPathShapeCharacterization:
    CS = parse_constraints("a -> a -> ('be & b) == 'be & 'al")

    def test_hand_built_solutions(self):
        sols = [
            Substitution({"be": S("a -> a -> b"), "al": S("a -> a -> a -> a -> b")}),
            Substitution(
                {
                    "be": S("(a -> a -> b) & (a -> a -> a -> a -> b)"),
                    "al": S("a -> a -> a -> a -> a -> a -> b"),
                }
            ),
        ]
        for s in sols:
            assert verify(s, self.CS)
            assert even_a_paths_ending_in_b(s.get("be"))

    def test_solver_solution(self):
        from itu import solve_rank1

        s = solve_rank1(self.CS, budget=(2, 7))
        assert s is not None and verify(s, self.CS)
        assert even_a_paths_ending_in_b(s.get("be"))
