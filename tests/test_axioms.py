"""Equational axiom schemas and their soundness under the decider."""

import pytest

from itu import (
    ALL_AXIOMS,
    AxiomError,
    BASE_AXIOMS,
    JOIN_AXIOMS,
    arrow,
    check_axiom_soundness,
    const,
    parse_type,
    print_type,
    type_equal,
)
from itu.axioms import AB, AB_CAP, DR_MINUS, RE, U
from itu.gen import TypeGen


def test_instantiate_ab():
    lhs, rhs = AB.instantiate([const("a"), const("b"), const("c")])
    assert print_type(lhs) == "a -> b"
    assert type_equal(rhs, parse_type("(a -> b) & (a & c -> b)"))


def test_instantiate_u():
    lhs, rhs = U.instantiate([const("a")])
    assert lhs is const("a")  # canonical inter drops omega
    assert rhs is const("a")


def test_instantiate_re():
    lhs, rhs = RE.instantiate([])
    assert print_type(rhs) == "omega -> omega"


def test_arity_mismatch():
    with pytest.raises(AxiomError):
        AB.instantiate([const("a")])


def test_ab_cap_requires_arrows_with_shared_target():
    with pytest.raises(AxiomError):
        AB_CAP.instantiate([const("a"), const("b")])
    with pytest.raises(AxiomError):
        AB_CAP.instantiate([parse_type("a -> b"), parse_type("a -> c")])


def test_dr_minus_golden():
    lhs, rhs = DR_MINUS.instantiate([const("a"), const("b"), const("c")])
    assert check_axiom_soundness(DR_MINUS, [const("a"), const("b"), const("c")])


def _args_for(schema, g, rng):
    """Random legal argument lists (join axioms need arrow shapes)."""
    if schema.name in ("ABcap", "Dr-"):
        tgt = g.type(rng.randint(0, 2))
        srcs = [g.type(rng.randint(0, 2)) for _ in range(schema.arity - 1)]
        if schema.name == "ABcap":
            return [arrow(srcs[0], tgt), tgt]
        return [srcs[0], srcs[1], tgt]
    return [g.type(rng.randint(0, 3)) for _ in range(schema.arity)]


def test_fuzz_soundness_all_schemas(rng):
    g = TypeGen(rng)
    for schema in ALL_AXIOMS.values():
        for _ in range(300):
            args = _args_for(schema, g, rng)
            if schema.name == "ABcap":
                args = [arrow(g.type(1), g.type(1)), None]
                t = args[0]
                args = [t, arrow(g.type(1), t.target)]
            assert check_axiom_soundness(schema, args), schema.name


def test_axiom_families_cover_spec():
    assert {ax.name for ax in BASE_AXIOMS} == {"A", "C", "I", "U", "Dl", "RE", "AB"}
    assert "Dr-" in {ax.name for ax in JOIN_AXIOMS}
