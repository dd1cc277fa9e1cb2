"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import random

import pytest

from itu import make_system, parse_type


@pytest.fixture
def rng():
    return random.Random(20240817)


# the two golden spiral-game systems
@pytest.fixture
def spiral_loser():
    # D={a,b}, H missing (a,a), full V, bottom aaa, top bbb, n=3:
    # Spoiler can always avoid the suffix bbb
    return make_system(
        tiles=("a", "b"),
        h=(("a", "b"), ("b", "a"), ("b", "b")),
        v=(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")),
        bottom=("a",) * 3,
        top=("b",) * 3,
        n=3,
    )


@pytest.fixture
def spiral_winner():
    # full H, V missing (b,a), bottom aaaaa, top bbbbb, n=5: Constructor
    # wins within 9 added tiles by always appending b
    full = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    return make_system(
        tiles=("a", "b"),
        h=full,
        v=(("a", "a"), ("a", "b"), ("b", "b")),
        bottom=("a",) * 5,
        top=("b",) * 5,
        n=5,
    )


# parsed once: the constraints are immutable, and module-scoped fixtures
# build on them
@pytest.fixture(scope="session")
def ex55_constraints():
    from itu import parse_constraints

    return parse_constraints(
        "a -> a -> ('b2 & b) == 'b2 & 'al\n"
        "a -> a -> a -> ('b3 & b) == 'b3 & 'al\n"
    )


@pytest.fixture
def ex55_solution():
    from itu import Substitution

    return Substitution(
        {
            "b2": parse_type("(a -> a -> b) & (a -> a -> a -> a -> b)"),
            "b3": parse_type("a -> a -> a -> b"),
            "al": parse_type("a -> a -> a -> a -> a -> a -> b"),
        }
    )
