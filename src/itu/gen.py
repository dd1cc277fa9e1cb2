"""Seeded random generators for types, constraints, and axiom instances.

Everything takes an explicit random.Random so fuzz runs are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .types import OMEGA, Type, arrow, const, inter, var


CONSTANTS = ("a", "b", "c")
VARIABLES = ("x", "y")
MAX_WIDTH = 3  # most components in a drawn intersection


class TypeGen:
    """Random type generator; omega and variables can be left out."""

    def __init__(
        self,
        rng: random.Random | int,
        allow_omega: bool = True,
        allow_vars: bool = True,
    ):
        self.rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        self.allow_omega = allow_omega
        self.allow_vars = allow_vars

    def atom(self) -> Type:
        r = self.rng
        choices = ["const"]
        if self.allow_vars:
            choices.append("var")
        if self.allow_omega:
            choices.append("omega")
        pick = r.choice(choices)
        if pick == "const":
            return const(r.choice(CONSTANTS))
        if pick == "var":
            return var(r.choice(VARIABLES))
        return OMEGA

    def type(self, depth: int = 3) -> Type:
        r = self.rng
        if depth <= 0:
            return self.atom()
        roll = r.random()
        if roll < 0.35:
            return self.atom()
        if roll < 0.75:
            return arrow(self.type(depth - 1), self.type(depth - 1))
        width = r.randint(2, MAX_WIDTH)
        return inter(self.type(depth - 1) for _ in range(width))

    def simple(self, depth: int = 3) -> Type:
        """Ground simple type: constants and arrows only."""
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return const(r.choice(CONSTANTS))
        return arrow(self.simple(depth - 1), self.simple(depth - 1))

    def simple_intersection(self, depth: int = 3, width: int = 3) -> Type:
        k = self.rng.randint(1, width)
        return inter(self.simple(depth) for _ in range(k))
