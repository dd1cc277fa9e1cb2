"""Equational axiom schemas for intersection type equality.

Two presentations are covered: the arrow/intersection theory with unit,
left distributivity, recursion and absorption, and the variant that
replaces absorption by lattice absorption plus the contravariant join on
arrows.  Schemas instantiate to concrete (lhs, rhs) pairs; soundness of
each instance is checked against the subtyping decider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .types import OMEGA, Arrow, Type, arrow, inter
from .subtyping import JoinError, join_arrows, type_equal


class AxiomError(ValueError):
    pass


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    arity: int
    build: Callable[..., tuple[Type, Type]]

    def instantiate(self, args: Sequence[Type]) -> tuple[Type, Type]:
        if len(args) != self.arity:
            raise AxiomError(
                f"axiom {self.name} expects {self.arity} arguments, got {len(args)}"
            )
        return self.build(*args)


def _ab_cap(s: Type, t: Type) -> tuple[Type, Type]:
    # sigma ~ sigma & (sigma v tau); the join is eliminated via join_arrows,
    # so both arguments must be arrows with equal targets.
    if not isinstance(s, Arrow) or not isinstance(t, Arrow):
        raise AxiomError("AB_cap is instantiated at arrow arguments only")
    try:
        j = join_arrows(s, t)
    except JoinError as e:
        raise AxiomError(str(e)) from e
    return s, inter([s, j])


def _dr_minus(s: Type, s2: Type, t: Type) -> tuple[Type, Type]:
    # (sigma -> tau) v (sigma' -> tau) ~ (sigma & sigma') -> tau
    lhs = join_arrows(arrow(s, t), arrow(s2, t))
    return lhs, arrow(inter([s, s2]), t)


A = AxiomSchema("A", 3, lambda s, t, r: (inter([s, inter([t, r])]), inter([inter([s, t]), r])))
C = AxiomSchema("C", 2, lambda s, t: (inter([s, t]), inter([t, s])))
I = AxiomSchema("I", 1, lambda s: (inter([s, s]), s))
U = AxiomSchema("U", 1, lambda s: (inter([s, OMEGA]), s))
DL = AxiomSchema("Dl", 3, lambda s, t, t2: (inter([arrow(s, t), arrow(s, t2)]), arrow(s, inter([t, t2]))))
RE = AxiomSchema("RE", 0, lambda: (OMEGA, arrow(OMEGA, OMEGA)))
AB = AxiomSchema("AB", 3, lambda s, t, s2: (arrow(s, t), inter([arrow(s, t), arrow(inter([s, s2]), t)])))
AB_CAP = AxiomSchema("ABcap", 2, _ab_cap)
DR_MINUS = AxiomSchema("Dr-", 3, _dr_minus)

# the first presentation; the variant adds AB_CAP and DR_MINUS in place of AB
BASE_AXIOMS = (A, C, I, U, DL, RE, AB)
JOIN_AXIOMS = (A, C, I, U, DL, RE, AB_CAP, DR_MINUS)

ALL_AXIOMS = {ax.name: ax for ax in BASE_AXIOMS + (AB_CAP, DR_MINUS)}


def check_axiom_soundness(schema: AxiomSchema, args: Sequence[Type]) -> bool:
    lhs, rhs = schema.instantiate(args)
    return type_equal(lhs, rhs)
