"""Constraint sets, substitutions, verification, and interreductions.

File formats:
  constraint file   -- one constraint per line, ``TYPE <= TYPE`` or
                       ``TYPE == TYPE``; ``#`` starts a comment
  substitution file -- lines ``'name := TYPE``, and lines ``$k := TYPE``
                       (k a decimal number) that name a shared subterm:
                       later lines may write ``$k`` wherever an atom may
                       stand.  A name is defined once, before it is used;
                       a variable name is an identifier other than
                       ``omega``, bound at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .types import (
    Arrow,
    Const,
    Inter,
    Type,
    Var,
    arrow,
    arrows,
    inter,
    is_identifier,
    parse_type,
    print_shared,
    print_type,
    type_constants,
    type_vars,
    var,
)
from .subtyping import subtype, type_equal

LEQ = "leq"
EQ = "eq"

FRESH_PREFIX = "_fresh"


@dataclass(frozen=True)
class Constraint:
    lhs: Type
    rhs: Type
    kind: str = LEQ

    def __str__(self) -> str:
        op = "<=" if self.kind == LEQ else "=="
        return f"{print_type(self.lhs)} {op} {print_type(self.rhs)}"


ConstraintSet = tuple[Constraint, ...]


def leq(lhs: Type, rhs: Type) -> Constraint:
    return Constraint(lhs, rhs, LEQ)


def eq(lhs: Type, rhs: Type) -> Constraint:
    return Constraint(lhs, rhs, EQ)


class Substitution:
    """Finite map from variable names to types, applied simultaneously."""

    def __init__(self, mapping: Mapping[str, Type] | None = None):
        self.mapping: dict[str, Type] = dict(mapping or {})

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self) -> str:
        inner = ", ".join(f"'{k} := {print_type(v)}" for k, v in sorted(self.mapping.items()))
        return f"Substitution({inner})"

    def get(self, name: str) -> Type:
        return self.mapping.get(name, var(name))


def apply(s: Substitution, t: Type) -> Type:
    """Capture-free simultaneous substitution; result is canonical.

    A ground subterm is returned as it is, without being rebuilt."""
    if t._ground:
        return t
    if isinstance(t, Var):
        return s.mapping.get(t.name, t)
    if isinstance(t, Arrow):
        return arrow(apply(s, t.source), apply(s, t.target))
    return inter(apply(s, c) for c in t.components)


def verify(s: Substitution, cs: Iterable[Constraint]) -> bool:
    """True iff s satisfies every constraint (<= via subtype, == via type_equal)."""
    for c in cs:
        lhs = apply(s, c.lhs)
        rhs = apply(s, c.rhs)
        if c.kind == LEQ:
            if not subtype(lhs, rhs):
                return False
        else:
            if not type_equal(lhs, rhs):
                return False
    return True


def sat_to_unif(cs: Sequence[Constraint]) -> ConstraintSet:
    """Each sigma <= tau becomes sigma & tau == sigma; solutions coincide."""
    out = []
    for c in cs:
        if c.kind != LEQ:
            raise ValueError("sat_to_unif expects <= constraints only")
        out.append(eq(inter([c.lhs, c.rhs]), c.lhs))
    return tuple(out)


def unif_to_sat(cs: Sequence[Constraint]) -> ConstraintSet:
    """Each sigma == tau becomes the pair sigma <= tau, tau <= sigma."""
    out = []
    for c in cs:
        if c.kind == LEQ:
            out.append(c)
        else:
            out.append(leq(c.lhs, c.rhs))
            out.append(leq(c.rhs, c.lhs))
    return tuple(out)


def is_matching_instance(cs: Sequence[Constraint]) -> bool:
    return all(c.lhs._ground or c.rhs._ground for c in cs)


def pack_single(cs: Sequence[Constraint], bullet: Const) -> Constraint:
    """Pack a constraint set into one <= constraint over the marker constant.

    For matching instances each constraint is oriented so that the packed
    lhs is ground; otherwise the pairs are embedded without reorientation.
    """
    matching = is_matching_instance(cs)
    lhs_parts: list[Type] = []
    rhs_parts: list[Type] = []
    for c in cs:
        if c.kind != LEQ:
            raise ValueError("pack_single expects <= constraints only")
        if matching:
            if c.lhs._ground:
                lhs_parts.append(arrow(c.lhs, bullet))
                rhs_parts.append(arrow(c.rhs, bullet))
            else:
                lhs_parts.append(c.rhs)
                rhs_parts.append(c.lhs)
        else:
            lhs_parts.append(arrow(c.lhs, bullet))
            rhs_parts.append(arrow(c.rhs, bullet))
    return leq(arrows(lhs_parts, bullet), arrows(rhs_parts, bullet))


def unary_tower(i: int, bullet: Const) -> Type:
    """The i-fold arrow tower bullet -> ... -> bullet -> bullet."""
    return arrows([bullet] * i, bullet)


def encode_constants_unary(
    cs: Sequence[Constraint],
    bullet: Const,
    order: Sequence[str] | None = None,
) -> ConstraintSet:
    """Replace every constant a_i (other than the marker) by the i-fold
    tower over the marker; solvability is preserved.

    ``order`` fixes the numbering a_1, ..., a_k; defaults to sorted order of
    the constants occurring in cs.
    """
    occurring: set[str] = set()
    for c in cs:
        occurring |= type_constants(c.lhs) | type_constants(c.rhs)
    occurring.discard(bullet.name)
    if order is None:
        order = sorted(occurring)
    else:
        missing = occurring - set(order)
        if missing:
            raise ValueError(f"constants not covered by order: {sorted(missing)}")
    towers = {name: unary_tower(i + 1, bullet) for i, name in enumerate(order)}
    done: dict[Type, Type] = {}  # once per shared node

    def enc(t: Type) -> Type:
        if t not in done:
            if isinstance(t, Const):
                done[t] = towers.get(t.name, t)
            elif isinstance(t, Arrow):
                done[t] = arrow(enc(t.source), enc(t.target))
            elif isinstance(t, Inter):
                done[t] = inter([enc(c) for c in t.components])
            else:
                return t
        return done[t]

    return tuple(Constraint(enc(c.lhs), enc(c.rhs), c.kind) for c in cs)


class FreshVars:
    """Fresh variable names with the reserved prefix, confined per call."""

    def __init__(self):
        self.counter = 0

    def next(self) -> Var:
        self.counter += 1
        return var(f"{FRESH_PREFIX}{self.counter}")


def _check_no_reserved(t: Type) -> None:
    for name in type_vars(t):
        if name.startswith(FRESH_PREFIX):
            raise ValueError(f"variable name '{name}' uses the reserved fresh prefix")


def typability_constraints(
    term, basis: Mapping[str, Type], goal: Type | None = None
) -> ConstraintSet:
    """Constraint generation for applicative combinator terms.

    ``term`` is either a combinator name (str) or a pair (fun, arg).
    A leaf F yields {type(F) <= goal}; an application E1 E2 yields the
    union of the subproblems at fresh alpha -> beta and alpha plus
    {beta <= goal}.
    """
    for t in basis.values():
        _check_no_reserved(t)
    gen = FreshVars()
    if goal is None:
        goal = gen.next()
    else:
        _check_no_reserved(goal)

    def f(e, tau: Type) -> list[Constraint]:
        if isinstance(e, str):
            if e not in basis:
                raise KeyError(f"unknown combinator {e!r}")
            return [leq(basis[e], tau)]
        e1, e2 = e
        alpha = gen.next()
        beta = gen.next()
        return f(e1, arrow(alpha, beta)) + f(e2, alpha) + [leq(beta, tau)]

    return tuple(f(term, goal))


# ---------------------------------------------------------------------------
# file I/O

def parse_constraints(text: str) -> ConstraintSet:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" in line:
            l, r = line.split("<=", 1)
            kind = LEQ
        elif "==" in line:
            l, r = line.split("==", 1)
            kind = EQ
        else:
            raise ValueError(f"line {lineno}: expected '<=' or '==' in {raw!r}")
        out.append(Constraint(parse_type(l), parse_type(r), kind))
    return tuple(out)


def format_constraints(cs: Iterable[Constraint]) -> str:
    return "".join(f"{c}\n" for c in cs)


_SHARED_NAME = re.compile(r"\$[0-9]+\Z")


def parse_substitution(text: str) -> Substitution:
    mapping: dict[str, Type] = {}
    defs: dict[str, Type] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise ValueError(f"line {lineno}: expected ':=' in {raw!r}")
        name, body = line.split(":=", 1)
        name = name.strip()
        if name.startswith("'"):
            v = name[1:]
            if v == "omega":
                raise ValueError(f"line {lineno}: 'omega' is reserved and cannot name a variable")
            if not is_identifier(v):
                raise ValueError(f"line {lineno}: expected a variable name after \"'\", found {v!r}")
            if v in mapping:
                raise ValueError(f"line {lineno}: {name!r} is bound twice")
            mapping[v] = parse_type(body, defs)
        elif _SHARED_NAME.match(name):
            if name in defs:
                raise ValueError(f"line {lineno}: {name!r} is defined twice")
            defs[name] = parse_type(body, defs)
        else:
            raise ValueError(f"line {lineno}: expected 'name or $k before ':=', found {name!r}")
    return Substitution(mapping)


def format_substitution(s: Substitution, shared: bool = False) -> str:
    """One ``'name := TYPE`` line per variable, by name.  With ``shared``,
    each arrow or intersection with two or more parents among the images
    is written once, as a ``$k`` definition ahead of its first use."""
    names = sorted(s.mapping)
    if not shared:
        return "".join(f"'{name} := {print_type(s.mapping[name])}\n" for name in names)
    defs, texts = print_shared([s.mapping[name] for name in names])
    return "".join(f"{d}\n" for d in defs) + "".join(
        f"'{name} := {text}\n" for name, text in zip(names, texts)
    )
