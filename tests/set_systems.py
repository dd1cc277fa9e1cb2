"""Test helpers for the rank-1 pipeline: the text reader for hand-written
set-constraint systems, the inverse of ``itu.rank1.format_set_system``, and
the arrow index-set witness of the simple-subtyping lemma suite."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from itu import Arrow, SetConstraintSystem, Type, arrow, inter, is_atom, parse_type, subtype
from itu.rank1 import Arr, Atom, Card1, Eqs, Expr, K, Mem, Proj, Sub, Union, V


def _parse_expr(text: str, declared: set[str]) -> Expr:
    t = parse_type(text.replace("'", ""))

    def conv(u: Type) -> Expr:
        if is_atom(u):
            return V(u.name) if u.name in declared else K(u.name)
        if isinstance(u, Arrow):
            args = []
            while isinstance(u, Arrow):
                args.append(conv(u.source))
                u = u.target
            return Arr(tuple(args), conv(u))
        raise ValueError(f"bad expression {text!r}")

    return conv(t)


def parse_set_system(text: str) -> SetConstraintSystem:
    """Read the text format_set_system writes.  Every set variable an atom
    names must be declared on the vars: line."""
    variables: list[str] = []
    omega_vars: list[str] = []
    atoms: list[Atom] = []
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            variables = line[5:].split()
            declared = set(variables)
            continue
        if line.startswith("omega:"):
            omega_vars = line[6:].split()
            continue
        if line.startswith("card "):
            name, _, one = line[5:].partition("=")
            if one.strip() != "1":
                raise ValueError(f"line {lineno}: only cardinality 1 is supported")
            atoms.append(Card1(name.strip()))
            continue
        if line.startswith("{"):
            phi, _, x = line.partition("<=")
            atoms.append(Mem(parse_type(phi.strip().strip("{}")), x.strip()))
            continue
        if "=" in line and "<=" not in line:
            x, _, body = line.partition("=")
            x, body = x.strip(), body.strip()
            if body.startswith("{"):
                phis = tuple(
                    parse_type(p) for p in body.strip("{}").split(",") if p.strip()
                )
                atoms.append(Eqs(x, phis))
            elif body.startswith("src(") or body.startswith("tgt("):
                atoms.append(Proj(body[:3], x, body[4:-1].strip()))
            else:
                atoms.append(Union(x, tuple(y.strip() for y in body.split("|"))))
            continue
        x, _, body = line.partition("<=")
        atoms.append(Sub(x.strip(), _parse_expr(body.strip(), declared)))
    for a in atoms:
        for v in a.vars():
            if v not in declared:
                raise ValueError(f"undeclared set variable {v!r}")
    return SetConstraintSystem(tuple(variables), tuple(atoms), tuple(omega_vars))


def find_arrow_index_set(comps: Sequence[Type], rhs: Arrow) -> tuple[int, ...] | None:
    """Witness index set: a subset I' of the arrow components with
    intersection-of-sources -> intersection-of-targets below rhs."""
    arrows_only = [(i, c) for i, c in enumerate(comps) if isinstance(c, Arrow)]
    for k in range(1, len(arrows_only) + 1):
        for picked in combinations(arrows_only, k):
            merged = arrow(
                inter([c.source for _, c in picked]),
                inter([c.target for _, c in picked]),
            )
            if subtype(merged, rhs):
                return tuple(i for i, _ in picked)
    return None
