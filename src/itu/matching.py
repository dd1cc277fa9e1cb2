"""One-sided unification (matching): the 3-SAT reduction, valuation
extraction, and a bounded matching solver.

The solver searches substitutions that map each variable to an
intersection of atomic candidates (constants, plus constant arrow towers
at positive tower depth).  That search is complete for the image of the
3-SAT reduction but explicitly not a general decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .types import Const, OMEGA, Type, arrow, arrows, const, inter, type_constants, type_vars, var
from .constraints import Constraint, ConstraintSet, Substitution, is_matching_instance, leq, verify
from .subtyping import subtype

Literal = tuple[str, bool]  # (variable name, polarity)


@dataclass(frozen=True)
class Sat3Instance:
    variables: tuple[str, ...]
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("each clause must have exactly 3 literals")
            for name, _ in clause:
                if name not in self.variables:
                    raise ValueError(f"unknown propositional variable {name!r}")


def parse_dimacs(text: str) -> Sat3Instance:
    """DIMACS-like input: 'p cnf <vars> <clauses>' then 3-literal lines."""
    nvars = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad header {raw!r}")
            nvars = int(parts[2])
            continue
        nums = [int(x) for x in line.split() if x != "0"]
        if len(nums) != 3:
            raise ValueError(f"clause must have 3 literals: {raw!r}")
        clauses.append(tuple((f"x{abs(n)}", n > 0) for n in nums))
    if nvars is None:
        raise ValueError("missing 'p cnf' header")
    return Sat3Instance(tuple(f"x{i + 1}" for i in range(nvars)), tuple(clauses))


def sat_brute_force(f: Sat3Instance) -> dict[str, bool] | None:
    """Enumerate all valuations; the independent oracle for the reduction."""
    for bits in product([False, True], repeat=len(f.variables)):
        v = dict(zip(f.variables, bits))
        if all(any(v[name] == pol for name, pol in clause) for clause in f.clauses):
            return v
    return None


def _neg_name(x: str) -> str:
    return f"not_{x}"


def literal_const(name: str, polarity: bool) -> Const:
    return const(name if polarity else _neg_name(name))


def sat3_to_matching(f: Sat3Instance, bullet: Const | None = None) -> ConstraintSet:
    """The matching image of a 3-SAT instance over the single variable alpha."""
    bullet = bullet or const("mark")
    b = [const(x) for x in f.variables] + [const(_neg_name(x)) for x in f.variables]
    alpha = var("alpha")
    out = []
    for x in f.variables:
        pos = const(x)
        neg = const(_neg_name(x))
        sigma_x = inter(c for c in b if c is not neg)
        sigma_nx = inter(c for c in b if c is not pos)
        lhs = inter(
            [
                arrow(arrow(sigma_nx, bullet), arrow(neg, bullet)),
                arrow(arrow(sigma_x, bullet), arrow(pos, bullet)),
            ]
        )
        rhs = arrow(arrow(alpha, bullet), arrow(alpha, bullet))
        out.append(leq(lhs, rhs))
    for clause in f.clauses:
        lhs = inter(arrow(literal_const(n, p), bullet) for n, p in clause)
        out.append(leq(lhs, arrow(alpha, bullet)))
    return tuple(out)


def extract_valuation(s: Substitution, f: Sat3Instance, alpha: str = "alpha") -> dict[str, bool]:
    """Read a satisfying valuation off a verified matching solution."""
    if not verify(s, sat3_to_matching(f)):
        raise ValueError("substitution does not satisfy the matching image")
    sa = s.get(alpha)
    v = {}
    for x in f.variables:
        if subtype(sa, const(x)):
            v[x] = True
        elif subtype(sa, const(_neg_name(x))):
            v[x] = False
        else:
            raise ValueError(f"solution fixes neither polarity of {x!r}")
    return v


@dataclass(frozen=True)
class MatchBudget:
    tower_depth: int = 0  # 0 = constants only

    def atoms(self, constants: Sequence[Const]) -> list[Type]:
        out: list[Type] = list(constants)
        for c in constants:
            for d in range(1, self.tower_depth + 1):
                out.append(arrows([c] * d, c))
        return out


def solve_matching_bounded(
    cs: Sequence[Constraint], budget: MatchBudget | None = None
) -> Substitution | None:
    """Bounded search over atomic-intersection substitutions.

    Candidates per variable are intersections (of increasing width, the
    empty one being omega) of constants occurring in the constraints and,
    at positive tower depth, constant towers.  Returns a verified
    substitution or None when the bounded space is exhausted.
    """
    if not is_matching_instance(cs):
        raise ValueError("not a matching instance: no ground side in some constraint")
    budget = budget or MatchBudget()
    names: set[str] = set()
    consts: set[str] = set()
    for c in cs:
        names |= type_vars(c.lhs) | type_vars(c.rhs)
        consts |= type_constants(c.lhs) | type_constants(c.rhs)
    variables = sorted(names)
    if not variables:
        return Substitution() if verify(Substitution(), cs) else None
    atoms = budget.atoms([const(n) for n in sorted(consts)])

    candidates: list[Type] = [OMEGA]
    for k in range(1, len(atoms) + 1):
        for combo in combinations(atoms, k):
            candidates.append(inter(combo))

    # assign variables one at a time, checking the constraints that have
    # become fully instantiated after each choice so failures prune early
    order = variables
    pending: dict[str, list[Constraint]] = {v: [] for v in order}
    for c in cs:
        cvars = type_vars(c.lhs) | type_vars(c.rhs)
        last = max((order.index(v) for v in cvars), default=-1)
        if last >= 0:
            pending[order[last]].append(c)
    free = [c for c in cs if not (type_vars(c.lhs) | type_vars(c.rhs))]
    if not verify(Substitution(), free):
        return None

    assignment: dict[str, Type] = {}

    def search(i: int) -> Substitution | None:
        if i == len(order):
            return Substitution(dict(assignment))
        name = order[i]
        for cand in candidates:
            assignment[name] = cand
            sub = Substitution(assignment)
            if verify(sub, pending[name]):
                got = search(i + 1)
                if got is not None:
                    return got
        del assignment[name]
        return None

    return search(0)
