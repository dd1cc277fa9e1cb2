"""Rank-1 unification via set constraints with projections.

Pipeline: a set of subtyping constraints is transformed, through a
15-rule nondeterministic rewrite system, into systems of set constraints
over finite sets of simple types (no intersections, no omega, no
variables inside elements).  A bounded repair-based solver searches for
finite-set assignments; assignments convert back to substitutions whose
images are intersections of simple types, and every candidate is checked
against the original constraints before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterator, Sequence

from .types import (
    Arrow,
    Const,
    Inter,
    OMEGA,
    Type,
    Var,
    arrow,
    arrows,
    components,
    const,
    inter,
    is_atom,
    organize,
    parse_type,
    path_split,
    print_type,
    type_vars,
    var,
)
from .subtyping import subtype
from .constraints import (
    Constraint,
    ConstraintSet,
    FreshVars,
    LEQ,
    Substitution,
    apply,
    leq,
    unif_to_sat,
    verify,
)

# ---------------------------------------------------------------------------
# simple types


def is_simple(t: Type) -> bool:
    """Ground simple type: constants and arrows only."""
    if isinstance(t, Const):
        return True
    if isinstance(t, Arrow):
        return is_simple(t.source) and is_simple(t.target)
    return False


def simple_depth(t: Type) -> int:
    if isinstance(t, Arrow):
        return 1 + max(simple_depth(t.source), simple_depth(t.target))
    return 1


def deep_organize(t: Type) -> Type:
    """Organize at every arrow level, arguments included (stronger than the
    top-level organize)."""
    if isinstance(t, Arrow):
        return organize(arrow(deep_organize(t.source), deep_organize(t.target)))
    if isinstance(t, Inter):
        return inter(deep_organize(c) for c in t.components)
    return t


# ---------------------------------------------------------------------------
# set constraint systems

# atoms: ("eqs", x, (phis,))    x = {phi1, ..., phik}
#        ("mem", phi, x)        {phi} <= x
#        ("sub", x, y)          x <= y
#        ("union", x, (ys,))    x = y1 | ... | yk
#        ("src", x, y)          x = src(y)
#        ("tgt", x, y)          x = tgt(y)
#        ("sube", x, expr)      x <= expr
#        ("card1", x)           card x = 1
# expressions: ("v", name) | ("k", const name) | ("arr", (args,), target)

Atom = tuple
Expr = tuple


@dataclass(frozen=True)
class SetConstraintSystem:
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]
    omega_vars: tuple[str, ...] = ()

    def __post_init__(self):
        declared = set(self.variables)
        for a in self.atoms:
            for v in _atom_vars(a):
                if v not in declared:
                    raise ValueError(f"undeclared set variable {v!r}")


def _expr_vars(e: Expr) -> Iterator[str]:
    if e[0] == "v":
        yield e[1]
    elif e[0] == "arr":
        for a in e[1]:
            yield from _expr_vars(a)
        yield from _expr_vars(e[2])


def _atom_vars(a: Atom) -> Iterator[str]:
    kind = a[0]
    if kind in ("eqs", "card1"):
        yield a[1]
    elif kind == "mem":
        yield a[2]
    elif kind in ("sub", "src", "tgt"):
        yield a[1]
        yield a[2]
    elif kind == "union":
        yield a[1]
        yield from a[2]
    elif kind == "sube":
        yield a[1]
        yield from _expr_vars(a[2])


# ---------------------------------------------------------------------------
# the transformation


class _Abort(Exception):
    """A branch hit an abortive rule; pruned silently."""


def _head_of(t: Type) -> Type:
    while isinstance(t, Arrow):
        t = t.target
    return t


def _subsets_desc(items: Sequence) -> Iterator[tuple]:
    """Nonempty subsets, largest first (full set leads)."""
    for k in range(len(items), 0, -1):
        yield from combinations(items, k)


def rank1_transform(
    cs: Sequence[Constraint], max_steps: int = 100_000
) -> Iterator[SetConstraintSystem]:
    """Stream every set-constraint system reachable from cs.

    Nondeterminism: the initial choice of variables replaced by omega
    (smallest sets first), the component choice when the target head is a
    constant, and the subset choice when it is a variable.  Branches that
    hit an abortive rule are dropped.
    """
    cs = unif_to_sat(tuple(cs))
    for c in cs:
        if c.kind != LEQ:
            raise ValueError("rank1_transform expects <= constraints")
    names = sorted(set().union(*[type_vars(c.lhs) | type_vars(c.rhs) for c in cs], set()))
    for k in range(len(names) + 1):
        for v_set in combinations(names, k):
            omega_sub = Substitution({x: OMEGA for x in v_set})
            start = [
                leq(deep_organize(apply(omega_sub, c.lhs)), deep_organize(apply(omega_sub, c.rhs)))
                for c in cs
            ]
            keep = [x for x in names if x not in v_set]
            yield from _run_rules(start, keep, v_set, max_steps)


def _run_rules(
    constraints: list[Constraint],
    declared: list[str],
    omega_vars: tuple[str, ...],
    max_steps: int,
) -> Iterator[SetConstraintSystem]:
    gen = FreshVars()

    def rec(cl: _Worklist, atoms: tuple[Atom, ...], steps: int) -> Iterator[SetConstraintSystem]:
        if steps > max_steps:
            raise RuntimeError("rank1_transform exceeded its step limit")
        if not cl:
            decl = list(declared)
            seen = set(decl)
            for a in atoms:
                for v in _atom_vars(a):
                    if v not in seen:
                        seen.add(v)
                        decl.append(v)
            yield SetConstraintSystem(tuple(decl), atoms, omega_vars)
            return
        try:
            rest, got = _step(cl, gen)
        except _Abort:
            return
        for new, new_atoms in got:
            yield from rec(_classified(new) + rest, atoms + new_atoms, steps + 1)

    yield from rec(_classified(constraints), (), 0)


# the pending constraints, each paired with the number of the lowest rule
# that applies to it (_classify), in the order the rules consider them
_Worklist = tuple[tuple[int, Constraint], ...]

_NO_RULE = 16


def _classified(cs: Sequence[Constraint]) -> _Worklist:
    return tuple((_classify(c.lhs, c.rhs), c) for c in cs)


def _step(cl: _Worklist, gen: FreshVars):
    """Fire the lowest-numbered applicable rule on the leftmost constraint
    it applies to; return the other pending constraints and the rule's
    branch outcomes [(replacement constraints, emitted atoms)]."""
    idx = min(range(len(cl)), key=lambda i: cl[i][0])
    rule, c = cl[idx]
    if rule == _NO_RULE:
        raise RuntimeError(f"no rule applies to {cl[0][1]}")
    return cl[:idx] + cl[idx + 1:], _try_rule(rule, c, gen)


def _classify(s: Type, t: Type) -> int:
    """The number of the lowest rule that applies to s <= t, or _NO_RULE.
    These are the only statements of the rules' applicability conditions."""
    if subtype(s, t):
        return 1
    if isinstance(t, Var) and is_simple(s):
        return 2
    if isinstance(s, Var) and is_simple(t):
        return 3
    if isinstance(s, Var) and isinstance(t, Var):
        return 4
    if s is OMEGA:
        return 5
    if isinstance(t, Inter):
        return 6
    if isinstance(s, Const) and isinstance(t, (Arrow, Const)) or isinstance(s, Arrow) and isinstance(t, Const):
        return 7
    if isinstance(s, Inter) and isinstance(t, (Arrow, Const)) and isinstance(_head_of(t), Const):
        return 8
    if isinstance(s, Inter) and isinstance(_head_of(t), Var):
        return 9
    if isinstance(s, Arrow) and isinstance(t, Arrow):
        return 10
    if isinstance(s, Var) and isinstance(t, Arrow):
        return 11
    if not (isinstance(s, Arrow) and isinstance(t, Var)):
        return _NO_RULE
    if s.source is OMEGA:
        return 12
    if isinstance(s.source, Inter):
        return 13
    if isinstance(_head_of(s.source), Const):
        return 14
    if isinstance(_head_of(s.source), Var):
        return 15
    return _NO_RULE


def _try_rule(rule: int, c: Constraint, gen: FreshVars):
    """Outcomes of a rule that _classify chose for c.  Each outcome is
    (replacement constraints, emitted atoms); an abortive rule raises."""
    s, t = c.lhs, c.rhs
    if rule == 1:
        return [((), ())]
    if rule == 2:
        return [((), (("eqs", t.name, (s,)),))]
    if rule == 3:
        return [((), (("mem", t, s.name),))]
    if rule == 4:
        return [((), (("sub", t.name, s.name),))]
    if rule in (5, 7):
        # rule 5: rule 1 already removed the case t in T-omega
        raise _Abort
    if rule == 6:
        return [(tuple(leq(s, p) for p in t.components), ())]
    if rule == 8:
        return [((leq(p, t),), ()) for p in s.components]
    if rule == 9:
        head = _head_of(t)
        args = path_split(t).arguments if not isinstance(t, Var) else ()
        outcomes = []
        for chosen in _subsets_desc(s.components):
            fresh = [gen.next() for _ in chosen]
            new = tuple(
                leq(p, arrows(args, a)) for p, a in zip(chosen, fresh)
            )
            outcomes.append(
                (new, (("union", head.name, tuple(a.name for a in fresh)),))
            )
        return outcomes
    if rule == 10:
        return [((leq(t.source, s.source), leq(s.target, t.target)), ())]
    if rule == 11:
        b, g, d = gen.next(), gen.next(), gen.next()
        new = (leq(t.source, b), leq(g, t.target))
        atoms = (
            ("sub", d.name, s.name),
            ("src", b.name, d.name),
            ("tgt", g.name, d.name),
        )
        return [(new, atoms)]
    src_t = s.source
    if rule == 12:
        b, g = gen.next(), gen.next()
        atoms = (("sube", t.name, ("arr", (("v", g.name),), ("v", b.name))),)
        return [((leq(s.target, b),), atoms)]
    if rule == 13:
        return [
            (tuple(leq(arrow(p, s.target), t) for p in src_t.components), ())
        ]
    # rules 14 and 15: the source is a path with a constant (variable) head
    head = _head_of(src_t)
    args = path_split(src_t).arguments if isinstance(src_t, Arrow) else ()
    bs = [gen.next() for _ in args]
    g = gen.next()
    new = tuple(leq(a, b) for a, b in zip(args, bs)) + (leq(s.target, g),)
    kind = "k" if rule == 14 else "v"
    inner = ("arr", tuple(("v", b.name) for b in bs), (kind, head.name)) if bs else (kind, head.name)
    atoms = (("sube", t.name, ("arr", (inner,), ("v", g.name))),)
    if rule == 15:
        atoms += (("card1", head.name),)
    return [(new, atoms)]


# ---------------------------------------------------------------------------
# the finite-set solver


def _expr_denote(e: Expr, a: dict[str, frozenset[Type]]) -> frozenset[Type]:
    if e[0] == "v":
        return a[e[1]]
    if e[0] == "k":
        return frozenset([const(e[1])])
    sets = [_expr_denote(x, a) for x in e[1]]
    tgt_set = _expr_denote(e[2], a)
    out = set()

    def build(i: int, args: list[Type]):
        if i == len(sets):
            for g in tgt_set:
                out.add(arrows(args, g))
            return
        for x in sets[i]:
            build(i + 1, args + [x])

    build(0, [])
    return frozenset(out)


def _match_expr(phi: Type, e: Expr):
    """Membership requirements phi in denote(e) as a list of (element, var)
    additions, or None if the shapes cannot match."""
    if e[0] == "v":
        return [(phi, e[1])]
    if e[0] == "k":
        return [] if phi is const(e[1]) else None
    args, tgt_e = e[1], e[2]
    need = []
    cur = phi
    for sub_e in args:
        if not isinstance(cur, Arrow):
            return None
        got = _match_expr(cur.source, sub_e)
        if got is None:
            return None
        need.extend(got)
        cur = cur.target
    got = _match_expr(cur, tgt_e)
    if got is None:
        return None
    return need + got


@dataclass
class _SolveState:
    sets: dict[str, set[Type]]
    frozen: dict[str, frozenset[Type]]  # eq1-pinned variables
    card1: set[str]


class SearchLimit(Exception):
    """The repair search hit its node cap before finishing."""


def iter_set_solutions(
    scs: SetConstraintSystem,
    budget: tuple[int, int] = (3, 6),
    max_nodes: int | None = None,
    extra_pool: set[Type] | None = None,
) -> Iterator[dict[str, frozenset[Type]]]:
    """Enumerate satisfying finite-set assignments within the budget
    (max cardinality per variable, max simple-type depth per element).

    Repair search: start from the pinned/seeded sets, find the first
    violated atom, apply every bounded repair, recurse.  All additions are
    monotone, so the search terminates; states reached by several repair
    orders are explored once.  With max_nodes set, raises SearchLimit if
    the cap is hit before the search space is exhausted.

    extra_pool, when given, both enriches the candidate pool and collects
    every element the search constructs, so repeated runs see deeper
    candidates (deep arrow partners are built stepwise across runs).
    """
    max_card, max_depth = budget
    frozen: dict[str, frozenset[Type]] = {}
    card1: set[str] = set()
    for a in scs.atoms:
        if a[0] == "eqs":
            pinned = frozenset(a[2])
            if a[1] in frozen and frozen[a[1]] != pinned:
                return
            frozen[a[1]] = pinned
        elif a[0] == "card1":
            card1.add(a[1])
    sets: dict[str, set[Type]] = {v: set() for v in scs.variables}
    for v, fs in frozen.items():
        sets[v] = set(fs)

    # pinned projection partners: when src(y) (resp. tgt(y)) is frozen,
    # any invented arrow added to y must take its source (target) from
    # that frozen set, so partner enumeration is cut down to it
    src_pin: dict[str, frozenset[Type]] = {}
    tgt_pin: dict[str, frozenset[Type]] = {}
    for a in scs.atoms:
        if a[0] == "src" and a[1] in frozen:
            src_pin[a[2]] = frozen[a[1]]
        elif a[0] == "tgt" and a[1] in frozen:
            tgt_pin[a[2]] = frozen[a[1]]

    # seed pool: every subterm of every simple type mentioned in the system
    pool: set[Type] = set()

    _key_cache: dict[Type, tuple] = {}

    def _key(t: Type) -> tuple:
        k = _key_cache.get(t)
        if k is None:
            k = _key_cache[t] = (simple_depth(t), print_type(t))
        return k

    _sorted_pool: list[Type] = []
    _pool_dirty = [True]

    def pool_add(t: Type):
        if t in pool:
            return
        pool.add(t)
        _pool_dirty[0] = True
        if isinstance(t, Arrow):
            pool_add(t.source)
            pool_add(t.target)

    for a in scs.atoms:
        if a[0] == "eqs":
            for phi in a[2]:
                pool_add(phi)
        elif a[0] == "mem":
            pool_add(a[1])
        else:
            stack = [x for x in a[1:] if isinstance(x, tuple)]
            while stack:
                e = stack.pop()
                if e and e[0] == "k":
                    pool_add(const(e[1]))
                elif e and e[0] == "arr":
                    stack.extend(e[1])
                    stack.append(e[2])
                else:
                    stack.extend(x for x in e if isinstance(x, tuple))
    if extra_pool:
        for t in extra_pool:
            pool_add(t)
    if not pool:
        pool.add(const("a"))

    def ok_add(v: str, phi: Type) -> bool:
        if simple_depth(phi) > max_depth:
            return False
        if v in frozen and phi not in frozen[v]:
            return False
        if phi in sets[v]:
            return True
        if len(sets[v]) >= max_card:
            return False
        if v in card1 and len(sets[v]) >= 1:
            return False
        return True

    # repair kinds that must invent an arrow partner or seed an element from
    # the current candidate pool; committing to one such atom is not
    # exhaustive (the needed partner may only exist after other repairs), so
    # they are branched jointly and only when no exhaustive repair remains
    def violation():
        """None if every atom holds, else the list of repair options to
        branch over; each option is a list of (var, element) additions
        applied together.  An empty list means the state is dead.

        Fail-first over the exhaustive repairs (their option lists cover
        every way the atom can ever be satisfied, so forced single-option
        repairs act as propagation and zero options kill the state);
        inventive repairs from all violated atoms are pooled and tried
        only when nothing exhaustive is left."""
        best = None
        inventive: list[list[list[tuple[str, Type]]]] = []
        violated = False
        for a, opts, inv in _violations():
            violated = True
            opts = [adds for adds in opts if all(ok_add(v, p) for v, p in adds)]
            if inv:
                inventive.append(opts)
                continue
            if len(opts) <= 1:
                return opts
            if best is None or len(opts) < len(best):
                best = opts
        if best is not None:
            return best
        if violated:
            nonempty = [opts for opts in inventive if opts]
            if not nonempty:
                return []
            return min(nonempty, key=len)
        return None

    def _violations():
        for a in scs.atoms:
            kind = a[0]
            if kind == "eqs":
                missing = frozen[a[1]] - sets[a[1]]
                if missing:
                    yield a, [[(a[1], phi)] for phi in missing], False
                continue  # the upper bound is enforced when adding
            if kind == "card1":
                if len(sets[a[1]]) == 1:
                    continue
                if len(sets[a[1]]) > 1:
                    yield a, [], False  # unrepairable: additions cannot shrink a set
                    continue
                yield a, [[(a[1], phi)] for phi in _candidates()], True
                continue
            if kind == "mem":
                if a[1] in sets[a[2]]:
                    continue
                yield a, [[(a[2], a[1])]], False
                continue
            if kind == "sub":
                missing = sets[a[1]] - sets[a[2]]
                if not missing:
                    continue
                phi = min(missing, key=_key)
                yield a, [[(a[2], phi)]], False
                continue
            if kind == "union":
                x, ys = a[1], a[2]
                under = set().union(*(sets[y] for y in ys)) - sets[x]
                if under:
                    phi = min(under, key=_key)
                    yield a, [[(x, phi)]], False
                    continue
                over = sets[x] - set().union(*(sets[y] for y in ys))
                if over:
                    phi = min(over, key=print_type)
                    yield a, [[(y, phi)] for y in ys], False
                continue
            if kind in ("src", "tgt"):
                x, y = a[1], a[2]
                proj = {
                    (e.source if kind == "src" else e.target)
                    for e in sets[y]
                    if isinstance(e, Arrow)
                }
                under = proj - sets[x]
                if under:
                    phi = min(under, key=_key)
                    yield a, [[(x, phi)]], False
                    continue
                over = sets[x] - proj
                if over:
                    phi = min(over, key=_key)
                    partners = tgt_pin.get(y) if kind == "src" else src_pin.get(y)
                    if partners is None:
                        partners = _candidates()
                    opts = []
                    for other in partners:
                        e = arrow(phi, other) if kind == "src" else arrow(other, phi)
                        opts.append([(y, e)])
                    yield a, opts, True
                continue
            if kind == "sube":
                x, e = a[1], a[2]
                den = _expr_denote(e, {v: frozenset(s) for v, s in sets.items()})
                out = sets[x] - den
                if not out:
                    continue
                phi = min(out, key=_key)
                need = _match_expr(phi, e)
                if need is None:
                    yield a, [], False
                    continue
                adds = [(v, p) for p, v in need if p not in sets[v]]
                if not adds:
                    # component memberships hold yet the product misses phi:
                    # impossible for these expression shapes
                    yield a, [], False
                    continue
                yield a, [adds], False

    def _candidates() -> list[Type]:
        # the pool absorbs every element ever added to a set, so it is
        # the full candidate universe; keep it sorted small-first
        if _pool_dirty[0]:
            _sorted_pool[:] = sorted(pool, key=_key)
            _pool_dirty[0] = False
        return _sorted_pool

    seen_states: set[frozenset] = set()
    nodes = 0

    def rec() -> Iterator[dict[str, frozenset[Type]]]:
        nonlocal nodes
        state = frozenset((v, p) for v, s in sets.items() for p in s)
        if state in seen_states:
            return
        seen_states.add(state)
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchLimit
        options = violation()
        if options is None:
            yield {v: frozenset(s) for v, s in sets.items()}
            return
        for adds in options:
            if not all(ok_add(v, p) for v, p in adds):
                continue
            applied = [(v, p) for v, p in adds if p not in sets[v]]
            if not applied:
                continue
            for v, p in applied:
                sets[v].add(p)
                pool_add(p)
                if extra_pool is not None:
                    extra_pool.add(p)
            yield from rec()
            for v, p in applied:
                sets[v].discard(p)

    yield from rec()


def assignment_to_substitution(
    scs: SetConstraintSystem,
    assignment: dict[str, frozenset[Type]],
    original_vars: set[str],
) -> Substitution:
    """Sets become intersections (empty set = omega); omega-chosen
    variables map to omega; fresh bookkeeping variables are dropped."""
    mapping: dict[str, Type] = {}
    for x in original_vars:
        if x in scs.omega_vars:
            mapping[x] = OMEGA
        else:
            mapping[x] = inter(sorted(assignment.get(x, frozenset()), key=print_type))
    return Substitution(mapping)


def solve_rank1(
    cs: Sequence[Constraint],
    budget: tuple[int, int] = (3, 6),
    max_candidates: int = 10_000,
) -> Substitution | None:
    """Compose the transformation and the finite-set solver; every
    candidate substitution is re-verified against cs before being
    returned, so the result is sound regardless of budget effects."""
    cs = tuple(cs)
    original_vars: set[str] = set()
    for c in cs:
        original_vars |= type_vars(c.lhs) | type_vars(c.rhs)
    tried = 0
    # the first round pulls the branches one at a time and records them,
    # so a solution found early leaves the rest of the transform undone
    branches: list[SetConstraintSystem] = []

    def first_round() -> Iterator[SetConstraintSystem]:
        for scs in rank1_transform(cs):
            branches.append(scs)
            yield scs

    # candidate-pool growth rounds: a failed search still constructs
    # elements (recorded in grown), and the next round offers them as
    # arrow partners, so deep solution elements get built stepwise;
    # stop at a pool fixpoint or when the node caps stop truncating
    grown: set[Type] = set()
    cap = 2_000
    for round_no in range(8):
        before = len(grown)
        truncated = 0
        for scs in first_round() if round_no == 0 else branches:
            try:
                for assignment in iter_set_solutions(
                    scs, budget, max_nodes=cap, extra_pool=grown
                ):
                    sub = assignment_to_substitution(scs, assignment, original_vars)
                    if verify(sub, cs):
                        return sub
                    tried += 1
                    if tried >= max_candidates:
                        return None
            except SearchLimit:
                truncated += 1
        if len(grown) == before and not truncated:
            return None
        if len(grown) == before:
            cap *= 4
    return None


def find_arrow_index_set(comps: Sequence[Type], rhs: Arrow) -> tuple[int, ...] | None:
    """Witness index set: a subset I' of the arrow components with
    intersection-of-sources -> intersection-of-targets below rhs."""
    arrows_only = [(i, c) for i, c in enumerate(comps) if isinstance(c, Arrow)]
    for picked in chain.from_iterable(
        combinations(arrows_only, k) for k in range(len(arrows_only) + 1)
    ):
        if not picked:
            merged = None
        else:
            merged = arrow(
                inter([c.source for _, c in picked]),
                inter([c.target for _, c in picked]),
            )
        if merged is not None and subtype(merged, rhs):
            return tuple(i for i, _ in picked)
    return None


# ---------------------------------------------------------------------------
# text serialization (debugging and golden tests)


def _format_expr(e: Expr) -> str:
    if e[0] == "v":
        return e[1]
    if e[0] == "k":
        return e[1]
    parts = [_format_expr(x) for x in e[1]] + [_format_expr(e[2])]
    parts = [f"({p})" if " -> " in p else p for p in parts]
    return " -> ".join(parts)


def format_set_system(scs: SetConstraintSystem) -> str:
    lines = [f"vars: {' '.join(scs.variables)}"]
    if scs.omega_vars:
        lines.append(f"omega: {' '.join(scs.omega_vars)}")
    for a in scs.atoms:
        kind = a[0]
        if kind == "eqs":
            body = ", ".join(print_type(phi) for phi in a[2])
            lines.append(f"{a[1]} = {{{body}}}")
        elif kind == "mem":
            lines.append(f"{{{print_type(a[1])}}} <= {a[2]}")
        elif kind == "sub":
            lines.append(f"{a[1]} <= {a[2]}")
        elif kind == "union":
            lines.append(f"{a[1]} = {' | '.join(a[2])}")
        elif kind in ("src", "tgt"):
            lines.append(f"{a[1]} = {kind}({a[2]})")
        elif kind == "sube":
            lines.append(f"{a[1]} <= {_format_expr(a[2])}")
        elif kind == "card1":
            lines.append(f"card {a[1]} = 1")
    return "\n".join(lines) + "\n"


def _parse_expr(text: str, declared: set[str]) -> Expr:
    t = parse_type(text.replace("'", ""))

    def conv(u: Type) -> Expr:
        if is_atom(u):
            return ("v", u.name) if u.name in declared else ("k", u.name)
        if isinstance(u, Arrow):
            args = []
            while isinstance(u, Arrow):
                args.append(conv(u.source))
                u = u.target
            return ("arr", tuple(args), conv(u))
        raise ValueError(f"bad expression {text!r}")

    return conv(t)


def parse_set_system(text: str) -> SetConstraintSystem:
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
            atoms.append(("card1", name.strip()))
            continue
        if line.startswith("{"):
            phi, _, x = line.partition("<=")
            atoms.append(("mem", parse_type(phi.strip().strip("{}")), x.strip()))
            continue
        if "=" in line and "<=" not in line:
            x, _, body = line.partition("=")
            x, body = x.strip(), body.strip()
            if body.startswith("{"):
                phis = tuple(
                    parse_type(p) for p in body.strip("{}").split(",") if p.strip()
                )
                atoms.append(("eqs", x, phis))
            elif body.startswith("src(") or body.startswith("tgt("):
                atoms.append((body[:3], x, body[4:-1].strip()))
            else:
                atoms.append(("union", x, tuple(y.strip() for y in body.split("|"))))
            continue
        x, _, body = line.partition("<=")
        x, body = x.strip(), body.strip()
        if body in declared:
            atoms.append(("sub", x, body))
        else:
            atoms.append(("sube", x, _parse_expr(body, declared)))
    return SetConstraintSystem(tuple(variables), tuple(atoms), tuple(omega_vars))
