"""Rank-1 unification via set constraints with projections.

Pipeline: a set of subtyping constraints is transformed, through a
15-rule nondeterministic rewrite system, into systems of set constraints
over finite sets of simple types (no intersections, no omega, no
variables inside elements).  A bounded repair-based solver searches each
system once for finite-set assignments; assignments convert back to
substitutions whose images are intersections of simple types, and every
candidate is checked against the original constraints before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    const,
    inter,
    organize,
    path_split,
    print_type,
    type_vars,
)
from .subtyping import subtype
from .constraints import (
    Constraint,
    FreshVars,
    Substitution,
    _check_no_reserved,
    apply,
    leq,
    unif_to_sat,
    verify,
)

def deep_organize(t: Type) -> Type:
    """Organize at every arrow level, arguments included (stronger than the
    top-level organize), once per shared node."""
    done: dict[Type, Type] = {}

    def go(u: Type) -> Type:
        if u not in done:
            if isinstance(u, Arrow):
                done[u] = organize(arrow(go(u.source), go(u.target)))
            elif isinstance(u, Inter):
                done[u] = inter([go(c) for c in u.components])
            else:
                return u
        return done[u]

    return go(t)


# ---------------------------------------------------------------------------
# set constraint systems
#
# Each expression and atom kind states its set variables (vars), its text,
# and the simple types it seeds the solver's pool with (seeds).  An
# expression's match(phi) lists the memberships, as (element, variable)
# pairs, that put phi in its denotation, or is None if phi's shape cannot
# match.  An atom's repair(s) is None when it holds in the search state s,
# else (options, inventive): each option is a list of (variable, element)
# additions applied together, and no options means the state is dead.  A
# repair is inventive when it invents an arrow partner or draws from the
# pool: then its options need not cover every way to satisfy the atom,
# since the needed element may only exist after other repairs.


class _Part:
    """Expressions and atoms: by default one set variable, x, and no seeds."""

    def vars(self) -> tuple[str, ...]:
        return (self.x,)

    def seeds(self) -> tuple[Type, ...]:
        return ()


@dataclass(frozen=True)
class V(_Part):
    """A set variable."""

    name: str

    def vars(self) -> tuple[str, ...]:
        return (self.name,)

    def text(self) -> str:
        return self.name

    def match(self, phi: Type) -> list[tuple[Type, str]] | None:
        return [(phi, self.name)]


@dataclass(frozen=True)
class K(_Part):
    """A constant, denoting {k}."""

    name: str

    def vars(self) -> tuple[str, ...]:
        return ()

    def text(self) -> str:
        return self.name

    def seeds(self) -> tuple[Type, ...]:
        return (const(self.name),)

    def match(self, phi: Type) -> list[tuple[Type, str]] | None:
        return [] if phi is const(self.name) else None


@dataclass(frozen=True)
class Arr(_Part):
    """args -> target: the arrows whose successive sources lie in the
    denotations of args and whose final target lies in target's."""

    args: tuple[Expr, ...]
    target: Expr

    def vars(self) -> tuple[str, ...]:
        return tuple(v for e in (*self.args, self.target) for v in e.vars())

    def text(self) -> str:
        parts = [e.text() for e in (*self.args, self.target)]
        return " -> ".join(f"({p})" if " -> " in p else p for p in parts)

    def seeds(self) -> tuple[Type, ...]:
        return tuple(t for e in (*self.args, self.target) for t in e.seeds())

    def match(self, phi: Type) -> list[tuple[Type, str]] | None:
        need = []
        for e in self.args:
            if not isinstance(phi, Arrow):
                return None
            got = e.match(phi.source)
            if got is None:
                return None
            need += got
            phi = phi.target
        got = self.target.match(phi)
        return None if got is None else need + got


Expr = V | K | Arr


@dataclass(frozen=True)
class Eqs(_Part):
    """x = {phi1, ..., phik}.  It always holds in the search, which starts
    from the pinned set, never removes from it and adds nothing outside it."""

    x: str
    phis: tuple[Type, ...]

    def text(self) -> str:
        return f"{self.x} = {{{', '.join(print_type(phi) for phi in self.phis)}}}"

    def seeds(self) -> tuple[Type, ...]:
        return self.phis

    def repair(self, s: _Search):
        return None


@dataclass(frozen=True)
class Mem(_Part):
    """{phi} <= x"""

    phi: Type
    x: str

    def text(self) -> str:
        return f"{{{print_type(self.phi)}}} <= {self.x}"

    def seeds(self) -> tuple[Type, ...]:
        return (self.phi,)

    def repair(self, s: _Search):
        if self.phi in s.sets[self.x]:
            return None
        return [[(self.x, self.phi)]], False


@dataclass(frozen=True)
class Union(_Part):
    """x = y1 | ... | yk"""

    x: str
    ys: tuple[str, ...]

    def vars(self) -> tuple[str, ...]:
        return (self.x, *self.ys)

    def text(self) -> str:
        return f"{self.x} = {' | '.join(self.ys)}"

    def repair(self, s: _Search):
        joined = set().union(*(s.sets[y] for y in self.ys))
        under = joined - s.sets[self.x]
        if under:
            return [[(self.x, min(under, key=s.key))]], False
        over = s.sets[self.x] - joined
        if not over:
            return None
        phi = min(over, key=print_type)
        return [[(y, phi)] for y in self.ys], False


@dataclass(frozen=True)
class Proj(_Part):
    """x = src(y) or x = tgt(y), as op says: the sources (targets) of the
    arrows in y."""

    op: str
    x: str
    y: str

    def vars(self) -> tuple[str, ...]:
        return (self.x, self.y)

    def text(self) -> str:
        return f"{self.x} = {self.op}({self.y})"

    def repair(self, s: _Search):
        src = self.op == "src"
        proj = {e.source if src else e.target for e in s.sets[self.y] if isinstance(e, Arrow)}
        under = proj - s.sets[self.x]
        if under:
            return [[(self.x, min(under, key=s.key))]], False
        over = s.sets[self.x] - proj
        if not over:
            return None
        # invent an arrow in y: its other side comes from y's pinned other
        # projection if there is one, else from the pool
        phi = min(over, key=s.key)
        partners = s.pins.get(("tgt" if src else "src", self.y))
        if partners is None:
            partners = s.candidates()
        return [[(self.y, arrow(phi, p) if src else arrow(p, phi))] for p in partners], True


@dataclass(frozen=True)
class Sub(_Part):
    """x <= expr (x <= y when expr is a variable)"""

    x: str
    e: Expr

    def vars(self) -> tuple[str, ...]:
        return (self.x, *self.e.vars())

    def text(self) -> str:
        return f"{self.x} <= {self.e.text()}"

    def seeds(self) -> tuple[Type, ...]:
        return self.e.seeds()

    def repair(self, s: _Search):
        out = {}
        for phi in s.sets[self.x]:
            need = self.e.match(phi)
            if need is None or any(p not in s.sets[v] for p, v in need):
                out[phi] = need
        if not out:
            return None
        need = out[min(out, key=s.key)]
        if need is None:
            return [], False
        return [[(v, p) for p, v in need if p not in s.sets[v]]], False


@dataclass(frozen=True)
class Card1(_Part):
    """card x = 1"""

    x: str

    def text(self) -> str:
        return f"card {self.x} = 1"

    def repair(self, s: _Search):
        n = len(s.sets[self.x])
        if n == 1:
            return None
        if n > 1:
            return [], False  # additions cannot shrink a set
        return [[(self.x, phi)] for phi in s.candidates()], True


Atom = Eqs | Mem | Union | Proj | Sub | Card1


@dataclass(frozen=True)
class SetConstraintSystem:
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]
    omega_vars: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the transformation


def _head_of(t: Type) -> Type:
    while isinstance(t, Arrow):
        t = t.target
    return t


# a branch that fires more rules than this raises
_MAX_STEPS = 100_000


def rank1_transform(cs: Sequence[Constraint]) -> Iterator[SetConstraintSystem]:
    """Stream every set-constraint system reachable from cs.

    Nondeterminism: the initial choice of variables replaced by omega
    (smallest sets first), the component choice when the target head is a
    constant, and the subset choice when it is a variable.  Branches that
    hit an abortive rule are dropped.  An input variable may not use the
    prefix of the fresh names the rules draw.
    """
    cs = unif_to_sat(tuple(cs))
    for c in cs:
        _check_no_reserved(c.lhs)
        _check_no_reserved(c.rhs)
    names = sorted(set().union(*[type_vars(c.lhs) | type_vars(c.rhs) for c in cs], set()))
    for k in range(len(names) + 1):
        for v_set in combinations(names, k):
            omega_sub = Substitution({x: OMEGA for x in v_set})
            start = [
                leq(deep_organize(apply(omega_sub, c.lhs)), deep_organize(apply(omega_sub, c.rhs)))
                for c in cs
            ]
            keep = [x for x in names if x not in v_set]
            yield from _run_rules(start, keep, v_set)


_NO_RULE = 16


def _run_rules(
    constraints: list[Constraint], declared: list[str], omega_vars: tuple[str, ...]
) -> Iterator[SetConstraintSystem]:
    """Depth-first over the branches.  No rule reads any constraint but the
    one it fires on, so the firing order only decides how soon a dead
    branch is dropped.  Each step fires the newest constraint of the first
    nonempty pending list: the deterministic rules, then rule 8's component
    choice, then rule 9's subset choice, which has the most outcomes.  A
    pending list is None or a cell (rule, constraint, rest), so sibling
    branches share their common cells; the emitted atoms are a chain of
    (atoms, earlier) cells.  A stack entry is one rule outcome (replacement
    constraints, emitted atoms) with the lists it extends and the branch's
    step count; it is classified only when popped."""
    gen = FreshVars()
    stack = [((constraints, ()), None, None, None, None, 0)]
    while stack:
        (new, new_atoms), det, comps, subsets, atoms, steps = stack.pop()
        if steps > _MAX_STEPS:
            raise RuntimeError("rank1_transform exceeded its step limit")
        for c in new:
            rule = _classify(c.lhs, c.rhs)
            if rule == 8:
                comps = (rule, c, comps)
            elif rule == 9:
                subsets = (rule, c, subsets)
            else:
                det = (rule, c, det)
        atoms = (new_atoms, atoms)
        if det is not None:
            rule, c, det = det
        elif comps is not None:
            rule, c, comps = comps
        elif subsets is not None:
            rule, c, subsets = subsets
        else:
            groups = []
            while atoms is not None:
                group, atoms = atoms
                groups.append(group)
            flat = tuple(a for group in reversed(groups) for a in group)
            decl = dict.fromkeys([*declared, *(v for a in flat for v in a.vars())])
            yield SetConstraintSystem(tuple(decl), flat, omega_vars)
            continue
        if rule == _NO_RULE:
            raise RuntimeError(f"no rule applies to {c}")
        # reversed, so the outcomes pop in the rule's order
        pending = (det, comps, subsets, atoms, steps + 1)
        stack += [(o, *pending) for o in reversed(_try_rule(rule, c, gen))]


def _classify(s: Type, t: Type) -> int:
    """The number of the lowest rule that applies to s <= t, or _NO_RULE.
    These are the only statements of the rules' applicability conditions."""
    if subtype(s, t):
        return 1
    if isinstance(t, Var) and s._sdepth:
        return 2
    if isinstance(s, Var) and t._sdepth:
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
    (replacement constraints, emitted atoms); an abortive rule has none."""
    s, t = c.lhs, c.rhs
    if rule == 1:
        return [((), ())]
    if rule == 2:
        return [((), (Eqs(t.name, (s,)),))]
    if rule == 3:
        return [((), (Mem(t, s.name),))]
    if rule == 4:
        return [((), (Sub(t.name, V(s.name)),))]
    if rule in (5, 7):
        # rule 5: rule 1 already removed the case t in T-omega
        return []
    if rule == 6:
        return [(tuple(leq(s, p) for p in t.components), ())]
    if rule == 8:
        return [((leq(p, t),), ()) for p in s.components]
    if rule == 9:
        path = path_split(t)
        outcomes = []
        for k in range(len(s.components), 0, -1):  # largest subsets first
            for chosen in combinations(s.components, k):
                fresh = [gen.next() for _ in chosen]
                new = tuple(leq(p, arrows(path.arguments, a)) for p, a in zip(chosen, fresh))
                outcomes.append((new, (Union(path.head.name, tuple(a.name for a in fresh)),)))
        return outcomes
    if rule == 10:
        return [((leq(t.source, s.source), leq(s.target, t.target)), ())]
    if rule == 11:
        b, g, d = gen.next(), gen.next(), gen.next()
        new = (leq(t.source, b), leq(g, t.target))
        atoms = (
            Sub(d.name, V(s.name)),
            Proj("src", b.name, d.name),
            Proj("tgt", g.name, d.name),
        )
        return [(new, atoms)]
    if rule == 12:
        b, g = gen.next(), gen.next()
        atoms = (Sub(t.name, Arr((V(g.name),), V(b.name))),)
        return [((leq(s.target, b),), atoms)]
    if rule == 13:
        return [(tuple(leq(arrow(p, s.target), t) for p in s.source.components), ())]
    # rules 14 and 15: the source is a path with a constant (variable) head
    path = path_split(s.source)
    head = path.head
    bs = [gen.next() for _ in path.arguments]
    g = gen.next()
    new = tuple(leq(a, b) for a, b in zip(path.arguments, bs)) + (leq(s.target, g),)
    inner = K(head.name) if rule == 14 else V(head.name)
    if bs:
        inner = Arr(tuple(V(b.name) for b in bs), inner)
    atoms = (Sub(t.name, Arr((inner,), V(g.name))),)
    if rule == 15:
        atoms += (Card1(head.name),)
    return [(new, atoms)]


# ---------------------------------------------------------------------------
# the finite-set solver


class SearchLimit(Exception):
    """The repair search hit its node cap before finishing."""


class _Search:
    """The repair search over one system: the current sets, the sets its
    Eqs atoms pin, its card-1 variables, the pinned projection partners and
    the candidate pool."""

    def __init__(
        self,
        scs: SetConstraintSystem,
        budget: tuple[int, int],
        max_nodes: int | None,
        frozen: dict[str, frozenset[Type]],
    ):
        self.atoms = scs.atoms
        self.max_card, self.max_depth = budget
        self.max_nodes = max_nodes
        self.frozen = frozen
        self.sets: dict[str, set[Type]] = {v: set(frozen.get(v, ())) for v in scs.variables}
        self.card1 = {a.x for a in scs.atoms if isinstance(a, Card1)}
        # when src(y) (resp. tgt(y)) is pinned, any arrow invented for y
        # takes its source (target) from that pinned set
        self.pins = {
            (a.op, a.y): frozen[a.x]
            for a in scs.atoms
            if isinstance(a, Proj) and a.x in frozen
        }
        self._keys: dict[Type, tuple] = {}
        # the pool starts as every subterm of every simple type the system
        # mentions and absorbs every element ever added to a set, so it is
        # the full candidate universe; _sorted is it small-first, or None
        self.pool: set[Type] = set()
        self._sorted: list[Type] | None = None
        for a in scs.atoms:
            for t in a.seeds():
                self.pool_add(t)
        if not self.pool:
            self.pool.add(const("a"))
        self.seen: set[frozenset] = set()
        self.nodes = 0

    def key(self, t: Type) -> tuple:
        k = self._keys.get(t)
        if k is None:
            k = self._keys[t] = (t._sdepth, print_type(t))
        return k

    def pool_add(self, t: Type) -> None:
        if t in self.pool:
            return
        self.pool.add(t)
        self._sorted = None
        if isinstance(t, Arrow):
            self.pool_add(t.source)
            self.pool_add(t.target)

    def candidates(self) -> list[Type]:
        if self._sorted is None:
            self._sorted = sorted(self.pool, key=self.key)
        return self._sorted

    def ok_add(self, v: str, phi: Type) -> bool:
        if phi._sdepth > self.max_depth:
            return False
        if v in self.frozen and phi not in self.frozen[v]:
            return False
        got = self.sets[v]
        if phi in got:
            return True
        return len(got) < self.max_card and not (v in self.card1 and got)

    def violation(self) -> list[list[tuple[str, Type]]] | None:
        """None if every atom holds, else the repair options to branch over,
        each kept only if ok_add allows all its additions.

        Fail-first over the exhaustive repairs (their options cover every
        way the atom can ever be satisfied, so a forced single option acts
        as propagation and no option kills the state); the options of
        inventive repairs from all violated atoms are pooled and tried only
        when nothing exhaustive is left."""
        best = None
        inventive: list[list[list[tuple[str, Type]]]] = []
        for a in self.atoms:
            got = a.repair(self)
            if got is None:
                continue
            opts, inv = got
            opts = [adds for adds in opts if all(self.ok_add(v, p) for v, p in adds)]
            if inv:
                inventive.append(opts)
            elif len(opts) <= 1:
                return opts
            elif best is None or len(opts) < len(best):
                best = opts
        if best is not None or not inventive:
            return best  # None here: no atom is violated
        return min((opts for opts in inventive if opts), key=len, default=[])

    def solutions(self) -> Iterator[dict[str, frozenset[Type]]]:
        """Depth-first over the states the repairs reach.  A stack entry is
        an open state's untried repair options (None before its visit) and
        the additions that made it, which are undone when it is left."""
        stack: list[list] = [[None, []]]
        while stack:
            frame = stack[-1]
            if frame[0] is None:
                frame[0] = iter(())
                state = frozenset((v, p) for v, got in self.sets.items() for p in got)
                if state not in self.seen:
                    self.seen.add(state)
                    self.nodes += 1
                    if self.max_nodes is not None and self.nodes > self.max_nodes:
                        raise SearchLimit
                    options = self.violation()
                    if options is None:
                        yield {v: frozenset(got) for v, got in self.sets.items()}
                    else:
                        frame[0] = iter(options)
            adds = next(frame[0], None)
            if adds is None:
                stack.pop()
                for v, p in frame[1]:
                    self.sets[v].discard(p)
                continue
            made = [(v, p) for v, p in adds if p not in self.sets[v]]
            for v, p in made:
                self.sets[v].add(p)
                self.pool_add(p)
            if made:
                stack.append([None, made])


def iter_set_solutions(
    scs: SetConstraintSystem,
    budget: tuple[int, int] = (3, 6),
    max_nodes: int | None = None,
) -> Iterator[dict[str, frozenset[Type]]]:
    """Enumerate satisfying finite-set assignments within the budget
    (max cardinality per variable, max simple-type depth per element).

    Repair search: start from the pinned sets, find the first violated
    atom, apply every bounded repair, go on from each.  All additions are
    monotone, so the search terminates; states reached by several repair
    orders are explored once.  With max_nodes set, raises SearchLimit if
    the cap is hit before the search space is exhausted.
    """
    frozen: dict[str, frozenset[Type]] = {}
    for a in scs.atoms:
        if isinstance(a, Eqs):
            pinned = frozenset(a.phis)
            if frozen.setdefault(a.x, pinned) != pinned:
                return
    yield from _Search(scs, budget, max_nodes, frozen).solutions()


# each branch's search stops after this many nodes; solve_rank1 gives up
# after this many candidate substitutions fail verification
_NODE_CAP = 2_000
_MAX_CANDIDATES = 10_000


def solve_rank1(
    cs: Sequence[Constraint],
    budget: tuple[int, int] = (3, 6),
) -> Substitution | None:
    """Compose the transformation and the finite-set solver.  The branches
    are pulled one at a time, so an early solution leaves the rest of the
    transform undone, and each is searched once; a search cut by the node
    cap moves on to the next branch.  Every candidate substitution is
    re-verified against cs before being returned, so the result is sound
    regardless of budget effects."""
    cs = tuple(cs)
    original_vars = set().union(*(type_vars(c.lhs) | type_vars(c.rhs) for c in cs))
    tried = 0
    for scs in rank1_transform(cs):
        try:
            for assignment in iter_set_solutions(scs, budget, max_nodes=_NODE_CAP):
                # a set becomes its intersection, the empty one omega; the
                # fresh variables are dropped
                sub = Substitution({
                    x: OMEGA if x in scs.omega_vars else inter(assignment.get(x, ()))
                    for x in original_vars
                })
                if verify(sub, cs):
                    return sub
                tried += 1
                if tried >= _MAX_CANDIDATES:
                    return None
        except SearchLimit:
            continue
    return None


# ---------------------------------------------------------------------------
# text serialization (debugging and golden tests)


def format_set_system(scs: SetConstraintSystem) -> str:
    lines = [f"vars: {' '.join(scs.variables)}"]
    if scs.omega_vars:
        lines.append(f"omega: {' '.join(scs.omega_vars)}")
    lines += [a.text() for a in scs.atoms]
    return "\n".join(lines) + "\n"
