"""The subtype decider and the derived equality / join operations.

The decider follows the quadratic scheme: collapse omega-equal subterms,
keep intersections flat and omega-free, then recurse on components.  The
arrow case collects each distinct candidate target once, by identity, and
never re-canonicalizes the recursive arguments.
"""

from __future__ import annotations

from .types import (
    OMEGA,
    Arrow,
    Const,
    Inter,
    Type,
    Var,
    arrow,
    components,
    inter,
    omega_collapse,
)

_memo: dict[tuple[Type, Type], bool] = {}


def subtype(s: Type, t: Type) -> bool:
    """Decide s <= t in BCD subtyping with constants."""
    key = (s, t)
    got = _memo.get(key)
    if got is None:
        cs = omega_collapse(s)
        ct = omega_collapse(t)
        got = _memo[key] = _sub(list(components(cs)), ct)
    return got


def _sub(comps: list[Type], t: Type) -> bool:
    # comps: flat list of collapsed, non-omega, non-intersection types.
    # t: collapsed canonical type.
    if t is OMEGA:
        return True
    if isinstance(t, Inter):
        # identity shortcut: interning makes "component occurs literally"
        # an id lookup, which is the common case for huge intersections
        ids = set(map(id, comps))
        return all(id(c) in ids or _sub(comps, c) for c in t.components)
    if isinstance(t, (Const, Var)):
        return any(c is t for c in comps)
    # t is an arrow with a non-omega-equal target
    if any(c is t for c in comps):
        return True
    src = list(components(t.source))
    targets: list[Type] = []
    for c in comps:
        if isinstance(c, Arrow) and _sub(src, c.source):
            targets.extend(components(c.target))
    if not targets:
        return False
    if len(targets) > 1:
        # interned nodes hash by identity, so a target shared by several
        # arrows is decided once; a lone target, as on a chain, skips the
        # dict, which would add collector work at every level
        targets = list(dict.fromkeys(targets))
    return _sub(targets, t.target)


def type_equal(s: Type, t: Type) -> bool:
    """Semantic equality: mutual subtyping."""
    return subtype(s, t) and subtype(t, s)


class JoinError(ValueError):
    pass


def join_arrows(s: Type, t: Type) -> Type:
    """Least upper bound of two arrows with equal targets.

    (sigma -> tau) v (sigma' -> tau) = (sigma & sigma') -> tau.  Partial:
    rejects non-arrows and arrows whose targets are not semantically equal.
    """
    if not isinstance(s, Arrow) or not isinstance(t, Arrow):
        raise JoinError("join_arrows requires two arrow types")
    if not type_equal(s.target, t.target):
        raise JoinError("join_arrows requires semantically equal targets")
    return arrow(inter([s.source, t.source]), s.target)
