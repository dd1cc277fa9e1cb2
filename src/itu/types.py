"""Intersection type ASTs: construction, parsing, printing, organization.

Types are hash-consed: the factory functions ``const``, ``var``, ``arrow``
and ``inter`` return interned immutable nodes, so structural equality of
canonical types is object identity.  ``inter`` is the canonicalizing
constructor: it flattens nested intersections, drops omega components,
deduplicates, and keeps components in a deterministic structural order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence


class Type:
    # Each constructor sets the slots that the node's children decide, once,
    # when the node is interned: an atom's _skey, _ground (no variable
    # occurs), _organized (organize returns the node unchanged), _sdepth
    # (the depth of a simple type, built from constants and arrows alone,
    # and 0 for any other type), and _collapsed, which holds the node itself
    # when omega_collapse returns it unchanged and None otherwise.  A None
    # is filled on first use.
    __slots__ = ("_skey", "_collapsed", "_organized", "_ground", "_sdepth")

    def __str__(self) -> str:
        return print_type(self)

    def __repr__(self) -> str:
        return f"<{print_type(self)}>"


class Const(Type):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._skey = (0, name)
        self._collapsed = self
        self._organized = self._ground = True
        self._sdepth = 1


class Var(Type):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._skey = (1, name)
        self._collapsed = self
        self._organized, self._ground = True, False
        self._sdepth = 0


class _Omega(Type):
    __slots__ = ()


class Arrow(Type):
    __slots__ = ("source", "target")

    def __init__(self, source: Type, target: Type):
        self.source = source
        self.target = target
        self._skey = None
        self._ground = source._ground and target._ground
        # omega_collapse maps an arrow with an omega target to omega, and
        # organize also distributes it over an intersection target
        kept = target._collapsed is target and not isinstance(target, _Omega)
        self._collapsed = self if kept and source._collapsed is source else None
        self._organized = target._organized and not isinstance(target, (_Omega, Inter))
        ds, dt = source._sdepth, target._sdepth
        self._sdepth = 1 + max(ds, dt) if ds and dt else 0


class Inter(Type):
    __slots__ = ("components",)

    def __init__(self, components: tuple[Type, ...]):
        self.components = components
        self._skey = None
        self._ground = all(c._ground for c in components)
        self._collapsed = self if all(c._collapsed is c for c in components) else None
        self._organized = all(c._organized for c in components)
        self._sdepth = 0


OMEGA = _Omega()
OMEGA._skey = (2,)
OMEGA._collapsed = OMEGA
OMEGA._organized = OMEGA._ground = True
OMEGA._sdepth = 0

_cache: dict[tuple, Type] = {}


def const(name: str) -> Const:
    key = ("C", name)
    t = _cache.get(key)
    if t is None:
        t = _cache[key] = Const(name)
    return t


def var(name: str) -> Var:
    key = ("V", name)
    t = _cache.get(key)
    if t is None:
        t = _cache[key] = Var(name)
    return t


def arrow(source: Type, target: Type) -> Arrow:
    key = ("A", source, target)
    t = _cache.get(key)
    if t is None:
        t = _cache[key] = Arrow(source, target)
    return t


def arrows(args, target: Type) -> Type:
    """Right-nested arrow chain args[0] -> ... -> args[-1] -> target."""
    t = target
    for a in reversed(args):
        t = arrow(a, t)
    return t


def skey(t: Type):
    """Structural sort key: a nested tuple, total order over all types.

    Keys are built bottom-up on an explicit stack, so the depth of t is not
    bounded by the Python stack."""
    k = t._skey
    if k is not None:
        return k
    stack = [t]
    while stack:
        u = stack[-1]
        if isinstance(u, Arrow):
            src, tgt = u.source._skey, u.target._skey
            if src is None or tgt is None:
                if src is None:
                    stack.append(u.source)
                if tgt is None:
                    stack.append(u.target)
                continue
            u._skey = (3, src, tgt)
        else:
            todo = [c for c in u.components if c._skey is None]
            if todo:
                stack.extend(todo)
                continue
            u._skey = (4,) + tuple(c._skey for c in u.components)
        stack.pop()
    return t._skey


def inter(parts) -> Type:
    """Canonical intersection: flatten, drop omega, dedup, sort.

    The empty intersection is OMEGA; a singleton is the component itself.
    """
    flat: list[Type] = []
    seen: set[int] = set()
    for p in parts:
        if p is OMEGA:
            continue
        sub = p.components if isinstance(p, Inter) else (p,)
        for c in sub:
            if id(c) not in seen:
                seen.add(id(c))
                flat.append(c)
    if not flat:
        return OMEGA
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=skey)
    key = ("I",) + tuple(flat)
    t = _cache.get(key)
    if t is None:
        t = _cache[key] = Inter(tuple(flat))
    return t


def components(t: Type) -> tuple[Type, ...]:
    """Top-level components; the empty tuple for omega."""
    if t is OMEGA:
        return ()
    if isinstance(t, Inter):
        return t.components
    return (t,)


def size(t: Type) -> int:
    """Number of nodes in the syntax tree, in one pass over the shared
    graph on an explicit stack."""
    sizes: dict[Type, int] = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if isinstance(u, (Arrow, Inter)):
            kids = (u.source, u.target) if isinstance(u, Arrow) else u.components
            todo = [c for c in kids if c not in sizes]
            if todo:
                stack += todo
                continue
            # an arrow node over two children; n components need n-1
            # binary intersection nodes
            sizes[u] = len(kids) - 1 + sum(sizes[c] for c in kids)
        else:
            sizes[u] = 1
        stack.pop()
    return sizes[t]


def is_atom(t: Type) -> bool:
    return isinstance(t, (Const, Var))


def _atom_names(t: Type, kind: type) -> set[str]:
    """Names of the atoms of class kind in t, one visit per shared node.
    The search for variables skips ground subterms."""
    out: set[str] = set()
    seen: set[Type] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen or (kind is Var and u._ground):
            continue
        seen.add(u)
        if isinstance(u, kind):
            out.add(u.name)
        elif isinstance(u, Arrow):
            stack += (u.source, u.target)
        elif isinstance(u, Inter):
            stack += u.components
    return out


def type_constants(t: Type) -> set[str]:
    return _atom_names(t, Const)


def type_vars(t: Type) -> set[str]:
    return _atom_names(t, Var)


# ---------------------------------------------------------------------------
# omega collapse and organization

def omega_collapse(t: Type) -> Type:
    """Replace every subterm equal to omega (the T^omega shapes) by omega."""
    c = t._collapsed
    if c is None:
        # t is an arrow or intersection that changes
        if isinstance(t, Arrow):
            tg = omega_collapse(t.target)
            c = OMEGA if tg is OMEGA else arrow(omega_collapse(t.source), tg)
        else:
            c = inter([omega_collapse(x) for x in t.components])
        t._collapsed = c
    return c


def is_omega_equal(t: Type) -> bool:
    """True iff t is semantically equal to omega (the T^omega grammar)."""
    return omega_collapse(t) is OMEGA


# organize's results for the nodes it rebuilds; an organized node is its
# own result and takes no entry
_organize_cache: dict[Type, Type] = {}


def organize(t: Type) -> Type:
    """Equivalent organized type: omega or an intersection of paths.

    Arrow targets are organized recursively and the arrow distributed over
    the resulting paths; arrow arguments are left untouched.
    """
    if t._organized:
        return t
    out = _organize_cache.get(t)
    if out is None:
        # t is an arrow or intersection that changes
        if isinstance(t, Arrow):
            tg = organize(t.target)
            if tg is OMEGA:
                out = OMEGA
            elif isinstance(tg, Inter):
                out = inter(arrow(t.source, p) for p in tg.components)
            else:
                out = arrow(t.source, tg)
        else:
            out = inter([organize(c) for c in t.components])
        _organize_cache[t] = out
    return out


def is_path(t: Type) -> bool:
    while isinstance(t, Arrow):
        t = t.target
    return is_atom(t)


def is_organized(t: Type) -> bool:
    """True iff t is omega or an intersection of paths, which are the
    types that organize returns unchanged."""
    return t._organized


@dataclass(frozen=True)
class Path:
    """A path tau_1 -> ... -> tau_k -> head seen as arguments plus head."""

    arguments: tuple[Type, ...]
    head: Type  # Const or Var


def path_split(t: Type) -> Path:
    """Decompose a path type; raises ValueError on non-paths."""
    args = []
    while isinstance(t, Arrow):
        args.append(t.source)
        t = t.target
    if not is_atom(t):
        raise ValueError(f"not a path: {t!r}")
    return Path(tuple(args), t)


# ---------------------------------------------------------------------------
# parsing

class TypeSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is an operator, an identifier, a shared name ``$k``, or (fourth
# group) a character that starts no token; whitespace only separates tokens
# and matches nothing.
_IDENT = r"[a-z_][a-z0-9_]*"
_TOKEN = re.compile(rf"(->|[(&)'])|({_IDENT})|(\$[0-9]+)|([^ \t\r\n])")


def is_identifier(name: str) -> bool:
    """True iff name is one identifier token, the form of every constant
    and variable name (``omega`` is reserved for both)."""
    return re.fullmatch(_IDENT, name) is not None


def _meet(parts: list[Type]) -> Type:
    return parts[0] if len(parts) == 1 else inter(parts)


def _close(sources: list[Type], parts: list[Type]) -> Type:
    """The group sources[0] -> ... -> sources[-1] -> (the meet of parts)."""
    t = _meet(parts)
    for s in reversed(sources):
        t = arrow(s, t)
    return t


def _syntax_error(text: str, k: int, message: str) -> TypeSyntaxError:
    """The error at token k.  A bad character anywhere in the text is
    reported first, as if every token were read before any is parsed."""
    ms = list(_TOKEN.finditer(text))
    for m in ms:
        if m.group(4):
            return TypeSyntaxError(f"unexpected character {m.group(4)!r}", m.start())
    return TypeSyntaxError(message, ms[k].start() if k < len(ms) else len(text))


def parse_type(text: str, defs: Mapping[str, Type] | None = None) -> Type:
    """Parse one type; ``&`` binds tighter than the right-associative ``->``.

    ``defs`` maps shared names (``$k``) to the types they stand for; a name
    may stand wherever an atom may.  Without ``defs`` no name is in scope.

    One loop over the tokens keeps the open parentheses on an explicit
    stack, so the nesting depth is not bounded by the Python stack.
    """
    tokens = _TOKEN.findall(text)
    stack: list[tuple[list[Type], list[Type]]] = []  # the enclosing groups
    sources: list[Type] = []  # arrow sources read so far in the open group
    parts: list[Type] = []  # the intersection being read after them
    want_atom = True
    quoted = False
    for k, (op, name, ref, _) in enumerate(tokens):
        if quoted:
            if not name:
                raise _syntax_error(text, k, f"expected 'ident', found {op or ref!r}")
            if name == "omega":
                raise _syntax_error(text, k, "'omega' is reserved and cannot name a variable")
            parts.append(var(name))
            quoted = want_atom = False
        elif want_atom:
            if name:
                parts.append(OMEGA if name == "omega" else const(name))
                want_atom = False
            elif op == "(":
                stack.append((sources, parts))
                sources, parts = [], []
            elif op == "'":
                quoted = True
            elif ref:
                if defs is None:
                    raise _syntax_error(text, k, f"shared name {ref!r} outside a substitution file")
                if ref not in defs:
                    raise _syntax_error(text, k, f"undefined name {ref!r}")
                parts.append(defs[ref])
                want_atom = False
            else:
                raise _syntax_error(text, k, f"unexpected token {op!r}")
        elif op == "&":
            want_atom = True
        elif op == "->":
            sources.append(_meet(parts))
            parts = []
            want_atom = True
        elif op == ")" and stack:
            t = _close(sources, parts)
            sources, parts = stack.pop()
            parts.append(t)
        elif stack:
            raise _syntax_error(text, k, f"expected ')', found {op or name or ref!r}")
        else:
            raise _syntax_error(text, k, f"trailing input {op or name or ref!r}")
    end = len(tokens)
    if quoted:
        raise _syntax_error(text, end, "expected 'ident', found ''")
    if want_atom:
        raise _syntax_error(text, end, "unexpected token ''")
    if stack:
        raise _syntax_error(text, end, "expected ')', found ''")
    return _close(sources, parts)


# ---------------------------------------------------------------------------
# printing

def print_type(t: Type) -> str:
    return _print_named(t, {})


def _print_named(t: Type, names: Mapping[Type, str]) -> str:
    """``print_type(t)``, except that an arrow or intersection with a name
    in ``names`` prints as the name.  Walks an explicit stack of nodes and
    text."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Const):
            out.append(u.name)
        elif u in names:
            out.append(names[u])
        elif isinstance(u, Arrow):
            stack += (u.target, " -> ")
            src = u.source
            if isinstance(src, (Arrow, Inter)) and src not in names:
                stack += (")", src, "(")
            else:
                stack.append(src)
        elif isinstance(u, Inter):
            # pushed last first, so the components pop in order
            for k, c in enumerate(reversed(u.components)):
                if k:
                    stack.append(" & ")
                stack += (")", c, "(") if isinstance(c, Arrow) and c not in names else (c,)
        elif isinstance(u, Var):
            out.append("'" + u.name)
        else:
            out.append("omega")
    return "".join(out)


def print_shared(roots: Sequence[Type]) -> tuple[list[str], list[str]]:
    """Print the graph of ``roots`` once per shared node.

    An arrow or intersection with two or more parents (a root counts as
    one) is named ``$k`` by a definition ``$k := type``.  Returns the
    definitions, children first, and the text of each root.  Every other
    node prints inline as ``print_type`` prints it, so ``parse_type`` with
    the definitions in scope reads each root back as the same node."""
    parents: dict[Type, int] = {}
    order: list[Type] = []  # arrows and intersections, children first
    for root in roots:
        stack = [(root, False)]
        while stack:
            u, done = stack.pop()
            if done:
                order.append(u)
                continue
            seen = u in parents
            parents[u] = parents.get(u, 0) + 1
            if seen:
                continue
            if isinstance(u, Arrow):
                stack += ((u, True), (u.target, False), (u.source, False))
            elif isinstance(u, Inter):
                stack.append((u, True))
                stack += ((c, False) for c in reversed(u.components))
    names: dict[Type, str] = {}
    defs: list[str] = []
    for u in order:
        if parents[u] > 1:
            text = _print_named(u, names)
            names[u] = f"${len(defs) + 1}"
            defs.append(f"{names[u]} := {text}")
    return defs, [_print_named(r, names) for r in roots]
