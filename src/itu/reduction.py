"""Tiling games to constraint satisfiability, and back.

Three pieces: the constraint system builders (the plain system over
omega and the omega-free variant with chain variables), the compiler
turning a winning strategy tree into a satisfying substitution, and the
extractor that replays a satisfying substitution as a winning play.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .types import (
    Const,
    OMEGA,
    Type,
    arrow,
    arrows,
    components,
    const,
    inter,
    is_identifier,
    organize,
    path_split,
    var,
)
from .subtyping import subtype
from .constraints import Constraint, ConstraintSet, Substitution, apply, eq, leq
from .tiling import (
    FINISHED,
    H_VIOLATION,
    LATE_MOVE,
    StrategyTree,
    TilingSystem,
    V_VIOLATION,
    validate_strategy,
)

DEFAULT_BULLET_NAME = "mark"

# compiled substitutions grow as |D|^(depth+n); refuse beyond this without
# an explicit override
MAX_DEPTH_PLUS_N = 14
MAX_TILES = 3

ALPHA = "alpha"


def beta_name(d: str) -> str:
    return f"beta_{d}"


def gamma_name(d: str, i: int) -> str:
    return f"gamma_{d}_{i}"


def _marker(t: TilingSystem, bullet: Const | None) -> Const:
    """The marker constant (``mark`` by default), checked against the tiles."""
    bullet = bullet or const(DEFAULT_BULLET_NAME)
    for d in t.tiles:
        if not is_identifier(d) or d == "omega":
            raise ValueError(f"tile {d!r} is not usable as a type constant")
        if d == bullet.name:
            raise ValueError(f"tile {d!r} collides with the marker constant")
    return bullet


def word_type(word: Sequence[str], bullet: Type) -> Type:
    """[w]: the word read as a type, last tile outermost, marker innermost."""
    return arrows([const(d) for d in reversed(word)], bullet)


def _ct_parts(
    t: TilingSystem, bullet: Const, wild: list[Type], v_runs: dict[str, Type]
) -> dict[str, Type]:
    """The parts CT and CT' share.  They differ only in how they write "any
    tile here": ``wild`` lists the types that read one arbitrary tile, and
    ``v_runs[d]`` reads n-1 arbitrary tiles, then d, then alpha."""
    alpha = var(ALPHA)
    tiles = t.tiles
    tower = word_type(t.top, alpha)
    return {
        "sigma_b": word_type(t.bottom, bullet),
        "sigma_t": inter([tower] + [arrow(w, tower) for w in wild]),
        "sigma_bot_h": inter(
            arrows([const(d2), const(d)], alpha)
            for d in tiles
            for d2 in tiles
            if (d, d2) not in t.h
        ),
        "sigma_bot_v": inter(
            arrow(const(d2), v_runs[d])
            for d in tiles
            for d2 in tiles
            if (d, d2) not in t.v
        ),
        "respects_h": inter(arrows([const(d), const(d2)], alpha) for d2, d in t.h),
        "respects_v": inter(arrow(const(d), v_runs[d2]) for d2, d in t.v),
    }


def _omega_parts(t: TilingSystem, bullet: Const) -> dict[str, Type]:
    """CT's parts: omega reads any tile."""
    runs = {d: arrows([OMEGA] * (t.n - 1) + [const(d)], var(ALPHA)) for d in t.tiles}
    return _ct_parts(t, bullet, [OMEGA], runs)


def _game_moves(t: TilingSystem, parts: dict[str, Type]) -> Constraint:
    # (i): every position Constructor may face (rhs) admits an answer (lhs)
    lhs = inter(
        [parts["sigma_bot_h"], parts["sigma_bot_v"], parts["sigma_t"]]
        + [var(beta_name(d)) for d in t.tiles]
    )
    rhs = inter(
        [parts["sigma_b"]]
        + [
            arrows([const(d2), const(d)], var(beta_name(d)))
            for d2 in t.tiles
            for d in t.tiles
        ]
    )
    return leq(lhs, rhs)


def _constraints(t: TilingSystem, parts: dict[str, Type]) -> list[Constraint]:
    respects_rhs = inter(arrow(const(d), var(beta_name(d))) for d in t.tiles)
    return [
        _game_moves(t, parts),
        leq(parts["respects_h"], respects_rhs),
        leq(parts["respects_v"], respects_rhs),
    ]


def build_CT(t: TilingSystem, bullet: Const | None = None) -> ConstraintSet:
    """The three-constraint system over D + marker; satisfiable iff
    Constructor wins the spiral game."""
    return tuple(_constraints(t, _omega_parts(t, _marker(t, bullet))))


def build_CT_prime(t: TilingSystem, bullet: Const | None = None) -> ConstraintSet:
    """The omega-free variant: one arrow per tile reads any tile, and the
    chain variable gamma_d_i reads i-1 arbitrary tiles, then d, then alpha."""
    tiles = [const(e) for e in t.tiles]
    runs = {d: var(gamma_name(d, t.n)) for d in t.tiles}
    out = _constraints(t, _ct_parts(t, _marker(t, bullet), tiles, runs))
    for d in t.tiles:
        out.append(eq(var(gamma_name(d, 1)), arrow(const(d), var(ALPHA))))
        for i in range(2, t.n + 1):
            chain = inter(arrow(e, var(gamma_name(d, i - 1))) for e in tiles)
            out.append(eq(var(gamma_name(d, i)), chain))
    return tuple(out)


def compile_strategy(
    t: TilingSystem,
    f: StrategyTree,
    bullet: Const | None = None,
    override: bool = False,
) -> Substitution:
    """Winning strategy tree -> substitution satisfying the constraint
    system: alpha collects all move words up to depth(f)+n, beta_d the
    positions at which the strategy places d.
    """
    bullet = _marker(t, bullet)
    if not validate_strategy(t, f):
        raise ValueError("invalid strategy tree")
    k = f.depth() + t.n
    if not override and (k > MAX_DEPTH_PLUS_N or len(t.tiles) > MAX_TILES):
        raise ValueError(
            f"compiled substitution would have {len(t.tiles)}^{k} scale; "
            "pass override=True to proceed"
        )
    # every word up to length k, built in inter's component order: the
    # marker and the tiles are constants, whose keys sort by name and before
    # every arrow's, so the marker comes first and the words d -> w follow
    # by tile name, then by w in the same order one length down
    words: list[Type] = [bullet]
    for _ in range(k):
        words = [bullet] + [arrow(const(d), w) for d in sorted(t.tiles) for w in words]
    mapping: dict[str, Type] = {ALPHA: inter(words)}
    placed: dict[str, list[Type]] = {d: [] for d in t.tiles}
    for s, label in f.nodes.items():
        if len(s) % 2 == 0 and label in t.tiles:
            placed[label].append(word_type(t.bottom + s, bullet))
    for d in t.tiles:
        mapping[beta_name(d)] = inter(placed[d])
    return Substitution(mapping)


def extend_ct_prime(t: TilingSystem, s: Substitution) -> Substitution:
    """Add the chain-variable values forced by their defining equations, so
    the substitution can be verified against the omega-free system."""
    mapping = dict(s.mapping)
    s_alpha = s.get(ALPHA)
    for d in t.tiles:
        g = arrow(const(d), s_alpha)
        mapping[gamma_name(d, 1)] = g
        for i in range(2, t.n + 1):
            g = inter(arrow(const(e), g) for e in t.tiles)
            mapping[gamma_name(d, i)] = g
    return Substitution(mapping)


class ExtractionError(RuntimeError):
    """The play extractor found no applicable case; the substitution cannot
    actually satisfy the constraint system."""


@dataclass(frozen=True)
class PlayOutcome:
    claim: str  # one of the claim tags of the tiling module
    sequence: tuple[str, ...]  # full tile sequence including the bottom row
    moves: tuple[str, ...]  # tiles appended during the play


SpoilerOracle = Callable[[tuple[str, ...]], str]


def extract_play(
    t: TilingSystem,
    s: Substitution,
    spoiler: SpoilerOracle,
    bullet: Const | None = None,
) -> PlayOutcome:
    """Play Constructor per the satisfying substitution: at each turn test
    the H-violation, V-violation, finished and move cases in that order
    against the current position, consulting the Spoiler oracle between
    moves.  Guaranteed to terminate within the longest path on the right
    of the game-moves constraint."""
    bullet = _marker(t, bullet)
    # only alpha and the betas occur in CT; CT' chain variables are left out
    used = [ALPHA] + [beta_name(d) for d in t.tiles]
    s = Substitution({k: organize(s.mapping[k]) for k in used if k in s.mapping})
    parts = _omega_parts(t, bullet)
    bot_h = apply(s, parts["sigma_bot_h"])
    bot_v = apply(s, parts["sigma_bot_v"])
    fin = apply(s, parts["sigma_t"])
    betas = {d: s.get(beta_name(d)) for d in t.tiles}

    tau = organize(apply(s, _game_moves(t, parts).rhs))
    bound = 0
    for p in components(tau):
        bound = max(bound, len(path_split(p).arguments))

    word = t.bottom
    moves: list[str] = []
    while len(word) <= bound + 2:
        cur = word_type(word, bullet)
        if subtype(bot_h, cur):
            return PlayOutcome(H_VIOLATION, word, tuple(moves))
        if subtype(bot_v, cur):
            return PlayOutcome(V_VIOLATION, word, tuple(moves))
        if subtype(fin, cur):
            claim = FINISHED if word[-t.n:] == t.top else LATE_MOVE
            return PlayOutcome(claim, word, tuple(moves))
        for d in t.tiles:
            if subtype(betas[d], cur):
                word = word + (d,)
                moves.append(d)
                d2 = spoiler(word)
                if d2 not in t.tiles:
                    raise ValueError(f"spoiler oracle returned unknown tile {d2!r}")
                word = word + (d2,)
                moves.append(d2)
                break
        else:
            raise ExtractionError(
                f"no extraction case applies at position {''.join(word)!r}"
            )
    raise ExtractionError("play exceeded the termination bound")
