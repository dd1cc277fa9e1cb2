"""Tiling systems, corridor/spiral validation, the corridor-to-spiral
reduction, and a winning-strategy solver for two-player spiral games.

The solver works on windows of the last n+1 tiles: win claims and move
legality only ever inspect that much context, so optimal values can be
computed exactly by value iteration over the finite window graph.  The
returned strategy is a finite labeled tree: Constructor nodes at even
depth carry either the single chosen move or a claim tag, Spoiler nodes
branch over every tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

INFINITY = float("inf")

# claim tags, in the order Constructor's claim is chosen (the strategy
# trees depend on it)
FINISHED = "finished"
LATE_MOVE = "late-move"
H_VIOLATION = "h-violation"
V_VIOLATION = "v-violation"
CLAIMS = (FINISHED, LATE_MOVE, V_VIOLATION, H_VIOLATION)

SPOILER = "spoiler"


@dataclass(frozen=True)
class TilingSystem:
    tiles: tuple[str, ...]
    h: frozenset[tuple[str, str]]
    v: frozenset[tuple[str, str]]
    bottom: tuple[str, ...]
    top: tuple[str, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(self.bottom) != self.n or len(self.top) != self.n:
            raise ValueError("bottom and top must have length n")
        tileset = set(self.tiles)
        refs = set(self.bottom) | set(self.top)
        for a, b in self.h | self.v:
            refs |= {a, b}
        if not refs <= tileset:
            raise ValueError(f"unknown tiles referenced: {sorted(refs - tileset)}")

    def h_consistent(self, seq: Sequence[str]) -> bool:
        return all((seq[i], seq[i + 1]) in self.h for i in range(len(seq) - 1))


def make_system(tiles, h, v, bottom, top, n) -> TilingSystem:
    return TilingSystem(
        tuple(sorted(tiles)),
        frozenset(tuple(p) for p in h),
        frozenset(tuple(p) for p in v),
        tuple(bottom),
        tuple(top),
        n,
    )


def parse_tiling(text: str) -> TilingSystem:
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: values' in {raw!r}")
        key, body = line.split(":", 1)
        key = key.strip()
        words = body.split()
        if key in ("h", "v"):
            if len(words) != 2:
                raise ValueError(f"line {lineno}: {key}-pair needs exactly two tiles")
            fields.setdefault(key, []).append(tuple(words))
        elif key in ("tiles", "bottom", "top", "n"):
            fields[key] = words
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    for req in ("tiles", "bottom", "top", "n"):
        if req not in fields:
            raise ValueError(f"missing '{req}:' line")
    if not fields["n"]:
        raise ValueError("'n:' line has no value")
    if len(fields["n"]) > 1:
        raise ValueError(f"'n:' line has more than one value: {' '.join(fields['n'])}")
    return make_system(
        fields["tiles"],
        fields.get("h", []),
        fields.get("v", []),
        fields["bottom"],
        fields["top"],
        int(fields["n"][0]),
    )


def format_tiling(t: TilingSystem) -> str:
    lines = [f"tiles: {' '.join(t.tiles)}"]
    lines += [f"h: {a} {b}" for a, b in sorted(t.h)]
    lines += [f"v: {a} {b}" for a, b in sorted(t.v)]
    lines.append(f"bottom: {' '.join(t.bottom)}")
    lines.append(f"top: {' '.join(t.top)}")
    lines.append(f"n: {t.n}")
    return "\n".join(lines) + "\n"


def validate_corridor(t: TilingSystem, grid: Sequence[Sequence[str]]) -> bool:
    """Correct corridor tiling: bottom/top rows, H within rows, V between."""
    if not grid:
        return False
    if any(len(row) != t.n for row in grid):
        raise ValueError("grid rows must have width n")
    if tuple(grid[0]) != t.bottom or tuple(grid[-1]) != t.top:
        return False
    for row in grid:
        if not t.h_consistent(row):
            return False
    for i in range(len(grid) - 1):
        for j in range(t.n):
            if (grid[i][j], grid[i + 1][j]) not in t.v:
                return False
    return True


def validate_spiral(t: TilingSystem, seq: Sequence[str]) -> bool:
    """Correct spiral tiling: prefix/suffix, consecutive H, distance-n V."""
    seq = tuple(seq)
    m = len(seq)
    if m < t.n:
        return False
    if seq[: t.n] != t.bottom or seq[m - t.n:] != t.top:
        return False
    if not t.h_consistent(seq):
        return False
    return all((seq[i], seq[i + t.n]) in t.v for i in range(m - t.n))


def corridor_to_spiral(t: TilingSystem, pad: str = "#") -> TilingSystem:
    """Pad each row with two marker tiles: corridor winner == spiral winner."""
    if pad in t.tiles:
        raise ValueError(f"padding tile {pad!r} already used")
    tiles = t.tiles + (pad,)
    h = set(t.h)
    for d in tiles:
        h.add((d, pad))
        h.add((pad, d))
    v = set(t.v) | {(pad, pad)}
    return make_system(
        tiles, h, v, t.bottom + (pad, pad), t.top + (pad, pad), t.n + 2
    )


# ---------------------------------------------------------------------------
# the spiral game


def _claim_holds(t: TilingSystem, window: tuple[str, ...], claim: str) -> bool:
    """Whether ``claim`` is justified at Constructor's turn.

    ``window`` holds the last min(len, n+1) tiles; past the opening
    position the final tile is Spoiler's last move.
    """
    n = t.n
    if claim == FINISHED:
        return window[-n:] == t.top
    if claim == LATE_MOVE:
        return len(window) == n + 1 and window[:-1] == t.top
    if claim == H_VIOLATION:
        return len(window) >= 2 and (window[-2], window[-1]) not in t.h
    if claim == V_VIOLATION:
        return len(window) == n + 1 and (window[0], window[-1]) not in t.v
    return False


def _claim(t: TilingSystem, window: tuple[str, ...]) -> str | None:
    """First claim Constructor can justify, in priority order, or None."""
    return next((c for c in CLAIMS if _claim_holds(t, window, c)), None)


def _legal_moves(t: TilingSystem, window: tuple[str, ...]) -> list[str]:
    return [
        d
        for d in t.tiles
        if (window[-1], d) in t.h and (window[-t.n], d) in t.v
    ]


def _push(t: TilingSystem, window: tuple[str, ...], tile: str) -> tuple[str, ...]:
    return (window + (tile,))[-(t.n + 1):]


def _move_cost(t: TilingSystem, values, window: tuple[str, ...], d: str) -> float:
    """Tiles Constructor needs to win by playing d: 1 if the move completes
    the top row, else 2 + the value after Spoiler's worst reply."""
    after = _push(t, window, d)
    if after[-t.n:] == t.top:
        return 1.0
    return 2.0 + max(values[_push(t, after, d2)] for d2 in t.tiles)


def game_values(t: TilingSystem) -> dict[tuple[str, ...], float]:
    """Minimal number of appended tiles Constructor needs to force a win,
    per reachable Constructor-turn window; INFINITY where he cannot.

    A win is a valid claim (costing no tile) or the completion of the
    spiral directly after Constructor's own move.
    """
    if not t.h_consistent(t.bottom):
        # the bottom row itself violates H: no correct spiral can exist and
        # no claim about a Spoiler move applies, so Constructor cannot win
        return {t.bottom: INFINITY}
    root = t.bottom
    reachable = {root}
    frontier = [root]
    while frontier:
        w = frontier.pop()
        for d in _legal_moves(t, w):
            for d2 in t.tiles:
                nxt = _push(t, _push(t, w, d), d2)
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
    values = {w: 0.0 if _claim(t, w) else INFINITY for w in reachable}
    open_windows = [w for w in reachable if values[w] is INFINITY]
    changed = True
    while changed:
        changed = False
        for w in open_windows:
            best = min(
                (_move_cost(t, values, w, d) for d in _legal_moves(t, w)),
                default=INFINITY,
            )
            if best < values[w]:
                values[w] = best
                changed = True
    return values


@dataclass(frozen=True)
class StrategyTree:
    """Constructor's winning strategy as a finite prefix-closed tree.

    ``nodes`` maps each move sequence (the appended tiles) to its label:
    the chosen tile or a claim tag at Constructor nodes (even length),
    SPOILER at Spoiler nodes (odd length).
    """

    tiles: tuple[str, ...]
    nodes: dict[tuple[str, ...], str]

    def depth(self) -> int:
        return max(len(s) for s in self.nodes)


def solve_spiral_game(t: TilingSystem, max_len: int = 0) -> StrategyTree | None:
    """Winning strategy achieving the win within max_len total tiles, or
    None.  max_len <= 0 means unbounded (exact via the window graph)."""
    values = game_values(t)
    root_value = values[t.bottom]
    if root_value is INFINITY:
        return None
    if max_len > 0 and t.n + root_value > max_len:
        return None

    nodes: dict[tuple[str, ...], str] = {}

    def expand(s: tuple[str, ...], window: tuple[str, ...]) -> None:
        claim = _claim(t, window)
        if claim is not None:
            nodes[s] = claim
            return
        best_d = min(
            _legal_moves(t, window), key=lambda d: _move_cost(t, values, window, d)
        )
        nodes[s] = best_d
        after = _push(t, window, best_d)
        nodes[s + (best_d,)] = SPOILER
        for d2 in t.tiles:
            expand(s + (best_d, d2), _push(t, after, d2))

    expand((), t.bottom)
    return StrategyTree(t.tiles, nodes)


def validate_strategy(t: TilingSystem, f: StrategyTree) -> bool:
    """Structural validity of a strategy tree: prefix closure, full Spoiler
    branching, single legal Constructor moves, justified claims."""
    dom = f.nodes
    for s in dom:
        if s and s[:-1] not in dom:
            return False
    for s, label in f.nodes.items():
        seq = t.bottom + s
        window = seq[-(t.n + 1):]
        if len(s) % 2 == 1:
            if label != SPOILER:
                return False
            if any(s + (d,) not in dom for d in t.tiles):
                return False
        elif label in CLAIMS:
            if any(s + (d,) in dom for d in t.tiles):
                return False
            if not _claim_holds(t, window, label):
                return False
        else:
            children = [d for d in t.tiles if s + (d,) in dom]
            if children != [label]:
                return False
            if label not in _legal_moves(t, window):
                return False
    return () in dom


def _constructor_turn(
    t: TilingSystem, f: StrategyTree, s: tuple[str, ...], seq: tuple[str, ...]
) -> tuple[bool | None, tuple[str, ...]]:
    """Constructor's turn at node s, with the tiles seq laid so far.

    At a leaf (a claim, or a move completing a correct spiral) returns
    (constructor_won, seq); otherwise (None, seq extended by his move).
    """
    label = f.nodes[s]
    if label in CLAIMS:
        return _claim_holds(t, seq[-(t.n + 1):], label), seq
    seq += (label,)
    if seq[-t.n:] == t.top and validate_spiral(t, seq):
        return True, seq
    return None, seq


def replay_strategy(
    t: TilingSystem, f: StrategyTree, spoiler_moves: Sequence[str]
) -> tuple[bool, tuple[str, ...]]:
    """Play the strategy against a fixed Spoiler move list.

    Returns (constructor_won, full tile sequence).  The move list must be
    long enough to reach a leaf.
    """
    s: tuple[str, ...] = ()
    seq = t.bottom
    replies = iter(spoiler_moves)
    while True:
        won, seq = _constructor_turn(t, f, s, seq)
        if won is not None:
            return won, seq
        d2 = next(replies, None)
        if d2 is None:
            raise ValueError("spoiler move list exhausted before a leaf")
        s += (seq[-1], d2)
        seq += (d2,)


def all_playouts(t: TilingSystem, f: StrategyTree) -> Iterator[tuple[bool, tuple[str, ...]]]:
    """Exhaustively replay the strategy against every Spoiler behaviour."""

    def walk(s: tuple[str, ...], seq: tuple[str, ...]) -> Iterator[tuple[bool, tuple[str, ...]]]:
        won, seq = _constructor_turn(t, f, s, seq)
        if won is not None:
            yield won, seq
            return
        for d2 in t.tiles:
            yield from walk(s + (seq[-1], d2), seq + (d2,))

    yield from walk((), t.bottom)


def format_strategy(f: StrategyTree) -> str:
    """One node per line: comma-joined move sequence ('.' for the root),
    then the node label."""
    lines = [f"tiles: {' '.join(f.tiles)}"]
    for s in sorted(f.nodes, key=lambda s: (len(s), s)):
        key = ",".join(s) if s else "."
        lines.append(f"{key} {f.nodes[s]}")
    return "\n".join(lines) + "\n"


def parse_strategy(text: str) -> StrategyTree:
    tiles: tuple[str, ...] = ()
    nodes: dict[tuple[str, ...], str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tiles:"):
            tiles = tuple(line[6:].split())
            continue
        try:
            key, label = line.split()
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'sequence label' in {raw!r}")
        s = () if key == "." else tuple(key.split(","))
        nodes[s] = label
    return StrategyTree(tiles, nodes)


def enumerate_systems(max_tiles: int, max_n: int) -> Iterator[TilingSystem]:
    """All tiling systems with |D| <= max_tiles and n <= max_n, up to tile
    naming; used by the exhaustive desk-scale cross-checks."""
    names = ["a", "b", "c"][:max_tiles]
    for k in range(1, max_tiles + 1):
        tiles = names[:k]
        pairs = [(x, y) for x in tiles for y in tiles]
        for n in range(1, max_n + 1):
            for h_bits in product([False, True], repeat=len(pairs)):
                h = [p for p, bit in zip(pairs, h_bits) if bit]
                for v_bits in product([False, True], repeat=len(pairs)):
                    v = [p for p, bit in zip(pairs, v_bits) if bit]
                    for bottom in product(tiles, repeat=n):
                        for top in product(tiles, repeat=n):
                            yield make_system(tiles, h, v, bottom, top, n)
