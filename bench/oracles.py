"""Correctness oracles written apart from the program under test.

Each oracle is derived from a definition (3-SAT semantics, the spiral
tiling game and its claims) rather than from the code in ``src/itu``, so
a fault in the program cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

from itertools import product

INF = float("inf")


class Failed(Exception):
    """An instance produced a wrong verdict or a missing or bad witness."""


def expect(cond: bool, message: str, *args) -> None:
    """Raise Failed unless cond; the message is formatted only then, so a
    check that passes prints no type."""
    if not cond:
        raise Failed(message.format(*args))


# ---------------------------------------------------------------------------
# 3-SAT: clauses are tuples of non-zero DIMACS literals (+i / -i for x_i)


def clause_holds(valuation: dict[int, bool], clause) -> bool:
    return any(valuation[abs(lit)] == (lit > 0) for lit in clause)


def satisfies(valuation: dict[int, bool], clauses) -> bool:
    return all(clause_holds(valuation, c) for c in clauses)


def brute_force_sat(nvars: int, clauses) -> bool:
    """Try every valuation of x_1..x_nvars."""
    for bits in product((False, True), repeat=nvars):
        if satisfies(dict(enumerate(bits, 1)), clauses):
            return True
    return False


def valuation_from_names(names, nvars: int) -> dict[int, bool] | None:
    """Read a valuation off the constants of alpha's image: x_i is true
    when the constant ``xi`` occurs, false when ``not_xi`` occurs; None
    when some variable is fixed neither way."""
    present = set(names)
    out: dict[int, bool] = {}
    for i in range(1, nvars + 1):
        if f"x{i}" in present:
            out[i] = True
        elif f"not_x{i}" in present:
            out[i] = False
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# spiral tiling games


class Spiral:
    """A tiling system as plain data: tiles, the H and V relations, the
    bottom and top rows and the row width n."""

    def __init__(self, tiles, h, v, bottom, top):
        self.tiles = tuple(tiles)
        self.h = frozenset(h)
        self.v = frozenset(v)
        self.bottom = tuple(bottom)
        self.top = tuple(top)
        self.n = len(self.bottom)

    def text(self) -> str:
        """The system in the program's tiling file format."""
        lines = [f"tiles: {' '.join(self.tiles)}"]
        lines += [f"h: {a} {b}" for a, b in sorted(self.h)]
        lines += [f"v: {a} {b}" for a, b in sorted(self.v)]
        lines += [f"bottom: {' '.join(self.bottom)}", f"top: {' '.join(self.top)}", f"n: {self.n}"]
        return "\n".join(lines) + "\n"

    def legal(self, seq, d) -> bool:
        """A tile may follow seq when it is H-adjacent to the last tile and
        V-adjacent to the tile one row (n positions) below it."""
        return (seq[-1], d) in self.h and (seq[-self.n], d) in self.v

    def completes(self, seq) -> bool:
        return tuple(seq[-self.n:]) == self.top


FINISHED, LATE_MOVE, H_VIOLATION, V_VIOLATION = (
    "finished", "late-move", "h-violation", "v-violation")


def claim_holds(g: Spiral, seq, claim: str) -> bool:
    """Whether Constructor may make ``claim`` on the whole tile sequence
    ``seq`` (bottom row included) at her turn.  The violation claims speak
    of Spoiler's last tile, so they need at least one round of play."""
    seq = tuple(seq)
    n = g.n
    played = len(seq) - n
    if played < 0 or played % 2:
        return False
    if claim == FINISHED:
        return seq[-n:] == g.top
    if claim == LATE_MOVE:
        return played >= 2 and seq[-n - 1:-1] == g.top
    if claim == H_VIOLATION:
        return played >= 2 and (seq[-2], seq[-1]) not in g.h
    if claim == V_VIOLATION:
        return played >= 2 and (seq[-n - 1], seq[-1]) not in g.v
    return False


CLAIMS = (FINISHED, LATE_MOVE, H_VIOLATION, V_VIOLATION)


def any_claim(g: Spiral, seq) -> bool:
    return any(claim_holds(g, seq, c) for c in CLAIMS)


def exact_horizon(g: Spiral) -> int:
    """A horizon past which no new win appears: claims and legal moves see
    only the last n+1 tiles, so an optimal win never revisits such a
    window, and there are at most |D|^(n+1) + 1 of them."""
    return 2 * (len(g.tiles) ** (g.n + 1) + 1) + 1


def game_value(g: Spiral, horizon: int) -> float:
    """Minimax over full tile sequences: the fewest tiles Constructor must
    append to force a win (a valid claim, or completing the top row with
    her own move), or INF when no win exists within ``horizon`` tiles.

    The recursion is memoized on the last n+1 tiles and the remaining
    horizon, which is all a claim or a legality test can see."""
    memo: dict[tuple, float] = {}
    n = g.n

    def value(seq: tuple, rem: int) -> float:
        key = (seq[-(n + 1):], rem)
        got = memo.get(key)
        if got is not None:
            return got
        if any_claim(g, seq):
            best = 0.0
        else:
            best = INF
            for d in g.tiles:
                if rem < 1 or not g.legal(seq, d):
                    continue
                after = seq + (d,)
                if g.completes(after):
                    best = min(best, 1.0)
                elif rem >= 2:
                    best = min(best, 2.0 + max(value(after + (d2,), rem - 2) for d2 in g.tiles))
        memo[key] = best
        return best

    return value(g.bottom, horizon)


def strategy_value(g: Spiral, nodes: dict[tuple, str]) -> float:
    """Walk a strategy tree against every Spoiler behaviour and return the
    most tiles it ever needs to win; Failed when a claim does not hold, a
    move is illegal or a Spoiler reply is missing."""

    def walk(s: tuple) -> float:
        label = nodes.get(s)
        expect(label is not None, "strategy has no node at {}", s)
        seq = g.bottom + s
        if label in CLAIMS:
            expect(claim_holds(g, seq, label), "claim {} does not hold at {}", label, s)
            return float(len(s))
        expect(label in g.tiles and g.legal(seq, label), "illegal move {} at {}", label, s)
        if g.completes(seq + (label,)):
            return float(len(s) + 1)
        return max(walk(s + (label, d2)) for d2 in g.tiles)

    return walk(())


def parse_strategy_text(text: str) -> dict[tuple, str]:
    """The strategy file: one node per line, the comma-joined move
    sequence ('.' for the root) and its label."""
    nodes: dict[tuple, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("tiles:"):
            continue
        key, label = line.split()
        nodes[() if key == "." else tuple(key.split(","))] = label
    return nodes


def check_play(g: Spiral, claim: str, seq) -> None:
    """A play outcome: it starts at the bottom row, every tile Constructor
    placed was legal, and the claim it ends with holds."""
    seq = tuple(seq)
    expect(seq[:g.n] == g.bottom, "play does not start at the bottom row")
    for i in range(g.n, len(seq), 2):
        expect(g.legal(seq[:i], seq[i]), "Constructor's move {} is illegal", i - g.n)
    expect(claim_holds(g, seq, claim), "claim {} does not hold on the play", claim)
