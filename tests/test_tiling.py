"""Tiling systems, the corridor-to-spiral padding, and the spiral game.

The independent oracle here is a bounded minimax over full-window states
(memoized on (window, remaining budget)); the production solver uses
value iteration instead, so agreement is meaningful.
"""

from functools import lru_cache
from itertools import product

import pytest

from itu import (
    INFINITY,
    SPOILER,
    StrategyTree,
    all_playouts,
    corridor_to_spiral,
    enumerate_systems,
    format_strategy,
    format_tiling,
    game_values,
    make_system,
    parse_strategy,
    parse_tiling,
    replay_strategy,
    solve_spiral_game,
    validate_corridor,
    validate_spiral,
    validate_strategy,
)

FULL2 = (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


class TestSerialization:
    def test_round_trip(self, spiral_winner):
        assert parse_tiling(format_tiling(spiral_winner)) == spiral_winner

    def test_comments(self):
        t = parse_tiling(
            "tiles: a  # the only tile\nh: a a\nv: a a\n"
            "bottom: a\ntop: a\nn: 1\n"
        )
        assert t.tiles == ("a",) and t.n == 1

    def test_missing_field(self):
        with pytest.raises(ValueError):
            parse_tiling("tiles: a\nbottom: a\ntop: a\n")

    def test_n_missing_or_not_positive(self):
        with pytest.raises(ValueError):
            parse_tiling("tiles: a\nbottom: a\ntop: a\nn:\n")
        with pytest.raises(ValueError):
            make_system(("a",), (), (), (), (), 0)

    def test_unknown_tile(self):
        with pytest.raises(ValueError):
            parse_tiling("tiles: a\nh: a z\nbottom: a\ntop: a\nn: 1\n")


class TestValidation:
    def test_corridor_golden(self, spiral_loser):
        grid = [("a", "a", "a"), ("b", "a", "b"), ("b", "b", "b")]
        # rows must be h-consistent; (b, a) and (a, b) are allowed, (a, a)
        # is not in this system
        assert not validate_corridor(spiral_loser, grid)
        # a one-tile system with full relations accepts its trivial corridor
        t = make_system(("a",), (("a", "a"),), (("a", "a"),), ("a",), ("a",), 1)
        assert validate_corridor(t, [("a",)])
        assert validate_corridor(t, [("a",), ("a",)])

    def test_corridor_bad_width(self, spiral_loser):
        with pytest.raises(ValueError):
            validate_corridor(spiral_loser, [("a", "a")])

    def test_spiral_golden(self, spiral_winner):
        # always-b play: bottom, then nine b's (the last five form top)
        seq = ("a",) * 5 + ("b",) * 9
        assert validate_spiral(spiral_winner, seq)
        assert not validate_spiral(spiral_winner, seq + ("a",))
        assert not validate_spiral(spiral_winner, ("a",) * 4)

    def test_spiral_v_distance(self):
        t = make_system(("a", "b"), FULL2, (("a", "b"), ("b", "b")),
                        ("a", "a"), ("b", "b"), 2)
        assert validate_spiral(t, ("a", "a", "b", "b"))
        # (a, a) at distance 2 is not in V
        assert not validate_spiral(t, ("a", "a", "a", "b", "b"))


class TestCorridorToSpiral:
    def test_structure(self, spiral_loser):
        p = corridor_to_spiral(spiral_loser)
        assert p.n == spiral_loser.n + 2
        assert set(p.tiles) == set(spiral_loser.tiles) | {"#"}
        assert p.bottom == spiral_loser.bottom + ("#", "#")

    def test_pad_collision(self, spiral_loser):
        with pytest.raises(ValueError):
            corridor_to_spiral(spiral_loser, pad="a")

    def test_correct_corridors_flatten_to_correct_spirals(self):
        # every correct corridor of every desk-scale system flattens (with
        # the two pads after each row) to a correct padded spiral
        checked = 0
        for t in enumerate_systems(2, 2):
            rows = [r for r in product(t.tiles, repeat=t.n) if t.h_consistent(r)]
            if tuple(t.bottom) not in rows or tuple(t.top) not in rows:
                continue
            # bounded corridor search (row sequences without repeats)
            found = None
            stack = [(t.bottom,)]
            while stack and found is None:
                g = stack.pop()
                if g[-1] == t.top:
                    found = g
                    break
                if len(g) > len(rows):
                    continue
                for r in rows:
                    if r in g:
                        continue
                    if all((g[-1][j], r[j]) in t.v for j in range(t.n)):
                        stack.append(g + (r,))
            if found is None:
                continue
            assert validate_corridor(t, found)
            p = corridor_to_spiral(t)
            seq = tuple(x for row in found for x in row + ("#", "#"))
            assert validate_spiral(p, seq)
            # and chopping a correct padded spiral back gives the corridor
            chopped = [seq[i:i + t.n] for i in range(0, len(seq), t.n + 2)]
            assert validate_corridor(t, chopped)
            checked += 1
        assert checked > 100


# ---------------------------------------------------------------------------
# independent oracle: bounded minimax on windows


def _oracle_claim(t, w):
    n = t.n
    if w[-n:] == t.top:
        return True
    if len(w) == n + 1:
        if w[:-1] == t.top:
            return True
        if (w[0], w[-1]) not in t.v:
            return True
    return len(w) >= 2 and (w[-2], w[-1]) not in t.h


def oracle_min_win(t):
    """Minimal tiles Constructor must append to force a win, or INFINITY."""
    if not t.h_consistent(t.bottom):
        return INFINITY
    k = len(t.tiles)
    cap = 2 * (k ** t.n + k ** (t.n + 1)) + 2

    @lru_cache(maxsize=None)
    def go(w, budget):
        if _oracle_claim(t, w):
            return 0
        if budget <= 0:
            return INFINITY
        best = INFINITY
        for d in t.tiles:
            if (w[-1], d) not in t.h or (w[-t.n], d) not in t.v:
                continue
            after = (w + (d,))[-(t.n + 1):]
            if after[-t.n:] == t.top:
                best = min(best, 1)
                continue
            worst = max(
                go((after + (e,))[-(t.n + 1):], budget - 2) for e in t.tiles
            )
            best = min(best, 2 + worst)
        return best

    return go(t.bottom, cap)


class TestGameGoldens:
    def test_loser_has_no_strategy(self, spiral_loser):
        assert game_values(spiral_loser)[spiral_loser.bottom] is INFINITY
        assert solve_spiral_game(spiral_loser) is None

    def test_winner_value_is_nine(self, spiral_winner):
        assert game_values(spiral_winner)[spiral_winner.bottom] == 9

    def test_winner_tree_metrics(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        assert f is not None
        assert f.depth() == 10
        assert len(f.nodes) == 37
        outs = list(all_playouts(spiral_winner, f))
        assert all(won for won, _ in outs)
        # every fixed Spoiler move list of length 8 loses to the strategy
        wins = 0
        for moves in product(spiral_winner.tiles, repeat=8):
            won, _ = replay_strategy(spiral_winner, f, moves)
            wins += won
        assert wins == 256

    def test_winner_bound(self, spiral_winner):
        # value 9, bottom length 5: total 14 tiles suffice, 13 do not
        assert solve_spiral_game(spiral_winner, max_len=14) is not None
        assert solve_spiral_game(spiral_winner, max_len=13) is None

    def test_winner_plays_b(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        won, seq = replay_strategy(spiral_winner, f, ["a"] * 8)
        assert won
        won, seq = replay_strategy(spiral_winner, f, ["b"] * 8)
        assert won

    def test_h_inconsistent_bottom(self):
        t = make_system(("a", "b"), (("b", "b"),), FULL2,
                        ("a", "a"), ("b", "b"), 2)
        assert game_values(t) == {("a", "a"): INFINITY}
        assert solve_spiral_game(t) is None


class TestStrategyValidation:
    def test_solver_output_validates(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        assert validate_strategy(spiral_winner, f)

    def test_corrupted_trees_fail(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        # drop a Spoiler child
        some = next(s for s, lab in f.nodes.items() if lab == SPOILER)
        broken = dict(f.nodes)
        del broken[some + (spiral_winner.tiles[0],)]
        pruned = {s: l for s, l in broken.items()
                  if not s[: len(some) + 1] == some + (spiral_winner.tiles[0],)}
        assert not validate_strategy(spiral_winner, StrategyTree(f.tiles, pruned))
        # mislabel the root with a claim it cannot justify
        bad = StrategyTree(f.tiles, {(): "finished"})
        assert not validate_strategy(spiral_winner, bad)

    def test_strategy_round_trip(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        g = parse_strategy(format_strategy(f))
        assert g.tiles == f.tiles and g.nodes == f.nodes

    def test_replay_exhausted_spoiler(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        with pytest.raises(ValueError):
            replay_strategy(spiral_winner, f, [])


class TestOracleAgreement:
    def test_enumeration_count(self):
        assert sum(1 for _ in enumerate_systems(2, 2)) == 5128

    def test_values_match_oracle_desk_scale(self):
        winners = 0
        for t in enumerate_systems(2, 2):
            want = oracle_min_win(t)
            got = game_values(t)[t.bottom]
            assert got == want, format_tiling(t)
            f = solve_spiral_game(t)
            assert (f is not None) == (want is not INFINITY)
            if f is not None:
                winners += 1
                assert validate_strategy(t, f)
                assert all(won for won, _ in all_playouts(t, f))
        assert winners == 1538

    def test_examples_match_oracle(self, spiral_loser, spiral_winner):
        assert oracle_min_win(spiral_loser) is INFINITY
        assert oracle_min_win(spiral_winner) == 9
