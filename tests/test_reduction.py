"""Game-to-constraints reduction: builders, strategy compiler, play
extractor, and the desk-scale equivalence sweep."""

import hashlib
import os
import random
from itertools import product

import pytest

from itu import (
    INFINITY,
    ExtractionError,
    Substitution,
    all_playouts,
    build_CT,
    build_CT_prime,
    compile_strategy,
    const,
    enumerate_systems,
    extend_ct_prime,
    extract_play,
    format_constraints,
    format_strategy,
    format_substitution,
    game_values,
    make_system,
    parse_substitution,
    print_type,
    replay_strategy,
    solve_spiral_game,
    type_vars,
    verify,
    word_type,
)
from itu.reduction import ALPHA, beta_name, gamma_name
from itu.types import OMEGA, Inter, Arrow


def omega_free(t) -> bool:
    if t is OMEGA:
        return False
    if isinstance(t, Arrow):
        return omega_free(t.source) and omega_free(t.target)
    if isinstance(t, Inter):
        return all(omega_free(c) for c in t.components)
    return True


def constraint_omega_free(cs) -> bool:
    return all(omega_free(c.lhs) and omega_free(c.rhs) for c in cs)


class TestWordType:
    def test_reads_right_to_left(self):
        got = word_type(("a", "b"), const("u"))
        assert print_type(got) == "b -> a -> u"

    def test_empty_word(self):
        assert word_type((), const("u")) is const("u")


class TestBuilders:
    def test_ct_has_three_constraints(self, spiral_winner):
        assert len(build_CT(spiral_winner)) == 3

    def test_ct_prime_count(self, spiral_winner):
        t = spiral_winner
        cs = build_CT_prime(t)
        k = len(t.tiles)
        assert len(cs) == 3 + k + k * (t.n - 1)

    def test_ct_prime_is_omega_free(self, spiral_winner, spiral_loser):
        assert constraint_omega_free(build_CT_prime(spiral_winner))
        assert constraint_omega_free(build_CT_prime(spiral_loser))
        # the plain system does use omega
        assert not constraint_omega_free(build_CT(spiral_winner))

    def test_variables(self, spiral_winner):
        seen = set()
        for c in build_CT(spiral_winner):
            seen |= type_vars(c.lhs) | type_vars(c.rhs)
        assert seen == {ALPHA, beta_name("a"), beta_name("b")}

    def test_ct_prime_chain_variables(self, spiral_winner):
        seen = set()
        for c in build_CT_prime(spiral_winner):
            seen |= type_vars(c.lhs) | type_vars(c.rhs)
        for d in spiral_winner.tiles:
            for i in range(1, spiral_winner.n + 1):
                assert gamma_name(d, i) in seen

    def test_tile_name_collisions(self):
        t = make_system(("mark",), (("mark", "mark"),), (("mark", "mark"),),
                        ("mark",), ("mark",), 1)
        with pytest.raises(ValueError):
            build_CT(t)
        t2 = make_system(("omega",), (("omega", "omega"),), (("omega", "omega"),),
                         ("omega",), ("omega",), 1)
        with pytest.raises(ValueError):
            build_CT(t2)


class TestCompiler:
    def test_winner_satisfies_both_systems(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        s = compile_strategy(spiral_winner, f, override=True)
        assert verify(s, build_CT(spiral_winner))
        s2 = extend_ct_prime(spiral_winner, s)
        assert verify(s2, build_CT_prime(spiral_winner))

    def test_scale_guard(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        # depth 10 + n 5 exceeds the cap, so the override is mandatory
        with pytest.raises(ValueError):
            compile_strategy(spiral_winner, f)

    def test_invalid_strategy_rejected(self, spiral_winner):
        from itu import StrategyTree

        with pytest.raises(ValueError):
            compile_strategy(
                spiral_winner, StrategyTree(spiral_winner.tiles, {(): "finished"})
            )


class TestExtractor:
    def _compiled(self, spiral_winner):
        f = solve_spiral_game(spiral_winner)
        return compile_strategy(spiral_winner, f, override=True)

    def test_fixed_spoilers(self, spiral_winner):
        s = self._compiled(spiral_winner)
        for tile in spiral_winner.tiles:
            out = extract_play(spiral_winner, s, lambda w: tile)
            assert out.claim in ("finished", "late-move",
                                 "h-violation", "v-violation")
            assert out.sequence[: spiral_winner.n] == spiral_winner.bottom

    def test_exhaustive_spoilers(self, spiral_winner):
        s = self._compiled(spiral_winner)
        for moves in product(spiral_winner.tiles, repeat=5):
            it = iter(moves)

            def oracle(w, it=it):
                try:
                    return next(it)
                except StopIteration:
                    return spiral_winner.tiles[0]

            out = extract_play(spiral_winner, s, oracle)
            assert out.claim  # every playout ends in a justified claim

    def test_adversarial_spoiler(self, spiral_winner, rng):
        s = self._compiled(spiral_winner)
        for _ in range(20):
            out = extract_play(
                spiral_winner, s, lambda w: rng.choice(spiral_winner.tiles)
            )
            assert out.claim

    def test_bad_oracle_tile(self, spiral_winner):
        s = self._compiled(spiral_winner)
        with pytest.raises(ValueError):
            extract_play(spiral_winner, s, lambda w: "z")

    def test_nonsolution_fails(self, spiral_winner):
        bad = Substitution(
            {
                ALPHA: OMEGA,
                beta_name("a"): OMEGA,
                beta_name("b"): OMEGA,
            }
        )
        assert not verify(bad, build_CT(spiral_winner))
        with pytest.raises(ExtractionError):
            extract_play(spiral_winner, bad, lambda w: "a")


def desk_systems():
    return enumerate_systems(2, 2)


class TestDeskScaleEquivalence:
    """Both directions of the winner/satisfiability correspondence over
    every system with at most two tiles and corridor width two."""

    def test_round_trip(self):
        winners = 0
        rng = random.Random(5)
        for t in desk_systems():
            f = solve_spiral_game(t)
            if f is None:
                continue
            winners += 1
            s = compile_strategy(t, f, override=True)
            assert verify(s, build_CT(t)), t
            s2 = extend_ct_prime(t, s)
            cs2 = build_CT_prime(t)
            if t.h and t.v:
                # with an empty relation the canonical empty intersection
                # is omega, so certification only applies to nondegenerate
                # systems
                assert constraint_omega_free(cs2)
            assert verify(s2, cs2), t
            # the extractor wins against a random spoiler
            out = extract_play(t, s, lambda w: rng.choice(t.tiles))
            assert out.claim
        assert winners == 1538

    def test_shared_substitution_files(self):
        # the CT' substitutions of every desk-scale winner, written with
        # shared names and plainly, read back as the same interned images
        for t in desk_systems():
            f = solve_spiral_game(t)
            if f is None:
                continue
            s = extend_ct_prime(t, compile_strategy(t, f, override=True))
            shared = parse_substitution(format_substitution(s, shared=True)).mapping
            plain = parse_substitution(format_substitution(s)).mapping
            for name, image in s.mapping.items():
                assert shared[name] is image and plain[name] is image, (t, name)

    def test_losers_do_not_verify_compiled_shape(self):
        # for losing systems no strategy exists, and the all-omega guess
        # never satisfies the game-moves constraint
        checked = 0
        for t in desk_systems():
            if game_values(t)[t.bottom] is not INFINITY:
                continue
            mapping = {ALPHA: OMEGA}
            for d in t.tiles:
                mapping[beta_name(d)] = OMEGA
            assert not verify(Substitution(mapping), build_CT(t))
            checked += 1
            if checked >= 200:
                break
        assert checked == 200


# ---------------------------------------------------------------------------
# the pipeline's output, pinned: game values, strategies, playouts, replays,
# both constraint systems and the compiled CT' substitutions

PINNED_PIECES = (
    "values", "strategy", "playouts", "replays", "ct", "ct-prime", "ct-prime-sub"
)


def _pinned_pieces(t, compile_sub=True):
    """The pipeline's printed output for one system, by piece; a piece
    that does not apply (no strategy) is absent."""
    out = {
        "values": repr(sorted(game_values(t).items())),
        "ct": format_constraints(build_CT(t)),
        "ct-prime": format_constraints(build_CT_prime(t)),
    }
    f = solve_spiral_game(t)
    if f is None:
        return out
    out["strategy"] = format_strategy(f)
    out["playouts"] = repr(list(all_playouts(t, f)))
    replays = []
    for moves in product(t.tiles, repeat=6):
        try:
            replays.append(repr(replay_strategy(t, f, moves)))
        except ValueError as e:
            replays.append(f"ValueError: {e}")
    out["replays"] = "\n".join(replays)
    if compile_sub:
        s = compile_strategy(t, f, override=True)
        out["ct-prime-sub"] = format_substitution(extend_ct_prime(t, s))
    return out


def _pinned_lines(name, systems, compile_sub=True):
    texts = {piece: [] for piece in PINNED_PIECES}
    for t in systems:
        for piece, text in _pinned_pieces(t, compile_sub).items():
            texts[piece].append(text)
    for piece in PINNED_PIECES:
        if texts[piece]:
            joined = "---\n".join(texts[piece])
            digest = hashlib.sha256(joined.encode()).hexdigest()
            yield [name, piece, str(len(texts[piece])), digest]


def test_pipeline_matches_pinned_output(spiral_loser, spiral_winner):
    path = os.path.join(os.path.dirname(__file__), "tiling_pinned.txt")
    with open(path) as fh:
        want = [line.split() for line in fh if not line.startswith("#")]
    got = list(_pinned_lines("desk", desk_systems()))
    got += _pinned_lines("loser", [spiral_loser])
    # the n=5 winner's CT' substitution prints in the hundreds of megabytes
    got += _pinned_lines("winner", [spiral_winner], compile_sub=False)
    assert got == want
