"""The four benchmark workloads.

A workload turns ``(seed, round)`` into one round of instances.  Each
instance is a ``(kind, check)`` pair: ``check()`` runs the program on the
round's generated inputs, then holds every answer against an oracle from
``oracles.py`` and raises when one is wrong or missing.  Every round of a
workload has the same kinds in the same order, so the share of each kind
in a run does not depend on the seed or the run length.

Each workload class states its ``tail_percentile`` (the highest whole
percentile, up to p99, that leaves at least ten instances beyond it in a
20 s run; p98 for rank1, see there),
``rss_rounds`` (the rounds after which the peak resident memory is read,
so the figure covers a fixed amount of work whatever the program's speed)
and ``lead_rounds`` (leading rounds, run in every run, that the time
budget does not count).

The program is reached only through attribute lookups on the ``itu``
modules at call time (``itu.subtype(...)``, ``itu.cli.run(...)``), so the
tracer in ``tracer.py`` sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import itu
import itu.cli
import itu.gen

from oracles import (
    INF,
    Spiral,
    brute_force_sat,
    check_play,
    exact_horizon,
    expect,
    game_value,
    parse_strategy_text,
    satisfies,
    strategy_value,
    valuation_from_names,
)


def round_rng(name: str, seed: int, r: int) -> random.Random:
    # a string seed is hashed with SHA-512, so it is stable across processes
    return random.Random(f"{name}:{seed}:{r}")


def cli(argv) -> tuple[int, str]:
    """``itu.cli.run`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = itu.cli.run([str(a) for a in argv])
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# decide: the subtype decider on shapes where it does nearly all the work

FAMILY_DEPTHS = (10, 13)
# 992 is the longest chain subtype decides at the default recursion limit
# from a shallow stack; the margin leaves room for the harness and tracer
# frames above the decider
CHAIN_LENGTHS = (256, 900)
ORGANIZE_BATCH = 20
AXIOM_BATCH = 50


def shared_family(a, b, depth: int):
    """l(k+1) = (a&b -> l(k)) & (a -> l(k)) and r(k+1) = a&b -> r(k), both
    from a: l <= r holds and r <= l does not.  The interned graph of l has
    O(depth) nodes, its tree 2^depth leaves."""
    ab = itu.inter([a, b])
    lo = hi = a
    for _ in range(depth):
        lo = itu.inter([itu.arrow(ab, lo), itu.arrow(a, lo)])
        hi = itu.arrow(ab, hi)
    return lo, hi


def arrow_chain(a, b, rng: random.Random, length: int):
    """A criterion-3 chain: s_1 -> ... -> s_n -> a with each s_i in {a, b},
    against (a&b) -> ... -> (a&b) -> a.  The first is below the second (each
    source a or b lies above a&b) and not above it."""
    ab = itu.inter([a, b])
    lo = hi = a
    for _ in range(length):
        lo = itu.arrow(rng.choice((a, b)), lo)
        hi = itu.arrow(ab, hi)
    return lo, hi


class Decide:
    name = "decide"
    tail_percentile = 99
    # the intern table passes a dict resize (2/3 of 2^18 entries, a 10 MB
    # step) near round 200, before it on some seeds and after it on others;
    # at round 300 every seed is well between that resize and the next
    rss_rounds = 300
    lead_rounds = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        # fresh constants per round keep the family out of the decider's memo
        families = [
            shared_family(itu.const(f"f{r}a{i}"), itu.const(f"f{r}b{i}"), rng.randint(*FAMILY_DEPTHS))
            for i in range(2)
        ]
        ch_lo, ch_hi = arrow_chain(itu.const("a"), itu.const("b"), rng, rng.randint(*CHAIN_LENGTHS))
        gen = itu.gen.TypeGen(rng)
        organize_types = [gen.type(4) for _ in range(ORGANIZE_BATCH)]
        schemas = list(itu.ALL_AXIOMS.values())
        axiom_args = []
        for _ in range(AXIOM_BATCH):
            schema = rng.choice(schemas)
            axiom_args.append((schema, [gen.type(3) for _ in range(schema.arity)]))

        def family(lo, hi):
            def check():
                expect(itu.subtype(lo, hi), "family: l <= r refuted")
                expect(not itu.subtype(hi, lo), "family: r <= l proved")

            return check

        def chain():
            expect(itu.subtype(ch_lo, ch_hi), "chain: lower <= upper refuted")
            expect(not itu.subtype(ch_hi, ch_lo), "chain: upper <= lower proved")

        def organize():
            for t in organize_types:
                expect(itu.type_equal(t, itu.organize(t)), "organize changed the meaning of {}", t)

        def axioms():
            # the batch `itu axioms` runs: partial schemas reject some
            # argument lists with a ValueError, which is not a fault
            for schema, args in axiom_args:
                try:
                    ok = itu.check_axiom_soundness(schema, args)
                except ValueError:
                    continue
                expect(ok, "axiom {} unsound at {}", schema.name, args)

        # two family instances make five kinds, so the median falls inside
        # the decider-bound kinds rather than between two of them
        return [("family", family(*families[0])), ("family", family(*families[1])),
                ("chain", chain), ("organize", organize), ("axioms", axioms)]


# ---------------------------------------------------------------------------
# matching: 3-SAT images near the satisfiability threshold

CLAUSE_RATIO = 4.26
# (form, propositional variables, satisfiable); every round has each once.
# An odd count puts the median inside one kind's spread, not in the gap
# between two; the single-constant form with 4 variables runs only
# satisfiable instances to make it odd.
MATCHING_KINDS = (
    ("constants", 4, True), ("constants", 4, False),
    ("constants", 5, True), ("constants", 5, False),
    ("constants", 6, True), ("constants", 6, False),
    ("single", 4, True), ("single", 5, True), ("single", 5, False),
)


def random_3sat(rng: random.Random, nv: int, want_sat: bool):
    """Draw 3-clauses over distinct variables at the threshold ratio until
    the brute-force verdict is the one asked for."""
    m = round(CLAUSE_RATIO * nv)
    while True:
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(m)
        ]
        if brute_force_sat(nv, clauses) == want_sat:
            return clauses


def dimacs(nv: int, clauses) -> str:
    return f"p cnf {nv} {len(clauses)}\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)


def substitution_alpha_names(text: str) -> list[str]:
    """The constants of alpha's image in a substitution file."""
    for line in text.splitlines():
        name, _, body = line.partition(":=")
        if name.strip() == "'alpha":
            return [p.strip() for p in body.split("&")]
    return []


def tower_depth(t) -> int | None:
    """k for the tower mark -> ... -> mark with k arrows, else None."""
    k = 0
    while isinstance(t, itu.Arrow):
        if t.source is not itu.const("mark"):
            return None
        k += 1
        t = t.target
    return k if t is itu.const("mark") else None


class Matching:
    name = "matching"
    tail_percentile = 85
    rss_rounds = 4
    lead_rounds = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        out = []
        for i, (form, nv, sat) in enumerate(MATCHING_KINDS):
            clauses = random_3sat(rng, nv, sat)
            kind = f"{form}-{nv}-{'sat' if sat else 'unsat'}"
            if form == "constants":
                path = os.path.join(self.workdir, f"m{i}.cnf")
                with open(path, "w") as fh:
                    fh.write(dimacs(nv, clauses))
                out.append((kind, self._constants(path, nv, clauses, sat)))
            else:
                out.append((kind, self._single(nv, clauses, sat)))
        return out

    def _constants(self, path, nv, clauses, sat):
        def check():
            sub_path = path + ".sub"
            rc, text = cli(["match", path, "-o", sub_path])
            expect(rc == (0 if sat else 1), "itu match exit {}, satisfiable={}", rc, sat)
            if not sat:
                expect(text.strip() == "unsatisfiable", "unexpected output {!r}", text)
                return
            with open(sub_path) as fh:
                v = valuation_from_names(substitution_alpha_names(fh.read()), nv)
            expect(v is not None, "alpha's image fixes no valuation")
            expect(satisfies(v, clauses), "the valuation read from alpha falsifies a clause")
            printed = " ".join(f"x{i}={int(v[i])}" for i in sorted(v, key=lambda i: f"x{i}"))
            expect(text.strip() == printed, "printed valuation {!r} is not {!r}", text.strip(), printed)

        return check

    def _single(self, nv, clauses, sat):
        names = tuple(f"x{i}" for i in range(1, nv + 1))
        lits = tuple(tuple((f"x{abs(l)}", l > 0) for l in c) for c in clauses)

        def check():
            mark = itu.const("mark")
            cs = itu.sat3_to_matching(itu.Sat3Instance(names, lits), mark)
            enc = itu.encode_constants_unary(cs, mark)
            s = itu.solve_matching_bounded(enc, itu.MatchBudget(tower_depth=2 * nv))
            expect((s is not None) == sat, "single-constant verdict {}, satisfiable={}", s is not None, sat)
            if s is None:
                return
            expect(itu.verify(s, enc), "returned substitution does not verify")
            # encode_constants_unary numbers the constants in sorted order
            order = sorted(set(names) | {f"not_{x}" for x in names})
            depths = [tower_depth(c) for c in itu.components(s.get("alpha"))]
            expect(None not in depths, "alpha's image holds a non-tower")
            v = valuation_from_names([order[k - 1] for k in depths if k], nv)
            expect(v is not None and satisfies(v, clauses), "decoded valuation falsifies a clause")

        return check


# ---------------------------------------------------------------------------
# lower-bound: the tiling-game pipeline through the CLI

GOLDEN = Spiral("ab", [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")],
                [("a", "a"), ("a", "b"), ("b", "b")], "aaaaa", "bbbbb")
PAIRS = [(x, y) for x in "ab" for y in "ab"]


def constructor_moves(value: float) -> int:
    """Constructor's moves in the longest optimal play: ceil(value / 2)."""
    return int(value + 1) // 2


def random_spiral(rng: random.Random, n: int, moves: int | None) -> tuple[Spiral, float]:
    """A 2-tile system of width n with an H-consistent bottom row: a loser
    when ``moves`` is None, else a winner whose optimal plays take that many
    Constructor moves, by the exact minimax value."""
    while True:
        h = [p for p in PAIRS if rng.random() < 0.75]
        v = [p for p in PAIRS if rng.random() < 0.75]
        bottom = [rng.choice("ab") for _ in range(n)]
        top = [rng.choice("ab") for _ in range(n)]
        g = Spiral("ab", h, v, bottom, top)
        if any((x, y) not in g.h for x, y in zip(bottom, bottom[1:])):
            continue
        if moves is None:
            value = game_value(g, exact_horizon(g))
            if value == INF:
                return g, value
        else:
            # a win within 2 * moves tiles has its exact value; none is INF
            value = game_value(g, 2 * moves)
            if value != INF and constructor_moves(value) == moves:
                return g, value


class LowerBound:
    name = "lower-bound"
    tail_percentile = 95
    rss_rounds = 8
    # round 0 is the golden instance alone; the run's time budget counts
    # from round 1, so the golden's own run-to-run jitter does not change
    # how many seeded rounds fit into the run
    lead_rounds = 1
    # (variant, width n, Constructor moves or None for a loser).  A winner's
    # strategy tree has depth 2 * moves, so alpha compiles to
    # 2^(n + 2 * moves + 1) - 1 words and the omega-free substitution prints
    # some 2^(2n + 2 * moves) more: fixing both per kind caps the compiled
    # size and keeps each kind's cost within a factor of about two.  The
    # variants alternate, and five kinds put the median inside one kind.
    KINDS = (("ct", 3, 2), ("ct-prime", 4, 1), ("ct", 5, None), ("ct-prime", 3, None), ("ct", 5, 2))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        if r == 0:
            # the paper-scale winner: alpha compiles to 65,535 components;
            # its omega-free substitution would print some 300 MB, so it
            # runs with the plain system only
            value = game_value(GOLDEN, exact_horizon(GOLDEN))
            return [("golden", self._instance("g", GOLDEN, value, "ct", rng.randrange(1000)))]
        out = []
        for i, (variant, n, moves) in enumerate(self.KINDS):
            g, value = random_spiral(rng, n, moves)
            kind = f"{'loser' if moves is None else 'winner'}-{variant}-n{n}"
            out.append((kind, self._instance(f"s{i}", g, value, variant, rng.randrange(1000))))
        return out

    def _instance(self, stem, g: Spiral, value: float, variant: str, play_seed: int):
        f = {ext: os.path.join(self.workdir, f"{stem}.{ext}") for ext in ("tiling", "strat", "sub", "cs")}
        with open(f["tiling"], "w") as fh:
            fh.write(g.text())

        def check():
            rc, text = cli(["solve-game", f["tiling"], "-o", f["strat"]])
            if value == INF:
                expect(rc == 1 and text.strip() == "no winning strategy", "loser solved: exit {}", rc)
                rc, _ = cli(["reduce", f["tiling"], "--variant", variant, "-o", f["cs"]])
                expect(rc == 0, "reduce exit {}", rc)
                return
            expect(rc == 0, "winner not solved: exit {}", rc)
            with open(f["strat"]) as fh:
                got = strategy_value(g, parse_strategy_text(fh.read()))
            expect(got == value, "strategy needs {} tiles, the game value is {}", got, value)
            rc, _ = cli(["compile-strategy", f["tiling"], f["strat"], "--override",
                         "--variant", variant, "-o", f["sub"]])
            expect(rc == 0, "compile-strategy exit {}", rc)
            rc, _ = cli(["reduce", f["tiling"], "--variant", variant, "-o", f["cs"]])
            expect(rc == 0, "reduce exit {}", rc)
            rc, text = cli(["verify", f["cs"], f["sub"]])
            expect(rc == 0 and text.strip() == "yes", "compiled substitution fails {}", variant)
            rc, text = cli(["play", f["tiling"], f["sub"], "--seed", play_seed])
            expect(rc == 0 and text.startswith("win by "), "play exit {}: {!r}", rc, text)
            claim, _, seq = text[len("win by "):].partition(":")
            check_play(g, claim, seq.split())

        return check


# ---------------------------------------------------------------------------
# rank1: solve_rank1 on the criterion-8 generator

MAX_VAR_OCCURRENCES = 2
# syntax-tree nodes: two variable occurrences in a template this big make
# an instance take anywhere from 1 ms to 1 s
LARGE_TEMPLATE = 9
LARGE_SET = 40
# instances per seeded round of each kind, the generator's own shares of
# the draws with one occurrence and with two in a smaller template
RANK1_QUOTAS = {"one-var": 32, "two-var": 8}


def var_occurrences(t) -> int:
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        if isinstance(u, itu.Var):
            n += 1
        elif isinstance(u, itu.Arrow):
            stack += (u.source, u.target)
        elif isinstance(u, itu.Inter):
            stack += u.components
    return n


class Rank1:
    name = "rank1"
    # the costliest 1% of a run are the top of the two-occurrence draws,
    # whose costs spread so widely that p99 moved by 13% from seed to seed
    # at a steady pace, where p98 moved by 4%
    tail_percentile = 98
    rss_rounds = 100
    # round 0 is a fixed set of large two-occurrence templates, the same in
    # every run: their heavy-tailed costs, drawn anew per seed, would swing a
    # run's totals by a fifth.  The time budget counts from round 1.
    lead_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_round(self, r: int):
        if r == 0:
            return self._draw(random.Random("rank1-large"), {"two-var-large": LARGE_SET})
        return self._draw(round_rng(self.name, self.seed, r), dict(RANK1_QUOTAS))

    def _draw(self, rng: random.Random, left: dict[str, int]):
        """Criterion-8 draws in order, each kept while its kind's quota
        lasts: ground = template[x, y := image], ground <= template."""
        gen = itu.gen.TypeGen(rng, allow_omega=False)
        out = []
        while any(left.values()):
            image = gen.simple_intersection(2, width=2)
            template = gen.type(rng.randint(0, 2))
            occurrences = var_occurrences(template)
            if occurrences == 1:
                kind = "one-var"
            elif occurrences == MAX_VAR_OCCURRENCES:
                kind = "two-var-large" if itu.size(template) >= LARGE_TEMPLATE else "two-var"
            else:
                continue
            if not left.get(kind):
                continue
            left[kind] -= 1
            witness = itu.Substitution({"x": image, "y": image})
            cs = (itu.leq(itu.apply(witness, template), template),)
            out.append((kind, self._instance(cs, witness)))
        return out

    @staticmethod
    def _instance(cs, witness):
        def check():
            got = itu.solve_rank1(cs, budget=(2, 4))
            expect(got is not None, "solvable instance answered none")
            expect(itu.verify(got, cs), "returned substitution does not verify")
            expect(itu.verify(witness, cs), "the built-in witness x = y = image does not verify")

        return check


WORKLOADS = {w.name: w for w in (Decide, Matching, LowerBound, Rank1)}
