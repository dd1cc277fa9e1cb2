"""Tests of the benchmark itself: every workload on a small slice, the
oracles on known answers, and planted faults counted as failures.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import itu  # noqa: E402
import itu.cli  # noqa: E402

import oracles  # noqa: E402
import pace  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_instance  # noqa: E402
from workloads import WORKLOADS, GOLDEN, LowerBound  # noqa: E402


def run_round(name, tmp_path, r=1, tracer=None):
    """Outcomes of one round of a workload: (kind, failure or None)."""
    wl = WORKLOADS[name](7, str(tmp_path))
    return [(kind, run_instance(kind, check, tracer)[1]) for kind, check in wl.make_round(r)]


# -- oracles ---------------------------------------------------------------


def test_brute_force_sat():
    assert oracles.brute_force_sat(1, [(1, 1, 1)])
    every_sign = [(a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3)]
    assert not oracles.brute_force_sat(3, every_sign)
    assert oracles.brute_force_sat(3, every_sign[1:])


def test_golden_value_and_a_loser():
    # Constructor wins the golden system within 9 added tiles
    assert oracles.game_value(GOLDEN, oracles.exact_horizon(GOLDEN)) == 9
    # H lacks (a, a) and V is full: Spoiler can always avoid the suffix bbb
    full = [(x, y) for x in "ab" for y in "ab"]
    loser = oracles.Spiral("ab", [("a", "b"), ("b", "a"), ("b", "b")], full, "aaa", "bbb")
    assert oracles.game_value(loser, oracles.exact_horizon(loser)) == oracles.INF


def test_claims_from_definitions():
    g = GOLDEN
    assert oracles.claim_holds(g, "aaaaa" + "bbbbbb", oracles.FINISHED)
    assert not oracles.claim_holds(g, "aaaaa" + "bbbbb", oracles.FINISHED)  # Spoiler's turn
    assert oracles.claim_holds(g, "aaaaa" + "bbbbba", oracles.LATE_MOVE)
    assert oracles.claim_holds(g, "aaaaa" + "ab", oracles.V_VIOLATION) is False  # (a, b) is in V
    assert oracles.claim_holds(g, "abaaa" + "ba", oracles.V_VIOLATION)  # (b, a) is not
    assert not oracles.claim_holds(g, "aaaaa", oracles.H_VIOLATION)  # no round played yet


# -- every workload on a small slice -----------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_slice_passes(name, tmp_path):
    outcomes = run_round(name, tmp_path)
    assert outcomes
    assert [f for _, f in outcomes if f] == []


def test_rounds_repeat_their_kinds(tmp_path):
    wl = WORKLOADS["matching"](3, str(tmp_path))
    assert [k for k, _ in wl.make_round(1)] == [k for k, _ in wl.make_round(2)]


def test_lower_bound_round0_is_the_golden_alone(tmp_path):
    assert [k for k, _ in LowerBound(1, str(tmp_path)).make_round(0)] == ["golden"]


# -- planted faults are failed instances --------------------------------------


def test_planted_wrong_verdict_decide(tmp_path, monkeypatch):
    monkeypatch.setattr(itu, "subtype", lambda s, t: True)
    failed = [k for k, f in run_round("decide", tmp_path) if f]
    assert set(failed) == {"family", "chain"}


def test_planted_wrong_verdict_matching(tmp_path, monkeypatch):
    monkeypatch.setattr(itu.cli, "solve_matching_bounded", lambda cs, budget=None: None)
    outcomes = run_round("matching", tmp_path)
    failed = {k for k, f in outcomes if f}
    assert failed == {k for k, _ in outcomes if k.startswith("constants") and k.endswith("-sat")}


def test_planted_wrong_verdict_rank1(tmp_path, monkeypatch):
    monkeypatch.setattr(itu, "solve_rank1", lambda cs, budget=None: None)
    outcomes = run_round("rank1", tmp_path)
    assert all(f and "answered none" in f for _, f in outcomes)


def test_planted_non_verifying_witness_rank1(tmp_path, monkeypatch):
    bad = itu.Substitution({"x": itu.const("zz"), "y": itu.const("zz")})
    monkeypatch.setattr(itu, "solve_rank1", lambda cs, budget=None: bad)
    outcomes = run_round("rank1", tmp_path)
    assert all(f and "does not verify" in f for _, f in outcomes)


def test_planted_non_verifying_witness_matching(tmp_path, monkeypatch):
    # a substitution that satisfies nothing: alpha is the marker alone
    mark = itu.const("mark")
    monkeypatch.setattr(itu, "solve_matching_bounded",
                        lambda cs, budget=None: itu.Substitution({"alpha": mark}))
    outcomes = run_round("matching", tmp_path)
    failed = {k for k, f in outcomes if f}
    assert failed == {k for k, _ in outcomes if k.startswith("single")}


def test_planted_false_claim_lower_bound(tmp_path, monkeypatch):
    real = itu.cli.extract_play

    def lying(t, s, spoiler, bullet=None):
        out = real(t, s, spoiler, bullet)
        wrong = "finished" if out.claim != "finished" else "h-violation"
        return itu.PlayOutcome(wrong, out.sequence, out.moves)

    monkeypatch.setattr(itu.cli, "extract_play", lying)
    outcomes = run_round("lower-bound", tmp_path)
    failed = {k for k, f in outcomes if f}
    assert failed == {k for k, _ in outcomes if k.startswith("winner")}


# -- the reference pace -----------------------------------------------------------


def test_pace_factor_uses_the_probes_around_an_instance():
    p = pace.Pace()
    p.at = [0.0, 0.1, 0.2, 5.0, 5.1]
    p.probes = [1e-3, 1e-3, 4e-3, 3e-3, 3e-3]
    assert p.factor(0.15, 0.16) == pytest.approx(pace.REFERENCE_S / 2e-3)
    # a long instance sees the probes on both sides of it
    assert p.factor(0.1, 4.9) == pytest.approx(pace.REFERENCE_S / 2.4e-3)
    assert p.factor(5.3, 5.4) == pytest.approx(pace.REFERENCE_S / 3e-3)


def test_pace_probes_on_its_timer_and_counts_their_time():
    p = pace.Pace()
    p.start()
    try:
        t = time.perf_counter()
        while time.perf_counter() - t < 4 * pace.PROBE_EVERY_S:
            pass
    finally:
        p.stop()
    assert len(p.probes) >= 2 and len(p.at) == len(p.probes)
    assert 0 < p.spent < 4 * pace.PROBE_EVERY_S


# -- the traced run and the command ---------------------------------------------


def test_tracer_reports_every_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = run_round("rank1", tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [f for _, f in outcomes if f] == []
    m = tracer.metrics()
    assert m["rank1.candidates"]["value"] == len(outcomes)
    assert m["rank1.candidate_yield"]["value"] == 1.0
    assert m["subtyping.subtype.calls"]["value"] > 0
    assert m["rank1.rank1_transform.s"]["value"] > 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {x["name"] for x in json.load(fh)["per_layer"]}
    assert declared - set(m) == {"trace.overhead_s"}
    # the wrappers are gone again
    assert itu.subtype.__name__ == "subtype"


def test_command_prints_a_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "rank1",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "instance_p50_ms", "instance_tail_ms",
                                      "instances_per_s", "peak_rss_mb"}
