"""Tests of the benchmark itself: seeded generators, reference checks,
failure counting and the tracer."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from bench import generators as gen
from bench import reference as ref
from bench import workloads
from bench.automata import Auto, parse
from bench.run import (
    KERNEL_NOMINAL_S,
    Outcomes,
    e2e_metrics,
    execute,
    host_scale,
    tail,
)
from bench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _texts(workload, seed):
    texts = {}

    def write(name, auto):
        texts[name] = auto.to_text()
        return name

    workloads.build(workload, seed, write)
    return texts


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_same_seed_gives_same_bytes(workload):
    first = _texts(workload, 7)
    assert first == _texts(workload, 7)
    assert first != _texts(workload, 8)


def test_text_round_trips_through_own_parser():
    auto = gen.sparse(random.Random(3), 20, 2)
    assert parse(auto.to_text()).to_text() == auto.to_text()


def test_shuffled_copy_is_isomorphic_under_perm():
    auto = gen.sparse(random.Random(1), 12, 2)
    copy, perm = gen.shuffled(random.Random(2), auto)
    for x in auto.alphabet:
        assert sorted((perm[s], perm[d]) for s, d in auto.pairs(x)) == copy.pairs(x)
    assert {perm[q] for q in auto.terminal} == copy.terminal


def test_perturbed_copy_is_separated_by_its_word():
    auto = gen.sparse(random.Random(4), 30, 2)
    wrong, word = gen.perturbed(random.Random(5), auto)
    assert not auto.accepts(word)
    assert wrong.accepts(word)


def test_chain_one_shorter_is_separated_by_a_power():
    for family in (gen.chain, gen.ring):
        a, shorter = family(10), family(9)
        assert a.accepts(("a",) * 9) != shorter.accepts(("a",) * 9)


def test_copies_accept_what_the_base_accepts():
    rng = random.Random(6)
    base = gen.sparse(rng, 6, 2)
    union = gen.copies(rng, base, 4)
    assert union.n == 24
    for word in ref.sample_words(rng, base, 40, 8):
        assert union.accepts(word) == base.accepts(word)


def test_pooled_subset_construction_stays_small():
    auto = gen.pooled(random.Random(2), 64, 2, 8)
    seen, frontier = {auto.initial}, [auto.initial]
    while frontier:
        states = frontier.pop()
        for x in auto.alphabet:
            nxt = auto.step(states, x)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) <= 2 * 2 ** 8 + 1


# --- reference checks -------------------------------------------------------

AUTO = Auto.from_pairs(
    3, ("a", "b"), {"a": [(0, 1), (1, 2)], "b": [(2, 2)]}, [0], [2]
)


def test_equivalent_check_rejects_wrong_verdict_and_missing_pair():
    check = ref.equivalent((1, 0, 2), 3, 3)
    assert check(0, "EQUIVALENT\n010\n100\n001\n") is None
    assert check(1, "NOT-EQUIVALENT\n") is not None
    assert check(0, "NOT-EQUIVALENT\n010\n100\n001\n") is not None
    assert check(0, "EQUIVALENT\n100\n100\n001\n") is not None
    assert check(0, "EQUIVALENT\n010\n100\n") is not None


def test_relation_check_needs_the_permutation():
    check = ref.relation((0, 1), 2, 2)
    assert check(0, "11\n01\n") is None
    assert check(0, "01\n01\n") is not None
    assert check(1, "NONE\nviolated: initial-forward\n") is not None


def test_not_equivalent_check_rejects_a_positive_verdict():
    other = Auto.from_pairs(3, ("a", "b"), {"a": [(0, 1)]}, [0], [1])
    check = ref.not_equivalent(AUTO, other, ("a", "a"))
    assert check(1, "NOT-EQUIVALENT\n") is None
    assert check(0, "EQUIVALENT\n") is not None
    # A word that does not separate is a construction error, never a pass.
    assert ref.not_equivalent(AUTO, AUTO, ("a",))(1, "NOT-EQUIVALENT\n")


def test_same_language_check_rejects_a_different_language():
    words = [(), ("a",), ("a", "a"), ("a", "a", "b"), ("b",)]
    check = ref.same_language(AUTO, words, max_states=3)
    assert check(0, AUTO.to_text()) is None
    flipped = Auto.from_pairs(
        3, AUTO.alphabet, {x: AUTO.pairs(x) for x in AUTO.alphabet}, [0], [1]
    )
    assert check(0, flipped.to_text()) is not None
    assert check(0, "states 3\n") is not None
    assert check(2, AUTO.to_text()) is not None
    assert ref.same_language(AUTO, words, max_states=2)(0, AUTO.to_text())
    assert ref.same_language(AUTO, words, deterministic=True)(0, AUTO.to_text())


# --- the runner, against the program ----------------------------------------

nfabisim = pytest.importorskip("nfabisim")
cli = pytest.importorskip("nfabisim.cli")


def _small_cases(tmp_path, workload):
    def write(name, auto):
        path = tmp_path / f"{name}.nfa"
        path.write_text(auto.to_text())
        return str(path)

    make, *params = workloads.PLANS[workload][0]
    small = params[:]
    small[0] = 12
    return make(random.Random(1), write, *small)


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_program_outputs_pass_their_checks(tmp_path, workload):
    outcomes = Outcomes()
    for cid, case in enumerate(_small_cases(tmp_path, workload)):
        case.cid = cid
        outcomes.add(case, 0.0, *execute(cli, case.argv))
    failed, reasons, _ = outcomes.check()
    assert failed == 0, reasons


def test_wrong_outputs_and_exceptions_count_as_failures(tmp_path):
    cases = _small_cases(tmp_path, "fixpoint-deep")
    for cid, case in enumerate(cases):
        case.cid = cid
    outcomes = Outcomes()
    code, out, error = execute(cli, cases[0].argv)
    outcomes.add(cases[0], 0.0, code, out, error)
    outcomes.add(cases[0], 0.0, 0, out.replace("EQUIVALENT", "NOT-EQUIVALENT"), None)
    outcomes.add(cases[1], 0.0, 0, "EQUIVALENT\n", None)
    outcomes.add(cases[2], 0.0, None, "", "RecursionError")
    missing = cases[3]
    missing.argv = missing.argv[:3] + [str(tmp_path / "absent.nfa")]
    outcomes.add(missing, 0.0, *execute(cli, missing.argv))
    failed, reasons, failed_cids = outcomes.check()
    assert failed == 4
    assert failed_cids == {0, 1, 2, 3}
    assert any("raised RecursionError" in r for r in reasons)


def test_e2e_metrics_take_each_cases_best_run(tmp_path):
    cases = _small_cases(tmp_path, "subset-weak")
    for cid, case in enumerate(cases):
        case.cid = cid
    outcomes = Outcomes()
    for cid, case in enumerate(cases):
        for seconds in (0.5 + cid, 0.1 + cid, 0.3 + cid):
            outcomes.add(case, seconds, 0, "", None)
    metrics = e2e_metrics(outcomes, 10.0, {0}, 0.2, lambda line: None)
    best = [0.1 + cid for cid in range(len(cases))]
    assert metrics["case_s_p50"] == pytest.approx(statistics.median(best))
    assert metrics["cases_per_s"] == pytest.approx((len(best) - 1) / sum(best))
    assert metrics["determinize_s_p50"] == pytest.approx(0.6)


def test_host_scale_reports_times_at_nominal_speed():
    assert host_scale(KERNEL_NOMINAL_S, KERNEL_NOMINAL_S) == 1.0
    assert host_scale(2 * KERNEL_NOMINAL_S, 2 * KERNEL_NOMINAL_S) == 0.5


def test_tail_keeps_ten_cases_beyond_it():
    times = [float(i) for i in range(1, 101)]
    p, value, beyond = tail(times)
    assert (p, value, beyond) == (90, 90.0, 10)
    assert tail(times[:15])[0] == 50


def test_tracer_nests_spans_and_restores_bindings(tmp_path):
    path = tmp_path / "a.nfa"
    path.write_text(gen.chain(6).to_text())
    originals = (nfabisim.bisim.compose, nfabisim.cli._GREATEST["fb"])
    tracer = Tracer(nfabisim)
    tracer.install()
    try:
        tracer.case = 0
        code, out, error = execute(cli, ["equiv", "--mode", "fb", str(path), str(path)])
    finally:
        tracer.uninstall()
    assert (code, error) == (0, None)
    assert (nfabisim.bisim.compose, nfabisim.cli._GREATEST["fb"]) == originals
    stats = tracer.stats
    assert stats["cli.main"].calls == 1
    assert stats["bisim.forward_bisim_steps"].counts["rounds"] >= 6
    assert stats["relcalc.compose"].counts["left_bits"] > 0
    self_total = sum(s.self_s for s in stats.values())
    assert self_total == pytest.approx(stats["cli.main"].total_s)
    by_id = {span[0]: span for span in tracer.spans}
    for sid, name, start, end, parent, case, ok in tracer.spans:
        assert ok and case == 0
        if parent >= 0:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subset-weak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert not any(line.startswith("{") for line in run.stdout.splitlines())
    assert json.loads((ROOT / "BENCHMARK.json").read_text())["paths"] == ["bench"]
