import dataclasses
import io
import os
import random

import pytest

from nfabisim import automaton, cli, equivalence, selftest
from nfabisim.automaton import factor, find_isomorphism, random_nfa
from nfabisim.cli import (
    MAX_STATES,
    ParseError,
    _build_parser,
    format_dfa,
    format_nfa,
    format_rel,
    main,
    parse_nfa,
    parse_rel,
)
from nfabisim.nerode import Dfa, nerode
from nfabisim.relcalc import BoolRel, Partition

from goldens import FWD_PHI2, GOLDEN_AUTOMATA
from oracles import language_oracle

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name):
    return os.path.join(DATA, name)


# --- text formats -----------------------------------------------------------


def test_golden_files_parse_to_expected_automata():
    for name, auto in GOLDEN_AUTOMATA.items():
        with open(data(name + ".nfa")) as fh:
            assert parse_nfa(fh.read(), name) == auto


def test_format_parse_round_trip_is_byte_identical():
    for name in GOLDEN_AUTOMATA:
        with open(data(name + ".nfa")) as fh:
            text = fh.read()
        assert format_nfa(parse_nfa(text)) == text


def test_round_trip_random_automata():
    for seed in range(10):
        a = random_nfa(4, ("x", "y", "zz"), 0.3, seed)
        assert parse_nfa(format_nfa(a)) == a


def test_parse_accepts_comments_and_blank_lines():
    text = "# heading\nstates 1\n\nalphabet x\ninitial 0\nterminal\nx: 0->0\n"
    a = parse_nfa(text)
    assert a.n == 1 and a.tau.is_empty()


def test_parse_error_out_of_range_state():
    text = "states 3\nalphabet x\ninitial 0\nterminal 2\nx: 0->5\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text, "bad.nfa")
    assert err.value.line == 5
    assert "out of range" in err.value.reason


def test_parse_error_duplicate_section():
    text = "states 2\nalphabet x\ninitial 0\nterminal 1\ninitial 1\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text)
    assert err.value.line == 5 and "duplicate" in err.value.reason


def test_parse_error_duplicate_transition_line():
    text = "states 2\nalphabet x\ninitial 0\nterminal 1\nx: 0->1\nx: 1->1\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text)
    assert err.value.line == 6 and "duplicate" in err.value.reason


def test_parse_error_missing_section():
    with pytest.raises(ParseError) as err:
        parse_nfa("states 2\nalphabet x\ninitial 0\n")
    assert "missing section 'terminal'" in err.value.reason


def test_parse_error_unknown_symbol():
    text = "states 2\nalphabet x\ninitial 0\nterminal 1\ny: 0->1\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text)
    assert err.value.line == 5 and "unknown symbol" in err.value.reason


def test_parse_error_malformed_transition():
    text = "states 2\nalphabet x\ninitial 0\nterminal 1\nx: 0-1\n"
    with pytest.raises(ParseError, match="src->dst"):
        parse_nfa(text)


def test_rel_round_trip_and_errors():
    assert parse_rel(format_rel(FWD_PHI2)) == FWD_PHI2
    rng = random.Random(13)
    for cols in (1, 64, 65, 130):
        bits = [[0] * cols, [1] * cols, [rng.randint(0, 1) for _ in range(cols)]]
        rel = BoolRel.from_bits(bits)
        assert parse_rel(format_rel(rel)) == rel
    with pytest.raises(ParseError, match="header"):
        parse_rel("")
    with pytest.raises(ParseError, match="rows"):
        parse_rel("2 3\n000\n")
    with pytest.raises(ParseError) as err:
        parse_rel("2 3\n000\n0x0\n")
    assert err.value.line == 3


def test_format_dfa_parses_back_and_annotates():
    text = format_dfa(nerode(GOLDEN_AUTOMATA["lang_a"]))
    assert "# subset: 0 = 1" in text
    assert "# subset: 2 = (empty)" in text
    parsed = parse_nfa(text)
    assert parsed.n == 3


# --- subcommands ------------------------------------------------------------


def test_cmd_bisim_success(capsys):
    code = main(["bisim", "--kind", "fb", data("fwd_a.nfa"), data("fwd_b.nfa")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "11000\n00010\n00101\n"


def test_cmd_bisim_failure(capsys):
    code = main(["bisim", "--kind", "fb", data("hetero_a.nfa"), data("hetero_b.nfa")])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "NONE"
    assert "violated: initial-forward" in out
    assert "violated: initial-backward" in out


def test_cmd_bisim_self_always_exists(capsys):
    code = main(["bisim", "--kind", "fb", data("weak_a.nfa"), data("weak_a.nfa")])
    capsys.readouterr()
    assert code == 0


def test_cmd_check_pass_and_fail(capsys):
    code = main([
        "check", "--kind", "fb", "--relation", data("fwd_phi2.rel"),
        data("fwd_a.nfa"), data("fwd_b.nfa"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("OK")
    assert "PASS initial-forward" in out

    code = main([
        "check", "--kind", "fb", "--relation", data("fwd_phi1.rel"),
        data("fwd_a.nfa"), data("fwd_b.nfa"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and out.strip().endswith("VIOLATED")


def test_cmd_check_condition_order_is_pinned(capsys):
    # Every kind, both relations: the PASS/FAIL lines must keep their names,
    # their order and their truth values byte for byte.
    out = [
        "# nfabisim check --kind K --relation fwd_phiR.rel fwd_a.nfa "
        "fwd_b.nfa: stdout and exit code"
    ]
    for rel in ("fwd_phi1", "fwd_phi2"):
        for kind in ("fs", "bs", "fb", "bb", "bfb", "fbb", "wfs", "wbs", "wfb", "wbb"):
            code = main([
                "check", "--kind", kind, "--relation", data(rel + ".rel"),
                data("fwd_a.nfa"), data("fwd_b.nfa"),
            ])
            out.append(f"== {kind} {rel}")
            out.append(capsys.readouterr().out + f"exit {code}")
    with open(data("check_order.golden")) as fh:
        assert "\n".join(out) + "\n" == fh.read()


def test_cmd_check_weak_kind(tmp_path, capsys):
    rel = tmp_path / "mu.rel"
    rel.write_text("4 2\n10\n10\n01\n10\n")
    code = main([
        "check", "--kind", "wfb", "--relation", str(rel),
        data("weak_a.nfa"), data("weak_b.nfa"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS weak-terminal" in out


def test_cmd_equiv_fb(capsys):
    code = main(["equiv", "--mode", "fb", data("lang_a.nfa"), data("lang_b.nfa")])
    assert code == 1
    assert capsys.readouterr().out.startswith("NOT-EQUIVALENT")

    code = main(["equiv", "--mode", "fb", data("fwd_a.nfa"), data("fwd_b.nfa")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("EQUIVALENT")
    assert "11000" in out  # witness relation is printed


def test_cmd_equiv_lang_is_exact_beyond_short_words(tmp_path, capsys):
    # x^7 is the only word the chain accepts; the empty automaton accepts
    # none, so no bound on the word length may call them equivalent.
    chain = tmp_path / "chain.nfa"
    chain.write_text(
        "states 8\nalphabet x\ninitial 0\nterminal 7\nx:"
        + "".join(f" {q}->{q + 1}" for q in range(7)) + "\n"
    )
    empty = tmp_path / "empty.nfa"
    empty.write_text("states 1\nalphabet x\ninitial\nterminal\n")
    code = main(["equiv", "--mode", "lang", str(chain), str(empty)])
    assert code == 1
    assert capsys.readouterr().out == "NOT-EQUIVALENT\nwitness: x x x x x x x\n"


def test_cmd_equiv_lang(capsys):
    code = main([
        "equiv", "--mode", "lang",
        data("lang_a.nfa"), data("lang_b.nfa"),
    ])
    assert code == 0
    assert capsys.readouterr().out == "EQUIVALENT\n"

    code = main([
        "equiv", "--mode", "lang", data("weak_a.nfa"), data("weak_a_mod.nfa"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness: eps" in out


def test_cmd_equiv_wfb(capsys):
    code = main(["equiv", "--mode", "wfb", data("weak_a.nfa"), data("weak_b.nfa")])
    capsys.readouterr()
    assert code == 0
    code = main([
        "equiv", "--mode", "wfb", data("weak_a_mod.nfa"), data("weak_b_mod.nfa"),
    ])
    capsys.readouterr()
    assert code == 1


def test_cmd_reduce(capsys):
    code = main(["reduce", "--mode", "fb", data("fwd_b.nfa")])
    out = capsys.readouterr().out
    assert code == 0
    reduced = parse_nfa(out)
    assert reduced.n == 3
    original = GOLDEN_AUTOMATA["fwd_b"]
    assert language_oracle(reduced, 6) == language_oracle(original, 6)


def test_cmd_determinize(capsys):
    code = main(["determinize", data("lang_a.nfa")])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_nfa(out).n == 3
    assert "# subset:" in out

    code = main(["determinize", "--reverse", data("weak_a.nfa")])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_nfa(out).n == 2


def test_cmd_gen_deterministic(capsys):
    argv = ["gen", "--states", "4", "--alphabet", "x,y", "--density", "0.4",
            "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    parse_nfa(first)


def test_main_repeats_in_one_process_after_an_argparse_error(capsys):
    # The parser is built once per process; each call, also the one right
    # after an argparse error, gives the exit code and stdout of a call on a
    # freshly built parser.
    calls = [
        ["equiv", "--mode", "fb", data("fwd_a.nfa"), data("fwd_b.nfa")],
        ["equiv", "--mode", "nope", data("fwd_a.nfa"), data("fwd_b.nfa")],
        ["reduce", "--mode", "fb", data("fwd_b.nfa")],
        ["bisim", "--kind", "fb", data("hetero_a.nfa")],
        ["bisim", "--kind", "fb", data("hetero_a.nfa"), data("hetero_b.nfa")],
    ]

    def run(argv, fresh=False):
        if fresh:
            _build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    first = [run(argv, fresh=True) for argv in calls]
    assert [code for code, _ in first] == [0, 2, 0, 2, 1]
    for _ in range(2):
        for argv, expected in zip(calls, first):
            assert run(argv) == expected


def test_cmd_gen_bad_density(capsys):
    code = main(["gen", "--states", "3", "--density", "2.0"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--states", "3", "--alphabet", ","],
         "alphabet must list at least one symbol"),
        (["--states", "3", "--density", "2.0"],
         "density must lie in [0, 1], got 2.0"),
        (["--states", "0"], "automaton needs at least one state"),
        # Symbols the automaton format cannot read back.
        (["--states", "3", "--alphabet", "x:y"], "symbol 'x:y' may not contain ':'"),
        (["--states", "3", "--alphabet", "x#"], "symbol 'x#' may not contain '#'"),
        (["--states", "3", "--alphabet", "a b"],
         "symbol 'a b' may not contain whitespace"),
    ],
)
def test_cmd_gen_errors_print_one_line_and_exit_2(capsys, argv, message):
    code = main(["gen"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cmd_gen_output_reads_back(tmp_path, capsys):
    argv = ["gen", "--states", "5", "--alphabet", "a,b->c,é,0", "--seed", "3"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert format_nfa(parse_nfa(text)) == text
    path = tmp_path / "gen.nfa"
    path.write_text(text, encoding="utf-8")
    assert main(["reduce", "--mode", "fb", str(path)]) == 0
    assert parse_nfa(capsys.readouterr().out).alphabet == ("a", "b->c", "é", "0")


@pytest.mark.parametrize("n", [MAX_STATES + 1, 10**9])
def test_cmd_gen_over_the_state_limit_exits_2(capsys, n):
    # Rejected before random_nfa draws its n x n bits per symbol.
    code = main(["gen", "--states", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: state count {n} exceeds the limit of {MAX_STATES}\n"
    )


def test_cmd_selftest(capsys):
    code = main(["selftest", "--states", "3", "--seed", "2", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 trials passed" in out
    code = main(["selftest", "--states", "6", "--seed", "0", "--trials", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "50/50 trials passed" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-1"], "--trials must be at least 1, got -1"),
        (["--states", "0"], "--states must be at least 1, got 0"),
        (["--states", "-3", "--trials", "0"], "--states must be at least 1, got -3"),
    ],
)
def test_cmd_selftest_rejects_counts_below_1(capsys, argv, message):
    code = main(["selftest"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_selftest_reports_broken_constructions(monkeypatch):
    # Final flags flipped, the forward construction passed off as the
    # reverse one, and a reduction that merges every state: the definition
    # checks and the exact language check must each report a failure.
    def flipped(a):
        d = nerode(a)
        return Dfa(d.m, d.alphabet, d.next, d.start, [not f for f in d.final],
                   d.subset_of)

    monkeypatch.setattr(selftest, "nerode", flipped)
    monkeypatch.setattr(selftest, "reverse_nerode", nerode)
    monkeypatch.setattr(
        selftest, "reduce", lambda a, mode: factor(a, Partition.single_class(a.n))
    )
    out = io.StringIO()
    assert selftest.run(max_states=4, seed=0, trials=10, out=out) == 1
    for problem in (
        "forward subset construction breaks its definition",
        "reverse subset construction breaks its definition",
        "fb reduction changed the language",
    ):
        assert problem in out.getvalue()


def test_selftest_weak_check_reaches_deep_pairs(monkeypatch):
    # 20 terminal-vector pairs, more than words of length 8 are sure to
    # reach: the weak check must still catch a relation missing one pair,
    # and a pair list missing one vector pair.
    a = random_nfa(6, ("x", "y"), 0.2, 5)
    b = random_nfa(6, ("x", "y"), 0.2, 1005)
    pairs = selftest.reachable_terminal_pairs(a, b)
    assert len(pairs) > 9
    problems = []
    selftest._check_weak_sim(a, b, problems)
    assert problems == []
    exact = selftest.greatest_weak_forward_sim(a, b)
    masks = list(exact.relation.row_masks)
    i = next(i for i, m in enumerate(masks) if m)
    masks[i] &= masks[i] - 1

    def dropped(a, b):
        return dataclasses.replace(exact, relation=BoolRel(a.n, b.n, masks))

    monkeypatch.setattr(selftest, "greatest_weak_forward_sim", dropped)
    monkeypatch.setattr(selftest, "reachable_terminal_pairs", lambda a, b: pairs[:-1])
    selftest._check_weak_sim(a, b, problems)
    assert problems == [
        "reachable terminal pairs disagree with their closure",
        "weak simulation disagrees with the vector-pair oracle",
    ]


def test_selftest_definition_check_catches_a_dropped_bb_pair(monkeypatch):
    # The greatest bb relation of A against itself relates state 0 to 0 and
    # 3; without (0, 0) it is no bb any more.  With 4 x 4 states the
    # enumeration oracle does not run, so the definition check alone must
    # catch it.
    a = random_nfa(4, ("x", "y"), 0.3, 0)
    problems = []
    selftest._check_definitions(a, a, problems)
    assert problems == []
    exact = selftest.greatest_backward_bisim(a, a)
    masks = list(exact.relation.row_masks)
    assert masks[0] == 0b1001
    masks[0] = 0b1000

    def dropped(a, b):
        return dataclasses.replace(exact, relation=BoolRel(a.n, b.n, masks))

    monkeypatch.setattr(selftest, "greatest_backward_bisim", dropped)
    selftest._check_definitions(a, a, problems)
    assert problems == ["accepted bb relation fails its definition"]


def test_selftest_uniform_cross_checks_catch_failures(monkeypatch):
    # The natural map onto the one-class factor of an automaton with
    # terminal and non-terminal states is no fb and no bfb; a factor
    # isomorphism check that rejects everything makes the characterizations
    # of a uniform fb disagree, which fails the trial with one line.
    a = random_nfa(4, ("x", "y"), 0.3, 0)
    problems = []
    selftest._check_uniform_theorems(a, problems)
    assert problems == []
    with monkeypatch.context() as m:
        m.setattr(selftest, "greatest_fb_equivalence",
                  lambda a: Partition.single_class(a.n))
        selftest._check_uniform_theorems(a, problems)
    assert problems == [
        "natural map onto the fb factor is no fb",
        "natural map onto the fb factor is no bfb",
    ]
    monkeypatch.setattr(equivalence, "is_isomorphism", lambda a, b, phi: False)
    out = io.StringIO()
    assert selftest.run(max_states=3, seed=0, trials=2, out=out) == 1
    assert out.getvalue() == (
        "trial   0: FAIL uniform cross-check: characterizations disagree:"
        " structural=False, direct=True, equalities=True\n"
        "trial   1: FAIL uniform cross-check: characterizations disagree:"
        " structural=False, direct=True, equalities=True\n"
        "selftest: 0/2 trials passed (seed 0, max states 3)\n"
    )


def test_missing_file_exits_2(capsys):
    code = main(["bisim", "--kind", "fb", "no_such.nfa", data("fwd_b.nfa")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text("states 2\nalphabet x\ninitial 9\nterminal\n")
    code = main(["reduce", "--mode", "fb", str(bad)])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_state_count_limit_is_inclusive():
    header = f"states {MAX_STATES}\nalphabet x\ninitial 0\nterminal\n"
    assert parse_nfa(header).n == MAX_STATES


@pytest.mark.parametrize("n", [MAX_STATES + 1, 10**9])
def test_state_count_over_the_limit_exits_2(tmp_path, capsys, n):
    # Rejected on the header alone: nothing is sized by n before the check.
    bad = tmp_path / "big.nfa"
    bad.write_text(f"states {n}\nalphabet x\ninitial 0\nterminal\n")
    code = main(["determinize", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}:1: state count {n} exceeds the limit of {MAX_STATES}\n"
    )


def test_internal_failure_exits_3(monkeypatch, capsys):
    # A failed self-check is neither a negative verdict (1) nor bad input (2).
    def disagree(a, b):
        raise AssertionError("decision paths disagree: greatest-relation=True, "
                             "factor-isomorphism=False")

    monkeypatch.setitem(cli._EQUIV, "fb", disagree)
    code = main(["equiv", "--mode", "fb", data("fwd_a.nfa"), data("fwd_b.nfa")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "decision paths disagree" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("mode, module, name, pair", [
    ("fb", automaton, "is_isomorphism", ("fwd_a", "fwd_b")),
    ("wfb", equivalence, "is_weak_forward_isomorphism", ("weak_a", "weak_b")),
], ids=["fb", "wfb"])
def test_matcher_with_failing_definition_check_exits_3(
    monkeypatch, capsys, mode, module, name, pair
):
    # Each matcher checks the mapping it returns against the definition, and
    # the deciders rely on that check alone: when it fails on an equivalent
    # pair, the decider raises and the command is an internal failure.
    monkeypatch.setattr(module, name, lambda a, b, phi: False)
    decide = getattr(equivalence, f"{mode}_equivalent")
    with pytest.raises(AssertionError, match="produced an invalid mapping"):
        decide(*(GOLDEN_AUTOMATA[name] for name in pair))
    code = main(["equiv", "--mode", mode, *(data(name + ".nfa") for name in pair)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: AssertionError(")
    assert "produced an invalid mapping" in captured.err


@pytest.mark.parametrize("left, right", [
    ("states 1\nalphabet x\ninitial 0\nterminal 0\n",
     "states 1\nalphabet x\ninitial 0\nterminal\n"),
    ("states 2\nalphabet x\ninitial 0\nterminal 0\n",
     "states 2\nalphabet x\ninitial 1\nterminal 0\n"),
], ids=["one-state", "two-states"])
def test_equiv_fb_rejects_uneven_colours_that_no_round_splits(tmp_path, capsys, left, right):
    # Each side is its own fb factor, and no refinement round splits a
    # colour, so only the colour count before the first round tells them
    # apart.
    a, b = tmp_path / "a.nfa", tmp_path / "b.nfa"
    a.write_text(left)
    b.write_text(right)
    assert find_isomorphism(parse_nfa(left), parse_nfa(right)) is None
    code = main(["equiv", "--mode", "fb", str(a), str(b)])
    assert code == 1
    assert capsys.readouterr().out == "NOT-EQUIVALENT\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--mode", "nonsense", "a", "b"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
