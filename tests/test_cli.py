import glob
import hashlib
import io
import os
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfabisim import automaton, bisim, cli, equivalence, selftest
from nfabisim.automaton import factor, find_isomorphism, random_nfa, reverse
from nfabisim.cli import (
    MAX_STATES,
    ParseError,
    _build_parser,
    format_dfa,
    format_nfa,
    main,
    parse_nfa,
    parse_rel,
)
from nfabisim.nerode import Dfa, nerode, reverse_nerode
from nfabisim.relcalc import BoolRel, BoolVec, Partition

from goldens import FWD_PHI2, GOLDEN_AUTOMATA
from oracles import (
    _pairs,
    format_dfa_oracle,
    format_nfa_oracle,
    language_oracle,
    random_partition,
    transitions_oracle,
)

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
    assert a.n == 1 and a.tau.mask == 0


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


def _rel_text(r):
    return f"{r.rows} {r.cols}\n{r.to_text()}\n"


def test_rel_round_trip_and_errors():
    assert parse_rel(_rel_text(FWD_PHI2)) == FWD_PHI2
    rng = random.Random(13)
    for cols in (1, 64, 65, 130):
        bits = [[0] * cols, [1] * cols, [rng.randint(0, 1) for _ in range(cols)]]
        rel = BoolRel.from_bits(bits)
        assert parse_rel(_rel_text(rel)) == rel
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


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 64, 65])
def test_format_dfa_matches_the_set_based_printer(n):
    # Empty, full, single-state and random subsets, on both sides of the
    # eighth-of-n density at which the printer switches from set bits to
    # binary digits, in DFAs with more states than the source automaton and
    # with fewer; then the subset constructions of random automata.
    rng = random.Random(n)
    masks = [0, (1 << n) - 1, *(1 << i for i in range(n))]
    masks = list(dict.fromkeys(masks + [rng.getrandbits(n) for _ in range(n)]))
    dfas = []
    for m in (len(masks), max(1, n // 2)):
        dfas.append(Dfa(
            m, ("x", "y"),
            [[rng.randrange(m), rng.randrange(m)] for _ in range(m)],
            rng.randrange(m),
            [rng.random() < 0.5 for _ in range(m)],
            [BoolVec(n, mask) for mask in masks[:m]],
        ))
    a = random_nfa(n, ("x", "y", "z"), min(0.4, 3 / n), rng.randrange(1 << 30))
    dfas += [nerode(a), reverse_nerode(a)]
    for d in dfas:
        assert format_dfa(d) == format_dfa_oracle(d)


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


@pytest.mark.parametrize("kind", sorted(cli._GREATEST))
def test_greatest_relations_reject_another_alphabet(tmp_path, capsys, kind):
    paths = []
    for x in ("x", "y"):
        path = tmp_path / f"{x}.nfa"
        path.write_text(f"states 2\nalphabet {x}\ninitial 0\nterminal 1\n{x}: 0->1\n")
        paths.append(str(path))
    assert main(["bisim", "--kind", kind, *paths]) == 2
    assert capsys.readouterr().err == "error: alphabet mismatch: ['x'] vs ['y']\n"


def _sparse_text(rng, n, perm, shuffle):
    """A random automaton with two successors per state and symbol, its
    states renamed by perm, as text: transitions sorted, or shuffled."""
    lines = [f"states {n}", "alphabet a b", f"initial {perm[0]}",
             f"terminal {perm[n - 1]} {perm[n // 2]}"]
    for x in ("a", "b"):
        edges = [(perm[i], perm[j]) for i in range(n)
                 for j in sorted({(i + 1) % n, rng.randrange(n)})]
        if shuffle:
            rng.shuffle(edges)
        else:
            edges.sort()
        lines.append(f"{x}:" + "".join(f" {i}->{j}" for i, j in edges))
    return "\n".join(lines) + "\n"


def _index_builds(monkeypatch):
    """The relations ``automaton._index_lists`` turns into index lists from
    now on."""
    built = []
    original = automaton._index_lists

    def counting(rel):
        built.append(rel)
        return original(rel)

    monkeypatch.setattr(automaton, "_index_lists", counting)
    return built


@pytest.mark.parametrize("shuffle", [False, True])
def test_equiv_fb_reads_each_automatons_edges_once(tmp_path, monkeypatch, capsys, shuffle):
    # Route 1 refines over A+B, each self-equivalence over A or B alone, and
    # route 2 over the sum of the factors, which on reduced inputs are A and
    # B themselves.  Every one of them reads the indices the parser filled,
    # or the two joined, so no index is built from masks.
    n = 60
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    paths = []
    for name, labels in (("a", range(n)), ("b", perm)):
        path = tmp_path / f"{name}.nfa"
        path.write_text(_sparse_text(random.Random(0), n, labels, shuffle))
        paths.append(str(path))
    a = parse_nfa(open(paths[0]).read())
    assert bisim.greatest_fb_equivalence(a).num_classes == n
    built = _index_builds(monkeypatch)
    assert main(["equiv", "--mode", "fb", *paths]) == 0
    assert capsys.readouterr().out.startswith("EQUIVALENT")
    assert built == []


def test_equiv_fb_builds_a_factors_index_once_per_symbol(tmp_path, monkeypatch, capsys):
    # Copies of one ring collapse, so route 2 matches factors the parser
    # never saw: each factor gets its index from the quotient's pass over
    # the parsed edges, and their sum joins the two, so no index is built
    # from masks.
    ring = "".join(f" {i}->{(i + 1) % 4} {4 + i}->{4 + (i + 1) % 4}" for i in range(4))
    path = tmp_path / "rings.nfa"
    path.write_text(f"states 8\nalphabet a\ninitial 0 4\nterminal 0 4\na:{ring}\n")
    built = _index_builds(monkeypatch)
    assert main(["equiv", "--mode", "fb", str(path), str(path)]) == 0
    capsys.readouterr()
    assert built == []


def test_format_nfa_prints_every_index_as_its_edges_read():
    # Indices of every origin: built from masks (random_nfa), filled by the
    # parser from shuffled lines with a repeated edge, by the reversal and
    # by the quotient.
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 12)
        alphabet = ("x", "y", "zz")[:rng.randint(1, 3)]
        a = random_nfa(n, alphabet, rng.choice((0.0, 0.2, 0.5, 1.0)),
                       rng.randrange(1 << 30))
        lines = format_nfa_oracle(a).splitlines()
        for k in range(4, len(lines)):
            head, _, rest = lines[k].partition(":")
            edges = rest.split()
            rng.shuffle(edges)
            lines[k] = f"{head}: " + " ".join(edges + edges[:1])
        parsed = parse_nfa("\n".join(lines) + "\n")
        e = random_partition(rng, n, rng.randint(1, n))
        for c in (a, parsed, reverse(parsed), factor(parsed, e), reverse(factor(a, e))):
            assert format_nfa(c) == format_nfa_oracle(c)


def _subset_searches(monkeypatch):
    """The state counts of the automata ``nerode._subsets`` searches from
    now on.  The package binds ``nfabisim.nerode`` to the function, so the
    module is reached through ``sys.modules``."""
    module = sys.modules["nfabisim.nerode"]
    searched = []
    original = module._subsets

    def counting(a, b=None):
        searched.append(a.n + (b.n if b else 0))
        return original(a, b)

    monkeypatch.setattr(module, "_subsets", counting)
    return searched


@pytest.mark.parametrize("left, right, code, searched, out", [
    # The reversed sum of A and B, each reversal, and the reversed sum of
    # the factors.  Each check reads the vectors that the greatest relation
    # or the matcher kept with the left automaton.
    ("weak_a", "weak_b", 0, [6, 4, 2, 4], "EQUIVALENT\n10\n10\n01\n10\n"),
    # fwd_a is its own factor: the factors' search replaces the inputs'
    # search that A keeps, which the relation's check has read by then.
    ("fwd_a", "fwd_b", 0, [8, 3, 5, 6], "EQUIVALENT\n11000\n00010\n00101\n"),
    # A negative verdict runs no check, and here the factors' signatures
    # differ, so the matching is never checked against the definition.
    ("weak_a", "weak_a_mod", 1, [8, 4, 4, 4], "NOT-EQUIVALENT\n"),
], ids=["weak", "fwd", "negative"])
def test_equiv_wfb_searches_each_automaton_once(monkeypatch, capsys, left, right,
                                                code, searched, out):
    counted = _subset_searches(monkeypatch)
    argv = ["equiv", "--mode", "wfb", data(f"{left}.nfa"), data(f"{right}.nfa")]
    assert main(argv) == code
    assert capsys.readouterr().out == out
    assert counted == searched


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


def _reduce_by_fixpoint(a, mode):
    # The reductions as the paper states them: factor by the classes of the
    # greatest fb (bb) of the automaton against itself.
    classes = {
        "fb": lambda c: Partition.from_relation(bisim.greatest_forward_bisim(c, c).relation),
        "bb": lambda c: Partition.from_relation(bisim.greatest_backward_bisim(c, c).relation),
    }
    while True:
        before = a.n
        for step in ("fb", "bb") if mode == "alternate" else (mode,):
            a = factor(a, classes[step](a))
        if mode != "alternate" or a.n == before:
            return a


def test_cmd_reduce_runs_no_fixpoint(tmp_path, monkeypatch, capsys):
    # The fb and bb equivalences refine to stability: no reduction step runs
    # the paper's rounds or reads a partition off a relation, and each prints
    # what factoring by the fixpoint's classes prints.
    chain = tmp_path / "chain.nfa"
    chain.write_text(
        "states 64\nalphabet a b\ninitial 0\nterminal 63\na:"
        + "".join(f" {q}->{q + 1}" for q in range(63))
        + "\nb:" + "".join(f" {q}->{q}" for q in range(64)) + "\n"
    )
    # One fb and one bb step leave 3 of these 6 states; a second pass
    # leaves 2.
    twice = tmp_path / "twice.nfa"
    twice.write_text(
        "states 6\nalphabet x\ninitial 3\nterminal 2 3\n"
        "x: 0->2 0->3 2->2 2->4 3->3 4->0 5->2 5->5\n"
    )
    paths = sorted(glob.glob(os.path.join(DATA, "*.nfa"))) + [str(chain), str(twice)]
    modes = ("fb", "bb", "alternate")
    expected = {
        (path, mode): format_nfa(_reduce_by_fixpoint(parse_nfa(open(path).read()), mode))
        for path in paths for mode in modes
    }

    def fixpoint(*args):
        raise AssertionError("a reduction ran the fixpoint")

    monkeypatch.setattr(bisim, "forward_bisim_steps", fixpoint)
    monkeypatch.setattr(Partition, "from_relation", classmethod(fixpoint))
    for path in paths:
        for mode in modes:
            assert main(["reduce", "--mode", mode, path]) == 0
            assert capsys.readouterr().out == expected[path, mode]
    assert expected[str(chain), "alternate"].startswith("states 64\n")
    assert expected[str(twice), "alternate"].startswith("states 2\n")


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


# sha256 of each command's stdout.  The draws of ``random_nfa`` and their
# order are part of what ``gen`` and ``selftest`` print for a seed, so a
# change to how it draws must keep these bytes.
_PINNED = [
    (["gen", "--states", "4", "--seed", "1"],
     "2e080a1f9300eb96289e4568c058d5da6650909428327cf84a0c6e740219f71d"),
    (["gen", "--states", "9", "--seed", "7", "--density", "0.3", "--alphabet", "a,b,c"],
     "4dd81d8894cb08bb5f24b59e2aa8124713711150b212e14a9e449f8d2523dfdc"),
    (["gen", "--states", "40", "--seed", "12345", "--density", "1.0", "--alphabet", "x"],
     "6a48c605000f70a48465e93fe9b76265a4bcfb18e484c50e0ac8678e4b5d7347"),
    (["gen", "--states", "200", "--seed", "3", "--density", "0.05"],
     "f65fd08d4e8fc7dc9a6a3a441b4c95226f7157547f3404f7fcbe6e52736e4a33"),
    (["selftest", "--states", "5", "--seed", "2", "--trials", "20"],
     "d8856503340980dcf18bae01d43cc827b0786c0b2aab31844477ddee4741ba4b"),
]


@pytest.mark.parametrize("argv, digest", _PINNED, ids=[" ".join(a) for a, _ in _PINNED])
def test_gen_and_selftest_print_the_pinned_bytes(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("n", [MAX_STATES + 1, 10**9])
def test_cmd_selftest_over_the_state_limit_exits_2(capsys, n):
    # Rejected before random_nfa draws its n x n bits per symbol.
    code = main(["selftest", "--states", str(n), "--trials", "1"])
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
        selftest, "reduce", lambda a, mode: factor(a, Partition([0] * a.n))
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
        return bisim.BisimReport(
            exact.kind, BoolRel(a.n, b.n, masks), exact.iterations, exact.failure, exact.flags
        )

    monkeypatch.setattr(selftest, "greatest_weak_forward_sim", dropped)
    monkeypatch.setattr(selftest, "reachable_terminal_pairs", lambda a, b: pairs[:-1])
    selftest._check_weak_sim(a, b, problems)
    assert problems == [
        "reachable terminal pairs disagree with their closure",
        "weak simulation disagrees with the vector-pair oracle",
    ]


def test_selftest_holds_the_equivalences_to_the_fixpoint(monkeypatch):
    # fwd_b has fb- and bb-equivalent states.  An fb equivalence that merges
    # none of them and a bb equivalence that merges every state each make
    # one problem, and in a run each failing trial prints one line.
    a = GOLDEN_AUTOMATA["fwd_b"]
    problems = []
    selftest._check_equivalences(a, problems)
    assert problems == []
    with monkeypatch.context() as m:
        m.setattr(selftest, "greatest_fb_equivalence", lambda a: Partition(range(a.n)))
        m.setattr(selftest, "greatest_bb_equivalence", lambda a: Partition([0] * a.n))
        selftest._check_equivalences(a, problems)
    assert problems == [
        "greatest fb equivalence disagrees with the fixpoint",
        "greatest bb equivalence disagrees with the fixpoint",
    ]
    monkeypatch.setattr(selftest, "greatest_bb_equivalence", lambda a: Partition([0] * a.n))
    out = io.StringIO()
    assert selftest.run(max_states=3, seed=0, trials=2, out=out) == 1
    assert out.getvalue() == (
        "trial   0: FAIL greatest bb equivalence disagrees with the fixpoint\n"
        "trial   1: FAIL greatest bb equivalence disagrees with the fixpoint\n"
        "selftest: 0/2 trials passed (seed 0, max states 3)\n"
    )


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
        return bisim.BisimReport(
            exact.kind, BoolRel(a.n, b.n, masks), exact.iterations, exact.failure, exact.flags
        )

    monkeypatch.setattr(selftest, "greatest_backward_bisim", dropped)
    selftest._check_definitions(a, a, problems)
    assert problems == ["accepted bb relation fails its definition"]


def test_selftest_holds_bfb_and_fbb_to_the_paper_rounds(monkeypatch):
    # A bfb that keeps one pair too few, and an fbb that fails a covering
    # condition the rounds' last relation meets, each make one problem.
    a = GOLDEN_AUTOMATA["fwd_b"]
    problems = []
    selftest._check_rounds(a, a, problems)
    assert problems == []
    exact = selftest.greatest_backward_forward_bisim(a, a)
    masks = list(exact.relation.row_masks)
    masks[0] &= masks[0] - 1

    def dropped(a, b):
        return bisim.BisimReport(exact.kind, BoolRel(a.n, b.n, masks), exact.iterations)

    def failed(a, b):
        return bisim.BisimReport(
            bisim.BisimKind.FORWARD_BACKWARD_BISIM, None, 0, failure=("initial-forward",)
        )

    monkeypatch.setattr(selftest, "greatest_backward_forward_bisim", dropped)
    monkeypatch.setattr(selftest, "greatest_forward_backward_bisim", failed)
    selftest._check_rounds(a, a, problems)
    assert problems == [
        "bfb disagrees with the paper's rounds",
        "fbb disagrees with the paper's rounds",
    ]


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
                  lambda a: Partition([0] * a.n))
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


# Tokens that int() reads as a number but that are not a run of ASCII
# decimal digits: a sign, an underscore between digits, Arabic-Indic digits.
_NOT_DECIMAL = ["+0", "-0", "0_2", "١", "٢"]


@pytest.mark.parametrize("token", _NOT_DECIMAL)
@pytest.mark.parametrize("place", ["initial", "terminal", "source", "target"])
def test_state_index_must_be_ascii_decimal_digits(tmp_path, capsys, place, token):
    tokens = {"initial": "0", "terminal": "2", "source": "0", "target": "1"}
    tokens[place] = token
    bad = tmp_path / "bad.nfa"
    bad.write_text(
        f"states 3\nalphabet a\ninitial {tokens['initial']}\n"
        f"terminal {tokens['terminal']}\n"
        f"a: {tokens['source']}->{tokens['target']} 1->2\n",
        encoding="utf-8",
    )
    assert main(["reduce", "--mode", "fb", str(bad)]) == 2
    err = capsys.readouterr().err
    line = 3 if place == "initial" else 4 if place == "terminal" else 5
    assert f"bad.nfa:{line}: expected a state index, got {token!r}" in err


def test_state_indices_with_signs_underscores_and_other_digits_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text(
        "states 3\nalphabet a\ninitial +0\nterminal 0_2\na: 0->1 ١->2 -0->0\n",
        encoding="utf-8",
    )
    assert main(["bisim", "--kind", "fb", str(bad), str(bad)]) == 2
    assert "expected a state index, got '+0'" in capsys.readouterr().err
    # Leading zeros are still decimal digits.
    assert parse_nfa("states 3\nalphabet a\ninitial 00\nterminal 02\na: 01->002\n") == (
        parse_nfa("states 3\nalphabet a\ninitial 0\nterminal 2\na: 1->2\n")
    )


@pytest.mark.parametrize("token", _NOT_DECIMAL + ["٣"])
def test_state_count_must_be_ascii_decimal_digits(tmp_path, capsys, token):
    bad = tmp_path / "bad.nfa"
    bad.write_text(f"states {token}\nalphabet a\ninitial 0\nterminal\n", encoding="utf-8")
    assert main(["reduce", "--mode", "fb", str(bad)]) == 2
    assert f"bad.nfa:1: bad state count {token!r}" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["+3 5", "3 0_5", "٣ 5", "3 -5", "-0 5"])
def test_relation_header_must_be_ascii_decimal_digits(tmp_path, capsys, header):
    rel = tmp_path / "bad.rel"
    rel.write_text(f"{header}\n" + "00000\n" * 3, encoding="utf-8")
    code = main(["check", "--kind", "fb", "--relation", str(rel),
                 data("fwd_a.nfa"), data("fwd_b.nfa")])
    assert code == 2
    assert f"bad.rel:1: bad header {header!r}" in capsys.readouterr().err


# More digits than int() converts from text by default (4300), so the
# conversion itself fails; that still names the file and the line.
_LONG = "9" * 5000


def test_over_long_numbers_are_parse_errors(tmp_path, capsys):
    nfa = "states 3\nalphabet a\ninitial {}\nterminal\na: 0->1\n"
    for text, message in [
        (nfa.format(0).replace("states 3", f"states {_LONG}"),
         f"bad.nfa:1: bad state count {_LONG!r}"),
        (nfa.format(_LONG), f"bad.nfa:3: expected a state index, got {_LONG!r}"),
        (nfa.format(0).replace("0->1", f"{_LONG}->1"),
         f"bad.nfa:5: expected a state index, got {_LONG!r}"),
    ]:
        bad = tmp_path / "bad.nfa"
        bad.write_text(text, encoding="utf-8")
        assert main(["reduce", "--mode", "fb", str(bad)]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(ParseError):
            parse_nfa(text)
    rel = tmp_path / "bad.rel"
    rel.write_text(f"{_LONG} 5\n" + "00000\n" * 3, encoding="utf-8")
    code = main(["check", "--kind", "fb", "--relation", str(rel),
                 data("fwd_a.nfa"), data("fwd_b.nfa")])
    assert code == 2
    assert f"bad.rel:1: bad header {_LONG + ' 5'!r}" in capsys.readouterr().err
    with pytest.raises(ParseError):
        parse_rel(f"3 {_LONG}\n000\n000\n000\n")


# Malformed transition lines, each with the message of its first bad token.
_BAD_TRANSITIONS = [
    ("1->->2", "expected a state index, got '->2'"),
    ("->5", "expected a state index, got ''"),
    ("1->", "expected a state index, got ''"),
    ("5->", "state index 5 out of range for 5 states"),
    ("12 3->4->5", "bad transition '12', expected src->dst"),
    ("+1->2", "expected a state index, got '+1'"),
    ("0_2->1", "expected a state index, got '0_2'"),
    ("١->0", "expected a state index, got '١'"),
    ("0->1 2->9", "state index 9 out of range for 5 states"),
    ("0->1 005->0", "state index 5 out of range for 5 states"),
    (f"0->1 {_LONG}->1", f"expected a state index, got {_LONG!r}"),
    ("0->1 1->2 bad", "bad transition 'bad', expected src->dst"),
    ("0->1\u2003->2", "expected a state index, got ''"),
    ("0->1->", "expected a state index, got '1->'"),
]


@pytest.mark.parametrize("line, message", _BAD_TRANSITIONS)
def test_malformed_transition_lines_raise_the_first_bad_tokens_error(
    tmp_path, capsys, line, message
):
    text = f"states 5\nalphabet x y\ninitial 0\nterminal 4\ny: 0->0\nx: {line}\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text, "t.nfa")
    assert str(err.value) == f"t.nfa:6: {message}"
    bad = tmp_path / "bad.nfa"
    bad.write_text(text, encoding="utf-8")
    assert main(["reduce", "--mode", "fb", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:6: {message}\n"


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_bytes_that_are_not_utf8_name_their_file_and_line(tmp_path, capsys, newline):
    # A stray 0xff byte in a comment on line 6 of an automaton, and a cut
    # three-byte character on line 3 of a relation.
    lines = [b"states 2", b"alphabet x", b"initial 0", b"terminal 1", b"x: 0->1",
             b"# stray \xff byte"]
    bad = tmp_path / "bad.nfa"
    bad.write_bytes(newline.join(lines) + newline)
    assert main(["reduce", "--mode", "fb", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}:6: not UTF-8 text: byte 0xff, invalid start byte\n"
    rel = tmp_path / "bad.rel"
    rel.write_bytes(newline.join([b"2 2", b"10", b"0\xe2\x801"]) + newline)
    good = tmp_path / "good.nfa"
    good.write_bytes(newline.join(lines[:-1]) + newline)
    assert main(["check", "--kind", "fb", "--relation", str(rel), str(good), str(good)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {rel}:3: not UTF-8 text: byte 0xe2, invalid continuation byte\n"
    )


@pytest.mark.parametrize("line, edges", [
    ("007->1 1->0", {(7, 1), (1, 0)}),
    ("0->1\t2->3 \t 4->5", {(0, 1), (2, 3), (4, 5)}),
    ("0->1\u20032->3\u2003", {(0, 1), (2, 3)}),
    ("3->1 0->2 3->1 0->2 0->1", {(0, 1), (0, 2), (3, 1)}),
    ("", set()),
])
def test_odd_but_valid_transition_lines(line, edges):
    a = parse_nfa(f"states 8\nalphabet x\ninitial 0\nterminal\nx: {line}\n")
    assert _pairs(a.delta["x"]) == edges
    assert a._succ == [automaton._index_lists(a.delta["x"])]


# Transition lines: well-formed tokens, leading zeros and all, and junk of
# token pieces and of any character that neither starts a comment nor ends a
# line, separated by whitespace that ``str.split`` splits at.  Small indices
# come twice as often, so most well-formed lines are in range.
_END = st.sampled_from(["0", "1", "2", "0", "1", "2", "3", "007", "12"])
_EDGE = st.builds("{}->{}".format, _END, _END)
_JUNK = st.lists(
    st.sampled_from(["0", "1", "->", "-", ">", "+", "_", "١", ":"])
    | st.characters().filter(lambda c: c != "#" and len(f"a{c}a".splitlines()) == 1),
    min_size=1, max_size=4,
).map("".join)
_SPACE = st.lists(
    st.sampled_from([" ", "\t", "\u2003", "\xa0", "\x1f"]), min_size=1, max_size=2
).map("".join)


@st.composite
def _transition_lines(draw):
    line = draw(st.just("") | _SPACE)
    tokens = st.integers(0, 7).flatmap(lambda k: _JUNK if k == 0 else _EDGE)
    for token in draw(st.lists(tokens, max_size=6)):
        line += token + draw(_SPACE)
    return line


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_transition_lines(), st.sampled_from([13, 8, 4, 2]))
def test_transition_lines_read_as_the_per_token_reference_reads_them(line, n):
    text = f"states {n}\nalphabet x y\ninitial 0\nterminal\ny: 0->0\nx: {line}\n"
    expected = transitions_oracle(line, n)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            parse_nfa(text, "t.nfa")
        assert str(err.value) == f"t.nfa:6: {expected}"
    else:
        a = parse_nfa(text)
        assert _pairs(a.delta["x"]) == expected
        assert a._succ == [automaton._index_lists(a.delta[x]) for x in a.alphabet]


def test_re_whitespace_is_exactly_str_isspace():
    # The bulk check of a transition line matches whitespace with ``\s`` and
    # then splits the line with ``str.split``.
    space = re.compile(r"\s")
    chars = list(map(chr, range(0x110000)))
    assert [c for c in chars if space.match(c)] == [c for c in chars if c.isspace()]


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


def test_fixpoint_that_is_no_equivalence_exits_3(monkeypatch, capsys):
    # A greatest fb of an automaton with itself is an equivalence; when the
    # fixpoint that route 2 of the fb decider reads its classes from is not,
    # the program is at fault, not the input.  Identity plus the pair (0, 1)
    # covers every initial state but is not symmetric.
    def skewed(a, b):
        return [BoolRel(a.n, a.n, [0b11] + [1 << i for i in range(1, a.n)])]

    monkeypatch.setattr(bisim, "forward_bisim_steps", skewed)
    code = main(["equiv", "--mode", "fb", data("fwd_b.nfa"), data("fwd_b.nfa")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: AssertionError('self-bisimulation fixpoint: "
        "relation is not symmetric')\n"
    )


def test_unreduced_fb_factors_exit_3(monkeypatch, capsys):
    # fwd_b has fb-equivalent states.  With route 2's classes replaced by
    # the discrete partition, route 2 matches fwd_b itself against a copy,
    # and a colour holds two of its states: the program is at fault, not
    # the input.
    assert equivalence._fixpoint_fb_classes(GOLDEN_AUTOMATA["fwd_b"]).num_classes < 5
    monkeypatch.setattr(
        equivalence, "_fixpoint_fb_classes", lambda a: Partition(range(a.n))
    )
    code = main(["equiv", "--mode", "fb", data("fwd_b.nfa"), data("fwd_b.nfa")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: AssertionError('a colour holds two states of one side: "
        "an automaton is not fb-reduced')\n"
    )


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
