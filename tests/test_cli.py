import os

import pytest

from nfabisim import equivalence
from nfabisim.automaton import bounded_language, random_nfa
from nfabisim.cli import (
    ParseError,
    format_dfa,
    format_nfa,
    format_rel,
    main,
    parse_nfa,
    parse_rel,
)
from nfabisim.nerode import nerode

from goldens import FWD_PHI2, GOLDEN_AUTOMATA

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


def test_cmd_equiv_lang(capsys):
    code = main([
        "equiv", "--mode", "lang", "--maxlen", "4",
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
    assert set(bounded_language(reduced, 6)) == set(bounded_language(original, 6))


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


def test_cmd_gen_bad_density(capsys):
    code = main(["gen", "--states", "3", "--density", "2.0"])
    capsys.readouterr()
    assert code == 2


def test_cmd_selftest(capsys):
    code = main(["selftest", "--states", "3", "--seed", "2", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 trials passed" in out


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


def test_internal_failure_exits_3(monkeypatch, capsys):
    # A failed self-check is neither a negative verdict (1) nor bad input (2).
    def disagree(a, b):
        raise AssertionError("decision paths disagree: greatest-relation=True, "
                             "factor-isomorphism=False")

    monkeypatch.setattr(equivalence, "fb_equivalent", disagree)
    code = main(["equiv", "--mode", "fb", data("fwd_a.nfa"), data("fwd_b.nfa")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "decision paths disagree" in captured.err
    assert captured.err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--mode", "nonsense", "a", "b"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
