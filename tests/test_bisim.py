import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfabisim import bisim
from nfabisim.automaton import Nfa, random_nfa, reverse
from nfabisim.bisim import (
    BisimKind,
    BisimReport,
    backward_forward_bisim_steps,
    check,
    forward_bisim_steps,
    greatest_backward_bisim,
    greatest_backward_forward_bisim,
    greatest_bb_equivalence,
    greatest_fb_equivalence,
    greatest_forward_backward_bisim,
    greatest_forward_bisim,
    greatest_weak_backward_bisim,
    greatest_weak_forward_bisim,
    greatest_weak_forward_sim,
    reachable_terminal_pairs,
    wbb_equivalence_bound,
    wfb_equivalence_bound,
)
from nfabisim.cli import format_nfa, parse_nfa
from nfabisim.relcalc import (
    BoolRel,
    Partition,
    compose,
    inverse,
    is_partial_uniform,
    subset_of,
    union,
)
from nfabisim.selftest import enumerate_greatest

from goldens import (
    FWD_A,
    FWD_B,
    FWD_PHI1,
    FWD_PHI2,
    HETERO_A,
    HETERO_B,
    HETERO_BFB_GREATEST,
    HETERO_BFB_SMALLER,
    LANG_A,
    LANG_B,
    WEAK_A,
    WEAK_A_MOD,
    WEAK_B,
    WEAK_B_MOD,
    WEAK_MU,
)
from oracles import (
    _pairs,
    all_partitions,
    all_relations,
    bfb_violations,
    cover_failures_oracle,
    fixpoint_steps_oracle,
    full_rescan_steps_oracle,
    join_oracle,
    language_oracle,
    line_nfa,
    refines_oracle,
    rel_from_pairs,
    reverse_oracle,
    right_language_oracle,
    sum_oracle,
    weak_oracle,
)


def random_pair(rng, max_states=3, symbols=("x", "y")):
    a = random_nfa(rng.randint(1, max_states), symbols, rng.choice((0.2, 0.4, 0.6)),
                   rng.randrange(1 << 30))
    b = random_nfa(rng.randint(1, max_states), symbols, rng.choice((0.2, 0.4, 0.6)),
                   rng.randrange(1 << 30))
    return a, b


# --- definition checker ------------------------------------------------------


def test_check_golden_forward():
    assert check(BisimKind.FORWARD_BISIM, FWD_A, FWD_B, FWD_PHI2).ok
    assert not check(BisimKind.FORWARD_BISIM, FWD_A, FWD_B, FWD_PHI1).ok


def test_check_golden_heterotypic():
    # the smaller pinned relation is a valid backward-forward bisimulation
    # but not a forward one
    assert check(BisimKind.BACKWARD_FORWARD_BISIM, HETERO_A, HETERO_B,
                 HETERO_BFB_SMALLER).ok
    assert not check(BisimKind.FORWARD_BISIM, HETERO_A, HETERO_B,
                     HETERO_BFB_SMALLER).ok


def test_check_identity_relation_on_self():
    for a in (FWD_A, HETERO_B, WEAK_A):
        identity = BoolRel(a.n, a.n, [1 << q for q in range(a.n)])
        result = check(BisimKind.FORWARD_BISIM, a, a, identity)
        assert result.ok
        assert all(holds for _, holds in result.conditions)


def test_check_itemizes_conditions():
    result = check(BisimKind.FORWARD_BISIM, FWD_A, FWD_B, FWD_PHI1)
    names = [name for name, _ in result.conditions]
    assert "initial-forward" in names
    assert "step-forward[x]" in names and "step-forward-rev[y]" in names
    assert not result.ok


def test_check_validation_errors():
    with pytest.raises(ValueError, match="alphabet"):
        check(BisimKind.FORWARD_BISIM, FWD_A, LANG_B, BoolRel(3, 2, [0b11] * 3))
    with pytest.raises(ValueError, match="3x5"):
        check(BisimKind.FORWARD_BISIM, FWD_A, FWD_B, BoolRel(3, 4, [0b1111] * 3))
    with pytest.raises(ValueError, match="nonempty"):
        check(BisimKind.FORWARD_BISIM, FWD_A, FWD_B, BoolRel(3, 5, [0] * 3))


# --- greatest forward bisimulation -------------------------------------------


def test_forward_steps_golden():
    steps = forward_bisim_steps(FWD_A, FWD_B)
    assert steps[0] == FWD_PHI1
    assert steps[1] == FWD_PHI2
    assert steps[2] == steps[1]
    assert len(steps) == 3


def test_greatest_forward_golden():
    rep = greatest_forward_bisim(FWD_A, FWD_B)
    assert rep.relation == FWD_PHI2
    assert rep.iterations == 2
    assert rep.flags == ()


def test_greatest_forward_self_is_equivalence_shaped():
    for a in (FWD_B, HETERO_B, WEAK_A):
        rep = greatest_forward_bisim(a, a)
        phi = rep.relation
        assert all(phi[i, i] for i in range(a.n))
        assert phi == inverse(phi)


def test_forward_sequence_is_non_increasing_and_short():
    rng = random.Random(50)
    for _ in range(20):
        a, b = random_pair(rng, 4)
        steps = forward_bisim_steps(a, b)
        for earlier, later in zip(steps, steps[1:]):
            assert subset_of(later, earlier)
        assert len(steps) <= a.n * b.n + 1


def test_greatest_forward_matches_exhaustive_enumeration():
    rng = random.Random(51)
    for _ in range(40):
        a, b = random_pair(rng)
        expected = enumerate_greatest(BisimKind.FORWARD_BISIM, a, b)
        rep = greatest_forward_bisim(a, b)
        got = rep.relation
        if got is not None and got.is_empty():
            got = None
        assert got == expected


# --- greatest backward-forward bisimulation -----------------------------------


def test_backward_forward_golden():
    rep = greatest_backward_forward_bisim(HETERO_A, HETERO_B)
    assert rep.relation == HETERO_BFB_GREATEST
    # pinned by brute force: the union of every relation passing the
    # definition checker
    assert rep.relation == enumerate_greatest(
        BisimKind.BACKWARD_FORWARD_BISIM, HETERO_A, HETERO_B
    )
    assert subset_of(HETERO_BFB_SMALLER, rep.relation)
    assert not is_partial_uniform(rep.relation)


def test_no_forward_bisimulation_for_heterotypic_pair():
    rep = greatest_forward_bisim(HETERO_A, HETERO_B)
    assert rep.relation is None
    assert rep.failure == ("initial-forward", "initial-backward")


def test_backward_forward_self_contains_identity():
    for a in (FWD_A, HETERO_B):
        rep = greatest_backward_forward_bisim(a, a)
        assert rep.relation is not None
        identity = BoolRel(a.n, a.n, [1 << q for q in range(a.n)])
        assert subset_of(identity, rep.relation)


def test_backward_forward_matches_exhaustive_enumeration():
    rng = random.Random(52)
    for _ in range(40):
        a, b = random_pair(rng)
        expected = enumerate_greatest(BisimKind.BACKWARD_FORWARD_BISIM, a, b)
        got = greatest_backward_forward_bisim(a, b).relation
        if got is not None and got.is_empty():
            got = None
        assert got == expected


def test_bfb_oracle_agrees_with_check_on_every_small_relation():
    goldens = (FWD_A, HETERO_A, HETERO_B, LANG_A, LANG_B, WEAK_A, WEAK_B,
               WEAK_A_MOD, WEAK_B_MOD)
    pairs = 0
    for a in goldens:
        for b in goldens:
            if set(a.alphabet) != set(b.alphabet) or a.n * b.n > 9:
                continue
            pairs += 1
            greatest = None
            for phi in all_relations(a.n, b.n):
                result = check(BisimKind.BACKWARD_FORWARD_BISIM, a, b, phi)
                failed = tuple(name for name, holds in result.conditions if not holds)
                assert bfb_violations(a, b, phi) == failed
                if result.ok:
                    greatest = phi if greatest is None else union(greatest, phi)
            # the fixpoint meets the union of every relation the oracle accepts
            got = greatest_backward_forward_bisim(a, b).relation
            if got is not None and got.is_empty():
                got = None
            assert got == greatest
    assert pairs == 37


def test_bfb_steps_sequence_shrinks():
    steps = backward_forward_bisim_steps(HETERO_A, HETERO_B)
    for earlier, later in zip(steps, steps[1:]):
        assert subset_of(later, earlier)


# --- duals ----------------------------------------------------------------------


def test_backward_duality():
    rng = random.Random(53)
    for _ in range(20):
        a, b = random_pair(rng, 4)
        dual = greatest_forward_bisim(reverse(a), reverse(b))
        direct = greatest_backward_bisim(a, b)
        assert direct.relation == dual.relation
        fbb = greatest_forward_backward_bisim(a, b)
        bfb = greatest_backward_forward_bisim(reverse(a), reverse(b))
        assert fbb.relation == bfb.relation
    # golden instance: the backward relation of the reversed pair is the
    # forward relation of the originals
    rep = greatest_backward_bisim(reverse(FWD_A), reverse(FWD_B))
    assert rep.relation == FWD_PHI2


def test_forward_backward_matches_exhaustive_enumeration():
    rng = random.Random(59)
    for _ in range(30):
        a, b = random_pair(rng)
        expected = enumerate_greatest(BisimKind.FORWARD_BACKWARD_BISIM, a, b)
        got = greatest_forward_backward_bisim(a, b).relation
        if got is not None and got.is_empty():
            got = None
        assert got == expected


def test_backward_failure_names_are_dualized():
    # the forward run on the reversed weak pair fails on both initial
    # conditions, so the backward run on the originals reports terminals
    rep = greatest_backward_bisim(reverse(WEAK_A), reverse(WEAK_B))
    assert rep.failure == ("terminal-forward", "terminal-backward")


def test_forward_backward_failure_names():
    # the right automaton has no terminal state, so the heterotypic run can
    # fail only on the terminal side; reversed, the failure moves to initials
    a = Nfa(1, ("x",), {"x": [[0]]}, [1], [1])
    b = Nfa(1, ("x",), {"x": [[0]]}, [1], [0])
    rep = greatest_backward_forward_bisim(a, b)
    assert rep.failure == ("terminal-forward",)
    dual = greatest_forward_backward_bisim(reverse(a), reverse(b))
    assert dual.failure == ("initial-forward",)


# --- the fixpoint rounds against the paper's residual round ----------------------


@st.composite
def _automata(draw, alphabet):
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        return line_nfa(n, draw(st.booleans()), alphabet)
    n = draw(st.integers(1, 6))
    states = st.integers(0, n - 1)
    delta = {
        x: rel_from_pairs(n, n, draw(st.sets(st.tuples(states, states))))
        for x in alphabet
    }
    sigma, tau = draw(st.sets(states)), draw(st.sets(states))
    return Nfa(n, alphabet, delta, [q in sigma for q in range(n)],
               [q in tau for q in range(n)])


@st.composite
def _automaton_pairs(draw):
    alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
    a = draw(_automata(alphabet))
    return a, draw(_automata(tuple(draw(st.permutations(alphabet)))))


# An empty phi_0 for both kinds, and a run that empties in its second round.
_EMPTY_START = (Nfa(1, ("a",), {"a": [[0]]}, [1], [1]),
                Nfa(1, ("a",), {"a": [[0]]}, [0], [0]))
_EMPTIES_LATE = (Nfa(2, ("a",), {"a": [[0, 1], [0, 0]]}, [1, 0], [1, 1]),
                 Nfa(1, ("a",), {"a": [[1]]}, [1], [1]))


# phi repeats after one round while the blocks of A+B still split inside B:
# A's one state and B's state 0 are dead ends, B's states 1..5 form a chain
# into the terminal state 6, and each round tells one more chain state apart.
_STABLE_EARLY = (
    Nfa(1, ("a",), {"a": [[0]]}, [1], [0]),
    Nfa(7, ("a",),
        {"a": rel_from_pairs(7, 7, [(q, q + 1) for q in range(1, 6)])},
        [q == 1 for q in range(7)], [q == 6 for q in range(7)]),
)


def test_fixpoint_corner_examples_are_what_they_claim():
    for kind in ("fb", "bfb"):
        assert [s.count() for s in fixpoint_steps_oracle(kind, *_EMPTY_START)] == [0]
        assert [s.count() for s in fixpoint_steps_oracle(kind, *_EMPTIES_LATE)] == [
            2, 1, 0
        ]


def test_fb_steps_stop_when_phi_repeats_not_when_blocks_do():
    a, b = _STABLE_EARLY
    steps = fixpoint_steps_oracle("fb", a, b)
    assert [s.count() for s in steps] == [6, 1, 1]
    # Blocks inside B keep splitting: the rounds on B x B change phi for
    # four rounds, three more than on A x B.
    assert len(fixpoint_steps_oracle("fb", b, b)) == 6
    assert forward_bisim_steps(a, b) == steps
    # The same with the splitting side first.
    assert forward_bisim_steps(b, a) == fixpoint_steps_oracle("fb", b, a)


def _sparse(rng, n, alphabet):
    """Random automaton with zero to two successors per state and symbol."""
    delta = {
        x: rel_from_pairs(n, n, [(q, rng.randrange(n)) for q in range(n)
                                     for _ in range(rng.randint(0, 2))])
        for x in alphabet
    }
    return Nfa(n, alphabet, delta, [rng.random() < 0.3 for _ in range(n)],
               [rng.random() < 0.3 for _ in range(n)])


def _blown_up(rng, a, extra):
    """A relabelled copy of a with ``extra`` more states, each one a copy of
    a random state (same successors and terminal bit, so forward
    bisimilar to it, but never initial), declared over a shuffled alphabet
    order."""
    n = a.n + extra
    origin = list(range(a.n)) + [rng.randrange(a.n) for _ in range(extra)]
    perm = list(range(n))
    rng.shuffle(perm)
    alphabet = list(a.alphabet)
    rng.shuffle(alphabet)
    delta = {
        x: rel_from_pairs(n, n, [
            (perm[q], perm[t])
            for q in range(n)
            for t in range(a.n)
            if a.delta[x][origin[q], t]
        ])
        for x in alphabet
    }
    sigma, tau = [False] * n, [False] * n
    for q in range(n):
        sigma[perm[q]] = q < a.n and a.sigma[q]
        tau[perm[q]] = a.tau[origin[q]]
    return Nfa(n, alphabet, delta, sigma, tau)


def test_semi_naive_fixpoint_oracle_is_the_full_rescan():
    # The oracle re-tests only the neighbours of removed pairs; on the
    # corner examples and on small random automata, sparse and dense, it
    # must yield the same rounds as re-testing every pair.
    rng = random.Random(83)
    cases = [_EMPTY_START, _EMPTIES_LATE, _STABLE_EARLY]
    for trial in range(60):
        alphabet = ("a", "b")[: 1 + trial % 2]
        if trial % 2:
            a = _sparse(rng, rng.randint(1, 10), alphabet)
            b = _sparse(rng, rng.randint(1, 10), alphabet) if trial % 3 else a
        else:
            a, b = (random_nfa(rng.randint(1, 6), alphabet, 0.3, rng.randrange(10**6))
                    for _ in range(2))
        cases.append((a, b))
    rounds = []
    for a, b in cases:
        for kind in ("fb", "bfb"):
            steps = fixpoint_steps_oracle(kind, a, b)
            assert steps == full_rescan_steps_oracle(kind, a, b)
            rounds.append(len(steps))
    assert max(rounds) >= 5


def test_fb_steps_match_the_paper_rounds_on_larger_automata():
    rng = random.Random(59)
    for trial in range(40):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = _sparse(rng, rng.randint(8, 24), alphabet)
        if trial % 2:
            b = _blown_up(rng, a, rng.randint(1, 6))
        else:
            order = list(alphabet)
            rng.shuffle(order)
            b = _sparse(rng, rng.randint(8, 30), tuple(order))
            if b.n == a.n:
                b = _blown_up(rng, b, 1)
        assert a.n != b.n
        assert forward_bisim_steps(a, b) == fixpoint_steps_oracle("fb", a, b)
        assert backward_forward_bisim_steps(a, b) == fixpoint_steps_oracle("bfb", a, b)


@pytest.mark.parametrize(
    "n, closed, shorter",
    [(40, False, True), (40, True, False), (70, True, True), (100, False, False),
     pytest.param(64, False, None, id="64-False-copy"),
     pytest.param(64, True, None, id="64-True-copy")],
)
def test_fb_steps_match_the_paper_rounds_on_deep_automata(n, closed, shorter):
    # After the first round each round splits off a state or two, so the
    # refinement keys only their predecessors; against a one-shorter copy
    # the ring's relation keeps shrinking for about 2n rounds.  Against a
    # relabelled copy (shorter is None), as in the benchmark's bfb cases,
    # bfb's phi_0 is nearly full and about n/2 rounds each remove about 2n
    # pairs, so each round re-tests the rows above the last round's removals.
    a = line_nfa(n, closed)
    if shorter is None:
        b = _blown_up(random.Random(n), a, 0)
    else:
        b = line_nfa(n - 1, closed) if shorter else a
    assert forward_bisim_steps(a, b) == fixpoint_steps_oracle("fb", a, b)
    assert backward_forward_bisim_steps(a, b) == fixpoint_steps_oracle("bfb", a, b)


def _with_symbol(a, x, rel):
    """a with the relation of symbol x replaced by rel."""
    return Nfa(a.n, a.alphabet, {**a.delta, x: rel}, a.sigma, a.tau)


def _partial_identity(rng, n, share):
    """A relation inside the identity: each state loops with probability
    ``share`` and has no edge otherwise."""
    return BoolRel(n, n, [1 << q if rng.random() < share else 0 for q in range(n)])


@pytest.fixture
def bfb_sides(monkeypatch):
    """Per bfb round, one ``_lost_witnesses`` call that tests both
    conditions: whether it is round 0 and how many symbols it tests."""
    seen = []
    real = bisim._lost_witnesses

    def spy(rows, gone, top, sides):
        seen.append((gone is None, len(sides)))
        return real(rows, gone, top, sides)

    monkeypatch.setattr(bisim, "_lost_witnesses", spy)
    return seen


def test_bfb_drops_symbols_that_only_loop_after_round_zero(bfb_sides):
    # "b" loops on some states of each side and has no edge on the others;
    # "a" and "c" are random.  Against a relabelled copy the loops stay
    # loops and phi stays nonempty for several rounds.
    rng = random.Random(67)
    deep = 0
    for trial in range(40):
        share = (1.0, 0.7, 0.3, 0.0)[trial % 4]
        a = _sparse(rng, rng.randint(6, 24), ("a", "b", "c"))
        a = _with_symbol(a, "b", _partial_identity(rng, a.n, share))
        if trial % 2:
            b = _blown_up(rng, a, 0)
        else:
            b = _sparse(rng, rng.randint(6, 24), ("c", "b", "a"))
            b = _with_symbol(b, "b", _partial_identity(rng, b.n, share))
        bfb_sides.clear()
        steps = backward_forward_bisim_steps(a, b)
        assert steps == fixpoint_steps_oracle("bfb", a, b)
        assert bfb_sides[:1] == [(True, 3)]
        assert bfb_sides[1:] == [(False, 2)] * (len(bfb_sides) - 1)
        deep += len(steps) > 3
    assert deep >= 10
    # The rings and chains of the benchmark: "b" loops on every state.
    for n, closed in ((30, True), (31, False)):
        a = line_nfa(n, closed)
        b = _blown_up(random.Random(n), a, 0)
        bfb_sides.clear()
        steps = backward_forward_bisim_steps(a, b)
        assert steps == fixpoint_steps_oracle("bfb", a, b)
        assert len(steps) > n // 2
        assert bfb_sides[:1] == [(True, 2)]
        assert bfb_sides[1:] == [(False, 1)] * (len(bfb_sides) - 1)


def test_bfb_keeps_symbols_that_loop_on_one_side_only(bfb_sides):
    # "b" loops on every state of A; on B it loops too but one state also
    # steps elsewhere (or, the mirror case, A's "b" does), so the symbol can
    # still remove pairs after round 0 and is re-tested every round.
    rng = random.Random(71)
    for trial in range(30):
        a = line_nfa(rng.randint(4, 16), trial % 3 == 0)
        b = _blown_up(rng, a, 0)
        loose = list(b.delta["b"].row_masks)
        q = rng.randrange(b.n)
        loose[q] |= 1 << (q + rng.randrange(1, b.n)) % b.n
        b = _with_symbol(b, "b", BoolRel(b.n, b.n, loose))
        if trial % 2:
            a, b = b, a
        bfb_sides.clear()
        steps = backward_forward_bisim_steps(a, b)
        assert steps == fixpoint_steps_oracle("bfb", a, b)
        assert all(count == 2 for _, count in bfb_sides)


def test_greatest_bfb_and_fbb_read_a_from_its_successor_index_alone():
    # A parsed automaton holds its successor index and no masks.  The
    # greatest bfb reads A, and the greatest fbb A's reversal, from that
    # index alone, the test for symbols that only loop included: neither
    # builds A's masks nor its reversal's.  B is a copy over a shuffled
    # alphabet, so its lists are looked up by symbol.
    rng = random.Random(97)
    for trial in range(24):
        if trial % 3:
            a = _sparse(rng, rng.randint(1, 16), ("a", "b", "c")[:1 + trial % 3])
        else:
            a = line_nfa(rng.randint(1, 24), trial % 2 == 0)
        b = _blown_up(rng, a, trial % 4)
        for kind, greatest, left, right in (
            ("bfb", greatest_backward_forward_bisim, a, b),
            ("fbb", greatest_forward_backward_bisim, reverse_oracle(a), reverse_oracle(b)),
        ):
            parsed = parse_nfa(format_nfa(a))
            rep = greatest(parsed, b)
            assert parsed._delta is None and reverse(parsed)._delta is None
            last = fixpoint_steps_oracle("bfb", left, right)[-1]
            failure = cover_failures_oracle(kind, a, b, last)
            assert (rep.relation, rep.failure) == (None if failure else last, failure)


def _unmarked(n, alphabet, edges):
    """An automaton with no initial and no terminal state, so that bfb's
    phi_0 against another such automaton holds every pair."""
    delta = {x: rel_from_pairs(n, n, edges[x]) for x in alphabet}
    return Nfa(n, alphabet, delta, [0] * n, [0] * n)


# Corners of the row-form conditions, each with the pair counts of its bfb
# rounds.  Every case is its own reversal up to relabelling, so fbb, the
# same rounds on the reversed automata, meets the same corner.
_ROW_FORM_CORNERS = [
    # A is the chain 0 -> 1 -> 2, B one state with a loop.  Row 2 holds B's
    # state, which steps, while A's state 2 does not: round 0 removes that
    # pair, though no successor row of 2 lost anything.
    pytest.param(_unmarked(3, ("a",), {"a": [(0, 1), (1, 2)]}),
                 _unmarked(1, ("a",), {"a": [(0, 0)]}),
                 [3, 2, 1, 0], id="no-successor"),
    # A steps 0 -> 1 -> 2 and loops on 1 by "a", and only 1 loops by "b"; B
    # is one state looping on both.  Round 0 empties rows 0 and 2, whose
    # states have no "b" step.  Row 1 then meets the row condition, but its
    # predecessor row 0 is empty, so Img_B(row 0) is empty too and round 1
    # empties row 1 by the column condition alone.
    pytest.param(_unmarked(3, ("a", "b"),
                           {"a": [(0, 1), (1, 1), (1, 2)], "b": [(1, 1)]}),
                 _unmarked(1, ("a", "b"), {"a": [(0, 0)], "b": [(0, 0)]}),
                 [3, 1, 0], id="predecessor-row-empties"),
    # A is one state with a loop; B steps 1 -> 0 and 0 -> 2 and loops on 0.
    # B's state 1 has no predecessor, so it lies in no Img_B(row), while
    # A's state has one: round 0 removes the pair by the column condition.
    pytest.param(_unmarked(1, ("a",), {"a": [(0, 0)]}),
                 _unmarked(3, ("a",), {"a": [(1, 0), (0, 0), (0, 2)]}),
                 [3, 2, 2], id="no-predecessor"),
]


@pytest.mark.parametrize("a, b, counts", _ROW_FORM_CORNERS)
def test_bfb_and_fbb_rounds_on_row_form_corners(a, b, counts):
    for left, right, back_a, back_b in ((a, b, a, b),
                                        (reverse(a), reverse(b),
                                         reverse_oracle(a), reverse_oracle(b))):
        steps = backward_forward_bisim_steps(left, right)
        assert steps == fixpoint_steps_oracle("bfb", back_a, back_b)
        assert [s.count() for s in steps] == counts
    for left, right in ((a, b), (b, a)):
        _assert_bfb_and_fbb_are_the_last_round(left, right)


def _assert_bfb_and_fbb_are_the_last_round(a, b):
    """The greatest bfb and fbb, which propagate removed pairs row by row,
    report what the paper's rounds end at: the oracle's last relation, or
    the covering conditions it fails.  Returns the two failures."""
    failures = []
    for kind, greatest, left, right in (
        ("bfb", greatest_backward_forward_bisim, a, b),
        ("fbb", greatest_forward_backward_bisim, reverse_oracle(a), reverse_oracle(b)),
    ):
        last = fixpoint_steps_oracle("bfb", left, right)[-1]
        failure = cover_failures_oracle(kind, a, b, last)
        rep = greatest(a, b)
        assert (rep.relation, rep.failure) == (None if failure else last, failure)
        failures.append(failure)
    return failures


@pytest.mark.parametrize("n, closed", [(1, False), (2, True), (17, False), (24, True),
                                       (40, False), (41, True)])
def test_greatest_bfb_and_fbb_are_the_last_round_on_chains_and_rings(n, closed):
    # Against a relabelled copy the paper's rounds take about n/2 rounds;
    # against a blown-up copy and a one-longer line they end elsewhere.
    a = line_nfa(n, closed)
    rng = random.Random(n)
    for b in (_blown_up(rng, a, 0), _blown_up(rng, a, 3), line_nfa(n + 1, closed)):
        _assert_bfb_and_fbb_are_the_last_round(a, b)
        _assert_bfb_and_fbb_are_the_last_round(b, a)


def test_greatest_bfb_and_fbb_are_the_last_round_on_sparse_automata_and_copies():
    rng = random.Random(89)
    failures = set()
    for trial in range(40):
        alphabet = ("a", "b", "c")[:1 + trial % 3]
        a = _sparse(rng, rng.randint(1, 16), alphabet)
        if trial % 2:
            b = _blown_up(rng, a, rng.randint(0, 4))
        else:
            b = _sparse(rng, rng.randint(1, 16), alphabet[::-1])
        failures.update(_assert_bfb_and_fbb_are_the_last_round(a, b))
        failures.update(_assert_bfb_and_fbb_are_the_last_round(b, a))
    # Copies of a ring: phi holds many equal rows, each a class of copies.
    for n, k in ((3, 4), (8, 4), (12, 3)):
        a = line_nfa(n, True)
        for _ in range(k - 1):
            a = sum_oracle(a, line_nfa(n, True))
        b = _blown_up(random.Random(k), a, 0)
        assert _assert_bfb_and_fbb_are_the_last_round(a, b) == [None, None]
    assert failures == {
        None, ("initial-forward",), ("initial-backward",), ("terminal-forward",),
        ("terminal-backward",), ("terminal-forward", "initial-backward"),
        ("initial-forward", "terminal-backward"),
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_automaton_pairs())
@example(_EMPTY_START)
@example(_EMPTIES_LATE)
@example(_STABLE_EARLY)
def test_fixpoint_steps_are_the_paper_rounds(pair):
    a, b = pair
    assert forward_bisim_steps(a, b) == fixpoint_steps_oracle("fb", a, b)
    assert backward_forward_bisim_steps(a, b) == fixpoint_steps_oracle("bfb", a, b)
    # bb and fbb are the same fixpoints run on the reversed automata.  bb
    # counts the fb rounds; fbb counts its ``_lost_witnesses`` passes: round
    # 0, unless phi_0 is empty, then one per row whose removals it propagated.
    passes = []
    real = bisim._lost_witnesses

    def spy(rows, gone, top, sides):
        passes.append(gone)
        return real(rows, gone, top, sides)

    for greatest, kind, name in ((greatest_backward_bisim, "fb", "bb"),
                                 (greatest_forward_backward_bisim, "bfb", "fbb")):
        steps = fixpoint_steps_oracle(kind, reverse_oracle(a), reverse_oracle(b))
        passes.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bisim, "_lost_witnesses", spy)
            rep = greatest(a, b)
        failure = cover_failures_oracle(name, a, b, steps[-1])
        assert (rep.relation, rep.failure) == (None if failure else steps[-1], failure)
        if kind == "fb":
            assert (rep.iterations, passes) == (len(steps) - 1, [])
        else:
            assert rep.iterations == len(passes)
            assert passes[:1] == ([None] if len(steps) > 1 else [])
            assert all(len(gone) == 1 for gone in passes[1:])


@pytest.mark.parametrize(
    "greatest, closed, rounds",
    [(greatest_forward_bisim, False, 255),
     (greatest_backward_forward_bisim, False, 257),
     (greatest_backward_forward_bisim, True, 256)],
    ids=["fb-chain", "bfb-chain", "bfb-ring"],
)
def test_fixpoint_on_256_states_takes_seconds(greatest, closed, rounds):
    a = line_nfa(256, closed)
    start = time.perf_counter()
    rep = greatest(a, a)
    assert time.perf_counter() - start < 10
    assert rep.relation == BoolRel(256, 256, [1 << q for q in range(256)])
    assert rep.iterations == rounds


@pytest.mark.parametrize(
    "n, closed, unions",
    [(256, False, 520), (256, True, 518), (512, False, 1032), (512, True, 1030)],
    ids=["chain-256", "ring-256", "chain-512", "ring-512"],
)
def test_bfb_union_work_is_linear_on_deep_automata(monkeypatch, n, closed, unions):
    # Against a relabelled copy the paper's rounds take about n/2 rounds that
    # each re-test nearly every row, about 0.75 n^2 union calls (48,905 at
    # chain-256).  Propagating each row's removed pairs at once makes about
    # two per state.
    calls = 0
    real = bisim._unions

    def counting(masks):
        union_of = real(masks)

        def counted(sel):
            nonlocal calls
            calls += 1
            return union_of(sel)
        return counted

    monkeypatch.setattr(bisim, "_unions", counting)
    a = line_nfa(n, closed)
    rep = greatest_backward_forward_bisim(a, _blown_up(random.Random(n), a, 0))
    assert rep.relation.count() == n
    assert calls == unions


# --- empty fixpoint corners ------------------------------------------------------


def test_empty_fixpoint_with_initial_states_fails():
    a = Nfa(1, ("x",), {"x": [[1]]}, [1], [1])
    b = Nfa(2, ("x",), {"x": [[1, 0], [0, 1]]}, [1, 0], [0, 0])
    steps = forward_bisim_steps(a, b)
    assert len(steps) == 1 and steps[0].is_empty()
    rep = greatest_forward_bisim(a, b)
    assert rep.failure == ("initial-forward", "initial-backward")
    assert rep.iterations == 0


def test_empty_fixpoint_without_initial_states_is_flagged():
    a = Nfa(1, ("x",), {"x": [[1]]}, [0], [1])
    b = Nfa(2, ("x",), {"x": [[1, 0], [0, 1]]}, [0, 0], [0, 0])
    rep = greatest_forward_bisim(a, b)
    assert rep.relation is not None
    assert rep.relation.is_empty()
    assert rep.flags == ("relation-is-empty",)


def test_report_shape_invariant():
    with pytest.raises(ValueError):
        BisimReport(BisimKind.FORWARD_BISIM, None, 0, None)
    with pytest.raises(ValueError):
        BisimReport(BisimKind.FORWARD_BISIM, BoolRel(2, 2, [1, 2]), 0, ("x",))


# --- self equivalences -------------------------------------------------------------


def _assert_self_path_is_the_sum_path(a):
    # Against itself A is refined alone; against an equal but distinct copy
    # the rounds run over A+A.  Both give the paper's rounds.  The greatest
    # fb and bb equivalences refine to stability without the rounds, and
    # must read the fixpoint's classes, numbered alike.
    c = Nfa(a.n, a.alphabet, dict(a.delta), a.sigma, a.tau)
    assert c == a and c is not a
    steps = forward_bisim_steps(a, a)
    assert steps == forward_bisim_steps(a, c) == fixpoint_steps_oracle("fb", a, a)
    bb = greatest_backward_bisim(a, a)
    assert bb == greatest_backward_bisim(a, c)
    assert greatest_fb_equivalence(a) == Partition.from_relation(
        greatest_forward_bisim(a, c).relation
    )
    assert greatest_bb_equivalence(a) == Partition.from_relation(bb.relation)


def test_self_fb_rounds_match_the_sum_on_seeded_automata():
    rng = random.Random(83)
    for _ in range(150):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_nfa(rng.randint(1, 9), alphabet, rng.choice((0.1, 0.25, 0.5)),
                       rng.randrange(1 << 30))
        _assert_self_path_is_the_sum_path(a)


@st.composite
def _small_automata(draw):
    alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
    n = draw(st.integers(1, 9))
    states = st.integers(0, n - 1)
    delta = {
        x: rel_from_pairs(n, n, draw(st.sets(st.tuples(states, states))))
        for x in alphabet
    }
    sigma, tau = draw(st.sets(states)), draw(st.sets(states))
    return Nfa(n, alphabet, delta, [q in sigma for q in range(n)],
               [q in tau for q in range(n)])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_small_automata())
def test_self_fb_rounds_match_the_sum(a):
    _assert_self_path_is_the_sum_path(a)


@pytest.mark.parametrize("n, closed", [
    (24, False), (37, True), (58, False), (77, True), (150, False), (160, True),
])
def test_self_fb_rounds_match_the_sum_on_chains_and_rings(n, closed):
    _assert_self_path_is_the_sum_path(line_nfa(n, closed))


@pytest.mark.parametrize("n, k", [(1, 3), (5, 2), (12, 4), (40, 3)])
def test_self_fb_rounds_match_the_sum_on_ring_copies(n, k):
    # The copies of a state are fb and bb equivalent, so the classes merge
    # across copies, one per state of the ring.
    a = line_nfa(n, True)
    for _ in range(k - 1):
        a = sum_oracle(a, line_nfa(n, True))
    assert a.n == n * k
    _assert_self_path_is_the_sum_path(a)
    assert greatest_fb_equivalence(a).num_classes == n
    assert greatest_bb_equivalence(a).num_classes == n


def test_self_bb_refines_the_reversal_alone(monkeypatch):
    # reverse(A) is one object however often it is asked for, so bb of A
    # against itself runs the forward rounds on reverse(A) alone and never
    # builds the sum of two reversals.  fb of A against itself refines A
    # alone too, and the greatest equivalences build no sum either.
    def no_sum(a, b):
        raise AssertionError("an automaton against itself built a sum")

    monkeypatch.setattr(bisim, "_sum", no_sum)
    rng = random.Random(84)
    for _ in range(60):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_nfa(rng.randint(1, 9), alphabet, rng.choice((0.1, 0.25, 0.5)),
                       rng.randrange(1 << 30))
        back = reverse_oracle(a)
        expected = fixpoint_steps_oracle("fb", back, back)[-1]
        assert greatest_backward_bisim(a, a).relation == expected
        assert greatest_bb_equivalence(a) == Partition.from_relation(expected)
        forward = fixpoint_steps_oracle("fb", a, a)[-1]
        assert greatest_forward_bisim(a, a).relation == forward
        assert greatest_fb_equivalence(a) == Partition.from_relation(forward)


def test_greatest_fb_equivalence_golden():
    assert greatest_fb_equivalence(LANG_A) == Partition(range(3))
    assert greatest_fb_equivalence(LANG_B) == Partition(range(2))
    assert greatest_fb_equivalence(FWD_B).classes == ((0, 1), (2, 4), (3,))


def test_greatest_fb_equivalence_single_state():
    a = Nfa(1, ("x",), {"x": [[1]]}, [1], [1])
    assert greatest_fb_equivalence(a) == Partition([0])


def test_greatest_fb_equivalence_is_maximum_over_all_partitions():
    # brute force: every equivalence passing the definition check refines the
    # computed one, and the computed one passes
    parts = list(all_partitions(5))
    assert len(parts) == 52
    best = greatest_fb_equivalence(FWD_B)
    assert check(BisimKind.FORWARD_BISIM, FWD_B, FWD_B, best.to_relation()).ok
    for part in parts:
        if check(BisimKind.FORWARD_BISIM, FWD_B, FWD_B, part.to_relation()).ok:
            assert refines_oracle(part, best)


def test_greatest_bb_equivalence_matches_reversed_forward():
    for a in (FWD_B, WEAK_A, HETERO_B):
        assert greatest_bb_equivalence(a) == greatest_fb_equivalence(reverse(a))


# --- closure properties ---------------------------------------------------------------


def test_union_and_composition_of_forward_bisims():
    rng = random.Random(54)
    found_pair = 0
    for _ in range(60):
        a, b = random_pair(rng)
        passing = [
            phi
            for phi in _all_relations(a.n, b.n)
            if check(BisimKind.FORWARD_BISIM, a, b, phi).ok
        ]
        for i in range(min(len(passing), 4)):
            for j in range(min(len(passing), 4)):
                assert check(
                    BisimKind.FORWARD_BISIM, a, b, union(passing[i], passing[j])
                ).ok
        if passing:
            found_pair += 1
    assert found_pair  # the sample must exercise the property


def _all_relations(rows, cols):
    for code in range(1, 1 << rows * cols):
        yield BoolRel(rows, cols, [code >> r * cols & (1 << cols) - 1
                                   for r in range(rows)])


def test_composition_of_self_bisims():
    for a in (FWD_B, WEAK_A):
        phi = greatest_forward_bisim(a, a).relation
        assert check(BisimKind.FORWARD_BISIM, a, a, compose(phi, phi)).ok


def test_join_of_fb_equivalences_is_fb_equivalence():
    for a in (FWD_B, WEAK_A, LANG_A):
        passing = [
            part
            for part in all_partitions(a.n)
            if check(BisimKind.FORWARD_BISIM, a, a, part.to_relation()).ok
        ]
        for e in passing:
            for f in passing:
                joined = join_oracle(e, f)
                assert check(
                    BisimKind.FORWARD_BISIM, a, a, joined.to_relation()
                ).ok


# --- weak algorithms ----------------------------------------------------------------------


def test_reachable_terminal_pairs_golden():
    pairs = reachable_terminal_pairs(WEAK_A, WEAK_B)
    assert [(ta.to_text(), tb.to_text()) for ta, tb in pairs] == [
        ("0010", "01"),
        ("0000", "00"),
    ]


def test_greatest_weak_forward_bisim_golden():
    rep = greatest_weak_forward_bisim(WEAK_A, WEAK_B)
    assert rep.relation == WEAK_MU
    assert is_partial_uniform(rep.relation)


def test_weak_rejection_on_modified_initials():
    rep = greatest_weak_forward_bisim(WEAK_A_MOD, WEAK_B_MOD)
    assert rep.failure == ("initial-backward",)


def test_weak_forward_sim_accepts_subset_of_bisim():
    rep_sim = greatest_weak_forward_sim(WEAK_A, WEAK_B)
    rep_bisim = greatest_weak_forward_bisim(WEAK_A, WEAK_B)
    assert subset_of(rep_bisim.relation, rep_sim.relation)


def test_weak_contains_strong():
    rng = random.Random(55)
    for _ in range(25):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        strong = greatest_forward_bisim(a, a).relation
        weak = greatest_weak_forward_bisim(a, a).relation
        assert subset_of(strong, weak)


def test_weak_backward_duality():
    # wbb searches the initial-side subsets of A+B directly; wfb on the
    # reversed automata must give the same report, with initial and terminal
    # swapped in the names of the failed covering conditions.
    dual_name = {
        "initial-forward": "terminal-forward",
        "initial-backward": "terminal-backward",
    }
    rng = random.Random(56)
    outcomes = set()
    for _ in range(60):
        pair = random_pair(rng, 4)
        for a, b in (pair, pair[::-1]):
            direct = greatest_weak_backward_bisim(a, b)
            dual = greatest_weak_forward_bisim(reverse(a), reverse(b))
            failure = dual.failure
            if failure is not None:
                failure = tuple(dual_name[name] for name in failure)
            assert (direct.kind, direct.relation, direct.failure) == (
                BisimKind.WEAK_BACKWARD_BISIM, dual.relation, failure
            )
            assert (direct.iterations, direct.flags) == (dual.iterations, dual.flags)
            assert wbb_equivalence_bound(a) == wfb_equivalence_bound(reverse(a))
            outcomes.add(direct.failure or direct.flags)
    assert {(), ("terminal-forward",), ("terminal-backward",)} <= outcomes


def test_weak_simulation_matches_right_language_inclusion():
    rng = random.Random(57)
    for _ in range(20):
        a, b = random_pair(rng, 4)
        pairs = reachable_terminal_pairs(a, b)
        depth = len(pairs) - 1
        if depth > 7:
            continue
        langs_a = [right_language_oracle(a, i, depth) for i in range(a.n)]
        langs_b = [right_language_oracle(b, j, depth) for j in range(b.n)]
        oracle = BoolRel.from_bits(
            [[1 if langs_a[i] <= langs_b[j] else 0 for j in range(b.n)]
             for i in range(a.n)]
        )
        rep = greatest_weak_forward_sim(a, b)
        if rep.relation is not None:
            assert rep.relation == oracle


# Sizes on both sides of the 4-column chunks of the preimage tables.
_CHUNK_SIZES = (1, 3, 4, 5, 8, 9, 17, 33, 65)


def _pooled(rng, n, alphabet, copy=None):
    """Random automaton whose successor sets, per symbol, come from a pool of
    three random sets, which keeps the reachable vector pairs few (at most
    a few dozen here).  With ``copy``, states 0..copy.n-1 are a copy of that
    automaton with no edges out of it, so on those states every terminal
    vector is copy's own, and the automaton weakly simulates copy."""
    base = copy.n if copy else 0
    pairs = {}
    for x in alphabet:
        pool = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(3)]
        own = list(_pairs(copy.delta[x])) if copy else []
        pairs[x] = own + [(q, t) for q in range(base, n) for t in rng.choice(pool)]
    boundary = [
        (set(getattr(copy, vec).indices()) if copy else set())
        | {q for q in range(base, n) if rng.random() < 0.3}
        for vec in ("sigma", "tau")
    ]
    delta = {x: rel_from_pairs(n, n, p) for x, p in pairs.items()}
    return Nfa(n, alphabet, delta, *([q in vec for q in range(n)] for vec in boundary))


def test_weak_relations_match_the_oracle_across_chunk_boundaries():
    rng = random.Random(61)
    for trial in range(24):
        n_a, n_b = sorted(rng.sample(_CHUNK_SIZES, 2))
        a = _pooled(rng, n_a, ("x", "y"))
        b = _pooled(rng, n_b, ("y", "x"), copy=a if trial % 2 else None)
        pairs = weak_oracle("wfs", a, b)[0]
        assert [
            (set(ta.indices()), set(tb.indices()))
            for ta, tb in reachable_terminal_pairs(a, b)
        ] == pairs
        for left, right in ((a, b), (b, a)):
            for kind, greatest in (("wfs", greatest_weak_forward_sim),
                                   ("wfb", greatest_weak_forward_bisim),
                                   ("wbb", greatest_weak_backward_bisim)):
                pairs, relation, failure = weak_oracle(kind, left, right)
                rep = greatest(left, right)
                assert (rep.relation, rep.iterations, rep.failure) == (
                    relation, len(pairs), failure
                ), (trial, kind)
        for auto in (a, b):
            assert wfb_equivalence_bound(auto) == Partition.from_relation(
                weak_oracle("wfb", auto, auto)[1])
            assert wbb_equivalence_bound(auto) == Partition.from_relation(
                weak_oracle("wbb", auto, auto)[1])


def test_wfb_equivalence_bound_golden():
    assert wfb_equivalence_bound(WEAK_A).classes == ((0, 1, 3), (2,))


def test_wfb_equivalence_bound_total_automaton():
    a = Nfa(3, ("x",), {"x": [[1, 1, 1]] * 3}, [1, 0, 0], [1, 1, 1])
    assert wfb_equivalence_bound(a) == Partition([0] * 3)


def test_accepted_relations_imply_language_relations():
    # a surviving bisimulation forces equal languages; a surviving weak
    # simulation forces inclusion (checked to depth 6)
    rng = random.Random(58)
    equal_seen = included_seen = 0
    for _ in range(60):
        a, b = random_pair(rng, 4)
        if greatest_forward_bisim(a, b).relation is not None:
            equal_seen += 1
            assert language_oracle(a, 6) == language_oracle(b, 6)
        if greatest_weak_forward_bisim(a, b).relation is not None:
            assert language_oracle(a, 6) == language_oracle(b, 6)
        if greatest_weak_forward_sim(a, b).relation is not None:
            included_seen += 1
            assert set(language_oracle(a, 6)) <= set(language_oracle(b, 6))
    assert equal_seen and included_seen


def test_wfb_bound_is_a_principal_ideal():
    # every refinement passes the weak check, every non-refinement fails
    for a in (WEAK_A, LANG_A, HETERO_B):
        bound = wfb_equivalence_bound(a)
        for part in all_partitions(a.n):
            passes = check(
                BisimKind.WEAK_FORWARD_BISIM, a, a, part.to_relation()
            ).ok
            assert passes == refines_oracle(part, bound)
