import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfabisim.automaton import Nfa, factor, find_isomorphism, random_nfa
from nfabisim.bisim import (
    BisimKind,
    check,
    greatest_fb_equivalence,
    wfb_equivalence_bound,
)
from nfabisim.equivalence import (
    REDUCTION_MODES,
    fb_equivalent,
    function_fb_iff_bfb,
    is_weak_forward_isomorphism,
    language_equivalent,
    reduce,
    uniform_bfb_crosscheck,
    uniform_fb_crosscheck,
    weak_forward_isomorphism,
    wfb_equivalent,
)
from nfabisim.relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    is_uniform,
)

from goldens import (
    FWD_A,
    FWD_B,
    FWD_PHI2,
    HETERO_A,
    HETERO_B,
    HETERO_BFB_GREATEST,
    LANG_A,
    LANG_B,
    WEAK_A,
    WEAK_A_MOD,
    WEAK_B,
    WEAK_B_MOD,
)
from oracles import (
    all_partitions,
    language_oracle,
    quotient_partition_oracle,
    random_functional_relation,
    random_uniform_relation,
)


# --- strong equivalence ---------------------------------------------------


def test_fb_equivalent_golden_pair():
    verdict = fb_equivalent(FWD_A, FWD_B)
    assert verdict.equivalent
    assert verdict.witness.relation == FWD_PHI2
    assert is_uniform(verdict.witness.relation)


def test_fb_equivalent_rejects_language_equal_pair():
    assert not fb_equivalent(LANG_A, LANG_B).equivalent
    assert language_equivalent(LANG_A, LANG_B).equivalent


def test_fb_equivalent_reflexive_symmetric():
    for a in (FWD_A, LANG_A, WEAK_A):
        assert fb_equivalent(a, a).equivalent
    assert fb_equivalent(FWD_B, FWD_A).equivalent
    assert not fb_equivalent(LANG_B, LANG_A).equivalent


def test_fb_equivalent_transitive_on_golden_triple():
    # FWD_A ~ FWD_B and FWD_B ~ its own fb reduction force FWD_A ~ reduction
    reduced = reduce(FWD_B, "fb")
    assert fb_equivalent(FWD_A, FWD_B).equivalent
    assert fb_equivalent(FWD_B, reduced).equivalent
    assert fb_equivalent(FWD_A, reduced).equivalent


def test_fb_equivalence_implies_bounded_language_equality():
    rng = random.Random(60)
    confirmed = 0
    for _ in range(40):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        if fb_equivalent(a, b).equivalent:
            confirmed += 1
            assert language_oracle(a, 6) == language_oracle(b, 6)
    # regression pin: the converse fails on the language-equal golden pair
    assert not fb_equivalent(LANG_A, LANG_B).equivalent


def _sparse_and_relabelled(n, seed):
    """A random automaton with two successor draws per state and symbol, and
    a copy with its states renamed by a random permutation."""
    rng = random.Random(seed)
    edges = {
        x: [(q, rng.randrange(n)) for q in range(n) for _ in range(2)]
        for x in ("a", "b")
    }
    tau = set(rng.sample(range(n), n // 5))
    perm = list(range(n))
    rng.shuffle(perm)

    def build(name):
        terminal = {name[t] for t in tau}
        return Nfa(
            n, ("a", "b"),
            {x: BoolRel.from_pairs(n, n, [(name[p], name[q]) for p, q in pairs])
             for x, pairs in edges.items()},
            [name[0] == q for q in range(n)],
            [q in terminal for q in range(n)],
        )

    return build(list(range(n))), build(perm)


def test_fb_equivalent_on_1000_sparse_states_takes_seconds():
    a, b = _sparse_and_relabelled(1000, 60)
    start = time.perf_counter()
    verdict = fb_equivalent(a, b)
    assert time.perf_counter() - start < 3
    assert verdict.equivalent


def _line(n, closed, name=None):
    """A chain (a ring when closed) stepping on ``a``, with ``b`` looping on
    every state, its state q renamed name[q]; the ring's state 0 is initial
    and terminal, the chain runs from 0 to n - 1."""
    name = name or range(n)
    step = [(q, q + 1) for q in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    first, last = name[0], name[0 if closed else n - 1]
    return Nfa(
        n, ("a", "b"),
        {"a": BoolRel.from_pairs(n, n, [(name[p], name[q]) for p, q in step]),
         "b": BoolRel.identity(n)},
        [q == first for q in range(n)],
        [q == last for q in range(n)],
    )


@pytest.mark.parametrize(
    "n, closed, limit", [(1024, False, 8), (512, True, 2)], ids=["chain-1024", "ring-512"]
)
def test_fb_equivalent_on_deep_automata_takes_seconds(n, closed, limit):
    # Both routes refine about n rounds (the ring's colouring about n / 2),
    # each keying only the predecessors of the states split off before.
    a = _line(n, closed)
    b = _line(n, closed, random.Random(n).sample(range(n), n)) if closed else a
    start = time.perf_counter()
    verdict = fb_equivalent(a, b)
    assert time.perf_counter() - start < limit
    assert verdict.equivalent


# --- weak equivalence --------------------------------------------------------


def test_wfb_equivalent_golden_pair():
    assert wfb_equivalent(WEAK_A, WEAK_B).equivalent
    assert not fb_equivalent(WEAK_A, WEAK_B).equivalent


def test_wfb_equivalent_modified_initials():
    assert not wfb_equivalent(WEAK_A_MOD, WEAK_B_MOD).equivalent
    assert language_equivalent(WEAK_A_MOD, WEAK_B_MOD).equivalent


def test_fb_equivalence_implies_weak():
    rng = random.Random(61)
    for _ in range(30):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        if fb_equivalent(a, b).equivalent:
            assert wfb_equivalent(a, b).equivalent
    assert wfb_equivalent(WEAK_A, WEAK_B).equivalent  # converse fails above


def test_wfb_equivalent_to_own_weak_factor():
    rng = random.Random(62)
    automata = [WEAK_A, LANG_A, HETERO_B] + [
        random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        for _ in range(10)
    ]
    for a in automata:
        assert wfb_equivalent(a, factor(a, wfb_equivalence_bound(a))).equivalent


# --- language decisions ---------------------------------------------------------


def test_language_equivalent_witness():
    verdict = language_equivalent(WEAK_A, WEAK_A_MOD)
    assert not verdict.equivalent
    assert verdict.witness == ()  # the empty word separates the two


def test_language_equivalent_requires_same_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        language_equivalent(FWD_A, LANG_A)


@st.composite
def _language_pairs(draw):
    """Two automata over the same one or two symbols, B's declared in a
    drawn order.  A has one to four states; B is drawn the same way, or is
    the disjoint union of two copies of A (A's language), or is A with one
    more edge (a language that may differ from A's only in longer words)."""

    def parts(alphabet):
        n = draw(st.integers(1, 4))
        states = st.integers(0, n - 1)
        delta = {x: draw(st.sets(st.tuples(states, states))) for x in alphabet}
        sigma = draw(st.sets(states, min_size=1))
        tau = draw(st.sets(states, min_size=1))
        return n, delta, sigma, tau

    def build(alphabet, n, delta, sigma, tau):
        return Nfa(n, alphabet,
                   {x: BoolRel.from_pairs(n, n, delta[x]) for x in alphabet},
                   [q in sigma for q in range(n)], [q in tau for q in range(n)])

    alphabet = ("x", "y")[:draw(st.integers(1, 2))]
    order = tuple(draw(st.permutations(alphabet)))
    n, delta, sigma, tau = parts(alphabet)
    shape = draw(st.sampled_from(("drawn", "twice", "one-more-edge")))
    if shape == "drawn":
        b = build(order, *parts(order))
    elif shape == "twice":
        twice = {
            x: delta[x] | {(p + n, q + n) for p, q in delta[x]} for x in alphabet
        }
        b = build(order, 2 * n, twice, sigma | {q + n for q in sigma},
                  tau | {q + n for q in tau})
    else:
        states = st.integers(0, n - 1)
        x, edge = draw(st.sampled_from(alphabet)), draw(st.tuples(states, states))
        more = {y: delta[y] | ({edge} if y == x else set()) for y in alphabet}
        b = build(order, n, more, sigma, tau)
    return build(alphabet, n, delta, sigma, tau), b


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_language_pairs())
def test_language_equivalent_is_exact(pair):
    a, b = pair
    verdict = language_equivalent(a, b)
    if verdict.equivalent:
        assert set(language_oracle(a, 10)) == set(language_oracle(b, 10))
        return
    word = verdict.witness
    separating = set(language_oracle(a, len(word))) ^ set(
        language_oracle(b, len(word))
    )
    order = {x: k for k, x in enumerate(a.alphabet)}
    assert min(separating, key=lambda u: (len(u), [order[x] for x in u])) == word


# --- weak forward isomorphism -----------------------------------------------------


def test_weak_forward_isomorphism_identity():
    assert weak_forward_isomorphism(WEAK_A, WEAK_A) == (0, 1, 2, 3)


def test_weak_forward_isomorphism_between_factor_and_small():
    factored = factor(WEAK_A, wfb_equivalence_bound(WEAK_A))
    phi = weak_forward_isomorphism(factored, WEAK_B)
    assert phi is not None
    assert is_weak_forward_isomorphism(factored, WEAK_B, phi)
    # the two are still not isomorphic in the strong sense
    assert find_isomorphism(factored, WEAK_B) is None


def test_weak_forward_isomorphism_none_between_language_pair():
    fa = factor(LANG_A, wfb_equivalence_bound(LANG_A))
    fb = factor(LANG_B, wfb_equivalence_bound(LANG_B))
    assert weak_forward_isomorphism(fa, fb) is None


def test_weak_forward_isomorphism_respects_initials():
    phi = weak_forward_isomorphism(WEAK_A_MOD, WEAK_A_MOD)
    assert phi is not None
    factored = factor(WEAK_A_MOD, wfb_equivalence_bound(WEAK_A_MOD))
    assert weak_forward_isomorphism(factored, WEAK_B_MOD) is None


# --- reduction ----------------------------------------------------------------------


def test_reduce_golden_counts():
    assert reduce(FWD_B, "fb").n == 3
    assert reduce(WEAK_A, "wfb").n == 2
    assert reduce(WEAK_A, "fb").n == 4


def test_reduce_idempotent_up_to_isomorphism():
    once = reduce(FWD_B, "fb")
    twice = reduce(once, "fb")
    assert find_isomorphism(once, twice) is not None
    weak_once = reduce(WEAK_A, "wfb")
    weak_twice = reduce(weak_once, "wfb")
    assert weak_twice.n == weak_once.n
    assert weak_forward_isomorphism(weak_once, weak_twice) is not None


def test_reduce_minimality():
    rng = random.Random(63)
    automata = [FWD_B, WEAK_A] + [
        random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        for _ in range(10)
    ]
    for a in automata:
        reduced = reduce(a, "fb")
        assert greatest_fb_equivalence(reduced) == Partition.identity(reduced.n)


def test_reduce_preserves_bounded_language():
    rng = random.Random(64)
    for _ in range(30):
        a = random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        reference = language_oracle(a, 6)
        for mode in REDUCTION_MODES:
            assert language_oracle(reduce(a, mode), 6) == reference


def test_reduce_alternate_never_grows():
    rng = random.Random(65)
    for _ in range(15):
        a = random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        alt = reduce(a, "alternate")
        assert alt.n <= reduce(a, "fb").n
        assert alt.n <= reduce(a, "bb").n


def test_reduce_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        reduce(FWD_A, "minimal")


# --- uniform cross-checks --------------------------------------------------------------


def test_uniform_fb_crosscheck_golden():
    report = uniform_fb_crosscheck(FWD_A, FWD_B, FWD_PHI2)
    assert report.verdict
    assert report.kernel_ok and report.cokernel_ok and report.factor_iso_ok
    assert all(ok for _, ok in report.equalities)


def test_uniform_fb_crosscheck_rejects_non_uniform():
    with pytest.raises(ValueError, match="uniform"):
        uniform_fb_crosscheck(HETERO_A, HETERO_B, HETERO_BFB_GREATEST)


def test_uniform_fb_crosscheck_random_agreement():
    rng = random.Random(66)
    negatives = 0
    for _ in range(60):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        phi = random_uniform_relation(rng, a.n, b.n)
        report = uniform_fb_crosscheck(a, b, phi)
        assert report.structural == report.direct
        if not report.verdict:
            negatives += 1
    assert negatives  # random relations are rarely bisimulations


def test_uniform_bfb_crosscheck_natural_function():
    # the class map onto any forward-equivalence factor passes both readings
    for a in (FWD_B, WEAK_A):
        part = greatest_fb_equivalence(a)
        quotient = factor(a, part)
        nat = BoolRel.from_pairs(
            a.n, quotient.n, [(i, part.class_of[i]) for i in range(a.n)]
        )
        fb_report = uniform_fb_crosscheck(a, quotient, nat)
        bfb_report = uniform_bfb_crosscheck(a, quotient, nat)
        assert fb_report.verdict and bfb_report.verdict


def test_uniform_bfb_crosscheck_random_agreement():
    rng = random.Random(67)
    for _ in range(60):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        phi = random_uniform_relation(rng, a.n, b.n)
        report = uniform_bfb_crosscheck(a, b, phi)
        assert report.structural == report.direct


# --- functional relations -------------------------------------------------------------


def test_function_checks_agree_on_natural_functions():
    for a in (FWD_B, LANG_A):
        part = greatest_fb_equivalence(a)
        quotient = factor(a, part)
        nat = BoolRel.from_pairs(
            a.n, quotient.n, [(i, part.class_of[i]) for i in range(a.n)]
        )
        assert function_fb_iff_bfb(a, quotient, nat)


def test_function_checks_agree_on_random_functions():
    rng = random.Random(68)
    for _ in range(60):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        f = random_functional_relation(rng, a.n, b.n)
        function_fb_iff_bfb(a, b, f)  # raises on disagreement


def test_function_check_rejects_non_functional():
    with pytest.raises(ValueError, match="row 0 has 2"):
        function_fb_iff_bfb(HETERO_A, HETERO_B, BoolRel.from_bits([[1, 1, 0], [0, 1, 0]]))


def test_degenerate_boundary_vectors_are_supported():
    # automata with empty initial or terminal vectors flow through the
    # deciders and reductions without special-casing, and the two decision
    # paths keep agreeing (the deciders assert that internally)
    rng = random.Random(69)
    autos = []
    for n in (1, 2, 3):
        for _ in range(4):
            delta = {
                x: BoolRel(n, n, [rng.randrange(1 << n) for _ in range(n)])
                for x in ("x", "y")
            }
            sigma = BoolVec(n, rng.randrange(1 << n))
            tau = BoolVec(n, rng.randrange(1 << n))
            autos.append(Nfa(n, ("x", "y"), delta, sigma, tau))
    assert any(a.sigma.is_empty() or a.tau.is_empty() for a in autos)
    for a in autos:
        for b in autos:
            verdict = fb_equivalent(a, b)
            wfb_equivalent(a, b)
            if verdict.equivalent:
                assert language_oracle(a, 5) == language_oracle(b, 5)
        for mode in REDUCTION_MODES:
            assert language_oracle(reduce(a, mode), 5) == language_oracle(a, 5)


# --- structural correspondences ---------------------------------------------------------


def test_greatest_equivalence_correspondence():
    # F is the greatest forward equivalence exactly when its image under the
    # two-stage quotient is greatest on the factor, for equivalences E <= F
    for a in (FWD_B, WEAK_A, LANG_A):
        best = greatest_fb_equivalence(a)
        fb_parts = [
            part
            for part in all_partitions(a.n)
            if check(BisimKind.FORWARD_BISIM, a, a, part.to_relation()).ok
        ]
        for e in fb_parts:
            quotient = factor(a, e)
            for f in fb_parts:
                if not e.refines(f):
                    continue
                projected = quotient_partition_oracle(f, e)
                projected_best = greatest_fb_equivalence(quotient)
                assert (f == best) == (projected == projected_best)
