import random

import pytest

from nfabisim.automaton import Nfa, bounded_language, factor, random_nfa, reverse
from nfabisim.bisim import (
    greatest_weak_forward_bisim,
    reachable_terminal_pairs,
    wfb_equivalence_bound,
)
from nfabisim.nerode import Dfa, dfa_isomorphic, nerode, reverse_nerode
from nfabisim.relcalc import BoolVec, is_uniform, rel_vec, vec_rel

from goldens import FWD_A, LANG_A, LANG_B, WEAK_A, WEAK_B, WEAK_A_MOD, WEAK_B_MOD


def test_nerode_golden():
    dfa = nerode(LANG_A)
    assert dfa.m == 3
    assert [v.to_text() for v in dfa.subset_of] == ["010", "001", "000"]
    assert dfa.final == (False, True, False)
    assert dfa.bounded_language(6) == [("x",)]


def test_nerode_of_deterministic_input():
    # a complete deterministic automaton determinizes to its reachable part
    a = Nfa(
        3,
        ("x", "y"),
        {
            "x": [[0, 1, 0], [0, 0, 1], [0, 0, 1]],
            "y": [[1, 0, 0], [1, 0, 0], [0, 1, 0]],
        },
        [1, 0, 0],
        [0, 0, 1],
    )
    dfa = nerode(a)
    assert dfa.m == a.n
    assert all(v.count() == 1 for v in dfa.subset_of)
    assert set(dfa.bounded_language(5)) == set(bounded_language(a, 5))


def test_nerode_worst_case_hits_all_subsets():
    # one growing symbol plus one that deletes state 0 reaches every subset
    worst = Nfa(
        3,
        ("a", "b"),
        {
            "a": [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
            "b": [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        },
        [1, 0, 0],
        [0, 0, 1],
    )
    dfa = nerode(worst)
    assert dfa.m == 2 ** worst.n
    assert len({v.mask for v in dfa.subset_of}) == dfa.m


def test_nerode_state_count_bound():
    rng = random.Random(70)
    for _ in range(20):
        a = random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        assert nerode(a).m <= 2 ** a.n


def test_reverse_nerode_golden():
    dfa = reverse_nerode(WEAK_A)
    assert dfa.m == 2
    assert [v.to_text() for v in dfa.subset_of] == ["0010", "0000"]
    assert dfa.final == (False, False)
    # the dead empty subset loops to itself
    empty = dfa.subset_of.index(BoolVec.zeros(4))
    assert dfa.next[empty] == (empty,)


def test_reverse_nerode_is_nerode_of_reverse():
    # Equal, numbering and subset labels included.  The larger sizes cross
    # the 4-column chunks of the preimage tables, at about three successors
    # per state and symbol so that the constructions do not collapse.
    rng = random.Random(71)
    sizes = [rng.randint(1, 6) for _ in range(15)] + [5, 9, 17, 65] * 2
    automata = [WEAK_A, LANG_A, LANG_B] + [
        random_nfa(n, ("x", "y"), min(0.4, 3 / n), rng.randrange(1 << 30))
        for n in sizes
    ]
    for a in automata:
        assert reverse_nerode(a) == nerode(reverse(a))


def test_determinization_preserves_language_depth_8():
    rng = random.Random(72)
    for _ in range(15):
        a = random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        assert set(nerode(a).bounded_language(8)) == set(bounded_language(a, 8))


# --- DFA isomorphism ---------------------------------------------------------


def test_dfa_isomorphic_self():
    dfa = nerode(LANG_A)
    assert dfa_isomorphic(dfa, dfa) == tuple(range(dfa.m))


def test_dfa_isomorphic_relabelled():
    base = nerode(LANG_A)
    perm = (2, 0, 1)
    relabelled = Dfa(
        base.m,
        base.alphabet,
        [
            [perm[base.next[q][k]] for k in range(len(base.alphabet))]
            for q in sorted(range(base.m), key=lambda q: perm[q])
        ],
        perm[base.start],
        [base.final[q] for q in sorted(range(base.m), key=lambda q: perm[q])],
        [base.subset_of[q] for q in sorted(range(base.m), key=lambda q: perm[q])],
    )
    phi = dfa_isomorphic(base, relabelled)
    assert phi == perm


def test_dfa_isomorphic_size_mismatch():
    assert dfa_isomorphic(reverse_nerode(WEAK_A), nerode(LANG_A)) is None


def test_language_equal_pair_determinizes_to_isomorphic_dfas():
    # the two language-equal golden automata share one subset-construction
    # shape even though no bisimulation connects them
    assert dfa_isomorphic(nerode(LANG_A), nerode(LANG_B)) == (0, 1, 2)


def test_dfa_isomorphic_final_flag_mismatch():
    d1 = nerode(WEAK_A)
    d2 = Dfa(d1.m, d1.alphabet, d1.next, d1.start,
             [not f for f in d1.final], d1.subset_of)
    assert dfa_isomorphic(d1, d2) is None


def test_dfa_isomorphic_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet"):
        dfa_isomorphic(nerode(FWD_A), nerode(LANG_A))


# --- link between weak bisimulations and the reverse construction ---------------


def test_weak_pair_has_isomorphic_reverse_nerode_automata():
    assert dfa_isomorphic(reverse_nerode(WEAK_A), reverse_nerode(WEAK_B)) is not None


def test_uniform_weak_bisim_maps_reverse_nerode_states():
    # the accepted uniform weak relation translates terminal vectors of one
    # automaton into the other's, and the two maps invert each other
    mu = greatest_weak_forward_bisim(WEAK_A, WEAK_B).relation
    for ta, tb in reachable_terminal_pairs(WEAK_A, WEAK_B):
        assert vec_rel(ta, mu) == tb
        assert rel_vec(mu, tb) == ta


def test_uniform_weak_bisim_translates_subset_automata_on_random_pairs():
    # pair each automaton with its weak factor: the weak relation is then
    # uniform and accepted, and translating subset labels through it must be
    # a structure-preserving bijection between the two constructions
    rng = random.Random(73)
    checked = 0
    for _ in range(15):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = factor(a, wfb_equivalence_bound(a))
        rep = greatest_weak_forward_bisim(a, b)
        if not rep.exists or not is_uniform(rep.relation):
            continue
        checked += 1
        mu = rep.relation
        da, db = reverse_nerode(a), reverse_nerode(b)
        index_b = {v.mask: q for q, v in enumerate(db.subset_of)}
        image = [index_b[vec_rel(v, mu).mask] for v in da.subset_of]
        assert sorted(image) == list(range(db.m))
        assert image[da.start] == db.start
        for q in range(da.m):
            assert da.final[q] == db.final[image[q]]
            for k in range(len(da.alphabet)):
                assert image[da.next[q][k]] == db.next[image[q]][k]
        back = {v.mask: q for q, v in enumerate(da.subset_of)}
        for q, v in enumerate(db.subset_of):
            assert image[back[rel_vec(mu, v).mask]] == q
    assert checked >= 10


def test_modified_pair_reverse_nerode_still_isomorphic_but_sigma_fails():
    # initial-state conditions, not the reverse construction, reject the
    # modified pair: the terminal behaviour is untouched
    assert (
        dfa_isomorphic(reverse_nerode(WEAK_A_MOD), reverse_nerode(WEAK_B_MOD))
        is not None
    )
    rep = greatest_weak_forward_bisim(WEAK_A_MOD, WEAK_B_MOD)
    assert rep.failure == ("initial-backward",)
