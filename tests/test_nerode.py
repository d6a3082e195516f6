import itertools
import random

import pytest

from nfabisim.automaton import Nfa, factor, random_nfa
from nfabisim.bisim import (
    greatest_weak_forward_bisim,
    reachable_terminal_pairs,
    wfb_equivalence_bound,
)
from nfabisim.nerode import Dfa, nerode, reverse_nerode
from nfabisim.relcalc import BoolRel, BoolVec, is_uniform, rel_vec, vec_rel

from goldens import FWD_A, LANG_A, LANG_B, WEAK_A, WEAK_B, WEAK_A_MOD, WEAK_B_MOD
from oracles import (
    _members,
    dfa_isomorphism_oracle,
    language_oracle,
    reverse_oracle,
    subsets_oracle,
    sum_oracle,
)


def dfa_language(dfa, maxlen):
    """Every word of length <= maxlen that ``Dfa.accepts``, in
    length-then-lex order, like ``language_oracle``."""
    return [
        word
        for length in range(maxlen + 1)
        for word in itertools.product(dfa.alphabet, repeat=length)
        if dfa.accepts(word)
    ]


def test_nerode_golden():
    dfa = nerode(LANG_A)
    assert dfa.m == 3
    assert [v.to_text() for v in dfa.subset_of] == ["010", "001", "000"]
    assert dfa.final == (False, True, False)
    assert dfa_language(dfa, 6) == [("x",)]


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
    assert dfa_language(dfa, 5) == language_oracle(a, 5)


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


def _automaton(n, pairs, initial, terminal):
    return Nfa(
        n,
        ("a", "b"),
        {x: BoolRel.from_pairs(n, n, p) for x, p in pairs.items()},
        [int(q in initial) for q in range(n)],
        [int(q in terminal) for q in range(n)],
    )


def _ring_copies(rng, n, k):
    """k copies of an n-ring (``a`` steps round, ``b`` loops, state 0 initial
    and terminal), numbered by one seeded permutation; k = 1 is one ring."""
    perm = rng.sample(range(n * k), n * k)
    at = [[perm[c * n + q] for q in range(n)] for c in range(k)]
    pairs = {
        "a": [(ring[q], ring[(q + 1) % n]) for ring in at for q in range(n)],
        "b": [(ring[q], ring[q]) for ring in at for q in range(n)],
    }
    return _automaton(n * k, pairs, {r[0] for r in at}, {r[0] for r in at})


def _pooled(rng, n, degree, pool):
    """Each successor set, per symbol, one of ``pool`` random sets."""
    pairs = {}
    for x in ("a", "b"):
        sets = [rng.sample(range(n), min(degree, n)) for _ in range(pool)]
        pairs[x] = [(q, t) for q in range(n) for t in sets[rng.randrange(pool)]]
    return _automaton(n, pairs, set(rng.sample(range(n), 1 + n // 8)),
                      set(rng.sample(range(n), 1 + n // 6)))


def _shapes(n):
    """A chain, a ring, ring copies and two pooled automata of size n: the
    chains and rings step single states (the set-bit loop of the subset
    step), the pooled ones dense subsets (its tables)."""
    rng = random.Random(n)
    chain = _automaton(n, {"a": [(q, q + 1) for q in range(n - 1)],
                           "b": [(q, q) for q in range(n)]}, {0}, {n - 1})
    return [chain, _ring_copies(rng, n, 1), _ring_copies(rng, n, 3),
            _pooled(rng, n, 3, 4), _pooled(rng, n, n // 2 + 1, 3)]


def _as_oracle_rows(dfa):
    return [
        (frozenset(_members(v)), list(row), final)
        for v, row, final in zip(dfa.subset_of, dfa.next, dfa.final)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 17, 65])
def test_subset_constructions_match_the_oracle(n):
    # Subset labels, numbering, rows and finals of both constructions, and
    # the order of the terminal-vector pairs, against the set-based search.
    # 9, 17 and 65 states end in a partial 4-column chunk.
    rng = random.Random(71 + n)
    automata = _shapes(n) + [
        random_nfa(n, ("x", "y"), min(0.4, 3 / n), rng.randrange(1 << 30))
        for _ in range(2)
    ]
    if n == 4:
        automata += [WEAK_A]
    if n == 3:
        automata += [LANG_A, LANG_B]
    for a in automata:
        assert nerode(a).start == reverse_nerode(a).start == 0
        assert _as_oracle_rows(nerode(a)) == subsets_oracle(a)
        assert _as_oracle_rows(reverse_nerode(a)) == subsets_oracle(reverse_oracle(a))
    for a, b in zip(automata, automata[1:] + automata[:1]):
        if set(a.alphabet) != set(b.alphabet):
            continue
        expected = [
            ({p for p in s if p < a.n}, {p - a.n for p in s if p >= a.n})
            for s, _, _ in subsets_oracle(reverse_oracle(sum_oracle(a, b)))
        ]
        pairs = reachable_terminal_pairs(a, b)
        assert [(_members(ta), _members(tb)) for ta, tb in pairs] == expected


def test_determinization_preserves_language_depth_8():
    rng = random.Random(72)
    for _ in range(15):
        a = random_nfa(rng.randint(1, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        assert dfa_language(nerode(a), 8) == language_oracle(a, 8)


# --- DFA isomorphism ---------------------------------------------------------
# The oracle the reverse-construction tests below and acceptance criterion 11
# rely on.


def test_dfa_isomorphic_self():
    dfa = nerode(LANG_A)
    assert dfa_isomorphism_oracle(dfa, dfa) == tuple(range(dfa.m))


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
    phi = dfa_isomorphism_oracle(base, relabelled)
    assert phi == perm


def test_dfa_isomorphic_size_mismatch():
    assert dfa_isomorphism_oracle(reverse_nerode(WEAK_A), nerode(LANG_A)) is None


def test_language_equal_pair_determinizes_to_isomorphic_dfas():
    # the two language-equal golden automata share one subset-construction
    # shape even though no bisimulation connects them
    assert dfa_isomorphism_oracle(nerode(LANG_A), nerode(LANG_B)) == (0, 1, 2)


def test_dfa_isomorphic_final_flag_mismatch():
    d1 = nerode(WEAK_A)
    d2 = Dfa(d1.m, d1.alphabet, d1.next, d1.start,
             [not f for f in d1.final], d1.subset_of)
    assert dfa_isomorphism_oracle(d1, d2) is None


def test_dfa_isomorphic_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet"):
        dfa_isomorphism_oracle(nerode(FWD_A), nerode(LANG_A))


# --- link between weak bisimulations and the reverse construction ---------------


def test_weak_pair_has_isomorphic_reverse_nerode_automata():
    ra, rb = reverse_nerode(WEAK_A), reverse_nerode(WEAK_B)
    assert dfa_isomorphism_oracle(ra, rb) is not None


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
        dfa_isomorphism_oracle(reverse_nerode(WEAK_A_MOD), reverse_nerode(WEAK_B_MOD))
        is not None
    )
    rep = greatest_weak_forward_bisim(WEAK_A_MOD, WEAK_B_MOD)
    assert rep.failure == ("initial-backward",)
