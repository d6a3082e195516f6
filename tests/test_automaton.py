import itertools
import random
import sys

import pytest

from nfabisim.automaton import (
    Nfa,
    accepts,
    bounded_language,
    delta_word,
    factor,
    find_isomorphism,
    is_isomorphism,
    random_nfa,
    reverse,
    sigma_u,
    subautomaton,
    tau_u,
)
from nfabisim.bisim import BisimKind, check, greatest_fb_equivalence, greatest_forward_bisim
from nfabisim.relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    compose,
    quotient_partition,
    rel_vec,
    vec_rel,
)

from goldens import (
    FWD_A,
    FWD_B,
    HETERO_A,
    LANG_A,
    LANG_B,
    WEAK_A,
    WEAK_A_MOD,
    WEAK_B,
    WEAK_B_MOD,
)
from oracles import all_partitions, compose_oracle, language_oracle


def test_constructor_validation():
    with pytest.raises(ValueError, match="alphabet"):
        Nfa(2, (), {}, [1, 0], [0, 1])
    with pytest.raises(ValueError, match="unique"):
        Nfa(2, ("x", "x"), {"x": [[0, 0], [0, 0]]}, [1, 0], [0, 1])
    with pytest.raises(ValueError, match="cover"):
        Nfa(2, ("x", "y"), {"x": [[0, 0], [0, 0]]}, [1, 0], [0, 1])
    with pytest.raises(ValueError, match="2x2"):
        Nfa(2, ("x",), {"x": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}, [1, 0], [0, 1])
    with pytest.raises(ValueError, match="length"):
        Nfa(2, ("x",), {"x": [[0, 0], [0, 0]]}, [1, 0, 0], [0, 1])


# --- word relations -------------------------------------------------------


def test_delta_word_empty_is_identity():
    assert delta_word(FWD_A, "") == BoolRel.identity(3)


def test_delta_word_golden():
    got = delta_word(FWD_A, "xy")
    assert got == compose_oracle(FWD_A.delta["x"], FWD_A.delta["y"])
    assert got == BoolRel.from_bits([[1, 1, 1], [0, 0, 1], [1, 1, 0]])


def test_delta_word_unknown_symbol():
    with pytest.raises(ValueError, match="'z'"):
        delta_word(FWD_A, "xz")


def test_delta_word_concatenation():
    rng = random.Random(40)
    for _ in range(20):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        u = tuple(rng.choice("xy") for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice("xy") for _ in range(rng.randint(0, 3)))
        assert delta_word(a, u + v) == compose(delta_word(a, u), delta_word(a, v))


def test_sigma_tau_word_vectors_golden():
    assert tau_u(WEAK_A, "") == WEAK_A.tau
    assert tau_u(WEAK_A, "x") == BoolVec.zeros(4)
    assert sigma_u(WEAK_B, "x") == BoolVec.from_bits([1, 0])


def test_sigma_tau_incremental_identities():
    rng = random.Random(41)
    for _ in range(20):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        u = tuple(rng.choice("xy") for _ in range(rng.randint(0, 4)))
        x = rng.choice("xy")
        assert sigma_u(a, u) == vec_rel(a.sigma, delta_word(a, u))
        assert tau_u(a, u) == rel_vec(delta_word(a, u), a.tau)
        assert sigma_u(a, u + (x,)) == vec_rel(sigma_u(a, u), a.delta[x])
        assert tau_u(a, (x,) + u) == rel_vec(a.delta[x], tau_u(a, u))


# --- languages -------------------------------------------------------------


def test_bounded_language_golden():
    assert bounded_language(LANG_A, 6) == [("x",)]
    assert bounded_language(LANG_B, 6) == [("x",)]
    assert accepts(LANG_A, "x") and not accepts(LANG_A, "xx")


def test_bounded_language_unreachable_terminal():
    a = Nfa(2, ("x",), {"x": [[1, 0], [0, 0]]}, [1, 0], [0, 1])
    assert bounded_language(a, 5) == []


def test_bounded_language_modified_weak_pair_is_epsilon():
    assert bounded_language(WEAK_A_MOD, 6) == [()]
    assert bounded_language(WEAK_B_MOD, 6) == [()]


def test_bounded_language_order_and_oracle():
    rng = random.Random(42)
    for _ in range(15):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.35, rng.randrange(1 << 30))
        words = bounded_language(a, 4)
        assert words == language_oracle(a, 4)
        keys = [(len(w), tuple("xy".index(s) for s in w)) for w in words]
        assert keys == sorted(keys)


def test_bounded_language_rejects_negative_bound():
    with pytest.raises(ValueError):
        bounded_language(LANG_A, -1)


# --- reversal ---------------------------------------------------------------


def test_reverse_involution():
    assert reverse(reverse(FWD_A)) == FWD_A


def test_reverse_golden():
    rev = reverse(LANG_B)
    assert rev.delta["x"] == BoolRel.from_bits([[0, 0], [1, 0]])
    assert rev.sigma == BoolVec.from_bits([0, 1])
    assert rev.tau == BoolVec.from_bits([1, 0])


def test_reverse_language():
    rng = random.Random(43)
    for _ in range(15):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.35, rng.randrange(1 << 30))
        forward = {tuple(reversed(w)) for w in bounded_language(a, 4)}
        assert set(bounded_language(reverse(a), 4)) == forward


# --- factor automata ---------------------------------------------------------


def test_factor_by_identity_is_isomorphic():
    quotient = factor(FWD_B, Partition.identity(5))
    assert find_isomorphism(FWD_B, quotient) is not None


def test_factor_weak_golden():
    quotient = factor(WEAK_A, Partition.from_classes(4, [[0, 1, 3], [2]]))
    assert quotient.n == 2
    assert set(bounded_language(quotient, 6)) == set(bounded_language(WEAK_A, 6))


def test_factor_by_greatest_forward_equivalence():
    classes = greatest_fb_equivalence(FWD_B)
    assert factor(FWD_B, classes).n == 3


def test_factor_size_mismatch():
    with pytest.raises(ValueError):
        factor(FWD_B, Partition.identity(4))


def test_factor_tower_collapses():
    # factoring in two stages matches factoring once, up to isomorphism
    for a in (LANG_A, WEAK_A, HETERO_A):
        parts = list(all_partitions(a.n))
        for f in parts:
            for e in parts:
                if not e.refines(f):
                    continue
                two_step = factor(factor(a, e), quotient_partition(f, e))
                one_step = factor(a, f)
                assert find_isomorphism(two_step, one_step) is not None


def test_partition_correspondence_on_four_elements():
    # coarsenings of e correspond one-to-one with partitions of its classes,
    # and the bijection preserves refinement in both directions
    parts = list(all_partitions(4))
    assert len(parts) == 15
    for e in parts:
        coarser = [f for f in parts if e.refines(f)]
        images = {f: quotient_partition(f, e) for f in coarser}
        assert len(set(images.values())) == len(coarser)
        assert set(images.values()) == set(all_partitions(e.num_classes))
        for f in coarser:
            for g in coarser:
                assert f.refines(g) == images[f].refines(images[g])


# --- subautomata ---------------------------------------------------------------


def test_subautomaton_keep_all():
    sub = subautomaton(FWD_A, BoolVec.ones(3))
    assert sub == FWD_A


def test_subautomaton_empty_keep():
    with pytest.raises(ValueError):
        subautomaton(FWD_A, BoolVec.zeros(3))


def test_restriction_to_domain_and_image_keeps_simulations():
    # an accepted forward bisimulation restricted to its domain and image
    # stays a forward bisimulation between the subautomata
    rep = greatest_forward_bisim(LANG_A, LANG_B)
    phi = rep.relation
    dom = BoolVec.from_bits([1 if phi.row_masks[a] else 0 for a in range(phi.rows)])
    im = vec_rel(dom, phi)
    sub_a = subautomaton(LANG_A, dom)
    sub_b = subautomaton(LANG_B, im)
    dom_idx, im_idx = dom.indices(), im.indices()
    restricted = BoolRel.from_bits(
        [[phi[i, j] for j in im_idx] for i in dom_idx]
    )
    assert check(BisimKind.FORWARD_BISIM, sub_a, sub_b, restricted).ok


# --- isomorphism search ----------------------------------------------------------


def test_find_isomorphism_self_is_identity():
    for a in (FWD_A, FWD_B, WEAK_A):
        assert find_isomorphism(a, a) == tuple(range(a.n))


def test_find_isomorphism_size_mismatch():
    assert find_isomorphism(LANG_A, LANG_B) is None


def test_find_isomorphism_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet"):
        find_isomorphism(LANG_A, FWD_A)


def _relabel(a, perm):
    inv = [0] * a.n
    for i, p in enumerate(perm):
        inv[p] = i
    delta = {
        x: BoolRel.from_pairs(
            a.n, a.n, [(perm[i], perm[j]) for i, j in a.delta[x].pairs()]
        )
        for x in a.alphabet
    }
    sigma = [0] * a.n
    for i in a.sigma.indices():
        sigma[perm[i]] = 1
    tau = [0] * a.n
    for i in a.tau.indices():
        tau[perm[i]] = 1
    return Nfa(a.n, a.alphabet, delta, sigma, tau)


def test_find_isomorphism_recovers_relabelling():
    rng = random.Random(44)
    for _ in range(20):
        a = random_nfa(rng.randint(2, 6), ("x", "y"), 0.4, rng.randrange(1 << 30))
        perm = list(range(a.n))
        rng.shuffle(perm)
        b = _relabel(a, perm)
        phi = find_isomorphism(a, b)
        assert phi is not None
        assert is_isomorphism(a, b, phi)


def test_find_isomorphism_returns_lexicographically_least():
    # two indistinguishable non-initial, non-terminal sink states admit two
    # automorphisms; the search must pick the identity-style one
    a = Nfa(
        3,
        ("x",),
        {"x": [[0, 1, 1], [0, 0, 0], [0, 0, 0]]},
        [1, 0, 0],
        [1, 0, 0],
    )
    candidates = [
        perm
        for perm in itertools.permutations(range(3))
        if is_isomorphism(a, a, perm)
    ]
    assert len(candidates) > 1
    assert find_isomorphism(a, a) == min(candidates)


def test_find_isomorphism_is_least_among_all_bijections():
    # Unions of equal cycles leave every state the same color, so the search
    # has to back out of images at the wrong distance or in the wrong cycle.
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(2, 7)
        if trial % 2:
            a = random_nfa(n, ("x",), 0.25, rng.randrange(1 << 30))
        else:
            k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            edges = [(i, i - i % k + (i + 1) % k) for i in range(n)]
            delta = {"x": BoolRel.from_pairs(n, n, edges)}
            cycles = Nfa(n, ("x",), delta, [1] * n, [0] * n)
            a = _relabel(cycles, rng.sample(range(n), n))
        b = _relabel(a, rng.sample(range(n), n))
        expected = min(
            p for p in itertools.permutations(range(n)) if is_isomorphism(a, b, p)
        )
        assert find_isomorphism(a, b) == expected


def test_find_isomorphism_deeper_than_the_recursion_limit():
    limit = 200
    n = 2 * limit
    chain = BoolRel.from_pairs(n, n, [(i, i + 1) for i in range(n - 1)])
    a = Nfa(n, ("x",), {"x": chain}, [1] + [0] * (n - 1), [0] * (n - 1) + [1])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        phi = find_isomorphism(a, a)
    finally:
        sys.setrecursionlimit(old)
    assert phi == tuple(range(n))


def test_is_isomorphism_rejects_non_bijections():
    assert not is_isomorphism(FWD_A, FWD_A, (0, 0, 1))
    assert not is_isomorphism(FWD_A, FWD_A, (0, 2, 1))


# --- random generation --------------------------------------------------------------


def test_random_nfa_deterministic():
    a = random_nfa(5, ("x", "y"), 0.4, seed=99)
    b = random_nfa(5, ("x", "y"), 0.4, seed=99)
    assert a == b
    assert a != random_nfa(5, ("x", "y"), 0.4, seed=100)


def test_random_nfa_density_extremes():
    sparse = random_nfa(4, ("x",), 0.0, seed=1)
    assert sparse.delta["x"] == BoolRel.empty(4, 4)
    assert sparse.sigma.count() == 1 and sparse.tau.count() == 1
    dense = random_nfa(4, ("x",), 1.0, seed=1)
    assert dense.delta["x"] == BoolRel.full(4, 4)
    assert dense.sigma == BoolVec.ones(4) and dense.tau == BoolVec.ones(4)


def test_random_nfa_invalid_density():
    with pytest.raises(ValueError, match="density"):
        random_nfa(3, ("x",), 1.5, seed=0)
