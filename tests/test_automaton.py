import itertools
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfabisim import automaton
from nfabisim.automaton import (
    Nfa,
    _refine,
    accepts,
    factor,
    find_isomorphism,
    is_isomorphism,
    random_nfa,
    reverse,
    sigma_u,
)
from nfabisim.bisim import BisimKind, check, greatest_fb_equivalence, greatest_forward_bisim
from nfabisim.relcalc import (
    BoolRel,
    BoolVec,
    Partition,
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
from oracles import (
    all_partitions,
    compose_oracle,
    delta_word_oracle,
    factor_oracle,
    isomorphism_oracle,
    language_oracle,
    quotient_partition_oracle,
    random_partition,
    refine_oracle,
    subautomaton_oracle,
)


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
# The word-relation oracle the sigma_u test below relies on, then sigma_u.
# tau_u, the states from which reading u can end in a terminal state, is
# sigma_u of the reversed automaton on the reversed word.


def test_delta_word_empty_is_identity():
    assert delta_word_oracle(FWD_A, "") == BoolRel.identity(3)


def test_delta_word_golden():
    got = delta_word_oracle(FWD_A, "xy")
    assert got == compose_oracle(FWD_A.delta["x"], FWD_A.delta["y"])
    assert got == BoolRel.from_bits([[1, 1, 1], [0, 0, 1], [1, 1, 0]])


def test_delta_word_unknown_symbol():
    with pytest.raises(ValueError, match="'z'"):
        delta_word_oracle(FWD_A, "xz")


def test_delta_word_concatenation():
    rng = random.Random(40)
    for _ in range(20):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        u = tuple(rng.choice("xy") for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice("xy") for _ in range(rng.randint(0, 3)))
        assert delta_word_oracle(a, u + v) == compose_oracle(
            delta_word_oracle(a, u), delta_word_oracle(a, v)
        )


def test_sigma_tau_word_vectors_golden():
    assert sigma_u(reverse(WEAK_A), "") == WEAK_A.tau
    assert sigma_u(reverse(WEAK_A), "x") == BoolVec.zeros(4)
    assert sigma_u(WEAK_B, "x") == BoolVec.from_bits([1, 0])


def test_sigma_tau_incremental_identities():
    rng = random.Random(41)
    for _ in range(20):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        rev = reverse(a)
        u = tuple(rng.choice("xy") for _ in range(rng.randint(0, 4)))
        x = rng.choice("xy")
        assert sigma_u(a, u) == vec_rel(a.sigma, delta_word_oracle(a, u))
        assert sigma_u(rev, u[::-1]) == rel_vec(delta_word_oracle(a, u), a.tau)
        assert sigma_u(a, u + (x,)) == vec_rel(sigma_u(a, u), a.delta[x])
        assert sigma_u(rev, u[::-1] + (x,)) == rel_vec(
            a.delta[x], sigma_u(rev, u[::-1])
        )


# --- languages -------------------------------------------------------------


def test_bounded_language_golden():
    assert language_oracle(LANG_A, 6) == [("x",)]
    assert language_oracle(LANG_B, 6) == [("x",)]
    assert accepts(LANG_A, "x") and not accepts(LANG_A, "xx")


def test_bounded_language_unreachable_terminal():
    a = Nfa(2, ("x",), {"x": [[1, 0], [0, 0]]}, [1, 0], [0, 1])
    assert language_oracle(a, 5) == []


def test_bounded_language_modified_weak_pair_is_epsilon():
    assert language_oracle(WEAK_A_MOD, 6) == [()]
    assert language_oracle(WEAK_B_MOD, 6) == [()]


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
        forward = {tuple(reversed(w)) for w in language_oracle(a, 4)}
        assert set(language_oracle(reverse(a), 4)) == forward


# --- factor automata ---------------------------------------------------------


def test_factor_by_identity_is_isomorphic():
    quotient = factor(FWD_B, Partition.identity(5))
    assert find_isomorphism(FWD_B, quotient) is not None


def test_factor_weak_golden():
    quotient = factor(WEAK_A, Partition.from_classes(4, [[0, 1, 3], [2]]))
    assert quotient.n == 2
    assert language_oracle(quotient, 6) == language_oracle(WEAK_A, 6)


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
                two_step = factor(factor(a, e), quotient_partition_oracle(f, e))
                one_step = factor(a, f)
                assert find_isomorphism(two_step, one_step) is not None


def test_partition_correspondence_on_four_elements():
    # coarsenings of e correspond one-to-one with partitions of its classes,
    # and the bijection preserves refinement in both directions
    parts = list(all_partitions(4))
    assert len(parts) == 15
    for e in parts:
        coarser = [f for f in parts if e.refines(f)]
        images = {f: quotient_partition_oracle(f, e) for f in coarser}
        assert len(set(images.values())) == len(coarser)
        assert set(images.values()) == set(all_partitions(e.num_classes))
        for f in coarser:
            for g in coarser:
                assert f.refines(g) == images[f].refines(images[g])


# --- subautomata ---------------------------------------------------------------
# The restriction oracle the test below relies on.


def test_subautomaton_keep_all():
    assert subautomaton_oracle(FWD_A, range(3)) == FWD_A


def test_subautomaton_empty_keep():
    with pytest.raises(ValueError):
        subautomaton_oracle(FWD_A, ())


def test_restriction_to_domain_and_image_keeps_simulations():
    # an accepted forward bisimulation restricted to its domain and image
    # stays a forward bisimulation between the subautomata
    rep = greatest_forward_bisim(LANG_A, LANG_B)
    phi = rep.relation
    dom = BoolVec.from_bits([1 if phi.row_masks[a] else 0 for a in range(phi.rows)])
    im = vec_rel(dom, phi)
    dom_idx, im_idx = dom.indices(), im.indices()
    sub_a = subautomaton_oracle(LANG_A, dom_idx)
    sub_b = subautomaton_oracle(LANG_B, im_idx)
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


def _copies(c, count):
    """The disjoint union of ``count`` copies of c, copy k on states
    k * c.n onwards."""
    n = c.n * count
    delta = {
        x: BoolRel.from_pairs(n, n, [
            (k * c.n + i, k * c.n + j)
            for k in range(count) for i, j in c.delta[x].pairs()
        ])
        for x in c.alphabet
    }
    return Nfa(n, c.alphabet, delta, list(c.sigma) * count, list(c.tau) * count)


def _cycle_union(*sizes):
    """Disjoint cycles on one symbol, every state initial, none terminal."""
    n = sum(sizes)
    edges, base = [], 0
    for size in sizes:
        edges += [(base + i, base + (i + 1) % size) for i in range(size)]
        base += size
    return Nfa(n, ("x",), {"x": BoolRel.from_pairs(n, n, edges)}, [1] * n, [0] * n)


def _path(n):
    """States 0 to n-1 in a line on one symbol, 0 initial."""
    edges = [(i, i + 1) for i in range(n - 1)]
    mark = [1] + [0] * (n - 1)
    return Nfa(n, ("x",), {"x": BoolRel.from_pairs(n, n, edges)}, mark, [0] * n)


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


def _least_isomorphism(a, b):
    return min(
        (p for p in itertools.permutations(range(a.n)) if is_isomorphism(a, b, p)),
        default=None,
    )


def test_find_isomorphism_is_least_among_all_bijections(monkeypatch):
    # Unions of equal cycles or of equal other components leave states of
    # one colour in several components, so the search has to individualize
    # and back out of images at the wrong distance or in the wrong component.
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(2, 7)
        if trial % 2:
            a = random_nfa(n, ("x",), 0.25, rng.randrange(1 << 30))
        else:
            k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            a = _relabel(_cycle_union(*[k] * (n // k)), rng.sample(range(n), n))
        b = _relabel(a, rng.sample(range(n), n))
        assert find_isomorphism(a, b) == _least_isomorphism(a, b)
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.choice([d for d in range(1, n) if n % d == 0])
        alphabet = rng.choice([("x",), ("x", "y")])
        c = random_nfa(k, alphabet, 0.4, rng.randrange(1 << 30))
        a = _relabel(_copies(c, n // k), rng.sample(range(n), n))
        b = _relabel(a, rng.sample(range(n), n))
        assert find_isomorphism(a, b) == _least_isomorphism(a, b)

    # Colour refinement cannot tell cycles of one length from another.  A's
    # state 0 lies on its 4-cycle.  Against a 2-cycle and a 4-cycle, its
    # least candidates 0 and 1 lie on the 2-cycle and fail once refined, and
    # candidate 2 succeeds; against two 3-cycles every candidate fails.
    outcomes = []
    refine = automaton._balanced_refine

    def recorded(*args):
        block = refine(*args)
        outcomes.append(block is not None)
        return block

    monkeypatch.setattr(automaton, "_balanced_refine", recorded)
    a = _cycle_union(4, 2)
    for b, expected, refined in (
        (_cycle_union(2, 4), (2, 3, 4, 5, 0, 1), [True, False, False, True, True]),
        (_cycle_union(3, 3), None, [True] + [False] * 6),
    ):
        outcomes.clear()
        assert find_isomorphism(a, b) == expected == _least_isomorphism(a, b)
        assert outcomes == refined


@pytest.mark.parametrize(
    "spec, seed",
    [(lambda: _cycle_union(9, 9, 9), 3), (lambda: _copies(_path(3), 30), 0)],
    ids=["three-9-cycles", "30-paths"],
)
def test_find_isomorphism_on_equal_components_is_fast(spec, seed):
    # Colour refinement leaves every colour spread over all the copies, so
    # backtracking image by image is exponential here.
    a = spec()
    rng = random.Random(seed)
    one = _relabel(a, rng.sample(range(a.n), a.n))
    other = _relabel(a, rng.sample(range(a.n), a.n))
    start = time.perf_counter()
    phi = find_isomorphism(one, other)
    assert time.perf_counter() - start < 1
    assert phi is not None and is_isomorphism(one, other, phi)


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


@pytest.mark.parametrize("marks", ["initial", "terminal"])
def test_find_isomorphism_matches_initial_and_terminal_states(marks):
    # Two edgeless states told apart by one bit: initial and terminal
    # agreement comes from the starting colours alone.
    delta = {"x": BoolRel(2, 2, [0, 0])}
    one, other = ([0, 1], [0, 0]), ([1, 0], [0, 0])
    if marks == "terminal":
        one, other = one[::-1], other[::-1]
    a, b = Nfa(2, ("x",), delta, *one), Nfa(2, ("x",), delta, *other)
    assert find_isomorphism(a, b) == (1, 0)


def _ring(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    mark = [1] + [0] * (n - 1)
    return Nfa(n, ("x",), {"x": BoolRel.from_pairs(n, n, edges)}, mark, mark)


@pytest.mark.parametrize(
    "make, size",
    [(lambda: random_nfa(600, ("x", "y"), 2 / 600, 1), 590), (lambda: _ring(300), 300)],
    ids=["random-600", "ring-300"],
)
def test_find_isomorphism_on_relabelled_fb_factors_is_the_relabelling(make, size):
    # On an fb factor the stable colouring leaves one state per colour on
    # each side, so the result is exactly the relabelling.  The ring needs
    # about n/2 colour rounds, spreading out from its one marked state.
    a = make()
    f = factor(a, greatest_fb_equivalence(a))
    assert f.n == size
    perm = random.Random(f.n).sample(range(f.n), f.n)
    assert find_isomorphism(f, _relabel(f, perm)) == tuple(perm)


def test_find_isomorphism_rejects_colours_that_part_late():
    # Two marked 30-cycles against a marked 20-cycle and a marked 40-cycle:
    # every state has one successor and one predecessor, and a state's
    # colour after k rounds is its distance to the mark either way, capped
    # at k.  The colour counts of the two sides agree for nine rounds and
    # part in the tenth, when the 20-cycle's far state sees its mark.
    def rings(*sizes):
        edges, marks, base = [], [], 0
        for size in sizes:
            edges += [(base + i, base + (i + 1) % size) for i in range(size)]
            marks.append(base)
            base += size
        rel = BoolRel.from_pairs(base, base, edges)
        tau = [1 if i in marks else 0 for i in range(base)]
        return Nfa(base, ("x",), {"x": rel}, [0] * base, tau)

    assert find_isomorphism(rings(30, 30), rings(20, 40)) is None


# --- the refinement engine against naive rounds ------------------------------


def _refine_rounds(block, tables):
    """``_refine``'s rounds as sets of blocks.  Along the way it checks what
    callers read besides the partition: ``moved`` lists exactly the states
    whose id changed, and a split block leaves its id to a largest piece."""
    rounds, prev = [], block
    for new, moved in _refine(block, tables):
        assert sorted(moved) == [i for i, (p, q) in enumerate(zip(prev, new)) if p != q]
        pieces = Counter(zip(prev, new))
        assert all(pieces[p, p] >= size for (p, _), size in pieces.items())
        rounds.append({frozenset(i for i, q in enumerate(new) if q == b)
                       for b in set(new)})
        prev = new
    return rounds


def _with_preds(succ):
    """A successor table and its predecessor table, the shape of one symbol
    in ``find_isomorphism``'s colouring."""
    pred = [[] for _ in succ]
    for i, targets in enumerate(succ):
        for j in targets:
            pred[j].append(i)
    return [succ, pred]


def _cycles(*sizes):
    """Labels and tables of disjoint cycles, each with its first state
    terminal, labelled 2 * initial + terminal as ``find_isomorphism`` does."""
    succ, block = [], []
    for size in sizes:
        base = len(succ)
        succ += [[base + (i + 1) % size] for i in range(size)]
        block += [int(i == 0) for i in range(size)]
    return block, _with_preds(succ)


def _stars(length=10, stars=20, loops=5):
    """A chain 0..length into its one marked state, ``stars`` states that
    step to the chain's first state and ``loops`` states on self-loops.  Once
    the chain's first state splits off, the stars are keyed and the loops are
    not, and the stars outnumber them."""
    succ = [[q + 1] for q in range(length)] + [[]]
    succ += [[0]] * stars
    succ += [[len(succ) + q] for q in range(loops)]
    block = [int(q == length) for q in range(len(succ))]
    return block, [succ]


@st.composite
def _refine_inputs(draw):
    shape = draw(st.sampled_from(("random", "line", "cycles")))
    if shape == "random":
        n = draw(st.integers(1, 10))
        labels = draw(st.sampled_from((st.integers(0, 2), st.integers(0, 3))))
        neighbours = st.lists(st.integers(0, n - 1), max_size=3)
        tables = draw(st.lists(
            st.lists(neighbours, min_size=n, max_size=n), min_size=1, max_size=3
        ))
        return draw(st.lists(labels, min_size=n, max_size=n)), tables
    if shape == "cycles":
        sizes = st.lists(st.integers(2, 16), min_size=1, max_size=3)
        return _cycles(*draw(sizes), *draw(sizes))
    # A chain or ring long enough that its later rounds split off less than
    # an eighth of the states, with a few extra edges and marks.
    n = draw(st.integers(16, 32))
    succ = [[q + 1] for q in range(n - 1)] + [[0] if draw(st.booleans()) else []]
    for _ in range(draw(st.integers(0, 3))):
        succ[draw(st.integers(0, n - 1))].append(draw(st.integers(0, n - 1)))
    marks = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    block = [int(q in marks) for q in range(n)]
    return block, _with_preds(succ) if draw(st.booleans()) else [succ]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_refine_inputs())
@example(_cycles(30, 30, 20, 40))
@example(_stars())
@example(([0, 0, 1], [[[], [], []]]))
def test_refine_rounds_are_the_naive_rounds(inputs):
    block, tables = inputs
    assert _refine_rounds(block, tables) == refine_oracle(block, tables)


def _counting(tables):
    """Copies of neighbour tables whose rows count how often they are read,
    and the counter."""
    reads = [0]

    class Row(list):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    return [[Row(row) for row in t] for t in tables], reads


def test_refine_rounds_run_on_predecessors_of_split_pieces():
    # A chain splits one state off its unmarked block per round, so every
    # round after the first keys only a few states: the predecessors of the
    # states the round before moved, one row per table each.  The first
    # round reads every row, and so does building the predecessor lists for
    # the second.
    n = 64
    block = [int(q == n - 1) for q in range(n)]
    plain = _with_preds([[q + 1] for q in range(n - 1)] + [[]])
    preds = [{i for t in plain for i, row in enumerate(t) if j in row} for j in range(n)]
    tables, reads = _counting(plain)
    counts, moves = [], []
    for _, moved in _refine(block, tables):
        counts.append(reads[0])
        reads[0] = 0
        moves.append(moved)
    keyed = [set().union(*map(preds.__getitem__, m)) for m in moves[:-1]]
    assert all(8 * len(m) <= n for m in moves)
    assert counts == [2 * n, 2 * n + 2 * len(keyed[0])] + [2 * len(k) for k in keyed[1:]]
    assert len(counts) > 30
    assert _refine_rounds(block, tables) == refine_oracle(block, tables)
    # When the keyed stars outnumber the loops, the stars keep their id and
    # the loops move.
    parting = [set(moved) for _, moved in _refine(*_stars())
               if moved and set(moved) & set(range(11, 36))]
    assert parting == [set(range(31, 36))]


def test_is_isomorphism_rejects_non_bijections():
    assert not is_isomorphism(FWD_A, FWD_A, (0, 0, 1))
    assert not is_isomorphism(FWD_A, FWD_A, (0, 2, 1))


def test_state_map_images_match_the_definitions():
    # factor and is_isomorphism against set-based oracles that share no
    # code with them: random partitions, then
    # every permutation onto the automaton itself, onto a relabelled copy,
    # onto that copy with its alphabet declared in another order and onto
    # one-bit near-copies of it, and last a few non-bijections
    rng = random.Random(2024)
    positives = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        alphabet = ("x", "y", "z")[: rng.randint(1, 3)]
        density = rng.choice([0.2, 0.4, 0.7])
        a = random_nfa(n, alphabet, density, rng.randrange(1 << 30))
        for _ in range(3):
            e = random_partition(rng, n, rng.randint(1, n))
            assert factor(a, e) == factor_oracle(a, e)
        perm = tuple(rng.sample(range(n), n))
        copy = _relabel(a, perm)
        shuffled = Nfa(n, alphabet[::-1], copy.delta, copy.sigma, copy.tau)
        # near-copies that differ from the relabelled copy in one bit each
        q, x = rng.randrange(n), rng.choice(alphabet)
        bit = 1 << q
        rows = list(copy.delta[x].row_masks)
        rows[q] ^= 1 << rng.randrange(n)
        moved = {**copy.delta, x: BoolRel(n, n, rows)}
        near = [
            Nfa(n, alphabet, copy.delta, BoolVec(n, copy.sigma.mask ^ bit), copy.tau),
            Nfa(n, alphabet, copy.delta, copy.sigma, BoolVec(n, copy.tau.mask ^ bit)),
            Nfa(n, alphabet, moved, copy.sigma, copy.tau),
        ]
        for b in [a, copy, shuffled] + near:
            for phi in itertools.permutations(range(n)):
                expected = isomorphism_oracle(a, b, phi)
                assert is_isomorphism(a, b, phi) == expected
                positives += expected
        assert is_isomorphism(a, shuffled, perm)
        broken = [perm[:-1], perm + (0,), perm[:-1] + (n,)]
        if n > 1:
            broken.append((perm[1],) + perm[1:])
        for phi in broken:
            assert not isomorphism_oracle(a, copy, phi)
            assert not is_isomorphism(a, copy, phi)
        other = Nfa(n, ("w",), {"w": BoolRel.empty(n, n)}, a.sigma, a.tau)
        assert not is_isomorphism(a, other, perm)
        assert not isomorphism_oracle(a, other, perm)
    assert positives > 100


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
