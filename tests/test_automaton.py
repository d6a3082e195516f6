import itertools
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfabisim.automaton import (
    Nfa,
    _image,
    _index_lists,
    _refine,
    _sum,
    accepts,
    factor,
    find_isomorphism,
    is_isomorphism,
    random_nfa,
    reverse,
    sigma_u,
)
from nfabisim.bisim import (
    BisimKind,
    backward_forward_bisim_steps,
    check,
    forward_bisim_steps,
    greatest_fb_equivalence,
    greatest_forward_bisim,
    wfb_equivalence_bound,
)
from nfabisim import automaton
from nfabisim.cli import format_nfa, main, parse_nfa
from nfabisim.equivalence import is_weak_forward_isomorphism, weak_forward_isomorphism
from nfabisim.relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    inverse,
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
    _pairs,
    all_partitions,
    compose_oracle,
    delta_word_oracle,
    factor_oracle,
    isomorphic_oracle,
    isomorphism_oracle,
    language_oracle,
    line_nfa,
    quotient_partition_oracle,
    random_partition,
    refine_oracle,
    refines_oracle,
    rel_from_pairs,
    reverse_oracle,
    subautomaton_oracle,
    sum_oracle,
    weak_isomorphism_oracle,
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
    assert delta_word_oracle(FWD_A, "") == BoolRel(3, 3, [1, 2, 4])


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
    assert sigma_u(reverse(WEAK_A), "x") == BoolVec(4)
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


def test_reverse_is_built_once_and_the_sum_of_reversals_is_the_reversed_sum():
    # An automaton keeps its reversal and the reversal keeps it, so every
    # call after the first returns the same object, and a reversed sum can
    # be assembled from the reversals the summands already keep.
    rng = random.Random(44)
    for _ in range(40):
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        a, b = (random_nfa(rng.randint(1, 7), alphabet, rng.choice((0.2, 0.4, 0.7)),
                           rng.randrange(1 << 30)) for _ in range(2))
        # B declares its alphabet in the other order; A+B takes A's.
        b = Nfa(b.n, alphabet[::-1], b.delta, b.sigma, b.tau)
        for c in (a, b):
            r = reverse(c)
            assert reverse(c) is r and reverse(r) is c
            assert r == reverse_oracle(c)
        expected = reverse(_sum(a, b))
        assert _sum(reverse(a), reverse(b)) == expected
        assert expected == reverse_oracle(sum_oracle(a, b))


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


# --- successor index ---------------------------------------------------------


def _from_masks(a):
    return [_index_lists(a.delta[x]) for x in a.alphabet]


def _shuffled_lines(rng, text, duplicate):
    """The automaton text with each transition line's edges in random order,
    and with some edges repeated."""
    out = []
    for line in text.splitlines():
        head, colon, rest = line.partition(":")
        if colon:
            edges = rest.split()
            edges += rng.sample(edges, min(duplicate, len(edges)))
            rng.shuffle(edges)
            line = f"{head}: {' '.join(edges)}"
        out.append(line)
    return "\n".join(out) + "\n"


def test_parsed_automata_carry_the_index_of_their_masks():
    # Sorted lines, the same edges shuffled, and shuffled with repeats all
    # give the same masks and an index the parser filled, equal to the one
    # built from the masks.
    rng = random.Random(45)
    for _ in range(30):
        n = rng.randint(1, 12)
        a = random_nfa(n, ("x", "y", "zz")[:rng.randint(1, 3)],
                       rng.choice((0.0, 0.2, 0.5, 1.0)), rng.randrange(1 << 30))
        text = format_nfa(a)
        for variant in (text, _shuffled_lines(rng, text, 0), _shuffled_lines(rng, text, 3)):
            b = parse_nfa(variant)
            assert b == a
            assert b._succ == _from_masks(b)


def test_every_automaton_builds_the_index_of_its_masks_once():
    # Every automaton holds its index from construction on, equal to the
    # one its masks give; reading the masks leaves it as it is.
    rng = random.Random(46)
    for _ in range(30):
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        a = random_nfa(rng.randint(1, 9), alphabet, rng.choice((0.2, 0.5)),
                       rng.randrange(1 << 30))
        e = random_partition(rng, a.n, rng.randint(1, a.n))
        for c in (a, reverse(a), factor(a, e), parse_nfa(format_nfa(a))):
            index = c._succ
            assert index == _from_masks(c)
            assert c._succ is index


def test_the_index_of_a_sum_joins_those_of_its_parts():
    # B declares its alphabet in another order: its lists are looked up by
    # symbol, and A+B keeps A's order.  A's lists are shared.  The sum is
    # built from the joined index alone, and its masks are built only when
    # read.
    rng = random.Random(47)
    for _ in range(30):
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        a, b = (random_nfa(rng.randint(1, 8), alphabet, rng.choice((0.2, 0.5)),
                           rng.randrange(1 << 30)) for _ in range(2))
        b = Nfa(b.n, alphabet[::-1], b.delta, b.sigma, b.tau)
        a = parse_nfa(format_nfa(a))
        s = _sum(a, b)
        joined = s._succ
        assert s._delta is None
        assert joined == _from_masks(sum_oracle(a, b))
        assert all(mine is part
                   for lists, own in zip(joined, a._succ)
                   for mine, part in zip(lists, own))
        assert _sum(a, b)._succ == joined
        assert s == sum_oracle(a, b) and s.delta is s.delta


def _frozen(index):
    return [[tuple(row) for row in lists] for lists in index]


def test_readers_leave_the_shared_lists_unchanged():
    rng = random.Random(48)
    for _ in range(30):
        alphabet = ("x", "y")[:rng.randint(1, 2)]
        n = rng.randint(2, 9)
        a = random_nfa(n, alphabet, rng.choice((0.15, 0.4)), rng.randrange(1 << 30))
        a = parse_nfa(format_nfa(a))
        perm = list(range(n))
        rng.shuffle(perm)
        b = parse_nfa(format_nfa(_relabel(a, perm)))
        autos = (a, b, reverse(a), reverse(b))
        before = [_frozen(c._succ) for c in autos]
        s = _sum(a, b)
        for _ in _refine([s.tau.mask >> i & 1 for i in range(s.n)], s._succ):
            pass
        forward_bisim_steps(a, b)
        backward_forward_bisim_steps(a, b)
        backward_forward_bisim_steps(reverse(a), reverse(b))
        a_reduced = factor(a, greatest_fb_equivalence(a))
        find_isomorphism(a_reduced, a_reduced)
        if a_reduced is a:
            find_isomorphism(a, b)
        assert [_frozen(c._succ) for c in autos] == before


def _index_sources(rng):
    """Fresh automata of every origin an index has: built from masks, parsed
    from shuffled text with repeated edges, and the images of a partition
    and of a bijection.  Densities 0 and 1 give empty and full rows; five
    states with self-loops and a full row, and one state with and without
    its loop, come last."""
    for _ in range(30):
        n = rng.randint(1, 9)
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        a = random_nfa(n, alphabet, rng.choice((0.0, 0.2, 0.5, 1.0)),
                       rng.randrange(1 << 30))
        yield a
        yield parse_nfa(_shuffled_lines(rng, format_nfa(a), 2))
        e = random_partition(rng, n, rng.randint(1, n))
        yield _image(a, e.class_of, e.num_classes)
        yield _image(a, rng.sample(range(n), n), n)
    loops = "".join(f" {q}->{q}" for q in range(5))
    full = "".join(f" 2->{q}" for q in range(5))
    yield parse_nfa(f"states 5\nalphabet x y\ninitial 0\nterminal 4\nx:{loops}\ny:{full} 2->2\n")
    yield parse_nfa("states 1\nalphabet x\ninitial 0\nterminal 0\nx: 0->0\n")
    yield parse_nfa("states 1\nalphabet x y\ninitial\nterminal\n")


def test_the_reversal_is_read_off_the_index():
    # One pass over the index gives the inverse of each symbol's masks and
    # the reversal's own index: rising lists (not tuples), equal to the
    # index of its masks.  An automaton and its reversal keep each other.
    for c in _index_sources(random.Random(49)):
        r = reverse(c)
        assert r._succ is not None
        assert r == reverse_oracle(c)
        assert all(r.delta[x] == inverse(c.delta[x]) for x in c.alphabet)
        assert r._succ == _from_masks(r)
        assert all(type(row) is list for lists in r._succ for row in lists)
        assert reverse(r) is c and reverse(reverse(c)) is c


def test_state_map_images_carry_the_index_of_their_masks():
    # A class map gives the quotient and a bijection a relabelled copy.
    # Targets arrive in any order and a class collects the successors of
    # all its members, yet each image's index is sorted without repeats.
    rng = random.Random(50)
    for c in _index_sources(rng):
        e = random_partition(rng, c.n, rng.randint(1, c.n))
        quotient = _image(c, e.class_of, e.num_classes)
        assert quotient == factor_oracle(c, e)
        assert quotient._succ == _from_masks(quotient)
        perm = tuple(rng.sample(range(c.n), c.n))
        copy = _image(c, perm, c.n)
        assert isomorphism_oracle(c, copy, perm)
        assert copy._succ == _from_masks(copy)


def test_masks_are_derived_from_the_index_once_on_first_read():
    # Reversals, images and sums are built from their index alone; the
    # masks their first read derives must equal the oracles', and a second
    # read returns the same table.
    rng = random.Random(52)
    for c in _index_sources(rng):
        assert c.delta is c.delta
        r = reverse(c)
        e = random_partition(rng, c.n, rng.randint(1, c.n))
        quotient = _image(c, e.class_of, e.num_classes)
        perm = tuple(rng.sample(range(c.n), c.n))
        copy = _image(c, perm, c.n)
        s = _sum(c, r)
        assert all(d._delta is None for d in (r, quotient, copy, s))
        assert r.delta == reverse_oracle(c).delta
        assert quotient.delta == factor_oracle(c, e).delta
        assert isomorphism_oracle(c, copy, perm)
        assert s.delta == {
            x: BoolRel(s.n, s.n, c.delta[x].row_masks
                       + tuple(m << c.n for m in r.delta[x].row_masks))
            for x in c.alphabet
        }
        assert all(d.delta is d.delta for d in (r, quotient, copy, s))


def test_reduce_and_printing_build_no_masks(tmp_path, monkeypatch, capsys):
    # The parser, the reductions and the printer read and write the index
    # alone: no automaton that a reduce command builds, the parsed one
    # included, ever builds its masks.
    from_index, built = automaton._from_index, []

    def recording(*args):
        built.append(from_index(*args))
        return built[-1]

    monkeypatch.setattr(automaton, "_from_index", recording)
    rng = random.Random(53)
    ring = line_nfa(5, True)
    inputs = [line_nfa(9, False), sum_oracle(ring, sum_oracle(ring, ring))]
    inputs += [random_nfa(rng.randint(1, 9), ("x", "y"), rng.choice((0.2, 0.5)),
                          rng.randrange(1 << 30)) for _ in range(12)]
    path = tmp_path / "a.nfa"
    for a in inputs:
        path.write_text(format_nfa(a), encoding="utf-8")
        for mode in ("fb", "bb", "alternate"):
            built.clear()
            assert main(["reduce", "--mode", mode, str(path)]) == 0
            out = capsys.readouterr().out
            # The three ring copies merge into one ring: a quotient is built.
            assert out.startswith("states 5\n" if a.n == 15 else "states ")
            assert built and all(c._delta is None for c in built)


# --- factor automata ---------------------------------------------------------


def test_factor_by_identity_is_isomorphic():
    identity = Partition(range(5))
    assert factor(FWD_B, identity) is FWD_B
    assert tuple(range(5)) in isomorphic_oracle(FWD_B, factor_oracle(FWD_B, identity))


def test_only_the_discrete_factor_is_the_automaton_itself():
    for a in (FWD_A, FWD_B, WEAK_A, LANG_A, HETERO_A):
        for e in all_partitions(a.n):
            quotient = factor(a, e)
            if e.num_classes == a.n:
                assert quotient is a
            else:
                assert quotient == factor_oracle(a, e)


def test_factor_weak_golden():
    quotient = factor(WEAK_A, Partition([0, 0, 1, 0]))
    assert quotient.n == 2
    assert language_oracle(quotient, 6) == language_oracle(WEAK_A, 6)


def test_factor_by_greatest_forward_equivalence():
    classes = greatest_fb_equivalence(FWD_B)
    assert factor(FWD_B, classes).n == 3


def test_factor_size_mismatch():
    with pytest.raises(ValueError):
        factor(FWD_B, Partition(range(4)))


def test_factor_tower_collapses():
    # factoring in two stages matches factoring once, up to isomorphism
    for a in (LANG_A, WEAK_A, HETERO_A):
        parts = list(all_partitions(a.n))
        for f in parts:
            for e in parts:
                if not refines_oracle(e, f):
                    continue
                two_step = factor(factor(a, e), quotient_partition_oracle(f, e))
                one_step = factor(a, f)
                assert isomorphic_oracle(two_step, one_step)


def test_partition_correspondence_on_four_elements():
    # coarsenings of e correspond one-to-one with partitions of its classes,
    # and the bijection preserves refinement in both directions
    parts = list(all_partitions(4))
    assert len(parts) == 15
    for e in parts:
        coarser = [f for f in parts if refines_oracle(e, f)]
        images = {f: quotient_partition_oracle(f, e) for f in coarser}
        assert len(set(images.values())) == len(coarser)
        assert set(images.values()) == set(all_partitions(e.num_classes))
        for f in coarser:
            for g in coarser:
                assert refines_oracle(f, g) == refines_oracle(images[f], images[g])


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


def _reduced(a):
    """The factor of a by its greatest fb equivalence, the only kind of
    automaton ``find_isomorphism`` is asked to match."""
    return factor(a, greatest_fb_equivalence(a))


def test_find_isomorphism_self_is_identity():
    for a in (FWD_A, FWD_B, WEAK_A):
        f = _reduced(a)
        assert find_isomorphism(f, f) == tuple(range(f.n))


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
        x: rel_from_pairs(
            a.n, a.n, [(perm[i], perm[j]) for i, j in _pairs(a.delta[x])]
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
        x: rel_from_pairs(n, n, [
            (k * c.n + i, k * c.n + j)
            for k in range(count) for i, j in _pairs(c.delta[x])
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
    return Nfa(n, ("x",), {"x": rel_from_pairs(n, n, edges)}, [1] * n, [0] * n)


def _path(n):
    """States 0 to n-1 in a line on one symbol, 0 initial."""
    edges = [(i, i + 1) for i in range(n - 1)]
    mark = [1] + [0] * (n - 1)
    return Nfa(n, ("x",), {"x": rel_from_pairs(n, n, edges)}, mark, [0] * n)


def test_find_isomorphism_recovers_relabelling():
    rng = random.Random(44)
    for _ in range(20):
        a = _reduced(random_nfa(rng.randint(2, 6), ("x", "y"), 0.4, rng.randrange(1 << 30)))
        perm = list(range(a.n))
        rng.shuffle(perm)
        b = _relabel(a, perm)
        assert find_isomorphism(a, b) == tuple(perm)
        assert is_isomorphism(a, b, perm)


def test_find_isomorphism_returns_lexicographically_least():
    # Two indistinguishable non-initial, non-terminal sink states admit two
    # automorphisms.  They are fb-equivalent, so the automaton is not
    # reduced, and the matcher refuses it rather than pick an image.  The
    # factor merges them and has one automorphism, the least one.
    a = Nfa(
        3,
        ("x",),
        {"x": [[0, 1, 1], [0, 0, 0], [0, 0, 0]]},
        [1, 0, 0],
        [1, 0, 0],
    )
    assert isomorphic_oracle(a, a) == [(0, 1, 2), (0, 2, 1)]
    with pytest.raises(AssertionError, match="not fb-reduced"):
        find_isomorphism(a, a)
    f = _reduced(a)
    assert find_isomorphism(f, f) == (0, 1) and isomorphic_oracle(f, f) == [(0, 1)]


def _the_isomorphism(a, b):
    """The oracle's isomorphism between two fb-reduced automata, or None;
    there is never more than one."""
    isomorphisms = isomorphic_oracle(a, b)
    assert len(isomorphisms) <= 1
    return isomorphisms[0] if isomorphisms else None


def _near_copies(rng, b):
    """Three automata that differ from b in one bit each: an initial bit, a
    terminal bit and an edge."""
    n = b.n
    q, x = rng.randrange(n), rng.choice(b.alphabet)
    bit = 1 << q
    rows = list(b.delta[x].row_masks)
    rows[q] ^= 1 << rng.randrange(n)
    moved = {**b.delta, x: BoolRel(n, n, rows)}
    return [
        Nfa(n, b.alphabet, b.delta, BoolVec(n, b.sigma.mask ^ bit), b.tau),
        Nfa(n, b.alphabet, b.delta, b.sigma, BoolVec(n, b.tau.mask ^ bit)),
        Nfa(n, b.alphabet, moved, b.sigma, b.tau),
    ]


def test_find_isomorphism_is_least_among_all_bijections():
    # Unions of equal cycles or of equal other components collapse under
    # the greatest fb equivalence.  One-bit near-copies of a factor have its
    # size but need not be isomorphic to it, and their factors may still
    # balance the first colours.
    rng = random.Random(7)
    pairs = []
    for trial in range(60):
        n = rng.randint(2, 7)
        if trial % 2:
            a = random_nfa(n, ("x",), 0.25, rng.randrange(1 << 30))
        else:
            k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            a = _relabel(_cycle_union(*[k] * (n // k)), rng.sample(range(n), n))
        pairs.append((a, _relabel(a, rng.sample(range(n), n))))
    for _ in range(30):
        n = rng.randint(2, 7)
        k = rng.choice([d for d in range(1, n) if n % d == 0])
        alphabet = rng.choice([("x",), ("x", "y")])
        c = random_nfa(k, alphabet, 0.4, rng.randrange(1 << 30))
        a = _relabel(_copies(c, n // k), rng.sample(range(n), n))
        pairs.append((a, _relabel(a, rng.sample(range(n), n))))
    flips = random.Random(8)
    found = refuted = 0
    for a, b in pairs:
        a, b = _reduced(a), _reduced(b)
        for d in [b] + [_reduced(c) for c in _near_copies(flips, b)]:
            expected = _the_isomorphism(a, d)
            assert find_isomorphism(a, d) == expected
            found += expected is not None
            refuted += expected is None and d.n == a.n
    assert found >= 90 and refuted > 200


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 7),
    st.sampled_from([("x",), ("x", "y")]),
    st.sampled_from([0.2, 0.3, 0.45]),
    st.integers(0, (1 << 30) - 1),
    st.randoms(use_true_random=False),
)
def test_find_isomorphism_on_fb_factors_is_the_oracles_only_isomorphism(
    n, alphabet, density, seed, rng
):
    # A random automaton against a relabelled copy, an independent one of
    # its size and the copy's one-bit near-copies, all matched as factors.
    a = random_nfa(n, alphabet, density, seed)
    b = _relabel(a, rng.sample(range(n), n))
    others = [b, random_nfa(n, alphabet, density, seed + 1)] + _near_copies(rng, b)
    fa = _reduced(a)
    for d in map(_reduced, others):
        assert find_isomorphism(fa, d) == _the_isomorphism(fa, d)
    # Unreduced, the matcher still never answers wrongly: None only when
    # there is no isomorphism, and a mapping only when it is one.
    for d in others:
        try:
            phi = find_isomorphism(a, d)
        except AssertionError:
            assert fa.n < a.n
            continue
        isomorphisms = isomorphic_oracle(a, d)
        assert phi in isomorphisms if phi is not None else not isomorphisms


@pytest.mark.parametrize(
    "spec, seed",
    [(lambda: _cycle_union(9, 9, 9), 3), (lambda: _copies(_path(3), 30), 0)],
    ids=["three-9-cycles", "30-paths"],
)
def test_find_isomorphism_on_equal_components_is_fast(spec, seed):
    # Refinement leaves every colour spread over all the copies, which the
    # greatest fb equivalence merges, so the factors are matched at once.
    a = spec()
    rng = random.Random(seed)
    start = time.perf_counter()
    one = _reduced(_relabel(a, rng.sample(range(a.n), a.n)))
    other = _reduced(_relabel(a, rng.sample(range(a.n), a.n)))
    phi = find_isomorphism(one, other)
    assert time.perf_counter() - start < 1
    assert phi == _the_isomorphism(one, other) is not None


def test_find_isomorphism_deeper_than_the_recursion_limit():
    limit = 200
    n = 2 * limit
    chain = rel_from_pairs(n, n, [(i, i + 1) for i in range(n - 1)])
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


@pytest.mark.parametrize(
    "make, size",
    [(lambda: random_nfa(600, ("x", "y"), 2 / 600, 1), 590),
     (lambda: line_nfa(300, True, ("x",)), 300)],
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
    # every state has one successor, and a state's colour after k rounds is
    # its distance to the mark, capped at k.  The colour counts of the two
    # sides agree for nineteen rounds and part in the twentieth, when the
    # states at distance 20 split off: two on the 30-cycles, one on the
    # 40-cycle and none on the 20-cycle.  The two 30-cycles are
    # fb-equivalent state by state, but an unbalanced colour rules an
    # isomorphism out on any input.
    def rings(*sizes):
        edges, marks, base = [], [], 0
        for size in sizes:
            edges += [(base + i, base + (i + 1) % size) for i in range(size)]
            marks.append(base)
            base += size
        rel = rel_from_pairs(base, base, edges)
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
    """A successor table and its predecessor table, two neighbour tables
    that one symbol contributes to colour refinement."""
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
    # factor, is_isomorphism and is_weak_forward_isomorphism against
    # set-based oracles that share no code with them: random partitions,
    # then every permutation onto the automaton itself, onto a relabelled
    # copy, onto that copy with its alphabet declared in another order and
    # onto one-bit near-copies of it, and last a few non-bijections
    rng = random.Random(2024)
    positives = weak_only = 0
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
        for b in [a, copy, shuffled] + _near_copies(rng, copy):
            for phi in itertools.permutations(range(n)):
                expected = isomorphism_oracle(a, b, phi)
                assert is_isomorphism(a, b, phi) == expected
                positives += expected
                weak = weak_isomorphism_oracle(a, b, phi)
                assert is_weak_forward_isomorphism(a, b, phi) == weak
                weak_only += weak and not expected
        assert is_isomorphism(a, shuffled, perm)
        broken = [perm[:-1], perm + (0,), perm[:-1] + (n,)]
        if n > 1:
            broken.append((perm[1],) + perm[1:])
        for phi in broken:
            assert not isomorphism_oracle(a, copy, phi)
            assert not is_isomorphism(a, copy, phi)
            assert not weak_isomorphism_oracle(a, copy, phi)
            assert not is_weak_forward_isomorphism(a, copy, phi)
        other = Nfa(n, ("w",), {"w": BoolRel(n, n, [0] * n)}, a.sigma, a.tau)
        assert not is_isomorphism(a, other, perm)
        assert not isomorphism_oracle(a, other, perm)
        assert not is_weak_forward_isomorphism(a, other, perm)
        assert not weak_isomorphism_oracle(a, other, perm)
    assert positives > 100
    assert weak_only > 50


def test_weak_forward_isomorphism_exists_exactly_when_the_oracle_finds_one():
    # Random automata of at most five states, and copies of a smaller one
    # relabelled, against a relabelled copy, an independent automaton and
    # one-bit near-copies.  None is reduced, so signature groups hold
    # several states (always in the copies), and the search must pair
    # them: a mapping exactly when some permutation passes the oracle, and
    # then one that passes.
    rng = random.Random(2026)
    found = refuted = grouped = 0
    for trial in range(80):
        n = rng.randint(1, 5)
        alphabet = ("x", "y")[: rng.randint(1, 2)]
        if trial % 3 == 0 and n > 1:
            k = rng.choice([d for d in range(1, n) if n % d == 0])
            c = random_nfa(k, alphabet, 0.4, rng.randrange(1 << 30))
            a = _relabel(_copies(c, n // k), rng.sample(range(n), n))
        else:
            a = random_nfa(n, alphabet, rng.choice([0.2, 0.4, 0.7]), rng.randrange(1 << 30))
        grouped += wfb_equivalence_bound(a).num_classes < n
        copy = _relabel(a, rng.sample(range(n), n))
        other = random_nfa(n, alphabet, 0.4, rng.randrange(1 << 30))
        for b in [a, copy, other] + _near_copies(rng, copy):
            phi = weak_forward_isomorphism(a, b)
            exists = any(weak_isomorphism_oracle(a, b, p)
                         for p in itertools.permutations(range(n)))
            assert (phi is not None) == exists
            assert phi is None or weak_isomorphism_oracle(a, b, phi)
            found += exists
            refuted += not exists
    assert found > 150 and refuted > 200 and grouped > 30


# --- random generation --------------------------------------------------------------


def test_random_nfa_deterministic():
    a = random_nfa(5, ("x", "y"), 0.4, seed=99)
    b = random_nfa(5, ("x", "y"), 0.4, seed=99)
    assert a == b
    assert a != random_nfa(5, ("x", "y"), 0.4, seed=100)


def test_random_nfa_density_extremes():
    sparse = random_nfa(4, ("x",), 0.0, seed=1)
    assert sparse.delta["x"] == BoolRel(4, 4, [0] * 4)
    assert len(sparse.sigma.indices()) == 1 and len(sparse.tau.indices()) == 1
    dense = random_nfa(4, ("x",), 1.0, seed=1)
    assert dense.delta["x"] == BoolRel(4, 4, [0b1111] * 4)
    assert dense.sigma == BoolVec(4, 0b1111) and dense.tau == BoolVec(4, 0b1111)


def test_random_nfa_invalid_density():
    with pytest.raises(ValueError, match="density"):
        random_nfa(3, ("x",), 1.5, seed=0)
