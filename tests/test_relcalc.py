import random
from collections import Counter

import pytest

from nfabisim.relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    _columns,
    _complement,
    _unions,
    arrow_left,
    arrow_right,
    cokernel,
    compose,
    induced_bijection,
    intersect,
    inverse,
    is_complete,
    is_partial_uniform,
    is_uniform,
    kernel,
    rel_vec,
    residual_left,
    residual_right,
    scalar,
    subset_of,
    union,
    vec_rel,
)

from goldens import (
    FWD_A,
    FWD_B,
    FWD_PHI1,
    FWD_PHI2,
    HETERO_A,
    HETERO_B,
    HETERO_BFB_GREATEST,
)
from oracles import (
    _pairs,
    all_relations,
    arrow_left_oracle,
    arrow_right_oracle,
    compose_oracle,
    equivalence_oracle,
    functional_descriptions_oracle,
    image_oracle,
    join_oracle,
    kernel_oracle,
    partial_uniform_oracle,
    quotient_partition_oracle,
    random_uniform_relation,
    rel_from_pairs,
    residual_left_oracle,
    residual_right_oracle,
)


def random_rel(rng, rows, cols):
    return BoolRel(rows, cols, [rng.randrange(1 << cols) for _ in range(rows)])


def random_vec(rng, n):
    return BoolVec(n, rng.randrange(1 << n))


# --- construction and validation ---------------------------------------


def test_vec_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        BoolVec(0)
    with pytest.raises(ValueError):
        BoolVec(2, 0b100)
    with pytest.raises(ValueError):
        BoolRel(0, 3, [])
    with pytest.raises(ValueError):
        BoolRel(1, 2, [0b100])


@pytest.mark.parametrize(
    "rows, cols, masks, message",
    [
        (3, 4, [0b1, 1 << 4, 0b10], "row mask does not fit in 4 columns"),
        (2, 4, [0b1, -1], "row mask does not fit in 4 columns"),
        (2, 64, [1 << 64, 0], "row mask does not fit in 64 columns"),
        (3, 2, [0b1, 0b10], "expected 3 row masks, got 2"),
    ],
    ids=["bit-cols", "negative", "bit-cols-wide", "row-count"],
)
def test_rel_rejects_bad_row_masks_with_its_message(rows, cols, masks, message):
    with pytest.raises(ValueError) as exc:
        BoolRel(rows, cols, masks)
    assert str(exc.value) == message


def test_vec_round_trip():
    v = BoolVec.from_bits([1, 0, 1, 1])
    assert v.bits() == (1, 0, 1, 1)
    assert v.indices() == (0, 2, 3)
    assert BoolVec(4, 0b1101) == v
    assert v.to_text() == "1011"
    rng = random.Random(11)
    for n in (1, 64, 65, 130):
        for bits in ([0] * n, [1] * n, [rng.randint(0, 1) for _ in range(n)]):
            assert BoolVec.from_bits(bits).to_text() == "".join(map(str, bits))


def test_rel_round_trip():
    r = BoolRel.from_bits([[0, 1], [1, 1], [0, 0]])
    assert r.bits() == ((0, 1), (1, 1), (0, 0))
    assert _pairs(r) == {(0, 1), (1, 0), (1, 1)}
    assert rel_from_pairs(3, 2, _pairs(r)) == r
    assert r.to_text() == "01\n11\n00"
    rng = random.Random(12)
    for cols in (1, 64, 65, 130):
        bits = [[0] * cols, [1] * cols, [rng.randint(0, 1) for _ in range(cols)]]
        text = "\n".join("".join(map(str, row)) for row in bits)
        r = BoolRel.from_bits(bits)
        assert r.to_text() == text
        assert rel_from_pairs(3, cols, _pairs(r)) == r


# --- composition --------------------------------------------------------


def test_compose_identity():
    r = FWD_A.delta["x"]
    identity = BoolRel(3, 3, [1, 2, 4])
    assert compose(identity, r) == r
    assert compose(r, identity) == r


def test_compose_with_own_inverse_is_symmetric():
    r = FWD_B.delta["x"]
    sym = compose(r, inverse(r))
    assert sym == inverse(sym)


def test_compose_matches_triple_loop_on_golden():
    got = compose(FWD_A.delta["x"], FWD_A.delta["y"])
    assert got == compose_oracle(FWD_A.delta["x"], FWD_A.delta["y"])
    # frozen from the oracle
    assert got == BoolRel.from_bits([[1, 1, 1], [0, 0, 1], [1, 1, 0]])


def test_compose_matches_triple_loop_random():
    # Rows of r are selectors over s's rows that take both loops of _unions.
    rng = random.Random(20)
    for width in (9, 12, 16, 17, 33, 64, 65):
        rows = _selectors(rng, width)
        r = BoolRel(len(rows), width, rows)
        s = random_rel(rng, width, rng.randint(1, 65))
        assert compose(r, s) == compose_oracle(r, s)


def test_compose_dimension_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"2x3.*4x2"):
        compose(BoolRel(2, 3, [0b111] * 2), BoolRel(4, 2, [0b11] * 4))


def test_compose_associative():
    rng = random.Random(21)
    for _ in range(30):
        r = random_rel(rng, rng.randint(1, 4), rng.randint(1, 4))
        s = random_rel(rng, r.cols, rng.randint(1, 4))
        t = random_rel(rng, s.cols, rng.randint(1, 4))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_inverse_laws():
    rng = random.Random(22)
    for _ in range(30):
        r = random_rel(rng, rng.randint(1, 4), rng.randint(1, 4))
        s = random_rel(rng, r.cols, rng.randint(1, 4))
        assert inverse(inverse(r)) == r
        assert inverse(compose(r, s)) == compose(inverse(s), inverse(r))


# --- vector composition -------------------------------------------------


def test_vec_rel_golden():
    assert vec_rel(FWD_A.sigma, FWD_A.delta["x"]) == BoolVec.from_bits([1, 1, 0])


def test_vec_identity():
    rng = random.Random(23)
    for _ in range(10):
        v = random_vec(rng, 4)
        identity = BoolRel(4, 4, [1, 2, 4, 8])
        assert vec_rel(v, identity) == v
        assert rel_vec(identity, v) == v


def test_scalar():
    assert scalar(BoolVec.from_bits([0, 1]), BoolVec.from_bits([1, 1]))
    assert not scalar(BoolVec.from_bits([0, 1]), BoolVec.from_bits([1, 0]))
    with pytest.raises(ValueError):
        scalar(BoolVec.from_bits([0, 0, 1]), BoolVec.from_bits([0, 0, 1, 0, 1]))


def test_mixed_associativity():
    rng = random.Random(24)
    for _ in range(30):
        r = random_rel(rng, rng.randint(1, 4), rng.randint(1, 4))
        s = random_rel(rng, r.cols, rng.randint(1, 4))
        alpha = random_vec(rng, r.rows)
        beta = random_vec(rng, r.cols)
        assert vec_rel(vec_rel(alpha, r), s) == vec_rel(alpha, compose(r, s))
        assert scalar(vec_rel(alpha, r), beta) == scalar(alpha, rel_vec(r, beta))


# --- boolean set operations ---------------------------------------------


def test_union_intersect_subset():
    assert union(FWD_PHI2, FWD_PHI2) == FWD_PHI2
    assert intersect(FWD_PHI1, FWD_PHI2) == FWD_PHI2
    assert subset_of(FWD_PHI2, FWD_PHI1)
    assert not subset_of(FWD_PHI1, FWD_PHI2)


def test_inverse_is_transpose():
    bits = FWD_PHI2.bits()
    transpose = [[bits[a][b] for a in range(3)] for b in range(5)]
    assert inverse(FWD_PHI2) == BoolRel.from_bits(transpose)


class _SliceCounter(list):
    """A mask list that counts the slices taken of it: ``_unions`` slices
    the list only to build its tables."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return super().__getitem__(key)


def _selectors(rng, width):
    """Selectors that force each path of ``_unions``: zero, single bits, and
    two thirds as many bits as 4-column chunks (at 9 columns and more) take
    the bit loop; as many bits as chunks, and all ones, take the tables."""
    chunks = -(-width // 4)
    out = [0, (1 << width) - 1] + [1 << c for c in range(width)]
    for count in (2 * chunks // 3, chunks):
        if 2 <= count <= width:
            low = rng.sample(range(width - 1), count - 1)
            out.append(sum(1 << c for c in low) | 1 << width - 1)
    return out + [rng.getrandbits(width) for _ in range(5)]


def test_preimage_tables_and_string_transpose_match_rel_vec_and_inverse():
    # Sizes on both sides of the 4-column chunks and of 16 and 17 selector
    # bytes; rows of zero to two bits, or dense rows of about 30% as in the
    # signature matrices.
    rng = random.Random(25)
    sizes = (1, 3, 4, 5, 8, 9, 17, 33, 65, 127, 128, 129)
    for _ in range(60):
        rows, cols = rng.choice(sizes), rng.choice(sizes)
        if rng.random() < 0.5:
            pairs = [(a, rng.randrange(cols))
                     for a in range(rows) for _ in range(rng.randint(0, 2))]
        else:
            pairs = [(a, b) for a in range(rows) for b in range(cols)
                     if rng.random() < 0.3]
        r = rel_from_pairs(rows, cols, pairs)
        image = _unions(r.row_masks)
        preimage = _unions(inverse(r).row_masks)
        for mask in _selectors(rng, rows):
            selected = {a for a in range(rows) if mask >> a & 1}
            expected = sum(1 << b for b in image_oracle(r, selected))
            assert image(mask) == expected
            assert vec_rel(BoolVec(rows, mask), r).mask == expected
        for mask in _selectors(rng, cols):
            assert preimage(mask) == rel_vec(r, BoolVec(cols, mask)).mask
        assert _columns(r.row_masks, cols) == list(inverse(r).row_masks)


def test_union_tables_are_built_once_and_only_for_dense_selectors():
    rng = random.Random(26)
    masks = _SliceCounter(rng.getrandbits(17) for _ in range(17))
    union_of = _unions(masks)
    # 17 positions make 5 chunks: up to 3 set bits take the bit loop.
    for sel in (0, 1, 1 << 16, 0b10101 << 12):
        union_of(sel)
    assert masks.slices == 0
    # One dense call takes the bit loop; the second builds the tables.
    union_of((1 << 17) - 1)
    assert masks.slices == 0
    for sel in (0b111111, (1 << 17) - 1):
        union_of(sel)
    assert masks.slices == 5


# --- arrow constructions -------------------------------------------------


def biarrow(eta, xi):
    """(a, b) related iff a is in eta exactly when b is in xi: both arrows."""
    return intersect(arrow_right(eta, xi), arrow_left(eta, xi))


def test_biarrow_golden():
    assert biarrow(FWD_A.tau, FWD_B.tau) == FWD_PHI1


def test_arrow_right_vacuous():
    eta = BoolVec(3)
    xi = BoolVec.from_bits([1, 0])
    assert arrow_right(eta, xi) == BoolRel(3, 2, [0b11] * 3)


def test_arrows_match_definition():
    rng = random.Random(25)
    assert arrow_left(HETERO_A.sigma, HETERO_B.sigma) == arrow_left_oracle(
        HETERO_A.sigma, HETERO_B.sigma
    )
    for _ in range(30):
        eta = random_vec(rng, rng.randint(1, 5))
        xi = random_vec(rng, rng.randint(1, 5))
        assert arrow_right(eta, xi) == arrow_right_oracle(eta, xi)
        assert arrow_left(eta, xi) == arrow_left_oracle(eta, xi)


def test_biarrow_block_decomposition():
    rng = random.Random(26)
    for _ in range(20):
        eta = random_vec(rng, rng.randint(1, 5))
        xi = random_vec(rng, rng.randint(1, 5))
        blocks = union(
            BoolRel.from_bits(
                [[1 if eta[a] and xi[b] else 0 for b in range(xi.n)]
                 for a in range(eta.n)]
            ),
            BoolRel.from_bits(
                [[1 if not eta[a] and not xi[b] else 0 for b in range(xi.n)]
                 for a in range(eta.n)]
            ),
        )
        assert biarrow(eta, xi) == blocks


# --- residuals -----------------------------------------------------------


def test_residual_trivial_cases():
    beta = FWD_B.delta["y"]
    full = BoolRel(3, 5, [0b11111] * 3)
    assert residual_left(full, beta) == full
    assert residual_right(FWD_PHI2, BoolRel(3, 3, [1, 2, 4])) == FWD_PHI2


def test_residual_matches_definition():
    rng = random.Random(27)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        phi = random_rel(rng, rows, cols)
        alpha = random_rel(rng, rows, rows)
        beta = random_rel(rng, cols, cols)
        assert residual_right(phi, alpha) == residual_right_oracle(phi, alpha)
        assert residual_left(phi, beta) == residual_left_oracle(phi, beta)


def test_residual_is_greatest_solution_random():
    # psi solves alpha o psi <= phi exactly when psi <= phi/alpha
    rng = random.Random(28)
    phi = compose(HETERO_B.delta["x"], HETERO_B.delta["y"])
    alpha = HETERO_B.delta["y"]
    rr = residual_right(phi, alpha)
    for _ in range(200):
        psi = random_rel(rng, 3, 3)
        assert subset_of(compose(alpha, psi), phi) == subset_of(psi, rr)


def test_residual_is_greatest_solution_exhaustive_3x3():
    rng = random.Random(29)
    phi = random_rel(rng, 3, 3)
    alpha = random_rel(rng, 3, 3)
    beta = random_rel(rng, 3, 3)
    rr = residual_right(phi, alpha)
    lr = residual_left(phi, beta)
    for psi in all_relations(3, 3, include_empty=True):
        assert subset_of(compose(alpha, psi), phi) == subset_of(psi, rr)
        assert subset_of(compose(psi, beta), phi) == subset_of(psi, lr)


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        residual_right(BoolRel(2, 3, [0b111] * 2), BoolRel(3, 3, [0b111] * 3))
    with pytest.raises(ValueError):
        residual_left(BoolRel(2, 3, [0b111] * 2), BoolRel(2, 2, [0b11] * 2))


# --- kernels and uniformity ----------------------------------------------


def test_kernel_golden():
    assert kernel(FWD_PHI2) == Partition(range(3))
    assert kernel(BoolRel(4, 2, [0b11] * 4)) == Partition([0] * 4)
    assert cokernel(FWD_PHI2).classes == ((0, 1), (2, 4), (3,))


def test_kernel_matches_pairwise_definition():
    rng = random.Random(30)
    for _ in range(30):
        phi = random_rel(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert kernel(phi) == kernel_oracle(phi)
        assert cokernel(phi) == kernel_oracle(inverse(phi))


def test_uniformity_golden():
    assert is_uniform(FWD_PHI2)
    assert not is_partial_uniform(HETERO_BFB_GREATEST)
    assert is_complete(HETERO_BFB_GREATEST)


def test_equivalences_are_uniform():
    for part in (Partition(range(4)), Partition([0, 1, 0, 1])):
        assert is_uniform(part.to_relation())


def test_partial_uniform_composition_properties():
    rng = random.Random(31)
    seen_incomplete = seen_complete = 0
    for _ in range(300):
        phi = random_rel(rng, rng.randint(1, 4), rng.randint(1, 4))
        if not is_partial_uniform(phi):
            continue
        square = compose(phi, inverse(phi))
        assert square == inverse(square)
        assert subset_of(compose(square, square), square)
        reflexive = all(square[a, a] for a in range(square.rows))
        assert reflexive == is_complete(phi)
        if reflexive:
            seen_complete += 1
        else:
            seen_incomplete += 1
    assert seen_complete and seen_incomplete


def test_uniform_square_equals_kernel_relation():
    rng = random.Random(32)
    for _ in range(50):
        phi = random_uniform_relation(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert is_uniform(phi)
        assert compose(phi, inverse(phi)) == kernel(phi).to_relation()
        assert compose(inverse(phi), phi) == cokernel(phi).to_relation()


# --- functional descriptions and the induced bijection -------------------


def test_functional_descriptions_enumeration():
    phi = BoolRel.from_bits([[1, 1, 0], [0, 0, 1]])
    descriptions = functional_descriptions_oracle(phi)
    assert descriptions == [(0, 2), (1, 2)]
    for f in descriptions:
        assert all(phi[a, f[a]] for a in range(phi.rows))


def test_functional_descriptions_empty_row():
    phi = BoolRel.from_bits([[1, 1], [0, 0]])
    assert functional_descriptions_oracle(phi) == []


def test_induced_bijection_golden():
    # kernel classes {0} {1} {2} pair with column classes {0,1} {3} {2,4}
    assert induced_bijection(FWD_PHI2) == (0, 2, 1)
    assert induced_bijection(BoolRel(4, 4, [1, 2, 4, 8])) == (0, 1, 2, 3)


def test_induced_bijection_rejects_non_uniform():
    with pytest.raises(ValueError, match="not partial-uniform"):
        induced_bijection(HETERO_BFB_GREATEST)
    with pytest.raises(ValueError, match="incomplete"):
        induced_bijection(BoolRel.from_bits([[1, 1], [0, 0]]))
    with pytest.raises(ValueError, match="non-surjective"):
        induced_bijection(BoolRel.from_bits([[1, 0], [1, 0]]))


def test_induced_bijection_same_for_every_choice_function():
    # exhaustive over all choice functions, small uniform relations only
    rng = random.Random(35)
    for _ in range(25):
        phi = random_uniform_relation(rng, rng.randint(1, 4), rng.randint(1, 4))
        expected = induced_bijection(phi)
        ker, coker = kernel(phi), cokernel(phi)
        for f in functional_descriptions_oracle(phi):
            mapping = [None] * ker.num_classes
            for a, col in enumerate(f):
                mapping[ker.class_of[a]] = coker.class_of[col]
            assert tuple(mapping) == expected


def test_induced_bijection_of_inverse_is_inverse_permutation():
    rng = random.Random(33)
    for _ in range(50):
        phi = random_uniform_relation(rng, rng.randint(1, 5), rng.randint(1, 5))
        forward = induced_bijection(phi)
        backward = induced_bijection(inverse(phi))
        assert all(backward[forward[c]] == c for c in range(len(forward)))


# --- partitions -----------------------------------------------------------


def test_partition_relation_round_trip():
    part = Partition([0, 1, 2, 0, 2])
    assert Partition.from_relation(part.to_relation()) == part
    assert repr(part) == "Partition([0, 1, 2, 0, 2])"


def test_partition_from_relation_rejects_non_equivalences():
    with pytest.raises(ValueError, match="reflexive"):
        Partition.from_relation(BoolRel(2, 2, [0] * 2))
    with pytest.raises(ValueError, match="symmetric"):
        Partition.from_relation(BoolRel.from_bits([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="transitive"):
        Partition.from_relation(
            BoolRel.from_bits(
                [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
            )
        )
    with pytest.raises(ValueError, match="square"):
        Partition.from_relation(BoolRel(2, 3, [0b111] * 2))


def _small_relations():
    """Every relation of at most four rows and at most four columns, the
    empty ones included: 74,954 in all."""
    for rows in range(1, 5):
        for cols in range(1, 5):
            yield from all_relations(rows, cols, include_empty=True)


def test_partition_from_relation_matches_the_oracle_on_every_small_relation():
    # The row grouping accepts exactly the equivalences; every other square
    # relation is rejected with the message of the first law it breaks.
    accepted, messages = 0, set()
    for rel in _small_relations():
        if rel.rows != rel.cols:
            continue
        expected = equivalence_oracle(rel)
        try:
            got = Partition.from_relation(rel).classes
        except ValueError as exc:
            got = str(exc)
        assert got == expected, rel
        if isinstance(expected, tuple):
            accepted += 1
        else:
            messages.add(expected.split(" at ")[0])
    # The Bell numbers 1, 2, 5 and 15 count the equivalences.
    assert accepted == 23
    assert messages == {f"relation is not {law}"
                        for law in ("reflexive", "symmetric", "transitive")}


def test_is_partial_uniform_matches_the_composition_definition_on_every_small_relation():
    verdicts = Counter()
    for rel in _small_relations():
        verdict = is_partial_uniform(rel)
        assert verdict == partial_uniform_oracle(rel), rel
        verdicts[verdict] += 1
    assert sum(verdicts.values()) == 74954 and min(verdicts.values()) > 1000


# The quotient and join oracles the factor-tower and join tests rely on.


def test_quotient_partition():
    e = Partition([0, 0, 1, 2])
    f = Partition([0, 0, 0, 1])
    q = quotient_partition_oracle(f, e)
    assert q.classes == ((0, 1), (2,))
    assert quotient_partition_oracle(e, e) == Partition(range(3))


def test_quotient_partition_requires_refinement():
    e = Partition([0, 0, 1])
    f = Partition([0, 1, 1])
    with pytest.raises(ValueError, match=r"\[0, 1\] meets 2"):
        quotient_partition_oracle(f, e)


def test_join():
    e = Partition([0, 0, 1])
    f = Partition([0, 1, 1])
    assert join_oracle(Partition(range(3)), e) == e
    assert join_oracle(e, f) == Partition([0] * 3)


def test_complement_involution():
    rng = random.Random(34)
    for _ in range(10):
        r = random_rel(rng, 3, 4)
        assert _complement(_complement(r)) == r
