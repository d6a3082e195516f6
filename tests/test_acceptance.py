"""Acceptance suite: one check per agreed criterion.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (run pytest with
``-s`` to see them live) and then asserts, so the suite doubles as a report.
Random checks are seeded and exact; there are no tolerances anywhere.
"""

import random
import time

from nfabisim.automaton import (
    factor,
    find_isomorphism,
    random_nfa,
    reverse,
)
from nfabisim.bisim import (
    BisimKind,
    check,
    forward_bisim_steps,
    greatest_backward_bisim,
    greatest_backward_forward_bisim,
    greatest_fb_equivalence,
    greatest_forward_bisim,
    greatest_weak_forward_bisim,
    reachable_terminal_pairs,
)
from nfabisim.equivalence import (
    REDUCTION_MODES,
    fb_equivalent,
    function_fb_iff_bfb,
    language_equivalent,
    reduce,
    uniform_fb_crosscheck,
    wfb_equivalent,
)
from nfabisim.nerode import reverse_nerode
from nfabisim.relcalc import (
    BoolRel,
    is_complete,
    is_partial_uniform,
    is_surjective,
    rel_vec,
    subset_of,
    union,
    vec_rel,
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
    all_partitions,
    bfb_oracle,
    bfb_violations,
    dfa_isomorphism_oracle,
    language_oracle,
    quotient_partition_oracle,
    random_functional_relation,
    random_uniform_relation,
)


def _report(num, description, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


SMALL_GOLDENS = (FWD_A, HETERO_A, HETERO_B, LANG_A, LANG_B, WEAK_A, WEAK_B, FWD_B)


def test_criterion_01_forward_golden():
    start = time.perf_counter()
    steps = forward_bisim_steps(FWD_A, FWD_B)
    rep = greatest_forward_bisim(FWD_A, FWD_B)
    elapsed = time.perf_counter() - start
    ok = (
        steps[0] == FWD_PHI1
        and steps[1] == FWD_PHI2
        and steps[2] == steps[1]
        and rep.exists
        and rep.relation == FWD_PHI2
        and elapsed < 1.0
    )
    _report(1, "forward fixpoint reproduces the 3x5 golden matrices", ok)


def test_criterion_02_heterotypic_golden():
    start = time.perf_counter()
    rep = greatest_backward_forward_bisim(HETERO_A, HETERO_B)
    fwd = greatest_forward_bisim(HETERO_A, HETERO_B)
    elapsed = time.perf_counter() - start
    # The greatest bfb is the union of all bfbs (each condition is universal
    # in the related pair and existential in a related witness).  An earlier
    # pin, HETERO_BFB_SMALLER, was one pair short: (1, 2) passes every
    # condition, so the union holds it.  The old matrix is still asserted, as
    # a strict sub-bisimulation; the set-based oracle confirms both matrices
    # and shows that the only pair left out, (0, 1), breaks the conditions.
    with_missing_pair = union(
        HETERO_BFB_GREATEST, BoolRel.from_pairs(2, 3, [(0, 1)])
    )
    ok = (
        rep.exists
        and rep.relation == HETERO_BFB_GREATEST
        and bfb_oracle(HETERO_A, HETERO_B, HETERO_BFB_GREATEST)
        and bfb_oracle(HETERO_A, HETERO_B, HETERO_BFB_SMALLER)
        and subset_of(HETERO_BFB_SMALLER, rep.relation)
        and rep.relation != HETERO_BFB_SMALLER
        and "terminal-image-rev"
        in bfb_violations(HETERO_A, HETERO_B, with_missing_pair)
        and not fwd.exists
        and not is_partial_uniform(rep.relation)
        and elapsed < 1.0
    )
    _report(2, "heterotypic fixpoint reproduces the greatest 2x3 matrix", ok)


def test_criterion_03_language_equal_pair():
    start = time.perf_counter()
    direct = greatest_forward_bisim(LANG_A, LANG_B)
    direct_ok = (
        direct.exists
        and is_complete(direct.relation)
        and is_surjective(direct.relation)
    )
    structural_ok = (
        find_isomorphism(
            factor(LANG_A, greatest_fb_equivalence(LANG_A)),
            factor(LANG_B, greatest_fb_equivalence(LANG_B)),
        )
        is not None
    )
    verdict = fb_equivalent(LANG_A, LANG_B)
    elapsed = time.perf_counter() - start
    ok = (
        not direct_ok
        and not structural_ok
        and not verdict.equivalent
        and language_oracle(LANG_A, 6) == [("x",)]
        and language_oracle(LANG_B, 6) == [("x",)]
        and elapsed < 1.0
    )
    _report(3, "language-equal pair rejected by both strong decision paths", ok)


def test_criterion_04_weak_golden():
    start = time.perf_counter()
    rep = greatest_weak_forward_bisim(WEAK_A, WEAK_B)
    weak_ok = rep.exists and rep.relation == WEAK_MU
    strong = fb_equivalent(WEAK_A, WEAK_B)
    weak = wfb_equivalent(WEAK_A, WEAK_B)
    modified = wfb_equivalent(WEAK_A_MOD, WEAK_B_MOD)
    langs_equal = (
        language_equivalent(WEAK_A_MOD, WEAK_B_MOD).equivalent
        and language_oracle(WEAK_A_MOD, 6) == [()]
    )
    elapsed = time.perf_counter() - start
    ok = (
        weak_ok
        and weak.equivalent
        and not strong.equivalent
        and not modified.equivalent
        and langs_equal
        and elapsed < 1.0
    )
    _report(4, "weak golden pair: 4x2 relation, weakly but not strongly equal", ok)


def test_criterion_05_exhaustive_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(500)
    pairs = 0
    ok = True
    while pairs < 200:
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = random_nfa(na, ("x", "y"), rng.choice((0.2, 0.4, 0.6)),
                       rng.randrange(1 << 30))
        b = random_nfa(nb, ("x", "y"), rng.choice((0.2, 0.4, 0.6)),
                       rng.randrange(1 << 30))
        pairs += 1
        for kind, algorithm in (
            (BisimKind.FORWARD_BISIM, greatest_forward_bisim),
            (BisimKind.BACKWARD_FORWARD_BISIM, greatest_backward_forward_bisim),
        ):
            expected = enumerate_greatest(kind, a, b)
            got = algorithm(a, b).relation
            if got is not None and got.is_empty():
                got = None
            ok = ok and expected == got
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(5, f"fixpoints match brute force on {pairs} random pairs", ok)


def test_criterion_06_reduction_preserves_language():
    start = time.perf_counter()
    rng = random.Random(600)
    ok = True
    for _ in range(500):
        a = random_nfa(rng.randint(1, 8), ("x", "y"),
                       rng.choice((0.15, 0.3, 0.5)), rng.randrange(1 << 30))
        reference = language_oracle(a, 6)
        for mode in REDUCTION_MODES:
            ok = ok and language_oracle(reduce(a, mode), 6) == reference
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(6, "all reduction modes preserve depth-6 languages on 500 automata", ok)


def test_criterion_07_duality():
    rng = random.Random(700)
    ok = True
    instances = [(FWD_A, FWD_B), (HETERO_A, HETERO_B), (LANG_A, LANG_B),
                 (WEAK_A, WEAK_B)]
    for _ in range(100):
        instances.append(
            (
                random_nfa(rng.randint(1, 5), ("x", "y"), 0.4,
                           rng.randrange(1 << 30)),
                random_nfa(rng.randint(1, 5), ("x", "y"), 0.4,
                           rng.randrange(1 << 30)),
            )
        )
    for a, b in instances:
        dual = greatest_forward_bisim(reverse(a), reverse(b))
        direct = greatest_backward_bisim(a, b)
        ok = ok and direct.relation == dual.relation
    _report(7, f"backward relation equals forward on reversals ({len(instances)} instances)", ok)


def test_criterion_08_accepted_relations_are_partial_uniform():
    rng = random.Random(800)
    ok = True
    checked = 0
    instances = [(FWD_A, FWD_B), (WEAK_A, WEAK_B)]
    for _ in range(60):
        a = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 5), ("x", "y"), 0.4, rng.randrange(1 << 30))
        # self pairs and reduction pairs always accept; cross pairs rarely do
        instances.extend([(a, a), (a, reduce(a, "fb")), (a, b)])
    for a, b in instances:
        for rep in (greatest_forward_bisim(a, b), greatest_weak_forward_bisim(a, b)):
            if rep.exists and not rep.relation.is_empty():
                checked += 1
                ok = ok and is_partial_uniform(rep.relation)
    ok = ok and checked >= 200
    _report(8, f"{checked} accepted greatest relations are partial uniform", ok)


def test_criterion_09_crosscheck_agreement():
    rng = random.Random(900)
    ok = True
    for _ in range(200):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        phi = random_uniform_relation(rng, a.n, b.n)
        report = uniform_fb_crosscheck(a, b, phi)  # raises on disagreement
        ok = ok and report.structural == report.direct
    for _ in range(200):
        a = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        b = random_nfa(rng.randint(1, 4), ("x", "y"), 0.4, rng.randrange(1 << 30))
        f = random_functional_relation(rng, a.n, b.n)
        function_fb_iff_bfb(a, b, f)  # raises on disagreement
    _report(9, "three-way and functional cross-checks agree on 400 samples", ok)


def test_criterion_10_factor_structure_exhaustive():
    start = time.perf_counter()
    ok = True
    for a in SMALL_GOLDENS:
        parts = list(all_partitions(a.n))
        # two-stage factors collapse, for every nested pair of equivalences
        for f in parts:
            for e in parts:
                if not e.refines(f):
                    continue
                two_step = factor(factor(a, e), quotient_partition_oracle(f, e))
                ok = ok and find_isomorphism(two_step, factor(a, f)) is not None
        # greatest-equivalence correspondence across every nested pair of
        # forward bisimulation equivalences
        best = greatest_fb_equivalence(a)
        fb_parts = [
            p for p in parts
            if check(BisimKind.FORWARD_BISIM, a, a, p.to_relation()).ok
        ]
        for e in fb_parts:
            quotient = factor(a, e)
            projected_best = greatest_fb_equivalence(quotient)
            for f in fb_parts:
                if not e.refines(f):
                    continue
                ok = ok and (
                    (f == best) == (quotient_partition_oracle(f, e) == projected_best)
                )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(10, "factor-tower and correspondence checks exhaust small goldens", ok)


def test_criterion_11_reverse_nerode_criterion():
    ra, rb = reverse_nerode(WEAK_A), reverse_nerode(WEAK_B)
    iso = dfa_isomorphism_oracle(ra, rb)
    mu = greatest_weak_forward_bisim(WEAK_A, WEAK_B).relation
    # the relation maps each terminal vector of one automaton to the matching
    # vector of the other, and the two maps invert each other
    maps_ok = True
    subsets_b = {v.mask for v in rb.subset_of}
    subsets_a = {v.mask for v in ra.subset_of}
    for ta, tb in reachable_terminal_pairs(WEAK_A, WEAK_B):
        image = vec_rel(ta, mu)
        back = rel_vec(mu, tb)
        maps_ok = (
            maps_ok
            and image == tb
            and back == ta
            and image.mask in subsets_b
            and back.mask in subsets_a
        )
    _report(11, "reverse subset constructions isomorphic with inverse maps",
            iso is not None and maps_ok)
