"""The benchmark's workloads: seeded inputs, the cases run on them, and the
reference check of each case.

A workload is a list of blocks.  Each block draws its inputs from its own
``random.Random``, keyed by workload, seed and block number, and holds one
case per command the workload runs.  Block sizes follow a fixed order that
does not depend on the seed, so every seed puts the same mix of sizes and
commands in front of the program; the seed changes the random automata and
the permutations of the shuffled copies.

Sizes vary smoothly over each range rather than in a few steps, so a median
over the cases does not jump between size classes from run to run.
"""

from __future__ import annotations

import random

from bench import generators as gen
from bench import reference as ref

# Block counts are set so that a 30 s run goes round all blocks once or
# twice: each case's time is the best of its runs (see bench/run.py).
# Chains and rings: the residual fixpoint needs about n rounds.
FIXPOINT_RANGE, FIXPOINT_BLOCKS = (24, 80), 10
# Random sparse NFAs: few rounds, each Θ(n²); factors stay full-size.
SPARSE_RANGE, SPARSE_BLOCKS = (112, 176), 12
SPARSE_DEGREE = 2
# k shuffled copies of a ring this small collapse under ``reduce --mode fb``.
# A ring's reduction takes a fixed number of rounds, as a random base's does
# not, and at this size it costs about what ``reduce --mode alternate`` costs
# on the random automaton, so the reduce times form one group, not two.
BASE_STATES = 32
# Pooled successor sets keep both subset constructions to a few hundred states.
SUBSET_RANGE, SUBSET_BLOCKS = (64, 192), 24
SUBSET_POOL = 32
WORDS = 32
RANDOM_WORD_LENGTH = 12


class Case:
    """One ``nfabisim`` invocation with the check its output must pass."""

    __slots__ = ("cid", "command", "argv", "check")

    def __init__(self, argv, check):
        self.cid = None
        self.command = argv[0]
        self.argv = argv
        self.check = check


def _perturbable(rng, draw):
    """Draw automata until one has a language-perturbed copy."""
    for _ in range(100):
        auto = draw()
        try:
            return (auto,) + gen.perturbed(rng, auto)
        except ValueError:
            continue
    raise RuntimeError("no perturbable automaton in 100 draws")


def _fixpoint_deep(rng, write, n, family):
    a, shorter = family(n), family(n - 1)
    copy, perm = gen.shuffled(rng, a)
    pa, pc, ps = write("a", a), write("copy", copy), write("shorter", shorter)
    words = ref.sample_words(rng, a, WORDS, n + 2)
    # a^(n-1) runs a chain to its end, and a ring one short of a full turn.
    separator = ("a",) * (n - 1)
    return [
        Case(["equiv", "--mode", "fb", pa, pc], ref.equivalent(perm, n, n)),
        Case(["equiv", "--mode", "fb", pa, ps],
             ref.not_equivalent(a, shorter, separator)),
        Case(["reduce", "--mode", "alternate", pa],
             ref.same_language(a, words, max_states=n)),
        Case(["bisim", "--kind", "bfb", pa, pc], ref.relation(perm, n, n)),
        Case(["determinize", pa],
             ref.same_language(a, words, deterministic=True)),
    ]


def _sparse_wide(rng, write, n):
    a, wrong, word = _perturbable(rng, lambda: gen.sparse(rng, n, SPARSE_DEGREE))
    copy, perm = gen.shuffled(rng, a)
    union = gen.copies(rng, gen.ring(BASE_STATES), max(2, n // BASE_STATES))
    pa, pc, pw, pu = (
        write("a", a), write("copy", copy), write("wrong", wrong),
        write("copies", union),
    )
    words = ref.sample_words(rng, a, WORDS, RANDOM_WORD_LENGTH)
    wrong_words = ref.sample_words(rng, wrong, WORDS, RANDOM_WORD_LENGTH)
    union_words = ref.sample_words(rng, union, WORDS, RANDOM_WORD_LENGTH)
    # Two random automata per ring copy keep the median reduce time inside
    # one group instead of on the edge between two.
    return [
        Case(["equiv", "--mode", "fb", pa, pc], ref.equivalent(perm, n, n)),
        Case(["equiv", "--mode", "fb", pa, pw], ref.not_equivalent(a, wrong, word)),
        Case(["bisim", "--kind", "fb", pa, pc], ref.relation(perm, n, n)),
        Case(["reduce", "--mode", "alternate", pa],
             ref.same_language(a, words, max_states=n)),
        Case(["reduce", "--mode", "alternate", pw],
             ref.same_language(wrong, wrong_words, max_states=n + 1)),
        Case(["reduce", "--mode", "fb", pu],
             ref.same_language(union, union_words, max_states=BASE_STATES)),
        Case(["determinize", pu],
             ref.same_language(union, union_words, deterministic=True)),
    ]


def _subset_weak(rng, write, n):
    a, wrong, word = _perturbable(rng, lambda: gen.pooled(rng, n, 2, SUBSET_POOL))
    copy, perm = gen.shuffled(rng, a)
    back = gen.reverse(a)
    pa, pc, pw, pb = (
        write("a", a), write("copy", copy), write("wrong", wrong),
        write("reversed", back),
    )
    words = ref.sample_words(rng, a, WORDS, RANDOM_WORD_LENGTH)
    # The reverse construction runs on the reversed automaton, so both
    # subset constructions build the same few hundred subsets.
    return [
        Case(["determinize", pa],
             ref.same_language(a, words, deterministic=True)),
        Case(["determinize", "--reverse", pb],
             ref.same_language(back, words, deterministic=True, reverse=True)),
        Case(["equiv", "--mode", "wfb", pa, pc], ref.equivalent(perm, n, n)),
        Case(["equiv", "--mode", "wfb", pa, pw], ref.not_equivalent(a, wrong, word)),
        Case(["reduce", "--mode", "wbb", pa],
             ref.same_language(a, words, max_states=n)),
        Case(["bisim", "--kind", "wbb", pa, pc], ref.relation(perm, n, n)),
    ]


def sizes(bounds, count):
    """``count`` sizes spread over ``bounds`` in golden-ratio order, so every
    prefix of the list covers the range about evenly: a run that stops
    part-way through the blocks still sees the whole range of sizes."""
    lo, hi = bounds
    return [lo + round((hi - lo) * (i * 0.6180339887498949 % 1)) for i in range(count)]


PLANS = {
    "fixpoint-deep": [
        (_fixpoint_deep, n, (gen.chain, gen.ring)[i % 2])
        for i, n in enumerate(sizes(FIXPOINT_RANGE, FIXPOINT_BLOCKS))
    ],
    "sparse-wide": [(_sparse_wide, n) for n in sizes(SPARSE_RANGE, SPARSE_BLOCKS)],
    "subset-weak": [(_subset_weak, n) for n in sizes(SUBSET_RANGE, SUBSET_BLOCKS)],
}
# Blocks replayed under tracing: the first ones of each plan.
TRACE_BLOCKS = {"fixpoint-deep": 8, "sparse-wide": 6, "subset-weak": 12}


def build(workload, seed, write):
    """All cases of ``workload`` for ``seed``, block by block.

    ``write(name, auto)`` stores an automaton and returns its path; names are
    prefixed with the block number here.
    """
    blocks = []
    for number, (make, *params) in enumerate(PLANS[workload]):
        rng = random.Random(f"{workload}:{seed}:{number}")
        blocks.append(
            make(rng, lambda name, auto: write(f"{number:02d}-{name}", auto), *params)
        )
    cases = [case for block in blocks for case in block]
    for cid, case in enumerate(cases):
        case.cid = cid
    return blocks, cases
