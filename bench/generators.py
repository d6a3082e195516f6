"""Seeded input families, built with ``random.Random`` alone.

Every random generator takes its own ``random.Random`` and draws from it in a
fixed order, so one seed always gives the same automata and the same bytes.  None
of them calls ``nfabisim.random_nfa``: a change to the program cannot change
the benchmark's inputs.
"""

from __future__ import annotations

from bench.automata import Auto

ALPHABET = ("a", "b")
# Few terminal states leave short words that the random automata reject,
# which the language-perturbed copies need.
TERMINAL_SHARE = 0.15


def chain(n):
    """States 0..n-1 in a line: ``a`` steps forward, ``b`` loops on every
    state.  Only the number of ``a``s tells states apart, so the residual
    fixpoint separates one more state per round, about n rounds in all."""
    pairs = {"a": [(q, q + 1) for q in range(n - 1)], "b": [(q, q) for q in range(n)]}
    return Auto.from_pairs(n, ALPHABET, pairs, [0], [n - 1])


def ring(n):
    """A cycle on ``a`` through 0..n-1 with ``b`` looping on every state;
    state 0 is both initial and terminal."""
    pairs = {"a": [(q, (q + 1) % n) for q in range(n)], "b": [(q, q) for q in range(n)]}
    return Auto.from_pairs(n, ALPHABET, pairs, [0], [0])


def _boundary(rng, n):
    """One initial state and a TERMINAL_SHARE of terminal states."""
    terminal = max(1, round(n * TERMINAL_SHARE))
    return rng.sample(range(n), 1), rng.sample(range(n), terminal)


def sparse(rng, n, degree):
    """Random NFA with ``degree`` distinct successors per state and symbol.

    One ``a``-successor of each state is its next state on a seeded cycle
    through all states, so every state is reachable and co-reachable and
    reduction keeps about all of them, as it does on most random inputs."""
    cycle = list(range(n))
    rng.shuffle(cycle)
    following = {q: cycle[(i + 1) % n] for i, q in enumerate(cycle)}
    pairs = {}
    for x in ALPHABET:
        found = []
        for q in range(n):
            targets = {following[q]} if x == "a" else set()
            while len(targets) < degree:
                targets.add(rng.randrange(n))
            found.extend((q, t) for t in sorted(targets))
        pairs[x] = found
    return Auto.from_pairs(n, ALPHABET, pairs, *_boundary(rng, n))


def pooled(rng, n, degree, pool):
    """Random NFA whose successor sets, per symbol, are drawn from a pool of
    ``pool`` random sets of ``degree`` states each.

    Every state is nondeterministic, yet each subset the forward or the
    reverse subset construction reaches (after the first step) is a union of
    pool sets or of their preimage classes, so neither construction can
    exceed 2**pool + 1 states per symbol.
    """
    pairs = {}
    for x in ALPHABET:
        sets = [rng.sample(range(n), degree) for _ in range(pool)]
        pairs[x] = [(q, t) for q in range(n) for t in sets[rng.randrange(pool)]]
    return Auto.from_pairs(n, ALPHABET, pairs, *_boundary(rng, n))


def relabel(auto, perm):
    """Copy of ``auto`` with state q renamed perm[q]."""
    pairs = {
        x: [(perm[s], perm[d]) for s, d in auto.pairs(x)] for x in auto.alphabet
    }
    return Auto.from_pairs(
        auto.n,
        auto.alphabet,
        pairs,
        [perm[q] for q in auto.initial],
        [perm[q] for q in auto.terminal],
    )


def reverse(auto):
    """Every transition flipped, initial and terminal states swapped."""
    pairs = {x: [(d, s) for s, d in auto.pairs(x)] for x in auto.alphabet}
    return Auto.from_pairs(auto.n, auto.alphabet, pairs, auto.terminal, auto.initial)


def shuffled(rng, auto):
    """Isomorphic copy under a seeded permutation; returns (copy, perm) with
    state q of ``auto`` renamed perm[q]."""
    perm = list(range(auto.n))
    rng.shuffle(perm)
    return relabel(auto, perm), perm


def copies(rng, base, k):
    """Disjoint union of k isomorphic copies of ``base`` under one seeded
    numbering.  Corresponding states of the copies are forward bisimilar, so
    reduction by the greatest forward bisimulation equivalence leaves at most
    ``base.n`` states."""
    m = base.n
    perm = list(range(k * m))
    rng.shuffle(perm)
    pairs = {x: [] for x in base.alphabet}
    initial, terminal = [], []
    for c in range(k):
        image = perm[c * m:(c + 1) * m]
        for x in base.alphabet:
            pairs[x].extend((image[s], image[d]) for s, d in base.pairs(x))
        initial.extend(image[q] for q in base.initial)
        terminal.extend(image[q] for q in base.terminal)
    return Auto.from_pairs(k * m, base.alphabet, pairs, initial, terminal)


def perturbed(rng, auto, limit=512):
    """Shuffled copy of ``auto`` that accepts one more word.

    A breadth-first search over the subsets of ``auto`` finds, at the
    shortest length where any exist, words u and symbols x such that no state
    reached by ux is terminal.  One of them is picked; a fresh terminal state
    f and a transition q -x-> f from a state q reached by u make ux accepted.
    Returns (copy, ux); the reference check confirms on both automata that ux
    separates them.
    """
    found = []
    seen = {auto.initial}
    level = [(auto.initial, ())]
    while level and not found and len(seen) < limit:
        nxt_level = []
        for states, word in level:
            for x in auto.alphabet:
                nxt = auto.step(states, x)
                if states and nxt.isdisjoint(auto.terminal):
                    found.append((states, word, x))
                if nxt not in seen:
                    seen.add(nxt)
                    nxt_level.append((nxt, word + (x,)))
        level = nxt_level
    if not found:
        raise ValueError("no word to add: every short extension is accepted")
    states, word, x = found[rng.randrange(len(found))]
    q = rng.choice(sorted(states))
    perm = list(range(auto.n + 1))
    rng.shuffle(perm)
    grown = Auto.from_pairs(
        auto.n + 1,
        auto.alphabet,
        {y: auto.pairs(y) + ([(q, auto.n)] if y == x else []) for y in auto.alphabet},
        auto.initial,
        set(auto.terminal) | {auto.n},
    )
    return relabel(grown, perm), word + (x,)
