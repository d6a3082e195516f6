"""Nondeterministic automata over bit-packed transition relations.

States are the integers 0..n-1.  A word is a tuple of symbol names; a plain
string is accepted wherever a word is expected and is read as a sequence of
one-character symbols.
"""

from __future__ import annotations

import random
from collections import Counter

from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    compose,
    inverse,
    rel_vec,
    scalar,
    vec_rel,
)

__all__ = [
    "Nfa",
    "delta_word",
    "sigma_u",
    "tau_u",
    "accepts",
    "bounded_language",
    "reverse",
    "factor",
    "subautomaton",
    "find_isomorphism",
    "is_isomorphism",
    "random_nfa",
]


def _as_vec(value, n: int) -> BoolVec:
    if isinstance(value, BoolVec):
        if value.n != n:
            raise ValueError(f"state vector has length {value.n}, expected {n}")
        return value
    vec = BoolVec.from_bits(value)
    if vec.n != n:
        raise ValueError(f"state vector has length {vec.n}, expected {n}")
    return vec


def _as_rel(value, n: int) -> BoolRel:
    rel = value if isinstance(value, BoolRel) else BoolRel.from_bits(value)
    if rel.rows != n or rel.cols != n:
        raise ValueError(
            f"transition relation is {rel.rows}x{rel.cols}, expected {n}x{n}"
        )
    return rel


class Nfa:
    """Nondeterministic automaton: per-symbol transition relations plus
    initial and terminal state vectors."""

    __slots__ = ("n", "alphabet", "delta", "sigma", "tau")

    def __init__(self, n: int, alphabet, delta, sigma, tau):
        if n < 1:
            raise ValueError("automaton needs at least one state")
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must not be empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be unique")
        if set(delta) != set(alphabet):
            raise ValueError("transition table must cover exactly the alphabet")
        self.n = n
        self.alphabet = alphabet
        self.delta = {x: _as_rel(delta[x], n) for x in alphabet}
        self.sigma = _as_vec(sigma, n)
        self.tau = _as_vec(tau, n)

    def word(self, u) -> tuple:
        """Normalize a word and reject symbols outside the alphabet."""
        syms = tuple(u)
        for s in syms:
            if s not in self.delta:
                raise ValueError(f"unknown symbol {s!r}")
        return syms

    def __eq__(self, other):
        return (
            isinstance(other, Nfa)
            and self.n == other.n
            and self.alphabet == other.alphabet
            and self.delta == other.delta
            and self.sigma == other.sigma
            and self.tau == other.tau
        )

    def __repr__(self):
        return f"<Nfa {self.n} states, alphabet {','.join(self.alphabet)}>"


def _require_same_alphabet(a: Nfa, b: Nfa) -> None:
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError(
            f"alphabet mismatch: {sorted(a.alphabet)} vs {sorted(b.alphabet)}"
        )


def delta_word(a: Nfa, u) -> BoolRel:
    """Transition relation of a whole word; the empty word gives equality."""
    rel = BoolRel.identity(a.n)
    for x in a.word(u):
        rel = compose(rel, a.delta[x])
    return rel


def sigma_u(a: Nfa, u) -> BoolVec:
    """States reachable from an initial state by reading u."""
    vec = a.sigma
    for x in a.word(u):
        vec = vec_rel(vec, a.delta[x])
    return vec


def tau_u(a: Nfa, u) -> BoolVec:
    """States from which reading u can end in a terminal state."""
    vec = a.tau
    for x in reversed(a.word(u)):
        vec = rel_vec(a.delta[x], vec)
    return vec


def accepts(a: Nfa, u) -> bool:
    return scalar(sigma_u(a, u), a.tau)


def bounded_language(a: Nfa, maxlen: int) -> list:
    """All accepted words of length <= maxlen, in length-then-lex order.

    Lexicographic order follows the alphabet declaration order.  The frontier
    of each prefix is a single state vector, and prefixes with an empty
    frontier are pruned.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    out = []
    level = [((), a.sigma)]
    for length in range(maxlen + 1):
        for word, frontier in level:
            if scalar(frontier, a.tau):
                out.append(word)
        if length == maxlen:
            break
        nxt = []
        for word, frontier in level:
            for x in a.alphabet:
                succ = vec_rel(frontier, a.delta[x])
                if not succ.is_empty():
                    nxt.append((word + (x,), succ))
        level = nxt
        if not level:
            break
    return out


def reverse(a: Nfa) -> Nfa:
    """Flip every transition and swap initial with terminal states."""
    return Nfa(
        a.n,
        a.alphabet,
        {x: inverse(r) for x, r in a.delta.items()},
        a.tau,
        a.sigma,
    )


def factor(a: Nfa, e: Partition) -> Nfa:
    """Quotient automaton over the classes of an equivalence.

    A class pair gets an x-transition when the saturated relation
    E o delta_x o E holds between representatives; a class is initial or
    terminal when a representative lies in sigma o E, resp. E o tau.
    """
    if e.n != a.n:
        raise ValueError(f"partition covers {e.n} elements, automaton has {a.n}")
    rel_e = e.to_relation()
    reps = [members[0] for members in e.classes]
    m = len(reps)
    delta = {}
    for x in a.alphabet:
        saturated = compose(rel_e, compose(a.delta[x], rel_e))
        delta[x] = BoolRel.from_bits(
            [[saturated[r1, r2] for r2 in reps] for r1 in reps]
        )
    init = vec_rel(a.sigma, rel_e)
    term = rel_vec(rel_e, a.tau)
    return Nfa(
        m,
        a.alphabet,
        delta,
        [init[r] for r in reps],
        [term[r] for r in reps],
    )


def subautomaton(a: Nfa, keep) -> Nfa:
    """Restriction to a nonempty state subset, states reindexed in order."""
    keep = _as_vec(keep, a.n)
    if keep.is_empty():
        raise ValueError("cannot restrict to the empty state set")
    idx = keep.indices()
    delta = {}
    for x in a.alphabet:
        rel = a.delta[x]
        delta[x] = BoolRel.from_bits(
            [[rel[i, j] for j in idx] for i in idx]
        )
    return Nfa(
        len(idx),
        a.alphabet,
        delta,
        [a.sigma[i] for i in idx],
        [a.tau[i] for i in idx],
    )


def is_isomorphism(a: Nfa, b: Nfa, phi) -> bool:
    """Definition check: phi is a state bijection preserving transitions,
    initial states, and terminal states."""
    if set(a.alphabet) != set(b.alphabet):
        return False
    if a.n != b.n or len(phi) != a.n or set(phi) != set(range(b.n)):
        return False
    for i in range(a.n):
        if a.sigma[i] != b.sigma[phi[i]] or a.tau[i] != b.tau[phi[i]]:
            return False
    for x in a.alphabet:
        ra, rb = a.delta[x], b.delta[x]
        for i in range(a.n):
            for j in range(a.n):
                if ra[i, j] != rb[phi[i], phi[j]]:
                    return False
    return True


def _neighbour_lists(auto: Nfa):
    succ, pred = {}, {}
    for x in auto.alphabet:
        rel = auto.delta[x]
        rev = inverse(rel)
        succ[x] = [rel.row(i).indices() for i in range(auto.n)]
        pred[x] = [rev.row(i).indices() for i in range(auto.n)]
    return succ, pred


def _stable_colors(a: Nfa, b: Nfa):
    """Iterated degree refinement shared across both automata.

    Returns stable color arrays, or None as soon as the color histograms
    diverge (then no isomorphism can exist).
    """
    symbols = a.alphabet
    succ_a, pred_a = _neighbour_lists(a)
    succ_b, pred_b = _neighbour_lists(b)
    table = {}

    def assign(sig):
        return table.setdefault(sig, len(table))

    def recolor(colors, succ, pred, n):
        return [
            assign(
                (
                    colors[i],
                    tuple(
                        (
                            tuple(sorted(colors[j] for j in succ[x][i])),
                            tuple(sorted(colors[j] for j in pred[x][i])),
                        )
                        for x in symbols
                    ),
                )
            )
            for i in range(n)
        ]

    ca = [assign((a.sigma[i], a.tau[i])) for i in range(a.n)]
    cb = [assign((b.sigma[j], b.tau[j])) for j in range(b.n)]
    for _ in range(a.n + 1):
        if Counter(ca) != Counter(cb):
            return None
        table.clear()
        na = recolor(ca, succ_a, pred_a, a.n)
        nb = recolor(cb, succ_b, pred_b, b.n)
        stable = len(set(na)) == len(set(ca)) and len(set(nb)) == len(set(cb))
        ca, cb = na, nb
        if stable:
            break
    if Counter(ca) != Counter(cb):
        return None
    return ca, cb


def find_isomorphism(a: Nfa, b: Nfa):
    """Search for a state bijection satisfying the isomorphism conditions.

    Color refinement prunes the candidate images, then a backtracking
    assignment tries states in index order and images in increasing order,
    so the returned bijection has the lexicographically least image sequence
    among all isomorphisms.  The search keeps its own stack, so its depth
    is not bounded by the interpreter's recursion limit.  Returns None when
    the automata are not isomorphic.
    """
    _require_same_alphabet(a, b)
    if a.n != b.n:
        return None
    colors = _stable_colors(a, b)
    if colors is None:
        return None
    ca, cb = colors
    image = []
    used = [False] * b.n

    def consistent(i, j):
        if ca[i] != cb[j]:
            return False
        for x in a.alphabet:
            ra, rb = a.delta[x], b.delta[x]
            for i2 in range(i + 1):
                j2 = image[i2] if i2 < i else j
                if ra[i, i2] != rb[j, j2] or ra[i2, i] != rb[j2, j]:
                    return False
        return True

    # ``image`` is the stack: extend it with the least consistent unused image
    # from j on, or pop its top and resume the search just above it.
    j = 0
    while len(image) < a.n:
        i = len(image)
        while j < b.n and (used[j] or not consistent(i, j)):
            j += 1
        if j < b.n:
            image.append(j)
            used[j] = True
            j = 0
        elif image:
            j = image.pop()
            used[j] = False
            j += 1
        else:
            return None
    phi = tuple(image)
    if not is_isomorphism(a, b, phi):
        raise AssertionError("isomorphism search produced an invalid mapping")
    return phi


def random_nfa(n: int, alphabet, transition_density: float, seed) -> Nfa:
    """Seeded random automaton; every bit is drawn independently at the given
    density, and empty initial/terminal vectors get one forced bit."""
    if n < 1:
        raise ValueError("automaton needs at least one state")
    if not 0.0 <= transition_density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {transition_density}")
    rng = random.Random(seed)
    alphabet = tuple(alphabet)
    delta = {}
    for x in alphabet:
        delta[x] = BoolRel.from_bits(
            [
                [1 if rng.random() < transition_density else 0 for _ in range(n)]
                for _ in range(n)
            ]
        )
    def boundary():
        bits = [1 if rng.random() < transition_density else 0 for _ in range(n)]
        if not any(bits):
            bits[rng.randrange(n)] = 1
        return bits

    return Nfa(n, alphabet, delta, boundary(), boundary())
