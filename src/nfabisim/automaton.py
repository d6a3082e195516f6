"""Nondeterministic automata over bit-packed transition relations.

States are the integers 0..n-1.  A word is a tuple of symbol names; a plain
string is accepted wherever a word is expected and is read as a sequence of
one-character symbols.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress, filterfalse, repeat
from operator import ne

from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    _bit_indices,
    compose,
    inverse,
    scalar,
    vec_rel,
)

__all__ = [
    "Nfa",
    "sigma_u",
    "accepts",
    "reverse",
    "factor",
    "find_isomorphism",
    "is_isomorphism",
    "random_nfa",
]


def _as_vec(value, n: int) -> BoolVec:
    vec = value if isinstance(value, BoolVec) else BoolVec.from_bits(value)
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


def sigma_u(a: Nfa, u) -> BoolVec:
    """States reachable from an initial state by reading u."""
    vec = a.sigma
    for x in a.word(u):
        vec = vec_rel(vec, a.delta[x])
    return vec


def accepts(a: Nfa, u) -> bool:
    return scalar(sigma_u(a, u), a.tau)


def reverse(a: Nfa) -> Nfa:
    """Flip every transition and swap initial with terminal states."""
    return Nfa(
        a.n,
        a.alphabet,
        {x: inverse(r) for x, r in a.delta.items()},
        a.tau,
        a.sigma,
    )


def _sum(a: Nfa, b: Nfa) -> Nfa:
    """The disjoint union A+B in A's alphabet order, B's state j renamed
    a.n + j.  No edge crosses sides, so sigma_u and tau_u of A+B split at
    a.n into those of A and of B."""
    _require_same_alphabet(a, b)
    n = a.n + b.n
    rows = {
        x: a.delta[x].row_masks + tuple(m << a.n for m in b.delta[x].row_masks)
        for x in a.alphabet
    }
    return Nfa(
        n,
        a.alphabet,
        {x: BoolRel(n, n, r) for x, r in rows.items()},
        BoolVec(n, a.sigma.mask | b.sigma.mask << a.n),
        BoolVec(n, a.tau.mask | b.tau.mask << a.n),
    )


def _map(targets, cols: int) -> BoolRel:
    """0/1 state map sending row i to column targets[i] (a class id, or the
    image of i under a permutation)."""
    return BoolRel(len(targets), cols, [1 << t for t in targets])


def _image(a: Nfa, m: BoolRel) -> Nfa:
    """Automaton over the columns of a 0/1 state map m, with
    delta'_x = m^-1 o delta_x o m, sigma' = sigma o m and tau' = tau o m.
    A class map gives the quotient, and a bijection a relabelled copy."""
    inv = inverse(m)
    return Nfa(
        m.cols,
        a.alphabet,
        {x: compose(inv, compose(r, m)) for x, r in a.delta.items()},
        vec_rel(a.sigma, m),
        vec_rel(a.tau, m),
    )


def _bijection(a: Nfa, b: Nfa, phi):
    """State map of phi, or None unless phi is a bijection between the states
    of two automata over the same alphabet set."""
    if set(a.alphabet) != set(b.alphabet):
        return None
    if a.n != b.n or len(phi) != a.n or set(phi) != set(range(b.n)):
        return None
    return _map(phi, b.n)


def factor(a: Nfa, e: Partition) -> Nfa:
    """Quotient automaton over the classes of an equivalence.

    Class C steps to class D on x when some member of C steps to some member
    of D; a class is initial or terminal when one of its members is.
    """
    if e.n != a.n:
        raise ValueError(f"partition covers {e.n} elements, automaton has {a.n}")
    return _image(a, _map(e.class_of, e.num_classes))


def is_isomorphism(a: Nfa, b: Nfa, phi) -> bool:
    """Definition check: phi is a state bijection preserving transitions,
    initial states, and terminal states."""
    m = _bijection(a, b, phi)
    if m is None:
        return False
    image = _image(a, m)
    return (image.sigma, image.tau, image.delta) == (b.sigma, b.tau, b.delta)


def _index_lists(rel: BoolRel) -> list:
    """Each row of rel as the list of its column indices."""
    return [list(_bit_indices(m)) for m in rel.row_masks]


def _refine(block: list, tables):
    """Partition refinement round by round from integer block ids: yields
    ``(block, moved)`` after each round, the new list of block ids and the
    states whose id changed in that round.

    In round k + 1 a state's key is its block plus, per neighbour table, the
    set of its neighbours' blocks after round k, and two states keep sharing
    a block when their keys agree.  A block that splits leaves its id to a
    largest piece, and its other pieces take fresh ids, so every state that
    moves moves to a fresh block.  The last round yielded is the first that
    splits no block, and it moves nothing.  Over the successor tables of A+B
    these are the paper's forward rounds (Kanellakis & Smolka, 1990); with
    predecessor tables as well, colour refinement (Berkholz, Bonsma & Grohe,
    2013).

    Rounds differ only in the states they key.  A round keys every state
    unless the round before moved at most an eighth of them; then it keys
    only their predecessors (Valmari, 2010).  Any other state sees the blocks
    it saw before under the same ids, so the states of a block that were not
    keyed stay together, as one more piece of it, and apart from those that
    were.  The predecessor lists and block members are built for the first
    such round.
    """
    n = len(block)
    fresh = max(block) + 1
    preds = members = split = None
    while True:
        if split is None:
            # Every state's key at C speed.  A key is numbered by the state
            # that first has it, whose old block is the key's.
            sets = [list(map(frozenset, map(map, repeat(block.__getitem__), t)))
                    for t in tables]
            keys = {}
            first = list(map(keys.setdefault, zip(block, *sets), range(n)))
            size = [0] * n
            for i in first:
                size[i] += 1
            # Written by rising size, a block's last piece is its largest.
            rising = sorted(keys.values(), key=size.__getitem__)
            top = dict(zip(map(block.__getitem__, rising), rising))
            label = block.copy()
            for i in filterfalse(set(top.values()).__contains__, keys.values()):
                label[i] = fresh
                fresh += 1
            new = list(map(label.__getitem__, first))
            moved = list(compress(range(n), map(ne, new, block)))
            members = None
        else:
            if preds is None:
                preds = [[] for _ in range(n)]
                for t in tables:
                    for i, targets in enumerate(t):
                        for j in targets:
                            preds[j].append(i)
            if members is None:
                members = [set() for _ in range(fresh)]
                for i, b in enumerate(block):
                    members[b].add(i)
            touched = set()
            for j in split:
                touched.update(preds[j])
            touched = list(touched)
            sets = [[frozenset(map(block.__getitem__, t[i])) for i in touched] for t in tables]
            groups = {}
            for i, key in zip(touched, zip(map(block.__getitem__, touched), *sets)):
                groups.setdefault(key, []).append(i)
            pieces = {}
            for key, group in groups.items():
                pieces.setdefault(key[0], []).append(group)
            new = block.copy()
            moved = []
            for b, parts in pieces.items():
                rest = len(members[b]) - sum(map(len, parts))
                if not rest and len(parts) == 1:
                    continue
                big = max(parts, key=len)
                if len(big) > rest:
                    # The largest keyed piece keeps the id; the states that
                    # were not keyed split off instead.
                    parts.remove(big)
                    if rest:
                        parts.append(members[b].difference(big, *parts))
                for group in parts:
                    members[b].difference_update(group)
                    members.append(set(group))
                    for i in group:
                        new[i] = fresh
                    moved.extend(group)
                    fresh += 1
        yield new, moved
        if not moved:
            return
        split = moved if 8 * len(moved) <= n else None
        block = new


def _balanced_refine(block: list, tables, n: int):
    """The stable colouring ``_refine`` reaches from block over A+B, or None
    once a colour holds unequal numbers of A and B states."""
    # Per colour, its A states minus its B states.  A round changes it only
    # for the states it moved, so it is checked in full once, before round 1.
    balance = Counter(block[:n])
    balance.subtract(block[n:])
    if any(balance.values()):
        return None
    for new, moved in _refine(block, tables):
        for i in moved:
            step = 1 if i < n else -1
            balance[block[i]] -= step
            balance[new[i]] += step
        if any(balance[block[i]] or balance[new[i]] for i in moved):
            return None
        block = new
    return block


def find_isomorphism(a: Nfa, b: Nfa):
    """The isomorphism with the lexicographically least image sequence, or
    None when the automata are not isomorphic.

    Colours over A+B start as 2 * initial + terminal and are refined by
    ``_refine`` over successor and predecessor tables per symbol.  A colour
    with unequal numbers of A and B states rules the isomorphism out.  When
    each colour holds one A state and one B state, that pairing is the
    isomorphism: a stable colouring preserves every edge and both boundary
    bits.  Otherwise the least A state i in a larger colour takes a fresh
    colour with each B state of its colour in turn, in increasing order, and
    the colours are refined again (McKay & Piperno, 2014).  The search
    backtracks only over these choices.  Every A state below i has one
    possible image, so the first bijection found is the least.  The search
    keeps its own stack, so its depth is not bounded by the recursion limit.
    """
    _require_same_alphabet(a, b)
    if a.n != b.n:
        return None
    n = a.n
    s = _sum(a, b)
    tables = [_index_lists(r) for x in s.alphabet
              for r in (s.delta[x], inverse(s.delta[x]))]
    start = [2 * (s.sigma.mask >> i & 1) + (s.tau.mask >> i & 1) for i in range(2 * n)]
    # Colourings still to refine, each with the pair of states that take a
    # fresh colour in it.  Siblings go on largest image first, so their
    # images come off in increasing order.
    stack = [(start, ())]
    while stack:
        block, pair = stack.pop()
        if pair:
            block = block.copy()
            block[pair[0]] = block[pair[1]] = max(block) + 1
        block = _balanced_refine(block, tables, n)
        if block is None:
            continue
        # A colour's members in increasing order: its A states, then as
        # many B states.
        members = {}
        for i, c in enumerate(block):
            members.setdefault(c, []).append(i)
        i = next((i for i in range(n) if len(members[block[i]]) > 2), None)
        if i is None:
            phi = tuple(members[c][1] - n for c in block[:n])
            if not is_isomorphism(a, b, phi):
                raise AssertionError("isomorphism search produced an invalid mapping")
            return phi
        cell = members[block[i]]
        stack += [(block, (i, j)) for j in reversed(cell[len(cell) // 2:])]
    return None


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
