"""Nondeterministic automata over bit-packed transition relations.

States are the integers 0..n-1.  A word is a tuple of symbol names; a plain
string is accepted wherever a word is expected and is read as a sequence of
one-character symbols.
"""

from __future__ import annotations

import random
from itertools import compress, filterfalse, repeat
from operator import ge, ne

from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    _bit_indices,
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
    initial and terminal state vectors.

    Every automaton holds its successor index (``_succ``) from the start:
    per symbol in alphabet order, each state's successors as a rising list.
    ``Nfa(...)`` derives it from its masks; the program's builders write it
    alone (``_from_index``).  The lists are shared and no reader changes
    them.
    """

    __slots__ = ("n", "alphabet", "_delta", "sigma", "tau", "_reversal", "_succ",
                 "_pair_search")

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
        self._delta = {x: _as_rel(delta[x], n) for x in alphabet}
        self.sigma = _as_vec(sigma, n)
        self.tau = _as_vec(tau, n)
        self._succ = [_index_lists(self._delta[x]) for x in alphabet]
        self._reversal = self._pair_search = None

    @property
    def delta(self) -> dict:
        """Per symbol, the transition relation as row masks: those given to
        ``Nfa(...)``, or for an automaton built from its successor index
        (``_from_index``) built here on first read, each row from its list."""
        if self._delta is None:
            self._delta = {}
            for x, lists in zip(self.alphabet, self._succ):
                masks = []  # on rows of a few states a loop beats a call
                for row in lists:
                    m = 0
                    for j in row:
                        m |= 1 << j
                    masks.append(m)
                self._delta[x] = BoolRel(self.n, self.n, masks)
        return self._delta

    def word(self, u) -> tuple:
        """Normalize a word and reject symbols outside the alphabet."""
        syms = tuple(u)
        for s in syms:
            if s not in self.alphabet:
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
    """Flip every transition and swap initial with terminal states.  The
    only place where transitions are inverted, once per automaton: an
    automaton and its reversal keep each other, so ``reverse(reverse(a))``
    is ``a`` and the predecessors by x are ``reverse(a).delta[x]``.

    The reversal is built from its successor index alone, filled in one
    pass over a's per symbol: sources are visited in rising order, so each
    predecessor list comes out rising.
    """
    if a._reversal is None:
        index = []
        for succ in a._succ:
            preds = [[] for _ in range(a.n)]
            for i, row in enumerate(succ):
                for j in row:
                    preds[j].append(i)
            index.append(preds)
        r = _from_index(a.n, a.alphabet, index, a.tau.mask, a.sigma.mask)
        a._reversal, r._reversal = r, a
    return a._reversal


def _sum(a: Nfa, b: Nfa) -> Nfa:
    """The disjoint union A+B in A's alphabet order, B's state j renamed
    a.n + j.  No edge crosses sides, so sigma_u and tau_u of A+B split at
    a.n into those of A and of B.

    It is built from its successor index alone, joined from those of A and
    B: A's lists as they are, then B's, looked up by symbol and shifted by
    a.n.  A's lists are shared, and no reader changes them."""
    _require_same_alphabet(a, b)
    off, by_symbol = a.n, dict(zip(b.alphabet, b._succ))
    index = [lists + [[j + off for j in row] for row in by_symbol[x]]
             for x, lists in zip(a.alphabet, a._succ)]
    return _from_index(off + b.n, a.alphabet, index, a.sigma.mask | b.sigma.mask << off,
                       a.tau.mask | b.tau.mask << off)


def _image(a: Nfa, targets, cols: int) -> Nfa:
    """Image of a under the state map i -> targets[i] onto ``cols`` states:
    each edge i -> j becomes targets[i] -> targets[j], and a state is initial
    or terminal when a state mapped onto it is.  A class map gives the
    quotient, and a bijection a relabelled copy.

    The image is built from its successor index alone, in one pass over
    a's per symbol: an edge appends its target to row targets[i]'s list
    unless the row's mask of seen targets has it, and each list is sorted.
    """
    bits = [1 << t for t in targets]
    index = []
    for succ in a._succ:
        seen = [0] * cols
        lists = [[] for _ in range(cols)]
        for t, row in zip(targets, succ):
            m, out = seen[t], lists[t]
            for j in row:
                bit = bits[j]
                if not m & bit:
                    m |= bit
                    out.append(targets[j])
            seen[t] = m
        for out in lists:
            out.sort()
        index.append(lists)
    sigma, tau = (sum({bits[i] for i in _bit_indices(v.mask)}) for v in (a.sigma, a.tau))
    return _from_index(cols, a.alphabet, index, sigma, tau)


def _is_bijection(a: Nfa, b: Nfa, phi) -> bool:
    """Whether phi is a bijection between the states of two automata over
    the same alphabet set."""
    return (set(a.alphabet) == set(b.alphabet) and a.n == b.n == len(phi)
            and set(phi) == set(range(b.n)))


def factor(a: Nfa, e: Partition) -> Nfa:
    """Quotient automaton over the classes of an equivalence.

    Class C steps to class D on x when some member of C steps to some member
    of D; a class is initial or terminal when one of its members is.  The
    discrete partition gives a itself.
    """
    if e.n != a.n:
        raise ValueError(f"partition covers {e.n} elements, automaton has {a.n}")
    # Class ids follow first members, so a discrete partition maps i to i.
    if e.num_classes == a.n:
        return a
    return _image(a, e.class_of, e.num_classes)


def is_isomorphism(a: Nfa, b: Nfa, phi) -> bool:
    """Definition check: phi is a state bijection preserving transitions,
    initial states, and terminal states.  The image of a under phi is
    compared with b through their successor indices, symbol by symbol."""
    if not _is_bijection(a, b, phi):
        return False
    image, by_symbol = _image(a, phi, b.n), dict(zip(b.alphabet, b._succ))
    return (image.sigma == b.sigma and image.tau == b.tau
            and image._succ == list(map(by_symbol.get, a.alphabet)))


def _index_lists(rel: BoolRel) -> list:
    """Each row of rel as the list of its column indices."""
    return [list(_bit_indices(m)) for m in rel.row_masks]


def _from_index(n: int, alphabet, index: list, sigma, tau) -> Nfa:
    """The automaton whose successor index is ``index``, in the order of
    ``alphabet``, with initial and terminal state masks sigma and tau.  The
    inputs are trusted: each caller derives them from a valid automaton or
    from checked text."""
    a = Nfa.__new__(Nfa)
    a.n, a.alphabet = n, tuple(alphabet)
    a.sigma, a.tau = BoolVec(n, sigma), BoolVec(n, tau)
    a._delta = a._reversal = a._pair_search = None
    a._succ = index
    return a


def _from_edges(n: int, edges: dict, sigma, tau) -> Nfa:
    """The automaton whose x-edges are ``edges[x]``, source and target
    states alternating, in any order and with repeats, over the alphabet of
    edges' keys in their order, as the parser reads them.  Each edge is
    appended to its source's list, after a line whose edges come out of
    order or repeated is sorted and freed of repeats."""
    index = []
    for ends in edges.values():
        srcs, dsts = ends[::2], ends[1::2]
        pairs = zip(srcs, dsts)
        if any(map(ge, zip(srcs, dsts), zip(srcs[1:], dsts[1:]))):
            pairs = sorted(set(pairs))
        lists = [[] for _ in range(n)]
        for src, dst in pairs:
            lists[src].append(dst)
        index.append(lists)
    return _from_index(n, edges, index, sigma, tau)


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
    these are the paper's forward rounds (Kanellakis & Smolka, 1990).

    Rounds differ only in the states they key.  A round keys every state
    unless the round before moved at most an eighth of them; then it keys
    only their predecessors (Valmari, 2010).  Any other state sees the blocks
    it saw before under the same ids, so the states of a block that were not
    keyed stay together, as one more piece of it, and apart from those that
    were.  The predecessor lists are built for the first such round, and
    the block members for the first that keys a state.
    """
    n = len(block)
    fresh = max(block) + 1
    split = preds = members = None
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
            touched = set()
            for j in split:
                touched.update(preds[j])
            touched = list(touched)
            if members is None and touched:
                members = [set() for _ in range(fresh)]
                for i, b in enumerate(block):
                    members[b].add(i)
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


def _match(col_a, col_b):
    """The bijection phi that pairs each state i of one side with a state
    phi[i] of equal colour on the other, or None when the two multisets of
    colours differ.  Within a colour the states of both sides are paired in
    rising index order."""
    if sorted(col_a) != sorted(col_b):
        return None
    groups = {}  # highest first, so pop() hands them out rising
    for j in reversed(range(len(col_b))):
        groups.setdefault(col_b[j], []).append(j)
    return tuple(groups[c].pop() for c in col_a)


def find_isomorphism(a: Nfa, b: Nfa):
    """The isomorphism between two fb-reduced automata, or None when there
    is none.

    Precondition: the greatest fb equivalence of each automaton is the
    identity, as on the factors that route 2 of the fb decider compares.
    One ``_refine`` over the successor tables of A+B colours the states
    from 2 * initial + terminal.  An isomorphism keeps colours, so an
    unbalanced colour rules one out.  Otherwise each colour holds one state
    per side, and that pairing is the isomorphism: the stable colouring
    restricted to one side is an fb equivalence (equal colours agree on
    terminal states and on their successors' colours, and no edge leaves
    the side), which on a reduced side leaves every colour one state.  A
    colour with two states of one side means an input was not reduced, an
    internal error.
    """
    _require_same_alphabet(a, b)
    if a.n != b.n:
        return None
    n = a.n
    s = _sum(a, b)
    block = [2 * (s.sigma.mask >> i & 1) + (s.tau.mask >> i & 1) for i in range(2 * n)]
    for block, _ in _refine(block, s._succ):
        pass
    phi = _match(block[:n], block[n:])
    if phi is None:
        return None
    if len(set(block[n:])) < n:
        raise AssertionError("a colour holds two states of one side: "
                             "an automaton is not fb-reduced")
    if not is_isomorphism(a, b, phi):
        raise AssertionError("successor refinement produced an invalid mapping")
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
        rows = []
        for _ in range(n):
            m = 0
            for j in range(n):
                if rng.random() < transition_density:
                    m |= 1 << j
            rows.append(m)
        delta[x] = BoolRel(n, n, rows)
    def boundary():
        bits = [1 if rng.random() < transition_density else 0 for _ in range(n)]
        if not any(bits):
            bits[rng.randrange(n)] = 1
        return bits

    return Nfa(n, alphabet, delta, boundary(), boundary())
