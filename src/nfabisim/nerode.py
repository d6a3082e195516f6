"""Accessible subset constructions and the forced DFA isomorphism check."""

from __future__ import annotations

from collections import deque

from .automaton import Nfa
from .relcalc import BoolVec, _preimages, scalar, vec_rel

__all__ = ["Dfa", "nerode", "reverse_nerode", "dfa_isomorphic"]


class Dfa:
    """Deterministic automaton produced by a subset construction.

    States are numbered in discovery order (start = 0); ``subset_of[q]`` is
    the state vector of the source automaton that state q stands for.  The
    transition function is total: the empty subset, once reached, is a state
    like any other and loops to itself.
    """

    __slots__ = ("m", "alphabet", "next", "start", "final", "subset_of")

    def __init__(self, m, alphabet, next, start, final, subset_of):
        self.m = m
        self.alphabet = tuple(alphabet)
        self.next = tuple(tuple(row) for row in next)
        self.start = start
        self.final = tuple(bool(f) for f in final)
        self.subset_of = tuple(subset_of)
        if len(self.next) != m or len(self.final) != m or len(self.subset_of) != m:
            raise ValueError("inconsistent component sizes")
        if not 0 <= start < m:
            raise ValueError("start state out of range")
        if len(set(v.mask for v in self.subset_of)) != m:
            raise ValueError("subset labels must be pairwise distinct")

    def step(self, q: int, x: str) -> int:
        return self.next[q][self.alphabet.index(x)]

    def accepts(self, u) -> bool:
        q = self.start
        for x in u:
            q = self.step(q, x)
        return self.final[q]

    def bounded_language(self, maxlen: int) -> list:
        out = []
        level = [((), self.start)]
        for length in range(maxlen + 1):
            out.extend(word for word, q in level if self.final[q])
            if length == maxlen:
                break
            level = [
                (word + (x,), self.next[q][k])
                for word, q in level
                for k, x in enumerate(self.alphabet)
            ]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and self.m == other.m
            and self.alphabet == other.alphabet
            and self.next == other.next
            and self.start == other.start
            and self.final == other.final
            and self.subset_of == other.subset_of
        )

    def __repr__(self):
        return f"<Dfa {self.m} states, alphabet {','.join(self.alphabet)}>"


def _subset_construction(a: Nfa, start: BoolVec, advance, is_final) -> Dfa:
    index = {start.mask: 0}
    subsets = [start]
    next_rows = []
    queue = deque([start])
    while queue:
        vec = queue.popleft()
        row = []
        for x in a.alphabet:
            succ = advance(vec, x)
            q = index.get(succ.mask)
            if q is None:
                q = len(subsets)
                index[succ.mask] = q
                subsets.append(succ)
                queue.append(succ)
            row.append(q)
        next_rows.append(row)
    return Dfa(
        len(subsets),
        a.alphabet,
        next_rows,
        0,
        [is_final(v) for v in subsets],
        subsets,
    )


def nerode(a: Nfa) -> Dfa:
    """Determinize over the reachable initial-side subsets.

    State q reached by word u stands for the vector of states reachable from
    an initial state by u; q is final when that vector meets the terminal
    states.  The bounded language agrees with the source automaton at every
    depth.
    """
    return _subset_construction(
        a,
        a.sigma,
        lambda vec, x: vec_rel(vec, a.delta[x]),
        lambda vec: scalar(vec, a.tau),
    )


def reverse_nerode(a: Nfa) -> Dfa:
    """Subset construction over the word-indexed terminal vectors.

    Equal to the forward construction applied to the reversed automaton,
    numbering and subset labels included.  Each step is a preimage read
    from ``_preimages`` tables.
    """
    pre = {x: _preimages(a.delta[x]) for x in a.alphabet}
    return _subset_construction(
        a,
        a.tau,
        lambda vec, x: BoolVec(a.n, pre[x](vec.mask)),
        lambda vec: scalar(a.sigma, vec),
    )


def dfa_isomorphic(d1: Dfa, d2: Dfa):
    """State bijection between two DFAs, or None.

    For deterministic automata the mapping is forced: the starts must match
    and the rest propagates along transitions.  Subset labels are ignored;
    only the structure and the final flags matter.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    if d1.m != d2.m:
        return None
    image = [None] * d1.m
    taken = [False] * d2.m
    stack = [(d1.start, d2.start)]
    while stack:
        p, q = stack.pop()
        if image[p] is not None:
            if image[p] != q:
                return None
            continue
        if taken[q] or d1.final[p] != d2.final[q]:
            return None
        image[p] = q
        taken[q] = True
        for k in range(len(d1.alphabet)):
            stack.append((d1.next[p][k], d2.next[q][k]))
    if any(img is None for img in image):
        # Unreachable states cannot be matched by propagation.
        return None
    return tuple(image)
