"""Accessible subset constructions, forward and reverse, over one
breadth-first subset search."""

from __future__ import annotations

from .automaton import Nfa, _require_same_alphabet, reverse
from .relcalc import BoolVec, _unions

__all__ = ["Dfa", "nerode", "reverse_nerode"]


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


def _subsets(a: Nfa, b: Nfa | None = None):
    """Breadth-first search over the subsets sigma_u of a, for all words u,
    or, given b, over those of the disjoint union A+B, B's state j taken as
    state a.n + j, without building A+B.

    The search starts from sigma and closes it under appending one symbol,
    in a's alphabet order.  Each state's successor masks for all k symbols
    are packed into one int, symbol t at bit offset t * n, so one
    ``_unions`` over the packed rows steps a subset by every symbol at once,
    and a shift and a mask cut the image into its k successor subsets.  A
    pair's rows are A's masks and B's shifted by a.n, read from ``delta``,
    which each automaton builds once.  It yields each distinct subset once,
    as a mask, with its row: entry t is the index of the subset its t-th
    symbol leads to, indices counting subsets in the order they are
    yielded.  So the q-th subset is first reached through its
    length-lex-least word.  On ``reverse(a)`` the subsets are the terminal
    vectors tau_u of a.
    """
    n, sigma = a.n, a.sigma.mask
    rows = [a.delta[x].row_masks for x in a.alphabet]
    if b is not None:
        _require_same_alphabet(a, b)
        n, sigma = a.n + b.n, sigma | b.sigma.mask << a.n
        rows = [r + tuple(m << a.n for m in b.delta[x].row_masks)
                for x, r in zip(a.alphabet, rows)]
    offsets = range(0, n * len(a.alphabet), n)
    packed = rows[0]
    for offset, r in zip(offsets[1:], rows[1:]):
        packed = [p | m << offset for p, m in zip(packed, r)]
    step = _unions(packed)
    top = (1 << n) - 1
    index = {sigma: 0}
    order = [sigma]
    # The list doubles as the queue: iteration reaches every appended mask.
    for mask in order:
        image = step(mask)
        row = []
        for offset in offsets:
            nxt = image >> offset & top
            q = index.get(nxt)
            if q is None:
                q = index[nxt] = len(order)
                order.append(nxt)
            row.append(q)
        yield mask, row


def _vectors(a: Nfa, b: Nfa | None = None) -> list:
    """The subsets ``_subsets`` yields on a, or on A+B, as masks in search
    order.  It keeps nothing: ``bisim._terminal_vectors`` keeps the one list
    that a command reads twice."""
    return [mask for mask, _ in _subsets(a, b)]


def _determinize(a: Nfa) -> Dfa:
    masks, rows = zip(*_subsets(a))
    finals = [m & a.tau.mask for m in masks]
    subsets = [BoolVec(a.n, m) for m in masks]
    return Dfa(len(masks), a.alphabet, rows, 0, finals, subsets)


def nerode(a: Nfa) -> Dfa:
    """Determinize over the reachable initial-side subsets.

    State q reached by word u stands for the vector of states reachable from
    an initial state by u; q is final when that vector meets the terminal
    states, so the DFA accepts exactly the words the source automaton does.
    """
    return _determinize(a)


def reverse_nerode(a: Nfa) -> Dfa:
    """Subset construction over the word-indexed terminal vectors: the
    forward construction applied to the reversed automaton, numbering and
    subset labels included."""
    return _determinize(reverse(a))
