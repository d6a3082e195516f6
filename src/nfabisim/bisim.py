"""Checkers and greatest-relation algorithms for all ten (bi)simulation kinds.

The strong kinds are decided by the paper's shrinking fixpoint: start from
the largest relation compatible with the boundary vectors, intersect it with
its per-symbol residual bounds round by round until stable, then test the two
covering conditions that the fixpoint cannot enforce.  For fb every round is
one round of partition refinement over the disjoint union of the two
automata, which re-keys only the predecessors of the states the round before
moved once those are few, and returns the paper's exact sequence of
relations.  For bfb phi is kept once, as row masks, and both conditions are
read from rows.  The paper's rounds (``backward_forward_bisim_steps``) stay
as the specification; the greatest bfb runs round 0 and then propagates
each row's removed pairs as soon as they are found, re-testing only the rows
above and below that row, and only at the states those pairs can have cost,
so it does no round's worth of work per removed row.  bb and fbb are fb and
bfb on the reversed automata, which swap the initial and terminal vectors;
their covering conditions are named and tested on A and B themselves.  The
greatest fb and bb equivalences of one automaton, which the reductions
factor by, build no relation: they refine A, or its reversal, until a round
moves nothing and read the classes off the stable blocks, which are the
fixpoint's classes (``greatest_fb_equivalence``).  The weak kinds read the
finitely many reachable vector pairs instead, found by the one breadth-first
subset search (``nerode._subsets``) that also determinizes: the weak forward
kinds the terminal-vector pairs, the subsets of the reversed disjoint union
A+B, and the weak backward kinds the initial-vector pairs, the subsets of
A+B itself.  They compare the states' membership signatures over them.

Condition names used in reports:

* ``initial-forward``   -- every initial state of A is related to an initial state of B
* ``initial-backward``  -- every initial state of B is related to an initial state of A
* ``terminal-forward``  -- every terminal state of A is related to a terminal state of B
* ``terminal-backward`` -- every terminal state of B is related to a terminal state of A

plus ``step-*[x]``, ``*-image`` and ``weak-*`` names for the per-symbol,
containment and weak conditions itemized by :func:`check`.  Each strong kind
is checked as a forward and/or a backward simulation half; a ``-rev`` half is
the same half asked of phi^-1 between B and A.  Each weak kind is checked
on the vector pairs its greatest relation reads.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import cache

from .automaton import (
    Nfa,
    _refine,
    _require_same_alphabet,
    _sum,
    reverse,
)
from .nerode import _vectors
from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    _Record,
    _columns,
    _unions,
    arrow_left,
    arrow_right,
    compose,
    intersect,
    inverse,
    rel_vec,
    subset_of,
    vec_rel,
)

__all__ = [
    "BisimKind",
    "CheckResult",
    "BisimReport",
    "check",
    "forward_bisim_steps",
    "backward_forward_bisim_steps",
    "greatest_forward_bisim",
    "greatest_backward_forward_bisim",
    "greatest_backward_bisim",
    "greatest_forward_backward_bisim",
    "greatest_fb_equivalence",
    "greatest_bb_equivalence",
    "reachable_terminal_pairs",
    "greatest_weak_forward_sim",
    "greatest_weak_forward_bisim",
    "greatest_weak_backward_bisim",
    "wfb_equivalence_bound",
    "wbb_equivalence_bound",
]


class BisimKind(Enum):
    FORWARD_SIM = "fs"
    BACKWARD_SIM = "bs"
    FORWARD_BISIM = "fb"
    BACKWARD_BISIM = "bb"
    BACKWARD_FORWARD_BISIM = "bfb"
    FORWARD_BACKWARD_BISIM = "fbb"
    WEAK_FORWARD_SIM = "wfs"
    WEAK_BACKWARD_SIM = "wbs"
    WEAK_FORWARD_BISIM = "wfb"
    WEAK_BACKWARD_BISIM = "wbb"


class CheckResult(_Record):
    """Outcome of a definition check with one entry per defining condition."""

    __slots__ = ("kind", "ok", "conditions")
    kind: BisimKind
    ok: bool
    conditions: tuple

    def __bool__(self):
        return self.ok


class BisimReport(_Record):
    """Result of a greatest-relation computation.

    Exactly one of ``relation`` and ``failure`` is set.  ``iterations`` counts
    the paper's rounds for fb and bb, ``_lost_witnesses`` passes for bfb and
    fbb (round 0, then one per row whose removed pairs were propagated), and
    explored vector pairs for the weak kinds.  ``flags`` carries
    ``relation-is-empty`` when an accepted relation has no pairs (possible
    only with empty initial vectors).
    """

    __slots__ = ("kind", "relation", "iterations", "failure", "flags")
    _defaults = {"failure": None, "flags": ()}
    kind: BisimKind
    relation: BoolRel | None
    iterations: int
    failure: tuple | None
    flags: tuple

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if (self.relation is None) == (self.failure is None):
            raise ValueError("exactly one of relation and failure must be set")


def _require_shape(a: Nfa, b: Nfa, phi: BoolRel) -> None:
    if phi.rows != a.n or phi.cols != b.n:
        raise ValueError(
            f"relation is {phi.rows}x{phi.cols}, expected {a.n}x{b.n}"
        )


# Covering conditions: the ones a greatest-relation report can fail on.
_COVER = {
    "initial-forward": lambda a, b, phi: a.sigma.issubset(rel_vec(phi, b.sigma)),
    "initial-backward": lambda a, b, phi: b.sigma.issubset(vec_rel(a.sigma, phi)),
    "terminal-forward": lambda a, b, phi: a.tau.issubset(rel_vec(phi, b.tau)),
    "terminal-backward": lambda a, b, phi: b.tau.issubset(vec_rel(a.tau, phi)),
}


def _forward_half(a, b, phi, inv, symbols, names):
    """Conditions for phi to be a forward simulation of A by B: initial states
    are covered, every step of A is matched by B, terminal states map into
    terminal ones."""
    initial, step, terminal = names
    conds = [(initial, _COVER["initial-forward"](a, b, phi))]
    for x in symbols:
        holds = subset_of(compose(inv, a.delta[x]), compose(b.delta[x], inv))
        conds.append((f"{step}[{x}]", holds))
    conds.append((terminal, vec_rel(a.tau, phi).issubset(b.tau)))
    return conds


def _backward_half(a, b, phi, inv, symbols, names):
    """Conditions for phi to be a backward simulation of A by B: initial
    states map into initial ones, every step into A is matched by B, terminal
    states are covered."""
    initial, step, terminal = names
    conds = [(initial, vec_rel(a.sigma, phi).issubset(b.sigma))]
    for x in symbols:
        holds = subset_of(compose(a.delta[x], phi), compose(phi, b.delta[x]))
        conds.append((f"{step}[{x}]", holds))
    conds.append((terminal, _COVER["terminal-forward"](a, b, phi)))
    return conds


# A half is (checker, flipped, three condition names); a flipped half is the
# same checker asked of phi^-1 between B and A.  Halves iterate A's symbols
# even when flipped, so the step conditions keep A's alphabet order.
_FORWARD = (_forward_half, False, "initial-forward", "step-forward", "terminal-image")
_FORWARD_REV = (
    _forward_half, True, "initial-backward", "step-forward-rev", "terminal-image-rev"
)
_BACKWARD = (
    _backward_half, False, "initial-image", "step-backward", "terminal-forward"
)
_BACKWARD_REV = (
    _backward_half, True, "initial-image-rev", "step-backward-rev", "terminal-backward"
)
_HALVES = {
    BisimKind.FORWARD_SIM: (_FORWARD,),
    BisimKind.BACKWARD_SIM: (_BACKWARD,),
    BisimKind.FORWARD_BISIM: (_FORWARD, _FORWARD_REV),
    BisimKind.BACKWARD_BISIM: (_BACKWARD, _BACKWARD_REV),
    BisimKind.BACKWARD_FORWARD_BISIM: (_BACKWARD, _FORWARD_REV),
    BisimKind.FORWARD_BACKWARD_BISIM: (_FORWARD, _BACKWARD_REV),
}


def _terminal_vectors(a: Nfa, b: Nfa) -> list:
    """The terminal vectors tau_u of A+B, as masks in search order: the
    subsets ``nerode._subsets`` reaches on reverse(A+B), searched as the
    pair of the reversals that ``reverse`` keeps with A and B.  A keeps the
    list of its last search, keyed by B, as it keeps its reversal, so a
    greatest weak forward relation and its check, and the weak isomorphism
    test and its check, search each pair once."""
    kept = a._pair_search
    if kept is None or kept[0] is not b:
        kept = a._pair_search = (b, _vectors(reverse(a), reverse(b)))
    return kept[1]


# Per weak kind: the vector pairs of A and B as masks of A+B (the terminal
# vectors tau_u, or the initial vectors sigma_u, the subsets of A+B itself),
# the names of the conditions on those pairs over phi and, for a
# bisimulation, over phi^-1, and the covering conditions.
_WEAK = {
    BisimKind.WEAK_FORWARD_SIM: (
        _terminal_vectors, ("weak-terminal",), ("initial-forward",)
    ),
    BisimKind.WEAK_FORWARD_BISIM: (
        _terminal_vectors,
        ("weak-terminal", "weak-terminal-rev"),
        ("initial-forward", "initial-backward"),
    ),
    BisimKind.WEAK_BACKWARD_SIM: (
        _vectors, ("weak-initial",), ("terminal-forward",)
    ),
    BisimKind.WEAK_BACKWARD_BISIM: (
        _vectors,
        ("weak-initial", "weak-initial-rev"),
        ("terminal-forward", "terminal-backward"),
    ),
}


def _weak_conditions(kind, a, b, phi, inv):
    """Each vector pair (S, T) of A and B must have phi's image of S inside T
    and, for a bisimulation, phi^-1's image of T inside S."""
    vectors, names, cover = _WEAK[kind]
    top = (1 << a.n) - 1
    pairs = [(m & top, m >> a.n) for m in vectors(a, b)]
    conds = []
    for name, rel, side in zip(names, (phi, inv), (0, 1)):
        image = _unions(rel.row_masks)
        holds = all(not image(p[side]) & ~p[1 - side] for p in pairs)
        conds.append((name, holds))
    return conds + [(name, _COVER[name](a, b, phi)) for name in cover]


def check(kind: BisimKind, a: Nfa, b: Nfa, phi: BoolRel) -> CheckResult:
    """Test a nonempty relation against the defining conditions of a kind."""
    _require_same_alphabet(a, b)
    _require_shape(a, b, phi)
    if phi.is_empty():
        raise ValueError("relation must be nonempty")
    inv = inverse(phi)
    if kind in _HALVES:
        conds = []
        for half, flipped, *names in _HALVES[kind]:
            args = (b, a, inv, phi) if flipped else (a, b, phi, inv)
            conds += half(*args, a.alphabet, names)
    else:
        conds = _weak_conditions(kind, a, b, phi, inv)
    return CheckResult(kind, all(ok for _, ok in conds), tuple(conds))


def _lost_witnesses(rows, gone, top, sides) -> dict:
    """Pairs (a, b) of phi = ``rows``, as a mask of b per row a, that break
    the row or the column condition of some symbol against phi.

    ``gone`` holds pairs taken out of phi and not yet propagated, by row: the
    pairs the round before took out, or one row's pending removals, or None
    in round 0, which tests every row in full.  Otherwise the row condition
    is re-tested only in the rows a above a row u that lost pairs, at the
    states those took out of U(a), and the column condition only in the rows
    below u, at the states of Img_B(gone[u]) that no B-predecessor in row u
    of phi keeps in Img_B(row u).  This finds every pair that breaks a
    condition against phi but met it against phi plus ``gone``: the
    conditions are monotone in phi, and a pair outside the rows re-tested
    lost nothing that it reads."""
    out = {}
    for succ, pred, image, preimage in sides:
        # lost: per row a, the states U(a) may have lost; dead: per row u,
        # the states that left Img_B(row u) and so fail below u.
        if gone is None:
            # phi_0 has at most four distinct rows, so round 0 takes the
            # unions of few distinct selectors, each once.
            image, preimage = cache(image), cache(preimage)
            lost = {i: top for i, m in enumerate(rows) if m}
            dead = {u: top & ~image(m) for u, m in enumerate(rows) if succ[u]}
        else:
            lost, dead = {}, {}
            for u, m in gone.items():
                for i in pred[u]:
                    lost[i] = lost.get(i, 0) | m
                below = 0
                for i in succ[u]:
                    below |= rows[i]
                cand = image(m) & below if below else 0
                keep = rows[u] & preimage(cand) if cand else 0
                if keep:
                    cand &= ~image(keep)
                if cand:
                    dead[u] = cand
        for i, m in lost.items():
            for u in succ[i]:
                m &= ~rows[u]
            hit = preimage(m) & rows[i] if m and rows[i] else 0
            if hit:
                out[i] = out.get(i, 0) | hit
        for u, d in dead.items():
            for i in succ[u]:
                hit = rows[i] & d
                if hit:
                    out[i] = out.get(i, 0) | hit
    return out


def _loops_only(succ) -> bool:
    """Whether one symbol's successor lists lie inside the identity: each
    state steps to itself or nowhere."""
    return all(j == i for i, row in enumerate(succ) for j in row)


def forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """The paper's shrinking sequence phi_0, phi_1, ... for the greatest
    forward bisimulation, from the terminal-agreement relation phi_0.

    The successors of A's states lie in A and those of B's in B, so phi_k is
    k-step bisimilarity on the disjoint union A+B restricted to A x B.  Each
    round is one round of partition refinement over the a.n + b.n states
    (``automaton._refine``, the engine ``find_isomorphism`` also runs): two
    states share a block after round k + 1 when they shared one after round
    k and, per symbol, their successors meet the same blocks.  When B is A
    itself, A alone is refined, every state on the B side: a state and
    another's copy in A+A are k-step bisimilar exactly when the two states
    are.  Row i of phi_k is the mask of B's states in the block of A's state
    i; the masks, one per block id, start as B's non-terminal and terminal
    states and are updated for the B states each round moved.
    The sequence ends as the paper's does, once phi repeats or is empty,
    even while blocks inside A or inside B still split.
    """
    off, s = (0, a) if b is a else (a.n, _sum(a, b))
    block = [s.tau.mask >> i & 1 for i in range(s.n)]
    masks = defaultdict(int, {0: ~b.tau.mask & (1 << b.n) - 1, 1: b.tau.mask})
    rounds = _refine(block, s._succ)
    seq = []
    while True:
        rows = tuple(map(masks.__getitem__, block[:a.n]))
        seq.append(BoolRel(a.n, b.n, rows))
        if not any(rows) or len(seq) > 1 and rows == seq[-2].row_masks:
            return seq
        new, moved = next(rounds)
        for i in moved:
            if i >= off:
                bit = 1 << i - off
                masks[block[i]] ^= bit
                masks[new[i]] |= bit
        block = new


def _bfb_start(a: Nfa, b: Nfa):
    """What the bfb loops read: phi_0's rows, the mask of all of B's states,
    and per symbol A's successor and predecessor lists with the union
    functions of B's successor masks (Img_B) and of its predecessor masks
    (the B-preimage), once for round 0 and once, without the symbols that
    only loop, for what follows it."""
    _require_same_alphabet(a, b)
    sides, later = [], []
    back_b, succ_b = reverse(b), dict(zip(b.alphabet, b._succ))
    for x, succ, pred in zip(a.alphabet, a._succ, reverse(a)._succ):
        fb, rb = b.delta[x], back_b.delta[x]
        sides.append((succ, pred, _unions(fb.row_masks), _unions(rb.row_masks)))
        if not (_loops_only(succ) and _loops_only(succ_b[x])):
            later.append(sides[-1])
    phi = intersect(arrow_right(a.sigma, b.sigma), arrow_left(a.tau, b.tau))
    return list(phi.row_masks), (1 << b.n) - 1, sides, later


def backward_forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """The paper's shrinking sequence phi_0, phi_1, ... for the greatest
    backward-forward bisimulation, from phi_0 = (sigma_A -> sigma_B) &
    (tau_A <- tau_B).

    For every symbol x, with S and P the x-successors and x-predecessors, a
    pair (a, b) stays in the next round when
      over rows:    S(b) <= U(a), the union of row u of phi over u in S(a)
      over columns: P(a) <= V(b), the union of column v of phi over v in P(b)
    which are the bounds residual_left(delta_A o phi, delta_B) and
    residual_right(phi o delta_B, delta_A).  A bfb is not an equivalence, so
    unlike the forward rounds this fixpoint removes pairs, not blocks.  phi
    is kept once, as row masks: P(a) <= V(b) holds exactly when P(b) meets
    row a' for every a' in P(a), that is, when b lies in each Img_B(row a'),
    the x-successors in B of the states of row a'.

    These rounds are the executable specification: ``_bfb_fixpoint``
    removes the same pairs in all, without round barriers, and it is what
    the greatest bfb and fbb run.  Each round removes, all at once, the
    pairs of phi_k that break a condition against phi_k; the sequence ends
    once a round removes nothing or phi is empty.  Round 0 tests each row a
    against U(a), and ANDs each Img_B(row u) into the rows of u's
    successors.  Later rounds are
    semi-naive (Henzinger, Henzinger & Kopke, 1995, without their per-pair
    counters): a pair of phi_k passed the round before, so S(b) <=
    U_{k-1}(a), and it breaks the row condition now exactly when S(b) meets
    U_{k-1}(a) minus U_k(a), the removed parts of the rows u in S(a) minus
    U_k(a); so only rows above a removed row are re-tested.  Likewise b lay
    in Img_B(row u) of phi_{k-1} for each u in P(a), and it leaves Img_B(row
    u) of phi_k only if P(b) meets the removed part of row u; so only rows
    below a removed row are re-tested, at Img_B of that part.

    A symbol that only loops, its relation inside the identity on A and on
    B, is tested in round 0 and dropped after it.  For such a symbol S(a)
    and P(a) are {a} or empty, so U_k(a) is row a of phi_k or empty, and
    Img_B(row a) of phi_k holds the states of row a that loop.  A pair
    (a, b) of phi_k has b in row a, so it keeps the row condition exactly
    when b loops only if a does, and the column condition exactly when a
    loops only if b does, whatever k is.  A pair that survives round 0 thus
    never breaks that symbol's conditions again, and every round removes
    the paper's pairs and no others.
    """
    rows, top, sides, later = _bfb_start(a, b)
    gone = None
    seq = [BoolRel(a.n, b.n, rows)]
    while any(rows):
        out = _lost_witnesses(rows, gone, top, sides)
        # After round 0 a symbol that only loops removes nothing.
        sides = later
        # Every pair found is still in phi_k: one XOR per row takes it out.
        for i, m in out.items():
            rows[i] ^= m
        gone = out
        seq.append(BoolRel(a.n, b.n, rows))
        if not gone:
            break
    return seq


def _bfb_fixpoint(a: Nfa, b: Nfa):
    """The greatest bfb, the last relation of
    ``backward_forward_bisim_steps``, and the number of ``_lost_witnesses``
    passes that found it: round 0, then one per row whose removed pairs
    were propagated.

    Round 0 runs as in the paper's rounds.  Its removals are then pending,
    by row; each pass pops one row's, tests the rows above and below it
    against the current rows, takes each pair it finds out at once and adds
    it to the pending removals of its row, with no round barrier.  The
    conditions are monotone in phi, so a pair that breaks one against rows
    that hold the greatest bfb is not in it, and the rows keep holding it.
    A pair that no pass removes met every condition against the current
    rows plus the pending removals when it was last tested, and each pass
    propagates exactly the part of that union that the rows lost; so once
    nothing is pending, the rows are a bfb inside phi_0 and hence the
    greatest one."""
    rows, top, sides, later = _bfb_start(a, b)
    if not any(rows):
        return BoolRel(a.n, b.n, rows), 0
    pending = _lost_witnesses(rows, None, top, sides)
    for i, m in pending.items():
        rows[i] ^= m
    passes = 1
    while pending:
        u, m = pending.popitem()
        passes += 1
        for i, hit in _lost_witnesses(rows, {u: m}, top, later).items():
            rows[i] ^= hit
            pending[i] = pending.get(i, 0) | hit
    return BoolRel(a.n, b.n, rows), passes


def _report(kind, a, b, phi, iterations, cover) -> BisimReport:
    """Accept phi, or reject it with the covering conditions it violates."""
    violated = tuple(name for name in cover if not _COVER[name](a, b, phi))
    if violated:
        return BisimReport(kind, None, iterations, failure=violated)
    flags = ("relation-is-empty",) if phi.is_empty() else ()
    return BisimReport(kind, phi, iterations, flags=flags)


def _greatest(kind, a, b, phi, iterations) -> BisimReport:
    """Report the greatest relation of a strong kind.  In halves order, a
    forward half's initial condition and a backward half's terminal one are
    its covering conditions."""
    cover = [initial if half is _forward_half else terminal
             for half, _, initial, _, terminal in _HALVES[kind]]
    return _report(kind, a, b, phi, iterations, cover)


def greatest_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest forward bisimulation, or the violated covering conditions."""
    seq = forward_bisim_steps(a, b)
    return _greatest(BisimKind.FORWARD_BISIM, a, b, seq[-1], len(seq) - 1)


def greatest_backward_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest backward-forward bisimulation, or the violated conditions."""
    return _greatest(BisimKind.BACKWARD_FORWARD_BISIM, a, b, *_bfb_fixpoint(a, b))


def greatest_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Dual of the forward algorithm, run on the reversed automata."""
    seq = forward_bisim_steps(reverse(a), reverse(b))
    return _greatest(BisimKind.BACKWARD_BISIM, a, b, seq[-1], len(seq) - 1)


def greatest_forward_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    fixpoint = _bfb_fixpoint(reverse(a), reverse(b))
    return _greatest(BisimKind.FORWARD_BACKWARD_BISIM, a, b, *fixpoint)


def greatest_fb_equivalence(a: Nfa) -> Partition:
    """Classes of the greatest forward bisimulation equivalence E_A: the
    stable partition that ``automaton._refine`` reaches over A's successor
    lists from the blocks of A's non-terminal and terminal states.

    E_A is the coarsest partition that starts inside the terminal split and
    is stable under every symbol (Kanellakis & Smolka, 1990), and it is what
    ``forward_bisim_steps(a, a)`` converges to: that fixpoint refines A alone
    with the same engine from the same blocks, and it stops at the first
    round that moves nothing, where the refinement stops too.  ``Partition``
    numbers classes by their first member, as ``Partition.from_relation``
    does from the fixpoint's rows, so both give equal class numbers.  No
    relation is built, so a round costs the states it keys, not n x n bits.
    """
    block = [a.tau.mask >> i & 1 for i in range(a.n)]
    for block, _ in _refine(block, a._succ):
        pass
    return Partition(block)


def greatest_bb_equivalence(a: Nfa) -> Partition:
    """Classes of the greatest backward bisimulation equivalence: those of
    the forward one on the reversed automaton, whose terminal states are
    A's initial ones."""
    return greatest_fb_equivalence(reverse(a))


def reachable_terminal_pairs(a: Nfa, b: Nfa) -> list:
    """Every distinct pair of word-indexed terminal vectors, breadth-first.

    Each word u contributes the pair (tau_u of a, tau_u of b), the terminal
    vector tau_u of A+B split at a.n; the subset search on the reversed sum
    closes the starting pair under prepending one symbol.
    """
    top = (1 << a.n) - 1
    return [
        (BoolVec(a.n, m & top), BoolVec(b.n, m >> a.n))
        for m in _terminal_vectors(a, b)
    ]


def _signatures(masks, a: Nfa, b: Nfa):
    """Per-state signatures of A and of B: bit k is set when the state lies
    in the k-th of ``masks``, vectors of A+B."""
    sig = _columns(masks, a.n + b.n)
    return sig[:a.n], sig[a.n:]


def _weak_greatest(kind, a, b, related) -> BisimReport:
    """The relation of the states of A and B whose signatures over the
    vector pairs of a weak kind are ``related``, one row mask per A state."""
    vectors, _, cover = _WEAK[kind]
    masks = vectors(a, b)
    rel = BoolRel(a.n, b.n, related(*_signatures(masks, a, b)))
    return _report(kind, a, b, rel, len(masks), cover)


def _contained(sig_a, sig_b) -> list:
    return [sum(1 << j for j, t in enumerate(sig_b) if not s & ~t) for s in sig_a]


def _equal(sig_a, sig_b) -> list:
    same = {}
    for j, t in enumerate(sig_b):
        same[t] = same.get(t, 0) | 1 << j
    return [same.get(s, 0) for s in sig_a]


def greatest_weak_forward_sim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward simulation: states related when every
    terminal-vector membership of the left one carries over to the right,
    that is, when the left signature is contained in the right one."""
    return _weak_greatest(BisimKind.WEAK_FORWARD_SIM, a, b, _contained)


def greatest_weak_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward bisimulation: memberships in the terminal
    vectors must agree exactly, so the related states are those with equal
    signatures."""
    return _weak_greatest(BisimKind.WEAK_FORWARD_BISIM, a, b, _equal)


def greatest_weak_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak backward bisimulation: the same over the initial
    vectors sigma_u, found by searching A+B itself."""
    return _weak_greatest(BisimKind.WEAK_BACKWARD_BISIM, a, b, _equal)


def wfb_equivalence_bound(a: Nfa) -> Partition:
    """Greatest weak-forward-bisimulation equivalence: states grouped by
    agreeing on every reachable terminal vector.  Every equivalence below it
    is again a weak forward bisimulation; none above it is."""
    return Partition(_columns(_vectors(reverse(a)), a.n))


def wbb_equivalence_bound(a: Nfa) -> Partition:
    """The same over the initial vectors: states grouped by agreeing on
    every reachable sigma_u."""
    return Partition(_columns(_vectors(a), a.n))
