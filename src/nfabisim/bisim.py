"""Checkers and greatest-relation algorithms for all ten (bi)simulation kinds.

The strong kinds are decided by the paper's shrinking fixpoint: start from
the largest relation compatible with the boundary vectors, intersect it with
its per-symbol residual bounds round by round until stable, then test the two
covering conditions that the fixpoint cannot enforce.  For fb (and bb, fb on
the reversed automata) every round is one round of partition refinement over
the disjoint union of the two automata, which re-keys only the predecessors
of the states split off in the round before once those are few.  For bfb
(and fbb) each round reads the bounds pair by pair and re-examines only the
pairs whose neighbours lost a pair in the round before.  Both return the
paper's exact sequence of relations.  The weak kinds read the finitely many reachable terminal-vector
pairs instead: the subsets of the reversed disjoint union A+B, found by the
one breadth-first subset search (``nerode._subsets``) that also
determinizes, and compare the states' membership signatures over them.

Condition names used in reports:

* ``initial-forward``   -- every initial state of A is related to an initial state of B
* ``initial-backward``  -- every initial state of B is related to an initial state of A
* ``terminal-forward``  -- every terminal state of A is related to a terminal state of B
* ``terminal-backward`` -- every terminal state of B is related to a terminal state of A

plus ``step-*[x]``, ``*-image`` and ``weak-*`` names for the per-symbol,
containment and weak conditions itemized by :func:`check`.  Each strong kind
is checked as a forward and/or a backward simulation half; a ``-rev`` half is
the same half asked of phi^-1 between B and A.  Each weak backward kind is
checked as its forward dual on the reversed automata.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

from .automaton import (
    Nfa,
    _index_lists,
    _refine,
    _require_same_alphabet,
    _sum,
    reverse,
)
from .nerode import _subsets
from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    _bit_indices,
    _columns,
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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a definition check with one entry per defining condition."""

    kind: BisimKind
    ok: bool
    conditions: tuple

    def __bool__(self):
        return self.ok

    def failed(self) -> tuple:
        return tuple(name for name, holds in self.conditions if not holds)


@dataclass(frozen=True)
class BisimReport:
    """Result of a greatest-relation computation.

    Exactly one of ``relation`` and ``failure`` is set.  ``iterations`` counts
    refinement steps for the fixpoint algorithms and explored vector pairs for
    the weak ones.  ``flags`` carries ``relation-is-empty`` when an accepted
    relation has no pairs (possible only with empty initial vectors).
    """

    kind: BisimKind
    relation: BoolRel | None
    iterations: int
    failure: tuple | None = None
    flags: tuple = ()

    def __post_init__(self):
        if (self.relation is None) == (self.failure is None):
            raise ValueError("exactly one of relation and failure must be set")

    @property
    def exists(self) -> bool:
        return self.relation is not None


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


def _weak_conditions(kind, a, b, phi, inv):
    pairs = reachable_terminal_pairs(a, b)
    holds = all(vec_rel(ta, phi).issubset(tb) for ta, tb in pairs)
    conds = [("weak-terminal", holds)]
    cover = ("initial-forward",)
    if kind is BisimKind.WEAK_FORWARD_BISIM:
        holds = all(vec_rel(tb, inv).issubset(ta) for ta, tb in pairs)
        conds.append(("weak-terminal-rev", holds))
        cover += ("initial-backward",)
    return conds + [(name, _COVER[name](a, b, phi)) for name in cover]


# Reversal swaps the roles of the initial and terminal vectors, so condition
# names from a dual run are mapped back to the original automata.
_DUAL_NAME = {
    "initial-forward": "terminal-forward",
    "initial-backward": "terminal-backward",
    "terminal-forward": "initial-forward",
    "terminal-backward": "initial-backward",
    "weak-terminal": "weak-initial",
    "weak-terminal-rev": "weak-initial-rev",
}

# A weak backward kind is checked as its forward dual on the reversed automata.
_WEAK_DUAL = {
    BisimKind.WEAK_BACKWARD_SIM: BisimKind.WEAK_FORWARD_SIM,
    BisimKind.WEAK_BACKWARD_BISIM: BisimKind.WEAK_FORWARD_BISIM,
}


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
    elif kind in _WEAK_DUAL:
        dual = _weak_conditions(_WEAK_DUAL[kind], reverse(a), reverse(b), phi, inv)
        conds = [(_DUAL_NAME[name], holds) for name, holds in dual]
    else:
        conds = _weak_conditions(kind, a, b, phi, inv)
    return CheckResult(kind, all(ok for _, ok in conds), tuple(conds))


def _neighbours(a: Nfa, symbols, backward: bool) -> list:
    """Per symbol: each state's x-successors (x-predecessors when backward)
    as index lists and as masks, and the masks of the opposite direction,
    whose union over a set of states is that set's preimage."""
    out = []
    for x in symbols:
        rels = a.delta[x], inverse(a.delta[x])
        near, back = rels[::-1] if backward else rels
        out.append((_index_lists(near), near.row_masks, back.row_masks))
    return out


def _union(masks, indices) -> int:
    """Union of masks[i] over the given indices."""
    return functools.reduce(operator.or_, map(masks.__getitem__, indices), 0)


def _transpose(lines: dict) -> dict:
    """Pairs given as {i: mask of j}, returned as {j: mask of i}."""
    out = {}
    for i, m in lines.items():
        bit = 1 << i
        for j in _bit_indices(m):
            out[j] = out.get(j, 0) | bit
    return out


def _failures(lines, cand, near, far, top) -> dict:
    """Candidate pairs (i, j), as a mask of j per line i, for which some
    symbol breaks N(j) <= union of lines[u] over u in N(i).

    near and far are the neighbours (see ``_neighbours``) of the line side
    and of the other side.  A line's failing set is the preimage of the
    union's complement when that complement has fewer bits than the
    candidates left, and is tested candidate by candidate otherwise."""
    out = {}
    for i, left in cand.items():
        fail = 0
        for (lists, _, _), (_, masks, back) in zip(near, far):
            miss = top & ~_union(lines, lists[i])
            if not miss:
                continue
            if miss.bit_count() < left.bit_count():
                hit = left & _union(back, _bit_indices(miss))
            else:
                hit = 0
                for j in _bit_indices(left):
                    if masks[j] & miss:
                        hit |= 1 << j
            fail |= hit
            left ^= hit
            if not left:
                break
        if fail:
            out[i] = fail
    return out


def _shrink(phi: BoolRel, phi_inv: BoolRel, a: Nfa, b: Nfa) -> list:
    """The paper's shrinking sequence phi_0, phi_1, ... for the greatest
    backward-forward bisimulation, from phi = phi_0 and phi_inv = phi_0^-1.

    For every symbol x, with S and P the x-successors and x-predecessors, a
    pair (a, b) stays in the next round when
      over rows:    S(b) <= union of row u of phi over u in S(a)
      over columns: P(a) <= union of column v of phi over v in P(b)
    which are the bounds residual_left(delta_A o phi, delta_B) and
    residual_right(phi o delta_B, delta_A).  A bfb is not an equivalence, so
    unlike the forward rounds (``forward_bisim_steps``) this fixpoint removes
    pairs, not blocks.

    Each round removes, all at once, the pairs of phi_k that break a
    condition against phi_k; the sequence ends once a round removes nothing
    (its last two relations coincide) or phi is empty.  A condition at
    (a, b) reads phi only on S(a) x S(b) and P(a) x P(b), so after the first
    round, which examines all of phi_0, a round examines only the pairs that
    have a neighbour pair removed in the round before.
    """
    _require_same_alphabet(a, b)
    succ_a, pred_a = (_neighbours(a, a.alphabet, back) for back in (False, True))
    succ_b, pred_b = (_neighbours(b, a.alphabet, back) for back in (False, True))
    top_a, top_b = (1 << a.n) - 1, (1 << b.n) - 1
    rows = list(phi.row_masks)
    cols = list(phi_inv.row_masks)
    cand = {i: m for i, m in enumerate(rows) if m}
    cand_cols = {j: m for j, m in enumerate(cols) if m}
    deps = [
        (back_a, back_b)
        for side_a, side_b in ((succ_a, succ_b), (pred_a, pred_b))
        for (_, _, back_a), (_, _, back_b) in zip(side_a, side_b)
    ]
    seq = [phi]
    while any(rows):
        removed = _failures(rows, cand, succ_a, succ_b, top_b)
        found = _transpose(_failures(cols, cand_cols, pred_b, pred_a, top_a))
        for i, m in found.items():
            removed[i] = removed.get(i, 0) | m
        # One pass over each removed row applies it to the column masks and
        # marks its neighbour pairs as the next round's candidates.
        cand = {}
        for i, m in removed.items():
            rows[i] &= ~m
            bit = 1 << i
            # A list, not a tuple: CPython keeps freed small tuples on free
            # lists, which measurably raised peak memory.
            removed_at = list(_bit_indices(m))
            for j in removed_at:
                cols[j] &= ~bit
            for back_a, back_b in deps:
                pre = _union(back_b, removed_at)
                if pre:
                    for k in _bit_indices(back_a[i]):
                        cand[k] = cand.get(k, 0) | pre
        seq.append(BoolRel(a.n, b.n, rows))
        if not removed:
            break
        cand = {i: m & rows[i] for i, m in cand.items() if m & rows[i]}
        cand_cols = _transpose(cand)
    return seq


def _b_masks(block: list, n_a: int) -> dict:
    """Per block id of A+B (A's states first), the mask of B's states in it."""
    masks = {}
    for j, k in enumerate(block[n_a:]):
        masks[k] = masks.get(k, 0) | 1 << j
    return masks


def forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """The paper's shrinking sequence phi_0, phi_1, ... for the greatest
    forward bisimulation, from the terminal-agreement relation phi_0.

    The successors of A's states lie in A and those of B's in B, so phi_k is
    k-step bisimilarity on the disjoint union A+B restricted to A x B.  Each
    round is one round of partition refinement over the a.n + b.n states
    (``automaton._refine``, the engine ``find_isomorphism`` also runs): two
    states share a block after round k + 1 when they shared one after round
    k and, per symbol, their successors meet the same blocks.  Row i of
    phi_k is the mask of B's states in the block of A's state i; the masks
    are rebuilt after a round that renumbered the blocks and otherwise
    updated for the B states that moved.  The sequence ends as the paper's
    does, once phi repeats or is empty, even while blocks inside A or inside
    B still split.
    """
    s = _sum(a, b)
    succ = [_index_lists(s.delta[x]) for x in s.alphabet]
    block = [s.tau.mask >> i & 1 for i in range(s.n)]
    masks = _b_masks(block, a.n)
    rounds = _refine(block, succ)
    seq = []
    while True:
        seq.append(BoolRel(a.n, b.n, [masks.get(k, 0) for k in block[:a.n]]))
        if seq[-1].is_empty() or len(seq) > 1 and seq[-1] == seq[-2]:
            return seq
        new, moved = next(rounds)
        if moved is None:
            masks = _b_masks(new, a.n)
        else:
            for i in moved:
                if i >= a.n:
                    bit = 1 << i - a.n
                    masks[block[i]] ^= bit
                    masks[new[i]] = masks.get(new[i], 0) | bit
        block = new


def backward_forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """Candidate sequence for the greatest backward-forward bisimulation."""
    return _shrink(
        intersect(arrow_right(a.sigma, b.sigma), arrow_left(a.tau, b.tau)),
        intersect(arrow_left(b.sigma, a.sigma), arrow_right(b.tau, a.tau)),
        a, b,
    )


def _report(kind, a, b, phi, iterations, cover) -> BisimReport:
    """Accept phi, or reject it with the covering conditions it violates."""
    violated = tuple(name for name in cover if not _COVER[name](a, b, phi))
    if violated:
        return BisimReport(kind, None, iterations, failure=violated)
    flags = ("relation-is-empty",) if phi.is_empty() else ()
    return BisimReport(kind, phi, iterations, flags=flags)


def _greatest(kind, a, b, seq, cover) -> BisimReport:
    return _report(kind, a, b, seq[-1], len(seq) - 1, cover)


def greatest_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest forward bisimulation, or the violated covering conditions."""
    return _greatest(
        BisimKind.FORWARD_BISIM, a, b, forward_bisim_steps(a, b),
        ("initial-forward", "initial-backward"),
    )


def greatest_backward_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest backward-forward bisimulation, or the violated conditions."""
    return _greatest(
        BisimKind.BACKWARD_FORWARD_BISIM, a, b, backward_forward_bisim_steps(a, b),
        ("terminal-forward", "initial-backward"),
    )


def _dualize(report: BisimReport, kind: BisimKind) -> BisimReport:
    failure = report.failure
    if failure is not None:
        failure = tuple(_DUAL_NAME[name] for name in failure)
    return BisimReport(
        kind, report.relation, report.iterations, failure, report.flags
    )


def greatest_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Dual of the forward algorithm, run on the reversed automata."""
    rep = greatest_forward_bisim(reverse(a), reverse(b))
    return _dualize(rep, BisimKind.BACKWARD_BISIM)


def greatest_forward_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    rep = greatest_backward_forward_bisim(reverse(a), reverse(b))
    return _dualize(rep, BisimKind.FORWARD_BACKWARD_BISIM)


def _equivalence_of(report: BisimReport) -> Partition:
    if report.relation is None:  # pragma: no cover - identity always qualifies
        raise AssertionError("self-bisimulation fixpoint was rejected")
    return Partition.from_relation(report.relation)


def greatest_fb_equivalence(a: Nfa) -> Partition:
    """Classes of the greatest forward bisimulation of an automaton with
    itself; the fixpoint is verified to be an equivalence on conversion."""
    return _equivalence_of(greatest_forward_bisim(a, a))


def greatest_bb_equivalence(a: Nfa) -> Partition:
    return _equivalence_of(greatest_backward_bisim(a, a))


def reachable_terminal_pairs(a: Nfa, b: Nfa) -> list:
    """Every distinct pair of word-indexed terminal vectors, breadth-first.

    Each word u contributes the pair (tau_u of a, tau_u of b), the terminal
    vector tau_u of A+B split at a.n; the subset search on the reversed sum
    closes the starting pair under prepending one symbol.
    """
    top = (1 << a.n) - 1
    return [
        (BoolVec(a.n, m & top), BoolVec(b.n, m >> a.n))
        for m, _ in _subsets(reverse(_sum(a, b)))
    ]


def _signatures(c: Nfa) -> tuple:
    """The number of reachable terminal vectors of c and each state's
    signature, whose bit k says whether the state lies in the k-th vector:
    equal signatures agree on every tau_u.  On A+B, A's come first."""
    vectors = [m for m, _ in _subsets(reverse(c))]
    return len(vectors), _columns(vectors, c.n)


def greatest_weak_forward_sim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward simulation: states related when every
    terminal-vector membership of the left one carries over to the right,
    that is, when the left signature is contained in the right one."""
    count, sig = _signatures(_sum(a, b))
    sig_a, sig_b = sig[:a.n], sig[a.n:]
    lam = BoolRel(a.n, b.n, [
        sum(1 << j for j, t in enumerate(sig_b) if not s & ~t) for s in sig_a
    ])
    return _report(
        BisimKind.WEAK_FORWARD_SIM, a, b, lam, count, ("initial-forward",)
    )


def greatest_weak_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward bisimulation: memberships must agree exactly,
    so the related states are those with equal signatures."""
    count, sig = _signatures(_sum(a, b))
    sig_a, sig_b = sig[:a.n], sig[a.n:]
    same = {}
    for j, t in enumerate(sig_b):
        same[t] = same.get(t, 0) | 1 << j
    mu = BoolRel(a.n, b.n, [same.get(s, 0) for s in sig_a])
    return _report(
        BisimKind.WEAK_FORWARD_BISIM, a, b, mu, count,
        ("initial-forward", "initial-backward"),
    )


def greatest_weak_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    rep = greatest_weak_forward_bisim(reverse(a), reverse(b))
    return _dualize(rep, BisimKind.WEAK_BACKWARD_BISIM)


def wfb_equivalence_bound(a: Nfa) -> Partition:
    """Greatest weak-forward-bisimulation equivalence: states grouped by
    agreeing on every reachable terminal vector.  Every equivalence below it
    is again a weak forward bisimulation; none above it is."""
    return Partition(_signatures(a)[1])


def wbb_equivalence_bound(a: Nfa) -> Partition:
    return wfb_equivalence_bound(reverse(a))
