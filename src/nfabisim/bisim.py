"""Checkers and greatest-relation algorithms for all ten (bi)simulation kinds.

The strong kinds are decided by a shrinking fixpoint over residuals: start
from the largest relation compatible with the boundary vectors, intersect
away violations symbol by symbol until stable, then test the two covering
conditions that the fixpoint cannot enforce.  The weak kinds intersect arrow
relations over the finitely many reachable boundary-vector pairs instead.

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
from dataclasses import dataclass
from enum import Enum

from .automaton import Nfa, _require_same_alphabet, reverse
from .relcalc import (
    BoolRel,
    Partition,
    arrow_left,
    arrow_right,
    biarrow,
    compose,
    intersect,
    inverse,
    rel_vec,
    residual_left,
    residual_right,
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
    "reachable_initial_pairs",
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


def _shrink(phi: BoolRel, symbols, bounds) -> list:
    """Intersect phi with both per-symbol bounds until two consecutive
    relations coincide; stops early once the candidate is empty, since the
    empty relation can only shrink to itself."""
    seq = [phi]
    while not phi.is_empty():
        nxt = phi
        for x in symbols:
            first, second = bounds(x, phi)
            nxt = intersect(nxt, intersect(first, second))
        seq.append(nxt)
        if nxt == phi:
            break
        phi = nxt
    return seq


def forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """Shrinking candidate sequence for the greatest forward bisimulation,
    starting from the terminal-agreement relation."""
    _require_same_alphabet(a, b)
    return _shrink(
        biarrow(a.tau, b.tau),
        a.alphabet,
        lambda x, phi: (
            inverse(residual_left(compose(b.delta[x], inverse(phi)), a.delta[x])),
            residual_left(compose(a.delta[x], phi), b.delta[x]),
        ),
    )


def backward_forward_bisim_steps(a: Nfa, b: Nfa) -> list:
    """Candidate sequence for the greatest backward-forward bisimulation."""
    _require_same_alphabet(a, b)
    return _shrink(
        intersect(arrow_right(a.sigma, b.sigma), arrow_left(a.tau, b.tau)),
        a.alphabet,
        lambda x, phi: (
            residual_left(compose(a.delta[x], phi), b.delta[x]),
            residual_right(compose(phi, b.delta[x]), a.delta[x]),
        ),
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

    Each word u contributes the pair (tau_u of a, tau_u of b); the search
    closes the starting pair under prepending one symbol, so the finite list
    covers all words.
    """
    _require_same_alphabet(a, b)
    seen = {(a.tau.mask, b.tau.mask)}
    order = [(a.tau, b.tau)]
    # The list doubles as the queue: iteration reaches every appended pair.
    for xa, xb in order:
        for x in a.alphabet:
            na, nb = rel_vec(a.delta[x], xa), rel_vec(b.delta[x], xb)
            if (na.mask, nb.mask) not in seen:
                seen.add((na.mask, nb.mask))
                order.append((na, nb))
    return order


def reachable_initial_pairs(a: Nfa, b: Nfa) -> list:
    """Dual of reachable_terminal_pairs, over word-indexed initial vectors."""
    return reachable_terminal_pairs(reverse(a), reverse(b))


def _intersect_over_pairs(pairs, build) -> BoolRel:
    return functools.reduce(intersect, (build(ta, tb) for ta, tb in pairs))


def greatest_weak_forward_sim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward simulation: states related when every
    terminal-vector membership of the left one carries over to the right."""
    pairs = reachable_terminal_pairs(a, b)
    lam = _intersect_over_pairs(pairs, arrow_right)
    return _report(
        BisimKind.WEAK_FORWARD_SIM, a, b, lam, len(pairs), ("initial-forward",)
    )


def greatest_weak_forward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    """Greatest weak forward bisimulation: memberships must agree exactly."""
    pairs = reachable_terminal_pairs(a, b)
    mu = _intersect_over_pairs(pairs, biarrow)
    return _report(
        BisimKind.WEAK_FORWARD_BISIM, a, b, mu, len(pairs),
        ("initial-forward", "initial-backward"),
    )


def greatest_weak_backward_bisim(a: Nfa, b: Nfa) -> BisimReport:
    rep = greatest_weak_forward_bisim(reverse(a), reverse(b))
    return _dualize(rep, BisimKind.WEAK_BACKWARD_BISIM)


def wfb_equivalence_bound(a: Nfa) -> Partition:
    """Greatest weak-forward-bisimulation equivalence: states grouped by
    agreeing on every reachable terminal vector.  Every equivalence below it
    is again a weak forward bisimulation; none above it is."""
    pairs = reachable_terminal_pairs(a, a)
    return Partition.from_relation(_intersect_over_pairs(pairs, biarrow))


def wbb_equivalence_bound(a: Nfa) -> Partition:
    return wfb_equivalence_bound(reverse(a))
