"""Randomized property battery backing the ``selftest`` subcommand.

Each trial draws a seeded pair of automata and replays the core guarantees:
the greatest bb and fbb relations against their definition check, partial
uniformity of accepted greatest relations, the uniform fb and bfb
cross-checks and the fb/bfb agreement for functions on the natural map onto
the fb factor, exact language preservation of every reduction mode, both
subset constructions against their definition, the greatest weak forward
simulation against a closure of the terminal-vector pairs, and (on small
enough pairs) agreement of the fb, bb, bfb and fbb algorithms with
brute-force enumeration over all candidate relations.  Output is buffered
per trial and emitted in trial order.
"""

from __future__ import annotations

import random
import sys

from .automaton import _map, factor, random_nfa, reverse
from .bisim import (
    BisimKind,
    check,
    greatest_backward_bisim,
    greatest_backward_forward_bisim,
    greatest_fb_equivalence,
    greatest_forward_backward_bisim,
    greatest_forward_bisim,
    greatest_weak_forward_bisim,
    greatest_weak_forward_sim,
    reachable_terminal_pairs,
)
from .equivalence import (
    REDUCTION_MODES,
    function_fb_iff_bfb,
    language_equivalent,
    reduce,
    uniform_bfb_crosscheck,
    uniform_fb_crosscheck,
)
from .nerode import nerode, reverse_nerode
from .relcalc import BoolRel, is_partial_uniform, rel_vec, scalar, union, vec_rel

__all__ = ["run", "enumerate_greatest"]


def enumerate_greatest(kind: BisimKind, a, b):
    """Union of every nonempty relation passing the definition check.

    Brute force over all 2^(|A|*|B|) candidates; intended for |A|*|B| <= 9.
    Returns None when nothing passes.
    """
    best = None
    for code in range(1, 1 << a.n * b.n):
        masks = [code >> a_i * b.n & (1 << b.n) - 1 for a_i in range(a.n)]
        phi = BoolRel(a.n, b.n, masks)
        if check(kind, a, b, phi).ok:
            best = phi if best is None else union(best, phi)
    return best


def _check_definitions(a, b, problems):
    # bb and fbb run the fb and bfb algorithms on the reversed automata;
    # check reads their own conditions on A and B instead.
    for kind, algorithm in (
        (BisimKind.BACKWARD_BISIM, greatest_backward_bisim),
        (BisimKind.FORWARD_BACKWARD_BISIM, greatest_forward_backward_bisim),
    ):
        rel = algorithm(a, b).relation
        if rel is not None and not rel.is_empty() and not check(kind, a, b, rel):
            problems.append(f"accepted {kind.value} relation fails its definition")


def _check_uniformity(a, b, problems):
    for name, rep in (
        ("fb", greatest_forward_bisim(a, b)),
        ("wfb", greatest_weak_forward_bisim(a, b)),
    ):
        if rep.relation is not None and not is_partial_uniform(rep.relation):
            problems.append(f"accepted {name} relation is not partial-uniform")


def _check_uniform_theorems(a, problems):
    """The natural map of a onto its fb factor is a uniform function and a
    forward bisimulation, so both uniform cross-checks must accept it, and
    the forward and backward-forward checks of a function must agree."""
    e = greatest_fb_equivalence(a)
    q = factor(a, e)
    nat = _map(e.class_of, q.n)
    try:
        for kind, crosscheck in (
            ("fb", uniform_fb_crosscheck), ("bfb", uniform_bfb_crosscheck)
        ):
            if not crosscheck(a, q, nat).verdict:
                problems.append(f"natural map onto the fb factor is no {kind}")
        function_fb_iff_bfb(a, q, nat)
    except AssertionError as exc:
        problems.append(f"uniform cross-check: {exc}")


def _check_reduction(a, problems):
    for mode in REDUCTION_MODES:
        if not language_equivalent(a, reduce(a, mode)):
            problems.append(f"{mode} reduction changed the language")


def _check_determinization(a, problems):
    """Both subset constructions (the reverse one on the reversed automaton)
    against the definition: start at sigma, step to images, final on tau."""
    for name, dfa, c in (
        ("forward", nerode(a), a), ("reverse", reverse_nerode(a), reverse(a))
    ):
        holds = dfa.subset_of[dfa.start] == c.sigma and all(
            dfa.final[q] == scalar(v, c.tau)
            and all(
                dfa.subset_of[dfa.next[q][k]] == vec_rel(v, c.delta[x])
                for k, x in enumerate(dfa.alphabet)
            )
            for q, v in enumerate(dfa.subset_of)
        )
        if not holds:
            problems.append(f"{name} subset construction breaks its definition")


def _check_oracles(a, b, problems):
    for kind, algorithm in (
        (BisimKind.FORWARD_BISIM, greatest_forward_bisim),
        (BisimKind.BACKWARD_BISIM, greatest_backward_bisim),
        (BisimKind.BACKWARD_FORWARD_BISIM, greatest_backward_forward_bisim),
        (BisimKind.FORWARD_BACKWARD_BISIM, greatest_forward_backward_bisim),
    ):
        expected = enumerate_greatest(kind, a, b)
        got = algorithm(a, b).relation
        if got is not None and got.is_empty():
            got = None
        if expected != got:
            problems.append(f"{kind.value} disagrees with exhaustive enumeration")


def _terminal_pairs(a, b) -> set:
    """Every pair (tau_u of a, tau_u of b), closed from (tau, tau) under
    prepending a symbol, one ``rel_vec`` per side and symbol."""
    start = (a.tau, b.tau)
    seen = {start}
    queue = [start]
    for ta, tb in queue:
        for x in a.alphabet:
            pair = (rel_vec(a.delta[x], ta), rel_vec(b.delta[x], tb))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return seen


def _check_weak_sim(a, b, problems):
    # i is weakly simulated by j when every tau_u holding i in A holds j in
    # B, so the finitely many vector pairs decide it exactly.
    pairs = _terminal_pairs(a, b)
    if pairs != set(reachable_terminal_pairs(a, b)):
        problems.append("reachable terminal pairs disagree with their closure")
    oracle = BoolRel.from_bits(
        [[1 if all(tb[j] for ta, tb in pairs if ta[i]) else 0 for j in range(b.n)]
         for i in range(a.n)]
    )
    rep = greatest_weak_forward_sim(a, b)
    if rep.relation is not None and rep.relation != oracle:
        problems.append("weak simulation disagrees with the vector-pair oracle")
    if rep.relation is None and a.sigma.issubset(rel_vec(oracle, b.sigma)):
        problems.append("weak simulation rejected although the oracle accepts")


def run(max_states: int = 6, seed: int = 0, trials: int = 25, out=None) -> int:
    """Run the battery; returns 0 when every trial passes, 1 otherwise."""
    out = out or sys.stdout
    rng = random.Random(seed)
    failures = 0
    for trial in range(trials):
        na = rng.randint(1, max_states)
        nb = rng.randint(1, max_states)
        density = rng.choice((0.15, 0.3, 0.5))
        a = random_nfa(na, ("x", "y"), density, rng.randrange(1 << 30))
        b = random_nfa(nb, ("x", "y"), density, rng.randrange(1 << 30))
        problems = []
        _check_definitions(a, b, problems)
        _check_uniformity(a, b, problems)
        _check_uniform_theorems(a, problems)
        _check_reduction(a, problems)
        _check_determinization(a, problems)
        _check_weak_sim(a, b, problems)
        if na * nb <= 9:
            _check_oracles(a, b, problems)
        if problems:
            failures += 1
            for p in problems:
                out.write(f"trial {trial:3d}: FAIL {p}\n")
        else:
            out.write(f"trial {trial:3d}: ok ({na}x{nb} states)\n")
    out.write(
        f"selftest: {trials - failures}/{trials} trials passed"
        f" (seed {seed}, max states {max_states})\n"
    )
    return 0 if failures == 0 else 1
