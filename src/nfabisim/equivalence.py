"""Automata-level equivalence deciders, state reduction, and the
uniform-relation cross-checks.

The two pairwise deciders each run two independent derivations (the greatest
relation between the automata, and an isomorphism search between their
reduced forms) and insist that they agree; a disagreement is an internal bug,
not a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    Nfa,
    _require_same_alphabet,
    bounded_language,
    factor,
    find_isomorphism,
    is_isomorphism,
)
from .bisim import (
    BisimKind,
    check,
    greatest_bb_equivalence,
    greatest_fb_equivalence,
    greatest_forward_bisim,
    greatest_weak_forward_bisim,
    reachable_terminal_pairs,
    wbb_equivalence_bound,
    wfb_equivalence_bound,
)
from .relcalc import (
    BoolRel,
    Partition,
    _uniformity_problems,
    cokernel,
    compose,
    induced_bijection,
    inverse,
    is_complete,
    is_surjective,
    is_uniform,
    kernel,
    rel_vec,
    vec_rel,
)

__all__ = [
    "EquivVerdict",
    "EquivWitness",
    "fb_equivalent",
    "wfb_equivalent",
    "language_equivalent",
    "weak_forward_isomorphism",
    "is_weak_forward_isomorphism",
    "reduce",
    "UniformCrosscheck",
    "uniform_fb_crosscheck",
    "uniform_bfb_crosscheck",
    "function_fb_iff_bfb",
]


@dataclass(frozen=True)
class EquivWitness:
    """Proof of a positive fb or wfb verdict: the greatest relation, the
    bijection between the factor automata, and the two factoring partitions."""

    relation: BoolRel
    class_map: tuple
    classes_a: Partition
    classes_b: Partition


@dataclass(frozen=True)
class EquivVerdict:
    """Decision plus the artifact that proves a positive answer."""

    equivalent: bool
    method: str
    witness: object | None = None

    def __bool__(self):
        return self.equivalent


def _two_routes(a, b, greatest, classes, match, is_match, route) -> EquivVerdict:
    """Decide by the greatest relation and by matching the factor automata.

    Route one asks whether ``greatest(a, b)`` is complete and surjective;
    route two factors each automaton by ``classes`` and searches for a
    ``match`` between the factors.  The routes must agree, and a positive
    witness is re-verified against the definitions (``is_match`` for the
    mapping).
    """
    _require_same_alphabet(a, b)
    rep = greatest(a, b)
    direct = (
        rep.relation is not None
        and is_complete(rep.relation)
        and is_surjective(rep.relation)
    )
    e_a, e_b = classes(a), classes(b)
    factored_a, factored_b = factor(a, e_a), factor(b, e_b)
    mapping = match(factored_a, factored_b)
    if direct != (mapping is not None):
        raise AssertionError(
            f"decision paths disagree: greatest-relation={direct}, "
            f"{route}={mapping is not None}"
        )
    method = rep.kind.value
    if not direct:
        return EquivVerdict(False, method)
    phi = rep.relation
    if not (
        is_uniform(phi)
        and check(rep.kind, a, b, phi).ok
        and is_match(factored_a, factored_b, mapping)
    ):
        raise AssertionError("witness failed re-verification")
    return EquivVerdict(True, method, EquivWitness(phi, mapping, e_a, e_b))


def fb_equivalent(a: Nfa, b: Nfa) -> EquivVerdict:
    """Decide whether a complete and surjective forward bisimulation exists.

    The structural route factors both automata by their greatest forward
    bisimulation equivalences and searches for an isomorphism.  The verdict
    is returned only when both routes agree, and a positive witness is
    re-verified against the definitions.
    """
    return _two_routes(
        a, b, greatest_forward_bisim, greatest_fb_equivalence,
        find_isomorphism, is_isomorphism, "factor-isomorphism",
    )


def wfb_equivalent(a: Nfa, b: Nfa) -> EquivVerdict:
    """Weak counterpart of fb_equivalent.

    The structural route compares the factors by the greatest weak equivalence
    using a weak forward isomorphism, which only has to preserve initial
    states and the word-indexed terminal vectors.
    """
    return _two_routes(
        a, b, greatest_weak_forward_bisim, wfb_equivalence_bound,
        weak_forward_isomorphism, is_weak_forward_isomorphism, "weak-isomorphism",
    )


def language_equivalent(a: Nfa, b: Nfa, maxlen: int) -> EquivVerdict:
    """Compare the accepted words up to a length bound.

    A negative verdict carries the shortest (length-then-lex) separating word
    as its witness.
    """
    _require_same_alphabet(a, b)
    la = bounded_language(a, maxlen)
    lb = bounded_language(b, maxlen)
    if set(la) == set(lb):
        return EquivVerdict(True, "lang")
    order = {x: k for k, x in enumerate(a.alphabet)}
    separating = min(
        set(la) ^ set(lb),
        key=lambda w: (len(w), tuple(order[s] for s in w)),
    )
    return EquivVerdict(False, "lang", separating)


def _weak_signatures(a: Nfa, b: Nfa):
    pairs = reachable_terminal_pairs(a, b)
    sig_a = [
        (a.sigma[i],) + tuple(ta[i] for ta, _ in pairs) for i in range(a.n)
    ]
    sig_b = [
        (b.sigma[j],) + tuple(tb[j] for _, tb in pairs) for j in range(b.n)
    ]
    return sig_a, sig_b


def weak_forward_isomorphism(a: Nfa, b: Nfa):
    """Bijection preserving initial-state membership and every reachable
    terminal vector, or None.

    Each state is summarized by its membership signature over the reachable
    vector pairs; any signature-preserving bijection qualifies, so states are
    matched group by group in index order.  Signature groups of unequal size
    rule a bijection out.
    """
    _require_same_alphabet(a, b)
    if a.n != b.n:
        return None
    sig_a, sig_b = _weak_signatures(a, b)
    groups_b = {}
    for j in range(b.n):
        groups_b.setdefault(sig_b[j], []).append(j)
    image = [None] * a.n
    taken = {sig: 0 for sig in groups_b}
    for i in range(a.n):
        candidates = groups_b.get(sig_a[i])
        if candidates is None or taken[sig_a[i]] >= len(candidates):
            return None
        image[i] = candidates[taken[sig_a[i]]]
        taken[sig_a[i]] += 1
    phi = tuple(image)
    if not is_weak_forward_isomorphism(a, b, phi):
        raise AssertionError("signature matching produced an invalid mapping")
    return phi


def is_weak_forward_isomorphism(a: Nfa, b: Nfa, phi) -> bool:
    """Definition check for weak forward isomorphisms."""
    if set(a.alphabet) != set(b.alphabet):
        return False
    if a.n != b.n or len(phi) != a.n or set(phi) != set(range(b.n)):
        return False
    for i in range(a.n):
        if a.sigma[i] != b.sigma[phi[i]]:
            return False
    for ta, tb in reachable_terminal_pairs(a, b):
        for i in range(a.n):
            if ta[i] != tb[phi[i]]:
                return False
    return True


_EQUIVALENCES = {
    "fb": greatest_fb_equivalence,
    "bb": greatest_bb_equivalence,
    "wfb": wfb_equivalence_bound,
    "wbb": wbb_equivalence_bound,
}
REDUCTION_MODES = (*_EQUIVALENCES, "alternate")


def reduce(a: Nfa, mode: str) -> Nfa:
    """Shrink an automaton by factoring out a greatest equivalence.

    Modes: ``fb``/``bb`` use the greatest forward/backward bisimulation
    equivalence, ``wfb``/``wbb`` the weak bounds, and ``alternate`` applies
    fb- then bb-reduction repeatedly until the state count stops shrinking.
    """
    if mode in _EQUIVALENCES:
        return factor(a, _EQUIVALENCES[mode](a))
    if mode != "alternate":
        raise ValueError(f"unknown reduction mode {mode!r}")
    while True:
        before = a.n
        a = factor(a, greatest_fb_equivalence(a))
        a = factor(a, greatest_bb_equivalence(a))
        if a.n == before:
            return a


@dataclass(frozen=True)
class UniformCrosscheck:
    """Agreement record for the three characterizations of a uniform
    (weak-free) bisimulation: factor-structure, direct check, equalities."""

    kernel_ok: bool
    cokernel_ok: bool
    factor_iso_ok: bool
    equalities: tuple
    direct: bool
    verdict: bool

    @property
    def structural(self) -> bool:
        return self.kernel_ok and self.cokernel_ok and self.factor_iso_ok


def _require_uniform(phi: BoolRel) -> None:
    if not is_uniform(phi):
        raise ValueError(
            "relation is not uniform: " + ", ".join(_uniformity_problems(phi))
        )


def _crosscheck(a, b, phi, cokernel_kind, equalities, direct_kind):
    ker = kernel(phi)
    coker = cokernel(phi)
    kernel_ok = check(BisimKind.FORWARD_BISIM, a, a, ker.to_relation()).ok
    cokernel_ok = check(cokernel_kind, b, b, coker.to_relation()).ok
    mapping = induced_bijection(phi)
    factor_iso_ok = is_isomorphism(factor(a, ker), factor(b, coker), mapping)
    direct = check(direct_kind, a, b, phi).ok
    structural = kernel_ok and cokernel_ok and factor_iso_ok
    all_equal = all(ok for _, ok in equalities)
    if not (structural == direct == all_equal):
        raise AssertionError(
            f"characterizations disagree: structural={structural}, "
            f"direct={direct}, equalities={all_equal}"
        )
    return UniformCrosscheck(
        kernel_ok, cokernel_ok, factor_iso_ok, tuple(equalities), direct, direct
    )


def uniform_fb_crosscheck(a: Nfa, b: Nfa, phi: BoolRel) -> UniformCrosscheck:
    """Evaluate the three equivalent descriptions of a uniform forward
    bisimulation and assert that they agree.

    Structure: the kernel is a forward bisimulation equivalence on a, the
    cokernel one on b, and the induced class bijection is an isomorphism of
    the factor automata.  Equalities: the saturation identities relating
    sigma, delta, and tau through phi.
    """
    _require_same_alphabet(a, b)
    _require_uniform(phi)
    inv = inverse(phi)
    eqs = [
        (
            "sigma-saturated",
            vec_rel(vec_rel(a.sigma, phi), inv) == vec_rel(b.sigma, inv),
        ),
        (
            "sigma-image",
            vec_rel(a.sigma, phi) == vec_rel(vec_rel(b.sigma, inv), phi),
        ),
    ]
    for x in a.alphabet:
        eqs.append(
            (
                f"delta-left[{x}]",
                compose(compose(a.delta[x], phi), inv)
                == compose(compose(phi, b.delta[x]), inv),
            )
        )
        eqs.append(
            (
                f"delta-right[{x}]",
                compose(compose(inv, a.delta[x]), phi)
                == compose(compose(b.delta[x], inv), phi),
            )
        )
    eqs.append(("tau-left", a.tau == rel_vec(phi, b.tau)))
    eqs.append(("tau-right", vec_rel(a.tau, phi) == b.tau))
    return _crosscheck(
        a, b, phi, BisimKind.FORWARD_BISIM, eqs, BisimKind.FORWARD_BISIM
    )


def uniform_bfb_crosscheck(a: Nfa, b: Nfa, phi: BoolRel) -> UniformCrosscheck:
    """Cross-check for uniform backward-forward bisimulations.

    Same shape as the forward version, except the cokernel must be a backward
    bisimulation equivalence on b and the equalities are the defining ones.
    """
    _require_same_alphabet(a, b)
    _require_uniform(phi)
    eqs = [("sigma", vec_rel(a.sigma, phi) == b.sigma)]
    for x in a.alphabet:
        eqs.append(
            (f"delta[{x}]", compose(a.delta[x], phi) == compose(phi, b.delta[x]))
        )
    eqs.append(("tau", a.tau == rel_vec(phi, b.tau)))
    return _crosscheck(
        a, b, phi, BisimKind.BACKWARD_BISIM, eqs, BisimKind.BACKWARD_FORWARD_BISIM
    )


def function_fb_iff_bfb(a: Nfa, b: Nfa, f: BoolRel) -> bool:
    """For a functional relation the forward and backward-forward checks are
    one and the same question; evaluate both and return the shared answer."""
    _require_same_alphabet(a, b)
    for i, mask in enumerate(f.row_masks):
        count = bin(mask).count("1")
        if count != 1:
            raise ValueError(
                f"relation is not functional: row {i} has {count} set bits"
            )
    forward = check(BisimKind.FORWARD_BISIM, a, b, f).ok
    backward_forward = check(BisimKind.BACKWARD_FORWARD_BISIM, a, b, f).ok
    if forward != backward_forward:
        raise AssertionError(
            f"function checks disagree: forward={forward}, "
            f"backward-forward={backward_forward}"
        )
    return forward
