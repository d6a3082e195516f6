"""Automata-level equivalence deciders, state reduction, and the
uniform-relation cross-checks.

The two pairwise deciders each run two independent derivations (the greatest
relation between the automata, and a matching of their reduced forms) and
insist that they agree; a disagreement is an internal bug, not a verdict.
"""

from __future__ import annotations

from .automaton import (
    Nfa,
    _is_bijection,
    _require_same_alphabet,
    accepts,
    factor,
    find_isomorphism,
    is_isomorphism,
)
from .bisim import (
    BisimKind,
    _terminal_vectors,
    check,
    greatest_bb_equivalence,
    greatest_fb_equivalence,
    greatest_forward_bisim,
    greatest_weak_forward_bisim,
    reachable_terminal_pairs,
    wbb_equivalence_bound,
    wfb_equivalence_bound,
)
from .nerode import _subsets
from .relcalc import (
    BoolRel,
    Partition,
    _Record,
    _columns,
    _unions,
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


class EquivWitness(_Record):
    """Proof of a positive fb or wfb verdict: the greatest relation, the
    bijection between the factor automata, and the two factoring partitions."""

    __slots__ = ("relation", "class_map", "classes_a", "classes_b")
    relation: BoolRel
    class_map: tuple
    classes_a: Partition
    classes_b: Partition


class EquivVerdict(_Record):
    """Decision plus the artifact that proves a positive answer."""

    __slots__ = ("equivalent", "method", "witness")
    _defaults = {"witness": None}
    equivalent: bool
    method: str
    witness: object | None

    def __bool__(self):
        return self.equivalent


def _two_routes(a, b, greatest, classes, match, route) -> EquivVerdict:
    """Decide by the greatest relation and by matching the factor automata.

    Route one asks whether ``greatest(a, b)`` is complete and surjective;
    route two factors each automaton by ``classes`` and searches for a
    ``match`` between the factors.  The routes must agree, and a positive
    witness is re-verified against the definitions: the relation here, the
    mapping by ``match`` itself, which checks every mapping it returns.
    The relation is checked before route two runs, so the check reads what
    route one kept with A (``bisim._terminal_vectors``), but a disagreement
    of the routes is reported first.
    """
    _require_same_alphabet(a, b)
    rep = greatest(a, b)
    phi = rep.relation
    direct = phi is not None and is_complete(phi) and is_surjective(phi)
    verified = direct and is_uniform(phi) and check(rep.kind, a, b, phi).ok
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
    if not verified:
        raise AssertionError("witness failed re-verification")
    return EquivVerdict(True, method, EquivWitness(phi, mapping, e_a, e_b))


def _fixpoint_fb_classes(c: Nfa) -> Partition:
    """Route 2's classes of C: the paper's fixpoint of C against itself,
    read as a partition.  ``greatest_fb_equivalence`` reaches the same
    classes by refining to stability; route 2 keeps the fixpoint so that
    the fixpoint stays in use as the reference.  The identity always
    qualifies and the fixpoint is an equivalence, so a failure here is a
    fault of the program, never of its input."""
    report = greatest_forward_bisim(c, c)
    if report.relation is None:  # pragma: no cover
        raise AssertionError("self-bisimulation fixpoint was rejected")
    try:
        return Partition.from_relation(report.relation)
    except ValueError as exc:
        raise AssertionError(f"self-bisimulation fixpoint: {exc}") from exc


def fb_equivalent(a: Nfa, b: Nfa) -> EquivVerdict:
    """Decide whether a complete and surjective forward bisimulation exists.

    The structural route factors both automata by their greatest forward
    bisimulation equivalences, each read off the paper's fixpoint of the
    automaton against itself, and matches the factors, which are fb-reduced,
    by one successor refinement (``find_isomorphism``).  The verdict
    is returned only when both routes agree, and a positive witness is
    re-verified against the definitions.
    """
    return _two_routes(
        a, b, greatest_forward_bisim, _fixpoint_fb_classes,
        find_isomorphism, "factor-isomorphism",
    )


def wfb_equivalent(a: Nfa, b: Nfa) -> EquivVerdict:
    """Weak counterpart of fb_equivalent.

    The structural route compares the factors by the greatest weak equivalence
    using a weak forward isomorphism, which only has to preserve initial
    states and the word-indexed terminal vectors.
    """
    return _two_routes(
        a, b, greatest_weak_forward_bisim, wfb_equivalence_bound,
        weak_forward_isomorphism, "weak-isomorphism",
    )


def language_equivalent(a: Nfa, b: Nfa) -> EquivVerdict:
    """Decide whether the two automata accept the same words.

    The subset search over the disjoint union A+B reaches every pair
    (sigma_u of a, sigma_u of b), each first through its length-lex-least
    word u (lexicographic in a's alphabet order).  The languages differ
    exactly when some pair disagrees on meeting the terminal states, and the
    first such pair's word is the shortest (length-then-lex) separating
    word, which a negative verdict carries as its witness.
    """
    tau_a, tau_b = a.tau.mask, b.tau.mask << a.n
    # links[q]: the subset that first reached subset q, and the symbol.
    links = [None]
    for p, (mask, row) in enumerate(_subsets(a, b)):
        if bool(mask & tau_a) != bool(mask & tau_b):
            word, q = (), p
            while links[q] is not None:
                q, x = links[q]
                word = (x,) + word
            if accepts(a, word) == accepts(b, word):
                raise AssertionError("separating word failed re-verification")
            return EquivVerdict(False, "lang", word)
        for x, q in zip(a.alphabet, row):
            if q == len(links):
                links.append((p, x))
    return EquivVerdict(True, "lang")


def _weak_signatures(a: Nfa, b: Nfa):
    """Per-state membership signatures over sigma and the reachable
    terminal vectors: bit 0 for sigma and bit k + 1 for the k-th pair."""
    sigma = a.sigma.mask | b.sigma.mask << a.n
    sig = _columns(_terminal_vectors(a, b), a.n + b.n)
    sig = [s << 1 | sigma >> i & 1 for i, s in enumerate(sig)]
    return sig[:a.n], sig[a.n:]


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
    if sorted(sig_a) != sorted(sig_b):
        return None
    # Each group lists its states highest first, so pop() hands them out in
    # increasing index order.
    groups_b = {}
    for j in reversed(range(b.n)):
        groups_b.setdefault(sig_b[j], []).append(j)
    phi = tuple(groups_b[sig].pop() for sig in sig_a)
    if not is_weak_forward_isomorphism(a, b, phi):
        raise AssertionError("signature matching produced an invalid mapping")
    return phi


def is_weak_forward_isomorphism(a: Nfa, b: Nfa, phi) -> bool:
    """Definition check for weak forward isomorphisms."""
    if not _is_bijection(a, b, phi):
        return False
    image = _unions([1 << t for t in phi])
    return image(a.sigma.mask) == b.sigma.mask and all(
        image(ta.mask) == tb.mask for ta, tb in reachable_terminal_pairs(a, b)
    )


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


class UniformCrosscheck(_Record):
    """Agreement record for the three characterizations of a uniform
    (weak-free) bisimulation: factor-structure, direct check, equalities."""

    __slots__ = ("kernel_ok", "cokernel_ok", "factor_iso_ok", "equalities", "verdict")
    kernel_ok: bool
    cokernel_ok: bool
    factor_iso_ok: bool
    equalities: tuple
    verdict: bool


def _crosscheck(a, b, phi, cokernel_kind, equalities, direct_kind):
    # induced_bijection raises ValueError unless phi is uniform.
    mapping = induced_bijection(phi)
    ker = kernel(phi)
    coker = cokernel(phi)
    kernel_ok = check(BisimKind.FORWARD_BISIM, a, a, ker.to_relation()).ok
    cokernel_ok = check(cokernel_kind, b, b, coker.to_relation()).ok
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
        kernel_ok, cokernel_ok, factor_iso_ok, tuple(equalities), direct
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
