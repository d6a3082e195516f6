"""Equivalence and state reduction of nondeterministic finite automata via
forward, backward-forward, and weak bisimulations over a Boolean relation
calculus."""

from .relcalc import (
    BoolRel,
    BoolVec,
    Partition,
    arrow_left,
    arrow_right,
    cokernel,
    compose,
    induced_bijection,
    intersect,
    inverse,
    is_complete,
    is_partial_uniform,
    is_surjective,
    is_uniform,
    kernel,
    rel_vec,
    residual_left,
    residual_right,
    scalar,
    subset_of,
    union,
    vec_rel,
)
from .automaton import (
    Nfa,
    accepts,
    factor,
    find_isomorphism,
    is_isomorphism,
    random_nfa,
    reverse,
    sigma_u,
)
from .bisim import (
    BisimKind,
    BisimReport,
    CheckResult,
    check,
    greatest_backward_bisim,
    greatest_backward_forward_bisim,
    greatest_bb_equivalence,
    greatest_fb_equivalence,
    greatest_forward_backward_bisim,
    greatest_forward_bisim,
    greatest_weak_backward_bisim,
    greatest_weak_forward_bisim,
    greatest_weak_forward_sim,
    reachable_terminal_pairs,
    wbb_equivalence_bound,
    wfb_equivalence_bound,
)
from .equivalence import (
    EquivVerdict,
    fb_equivalent,
    function_fb_iff_bfb,
    language_equivalent,
    reduce,
    uniform_bfb_crosscheck,
    uniform_fb_crosscheck,
    weak_forward_isomorphism,
    wfb_equivalent,
)
from .nerode import Dfa, nerode, reverse_nerode

__version__ = "0.1.0"
