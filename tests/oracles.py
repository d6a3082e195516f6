"""Brute-force reference implementations used as independent oracles.

Everything here works on explicit bit lists, Python sets, and full word
enumeration; none of it goes through the packed-mask code paths it is used
to verify.
"""

import itertools

from nfabisim import BoolRel, BoolVec, Nfa, Partition


def rel_from_pairs(rows: int, cols: int, pairs) -> BoolRel:
    """The relation holding exactly the given (row, column) pairs."""
    masks = [0] * rows
    for a, b in pairs:
        if not (0 <= a < rows and 0 <= b < cols):
            raise ValueError(f"pair ({a}, {b}) out of range for {rows}x{cols}")
        masks[a] |= 1 << b
    return BoolRel(rows, cols, masks)


def compose_oracle(r: BoolRel, s: BoolRel) -> BoolRel:
    rb, sb = r.bits(), s.bits()
    out = [[0] * s.cols for _ in range(r.rows)]
    for a in range(r.rows):
        for b in range(r.cols):
            if rb[a][b]:
                for c in range(s.cols):
                    if sb[b][c]:
                        out[a][c] = 1
    return BoolRel.from_bits(out)


def image_oracle(r: BoolRel, selected: set) -> set:
    """The columns that some selected row of r relates to."""
    bits = r.bits()
    return {b for a in selected for b in range(r.cols) if bits[a][b]}


def arrow_right_oracle(eta: BoolVec, xi: BoolVec) -> BoolRel:
    return BoolRel.from_bits(
        [[1 if (not eta[a]) or xi[b] else 0 for b in range(xi.n)]
         for a in range(eta.n)]
    )


def arrow_left_oracle(eta: BoolVec, xi: BoolVec) -> BoolRel:
    return BoolRel.from_bits(
        [[1 if (not xi[b]) or eta[a] else 0 for b in range(xi.n)]
         for a in range(eta.n)]
    )


def residual_right_oracle(phi: BoolRel, alpha: BoolRel) -> BoolRel:
    out = [[0] * phi.cols for _ in range(phi.rows)]
    for a in range(phi.rows):
        for b in range(phi.cols):
            out[a][b] = int(
                all(phi[a2, b] for a2 in range(alpha.rows) if alpha[a2, a])
            )
    return BoolRel.from_bits(out)


def residual_left_oracle(phi: BoolRel, beta: BoolRel) -> BoolRel:
    out = [[0] * phi.cols for _ in range(phi.rows)]
    for a in range(phi.rows):
        for b in range(phi.cols):
            out[a][b] = int(
                all(phi[a, b2] for b2 in range(beta.cols) if beta[b, b2])
            )
    return BoolRel.from_bits(out)


def kernel_oracle(phi: BoolRel) -> Partition:
    labels = []
    seen = []
    for a in range(phi.rows):
        row = phi.bits()[a]
        for c, other in enumerate(seen):
            if other == row:
                labels.append(c)
                break
        else:
            labels.append(len(seen))
            seen.append(row)
    return Partition(labels)


def functional_descriptions_oracle(phi: BoolRel) -> list:
    """Every choice function picking one related column per row, as tuples
    in lexicographic order; none when a row is empty."""
    return list(itertools.product(
        *[[b for b, bit in enumerate(row) if bit] for row in phi.bits()]
    ))


def quotient_partition_oracle(f: Partition, e: Partition) -> Partition:
    """The partition f induces on the classes of e, which must refine f:
    two classes of e share a block when their members share a class of f."""
    labels = []
    for members in e.classes:
        targets = {f.class_of[m] for m in members}
        if len(targets) != 1:
            raise ValueError(
                f"class {list(members)} meets {len(targets)} classes of the divisor"
            )
        labels.append(targets.pop())
    return Partition(labels)


def refines_oracle(e: Partition, f: Partition) -> bool:
    """Whether every class of e lies inside a class of f.  Labelling each
    element by its pair of classes gives the meet of e and f, which equals e
    exactly when e refines f."""
    return Partition(zip(e.class_of, f.class_of)) == e


def join_oracle(e: Partition, f: Partition) -> Partition:
    """Least equivalence containing both partitions, by union-find over the
    members of every class of either."""
    parent = list(range(e.n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for part in (e, f):
        for first, *rest in part.classes:
            for m in rest:
                parent[find(m)] = find(first)
    return Partition([find(i) for i in range(e.n)])


def _members(vec: BoolVec) -> set:
    return {i for i, bit in enumerate(vec.bits()) if bit}


def step_states(a: Nfa, states: set, x: str) -> set:
    bits = a.delta[x].bits()
    return {j for i in states for j in range(a.n) if bits[i][j]}


def delta_word_oracle(a: Nfa, u) -> BoolRel:
    """Pairs (p, q) such that reading u can lead from p to q, each state's
    set stepped one symbol at a time; the empty word gives equality."""
    word = a.word(u)
    pairs = set()
    for p in range(a.n):
        current = {p}
        for x in word:
            current = step_states(a, current, x)
        pairs |= {(p, q) for q in current}
    return rel_from_pairs(a.n, a.n, pairs)


def language_oracle(a: Nfa, maxlen: int) -> list:
    """Every accepted word of length <= maxlen, in length-then-lex order,
    each simulated from the initial states on its own."""
    succ = {x: [step_states(a, {i}, x) for i in range(a.n)] for x in a.alphabet}
    sigma, tau = _members(a.sigma), _members(a.tau)
    out = []
    for length in range(maxlen + 1):
        for word in itertools.product(a.alphabet, repeat=length):
            current = sigma
            for x in word:
                current = {j for i in current for j in succ[x][i]}
            if current & tau:
                out.append(word)
    return out


def subsets_oracle(a: Nfa) -> list:
    """The accessible subset construction by the definition: breadth-first
    from the initial states, each subset stepping to its set of successors
    per symbol in alphabet order.  Returns one (subset, row, final) per
    subset in discovery order, row[k] being the discovery index of the k-th
    symbol's successor set and final telling whether the subset meets the
    terminal states."""
    edges = [_edges(a, x) for x in a.alphabet]
    terminal = _members(a.tau)
    order = [frozenset(_members(a.sigma))]
    index = {order[0]: 0}
    out = []
    for states in order:
        row = []
        for pairs in edges:
            succ = frozenset(q for p, q in pairs if p in states)
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
            row.append(index[succ])
        out.append((states, row, bool(states & terminal)))
    return out


def transitions_oracle(rest: str, n: int):
    """A transition line's text after the colon read token by token: the set
    of its edges, or the message of its first bad token.  A token is
    ``src->dst``, each end a run of the characters 0-9 that ``int`` reads
    and that names one of n states."""
    edges = set()
    for token in rest.split():
        src, arrow, dst = token.partition("->")
        if arrow != "->":
            return f"bad transition {token!r}, expected src->dst"
        ends = []
        for end in (src, dst):
            if not end or set(end) - set("0123456789"):
                return f"expected a state index, got {end!r}"
            try:
                value = int(end)
            except ValueError:  # more digits than int() reads from text
                return f"expected a state index, got {end!r}"
            if value >= n:
                return f"state index {value} out of range for {n} states"
            ends.append(value)
        edges.add(tuple(ends))
    return edges


def format_dfa_oracle(d) -> str:
    """The text ``cli.format_dfa`` must print, by the definition: header
    lines, one ``# subset:`` comment per state listing its members in
    increasing order (``(empty)`` for none), then one transition line per
    symbol."""
    lines = [f"states {d.m}", "alphabet " + " ".join(d.alphabet),
             f"initial {d.start}",
             "terminal" + "".join(f" {q}" for q in range(d.m) if d.final[q])]
    for q, v in enumerate(d.subset_of):
        members = sorted(_members(v))
        text = " ".join(str(i) for i in members) if members else "(empty)"
        lines.append(f"# subset: {q} = {text}")
    for k, x in enumerate(d.alphabet):
        lines.append(f"{x}:" + "".join(f" {q}->{row[k]}" for q, row in enumerate(d.next)))
    return "\n".join(lines) + "\n"


def format_nfa_oracle(a: Nfa) -> str:
    """The text ``cli.format_nfa`` must print, by the definition: header
    lines with the initial and terminal states in increasing order, then
    one transition line per symbol in declaration order, its edges in
    increasing (source, target) order."""
    lines = [f"states {a.n}", "alphabet " + " ".join(a.alphabet),
             "initial" + "".join(f" {q}" for q in sorted(_members(a.sigma))),
             "terminal" + "".join(f" {q}" for q in sorted(_members(a.tau)))]
    for x in a.alphabet:
        lines.append(f"{x}:" + "".join(f" {p}->{q}" for p, q in sorted(_pairs(a.delta[x]))))
    return "\n".join(lines) + "\n"


def right_language_oracle(a: Nfa, state: int, depth: int) -> set:
    """Words of length <= depth that can reach a terminal state from state."""
    out = set()
    terminal = _members(a.tau)
    for length in range(depth + 1):
        for word in itertools.product(a.alphabet, repeat=length):
            current = {state}
            for x in word:
                current = step_states(a, current, x)
            if current & terminal:
                out.add(word)
    return out


def _edges(a: Nfa, x: str) -> set:
    bits = a.delta[x].bits()
    return {(i, j) for i in range(a.n) for j in range(a.n) if bits[i][j]}


def _automaton(n, alphabet, edges, initial, terminal) -> Nfa:
    """Automaton over states 0..n-1 from explicit edge and state sets."""
    return Nfa(
        n,
        alphabet,
        {x: rel_from_pairs(n, n, edges[x]) for x in alphabet},
        [1 if q in initial else 0 for q in range(n)],
        [1 if q in terminal else 0 for q in range(n)],
    )


def factor_oracle(a: Nfa, e: Partition) -> Nfa:
    """Quotient by the definition: class C steps to class D on x when some
    member of C steps to some member of D; a class is initial (terminal)
    when one of its members is."""
    cls = e.class_of
    return _automaton(
        e.num_classes,
        a.alphabet,
        {x: {(cls[p], cls[q]) for p, q in _edges(a, x)} for x in a.alphabet},
        {cls[p] for p in _members(a.sigma)},
        {cls[p] for p in _members(a.tau)},
    )


def subautomaton_oracle(a: Nfa, keep) -> Nfa:
    """Restriction by the definition: the kept states, renumbered in
    increasing order, with the edges and boundary states among them."""
    kept = sorted(keep)
    new = {p: k for k, p in enumerate(kept)}
    return _automaton(
        len(kept),
        a.alphabet,
        {
            x: {(new[p], new[q]) for p, q in _edges(a, x) if p in new and q in new}
            for x in a.alphabet
        },
        {new[p] for p in _members(a.sigma) if p in new},
        {new[p] for p in _members(a.tau) if p in new},
    )


def isomorphism_oracle(a: Nfa, b: Nfa, phi) -> bool:
    """Whether phi maps the states of A one-to-one onto those of B, carrying
    every edge, initial state and terminal state exactly onto B's."""
    if set(a.alphabet) != set(b.alphabet) or a.n != b.n:
        return False
    if sorted(phi) != list(range(b.n)):
        return False
    return (
        {phi[p] for p in _members(a.sigma)} == _members(b.sigma)
        and {phi[p] for p in _members(a.tau)} == _members(b.tau)
        and all(
            {(phi[p], phi[q]) for p, q in _edges(a, x)} == _edges(b, x)
            for x in a.alphabet
        )
    )


def isomorphic_oracle(a: Nfa, b: Nfa) -> list:
    """Every isomorphism from A onto B, as image tuples in lexicographic
    order, found by trying each permutation of B's states; empty when the
    automata are not isomorphic."""
    if a.n != b.n:
        return []
    return [
        phi for phi in itertools.permutations(range(b.n))
        if isomorphism_oracle(a, b, phi)
    ]


def dfa_isomorphism_oracle(d1, d2):
    """The state bijection between two DFAs, or None.

    The pairs of states that one word reaches in each, closed from the two
    starts under every symbol, must pair each state of either DFA with
    exactly one state of the other and agree on final flags.  Subset labels
    are ignored.
    """
    if d1.alphabet != d2.alphabet:
        raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
    pairs = {(d1.start, d2.start)}
    todo = list(pairs)
    while todo:
        p, q = todo.pop()
        for pair in zip(d1.next[p], d2.next[q]):
            if pair not in pairs:
                pairs.add(pair)
                todo.append(pair)
    image = dict(pairs)
    if (
        len(image) != len(pairs)
        or len(image) != d1.m
        or sorted(image.values()) != list(range(d2.m))
        or any(d1.final[p] != d2.final[q] for p, q in pairs)
    ):
        return None
    return tuple(image[p] for p in range(d1.m))


def bfb_violations(a: Nfa, b: Nfa, phi: BoolRel) -> tuple:
    """Backward-forward bisimulation conditions that phi breaks, in order.

    phi is a backward-forward bisimulation when phi is a backward simulation
    of A by B and phi^-1 is a forward simulation of B by A.  Each condition
    is written pair by pair over explicit edge, predecessor and successor
    sets, and named as in ``nfabisim.bisim.check``.
    """
    pairs = {(p, q) for p in range(a.n) for q in range(b.n) if phi[p, q]}
    sigma_a, tau_a = _members(a.sigma), _members(a.tau)
    sigma_b, tau_b = _members(b.sigma), _members(b.tau)
    edges = {x: (_edges(a, x), _edges(b, x)) for x in a.alphabet}
    conds = [("initial-image",
              all(q in sigma_b for p, q in pairs if p in sigma_a))]
    for x, (ea, eb) in edges.items():
        # p -x-> p2 with p2 phi q2: some q -x-> q2 has p phi q
        conds.append((f"step-backward[{x}]", all(
            any((p, q) in pairs for q, q_to in eb if q_to == q2)
            for p2, q2 in pairs for p, p_to in ea if p_to == p2
        )))
    conds.append(("terminal-forward",
                  all(any((p, q) in pairs for q in tau_b) for p in tau_a)))
    conds.append(("initial-backward",
                  all(any((p, q) in pairs for p in sigma_a) for q in sigma_b)))
    for x, (ea, eb) in edges.items():
        # p phi q with q -x-> q2: some p -x-> p2 has p2 phi q2
        conds.append((f"step-forward-rev[{x}]", all(
            any((p2, q2) in pairs for p_from, p2 in ea if p_from == p)
            for p, q in pairs for q_from, q2 in eb if q_from == q
        )))
    conds.append(("terminal-image-rev",
                  all(p in tau_a for p, q in pairs if q in tau_b)))
    return tuple(name for name, holds in conds if not holds)


def bfb_oracle(a: Nfa, b: Nfa, phi: BoolRel) -> bool:
    """Whether phi is a backward-forward bisimulation between A and B."""
    return not bfb_violations(a, b, phi)


# The covering conditions of each strong bisimulation kind, in report order.
_COVERS = {
    "fb": ("initial-forward", "initial-backward"),
    "bb": ("terminal-forward", "terminal-backward"),
    "bfb": ("terminal-forward", "initial-backward"),
    "fbb": ("initial-forward", "terminal-backward"),
}


def cover_failures_oracle(kind: str, a: Nfa, b: Nfa, phi: BoolRel):
    """The covering conditions of a strong kind that phi breaks, in report
    order, or None when it breaks none: each initial (terminal) state of one
    side must be related to an initial (terminal) state of the other."""
    sigma_a, tau_a = _members(a.sigma), _members(a.tau)
    sigma_b, tau_b = _members(b.sigma), _members(b.tau)
    pairs = {(p, q) for p in range(a.n) for q in range(b.n) if phi[p, q]}
    holds = {
        "initial-forward": all(any((p, q) in pairs for q in sigma_b) for p in sigma_a),
        "initial-backward": all(any((p, q) in pairs for p in sigma_a) for q in sigma_b),
        "terminal-forward": all(any((p, q) in pairs for q in tau_b) for p in tau_a),
        "terminal-backward": all(any((p, q) in pairs for p in tau_a) for q in tau_b),
    }
    return tuple(name for name in _COVERS[kind] if not holds[name]) or None


def _fixpoint_start(kind: str, a: Nfa, b: Nfa):
    """phi_0, the pair-by-pair round test ``stays(p, q, phi)``, and each
    pair's neighbours (its successor and predecessor pairs under every
    symbol) for the fixpoint of ``fixpoint_steps_oracle``."""
    sigma_a, tau_a = _members(a.sigma), _members(a.tau)
    sigma_b, tau_b = _members(b.sigma), _members(b.tau)
    edges = [(_edges(a, x), _edges(b, x)) for x in a.alphabet]
    every = [(p, q) for p in range(a.n) for q in range(b.n)]
    if kind == "fb":
        pairs = {(p, q) for p, q in every if (p in tau_a) == (q in tau_b)}
    elif kind == "bfb":
        pairs = {
            (p, q) for p, q in every
            if (p not in sigma_a or q in sigma_b) and (q not in tau_b or p in tau_a)
        }
    else:
        raise ValueError(f"unknown fixpoint kind {kind!r}")

    # Per symbol, each state's successors and predecessors in A and in B.
    ends = [
        [{p: {e[1 - end] for e in es if e[end] == p} for p in range(c.n)}
         for end in (0, 1) for es, c in ((ea, a), (eb, b))]
        for ea, eb in edges
    ]

    def stays(p, q, phi):
        for out_a, out_b, in_a, in_b in ends:
            # (d_A^x o phi) / d_B^x: every q -x-> q2 has some p -x-> p2, p2 phi q2
            if not all(any((p2, q2) in phi for p2 in out_a[p]) for q2 in out_b[q]):
                return False
            if kind == "fb":
                # every p -x-> p2 has some q -x-> q2 with p2 phi q2
                left, right = out_a[p], out_b[q]
            else:
                # every p0 -x-> p has some q0 -x-> q with p0 phi q0
                left, right = in_a[p], in_b[q]
            if not all(any((p0, q0) in phi for q0 in right) for p0 in left):
                return False
        return True

    def neighbours(p, q):
        return {
            pair
            for out_a, out_b, in_a, in_b in ends
            for side_a, side_b in ((out_a, out_b), (in_a, in_b))
            for pair in itertools.product(side_a[p], side_b[q])
        }

    return pairs, stays, neighbours


def fixpoint_steps_oracle(kind: str, a: Nfa, b: Nfa) -> list:
    """The paper's shrinking sequence phi_0, phi_1, ... for kind "fb" or "bfb".

    With R / S the left residual (the greatest psi with psi o S <= R) and
    S \\ R the right residual (the greatest psi with S o psi <= R), each round
    intersects over every symbol x:

        fb:  phi_{k+1} = phi_k & ((d_B^x o phi_k^-1) / d_A^x)^-1
                               & ((d_A^x o phi_k) / d_B^x)
        bfb: phi_{k+1} = phi_k & ((d_A^x o phi_k) / d_B^x)
                               & (d_A^x \\ (phi_k o d_B^x))

    from phi_0 = terminal agreement (fb), or sigma_A -> sigma_B intersected
    with tau_A <- tau_B (bfb).  The sequence ends when a round changes
    nothing (its last two entries are equal) or phi is empty.  Every bound
    is written pair by pair over explicit edge and state sets.

    A pair's test reads only its successor and predecessor pairs, and the
    test is monotone in phi, so a pair that passed round k passes round
    k + 1 unless one of those pairs left phi in round k: round 0 tests every
    pair, each later round only the neighbours of the pairs just removed.
    ``full_rescan_steps_oracle`` re-tests every pair in every round.
    """
    pairs, stays, neighbours = _fixpoint_start(kind, a, b)
    seq = [pairs]
    suspects = pairs
    while pairs:
        removed = {(p, q) for p, q in suspects if not stays(p, q, pairs)}
        nxt = pairs - removed
        seq.append(nxt)
        if not removed:
            break
        pairs = nxt
        suspects = {pair for p, q in removed for pair in neighbours(p, q)} & pairs
    return [rel_from_pairs(a.n, b.n, phi) for phi in seq]


def full_rescan_steps_oracle(kind: str, a: Nfa, b: Nfa) -> list:
    """``fixpoint_steps_oracle`` with every remaining pair re-tested in every
    round; the reference the semi-naive form is held to."""
    pairs, stays, _ = _fixpoint_start(kind, a, b)
    seq = [pairs]
    while pairs:
        nxt = {(p, q) for p, q in pairs if stays(p, q, pairs)}
        seq.append(nxt)
        if nxt == pairs:
            break
        pairs = nxt
    return [rel_from_pairs(a.n, b.n, phi) for phi in seq]


def refine_oracle(block, tables) -> list:
    """The rounds of naive partition refinement, each a set of blocks
    (frozensets of states), ending with the first round that splits nothing.

    ``block`` labels the states 0..n-1 and each table lists every state's
    neighbours.  Two states share a block after round k + 1 when they shared
    one after round k and, for every table and every block C after round k,
    both or neither has a neighbour in C.
    """
    n = len(block)
    blocks = {frozenset(i for i in range(n) if block[i] == label)
              for label in set(block)}
    rounds = []
    while True:
        order = list(blocks)
        meets = [[[bool(c.intersection(t[i])) for c in order] for t in tables]
                 for i in range(n)]
        parts = set()
        for c in blocks:
            rest = set(c)
            while rest:
                first = meets[min(rest)]
                part = frozenset(j for j in rest if meets[j] == first)
                parts.add(part)
                rest -= part
        rounds.append(parts)
        if len(parts) == len(blocks):
            return rounds
        blocks = parts


def weak_oracle(kind: str, a: Nfa, b: Nfa) -> tuple:
    """The reachable terminal-vector pairs and the greatest weak relation of
    kind "wfs", "wfb" or "wbb" between A and B, by the definition.

    The pairs (tau_u of A, tau_u of B) are found breadth-first from the two
    terminal sets, each pair stepping to its predecessor sets per symbol in
    A's alphabet order.  The relation is the intersection, pair by pair, of
    the arrows: (p, q) survives a pair (S, T) when p in S implies q in T,
    and for wfb also q in T implies p in S.  A wbb is a wfb of the reversed
    automata, with the condition names turned back.

    Returns (pairs, relation, failure), the pairs as frozensets; relation is
    None exactly when failure names the covering conditions it violates.
    """
    if kind == "wbb":
        pairs, relation, failure = weak_oracle(
            "wfb", reverse_oracle(a), reverse_oracle(b)
        )
        dual = {"initial-forward": "terminal-forward",
                "initial-backward": "terminal-backward"}
        return pairs, relation, failure and tuple(dual[n] for n in failure)
    if kind not in ("wfs", "wfb"):
        raise ValueError(f"unknown weak kind {kind!r}")
    edges = [(_edges(a, x), _edges(b, x)) for x in a.alphabet]
    pairs = [(frozenset(_members(a.tau)), frozenset(_members(b.tau)))]
    seen = set(pairs)
    for s, t in pairs:
        for ea, eb in edges:
            pair = (frozenset(p for p, p2 in ea if p2 in s),
                    frozenset(q for q, q2 in eb if q2 in t))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    related = {(p, q) for p in range(a.n) for q in range(b.n)}
    for s, t in pairs:
        related = {
            (p, q) for p, q in related
            if (p not in s or q in t) and (kind == "wfs" or q not in t or p in s)
        }
    sigma_a, sigma_b = _members(a.sigma), _members(b.sigma)
    cover = [("initial-forward", all(
        any((p, q) in related for q in sigma_b) for p in sigma_a))]
    if kind == "wfb":
        cover.append(("initial-backward", all(
            any((p, q) in related for p in sigma_a) for q in sigma_b)))
    failure = tuple(name for name, holds in cover if not holds)
    if failure:
        return pairs, None, failure
    return pairs, rel_from_pairs(a.n, b.n, related), None


def weak_isomorphism_oracle(a: Nfa, b: Nfa, phi) -> bool:
    """Whether phi maps the states of A one-to-one onto those of B, carrying
    A's initial states onto B's and, for every word u, tau_u of A onto tau_u
    of B: each pair of ``weak_oracle`` onto its partner."""
    if set(a.alphabet) != set(b.alphabet) or a.n != b.n:
        return False
    if sorted(phi) != list(range(b.n)):
        return False
    pairs = weak_oracle("wfs", a, b)[0]
    return {phi[p] for p in _members(a.sigma)} == _members(b.sigma) and all(
        {phi[p] for p in s} == t for s, t in pairs
    )


def reverse_oracle(a: Nfa) -> Nfa:
    """Every edge turned round, initial and terminal states swapped."""
    return _automaton(
        a.n,
        a.alphabet,
        {x: {(q, p) for p, q in _edges(a, x)} for x in a.alphabet},
        _members(a.tau),
        _members(a.sigma),
    )


def sum_oracle(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union over A's alphabet order, B's state q renamed a.n + q."""

    def shift(states):
        return {a.n + q for q in states}

    return _automaton(
        a.n + b.n,
        a.alphabet,
        {
            x: _edges(a, x) | {(a.n + p, a.n + q) for p, q in _edges(b, x)}
            for x in a.alphabet
        },
        _members(a.sigma) | shift(_members(b.sigma)),
        _members(a.tau) | shift(_members(b.tau)),
    )


def _pairs(r: BoolRel) -> set:
    bits = r.bits()
    return {(a, b) for a in range(r.rows) for b in range(r.cols) if bits[a][b]}


def _compose_pairs(r: set, s: set) -> set:
    return {(a, c) for a, b in r for b2, c in s if b == b2}


def equivalence_oracle(rel: BoolRel):
    """The classes of a square relation that is an equivalence, each a
    sorted tuple, in order of least member; for any other square relation
    the message naming the first law it breaks, tried in the order
    reflexivity (at the least state without its pair), symmetry,
    transitivity."""
    pairs = _pairs(rel)
    n = rel.rows
    for a in range(n):
        if (a, a) not in pairs:
            return f"relation is not reflexive at {a}"
    if any((b, a) not in pairs for a, b in pairs):
        return "relation is not symmetric"
    if not _compose_pairs(pairs, pairs) <= pairs:
        return "relation is not transitive"
    return tuple(sorted({tuple(b for b in range(n) if (a, b) in pairs) for a in range(n)}))


def partial_uniform_oracle(phi: BoolRel) -> bool:
    """Whether phi o phi^-1 o phi is contained in phi, composed pair by
    pair."""
    pairs = _pairs(phi)
    inverse = {(b, a) for a, b in pairs}
    return _compose_pairs(_compose_pairs(pairs, inverse), pairs) <= pairs


def all_relations(rows: int, cols: int, include_empty: bool = False):
    start = 0 if include_empty else 1
    for code in range(start, 1 << rows * cols):
        masks = [code >> a * cols & (1 << cols) - 1 for a in range(rows)]
        yield BoolRel(rows, cols, masks)


def all_partitions(n: int):
    """Every partition of {0..n-1}, via restricted growth strings."""

    def grow(prefix, width):
        if len(prefix) == n:
            yield Partition(prefix)
            return
        for c in range(width + 1):
            yield from grow(prefix + [c], max(width, c + 1))

    yield from grow([0], 1)


def random_partition(rng, n: int, num_classes: int) -> Partition:
    labels = [rng.randrange(num_classes) for _ in range(n)]
    # overwrite distinct slots so that every class is nonempty
    slots = rng.sample(range(n), num_classes)
    for c, slot in enumerate(slots):
        labels[slot] = c
    return Partition(labels)


def random_uniform_relation(rng, rows: int, cols: int) -> BoolRel:
    """Uniform relation built from two partitions and a class bijection."""
    k = rng.randint(1, min(rows, cols))
    left = random_partition(rng, rows, k)
    right = random_partition(rng, cols, k)
    pairing = list(range(k))
    rng.shuffle(pairing)
    return BoolRel.from_bits(
        [
            [
                1 if pairing[left.class_of[a]] == right.class_of[b] else 0
                for b in range(cols)
            ]
            for a in range(rows)
        ]
    )


def random_functional_relation(rng, rows: int, cols: int) -> BoolRel:
    return rel_from_pairs(
        rows, cols, [(a, rng.randrange(cols)) for a in range(rows)]
    )


def line_nfa(n: int, closed: bool, alphabet=("a", "b"), name=None) -> Nfa:
    """A chain (a ring when closed) stepping on the first symbol, with every
    other symbol looping on every state, its state q renamed name[q]; the
    ring's state 0 is initial and terminal, the chain runs from 0 to n - 1."""
    name = name or range(n)
    step = [(q, q + 1) for q in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    delta = {alphabet[0]: rel_from_pairs(n, n, [(name[p], name[q]) for p, q in step])}
    for x in alphabet[1:]:
        delta[x] = BoolRel(n, n, [1 << q for q in range(n)])
    first, last = name[0], name[0 if closed else n - 1]
    return Nfa(n, alphabet, delta, [q == first for q in range(n)],
               [q == last for q in range(n)])
