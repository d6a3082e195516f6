"""Brute-force reference implementations used as independent oracles.

Everything here works on explicit bit lists, Python sets, and full word
enumeration; none of it goes through the packed-mask code paths it is used
to verify.
"""

import itertools

from nfabisim import BoolRel, BoolVec, Nfa, Partition


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


def _members(vec: BoolVec) -> set:
    return {i for i, bit in enumerate(vec.bits()) if bit}


def step_states(a: Nfa, states: set, x: str) -> set:
    bits = a.delta[x].bits()
    return {j for i in states for j in range(a.n) if bits[i][j]}


def accepts_oracle(a: Nfa, word) -> bool:
    current = _members(a.sigma)
    for x in word:
        current = step_states(a, current, x)
    return bool(current & _members(a.tau))


def language_oracle(a: Nfa, maxlen: int) -> list:
    out = []
    for length in range(maxlen + 1):
        for word in itertools.product(a.alphabet, repeat=length):
            if accepts_oracle(a, word):
                out.append(word)
    return out


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
    return BoolRel.from_pairs(
        rows, cols, [(a, rng.randrange(cols)) for a in range(rows)]
    )
