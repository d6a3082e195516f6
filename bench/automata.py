"""The benchmark's own automaton model: text format, parser and simulator.

Nothing here imports ``nfabisim``.  Inputs are written and outputs are read
and simulated with this code alone, so a defect in the program under test
cannot hide itself from the reference checks.
"""

from __future__ import annotations


class Auto:
    """NFA over states 0..n-1: per-symbol successor sets plus boundary sets."""

    __slots__ = ("n", "alphabet", "succ", "initial", "terminal")

    def __init__(self, n, alphabet, succ, initial, terminal):
        self.n = n
        self.alphabet = tuple(alphabet)
        # succ[x][q] is the frozenset of x-successors of q.
        self.succ = {x: tuple(frozenset(s) for s in succ[x]) for x in self.alphabet}
        self.initial = frozenset(initial)
        self.terminal = frozenset(terminal)

    @classmethod
    def from_pairs(cls, n, alphabet, pairs, initial, terminal):
        """Build from ``pairs[x]``, an iterable of (src, dst) per symbol."""
        succ = {x: [set() for _ in range(n)] for x in alphabet}
        for x in alphabet:
            for src, dst in pairs.get(x, ()):
                succ[x][src].add(dst)
        return cls(n, alphabet, succ, initial, terminal)

    def pairs(self, x):
        return sorted((q, t) for q in range(self.n) for t in self.succ[x][q])

    def to_text(self) -> str:
        """The ``nfabisim`` automaton format, transitions sorted."""
        out = [f"states {self.n}", "alphabet " + " ".join(self.alphabet)]
        out.append("initial" + "".join(f" {q}" for q in sorted(self.initial)))
        out.append("terminal" + "".join(f" {q}" for q in sorted(self.terminal)))
        for x in self.alphabet:
            out.append(f"{x}:" + "".join(f" {s}->{d}" for s, d in self.pairs(x)))
        return "\n".join(out) + "\n"

    def step(self, states, x):
        succ = self.succ[x]
        out = set()
        for q in states:
            out |= succ[q]
        return frozenset(out)

    def accepts(self, word) -> bool:
        states = self.initial
        for x in word:
            states = self.step(states, x)
            if not states:
                return False
        return not states.isdisjoint(self.terminal)

    def is_deterministic(self) -> bool:
        """One initial state and exactly one successor per state and symbol."""
        return len(self.initial) == 1 and all(
            len(s) == 1 for x in self.alphabet for s in self.succ[x]
        )


def parse(text: str) -> Auto:
    """Read the automaton format; raises ValueError on anything malformed."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    header = [line.split() for line in lines[:4]]
    heads = [fields[0] for fields in header]
    if heads != ["states", "alphabet", "initial", "terminal"]:
        raise ValueError(f"bad header sections {heads}")
    if len(header[0]) != 2:
        raise ValueError("states takes one count")
    n = int(header[0][1])
    alphabet = header[1][1:]
    if n < 1 or not alphabet or len(set(alphabet)) != len(alphabet):
        raise ValueError("bad state count or alphabet")

    def state(token):
        q = int(token)
        if not 0 <= q < n:
            raise ValueError(f"state {q} out of range")
        return q

    initial = [state(t) for t in header[2][1:]]
    terminal = [state(t) for t in header[3][1:]]
    pairs = {}
    for line in lines[4:]:
        head, colon, rest = line.partition(":")
        head = head.strip()
        if not colon or head not in alphabet or head in pairs:
            raise ValueError(f"bad transition line {line[:40]!r}")
        found = []
        for token in rest.split():
            src, arrow, dst = token.partition("->")
            if arrow != "->":
                raise ValueError(f"bad transition {token!r}")
            found.append((state(src), state(dst)))
        pairs[head] = found
    return Auto.from_pairs(n, alphabet, pairs, initial, terminal)
