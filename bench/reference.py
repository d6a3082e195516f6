"""Reference checks for every benchmark case, built on ``bench.automata``.

Each check takes the exit code and standard output of one ``nfabisim``
command and returns ``None`` when they are right, or a one-line reason when
they are not.  The expected verdict always comes from how the inputs were
built, never from the program under test.
"""

from __future__ import annotations

from bench.automata import parse


def sample_words(rng, auto, count, maxlen):
    """Seeded words for language comparison: half are read off random walks
    that end in a terminal state (so many are accepted), half are uniform
    random words of length 0..maxlen."""
    words = []
    starts = sorted(auto.initial)
    for _ in range(count // 2):
        if not starts:
            break
        q = rng.choice(starts)
        word = []
        accepted = [()] if q in auto.terminal else []
        for _ in range(maxlen):
            moves = [
                (x, t) for x in auto.alphabet for t in sorted(auto.succ[x][q])
            ]
            if not moves:
                break
            x, q = rng.choice(moves)
            word.append(x)
            if q in auto.terminal:
                accepted.append(tuple(word))
        words.append(rng.choice(accepted) if accepted else tuple(word))
    while len(words) < count:
        length = rng.randint(0, maxlen)
        words.append(tuple(rng.choice(auto.alphabet) for _ in range(length)))
    return words


def _matrix(lines, rows, cols):
    if len(lines) != rows:
        return None, f"expected {rows} relation rows, got {len(lines)}"
    for i, line in enumerate(lines):
        if len(line) != cols or set(line) - {"0", "1"}:
            return None, f"relation row {i} is not {cols} characters of 0/1"
    return lines, None


def _contains(matrix, perm):
    for i, j in enumerate(perm):
        if matrix[i][j] != "1":
            return f"relation lacks the known isomorphism pair ({i}, {j})"
    return None


def equivalent(perm, rows, cols):
    """``equiv`` on an isomorphic pair: exit 0, ``EQUIVALENT`` and a uniform
    relation that contains the isomorphism ``perm``."""

    def check(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        lines = out.splitlines()
        if not lines or lines[0] != "EQUIVALENT":
            return f"first line {lines[:1]}, expected EQUIVALENT"
        matrix, problem = _matrix(lines[1:], rows, cols)
        return problem or _contains(matrix, perm)

    return check


def relation(perm, rows, cols):
    """``bisim`` on an isomorphic pair: exit 0 and a greatest relation that
    contains the isomorphism ``perm``."""

    def check(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        matrix, problem = _matrix(out.splitlines(), rows, cols)
        return problem or _contains(matrix, perm)

    return check


def not_equivalent(left, right, word):
    """``equiv`` on a pair whose languages differ on ``word``: the word must
    really separate them, and the program must say ``NOT-EQUIVALENT``."""

    def check(code, out):
        if left.accepts(word) == right.accepts(word):
            return f"construction error: word {' '.join(word)!r} does not separate"
        if code != 1:
            return f"exit code {code}, expected 1"
        if out != "NOT-EQUIVALENT\n":
            return f"output {out[:40]!r}, expected NOT-EQUIVALENT"
        return None

    return check


def same_language(source, words, max_states=None, deterministic=False,
                  reverse=False):
    """``reduce`` or ``determinize``: exit 0 and an automaton that accepts
    exactly the sampled words ``source`` accepts (read backwards when
    ``reverse``), with at most ``max_states`` states and, if asked, a
    deterministic transition table."""

    def check(code, out):
        if code != 0:
            return f"exit code {code}, expected 0"
        try:
            result = parse(out)
        except ValueError as exc:
            return f"output does not parse: {exc}"
        if set(result.alphabet) != set(source.alphabet):
            return f"alphabet {result.alphabet}, expected {source.alphabet}"
        if max_states is not None and result.n > max_states:
            return f"{result.n} states, expected at most {max_states}"
        if deterministic and not result.is_deterministic():
            return "output is not a complete deterministic automaton"
        for word in words:
            accepted = source.accepts(word[::-1] if reverse else word)
            if result.accepts(word) != accepted:
                verb = "rejects" if accepted else "accepts"
                return f"output {verb} {' '.join(word) or 'eps'!r}"
        return None

    return check
