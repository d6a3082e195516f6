"""Line-oriented automaton/relation file formats and the command surface.

Automaton files (UTF-8, ``#`` starts a comment):

    states 5
    alphabet x y
    initial 0 1
    terminal 2 4
    x: 0->0 0->1 1->0
    y: 0->0

The four header sections are mandatory and appear once, in that order;
``initial`` and ``terminal`` may list no states.  A symbol may not contain
whitespace, ``#`` or ``:``.  One optional transition line per declared
symbol follows, transitions written ``src->dst``.  A file may declare, and
``gen`` may generate, at most ``MAX_STATES`` states.

Relation files carry a ``rows cols`` header followed by one 0/1 string per
row.

Exit codes: 0 for a positive verdict (or plain success), 1 for a negative
verdict, 2 for unusable input, 3 for an internal failure (a failed
self-check such as two decision routes disagreeing); the last prints one
``internal error:`` line on stderr and is never a verdict.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from itertools import compress

from . import equivalence
from .automaton import Nfa, _from_edges, _successors, random_nfa
from .bisim import (
    BisimKind,
    check,
    greatest_backward_bisim,
    greatest_backward_forward_bisim,
    greatest_forward_backward_bisim,
    greatest_forward_bisim,
    greatest_weak_forward_bisim,
    greatest_weak_backward_bisim,
    greatest_weak_forward_sim,
)
from .nerode import Dfa, nerode, reverse_nerode
from .relcalc import BoolRel, _bit_indices

__all__ = [
    "MAX_STATES",
    "ParseError",
    "parse_nfa",
    "format_nfa",
    "parse_rel",
    "format_dfa",
    "main",
]


# Largest state count an automaton file may declare or ``gen`` may generate.
# The count is checked before anything is allocated; at this size one dense
# relation between two automata (n x n bits) takes 32 MB.
MAX_STATES = 1 << 14


class ParseError(ValueError):
    """Input file rejected; carries the 1-based offending line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _alphabet_problem(symbols):
    """Why the symbols cannot be the alphabet of an automaton file, or None.
    An alphabet lists at least one symbol, each once; whitespace in a symbol
    would split it, ``#`` would start a comment and ``:`` would end it on
    its transition line."""
    if not symbols:
        return "alphabet must list at least one symbol"
    if len(set(symbols)) != len(symbols):
        return "duplicate alphabet symbol"
    for sym in symbols:
        bad = next((c for c in sym if c.isspace() or c in "#:"), None)
        if bad is not None:
            what = "whitespace" if bad.isspace() else repr(bad)
            return f"symbol {sym!r} may not contain {what}"
    return None


def _decimal(token: str) -> int:
    """The value of a run of ASCII decimal digits, or ValueError.  ``int``
    alone would also take a sign (``+0``, ``-0``), underscores between
    digits (``0_2``) and the decimal digits of other scripts, Arabic-Indic
    ones for instance."""
    if not (token.isascii() and token.isdecimal()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def _parse_state(token: str, n: int, source: str, lineno: int) -> int:
    try:
        value = _decimal(token)
    except ValueError:
        raise ParseError(source, lineno, f"expected a state index, got {token!r}")
    if not 0 <= value < n:
        raise ParseError(
            source, lineno, f"state index {value} out of range for {n} states"
        )
    return value


# The text after the colon of a transition line whose tokens are all
# ``src->dst`` in ASCII digits.  ``\s`` matches exactly where ``str.isspace``
# is true, so the tokens are the ones ``str.split`` finds.
_EDGE_LINE = re.compile(r"\s*(?:[0-9]+->[0-9]+(?:\s+|\Z))*")


def _transitions(rest: str, names: dict, source: str, lineno: int) -> list:
    """The states of a transition line, source and target alternating, from
    its text after the colon; ``names`` maps each state's plain decimal name
    to the state.

    A line is read in bulk: one match of ``_EDGE_LINE``, one split, and
    each number looked up in ``names``, which converts it and checks its
    range at once.  Any other line, one with a leading zero included, is
    read token by token, and the first bad token raises its ParseError.
    """
    if _EDGE_LINE.fullmatch(rest):
        try:
            return list(map(names.__getitem__, rest.replace("->", " ").split()))
        except KeyError:
            pass
    n = len(names)
    ends = []
    for token in rest.split():
        src, arrow, dst = token.partition("->")
        if arrow != "->":
            raise ParseError(
                source, lineno, f"bad transition {token!r}, expected src->dst"
            )
        ends += (_parse_state(src, n, source, lineno),
                 _parse_state(dst, n, source, lineno))
    return ends


def parse_nfa(text: str, source: str = "<string>") -> Nfa:
    """Parse the automaton text format; raises ParseError with a line number."""
    lines = list(_meaningful_lines(text))
    pos = 0

    def take(section: str):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(source, len(text.splitlines()) + 1,
                             f"missing section {section!r}")
        lineno, line = lines[pos]
        fields = line.split()
        if fields[0] != section:
            raise ParseError(
                source, lineno,
                f"expected section {section!r}, got {fields[0]!r}",
            )
        pos += 1
        return lineno, fields[1:]

    lineno, fields = take("states")
    if len(fields) != 1:
        raise ParseError(source, lineno, "states takes exactly one count")
    try:
        n = _decimal(fields[0])
    except ValueError:
        raise ParseError(source, lineno, f"bad state count {fields[0]!r}")
    if n < 1:
        raise ParseError(source, lineno, "state count must be at least 1")
    if n > MAX_STATES:
        raise ParseError(
            source, lineno, f"state count {n} exceeds the limit of {MAX_STATES}"
        )

    lineno, symbols = take("alphabet")
    problem = _alphabet_problem(symbols)
    if problem:
        raise ParseError(source, lineno, problem)

    lineno, fields = take("initial")
    initial = [_parse_state(tok, n, source, lineno) for tok in fields]
    lineno, fields = take("terminal")
    terminal = [_parse_state(tok, n, source, lineno) for tok in fields]

    transitions = {x: [] for x in symbols}
    seen = set()
    names = dict(zip(map(str, range(n)), range(n)))
    while pos < len(lines):
        lineno, line = lines[pos]
        pos += 1
        first = line.split()[0]
        if first in ("states", "alphabet", "initial", "terminal"):
            raise ParseError(source, lineno, f"duplicate section {first!r}")
        head, colon, rest = line.partition(":")
        head = head.strip()
        if not colon:
            raise ParseError(
                source, lineno, f"expected a transition line, got {line!r}"
            )
        if head not in transitions:
            raise ParseError(source, lineno, f"unknown symbol {head!r}")
        if head in seen:
            raise ParseError(
                source, lineno, f"duplicate transitions for symbol {head!r}"
            )
        seen.add(head)
        transitions[head] = _transitions(rest, names, source, lineno)

    sigma, tau = (sum(1 << q for q in set(states)) for states in (initial, terminal))
    return _from_edges(n, transitions, sigma, tau)


def format_nfa(a: Nfa) -> str:
    """Canonical text: symbols in declaration order, transitions sorted.

    Each symbol's line is written from the successor index, whose lists
    rise, with every state number looked up in one list of names, as
    ``format_dfa`` does.
    """
    names = list(map(str, range(a.n)))
    out = [f"states {a.n}"]
    out.append("alphabet " + " ".join(a.alphabet))
    out.append(
        "initial" + "".join(f" {q}" for q in a.sigma.indices())
    )
    out.append(
        "terminal" + "".join(f" {q}" for q in a.tau.indices())
    )
    for x, succ in zip(a.alphabet, _successors(a)):
        out.append(f"{x}:" + "".join(
            [f" {src}->{names[j]}" for src, row in zip(names, succ) for j in row]
        ))
    return "\n".join(out) + "\n"


def format_dfa(d: Dfa) -> str:
    """Deterministic automaton in the automaton format, each state carrying
    a ``subset:`` comment naming the source states it stands for.

    Every number is looked up in one list of names, so no member is
    converted with ``str`` again.  A subset with fewer members than an
    eighth of the source states lists them bit by bit; a denser one is read
    off its binary digits, one flag byte per digit, by ``compress``.
    """
    n = d.subset_of[0].n
    names = list(map(str, range(max(d.m, n))))
    flags = bytes.maketrans(b"01", b"\0\1")
    out = [f"states {d.m}"]
    out.append("alphabet " + " ".join(d.alphabet))
    out.append(f"initial {d.start}")
    out.append("terminal" + "".join(map(" {}".format, compress(names, d.final))))
    for q, v in enumerate(d.subset_of):
        if 8 * v.mask.bit_count() < n:
            members = [names[i] for i in _bit_indices(v.mask)]
        else:
            members = compress(names, f"{v.mask:b}"[::-1].encode().translate(flags))
        out.append(f"# subset: {q} = {' '.join(members) or '(empty)'}")
    for x, column in zip(d.alphabet, zip(*d.next)):
        out.append(f"{x}:" + "".join(map(" {}->{}".format, names, column)))
    return "\n".join(out) + "\n"


def parse_rel(text: str, source: str = "<string>") -> BoolRel:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(source, 1, "missing 'rows cols' header")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(source, lineno, "header must be 'rows cols'")
    try:
        rows, cols = _decimal(fields[0]), _decimal(fields[1])
    except ValueError:
        raise ParseError(source, lineno, f"bad header {header!r}")
    if rows < 1 or cols < 1:
        raise ParseError(source, lineno, "dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ParseError(source, lineno, f"expected {rows} rows, got {len(lines) - 1}")
    masks = []
    for lineno, line in lines[1:]:
        row = line.replace(" ", "")
        if len(row) != cols or set(row) - {"0", "1"}:
            raise ParseError(
                source, lineno, f"expected {cols} characters of 0/1, got {line!r}"
            )
        masks.append(int(row[::-1], 2))
    return BoolRel(rows, cols, masks)


def _load(path: str, parse):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte's line, counted by the line breaks that the parsers'
        # str.splitlines finds in the valid text before it.
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(
            path, line, f"not UTF-8 text: byte 0x{data[exc.start]:02x}, {exc.reason}"
        ) from None
    return parse(text, source=path)


_GREATEST = {
    "fb": greatest_forward_bisim,
    "bb": greatest_backward_bisim,
    "bfb": greatest_backward_forward_bisim,
    "fbb": greatest_forward_backward_bisim,
    "wfs": greatest_weak_forward_sim,
    "wfb": greatest_weak_forward_bisim,
    "wbb": greatest_weak_backward_bisim,
}


def _cmd_bisim(args) -> int:
    a = _load(args.left, parse_nfa)
    b = _load(args.right, parse_nfa)
    report = _GREATEST[args.kind](a, b)
    if report.relation is None:
        print("NONE")
        for name in report.failure:
            print(f"violated: {name}")
        return 1
    print(report.relation.to_text())
    for flag in report.flags:
        print(f"# flag: {flag}")
    return 0


def _cmd_check(args) -> int:
    a = _load(args.left, parse_nfa)
    b = _load(args.right, parse_nfa)
    phi = _load(args.relation, parse_rel)
    result = check(BisimKind(args.kind), a, b, phi)
    for name, holds in result.conditions:
        print(f"{'PASS' if holds else 'FAIL'} {name}")
    print("OK" if result.ok else "VIOLATED")
    return 0 if result.ok else 1


# A positive fb or wfb verdict carries the greatest relation, a negative
# lang verdict the separating word; the other verdicts carry no witness.
_EQUIV = {
    "fb": equivalence.fb_equivalent,
    "wfb": equivalence.wfb_equivalent,
    "lang": equivalence.language_equivalent,
}


def _cmd_equiv(args) -> int:
    a = _load(args.left, parse_nfa)
    b = _load(args.right, parse_nfa)
    verdict = _EQUIV[args.mode](a, b)
    if verdict.equivalent:
        print("EQUIVALENT")
        if verdict.witness is not None:
            print(verdict.witness.relation.to_text())
        return 0
    print("NOT-EQUIVALENT")
    if verdict.witness is not None:
        print(f"witness: {' '.join(verdict.witness) or 'eps'}")
    return 1


def _cmd_reduce(args) -> int:
    a = _load(args.automaton, parse_nfa)
    sys.stdout.write(format_nfa(equivalence.reduce(a, args.mode)))
    return 0


def _cmd_determinize(args) -> int:
    a = _load(args.automaton, parse_nfa)
    dfa = reverse_nerode(a) if args.reverse else nerode(a)
    sys.stdout.write(format_dfa(dfa))
    return 0


def _require_state_limit(n: int) -> None:
    # Checked before random_nfa draws its n x n bits per symbol.
    if n > MAX_STATES:
        raise ValueError(f"state count {n} exceeds the limit of {MAX_STATES}")


def _cmd_gen(args) -> int:
    symbols = [s for s in args.alphabet.split(",") if s]
    problem = _alphabet_problem(symbols)
    if problem:
        raise ValueError(problem)
    _require_state_limit(args.states)
    a = random_nfa(args.states, symbols, args.density, args.seed)
    sys.stdout.write(format_nfa(a))
    return 0


def _cmd_selftest(args) -> int:
    for option, value in (("--states", args.states), ("--trials", args.trials)):
        if value < 1:
            raise ValueError(f"{option} must be at least 1, got {value}")
    _require_state_limit(args.states)
    # Imported here so that no other command pays for loading the battery.
    from . import selftest

    return selftest.run(
        max_states=args.states,
        seed=args.seed,
        trials=args.trials,
        out=sys.stdout,
    )


# Built once per process: parse_args reads the parser and leaves it as it is.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfabisim",
        description="Bisimulation-based equivalence and reduction of NFAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bisim", help="greatest (bi)simulation between two automata")
    p.add_argument("--kind", required=True, choices=sorted(_GREATEST))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("check", help="test a relation against a definition")
    p.add_argument(
        "--kind", required=True, choices=[k.value for k in BisimKind]
    )
    p.add_argument("--relation", required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("equiv", help="decide equivalence of two automata")
    p.add_argument("--mode", required=True, choices=list(_EQUIV))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("reduce", help="factor out a greatest equivalence")
    p.add_argument(
        "--mode", required=True, choices=list(equivalence.REDUCTION_MODES)
    )
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("determinize", help="accessible subset construction")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("gen", help="seeded random automaton")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", default="x,y")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("selftest", help="randomized property suite")
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
