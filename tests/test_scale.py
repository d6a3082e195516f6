"""The CLI at north-star scale: thousands of states, seconds per command.

Each case writes seeded inputs from ``bench.generators`` to a temporary
directory, runs one ``nfabisim`` command on them in a subprocess that fails
the case after 60 s, and checks its exit code and output.  ``bench`` is
imported from the repository root, which ``python -m pytest`` and a plain
``pytest`` run of the whole suite put on the path.
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import generators as gen

# pyproject's ``pythonpath`` reaches only pytest's own process.
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
))


def _alone(make):
    return lambda: {"a": make().to_text()}


def _with_copy(make, seed):
    """The automaton as ``a`` and its ``shuffled(Random(seed))`` copy as ``b``."""
    def inputs():
        a = make()
        copy, _ = gen.shuffled(random.Random(seed), a)
        return {"a": a.to_text(), "b": copy.to_text()}
    return inputs


def _sparse(n):
    return lambda: gen.sparse(random.Random(0), n, 2)


def _pooled():
    return gen.pooled(random.Random(2), 512, 2, 32)


def _rings(k):
    return lambda: gen.copies(random.Random(0), gen.ring(32), k)


def _sorted_and_shuffled():
    """sparse-16384 as written, and with each transition line's edges
    shuffled by one ``Random(1)``."""
    text = gen.sparse(random.Random(0), 16384, 2).to_text()
    rng = random.Random(1)
    lines = []
    for line in text.splitlines():
        head, colon, rest = line.partition(":")
        if colon:
            edges = rest.split()
            rng.shuffle(edges)
            line = head + ": " + " ".join(edges)
        lines.append(line)
    return {"sorted": text, "shuffled": "\n".join(lines) + "\n"}


def _malformed():
    head = "states 3\nalphabet a\ninitial 0\nterminal 2\n"
    return {"bad-arrow": head + "a: 0->1 1->->2\n",
            "bad-range": head + "\na: 0->1\t1->3\n"}


def _run(argv, paths):
    return subprocess.run(
        [sys.executable, "-m", "nfabisim.cli", *(arg.format(**paths) for arg in argv)],
        capture_output=True, env=_ENV, timeout=60,
    )


def _rows(count):
    def check(done, paths):
        assert (done.returncode, done.stdout.count(b"\n")) == (0, count)
    return check


def _permutation(count):
    """Exit 0 and ``count`` rows that each hold exactly one ``1``, each in
    a column of its own."""
    def check(done, paths):
        rows = done.stdout.splitlines()
        assert (done.returncode, len(rows)) == (0, count)
        assert all(row.count(b"1") == 1 for row in rows)
        assert len({row.index(b"1") for row in rows}) == count
    return check


def _first(line):
    def check(done, paths):
        assert (done.returncode, done.stdout.split(b"\n", 1)[0]) == (0, line.encode())
    return check


def _same_as(*argv):
    """Exit 0, and stdout byte-equal to that of the sibling run ``argv``."""
    def check(done, paths):
        sibling = _run(argv, paths)
        assert (done.returncode, sibling.returncode) == (0, 0)
        assert done.stdout == sibling.stdout
    return check


def _error(name, line):
    """Exit 2 and one stderr line naming the file and line."""
    def check(done, paths):
        assert done.returncode == 2
        assert done.stderr.count(b"\n") == 1
        assert re.match(f"error: {re.escape(paths[name])}:{line}: ".encode(), done.stderr)
    return check


CASES = [
    # A ring or a chain against a relabelled copy: after round 0 each pass
    # propagates one row's removed pairs, on the stepping symbol only (b only
    # loops, so it stops after round 0), about two union calls per state.
    # The greatest bfb is the relabelling.
    *((name, _with_copy(lambda make=make: make(2048), 0),
       ["bisim", "--kind", "bfb", "{a}", "{b}"], _permutation(2048))
      for name, make in (("deep-bfb", gen.ring), ("deep-bfb-chain", gen.chain))),
    # Round 0 takes each union of phi_0's few distinct rows once; the next
    # rounds re-test the rows above and below nearly every row.
    ("wide-bfb", _with_copy(_sparse(2048), 1),
     ["bisim", "--kind", "bfb", "{a}", "{b}"], _rows(2048)),
    # A chain takes about n fb rounds; each reduction step refines the chain,
    # or its reversal, to stability with no relation per round.  Nothing
    # merges, so each reduction keeps every state.
    ("deep-fb-equiv", _with_copy(lambda: gen.chain(2048), 0),
     ["equiv", "--mode", "fb", "{a}", "{b}"], _first("EQUIVALENT")),
    ("deep-fb-reduce-alternate", _alone(lambda: gen.chain(2048)),
     ["reduce", "--mode", "alternate", "{a}"], _first("states 2048")),
    *((f"deep-fb-reduce-8192-{mode}", _alone(lambda: gen.chain(8192)),
       ["reduce", "--mode", mode, "{a}"], _first("states 8192"))
      for mode in ("alternate", "bb")),
    # A few fb rounds that each key every state, where the deep cases key
    # only the predecessors of the states the round before moved.
    ("wide-fb-equiv", _with_copy(_sparse(2048), 1),
     ["equiv", "--mode", "fb", "{a}", "{b}"], _first("EQUIVALENT")),
    # The exact language decider walks the subsets of both sides, stepping
    # each with one union over the packed successor rows, read a byte at a
    # time; at 1024 states a loop that shifted the subset once per 4 states
    # took twice as long.  The pooled automaton determinizes to a few hundred
    # dense subsets, each printed member by member.
    *((f"subset-lang-{n}", _with_copy(_sparse(n), 1),
       ["equiv", "--mode", "lang", "{a}", "{b}"], _first("EQUIVALENT"))
      for n in (512, 1024)),
    ("subset-determinize", _alone(_pooled),
     ["determinize", "{a}"], _first("states 574")),
    # The weak relations read the terminal (wfb) or initial (wbb) vectors the
    # subset search reaches and transpose them into per-state signatures.
    ("weak-wfb", _with_copy(_pooled, 1),
     ["equiv", "--mode", "wfb", "{a}", "{b}"], _first("EQUIVALENT")),
    ("weak-wbb", _with_copy(_pooled, 1),
     ["bisim", "--kind", "wbb", "{a}", "{b}"], _rows(512)),
    # 256 ring copies collapse to one ring: a coarse relation, checked by
    # grouping equal rows, whose factors one successor refinement matches.
    *((f"collapse-reduce-{mode}", _alone(_rings(256)),
       ["reduce", "--mode", mode, "{a}"], _first("states 32"))
      for mode in ("fb", "alternate")),
    ("collapse-equiv", _with_copy(_rings(64), 1),
     ["equiv", "--mode", "fb", "{a}", "{b}"], _first("EQUIVALENT")),
    # The parser sorts a line whose edges come out of order into the
    # successor index that reversal, quotient and printing read, so sorted
    # and shuffled edges reduce to the same bytes.
    *((f"parse-shuffled-{mode}", _sorted_and_shuffled,
       ["reduce", "--mode", mode, "{sorted}"],
       _same_as("reduce", "--mode", mode, "{shuffled}"))
      for mode in ("fb", "alternate")),
    # A malformed line is read again token by token and names file and line.
    *((f"parse-{name}", _malformed, ["reduce", "--mode", "fb", f"{{{name}}}"],
       _error(name, line))
      for name, line in (("bad-arrow", 5), ("bad-range", 6))),
]


@pytest.mark.parametrize("inputs, argv, check",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_scale(tmp_path, inputs, argv, check):
    paths = {}
    for name, text in inputs().items():
        paths[name] = str(tmp_path / f"{name}.nfa")
        Path(paths[name]).write_text(text)
    check(_run(argv, paths), paths)
