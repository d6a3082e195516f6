"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces every binding of a traced function in every
``nfabisim`` module namespace (module attributes and the function tables
modules keep in dicts) with a wrapper that records a span; ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited, and when the
tracer is not installed the program runs exactly as shipped.

A span is (id, name, start, end, parent id, case, ok); ids count up in
order of span start, and a root span has parent -1.  Self time is a span's
duration minus the time its child spans cover; the program is single
threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("relcalc", "automaton", "bisim", "equivalence", "nerode", "cli")


def _left_bits(counts, args, result):
    counts["left_bits"] += sum(m.bit_count() for m in args[0].row_masks)


def _fixpoint(counts, args, result):
    rounds = len(result) - 1
    first, last = result[0], result[-1]
    counts["rounds"] += rounds
    counts["pairs_removed"] += first.count() - last.count()
    counts["pair_rounds"] += rounds * first.rows * first.cols


def _pairs(counts, args, result):
    counts["pairs"] += len(result)


def _states(counts, args, result):
    counts["states_in"] += args[0].n
    counts["states_out"] += result.n


def _dfa_states(counts, args, result):
    counts["dfa_states"] += result.m


def _bytes_in(counts, args, result):
    counts["bytes"] += len(args[0])


def _bytes_out(counts, args, result):
    counts["bytes"] += len(result)


_FIXPOINT_KEYS = ("rounds", "pairs_removed", "pair_rounds")
# Counters recorded at span end, next to the span they describe, with the
# names each one records.
COUNTERS = {
    "relcalc.compose": (_left_bits, ("left_bits",)),
    "bisim.forward_bisim_steps": (_fixpoint, _FIXPOINT_KEYS),
    "bisim.backward_forward_bisim_steps": (_fixpoint, _FIXPOINT_KEYS),
    "bisim.reachable_terminal_pairs": (_pairs, ("pairs",)),
    "automaton.factor": (_states, ("states_in", "states_out")),
    "equivalence.reduce": (_states, ("states_in", "states_out")),
    "nerode.nerode": (_dfa_states, ("dfa_states",)),
    "nerode.reverse_nerode": (_dfa_states, ("dfa_states",)),
    "cli.parse_nfa": (_bytes_in, ("bytes",)),
    "cli.format_dfa": (_bytes_out, ("bytes",)),
}


class Stat:
    """Calls, failed calls, inclusive and self time, and counters of one
    traced function."""

    __slots__ = ("calls", "failed", "total_s", "self_s", "counts")

    def __init__(self, counters=()):
        self.calls = self.failed = 0
        self.total_s = self.self_s = 0.0
        self.counts = Counter(dict.fromkeys(counters, 0))


class Tracer:
    """Records spans around the public functions of the ``nfabisim`` modules.

    ``stats`` aggregates every span as it closes, afresh on each
    ``install``; ``spans`` keeps the first ``keep`` spans for writing out.
    Set ``case`` before each case so its spans carry the case id.
    """

    def __init__(self, package, keep=200_000):
        self._names = {}
        self._package = package.__name__
        for short in MODULES:
            module = sys.modules[f"{self._package}.{short}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._names[id(obj)] = (obj, f"{short}.{name}")
        self._partition = sys.modules[f"{self._package}.relcalc"].Partition
        self._patches = []
        self._stack = []
        self.keep = keep
        self.next_id = 0
        self.spans = []
        self.stats = {}
        self.case = None

    def _wrap(self, func, name):
        counter, keys = COUNTERS.get(name, (None, ()))
        stat = self.stats.setdefault(name, Stat(keys))
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not ok:
                    stat.failed += 1
                if span_id < tracer.keep:
                    spans.append((span_id, name, start, end, parent, tracer.case, ok))
            if counter is not None:
                counter(stat.counts, args, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.stats = {}
        wrappers = {}

        def wrapped(obj):
            entry = self._names.get(id(obj))
            if entry is None or entry[0] is not obj:
                return None
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(obj, entry[1])
            return wrappers[id(obj)]

        for mod_name, module in list(sys.modules.items()):
            if mod_name != self._package and not mod_name.startswith(
                self._package + "."
            ):
                continue
            for key, value in list(vars(module).items()):
                wrapper = wrapped(value)
                if wrapper is not None:
                    self._patches.append((module, key, value, setattr))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        wrapper = wrapped(v)
                        if wrapper is not None:
                            self._patches.append((value, k, v, dict.__setitem__))
                            value[k] = wrapper
        original = self._partition.__dict__["from_relation"]
        self._patches.append(
            (self._partition, "from_relation", original, setattr)
        )
        self._partition.from_relation = classmethod(
            self._wrap(original.__func__, "relcalc.Partition.from_relation")
        )

    def uninstall(self):
        for target, key, value, put in reversed(self._patches):
            put(target, key, value)
        self._patches.clear()
