"""Everything ``src/nfabisim`` defines runs under a command or ``selftest``.

The CLI runs in-process under ``sys.setprofile`` on the golden files: every
command and mode, one malformed file, and a short ``selftest``.  Each module
function, and each non-dunder method, classmethod, staticmethod and
property getter of a class a module defines, must have been entered.  The
only exceptions are ``ALLOWED``, each with the reason it stays.
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys

import nfabisim
from nfabisim import bisim, cli, equivalence

DATA = os.path.join(os.path.dirname(__file__), "data")

MODULES = [
    importlib.import_module(f"nfabisim.{info.name}")
    for info in pkgutil.iter_modules(nfabisim.__path__)
]

# Members no command runs, each with the reason it stays.
ALLOWED = {
    "relcalc.BoolRel.count": "bench/spans.py counts the pairs a fixpoint removes",
    "relcalc.residual_right": "BENCHMARK.json names it in a per-layer metric",
    "relcalc.residual_left": "BENCHMARK.json names it in a per-layer metric",
    "relcalc._complement": "the two residuals call it",
    "relcalc.BoolVec.bits": "__repr__ calls it",
    "relcalc.BoolVec.to_text": "__str__ calls it",
    "relcalc.BoolRel.bits": "__repr__ calls it",
}


def _data(name):
    return os.path.join(DATA, name)


PAIRS = (("fwd_a", "fwd_b"), ("weak_a", "weak_b"), ("lang_a", "lang_b"))

# A negative lang verdict with witness eps (weak_a vs weak_a_mod) reaches
# the re-check through Nfa.word, sigma_u and accepts.
EQUIV_PAIRS = PAIRS + (("weak_a", "weak_a_mod"),)


def _runs(malformed):
    for left, right in PAIRS:
        for kind in sorted(cli._GREATEST):
            yield ["bisim", "--kind", kind, _data(f"{left}.nfa"), _data(f"{right}.nfa")]
    for kind in bisim.BisimKind:
        yield [
            "check", "--kind", kind.value, "--relation", _data("fwd_phi1.rel"),
            _data("fwd_a.nfa"), _data("fwd_b.nfa"),
        ]
    for left, right in EQUIV_PAIRS:
        for mode in cli._EQUIV:
            yield ["equiv", "--mode", mode, _data(f"{left}.nfa"), _data(f"{right}.nfa")]
    for mode in equivalence.REDUCTION_MODES:
        yield ["reduce", "--mode", mode, _data("fwd_b.nfa")]
    yield ["determinize", _data("lang_a.nfa")]
    yield ["determinize", "--reverse", _data("lang_a.nfa")]
    yield ["gen", "--states", "4", "--seed", "1"]
    yield ["reduce", "--mode", "fb", malformed]
    yield ["selftest", "--states", "4", "--seed", "0", "--trials", "25"]


def _defined(module):
    """(name, code) of every function the module defines and of every
    non-dunder method, classmethod, staticmethod and property getter of the
    classes it defines."""
    short = module.__name__.rsplit(".", 1)[1]

    def code(obj):
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        obj = inspect.unwrap(obj) if callable(obj) else None
        if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            return obj.__code__
        return None

    out = []
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            members = [
                (f"{short}.{name}.{attr}", member)
                for attr, member in vars(obj).items()
                if not attr.startswith("__")
            ]
        else:
            members = [(f"{short}.{name}", obj)]
        out += [(label, c) for label, member in members if (c := code(member))]
    return out


def test_every_src_function_and_method_runs_under_a_command(tmp_path):
    malformed = tmp_path / "malformed.nfa"
    malformed.write_text("states 2\nalphabet x\ninitial 9\nterminal\n")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # The parser is cached per process; clear it so its builder runs here.
    cli._build_parser.cache_clear()
    codes = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in _runs(str(malformed)):
            sys.setprofile(profile)
            try:
                codes[tuple(argv)] = cli.main(argv)
            finally:
                sys.setprofile(None)
    assert codes[("reduce", "--mode", "fb", str(malformed))] == 2
    assert 3 not in codes.values()

    defined = [entry for module in MODULES for entry in _defined(module)]
    names = {name for name, _ in defined}
    assert set(ALLOWED) <= names
    never = sorted(
        name for name, code in defined if code not in entered and name not in ALLOWED
    )
    assert never == []
    stale = sorted(name for name, code in defined if code in entered and name in ALLOWED)
    assert stale == []

