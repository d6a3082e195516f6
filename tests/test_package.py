"""The package exports the public names of its library modules, and no other;
importing the CLI loads no module that no command needs; and the result
records keep the semantics of frozen dataclasses."""

import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys

import pytest

import nfabisim
from nfabisim.bisim import BisimKind, BisimReport, CheckResult
from nfabisim.equivalence import EquivVerdict, EquivWitness, UniformCrosscheck
from nfabisim.relcalc import BoolRel, Partition, _Record

LIBRARY = ("relcalc", "automaton", "bisim", "equivalence", "nerode")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_package_exports_exactly_the_modules_all():
    expected = {}
    for short in LIBRARY:
        module = importlib.import_module(f"nfabisim.{short}")
        for name in module.__all__:
            assert name not in expected, f"{name} is exported by two modules"
            expected[name] = getattr(module, name)
    public = {
        name: obj
        for name, obj in vars(nfabisim).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(public) == sorted(expected)
    for name, obj in expected.items():
        assert public[name] is obj, name


# Run in a fresh interpreter: prints which of the modules no command needs
# are loaded after importing the CLI, then whether the selftest battery is
# loaded after its command ran.
_COLD_START = """
import sys
import nfabisim.cli
print([m for m in ("dataclasses", "inspect", "nfabisim.selftest") if m in sys.modules])
code = nfabisim.cli.main(["selftest", "--states", "3", "--trials", "1", "--seed", "0"])
print(code, "nfabisim.selftest" in sys.modules)
"""


def test_cli_import_loads_only_what_every_command_needs():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 True"


_REL = BoolRel(2, 2, [0b01, 0b10])

# Each record type, the values of its required fields, and its defaults.
_RECORDS = [
    (CheckResult, (BisimKind.FORWARD_BISIM, True, (("fb-1", True),)), {}),
    (BisimReport, (BisimKind.BACKWARD_BISIM, _REL, 3), {"failure": None, "flags": ()}),
    (EquivWitness, (_REL, (0, 1), Partition([0, 1]), Partition([0, 1])), {}),
    (EquivVerdict, (True, "fb"), {"witness": None}),
    (UniformCrosscheck, (True, False, True, (("ker", True),), False), {}),
]


@pytest.mark.parametrize(
    "cls, required, defaults", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_result_records_keep_frozen_dataclass_semantics(cls, required, defaults):
    fields = cls.__slots__
    assert fields == tuple(cls.__annotations__)
    values = dict(zip(fields, required)) | defaults
    assert tuple(values) == fields

    # Positional and keyword construction, with the defaults filled in.
    record = cls(*required)
    assert [getattr(record, name) for name in fields] == list(values.values())
    assert record == cls(**dict(zip(fields, required))) == cls(**values)
    assert record == cls(*values.values())
    assert hash(record) == hash(cls(*values.values()))
    for args, kwargs in [
        (required[:-1], {}),
        ((*values.values(), None), {}),
        (required, {"unknown": 1}),
        (required, {fields[0]: required[0]}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    # Equal by type and fields.
    other = object()
    assert record != cls(*required[:-1], other)
    assert record != tuple(values.values())
    twin = type(cls.__name__, (_Record,), {"__slots__": fields, "_defaults": defaults})
    assert record != twin(*required)

    # Immutable: no field may be set, added or deleted.
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert [getattr(record, name) for name in fields] == list(values.values())

    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()
    ) + ")"
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_only_checks_and_verdicts_read_false():
    kind = BisimKind.FORWARD_BISIM
    assert CheckResult(kind, True, ()) and not CheckResult(kind, False, ())
    assert EquivVerdict(True, "lang") and not EquivVerdict(False, "lang")
    # A report, witness or cross-check is true whatever it holds.
    assert BisimReport(kind, None, 0, failure=())
    assert EquivWitness(_REL, (), Partition([0]), Partition([0]))
    assert UniformCrosscheck(False, False, False, (), False)
