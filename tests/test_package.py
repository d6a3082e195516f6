"""The package exports the public names of its library modules, and no other."""

import importlib
import inspect

import nfabisim

LIBRARY = ("relcalc", "automaton", "bisim", "equivalence", "nerode")


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
