"""BENCHMARK.json's per-layer metrics name program functions that the bench
tracer wraps by name from outside the program; each must stay where the
tracer looks for it."""

import importlib
import inspect
import json
import os

# The modules the tracer wraps, by the short names the metrics use.
MODULES = {
    short: importlib.import_module(f"nfabisim.{short}")
    for short in ("relcalc", "automaton", "bisim", "equivalence", "nerode", "cli")
}
BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def test_per_layer_metrics_name_public_functions():
    # A metric <module>.<function>.<stat> reads the spans of a function in
    # the module's __all__ and defined there; Partition.from_relation is
    # wrapped as a classmethod.
    with open(BENCHMARK, encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]]
    traced = {
        tuple(name.split(".")[:2]) for name in names
        if name.count(".") == 2 and name.split(".")[0] in MODULES
    }
    assert len(traced) >= 20
    missing = []
    for module, function in sorted(traced):
        mod = MODULES[module]
        obj = getattr(mod, function, None)
        if not (
            function in mod.__all__
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        ):
            missing.append(f"{module}.{function}")
    assert missing == []
    assert "relcalc.Partition.from_relation.self_s" in names
    partition = MODULES["relcalc"].Partition
    assert isinstance(partition.__dict__["from_relation"], classmethod)
