"""The benchmark's per-layer metrics look library functions up by name;
a rename that drops one of them must fail here, not in the benchmark."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_function_names_exist():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    function_level = [name.split(".") for name in names if name.count(".") == 2]
    assert function_level
    for module_name, function_name, _ in function_level:
        module = importlib.import_module(f"chamberflow.{module_name}")
        assert inspect.isfunction(getattr(module, function_name, None)), (
            f"{module_name}.{function_name} is not a function"
        )
