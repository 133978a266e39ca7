"""The benchmark's per-layer metrics look library functions up by name;
a rename that drops one of them must fail here, not in the benchmark."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from chamberflow.torus_density import TorusPoint, _generated_group

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_function_names_exist():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    function_level = [name.split(".") for name in names if name.count(".") == 2]
    assert function_level
    for module_name, function_name, _ in function_level:
        module = importlib.import_module(f"chamberflow.{module_name}")
        assert inspect.isfunction(getattr(module, function_name, None)), (
            f"{module_name}.{function_name} is not a function"
        )


def test_traced_private_hooks_exist():
    extra = _tracing().EXTRA
    assert extra
    for module_name, function_names in extra.items():
        module = importlib.import_module(f"chamberflow.{module_name}")
        for function_name in function_names:
            function = getattr(module, function_name, None)
            assert inspect.isfunction(function) and function.__module__ == module.__name__, (
                f"{module_name}.{function_name} is not a function of its module"
            )


def test_generated_group_returns_equal_length_points_and_coeffs():
    # the benchmark counts torus_density.points as len(result[0])
    gens = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2.0)], [0.5])]
    points, coeffs = _generated_group(gens, np.array([[-1.0, 1.0]]), 1, 0.1, 1000)
    assert len(points) == len(coeffs) > 1
