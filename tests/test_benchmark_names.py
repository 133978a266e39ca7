"""The benchmark's per-layer metrics look library functions up by name,
and its checks read library results by attribute; a rename or a type
change that drops one of them must fail here, not in the benchmark."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from chamberflow.schottky_dynamics import limit_cone
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


def test_cone_estimate_supports_the_words_reads(cone_family):
    # the words check reads len(cone.rays) and cone.rays[i].coords, and its
    # fingerprint reads cone.hull[i].coords
    cone = limit_cone(cone_family, 3)
    n = cone_family.generators[0].g.n
    assert len(cone.rays) == 2 + 4 + 8
    for i in (0, 5, len(cone.rays) - 1):
        ray = cone.rays[i].coords
        assert isinstance(ray, np.ndarray) and ray.dtype == float and ray.shape == (n,)
    assert all(ray.coords.shape == (n,) for ray in cone.rays)
    assert cone.hull
    for h in cone.hull:
        assert isinstance(h.coords, np.ndarray) and h.coords.shape == (n,)
