"""The benchmark's per-layer metrics look library functions up by name,
and its checks read library results by attribute; a rename or a type
change that drops one of them must fail here, not in the benchmark."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from chamberflow import schottky_dynamics
from chamberflow.schottky_dynamics import limit_cone, stable_word_lambdas
from chamberflow.errors import NotDenseAtBudget
from chamberflow.torus_density import (
    TorusPoint,
    _generated_group,
    select_dense_subgroup_generators,
    semigroup_cone_density,
)

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


def test_density_certificates_support_the_density_reads():
    # the density check reads cert.covered and len(cert.centers), its
    # fingerprint len(cert.points), and a refusal's certificate is read as
    # NotDenseAtBudget.certificate
    pair = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2.0)], [(np.sqrt(5.0) - 1.0) / 2.0])]
    certs = [
        select_dense_subgroup_generators(pair, 0.1, [(-1.0, 1.0)]),
        semigroup_cone_density(pair, 0.1, [(0.0, 3.0)])[1],
    ]
    with pytest.raises(NotDenseAtBudget) as exc:
        select_dense_subgroup_generators([TorusPoint([1.0], [0.0])], 0.1, [(-1.0, 1.0)])
    certs.append(exc.value.certificate)
    assert [cert.covered for cert in certs] == [True, True, False]
    for cert in certs:
        assert isinstance(cert.covered, bool)
        assert len(cert.points) > 1 and len(cert.centers) > 1


def test_stable_word_lambdas_returns_one_row_per_word(cone_family):
    # the tracer wraps only public functions of their own module, and it
    # counts schottky_dynamics.stable_word_lambdas.words as len(result[0])
    function = schottky_dynamics.stable_word_lambdas
    assert inspect.isfunction(function) and function.__module__ == schottky_dynamics.__name__
    counter = _tracing().COUNTERS["schottky_dynamics.stable_word_lambdas.words"]
    assert counter[0] == "schottky_dynamics.stable_word_lambdas"
    mats = [L.g.entries for L in cone_family.generators]
    for length in (1, 3, 5):
        assert len(stable_word_lambdas(mats, length)[0]) == len(mats) ** length


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
