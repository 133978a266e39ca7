"""Shared fixtures: frozen matrix families used across the test modules.

Session scope amortizes certification costs; every fixture is fully
deterministic (fixed seeds, fixed parameters).
"""

import numpy as np
import pytest

from chamberflow.flag_boundary import _rotations
from chamberflow.linalg_core import GroupElement, project_to_sl, random_rotation
from chamberflow.loxodromy import classify
from chamberflow.schottky_dynamics import build_schottky


def rotation2(t: float) -> np.ndarray:
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rotation(direction: np.ndarray, t: float) -> np.ndarray:
    """exp(t * direction) for one skew-symmetric direction: the N = 1 case
    of flag_boundary._rotations."""
    return _rotations(direction[np.newaxis], np.asarray([t]))[0]


def conjugated(seed: int, diag) -> np.ndarray:
    """Frame-conjugated diagonal matrix, projected onto determinant 1."""
    h = random_rotation(np.random.default_rng(seed), 3)
    return project_to_sl(h @ np.diag(diag) @ h.T).entries


@pytest.fixture(scope="session")
def sl2_pair():
    """Two SL(2) hyperbolics with transverse axes (certifiable cubes)."""
    g1 = np.diag([9.0, 1 / 9.0])
    g2 = rotation2(np.pi / 4) @ g1 @ rotation2(np.pi / 4).T
    return classify(GroupElement(g1)), classify(GroupElement(g2))


@pytest.fixture(scope="session")
def sl3_triple():
    """Three conjugated SL(3) diagonals with moderate strength (certifiable
    squares whose product stays within double-precision dynamic range)."""
    diags = [
        [-16.0, -1.0, 1 / 16.0],
        [16.0, 1.0, 1 / 16.0],
        [16.0, 1.0, 1 / 16.0],
    ]
    return [classify(project_to_sl(conjugated(1635 + i, d))) for i, d in enumerate(diags)]


@pytest.fixture(scope="session")
def sign_family():
    """Strong SL(3) pair engineered so the two generators carry independent
    sign patterns: certifies at power 1, sign group of order 4."""
    a = conjugated(168, [-150.0, -1.0, 1 / 150.0])
    b = conjugated(169, [150.0, -1.0, -1 / 150.0])
    return build_schottky([a, b], 0.15, 0.15)


@pytest.fixture(scope="session")
def single_sign_family():
    """Strong SL(3) pair whose generators share one sign pattern: the sign
    group has order 2, so labels modulo it are nontrivial."""
    a = conjugated(168, [-150.0, -1.0, 1 / 150.0])
    b = conjugated(169, [-150.0, -1.0, 1 / 150.0])
    return build_schottky([a, b], 0.15, 0.15)


@pytest.fixture(scope="session")
def shared_lead_family():
    """Strong SL(3) pair whose sign patterns (-1, -1, 1) and (-1, 1, -1)
    are independent but share their first negative sign: the sign group is
    all of M, so every label modulo it is trivial."""
    a = conjugated(168, [-150.0, -1.0, 1 / 150.0])
    b = conjugated(169, [-150.0, 1.0, -1 / 150.0])
    return build_schottky([a, b], 0.15, 0.15)


@pytest.fixture(scope="session")
def cone_family():
    """Strong SL(3) pair with distinct Jordan directions, for cone and
    line-density experiments."""
    a = conjugated(168, list(np.exp([7.0, 2.0, -9.0])))
    b = conjugated(169, list(np.exp([9.0, -2.0, -7.0])))
    return build_schottky([a, b], 0.15, 0.15)


@pytest.fixture(scope="session")
def words_triple():
    """The `words` benchmark's three-generator SL(3) family: 540 necklaces
    up to length 7."""
    return build_schottky(
        [
            conjugated(1635, [20.0, 1.0, 1 / 20.0]),
            conjugated(1636, [16.0, 2.0, 1 / 32.0]),
            conjugated(1637, [18.0, 0.6, 1 / 10.8]),
        ],
        0.15,
        0.12,
    )
