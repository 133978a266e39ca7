import numpy as np
import pytest

from chamberflow.errors import BudgetExceeded, CertificationFailure, HypothesisViolated, NotLoxodromic
from chamberflow.flag_boundary import (
    Flag,
    boundary_margin_estimate,
    flag_distance,
    flags_equal,
    opposite_flag,
    standard_flag,
)
from chamberflow.linalg_core import GroupElement, am_distance, random_rotation
from chamberflow.loxodromy import (
    certify_r_eps,
    classify,
    cocycle_via_jordan,
    delta_r_eps,
    extended_jordan,
    power,
    product_estimate,
    ratio,
    ratio_at,
    _sample_k_r,
)
from chamberflow.sections_cocycles import cocycle, compact_section

from conftest import rotation2


def test_classify_diagonal_element():
    L = classify(GroupElement(np.diag([4.0, 1.0, 0.25])))
    assert np.allclose(L.lam.coords, [np.log(4.0), 0.0, -np.log(4.0)])
    assert flags_equal(L.attracting, standard_flag(3))
    assert flags_equal(L.repelling, opposite_flag(3))
    assert L.gap == pytest.approx(np.log(4.0))


def test_classify_rejects_equal_moduli():
    theta = 0.4
    with pytest.raises(NotLoxodromic):
        classify(GroupElement(rotation2(theta)))
    unipotent = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotLoxodromic):
        classify(GroupElement(unipotent))


def test_power_scales_jordan_and_keeps_flags():
    L = classify(GroupElement(np.diag([3.0, 1.0, 1 / 3.0])))
    L2 = power(L, 2)
    assert np.allclose(L2.lam.coords, 2 * L.lam.coords)
    assert flags_equal(L2.attracting, L.attracting)
    assert flags_equal(L2.repelling, L.repelling)


def test_extended_jordan_a_part_is_jordan_projection():
    rng = np.random.default_rng(0)
    h = random_rotation(rng, 3)
    L = classify(GroupElement(h @ np.diag([3.0, 1.0, 1 / 3.0]) @ h.T))
    s = compact_section(L.repelling)
    lox = extended_jordan(s, L)
    assert np.abs(lox.a.coords - L.lam.coords).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_exact_cocycle_formula_all_sizes(n):
    rng = np.random.default_rng(n)
    h = random_rotation(rng, n)
    logs = np.linspace(1.0, -1.0, n)
    logs -= logs.mean()
    L = classify(GroupElement(h @ np.diag(np.exp(logs)) @ h.T))
    xi = Flag(random_rotation(rng, n))
    s0 = compact_section(L.repelling)
    s1 = compact_section(L.repelling)
    s2 = compact_section(L.repelling)
    via_formula = cocycle_via_jordan(L, 3, xi, s0, s1, s2)
    direct = cocycle(s2, s0, power(L, 3).g, xi)
    assert am_distance(via_formula, direct) < 1e-8


def test_ratio_reduces_to_transition_chain():
    rng = np.random.default_rng(1)
    h = random_rotation(rng, 2)
    L = classify(GroupElement(h @ np.diag([5.0, 0.2]) @ h.T))
    s = compact_section(L.repelling)
    xi = Flag(random_rotation(rng, 2))
    value = ratio_at(s, s, L, xi)
    same = ratio(s, s, L.repelling, L.attracting, xi)
    assert am_distance(value, same) < 1e-12


def test_certification_of_strong_contraction():
    L = classify(GroupElement(np.diag([100.0, 0.01])))
    cert = certify_r_eps(L, 0.3, 0.3)
    assert cert.lipschitz_bound <= 0.3
    assert cert.samples >= 100
    # powers inherit the certificate parameters
    certify_r_eps(power(L, 2), 0.3, 0.3)


def test_certification_fails_for_weak_contraction():
    L = classify(GroupElement(np.diag([9.0, 1 / 9.0])))
    with pytest.raises(CertificationFailure):
        certify_r_eps(L, 0.2, 0.05)


def test_certification_parameter_validation():
    L = classify(GroupElement(np.diag([100.0, 0.01])))
    with pytest.raises(ValueError):
        certify_r_eps(L, 0.1, 0.3)  # eps > r
    with pytest.raises(ValueError):
        certify_r_eps(L, 0.3, 0.3, grid=50)  # under-resolved grid


def test_equicontinuity_estimate_is_deterministic():
    d1 = delta_r_eps(0.3, 0.2, mc_samples=50, seed=7, n=2)
    d2 = delta_r_eps(0.3, 0.2, mc_samples=50, seed=7, n=2)
    assert d1 == d2
    assert d1 > 0.0


def test_equicontinuity_estimate_budget():
    # every flag lies within 2 < 3r = 2.1 of the cell boundary, so no xi1 qualifies
    with pytest.raises(BudgetExceeded, match="accepted 0 of 500 draws"):
        delta_r_eps(0.7, 0.1, mc_samples=5, seed=0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [0.05, 0.3])
def test_k_r_draws_keep_the_boundary_neighbourhood(n, r):
    """A draw moves a flag by at most r/2, so a flag within r of the boundary
    of b(opposite flag) stays within 1.5r of it."""
    rng = np.random.default_rng(100 * n + int(100 * r))
    check = opposite_flag(n)
    near = []
    for _ in range(20000):
        xi = Flag(random_rotation(rng, n))
        if boundary_margin_estimate(xi, check) <= r:
            near.append(xi)
            if len(near) == 12:
                break
    assert len(near) == 12
    for _ in range(12):
        h = _sample_k_r(rng, n, r)
        for xi in near:
            moved = Flag(h @ xi.rep)
            assert flag_distance(moved, xi) <= 0.5 * r + 1e-12
            assert boundary_margin_estimate(moved, check) <= 1.5 * r + 1e-12


def test_product_estimate_rejects_basepoint_near_boundary(sl2_pair):
    L1, L2 = sl2_pair
    s = compact_section(L1.repelling)
    sections = [s, s, compact_section(L2.repelling)]
    with pytest.raises(HypothesisViolated):
        # basepoint on the repelling flag itself violates the thickness rule
        product_estimate([L1, L2], [3, 3], L1.repelling, sections, 0.18, 0.16, 0.5)


def test_product_estimate_rejects_oversized_r(sl2_pair):
    L1, L2 = sl2_pair
    s = compact_section(L1.repelling)
    sections = [s, s, compact_section(L2.repelling)]
    with pytest.raises(HypothesisViolated):
        product_estimate([L1, L2], [3, 3], L2.attracting, sections, 10.0, 0.16, 0.5)
