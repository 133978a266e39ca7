import numpy as np
import pytest

from chamberflow.errors import OutOfDomain
from chamberflow.flag_boundary import (
    Flag,
    _rotation,
    _so_directions,
    act,
    boundary_margin_estimate,
    flag_of,
    flags_equal,
    is_transverse,
    opposite_flag,
    standard_flag,
)
from chamberflow.linalg_core import (
    AMElement,
    CartanVector,
    Config,
    GroupElement,
    SignVector,
    am_distance,
    random_group_element,
    random_rotation,
)
from chamberflow.sections_cocycles import (
    best_section,
    cocycle,
    compact_section,
    covering_family,
    eval_section,
    from_bh,
    iwasawa_cocycle,
    permutation_flag,
    to_bh,
    transition,
    unipotent_section,
)


def _random_flag(rng, n):
    return Flag(random_rotation(rng, n))


def _section_through(rng, n, *points):
    while True:
        base = _random_flag(rng, n)
        if all(is_transverse(p, base) for p in points):
            return compact_section(base)


def test_section_evaluates_to_a_representative_of_the_flag():
    rng = np.random.default_rng(0)
    base = _random_flag(rng, 3)
    s = compact_section(base)
    xi = _random_flag(rng, 3)
    if not is_transverse(xi, base):
        return
    rep = eval_section(s, xi)
    assert flags_equal(flag_of(rep), xi)


def test_unipotent_section_rejects_points_outside_its_cell():
    s = unipotent_section(standard_flag(3))
    with pytest.raises(OutOfDomain):
        eval_section(s, standard_flag(3))


def test_transition_chasles_and_inverse():
    rng = np.random.default_rng(1)
    xi = _random_flag(rng, 3)
    s1, s2, s3 = (_section_through(rng, 3, xi) for _ in range(3))
    direct = transition(s3, s1, xi)
    composed = transition(s3, s2, xi) * transition(s2, s1, xi)
    assert am_distance(direct, composed) < 1e-8
    assert am_distance(transition(s1, s2, xi), transition(s2, s1, xi).inv()) < 1e-8
    assert am_distance(transition(s1, s1, xi), AMElement.identity(3)) < 1e-12


def _random_am(rng, n):
    signs = rng.choice([-1, 1], size=n)
    signs[-1] = np.prod(signs[:-1])
    return AMElement(CartanVector(rng.uniform(-1.0, 1.0, size=n)), SignVector(signs))


def _verdict_and_value(f):
    try:
        return True, f()
    except OutOfDomain:
        return False, None


def test_transition_is_the_cocycle_at_the_identity():
    # T_{s,s'}(xi) = beta_{s,s'}(e, xi): one AM-part reader, one domain
    rng = np.random.default_rng(12)
    e = GroupElement(np.eye(3))
    kinds = (unipotent_section, compact_section)
    for i in range(40):
        xi = _random_flag(rng, 3)
        s, s2 = (
            kinds[(i >> k) & 1](_random_flag(rng, 3)).with_offset(_random_am(rng, 3)) for k in (0, 1)
        )
        inside, t = _verdict_and_value(lambda: transition(s, s2, xi))
        inside_beta, beta = _verdict_and_value(lambda: cocycle(s, s2, e, xi))
        assert inside_beta == inside
        if inside:
            assert am_distance(t, beta) < 1e-12
    # xi close to the boundary of a unipotent chart: the comparison matrix
    # has entries up to 3e3, a diagonal down to 1e-4 and a strict lower part
    # of 5e-11, so it is in (AM)N under the relative AM_PART_TOL test and
    # transition accepts it as cocycle does, although the orthogonal factor
    # of its QR is 4e-7 off diagonal
    rng = np.random.default_rng(0)
    base, other = _random_flag(rng, 3), _random_flag(rng, 3)
    s, s2 = unipotent_section(base), unipotent_section(other)
    xi = Flag(_rotation(_so_directions(3, 3)[0], 5e-4) @ base.rep)
    t = transition(s, s2, xi)
    assert am_distance(t, cocycle(s, s2, e, xi)) < 1e-9


def test_cocycle_relation():
    rng = np.random.default_rng(2)
    g, h = random_group_element(rng, 3), random_group_element(rng, 3)
    xi = _random_flag(rng, 3)
    hxi = act(h, xi)
    ghxi = act(g, hxi)
    s0 = _section_through(rng, 3, xi)
    s1 = _section_through(rng, 3, hxi)
    s2 = _section_through(rng, 3, ghxi)
    lhs = cocycle(s2, s0, GroupElement(g.entries @ h.entries), xi)
    rhs = cocycle(s2, s1, g, hxi) * cocycle(s1, s0, h, xi)
    assert am_distance(lhs, rhs) < 1e-8


def test_iwasawa_cocycle_is_additive():
    rng = np.random.default_rng(3)
    g, h = random_group_element(rng, 3), random_group_element(rng, 3)
    xi = _random_flag(rng, 3)
    lhs = iwasawa_cocycle(GroupElement(g.entries @ h.entries), xi)
    rhs = iwasawa_cocycle(g, act(h, xi)).coords + iwasawa_cocycle(h, xi).coords
    assert np.abs(lhs.coords - rhs).max() < 1e-9


def test_cocycle_a_part_matches_iwasawa_cocycle():
    rng = np.random.default_rng(4)
    g = random_group_element(rng, 3)
    xi = _random_flag(rng, 3)
    s0 = _section_through(rng, 3, xi)
    s1 = _section_through(rng, 3, act(g, xi))
    beta = cocycle(s1, s0, g, xi)
    sigma = iwasawa_cocycle(g, xi)
    assert np.abs(beta.a.coords - sigma.coords).max() < 1e-9


def test_diagonal_cocycle_at_standard_flag():
    g = GroupElement(np.diag([4.0, 1.0, 0.25]))
    s = compact_section(opposite_flag(3))
    beta = cocycle(s, s, g, standard_flag(3))
    assert np.allclose(beta.a.coords, [np.log(4.0), 0.0, -np.log(4.0)], atol=1e-12)
    assert beta.m.signs == (1, 1, 1)


def test_bh_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_group_element(rng, 3)
        try:
            s = _section_through(rng, 3, flag_of(g))
            c = to_bh(g, s)
            back = from_bh(c)
        except OutOfDomain:
            continue
        assert np.abs(back.entries - g.entries).max() < 1e-8


@pytest.mark.parametrize("n", [3, 4])
def test_permutation_flags_and_covering_family(n):
    family = covering_family(n)
    assert len(family) >= 2
    rng = np.random.default_rng(6)
    for _ in range(40):
        xi = _random_flag(rng, n)
        s = best_section(family, xi)
        assert is_transverse(xi, s.base)
        # the chart that holds xi farthest from its boundary
        assert boundary_margin_estimate(xi, s.base) == max(boundary_margin_estimate(xi, t.base) for t in family)
    f = permutation_flag(3, (2, 0, 1))
    assert f.n == 3


@pytest.mark.parametrize("n", [3, 4])
def test_best_section_reads_the_run_config(n):
    # a strict pivot threshold shrinks every chart: the pick must hold xi
    # under the run's threshold whenever some member does
    config = Config(tol_minor=0.8)
    family = covering_family(n)
    rng = np.random.default_rng(11)
    moved = 0
    for _ in range(100):
        xi = _random_flag(rng, n)
        s = best_section(family, xi, config)
        margins = [boundary_margin_estimate(xi, t.base, config) for t in family]
        assert boundary_margin_estimate(xi, s.base, config) == max(margins)
        if any(is_transverse(xi, t.base, config) for t in family):
            assert is_transverse(xi, s.base, config)
        moved += s is not best_section(family, xi)
    assert moved > 0
