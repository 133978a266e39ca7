import mpmath
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
    k_iota,
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
from chamberflow.loxodromy import _sample_k_r
from chamberflow.sections_cocycles import (
    Section,
    _section_reads,
    best_section,
    cocycle,
    compact_section,
    covering_family,
    eval_section,
    eval_sections,
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
    # xi on the chart edge of one of the two sections: both refuse
    xi = _random_flag(rng, 3)
    holder = unipotent_section(_random_flag(rng, 3))
    for s, s2 in ((compact_section(xi), holder), (holder, compact_section(xi))):
        assert not _verdict_and_value(lambda: transition(s, s2, xi))[0]
        assert not _verdict_and_value(lambda: cocycle(s, s2, e, xi))[0]
    assert _verdict_and_value(lambda: transition(holder, holder, xi))[0]
    # xi close to the boundary of a unipotent chart (margin 5.4e-5): its
    # chart pivots run from 3.8e-5 to 2.6e4, and the transition, read at
    # xi.rep, and the cocycle at e, read at the K part of xi.rep, still
    # agree (to 1.5e-12 here)
    rng = np.random.default_rng(0)
    base, other = _random_flag(rng, 3), _random_flag(rng, 3)
    s, s2 = unipotent_section(base), unipotent_section(other)
    xi = Flag(_rotation(_so_directions(3, 3)[0], 5e-4) @ base.rep)
    t = transition(s, s2, xi)
    assert am_distance(t, cocycle(s, s2, e, xi)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_section_reads_match_one_flag_reads(n):
    # _section_reads of a stack is the read of each flag alone, bit for
    # bit, and is the AM part of rep^T s(xi)
    rng = np.random.default_rng(70 + n)
    base = _random_flag(rng, n)
    heads = [random_rotation(rng, n) for _ in range(6)]
    # outside the domain: on the chart edge, within tol_minor of it, and
    # the frame of the first flag with det -1 (sign product -1)
    near = _rotation(_so_directions(n, 1)[0], 1e-12) @ base.rep
    flipped = heads[0] * np.r_[np.ones(n - 1), -1.0]
    reps = np.asarray(heads + [base.rep, near, flipped])
    # a K_r translate per flag, as delta_r_eps builds them
    pool = np.asarray([_sample_k_r(rng, n, 0.3) for _ in range(4)])
    translates = pool[np.arange(len(reps)) % len(pool)]
    for kind in ("unipotent", "compact"):
        for offset in (AMElement.identity(n), _random_am(rng, n)):
            for translate in (None, translates):

                def cut(part):
                    return Section(kind, base, offset, None if translate is None else translate[part])

                at = reps if translate is None else translate @ reps
                logs, signs, inside = _section_reads(cut(slice(None)), at)
                assert inside.tolist() == [True] * 6 + [False] * 3
                for i, rep in enumerate(at):
                    logs1, signs1, inside1 = _section_reads(cut(i), rep[np.newaxis])
                    assert np.array_equal(logs1[0], logs[i], equal_nan=True)
                    assert np.array_equal(signs1[0], signs[i], equal_nan=True)
                    assert inside1[0] == inside[i]
                # the det -1 frame is in the chart; only its signs refuse it
                assert eval_sections(cut(slice(-1, None)), at[-1:])[1][0]
                assert np.array_equal(logs[-1], logs[0])
                assert np.array_equal(signs[-1], signs[0] * np.r_[np.ones(n - 1), -1.0])
                value = eval_sections(cut(slice(6)), at[:6])[0]
                d = np.swapaxes(at[:6], -1, -2) @ value
                assert np.abs(np.tril(d, -1)).max() < 1e-10 * np.abs(d).max()
                diag = np.diagonal(d, axis1=-2, axis2=-1)
                assert np.array_equal(np.sign(diag), signs[:6])
                assert np.allclose(np.log(np.abs(diag)), logs[:6], rtol=0.0, atol=1e-10)


def _mp_frame(mat):
    """The orthonormal frame of the flag of mat's columns, with the
    triangular factor's diagonal positive, and that diagonal."""
    q, r = mpmath.qr(mat)
    n = mat.rows
    signs = [1 if r[j, j] > 0 else -1 for j in range(n)]
    frame = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            frame[i, j] = q[i, j] * signs[j]
    return frame, [abs(r[j, j]) for j in range(n)]


def _mp_section(s, rep):
    """s(xi) at mpmath precision for the flag of the columns of rep."""
    n = s.n
    frame = _mp_frame(mpmath.matrix(s.base.rep.tolist()))[0]
    j = mpmath.matrix(k_iota(n).tolist())
    c = j * frame.T * rep
    lower = mpmath.eye(n)
    for k in range(n - 1):
        for i in range(k + 1, n):
            lower[i, k] = c[i, k] / c[k, k]
            for m in range(k, n):
                c[i, m] -= lower[i, k] * c[k, m]
    value = frame * j.T * lower
    if s.kind == "compact":
        value = _mp_frame(value)[0]
    return value * mpmath.matrix(s.offset.matrix().tolist())


@pytest.mark.parametrize("kinds", [(u, v) for u in ("unipotent", "compact") for v in ("unipotent", "compact")])
def test_cocycle_near_chart_edges_against_mpmath(kinds):
    # rotate xi toward s0's base, or g xi toward s1's: cocycle stays within
    # n eps kappa(g) / margin of s1(g xi)^-1 g s0(xi) at 40 digits, where
    # margin is the smaller chart margin of the two flags
    n, eps = 3, np.finfo(float).eps
    rng = np.random.default_rng(31)
    direction = _so_directions(n, 3)[0]
    worst = 0.0
    for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        g = random_group_element(rng, n)
        for edge in (0, 1):
            xi = _random_flag(rng, n)
            gxi = act(g, xi)
            near = _rotation(direction, t) @ (xi if edge == 0 else gxi).rep
            bases = [Flag(near), _random_flag(rng, n)][:: 1 if edge == 0 else -1]
            s0, s1 = (Section(kind, b, _random_am(rng, n)) for kind, b in zip(kinds, bases))
            beta = cocycle(s1, s0, g, xi)
            with mpmath.workdps(40):
                mg = mpmath.matrix(g.entries.tolist())
                mxi = mpmath.matrix(xi.rep.tolist())
                d = mpmath.inverse(_mp_section(s1, mg * mxi)) * mg * _mp_section(s0, mxi)
                logs = [mpmath.log(abs(d[k, k])) for k in range(n)]
                exact = np.array([float(x - sum(logs) / n) for x in logs])
                signs = tuple(1 if d[k, k] > 0 else -1 for k in range(n))
            assert beta.m.signs == signs
            margin = min(boundary_margin_estimate(xi, s0.base), boundary_margin_estimate(gxi, s1.base))
            bound = n * eps * np.linalg.cond(g.entries) / margin
            worst = max(worst, np.abs(beta.a.coords - exact).max() / bound)
    assert worst <= 1.0


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
