import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import nnls

from chamberflow import schottky_dynamics
from chamberflow.errors import BudgetExceeded, NotGeneric, NotLoxodromic
from chamberflow.linalg_core import (
    AMElement,
    CartanVector,
    Config,
    GroupElement,
    SignVector,
    jordan_projection,
    project_to_sl,
    random_rotation,
)
from chamberflow.schottky_dynamics import (
    build_schottky,
    chamber_coords,
    component_label_transport,
    cone_contains,
    cone_interior,
    coset_index,
    decorrelation_discret_check,
    jordan_line_density_probe,
    limit_cone,
    sign_group,
    stable_word_lambdas,
)
from chamberflow.sections_cocycles import BHCoordinates, best_section, covering_family

from conftest import conjugated, rotation2


def test_stable_word_lambdas_against_eigenvalues():
    # moderate strength so direct eigenvalue computation is trustworthy
    a = conjugated(11, [3.0, 1.0, 1 / 3.0])
    b = conjugated(12, [4.0, 0.8, 1 / 3.2])
    mats = [a, b]
    words, lams, _ = stable_word_lambdas(mats, 2)
    for word, lam in zip(words, lams):
        direct = np.eye(3)
        for idx in word:
            direct = mats[idx] @ direct
        expected = jordan_projection(GroupElement(direct)).coords
        assert np.abs(lam - expected).max() < 1e-8


def _exact_word(mats, word, dps):
    """Sum-zero log moduli and signs of the eigenvalues (decreasing modulus)
    of the exact word product at dps digits."""
    with mpmath.workdps(dps):
        prod = mpmath.eye(mats[0].shape[0])
        for idx in word:
            prod = mpmath.matrix(mats[idx].tolist()) * prod
        vals = sorted(mpmath.eig(prod, left=False, right=False), key=lambda v: -abs(v))
        assert all(abs(mpmath.im(v)) <= abs(v) * mpmath.mpf(10) ** -20 for v in vals)
        logs = [mpmath.log(abs(v)) for v in vals]
        mean = sum(logs) / len(logs)
        return np.array([float(x - mean) for x in logs]), tuple(1 if mpmath.re(v) > 0 else -1 for v in vals)


@pytest.mark.parametrize("family", ["cone_family", "sign_family"])
def test_stable_word_lambdas_against_mpmath(family, request):
    fam = request.getfixturevalue(family)
    mats = [L.g.entries for L in fam.generators]
    spans = [float(L.lam.coords[0] - L.lam.coords[-1]) for L in fam.generators]
    rng = np.random.default_rng(3)
    for length in range(1, 13):
        words, lams, signs = stable_word_lambdas(mats, length)
        # every word gets an M-part, and the signs multiply to det = +1
        assert signs.shape == lams.shape == (len(mats) ** length, 3)
        assert np.all(np.prod(signs, axis=1) == 1)
        for row in rng.choice(len(words), size=2, replace=False):
            word = tuple(int(i) for i in words[row])
            # the smallest eigenvalue sits sum(lambda_1 - lambda_n) decades
            # below the product's entries; a fixed precision loses its sign
            dps = 30 + math.ceil(sum(spans[i] for i in word) / math.log(10))
            lam, exact_signs = _exact_word(mats, word, dps)
            assert np.abs(lams[row] - lam).max() < 1e-8, word
            assert tuple(signs[row]) == exact_signs, word


def test_necklace_words_against_mpmath():
    # the benchmark's triple family: every word up to length 7 is checked
    # against the exact eigenvalues of its necklace's least rotation
    fam = build_schottky(
        [
            conjugated(1635, [20.0, 1.0, 1 / 20.0]),
            conjugated(1636, [16.0, 2.0, 1 / 32.0]),
            conjugated(1637, [18.0, 0.6, 1 / 10.8]),
        ],
        0.15,
        0.12,
    )
    mats = [L.g.entries for L in fam.generators]
    spans = [float(L.lam.coords[0] - L.lam.coords[-1]) for L in fam.generators]
    for length in range(1, 8):
        words, lams, signs = stable_word_lambdas(mats, length)
        reps, inverse = schottky_dynamics._necklace_index(len(mats), length)
        for k, row in enumerate(reps):
            word = tuple(int(i) for i in words[row])
            dps = 30 + math.ceil(sum(spans[i] for i in word) / math.log(10))
            lam, exact_signs = _exact_word(mats, word, dps)
            members = inverse == k
            assert np.abs(lams[members] - lam).max() < 1e-8, word
            assert np.all(signs[members] == exact_signs), word


def test_stable_word_lambdas_sweeps_one_word_per_necklace(cone_family, monkeypatch):
    batches = []
    real = schottky_dynamics._batched_qr_positive

    def counting(frames):
        batches.append(len(frames))
        return real(frames)

    monkeypatch.setattr(schottky_dynamics, "_batched_qr_positive", counting)
    mats = [L.g.entries for L in cone_family.generators]
    words, lams, signs = stable_word_lambdas(mats, 11)
    assert batches and set(batches) == {188}  # binary necklaces of length 11
    assert np.array_equal(words, schottky_dynamics._word_array(2, 11))
    place = 2 ** np.arange(10, -1, -1)
    for shift in range(1, 11):
        rows = np.roll(words, -shift, axis=1) @ place
        assert np.array_equal(lams[rows], lams)
        assert np.array_equal(signs[rows], signs)


def test_unit_rays_refuse_a_vanishing_jordan_projection():
    lams = np.array([[2.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotLoxodromic, match="1 of 2 words"):
        schottky_dynamics._unit_rays(lams)


def test_word_sweep_budget(cone_family):
    with pytest.raises(BudgetExceeded):
        limit_cone(cone_family, 10, Config(max_words=1000))
    with pytest.raises(BudgetExceeded):
        sign_group(cone_family, 10, Config(max_words=1000))


def test_build_schottky_selects_certified_powers(sl3_triple):
    fam = build_schottky([L.g for L in sl3_triple], 0.17, 0.17)
    assert len(fam.generators) == 3
    assert len(fam.certificates) == 3
    for cert in fam.certificates:
        assert cert.r == 0.17 and cert.eps == 0.17
    off_diag = fam.pairwise_margins[~np.eye(3, dtype=bool)]
    assert np.all(off_diag >= 6 * 0.17)


def test_build_schottky_rejects_shared_flags():
    g = np.diag([9.0, 1 / 9.0])
    with pytest.raises(NotGeneric):
        build_schottky([g, g], 0.18, 0.16)
    # no shared flag, but g2+ = (e1, e3, e2) meets g1- = (e3, e2, e1) in its
    # 2-plane: the pair is not transverse, margin 0
    g1 = np.diag([9.0, 1.0, 1 / 9.0])
    swap = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    with pytest.raises(NotGeneric, match=r"= 0\.0000 < 6r"):
        build_schottky([g1, swap @ g1 @ swap.T], 0.18, 0.16)


def test_build_schottky_decides_margins_before_certifying(monkeypatch):
    calls = []
    real = schottky_dynamics.certify_r_eps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schottky_dynamics, "certify_r_eps", counting)
    g1 = np.diag([9.0, 1 / 9.0])
    g2 = rotation2(np.pi / 4) @ g1 @ rotation2(np.pi / 4).T
    # the off-diagonal margins are 1.0824: above 6r at r = 0.18, below at r = 0.2
    assert len(build_schottky([g1, g2], 0.18, 0.16).generators) == 2
    assert calls
    calls.clear()
    with pytest.raises(NotGeneric, match="< 6r"):
        build_schottky([g1, g2], 0.2, 0.16)
    assert calls == []


def test_limit_cone_single_generator(cone_family):
    single = build_schottky([cone_family.generators[0].g], 0.15, 0.15)
    cone = limit_cone(single, 3)
    assert len(cone.hull) == 1
    lam = single.generators[0].lam.coords
    assert np.abs(cone.hull[0].coords - lam / np.linalg.norm(lam)).max() < 1e-9


def test_limit_cone_hull_contains_all_rays(cone_family):
    cone = limit_cone(cone_family, 4)
    for ray in cone.rays:
        assert cone_contains(cone, ray.coords)


def test_limit_cone_in_sl4():
    # n = 4: the hull is taken by ConvexHull in the 3-D chamber coordinates
    def conjugated4(seed, logs):
        h = random_rotation(np.random.default_rng(seed), 4)
        return project_to_sl(h @ np.diag(np.exp(logs)) @ h.T).entries

    fam = build_schottky(
        [conjugated4(412, [9.0, 3.0, -3.0, -9.0]), conjugated4(413, [10.0, 2.0, -4.0, -8.0])],
        0.12,
        0.12,
    )
    cone = limit_cone(fam, 4)
    rays = np.array([ray.coords for ray in cone.rays])
    assert rays.shape == (2 + 4 + 8 + 16, 4)
    assert len(cone.hull) >= 3
    for h in cone.hull:
        assert np.abs(rays - h.coords).max(axis=1).min() < 1e-12
    for ray in cone.rays:
        assert cone_contains(cone, ray.coords)
    # every hull ray is extreme: none is a nonnegative combination of the others
    hull = np.array([h.coords for h in cone.hull])
    for i, h in enumerate(hull):
        assert nnls(np.delete(hull, i, axis=0).T, h)[1] > 1e-9


def test_limit_cone_hulls_are_nested(cone_family):
    small = limit_cone(cone_family, 2)
    large = limit_cone(cone_family, 4)
    for h in small.hull:
        assert cone_contains(large, h.coords)


def test_cone_interior_and_exterior(cone_family):
    cone = limit_cone(cone_family, 4)
    mats = [L.g.entries for L in cone_family.generators]
    _, lams, _ = stable_word_lambdas(mats, 2)
    interior_dir = lams[1] / np.linalg.norm(lams[1])  # a mixed word
    assert cone_interior(cone, interior_dir)
    exterior = np.array([1.0, 0.8, -1.8])
    assert not cone_interior(cone, exterior / np.linalg.norm(exterior))


def test_sign_group_of_engineered_pair(sign_family):
    report = sign_group(sign_family, 3)
    assert report.p == 2
    assert report.order == 4
    bits = {tuple(1 if s < 0 else 0 for s in b.signs) for b in report.basis}
    assert len(bits) == 2


def test_sign_group_stabilizes(sign_family):
    assert sign_group(sign_family, 3).order == sign_group(sign_family, 5).order


def test_sign_group_negative_trace_hyperbolic():
    # strong enough that the first power certifies, so the sign survives
    # (an even certified power would square the sign away)
    g1 = np.diag([-150.0, -1 / 150.0])
    g2 = rotation2(np.pi / 4) @ np.diag([150.0, 1 / 150.0]) @ rotation2(np.pi / 4).T
    fam = build_schottky([g1, g2], 0.18, 0.16)
    report = sign_group(fam, 3)
    assert report.order == 2  # the full sign group of SL(2, R)


def test_decorrelation_components(sign_family):
    report = sign_group(sign_family, 3)
    table = decorrelation_discret_check(sign_family, report, 1)
    assert len(table) == 4
    for nu, (attained, expected, match) in table.items():
        assert match, (nu, attained, expected)


def test_decorrelation_components_at_cli_default_exponent(sign_family):
    # n_exp = 2 is the decor-check default
    report = sign_group(sign_family, 3)
    table = decorrelation_discret_check(sign_family, report, 2)
    assert len(table) == 4
    assert all(match for _, _, match in table.values()), table


def test_decorrelation_trivial_sign_group():
    a = conjugated(168, [150.0, 2.0, 1 / 300.0])
    b = conjugated(169, [150.0, 2.0, 1 / 300.0])
    fam = build_schottky([a, b], 0.15, 0.15)
    report = sign_group(fam, 3)
    assert report.p == 0
    assert decorrelation_discret_check(fam, report, 1) == {(): ((), (), True)}


def _start_coords(fam, m=None):
    n = fam.generators[0].g.n
    xi0 = fam.generators[0].attracting
    s0 = best_section(covering_family(n), xi0)
    x = AMElement.identity(n) if m is None else AMElement(CartanVector(np.zeros(n)), m)
    return BHCoordinates(xi=xi0, xi_check=fam.generators[0].repelling, x=x, section=s0)


def test_label_transport_identity_and_generators(single_sign_family):
    fam = single_sign_family
    report = sign_group(fam, 3)
    assert report.p == 1
    start = _start_coords(fam)
    trivial = component_label_transport((), fam, start, report)
    assert not any(trivial)
    for idx, L in enumerate(fam.generators):
        label = component_label_transport((idx,), fam, start, report)
        # generator sign patterns lie inside the sign group: trivial coset
        assert not any(label)


def test_label_transport_is_a_homomorphism(single_sign_family):
    fam = single_sign_family
    report = sign_group(fam, 3)
    start = _start_coords(fam)
    rng = np.random.default_rng(7)

    def mul(b1, b2):
        return tuple((x + y) % 2 for x, y in zip(b1, b2))

    for _ in range(15):
        w1 = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        w2 = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        l1 = component_label_transport(w1, fam, start, report)
        l2 = component_label_transport(w2, fam, start, report)
        l12 = component_label_transport(w1 + w2, fam, start, report)
        assert l12 == mul(l1, l2)


def test_label_transport_shifts_with_start_offset(single_sign_family):
    fam = single_sign_family
    report = sign_group(fam, 3)
    m = SignVector((-1, 1, -1))
    shift = coset_index(m, report)
    assert any(shift)  # m is outside the sign group of this family
    start = _start_coords(fam)
    start_m = _start_coords(fam, m)
    rng = np.random.default_rng(8)

    def mul(b1, b2):
        return tuple((x + y) % 2 for x, y in zip(b1, b2))

    for _ in range(5):
        w = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        assert component_label_transport(w, fam, start_m, report) == mul(
            component_label_transport(w, fam, start, report), shift
        )


def test_line_density_probe_reports_gap_statistics(cone_family):
    mats = [L.g.entries for L in cone_family.generators]
    _, lams, _ = stable_word_lambdas(mats, 2)
    theta = CartanVector(lams[1] / np.linalg.norm(lams[1]))
    stats = jordan_line_density_probe(cone_family, theta, (10.0, 60.0), 8, delta0=0.5)
    assert stats["theta_interior"]
    assert stats["hits"] > 0
    assert stats["words"] == 2 + 4 + 8 + 16 + 32 + 64 + 128 + 256
    assert stats["max_gap"] >= stats["mean_gap"]
    assert stats["t_values"] == sorted(stats["t_values"])


def test_line_density_probe_warns_off_cone(cone_family):
    theta = CartanVector(np.array([1.0, 0.8, -1.8]) / np.linalg.norm([1.0, 0.8, -1.8]))
    stats = jordan_line_density_probe(cone_family, theta, (10.0, 60.0), 6, delta0=0.5)
    assert not stats["theta_interior"]
    assert stats["warning"] == "theta-outside-cone"


def test_chamber_coords_are_isometric():
    v = np.array([2.0, -0.5, -1.5])
    w = chamber_coords(v)
    assert w.shape == (2,)
    assert np.isclose(np.linalg.norm(w), np.linalg.norm(v))
    # a stack of vectors maps row by row
    assert np.allclose(chamber_coords(np.stack([v, -2 * v])), [w, -2 * w], rtol=0, atol=1e-15)
