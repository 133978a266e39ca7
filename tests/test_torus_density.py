import dataclasses
import functools

import numpy as np
import pytest

from chamberflow import torus_density
from chamberflow.errors import NotDenseAtBudget
from chamberflow.schottky_dynamics import build_schottky
from chamberflow.torus_density import (
    DensityCertificate,
    TorusPoint,
    _cone_membership,
    _generated_group,
    jordan_density_bridge,
    select_dense_subgroup_generators,
    semigroup_cone_density,
    verify_certificate,
)

from conftest import conjugated, rotation2

GOLDEN = (np.sqrt(5) - 1) / 2


def test_torus_point_reduces_coordinates():
    p = TorusPoint([1.5], [2.25, -0.25])
    assert np.allclose(p.v, [1.5])
    assert np.allclose(p.c, [0.25, 0.75])
    assert p.d == 1 and p.k == 2


def test_select_line_case():
    e = [TorusPoint([1.0], []), TorusPoint([np.sqrt(2)], [])]
    cert = select_dense_subgroup_generators(e, 0.05, [(-1.0, 1.0)])
    assert cert.covered
    assert len(cert.subset) <= 3
    assert verify_certificate(cert) == cert.covered


def test_select_trivial_net():
    # the input already covers the window at the requested resolution
    e = [TorusPoint([x], []) for x in np.arange(-1.0, 1.01, 0.05)]
    cert = select_dense_subgroup_generators(e, 0.1, [(-1.0, 1.0)])
    assert cert.covered
    assert len(cert.subset) <= 3


@pytest.mark.parametrize("c", [[], [0.0]], ids=["k0", "k1"])
def test_certificate_with_an_empty_subset_replays(c):
    # no element has a V-part of positive volume, and the origin alone covers
    cert = select_dense_subgroup_generators([TorusPoint([0.0], c)], 1.0, [(0.0, 0.0)])
    assert cert.covered and cert.subset == ()
    assert verify_certificate(cert) is True
    # a recorded point that is not the empty combination does not replay
    assert verify_certificate(dataclasses.replace(cert, points=cert.points + 0.5)) is False


def test_pure_torus_certificate_replays():
    # d = 0: the subset's V-parts are an empty (len(subset), 0) array
    pair = [TorusPoint([], [GOLDEN]), TorusPoint([], [np.sqrt(2) - 1])]
    cert = select_dense_subgroup_generators(pair, 0.1, np.zeros((0, 2)))
    assert cert.covered and cert.d == 0
    assert verify_certificate(cert) is True
    assert verify_certificate(_change_coeff(cert, len(cert.points) // 2)) is False


def test_select_cardinality_bound():
    e = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2)], [GOLDEN])]
    cert = select_dense_subgroup_generators(e, 0.1, [(-1.0, 1.0)])
    assert len(cert.subset) <= 3 * 1 + 2 * 1
    assert cert.covered


def test_select_reports_failure_with_farthest_cell():
    e = [TorusPoint([1.0], [])]  # integer lattice only
    with pytest.raises(NotDenseAtBudget) as exc:
        select_dense_subgroup_generators(e, 0.05, [(-1.0, 1.0)])
    cert = exc.value.certificate
    assert cert is not None and not cert.covered
    center, dist = cert.uncovered_farthest
    assert dist > 0.05


def test_certificate_monotone_in_delta():
    e = [TorusPoint([1.0], []), TorusPoint([np.sqrt(2)], [])]
    cert = select_dense_subgroup_generators(e, 0.05, [(-1.0, 1.0)])
    relaxed = dataclasses.replace(cert, delta=0.1)
    assert verify_certificate(relaxed) == relaxed.covered


def test_cone_single_generator_progression():
    v, cert = semigroup_cone_density([TorusPoint([0.04], [])], 0.05, [(0.0, 1.0)])
    assert cert.covered
    # v_F is a multiple of the generator
    assert np.isclose(v[0] / 0.04, round(v[0] / 0.04))
    with pytest.raises(NotDenseAtBudget):
        semigroup_cone_density([TorusPoint([1.0], [])], 0.3, [(0.0, 2.0)])


def test_cone_pair_line_case():
    f = [TorusPoint([1.0], []), TorusPoint([np.sqrt(2)], [])]
    v, cert = semigroup_cone_density(f, 0.05, [(0.0, 2.0)])
    assert cert.covered
    assert verify_certificate(cert) == cert.covered


def test_cone_planar_with_torus_factor():
    f = [
        TorusPoint([1.0, 0.0], [0.3]),
        TorusPoint([1.0, 1.0], [GOLDEN]),
        TorusPoint([np.sqrt(2.0), np.sqrt(3.0) - 1.0], [0.0]),
    ]
    v, cert = semigroup_cone_density(f, 0.6, [(0.0, 2.0), (0.0, 2.0)])
    assert cert.covered
    assert v.shape == (2,)
    assert verify_certificate(cert) == cert.covered


def test_cone_certificate_points_are_semigroup_witnesses():
    f = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2)], [GOLDEN])]
    v, cert = semigroup_cone_density(f, 0.1, [(0.0, 3.0)])
    assert cert.covered
    pts = cert.points[:, :1]
    coeffs = cert.coeffs
    assert np.all(coeffs >= 0)
    fv = np.asarray([p.v for p in f])
    rng = np.random.default_rng(0)
    idx = rng.choice(len(pts), size=min(100, len(pts)), replace=False)
    assert np.abs(pts[idx] - coeffs[idx] @ fv).max() < 1e-9


def test_bridge_single_generator():
    g = np.diag([9.0, 1 / 9.0])
    fam = build_schottky([g], 0.18, 0.16)
    v, cert = jordan_density_bridge(fam, 10.0, window=[(0.0, 40.0)])
    assert cert.covered


def test_bridge_pair_with_irrational_length_ratio():
    g1 = np.diag([9.0, 1 / 9.0])
    g2 = rotation2(np.pi / 4) @ np.diag([7.0, 1 / 7.0]) @ rotation2(np.pi / 4).T
    fam = build_schottky([g1, g2], 0.18, 0.16)
    v, cert = jordan_density_bridge(fam, 0.1, window=[(0.0, 3.0)])
    assert cert.covered
    assert verify_certificate(cert) == cert.covered


def test_bridge_planar_triple():
    mats = [
        conjugated(1635, [20.0, 1.0, 1 / 20.0]),
        conjugated(1636, [16.0, 2.0, 1 / 32.0]),
        conjugated(1637, [18.0, 0.6, 1 / 10.8]),
    ]
    fam = build_schottky(mats, 0.15, 0.12)
    v, cert = jordan_density_bridge(fam, 2.5, window=[(0.0, 5.0), (0.0, 5.0)])
    assert cert.covered
    assert v.shape == (2,)


def _node_by_node_group(gens, window, k, delta, coeff_bound, positive_only=False):
    """Reference: the node-by-node BFS that _generated_group replaced."""
    d = window.shape[0]
    steps = []
    for i, p in enumerate(gens):
        unit = np.zeros(len(gens), dtype=int)
        unit[i] = 1
        steps.append((p.v, p.c, unit))
        if not positive_only:
            steps.append((-p.v, -p.c, -unit))
    reach = max((np.linalg.norm(p.v) for p in gens), default=0.0) + delta
    lo = window[:, 0] - reach
    hi = window[:, 1] + reach
    res = delta / 4.0
    seen = {}
    start_v, start_c = np.zeros(d), np.zeros(k)
    start_key = (tuple(np.round(start_v / res).astype(int)), tuple(np.round((start_c % 1.0) / res).astype(int)))
    seen[start_key] = (start_v, start_c, np.zeros(len(gens), dtype=int))
    frontier = [start_key]
    while frontier:
        new_frontier = []
        for key in frontier:
            v, c, coeff = seen[key]
            for sv, sc, sunit in steps:
                nv, nc = v + sv, (c + sc) % 1.0
                ncoeff = coeff + sunit
                if np.any(nv < lo) or np.any(nv > hi):
                    continue
                if np.max(np.abs(ncoeff)) > coeff_bound:
                    continue
                nkey = (
                    tuple(np.round(nv / res).astype(int)),
                    tuple(np.round(nc / res).astype(int) % max(1, int(round(1.0 / res)))),
                )
                if nkey in seen:
                    continue
                seen[nkey] = (nv, nc, ncoeff)
                new_frontier.append(nkey)
        frontier = new_frontier
    points = [(v, c) for v, c, _ in seen.values()]
    coeffs = [coeff for _, _, coeff in seen.values()]
    return points, coeffs


PLANAR = [
    TorusPoint([1.0, 0.0], [0.3]),
    TorusPoint([1.0, 1.0], [GOLDEN]),
    TorusPoint([np.sqrt(2.0), np.sqrt(3.0) - 1.0], [0.0]),
]
LINE = [TorusPoint([1.0], []), TorusPoint([np.sqrt(2)], [])]
CIRCLE = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2)], [GOLDEN])]
# the density benchmark's cubic-field pair at scale 1 and shear 1/2
CUBIC = [
    TorusPoint([1.0], [-0.27747906604368544]),
    TorusPoint([0.44504186791262923], [2.1234898018587334]),
]
D2K2 = [
    TorusPoint([1.0, 0.0], [0.3, GOLDEN]),
    TorusPoint([0.0, 1.0], [np.sqrt(2.0) - 1.0, 0.1]),
    TorusPoint([np.sqrt(3.0) - 1.0, np.sqrt(5.0) - 2.0], [0.0, 0.5]),
]


@pytest.mark.parametrize(
    "gens, window, delta, coeff_bound",
    [
        (LINE, [(-1.0, 1.0)], 0.05, 1000),
        (CIRCLE, [(-1.0, 1.0)], 0.1, 1000),
        (PLANAR, [(0.0, 2.0), (0.0, 2.0)], 0.6, 1000),
        (CIRCLE, [(-50.0, 50.0)], 0.1, 3),
        (CIRCLE, [(-0.2, 0.2)], 0.1, 1000),
        ([], [(-1.0, 1.0), (0.0, 1.0)], 0.1, 1000),
        (CUBIC, [(-1.0, 1.0)], 0.1, 1000),
        (CIRCLE, [(-40.0, 40.0)], 0.4, 1000),
        (D2K2, [(0.0, 1.0), (0.0, 1.0)], 0.6, 1000),
    ],
    ids=[
        "line-k0", "d1-k1", "planar-d2-k1", "coeff-bound-3", "clipping-window", "no-generators",
        "benchmark-cubic-pair", "wide-v-corridor", "d2-k2",
    ],
)
@pytest.mark.parametrize("positive_only", [False, True], ids=["group", "semigroup"])
def test_generated_group_matches_node_by_node_bfs(gens, window, delta, coeff_bound, positive_only):
    window = np.asarray(window, dtype=float)
    k = gens[0].k if gens else 1
    d = window.shape[0]
    points, coeffs = _generated_group(gens, window, k, delta, coeff_bound, positive_only)
    ref_points, ref_coeffs = _node_by_node_group(gens, window, k, delta, coeff_bound, positive_only)
    n = len(ref_points)
    assert np.array_equal(points, np.array([np.concatenate(p) for p in ref_points]).reshape(n, d + k))
    assert np.array_equal(coeffs, np.array(ref_coeffs).reshape(n, len(gens)))
    if gens:
        # which cut stopped the BFS: the coefficient bound, or else the window
        assert (np.abs(coeffs).max() == coeff_bound) == (coeff_bound == 3)


@pytest.mark.parametrize("call", [select_dense_subgroup_generators, semigroup_cone_density])
def test_density_inputs_must_share_one_shape(call):
    with pytest.raises(ValueError, match="no points"):
        call([], 0.1, [(-1.0, 1.0)])
    with pytest.raises(ValueError, match="mixed"):
        call([TorusPoint([1.0], []), TorusPoint([np.sqrt(2)], [GOLDEN])], 0.1, [(-1.0, 1.0)])
    # the window needs one (lo, hi) row per V coordinate
    with pytest.raises(ValueError, match=r"shape \(1, 2\); points with d = 2 need shape \(2, 2\)"):
        call(PLANAR, 0.6, [(0.0, 2.0)])
    with pytest.raises(ValueError, match=r"shape \(2, 2\); points with d = 1 need shape \(1, 2\)"):
        call(CIRCLE, 0.1, [(0.0, 2.0), (0.0, 2.0)])
    with pytest.raises(ValueError, match=r"shape \(1, 3\); points with d = 1"):
        call(CIRCLE, 0.1, [(0.0, 1.0, 2.0)])
    with pytest.raises(ValueError, match="lo <= hi"):
        call(CIRCLE, 0.1, [(1.0, -1.0)])
    with pytest.raises(ValueError, match="lo <= hi"):
        call(CIRCLE, 0.1, [(0.0, np.nan)])


def _all_pairs_replay(cert):
    """Reference: every certified centre against every recorded point, one centre at a time."""
    d = cert.subset[0].d
    pv, pc = cert.points[:, :d], cert.points[:, d:]
    for center in cert.centers:
        dv2 = ((pv - center[:d]) ** 2).sum(axis=1)
        wrap = np.abs(pc - center[d:]) % 1.0
        dc2 = (np.minimum(wrap, 1.0 - wrap) ** 2).sum(axis=1)
        if float(np.sqrt(dv2 + dc2).min()) > cert.delta:
            return False
    return True


CERTIFICATES = {
    "line-k0": lambda: select_dense_subgroup_generators(LINE, 0.05, [(-1.0, 1.0)]),
    "planar-d2-k1": lambda: semigroup_cone_density(PLANAR, 0.6, [(0.0, 2.0), (0.0, 2.0)])[1],
    "pair-select": lambda: select_dense_subgroup_generators(CIRCLE, 0.1, [(-1.0, 1.0)]),
    "pair-cone": lambda: semigroup_cone_density(CIRCLE, 0.1, [(0.0, 3.0)])[1],
}


@functools.cache
def _certificate(name):
    return CERTIFICATES[name]()


@pytest.mark.parametrize("scale", [1.0, 0.9, 0.5])
@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_sliced_replay_matches_all_pairs(name, scale):
    cert = _certificate(name)
    assert cert.covered
    shrunk = dataclasses.replace(cert, delta=scale * cert.delta)
    assert verify_certificate(shrunk) is _all_pairs_replay(shrunk)
    if scale == 1.0:
        assert verify_certificate(shrunk) is True


def test_shrunk_delta_reaches_the_uncovered_branch():
    verdicts = {
        verify_certificate(dataclasses.replace(_certificate(name), delta=0.5 * _certificate(name).delta))
        for name in CERTIFICATES
    }
    assert verdicts == {True, False}


def test_cone_membership_runs_once_per_v_part(monkeypatch):
    calls, grids = [], []
    grid_centers = torus_density._grid_centers

    def counted_membership(vf_dirs, w):
        calls.append(w)
        return _cone_membership(vf_dirs, w)

    def recorded_grid(window, k, step):
        grids.append(grid_centers(window, k, step))
        return grids[-1]

    monkeypatch.setattr(torus_density, "_cone_membership", counted_membership)
    monkeypatch.setattr(torus_density, "_grid_centers", recorded_grid)
    v_f, cert = semigroup_cone_density(PLANAR, 0.6, [(0.0, 2.0), (0.0, 2.0)])
    d = 2
    assert len(calls) == sum(len(np.unique(g[:, :d], axis=0)) for g in grids)
    assert len(calls) < sum(len(g) for g in grids)
    # the centres kept are those of a per-centre membership test on the last grid
    vf_dirs = np.array([f.v for f in PLANAR]).T
    expected = [c for c in grids[-1] if _cone_membership(vf_dirs, c[:d] - v_f)]
    assert np.array_equal(cert.centers, np.array(expected))


def test_select_builds_its_grid_once(monkeypatch):
    grids, groups = [], []
    grid_centers, generated_group = torus_density._grid_centers, torus_density._generated_group

    def recorded_grid(*args):
        grids.append(grid_centers(*args))
        return grids[-1]

    def recorded_group(*args):
        groups.append(generated_group(*args))
        return groups[-1]

    monkeypatch.setattr(torus_density, "_grid_centers", recorded_grid)
    monkeypatch.setattr(torus_density, "_generated_group", recorded_group)
    cert = select_dense_subgroup_generators(CIRCLE, 0.1, [(-1.0, 1.0)])
    assert len(groups) > 1   # the greedy step ran trials
    assert len(grids) == 1 and cert.centers is grids[0]


@pytest.mark.parametrize("name", ["pair-select", "planar-d2-k1"])
def test_certificate_arrays_are_read_only(name):
    cert = _certificate(name)
    d, k = cert.subset[0].d, cert.subset[0].k
    assert cert.points.shape == (len(cert.coeffs), d + k)
    assert cert.coeffs.shape == (len(cert.points), len(cert.subset))
    assert cert.centers.shape[1] == d + k
    for arr in (cert.points, cert.coeffs, cert.centers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_refused_certificate_does_not_replay():
    with pytest.raises(NotDenseAtBudget) as exc:
        select_dense_subgroup_generators([TorusPoint([1.0], [])], 0.05, [(-1.0, 1.0)])
    assert verify_certificate(exc.value.certificate) is False


def _shift_point(cert, i, dv, dc):
    d = cert.subset[0].d
    points = cert.points.copy()
    points[i, :d] += dv
    points[i, d:] = (points[i, d:] + dc) % 1.0
    return dataclasses.replace(cert, points=points)


def _change_coeff(cert, i):
    coeffs = cert.coeffs.copy()
    coeffs[i, 0] += 1
    return dataclasses.replace(cert, coeffs=coeffs)


def _negative_in_semigroup(cert, i):
    """A semigroup certificate whose point i is written with one more copy of
    subset[0], at coefficient -1: the combination still holds."""
    coeffs = np.pad(cert.coeffs, ((0, 0), (0, 1)))
    coeffs[i, 0] += 1
    coeffs[i, -1] = -1
    subset = cert.subset + cert.subset[:1]
    return dataclasses.replace(cert, kind="semigroup", subset=subset, coeffs=coeffs)


def _too_many_generators(cert, i):
    """A group certificate padded to 3d + 2k + 1 generators at coefficient 0."""
    p = cert.subset[0]
    extra = 3 * p.d + 2 * p.k + 1 - len(cert.subset)
    coeffs = np.pad(cert.coeffs, ((0, 0), (0, extra)))
    return dataclasses.replace(cert, kind="group", subset=cert.subset + (p,) * extra, coeffs=coeffs)


@pytest.mark.parametrize("name", ["pair-select", "planar-d2-k1"])
@pytest.mark.parametrize(
    "tamper",
    [
        lambda cert, i: _shift_point(cert, i, 1e-3, 0.0),
        lambda cert, i: _shift_point(cert, i, 0.0, 1e-3),
        _change_coeff,
        lambda cert, i: dataclasses.replace(cert, coeff_bound=int(np.abs(cert.coeffs).max()) - 1),
        _negative_in_semigroup,
        _too_many_generators,
    ],
    ids=[
        "v-shift", "torus-shift", "coefficient", "coeff-bound", "negative-semigroup", "group-too-large",
    ],
)
def test_replay_rejects_a_tampered_certificate(name, tamper):
    cert = _certificate(name)
    assert verify_certificate(cert) is True
    assert verify_certificate(tamper(cert, len(cert.points) // 2)) is False
