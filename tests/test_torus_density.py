import dataclasses
import functools
import itertools

import numpy as np
import pytest

from chamberflow import torus_density
from chamberflow.errors import BudgetExceeded, NotDenseAtBudget
from chamberflow.schottky_dynamics import build_schottky
from chamberflow.torus_density import (
    DensityCertificate,
    TorusPoint,
    CONE_MEMBERSHIP_TOL,
    _cone_membership,
    _generated_group,
    _near_pairs,
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
    # one stacked call per attempt, on exactly the distinct V-parts of its grid
    calls, grids = [], []
    grid_centers = torus_density._grid_centers

    def counted_membership(vf_dirs, W):
        calls.append(W)
        return _cone_membership(vf_dirs, W)

    def recorded_grid(window, k, step):
        grids.append(grid_centers(window, k, step))
        return grids[-1]

    monkeypatch.setattr(torus_density, "_cone_membership", counted_membership)
    monkeypatch.setattr(torus_density, "_grid_centers", recorded_grid)
    v_f, cert = semigroup_cone_density(PLANAR, 0.6, [(0.0, 2.0), (0.0, 2.0)])
    d = 2
    assert len(calls) == len(grids)
    assert [len(W) for W in calls] == [len(np.unique(g[:, :d], axis=0)) for g in grids]
    assert all(len(W) < len(g) for W, g in zip(calls, grids))
    assert np.array_equal(calls[-1], np.unique(grids[-1][:, :d], axis=0) - v_f)
    # the centres kept are those of a per-centre membership test on the last grid
    vf_dirs = np.array([f.v for f in PLANAR]).T
    expected = grids[-1][_cone_membership(vf_dirs, grids[-1][:, :d] - v_f)]
    assert np.array_equal(cert.centers, expected)


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


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("call", [select_dense_subgroup_generators, semigroup_cone_density])
def test_density_refuses_a_bad_delta_before_any_work(call, delta, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before delta was checked")

    monkeypatch.setattr(torus_density, "_generated_group", no_work)
    monkeypatch.setattr(torus_density, "_grid_centers", no_work)
    with pytest.raises(ValueError, match="must be finite and > 0"):
        call(CIRCLE, delta, [(0.0, 1.0)])


def _all_pairs_within(points, k, queries, radius):
    """Reference: (query, point, distance) for every pair within radius, all pairs scanned."""
    d = points.shape[1] - k
    dv2 = ((points[None, :, :d] - queries[:, None, :d]) ** 2).sum(axis=2)
    wrap = np.abs(points[None, :, d:] - queries[:, None, d:]) % 1.0
    dist = np.sqrt(dv2 + (np.minimum(wrap, 1.0 - wrap) ** 2).sum(axis=2))
    qi, pj = np.nonzero(dist <= radius)
    return qi, pj, dist[qi, pj]


def _assert_pairs_match(points, k, queries, radius):
    qi, pj, dist = _near_pairs(points, k, queries, radius)
    assert np.all(np.diff(qi) >= 0)   # grouped by query
    found = sorted(zip(qi.tolist(), pj.tolist(), dist.tolist()))
    assert len(set((q, p) for q, p, _ in found)) == len(found)   # no pair twice
    assert found == sorted(zip(*(a.tolist() for a in _all_pairs_within(points, k, queries, radius))))
    return len(found)


def _edge_rows(rng, n, d, k, radius):
    """Rows on bin edges: V at multiples of radius, torus at multiples of
    1 / floor(1 / radius), at 0, and just inside 0 and 1."""
    slots = max(1, int(1.0 / radius))
    v = radius * rng.integers(-4, 5, size=(n, d))
    torus_edges = np.concatenate([np.arange(slots) / slots, [0.0, 1e-12, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]])
    return np.concatenate([v, rng.choice(torus_edges, size=(n, k))], axis=1)


@pytest.mark.parametrize("radius", [0.25, 0.3, 0.5, 0.7, 1.5])
@pytest.mark.parametrize("d, k", list(itertools.product([0, 1, 2], [0, 1, 2])))
def test_near_pairs_matches_all_pairs(d, k, radius):
    rng = np.random.default_rng(100 * d + 10 * k + int(10 * radius))
    def rows(n):
        return np.concatenate([rng.uniform(-1.0, 1.0, size=(n, d)), rng.uniform(0.0, 1.0, size=(n, k))], axis=1)

    points = np.concatenate([rows(60), _edge_rows(rng, 40, d, k, radius)])
    queries = np.concatenate([rows(30), _edge_rows(rng, 30, d, k, radius), points[:10]])
    assert _assert_pairs_match(points, k, queries, radius) > 0


@pytest.mark.parametrize("k", [0, 1])
def test_near_pairs_over_a_spread_past_a_raw_int64_key(k):
    # 3e9 / 1e-6 = 3e15 bins a V axis: a raw radix key over two axes would need 9e30
    rng = np.random.default_rng(7)
    corners = np.array([[0.0, 0.0], [3e9, 0.0], [0.0, 3e9], [3e9, 3e9]])
    v = np.repeat(corners, 15, axis=0) + rng.uniform(-2e-6, 2e-6, size=(60, 2))
    points = np.concatenate([v, rng.uniform(0.0, 1.0, size=(60, k))], axis=1)
    queries = points[::3] + np.concatenate([np.full((20, 2), 5e-7), np.zeros((20, k))], axis=1)
    assert _assert_pairs_match(points, k, queries, 1e-6) > 0


def test_near_pairs_refuses_bins_past_the_exact_integers():
    points = np.array([[0.0], [1e10]])
    with pytest.raises(BudgetExceeded, match="exact integer range"):
        _near_pairs(points, 0, points, 1e-7)


@pytest.mark.parametrize("d, k", [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)])
def test_coverage_matches_an_all_pairs_scan(d, k):
    rng = np.random.default_rng(10 * d + k)
    points = np.concatenate([rng.uniform(-1.0, 1.0, (40, d)), rng.uniform(0.0, 1.0, (40, k))], axis=1)
    centers = np.concatenate([rng.uniform(-1.5, 1.5, (200, d)), rng.uniform(0.0, 1.0, (200, k))], axis=1)
    _, _, dist = _all_pairs_within(points, k, centers, np.inf)
    nearest = dist.reshape(len(centers), len(points)).min(axis=1)
    worst = int(np.argmax(nearest))
    # no centre within delta of a point, some, and all
    for delta in (1e-3, 0.3, 3.0):
        covered, (center, distance) = torus_density._coverage(points, k, centers, delta)
        assert covered is bool(nearest[worst] <= delta)
        assert center == tuple(centers[worst]) and distance == nearest[worst]


def test_cone_refusal_names_the_exact_nearest_distance():
    # the lattice Z misses the zonotope target 3/7 by 3/7
    with pytest.raises(NotDenseAtBudget, match=r"near \[0\.42857143\] \(distance 0\.4286\)"):
        semigroup_cone_density([TorusPoint([1.0], [])], 0.3, [(0.0, 2.0)])


def _nnls_membership(vf_dirs, W):
    """Reference: the rule of _cone_membership on SciPy's NNLS residual."""
    from scipy.optimize import nnls

    norms = np.linalg.norm(W, axis=1)
    resid = np.array([nnls(vf_dirs, w)[1] for w in W])
    return (norms < CONE_MEMBERSHIP_TOL) | (resid <= np.maximum(CONE_MEMBERSHIP_TOL, 1e-7 * norms))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cone_membership_matches_nnls_on_random_cones(d, m):
    rng = np.random.default_rng(10 * d + m)
    for _ in range(5):
        vf_dirs = rng.standard_normal((d, m))
        inside = rng.uniform(0.0, 2.0, size=(100, m)) @ vf_dirs.T
        W = np.concatenate([rng.standard_normal((200, d)), inside, np.zeros((1, d))])
        assert np.array_equal(_cone_membership(vf_dirs, W), _nnls_membership(vf_dirs, W))


@pytest.mark.parametrize(
    "vf_dirs",
    [
        np.array([[1.0, -1.0]]),                                  # the whole line
        np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),            # a half-plane
        np.array([[1.0, 2.0], [1.0, 2.0]]),                       # parallel columns
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),   # rank 2 in R^3
        np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]]),
    ],
    ids=["line", "half-plane", "parallel", "rank-2-in-3", "repeated-column"],
)
def test_cone_membership_matches_nnls_on_degenerate_cones(vf_dirs):
    d, m = vf_dirs.shape
    rng = np.random.default_rng(m)
    inside = rng.uniform(0.0, 2.0, size=(100, m)) @ vf_dirs.T
    W = np.concatenate([rng.standard_normal((200, d)), inside, np.zeros((1, d))])
    got = _cone_membership(vf_dirs, W)
    assert np.array_equal(got, _nnls_membership(vf_dirs, W))
    assert got[-101:].all()   # the nonnegative combinations and w = 0


@pytest.mark.parametrize("scale", [1.0, 1e-3], ids=["relative-tol", "absolute-tol"])
def test_cone_membership_at_twice_the_tolerance_from_a_facet(scale):
    # the cone between e1 and (1, 1); its facets lie on those two rays
    vf_dirs = np.array([[1.0, 1.0], [0.0, 1.0]])
    along = scale * np.linspace(0.1, 2.0, 20)
    tol = np.maximum(CONE_MEMBERSHIP_TOL, 1e-7 * along)
    below = np.stack([along, 2 * tol], axis=1), np.stack([along, -2 * tol], axis=1)
    diagonal = along[:, None] * np.sqrt(0.5) * np.array([1.0, 1.0])
    normal = np.sqrt(0.5) * np.array([1.0, -1.0])
    beside = diagonal + 2 * tol[:, None] * normal, diagonal - 2 * tol[:, None] * normal
    for W, expected in zip(below + beside, [True, False, True, False]):
        got = _cone_membership(vf_dirs, W)
        assert np.array_equal(got, _nnls_membership(vf_dirs, W))
        assert got.all() if expected else not got.any()
