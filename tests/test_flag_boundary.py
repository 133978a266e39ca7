import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from chamberflow import flag_boundary
from chamberflow.errors import NotTransverse
from chamberflow.flag_boundary import (
    Flag,
    act,
    boundary_margin_estimate,
    boundary_margins,
    cell_margin,
    canonicalize_rep,
    flag_distance,
    flag_of,
    flags_equal,
    is_transverse,
    k_iota,
    opposite_flag,
    standard_flag,
    _comparisons,
    _rotation,
    _rotations,
    _so_directions,
)
from chamberflow.linalg_core import Config, DEFAULT_CONFIG, GroupElement, random_group_element, random_rotation
from chamberflow.sections_cocycles import compact_section, eval_sections


def test_canonical_representative_has_unit_determinant():
    rng = np.random.default_rng(0)
    rep = canonicalize_rep(random_rotation(rng, 3))
    assert np.isclose(np.linalg.det(rep), 1.0)


def test_flag_ignores_column_signs():
    rng = np.random.default_rng(1)
    k = random_rotation(rng, 3)
    flipped = k * np.array([-1.0, 1.0, -1.0])[np.newaxis, :]
    assert flags_equal(Flag(k), Flag(flipped))
    assert flag_distance(Flag(k), Flag(flipped)) < 1e-12


def test_flags_equal_near_a_canonicalisation_tie():
    # R's first column has two entries of equal magnitude, so rotations of
    # R by +-1e-15 pick opposite leading rows and far-apart representatives
    c = 1 / np.sqrt(2.0)
    r = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
    x = _so_directions(3, 3)[0]
    xi, eta = (Flag(_rotation(x, t) @ r) for t in (1e-15, -1e-15))
    assert flag_distance(xi, eta) < 1e-14
    assert np.abs(xi.rep - eta.rep).max() > 1.0
    assert flags_equal(xi, eta)


def test_flag_rejects_non_orthogonal_representative():
    with pytest.raises(ValueError):
        Flag(np.diag([2.0, 0.5, 1.0]))


def test_standard_and_opposite_are_transverse():
    for n in (2, 3, 4):
        assert is_transverse(standard_flag(n), opposite_flag(n))
    assert not is_transverse(standard_flag(3), standard_flag(3))


def test_k_iota_is_special_orthogonal():
    for n in (2, 3, 4, 5):
        j = k_iota(n)
        assert np.isclose(np.linalg.det(j), 1.0)
        assert np.allclose(j.T @ j, np.eye(n))
        # built once per n and shared, so it cannot be written into
        assert k_iota(n) is j
        with pytest.raises(ValueError, match="read-only"):
            j[0, 0] = 1.0


def test_action_on_flags_is_a_group_action():
    rng = np.random.default_rng(2)
    xi = Flag(random_rotation(rng, 3))
    g = random_group_element(rng, 3)
    h = random_group_element(rng, 3)
    lhs = act(GroupElement(g.entries @ h.entries), xi)
    rhs = act(g, act(h, xi))
    assert flag_distance(lhs, rhs) < 1e-9


def test_flag_of_diagonal_is_standard():
    g = GroupElement(np.diag([4.0, 1.0, 0.25]))
    assert flags_equal(flag_of(g), standard_flag(3))


def test_metric_axioms_and_invariance():
    rng = np.random.default_rng(3)
    xi, eta, zeta = (Flag(random_rotation(rng, 3)) for _ in range(3))
    assert abs(flag_distance(xi, eta) - flag_distance(eta, xi)) < 1e-12
    assert flag_distance(xi, eta) + flag_distance(eta, zeta) >= flag_distance(xi, zeta) - 1e-12
    k = random_rotation(rng, 3)
    d0 = flag_distance(xi, eta)
    d1 = flag_distance(Flag(k @ xi.rep), Flag(k @ eta.rep))
    assert abs(d0 - d1) < 1e-9


def test_margin_exact_in_dimension_two():
    # for n = 2 the complement of the cell is the single flag xi_check
    rng = np.random.default_rng(4)
    pairs = [(standard_flag(2), opposite_flag(2))]
    pairs += [(Flag(random_rotation(rng, 2)), Flag(random_rotation(rng, 2))) for _ in range(10)]
    for xi, eta in pairs:
        assert np.isclose(boundary_margin_estimate(xi, eta), flag_distance(xi, eta), rtol=0, atol=1e-12)


def test_cell_margin_requires_transversality():
    with pytest.raises(NotTransverse):
        cell_margin(standard_flag(3), standard_flag(3))


def _plane_rotation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation of R^n in span(u, v) taking the unit vector u to the unit
    vector v, identity on the orthogonal complement."""
    c = float(u @ v)
    w = v - c * u
    s = float(np.linalg.norm(w))
    w = w / s
    return (
        np.eye(len(u))
        + (c - 1.0) * (np.outer(u, u) + np.outer(w, w))
        + s * (np.outer(w, u) - np.outer(u, w))
    )


@pytest.mark.parametrize("n", [3, 4])
def test_margin_is_attained_by_a_principal_rotation(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        xi, xi_check = Flag(random_rotation(rng, n)), Flag(random_rotation(rng, n))
        # smallest principal angle between xi_k and xi_check_{n-k}, from
        # the cosine form, and the principal vectors attaining it
        best = None
        for k in range(1, n):
            a, sig, bt = np.linalg.svd(xi_check.rep[:, : n - k].T @ xi.rep[:, :k])
            if best is None or sig[0] > best[0]:
                best = (sig[0], xi.rep[:, :k] @ bt[0], xi_check.rep[:, : n - k] @ a[:, 0])
        _, u, v = best
        moved = Flag(_plane_rotation(u, v) @ xi.rep)
        assert not is_transverse(moved, xi_check)
        margin = boundary_margin_estimate(xi, xi_check)
        assert abs(flag_distance(xi, moved) - margin) < 1e-10


def test_margin_is_not_beaten_by_a_local_search():
    # nearest flag exp(X) xi with a vanishing leading minor of the
    # comparison matrix, searched by SLSQP over so(n) for each k: no search
    # lands below the margin, and the best one over k reaches it
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        basis = []
        for i in range(n):
            for j in range(i + 1, n):
                x = np.zeros((n, n))
                x[i, j], x[j, i] = 1.0, -1.0
                basis.append(x)
        basis = np.asarray(basis)
        for _ in range(2):
            xi, xi_check = Flag(random_rotation(rng, n)), Flag(random_rotation(rng, n))
            margin = boundary_margin_estimate(xi, xi_check)
            left = k_iota(n) @ xi_check.rep.T

            def rep(c):
                return scipy.linalg.expm(np.tensordot(c, basis, 1)) @ xi.rep

            found = []
            for k in range(1, n):
                res = scipy.optimize.minimize(
                    lambda c: float(np.sum((rep(c) - xi.rep) ** 2)),
                    0.1 * rng.standard_normal(len(basis)),
                    method="SLSQP",
                    constraints=[{"type": "eq", "fun": lambda c: np.linalg.det((left @ rep(c))[:k, :k])}],
                    options={"ftol": 1e-14, "maxiter": 200},
                )
                assert res.success, res.message
                eta = Flag(rep(res.x))
                assert abs(np.linalg.det((left @ eta.rep)[:k, :k])) < 1e-10
                found.append(flag_distance(xi, eta))
            assert min(found) >= margin - 1e-9
            assert min(found) <= margin * (1.0 + 1e-6)


def test_boundary_margin_estimate_zero_for_non_transverse():
    assert boundary_margin_estimate(standard_flag(3), standard_flag(3)) == 0.0
    assert boundary_margin_estimate(standard_flag(3), opposite_flag(3)) > 0.0


def _two_pass_margin(xi, xi_check):
    """Reference: a transversality test, then the closed form on a second
    comparison matrix."""
    if not is_transverse(xi, xi_check):
        return 0.0
    c = k_iota(xi.n) @ xi_check.rep.T @ xi.rep
    s = min(np.linalg.svd(c[:k, :k], compute_uv=False)[-1] for k in range(1, xi.n))
    return float(2.0 * s / np.sqrt(1.0 + np.sqrt(max(0.0, 1.0 - s * s))))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_factorisation_per_margin_call(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    pairs = [(Flag(random_rotation(rng, n)), Flag(random_rotation(rng, n))) for _ in range(4)]
    pairs.append((standard_flag(n), opposite_flag(n)))
    expected = [_two_pass_margin(xi, xi_check) for xi, xi_check in pairs]
    calls = []
    real_lu = flag_boundary._lu_stack

    def counted_lu(mats, config):
        calls.append(len(mats))
        return real_lu(mats, config)

    # the scalar margins are the one-flag case of the stacked kernel, so
    # each call factors a stack of one comparison matrix, once
    monkeypatch.setattr(flag_boundary, "_lu_stack", counted_lu)
    for (xi, xi_check), margin in zip(pairs, expected):
        del calls[:]
        assert boundary_margin_estimate(xi, xi_check) == margin
        assert calls == [1]
        del calls[:]
        assert cell_margin(xi, xi_check) == margin
        assert calls == [1]
    del calls[:]
    assert boundary_margin_estimate(standard_flag(n), standard_flag(n)) == 0.0
    with pytest.raises(NotTransverse):
        cell_margin(standard_flag(n), standard_flag(n))
    assert calls == [1, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_margins_match_the_closed_form(n):
    rng = np.random.default_rng(60 + n)
    xi_check = Flag(random_rotation(rng, n))
    flags = [Flag(random_rotation(rng, n)) for _ in range(12)]
    # frames whose first vector lies in xi_check's first line: not transverse
    for _ in range(3):
        turn = np.eye(n)
        turn[1:, 1:] = random_rotation(rng, n - 1) if n > 2 else 1.0
        flags.append(Flag(xi_check.rep @ turn))
    margins = boundary_margins(np.asarray([xi.rep for xi in flags]), xi_check)
    assert margins.tolist() == [_two_pass_margin(xi, xi_check) for xi in flags]
    assert np.all(margins[:12] > 0.0)
    assert margins[12:].tolist() == [0.0] * 3


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, Config(tol_minor=0.3)], ids=["default", "tol-minor-0.3"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_big_cell_decision(n, config):
    rng = np.random.default_rng(90 + n)
    pairs = [(Flag(random_rotation(rng, n)), Flag(random_rotation(rng, n))) for _ in range(40)]
    # frames whose first vector lies in xi_check's first line: not transverse
    for _ in range(4):
        xi_check, turn = Flag(random_rotation(rng, n)), np.eye(n)
        turn[1:, 1:] = random_rotation(rng, n - 1) if n > 2 else 1.0
        pairs.append((Flag(xi_check.rep @ turn), xi_check))
    reps = np.asarray([xi.rep for xi, _ in pairs])
    checks = np.asarray([xi_check.rep for _, xi_check in pairs])
    stacked = _comparisons(reps, checks)
    decisions = []
    for i, (xi, xi_check) in enumerate(pairs):
        one = _comparisons(xi.rep, xi_check.rep)
        assert one.tobytes() == stacked[i].tobytes()
        assert one.tobytes() == _comparisons(reps, xi_check.rep)[i].tobytes()
        assert one.tobytes() == _comparisons(xi.rep, checks)[i].tobytes()
        # J check^T is the transpose of a section's base frame, bit for bit
        assert one.tobytes() == ((xi_check.rep @ k_iota(n).T).T @ xi.rep).tobytes()
        transverse = is_transverse(xi, xi_check, config)
        assert (boundary_margins(xi.rep[np.newaxis], xi_check, config)[0] > 0) == transverse
        assert eval_sections(compact_section(xi_check), xi.rep[np.newaxis], config)[1][0] == transverse
        decisions.append(transverse)
    assert not any(decisions[40:])
    assert any(decisions[:40])


def _reference_canonical(rep):
    """The per-column gauge fix that the stacked one replaced."""
    rep = rep.copy()
    n = rep.shape[0]
    for j in range(n - 1):
        i = int(np.argmax(np.abs(rep[:, j])))
        if rep[i, j] < 0:
            rep[:, j] = -rep[:, j]
    if np.linalg.det(rep) < 0:
        rep[:, n - 1] = -rep[:, n - 1]
    return rep


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_canonical_reps_match_the_per_frame_loop(n):
    rng = np.random.default_rng(80 + n)
    frames = [random_rotation(rng, n) * rng.choice([-1.0, 1.0], size=n) for _ in range(20)]
    # every column a tie in magnitude, broken by the lowest row
    frames.append(np.full((n, n), 1.0 / np.sqrt(n)) * (np.arange(n) % 2 * 2 - 1.0))
    stacked = canonicalize_rep(np.asarray(frames))
    for frame, got in zip(frames, stacked):
        assert np.array_equal(got, _reference_canonical(frame))
        assert np.array_equal(canonicalize_rep(frame), got)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_stacked_rotations_match_one_at_a_time(n):
    rng = np.random.default_rng(n)
    dirs = _so_directions(n, 3 * n * (n - 1))
    directions = dirs[rng.integers(len(dirs), size=40)]
    angles = rng.uniform(-1.0, 1.0, size=40)
    angles[[0, 17]] = 0.0
    turns = _rotations(directions, angles)
    one_at_a_time = np.asarray([_rotation(x, t) for x, t in zip(directions, angles)])
    assert turns.tobytes() == one_at_a_time.tobytes()
    assert (turns[[0, 17]] == np.eye(n)).all()
    assert np.abs(np.swapaxes(turns, 1, 2) @ turns - np.eye(n)).max() < 1e-14
    assert np.linalg.det(turns) == pytest.approx(np.ones(40), abs=1e-14)
    expm = np.asarray([scipy.linalg.expm(t * x) for x, t in zip(directions, angles)])
    assert np.abs(turns - expm).max() < 1e-14
