import numpy as np
import pytest

from chamberflow.errors import BudgetExceeded, NonInvertible, NotInBigCell, NotLoxodromic
from chamberflow.linalg_core import (
    AMElement,
    CartanVector,
    GroupElement,
    DEFAULT_CONFIG,
    MAX_SAMPLE_TRIES,
    SignVector,
    _cartan_normal_form,
    _kan_stack,
    _lu_stack,
    _unit_lower,
    am_distance,
    bruhat_lu,
    cartan_kak,
    iwasawa_kan,
    iwasawa_kan_minus,
    jordan_projection,
    project_to_sl,
    random_group_element,
    sign_vectors,
)
from chamberflow.loxodromy import classify


def test_group_element_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        GroupElement(np.diag([2.0, 1.0]))


def test_group_element_bounds_the_determinant_without_forming_the_power():
    # the tolerance is TOL_DET * prod_j |col_j| (Hadamard): about 0.1 for
    # two columns of norm 1e4
    GroupElement(np.array([[1e4, 1e4], [0.0, 1.05e-4]]))
    with pytest.raises(ValueError, match="determinant 1.2"):
        GroupElement(np.array([[1e4, 1e4], [0.0, 1.2e-4]]))
    # large diagonal entries alone widen nothing: |det - 1| is held to
    # TOL_DET |det|, far from SL(n) however large the entries
    for diag in ([1e4, 1e4, 1e-5], [1e120, 2e-60, 1e-60], [1e3, 1e3, 1.9e-6]):
        with pytest.raises(ValueError, match="determinant"):
            GroupElement(np.diag(diag))
    # max|entry|^3 = 1e360 overflows a float; the bound is compared in logs,
    # so no OverflowError escapes
    assert GroupElement(np.diag([1e120, 1e-60, 1e-60])).n == 3
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="determinant inf"):
        GroupElement(np.diag([1e200, 1e200, 1e200]))


@pytest.mark.parametrize(
    "mat, message",
    [
        ([[np.inf, 0.0], [0.0, 1.0]], "non-finite or overflows"),
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite or overflows"),
        ([[1.5e308, 0.0], [1.5e308, 1.0]], "non-finite or overflows"),
        ([[0.0, 0.0], [0.0, 1.0]], "zero diagonal entry"),
    ],
    ids=["inf", "nan", "overflow", "singular"],
)
def test_kan_stack_names_a_non_finite_input(mat, message):
    with pytest.raises(NonInvertible, match=message):
        _kan_stack(np.asarray(mat)[np.newaxis])


def test_random_group_element_gives_up_on_singular_draws():
    class SingularDraws:
        def __init__(self):
            self.draws = 0

        def standard_normal(self, shape):
            self.draws += 1
            return np.zeros(shape)

    rng = SingularDraws()
    with pytest.raises(BudgetExceeded):
        random_group_element(rng, 3)
    assert rng.draws == MAX_SAMPLE_TRIES


def test_project_to_sl_normalizes_and_fixes_orientation():
    g = project_to_sl(np.diag([-3.0, 2.0, 1.0]))
    assert np.isclose(np.linalg.det(g.entries), 1.0)


def test_kan_factor_shapes():
    rng = np.random.default_rng(0)
    g = random_group_element(rng, 4)
    t = iwasawa_kan(g)
    assert np.allclose(t.k.T @ t.k, np.eye(4), atol=1e-12)
    assert np.allclose(np.tril(t.u, -1), 0.0)
    assert np.allclose(np.diag(t.u), 1.0)
    assert np.allclose(t.reconstruct(), g.entries, atol=1e-12)


def test_kan_minus_is_lower_unitriangular():
    rng = np.random.default_rng(1)
    g = random_group_element(rng, 3)
    t = iwasawa_kan_minus(g)
    assert np.allclose(np.triu(t.u, 1), 0.0)
    assert np.allclose(np.diag(t.u), 1.0)
    assert np.allclose(t.reconstruct(), g.entries, atol=1e-12)


def test_cartan_middle_part_is_ordered():
    rng = np.random.default_rng(2)
    g = random_group_element(rng, 3)
    k1, a, k2 = cartan_kak(g)
    assert a.tag == "chamber_plus"
    assert np.all(np.diff(a.coords) <= 1e-12)
    assert np.allclose(np.linalg.det(k1), 1.0) and np.allclose(np.linalg.det(k2), 1.0)
    assert np.allclose(k1 @ np.diag(np.exp(a.coords)) @ k2, g.entries, atol=1e-12)


def test_jordan_projection_of_diagonal():
    lam = jordan_projection(GroupElement(np.diag([4.0, 1.0, 0.25])))
    assert np.allclose(lam.coords, [np.log(4.0), 0.0, -np.log(4.0)])


def test_jordan_projection_complex_pair_shares_modulus():
    # block-diagonal: a rotation (complex pair on the unit circle) plus 2, 1/2
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mat = np.zeros((4, 4))
    mat[:2, :2] = rot
    mat[2, 2], mat[3, 3] = 2.0, 0.5
    lam = jordan_projection(GroupElement(mat))
    assert np.allclose(lam.coords, [np.log(2.0), 0.0, 0.0, -np.log(2.0)], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jordan_projection_is_the_lambda_of_classify_bit_for_bit(n):
    # one eigenvalue route: both read the moduli off np.linalg.eig
    rng = np.random.default_rng(90 + n)
    checked = 0
    while checked < 20:
        h = random_group_element(rng, n).entries
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[-1] = np.prod(signs[:-1])
        g = project_to_sl(h @ np.diag(signs * np.exp(rng.uniform(-3.0, 3.0, n))) @ np.linalg.inv(h))
        try:
            lam = classify(g).lam
        except NotLoxodromic:
            continue
        assert jordan_projection(g).coords.tobytes() == lam.coords.tobytes()
        checked += 1


def test_bruhat_round_trip_and_sign_parity():
    rng = np.random.default_rng(3)
    done = 0
    while done < 10:
        g = random_group_element(rng, 3)
        try:
            lower, x, upper = bruhat_lu(g)
        except NotInBigCell:
            continue
        assert np.allclose(lower @ x.matrix() @ upper, g.entries, atol=1e-9)
        assert int(np.prod(x.m.signs)) == 1
        assert np.allclose(np.diag(lower), 1.0) and np.allclose(np.diag(upper), 1.0)
        done += 1


def test_bruhat_rejects_cell_boundary():
    anti = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(NotInBigCell):
        bruhat_lu(GroupElement(anti))


def test_leading_minors_match_bruhat_diagonal():
    rng = np.random.default_rng(4)
    g = random_group_element(rng, 3)
    try:
        _, x, _ = bruhat_lu(g)
    except NotInBigCell:
        return
    minors = [np.linalg.det(g.entries[:k, :k]) for k in range(1, 4)]
    # minor_k = prod of the first k diagonal entries of the AM part
    prods = np.cumprod(np.asarray(x.m.signs, dtype=float) * np.exp(x.a.coords))
    assert np.allclose(minors, prods, rtol=1e-9)


def test_cartan_vector_tags():
    CartanVector([1.0, 0.0, -1.0], tag="chamber_plus_plus")
    with pytest.raises(ValueError):
        CartanVector([0.0, 1.0, -1.0], tag="chamber_plus")
    with pytest.raises(ValueError):
        CartanVector([1.0, 1.0, -2.0], tag="chamber_plus_plus")


def test_cartan_normal_form_of_a_stack_is_per_vector():
    rows = np.random.default_rng(5).standard_normal((50, 3))
    stack = _cartan_normal_form(rows)
    assert not stack.flags.writeable
    assert stack.tobytes() == np.array([CartanVector(r).coords for r in rows]).tobytes()
    # a vector too large for its trace-free drift to stay below 1e-10 is
    # refused alone and inside a stack, with the same error
    bad = [1e9, 1.0, 3.0]
    with pytest.raises(ValueError, match="must sum to 0"):
        CartanVector(bad)
    with pytest.raises(ValueError, match="must sum to 0"):
        _cartan_normal_form(np.vstack([rows, bad]))


def test_sign_vector_group_law():
    with pytest.raises(ValueError):
        SignVector((1, -1))  # product -1
    assert len(sign_vectors(3)) == 4
    m = SignVector((-1, -1, 1))
    assert (m * m).signs == (1, 1, 1)


def test_am_element_algebra():
    x = AMElement(CartanVector([1.0, -1.0]), SignVector((-1, -1)))
    assert (x * x.inv()).a.coords.tolist() == [0.0, 0.0]
    assert (x ** 2).m.signs == (1, 1)
    assert (x ** 3).m.signs == (-1, -1)
    assert np.allclose((x ** 3).a.coords, [3.0, -3.0])


def test_am_distance_across_components_is_infinite():
    x = AMElement(CartanVector([1.0, -1.0]), SignVector((-1, -1)))
    y = AMElement(CartanVector([1.0, -1.0]), SignVector((1, 1)))
    assert am_distance(x, y) == float("inf")
    assert am_distance(x, x) == 0.0


def test_decompositions_are_deterministic():
    rng = np.random.default_rng(5)
    g = random_group_element(rng, 3)
    t1, t2 = iwasawa_kan(g), iwasawa_kan(g)
    assert np.array_equal(t1.k, t2.k) and np.array_equal(t1.u, t2.u)


def _reference_lu(mat, tol_minor):
    """The per-matrix Doolittle loop that the stacked one replaced: (lower,
    upper triangle, None) or (None, None, (failing index, pivot))."""
    n = mat.shape[0]
    a = mat.copy()
    lower = np.eye(n)
    scale = float(np.abs(mat).max())
    for k in range(n):
        piv = a[k, k]
        if abs(piv) <= tol_minor * scale:
            return None, None, (k, float(piv))
        factors = a[k + 1:, k] / piv
        lower[k + 1:, k] = factors
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
    return lower, np.triu(a), None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_lu_matches_the_per_matrix_loop(n):
    rng = np.random.default_rng(70 + n)
    mats = list(rng.standard_normal((6, n, n)))
    # one matrix failing at each pivot: a vanishing leading minor of size k + 1
    for k in range(n):
        mat = rng.standard_normal((n, n))
        mat[k, : k + 1] = rng.standard_normal(k) @ mat[:k, : k + 1] if k else 0.0
        mats.append(mat)
    a, first_fail = _lu_stack(np.asarray(mats), DEFAULT_CONFIG)
    lower = _unit_lower(a)
    for i, mat in enumerate(mats):
        ref_lower, ref_upper, failure = _reference_lu(mat, DEFAULT_CONFIG.tol_minor)
        if failure is None:
            assert first_fail[i] == n
            assert np.array_equal(lower[i], ref_lower)
            assert np.array_equal(np.triu(a[i]), ref_upper)
        else:
            assert (first_fail[i], a[i, failure[0], failure[0]]) == failure
    assert first_fail[-n:].tolist() == list(range(n))


