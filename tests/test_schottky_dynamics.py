import itertools
import math
import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog, nnls

from chamberflow import schottky_dynamics
from chamberflow.errors import BudgetExceeded, NotGeneric, NotLoxodromic
from chamberflow.flag_boundary import boundary_margin_estimate
from chamberflow.linalg_core import (
    AMElement,
    CartanVector,
    Config,
    GroupElement,
    SignVector,
    jordan_projection,
    project_to_sl,
    random_rotation,
    sign_vectors,
)
from chamberflow.schottky_dynamics import (
    CONE_MARGIN,
    SchottkyFamily,
    SignGroupReport,
    build_schottky,
    chamber_coords,
    component_label_transport,
    cone_interior,
    coset_index,
    decorrelation_discret_check,
    jordan_line_density_probe,
    limit_cone,
    sign_group,
    stable_word_lambdas,
    word_spectrum,
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


def conjugated4(seed, logs, signs=(1, 1, 1, 1)):
    h = random_rotation(np.random.default_rng(seed), 4)
    return project_to_sl(h @ np.diag(np.multiply(signs, np.exp(logs))) @ h.T).entries


def _sl4_pair():
    return [
        conjugated4(412, [4.0, 1.5, -1.5, -4.0]),
        conjugated4(413, [5.0, 1.0, -2.0, -4.0], signs=(-1, 1, -1, 1)),
    ]


def _check_necklaces_against_mpmath(mats, max_len):
    """Every word up to max_len against the exact eigenvalues of its
    necklace's least rotation."""
    moduli = [np.abs(np.linalg.eigvals(m)) for m in mats]
    spans = [float(np.log(v.max() / v.min())) for v in moduli]
    for length in range(1, max_len + 1):
        words, lams, signs = stable_word_lambdas(mats, length)
        reps, inverse = schottky_dynamics._necklace_index(len(mats), length)
        for k, row in enumerate(reps):
            word = tuple(int(i) for i in words[row])
            dps = 30 + math.ceil(sum(spans[i] for i in word) / math.log(10))
            lam, exact_signs = _exact_word(mats, word, dps)
            members = inverse == k
            assert np.abs(lams[members] - lam).max() < 1e-8, word
            assert np.all(signs[members] == exact_signs), word


def test_necklace_words_against_mpmath(words_triple):
    # the benchmark's triple family
    _check_necklaces_against_mpmath([L.g.entries for L in words_triple.generators], 7)


def test_necklace_words_against_mpmath_in_sl4():
    # n = 4 generators of condition number 3e3 and 8e3; the certified
    # powers of test_limit_cone_in_sl4 reach 4e15, where forming one
    # product already loses the smallest eigenvalue
    _check_necklaces_against_mpmath(_sl4_pair(), 4)


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


@pytest.mark.parametrize("family, max_len", [("cone_family", 11), ("words_triple", 7)])
def test_all_length_sweep_matches_one_length_sweeps(family, max_len, request):
    fam = request.getfixturevalue(family)
    mats = [L.g.entries for L in fam.generators]
    spectrum = word_spectrum(fam, max_len, Config())
    per_length = list(zip(spectrum.words, spectrum.lambdas, spectrum.signs))
    assert len(per_length) == max_len
    for length, shared in enumerate(per_length, start=1):
        alone = stable_word_lambdas(mats, length)
        for got, want in zip(shared, alone):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), length
            assert not got.flags.writeable


def _tables(schedule):
    """Every array a sweep schedule holds."""
    fields = (*schedule.inverses, *schedule.words, *schedule.measuring, *vars(schedule).values())
    return [a for a in fields if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("family, max_len", [("cone_family", 11), ("words_triple", 7)])
def test_cold_and_warm_sweeps_are_byte_identical(family, max_len, request):
    mats = [L.g.entries for L in request.getfixturevalue(family).generators]
    cache = schottky_dynamics._sweep_schedule
    for sweep in (
        lambda: schottky_dynamics._necklace_sweep(mats, max_len),
        lambda: [stable_word_lambdas(mats, max_len)],
    ):
        cache.cache_clear()
        cold = sweep()
        warm = sweep()
        assert cache.cache_info().misses == 1 and cache.cache_info().hits == 1
        assert len(cold) == len(warm)
        for cold_length, warm_length in zip(cold, warm):
            for got, want in zip(warm_length, cold_length):
                assert got is not want
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.flags.writeable and want.flags.writeable
                assert got.tobytes() == want.tobytes()
            assert warm_length[0].dtype == np.int64


def test_a_second_spectrum_of_the_same_size_builds_no_table(cone_family, words_triple, monkeypatch):
    first = [word_spectrum(fam, 7) for fam in (cone_family, words_triple)]

    def no_table(*args):
        raise AssertionError("a sweep table was rebuilt")

    monkeypatch.setattr(schottky_dynamics, "_necklace_index", no_table)
    monkeypatch.setattr(schottky_dynamics, "_word_array", no_table)
    for fam, before in zip((cone_family, words_triple), first):
        again = word_spectrum(fam, 7)
        for field in ("words", "lambdas", "signs"):
            for got, want in zip(getattr(again, field), getattr(before, field)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sweep_schedules_are_read_only_and_compact():
    assert schottky_dynamics._sweep_schedule.cache_info().maxsize is not None
    for key in [(2, 11, 1), (2, 7, 1), (3, 7, 1), (3, 5, 1), (3, 4, 4)]:
        schedule = schottky_dynamics._sweep_schedule(*key)
        tables = _tables(schedule)
        # swept, letters, the inverses and words of each length, and one
        # measuring mask on each of the last max_len steps
        assert len(tables) == 2 + 2 * len(schedule.lengths) + key[1]
        assert not any(table.flags.writeable for table in tables), key
        for letters in (schedule.letters, schedule.swept, *schedule.words):
            assert letters.dtype == np.uint8
        for inverse, words in zip(schedule.inverses, schedule.words):
            assert inverse.dtype == np.min_scalar_type(inverse.max())
            assert np.array_equal(words, schottky_dynamics._word_array(key[0], words.shape[1]))
        with pytest.raises(ValueError, match="read-only"):
            schedule.letters[0, 0] = 1
        # the rows that have started are a prefix that only grows; each
        # length's block starts its last period once, and a row measures
        # from then on
        rows = len(schedule.swept)
        assert list(schedule.active) == sorted(schedule.active) and schedule.active[-1] == rows
        assert sorted(b for b in schedule.starting if b is not None) == sorted(schedule.blocks)
        for block in schedule.blocks:
            since = schedule.starting.index(block)
            for step, measuring in enumerate(schedule.measuring[since:], start=since):
                assert measuring.shape == (schedule.active[step], 1)
                assert measuring[block].all()
            assert all(m is None or not m[block].any() for m in schedule.measuring[:since])
    frame = schottky_dynamics._start_frame(3)
    assert not frame.flags.writeable
    assert np.allclose(frame.T @ frame, np.eye(3))


def test_writing_into_an_output_leaves_the_next_sweep_unchanged(words_triple):
    mats = [L.g.entries for L in words_triple.generators]
    first = stable_word_lambdas(mats, 5)
    saved = [a.copy() for a in first]
    for a in first:
        a[...] = 2
    again = stable_word_lambdas(mats, 5)
    for got, want in zip(again, saved):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(again[0], schottky_dynamics._word_array(3, 5))


def test_stable_word_lambdas_checks_budget_and_length_before_the_cache(words_triple, monkeypatch):
    def no_table(*args):
        raise AssertionError("a sweep table was built")

    monkeypatch.setattr(schottky_dynamics, "_necklace_index", no_table)
    monkeypatch.setattr(schottky_dynamics, "_word_array", no_table)
    cache = schottky_dynamics._sweep_schedule
    before = cache.cache_info()
    mats = [L.g.entries for L in words_triple.generators]
    # 3**12 = 531441 words, past the default budget of 200000
    with pytest.raises(BudgetExceeded, match=r"^531441 words exceeds the budget max_words = 200000$"):
        stable_word_lambdas(mats, 12)
    with pytest.raises(ValueError, match=r"^max_len = 0: word lengths start at 1$"):
        stable_word_lambdas(mats, 0)
    after = cache.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def test_limit_cone_rays_do_not_depend_on_the_longest_length(cone_family):
    short = limit_cone(cone_family, 6).rays.coords
    long = limit_cone(cone_family, 11).rays.coords
    assert len(short) == 126
    assert short.tobytes() == long[:126].tobytes()


def test_limit_cone_sweeps_all_lengths_in_one_qr_call_per_step(cone_family, monkeypatch):
    batches = []
    real = schottky_dynamics._batched_qr_positive

    def counting(frames):
        batches.append(len(frames))
        return real(frames)

    monkeypatch.setattr(schottky_dynamics, "_batched_qr_positive", counting)
    limit_cone(cone_family, 11)
    # 449 binary necklaces of lengths 1..11; length 11's schedule of
    # (3 + 1) periods is the longest, 44 steps. Each step's call takes only
    # the rows that have started: the 188 of length 11 first, all at the end
    assert len(batches) == 44 and sum(batches) == 17668
    assert batches[0] == 188 and batches[-1] == 449
    assert batches == sorted(batches)


def test_sign_group_and_probe_sweep_once(cone_family, monkeypatch):
    batches = []
    real = schottky_dynamics._batched_qr_positive

    def counting(frames):
        batches.append(len(frames))
        return real(frames)

    monkeypatch.setattr(schottky_dynamics, "_batched_qr_positive", counting)
    sign_group(cone_family, 7)
    # 57 binary necklaces of lengths 1..7; length 7's (4 + 1) periods, 35
    # steps, each on the rows that have started
    assert len(batches) == 35 and sum(batches) == 1764 and batches[-1] == 57
    batches.clear()
    theta = CartanVector(np.array([1.0, 0.2, -1.2]))
    jordan_line_density_probe(cone_family, theta, (10.0, 190.0), 11, delta0=0.5)
    assert len(batches) == 44 and sum(batches) == 17668 and batches[-1] == 449


def _graded_stack(rng, n, size, max_cond):
    """Random (size, n, n) stack U T D: U orthogonal, T unit upper
    triangular, D a decreasing column scaling with condition number up to
    max_cond."""
    u = np.linalg.qr(rng.standard_normal((size, n, n)))[0]
    t = np.eye(n) + np.triu(rng.uniform(-1.0, 1.0, (size, n, n)), 1)
    cond = 10.0 ** rng.uniform(0.0, np.log10(max_cond), size)
    cond[0] = max_cond
    scale = cond[:, np.newaxis] ** -np.linspace(0.0, 1.0, n)
    return u @ t * scale[:, np.newaxis, :]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("size", [1, 500])
def test_batched_qr_kernel(n, size):
    rng = np.random.default_rng(100 * n + size)
    a = _graded_stack(rng, n, size, 1e12)
    q, logs = schottky_dynamics._batched_qr_positive(a)
    assert q.shape == a.shape and logs.shape == (size, n)
    eps = np.finfo(float).eps
    norm_a = np.linalg.norm(a, ord=2, axis=(1, 2))
    orth = np.linalg.norm(np.swapaxes(q, 1, 2) @ q - np.eye(n), ord=2, axis=(1, 2))
    assert np.all(orth <= 10 * n * eps)
    r = np.swapaxes(q, 1, 2) @ a
    lower = np.abs(np.tril(r, -1)).max(axis=(1, 2))
    assert np.all(lower <= 10 * n * eps * norm_a)
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(diag > 0)
    col_norms = np.linalg.norm(a, axis=1)
    assert np.all(np.abs(diag - np.exp(logs)) <= 10 * n * eps * col_norms)
    lapack = np.log(np.abs(np.diagonal(np.linalg.qr(a)[1], axis1=1, axis2=2)))
    assert np.abs(logs - lapack).max() <= 1e-12


def test_batched_qr_kernel_bits_do_not_depend_on_the_stack():
    for n in (2, 3, 4, 5):
        a = _graded_stack(np.random.default_rng(5), n, 500, 1e12)
        q, logs = schottky_dynamics._batched_qr_positive(a)
        # slices of the stack, and the prefix views frames[:a] the sweep passes
        for rows in (slice(0, 1), slice(7, 9), slice(123, 311), slice(0, 2), slice(0, 188), slice(0, 449)):
            q_part, logs_part = schottky_dynamics._batched_qr_positive(a[rows])
            assert q_part.tobytes() == np.ascontiguousarray(q[rows]).tobytes(), (n, rows)
            assert logs_part.tobytes() == np.ascontiguousarray(logs[rows]).tobytes(), (n, rows)


def _frozen_sum_rows(a):
    total = a[0]
    for row in a[1:]:
        total = total + row
    return total


def _frozen_qr(frames):
    """The word engine's Gram-Schmidt QR as it stood before its sums were
    written as in-place row adds: the oracle for its bits."""
    n = frames.shape[-1]
    cols = np.ascontiguousarray(frames.transpose(2, 1, 0))
    q = np.empty_like(cols)
    norms = np.empty((n, len(frames)))
    for j in range(n):
        v = cols[j]
        for _ in range(2 if j else 0):
            coeffs = _frozen_sum_rows((q[:j] * v).swapaxes(0, 1))
            v = v - _frozen_sum_rows(coeffs[:, np.newaxis] * q[:j])
        norms[j] = np.sqrt(_frozen_sum_rows(v * v))
        np.divide(v, norms[j], out=q[j])
    return np.ascontiguousarray(q.transpose(2, 1, 0)), np.log(norms).T


def _frozen_sweep(mats, max_len, min_len):
    """The word engine's step loop as it stood before it stepped only the
    rows that have started: every row goes into every QR call, rows not yet
    started are put back by np.where, and logs are masked in on every
    step. Rows are in length order."""
    lengths = range(min_len, max_len + 1)
    necklaces = [schottky_dynamics._necklace_index(len(mats), k) for k in lengths]
    words = [schottky_dynamics._word_array(len(mats), k) for k in lengths]
    bounds = np.cumsum([0] + [len(reps) for reps, _ in necklaces])
    lens = np.repeat(lengths, np.diff(bounds))
    swept = np.zeros((len(lens), max_len), dtype=words[0].dtype)
    for (reps, _), word, lo, hi in zip(necklaces, words, bounds, bounds[1:]):
        swept[lo:hi, : word.shape[1]] = word[reps]
    span = (np.maximum(2, np.ceil(24.0 / lens).astype(int)) + 1) * lens
    t = np.arange(span.max())[:, np.newaxis]
    begin = t.size - span
    measure_from = t.size - lens
    n = mats[0].shape[0]
    frames = np.broadcast_to(schottky_dynamics._start_frame(n), (len(lens), n, n)).copy()
    start = frames
    lam = np.zeros((len(lens), n))
    stacked = np.asarray(mats)
    for letters, waiting, starting, measuring in zip(
        swept[np.arange(len(lens)), (t - begin) % lens],
        (t < begin)[:, :, np.newaxis, np.newaxis],
        (t == measure_from)[:, :, np.newaxis, np.newaxis],
        (t >= measure_from)[:, :, np.newaxis],
    ):
        if starting.any():
            start = np.where(starting, frames, start)
        moved, logs = _frozen_qr(stacked[letters] @ frames)
        frames = np.where(waiting, frames, moved) if waiting.any() else moved
        lam += np.where(measuring, logs, 0.0)
    lam -= lam.mean(axis=1, keepdims=True)
    overlap = np.einsum("bij,bij->bj", start, frames)
    signs = np.where(overlap < 0, -1, 1)
    return [
        (word.astype(np.int64), lam[lo:hi][inverse], signs[lo:hi][inverse])
        for (_, inverse), word, lo, hi in zip(necklaces, words, bounds, bounds[1:])
    ]


@pytest.mark.parametrize(
    "family",
    ["cone_family", "sign_family", "single_sign_family", "shared_lead_family", "words_triple", "sl4"],
)
def test_sweep_matches_the_frozen_step_loop_bit_for_bit(family, request):
    if family == "sl4":
        mats = _sl4_pair()
    else:
        mats = [L.g.entries for L in request.getfixturevalue(family).generators]
    for max_len, min_len in [(6, 1), (5, 5), (8, 1), (4, 2), (11, 1), (7, 1)]:
        if sum(len(mats) ** k for k in range(min_len, max_len + 1)) > Config().max_words:
            continue
        got = schottky_dynamics._necklace_sweep(mats, max_len, min_len)
        want = _frozen_sweep(mats, max_len, min_len)
        assert len(got) == len(want) == max_len - min_len + 1
        for got_length, want_length in zip(got, want):
            for a, b in zip(got_length, want_length):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (family, max_len, min_len)


def test_frozen_qr_is_the_kernel_bit_for_bit():
    rng = np.random.default_rng(27)
    for n in (2, 3, 4, 5):
        for size in (1, 7, 449):
            a = _graded_stack(rng, n, size, 1e12)
            for got, want in zip(schottky_dynamics._batched_qr_positive(a), _frozen_qr(a)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _uncertified_family(mats):
    """A family record around raw matrices, for the word engine alone."""
    gens = tuple(SimpleNamespace(g=SimpleNamespace(entries=m, n=m.shape[0])) for m in mats)
    return SchottkyFamily(gens, 0.0, 0.0, (), np.zeros((len(mats), len(mats))))


def _stalling_letter():
    """r's top two eigenvalues share the modulus e: a frame turns by theta
    per letter inside their plane and never converges, and its overlap
    over a word r^k is cos(k theta); theta / pi = sqrt(2) / 10 is
    irrational, with |cos(k theta)| >= 1/2 for k = 1, 2 and < 1/2 for k = 3"""
    h = random_rotation(np.random.default_rng(7), 3)
    block = np.zeros((3, 3))
    block[:2, :2] = np.e * rotation2(np.pi * np.sqrt(2) / 10)
    block[2, 2] = np.exp(-2.0)
    return h @ block @ h.T


def test_stalled_necklace_is_named_at_its_own_length():
    mats = [conjugated(168, np.exp([7.0, 2.0, -9.0])), _stalling_letter()]
    fam = _uncertified_family(mats)
    message = r"^1 of 4 necklaces of length 3 have no converged attracting frame \(first: \(1, 1, 1\)\)$"
    assert [len(words) for words in word_spectrum(fam, 2).words] == [2, 4]
    # rows of lengths 1..5 share the sweep, zero-padded to length 5
    with pytest.raises(NotLoxodromic, match=message):
        word_spectrum(fam, 5)
    with pytest.raises(NotLoxodromic, match=message):
        stable_word_lambdas(mats, 3)


def test_sign_group_refuses_a_stalled_necklace_past_its_early_break():
    # the two sign letters reach p = n - 1 at length 1, so the elimination
    # stops there, but the spectrum it reads runs to max_len
    mats = [
        conjugated(168, [-150.0, -1.0, 1 / 150.0]),
        conjugated(169, [150.0, -1.0, -1 / 150.0]),
        _stalling_letter(),
    ]
    fam = _uncertified_family(mats)
    assert sign_group(fam, 2).p == 2
    with pytest.raises(NotLoxodromic, match=r"of length 3 .* \(first: \(2, 2, 2\)\)$"):
        sign_group(fam, 5)


def test_unit_rays_refuse_a_vanishing_jordan_projection():
    lams = np.array([[2.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotLoxodromic, match="1 of 2 words"):
        schottky_dynamics._unit_rays(lams)


def test_word_sweep_budget(cone_family):
    with pytest.raises(BudgetExceeded):
        limit_cone(cone_family, 10, Config(max_words=1000))
    with pytest.raises(BudgetExceeded):
        sign_group(cone_family, 10, Config(max_words=1000))
    theta = CartanVector(np.array([1.0, 0.2, -1.2]))
    with pytest.raises(BudgetExceeded):
        jordan_line_density_probe(cone_family, theta, (10.0, 60.0), 10, config=Config(max_words=1000))


@pytest.mark.parametrize("max_len", [0, -1])
def test_word_lengths_start_at_one(cone_family, max_len):
    message = rf"^max_len = {max_len}: word lengths start at 1$"
    theta = CartanVector(np.array([1.0, 0.2, -1.2]))
    mats = [L.g.entries for L in cone_family.generators]
    for call in (
        lambda: stable_word_lambdas(mats, max_len),
        lambda: word_spectrum(cone_family, max_len),
        lambda: limit_cone(cone_family, max_len),
        lambda: sign_group(cone_family, max_len),
        lambda: jordan_line_density_probe(cone_family, theta, (10.0, 60.0), max_len),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_build_schottky_refuses_an_empty_seed_list():
    with pytest.raises(ValueError, match=r"^a Schottky family needs at least one seed$"):
        build_schottky([], 0.15, 0.15)


@pytest.mark.parametrize("length", [2, 0])
def test_word_sweep_refuses_an_empty_generator_list(monkeypatch, length):
    # refused before the length check and before the schedule cache is read
    def no_schedule(*args):
        raise AssertionError("the schedule cache was read")

    monkeypatch.setattr(schottky_dynamics, "_sweep_schedule", no_schedule)
    with pytest.raises(ValueError, match=r"^a word sweep needs at least one generator$"):
        stable_word_lambdas([], length)


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


def test_build_schottky_margins_match_per_pair_estimates(sl3_triple):
    # the m x m margins come from one stack; each equals its per-pair
    # boundary_margin_estimate bit for bit
    seeds = [L.g for L in sl3_triple]
    fam = build_schottky(seeds, 0.17, 0.17)
    per_pair = np.array([[boundary_margin_estimate(a.attracting, b.repelling) for b in sl3_triple] for a in sl3_triple])
    assert fam.pairwise_margins.shape == (3, 3)
    assert fam.pairwise_margins.tobytes() == per_pair.tobytes()
    # past a margin's 6r, the refusal names the first pair below 6r in
    # row-major order, as a loop over the pairs would
    for margin in np.unique(per_pair):
        r = 1.0001 * margin / 6
        i, j = next((i, j) for i in range(3) for j in range(3) if per_pair[i, j] < 6 * r)
        message = f"margin d(g{i}+, boundary b(g{j}-)) = {per_pair[i, j]:.4f} < 6r"
        with pytest.raises(NotGeneric, match=f"^{re.escape(message)}$"):
            build_schottky(seeds, r, 0.17)


def test_limit_cone_single_generator(cone_family):
    single = build_schottky([cone_family.generators[0].g], 0.15, 0.15)
    cone = limit_cone(single, 3)
    assert len(cone.hull) == 1
    lam = single.generators[0].lam.coords
    assert np.abs(cone.hull[0].coords - lam / np.linalg.norm(lam)).max() < 1e-9


def test_limit_cone_rays_are_one_read_only_array(cone_family):
    mats = [L.g.entries for L in cone_family.generators]
    unit = np.concatenate(
        [schottky_dynamics._unit_rays(stable_word_lambdas(mats, k)[1]) for k in range(1, 7)]
    )
    rays = limit_cone(cone_family, 6).rays
    assert len(rays) == len(unit) == 2 + 4 + 8 + 16 + 32 + 64
    # one CartanVector per ray is the oracle, bit for bit
    oracle = np.array([CartanVector(ray).coords for ray in unit])
    assert rays.coords.shape == oracle.shape
    assert rays.coords.tobytes() == oracle.tobytes()
    assert rays[5].coords.tobytes() == oracle[5].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rays.coords[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rays[0].coords[0] = 1.0
    assert rays.coords.tobytes() == oracle.tobytes()


def _in_cone_hull(cone, direction):
    """A nonnegative combination of the hull rays, to an nnls residual of
    sqrt(1e-9)."""
    hull = np.array([h.coords for h in cone.hull]).T
    return nnls(hull, direction / np.linalg.norm(direction))[1] <= np.sqrt(1e-9)


def test_limit_cone_hull_contains_all_rays(cone_family):
    cone = limit_cone(cone_family, 4)
    for ray in cone.rays:
        assert _in_cone_hull(cone, ray.coords)


@pytest.fixture(scope="module")
def sl4_family():
    return build_schottky(
        [conjugated4(412, [9.0, 3.0, -3.0, -9.0]), conjugated4(413, [10.0, 2.0, -4.0, -8.0])],
        0.12,
        0.12,
    )


def test_limit_cone_in_sl4(sl4_family):
    # n = 4: the hull is taken by ConvexHull in the 3-D chamber coordinates
    cone = limit_cone(sl4_family, 4)
    rays = cone.rays.coords
    assert rays.shape == (2 + 4 + 8 + 16, 4)
    assert len(cone.hull) >= 3
    for h in cone.hull:
        assert np.abs(rays - h.coords).max(axis=1).min() < 1e-12
    for ray in rays:
        assert _in_cone_hull(cone, ray)
    # every hull ray is extreme: none is a nonnegative combination of the others
    hull = np.array([h.coords for h in cone.hull])
    for i, h in enumerate(hull):
        assert nnls(np.delete(hull, i, axis=0).T, h)[1] > 1e-9


def test_limit_cone_hulls_are_nested(cone_family):
    small = limit_cone(cone_family, 2)
    large = limit_cone(cone_family, 4)
    for h in small.hull:
        assert _in_cone_hull(large, h.coords)


def test_cone_interior_and_exterior(cone_family):
    cone = limit_cone(cone_family, 4)
    mats = [L.g.entries for L in cone_family.generators]
    _, lams, _ = stable_word_lambdas(mats, 2)
    interior_dir = lams[1] / np.linalg.norm(lams[1])  # a mixed word
    assert cone_interior(cone, interior_dir)
    exterior = np.array([1.0, 0.8, -1.8])
    assert not cone_interior(cone, exterior / np.linalg.norm(exterior))


def _lp_t_star(cone, direction):
    """The largest smallest coefficient of a combination of the hull rays
    equal to the unit direction, by linprog; None if there is none."""
    hull = np.array([h.coords for h in cone.hull]).T
    m = hull.shape[1]
    res = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.hstack([hull, np.zeros((len(hull), 1))]),
        b_eq=direction / np.linalg.norm(direction),
        bounds=[(None, None)] * (m + 1),
        method="highs",
    )
    return -res.fun if res.success else None


def _lp_calls(monkeypatch):
    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


def _decisions(cone, directions):
    ours = [cone_interior(cone, d) for d in directions]
    oracle = [t is not None and t > CONE_MARGIN for t in (_lp_t_star(cone, d) for d in directions)]
    return ours, oracle


def test_cone_interior_matches_the_lp_on_a_simplicial_hull(cone_family, monkeypatch):
    cone = limit_cone(cone_family, 4)
    h0, h1 = (h.coords for h in cone.hull)
    directions = list(cone.rays.coords) + [np.array([1.0, 0.8, -1.8])]
    # just inside and just outside the hull ray h0, and inside by less than the margin
    directions += [h0 + s * CONE_MARGIN * (h1 - h0) for s in (2.0, -2.0, 0.5)]
    directions.append(h0 + h1 + 1e-3)  # off the sum-zero plane
    calls = _lp_calls(monkeypatch)
    ours, oracle = _decisions(cone, directions)
    assert ours == oracle
    assert ours[-4:] == [True, False, False, False]
    assert sum(ours) > 0 and not all(ours)
    # the closed form decided every direction; the oracle's linprog was bound at import
    assert calls == []


def test_cone_interior_keeps_the_lp_for_more_than_n_minus_one_rays(sl4_family, monkeypatch):
    cone = limit_cone(sl4_family, 4)
    assert len(cone.hull) > 3
    hull = np.array([h.coords for h in cone.hull])
    directions = list(cone.rays.coords) + [hull.mean(axis=0), hull[0] - 0.1 * hull.mean(axis=0)]
    calls = _lp_calls(monkeypatch)
    ours, oracle = _decisions(cone, directions)
    assert ours == oracle
    assert ours[-2:] == [True, False]
    assert len(calls) == len(directions)  # one LP per cone_interior call


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


def test_sign_group_spans_m_from_rows_with_a_shared_leading_sign(shared_lead_family):
    report = sign_group(shared_lead_family, 3)
    assert (report.p, report.order) == (2, 4)
    assert [b.signs for b in report.basis] == [(-1, -1, 1), (-1, 1, -1)]
    # M_Gamma = M: every sign vector lies in the trivial coset
    assert {coset_index(m, report) for m in sign_vectors(3)} == {(0, 0, 0)}


def _brute_force_span(basis, n):
    """The span of basis as sign tuples, by multiplying out every subset."""
    span = {SignVector.identity(n).signs}
    for b in basis:
        span |= {(SignVector(s) * b).signs for s in span}
    return span


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coset_index_is_the_least_element_of_each_coset(n):
    rng = np.random.default_rng(2400 + n)
    elements = sign_vectors(n)
    for _ in range(20):
        picks = rng.integers(0, len(elements), size=rng.integers(0, n + 1))
        basis = [elements[i] for i in picks]
        if len(basis) >= 2:
            basis.append(basis[0] * basis[1])  # a dependent row
        span = _brute_force_span(basis, n)
        report = SignGroupReport(tuple(basis), len(span), len(span).bit_length() - 1, ())
        index = {m: coset_index(m, report) for m in elements}
        for m in elements:
            # the least bit tuple (first sign most significant) of the coset
            least = min(tuple(int(x * y < 0) for x, y in zip(m.signs, s)) for s in span)
            assert index[m] == least
        for m1, m2 in itertools.product(elements, repeat=2):
            assert (index[m1] == index[m2]) == ((m1 * m2).signs in span)


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


def _assert_identity_and_generators_are_trivial(fam, report):
    start = _start_coords(fam)
    trivial = component_label_transport((), fam, start, report)
    assert not any(trivial)
    for idx, L in enumerate(fam.generators):
        label = component_label_transport((idx,), fam, start, report)
        # generator sign patterns lie inside the sign group: trivial coset
        assert not any(label)


def test_label_transport_identity_and_generators(single_sign_family):
    report = sign_group(single_sign_family, 3)
    assert report.p == 1
    _assert_identity_and_generators_are_trivial(single_sign_family, report)


def test_label_transport_identity_and_generators_at_full_sign_group(shared_lead_family):
    report = sign_group(shared_lead_family, 3)
    assert report.p == 2
    _assert_identity_and_generators_are_trivial(shared_lead_family, report)


def test_label_transport_picks_sections_under_its_config(monkeypatch, single_sign_family):
    fam = single_sign_family
    report = sign_group(fam, 3)
    start = _start_coords(fam)
    config = Config(tol_minor=1e-6)
    seen = []

    def spy(family, xi, *rest):
        seen.append(rest)
        return best_section(family, xi, *rest)

    monkeypatch.setattr(schottky_dynamics, "best_section", spy)
    component_label_transport((0, 1, 1), fam, start, report, config)
    assert seen == [(config,)] * 3


def _assert_label_homomorphism(fam):
    """Check the label of w1 w2 against those of w1 and w2 on random word
    pairs; return every label seen."""
    report = sign_group(fam, 3)
    start = _start_coords(fam)
    rng = np.random.default_rng(7)
    seen = set()

    def mul(b1, b2):
        return tuple((x + y) % 2 for x, y in zip(b1, b2))

    for _ in range(15):
        w1 = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        w2 = tuple(rng.integers(0, 2, size=rng.integers(1, 4)))
        l1 = component_label_transport(w1, fam, start, report)
        l2 = component_label_transport(w2, fam, start, report)
        l12 = component_label_transport(w1 + w2, fam, start, report)
        assert l12 == mul(l1, l2)
        seen |= {l1, l2, l12}
    return seen


def test_label_transport_is_a_homomorphism(single_sign_family):
    _assert_label_homomorphism(single_sign_family)


def test_label_transport_is_a_homomorphism_at_full_sign_group(shared_lead_family):
    # M_Gamma = M: every label is trivial, for words of both generators too
    assert _assert_label_homomorphism(shared_lead_family) == {(0, 0, 0)}


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


@pytest.mark.parametrize(
    "coords, message",
    [
        ([1.0, 0.0, -1.0, 0.0], r"^theta = \[1\.0, 0\.0, -1\.0, 0\.0\] is not a finite nonzero vector of R\^3$"),
        ([1.0, 1.0, 1.0], r"^theta = \[0\.0, 0\.0, 0\.0\] is not a finite nonzero vector of R\^3$"),
        ([np.nan, 0.0, 0.0], r"^theta = \[nan, nan, nan\] is not a finite nonzero vector of R\^3$"),
    ],
    ids=["dimension", "zero", "nan"],
)
def test_line_density_probe_checks_theta_before_sweeping(cone_family, monkeypatch, coords, message):
    def no_sweep(frames):
        raise AssertionError("the word engine ran")

    monkeypatch.setattr(schottky_dynamics, "_batched_qr_positive", no_sweep)
    with pytest.raises(ValueError, match=message):
        jordan_line_density_probe(cone_family, CartanVector(np.array(coords)), (10.0, 60.0), 4)


@pytest.mark.parametrize(
    "window, shown",
    [
        ((1.0,), r"\[1\.0\]"),
        ((20.0, 1.0), r"\[20\.0, 1\.0\]"),
        ((np.nan, 1.0), r"\[nan, 1\.0\]"),
        ((1.0, np.inf), r"\[1\.0, inf\]"),
        ((1.0, 2.0, 3.0), r"\[1\.0, 2\.0, 3\.0\]"),
    ],
    ids=["one-number", "lo-above-hi", "nan", "inf", "three-numbers"],
)
def test_line_density_probe_checks_window_before_sweeping(cone_family, monkeypatch, window, shown):
    def no_sweep(frames):
        raise AssertionError("the word engine ran")

    monkeypatch.setattr(schottky_dynamics, "_batched_qr_positive", no_sweep)
    theta = CartanVector(np.array([1.0, 0.2, -1.2]))
    with pytest.raises(ValueError, match=rf"^window = {shown} is not two finite numbers lo <= hi$"):
        jordan_line_density_probe(cone_family, theta, window, 4)


def test_line_density_probe_reports_no_gap_below_two_hits(cone_family):
    # along the first generator's ray, its powers hit t = 11.58 k
    theta = cone_family.generators[0].lam
    for window, hits in [((10.0, 20.0), 1), ((12.0, 20.0), 0)]:
        stats = jordan_line_density_probe(cone_family, theta, window, 3, delta0=0.5)
        assert stats["hits"] == hits
        assert stats["max_gap"] is None and stats["mean_gap"] is None


def test_chamber_coords_are_isometric():
    v = np.array([2.0, -0.5, -1.5])
    w = chamber_coords(v)
    assert w.shape == (2,)
    assert np.isclose(np.linalg.norm(w), np.linalg.norm(v))
    # a stack of vectors maps row by row
    assert np.allclose(chamber_coords(np.stack([v, -2 * v])), [w, -2 * w], rtol=0, atol=1e-15)
