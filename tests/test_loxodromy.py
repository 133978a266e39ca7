import dataclasses

import mpmath
import numpy as np
import pytest

from chamberflow import loxodromy, sections_cocycles
from chamberflow.errors import (
    BudgetExceeded,
    CertificationFailure,
    ChamberflowError,
    HypothesisViolated,
    NotLoxodromic,
    OutOfDomain,
)
from chamberflow.flag_boundary import (
    Flag,
    _rotation,
    _so_directions,
    act,
    boundary_margin_estimate,
    flag_distance,
    flags_equal,
    is_transverse,
    k_iota,
    opposite_flag,
    standard_flag,
)
from chamberflow.linalg_core import AMElement, Config, DEFAULT_CONFIG, GroupElement, am_distance, random_rotation
from chamberflow.loxodromy import (
    REpsCertificate,
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
from chamberflow.sections_cocycles import Section, cocycle, compact_section

from conftest import conjugated, rotation2


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


def test_certification_refuses_a_non_transverse_pair_in_clause_i():
    # margin 0, so any r > 0 fails clause (i) before a flag is drawn
    L = classify(GroupElement(np.diag([100.0, 0.01])))
    folded = dataclasses.replace(L, repelling=L.attracting)
    assert boundary_margin_estimate(folded.attracting, folded.repelling) == 0.0
    with pytest.raises(CertificationFailure) as exc:
        certify_r_eps(folded, 0.3, 0.3)
    assert exc.value.clause == "i"


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


def test_product_estimate_refuses_a_non_transverse_pair_by_its_margin():
    # g2- is g1+: the pair is not transverse, so its margin is 0 < 6r
    L1 = classify(GroupElement(np.diag([9.0, 1 / 9.0])))
    L2 = classify(GroupElement(np.diag([1 / 9.0, 9.0])))
    assert flags_equal(L2.repelling, L1.attracting)
    sections = [compact_section(L1.repelling), compact_section(L1.repelling), compact_section(L2.repelling)]
    with pytest.raises(HypothesisViolated) as info:
        product_estimate([L1, L2], [1, 1], L2.attracting, sections, 0.1, 0.1, 0.5)
    assert info.value.clause == "*"


def _per_pair_refusal(family, xi0, sections, r, eps):
    """Hypotheses * and ** of product_estimate, one pair at a time in their
    order: the detail of the first refusal, or None."""
    l = len(family)
    for i in range(1, l + 1):
        gi = family[i - 1]
        prev = family[i - 2] if i >= 2 else family[l - 1]
        for point, label in ((prev.attracting, f"g{i - 1}+"), (gi.attracting, f"g{i}+")):
            m = boundary_margin_estimate(point, gi.repelling)
            if r > m / 6.0:
                return "*", f"r={r} > margin/6 = {m / 6.0:.4f} for {label}"
    if boundary_margin_estimate(xi0, family[0].repelling) < eps:
        return "*", "xi0 is within eps of the boundary of b(g1-)"
    needed = [(sections[0], xi0)] + [(sections[i], family[i - 1].attracting) for i in range(1, l + 1)]
    if not all(is_transverse(point, s.base) for s, point in needed):
        return "**", "a required flag is outside its section domain"
    return None


def test_product_estimate_refuses_as_the_per_pair_checks_do(sl3_triple):
    # the stacked margins and transversality tests refuse the same
    # hypothesis, with the same message, as per-pair calls
    family = list(sl3_triple)
    good = [compact_section(family[0].repelling)] + [compact_section(L.repelling) for L in family]
    # g1+ is not transverse to itself: its section domain misses it
    bad = [good[0], compact_section(family[0].attracting)] + good[2:]
    margins = sorted(
        boundary_margin_estimate(point, L.repelling) for L in family for point in (M.attracting for M in family)
    )
    seen = set()
    for sections in (good, bad):
        for xi0 in (family[2].attracting, family[0].repelling):
            for r in [0.01] + [1.0001 * m / 6 for m in margins]:
                for eps in (0.01, 0.5, 2.0):
                    want = _per_pair_refusal(family, xi0, sections, r, eps)
                    try:
                        product_estimate(family, [2] * 3, xi0, sections, r, eps, 0.5)
                        got = None
                    except HypothesisViolated as exc:
                        got = exc.clause, str(exc).split(": ", 1)[1]
                    assert got == want, (r, eps)
                    seen.add(None if want is None else (want[0], want[1].split(" ", 1)[0][:2]))
    # every refusal, and a pass, came up
    assert seen == {None, ("*", "r="), ("*", "xi"), ("**", "a")}


def test_product_estimate_refuses_products_out_of_range(sl3_triple):
    sections = [compact_section(sl3_triple[0].repelling)] + [
        compact_section(L.repelling) for L in sl3_triple
    ]
    xi0 = sl3_triple[2].attracting
    for p in (4, 8, 32, 300):
        with pytest.raises(ChamberflowError) as info:
            product_estimate(sl3_triple, [p] * 3, xi0, sections, 0.17, 0.17, 0.5)
        if p != 8:
            assert info.value.clause == "range"
            assert "largest |entry|" in str(info.value)
        else:
            # rounding gives the K part of prod xi0 det -1, so the chart
            # read of prod xi0 has sign product -1
            assert isinstance(info.value, OutOfDomain)
    # at power 3 every entry is finite, but rounding has lost the determinant
    with pytest.raises(HypothesisViolated, match=r"det <= 0, not 1 \(largest \|entry\| 3\.\d+e\+10, det 0"):
        product_estimate(sl3_triple, [3] * 3, xi0, sections, 0.17, 0.17, 0.5)
    with pytest.raises(HypothesisViolated, match="has a non-finite entry"):
        product_estimate(sl3_triple, [300] * 3, xi0, sections, 0.17, 0.17, 0.5)
    # powers [2, 2, 2] stay in range, and their report is the one before the
    # range check
    report = product_estimate(sl3_triple, [2] * 3, xi0, sections, 0.17, 0.17, 0.5)
    assert report.product.lam.coords == pytest.approx([16.11554047, 0.35002546, -16.46556593], abs=1e-8)
    assert report.beta_distance == pytest.approx(0.004125718396185929, rel=1e-9)
    assert report.lox_distance == pytest.approx(0.0054712381472320215, rel=1e-9)
    # the pins are those of the float product: at 60 digits, the exact
    # Iwasawa cocycle of the exact product (the compact sections' A part)
    # is 0.003912 from the chain, and beta_lhs reads it to 9.05e-4
    with mpmath.workdps(60):
        exact = mpmath.eye(3)
        for L in sl3_triple:
            exact = mpmath.matrix(L.g.entries.tolist()) ** 2 * exact
        r = mpmath.qr(exact * mpmath.matrix(xi0.rep.tolist()))[1]
        logs = [mpmath.log(abs(r[j, j])) for j in range(3)]
        sigma = np.array([float(x - sum(logs) / 3) for x in logs])
    assert np.linalg.norm(sigma - report.beta_chain.a.coords) == pytest.approx(0.003912, abs=1e-6)
    assert np.abs(report.beta_lhs.a.coords - sigma).max() < 1.5e-3


def _reference_delta(r, eps, mc_samples, seed, n, config=DEFAULT_CONFIG):
    """delta_r_eps as a loop over Flag objects that draws one sample at a
    time from the same streams; returns (estimate, pairs out of domain)."""
    rng = np.random.default_rng(seed)
    check = Flag(k_iota(n))
    identity = AMElement.identity(n)
    pool = [_sample_k_r(rng, n, r) for _ in range(min(16, max(4, mc_samples // 64)))]
    gauss, pert = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    dirs = _so_directions(n, 2 * (n * (n - 1) // 2))
    worst, accepted, tries, dropped = 0.0, 0, 0, 0
    while accepted < mc_samples:
        if tries == 100 * mc_samples:
            raise BudgetExceeded(
                f"delta_r_eps accepted {accepted} of {tries} draws, short of {mc_samples}"
            )
        tries += 1
        xi1 = Flag(random_rotation(gauss, n))
        if boundary_margin_estimate(xi1, check, config=config) < 3 * r:
            continue
        s = Section("compact", check, identity, pool[accepted % len(pool)])
        u = pert.random(2)
        direction = dirs[int(u[0] * len(dirs))]
        xi2 = Flag(_rotation(direction, eps * (0.2 + 0.8 * u[1])) @ xi1.rep)
        try:
            value = ratio(s, s, check, xi1, xi2, config)
        except OutOfDomain:
            dropped += 1
            continue
        d = am_distance(value, identity)
        if np.isfinite(d):
            worst = max(worst, d)
        accepted += 1
    return worst, dropped


@pytest.mark.parametrize(
    "r, eps, mc_samples, n",
    [(0.3, 0.2, 40, 2), (0.15, 0.15, 128, 3), (0.1, 0.1, 30, 4)],
)
def test_stacked_delta_matches_the_per_sample_loop(r, eps, mc_samples, n):
    for seed in range(3):
        expected, _ = _reference_delta(r, eps, mc_samples, seed, n)
        assert delta_r_eps(r, eps, mc_samples, seed=seed, n=n) == expected


def test_stacked_delta_matches_the_per_sample_loop_on_criterion_5():
    for r, eps, n in ((0.18, 0.16, 2), (0.17, 0.17, 3)):
        expected, _ = _reference_delta(r, eps, 1000, 0, n)
        assert delta_r_eps(r, eps, 1000, seed=0, n=n) == expected


@pytest.mark.parametrize(
    "r, n, tol_minor, seed",
    [
        pytest.param(0.05, 2, 0.7, 1, id="0.05-2-0.7"),
        pytest.param(0.1, 3, 0.6, 1, id="0.1-3-0.6"),
        # seed 1 drops no pair here; seed 0 is the first whose reference does
        pytest.param(0.05, 4, 0.7, 0, id="0.05-4-0.7"),
    ],
)
def test_stacked_delta_drops_pairs_out_of_domain(monkeypatch, r, n, tol_minor, seed):
    """A pivot threshold this coarse puts some xi2 outside a section domain;
    each such pair is dropped and the rest evaluated again, once per drop."""
    config = Config(tol_minor=tol_minor)
    expected, dropped = _reference_delta(r, r, 60, seed, n, config)
    assert dropped >= 1
    calls = []
    real = loxodromy.ratios

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(loxodromy, "ratios", counted)
    assert delta_r_eps(r, r, 60, seed=seed, n=n, config=config) == expected
    assert len(calls) == 1 + dropped


def test_stacked_delta_budget_message_matches_the_per_sample_loop():
    with pytest.raises(BudgetExceeded) as expected:
        _reference_delta(0.6, 0.1, 20, 0, 3)
    with pytest.raises(BudgetExceeded, match="accepted 2 of 2000 draws") as got:
        delta_r_eps(0.6, 0.1, mc_samples=20, seed=0, n=3)
    assert str(got.value) == str(expected.value)


def test_delta_evaluates_one_stacked_ratio(monkeypatch):
    counts = {"boundary_margins": 0, "ratios": 0, "ratio": 0, "transition": 0, "eval_section": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(loxodromy, "boundary_margins")
    counting(loxodromy, "ratios")
    counting(loxodromy, "ratio")
    counting(sections_cocycles, "transition")
    counting(sections_cocycles, "eval_section")
    delta_r_eps(0.15, 0.15, 128, seed=0, n=3)
    # the draws are margin-tested in a block or two, not one block per pair
    assert counts.pop("boundary_margins") <= 2
    # this call draws no pair out of domain, so nothing is evaluated twice
    assert counts == {"ratios": 1, "ratio": 0, "transition": 0, "eval_section": 0}


@pytest.mark.parametrize("cap", [1, 3])
def test_delta_does_not_depend_on_the_draw_block_cap(monkeypatch, cap):
    cases = [(0.15, 0.15, 128, 0, 3), (0.3, 0.2, 40, 2, 2), (0.1, 0.1, 30, 1, 4)]
    expected = [delta_r_eps(r, eps, m, seed=seed, n=n) for r, eps, m, seed, n in cases]
    monkeypatch.setattr(loxodromy, "DRAW_CAP", cap)
    assert [delta_r_eps(r, eps, m, seed=seed, n=n) for r, eps, m, seed, n in cases] == expected


@pytest.mark.parametrize(
    "kwargs",
    [{"mc_samples": 0}, {"mc_samples": -5}, {"mc_samples": 10.5}, {"n": 1}, {"n": 0}],
    ids=["zero-samples", "negative-samples", "fractional-samples", "n-1", "n-0"],
)
def test_delta_rejects_unusable_inputs(kwargs):
    with pytest.raises(ValueError):
        delta_r_eps(0.15, 0.15, **{"mc_samples": 10, "n": 3, **kwargs})


def _reference_certify(L, r, eps, grid=200, config=DEFAULT_CONFIG):
    """The per-flag certify_r_eps loop on Flag objects that the stacked one
    replaced (parameter checks left out)."""
    margin = boundary_margin_estimate(L.attracting, L.repelling, config=config)
    if r > 0.5 * margin:
        raise CertificationFailure("i", f"r={r} > half margin {0.5 * margin:.4f}")
    rng = np.random.default_rng(0)
    samples, tries = [], 0
    while len(samples) < grid and tries < 50 * grid:
        tries += 1
        xi = Flag(random_rotation(rng, L.g.n))
        if boundary_margin_estimate(xi, L.repelling, config=config) >= eps:
            samples.append(xi)
    if len(samples) < grid:
        raise CertificationFailure("ii", "could not populate the sample grid")
    images = [act(L.g, xi) for xi in samples]
    for gxi in images:
        d = flag_distance(gxi, L.attracting)
        if d > eps:
            raise CertificationFailure("ii", f"image at distance {d:.4f} > eps")
    max_quotient = 0.0
    for i in range(len(samples) - 1):
        d0 = flag_distance(samples[i], samples[i + 1])
        if d0 >= 1e-9:
            max_quotient = max(max_quotient, flag_distance(images[i], images[i + 1]) / d0)
    if max_quotient > eps:
        raise CertificationFailure("iii", f"Lipschitz quotient {max_quotient:.4f} > eps")
    return REpsCertificate(r, eps, max_quotient, len(samples))


def _outcome(certify, *args):
    try:
        return certify(*args)
    except CertificationFailure as exc:
        return exc.clause, str(exc)


def test_stacked_certify_matches_the_per_flag_loop(sl3_triple):
    cases = [
        (classify(GroupElement(np.diag([100.0, 0.01]))), 0.3, 0.3),
        (classify(GroupElement(np.diag([100.0, 0.01]))), 1.2, 0.5),
        (classify(GroupElement(np.diag([9.0, 1 / 9.0]))), 0.2, 0.05),
        (classify(GroupElement(np.diag([1e4, 1.0, 1e-4]))), 0.95, 0.95),
        (classify(GroupElement(conjugated(170, [50.0, 0.5, 0.04]))), 0.1, 0.05),
    ] + [(power(L, k), 0.17, 0.17) for L in sl3_triple for k in (1, 2)]
    clauses = set()
    for L, r, eps in cases:
        expected = _outcome(_reference_certify, L, r, eps, 120)
        assert _outcome(certify_r_eps, L, r, eps, 120) == expected
        if isinstance(expected, tuple):
            clauses.add(expected[0])
        else:
            assert type(expected.lipschitz_bound) is float
    assert clauses == {"i", "ii"}
