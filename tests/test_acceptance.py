"""Acceptance gate: the nine pinned criteria with explicit tolerances and
runtime budgets. Every fixture is deterministic; nothing here depends on
wall-clock state except the budget assertions themselves.
"""

import json
import time

import numpy as np
import pytest

from chamberflow.cli import main
from chamberflow.errors import NotLoxodromic
from chamberflow.linalg_core import CartanVector, GroupElement, random_rotation
from chamberflow.loxodromy import (
    certify_r_eps,
    classify,
    cocycle_via_jordan,
    delta_r_eps,
    extended_jordan,
    power,
    product_estimate,
)
from chamberflow.sections_cocycles import cocycle, compact_section, iwasawa_cocycle
from chamberflow.flag_boundary import Flag, is_transverse
from chamberflow.linalg_core import am_distance
from chamberflow.schottky_dynamics import (
    decorrelation_discret_check,
    jordan_line_density_probe,
    sign_group,
    stable_word_lambdas,
)
from chamberflow.torus_density import (
    TorusPoint,
    select_dense_subgroup_generators,
    semigroup_cone_density,
    verify_certificate,
)
from chamberflow import verify as verify_mod


def test_criterion_1_decomposition_suite():
    start = time.monotonic()
    rows = verify_mod.suite_decompositions(42, n=3, count=1000)
    elapsed = time.monotonic() - start
    worst = max(residual for _, residual, _ in rows)
    assert worst < 1e-9, worst
    assert elapsed < 10.0, elapsed


def test_criterion_2_and_3_cocycle_algebra():
    rows = dict(
        (name, (residual, tol))
        for name, residual, tol in verify_mod.suite_cocycles(42, n=3, count=200)
    )
    assert rows["cocycle-relation"][0] < 1e-8
    assert rows["transition-chasles"][0] < 1e-8
    assert rows["cocycle-bridge"][0] < 1e-8
    assert rows["hopf-compatibility"][0] < 1e-9


def test_criterion_4_loxodromic_identities():
    rng = np.random.default_rng(42)
    worst_sigma, worst_apart = 0.0, 0.0
    done = 0
    while done < 100:
        # the loxodromy suite's sampler
        try:
            L = verify_mod.loxodromic_draw(rng, 3)
        except NotLoxodromic:
            continue
        sigma = iwasawa_cocycle(L.g, L.attracting)
        worst_sigma = max(worst_sigma, float(np.abs(sigma.coords - L.lam.coords).max()))
        s = compact_section(L.repelling)
        lox = extended_jordan(s, L)
        worst_apart = max(worst_apart, float(np.abs(lox.a.coords - L.lam.coords).max()))
        done += 1
    assert worst_sigma < 1e-8, worst_sigma
    assert worst_apart < 1e-8, worst_apart
    # exact cocycle formula across matrix sizes
    for n in range(2, 9):
        rng_n = np.random.default_rng(n)
        h = random_rotation(rng_n, n)
        logs = np.linspace(1.0, -1.0, n)
        logs -= logs.mean()
        L = classify(GroupElement(h @ np.diag(np.exp(logs)) @ h.T))
        xi = Flag(random_rotation(rng_n, n))
        s0, s1, s2 = (compact_section(L.repelling) for _ in range(3))
        formula = cocycle_via_jordan(L, 3, xi, s0, s1, s2)
        direct = cocycle(s2, s0, power(L, 3).g, xi)
        assert am_distance(formula, direct) < 1e-8, n


def test_criterion_5_product_estimate(sl2_pair, sl3_triple):
    start = time.monotonic()
    # pair fixture
    L1, L2 = sl2_pair
    r2, e2 = 0.18, 0.16
    for L in (L1, L2):
        certify_r_eps(power(L, 3), r2, e2)
    dhat2 = delta_r_eps(r2, e2, 1000, seed=0, n=2)
    secs2 = [compact_section(L1.repelling), compact_section(L1.repelling), compact_section(L2.repelling)]
    rep2 = product_estimate([L1, L2], [3, 3], L2.attracting, secs2, r2, e2, 1.5 * dhat2)
    assert rep2.beta_distance <= rep2.beta_bound
    assert rep2.lox_distance <= rep2.lox_bound
    assert rep2.lox_bound == pytest.approx(2 * 2 * 1.5 * dhat2)
    assert rep2.attracting_distance <= e2
    assert rep2.repelling_distance <= e2
    # triple fixture
    r3, e3 = 0.17, 0.17
    for L in sl3_triple:
        certify_r_eps(power(L, 2), r3, e3)
    dhat3 = delta_r_eps(r3, e3, 1000, seed=0, n=3)
    secs3 = [compact_section(sl3_triple[0].repelling)] + [
        compact_section(L.repelling) for L in sl3_triple
    ]
    rep3 = product_estimate(
        sl3_triple, [2, 2, 2], sl3_triple[2].attracting, secs3, r3, e3, 1.5 * dhat3
    )
    assert rep3.beta_distance <= rep3.beta_bound
    assert rep3.lox_distance <= rep3.lox_bound
    assert rep3.lox_bound == pytest.approx(2 * 3 * 1.5 * dhat3)
    assert rep3.attracting_distance <= e3
    assert rep3.repelling_distance <= e3
    assert time.monotonic() - start < 60.0


def test_criterion_6_sign_group_and_decorrelation(sign_family):
    start = time.monotonic()
    report = sign_group(sign_family, 3)
    assert report.order == 4
    assert report.p == 2
    table = decorrelation_discret_check(sign_family, report, 1)
    assert set(table) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for nu, (attained, expected, match) in table.items():
        assert match, (nu, attained, expected)
    assert time.monotonic() - start < 120.0


def test_criterion_7_density_lemmata():
    start = time.monotonic()
    golden = (np.sqrt(5) - 1) / 2
    e = [TorusPoint([1.0], [0.0]), TorusPoint([np.sqrt(2.0)], [golden])]
    cert = select_dense_subgroup_generators(e, 0.1, [(-1.0, 1.0)])
    assert cert.covered
    assert len(cert.subset) <= 5
    assert cert.grid_step <= 0.05
    assert verify_certificate(cert) == cert.covered
    v_f, cone_cert = semigroup_cone_density(e, 0.1, [(0.0, 3.0)])
    assert cone_cert.covered
    assert np.isfinite(v_f).all()
    assert verify_certificate(cone_cert) == cone_cert.covered
    assert time.monotonic() - start < 60.0


def test_criterion_8_mixing_contrast_probe(cone_family):
    start = time.monotonic()
    mats = [L.g.entries for L in cone_family.generators]
    _, lams, _ = stable_word_lambdas(mats, 2)
    theta_in = CartanVector(lams[1] / np.linalg.norm(lams[1]))
    ext = np.array([1.0, 0.8, -1.8])
    theta_out = CartanVector(ext - ext.mean())
    window = (10.0, 190.0)
    stats_in = jordan_line_density_probe(cone_family, theta_in, window, 16, delta0=0.5)
    stats_out = jordan_line_density_probe(cone_family, theta_out, window, 16, delta0=0.5)
    assert stats_in["words"] <= 200_000
    assert stats_in["theta_interior"]
    assert not stats_out["theta_interior"]
    assert stats_in["hits"] >= 5 * max(1, stats_out["hits"])
    assert time.monotonic() - start < 300.0


def test_criterion_9_verify_determinism(tmp_path):
    outs = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.json"
        assert main(["verify", "--seed", "42", "--output", str(path)]) == 0
        outs.append(path.read_text())
    # the timestamp is the trailing three-line object, outside the report
    body1, body2 = (o.splitlines()[:-3] for o in outs)
    assert body1 == body2
    report = json.loads("\n".join(body1))
    assert report["passed"] is True
    assert all(row["passed"] for row in report["identities"])
