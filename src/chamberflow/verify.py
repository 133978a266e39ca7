"""Identity suites behind the `verify` meta-command.

Each suite is a draw function and its identities with their tolerances;
one driver, _sample, draws random instances from a stream at a fixed seed,
rejects draws outside an identity's domain and reports the maximal residual
of each identity. A suite that rejects too many draws raises BudgetExceeded
instead of sampling forever.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import BudgetExceeded, NotInBigCell, NotLoxodromic, NotTransverse, OutOfDomain
from .linalg_core import (
    AMElement,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    am_distance,
    bruhat_lu,
    cartan_kak,
    iwasawa_kan,
    iwasawa_kan_minus,
    random_group_element,
    random_rotation,
)
from .flag_boundary import Flag, act, flag_distance, flag_of, is_transverse
from .sections_cocycles import (
    cocycle,
    compact_section,
    from_bh,
    iwasawa_cocycle,
    to_bh,
    transition,
    unipotent_section,
)
from .loxodromy import LoxodromicData, classify, extended_jordan


# draws a suite may make per sample it must deliver.  The loxodromy suite is
# the most selective: over seeds 0-99 it needed at most 17 draws per sample
# at n = 3 and 58 at n = 4 (seeds 0-59), about 800 at n = 5, and none of
# 2000 draws passes its filters at n = 6
MAX_TRIES_PER_SAMPLE = 2000

# a draw that raises one of these lies outside an identity's domain, and is
# rejected
REJECTED = (NotInBigCell, NotLoxodromic, NotTransverse, OutOfDomain)


def _sample(suite: str, seed: int, n: int, count: int, draw, identities) -> list:
    """(identity, worst residual, tolerance) for each (identity, tolerance)
    of identities, over count accepted draws from one stream seeded by seed.

    draw(rng, n) yields (identity, residual) pairs. A draw that raises one
    of REJECTED is rejected, and keeps the residuals it yielded before.
    Raises BudgetExceeded once MAX_TRIES_PER_SAMPLE * count draws are spent.
    """
    rng = np.random.default_rng(seed)
    worst = {identity: 0.0 for identity, _ in identities}
    done = tries = 0
    while done < count:
        if tries >= MAX_TRIES_PER_SAMPLE * count:
            raise BudgetExceeded(f"{suite}: {done} of {count} samples accepted in {tries} tries")
        tries += 1
        try:
            for identity, residual in draw(rng, n):
                worst[identity] = max(worst[identity], residual)
        except REJECTED:
            continue
        done += 1
    return [(identity, worst[identity], tol) for identity, tol in identities]


def _random_compact_section(rng, n, config, *points):
    """A compact section whose domain contains every given flag."""
    for _ in range(MAX_TRIES_PER_SAMPLE):
        base = Flag(random_rotation(rng, n))
        if all(is_transverse(p, base, config) for p in points):
            return compact_section(base)
    raise BudgetExceeded(f"compact-section: no transverse base flag in {MAX_TRIES_PER_SAMPLE} tries")


def loxodromic_draw(rng, n: int, config: Config = DEFAULT_CONFIG) -> LoxodromicData:
    """One draw of the loxodromic rejection sampler: the 4th power of a
    Gaussian draw, scaled into SL(n, R) and classified. Raises NotLoxodromic
    for a draw with det <= 0, one that classify refuses, or one with
    3 (lambda_1 - lambda_n) > 14."""
    mat = np.linalg.matrix_power(random_group_element(rng, n).entries, 4)
    det = np.linalg.det(mat)
    if det <= 0 or not np.isfinite(det):
        raise NotLoxodromic(f"the 4th power has det {det}")
    try:
        L = classify(GroupElement(mat / det ** (1.0 / n)), config)
    except ValueError as exc:
        raise NotLoxodromic(str(exc)) from exc
    # keep the dynamic range of g^3 within double precision: the
    # smallest diagonal of the cocycle must stay resolvable
    if 3.0 * (L.lam.coords[0] - L.lam.coords[-1]) > 14.0:
        raise NotLoxodromic("3 (lambda_1 - lambda_n) > 14")
    return L


def _rel_err(actual, expected):
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / scale


def _decompositions_draw(rng, n, config):
    g = random_group_element(rng, n)
    yield "kan-round-trip", _rel_err(iwasawa_kan(g).reconstruct(), g.entries)
    yield "kan-minus-round-trip", _rel_err(iwasawa_kan_minus(g).reconstruct(), g.entries)
    k1, a, k2 = cartan_kak(g)
    yield "cartan-round-trip", _rel_err(k1 @ np.diag(np.exp(a.coords)) @ k2, g.entries)
    lower, x, upper = bruhat_lu(g, config)
    yield "bruhat-round-trip", _rel_err(lower @ x.matrix() @ upper, g.entries)


def suite_decompositions(seed: int, n: int = 3, count: int = 30, config: Config = DEFAULT_CONFIG):
    return _sample("decompositions", seed, n, count, partial(_decompositions_draw, config=config), [
        ("kan-round-trip", config.tol_recon),
        ("kan-minus-round-trip", config.tol_recon),
        ("cartan-round-trip", config.tol_recon),
        ("bruhat-round-trip", config.tol_recon),
    ])


def _cocycles_draw(rng, n, config):
    gj = random_group_element(rng, n)
    gk = random_group_element(rng, n)
    xi = Flag(random_rotation(rng, n))
    gjxi = act(gj, xi)
    gkji = act(gk, gjxi)
    si = _random_compact_section(rng, n, config, xi)
    sj = _random_compact_section(rng, n, config, gjxi)
    sk = _random_compact_section(rng, n, config, gkji)
    # cocycle relation
    lhs = cocycle(sk, si, GroupElement(gk.entries @ gj.entries), xi, config)
    rhs = cocycle(sk, sj, gk, gjxi, config) * cocycle(sj, si, gj, xi, config)
    yield "cocycle-relation", am_distance(lhs, rhs)
    # Chasles for transitions at a shared flag
    s2 = _random_compact_section(rng, n, config, xi)
    s3 = _random_compact_section(rng, n, config, xi)
    t_direct = transition(s3, si, xi, config)
    t_comp = transition(s3, s2, xi, config) * transition(s2, si, xi, config)
    yield "transition-chasles", am_distance(t_direct, t_comp)
    yield "transition-chasles", am_distance(
        transition(si, s2, xi, config), transition(s2, si, xi, config).inv()
    )
    # cohomology bridge
    s1p = _random_compact_section(rng, n, config, gjxi)
    s0p = _random_compact_section(rng, n, config, xi)
    bridge = (
        transition(s1p, sj, gjxi, config)
        * cocycle(sj, si, gj, xi, config)
        * transition(si, s0p, xi, config)
    )
    yield "cocycle-bridge", am_distance(cocycle(s1p, s0p, gj, xi, config), bridge)
    # Hopf compatibility: compact-section cocycle A-part = Iwasawa cocycle
    beta = cocycle(sj, si, gj, xi, config)
    sigma = iwasawa_cocycle(gj, xi)
    yield "hopf-compatibility", float(np.abs(beta.a.coords - sigma.coords).max())


def suite_cocycles(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    return _sample("cocycles", seed, n, count, partial(_cocycles_draw, config=config), [
        ("cocycle-relation", config.tol_id),
        ("transition-chasles", config.tol_recon * 10),
        ("cocycle-bridge", config.tol_id),
        ("hopf-compatibility", config.tol_recon),
    ])


def _bh_draw(rng, n, config):
    g = random_group_element(rng, n)
    s = _random_compact_section(rng, n, config, flag_of(g))
    back = from_bh(to_bh(g, s, config), config)
    yield "bruhat-hopf-round-trip", _rel_err(back.entries, g.entries)


def suite_bh(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    return _sample("bruhat-hopf", seed, n, count, partial(_bh_draw, config=config), [
        ("bruhat-hopf-round-trip", config.tol_recon * 10),
    ])


def _loxodromy_draw(rng, n, config):
    L = loxodromic_draw(rng, n, config)
    # sigma(g, g+) = lambda(g)
    sigma = iwasawa_cocycle(L.g, L.attracting)
    yield "iwasawa-on-attracting-equals-jordan", float(np.abs(sigma.coords - L.lam.coords).max())
    # power formula in the repelling unipotent chart
    s_rep = unipotent_section(L.repelling)
    xi = Flag(random_rotation(rng, n))
    if not is_transverse(xi, L.repelling, config):
        raise NotTransverse("xi is not transverse to the repelling flag")
    # beta(g^3, xi) from one-step cocycles along xi, g xi, g^2 xi: a formed g^3 loses digits
    lhs = AMElement.identity(n)
    for _ in range(3):
        lhs, xi = cocycle(s_rep, s_rep, L.g, xi, config) * lhs, act(L.g, xi)
    rhs = extended_jordan(s_rep, L, config) ** 3
    yield "power-cocycle-formula", am_distance(lhs, rhs)
    # A-part of the extended Jordan projection is the Jordan projection
    s = _random_compact_section(rng, n, config, L.attracting)
    lox = extended_jordan(s, L, config)
    yield "extended-jordan-a-part", float(np.abs(lox.a.coords - L.lam.coords).max())


def suite_loxodromy(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    return _sample("loxodromy", seed, n, count, partial(_loxodromy_draw, config=config), [
        ("iwasawa-on-attracting-equals-jordan", config.tol_id),
        ("power-cocycle-formula", config.tol_id),
        ("extended-jordan-a-part", config.tol_id),
    ])


def _flags_draw(rng, n):
    k = random_rotation(rng, n)
    xi = Flag(random_rotation(rng, n))
    eta = Flag(random_rotation(rng, n))
    d0 = flag_distance(xi, eta)
    d1 = flag_distance(Flag(k @ xi.rep), Flag(k @ eta.rep))
    yield "metric-k-invariance", abs(d0 - d1)
    g = random_group_element(rng, n)
    h = random_group_element(rng, n)
    lhs = act(GroupElement(g.entries @ h.entries), xi)
    yield "action-associativity", flag_distance(lhs, act(g, act(h, xi)))


def suite_flags(seed: int, n: int = 3, count: int = 30, config: Config = DEFAULT_CONFIG):
    return _sample("flags", seed, n, count, _flags_draw, [
        ("metric-k-invariance", config.tol_recon),
        ("action-associativity", config.tol_recon),
    ])


def run_all(seed: int, n: int = 3, config: Config = DEFAULT_CONFIG):
    """Run every suite; returns a list of identity records."""
    rows = []
    for name, suite in [
        ("decompositions", suite_decompositions),
        ("flags", suite_flags),
        ("cocycles", suite_cocycles),
        ("bruhat-hopf", suite_bh),
        ("loxodromy", suite_loxodromy),
    ]:
        for identity, residual, tol in suite(seed, n=n, config=config):
            rows.append(
                {
                    "suite": name,
                    "identity": identity,
                    "max_residual": residual,
                    "tolerance": tol,
                    "passed": bool(residual <= tol),
                }
            )
    return rows
