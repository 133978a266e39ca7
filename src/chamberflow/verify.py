"""Identity suites behind the `verify` meta-command.

Each suite samples random instances at a fixed seed and reports the
maximal residual of one structural identity of the coordinate machinery.
A suite that rejects too many draws raises BudgetExceeded instead of
sampling forever.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, ChamberflowError, NotInBigCell, NotLoxodromic, OutOfDomain
from .linalg_core import (
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
from .loxodromy import classify, extended_jordan, power


# draws a sampling loop may make per sample it must deliver.  The loxodromy
# suite is the most selective: over seeds 0-99 it needed at most 17 draws per
# sample at n = 3 and 58 at n = 4 (seeds 0-59), about 800 at n = 5, and none
# of 2000 draws passes its filters at n = 6
MAX_TRIES_PER_SAMPLE = 2000


def _spend_try(suite: str, tries: int, done: int, count: int) -> int:
    """tries + 1, or BudgetExceeded once the suite's draws are used up."""
    if tries >= MAX_TRIES_PER_SAMPLE * count:
        raise BudgetExceeded(f"{suite}: {done} of {count} samples accepted in {tries} tries")
    return tries + 1


def _random_compact_section(rng, n, config, *points):
    """A compact section whose domain contains every given flag."""
    for _ in range(MAX_TRIES_PER_SAMPLE):
        base = Flag(random_rotation(rng, n))
        if all(is_transverse(p, base, config) for p in points):
            return compact_section(base)
    raise BudgetExceeded(f"compact-section: no transverse base flag in {MAX_TRIES_PER_SAMPLE} tries")


def _rel_err(actual, expected):
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / scale


def suite_decompositions(seed: int, n: int = 3, count: int = 30, config: Config = DEFAULT_CONFIG):
    rng = np.random.default_rng(seed)
    worst = {"kan": 0.0, "kan_minus": 0.0, "cartan": 0.0, "bruhat": 0.0}
    done = tries = 0
    while done < count:
        tries = _spend_try("decompositions", tries, done, count)
        g = random_group_element(rng, n)
        t = iwasawa_kan(g)
        worst["kan"] = max(worst["kan"], _rel_err(t.reconstruct(), g.entries))
        t2 = iwasawa_kan_minus(g)
        worst["kan_minus"] = max(worst["kan_minus"], _rel_err(t2.reconstruct(), g.entries))
        k1, a, k2 = cartan_kak(g)
        worst["cartan"] = max(
            worst["cartan"], _rel_err(k1 @ np.diag(np.exp(a.coords)) @ k2, g.entries)
        )
        try:
            lower, x, upper = bruhat_lu(g, config)
            worst["bruhat"] = max(
                worst["bruhat"], _rel_err(lower @ x.matrix() @ upper, g.entries)
            )
        except NotInBigCell:
            continue
        done += 1
    return [
        ("kan-round-trip", worst["kan"], config.tol_recon),
        ("kan-minus-round-trip", worst["kan_minus"], config.tol_recon),
        ("cartan-round-trip", worst["cartan"], config.tol_recon),
        ("bruhat-round-trip", worst["bruhat"], config.tol_recon),
    ]


def suite_cocycles(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    rng = np.random.default_rng(seed)
    worst_rel, worst_chasles, worst_bridge, worst_hopf = 0.0, 0.0, 0.0, 0.0
    done = tries = 0
    while done < count:
        tries = _spend_try("cocycles", tries, done, count)
        try:
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
            worst_rel = max(worst_rel, am_distance(lhs, rhs))
            # Chasles for transitions at a shared flag
            s2 = _random_compact_section(rng, n, config, xi)
            s3 = _random_compact_section(rng, n, config, xi)
            t_direct = transition(s3, si, xi, config)
            t_comp = transition(s3, s2, xi, config) * transition(s2, si, xi, config)
            worst_chasles = max(worst_chasles, am_distance(t_direct, t_comp))
            inv_res = am_distance(
                transition(si, s2, xi, config), transition(s2, si, xi, config).inv()
            )
            worst_chasles = max(worst_chasles, inv_res)
            # cohomology bridge
            s1p = _random_compact_section(rng, n, config, gjxi)
            s0p = _random_compact_section(rng, n, config, xi)
            bridge = (
                transition(s1p, sj, gjxi, config)
                * cocycle(sj, si, gj, xi, config)
                * transition(si, s0p, xi, config)
            )
            worst_bridge = max(
                worst_bridge, am_distance(cocycle(s1p, s0p, gj, xi, config), bridge)
            )
            # Hopf compatibility: compact-section cocycle A-part = Iwasawa cocycle
            beta = cocycle(sj, si, gj, xi, config)
            sigma = iwasawa_cocycle(gj, xi)
            worst_hopf = max(worst_hopf, float(np.abs(beta.a.coords - sigma.coords).max()))
        except (OutOfDomain, NotInBigCell):
            continue
        done += 1
    return [
        ("cocycle-relation", worst_rel, config.tol_id),
        ("transition-chasles", worst_chasles, config.tol_recon * 10),
        ("cocycle-bridge", worst_bridge, config.tol_id),
        ("hopf-compatibility", worst_hopf, config.tol_recon),
    ]


def suite_bh(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = tries = 0
    while done < count:
        tries = _spend_try("bruhat-hopf", tries, done, count)
        try:
            g = random_group_element(rng, n)
            s = _random_compact_section(rng, n, config, flag_of(g))
            c = to_bh(g, s, config)
            back = from_bh(c, config)
            worst = max(worst, _rel_err(back.entries, g.entries))
        except (OutOfDomain, NotInBigCell, ChamberflowError):
            continue
        done += 1
    return [("bruhat-hopf-round-trip", worst, config.tol_recon * 10)]


def suite_loxodromy(seed: int, n: int = 3, count: int = 20, config: Config = DEFAULT_CONFIG):
    rng = np.random.default_rng(seed)
    worst_sigma, worst_power, worst_fact = 0.0, 0.0, 0.0
    done = tries = 0
    while done < count:
        tries = _spend_try("loxodromy", tries, done, count)
        base = random_group_element(rng, n)
        mat = np.linalg.matrix_power(base.entries, 4)
        det = np.linalg.det(mat)
        if det <= 0 or not np.isfinite(det):
            continue
        try:
            L = classify(GroupElement(mat / det ** (1.0 / n)), config)
        except (NotLoxodromic, ValueError):
            continue
        # keep the dynamic range of g^3 within double precision: the
        # smallest diagonal of the cocycle must stay resolvable
        if 3.0 * (L.lam.coords[0] - L.lam.coords[-1]) > 14.0:
            continue
        try:
            # sigma(g, g+) = lambda(g)
            sigma = iwasawa_cocycle(L.g, L.attracting)
            worst_sigma = max(worst_sigma, float(np.abs(sigma.coords - L.lam.coords).max()))
            # power formula in the repelling unipotent chart
            s_rep = unipotent_section(L.repelling)
            xi = Flag(random_rotation(rng, n))
            if not is_transverse(xi, L.repelling, config):
                continue
            lhs = cocycle(s_rep, s_rep, power(L, 3).g, xi, config)
            rhs = extended_jordan(s_rep, L, config) ** 3
            worst_power = max(worst_power, am_distance(lhs, rhs))
            # A-part of the extended Jordan projection is the Jordan projection
            s = _random_compact_section(rng, n, config, L.attracting)
            lox = extended_jordan(s, L, config)
            worst_fact = max(worst_fact, float(np.abs(lox.a.coords - L.lam.coords).max()))
        except (OutOfDomain, NotInBigCell):
            continue
        done += 1
    return [
        ("iwasawa-on-attracting-equals-jordan", worst_sigma, config.tol_id),
        ("power-cocycle-formula", worst_power, config.tol_id),
        ("extended-jordan-a-part", worst_fact, config.tol_id),
    ]


def suite_flags(seed: int, n: int = 3, count: int = 30, config: Config = DEFAULT_CONFIG):
    rng = np.random.default_rng(seed)
    worst_inv, worst_assoc = 0.0, 0.0
    for _ in range(count):
        k = random_rotation(rng, n)
        xi = Flag(random_rotation(rng, n))
        eta = Flag(random_rotation(rng, n))
        d0 = flag_distance(xi, eta)
        d1 = flag_distance(Flag(k @ xi.rep), Flag(k @ eta.rep))
        worst_inv = max(worst_inv, abs(d0 - d1))
        g = random_group_element(rng, n)
        h = random_group_element(rng, n)
        lhs = act(GroupElement(g.entries @ h.entries), xi)
        rhs = act(g, act(h, xi))
        worst_assoc = max(worst_assoc, flag_distance(lhs, rhs))
    return [
        ("metric-k-invariance", worst_inv, config.tol_recon),
        ("action-associativity", worst_assoc, config.tol_recon),
    ]


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
