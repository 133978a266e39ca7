"""Loxodromic calculus: classification, extended Jordan projections,
ratio maps, (r, eps) certification, equicontinuity constants, and the
product estimate for generic families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CertificationFailure,
    HypothesisViolated,
    NotLoxodromic,
)
from .linalg_core import (
    AMElement,
    CartanVector,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    _first_am,
    _kan_stack,
    _random_rotations,
    _row_norms,
    _trace_free,
    am_distance,
)
from .flag_boundary import (
    Flag,
    act,
    boundary_margin_estimate,
    boundary_margins,
    canonicalize_rep,
    flag_distance,
    flag_distances,
    flag_of,
    k_iota,
    _comparison_margins,
    _comparison_transverse,
    _pair_comparisons,
    _rotation,
    _rotations,
    _so_directions,
    _span_flag,
)
from .sections_cocycles import (
    Section,
    cocycle,
    transitions,
    unipotent_section,
)


@dataclass(frozen=True)
class LoxodromicData:
    """A classified loxodromic element with its fixed flags."""

    g: GroupElement
    lam: CartanVector            # Jordan projection, strictly dominant
    attracting: Flag             # g+
    repelling: Flag              # g-
    diagonalizer: GroupElement   # h with h^-1 g h in M A^{++}
    gap: float                   # min consecutive gap of lam


@dataclass(frozen=True)
class REpsCertificate:
    r: float
    eps: float
    lipschitz_bound: float
    samples: int


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of the product estimate for a generic family."""

    product: LoxodromicData
    attracting_distance: float
    repelling_distance: float
    beta_lhs: AMElement
    beta_chain: AMElement
    beta_distance: float
    beta_bound: float
    lox_lhs: AMElement
    lox_chain: AMElement
    lox_distance: float
    lox_bound: float

    @property
    def passed(self) -> bool:
        return self.beta_distance <= self.beta_bound and self.lox_distance <= self.lox_bound


def classify(g: GroupElement, config: Config = DEFAULT_CONFIG) -> LoxodromicData:
    """Classify g as loxodromic or raise NotLoxodromic.

    Loxodromic elements of SL(n, R) have strictly separated eigenvalue
    moduli, hence an all-real eigenbasis; the attracting flag is the
    eigenbasis ordered by decreasing modulus, the repelling flag the
    reversed order.
    """
    vals, vecs = np.linalg.eig(g.entries)
    moduli = np.abs(vals)
    order = np.argsort(-moduli)
    sorted_moduli = moduli[order]
    rel_gaps = (sorted_moduli[:-1] - sorted_moduli[1:]) / sorted_moduli[:-1]
    if np.any(rel_gaps <= config.tol_lox):
        raise NotLoxodromic(
            f"eigenvalue moduli not separated (min relative gap {rel_gaps.min():.3e})"
        )
    vals = np.real(vals[order])
    h = np.real(vecs[:, order])
    h = h / np.linalg.norm(h, axis=0)[np.newaxis, :]
    det = np.linalg.det(h)
    if det < 0:
        h[:, 0] = -h[:, 0]
        det = -det
    h = h / det ** (1.0 / g.n)
    diagonalizer = GroupElement(h)
    lam = CartanVector(np.log(np.abs(vals)), tag="chamber_plus_plus")
    attracting = flag_of(diagonalizer)
    reversed_h = h[:, ::-1].copy()
    if np.linalg.det(reversed_h) < 0:
        reversed_h[:, 0] = -reversed_h[:, 0]
    repelling = _span_flag(reversed_h)
    gap = float(np.min(-np.diff(lam.coords)))
    return LoxodromicData(g, lam, attracting, repelling, diagonalizer, gap)


def power(L: LoxodromicData, n: int) -> LoxodromicData:
    """g^n shares flags and diagonalizer with g; lam and gap scale by n."""
    mat = np.linalg.matrix_power(L.g.entries, n)
    det = np.linalg.det(mat)
    mat = mat / det ** (1.0 / L.g.n) if det > 0 else mat
    return LoxodromicData(
        GroupElement(mat),
        CartanVector(n * L.lam.coords, tag="chamber_plus_plus"),
        L.attracting,
        L.repelling,
        L.diagonalizer,
        n * L.gap,
    )


def extended_jordan(s: Section, L: LoxodromicData, config: Config = DEFAULT_CONFIG) -> AMElement:
    """L_s(g) = beta_s(g, g+); its A-part is the Jordan projection."""
    return cocycle(s, s, L.g, L.attracting, config)


def ratios(
    s1: Section,
    s2: Section,
    xi_check: Flag,
    reps1: np.ndarray,
    reps2: np.ndarray,
    config: Config = DEFAULT_CONFIG,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ratio at paired (N, n, n) stacks of flag representatives.

    Returns (a, signs, inside): the (N, n) sums of the two transitions'
    trace-free A parts (CartanVector projects them once more), the (N, n)
    signs of the M part, and the mask of the pairs where both transitions
    are defined.
    """
    pivot = unipotent_section(xi_check)
    logs1, signs1, inside1 = transitions(s1, pivot, reps1, config)
    logs2, signs2, inside2 = transitions(pivot, s2, reps2, config)
    return _trace_free(logs1) + _trace_free(logs2), signs1 * signs2, inside1 & inside2


def ratio(
    s1: Section,
    s2: Section,
    xi_check: Flag,
    xi1: Flag,
    xi2: Flag,
    config: Config = DEFAULT_CONFIG,
) -> AMElement:
    """R_{s1,s2}(xi_check; xi1, xi2) = T_{s1,[xi_check]}(xi1) T_{[xi_check],s2}(xi2)."""
    refusal = "a flag is off a section's chart, or read with sign product -1"
    return _first_am(ratios(s1, s2, xi_check, xi1.rep[np.newaxis], xi2.rep[np.newaxis], config), refusal)


def ratio_at(
    s1: Section, s2: Section, L: LoxodromicData, xi: Flag, config: Config = DEFAULT_CONFIG
) -> AMElement:
    """R_{s1,s2}(g, xi) = R_{s1,s2}(g-; g+, xi)."""
    return ratio(s1, s2, L.repelling, L.attracting, xi, config)


def cocycle_via_jordan(
    L: LoxodromicData,
    n: int,
    xi: Flag,
    s0: Section,
    s1: Section,
    s2: Section,
    config: Config = DEFAULT_CONFIG,
) -> AMElement:
    """beta_{s2,s0}(g^n, xi) through the exact loxodromic cocycle formula:
    R_{s1,s2}(g; g^n xi)^-1 L_{s1}(g)^n R_{s1,s0}(g; xi)."""
    gn = power(L, n)
    gnxi = act(gn.g, xi)
    left = ratio_at(s1, s2, L, gnxi, config).inv()
    middle = extended_jordan(s1, L, config) ** n
    right = ratio_at(s1, s0, L, xi, config)
    return left * middle * right


DRAW_CAP = 1024   # most flags _thick_flags draws at once, so its memory stays bounded


def _thick_flags(
    rng: np.random.Generator, check: Flag, margin: float, need: int, budget: int, spare: np.ndarray, config: Config
) -> tuple[np.ndarray, int]:
    """Canonical random flag representatives at boundary margin >= margin
    from check, appended to the (k, n, n) stack spare until it holds need
    of them or budget draws are spent; returns the stack and the draws
    spent. A block of min(DRAW_CAP, max(8, 2 * shortfall), budget left)
    draws is drawn as that many single draws are, so blocks change no flag."""
    drawn = 0
    while len(spare) < need and drawn < budget:
        size = min(DRAW_CAP, max(8, 2 * (need - len(spare))), budget - drawn)
        reps = canonicalize_rep(_random_rotations(rng, check.n, size))
        drawn += size
        spare = np.concatenate([spare, reps[boundary_margins(reps, check, config) >= margin]])
    return spare, drawn


def certify_r_eps(
    L: LoxodromicData,
    r: float,
    eps: float,
    grid: int = 200,
    config: Config = DEFAULT_CONFIG,
) -> REpsCertificate:
    """Certify that g is (r, eps)-loxodromic at the sampled resolution.

    (i)   r <= 1/2 * distance from g+ to the boundary of b(g-);
    (ii)  a grid on the eps-thick part of b(g-) maps into B(g+, eps);
    (iii) sampled Lipschitz quotients on that set are <= eps.
    """
    if not (0 < eps <= r):
        raise ValueError("certification requires 0 < eps <= r")
    if grid < 100:
        raise ValueError("grid < 100 is under-resolved")
    margin = boundary_margin_estimate(L.attracting, L.repelling, config=config)
    if r > 0.5 * margin:
        raise CertificationFailure("i", f"r={r} > half margin {0.5 * margin:.4f}")
    # a private stream, so the flags are drawn in blocks
    rng, empty = np.random.default_rng(0), np.empty((0, L.g.n, L.g.n))
    samples = _thick_flags(rng, L.repelling, eps, grid, 50 * grid, empty, config)[0][:grid]
    if len(samples) < grid:
        raise CertificationFailure("ii", "could not populate the sample grid")
    images = canonicalize_rep(_kan_stack(L.g.entries @ samples)[0])
    dists = flag_distances(images, L.attracting.rep)
    far = np.flatnonzero(dists > eps)
    if far.size:
        raise CertificationFailure("ii", f"image at distance {dists[far[0]]:.4f} > eps")
    steps = flag_distances(samples[:-1], samples[1:])
    apart = steps >= 1e-9
    quotients = flag_distances(images[:-1][apart], images[1:][apart]) / steps[apart]
    max_quotient = float(quotients.max(initial=0.0))
    if max_quotient > eps:
        raise CertificationFailure("iii", f"Lipschitz quotient {max_quotient:.4f} > eps")
    return REpsCertificate(r, eps, max_quotient, len(samples))


def _sample_k_r(rng: np.random.Generator, n: int, r: float) -> np.ndarray:
    """Draw h in K_r: h maps the r-neighborhood of the boundary of
    b(opposite standard flag) into the 2r-neighborhood.

    h = exp(t X) with X one of the unit-Frobenius skew directions and
    t <= r/2. If X has rotation angles theta_j, with sum 2 theta_j^2 = 1,
    then ||h - I||_F^2 = sum 8 sin^2(t theta_j / 2) <= t^2, so h moves
    every flag by at most t in the flag metric. The distance to the
    boundary is 1-Lipschitz in that metric, so a flag within r of it
    lands within 1.5r < 2r: every draw is in K_r, and none is tested.
    """
    dirs = _so_directions(n, 12)
    direction = dirs[rng.integers(len(dirs))]
    return _rotation(direction, r * rng.uniform(0.0, 0.5))


def delta_r_eps(
    r: float,
    eps: float,
    mc_samples: int = 1000,
    seed: int = 0,
    n: int = 2,
    config: Config = DEFAULT_CONFIG,
) -> float:
    """Monte-Carlo estimate of the equicontinuity constant delta_{r,eps}:
    sup of d_AM(R_s(xi_check; xi1, xi2), e) over sections s in
    K_r . k(xi_check), xi1 at distance >= 3r from the cell boundary, and
    xi2 in B(xi1, eps). Deterministic at fixed seed; raises BudgetExceeded
    if fewer than mc_samples of 100 * mc_samples draws are usable.

    The K_r pool comes from default_rng(seed); then SeedSequence(seed)
    spawns two streams, read forward only. The xi1 stream gives one (n, n)
    Gaussian per try, the xi2 stream one random(2) (u0, u1) per xi1 that
    passes the 3r margin: xi2 rotates xi1 along dirs[floor(u0 len(dirs))]
    by eps (0.2 + 0.8 u1). Block draws equal per-sample draws, so the
    estimate is that of a loop drawing one sample at a time."""
    if not (0 < eps <= r):
        raise ValueError("delta_r_eps requires 0 < eps <= r")
    if not isinstance(mc_samples, (int, np.integer)) or mc_samples < 1:
        raise ValueError(f"delta_r_eps requires an integer mc_samples >= 1, not {mc_samples!r}")
    if n < 2:
        raise ValueError(f"delta_r_eps requires n >= 2, not {n}")
    rng = np.random.default_rng(seed)
    check = Flag(k_iota(n))
    pool = np.asarray([_sample_k_r(rng, n, r) for _ in range(min(16, max(4, mc_samples // 64)))])
    gauss, pert = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    dirs = _so_directions(n, 2 * (n * (n - 1) // 2))
    budget = 100 * mc_samples
    worst = 0.0
    accepted = 0
    drawn = 0
    # xi1 draws that passed the margin but are not paired yet, and the pairs
    # (xi1, xi2 before canonicalisation) not yet evaluated
    spare = queue1 = queue2 = np.empty((0, n, n))
    while accepted < mc_samples:
        need = mc_samples - accepted - len(queue1)
        spare, spent = _thick_flags(gauss, check, 3 * r, need, budget - drawn, spare, config)
        drawn += spent
        fresh, spare = spare[:need], spare[need:]
        # xi2 at distance < eps from xi1: a rotation by t <= eps along a unit
        # coordinate direction moves a flag by sqrt(8) sin(t / (2 sqrt 2)) < t
        u = pert.random((len(fresh), 2))
        turns = _rotations(dirs[(u[:, 0] * len(dirs)).astype(np.intp)], eps * (0.2 + 0.8 * u[:, 1]))
        queue1 = np.concatenate([queue1, fresh])
        queue2 = np.concatenate([queue2, turns @ fresh])
        if not len(queue1):
            # every draw is tested, so the budget is spent: drawn == budget
            raise BudgetExceeded(
                f"delta_r_eps accepted {accepted} of {drawn} draws, short of {mc_samples}"
            )
        # queued pair i takes pool[(accepted + i) % len(pool)], as it does
        # when the pairs before it are accepted
        h = pool[(accepted + np.arange(len(queue1))) % len(pool)]
        s = Section("compact", check, AMElement.identity(n), h)
        a, signs, inside = ratios(s, s, check, queue1, canonicalize_rep(queue2), config)
        # the pairs before the first one out of domain are accepted; that one
        # is dropped, and the rest are evaluated again with the pool shifted
        good = len(inside) if inside.all() else int(np.argmin(inside))
        # d_AM(R, e) is infinite off the identity component, and skipped
        a = _trace_free(a[:good][(signs[:good] > 0).all(axis=1)])
        if len(a):
            worst = max(worst, float(np.max(_row_norms(a))))
        accepted += good
        queue1, queue2 = queue1[good + 1:], queue2[good + 1:]
    return worst


def product_estimate(
    family: list,
    powers: list,
    xi0: Flag,
    sections: list,
    r: float,
    eps: float,
    delta: float,
    config: Config = DEFAULT_CONFIG,
) -> EstimateReport:
    """Check the product estimate for a generic family of (r, eps)-loxodromic
    elements: the beta-containment at (2l-1) delta and the extended-Jordan
    containment at 2l delta, plus the location of the product's fixed flags.

    sections is the list (s_0, ..., s_l).
    """
    l = len(family)
    if len(powers) != l or len(sections) != l + 1:
        raise ValueError("need l powers and l+1 sections")
    # hypothesis *: genericity plus the 6r margin, with g_0 = g_l; a
    # non-transverse pair has margin 0, so it fails the margin test too.
    # Last, xi0 must sit eps-deep inside the cell of g_1^-. All 2l + 1
    # margins come from one stack of comparison matrices, tested in order
    pairs, labels = [], []
    for i in range(1, l + 1):
        gi = family[i - 1]
        prev = family[i - 2] if i >= 2 else family[l - 1]
        for point, label in ((prev.attracting, f"g{i - 1}+"), (gi.attracting, f"g{i}+")):
            pairs.append((point, gi.repelling))
            labels.append(label)
    pairs.append((xi0, family[0].repelling))
    margins = _comparison_margins(_pair_comparisons(pairs), config)
    for m, label in zip(margins, labels):
        if r > m / 6.0:
            raise HypothesisViolated("*", f"r={r} > margin/6 = {m / 6.0:.4f} for {label}")
    if margins[-1] < eps:
        raise HypothesisViolated("*", "xi0 is within eps of the boundary of b(g1-)")
    # hypothesis **: section domains contain the points actually used
    needed = [(xi0, sections[0].base)] + [(family[i - 1].attracting, sections[i].base) for i in range(1, l + 1)]
    if not _comparison_transverse(_pair_comparisons(needed), config).all():
        raise HypothesisViolated("**", "a required flag is outside its section domain")

    with np.errstate(over="ignore", invalid="ignore"):
        mat = np.eye(family[0].g.n)
        for gi, ni in zip(family, powers):
            mat = np.linalg.matrix_power(gi.g.entries, ni) @ mat
        det = np.linalg.det(mat)
    if not np.all(np.isfinite(mat)):
        failed = "has a non-finite entry"
    elif not det > 0:
        # the product is in SL(n), so det <= 0 means rounding lost it
        failed = "has det <= 0, not 1"
    elif not np.isfinite(det):
        failed = "has a det that overflows"
    else:
        failed = None
    if failed:
        raise HypothesisViolated(
            "range",
            f"the product {failed} (largest |entry| {np.max(np.abs(mat)):.3e}, det {det:.3e})",
        )
    prod = GroupElement(mat / det ** (1.0 / mat.shape[0]))
    prod_data = classify(prod, config)
    d_plus = flag_distance(prod_data.attracting, family[-1].attracting)
    d_minus = flag_distance(prod_data.repelling, family[0].repelling)

    # beta chain: L_{s_l}(g_l^{n_l}) R_{s_l,s_{l-1}}(g_l, g_{l-1}+) ...
    #             L_{s_1}(g_1^{n_1}) R_{s_1,s_0}(g_1, xi0);
    # the extended-Jordan chain shares every factor but the closing ratio,
    # which is R_{s_1,s_l}(g_1, g_l+)
    chain = lox_chain = AMElement.identity(prod.n)
    for i in range(l, 0, -1):
        gi = family[i - 1]
        si = sections[i]
        term = extended_jordan(si, gi, config) ** powers[i - 1]
        chain, lox_chain = chain * term, lox_chain * term
        if i > 1:
            ratio = ratio_at(si, sections[i - 1], gi, family[i - 2].attracting, config)
            chain, lox_chain = chain * ratio, lox_chain * ratio
    chain = chain * ratio_at(sections[1], sections[0], family[0], xi0, config)
    beta_lhs = cocycle(sections[l], sections[0], prod, xi0, config)
    beta_distance = am_distance(beta_lhs, chain)
    lox_chain = lox_chain * ratio_at(sections[1], sections[l], family[0], family[-1].attracting, config)
    lox_lhs = extended_jordan(sections[l], prod_data, config)
    lox_distance = am_distance(lox_lhs, lox_chain)
    return EstimateReport(
        product=prod_data,
        attracting_distance=d_plus,
        repelling_distance=d_minus,
        beta_lhs=beta_lhs,
        beta_chain=chain,
        beta_distance=beta_distance,
        beta_bound=(2 * l - 1) * delta,
        lox_lhs=lox_lhs,
        lox_chain=lox_chain,
        lox_distance=lox_distance,
        lox_bound=2 * l * delta,
    )
