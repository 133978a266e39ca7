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
    OutOfDomain,
)
from .linalg_core import (
    AMElement,
    CartanVector,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    am_distance,
    random_rotation,
)
from .flag_boundary import (
    Flag,
    act,
    boundary_margin_estimate,
    cell_margin,
    flag_distance,
    flag_of,
    is_transverse,
    k_iota,
    _rotation,
    _so_directions,
)
from .sections_cocycles import (
    Section,
    cocycle,
    compact_section,
    transition,
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
    repelling = flag_of(GroupElement(reversed_h))
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


def ratio(
    s1: Section,
    s2: Section,
    xi_check: Flag,
    xi1: Flag,
    xi2: Flag,
    config: Config = DEFAULT_CONFIG,
) -> AMElement:
    """R_{s1,s2}(xi_check; xi1, xi2) = T_{s1,[xi_check]}(xi1) T_{[xi_check],s2}(xi2)."""
    pivot = unipotent_section(xi_check)
    return transition(s1, pivot, xi1, config) * transition(pivot, s2, xi2, config)


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


def _random_flag(rng: np.random.Generator, n: int) -> Flag:
    return Flag(random_rotation(rng, n))


def _nearby_flag(rng: np.random.Generator, xi: Flag, eps: float) -> Flag:
    """A flag at distance < eps from xi: a rotation by t <= eps along a unit
    coordinate direction moves a flag by at most sqrt(8) sin(t / (2 sqrt 2)) < t."""
    n = xi.n
    dirs = _so_directions(n, 2 * (n * (n - 1) // 2))
    direction = dirs[rng.integers(len(dirs))]
    t = eps * rng.uniform(0.2, 1.0)
    return Flag(_rotation(direction, t) @ xi.rep)


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
    margin = cell_margin(L.attracting, L.repelling, config=config)
    if r > 0.5 * margin:
        raise CertificationFailure("i", f"r={r} > half margin {0.5 * margin:.4f}")
    rng = np.random.default_rng(0)
    n = L.g.n
    samples = []
    tries = 0
    while len(samples) < grid and tries < 50 * grid:
        tries += 1
        xi = _random_flag(rng, n)
        if boundary_margin_estimate(xi, L.repelling, config=config) >= eps:
            samples.append(xi)
    if len(samples) < grid:
        raise CertificationFailure("ii", "could not populate the sample grid")
    images = [act(L.g, xi) for xi in samples]
    for xi, gxi in zip(samples, images):
        d = flag_distance(gxi, L.attracting)
        if d > eps:
            raise CertificationFailure("ii", f"image at distance {d:.4f} > eps")
    max_quotient = 0.0
    for i in range(len(samples) - 1):
        d0 = flag_distance(samples[i], samples[i + 1])
        if d0 < 1e-9:
            continue
        q = flag_distance(images[i], images[i + 1]) / d0
        max_quotient = max(max_quotient, q)
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
    if fewer than mc_samples of 100 * mc_samples draws are usable."""
    if not (0 < eps <= r):
        raise ValueError("delta_r_eps requires 0 < eps <= r")
    rng = np.random.default_rng(seed)
    check = Flag(k_iota(n))
    base_sec = compact_section(check)
    identity = AMElement.identity(n)
    worst = 0.0
    accepted = 0
    tries = 0
    pool = [_sample_k_r(rng, n, r) for _ in range(min(16, max(4, mc_samples // 64)))]
    while accepted < mc_samples:
        if tries == 100 * mc_samples:
            raise BudgetExceeded(
                f"delta_r_eps accepted {accepted} of {tries} draws, short of {mc_samples}"
            )
        tries += 1
        xi1 = _random_flag(rng, n)
        if boundary_margin_estimate(xi1, check, config=config) < 3 * r:
            continue
        h = pool[accepted % len(pool)]
        s = Section(base_sec.kind, base_sec.base, base_sec.offset, h)
        xi2 = _nearby_flag(rng, xi1, eps)
        try:
            value = ratio(s, s, check, xi1, xi2, config)
        except OutOfDomain:
            continue
        d = am_distance(value, identity)
        if np.isfinite(d):
            worst = max(worst, d)
        accepted += 1
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
    # hypothesis *: genericity plus the 6r margin, with g_0 = g_l
    for i in range(1, l + 1):
        gi = family[i - 1]
        prev = family[i - 2] if i >= 2 else family[l - 1]
        for point, label in ((prev.attracting, f"g{i - 1}+"), (gi.attracting, f"g{i}+")):
            if not is_transverse(point, gi.repelling, config):
                raise HypothesisViolated("*", f"{label} not transverse to g{i}-")
            m = boundary_margin_estimate(point, gi.repelling, config=config)
            if r > m / 6.0:
                raise HypothesisViolated("*", f"r={r} > margin/6 = {m / 6.0:.4f} for {label}")
    # xi0 must sit eps-deep inside the cell of g_1^-
    if boundary_margin_estimate(xi0, family[0].repelling, config=config) < eps:
        raise HypothesisViolated("*", "xi0 is within eps of the boundary of b(g1-)")
    # hypothesis **: section domains contain the points actually used
    needed = [(sections[0], xi0)]
    for i in range(1, l + 1):
        needed.append((sections[i], family[i - 1].attracting))
    for s, point in needed:
        if not is_transverse(point, s.base, config):
            raise HypothesisViolated("**", "a required flag is outside its section domain")

    mat = np.eye(family[0].g.n)
    for gi, ni in zip(family, powers):
        mat = np.linalg.matrix_power(gi.g.entries, ni) @ mat
    det = np.linalg.det(mat)
    prod = GroupElement(mat / det ** (1.0 / mat.shape[0]))
    prod_data = classify(prod, config)
    d_plus = flag_distance(prod_data.attracting, family[-1].attracting)
    d_minus = flag_distance(prod_data.repelling, family[0].repelling)

    # beta chain: L_{s_l}(g_l^{n_l}) R_{s_l,s_{l-1}}(g_l, g_{l-1}+) ...
    #             L_{s_1}(g_1^{n_1}) R_{s_1,s_0}(g_1, xi0)
    chain = AMElement.identity(prod.n)
    for i in range(l, 0, -1):
        gi = family[i - 1]
        si = sections[i]
        term = extended_jordan(si, gi, config) ** powers[i - 1]
        chain = chain * term
        anchor = xi0 if i == 1 else family[i - 2].attracting
        chain = chain * ratio_at(si, sections[i - 1], gi, anchor, config)
    beta_lhs = cocycle(sections[l], sections[0], prod, xi0, config)
    beta_distance = am_distance(beta_lhs, chain)
    # extended-Jordan chain: same, with the closing ratio R_{s_1,s_l}(g_1, g_l+)
    lox_chain = AMElement.identity(prod.n)
    for i in range(l, 0, -1):
        gi = family[i - 1]
        si = sections[i]
        lox_chain = lox_chain * (extended_jordan(si, gi, config) ** powers[i - 1])
        if i > 1:
            lox_chain = lox_chain * ratio_at(si, sections[i - 1], gi, family[i - 2].attracting, config)
        else:
            lox_chain = lox_chain * ratio_at(si, sections[l], gi, family[-1].attracting, config)
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
