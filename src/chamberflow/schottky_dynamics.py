"""Strong Schottky families, limit-cone estimation, the sign group,
component-label transport, and decorrelation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    CannotCertify,
    CertificationFailure,
    NeedLargerN,
    NotGeneric,
    NotLoxodromic,
    OutOfDomain,
)
from .linalg_core import (
    AMElement,
    CartanVector,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    SignVector,
    _cartan_normal_form,
    project_to_sl,
)
from .flag_boundary import act, boundary_margin_estimate, flag_distance, is_transverse
from .loxodromy import certify_r_eps, classify, power, ratio
from .sections_cocycles import BHCoordinates, best_section, cocycle, compact_section, covering_family

CERT_GRID = 120        # sample grid of each generator's (r, eps) certificate
CONE_MARGIN = 1e-6     # smallest hull coefficient cone_interior calls interior


@dataclass(frozen=True)
class SchottkyFamily:
    generators: tuple
    r: float
    eps: float
    certificates: tuple
    pairwise_margins: np.ndarray


@dataclass(frozen=True)
class ConeEstimate:
    rays: np.recarray    # read-only (N,) record array, one field `coords` of
                         # shape (n,): the normalized Jordan directions of the
                         # sampled words, as CartanVector coordinates.
                         # `rays.coords` is the (N, n) array; the record view
                         # keeps `rays[i].coords` and iteration working, which
                         # the `words` benchmark's check and fingerprint read,
                         # so a plain (N, n) ndarray would break them
    hull: tuple          # CartanVectors: extreme rays of the convex cone hull
    word_length: int


@dataclass(frozen=True)
class SignGroupReport:
    basis: tuple                 # independent SignVectors
    order: int                   # 2**p
    p: int
    witnesses: tuple             # (word, SignVector) pairs


def build_schottky(
    seeds: list,
    r: float,
    eps: float,
    config: Config = DEFAULT_CONFIG,
) -> SchottkyFamily:
    """Check the pairwise 6r separation of the seeds' fixed flags from basin
    boundaries, then replace each seed by its smallest (r, eps)-certified
    power up to config.max_power.

    A power shares its fixed flags with the seed, so the margins are
    decided before any power is certified; a non-transverse pair has
    margin 0 and is refused with the rest."""
    classified = [classify(GroupElement(s) if isinstance(s, np.ndarray) else s, config) for s in seeds]
    for i, a in enumerate(classified):
        for j, b in enumerate(classified[:i]):
            if (
                flag_distance(a.attracting, b.attracting) < 1e-8
                or flag_distance(a.repelling, b.repelling) < 1e-8
            ):
                raise NotGeneric(f"seeds {j} and {i} share a fixed flag")
    m = len(classified)
    margins = np.zeros((m, m))
    for i, a in enumerate(classified):
        for j, b in enumerate(classified):
            margins[i, j] = boundary_margin_estimate(a.attracting, b.repelling, config=config)
            if margins[i, j] < 6 * r:
                raise NotGeneric(
                    f"margin d(g{i}+, boundary b(g{j}-)) = {margins[i, j]:.4f} < 6r"
                )
    generators, certificates = [], []
    for idx, L in enumerate(classified):
        cert = None
        for k in range(1, config.max_power + 1):
            Lk = power(L, k)
            try:
                cert = certify_r_eps(Lk, r, eps, grid=CERT_GRID, config=config)
                generators.append(Lk)
                certificates.append(cert)
                break
            except CertificationFailure:
                continue
        if cert is None:
            raise CannotCertify(f"seed {idx}: no power <= {config.max_power} certifies")
    return SchottkyFamily(tuple(generators), r, eps, tuple(certificates), margins)


def _chamber_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the sum-zero subspace of R^n."""
    basis = []
    for i in range(1, n):
        v = np.zeros(n)
        v[:i] = 1.0
        v[i] = -float(i)
        basis.append(v / np.linalg.norm(v))
    return np.asarray(basis).T


def chamber_coords(lam: np.ndarray) -> np.ndarray:
    """Coordinates of sum-zero vectors (the last axis) in the orthonormal
    chamber basis."""
    return lam @ _chamber_basis(lam.shape[-1])


def _planar_hull(dirs: np.ndarray) -> np.ndarray:
    """Extreme rays, as rows, of the cone hull of the rows of an (N, 2)
    direction array within a half-plane."""
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    lo, hi = int(np.argmin(angles)), int(np.argmax(angles))
    if angles[hi] - angles[lo] < 1e-9:
        return dirs[[lo]]
    return dirs[[lo, hi]]


def _word_array(num_gens: int, length: int) -> np.ndarray:
    """All words of exactly `length` letters as an (N, length) index array,
    in lexicographic order; column j holds the j-th applied letter."""
    grids = np.indices((num_gens,) * length)
    return np.stack([g.ravel() for g in grids], axis=1)


def _batched_qr_positive(frames: np.ndarray):
    """QR of a stack of square matrices with positive R diagonal; returns
    (Q stack, log|diag R| stack)."""
    q, r = np.linalg.qr(frames)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    signs = np.where(diag < 0, -1.0, 1.0)
    q = q * signs[:, np.newaxis, :]
    return q, np.log(np.abs(diag))


def _necklace_index(num_gens: int, length: int):
    """Necklace representatives of the words of `_word_array(num_gens,
    length)`: (reps, inverse), where reps are the row indices of the
    lexicographically least rotations and row i lies in the necklace of
    row reps[inverse[i]]. A row's index is its word read as an integer in
    base num_gens, so the least rotation has the least index."""
    top = num_gens ** (length - 1)
    codes = np.arange(num_gens * top)
    least = codes
    for _ in range(length - 1):
        codes = (codes % top) * num_gens + codes // top
        least = np.minimum(least, codes)
    return np.unique(least, return_inverse=True)


def stable_word_lambdas(mats: list, length: int):
    """Jordan projections and eigenvalue signs of all positive words of a
    given length, computed without ever forming the word products.

    Both are conjugation invariants, so every cyclic rotation of a word has
    the values of its necklace; the sweeps below run once per necklace, on
    its least rotation, and the results are scattered to every word.

    A first sweep of per-letter applications converges a frame F0 to each
    word's attracting flag; a second sweep accumulates the per-letter
    Iwasawa a-parts, which telescope to the Jordan projection evaluated at
    the attracting flag, and ends at a frame F1. Every step is an
    orthogonal-matrix QR, so the result stays accurate for words whose raw
    products overflow double precision.

    Since w F0 = F1 R with R upper triangular and positive on the diagonal,
    and F1 = F0 S on the attracting flag, F0^T w F0 = S R: the signs of the
    eigenvalues in decreasing modulus order are S = sign(diag(F0^T F1)).
    Returns (words, lambdas, signs) for all words, in lexicographic order,
    with words of shape (N, length); raises NotLoxodromic if some
    necklace's frame has not converged (|diag(F0^T F1)| < 1/2).
    """
    n = mats[0].shape[0]
    words = _word_array(len(mats), length)
    reps, inverse = _necklace_index(len(mats), length)
    swept = words[reps]
    big = len(swept)
    xi_star = np.linalg.qr(np.random.default_rng(12345).standard_normal((n, n)))[0]
    frames = np.broadcast_to(xi_star, (big, n, n)).copy()
    stacked = np.asarray(mats)
    for _ in range(max(2, int(np.ceil(24.0 / length)))):
        for j in range(length):
            frames = stacked[swept[:, j]] @ frames
            frames, _ = _batched_qr_positive(frames)
    start = frames
    lam = np.zeros((big, n))
    for j in range(length):
        frames = stacked[swept[:, j]] @ frames
        frames, logs = _batched_qr_positive(frames)
        lam += logs
    lam -= lam.mean(axis=1, keepdims=True)
    overlap = np.einsum("bij,bij->bj", start, frames)
    stalled = np.abs(overlap).min(axis=1) < 0.5
    if stalled.any():
        first = tuple(int(i) for i in swept[np.argmax(stalled)])
        raise NotLoxodromic(
            f"{int(stalled.sum())} of {big} necklaces of length {length} have no "
            f"converged attracting frame (first: {first})"
        )
    return words, lam[inverse], np.where(overlap < 0, -1, 1)[inverse]


def _word_sweep(fam: SchottkyFamily, max_len: int, config: Config):
    """Engine output (words, lambdas, signs) for each length 1..max_len,
    after one check of the total word count against config.max_words."""
    mats = [L.g.entries for L in fam.generators]
    count = sum(len(mats) ** k for k in range(1, max_len + 1))
    if count > config.max_words:
        raise BudgetExceeded(f"{count} words exceeds the budget max_words = {config.max_words}")
    for length in range(1, max_len + 1):
        yield stable_word_lambdas(mats, length)


def _unit_rays(lams: np.ndarray) -> np.ndarray:
    """Normalized Jordan vectors; a loxodromic word has lambda != 0, so a
    vanishing one raises NotLoxodromic."""
    norms = np.linalg.norm(lams, axis=1)
    vanishing = norms <= 1e-12
    if vanishing.any():
        raise NotLoxodromic(
            f"{int(vanishing.sum())} of {len(lams)} words have a vanishing Jordan projection"
        )
    return lams / norms[:, np.newaxis]


def _cone_estimate(rays: np.ndarray, n: int, word_length: int) -> ConeEstimate:
    """Cone estimate with the extreme rays of the cone hull of the rows of
    `rays`."""
    dim = n - 1
    basis = _chamber_basis(n)
    pts = rays @ basis
    if dim == 1:
        hull = rays[:1]
    elif dim == 2:
        hull = _planar_hull(pts) @ basis.T
    else:
        from scipy.linalg import null_space
        from scipy.spatial import ConvexHull

        # Hull the central projection onto <x, c> = 1, c the mean ray: the
        # extreme rays are its vertices.  Rays of the closed chamber have
        # pairwise nonnegative inner products (so do the type-A fundamental
        # weights spanning it), so <ray, c> >= 1 / len(rays) > 0.  Facets
        # within 1e-9 of each other are merged, so rays that agree to 1e-9
        # (a word and its powers) give one vertex, as in _planar_hull.
        c = pts.mean(axis=0)
        flat = (pts / (pts @ c)[:, np.newaxis]) @ null_space(c[np.newaxis, :])
        vertices = ConvexHull(flat, qhull_options="Qbb Qc C-1e-9").vertices
        hull = pts[np.sort(vertices)] @ basis.T
    coords = _cartan_normal_form(rays)
    return ConeEstimate(
        coords.view([("coords", float, coords.shape[1:])])[:, 0].view(np.recarray),
        tuple(CartanVector(h / np.linalg.norm(h)) for h in hull),
        word_length,
    )


def limit_cone(fam: SchottkyFamily, max_len: int, config: Config = DEFAULT_CONFIG) -> ConeEstimate:
    """Hull of the Jordan directions of all positive words up to max_len."""
    rays = [_unit_rays(lams) for _, lams, _ in _word_sweep(fam, max_len, config)]
    return _cone_estimate(np.concatenate(rays), fam.generators[0].g.n, max_len)


def cone_contains(cone: ConeEstimate, direction: np.ndarray) -> bool:
    """Membership of a direction in the cone hull (nonneg combination)."""
    hull = np.array([h.coords for h in cone.hull]).T  # n x m
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    from scipy.optimize import nnls

    coeffs, resid = nnls(hull, d)
    return resid <= np.sqrt(1e-9)


def cone_interior(cone: ConeEstimate, direction: np.ndarray) -> bool:
    """Strict interior test: strictly positive hull-ray combination."""
    hull = np.array([h.coords for h in cone.hull]).T
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    m = hull.shape[1]
    if m == 1:
        return bool(np.linalg.norm(d - hull[:, 0]) < CONE_MARGIN)
    from scipy.optimize import linprog

    # maximize the smallest coefficient t: coeffs >= t, hull @ coeffs = d
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_eq = np.hstack([hull, np.zeros((hull.shape[0], 1))])
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=d,
                  bounds=[(None, None)] * m + [(None, None)], method="highs")
    return bool(res.success and -res.fun > CONE_MARGIN)


def _sign_bits(m: SignVector) -> tuple:
    return tuple(1 if s < 0 else 0 for s in m.signs)


def _reduce_bits(bits: tuple, basis_bits: list) -> tuple:
    vec = np.array(bits, dtype=int)
    for b in basis_bits:
        pivot = next(i for i, v in enumerate(b) if v)
        if vec[pivot]:
            vec = (vec + np.array(b)) % 2
    return tuple(int(v) for v in vec)


def sign_group(fam: SchottkyFamily, max_len: int, config: Config = DEFAULT_CONFIG) -> SignGroupReport:
    """The sign group M_Gamma via GF(2) elimination on the M-parts of the
    extended Jordan projections of all positive words up to max_len."""
    n = fam.generators[0].g.n
    basis, basis_bits, witnesses = [], [], []
    for words, _, signs in _word_sweep(fam, max_len, config):
        # a repeated row is already in the span: reduce first occurrences only
        _, first = np.unique(signs, axis=0, return_index=True)
        for i in np.sort(first):
            m = SignVector(tuple(int(s) for s in signs[i]))
            residual = _reduce_bits(_sign_bits(m), basis_bits)
            if any(residual):
                basis.append(m)
                basis_bits.append(residual)
                witnesses.append((tuple(int(k) for k in words[i]), m))
        # eigenvalue signs multiply to det = +1, so p <= n - 1
        if len(basis) == n - 1:
            break
    p = len(basis)
    return SignGroupReport(tuple(basis), 2 ** p, p, tuple(witnesses))


def coset_index(m: SignVector, report: SignGroupReport) -> tuple:
    """Canonical coset representative of m in M / M_Gamma as reduced bits."""
    return _reduce_bits(_sign_bits(m), [list(b) for b in map(_sign_bits, report.basis)])


def component_label_transport(
    word: tuple,
    fam: SchottkyFamily,
    start: BHCoordinates,
    report: SignGroupReport,
    config: Config = DEFAULT_CONFIG,
) -> tuple:
    """Transport the M/M_Gamma label of the start coordinates along a word.

    The accumulated cocycle M-part (times the start's M offset) is reduced
    modulo the sign group; the start with trivial AM part has label [e].
    """
    n = fam.generators[0].g.n
    family = covering_family(n)
    xi = start.xi
    s_cur = start.section
    acc = SignVector.identity(n)
    for idx in word:
        g = fam.generators[idx].g
        xi_next = act(g, xi)
        s_next = best_section(family, xi_next)
        beta = cocycle(s_next, s_cur, g, xi, config)
        acc = acc * beta.m
        xi, s_cur = xi_next, s_next
    acc = acc * start.x.m
    return coset_index(acc, report)


def decorrelation_discret_check(
    fam: SchottkyFamily,
    report: SignGroupReport,
    n_exp: int,
    config: Config = DEFAULT_CONFIG,
) -> dict:
    """Verify that products h_p^{2n+nu_p} ... h_1^{2n+nu_1} reach every sign
    component nu in {0,1}^p of M/M_0 (M_0 trivial here), with the section
    corrections m_i chosen so the ratio terms are sign-trivial.

    Returns {nu: (attained_bits, expected_bits, match)}.
    """
    p = report.p
    if p == 0:
        return {(): ((), (), True)}
    n = fam.generators[0].g.n
    witnesses = []
    for word, _ in report.witnesses:
        mat = np.eye(n)
        for idx in word:
            mat = fam.generators[idx].g.entries @ mat
        witnesses.append(classify(project_to_sl(mat), config))
    # generic arrangement: (h_{i-1}+, h_i-) transverse
    for i in range(1, p):
        if not is_transverse(witnesses[i - 1].attracting, witnesses[i].repelling, config):
            raise NotGeneric(f"witness pair ({i - 1}+, {i}-) not transverse")
    # base point transverse to h_1's repelling flag
    xi0 = None
    for cand in [w.attracting for w in reversed(witnesses)] + [
        L.attracting for L in fam.generators
    ]:
        if is_transverse(cand, witnesses[0].repelling, config) and not np.allclose(
            cand.rep, witnesses[0].repelling.rep
        ):
            xi0 = cand
            break
    if xi0 is None:
        raise NotGeneric("no base point transverse to the first witness")
    sections = [compact_section(w.repelling) for w in witnesses]
    s0 = compact_section(witnesses[0].repelling)
    # corrections m_i: make each chain ratio term sign-trivial
    m_corr = [SignVector.identity(n)]
    for i in range(p):
        s_prev = (s0 if i == 0 else sections[i - 1]).with_offset(
            AMElement(CartanVector(np.zeros(n)), m_corr[i])
        )
        anchor = xi0 if i == 0 else witnesses[i - 1].attracting
        rho = ratio(
            sections[i], s_prev, witnesses[i].repelling, witnesses[i].attracting, anchor, config
        ).m
        m_corr.append(rho)
    ms = [m for _, m in report.witnesses]
    s_top = sections[p - 1].with_offset(AMElement(CartanVector(np.zeros(n)), m_corr[p]))
    table = {}
    for bits in range(1 << p):
        nu = tuple((bits >> i) & 1 for i in range(p))
        # accumulate the product cocycle one witness factor at a time, never
        # forming a raw power (the cocycle relation is exact), keeping every
        # solve well conditioned
        beta = AMElement.identity(n)
        point = xi0
        s_prev = s0
        for i, w in enumerate(witnesses):
            s_next = s_top if i == p - 1 else sections[i]
            for _ in range(2 * n_exp + nu[i]):
                try:
                    beta = cocycle(s_next, s_prev, w.g, point, config) * beta
                except OutOfDomain as exc:
                    raise NeedLargerN(str(exc)) from exc
                point = act(w.g, point)
                s_prev = s_next
            # ping-pong containment: the orbit stays transverse to the next basin
            nxt = witnesses[i + 1].repelling if i + 1 < p else witnesses[i].repelling
            if not is_transverse(point, nxt, config):
                raise NeedLargerN(f"orbit point leaves the big cell at step {i}")
        expected = SignVector.identity(n)
        for i in range(p):
            if nu[i]:
                expected = expected * ms[i]
        attained = _sign_bits(beta.m)
        table[nu] = (attained, _sign_bits(expected), attained == _sign_bits(expected))
    return table


def jordan_line_density_probe(
    fam: SchottkyFamily,
    theta: CartanVector,
    window: tuple,
    max_len: int,
    delta0: float = 0.2,
    config: Config = DEFAULT_CONFIG,
) -> dict:
    """Project Jordan vectors of all words onto the theta-line; report the
    in-window hits among words with orthogonal deviation < delta0 and the
    sorted gaps of their theta-components."""
    t_dir = theta.coords / np.linalg.norm(theta.coords)
    cone_len = min(max_len, 4)
    rays, hits = [], []
    total = 0
    for words, lams, _ in _word_sweep(fam, max_len, config):
        if words.shape[1] <= cone_len:
            rays.append(_unit_rays(lams))
        total += len(lams)
        ts = lams @ t_dir
        devs = np.linalg.norm(lams - ts[:, np.newaxis] * t_dir, axis=1)
        mask = (devs < delta0) & (ts >= window[0]) & (ts <= window[1])
        hits.extend(float(t) for t in ts[mask])
    interior = cone_interior(
        _cone_estimate(np.concatenate(rays), fam.generators[0].g.n, cone_len), t_dir
    )
    hits.sort()
    gaps = np.diff(hits) if len(hits) > 1 else np.array([])
    out = {
        "theta_interior": bool(interior),
        "words": total,
        "hits": len(hits),
        "t_values": hits,
        "max_gap": float(gaps.max()) if gaps.size else float("inf"),
        "mean_gap": float(gaps.mean()) if gaps.size else float("inf"),
    }
    if not interior:
        out["warning"] = "theta-outside-cone"
    return out
