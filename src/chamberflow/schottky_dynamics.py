"""Strong Schottky families, limit-cone estimation, the sign group,
component-label transport, and decorrelation checks.
"""

from __future__ import annotations

import functools
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
    margin 0 and is refused with the rest. An empty seed list raises
    ValueError."""
    if len(seeds) == 0:
        raise ValueError("a Schottky family needs at least one seed")
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
    """All words of exactly `length` letters as an (N, length) index array
    of the smallest integer dtype, in lexicographic order; column j holds
    the j-th applied letter."""
    grids = np.indices((num_gens,) * length, dtype=np.min_scalar_type(num_gens - 1))
    return np.stack([g.ravel() for g in grids], axis=1)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one term at a time in index order, so that
    the bits of every entry do not depend on the sizes of the other axes."""
    total = a[0]
    for row in a[1:]:
        total = total + row
    return total


def _batched_qr_positive(frames: np.ndarray):
    """QR of a stack of square matrices with positive R diagonal; returns
    (Q stack, log|diag R| stack).

    Classical Gram-Schmidt runs twice on whole columns of the stack, each
    column one contiguous (n, B) array: one reorthogonalisation gives
    orthogonality at machine precision for every numerically nonsingular
    matrix ("twice is enough", Giraud, Langou and Rozloznik 2005). Every
    step is an elementwise ufunc or a `_sum_rows`, so the bits of each
    matrix's factors do not depend on the rest of the stack."""
    n = frames.shape[-1]
    cols = np.ascontiguousarray(frames.transpose(2, 1, 0))  # cols[j][i, b] = frames[b, i, j]
    q = np.empty_like(cols)
    norms = np.empty((n, len(frames)))
    for j in range(n):
        v = cols[j]
        for _ in range(2 if j else 0):
            coeffs = _sum_rows((q[:j] * v).swapaxes(0, 1))  # (j, B): <q_i, v>
            v = v - _sum_rows(coeffs[:, np.newaxis] * q[:j])
        norms[j] = np.sqrt(_sum_rows(v * v))
        np.divide(v, norms[j], out=q[j])
    return np.ascontiguousarray(q.transpose(2, 1, 0)), np.log(norms).T


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


@dataclass(frozen=True)
class _SweepSchedule:
    """The part of a `_necklace_sweep` that depends only on the generator
    count and the word lengths, as read-only tables. Rows are the
    necklaces of every length, shortest length first."""

    lengths: range
    bounds: np.ndarray     # (len(lengths) + 1,) row bounds of each length
    inverses: tuple        # per length: the row of each word's necklace
    words: tuple           # per length: `_word_array` of that length
    swept: np.ndarray      # (rows, max_len) least rotations, zero-padded
    letters: np.ndarray    # (steps, rows) letter each row applies per step
    waiting: np.ndarray    # (steps, rows, 1, 1) the row has not started
    starting: np.ndarray   # (steps, rows, 1, 1) the row's last period starts
    measuring: np.ndarray  # (steps, rows, 1) the row is in its last period


# A run sweeps a handful of (generator count, length range) keys, four in
# the `words` benchmark (260 KB together), so 8 entries keep them all. Each
# entry passed the max_words budget before it was built: its tables take
# one byte per letter of its words and about four per necklace and step:
# 4 MB for 2 generators at lengths 1..16, the longest the default allows.
@functools.lru_cache(maxsize=8)
def _sweep_schedule(num_gens: int, max_len: int, min_len: int) -> _SweepSchedule:
    """The necklaces of the word lengths min_len..max_len and the step
    tables of their sweep, built once per key and read-only."""
    lengths = range(min_len, max_len + 1)
    necklaces = [_necklace_index(num_gens, k) for k in lengths]
    words = [_word_array(num_gens, k) for k in lengths]
    bounds = np.cumsum([0] + [len(reps) for reps, _ in necklaces])
    lens = np.repeat(lengths, np.diff(bounds))
    swept = np.zeros((len(lens), max_len), dtype=words[0].dtype)
    for (reps, _), word, lo, hi in zip(necklaces, words, bounds, bounds[1:]):
        swept[lo:hi, : word.shape[1]] = word[reps]
    span = (np.maximum(2, np.ceil(24.0 / lens).astype(int)) + 1) * lens
    t = np.arange(span.max())[:, np.newaxis]
    begin = t.size - span
    measure_from = t.size - lens  # first step of the last period
    schedule = _SweepSchedule(
        lengths,
        bounds,
        tuple(inverse.astype(np.min_scalar_type(len(reps) - 1)) for reps, inverse in necklaces),
        tuple(words),
        swept,
        swept[np.arange(len(lens)), (t - begin) % lens],
        (t < begin)[:, :, np.newaxis, np.newaxis],
        (t == measure_from)[:, :, np.newaxis, np.newaxis],
        (t >= measure_from)[:, :, np.newaxis],
    )
    for table in (*schedule.inverses, *schedule.words, *vars(schedule).values()):
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return schedule


@functools.cache
def _start_frame(n: int) -> np.ndarray:
    """The frame xi* every row of a sweep starts from, read-only."""
    frame = np.linalg.qr(np.random.default_rng(12345).standard_normal((n, n)))[0]
    frame.flags.writeable = False
    return frame


def _necklace_sweep(mats: list, max_len: int, min_len: int = 1, config: Config = DEFAULT_CONFIG) -> list:
    """Engine output (words, lambdas, signs) for each word length
    min_len..max_len, from one batched sweep over the necklace
    representatives of all of them, without ever forming a word product.

    Both outputs are conjugation invariants, so every cyclic rotation of a
    word has the values of its necklace: the sweep runs once per necklace,
    on its least rotation, and the results are scattered to every word.

    A row of length k first runs max(2, ceil(24 / k)) periods of
    per-letter applications, which converge a frame F0 to its word's
    attracting flag, then one period that accumulates the per-letter
    Iwasawa a-parts; these telescope to the Jordan projection evaluated at
    the attracting flag, and the period ends at a frame F1. Every step is
    an orthogonal-matrix QR, so the result stays accurate for words whose
    raw products overflow double precision. Rows of every length share
    each step's QR call: a row starts late enough to end on the last step
    and is held fixed until then, so it goes through the operations of a
    sweep of its length alone, with the same bits. Which letter each row
    applies at each step depends on the generator count and the lengths
    only: `_sweep_schedule` builds those tables once per key.

    Since w F0 = F1 R with R upper triangular and positive on the
    diagonal, and F1 = F0 S on the attracting flag, F0^T w F0 = S R: the
    signs of the eigenvalues in decreasing modulus order are
    S = sign(diag(F0^T F1)). Each length's words come in lexicographic
    order, of shape (N, length), as a fresh int64 array; the shortest
    length with a necklace whose frame has not converged
    (|diag(F0^T F1)| < 1/2) raises NotLoxodromic. An empty generator list
    or a length below 1 raises ValueError, and more words than
    config.max_words BudgetExceeded, all before any table is built.
    """
    if len(mats) == 0:
        raise ValueError("a word sweep needs at least one generator")
    if min(min_len, max_len) < 1:
        raise ValueError(f"max_len = {max_len}: word lengths start at 1")
    count = sum(len(mats) ** k for k in range(min_len, max_len + 1))
    if count > config.max_words:
        raise BudgetExceeded(f"{count} words exceeds the budget max_words = {config.max_words}")
    n = mats[0].shape[0]
    schedule = _sweep_schedule(len(mats), max_len, min_len)
    rows = len(schedule.swept)
    frames = np.broadcast_to(_start_frame(n), (rows, n, n)).copy()
    start = frames
    lam = np.zeros((rows, n))
    stacked = np.asarray(mats)
    for letters, waiting, starting, measuring in zip(
        schedule.letters, schedule.waiting, schedule.starting, schedule.measuring
    ):
        if starting.any():
            start = np.where(starting, frames, start)
        moved, logs = _batched_qr_positive(stacked[letters] @ frames)
        frames = np.where(waiting, frames, moved) if waiting.any() else moved
        lam += np.where(measuring, logs, 0.0)
    lam -= lam.mean(axis=1, keepdims=True)
    overlap = np.einsum("bij,bij->bj", start, frames)
    stalled = np.abs(overlap).min(axis=1) < 0.5
    signs = np.where(overlap < 0, -1, 1)
    out = []
    for k, inverse, words, lo, hi in zip(
        schedule.lengths, schedule.inverses, schedule.words, schedule.bounds, schedule.bounds[1:]
    ):
        if stalled[lo:hi].any():
            first = tuple(int(i) for i in schedule.swept[lo + np.argmax(stalled[lo:hi]), :k])
            raise NotLoxodromic(
                f"{int(stalled[lo:hi].sum())} of {hi - lo} necklaces of length {k} have no "
                f"converged attracting frame (first: {first})"
            )
        out.append((words.astype(np.int64), lam[lo:hi][inverse], signs[lo:hi][inverse]))
    return out


def stable_word_lambdas(mats: list, length: int):
    """Jordan projections and eigenvalue signs of all positive words of a
    given length, computed without ever forming the word products: the
    one-length case of `_necklace_sweep`, budgeted by
    DEFAULT_CONFIG.max_words.

    Returns (words, lambdas, signs) for all words, in lexicographic order,
    with words of shape (N, length); raises NotLoxodromic if some
    necklace's frame has not converged, ValueError if length < 1, and
    BudgetExceeded past the word budget.
    """
    return _necklace_sweep(mats, length, length)[0]


@dataclass(frozen=True)
class WordSpectrum:
    """Output of `_necklace_sweep` for the word lengths 1..max_len: entry
    k - 1 of each tuple is the array for length k, frozen here."""

    words: tuple      # (g**k, k) letter indices, lexicographic order
    lambdas: tuple    # (g**k, n) Jordan projections
    signs: tuple      # (g**k, n) eigenvalue signs, decreasing modulus

    def __post_init__(self):
        for arr in self.words + self.lambdas + self.signs:
            arr.flags.writeable = False


def word_spectrum(fam: SchottkyFamily, max_len: int, config: Config = DEFAULT_CONFIG) -> WordSpectrum:
    """The spectrum of all positive words of lengths 1..max_len, after one
    check of their count against config.max_words."""
    mats = [L.g.entries for L in fam.generators]
    return WordSpectrum(*zip(*_necklace_sweep(mats, max_len, config=config)))


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


def _cone_estimate(rays: np.ndarray, word_length: int) -> ConeEstimate:
    """Cone estimate with the extreme rays of the cone hull of the rows of
    `rays`."""
    dim = rays.shape[1] - 1
    basis = _chamber_basis(rays.shape[1])
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
    return _cone_estimate(_unit_rays(np.concatenate(word_spectrum(fam, max_len, config).lambdas)), max_len)


def cone_interior(cone: ConeEstimate, direction: np.ndarray) -> bool:
    """Strict interior test: d = direction / |direction| is a combination
    of the m hull rays whose smallest coefficient t* exceeds CONE_MARGIN.

    A simplicial hull (m rays of rank m, so m <= n - 1; every hull at
    n <= 3) is decided in closed form: hull @ coeffs = d has at most one
    solution, so t* is the least entry of the least-squares solution if
    its residual vanishes, and no combination exists otherwise.

    The residual is the part of d off the rays' span. LAPACK obtains it by
    orthogonal transformations of the unit vector d, so for d on the span
    it is rounding of order n * 2.2e-16, however ill-conditioned the rays
    are. A residual above 1e-9, far above that rounding and below the 1e-7
    feasibility tolerance to which HiGHS holds the equality in the LP
    below, puts d off the span. The coefficients are accurate whenever
    the answer can be True: then all of them are positive, and rays of
    the closed chamber have pairwise nonnegative inner products, so
    |coeffs| <= |hull @ coeffs| = 1.

    Otherwise the rays are linearly dependent, as more than n - 1 extreme
    rays (possible from n = 4 on) always are, and a HiGHS LP maximizes t*.
    """
    hull = np.array([h.coords for h in cone.hull]).T
    d = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    n, m = hull.shape
    if m == 1:
        return bool(np.linalg.norm(d - hull[:, 0]) < CONE_MARGIN)
    coeffs, residual, rank, _ = np.linalg.lstsq(hull, d, rcond=None)
    if rank == m < n:  # numpy reports the squared residual in exactly this case
        return bool(np.sqrt(residual[0]) <= 1e-9 and coeffs.min() > CONE_MARGIN)
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
    spectrum = word_spectrum(fam, max_len, config)
    basis, basis_bits, witnesses = [], [], []
    for words, signs in zip(spectrum.words, spectrum.signs):
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
        if len(basis) == signs.shape[1] - 1:
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
    sorted gaps of their theta-components; with fewer than two hits both
    gaps are None. The window is two finite numbers lo <= hi."""
    n = fam.generators[0].g.n
    norm = np.linalg.norm(theta.coords)
    if theta.n != n or not 0.0 < norm < np.inf:
        raise ValueError(f"theta = {theta.coords.tolist()} is not a finite nonzero vector of R^{n}")
    if len(window) != 2 or not np.isfinite(window).all() or window[0] > window[1]:
        raise ValueError(f"window = {list(window)} is not two finite numbers lo <= hi")
    t_dir = theta.coords / norm
    lambdas = word_spectrum(fam, max_len, config).lambdas
    cone_len = min(max_len, 4)
    interior = cone_interior(_cone_estimate(_unit_rays(np.concatenate(lambdas[:cone_len])), cone_len), t_dir)
    lams = np.concatenate(lambdas)
    ts = lams @ t_dir
    devs = np.linalg.norm(lams - ts[:, np.newaxis] * t_dir, axis=1)
    hits = sorted(float(t) for t in ts[(devs < delta0) & (ts >= window[0]) & (ts <= window[1])])
    gaps = np.diff(hits) if len(hits) > 1 else np.array([])
    out = {
        "theta_interior": bool(interior),
        "words": len(lams),
        "hits": len(hits),
        "t_values": hits,
        "max_gap": float(gaps.max()) if gaps.size else None,
        "mean_gap": float(gaps.mean()) if gaps.size else None,
    }
    if not interior:
        out["warning"] = "theta-outside-cone"
    return out
