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
from .flag_boundary import _comparison_margins, _comparisons, act, flags_equal, is_transverse
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
            if flags_equal(a.attracting, b.attracting) or flags_equal(a.repelling, b.repelling):
                raise NotGeneric(f"seeds {j} and {i} share a fixed flag")
    # margins[i, j] = boundary_margin_estimate(g_i+, g_j-), all from one
    # stack of comparison matrices; the first pair below 6r in row-major
    # order is refused
    m, n = len(classified), classified[0].g.n
    att = np.stack([a.attracting.rep for a in classified])
    rep = np.stack([b.repelling.rep for b in classified])
    margins = _comparison_margins(_comparisons(att[:, np.newaxis], rep[np.newaxis]).reshape(-1, n, n), config)
    margins = margins.reshape(m, m)
    low = margins < 6 * r
    if low.any():
        i, j = divmod(int(np.argmax(low)), m)
        raise NotGeneric(f"margin d(g{i}+, boundary b(g{j}-)) = {margins[i, j]:.4f} < 6r")
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


def _batched_qr_positive(frames: np.ndarray):
    """QR of a stack of square matrices with positive R diagonal; returns
    (Q stack, log|diag R| stack).

    Classical Gram-Schmidt runs twice on whole columns of the stack, each
    column one contiguous (n, B) array: one reorthogonalisation gives
    orthogonality at machine precision for every numerically nonsingular
    matrix ("twice is enough", Giraud, Langou and Rozloznik 2005). Every
    step is an elementwise ufunc on whole rows of the stack, and every sum
    adds its terms one row at a time in index order, so the bits of each
    matrix's factors do not depend on the rest of the stack."""
    n = frames.shape[-1]
    cols = np.ascontiguousarray(frames.transpose(2, 1, 0))  # cols[j][i, b] = frames[b, i, j]
    q = np.empty_like(cols)
    norms = np.empty((n, len(frames)))
    for j in range(n):
        v, basis = cols[j], q[:j]
        for _ in range(2 if j else 0):
            # each sum accumulates in place into the first row of its terms
            terms = basis * v  # terms[l, i] = q_l[i] v[i]
            coeffs = terms[:, :1]  # (j, 1, B): <q_l, v>
            for i in range(1, n):
                coeffs += terms[:, i:i + 1]
            terms = coeffs * basis
            projection = terms[0]
            for l in range(1, j):
                projection += terms[l]
            v = v - projection
        squares = v * v
        total = squares[0]
        for i in range(1, n):
            total += squares[i]
        np.divide(v, np.sqrt(total, out=norms[j]), out=q[j])
    return q.transpose(2, 1, 0), np.log(norms).T


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
    necklaces of every length, stably sorted by the step at which they
    start, so the rows moving at a step are a prefix and each length's
    rows stay together, in their own order."""

    lengths: range
    blocks: tuple          # per length: the slice of its rows
    inverses: tuple        # per length: the row of each word's necklace
    words: tuple           # per length: `_word_array` of that length
    swept: np.ndarray      # (rows, max_len) least rotations, zero-padded
    letters: np.ndarray    # (steps, rows) letter each row applies per step
    active: tuple          # per step: how many rows have started
    starting: tuple        # per step: the block whose last period starts, or None
    measuring: tuple       # per step: (active, 1) mask of the rows in their
                           # last period, or None before any row is in it


# A run sweeps a handful of (generator count, length range) keys, four in
# the `words` benchmark (144 KB together), so 8 entries keep them all. Each
# entry passed the max_words budget before it was built: its tables take
# one byte per letter of its words, one or two per word for the inverses,
# one per necklace and step and one per necklace and measured step:
# 2.9 MB for 2 generators at lengths 1..16, the longest the default allows.
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
    steps = int(span.max())
    # rows by first step; the sort is stable, so a length's rows stay
    # together and in order, and rank[i] is the new place of row i
    order = np.argsort(steps - span, kind="stable")
    rank = np.argsort(order)
    swept, lens, begin = swept[order], lens[order], steps - span[order]
    measure_from = steps - lens  # first step of the last period
    blocks = tuple(slice(int(rank[lo]), int(rank[lo] + hi - lo)) for lo, hi in zip(bounds, bounds[1:]))
    inverses = [rank[lo + inverse] for lo, (_, inverse) in zip(bounds, necklaces)]
    starting = {steps - k: block for k, block in zip(lengths, blocks)}
    active = np.searchsorted(begin, np.arange(steps), side="right")
    t = np.arange(steps)[:, np.newaxis]
    schedule = _SweepSchedule(
        lengths,
        blocks,
        tuple(inverse.astype(np.min_scalar_type(inverse.max())) for inverse in inverses),
        tuple(words),
        swept,
        swept[np.arange(len(lens)), (t - begin) % lens],
        tuple(int(a) for a in active),
        tuple(starting.get(step) for step in range(steps)),
        tuple(
            (step >= measure_from[:a, np.newaxis]) if step >= steps - max_len else None
            for step, a in enumerate(active)
        ),
    )
    for table in (*schedule.inverses, *schedule.words, *schedule.measuring, swept, schedule.letters):
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
    each step's QR call: a row starts late enough to end on the last step,
    and the rows that have started are a prefix of the schedule's row
    order, which alone goes into the call. Its logs are added only on the
    steps of its last period, so it goes through the operations of a sweep
    of its length alone, with the same bits. Which rows move, start or
    measure at each step, and which letter each applies, depends on the
    generator count and the lengths only: `_sweep_schedule` builds those
    tables once per key.

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
    start = np.empty_like(frames)
    lam = np.zeros((rows, n))
    stacked = np.asarray(mats)
    for letters, active, starting, measuring in zip(
        schedule.letters, schedule.active, schedule.starting, schedule.measuring
    ):
        if starting is not None:
            start[starting] = frames[starting]
        moving = frames[:active]
        moved, logs = _batched_qr_positive(stacked[letters[:active]] @ moving)
        moving[...] = moved
        if measuring is not None:
            measured = lam[:active]
            np.add(measured, logs, out=measured, where=measuring)
    lam -= lam.mean(axis=1, keepdims=True)
    overlap = np.einsum("bij,bij->bj", start, frames)
    stalled = np.abs(overlap).min(axis=1) < 0.5
    signs = np.where(overlap < 0, -1, 1)
    out = []
    for k, block, inverse, words in zip(schedule.lengths, schedule.blocks, schedule.inverses, schedule.words):
        if stalled[block].any():
            first = tuple(int(i) for i in schedule.swept[block][np.argmax(stalled[block]), :k])
            raise NotLoxodromic(
                f"{int(stalled[block].sum())} of {block.stop - block.start} necklaces of length {k} "
                f"have no converged attracting frame (first: {first})"
            )
        out.append((words.astype(np.int64), lam[inverse], signs[inverse]))
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


def _sign_mask(m: SignVector) -> int:
    """m as a GF(2) vector: bit n - 1 - i is set when sign i is -1, so the
    leading bit is the first negative sign."""
    return int("".join("1" if s < 0 else "0" for s in m.signs), 2)


def _mask_bits(mask: int, n: int) -> tuple:
    """The n bits of a sign mask in sign order, first sign first."""
    return tuple(int(c) for c in format(mask, f"0{n}b"))


def sign_group(fam: SchottkyFamily, max_len: int, config: Config = DEFAULT_CONFIG) -> SignGroupReport:
    """The sign group M_Gamma: the GF(2) span of the sign masks of all positive
    words up to max_len, each word whose mask leaves the span a witness."""
    spectrum = word_spectrum(fam, max_len, config)
    span, witnesses = {0}, []
    for words, signs in zip(spectrum.words, spectrum.signs):
        # a repeated row is already in the span: test first occurrences only
        _, first = np.unique(signs, axis=0, return_index=True)
        for i in np.sort(first):
            m = SignVector(signs[i])
            mask = _sign_mask(m)
            if mask not in span:
                span |= {x ^ mask for x in span}
                witnesses.append((tuple(int(k) for k in words[i]), m))
        # eigenvalue signs multiply to det = +1, so |M_Gamma| <= 2^(n-1)
        if len(span) == 1 << (signs.shape[1] - 1):
            break
    basis = tuple(m for _, m in witnesses)
    return SignGroupReport(basis, len(span), len(basis), tuple(witnesses))


def coset_index(m: SignVector, report: SignGroupReport) -> tuple:
    """Canonical representative of the coset of m modulo M_Gamma, as bits: its
    least mask, which is 0 at the leading bit of every mask of M_Gamma."""
    span = {0}
    for b in map(_sign_mask, report.basis):
        span |= {x ^ b for x in span}
    return _mask_bits(min(_sign_mask(m) ^ x for x in span), m.n)


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
        s_next = best_section(family, xi_next, config)
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
    if n_exp < 0:
        raise ValueError(f"n_exp = {n_exp}: the exponents 2 n_exp + nu must be non-negative")
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
    xi0, first = None, witnesses[0].repelling
    for cand in [w.attracting for w in reversed(witnesses)] + [L.attracting for L in fam.generators]:
        if is_transverse(cand, first, config) and not flags_equal(cand, first):
            xi0 = cand
            break
    if xi0 is None:
        raise NotGeneric("no base point transverse to the first witness")
    sections = [compact_section(w.repelling) for w in witnesses]
    # corrections m_i: make each chain ratio term sign-trivial
    m_corr = [SignVector.identity(n)]
    for i in range(p):
        s_prev = sections[max(i - 1, 0)].with_offset(AMElement(CartanVector(np.zeros(n)), m_corr[i]))
        anchor = xi0 if i == 0 else witnesses[i - 1].attracting
        rho = ratio(
            sections[i], s_prev, witnesses[i].repelling, witnesses[i].attracting, anchor, config
        ).m
        m_corr.append(rho)
    masks = [_sign_mask(m) for m in report.basis]
    s_top = sections[p - 1].with_offset(AMElement(CartanVector(np.zeros(n)), m_corr[p]))
    table = {}
    for bits in range(1 << p):
        nu = tuple((bits >> i) & 1 for i in range(p))
        # accumulate the product cocycle one witness factor at a time, never
        # forming a raw power (the cocycle relation is exact), keeping every
        # chart read well conditioned
        beta = AMElement.identity(n)
        point = xi0
        s_prev = sections[0]
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
        expected = functools.reduce(int.__xor__, (mask for mask, bit in zip(masks, nu) if bit), 0)
        attained = _sign_mask(beta.m)
        table[nu] = (_mask_bits(attained, n), _mask_bits(expected, n), attained == expected)
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
    gaps are None. The window is two finite numbers lo <= hi, and delta0 a
    finite positive number."""
    if not 0.0 < delta0 < np.inf:
        raise ValueError(f"delta0 = {delta0} is not a finite positive number")
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
