"""Constructive density checks in V x C with V = R^d and C = (R/Z)^k.

select_dense_subgroup_generators picks at most 3d + 2k elements whose
generated group delta-covers a window times the full torus;
semigroup_cone_density constructs the translation v_F after which the
positive semigroup is delta-dense in a translated cone.

Both enumerate the (semi)group with _generated_group, a level-synchronous
BFS: each level steps the whole frontier by every generator at once and
keeps, per delta/4 grid cell not yet in a set of exact integer cell keys,
the first point in (frontier index, step index) order, which is the
first-visit order of a node-by-node BFS.  A step moves one coefficient by
+-1, so the coefficient bound is tested only past level coeff_bound.
Both check their grid centres with _coverage, on the neighbour search
_near_pairs: the points binned on a grid as wide as delta, each centre
compared with the points of its 3^(d + k) neighbouring bins only.  A
certificate keeps the BFS output and the centres as read-only arrays.
verify_certificate replays a certificate in arrays, one V-slice of cell
centres at a time, and checks that every recorded point is the combination
of the subset its coefficients claim, within the limits of the
certificate's kind (nonnegative coefficients for a semigroup, at most
3d + 2k generators for a group); it shares no code with the BFS or the
neighbour search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotDenseAtBudget

COEFF_BOUND = 1000   # largest |coefficient| the (semi)group enumeration reaches


@dataclass(frozen=True)
class TorusPoint:
    """A point of V x C; torus coordinates are reduced mod 1 into [0, 1)."""

    v: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float)) % 1.0
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return self.v.shape[0]

    @property
    def k(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class DensityCertificate:
    """points, coeffs and centers are read-only arrays, frozen here."""

    delta: float
    subset: tuple
    grid_step: float
    coeff_bound: int
    covered: bool
    kind: str                                 # "group" (select) or "semigroup" (cone)
    d: int                                    # dimension of V: [v | c] rows split at column d
    points: np.ndarray                        # (N, d + k) [v | c] rows backing the certificate
    coeffs: np.ndarray                        # (N, len(subset)) integer coefficients of those rows
    centers: np.ndarray                       # (M, d + k) grid cell centers the flag certifies
    uncovered_farthest: tuple | None = None   # (cell center, distance) when not covered

    def __post_init__(self):
        for name in ("points", "coeffs", "centers"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _grid_centers(window: np.ndarray, k: int, step: float):
    """Cell centers of the window box times the full torus at the given step."""
    axes = []
    for lo, hi in window:
        count = max(1, int(np.ceil((hi - lo) / step)))
        axes.append(lo + (np.arange(count) + 0.5) * (hi - lo) / count)
    for _ in range(k):
        count = max(1, int(np.ceil(1.0 / step)))
        axes.append((np.arange(count) + 0.5) / count)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_EXACT_BINS = 2.0 ** 52   # bin indices past this are not exact in a float64 floor
_BLOCK = 1 << 15          # distances the neighbour search holds at once


def _wrap_distance(p, q, d: int, shape: tuple) -> np.ndarray:
    """Distance between [v | c] points: p and q yield, coordinate by
    coordinate, arrays of the two sides that broadcast to shape.  Each torus
    coordinate is compared by its wrap-around difference
    min(|dc|, 1 - |dc|), which is verify_certificate's
    min(|dc| mod 1, 1 - ...) for torus coordinates in [0, 1], as TorusPoint
    and the BFS reduce them.  As in verify_certificate, the V squares and the
    torus squares are each summed coordinate by coordinate, in order, and
    the two sums then added."""
    sq = np.zeros((2,) + shape)
    for a, (pa, qa) in enumerate(zip(p, q)):
        diff = pa - qa
        np.abs(diff, out=diff)
        if a >= d:
            np.minimum(diff, 1.0 - diff, out=diff)
        diff *= diff
        sq[int(a >= d)] += diff
    return np.sqrt(sq[0] + sq[1])


def _near_pairs(points: np.ndarray, k: int, queries: np.ndarray, radius: float):
    """(qi, pj, dist): every query, point pair within radius of each other,
    at _wrap_distance, grouped by query in query order.

    The points are binned with side radius on the V axes and in
    floor(1 / radius) wrapped bins, each at least radius wide, on the torus
    axes, so a point within radius of a query lies in one of the 3^(d + k)
    bins around the query's own; a torus axis of at most 2 bins offers
    each of its bins once, where the three offsets would meet after
    wrapping.  Each axis numbers only its occupied bins, so the mixed-radix
    bin key stays below the product of those counts.  BudgetExceeded when
    that product leaves int64, or a bin index the exact integers of float64.
    Distances are taken for blocks of queries with about _BLOCK candidate
    pairs each, so memory stays bounded however many pairs there are.
    """
    n, dim = points.shape
    d, m = dim - k, len(queries)
    slots = max(1.0, np.floor(1.0 / radius))   # torus bins per unit
    point_key = np.zeros(n, dtype=np.int64)
    query_keys = np.zeros((m, 1), dtype=np.int64)   # -1: no occupied bin
    span = 1
    for a in range(dim):
        if a < d:
            pb, qb = np.floor(points[:, a] / radius), np.floor(queries[:, a] / radius)
            near = qb[:, None] + (-1.0, 0.0, 1.0)
        else:
            pb, qb = np.floor(points[:, a] * slots) % slots, np.floor(queries[:, a] * slots) % slots
            near = (qb[:, None] + ((-1.0, 0.0, 1.0) if slots > 2 else np.arange(slots))) % slots
        occupied = np.unique(pb)
        span *= len(occupied)
        top = max(np.abs(pb).max(), np.abs(qb).max(initial=0.0), slots if a >= d else 0.0)
        if not top < _EXACT_BINS or span >= 2**63:
            raise BudgetExceeded(
                f"neighbour search at radius {radius}: the bins of {n} points and {m} queries "
                "leave the exact integer range"
            )
        pos = np.searchsorted(occupied, near)
        hit = occupied[np.minimum(pos, len(occupied) - 1)] == near
        point_key = point_key * len(occupied) + np.searchsorted(occupied, pb)
        query_keys = np.where(
            (query_keys[:, :, None] >= 0) & hit[:, None, :],
            query_keys[:, :, None] * len(occupied) + pos[:, None, :],
            -1,
        ).reshape(m, -1)
    order = np.argsort(point_key, kind="stable")
    sorted_keys = point_key[order]
    sorted_t = np.ascontiguousarray(points[order].T)
    queries_t = np.ascontiguousarray(queries.T)
    # a key of -1 matches no point, since every point key is >= 0
    lo = np.searchsorted(sorted_keys, query_keys, "left")
    counts = np.searchsorted(sorted_keys, query_keys, "right") - lo
    step = max(1, m * _BLOCK // max(1, int(counts.sum())))   # queries per block
    found = []
    for q0 in range(0, m, step):
        block_lo, block_counts = lo[q0 : q0 + step].ravel(), counts[q0 : q0 + step].ravel()
        ends = np.cumsum(block_counts)
        rows = np.arange(ends[-1]) + np.repeat(block_lo - ends + block_counts, block_counts)
        per_query = counts[q0 : q0 + step].sum(axis=1)
        p = (col[rows] for col in sorted_t)
        q = (np.repeat(col[q0 : q0 + step], per_query) for col in queries_t)
        dist = _wrap_distance(p, q, d, rows.shape)
        within = np.flatnonzero(dist <= radius)
        qi = q0 + np.searchsorted(np.cumsum(per_query), within, "right")
        found.append((qi, order[rows[within]], dist[within]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _nearest_distance(points: np.ndarray, k: int, queries: np.ndarray) -> np.ndarray:
    """Distance from each query to its nearest point, at _wrap_distance, by a
    scan of all points, a block of about _BLOCK distances at a time."""
    d = points.shape[1] - k
    step = max(1, _BLOCK // max(1, len(points)))
    return np.concatenate(
        [
            _wrap_distance(points.T[:, None, :], chunk.T[:, :, None], d, (len(chunk), len(points)))
            .min(axis=1, initial=np.inf)
            for chunk in np.split(queries, np.arange(step, len(queries), step))
        ]
    )


def _coverage(points: np.ndarray, k: int, centers: np.ndarray, delta: float):
    """(covered, farthest (center, distance)): is every center within delta of
    a point?  A center with no point within delta gets its exact nearest
    distance from a scan of all points."""
    qi, _, dist = _near_pairs(points, k, centers, delta)
    first = np.flatnonzero(np.diff(qi, prepend=-1))
    nearest = np.full(len(centers), np.inf)
    nearest[qi[first]] = np.minimum.reduceat(dist, first)
    lonely = np.flatnonzero(np.isinf(nearest))
    nearest[lonely] = _nearest_distance(points, k, centers[lonely])
    worst = int(np.argmax(nearest))
    covered = bool(nearest[worst] <= delta)
    return covered, (tuple(float(x) for x in centers[worst]), float(nearest[worst]))


def _generated_group(
    gens: list, window: np.ndarray, k: int, delta: float, coeff_bound: int, positive_only=False
):
    """Level-synchronous BFS enumeration of the (semi)group generated by gens,
    restricted to a window inflated by one generator step; deduplicated by a
    set of exact integer delta/4-grid cells, torus cells mod cells per unit.

    Each level steps the whole frontier by every generator (each followed by
    its inverse unless positive_only) at once, then keeps, in (frontier index,
    step index) order, each candidate in the window whose cell is unseen: the
    first-visit order of a node-by-node BFS, at a cost per candidate.  A step
    moves one coefficient by +-1, so |coeff|_inf <= level, and coeff_bound
    cuts nothing before level coeff_bound + 1.

    Returns (points, coeffs): an (n, d + k) array of [v | c] rows with the
    torus part reduced mod 1, and the (n, len(gens)) integer coefficients.
    """
    d, g = window.shape[0], len(gens)
    steps = np.array([np.concatenate([p.v, p.c]) for p in gens]).reshape(g, d + k)
    step_coeffs = np.eye(g, dtype=int)
    if not positive_only:
        steps = np.stack([steps, -steps], axis=1).reshape(2 * g, d + k)
        step_coeffs = np.stack([step_coeffs, -step_coeffs], axis=1).reshape(2 * g, g)
    reach = max((np.linalg.norm(p.v) for p in gens), default=0.0) + delta
    lo, hi = window[:, 0] - reach, window[:, 1] + reach
    res = delta / 4.0
    cells = max(1, int(round(1.0 / res)))
    frontier, coeffs = np.zeros((1, d + k)), np.zeros((1, g), dtype=int)
    seen = {(0,) * (d + k)}
    levels = [(frontier, coeffs)]
    while len(frontier) and g:
        pts = (frontier[:, None, :] + steps).reshape(len(frontier) * len(steps), d + k)
        pts[:, d:] %= 1.0
        inside = ~((pts[:, :d] < lo) | (pts[:, :d] > hi)).any(axis=1)
        if len(levels) > coeff_bound:   # these candidates have |coeff|_inf <= len(levels)
            inside &= (np.abs(coeffs[:, None, :] + step_coeffs).max(axis=2) <= coeff_bound).ravel()
        grid = np.rint(pts / res).astype(int)
        grid[:, d:] %= cells
        order = []
        for i, (ok, cell) in enumerate(zip(inside.tolist(), grid.tolist())):
            if ok and (cell := tuple(cell)) not in seen:
                seen.add(cell)
                order.append(i)
        order = np.array(order, dtype=int)
        row, step = np.divmod(order, len(steps))
        frontier, coeffs = pts[order], coeffs[row] + step_coeffs[step]
        levels.append((frontier, coeffs))
    points, coeffs = zip(*levels)
    return np.concatenate(points), np.concatenate(coeffs)


def _common_shape(points: list) -> tuple:
    """The (d, k) shared by all points; ValueError if there are none or they differ."""
    shapes = sorted({(p.d, p.k) for p in points})
    if len(shapes) != 1:
        raise ValueError(
            "no points given" if not shapes else f"points of mixed (d, k) shapes {shapes}"
        )
    return shapes[0]


def _window_box(window, d: int) -> np.ndarray:
    """window as a (d, 2) array of (lo, hi) rows; ValueError unless it has
    that shape and lo <= hi in every row."""
    box = np.atleast_2d(np.asarray(window, dtype=float))
    if box.shape != (d, 2):
        raise ValueError(f"window of shape {box.shape}; points with d = {d} need shape {(d, 2)}")
    if not np.all(box[:, 0] <= box[:, 1]):
        raise ValueError(f"window rows need lo <= hi, got {box.tolist()}")
    return box


def _greedy_v_basis(E: list, d: int) -> list:
    """Indices of <= d elements maximizing the spanned volume of the V-parts."""
    chosen = []
    chosen_vecs = []
    for _ in range(d):
        best, best_vol = None, 1e-12
        for i, p in enumerate(E):
            if i in chosen:
                continue
            cand = chosen_vecs + [p.v]
            gram = np.array([[a @ b for b in cand] for a in cand])
            vol = float(np.linalg.det(gram))
            if vol > best_vol:
                best, best_vol = i, vol
        if best is None:
            break
        chosen.append(best)
        chosen_vecs.append(E[best].v)
    return chosen


def _check_delta(delta) -> None:
    """ValueError unless delta is finite and > 0."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta = {delta}: the covering radius must be finite and > 0")


def select_dense_subgroup_generators(
    E: list,
    delta: float,
    window,
) -> DensityCertificate:
    """Pick at most 3d + 2k elements of E whose generated group delta-covers
    window x torus (verified on a grid of step delta / 2)."""
    _check_delta(delta)
    d, k = _common_shape(E)
    window = _window_box(window, d)
    step = delta / 2.0
    limit = 3 * d + 2 * k
    subset_idx = _greedy_v_basis(E, d)
    remaining = [i for i in range(len(E)) if i not in subset_idx]
    centers = _grid_centers(window, k, step)

    def covered_with(indices):
        pts, coeffs = _generated_group([E[i] for i in indices], window, k, delta, COEFF_BOUND)
        ok, far = _coverage(pts, k, centers, delta)
        return ok, far, pts, coeffs

    ok, far, pts, coeffs = covered_with(subset_idx)
    while not ok and remaining and len(subset_idx) < limit:
        # greedy: add the element that shrinks the farthest-cell distance most
        best_i, best_far, best_state = None, None, None
        for i in remaining:
            trial = subset_idx + [i]
            t_ok, t_far, t_pts, t_coeffs = covered_with(trial)
            if best_far is None or t_far[1] < best_far[1]:
                best_i, best_far = i, t_far
                best_state = (t_ok, t_far, t_pts, t_coeffs)
            if t_ok:
                break
        subset_idx.append(best_i)
        remaining.remove(best_i)
        ok, far, pts, coeffs = best_state
    cert = DensityCertificate(
        delta=delta,
        subset=tuple(E[i] for i in subset_idx),
        grid_step=step,
        coeff_bound=COEFF_BOUND,
        covered=ok,
        kind="group",
        d=d,
        points=pts,
        coeffs=coeffs,
        centers=centers,
        uncovered_farthest=None if ok else far,
    )
    if not ok:
        raise NotDenseAtBudget(
            f"covering failed; farthest cell {far[0]} at distance {far[1]:.4f}", cert
        )
    return cert


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of float64."""
    nu = n * np.finfo(float).eps / 2
    return nu / (1.0 - nu)


def _provenance_holds(cert: DensityCertificate, pv: np.ndarray, pc: np.ndarray) -> bool:
    """Does every recorded point equal coeffs @ subset, within a derived bound,
    with every |coefficient| <= coeff_bound, every coefficient >= 0 in a
    semigroup certificate and at most 3d + 2k generators in a group one?

    The enumeration reaches a point by adding one generator per BFS level,
    reducing the torus part mod 1 at each, and every partial sum on the way
    is itself a recorded point; there are fewer levels than points.  So with
    n points, recursive summation (Higham, Accuracy and Stability, ch. 3)
    errs by at most gamma_n times the largest partial-sum magnitude: the
    largest |recorded V-part| per coordinate, and on the torus the largest
    pre-reduction sum |c + s| plus 1 for the rounding of the reduction.
    Re-forming coeffs @ subset here and subtracting is an inner product of
    length len(subset) + 1, which adds gamma_{len(subset)+1} times the
    absolute inner product.  The torus residual is a wrap-around distance.
    """
    n, d = pv.shape
    if cert.kind == "group":
        if len(cert.subset) > 3 * d + 2 * pc.shape[1]:
            return False
    elif cert.kind != "semigroup":
        return False
    if n == 0:
        return True
    sv = np.asarray([p.v for p in cert.subset]).reshape(len(cert.subset), d)
    sc = np.asarray([p.c for p in cert.subset]).reshape(len(cert.subset), pc.shape[1])
    coeffs = np.asarray(cert.coeffs, dtype=float)
    if np.abs(coeffs).max(initial=0.0) > cert.coeff_bound:
        return False
    if cert.kind == "semigroup" and coeffs.min(initial=0.0) < 0:
        return False
    walk, replay = _gamma(n), _gamma(len(sv) + 1)
    v_bound = walk * np.abs(pv).max(axis=0) + replay * (np.abs(pv) + np.abs(coeffs) @ np.abs(sv))
    if (np.abs(pv - coeffs @ sv) > v_bound).any():
        return False
    c_sum = np.abs(pc).max(initial=0.0) + np.abs(sc).max(initial=0.0)
    c_bound = walk * (c_sum + 1.0) + replay * (np.abs(pc) + np.abs(coeffs) @ np.abs(sc))
    wrap = np.abs(pc - coeffs @ sc) % 1.0
    return not (np.minimum(wrap, 1.0 - wrap) > c_bound).any()


def verify_certificate(cert: DensityCertificate) -> bool:
    """Independent replay of a covering certificate, without the neighbour search.

    True iff every certified cell centre lies within delta of a recorded
    point and every recorded point is the combination of the subset that
    its coefficients claim, within what the certificate's kind allows (see
    _provenance_holds).  A refused certificate whose centres are not all
    covered replays to False.

    The centres are replayed one V-part at a time: the grid's torus axes
    share each V-part, and a point farther than delta in V alone is no
    witness, so each slice compares its centres with only the points within
    delta of it in V.
    """
    d = cert.d
    pv, pc, centers = cert.points[:, :d], cert.points[:, d:], cert.centers
    if not _provenance_holds(cert, pv, pc):
        return False
    parts, slice_of = np.unique(centers[:, :d], axis=0, return_inverse=True)
    slice_of = slice_of.reshape(-1)   # numpy 2.0.0 shapes it (n, 1)
    for i, u in enumerate(parts):
        dv2 = ((pv - u) ** 2).sum(axis=1)
        near = np.sqrt(dv2) <= cert.delta
        wrap = np.abs(pc[near] - centers[slice_of == i, None, d:]) % 1.0
        dc2 = (np.minimum(wrap, 1.0 - wrap) ** 2).sum(axis=2)
        if float(np.sqrt(dv2[near] + dc2).min(axis=1, initial=np.inf).max()) > cert.delta:
            return False
    return True


CONE_MEMBERSHIP_TOL = 1e-9   # absolute distance floor of _cone_membership


def _cone_membership(vf_dirs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Which rows w of the (P, d) stack W are nonnegative combinations of the
    m columns of vf_dirs?  Those with |w| < CONE_MEMBERSHIP_TOL, or within
    max(CONE_MEMBERSHIP_TOL, 1e-7 |w|) of the cone.

    The distance to the cone is the least of |w| and, over the linearly
    independent column subsets S with |S| <= min(m, d) whose least-squares
    coefficients for w are all >= 0, the residual of projecting w onto
    span(S).  Each such projection lies in the cone.  Conversely the nearest
    point of the cone lies in the relative interior of a face, so it is the
    projection of w onto that face's span, and triangulating the face gives
    an independent S spanning it with the nearest point in cone(S).  That is
    sum_{j=1}^{min(m, d)} C(m, j) least-squares solves, each for every row.
    """
    d, m = vf_dirs.shape
    norms = np.linalg.norm(W, axis=1)
    dist = norms.copy()
    for size in range(1, min(m, d) + 1):
        for cols in itertools.combinations(range(m), size):
            basis = vf_dirs[:, cols]
            coeffs, _, rank, _ = np.linalg.lstsq(basis, W.T, rcond=None)
            if rank == size:
                resid = np.linalg.norm(W.T - basis @ coeffs, axis=0)
                dist = np.where((coeffs >= 0).all(axis=0), np.minimum(dist, resid), dist)
    return (norms < CONE_MEMBERSHIP_TOL) | (dist <= np.maximum(CONE_MEMBERSHIP_TOL, 1e-7 * norms))


def semigroup_cone_density(
    F: list,
    delta: float,
    window,
):
    """Find v_F such that the positive semigroup of F is delta-dense in
    (v_F + cone(F)) x C, certified on the window.

    Returns (v_F, DensityCertificate).
    """
    _check_delta(delta)
    d, k = _common_shape(F)
    window = _window_box(window, d)
    step = delta / 2.0
    # 1. group-density pre-check on the zonotope of the V-parts; the BFS
    #    corridor must contain the zonotope, which can exceed the user window
    fv_stack = np.asarray([f.v for f in F])
    zono_lo = np.minimum(fv_stack, 0.0).sum(axis=0)
    zono_hi = np.maximum(fv_stack, 0.0).sum(axis=0)
    pre_window = np.stack(
        [np.minimum(window[:, 0], zono_lo), np.maximum(window[:, 1], zono_hi)], axis=1
    )
    group_pts, group_coeffs = _generated_group(F, pre_window, k, delta, COEFF_BOUND)
    t_axes = np.linspace(0.0, 1.0, max(2, int(np.ceil(2.0 / delta)) + 1))
    mesh = np.meshgrid(*([t_axes] * len(F)), indexing="ij")
    targets = sum(m.ravel()[:, None] * f.v for m, f in zip(mesh, F))
    # each zonotope target at torus offsets 0 and 1/2 (or bare when k = 0)
    shifts = np.zeros((1, 0)) if k == 0 else np.stack([np.zeros(k), np.full(k, 0.5)])
    queries = np.concatenate(
        [np.repeat(targets, len(shifts), axis=0), np.tile(shifts, (len(targets), 1))], axis=1
    )
    qi, pj, _ = _near_pairs(group_pts, k, queries, delta)
    first = np.flatnonzero(np.diff(qi, prepend=-1))
    if len(first) < len(queries):
        q = queries[np.setdiff1d(np.arange(len(queries)), qi[first])[0]]
        dist = _nearest_distance(group_pts, k, q[None])[0]
        raise NotDenseAtBudget(f"group of F is not delta-dense near {q[:d]} (distance {dist:.4f})")
    # X: for each query, the group point within delta whose coefficient
    # vector is least negative: it minimizes the corrective power of h and
    # hence the size of v_F.  Only the worst such negativity is needed.
    negativity = np.maximum(0, -group_coeffs.min(axis=1))
    worst_negative = int(np.minimum.reduceat(negativity[pj], first).max())
    # 2. h with h + X inside the semigroup: large positive coefficients
    vf_dirs = np.array([f.v for f in F]).T
    # 3. certify delta-covering of (v_F + cone) on the window *relative to
    #    v_F* (v_F grows with the coefficient budget, so an absolute window
    #    could miss the translated cone entirely).  The h built from the
    #    grid-verified X can still sit slightly before the onset of genuine
    #    delta-density, so escalate h geometrically on a failed pass.
    h_coeff = worst_negative + 1
    for attempt in range(4):
        v_f = h_coeff * sum(f.v for f in F)
        abs_window = np.stack([v_f + window[:, 0], v_f + window[:, 1]], axis=1)
        # the BFS corridor must include the path from the origin to the window
        semi_window = np.stack(
            [np.minimum(0.0, abs_window[:, 0]) - delta, np.maximum(0.0, abs_window[:, 1]) + delta],
            axis=1,
        )
        semi_pts, semi_coeffs = _generated_group(
            F, semi_window, k, delta, COEFF_BOUND, positive_only=True
        )
        centers = _grid_centers(abs_window, k, step)
        # membership reads only the V-part, which the torus axes share
        parts, part_of = np.unique(centers[:, :d], axis=0, return_inverse=True)
        inside = _cone_membership(vf_dirs, parts - v_f)
        keep = centers[inside[part_of.reshape(-1)]]
        if not len(keep):
            raise NotDenseAtBudget("window does not meet the translated cone")
        covered, far = _coverage(semi_pts, k, keep, delta)
        if covered or 2 * h_coeff * max(np.abs(vf_dirs).sum(axis=0).max(), 1.0) > COEFF_BOUND:
            break
        h_coeff *= 2
    cert = DensityCertificate(
        delta=delta,
        subset=tuple(F),
        grid_step=step,
        coeff_bound=COEFF_BOUND,
        covered=covered,
        kind="semigroup",
        d=d,
        points=semi_pts,
        coeffs=semi_coeffs,
        centers=keep,
        uncovered_farthest=None if covered else far,
    )
    if not covered:
        raise NotDenseAtBudget(f"semigroup covering failed at distance {far[1]:.4f}", cert)
    return v_f, cert


def jordan_density_bridge(fam, delta: float, delta_hat: float = 0.0, window=None):
    """Feed the Jordan data of a Schottky family into the cone-density check:
    V = the Cartan subalgebra (dimension n - 1), C trivial; the certificate
    delta is inflated by the measured product-estimate defect 2 l delta_hat."""
    from .schottky_dynamics import chamber_coords

    lams = [chamber_coords(L.lam.coords) for L in fam.generators]
    pts = [TorusPoint(v, np.zeros(0)) for v in lams]
    l = len(fam.generators)
    eff_delta = delta + 2 * l * delta_hat
    if window is None:
        scale = max(np.linalg.norm(v) for v in lams)
        window = [(-5.0 * scale, 5.0 * scale)] * pts[0].d
    return semigroup_cone_density(pts, eff_delta, window)
